//! The benchmark's own checks, at smoke-test size: every workload runs,
//! prints exactly the metrics `BENCHMARK.json` lists, and reports the
//! simulated figures bit-identically for a fixed seed.

use eevfs_perfbench::report::Outcome;
use eevfs_perfbench::{run, Options, Size, Workload};
use serde::Deserialize;
use std::path::PathBuf;

#[derive(Debug, Deserialize)]
struct MetricSpec {
    name: String,
    unit: String,
}

#[derive(Debug, Deserialize)]
struct WorkloadSpec {
    name: String,
}

#[derive(Debug, Deserialize)]
struct Bench {
    workloads: Vec<WorkloadSpec>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

fn bench() -> Bench {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("parse BENCHMARK.json")
}

fn tiny(workload: Workload, seed: u64, trace: bool, tag: &str) -> Outcome {
    let opts = Options {
        workload,
        seed,
        seconds: 0.05,
        trace,
        size: Size::TINY,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag),
    };
    let outcome = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(
        outcome.violations.is_empty(),
        "{}: {:?}",
        workload.name(),
        outcome.violations
    );
    outcome
}

fn names_and_units(o: &Outcome) -> Vec<(String, String)> {
    o.metrics
        .0
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn spec_names(specs: &[MetricSpec]) -> Vec<(String, String)> {
    specs
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect()
}

#[test]
fn benchmark_json_names_runnable_workloads() {
    for w in bench().workloads {
        assert!(Workload::parse(&w.name).is_some(), "{}", w.name);
    }
}

#[test]
fn every_workload_prints_the_listed_metrics() {
    let b = bench();
    let gated: Vec<&str> = b.workloads.iter().map(|w| w.name.as_str()).collect();
    for w in Workload::ALL {
        let e2e = tiny(w, 7, false, &format!("names-e2e-{}", w.name()));
        let printed = names_and_units(&e2e);
        if gated.contains(&w.name()) {
            assert_eq!(printed, spec_names(&b.end_to_end), "{}", w.name());
        } else {
            // An ungated workload prints the gated set and may add more.
            for spec in spec_names(&b.end_to_end) {
                assert!(printed.contains(&spec), "{}: {spec:?}", w.name());
            }
        }
        for m in &e2e.metrics.0 {
            assert!(
                m.value.is_finite() && m.value != 0.0,
                "{} {}: {}",
                w.name(),
                m.name,
                m.value
            );
        }
        assert!(e2e.attempted > 0 && e2e.failed == 0, "{}", w.name());

        let traced = tiny(w, 7, true, &format!("names-traced-{}", w.name()));
        assert_eq!(
            names_and_units(&traced),
            spec_names(&b.per_layer),
            "{}",
            w.name()
        );
        assert!(traced.metrics.0.iter().all(|m| m.value.is_finite()));
    }
}

#[test]
fn sim_figures_repeat_exactly_for_a_seed() {
    for w in Workload::ALL {
        let sim = |o: &Outcome| -> Vec<(String, u64)> {
            o.metrics
                .0
                .iter()
                .filter(|m| m.name.starts_with("sim_"))
                .map(|m| (m.name.clone(), m.value.to_bits()))
                .collect()
        };
        let a = sim(&tiny(w, 11, false, &format!("repeat-a-{}", w.name())));
        let b = sim(&tiny(w, 11, false, &format!("repeat-b-{}", w.name())));
        assert_eq!(a.len(), 4, "{}", w.name());
        assert_eq!(a, b, "{}", w.name());
        let other = sim(&tiny(w, 12, false, &format!("repeat-c-{}", w.name())));
        assert_ne!(a, other, "{}: the seed does not reach the inputs", w.name());
    }
}
