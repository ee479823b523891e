//! Property tests over the energy attribution plane (proptest).
//!
//! The headline property is ISSUE 8's hard invariant: for *arbitrary*
//! seeded fault/net/corruption schedules — disk failures, node crashes,
//! lossy links with retries and hedging, latent corruption with
//! scrubbing, every power-policy plane — the attribution ledger closes
//! **bit-exactly** against the `RunMetrics` energy totals (including
//! `scrub_energy_j` and the SSD-tier draw, both carried as exact-copy
//! rows), attaching the recorder never changes the metrics, and the
//! whole report pipeline is byte-identical at any `--jobs` count.

use eevfs_audit::{build_ledger, reconstruct_spans, AttributionModel, ResidencyTable};
use eevfs_bench::attribution::build_attribution_report;
use eevfs_bench::{Runner, SweepParams};
use eevfs_chaos::{execute, generate_schedule, RunOutcome, SeverityEnvelope};
use eevfs_obs::Recorder;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Attributed joules sum bit-exactly to the `RunMetrics` totals
    /// under arbitrary chaos schedules, and observation is passive.
    #[test]
    fn ledger_closes_under_arbitrary_chaos(index in 0u32..500, seed in any::<u64>()) {
        let schedule = generate_schedule(&SeverityEnvelope::default_search(), seed, index);
        let observed = execute(&schedule, Some(Recorder::default()));
        let plain = execute(&schedule, None);
        let (metrics, report) = match (observed, plain) {
            (RunOutcome::Done(o), RunOutcome::Done(p)) => {
                // Passivity: the recorder must not perturb the run.
                let a = serde_json::to_string(&o.metrics).expect("serialize");
                let b = serde_json::to_string(&p.metrics).expect("serialize");
                prop_assert_eq!(a, b, "recorder changed the metrics");
                (o.metrics, o.obs.expect("a recorder was passed"))
            }
            (RunOutcome::Rejected(a), RunOutcome::Rejected(b)) => {
                prop_assert_eq!(a, b);
                return Ok(());
            }
            (o, p) => {
                return Err(format!("observed/plain outcomes diverged: {o:?} vs {p:?}"))
            }
        };
        let events: Vec<_> = report.recorder.events().cloned().collect();
        let spans = reconstruct_spans(&events);
        prop_assert_eq!(
            spans.len() as u32, schedule.requests,
            "span reconstructor lost requests"
        );
        let warmup_us = metrics.prefetch.warmup_us;
        let end_us = warmup_us + (metrics.duration_s * 1e6).round() as u64;
        let residency = ResidencyTable::from_events(&events, warmup_us, end_us);
        let model = AttributionModel::from_cluster(
            &eevfs::config::ClusterSpec::paper_testbed(),
        );
        let ledger = build_ledger(&metrics, &spans, &residency, &model);
        if let Err(e) = ledger.verify_closure(&metrics) {
            return Err(format!(
                "ledger failed closure on schedule (index {index}, seed {seed}): {e}"
            ));
        }
        // The exact-copy rows really carry the overlay meters.
        prop_assert_eq!(ledger.scrub_j.to_bits(), metrics.scrub_energy_j.to_bits());
        let ssd_row = ledger
            .disk_rows
            .iter()
            .find(|r| r.name == "ssd-tier")
            .expect("ssd row present");
        prop_assert_eq!(ssd_row.joules.to_bits(), metrics.tier.ssd_energy_j.to_bits());
    }

    /// The attribution report is byte-identical at any `--jobs` count.
    #[test]
    fn report_is_jobs_independent(
        requests in 20u32..80,
        seed in any::<u64>(),
        jobs in 2usize..8,
    ) {
        let p = SweepParams { requests, seed };
        let serial = build_attribution_report(&Runner::serial(), &p)?;
        let parallel = build_attribution_report(&Runner::new(jobs), &p)?;
        let a = serde_json::to_string_pretty(&serial.0).expect("serialize");
        let b = serde_json::to_string_pretty(&parallel.0).expect("serialize");
        prop_assert_eq!(a, b, "report depends on --jobs {}", jobs);
        prop_assert_eq!(serial.1, parallel.1, "tables depend on --jobs");
    }
}
