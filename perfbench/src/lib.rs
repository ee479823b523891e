//! End-to-end and per-layer benchmark of the EEVFS reproduction.
//!
//! Three workloads, each built from a seed:
//!
//! * `paper-grid` — the 16-cell Table II reference grid, PF(K) and NPF per
//!   cell. Set-up is trace generation; the measured phase is the 32
//!   simulations plus serialising the resulting `ExperimentPoint`s.
//! * `sim-replay` — one long Poisson-arrival trace with 30 % writes,
//!   replayed under PF(70), NPF, and the `eevfs-power` plane.
//! * `loopback` — the TCP prototype under two closed-loop clients. It is
//!   runnable but not in `BENCHMARK.json`: its wall-clock figures follow
//!   the host's CPU contention too closely to gate on (see the README).
//!
//! An untraced run ([`run`] with `trace == false`) prints the end-to-end
//! metrics; a traced run prints the per-layer profile of [`profile`],
//! timed from outside each layer's public functions.

pub mod des;
pub mod loopback;
pub mod profile;
pub mod report;

use des::{DesInputs, Pass};
use report::{check, median, peak_rss_mb, percentile, timed, Metrics, Outcome};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The `eevfs-bench` harness default seed.
pub const DEFAULT_SEED: u64 = 0x5EED_EEF5;
/// The held-out seed: claims made on other seeds are re-checked here.
pub const HELD_OUT_SEED: u64 = 0x0BAD_5EED;

/// Input sizes. [`Size::FULL`] is the benchmark; [`Size::TINY`] is a
/// smoke-test scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Requests per paper-grid cell.
    pub grid_requests: u32,
    /// Requests in the sim-replay trace.
    pub replay_requests: u32,
    /// Requests in the trace the prototype is set up with.
    pub loopback_trace_requests: u32,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// Loopback set-ups per untraced run (each is cheap).
    pub loopback_setups: usize,
    /// Loopback requests per client per load block.
    pub block_per_client: usize,
    /// Iterations of each codec and store micro-timing.
    pub micro_iters: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub const FULL: Size = Size {
        grid_requests: 30_000,
        replay_requests: 200_000,
        loopback_trace_requests: 4_000,
        setups: 3,
        loopback_setups: 7,
        block_per_client: 500,
        micro_iters: 200,
    };

    /// Sizes for smoke tests: seconds instead of minutes.
    pub const TINY: Size = Size {
        grid_requests: 200,
        replay_requests: 1_000,
        loopback_trace_requests: 200,
        setups: 1,
        loopback_setups: 1,
        block_per_client: 10,
        micro_iters: 3,
    };
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Table II reference grid on the simulator.
    PaperGrid,
    /// One long read/write trace on the simulator, both power paths.
    SimReplay,
    /// The loopback-TCP prototype under closed-loop load.
    Loopback,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::PaperGrid, Workload::SimReplay, Workload::Loopback];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::SimReplay => "sim-replay",
            Workload::Loopback => "loopback",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Print the per-layer profile instead of the end-to-end metrics.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Directory for the prototype's file stores.
    pub scratch: PathBuf,
}

/// Runs one invocation. `Err` is an operational failure (nothing to
/// report); failed correctness checks come back in
/// [`Outcome::violations`].
pub fn run(opts: &Options) -> Result<Outcome, String> {
    if opts.trace {
        return profile::profile(opts);
    }
    match opts.workload {
        Workload::PaperGrid | Workload::SimReplay => des_end_to_end(opts),
        Workload::Loopback => loopback_end_to_end(opts),
    }
}

/// Generates a simulator workload's inputs from `seed`.
pub fn des_inputs(workload: Workload, size: Size, seed: u64) -> DesInputs {
    match workload {
        Workload::PaperGrid => {
            let specs = des::grid_specs(size, seed);
            let synth: Vec<_> = specs.iter().map(|(_, s, _)| s.clone()).collect();
            des::paper_grid(des::generate_all(&synth), &specs)
        }
        Workload::SimReplay => des::single_trace(
            workload::synthetic::generate(&des::replay_spec(size, seed)),
            "sim-replay",
            70,
        ),
        Workload::Loopback => des::single_trace(
            workload::synthetic::generate(&des::loopback_spec(size, seed)),
            "loopback",
            loopback::PREFETCH,
        ),
    }
}

/// One repetition of a measured phase: a DES pass over the workload's
/// runs, or one loopback block of GETs with fresh client threads. Every
/// repetition of a run does the same work.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Operations completed: simulated requests or served GETs.
    pub ops: u64,
    /// Wall time of each part of the repetition, seconds, in the same
    /// order in every repetition: one per DES run, plus serialisation on
    /// paper-grid; the whole block on loopback.
    pub parts: Vec<f64>,
    /// Client latency per served GET (empty for DES passes).
    pub latencies_ms: Vec<f64>,
}

/// Goodput of one repetition's work done at each part's best speed: the
/// operations of a repetition over the sum, across its parts, of each
/// part's least wall time. On a shared host, other tenants slow stretches
/// of a run by up to a third; the least time of a part is the one such a
/// stretch missed.
pub fn best_goodput(reps: &[Rep]) -> f64 {
    let Some(first) = reps.first() else {
        return f64::NAN;
    };
    let best: f64 = (0..first.parts.len())
        .map(|i| {
            reps.iter()
                .map(|r| r.parts[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    first.ops as f64 / best
}

/// The metrics every untraced run prints, in `BENCHMARK.json` order.
/// Goodput comes from [`best_goodput`]; latencies are medians over
/// repetitions.
struct EndToEnd {
    setup_s: Vec<f64>,
    reps: Vec<Rep>,
    attempted: u64,
    failed: u64,
    peak_rss_mb: f64,
    sim: des::SimFigures,
}

impl EndToEnd {
    fn into_outcome(self, violations: Vec<String>) -> Outcome {
        let over_reps =
            |f: &dyn Fn(&Rep) -> f64| median(&self.reps.iter().map(f).collect::<Vec<_>>());
        eprintln!(
            "perfbench: {} ops in {} repetitions, {} set-ups",
            self.reps.iter().map(|r| r.ops).sum::<u64>(),
            self.reps.len(),
            self.setup_s.len()
        );
        let mut m = Metrics::default();
        m.push("setup_s", median(&self.setup_s), "s");
        m.push("goodput_ops_per_s", best_goodput(&self.reps), "1/s");
        if self.reps.iter().all(|r| !r.latencies_ms.is_empty()) {
            // Per-GET latency, on the workload that serves GETs; each
            // block's p99 has 10 samples beyond it.
            m.push(
                "p50_ms",
                over_reps(&|r| percentile(&r.latencies_ms, 0.50)),
                "ms",
            );
            m.push(
                "p99_ms",
                over_reps(&|r| percentile(&r.latencies_ms, 0.99)),
                "ms",
            );
        }
        m.push(
            "success_ratio",
            (self.attempted - self.failed) as f64 / self.attempted as f64,
            "ratio",
        );
        m.push("peak_rss_mb", self.peak_rss_mb, "MiB");
        m.push("sim_joules_per_req", self.sim.joules_per_req, "sim_J");
        m.push(
            "sim_energy_pf_over_npf",
            self.sim.energy_pf_over_npf,
            "ratio",
        );
        m.push("sim_response_p50_s", self.sim.response_p50_s, "sim_s");
        m.push("sim_response_p99_s", self.sim.response_p99_s, "sim_s");
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            violations,
            metrics: m,
        }
    }
}

/// Serialises the paper-grid artifact, as the harness writes it.
pub fn grid_artifact(inputs: &DesInputs, pass: &Pass) -> Result<String, String> {
    serde_json::to_string(&des::experiment_points(inputs, pass))
        .map_err(|e| format!("serialise grid artifact: {e}"))
}

/// paper-grid and sim-replay: repeated set-up, then whole passes over the
/// runs until the measured phase has lasted `seconds`.
fn des_end_to_end(opts: &Options) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(opts.size.setups);
    let mut inputs = None;
    for _ in 0..opts.size.setups.max(1) {
        // Drop the previous set-up first so memory peaks at one copy.
        drop(inputs.take());
        let (built, d) = timed(|| des_inputs(opts.workload, opts.size, opts.seed));
        setup_s.push(d.as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.ok_or("no set-up ran")?;

    let mut violations = Vec::new();
    let mut first: Option<Pass> = None;
    let mut reps = Vec::new();
    let mut failed = 0u64;
    let t0 = Instant::now();
    while reps.is_empty() || t0.elapsed().as_secs_f64() < opts.seconds {
        let p = des::pass(&inputs);
        let mut parts: Vec<f64> = p.wall.iter().map(Duration::as_secs_f64).collect();
        if opts.workload == Workload::PaperGrid {
            let (artifact, d) = timed(|| grid_artifact(&inputs, &p));
            std::hint::black_box(artifact?);
            parts.push(d.as_secs_f64());
        }
        reps.push(Rep {
            ops: p.requests,
            parts,
            latencies_ms: Vec::new(),
        });
        failed += p.metrics.iter().map(des::failed_requests).sum::<u64>();
        match &first {
            None => {
                des::check_pass(&inputs, &p, &mut violations);
                first = Some(p);
            }
            Some(f) => check(&mut violations, f.metrics == p.metrics, || {
                "a repeated pass differs from the first".to_string()
            }),
        }
    }
    let peak = peak_rss_mb();
    let first = first.ok_or("no pass ran")?;

    if opts.workload == Workload::SimReplay {
        // Passive observation and a closed ledger, after the peak-memory
        // reading so the recorder's buffer does not count against it.
        let pf = inputs
            .runs
            .iter()
            .position(|r| r.kind == des::RunKind::Pf)
            .ok_or("sim-replay has no PF run")?;
        des::observe(
            &inputs,
            &inputs.runs[pf],
            &first.metrics[pf],
            &mut violations,
        );
    }
    Ok(EndToEnd {
        setup_s,
        attempted: reps.iter().map(|r| r.ops).sum(),
        failed,
        reps,
        peak_rss_mb: peak,
        sim: des::sim_figures(&inputs, &first),
    }
    .into_outcome(violations))
}

/// A per-process store directory under the scratch root.
pub fn store_root(opts: &Options, tag: &str) -> PathBuf {
    opts.scratch
        .join(format!("store-{}-{tag}", std::process::id()))
}

/// loopback: repeated cluster start-up, closed-loop load for `seconds`,
/// then ledger and content checks. The `sim_*` figures are the
/// simulator's for the trace the prototype was set up with.
fn loopback_end_to_end(opts: &Options) -> Result<Outcome, String> {
    let trace = workload::synthetic::generate(&des::loopback_spec(opts.size, opts.seed));
    let root = store_root(opts, "e2e");
    let mut setup_s = Vec::with_capacity(opts.size.loopback_setups);
    let mut cluster: Option<eevfs_runtime::ClusterHandle> = None;
    for _ in 0..opts.size.loopback_setups.max(1) {
        if let Some(c) = cluster.take() {
            c.shutdown();
        }
        let (c, d) = timed(|| loopback::start(&root, &trace, None));
        setup_s.push(d.as_secs_f64());
        cluster = Some(c?);
    }
    let mut cluster = cluster.ok_or("no set-up ran")?;

    let mut violations = Vec::new();
    let measured = (|| {
        let before = loopback::stats(&mut cluster)?;
        let blocks = loopback::load(
            &cluster,
            opts.seconds,
            opts.size.block_per_client,
            opts.seed,
        )?;
        let window = loopback::stats(&mut cluster)? - before;
        let peak = peak_rss_mb();
        let report = loopback::merge(&blocks);
        loopback::check_cluster(&mut cluster, &report, &window, opts.seed, &mut violations);
        Ok::<_, String>((blocks, report, peak))
    })();
    cluster.shutdown();
    let (blocks, report, peak) = measured?;
    let inputs = des::single_trace(trace, "loopback", loopback::PREFETCH);
    let p = des::pass(&inputs);
    des::check_pass(&inputs, &p, &mut violations);
    Ok(EndToEnd {
        setup_s,
        reps: blocks
            .iter()
            .map(|b| Rep {
                ops: b.completed,
                parts: vec![b.elapsed.as_secs_f64()],
                latencies_ms: b.latencies.iter().map(|d| d.as_secs_f64() * 1e3).collect(),
            })
            .collect(),
        attempted: report.sent,
        failed: loopback::failed(&report),
        peak_rss_mb: peak,
        sim: des::sim_figures(&inputs, &p),
    }
    .into_outcome(violations))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_goodput_takes_each_parts_least_time() {
        let rep = |parts: Vec<f64>| Rep {
            ops: 30,
            parts,
            latencies_ms: Vec::new(),
        };
        let reps = [
            rep(vec![1.0, 4.0]),
            rep(vec![3.0, 2.0]),
            rep(vec![2.0, 3.0]),
        ];
        assert_eq!(best_goodput(&reps), 10.0);
        assert!(best_goodput(&[]).is_nan());
    }
}
