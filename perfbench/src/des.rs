//! The two simulator workloads: their inputs, one timed pass over their
//! runs, and the correctness checks every run must pass.

use crate::report::{check, percentile};
use crate::Size;
use eevfs::config::{ClusterSpec, EevfsConfig};
use eevfs::driver::{run_cluster, run_cluster_observed, run_cluster_powered};
use eevfs::RunMetrics;
use eevfs_audit::ResidencyTable;
use eevfs_audit::{build_ledger, reconstruct_spans, AttributionModel, EnergyLedger, RequestSpan};
use eevfs_bench::sweeps::{reference_grid, ExperimentPoint, GridCell};
use eevfs_obs::{Recorder, TraceEvent};
use eevfs_power::{EvictionPolicy, PowerPolicy, TierConfig};
use fault_model::FaultPlan;
use sim_core::SimDuration;
use std::time::{Duration, Instant};
use workload::record::Trace;
use workload::synthetic::{generate, Jitter, SizeDist, SyntheticSpec};

/// Which of the paper's configurations a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// EEVFS with top-K prefetching and the legacy power manager.
    Pf,
    /// EEVFS without prefetching.
    Npf,
    /// PF driven through the `eevfs-power` plane (bandit + DRAM tier).
    Powered,
}

/// One simulation a workload makes per pass.
#[derive(Debug, Clone)]
pub struct DesRun {
    /// Configuration family.
    pub kind: RunKind,
    /// Index into [`DesInputs::traces`].
    pub trace: usize,
    /// Driver configuration.
    pub cfg: EevfsConfig,
}

/// A simulator workload: its generated traces and the runs of one pass.
#[derive(Debug, Clone)]
pub struct DesInputs {
    /// The cluster every run simulates.
    pub cluster: ClusterSpec,
    /// Generated traces.
    pub traces: Vec<Trace>,
    /// Human-readable label per trace.
    pub labels: Vec<String>,
    /// The runs of one pass, in order.
    pub runs: Vec<DesRun>,
}

/// The policy of every powered run: epsilon-greedy bandit sleeps and a
/// 256 MiB per-node DRAM tier.
pub fn powered_policy() -> PowerPolicy {
    PowerPolicy::bandit().with_tier(TierConfig {
        dram_bytes: 256 << 20,
        ssd_bytes: 0,
        policy: EvictionPolicy::Lru,
    })
}

/// Paper-default spec with the workload's request count and seed.
fn paper_spec(requests: u32, seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        requests,
        seed,
        ..SyntheticSpec::paper_default()
    }
}

/// The 16 reference-grid specs with each cell's prefetch K, built the
/// way `eevfs_bench::sweeps::run_grid_cell` builds them.
pub fn grid_specs(size: Size, seed: u64) -> Vec<(String, SyntheticSpec, u32)> {
    let base = paper_spec(size.grid_requests, seed);
    reference_grid()
        .into_iter()
        .map(|cell| {
            let (spec, k) = match cell {
                GridCell::DataSize(mb) => (
                    SyntheticSpec {
                        mean_size_bytes: mb * 1_000_000,
                        ..base.clone()
                    },
                    70,
                ),
                GridCell::Mu(mu) => (
                    SyntheticSpec {
                        mu: f64::from(mu),
                        ..base.clone()
                    },
                    70,
                ),
                GridCell::InterArrival(ms) => (
                    SyntheticSpec {
                        inter_arrival: SimDuration::from_millis(ms),
                        ..base.clone()
                    },
                    70,
                ),
                GridCell::PrefetchK(k) => (base.clone(), k),
            };
            (cell.label(), spec, k)
        })
        .collect()
}

/// The sim-replay trace: paper defaults with Poisson arrivals and 30 %
/// writes.
pub fn replay_spec(size: Size, seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        jitter: Jitter::Exponential,
        write_fraction: 0.3,
        ..paper_spec(size.replay_requests, seed)
    }
}

/// The trace the loopback prototype is set up with: 64 files of 256 KiB
/// whose popularity picks the 16 prefetched files.
pub fn loopback_spec(size: Size, seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        files: crate::loopback::FILES,
        requests: size.loopback_trace_requests,
        mu: 32.0,
        mean_size_bytes: crate::loopback::FILE_BYTES,
        size_dist: SizeDist::Fixed,
        ..paper_spec(0, seed)
    }
}

/// Generates every trace of `specs`, in order.
pub fn generate_all(specs: &[SyntheticSpec]) -> Vec<Trace> {
    specs.iter().map(generate).collect()
}

/// Paper-grid inputs: one PF(K) and one NPF run per grid cell.
pub fn paper_grid(traces: Vec<Trace>, specs: &[(String, SyntheticSpec, u32)]) -> DesInputs {
    let mut runs = Vec::with_capacity(2 * specs.len());
    for (i, (_, _, k)) in specs.iter().enumerate() {
        runs.push(DesRun {
            kind: RunKind::Pf,
            trace: i,
            cfg: EevfsConfig::paper_pf(*k),
        });
        runs.push(DesRun {
            kind: RunKind::Npf,
            trace: i,
            cfg: EevfsConfig::paper_npf(),
        });
    }
    DesInputs {
        cluster: ClusterSpec::paper_testbed(),
        labels: specs.iter().map(|(l, _, _)| l.clone()).collect(),
        traces,
        runs,
    }
}

/// One trace replayed under PF(k), NPF, and the powered plane.
pub fn single_trace(trace: Trace, label: &str, k: u32) -> DesInputs {
    let runs = [RunKind::Pf, RunKind::Npf, RunKind::Powered]
        .into_iter()
        .map(|kind| DesRun {
            kind,
            trace: 0,
            cfg: match kind {
                RunKind::Npf => EevfsConfig::paper_npf(),
                _ => EevfsConfig::paper_pf(k),
            },
        })
        .collect();
    DesInputs {
        cluster: ClusterSpec::paper_testbed(),
        traces: vec![trace],
        labels: vec![label.to_string()],
        runs,
    }
}

/// Executes one run.
pub fn execute(inputs: &DesInputs, run: &DesRun) -> RunMetrics {
    let trace = &inputs.traces[run.trace];
    match run.kind {
        RunKind::Powered => {
            run_cluster_powered(&inputs.cluster, &run.cfg, trace, &powered_policy())
        }
        _ => run_cluster(&inputs.cluster, &run.cfg, trace),
    }
}

/// The outputs of one pass over a workload's runs.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Metrics per run, in run order.
    pub metrics: Vec<RunMetrics>,
    /// Wall time per run.
    pub wall: Vec<Duration>,
    /// Simulated requests offered across the pass.
    pub requests: u64,
}

/// Runs every run of `inputs` once, serially.
pub fn pass(inputs: &DesInputs) -> Pass {
    let mut metrics = Vec::with_capacity(inputs.runs.len());
    let mut wall = Vec::with_capacity(inputs.runs.len());
    let mut requests = 0;
    for run in &inputs.runs {
        let t0 = Instant::now();
        metrics.push(execute(inputs, run));
        wall.push(t0.elapsed());
        requests += inputs.traces[run.trace].len() as u64;
    }
    Pass {
        metrics,
        wall,
        requests,
    }
}

/// Requests each run failed: downstream failures plus overload refusals.
pub fn failed_requests(m: &RunMetrics) -> u64 {
    m.failed_requests + m.overload.rejected + m.overload.shed + m.overload.node_shed
}

/// Checks that every run completed all its requests with a closed
/// overload ledger.
pub fn check_pass(inputs: &DesInputs, pass: &Pass, violations: &mut Vec<String>) {
    for (run, m) in inputs.runs.iter().zip(&pass.metrics) {
        let label = &inputs.labels[run.trace];
        let n = inputs.traces[run.trace].len() as u64;
        check(violations, failed_requests(m) == 0, || {
            format!(
                "{label} {:?}: {} requests failed",
                run.kind,
                failed_requests(m)
            )
        });
        check(violations, m.response.count == n, || {
            format!(
                "{label} {:?}: {} of {n} requests completed",
                run.kind, m.response.count
            )
        });
        check(violations, m.overload.ledger_closes(), || {
            format!(
                "{label} {:?}: overload ledger open: {:?}",
                run.kind, m.overload
            )
        });
    }
}

/// The paper-grid artifact: one `ExperimentPoint` per PF/NPF pair.
pub fn experiment_points(inputs: &DesInputs, pass: &Pass) -> Vec<ExperimentPoint> {
    let mut points = Vec::new();
    for (i, run) in inputs.runs.iter().enumerate() {
        if run.kind != RunKind::Pf {
            continue;
        }
        let npf = inputs
            .runs
            .iter()
            .position(|r| r.kind == RunKind::Npf && r.trace == run.trace)
            .map(|j| pass.metrics[j].clone());
        if let Some(npf) = npf {
            points.push(ExperimentPoint {
                label: inputs.labels[run.trace].clone(),
                x: 0.0,
                pf: pass.metrics[i].clone(),
                npf,
            });
        }
    }
    points
}

/// The simulated figures of merit of a pass: the paper's axes pooled
/// over the workload's PF/NPF pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFigures {
    /// Total PF-run energy per completed PF request, joules.
    pub joules_per_req: f64,
    /// `ΣE_PF / ΣE_NPF`: one minus the paper's energy savings.
    pub energy_pf_over_npf: f64,
    /// Median of the pooled PF response samples, seconds.
    pub response_p50_s: f64,
    /// 99th percentile of the pooled PF response samples, seconds.
    pub response_p99_s: f64,
}

/// Pools a pass's PF and NPF runs into [`SimFigures`].
pub fn sim_figures(inputs: &DesInputs, pass: &Pass) -> SimFigures {
    let (mut e_pf, mut e_npf, mut n_pf) = (0.0, 0.0, 0u64);
    let mut samples = Vec::new();
    for (run, m) in inputs.runs.iter().zip(&pass.metrics) {
        match run.kind {
            RunKind::Pf => {
                e_pf += m.total_energy_j;
                n_pf += m.response.count;
                samples.extend_from_slice(&m.response_samples_s);
            }
            RunKind::Npf => e_npf += m.total_energy_j,
            RunKind::Powered => {}
        }
    }
    SimFigures {
        joules_per_req: e_pf / n_pf as f64,
        energy_pf_over_npf: e_pf / e_npf,
        response_p50_s: percentile(&samples, 0.50),
        response_p99_s: percentile(&samples, 0.99),
    }
}

/// An observed replay of one run, with its reconstructed spans and
/// closed energy ledger.
pub struct Observed {
    /// Every recorded trace event, time-sorted.
    pub events: Vec<TraceEvent>,
    /// Per-request spans.
    pub spans: Vec<RequestSpan>,
    /// The energy ledger built from the spans.
    pub ledger: EnergyLedger,
    /// Wall time of the observed driver call alone.
    pub wall: Duration,
}

/// Replays `run` with a recorder large enough to keep every event, and
/// checks that observation was passive and the ledger closes.
pub fn observe(
    inputs: &DesInputs,
    run: &DesRun,
    plain: &RunMetrics,
    violations: &mut Vec<String>,
) -> Observed {
    let trace = &inputs.traces[run.trace];
    let label = &inputs.labels[run.trace];
    let recorder = Recorder::with_capacity(trace.len() * 16 + 1024);
    let t0 = Instant::now();
    let (metrics, report) = run_cluster_observed(
        &inputs.cluster,
        &run.cfg,
        trace,
        &FaultPlan::none(),
        None,
        recorder,
    );
    let wall = t0.elapsed();
    check(violations, report.recorder.dropped() == 0, || {
        format!(
            "{label}: recorder dropped {} events",
            report.recorder.dropped()
        )
    });
    check(violations, &metrics == plain, || {
        format!(
            "{label} {:?}: observed run differs from the plain run",
            run.kind
        )
    });
    let events: Vec<TraceEvent> = report.recorder.events().cloned().collect();
    let spans = reconstruct_spans(&events);
    let warmup_us = metrics.prefetch.warmup_us;
    let end_us = warmup_us + (metrics.duration_s * 1e6).round() as u64;
    let residency = ResidencyTable::from_events(&events, warmup_us, end_us);
    let model = AttributionModel::from_cluster(&inputs.cluster);
    let ledger = build_ledger(&metrics, &spans, &residency, &model);
    if let Err(e) = ledger.verify_closure(&metrics) {
        violations.push(format!("{label}: energy ledger does not close: {e}"));
    }
    Observed {
        events,
        spans,
        ledger,
        wall,
    }
}
