//! The search loop: fan seeded scenarios across workers, check the
//! invariant plane, and distil the first violation into a replayable
//! [`Reproducer`] artifact.
//!
//! Parallelism comes in through the [`ParallelMap`] trait rather than a
//! dependency on `eevfs-bench` (which depends on *this* crate for the
//! `harness chaos` subcommand): the harness implements the trait for its
//! PR-5 `Runner`, tests use [`SerialPool`]. Determinism does not depend
//! on the pool: scenario `i` is a pure function of `(base_seed, i)`, and
//! the campaign always reports the *lowest-indexed* violating scenario,
//! so any `--jobs` count converges on the same reproducer.

use crate::exec::{execute, RunOutcome};
use crate::invariant::{CheckContext, InvariantSet, Violation};
use crate::schedule::{generate_schedule, ChaosSchedule, SeverityEnvelope};
use crate::shrink::{shrink, ShrinkOutcome};
use serde::{Deserialize, Serialize};

/// Minimal parallel-map abstraction the campaign fans scenarios over.
pub trait ParallelMap {
    /// Runs `f(0), f(1), …, f(n-1)` — possibly concurrently — and returns
    /// the results in index order. `f` must be a pure function of the
    /// index; that is what makes campaign output independent of the pool.
    fn map_indexed(
        &self,
        n: usize,
        f: &(dyn Fn(usize) -> ScenarioReport + Sync),
    ) -> Vec<ScenarioReport>;
}

/// The trivial in-order pool; the reference behaviour every parallel
/// implementation must be byte-identical to.
pub struct SerialPool;

impl ParallelMap for SerialPool {
    fn map_indexed(
        &self,
        n: usize,
        f: &(dyn Fn(usize) -> ScenarioReport + Sync),
    ) -> Vec<ScenarioReport> {
        (0..n).map(f).collect()
    }
}

/// Synthetic invariant name for schedules the driver rejects.
pub const DRIVER_REJECTED: &str = "driver-accepts-schedule";
/// Synthetic invariant name for runs that panic inside the simulator.
pub const ENGINE_PANIC: &str = "engine-panic";

/// What one scenario produced, reduced to what the campaign needs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Scenario index within the campaign.
    pub index: u32,
    /// Scheduled fault events across all four dimensions.
    pub events: u32,
    /// Violations the run produced (empty for a clean scenario).
    pub violations: Vec<Violation>,
}

/// Campaign knobs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Scenarios to search.
    pub scenarios: u32,
    /// Base seed; scenario `i` derives from `(base_seed, i)`.
    pub base_seed: u64,
    /// The severity envelope scenarios are drawn from.
    pub envelope: SeverityEnvelope,
    /// Re-execute every `k`-th scenario and feed both runs to the
    /// determinism invariant (0 disables double-running).
    pub double_run_every: u32,
    /// Candidate-execution budget for the shrinker.
    pub shrink_budget: u32,
}

impl CampaignConfig {
    /// A sensible default: `scenarios` scenarios from the default
    /// envelope, every 8th double-run, shrink budget 600.
    pub fn new(scenarios: u32, base_seed: u64) -> CampaignConfig {
        CampaignConfig {
            scenarios,
            base_seed,
            envelope: SeverityEnvelope::default_search(),
            double_run_every: 8,
            shrink_budget: 600,
        }
    }
}

/// The campaign's result.
#[derive(Debug)]
pub struct CampaignReport {
    /// Scenarios searched.
    pub scenarios: u32,
    /// Reports of scenarios that violated at least one invariant, in
    /// index order.
    pub violating: Vec<ScenarioReport>,
    /// The minimised reproducer of the lowest-indexed violation, if any.
    pub reproducer: Option<Reproducer>,
    /// Candidate executions the shrinker spent.
    pub shrink_attempts: u32,
}

impl CampaignReport {
    /// True when every scenario satisfied every invariant.
    pub fn clean(&self) -> bool {
        self.violating.is_empty()
    }
}

/// Executes one schedule and checks the invariant plane against it.
/// `double_run` re-executes the schedule and hands both runs to the
/// determinism invariant. Rejections and panics surface as synthetic
/// violations so the search treats them like any other broken property.
pub fn check_schedule(
    s: &ChaosSchedule,
    invariants: &InvariantSet,
    double_run: bool,
) -> Vec<Violation> {
    match execute(s, None) {
        RunOutcome::Rejected(e) => vec![Violation {
            invariant: DRIVER_REJECTED.to_string(),
            detail: e,
        }],
        RunOutcome::Panicked(p) => vec![Violation {
            invariant: ENGINE_PANIC.to_string(),
            detail: p,
        }],
        RunOutcome::Done(out) => {
            let second = if double_run {
                match execute(s, None) {
                    RunOutcome::Done(again) => Some(again.metrics),
                    RunOutcome::Rejected(e) => {
                        return vec![Violation {
                            invariant: "determinism".to_string(),
                            detail: format!("re-run rejected: {e}"),
                        }]
                    }
                    RunOutcome::Panicked(p) => {
                        return vec![Violation {
                            invariant: "determinism".to_string(),
                            detail: format!("re-run panicked: {p}"),
                        }]
                    }
                }
            } else {
                None
            };
            invariants.check(&CheckContext {
                schedule: s,
                metrics: &out.metrics,
                second: second.as_ref(),
            })
        }
    }
}

/// Runs a search campaign: `scenarios` seeded schedules through the
/// pool, invariants checked on each, the lowest-indexed violation
/// shrunk (serially, so the result is pool-independent) into a
/// [`Reproducer`].
pub fn run_campaign<P: ParallelMap>(
    pool: &P,
    invariants: &InvariantSet,
    cfg: &CampaignConfig,
) -> CampaignReport {
    let reports = pool.map_indexed(cfg.scenarios as usize, &|i| {
        let schedule = generate_schedule(&cfg.envelope, cfg.base_seed, i as u32);
        let double = cfg.double_run_every > 0 && (i as u32).is_multiple_of(cfg.double_run_every);
        ScenarioReport {
            index: i as u32,
            events: schedule.event_count() as u32,
            violations: check_schedule(&schedule, invariants, double),
        }
    });
    let violating: Vec<ScenarioReport> = reports
        .into_iter()
        .filter(|r| !r.violations.is_empty())
        .collect();
    let (reproducer, shrink_attempts) = match violating.first() {
        None => (None, 0),
        Some(first) => {
            let schedule = generate_schedule(&cfg.envelope, cfg.base_seed, first.index);
            let violation = &first.violations[0];
            let ShrinkOutcome {
                schedule: shrunk,
                attempts,
                ..
            } = shrink(
                &schedule,
                &violation.invariant,
                invariants,
                cfg.shrink_budget,
            );
            let final_violation = check_schedule(&shrunk, invariants, true)
                .into_iter()
                .find(|v| v.invariant == violation.invariant)
                .unwrap_or_else(|| violation.clone());
            let digest = outcome_digest(&shrunk);
            (
                Some(Reproducer {
                    version: REPRODUCER_VERSION,
                    invariant: final_violation.invariant,
                    detail: final_violation.detail,
                    base_seed: cfg.base_seed,
                    scenario_index: first.index,
                    original_events: schedule.event_count() as u32,
                    shrunk_events: shrunk.event_count() as u32,
                    metrics_digest: digest,
                    schedule: shrunk,
                }),
                attempts,
            )
        }
    };
    CampaignReport {
        scenarios: cfg.scenarios,
        violating,
        reproducer,
        shrink_attempts,
    }
}

/// Artifact format version; bump on any incompatible schema change.
pub const REPRODUCER_VERSION: u32 = 1;

/// A minimal replayable witness of one invariant violation. Serialized
/// as pretty JSON; `harness chaos --replay <file>` re-executes it and
/// verifies both the violation and the metrics digest bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reproducer {
    /// Artifact schema version ([`REPRODUCER_VERSION`]).
    pub version: u32,
    /// Name of the violated invariant.
    pub invariant: String,
    /// The violation detail at the shrunk schedule.
    pub detail: String,
    /// Campaign base seed the scenario was drawn from.
    pub base_seed: u64,
    /// Campaign index of the original scenario.
    pub scenario_index: u32,
    /// Fault events in the original scenario.
    pub original_events: u32,
    /// Fault events after shrinking.
    pub shrunk_events: u32,
    /// FNV-1a digest of the shrunk run's serialized metrics (or of the
    /// rejection/panic text for non-completing runs).
    pub metrics_digest: String,
    /// The shrunk schedule itself — everything needed to re-run.
    pub schedule: ChaosSchedule,
}

/// The digest replay compares against: FNV-1a/64 over the serialized
/// run outcome, rendered as fixed-width hex.
pub fn outcome_digest(s: &ChaosSchedule) -> String {
    let text = match execute(s, None) {
        RunOutcome::Done(out) => {
            serde_json::to_string(&out.metrics).unwrap_or_else(|e| format!("serialize-error: {e}"))
        }
        RunOutcome::Rejected(e) => format!("rejected: {e}"),
        RunOutcome::Panicked(p) => format!("panicked: {p}"),
    };
    format!("{:016x}", fnv1a(text.as_bytes()))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What replaying a reproducer established.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Violations the replayed run produced.
    pub violations: Vec<Violation>,
    /// Digest of the replayed run.
    pub digest: String,
    /// The replay reproduced the recorded violation (same invariant and
    /// detail).
    pub violation_reproduced: bool,
    /// The replay's metrics digest matches the artifact byte-for-byte.
    pub digest_matches: bool,
}

impl ReplayReport {
    /// True when the artifact reproduced exactly.
    pub fn exact(&self) -> bool {
        self.violation_reproduced && self.digest_matches
    }
}

/// Re-executes a reproducer and verifies it reproduces bit-for-bit.
/// Replays always double-run so the determinism invariant stays armed.
pub fn replay(rep: &Reproducer, invariants: &InvariantSet) -> ReplayReport {
    let violations = check_schedule(&rep.schedule, invariants, true);
    let digest = outcome_digest(&rep.schedule);
    let violation_reproduced = violations
        .iter()
        .any(|v| v.invariant == rep.invariant && v.detail == rep.detail);
    let digest_matches = digest == rep.metrics_digest;
    ReplayReport {
        violations,
        digest,
        violation_reproduced,
        digest_matches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a/64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn clean_quiet_campaign() {
        // A zero-severity envelope yields no faults, so the standard
        // plane must be clean.
        let mut env = SeverityEnvelope::default_search();
        env.disk_fail_per_hour = crate::schedule::Range::fixed(0.0);
        env.node_crash_per_hour = crate::schedule::Range::fixed(0.0);
        env.spin_up_fail_per_hour = crate::schedule::Range::fixed(0.0);
        env.partition_per_hour = crate::schedule::Range::fixed(0.0);
        env.lse_per_disk_hour = crate::schedule::Range::fixed(0.0);
        env.flip_per_disk_hour = crate::schedule::Range::fixed(0.0);
        env.crash_per_node_hour = crate::schedule::Range::fixed(0.0);
        env.drop_prob = crate::schedule::Range::fixed(0.0);
        env.requests_lo = 20;
        env.requests_hi = 30;
        let cfg = CampaignConfig {
            envelope: env,
            ..CampaignConfig::new(4, 99)
        };
        let report = run_campaign(&SerialPool, &InvariantSet::standard(), &cfg);
        assert!(report.clean(), "violations: {:?}", report.violating);
    }

    #[test]
    fn gated_campaign_keeps_the_shed_ledger_closed() {
        // Every scenario runs behind a bounded admission gate; the
        // shed-ledger and bounded-queue invariants must hold across the
        // full adversarial envelope (faults, partitions, power planes).
        let mut env = SeverityEnvelope::default_search();
        env.overload_prob = 1.0;
        env.requests_lo = 20;
        env.requests_hi = 40;
        let cfg = CampaignConfig {
            envelope: env,
            ..CampaignConfig::new(6, 23)
        };
        let report = run_campaign(&SerialPool, &InvariantSet::standard(), &cfg);
        assert!(report.clean(), "violations: {:?}", report.violating);
        // The envelope really did arm the gate on every scenario.
        for i in 0..cfg.scenarios {
            let s = generate_schedule(&cfg.envelope, cfg.base_seed, i);
            assert!(s.overload.is_some(), "scenario {i} lost its gate");
        }
    }
}
