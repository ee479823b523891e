//! Schedule execution: one [`ChaosSchedule`] in, one [`RunOutcome`] out.
//!
//! The executor rebuilds every driver input from the schedule's explicit
//! fields — synthetic trace, paper testbed cluster, validated plans, RPC
//! policy, optional power plane — and runs them as one
//! [`eevfs::driver::Scenario`] through [`eevfs::driver::try_run`] under
//! `catch_unwind`, so a simulator panic becomes data (an `engine-panic`
//! outcome) instead of poisoning the search. Nothing here draws fresh
//! randomness: the outcome is a pure function of the schedule.

use crate::schedule::{ChaosSchedule, BLOCKS_PER_DISK};
use eevfs::config::{ClusterSpec, EevfsConfig};
use eevfs::driver::{DurabilitySetup, ResilienceSetup, RunOutput, Scenario};
use eevfs::scrub::ScrubPolicy;
use eevfs_obs::Recorder;
use eevfs_power::{EvictionPolicy, PowerPolicy, TierConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use workload::synthetic::{generate, SyntheticSpec};

/// How one schedule execution ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// The run completed; its metrics — and its trace, when a recorder
    /// was passed — are ready for the invariant plane.
    Done(Box<RunOutput>),
    /// The driver rejected the inputs with a typed error.
    Rejected(String),
    /// The simulator panicked mid-run (an internal invariant tripped).
    Panicked(String),
}

/// The power policy a schedule's `power_kind`/`spin_cap` expand to.
pub fn power_policy(s: &ChaosSchedule) -> Option<PowerPolicy> {
    let base = match s.power_kind {
        0 => return None,
        1 => PowerPolicy::paper_fixed(),
        2 => PowerPolicy::ewma(),
        _ => PowerPolicy::bandit().with_tier(TierConfig {
            dram_bytes: 64 << 20,
            ssd_bytes: 4 << 30,
            policy: EvictionPolicy::Lru,
        }),
    };
    let base = base.with_seed(s.seed);
    Some(match s.spin_cap {
        Some(cap) => base.with_spin_cap(cap),
        None => base,
    })
}

/// Executes a schedule once, streaming the structured trace into
/// `recorder` when one is passed (the ledger-closure invariant rebuilds
/// spans and residency from it). Deterministic: same schedule, same
/// outcome, bit-for-bit — including the panic message when the engine
/// panics. Observation is passive: the metrics are bit-identical with and
/// without a recorder.
pub fn execute(s: &ChaosSchedule, recorder: Option<Recorder>) -> RunOutcome {
    let trace = generate(&SyntheticSpec {
        requests: s.requests,
        seed: s.seed,
        ..SyntheticSpec::paper_default()
    });
    let cluster = ClusterSpec::paper_testbed();
    let mut cfg = EevfsConfig::paper_pf_replicated(70, s.replication);
    cfg.overload = s.overload.map(eevfs::config::OverloadConfig::bounded);
    let plans = match s.plans() {
        Ok(p) => p,
        Err(e) => return RunOutcome::Rejected(format!("bad schedule: {e}")),
    };
    let policy = s.rpc_policy();
    let power = power_policy(s);
    let scenario = Scenario {
        faults: Some(&plans.faults),
        resilience: Some(ResilienceSetup {
            net_plan: &plans.net,
            profile: &s.profile,
            policy: &policy,
        }),
        durability: Some(DurabilitySetup {
            corruption: &plans.corruption,
            crashes: &plans.crashes,
            scrub: if s.scrub {
                ScrubPolicy::piggyback_default()
            } else {
                ScrubPolicy::Off
            },
            blocks_per_disk: BLOCKS_PER_DISK,
        }),
        power: power.as_ref(),
        observe: recorder,
        curve: false,
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        eevfs::driver::try_run(&cluster, &cfg, &trace, scenario)
    }));
    match result {
        Ok(Ok(out)) => RunOutcome::Done(Box::new(out)),
        Ok(Err(e)) => RunOutcome::Rejected(e.to_string()),
        Err(payload) => RunOutcome::Panicked(panic_text(payload)),
    }
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{generate_schedule, SeverityEnvelope};

    #[test]
    fn quiet_schedule_completes() {
        let s = ChaosSchedule {
            seed: 11,
            requests: 30,
            replication: 2,
            scrub: true,
            power_kind: 0,
            spin_cap: None,
            policy_kind: 1,
            overload: None,
            faults: Vec::new(),
            net: Vec::new(),
            corruption: Vec::new(),
            crashes: Vec::new(),
            profile: fault_model::LinkFaultProfile::none(),
        };
        match execute(&s, None) {
            RunOutcome::Done(out) => {
                assert_eq!(out.metrics.failed_requests, 0);
                assert_eq!(out.metrics.durability.unrecoverable_blocks, 0);
            }
            other => panic!("quiet schedule should complete, got {other:?}"),
        }
    }

    #[test]
    fn execution_is_bit_identical() {
        let env = SeverityEnvelope::default_search();
        let s = generate_schedule(&env, 3, 5);
        let (a, b) = (execute(&s, None), execute(&s, None));
        match (a, b) {
            (RunOutcome::Done(a), RunOutcome::Done(b)) => {
                let ja = serde_json::to_string(&a.metrics).expect("serialize");
                let jb = serde_json::to_string(&b.metrics).expect("serialize");
                assert_eq!(ja, jb, "same schedule must replay bit-identically");
            }
            (RunOutcome::Rejected(a), RunOutcome::Rejected(b)) => assert_eq!(a, b),
            (RunOutcome::Panicked(a), RunOutcome::Panicked(b)) => assert_eq!(a, b),
            (a, b) => panic!("outcome kind diverged: {a:?} vs {b:?}"),
        }
    }
}
