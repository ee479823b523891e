//! Cross-crate tests for the `eevfs-power` policy plane: every driver
//! variant scores sleeps through the same `PredictionTracker` path,
//! powered runs replay bit-identically, and observation stays passive.

use eevfs::config::{ArrivalMode, ClusterSpec, EevfsConfig, PowerPolicy as StaticPower};
use eevfs::driver::{
    run_cluster, run_cluster_durable, run_cluster_observed, run_cluster_powered,
    try_run_cluster_chaos_observed, ChaosSetup, DurabilitySetup,
};
use eevfs::scrub::ScrubPolicy;
use eevfs_power::{EvictionPolicy, PowerPolicy, TierConfig};
use fault_model::{CorruptionPlan, CrashPlan, FaultPlan};
use workload::synthetic::{generate, SyntheticSpec};

fn small_trace() -> workload::record::Trace {
    generate(&SyntheticSpec {
        requests: 150,
        ..SyntheticSpec::paper_default()
    })
}

/// Satellite check: `run_cluster`, the durable variant, and the observed
/// variant all route sleep scoring through the same tracker, so with
/// empty fault/corruption plans their prediction summaries agree exactly.
#[test]
fn every_variant_scores_predictions_identically() {
    let cluster = ClusterSpec::paper_testbed();
    let cfg = EevfsConfig::paper_pf(70);
    let trace = small_trace();

    let plain = run_cluster(&cluster, &cfg, &trace);
    assert!(plain.prediction.sleeps > 0, "run must sleep to score");

    let corruption = CorruptionPlan::none();
    let crashes = CrashPlan::none();
    let durable = run_cluster_durable(
        &cluster,
        &cfg,
        &trace,
        &FaultPlan::none(),
        DurabilitySetup {
            corruption: &corruption,
            crashes: &crashes,
            scrub: ScrubPolicy::Off,
            blocks_per_disk: 64,
        },
    );
    assert_eq!(plain.prediction, durable.prediction);

    let (observed, _) = run_cluster_observed(
        &cluster,
        &cfg,
        &trace,
        &FaultPlan::none(),
        None,
        eevfs_obs::Recorder::default(),
    );
    assert_eq!(plain.prediction, observed.prediction);
}

/// Powered runs are pure functions of their inputs: same policy, same
/// trace, bit-identical metrics.
#[test]
fn powered_replay_is_bit_identical() {
    let cluster = ClusterSpec::paper_testbed();
    let cfg = EevfsConfig::paper_pf(70);
    let trace = small_trace();
    let policy = PowerPolicy::bandit().with_tier(TierConfig {
        dram_bytes: 64 << 20,
        ssd_bytes: 1 << 30,
        policy: EvictionPolicy::SampledLfu { sample: 5 },
    });
    let a = run_cluster_powered(&cluster, &cfg, &trace, &policy);
    let b = run_cluster_powered(&cluster, &cfg, &trace, &policy);
    assert_eq!(a, b, "powered replay must be bit-identical");
    assert!(a.tier.dram_hits > 0, "tier must absorb reuse: {:?}", a.tier);
}

/// Observation never perturbs a powered run: metrics match the
/// unobserved path, and the registry carries the tier counters.
#[test]
fn powered_observation_is_passive() {
    let cluster = ClusterSpec::paper_testbed();
    let cfg = EevfsConfig::paper_pf(70);
    let trace = small_trace();
    let policy = PowerPolicy::ewma().with_tier(TierConfig {
        dram_bytes: 256 << 20,
        ssd_bytes: 0,
        policy: EvictionPolicy::Lru,
    });
    let bare = run_cluster_powered(&cluster, &cfg, &trace, &policy);
    let (observed, report) = try_run_cluster_chaos_observed(
        &cluster,
        &cfg,
        &trace,
        &FaultPlan::none(),
        ChaosSetup {
            power: Some(&policy),
            ..ChaosSetup::default()
        },
        eevfs_obs::Recorder::default(),
    )
    .expect("valid inputs");
    assert_eq!(bare, observed, "observation must be passive");
    assert_eq!(
        report.registry.counter("tier_dram_hits"),
        bare.tier.dram_hits,
    );
}

/// With no tier configured, tier counters stay zero and the fixed
/// predictor still spins disks down (the legacy-baseline shape).
#[test]
fn fixed_no_tier_matches_baseline_shape() {
    let cluster = ClusterSpec::paper_testbed();
    let cfg = EevfsConfig::paper_pf(70);
    let trace = small_trace();
    let powered = run_cluster_powered(&cluster, &cfg, &trace, &PowerPolicy::paper_fixed());
    assert!(powered.prediction.sleeps > 0);
    assert_eq!(powered.tier.dram_hits, 0);
    assert_eq!(powered.tier.ssd_hits, 0);
    assert_eq!(powered.tier.ssd_energy_j, 0.0);
    let legacy = run_cluster(&cluster, &cfg, &trace);
    assert_eq!(legacy.tier, eevfs_power::TierStats::default());
}

/// A spin-cycle cap of zero forbids every sleep: the budget records the
/// denials and the disks never spin down.
#[test]
fn spin_budget_denies_sleeps_at_cap_zero() {
    let cluster = ClusterSpec::paper_testbed();
    let cfg = EevfsConfig::paper_pf(70);
    let trace = small_trace();
    let capped = run_cluster_powered(
        &cluster,
        &cfg,
        &trace,
        &PowerPolicy::paper_fixed().with_spin_cap(0),
    );
    assert_eq!(capped.prediction.sleeps, 0, "cap 0 must forbid sleeping");
    assert!(capped.tier.sleeps_denied > 0, "denials must be metered");
    assert_eq!(capped.transitions.spin_downs, 0);
}

/// The static idle timer and the plane's `paper_fixed` predictor are the
/// same policy: under `IdleTimer`, the plain run and the powered run agree
/// on every metric but the tier block (which only a supplied policy
/// reports), across arrival modes, NPF, writes, striping, and seeds.
#[test]
fn idle_timer_matches_the_paper_fixed_plane() {
    let cluster = ClusterSpec::paper_testbed();
    let timer = |mut cfg: EevfsConfig| {
        cfg.power = StaticPower::IdleTimer;
        cfg
    };
    let configs = [
        ("open-loop", timer(EevfsConfig::paper_pf(70)), 0.0),
        (
            "closed-loop",
            timer(EevfsConfig {
                arrival: ArrivalMode::ClosedLoop { streams: 4 },
                ..EevfsConfig::paper_pf(70)
            }),
            0.0,
        ),
        ("npf", timer(EevfsConfig::paper_npf()), 0.0),
        ("writes", timer(EevfsConfig::paper_pf(70)), 0.3),
        ("striped", timer(EevfsConfig::paper_pf_striped(70)), 0.0),
    ];
    for seed in [1u64, 7, 42] {
        for (name, cfg, write_fraction) in &configs {
            let trace = generate(&SyntheticSpec {
                requests: 150,
                write_fraction: *write_fraction,
                seed,
                ..SyntheticSpec::paper_default()
            });
            let plain = run_cluster(&cluster, cfg, &trace);
            let mut powered =
                run_cluster_powered(&cluster, cfg, &trace, &PowerPolicy::paper_fixed());
            powered.tier = plain.tier;
            assert_eq!(plain, powered, "{name} seed {seed}: paths diverge");
        }
    }
}
