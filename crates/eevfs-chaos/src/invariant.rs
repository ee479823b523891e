//! The invariant plane: properties every run must satisfy, checked
//! against [`eevfs::RunMetrics`] after each scenario.
//!
//! Invariants are *conditional on the schedule*: each one derives its
//! guard from the scenario that produced the metrics (e.g. no-data-loss
//! only applies at replication >= 2 with scrubbing and no fail-stop
//! outages, because a crash overlapping a detection can legitimately
//! leave a block unrecoverable). An invariant that does not apply
//! returns `Ok` — the search loop does not distinguish "held" from
//! "not applicable", only violations matter.

use crate::schedule::ChaosSchedule;
use eevfs::RunMetrics;
use fault_model::FaultKind;
use serde::{Deserialize, Serialize};

/// Everything an invariant may look at for one scenario.
pub struct CheckContext<'a> {
    /// The schedule that produced the run (guards derive from it).
    pub schedule: &'a ChaosSchedule,
    /// The run's metrics.
    pub metrics: &'a RunMetrics,
    /// Metrics of an immediate same-input re-run, when the campaign
    /// double-executed this scenario (the determinism invariant's food).
    pub second: Option<&'a RunMetrics>,
}

/// One broken invariant on one scenario.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// `Invariant::name` of the property that failed.
    pub invariant: String,
    /// Human-readable account of the failure.
    pub detail: String,
}

/// A property of every run. Implementations must be pure functions of
/// the context so that re-checking a replayed run reproduces the same
/// verdict.
pub trait Invariant: Send + Sync {
    /// Stable identifier, used to match violations across shrink steps
    /// and replays.
    fn name(&self) -> &'static str;
    /// `Err(detail)` when the property is violated.
    fn check(&self, cx: &CheckContext<'_>) -> Result<(), String>;
}

/// An ordered set of invariants checked after every run.
pub struct InvariantSet {
    invariants: Vec<Box<dyn Invariant>>,
}

impl InvariantSet {
    /// The real invariant plane: every property the DES is supposed to
    /// guarantee under adversarial composition.
    pub fn standard() -> InvariantSet {
        InvariantSet {
            invariants: vec![
                Box::new(EnergyConservation),
                Box::new(EnergySane),
                Box::new(NoDataLoss),
                Box::new(DetectionAccounting),
                Box::new(ReplicaCover),
                Box::new(PredictionAccounting),
                Box::new(BreakerLegality),
                Box::new(JournalAccounting),
                Box::new(ResponseAccounting),
                Box::new(TierLegality),
                Box::new(Determinism),
                Box::new(LedgerClosure),
                Box::new(ShedLedger),
                Box::new(BoundedQueue),
            ],
        }
    }

    /// The standard plane plus the deliberately-broken canary invariant.
    /// The canary asserts the cluster never sees a fault, which any
    /// scheduled fault event refutes — proving end-to-end that the
    /// searcher finds violations and the shrinker minimises them.
    pub fn with_canary() -> InvariantSet {
        let mut set = InvariantSet::standard();
        set.invariants.push(Box::new(CanaryQuietCluster));
        set
    }

    /// Checks every invariant; returns all violations in registry order.
    pub fn check(&self, cx: &CheckContext<'_>) -> Vec<Violation> {
        self.invariants
            .iter()
            .filter_map(|inv| {
                inv.check(cx).err().map(|detail| Violation {
                    invariant: inv.name().to_string(),
                    detail,
                })
            })
            .collect()
    }

    /// Registered invariant names, in check order.
    pub fn names(&self) -> Vec<&'static str> {
        self.invariants.iter().map(|i| i.name()).collect()
    }
}

fn rel_close(a: f64, b: f64, eps: f64) -> bool {
    (a - b).abs() <= eps * a.abs().max(b.abs()).max(1.0)
}

/// The fail-stop events (disk failures + node crashes) of a schedule,
/// merged from the fault and crash plans, time-ordered.
fn fail_stop_events(s: &ChaosSchedule) -> Vec<fault_model::FaultEvent> {
    let mut all: Vec<_> = s
        .faults
        .iter()
        .chain(s.crashes.iter())
        .filter(|e| {
            matches!(
                e.kind,
                FaultKind::DiskFail { .. }
                    | FaultKind::DiskRepair { .. }
                    | FaultKind::NodeCrash { .. }
                    | FaultKind::NodeRestart { .. }
            )
        })
        .copied()
        .collect();
    all.sort_by_key(|e| e.at);
    all
}

/// Peak number of concurrently-dead replica holders (down nodes + failed
/// disks on up nodes) over the schedule. Replicas of a file live on
/// distinct nodes, so a peak below the replication factor means some
/// healthy copy existed at every instant.
fn max_concurrent_outages(s: &ChaosSchedule) -> usize {
    use std::collections::BTreeSet;
    let mut down_nodes: BTreeSet<u32> = BTreeSet::new();
    let mut down_disks: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut peak = 0usize;
    for e in fail_stop_events(s) {
        match e.kind {
            FaultKind::DiskFail { node, disk } => {
                down_disks.insert((node, disk));
            }
            FaultKind::DiskRepair { node, disk } => {
                down_disks.remove(&(node, disk));
            }
            FaultKind::NodeCrash { node } => {
                down_nodes.insert(node);
            }
            FaultKind::NodeRestart { node } => {
                down_nodes.remove(&node);
            }
            FaultKind::SpinUpFail { .. } => {}
        }
        let dead_disks = down_disks
            .iter()
            .filter(|(n, _)| !down_nodes.contains(n))
            .count();
        peak = peak.max(down_nodes.len() + dead_disks);
    }
    peak
}

fn restarts(s: &ChaosSchedule) -> u64 {
    s.faults
        .iter()
        .chain(s.crashes.iter())
        .filter(|e| matches!(e.kind, FaultKind::NodeRestart { .. }))
        .count() as u64
}

fn net_quiet(s: &ChaosSchedule) -> bool {
    s.net.is_empty()
        && s.profile.drop_prob == 0.0
        && s.profile.reset_prob == 0.0
        && s.profile.delay_prob == 0.0
}

/// Energy ledgers must balance: the headline total splits exactly into
/// disk + base, and re-summing the per-node breakdown (plus the server
/// and the SSD tier, which the per-node rows exclude) recovers it.
struct EnergyConservation;
impl Invariant for EnergyConservation {
    fn name(&self) -> &'static str {
        "energy-conservation"
    }
    fn check(&self, cx: &CheckContext<'_>) -> Result<(), String> {
        let m = cx.metrics;
        if !rel_close(m.total_energy_j, m.disk_energy_j + m.base_energy_j, 1e-9) {
            return Err(format!(
                "total {} != disk {} + base {}",
                m.total_energy_j, m.disk_energy_j, m.base_energy_j
            ));
        }
        let nodes: f64 = m.per_node.iter().map(|n| n.total_j()).sum();
        let recomposed = nodes + m.server_energy_j + m.tier.ssd_energy_j;
        if !rel_close(m.total_energy_j, recomposed, 1e-6) {
            return Err(format!(
                "per-node sum {} + server {} + ssd {} = {} != total {}",
                nodes, m.server_energy_j, m.tier.ssd_energy_j, recomposed, m.total_energy_j
            ));
        }
        Ok(())
    }
}

/// Every energy meter is finite and non-negative, and the integrity
/// meter stays at zero when no integrity work was scheduled.
struct EnergySane;
impl Invariant for EnergySane {
    fn name(&self) -> &'static str {
        "energy-sane"
    }
    fn check(&self, cx: &CheckContext<'_>) -> Result<(), String> {
        let m = cx.metrics;
        let meters = [
            ("total", m.total_energy_j),
            ("disk", m.disk_energy_j),
            ("base", m.base_energy_j),
            ("server", m.server_energy_j),
            ("scrub", m.scrub_energy_j),
            ("ssd", m.tier.ssd_energy_j),
            ("warmup", m.prefetch.energy_j),
        ];
        for (name, v) in meters {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} energy meter is {v}"));
            }
        }
        let s = cx.schedule;
        if !s.scrub && s.corruption.is_empty() && restarts(s) == 0 && m.scrub_energy_j != 0.0 {
            return Err(format!(
                "scrub meter charged {} J with scrubbing off, no corruption, no restarts",
                m.scrub_energy_j
            ));
        }
        Ok(())
    }
}

/// At replication >= 2 with scrubbing on and no fail-stop outage in the
/// schedule, every detected corruption must be repairable from a replica:
/// no block may end the run unrecoverable.
struct NoDataLoss;
impl Invariant for NoDataLoss {
    fn name(&self) -> &'static str {
        "no-data-loss"
    }
    fn check(&self, cx: &CheckContext<'_>) -> Result<(), String> {
        let s = cx.schedule;
        let applies = s.replication >= 2 && s.scrub && fail_stop_events(s).is_empty();
        if applies && cx.metrics.durability.unrecoverable_blocks > 0 {
            return Err(format!(
                "{} unrecoverable blocks at replication {} with scrubbing and no outages",
                cx.metrics.durability.unrecoverable_blocks, s.replication
            ));
        }
        Ok(())
    }
}

/// Corruption bookkeeping must balance: every detection is resolved as
/// exactly one repair or one unrecoverable block, detections plus
/// still-latent blocks never exceed landed corruptions, and the scrub
/// counters stay at zero when scrubbing is off.
struct DetectionAccounting;
impl Invariant for DetectionAccounting {
    fn name(&self) -> &'static str {
        "detection-accounting"
    }
    fn check(&self, cx: &CheckContext<'_>) -> Result<(), String> {
        let d = &cx.metrics.durability;
        let detected = d.detected_on_read + d.detected_by_scrub;
        if detected != d.repaired_blocks + d.unrecoverable_blocks {
            return Err(format!(
                "detected {} != repaired {} + unrecoverable {}",
                detected, d.repaired_blocks, d.unrecoverable_blocks
            ));
        }
        if detected + d.latent_at_end > d.corruptions_landed {
            return Err(format!(
                "detected {} + latent {} exceed landed {}",
                detected, d.latent_at_end, d.corruptions_landed
            ));
        }
        if !cx.schedule.scrub && (d.detected_by_scrub != 0 || d.scrubbed_blocks != 0) {
            return Err(format!(
                "scrub counters ({}, {}) nonzero with scrubbing off",
                d.detected_by_scrub, d.scrubbed_blocks
            ));
        }
        Ok(())
    }
}

/// With a quiet network and never more concurrent fail-stop outages than
/// `replication - 1`, some healthy replica always existed — no request
/// may be abandoned.
struct ReplicaCover;
impl Invariant for ReplicaCover {
    fn name(&self) -> &'static str {
        "replica-cover"
    }
    fn check(&self, cx: &CheckContext<'_>) -> Result<(), String> {
        let s = cx.schedule;
        let covered = net_quiet(s) && max_concurrent_outages(s) < s.replication as usize;
        if covered && cx.metrics.failed_requests > 0 {
            return Err(format!(
                "{} failed requests though replication {} covered a peak of {} outages",
                cx.metrics.failed_requests,
                s.replication,
                max_concurrent_outages(s)
            ));
        }
        Ok(())
    }
}

/// The sleep-prediction ledger is internally consistent across driver
/// variants: accuracy is a true fraction of sleeps taken.
struct PredictionAccounting;
impl Invariant for PredictionAccounting {
    fn name(&self) -> &'static str {
        "prediction-accounting"
    }
    fn check(&self, cx: &CheckContext<'_>) -> Result<(), String> {
        let p = &cx.metrics.prediction;
        if p.paid_off > p.sleeps {
            return Err(format!("paid_off {} > sleeps {}", p.paid_off, p.sleeps));
        }
        let acc = p.accuracy();
        if !(0.0..=1.0).contains(&acc) {
            return Err(format!("accuracy {acc} outside [0, 1]"));
        }
        if !p.mean_realized_s.is_finite() || p.mean_realized_s < 0.0 {
            return Err(format!("mean realized idle {}", p.mean_realized_s));
        }
        Ok(())
    }
}

/// Circuit-breaker and hedging state machines only move along legal
/// edges: recoveries re-close previously tripped breakers, hedges only
/// exist under a hedging policy, and a quiet network trips nothing.
struct BreakerLegality;
impl Invariant for BreakerLegality {
    fn name(&self) -> &'static str {
        "breaker-legality"
    }
    fn check(&self, cx: &CheckContext<'_>) -> Result<(), String> {
        let r = &cx.metrics.resilience;
        if r.breaker_recoveries > r.breaker_trips {
            return Err(format!(
                "recoveries {} > trips {}",
                r.breaker_recoveries, r.breaker_trips
            ));
        }
        if r.hedges_won > r.hedges {
            return Err(format!("hedges_won {} > hedges {}", r.hedges_won, r.hedges));
        }
        if cx.schedule.policy_kind != 2 && r.hedges != 0 {
            return Err(format!("{} hedges under a non-hedging policy", r.hedges));
        }
        if net_quiet(cx.schedule) {
            if r.rpc_drops != 0 || r.rpc_resets != 0 || r.rpc_delays != 0 {
                return Err(format!(
                    "quiet network but drops {} resets {} delays {}",
                    r.rpc_drops, r.rpc_resets, r.rpc_delays
                ));
            }
            if r.breaker_trips != 0 {
                return Err(format!(
                    "{} breaker trips on a quiet network",
                    r.breaker_trips
                ));
            }
        }
        Ok(())
    }
}

/// Journal-replay accounting: bytes imply replays, and replays never
/// exceed the restarts that could have triggered them.
struct JournalAccounting;
impl Invariant for JournalAccounting {
    fn name(&self) -> &'static str {
        "journal-accounting"
    }
    fn check(&self, cx: &CheckContext<'_>) -> Result<(), String> {
        let d = &cx.metrics.durability;
        if d.journal_bytes_replayed > 0 && d.journal_replays == 0 {
            return Err(format!(
                "{} journal bytes replayed across zero replays",
                d.journal_bytes_replayed
            ));
        }
        let bound = restarts(cx.schedule);
        if d.journal_replays > bound {
            return Err(format!(
                "{} journal replays but only {} scheduled restarts",
                d.journal_replays, bound
            ));
        }
        Ok(())
    }
}

/// The run always terminates and accounts every request: the response
/// summary covers exactly the trace's requests with finite samples —
/// minus the ones the overload plane refused (gate rejections, priority
/// sheds, brownout node sheds), which terminate without a latency sample
/// but still show up in the shed ledger.
struct ResponseAccounting;
impl Invariant for ResponseAccounting {
    fn name(&self) -> &'static str {
        "response-accounting"
    }
    fn check(&self, cx: &CheckContext<'_>) -> Result<(), String> {
        let m = cx.metrics;
        let o = &m.overload;
        let refused = o.rejected + o.shed + o.node_shed;
        let n = (cx.schedule.requests as u64)
            .checked_sub(refused)
            .ok_or_else(|| {
                format!(
                    "overload plane refused {refused} of {} requests",
                    cx.schedule.requests
                )
            })?;
        if m.response.count != n {
            return Err(format!(
                "response count {} != requests {} - {refused} refused",
                m.response.count, cx.schedule.requests
            ));
        }
        if m.response_samples_s.len() as u64 != n {
            return Err(format!(
                "{} response samples != requests {} - {refused} refused",
                m.response_samples_s.len(),
                cx.schedule.requests
            ));
        }
        if let Some(bad) = m
            .response_samples_s
            .iter()
            .find(|s| !s.is_finite() || **s < 0.0)
        {
            return Err(format!("response sample {bad}"));
        }
        Ok(())
    }
}

/// Tier and spin-budget counters only move when the corresponding plane
/// is engaged: no policy plane means no tier traffic, no cap means no
/// denied sleeps, and a cap bounds total spin cycles.
struct TierLegality;
impl Invariant for TierLegality {
    fn name(&self) -> &'static str {
        "tier-legality"
    }
    fn check(&self, cx: &CheckContext<'_>) -> Result<(), String> {
        let s = cx.schedule;
        let t = &cx.metrics.tier;
        if s.power_kind == 0 {
            let quiet = t.dram_hits == 0
                && t.dram_misses == 0
                && t.ssd_hits == 0
                && t.ssd_misses == 0
                && t.sleeps_denied == 0
                && t.spin_cycles == 0
                && t.ssd_energy_j == 0.0;
            if !quiet {
                return Err(format!("tier counters moved without a policy plane: {t:?}"));
            }
            return Ok(());
        }
        if s.power_kind < 3 && (t.dram_hits != 0 || t.ssd_hits != 0 || t.ssd_energy_j != 0.0) {
            return Err(format!("tier hits without configured tiers: {t:?}"));
        }
        match s.spin_cap {
            None => {
                if t.sleeps_denied != 0 {
                    return Err(format!(
                        "{} sleeps denied without a spin cap",
                        t.sleeps_denied
                    ));
                }
            }
            Some(cap) => {
                let disks = (crate::schedule::NODES * crate::schedule::DISKS_PER_NODE) as u64;
                if t.spin_cycles > cap as u64 * disks {
                    return Err(format!(
                        "{} spin cycles exceed cap {cap} x {disks} disks",
                        t.spin_cycles
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The same schedule re-executed in-process must reproduce the metrics
/// bit-for-bit (checked only on scenarios the campaign double-runs).
struct Determinism;
impl Invariant for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }
    fn check(&self, cx: &CheckContext<'_>) -> Result<(), String> {
        let Some(second) = cx.second else {
            return Ok(());
        };
        let a = serde_json::to_string(cx.metrics).map_err(|e| format!("serialize: {e}"))?;
        let b = serde_json::to_string(second).map_err(|e| format!("serialize: {e}"))?;
        if a != b {
            return Err("same-input re-run produced different metrics".to_string());
        }
        Ok(())
    }
}

/// The audit plane's hard invariant, attested under full adversarial
/// composition: re-execute the schedule with the trace recorder
/// attached, reconstruct per-request spans and disk residency, build the
/// attribution ledger, and require that (1) observation is passive — the
/// observed run's metrics are bit-identical to the plain run's — (2) the
/// span reconstructor accounts for every request in the schedule, and
/// (3) the ledger closes bit-exactly against the `RunMetrics` totals
/// ([`eevfs_audit::EnergyLedger::verify_closure`]).
struct LedgerClosure;
impl Invariant for LedgerClosure {
    fn name(&self) -> &'static str {
        "ledger-closure"
    }
    fn check(&self, cx: &CheckContext<'_>) -> Result<(), String> {
        use crate::exec::{execute, RunOutcome};
        let out = match execute(cx.schedule, Some(eevfs_obs::Recorder::default())) {
            RunOutcome::Done(out) => out,
            RunOutcome::Rejected(e) => {
                return Err(format!("observed re-run rejected: {e}"));
            }
            RunOutcome::Panicked(p) => {
                return Err(format!("observed re-run panicked: {p}"));
            }
        };
        let Some(report) = &out.obs else {
            return Err("observed re-run captured no trace".to_string());
        };
        let metrics = &out.metrics;
        let plain = serde_json::to_string(cx.metrics).map_err(|e| format!("serialize: {e}"))?;
        let observed = serde_json::to_string(metrics).map_err(|e| format!("serialize: {e}"))?;
        if plain != observed {
            return Err("attaching the recorder changed the metrics".to_string());
        }
        let events: Vec<_> = report.recorder.events().cloned().collect();
        let spans = eevfs_audit::reconstruct_spans(&events);
        if spans.len() as u32 != cx.schedule.requests {
            return Err(format!(
                "span reconstructor lost requests: {} spans for {} requests",
                spans.len(),
                cx.schedule.requests
            ));
        }
        let warmup_us = metrics.prefetch.warmup_us;
        let end_us = warmup_us + (metrics.duration_s * 1e6).round() as u64;
        let residency = eevfs_audit::ResidencyTable::from_events(&events, warmup_us, end_us);
        let model = eevfs_audit::AttributionModel::from_cluster(
            &eevfs::config::ClusterSpec::paper_testbed(),
        );
        let ledger = eevfs_audit::build_ledger(metrics, &spans, &residency, &model);
        ledger.verify_closure(metrics)
    }
}

/// The overload plane's shed ledger closes exactly on every run:
/// `offered == admitted + rejected + shed` and every admitted request is
/// classified as exactly one of completed / node-shed / failed. Without
/// a gate in the schedule no overload counter may move at all.
struct ShedLedger;
impl Invariant for ShedLedger {
    fn name(&self) -> &'static str {
        "shed-ledger"
    }
    fn check(&self, cx: &CheckContext<'_>) -> Result<(), String> {
        let o = &cx.metrics.overload;
        if !o.ledger_closes() {
            return Err(format!("shed ledger does not close: {o:?}"));
        }
        if cx.schedule.overload.is_none() && *o != Default::default() {
            return Err(format!("overload counters moved without a gate: {o:?}"));
        }
        Ok(())
    }
}

/// With a bounded admission gate the server queue never grows past the
/// configured inflight cap — the run sheds instead of queueing
/// unboundedly — and every refused request is visible in the ledger.
struct BoundedQueue;
impl Invariant for BoundedQueue {
    fn name(&self) -> &'static str {
        "bounded-queue"
    }
    fn check(&self, cx: &CheckContext<'_>) -> Result<(), String> {
        let Some(cap) = cx.schedule.overload else {
            return Ok(());
        };
        let o = &cx.metrics.overload;
        if o.queue_peak > cap as u64 {
            return Err(format!(
                "queue peak {} exceeds admission cap {cap}",
                o.queue_peak
            ));
        }
        if o.max_level >= 3 && o.rejected == 0 {
            return Err(format!(
                "ladder reached L3 but the gate rejected nothing: {o:?}"
            ));
        }
        Ok(())
    }
}

/// The deliberately broken canary: asserts the cluster never sees a
/// fault, which any fired fault event refutes. Exists so the test suite
/// and CI can prove the search finds violations and the shrinker
/// minimises them to a single-event schedule.
struct CanaryQuietCluster;
impl Invariant for CanaryQuietCluster {
    fn name(&self) -> &'static str {
        "canary-quiet-cluster"
    }
    fn check(&self, cx: &CheckContext<'_>) -> Result<(), String> {
        if cx.metrics.fault_events > 0 {
            return Err(format!(
                "{} fault events fired (the canary pretends none ever do)",
                cx.metrics.fault_events
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{generate_schedule, SeverityEnvelope};
    use fault_model::{FaultEvent, FaultKind};
    use sim_core::SimTime;

    #[test]
    fn outage_peak_tracks_overlap() {
        let env = SeverityEnvelope::default_search();
        let mut s = generate_schedule(&env, 1, 0);
        s.faults = vec![
            FaultEvent {
                at: SimTime::from_secs(1),
                kind: FaultKind::DiskFail { node: 0, disk: 0 },
            },
            FaultEvent {
                at: SimTime::from_secs(2),
                kind: FaultKind::DiskRepair { node: 0, disk: 0 },
            },
            FaultEvent {
                at: SimTime::from_secs(3),
                kind: FaultKind::DiskFail { node: 1, disk: 1 },
            },
        ];
        s.crashes.clear();
        assert_eq!(max_concurrent_outages(&s), 1);
        // Overlap the two failures: the peak rises to 2.
        s.faults[1].at = SimTime::from_secs(4);
        assert_eq!(max_concurrent_outages(&s), 2);
    }

    #[test]
    fn shed_ledger_and_bounded_queue_catch_doctored_runs() {
        let env = SeverityEnvelope::default_search();
        let mut s = generate_schedule(&env, 5, 0);
        s.overload = None;
        let crate::exec::RunOutcome::Done(out) = crate::exec::execute(&s, None) else {
            panic!("scenario must complete");
        };
        let mut m = out.metrics;
        // Gateless runs must keep the overload ledger untouched.
        m.overload.offered = 1;
        let cx = CheckContext {
            schedule: &s,
            metrics: &m,
            second: None,
        };
        assert!(ShedLedger.check(&cx).is_err());
        // A queue peak past the admission cap breaks the bound.
        m.overload = Default::default();
        m.overload.queue_peak = 9;
        s.overload = Some(4);
        let cx = CheckContext {
            schedule: &s,
            metrics: &m,
            second: None,
        };
        assert!(BoundedQueue.check(&cx).is_err());
        assert!(ShedLedger.check(&cx).is_ok(), "empty ledger still closes");
    }

    #[test]
    fn standard_set_has_no_duplicate_names() {
        let names = InvariantSet::standard().names();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
        assert!(InvariantSet::with_canary().names().len() > names.len());
    }
}
