//! Seeded data-corruption and crash/restart schedules.
//!
//! The fail-stop plans in the crate root model disks that *disappear*;
//! real drives also lie: latent sector errors surface only when a block
//! is next read, and bit rot silently flips stored bits. Both are
//! invisible until something checks — which is exactly what the EEVFS
//! buffer-disk design must do opportunistically, because waking a
//! sleeping data disk just to scrub it would burn the energy the system
//! exists to save.
//!
//! [`CorruptionPlan`] places latent sector errors and bit flips on
//! `(node, disk, block)` coordinates at Poisson arrival times;
//! [`CrashPlan`] schedules whole-node crash/restart pairs as ordinary
//! [`FaultEvent`]s so they merge into the existing [`HealthTracker`].
//! Like every plan in this crate, both are a pure function of their spec:
//! same seed, same schedule, bit-identical replay.
//!
//! [`HealthTracker`]: crate::HealthTracker

use crate::{FaultEvent, FaultKind};
use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimRng, SimTime};
use std::collections::BTreeSet;

/// One silent-data-corruption event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CorruptionKind {
    /// A whole block becomes unreadable (medium error on next access).
    LatentSectorError {
        /// Node the affected disk lives on.
        node: u32,
        /// Local data-disk index.
        disk: u32,
        /// Block index within the disk's scrub address space.
        block: u32,
    },
    /// One bit of a stored block flips silently.
    BitFlip {
        /// Node the affected disk lives on.
        node: u32,
        /// Local data-disk index.
        disk: u32,
        /// Block index within the disk's scrub address space.
        block: u32,
        /// Bit position within the block's victim byte (0..8).
        bit: u8,
    },
}

impl CorruptionKind {
    /// The `(node, disk, block)` coordinate this corruption lands on.
    pub fn coordinate(&self) -> (u32, u32, u32) {
        match *self {
            CorruptionKind::LatentSectorError { node, disk, block }
            | CorruptionKind::BitFlip {
                node, disk, block, ..
            } => (node, disk, block),
        }
    }
}

/// A corruption at an instant of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorruptionEvent {
    /// When the corruption lands (it stays silent until read or scrubbed).
    pub at: SimTime,
    /// What happened.
    pub kind: CorruptionKind,
}

/// Parameters for seeded corruption schedules. Rates are per *disk-hour*
/// of simulated time, matching [`crate::FaultSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorruptionSpec {
    /// Schedule RNG seed; same seed, same plan.
    pub seed: u64,
    /// Horizon the schedule covers.
    pub horizon: SimDuration,
    /// Storage nodes in the cluster.
    pub nodes: u32,
    /// Data disks per node.
    pub disks_per_node: u32,
    /// Blocks per disk in the scrub address space (victim blocks are drawn
    /// uniformly from this range).
    pub blocks_per_disk: u32,
    /// Mean latent sector errors per disk-hour (Poisson process).
    pub lse_per_disk_hour: f64,
    /// Mean silent bit flips per disk-hour (Poisson process).
    pub flip_per_disk_hour: f64,
}

impl CorruptionSpec {
    /// A pristine baseline: no corruption at all.
    pub fn none(nodes: u32, disks_per_node: u32, horizon: SimDuration) -> CorruptionSpec {
        CorruptionSpec {
            seed: 0,
            horizon,
            nodes,
            disks_per_node,
            blocks_per_disk: 1 << 16,
            lse_per_disk_hour: 0.0,
            flip_per_disk_hour: 0.0,
        }
    }
}

/// A validated, time-ordered corruption schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CorruptionPlan {
    events: Vec<CorruptionEvent>,
}

impl CorruptionPlan {
    /// The empty plan (no corruption ever).
    pub fn none() -> CorruptionPlan {
        CorruptionPlan::default()
    }

    /// Builds a plan from explicit events (sorted by time, stable).
    pub fn from_trace(events: impl IntoIterator<Item = CorruptionEvent>) -> CorruptionPlan {
        let mut events: Vec<CorruptionEvent> = events.into_iter().collect();
        events.sort_by_key(|e| e.at);
        CorruptionPlan { events }
    }

    /// Fluent single-event constructors for tests and ablations.
    pub fn builder() -> CorruptionPlanBuilder {
        CorruptionPlanBuilder { events: Vec::new() }
    }

    /// Draws a random schedule from `spec`. Each disk gets independent
    /// RNG streams for sector errors and bit flips split off the seed, so
    /// changing one rate does not perturb the other's schedule.
    pub fn generate(spec: &CorruptionSpec) -> CorruptionPlan {
        let mut root = SimRng::seed_from_u64(spec.seed ^ 0x00C0_4409_5EED);
        let mut events = Vec::new();
        let horizon_s = spec.horizon.as_secs_f64();
        let blocks = spec.blocks_per_disk.max(1) as usize;
        for node in 0..spec.nodes {
            let mut node_rng = root.split();
            for disk in 0..spec.disks_per_node {
                let mut disk_rng = node_rng.split();
                let mut lse_rng = disk_rng.split();
                let mut flip_rng = disk_rng.split();
                if spec.lse_per_disk_hour > 0.0 {
                    let mut t = 0.0f64;
                    loop {
                        t += lse_rng.exponential(3600.0 / spec.lse_per_disk_hour);
                        if t >= horizon_s {
                            break;
                        }
                        events.push(CorruptionEvent {
                            at: SimTime::from_micros((t * 1e6) as u64),
                            kind: CorruptionKind::LatentSectorError {
                                node,
                                disk,
                                block: lse_rng.index(blocks) as u32,
                            },
                        });
                    }
                }
                if spec.flip_per_disk_hour > 0.0 {
                    let mut t = 0.0f64;
                    loop {
                        t += flip_rng.exponential(3600.0 / spec.flip_per_disk_hour);
                        if t >= horizon_s {
                            break;
                        }
                        events.push(CorruptionEvent {
                            at: SimTime::from_micros((t * 1e6) as u64),
                            kind: CorruptionKind::BitFlip {
                                node,
                                disk,
                                block: flip_rng.index(blocks) as u32,
                                bit: flip_rng.index(8) as u8,
                            },
                        });
                    }
                }
            }
        }
        CorruptionPlan::from_trace(events)
    }

    /// The schedule, ascending by time.
    pub fn events(&self) -> &[CorruptionEvent] {
        &self.events
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled corruptions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Events that target nodes, disks or blocks outside the given
    /// cluster shape and per-disk block space.
    pub fn out_of_range(
        &self,
        nodes: u32,
        disks_per_node: u32,
        blocks_per_disk: u32,
    ) -> Vec<CorruptionEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| {
                let (node, disk, block) = e.kind.coordinate();
                node >= nodes || disk >= disks_per_node || block >= blocks_per_disk
            })
            .collect()
    }
}

/// Fluent builder for explicit corruption plans.
#[derive(Debug, Clone, Default)]
pub struct CorruptionPlanBuilder {
    events: Vec<CorruptionEvent>,
}

impl CorruptionPlanBuilder {
    /// Adds a latent sector error.
    pub fn lse(mut self, at: SimTime, node: u32, disk: u32, block: u32) -> Self {
        self.events.push(CorruptionEvent {
            at,
            kind: CorruptionKind::LatentSectorError { node, disk, block },
        });
        self
    }

    /// Adds a silent bit flip.
    pub fn bit_flip(mut self, at: SimTime, node: u32, disk: u32, block: u32, bit: u8) -> Self {
        self.events.push(CorruptionEvent {
            at,
            kind: CorruptionKind::BitFlip {
                node,
                disk,
                block,
                bit,
            },
        });
        self
    }

    /// Finishes the plan (events sorted by time).
    pub fn build(self) -> CorruptionPlan {
        CorruptionPlan::from_trace(self.events)
    }
}

/// Parameters for seeded whole-node crash/restart schedules.
///
/// This is deliberately a *separate* stream from
/// [`FaultSpec::node_crash_per_hour`](crate::FaultSpec): crash-recovery
/// experiments want to vary the crash schedule while holding an existing
/// disk-fault plan fixed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrashSpec {
    /// Schedule RNG seed; same seed, same plan.
    pub seed: u64,
    /// Horizon the schedule covers.
    pub horizon: SimDuration,
    /// Storage nodes in the cluster.
    pub nodes: u32,
    /// Mean crashes per node-hour (Poisson process).
    pub crash_per_node_hour: f64,
    /// Mean time from a crash to the node's restart (journal replay
    /// happens at the restart instant).
    pub mean_restart: SimDuration,
}

impl CrashSpec {
    /// A stable baseline: no crashes.
    pub fn none(nodes: u32, horizon: SimDuration) -> CrashSpec {
        CrashSpec {
            seed: 0,
            horizon,
            nodes,
            crash_per_node_hour: 0.0,
            mean_restart: SimDuration::from_secs(30),
        }
    }
}

/// A time-ordered node crash/restart schedule.
///
/// Events are plain [`FaultEvent`]s restricted to
/// [`FaultKind::NodeCrash`] / [`FaultKind::NodeRestart`], so a crash plan
/// merges directly into a [`crate::FaultPlan`] and is applied by the same
/// [`crate::HealthTracker`]. The restart instants additionally tell the
/// durability layer when to charge a journal replay.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CrashPlan {
    events: Vec<FaultEvent>,
}

impl CrashPlan {
    /// The empty plan (no crashes).
    pub fn none() -> CrashPlan {
        CrashPlan::default()
    }

    /// Builds a plan from explicit crash/restart events; anything other
    /// than node crash/restart kinds is rejected.
    pub fn from_trace(events: impl IntoIterator<Item = FaultEvent>) -> Result<CrashPlan, String> {
        let mut out: Vec<FaultEvent> = Vec::new();
        for e in events {
            match e.kind {
                FaultKind::NodeCrash { .. } | FaultKind::NodeRestart { .. } => out.push(e),
                other => return Err(format!("crash plan cannot hold {other:?}")),
            }
        }
        out.sort_by_key(|e| e.at);
        Ok(CrashPlan { events: out })
    }

    /// One crash/restart pair — the common test shape.
    pub fn one(node: u32, crash_at: SimTime, restart_at: SimTime) -> CrashPlan {
        CrashPlan::from_trace([
            FaultEvent {
                at: crash_at,
                kind: FaultKind::NodeCrash { node },
            },
            FaultEvent {
                at: restart_at,
                kind: FaultKind::NodeRestart { node },
            },
        ])
        .expect("node events only")
    }

    /// Draws a random schedule from `spec` (per-node split streams, same
    /// idiom as [`crate::FaultPlan::generate`]).
    pub fn generate(spec: &CrashSpec) -> CrashPlan {
        let mut root = SimRng::seed_from_u64(spec.seed ^ 0x00C4_A54D_5EED);
        let mut events = Vec::new();
        let horizon_s = spec.horizon.as_secs_f64();
        for node in 0..spec.nodes {
            let mut node_rng = root.split();
            if spec.crash_per_node_hour <= 0.0 {
                continue;
            }
            let mut t = 0.0f64;
            loop {
                t += node_rng.exponential(3600.0 / spec.crash_per_node_hour);
                if t >= horizon_s {
                    break;
                }
                events.push(FaultEvent {
                    at: SimTime::from_micros((t * 1e6) as u64),
                    kind: FaultKind::NodeCrash { node },
                });
                t += node_rng.exponential(spec.mean_restart.as_secs_f64().max(1e-6));
                if t >= horizon_s {
                    break;
                }
                events.push(FaultEvent {
                    at: SimTime::from_micros((t * 1e6) as u64),
                    kind: FaultKind::NodeRestart { node },
                });
            }
        }
        events.sort_by_key(|e| e.at);
        CrashPlan { events }
    }

    /// The schedule, ascending by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled crash/restart events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Events that target nodes outside the given cluster shape.
    pub fn out_of_range(&self, nodes: u32) -> Vec<FaultEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.kind.node() >= nodes)
            .collect()
    }
}

/// Live corruption state derived by replaying a [`CorruptionPlan`] up to
/// "now": which blocks of which disks currently hold bad data.
///
/// Per-disk corrupt sets are `BTreeSet`s so iteration order (and thus any
/// scrub or repair sweep over them) is deterministic.
#[derive(Debug, Clone)]
pub struct CorruptionTracker {
    plan: CorruptionPlan,
    cursor: usize,
    corrupt: Vec<Vec<BTreeSet<u32>>>,
    landed: u64,
}

impl CorruptionTracker {
    /// A tracker for a `nodes × disks_per_node` cluster.
    pub fn new(plan: CorruptionPlan, nodes: usize, disks_per_node: usize) -> CorruptionTracker {
        CorruptionTracker {
            plan,
            cursor: 0,
            corrupt: vec![vec![BTreeSet::new(); disks_per_node]; nodes],
            landed: 0,
        }
    }

    /// Applies every event with `at <= now`, returning them in order.
    pub fn apply_until(&mut self, now: SimTime) -> Vec<CorruptionEvent> {
        let mut fired = Vec::new();
        while let Some(&ev) = self.plan.events.get(self.cursor) {
            if ev.at > now {
                break;
            }
            self.cursor += 1;
            let (node, disk, block) = ev.kind.coordinate();
            if let Some(set) = self
                .corrupt
                .get_mut(node as usize)
                .and_then(|row| row.get_mut(disk as usize))
            {
                if set.insert(block) {
                    self.landed += 1;
                }
            }
            fired.push(ev);
        }
        fired
    }

    /// Time of the next unapplied event, if any.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.plan.events.get(self.cursor).map(|e| e.at)
    }

    /// The currently-corrupt blocks of one disk, ascending.
    pub fn corrupt_blocks(&self, node: usize, disk: usize) -> &BTreeSet<u32> {
        static EMPTY: BTreeSet<u32> = BTreeSet::new();
        self.corrupt
            .get(node)
            .and_then(|row| row.get(disk))
            .unwrap_or(&EMPTY)
    }

    /// True when `block` on `(node, disk)` currently holds bad data.
    pub fn is_corrupt(&self, node: usize, disk: usize, block: u32) -> bool {
        self.corrupt_blocks(node, disk).contains(&block)
    }

    /// Clears one corrupt block (repaired from a replica, or written off
    /// as unrecoverable — either way it stops being *detectable*).
    /// Returns true when the block was indeed marked corrupt.
    pub fn resolve(&mut self, node: usize, disk: usize, block: u32) -> bool {
        self.corrupt
            .get_mut(node)
            .and_then(|row| row.get_mut(disk))
            .map(|set| set.remove(&block))
            .unwrap_or(false)
    }

    /// Corruptions that have landed so far (distinct blocks at landing
    /// time; a block corrupted twice counts once while unresolved).
    pub fn landed(&self) -> u64 {
        self.landed
    }

    /// Total blocks currently corrupt across the cluster.
    pub fn outstanding(&self) -> usize {
        self.corrupt
            .iter()
            .flat_map(|row| row.iter())
            .map(|set| set.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CorruptionSpec {
        CorruptionSpec {
            seed: 42,
            horizon: SimDuration::from_secs(3600),
            nodes: 4,
            disks_per_node: 2,
            blocks_per_disk: 1024,
            lse_per_disk_hour: 3.0,
            flip_per_disk_hour: 2.0,
        }
    }

    #[test]
    fn corruption_generate_is_deterministic() {
        let a = CorruptionPlan::generate(&spec());
        let b = CorruptionPlan::generate(&spec());
        assert_eq!(a, b);
        assert!(!a.is_empty(), "rates this high should produce events");
    }

    #[test]
    fn corruption_seeds_differ() {
        let a = CorruptionPlan::generate(&spec());
        let b = CorruptionPlan::generate(&CorruptionSpec { seed: 43, ..spec() });
        assert_ne!(a, b);
    }

    #[test]
    fn corruption_events_sorted_and_in_range() {
        let plan = CorruptionPlan::generate(&spec());
        for w in plan.events().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(plan.out_of_range(4, 2, 1024).is_empty());
        assert!(!plan.out_of_range(1, 1, 1024).is_empty());
        // A block space that stops short of the plan's highest block.
        let top = plan.events().iter().map(|e| e.kind.coordinate().2).max();
        assert!(!plan.out_of_range(4, 2, top.expect("events")).is_empty());
        let edge = CorruptionPlan::builder()
            .lse(SimTime::ZERO, 0, 0, 1024)
            .build();
        assert_eq!(edge.out_of_range(4, 2, 1024).len(), 1);
        assert!(edge.out_of_range(4, 2, 1025).is_empty());
        for e in plan.events() {
            let (_, _, block) = e.kind.coordinate();
            assert!(block < 1024);
            if let CorruptionKind::BitFlip { bit, .. } = e.kind {
                assert!(bit < 8);
            }
        }
    }

    #[test]
    fn corruption_zero_rates_mean_no_events() {
        let plan =
            CorruptionPlan::generate(&CorruptionSpec::none(8, 2, SimDuration::from_secs(3600)));
        assert!(plan.is_empty());
    }

    #[test]
    fn corruption_rates_are_decoupled() {
        // Bit flips draw from a split stream, so turning sector errors
        // off must not move the flip schedule.
        let both = CorruptionPlan::generate(&spec());
        let flips_only = CorruptionPlan::generate(&CorruptionSpec {
            lse_per_disk_hour: 0.0,
            ..spec()
        });
        let flips = |p: &CorruptionPlan| {
            p.events()
                .iter()
                .filter(|e| matches!(e.kind, CorruptionKind::BitFlip { .. }))
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(flips(&both), flips(&flips_only));
    }

    #[test]
    fn crash_generate_is_deterministic_and_alternates() {
        let spec = CrashSpec {
            seed: 7,
            horizon: SimDuration::from_secs(7200),
            nodes: 3,
            crash_per_node_hour: 2.0,
            mean_restart: SimDuration::from_secs(45),
        };
        let a = CrashPlan::generate(&spec);
        assert_eq!(a, CrashPlan::generate(&spec));
        assert!(!a.is_empty());
        assert!(a.out_of_range(3).is_empty());
        // Per node: strict crash/restart alternation starting with a crash.
        for node in 0..3 {
            let mut expect_crash = true;
            for e in a.events().iter().filter(|e| e.kind.node() == node) {
                match e.kind {
                    FaultKind::NodeCrash { .. } => assert!(expect_crash, "double crash"),
                    FaultKind::NodeRestart { .. } => assert!(!expect_crash, "restart first"),
                    other => panic!("crash plan held {other:?}"),
                }
                expect_crash = !expect_crash;
            }
        }
    }

    #[test]
    fn crash_from_trace_rejects_disk_faults() {
        let r = CrashPlan::from_trace([FaultEvent {
            at: SimTime::from_secs(1),
            kind: FaultKind::DiskFail { node: 0, disk: 0 },
        }]);
        assert!(r.is_err());
    }

    #[test]
    fn tracker_lands_detects_and_resolves() {
        let plan = CorruptionPlan::builder()
            .lse(SimTime::from_secs(10), 1, 0, 99)
            .bit_flip(SimTime::from_secs(20), 1, 0, 7, 3)
            .build();
        let mut t = CorruptionTracker::new(plan, 2, 2);
        assert_eq!(t.apply_until(SimTime::from_secs(5)).len(), 0);
        assert_eq!(t.apply_until(SimTime::from_secs(15)).len(), 1);
        assert!(t.is_corrupt(1, 0, 99));
        assert!(!t.is_corrupt(1, 0, 7));
        t.apply_until(SimTime::from_secs(25));
        assert_eq!(t.outstanding(), 2);
        assert_eq!(t.landed(), 2);
        // Sets iterate ascending for deterministic scrub sweeps.
        let blocks: Vec<u32> = t.corrupt_blocks(1, 0).iter().copied().collect();
        assert_eq!(blocks, vec![7, 99]);
        assert!(t.resolve(1, 0, 99));
        assert!(!t.resolve(1, 0, 99), "resolved only once");
        assert_eq!(t.outstanding(), 1);
        assert_eq!(t.next_event_at(), None);
    }

    #[test]
    fn tracker_double_corruption_of_a_block_counts_once() {
        let plan = CorruptionPlan::builder()
            .lse(SimTime::from_secs(1), 0, 0, 5)
            .bit_flip(SimTime::from_secs(2), 0, 0, 5, 0)
            .build();
        let mut t = CorruptionTracker::new(plan, 1, 1);
        t.apply_until(SimTime::from_secs(10));
        assert_eq!(t.landed(), 1);
        assert_eq!(t.outstanding(), 1);
    }
}
