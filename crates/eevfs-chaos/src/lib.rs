//! # eevfs-chaos — deterministic chaos-search engine
//!
//! FoundationDB-style simulation testing for the EEVFS reproduction:
//! search seeded random fault schedules for invariant violations, then
//! shrink each failure to a minimal replayable schedule (DESIGN.md §13).
//!
//! Three layers:
//!
//! * [`schedule`] — a seeded **generator** samples composite fault plans
//!   (disk/node failures, link partitions and per-message faults,
//!   corruption, crashes, spin-budget pressure) from a configurable
//!   [`SeverityEnvelope`], composing the `fault-model` plan types. Every
//!   scenario flattens to an explicit, serializable [`ChaosSchedule`].
//! * [`invariant`] — the **invariant plane**: an [`Invariant`] trait and
//!   registry checked against `RunMetrics` after every run (energy
//!   conservation, no-data-loss at R≥2 with scrubbing, replica cover,
//!   prediction/breaker/journal accounting, tier legality, bit-identical
//!   determinism) plus a deliberately broken canary.
//! * [`search`] / [`mod@shrink`] — the **search + shrink loop**: scenarios
//!   fan across a [`ParallelMap`] pool, the lowest-indexed violation is
//!   delta-debugged down to a minimal [`Reproducer`] JSON artifact that
//!   `harness chaos --replay <file>` re-executes bit-identically.
//!
//! The engine owns no randomness of its own beyond `sim-core`'s seeded
//! streams and never consults wall-clock time, so every campaign,
//! shrink, and replay is a pure function of `(envelope, base_seed)`.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod exec;
pub mod invariant;
pub mod schedule;
pub mod search;
pub mod shrink;

pub use exec::{execute, RunOutcome};
pub use invariant::{CheckContext, Invariant, InvariantSet, Violation};
pub use schedule::{generate_schedule, ChaosSchedule, SeverityEnvelope};
pub use search::{
    check_schedule, replay, run_campaign, CampaignConfig, CampaignReport, ParallelMap,
    ReplayReport, Reproducer, ScenarioReport, SerialPool,
};
pub use shrink::{shrink, ShrinkOutcome};
