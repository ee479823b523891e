//! Disk power management (§III-C, §IV-C).
//!
//! Each storage node receives its slice of the expected access pattern
//! from the server and predicts, per data disk, when the disk will next be
//! *physically* touched — i.e. by a request the buffer disk will not
//! absorb. When a disk goes idle and the predicted window to the next
//! touch clears the idle threshold, the disk is sent to standby.
//!
//! The paper's manager is one more [`IdlePredictor`], [`HintPredictor`],
//! run by the same `eevfs-power` [`PolicyPlane`] as every adaptive policy.
//! `plane_for` maps an [`EevfsConfig`] onto that plane:
//!
//! * **Application hints** (§IV-C): with hints the node trusts the
//!   predicted window and sleeps the disk immediately as it goes idle
//!   ("we sleep a disk as a particular request enters the storage client
//!   node") — a [`HintPredictor`] per disk. Without hints, and under
//!   [`PowerPolicy::IdleTimer`], it waits out the idle threshold first:
//!   a [`FixedThreshold`] per disk.
//! * **No-opportunity gate**: when the up-front energy prediction model
//!   finds no net benefit, power management stands down for the whole run
//!   rather than thrash drives for nothing — no plane at all.
//!
//! Under NPF the prediction-driven policy never engages: with no buffer
//! coverage there are no absorbed requests to create trustworthy windows,
//! which is why the paper's NPF runs show zero transitions.

use crate::config::{EevfsConfig, PowerPolicy};
use eevfs_power::{FixedThreshold, IdlePredictor, IdleVerdict, PolicyPlane};
use sim_core::{SimDuration, SimTime};

/// The paper's hint-driven sleep policy for one data disk.
///
/// Holds the disk's predicted physical-touch schedule. The cursor advances
/// once per expected physical request actually served, in arrival order
/// (the server's FIFO preserves trace order per node), so it always
/// points at the next *expected* touch.
#[derive(Debug, Clone)]
pub struct HintPredictor {
    touches: Vec<SimTime>,
    cursor: usize,
    threshold: SimDuration,
    /// Window to the next touch, as computed at the last idle onset.
    window: Option<SimDuration>,
}

impl HintPredictor {
    /// Builds a predictor from sorted expected touch times and the idle
    /// threshold a window must clear.
    pub fn new(touches: Vec<SimTime>, threshold: SimDuration) -> Self {
        debug_assert!(touches.windows(2).all(|w| w[0] <= w[1]));
        HintPredictor {
            touches,
            cursor: 0,
            threshold,
            window: None,
        }
    }

    /// The next expected physical touch, if any remain.
    fn next_pending(&self) -> Option<SimTime> {
        self.touches.get(self.cursor).copied()
    }
}

impl IdlePredictor for HintPredictor {
    fn name(&self) -> &'static str {
        "hints"
    }

    /// Sleeps now when the window to the next expected touch clears the
    /// threshold, or when no touch is pending; an overdue touch (queued
    /// somewhere, landing any moment) keeps the disk up.
    fn on_idle(&mut self, now: SimTime) -> IdleVerdict {
        let Some(next) = self.next_pending() else {
            self.window = None;
            return IdleVerdict::SleepNow;
        };
        self.window = (next > now).then(|| next - now);
        match self.window {
            Some(w) if w >= self.threshold => IdleVerdict::SleepNow,
            _ => IdleVerdict::Stay,
        }
    }

    fn on_expected_touch(&mut self) {
        self.cursor += 1;
    }

    /// The bounded window behind the last decision: `None` when nothing
    /// was pending (unbounded) or the touch was already overdue.
    fn predicted_idle(&self) -> Option<SimDuration> {
        self.window
    }
}

/// The policy plane for a run that supplies no `eevfs_power::PowerPolicy`,
/// built from `cfg` alone; `None` when the run can never sleep a disk.
///
/// `touches[node][disk]` is each data disk's sorted expected-touch list,
/// used when hints are on. `prefetch_active` and `worthwhile` gate
/// [`PowerPolicy::PrefetchAware`]: it engages only with prefetch coverage
/// and a predicted net benefit.
pub(crate) fn plane_for(
    cfg: &EevfsConfig,
    prefetch_active: bool,
    worthwhile: bool,
    touches: Vec<Vec<Vec<SimTime>>>,
) -> Option<PolicyPlane> {
    let hints = match cfg.power {
        PowerPolicy::None => return None,
        PowerPolicy::PrefetchAware if !(prefetch_active && worthwhile) => return None,
        PowerPolicy::PrefetchAware => cfg.hints,
        PowerPolicy::IdleTimer => false,
    };
    let threshold = cfg.idle_threshold;
    let predictors = touches
        .into_iter()
        .map(|node| {
            node.into_iter()
                .map(|t| -> Box<dyn IdlePredictor> {
                    if hints {
                        Box::new(HintPredictor::new(t, threshold))
                    } else {
                        Box::new(FixedThreshold::new(threshold))
                    }
                })
                .collect()
        })
        .collect();
    Some(PolicyPlane::from_predictors(predictors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EevfsConfig;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn hints(touches: Vec<SimTime>) -> HintPredictor {
        HintPredictor::new(touches, SimDuration::from_secs(5))
    }

    fn plane(cfg: &EevfsConfig, prefetch: bool, touches: Vec<SimTime>) -> Option<PolicyPlane> {
        plane_for(cfg, prefetch, true, vec![vec![touches]])
    }

    #[test]
    fn predictor_cursor_walks_touches() {
        let mut p = hints(vec![secs(1), secs(5), secs(20)]);
        assert_eq!(p.next_pending(), Some(secs(1)));
        p.on_expected_touch();
        assert_eq!(p.next_pending(), Some(secs(5)));
        p.on_expected_touch();
        p.on_expected_touch();
        assert_eq!(p.next_pending(), None);
        p.on_expected_touch(); // past the end: still nothing pending
        assert_eq!(p.next_pending(), None);
    }

    #[test]
    fn hints_sleep_immediately_across_long_window() {
        let mut p = plane(&EevfsConfig::paper_pf(70), true, vec![secs(100)]).unwrap();
        assert_eq!(p.on_idle(0, 0, secs(10)), IdleVerdict::SleepNow);
    }

    #[test]
    fn hints_refuse_short_window() {
        // Next touch 2 s away < 5 s threshold.
        assert_eq!(hints(vec![secs(12)]).on_idle(secs(10)), IdleVerdict::Stay);
    }

    #[test]
    fn hints_sleep_forever_when_nothing_pending() {
        assert_eq!(hints(vec![]).on_idle(SimTime::ZERO), IdleVerdict::SleepNow);
    }

    #[test]
    fn overdue_predicted_touch_blocks_sleep() {
        // The expected touch is already overdue (queued somewhere): the
        // request could land any moment, so stay up.
        assert_eq!(hints(vec![secs(5)]).on_idle(secs(10)), IdleVerdict::Stay);
    }

    #[test]
    fn without_hints_a_timer_is_armed() {
        let mut cfg = EevfsConfig::paper_pf(70);
        cfg.hints = false;
        let mut p = plane(&cfg, true, vec![secs(100)]).unwrap();
        assert_eq!(
            p.on_idle(0, 0, secs(10)),
            IdleVerdict::After(SimDuration::from_secs(5))
        );
    }

    #[test]
    fn npf_never_sleeps_under_prefetch_aware_policy() {
        assert!(plane(&EevfsConfig::paper_npf(), false, vec![]).is_none());
    }

    #[test]
    fn benefit_gate_disables_everything() {
        let cfg = EevfsConfig::paper_pf(70);
        assert!(plane_for(&cfg, true, false, vec![vec![vec![]]]).is_none());
    }

    #[test]
    fn idle_timer_policy_works_without_prefetch() {
        let mut cfg = EevfsConfig::paper_npf();
        cfg.power = PowerPolicy::IdleTimer;
        let mut p = plane(&cfg, false, vec![]).unwrap();
        assert_eq!(
            p.on_idle(0, 0, secs(10)),
            IdleVerdict::After(SimDuration::from_secs(5))
        );
    }

    #[test]
    fn none_policy_never_sleeps() {
        let mut cfg = EevfsConfig::paper_pf(70);
        cfg.power = PowerPolicy::None;
        assert!(plane(&cfg, true, vec![]).is_none());
    }

    #[test]
    fn drift_shifts_predicted_windows() {
        // The driver reads hints on the pattern clock, `now - drift`.
        let mut p = hints(vec![secs(32)]);
        // Without drift, the window (2 s) is too short at t=30.
        assert_eq!(p.on_idle(secs(30)), IdleVerdict::Stay);
        // With 20 s of drift the touch is effectively at t=52: sleep.
        let drift = SimDuration::from_secs(20);
        let pattern_now = SimTime::from_micros(secs(30).as_micros() - drift.as_micros());
        assert_eq!(p.on_idle(pattern_now), IdleVerdict::SleepNow);
        assert_eq!(p.predicted_idle(), Some(SimDuration::from_secs(22)));
    }

    #[test]
    fn predicted_window_mirrors_the_hints_decision() {
        let mut p = hints(vec![secs(12)]);
        // Bounded window: 2 s to the predicted touch.
        p.on_idle(secs(10));
        assert_eq!(p.predicted_idle(), Some(SimDuration::from_secs(2)));
        // Overdue touch: no bounded prediction.
        p.on_idle(secs(12));
        assert_eq!(p.predicted_idle(), None);
        // Nothing pending: unbounded.
        let mut p = hints(vec![]);
        p.on_idle(secs(10));
        assert_eq!(p.predicted_idle(), None);
        // Timer policies never predict.
        let mut cfg = EevfsConfig::paper_pf(70);
        cfg.hints = false;
        let mut p = plane(&cfg, true, vec![secs(100)]).unwrap();
        p.on_idle(0, 0, secs(10));
        assert_eq!(p.predicted_idle(0, 0), None);
    }

    #[test]
    fn consume_moves_the_window() {
        let cfg = EevfsConfig::paper_pf(70);
        let mut p = plane(&cfg, true, vec![secs(12), secs(100)]).unwrap();
        assert_eq!(p.on_idle(0, 0, secs(10)), IdleVerdict::Stay);
        p.on_expected_touch(0, 0);
        // Next touch now 100 s: big window.
        assert_eq!(p.on_idle(0, 0, secs(13)), IdleVerdict::SleepNow);
        assert_eq!(p.predicted_idle(0, 0), Some(SimDuration::from_secs(87)));
    }
}
