//! Event-horizon merging: the shared `next_event_time` idiom.
//!
//! Every layer of the simulator answers the same question — "when can this
//! structure next make observable progress?" — by folding an `Option<Time>`
//! minimum over its parts, clamped so that a time before `now` reads as
//! `now`. Before this module, each crate hand-rolled that fold (and the
//! `System` god-object did it once more with a macro). The [`Horizon`]
//! accumulator captures the idiom once:
//!
//! ```
//! use duet_sim::{Horizon, Time};
//!
//! let now = Time::from_ps(5_000);
//! let next_edge = Time::from_ps(6_000);
//! let mut h = Horizon::new(now, next_edge);
//! assert!(!h.merge(Time::from_ps(9_000)));   // after the next edge: keep folding
//! assert!(h.merge(Time::from_ps(6_000)));    // at the next edge: caller may stop
//! assert_eq!(h.earliest(), Some(next_edge));
//! ```
//!
//! The *floor* is the next edge the caller executes whatever the fold
//! finds. Once the merged time is at or before it, no further merge can
//! change what the caller does — a horizon at or before the next edge
//! skips nothing — so the horizon is *due* and the fold may stop.
//!
//! The clamp matters: a component may report a time in the past (e.g. a
//! queue entry that became ready while the component was gated); the merged
//! horizon must never ask the scheduler to travel backwards.

use crate::time::Time;

/// Accumulates the minimum of per-component event times relative to `now`.
///
/// `merge*` returns `true` once the merged time is at or before the floor
/// — the caller may early-exit the fold, since whatever else it would merge
/// cannot change which edge executes next.
#[derive(Clone, Copy, Debug)]
pub struct Horizon {
    now: Time,
    floor: Time,
    earliest: Option<Time>,
}

impl Horizon {
    /// Starts an empty horizon fold at the current time `now`. `floor`
    /// (at or after `now`) is the next edge the caller executes anyway.
    pub fn new(now: Time, floor: Time) -> Self {
        debug_assert!(floor >= now, "the floor lies before now");
        Horizon {
            now,
            floor,
            earliest: None,
        }
    }

    /// Folds one event time in (clamped up to `now`). Returns `true` if the
    /// horizon is due on the next edge — sticky, so callers can early-exit
    /// a fold as soon as it fires.
    pub fn merge(&mut self, t: Time) -> bool {
        let t = t.max(self.now);
        match self.earliest {
            Some(e) if e <= t => {}
            _ => self.earliest = Some(t),
        }
        self.due()
    }

    /// Folds an optional event time in (`None` merges nothing). Returns
    /// `true` if the horizon is due on the next edge.
    pub fn merge_opt(&mut self, t: Option<Time>) -> bool {
        match t {
            Some(t) => self.merge(t),
            None => false,
        }
    }

    /// Whether the merged horizon is due on the next edge: at or before
    /// the floor, so no later merge can change which edge executes next.
    pub fn due(&self) -> bool {
        self.earliest.is_some_and(|e| e <= self.floor)
    }

    /// The merged horizon: earliest event time at or after `now`, or `None`
    /// if nothing was merged (everything idle). Once due, it is the
    /// minimum of what was merged so far, not of everything.
    pub fn earliest(&self) -> Option<Time> {
        self.earliest
    }
}

/// Minimum of two optional event times (`None` = idle). The leaf-level form
/// of the idiom, for components folding over two or three queues without the
/// early-exit machinery.
pub fn merge_min(a: Option<Time>, b: Option<Time>) -> Option<Time> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: u64) -> Time {
        Time::from_ps(v)
    }

    #[test]
    fn empty_horizon_is_idle() {
        let h = Horizon::new(ps(100), ps(100));
        assert_eq!(h.earliest(), None);
        assert!(!h.due());
    }

    #[test]
    fn merge_keeps_minimum_of_future_times() {
        let mut h = Horizon::new(ps(100), ps(100));
        assert!(!h.merge(ps(500)));
        assert!(!h.merge(ps(300)));
        assert!(!h.merge(ps(900)));
        assert_eq!(h.earliest(), Some(ps(300)));
        assert!(!h.due());
    }

    #[test]
    fn past_times_clamp_to_now_and_report_due() {
        let mut h = Horizon::new(ps(100), ps(100));
        assert!(h.merge(ps(40)), "a past event is due on the next edge");
        assert_eq!(h.earliest(), Some(ps(100)), "clamped, never backwards");
        assert!(h.due());
    }

    #[test]
    fn exactly_now_is_due() {
        let mut h = Horizon::new(ps(100), ps(100));
        assert!(h.merge(ps(100)));
        assert_eq!(h.earliest(), Some(ps(100)));
    }

    #[test]
    fn due_horizon_absorbs_later_merges() {
        let mut h = Horizon::new(ps(100), ps(100));
        assert!(h.merge(ps(100)));
        assert!(h.merge(ps(700)), "stays due once due");
        assert_eq!(h.earliest(), Some(ps(100)));
    }

    #[test]
    fn merge_opt_ignores_idle_components() {
        let mut h = Horizon::new(ps(100), ps(100));
        assert!(!h.merge_opt(None));
        assert_eq!(h.earliest(), None);
        assert!(!h.merge_opt(Some(ps(250))));
        assert!(h.merge_opt(Some(ps(100))));
        assert_eq!(h.earliest(), Some(ps(100)));
    }

    #[test]
    fn times_up_to_the_floor_are_due() {
        // Now 100, next edge 400: anything at or before 400 is due.
        for t in [40, 100, 250, 400] {
            let mut h = Horizon::new(ps(100), ps(400));
            assert!(h.merge(ps(t)), "{t} is at or before the floor");
            assert_eq!(h.earliest(), Some(ps(t.max(100))));
        }
        let mut h = Horizon::new(ps(100), ps(400));
        assert!(!h.merge(ps(401)), "one past the floor keeps folding");
        assert!(!h.merge_opt(None));
        assert!(h.merge(ps(399)));
        assert!(h.merge(ps(401)), "due is sticky");
        assert_eq!(h.earliest(), Some(ps(399)));
    }

    #[test]
    fn merge_min_folds_options() {
        assert_eq!(merge_min(None, None), None);
        assert_eq!(merge_min(Some(ps(5)), None), Some(ps(5)));
        assert_eq!(merge_min(None, Some(ps(7))), Some(ps(7)));
        assert_eq!(merge_min(Some(ps(9)), Some(ps(7))), Some(ps(7)));
    }
}
