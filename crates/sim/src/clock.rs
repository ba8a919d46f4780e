//! Clocks and the dual-domain edge sequencer.

use crate::time::Time;

/// A free-running clock described by its period and first-edge offset.
///
/// Only rising edges are modelled; all sequential logic in the simulator is
/// ticked on rising edges of its domain clock.
///
/// # Example
///
/// ```
/// use duet_sim::{Clock, Time};
/// let c = Clock::from_mhz(250.0); // 4 ns period
/// assert_eq!(c.period().as_ps(), 4000);
/// let e0 = c.first_edge();
/// assert_eq!(c.next_edge_after(e0), e0 + c.period());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Clock {
    period_ps: u64,
    offset_ps: u64,
}

impl Clock {
    /// Creates a clock with the given period. The first rising edge is at
    /// `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: Time, offset: Time) -> Self {
        assert!(period.as_ps() > 0, "clock period must be non-zero");
        Clock {
            period_ps: period.as_ps(),
            offset_ps: offset.as_ps(),
        }
    }

    /// The canonical 1 GHz system clock used throughout the evaluation
    /// (Sec. V-A boosts the processors and cache system to 1 GHz).
    pub fn ghz1() -> Self {
        Clock::new(Time::from_ps(1000), Time::from_ps(1000))
    }

    /// Creates a clock from a frequency in MHz, rounding the period to the
    /// nearest picosecond. First edge is one period after time zero so that
    /// reset state is observable at `Time::ZERO`.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not a positive finite number.
    pub fn from_mhz(mhz: f64) -> Self {
        assert!(mhz.is_finite() && mhz > 0.0, "frequency must be positive");
        let period_ps = (1_000_000.0 / mhz).round() as u64;
        Clock::new(Time::from_ps(period_ps), Time::from_ps(period_ps))
    }

    /// The clock period.
    pub fn period(&self) -> Time {
        Time::from_ps(self.period_ps)
    }

    /// Frequency in MHz (approximate, for reporting).
    pub fn freq_mhz(&self) -> f64 {
        1_000_000.0 / self.period_ps as f64
    }

    /// The time of the first rising edge.
    pub fn first_edge(&self) -> Time {
        Time::from_ps(self.offset_ps)
    }

    /// Whether `t` falls exactly on a rising edge of this clock.
    pub fn is_edge(&self, t: Time) -> bool {
        let ps = t.as_ps();
        ps >= self.offset_ps && (ps - self.offset_ps).is_multiple_of(self.period_ps)
    }

    /// The earliest rising edge at or after `t`.
    pub fn edge_at_or_after(&self, t: Time) -> Time {
        let ps = t.as_ps();
        if ps <= self.offset_ps {
            return Time::from_ps(self.offset_ps);
        }
        let delta = ps - self.offset_ps;
        let k = delta.div_ceil(self.period_ps);
        Time::from_ps(self.offset_ps + k * self.period_ps)
    }

    /// The earliest rising edge strictly after `t`.
    pub fn next_edge_after(&self, t: Time) -> Time {
        let e = self.edge_at_or_after(t);
        if e > t {
            e
        } else {
            e + self.period()
        }
    }

    /// The `n`-th rising edge strictly after `t` (`n = 1` is
    /// [`next_edge_after`](Clock::next_edge_after)).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn nth_edge_after(&self, t: Time, n: u32) -> Time {
        assert!(n > 0, "nth_edge_after requires n >= 1");
        self.next_edge_after(t) + self.period().mul(u64::from(n) - 1)
    }

    /// The time of the `n`-th rising edge, counting from 1: the first
    /// instant at which [`cycles_at`](Clock::cycles_at) reads `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn nth_edge(&self, n: u64) -> Time {
        assert!(n > 0, "edges are counted from 1");
        Time::from_ps(self.offset_ps + (n - 1) * self.period_ps)
    }

    /// Number of whole periods elapsed at time `t` (cycle counter).
    pub fn cycles_at(&self, t: Time) -> u64 {
        let ps = t.as_ps();
        if ps < self.offset_ps {
            0
        } else {
            (ps - self.offset_ps) / self.period_ps + 1
        }
    }
}

/// Which domain(s) have a rising edge at a step of the [`DualClock`] sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeDomain {
    /// Only the fast (system/processor) clock has an edge.
    Fast,
    /// Only the slow (eFPGA) clock has an edge.
    Slow,
    /// Both clocks have a coincident edge. The convention throughout this
    /// workspace is to tick fast-domain components before slow-domain ones.
    Both,
}

impl EdgeDomain {
    /// Whether the fast domain ticks at this step.
    pub fn fast(self) -> bool {
        matches!(self, EdgeDomain::Fast | EdgeDomain::Both)
    }

    /// Whether the slow domain ticks at this step.
    pub fn slow(self) -> bool {
        matches!(self, EdgeDomain::Slow | EdgeDomain::Both)
    }
}

/// Generates the merged rising-edge sequence of a fast and a slow clock.
///
/// # Example
///
/// ```
/// use duet_sim::{Clock, DualClock, EdgeDomain};
/// let mut dc = DualClock::new(Clock::ghz1(), Clock::from_mhz(500.0));
/// let (t, d) = dc.next_edge();
/// assert_eq!(t.as_ps(), 1000);
/// assert_eq!(d, EdgeDomain::Fast); // slow first edge is at 2000
/// ```
#[derive(Clone, Debug)]
pub struct DualClock {
    fast: Clock,
    slow: Clock,
    now: Time,
    started: bool,
}

impl DualClock {
    /// Creates a sequencer over the two domains.
    pub fn new(fast: Clock, slow: Clock) -> Self {
        DualClock {
            fast,
            slow,
            now: Time::ZERO,
            started: false,
        }
    }

    /// The fast-domain clock.
    pub fn fast(&self) -> Clock {
        self.fast
    }

    /// The slow-domain clock.
    pub fn slow(&self) -> Clock {
        self.slow
    }

    /// The time of the most recently returned edge (ZERO before the first).
    pub fn now(&self) -> Time {
        self.now
    }

    /// The next slow-domain edge [`next_edge`](DualClock::next_edge) could
    /// return, without advancing (used to cap dead-edge skipping when the
    /// slow domain has per-edge work).
    pub fn next_slow_edge(&self) -> Time {
        if self.started {
            self.slow.next_edge_after(self.now)
        } else {
            self.slow.edge_at_or_after(self.now)
        }
    }

    /// Advances to the next edge in either domain and reports which
    /// domain(s) tick there.
    pub fn next_edge(&mut self) -> (Time, EdgeDomain) {
        let nf = if self.started {
            self.fast.next_edge_after(self.now)
        } else {
            self.fast.edge_at_or_after(self.now)
        };
        let ns = if self.started {
            self.slow.next_edge_after(self.now)
        } else {
            self.slow.edge_at_or_after(self.now)
        };
        self.started = true;
        let (t, d) = if nf < ns {
            (nf, EdgeDomain::Fast)
        } else if ns < nf {
            (ns, EdgeDomain::Slow)
        } else {
            (nf, EdgeDomain::Both)
        };
        self.now = t;
        (t, d)
    }

    /// Jumps both domains forward so the next [`next_edge`](DualClock::next_edge)
    /// returns the first merged edge at or after `t`, and reports how many
    /// `(fast, slow)` edges were skipped over in the process.
    ///
    /// Edges strictly after the current position and strictly **before** `t`
    /// are counted as skipped; an edge exactly at `t` is not skipped — it is
    /// the next edge to be executed. Calling with `t` at or before the current
    /// position is a no-op returning `(0, 0)`.
    ///
    /// This is the primitive behind dead-edge skipping: the caller proves that
    /// nothing observable happens before `t`, jumps there, and reconstructs
    /// per-domain edge counters from the returned skip counts so statistics
    /// stay bit-identical with edge-by-edge stepping.
    pub fn advance_to(&mut self, t: Time) -> (u64, u64) {
        if t <= self.now {
            return (0, 0);
        }
        // Position just before `t` so the next merged edge is the first one
        // at or after `t`. Edges in (now, t) are the skipped ones; counting
        // with the inclusive cycle counter at `t - 1ps` captures exactly that
        // half-open interval.
        let upto = Time::from_ps(t.as_ps() - 1);
        let fast = if self.started {
            self.fast.cycles_at(upto) - self.fast.cycles_at(self.now)
        } else {
            // Before the first next_edge() the edge at `now` itself has not
            // executed, so it too counts as skipped if it lies before `t`.
            let base = self.fast.cycles_at(self.now);
            let adj = if self.fast.is_edge(self.now) { 1 } else { 0 };
            self.fast.cycles_at(upto) - (base - adj.min(base))
        };
        let slow = if self.started {
            self.slow.cycles_at(upto) - self.slow.cycles_at(self.now)
        } else {
            let base = self.slow.cycles_at(self.now);
            let adj = if self.slow.is_edge(self.now) { 1 } else { 0 };
            self.slow.cycles_at(upto) - (base - adj.min(base))
        };
        self.now = upto;
        self.started = true;
        (fast, slow)
    }
}

crate::pack_struct!(Clock { period_ps, offset_ps }
    check |c| crate::snapshot::ensure(c.period_ps != 0, "zero clock period"));
crate::snap_fields!(DualClock {
    fast,
    slow,
    now,
    started
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mhz_period() {
        assert_eq!(Clock::from_mhz(1000.0).period().as_ps(), 1000);
        assert_eq!(Clock::from_mhz(100.0).period().as_ps(), 10_000);
        assert_eq!(Clock::from_mhz(127.0).period().as_ps(), 7874);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn bad_freq_panics() {
        let _ = Clock::from_mhz(0.0);
    }

    #[test]
    fn edge_math() {
        let c = Clock::new(Time::from_ps(1000), Time::from_ps(1000));
        assert!(c.is_edge(Time::from_ps(1000)));
        assert!(c.is_edge(Time::from_ps(5000)));
        assert!(!c.is_edge(Time::from_ps(1500)));
        assert!(!c.is_edge(Time::from_ps(500)));
        assert_eq!(c.edge_at_or_after(Time::ZERO).as_ps(), 1000);
        assert_eq!(c.edge_at_or_after(Time::from_ps(1000)).as_ps(), 1000);
        assert_eq!(c.edge_at_or_after(Time::from_ps(1001)).as_ps(), 2000);
        assert_eq!(c.next_edge_after(Time::from_ps(1000)).as_ps(), 2000);
        assert_eq!(c.nth_edge_after(Time::from_ps(1000), 3).as_ps(), 4000);
    }

    #[test]
    fn cycle_counter() {
        let c = Clock::ghz1();
        assert_eq!(c.cycles_at(Time::ZERO), 0);
        assert_eq!(c.cycles_at(Time::from_ps(999)), 0);
        assert_eq!(c.cycles_at(Time::from_ps(1000)), 1);
        assert_eq!(c.cycles_at(Time::from_ps(5500)), 5);
        for n in 1..10 {
            assert_eq!(c.cycles_at(c.nth_edge(n)), n);
            assert_eq!(c.cycles_at(c.nth_edge(n) - Time::from_ps(1)), n - 1);
        }
    }

    #[test]
    fn dual_clock_interleave_2to1() {
        // fast 1 GHz (edges 1000, 2000, ...), slow 500 MHz (edges 2000, 4000...)
        let mut dc = DualClock::new(Clock::ghz1(), Clock::from_mhz(500.0));
        let seq: Vec<(u64, EdgeDomain)> = (0..5)
            .map(|_| {
                let (t, d) = dc.next_edge();
                (t.as_ps(), d)
            })
            .collect();
        assert_eq!(
            seq,
            vec![
                (1000, EdgeDomain::Fast),
                (2000, EdgeDomain::Both),
                (3000, EdgeDomain::Fast),
                (4000, EdgeDomain::Both),
                (5000, EdgeDomain::Fast),
            ]
        );
    }

    #[test]
    fn dual_clock_non_integer_ratio() {
        // 1 GHz vs 300 MHz (3333 ps): edges never drift or repeat.
        let mut dc = DualClock::new(Clock::ghz1(), Clock::from_mhz(300.0));
        let mut last = Time::ZERO;
        let mut slow_edges = 0;
        for _ in 0..100 {
            let (t, d) = dc.next_edge();
            assert!(t > last, "time must strictly increase");
            last = t;
            if d.slow() {
                slow_edges += 1;
            }
        }
        assert!(slow_edges > 20 && slow_edges < 30);
    }

    #[test]
    fn advance_to_matches_stepping() {
        // Reference: step edge-by-edge and count; then advance in one jump.
        let mk = || DualClock::new(Clock::ghz1(), Clock::from_mhz(300.0));
        for target_ps in [1000, 1001, 3333, 10_000, 12_345] {
            let target = Time::from_ps(target_ps);
            let mut stepped = mk();
            let mut fast = 0u64;
            let mut slow = 0u64;
            loop {
                let mut probe = stepped.clone();
                let (t, d) = probe.next_edge();
                if t >= target {
                    break;
                }
                stepped = probe;
                if d.fast() {
                    fast += 1;
                }
                if d.slow() {
                    slow += 1;
                }
            }
            let mut jumped = mk();
            assert_eq!(
                jumped.advance_to(target),
                (fast, slow),
                "target {target_ps}"
            );
            // The subsequent edge sequences must be identical.
            for _ in 0..10 {
                assert_eq!(jumped.next_edge(), stepped.next_edge());
            }
        }
    }

    #[test]
    fn advance_to_past_is_noop() {
        let mut dc = DualClock::new(Clock::ghz1(), Clock::from_mhz(500.0));
        let (t, _) = dc.next_edge();
        assert_eq!(dc.advance_to(t), (0, 0));
        assert_eq!(dc.advance_to(Time::ZERO), (0, 0));
        assert_eq!(dc.next_edge().0.as_ps(), 2000);
    }

    #[test]
    fn advance_to_edge_at_target_not_skipped() {
        let mut dc = DualClock::new(Clock::ghz1(), Clock::from_mhz(500.0));
        // Edges before 4000: fast 1000,2000,3000; slow 2000. 4000 itself runs.
        assert_eq!(dc.advance_to(Time::from_ps(4000)), (3, 1));
        let (t, d) = dc.next_edge();
        assert_eq!(t.as_ps(), 4000);
        assert_eq!(d, EdgeDomain::Both);
    }

    #[test]
    fn edge_domain_helpers() {
        assert!(EdgeDomain::Both.fast() && EdgeDomain::Both.slow());
        assert!(EdgeDomain::Fast.fast() && !EdgeDomain::Fast.slow());
        assert!(!EdgeDomain::Slow.fast() && EdgeDomain::Slow.slow());
    }
}
