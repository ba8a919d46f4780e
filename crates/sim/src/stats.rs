//! Statistics, counters, and the latency-attribution breakdown used to
//! regenerate the stacked bars of Fig. 9.

use std::fmt;

use crate::time::Time;

/// A named monotonic event counter.
///
/// Counters always carry a name — construct with [`Counter::new`]. (There
/// is deliberately no `Default`: a defaulted counter would have an empty
/// name, which renders as a bare `" = N"` line in reports and collides
/// with every other unnamed counter in a metrics namespace.)
///
/// # Example
///
/// ```
/// use duet_sim::Counter;
/// let mut c = Counter::new("l2.hits");
/// c.add(3);
/// c.inc();
/// assert_eq!(c.value(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct Counter {
    name: String,
    value: u64,
}

impl Counter {
    /// Creates a counter with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Counter {
            name: name.into(),
            value: 0,
        }
    }

    /// The counter's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.value += 1;
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.value = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.name, self.value)
    }
}

// Only the value is state; the name is fixed at construction.
crate::snap_fields!(Counter { value });
crate::snap_fields!(RunningStats {
    count,
    mean,
    m2,
    min,
    max
});

/// Online mean/min/max/count accumulator (Welford's variance).
#[derive(Clone, Debug, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// Per-transaction latency attribution, mirroring the four stacked segments
/// of Fig. 9: NoC time, cache processing in the fast clock domain, cache
/// processing in the slow (eFPGA) clock domain, and clock-domain-crossing
/// overhead.
///
/// Every memory/MMIO transaction in the simulator carries one of these and
/// each component adds the wall-clock time the transaction spent under its
/// control to the appropriate bucket, so `total()` equals the measured
/// round-trip latency by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Time spent traversing the network-on-chip.
    pub noc: Time,
    /// Cache/adapter processing time in the fast (system) clock domain.
    pub cache_fast: Time,
    /// Cache/accelerator processing time in the slow (eFPGA) clock domain.
    pub cache_slow: Time,
    /// Clock-domain-crossing (async FIFO synchronizer) overhead.
    pub cdc: Time,
}

impl LatencyBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum of all four segments.
    pub fn total(&self) -> Time {
        self.noc + self.cache_fast + self.cache_slow + self.cdc
    }

    /// Element-wise sum.
    pub fn merged(&self, other: &LatencyBreakdown) -> LatencyBreakdown {
        LatencyBreakdown {
            noc: self.noc + other.noc,
            cache_fast: self.cache_fast + other.cache_fast,
            cache_slow: self.cache_slow + other.cache_slow,
            cdc: self.cdc + other.cdc,
        }
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &LatencyBreakdown) {
        *self = self.merged(other);
    }
}

impl fmt::Display for LatencyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "noc={} fast={} slow={} cdc={} (total {})",
            self.noc,
            self.cache_fast,
            self.cache_slow,
            self.cdc,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new("x");
        assert_eq!(c.value(), 0);
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        assert_eq!(c.name(), "x");
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn running_stats() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        for x in [2.0, 4.0, 6.0, 8.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(8.0));
        assert!((s.variance() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_total_and_merge() {
        let a = LatencyBreakdown {
            noc: Time::from_ns(3),
            cache_fast: Time::from_ns(2),
            cache_slow: Time::from_ns(10),
            cdc: Time::from_ns(8),
        };
        assert_eq!(a.total(), Time::from_ns(23));
        let mut b = LatencyBreakdown::new();
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.total(), Time::from_ns(46));
        assert_eq!(b.noc, Time::from_ns(6));
    }
}
