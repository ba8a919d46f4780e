//! The latency-attribution breakdown used to regenerate the stacked bars
//! of Fig. 9.

use std::fmt;

use crate::time::Time;

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
