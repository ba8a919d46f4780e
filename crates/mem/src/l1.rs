//! The L1 data cache sitting between a core and its private L2.
//!
//! Modelled after OpenPiton's L1D: small (8 KB), write-through, inclusive in
//! the L2's coherence domain. The L1 never holds a line its L2 doesn't; the
//! tile glue drains [`crate::priv_cache::PrivCache::take_back_invalidations`]
//! into [`L1Cache::invalidate`] every cycle to preserve inclusion.
//!
//! Timing: an L1 hit is satisfied in `hit_cycles` (1 by default); misses and
//! all stores/AMOs are forwarded to the L2. Stores update a present line in
//! place (write-through, write-around on miss).

use crate::array::CacheArray;
use crate::types::{read_scalar, write_scalar, LineAddr, LineData, Width};

/// Configuration of an L1 data cache.
#[derive(Clone, Copy, Debug)]
pub struct L1Config {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Hit latency in core cycles.
    pub hit_cycles: u32,
}

impl L1Config {
    /// Dolly-like L1D: 8 KB, 4-way, 16 B lines, single-cycle hits.
    pub fn dolly_l1d() -> Self {
        L1Config {
            sets: 128,
            ways: 4,
            hit_cycles: 1,
        }
    }
}

/// Event counters for an L1 cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct L1Stats {
    /// Load hits.
    pub hits: u64,
    /// Load misses.
    pub misses: u64,
    /// Stores written through.
    pub stores: u64,
    /// Back-invalidations applied.
    pub invalidations: u64,
}

/// A write-through L1 data cache. See module docs.
#[derive(Clone, Debug)]
pub struct L1Cache {
    cfg: L1Config,
    array: CacheArray<()>,
    stats: L1Stats,
}

impl L1Cache {
    /// Creates an empty L1.
    pub fn new(cfg: L1Config) -> Self {
        L1Cache {
            cfg,
            array: CacheArray::new(cfg.sets, cfg.ways),
            stats: L1Stats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &L1Config {
        &self.cfg
    }

    /// Event counters.
    pub fn stats(&self) -> L1Stats {
        self.stats
    }

    /// Attempts to satisfy a scalar load. Returns the value on a hit.
    pub fn load(&mut self, addr: u64, width: Width) -> Option<u64> {
        let line = LineAddr::containing(addr);
        match self.array.get(line) {
            Some((_, data)) => {
                self.stats.hits += 1;
                Some(read_scalar(data, LineAddr::offset(addr), width))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Counts `n` load hits to lines that are already resident without
    /// looking them up: the hit counter and the LRU clock advance as `n`
    /// calls to [`load`](L1Cache::load) would advance them, but no line is
    /// stamped — a caller skipping whole iterations of a spin re-executes
    /// the last one, which stamps every line it touches.
    pub fn credit_hits(&mut self, n: u64) {
        self.stats.hits += n;
        self.array.advance_lru_clock(n);
    }

    /// Installs a line filled by the L2.
    pub fn fill(&mut self, line: LineAddr, data: LineData) {
        self.array.insert(line, data, ());
    }

    /// Write-through store: updates the line if present (write-around
    /// otherwise). The store is always also sent to the L2 by the caller.
    pub fn store(&mut self, addr: u64, width: Width, value: u64) {
        self.stats.stores += 1;
        let line = LineAddr::containing(addr);
        if let Some((_, data)) = self.array.get_mut(line) {
            write_scalar(data, LineAddr::offset(addr), width, value);
        }
    }

    /// Removes a line (back-invalidation from the L2).
    pub fn invalidate(&mut self, line: LineAddr) {
        if self.array.remove(line).is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// Removes every line.
    pub fn invalidate_all(&mut self) {
        let n = self.array.drain().len() as u64;
        self.stats.invalidations += n;
    }

    /// Whether the line is resident (test aid).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.array.peek(line).is_some()
    }
}

duet_sim::pack_struct!(L1Stats {
    hits,
    misses,
    stores,
    invalidations
});
duet_sim::snap_fields!(L1Cache { array, stats });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut l1 = L1Cache::new(L1Config::dolly_l1d());
        assert_eq!(l1.load(0x100, Width::B8), None);
        let mut d = [0u8; 16];
        write_scalar(&mut d, 0, Width::B8, 77);
        l1.fill(LineAddr::containing(0x100), d);
        assert_eq!(l1.load(0x100, Width::B8), Some(77));
        assert_eq!(l1.stats().hits, 1);
        assert_eq!(l1.stats().misses, 1);
    }

    #[test]
    fn store_updates_present_line() {
        let mut l1 = L1Cache::new(L1Config::dolly_l1d());
        l1.fill(LineAddr::containing(0x200), [0u8; 16]);
        l1.store(0x208, Width::B4, 0xAB);
        assert_eq!(l1.load(0x208, Width::B4), Some(0xAB));
    }

    #[test]
    fn store_miss_is_write_around() {
        let mut l1 = L1Cache::new(L1Config::dolly_l1d());
        l1.store(0x300, Width::B8, 5);
        assert!(!l1.contains(LineAddr::containing(0x300)));
    }

    #[test]
    fn invalidation_removes_line() {
        let mut l1 = L1Cache::new(L1Config::dolly_l1d());
        l1.fill(LineAddr::containing(0x100), [1u8; 16]);
        l1.invalidate(LineAddr::containing(0x100));
        assert_eq!(l1.load(0x100, Width::B8), None);
        assert_eq!(l1.stats().invalidations, 1);
        // Invalidating an absent line is a no-op.
        l1.invalidate(LineAddr::containing(0x500));
        assert_eq!(l1.stats().invalidations, 1);
    }

    #[test]
    fn invalidate_all_flushes() {
        let mut l1 = L1Cache::new(L1Config::dolly_l1d());
        for i in 0..10u64 {
            l1.fill(LineAddr(i), [0u8; 16]);
        }
        l1.invalidate_all();
        for i in 0..10u64 {
            assert!(!l1.contains(LineAddr(i)));
        }
    }
}
