//! Page tables and the per-Memory-Hub TLB (Sec. II-D of the paper).
//!
//! Application-specific fine-grained accelerators are restricted to virtual
//! addresses; every accelerator-initiated access is translated by the
//! Memory Hub's TLB "while being speculatively processed by the Proxy
//! Cache". On a miss, the TLB raises an interrupt and the kernel refills it
//! via MMIOs (modelled in `duet-system` by an OS-stub latency).

use duet_sim::LineMap;

use crate::types::Addr;

/// Page size: 4 KB.
pub const PAGE_BYTES: u64 = 4096;

/// log2 of [`PAGE_BYTES`].
pub const PAGE_OFFSET_BITS: u32 = 12;

/// A virtual page number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vpn(pub u64);

/// A physical page number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ppn(pub u64);

impl Vpn {
    /// The virtual page containing `va`.
    pub fn containing(va: Addr) -> Self {
        Vpn(va >> PAGE_OFFSET_BITS)
    }
}

/// Access permissions of a mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PagePerms {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
}

impl PagePerms {
    /// Read/write permissions.
    pub fn rw() -> Self {
        PagePerms {
            read: true,
            write: true,
        }
    }

    /// Read-only permissions.
    pub fn ro() -> Self {
        PagePerms {
            read: true,
            write: false,
        }
    }
}

/// A software-managed page table (the kernel's view; the TLB caches it).
#[derive(Clone, Debug, Default)]
pub struct PageTable {
    map: LineMap<(Ppn, PagePerms)>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps one virtual page.
    pub fn map(&mut self, vpn: Vpn, ppn: Ppn, perms: PagePerms) {
        self.map.insert(vpn.0, (ppn, perms));
    }

    /// Identity-maps a virtual address range with the given permissions.
    pub fn map_range_identity(&mut self, base: Addr, len: u64, perms: PagePerms) {
        let first = base >> PAGE_OFFSET_BITS;
        let last = (base + len.max(1) - 1) >> PAGE_OFFSET_BITS;
        for p in first..=last {
            self.map(Vpn(p), Ppn(p), perms);
        }
    }

    /// Looks up a mapping.
    pub fn lookup(&self, vpn: Vpn) -> Option<(Ppn, PagePerms)> {
        self.map.get(vpn.0).copied()
    }

    /// Removes a mapping.
    pub fn unmap(&mut self, vpn: Vpn) -> bool {
        self.map.remove(vpn.0).is_some()
    }
}

/// Result of a TLB translation attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Translation {
    /// Hit: translated physical address.
    Hit(Addr),
    /// Miss: the hub must raise a page-fault interrupt.
    Miss,
    /// Mapped but lacking permission (e.g. store to a read-only page): the
    /// access is invalid and the accelerator should be killed.
    Fault,
}

/// Event counters for a TLB.
#[derive(Clone, Copy, Debug, Default)]
pub struct TlbStats {
    /// Translation hits.
    pub hits: u64,
    /// Translation misses.
    pub misses: u64,
    /// Permission faults.
    pub faults: u64,
}

/// A small fully-associative, LRU TLB.
///
/// # Example
///
/// ```
/// use duet_mem::tlb::{Tlb, Vpn, Ppn, PagePerms, Translation};
/// let mut tlb = Tlb::new(8);
/// tlb.insert(Vpn(0x10), Ppn(0x99), PagePerms::rw());
/// assert_eq!(tlb.translate(0x10_123, false), Translation::Hit(0x99_123));
/// assert_eq!(tlb.translate(0x20_000, false), Translation::Miss);
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    capacity: usize,
    entries: Vec<(Vpn, Ppn, PagePerms, u64)>,
    tick: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be non-zero");
        Tlb {
            capacity,
            entries: Vec::with_capacity(capacity),
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    /// Event counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Inserts a mapping (kernel MMIO refill), evicting LRU if full.
    pub fn insert(&mut self, vpn: Vpn, ppn: Ppn, perms: PagePerms) {
        self.tick += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == vpn) {
            *e = (vpn, ppn, perms, self.tick);
            return;
        }
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.3)
                .map(|(i, _)| i)
                .unwrap();
            self.entries.swap_remove(lru);
        }
        self.entries.push((vpn, ppn, perms, self.tick));
    }

    /// Translates a virtual address; `is_write` selects the permission
    /// check.
    pub fn translate(&mut self, va: Addr, is_write: bool) -> Translation {
        self.tick += 1;
        let vpn = Vpn::containing(va);
        match self.entries.iter_mut().find(|e| e.0 == vpn) {
            Some(e) => {
                e.3 = self.tick;
                let perms = e.2;
                if (is_write && !perms.write) || (!is_write && !perms.read) {
                    self.stats.faults += 1;
                    Translation::Fault
                } else {
                    self.stats.hits += 1;
                    Translation::Hit((e.1 .0 << PAGE_OFFSET_BITS) | (va & (PAGE_BYTES - 1)))
                }
            }
            None => {
                self.stats.misses += 1;
                Translation::Miss
            }
        }
    }

    /// Removes one mapping.
    pub fn invalidate(&mut self, vpn: Vpn) {
        self.entries.retain(|e| e.0 != vpn);
    }

    /// Removes every mapping.
    pub fn flush(&mut self) {
        self.entries.clear();
    }
}

duet_sim::pack_struct!(Vpn { 0 });
duet_sim::pack_struct!(Ppn { 0 });
duet_sim::pack_struct!(PagePerms { read, write });
duet_sim::pack_struct!(TlbStats {
    hits,
    misses,
    faults
});
duet_sim::pack_struct!(PageTable { map });
// Entry order is observable: `swap_remove` on eviction makes future victim
// choices depend on slot positions.
duet_sim::snap_fields!(Tlb {
    const capacity, entries, tick, stats
} check |t| duet_sim::snapshot::ensure(
    t.entries.len() <= t.capacity,
    "tlb entry count exceeds capacity"
));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_table_identity_range() {
        let mut pt = PageTable::new();
        pt.map_range_identity(0x1000, 0x3000, PagePerms::rw());
        assert_eq!(pt.lookup(Vpn(1)), Some((Ppn(1), PagePerms::rw())));
        assert_eq!(pt.lookup(Vpn(3)), Some((Ppn(3), PagePerms::rw())));
        assert_eq!(pt.lookup(Vpn(4)), None);
        assert!(pt.unmap(Vpn(1)));
        assert_eq!(pt.lookup(Vpn(1)), None);
    }

    #[test]
    fn tlb_hit_translates_offset() {
        let mut tlb = Tlb::new(4);
        tlb.insert(Vpn(2), Ppn(7), PagePerms::rw());
        assert_eq!(tlb.translate(0x2ABC, false), Translation::Hit(0x7ABC));
        assert_eq!(tlb.stats().hits, 1);
    }

    #[test]
    fn tlb_miss_and_refill() {
        let mut tlb = Tlb::new(4);
        assert_eq!(tlb.translate(0x5000, false), Translation::Miss);
        tlb.insert(Vpn(5), Ppn(9), PagePerms::rw());
        assert_eq!(tlb.translate(0x5000, false), Translation::Hit(0x9000));
    }

    #[test]
    fn tlb_write_to_readonly_faults() {
        let mut tlb = Tlb::new(4);
        tlb.insert(Vpn(1), Ppn(1), PagePerms::ro());
        assert_eq!(tlb.translate(0x1000, true), Translation::Fault);
        assert_eq!(tlb.translate(0x1000, false), Translation::Hit(0x1000));
        assert_eq!(tlb.stats().faults, 1);
    }

    #[test]
    fn tlb_lru_eviction() {
        let mut tlb = Tlb::new(2);
        tlb.insert(Vpn(1), Ppn(1), PagePerms::rw());
        tlb.insert(Vpn(2), Ppn(2), PagePerms::rw());
        // Touch 1 so 2 is LRU.
        let _ = tlb.translate(0x1000, false);
        tlb.insert(Vpn(3), Ppn(3), PagePerms::rw());
        assert_eq!(tlb.translate(0x2000, false), Translation::Miss);
        assert!(matches!(tlb.translate(0x1000, false), Translation::Hit(_)));
    }

    #[test]
    fn tlb_invalidate_and_flush() {
        let mut tlb = Tlb::new(4);
        tlb.insert(Vpn(1), Ppn(1), PagePerms::rw());
        tlb.insert(Vpn(2), Ppn(2), PagePerms::rw());
        tlb.invalidate(Vpn(1));
        assert_eq!(tlb.translate(0x1000, false), Translation::Miss);
        tlb.flush();
        assert_eq!(tlb.translate(0x2000, false), Translation::Miss);
    }
}
