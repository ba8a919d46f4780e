//! Generic set-associative cache array with true-LRU replacement.
//!
//! Used by the L1 caches, the private L2 / Proxy Cache, the L3 data array,
//! and the eFPGA-emulated soft cache. The array stores tags, per-line
//! metadata `M`, and the actual line data (the simulator is functional as
//! well as timing-accurate — coherence bugs surface as wrong data).

use crate::types::{LineAddr, LineData, LINE_BYTES};

/// One way of one set.
#[derive(Clone, Debug)]
struct Way<M> {
    tag: u64,
    valid: bool,
    lru: u64,
    meta: M,
    data: LineData,
}

/// A set-associative array of cachelines with metadata `M` per line.
///
/// # Example
///
/// ```
/// use duet_mem::array::CacheArray;
/// use duet_mem::types::LineAddr;
///
/// let mut a: CacheArray<bool> = CacheArray::new(4, 2);
/// a.insert(LineAddr(0x10), [0u8; 16], true);
/// assert!(a.get(LineAddr(0x10)).is_some());
/// assert!(a.get(LineAddr(0x11)).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct CacheArray<M> {
    sets: usize,
    ways: usize,
    lines: Vec<Option<Way<M>>>,
    tick: u64,
}

impl<M> CacheArray<M> {
    /// Creates an empty array with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or either argument is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "array dimensions must be non-zero");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheArray {
            sets,
            ways,
            // Materialized on first insert: a system builds one array per
            // cache/shard/hub, and most never see traffic in short runs —
            // eagerly zeroing sets*ways slots dominated construction time.
            lines: Vec::new(),
            tick: 0,
        }
    }

    /// Allocates the slot storage (all-empty) if it has not been yet.
    fn ensure_backing(&mut self) {
        if self.lines.is_empty() {
            self.lines = (0..self.sets * self.ways).map(|_| None).collect();
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * LINE_BYTES
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of ways.
    pub fn ways(&self) -> usize {
        self.ways
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.0 as usize) & (self.sets - 1)
    }

    fn slot_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let s = self.set_index(line);
        s * self.ways..(s + 1) * self.ways
    }

    fn find(&self, line: LineAddr) -> Option<usize> {
        if self.lines.is_empty() {
            return None;
        }
        self.slot_range(line).find(|&i| {
            self.lines[i]
                .as_ref()
                .is_some_and(|w| w.valid && w.tag == line.0)
        })
    }

    /// Looks up a line without touching LRU state.
    pub fn peek(&self, line: LineAddr) -> Option<(&M, &LineData)> {
        self.find(line)
            .map(|i| self.lines[i].as_ref().map(|w| (&w.meta, &w.data)).unwrap())
    }

    /// Looks up a line and updates LRU on hit.
    pub fn get(&mut self, line: LineAddr) -> Option<(&M, &LineData)> {
        let i = self.find(line)?;
        self.tick += 1;
        let w = self.lines[i].as_mut().unwrap();
        w.lru = self.tick;
        Some((&w.meta, &w.data))
    }

    /// Advances the LRU clock by `n` uses without stamping any line: the
    /// arithmetic half of replaying `n` hits whose stamps the caller
    /// rewrites by repeating the last of them.
    pub fn advance_lru_clock(&mut self, n: u64) {
        self.tick += n;
    }

    /// Mutable lookup, updating LRU on hit.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<(&mut M, &mut LineData)> {
        let i = self.find(line)?;
        self.tick += 1;
        let w = self.lines[i].as_mut().unwrap();
        w.lru = self.tick;
        Some((&mut w.meta, &mut w.data))
    }

    /// Metadata-only mutable access without LRU update (for coherence
    /// downgrades that shouldn't count as uses).
    pub fn meta_mut(&mut self, line: LineAddr) -> Option<&mut M> {
        let i = self.find(line)?;
        Some(&mut self.lines[i].as_mut().unwrap().meta)
    }

    /// Whether inserting `line` would require evicting a valid line, and if
    /// so which one (the LRU victim of the set). Returns `None` when the
    /// line is already present or a free way exists.
    pub fn victim_for(&self, line: LineAddr) -> Option<LineAddr> {
        if self.lines.is_empty() || self.find(line).is_some() {
            return None;
        }
        let range = self.slot_range(line);
        if self.lines[range.clone()]
            .iter()
            .any(|w| w.is_none() || !w.as_ref().unwrap().valid)
        {
            return None;
        }
        let victim = range
            .min_by_key(|&i| self.lines[i].as_ref().unwrap().lru)
            .unwrap();
        Some(LineAddr(self.lines[victim].as_ref().unwrap().tag))
    }

    /// Inserts (or overwrites) a line. The caller must have handled the
    /// victim first (see [`victim_for`](CacheArray::victim_for)); if the set
    /// is still full, the LRU line is silently dropped.
    pub fn insert(&mut self, line: LineAddr, data: LineData, meta: M) {
        self.ensure_backing();
        self.tick += 1;
        if let Some(i) = self.find(line) {
            let w = self.lines[i].as_mut().unwrap();
            w.data = data;
            w.meta = meta;
            w.lru = self.tick;
            return;
        }
        let range = self.slot_range(line);
        let slot = self.lines[range.clone()]
            .iter()
            .position(|w| w.is_none() || !w.as_ref().unwrap().valid)
            .map(|p| range.start + p)
            .unwrap_or_else(|| {
                range
                    .min_by_key(|&i| self.lines[i].as_ref().unwrap().lru)
                    .unwrap()
            });
        self.lines[slot] = Some(Way {
            tag: line.0,
            valid: true,
            lru: self.tick,
            meta,
            data,
        });
    }

    /// Removes a line, returning its metadata and data if present.
    pub fn remove(&mut self, line: LineAddr) -> Option<(M, LineData)> {
        let i = self.find(line)?;
        let w = self.lines[i].take().unwrap();
        Some((w.meta, w.data))
    }

    /// Invalidates every line, returning those that were present.
    pub fn drain(&mut self) -> Vec<(LineAddr, M, LineData)> {
        let mut out = Vec::new();
        for slot in &mut self.lines {
            if let Some(w) = slot.take() {
                if w.valid {
                    out.push((LineAddr(w.tag), w.meta, w.data));
                }
            }
        }
        out
    }

    /// Iterates over all valid lines (no LRU update).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &M, &LineData)> {
        self.lines
            .iter()
            .filter_map(|w| w.as_ref())
            .filter(|w| w.valid)
            .map(|w| (LineAddr(w.tag), &w.meta, &w.data))
    }

    /// Number of valid lines.
    pub fn len(&self) -> usize {
        self.lines
            .iter()
            .filter(|w| w.as_ref().is_some_and(|w| w.valid))
            .count()
    }

    /// Whether the array holds no valid lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

duet_sim::pack_struct!(Way<M> { tag, valid, lru, meta, data });
// Lazy backing: `lines` is either empty (never touched) or exactly
// sets*ways slots. The length distinguishes the two.
duet_sim::snap_fields!(CacheArray<M> {
    tick, lines
} check |a| duet_sim::snapshot::ensure(
    a.lines.is_empty() || a.lines.len() == a.sets * a.ways,
    "cache array geometry mismatch"
));

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr(n)
    }

    fn data(b: u8) -> LineData {
        [b; LINE_BYTES]
    }

    #[test]
    fn insert_and_get() {
        let mut a: CacheArray<u8> = CacheArray::new(8, 2);
        a.insert(line(1), data(7), 1);
        let (m, d) = a.get(line(1)).unwrap();
        assert_eq!(*m, 1);
        assert_eq!(d[0], 7);
        assert!(a.get(line(2)).is_none());
    }

    #[test]
    fn overwrite_updates_in_place() {
        let mut a: CacheArray<u8> = CacheArray::new(4, 2);
        a.insert(line(1), data(1), 1);
        a.insert(line(1), data(2), 2);
        assert_eq!(a.len(), 1);
        let (m, d) = a.peek(line(1)).unwrap();
        assert_eq!((*m, d[0]), (2, 2));
    }

    #[test]
    fn lru_victim_selection() {
        // 1 set, 2 ways: lines 0, 4 map to set 0 (4 sets? no — force conflict
        // with sets=1).
        let mut a: CacheArray<()> = CacheArray::new(1, 2);
        a.insert(line(10), data(0), ());
        a.insert(line(20), data(0), ());
        // Touch 10 so 20 becomes LRU.
        a.get(line(10));
        assert_eq!(a.victim_for(line(30)), Some(line(20)));
        // Present line needs no victim.
        assert_eq!(a.victim_for(line(10)), None);
    }

    #[test]
    fn insert_into_full_set_evicts_lru() {
        let mut a: CacheArray<()> = CacheArray::new(1, 2);
        a.insert(line(1), data(1), ());
        a.insert(line(2), data(2), ());
        a.get(line(1));
        a.insert(line(3), data(3), ());
        assert!(a.peek(line(2)).is_none(), "LRU line 2 evicted");
        assert!(a.peek(line(1)).is_some());
        assert!(a.peek(line(3)).is_some());
    }

    #[test]
    fn set_mapping_avoids_conflicts() {
        let mut a: CacheArray<()> = CacheArray::new(4, 1);
        for i in 0..4 {
            a.insert(line(i), data(i as u8), ());
        }
        assert_eq!(a.len(), 4, "distinct sets, no eviction");
    }

    #[test]
    fn remove_and_drain() {
        let mut a: CacheArray<u32> = CacheArray::new(4, 2);
        a.insert(line(1), data(1), 11);
        a.insert(line(2), data(2), 22);
        let (m, _) = a.remove(line(1)).unwrap();
        assert_eq!(m, 11);
        assert!(a.remove(line(1)).is_none());
        let rest = a.drain();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].0, line(2));
        assert!(a.is_empty());
    }

    #[test]
    fn meta_mut_does_not_touch_lru() {
        let mut a: CacheArray<u8> = CacheArray::new(1, 2);
        a.insert(line(1), data(0), 0);
        a.insert(line(2), data(0), 0);
        // line(1) is LRU; meta_mut on it must not promote it.
        *a.meta_mut(line(1)).unwrap() = 9;
        assert_eq!(a.victim_for(line(3)), Some(line(1)));
    }

    #[test]
    fn capacity_accounting() {
        let a: CacheArray<()> = CacheArray::new(128, 4);
        assert_eq!(a.capacity_bytes(), 128 * 4 * 16); // 8 KB
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_panics() {
        let _: CacheArray<()> = CacheArray::new(3, 1);
    }
}
