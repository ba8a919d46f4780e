//! Generic set-associative cache array with true-LRU replacement.
//!
//! Used by the L1 caches, the private L2 / Proxy Cache, the L3 data array,
//! and the eFPGA-emulated soft cache. The array stores tags, per-line
//! metadata `M`, and the actual line data (the simulator is functional as
//! well as timing-accurate — coherence bugs surface as wrong data).

use duet_sim::snapshot::{ensure, Pack, Snap, SnapError, SnapReader, SnapWriter};

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

/// One set's ways.
type Set<M> = Box<[Option<Way<M>>]>;

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
    /// Each set's ways, allocated on that set's first insert. The outer
    /// list itself stays empty until the array's first insert: a system
    /// builds one array per cache/shard/hub, and short runs touch few
    /// sets of few of them.
    lines: Vec<Option<Set<M>>>,
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
            lines: Vec::new(),
            tick: 0,
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

    /// The ways of `line`'s set; empty while the set is unallocated.
    fn set_of(&self, line: LineAddr) -> &[Option<Way<M>>] {
        self.lines
            .get(self.set_index(line))
            .and_then(|s| s.as_deref())
            .unwrap_or_default()
    }

    /// The way holding `line`.
    fn way(&self, line: LineAddr) -> Option<&Way<M>> {
        self.set_of(line)
            .iter()
            .flatten()
            .find(|w| w.valid && w.tag == line.0)
    }

    /// The slot of set `set` holding `line`. Takes the set list rather
    /// than `self` so callers can update the LRU clock while they hold it.
    fn slot_in(
        lines: &mut [Option<Set<M>>],
        set: usize,
        line: LineAddr,
    ) -> Option<&mut Option<Way<M>>> {
        lines
            .get_mut(set)?
            .as_deref_mut()?
            .iter_mut()
            .find(|w| w.as_ref().is_some_and(|w| w.valid && w.tag == line.0))
    }

    /// Looks up a line without touching LRU state.
    pub fn peek(&self, line: LineAddr) -> Option<(&M, &LineData)> {
        self.way(line).map(|w| (&w.meta, &w.data))
    }

    /// Looks up a line and updates LRU on hit.
    pub fn get(&mut self, line: LineAddr) -> Option<(&M, &LineData)> {
        self.get_mut(line).map(|(m, d)| (&*m, &*d))
    }

    /// Advances the LRU clock by `n` uses without stamping any line: the
    /// arithmetic half of replaying `n` hits whose stamps the caller
    /// rewrites by repeating the last of them.
    pub fn advance_lru_clock(&mut self, n: u64) {
        self.tick += n;
    }

    /// Mutable lookup, updating LRU on hit.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<(&mut M, &mut LineData)> {
        let set = self.set_index(line);
        let w = Self::slot_in(&mut self.lines, set, line)?.as_mut()?;
        self.tick += 1;
        w.lru = self.tick;
        Some((&mut w.meta, &mut w.data))
    }

    /// Metadata-only mutable access without LRU update (for coherence
    /// downgrades that shouldn't count as uses).
    pub fn meta_mut(&mut self, line: LineAddr) -> Option<&mut M> {
        let set = self.set_index(line);
        let w = Self::slot_in(&mut self.lines, set, line)?.as_mut()?;
        Some(&mut w.meta)
    }

    /// Whether inserting `line` would require evicting a valid line, and if
    /// so which one (the LRU victim of the set). Returns `None` when the
    /// line is already present or a free way exists.
    pub fn victim_for(&self, line: LineAddr) -> Option<LineAddr> {
        let set = self.set_of(line);
        if self.way(line).is_some() || set.iter().any(|w| w.as_ref().is_none_or(|w| !w.valid)) {
            return None;
        }
        // An unallocated set has no ways to pick from: every way is free.
        set.iter()
            .flatten()
            .min_by_key(|w| w.lru)
            .map(|w| LineAddr(w.tag))
    }

    /// Inserts (or overwrites) a line. The caller must have handled the
    /// victim first (see [`victim_for`](CacheArray::victim_for)); if the set
    /// is still full, the LRU line is silently dropped.
    pub fn insert(&mut self, line: LineAddr, data: LineData, meta: M) {
        self.tick += 1;
        let tick = self.tick;
        let (s, ways) = (self.set_index(line), self.ways);
        if let Some(w) = Self::slot_in(&mut self.lines, s, line).and_then(Option::as_mut) {
            w.data = data;
            w.meta = meta;
            w.lru = tick;
            return;
        }
        if self.lines.is_empty() {
            self.lines.resize_with(self.sets, || None);
        }
        let set = self.lines[s].get_or_insert_with(|| (0..ways).map(|_| None).collect());
        let slot = match set.iter().position(|w| w.as_ref().is_none_or(|w| !w.valid)) {
            Some(free) => free,
            // Every way holds a line: replace the least recently used.
            None => (0..ways)
                .min_by_key(|&i| set[i].as_ref().map(|w| w.lru))
                .expect("a set has at least one way"),
        };
        set[slot] = Some(Way {
            tag: line.0,
            valid: true,
            lru: tick,
            meta,
            data,
        });
    }

    /// Removes a line, returning its metadata and data if present.
    pub fn remove(&mut self, line: LineAddr) -> Option<(M, LineData)> {
        let set = self.set_index(line);
        let w = Self::slot_in(&mut self.lines, set, line)?.take()?;
        Some((w.meta, w.data))
    }

    /// Invalidates every line, returning those that were present.
    pub fn drain(&mut self) -> Vec<(LineAddr, M, LineData)> {
        let mut out = Vec::new();
        for slot in self.lines.iter_mut().flatten().flat_map(|s| s.iter_mut()) {
            if let Some(w) = slot.take() {
                if w.valid {
                    out.push((LineAddr(w.tag), w.meta, w.data));
                }
            }
        }
        out
    }

    /// Iterates over all valid lines (no LRU update), set by set.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &M, &LineData)> {
        self.lines
            .iter()
            .flatten()
            .flat_map(|s| s.iter())
            .flatten()
            .filter(|w| w.valid)
            .map(|w| (LineAddr(w.tag), &w.meta, &w.data))
    }

    /// Number of valid lines.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether the array holds no valid lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

duet_sim::pack_struct!(Way<M> { tag, valid, lru, meta, data });

/// Hand-written because the wire form is not the in-memory form: sets are
/// allocated on first insert, but the snapshot is the flat `sets * ways`
/// list of `Option<Way>` an eagerly allocated array would hold (an
/// unallocated set writes `ways` empty slots), or the empty list for an
/// array never inserted into. Restore leaves sets with no line
/// unallocated. `sets` and `ways` are construction-time geometry.
impl<M: Pack> Snap for CacheArray<M> {
    fn save(&self, w: &mut SnapWriter) {
        self.tick.pack(w);
        if self.lines.is_empty() {
            w.len64(0);
            return;
        }
        w.len64(self.sets * self.ways);
        for set in &self.lines {
            match set {
                Some(ways) => ways.iter().for_each(|way| way.pack(w)),
                None => (0..self.ways).for_each(|_| None::<Way<M>>.pack(w)),
            }
        }
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.tick = u64::unpack(r)?;
        let n = r.len64()?;
        self.lines.clear();
        if n == 0 {
            return Ok(());
        }
        ensure(n == self.sets * self.ways, "cache array geometry mismatch")?;
        for _ in 0..self.sets {
            let ways = (0..self.ways)
                .map(|_| Option::<Way<M>>::unpack(r))
                .collect::<Result<Box<[_]>, _>>()?;
            self.lines
                .push(ways.iter().any(Option::is_some).then_some(ways));
        }
        Ok(())
    }
}

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

    fn saved<M: Pack>(a: &CacheArray<M>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        a.save(&mut w);
        w.finish()
    }

    #[test]
    fn untouched_array_writes_an_empty_list() {
        let a: CacheArray<u8> = CacheArray::new(1024, 4);
        let mut want = 0u64.to_le_bytes().to_vec(); // LRU clock
        want.extend(0u64.to_le_bytes()); // no slots
        assert_eq!(saved(&a), want);
    }

    #[test]
    fn touched_array_writes_the_flat_slot_list() {
        // 2 sets x 2 ways; line 3 lands in way 0 of set 1. Sets never
        // touched still write their empty slots.
        let mut a: CacheArray<u8> = CacheArray::new(2, 2);
        a.insert(line(3), data(7), 5);
        let mut want = 1u64.to_le_bytes().to_vec(); // LRU clock
        want.extend(4u64.to_le_bytes()); // sets * ways slots
        want.extend([0, 0]); // set 0: both ways empty
        want.push(1); // set 1, way 0: Some(Way { .. })
        want.extend(3u64.to_le_bytes()); // tag
        want.push(1); // valid
        want.extend(1u64.to_le_bytes()); // lru
        want.push(5); // meta
        want.extend([7; LINE_BYTES]); // data
        want.push(0); // set 1, way 1: empty
        assert_eq!(saved(&a), want);
    }

    #[test]
    fn emptied_array_still_writes_every_slot() {
        let mut a: CacheArray<u8> = CacheArray::new(4, 2);
        a.insert(line(1), data(1), 1);
        a.remove(line(1));
        let mut want = 1u64.to_le_bytes().to_vec();
        want.extend(8u64.to_le_bytes());
        want.extend([0; 8]);
        assert_eq!(saved(&a), want);
    }

    #[test]
    fn restore_then_save_round_trips() {
        let mut a: CacheArray<u8> = CacheArray::new(8, 2);
        for i in [1, 9, 17, 4] {
            a.insert(line(i), data(i as u8), i as u8);
        }
        a.get(line(9));
        a.remove(line(4));
        let bytes = saved(&a);
        let mut b: CacheArray<u8> = CacheArray::new(8, 2);
        b.load(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(saved(&b), bytes);
        assert_eq!(b.victim_for(line(25)), a.victim_for(line(25)));
        assert_eq!(b.peek(line(17)).map(|(m, _)| *m), Some(17));
        // An untouched array restores untouched.
        let empty = saved(&CacheArray::<u8>::new(8, 2));
        b.load(&mut SnapReader::new(&empty)).unwrap();
        assert_eq!(saved(&b), empty);
        // A snapshot of another geometry is refused.
        let mut c: CacheArray<u8> = CacheArray::new(4, 2);
        assert!(c.load(&mut SnapReader::new(&bytes)).is_err());
    }

    #[test]
    fn clone_is_independent_of_its_source() {
        let mut a: CacheArray<u8> = CacheArray::new(4, 2);
        a.insert(line(1), data(1), 1);
        let mut b = a.clone();
        b.insert(line(2), data(2), 2);
        *b.meta_mut(line(1)).unwrap() = 9;
        a.remove(line(1));
        assert!(a.is_empty());
        assert_eq!(b.len(), 2);
        assert_eq!(b.peek(line(1)).map(|(m, _)| *m), Some(9));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_panics() {
        let _: CacheArray<()> = CacheArray::new(3, 1);
    }
}
