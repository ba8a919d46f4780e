//! Deterministic hot-path storage: [`LineMap`], [`PagedMem`] (and its
//! per-home-shard view [`ShardMem`]), [`IdSlab`].
//!
//! The memory system keeps per-line state (directory entries, MSHRs, page
//! tables) and a sparse word-addressed backing store. Both used to live in
//! `BTreeMap`s, which pay O(log n) pointer-chasing on every simulated
//! memory access. These replacements are O(1) on the hot path while
//! keeping the engine's two determinism obligations:
//!
//! * **Fixed hashing.** [`LineMap`] hashes with a constant SplitMix64-style
//!   mixer — no per-process random seed, no platform dependence — so the
//!   *internal* layout is identical on every run and every host. (`std`'s
//!   `HashMap` randomizes its seed per process, which would make any
//!   accidental iteration-order dependence nondeterministic; here even a
//!   bug of that kind would at least be reproducible.)
//! * **Sorted observable iteration.** Anything that *iterates* a
//!   [`LineMap`] — quiescence checks, warm-up sweeps, debug dumps — sees
//!   keys in ascending order ([`LineMap::sorted_keys`]), exactly the order
//!   the old `BTreeMap` gave, so run fingerprints are bit-identical to the
//!   pre-refactor values. Iteration is O(n log n) but only runs on cold
//!   paths; per-access `get`/`insert`/`remove` never iterate.

/// One slot of the open-addressing table.
#[derive(Clone, Debug)]
enum Slot<V> {
    /// Never occupied: terminates probe chains.
    Empty,
    /// Previously occupied: probe chains continue through it, inserts may
    /// reuse it.
    Tombstone,
    /// A live (key, value) pair.
    Occupied(u64, V),
}

/// An open-addressing hash map from `u64` keys (cache-line indices, VPNs,
/// transaction ids) to `V`, with a fixed platform-independent hasher,
/// power-of-two capacity, and linear probing.
///
/// Designed for the simulator's hot paths: `get`/`get_mut`/`insert`/
/// `remove` are O(1) expected with no allocation (until growth), and the
/// table never shrinks. Observable iteration is in ascending key order —
/// see the module docs for why.
#[derive(Clone, Debug)]
pub struct LineMap<V> {
    slots: Vec<Slot<V>>,
    /// Live entries.
    len: usize,
    /// Tombstones (counted separately: they consume probe distance but not
    /// capacity).
    graves: usize,
}

/// Initial capacity of the first-touched table (slots).
const INITIAL_CAP: usize = 16;

/// Fixed 64-bit mixer (SplitMix64 finalizer): full-avalanche, constant
/// across platforms and runs.
#[inline]
fn mix(key: u64) -> u64 {
    crate::rng::splitmix64_finalize(key.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

impl<V> Default for LineMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> LineMap<V> {
    /// An empty map. Allocates nothing until the first insert.
    pub fn new() -> Self {
        LineMap {
            slots: Vec::new(),
            len: 0,
            graves: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot index of `key` if present.
    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (mix(key) as usize) & mask;
        loop {
            match &self.slots[i] {
                Slot::Empty => return None,
                Slot::Occupied(k, _) if *k == key => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Shared access to the value for `key`.
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).map(|i| match &self.slots[i] {
            Slot::Occupied(_, v) => v,
            _ => unreachable!(),
        })
    }

    /// Mutable access to the value for `key`.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        match self.find(key) {
            Some(i) => match &mut self.slots[i] {
                Slot::Occupied(_, v) => Some(v),
                _ => unreachable!(),
            },
            None => None,
        }
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `value` under `key`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        self.reserve_one();
        let mask = self.slots.len() - 1;
        let mut i = (mix(key) as usize) & mask;
        // First free slot seen on the probe path (a tombstone may precede
        // the key itself, so keep probing to the chain's end).
        let mut free: Option<usize> = None;
        loop {
            match &mut self.slots[i] {
                Slot::Occupied(k, v) if *k == key => {
                    return Some(std::mem::replace(v, value));
                }
                Slot::Tombstone => {
                    free.get_or_insert(i);
                    i = (i + 1) & mask;
                }
                Slot::Empty => {
                    let dst = free.unwrap_or(i);
                    if matches!(self.slots[dst], Slot::Tombstone) {
                        self.graves -= 1;
                    }
                    self.slots[dst] = Slot::Occupied(key, value);
                    self.len += 1;
                    return None;
                }
                Slot::Occupied(..) => i = (i + 1) & mask,
            }
        }
    }

    /// Removes `key`, returning its value if it was present. Leaves a
    /// tombstone so longer probe chains stay intact.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.find(key)?;
        match std::mem::replace(&mut self.slots[i], Slot::Tombstone) {
            Slot::Occupied(_, v) => {
                self.len -= 1;
                self.graves += 1;
                Some(v)
            }
            _ => unreachable!(),
        }
    }

    /// Mutable access to the value for `key`, inserting `V::default()`
    /// first if absent (the `entry(..).or_default()` idiom).
    pub fn get_or_default(&mut self, key: u64) -> &mut V
    where
        V: Default,
    {
        if !self.contains_key(key) {
            self.insert(key, V::default());
        }
        self.get_mut(key).expect("just inserted")
    }

    /// Ensures room for one more entry, growing/rehashing when live +
    /// tombstone occupancy reaches 7/8 of capacity.
    fn reserve_one(&mut self) {
        if self.slots.is_empty() {
            self.slots = (0..INITIAL_CAP).map(|_| Slot::Empty).collect();
            return;
        }
        if (self.len + self.graves + 1) * 8 <= self.slots.len() * 7 {
            return;
        }
        // Grow if genuinely full; rehash in place (same capacity) if the
        // pressure is mostly tombstones.
        let cap = if (self.len + 1) * 2 > self.slots.len() {
            self.slots.len() * 2
        } else {
            self.slots.len()
        };
        let old = std::mem::replace(&mut self.slots, (0..cap).map(|_| Slot::Empty).collect());
        self.graves = 0;
        let mask = cap - 1;
        for slot in old {
            if let Slot::Occupied(k, v) = slot {
                let mut i = (mix(k) as usize) & mask;
                while !matches!(self.slots[i], Slot::Empty) {
                    i = (i + 1) & mask;
                }
                self.slots[i] = Slot::Occupied(k, v);
            }
        }
    }

    /// All live keys in ascending order. This is the *only* way the map
    /// exposes its contents in bulk: observable iteration must not depend
    /// on table layout (see module docs).
    pub fn sorted_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .slots
            .iter()
            .filter_map(|s| match s {
                Slot::Occupied(k, _) => Some(*k),
                _ => None,
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Iterates `(key, &value)` in ascending key order (cold paths only:
    /// allocates and sorts the key set).
    pub fn sorted_iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.sorted_keys()
            .into_iter()
            .map(move |k| (k, self.get(k).expect("key just listed")))
    }

    /// Tests `pred` on every live value, in no particular order (safe for
    /// observable use only when the result is order-independent, as a
    /// boolean fold is).
    pub fn all_values(&self, mut pred: impl FnMut(&V) -> bool) -> bool {
        self.slots.iter().all(|s| match s {
            Slot::Occupied(_, v) => pred(v),
            _ => true,
        })
    }
}

/// A slab allocator for small dense id spaces: `insert` returns the id
/// (a reused freed slot if one exists — LIFO — else the next fresh index),
/// `remove` frees it.
///
/// Replaces map-keyed id tracking (e.g. in-flight MMIO transaction ids)
/// with a `Vec` index: O(1) with no hashing, and ids stay small and dense
/// as long as the in-flight population does. Id allocation order is a pure
/// function of the insert/remove sequence, so it is deterministic wherever
/// the simulation is.
#[derive(Clone, Debug, Default)]
pub struct IdSlab<V> {
    slots: Vec<Option<V>>,
    /// Freed slot indices, reused LIFO.
    free: Vec<u32>,
}

impl<V> IdSlab<V> {
    /// An empty slab.
    pub fn new() -> Self {
        IdSlab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True if the slab holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stores `value`, returning its id.
    pub fn insert(&mut self, value: V) -> u64 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(value);
                u64::from(i)
            }
            None => {
                self.slots.push(Some(value));
                (self.slots.len() - 1) as u64
            }
        }
    }

    /// Removes and returns the entry for `id`, if live.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        let i = usize::try_from(id).ok()?;
        let v = self.slots.get_mut(i)?.take()?;
        self.free.push(i as u32);
        Some(v)
    }

    /// Shared access to the entry for `id`.
    pub fn get(&self, id: u64) -> Option<&V> {
        self.slots.get(usize::try_from(id).ok()?)?.as_ref()
    }
}

/// Entries per page: 4096 keys map to one allocation, so a line-indexed
/// store covers 64 KB of simulated memory per page (16-byte lines).
const PAGE_ENTRIES: usize = 4096;
/// Pages directly indexable through the dense table (`1 << 16` pages =
/// 2^28 keys; beyond that the overflow map takes over).
const DIRECT_PAGES: usize = 1 << 16;

/// A sparse, lazily-allocated array of `V` indexed by `u64`, built from
/// fixed-size **copy-on-write** pages — the backing-store analogue of
/// `CacheArray`'s lazy `ensure_backing`.
///
/// Reads of never-written keys return `V::default()` *without allocating*;
/// the first write to a page allocates it (zero-filled). Keys below
/// 2^28 (the common case: line indices of the first 4 GB of simulated
/// memory) go through a dense `Vec<Option<Arc<[V]>>>` — one bounds check
/// and two loads — while higher keys fall back to a [`LineMap`] of pages.
///
/// Pages are reference-counted: `Clone` shares every page (O(pages)
/// pointer copies, no data copies), and a write to a shared page copies
/// just that page first. This is what makes `System::fork()` O(dirty
/// pages) — a forked sweep point pays only for the lines it actually
/// touches. [`PagedMem::owned_pages`] counts privately-held pages so
/// tests can assert exactly that.
#[derive(Clone, Debug, Default)]
pub struct PagedMem<V: Copy + Default> {
    direct: Vec<Option<std::sync::Arc<[V]>>>,
    high: LineMap<std::sync::Arc<[V]>>,
}

impl<V: Copy + Default> PagedMem<V> {
    /// An empty store. Allocates nothing until the first write.
    pub fn new() -> Self {
        PagedMem {
            direct: Vec::new(),
            high: LineMap::new(),
        }
    }

    /// The value at `key` (`V::default()` if never written). Never
    /// allocates.
    pub fn read(&self, key: u64) -> V {
        let (page, off) = (key as usize / PAGE_ENTRIES, key as usize % PAGE_ENTRIES);
        let page = if (key / PAGE_ENTRIES as u64) < DIRECT_PAGES as u64 {
            self.direct.get(page).and_then(|p| p.as_deref())
        } else {
            self.high.get(key / PAGE_ENTRIES as u64).map(|p| &**p)
        };
        page.map(|p| p[off]).unwrap_or_default()
    }

    /// Writes `value` at `key`, allocating the page on first touch and
    /// privatizing it first if it is shared with a fork.
    pub fn write(&mut self, key: u64, value: V) {
        let page_no = key / PAGE_ENTRIES as u64;
        let off = key as usize % PAGE_ENTRIES;
        let slot = if page_no < DIRECT_PAGES as u64 {
            let idx = page_no as usize;
            if self.direct.len() <= idx {
                self.direct.resize_with(idx + 1, || None);
            }
            self.direct[idx].get_or_insert_with(Self::blank_page)
        } else {
            if self.high.get(page_no).is_none() {
                self.high.insert(page_no, Self::blank_page());
            }
            self.high.get_mut(page_no).expect("just inserted")
        };
        Self::page_mut(slot)[off] = value;
    }

    /// Unique access to a page's entries, copying the page first if a
    /// fork still shares it.
    fn page_mut(slot: &mut std::sync::Arc<[V]>) -> &mut [V] {
        if std::sync::Arc::get_mut(slot).is_none() {
            *slot = std::sync::Arc::from(&slot[..]);
        }
        std::sync::Arc::get_mut(slot).expect("page is unique after copy-out")
    }

    /// Number of pages currently allocated (tests/diagnostics).
    pub fn allocated_pages(&self) -> usize {
        self.direct.iter().filter(|p| p.is_some()).count() + self.high.len()
    }

    /// Number of allocated pages this store holds *privately* (not
    /// shared with any fork). Immediately after a fork this is zero on
    /// both sides; it grows by exactly one per copy-on-write fault, so
    /// "fork is O(dirty pages)" is directly assertable.
    pub fn owned_pages(&self) -> usize {
        let direct = self
            .direct
            .iter()
            .flatten()
            .filter(|p| std::sync::Arc::strong_count(p) == 1)
            .count();
        let mut high = 0;
        for k in self.high.sorted_keys() {
            if self
                .high
                .get(k)
                .is_some_and(|p| std::sync::Arc::strong_count(p) == 1)
            {
                high += 1;
            }
        }
        direct + high
    }

    /// A page of `V::default()`, built in place: one allocation, no copy.
    fn blank_page() -> std::sync::Arc<[V]> {
        std::iter::repeat_n(V::default(), PAGE_ENTRIES).collect()
    }
}

/// One home's share of a key-interleaved store: keys `k` with
/// `k % stride == phase` (the round-robin homing of cache lines over L3
/// shards), held densely at `k / stride` in a [`PagedMem`].
///
/// Keyed by `k` itself, each home's pages would be only `1/stride` full;
/// dense keys fill them. Reads of keys homed elsewhere return
/// `V::default()`. The snapshot form is the dense `PagedMem`'s, so a
/// foreign-homed entry cannot even be written. A `stride` of 1 is a plain
/// `PagedMem`.
#[derive(Clone, Debug)]
pub struct ShardMem<V: Copy + Default> {
    dense: PagedMem<V>,
    stride: u64,
    phase: u64,
}

impl<V: Copy + Default> ShardMem<V> {
    /// The empty store of home `phase` out of `stride`. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics unless `phase < stride`.
    pub fn new(stride: u64, phase: u64) -> Self {
        assert!(phase < stride, "home {phase} out of {stride}");
        ShardMem {
            dense: PagedMem::new(),
            stride,
            phase,
        }
    }

    /// The value at `key` (`V::default()` if never written or homed
    /// elsewhere). Never allocates.
    pub fn read(&self, key: u64) -> V {
        if key % self.stride == self.phase {
            self.dense.read(key / self.stride)
        } else {
            V::default()
        }
    }

    /// Writes `value` at `key`, which must be homed here.
    pub fn write(&mut self, key: u64, value: V) {
        debug_assert_eq!(
            key % self.stride,
            self.phase,
            "key {key} is homed elsewhere"
        );
        self.dense.write(key / self.stride, value);
    }

    /// Pages of dense storage allocated (see [`PagedMem::allocated_pages`]).
    pub fn allocated_pages(&self) -> usize {
        self.dense.allocated_pages()
    }

    /// Pages of dense storage held privately (see
    /// [`PagedMem::owned_pages`]).
    pub fn owned_pages(&self) -> usize {
        self.dense.owned_pages()
    }
}

/// Hand-written: a delegation to the dense store. `stride` and `phase` are
/// construction-time wiring, pinned by the config hash in the header.
impl<V: crate::snapshot::Pack + Copy + Default> crate::snapshot::Snap for ShardMem<V> {
    fn save(&self, w: &mut crate::snapshot::SnapWriter) {
        self.dense.save(w);
    }
    fn load(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        self.dense.load(r)
    }
}

/// Hand-written: the probe table is not the wire format — entries are
/// written in sorted key order and the table rebuilt by insertion.
impl<V: crate::snapshot::Pack> crate::snapshot::Pack for LineMap<V> {
    /// Serialized as `len` followed by `(key, value)` pairs in ascending
    /// key order — the map's only observable order. Unpacking rebuilds by
    /// insertion, so the internal probe layout (growth history, tombstones)
    /// is *not* preserved; nothing observable depends on it.
    fn pack(&self, w: &mut crate::snapshot::SnapWriter) {
        w.len64(self.len);
        for (k, v) in self.sorted_iter() {
            w.u64(k);
            v.pack(w);
        }
    }
    fn unpack(r: &mut crate::snapshot::SnapReader<'_>) -> Result<Self, crate::snapshot::SnapError> {
        let n = r.len64()?;
        let mut m = LineMap::new();
        for _ in 0..n {
            let k = r.u64()?;
            let v = V::unpack(r)?;
            if m.insert(k, v).is_some() {
                return Err(crate::snapshot::SnapError::Corrupt("duplicate LineMap key"));
            }
        }
        Ok(m)
    }
}

// Slots and free list are serialized verbatim: freed ids are reused LIFO,
// so the free list's exact order is observable through future `insert`
// calls.
crate::pack_struct!(IdSlab<V> { slots, free } check |s| crate::snapshot::ensure(
    s.free.iter().all(|&i| matches!(s.slots.get(i as usize), Some(None))),
    "IdSlab free list names a live or out-of-range slot"
));

/// Hand-written: only allocated pages are written, keyed by page number,
/// and restore rebuilds fresh uniquely-owned pages.
impl<V: crate::snapshot::Pack + Copy + Default> crate::snapshot::Snap for PagedMem<V> {
    /// Serialized as the allocated page set in ascending page-number order
    /// (direct pages first, then overflow pages — overflow keys are all
    /// larger, so the concatenation is globally sorted), each page as its
    /// full `PAGE_ENTRIES` payload. Restore materializes fresh uniquely-
    /// owned pages; COW sharing with any pre-snapshot fork is not (and must
    /// not be) preserved.
    fn save(&self, w: &mut crate::snapshot::SnapWriter) {
        w.len64(self.allocated_pages());
        for (idx, page) in self.direct.iter().enumerate() {
            if let Some(page) = page {
                w.u64(idx as u64);
                for v in page.iter() {
                    v.pack(w);
                }
            }
        }
        for k in self.high.sorted_keys() {
            w.u64(k);
            for v in self.high.get(k).expect("key just listed").iter() {
                v.pack(w);
            }
        }
    }
    fn load(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        let n = r.len64()?;
        let mut fresh = PagedMem::new();
        for _ in 0..n {
            let page_no = r.u64()?;
            let mut page = Self::blank_page();
            for v in Self::page_mut(&mut page) {
                *v = V::unpack(r)?;
            }
            if page_no < DIRECT_PAGES as u64 {
                let idx = page_no as usize;
                if fresh.direct.len() <= idx {
                    fresh.direct.resize_with(idx + 1, || None);
                }
                if fresh.direct[idx].replace(page).is_some() {
                    return Err(crate::snapshot::SnapError::Corrupt(
                        "duplicate PagedMem page",
                    ));
                }
            } else if fresh.high.insert(page_no, page).is_some() {
                return Err(crate::snapshot::SnapError::Corrupt(
                    "duplicate PagedMem page",
                ));
            }
        }
        *self = fresh;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linemap_basic_insert_get_remove() {
        let mut m: LineMap<u32> = LineMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(10, 1), None);
        assert_eq!(m.insert(20, 2), None);
        assert_eq!(m.insert(10, 3), Some(1));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(10), Some(&3));
        assert_eq!(m.get(20), Some(&2));
        assert_eq!(m.get(30), None);
        *m.get_mut(20).unwrap() += 5;
        assert_eq!(m.remove(20), Some(7));
        assert_eq!(m.remove(20), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn linemap_collision_chains_survive_middle_removal() {
        // Force every key into the same bucket by picking keys whose mixed
        // hash collides modulo the (fixed, known) initial capacity. Rather
        // than reverse the mixer, brute-force keys with equal low bits.
        let mut keys = Vec::new();
        let want = (mix(0) as usize) & (INITIAL_CAP - 1);
        let mut k = 0u64;
        while keys.len() < 5 {
            if (mix(k) as usize) & (INITIAL_CAP - 1) == want {
                keys.push(k);
            }
            k += 1;
        }
        let mut m: LineMap<u64> = LineMap::new();
        for &k in &keys {
            m.insert(k, k * 100);
        }
        // Remove from the middle of the probe chain, then confirm entries
        // past the tombstone are still reachable.
        m.remove(keys[1]);
        m.remove(keys[2]);
        for (i, &k) in keys.iter().enumerate() {
            let expect = if i == 1 || i == 2 {
                None
            } else {
                Some(k * 100)
            };
            assert_eq!(m.get(k).copied(), expect, "key {k}");
        }
        // Reinsert one: must land in a tombstone slot, not duplicate.
        m.insert(keys[2], 777);
        assert_eq!(m.get(keys[2]), Some(&777));
        assert_eq!(m.len(), keys.len() - 1);
    }

    #[test]
    fn linemap_growth_rehash_keeps_all_entries() {
        let mut m: LineMap<u64> = LineMap::new();
        for k in 0..10_000u64 {
            m.insert(k * 13, k);
        }
        assert_eq!(m.len(), 10_000);
        assert!(m.slots.len().is_power_of_two());
        for k in 0..10_000u64 {
            assert_eq!(m.get(k * 13), Some(&k));
        }
        assert_eq!(m.get(1), None);
    }

    #[test]
    fn linemap_tombstone_reuse_bounds_table_size() {
        // Churn: repeated insert/remove of a sliding window must not grow
        // the table without bound — rehash-in-place reclaims tombstones.
        let mut m: LineMap<u64> = LineMap::new();
        for k in 0..100_000u64 {
            m.insert(k, k);
            if k >= 16 {
                m.remove(k - 16);
            }
        }
        assert_eq!(m.len(), 16);
        assert!(
            m.slots.len() <= 1024,
            "table ballooned to {} slots for 16 live entries",
            m.slots.len()
        );
    }

    #[test]
    fn linemap_sorted_iteration_ignores_insertion_order() {
        let mut m: LineMap<u64> = LineMap::new();
        for &k in &[5u64, 1 << 40, 2, 999, 3, 77] {
            m.insert(k, k + 1);
        }
        assert_eq!(m.sorted_keys(), vec![2, 3, 5, 77, 999, 1 << 40]);
        let pairs: Vec<(u64, u64)> = m.sorted_iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(
            pairs,
            vec![
                (2, 3),
                (3, 4),
                (5, 6),
                (77, 78),
                (999, 1000),
                (1 << 40, (1 << 40) + 1)
            ]
        );
    }

    #[test]
    fn linemap_get_or_default_inserts_once() {
        let mut m: LineMap<Vec<u32>> = LineMap::new();
        m.get_or_default(9).push(1);
        m.get_or_default(9).push(2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(9), Some(&vec![1, 2]));
    }

    #[test]
    fn linemap_all_values_folds_every_entry() {
        let mut m: LineMap<u64> = LineMap::new();
        for k in 0..50 {
            m.insert(k, k % 7);
        }
        assert!(m.all_values(|v| *v < 7));
        assert!(!m.all_values(|v| *v < 6));
        assert!(LineMap::<u64>::new().all_values(|_| false));
    }

    #[test]
    fn idslab_reuses_freed_ids_lifo() {
        let mut s: IdSlab<&str> = IdSlab::new();
        assert_eq!(s.insert("a"), 0);
        assert_eq!(s.insert("b"), 1);
        assert_eq!(s.insert("c"), 2);
        assert_eq!(s.remove(1), Some("b"));
        assert_eq!(s.remove(1), None, "double-free is a no-op");
        assert_eq!(s.remove(0), Some("a"));
        // LIFO: last freed (0) comes back first.
        assert_eq!(s.insert("d"), 0);
        assert_eq!(s.insert("e"), 1);
        assert_eq!(s.insert("f"), 3);
        assert_eq!(s.len(), 4);
        assert_eq!(s.get(2), Some(&"c"));
        assert_eq!(s.get(99), None);
    }

    #[test]
    fn pagedmem_reads_default_without_allocating() {
        let p: PagedMem<u64> = PagedMem::new();
        assert_eq!(p.read(0), 0);
        assert_eq!(p.read(123_456_789), 0);
        assert_eq!(p.read(u64::MAX), 0);
        assert_eq!(p.allocated_pages(), 0);
    }

    #[test]
    fn pagedmem_lazy_allocation_counts_pages() {
        let mut p: PagedMem<u64> = PagedMem::new();
        p.write(0, 1); // page 0
        p.write(1, 2); // page 0 again
        p.write(PAGE_ENTRIES as u64, 3); // page 1
        p.write(10 * PAGE_ENTRIES as u64, 4); // page 10
        assert_eq!(p.allocated_pages(), 3);
        assert_eq!(p.read(0), 1);
        assert_eq!(p.read(1), 2);
        assert_eq!(p.read(PAGE_ENTRIES as u64), 3);
        assert_eq!(p.read(10 * PAGE_ENTRIES as u64), 4);
        // Untouched key on an allocated page reads default.
        assert_eq!(p.read(2), 0);
    }

    #[test]
    fn pagedmem_page_boundary_keys_stay_separate() {
        let mut p: PagedMem<u32> = PagedMem::new();
        let b = PAGE_ENTRIES as u64;
        p.write(b - 1, 11);
        p.write(b, 22);
        assert_eq!(p.read(b - 1), 11);
        assert_eq!(p.read(b), 22);
        assert_eq!(p.allocated_pages(), 2);
    }

    #[test]
    fn pagedmem_high_keys_use_overflow_map() {
        let mut p: PagedMem<u16> = PagedMem::new();
        let high = (DIRECT_PAGES as u64) * (PAGE_ENTRIES as u64) + 5;
        p.write(high, 42);
        assert_eq!(p.read(high), 42);
        assert_eq!(p.read(high + 1), 0);
        assert_eq!(p.allocated_pages(), 1);
        // The dense table must not have been resized to cover it.
        assert!(p.direct.is_empty());
    }

    #[test]
    fn pagedmem_clone_shares_pages_until_written() {
        let mut a: PagedMem<u64> = PagedMem::new();
        for page in 0..8u64 {
            a.write(page * PAGE_ENTRIES as u64, page + 1);
        }
        let high = (DIRECT_PAGES as u64) * (PAGE_ENTRIES as u64);
        a.write(high, 99);
        assert_eq!(a.allocated_pages(), 9);
        assert_eq!(a.owned_pages(), 9);

        let mut b = a.clone();
        // COW fork: every page is now shared, neither side owns any.
        assert_eq!(a.owned_pages(), 0);
        assert_eq!(b.owned_pages(), 0);
        // Reads don't privatize.
        assert_eq!(b.read(3 * PAGE_ENTRIES as u64), 4);
        assert_eq!(b.read(high), 99);
        assert_eq!(b.owned_pages(), 0);

        // A write privatizes exactly the touched page, on the writer only.
        b.write(3 * PAGE_ENTRIES as u64 + 1, 77);
        assert_eq!(b.owned_pages(), 1);
        assert_eq!(
            a.owned_pages(),
            1,
            "parent's copy of page 3 is private now too"
        );
        // Isolation both ways.
        assert_eq!(b.read(3 * PAGE_ENTRIES as u64 + 1), 77);
        assert_eq!(a.read(3 * PAGE_ENTRIES as u64 + 1), 0);
        a.write(high + 2, 5);
        assert_eq!(b.read(high + 2), 0);

        // Dropping the fork returns the parent to full ownership.
        drop(b);
        assert_eq!(a.owned_pages(), 9);
    }

    #[test]
    fn linemap_pack_roundtrip_preserves_contents() {
        use crate::snapshot::{Pack, SnapReader, SnapWriter};
        let mut m: LineMap<u64> = LineMap::new();
        for k in 0..500u64 {
            m.insert(k * 7, k);
        }
        for k in 0..250u64 {
            m.remove(k * 14);
        }
        let mut w = SnapWriter::new();
        m.pack(&mut w);
        let buf = w.finish();
        let mut r = SnapReader::new(&buf);
        let back = LineMap::<u64>::unpack(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.len(), m.len());
        assert_eq!(back.sorted_keys(), m.sorted_keys());
        for k in m.sorted_keys() {
            assert_eq!(back.get(k), m.get(k));
        }
    }

    #[test]
    fn idslab_pack_roundtrip_preserves_allocation_order() {
        use crate::snapshot::{Pack, SnapReader, SnapWriter};
        let mut s: IdSlab<u32> = IdSlab::new();
        for v in 0..6u32 {
            s.insert(v);
        }
        s.remove(4);
        s.remove(1);
        let mut w = SnapWriter::new();
        s.pack(&mut w);
        let buf = w.finish();
        let mut r = SnapReader::new(&buf);
        let mut back = IdSlab::<u32>::unpack(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.len(), s.len());
        // LIFO reuse order must survive: 1 was freed last, comes back first.
        assert_eq!(back.insert(100), 1);
        assert_eq!(back.insert(101), 4);
        assert_eq!(back.insert(102), 6);
    }

    #[test]
    fn idslab_unpack_rejects_corrupt_free_list() {
        use crate::snapshot::{Pack, SnapError, SnapReader, SnapWriter};
        let mut w = SnapWriter::new();
        vec![Some(1u32), Some(2)].pack(&mut w);
        vec![0u32].pack(&mut w); // slot 0 is live, can't be free
        let buf = w.finish();
        let mut r = SnapReader::new(&buf);
        assert!(matches!(
            IdSlab::<u32>::unpack(&mut r),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn pagedmem_snap_roundtrip_and_reset() {
        use crate::snapshot::{Snap, SnapReader, SnapWriter};
        let mut p: PagedMem<u64> = PagedMem::new();
        p.write(5, 50);
        p.write(3 * PAGE_ENTRIES as u64 + 9, 39);
        let high = (DIRECT_PAGES as u64) * (PAGE_ENTRIES as u64) + 7;
        p.write(high, 7);
        let mut w = SnapWriter::new();
        p.save(&mut w);
        let buf = w.finish();

        // Load into a store with unrelated prior contents: must fully reset.
        let mut q: PagedMem<u64> = PagedMem::new();
        q.write(1, 111);
        q.write(40 * PAGE_ENTRIES as u64, 4);
        let mut r = SnapReader::new(&buf);
        q.load(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(q.allocated_pages(), 3);
        assert_eq!(q.read(5), 50);
        assert_eq!(q.read(3 * PAGE_ENTRIES as u64 + 9), 39);
        assert_eq!(q.read(high), 7);
        assert_eq!(q.read(1), 0, "stale page must be gone");
        assert_eq!(q.read(40 * PAGE_ENTRIES as u64), 0);
        // Restored pages are uniquely owned regardless of prior sharing.
        assert_eq!(q.owned_pages(), 3);
    }

    #[test]
    fn shardmem_snapshot_roundtrips_in_dense_form() {
        use crate::snapshot::{Snap, SnapReader, SnapWriter};
        fn bytes(s: &impl Snap) -> Vec<u8> {
            let mut w = SnapWriter::new();
            s.save(&mut w);
            w.finish()
        }
        let mut rng = crate::SimRng::new(0xD15E);
        for stride in [1u64, 16] {
            let phase = rng.next_u64() % stride;
            let mut global: PagedMem<[u8; 16]> = PagedMem::new();
            let mut dense = ShardMem::new(stride, phase);
            let mut keys = Vec::new();
            // Every homed line of 64 pages of key space, non-zero, so the
            // globally keyed store allocates all 64 pages.
            for k in (phase..64 * PAGE_ENTRIES as u64).step_by(stride as usize) {
                let v = [(rng.next_u64() % 255 + 1) as u8; 16];
                global.write(k, v);
                dense.write(k, v);
                keys.push(k);
            }
            let saved = bytes(&dense);
            let mut back: ShardMem<[u8; 16]> = ShardMem::new(stride, phase);
            back.write(phase, [9; 16]); // prior contents must be replaced
            let mut r = SnapReader::new(&saved);
            back.load(&mut r).unwrap();
            r.expect_end().unwrap();
            for _ in 0..2_000 {
                let key = keys[(rng.next_u64() % keys.len() as u64) as usize];
                assert_eq!(back.read(key), global.read(key), "stride {stride}");
                // The key next door is homed elsewhere unless stride is 1.
                assert_eq!(back.read(key + 1), dense.read(key + 1));
            }
            assert!(
                bytes(&back) == saved,
                "stride {stride}: reload changed the bytes"
            );

            // Dense pages on the wire: 1/stride of the global form.
            let ratio = bytes(&global).len() as f64 / saved.len() as f64;
            assert!(
                (ratio - stride as f64).abs() < 0.01,
                "stride {stride}: global/dense bytes {ratio}"
            );
        }
    }
}
