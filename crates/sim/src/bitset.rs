//! [`BitSet`]: a fixed-universe worklist iterated in ascending order.
//!
//! The engine's worklists (routers with buffered flits, nodes with waiting
//! ejections, awake caches and cores) must be visited lowest id first — the
//! same order as a full `0..n` scan — so that skipping idle members is
//! bit-identical to visiting everyone. A bitset gives that order for free
//! from `trailing_zeros`, with O(1) insert/remove and no allocation after
//! construction.

/// A set over `0..universe`, stored one bit per member.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

/// Ascending iterator over the members of a word view that lie in a range
/// (see [`bits_in`]).
#[derive(Clone, Debug)]
pub struct Bits<'a> {
    words: &'a [u64],
    /// Index of the word `cur` was loaded from.
    wi: usize,
    /// Index of the last word of the range, and which of its bits count.
    last: usize,
    last_mask: u64,
    /// Unvisited members of word `wi`.
    cur: u64,
}

impl Iterator for Bits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.cur == 0 {
            if self.wi >= self.last {
                return None;
            }
            self.wi += 1;
            self.cur = self.words[self.wi];
            if self.wi == self.last {
                self.cur &= self.last_mask;
            }
        }
        let bit = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(self.wi * 64 + bit)
    }
}

impl BitSet {
    /// An empty set over `0..universe`.
    pub fn new(universe: usize) -> Self {
        BitSet {
            words: vec![0; universe.div_ceil(64)],
            len: 0,
        }
    }

    /// A set holding every member of `0..universe`.
    pub fn full(universe: usize) -> Self {
        let mut words = vec![u64::MAX; universe.div_ceil(64)];
        let tail = universe % 64;
        if tail > 0 {
            words[universe / 64] = (1u64 << tail) - 1;
        }
        BitSet {
            words,
            len: universe,
        }
    }

    /// Adds `i`; returns whether it was absent.
    ///
    /// # Panics
    ///
    /// Panics if `i` lies outside the universe.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        let added = *w & bit == 0;
        *w |= bit;
        self.len += usize::from(added);
        added
    }

    /// Removes `i`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        let (w, bit) = (&mut self.words[i / 64], 1u64 << (i % 64));
        let removed = *w & bit != 0;
        *w &= !bit;
        self.len -= usize::from(removed);
        removed
    }

    /// Whether `i` is a member.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// The lowest member, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// Members in ascending order.
    pub fn iter(&self) -> Bits<'_> {
        bits_in(&self.words, 0..self.words.len() * 64)
    }

    /// The backing words, lowest members first (bit `i % 64` of word
    /// `i / 64`). For handing a read-only view of the set to code that
    /// cannot borrow it — see [`bits_in`].
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Visits every member in ascending order and drops those for which
    /// `keep` returns false. Members added to other sets meanwhile are not
    /// this set's concern; `keep` must not need this set.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (wi, word) in self.words.iter_mut().enumerate() {
            let mut rest = *word;
            while rest != 0 {
                let bit = rest & rest.wrapping_neg();
                rest ^= bit;
                if !keep(wi * 64 + bit.trailing_zeros() as usize) {
                    *word ^= bit;
                    self.len -= 1;
                }
            }
        }
    }
}

/// Members of `range` in a word view obtained from [`BitSet::words`], in
/// ascending order.
///
/// # Panics
///
/// Panics if `range` reaches past the view.
pub fn bits_in(words: &[u64], range: std::ops::Range<usize>) -> Bits<'_> {
    if range.is_empty() {
        return Bits {
            words,
            wi: 0,
            last: 0,
            last_mask: 0,
            cur: 0,
        };
    }
    let (first, last) = (range.start / 64, (range.end - 1) / 64);
    // Bits of the last word below `range.end`; all 64 when it ends on a
    // word boundary.
    let last_mask = u64::MAX >> (63 - (range.end - 1) % 64);
    let mut cur = words[first] & (u64::MAX << (range.start % 64));
    if first == last {
        cur &= last_mask;
    }
    Bits {
        words,
        wi: first,
        last,
        last_mask,
        cur,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_and_ascending_iteration() {
        let mut s = BitSet::new(200);
        for i in [130, 3, 64, 199, 63, 3] {
            s.insert(i);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 63, 64, 130, 199]);
        assert_eq!(s.first(), Some(3));
        assert!(s.remove(3) && !s.remove(3));
        assert!(s.contains(64) && !s.contains(3));
        assert_eq!(s.first(), Some(63));
        s.clear();
        assert!(s.is_empty() && s.first().is_none());
    }

    #[test]
    fn full_covers_exactly_the_universe() {
        for n in [0, 1, 63, 64, 65, 128, 130] {
            let s = BitSet::full(n);
            assert_eq!(s.len(), n);
            assert_eq!(s.iter().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn retain_visits_ascending_and_drops() {
        let mut s = BitSet::new(150);
        for i in [1, 70, 71, 140] {
            s.insert(i);
        }
        let mut seen = Vec::new();
        s.retain(|i| {
            seen.push(i);
            i % 2 == 0
        });
        assert_eq!(seen, vec![1, 70, 71, 140]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![70, 140]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn bits_in_restricts_to_the_range() {
        let mut s = BitSet::new(256);
        for i in [0, 5, 63, 64, 100, 128, 255] {
            s.insert(i);
        }
        let got = |r| bits_in(s.words(), r).collect::<Vec<_>>();
        assert_eq!(got(0..256), vec![0, 5, 63, 64, 100, 128, 255]);
        assert_eq!(got(5..64), vec![5, 63]);
        assert_eq!(got(64..65), vec![64]);
        assert_eq!(got(101..128), Vec::<usize>::new());
        assert_eq!(got(200..256), vec![255]);
        assert_eq!(got(10..10), Vec::<usize>::new());
    }
}
