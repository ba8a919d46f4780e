//! The unified metrics namespace.
//!
//! Counters in the simulator historically lived in several disconnected
//! places: `RunStats` on the system, per-link push/pop/reject counters and
//! per-component stats structs. [`MetricsRegistry`] subsumes them into one
//! `name → value` map with deterministic (sorted) iteration, so reports
//! and regression diffs are stable across runs and edge-skip modes. A
//! system's registry describes that system alone; nothing in it is shared
//! with other systems in the process.
//!
//! A registry is one name arena (every name back to back in a `String`)
//! and one entry vector sorted by name, so filling it allocates per
//! growth step, never per metric. A full report is built with a
//! [`MetricsBuilder`]: names are appended in whatever order the producer
//! visits them and sorted once at the end, which is far cheaper than
//! keeping the vector sorted through hundreds of out-of-order inserts.

use std::fmt;

/// One metric: its name is `names[at..at + len]`.
#[derive(Clone, Copy)]
struct Entry {
    at: usize,
    len: usize,
    value: u64,
}

impl Entry {
    fn name<'a>(&self, names: &'a str) -> &'a str {
        &names[self.at..self.at + self.len]
    }

    /// The name's bytes: they order like the `str`, and slicing them
    /// skips the char-boundary checks, which the sort and searches
    /// would otherwise pay on every comparison.
    fn key<'a>(&self, names: &'a str) -> &'a [u8] {
        &names.as_bytes()[self.at..self.at + self.len]
    }
}

/// A sorted, deterministically-iterated `name → u64` metrics namespace.
///
/// Names are dot-separated paths (`run.fast_edges`,
/// `link.mesh.n3.west.req.pushes`, `dir.n0.gets`); insertion order never
/// matters because entries are kept sorted by name, each name once.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    /// Every name ever inserted, back to back. [`retain`](Self::retain)
    /// drops entries but leaves their bytes here.
    names: String,
    /// Sorted by name; names are unique.
    entries: Vec<Entry>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Index of `name`, or where it would be inserted.
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|e| e.key(&self.names).cmp(name.as_bytes()))
    }

    /// The value slot for `name`, inserted as zero if absent. A name that
    /// sorts after every present one is appended without a search.
    fn slot(&mut self, name: &str) -> &mut u64 {
        let i = match self.entries.last() {
            Some(last) if last.key(&self.names) >= name.as_bytes() => match self.find(name) {
                Ok(i) => return &mut self.entries[i].value,
                Err(i) => i,
            },
            _ => self.entries.len(),
        };
        let e = Entry {
            at: self.names.len(),
            len: name.len(),
            value: 0,
        };
        self.names.push_str(name);
        self.entries.insert(i, e);
        &mut self.entries[i].value
    }

    /// Sets `name` to `value` (overwriting).
    pub fn set(&mut self, name: impl AsRef<str>, value: u64) {
        *self.slot(name.as_ref()) = value;
    }

    /// Adds `value` to `name` (starting from zero).
    pub fn add(&mut self, name: impl AsRef<str>, value: u64) {
        *self.slot(name.as_ref()) += value;
    }

    /// Reads a metric.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.find(name).ok().map(|i| self.entries[i].value)
    }

    /// Keeps only the metrics for which `keep(name, value)` holds.
    pub fn retain(&mut self, mut keep: impl FnMut(&str, u64) -> bool) {
        let names = &self.names;
        self.entries.retain(|e| keep(e.name(names), e.value));
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(name, value)` in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|e| (e.name(&self.names), e.value))
    }

    /// All metrics under a dotted prefix (`prefix.`), sorted.
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, u64)> {
        self.iter()
            .filter(move |(k, _)| k.starts_with(prefix) && k[prefix.len()..].starts_with('.'))
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k} = {v}")?;
        }
        Ok(())
    }
}

/// Builds a [`MetricsRegistry`] from distinct names pushed in any order,
/// sorting once in [`finish`](Self::finish).
#[derive(Default)]
pub struct MetricsBuilder {
    reg: MetricsRegistry,
}

impl MetricsBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        MetricsBuilder::default()
    }

    /// Appends `name = value`. Every name pushed to one builder must be
    /// distinct; debug builds check it in [`finish`](Self::finish).
    pub fn push(&mut self, name: &str, value: u64) {
        let reg = &mut self.reg;
        reg.entries.push(Entry {
            at: reg.names.len(),
            len: name.len(),
            value,
        });
        reg.names.push_str(name);
    }

    /// Sorts the pushed metrics by name.
    pub fn finish(self) -> MetricsRegistry {
        let mut reg = self.reg;
        let names = reg.names.as_str();
        reg.entries
            .sort_unstable_by(|a, b| a.key(names).cmp(b.key(names)));
        debug_assert!(
            reg.entries
                .windows(2)
                .all(|w| w[0].key(names) < w[1].key(names)),
            "duplicate metric name pushed to one MetricsBuilder"
        );
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn iteration_is_sorted_regardless_of_insertion_order() {
        let mut r = MetricsRegistry::new();
        r.set("z.last", 1);
        r.set("a.first", 2);
        r.set("m.mid", 3);
        let keys: Vec<&str> = r.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a.first", "m.mid", "z.last"]);
    }

    #[test]
    fn add_accumulates_and_prefix_filters() {
        let mut r = MetricsRegistry::new();
        r.add("link.a.pushes", 2);
        r.add("link.a.pushes", 3);
        r.set("link.b.pops", 1);
        r.set("linkage.unrelated", 9);
        assert_eq!(r.get("link.a.pushes"), Some(5));
        let under: Vec<&str> = r.with_prefix("link").map(|(k, _)| k).collect();
        assert_eq!(under, vec!["link.a.pushes", "link.b.pops"]);
    }

    #[test]
    fn display_renders_one_line_per_metric() {
        let mut r = MetricsRegistry::new();
        r.set("run.fast_edges", 10);
        assert_eq!(r.to_string(), "run.fast_edges = 10\n");
    }

    /// xorshift64: a dependency-free seeded stream for the model tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Names that collide often and arrive out of order: prefixes of each
    /// other (`a` < `a.b` < `a.b.c`), numeric suffixes that sort as text
    /// (`n10` < `n2`), and the empty name.
    fn name(rng: &mut Rng) -> String {
        const PARTS: [&str; 6] = ["a", "b", "link", "n2", "n10", "z"];
        let depth = rng.below(4);
        let parts: Vec<&str> = (0..depth)
            .map(|_| PARTS[rng.below(PARTS.len() as u64) as usize])
            .collect();
        parts.join(".")
    }

    fn assert_same(r: &MetricsRegistry, model: &BTreeMap<String, u64>, seed: u64) {
        let got: Vec<(&str, u64)> = r.iter().collect();
        let want: Vec<(&str, u64)> = model.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(got, want, "seed {seed}");
        assert_eq!(r.len(), model.len(), "seed {seed}");
        assert_eq!(r.is_empty(), model.is_empty(), "seed {seed}");
    }

    #[test]
    fn set_add_retain_match_a_btreemap_model() {
        for seed in 1..=200u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let mut r = MetricsRegistry::new();
            let mut model: BTreeMap<String, u64> = BTreeMap::new();
            for _ in 0..rng.below(120) {
                let k = name(&mut rng);
                let v = rng.below(1000);
                match rng.below(8) {
                    0..=2 => {
                        r.set(&k, v);
                        model.insert(k.clone(), v);
                    }
                    3..=5 => {
                        r.add(k.clone(), v);
                        *model.entry(k.clone()).or_insert(0) += v;
                    }
                    6 => {
                        let cut = rng.below(1000);
                        r.retain(|_, v| v < cut);
                        model.retain(|_, v| *v < cut);
                    }
                    _ => {
                        r.retain(|n, _| !n.ends_with(k.as_str()));
                        model.retain(|n, _| !n.ends_with(k.as_str()));
                    }
                }
                assert_eq!(r.get(&k), model.get(&k).copied(), "seed {seed}");
            }
            assert_same(&r, &model, seed);
            for k in model.keys() {
                assert_eq!(r.get(k), model.get(k).copied(), "seed {seed}");
            }
            let under: Vec<(&str, u64)> = r.with_prefix("a").collect();
            let want: Vec<(&str, u64)> = model
                .iter()
                .filter(|(k, _)| k.starts_with("a."))
                .map(|(k, v)| (k.as_str(), *v))
                .collect();
            assert_eq!(under, want, "seed {seed}");
        }
    }

    #[test]
    fn builder_sorts_distinct_names_pushed_in_any_order() {
        for seed in 1..=100u64 {
            let mut rng = Rng(seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1);
            let mut model: BTreeMap<String, u64> = BTreeMap::new();
            for _ in 0..rng.below(60) {
                model.insert(name(&mut rng), rng.next());
            }
            let mut order: Vec<(&String, &u64)> = model.iter().collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut b = MetricsBuilder::new();
            for (k, v) in order {
                b.push(k, *v);
            }
            let mut r = b.finish();
            assert_same(&r, &model, seed);
            // A built registry keeps accepting set/add like any other.
            r.add("n2", 5);
            *model.entry("n2".to_string()).or_insert(0) += 5;
            r.set("a.b", 7);
            model.insert("a.b".to_string(), 7);
            assert_same(&r, &model, seed);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate metric name")]
    fn builder_rejects_a_duplicate_name() {
        let mut b = MetricsBuilder::new();
        b.push("x.y", 1);
        b.push("a", 2);
        b.push("x.y", 3);
        b.finish();
    }
}
