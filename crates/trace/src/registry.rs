//! The unified metrics namespace.
//!
//! Counters in the simulator historically lived in several disconnected
//! places: `RunStats` on the system, per-link push/pop/reject counters,
//! per-component stats structs, and the process-wide throughput atomics.
//! [`MetricsRegistry`] subsumes them into one `name → value` map with
//! deterministic (sorted) iteration, so reports and regression diffs are
//! stable across runs and edge-skip modes.

use std::collections::BTreeMap;
use std::fmt;

/// A sorted, deterministically-iterated `name → u64` metrics namespace.
///
/// Names are dot-separated paths (`run.fast_edges`,
/// `link.mesh.n3.west.req.pushes`, `dir.n0.gets`); insertion order never
/// matters because the backing map is a `BTreeMap`.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    map: BTreeMap<String, u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Sets `name` to `value` (overwriting).
    pub fn set(&mut self, name: impl Into<String>, value: u64) {
        self.map.insert(name.into(), value);
    }

    /// Adds `value` to `name` (starting from zero).
    pub fn add(&mut self, name: impl Into<String>, value: u64) {
        *self.map.entry(name.into()).or_insert(0) += value;
    }

    /// Reads a metric.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.map.get(name).copied()
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(name, value)` in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All metrics under a dotted prefix (`prefix.`), sorted.
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, u64)> {
        self.iter()
            .filter(move |(k, _)| k.starts_with(prefix) && k[prefix.len()..].starts_with('.'))
    }
}

/// Consumes the registry, yielding owned `(name, value)` pairs in sorted
/// name order.
impl IntoIterator for MetricsRegistry {
    type Item = (String, u64);
    type IntoIter = std::collections::btree_map::IntoIter<String, u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.map.into_iter()
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn into_iter_moves_names_out_in_sorted_order() {
        let mut r = MetricsRegistry::new();
        r.set("z.last", 1);
        r.set("a.first", 2);
        let borrowed: Vec<(String, u64)> = r.iter().map(|(k, v)| (k.to_string(), v)).collect();
        let owned: Vec<(String, u64)> = r.into_iter().collect();
        assert_eq!(owned, borrowed);
        assert_eq!(owned[0], ("a.first".to_string(), 2));
    }

    #[test]
    fn display_renders_one_line_per_metric() {
        let mut r = MetricsRegistry::new();
        r.set("run.fast_edges", 10);
        assert_eq!(r.to_string(), "run.fast_edges = 10\n");
    }
}
