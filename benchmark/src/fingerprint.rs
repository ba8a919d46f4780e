//! The simulated fingerprint: a hash of everything a unit simulated, and of
//! nothing about how fast the host simulated it. Two slices, two builds or
//! two commits that simulate the same thing hash equal; a change meant only
//! to speed the simulator up must leave it bit-equal.

use duet_sim::SnapHasher;
use duet_trace::MetricsRegistry;

/// Whether a `System::metrics_registry()` entry describes simulated state.
/// Dropped: the process-wide throughput atomics (`process.*`, shared by
/// every run in the process), `run.executed_edges` (host edge-skip
/// accounting) and `link.*.rejected_pushes` (counts attempts, which differ
/// across edge-skip modes) — the same three the service leaves out of its
/// cached payloads.
pub fn is_simulated(name: &str) -> bool {
    !(name.starts_with("process.")
        || name == "run.executed_edges"
        || (name.starts_with("link.") && name.ends_with(".rejected_pushes")))
}

/// Hash of the simulated entries of a metrics registry, names included.
pub fn of_registry(reg: &MetricsRegistry) -> u64 {
    let mut h = SnapHasher::new();
    for (name, value) in reg.iter().filter(|(k, _)| is_simulated(k)) {
        h.bytes(name.as_bytes());
        h.u64(value);
    }
    h.finish()
}

/// Hash of a sequence of byte strings (service payloads), lengths included
/// so that boundaries count.
pub fn of_payloads<'a>(payloads: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = SnapHasher::new();
    for p in payloads {
        h.usize(p.len());
        h.bytes(p);
    }
    h.finish()
}

/// How a fingerprint is printed.
pub fn hex(fp: u64) -> String {
    format!("{fp:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(executed: u64, process: u64, rejected: u64) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.set("run.fast_edges", 1000);
        r.set("run.sim_ps", 5_000_000);
        r.set("mesh.injected", 42);
        r.set("run.executed_edges", executed);
        r.set("process.edges", process);
        r.set("process.sim_ps", process * 3);
        r.set("link.inject@n1.rejected_pushes", rejected);
        r.set("link.inject@n1.pushes", 7);
        r
    }

    #[test]
    fn host_side_entries_cannot_leak_in() {
        let a = of_registry(&registry(10, 20, 30));
        let b = of_registry(&registry(11, 99, 0));
        assert_eq!(a, b);
        assert!(!is_simulated("process.anything"));
        assert!(is_simulated("processes"));
        assert!(is_simulated("link.inject@n1.pushes"));
    }

    #[test]
    fn simulated_entries_and_names_count() {
        let base = registry(1, 1, 1);
        let mut moved = base.clone();
        moved.set("mesh.injected", 43);
        assert_ne!(of_registry(&base), of_registry(&moved));
        let mut renamed = MetricsRegistry::new();
        for (k, v) in base.iter() {
            renamed.set(k.replace("mesh.injected", "mesh.injectee"), v);
        }
        assert_ne!(of_registry(&base), of_registry(&renamed));
    }

    #[test]
    fn payload_boundaries_count() {
        let joined = of_payloads([b"abcd".as_slice()]);
        let split = of_payloads([b"ab".as_slice(), b"cd".as_slice()]);
        assert_ne!(joined, split);
    }
}
