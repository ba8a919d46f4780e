//! Process-wide simulation-throughput counters.
//!
//! Every completed run loop ([`System::run_until_halt`](crate::System::run_until_halt),
//! [`System::run_until`](crate::System::run_until),
//! [`System::quiesce`](crate::System::quiesce)) records how many clock
//! edges it retired (executed *plus* provably-dead edges skipped by
//! event-horizon scheduling) and how much simulated time elapsed. Harness
//! binaries read the totals with [`snapshot`] and report wall-clock
//! throughput as edges/sec and simulated-ns/sec.
//!
//! The counters are relaxed atomics so parallel sweep workers can all
//! contribute; readers only ever see monotone totals.

use std::sync::atomic::{AtomicU64, Ordering};

static EDGES: AtomicU64 = AtomicU64::new(0);
static SIM_PS: AtomicU64 = AtomicU64::new(0);

/// Adds a run-loop batch: `edges` clock edges retired over `sim_ps`
/// picoseconds of simulated time.
pub fn record(edges: u64, sim_ps: u64) {
    EDGES.fetch_add(edges, Ordering::Relaxed);
    SIM_PS.fetch_add(sim_ps, Ordering::Relaxed);
}

/// Totals since process start: `(edges, simulated_ps)`.
pub fn snapshot() -> (u64, u64) {
    (
        EDGES.load(Ordering::Relaxed),
        SIM_PS.load(Ordering::Relaxed),
    )
}

/// Formats throughput for a wall-clock interval as the standard
/// `"throughput: X edges/sec, Y simulated-ns/sec"` line, given counter
/// deltas and the elapsed wall time.
pub fn throughput_line(edges: u64, sim_ps: u64, wall: std::time::Duration) -> String {
    let secs = wall.as_secs_f64().max(1e-9);
    format!(
        "throughput: {:.3e} edges/sec, {:.3e} simulated-ns/sec",
        edges as f64 / secs,
        (sim_ps as f64 / 1000.0) / secs,
    )
}
