//! Scoreboards derived from a captured trace: per-message-class (virtual
//! network) inject→eject latency histograms and per-line MESI transition
//! counts.

use std::collections::BTreeMap;

use crate::{mesi, unpack_mesi, unpack_noc, EventKind, TraceEvent, UnknownEventKind};

/// Number of message classes (the three coherence virtual networks).
pub const CLASS_COUNT: usize = 3;

const CLASS_LABELS: [&str; CLASS_COUNT] = ["req", "fwd", "resp"];

/// A power-of-two latency histogram: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also takes sub-ns samples).
#[derive(Clone, Debug, Default)]
pub struct LatencyHistogram {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    total_ps: u64,
    max_ps: u64,
}

impl LatencyHistogram {
    /// Records one latency sample (picoseconds).
    pub fn record(&mut self, latency_ps: u64) {
        let ns = latency_ps / 1000;
        let bucket = if ns <= 1 { 0 } else { 63 - ns.leading_zeros() };
        *self.buckets.entry(bucket).or_insert(0) += 1;
        self.count += 1;
        self.total_ps += latency_ps;
        self.max_ps = self.max_ps.max(latency_ps);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in picoseconds (0 when empty).
    pub fn mean_ps(&self) -> u64 {
        self.total_ps.checked_div(self.count).unwrap_or(0)
    }

    /// Largest sample in picoseconds.
    pub fn max_ps(&self) -> u64 {
        self.max_ps
    }

    /// `(bucket_floor_ns, count)` pairs, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets.iter().map(|(b, c)| (1u64 << b, *c)).collect()
    }
}

/// Protocol scoreboards computed from a trace (see
/// [`Scoreboard::from_events`]).
#[derive(Clone, Debug, Default)]
pub struct Scoreboard {
    /// Inject→eject latency per virtual network (index = vnet).
    pub noc_latency: [LatencyHistogram; CLASS_COUNT],
    /// MESI transition counts keyed by `(old, new)` encoded state.
    pub mesi_transitions: BTreeMap<(u8, u8), u64>,
    /// Per-line transition counts (line address → transitions observed).
    pub mesi_lines: BTreeMap<u64, u64>,
    /// Injections never matched by an ejection (still in flight at the end
    /// of the run, or whose endpoints fell out of the ring).
    pub unmatched_injects: u64,
    /// Faults injected by a `duet-verify` `FaultPlan`.
    pub faults_injected: u64,
    /// Accelerator fences performed by the adapter watchdog.
    pub fences: u64,
    /// Protocol violations recorded by the runtime checkers.
    pub checker_violations: u64,
}

impl Scoreboard {
    /// Replays the event stream: matches `NocInject`/`NocEject` pairs by
    /// transaction id into per-vnet latency histograms and accumulates
    /// directory transition counts.
    ///
    /// # Errors
    ///
    /// [`UnknownEventKind`] on a discriminant byte that decodes to no
    /// event kind — a replayed stream with corrupt bytes must fail
    /// loudly, not skip samples silently. (Streams captured in-process
    /// can only contain valid kinds.)
    pub fn from_events(events: &[TraceEvent]) -> Result<Self, UnknownEventKind> {
        let mut sb = Scoreboard::default();
        let mut in_flight: BTreeMap<u64, (u64, usize)> = BTreeMap::new();
        for ev in events {
            match EventKind::try_from_u8(ev.kind)? {
                EventKind::NocInject => {
                    let (_, _, vnet, _) = unpack_noc(ev.b);
                    in_flight.insert(ev.a, (ev.ts_ps, vnet.min(CLASS_COUNT - 1)));
                }
                EventKind::NocEject => {
                    if let Some((t0, vnet)) = in_flight.remove(&ev.a) {
                        sb.noc_latency[vnet].record(ev.ts_ps.saturating_sub(t0));
                    }
                }
                EventKind::MesiTransition => {
                    let (old, new, _) = unpack_mesi(ev.b);
                    *sb.mesi_transitions.entry((old, new)).or_insert(0) += 1;
                    *sb.mesi_lines.entry(ev.a).or_insert(0) += 1;
                }
                EventKind::FaultInject => sb.faults_injected += 1,
                EventKind::Fence => sb.fences += 1,
                EventKind::CheckerViolation => sb.checker_violations += 1,
                _ => {}
            }
        }
        sb.unmatched_injects = in_flight.len() as u64;
        Ok(sb)
    }

    /// Renders the scoreboards as a human-readable report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str("== NoC latency (inject→eject) ==\n");
        for (vnet, hist) in self.noc_latency.iter().enumerate() {
            if hist.count() == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<5} n={:<8} mean={:.1}ns max={:.1}ns\n",
                CLASS_LABELS[vnet],
                hist.count(),
                hist.mean_ps() as f64 / 1000.0,
                hist.max_ps() as f64 / 1000.0
            ));
            for (floor_ns, count) in hist.buckets() {
                out.push_str(&format!("      [{floor_ns:>6}ns..): {count}\n"));
            }
        }
        if self.unmatched_injects > 0 {
            out.push_str(&format!(
                "      ({} injections unmatched)\n",
                self.unmatched_injects
            ));
        }
        out.push_str("== MESI transitions ==\n");
        for ((old, new), count) in &self.mesi_transitions {
            out.push_str(&format!(
                "{:>4} → {:<4} {count}\n",
                mesi::label(*old),
                mesi::label(*new)
            ));
        }
        if let Some((line, n)) = self
            .mesi_lines
            .iter()
            .max_by_key(|(line, n)| (**n, u64::MAX - **line))
        {
            out.push_str(&format!(
                "{} lines touched; hottest line {line:#x} with {n} transitions\n",
                self.mesi_lines.len(),
            ));
        }
        if self.faults_injected + self.fences + self.checker_violations > 0 {
            out.push_str("== Verification ==\n");
            out.push_str(&format!(
                "faults_injected={} fences={} checker_violations={}\n",
                self.faults_injected, self.fences, self.checker_violations
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pack_mesi, pack_noc, EventKind, TraceEvent};

    fn ev(ts: u64, kind: EventKind, a: u64, b: u64) -> TraceEvent {
        TraceEvent {
            ts_ps: ts,
            comp: 0,
            kind: kind as u8,
            a,
            b,
        }
    }

    #[test]
    fn latency_histogram_buckets_by_power_of_two() {
        let mut h = LatencyHistogram::default();
        h.record(1_000); // 1 ns -> bucket 0
        h.record(3_000); // 3 ns -> bucket [2ns..)
        h.record(9_000); // 9 ns -> bucket [8ns..)
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean_ps(), 4_333);
        assert_eq!(h.max_ps(), 9_000);
        assert_eq!(h.buckets(), vec![(1, 1), (2, 1), (8, 1)]);
    }

    #[test]
    fn scoreboard_matches_inject_eject_by_txn_id() {
        let events = vec![
            ev(1_000, EventKind::NocInject, 1, pack_noc(0, 1, 0, 1)),
            ev(2_000, EventKind::NocInject, 2, pack_noc(1, 0, 2, 3)),
            ev(5_000, EventKind::NocEject, 1, pack_noc(0, 1, 0, 1)),
            ev(9_000, EventKind::NocEject, 2, pack_noc(1, 0, 2, 3)),
            ev(9_500, EventKind::NocInject, 3, pack_noc(0, 1, 1, 1)),
        ];
        let sb = Scoreboard::from_events(&events).unwrap();
        assert_eq!(sb.noc_latency[0].count(), 1);
        assert_eq!(sb.noc_latency[0].mean_ps(), 4_000);
        assert_eq!(sb.noc_latency[2].count(), 1);
        assert_eq!(sb.noc_latency[2].mean_ps(), 7_000);
        assert_eq!(sb.unmatched_injects, 1);
        let report = sb.report();
        assert!(report.contains("req"));
        assert!(report.contains("resp"));
        assert!(report.contains("1 injections unmatched"));
    }

    #[test]
    fn scoreboard_counts_mesi_transitions_per_line() {
        let events = vec![
            ev(1, EventKind::MesiTransition, 0x40, pack_mesi(0, 2, 1)),
            ev(2, EventKind::MesiTransition, 0x40, pack_mesi(2, 1, 2)),
            ev(3, EventKind::MesiTransition, 0x80, pack_mesi(0, 1, 1)),
        ];
        let sb = Scoreboard::from_events(&events).unwrap();
        assert_eq!(sb.mesi_transitions.get(&(0, 2)), Some(&1));
        assert_eq!(sb.mesi_transitions.get(&(2, 1)), Some(&1));
        assert_eq!(sb.mesi_lines.get(&0x40), Some(&2));
        assert!(sb.report().contains("hottest line 0x40"));
    }
}
