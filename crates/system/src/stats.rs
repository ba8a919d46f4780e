//! Run statistics and link-occupancy reporting.

use std::fmt::Write;

use duet_sim::LinkReport;
use duet_trace::{MetricsBuilder, MetricsRegistry};

use crate::system::System;

/// Aggregated run metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Fast-clock edges executed.
    pub fast_edges: u64,
    /// Slow-clock edges executed.
    pub slow_edges: u64,
    /// Exceptions observed by the OS stub.
    pub exceptions: u64,
    /// Page faults handled.
    pub page_faults: u64,
}

/// Whether a [`System::metrics_registry`] entry is a function of the
/// simulated run alone. Dropped: `run.executed_edges` (host edge-skip
/// accounting) and `link.*.rejected_pushes` (counts attempts, which differ
/// across edge-skip modes). Service payloads and determinism fingerprints
/// keep exactly the metrics this accepts.
pub fn is_simulated_metric(name: &str) -> bool {
    !(name == "run.executed_edges"
        || (name.starts_with("link.") && name.ends_with(".rejected_pushes")))
}

/// Pushes `key` + suffix for each `(suffix, value)`, leaving `key` as it
/// was.
fn push_group(r: &mut MetricsBuilder, key: &mut String, fields: &[(&str, u64)]) {
    let prefix = key.len();
    for &(suffix, value) in fields {
        key.push_str(suffix);
        r.push(key, value);
        key.truncate(prefix);
    }
}

impl System {
    /// Run statistics.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Clock edges the host actually executed (dead edges skipped by
    /// event-horizon scheduling are *not* counted here, unlike the
    /// reconstructed [`RunStats`] counters). Host-performance metric only.
    pub fn executed_edges(&self) -> u64 {
        self.executed_edges
    }

    /// Snapshots every link in the component graph: `(name, report)` pairs
    /// with names prefixed by the owning component (e.g.
    /// `mesh.n3.west.req`, `hub0@n2.fabric_resp`, `inject@n1`).
    ///
    /// Occupancy/stall counters driven by successful data movement are
    /// deterministic across edge-skip modes; `rejected_pushes` counts
    /// *attempts* and may differ (gated components never retry), so keep it
    /// out of determinism fingerprints.
    pub fn link_reports(&self) -> Vec<(String, LinkReport)> {
        let mut out = Vec::new();
        let mut name = String::new();
        self.visit_link_reports(&mut name, &mut |name, report| {
            out.push((name.to_string(), report));
        });
        out
    }

    /// Walks every link in [`link_reports`](System::link_reports) order,
    /// composing each full name after whatever `name` already holds (the
    /// prefix is restored between links) and handing it to `visit`.
    fn visit_link_reports(
        &self,
        name: &mut String,
        visit: &mut dyn FnMut(&mut String, LinkReport),
    ) {
        let prefix = name.len();
        self.visit_components(&mut |c| {
            name.push_str(&c.name());
            name.push('.');
            let base = name.len();
            c.visit_links(&mut |link, report| {
                name.push_str(link);
                visit(name, report);
                name.truncate(base);
            });
            name.truncate(prefix);
            true
        });
        for (n, link) in self.inject_pending.iter().enumerate() {
            let _ = write!(name, "inject@n{n}");
            visit(name, link.report());
            name.truncate(prefix);
        }
        for (h, cdc) in self.slow_cdc.iter().enumerate() {
            let _ = write!(name, "slowcdc{h}.into_hub");
            visit(name, cdc.into_hub.report());
            name.truncate(prefix);
            let _ = write!(name, "slowcdc{h}.from_hub");
            visit(name, cdc.from_hub.report());
            name.truncate(prefix);
        }
    }

    /// One unified, deterministically-ordered metrics namespace subsuming
    /// [`RunStats`], per-component event counters and per-link occupancy
    /// counters. Names are dot-separated (`run.fast_edges`,
    /// `mesh.injected`, `l2.n0.misses`, `link.inject@n1.pushes`); iteration
    /// over the registry is sorted, so reports diff stably across runs.
    /// The registry describes this system alone: another system running in
    /// the same process, before or alongside it, changes none of its
    /// entries.
    ///
    /// `link.*.rejected_pushes` counts *attempts* and may differ across
    /// edge-skip modes (see [`link_reports`](System::link_reports)); every
    /// other metric here is skip-invariant.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut r = MetricsBuilder::new();
        r.push("run.fast_edges", self.stats.fast_edges);
        r.push("run.slow_edges", self.stats.slow_edges);
        r.push("run.exceptions", self.stats.exceptions);
        r.push("run.page_faults", self.stats.page_faults);
        r.push("run.executed_edges", self.executed_edges);
        r.push("run.sim_ps", self.now.as_ps());

        let m = self.mesh.stats();
        r.push("mesh.injected", m.injected);
        r.push("mesh.delivered", m.delivered);
        r.push("mesh.delivered_flits", m.delivered_flits);
        r.push("mesh.total_latency_ps", m.total_latency.as_ps());

        let mut key = String::new();
        for (i, l2) in self.l2s.iter().enumerate() {
            let s = l2.stats();
            key.clear();
            let _ = write!(key, "l2.n{}.", self.cfg.core_node(i));
            push_group(
                &mut r,
                &mut key,
                &[
                    ("hits", s.hits),
                    ("misses", s.misses),
                    ("mshr_merges", s.mshr_merges),
                    ("writebacks", s.writebacks),
                    ("invs", s.invs),
                    ("downgrades", s.downgrades),
                    ("fwd_getm", s.fwd_getm),
                ],
            );
        }
        for shard in &self.shards {
            let s = shard.stats();
            key.clear();
            let _ = write!(key, "l3.n{}.", shard.node());
            push_group(
                &mut r,
                &mut key,
                &[
                    ("gets", s.gets),
                    ("getm", s.getm),
                    ("putm", s.putm),
                    ("invs_sent", s.invs_sent),
                    ("fwds_sent", s.fwds_sent),
                    ("l3_hits", s.l3_hits),
                    ("l3_misses", s.l3_misses),
                ],
            );
        }
        if let Some(a) = &self.adapter {
            let c = a.control.stats();
            r.push("ctrl.mmio_ops", c.mmio_ops);
            r.push("ctrl.shadow_fast", c.shadow_fast);
            r.push("ctrl.normal_crossings", c.normal_crossings);
            r.push("ctrl.timeouts", c.timeouts);
            for (h, hub) in a.hubs.iter().enumerate() {
                let s = hub.stats();
                key.clear();
                let _ = write!(key, "hub{h}.");
                push_group(
                    &mut r,
                    &mut key,
                    &[
                        ("requests", s.requests),
                        ("loads", s.loads),
                        ("stores", s.stores),
                        ("amos", s.amos),
                        ("invs_forwarded", s.invs_forwarded),
                        ("page_faults", s.page_faults),
                        ("exceptions", s.exceptions),
                    ],
                );
            }
        }
        key.clear();
        key.push_str("link.");
        self.visit_link_reports(&mut key, &mut |key, report| {
            key.push('.');
            push_group(
                &mut r,
                key,
                &[
                    ("pushes", report.stats.pushes),
                    ("pops", report.stats.pops),
                    ("rejected_pushes", report.stats.rejected_pushes),
                    ("peak_occupancy", report.stats.peak_occupancy as u64),
                ],
            );
        });
        r.push("verify.faults_injected", self.faults_injected);
        r.push("verify.fences", self.fences);
        r.push("verify.fenced", u64::from(self.accel_fenced));
        r.push("verify.mesi_checked", self.mesi_checker.checked());
        r.push("verify.mesi_violations", self.mesi_checker.violations());
        r.push("verify.noc_checked", self.noc_checker.checked());
        r.push("verify.noc_violations", self.noc_checker.violations());
        r.push("verify.adapter_violations", self.adapter_violations);
        r.push("verify.violations", self.checker_violations());
        r.finish()
    }
}
