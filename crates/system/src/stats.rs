//! Run statistics and link-occupancy reporting.

use duet_sim::LinkReport;
use duet_trace::MetricsRegistry;

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
        self.visit_components(&mut |c| {
            let base = c.name();
            c.visit_links(&mut |name, report| out.push((format!("{base}.{name}"), report)));
            true
        });
        for (n, link) in self.inject_pending.iter().enumerate() {
            out.push((format!("inject@n{n}"), link.report()));
        }
        for (h, cdc) in self.slow_cdc.iter().enumerate() {
            out.push((format!("slowcdc{h}.into_hub"), cdc.into_hub.report()));
            out.push((format!("slowcdc{h}.from_hub"), cdc.from_hub.report()));
        }
        out
    }

    /// One unified, deterministically-ordered metrics namespace subsuming
    /// [`RunStats`], per-component event counters, per-link occupancy
    /// counters, and the process-wide throughput atomics. Names are
    /// dot-separated (`run.fast_edges`, `mesh.injected`,
    /// `l2.n0.misses`, `link.inject@n1.pushes`, `process.edges`); iteration
    /// over the registry is sorted, so reports diff stably across runs.
    ///
    /// `link.*.rejected_pushes` counts *attempts* and may differ across
    /// edge-skip modes (see [`link_reports`](System::link_reports)); every
    /// other metric here is skip-invariant.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.set("run.fast_edges", self.stats.fast_edges);
        r.set("run.slow_edges", self.stats.slow_edges);
        r.set("run.exceptions", self.stats.exceptions);
        r.set("run.page_faults", self.stats.page_faults);
        r.set("run.executed_edges", self.executed_edges);
        r.set("run.sim_ps", self.now.as_ps());

        let m = self.mesh.stats();
        r.set("mesh.injected", m.injected);
        r.set("mesh.delivered", m.delivered);
        r.set("mesh.delivered_flits", m.delivered_flits);
        r.set("mesh.total_latency_ps", m.total_latency.as_ps());

        for (i, l2) in self.l2s.iter().enumerate() {
            let s = l2.stats();
            let p = format!("l2.n{}", self.cfg.core_node(i));
            r.set(format!("{p}.hits"), s.hits);
            r.set(format!("{p}.misses"), s.misses);
            r.set(format!("{p}.mshr_merges"), s.mshr_merges);
            r.set(format!("{p}.writebacks"), s.writebacks);
            r.set(format!("{p}.invs"), s.invs);
            r.set(format!("{p}.downgrades"), s.downgrades);
            r.set(format!("{p}.fwd_getm"), s.fwd_getm);
        }
        for shard in &self.shards {
            let s = shard.stats();
            let p = format!("l3.n{}", shard.node());
            r.set(format!("{p}.gets"), s.gets);
            r.set(format!("{p}.getm"), s.getm);
            r.set(format!("{p}.putm"), s.putm);
            r.set(format!("{p}.invs_sent"), s.invs_sent);
            r.set(format!("{p}.fwds_sent"), s.fwds_sent);
            r.set(format!("{p}.l3_hits"), s.l3_hits);
            r.set(format!("{p}.l3_misses"), s.l3_misses);
        }
        if let Some(a) = &self.adapter {
            let c = a.control.stats();
            r.set("ctrl.mmio_ops", c.mmio_ops);
            r.set("ctrl.shadow_fast", c.shadow_fast);
            r.set("ctrl.normal_crossings", c.normal_crossings);
            r.set("ctrl.timeouts", c.timeouts);
            for (h, hub) in a.hubs.iter().enumerate() {
                let s = hub.stats();
                let p = format!("hub{h}");
                r.set(format!("{p}.requests"), s.requests);
                r.set(format!("{p}.loads"), s.loads);
                r.set(format!("{p}.stores"), s.stores);
                r.set(format!("{p}.amos"), s.amos);
                r.set(format!("{p}.invs_forwarded"), s.invs_forwarded);
                r.set(format!("{p}.page_faults"), s.page_faults);
                r.set(format!("{p}.exceptions"), s.exceptions);
            }
        }
        for (name, report) in self.link_reports() {
            let p = format!("link.{name}");
            r.set(format!("{p}.pushes"), report.stats.pushes);
            r.set(format!("{p}.pops"), report.stats.pops);
            r.set(format!("{p}.rejected_pushes"), report.stats.rejected_pushes);
            r.set(
                format!("{p}.peak_occupancy"),
                report.stats.peak_occupancy as u64,
            );
        }
        r.set("verify.faults_injected", self.faults_injected);
        r.set("verify.fences", self.fences);
        r.set("verify.fenced", u64::from(self.accel_fenced));
        r.set("verify.mesi_checked", self.mesi_checker.checked());
        r.set("verify.mesi_violations", self.mesi_checker.violations());
        r.set("verify.noc_checked", self.noc_checker.checked());
        r.set("verify.noc_violations", self.noc_checker.violations());
        r.set("verify.adapter_violations", self.adapter_violations);
        r.set("verify.violations", self.checker_violations());

        let (edges, sim_ps) = crate::metrics::snapshot();
        r.set("process.edges", edges);
        r.set("process.sim_ps", sim_ps);
        r
    }

    /// Snapshot of (edges retired, sim time) at run-loop entry.
    pub(crate) fn begin_batch(&self) -> (u64, duet_sim::Time) {
        (self.stats.fast_edges + self.stats.slow_edges, self.now)
    }

    /// Ends a run loop: settles the stall counters of sleeping cores and
    /// publishes the loop's edge/sim-time deltas to the process-wide
    /// throughput counters (skipped edges count: they were retired).
    pub(crate) fn end_batch(&mut self, (edges0, t0): (u64, duet_sim::Time)) {
        self.settle_sleeping_cores();
        let edges = (self.stats.fast_edges + self.stats.slow_edges).saturating_sub(edges0);
        let sim_ps = self.now.saturating_sub(t0).as_ps();
        if edges > 0 || sim_ps > 0 {
            crate::metrics::record(edges, sim_ps);
        }
    }
}
