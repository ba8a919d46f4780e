//! Every metric the benchmark prints, by name, with its unit and direction.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use std::collections::BTreeMap;

use crate::stats::Better::{self, Higher, Lower};

/// A metric's name, unit and good direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the simulator or the service sees. Host time throughout;
/// each is the best slice of the run (see [`crate::stats::best`]).
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Lower),
    def("unit_wall_s", "s", Lower),
    def("req_per_s", "1/s", Higher),
    def("lat_p50_ms", "ms", Lower),
    def("lat_p90_ms", "ms", Lower),
    def("peak_rss_mb", "MB", Lower),
];

/// Metrics of single layers, the layers being the crates. Counts repeat
/// exactly; host-time probes come from the traced pass. A metric a workload
/// does not exercise, or cannot observe from outside, reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // Accuracy and failures: exact, gated by `benchmark compare`.
    def("paper_err_pct", "%", Lower),
    def("failed_frac", "ratio", Lower),
    // duet-system
    def("system.fast_edges", "count", Lower),
    def("system.slow_edges", "count", Lower),
    def("system.executed_edges", "count", Lower),
    def("system.skip_ratio", "ratio", Higher),
    def("system.sim_ps", "ps", Lower),
    def("system.snapshot_bytes", "B", Lower),
    def("system.ns_per_executed_edge", "ns", Lower),
    def("system.build_us", "us", Lower),
    def("system.next_event_time_ns", "ns", Lower),
    def("system.metrics_registry_us", "us", Lower),
    def("system.snapshot_ms", "ms", Lower),
    def("system.restore_ms", "ms", Lower),
    def("system.fork_ms", "ms", Lower),
    // duet-sim
    def("sim.link_pushes", "count", Lower),
    def("sim.link_rejected_pushes", "count", Lower),
    def("sim.snapwriter_mb_s", "MB/s", Higher),
    def("sim.epoch_barrier_ns", "ns", Lower),
    // duet-noc
    def("noc.injected", "count", Lower),
    def("noc.delivered_flits", "count", Lower),
    def("noc.mean_latency_ps", "ps", Lower),
    def("noc.peak_occupancy", "count", Lower),
    def("noc.tick_ns", "ns", Lower),
    def("noc.tick_sharded_ns", "ns", Lower),
    def("noc.tick_idle_ns", "ns", Lower),
    def("noc.inject_eject_ns", "ns", Lower),
    // duet-mem
    def("mem.l2_hits", "count", Higher),
    def("mem.l2_misses", "count", Lower),
    def("mem.l2_mshr_merges", "count", Higher),
    def("mem.l2_writebacks", "count", Lower),
    def("mem.l2_invs", "count", Lower),
    def("mem.l3_gets", "count", Lower),
    def("mem.l3_getm", "count", Lower),
    def("mem.l3_hits", "count", Higher),
    def("mem.l3_misses", "count", Lower),
    def("mem.dir_invs_sent", "count", Lower),
    def("mem.dir_fwds_sent", "count", Lower),
    def("mem.harness_reqs", "count", Higher),
    def("mem.harness_ns_per_req", "ns", Lower),
    // duet-cpu
    def("cpu.instret", "count", Lower),
    def("cpu.mem_stall_cycles", "count", Lower),
    def("cpu.ipc", "ratio", Higher),
    def("cpu.l1_hit_ratio", "ratio", Higher),
    def("cpu.minstr_per_s", "M/s", Higher),
    // duet-core
    def("core.mmio_ops", "count", Lower),
    def("core.shadow_fast", "count", Higher),
    def("core.normal_crossings", "count", Lower),
    def("core.hub_requests", "count", Lower),
    def("core.hub_invs_forwarded", "count", Lower),
    def("core.ctrl_timeouts", "count", Lower),
    // duet-fpga
    def("fpga.fabric_mm2_total", "mm2", Lower),
    def("fpga.implement_us", "us", Lower),
    // duet-verify
    def("verify.mesi_checked", "count", Lower),
    def("verify.noc_checked", "count", Lower),
    def("verify.violations", "count", Lower),
    def("verify.faults_injected", "count", Lower),
    def("verify.fault_plan_parse_us", "us", Lower),
    // duet-trace
    def("trace.events_recorded", "count", Lower),
    def("trace.on_overhead_pct", "%", Lower),
    def("trace.chrome_export_ms", "ms", Lower),
    // duet-workloads
    def("workloads.tangent_ms", "ms", Lower),
    def("workloads.popcount_ms", "ms", Lower),
    def("workloads.sort-32_ms", "ms", Lower),
    def("workloads.sort-64_ms", "ms", Lower),
    def("workloads.sort-128_ms", "ms", Lower),
    def("workloads.dijkstra_ms", "ms", Lower),
    def("workloads.barnes-hut_ms", "ms", Lower),
    def("workloads.pdes-4_ms", "ms", Lower),
    def("workloads.pdes-8_ms", "ms", Lower),
    def("workloads.pdes-16_ms", "ms", Lower),
    def("workloads.bfs-4_ms", "ms", Lower),
    def("workloads.bfs-8_ms", "ms", Lower),
    def("workloads.bfs-16_ms", "ms", Lower),
    def("workloads.fig9_ms", "ms", Lower),
    def("workloads.fig10_ms", "ms", Lower),
    def("workloads.fig11_ms", "ms", Lower),
    // duet-serve
    def("serve.cache_hits", "count", Higher),
    def("serve.cache_misses", "count", Lower),
    def("serve.cache_inserts", "count", Lower),
    def("serve.cache_evictions", "count", Lower),
    def("serve.store_appended_bytes", "B", Lower),
    def("serve.jobs_failed", "count", Lower),
    def("serve.client_retries", "count", Lower),
    def("serve.payload_bytes", "B", Lower),
    def("serve.json_parse_spec_us", "us", Lower),
    def("serve.json_parse_payload_us", "us", Lower),
    def("serve.json_encode_payload_us", "us", Lower),
    def("serve.spec_from_json_us", "us", Lower),
    def("serve.cache_key_us", "us", Lower),
    def("serve.cache_lookup_hit_ns", "ns", Lower),
    def("serve.cache_lookup_miss_ns", "ns", Lower),
    def("serve.cache_insert_us", "us", Lower),
    def("serve.store_append_us", "us", Lower),
    def("serve.store_append_fsync_us", "us", Lower),
    def("serve.store_get_us", "us", Lower),
    def("serve.store_recover_ms", "ms", Lower),
    def("serve.execute_ms", "ms", Lower),
    def("serve.result_payload_us", "us", Lower),
    def("serve.http_floor_us", "us", Lower),
    def("serve.queue_wait_us", "us", Lower),
    def("serve.hit_overhead_us", "us", Lower),
    // the runner itself: noise and overhead accounting
    def("bench.slices", "count", Higher),
    def("bench.ops_per_slice", "count", Higher),
    def("bench.lat_tail_pct", "%", Higher),
    def("bench.slice_p50_s", "s", Lower),
    def("bench.slice_max_s", "s", Lower),
    def("bench.slice_spread_pct", "%", Lower),
    def("bench.cpu_s", "s", Lower),
    def("bench.cpu_util", "ratio", Lower),
    def("bench.trace_overhead_pct", "%", Lower),
    def("bench.trace_root_self_pct", "%", Lower),
    def("bench.sweep_parallel_efficiency", "ratio", Higher),
];

/// Looks a metric up in either table.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Layer values collected during a run, by metric name. [`complete`]
/// fills in the zeros.
///
/// [`complete`]: Values::complete
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name that is in neither table: a typo must not vanish
    /// into an unprinted metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let d = lookup(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        self.0.insert(d.name, value);
    }

    /// Adds to `name`, starting from zero.
    pub fn add(&mut self, name: &str, value: f64) {
        let old = self.get(name);
        self.set(name, old + value);
    }

    /// Reads `name`; unset metrics read 0.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every metric of `table`, in table order, unset ones as 0.
    pub fn complete(&self, table: &'static [MetricDef]) -> Vec<(&'static MetricDef, f64)> {
        table.iter().map(|d| (d, self.get(d.name))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
    }

    #[test]
    fn values_complete_with_zeros_and_reject_typos() {
        let mut v = Values::default();
        v.set("noc.tick_ns", 12.5);
        v.add("noc.injected", 2.0);
        v.add("noc.injected", 3.0);
        let all = v.complete(PER_LAYER);
        assert_eq!(all.len(), PER_LAYER.len());
        assert_eq!(v.get("noc.tick_ns"), 12.5);
        assert_eq!(v.get("noc.injected"), 5.0);
        assert_eq!(v.get("mem.l2_hits"), 0.0);
        assert!(std::panic::catch_unwind(|| Values::default().set("noc.tick", 1.0)).is_err());
    }
}
