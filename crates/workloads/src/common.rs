//! Shared driver types for the seven application benchmarks of Fig. 12.

use duet_sim::Time;
use duet_system::{RunStats, SystemConfig, Variant};

/// Which system a benchmark instance ran on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchVariant {
    /// Software on the processors only (warm caches, per Sec. V-A).
    ProcOnly,
    /// Duet: Proxy Caches + Shadow Registers.
    Duet,
    /// FPSoC-like: slow-domain FPGA cache + normal registers only.
    Fpsoc,
}

impl BenchVariant {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            BenchVariant::ProcOnly => "proc-only",
            BenchVariant::Duet => "duet",
            BenchVariant::Fpsoc => "fpsoc",
        }
    }

    /// Builds the matching system configuration.
    pub fn system_config(&self, p: usize, m: usize, fpga_mhz: f64) -> SystemConfig {
        match self {
            BenchVariant::ProcOnly => SystemConfig::proc_only(p),
            BenchVariant::Duet => SystemConfig::dolly(p, m, fpga_mhz),
            BenchVariant::Fpsoc => SystemConfig::fpsoc(p, m, fpga_mhz),
        }
    }

    /// Whether this variant offers shadow registers.
    pub fn push_mode(&self) -> bool {
        matches!(self, BenchVariant::Duet)
    }

    /// The `duet_system` variant enum.
    pub fn variant(&self) -> Variant {
        match self {
            BenchVariant::ProcOnly => Variant::ProcOnly,
            BenchVariant::Duet => Variant::Duet,
            BenchVariant::Fpsoc => Variant::Fpsoc,
        }
    }
}

/// The outcome of one benchmark run.
#[derive(Clone, Debug)]
pub struct AppResult {
    /// Benchmark name (e.g. `"popcount"`, `"sort/64"`).
    pub name: String,
    /// System variant.
    pub variant: BenchVariant,
    /// Processors used.
    pub processors: usize,
    /// Memory hubs used.
    pub memory_hubs: usize,
    /// eFPGA clock (MHz; meaningless for proc-only).
    pub fpga_mhz: f64,
    /// End-to-end runtime of the measured region.
    pub runtime: Time,
    /// Whether the computed result matched the reference.
    pub correct: bool,
    /// The run's statistics, for throughput reports.
    pub stats: RunStats,
    /// Simulated time at the end of the run (after quiesce), picoseconds.
    pub sim_ps: u64,
}

impl AppResult {
    /// Speedup of `self` relative to `baseline` (>1 means faster).
    pub fn speedup_over(&self, baseline: &AppResult) -> f64 {
        baseline.runtime.as_ps() as f64 / self.runtime.as_ps() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_math() {
        let mk = |ps| AppResult {
            name: "x".into(),
            variant: BenchVariant::Duet,
            processors: 1,
            memory_hubs: 1,
            fpga_mhz: 100.0,
            runtime: Time::from_ps(ps),
            correct: true,
            stats: RunStats::default(),
            sim_ps: ps,
        };
        let base = mk(1000);
        let fast = mk(250);
        assert_eq!(fast.speedup_over(&base), 4.0);
    }

    #[test]
    fn variant_configs() {
        let d = BenchVariant::Duet.system_config(2, 1, 150.0);
        assert_eq!(d.variant, Variant::Duet);
        assert!(d.has_fpga());
        let p = BenchVariant::ProcOnly.system_config(2, 0, 150.0);
        assert!(!p.has_fpga());
        assert!(BenchVariant::Duet.push_mode());
        assert!(!BenchVariant::Fpsoc.push_mode());
    }
}
