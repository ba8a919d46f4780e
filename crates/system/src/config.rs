//! System configurations: Dolly-PpMm instances, the FPSoC-like baseline,
//! and the processor-only baseline (Sec. V-A).

use duet_core::{AdapterConfig, ControlHubConfig, MemoryHubConfig};
use duet_cpu::CoreConfig;
use duet_mem::priv_cache::CacheConfig;
use duet_mem::DirConfig;
use duet_sim::Clock;
use duet_verify::FaultPlan;

/// Which system architecture to model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Duet: Memory Hubs (Proxy Caches) in the fast clock domain, Shadow
    /// Registers available.
    Duet,
    /// FPSoC-like baseline (Sec. V-D): "moves the P-Mesh L2 cache into the
    /// eFPGA's (slow) clock domain and downgrades all shadowed soft
    /// registers to normal registers".
    Fpsoc,
    /// Processor-only baseline: no eFPGA at all.
    ProcOnly,
}

/// Why a [`SystemConfig`] cannot be built into a
/// [`System`](crate::System). Returned by [`SystemConfig::validate`] (and
/// hence `System::new`) instead of panicking deep inside wiring.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `processors == 0`: the OS stub, IRQ target, and MMIO id plumbing
    /// all assume at least one P-tile.
    NoProcessors,
    /// Memory Hubs requested without an eFPGA to host them.
    HubsWithoutFpga {
        /// The offending `memory_hubs` count.
        memory_hubs: usize,
    },
    /// The eFPGA clock must be a positive, finite frequency.
    InvalidFpgaClock {
        /// The offending frequency in MHz.
        mhz: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoProcessors => {
                write!(
                    f,
                    "configuration has no processors (need at least one P-tile)"
                )
            }
            ConfigError::HubsWithoutFpga { memory_hubs } => {
                write!(f, "{memory_hubs} memory hub(s) configured without an eFPGA")
            }
            ConfigError::InvalidFpgaClock { mhz } => {
                write!(
                    f,
                    "invalid eFPGA clock: {mhz} MHz (must be positive and finite)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full system configuration. Use the constructors, then adjust fields.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of processor tiles (`p` of Dolly-PpMm).
    pub processors: usize,
    /// Number of Memory Hubs (`m` of Dolly-PpMm).
    pub memory_hubs: usize,
    /// eFPGA clock in MHz.
    pub fpga_mhz: f64,
    /// Architecture variant.
    pub variant: Variant,
    /// System (processor) clock — 1 GHz in the paper's evaluation.
    pub clock: Clock,
    /// Kernel page-fault handling latency (OS-stub model), fast cycles.
    pub kernel_latency_cycles: u64,
    /// MSHRs per Proxy Cache (in-flight request bound of Fig. 10).
    pub proxy_mshrs: usize,
    /// Base of the adapter's MMIO region.
    pub mmio_base: u64,
    /// Deterministic fault-injection schedule (empty by default: inject
    /// nothing, cost nothing). See [`duet_verify::FaultPlan`].
    pub faults: FaultPlan,
    /// Ignored; the simulator is serial — DESIGN.md "Intra-run
    /// threading: tried, measured, removed".
    pub sim_threads: usize,
    /// Ignored; the simulator is serial — DESIGN.md "Intra-run
    /// threading: tried, measured, removed".
    pub mesh_shards: usize,
}

impl SystemConfig {
    /// A Dolly-PpMm instance (Duet variant) with the eFPGA at `fpga_mhz`.
    pub fn dolly(p: usize, m: usize, fpga_mhz: f64) -> Self {
        SystemConfig {
            processors: p,
            memory_hubs: m,
            fpga_mhz,
            variant: Variant::Duet,
            clock: Clock::ghz1(),
            kernel_latency_cycles: 2000,
            proxy_mshrs: 2,
            mmio_base: 0x4000_0000,
            faults: FaultPlan::empty(),
            sim_threads: 1,
            mesh_shards: 0,
        }
    }

    /// The FPSoC-like baseline with the same resources.
    pub fn fpsoc(p: usize, m: usize, fpga_mhz: f64) -> Self {
        SystemConfig {
            variant: Variant::Fpsoc,
            ..Self::dolly(p, m, fpga_mhz)
        }
    }

    /// The processor-only baseline.
    pub fn proc_only(p: usize) -> Self {
        SystemConfig {
            processors: p,
            memory_hubs: 0,
            fpga_mhz: 100.0,
            variant: Variant::ProcOnly,
            clock: Clock::ghz1(),
            kernel_latency_cycles: 2000,
            proxy_mshrs: 8,
            mmio_base: 0x4000_0000,
            faults: FaultPlan::empty(),
            sim_threads: 1,
            mesh_shards: 0,
        }
    }

    /// A 64-tile processor-only system on an 8×8 mesh — the mid-size
    /// scaling configuration.
    pub fn mesh_8x8() -> Self {
        Self::proc_only(64)
    }

    /// A 256-tile processor-only system on a 16×16 mesh — the big-mesh
    /// scaling configuration (the NoC-hotspot scenario in `duet-bench`
    /// runs here).
    pub fn mesh_16x16() -> Self {
        Self::proc_only(256)
    }

    /// Whether an eFPGA (and hence a C-tile) exists: every variant but
    /// the processor-only baseline has one.
    pub fn has_fpga(&self) -> bool {
        self.variant != Variant::ProcOnly
    }

    /// Checks the configuration for inconsistencies that would make the
    /// assembled system malformed. `System::new` calls this and refuses to
    /// build on error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.processors == 0 {
            return Err(ConfigError::NoProcessors);
        }
        if !self.has_fpga() && self.memory_hubs > 0 {
            return Err(ConfigError::HubsWithoutFpga {
                memory_hubs: self.memory_hubs,
            });
        }
        if self.has_fpga() && !(self.fpga_mhz.is_finite() && self.fpga_mhz > 0.0) {
            return Err(ConfigError::InvalidFpgaClock { mhz: self.fpga_mhz });
        }
        Ok(())
    }

    /// Appends the canonical byte encoding of every field that affects
    /// simulated state to `w`: topology, clocks, variant, MMIO base, and
    /// the full fault plan (via [`FaultPlan::canonical_encode`]).
    ///
    /// `sim_threads` and `mesh_shards` are deliberately excluded: nothing
    /// reads them, so two configs differing only there are the *same*
    /// simulated system. This one encoding backs both consumers of
    /// config identity — the snapshot header hash
    /// ([`config_hash`](SystemConfig::config_hash)) and the service
    /// layer's content-addressed cache key — so they can never drift
    /// apart.
    pub fn canonical_encode(&self, w: &mut duet_sim::SnapWriter) {
        w.len64(self.processors);
        w.len64(self.memory_hubs);
        w.u8(u8::from(self.has_fpga()));
        w.u64(self.fpga_mhz.to_bits());
        w.u8(match self.variant {
            Variant::Duet => 0,
            Variant::Fpsoc => 1,
            Variant::ProcOnly => 2,
        });
        w.u64(self.clock.period().as_ps());
        w.u64(self.kernel_latency_cycles);
        w.len64(self.proxy_mshrs);
        w.u64(self.mmio_base);
        self.faults.canonical_encode(w);
    }

    /// The canonical encoding as an owned buffer.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut w = duet_sim::SnapWriter::new();
        self.canonical_encode(&mut w);
        w.finish()
    }

    /// A stable 64-bit digest of the canonical encoding
    /// ([`canonical_encode`](SystemConfig::canonical_encode)).
    ///
    /// Stamped into snapshot headers so a snapshot taken under one
    /// configuration refuses to load into a system built from another.
    /// The fault plan *is* folded in — replaying a checkpoint under a
    /// different plan would silently change the run.
    pub fn config_hash(&self) -> u64 {
        use duet_sim::SnapHasher;
        let mut h = SnapHasher::new();
        h.bytes(&self.canonical_bytes());
        h.finish()
    }

    /// Total number of tiles: P-tiles + C-tile + M-tiles.
    pub fn tiles(&self) -> usize {
        let fpga_tiles = if self.has_fpga() {
            1 + self.memory_hubs.saturating_sub(1)
        } else {
            0
        };
        self.processors + fpga_tiles
    }

    /// Mesh dimensions: the smallest near-square grid that fits the tiles.
    pub fn mesh_dims(&self) -> (usize, usize) {
        let n = self.tiles().max(1);
        let w = (n as f64).sqrt().ceil() as usize;
        let h = n.div_ceil(w);
        (w, h)
    }

    /// NoC node of processor `i`.
    pub fn core_node(&self, i: usize) -> usize {
        assert!(i < self.processors);
        i
    }

    /// NoC node of the C-tile (Control Hub + Memory Hub 0).
    pub fn ctile_node(&self) -> usize {
        assert!(self.has_fpga(), "no C-tile in a processor-only system");
        self.processors
    }

    /// NoC nodes of all Memory Hubs (hub 0 shares the C-tile).
    pub fn hub_nodes(&self) -> Vec<usize> {
        if !self.has_fpga() || self.memory_hubs == 0 {
            return Vec::new();
        }
        let c = self.ctile_node();
        (0..self.memory_hubs).map(|k| c + k).collect()
    }

    /// The eFPGA clock.
    pub fn fpga_clock(&self) -> Clock {
        Clock::from_mhz(self.fpga_mhz)
    }

    /// Core configuration for hart `i`.
    pub fn core_config(&self, i: usize) -> CoreConfig {
        let mut c = CoreConfig::dolly(self.clock, i as u64);
        c.mmio_base = self.mmio_base;
        c
    }

    /// Per-tile private-L2 configuration.
    pub fn l2_config(&self) -> CacheConfig {
        CacheConfig::dolly_l2(self.clock)
    }

    /// L3-shard configuration.
    pub fn dir_config(&self) -> DirConfig {
        DirConfig::dolly_l3(self.clock)
    }

    /// Adapter configuration (hub clock domain depends on the variant).
    pub fn adapter_config(&self) -> AdapterConfig {
        let hub_clock = match self.variant {
            Variant::Fpsoc => self.fpga_clock(),
            _ => self.clock,
        };
        let mut proxy = CacheConfig::dolly_l2(hub_clock).with_mshrs(self.proxy_mshrs);
        if self.variant == Variant::Fpsoc {
            proxy = proxy.in_slow_domain();
        }
        let hub = MemoryHubConfig {
            proxy,
            ..MemoryHubConfig::dolly(self.clock)
        };
        AdapterConfig {
            mmio_base: self.mmio_base,
            hub,
            ctrl: ControlHubConfig::dolly(self.clock),
            irq_target: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dolly_p2m2_topology_matches_fig8() {
        // Fig. 8: Dolly-P2M2 = 2 P-tiles, 1 C-tile, 1 M-tile = 4 tiles.
        let c = SystemConfig::dolly(2, 2, 100.0);
        assert_eq!(c.tiles(), 4);
        assert_eq!(c.mesh_dims(), (2, 2));
        assert_eq!(c.ctile_node(), 2);
        assert_eq!(c.hub_nodes(), vec![2, 3]);
    }

    #[test]
    fn p1m0_has_ctile_but_no_hubs() {
        let c = SystemConfig::dolly(1, 0, 100.0);
        assert_eq!(c.tiles(), 2);
        assert!(c.hub_nodes().is_empty());
        assert_eq!(c.ctile_node(), 1);
    }

    #[test]
    fn proc_only_has_no_fpga_tiles() {
        let c = SystemConfig::proc_only(4);
        assert_eq!(c.tiles(), 4);
        assert!(c.hub_nodes().is_empty());
    }

    #[test]
    fn p16m1_mesh_is_near_square() {
        let c = SystemConfig::dolly(16, 1, 126.0);
        let (w, h) = c.mesh_dims();
        assert!(w * h >= 17);
        assert!(w.abs_diff(h) <= 1);
    }

    #[test]
    fn validate_accepts_the_stock_constructors() {
        assert_eq!(SystemConfig::dolly(2, 2, 100.0).validate(), Ok(()));
        assert_eq!(SystemConfig::fpsoc(1, 1, 137.0).validate(), Ok(()));
        assert_eq!(SystemConfig::proc_only(4).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_malformed_configs() {
        let mut c = SystemConfig::proc_only(0);
        assert_eq!(c.validate(), Err(ConfigError::NoProcessors));
        c = SystemConfig::proc_only(1);
        c.memory_hubs = 2;
        assert_eq!(
            c.validate(),
            Err(ConfigError::HubsWithoutFpga { memory_hubs: 2 })
        );
        c = SystemConfig::dolly(1, 1, 0.0);
        assert_eq!(
            c.validate(),
            Err(ConfigError::InvalidFpgaClock { mhz: 0.0 })
        );
        c = SystemConfig::dolly(1, 1, f64::NAN);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::InvalidFpgaClock { .. })
        ));
    }

    #[test]
    fn mesh_presets_are_square() {
        let c = SystemConfig::mesh_8x8();
        assert_eq!(c.tiles(), 64);
        assert_eq!(c.mesh_dims(), (8, 8));
        assert_eq!(c.validate(), Ok(()));
        let c = SystemConfig::mesh_16x16();
        assert_eq!(c.tiles(), 256);
        assert_eq!(c.mesh_dims(), (16, 16));
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn config_hash_covers_state_fields_and_ignores_shard_knobs() {
        use duet_verify::{FaultKind, FaultSpec};
        let base = SystemConfig::dolly(2, 2, 100.0);
        assert_eq!(base.config_hash(), base.clone().config_hash());

        // The inert thread knobs are not part of config identity: setting
        // them moves no snapshot header and no service cache key.
        let mut threaded = base.clone();
        threaded.sim_threads = 4;
        threaded.mesh_shards = 2;
        assert_eq!(base.config_hash(), threaded.config_hash());

        // Everything that changes simulated behavior must change the hash.
        let mut other = base.clone();
        other.processors = 3;
        assert_ne!(base.config_hash(), other.config_hash());
        let mut other = base.clone();
        other.fpga_mhz = 126.0;
        assert_ne!(base.config_hash(), other.config_hash());
        let mut other = base.clone();
        other.faults = other.faults.with(FaultSpec::starting(
            FaultKind::AccelHang,
            duet_sim::Time::from_us(1),
        ));
        assert_ne!(base.config_hash(), other.config_hash());
    }

    #[test]
    fn fpsoc_variant_puts_proxy_in_slow_domain() {
        let c = SystemConfig::fpsoc(1, 1, 100.0);
        let a = c.adapter_config();
        assert!(a.hub.proxy.slow_domain);
        assert_eq!(a.hub.proxy.clock.period().as_ps(), 10_000);
        let d = SystemConfig::dolly(1, 1, 100.0).adapter_config();
        assert!(!d.hub.proxy.slow_domain);
        assert_eq!(d.hub.proxy.clock.period().as_ps(), 1000);
    }
}
