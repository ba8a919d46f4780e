//! System construction: component instantiation, link wiring, and the
//! canonical component registry walk.
//!
//! [`System::new`] validates the [`SystemConfig`], builds every component
//! (cores, private L2s, L3 shards, mesh, adapter), and wires the
//! cross-component links: per-node injection pipes toward the mesh and —
//! for the FPSoC variant — the [`SlowHubCdc`] clock-domain crossings that
//! carry coherence traffic into and out of the slow-domain Memory Hubs.

use std::sync::Arc;

use duet_cpu::{Core, Program};
use duet_mem::priv_cache::{HomeMap, PrivCache};
use duet_mem::tlb::PageTable;
use duet_mem::L3Shard;
use duet_noc::{Mesh, MeshConfig};
use duet_sim::{Component, DualClock, Link, Time};

use crate::config::{ConfigError, SystemConfig, Variant};
use crate::stats::RunStats;
use crate::system::{NodeRole, System};
use duet_core::DuetAdapter;
use duet_mem::msg::CoherenceMsg;
use duet_noc::NodeId;

/// CDC wrapper for a slow-domain Memory Hub's NoC side (FPSoC variant).
#[derive(Clone)]
pub(crate) struct SlowHubCdc {
    /// Fast → slow: ejected coherence messages heading into the hub.
    pub(crate) into_hub: Link<(NodeId, CoherenceMsg, Time)>,
    /// Slow → fast: hub responses heading onto the NoC.
    pub(crate) from_hub: Link<(NodeId, CoherenceMsg)>,
}

impl System {
    /// Builds an idle system, or reports why the configuration cannot be
    /// built (see [`SystemConfig::validate`]).
    pub fn new(cfg: SystemConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let (w, h) = cfg.mesh_dims();
        let mesh_cfg = MeshConfig::new(w, h, cfg.clock);
        let nodes = mesh_cfg.nodes();
        let home = HomeMap::new((0..nodes).collect());
        let cores = (0..cfg.processors)
            .map(|i| Core::new(cfg.core_config(i), Arc::new(Program::default())))
            .collect();
        let l2s = (0..cfg.processors)
            .map(|i| PrivCache::new(cfg.l2_config(), cfg.core_node(i), home.clone()))
            .collect();
        // `home` interleaves lines over every node in order.
        let shards = (0..nodes)
            .map(|n| L3Shard::new(cfg.dir_config(), n).interleaved(nodes, n))
            .collect();
        let adapter = cfg.has_fpga.then(|| {
            DuetAdapter::new(
                cfg.adapter_config(),
                cfg.ctile_node(),
                &cfg.hub_nodes(),
                home.clone(),
                cfg.fpga_clock(),
            )
        });
        // Per-node cache role: message dispatch and coherent peeks index
        // this table instead of scanning core/hub lists per message.
        let mut node_roles = vec![NodeRole::ShardOnly; nodes];
        for i in 0..cfg.processors {
            node_roles[cfg.core_node(i)] = NodeRole::Core(i);
        }
        for (h, &n) in cfg.hub_nodes().iter().enumerate() {
            node_roles[n] = NodeRole::Hub(h);
        }
        let slow_cdc = if cfg.variant == Variant::Fpsoc {
            let fast = cfg.clock;
            let slow = cfg.fpga_clock();
            (0..cfg.memory_hubs)
                .map(|_| SlowHubCdc {
                    into_hub: Link::cdc(16, 2, fast, slow),
                    from_hub: Link::cdc(16, 2, slow, fast),
                })
                .collect()
        } else {
            Vec::new()
        };
        // Count-limited faults get their budget up front; window-only
        // kinds are effectively unbudgeted. Atomic cells so the sharded
        // component passes can decrement through a shared borrow.
        let fault_budget = cfg
            .faults
            .specs
            .iter()
            .map(|s| match s.kind {
                duet_verify::FaultKind::NocReorder { count, .. }
                | duet_verify::FaultKind::NocDrop { count, .. }
                | duet_verify::FaultKind::L3RespDrop { count, .. } => u64::from(count),
                _ => u64::MAX,
            })
            .map(std::sync::atomic::AtomicU64::new)
            .collect();
        // Intra-run parallelism: partition the node range into
        // weight-balanced contiguous shards; one shard reproduces the
        // classic serial loop through the same code path.
        let sim_shards = crate::parallel::resolve_sim_shards(cfg.sim_threads, nodes);
        let shard_plan = crate::parallel::build_shard_plan(&node_roles, cfg.processors, sim_shards);
        let sim_shards = shard_plan.len();
        let shard_lanes = (0..sim_shards)
            .map(|_| crate::parallel::ShardLane::default())
            .collect();
        let wake = crate::parallel::ShardWake::all_awake(&shard_plan);
        // Mesh-tick sharding rides the same pool: the mesh keeps its own
        // contiguous partition (rebalanced from observed router load), the
        // system only tells it how many shards to aim for.
        let mesh_shards = crate::parallel::resolve_mesh_shards(cfg.mesh_shards, sim_shards, nodes);
        let mut mesh = Mesh::new(mesh_cfg);
        mesh.set_shards(mesh_shards);
        let pool_enabled =
            (sim_shards > 1 || mesh_shards > 1) && crate::parallel::want_worker_threads();
        let mesh_pool_min_active =
            if std::env::var("DUET_SIM_FORCE_THREADS").is_ok_and(|v| v == "1") {
                0
            } else {
                crate::parallel::MESH_POOL_MIN_ACTIVE
            };
        Ok(System {
            dual: DualClock::new(cfg.clock, cfg.fpga_clock()),
            mesh,
            cores,
            l2s,
            shards,
            adapter,
            accel: None,
            home,
            inject_pending: (0..nodes).map(|_| Link::pipe()).collect(),
            inject_pending_total: 0,
            inject_dirty: duet_noc::DirtyNodes::new(),
            core_held: vec![None; cfg.processors],
            node_roles,
            mmio_ids: duet_sim::IdSlab::new(),
            next_os_mmio_id: 1,
            page_table: PageTable::new(),
            os_tasks: Vec::new(),
            slow_cdc,
            stats: RunStats::default(),
            executed_edges: 0,
            now: Time::ZERO,
            // On unless DUET_DISABLE_EDGE_SKIP=1 (the exhaustive baseline
            // loop, for A/B wall-clock comparisons; results are identical).
            skip_enabled: !std::env::var("DUET_DISABLE_EDGE_SKIP").is_ok_and(|v| v == "1"),
            trace: None,
            sys_tracer: duet_trace::Tracer::disabled(),
            accel_tracer: duet_trace::Tracer::disabled(),
            accel_busy: false,
            fault_active: vec![false; cfg.faults.specs.len()],
            fault_index: duet_verify::FaultIndex::new(&cfg.faults, nodes),
            fault_budget,
            reorder_stash: Vec::new(),
            mesi_checker: duet_verify::MesiChecker::new(),
            noc_checker: duet_verify::NocOrderChecker::new(),
            adapter_violations: 0,
            pending_violation: None,
            faults_injected: 0,
            fences: 0,
            accel_fenced: false,
            watchdog_sig: 0,
            watchdog_since: Time::ZERO,
            sim_shards,
            shard_plan,
            shard_lanes,
            mesh_shards,
            mesh_pool_min_active,
            shard_pool: None,
            pool_enabled,
            trace_scratch: None,
            wake,
            jobs: Vec::new(),
            cfg,
        })
    }

    /// Walks every registered [`Component`] in canonical order: cores, the
    /// mesh, private L2s, L3 shards, then the adapter's Control Hub and
    /// Memory Hubs. The visitor returns `false` to stop the walk early
    /// (used by the horizon merge once a component is already due).
    ///
    /// Merge *order* never affects results — a horizon is a pure minimum —
    /// so this single walk serves both scheduling and reporting.
    pub(crate) fn visit_components(&self, visit: &mut dyn FnMut(&dyn Component) -> bool) {
        for c in &self.cores {
            if !visit(c) {
                return;
            }
        }
        if !visit(&self.mesh) {
            return;
        }
        for l2 in &self.l2s {
            if !visit(l2) {
                return;
            }
        }
        for s in &self.shards {
            if !visit(s) {
                return;
            }
        }
        if let Some(a) = &self.adapter {
            if !visit(&a.control) {
                return;
            }
            for h in &a.hubs {
                if !visit(h) {
                    return;
                }
            }
        }
    }
}
