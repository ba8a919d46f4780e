//! The assembled Dolly system: cores + L1/L2 + distributed L3 + NoC +
//! Duet Adapter + eFPGA, driven by a dual-clock edge loop.
//!
//! This module holds the [`System`] state and its inspection/configuration
//! surface. Construction and the component registry live in `wiring`, the
//! dual-clock run loop in `run_loop`, and statistics/link reporting in
//! `stats`.

use std::sync::Arc;

use duet_core::{DuetAdapter, DuetMsg, RegMode};
use duet_cpu::{Core, Program};
use duet_fpga::ports::SoftAccelerator;
use duet_mem::priv_cache::{HomeMap, LineState, PrivCache};
use duet_mem::tlb::{PagePerms, PageTable};
use duet_mem::types::{read_scalar, LineAddr, MemReq, Width, LINE_BYTES};
use duet_mem::L3Shard;
use duet_noc::{Mesh, NodeId};
use duet_sim::{DualClock, IdSlab, Link, Time};
use duet_trace::{Scoreboard, TraceConfig, TraceSession, Tracer};
use duet_verify::{MesiChecker, NocOrderChecker, Violation};

use crate::config::{SystemConfig, Variant};
use crate::run_loop::OsTask;
use crate::wiring::SlowHubCdc;

pub use crate::stats::RunStats;

/// What cache (if any) lives at a NoC node, precomputed at wiring time so
/// per-message dispatch is a table lookup instead of a scan. Every node
/// additionally hosts an L3 shard; the role only describes the cache side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NodeRole {
    /// P-tile: core `i` with its private L2.
    Core(usize),
    /// Tile hosting Memory Hub `h` (hub 0 shares the C-tile).
    Hub(usize),
    /// No cache at this node (C-tile without hubs, filler tiles).
    ShardOnly,
}

/// The full simulated system. Build with [`System::new`], load memory and
/// programs, then [`run_until_halt`](System::run_until_halt).
pub struct System {
    pub(crate) cfg: SystemConfig,
    pub(crate) dual: DualClock,
    pub(crate) mesh: Mesh<DuetMsg>,
    pub(crate) cores: Vec<Core>,
    /// Per-core private L2 (index = core index; node = core node).
    pub(crate) l2s: Vec<PrivCache>,
    /// One shard per mesh node.
    pub(crate) shards: Vec<L3Shard>,
    pub(crate) adapter: Option<DuetAdapter>,
    pub(crate) accel: Option<Box<dyn SoftAccelerator>>,
    pub(crate) home: HomeMap,
    /// Per-node injection pipes toward the mesh (backpressure buffers).
    pub(crate) inject_pending: Vec<Link<(NodeId, DuetMsg)>>,
    /// Total entries across `inject_pending` (O(1) activity check).
    pub(crate) inject_pending_total: usize,
    /// Sorted superset of the nodes whose injection pipes are non-empty,
    /// so the injection pump visits only live pipes (ascending — the same
    /// order as a full node scan).
    pub(crate) inject_dirty: duet_noc::DirtyNodes,
    /// Core cached-request held when the L2 queue is full.
    pub(crate) core_held: Vec<Option<MemReq>>,
    /// Per-node cache role, indexed by NoC node (built in wiring).
    pub(crate) node_roles: Vec<NodeRole>,
    /// MMIO id mangling: slab id -> (core index, original id). The wire id
    /// *is* the slot index, so response lookup is an array access.
    pub(crate) mmio_ids: IdSlab<(usize, u64)>,
    /// Monotone id counter for OS-stub MMIOs (fire-and-forget: tagged with
    /// `OS_ID_BASE`, never looked up on response).
    pub(crate) next_os_mmio_id: u64,
    /// OS model.
    pub(crate) page_table: PageTable,
    pub(crate) os_tasks: Vec<(Time, OsTask)>,
    /// CDC wrappers per hub (FPSoC variant only).
    pub(crate) slow_cdc: Vec<SlowHubCdc>,
    pub(crate) stats: RunStats,
    /// Host-side counter of edges actually executed (not skipped). Unlike
    /// [`RunStats`] edge counts — which are reconstructed to match
    /// exhaustive ticking bit-for-bit — this differs between skip modes;
    /// it exists only for host-performance introspection.
    pub(crate) executed_edges: u64,
    pub(crate) now: Time,
    /// Event-horizon scheduling: when set (the default), run loops jump
    /// over provably-dead clock edges and fast edges skip provably-idle
    /// components. Cycle-for-cycle identical to exhaustive ticking; turn
    /// off only to cross-check (see the differential determinism tests).
    pub(crate) skip_enabled: bool,
    /// Per-run trace session, when [`enable_tracing`](System::enable_tracing)
    /// was called. Tracing is strictly observational: fingerprints and all
    /// timing statistics are bit-identical with it on or off.
    pub(crate) trace: Option<TraceSession>,
    /// Run-loop trace handle (edge execution and horizon skips).
    pub(crate) sys_tracer: Tracer,
    /// Accelerator trace handle (start/stall/done).
    pub(crate) accel_tracer: Tracer,
    /// Shadow of the accelerator's busy state, for start/done edges.
    pub(crate) accel_busy: bool,

    // ----- fault injection & runtime verification (duet-verify) -----
    /// Per-spec latch: whether spec `i`'s window is currently applied.
    pub(crate) fault_active: Vec<bool>,
    /// Per-node index over the plan's NoC specs, so the injection pump and
    /// ejection dispatcher consult only the specs targeting their node
    /// instead of scanning the whole plan per message.
    pub(crate) fault_index: duet_verify::FaultIndex,
    /// Per-spec remaining budget for count-limited faults (`u64::MAX` for
    /// window-only kinds). Atomic so the sharded component passes can
    /// decrement through a shared borrow; every counter still has exactly
    /// one consumer per edge (each spec targets a single node), so the
    /// values are deterministic.
    pub(crate) fault_budget: Vec<std::sync::atomic::AtomicU64>,
    /// Messages held back by an active `NocReorder` fault:
    /// `(spec index, eject node, message)`.
    pub(crate) reorder_stash: Vec<(usize, NodeId, duet_noc::Message<DuetMsg>)>,
    /// Runtime MESI invariant checker (pure observer, always on).
    pub(crate) mesi_checker: MesiChecker,
    /// Runtime NoC point-to-point ordering checker (pure observer).
    pub(crate) noc_checker: NocOrderChecker,
    /// Adapter/MMIO invariant breaks recorded in place of panics.
    pub(crate) adapter_violations: u64,
    /// First violation not yet surfaced as a
    /// [`RunError`](duet_verify::RunError).
    pub(crate) pending_violation: Option<Violation>,
    /// Fault-window activations observed so far.
    pub(crate) faults_injected: u64,
    /// Accelerator fences performed by the degradation watchdog.
    pub(crate) fences: u64,
    /// The accelerator has been fenced off: its ticks are suppressed and
    /// the adapter answers MMIO with error status.
    pub(crate) accel_fenced: bool,
    /// Watchdog: last sampled adapter progress signature and the time it
    /// last changed.
    pub(crate) watchdog_sig: u64,
    pub(crate) watchdog_since: Time,

    // ----- intra-run parallel simulation (parallel) -----
    /// Effective shard count for the fast-edge component passes
    /// (resolved from `cfg.sim_threads` / `DUET_SIM_THREADS` at wiring).
    pub(crate) sim_shards: usize,
    /// Contiguous weight-balanced partition of the node range; always at
    /// least one shard covering every node.
    pub(crate) shard_plan: Vec<crate::parallel::ShardSpec>,
    /// Per-shard output lanes (deferred MMIOs, pipe accounting), replayed
    /// in shard order after the passes.
    pub(crate) shard_lanes: Vec<crate::parallel::ShardLane>,
    /// Effective mesh-tick shard count (resolved from `cfg.mesh_shards` /
    /// `DUET_MESH_SHARDS` at wiring; 0 in the config follows `sim_shards`).
    pub(crate) mesh_shards: usize,
    /// Below this many active routers the sharded mesh tick runs inline
    /// instead of waking the pool (0 when `DUET_SIM_FORCE_THREADS=1`, so
    /// the determinism tests exercise the pooled path on tiny meshes).
    pub(crate) mesh_pool_min_active: usize,
    /// Persistent worker threads, spawned lazily on the first pooled pass.
    /// Shared between the component passes and the sharded mesh tick (one
    /// epoch each per fast edge).
    pub(crate) shard_pool: Option<crate::parallel::ShardPool>,
    /// Whether multi-shard passes may use real worker threads (host has
    /// parallelism, or `DUET_SIM_FORCE_THREADS=1`); otherwise the sharded
    /// schedule runs inline on the coordinator.
    pub(crate) pool_enabled: bool,
    /// Per-shard trace scratch rings, built lazily while tracing is on
    /// and invalidated by [`enable_tracing`](System::enable_tracing).
    pub(crate) trace_scratch: Option<crate::parallel::TraceScratch>,
    /// Per-shard wake sets: the components each pass must visit. Derived
    /// state — never serialized, refilled by `restore()` and `fork()`.
    pub(crate) wake: Vec<crate::parallel::ShardWake>,
    /// Reused buffer for the jobs of one pool epoch.
    pub(crate) jobs: Vec<crate::parallel::ShardJob>,
}

impl System {
    /// Enables or disables event-horizon scheduling (dead-edge skipping
    /// and idle-component gating). On by default; both settings produce
    /// bit-identical results — the off position exists so tests can
    /// cross-check against exhaustive edge-by-edge ticking.
    pub fn set_edge_skipping(&mut self, on: bool) {
        self.skip_enabled = on;
        if !on {
            // Exhaustive ticking visits everything on every edge.
            self.wake_everything();
        }
    }

    /// Enables event tracing for subsequent runs: creates a per-run
    /// [`TraceSession`] and threads trace handles through every layer (run
    /// loop, mesh, private L2s, L3 shards, adapter hubs, accelerator
    /// ports). Components register in the canonical walk order, one trace
    /// track each. Calling again replaces the previous session.
    ///
    /// Tracing is purely observational — simulation results, fingerprints,
    /// and all timing statistics are bit-identical with it on or off (the
    /// differential tests assert this).
    pub fn enable_tracing(&mut self, tcfg: &TraceConfig) {
        let mut session = TraceSession::new(tcfg);
        self.sys_tracer = session.tracer("runloop");
        self.mesh.set_tracer(session.tracer("mesh"));
        for i in 0..self.l2s.len() {
            let node = self.cfg.core_node(i);
            self.l2s[i].set_tracer(session.tracer(&format!("l2@n{node}")));
        }
        for s in self.shards.iter_mut() {
            let node = s.node();
            s.set_tracer(session.tracer(&format!("l3@n{node}")));
        }
        if let Some(a) = self.adapter.as_mut() {
            a.install_tracers(&mut session);
        }
        self.accel_tracer = session.tracer("accel");
        if let Some(a) = self.adapter.as_mut() {
            a.set_fabric_tracer(self.accel_tracer.clone());
        }
        // The scratch rings cache clones of the per-component tracers, so
        // a new session invalidates them (rebuilt lazily on the next
        // sharded pass).
        self.trace_scratch = None;
        self.trace = Some(session);
    }

    /// Whether a trace session is active.
    pub fn tracing_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// The active trace session (event inspection), if any.
    pub fn trace_session(&self) -> Option<&TraceSession> {
        self.trace.as_ref()
    }

    /// Exports the captured trace as Chrome trace-event JSON (loadable in
    /// Perfetto / `chrome://tracing`), if tracing is enabled.
    pub fn trace_chrome_json(&self) -> Option<String> {
        self.trace.as_ref().map(|t| t.chrome_trace())
    }

    /// Exports the captured trace as a plain-text event log.
    pub fn trace_text_log(&self) -> Option<String> {
        self.trace.as_ref().map(|t| t.text_log())
    }

    /// Derived scoreboards (latency histograms, MESI transition counts)
    /// computed from the captured events.
    pub fn trace_scoreboard(&self) -> Option<Scoreboard> {
        self.trace.as_ref().map(|t| t.scoreboard())
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Mutable access to core `i`.
    pub fn core_mut(&mut self, i: usize) -> &mut Core {
        // Whatever the caller changes, the next pass looks at the core.
        self.wake_core(i);
        &mut self.cores[i]
    }

    /// Shared access to core `i`.
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i]
    }

    /// Per-core private L2 (inspection).
    pub fn l2(&self, i: usize) -> &PrivCache {
        &self.l2s[i]
    }

    /// The NoC (inspection).
    pub fn mesh(&self) -> &Mesh<DuetMsg> {
        &self.mesh
    }

    /// The Duet Adapter, if the configuration has one.
    pub fn adapter_mut(&mut self) -> &mut DuetAdapter {
        match self.adapter.as_mut() {
            Some(a) => a,
            None => panic!("configuration has no eFPGA"),
        }
    }

    /// The Duet Adapter (shared).
    pub fn adapter(&self) -> &DuetAdapter {
        match self.adapter.as_ref() {
            Some(a) => a,
            None => panic!("configuration has no eFPGA"),
        }
    }

    /// The kernel's page table (the OS stub consults it on page faults).
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    /// Attaches the soft accelerator (the programmed fabric design).
    pub fn attach_accelerator(&mut self, accel: Box<dyn SoftAccelerator>) {
        assert!(self.cfg.has_fpga, "no eFPGA in this configuration");
        self.accel = Some(accel);
    }

    /// The attached accelerator, for post-run inspection.
    pub fn accelerator(&self) -> Option<&dyn SoftAccelerator> {
        self.accel.as_deref()
    }

    /// Mutable accelerator access.
    pub fn accelerator_mut(&mut self) -> Option<&mut (dyn SoftAccelerator + '_)> {
        match self.accel.as_mut() {
            Some(b) => Some(b.as_mut()),
            None => None,
        }
    }

    /// Configures a soft register's mode, honoring the variant: the
    /// FPSoC-like baseline "downgrades all shadowed soft registers to
    /// normal registers" (Sec. V-D).
    pub fn set_reg_mode(&mut self, reg: usize, mode: RegMode) {
        let effective = match (self.cfg.variant, mode) {
            (Variant::Fpsoc, RegMode::ShadowPlain)
            | (Variant::Fpsoc, RegMode::FpgaBound)
            | (Variant::Fpsoc, RegMode::CpuBound)
            | (Variant::Fpsoc, RegMode::Token) => RegMode::Normal,
            (_, m) => m,
        };
        self.adapter_mut().control.set_reg_mode(reg, effective);
    }

    /// Loads `program` into core `i` starting at `entry`.
    pub fn load_program(&mut self, i: usize, program: Arc<Program>, entry: &str) {
        let cfg = self.cfg.core_config(i);
        let mut core = Core::new(cfg, program);
        core.set_pc_label(entry);
        self.wake_core(i);
        self.cores[i] = core;
    }

    // ----- memory image access -----

    /// Writes bytes into the memory image (pre-run initialization).
    pub fn poke_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (k, &b) in bytes.iter().enumerate() {
            let a = addr + k as u64;
            let line = LineAddr::containing(a);
            let home = self.home.home_of(line);
            let mut data = self.shards[home].peek_line(line);
            data[LineAddr::offset(a)] = b;
            self.shards[home].poke_line(line, data);
        }
    }

    /// Writes a u64 into the memory image.
    pub fn poke_u64(&mut self, addr: u64, v: u64) {
        self.poke_bytes(addr, &v.to_le_bytes());
    }

    /// Writes an f64 into the memory image.
    pub fn poke_f64(&mut self, addr: u64, v: f64) {
        self.poke_u64(addr, v.to_bits());
    }

    /// Reads bytes from the memory image (NOT coherence-aware; prefer
    /// [`peek_u64`](System::peek_u64) after a quiesced run).
    pub fn peek_bytes_raw(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|k| {
                let a = addr + k as u64;
                let line = LineAddr::containing(a);
                let home = self.home.home_of(line);
                self.shards[home].peek_line(line)[LineAddr::offset(a)]
            })
            .collect()
    }

    /// Directory inspection (debug aid): `(owner, sharers)` of a line at
    /// its home shard.
    pub fn dir_state(&self, line: LineAddr) -> (Option<NodeId>, Vec<NodeId>) {
        let home = self.home.home_of(line);
        (
            self.shards[home].owner_of(line),
            self.shards[home].sharers_of(line),
        )
    }

    /// Reads the globally visible line value: the owner's cached copy if
    /// one exists, else the memory image.
    pub fn peek_line(&self, line: LineAddr) -> [u8; LINE_BYTES] {
        let home = self.home.home_of(line);
        if let Some(owner) = self.shards[home].owner_of(line) {
            if let Some(d) = self.component_line(owner, line) {
                return d;
            }
        }
        self.shards[home].peek_line(line)
    }

    /// The cached copy of `line` at `node`, if the node hosts a cache that
    /// holds it.
    fn component_line(&self, node: NodeId, line: LineAddr) -> Option<[u8; LINE_BYTES]> {
        match self.node_roles[node] {
            NodeRole::Core(i) => self.l2s[i].peek_line(line),
            NodeRole::Hub(h) => self.adapter.as_ref()?.hubs[h].peek_proxy_line(line),
            NodeRole::ShardOnly => None,
        }
    }

    /// Reads a coherently-visible u64.
    pub fn peek_u64(&self, addr: u64) -> u64 {
        let line = self.peek_line(LineAddr::containing(addr));
        read_scalar(&line, LineAddr::offset(addr), Width::B8)
    }

    /// Reads a coherently-visible u32.
    pub fn peek_u32(&self, addr: u64) -> u32 {
        let line = self.peek_line(LineAddr::containing(addr));
        read_scalar(&line, LineAddr::offset(addr), Width::B4) as u32
    }

    /// Reads a coherently-visible f64.
    pub fn peek_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.peek_u64(addr))
    }

    // ----- cache warm-up (the paper's warm-start baselines) -----

    /// Warms `len` bytes at `base` into core `i`'s L2 in shared state (and
    /// the L3 tags), so the first loads hit.
    pub fn warm_shared(&mut self, base: u64, len: u64, core: usize) {
        let node = self.cfg.core_node(core);
        let first = LineAddr::containing(base);
        let last = LineAddr::containing(base + len.max(1) - 1);
        for l in first.0..=last.0 {
            let line = LineAddr(l);
            let home = self.home.home_of(line);
            let data = self.shards[home].peek_line(line);
            self.shards[home].warm_sharer(line, node);
            self.l2s[core].warm_insert(line, data, LineState::S);
        }
    }

    /// Warms lines into core `i`'s L2 in exclusive state.
    pub fn warm_exclusive(&mut self, base: u64, len: u64, core: usize) {
        let node = self.cfg.core_node(core);
        let first = LineAddr::containing(base);
        let last = LineAddr::containing(base + len.max(1) - 1);
        for l in first.0..=last.0 {
            let line = LineAddr(l);
            let home = self.home.home_of(line);
            let data = self.shards[home].peek_line(line);
            self.shards[home].warm_owner(line, node);
            self.l2s[core].warm_insert(line, data, LineState::E);
        }
    }

    // ----- identity-map helper for accelerator virtual addressing -----

    /// Identity-maps a range in the kernel page table (used with
    /// TLB-enabled hubs).
    pub fn map_identity(&mut self, base: u64, len: u64) {
        self.page_table
            .map_range_identity(base, len, PagePerms::rw());
    }

    // ----- runtime verification (duet-verify) -----

    /// The runtime MESI invariant checker (pure observer; always on).
    pub fn mesi_checker(&self) -> &MesiChecker {
        &self.mesi_checker
    }

    /// The runtime NoC point-to-point ordering checker.
    pub fn noc_checker(&self) -> &NocOrderChecker {
        &self.noc_checker
    }

    /// Total violations recorded by every runtime checker (MESI, NoC
    /// ordering, adapter/MMIO invariants).
    pub fn checker_violations(&self) -> u64 {
        self.mesi_checker.violations() + self.noc_checker.violations() + self.adapter_violations
    }

    /// Fault-window activations observed so far (one per spec activation,
    /// not per affected message).
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Accelerator fences performed by the degradation watchdog.
    pub fn fences(&self) -> u64 {
        self.fences
    }

    /// Whether the degradation watchdog has fenced the accelerator off.
    pub fn accel_fenced(&self) -> bool {
        self.accel_fenced
    }

    /// Structural coherence sweep: cross-checks every *stable* directory
    /// entry against the actual cache states at each node. Intended after
    /// [`quiesce`](System::quiesce) — while transactions are in flight a
    /// cache and its home legitimately disagree (the sweep skips busy
    /// directory entries, but an in-flight `PutM`, for example, leaves a
    /// stable entry naming an owner that already evicted).
    ///
    /// Checks, per line: the registered owner holds the line in E/M; no
    /// other cache holds it in any valid state when an owner is registered;
    /// every cache holding the line is listed as a sharer (sharer lists are
    /// allowed to be supersets — silent S evictions).
    pub fn check_coherence(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let cache_nodes: Vec<NodeId> = (0..self.node_roles.len())
            .filter(|&n| self.node_roles[n] != NodeRole::ShardOnly)
            .collect();
        for shard in &self.shards {
            for (line, owner, sharers, busy) in shard.dir_entries() {
                if busy {
                    continue;
                }
                if let Some(o) = owner {
                    match self.cache_line_state(o, line) {
                        Some(LineState::E) | Some(LineState::M) => {}
                        other => out.push(Violation::MesiDirectoryMismatch {
                            line: line.0,
                            detail: format!(
                                "directory names n{o} owner but its cache holds {other:?}"
                            ),
                        }),
                    }
                }
                for &n in &cache_nodes {
                    let Some(st) = self.cache_line_state(n, line) else {
                        continue;
                    };
                    match owner {
                        Some(o) if n != o => out.push(Violation::MesiDirectoryMismatch {
                            line: line.0,
                            detail: format!(
                                "n{n} holds {st:?} while the directory names n{o} owner"
                            ),
                        }),
                        Some(_) => {}
                        None => {
                            if st != LineState::S {
                                out.push(Violation::MesiDirectoryMismatch {
                                    line: line.0,
                                    detail: format!(
                                        "n{n} holds {st:?} but the directory has no owner"
                                    ),
                                });
                            } else if !sharers.contains(&n) {
                                out.push(Violation::MesiDirectoryMismatch {
                                    line: line.0,
                                    detail: format!(
                                        "n{n} holds S but is missing from the sharer list"
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The MESI state of `line` in the cache at `node`, if the node hosts
    /// a cache that currently holds it.
    fn cache_line_state(&self, node: NodeId, line: LineAddr) -> Option<LineState> {
        match self.node_roles[node] {
            NodeRole::Core(i) => self.l2s[i].line_state(line),
            NodeRole::Hub(h) => self.adapter.as_ref()?.hubs[h].proxy_line_state(line),
            NodeRole::ShardOnly => None,
        }
    }
}
