//! Intra-run parallel simulation: the sharded fast-edge component passes.
//!
//! The fast edge is split into four regions:
//!
//! 1. **Serial prelude** (coordinator only): OS tasks, injection pump.
//! 2. **Sharded mesh tick** ([`System::mesh_pass`]): the router grid is
//!    partitioned into contiguous ranges ticked concurrently; each
//!    shard's switch arbitration works against a start-of-tick fullness
//!    snapshot, defers every queue mutation outside its range into a
//!    boundary-exchange lane, and the coordinator replays the lanes at a
//!    deterministic merge in (shard, port, queue) order — conservative
//!    PDES with the one-cycle link latency as lookahead, one pool epoch
//!    per mesh tick. The partition adapts to observed per-router load at
//!    fixed simulated-time quanta (see `duet-noc`). Ejection dispatch
//!    stays serial after the merge.
//! 3. **Sharded component passes**: the per-node components (private L2s,
//!    L3 shards, cores) are partitioned into contiguous node ranges — one
//!    [`ShardCtx`] per shard — and run concurrently between two epoch
//!    barriers. The serial loop is the degenerate case: one full-range
//!    shard through the *same* code path.
//! 4. **Serial postlude**: the adapter pass, then a deterministic merge
//!    of per-shard output lanes (deferred MMIO inserts, injection-pipe
//!    counters, dirty-node lists) in ascending shard order.
//!
//! # Determinism argument
//!
//! The conservative lookahead between shards is one clock edge: every
//! cross-shard channel (mesh hop FIFOs, injection pipes) has next-edge
//! visibility, so within one edge a shard can neither observe nor affect
//! another shard's components. Concretely:
//!
//! * Every queue push a shard performs lands in a structure owned by its
//!   own node range (its pipes, its caches), so per-queue push order is a
//!   pure function of the within-shard pass order — identical to serial.
//! * The only cross-shard writes are `L3RespDrop` budget decrements; each
//!   fault spec targets a single node, a node belongs to exactly one
//!   shard, so each counter has one consumer per edge.
//! * Side effects that would interleave nondeterministically are
//!   *deferred into per-shard lanes* and replayed at the merge in shard
//!   order: MMIO-id slab inserts (ascending core order — exactly the
//!   serial insert order) and trace events from L2s/L3s (per-shard
//!   scratch rings drained in serial component order).
//!
//! Hence merged state, statistics, and traces are byte-identical to the
//! serial loop for any shard count — the differential suite
//! (`tests/tests/parallel_determinism.rs`) asserts this.
//!
//! # Wake sets
//!
//! A pass visits only the *awake* members of its shard — one [`ShardWake`]
//! per shard holds a bitset each for its L2s, L3 shards and cores. The rule
//! is push-style: a component that only an outside call can change leaves
//! its set, and that call puts it back; nothing polls or retries per edge.
//! An L2 or L3 is woken at its two entry points (`cpu_request`,
//! `handle_msg*`) and leaves after a tick that ends with `is_active()`
//! false. A core leaves when `next_event_time` is `None` — see
//! [`Core::next_event_time`] for the states — and is put back before
//! `mem_response` reaches it, or, if it is spinning, before a
//! back-invalidation reaches its L1; the stall cycles it would have counted
//! while asleep are a difference of fast-edge indices, and a spinner's
//! progress is [`Core::catch_up`], both applied when it wakes (or when a
//! run loop returns). The sets are derived state: never serialized,
//! refilled after `restore()`/`fork()`, and kept full while edge skipping
//! is off, which makes every pass tick everything — the oracle the
//! determinism suites compare against. Debug builds check after every fast
//! edge that each set still covers what the polled predicates call due.
//!
//! # Execution modes
//!
//! With one shard the passes run inline with plain borrows. With several
//! shards and real host parallelism, a lazily-spawned [`ShardPool`] of
//! persistent workers runs them; the coordinator publishes raw,
//! range-disjoint views ([`RawShardView`]) guarded by an
//! [`EpochBarrier`]. On a single-CPU host the same sharded schedule runs
//! inline on the coordinator (so the reordered schedule, lane deferral,
//! and scratch tracing are exercised even without threads);
//! `DUET_SIM_FORCE_THREADS=1` forces real workers regardless.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use duet_core::DuetMsg;
use duet_cpu::Core;
use duet_mem::priv_cache::PrivCache;
use duet_mem::types::MemReq;
use duet_mem::L3Shard;
use duet_noc::NodeId;
use duet_sim::{BitSet, EpochBarrier, Link, Time};
use duet_trace::{TraceBuffer, Tracer};
use duet_verify::FaultKind;

use crate::config::SystemConfig;
use crate::system::{NodeRole, System};

/// One shard of the component graph: a contiguous node range plus the
/// core indices living inside it (cores occupy nodes `0..processors`).
#[derive(Clone, Debug)]
pub(crate) struct ShardSpec {
    /// Mesh nodes (and hence L3 shards / injection pipes) in this shard.
    pub(crate) nodes: Range<usize>,
    /// Core (= private L2) indices in this shard: `nodes ∩ 0..processors`.
    pub(crate) cores: Range<usize>,
}

/// Per-shard output lane: side effects a worker may not apply directly
/// (they would interleave nondeterministically across shards), collected
/// during the parallel region and replayed at the merge in shard order.
#[derive(Debug, Default)]
pub(crate) struct ShardLane {
    /// Deferred MMIO requests: `(core index, original request)`. Replayed
    /// ascending at the merge so `mmio_ids` slab inserts happen in the
    /// exact serial order.
    pub(crate) mmio: Vec<(usize, MemReq)>,
    /// Injection-pipe pushes performed by this shard this edge (folded
    /// into `inject_pending_total` at the merge).
    pub(crate) pushed: usize,
    /// Nodes whose injection pipes went non-empty this edge (merged into
    /// the global dirty set).
    pub(crate) dirty: Vec<NodeId>,
}

/// Which of a shard's components the next pass must visit, indexed from the
/// shard's first core / first node. Owned by the shard during a pass; the
/// coordinator wakes members between passes (message delivery).
#[derive(Debug, Default)]
pub(crate) struct ShardWake {
    /// L2s that are active or hold a `core_held` request.
    pub(crate) l2: BitSet,
    /// L3 shards that are active.
    pub(crate) l3: BitSet,
    /// Cores whose `next_event_time` is not `None`.
    pub(crate) cores: BitSet,
    /// Sleeping cores that would retry a store on every edge
    /// ([`Core::store_blocked_at`]). They need no tick, but the run loop
    /// keeps executing edges while there are any, as it did when they
    /// ticked: `executed_edges` travels in snapshots, and the committed
    /// byte goldens hold it.
    pub(crate) blocked: BitSet,
    /// Per core, meaningful while it is asleep: the fast-edge index up to
    /// which its `mem_stall_cycles` already account for the sleep.
    pub(crate) settled: Vec<u64>,
    /// Debug builds only: what per-edge accounting makes of each sleeping
    /// core's `mem_stall_cycles`, to check the index arithmetic against.
    pub(crate) shadow: Vec<u64>,
}

impl ShardWake {
    /// One wake set per shard of `plan` with everything awake: the state
    /// after construction, `restore()` and `fork()`, and while edge
    /// skipping is off. Always sound — the sets only need to *cover* what
    /// is due — and the first gated pass puts the idle members to sleep.
    pub(crate) fn all_awake(plan: &[ShardSpec]) -> Vec<ShardWake> {
        plan.iter()
            .map(|spec| ShardWake {
                l2: BitSet::full(spec.cores.len()),
                l3: BitSet::full(spec.nodes.len()),
                cores: BitSet::full(spec.cores.len()),
                blocked: BitSet::new(spec.cores.len()),
                settled: vec![0; spec.cores.len()],
                shadow: vec![0; spec.cores.len()],
            })
            .collect()
    }

    /// Puts sleeping core `k` back in the set, first settling the fast
    /// edges it slept through, up to and including edge index `through`,
    /// and ends a spin. Must run before anything changes the core's state.
    pub(crate) fn wake_core(&mut self, k: usize, core: &mut Core, now: Time, through: u64) {
        if self.cores.insert(k) {
            self.settle(k, core, now, through);
            self.blocked.remove(k);
        }
        core.forget_spin();
    }

    /// Brings sleeping core `k` up to edge index `through` without waking
    /// it: its stall count, and a spinner's whole visible state.
    pub(crate) fn settle(&mut self, k: usize, core: &mut Core, now: Time, through: u64) {
        core.account_skipped_edges(now, through - self.settled[k]);
        if core.is_spinning() {
            core.catch_up(core.config().clock.nth_edge(through));
        }
        self.settled[k] = through;
        debug_assert_eq!(
            core.stats().mem_stall_cycles,
            self.shadow[k],
            "core {k}: stall cycles settled over a sleep differ from per-edge accounting"
        );
    }

    /// Takes core `k`, whose stall count is exact through edge `edge` (at
    /// `now`), out of the set.
    fn sleep_core(&mut self, k: usize, core: &Core, now: Time, edge: u64) {
        self.settled[k] = edge;
        self.shadow[k] = core.stats().mem_stall_cycles;
        if core.store_blocked_at(now) {
            self.blocked.insert(k);
        }
    }
}

/// Deterministic weight-balanced contiguous partition of the node range.
/// Core nodes carry most of the per-edge work (core + L2 + L3 ticks),
/// hub nodes a little (their L3; the hub itself runs in the serial
/// adapter pass), filler nodes only their L3.
pub(crate) fn build_shard_plan(
    node_roles: &[NodeRole],
    processors: usize,
    shards: usize,
) -> Vec<ShardSpec> {
    let weights: Vec<u64> = node_roles
        .iter()
        .map(|r| match r {
            NodeRole::Core(_) => 6,
            NodeRole::Hub(_) => 2,
            NodeRole::ShardOnly => 1,
        })
        .collect();
    duet_sim::partition_balanced(&weights, shards)
        .into_iter()
        .map(|nodes| {
            let cores = nodes.start.min(processors)..nodes.end.min(processors);
            ShardSpec { nodes, cores }
        })
        .collect()
}

/// Resolves the effective shard count: `DUET_SIM_THREADS` overrides the
/// config, `0` means the host's available parallelism, and the result is
/// clamped to `[1, nodes]`.
pub(crate) fn resolve_sim_shards(cfg_threads: usize, nodes: usize) -> usize {
    let requested = std::env::var("DUET_SIM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(cfg_threads);
    let resolved = if requested == 0 {
        host_parallelism()
    } else {
        requested
    };
    resolved.clamp(1, nodes.max(1))
}

/// Resolves the effective mesh-tick shard count: `DUET_MESH_SHARDS`
/// overrides the config, `0` means "follow the resolved `sim_threads`
/// shard count", and the result is clamped to `[1, nodes]`.
pub(crate) fn resolve_mesh_shards(cfg_value: usize, sim_shards: usize, nodes: usize) -> usize {
    let requested = std::env::var("DUET_MESH_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(cfg_value);
    let resolved = if requested == 0 {
        sim_shards
    } else {
        requested
    };
    resolved.clamp(1, nodes.max(1))
}

/// Whether sharded passes should use real worker threads: more than one
/// host CPU, or the `DUET_SIM_FORCE_THREADS=1` escape hatch (used by the
/// determinism tests to exercise the pool on single-CPU hosts).
pub(crate) fn want_worker_threads() -> bool {
    std::env::var("DUET_SIM_FORCE_THREADS").is_ok_and(|v| v == "1") || host_parallelism() > 1
}

/// The host's available parallelism, defaulting to 1.
pub(crate) fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Mutex lock that shrugs off poisoning: the protected structures (trace
/// scratch rings, view slots) stay valid even if a worker panicked, and
/// the panic itself surfaces at join.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One shard's working set for a single fast edge: disjoint slices of
/// the per-node component vectors, plus the shared (read-only) config and
/// fault budgets, plus this shard's output lane.
pub(crate) struct ShardCtx<'a> {
    pub(crate) now: Time,
    /// Index of this fast edge (`RunStats::fast_edges` once it is done).
    pub(crate) edge: u64,
    pub(crate) gate: bool,
    pub(crate) faulted: bool,
    /// First global node id of the `l3s`/`pipes` slices.
    pub(crate) node0: usize,
    /// First global core index of the `cores`/`l2s`/`core_held` slices.
    pub(crate) core0: usize,
    pub(crate) cfg: &'a SystemConfig,
    pub(crate) cores: &'a mut [Core],
    pub(crate) l2s: &'a mut [PrivCache],
    pub(crate) l3s: &'a mut [L3Shard],
    pub(crate) core_held: &'a mut [Option<MemReq>],
    pub(crate) pipes: &'a mut [Link<(NodeId, DuetMsg)>],
    pub(crate) fault_budget: &'a [AtomicU64],
    pub(crate) lane: &'a mut ShardLane,
    pub(crate) wake: &'a mut ShardWake,
}

impl ShardCtx<'_> {
    /// Queues `(dst, msg)` on `src`'s injection pipe — `src` always lies
    /// inside this shard's node range (components only inject from their
    /// own node), so no cross-shard write ever happens here.
    fn enqueue(&mut self, src: NodeId, dst: NodeId, msg: DuetMsg) {
        let pipe = &mut self.pipes[src - self.node0];
        if pipe.is_empty() {
            self.lane.dirty.push(src);
        }
        if pipe.push(self.now, (dst, msg)).is_err() {
            unreachable!("injection pipes are unbounded");
        }
        self.lane.pushed += 1;
    }

    /// The three per-node component passes of a fast edge, in the same
    /// within-shard order as the serial loop: L2s, L3 shards, cores — each
    /// over its wake set, ascending. With `gate` off nothing ever leaves a
    /// set, so every component ticks on every edge.
    pub(crate) fn run(&mut self) {
        let now = self.now;
        let gate = self.gate;

        // L2s: tick, collect outgoing, deliver responses + back-invals.
        let mut awake = std::mem::take(&mut self.wake.l2);
        awake.retain(|k| {
            if gate && self.core_held[k].is_none() && !self.l2s[k].is_active() {
                return false;
            }
            // Retry a held request first.
            if let Some(req) = self.core_held[k].take() {
                if self.l2s[k].can_accept() {
                    self.l2s[k].cpu_request(req);
                } else {
                    self.core_held[k] = Some(req);
                }
            }
            self.l2s[k].tick(now);
            let node = self.cfg.core_node(self.core0 + k);
            while let Some((dst, msg)) = self.l2s[k].pop_outgoing(now) {
                self.enqueue(node, dst, DuetMsg::Coherence(msg));
            }
            let invalidations = self.l2s[k].take_back_invalidations();
            if !invalidations.is_empty() && self.cores[k].is_spinning() {
                // A spinner polls its L1: bring it up to the previous edge
                // and wake it before the line goes.
                self.wake
                    .wake_core(k, &mut self.cores[k], now, self.edge - 1);
            }
            for (line, _) in invalidations {
                self.cores[k].back_invalidate(line);
            }
            while let Some(resp) = self.l2s[k].pop_cpu_resp(now) {
                // The core's own pass comes later this edge, so it slept
                // through the edges before this one.
                self.wake
                    .wake_core(k, &mut self.cores[k], now, self.edge - 1);
                self.cores[k].mem_response(resp);
            }
            !gate || self.core_held[k].is_some() || self.l2s[k].is_active()
        });
        self.wake.l2 = awake;

        // L3 shards.
        let mut awake = std::mem::take(&mut self.wake.l3);
        awake.retain(|j| {
            if gate && !self.l3s[j].is_active() {
                return false;
            }
            self.l3s[j].tick(now);
            let node = self.l3s[j].node();
            // `L3RespStall`: responses stay queued in the shard's output
            // pipe (keeping it active, so the horizon stays pinned) until
            // the window closes.
            if !(self.faulted && shard_output_stalled(self.cfg, node, now)) {
                while let Some((dst, msg)) = self.l3s[j].pop_outgoing(now) {
                    if self.faulted && shard_output_dropped(self.cfg, self.fault_budget, node, now)
                    {
                        continue; // `L3RespDrop`: the message is lost
                    }
                    self.enqueue(node, dst, DuetMsg::Coherence(msg));
                }
            }
            !gate || self.l3s[j].is_active()
        });
        self.wake.l3 = awake;

        // Cores: deliver requests to L2, defer MMIO into the lane (the
        // merge replays lanes in shard order = ascending core order, so
        // MMIO-id allocation matches the serial loop exactly).
        let mut awake = std::mem::take(&mut self.wake.cores);
        awake.retain(|k| {
            let due = self.cores[k].next_event_time(now);
            if gate && due.is_none_or(|t| t > now) {
                // The core would either do nothing this edge or only bump
                // a stall counter; reconstruct that without ticking.
                self.cores[k].account_skipped_edges(now, 1);
                if due.is_some() {
                    return true; // a timer: polled again next edge
                }
            } else {
                self.cores[k].tick(now);
                while self.core_held[k].is_none() {
                    let Some(req) = self.cores[k].pop_mem_request() else {
                        break;
                    };
                    if self.cores[k].is_mmio(req.addr) {
                        self.lane.mmio.push((self.core0 + k, req));
                    } else {
                        if self.l2s[k].can_accept() {
                            self.l2s[k].cpu_request(req);
                        } else {
                            self.core_held[k] = Some(req);
                        }
                        self.wake.l2.insert(k);
                    }
                }
            }
            // Only `mem_response` can change what a tick would do: sleep
            // until it comes, with this edge's stall already counted.
            let asleep = gate && self.cores[k].next_event_time(now).is_none();
            if asleep {
                self.wake.sleep_core(k, &self.cores[k], now, self.edge);
            }
            !asleep
        });
        self.wake.cores = awake;
    }
}

/// Whether an active `L3RespStall` fault is holding `node`'s shard
/// output.
fn shard_output_stalled(cfg: &SystemConfig, node: NodeId, now: Time) -> bool {
    cfg.faults.specs.iter().any(|s| {
        matches!(s.kind, FaultKind::L3RespStall { node: n } if n == node) && s.active_at(now)
    })
}

/// Consumes one unit of `L3RespDrop` budget for `node`, if a matching
/// fault is active. True means the popped shard message is lost. Relaxed
/// atomics suffice: each spec targets one node, a node belongs to one
/// shard, so each counter has a single consumer per edge.
fn shard_output_dropped(cfg: &SystemConfig, budget: &[AtomicU64], node: NodeId, now: Time) -> bool {
    for (i, spec) in cfg.faults.specs.iter().enumerate() {
        if !spec.active_at(now) || budget[i].load(Ordering::Relaxed) == 0 {
            continue;
        }
        if let FaultKind::L3RespDrop { node: n, .. } = spec.kind {
            if n == node {
                budget[i].fetch_sub(1, Ordering::Relaxed);
                return true;
            }
        }
    }
    false
}

/// Per-shard trace scratch: while a multi-shard pass runs, L2/L3 tracers
/// are rebound to per-shard rings so concurrent emission cannot scramble
/// the session ring's order; after the join the scratch rings drain into
/// the session ring in serial component order (all L2 buckets ascending,
/// then all L3 buckets ascending). Scratch capacity equals the session
/// capacity, which makes the drain ring-exact (same retained window, same
/// drop counts as direct serial emission).
pub(crate) struct TraceScratch {
    main: Arc<Mutex<TraceBuffer>>,
    orig_l2: Vec<Tracer>,
    orig_l3: Vec<Tracer>,
    scratch_l2: Vec<Tracer>,
    scratch_l3: Vec<Tracer>,
    l2_bufs: Vec<Arc<Mutex<TraceBuffer>>>,
    l3_bufs: Vec<Arc<Mutex<TraceBuffer>>>,
}

/// Raw, `Send`-able view of one shard's working set, published to a
/// worker thread for exactly one epoch.
///
/// Safety rests on three invariants the coordinator upholds:
/// * views built for one epoch cover pairwise-disjoint ranges of the
///   component vectors (the shard plan partitions `0..nodes`),
/// * the coordinator touches none of the viewed storage between
///   [`EpochBarrier::open`] and [`EpochBarrier::wait_done`],
/// * the backing vectors are never resized while a pool exists (their
///   lengths are fixed at wiring time).
pub(crate) struct RawShardView {
    now: Time,
    edge: u64,
    gate: bool,
    faulted: bool,
    node0: usize,
    core0: usize,
    ncores: usize,
    nnodes: usize,
    cfg: *const SystemConfig,
    cores: *mut Core,
    l2s: *mut PrivCache,
    l3s: *mut L3Shard,
    core_held: *mut Option<MemReq>,
    pipes: *mut Link<(NodeId, DuetMsg)>,
    budget: *const AtomicU64,
    budget_len: usize,
    lane: *mut ShardLane,
    wake: *mut ShardWake,
}

// SAFETY: the pointed-to types are all `Send` (asserted below), the
// ranges are disjoint per epoch, and the barrier protocol gives exclusive
// access for the epoch's duration.
unsafe impl Send for RawShardView {}

#[allow(dead_code)]
fn assert_send<T: Send>() {}
#[allow(dead_code)]
fn assert_sync<T: Sync>() {}
/// Compile-time proof that everything a worker touches through a
/// [`RawShardView`] is safe to move across threads. If any component
/// gains a non-`Send` member, this stops compiling instead of the
/// `unsafe impl` silently lying.
#[allow(dead_code)]
fn assert_shard_payloads_thread_safe() {
    assert_send::<Core>();
    assert_send::<PrivCache>();
    assert_send::<L3Shard>();
    assert_send::<Option<MemReq>>();
    assert_send::<Link<(NodeId, DuetMsg)>>();
    assert_send::<ShardLane>();
    assert_send::<ShardWake>();
    assert_sync::<SystemConfig>();
    assert_sync::<AtomicU64>();
}

/// One unit of work the pool runs for a single epoch: either a
/// component-pass shard or a mesh-tick shard. Both carry raw,
/// range-disjoint views into `System`-owned storage under the same
/// barrier protocol.
pub(crate) enum ShardJob {
    /// The per-node component passes of one shard ([`ShardCtx::run`]).
    Passes(RawShardView),
    /// One shard of the sharded mesh tick (`duet_noc::MeshShardTask`).
    Mesh(duet_noc::MeshShardTask),
}

/// Runs one job.
///
/// # Safety
///
/// The job's view must point into live storage, its range disjoint from
/// every other concurrently-running job, with no other access to that
/// storage until the epoch closes (see [`RawShardView`] and
/// `duet_noc::MeshShardTask`).
unsafe fn run_job(job: ShardJob) {
    match job {
        ShardJob::Passes(v) => run_raw(v),
        ShardJob::Mesh(t) => t.run(),
    }
}

/// Runs one shard's passes through a raw view.
///
/// # Safety
///
/// `v` must point into live storage, its range disjoint from every other
/// concurrently-running view, with no other access to that storage until
/// the epoch closes (see [`RawShardView`]).
unsafe fn run_raw(v: RawShardView) {
    // Test-only poison sentinel: lets the pool tests force a shard panic
    // without building a full component graph.
    #[cfg(test)]
    if v.node0 == usize::MAX {
        panic!("poisoned test shard");
    }
    let mut ctx = ShardCtx {
        now: v.now,
        edge: v.edge,
        gate: v.gate,
        faulted: v.faulted,
        node0: v.node0,
        core0: v.core0,
        cfg: &*v.cfg,
        cores: std::slice::from_raw_parts_mut(v.cores, v.ncores),
        l2s: std::slice::from_raw_parts_mut(v.l2s, v.ncores),
        l3s: std::slice::from_raw_parts_mut(v.l3s, v.nnodes),
        core_held: std::slice::from_raw_parts_mut(v.core_held, v.ncores),
        pipes: std::slice::from_raw_parts_mut(v.pipes, v.nnodes),
        fault_budget: std::slice::from_raw_parts(v.budget, v.budget_len),
        lane: &mut *v.lane,
        wake: &mut *v.wake,
    };
    ctx.run();
}

/// Persistent worker threads for sharded passes. Worker `w` runs shard
/// `w + 1`; the coordinator runs shard 0 itself between opening the
/// epoch and waiting on the barrier. Dropped (and joined) with the
/// owning [`System`].
pub(crate) struct ShardPool {
    barrier: Arc<EpochBarrier>,
    views: Arc<Mutex<Vec<Option<ShardJob>>>>,
    /// First panic payload caught on a worker thread, re-raised by
    /// `run_epoch` on the coordinator once the epoch has closed.
    panic: Arc<Mutex<Option<Box<dyn Any + Send>>>>,
    handles: Vec<JoinHandle<()>>,
    epoch: u64,
}

impl ShardPool {
    /// Spawns `workers` persistent shard workers.
    pub(crate) fn new(workers: usize) -> Self {
        let barrier = Arc::new(EpochBarrier::new(workers));
        let views: Arc<Mutex<Vec<Option<ShardJob>>>> = Arc::new(Mutex::new(Vec::new()));
        let panic: Arc<Mutex<Option<Box<dyn Any + Send>>>> = Arc::new(Mutex::new(None));
        let handles = (0..workers)
            .map(|w| {
                let b = Arc::clone(&barrier);
                let v = Arc::clone(&views);
                let p = Arc::clone(&panic);
                let spawned = std::thread::Builder::new()
                    .name(format!("duet-shard-{}", w + 1))
                    .spawn(move || worker_main(w, b, v, p));
                match spawned {
                    Ok(h) => h,
                    Err(e) => panic!("failed to spawn shard worker {w}: {e}"),
                }
            })
            .collect();
        ShardPool {
            barrier,
            views,
            panic,
            handles,
            epoch: 0,
        }
    }

    /// Runs one epoch: publishes `jobs[1..]` to the workers, runs
    /// `jobs[0]` on the calling thread, and joins at the barrier, leaving
    /// `jobs` empty (the caller keeps the buffer for the next epoch). Fewer
    /// jobs than `workers + 1` is fine — surplus workers see an empty
    /// slot and go straight back to the barrier (the pool is sized for
    /// the larger of the component-pass and mesh-tick plans, and the two
    /// may differ).
    ///
    /// A panic inside any shard — worker or coordinator — is deferred
    /// until the barrier has closed (every view dropped, no worker left
    /// holding aliases into `System`) and then resumed here, so component
    /// panics surface exactly like the serial loop's instead of
    /// deadlocking `wait_done`.
    pub(crate) fn run_epoch(&mut self, jobs: &mut Vec<ShardJob>) {
        debug_assert!(jobs.len() <= self.barrier.workers() + 1);
        let mut jobs = jobs.drain(..);
        let Some(mine) = jobs.next() else {
            return; // an empty epoch has nothing to run
        };
        {
            let mut slots = lock_ignore_poison(&self.views);
            slots.clear();
            slots.extend(jobs.map(Some));
            slots.resize_with(self.barrier.workers(), || None);
        }
        self.epoch += 1;
        self.barrier.open(self.epoch);
        // SAFETY: shard 0's range is disjoint from every published job.
        let mine_result = catch_unwind(AssertUnwindSafe(|| unsafe { run_job(mine) }));
        self.barrier.wait_done(self.epoch);
        if let Some(payload) = lock_ignore_poison(&self.panic).take() {
            resume_unwind(payload);
        }
        if let Err(payload) = mine_result {
            resume_unwind(payload);
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.barrier.shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_main(
    w: usize,
    barrier: Arc<EpochBarrier>,
    views: Arc<Mutex<Vec<Option<ShardJob>>>>,
    panic: Arc<Mutex<Option<Box<dyn Any + Send>>>>,
) {
    let mut last = 0u64;
    while let Some(epoch) = barrier.wait_open(last) {
        last = epoch;
        let view = lock_ignore_poison(&views)[w].take();
        if let Some(v) = view {
            // SAFETY: the coordinator published disjoint ranges for this
            // epoch and touches none of them until `wait_done` returns.
            // A shard panic must not unwind past `finish` below — the
            // coordinator would spin in `wait_done` forever — so catch
            // it here; `run_epoch` re-raises the recorded payload on the
            // coordinator after the epoch closes.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| unsafe { run_job(v) })) {
                lock_ignore_poison(&panic).get_or_insert(payload);
            }
        }
        barrier.finish(w, epoch);
    }
}

/// Below this many active routers the sharded mesh tick runs inline:
/// waking the pool costs more than arbitrating a near-idle mesh, and the
/// inline path runs the *same* sharded schedule, so results are
/// unaffected either way. `DUET_SIM_FORCE_THREADS=1` lowers the
/// system's threshold to 0 (see `System::mesh_pool_min_active`).
pub(crate) const MESH_POOL_MIN_ACTIVE: usize = 16;

impl System {
    /// The shard whose node range holds `node` (cores sit at their index).
    fn shard_of(&self, node: usize) -> usize {
        self.shard_plan.partition_point(|s| s.nodes.end <= node)
    }

    /// Wakes core `i` ahead of an outside change to it (a memory response,
    /// a new program), first settling the stall cycles of its sleep.
    pub(crate) fn wake_core(&mut self, i: usize) {
        let s = self.shard_of(i);
        let k = i - self.shard_plan[s].cores.start;
        self.wake[s].wake_core(k, &mut self.cores[i], self.now, self.stats.fast_edges);
    }

    /// Wakes L2 `i` after handing it a message.
    pub(crate) fn wake_l2(&mut self, i: usize) {
        let s = self.shard_of(i);
        self.wake[s].l2.insert(i - self.shard_plan[s].cores.start);
    }

    /// Wakes the L3 shard at `node` after handing it a message.
    pub(crate) fn wake_l3(&mut self, node: usize) {
        let s = self.shard_of(node);
        self.wake[s]
            .l3
            .insert(node - self.shard_plan[s].nodes.start);
    }

    /// Brings every sleeping core's `mem_stall_cycles` up to the last fast
    /// edge. The run loops call this as they return, so everything read
    /// between runs — statistics, snapshots, forks — is exact.
    pub(crate) fn settle_sleeping_cores(&mut self) {
        let (now, through) = (self.now, self.stats.fast_edges);
        for (spec, wake) in self.shard_plan.iter().zip(&mut self.wake) {
            for (k, core) in self.cores[spec.cores.clone()].iter_mut().enumerate() {
                if !wake.cores.contains(k) && wake.settled[k] < through {
                    wake.settle(k, core, now, through);
                }
            }
        }
    }

    /// Wakes every spinning core (and drops the marks of cores that carry
    /// one while awake, with edge skipping off), so that per-component
    /// reports read as they would after ticking every edge.
    pub(crate) fn wake_spinners(&mut self) {
        for i in 0..self.cores.len() {
            if self.cores[i].is_spinning() {
                self.wake_core(i);
            }
        }
    }

    /// Puts every component back in its wake set (edge skipping was just
    /// turned off).
    pub(crate) fn wake_everything(&mut self) {
        self.settle_sleeping_cores();
        self.wake = ShardWake::all_awake(&self.shard_plan);
    }

    /// Debug builds, after every fast edge and every horizon jump (`edges`
    /// fast edges just retired): each wake set covers what the polled
    /// predicates call due, and the per-edge shadow of every sleeping
    /// core's stall count advances for `settle` to compare against.
    pub(crate) fn check_wake_sets(&mut self, edges: u64) {
        let now = self.now;
        for (spec, wake) in self.shard_plan.iter().zip(&mut self.wake) {
            for (k, i) in spec.cores.clone().enumerate() {
                if !wake.cores.contains(k) {
                    let core = &self.cores[i];
                    assert_eq!(
                        core.next_event_time(now),
                        None,
                        "core {i} is due but asleep"
                    );
                    // (Not for the edge it fell asleep on, which it ticked.)
                    if wake.settled[k] + edges <= self.stats.fast_edges {
                        wake.shadow[k] += edges * u64::from(core.stalls_when_skipped(now));
                    }
                    // A spinner releases the horizon: it never pins it as
                    // a store-blocked sleeper does.
                    assert!(
                        !(core.is_spinning() && wake.blocked.contains(k)),
                        "spinning core {i} is marked store-blocked"
                    );
                }
                assert!(
                    wake.l2.contains(k)
                        || !(self.l2s[i].is_active() || self.core_held[i].is_some()),
                    "L2 {i} is due but asleep"
                );
            }
            for (j, n) in spec.nodes.clone().enumerate() {
                assert!(
                    wake.l3.contains(j) || !self.shards[n].is_active(),
                    "L3 shard {n} is due but asleep"
                );
            }
        }
    }

    /// The effective shard count for this system's fast-edge passes.
    pub fn sim_shards(&self) -> usize {
        self.sim_shards
    }

    /// The effective mesh-tick shard count.
    pub fn mesh_shards(&self) -> usize {
        self.mesh_shards
    }

    /// The mesh tick of a fast edge. With one mesh shard (or no worker
    /// pool) this is `Mesh::tick` — which itself runs the sharded
    /// schedule inline when more than one shard is configured, so the
    /// deferred-lane merge is exercised identically. With a pool, the
    /// shard tasks run as one epoch and the coordinator replays the
    /// boundary lanes afterwards.
    pub(crate) fn mesh_pass(&mut self, now: Time) {
        if self.mesh_shards <= 1
            || !self.pool_enabled
            || self.mesh.active_len() < self.mesh_pool_min_active
        {
            self.mesh.tick(now);
            return;
        }
        let mut jobs = std::mem::take(&mut self.jobs);
        self.mesh
            .begin_tick(now, |task| jobs.push(ShardJob::Mesh(task)));
        if jobs.len() <= 1 {
            for job in jobs.drain(..) {
                // SAFETY: tasks cover disjoint router ranges and nothing
                // else touches the mesh until `finish_tick`.
                unsafe { run_job(job) };
            }
        } else {
            self.ensure_pool().run_epoch(&mut jobs);
        }
        self.jobs = jobs;
        self.mesh.finish_tick(now);
    }

    /// The shared worker pool, sized for the larger of the component-pass
    /// and mesh-tick plans (epochs with fewer jobs leave the surplus
    /// workers idle at the barrier).
    fn ensure_pool(&mut self) -> &mut ShardPool {
        let workers = self.sim_shards.max(self.mesh_shards).saturating_sub(1);
        self.shard_pool
            .get_or_insert_with(|| ShardPool::new(workers.max(1)))
    }

    /// The per-node component passes of a fast edge: a single full-range
    /// shard runs directly (the serial loop); multiple shards run under
    /// the pool or inline, with L2/L3 trace emission redirected through
    /// per-shard scratch rings while the parallel region is open.
    pub(crate) fn component_passes(&mut self, now: Time) {
        if self.sim_shards <= 1 {
            self.run_shard_inline(now, 0);
            return;
        }
        let scratch = self.prepare_trace_scratch();
        if scratch {
            self.bind_scratch_tracers();
        }
        if self.pool_enabled {
            self.run_shards_pooled(now);
        } else {
            for s in 0..self.shard_plan.len() {
                self.run_shard_inline(now, s);
            }
        }
        if scratch {
            self.restore_and_drain_scratch();
        }
    }

    /// Runs shard `s` on the calling thread with plain borrows.
    fn run_shard_inline(&mut self, now: Time, s: usize) {
        let spec = self.shard_plan[s].clone();
        let mut ctx = ShardCtx {
            now,
            edge: self.stats.fast_edges + 1,
            gate: self.skip_enabled,
            faulted: !self.cfg.faults.specs.is_empty(),
            node0: spec.nodes.start,
            core0: spec.cores.start,
            cfg: &self.cfg,
            cores: &mut self.cores[spec.cores.clone()],
            l2s: &mut self.l2s[spec.cores.clone()],
            l3s: &mut self.shards[spec.nodes.clone()],
            core_held: &mut self.core_held[spec.cores.clone()],
            pipes: &mut self.inject_pending[spec.nodes.clone()],
            fault_budget: &self.fault_budget,
            lane: &mut self.shard_lanes[s],
            wake: &mut self.wake[s],
        };
        ctx.run();
    }

    /// Runs every shard concurrently on the persistent pool.
    fn run_shards_pooled(&mut self, now: Time) {
        let mut jobs = std::mem::take(&mut self.jobs);
        self.build_raw_views(now, &mut jobs);
        self.ensure_pool().run_epoch(&mut jobs);
        self.jobs = jobs;
    }

    /// Queues one raw view per shard on `jobs`. The views alias `self`'s
    /// component vectors; the caller must not touch those vectors until the
    /// epoch closes.
    fn build_raw_views(&mut self, now: Time, jobs: &mut Vec<ShardJob>) {
        let gate = self.skip_enabled;
        let faulted = !self.cfg.faults.specs.is_empty();
        let cfg: *const SystemConfig = &self.cfg;
        let cores = self.cores.as_mut_ptr();
        let l2s = self.l2s.as_mut_ptr();
        let l3s = self.shards.as_mut_ptr();
        let core_held = self.core_held.as_mut_ptr();
        let pipes = self.inject_pending.as_mut_ptr();
        let budget = self.fault_budget.as_ptr();
        let budget_len = self.fault_budget.len();
        let lanes = self.shard_lanes.as_mut_ptr();
        let wake = self.wake.as_mut_ptr();
        let edge = self.stats.fast_edges + 1;
        for (s, spec) in self.shard_plan.iter().enumerate() {
            // SAFETY: every offset stays within its vector (the plan
            // partitions `0..nodes`, cores ⊆ nodes, one lane and one wake
            // set per shard); one-past-end pointers for empty core ranges
            // are valid.
            let view = unsafe {
                RawShardView {
                    now,
                    edge,
                    gate,
                    faulted,
                    node0: spec.nodes.start,
                    core0: spec.cores.start,
                    ncores: spec.cores.len(),
                    nnodes: spec.nodes.len(),
                    cfg,
                    cores: cores.add(spec.cores.start),
                    l2s: l2s.add(spec.cores.start),
                    l3s: l3s.add(spec.nodes.start),
                    core_held: core_held.add(spec.cores.start),
                    pipes: pipes.add(spec.nodes.start),
                    budget,
                    budget_len,
                    lane: lanes.add(s),
                    wake: wake.add(s),
                }
            };
            jobs.push(ShardJob::Passes(view));
        }
    }

    /// Replays every shard's output lane in ascending shard order: folds
    /// push counters into `inject_pending_total`, dirty nodes into the
    /// global set, and performs the deferred MMIO sends (slab inserts in
    /// ascending core order — the serial allocation order).
    pub(crate) fn merge_shard_lanes(&mut self, _now: Time) {
        for s in 0..self.shard_lanes.len() {
            let pushed = std::mem::take(&mut self.shard_lanes[s].pushed);
            self.inject_pending_total += pushed;
            // The lane's dirty list is duplicate-free (a node is recorded
            // only on its pipe's empty→non-empty transition) but not
            // sorted: the L2 and L3 passes each ascend, yet interleave.
            // Sort, then batch-merge — `DirtyNodes` is a set, so the final
            // contents match the old one-by-one inserts exactly.
            let mut dirty = std::mem::take(&mut self.shard_lanes[s].dirty);
            dirty.sort_unstable();
            self.inject_dirty.merge_sorted(&dirty);
            dirty.clear();
            self.shard_lanes[s].dirty = dirty;
            for k in 0..self.shard_lanes[s].mmio.len() {
                let (i, req) = self.shard_lanes[s].mmio[k];
                let id = self.mmio_ids.insert((i, req.id));
                let mut r = req;
                r.id = id;
                let node = self.cfg.core_node(i);
                let dst = self.cfg.ctile_node();
                self.enqueue_msg(
                    node,
                    dst,
                    DuetMsg::MmioReq {
                        req: r,
                        reply_to: node,
                    },
                );
            }
            self.shard_lanes[s].mmio.clear();
        }
    }

    /// Lazily builds the per-shard trace scratch. Returns whether scratch
    /// rebinding is needed this edge (i.e. tracing is on).
    fn prepare_trace_scratch(&mut self) -> bool {
        let Some(session) = self.trace.as_ref() else {
            self.trace_scratch = None;
            return false;
        };
        if self.trace_scratch.is_some() {
            return true;
        }
        let cap = session.capacity();
        let main = session.shared_buffer();
        let nshards = self.shard_plan.len();
        let l2_bufs: Vec<_> = (0..nshards)
            .map(|_| Arc::new(Mutex::new(TraceBuffer::new(cap))))
            .collect();
        let l3_bufs: Vec<_> = (0..nshards)
            .map(|_| Arc::new(Mutex::new(TraceBuffer::new(cap))))
            .collect();
        let mut orig_l2 = Vec::with_capacity(self.l2s.len());
        let mut scratch_l2 = Vec::with_capacity(self.l2s.len());
        let mut orig_l3 = Vec::with_capacity(self.shards.len());
        let mut scratch_l3 = Vec::with_capacity(self.shards.len());
        for (s, spec) in self.shard_plan.iter().enumerate() {
            for i in spec.cores.clone() {
                orig_l2.push(self.l2s[i].tracer().clone());
                scratch_l2.push(self.l2s[i].tracer().retarget(Arc::clone(&l2_bufs[s])));
            }
            for n in spec.nodes.clone() {
                orig_l3.push(self.shards[n].tracer().clone());
                scratch_l3.push(self.shards[n].tracer().retarget(Arc::clone(&l3_bufs[s])));
            }
        }
        self.trace_scratch = Some(TraceScratch {
            main,
            orig_l2,
            orig_l3,
            scratch_l2,
            scratch_l3,
            l2_bufs,
            l3_bufs,
        });
        true
    }

    /// Points every L2/L3 tracer at its shard's scratch ring for the
    /// duration of the parallel region.
    fn bind_scratch_tracers(&mut self) {
        let Some(ts) = self.trace_scratch.as_ref() else {
            return;
        };
        for i in 0..self.l2s.len() {
            self.l2s[i].set_tracer(ts.scratch_l2[i].clone());
        }
        for n in 0..self.shards.len() {
            self.shards[n].set_tracer(ts.scratch_l3[n].clone());
        }
    }

    /// Restores the session tracers and drains the scratch rings into the
    /// session ring in serial component order: all L2 buckets (ascending
    /// shard = ascending core), then all L3 buckets (ascending shard =
    /// ascending node) — exactly the order direct serial emission uses
    /// within a fast edge.
    fn restore_and_drain_scratch(&mut self) {
        let Some(ts) = self.trace_scratch.as_ref() else {
            return;
        };
        for i in 0..self.l2s.len() {
            self.l2s[i].set_tracer(ts.orig_l2[i].clone());
        }
        for n in 0..self.shards.len() {
            self.shards[n].set_tracer(ts.orig_l3[n].clone());
        }
        let mut main = lock_ignore_poison(&ts.main);
        for b in &ts.l2_bufs {
            lock_ignore_poison(b).take_into(&mut main);
        }
        for b in &ts.l3_bufs {
            lock_ignore_poison(b).take_into(&mut main);
        }
    }
}

#[cfg(test)]
mod pool_tests {
    use super::*;
    use std::ptr::NonNull;

    /// What an empty shard still needs somewhere real to point at.
    type Outputs = (ShardLane, ShardWake);

    /// A zero-length view: dangling-but-aligned pointers are valid for
    /// empty slices, so `run_raw` builds a `ShardCtx` that does nothing.
    /// `poison` flips the test-only sentinel that makes `run_raw` panic
    /// before touching anything.
    fn empty_view(cfg: &SystemConfig, lane: &mut Outputs, poison: bool) -> RawShardView {
        RawShardView {
            now: Time::ZERO,
            edge: 1,
            gate: false,
            faulted: false,
            node0: if poison { usize::MAX } else { 0 },
            core0: 0,
            ncores: 0,
            nnodes: 0,
            cfg: cfg as *const SystemConfig,
            cores: NonNull::dangling().as_ptr(),
            l2s: NonNull::dangling().as_ptr(),
            l3s: NonNull::dangling().as_ptr(),
            core_held: NonNull::dangling().as_ptr(),
            pipes: NonNull::dangling().as_ptr(),
            budget: NonNull::dangling().as_ptr(),
            budget_len: 0,
            lane: std::ptr::from_mut(&mut lane.0),
            wake: std::ptr::from_mut(&mut lane.1),
        }
    }

    /// A panic on a worker shard must re-raise on the coordinator after
    /// the epoch closes — not unwind past `finish` and leave `wait_done`
    /// spinning forever — and the pool must stay usable afterwards.
    #[test]
    fn worker_panic_resurfaces_on_coordinator_without_deadlock() {
        let cfg = SystemConfig::proc_only(1);
        let mut pool = ShardPool::new(1);
        let mut lane0 = Outputs::default();
        let mut lane1 = Outputs::default();
        let mut views = vec![
            ShardJob::Passes(empty_view(&cfg, &mut lane0, false)),
            ShardJob::Passes(empty_view(&cfg, &mut lane1, true)),
        ];
        let payload = catch_unwind(AssertUnwindSafe(|| pool.run_epoch(&mut views)))
            .expect_err("worker panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("poisoned test shard")
        );
        let mut lane0 = Outputs::default();
        let mut lane1 = Outputs::default();
        let mut views = vec![
            ShardJob::Passes(empty_view(&cfg, &mut lane0, false)),
            ShardJob::Passes(empty_view(&cfg, &mut lane1, false)),
        ];
        pool.run_epoch(&mut views);
    }

    /// Same for a panic on the coordinator's own shard: `wait_done` must
    /// still run (workers may hold views into `System`) before the panic
    /// resumes.
    #[test]
    fn coordinator_panic_still_closes_the_epoch() {
        let cfg = SystemConfig::proc_only(1);
        let mut pool = ShardPool::new(1);
        let mut lane0 = Outputs::default();
        let mut lane1 = Outputs::default();
        let mut views = vec![
            ShardJob::Passes(empty_view(&cfg, &mut lane0, true)),
            ShardJob::Passes(empty_view(&cfg, &mut lane1, false)),
        ];
        let payload = catch_unwind(AssertUnwindSafe(|| pool.run_epoch(&mut views)))
            .expect_err("coordinator panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("poisoned test shard")
        );
        let mut lane0 = Outputs::default();
        let mut lane1 = Outputs::default();
        let mut views = vec![
            ShardJob::Passes(empty_view(&cfg, &mut lane0, false)),
            ShardJob::Passes(empty_view(&cfg, &mut lane1, false)),
        ];
        pool.run_epoch(&mut views);
    }
}
