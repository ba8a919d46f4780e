#![warn(missing_docs)]
//! # duet-noc
//!
//! A cycle-level 2D-mesh network-on-chip modelled after the OpenPiton P-Mesh
//! NoC that Dolly (Sec. IV of the paper) is built on:
//!
//! * three independent **virtual networks** (request / forward / response) so
//!   the directory coherence protocol is deadlock-free,
//! * deterministic **XY routing**, which — combined with FIFO buffering and
//!   round-robin arbitration that never reorders within a queue — gives the
//!   **point-to-point ordering** guarantee the paper relies on ("The NoC
//!   offers point-to-point ordering of message delivery"),
//! * 64-bit flits with wormhole-style link serialization (a message of *n*
//!   flits occupies each link for *n* cycles),
//! * bounded router input buffers providing backpressure.
//!
//! The mesh runs entirely in the fast (system) clock domain; eFPGA traffic
//! enters it only through the Duet Adapter in `duet-core`.
//!
//! # Example
//!
//! ```
//! use duet_noc::{Mesh, MeshConfig, Message, VNet};
//! use duet_sim::{Clock, Time};
//!
//! let cfg = MeshConfig::new(2, 2, Clock::ghz1());
//! let mut mesh: Mesh<&'static str> = Mesh::new(cfg);
//! let t0 = Time::from_ps(1000);
//! mesh.inject(t0, Message::new(0, 3, VNet::Req, 1, "hello")).unwrap();
//! let mut t = t0;
//! let msg = loop {
//!     t = t + Time::from_ps(1000);
//!     mesh.tick(t);
//!     if let Some(m) = mesh.eject(3, VNet::Req) { break m; }
//! };
//! assert_eq!(msg.payload, "hello");
//! ```

use std::collections::{BTreeSet, VecDeque};

use duet_sim::snapshot::ensure;
use duet_sim::{
    merge_min, pack_enum, pack_struct, partition_balanced, Clock, ClockDomain, Component, Link,
    LinkReport, LoadEwma, Pack, PushError, Snap, SnapError, SnapReader, SnapWriter, Time,
};
use duet_trace::{pack_hop, pack_noc, EventKind, Tracer};

/// Identifies a mesh node (tile). Row-major: `id = y * width + x`.
pub type NodeId = usize;

/// The three virtual networks of the coherence protocol.
///
/// Keeping requests, forwarded requests, and responses on independently
/// buffered networks is what makes the directory protocol deadlock-free
/// (responses can always sink regardless of request backlog).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VNet {
    /// Requests from private caches to directory homes (GetS/GetM/Put...).
    Req = 0,
    /// Directory-to-cache forwarded requests and invalidations.
    Fwd = 1,
    /// Data and acknowledgement responses.
    Resp = 2,
}

/// Number of virtual networks.
pub const VNET_COUNT: usize = 3;

impl VNet {
    /// All virtual networks, in priority order (Resp first — responses must
    /// drain to guarantee forward progress).
    pub const ALL: [VNet; VNET_COUNT] = [VNet::Resp, VNet::Fwd, VNet::Req];

    /// Index for array storage.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A message travelling on the mesh.
#[derive(Clone, Debug)]
pub struct Message<P> {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Virtual network this message travels on.
    pub vnet: VNet,
    /// Size in 64-bit flits (≥ 1; a 16-byte cacheline plus header is 3).
    pub flits: u32,
    /// When the message entered the network (set by [`Mesh::inject`]).
    pub injected_at: Time,
    /// Mesh-wide transaction id (set by [`Mesh::inject`] from a
    /// deterministic counter, tracing on or off) — lets a trace follow one
    /// message across hops.
    pub trace_id: u64,
    /// Protocol payload.
    pub payload: P,
}

impl<P> Message<P> {
    /// Creates a message; `injected_at` is filled in by [`Mesh::inject`].
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    pub fn new(src: NodeId, dst: NodeId, vnet: VNet, flits: u32, payload: P) -> Self {
        assert!(flits > 0, "a message is at least one flit");
        Message {
            src,
            dst,
            vnet,
            flits,
            injected_at: Time::ZERO,
            trace_id: 0,
            payload,
        }
    }
}

/// Router ports. `Local` is the tile-side injection/ejection port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Port {
    North = 0,
    South = 1,
    East = 2,
    West = 3,
    Local = 4,
}

const PORT_COUNT: usize = 5;
const PORTS: [Port; PORT_COUNT] = [
    Port::North,
    Port::South,
    Port::East,
    Port::West,
    Port::Local,
];

impl Port {
    fn label(self) -> &'static str {
        match self {
            Port::North => "north",
            Port::South => "south",
            Port::East => "east",
            Port::West => "west",
            Port::Local => "local",
        }
    }
}

const VNET_LABELS: [&str; VNET_COUNT] = ["req", "fwd", "resp"];

/// Mesh configuration.
#[derive(Clone, Copy, Debug)]
pub struct MeshConfig {
    /// Mesh width (columns).
    pub width: usize,
    /// Mesh height (rows).
    pub height: usize,
    /// Clock driving the routers (the fast/system clock).
    pub clock: Clock,
    /// Input-buffer depth in messages, per (port, vnet).
    pub buf_depth: usize,
    /// Cycles for one hop (router pipeline + link traversal).
    pub hop_cycles: u32,
}

impl MeshConfig {
    /// Creates a configuration with Dolly-like defaults: 2-deep buffers and
    /// single-cycle hops at the given clock.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize, clock: Clock) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be non-zero");
        MeshConfig {
            width,
            height,
            clock,
            buf_depth: 2,
            hop_cycles: 1,
        }
    }

    /// Sets the input-buffer depth.
    pub fn with_buf_depth(mut self, depth: usize) -> Self {
        self.buf_depth = depth;
        self
    }

    /// Sets the per-hop latency in cycles.
    pub fn with_hop_cycles(mut self, cycles: u32) -> Self {
        self.hop_cycles = cycles;
        self
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// Coordinates of a node id.
    pub fn coords(&self, id: NodeId) -> (usize, usize) {
        (id % self.width, id / self.width)
    }

    /// Node id of coordinates.
    pub fn node_at(&self, x: usize, y: usize) -> NodeId {
        y * self.width + x
    }

    /// XY routing: returns the output port at router `at` toward `dst`.
    pub(crate) fn route(&self, at: NodeId, dst: NodeId) -> Port {
        let (ax, ay) = self.coords(at);
        let (dx, dy) = self.coords(dst);
        if dx > ax {
            Port::East
        } else if dx < ax {
            Port::West
        } else if dy > ay {
            Port::South
        } else if dy < ay {
            Port::North
        } else {
            Port::Local
        }
    }

    /// Neighbor of `at` through output port `p`, and the input port the
    /// message arrives on there.
    pub(crate) fn neighbor(&self, at: NodeId, p: Port) -> (NodeId, Port) {
        let (x, y) = self.coords(at);
        match p {
            Port::North => (self.node_at(x, y - 1), Port::South),
            Port::South => (self.node_at(x, y + 1), Port::North),
            Port::East => (self.node_at(x + 1, y), Port::West),
            Port::West => (self.node_at(x - 1, y), Port::East),
            Port::Local => unreachable!("local port has no neighbor"),
        }
    }
}

#[derive(Clone)]
struct Router<P> {
    /// Input links, indexed `[port][vnet]`: one bounded synchronous link per
    /// (port, vnet) pair, modelling the per-vnet input buffers of an
    /// OpenPiton-style router port.
    inputs: Vec<Vec<Link<Message<P>>>>,
    /// Time until which each output port's link is serializing a message.
    out_busy: [Time; PORT_COUNT],
    /// Round-robin pointer per output port over (input port, vnet) pairs.
    rr: [usize; PORT_COUNT],
    /// Occupancy bitmask over the 15 (port, vnet) input queues (bit
    /// `port * VNET_COUNT + vnet`). Arbitration probes only set bits — an
    /// empty queue can never win, so skipping it is bit-exact — turning
    /// the 5x15 scan into 5 x popcount.
    occ: u16,
}

/// Aggregate traffic statistics for a mesh.
#[derive(Clone, Copy, Debug, Default)]
pub struct MeshStats {
    /// Messages delivered to their destination.
    pub delivered: u64,
    /// Flits delivered.
    pub delivered_flits: u64,
    /// Sum over delivered messages of (eject − inject) time.
    pub total_latency: Time,
    /// Messages injected.
    pub injected: u64,
}

impl MeshStats {
    /// Mean in-network latency per delivered message.
    pub fn mean_latency(&self) -> Time {
        self.total_latency
            .as_ps()
            .checked_div(self.delivered)
            .map_or(Time::ZERO, Time::from_ps)
    }
}

/// A 2D-mesh network-on-chip. See the crate-level docs for the model.
#[derive(Clone)]
pub struct Mesh<P> {
    cfg: MeshConfig,
    routers: Vec<Router<P>>,
    eject: Vec<[VecDeque<Message<P>>; VNET_COUNT]>,
    stats: MeshStats,
    /// Worklist of routers with at least one buffered input message. An idle
    /// router is a provable no-op in [`tick`](Mesh::tick) (round-robin
    /// pointers only move when a message is chosen, `out_busy` is only
    /// compared against `now`), so ticking only this set is bit-identical to
    /// scanning every router. Kept sorted so iteration order matches the
    /// original ascending scan.
    active: BTreeSet<NodeId>,
    /// Scratch buffer for the per-tick snapshot of `active` (avoids a fresh
    /// allocation every tick).
    scratch: Vec<NodeId>,
    /// Total messages sitting in ejection queues (all nodes, all vnets).
    eject_pending: usize,
    /// Nodes with at least one message in an ejection queue, kept sorted so
    /// draining them in worklist order matches the ascending all-nodes scan.
    eject_active: BTreeSet<NodeId>,
    /// Monotone transaction-id counter, stamped onto every injected
    /// message whether or not tracing is on (so enabling tracing never
    /// perturbs state).
    trace_seq: u64,
    /// Trace handle (disabled unless the owning system enables tracing).
    tracer: Tracer,
    /// Requested shard count for the tick pass (host-side; never affects
    /// results — see [`set_shards`](Mesh::set_shards)).
    shards_target: usize,
    /// Current contiguous router ranges, one per shard. Rebuilt lazily
    /// when `plan_dirty` (shard-count change or a load-EWMA fold).
    plan: Vec<std::ops::Range<usize>>,
    /// Whether `plan` must be rebuilt before the next tick.
    plan_dirty: bool,
    /// Start-of-tick fullness bitmask per node over the 15 (port, vnet)
    /// input queues, recomputed in `prepare_tick` for every node a forward
    /// could probe this tick. Forwards test *this* snapshot instead of the
    /// live links (credit-based backpressure), which is what makes the
    /// arbitration outcome independent of shard execution order.
    full_masks: Vec<u16>,
    /// Nodes whose `full_masks` entry is non-zero (zeroed next tick).
    masked: Vec<NodeId>,
    /// Per-shard deferred side effects, replayed by `finish_tick`.
    lanes: Vec<MeshTickLane<P>>,
    /// Per-node pop counters since the last EWMA fold (rebalancer input).
    work_accum: Vec<u64>,
    /// Folded per-node load, driving the adaptive repartition. Host-side:
    /// not serialized, never observable in results.
    ewma: LoadEwma,
}

/// Deferred side effects of one shard's portion of a mesh tick: flits
/// leaving the shard's routers (toward any router — intra-shard moves are
/// deferred too, so link statistics are identical at every shard count),
/// local ejections, routers that drained, and trace events. Replayed by
/// [`Mesh::finish_tick`] in ascending shard order, which equals serial
/// router order because shards are contiguous ascending ranges.
struct MeshTickLane<P> {
    /// `(dst node, input port, vnet, message)` for every forwarded flit.
    forwards: Vec<(NodeId, u8, u8, Message<P>)>,
    /// `(node, vnet, message)` for every local ejection.
    ejects: Vec<(NodeId, u8, Message<P>)>,
    /// Routers whose input queues fully drained this tick.
    deactivated: Vec<NodeId>,
    /// `(timestamp ps, kind, a, b)` trace events in emission order.
    events: Vec<(u64, EventKind, u64, u64)>,
}

impl<P> Default for MeshTickLane<P> {
    fn default() -> Self {
        MeshTickLane {
            forwards: Vec::new(),
            ejects: Vec::new(),
            deactivated: Vec::new(),
            events: Vec::new(),
        }
    }
}

impl<P: Clone> Clone for MeshTickLane<P> {
    fn clone(&self) -> Self {
        MeshTickLane {
            forwards: self.forwards.clone(),
            ejects: self.ejects.clone(),
            deactivated: self.deactivated.clone(),
            events: self.events.clone(),
        }
    }
}

impl<P> Mesh<P> {
    /// Builds an idle mesh.
    pub fn new(cfg: MeshConfig) -> Self {
        let hop_latency = cfg.clock.period().mul(u64::from(cfg.hop_cycles));
        let routers = (0..cfg.nodes())
            .map(|_| Router {
                inputs: (0..PORT_COUNT)
                    .map(|_| {
                        (0..VNET_COUNT)
                            .map(|_| Link::sync(cfg.buf_depth, hop_latency))
                            .collect()
                    })
                    .collect(),
                out_busy: [Time::ZERO; PORT_COUNT],
                rr: [0; PORT_COUNT],
                occ: 0,
            })
            .collect();
        let eject = (0..cfg.nodes())
            .map(|_| [VecDeque::new(), VecDeque::new(), VecDeque::new()])
            .collect();
        let nodes = cfg.nodes();
        Mesh {
            cfg,
            routers,
            eject,
            stats: MeshStats::default(),
            active: BTreeSet::new(),
            scratch: Vec::new(),
            eject_pending: 0,
            eject_active: BTreeSet::new(),
            trace_seq: 0,
            tracer: Tracer::disabled(),
            shards_target: 1,
            // One full-range shard: the serial tick as the degenerate plan.
            #[allow(clippy::single_range_in_vec_init)]
            plan: vec![0..nodes],
            plan_dirty: false,
            full_masks: vec![0; nodes],
            masked: Vec::new(),
            lanes: vec![MeshTickLane::default()],
            work_accum: vec![0; nodes],
            ewma: LoadEwma::new(nodes),
        }
    }

    /// Sets the number of contiguous router shards the tick pass splits
    /// into (clamped to `[1, nodes]`). Purely a host-side throughput knob:
    /// the shard plan never influences simulated results — the per-shard
    /// lanes replay in ascending shard order, which equals the serial
    /// router order at any count. The actual boundaries adapt to observed
    /// per-router load (see [`begin_tick`](Mesh::begin_tick)).
    pub fn set_shards(&mut self, n: usize) {
        let n = n.clamp(1, self.routers.len());
        if n != self.shards_target {
            self.shards_target = n;
            self.plan_dirty = true;
        }
    }

    /// The current number of shards in the tick plan.
    pub fn shards(&self) -> usize {
        self.plan.len()
    }

    /// Number of routers with at least one buffered input message.
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// The mesh configuration.
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    /// Installs the trace handle (events: flit inject/route/eject per
    /// virtual network). Purely observational — results are bit-identical
    /// with or without it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> MeshStats {
        self.stats
    }

    /// Whether node `node` can inject on `vnet` at this time (local input
    /// buffer has space).
    pub fn can_inject(&self, node: NodeId, vnet: VNet) -> bool {
        // Synchronous links ignore the probe time.
        self.routers[node].inputs[Port::Local as usize][vnet.index()].can_push(Time::ZERO)
    }

    /// Injects a message at its source node's local port.
    ///
    /// # Errors
    ///
    /// Returns [`PushError`] if the local input buffer is full.
    ///
    /// # Panics
    ///
    /// Panics if `msg.src` or `msg.dst` is out of range.
    pub fn inject(&mut self, now: Time, mut msg: Message<P>) -> Result<(), PushError> {
        assert!(msg.src < self.cfg.nodes(), "source out of range");
        assert!(msg.dst < self.cfg.nodes(), "destination out of range");
        msg.injected_at = now;
        self.trace_seq += 1;
        msg.trace_id = self.trace_seq;
        let vnet = msg.vnet.index();
        let node = msg.src;
        let packed = pack_noc(msg.src, msg.dst, vnet, msg.flits);
        let trace_id = msg.trace_id;
        self.routers[node].inputs[Port::Local as usize][vnet].push(now, msg)?;
        self.tracer
            .emit(now.as_ps(), EventKind::NocInject, trace_id, packed);
        self.routers[node].occ |= 1 << (Port::Local as usize * VNET_COUNT + vnet);
        self.stats.injected += 1;
        self.active.insert(node);
        Ok(())
    }

    /// Removes the next delivered message for `node` on `vnet`, if any.
    pub fn eject(&mut self, node: NodeId, vnet: VNet) -> Option<Message<P>> {
        let m = self.eject[node][vnet.index()].pop_front();
        if m.is_some() {
            self.eject_pending -= 1;
            if self.eject[node].iter().all(|q| q.is_empty()) {
                self.eject_active.remove(&node);
            }
        }
        m
    }

    /// Whether any delivered message is waiting in an ejection queue.
    pub fn has_ejections(&self) -> bool {
        self.eject_pending > 0
    }

    /// The lowest-numbered node with a waiting ejection, if any. Callers
    /// drain nodes through [`eject`](Mesh::eject) in this order to visit
    /// only dirty nodes while matching an ascending all-nodes scan.
    pub fn first_eject_node(&self) -> Option<NodeId> {
        self.eject_active.iter().next().copied()
    }

    /// Peeks the next delivered message for `node` on `vnet`.
    pub fn peek_eject(&self, node: NodeId, vnet: VNet) -> Option<&Message<P>> {
        self.eject[node][vnet.index()].front()
    }

    /// Messages waiting in `node`'s ejection queue on `vnet`.
    pub fn eject_len(&self, node: NodeId, vnet: VNet) -> usize {
        self.eject[node][vnet.index()].len()
    }

    /// True when no message is buffered anywhere in the network (ejection
    /// queues included). O(1): the active worklist tracks exactly the routers
    /// with buffered inputs, and `eject_pending` counts ejection-queue
    /// occupancy.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.eject_pending == 0
    }

    /// The earliest time the mesh itself can make progress, or `None` when it
    /// is completely drained (ejection queues included).
    ///
    /// If any router holds a message that is already visible (it may have
    /// lost arbitration or been blocked this cycle), progress is possible at
    /// the very next router clock edge. Otherwise nothing can move before the
    /// earliest `ready_at` among buffered messages: fronts have the minimum
    /// `ready_at` of their queue (pushes are time-ordered with constant
    /// latency) and `out_busy` expiry alone moves nothing.
    pub fn next_event_time(&self, now: Time) -> Option<Time> {
        if self.eject_pending > 0 {
            return Some(now);
        }
        let mut earliest: Option<Time> = None;
        for &node in &self.active {
            let mut occ = self.routers[node].occ;
            while occ != 0 {
                let idx = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let q = &self.routers[node].inputs[idx / VNET_COUNT][idx % VNET_COUNT];
                if let Some(ready) = q.front_ready_at() {
                    let cand = if ready <= now {
                        self.cfg.clock.next_edge_after(now)
                    } else {
                        ready
                    };
                    earliest = merge_min(earliest, Some(cand));
                }
            }
        }
        earliest
    }

    /// XY routing (delegates to [`MeshConfig::route`]).
    #[cfg(test)]
    fn route(&self, at: NodeId, dst: NodeId) -> Port {
        self.cfg.route(at, dst)
    }

    /// Rebuilds the contiguous shard plan from the folded load EWMAs.
    /// `1 +` keeps every router weighted even when the mesh just went
    /// idle, so the split degrades to an even one rather than starving.
    fn rebuild_plan(&mut self) {
        self.plan_dirty = false;
        let n = self.routers.len();
        let k = self.shards_target.clamp(1, n);
        if k == 1 {
            self.plan.clear();
            self.plan.push(0..n);
        } else {
            let weights: Vec<u64> = self.ewma.values().iter().map(|&v| 1 + v).collect();
            self.plan = partition_balanced(&weights, k);
        }
        self.lanes
            .resize_with(self.plan.len(), MeshTickLane::default);
    }

    /// Recomputes the start-of-tick fullness bitmask for `node` (probing
    /// only occupied queues — a full queue is necessarily non-empty).
    fn mask_node(&mut self, node: NodeId) {
        let r = &self.routers[node];
        let mut occ = r.occ;
        let mut full = 0u16;
        while occ != 0 {
            let idx = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            // Synchronous links ignore the probe time.
            if !r.inputs[idx / VNET_COUNT][idx % VNET_COUNT].can_push(Time::ZERO) {
                full |= 1 << idx;
            }
        }
        if full != 0 {
            self.full_masks[node] = full;
            self.masked.push(node);
        }
    }

    /// The serial prologue of a tick: fold the rebalancer EWMAs (at
    /// deterministic simulated-time quanta only), rebuild the shard plan
    /// if needed, snapshot the active worklist into `scratch`, and compute
    /// the start-of-tick fullness masks for every queue a forward could
    /// probe (the neighbors of active routers).
    fn prepare_tick(&mut self, now: Time) {
        let period_ps = self.cfg.clock.period().as_ps().max(1);
        let quantum = now.as_ps() / period_ps / REBALANCE_QUANTUM_TICKS;
        if self.ewma.fold(&mut self.work_accum, quantum) {
            self.plan_dirty = true;
        }
        if self.plan_dirty {
            self.rebuild_plan();
        }
        // Snapshot the active set in ascending order: identical visit order
        // to the original 0..nodes scan restricted to routers that can act.
        // Messages forwarded during this tick are replayed by `finish_tick`
        // and are not visible until at least the next edge (`hop_latency`
        // ≥ one period), so re-activating a neighbor never changes this
        // tick's behavior.
        let mut worklist = std::mem::take(&mut self.scratch);
        worklist.clear();
        worklist.extend(self.active.iter().copied());
        self.scratch = worklist;
        for i in 0..self.masked.len() {
            let n = self.masked[i];
            self.full_masks[n] = 0;
        }
        self.masked.clear();
        let (w, h) = (self.cfg.width, self.cfg.height);
        for i in 0..self.scratch.len() {
            let node = self.scratch[i];
            let (x, y) = self.cfg.coords(node);
            if y > 0 {
                self.mask_node(node - w);
            }
            if y + 1 < h {
                self.mask_node(node + w);
            }
            if x + 1 < w {
                self.mask_node(node + 1);
            }
            if x > 0 {
                self.mask_node(node - 1);
            }
        }
    }

    /// Splits the tick into per-shard tasks for a worker pool. The caller
    /// must run **every** returned task exactly once (on any thread — they
    /// are range-disjoint; see [`MeshShardTask`]) and then call
    /// [`finish_tick`](Mesh::finish_tick) with the same `now`. Serial
    /// callers use [`tick`](Mesh::tick), which drives the identical code
    /// path inline; results are byte-identical either way, at any shard
    /// count.
    pub fn begin_tick(&mut self, now: Time) -> Vec<MeshShardTask<P>> {
        self.prepare_tick(now);
        let trace_on = self.tracer.is_enabled();
        let mut tasks = Vec::with_capacity(self.plan.len());
        for (i, range) in self.plan.iter().enumerate() {
            let wl_s = self.scratch.partition_point(|&n| n < range.start);
            let wl_e = self.scratch.partition_point(|&n| n < range.end);
            tasks.push(MeshShardTask {
                routers: unsafe { self.routers.as_mut_ptr().add(range.start) },
                routers_len: range.len(),
                node0: range.start,
                worklist: unsafe { self.scratch.as_ptr().add(wl_s) },
                wl_len: wl_e - wl_s,
                full: self.full_masks.as_ptr(),
                full_len: self.full_masks.len(),
                lane: unsafe { self.lanes.as_mut_ptr().add(i) },
                work: unsafe { self.work_accum.as_mut_ptr().add(range.start) },
                cfg: self.cfg,
                now,
                trace_on,
            });
        }
        tasks
    }

    /// Replays the per-shard lanes filled by the shard tasks, in ascending
    /// shard order (= serial router order): trace events first, then every
    /// deactivation, then every ejection, then every forward — removals
    /// strictly before insertions, and *all* pops (done in the shard
    /// phase) strictly before *all* pushes, so per-link occupancy samples
    /// are identical at every shard count.
    pub fn finish_tick(&mut self, now: Time) {
        if self.tracer.is_enabled() {
            for lane in &self.lanes {
                for &(ts, kind, a, b) in &lane.events {
                    self.tracer.emit(ts, kind, a, b);
                }
            }
        }
        for li in 0..self.lanes.len() {
            self.lanes[li].events.clear();
            let mut deact = std::mem::take(&mut self.lanes[li].deactivated);
            for &n in &deact {
                self.active.remove(&n);
            }
            deact.clear();
            self.lanes[li].deactivated = deact;
        }
        for li in 0..self.lanes.len() {
            let mut ejects = std::mem::take(&mut self.lanes[li].ejects);
            for (node, vn, msg) in ejects.drain(..) {
                self.stats.delivered += 1;
                self.stats.delivered_flits += u64::from(msg.flits);
                self.stats.total_latency += now.saturating_sub(msg.injected_at);
                self.eject[node][vn as usize].push_back(msg);
                self.eject_pending += 1;
                self.eject_active.insert(node);
            }
            self.lanes[li].ejects = ejects;
        }
        for li in 0..self.lanes.len() {
            let mut fwds = std::mem::take(&mut self.lanes[li].forwards);
            for (nb, in_port, vn, msg) in fwds.drain(..) {
                let queue = in_port as usize * VNET_COUNT + vn as usize;
                self.routers[nb].inputs[in_port as usize][vn as usize]
                    .push(now, msg)
                    .expect("start-of-tick fullness probe guarantees space");
                self.routers[nb].occ |= 1 << queue;
                self.active.insert(nb);
            }
            self.lanes[li].forwards = fwds;
        }
    }

    /// Advances the mesh by one fast-clock edge at time `now`.
    ///
    /// Each output port forwards at most one message per cycle (chosen
    /// round-robin over input-port/vnet pairs), honoring link serialization
    /// (`flits` cycles per link) and downstream buffer space, probed
    /// against the start-of-tick fullness snapshot (credit-based: a queue
    /// that frees space this cycle accepts new flits the next).
    ///
    /// This is the serial driver of the exact code path
    /// [`begin_tick`](Mesh::begin_tick)/[`finish_tick`](Mesh::finish_tick)
    /// run across a worker pool — the shard passes execute inline over the
    /// same plan, so results are byte-identical at any shard count.
    pub fn tick(&mut self, now: Time) {
        self.prepare_tick(now);
        let trace_on = self.tracer.is_enabled();
        let Mesh {
            cfg,
            routers,
            scratch,
            full_masks,
            lanes,
            work_accum,
            plan,
            ..
        } = self;
        for (i, range) in plan.iter().enumerate() {
            let wl_s = scratch.partition_point(|&n| n < range.start);
            let wl_e = scratch.partition_point(|&n| n < range.end);
            tick_shard(
                cfg,
                now,
                range.start,
                &mut routers[range.clone()],
                &scratch[wl_s..wl_e],
                full_masks,
                &mut work_accum[range.clone()],
                &mut lanes[i],
                trace_on,
            );
        }
        self.finish_tick(now);
    }
}

/// Fast-clock ticks per adaptive-rebalancing quantum. Folds happen when a
/// tick first executes past a quantum boundary — a pure function of
/// simulated time, so the shard layout never depends on wall clock or
/// thread count.
const REBALANCE_QUANTUM_TICKS: u64 = 4096;

const QUEUES: usize = PORT_COUNT * VNET_COUNT;
/// `front_route` sentinel: not probed yet this tick.
const UNKNOWN: u8 = 0xFF;
/// `front_route` sentinel: probed, no visible front.
const NO_MSG: u8 = 0xFE;

/// One shard's portion of a mesh tick: switch arbitration and pops on the
/// shard's own routers (`routers` covers nodes `node0..node0 + len`),
/// with every push — boundary-crossing *and* intra-shard — deferred into
/// `lane`. Downstream space is probed against the start-of-tick `full`
/// snapshot, never the live links, so the outcome is independent of shard
/// execution order.
#[allow(clippy::too_many_arguments)]
fn tick_shard<P>(
    cfg: &MeshConfig,
    now: Time,
    node0: NodeId,
    routers: &mut [Router<P>],
    worklist: &[NodeId],
    full: &[u16],
    work: &mut [u64],
    lane: &mut MeshTickLane<P>,
    trace_on: bool,
) {
    let period = cfg.clock.period();
    for &node in worklist {
        // Hoisted per-tick router borrow: the whole per-port loop runs on
        // one `&mut Router` with no repeated bounds checks.
        let r = &mut routers[node - node0];
        // Output port of each queue's visible front, probed lazily at
        // most once per tick (invalidated on pop): within a tick a
        // front only changes when we pop it, so caching is bit-exact
        // while the uncached scan re-probed each queue per port.
        let mut front_route = [UNKNOWN; QUEUES];
        for &out in &PORTS {
            let o = out as usize;
            if r.occ == 0 {
                break; // every input drained mid-tick
            }
            if r.out_busy[o] > now {
                continue;
            }
            // Round-robin over the 15 (port, vnet) input queues,
            // probing only the occupied ones (identical choice: an
            // empty queue never routes anywhere).
            let start = r.rr[o];
            let occ = r.occ;
            let mut chosen: Option<usize> = None;
            let mut idx = start;
            for _ in 0..QUEUES {
                if occ & (1 << idx) != 0 {
                    if front_route[idx] == UNKNOWN {
                        let q = &r.inputs[idx / VNET_COUNT][idx % VNET_COUNT];
                        front_route[idx] = match q.front(now) {
                            Some(m) => cfg.route(node, m.dst) as u8,
                            None => NO_MSG,
                        };
                    }
                    if front_route[idx] == o as u8 {
                        if out == Port::Local {
                            chosen = Some(idx);
                            break;
                        }
                        let (nb, in_port) = cfg.neighbor(node, out);
                        let vn = idx % VNET_COUNT;
                        if full[nb] & (1 << (in_port as usize * VNET_COUNT + vn)) == 0 {
                            chosen = Some(idx);
                            break;
                        }
                    }
                }
                idx += 1;
                if idx == QUEUES {
                    idx = 0;
                }
            }
            let Some(idx) = chosen else { continue };
            let (ip, vn) = (idx / VNET_COUNT, idx % VNET_COUNT);
            r.rr[o] = (idx + 1) % QUEUES;
            let msg = r.inputs[ip][vn].pop(now).expect("front was visible");
            front_route[idx] = UNKNOWN;
            if r.inputs[ip][vn].is_empty() {
                r.occ &= !(1 << idx);
            }
            r.out_busy[o] = now + period.mul(u64::from(msg.flits));
            work[node - node0] += 1;
            if out == Port::Local {
                if trace_on {
                    lane.events.push((
                        now.as_ps(),
                        EventKind::NocEject,
                        msg.trace_id,
                        pack_noc(msg.src, msg.dst, vn, msg.flits),
                    ));
                }
                lane.ejects.push((node, vn as u8, msg));
            } else {
                let (nb, in_port) = cfg.neighbor(node, out);
                if trace_on {
                    lane.events.push((
                        now.as_ps(),
                        EventKind::NocRoute,
                        msg.trace_id,
                        pack_hop(node, o, vn),
                    ));
                }
                lane.forwards.push((nb, in_port as u8, vn as u8, msg));
            }
        }
        if r.occ == 0 {
            lane.deactivated.push(node);
        }
    }
}

/// Raw-pointer work descriptor for one mesh shard, produced by
/// [`Mesh::begin_tick`] and safe to send to a worker thread.
///
/// Disjointness invariant (upheld by `begin_tick`): every task's
/// `routers`/`work`/`lane` pointers cover ranges of the parent mesh that
/// no other task of the same tick overlaps, while `worklist`/`full` are
/// read-only shared snapshots. The parent mesh must stay alive and
/// untouched until every task has run and
/// [`finish_tick`](Mesh::finish_tick) reclaims the lanes.
pub struct MeshShardTask<P> {
    routers: *mut Router<P>,
    routers_len: usize,
    node0: NodeId,
    worklist: *const NodeId,
    wl_len: usize,
    full: *const u16,
    full_len: usize,
    lane: *mut MeshTickLane<P>,
    work: *mut u64,
    cfg: MeshConfig,
    now: Time,
    trace_on: bool,
}

// SAFETY: the pointed-to regions are range-disjoint per task (see the
// struct docs) and `P: Send` makes the messages they contain sendable;
// the epoch barrier around the tick provides the necessary happens-before
// edges on both sides.
unsafe impl<P: Send> Send for MeshShardTask<P> {}

impl<P> MeshShardTask<P> {
    /// Runs this shard's portion of the tick.
    ///
    /// # Safety
    ///
    /// The parent [`Mesh`] must be alive and otherwise untouched (no
    /// concurrent `&mut` access, no other task overlapping this one's
    /// ranges — guaranteed for the task set of a single
    /// [`Mesh::begin_tick`] call), and each task must run at most once
    /// per `begin_tick`.
    pub unsafe fn run(&self) {
        let routers = std::slice::from_raw_parts_mut(self.routers, self.routers_len);
        let worklist = std::slice::from_raw_parts(self.worklist, self.wl_len);
        let full = std::slice::from_raw_parts(self.full, self.full_len);
        let work = std::slice::from_raw_parts_mut(self.work, self.routers_len);
        let lane = &mut *self.lane;
        tick_shard(
            &self.cfg,
            self.now,
            self.node0,
            routers,
            worklist,
            full,
            work,
            lane,
            self.trace_on,
        );
    }
}

impl<P> Component for Mesh<P> {
    fn name(&self) -> String {
        "mesh".to_string()
    }

    fn domain(&self) -> ClockDomain {
        ClockDomain::Fast
    }

    fn tick(&mut self, now: Time) {
        Mesh::tick(self, now);
    }

    /// Note the mesh-specific convention: a visible-but-blocked head reports
    /// the *next* clock edge (routers only arbitrate on edges), never `now`.
    fn next_event_time(&self, now: Time) -> Option<Time> {
        Mesh::next_event_time(self, now)
    }

    fn is_active(&self, _now: Time) -> bool {
        !self.is_idle()
    }

    fn visit_links(&self, visit: &mut dyn FnMut(&str, LinkReport)) {
        for (node, router) in self.routers.iter().enumerate() {
            for (p, per_port) in router.inputs.iter().enumerate() {
                for (vn, link) in per_port.iter().enumerate() {
                    visit(
                        &format!("n{node}.{}.{}", PORTS[p].label(), VNET_LABELS[vn]),
                        link.report(),
                    );
                }
            }
        }
    }
}

pack_enum!(VNet { 0 => Req, 1 => Fwd, 2 => Resp });
pack_struct!(Message<P> { src, dst, vnet, flits, injected_at, trace_id, payload }
    check |m| ensure(m.flits != 0, "zero-flit message"));
pack_struct!(MeshStats {
    delivered,
    delivered_flits,
    total_latency,
    injected
});

/// Writes per-shard lists as one list, concatenated in shard order.
fn pack_concat<'a, T: Pack + 'a>(
    w: &mut SnapWriter,
    parts: impl Iterator<Item = &'a Vec<T>> + Clone,
) {
    w.len64(parts.clone().map(Vec::len).sum());
    for item in parts.flatten() {
        item.pack(w);
    }
}

/// Hand-written: the per-shard lanes are encoded shard-count-invariantly,
/// the geometry is cross-checked, and every derived worklist is recomputed
/// from the loaded buffers instead of being trusted from the bytes.
impl<P: Pack> Snap for Mesh<P> {
    /// Serializes router buffers, ejection queues, traffic stats, the
    /// trace-id counter, and the boundary-exchange lane state (one
    /// combined lane — concatenation in shard order — so the encoding is
    /// independent of the shard count). The derived worklists (`active`,
    /// `eject_active`, `eject_pending`, per-router `occ`, the fullness
    /// masks) are *recomputed* from the loaded buffers — they are pure
    /// functions of queue occupancy, so rebuilding them is bit-exact and
    /// removes a whole class of corrupt-snapshot inconsistencies.
    /// `scratch` is transient (cleared at every tick), the tracer handle
    /// is a session resource, and the adaptive rebalancer (`work_accum`,
    /// the load EWMAs, the plan itself) is host-side machinery that never
    /// influences results; none of those are serialized — a restored mesh
    /// re-learns its load profile from zero.
    fn save(&self, w: &mut SnapWriter) {
        w.len64(self.routers.len());
        for router in &self.routers {
            for per_port in &router.inputs {
                for link in per_port {
                    link.save(w);
                }
            }
            router.out_busy.pack(w);
            router.rr.pack(w);
        }
        for node in &self.eject {
            for q in node {
                q.pack(w);
            }
        }
        self.stats.pack(w);
        w.u64(self.trace_seq);
        // One combined lane (forwards, ejections, deactivations; trace
        // `events` are a session resource and stay out of snapshots).
        pack_concat(w, self.lanes.iter().map(|l| &l.forwards));
        pack_concat(w, self.lanes.iter().map(|l| &l.ejects));
        pack_concat(w, self.lanes.iter().map(|l| &l.deactivated));
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.len64()? != self.routers.len() {
            return Err(SnapError::Corrupt("mesh node count mismatch"));
        }
        self.active.clear();
        for (node, router) in self.routers.iter_mut().enumerate() {
            let mut occ: u16 = 0;
            for (p, per_port) in router.inputs.iter_mut().enumerate() {
                for (vn, link) in per_port.iter_mut().enumerate() {
                    link.load(r)?;
                    if !link.is_empty() {
                        occ |= 1 << (p * VNET_COUNT + vn);
                    }
                }
            }
            router.out_busy = <[Time; PORT_COUNT]>::unpack(r)?;
            router.rr = <[usize; PORT_COUNT]>::unpack(r)?;
            router.occ = occ;
            if occ != 0 {
                self.active.insert(node);
            }
        }
        self.eject_pending = 0;
        self.eject_active.clear();
        for node in 0..self.eject.len() {
            for vn in 0..VNET_COUNT {
                self.eject[node][vn] = VecDeque::<Message<P>>::unpack(r)?;
                for m in &self.eject[node][vn] {
                    if m.src >= self.cfg.nodes() || m.dst >= self.cfg.nodes() {
                        return Err(SnapError::Corrupt("ejected message node out of range"));
                    }
                }
                self.eject_pending += self.eject[node][vn].len();
            }
            if self.eject[node].iter().any(|q| !q.is_empty()) {
                self.eject_active.insert(node);
            }
        }
        self.stats = MeshStats::unpack(r)?;
        self.trace_seq = r.u64()?;
        // Snapshots are taken between clock edges, where every lane has
        // been drained by `finish_tick`; a non-empty lane means the buffer
        // was produced mid-tick (or corrupted).
        for _ in 0..3 {
            ensure(r.len64()? == 0, "mesh tick lane not drained")?;
        }
        for lane in &mut self.lanes {
            lane.forwards.clear();
            lane.ejects.clear();
            lane.deactivated.clear();
            lane.events.clear();
        }
        self.scratch.clear();
        // Host-side rebalancer and the start-of-tick fullness snapshot:
        // cleared, not loaded — the masks are recomputed by the next
        // `prepare_tick` and the EWMAs re-learn from zero.
        self.full_masks.iter_mut().for_each(|m| *m = 0);
        self.masked.clear();
        self.work_accum.iter_mut().for_each(|a| *a = 0);
        self.ewma.reset();
        Ok(())
    }
}

pack_struct!(DirtyNodes { nodes } check |d| ensure(
    d.nodes.windows(2).all(|w| w[0] < w[1]),
    "dirty node list not strictly ascending"
));

/// A sorted, duplicate-free set of node ids, used as a dirty list by the
/// run loop: nodes whose injection pipes are non-empty. Iteration order is
/// always ascending node id, so a scan over the dirty set visits nodes in
/// exactly the same order as a full `0..nodes` scan — that makes the
/// optimized injection pump bit-identical to the naive one, and lets
/// per-shard dirty lists (each sorted, covering disjoint ranges) merge
/// deterministically regardless of which thread produced them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DirtyNodes {
    nodes: Vec<NodeId>,
}

impl DirtyNodes {
    /// An empty set.
    pub fn new() -> Self {
        DirtyNodes::default()
    }

    /// Adds `node` if not already present. O(log n) search + O(n) shift;
    /// dirty sets are tiny (bounded by in-flight injection sources).
    pub fn insert(&mut self, node: NodeId) {
        if let Err(i) = self.nodes.binary_search(&node) {
            self.nodes.insert(i, node);
        }
    }

    /// Whether `node` is in the set.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }

    /// Merges a sorted (strictly ascending) slice into the set in one
    /// pass — O(n + m) instead of m binary-search-and-shift inserts, used
    /// when replaying per-shard dirty lists at the deterministic merge.
    ///
    /// # Panics
    ///
    /// Panics (via `debug_assert`) if `other` is not strictly ascending.
    pub fn merge_sorted(&mut self, other: &[NodeId]) {
        debug_assert!(other.windows(2).all(|w| w[0] < w[1]));
        if other.is_empty() {
            return;
        }
        if self.nodes.is_empty()
            || *other.first().expect("non-empty") > *self.nodes.last().expect("non-empty")
        {
            self.nodes.extend_from_slice(other);
            return;
        }
        let merged = {
            let mut merged = Vec::with_capacity(self.nodes.len() + other.len());
            let (mut i, mut j) = (0, 0);
            while i < self.nodes.len() && j < other.len() {
                match self.nodes[i].cmp(&other[j]) {
                    std::cmp::Ordering::Less => {
                        merged.push(self.nodes[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push(other[j]);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push(self.nodes[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            merged.extend_from_slice(&self.nodes[i..]);
            merged.extend_from_slice(&other[j..]);
            merged
        };
        self.nodes = merged;
    }

    /// Keeps only the nodes for which `keep` returns true, preserving
    /// ascending order. `keep` is called exactly once per node, ascending.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId) -> bool) {
        self.nodes.retain(|&n| keep(n));
    }

    /// Number of dirty nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Removes everything.
    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// Ascending iteration over the dirty node ids.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_until<P>(
        mesh: &mut Mesh<P>,
        start: Time,
        node: NodeId,
        vnet: VNet,
        max_cycles: u32,
    ) -> (Time, Message<P>) {
        let mut t = start;
        for _ in 0..max_cycles {
            t += Time::from_ps(1000);
            mesh.tick(t);
            if let Some(m) = mesh.eject(node, vnet) {
                return (t, m);
            }
        }
        panic!("message not delivered within {max_cycles} cycles");
    }

    #[test]
    fn single_hop_delivery() {
        let cfg = MeshConfig::new(2, 1, Clock::ghz1());
        let mut mesh: Mesh<u32> = Mesh::new(cfg);
        let t0 = Time::from_ps(1000);
        mesh.inject(t0, Message::new(0, 1, VNet::Req, 1, 7))
            .unwrap();
        let (_, m) = step_until(&mut mesh, t0, 1, VNet::Req, 10);
        assert_eq!(m.payload, 7);
        assert_eq!(mesh.stats().delivered, 1);
    }

    #[test]
    fn self_delivery_via_local_port() {
        let cfg = MeshConfig::new(2, 2, Clock::ghz1());
        let mut mesh: Mesh<u32> = Mesh::new(cfg);
        let t0 = Time::from_ps(1000);
        mesh.inject(t0, Message::new(2, 2, VNet::Resp, 1, 42))
            .unwrap();
        let (_, m) = step_until(&mut mesh, t0, 2, VNet::Resp, 10);
        assert_eq!(m.payload, 42);
    }

    #[test]
    fn latency_scales_with_hops() {
        // 4x4 mesh: corner to corner is 6 hops.
        let cfg = MeshConfig::new(4, 4, Clock::ghz1());
        let mut mesh: Mesh<u32> = Mesh::new(cfg);
        let t0 = Time::from_ps(1000);
        mesh.inject(t0, Message::new(0, 15, VNet::Req, 1, 0))
            .unwrap();
        let (t_far, _) = step_until(&mut mesh, t0, 15, VNet::Req, 40);

        let mut mesh2: Mesh<u32> = Mesh::new(cfg);
        mesh2
            .inject(t0, Message::new(0, 1, VNet::Req, 1, 0))
            .unwrap();
        let (t_near, _) = step_until(&mut mesh2, t0, 1, VNet::Req, 40);
        assert!(t_far > t_near, "corner-to-corner must take longer");
        // 6 hops at 1 cycle/hop + ejection arbitration.
        let cycles = (t_far - t0).as_ps() / 1000;
        assert!((6..=10).contains(&cycles), "got {cycles} cycles");
    }

    #[test]
    fn xy_route_is_deterministic() {
        let cfg = MeshConfig::new(3, 3, Clock::ghz1());
        let mesh: Mesh<u32> = Mesh::new(cfg);
        // From center (1,1)=4 to (2,2)=8: X first -> East.
        assert_eq!(mesh.route(4, 8) as usize, Port::East as usize);
        // To (0,2)=6: West first.
        assert_eq!(mesh.route(4, 6) as usize, Port::West as usize);
        // Same column (1,0)=1: North.
        assert_eq!(mesh.route(4, 1) as usize, Port::North as usize);
        assert_eq!(mesh.route(4, 7) as usize, Port::South as usize);
        assert_eq!(mesh.route(4, 4) as usize, Port::Local as usize);
    }

    #[test]
    fn point_to_point_ordering_same_vnet() {
        let cfg = MeshConfig::new(4, 1, Clock::ghz1());
        let mut mesh: Mesh<u32> = Mesh::new(cfg);
        let mut t = Time::from_ps(1000);
        let mut injected = 0u32;
        let mut received = Vec::new();
        let mut cycles = 0;
        while received.len() < 20 {
            if injected < 20 && mesh.can_inject(0, VNet::Req) {
                mesh.inject(t, Message::new(0, 3, VNet::Req, 2, injected))
                    .unwrap();
                injected += 1;
            }
            mesh.tick(t);
            while let Some(m) = mesh.eject(3, VNet::Req) {
                received.push(m.payload);
            }
            t += Time::from_ps(1000);
            cycles += 1;
            assert!(cycles < 1000, "deadlock");
        }
        assert_eq!(received, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn vnets_are_independently_buffered() {
        // Saturate Req; Resp must still flow.
        let cfg = MeshConfig::new(2, 1, Clock::ghz1()).with_buf_depth(1);
        let mut mesh: Mesh<u32> = Mesh::new(cfg);
        let t0 = Time::from_ps(1000);
        // Fill Req local buffer (depth 1) without ticking.
        mesh.inject(t0, Message::new(0, 1, VNet::Req, 8, 1))
            .unwrap();
        assert!(!mesh.can_inject(0, VNet::Req));
        assert!(mesh.can_inject(0, VNet::Resp));
        mesh.inject(t0, Message::new(0, 1, VNet::Resp, 1, 2))
            .unwrap();
        let (_, m) = step_until(&mut mesh, t0, 1, VNet::Resp, 20);
        assert_eq!(m.payload, 2);
    }

    #[test]
    fn serialization_delay_for_long_messages() {
        // Two 3-flit messages over the same link: second is delayed by
        // serialization of the first.
        let cfg = MeshConfig::new(2, 1, Clock::ghz1());
        let mut mesh: Mesh<u32> = Mesh::new(cfg);
        let t0 = Time::from_ps(1000);
        mesh.inject(t0, Message::new(0, 1, VNet::Resp, 3, 1))
            .unwrap();
        mesh.inject(t0, Message::new(0, 1, VNet::Resp, 3, 2))
            .unwrap();
        let (t1, m1) = step_until(&mut mesh, t0, 1, VNet::Resp, 20);
        assert_eq!(m1.payload, 1);
        let (t2, m2) = step_until(&mut mesh, t1, 1, VNet::Resp, 20);
        assert_eq!(m2.payload, 2);
        let gap_cycles = (t2 - t1).as_ps() / 1000;
        assert!(
            gap_cycles >= 3,
            "second message must wait serialization, gap {gap_cycles}"
        );
    }

    #[test]
    fn backpressure_no_message_loss() {
        // Many-to-one hotspot: all messages eventually delivered, none lost,
        // per-source order preserved.
        let cfg = MeshConfig::new(3, 3, Clock::ghz1()).with_buf_depth(2);
        let mut mesh: Mesh<(usize, u32)> = Mesh::new(cfg);
        let mut t = Time::from_ps(1000);
        let mut pending: Vec<VecDeque<(usize, u32)>> = (0..9)
            .map(|src| (0..10).map(|i| (src, i)).collect())
            .collect();
        let mut got = 0usize;
        let mut per_src_last: [i64; 9] = [-1; 9];
        for _ in 0..5000 {
            for (src, queue) in pending.iter_mut().enumerate() {
                if src == 4 {
                    continue;
                }
                if let Some(&(s, i)) = queue.front() {
                    if mesh.can_inject(src, VNet::Req) {
                        mesh.inject(t, Message::new(src, 4, VNet::Req, 2, (s, i)))
                            .unwrap();
                        queue.pop_front();
                    }
                }
            }
            mesh.tick(t);
            while let Some(m) = mesh.eject(4, VNet::Req) {
                let (s, i) = m.payload;
                assert_eq!(per_src_last[s] + 1, i as i64, "per-source order broken");
                per_src_last[s] = i as i64;
                got += 1;
            }
            t += Time::from_ps(1000);
            if got == 80 {
                break;
            }
        }
        assert_eq!(got, 80, "all messages from 8 sources delivered");
        assert!(mesh.is_idle());
    }

    #[test]
    fn stats_accumulate() {
        let cfg = MeshConfig::new(2, 1, Clock::ghz1());
        let mut mesh: Mesh<u32> = Mesh::new(cfg);
        let t0 = Time::from_ps(1000);
        mesh.inject(t0, Message::new(0, 1, VNet::Req, 2, 0))
            .unwrap();
        step_until(&mut mesh, t0, 1, VNet::Req, 10);
        let s = mesh.stats();
        assert_eq!(s.injected, 1);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.delivered_flits, 2);
        assert!(s.mean_latency() > Time::ZERO);
    }

    #[test]
    fn config_coord_roundtrip() {
        let cfg = MeshConfig::new(5, 3, Clock::ghz1());
        for id in 0..cfg.nodes() {
            let (x, y) = cfg.coords(id);
            assert_eq!(cfg.node_at(x, y), id);
        }
    }

    #[test]
    #[should_panic(expected = "a message is at least one flit")]
    fn zero_flit_message_panics() {
        let _ = Message::new(0, 1, VNet::Req, 0, ());
    }

    #[test]
    fn active_set_drains_to_idle() {
        let cfg = MeshConfig::new(4, 4, Clock::ghz1());
        let mut mesh: Mesh<u32> = Mesh::new(cfg);
        assert!(mesh.is_idle());
        assert_eq!(mesh.next_event_time(Time::from_ps(1000)), None);
        let t0 = Time::from_ps(1000);
        mesh.inject(t0, Message::new(0, 15, VNet::Req, 1, 9))
            .unwrap();
        assert!(!mesh.is_idle());
        // Head not yet visible: next event is its ready time, not the next edge.
        assert_eq!(mesh.next_event_time(t0), Some(Time::from_ps(2000)));
        let mut t = t0;
        let m = loop {
            t += Time::from_ps(1000);
            mesh.tick(t);
            if mesh.has_ejections() {
                break mesh.eject(15, VNet::Req).unwrap();
            }
            assert!(t < Time::from_ps(40_000), "not delivered");
        };
        assert_eq!(m.payload, 9);
        assert!(mesh.is_idle());
        assert_eq!(mesh.next_event_time(t), None);
        // Idle ticks after drain stay idle (and are cheap no-ops).
        for _ in 0..4 {
            t += Time::from_ps(1000);
            mesh.tick(t);
        }
        assert!(mesh.is_idle());
    }

    #[test]
    fn visible_but_blocked_head_reports_next_edge() {
        // Two messages race for the same link: the loser stays visible, so
        // the next event must be the next clock edge.
        let cfg = MeshConfig::new(2, 1, Clock::ghz1());
        let mut mesh: Mesh<u32> = Mesh::new(cfg);
        let t0 = Time::from_ps(1000);
        mesh.inject(t0, Message::new(0, 1, VNet::Req, 4, 1))
            .unwrap();
        mesh.inject(t0, Message::new(0, 1, VNet::Resp, 4, 2))
            .unwrap();
        let t1 = Time::from_ps(2000);
        mesh.tick(t1); // one wins, the other stays visible
        assert_eq!(mesh.next_event_time(t1), Some(Time::from_ps(3000)));
    }

    #[test]
    fn mesh_snapshot_roundtrip_mid_flight_is_bit_identical() {
        // Load a 3x3 mesh with in-flight traffic, snapshot it, keep running
        // both the original and a freshly-restored copy in lockstep: every
        // ejection (payload, time) and the final stats must match exactly.
        let cfg = MeshConfig::new(3, 3, Clock::ghz1());
        let mut a: Mesh<u64> = Mesh::new(cfg);
        let mut t = Time::from_ps(1000);
        for i in 0..12u64 {
            let (src, dst) = ((i % 8) as usize, ((i * 5 + 3) % 9) as usize);
            let vnet = [VNet::Req, VNet::Fwd, VNet::Resp][(i % 3) as usize];
            if a.can_inject(src, vnet) {
                a.inject(t, Message::new(src, dst, vnet, 1 + (i % 3) as u32, i))
                    .unwrap();
            }
            a.tick(t);
            t += Time::from_ps(1000);
        }
        // Snapshot mid-flight (some messages buffered, some ejected).
        let mut w = SnapWriter::new();
        a.save(&mut w);
        let buf = w.finish();
        let mut b: Mesh<u64> = Mesh::new(cfg);
        let mut r = SnapReader::new(&buf);
        b.load(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(b.is_idle(), a.is_idle());
        // Drain both in lockstep.
        for _ in 0..200 {
            a.tick(t);
            b.tick(t);
            for node in 0..9 {
                for vnet in [VNet::Req, VNet::Fwd, VNet::Resp] {
                    loop {
                        let (ma, mb) = (a.eject(node, vnet), b.eject(node, vnet));
                        match (ma, mb) {
                            (None, None) => break,
                            (Some(x), Some(y)) => {
                                assert_eq!(x.payload, y.payload);
                                assert_eq!(x.trace_id, y.trace_id);
                                assert_eq!(x.injected_at, y.injected_at);
                            }
                            _ => panic!("ejection divergence at node {node}"),
                        }
                    }
                }
            }
            t += Time::from_ps(1000);
            if a.is_idle() && b.is_idle() {
                break;
            }
        }
        assert!(a.is_idle() && b.is_idle());
        assert_eq!(a.stats().delivered, b.stats().delivered);
        assert_eq!(a.stats().total_latency, b.stats().total_latency);
        assert_eq!(a.stats().injected, b.stats().injected);
        // New injections continue the same trace-id sequence.
        a.inject(t, Message::new(0, 1, VNet::Req, 1, 99)).unwrap();
        b.inject(t, Message::new(0, 1, VNet::Req, 1, 99)).unwrap();
        assert!(a.peek_eject(0, VNet::Req).is_none());
        assert_eq!(a.stats().injected, b.stats().injected);
    }

    #[test]
    fn mesh_load_rejects_wrong_geometry() {
        let mut a: Mesh<u32> = Mesh::new(MeshConfig::new(2, 2, Clock::ghz1()));
        let mut w = SnapWriter::new();
        a.save(&mut w);
        let buf = w.finish();
        let mut b: Mesh<u32> = Mesh::new(MeshConfig::new(3, 3, Clock::ghz1()));
        let mut r = SnapReader::new(&buf);
        assert!(matches!(b.load(&mut r), Err(SnapError::Corrupt(_))));
        let _ = a.eject(0, VNet::Req);
    }

    /// Drives a 4x4 mesh with traffic that crosses shard edges on both
    /// axes (corner-to-corner flows through the center, a hotspot, and
    /// self-deliveries) for long enough to cross several rebalancing
    /// quanta, and asserts the ejection streams, stats, and per-link
    /// reports are identical at every shard count — including counts that
    /// put a shard boundary through the corner routers' row *and* column.
    #[test]
    fn sharded_tick_is_invariant_across_shard_counts() {
        type LinkRow = (String, u64, u64, usize, [u64; 8]);
        fn run(shards: usize) -> (Vec<(u64, NodeId, u64)>, MeshStats, Vec<LinkRow>) {
            let cfg = MeshConfig::new(4, 4, Clock::ghz1());
            let mut mesh: Mesh<u64> = Mesh::new(cfg);
            mesh.set_shards(shards);
            let flows: [(NodeId, NodeId); 6] =
                [(0, 15), (15, 0), (3, 12), (12, 3), (5, 5), (1, 14)];
            let mut ejected: Vec<(u64, NodeId, u64)> = Vec::new();
            let mut t = Time::ZERO;
            let mut seq = 0u64;
            for cycle in 0..6000u64 {
                t += Time::from_ps(1000);
                // Bursty injection so queues fill and the fullness probe
                // actually blocks (exercising the credit path), with long
                // idle gaps so the EWMA folds see both load and decay.
                if cycle % 3 == 0 && cycle % 512 < 160 {
                    for &(src, dst) in &flows {
                        let vnet = [VNet::Req, VNet::Fwd, VNet::Resp][(seq % 3) as usize];
                        if mesh.can_inject(src, vnet) {
                            let flits = 1 + (seq % 3) as u32;
                            mesh.inject(t, Message::new(src, dst, vnet, flits, seq))
                                .unwrap();
                            seq += 1;
                        }
                    }
                }
                mesh.tick(t);
                while let Some(node) = mesh.first_eject_node() {
                    for vnet in VNet::ALL {
                        while let Some(m) = mesh.eject(node, vnet) {
                            ejected.push((t.as_ps(), node, m.payload));
                        }
                    }
                }
            }
            let mut links = Vec::new();
            Component::visit_links(&mesh, &mut |name, rep| {
                links.push((
                    name.to_string(),
                    rep.stats.pushes,
                    rep.stats.pops,
                    rep.stats.peak_occupancy,
                    rep.stats.occupancy_hist,
                ));
            });
            (ejected, mesh.stats(), links)
        }
        let (base_ej, base_stats, base_links) = run(1);
        assert!(
            base_stats.delivered > 500,
            "workload actually moved traffic"
        );
        for shards in [2, 3, 4, 5, 8, 16] {
            let (ej, stats, links) = run(shards);
            assert_eq!(ej, base_ej, "ejection stream differs at {shards} shards");
            assert_eq!(stats.delivered, base_stats.delivered);
            assert_eq!(stats.delivered_flits, base_stats.delivered_flits);
            assert_eq!(stats.total_latency, base_stats.total_latency);
            assert_eq!(stats.injected, base_stats.injected);
            assert_eq!(links, base_links, "link reports differ at {shards} shards");
        }
    }

    /// The pooled entry points (`begin_tick` task set + `finish_tick`)
    /// must produce exactly what the inline `tick` does — run the tasks
    /// on the calling thread here; thread placement cannot matter for
    /// range-disjoint tasks.
    #[test]
    fn begin_finish_tick_matches_inline_tick() {
        let cfg = MeshConfig::new(4, 4, Clock::ghz1());
        let mut a: Mesh<u64> = Mesh::new(cfg);
        let mut b: Mesh<u64> = Mesh::new(cfg);
        a.set_shards(4);
        b.set_shards(4);
        let mut t = Time::ZERO;
        for i in 0..400u64 {
            t += Time::from_ps(1000);
            if i % 2 == 0 {
                let (src, dst) = ((i % 16) as usize, ((i * 7 + 3) % 16) as usize);
                for m in [&mut a, &mut b] {
                    if m.can_inject(src, VNet::Req) {
                        m.inject(t, Message::new(src, dst, VNet::Req, 2, i))
                            .unwrap();
                    }
                }
            }
            a.tick(t);
            let tasks = b.begin_tick(t);
            for task in &tasks {
                // SAFETY: tasks from one begin_tick are range-disjoint and
                // each runs exactly once before finish_tick.
                unsafe { task.run() };
            }
            b.finish_tick(t);
            for node in 0..16 {
                for vnet in VNet::ALL {
                    loop {
                        match (a.eject(node, vnet), b.eject(node, vnet)) {
                            (None, None) => break,
                            (Some(x), Some(y)) => assert_eq!(x.payload, y.payload),
                            _ => panic!("ejection divergence at node {node}"),
                        }
                    }
                }
            }
        }
        assert_eq!(a.stats().delivered, b.stats().delivered);
        assert!(a.is_idle() == b.is_idle());
    }

    #[test]
    fn mesh_snapshot_rejects_undrained_lane() {
        // Hand-craft a buffer whose trailing lane section claims one
        // pending forward: load must fail loudly instead of dropping it.
        let cfg = MeshConfig::new(2, 2, Clock::ghz1());
        let a: Mesh<u32> = Mesh::new(cfg);
        let mut w = SnapWriter::new();
        a.save(&mut w);
        let mut buf = w.finish();
        // The clean save ends with three zero-length lane counts; rewrite
        // the tail with a lane carrying one deactivation instead.
        let mut lw = SnapWriter::new();
        (0usize, 0usize, vec![1usize]).pack(&mut lw);
        buf.truncate(buf.len() - 3 * 8);
        buf.extend_from_slice(&lw.finish());
        let mut b: Mesh<u32> = Mesh::new(cfg);
        let mut r = SnapReader::new(&buf);
        assert!(matches!(b.load(&mut r), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn dirty_nodes_pack_roundtrip() {
        let mut d = DirtyNodes::new();
        for n in [5, 1, 8] {
            d.insert(n);
        }
        let mut w = SnapWriter::new();
        d.pack(&mut w);
        let buf = w.finish();
        let mut r = SnapReader::new(&buf);
        let back = DirtyNodes::unpack(&mut r).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn dirty_nodes_stay_sorted_and_unique() {
        let mut d = DirtyNodes::new();
        for n in [7, 2, 9, 2, 7, 0, 9] {
            d.insert(n);
        }
        assert_eq!(d.len(), 4);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![0, 2, 7, 9]);
        assert!(d.contains(7));
        assert!(!d.contains(5));
        let mut seen = Vec::new();
        d.retain(|n| {
            seen.push(n);
            n != 2
        });
        assert_eq!(seen, vec![0, 2, 7, 9], "retain visits ascending");
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![0, 7, 9]);
        d.clear();
        assert!(d.is_empty());
    }

    #[test]
    fn dirty_nodes_merge_sorted_matches_inserts() {
        let cases: &[(&[NodeId], &[NodeId])] = &[
            (&[], &[1, 2, 3]),
            (&[1, 2, 3], &[]),
            (&[1, 5, 9], &[2, 5, 10]),
            (&[1, 2], &[3, 4]),       // append fast path
            (&[3, 4], &[1, 2]),       // prepend
            (&[2, 4, 6], &[2, 4, 6]), // all duplicates
        ];
        for (base, other) in cases {
            let mut merged = DirtyNodes::new();
            let mut reference = DirtyNodes::new();
            for &n in *base {
                merged.insert(n);
                reference.insert(n);
            }
            merged.merge_sorted(other);
            for &n in *other {
                reference.insert(n);
            }
            assert_eq!(
                merged.iter().collect::<Vec<_>>(),
                reference.iter().collect::<Vec<_>>(),
                "base {base:?} + {other:?}"
            );
        }
    }
}
