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

use std::collections::VecDeque;
use std::ops::Range;

use duet_sim::bitset::bits_in;
use duet_sim::snapshot::ensure;
use duet_sim::{
    merge_min, pack_enum, pack_struct, partition_balanced, BitSet, Clock, ClockDomain, Component,
    LinkReport, LinkStats, LoadEwma, Pack, PushError, Snap, SnapError, SnapReader, SnapWriter,
    Time,
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
}

/// Input queues per router: one per (port, vnet), numbered
/// `port * VNET_COUNT + vnet`.
const QUEUES: usize = PORT_COUNT * VNET_COUNT;
const QUEUE_MASK: u32 = (1 << QUEUES) - 1;
const LOCAL: usize = Port::Local as usize;
/// The input port a message arrives on after leaving through output port
/// `o` (north → the neighbor's south, …).
const OPPOSITE: [usize; 4] = [
    Port::South as usize,
    Port::North as usize,
    Port::West as usize,
    Port::East as usize,
];
/// Times a 3-bit per-vnet mask, gives the queue mask with that vnet's bit
/// set under every port.
const EVERY_PORT: u16 = 0b001_001_001_001_001;

/// One ring entry: a handle to the stored message plus the few fields the
/// routers act on, so that arbitration never touches the message itself.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    /// When the entry becomes visible to the router (push time + one hop).
    ready_at: Time,
    trace_id: u64,
    /// Index of the message in [`Mesh::msgs`].
    handle: u32,
    src: u32,
    flits: u32,
    dst_x: u16,
    dst_y: u16,
}

/// Per-router state. The 15 input queues are fixed-capacity rings in
/// [`Mesh::slots`]; their cursors live here so one router's arbitration
/// stays within a couple of cache lines.
#[derive(Clone, Debug)]
struct Router {
    /// Time until which each output port's link is serializing a message.
    out_busy: [Time; PORT_COUNT],
    /// Round-robin pointer per output port over the input queues.
    rr: [u8; PORT_COUNT],
    /// Queues holding at least one entry. Arbitration probes only these —
    /// an empty queue can never win, so skipping it is bit-exact.
    occ: u16,
    /// Queues holding `buf_depth` entries (kept live; forwards test the
    /// start-of-tick copy in [`Mesh::full_snap`]).
    full: u16,
    x: u16,
    y: u16,
    /// Ring cursors per queue: position of the front entry, and entries held.
    head: [u16; QUEUES],
    len: [u16; QUEUES],
    /// Neighbor node through each of the four mesh ports (unused at the
    /// mesh edge: XY routing never leaves the grid).
    nbr: [u32; 4],
}

impl Router {
    /// XY routing: the output port toward the slot's destination.
    #[inline]
    fn route(&self, dst_x: u16, dst_y: u16) -> usize {
        let p = if dst_x > self.x {
            Port::East
        } else if dst_x < self.x {
            Port::West
        } else if dst_y > self.y {
            Port::South
        } else if dst_y < self.y {
            Port::North
        } else {
            Port::Local
        };
        p as usize
    }
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
///
/// # Storage
///
/// A message is stored once, at [`inject`](Mesh::inject), in a slab
/// (`msgs`); what moves from queue to queue is a 32-byte `Slot` holding
/// its handle. Every router input queue is a fixed-capacity ring in one
/// flat array, `slots[(node * 15 + port * 3 + vnet) * buf_depth ..]`, with
/// its traffic counters beside it in `link_stats`. Handles are never
/// serialized, traced or compared, so slab placement is unobservable.
#[derive(Clone)]
pub struct Mesh<P> {
    cfg: MeshConfig,
    /// `hop_cycles` clock periods: push-to-visible delay of every queue.
    hop_latency: Time,
    routers: Vec<Router>,
    slots: Vec<Slot>,
    /// Per-queue counters, reported through `visit_links` as those of a
    /// synchronous `Link`.
    link_stats: Vec<LinkStats>,
    /// Message slab and its free handles.
    msgs: Vec<Option<Message<P>>>,
    free: Vec<u32>,
    /// Delivered messages waiting for the tile, by handle.
    eject: Vec<[VecDeque<u32>; VNET_COUNT]>,
    stats: MeshStats,
    /// Worklist of routers with at least one buffered input message. An idle
    /// router is a provable no-op in [`tick`](Mesh::tick) (round-robin
    /// pointers only move when a message is chosen, `out_busy` is only
    /// compared against `now`), so ticking only this set — ascending, like
    /// the full scan — is bit-identical to scanning every router.
    active: BitSet,
    /// Total messages sitting in ejection queues (all nodes, all vnets).
    eject_pending: usize,
    /// Nodes with at least one message in an ejection queue; draining them
    /// lowest first matches the ascending all-nodes scan.
    eject_active: BitSet,
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
    plan: Vec<Range<usize>>,
    /// Whether `plan` must be rebuilt before the next tick.
    plan_dirty: bool,
    /// Start-of-tick copy of each active router's `full` mask (zero for an
    /// idle router, whose queues are all empty). Forwards test *this*
    /// snapshot instead of the live queues (credit-based backpressure),
    /// which is what makes the arbitration outcome independent of shard
    /// execution order.
    full_snap: Vec<u16>,
    /// Per-shard deferred side effects, replayed by `finish_tick`.
    lanes: Vec<MeshTickLane>,
    /// Per-node pop counters since the last EWMA fold (rebalancer input;
    /// only kept while the tick is sharded).
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
#[derive(Clone, Debug, Default)]
struct MeshTickLane {
    /// `(dst node, dst queue, entry)` for every forwarded message.
    forwards: Vec<(u32, u8, Slot)>,
    /// `(node, vnet, handle, flits)` for every local ejection.
    ejects: Vec<(u32, u8, u32, u32)>,
    /// Routers whose input queues fully drained this tick.
    deactivated: Vec<u32>,
    /// `(timestamp ps, kind, a, b)` trace events in emission order.
    events: Vec<(u64, EventKind, u64, u64)>,
}

impl MeshTickLane {
    fn is_drained(&self) -> bool {
        self.forwards.is_empty() && self.ejects.is_empty() && self.deactivated.is_empty()
    }
}

impl<P> Mesh<P> {
    /// Builds an idle mesh.
    ///
    /// # Panics
    ///
    /// Panics if `buf_depth` is zero, or a dimension or the depth does not
    /// fit the 16-bit ring cursors.
    pub fn new(cfg: MeshConfig) -> Self {
        assert!(cfg.buf_depth > 0, "fifo capacity must be non-zero");
        let fits = |v: usize| u16::try_from(v).is_ok();
        assert!(
            fits(cfg.width) && fits(cfg.height) && fits(cfg.buf_depth),
            "mesh dimensions and buffer depth must fit in 16 bits"
        );
        let nodes = cfg.nodes();
        let (w, h) = (cfg.width, cfg.height);
        let routers = (0..nodes)
            .map(|id| {
                let (x, y) = cfg.coords(id);
                // Off the grid there is no neighbor; XY routing never asks.
                let nbr = |on_grid: bool, id: usize| if on_grid { id as u32 } else { u32::MAX };
                Router {
                    out_busy: [Time::ZERO; PORT_COUNT],
                    rr: [0; PORT_COUNT],
                    occ: 0,
                    full: 0,
                    x: x as u16,
                    y: y as u16,
                    head: [0; QUEUES],
                    len: [0; QUEUES],
                    nbr: [
                        nbr(y > 0, id.wrapping_sub(w)),
                        nbr(y + 1 < h, id + w),
                        nbr(x + 1 < w, id + 1),
                        nbr(x > 0, id.wrapping_sub(1)),
                    ],
                }
            })
            .collect();
        Mesh {
            cfg,
            hop_latency: cfg.clock.period().mul(u64::from(cfg.hop_cycles)),
            routers,
            slots: vec![Slot::default(); nodes * QUEUES * cfg.buf_depth],
            link_stats: vec![LinkStats::default(); nodes * QUEUES],
            msgs: Vec::new(),
            free: Vec::new(),
            eject: (0..nodes).map(|_| Default::default()).collect(),
            stats: MeshStats::default(),
            active: BitSet::new(nodes),
            eject_pending: 0,
            eject_active: BitSet::new(nodes),
            trace_seq: 0,
            tracer: Tracer::disabled(),
            shards_target: 1,
            // One full-range shard: the serial tick as the degenerate plan.
            #[allow(clippy::single_range_in_vec_init)]
            plan: vec![0..nodes],
            plan_dirty: false,
            full_snap: vec![0; nodes],
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
        self.routers[node].full & (1 << (LOCAL * VNET_COUNT + vnet.index())) == 0
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
        // A refused injection still consumes its transaction id.
        self.trace_seq += 1;
        msg.trace_id = self.trace_seq;
        let node = msg.src;
        let q = LOCAL * VNET_COUNT + msg.vnet.index();
        if self.routers[node].full & (1 << q) != 0 {
            self.link_stats[node * QUEUES + q].rejected_pushes += 1;
            return Err(PushError);
        }
        self.tracer.emit(
            now.as_ps(),
            EventKind::NocInject,
            msg.trace_id,
            pack_noc(msg.src, msg.dst, msg.vnet.index(), msg.flits),
        );
        let slot = self.slot_for(&msg);
        let handle = self.store(msg);
        self.push_slot(now, node, q, Slot { handle, ..slot });
        self.stats.injected += 1;
        Ok(())
    }

    /// The ring entry describing `msg`; the caller fills in the handle and
    /// the ready time.
    fn slot_for(&self, msg: &Message<P>) -> Slot {
        let dst = &self.routers[msg.dst];
        Slot {
            ready_at: Time::ZERO,
            trace_id: msg.trace_id,
            handle: 0,
            src: msg.src as u32,
            flits: msg.flits,
            dst_x: dst.x,
            dst_y: dst.y,
        }
    }

    /// Puts `msg` in the slab and returns its handle.
    fn store(&mut self, msg: Message<P>) -> u32 {
        match self.free.pop() {
            Some(h) => {
                self.msgs[h as usize] = Some(msg);
                h
            }
            None => {
                self.msgs.push(Some(msg));
                (self.msgs.len() - 1) as u32
            }
        }
    }

    fn msg(&self, handle: u32) -> &Message<P> {
        self.msgs[handle as usize]
            .as_ref()
            .expect("queued handles name stored messages")
    }

    /// Appends `slot` to queue `q` of `node` at `now`, counting the push
    /// and marking the router active.
    fn push_slot(&mut self, now: Time, node: usize, q: usize, slot: Slot) {
        let depth = self.cfg.buf_depth;
        let r = &mut self.routers[node];
        let len = r.len[q] as usize;
        assert!(len < depth, "router queue overflow");
        let mut pos = r.head[q] as usize + len;
        if pos >= depth {
            pos -= depth;
        }
        self.slots[(node * QUEUES + q) * depth + pos] = Slot {
            ready_at: now + self.hop_latency,
            ..slot
        };
        r.len[q] += 1;
        r.occ |= 1 << q;
        if len + 1 == depth {
            r.full |= 1 << q;
        }
        self.link_stats[node * QUEUES + q].record_push(len + 1);
        self.active.insert(node);
    }

    /// Removes the next delivered message for `node` on `vnet`, if any.
    pub fn eject(&mut self, node: NodeId, vnet: VNet) -> Option<Message<P>> {
        let h = self.eject[node][vnet.index()].pop_front()?;
        self.eject_pending -= 1;
        if self.eject[node].iter().all(VecDeque::is_empty) {
            self.eject_active.remove(node);
        }
        self.free.push(h);
        self.msgs[h as usize].take()
    }

    /// Whether any delivered message is waiting in an ejection queue.
    pub fn has_ejections(&self) -> bool {
        self.eject_pending > 0
    }

    /// The lowest-numbered node with a waiting ejection, if any. Callers
    /// drain nodes through [`eject`](Mesh::eject) in this order to visit
    /// only dirty nodes while matching an ascending all-nodes scan.
    pub fn first_eject_node(&self) -> Option<NodeId> {
        self.eject_active.first()
    }

    /// Peeks the next delivered message for `node` on `vnet`.
    pub fn peek_eject(&self, node: NodeId, vnet: VNet) -> Option<&Message<P>> {
        self.eject[node][vnet.index()].front().map(|&h| self.msg(h))
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
        let depth = self.cfg.buf_depth;
        let mut earliest: Option<Time> = None;
        for node in self.active.iter() {
            let r = &self.routers[node];
            let mut occ = r.occ;
            while occ != 0 {
                let q = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let ready = self.slots[(node * QUEUES + q) * depth + r.head[q] as usize].ready_at;
                if ready <= now {
                    // Nothing can be earlier than the next edge.
                    return Some(self.cfg.clock.next_edge_after(now));
                }
                earliest = merge_min(earliest, Some(ready));
            }
        }
        earliest
    }

    /// XY routing at router `at` toward `dst`.
    #[cfg(test)]
    fn route(&self, at: NodeId, dst: NodeId) -> Port {
        PORTS[self.routers[at].route(self.routers[dst].x, self.routers[dst].y)]
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

    /// The serial prologue of a tick: while the tick is sharded, fold the
    /// rebalancer EWMAs (at deterministic simulated-time quanta only) and
    /// rebuild the shard plan if needed; then copy every active router's
    /// fullness mask into the start-of-tick snapshot its neighbors probe.
    /// Messages forwarded during the tick are replayed by `finish_tick`, so
    /// the active set itself is stable while the shards run.
    fn prepare_tick(&mut self, now: Time) {
        if self.shards_target > 1 {
            let period_ps = self.cfg.clock.period().as_ps().max(1);
            let quantum = now.as_ps() / period_ps / REBALANCE_QUANTUM_TICKS;
            if self.ewma.fold(&mut self.work_accum, quantum) {
                self.plan_dirty = true;
            }
        }
        if self.plan_dirty {
            self.rebuild_plan();
        }
        for node in self.active.iter() {
            self.full_snap[node] = self.routers[node].full;
        }
    }

    fn shard_params(&self, now: Time) -> ShardParams {
        ShardParams {
            now,
            period: self.cfg.clock.period(),
            depth: self.cfg.buf_depth,
            width: self.cfg.width,
            trace_on: self.tracer.is_enabled(),
            count_work: self.shards_target > 1,
        }
    }

    /// Splits the tick into per-shard tasks for a worker pool, handing each
    /// to `sink`. The caller must run **every** task exactly once (on any
    /// thread — they are range-disjoint; see [`MeshShardTask`]) and then
    /// call [`finish_tick`](Mesh::finish_tick) with the same `now`. Serial
    /// callers use [`tick`](Mesh::tick), which drives the identical code
    /// path inline; results are byte-identical either way, at any shard
    /// count.
    pub fn begin_tick(&mut self, now: Time, mut sink: impl FnMut(MeshShardTask)) {
        self.prepare_tick(now);
        let p = self.shard_params(now);
        let rings = QUEUES * p.depth;
        for (i, range) in self.plan.iter().enumerate() {
            // SAFETY: `plan` partitions `0..nodes` and `lanes` has one entry
            // per range, so every offset stays inside its vector.
            let task = unsafe {
                MeshShardTask {
                    p,
                    nodes: range.clone(),
                    routers: self.routers.as_mut_ptr().add(range.start),
                    slots: self.slots.as_mut_ptr().add(range.start * rings),
                    link_stats: self.link_stats.as_mut_ptr().add(range.start * QUEUES),
                    work: self.work_accum.as_mut_ptr().add(range.start),
                    lane: self.lanes.as_mut_ptr().add(i),
                    active: self.active.words().as_ptr(),
                    active_len: self.active.words().len(),
                    full: self.full_snap.as_ptr(),
                    full_len: self.full_snap.len(),
                }
            };
            sink(task);
        }
    }

    /// Replays the per-shard lanes filled by the shard tasks, in ascending
    /// shard order (= serial router order): trace events first, then every
    /// deactivation, then every ejection, then every forward — removals
    /// strictly before insertions, and *all* pops (done in the shard
    /// phase) strictly before *all* pushes, so per-link occupancy samples
    /// are identical at every shard count.
    pub fn finish_tick(&mut self, now: Time) {
        let mut lanes = std::mem::take(&mut self.lanes);
        for lane in &mut lanes {
            for (ts, kind, a, b) in lane.events.drain(..) {
                self.tracer.emit(ts, kind, a, b);
            }
        }
        for lane in &mut lanes {
            for n in lane.deactivated.drain(..) {
                self.active.remove(n as usize);
                self.full_snap[n as usize] = 0;
            }
        }
        for lane in &mut lanes {
            for (node, vn, handle, flits) in lane.ejects.drain(..) {
                self.stats.delivered += 1;
                self.stats.delivered_flits += u64::from(flits);
                self.stats.total_latency += now.saturating_sub(self.msg(handle).injected_at);
                self.eject[node as usize][vn as usize].push_back(handle);
                self.eject_pending += 1;
                self.eject_active.insert(node as usize);
            }
        }
        for lane in &mut lanes {
            for (nb, q, slot) in lane.forwards.drain(..) {
                // The start-of-tick fullness probe guarantees space.
                self.push_slot(now, nb as usize, q as usize, slot);
            }
        }
        self.lanes = lanes;
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
        if self.active.is_empty() {
            return; // nothing buffered: no router can act
        }
        self.prepare_tick(now);
        let p = self.shard_params(now);
        let rings = QUEUES * p.depth;
        for (i, range) in self.plan.iter().enumerate() {
            ShardView {
                p,
                nodes: range.clone(),
                routers: &mut self.routers[range.clone()],
                slots: &mut self.slots[range.start * rings..range.end * rings],
                link_stats: &mut self.link_stats[range.start * QUEUES..range.end * QUEUES],
                work: &mut self.work_accum[range.clone()],
                lane: &mut self.lanes[i],
                active: self.active.words(),
                full: &self.full_snap,
            }
            .run();
        }
        self.finish_tick(now);
    }
}

/// Fast-clock ticks per adaptive-rebalancing quantum. Folds happen when a
/// tick first executes past a quantum boundary — a pure function of
/// simulated time, so the shard layout never depends on wall clock or
/// thread count.
const REBALANCE_QUANTUM_TICKS: u64 = 4096;

/// What every shard of one tick is told.
#[derive(Clone, Copy)]
struct ShardParams {
    now: Time,
    period: Time,
    depth: usize,
    width: usize,
    trace_on: bool,
    /// Whether to count pops per router for the rebalancer (sharded ticks
    /// only — one shard has nothing to balance).
    count_work: bool,
}

/// One shard's portion of a mesh tick: switch arbitration and pops on the
/// shard's own routers (`routers`, `slots`, `link_stats` and `work` cover
/// nodes `nodes`), with every push — boundary-crossing *and* intra-shard —
/// deferred into `lane`. Downstream space is probed against the
/// start-of-tick `full` snapshot, never the live queues, so the outcome is
/// independent of shard execution order. `active` and `full` are whole-mesh
/// read-only views.
struct ShardView<'a> {
    p: ShardParams,
    nodes: Range<usize>,
    routers: &'a mut [Router],
    slots: &'a mut [Slot],
    link_stats: &'a mut [LinkStats],
    work: &'a mut [u64],
    lane: &'a mut MeshTickLane,
    active: &'a [u64],
    full: &'a [u16],
}

impl ShardView<'_> {
    fn run(self) {
        let ShardParams {
            now,
            period,
            depth,
            width,
            trace_on,
            count_work,
        } = self.p;
        let lane = self.lane;
        for node in bits_in(self.active, self.nodes.clone()) {
            let k = node - self.nodes.start;
            let r = &mut self.routers[k];
            let rings = &mut self.slots[k * QUEUES * depth..(k + 1) * QUEUES * depth];
            // Route the visible front of every occupied queue once:
            // `want[o]` collects the queues whose front leaves through
            // output `o`. Within a tick a front only changes when it is
            // popped, and the pop below re-routes its successor.
            let mut want = [0u16; PORT_COUNT];
            let mut occ = r.occ;
            while occ != 0 {
                let q = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let s = &rings[q * depth + r.head[q] as usize];
                if s.ready_at <= now {
                    want[r.route(s.dst_x, s.dst_y)] |= 1 << q;
                }
            }
            for o in 0..PORT_COUNT {
                let mut cand = want[o];
                if cand == 0 || r.out_busy[o] > now {
                    continue;
                }
                if o != LOCAL {
                    // Drop candidates whose vnet has no credit downstream.
                    let no_credit =
                        self.full[r.nbr[o] as usize] >> (OPPOSITE[o] * VNET_COUNT) & 0b111;
                    cand &= !(no_credit * EVERY_PORT);
                    if cand == 0 {
                        continue;
                    }
                }
                // Round-robin: the first candidate at or after `rr[o]`,
                // wrapping — rotate the mask so that bit is bit 0.
                let start = u32::from(r.rr[o]);
                let c = u32::from(cand);
                let rotated = (c >> start | c << (QUEUES as u32 - start)) & QUEUE_MASK;
                let q = (start + rotated.trailing_zeros()) as usize % QUEUES;
                r.rr[o] = ((q + 1) % QUEUES) as u8;

                let s = rings[q * depth + r.head[q] as usize];
                r.head[q] += 1;
                if usize::from(r.head[q]) == depth {
                    r.head[q] = 0;
                }
                r.len[q] -= 1;
                r.full &= !(1 << q);
                self.link_stats[k * QUEUES + q].pops += 1;
                if r.len[q] == 0 {
                    r.occ &= !(1 << q);
                } else {
                    let next = &rings[q * depth + r.head[q] as usize];
                    if next.ready_at <= now {
                        // Only matters for a port still to come this tick.
                        want[r.route(next.dst_x, next.dst_y)] |= 1 << q;
                    }
                }
                r.out_busy[o] = now + period.mul(u64::from(s.flits));
                if count_work {
                    self.work[k] += 1;
                }
                let vn = q % VNET_COUNT;
                if o == LOCAL {
                    if trace_on {
                        let dst = usize::from(s.dst_y) * width + usize::from(s.dst_x);
                        lane.events.push((
                            now.as_ps(),
                            EventKind::NocEject,
                            s.trace_id,
                            pack_noc(s.src as usize, dst, vn, s.flits),
                        ));
                    }
                    lane.ejects.push((node as u32, vn as u8, s.handle, s.flits));
                } else {
                    if trace_on {
                        lane.events.push((
                            now.as_ps(),
                            EventKind::NocRoute,
                            s.trace_id,
                            pack_hop(node, o, vn),
                        ));
                    }
                    let q_in = OPPOSITE[o] * VNET_COUNT + vn;
                    lane.forwards.push((r.nbr[o], q_in as u8, s));
                }
            }
            if r.occ == 0 {
                lane.deactivated.push(node as u32);
            }
        }
    }
}

/// Raw-pointer work descriptor for one mesh shard, produced by
/// [`Mesh::begin_tick`] and safe to send to a worker thread.
///
/// Disjointness invariant (upheld by `begin_tick`): every task's
/// `routers`/`slots`/`link_stats`/`work`/`lane` pointers cover ranges of
/// the parent mesh that no other task of the same tick overlaps, while
/// `active`/`full` are read-only shared snapshots. The parent mesh must
/// stay alive and untouched until every task has run and
/// [`finish_tick`](Mesh::finish_tick) reclaims the lanes. Tasks never see
/// the messages themselves, only their `Slot`s, so the payload type does
/// not appear here.
pub struct MeshShardTask {
    p: ShardParams,
    nodes: Range<usize>,
    routers: *mut Router,
    slots: *mut Slot,
    link_stats: *mut LinkStats,
    work: *mut u64,
    lane: *mut MeshTickLane,
    active: *const u64,
    active_len: usize,
    full: *const u16,
    full_len: usize,
}

// SAFETY: the pointed-to regions are range-disjoint per task (see the
// struct docs) and hold only plain integers; the epoch barrier around the
// tick provides the necessary happens-before edges on both sides.
unsafe impl Send for MeshShardTask {}

impl MeshShardTask {
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
        let n = self.nodes.len();
        ShardView {
            p: self.p,
            nodes: self.nodes.clone(),
            routers: std::slice::from_raw_parts_mut(self.routers, n),
            slots: std::slice::from_raw_parts_mut(self.slots, n * QUEUES * self.p.depth),
            link_stats: std::slice::from_raw_parts_mut(self.link_stats, n * QUEUES),
            work: std::slice::from_raw_parts_mut(self.work, n),
            lane: &mut *self.lane,
            active: std::slice::from_raw_parts(self.active, self.active_len),
            full: std::slice::from_raw_parts(self.full, self.full_len),
        }
        .run();
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
            for q in 0..QUEUES {
                visit(
                    &format!(
                        "n{node}.{}.{}",
                        PORTS[q / VNET_COUNT].label(),
                        VNET_LABELS[q % VNET_COUNT]
                    ),
                    LinkReport {
                        kind: "sync",
                        capacity: Some(self.cfg.buf_depth),
                        occupancy: usize::from(router.len[q]),
                        stats: self.link_stats[node * QUEUES + q],
                    },
                );
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

/// Hand-written: the bytes are those of the layout this storage replaced —
/// per router, fifteen `Link::sync` queues holding whole messages — so
/// snapshots stay interchangeable; the geometry is cross-checked, and every
/// derived worklist is recomputed from the loaded buffers instead of being
/// trusted from the bytes.
impl<P: Pack> Snap for Mesh<P> {
    /// Serializes router buffers, ejection queues, traffic stats, the
    /// trace-id counter, and the (empty) boundary-exchange lanes. Each
    /// queue is written as the synchronous `Link` it models: transport tag
    /// 0, capacity, latency, the entries front to back as `(ready_at,
    /// message)`, the counters, and a cleared frozen flag. Slab handles
    /// never reach the bytes. The derived state (`active`, `eject_active`,
    /// `eject_pending`, per-router `occ`/`full`, the fullness snapshot) is
    /// *recomputed* on load — it is a pure function of queue occupancy, so
    /// rebuilding it is bit-exact and removes a whole class of
    /// corrupt-snapshot inconsistencies. The tracer handle is a session
    /// resource, and the adaptive rebalancer (`work_accum`, the load EWMAs,
    /// the plan itself) is host-side machinery that never influences
    /// results; none of those are serialized — a restored mesh re-learns
    /// its load profile from zero.
    ///
    /// # Panics
    ///
    /// Panics between `begin_tick` and `finish_tick`: snapshots are taken
    /// between clock edges, when every lane has been replayed.
    fn save(&self, w: &mut SnapWriter) {
        let depth = self.cfg.buf_depth;
        w.len64(self.routers.len());
        for (node, router) in self.routers.iter().enumerate() {
            for q in 0..QUEUES {
                w.u8(0);
                w.len64(depth);
                self.hop_latency.pack(w);
                let len = usize::from(router.len[q]);
                w.len64(len);
                for i in 0..len {
                    let pos = (usize::from(router.head[q]) + i) % depth;
                    let slot = &self.slots[(node * QUEUES + q) * depth + pos];
                    slot.ready_at.pack(w);
                    self.msg(slot.handle).pack(w);
                }
                self.link_stats[node * QUEUES + q].pack(w);
                false.pack(w);
            }
            router.out_busy.pack(w);
            router.rr.map(usize::from).pack(w);
        }
        for node in &self.eject {
            for q in node {
                w.len64(q.len());
                for &h in q {
                    self.msg(h).pack(w);
                }
            }
        }
        self.stats.pack(w);
        w.u64(self.trace_seq);
        // The three lane lists (forwards, ejections, deactivations).
        assert!(
            self.lanes.iter().all(MeshTickLane::is_drained),
            "mesh snapshot taken mid-tick"
        );
        for _ in 0..3 {
            w.len64(0);
        }
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let nodes = self.routers.len();
        let depth = self.cfg.buf_depth;
        ensure(r.len64()? == nodes, "mesh node count mismatch")?;
        self.msgs.clear();
        self.free.clear();
        self.active.clear();
        let in_range = |m: &Message<P>| m.src < nodes && m.dst < nodes;
        for node in 0..nodes {
            let (mut occ, mut full) = (0u16, 0u16);
            for q in 0..QUEUES {
                ensure(r.u8()? == 0, "link transport kind mismatch")?;
                ensure(
                    r.len64()? == depth,
                    "capacity differs from the built component",
                )?;
                ensure(
                    Time::unpack(r)? == self.hop_latency,
                    "mesh hop latency mismatch",
                )?;
                let len = r.len64()?;
                ensure(len <= depth, "router queue over capacity")?;
                for pos in 0..len {
                    let ready_at = Time::unpack(r)?;
                    let msg = Message::<P>::unpack(r)?;
                    ensure(in_range(&msg), "buffered message node out of range")?;
                    let slot = self.slot_for(&msg);
                    let handle = self.store(msg);
                    self.slots[(node * QUEUES + q) * depth + pos] = Slot {
                        ready_at,
                        handle,
                        ..slot
                    };
                }
                self.routers[node].head[q] = 0;
                self.routers[node].len[q] = len as u16;
                occ |= u16::from(len > 0) << q;
                full |= u16::from(len == depth) << q;
                self.link_stats[node * QUEUES + q] = LinkStats::unpack(r)?;
                ensure(!bool::unpack(r)?, "mesh link frozen")?;
            }
            let router = &mut self.routers[node];
            router.out_busy = Pack::unpack(r)?;
            let rr = <[usize; PORT_COUNT]>::unpack(r)?;
            ensure(
                rr.iter().all(|&p| p < QUEUES),
                "round-robin pointer out of range",
            )?;
            router.rr = rr.map(|p| p as u8);
            router.occ = occ;
            router.full = full;
            if occ != 0 {
                self.active.insert(node);
            }
        }
        self.eject_pending = 0;
        self.eject_active.clear();
        for node in 0..nodes {
            for vn in 0..VNET_COUNT {
                self.eject[node][vn].clear();
                for _ in 0..r.len64()? {
                    let msg = Message::<P>::unpack(r)?;
                    ensure(in_range(&msg), "ejected message node out of range")?;
                    let handle = self.store(msg);
                    self.eject[node][vn].push_back(handle);
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
            *lane = MeshTickLane::default();
        }
        // Host-side rebalancer and the start-of-tick fullness snapshot:
        // cleared, not loaded — the snapshot is refreshed by the next
        // `prepare_tick` and the EWMAs re-learn from zero.
        self.full_snap.fill(0);
        self.work_accum.fill(0);
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
    /// in-place pass from the back — O(n + m) instead of m
    /// binary-search-and-shift inserts, and no allocation once the set has
    /// grown to its working size. Used when replaying per-shard dirty
    /// lists at the deterministic merge.
    ///
    /// # Panics
    ///
    /// Panics (via `debug_assert`) if `other` is not strictly ascending.
    pub fn merge_sorted(&mut self, other: &[NodeId]) {
        debug_assert!(other.windows(2).all(|w| w[0] < w[1]));
        let old = self.nodes.len();
        let fresh = other.iter().filter(|&&n| !self.contains(n)).count();
        self.nodes.resize(old + fresh, 0);
        // Fill from the back; `i`/`j` are one past the next unmerged
        // element of the old contents / of `other`.
        let (mut i, mut j) = (old, other.len());
        for k in (0..old + fresh).rev() {
            if j == 0 {
                break; // the rest of the old contents is already in place
            }
            if i > 0 && self.nodes[i - 1] >= other[j - 1] {
                if self.nodes[i - 1] == other[j - 1] {
                    j -= 1;
                }
                self.nodes[k] = self.nodes[i - 1];
                i -= 1;
            } else {
                self.nodes[k] = other[j - 1];
                j -= 1;
            }
        }
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
            let mut tasks = Vec::new();
            b.begin_tick(t, |task| tasks.push(task));
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
