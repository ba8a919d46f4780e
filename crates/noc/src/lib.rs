#![forbid(unsafe_code)]
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

use duet_sim::snapshot::ensure;
use duet_sim::{
    merge_min, pack_enum, pack_struct, BitSet, Clock, ClockDomain, Component, LinkReport,
    LinkStats, Pack, PushError, Snap, SnapError, SnapReader, SnapWriter, Time,
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
    /// Per-queue counters, reported through `visit_links` with the same
    /// meaning as a `Link`'s.
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
    /// Start-of-tick copy of each active router's `full` mask (zero for an
    /// idle router, whose queues are all empty). Forwards test *this*
    /// snapshot, not the live queues: it models the credit flow control
    /// of the P-Mesh input buffers, where the credit a pop frees reaches
    /// the upstream router one cycle later. `noc_saturation_golden` pins
    /// this timing; probing the live queues instead would change it.
    full_snap: Vec<u16>,
    /// What one tick moves; replayed after every router has arbitrated.
    /// Empty between ticks.
    moves: TickMoves,
}

/// What leaves the routers during one tick, recorded while they
/// arbitrate (ascending) and applied once they all have. Pops happen in
/// place; pushes wait for the replay, so every queue's occupancy sample
/// (`LinkStats::record_push`) is taken after the tick's pops, whatever
/// the router order.
#[derive(Clone, Debug, Default)]
struct TickMoves {
    /// `(node, queue, entry)` per message forwarded through a mesh port.
    forwards: Vec<(u32, u8, Slot)>,
    /// `(node, vnet, handle, flits)` per message ejected to its tile.
    ejects: Vec<(u32, u8, u32, u32)>,
    /// Routers whose input queues all emptied.
    drained: Vec<u32>,
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
            full_snap: vec![0; nodes],
            moves: TickMoves::default(),
        }
    }

    /// Ignored: the mesh tick is serial. Kept only so that callers written
    /// against the removed sharded tick still build — see DESIGN.md
    /// "Intra-run threading: tried, measured, removed".
    pub fn set_shards(&mut self, _n: usize) {}

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

    /// Advances the mesh by one fast-clock edge at time `now`.
    ///
    /// Each output port forwards at most one message per cycle (chosen
    /// round-robin over input-port/vnet pairs), honoring link serialization
    /// (`flits` cycles per link) and downstream buffer space, probed
    /// against the start-of-tick fullness snapshot (credit-based: a queue
    /// that frees space this cycle accepts new flits the next).
    ///
    /// The active routers arbitrate in ascending order and pop their
    /// winners in place; what leaves them is recorded and applied once
    /// every router has arbitrated (see `TickMoves`).
    pub fn tick(&mut self, now: Time) {
        if self.active.is_empty() {
            return; // nothing buffered: no router can act
        }
        for node in self.active.iter() {
            self.full_snap[node] = self.routers[node].full;
        }
        let period = self.cfg.clock.period();
        let depth = self.cfg.buf_depth;
        let width = self.cfg.width;
        let tracer = self.tracer.is_enabled().then_some(&self.tracer);
        let (routers, slots, link_stats, full_snap) = (
            &mut self.routers[..],
            &mut self.slots[..],
            &mut self.link_stats[..],
            &self.full_snap[..],
        );
        let mut moves = std::mem::take(&mut self.moves);
        for node in self.active.iter() {
            let r = &mut routers[node];
            let rings = &mut slots[node * QUEUES * depth..(node + 1) * QUEUES * depth];
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
                        full_snap[r.nbr[o] as usize] >> (OPPOSITE[o] * VNET_COUNT) & 0b111;
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
                link_stats[node * QUEUES + q].pops += 1;
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
                let vn = q % VNET_COUNT;
                if o == LOCAL {
                    if let Some(t) = tracer {
                        let dst = usize::from(s.dst_y) * width + usize::from(s.dst_x);
                        let b = pack_noc(s.src as usize, dst, vn, s.flits);
                        t.emit(now.as_ps(), EventKind::NocEject, s.trace_id, b);
                    }
                    moves
                        .ejects
                        .push((node as u32, vn as u8, s.handle, s.flits));
                } else {
                    if let Some(t) = tracer {
                        let b = pack_hop(node, o, vn);
                        t.emit(now.as_ps(), EventKind::NocRoute, s.trace_id, b);
                    }
                    let q_in = OPPOSITE[o] * VNET_COUNT + vn;
                    moves.forwards.push((r.nbr[o], q_in as u8, s));
                }
            }
            if r.occ == 0 {
                moves.drained.push(node as u32);
            }
        }
        self.replay(now, moves);
    }

    /// Applies a tick's moves — drained routers leave the active set,
    /// then ejections, then forwards (which re-activate their targets) —
    /// and keeps the emptied lists for the next tick.
    fn replay(&mut self, now: Time, mut moves: TickMoves) {
        for n in moves.drained.drain(..) {
            self.active.remove(n as usize);
            self.full_snap[n as usize] = 0;
        }
        for (node, vn, handle, flits) in moves.ejects.drain(..) {
            self.stats.delivered += 1;
            self.stats.delivered_flits += u64::from(flits);
            self.stats.total_latency += now.saturating_sub(self.msg(handle).injected_at);
            self.eject[node as usize][usize::from(vn)].push_back(handle);
            self.eject_pending += 1;
            self.eject_active.insert(node as usize);
        }
        for (node, q, slot) in moves.forwards.drain(..) {
            // The start-of-tick fullness probe guarantees space.
            self.push_slot(now, node as usize, usize::from(q), slot);
        }
        self.moves = moves;
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

/// Hand-written: messages live in a slab and move between rings by handle,
/// so the bytes follow ring order instead of storage; every derived
/// worklist is recomputed from the loaded rings instead of being trusted
/// from the bytes.
impl<P: Pack> Snap for Mesh<P> {
    /// Serializes the node count, then per router each input ring front to
    /// back as `(ready_at, message)` with its `LinkStats`, then `out_busy`
    /// and the round-robin pointers; then every ejection queue, the traffic
    /// stats and the trace-id counter. Slab handles never reach the bytes.
    /// Ring capacity and hop latency are configuration, pinned by the
    /// config hash. The derived state (`active`, `eject_active`,
    /// `eject_pending`, per-router `occ`/`full`, the fullness snapshot) is
    /// *recomputed* on load — it is a pure function of queue occupancy, so
    /// rebuilding it is bit-exact and removes a whole class of
    /// corrupt-snapshot inconsistencies. The tracer handle is a session
    /// resource and is not serialized.
    fn save(&self, w: &mut SnapWriter) {
        let depth = self.cfg.buf_depth;
        w.len64(self.routers.len());
        for (node, router) in self.routers.iter().enumerate() {
            for q in 0..QUEUES {
                let len = usize::from(router.len[q]);
                w.len64(len);
                for i in 0..len {
                    let pos = (usize::from(router.head[q]) + i) % depth;
                    let slot = &self.slots[(node * QUEUES + q) * depth + pos];
                    slot.ready_at.pack(w);
                    self.msg(slot.handle).pack(w);
                }
                self.link_stats[node * QUEUES + q].pack(w);
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
        // Cleared, not loaded: the next tick refreshes it.
        self.full_snap.fill(0);
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
/// optimized injection pump bit-identical to the naive one.
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
}
