#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! # duet-trace
//!
//! A zero-cost-when-off tracing and metrics subsystem for the Duet
//! simulator: the observability counterpart to inspecting RTL waveforms on
//! the real hardware.
//!
//! The design centers on three pieces:
//!
//! * **Capture** — a per-run [`TraceSession`] owns a preallocated ring
//!   buffer of compact binary [`TraceEvent`]s. Components hold cheap
//!   [`Tracer`] handles (shared buffer + cached event mask + pre-bound
//!   component id); when tracing is disabled the handle holds `None` and
//!   every [`Tracer::emit`] is a single branch. Instrumentation is
//!   strictly read-only with respect to simulator state, so fingerprints
//!   are bit-identical with tracing on or off.
//! * **Export** — [`export::chrome_trace`] renders the buffer as Chrome
//!   trace-event JSON (loadable in `chrome://tracing` / Perfetto, one
//!   track per component, flow arrows following each NoC transaction id
//!   across hops) and [`export::text_log`] as a plain-text event log.
//! * **Derived scoreboards** — [`scoreboard::Scoreboard`] computes
//!   per-message-class inject→eject latency histograms and per-line MESI
//!   transition counts from the captured events, and [`MetricsRegistry`]
//!   unifies every counter namespace into one sorted, deterministically
//!   iterated map.
//!
//! This crate deliberately depends on nothing (timestamps are raw
//! picosecond `u64`s) so every layer of the stack can instrument itself
//! without dependency cycles.

use std::cell::RefCell;
use std::rc::Rc;

pub mod export;
pub mod registry;
pub mod scoreboard;

pub use registry::MetricsRegistry;
pub use scoreboard::{LatencyHistogram, Scoreboard};

/// A byte that is not a valid [`EventKind`] discriminant, found while
/// decoding a persisted or replayed event stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnknownEventKind(pub u8);

impl std::fmt::Display for UnknownEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown trace event kind {:#04x}", self.0)
    }
}

impl std::error::Error for UnknownEventKind {}

/// What happened, encoded as a compact discriminant. Each kind maps to one
/// bit of an event mask (see [`EventKind::bit`]), so a [`TraceConfig`] can
/// select subsystems individually.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A fast-clock edge executed (`a` = fast edge count so far).
    EdgeFast = 0,
    /// A slow-clock edge executed (`a` = slow edge count so far).
    EdgeSlow = 1,
    /// Event-horizon jump over dead edges (`a` = fast edges skipped,
    /// `b` = slow edges skipped).
    HorizonSkip = 2,
    /// NoC message injected (`a` = transaction id, `b` = packed
    /// src/dst/vnet/flits — see [`pack_noc`]).
    NocInject = 3,
    /// NoC message forwarded one hop (`a` = transaction id, `b` = packed
    /// node/port/vnet — see [`pack_hop`]).
    NocRoute = 4,
    /// NoC message delivered at its destination's local port (`a` =
    /// transaction id, `b` = packed src/dst/vnet/flits).
    NocEject = 5,
    /// MESI directory state transition (`a` = line address, `b` = packed
    /// old/new/peer — see [`pack_mesi`]).
    MesiTransition = 6,
    /// Private-cache MSHR allocated (`a` = line address, `b` = MSHRs now
    /// in use).
    MshrAlloc = 7,
    /// Private-cache MSHR retired on fill completion (`a` = line address,
    /// `b` = MSHRs still in use).
    MshrRetire = 8,
    /// Dirty line written back (`a` = line address; `b` = 0 from a private
    /// cache's PutM, 1 when a directory commits WBData to backing memory).
    Writeback = 9,
    /// Memory Hub consumed a fabric request from the request CDC FIFO
    /// (`a` = fabric request id, `b` = address).
    AdapterReqPop = 10,
    /// Memory Hub queued a response into the response CDC FIFO (`a` =
    /// fabric request id, `b` = response kind discriminant).
    AdapterRespPush = 11,
    /// Control Hub pushed a soft-register event toward the fabric (`a` =
    /// register index, `b` = value or transaction id).
    AdapterRegDown = 12,
    /// Control Hub consumed a fabric soft-register event (`a` = register
    /// index, `b` = value or transaction id).
    AdapterRegUp = 13,
    /// Fabric issued a memory request into a hub's CDC FIFO (`a` = fabric
    /// request id, `b` = address).
    FabricReq = 14,
    /// Fabric popped a memory response out of a hub's CDC FIFO (`a` =
    /// fabric request id, `b` = response kind discriminant).
    FabricResp = 15,
    /// Accelerator went from idle to busy (observed at a slow edge).
    AccelStart = 16,
    /// Accelerator is busy but backpressured: a hub request FIFO it may
    /// need is full this slow edge (`a` = hub index).
    AccelStall = 17,
    /// Accelerator went from busy back to idle.
    AccelDone = 18,
    /// Free-form user marker (`a`/`b` caller-defined).
    Marker = 19,
    /// Fault injected by a `duet-verify` `FaultPlan` (`a` = spec index,
    /// `b` = the kind's code, `FaultKind::canonical_code().0`).
    FaultInject = 20,
    /// Adapter watchdog fenced a non-progressing accelerator (`a` = hub
    /// count deactivated, `b` = busy duration in picoseconds).
    Fence = 21,
    /// A runtime checker recorded a protocol violation (`a` = running
    /// violation count, `b` = checker id: 0 = MESI, 1 = NoC order,
    /// 2 = adapter invariant).
    CheckerViolation = 22,
}

/// Number of event kinds (mask width).
pub const KIND_COUNT: usize = 23;

const KIND_TABLE: [EventKind; KIND_COUNT] = [
    EventKind::EdgeFast,
    EventKind::EdgeSlow,
    EventKind::HorizonSkip,
    EventKind::NocInject,
    EventKind::NocRoute,
    EventKind::NocEject,
    EventKind::MesiTransition,
    EventKind::MshrAlloc,
    EventKind::MshrRetire,
    EventKind::Writeback,
    EventKind::AdapterReqPop,
    EventKind::AdapterRespPush,
    EventKind::AdapterRegDown,
    EventKind::AdapterRegUp,
    EventKind::FabricReq,
    EventKind::FabricResp,
    EventKind::AccelStart,
    EventKind::AccelStall,
    EventKind::AccelDone,
    EventKind::Marker,
    EventKind::FaultInject,
    EventKind::Fence,
    EventKind::CheckerViolation,
];

impl EventKind {
    /// The mask bit selecting this kind.
    pub const fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// Decodes a kind from its discriminant.
    pub fn from_u8(v: u8) -> Option<EventKind> {
        KIND_TABLE.get(v as usize).copied()
    }

    /// Decodes a kind from its discriminant, with a typed error for
    /// replay/decode paths that must not silently skip corrupt bytes.
    pub fn try_from_u8(v: u8) -> Result<EventKind, UnknownEventKind> {
        Self::from_u8(v).ok_or(UnknownEventKind(v))
    }

    /// Short lowercase label (used by both exporters).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::EdgeFast => "edge.fast",
            EventKind::EdgeSlow => "edge.slow",
            EventKind::HorizonSkip => "edge.skip",
            EventKind::NocInject => "noc.inject",
            EventKind::NocRoute => "noc.route",
            EventKind::NocEject => "noc.eject",
            EventKind::MesiTransition => "mesi.transition",
            EventKind::MshrAlloc => "mshr.alloc",
            EventKind::MshrRetire => "mshr.retire",
            EventKind::Writeback => "writeback",
            EventKind::AdapterReqPop => "adapter.req_pop",
            EventKind::AdapterRespPush => "adapter.resp_push",
            EventKind::AdapterRegDown => "adapter.reg_down",
            EventKind::AdapterRegUp => "adapter.reg_up",
            EventKind::FabricReq => "fabric.req",
            EventKind::FabricResp => "fabric.resp",
            EventKind::AccelStart => "accel.start",
            EventKind::AccelStall => "accel.stall",
            EventKind::AccelDone => "accel.done",
            EventKind::Marker => "marker",
            EventKind::FaultInject => "verify.fault",
            EventKind::Fence => "verify.fence",
            EventKind::CheckerViolation => "verify.violation",
        }
    }
}

/// Event-mask presets for [`TraceConfig::mask`].
pub mod masks {
    use super::EventKind;

    /// Clock-edge execution and horizon skips.
    pub const EDGES: u32 =
        EventKind::EdgeFast.bit() | EventKind::EdgeSlow.bit() | EventKind::HorizonSkip.bit();
    /// NoC inject/route/eject.
    pub const NOC: u32 =
        EventKind::NocInject.bit() | EventKind::NocRoute.bit() | EventKind::NocEject.bit();
    /// Coherence: MESI transitions, MSHR lifecycle, writebacks.
    pub const MEM: u32 = EventKind::MesiTransition.bit()
        | EventKind::MshrAlloc.bit()
        | EventKind::MshrRetire.bit()
        | EventKind::Writeback.bit();
    /// Adapter FIFO/CDC crossings (hub side).
    pub const ADAPTER: u32 = EventKind::AdapterReqPop.bit()
        | EventKind::AdapterRespPush.bit()
        | EventKind::AdapterRegDown.bit()
        | EventKind::AdapterRegUp.bit();
    /// Fabric-side CDC crossings and accelerator start/stall/done.
    pub const FABRIC: u32 = EventKind::FabricReq.bit()
        | EventKind::FabricResp.bit()
        | EventKind::AccelStart.bit()
        | EventKind::AccelStall.bit()
        | EventKind::AccelDone.bit();
    /// Fault injection, fencing, and checker verdicts.
    pub const VERIFY: u32 =
        EventKind::FaultInject.bit() | EventKind::Fence.bit() | EventKind::CheckerViolation.bit();
    /// Everything.
    pub const ALL: u32 = (1u32 << super::KIND_COUNT) - 1;
}

/// One captured event: 32 bytes, fixed layout, no allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time, picoseconds.
    pub ts_ps: u64,
    /// Component id (index into [`TraceSession::component_names`]).
    pub comp: u16,
    /// Event kind discriminant (see [`EventKind`]).
    pub kind: u8,
    /// First payload word (meaning per [`EventKind`]).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// Packs NoC message coordinates into one payload word:
/// `src(16) | dst(16) | vnet(8) | flits(16)`.
pub fn pack_noc(src: usize, dst: usize, vnet: usize, flits: u32) -> u64 {
    (src as u64 & 0xFFFF)
        | ((dst as u64 & 0xFFFF) << 16)
        | ((vnet as u64 & 0xFF) << 32)
        | ((u64::from(flits) & 0xFFFF) << 40)
}

/// Unpacks [`pack_noc`]: `(src, dst, vnet, flits)`.
pub fn unpack_noc(b: u64) -> (usize, usize, usize, u32) {
    (
        (b & 0xFFFF) as usize,
        ((b >> 16) & 0xFFFF) as usize,
        ((b >> 32) & 0xFF) as usize,
        ((b >> 40) & 0xFFFF) as u32,
    )
}

/// Packs one routing hop: `node(16) | out_port(8) | vnet(8)`.
pub fn pack_hop(node: usize, out_port: usize, vnet: usize) -> u64 {
    (node as u64 & 0xFFFF) | ((out_port as u64 & 0xFF) << 16) | ((vnet as u64 & 0xFF) << 24)
}

/// Unpacks [`pack_hop`]: `(node, out_port, vnet)`.
pub fn unpack_hop(b: u64) -> (usize, usize, usize) {
    (
        (b & 0xFFFF) as usize,
        ((b >> 16) & 0xFF) as usize,
        ((b >> 24) & 0xFF) as usize,
    )
}

/// MESI directory states as trace encodings.
pub mod mesi {
    /// Invalid — no cached copies.
    pub const I: u8 = 0;
    /// Shared.
    pub const S: u8 = 1;
    /// Exclusive-or-Modified (the directory does not distinguish).
    pub const EM: u8 = 2;

    /// Label for an encoded state.
    pub fn label(s: u8) -> &'static str {
        match s {
            I => "I",
            S => "S",
            EM => "E/M",
            _ => "?",
        }
    }
}

/// Packs a directory transition: `old(8) | new(8) | peer(16)`.
pub fn pack_mesi(old: u8, new: u8, peer: usize) -> u64 {
    u64::from(old) | (u64::from(new) << 8) | ((peer as u64 & 0xFFFF) << 16)
}

/// Unpacks [`pack_mesi`]: `(old, new, peer)`.
pub fn unpack_mesi(b: u64) -> (u8, u8, usize) {
    (
        (b & 0xFF) as u8,
        ((b >> 8) & 0xFF) as u8,
        ((b >> 16) & 0xFFFF) as usize,
    )
}

/// Runtime tracing configuration. `Default` is "capture everything into a
/// 1 Mi-event ring" — construct one and hand it to the system's
/// `enable_tracing`.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Ring capacity in events (preallocated up front). When the run emits
    /// more, the *oldest* events are overwritten and counted in
    /// [`TraceSession::dropped`].
    pub capacity: usize,
    /// Bitmask of [`EventKind`]s to capture (see [`masks`]).
    pub mask: u32,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: 1 << 20,
            mask: masks::ALL,
        }
    }
}

impl TraceConfig {
    /// A config capturing all kinds into a ring of `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceConfig {
            capacity,
            ..TraceConfig::default()
        }
    }

    /// Restricts capture to the given kinds.
    pub fn with_mask(mut self, mask: u32) -> Self {
        self.mask = mask;
        self
    }
}

/// The preallocated event ring. Wraps on overflow, keeping the *latest*
/// events (the interesting end of a run) and counting what it dropped.
#[derive(Debug)]
pub struct TraceBuffer {
    ring: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest retained event.
    head: usize,
    /// Number of retained events (≤ capacity).
    len: usize,
    /// Events overwritten after the ring filled.
    dropped: u64,
}

impl TraceBuffer {
    /// Creates a ring with room for `capacity` events.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceBuffer {
            ring: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Appends an event, overwriting the oldest once full.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
            self.len += 1;
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            out.push(self.ring[(self.head + i) % self.ring.len().max(1)]);
        }
        out
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been captured (or everything was dropped —
    /// impossible, the ring always retains the newest `capacity`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events lost to ring wraparound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever pushed (retained + dropped).
    pub fn total(&self) -> u64 {
        self.len as u64 + self.dropped
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A component's handle on the trace: shared ring + cached mask + bound
/// component id. Cloneable; a system and its tracers live on one thread.
/// The disabled handle is the `Default`.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    shared: Option<Rc<RefCell<TraceBuffer>>>,
    mask: u32,
    comp: u16,
}

impl Tracer {
    /// The disabled handle: every [`emit`](Tracer::emit) is one branch.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Whether this handle captures anything at all.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Whether events of `kind` would be captured.
    pub fn wants(&self, kind: EventKind) -> bool {
        self.shared.is_some() && self.mask & kind.bit() != 0
    }

    /// Records an event at `ts_ps` (simulated picoseconds). A no-op unless
    /// tracing is enabled and the kind is selected; must never be used to
    /// influence simulation state.
    #[inline]
    pub fn emit(&self, ts_ps: u64, kind: EventKind, a: u64, b: u64) {
        let Some(shared) = &self.shared else { return };
        if self.mask & kind.bit() == 0 {
            return;
        }
        shared.borrow_mut().push(TraceEvent {
            ts_ps,
            comp: self.comp,
            kind: kind as u8,
            a,
            b,
        });
    }
}

/// A per-run trace: owns the ring buffer and the component-name registry.
///
/// The owning system creates one from a [`TraceConfig`], registers each
/// component with [`tracer`](TraceSession::tracer) (walk order defines the
/// track order in exports), and reads results back after the run.
#[derive(Debug)]
pub struct TraceSession {
    shared: Rc<RefCell<TraceBuffer>>,
    names: Vec<String>,
    mask: u32,
}

impl TraceSession {
    /// Starts a session, preallocating the ring.
    pub fn new(cfg: &TraceConfig) -> Self {
        TraceSession {
            shared: Rc::new(RefCell::new(TraceBuffer::new(cfg.capacity))),
            names: Vec::new(),
            mask: cfg.mask,
        }
    }

    /// Registers a component and returns its bound [`Tracer`]. Ids are
    /// assigned in call order.
    pub fn tracer(&mut self, name: &str) -> Tracer {
        // Component ids saturate: a pathological design with more than
        // 65535 traced components shares the last track instead of
        // panicking mid-construction.
        let comp = u16::try_from(self.names.len()).unwrap_or(u16::MAX);
        self.names.push(name.to_string());
        Tracer {
            shared: Some(Rc::clone(&self.shared)),
            mask: self.mask,
            comp,
        }
    }

    /// Registered component names, indexed by component id.
    pub fn component_names(&self) -> &[String] {
        &self.names
    }

    /// The active event mask.
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.shared.borrow().events()
    }

    /// Events lost to ring wraparound.
    pub fn dropped(&self) -> u64 {
        self.shared.borrow().dropped()
    }

    /// Total events captured (retained + dropped).
    pub fn total(&self) -> u64 {
        self.shared.borrow().total()
    }

    /// Renders the Chrome trace-event JSON for this session.
    pub fn chrome_trace(&self) -> String {
        export::chrome_trace(&self.events(), &self.names, self.dropped())
    }

    /// Renders the plain-text event log for this session.
    pub fn text_log(&self) -> String {
        export::text_log(&self.events(), &self.names, self.dropped())
    }

    /// Derives the protocol scoreboards from the captured events. An
    /// in-process ring only ever holds valid kind bytes (`emit` takes an
    /// [`EventKind`]), so decode failure is unreachable and folded into
    /// an empty scoreboard rather than a panic.
    pub fn scoreboard(&self) -> scoreboard::Scoreboard {
        scoreboard::Scoreboard::from_events(&self.events()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, a: u64) -> TraceEvent {
        TraceEvent {
            ts_ps: ts,
            comp: 0,
            kind: EventKind::Marker as u8,
            a,
            b: 0,
        }
    }

    #[test]
    fn ring_keeps_everything_under_capacity() {
        let mut b = TraceBuffer::new(8);
        for i in 0..5 {
            b.push(ev(i, i));
        }
        assert_eq!(b.len(), 5);
        assert_eq!(b.dropped(), 0);
        assert_eq!(b.total(), 5);
        let evs = b.events();
        assert_eq!(evs.len(), 5);
        assert_eq!(evs[0].a, 0);
        assert_eq!(evs[4].a, 4);
    }

    #[test]
    fn ring_wraparound_keeps_newest_and_counts_dropped() {
        let mut b = TraceBuffer::new(4);
        for i in 0..10 {
            b.push(ev(i, i));
        }
        assert_eq!(b.len(), 4);
        assert_eq!(b.dropped(), 6, "6 oldest events overwritten");
        assert_eq!(b.total(), 10);
        let evs = b.events();
        assert_eq!(
            evs.iter().map(|e| e.a).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "latest events retained, oldest first"
        );
    }

    #[test]
    fn ring_capacity_one_degenerates_gracefully() {
        let mut b = TraceBuffer::new(1);
        b.push(ev(1, 1));
        b.push(ev(2, 2));
        assert_eq!(b.len(), 1);
        assert_eq!(b.dropped(), 1);
        assert_eq!(b.events()[0].a, 2);
    }

    #[test]
    fn disabled_tracer_captures_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(1, EventKind::Marker, 1, 2); // must be a no-op, not a panic
    }

    #[test]
    fn mask_filters_kinds() {
        let cfg = TraceConfig::with_capacity(16).with_mask(masks::NOC);
        let mut s = TraceSession::new(&cfg);
        let t = s.tracer("mesh");
        assert!(t.wants(EventKind::NocInject));
        assert!(!t.wants(EventKind::EdgeFast));
        t.emit(10, EventKind::NocInject, 1, 0);
        t.emit(11, EventKind::EdgeFast, 1, 0);
        let evs = s.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::NocInject as u8);
    }

    #[test]
    fn session_registers_component_ids_in_order() {
        let mut s = TraceSession::new(&TraceConfig::default());
        let a = s.tracer("alpha");
        let b = s.tracer("beta");
        a.emit(1, EventKind::Marker, 0, 0);
        b.emit(2, EventKind::Marker, 0, 0);
        assert_eq!(s.component_names(), &["alpha", "beta"]);
        let evs = s.events();
        assert_eq!(evs[0].comp, 0);
        assert_eq!(evs[1].comp, 1);
    }

    #[test]
    fn pack_roundtrips() {
        assert_eq!(unpack_noc(pack_noc(3, 11, 2, 5)), (3, 11, 2, 5));
        assert_eq!(unpack_hop(pack_hop(7, 4, 1)), (7, 4, 1));
        assert_eq!(unpack_mesi(pack_mesi(1, 2, 9)), (1, 2, 9));
    }

    #[test]
    fn kind_roundtrips_through_u8() {
        for k in 0..KIND_COUNT as u8 {
            let kind = EventKind::from_u8(k).unwrap();
            assert_eq!(kind as u8, k);
            assert_eq!(kind.bit(), 1 << k);
        }
        assert_eq!(EventKind::from_u8(KIND_COUNT as u8), None);
    }
}
