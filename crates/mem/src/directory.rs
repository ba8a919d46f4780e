//! A distributed L3 shard: directory controller plus data slice.
//!
//! Dolly distributes the shared L3 among all physical tiles (64 KB per
//! shard) and runs "a directory-based MESI protocol together with the
//! private L2 caches" (Sec. IV). Each shard owns the lines that hash to it
//! (see [`crate::priv_cache::HomeMap`]) and serializes transactions per line
//! with a blocking busy state released by the requestor's `Unblock`.
//!
//! **Modelling notes** (documented substitutions):
//!
//! * Directory state lives in an unbounded map — we model a directory with
//!   no capacity conflicts, so no recall traffic. The paper's working sets
//!   fit comfortably in the L3, so recalls would not occur in its
//!   experiments either.
//! * The memory controller is folded into the shard as a fixed extra
//!   latency on L3 data misses rather than a separate mesh node.

use std::collections::VecDeque;

use duet_noc::NodeId;
use duet_sim::{
    Clock, ClockDomain, Component, LatencyBreakdown, LineMap, Link, LinkReport, ShardMem, Time,
};
use duet_trace::{mesi, pack_mesi, EventKind, Tracer};

use crate::array::CacheArray;
use crate::msg::{CoherenceMsg, Grant};
use crate::types::{LineAddr, LineData};

/// Configuration of an L3 shard.
#[derive(Clone, Copy, Debug)]
pub struct DirConfig {
    /// Data-array sets (power of two).
    pub sets: usize,
    /// Data-array associativity.
    pub ways: usize,
    /// Directory/tag processing latency per message, in cycles.
    pub proc_cycles: u32,
    /// Additional latency for an L3 data-array hit, in cycles.
    pub l3_cycles: u32,
    /// Additional latency for fetching a line from memory, in cycles.
    pub mem_cycles: u32,
    /// Clock (always the fast/system clock in Dolly).
    pub clock: Clock,
}

impl DirConfig {
    /// Dolly-like shard: 64 KB (4096 lines), 4-way; 4-cycle directory
    /// processing, 8-cycle L3 data access, 90-cycle memory.
    pub fn dolly_l3(clock: Clock) -> Self {
        DirConfig {
            sets: 1024,
            ways: 4,
            proc_cycles: 4,
            l3_cycles: 8,
            mem_cycles: 90,
            clock,
        }
    }
}

/// Stable directory state for one line.
#[derive(Clone, Debug, PartialEq, Eq)]
enum DirState {
    /// No cached copies; L3/memory owns the data.
    I,
    /// Read-only copies at the listed nodes.
    S { sharers: Vec<NodeId> },
    /// Exclusive or modified at `owner` (the directory does not distinguish
    /// E from M — an E holder may upgrade silently).
    EorM { owner: NodeId },
}

/// An in-flight transaction holding the line busy.
#[derive(Clone, Debug)]
struct BusyTxn {
    /// Waiting for the requestor's `Unblock`.
    need_unblock: bool,
    /// Waiting for the previous owner's `WBData` (FwdGetS path).
    need_wbdata: bool,
}

#[derive(Clone, Debug)]
struct DirLine {
    state: DirState,
    busy: Option<BusyTxn>,
    /// Requests queued behind the busy transaction: `(src, msg, arrived, flight)`.
    queued: VecDeque<(NodeId, CoherenceMsg, Time, Time)>,
}

impl Default for DirLine {
    fn default() -> Self {
        DirLine {
            state: DirState::I,
            busy: None,
            queued: VecDeque::new(),
        }
    }
}

/// Event counters for a directory shard.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirStats {
    /// GetS requests processed.
    pub gets: u64,
    /// GetM requests processed.
    pub getm: u64,
    /// Writebacks (PutM) processed.
    pub putm: u64,
    /// Invalidations sent.
    pub invs_sent: u64,
    /// Requests forwarded to an owner.
    pub fwds_sent: u64,
    /// L3 data hits.
    pub l3_hits: u64,
    /// L3 data misses (memory fetches).
    pub l3_misses: u64,
}

/// A directory + L3 data shard. See module docs.
#[derive(Clone)]
pub struct L3Shard {
    cfg: DirConfig,
    node: NodeId,
    dir: LineMap<DirLine>,
    /// Lines currently busy or with queued requests (kept incrementally so
    /// [`L3Shard::is_idle`] is O(1) instead of scanning the directory).
    blocked_lines: usize,
    /// Ground-truth data for lines homed here (memory image), keyed
    /// densely when the shard knows its interleave
    /// ([`interleaved`](L3Shard::interleaved)).
    backing: ShardMem<LineData>,
    /// Timing-only L3 data array: presence decides hit vs memory latency.
    l3_tags: CacheArray<()>,
    incoming: VecDeque<(NodeId, CoherenceMsg, Time, Time)>,
    /// Outgoing NoC link `(dst, msg)`: entries become injectable after the
    /// shard's L3/memory access latency.
    out: Link<(NodeId, CoherenceMsg)>,
    stats: DirStats,
    /// Trace handle (disabled unless the owning system enables tracing).
    tracer: Tracer,
}

impl L3Shard {
    /// Creates an empty shard at NoC node `node`, able to hold any line.
    pub fn new(cfg: DirConfig, node: NodeId) -> Self {
        L3Shard {
            cfg,
            node,
            dir: LineMap::new(),
            blocked_lines: 0,
            backing: ShardMem::new(1, 0),
            l3_tags: CacheArray::new(cfg.sets, cfg.ways),
            incoming: VecDeque::new(),
            out: Link::pipe(),
            stats: DirStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Declares this shard home `index` of `homes` round-robin homes (the
    /// [`HomeMap`](crate::priv_cache::HomeMap) interleave): it will only
    /// ever hold lines `l` with `l % homes == index`, so its memory image
    /// is stored densely at `l / homes`, in memory and in snapshots.
    ///
    /// # Panics
    ///
    /// Panics unless `index < homes`.
    pub fn interleaved(mut self, homes: usize, index: usize) -> Self {
        self.backing = ShardMem::new(homes as u64, index as u64);
        self
    }

    /// `(allocated, privately owned)` page counts of this shard's backing
    /// memory — the copy-on-write fork probe. Immediately after a fork
    /// both sides privately own zero pages; each COW fault adds one.
    pub fn backing_pages(&self) -> (usize, usize) {
        (self.backing.allocated_pages(), self.backing.owned_pages())
    }

    /// Installs the trace handle (events: MESI directory transitions and
    /// owner writebacks). Purely observational.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The NoC node of this shard.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Event counters.
    pub fn stats(&self) -> DirStats {
        self.stats
    }

    /// Writes a line directly into the memory image (pre-simulation
    /// initialization only — bypasses all timing and coherence).
    pub fn poke_line(&mut self, line: LineAddr, data: LineData) {
        self.backing.write(line.0, data);
    }

    /// Reads a line from the memory image. Only coherent if the line is not
    /// dirty in a private cache (see `duet_system::System::peek` for the
    /// coherent variant).
    pub fn peek_line(&self, line: LineAddr) -> LineData {
        self.backing.read(line.0)
    }

    /// Pre-warms the L3 data array so a subsequent access is a hit.
    pub fn warm_l3(&mut self, line: LineAddr) {
        self.l3_tags.insert(line, [0; 16], ());
    }

    /// Pre-simulation warm-up: records `node` as a sharer of `line` (the
    /// caller must install the matching S copy in that node's cache).
    pub fn warm_sharer(&mut self, line: LineAddr, node: NodeId) {
        self.warm_l3(line);
        let e = self.dir.get_or_default(line.0);
        match &mut e.state {
            DirState::S { sharers } => {
                if !sharers.contains(&node) {
                    sharers.push(node);
                }
            }
            DirState::I => {
                e.state = DirState::S {
                    sharers: vec![node],
                }
            }
            DirState::EorM { .. } => panic!("warm_sharer on owned line"),
        }
    }

    /// Current owner per the directory, if the line is in E/M.
    pub fn owner_of(&self, line: LineAddr) -> Option<NodeId> {
        match self.dir.get(line.0).map(|d| &d.state) {
            Some(DirState::EorM { owner }) => Some(*owner),
            _ => None,
        }
    }

    /// Sharers per the directory (possibly stale supersets — silent S
    /// evictions leave bits behind).
    pub fn sharers_of(&self, line: LineAddr) -> Vec<NodeId> {
        match self.dir.get(line.0).map(|d| &d.state) {
            Some(DirState::S { sharers }) => sharers.clone(),
            _ => Vec::new(),
        }
    }

    /// Deterministic (line-sorted) snapshot of every tracked directory
    /// entry: `(line, owner, sharers, busy)`. Verification aid for
    /// structural directory/cache agreement sweeps; idle `I` lines with no
    /// queued work are included only while the map still tracks them.
    pub fn dir_entries(&self) -> Vec<(LineAddr, Option<NodeId>, Vec<NodeId>, bool)> {
        let mut out = Vec::new();
        for key in self.dir.sorted_keys() {
            if let Some(e) = self.dir.get(key) {
                let (owner, sharers) = match &e.state {
                    DirState::I => (None, Vec::new()),
                    DirState::S { sharers } => (None, sharers.clone()),
                    DirState::EorM { owner } => (Some(*owner), Vec::new()),
                };
                out.push((LineAddr(key), owner, sharers, e.busy.is_some()));
            }
        }
        out
    }

    /// Whether any transaction is in flight or queued. O(1): blocked lines
    /// are counted incrementally in [`L3Shard::tick`].
    pub fn is_idle(&self) -> bool {
        self.incoming.is_empty() && self.out.is_empty() && self.blocked_lines == 0
    }

    /// True when ticking or draining this shard right now could do anything.
    ///
    /// Busy/queued directory lines are *passive*: they only progress when a
    /// response arrives in `incoming`, so when both queues are empty, `tick`
    /// and `pop_outgoing` are provable no-ops.
    pub fn is_active(&self) -> bool {
        !self.incoming.is_empty() || !self.out.is_empty()
    }

    /// The earliest time this shard can next do observable work, or `None`
    /// when it can only be woken by an arriving message.
    pub fn next_event_time(&self, now: Time) -> Option<Time> {
        if !self.incoming.is_empty() {
            return Some(now);
        }
        self.out.front_ready_at()
    }

    /// Delivers a coherence message from the NoC glue. `flight` is the
    /// time the message spent in the network (attributed to the NoC bucket
    /// of the transaction it starts).
    pub fn handle_msg(&mut self, now: Time, src: NodeId, msg: CoherenceMsg) {
        self.handle_msg_with_flight(now, src, msg, Time::ZERO);
    }

    /// [`handle_msg`](L3Shard::handle_msg) with explicit network flight time.
    pub fn handle_msg_with_flight(
        &mut self,
        now: Time,
        src: NodeId,
        msg: CoherenceMsg,
        flight: Time,
    ) {
        self.incoming.push_back((src, msg, now, flight));
    }

    /// Pops a ready outgoing message: `(dst, msg)`.
    pub fn pop_outgoing(&mut self, now: Time) -> Option<(NodeId, CoherenceMsg)> {
        self.out.pop(now)
    }

    fn delay(&self, cycles: u32) -> Time {
        self.cfg.clock.period().mul(u64::from(cycles))
    }

    fn send(&mut self, ready_at: Time, dst: NodeId, msg: CoherenceMsg) {
        self.out.push_at(ready_at, (dst, msg));
    }

    /// Reads line data for a response, charging L3-hit or memory latency.
    /// Returns `(data, extra_cycles)`.
    fn read_data(&mut self, line: LineAddr) -> (LineData, u32) {
        let data = self.backing.read(line.0);
        if self.l3_tags.get(line).is_some() {
            self.stats.l3_hits += 1;
            (data, self.cfg.l3_cycles)
        } else {
            self.stats.l3_misses += 1;
            self.l3_tags.insert(line, [0; 16], ());
            (data, self.cfg.mem_cycles)
        }
    }

    /// Advances the shard by one clock edge: processes at most one incoming
    /// message.
    pub fn tick(&mut self, now: Time) {
        let Some((src, msg, arrived, flight)) = self.incoming.pop_front() else {
            return;
        };
        // One message touches exactly one line (even queued-request release
        // recurses on the same line), so the blocked-line count can be
        // maintained with a single before/after check here.
        let key = msg.line().0;
        let was_blocked = self.line_blocked(key);
        self.dispatch(now, src, msg, arrived, flight);
        match (was_blocked, self.line_blocked(key)) {
            (false, true) => self.blocked_lines += 1,
            (true, false) => self.blocked_lines -= 1,
            _ => {}
        }
    }

    /// True when `key`'s directory line holds a busy transaction or queued
    /// requests (the per-line component of [`L3Shard::is_idle`]).
    fn line_blocked(&self, key: u64) -> bool {
        self.dir
            .get(key)
            .is_some_and(|d| d.busy.is_some() || !d.queued.is_empty())
    }

    fn dispatch(&mut self, now: Time, src: NodeId, msg: CoherenceMsg, arrived: Time, flight: Time) {
        let line = msg.line();
        let entry = self.dir.get_or_default(line.0);
        match &msg {
            CoherenceMsg::GetS { .. } | CoherenceMsg::GetM { .. } | CoherenceMsg::PutM { .. }
                if entry.busy.is_some() =>
            {
                entry.queued.push_back((src, msg, arrived, flight));
                return;
            }
            _ => {}
        }
        match msg {
            CoherenceMsg::GetS { line } => self.process_gets(now, src, line, arrived, flight),
            CoherenceMsg::GetM { line } => self.process_getm(now, src, line, arrived, flight),
            CoherenceMsg::PutM { line, data } => self.process_putm(now, src, line, data),
            CoherenceMsg::WBData { line, data } => {
                self.backing.write(line.0, data);
                self.tracer
                    .emit(now.as_ps(), EventKind::Writeback, line.0, 1);
                let e = self.dir.get_mut(line.0).expect("WBData without entry");
                if let Some(busy) = &mut e.busy {
                    busy.need_wbdata = false;
                }
                self.maybe_release(now, line);
            }
            CoherenceMsg::Unblock { line } => {
                let e = self.dir.get_mut(line.0).expect("Unblock without entry");
                if let Some(busy) = &mut e.busy {
                    busy.need_unblock = false;
                }
                self.maybe_release(now, line);
            }
            other => panic!("cache-bound message {other:?} delivered to directory"),
        }
    }

    fn process_gets(
        &mut self,
        now: Time,
        src: NodeId,
        line: LineAddr,
        arrived: Time,
        flight: Time,
    ) {
        self.stats.gets += 1;
        let mut bd = LatencyBreakdown::new();
        bd.noc += flight;
        // Time spent queued behind a busy transaction is home processing.
        bd.cache_fast += now.saturating_sub(arrived);
        let state = self.dir.get(line.0).map(|d| d.state.clone()).unwrap();
        match state {
            DirState::I => {
                let (data, extra) = self.read_data(line);
                let total = self.cfg.proc_cycles + extra;
                bd.cache_fast += self.delay(total);
                self.send(
                    now + self.delay(total),
                    src,
                    CoherenceMsg::Data {
                        line,
                        data,
                        grant: Grant::E,
                        acks: 0,
                        breakdown: bd,
                    },
                );
                self.tracer.emit(
                    now.as_ps(),
                    EventKind::MesiTransition,
                    line.0,
                    pack_mesi(mesi::I, mesi::EM, src),
                );
                let e = self.dir.get_mut(line.0).unwrap();
                e.state = DirState::EorM { owner: src };
                e.busy = Some(BusyTxn {
                    need_unblock: true,
                    need_wbdata: false,
                });
            }
            DirState::S { mut sharers } => {
                let (data, extra) = self.read_data(line);
                let total = self.cfg.proc_cycles + extra;
                bd.cache_fast += self.delay(total);
                self.send(
                    now + self.delay(total),
                    src,
                    CoherenceMsg::Data {
                        line,
                        data,
                        grant: Grant::S,
                        acks: 0,
                        breakdown: bd,
                    },
                );
                if !sharers.contains(&src) {
                    sharers.push(src);
                }
                self.tracer.emit(
                    now.as_ps(),
                    EventKind::MesiTransition,
                    line.0,
                    pack_mesi(mesi::S, mesi::S, src),
                );
                let e = self.dir.get_mut(line.0).unwrap();
                e.state = DirState::S { sharers };
                e.busy = Some(BusyTxn {
                    need_unblock: true,
                    need_wbdata: false,
                });
            }
            DirState::EorM { owner } => {
                self.stats.fwds_sent += 1;
                bd.cache_fast += self.delay(self.cfg.proc_cycles);
                self.send(
                    now + self.delay(self.cfg.proc_cycles),
                    owner,
                    CoherenceMsg::FwdGetS {
                        line,
                        requestor: src,
                        breakdown: bd,
                    },
                );
                self.tracer.emit(
                    now.as_ps(),
                    EventKind::MesiTransition,
                    line.0,
                    pack_mesi(mesi::EM, mesi::S, src),
                );
                let e = self.dir.get_mut(line.0).unwrap();
                e.state = DirState::S {
                    sharers: vec![owner, src],
                };
                e.busy = Some(BusyTxn {
                    need_unblock: true,
                    need_wbdata: true,
                });
            }
        }
    }

    fn process_getm(
        &mut self,
        now: Time,
        src: NodeId,
        line: LineAddr,
        arrived: Time,
        flight: Time,
    ) {
        self.stats.getm += 1;
        let mut bd = LatencyBreakdown::new();
        bd.noc += flight;
        bd.cache_fast += now.saturating_sub(arrived);
        let state = self.dir.get(line.0).map(|d| d.state.clone()).unwrap();
        match state {
            DirState::I => {
                let (data, extra) = self.read_data(line);
                let total = self.cfg.proc_cycles + extra;
                bd.cache_fast += self.delay(total);
                self.send(
                    now + self.delay(total),
                    src,
                    CoherenceMsg::Data {
                        line,
                        data,
                        grant: Grant::M,
                        acks: 0,
                        breakdown: bd,
                    },
                );
                self.tracer.emit(
                    now.as_ps(),
                    EventKind::MesiTransition,
                    line.0,
                    pack_mesi(mesi::I, mesi::EM, src),
                );
                let e = self.dir.get_mut(line.0).unwrap();
                e.state = DirState::EorM { owner: src };
                e.busy = Some(BusyTxn {
                    need_unblock: true,
                    need_wbdata: false,
                });
            }
            DirState::S { sharers } => {
                let targets: Vec<NodeId> = sharers.iter().copied().filter(|&s| s != src).collect();
                let (data, extra) = self.read_data(line);
                let total = self.cfg.proc_cycles + extra;
                bd.cache_fast += self.delay(total);
                for &t in &targets {
                    self.stats.invs_sent += 1;
                    self.send(
                        now + self.delay(self.cfg.proc_cycles),
                        t,
                        CoherenceMsg::Inv {
                            line,
                            requestor: src,
                        },
                    );
                }
                self.send(
                    now + self.delay(total),
                    src,
                    CoherenceMsg::Data {
                        line,
                        data,
                        grant: Grant::M,
                        acks: targets.len() as u32,
                        breakdown: bd,
                    },
                );
                self.tracer.emit(
                    now.as_ps(),
                    EventKind::MesiTransition,
                    line.0,
                    pack_mesi(mesi::S, mesi::EM, src),
                );
                let e = self.dir.get_mut(line.0).unwrap();
                e.state = DirState::EorM { owner: src };
                e.busy = Some(BusyTxn {
                    need_unblock: true,
                    need_wbdata: false,
                });
            }
            DirState::EorM { owner } => {
                debug_assert_ne!(owner, src, "owner re-requesting M");
                self.stats.fwds_sent += 1;
                bd.cache_fast += self.delay(self.cfg.proc_cycles);
                self.send(
                    now + self.delay(self.cfg.proc_cycles),
                    owner,
                    CoherenceMsg::FwdGetM {
                        line,
                        requestor: src,
                        breakdown: bd,
                    },
                );
                self.tracer.emit(
                    now.as_ps(),
                    EventKind::MesiTransition,
                    line.0,
                    pack_mesi(mesi::EM, mesi::EM, src),
                );
                let e = self.dir.get_mut(line.0).unwrap();
                e.state = DirState::EorM { owner: src };
                e.busy = Some(BusyTxn {
                    need_unblock: true,
                    need_wbdata: false,
                });
            }
        }
    }

    fn process_putm(&mut self, now: Time, src: NodeId, line: LineAddr, data: LineData) {
        self.stats.putm += 1;
        let e = self.dir.get_mut(line.0).unwrap();
        let from_owner = matches!(&e.state, DirState::EorM { owner } if *owner == src);
        if from_owner {
            e.state = DirState::I;
            self.backing.write(line.0, data);
            self.l3_tags.insert(line, [0; 16], ());
            self.tracer.emit(
                now.as_ps(),
                EventKind::MesiTransition,
                line.0,
                pack_mesi(mesi::EM, mesi::I, src),
            );
        }
        // Stale PutM (the sender was downgraded/invalidated while the PutM
        // was in flight): acknowledge but ignore the data.
        self.send(
            now + self.delay(self.cfg.proc_cycles),
            src,
            CoherenceMsg::PutAck { line },
        );
    }

    /// Releases the busy state when the transaction's obligations are met,
    /// then processes queued requests.
    fn maybe_release(&mut self, now: Time, line: LineAddr) {
        let e = self.dir.get_mut(line.0).unwrap();
        let done = e
            .busy
            .as_ref()
            .is_some_and(|b| !b.need_unblock && !b.need_wbdata);
        if !done {
            return;
        }
        e.busy = None;
        if let Some((src, msg, arrived, flight)) = e.queued.pop_front() {
            self.dispatch(now, src, msg, arrived, flight);
        }
    }
}

duet_sim::pack_enum!(DirState { 0 => I, 1 => S { sharers }, 2 => EorM { owner } });
duet_sim::pack_struct!(BusyTxn {
    need_unblock,
    need_wbdata
});
duet_sim::pack_struct!(DirLine {
    state,
    busy,
    queued
});
duet_sim::pack_struct!(DirStats {
    gets,
    getm,
    putm,
    invs_sent,
    fwds_sent,
    l3_hits,
    l3_misses
});
// `blocked_lines` is derived (recomputed on load); the tracer handle is
// re-installed by the owning system.
duet_sim::snap_fields!(L3Shard { dir, backing, l3_tags, incoming, out, stats } check |s| {
    s.blocked_lines = s.dir.sorted_keys().into_iter().filter(|&k| s.line_blocked(k)).count();
    Ok(())
});

impl Component for L3Shard {
    fn name(&self) -> String {
        format!("l3@n{}", self.node)
    }

    fn domain(&self) -> ClockDomain {
        ClockDomain::Fast
    }

    fn tick(&mut self, now: Time) {
        L3Shard::tick(self, now);
    }

    fn next_event_time(&self, now: Time) -> Option<Time> {
        L3Shard::next_event_time(self, now)
    }

    fn is_active(&self, _now: Time) -> bool {
        L3Shard::is_active(self)
    }

    fn visit_links(&self, visit: &mut dyn FnMut(&str, LinkReport)) {
        visit("noc_out", self.out.report());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard() -> L3Shard {
        L3Shard::new(DirConfig::dolly_l3(Clock::ghz1()), 0)
    }

    fn t(c: u64) -> Time {
        Time::from_ps(1000 * c)
    }

    fn drain(s: &mut L3Shard, until: u64) -> Vec<(NodeId, CoherenceMsg)> {
        let mut out = Vec::new();
        for c in 0..until {
            s.tick(t(c));
            while let Some(m) = s.pop_outgoing(t(until)) {
                out.push(m);
            }
        }
        out
    }

    #[test]
    fn gets_on_idle_line_grants_exclusive() {
        let mut s = shard();
        s.poke_line(LineAddr(5), [9u8; 16]);
        s.handle_msg(t(1), 2, CoherenceMsg::GetS { line: LineAddr(5) });
        let out = drain(&mut s, 200);
        assert_eq!(out.len(), 1);
        let (dst, msg) = &out[0];
        assert_eq!(*dst, 2);
        match msg {
            CoherenceMsg::Data {
                data, grant, acks, ..
            } => {
                assert_eq!(data[0], 9);
                assert_eq!(*grant, Grant::E);
                assert_eq!(*acks, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.owner_of(LineAddr(5)), Some(2));
    }

    #[test]
    fn second_gets_forwards_to_owner() {
        let mut s = shard();
        s.handle_msg(t(1), 2, CoherenceMsg::GetS { line: LineAddr(5) });
        let _ = drain(&mut s, 200);
        s.handle_msg(t(300), 2, CoherenceMsg::Unblock { line: LineAddr(5) });
        let _ = drain(&mut s, 301);
        // Node 3 reads the same line.
        s.handle_msg(t(302), 3, CoherenceMsg::GetS { line: LineAddr(5) });
        let mut out = Vec::new();
        for c in 302..320 {
            s.tick(t(c));
            while let Some(m) = s.pop_outgoing(t(400)) {
                out.push(m);
            }
        }
        assert_eq!(out.len(), 1);
        let (dst, msg) = &out[0];
        assert_eq!(*dst, 2, "forward goes to the owner");
        assert!(matches!(msg, CoherenceMsg::FwdGetS { requestor: 3, .. }));
        let mut sh = s.sharers_of(LineAddr(5));
        sh.sort_unstable();
        assert_eq!(sh, vec![2, 3]);
    }

    #[test]
    fn getm_on_shared_line_invalidates_sharers() {
        let mut s = shard();
        // Build S state at nodes 2 and 3.
        for (time, node) in [(1u64, 2), (50, 3)] {
            s.handle_msg(t(time), node, CoherenceMsg::GetS { line: LineAddr(5) });
            let _ = drain(&mut s, time + 150);
            s.handle_msg(
                t(time + 160),
                node,
                CoherenceMsg::Unblock { line: LineAddr(5) },
            );
            let _ = drain(&mut s, time + 161);
        }
        // node 2's GetS made it owner (E); node 3's GetS triggered FwdGetS;
        // complete that txn's WBData.
        s.handle_msg(
            t(250),
            2,
            CoherenceMsg::WBData {
                line: LineAddr(5),
                data: [0; 16],
            },
        );
        let _ = drain(&mut s, 251);
        // Now node 4 wants M.
        s.handle_msg(t(260), 4, CoherenceMsg::GetM { line: LineAddr(5) });
        let out = drain(&mut s, 460);
        let invs: Vec<NodeId> = out
            .iter()
            .filter_map(|(d, m)| matches!(m, CoherenceMsg::Inv { .. }).then_some(*d))
            .collect();
        let datas: Vec<u32> = out
            .iter()
            .filter_map(|(_, m)| match m {
                CoherenceMsg::Data { acks, .. } => Some(*acks),
                _ => None,
            })
            .collect();
        assert_eq!(invs.len(), 2, "both sharers invalidated: {out:?}");
        assert!(invs.contains(&2) && invs.contains(&3));
        assert_eq!(datas, vec![2], "requestor told to expect 2 acks");
        assert_eq!(s.owner_of(LineAddr(5)), Some(4));
    }

    #[test]
    fn busy_line_queues_requests() {
        let mut s = shard();
        s.handle_msg(t(1), 2, CoherenceMsg::GetS { line: LineAddr(5) });
        let _ = drain(&mut s, 200);
        // Second request while busy (no Unblock yet).
        s.handle_msg(t(210), 3, CoherenceMsg::GetS { line: LineAddr(5) });
        let out = drain(&mut s, 400);
        assert!(out.is_empty(), "queued behind busy transaction");
        // Unblock releases and processes the queued GetS (-> FwdGetS to 2).
        s.handle_msg(t(401), 2, CoherenceMsg::Unblock { line: LineAddr(5) });
        let out = drain(&mut s, 600);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0].1,
            CoherenceMsg::FwdGetS { requestor: 3, .. }
        ));
    }

    #[test]
    fn putm_from_owner_writes_back() {
        let mut s = shard();
        s.handle_msg(t(1), 2, CoherenceMsg::GetM { line: LineAddr(7) });
        let _ = drain(&mut s, 200);
        s.handle_msg(t(201), 2, CoherenceMsg::Unblock { line: LineAddr(7) });
        let _ = drain(&mut s, 202);
        s.handle_msg(
            t(210),
            2,
            CoherenceMsg::PutM {
                line: LineAddr(7),
                data: [3u8; 16],
            },
        );
        let out = drain(&mut s, 250);
        assert!(matches!(out[0].1, CoherenceMsg::PutAck { .. }));
        assert_eq!(s.peek_line(LineAddr(7))[0], 3);
        assert_eq!(s.owner_of(LineAddr(7)), None);
    }

    #[test]
    fn stale_putm_acked_but_ignored() {
        let mut s = shard();
        // Node 2 owns the line.
        s.handle_msg(t(1), 2, CoherenceMsg::GetM { line: LineAddr(7) });
        let _ = drain(&mut s, 200);
        s.handle_msg(t(201), 2, CoherenceMsg::Unblock { line: LineAddr(7) });
        let _ = drain(&mut s, 202);
        // Ownership moves to 3.
        s.handle_msg(t(210), 3, CoherenceMsg::GetM { line: LineAddr(7) });
        let _ = drain(&mut s, 260);
        s.handle_msg(t(261), 3, CoherenceMsg::Unblock { line: LineAddr(7) });
        let _ = drain(&mut s, 262);
        // Stale PutM from 2 (crossed the FwdGetM).
        s.poke_line(LineAddr(7), [1u8; 16]);
        s.handle_msg(
            t(270),
            2,
            CoherenceMsg::PutM {
                line: LineAddr(7),
                data: [0xEEu8; 16],
            },
        );
        let out = drain(&mut s, 300);
        assert!(matches!(out[0].1, CoherenceMsg::PutAck { .. }));
        assert_eq!(s.peek_line(LineAddr(7))[0], 1, "stale data ignored");
        assert_eq!(s.owner_of(LineAddr(7)), Some(3), "ownership unchanged");
    }

    #[test]
    fn l3_miss_charges_memory_latency() {
        let mut s = shard();
        s.handle_msg(t(1), 2, CoherenceMsg::GetS { line: LineAddr(11) });
        s.tick(t(1));
        // First access misses L3: response not ready before mem_cycles.
        assert!(s.pop_outgoing(t(50)).is_none());
        assert!(s.pop_outgoing(t(1 + 95)).is_some());
        assert_eq!(s.stats().l3_misses, 1);
        // Complete and re-request from another node after PutM... simpler:
        // warm hit check via second line.
        let mut s2 = shard();
        s2.warm_l3(LineAddr(12));
        s2.handle_msg(t(1), 2, CoherenceMsg::GetS { line: LineAddr(12) });
        s2.tick(t(1));
        assert!(s2.pop_outgoing(t(1 + 12)).is_some(), "L3 hit is fast");
        assert_eq!(s2.stats().l3_hits, 1);
    }

    #[test]
    fn unknown_line_reads_zero() {
        let s = shard();
        assert_eq!(s.peek_line(LineAddr(0xFFFF)), [0u8; 16]);
    }
}
