//! The private, write-back, MESI-coherent cache.
//!
//! This component plays three roles in the workspace:
//!
//! 1. the per-tile **private L2** behind each processor's L1 (the P-Mesh L2
//!    of Dolly, Sec. IV),
//! 2. the **Proxy Cache** inside each Memory Hub — Dolly "implements the
//!    Proxy Cache by adding a *coherent memory interface* to the
//!    *unmodified* P-Mesh L2 cache", which is exactly what `duet-core` does
//!    with this type,
//! 3. the **slow cache** baseline of Sec. V-C, by instantiating it on the
//!    eFPGA clock (`slow_domain = true`) so all of its processing time is
//!    paid in slow cycles and attributed to the slow-domain bucket.
//!
//! The protocol is the blocking-directory MESI described in [`crate::msg`].

use std::collections::VecDeque;

use duet_noc::NodeId;
use duet_sim::{
    merge_min, Clock, ClockDomain, Component, LatencyBreakdown, LineMap, Link, LinkReport, Time,
};
use duet_trace::{EventKind, Tracer};

use crate::array::CacheArray;
use crate::msg::{CoherenceMsg, Grant};
use crate::types::{
    apply_amo, read_scalar, write_scalar, LineAddr, LineData, MemOp, MemReq, MemResp,
};

/// Maps a line address to its home directory shard's node id.
#[derive(Clone, Debug)]
pub struct HomeMap {
    homes: Vec<NodeId>,
}

impl HomeMap {
    /// Creates a home map distributing lines round-robin over `homes`.
    ///
    /// # Panics
    ///
    /// Panics if `homes` is empty.
    pub fn new(homes: Vec<NodeId>) -> Self {
        assert!(!homes.is_empty(), "at least one home node required");
        HomeMap { homes }
    }

    /// The home node of `line`.
    pub fn home_of(&self, line: LineAddr) -> NodeId {
        self.homes[(line.0 as usize) % self.homes.len()]
    }

    /// All home nodes.
    pub fn homes(&self) -> &[NodeId] {
        &self.homes
    }
}

/// Configuration of a private cache.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Maximum outstanding misses. This is the "number of concurrent,
    /// in-flight memory requests" that bounds cache-based bandwidth in
    /// Fig. 10.
    pub mshrs: usize,
    /// CPU-side hit latency, in cycles of `clock`.
    pub hit_cycles: u32,
    /// Tag-check / message-processing latency, in cycles of `clock`.
    pub proc_cycles: u32,
    /// Incoming CPU-side request queue capacity.
    pub req_queue_cap: usize,
    /// The clock this cache runs on.
    pub clock: Clock,
    /// When true, processing time is attributed to the slow-domain bucket
    /// of [`LatencyBreakdown`] (used for the soft-cache and FPSoC models).
    pub slow_domain: bool,
}

impl CacheConfig {
    /// Dolly-like private L2: 8 KB, 4-way, 16 B lines (128 sets), 4 MSHRs,
    /// 4-cycle hits and a 2-cycle tag/message pipeline on the given clock —
    /// P-Mesh-class latencies. The same pipeline ticking on the eFPGA clock
    /// is what makes the soft-only "slow cache" organization of Fig. 5a so
    /// expensive.
    pub fn dolly_l2(clock: Clock) -> Self {
        CacheConfig {
            sets: 128,
            ways: 4,
            mshrs: 4,
            hit_cycles: 5,
            proc_cycles: 3,
            req_queue_cap: 8,
            clock,
            slow_domain: false,
        }
    }

    /// Marks this cache as running in the slow (eFPGA) clock domain.
    pub fn in_slow_domain(mut self) -> Self {
        self.slow_domain = true;
        self
    }

    /// Sets the MSHR count.
    pub fn with_mshrs(mut self, mshrs: usize) -> Self {
        self.mshrs = mshrs;
        self
    }
}

/// Stable MESI state of a resident line (I = not resident).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineState {
    /// Shared, read-only.
    S,
    /// Exclusive, clean.
    E,
    /// Modified, dirty.
    M,
}

/// Why a line left the cache (reported for L1 back-invalidation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvalReason {
    /// Invalidation from the coherence protocol.
    Coherence,
    /// Capacity eviction.
    Eviction,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WbState {
    /// `PutM` sent, waiting for `PutAck`.
    MiA,
    /// Downgraded by `FwdGetS` while writing back; stale `PutM` in flight.
    SiA,
    /// Invalidated by `FwdGetM` while writing back; stale `PutM` in flight.
    IiA,
}

#[derive(Clone, Debug)]
struct WbEntry {
    state: WbState,
    data: LineData,
}

#[derive(Clone, Debug)]
struct Mshr {
    /// True when this miss requires M (store/AMO); false for loads.
    want_m: bool,
    /// True when the requestor held the line in S when the GetM was issued.
    was_s: bool,
    /// Fill data and granted state, once received.
    data: Option<(LineData, Grant)>,
    /// InvAcks outstanding: `needed` is learned from the Data message.
    acks_needed: Option<u32>,
    acks_got: u32,
    /// An Inv arrived while the fill was pending (GetS only): serve the
    /// waiting loads once and do not install the line.
    fill_invalidated: bool,
    /// CPU-side requests waiting on this line.
    pending: VecDeque<MemReq>,
    /// Attribution for the whole transaction.
    breakdown: LatencyBreakdown,
}

/// Event counters for a private cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// CPU-side hits.
    pub hits: u64,
    /// CPU-side misses (MSHR allocations).
    pub misses: u64,
    /// Requests folded into an existing MSHR.
    pub mshr_merges: u64,
    /// Lines written back (PutM sent).
    pub writebacks: u64,
    /// Invalidations received.
    pub invs: u64,
    /// Downgrades received (FwdGetS).
    pub downgrades: u64,
    /// Ownership transfers away (FwdGetM).
    pub fwd_getm: u64,
}

/// The private MESI cache. See module docs.
#[derive(Clone)]
pub struct PrivCache {
    cfg: CacheConfig,
    node: NodeId,
    home: HomeMap,
    array: CacheArray<LineState>,
    mshrs: LineMap<Mshr>,
    wb: LineMap<WbEntry>,
    req_in: VecDeque<MemReq>,
    /// Incoming coherence messages: the cache pipeline processes one per
    /// cycle (this serialization is what makes a slow-domain cache slow).
    noc_in: VecDeque<(NodeId, CoherenceMsg, Time, Time)>,
    /// CPU-side response link: entries carry the hit/miss pipeline delay as
    /// their ready time.
    resp_out: Link<MemResp>,
    /// Outgoing NoC link `(dst, msg)`: entries become injectable after the
    /// cache's local processing delay.
    noc_out: Link<(NodeId, CoherenceMsg)>,
    back_inval: VecDeque<(LineAddr, InvalReason)>,
    stats: CacheStats,
    /// Trace handle (disabled unless the owning system enables tracing).
    tracer: Tracer,
}

impl PrivCache {
    /// Creates an empty cache attached to NoC node `node`.
    pub fn new(cfg: CacheConfig, node: NodeId, home: HomeMap) -> Self {
        let array = CacheArray::new(cfg.sets, cfg.ways);
        PrivCache {
            cfg,
            node,
            home,
            array,
            mshrs: LineMap::new(),
            wb: LineMap::new(),
            req_in: VecDeque::new(),
            noc_in: VecDeque::new(),
            resp_out: Link::pipe(),
            noc_out: Link::pipe(),
            back_inval: VecDeque::new(),
            stats: CacheStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs the trace handle (events: MSHR allocate/retire, evictions'
    /// writebacks). Purely observational.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed trace handle. The sharded run loop reads this to
    /// retarget events into per-shard scratch rings during parallel
    /// passes, restoring the original afterwards.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The NoC node this cache sits on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Event counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether the CPU-side request queue can accept another request.
    pub fn can_accept(&self) -> bool {
        self.req_in.len() < self.cfg.req_queue_cap
    }

    /// Enqueues a CPU-side request.
    ///
    /// # Panics
    ///
    /// Panics if the request queue is full (check
    /// [`can_accept`](PrivCache::can_accept) first) or the access is not
    /// naturally aligned / crosses a line boundary.
    pub fn cpu_request(&mut self, req: MemReq) {
        assert!(self.can_accept(), "cpu request queue overflow");
        let width = match req.op {
            MemOp::Load(w) | MemOp::Store(w) | MemOp::Amo(_, w) => w.bytes() as u64,
            MemOp::LoadLine | MemOp::IFetch => 1,
        };
        assert_eq!(req.addr % width, 0, "unaligned access");
        self.req_in.push_back(req);
    }

    /// Pops a ready CPU-side response.
    pub fn pop_cpu_resp(&mut self, now: Time) -> Option<MemResp> {
        self.resp_out.pop(now)
    }

    /// Pops a ready outgoing NoC message: `(dst, msg)`.
    pub fn pop_outgoing(&mut self, now: Time) -> Option<(NodeId, CoherenceMsg)> {
        self.noc_out.pop(now)
    }

    /// Drains the lines the L1 (or soft cache) above must invalidate.
    pub fn take_back_invalidations(&mut self) -> Vec<(LineAddr, InvalReason)> {
        self.back_inval.drain(..).collect()
    }

    /// Number of MSHRs currently in use.
    pub fn mshrs_in_use(&self) -> usize {
        self.mshrs.len()
    }

    /// True when the cache has no buffered work (used by quiesce loops).
    pub fn is_idle(&self) -> bool {
        self.req_in.is_empty()
            && self.noc_in.is_empty()
            && self.resp_out.is_empty()
            && self.noc_out.is_empty()
            && self.mshrs.is_empty()
            && self.wb.is_empty()
    }

    /// True when ticking or draining this cache right now could do anything.
    ///
    /// MSHRs and pending writebacks alone are *passive*: they only progress
    /// when a NoC message arrives (which lands in `noc_in` and re-activates
    /// the cache), so they are deliberately excluded. When this returns
    /// `false`, `tick`, `pop_outgoing`, `take_back_invalidations`, and
    /// `pop_cpu_resp` are all provable no-ops.
    pub fn is_active(&self) -> bool {
        !self.req_in.is_empty()
            || !self.noc_in.is_empty()
            || !self.resp_out.is_empty()
            || !self.noc_out.is_empty()
            || !self.back_inval.is_empty()
    }

    /// The earliest time this cache can next do observable work, or `None`
    /// when it can only be woken externally (empty queues, or only passive
    /// MSHR/writeback state waiting on the NoC).
    pub fn next_event_time(&self, now: Time) -> Option<Time> {
        if !self.req_in.is_empty() || !self.noc_in.is_empty() || !self.back_inval.is_empty() {
            return Some(now);
        }
        merge_min(
            self.resp_out.front_ready_at(),
            self.noc_out.front_ready_at(),
        )
    }

    /// Looks up a line's stable state (test/debug aid).
    pub fn line_state(&self, line: LineAddr) -> Option<LineState> {
        self.array.peek(line).map(|(m, _)| *m)
    }

    /// Reads resident line data without timing effects (verification aid).
    pub fn peek_line(&self, line: LineAddr) -> Option<LineData> {
        self.array.peek(line).map(|(_, d)| *d)
    }

    /// Directly installs a line (cache warm-up before measurement, matching
    /// the paper's warm-start baselines).
    pub fn warm_insert(&mut self, line: LineAddr, data: LineData, state: LineState) {
        self.array.insert(line, data, state);
    }

    fn local_bucket<'a>(&self, b: &'a mut LatencyBreakdown) -> &'a mut Time {
        if self.cfg.slow_domain {
            &mut b.cache_slow
        } else {
            &mut b.cache_fast
        }
    }

    fn delay(&self, cycles: u32) -> Time {
        self.cfg.clock.period().mul(u64::from(cycles))
    }

    fn send(&mut self, now: Time, dst: NodeId, msg: CoherenceMsg, extra_cycles: u32) {
        self.noc_out
            .push_at(now + self.delay(extra_cycles), (dst, msg));
    }

    /// Queues a coherence message delivered by the NoC glue. `flight` is
    /// the time the message spent in the network (and any CDC FIFOs). The
    /// cache pipeline processes one message per clock edge.
    pub fn handle_msg(&mut self, now: Time, src: NodeId, msg: CoherenceMsg, flight: Time) {
        self.noc_in.push_back((src, msg, now, flight));
    }

    /// Processes one queued coherence message.
    fn process_msg(&mut self, now: Time, _src: NodeId, msg: CoherenceMsg, flight: Time) {
        match msg {
            CoherenceMsg::Data {
                line,
                data,
                grant,
                acks,
                mut breakdown,
            } => {
                breakdown.noc += flight;
                let mshr = self
                    .mshrs
                    .get_mut(line.0)
                    .expect("Data response without MSHR");
                mshr.breakdown.merge(&breakdown);
                mshr.data = Some((data, grant));
                mshr.acks_needed = Some(acks);
                self.try_complete_fill(now, line);
            }
            CoherenceMsg::DataOwner {
                line,
                data,
                grant,
                mut breakdown,
            } => {
                breakdown.noc += flight;
                let mshr = self
                    .mshrs
                    .get_mut(line.0)
                    .expect("DataOwner response without MSHR");
                mshr.breakdown.merge(&breakdown);
                mshr.data = Some((data, grant));
                mshr.acks_needed = Some(0);
                self.try_complete_fill(now, line);
            }
            CoherenceMsg::InvAck { line } => {
                let mshr = self.mshrs.get_mut(line.0).expect("InvAck without MSHR");
                mshr.acks_got += 1;
                self.try_complete_fill(now, line);
            }
            CoherenceMsg::Inv { line, requestor } => {
                self.stats.invs += 1;
                // Resident shared copy?
                if let Some((state, _)) = self.array.peek(line) {
                    debug_assert_eq!(*state, LineState::S, "Inv for non-shared line");
                    self.array.remove(line);
                    self.back_inval.push_back((line, InvalReason::Coherence));
                } else if let Some(mshr) = self.mshrs.get_mut(line.0) {
                    debug_assert!(
                        mshr.data.is_none(),
                        "Inv cannot arrive after the current-epoch fill"
                    );
                    if mshr.want_m {
                        // Stale Inv (we were a silently-dropped sharer) or a
                        // current upgrade race: either way we lose any S copy.
                        mshr.was_s = false;
                    } else {
                        mshr.fill_invalidated = true;
                    }
                    self.back_inval.push_back((line, InvalReason::Coherence));
                }
                // Always acknowledge — the line may have been silently
                // evicted from S, leaving a stale sharer bit at the home.
                self.send(
                    now,
                    requestor,
                    CoherenceMsg::InvAck { line },
                    self.cfg.proc_cycles,
                );
            }
            CoherenceMsg::FwdGetS {
                line,
                requestor,
                mut breakdown,
            } => {
                self.stats.downgrades += 1;
                breakdown.noc += flight;
                *self.local_bucket(&mut breakdown) += self.delay(self.cfg.proc_cycles);
                if let Some((state, data)) = self.array.peek(line).map(|(m, d)| (*m, *d)) {
                    debug_assert!(
                        matches!(state, LineState::E | LineState::M),
                        "FwdGetS to non-owner"
                    );
                    *self.array.meta_mut(line).unwrap() = LineState::S;
                    self.send(
                        now,
                        requestor,
                        CoherenceMsg::DataOwner {
                            line,
                            data,
                            grant: Grant::S,
                            breakdown,
                        },
                        self.cfg.proc_cycles,
                    );
                    let home = self.home.home_of(line);
                    self.send(
                        now,
                        home,
                        CoherenceMsg::WBData { line, data },
                        self.cfg.proc_cycles,
                    );
                } else if let Some(entry) = self.wb.get_mut(line.0) {
                    // Race: we are writing the line back; still the owner.
                    debug_assert_eq!(entry.state, WbState::MiA);
                    entry.state = WbState::SiA;
                    let data = entry.data;
                    self.send(
                        now,
                        requestor,
                        CoherenceMsg::DataOwner {
                            line,
                            data,
                            grant: Grant::S,
                            breakdown,
                        },
                        self.cfg.proc_cycles,
                    );
                    let home = self.home.home_of(line);
                    self.send(
                        now,
                        home,
                        CoherenceMsg::WBData { line, data },
                        self.cfg.proc_cycles,
                    );
                } else {
                    panic!("FwdGetS for line {line:?} we do not own");
                }
            }
            CoherenceMsg::FwdGetM {
                line,
                requestor,
                mut breakdown,
            } => {
                self.stats.fwd_getm += 1;
                breakdown.noc += flight;
                *self.local_bucket(&mut breakdown) += self.delay(self.cfg.proc_cycles);
                if let Some((_, data)) = self.array.remove(line) {
                    self.back_inval.push_back((line, InvalReason::Coherence));
                    self.send(
                        now,
                        requestor,
                        CoherenceMsg::DataOwner {
                            line,
                            data,
                            grant: Grant::M,
                            breakdown,
                        },
                        self.cfg.proc_cycles,
                    );
                } else if let Some(entry) = self.wb.get_mut(line.0) {
                    debug_assert_eq!(entry.state, WbState::MiA);
                    entry.state = WbState::IiA;
                    let data = entry.data;
                    self.send(
                        now,
                        requestor,
                        CoherenceMsg::DataOwner {
                            line,
                            data,
                            grant: Grant::M,
                            breakdown,
                        },
                        self.cfg.proc_cycles,
                    );
                } else {
                    panic!("FwdGetM for line {line:?} we do not own");
                }
            }
            CoherenceMsg::PutAck { line } => {
                let entry = self.wb.remove(line.0).expect("PutAck without writeback");
                // Whatever the final state (MI_A/SI_A/II_A), the line is gone.
                let _ = entry;
            }
            CoherenceMsg::GetS { .. }
            | CoherenceMsg::GetM { .. }
            | CoherenceMsg::PutM { .. }
            | CoherenceMsg::WBData { .. }
            | CoherenceMsg::Unblock { .. } => {
                panic!("directory-bound message delivered to a private cache")
            }
        }
    }

    /// Completes a fill when both the data and all invalidation acks have
    /// arrived.
    fn try_complete_fill(&mut self, now: Time, line: LineAddr) {
        let done = {
            let mshr = self.mshrs.get(line.0).expect("fill without MSHR");
            mshr.data.is_some() && mshr.acks_needed.is_some_and(|n| mshr.acks_got >= n)
        };
        if !done {
            return;
        }
        let mut mshr = self.mshrs.remove(line.0).unwrap();
        self.tracer.emit(
            now.as_ps(),
            EventKind::MshrRetire,
            line.0,
            self.mshrs.len() as u64,
        );
        let (data, grant) = mshr.data.take().unwrap();
        // Release the home's busy state.
        let home = self.home.home_of(line);
        self.send(
            now,
            home,
            CoherenceMsg::Unblock { line },
            self.cfg.proc_cycles,
        );

        if mshr.fill_invalidated {
            debug_assert!(!mshr.want_m);
            // Serve the leading loads from the momentary data, then replay
            // the rest (they will re-miss).
            while let Some(req) = mshr.pending.front() {
                match req.op {
                    MemOp::Load(_) | MemOp::LoadLine | MemOp::IFetch => {
                        let req = mshr.pending.pop_front().unwrap();
                        // Forward-once: the line is NOT installed here, so
                        // the L1 must not retain it either.
                        self.finish_access_opts(
                            now,
                            &req,
                            &mut data.clone(),
                            &mshr.breakdown,
                            false,
                            false,
                        );
                    }
                    _ => break,
                }
            }
            for req in mshr.pending.drain(..).rev() {
                self.req_in.push_front(req);
            }
            return;
        }

        let state = match grant {
            Grant::S => LineState::S,
            Grant::E => {
                if mshr.want_m {
                    LineState::M
                } else {
                    LineState::E
                }
            }
            Grant::M => LineState::M,
        };
        self.install_line(now, line, data, state);
        // Serve all pending requests that this state satisfies; replay the
        // rest (e.g. a store after an S fill re-issues as an upgrade).
        let mut line_data = self.array.peek(line).map(|(_, d)| *d).unwrap();
        let mut dirty = false;
        while let Some(req) = mshr.pending.front() {
            let needs_m = !matches!(req.op, MemOp::Load(_) | MemOp::LoadLine | MemOp::IFetch);
            let have_m = matches!(state, LineState::M);
            if needs_m && !have_m {
                break;
            }
            let req = mshr.pending.pop_front().unwrap();
            let wrote = self.finish_access(now, &req, &mut line_data, &mshr.breakdown, true);
            dirty |= wrote;
        }
        if dirty {
            if let Some((_, d)) = self.array.get_mut(line) {
                *d = line_data;
            }
        }
        for req in mshr.pending.drain(..).rev() {
            self.req_in.push_front(req);
        }
    }

    /// Installs a filled line, evicting a victim if the set is full.
    fn install_line(&mut self, now: Time, line: LineAddr, data: LineData, state: LineState) {
        if let Some(victim) = self.array.victim_for(line) {
            self.evict(now, victim);
        }
        self.array.insert(line, data, state);
    }

    /// Evicts a stable line: M/E lines are written back, S lines dropped
    /// silently.
    fn evict(&mut self, now: Time, victim: LineAddr) {
        let (state, data) = self.array.remove(victim).expect("victim must be resident");
        self.back_inval.push_back((victim, InvalReason::Eviction));
        if matches!(state, LineState::M | LineState::E) {
            self.stats.writebacks += 1;
            self.tracer
                .emit(now.as_ps(), EventKind::Writeback, victim.0, 0);
            self.wb.insert(
                victim.0,
                WbEntry {
                    state: WbState::MiA,
                    data,
                },
            );
            let home = self.home.home_of(victim);
            self.send(now, home, CoherenceMsg::PutM { line: victim, data }, 0);
        }
    }

    /// Completes one CPU-side access against `line_data`, pushing the
    /// response. Returns true if it wrote. `miss_path` selects the latency:
    /// responses on the hit path wait `hit_cycles`; fills respond after
    /// `proc_cycles` (the miss latency has already elapsed in real time).
    fn finish_access(
        &mut self,
        now: Time,
        req: &MemReq,
        line_data: &mut LineData,
        breakdown: &LatencyBreakdown,
        miss_path: bool,
    ) -> bool {
        self.finish_access_opts(now, req, line_data, breakdown, miss_path, true)
    }

    /// [`finish_access`](Self::finish_access) with an explicit cacheability
    /// marker for forward-once (fill-invalidated) serves.
    fn finish_access_opts(
        &mut self,
        now: Time,
        req: &MemReq,
        line_data: &mut LineData,
        breakdown: &LatencyBreakdown,
        miss_path: bool,
        cacheable: bool,
    ) -> bool {
        let offset = LineAddr::offset(req.addr);
        let mut bd = *breakdown;
        let resp_delay = if miss_path {
            self.delay(self.cfg.proc_cycles)
        } else {
            self.delay(self.cfg.hit_cycles)
        };
        *self.local_bucket(&mut bd) += resp_delay;
        let (rdata, line, wrote) = match req.op {
            MemOp::Load(w) => (read_scalar(line_data, offset, w), None, false),
            MemOp::LoadLine | MemOp::IFetch => (0, Some(*line_data), false),
            MemOp::Store(w) => {
                write_scalar(line_data, offset, w, req.wdata);
                (0, None, true)
            }
            MemOp::Amo(op, w) => {
                let old = apply_amo(line_data, offset, w, op, req.wdata, req.expected);
                (old, None, true)
            }
        };
        self.resp_out.push_at(
            now + resp_delay,
            MemResp {
                id: req.id,
                rdata,
                line,
                cacheable,
                breakdown: bd,
            },
        );
        wrote
    }

    /// Advances the cache by one clock edge: processes at most one queued
    /// coherence message and at most one CPU-side request.
    pub fn tick(&mut self, now: Time) {
        if let Some((src, msg, arrived, flight)) = self.noc_in.pop_front() {
            // Queue wait counts as local pipeline occupancy for the
            // transaction this message carries forward.
            let wait = now.saturating_sub(arrived);
            let msg = add_wait(msg, wait, self.cfg.slow_domain);
            self.process_msg(now, src, msg, flight);
        }
        let Some(req) = self.req_in.front().copied() else {
            return;
        };
        let line = LineAddr::containing(req.addr);

        // Fold into an existing outstanding miss on the same line.
        if let Some(mshr) = self.mshrs.get_mut(line.0) {
            self.req_in.pop_front();
            self.stats.mshr_merges += 1;
            mshr.pending.push_back(req);
            return;
        }

        let needs_m = !matches!(req.op, MemOp::Load(_) | MemOp::LoadLine | MemOp::IFetch);
        let state = self.array.peek(line).map(|(m, _)| *m);
        match state {
            Some(LineState::M) => {
                self.req_in.pop_front();
                self.stats.hits += 1;
                let mut data = *self.array.get(line).map(|(_, d)| d).unwrap();
                let wrote =
                    self.finish_access(now, &req, &mut data, &LatencyBreakdown::new(), false);
                if wrote {
                    if let Some((_, d)) = self.array.get_mut(line) {
                        *d = data;
                    }
                }
            }
            Some(LineState::E) => {
                self.req_in.pop_front();
                self.stats.hits += 1;
                if needs_m {
                    // Silent E -> M upgrade.
                    *self.array.meta_mut(line).unwrap() = LineState::M;
                }
                let mut data = *self.array.get(line).map(|(_, d)| d).unwrap();
                let wrote =
                    self.finish_access(now, &req, &mut data, &LatencyBreakdown::new(), false);
                if wrote {
                    if let Some((_, d)) = self.array.get_mut(line) {
                        *d = data;
                    }
                }
            }
            Some(LineState::S) if !needs_m => {
                self.req_in.pop_front();
                self.stats.hits += 1;
                let mut data = *self.array.get(line).map(|(_, d)| d).unwrap();
                self.finish_access(now, &req, &mut data, &LatencyBreakdown::new(), false);
            }
            Some(LineState::S) => {
                // Upgrade miss.
                if self.mshrs.len() >= self.cfg.mshrs {
                    return; // head-of-line block until an MSHR frees
                }
                self.req_in.pop_front();
                self.stats.misses += 1;
                let mut breakdown = LatencyBreakdown::new();
                *self.local_bucket(&mut breakdown) += self.delay(self.cfg.proc_cycles);
                let mut pending = VecDeque::new();
                pending.push_back(req);
                self.mshrs.insert(
                    line.0,
                    Mshr {
                        want_m: true,
                        was_s: true,
                        data: None,
                        acks_needed: None,
                        acks_got: 0,
                        fill_invalidated: false,
                        pending,
                        breakdown,
                    },
                );
                self.tracer.emit(
                    now.as_ps(),
                    EventKind::MshrAlloc,
                    line.0,
                    self.mshrs.len() as u64,
                );
                // Drop the S copy locally; the directory's Data response
                // will re-supply it. (Keeping it would be legal MESI but the
                // epoch argument in handle_msg relies on request-time state.)
                self.array.remove(line);
                let home = self.home.home_of(line);
                self.send(now, home, CoherenceMsg::GetM { line }, self.cfg.proc_cycles);
            }
            None => {
                if self.mshrs.len() >= self.cfg.mshrs {
                    return;
                }
                self.req_in.pop_front();
                self.stats.misses += 1;
                let mut breakdown = LatencyBreakdown::new();
                *self.local_bucket(&mut breakdown) += self.delay(self.cfg.proc_cycles);
                let mut pending = VecDeque::new();
                pending.push_back(req);
                self.mshrs.insert(
                    line.0,
                    Mshr {
                        want_m: needs_m,
                        was_s: false,
                        data: None,
                        acks_needed: None,
                        acks_got: 0,
                        fill_invalidated: false,
                        pending,
                        breakdown,
                    },
                );
                self.tracer.emit(
                    now.as_ps(),
                    EventKind::MshrAlloc,
                    line.0,
                    self.mshrs.len() as u64,
                );
                let home = self.home.home_of(line);
                let msg = if needs_m {
                    CoherenceMsg::GetM { line }
                } else {
                    CoherenceMsg::GetS { line }
                };
                self.send(now, home, msg, self.cfg.proc_cycles);
            }
        }
    }
}

impl Component for PrivCache {
    fn name(&self) -> String {
        format!("cache@n{}", self.node)
    }

    fn domain(&self) -> ClockDomain {
        if self.cfg.slow_domain {
            ClockDomain::Slow
        } else {
            ClockDomain::Fast
        }
    }

    fn tick(&mut self, now: Time) {
        PrivCache::tick(self, now);
    }

    fn next_event_time(&self, now: Time) -> Option<Time> {
        PrivCache::next_event_time(self, now)
    }

    fn is_active(&self, _now: Time) -> bool {
        PrivCache::is_active(self)
    }

    fn visit_links(&self, visit: &mut dyn FnMut(&str, LinkReport)) {
        visit("resp_out", self.resp_out.report());
        visit("noc_out", self.noc_out.report());
    }
}

duet_sim::pack_enum!(LineState { 0 => S, 1 => E, 2 => M });
duet_sim::pack_enum!(InvalReason { 0 => Coherence, 1 => Eviction });
duet_sim::pack_enum!(WbState { 0 => MiA, 1 => SiA, 2 => IiA });
duet_sim::pack_struct!(WbEntry { state, data });
duet_sim::pack_struct!(Mshr {
    want_m,
    was_s,
    data,
    acks_needed,
    acks_got,
    fill_invalidated,
    pending,
    breakdown
});
duet_sim::pack_struct!(CacheStats {
    hits,
    misses,
    mshr_merges,
    writebacks,
    invs,
    downgrades,
    fwd_getm
});
// Everything observable is serialized; the tracer handle is not (the owning
// system re-installs it after a restore).
duet_sim::snap_fields!(PrivCache {
    array,
    mshrs,
    wb,
    req_in,
    noc_in,
    resp_out,
    noc_out,
    back_inval,
    stats
});

/// Adds pipeline-wait time into a breakdown-carrying message.
fn add_wait(msg: CoherenceMsg, wait: Time, slow: bool) -> CoherenceMsg {
    if wait == Time::ZERO {
        return msg;
    }
    let bump = |mut b: LatencyBreakdown| {
        if slow {
            b.cache_slow += wait;
        } else {
            b.cache_fast += wait;
        }
        b
    };
    match msg {
        CoherenceMsg::FwdGetS {
            line,
            requestor,
            breakdown,
        } => CoherenceMsg::FwdGetS {
            line,
            requestor,
            breakdown: bump(breakdown),
        },
        CoherenceMsg::FwdGetM {
            line,
            requestor,
            breakdown,
        } => CoherenceMsg::FwdGetM {
            line,
            requestor,
            breakdown: bump(breakdown),
        },
        CoherenceMsg::Data {
            line,
            data,
            grant,
            acks,
            breakdown,
        } => CoherenceMsg::Data {
            line,
            data,
            grant,
            acks,
            breakdown: bump(breakdown),
        },
        CoherenceMsg::DataOwner {
            line,
            data,
            grant,
            breakdown,
        } => CoherenceMsg::DataOwner {
            line,
            data,
            grant,
            breakdown: bump(breakdown),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Width;

    fn cache() -> PrivCache {
        let cfg = CacheConfig::dolly_l2(Clock::ghz1());
        PrivCache::new(cfg, 0, HomeMap::new(vec![1]))
    }

    fn t(c: u64) -> Time {
        Time::from_ps(1000 * c)
    }

    /// Runs ticks, collecting outgoing messages, until a CPU response pops.
    fn run_until_resp(
        c: &mut PrivCache,
        mut cycle: u64,
    ) -> (u64, MemResp, Vec<(NodeId, CoherenceMsg)>) {
        let mut out = Vec::new();
        for _ in 0..1000 {
            cycle += 1;
            c.tick(t(cycle));
            while let Some(m) = c.pop_outgoing(t(cycle)) {
                out.push(m);
            }
            if let Some(r) = c.pop_cpu_resp(t(cycle)) {
                return (cycle, r, out);
            }
        }
        panic!("no response");
    }

    #[test]
    fn load_miss_sends_gets_and_fill_completes() {
        let mut c = cache();
        c.cpu_request(MemReq::load(1, 0x100, Width::B8));
        c.tick(t(1));
        let (dst, msg) = loop {
            if let Some(m) = c.pop_outgoing(t(10)) {
                break m;
            }
        };
        assert_eq!(dst, 1);
        assert!(matches!(msg, CoherenceMsg::GetS { line } if line == LineAddr(0x10)));

        // Home responds with exclusive data.
        let mut data = [0u8; 16];
        write_scalar(&mut data, 0, Width::B8, 0xABCD);
        c.handle_msg(
            t(20),
            1,
            CoherenceMsg::Data {
                line: LineAddr(0x10),
                data,
                grant: Grant::E,
                acks: 0,
                breakdown: LatencyBreakdown::new(),
            },
            Time::from_ns(5),
        );
        let (_, resp, out) = run_until_resp(&mut c, 20);
        assert_eq!(resp.id, 1);
        assert_eq!(resp.rdata, 0xABCD);
        assert!(resp.breakdown.noc >= Time::from_ns(5));
        // Unblock went to home.
        assert!(out
            .iter()
            .any(|(d, m)| *d == 1 && matches!(m, CoherenceMsg::Unblock { .. })));
        assert_eq!(c.line_state(LineAddr(0x10)), Some(LineState::E));
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn load_hit_after_fill_is_fast_and_local() {
        let mut c = cache();
        c.warm_insert(LineAddr(0x10), [7u8; 16], LineState::E);
        c.cpu_request(MemReq::load(2, 0x100, Width::B1));
        let (_, resp, out) = run_until_resp(&mut c, 0);
        assert_eq!(resp.rdata, 7);
        assert!(out.is_empty(), "hits generate no traffic");
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn store_hit_in_e_upgrades_silently() {
        let mut c = cache();
        c.warm_insert(LineAddr(0x10), [0u8; 16], LineState::E);
        c.cpu_request(MemReq::store(3, 0x100, Width::B8, 55));
        let (_, _, out) = run_until_resp(&mut c, 0);
        assert!(out.is_empty());
        assert_eq!(c.line_state(LineAddr(0x10)), Some(LineState::M));
        let line = c.peek_line(LineAddr(0x10)).unwrap();
        assert_eq!(read_scalar(&line, 0, Width::B8), 55);
    }

    #[test]
    fn store_to_shared_line_issues_getm_upgrade() {
        let mut c = cache();
        c.warm_insert(LineAddr(0x10), [0u8; 16], LineState::S);
        c.cpu_request(MemReq::store(4, 0x100, Width::B4, 9));
        c.tick(t(1));
        let mut saw_getm = false;
        while let Some((dst, m)) = c.pop_outgoing(t(10)) {
            if matches!(m, CoherenceMsg::GetM { .. }) {
                assert_eq!(dst, 1);
                saw_getm = true;
            }
        }
        assert!(saw_getm);
        // Fill with 1 pending ack: not complete until InvAck arrives.
        c.handle_msg(
            t(12),
            1,
            CoherenceMsg::Data {
                line: LineAddr(0x10),
                data: [0u8; 16],
                grant: Grant::M,
                acks: 1,
                breakdown: LatencyBreakdown::new(),
            },
            Time::ZERO,
        );
        c.tick(t(13));
        assert!(c.pop_cpu_resp(t(13)).is_none(), "must wait for InvAck");
        c.handle_msg(
            t(14),
            2,
            CoherenceMsg::InvAck {
                line: LineAddr(0x10),
            },
            Time::ZERO,
        );
        let (_, resp, _) = run_until_resp(&mut c, 14);
        assert_eq!(resp.id, 4);
        assert_eq!(c.line_state(LineAddr(0x10)), Some(LineState::M));
    }

    #[test]
    fn inv_on_shared_line_acks_to_requestor() {
        let mut c = cache();
        c.warm_insert(LineAddr(0x10), [1u8; 16], LineState::S);
        c.handle_msg(
            t(5),
            1,
            CoherenceMsg::Inv {
                line: LineAddr(0x10),
                requestor: 3,
            },
            Time::ZERO,
        );
        c.tick(t(6));
        let (dst, msg) = c.pop_outgoing(t(12)).unwrap();
        assert_eq!(dst, 3, "InvAck goes to the requestor, not home");
        assert!(matches!(msg, CoherenceMsg::InvAck { .. }));
        assert_eq!(c.line_state(LineAddr(0x10)), None);
        let bi = c.take_back_invalidations();
        assert_eq!(bi, vec![(LineAddr(0x10), InvalReason::Coherence)]);
    }

    #[test]
    fn inv_for_absent_line_still_acks() {
        let mut c = cache();
        c.handle_msg(
            t(5),
            1,
            CoherenceMsg::Inv {
                line: LineAddr(0x99),
                requestor: 2,
            },
            Time::ZERO,
        );
        c.tick(t(6));
        let (dst, msg) = c.pop_outgoing(t(12)).unwrap();
        assert_eq!(dst, 2);
        assert!(matches!(msg, CoherenceMsg::InvAck { .. }));
    }

    #[test]
    fn fwd_gets_downgrades_and_copies_back() {
        let mut c = cache();
        c.warm_insert(LineAddr(0x10), [9u8; 16], LineState::M);
        c.handle_msg(
            t(5),
            1,
            CoherenceMsg::FwdGetS {
                line: LineAddr(0x10),
                requestor: 2,
                breakdown: LatencyBreakdown::new(),
            },
            Time::from_ns(3),
        );
        c.tick(t(6));
        let mut to_req = None;
        let mut to_home = None;
        while let Some((dst, m)) = c.pop_outgoing(t(14)) {
            match m {
                CoherenceMsg::DataOwner {
                    grant, breakdown, ..
                } => {
                    assert_eq!(dst, 2);
                    assert_eq!(grant, Grant::S);
                    assert!(breakdown.noc >= Time::from_ns(3));
                    to_req = Some(());
                }
                CoherenceMsg::WBData { data, .. } => {
                    assert_eq!(dst, 1);
                    assert_eq!(data[0], 9);
                    to_home = Some(());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(to_req.is_some() && to_home.is_some());
        assert_eq!(c.line_state(LineAddr(0x10)), Some(LineState::S));
    }

    #[test]
    fn fwd_getm_transfers_ownership() {
        let mut c = cache();
        c.warm_insert(LineAddr(0x10), [4u8; 16], LineState::M);
        c.handle_msg(
            t(5),
            1,
            CoherenceMsg::FwdGetM {
                line: LineAddr(0x10),
                requestor: 2,
                breakdown: LatencyBreakdown::new(),
            },
            Time::ZERO,
        );
        c.tick(t(6));
        let (dst, msg) = c.pop_outgoing(t(12)).unwrap();
        assert_eq!(dst, 2);
        assert!(matches!(
            msg,
            CoherenceMsg::DataOwner {
                grant: Grant::M,
                ..
            }
        ));
        assert_eq!(c.line_state(LineAddr(0x10)), None);
    }

    #[test]
    fn eviction_writes_back_dirty_line() {
        // 1-set config to force conflict.
        let cfg = CacheConfig {
            sets: 1,
            ways: 1,
            ..CacheConfig::dolly_l2(Clock::ghz1())
        };
        let mut c = PrivCache::new(cfg, 0, HomeMap::new(vec![1]));
        c.warm_insert(LineAddr(0x10), [3u8; 16], LineState::M);
        // Miss on a conflicting line.
        c.cpu_request(MemReq::load(1, 0x200, Width::B8));
        c.tick(t(1));
        // Fill arrives; installing evicts the dirty victim.
        c.handle_msg(
            t(5),
            1,
            CoherenceMsg::Data {
                line: LineAddr(0x20),
                data: [0u8; 16],
                grant: Grant::E,
                acks: 0,
                breakdown: LatencyBreakdown::new(),
            },
            Time::ZERO,
        );
        let mut saw_putm = false;
        for k in 6..16 {
            c.tick(t(k));
            while let Some((dst, m)) = c.pop_outgoing(t(20)) {
                if let CoherenceMsg::PutM { line, data } = m {
                    assert_eq!(dst, 1);
                    assert_eq!(line, LineAddr(0x10));
                    assert_eq!(data[0], 3);
                    saw_putm = true;
                }
            }
        }
        assert!(saw_putm);
        assert_eq!(c.stats().writebacks, 1);
        // PutAck clears the writeback buffer.
        c.handle_msg(
            t(25),
            1,
            CoherenceMsg::PutAck {
                line: LineAddr(0x10),
            },
            Time::ZERO,
        );
        // Wait for the fill response before checking idle.
        let _ = run_until_resp(&mut c, 25);
        assert!(c.is_idle());
    }

    #[test]
    fn fwd_during_writeback_served_from_wb_buffer() {
        let cfg = CacheConfig {
            sets: 1,
            ways: 1,
            ..CacheConfig::dolly_l2(Clock::ghz1())
        };
        let mut c = PrivCache::new(cfg, 0, HomeMap::new(vec![1]));
        c.warm_insert(LineAddr(0x10), [8u8; 16], LineState::M);
        c.cpu_request(MemReq::load(1, 0x200, Width::B8));
        c.tick(t(1));
        c.handle_msg(
            t(3),
            1,
            CoherenceMsg::Data {
                line: LineAddr(0x20),
                data: [0u8; 16],
                grant: Grant::E,
                acks: 0,
                breakdown: LatencyBreakdown::new(),
            },
            Time::ZERO,
        );
        // Drain the PutM.
        for k in 4..10 {
            c.tick(t(k));
        }
        while c.pop_outgoing(t(10)).is_some() {}
        // A FwdGetS for the in-flight writeback line.
        c.handle_msg(
            t(11),
            1,
            CoherenceMsg::FwdGetS {
                line: LineAddr(0x10),
                requestor: 2,
                breakdown: LatencyBreakdown::new(),
            },
            Time::ZERO,
        );
        c.tick(t(12));
        let mut got_data = false;
        while let Some((dst, m)) = c.pop_outgoing(t(20)) {
            if let CoherenceMsg::DataOwner { data, .. } = m {
                assert_eq!(dst, 2);
                assert_eq!(data[0], 8);
                got_data = true;
            }
        }
        assert!(got_data, "wb buffer must serve forwarded requests");
        // PutAck finally clears it.
        c.handle_msg(
            t(21),
            1,
            CoherenceMsg::PutAck {
                line: LineAddr(0x10),
            },
            Time::ZERO,
        );
        let _ = run_until_resp(&mut c, 21);
        assert!(c.is_idle());
    }

    #[test]
    fn amo_returns_old_value_and_mutates() {
        let mut c = cache();
        let mut d = [0u8; 16];
        write_scalar(&mut d, 0, Width::B8, 41);
        c.warm_insert(LineAddr(0x10), d, LineState::M);
        c.cpu_request(MemReq::amo(
            9,
            crate::types::AmoOp::Add,
            0x100,
            Width::B8,
            1,
            0,
        ));
        let (_, resp, _) = run_until_resp(&mut c, 0);
        assert_eq!(resp.rdata, 41);
        let line = c.peek_line(LineAddr(0x10)).unwrap();
        assert_eq!(read_scalar(&line, 0, Width::B8), 42);
    }

    #[test]
    fn mshr_merge_coalesces_same_line_requests() {
        let mut c = cache();
        c.cpu_request(MemReq::load(1, 0x100, Width::B8));
        c.cpu_request(MemReq::load(2, 0x108, Width::B8));
        c.tick(t(1));
        c.tick(t(2));
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().mshr_merges, 1);
        c.handle_msg(
            t(5),
            1,
            CoherenceMsg::Data {
                line: LineAddr(0x10),
                data: [5u8; 16],
                grant: Grant::S,
                acks: 0,
                breakdown: LatencyBreakdown::new(),
            },
            Time::ZERO,
        );
        let (_, r1, _) = run_until_resp(&mut c, 5);
        let (_, r2, _) = run_until_resp(&mut c, 6);
        assert_eq!((r1.id, r2.id), (1, 2), "responses in order");
    }

    #[test]
    fn mshr_limit_blocks_new_misses() {
        let cfg = CacheConfig::dolly_l2(Clock::ghz1()).with_mshrs(1);
        let mut c = PrivCache::new(cfg, 0, HomeMap::new(vec![1]));
        c.cpu_request(MemReq::load(1, 0x100, Width::B8));
        c.cpu_request(MemReq::load(2, 0x200, Width::B8));
        c.tick(t(1));
        c.tick(t(2));
        c.tick(t(3));
        assert_eq!(c.stats().misses, 1, "second miss blocked by MSHR limit");
        assert_eq!(c.mshrs_in_use(), 1);
    }

    #[test]
    fn inv_during_pending_gets_serves_load_once_without_install() {
        let mut c = cache();
        c.cpu_request(MemReq::load(1, 0x100, Width::B8));
        c.tick(t(1));
        // Inv races ahead of the fill.
        c.handle_msg(
            t(2),
            1,
            CoherenceMsg::Inv {
                line: LineAddr(0x10),
                requestor: 2,
            },
            Time::ZERO,
        );
        let mut d = [0u8; 16];
        write_scalar(&mut d, 0, Width::B8, 77);
        c.handle_msg(
            t(4),
            1,
            CoherenceMsg::Data {
                line: LineAddr(0x10),
                data: d,
                grant: Grant::S,
                acks: 0,
                breakdown: LatencyBreakdown::new(),
            },
            Time::ZERO,
        );
        let (_, resp, _) = run_until_resp(&mut c, 4);
        assert_eq!(resp.rdata, 77, "load served with forwarded-once data");
        assert_eq!(c.line_state(LineAddr(0x10)), None, "line not installed");
    }

    #[test]
    fn loadline_returns_full_line() {
        let mut c = cache();
        let mut d = [0u8; 16];
        for (i, b) in d.iter_mut().enumerate() {
            *b = i as u8;
        }
        c.warm_insert(LineAddr(0x10), d, LineState::S);
        c.cpu_request(MemReq::load_line(7, 0x100));
        let (_, resp, _) = run_until_resp(&mut c, 0);
        assert_eq!(resp.line, Some(d));
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_access_panics() {
        let mut c = cache();
        c.cpu_request(MemReq::load(1, 0x101, Width::B8));
    }

    #[test]
    fn snapshot_mid_transaction_roundtrip_is_bit_identical() {
        use duet_sim::{Snap, SnapReader, SnapWriter};

        // Leave an MSHR in flight, a queued request, and a dirty line, then
        // snapshot, restore into a fresh cache, and drive both in lockstep.
        let mut a = cache();
        a.warm_insert(LineAddr(0x30), [3u8; 16], LineState::M);
        a.cpu_request(MemReq::load(1, 0x100, Width::B8));
        a.cpu_request(MemReq::load(2, 0x108, Width::B8));
        a.tick(t(1));

        let mut w = SnapWriter::new();
        a.save(&mut w);
        let bytes = w.finish();
        let mut b = cache();
        b.load(&mut SnapReader::new(&bytes)).unwrap();

        for c in [&mut a, &mut b] {
            let mut d = [0u8; 16];
            write_scalar(&mut d, 0, Width::B8, 0xFEED);
            c.handle_msg(
                t(10),
                1,
                CoherenceMsg::Data {
                    line: LineAddr(0x10),
                    data: d,
                    grant: Grant::E,
                    acks: 0,
                    breakdown: LatencyBreakdown::new(),
                },
                Time::from_ns(2),
            );
        }
        for cyc in 11..40 {
            a.tick(t(cyc));
            b.tick(t(cyc));
            loop {
                let (ma, mb) = (a.pop_outgoing(t(cyc)), b.pop_outgoing(t(cyc)));
                assert_eq!(format!("{ma:?}"), format!("{mb:?}"));
                if ma.is_none() {
                    break;
                }
            }
            loop {
                let (ra, rb) = (a.pop_cpu_resp(t(cyc)), b.pop_cpu_resp(t(cyc)));
                assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
                if ra.is_none() {
                    break;
                }
            }
        }
        assert_eq!(format!("{:?}", a.stats()), format!("{:?}", b.stats()));
        assert_eq!(a.line_state(LineAddr(0x30)), b.line_state(LineAddr(0x30)));
    }
}
