//! The in-order, single-issue timing core.
//!
//! Models an Ariane-class RV64 core (6-stage, single-issue, in-order,
//! private FPU — Sec. IV of the paper) at the fidelity of an
//! architecture-level simulator:
//!
//! * one instruction issues per cycle at best; multi-cycle ops occupy the
//!   pipeline for their [`Inst::cost`],
//! * loads are blocking (miss → the core stalls until the fill returns),
//! * stores retire through a small store buffer (write-through L1); one
//!   store is in flight to the L2 at a time, preserving store order,
//! * loads stall on a store-buffer address (line) conflict,
//! * AMOs and `Fence` drain the store buffer and block,
//! * **MMIO accesses follow I/O ordering**: they drain the store buffer and
//!   block the pipeline until the device acknowledges — this is the paper's
//!   motivation for Shadow Registers (Sec. II-F): the ack latency, not the
//!   issue rate, bounds soft-register bandwidth,
//! * instruction fetch is modelled as ideal (the kernels are tiny and the
//!   paper runs bare metal where the I-footprint is warm; documented
//!   substitution).
//!
//! # Spinning
//!
//! A core polling L1-resident data — `ld locked; bnez` in an MCS wait —
//! repeats one iteration until an invalidation reaches its L1. When it
//! takes the back-edge of a [`SpinLoop`](crate::isa::SpinLoop) twice with
//! one whole side-effect free iteration in between (no miss, invalidation,
//! store, AMO, MMIO or stall, an idle store buffer, the body's registers
//! back at their values), every later iteration is that one shifted by its
//! period: the core is *spinning* ([`is_spinning`](Core::is_spinning)),
//! reports no event, and its owner stops ticking it.
//! [`catch_up`](Core::catch_up) brings it to any later edge exactly as
//! ticking would have; the owner must call it before anything outside the
//! core observes or changes it.

use std::collections::VecDeque;
use std::sync::Arc;

use duet_mem::l1::{L1Cache, L1Config};
use duet_mem::types::{Addr, LineAddr, MemReq, MemResp, Width};
use duet_sim::{Clock, Time};

use crate::isa::{AluOp, Cond, FpCmp, FpOp, Inst, Program, Reg, SPIN_WRITES_MAX};

/// Core configuration.
#[derive(Clone, Copy, Debug)]
pub struct CoreConfig {
    /// The core (and system) clock.
    pub clock: Clock,
    /// Hart id returned by [`Inst::CoreId`].
    pub hart_id: u64,
    /// Addresses at or above this are uncached MMIO device space.
    pub mmio_base: Addr,
    /// Store buffer depth.
    pub store_buffer: usize,
    /// Extra cycles charged on a taken branch/jump (pipeline refill).
    pub taken_branch_penalty: u32,
    /// L1 data cache geometry.
    pub l1: L1Config,
}

impl CoreConfig {
    /// Dolly-like defaults at the given clock.
    pub fn dolly(clock: Clock, hart_id: u64) -> Self {
        CoreConfig {
            clock,
            hart_id,
            mmio_base: 0x4000_0000,
            store_buffer: 4,
            taken_branch_penalty: 2,
            l1: L1Config::dolly_l1d(),
        }
    }
}

/// Why the core is not issuing this cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Wait {
    /// Running normally.
    None,
    /// Waiting for a cached line fill: `(req id, rd, width, signed, addr)`.
    Load(u64, Reg, Width, bool, Addr),
    /// Waiting for an AMO response: `(req id, rd)`.
    Amo(u64, Reg),
    /// Waiting for an MMIO load: `(req id, rd, width, signed)`.
    MmioLoad(u64, Reg, Width, bool),
    /// Waiting for an MMIO store acknowledgement: req id.
    MmioStore(u64),
    /// Waiting for the store buffer to drain, then retry the current pc.
    Drain,
    /// Halted.
    Halted,
}

/// Execution statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreStats {
    /// Instructions retired.
    pub instret: u64,
    /// Cached loads issued to the L2 (L1 misses).
    pub load_misses: u64,
    /// Loads satisfied by the L1.
    pub load_hits: u64,
    /// Stores retired.
    pub stores: u64,
    /// AMOs executed.
    pub amos: u64,
    /// MMIO loads + stores.
    pub mmio_ops: u64,
    /// Cycles spent with the pipeline blocked on memory.
    pub mem_stall_cycles: u64,
}

/// A back-edge of a [`SpinLoop`](crate::isa::SpinLoop) taken once: what
/// the next take must find unchanged to confirm a spin.
#[derive(Clone, Copy, Debug)]
struct SpinProbe {
    branch: usize,
    /// `next_issue` just after the take.
    at: Time,
    instret: u64,
    load_hits: u64,
    /// [`Core::disturbances`] at the take.
    disturbances: u64,
    /// The body's written registers, in
    /// [`SpinLoop::writes`](crate::isa::SpinLoop::writes) order.
    regs: [u64; SPIN_WRITES_MAX],
}

/// A confirmed spin: one iteration of `insts` instructions and `hits` L1
/// load hits every `period`, starting on every `anchor + k * period`.
#[derive(Clone)]
struct Spin {
    /// `next_issue` at the start of the iteration the core is in: the core
    /// sits at the loop head exactly when `next_issue == anchor`.
    anchor: Time,
    period: Time,
    insts: u64,
    hits: u64,
    /// Debug builds: a copy of the core ticked on every edge, and the last
    /// edge it was ticked at, that each catch-up must reproduce.
    #[cfg(debug_assertions)]
    twin: Option<Box<(Core, Time)>>,
}

/// The timing core. Owns its L1D; talks to the tile through a request queue
/// and [`mem_response`](Core::mem_response).
#[derive(Clone)]
pub struct Core {
    cfg: CoreConfig,
    program: Arc<Program>,
    regs: [u64; 32],
    pc: usize,
    next_issue: Time,
    wait: Wait,
    /// Stores accepted but not yet sent to the L2.
    store_buf: VecDeque<MemReq>,
    /// Id of the store currently in flight to the L2, if any.
    store_inflight: Option<u64>,
    next_id: u64,
    out: VecDeque<MemReq>,
    l1: L1Cache,
    stats: CoreStats,
    halted: bool,
    last_breakdown: duet_sim::LatencyBreakdown,
    /// A back-invalidation hit the line of the in-flight load: use the fill
    /// data once but do not install it in the L1 (inclusion).
    fill_poisoned: bool,
    /// Spin detection in progress. Derived state: never serialized.
    probe: Option<SpinProbe>,
    /// Set while the core is spinning. Derived state: never serialized.
    spin: Option<Spin>,
}

impl Core {
    /// Creates a core at `pc = 0` with zeroed registers.
    pub fn new(cfg: CoreConfig, program: Arc<Program>) -> Self {
        Core {
            cfg,
            program,
            regs: [0; 32],
            pc: 0,
            next_issue: Time::ZERO,
            wait: Wait::None,
            store_buf: VecDeque::new(),
            store_inflight: None,
            next_id: 1,
            out: VecDeque::new(),
            l1: L1Cache::new(cfg.l1),
            stats: CoreStats::default(),
            halted: false,
            last_breakdown: duet_sim::LatencyBreakdown::new(),
            fill_poisoned: false,
            probe: None,
            spin: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// The program this core runs.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Execution statistics.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> duet_mem::l1::L1Stats {
        self.l1.stats()
    }

    /// Whether the core has executed `Halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Current program counter (debug aid).
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Reads a register (x0 reads as zero).
    pub fn reg(&self, r: Reg) -> u64 {
        if r.0 == 0 {
            0
        } else {
            self.regs[r.0 as usize]
        }
    }

    /// Writes a register (writes to x0 are discarded). An outside write
    /// restarts spin detection.
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.forget_spin();
        self.write_reg(r, v);
    }

    fn write_reg(&mut self, r: Reg, v: u64) {
        if r.0 != 0 {
            self.regs[r.0 as usize] = v;
        }
    }

    /// Jumps to a label (program setup).
    ///
    /// # Panics
    ///
    /// Panics if the label does not exist.
    pub fn set_pc_label(&mut self, label: &str) {
        let pc = self
            .program
            .label(label)
            .unwrap_or_else(|| panic!("unknown label `{label}`"));
        self.set_pc(pc);
    }

    /// Sets the program counter to a raw instruction index.
    pub fn set_pc(&mut self, pc: usize) {
        self.forget_spin();
        self.pc = pc;
    }

    /// Pops the next memory request bound for the tile (L2 or MMIO,
    /// distinguished by address against `cfg.mmio_base`).
    pub fn pop_mem_request(&mut self) -> Option<MemReq> {
        self.out.pop_front()
    }

    /// Whether `addr` falls in the MMIO region.
    pub fn is_mmio(&self, addr: Addr) -> bool {
        addr >= self.cfg.mmio_base
    }

    /// Applies a back-invalidation from the L2 (inclusion). If the
    /// invalidation targets the line of an in-flight load, the eventual
    /// fill is used once and not cached (the L2 has already given the line
    /// away; caching it would orphan a stale copy).
    pub fn back_invalidate(&mut self, line: LineAddr) {
        debug_assert!(self.spin.is_none(), "invalidating a spinning core's L1");
        self.l1.invalidate(line);
        if let Wait::Load(_, _, _, _, addr) = self.wait {
            if LineAddr::containing(addr) == line {
                self.fill_poisoned = true;
            }
        }
    }

    /// Latency attribution of the most recent completed cached load/AMO
    /// miss (used by the Fig. 9 breakdown harness).
    pub fn last_breakdown(&self) -> duet_sim::LatencyBreakdown {
        self.last_breakdown
    }

    /// Delivers a memory response from the tile.
    pub fn mem_response(&mut self, resp: MemResp) {
        if self.store_inflight == Some(resp.id) {
            self.store_inflight = None;
            return;
        }
        match self.wait {
            Wait::Load(id, rd, width, signed, addr) if id == resp.id => {
                self.last_breakdown = resp.breakdown;
                let line = resp.line.expect("cached load returns a full line");
                if resp.cacheable && !self.fill_poisoned {
                    self.l1.fill(LineAddr::containing(addr), line);
                }
                self.fill_poisoned = false;
                let raw = duet_mem::types::read_scalar(&line, LineAddr::offset(addr), width);
                self.write_reg(rd, extend(raw, width, signed));
                self.wait = Wait::None;
            }
            Wait::Amo(id, rd) if id == resp.id => {
                self.write_reg(rd, resp.rdata);
                self.wait = Wait::None;
            }
            Wait::MmioLoad(id, rd, width, signed) if id == resp.id => {
                self.write_reg(rd, extend(resp.rdata & width.mask(), width, signed));
                self.wait = Wait::None;
            }
            Wait::MmioStore(id) if id == resp.id => {
                self.wait = Wait::None;
            }
            _ => panic!("unexpected memory response id {}", resp.id),
        }
    }

    fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn store_buf_conflicts(&self, line: LineAddr) -> bool {
        self.store_buf
            .iter()
            .any(|s| LineAddr::containing(s.addr) == line)
    }

    fn drain_needed(&self) -> bool {
        !self.store_buf.is_empty() || self.store_inflight.is_some()
    }

    /// Issues at most one store from the store buffer to the L2.
    fn pump_store_buffer(&mut self) {
        if self.store_inflight.is_none() {
            if let Some(req) = self.store_buf.pop_front() {
                self.store_inflight = Some(req.id);
                self.out.push_back(req);
            }
        }
    }

    /// Whether a tick at `now` would retry a cached store against the full
    /// store buffer with a store in flight. Every tick in this state only
    /// counts a stall cycle until the store is acknowledged: registers, and
    /// hence the store's address, cannot change, and the pump has nothing
    /// to send.
    pub fn store_blocked_at(&self, now: Time) -> bool {
        self.wait == Wait::None
            && now >= self.next_issue
            && self.store_inflight.is_some()
            && self.store_buf.len() >= self.cfg.store_buffer
            && matches!(
                self.program.fetch(self.pc),
                Some(Inst::Store { base, off, .. })
                    if !self.is_mmio(self.reg(base).wrapping_add(off as u64))
            )
    }

    /// The earliest time ticking this core can next do observable work, or
    /// `None` when only [`mem_response`](Core::mem_response) can change what
    /// a tick would do: halted, blocked on a memory response, draining with
    /// a store in flight, or retrying a store against the full buffer
    /// ([`store_blocked_at`](Core::store_blocked_at), which holds from the
    /// first edge at or after `next_issue`) — and also while spinning, when
    /// only [`catch_up`](Core::catch_up) may advance it.
    ///
    /// Mirrors [`tick`](Core::tick) exactly: the store-buffer pump can act
    /// whenever no store is in flight and the buffer is non-empty (even while
    /// halted); a running core issues no earlier than `next_issue`. Skipped
    /// stall edges must be reported back through
    /// [`account_skipped_edges`](Core::account_skipped_edges) so statistics
    /// stay bit-identical with edge-by-edge ticking.
    pub fn next_event_time(&self, now: Time) -> Option<Time> {
        if self.spin.is_some() {
            return None; // caught up, never ticked (see the module docs)
        }
        if self.store_inflight.is_none() && !self.store_buf.is_empty() {
            return Some(now);
        }
        if !self.out.is_empty() {
            // A request is still queued for the tile to pop.
            return Some(now);
        }
        match self.wait {
            Wait::Halted => None,
            Wait::Load(..) | Wait::Amo(..) | Wait::MmioLoad(..) | Wait::MmioStore(..) => None,
            Wait::Drain => {
                if self.drain_needed() {
                    None
                } else {
                    Some(now)
                }
            }
            Wait::None if self.store_blocked_at(now) => None,
            Wait::None => Some(self.next_issue.max(now)),
        }
    }

    /// Whether a tick skipped because
    /// [`next_event_time`](Core::next_event_time) reported nothing due would
    /// have counted a memory-stall cycle: true for a core blocked on memory
    /// (draining with a store in flight, or retrying a store against the
    /// full buffer), false for a halted or issue-limited one.
    pub fn stalls_when_skipped(&self, now: Time) -> bool {
        match self.wait {
            Wait::Load(..) | Wait::Amo(..) | Wait::MmioLoad(..) | Wait::MmioStore(..) => true,
            Wait::Drain => self.drain_needed(),
            Wait::None => self.store_blocked_at(now),
            Wait::Halted => false,
        }
    }

    /// Accounts for `edges` clock edges that were skipped while
    /// [`next_event_time`](Core::next_event_time) reported nothing due,
    /// reproducing exactly the statistics [`tick`](Core::tick) would have
    /// recorded ([`stalls_when_skipped`](Core::stalls_when_skipped) each).
    ///
    /// `now` is the skipped edge itself, or any instant from the last
    /// executed edge before the skipped run to its end: the horizon never
    /// lets a run of skipped edges straddle `next_issue`, so the whole run
    /// lies on one side of it.
    pub fn account_skipped_edges(&mut self, now: Time, edges: u64) {
        if self.stalls_when_skipped(now) {
            self.stats.mem_stall_cycles += edges;
        }
    }

    /// Whether the core is spinning (see the module docs). A spinning core
    /// must not be ticked; [`catch_up`](Core::catch_up) advances it.
    pub fn is_spinning(&self) -> bool {
        self.spin.is_some()
    }

    /// Ends a spin (or drops a half-confirmed one). The core must have been
    /// caught up to the edge before the one at which it is next ticked.
    pub fn forget_spin(&mut self) {
        self.spin = None;
        self.probe = None;
    }

    /// Counters a spinning iteration never moves: misses, stores, AMOs,
    /// MMIO, stalls and L1 invalidations (all monotone, so their sum is
    /// unchanged only if each one is).
    fn disturbances(&self) -> u64 {
        let (s, l1) = (&self.stats, self.l1.stats());
        s.load_misses + s.stores + s.amos + s.mmio_ops + s.mem_stall_cycles + l1.invalidations
    }

    /// Nothing is buffered, in flight or queued for the tile.
    fn memory_idle(&self) -> bool {
        self.store_buf.is_empty() && self.store_inflight.is_none() && self.out.is_empty()
    }

    /// Called after the branch at `branch` retired taken backward: starts
    /// or confirms a spin when it closes a
    /// [`SpinLoop`](crate::isa::SpinLoop).
    fn back_edge(&mut self, branch: usize) {
        let Some(&shape) = self.program.spin_loop(branch) else {
            return;
        };
        let mut regs = [0; SPIN_WRITES_MAX];
        for (v, &r) in regs.iter_mut().zip(shape.writes()) {
            *v = self.reg(r);
        }
        let disturbances = self.disturbances();
        let idle = self.memory_idle();
        if let Some(p) = self.probe.filter(|p| p.branch == branch) {
            if idle && p.disturbances == disturbances && p.regs == regs {
                self.probe = None;
                self.spin = Some(Spin {
                    anchor: self.next_issue,
                    period: self.next_issue - p.at,
                    insts: self.stats.instret - p.instret,
                    hits: self.stats.load_hits - p.load_hits,
                    #[cfg(debug_assertions)]
                    twin: None,
                });
                return;
            }
        }
        self.probe = idle.then_some(SpinProbe {
            branch,
            at: self.next_issue,
            instret: self.stats.instret,
            load_hits: self.stats.load_hits,
            disturbances,
            regs,
        });
    }

    /// Brings a spinning core to where ticking every edge up to and
    /// including `limit` would have left it; a no-op for any other core.
    ///
    /// All but the last whole iteration before `limit` are added
    /// arithmetically — `instret`, `load_hits`, the L1's hit counter and LRU
    /// clock, `next_issue` — and the last whole iteration and the partial
    /// one after it are executed, which rewrites every LRU stamp the loop
    /// touches with the value per-edge ticking would have left. The core
    /// stays spinning.
    pub fn catch_up(&mut self, limit: Time) {
        let Some(mut spin) = self.spin.take() else {
            return;
        };
        #[cfg(debug_assertions)]
        if spin.twin.is_none() {
            // Nothing touches a spinning core before its first catch-up, so
            // this is still the core that confirmed the spin. Edges before
            // the anchor only find it waiting for `next_issue`.
            let before_anchor = spin.anchor - Time::from_ps(1);
            spin.twin = Some(Box::new((self.clone(), before_anchor)));
        }
        while self.next_issue <= limit {
            if self.next_issue == spin.anchor {
                // At the loop head: skip to one whole iteration before the
                // last iteration that starts by `limit`.
                let starts = (limit - spin.anchor).as_ps() / spin.period.as_ps();
                if starts >= 2 {
                    let k = starts - 1;
                    spin.anchor += spin.period.mul(k);
                    self.next_issue = spin.anchor;
                    self.stats.instret += spin.insts * k;
                    self.stats.load_hits += spin.hits * k;
                    self.l1.credit_hits(spin.hits * k);
                }
            }
            let issued = self.next_issue;
            self.tick(issued);
            assert!(self.next_issue > issued, "a spinning core stalled");
            if self.next_issue == spin.anchor + spin.period {
                spin.anchor = self.next_issue;
            }
        }
        #[cfg(debug_assertions)]
        if let Some(twin) = spin.twin.as_deref_mut() {
            twin.0.replay_edges(&mut twin.1, limit);
            assert_eq!(
                snap_bytes(&twin.0),
                snap_bytes(self),
                "core {}: catch-up to {limit:?} differs from ticking every edge",
                self.cfg.hart_id
            );
        }
        self.spin = Some(spin);
    }

    /// Debug builds: ticks every edge after `*last` up to `limit`.
    #[cfg(debug_assertions)]
    fn replay_edges(&mut self, last: &mut Time, limit: Time) {
        loop {
            let edge = self.cfg.clock.next_edge_after(*last);
            if edge > limit {
                break;
            }
            self.tick(edge);
            *last = edge;
        }
    }

    /// Advances the core by one clock edge.
    pub fn tick(&mut self, now: Time) {
        // A ticked core is awake: a spin mark it still carries was never
        // acted on (edge skipping is off) and no longer describes it.
        self.spin = None;
        self.pump_store_buffer();
        match self.wait {
            Wait::Halted => return,
            Wait::Load(..) | Wait::Amo(..) | Wait::MmioLoad(..) | Wait::MmioStore(..) => {
                self.stats.mem_stall_cycles += 1;
                return;
            }
            Wait::Drain => {
                if self.drain_needed() {
                    self.stats.mem_stall_cycles += 1;
                    return;
                }
                self.wait = Wait::None;
            }
            Wait::None => {}
        }
        if now < self.next_issue {
            return;
        }
        let Some(inst) = self.program.fetch(self.pc) else {
            // Running off the end halts the core (defensive).
            self.halted = true;
            self.wait = Wait::Halted;
            return;
        };
        let period = self.cfg.clock.period();
        let mut next_pc = self.pc + 1;
        let mut cost = inst.cost();
        let mut back_edge = false;
        match inst {
            Inst::Alu { op, rd, rs1, rs2 } => {
                let v = alu(op, self.reg(rs1), self.reg(rs2));
                self.write_reg(rd, v);
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                let v = alu(op, self.reg(rs1), imm as u64);
                self.write_reg(rd, v);
            }
            Inst::Li { rd, imm } => self.write_reg(rd, imm as u64),
            Inst::Load {
                width,
                signed,
                rd,
                base,
                off,
            } => {
                let addr = self.reg(base).wrapping_add(off as u64);
                if self.is_mmio(addr) {
                    if self.drain_needed() {
                        self.wait = Wait::Drain;
                        return; // retry this instruction after the drain
                    }
                    let id = self.alloc_id();
                    self.stats.mmio_ops += 1;
                    self.out.push_back(MemReq::load(id, addr, width));
                    self.wait = Wait::MmioLoad(id, rd, width, signed);
                } else {
                    let line = LineAddr::containing(addr);
                    if self.store_buf_conflicts(line)
                        || (self.store_inflight.is_some() && self.drain_needed_for(line))
                    {
                        self.stats.mem_stall_cycles += 1;
                        return; // retry next cycle
                    }
                    match self.l1.load(addr, width) {
                        Some(raw) => {
                            self.stats.load_hits += 1;
                            self.write_reg(rd, extend(raw, width, signed));
                            cost = cost.max(self.cfg.l1.hit_cycles);
                        }
                        None => {
                            self.stats.load_misses += 1;
                            let id = self.alloc_id();
                            self.out.push_back(MemReq::load_line(id, line.base()));
                            self.wait = Wait::Load(id, rd, width, signed, addr);
                        }
                    }
                }
            }
            Inst::Store {
                width,
                src,
                base,
                off,
            } => {
                let addr = self.reg(base).wrapping_add(off as u64);
                let value = self.reg(src) & width.mask();
                if self.is_mmio(addr) {
                    if self.drain_needed() {
                        self.wait = Wait::Drain;
                        return;
                    }
                    let id = self.alloc_id();
                    self.stats.mmio_ops += 1;
                    self.out.push_back(MemReq::store(id, addr, width, value));
                    self.wait = Wait::MmioStore(id);
                } else {
                    if self.store_buf.len() >= self.cfg.store_buffer {
                        self.stats.mem_stall_cycles += 1;
                        return; // retry next cycle
                    }
                    self.stats.stores += 1;
                    self.l1.store(addr, width, value);
                    let id = self.alloc_id();
                    self.store_buf
                        .push_back(MemReq::store(id, addr, width, value));
                }
            }
            Inst::Amo {
                op,
                width,
                rd,
                base,
                src,
                expected,
            } => {
                if self.drain_needed() {
                    self.wait = Wait::Drain;
                    return;
                }
                let addr = self.reg(base);
                let id = self.alloc_id();
                self.stats.amos += 1;
                // The L2 performs the read-modify-write; invalidate our L1
                // copy so subsequent loads refetch the updated line.
                self.l1.invalidate(LineAddr::containing(addr));
                self.out.push_back(MemReq::amo(
                    id,
                    op,
                    addr,
                    width,
                    self.reg(src),
                    self.reg(expected),
                ));
                self.wait = Wait::Amo(id, rd);
            }
            Inst::Fence => {
                if self.drain_needed() {
                    self.wait = Wait::Drain;
                    return;
                }
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                if branch_taken(cond, self.reg(rs1), self.reg(rs2)) {
                    next_pc = target;
                    cost += self.cfg.taken_branch_penalty;
                    back_edge = target <= self.pc;
                } else if self.probe.is_some_and(|p| p.branch == self.pc) {
                    self.probe = None; // the loop exited
                }
            }
            Inst::Jal { rd, target } => {
                self.write_reg(rd, (self.pc + 1) as u64);
                next_pc = target;
                cost += self.cfg.taken_branch_penalty;
            }
            Inst::Jalr { rd, base, off } => {
                let target = self.reg(base).wrapping_add(off as u64) as usize;
                self.write_reg(rd, (self.pc + 1) as u64);
                next_pc = target;
                cost += self.cfg.taken_branch_penalty;
            }
            Inst::Fp { op, rd, rs1, rs2 } => {
                let a = f64::from_bits(self.reg(rs1));
                let b = f64::from_bits(self.reg(rs2));
                let v = match op {
                    FpOp::Add => a + b,
                    FpOp::Sub => a - b,
                    FpOp::Mul => a * b,
                    FpOp::Div => a / b,
                    FpOp::Sqrt => a.sqrt(),
                    FpOp::Min => a.min(b),
                    FpOp::Max => a.max(b),
                };
                self.write_reg(rd, v.to_bits());
            }
            Inst::FpCmp { cmp, rd, rs1, rs2 } => {
                let a = f64::from_bits(self.reg(rs1));
                let b = f64::from_bits(self.reg(rs2));
                let v = match cmp {
                    FpCmp::Lt => a < b,
                    FpCmp::Le => a <= b,
                    FpCmp::Eq => a == b,
                };
                self.write_reg(rd, u64::from(v));
            }
            Inst::I2F { rd, rs1 } => {
                let v = self.reg(rs1) as i64 as f64;
                self.write_reg(rd, v.to_bits());
            }
            Inst::F2I { rd, rs1 } => {
                let v = f64::from_bits(self.reg(rs1));
                self.write_reg(rd, v as i64 as u64);
            }
            Inst::CoreId { rd } => self.write_reg(rd, self.cfg.hart_id),
            Inst::RdCycle { rd } => self.write_reg(rd, self.cfg.clock.cycles_at(now)),
            Inst::Nop => {}
            Inst::Halt => {
                self.halted = true;
                self.wait = Wait::Halted;
                self.stats.instret += 1;
                return;
            }
        }
        self.stats.instret += 1;
        let pc = std::mem::replace(&mut self.pc, next_pc);
        self.next_issue = now + period.mul(u64::from(cost));
        if back_edge {
            self.back_edge(pc);
        }
    }

    /// Whether a load to `line` must wait for the in-flight store (same
    /// line only; loads may pass stores to other lines, as in TSO).
    fn drain_needed_for(&self, _line: LineAddr) -> bool {
        // The in-flight store's address is no longer in the buffer; being
        // conservative only about buffered stores keeps TSO load->load and
        // store->store order while letting loads pass unrelated stores.
        false
    }
}

duet_sim::pack_struct!(Reg { 0 }
    check |r| duet_sim::snapshot::ensure(r.0 < 32, "register index out of range"));
duet_sim::pack_enum!(Wait {
    0 => None,
    1 => Load(id, rd, width, signed, addr),
    2 => Amo(id, rd),
    3 => MmioLoad(id, rd, width, signed),
    4 => MmioStore(id),
    5 => Drain,
    6 => Halted,
});
duet_sim::pack_struct!(CoreStats {
    instret,
    load_misses,
    load_hits,
    stores,
    amos,
    mmio_ops,
    mem_stall_cycles
});
// The program is identified by the owning system's config, not serialized;
// everything architectural and micro-architectural is. Spin state is
// derived: a restored core re-detects its spin.
duet_sim::snap_fields!(Core {
    regs,
    pc,
    next_issue,
    wait,
    store_buf,
    store_inflight,
    next_id,
    out,
    l1,
    stats,
    halted,
    last_breakdown,
    fill_poisoned
} check |c| {
    c.forget_spin();
    Ok(())
});

/// A core's snapshot bytes, for the catch-up replay check.
#[cfg(any(test, debug_assertions))]
fn snap_bytes(core: &Core) -> Vec<u8> {
    let mut w = duet_sim::SnapWriter::new();
    duet_sim::Snap::save(core, &mut w);
    w.finish()
}

impl duet_sim::Component for Core {
    fn name(&self) -> String {
        format!("core{}", self.cfg.hart_id)
    }

    fn tick(&mut self, now: Time) {
        Core::tick(self, now);
    }

    fn next_event_time(&self, now: Time) -> Option<Time> {
        Core::next_event_time(self, now)
    }
}

fn extend(raw: u64, width: Width, signed: bool) -> u64 {
    if !signed || width == Width::B8 {
        return raw & width.mask();
    }
    let bits = width.bytes() * 8;
    let shift = 64 - bits;
    (((raw << shift) as i64) >> shift) as u64
}

fn alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => a.wrapping_shl(b as u32 & 63),
        AluOp::Srl => a.wrapping_shr(b as u32 & 63),
        AluOp::Sra => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
        AluOp::Slt => u64::from((a as i64) < (b as i64)),
        AluOp::Sltu => u64::from(a < b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                u64::MAX
            } else {
                ((a as i64).wrapping_div(b as i64)) as u64
            }
        }
        AluOp::Rem => {
            if b == 0 {
                a
            } else {
                ((a as i64).wrapping_rem(b as i64)) as u64
            }
        }
        AluOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
        AluOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

fn branch_taken(cond: Cond, a: u64, b: u64) -> bool {
    match cond {
        Cond::Eq => a == b,
        Cond::Ne => a != b,
        Cond::Lt => (a as i64) < (b as i64),
        Cond::Ge => (a as i64) >= (b as i64),
        Cond::Ltu => a < b,
        Cond::Geu => a >= b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::isa::regs;
    use duet_mem::types::MemOp;
    use std::collections::BTreeMap;

    /// Instant functional memory with a fixed response delay, for testing
    /// the core in isolation.
    struct TestMem {
        data: BTreeMap<u64, u8>,
        delay_cycles: u64,
        inflight: Vec<(Time, MemResp)>,
    }

    impl TestMem {
        fn new() -> Self {
            TestMem {
                data: BTreeMap::new(),
                delay_cycles: 3,
                inflight: Vec::new(),
            }
        }

        fn read_line(&self, base: u64) -> [u8; 16] {
            let mut line = [0u8; 16];
            for (i, b) in line.iter_mut().enumerate() {
                *b = self.data.get(&(base + i as u64)).copied().unwrap_or(0);
            }
            line
        }

        fn write_scalar(&mut self, addr: u64, width: Width, v: u64) {
            for i in 0..width.bytes() {
                self.data.insert(addr + i as u64, (v >> (8 * i)) as u8);
            }
        }

        fn read_scalar(&self, addr: u64, width: Width) -> u64 {
            let mut v = 0u64;
            for i in 0..width.bytes() {
                v |= u64::from(self.data.get(&(addr + i as u64)).copied().unwrap_or(0)) << (8 * i);
            }
            v
        }

        fn service(&mut self, now: Time, req: MemReq) {
            let ready = now + Time::from_ps(1000 * self.delay_cycles);
            let resp = match req.op {
                MemOp::LoadLine | MemOp::IFetch => MemResp {
                    id: req.id,
                    rdata: 0,
                    line: Some(self.read_line(req.addr & !0xF)),
                    cacheable: true,
                    breakdown: Default::default(),
                },
                MemOp::Load(w) => MemResp {
                    id: req.id,
                    rdata: self.read_scalar(req.addr, w),
                    line: None,
                    cacheable: true,
                    breakdown: Default::default(),
                },
                MemOp::Store(w) => {
                    self.write_scalar(req.addr, w, req.wdata);
                    MemResp {
                        id: req.id,
                        rdata: 0,
                        line: None,
                        cacheable: true,
                        breakdown: Default::default(),
                    }
                }
                MemOp::Amo(op, w) => {
                    let mut line = self.read_line(req.addr & !0xF);
                    let old = duet_mem::types::apply_amo(
                        &mut line,
                        (req.addr & 0xF) as usize,
                        w,
                        op,
                        req.wdata,
                        req.expected,
                    );
                    for (i, b) in line.iter().enumerate() {
                        self.data.insert((req.addr & !0xF) + i as u64, *b);
                    }
                    MemResp {
                        id: req.id,
                        rdata: old,
                        line: None,
                        cacheable: true,
                        breakdown: Default::default(),
                    }
                }
            };
            self.inflight.push((ready, resp));
        }

        fn deliver(&mut self, now: Time, core: &mut Core) {
            let ready: Vec<usize> = self
                .inflight
                .iter()
                .enumerate()
                .filter(|(_, (t, _))| *t <= now)
                .map(|(i, _)| i)
                .collect();
            for i in ready.into_iter().rev() {
                let (_, resp) = self.inflight.remove(i);
                core.mem_response(resp);
            }
        }
    }

    /// Runs a program to completion, returning (cycles, core, mem).
    fn run(asm: Asm, setup: impl FnOnce(&mut Core, &mut TestMem)) -> (u64, Core, TestMem) {
        let prog = Arc::new(asm.assemble().unwrap());
        let clock = Clock::ghz1();
        let mut core = Core::new(CoreConfig::dolly(clock, 0), prog);
        let mut mem = TestMem::new();
        setup(&mut core, &mut mem);
        let mut cycles = 0u64;
        let mut now = Time::ZERO;
        while !core.is_halted() {
            now = clock.next_edge_after(now);
            mem.deliver(now, &mut core);
            core.tick(now);
            while let Some(req) = core.pop_mem_request() {
                mem.service(now, req);
            }
            cycles += 1;
            assert!(cycles < 1_000_000, "program did not halt");
        }
        (cycles, core, mem)
    }

    #[test]
    fn arithmetic_loop_sums() {
        let mut a = Asm::new();
        let (n, acc, i) = (regs::A[0], regs::T[0], regs::T[1]);
        a.li(acc, 0);
        a.li(i, 0);
        a.label("loop");
        a.add(acc, acc, i);
        a.addi(i, i, 1);
        a.blt(i, n, "loop");
        a.halt();
        let (_, core, _) = run(a, |c, _| c.set_reg(regs::A[0], 10));
        assert_eq!(core.reg(regs::T[0]), 45);
    }

    #[test]
    fn store_then_load_roundtrip_through_memory() {
        let mut a = Asm::new();
        let (addr, v, out) = (regs::T[0], regs::T[1], regs::T[2]);
        a.li(addr, 0x1000);
        a.li(v, 0xDEAD);
        a.sd(v, addr, 0);
        a.fence();
        a.ld(out, addr, 0);
        a.halt();
        let (_, core, mem) = run(a, |_, _| {});
        assert_eq!(core.reg(regs::T[2]), 0xDEAD);
        assert_eq!(mem.read_scalar(0x1000, Width::B8), 0xDEAD);
    }

    #[test]
    fn load_miss_stalls_then_hits() {
        let mut a = Asm::new();
        let (addr, x, y) = (regs::T[0], regs::T[1], regs::T[2]);
        a.li(addr, 0x2000);
        a.ld(x, addr, 0); // miss
        a.ld(y, addr, 8); // same line: L1 hit
        a.halt();
        let (_, core, _) = run(a, |_, m| {
            m.write_scalar(0x2000, Width::B8, 7);
            m.write_scalar(0x2008, Width::B8, 9);
        });
        assert_eq!(core.reg(regs::T[1]), 7);
        assert_eq!(core.reg(regs::T[2]), 9);
        assert_eq!(core.stats().load_misses, 1);
        assert_eq!(core.stats().load_hits, 1);
    }

    #[test]
    fn signed_loads_extend() {
        let mut a = Asm::new();
        a.li(regs::T[0], 0x3000);
        a.lw(regs::T[1], regs::T[0], 0);
        a.lwu(regs::T[2], regs::T[0], 0);
        a.halt();
        let (_, core, _) = run(a, |_, m| {
            m.write_scalar(0x3000, Width::B4, 0xFFFF_FFFF);
        });
        assert_eq!(core.reg(regs::T[1]), u64::MAX, "lw sign-extends");
        assert_eq!(core.reg(regs::T[2]), 0xFFFF_FFFF, "lwu zero-extends");
    }

    #[test]
    fn function_call_with_stack() {
        // f(x) = x*2, called twice via the stack.
        let mut a = Asm::new();
        a.li(Reg::SP, 0x8000);
        a.li(regs::A[0], 21);
        a.call("f");
        a.mv(regs::S[0], regs::A[0]);
        a.li(regs::A[0], 4);
        a.call("f");
        a.add(regs::A[0], regs::A[0], regs::S[0]);
        a.halt();
        a.label("f");
        a.addi(Reg::SP, Reg::SP, -8);
        a.sd(Reg::RA, Reg::SP, 0);
        a.add(regs::A[0], regs::A[0], regs::A[0]);
        a.ld(Reg::RA, Reg::SP, 0);
        a.addi(Reg::SP, Reg::SP, 8);
        a.ret();
        let (_, core, _) = run(a, |_, _| {});
        assert_eq!(core.reg(regs::A[0]), 50);
    }

    #[test]
    fn amo_add_is_atomic_rmw() {
        let mut a = Asm::new();
        a.li(regs::T[0], 0x4000);
        a.li(regs::T[1], 5);
        a.amoadd(regs::T[2], regs::T[0], regs::T[1]);
        a.halt();
        let (_, core, mem) = run(a, |_, m| m.write_scalar(0x4000, Width::B8, 10));
        assert_eq!(core.reg(regs::T[2]), 10, "AMO returns old value");
        assert_eq!(mem.read_scalar(0x4000, Width::B8), 15);
    }

    #[test]
    fn cas_success_and_failure() {
        let mut a = Asm::new();
        a.li(regs::T[0], 0x5000);
        a.li(regs::T[1], 0); // expected
        a.li(regs::T[2], 1); // new
        a.cas(regs::T[3], regs::T[0], regs::T[1], regs::T[2]);
        a.cas(regs::T[4], regs::T[0], regs::T[1], regs::T[2]); // now fails
        a.halt();
        let (_, core, mem) = run(a, |_, _| {});
        assert_eq!(core.reg(regs::T[3]), 0, "first CAS sees 0 (success)");
        assert_eq!(core.reg(regs::T[4]), 1, "second CAS sees 1 (failure)");
        assert_eq!(mem.read_scalar(0x5000, Width::B8), 1);
    }

    #[test]
    fn mmio_store_blocks_until_ack() {
        let mut a = Asm::new();
        a.li(regs::T[0], 0x4000_0000u64 as i64);
        a.li(regs::T[1], 7);
        a.sd(regs::T[1], regs::T[0], 0);
        a.halt();
        let (cycles, core, _) = run(a, |_, _| {});
        assert_eq!(core.stats().mmio_ops, 1);
        // 3 instructions + ~delay cycles of blocking: more than 4 cycles.
        assert!(cycles >= 5, "MMIO store must block: {cycles} cycles");
    }

    #[test]
    fn taken_branch_pays_penalty() {
        // Loop of N taken branches vs straightline: cycle gap shows penalty.
        let mut a = Asm::new();
        let i = regs::T[0];
        a.li(i, 0);
        a.label("l");
        a.addi(i, i, 1);
        a.slti(regs::T[1], i, 100);
        a.bnez(regs::T[1], "l");
        a.halt();
        let (cycles, _, _) = run(a, |_, _| {});
        // 100 iterations * (3 insts + 2 penalty) ≈ 500.
        assert!(cycles > 400, "taken-branch penalty missing: {cycles}");
    }

    #[test]
    fn coreid_reads_hart() {
        let mut a = Asm::new();
        a.coreid(regs::T[0]);
        a.halt();
        let prog = Arc::new(a.assemble().unwrap());
        let mut core = Core::new(CoreConfig::dolly(Clock::ghz1(), 3), prog);
        let mut now = Time::ZERO;
        while !core.is_halted() {
            now = Clock::ghz1().next_edge_after(now);
            core.tick(now);
        }
        assert_eq!(core.reg(regs::T[0]), 3);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut a = Asm::new();
        a.li(Reg::ZERO, 99);
        a.mv(regs::T[0], Reg::ZERO);
        a.halt();
        let (_, core, _) = run(a, |_, _| {});
        assert_eq!(core.reg(regs::T[0]), 0);
    }

    #[test]
    fn fp_pipeline_computes() {
        let mut a = Asm::new();
        a.lfd(regs::T[0], 2.0);
        a.lfd(regs::T[1], 8.0);
        a.fmul(regs::T[2], regs::T[0], regs::T[1]);
        a.fsqrt(regs::T[3], regs::T[2]);
        a.fcmplt(regs::T[4], regs::T[0], regs::T[1]);
        a.halt();
        let (_, core, _) = run(a, |_, _| {});
        assert_eq!(f64::from_bits(core.reg(regs::T[2])), 16.0);
        assert_eq!(f64::from_bits(core.reg(regs::T[3])), 4.0);
        assert_eq!(core.reg(regs::T[4]), 1);
    }

    /// A core with a one-deep store buffer running `li/li`, three stores to
    /// distinct lines with a 3-cycle `mul` before the third, then `halt`.
    /// Requests are popped but never answered, so from the third store on
    /// the buffer is full with a store in flight. `base` selects cached or
    /// MMIO space for the third store.
    fn store_stream_core(third_store_base: u64) -> Core {
        let mut a = Asm::new();
        a.li(regs::T[0], 0x6000);
        a.li(regs::T[2], third_store_base as i64);
        a.sd(regs::T[1], regs::T[0], 0);
        a.sd(regs::T[1], regs::T[0], 64);
        a.mul(regs::T[3], regs::T[1], regs::T[1]);
        a.sd(regs::T[1], regs::T[2], 128);
        a.halt();
        let mut cfg = CoreConfig::dolly(Clock::ghz1(), 0);
        cfg.store_buffer = 1;
        Core::new(cfg, Arc::new(a.assemble().unwrap()))
    }

    fn edge(n: u64) -> Time {
        Time::from_ps(1000 * n)
    }

    /// Ticks through edge `last`, popping (and dropping) every request.
    fn tick_through(core: &mut Core, first: u64, last: u64) {
        for n in first..=last {
            core.tick(edge(n));
            while core.pop_mem_request().is_some() {}
        }
    }

    #[test]
    fn store_blocked_core_sleeps_only_from_next_issue() {
        let mut core = store_stream_core(0x6000);
        // Edges 1-2 `li`, 3-4 the two stores (the first goes in flight at
        // edge 4), 5 `mul`: issue resumes at edge 8, facing the third store
        // with the buffer full.
        tick_through(&mut core, 1, 5);
        assert_eq!(core.next_issue, edge(8));
        assert!(core.store_inflight.is_some() && core.store_buf.len() == 1);
        for n in 5..8 {
            assert_eq!(
                core.next_event_time(edge(n)),
                Some(edge(8)),
                "edge {n}: issue-limited, not yet retrying"
            );
            assert!(!core.stalls_when_skipped(edge(n)));
        }
        for n in 8..12 {
            assert_eq!(core.next_event_time(edge(n)), None, "edge {n}");
            assert!(core.stalls_when_skipped(edge(n)));
        }
        // The acknowledgement is the only way out.
        let id = core.store_inflight.unwrap();
        core.mem_response(MemResp {
            id,
            rdata: 0,
            line: None,
            cacheable: true,
            breakdown: Default::default(),
        });
        assert_eq!(core.next_event_time(edge(12)), Some(edge(12)));
    }

    #[test]
    fn mmio_store_and_store_with_space_are_never_asleep() {
        // Third store to MMIO space: the tick would start a drain (a state
        // change), so the core must stay awake.
        let mut mmio = store_stream_core(0x4000_0000 - 128);
        tick_through(&mut mmio, 1, 7);
        assert!(mmio.store_inflight.is_some() && mmio.store_buf.len() == 1);
        assert_eq!(mmio.next_event_time(edge(8)), Some(edge(8)));
        mmio.tick(edge(8));
        assert_eq!(mmio.wait, Wait::Drain);

        // Buffer space: the store issues, whatever is in flight.
        let mut roomy = store_stream_core(0x6000);
        roomy.cfg.store_buffer = 2;
        tick_through(&mut roomy, 1, 7);
        assert!(roomy.store_inflight.is_some() && roomy.store_buf.len() == 1);
        assert_eq!(roomy.next_event_time(edge(8)), Some(edge(8)));
        roomy.tick(edge(8));
        assert_eq!(roomy.store_buf.len(), 2);
    }

    #[test]
    fn accounting_skipped_edges_matches_ticking_them() {
        // Lockstep: `ticked` ticks every edge; `gated` ticks only when due
        // and accounts the edge otherwise. Every statistic must agree on
        // every edge, through the issue-limited gap, the blocked stretch,
        // and the wake-up.
        let mut ticked = store_stream_core(0x6000);
        let mut gated = ticked.clone();
        let mut skipped = 0;
        for n in 1..=40 {
            let now = edge(n);
            if n == 20 {
                for core in [&mut ticked, &mut gated] {
                    let id = core.store_inflight.unwrap();
                    core.mem_response(MemResp {
                        id,
                        rdata: 0,
                        line: None,
                        cacheable: true,
                        breakdown: Default::default(),
                    });
                }
            }
            ticked.tick(now);
            while ticked.pop_mem_request().is_some() {}
            if gated.next_event_time(now).is_none_or(|t| t > now) {
                gated.account_skipped_edges(now, 1);
                skipped += 1;
            } else {
                gated.tick(now);
                while gated.pop_mem_request().is_some() {}
            }
            let (a, b) = (ticked.stats(), gated.stats());
            assert_eq!(
                (a.mem_stall_cycles, a.instret, a.stores, ticked.pc),
                (b.mem_stall_cycles, b.instret, b.stores, gated.pc),
                "edge {n}"
            );
        }
        assert!(skipped >= 12, "the blocked stretch was skipped, not ticked");

        // One bulk call equals that many single edges.
        let mut bulk = store_stream_core(0x6000);
        tick_through(&mut bulk, 1, 8);
        let mut single = bulk.clone();
        bulk.account_skipped_edges(edge(9), 11);
        tick_through(&mut single, 9, 19);
        assert_eq!(
            bulk.stats().mem_stall_cycles,
            single.stats().mem_stall_cycles
        );
    }

    #[test]
    fn store_buffer_allows_overlap() {
        // Stores to distinct lines shouldn't serialize the pipeline stall
        // for each one (write-through buffered).
        let mut a = Asm::new();
        a.li(regs::T[0], 0x6000);
        for k in 0..4 {
            a.li(regs::T[1], k);
            a.sd(regs::T[1], regs::T[0], k * 64);
        }
        a.halt();
        let (cycles, core, _) = run(a, |_, _| {});
        assert_eq!(core.stats().stores, 4);
        // 9 instructions + drain; far less than 4 * blocking-delay.
        assert!(cycles < 40, "store buffer not overlapping: {cycles}");
    }

    /// Ticks edge `n`, with `mem` answering and taking requests around it.
    fn tick_with(core: &mut Core, mem: &mut TestMem, n: u64) {
        mem.deliver(edge(n), core);
        core.tick(edge(n));
        while let Some(req) = core.pop_mem_request() {
            mem.service(edge(n), req);
        }
    }

    /// A core spinning `ld t1, 8(t0); bnez t1` on a line holding 1, with
    /// `extra` spliced into the loop body.
    fn spin_core(extra: impl FnOnce(&mut Asm)) -> (Core, TestMem) {
        let mut a = Asm::new();
        a.li(regs::T[0], 0x6000);
        a.li(regs::T[4], 0x4000_0000);
        a.label("spin");
        a.ld(regs::T[1], regs::T[0], 8);
        extra(&mut a);
        a.bnez(regs::T[1], "spin");
        a.halt();
        let mut mem = TestMem::new();
        mem.write_scalar(0x6008, Width::B8, 1);
        mem.write_scalar(0x4000_0000, Width::B8, 1);
        let core = Core::new(
            CoreConfig::dolly(Clock::ghz1(), 0),
            Arc::new(a.assemble().unwrap()),
        );
        (core, mem)
    }

    #[test]
    fn spin_is_confirmed_after_one_whole_quiet_iteration() {
        let (mut core, mut mem) = spin_core(|_| {});
        let mut takes = 0;
        for n in 1..100 {
            let pc = core.pc;
            tick_with(&mut core, &mut mem, n);
            if pc == 3 && core.pc == 2 {
                takes += 1;
                // The first take follows the iteration whose load missed;
                // the second follows a whole quiet one.
                assert_eq!(core.is_spinning(), takes == 2, "take {takes}");
                if takes == 2 {
                    let spin = core.spin.as_ref().unwrap();
                    // `ld` (1 cycle) + taken `bnez` (1 + 2 cycles).
                    assert_eq!(spin.period, Time::from_ps(4000));
                    assert_eq!((spin.insts, spin.hits), (2, 1));
                    assert_eq!(core.next_event_time(edge(n)), None);
                    assert_eq!(core.stats().load_misses, 1);
                    return;
                }
            }
        }
        panic!("spin never confirmed");
    }

    #[test]
    fn spin_is_never_confirmed_with_side_effects() {
        type Extra = fn(&mut Asm);
        let cases: [(&str, Extra); 9] = [
            ("store", |a| a.sd(regs::T[1], regs::T[0], 0)),
            ("AMO", |a| a.amoadd(regs::T[2], regs::T[0], regs::T[1])),
            ("fence", |a| a.fence()),
            ("MMIO load", |a| a.ld(regs::T[3], regs::T[4], 0)),
            ("rdcycle", |a| a.rdcycle(regs::T[3])),
            ("jal", |a| {
                a.j("next");
                a.label("next");
            }),
            ("jalr", |a| {
                a.call("next");
                a.label("next");
            }),
            ("counted", |a| a.addi(regs::T[2], regs::T[2], 1)),
            // Eligible as far as the table can tell; the registers decide.
            ("counted by a register", |a| {
                a.add(regs::T[2], regs::T[2], regs::T[1])
            }),
        ];
        for (what, extra) in cases {
            let (mut core, mut mem) = spin_core(extra);
            for n in 1..400 {
                tick_with(&mut core, &mut mem, n);
                assert!(!core.is_spinning(), "{what}: confirmed at edge {n}");
            }
            assert!(core.stats().instret > 50, "{what}: the loop must run");
        }
    }

    #[test]
    fn spin_is_not_confirmed_across_a_missing_load() {
        let (mut core, mut mem) = spin_core(|_| {});
        let mut n = 0;
        let mut take = |core: &mut Core, mem: &mut TestMem| loop {
            n += 1;
            let pc = core.pc;
            tick_with(core, mem, n);
            if pc == 3 && core.pc == 2 {
                return;
            }
        };
        take(&mut core, &mut mem);
        assert!(core.probe.is_some() && !core.is_spinning());
        // The line goes between two takes: the next iteration misses.
        core.back_invalidate(LineAddr::containing(0x6008));
        take(&mut core, &mut mem);
        assert!(
            !core.is_spinning(),
            "an iteration with a miss confirms nothing"
        );
        take(&mut core, &mut mem);
        assert!(core.is_spinning(), "the next quiet iteration confirms");
        assert_eq!(core.stats().load_misses, 2);
    }

    /// A random spin-loop body of up to [`SPIN_BODY_MAX`] instructions:
    /// ALU ops, `Li`, `CoreId`, `Nop`, loads through the fixed base
    /// registers `S[0..2]` and forward branches inside the body, closed by
    /// an always-taken branch back to the head. Bodies whose registers do
    /// not settle into a fixed point are fine: they never confirm.
    fn random_spin_body(rng: &mut duet_sim::SimRng) -> Program {
        use crate::isa::SPIN_BODY_MAX;
        let temps = [regs::T[0], regs::T[1], regs::T[2], regs::A[0], regs::A[1]];
        let inputs = [regs::S[0], regs::S[1], regs::S[2], regs::S[3]];
        let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
        let len = 2 + pick(SPIN_BODY_MAX - 1);
        let branch = len - 1;
        let ops = [
            AluOp::Add,
            AluOp::Xor,
            AluOp::Sll,
            AluOp::Slt,
            AluOp::Mul,
            AluOp::Remu,
        ];
        let conds = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Geu];
        let mut insts = Vec::new();
        for j in 0..branch {
            let any = |k: usize| [temps[k % 5], inputs[k % 4]][k % 2];
            let rd = temps[pick(5)];
            insts.push(match pick(8) {
                0 => Inst::Li {
                    rd,
                    imm: pick(100) as i64,
                },
                // (`addi r, r, c` would make a counted loop: see `SpinLoop`.)
                1 => Inst::AluImm {
                    op: ops[1 + pick(5)],
                    rd,
                    rs1: any(pick(9)),
                    imm: pick(7) as i64,
                },
                2 => Inst::Alu {
                    op: ops[pick(6)],
                    rd,
                    rs1: any(pick(9)),
                    rs2: any(pick(9)),
                },
                3 => Inst::CoreId { rd },
                4 => Inst::Nop,
                5 => Inst::Branch {
                    cond: conds[pick(4)],
                    rs1: any(pick(9)),
                    rs2: any(pick(9)),
                    target: j + 1 + pick(branch - j),
                },
                _ => Inst::Load {
                    width: Width::B8,
                    signed: false,
                    rd,
                    base: inputs[pick(2)],
                    off: 8 * pick(2) as i64,
                },
            });
        }
        insts.push(Inst::Branch {
            cond: Cond::Eq,
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
            target: 0,
        });
        insts.push(Inst::Halt);
        let p = Program::from_parts(insts, Default::default());
        assert!(
            p.spin_loop(branch).is_some(),
            "generated body must be eligible"
        );
        p
    }

    #[test]
    fn catch_up_equals_ticking_every_edge_over_random_spin_bodies() {
        let mut rng = duet_sim::SimRng::new(0x5917);
        let (mut confirmed, mut tried) = (0, 0);
        while confirmed < 200 {
            tried += 1;
            assert!(tried < 2000, "too few random bodies reached a spin");
            let prog = Arc::new(random_spin_body(&mut rng));
            let mut core = Core::new(CoreConfig::dolly(Clock::ghz1(), 3), prog);
            let mut mem = TestMem::new();
            for a in (0x7000..0x7040).step_by(8) {
                mem.write_scalar(a, Width::B8, rng.next_u64() % 5);
            }
            for (k, r) in [regs::S[0], regs::S[1], regs::S[2], regs::S[3]]
                .into_iter()
                .enumerate()
            {
                core.set_reg(
                    r,
                    if k < 2 {
                        0x7000 + 16 * k as u64
                    } else {
                        rng.next_u64() % 9
                    },
                );
            }
            let Some(at) = (1..600).find(|&n| {
                tick_with(&mut core, &mut mem, n);
                core.is_spinning()
            }) else {
                continue;
            };
            confirmed += 1;
            let period = core.spin.as_ref().unwrap().period.as_ps() / 1000;
            let ticked_to = |d: u64| {
                let mut twin = core.clone();
                for n in at + 1..=at + d {
                    twin.tick(edge(n));
                }
                snap_bytes(&twin)
            };
            // One catch-up from confirmation to every edge of three periods.
            for d in 0..=3 * period {
                let mut c = core.clone();
                c.catch_up(edge(at + d));
                assert!(c.is_spinning());
                assert!(
                    snap_bytes(&c) == ticked_to(d),
                    "body {confirmed}: +{d} edges"
                );
            }
            // Chained catch-ups from arbitrary phases, and a long jump.
            let mut c = core.clone();
            let mut d = 0;
            for _ in 0..8 {
                d += rng.next_u64() % (2 * period + 1);
                c.catch_up(edge(at + d));
                assert!(
                    snap_bytes(&c) == ticked_to(d),
                    "body {confirmed}: chained +{d}"
                );
            }
            d += 40 * period + rng.next_u64() % period;
            c.catch_up(edge(at + d));
            assert!(
                snap_bytes(&c) == ticked_to(d),
                "body {confirmed}: jump to +{d}"
            );
        }
    }
}
