//! The **Control Hub** (Sec. II-E/II-F): FPGA Manager + Soft Register
//! Interface with Shadow Registers.
//!
//! * The **FPGA Manager** programs the eFPGA (bitstream streaming with an
//!   integrity check), generates the eFPGA clock (software-programmable
//!   divider/PLL model), holds the timeout limit, and latches error codes.
//! * The **Soft Register Interface** exposes 32 soft registers over MMIO.
//!   Each register is configured in one of five modes:
//!   [`RegMode::Normal`] (every access round-trips into the fabric),
//!   [`RegMode::ShadowPlain`], [`RegMode::FpgaBound`] (write FIFO),
//!   [`RegMode::CpuBound`] (blocking read FIFO), and [`RegMode::Token`]
//!   (dataless, non-blocking `try_join` FIFO).
//! * **I/O ordering** (Fig. 6c): accesses are processed head-of-line, so a
//!   shadowed access never overtakes an earlier normal access.
//! * When deactivated, the interface "returns bogus data to all processor
//!   accesses so that the system is not halted" — reads complete with
//!   [`BOGUS`].

use std::collections::{BTreeMap, VecDeque};

use duet_fpga::ports::{RegDown, RegUp};
use duet_mem::types::{MemOp, MemReq, MemResp};
use duet_noc::NodeId;
use duet_sim::{merge_min, Clock, ClockDomain, Component, Link, LinkReport, Time};
use duet_trace::{EventKind, Tracer};

use crate::msg::{DuetMsg, IrqCause};

/// Number of soft registers per adapter.
pub const REG_COUNT: usize = 32;

/// Value returned for accesses the hub cannot serve (deactivated interface
/// or timeout).
pub const BOGUS: u64 = 0xDEAD_DEAD_DEAD_DEAD;

/// Control-hub error codes.
pub mod error_codes {
    /// A soft-register access timed out (the accelerator never answered).
    pub const TIMEOUT: u64 = 0x10;
    /// Bitstream integrity check failed.
    pub const BITSTREAM_CORRUPT: u64 = 0x11;
    /// The adapter watchdog fenced a non-progressing accelerator; the
    /// interface is deactivated until software clears the error.
    pub const ACCEL_FENCED: u64 = 0x12;
}

/// MMIO offsets within an adapter's device region.
pub mod mmio_map {
    /// Soft registers: `SOFT_REG_BASE + 8 * r`.
    pub const SOFT_REG_BASE: u64 = 0x0000;
    /// Write `(reg << 8) | mode` to configure a register's mode.
    pub const REG_MODE: u64 = 0x0200;
    /// eFPGA clock frequency in MHz (write to reprogram, read current).
    pub const FPGA_CLOCK_MHZ: u64 = 0x0208;
    /// Write the expected checksum to begin programming.
    pub const BITSTREAM_BEGIN: u64 = 0x0210;
    /// Write the word count (arms the programming engine).
    pub const BITSTREAM_LEN: u64 = 0x0218;
    /// Stream bitstream words here.
    pub const BITSTREAM_DATA: u64 = 0x0220;
    /// Read: 0 idle, 1 programming, 2 done, 3 error.
    pub const BITSTREAM_STATUS: u64 = 0x0228;
    /// Control-hub error code (read).
    pub const ERROR_CODE: u64 = 0x0230;
    /// Write to clear errors and reactivate the soft-register interface.
    pub const CLEAR_ERROR: u64 = 0x0238;
    /// Soft-register timeout limit, in fast-clock cycles.
    pub const TIMEOUT_LIMIT: u64 = 0x0240;
    /// Write to pulse the accelerator reset.
    pub const ACCEL_RESET: u64 = 0x0248;
    /// Write to set the interface active state (1 active, 0 deactivated).
    pub const INTERFACE_ACTIVE: u64 = 0x0250;
    /// Per-hub regions: `HUB_BASE + hub * HUB_STRIDE + offset`.
    pub const HUB_BASE: u64 = 0x0400;
    /// Stride between hub regions.
    pub const HUB_STRIDE: u64 = 0x100;
    /// Hub: VPN latch for a TLB refill.
    pub const HUB_TLB_VPN: u64 = 0x00;
    /// Hub: write `ppn | perms` to insert the latched mapping
    /// (bit 63 = writable, bit 62 = readable).
    pub const HUB_TLB_PPN: u64 = 0x08;
    /// Hub: feature switches (bit0 active, bit1 fwd_inv, bit2 tlb,
    /// bit3 atomics).
    pub const HUB_SWITCHES: u64 = 0x10;
    /// Hub: error code (read).
    pub const HUB_ERROR: u64 = 0x18;
    /// Hub: kill the accelerator's faulting access.
    pub const HUB_KILL: u64 = 0x20;
    /// Hub: clear error + reactivate.
    pub const HUB_CLEAR: u64 = 0x28;
    /// Total size of the device region.
    pub const REGION_SIZE: u64 = 0x1000;
}

/// Operating mode of one soft register (Sec. II-F).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RegMode {
    /// Non-shadowed: every access round-trips into the eFPGA (strict,
    /// non-bufferable semantics — e.g. the CPU/eFPGA barrier idiom).
    #[default]
    Normal = 0,
    /// Plain shadow: writes ack from the fast domain and forward; reads
    /// return the fast-domain copy (kept in sync by fabric pushes).
    ShadowPlain = 1,
    /// FPGA-bound FIFO: writes enqueue toward the fabric, acked as soon as
    /// FIFO space admits them.
    FpgaBound = 2,
    /// CPU-bound FIFO: reads block until the fabric pushes (or time out).
    CpuBound = 3,
    /// CPU-bound token FIFO: dataless, non-blocking; a read consumes a
    /// token (returns 1) or returns 0 for "empty".
    Token = 4,
}

impl RegMode {
    /// Decodes a mode from its MMIO encoding.
    pub fn from_u64(v: u64) -> Option<RegMode> {
        Some(match v {
            0 => RegMode::Normal,
            1 => RegMode::ShadowPlain,
            2 => RegMode::FpgaBound,
            3 => RegMode::CpuBound,
            4 => RegMode::Token,
            _ => return None,
        })
    }
}

/// Bitstream programming engine state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgStatus {
    /// No programming in progress.
    Idle = 0,
    /// Words are being streamed.
    Programming = 1,
    /// Completed with a passing integrity check.
    Done = 2,
    /// Integrity check failed.
    Error = 3,
}

/// Control-hub configuration.
#[derive(Clone, Copy, Debug)]
pub struct ControlHubConfig {
    /// Fast (system) clock.
    pub clock: Clock,
    /// Async-FIFO synchronizer stages.
    pub sync_stages: u32,
    /// Depth of the hub→fabric (down) FIFO — the FPGA-bound FIFO capacity.
    pub down_depth: usize,
    /// Depth of the fabric→hub (up) FIFO.
    pub up_depth: usize,
    /// Default soft-register timeout, fast-clock cycles.
    pub timeout_cycles: u64,
    /// MMIO response latency, fast-clock cycles.
    pub resp_cycles: u32,
}

impl ControlHubConfig {
    /// Dolly-like defaults.
    pub fn dolly(clock: Clock) -> Self {
        ControlHubConfig {
            clock,
            sync_stages: 2,
            down_depth: 8,
            up_depth: 8,
            // Generous default: long-running kernels legitimately hold a
            // blocking CPU-bound read for milliseconds; benchmarks that
            // exercise the timeout set their own limit via MMIO.
            timeout_cycles: 50_000_000,
            resp_cycles: 2,
        }
    }
}

/// Event counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ControlHubStats {
    /// MMIO accesses processed.
    pub mmio_ops: u64,
    /// Accesses served from the fast domain (shadow hits).
    pub shadow_fast: u64,
    /// Accesses that crossed into the fabric (normal mode).
    pub normal_crossings: u64,
    /// Timeouts.
    pub timeouts: u64,
}

#[derive(Clone, Copy, Debug)]
enum WaitSt {
    /// Waiting for a fabric reply to a normal-register transaction.
    NormalTxn {
        txn: u64,
        id: u64,
        reply_to: NodeId,
        started: Time,
    },
    /// Blocking CPU-bound FIFO read.
    CpuBound {
        reg: u8,
        id: u64,
        reply_to: NodeId,
        started: Time,
    },
    /// Waiting for down-FIFO space to accept a shadowed write.
    DownSpace {
        ev: RegDown,
        id: u64,
        reply_to: NodeId,
    },
    /// Waiting for down-FIFO space, then for the fabric's reply (normal
    /// access issued while the FIFO was full).
    DownSpaceThenTxn {
        ev: RegDown,
        txn: u64,
        id: u64,
        reply_to: NodeId,
    },
}

/// The Control Hub. See module docs.
#[derive(Clone)]
pub struct ControlHub {
    cfg: ControlHubConfig,
    node: NodeId,
    modes: [RegMode; REG_COUNT],
    plain: [u64; REG_COUNT],
    cpu_fifo: Vec<VecDeque<u64>>,
    tokens: [u64; REG_COUNT],
    /// Hub→fabric CDC link (the FPGA-bound soft-register FIFO).
    down: Link<RegDown>,
    /// Fabric→hub CDC link.
    up: Link<RegUp>,
    mmio_in: VecDeque<(MemReq, NodeId)>,
    waiting: Option<WaitSt>,
    txn_results: BTreeMap<u64, u64>,
    txn_next: u64,
    /// Outgoing NoC link `(dst, msg)` with per-response ready times.
    out: Link<(NodeId, DuetMsg)>,
    active: bool,
    error_code: u64,
    timeout_cycles: u64,
    // FPGA manager state.
    fpga_clock_mhz: f64,
    pending_clock_mhz: Option<f64>,
    prog_status: ProgStatus,
    prog_expected_checksum: u64,
    prog_remaining: u64,
    prog_acc: u64,
    reset_pulse: bool,
    tlb_vpn_latch: [u64; 8],
    stats: ControlHubStats,
    irqs: VecDeque<IrqCause>,
    /// Trace handle (events: soft-register CDC crossings, both directions).
    tracer: Tracer,
}

impl ControlHub {
    /// Creates a control hub on NoC node `node`, with the eFPGA initially
    /// clocked at `fpga_clock`.
    pub fn new(cfg: ControlHubConfig, node: NodeId, fpga_clock: Clock) -> Self {
        ControlHub {
            cfg,
            node,
            modes: [RegMode::Normal; REG_COUNT],
            plain: [0; REG_COUNT],
            cpu_fifo: (0..REG_COUNT).map(|_| VecDeque::new()).collect(),
            tokens: [0; REG_COUNT],
            down: Link::cdc(cfg.down_depth, cfg.sync_stages, cfg.clock, fpga_clock),
            up: Link::cdc(cfg.up_depth, cfg.sync_stages, fpga_clock, cfg.clock),
            mmio_in: VecDeque::new(),
            waiting: None,
            txn_results: BTreeMap::new(),
            txn_next: 1,
            out: Link::pipe(),
            active: true,
            error_code: 0,
            timeout_cycles: cfg.timeout_cycles,
            fpga_clock_mhz: fpga_clock.freq_mhz(),
            pending_clock_mhz: None,
            prog_status: ProgStatus::Idle,
            prog_expected_checksum: 0,
            prog_remaining: 0,
            prog_acc: 0,
            reset_pulse: false,
            tlb_vpn_latch: [0; 8],
            stats: ControlHubStats::default(),
            irqs: VecDeque::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs the trace handle.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Pushes a downstream register event into the fabric-bound CDC FIFO,
    /// tracing the crossing. Space must already be checked.
    fn push_down(&mut self, now: Time, ev: RegDown) {
        let (a, b) = match ev {
            RegDown::ShadowWrite { reg, value } => (u64::from(reg), value),
            RegDown::ReadReq { txn, reg } => (u64::from(reg), txn),
            RegDown::WriteReq { reg, value, .. } => (u64::from(reg), value),
        };
        self.tracer
            .emit(now.as_ps(), EventKind::AdapterRegDown, a, b);
        self.down.push(now, ev).expect("space checked");
    }

    /// The hub's NoC node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Event counters.
    pub fn stats(&self) -> ControlHubStats {
        self.stats
    }

    /// Configures a register's mode (also available via MMIO).
    pub fn set_reg_mode(&mut self, reg: usize, mode: RegMode) {
        self.modes[reg] = mode;
    }

    /// Current mode of a register.
    pub fn reg_mode(&self, reg: usize) -> RegMode {
        self.modes[reg]
    }

    /// Fabric-side CDC links for building [`duet_fpga::ports::FabricPorts`].
    pub fn fabric_links(&mut self) -> (&mut Link<RegDown>, &mut Link<RegUp>) {
        (&mut self.down, &mut self.up)
    }

    /// Reclocks the fabric-side FIFOs.
    pub fn set_fpga_clock(&mut self, clock: Clock) {
        self.fpga_clock_mhz = clock.freq_mhz();
        self.down.set_consumer_clock(clock);
        self.up.set_producer_clock(clock);
    }

    /// A clock change requested by software, to be applied by the adapter.
    pub fn take_clock_change(&mut self) -> Option<f64> {
        self.pending_clock_mhz.take()
    }

    /// A reset pulse requested by software.
    pub fn take_reset(&mut self) -> bool {
        std::mem::take(&mut self.reset_pulse)
    }

    /// Whether the programming engine is mid-bitstream (hubs must be
    /// deactivated).
    pub fn programming(&self) -> bool {
        self.prog_status == ProgStatus::Programming
    }

    /// Programming engine status.
    pub fn prog_status(&self) -> ProgStatus {
        self.prog_status
    }

    /// Latched error code.
    pub fn error_code(&self) -> u64 {
        self.error_code
    }

    /// Whether an exception is latched.
    pub fn exception_pending(&self) -> bool {
        self.error_code != 0
    }

    /// Pops a pending interrupt.
    pub fn pop_irq(&mut self) -> Option<IrqCause> {
        self.irqs.pop_front()
    }

    /// Queues an incoming MMIO access (`req.addr` is the offset within the
    /// adapter region).
    pub fn mmio_request(&mut self, req: MemReq, reply_to: NodeId) {
        self.mmio_in.push_back((req, reply_to));
    }

    /// Directly queues a response (used by the adapter for hub-region
    /// accesses it decodes itself).
    pub fn respond_now(&mut self, now: Time, id: u64, value: u64, reply_to: NodeId) {
        let ready = now + self.cfg.clock.period().mul(u64::from(self.cfg.resp_cycles));
        self.out.push_at(
            ready,
            (
                reply_to,
                DuetMsg::MmioResp {
                    resp: MemResp {
                        id,
                        rdata: value,
                        line: None,
                        cacheable: false,
                        breakdown: Default::default(),
                    },
                },
            ),
        );
    }

    /// Pops a ready outgoing message.
    pub fn pop_outgoing(&mut self, now: Time) -> Option<(NodeId, DuetMsg)> {
        self.out.pop(now)
    }

    /// Whether fabric-bound input awaits the slow domain: occupancy in the
    /// FPGA-bound down FIFO (its consumer pops on eFPGA edges, so it is
    /// *not* part of [`next_event_time`](ControlHub::next_event_time)'s
    /// fast-side contract) or an undelivered reset pulse.
    pub fn fabric_input_pending(&self) -> bool {
        !self.down.is_empty() || self.reset_pulse
    }

    /// Whether all queues are drained.
    pub fn is_idle(&self) -> bool {
        self.mmio_in.is_empty()
            && self.waiting.is_none()
            && self.out.is_empty()
            && self.down.is_empty()
            && self.up.is_empty()
    }

    /// The earliest time ticking or draining this hub can next do observable
    /// work, or `None` when it can only be woken externally (MMIO arrival or
    /// a fabric push).
    ///
    /// Mirrors [`tick`](ControlHub::tick): queued MMIO accesses, pending
    /// interrupts, and software-requested clock/reset changes act
    /// immediately; fabric events act when they clear the up-synchronizer;
    /// responses leave when their ready time passes; a head-of-line blocked
    /// access either completes now (its result/data has arrived) or times
    /// out just after `timeout_cycles` fabric-free cycles.
    pub fn next_event_time(&self, now: Time) -> Option<Time> {
        if !self.mmio_in.is_empty()
            || !self.irqs.is_empty()
            || self.pending_clock_mhz.is_some()
            || self.reset_pulse
        {
            return Some(now);
        }
        let mut earliest = merge_min(self.up.front_ready_at(), self.out.front_ready_at());
        if let Some(w) = self.waiting {
            let deadline = |started: Time| {
                started + self.cfg.clock.period().mul(self.timeout_cycles) + Time::from_ps(1)
            };
            let cand = match w {
                WaitSt::NormalTxn { txn, started, .. } => {
                    if self.txn_results.contains_key(&txn) {
                        now
                    } else {
                        deadline(started)
                    }
                }
                WaitSt::CpuBound { reg, started, .. } => {
                    if !self.cpu_fifo[reg as usize].is_empty() {
                        now
                    } else {
                        deadline(started)
                    }
                }
                // Waiting on down-FIFO space: space visibility depends on
                // slow-domain pops; treat as hot (rare, short-lived states).
                WaitSt::DownSpace { .. } | WaitSt::DownSpaceThenTxn { .. } => now,
            };
            earliest = merge_min(earliest, Some(cand));
        }
        earliest
    }

    fn raise(&mut self, code: u64) {
        if self.error_code == 0 {
            self.error_code = code;
            self.irqs.push_back(IrqCause::Exception { code });
        }
    }

    /// Fences the soft-register interface after the adapter watchdog
    /// declared the accelerator hung: deactivates the interface (subsequent
    /// accesses answer [`BOGUS`] immediately), latches
    /// [`error_codes::ACCEL_FENCED`], and fails the head-of-line blocked
    /// access — if any — with [`BOGUS`] so the issuing core unblocks. The
    /// paper's adapter guarantee: a wedged kernel must never wedge the host.
    pub fn fence(&mut self, now: Time) {
        self.active = false;
        self.raise(error_codes::ACCEL_FENCED);
        // Abandon fabric-bound register events: the design is fenced off
        // and will never consume them, and they must not hold up
        // quiescence.
        self.down.clear();
        if let Some(w) = self.waiting.take() {
            let (id, reply_to) = match w {
                WaitSt::NormalTxn { id, reply_to, .. }
                | WaitSt::CpuBound { id, reply_to, .. }
                | WaitSt::DownSpace { id, reply_to, .. }
                | WaitSt::DownSpaceThenTxn { id, reply_to, .. } => (id, reply_to),
            };
            self.stats.timeouts += 1;
            self.respond_now(now, id, BOGUS, reply_to);
        }
    }

    /// Monotone count of fabric-side soft-register activity: events the
    /// fabric consumed from the down FIFO, events it produced into the up
    /// FIFO, *and* events the CPU side pushed toward the fabric. The
    /// adapter watchdog samples this: a signature that stops advancing
    /// while work is pending means the accelerator hung. Counting arrivals
    /// (down pushes) re-arms the watchdog at the instant new work shows up,
    /// which is a deterministic, edge-skip-invariant event — so an
    /// accelerator that hangs before consuming its very first input is
    /// still fenced exactly `fence_after` later in both scheduling modes.
    pub fn progress_signature(&self) -> u64 {
        self.down.stats().pops + self.down.stats().pushes + self.up.stats().pushes
    }

    /// Advances the hub by one fast-clock edge.
    pub fn tick(&mut self, now: Time) {
        // 1. Absorb fabric pushes.
        while let Some(ev) = self.up.pop(now) {
            let (a, b) = match ev {
                RegUp::Push { reg, value } => (u64::from(reg), value),
                RegUp::ReadResp { txn, value } => (txn, value),
                RegUp::WriteAck { txn } => (txn, 0),
            };
            self.tracer.emit(now.as_ps(), EventKind::AdapterRegUp, a, b);
            match ev {
                RegUp::Push { reg, value } => {
                    let r = reg as usize % REG_COUNT;
                    match self.modes[r] {
                        RegMode::CpuBound => self.cpu_fifo[r].push_back(value),
                        RegMode::Token => self.tokens[r] += 1,
                        RegMode::ShadowPlain => self.plain[r] = value,
                        // Pushes to non-shadowed registers are dropped (a
                        // fabric design bug, harmless to the system).
                        RegMode::Normal | RegMode::FpgaBound => {}
                    }
                }
                RegUp::ReadResp { txn, value } => {
                    self.txn_results.insert(txn, value);
                }
                RegUp::WriteAck { txn } => {
                    self.txn_results.insert(txn, 0);
                }
            }
        }

        // 2. Progress the head-of-line blocked access, if any.
        if let Some(w) = self.waiting {
            match w {
                WaitSt::NormalTxn {
                    txn,
                    id,
                    reply_to,
                    started,
                } => {
                    if let Some(v) = self.txn_results.remove(&txn) {
                        self.waiting = None;
                        self.respond_now(now, id, v, reply_to);
                    } else if self.timed_out(now, started) {
                        self.stats.timeouts += 1;
                        self.waiting = None;
                        self.raise(error_codes::TIMEOUT);
                        self.respond_now(now, id, BOGUS, reply_to);
                    }
                }
                WaitSt::CpuBound {
                    reg,
                    id,
                    reply_to,
                    started,
                } => {
                    let r = reg as usize;
                    if let Some(v) = self.cpu_fifo[r].pop_front() {
                        self.waiting = None;
                        self.respond_now(now, id, v, reply_to);
                    } else if self.timed_out(now, started) {
                        self.stats.timeouts += 1;
                        self.waiting = None;
                        self.raise(error_codes::TIMEOUT);
                        self.respond_now(now, id, BOGUS, reply_to);
                    }
                }
                WaitSt::DownSpace { ev, id, reply_to } => {
                    if self.down.can_push(now) {
                        self.push_down(now, ev);
                        self.waiting = None;
                        self.respond_now(now, id, 0, reply_to);
                    }
                }
                WaitSt::DownSpaceThenTxn {
                    ev,
                    txn,
                    id,
                    reply_to,
                } => {
                    if self.down.can_push(now) {
                        self.push_down(now, ev);
                        self.waiting = Some(WaitSt::NormalTxn {
                            txn,
                            id,
                            reply_to,
                            started: now,
                        });
                    }
                }
            }
            if self.waiting.is_some() {
                return; // strict I/O ordering: head-of-line blocks
            }
        }

        // 3. Dispatch the next MMIO access.
        let Some((req, reply_to)) = self.mmio_in.pop_front() else {
            return;
        };
        self.stats.mmio_ops += 1;
        let offset = req.addr;
        let is_read = matches!(req.op, MemOp::Load(_) | MemOp::LoadLine | MemOp::IFetch);
        if offset < mmio_map::REG_MODE {
            self.soft_reg_access(now, req, reply_to, is_read);
        } else {
            self.manager_access(now, req, reply_to, is_read, offset);
        }
    }

    fn timed_out(&self, now: Time, started: Time) -> bool {
        now.saturating_sub(started) > self.cfg.clock.period().mul(self.timeout_cycles)
    }

    fn soft_reg_access(&mut self, now: Time, req: MemReq, reply_to: NodeId, is_read: bool) {
        let reg = ((req.addr - mmio_map::SOFT_REG_BASE) / 8) as usize % REG_COUNT;
        if !self.active {
            // Deactivated: bogus data, never stall the system.
            self.respond_now(now, req.id, BOGUS, reply_to);
            return;
        }
        match (self.modes[reg], is_read) {
            (RegMode::Normal, true) => {
                self.stats.normal_crossings += 1;
                let txn = self.alloc_txn();
                let ev = RegDown::ReadReq {
                    txn,
                    reg: reg as u8,
                };
                self.push_down_or_wait(now, ev, req.id, reply_to, Some(txn));
            }
            (RegMode::Normal, false) => {
                self.stats.normal_crossings += 1;
                let txn = self.alloc_txn();
                let ev = RegDown::WriteReq {
                    txn,
                    reg: reg as u8,
                    value: req.wdata,
                };
                self.push_down_or_wait(now, ev, req.id, reply_to, Some(txn));
            }
            (RegMode::ShadowPlain, true) => {
                self.stats.shadow_fast += 1;
                self.respond_now(now, req.id, self.plain[reg], reply_to);
            }
            (RegMode::ShadowPlain, false) => {
                self.stats.shadow_fast += 1;
                self.plain[reg] = req.wdata;
                let ev = RegDown::ShadowWrite {
                    reg: reg as u8,
                    value: req.wdata,
                };
                // Ack as soon as the forwarding FIFO admits the write.
                if self.down.can_push(now) {
                    self.push_down(now, ev);
                    self.respond_now(now, req.id, 0, reply_to);
                } else {
                    self.waiting = Some(WaitSt::DownSpace {
                        ev,
                        id: req.id,
                        reply_to,
                    });
                }
            }
            (RegMode::FpgaBound, false) => {
                self.stats.shadow_fast += 1;
                let ev = RegDown::ShadowWrite {
                    reg: reg as u8,
                    value: req.wdata,
                };
                if self.down.can_push(now) {
                    self.push_down(now, ev);
                    self.respond_now(now, req.id, 0, reply_to);
                } else {
                    self.waiting = Some(WaitSt::DownSpace {
                        ev,
                        id: req.id,
                        reply_to,
                    });
                }
            }
            (RegMode::FpgaBound, true) => {
                // Reading an FPGA-bound FIFO is meaningless; bogus data.
                self.respond_now(now, req.id, BOGUS, reply_to);
            }
            (RegMode::CpuBound, true) => {
                self.stats.shadow_fast += 1;
                if let Some(v) = self.cpu_fifo[reg].pop_front() {
                    self.respond_now(now, req.id, v, reply_to);
                } else {
                    self.waiting = Some(WaitSt::CpuBound {
                        reg: reg as u8,
                        id: req.id,
                        reply_to,
                        started: now,
                    });
                }
            }
            (RegMode::CpuBound, false) => {
                self.respond_now(now, req.id, BOGUS, reply_to);
            }
            (RegMode::Token, true) => {
                self.stats.shadow_fast += 1;
                if self.tokens[reg] > 0 {
                    self.tokens[reg] -= 1;
                    self.respond_now(now, req.id, 1, reply_to);
                } else {
                    self.respond_now(now, req.id, 0, reply_to);
                }
            }
            (RegMode::Token, false) => {
                self.respond_now(now, req.id, BOGUS, reply_to);
            }
        }
    }

    fn push_down_or_wait(
        &mut self,
        now: Time,
        ev: RegDown,
        id: u64,
        reply_to: NodeId,
        txn: Option<u64>,
    ) {
        if self.down.can_push(now) {
            self.push_down(now, ev);
            if let Some(txn) = txn {
                self.waiting = Some(WaitSt::NormalTxn {
                    txn,
                    id,
                    reply_to,
                    started: now,
                });
            }
        } else if let Some(txn) = txn {
            // No space yet: wait for space, then for the fabric's reply.
            // The timeout restarts when the push succeeds.
            self.waiting = Some(WaitSt::DownSpaceThenTxn {
                ev,
                txn,
                id,
                reply_to,
            });
        }
    }

    fn alloc_txn(&mut self) -> u64 {
        let t = self.txn_next;
        self.txn_next += 1;
        t
    }

    fn manager_access(
        &mut self,
        now: Time,
        req: MemReq,
        reply_to: NodeId,
        is_read: bool,
        offset: u64,
    ) {
        use mmio_map::*;
        let value = req.wdata;
        let mut resp = 0u64;
        match offset {
            REG_MODE if !is_read => {
                let reg = ((value >> 8) as usize) % REG_COUNT;
                if let Some(mode) = RegMode::from_u64(value & 0xFF) {
                    self.modes[reg] = mode;
                }
            }
            FPGA_CLOCK_MHZ => {
                if is_read {
                    resp = self.fpga_clock_mhz as u64;
                } else {
                    self.pending_clock_mhz = Some(value as f64);
                }
            }
            BITSTREAM_BEGIN if !is_read => {
                self.prog_expected_checksum = value;
                self.prog_acc = 0;
            }
            BITSTREAM_LEN if !is_read => {
                self.prog_remaining = value;
                self.prog_status = ProgStatus::Programming;
            }
            BITSTREAM_DATA if !is_read => {
                if self.prog_status == ProgStatus::Programming {
                    self.prog_acc = self.prog_acc.rotate_left(1) ^ value;
                    self.prog_remaining = self.prog_remaining.saturating_sub(1);
                    if self.prog_remaining == 0 {
                        if self.prog_acc == self.prog_expected_checksum {
                            self.prog_status = ProgStatus::Done;
                        } else {
                            self.prog_status = ProgStatus::Error;
                            self.raise(error_codes::BITSTREAM_CORRUPT);
                        }
                    }
                }
            }
            BITSTREAM_STATUS if is_read => {
                resp = self.prog_status as u64;
            }
            ERROR_CODE if is_read => {
                resp = self.error_code;
            }
            CLEAR_ERROR if !is_read => {
                self.error_code = 0;
                self.active = true;
            }
            TIMEOUT_LIMIT if !is_read => {
                self.timeout_cycles = value.max(1);
            }
            ACCEL_RESET if !is_read => {
                self.reset_pulse = true;
            }
            INTERFACE_ACTIVE if !is_read => {
                self.active = value != 0;
            }
            _ => {
                resp = BOGUS;
            }
        }
        self.respond_now(now, req.id, resp, reply_to);
    }

    /// Latches a VPN for a subsequent per-hub TLB insert (adapter decode
    /// helper).
    pub fn latch_tlb_vpn(&mut self, hub: usize, vpn: u64) {
        self.tlb_vpn_latch[hub % 8] = vpn;
    }

    /// Reads back the latched VPN.
    pub fn latched_tlb_vpn(&self, hub: usize) -> u64 {
        self.tlb_vpn_latch[hub % 8]
    }
}

duet_sim::pack_enum!(RegMode {
    0 => Normal,
    1 => ShadowPlain,
    2 => FpgaBound,
    3 => CpuBound,
    4 => Token,
});
duet_sim::pack_enum!(ProgStatus { 0 => Idle, 1 => Programming, 2 => Done, 3 => Error });
duet_sim::pack_struct!(ControlHubStats {
    mmio_ops,
    shadow_fast,
    normal_crossings,
    timeouts
});
duet_sim::pack_enum!(WaitSt {
    0 => NormalTxn { txn, id, reply_to, started },
    1 => CpuBound { reg, id, reply_to, started },
    2 => DownSpace { ev, id, reply_to },
    3 => DownSpaceThenTxn { ev, txn, id, reply_to },
});
// Everything observable is serialized; the tracer handle is not (the owning
// system re-installs it after a restore). The CDC links carry their own
// clock state, so a snapshot taken after a software clock change restores
// the retimed FIFOs exactly.
duet_sim::snap_fields!(ControlHub {
    modes, plain, cpu_fifo, tokens, down, up, mmio_in, waiting, txn_results, txn_next, out,
    active, error_code, timeout_cycles, fpga_clock_mhz, pending_clock_mhz, prog_status,
    prog_expected_checksum, prog_remaining, prog_acc, reset_pulse, tlb_vpn_latch, stats, irqs
} check |c| duet_sim::snapshot::ensure(
    c.cpu_fifo.len() == REG_COUNT,
    "cpu_fifo register count mismatch"
));

impl Component for ControlHub {
    fn name(&self) -> String {
        format!("ctl@n{}", self.node)
    }

    fn domain(&self) -> ClockDomain {
        ClockDomain::Fast
    }

    fn tick(&mut self, now: Time) {
        ControlHub::tick(self, now);
    }

    fn next_event_time(&self, now: Time) -> Option<Time> {
        ControlHub::next_event_time(self, now)
    }

    fn visit_links(&self, visit: &mut dyn FnMut(&str, LinkReport)) {
        visit("reg_down", self.down.report());
        visit("reg_up", self.up.report());
        visit("noc_out", self.out.report());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_mem::types::Width;

    fn fast() -> Clock {
        Clock::ghz1()
    }

    fn slow() -> Clock {
        Clock::from_mhz(100.0)
    }

    fn hub() -> ControlHub {
        ControlHub::new(ControlHubConfig::dolly(fast()), 0, slow())
    }

    fn t(ps: u64) -> Time {
        Time::from_ps(ps)
    }

    fn run_until_resp(h: &mut ControlHub, from_cycle: u64, max: u64) -> (u64, MemResp) {
        for c in from_cycle..from_cycle + max {
            h.tick(t(c * 1000));
            if let Some((_, DuetMsg::MmioResp { resp })) = h.pop_outgoing(t(c * 1000)) {
                return (c, resp);
            }
        }
        panic!("no MMIO response within {max} cycles");
    }

    #[test]
    fn shadow_plain_write_acks_fast_and_forwards() {
        let mut h = hub();
        h.set_reg_mode(0, RegMode::ShadowPlain);
        h.mmio_request(MemReq::store(1, 0, Width::B8, 42), 5);
        let (cycle, resp) = run_until_resp(&mut h, 1, 20);
        assert_eq!(resp.id, 1);
        assert!(cycle < 10, "shadow write acked from the fast domain");
        // The write is synchronized into the fabric.
        let (down, _) = h.fabric_links();
        let ev = down.pop(t(40_000)).expect("forwarded");
        assert_eq!(ev, RegDown::ShadowWrite { reg: 0, value: 42 });
        // Reads return the fast-domain copy immediately.
        h.mmio_request(MemReq::load(2, 0, Width::B8), 5);
        let (_, resp) = run_until_resp(&mut h, 50, 20);
        assert_eq!(resp.rdata, 42);
    }

    #[test]
    fn normal_register_roundtrips_into_fabric() {
        let mut h = hub();
        h.set_reg_mode(1, RegMode::Normal);
        h.mmio_request(MemReq::load(3, 8, Width::B8), 4);
        h.tick(t(1000));
        // No response yet; the fabric must answer.
        assert!(h.pop_outgoing(t(5000)).is_none());
        // Fabric sees the ReadReq after CDC, answers.
        let (down, up) = h.fabric_links();
        let ev = down.pop(t(30_000)).expect("read request crossed");
        let RegDown::ReadReq { txn, reg } = ev else {
            panic!("expected ReadReq, got {ev:?}")
        };
        assert_eq!(reg, 1);
        up.push(t(30_000), RegUp::ReadResp { txn, value: 77 })
            .unwrap();
        let (_, resp) = run_until_resp(&mut h, 31, 50);
        assert_eq!(resp.rdata, 77);
    }

    #[test]
    fn cpu_bound_fifo_blocks_until_push() {
        let mut h = hub();
        h.set_reg_mode(2, RegMode::CpuBound);
        h.mmio_request(MemReq::load(4, 16, Width::B8), 9);
        for c in 1..10 {
            h.tick(t(c * 1000));
        }
        assert!(
            h.pop_outgoing(t(10_000)).is_none(),
            "read blocks on empty FIFO"
        );
        // The fabric pushes; the read completes.
        {
            let (_, up) = h.fabric_links();
            up.push(t(10_000), RegUp::Push { reg: 2, value: 123 })
                .unwrap();
        }
        let (_, resp) = run_until_resp(&mut h, 11, 50);
        assert_eq!(resp.rdata, 123);
    }

    #[test]
    fn cpu_bound_read_times_out_with_bogus_and_error() {
        let mut h = hub();
        h.set_reg_mode(2, RegMode::CpuBound);
        // Shrink the timeout via MMIO.
        h.mmio_request(MemReq::store(1, mmio_map::TIMEOUT_LIMIT, Width::B8, 10), 0);
        let _ = run_until_resp(&mut h, 1, 20);
        h.mmio_request(MemReq::load(2, 16, Width::B8), 0);
        let (_, resp) = run_until_resp(&mut h, 30, 200);
        assert_eq!(resp.rdata, BOGUS);
        assert_eq!(h.error_code(), error_codes::TIMEOUT);
        assert_eq!(h.stats().timeouts, 1);
    }

    #[test]
    fn token_fifo_is_nonblocking_try_join() {
        let mut h = hub();
        h.set_reg_mode(3, RegMode::Token);
        // Empty: returns 0 immediately.
        h.mmio_request(MemReq::load(1, 24, Width::B8), 0);
        let (_, resp) = run_until_resp(&mut h, 1, 20);
        assert_eq!(resp.rdata, 0);
        // Two pushes = two tokens.
        {
            let (_, up) = h.fabric_links();
            up.push(t(30_000), RegUp::Push { reg: 3, value: 0 })
                .unwrap();
            up.push(t(31_000), RegUp::Push { reg: 3, value: 0 })
                .unwrap();
        }
        for (i, expect) in [(1u64, 1u64), (2, 1), (3, 0)] {
            h.mmio_request(MemReq::load(10 + i, 24, Width::B8), 0);
            let (_, resp) = run_until_resp(&mut h, 40 + i * 20, 30);
            assert_eq!(resp.rdata, expect, "token read {i}");
        }
    }

    #[test]
    fn deactivated_interface_returns_bogus() {
        let mut h = hub();
        h.set_reg_mode(0, RegMode::CpuBound);
        h.mmio_request(
            MemReq::store(1, mmio_map::INTERFACE_ACTIVE, Width::B8, 0),
            0,
        );
        let _ = run_until_resp(&mut h, 1, 20);
        // A read that would normally block now returns bogus instantly.
        h.mmio_request(MemReq::load(2, 0, Width::B8), 0);
        let (_, resp) = run_until_resp(&mut h, 30, 10);
        assert_eq!(resp.rdata, BOGUS);
    }

    #[test]
    fn bitstream_programming_and_integrity() {
        let mut h = hub();
        let words = [0xAAu64, 0xBB, 0xCC];
        let checksum = words.iter().fold(0u64, |a, w| a.rotate_left(1) ^ w);
        let mut cycle = 1;
        let do_write = |h: &mut ControlHub, off, v, cyc: &mut u64| {
            h.mmio_request(MemReq::store(99, off, Width::B8, v), 0);
            let (c, _) = run_until_resp(h, *cyc, 30);
            *cyc = c + 1;
        };
        do_write(&mut h, mmio_map::BITSTREAM_BEGIN, checksum, &mut cycle);
        do_write(&mut h, mmio_map::BITSTREAM_LEN, 3, &mut cycle);
        assert_eq!(h.prog_status(), ProgStatus::Programming);
        assert!(h.programming());
        for w in words {
            do_write(&mut h, mmio_map::BITSTREAM_DATA, w, &mut cycle);
        }
        assert_eq!(h.prog_status(), ProgStatus::Done);
        // Corrupted stream fails the check and raises an exception.
        let mut h2 = hub();
        let mut cycle = 1;
        do_write(&mut h2, mmio_map::BITSTREAM_BEGIN, checksum, &mut cycle);
        do_write(&mut h2, mmio_map::BITSTREAM_LEN, 3, &mut cycle);
        do_write(&mut h2, mmio_map::BITSTREAM_DATA, 0xAA, &mut cycle);
        do_write(&mut h2, mmio_map::BITSTREAM_DATA, 0xBB ^ 1, &mut cycle);
        do_write(&mut h2, mmio_map::BITSTREAM_DATA, 0xCC, &mut cycle);
        assert_eq!(h2.prog_status(), ProgStatus::Error);
        assert_eq!(h2.error_code(), error_codes::BITSTREAM_CORRUPT);
    }

    #[test]
    fn clock_change_is_requested_via_mmio() {
        let mut h = hub();
        h.mmio_request(
            MemReq::store(1, mmio_map::FPGA_CLOCK_MHZ, Width::B8, 250),
            0,
        );
        let _ = run_until_resp(&mut h, 1, 20);
        assert_eq!(h.take_clock_change(), Some(250.0));
        assert_eq!(h.take_clock_change(), None);
    }

    #[test]
    fn reg_mode_mmio_configuration() {
        let mut h = hub();
        h.mmio_request(
            MemReq::store(1, mmio_map::REG_MODE, Width::B8, (7 << 8) | 3),
            0,
        );
        let _ = run_until_resp(&mut h, 1, 20);
        assert_eq!(h.reg_mode(7), RegMode::CpuBound);
    }

    #[test]
    fn io_ordering_normal_blocks_following_shadow() {
        // Fig. 6c: a shadowed access behind a normal access must not
        // complete first.
        let mut h = hub();
        h.set_reg_mode(0, RegMode::Normal);
        h.set_reg_mode(1, RegMode::ShadowPlain);
        h.mmio_request(MemReq::store(1, 0, Width::B8, 5), 0); // normal
        h.mmio_request(MemReq::store(2, 8, Width::B8, 6), 0); // shadow
        for c in 1..30 {
            h.tick(t(c * 1000));
        }
        assert!(
            h.pop_outgoing(t(30_000)).is_none(),
            "shadow write must wait for the normal write's fabric ack"
        );
        // Fabric acks the normal write; both complete, in order.
        let txn = {
            let (down, _) = h.fabric_links();
            match down.pop(t(30_000)) {
                Some(RegDown::WriteReq { txn, .. }) => txn,
                other => panic!("expected WriteReq, got {other:?}"),
            }
        };
        {
            let (_, up) = h.fabric_links();
            up.push(t(31_000), RegUp::WriteAck { txn }).unwrap();
        }
        let (_, r1) = run_until_resp(&mut h, 32, 60);
        assert_eq!(r1.id, 1, "normal write completes first");
        let (_, r2) = run_until_resp(&mut h, 40, 60);
        assert_eq!(r2.id, 2);
    }
}
