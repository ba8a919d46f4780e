//! The synthetic CPU↔eFPGA communication benchmarks of Sec. V-C.
//!
//! "The eFPGA emulates a simple scratchpad memory and a processor uses
//! different mechanisms to access it": soft registers (normal vs shadowed)
//! and shared memory (eFPGA pull vs CPU pull, through a slow cache vs the
//! Proxy Cache). The drivers here regenerate Fig. 9 (single-transaction
//! round-trip latency with its four-way breakdown), Fig. 10 (single-
//! processor bandwidth vs eFPGA clock), and Fig. 11 (per-processor
//! bandwidth vs number of contending processors).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use duet_core::RegMode;
use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_fpga::fabric::NetlistSummary;
use duet_fpga::ports::{FabricPorts, FpgaRespKind, SoftAccelerator};
use duet_fpga::regfile::FabricRegFile;
use duet_mem::types::Width;
use duet_sim::{LatencyBreakdown, Time};
use duet_system::{System, SystemConfig, Variant};
use duet_trace::TraceConfig;

/// Soft-register assignments of the scratchpad design.
pub mod sp_reg {
    /// Command register (FPGA-bound FIFO on Duet).
    pub const CMD: usize = 0;
    /// Result queue (CPU-bound FIFO on Duet).
    pub const RESULT: usize = 1;
    /// Buffer A base address (plain shadow).
    pub const BUF_A: usize = 2;
    /// Buffer B base address (plain shadow).
    pub const BUF_B: usize = 3;
    /// Synchronization barrier (always a normal register, Sec. II-F).
    pub const BARRIER: usize = 4;
    /// Word count (plain shadow).
    pub const NWORDS: usize = 5;
    /// Echo data port (FPGA-bound FIFO on Duet).
    pub const DATA: usize = 6;
}

/// Scratchpad commands (written to [`sp_reg::CMD`]).
pub mod sp_op {
    /// Load `NWORDS` quad-words from buffer A into the scratchpad, then
    /// store them to buffer B, then release the barrier (the Fig. 10
    /// shared-memory protocol).
    pub const COPY_A_TO_B: u64 = 1;
    /// Load a single line from buffer A, recording its latency; release
    /// the barrier when the fill arrives (Fig. 9 eFPGA pull).
    pub const PULL_LINE: u64 = 2;
    /// Store one quad-word to buffer B so the FPGA-side cache owns that
    /// line in M state; release the barrier (setup for Fig. 9 CPU pull).
    pub const OWN_LINE: u64 = 3;
}

/// Instrumentation shared between the scratchpad and the driver.
#[derive(Clone, Debug, Default)]
pub struct SpEvents {
    /// Slow-domain issue time of the single-line pull.
    pub pull_issue: Option<Time>,
    /// Completion time and attribution of the single-line pull.
    pub pull_done: Option<(Time, LatencyBreakdown)>,
    /// First load issue of the bulk pull phase.
    pub bulk_pull_start: Option<Time>,
    /// Last fill of the bulk pull phase.
    pub bulk_pull_end: Option<Time>,
    /// First store issue of the bulk push phase.
    pub bulk_push_start: Option<Time>,
    /// Last store ack of the bulk push phase.
    pub bulk_push_end: Option<Time>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SpState {
    Idle,
    Pulling { next: u64, fills_left: u64 },
    Pushing { next: u64, acks_left: u64 },
    PullOne,
    OwnLine,
}

duet_sim::pack_enum!(SpState {
    0 => Idle,
    1 => Pulling { next, fills_left },
    2 => Pushing { next, acks_left },
    3 => PullOne,
    4 => OwnLine,
});

/// The eFPGA-emulated scratchpad of Sec. V-C. One load issue, one store
/// issue, and one register event per eFPGA cycle.
pub struct Scratchpad {
    regs: FabricRegFile,
    /// Scratchpad storage (BRAM-backed in the real design).
    mem: Vec<u64>,
    state: SpState,
    buf_a: u64,
    buf_b: u64,
    nwords: u64,
    events: Rc<RefCell<SpEvents>>,
    id_next: u64,
}

impl Scratchpad {
    /// Creates the scratchpad. `push_mode` must match the system's register
    /// configuration (shadow on Duet, normal on FPSoC).
    pub fn new(push_mode: bool, events: Rc<RefCell<SpEvents>>) -> Self {
        let mut regs = FabricRegFile::new(push_mode);
        regs.set_queue(sp_reg::RESULT);
        regs.set_barrier(sp_reg::BARRIER);
        Scratchpad {
            regs,
            mem: vec![0; 4096],
            state: SpState::Idle,
            buf_a: 0,
            buf_b: 0,
            nwords: 0,
            events,
            id_next: 1,
        }
    }

    fn alloc_id(&mut self) -> u64 {
        let id = self.id_next;
        self.id_next += 1;
        id
    }
}

// `events` is host-side instrumentation (shared with the measuring
// harness), not fabric state: it is deliberately not serialized.
duet_sim::snap_fields!(Scratchpad {
    regs,
    mem,
    state,
    buf_a,
    buf_b,
    nwords,
    id_next
});

impl SoftAccelerator for Scratchpad {
    fn name(&self) -> &str {
        "scratchpad"
    }

    fn tick(&mut self, ports: &mut FabricPorts<'_>) {
        let now = ports.now;
        self.regs.tick(now, &mut ports.regs);

        // Echo port: every DATA write is stored and echoed to RESULT.
        if let Some(v) = self.regs.pop_write(sp_reg::DATA) {
            let idx = (v as usize) % self.mem.len();
            self.mem[idx] = v;
            self.regs.push_result(sp_reg::RESULT, v);
        }

        // Latch plain parameters.
        self.buf_a = self.regs.value(sp_reg::BUF_A);
        self.buf_b = self.regs.value(sp_reg::BUF_B);
        self.nwords = self.regs.value(sp_reg::NWORDS).max(1);

        // Memory responses (at most the FIFO's worth per tick; the design
        // accepts one line fill per cycle as in Sec. V-C).
        if !ports.hubs.is_empty() {
            if let Some(resp) = ports.hubs[0].pop_resp(now) {
                match resp.kind {
                    FpgaRespKind::LoadAck { data } => match self.state {
                        SpState::PullOne => {
                            let _ = data;
                            self.events.borrow_mut().pull_done = Some((now, resp.breakdown));
                            self.regs.release_barrier(sp_reg::BARRIER, 1);
                            self.state = SpState::Idle;
                        }
                        SpState::Pulling { next, fills_left } => {
                            let word0 = u64::from_le_bytes(data[0..8].try_into().unwrap());
                            let word1 = u64::from_le_bytes(data[8..16].try_into().unwrap());
                            let len = self.mem.len();
                            let base = ((resp.id - 1) * 2) as usize % len;
                            self.mem[base] = word0;
                            self.mem[(base + 1) % len] = word1;
                            let fills_left = fills_left - 1;
                            if fills_left == 0 {
                                self.events.borrow_mut().bulk_pull_end = Some(now);
                                self.events.borrow_mut().bulk_push_start = Some(now);
                                self.state = SpState::Pushing {
                                    next: 0,
                                    acks_left: self.nwords,
                                };
                            } else {
                                self.state = SpState::Pulling { next, fills_left };
                            }
                        }
                        _ => {}
                    },
                    FpgaRespKind::StoreAck { .. } => match self.state {
                        SpState::OwnLine => {
                            self.regs.release_barrier(sp_reg::BARRIER, 1);
                            self.state = SpState::Idle;
                        }
                        SpState::Pushing { next, acks_left } => {
                            let acks_left = acks_left - 1;
                            if acks_left == 0 {
                                self.events.borrow_mut().bulk_push_end = Some(now);
                                self.regs.release_barrier(sp_reg::BARRIER, 1);
                                self.state = SpState::Idle;
                            } else {
                                self.state = SpState::Pushing { next, acks_left };
                            }
                        }
                        _ => {}
                    },
                    FpgaRespKind::Inv { .. } => {}
                }
            }
        }

        // Command dispatch.
        if self.state == SpState::Idle {
            if let Some(cmd) = self.regs.pop_write(sp_reg::CMD) {
                match cmd {
                    sp_op::COPY_A_TO_B => {
                        let lines = self.nwords.div_ceil(2);
                        self.events.borrow_mut().bulk_pull_start = Some(now);
                        self.state = SpState::Pulling {
                            next: 0,
                            fills_left: lines,
                        };
                    }
                    sp_op::PULL_LINE => {
                        self.state = SpState::PullOne;
                    }
                    sp_op::OWN_LINE => {
                        self.state = SpState::OwnLine;
                    }
                    _ => {}
                }
            }
        }

        // Issue work: one memory request per cycle.
        if ports.hubs.is_empty() {
            return;
        }
        let hub = &mut ports.hubs[0];
        match self.state {
            SpState::PullOne => {
                let ev = self.events.borrow_mut();
                if ev.pull_issue.is_none() {
                    let id = {
                        drop(ev);
                        self.alloc_id()
                    };
                    if hub.load_line(now, id, self.buf_a & !0xF) {
                        self.events.borrow_mut().pull_issue = Some(now);
                    }
                }
            }
            SpState::OwnLine
                // Issue exactly once: use id parity tracking via mem slot.
                if self.mem[self.mem.len() - 1] == 0 => {
                    let id = self.alloc_id();
                    if hub.store(now, id, self.buf_b, Width::B8, 0xFEED) {
                        self.mem[4095] = 1;
                    }
                }
            SpState::Pulling { next, fills_left } => {
                let lines = self.nwords.div_ceil(2);
                if next < lines {
                    let id = next + 1; // fill handler decodes the index
                    let addr = (self.buf_a & !0xF) + next * 16;
                    if hub.issue(
                        now,
                        duet_fpga::ports::FpgaMemReq {
                            id,
                            op: duet_fpga::ports::FpgaMemOp::LoadLine,
                            addr,
                            wdata: 0,
                            expected: 0,
                            issued_at: now,
                        },
                    ) {
                        self.state = SpState::Pulling {
                            next: next + 1,
                            fills_left,
                        };
                    }
                }
            }
            SpState::Pushing { next, acks_left }
                if next < self.nwords => {
                    let id = 1 << 20 | next;
                    let addr = self.buf_b + next * 8;
                    let value = self.mem[(next as usize) % self.mem.len()];
                    if hub.store(now, id, addr, Width::B8, value) {
                        self.state = SpState::Pushing {
                            next: next + 1,
                            acks_left,
                        };
                    }
                }
            _ => {}
        }

        self.regs.tick(now, &mut ports.regs);
    }

    fn netlist(&self) -> NetlistSummary {
        NetlistSummary {
            name: "scratchpad",
            luts: 900,
            ffs: 700,
            bram_kbits: 256,
            mults: 0,
            logic_levels: 4,
        }
    }

    fn reset(&mut self) {
        self.state = SpState::Idle;
        self.mem.fill(0);
    }

    fn is_idle(&self) -> bool {
        // Quiet iff the state machine is parked, the register endpoint has
        // no protocol work, and the two registers `tick` drains with
        // `pop_write` (CMD dispatches, DATA echoes) hold no unconsumed
        // writes. BUF_A/BUF_B/NWORDS are latch-only: their inboxes are
        // never popped and carry no future work.
        self.state == SpState::Idle
            && self.regs.is_quiescent()
            && !self.regs.has_pending_write(sp_reg::CMD)
            && !self.regs.has_pending_write(sp_reg::DATA)
    }
}

/// The communication mechanisms of Sec. V-C.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mechanism {
    /// Non-shadowed soft registers (every access crosses into the fabric).
    NormalReg,
    /// Shadow registers: FPGA-bound write FIFO + CPU-bound read FIFO.
    ShadowReg,
    /// eFPGA loads shared memory through a slow (eFPGA-domain) cache.
    EfpgaPullSlow,
    /// eFPGA loads shared memory through the Proxy Cache.
    EfpgaPullProxy,
    /// CPU loads data owned by a slow FPGA-side cache.
    CpuPullSlow,
    /// CPU loads data owned by the Proxy Cache.
    CpuPullProxy,
}

impl Mechanism {
    /// All mechanisms, in the order Fig. 9 plots them.
    pub const ALL: [Mechanism; 6] = [
        Mechanism::NormalReg,
        Mechanism::ShadowReg,
        Mechanism::EfpgaPullSlow,
        Mechanism::EfpgaPullProxy,
        Mechanism::CpuPullSlow,
        Mechanism::CpuPullProxy,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Mechanism::NormalReg => "normal-reg",
            Mechanism::ShadowReg => "shadow-reg",
            Mechanism::EfpgaPullSlow => "efpga-pull/slow-cache",
            Mechanism::EfpgaPullProxy => "efpga-pull/proxy-cache",
            Mechanism::CpuPullSlow => "cpu-pull/slow-cache",
            Mechanism::CpuPullProxy => "cpu-pull/proxy-cache",
        }
    }

    fn system_config(&self, p: usize, fpga_mhz: f64) -> SystemConfig {
        match self {
            Mechanism::EfpgaPullSlow | Mechanism::CpuPullSlow => {
                // Slow FPGA-side cache, but keep shadow registers so the
                // signaling path is identical — Fig. 9 isolates the cache
                // organization.
                let mut c = SystemConfig::fpsoc(p, 1, fpga_mhz);
                c.variant = Variant::Fpsoc;
                c
            }
            _ => SystemConfig::dolly(p, 1, fpga_mhz),
        }
    }

    fn uses_shadow_regs(&self) -> bool {
        !matches!(self, Mechanism::NormalReg)
    }
}

/// One measured point of Fig. 9.
#[derive(Clone, Debug)]
pub struct LatencyPoint {
    /// The mechanism measured.
    pub mechanism: Mechanism,
    /// eFPGA clock, MHz.
    pub fpga_mhz: f64,
    /// Round-trip latency.
    pub total: Time,
    /// Four-way attribution (NoC / fast cache / slow cache / CDC).
    pub breakdown: LatencyBreakdown,
    /// Per-link occupancy/stall snapshot of the whole component graph at
    /// the end of the measurement (see [`System::link_reports`]).
    pub links: Vec<(String, duet_sim::LinkReport)>,
}

/// Builds a system configured for a mechanism, with the scratchpad
/// attached and registers set up.
fn build_system(mechanism: Mechanism, p: usize, fpga_mhz: f64) -> (System, Rc<RefCell<SpEvents>>) {
    let cfg = mechanism.system_config(p, fpga_mhz);
    let shadow = mechanism.uses_shadow_regs() && cfg.variant == Variant::Duet;
    let mut sys = System::new(cfg).expect("valid config");
    if shadow {
        sys.set_reg_mode(sp_reg::CMD, RegMode::FpgaBound);
        sys.set_reg_mode(sp_reg::RESULT, RegMode::CpuBound);
        sys.set_reg_mode(sp_reg::BUF_A, RegMode::ShadowPlain);
        sys.set_reg_mode(sp_reg::BUF_B, RegMode::ShadowPlain);
        sys.set_reg_mode(sp_reg::NWORDS, RegMode::ShadowPlain);
        sys.set_reg_mode(sp_reg::DATA, RegMode::FpgaBound);
    } else {
        for r in [
            sp_reg::CMD,
            sp_reg::RESULT,
            sp_reg::BUF_A,
            sp_reg::BUF_B,
            sp_reg::NWORDS,
            sp_reg::DATA,
        ] {
            sys.set_reg_mode(r, RegMode::Normal);
        }
    }
    // The barrier is always a normal register (non-bufferable semantics).
    sys.set_reg_mode(sp_reg::BARRIER, RegMode::Normal);
    let events = Rc::new(RefCell::new(SpEvents::default()));
    // Push-mode iff the result FIFO is CPU-bound (shadow).
    let push_mode = shadow;
    sys.attach_accelerator(Box::new(Scratchpad::new(push_mode, events.clone())));
    (sys, events)
}

/// MMIO address of soft register `r`.
fn reg_addr(base: u64, r: usize) -> i64 {
    (base + (r as u64) * 8) as i64
}

/// Measures one Fig. 9 point.
pub fn measure_latency(mechanism: Mechanism, fpga_mhz: f64) -> LatencyPoint {
    measure_latency_traced(mechanism, fpga_mhz, None).0
}

/// Measures one Fig. 9 point, optionally with event tracing enabled.
///
/// When `trace` is `Some`, the run captures a full event trace and the
/// returned string is its Chrome trace-event JSON (loadable in Perfetto) —
/// one track per component, flow arrows following each NoC transaction
/// across hops. The measured latency is bit-identical either way.
pub fn measure_latency_traced(
    mechanism: Mechanism,
    fpga_mhz: f64,
    trace: Option<&TraceConfig>,
) -> (LatencyPoint, Option<String>) {
    let (mut sys, events) = build_system(mechanism, 1, fpga_mhz);
    if let Some(tcfg) = trace {
        sys.enable_tracing(tcfg);
    }
    let base = sys.config().mmio_base;
    let clock = sys.config().clock;
    let deadline = Time::from_us(20_000);
    // Scratch locations for the measured timestamps.
    let t0_addr = 0x9000i64;
    let t1_addr = 0x9008i64;

    let point = match mechanism {
        Mechanism::NormalReg | Mechanism::ShadowReg => {
            // Pre-load the result queue so the read's data is ready (the
            // paper measures access latency, not accelerator compute time).
            let mut a = Asm::new();
            a.label("main");
            a.li(regs::T[0], reg_addr(base, sp_reg::DATA));
            a.li(regs::T[6], reg_addr(base, sp_reg::RESULT));
            // Prime: one write/echo round trip, consumed so queues are warm.
            a.li(regs::T[1], 1);
            a.sd(regs::T[1], regs::T[0], 0);
            a.ld(regs::T[2], regs::T[6], 0);
            // Second prime leaves one value IN the result queue.
            a.li(regs::T[1], 2);
            a.sd(regs::T[1], regs::T[0], 0);
            a.fence();
            // Let the echo land before measuring.
            a.li(regs::T[3], 0);
            a.label("delay");
            a.addi(regs::T[3], regs::T[3], 1);
            a.slti(regs::T[4], regs::T[3], 3000);
            a.bnez(regs::T[4], "delay");
            // Measured: one write + one read.
            a.rdcycle(regs::S[0]);
            a.li(regs::T[1], 3);
            a.sd(regs::T[1], regs::T[0], 0);
            a.ld(regs::T[2], regs::T[6], 0);
            a.rdcycle(regs::S[1]);
            a.li(regs::T[5], t0_addr);
            a.sd(regs::S[0], regs::T[5], 0);
            a.li(regs::T[5], t1_addr);
            a.sd(regs::S[1], regs::T[5], 0);
            a.fence();
            a.halt();
            sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
            sys.run_until_halt(deadline)
                .unwrap_or_else(|e| panic!("{e}"));
            sys.quiesce(deadline + Time::from_us(100))
                .unwrap_or_else(|e| panic!("{e}"));
            let cycles = sys.peek_u64(t1_addr as u64) - sys.peek_u64(t0_addr as u64);
            let total = clock.period().mul(cycles);
            // Register accesses have no memory-transaction breakdown; the
            // whole round trip is attributed by domain analytically: shadow
            // accesses live entirely in the fast domain; normal accesses
            // pay two crossings plus slow-domain handling per access.
            let breakdown = if mechanism == Mechanism::ShadowReg {
                LatencyBreakdown {
                    cache_fast: total,
                    ..Default::default()
                }
            } else {
                let slow = sys.config().fpga_clock().period().mul(4);
                LatencyBreakdown {
                    cache_slow: slow.min(total),
                    cdc: total.saturating_sub(slow),
                    ..Default::default()
                }
            };
            LatencyPoint {
                mechanism,
                fpga_mhz,
                total,
                breakdown,
                links: sys.link_reports(),
            }
        }
        Mechanism::EfpgaPullSlow | Mechanism::EfpgaPullProxy => {
            let buf_a = 0xA000u64;
            let mut a = Asm::new();
            a.label("main");
            // Dirty the line in the CPU's L2 (modified state).
            a.li(regs::T[0], buf_a as i64);
            a.li(regs::T[1], 0x1234_5678);
            a.sd(regs::T[1], regs::T[0], 0);
            a.sd(regs::T[1], regs::T[0], 8);
            a.fence();
            a.li(regs::T[2], reg_addr(base, sp_reg::BUF_A));
            a.sd(regs::T[0], regs::T[2], 0);
            a.li(regs::T[3], sp_op::PULL_LINE as i64);
            a.li(regs::T[2], reg_addr(base, sp_reg::CMD));
            a.sd(regs::T[3], regs::T[2], 0);
            a.li(regs::T[2], reg_addr(base, sp_reg::BARRIER));
            a.ld(regs::T[4], regs::T[2], 0); // blocks until the pull lands
            a.halt();
            sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
            sys.run_until_halt(deadline)
                .unwrap_or_else(|e| panic!("{e}"));
            let ev = events.borrow();
            let (done, bd) = ev.pull_done.expect("pull completed");
            let issue = ev.pull_issue.expect("pull issued");
            let total = done - issue;
            // Residual time not in the carried breakdown is the response
            // crossing + fabric-side wait.
            let known = bd.total();
            let mut breakdown = bd;
            breakdown.cdc += total.saturating_sub(known);
            LatencyPoint {
                mechanism,
                fpga_mhz,
                total,
                breakdown,
                links: sys.link_reports(),
            }
        }
        Mechanism::CpuPullSlow | Mechanism::CpuPullProxy => {
            let buf_b = 0xB000u64;
            let mut a = Asm::new();
            a.label("main");
            a.li(regs::T[0], buf_b as i64);
            a.li(regs::T[2], reg_addr(base, sp_reg::BUF_B));
            a.sd(regs::T[0], regs::T[2], 0);
            a.li(regs::T[3], sp_op::OWN_LINE as i64);
            a.li(regs::T[2], reg_addr(base, sp_reg::CMD));
            a.sd(regs::T[3], regs::T[2], 0);
            a.li(regs::T[2], reg_addr(base, sp_reg::BARRIER));
            a.ld(regs::T[4], regs::T[2], 0); // FPGA cache now owns the line
                                             // Measured: one load that misses here and hits M in the
                                             // FPGA-side cache.
            a.rdcycle(regs::S[0]);
            a.ld(regs::T[5], regs::T[0], 0);
            a.rdcycle(regs::S[1]);
            a.li(regs::T[6], t0_addr);
            a.sd(regs::S[0], regs::T[6], 0);
            a.li(regs::T[6], t1_addr);
            a.sd(regs::S[1], regs::T[6], 0);
            a.fence();
            a.halt();
            sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
            sys.run_until_halt(deadline)
                .unwrap_or_else(|e| panic!("{e}"));
            let breakdown = sys.core(0).last_breakdown();
            sys.quiesce(deadline + Time::from_us(100))
                .unwrap_or_else(|e| panic!("{e}"));
            let cycles = sys.peek_u64(t1_addr as u64) - sys.peek_u64(t0_addr as u64);
            let total = clock.period().mul(cycles);
            let mut bd = breakdown;
            // Residual = time not in the carried transaction breakdown:
            // core-side fast-domain issue/receive (bounded by the
            // proxy-configuration cost) plus, for the slow-cache variant,
            // the NoC-side CDC crossings of the slow hub.
            let residual = total.saturating_sub(bd.total().min(total));
            let fast_share = residual.min(Time::from_ns(11));
            bd.cache_fast += fast_share;
            bd.cdc += residual.saturating_sub(fast_share);
            LatencyPoint {
                mechanism,
                fpga_mhz,
                total,
                breakdown: bd,
                links: sys.link_reports(),
            }
        }
    };
    let json = sys.trace_chrome_json();
    (point, json)
}

/// One measured point of Fig. 10.
#[derive(Clone, Copy, Debug)]
pub struct BandwidthPoint {
    /// Mechanism measured.
    pub mechanism: Mechanism,
    /// eFPGA clock, MHz.
    pub fpga_mhz: f64,
    /// Payload bytes moved in the measured direction.
    pub bytes: u64,
    /// Elapsed time of the measured phase.
    pub elapsed: Time,
}

impl BandwidthPoint {
    /// Bandwidth in MB/s.
    pub fn mbps(&self) -> f64 {
        if self.elapsed == Time::ZERO {
            return 0.0;
        }
        self.bytes as f64 / (self.elapsed.as_ps() as f64 * 1e-12) / 1e6
    }
}

/// Measures one Fig. 10 point. `nwords` quad-words are passed CPU→FPGA and
/// back (512 in the paper).
pub fn measure_bandwidth(mechanism: Mechanism, fpga_mhz: f64, nwords: u64) -> BandwidthPoint {
    let (mut sys, events) = build_system(mechanism, 1, fpga_mhz);
    let base = sys.config().mmio_base;
    let clock = sys.config().clock;
    let deadline = Time::from_us(60_000);
    let t0_addr = 0x9000u64;
    let t1_addr = 0x9008u64;

    match mechanism {
        Mechanism::NormalReg | Mechanism::ShadowReg => {
            // Write nwords integers one MMIO store at a time, then read
            // them all back (the paper's register-mechanism protocol).
            let mut a = Asm::new();
            a.label("main");
            a.li(regs::T[0], reg_addr(base, sp_reg::DATA));
            a.li(regs::T[6], reg_addr(base, sp_reg::RESULT));
            a.rdcycle(regs::S[0]);
            a.li(regs::S[2], 0);
            a.li(regs::S[3], nwords as i64);
            a.label("wr");
            a.sd(regs::S[2], regs::T[0], 0);
            a.addi(regs::S[2], regs::S[2], 1);
            a.blt(regs::S[2], regs::S[3], "wr");
            a.li(regs::S[2], 0);
            a.label("rd");
            a.ld(regs::T[1], regs::T[6], 0);
            a.addi(regs::S[2], regs::S[2], 1);
            a.blt(regs::S[2], regs::S[3], "rd");
            a.rdcycle(regs::S[1]);
            a.li(regs::T[5], t0_addr as i64);
            a.sd(regs::S[0], regs::T[5], 0);
            a.li(regs::T[5], t1_addr as i64);
            a.sd(regs::S[1], regs::T[5], 0);
            a.fence();
            a.halt();
            sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
            sys.run_until_halt(deadline)
                .unwrap_or_else(|e| panic!("{e}"));
            sys.quiesce(deadline + Time::from_us(100))
                .unwrap_or_else(|e| panic!("{e}"));
            let cycles = sys.peek_u64(t1_addr) - sys.peek_u64(t0_addr);
            BandwidthPoint {
                mechanism,
                fpga_mhz,
                bytes: nwords * 8 * 2, // both directions traverse MMIO
                elapsed: clock.period().mul(cycles),
            }
        }
        _ => {
            // Shared-memory protocol (Fig. 10): store nwords into buffer A,
            // signal via the barrier; the eFPGA copies A→B; CPU loads B.
            let buf_a = 0x10000u64;
            let buf_b = 0x20000u64;
            let mut a = Asm::new();
            a.label("main");
            a.li(regs::T[0], reg_addr(base, sp_reg::BUF_A));
            a.li(regs::T[1], buf_a as i64);
            a.sd(regs::T[1], regs::T[0], 0);
            a.li(regs::T[0], reg_addr(base, sp_reg::BUF_B));
            a.li(regs::T[1], buf_b as i64);
            a.sd(regs::T[1], regs::T[0], 0);
            a.li(regs::T[0], reg_addr(base, sp_reg::NWORDS));
            a.li(regs::T[1], nwords as i64);
            a.sd(regs::T[1], regs::T[0], 0);
            a.rdcycle(regs::S[0]);
            // Store the payload.
            a.li(regs::T[2], buf_a as i64);
            a.li(regs::S[2], 0);
            a.li(regs::S[3], nwords as i64);
            a.label("st");
            a.sd(regs::S[2], regs::T[2], 0);
            a.addi(regs::T[2], regs::T[2], 8);
            a.addi(regs::S[2], regs::S[2], 1);
            a.blt(regs::S[2], regs::S[3], "st");
            a.fence();
            // Kick the copy and block on the barrier.
            a.li(regs::T[0], reg_addr(base, sp_reg::CMD));
            a.li(regs::T[1], sp_op::COPY_A_TO_B as i64);
            a.sd(regs::T[1], regs::T[0], 0);
            a.li(regs::T[0], reg_addr(base, sp_reg::BARRIER));
            a.ld(regs::T[1], regs::T[0], 0);
            // Load the payload back.
            a.li(regs::T[2], buf_b as i64);
            a.li(regs::S[2], 0);
            a.label("lda");
            a.ld(regs::T[3], regs::T[2], 0);
            a.addi(regs::T[2], regs::T[2], 8);
            a.addi(regs::S[2], regs::S[2], 1);
            a.blt(regs::S[2], regs::S[3], "lda");
            a.rdcycle(regs::S[1]);
            a.li(regs::T[5], t0_addr as i64);
            a.sd(regs::S[0], regs::T[5], 0);
            a.li(regs::T[5], t1_addr as i64);
            a.sd(regs::S[1], regs::T[5], 0);
            a.fence();
            a.halt();
            sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
            sys.run_until_halt(deadline)
                .unwrap_or_else(|e| panic!("{e}"));
            sys.quiesce(deadline + Time::from_us(100))
                .unwrap_or_else(|e| panic!("{e}"));
            let ev = events.borrow();
            let bytes = nwords * 8;
            let elapsed = match mechanism {
                Mechanism::EfpgaPullSlow | Mechanism::EfpgaPullProxy => {
                    ev.bulk_pull_end.expect("pull phase ran")
                        - ev.bulk_pull_start.expect("pull phase ran")
                }
                _ => {
                    // CPU pull: the FPGA's store phase plus the CPU's load
                    // phase (sequential in this protocol).
                    let push = ev.bulk_push_end.expect("push phase ran")
                        - ev.bulk_push_start.expect("push phase ran");
                    let t1 = sys.peek_u64(t1_addr);
                    let load_cycles = {
                        // Approximate CPU load-phase time: from barrier
                        // release (push end) to the final rdcycle.
                        let end = clock.period().mul(t1);
                        end.saturating_sub(ev.bulk_push_end.unwrap())
                    };
                    push + load_cycles
                }
            };
            BandwidthPoint {
                mechanism,
                fpga_mhz,
                bytes,
                elapsed,
            }
        }
    }
}

/// One measured point of Fig. 11.
#[derive(Clone, Copy, Debug)]
pub struct ContentionPoint {
    /// Whether shadow registers were used.
    pub shadow: bool,
    /// Number of contending processors.
    pub processors: usize,
    /// Per-processor bandwidth, MB/s.
    pub per_proc_mbps: f64,
}

/// Measures one Fig. 11 point: `p` processors hammer the same soft
/// register with write/read pairs; eFPGA fixed at 500 MHz.
pub fn measure_contention(shadow: bool, p: usize, pairs_per_cpu: u64) -> ContentionPoint {
    let mechanism = if shadow {
        Mechanism::ShadowReg
    } else {
        Mechanism::NormalReg
    };
    let (mut sys, _events) = build_system(mechanism, p, 500.0);
    let base = sys.config().mmio_base;
    let clock = sys.config().clock;
    let mut a = Asm::new();
    a.label("main");
    a.li(regs::T[0], reg_addr(base, sp_reg::DATA));
    a.li(regs::T[6], reg_addr(base, sp_reg::RESULT));
    a.li(regs::S[2], 0);
    a.li(regs::S[3], pairs_per_cpu as i64);
    a.label("loop");
    a.sd(regs::S[2], regs::T[0], 0);
    a.ld(regs::T[1], regs::T[6], 0);
    a.addi(regs::S[2], regs::S[2], 1);
    a.blt(regs::S[2], regs::S[3], "loop");
    a.halt();
    let prog = Arc::new(a.assemble().unwrap());
    for i in 0..p {
        sys.load_program(i, prog.clone(), "main");
    }
    let t = sys
        .run_until_halt(Time::from_us(200_000))
        .unwrap_or_else(|e| panic!("{e}"));
    let total_bytes = (p as u64) * pairs_per_cpu * 8 * 2;
    let per_proc = total_bytes as f64 / p as f64 / (t.as_ps() as f64 * 1e-12) / 1e6;
    let _ = clock;
    ContentionPoint {
        shadow,
        processors: p,
        per_proc_mbps: per_proc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_reg_latency_is_flat_across_fpga_clock() {
        let slow = measure_latency(Mechanism::ShadowReg, 20.0);
        let fast = measure_latency(Mechanism::ShadowReg, 500.0);
        // "The Shadow Registers also have a fixed latency."
        let ratio = slow.total.as_ps() as f64 / fast.total.as_ps() as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "shadow latency must be clock-independent: {} vs {}",
            slow.total,
            fast.total
        );
    }

    #[test]
    fn normal_reg_latency_grows_as_fpga_slows() {
        let slow = measure_latency(Mechanism::NormalReg, 20.0);
        let fast = measure_latency(Mechanism::NormalReg, 500.0);
        assert!(
            slow.total.as_ps() > 2 * fast.total.as_ps(),
            "normal-reg latency must scale with the eFPGA clock: {} vs {}",
            slow.total,
            fast.total
        );
    }

    #[test]
    fn shadow_beats_normal_at_every_frequency() {
        for mhz in [20.0, 100.0, 500.0] {
            let n = measure_latency(Mechanism::NormalReg, mhz);
            let s = measure_latency(Mechanism::ShadowReg, mhz);
            assert!(
                s.total < n.total,
                "shadow ({}) must beat normal ({}) at {mhz} MHz",
                s.total,
                n.total
            );
        }
    }

    #[test]
    fn cpu_pull_proxy_is_flat_and_beats_slow_cache() {
        let p_slowclk = measure_latency(Mechanism::CpuPullProxy, 20.0);
        let p_fastclk = measure_latency(Mechanism::CpuPullProxy, 500.0);
        // "the Proxy Cache achieves a constant latency regardless of the
        // eFPGA clock frequency."
        let ratio = p_slowclk.total.as_ps() as f64 / p_fastclk.total.as_ps() as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "proxy cpu-pull not flat: {} vs {}",
            p_slowclk.total,
            p_fastclk.total
        );
        let s = measure_latency(Mechanism::CpuPullSlow, 100.0);
        let p = measure_latency(Mechanism::CpuPullProxy, 100.0);
        assert!(
            p.total < s.total,
            "proxy ({}) must beat slow cache ({})",
            p.total,
            s.total
        );
    }

    #[test]
    fn efpga_pull_proxy_beats_slow_cache_more_as_clock_drops() {
        let s100 = measure_latency(Mechanism::EfpgaPullSlow, 100.0);
        let p100 = measure_latency(Mechanism::EfpgaPullProxy, 100.0);
        assert!(p100.total < s100.total);
        let s20 = measure_latency(Mechanism::EfpgaPullSlow, 20.0);
        let p20 = measure_latency(Mechanism::EfpgaPullProxy, 20.0);
        let red20 = 1.0 - p20.total.as_ps() as f64 / s20.total.as_ps() as f64;
        let red100 = 1.0 - p100.total.as_ps() as f64 / s100.total.as_ps() as f64;
        assert!(
            red20 > red100,
            "reduction should grow as the eFPGA slows: {red20:.2} vs {red100:.2}"
        );
    }

    #[test]
    fn breakdown_sums_to_total() {
        for m in [Mechanism::EfpgaPullProxy, Mechanism::EfpgaPullSlow] {
            let p = measure_latency(m, 100.0);
            let sum = p.breakdown.total();
            let diff = sum.as_ps().abs_diff(p.total.as_ps());
            assert!(
                diff <= p.total.as_ps() / 5,
                "{}: breakdown {} vs total {}",
                m.label(),
                sum,
                p.total
            );
        }
    }

    #[test]
    fn bandwidth_proxy_beats_slow_cache() {
        let nwords = 64; // smaller than the paper's 512 to keep tests quick
        let p = measure_bandwidth(Mechanism::EfpgaPullProxy, 100.0, nwords);
        let s = measure_bandwidth(Mechanism::EfpgaPullSlow, 100.0, nwords);
        assert!(
            p.mbps() > s.mbps(),
            "proxy {:.0} MB/s must beat slow cache {:.0} MB/s",
            p.mbps(),
            s.mbps()
        );
    }

    #[test]
    fn shadow_regs_sustain_more_processors_than_normal() {
        let s1 = measure_contention(true, 1, 40);
        let s4 = measure_contention(true, 4, 40);
        let n1 = measure_contention(false, 1, 40);
        let n4 = measure_contention(false, 4, 40);
        // Shadow scales better: per-proc bandwidth degrades less.
        let s_scale = s4.per_proc_mbps / s1.per_proc_mbps;
        let n_scale = n4.per_proc_mbps / n1.per_proc_mbps;
        assert!(
            s_scale > n_scale,
            "shadow scaling {s_scale:.2} must beat normal {n_scale:.2}"
        );
    }
}
