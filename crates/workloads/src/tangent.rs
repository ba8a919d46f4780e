//! **Tangent** (P1M0, fine-grained acceleration; Sec. V-D).
//!
//! "A floating-point Tangent accelerator is implemented with Catapult HLS
//! using a piece-wise linear approximation algorithm with a maximum error
//! rate of 0.3% compared to the C math library (libm). An FPGA-bound FIFO
//! is used to pass the argument to the accelerator and invoke it. Results
//! are returned through an CPU-bound FIFO."
//!
//! The processor-only baseline is a faithful software `tan`: argument
//! reduction modulo π/2 followed by sine/cosine Taylor series and a divide
//! — the work profile of a libm implementation on an in-order core.

use std::collections::VecDeque;
use std::sync::Arc;

use duet_core::RegMode;
use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_fpga::fabric::NetlistSummary;
use duet_fpga::ports::{FabricPorts, SoftAccelerator};
use duet_fpga::regfile::FabricRegFile;
use duet_sim::{SimRng, Time};
use duet_system::System;

use crate::common::{AppResult, BenchVariant};

/// Accelerator clock from Table II.
pub const TANGENT_MHZ: f64 = 282.0;

/// Pipeline depth of the HLS design (slow cycles from argument to result).
const PIPE_DEPTH: usize = 6;

/// Piece-wise linear tangent on `[0, π/4]` with 256 segments — the same
/// approximation structure as the paper's accelerator (≈0.3 % max error).
pub fn pwl_tan(x: f64) -> f64 {
    // Argument reduction: x = k·(π/2) + r, r ∈ [-π/4, π/4).
    let k = (x * std::f64::consts::FRAC_2_PI).round();
    let r = x - k * std::f64::consts::FRAC_PI_2;
    let (mag, neg) = (r.abs(), r < 0.0);
    // PWL evaluation with quantized slopes (models the BRAM table).
    const SEGS: usize = 256;
    let step = std::f64::consts::FRAC_PI_4 / SEGS as f64;
    let i = ((mag / step) as usize).min(SEGS - 1);
    let x0 = i as f64 * step;
    let (y0, y1) = ((x0).tan(), (x0 + step).tan());
    // Quantize table entries to 16 fractional bits (BRAM width).
    let q = |v: f64| (v * 65536.0).round() / 65536.0;
    let t = q(y0) + (mag - x0) / step * (q(y1) - q(y0));
    let t = if neg { -t } else { t };
    if (k as i64) % 2 == 0 {
        t
    } else {
        -1.0 / t
    }
}

/// The tangent accelerator: FPGA-bound argument FIFO in, CPU-bound result
/// FIFO out, initiation interval 1 with a 6-cycle pipeline.
pub struct TangentAccel {
    regs: FabricRegFile,
    pipe: VecDeque<(usize, u64)>,
    ticks: usize,
}

impl TangentAccel {
    /// Creates the design.
    pub fn new(push_mode: bool) -> Self {
        let mut regs = FabricRegFile::new(push_mode);
        regs.set_queue(1);
        TangentAccel {
            regs,
            pipe: VecDeque::new(),
            ticks: 0,
        }
    }
}

duet_sim::snap_fields!(TangentAccel { regs, pipe, ticks });

impl SoftAccelerator for TangentAccel {
    fn name(&self) -> &str {
        "tangent"
    }

    fn tick(&mut self, ports: &mut FabricPorts<'_>) {
        let now = ports.now;
        self.ticks += 1;
        self.regs.tick(now, &mut ports.regs);
        if let Some(bits) = self.regs.pop_write(0) {
            let y = pwl_tan(f64::from_bits(bits));
            self.pipe.push_back((self.ticks + PIPE_DEPTH, y.to_bits()));
        }
        while self
            .pipe
            .front()
            .is_some_and(|(ready, _)| *ready <= self.ticks)
        {
            let (_, bits) = self.pipe.pop_front().unwrap();
            self.regs.push_result(1, bits);
        }
        self.regs.tick(now, &mut ports.regs);
    }

    fn netlist(&self) -> NetlistSummary {
        // Calibrated against Table II (tangent: 282 MHz, norm. area 0.47,
        // CLB 0.84, BRAM 0).
        NetlistSummary {
            name: "tangent",
            luts: 1660,
            ffs: 2324,
            bram_kbits: 0,
            mults: 2,
            logic_levels: 2,
        }
    }
}

/// Emits the software `tan` subroutine: input f64 bits in `a0`, result in
/// `a0`. Uses T registers and `S[6..7]`; no stack.
fn emit_tan_soft(a: &mut Asm) {
    let x = regs::A[0];
    let (k, r, r2) = (regs::T[0], regs::T[1], regs::T[2]);
    let (acc, term, tmp) = (regs::T[3], regs::T[4], regs::T[5]);
    let (sin, cos) = (regs::S[6], regs::S[7]);
    let kint = regs::T[6];

    a.label("tan_soft");
    // k = round(x * 2/pi)  (inputs are positive; round = trunc(x+0.5))
    a.lfd(tmp, std::f64::consts::FRAC_2_PI);
    a.fmul(k, x, tmp);
    a.lfd(tmp, 0.5);
    a.fadd(k, k, tmp);
    a.f2i(kint, k);
    a.i2f(k, kint);
    // r = x - k*pi/2 (split-constant reduction for accuracy)
    a.lfd(tmp, 1.5707963267341256);
    a.fmul(tmp, k, tmp);
    a.fsub(r, x, tmp);
    a.lfd(tmp, 6.077100506506192e-11);
    a.fmul(tmp, k, tmp);
    a.fsub(r, r, tmp);
    // r2 = r*r
    a.fmul(r2, r, r);
    // sin(r) via Horner: r * (1 + r2*(-1/6 + r2*(1/120 + r2*(-1/5040 +
    // r2*(1/362880 - r2/39916800)))))
    a.lfd(acc, -1.0 / 39_916_800.0);
    for c in [
        1.0 / 362_880.0,
        -1.0 / 5_040.0,
        1.0 / 120.0,
        -1.0 / 6.0,
        1.0,
    ] {
        a.fmul(acc, acc, r2);
        a.lfd(term, c);
        a.fadd(acc, acc, term);
    }
    a.fmul(sin, acc, r);
    // cos(r): 1 + r2*(-1/2 + r2*(1/24 + r2*(-1/720 + r2*(1/40320 -
    // r2/3628800))))
    a.lfd(acc, -1.0 / 3_628_800.0);
    for c in [1.0 / 40_320.0, -1.0 / 720.0, 1.0 / 24.0, -0.5, 1.0] {
        a.fmul(acc, acc, r2);
        a.lfd(term, c);
        a.fadd(acc, acc, term);
    }
    a.mv(cos, acc);
    // k odd -> tan = -cos/sin; even -> sin/cos.
    a.andi(kint, kint, 1);
    a.bnez(kint, "tan_soft_odd");
    a.fdiv(regs::A[0], sin, cos);
    a.ret();
    a.label("tan_soft_odd");
    a.fdiv(regs::A[0], cos, sin);
    // negate: 0 - v
    a.lfd(tmp, 0.0);
    a.fsub(regs::A[0], tmp, regs::A[0]);
    a.ret();
}

/// Memory layout.
#[derive(Clone, Copy, Debug)]
pub struct TangentLayout {
    /// Input angles (f64 each).
    pub input: u64,
    /// Output results (f64 each).
    pub out: u64,
    /// Count.
    pub n: u64,
}

impl TangentLayout {
    /// Default layout.
    pub fn new(n: u64) -> Self {
        TangentLayout {
            input: 0x1_0000,
            out: 0x2_0000,
            n,
        }
    }
}

/// Generates `n` positive angles, avoiding the poles of `tan`.
pub fn generate(n: u64, seed: u64) -> Vec<f64> {
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|_| loop {
            let x = rng.next_f64() * 9.0 + 0.05;
            if f64::tan(x).abs() < 8.0 {
                break x;
            }
        })
        .collect()
}

/// Scores a system built by [`prepare`]: layout, reference angles, and the
/// variant-specific tolerance (exact-ish for the software `tan`, the PWL
/// error bound for the accelerated designs).
pub struct TangentCheck {
    layout: TangentLayout,
    angles: Vec<f64>,
    tol: f64,
}

impl TangentCheck {
    /// Whether every output is within tolerance of the reference `tan`.
    pub fn check(&self, sys: &System) -> bool {
        self.angles.iter().enumerate().all(|(i, &x)| {
            let got = sys.peek_f64(self.layout.out + (i as u64) * 8);
            let want = x.tan();
            (got - want).abs() <= self.tol * want.abs().max(1.0)
        })
    }
}

/// Builds a ready-to-run tangent system without running it — the
/// fault-injectable sibling of [`run`], mirroring
/// [`popcount::prepare`](crate::popcount::prepare). `faults` is folded
/// into the system config before construction.
pub fn prepare(
    variant: BenchVariant,
    n: u64,
    seed: u64,
    faults: duet_system::FaultPlan,
) -> (System, TangentCheck) {
    let layout = TangentLayout::new(n);
    let angles = generate(n, seed);
    let mut cfg = variant.system_config(1, 0, TANGENT_MHZ);
    cfg.faults = faults;
    let mut sys = System::new(cfg).expect("valid config");
    for (i, &x) in angles.iter().enumerate() {
        sys.poke_f64(layout.input + (i as u64) * 8, x);
    }

    let prog = match variant {
        BenchVariant::ProcOnly => {
            let mut a = Asm::new();
            a.label("main");
            let (ibase, obase, i) = (regs::S[0], regs::S[1], regs::S[2]);
            a.li(ibase, layout.input as i64);
            a.li(obase, layout.out as i64);
            a.li(i, 0);
            a.label("loop");
            a.ld(regs::A[0], ibase, 0);
            a.call("tan_soft");
            a.sd(regs::A[0], obase, 0);
            a.addi(ibase, ibase, 8);
            a.addi(obase, obase, 8);
            a.addi(i, i, 1);
            a.li(regs::S[3], n as i64);
            a.blt(i, regs::S[3], "loop");
            a.fence();
            a.halt();
            emit_tan_soft(&mut a);
            a.assemble().unwrap()
        }
        _ => {
            // Software pipelining (Fig. 7 ②): keep `DEPTH` arguments in
            // flight through the FPGA-bound FIFO so the accelerator's
            // pipeline stays busy. With shadow registers the writes ack
            // from the fast domain; with normal registers each write stalls
            // for the full crossing — the source of the Duet/FPSoC gap.
            const DEPTH: u64 = 4;
            let depth = DEPTH.min(n);
            let base = sys.config().mmio_base;
            sys.set_reg_mode(0, RegMode::FpgaBound);
            sys.set_reg_mode(1, RegMode::CpuBound);
            sys.attach_accelerator(Box::new(TangentAccel::new(variant.push_mode())));
            let mut a = Asm::new();
            a.label("main");
            let (ibase, obase, i) = (regs::S[0], regs::S[1], regs::S[2]);
            let (arg, res) = (regs::S[3], regs::S[4]);
            a.li(ibase, layout.input as i64);
            a.li(obase, layout.out as i64);
            a.li(arg, base as i64);
            a.li(res, (base + 8) as i64);
            // Prologue: prime the FIFO with `depth` arguments.
            a.li(i, 0);
            a.label("prime");
            a.ld(regs::T[0], ibase, 0);
            a.sd(regs::T[0], arg, 0);
            a.addi(ibase, ibase, 8);
            a.addi(i, i, 1);
            a.li(regs::T[2], depth as i64);
            a.blt(i, regs::T[2], "prime");
            // Steady state: read result k, write argument k+depth.
            a.li(i, 0);
            a.li(regs::S[5], (n - depth) as i64);
            a.beqz(regs::S[5], "drain_setup");
            a.label("loop");
            a.ld(regs::T[1], res, 0);
            a.sd(regs::T[1], obase, 0);
            a.addi(obase, obase, 8);
            a.ld(regs::T[0], ibase, 0);
            a.sd(regs::T[0], arg, 0);
            a.addi(ibase, ibase, 8);
            a.addi(i, i, 1);
            a.blt(i, regs::S[5], "loop");
            a.label("drain_setup");
            a.li(i, 0);
            a.li(regs::S[5], depth as i64);
            a.label("drain");
            a.ld(regs::T[1], res, 0);
            a.sd(regs::T[1], obase, 0);
            a.addi(obase, obase, 8);
            a.addi(i, i, 1);
            a.blt(i, regs::S[5], "drain");
            a.fence();
            a.halt();
            a.assemble().unwrap()
        }
    };
    sys.load_program(0, Arc::new(prog), "main");
    if variant == BenchVariant::ProcOnly {
        sys.warm_shared(layout.input, n * 8, 0);
    }
    let tol = match variant {
        BenchVariant::ProcOnly => 1e-6,
        _ => 0.005, // the PWL design guarantees 0.3 %
    };
    (
        sys,
        TangentCheck {
            layout,
            angles,
            tol,
        },
    )
}

/// Runs the tangent benchmark.
pub fn run(variant: BenchVariant, n: u64, seed: u64) -> AppResult {
    let (mut sys, scorer) = prepare(variant, n, seed, duet_system::FaultPlan::empty());
    let runtime = sys
        .run_until_halt(Time::from_us(200_000))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(Time::from_us(400_000))
        .unwrap_or_else(|e| panic!("{e}"));
    AppResult {
        name: "tangent".into(),
        variant,
        processors: 1,
        memory_hubs: 0,
        fpga_mhz: TANGENT_MHZ,
        runtime,
        correct: scorer.check(&sys),
        stats: sys.stats(),
        sim_ps: sys.now().as_ps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pwl_tan_within_paper_error_bound() {
        let mut rng = SimRng::new(3);
        for _ in 0..2000 {
            let x = rng.next_f64() * 9.0 + 0.05;
            let want = x.tan();
            if want.abs() > 8.0 {
                continue; // poles excluded, as in the workload
            }
            let got = pwl_tan(x);
            let rel = (got - want).abs() / want.abs().max(1.0);
            assert!(rel < 0.003, "pwl_tan({x}) = {got}, want {want}, rel {rel}");
        }
    }

    #[test]
    fn software_tan_is_accurate() {
        let r = run(BenchVariant::ProcOnly, 4, 11);
        assert!(r.correct, "software tan out of tolerance");
    }

    #[test]
    fn accelerated_variants_are_correct_and_duet_fastest() {
        let base = run(BenchVariant::ProcOnly, 12, 5);
        let duet = run(BenchVariant::Duet, 12, 5);
        let fpsoc = run(BenchVariant::Fpsoc, 12, 5);
        assert!(base.correct && duet.correct && fpsoc.correct);
        assert!(
            duet.runtime < fpsoc.runtime,
            "duet {} vs fpsoc {}",
            duet.runtime,
            fpsoc.runtime
        );
        assert!(
            duet.speedup_over(&base) > 1.0,
            "tangent Duet speedup {:.2}",
            duet.speedup_over(&base)
        );
    }
}
