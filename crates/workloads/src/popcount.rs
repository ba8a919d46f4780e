//! **Popcount** (P1M1, fine-grained acceleration; Sec. V-D).
//!
//! Counts the ones in 512-bit vectors. "Since the Ariane processor does not
//! support the RISC-V BitManip Extension, we use a byte look-up algorithm
//! for the processor-only baseline. The accelerator is hand-written in
//! Verilog and uses one Memory Hub to load the bit vector from coherent
//! memory."

use std::sync::Arc;

use duet_core::RegMode;
use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_fpga::fabric::NetlistSummary;
use duet_fpga::ports::{FabricPorts, FpgaRespKind, SoftAccelerator};
use duet_fpga::regfile::FabricRegFile;
use duet_sim::{SimRng, Time};
use duet_system::System;

use crate::common::{AppResult, BenchVariant};

/// Accelerator clock from Table II.
pub const POPCOUNT_MHZ: f64 = 189.0;

const VEC_BYTES: u64 = 64; // 512 bits
const LINES_PER_VEC: u64 = VEC_BYTES / 16;

/// Memory layout of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct PopcountLayout {
    /// Base of the vector array.
    pub vectors: u64,
    /// Base of the output counts (u64 each).
    pub out: u64,
    /// Byte-popcount lookup table (256 × 1 B), baseline only.
    pub lut: u64,
    /// Number of vectors.
    pub n: u64,
}

impl PopcountLayout {
    /// Default layout for `n` vectors.
    pub fn new(n: u64) -> Self {
        PopcountLayout {
            vectors: 0x1_0000,
            out: 0x3_0000,
            lut: 0x4_0000,
            n,
        }
    }
}

/// The hand-written popcount accelerator: one argument register carries the
/// vector address; the design streams the four lines through the Memory
/// Hub (one load per cycle, fills pipelined) and a compressor tree reduces
/// them in a single cycle.
pub struct PopcountAccel {
    regs: FabricRegFile,
    issued: u64,
    fills: u64,
    acc: u64,
    cur: Option<u64>,
}

impl PopcountAccel {
    /// Creates the design (`push_mode` per system variant).
    pub fn new(push_mode: bool) -> Self {
        let mut regs = FabricRegFile::new(push_mode);
        regs.set_queue(1);
        PopcountAccel {
            regs,
            issued: 0,
            fills: 0,
            acc: 0,
            cur: None,
        }
    }

    /// The design's soft-register endpoint.
    pub fn regs(&self) -> &FabricRegFile {
        &self.regs
    }
}

duet_sim::snap_fields!(PopcountAccel {
    regs,
    issued,
    fills,
    acc,
    cur
});

impl SoftAccelerator for PopcountAccel {
    fn name(&self) -> &str {
        "popcount"
    }

    fn tick(&mut self, ports: &mut FabricPorts<'_>) {
        let now = ports.now;
        self.regs.tick(now, &mut ports.regs);
        if self.cur.is_none() {
            if let Some(addr) = self.regs.pop_write(0) {
                self.cur = Some(addr);
                self.issued = 0;
                self.fills = 0;
                self.acc = 0;
            }
        }
        if let Some(addr) = self.cur {
            // Drain fills.
            while let Some(resp) = ports.hubs[0].pop_resp(now) {
                if let FpgaRespKind::LoadAck { data } = resp.kind {
                    self.acc += data
                        .iter()
                        .map(|b| u64::from(b.count_ones() as u8))
                        .sum::<u64>();
                    self.fills += 1;
                }
            }
            // Issue one load per cycle.
            if self.issued < LINES_PER_VEC {
                let a = addr + self.issued * 16;
                if ports.hubs[0].load_line(now, self.issued + 1, a) {
                    self.issued += 1;
                }
            }
            if self.fills == LINES_PER_VEC {
                self.regs.push_result(1, self.acc);
                self.cur = None;
            }
        }
        self.regs.tick(now, &mut ports.regs);
    }

    fn netlist(&self) -> NetlistSummary {
        // Calibrated against Table II (popcount: 189 MHz, norm. area 2.77,
        // CLB 0.83, BRAM 0.56).
        NetlistSummary {
            name: "popcount",
            luts: 9420,
            ffs: 13188,
            bram_kbits: 3392,
            mults: 0,
            logic_levels: 2,
        }
    }

    fn reset(&mut self) {
        self.cur = None;
    }

    // `is_idle` keeps the default (always busy): the design's trace events
    // and what the watchdog fences stay as they were.
    fn awaits_input(&self) -> bool {
        // With the register endpoint drained and no argument queued, a
        // tick can only issue the next load or count a fill; once every
        // load of the vector is issued, only a fill (input) moves it.
        self.regs.is_quiescent()
            && !self.regs.has_pending_write(0)
            && self
                .cur
                .is_none_or(|_| self.issued == LINES_PER_VEC && self.fills < LINES_PER_VEC)
    }
}

/// Generates `n` random vectors and their expected counts.
pub fn generate(n: u64, seed: u64) -> (Vec<u8>, Vec<u64>) {
    let mut rng = SimRng::new(seed);
    let mut bytes = vec![0u8; (n * VEC_BYTES) as usize];
    for b in bytes.iter_mut() {
        *b = rng.next_u64() as u8;
    }
    let expected = (0..n)
        .map(|v| {
            bytes[(v * VEC_BYTES) as usize..((v + 1) * VEC_BYTES) as usize]
                .iter()
                .map(|b| u64::from(b.count_ones() as u8))
                .sum()
        })
        .collect();
    (bytes, expected)
}

fn install_data(sys: &mut System, layout: &PopcountLayout, bytes: &[u8]) {
    sys.poke_bytes(layout.vectors, bytes);
    // Baseline LUT.
    let lut: Vec<u8> = (0..=255u8).map(|b| b.count_ones() as u8).collect();
    sys.poke_bytes(layout.lut, &lut);
}

fn check(sys: &System, layout: &PopcountLayout, expected: &[u64]) -> bool {
    (0..layout.n).all(|v| sys.peek_u64(layout.out + v * 8) == expected[v as usize])
}

/// Scores a system built by [`prepare`]: layout plus expected counts.
pub struct PopcountCheck {
    layout: PopcountLayout,
    expected: Vec<u64>,
}

impl PopcountCheck {
    /// Whether every output count matches the reference.
    pub fn check(&self, sys: &System) -> bool {
        check(sys, &self.layout, &self.expected)
    }
}

/// Builds a ready-to-run popcount system — data installed, program loaded,
/// accelerator attached (for the accelerated variants), caches warmed (for
/// the baseline) — without running it. `faults` is folded into the system
/// config before construction, so callers (the service layer, fault
/// harnesses) can schedule deterministic fault windows around the workload
/// and drive the run through the `Result`-typed run APIs themselves.
pub fn prepare(
    variant: BenchVariant,
    n: u64,
    seed: u64,
    faults: duet_system::FaultPlan,
) -> (System, PopcountCheck) {
    let layout = PopcountLayout::new(n);
    let (bytes, expected) = generate(n, seed);
    let mut cfg = variant.system_config(1, 1, POPCOUNT_MHZ);
    cfg.faults = faults;
    let mut sys = System::new(cfg).expect("valid config");
    install_data(&mut sys, &layout, &bytes);

    let prog = match variant {
        BenchVariant::ProcOnly => {
            // Byte-LUT loop over every vector.
            let mut a = Asm::new();
            a.label("main");
            let (vbase, obase, lbase) = (regs::S[0], regs::S[1], regs::S[2]);
            let (v, cnt, i) = (regs::S[3], regs::S[4], regs::S[5]);
            a.li(vbase, layout.vectors as i64);
            a.li(obase, layout.out as i64);
            a.li(lbase, layout.lut as i64);
            a.li(v, 0);
            a.label("vec");
            a.li(cnt, 0);
            a.li(i, 0);
            a.label("byte");
            // t0 = vectors[v*64 + i]
            a.add(regs::T[0], vbase, i);
            a.lbu(regs::T[1], regs::T[0], 0);
            // t2 = lut[t1]
            a.add(regs::T[2], lbase, regs::T[1]);
            a.lbu(regs::T[3], regs::T[2], 0);
            a.add(cnt, cnt, regs::T[3]);
            a.addi(i, i, 1);
            a.li(regs::T[4], VEC_BYTES as i64);
            a.blt(i, regs::T[4], "byte");
            a.sd(cnt, obase, 0);
            a.addi(obase, obase, 8);
            a.addi(vbase, vbase, VEC_BYTES as i64);
            a.addi(v, v, 1);
            a.li(regs::T[4], n as i64);
            a.blt(v, regs::T[4], "vec");
            a.fence();
            a.halt();
            a.assemble().unwrap()
        }
        _ => {
            // Invoke the accelerator per vector: write addr, read count.
            let base = sys.config().mmio_base;
            sys.set_reg_mode(0, RegMode::FpgaBound);
            sys.set_reg_mode(1, RegMode::CpuBound);
            sys.attach_accelerator(Box::new(PopcountAccel::new(variant.push_mode())));
            let mut a = Asm::new();
            a.label("main");
            let (vaddr, obase, v) = (regs::S[0], regs::S[1], regs::S[2]);
            let (arg, res) = (regs::S[3], regs::S[4]);
            a.li(vaddr, layout.vectors as i64);
            a.li(obase, layout.out as i64);
            a.li(arg, base as i64);
            a.li(res, (base + 8) as i64);
            a.li(v, 0);
            a.label("vec");
            a.sd(vaddr, arg, 0); // invoke
            a.ld(regs::T[0], res, 0); // blocking result read
            a.sd(regs::T[0], obase, 0);
            a.addi(obase, obase, 8);
            a.addi(vaddr, vaddr, VEC_BYTES as i64);
            a.addi(v, v, 1);
            a.li(regs::T[4], n as i64);
            a.blt(v, regs::T[4], "vec");
            a.fence();
            a.halt();
            a.assemble().unwrap()
        }
    };
    sys.load_program(0, Arc::new(prog), "main");
    if variant == BenchVariant::ProcOnly {
        // Warm start (Sec. V-A): baseline data resident.
        sys.warm_shared(layout.vectors, n * VEC_BYTES, 0);
        sys.warm_shared(layout.lut, 256, 0);
    }
    (sys, PopcountCheck { layout, expected })
}

/// Runs the popcount benchmark on the given variant.
pub fn run(variant: BenchVariant, n: u64, seed: u64) -> AppResult {
    let (mut sys, scorer) = prepare(variant, n, seed, duet_system::FaultPlan::empty());
    let runtime = sys
        .run_until_halt(Time::from_us(200_000))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(Time::from_us(400_000))
        .unwrap_or_else(|e| panic!("{e}"));
    AppResult {
        name: "popcount".into(),
        variant,
        processors: 1,
        memory_hubs: 1,
        fpga_mhz: POPCOUNT_MHZ,
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
    fn all_variants_compute_correct_counts() {
        for v in [
            BenchVariant::ProcOnly,
            BenchVariant::Duet,
            BenchVariant::Fpsoc,
        ] {
            let r = run(v, 6, 42);
            assert!(r.correct, "{} produced wrong counts", v.label());
        }
    }

    #[test]
    fn duet_beats_proc_only_and_fpsoc() {
        let base = run(BenchVariant::ProcOnly, 8, 7);
        let duet = run(BenchVariant::Duet, 8, 7);
        let fpsoc = run(BenchVariant::Fpsoc, 8, 7);
        assert!(base.correct && duet.correct && fpsoc.correct);
        let s_duet = duet.speedup_over(&base);
        let s_fpsoc = fpsoc.speedup_over(&base);
        assert!(s_duet > 1.0, "Duet speedup {s_duet:.2} must exceed 1");
        assert!(
            s_duet > s_fpsoc,
            "Duet ({s_duet:.2}x) must beat FPSoC ({s_fpsoc:.2}x)"
        );
    }
}
