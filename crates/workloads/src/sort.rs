//! **Sort** (P1M2, fine-grained acceleration; Sec. V-D).
//!
//! "We use the SPIRAL Project to generate 3 sorting networks in Verilog for
//! sorting 32, 64, 128 double-word (4-Byte) integers. The accelerator uses
//! two memory hubs, one for reading the input array from coherent memory
//! and one for writing the sorted array back, so that the accelerator can
//! be pipelined to sort fixed-length slices of a larger array which can
//! then be merge-sorted by the processor. The processor-only baseline runs
//! quicksort on the entire array."

use std::sync::Arc;

use duet_core::RegMode;
use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_fpga::fabric::NetlistSummary;
use duet_fpga::ports::{FabricPorts, FpgaRespKind, SoftAccelerator};
use duet_fpga::regfile::FabricRegFile;
use duet_mem::types::Width;
use duet_sim::{SimRng, Time};
use duet_system::System;

use crate::common::{AppResult, BenchVariant};

/// Accelerator clock per network size (Table II).
pub fn sort_mhz(slice: u64) -> f64 {
    match slice {
        32 => 228.0,
        64 => 234.0,
        _ => 228.0,
    }
}

#[derive(Clone, Debug)]
struct LoadJob {
    slice_no: u64,
    issued: u64,
    filled: u64,
    vals: Vec<u32>,
}

#[derive(Clone, Debug)]
struct StoreJob {
    slice_no: u64,
    ready_tick: u64,
    vals: Vec<u32>,
    next: u64,
    acks: u64,
}

/// The streaming sorting-network accelerator: hub 0 reads input slices,
/// hub 1 writes sorted slices back. The two engines run concurrently —
/// "the accelerator can be pipelined to sort fixed-length slices of a
/// larger array" — so slice k+1 streams in while slice k streams out,
/// separated by the `log²(n)`-stage network.
pub struct SortAccel {
    regs: FabricRegFile,
    slice: u64,
    ticks: u64,
    loading: Option<LoadJob>,
    storing: Option<StoreJob>,
    drained: std::collections::VecDeque<StoreJob>,
    src_base: u64,
    dst_base: u64,
}

impl SortAccel {
    /// Creates a network for `slice` elements (32/64/128).
    pub fn new(push_mode: bool, slice: u64) -> Self {
        let mut regs = FabricRegFile::new(push_mode);
        regs.set_queue(1);
        SortAccel {
            regs,
            slice,
            ticks: 0,
            loading: None,
            storing: None,
            drained: std::collections::VecDeque::new(),
            src_base: 0,
            dst_base: 0,
        }
    }

    fn network_depth(&self) -> u64 {
        // Bitonic network: log2(n) * (log2(n)+1) / 2 stages.
        let l = 64 - (self.slice - 1).leading_zeros() as u64;
        l * (l + 1) / 2
    }
}

duet_sim::pack_struct!(LoadJob {
    slice_no,
    issued,
    filled,
    vals
});
duet_sim::pack_struct!(StoreJob {
    slice_no,
    ready_tick,
    vals,
    next,
    acks
});
duet_sim::snap_fields!(SortAccel {
    regs,
    ticks,
    loading,
    storing,
    drained,
    src_base,
    dst_base
});

impl SoftAccelerator for SortAccel {
    fn name(&self) -> &str {
        "sort"
    }

    fn tick(&mut self, ports: &mut FabricPorts<'_>) {
        let now = ports.now;
        self.ticks += 1;
        self.regs.tick(now, &mut ports.regs);
        self.src_base = self.regs.value(2).max(self.src_base);
        self.dst_base = self.regs.value(3).max(self.dst_base);
        if ports.hubs.len() < 2 {
            self.regs.tick(now, &mut ports.regs);
            return;
        }

        // --- load engine (hub 0): one line fill per cycle ---
        while let Some(resp) = ports.hubs[0].pop_resp(now) {
            if let FpgaRespKind::LoadAck { data } = resp.kind {
                if let Some(job) = &mut self.loading {
                    for k in 0..4 {
                        let v = u32::from_le_bytes(data[k * 4..k * 4 + 4].try_into().unwrap());
                        job.vals.push(v);
                    }
                    job.filled += 1;
                }
            }
        }
        if self.loading.is_none() {
            if let Some(slice_no) = self.regs.pop_write(0) {
                self.loading = Some(LoadJob {
                    slice_no,
                    issued: 0,
                    filled: 0,
                    vals: Vec::with_capacity(self.slice as usize),
                });
            }
        }
        let lines = self.slice / 4;
        let mut load_done = false;
        if let Some(job) = &mut self.loading {
            if job.issued < lines {
                let src = self.src_base + job.slice_no * self.slice * 4;
                if ports.hubs[0].load_line(now, job.issued + 1, src + job.issued * 16) {
                    job.issued += 1;
                }
            } else if job.filled == lines {
                load_done = true;
            }
        }
        if load_done {
            let mut job = self.loading.take().unwrap();
            job.vals.sort_unstable(); // the network's function
            self.drained.push_back(StoreJob {
                slice_no: job.slice_no,
                ready_tick: self.ticks + self.network_depth(),
                vals: job.vals,
                next: 0,
                acks: 0,
            });
        }

        // --- store engine (hub 1): one 8-byte store per cycle ("the L2
        // only supports stores up to 8 Bytes", Sec. V-C) ---
        while let Some(resp) = ports.hubs[1].pop_resp(now) {
            if let FpgaRespKind::StoreAck { .. } = resp.kind {
                if let Some(job) = &mut self.storing {
                    job.acks += 1;
                    if job.acks == self.slice / 2 {
                        self.regs.push_result(1, job.slice_no);
                        self.storing = None;
                    }
                }
            }
        }
        if self.storing.is_none() {
            if let Some(front) = self.drained.front() {
                if front.ready_tick <= self.ticks {
                    self.storing = Some(self.drained.pop_front().unwrap());
                }
            }
        }
        if let Some(job) = &mut self.storing {
            if job.next < self.slice / 2 {
                let lo = job.vals[(job.next * 2) as usize] as u64;
                let hi = job.vals[(job.next * 2 + 1) as usize] as u64;
                let packed = lo | (hi << 32);
                let dst = self.dst_base + job.slice_no * self.slice * 4;
                if ports.hubs[1].store(now, 1000 + job.next, dst + job.next * 8, Width::B8, packed)
                {
                    job.next += 1;
                }
            }
        }
        self.regs.tick(now, &mut ports.regs);
    }

    fn netlist(&self) -> NetlistSummary {
        // Calibrated against Table II (sort32: 228 MHz / 6.29 / CLB 0.30 /
        // BRAM 0.76; sort64: 234 / 8.10 / 0.27 / 0.92; sort128: 228 /
        // 10.27 / 0.27 / 0.92).
        match self.slice {
            32 => NetlistSummary {
                name: "sort32",
                luts: 7560,
                ffs: 10584,
                bram_kbits: 12128,
                mults: 0,
                logic_levels: 2,
            },
            64 => NetlistSummary {
                name: "sort64",
                luts: 8990,
                ffs: 12586,
                bram_kbits: 15904,
                mults: 0,
                logic_levels: 1,
            },
            _ => NetlistSummary {
                name: "sort128",
                luts: 11470,
                ffs: 16058,
                bram_kbits: 20192,
                mults: 0,
                logic_levels: 1,
            },
        }
    }

    fn reset(&mut self) {
        self.loading = None;
        self.storing = None;
        self.drained.clear();
    }
}

/// Memory layout.
#[derive(Clone, Copy, Debug)]
pub struct SortLayout {
    /// Unsorted input (u32 each).
    pub input: u64,
    /// Accelerator slice output region.
    pub slices: u64,
    /// Final sorted output.
    pub out: u64,
    /// Quicksort stack region (baseline).
    pub stack: u64,
    /// Element count.
    pub n: u64,
}

impl SortLayout {
    /// Default layout.
    pub fn new(n: u64) -> Self {
        SortLayout {
            input: 0x1_0000,
            slices: 0x2_0000,
            out: 0x3_0000,
            stack: 0x4_0000,
            n,
        }
    }
}

/// Emits iterative quicksort over u32 `a[base..base+n)` using an explicit
/// stack of (lo, hi) index pairs.
fn emit_quicksort(a: &mut Asm, base_reg: duet_cpu::isa::Reg, n: u64, stack_base: u64) {
    let sp = regs::S[4];
    let (lo, hi) = (regs::S[5], regs::S[6]);
    let (i, j) = (regs::T[0], regs::T[1]);
    let (pivot, tmp, addr, tmp2) = (regs::T[2], regs::T[3], regs::T[4], regs::T[5]);

    // push(0, n-1)
    a.li(sp, stack_base as i64);
    a.li(tmp, 0);
    a.sd(tmp, sp, 0);
    a.li(tmp, (n - 1) as i64);
    a.sd(tmp, sp, 8);
    a.addi(sp, sp, 16);
    a.label("qs_loop");
    a.li(tmp, stack_base as i64);
    a.bgeu(tmp, sp, "qs_done");
    // pop
    a.addi(sp, sp, -16);
    a.ld(lo, sp, 0);
    a.ld(hi, sp, 8);
    a.bgeu(lo, hi, "qs_loop");
    // pivot = a[hi]
    a.slli(addr, hi, 2);
    a.add(addr, addr, base_reg);
    a.lwu(pivot, addr, 0);
    // i = lo - 1 (use lo as running i+1 boundary: i here = store index)
    a.mv(i, lo);
    a.mv(j, lo);
    a.label("qs_part");
    a.bgeu(j, hi, "qs_part_done");
    a.slli(addr, j, 2);
    a.add(addr, addr, base_reg);
    a.lwu(tmp, addr, 0);
    a.bltu(pivot, tmp, "qs_next");
    // swap a[i], a[j]
    a.slli(tmp2, i, 2);
    a.add(tmp2, tmp2, base_reg);
    a.lwu(regs::T[6], tmp2, 0);
    a.sw(tmp, tmp2, 0);
    a.sw(regs::T[6], addr, 0);
    a.addi(i, i, 1);
    a.label("qs_next");
    a.addi(j, j, 1);
    a.j("qs_part");
    a.label("qs_part_done");
    // swap a[i], a[hi]
    a.slli(tmp2, i, 2);
    a.add(tmp2, tmp2, base_reg);
    a.lwu(tmp, tmp2, 0);
    a.slli(addr, hi, 2);
    a.add(addr, addr, base_reg);
    a.lwu(regs::T[6], addr, 0);
    a.sw(regs::T[6], tmp2, 0);
    a.sw(tmp, addr, 0);
    // push (lo, i-1) if i > lo
    a.bgeu(lo, i, "qs_skip_left");
    a.sd(lo, sp, 0);
    a.addi(tmp, i, -1);
    a.sd(tmp, sp, 8);
    a.addi(sp, sp, 16);
    a.label("qs_skip_left");
    // push (i+1, hi) if i+1 < hi
    a.addi(tmp, i, 1);
    a.bgeu(tmp, hi, "qs_skip_right");
    a.sd(tmp, sp, 0);
    a.sd(hi, sp, 8);
    a.addi(sp, sp, 16);
    a.label("qs_skip_right");
    a.j("qs_loop");
    a.label("qs_done");
}

/// Builds a ready-to-run sort system — input installed, program loaded,
/// accelerator attached (accelerated variants) or caches warmed (baseline)
/// — plus the address of the output region and the expected contents.
pub fn prepare(variant: BenchVariant, slice: u64, n: u64, seed: u64) -> (System, u64, Vec<u32>) {
    assert!(
        n.is_multiple_of(slice),
        "n must be a multiple of the slice size"
    );
    let k = n / slice;
    assert!((1..=8).contains(&k), "merge fan-in limited to 8 slices");
    let layout = SortLayout::new(n);
    let mut rng = SimRng::new(seed);
    let input: Vec<u32> = (0..n).map(|_| rng.next_u64() as u32).collect();
    let mut expected = input.clone();
    expected.sort_unstable();

    let mhz = sort_mhz(slice);
    let mut sys = System::new(variant.system_config(1, 2, mhz)).expect("valid config");
    for (i, &v) in input.iter().enumerate() {
        sys.poke_bytes(layout.input + (i as u64) * 4, &v.to_le_bytes());
    }

    let out_region = match variant {
        BenchVariant::ProcOnly => layout.input, // in-place quicksort
        _ => {
            if k == 1 {
                layout.slices
            } else {
                layout.out
            }
        }
    };

    let prog = match variant {
        BenchVariant::ProcOnly => {
            let mut a = Asm::new();
            a.label("main");
            a.li(regs::S[0], layout.input as i64);
            emit_quicksort(&mut a, regs::S[0], n, layout.stack);
            a.fence();
            a.halt();
            a.assemble().unwrap()
        }
        _ => {
            let base = sys.config().mmio_base;
            sys.set_reg_mode(0, RegMode::FpgaBound); // slice kick
            sys.set_reg_mode(1, RegMode::CpuBound); // done tokens
            sys.set_reg_mode(2, RegMode::ShadowPlain); // src base
            sys.set_reg_mode(3, RegMode::ShadowPlain); // dst base
            sys.attach_accelerator(Box::new(SortAccel::new(variant.push_mode(), slice)));
            let mut a = Asm::new();
            a.label("main");
            let (cmd, done) = (regs::S[0], regs::S[1]);
            a.li(cmd, base as i64);
            a.li(done, (base + 8) as i64);
            // Parameters.
            a.li(regs::T[0], (base + 16) as i64);
            a.li(regs::T[1], layout.input as i64);
            a.sd(regs::T[1], regs::T[0], 0);
            a.li(regs::T[0], (base + 24) as i64);
            a.li(regs::T[1], layout.slices as i64);
            a.sd(regs::T[1], regs::T[0], 0);
            // Kick all slices (the FPGA-bound FIFO pipelines them).
            a.li(regs::S[2], 0);
            a.label("kick");
            a.sd(regs::S[2], cmd, 0);
            a.addi(regs::S[2], regs::S[2], 1);
            a.li(regs::T[2], k as i64);
            a.blt(regs::S[2], regs::T[2], "kick");
            // Await all done tokens.
            a.li(regs::S[2], 0);
            a.label("wait");
            a.ld(regs::T[0], done, 0);
            a.addi(regs::S[2], regs::S[2], 1);
            a.li(regs::T[2], k as i64);
            a.blt(regs::S[2], regs::T[2], "wait");
            if k > 1 {
                // k-way merge of the sorted slices into `out`.
                // Head index of slice s lives in memory at stack + s*8.
                let heads = layout.stack;
                a.li(regs::T[0], heads as i64);
                a.li(regs::T[1], 0);
                a.label("mz");
                a.sd(duet_cpu::isa::Reg::ZERO, regs::T[0], 0);
                a.addi(regs::T[0], regs::T[0], 8);
                a.addi(regs::T[1], regs::T[1], 1);
                a.li(regs::T[2], k as i64);
                a.blt(regs::T[1], regs::T[2], "mz");
                let (outp, cnt) = (regs::S[3], regs::S[4]);
                a.li(outp, layout.out as i64);
                a.li(cnt, 0);
                a.label("merge");
                // Scan the k heads for the minimum.
                let (best_v, best_s, s) = (regs::S[5], regs::S[6], regs::S[7]);
                a.li(best_v, i64::MAX);
                a.li(best_s, -1);
                a.li(s, 0);
                a.label("scan");
                // idx = heads[s]
                a.slli(regs::T[0], s, 3);
                a.li(regs::T[1], heads as i64);
                a.add(regs::T[1], regs::T[1], regs::T[0]);
                a.ld(regs::T[2], regs::T[1], 0);
                a.li(regs::T[3], slice as i64);
                a.bgeu(regs::T[2], regs::T[3], "scan_next"); // slice drained
                                                             // v = slices[s*slice + idx]
                a.li(regs::T[4], slice as i64);
                a.mul(regs::T[5], s, regs::T[4]);
                a.add(regs::T[5], regs::T[5], regs::T[2]);
                a.slli(regs::T[5], regs::T[5], 2);
                a.li(regs::T[6], layout.slices as i64);
                a.add(regs::T[5], regs::T[5], regs::T[6]);
                a.lwu(regs::T[4], regs::T[5], 0);
                a.bgeu(regs::T[4], best_v, "scan_next");
                a.mv(best_v, regs::T[4]);
                a.mv(best_s, s);
                a.label("scan_next");
                a.addi(s, s, 1);
                a.li(regs::T[0], k as i64);
                a.blt(s, regs::T[0], "scan");
                // Emit best_v; bump heads[best_s].
                a.sw(best_v, outp, 0);
                a.addi(outp, outp, 4);
                a.slli(regs::T[0], best_s, 3);
                a.li(regs::T[1], heads as i64);
                a.add(regs::T[1], regs::T[1], regs::T[0]);
                a.ld(regs::T[2], regs::T[1], 0);
                a.addi(regs::T[2], regs::T[2], 1);
                a.sd(regs::T[2], regs::T[1], 0);
                a.addi(cnt, cnt, 1);
                a.li(regs::T[3], n as i64);
                a.blt(cnt, regs::T[3], "merge");
            }
            a.fence();
            a.halt();
            a.assemble().unwrap()
        }
    };
    sys.load_program(0, Arc::new(prog), "main");
    if variant == BenchVariant::ProcOnly {
        sys.warm_shared(layout.input, n * 4, 0);
    }
    (sys, out_region, expected)
}

/// Runs the sort benchmark: `n` u32 elements sorted in `slice`-element
/// accelerator passes plus a CPU merge (or quicksort for the baseline).
pub fn run(variant: BenchVariant, slice: u64, n: u64, seed: u64) -> AppResult {
    let (mut sys, out_region, expected) = prepare(variant, slice, n, seed);
    let mhz = sort_mhz(slice);
    let runtime = sys
        .run_until_halt(Time::from_us(400_000))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(Time::from_us(500_000))
        .unwrap_or_else(|e| panic!("{e}"));

    let correct = (0..n).all(|i| {
        let got = sys.peek_u32(out_region + i * 4);
        got == expected[i as usize]
    });
    AppResult {
        name: format!("sort/{slice}"),
        variant,
        processors: 1,
        memory_hubs: 2,
        fpga_mhz: mhz,
        runtime,
        correct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quicksort_baseline_sorts() {
        let r = run(BenchVariant::ProcOnly, 32, 64, 3);
        assert!(r.correct, "quicksort produced an unsorted array");
    }

    #[test]
    fn accelerated_sort_single_slice() {
        let r = run(BenchVariant::Duet, 32, 32, 4);
        assert!(r.correct);
    }

    #[test]
    fn accelerated_sort_with_merge() {
        let r = run(BenchVariant::Duet, 32, 128, 9);
        assert!(r.correct, "slice sort + merge mismatch");
    }

    #[test]
    fn duet_beats_fpsoc_and_baseline() {
        let base = run(BenchVariant::ProcOnly, 64, 128, 6);
        let duet = run(BenchVariant::Duet, 64, 128, 6);
        let fpsoc = run(BenchVariant::Fpsoc, 64, 128, 6);
        assert!(base.correct && duet.correct && fpsoc.correct);
        assert!(
            duet.runtime < fpsoc.runtime,
            "duet {} vs fpsoc {}",
            duet.runtime,
            fpsoc.runtime
        );
        assert!(
            duet.speedup_over(&base) > 1.0,
            "sort speedup {:.2}",
            duet.speedup_over(&base)
        );
    }
}
