//! **BFS** (P4/P8/P16 M0, hardware augmentation; Sec. V-D).
//!
//! "We implement multiple hardware, lock-free queues in Verilog to
//! alleviate the synchronization overhead in parallel Breadth-First
//! Search. ... the processor-only baseline suffers from synchronization
//! bottlenecks."
//!
//! The accelerated version uses an eFPGA-emulated work queue exposed
//! through shadow registers: an FPGA-bound enqueue FIFO, a CPU-bound
//! dequeue FIFO paired with a **token FIFO** (the paper's non-blocking
//! `try_join` mechanism) so workers never block on an empty queue, and a
//! distributed termination protocol in the widget. Distance updates stay
//! on the processors with atomic-min — the widget is application-agnostic
//! queue hardware, exactly the "hardware augmentation" paradigm.
//!
//! Modelling note (documented substitution): the paper's BFS runs in
//! barrier-synchronized level steps with two queues; we use the
//! monotone-relaxation (asynchronous) formulation with a single queue,
//! which computes identical distances for unit weights while exercising
//! the same queue hardware and the same lock-contention bottleneck in the
//! baseline.

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
use crate::locks::{mcs_acquire, mcs_release};

/// Accelerator clock from Table II.
pub const BFS_MHZ: f64 = 208.0;

/// In-memory "unreached" marker. Positive in two's complement because the
/// relaxation uses `amomin` (signed, like RISC-V `amomin.w`); every real
/// distance is far below it.
pub const MEM_INF: u32 = 0x3FFF_FFFF;

/// Register map of the queue widget.
pub mod q_reg {
    /// FPGA-bound: enqueue a node id.
    pub const ENQ: usize = 0;
    /// Token FIFO: one token per available item (non-blocking try-join).
    pub const TOKEN: usize = 1;
    /// CPU-bound: item values (read only after winning a token).
    pub const DATA: usize = 2;
    /// FPGA-bound: idle report,
    /// `coreid << 48 | items_enqueued << 24 | items_consumed`.
    pub const IDLE: usize = 3;
    /// Plain shadow: 1 when the traversal has terminated.
    pub const DONE: usize = 4;
}

/// An unweighted digraph in CSR form.
#[derive(Clone, Debug)]
pub struct BfsGraph {
    /// Per-node `(first_edge, degree)`.
    pub offsets: Vec<(u32, u32)>,
    /// Edge destinations.
    pub dests: Vec<u32>,
}

impl BfsGraph {
    /// Random connected digraph.
    pub fn generate(v: u32, avg_deg: u32, seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); v as usize];
        for u in 0..v {
            adj[u as usize].push((u + 1) % v);
        }
        for _ in 0..v * avg_deg.saturating_sub(1) {
            let a = rng.next_below(u64::from(v)) as u32;
            let b = rng.next_below(u64::from(v)) as u32;
            if a != b {
                adj[a as usize].push(b);
            }
        }
        let mut offsets = Vec::new();
        let mut dests = Vec::new();
        for l in &adj {
            offsets.push((dests.len() as u32, l.len() as u32));
            dests.extend_from_slice(l);
        }
        BfsGraph { offsets, dests }
    }

    /// Reference BFS distances from node 0.
    pub fn bfs_ref(&self) -> Vec<u32> {
        let v = self.offsets.len();
        let mut dist = vec![u32::MAX; v];
        let mut q = VecDeque::new();
        dist[0] = 0;
        q.push_back(0u32);
        while let Some(u) = q.pop_front() {
            let (off, deg) = self.offsets[u as usize];
            for e in off..off + deg {
                let w = self.dests[e as usize];
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dist[u as usize] + 1;
                    q.push_back(w);
                }
            }
        }
        dist
    }
}

/// The lock-free work-queue widget with distributed termination detection.
pub struct FrontierQueues {
    regs: FabricRegFile,
    queue: VecDeque<u64>,
    delivered: u64,
    consumed: Vec<u64>,
    /// Per-core counts of enqueues the core claims to have issued.
    enqueued: Vec<u64>,
    /// Enqueues actually received.
    received: u64,
    idle: Vec<bool>,
    cores: usize,
    done: bool,
}

impl FrontierQueues {
    /// Creates the widget for `cores` workers, with the source node
    /// pre-seeded.
    pub fn new(push_mode: bool, cores: usize, seed_node: u64) -> Self {
        let mut regs = FabricRegFile::new(push_mode);
        regs.set_token(q_reg::TOKEN);
        regs.set_queue(q_reg::DATA);
        let mut queue = VecDeque::new();
        queue.push_back(seed_node);
        FrontierQueues {
            regs,
            queue,
            delivered: 0,
            consumed: vec![0; cores],
            enqueued: vec![0; cores],
            received: 0,
            idle: vec![false; cores],
            cores,
            done: false,
        }
    }
}

duet_sim::snap_fields!(FrontierQueues {
    regs, queue, delivered, consumed, enqueued, received, idle, done
} check |q| duet_sim::snapshot::ensure(
    q.consumed.len() == q.cores && q.idle.len() == q.cores,
    "bfs frontier core count mismatch"
));

impl SoftAccelerator for FrontierQueues {
    fn name(&self) -> &str {
        "bfs-queues"
    }

    fn tick(&mut self, ports: &mut FabricPorts<'_>) {
        let now = ports.now;
        self.regs.tick(now, &mut ports.regs);
        // Absorb enqueues and idle reports.
        while let Some(v) = self.regs.pop_write(q_reg::ENQ) {
            self.received += 1;
            self.queue.push_back(v);
        }
        // Idle reports share the in-order FIFO with the enqueues, so a
        // report implies all earlier enqueues from that core have arrived.
        while let Some(v) = self.regs.pop_write(q_reg::IDLE) {
            let c = (v >> 48) as usize % self.cores;
            self.enqueued[c] = (v >> 24) & 0xFF_FFFF;
            self.consumed[c] = v & 0xFF_FFFF;
            self.idle[c] = true;
        }
        // Prime: one item per cycle (data first, then its token, so a won
        // token always finds data).
        if !self.done {
            if let Some(&item) = self.queue.front() {
                self.regs.push_result(q_reg::DATA, item);
                self.regs.push_result(q_reg::TOKEN, 0);
                self.queue.pop_front();
                self.delivered += 1;
            }
        }
        // Termination: queue drained, every delivered item acknowledged as
        // consumed, all workers idle.
        if !self.done
            && self.queue.is_empty()
            && self.consumed.iter().sum::<u64>() == self.delivered
            && self.enqueued.iter().sum::<u64>() == self.received
            && self.idle.iter().all(|&i| i)
        {
            self.done = true;
            self.regs.push_result(q_reg::DONE, 1);
        }
        self.regs.tick(now, &mut ports.regs);
    }

    fn netlist(&self) -> NetlistSummary {
        // Calibrated against Table II (BFS: 208 MHz, norm. area 1.24, CLB
        // 0.61, BRAM 0.75).
        NetlistSummary {
            name: "bfs",
            luts: 2780,
            ffs: 3892,
            bram_kbits: 2144,
            mults: 0,
            logic_levels: 3,
        }
    }

    fn reset(&mut self) {
        self.queue.clear();
        self.done = false;
    }
}

/// Memory layout.
#[derive(Clone, Copy, Debug)]
pub struct BfsLayout {
    /// `(off, deg)` packed per node.
    pub offsets: u64,
    /// Edge destinations (u32 each).
    pub dests: u64,
    /// Distances (u32 each).
    pub dist: u64,
    /// Baseline: shared queue storage.
    pub queue: u64,
    /// Baseline: lock + head + tail + active + done (u64 each).
    pub ctrl: u64,
}

impl BfsLayout {
    /// Default layout.
    pub fn new() -> Self {
        BfsLayout {
            offsets: 0x1_0000,
            dests: 0x2_0000,
            dist: 0x4_0000,
            queue: 0x6_0000,
            ctrl: 0x8_0000,
        }
    }
}

impl Default for BfsLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// Emits the relaxation of node `u` (in `S[5]`): for each neighbor `w`,
/// `old = amomin(dist[w], dist[u]+1)`; newly-improved nodes are enqueued by
/// jumping to `enq_label` with the node in `T[6]` (which must return to
/// `ret_label`).
fn emit_process_node(a: &mut Asm, layout: &BfsLayout, id: &str, enq_label: &str) {
    let u = regs::S[5];
    let (eidx, eend, ndist) = (regs::S[6], regs::S[7], regs::S[4]);
    // meta
    a.slli(regs::T[0], u, 3);
    a.li(regs::T[1], layout.offsets as i64);
    a.add(regs::T[0], regs::T[0], regs::T[1]);
    a.lwu(eidx, regs::T[0], 0);
    a.lwu(eend, regs::T[0], 4);
    a.add(eend, eend, eidx);
    // ndist = dist[u] + 1
    a.slli(regs::T[0], u, 2);
    a.li(regs::T[1], layout.dist as i64);
    a.add(regs::T[0], regs::T[0], regs::T[1]);
    a.lwu(ndist, regs::T[0], 0);
    a.addi(ndist, ndist, 1);
    a.label(&format!("edges_{id}"));
    a.bgeu(eidx, eend, &format!("edges_done_{id}"));
    // w = dests[eidx]
    a.slli(regs::T[0], eidx, 2);
    a.li(regs::T[1], layout.dests as i64);
    a.add(regs::T[0], regs::T[0], regs::T[1]);
    a.lwu(regs::T[6], regs::T[0], 0);
    // old = amomin(dist[w], ndist)
    a.slli(regs::T[2], regs::T[6], 2);
    a.li(regs::T[3], layout.dist as i64);
    a.add(regs::T[2], regs::T[2], regs::T[3]);
    a.emit(duet_cpu::isa::Inst::Amo {
        op: duet_mem::types::AmoOp::Min,
        width: duet_mem::types::Width::B4,
        rd: regs::T[4],
        base: regs::T[2],
        src: ndist,
        expected: duet_cpu::isa::Reg::ZERO,
    });
    a.bgeu(ndist, regs::T[4], &format!("no_improve_{id}"));
    // Improved: enqueue w (in T6).
    a.call(enq_label);
    a.label(&format!("no_improve_{id}"));
    a.addi(eidx, eidx, 1);
    a.j(&format!("edges_{id}"));
    a.label(&format!("edges_done_{id}"));
}

/// Builds a ready-to-run BFS system with `p` workers on a `v`-node graph —
/// graph installed, programs loaded, frontier queues attached (accelerated
/// variants) or caches warmed (baseline) — plus the reference distances.
pub fn prepare(
    variant: BenchVariant,
    p: usize,
    v: u32,
    avg_deg: u32,
    seed: u64,
) -> (System, Vec<u32>) {
    let layout = BfsLayout::new();
    let g = BfsGraph::generate(v, avg_deg, seed);
    let expected = g.bfs_ref();
    let mut sys = System::new(variant.system_config(p, 0, BFS_MHZ)).expect("valid config");
    for (u, &(off, deg)) in g.offsets.iter().enumerate() {
        sys.poke_u64(
            layout.offsets + (u as u64) * 8,
            u64::from(off) | (u64::from(deg) << 32),
        );
    }
    for (e, &d) in g.dests.iter().enumerate() {
        sys.poke_bytes(layout.dests + (e as u64) * 4, &d.to_le_bytes());
    }
    for u in 0..v as u64 {
        let d = if u == 0 { 0u32 } else { MEM_INF };
        sys.poke_bytes(layout.dist + u * 4, &d.to_le_bytes());
    }

    let prog = match variant {
        BenchVariant::ProcOnly => {
            // Shared queue under a spinlock: ctrl = [lock, head, tail,
            // active, done].
            sys.poke_u64(layout.queue, 0); // queue[0] = source node
            sys.poke_u64(layout.ctrl + 16, 1); // tail = 1
            let mut a = Asm::new();
            a.label("main");
            let ctrl = regs::S[0];
            let qnode = regs::A[0];
            a.li(ctrl, layout.ctrl as i64);
            // MCS queue node: ctrl + 0x400 + coreid * 64.
            a.coreid(regs::T[0]);
            a.slli(regs::T[0], regs::T[0], 6);
            a.li(qnode, (layout.ctrl + 0x400) as i64);
            a.add(qnode, qnode, regs::T[0]);
            a.label("work_loop");
            mcs_acquire(&mut a, "q", ctrl, qnode, regs::T[0], regs::T[1]);
            // head < tail ?
            a.ld(regs::T[1], ctrl, 8);
            a.ld(regs::T[2], ctrl, 16);
            a.bltu(regs::T[1], regs::T[2], "have_item");
            // Empty: check termination (active == 0).
            a.ld(regs::T[3], ctrl, 24);
            a.bnez(regs::T[3], "retry");
            a.li(regs::T[4], 1);
            a.sd(regs::T[4], ctrl, 32); // done = 1
            mcs_release(&mut a, "d", ctrl, qnode, regs::T[0], regs::T[1]);
            a.j("finish");
            a.label("retry");
            mcs_release(&mut a, "r", ctrl, qnode, regs::T[0], regs::T[1]);
            a.ld(regs::T[5], ctrl, 32);
            a.bnez(regs::T[5], "finish");
            a.j("work_loop");
            a.label("have_item");
            // u = queue[head++]; active++
            a.li(regs::T[3], layout.queue as i64);
            a.slli(regs::T[4], regs::T[1], 3);
            a.add(regs::T[3], regs::T[3], regs::T[4]);
            a.ld(regs::S[5], regs::T[3], 0);
            a.addi(regs::T[1], regs::T[1], 1);
            a.sd(regs::T[1], ctrl, 8);
            a.ld(regs::T[3], ctrl, 24);
            a.addi(regs::T[3], regs::T[3], 1);
            a.sd(regs::T[3], ctrl, 24);
            mcs_release(&mut a, "h", ctrl, qnode, regs::T[0], regs::T[1]);
            // Process u; enqueues go through `enq` (locked push).
            emit_process_node(&mut a, &layout, "sw", "enq");
            // active--
            mcs_acquire(&mut a, "dec", ctrl, qnode, regs::T[0], regs::T[1]);
            a.ld(regs::T[3], ctrl, 24);
            a.addi(regs::T[3], regs::T[3], -1);
            a.sd(regs::T[3], ctrl, 24);
            mcs_release(&mut a, "dec", ctrl, qnode, regs::T[0], regs::T[1]);
            a.j("work_loop");
            a.label("finish");
            a.fence();
            a.halt();
            // enq(w in T6): locked append. Must preserve S registers and
            // T6; clobbers T0, T1, T2 after saving what matters.
            a.label("enq");
            a.mv(regs::A[2], duet_cpu::isa::Reg::RA);
            mcs_acquire(&mut a, "enq", ctrl, qnode, regs::T[0], regs::T[1]);
            a.ld(regs::T[0], ctrl, 16); // tail
            a.li(regs::T[1], layout.queue as i64);
            a.slli(regs::T[2], regs::T[0], 3);
            a.add(regs::T[1], regs::T[1], regs::T[2]);
            a.sd(regs::T[6], regs::T[1], 0);
            a.addi(regs::T[0], regs::T[0], 1);
            a.sd(regs::T[0], ctrl, 16);
            mcs_release(&mut a, "enq", ctrl, qnode, regs::T[0], regs::T[1]);
            a.mv(duet_cpu::isa::Reg::RA, regs::A[2]);
            a.ret();
            a.assemble().unwrap()
        }
        _ => {
            let base = sys.config().mmio_base;
            sys.set_reg_mode(q_reg::ENQ, RegMode::FpgaBound);
            sys.set_reg_mode(q_reg::TOKEN, RegMode::Token);
            sys.set_reg_mode(q_reg::DATA, RegMode::CpuBound);
            sys.set_reg_mode(q_reg::IDLE, RegMode::FpgaBound);
            sys.set_reg_mode(q_reg::DONE, RegMode::ShadowPlain);
            sys.attach_accelerator(Box::new(FrontierQueues::new(variant.push_mode(), p, 0)));
            let mut a = Asm::new();
            a.label("main");
            let (enq_r, tok_r, data_r, idle_r, done_r) =
                (regs::S[0], regs::S[1], regs::S[2], regs::S[3], regs::A[6]);
            a.li(enq_r, (base + 8 * q_reg::ENQ as u64) as i64);
            a.li(tok_r, (base + 8 * q_reg::TOKEN as u64) as i64);
            a.li(data_r, (base + 8 * q_reg::DATA as u64) as i64);
            a.li(idle_r, (base + 8 * q_reg::IDLE as u64) as i64);
            a.li(done_r, (base + 8 * q_reg::DONE as u64) as i64);
            // A7 = consumed counter, A1 = enqueued counter, A5 = coreid<<48.
            a.li(regs::A[7], 0);
            a.li(regs::A[1], 0);
            a.coreid(regs::T[0]);
            a.slli(regs::A[5], regs::T[0], 48);
            a.label("work_loop");
            a.ld(regs::T[0], tok_r, 0); // try-join
            a.beqz(regs::T[0], "no_item");
            a.ld(regs::S[5], data_r, 0); // guaranteed present
            emit_process_node(&mut a, &layout, "hw", "enq");
            a.addi(regs::A[7], regs::A[7], 1);
            a.j("work_loop");
            a.label("no_item");
            // Report idle: coreid<<48 | enqueued<<24 | consumed; poll DONE.
            a.slli(regs::T[1], regs::A[1], 24);
            a.or(regs::T[1], regs::T[1], regs::A[7]);
            a.or(regs::T[1], regs::T[1], regs::A[5]);
            a.sd(regs::T[1], idle_r, 0);
            a.ld(regs::T[2], done_r, 0);
            a.beqz(regs::T[2], "work_loop");
            a.fence();
            a.halt();
            // enq(w in T6): one shadow-register write.
            a.label("enq");
            a.sd(regs::T[6], enq_r, 0);
            a.addi(regs::A[1], regs::A[1], 1);
            a.ret();
            a.assemble().unwrap()
        }
    };
    let prog = Arc::new(prog);
    for c in 0..p {
        sys.load_program(c, prog.clone(), "main");
    }
    if variant == BenchVariant::ProcOnly {
        for c in 0..p {
            sys.warm_shared(layout.offsets, u64::from(v) * 8, c);
            sys.warm_shared(layout.dests, g.dests.len() as u64 * 4, c);
        }
    }
    (sys, expected)
}

/// Runs the BFS benchmark with `p` workers.
pub fn run(variant: BenchVariant, p: usize, v: u32, avg_deg: u32, seed: u64) -> AppResult {
    let layout = BfsLayout::new();
    let (mut sys, expected) = prepare(variant, p, v, avg_deg, seed);
    let runtime = sys
        .run_until_halt(Time::from_us(30_000))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(Time::from_us(31_000))
        .unwrap_or_else(|e| panic!("{e}"));
    let correct = (0..v as u64).all(|u| sys.peek_u32(layout.dist + u * 4) == expected[u as usize]);
    AppResult {
        name: format!("bfs/{p}"),
        variant,
        processors: p,
        memory_hubs: 0,
        fpga_mhz: BFS_MHZ,
        runtime,
        correct,
        stats: sys.stats(),
        sim_ps: sys.now().as_ps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_single_core_correct() {
        let r = run(BenchVariant::ProcOnly, 1, 24, 2, 3);
        assert!(r.correct);
    }

    #[test]
    fn baseline_multicore_correct() {
        let r = run(BenchVariant::ProcOnly, 3, 24, 2, 3);
        assert!(r.correct, "racy distance updates in the locked baseline");
    }

    #[test]
    fn hardware_queues_single_core_correct() {
        let r = run(BenchVariant::Duet, 1, 24, 2, 3);
        assert!(r.correct);
    }

    #[test]
    fn hardware_queues_multicore_correct_and_faster() {
        let base = run(BenchVariant::ProcOnly, 4, 32, 3, 8);
        let duet = run(BenchVariant::Duet, 4, 32, 3, 8);
        assert!(base.correct && duet.correct);
        assert!(
            duet.runtime < base.runtime,
            "hardware queues ({}) must beat the locked baseline ({})",
            duet.runtime,
            base.runtime
        );
    }

    #[test]
    fn fpsoc_queues_correct_but_slower_than_duet() {
        let duet = run(BenchVariant::Duet, 2, 24, 2, 5);
        let fpsoc = run(BenchVariant::Fpsoc, 2, 24, 2, 5);
        assert!(duet.correct && fpsoc.correct);
        assert!(
            duet.runtime < fpsoc.runtime,
            "duet {} vs fpsoc {}",
            duet.runtime,
            fpsoc.runtime
        );
    }
}
