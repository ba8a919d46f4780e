//! **PDES** (P4/P8/P16 M1, hardware augmentation; Sec. III-B2 and V-D).
//!
//! Parallel discrete-event simulation of a digital circuit. "A
//! non-speculative, hardware task scheduler is designed in Verilog ...
//! Processors schedule new events by pushing memory pointers to the events
//! into a FPGA-bound FIFO, after which the task scheduler fetches the event
//! data from shared memory and adds the pointer into the proper event
//! queue. Once certain events are ready to be processed, the task scheduler
//! pushes the pointers into an CPU-bound FIFO ... The processor-only
//! baseline uses MCS locks to arbitrate accesses to the shared event queue,
//! and the lock contention can be severe as the number of cores increases."
//! (The baseline below uses the same MCS locks.)
//!
//! The simulated circuit is a layered feed-forward NAND network: an event
//! `(t, g)` evaluates gate `g` at time `t` and schedules its successors at
//! `t + 10`. Conservative execution: events of time `t` are released only
//! when every earlier event has been processed, so gate inputs are always
//! final when read — both schedulers enforce this, and the final output
//! vector is deterministic.

use std::collections::{BTreeMap, VecDeque};
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
use crate::locks::{mcs_acquire, mcs_release};

/// Accelerator clock from Table II.
pub const PDES_MHZ: f64 = 126.0;

/// Register map of the scheduler widget.
pub mod s_reg {
    /// FPGA-bound: pointer to a new event record.
    pub const ENQ: usize = 0;
    /// Token FIFO: one token per released event.
    pub const TOKEN: usize = 1;
    /// CPU-bound: released events, packed `time << 32 | gate`.
    pub const DATA: usize = 2;
    /// FPGA-bound: idle/progress report,
    /// `coreid << 48 | events_scheduled << 24 | events_processed`.
    pub const IDLE: usize = 3;
    /// Plain shadow: 1 when the simulation has terminated.
    pub const DONE: usize = 4;
}

/// A layered feed-forward NAND circuit.
#[derive(Clone, Debug)]
pub struct Circuit {
    /// Gates per layer (layer 0 = primary inputs).
    pub width: u32,
    /// Evaluated layers (1..=layers).
    pub layers: u32,
    /// Per gate: `(in0, in1)` (PIs have `(0, 0)`, unused).
    pub inputs: Vec<(u32, u32)>,
    /// Per gate: successor gate ids.
    pub succs: Vec<Vec<u32>>,
    /// Primary-input values.
    pub pi: Vec<u32>,
}

impl Circuit {
    /// Generates a random circuit.
    pub fn generate(width: u32, layers: u32, seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        let total = width * (layers + 1);
        let mut inputs = vec![(0u32, 0u32); total as usize];
        let mut succs = vec![Vec::new(); total as usize];
        for l in 1..=layers {
            for k in 0..width {
                let g = l * width + k;
                let a = (l - 1) * width + rng.next_below(u64::from(width)) as u32;
                let b = (l - 1) * width + rng.next_below(u64::from(width)) as u32;
                inputs[g as usize] = (a, b);
                if l < layers {
                    // successors are wired by the consumers of layer l+1.
                }
                succs[a as usize].push(g);
                succs[b as usize].push(g);
            }
        }
        let pi = (0..width).map(|_| (rng.next_u64() & 1) as u32).collect();
        Circuit {
            width,
            layers,
            inputs,
            succs,
            pi,
        }
    }

    /// Number of gates (including PIs).
    pub fn total_gates(&self) -> u32 {
        self.width * (self.layers + 1)
    }

    /// Reference evaluation: final output values of every gate.
    pub fn eval_ref(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.total_gates() as usize];
        out[..self.width as usize].copy_from_slice(&self.pi);
        for l in 1..=self.layers {
            for k in 0..self.width {
                let g = (l * self.width + k) as usize;
                let (a, b) = self.inputs[g];
                out[g] = 1 - (out[a as usize] & out[b as usize]); // NAND
            }
        }
        out
    }
}

/// The hardware task scheduler: a time-ordered event queue in fabric BRAM
/// with conservative release and termination detection. Event records are
/// fetched from shared memory through Memory Hub 0.
pub struct TaskScheduler {
    regs: FabricRegFile,
    /// Event pointers whose record fetch has not been issued yet.
    to_fetch: VecDeque<(u64, u64)>, // (hub id, pointer)
    /// Fetches issued and awaiting their line fill.
    in_flight: Vec<u64>, // hub ids
    next_fetch_id: u64,
    /// Time-ordered queue: time -> gates.
    queue: BTreeMap<u32, VecDeque<u32>>,
    /// Released events not yet acknowledged as processed.
    delivered: u64,
    consumed: Vec<u64>,
    /// Per-core counts of events the core claims to have scheduled.
    scheduled: Vec<u64>,
    /// Enqueue pointers actually received.
    received: u64,
    idle: Vec<bool>,
    cores: usize,
    /// Conservative horizon: events at `cur_time` may run.
    cur_time: u32,
    done: bool,
}

impl TaskScheduler {
    /// Creates the scheduler, pre-seeded with `seeds` events `(time, gate)`
    /// (the initial stimulus).
    pub fn new(push_mode: bool, cores: usize, seeds: &[(u32, u32)]) -> Self {
        let mut regs = FabricRegFile::new(push_mode);
        regs.set_token(s_reg::TOKEN);
        regs.set_queue(s_reg::DATA);
        let mut queue: BTreeMap<u32, VecDeque<u32>> = BTreeMap::new();
        for &(t, g) in seeds {
            queue.entry(t).or_default().push_back(g);
        }
        let cur_time = queue.keys().next().copied().unwrap_or(0);
        TaskScheduler {
            regs,
            to_fetch: VecDeque::new(),
            in_flight: Vec::new(),
            next_fetch_id: 1,
            queue,
            delivered: 0,
            consumed: vec![0; cores],
            scheduled: vec![0; cores],
            received: 0,
            idle: vec![false; cores],
            cores,
            cur_time,
            done: false,
        }
    }

    fn outstanding(&self) -> u64 {
        self.delivered - self.consumed.iter().sum::<u64>()
    }
}

duet_sim::snap_fields!(TaskScheduler {
    regs, to_fetch, in_flight, next_fetch_id, queue, delivered, consumed, scheduled, received,
    idle, cur_time, done
} check |s| duet_sim::snapshot::ensure(
    s.consumed.len() == s.cores && s.scheduled.len() == s.cores && s.idle.len() == s.cores,
    "pdes scheduler core count mismatch"
));

impl SoftAccelerator for TaskScheduler {
    fn name(&self) -> &str {
        "pdes-scheduler"
    }

    fn tick(&mut self, ports: &mut FabricPorts<'_>) {
        let now = ports.now;
        self.regs.tick(now, &mut ports.regs);

        // New event pointers: fetch their records through the hub. The hub
        // id's low 4 bits carry the record's line offset so the fill can be
        // decoded without extra state.
        while let Some(ptr) = self.regs.pop_write(s_reg::ENQ) {
            self.received += 1;
            let id = (self.next_fetch_id << 4) | (ptr & 0xF);
            self.next_fetch_id += 1;
            self.to_fetch.push_back((id, ptr));
        }
        // Issue one fetch per cycle.
        if let Some(&(id, ptr)) = self.to_fetch.front() {
            if ports.hubs[0].load_line(now, id, ptr & !0xF) {
                self.to_fetch.pop_front();
                self.in_flight.push(id);
            }
        }
        while let Some(resp) = ports.hubs[0].pop_resp(now) {
            if let FpgaRespKind::LoadAck { data } = resp.kind {
                if let Some(pos) = self.in_flight.iter().position(|&fid| fid == resp.id) {
                    self.in_flight.swap_remove(pos);
                    // Record layout: `time << 32 | gate`, little-endian —
                    // the gate id is the low word.
                    let off = (resp.id & 0xF) as usize;
                    let g = u32::from_le_bytes(data[off..off + 4].try_into().unwrap());
                    let t = u32::from_le_bytes(data[off + 4..off + 8].try_into().unwrap());
                    self.queue.entry(t).or_default().push_back(g);
                }
            }
        }

        // Progress reports. Because these travel the same in-order FIFO as
        // the enqueue writes, a report implies all of that core's earlier
        // enqueues have been received — the termination check below is
        // race-free.
        while let Some(v) = self.regs.pop_write(s_reg::IDLE) {
            let c = (v >> 48) as usize % self.cores;
            self.scheduled[c] = (v >> 24) & 0xFF_FFFF;
            self.consumed[c] = v & 0xFF_FFFF;
            self.idle[c] = true;
        }

        // Conservative release: only events at `cur_time`, and advance the
        // horizon only when everything earlier has drained (no outstanding
        // work, no records still in flight).
        if !self.done {
            let can_advance =
                self.outstanding() == 0 && self.to_fetch.is_empty() && self.in_flight.is_empty();
            let release = self
                .queue
                .get_mut(&self.cur_time)
                .and_then(|q| q.pop_front());
            match release {
                Some(g) => {
                    let packed = (u64::from(self.cur_time) << 32) | u64::from(g);
                    self.regs.push_result(s_reg::DATA, packed);
                    self.regs.push_result(s_reg::TOKEN, 0);
                    self.delivered += 1;
                    if self.queue.get(&self.cur_time).is_some_and(|q| q.is_empty()) {
                        self.queue.remove(&self.cur_time);
                    }
                }
                None => {
                    self.queue.remove(&self.cur_time);
                    if can_advance {
                        if let Some(&t) = self.queue.keys().next() {
                            self.cur_time = t;
                        } else if self.idle.iter().all(|&i| i)
                            && self.scheduled.iter().sum::<u64>() == self.received
                        {
                            self.done = true;
                            self.regs.push_result(s_reg::DONE, 1);
                        }
                    }
                }
            }
        }
        self.regs.tick(now, &mut ports.regs);
    }

    fn netlist(&self) -> NetlistSummary {
        // Calibrated against Table II (PDES: 126 MHz, norm. area 2.77, CLB
        // 0.47, BRAM 0.56).
        NetlistSummary {
            name: "pdes",
            luts: 5540,
            ffs: 7756,
            bram_kbits: 4640,
            mults: 0,
            logic_levels: 5,
        }
    }

    fn reset(&mut self) {
        self.queue.clear();
        self.to_fetch.clear();
        self.in_flight.clear();
        self.done = false;
    }
}

/// Memory layout.
#[derive(Clone, Copy, Debug)]
pub struct PdesLayout {
    /// Per gate: in0, in1, succ_off, succ_cnt (4 × u32 = 16 B).
    pub gates: u64,
    /// Successor lists (u32 each).
    pub succs: u64,
    /// Output values (u32 each).
    pub out: u64,
    /// Per-core event-record arenas (8 B records: time u32, gate u32).
    pub arenas: u64,
    /// Arena capacity per core, in records.
    pub arena_cap: u64,
    /// Baseline: bucket queue storage.
    pub buckets: u64,
    /// Baseline: per-bucket head/tail and global control.
    pub ctrl: u64,
}

impl PdesLayout {
    /// Default layout.
    pub fn new() -> Self {
        PdesLayout {
            gates: 0x1_0000,
            succs: 0x3_0000,
            out: 0x5_0000,
            arenas: 0x6_0000,
            arena_cap: 4096,
            buckets: 0x10_0000,
            ctrl: 0x9_0000,
        }
    }
}

impl Default for PdesLayout {
    fn default() -> Self {
        Self::new()
    }
}

const BUCKET_CAP: u64 = 1024;

fn install_circuit(sys: &mut System, layout: &PdesLayout, c: &Circuit) {
    let mut succ_flat: Vec<u32> = Vec::new();
    for (g, s) in c.succs.iter().enumerate() {
        let off = succ_flat.len() as u32;
        let (i0, i1) = c.inputs[g];
        sys.poke_u64(
            layout.gates + (g as u64) * 16,
            u64::from(i0) | (u64::from(i1) << 32),
        );
        sys.poke_u64(
            layout.gates + (g as u64) * 16 + 8,
            u64::from(off) | ((s.len() as u64) << 32),
        );
        succ_flat.extend_from_slice(s);
    }
    for (i, &s) in succ_flat.iter().enumerate() {
        sys.poke_bytes(layout.succs + (i as u64) * 4, &s.to_le_bytes());
    }
    for g in 0..c.total_gates() as u64 {
        let v = if g < u64::from(c.width) {
            c.pi[g as usize]
        } else {
            0
        };
        sys.poke_bytes(layout.out + g * 4, &v.to_le_bytes());
    }
}

/// Emits the event-processing body: event gate in `S[5]`, event time in
/// `S[4]`. Evaluates the NAND and schedules successors by calling
/// `sched_label` with `(time, gate)` packed in `T[6]`... successors are
/// scheduled via `call(sched_label)` with gate in `T[6]` and time in
/// `A[4]`.
fn emit_process_event(a: &mut Asm, layout: &PdesLayout, id: &str, sched_label: &str) {
    let g = regs::S[5];
    let t = regs::S[4];
    // gate meta: in0, in1 at gates + g*16; succ off/cnt at +8.
    a.slli(regs::T[0], g, 4);
    a.li(regs::T[1], layout.gates as i64);
    a.add(regs::T[0], regs::T[0], regs::T[1]);
    a.lwu(regs::T[2], regs::T[0], 0); // in0
    a.lwu(regs::T[3], regs::T[0], 4); // in1
    a.lwu(regs::S[6], regs::T[0], 8); // succ off
    a.lwu(regs::S[7], regs::T[0], 12); // succ cnt
    a.add(regs::S[7], regs::S[7], regs::S[6]); // end
                                               // v = 1 - (out[in0] & out[in1])
    a.slli(regs::T[2], regs::T[2], 2);
    a.li(regs::T[4], layout.out as i64);
    a.add(regs::T[2], regs::T[2], regs::T[4]);
    a.lwu(regs::T[2], regs::T[2], 0);
    a.slli(regs::T[3], regs::T[3], 2);
    a.add(regs::T[3], regs::T[3], regs::T[4]);
    a.lwu(regs::T[3], regs::T[3], 0);
    a.and(regs::T[2], regs::T[2], regs::T[3]);
    a.li(regs::T[3], 1);
    a.sub(regs::T[2], regs::T[3], regs::T[2]);
    // out[g] = v
    a.slli(regs::T[0], g, 2);
    a.add(regs::T[0], regs::T[0], regs::T[4]);
    a.sw(regs::T[2], regs::T[0], 0);
    // schedule successors at t + 10
    a.addi(regs::A[4], t, 10);
    a.label(&format!("succ_{id}"));
    a.bgeu(regs::S[6], regs::S[7], &format!("succ_done_{id}"));
    a.slli(regs::T[0], regs::S[6], 2);
    a.li(regs::T[1], layout.succs as i64);
    a.add(regs::T[0], regs::T[0], regs::T[1]);
    a.lwu(regs::T[6], regs::T[0], 0); // successor gate
    a.call(sched_label);
    a.addi(regs::S[6], regs::S[6], 1);
    a.j(&format!("succ_{id}"));
    a.label(&format!("succ_done_{id}"));
}

/// Builds a ready-to-run PDES system with `p` workers on a
/// `width × layers` circuit — circuit installed, programs loaded, scheduler
/// attached (accelerated variants) or caches warmed (baseline) — plus the
/// reference gate outputs.
pub fn prepare(
    variant: BenchVariant,
    p: usize,
    width: u32,
    layers: u32,
    seed: u64,
) -> (System, Vec<u32>) {
    let layout = PdesLayout::new();
    let c = Circuit::generate(width, layers, seed);
    let expected = c.eval_ref();
    let mut sys = System::new(variant.system_config(p, 1, PDES_MHZ)).expect("valid config");
    install_circuit(&mut sys, &layout, &c);

    // Initial stimulus: every layer-1 gate at time 10.
    let seeds: Vec<(u32, u32)> = (0..width).map(|k| (10, width + k)).collect();

    let prog = match variant {
        BenchVariant::ProcOnly => {
            // Bucket queue: bucket b holds gates due at time (b+1)*10.
            // ctrl: [lock, cur_bucket, active, done]; per-bucket head/tail
            // pairs follow at ctrl+64.
            let nbuckets = layers as u64 + 2;
            for b in 0..nbuckets {
                sys.poke_u64(layout.ctrl + 64 + b * 16, 0); // head
                sys.poke_u64(layout.ctrl + 64 + b * 16 + 8, 0); // tail
            }
            // Seed bucket 0 (time 10).
            for (i, &(_, g)) in seeds.iter().enumerate() {
                sys.poke_u64(layout.buckets + (i as u64) * 8, u64::from(g));
            }
            sys.poke_u64(layout.ctrl + 64 + 8, seeds.len() as u64); // tail[0]
            let mut a = Asm::new();
            a.label("main");
            let ctrl = regs::S[0];
            let qnode = regs::A[0];
            a.li(ctrl, layout.ctrl as i64);
            // MCS queue node: ctrl + 0x400 + coreid * 64 (cacheline-spaced).
            a.coreid(regs::T[0]);
            a.slli(regs::T[0], regs::T[0], 6);
            a.li(qnode, (layout.ctrl + 0x400) as i64);
            a.add(qnode, qnode, regs::T[0]);
            a.label("work_loop");
            mcs_acquire(&mut a, "q", ctrl, qnode, regs::T[0], regs::T[1]);
            // b = cur_bucket; if head[b] < tail[b]: pop
            a.ld(regs::T[1], ctrl, 8); // cur bucket
            a.slli(regs::T[2], regs::T[1], 4);
            a.addi(regs::T[2], regs::T[2], 64);
            a.add(regs::T[2], regs::T[2], ctrl); // &head[b]
            a.ld(regs::T[3], regs::T[2], 0); // head
            a.ld(regs::T[4], regs::T[2], 8); // tail
            a.bltu(regs::T[3], regs::T[4], "have_item");
            // Bucket empty: advance only when no one is processing.
            a.ld(regs::T[5], ctrl, 16); // active
            a.bnez(regs::T[5], "retry");
            // Any later bucket non-empty?
            a.li(regs::T[6], layers as i64 + 2);
            a.addi(regs::T[1], regs::T[1], 1);
            a.bgeu(regs::T[1], regs::T[6], "sim_done");
            a.sd(regs::T[1], ctrl, 8); // cur_bucket += 1
            a.j("retry");
            a.label("sim_done");
            a.li(regs::T[0], 1);
            a.sd(regs::T[0], ctrl, 24); // done
            mcs_release(&mut a, "d", ctrl, qnode, regs::T[0], regs::T[1]);
            a.j("finish");
            a.label("retry");
            mcs_release(&mut a, "r", ctrl, qnode, regs::T[0], regs::T[1]);
            a.ld(regs::T[0], ctrl, 24);
            a.bnez(regs::T[0], "finish");
            a.j("work_loop");
            a.label("have_item");
            // g = buckets[b*CAP + head]; head++; active++; t = (b+1)*10
            a.li(regs::T[5], BUCKET_CAP as i64);
            a.mul(regs::T[6], regs::T[1], regs::T[5]);
            a.add(regs::T[6], regs::T[6], regs::T[3]);
            a.slli(regs::T[6], regs::T[6], 3);
            a.li(regs::T[5], layout.buckets as i64);
            a.add(regs::T[6], regs::T[6], regs::T[5]);
            a.ld(regs::S[5], regs::T[6], 0); // gate
            a.addi(regs::T[3], regs::T[3], 1);
            a.sd(regs::T[3], regs::T[2], 0); // head++
            a.ld(regs::T[5], ctrl, 16);
            a.addi(regs::T[5], regs::T[5], 1);
            a.sd(regs::T[5], ctrl, 16); // active++
            a.addi(regs::S[4], regs::T[1], 1);
            a.li(regs::T[5], 10);
            a.mul(regs::S[4], regs::S[4], regs::T[5]); // t = (b+1)*10
            mcs_release(&mut a, "h", ctrl, qnode, regs::T[0], regs::T[1]);
            emit_process_event(&mut a, &layout, "sw", "sched");
            mcs_acquire(&mut a, "dec", ctrl, qnode, regs::T[0], regs::T[1]);
            a.ld(regs::T[5], ctrl, 16);
            a.addi(regs::T[5], regs::T[5], -1);
            a.sd(regs::T[5], ctrl, 16);
            mcs_release(&mut a, "dec", ctrl, qnode, regs::T[0], regs::T[1]);
            a.j("work_loop");
            a.label("finish");
            a.fence();
            a.halt();
            // sched(gate T6, time A4): locked push into bucket t/10 - 1.
            a.label("sched");
            a.mv(regs::A[3], duet_cpu::isa::Reg::RA);
            mcs_acquire(&mut a, "enq", ctrl, qnode, regs::T[0], regs::T[1]);
            a.li(regs::T[0], 10);
            a.div(regs::T[1], regs::A[4], regs::T[0]);
            a.addi(regs::T[1], regs::T[1], -1); // bucket index
            a.slli(regs::T[2], regs::T[1], 4);
            a.addi(regs::T[2], regs::T[2], 64);
            a.add(regs::T[2], regs::T[2], ctrl);
            a.ld(regs::T[4], regs::T[2], 8); // tail
            a.li(regs::T[5], BUCKET_CAP as i64);
            a.mul(regs::T[0], regs::T[1], regs::T[5]);
            a.add(regs::T[0], regs::T[0], regs::T[4]);
            a.slli(regs::T[0], regs::T[0], 3);
            a.li(regs::T[5], layout.buckets as i64);
            a.add(regs::T[0], regs::T[0], regs::T[5]);
            a.sd(regs::T[6], regs::T[0], 0);
            a.addi(regs::T[4], regs::T[4], 1);
            a.sd(regs::T[4], regs::T[2], 8); // tail++
            mcs_release(&mut a, "enq", ctrl, qnode, regs::T[0], regs::T[1]);
            a.mv(duet_cpu::isa::Reg::RA, regs::A[3]);
            a.ret();
            a.assemble().unwrap()
        }
        _ => {
            let base = sys.config().mmio_base;
            sys.set_reg_mode(s_reg::ENQ, RegMode::FpgaBound);
            sys.set_reg_mode(s_reg::TOKEN, RegMode::Token);
            sys.set_reg_mode(s_reg::DATA, RegMode::CpuBound);
            sys.set_reg_mode(s_reg::IDLE, RegMode::FpgaBound);
            sys.set_reg_mode(s_reg::DONE, RegMode::ShadowPlain);
            sys.attach_accelerator(Box::new(TaskScheduler::new(variant.push_mode(), p, &seeds)));
            let mut a = Asm::new();
            a.label("main");
            let (enq_r, tok_r, data_r, idle_r, done_r) =
                (regs::S[0], regs::S[1], regs::S[2], regs::S[3], regs::A[6]);
            a.li(enq_r, (base + 8 * s_reg::ENQ as u64) as i64);
            a.li(tok_r, (base + 8 * s_reg::TOKEN as u64) as i64);
            a.li(data_r, (base + 8 * s_reg::DATA as u64) as i64);
            a.li(idle_r, (base + 8 * s_reg::IDLE as u64) as i64);
            a.li(done_r, (base + 8 * s_reg::DONE as u64) as i64);
            a.li(regs::A[7], 0); // processed count
            a.li(regs::A[1], 0); // scheduled count
            a.coreid(regs::T[0]);
            a.slli(regs::A[5], regs::T[0], 48);
            // A2 = arena write pointer.
            a.coreid(regs::T[0]);
            a.li(regs::T[1], (layout.arena_cap * 8) as i64);
            a.mul(regs::T[0], regs::T[0], regs::T[1]);
            a.li(regs::A[2], layout.arenas as i64);
            a.add(regs::A[2], regs::A[2], regs::T[0]);
            a.label("work_loop");
            a.ld(regs::T[0], tok_r, 0);
            a.beqz(regs::T[0], "no_item");
            a.ld(regs::T[1], data_r, 0); // packed time<<32|gate
            a.srli(regs::S[4], regs::T[1], 32);
            a.li(regs::T[2], 0xFFFF_FFFF);
            a.and(regs::S[5], regs::T[1], regs::T[2]);
            emit_process_event(&mut a, &layout, "hw", "sched");
            a.addi(regs::A[7], regs::A[7], 1);
            a.j("work_loop");
            a.label("no_item");
            // idle report: coreid<<48 | scheduled<<24 | consumed
            a.slli(regs::T[1], regs::A[1], 24);
            a.or(regs::T[1], regs::T[1], regs::A[7]);
            a.or(regs::T[1], regs::T[1], regs::A[5]);
            a.sd(regs::T[1], idle_r, 0);
            a.ld(regs::T[2], done_r, 0);
            a.beqz(regs::T[2], "work_loop");
            a.fence();
            a.halt();
            // sched(gate T6, time A4): write the record, push its pointer.
            a.label("sched");
            a.slli(regs::T[0], regs::A[4], 32);
            a.or(regs::T[0], regs::T[0], regs::T[6]);
            a.sd(regs::T[0], regs::A[2], 0);
            a.fence(); // record globally visible before the pointer
            a.sd(regs::A[2], enq_r, 0);
            a.addi(regs::A[2], regs::A[2], 8);
            a.addi(regs::A[1], regs::A[1], 1);
            a.ret();
            a.assemble().unwrap()
        }
    };
    let prog = Arc::new(prog);
    for core in 0..p {
        sys.load_program(core, prog.clone(), "main");
    }
    if variant == BenchVariant::ProcOnly {
        for core in 0..p {
            sys.warm_shared(layout.gates, u64::from(c.total_gates()) * 16, core);
        }
    }
    (sys, expected)
}

/// Runs the PDES benchmark with `p` workers on a `width × layers` circuit.
pub fn run(variant: BenchVariant, p: usize, width: u32, layers: u32, seed: u64) -> AppResult {
    let layout = PdesLayout::new();
    let (mut sys, expected) = prepare(variant, p, width, layers, seed);
    let runtime = sys
        .run_until_halt(Time::from_us(60_000))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(Time::from_us(61_000))
        .unwrap_or_else(|e| panic!("{e}"));
    let correct = (0u64..)
        .zip(&expected)
        .all(|(g, &want)| sys.peek_u32(layout.out + g * 4) == want);
    AppResult {
        name: format!("pdes/{p}"),
        variant,
        processors: p,
        memory_hubs: 1,
        fpga_mhz: PDES_MHZ,
        runtime,
        correct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_eval_is_nand_network() {
        let c = Circuit::generate(4, 3, 1);
        let out = c.eval_ref();
        for l in 1..=3u32 {
            for k in 0..4 {
                let g = (l * 4 + k) as usize;
                let (a, b) = c.inputs[g];
                assert_eq!(out[g], 1 - (out[a as usize] & out[b as usize]));
            }
        }
    }

    #[test]
    fn baseline_single_core_matches_reference() {
        let r = run(BenchVariant::ProcOnly, 1, 4, 3, 2);
        assert!(r.correct);
    }

    #[test]
    fn baseline_multicore_matches_reference() {
        let r = run(BenchVariant::ProcOnly, 3, 4, 4, 2);
        assert!(r.correct, "conservative ordering violated in baseline");
    }

    #[test]
    fn hardware_scheduler_matches_reference() {
        let r = run(BenchVariant::Duet, 2, 4, 3, 2);
        assert!(r.correct, "hardware scheduler mis-ordered events");
    }

    #[test]
    fn hardware_scheduler_scales_better_than_locks() {
        let base = run(BenchVariant::ProcOnly, 4, 6, 4, 7);
        let duet = run(BenchVariant::Duet, 4, 6, 4, 7);
        assert!(base.correct && duet.correct);
        assert!(
            duet.runtime < base.runtime,
            "scheduler ({}) must beat MCS-locked baseline ({})",
            duet.runtime,
            base.runtime
        );
    }
}
