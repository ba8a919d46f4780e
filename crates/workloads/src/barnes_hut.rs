//! **Barnes-Hut** (P4M1, fine-grained acceleration; Sec. III-A2 and V-D).
//!
//! N-body force calculation over an octree. Exactly as Fig. 7 prescribes:
//! the processors own the tree traversal ("loop-carry dependencies and
//! dynamic control flow are handled by the processors"), the force kernels
//! run on the eFPGA, the processors and accelerator overlap through
//! software pipelining (interaction commands stream through the FPGA-bound
//! FIFO while traversal continues), and a single pipelined accelerator is
//! time-multiplexed by four CPU threads.
//!
//! Modelling note (documented substitution): the paper's two kernels
//! (`CalcForce` for particle-particle, `ApproxForce` for cell monopoles)
//! collapse into one kernel here because leaves hold single particles and
//! cells interact through their center of mass — the standard monopole
//! formulation. The traversal structure, invocation pattern, and memory
//! behaviour (a few cachelines at random addresses per invocation) are
//! preserved.

use std::collections::VecDeque;
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
pub const BH_MHZ: f64 = 85.0;

/// Gravitational softening.
pub const EPS: f64 = 1e-4;

/// Opening criterion θ² (interact when `size² ≤ θ²·d²`).
pub const THETA2: f64 = 0.25;

/// Sentinel for "no child".
const NO_CHILD: u16 = 0xFFFF;

/// Sentinel for "internal node" in the leaf field.
const NOT_LEAF: u32 = 0xFFFF_FFFF;

/// A particle.
#[derive(Clone, Copy, Debug)]
pub struct Particle {
    /// Position.
    pub pos: [f64; 3],
    /// Mass.
    pub mass: f64,
}

/// One octree node (64 bytes in simulated memory).
#[derive(Clone, Copy, Debug)]
pub struct BhNode {
    /// Center of mass.
    pub com: [f64; 3],
    /// Total mass.
    pub mass: f64,
    /// Cell side length squared.
    pub size2: f64,
    /// Particle index if this is a leaf, else `NOT_LEAF` (0xFFFF_FFFF).
    pub leaf: u32,
    /// Child node ids (`NO_CHILD` = 0xFFFF = empty octant).
    pub children: [u16; 8],
}

/// Builds an octree over the unit cube.
pub fn build_octree(particles: &[Particle]) -> Vec<BhNode> {
    let mut nodes = Vec::new();
    let idx: Vec<u32> = (0..particles.len() as u32).collect();
    build_rec(particles, &idx, [0.5, 0.5, 0.5], 0.5, &mut nodes);
    nodes
}

fn build_rec(
    particles: &[Particle],
    idx: &[u32],
    center: [f64; 3],
    half: f64,
    nodes: &mut Vec<BhNode>,
) -> u16 {
    let id = nodes.len() as u16;
    assert!(nodes.len() < usize::from(NO_CHILD), "octree too large");
    let mass: f64 = idx.iter().map(|&i| particles[i as usize].mass).sum();
    let mut com = [0.0; 3];
    for &i in idx {
        let p = &particles[i as usize];
        for (c, x) in com.iter_mut().zip(p.pos) {
            *c += x * p.mass;
        }
    }
    for c in com.iter_mut() {
        *c /= mass.max(1e-300);
    }
    nodes.push(BhNode {
        com,
        mass,
        size2: (2.0 * half) * (2.0 * half),
        leaf: if idx.len() == 1 { idx[0] } else { NOT_LEAF },
        children: [NO_CHILD; 8],
    });
    if idx.len() > 1 {
        let mut buckets: [Vec<u32>; 8] = Default::default();
        for &i in idx {
            let p = particles[i as usize].pos;
            let o = usize::from(p[0] >= center[0])
                | usize::from(p[1] >= center[1]) << 1
                | usize::from(p[2] >= center[2]) << 2;
            buckets[o].push(i);
        }
        for (o, b) in buckets.iter().enumerate() {
            if b.is_empty() {
                continue;
            }
            let h = half / 2.0;
            let c = [
                center[0] + if o & 1 != 0 { h } else { -h },
                center[1] + if o & 2 != 0 { h } else { -h },
                center[2] + if o & 4 != 0 { h } else { -h },
            ];
            let child = build_rec(particles, b, c, h, nodes);
            nodes[usize::from(id)].children[o] = child;
        }
    }
    id
}

/// The force kernel, shared verbatim by the reference, the baseline IR,
/// and the accelerator model so results agree bit-for-bit.
pub fn kernel(pos: [f64; 3], com: [f64; 3], mass: f64) -> [f64; 3] {
    let dx = com[0] - pos[0];
    let dy = com[1] - pos[1];
    let dz = com[2] - pos[2];
    let d2 = dx * dx + dy * dy + dz * dz + EPS;
    let inv = 1.0 / (d2 * d2.sqrt());
    let f = mass * inv;
    [f * dx, f * dy, f * dz]
}

/// Reference traversal with the same stack discipline as the IR (children
/// pushed in index order, popped LIFO).
pub fn forces_ref(particles: &[Particle], nodes: &[BhNode]) -> Vec<[f64; 3]> {
    particles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut acc = [0.0f64; 3];
            let mut stack = vec![0u16];
            while let Some(n) = stack.pop() {
                let node = &nodes[usize::from(n)];
                if node.leaf == i as u32 {
                    continue;
                }
                let dx = node.com[0] - p.pos[0];
                let dy = node.com[1] - p.pos[1];
                let dz = node.com[2] - p.pos[2];
                let d2 = dx * dx + dy * dy + dz * dz;
                if node.leaf != NOT_LEAF || node.size2 <= THETA2 * d2 {
                    let f = kernel(p.pos, node.com, node.mass);
                    for d in 0..3 {
                        acc[d] += f[d];
                    }
                } else {
                    for &c in &node.children {
                        if c != NO_CHILD {
                            stack.push(c);
                        }
                    }
                }
            }
            acc
        })
        .collect()
}

/// Commands to the accelerator (top two bits of the packed word).
mod bh_op {
    pub const INTERACT: u64 = 0;
    pub const SET_PARTICLE: u64 = 1;
    pub const GET: u64 = 2;
}

#[derive(Clone, Copy, Debug)]
struct InFlight {
    core: usize,
    addr: u64,
    fills: u8,
    line0: [u8; 16],
    line1: [u8; 16],
    line2: [u8; 16],
    is_set: bool,
}

/// The Barnes-Hut force pipeline: time-multiplexed by the CPU threads,
/// fetching node records through Memory Hub 0, accumulating per-core
/// force components in fabric registers.
pub struct BhAccel {
    regs: FabricRegFile,
    cores: usize,
    pos: Vec<[f64; 3]>,
    acc: Vec<[f64; 3]>,
    outstanding: Vec<u32>,
    pending_get: Vec<bool>,
    cmds: VecDeque<u64>,
    inflight: VecDeque<InFlight>,
    next_id: u64,
    nodes_base: u64,
    particles_base: u64,
}

impl BhAccel {
    /// Creates the pipeline for `cores` threads.
    pub fn new(push_mode: bool, cores: usize, nodes_base: u64, particles_base: u64) -> Self {
        let mut regs = FabricRegFile::new(push_mode);
        for c in 0..cores {
            regs.set_queue(8 + c);
        }
        BhAccel {
            regs,
            cores,
            pos: vec![[0.0; 3]; cores],
            acc: vec![[0.0; 3]; cores],
            outstanding: vec![0; cores],
            pending_get: vec![false; cores],
            cmds: VecDeque::new(),
            inflight: VecDeque::new(),
            next_id: 1,
            nodes_base,
            particles_base,
        }
    }

    fn complete(&mut self, fl: InFlight) {
        let f64_at = |line: &[u8; 16], o: usize| {
            f64::from_bits(u64::from_le_bytes(line[o..o + 8].try_into().unwrap()))
        };
        if fl.is_set {
            self.pos[fl.core] = [
                f64_at(&fl.line0, 0),
                f64_at(&fl.line0, 8),
                f64_at(&fl.line1, 0),
            ];
            self.acc[fl.core] = [0.0; 3];
        } else {
            let com = [
                f64_at(&fl.line0, 0),
                f64_at(&fl.line0, 8),
                f64_at(&fl.line1, 0),
            ];
            let mass = f64_at(&fl.line1, 8);
            let f = kernel(self.pos[fl.core], com, mass);
            for (a, fd) in self.acc[fl.core].iter_mut().zip(f) {
                *a += fd;
            }
        }
        self.outstanding[fl.core] -= 1;
    }
}

duet_sim::pack_struct!(InFlight {
    core,
    addr,
    fills,
    line0,
    line1,
    line2,
    is_set
});
duet_sim::snap_fields!(BhAccel {
    regs, pos, acc, outstanding, pending_get, cmds, inflight, next_id
} check |b| duet_sim::snapshot::ensure(
    b.pos.len() == b.cores && b.acc.len() == b.cores,
    "barnes-hut core count mismatch"
));

impl SoftAccelerator for BhAccel {
    fn name(&self) -> &str {
        "barnes-hut"
    }

    fn tick(&mut self, ports: &mut FabricPorts<'_>) {
        let now = ports.now;
        self.regs.tick(now, &mut ports.regs);
        while let Some(cmd) = self.regs.pop_write(0) {
            self.cmds.push_back(cmd);
        }

        // Fills: each in-flight fetch consumes two line loads (ids 2k,
        // 2k+1 map to the front-most incomplete entries in order thanks to
        // FIFO delivery).
        while let Some(resp) = ports.hubs[0].pop_resp(now) {
            if let FpgaRespKind::LoadAck { data } = resp.kind {
                let slot = resp.id >> 1;
                if let Some(pos) = self.inflight.iter().position(|f| f.addr == slot) {
                    let fl = &mut self.inflight[pos];
                    if resp.id & 1 == 0 {
                        fl.line0 = data;
                    } else {
                        fl.line1 = data;
                    }
                    let _ = fl.line2;
                    fl.fills += 1;
                    if fl.fills == 2 {
                        let done = self.inflight.remove(pos).unwrap();
                        self.complete(done);
                    }
                }
            }
        }

        // Dispatch one command per cycle (II = 1 into the fetch stage).
        if let Some(&cmd) = self.cmds.front() {
            let op = cmd >> 62;
            let core = ((cmd >> 48) & 0xFF) as usize % self.cores;
            let id_field = cmd & 0xFFFF_FFFF;
            match op {
                bh_op::GET => {
                    self.cmds.pop_front();
                    self.pending_get[core] = true;
                }
                bh_op::SET_PARTICLE | bh_op::INTERACT => {
                    let base = if op == bh_op::SET_PARTICLE {
                        self.particles_base + id_field * 32
                    } else {
                        self.nodes_base + id_field * 64
                    };
                    // Two line fetches; id encodes (slot, half).
                    let slot = self.next_id;
                    let ok0 = ports.hubs[0].load_line(now, slot << 1, base);
                    let ok1 = ok0 && ports.hubs[0].load_line(now, (slot << 1) | 1, base + 16);
                    if ok0 && ok1 {
                        self.next_id += 1;
                        self.cmds.pop_front();
                        self.outstanding[core] += 1;
                        self.inflight.push_back(InFlight {
                            core,
                            addr: slot,
                            fills: 0,
                            line0: [0; 16],
                            line1: [0; 16],
                            line2: [0; 16],
                            is_set: op == bh_op::SET_PARTICLE,
                        });
                    }
                }
                _ => {
                    self.cmds.pop_front();
                }
            }
        }

        // Serve completed GETs: all of that core's interactions retired.
        for c in 0..self.cores {
            if self.pending_get[c] && self.outstanding[c] == 0 {
                self.pending_get[c] = false;
                for d in 0..3 {
                    self.regs.push_result(8 + c, self.acc[c][d].to_bits());
                }
            }
        }
        self.regs.tick(now, &mut ports.regs);
    }

    fn netlist(&self) -> NetlistSummary {
        // Calibrated against Table II (Barnes-Hut: 85 MHz, norm. area
        // 14.22, CLB 0.99, BRAM 0.05).
        NetlistSummary {
            name: "barnes-hut",
            luts: 46360,
            ffs: 64904,
            bram_kbits: 1344,
            mults: 64,
            logic_levels: 5,
        }
    }

    fn reset(&mut self) {
        self.cmds.clear();
        self.inflight.clear();
    }
}

/// Memory layout.
#[derive(Clone, Copy, Debug)]
pub struct BhLayout {
    /// Particles: x, y, z, mass (32 B each).
    pub particles: u64,
    /// Octree nodes (64 B each).
    pub nodes: u64,
    /// Output accelerations (3 × f64 per particle, 32 B stride).
    pub out: u64,
    /// Per-core traversal stacks.
    pub stacks: u64,
}

impl BhLayout {
    /// Default layout.
    pub fn new() -> Self {
        BhLayout {
            particles: 0x1_0000,
            nodes: 0x4_0000,
            out: 0xA_0000,
            stacks: 0xC_0000,
        }
    }
}

impl Default for BhLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// Generates `n` random particles in the unit cube.
pub fn generate(n: usize, seed: u64) -> Vec<Particle> {
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|_| Particle {
            pos: [rng.next_f64(), rng.next_f64(), rng.next_f64()],
            mass: 1.0 + rng.next_f64(),
        })
        .collect()
}

/// Emits the traversal shared by both variants. Per particle `S[0]=i`:
/// walks the tree with an explicit stack; for each accepted interaction it
/// jumps to `interact_label` (node id in `T[6]`; must preserve S regs,
/// A0-A2) via `call`.
fn emit_traversal(a: &mut Asm, layout: &BhLayout, interact_label: &str) {
    let i = regs::S[0];
    let sp = regs::S[1];
    let n = regs::S[2];
    let (px, py, pz) = (regs::A[0], regs::A[1], regs::A[2]);
    // Load particle position.
    a.slli(regs::T[0], i, 5);
    a.li(regs::T[1], layout.particles as i64);
    a.add(regs::T[0], regs::T[0], regs::T[1]);
    a.ld(px, regs::T[0], 0);
    a.ld(py, regs::T[0], 8);
    a.ld(pz, regs::T[0], 16);
    // Stack: per-core region; push root (0).
    a.coreid(regs::T[0]);
    a.slli(regs::T[0], regs::T[0], 12);
    a.li(sp, layout.stacks as i64);
    a.add(sp, sp, regs::T[0]);
    a.mv(regs::S[3], sp); // stack base
    a.sd(duet_cpu::isa::Reg::ZERO, sp, 0);
    a.addi(sp, sp, 8);
    a.label("walk");
    a.bgeu(regs::S[3], sp, "walk_done");
    a.addi(sp, sp, -8);
    a.ld(n, sp, 0);
    // node base = nodes + n*64
    a.slli(regs::T[0], n, 6);
    a.li(regs::T[1], layout.nodes as i64);
    a.add(regs::S[4], regs::T[0], regs::T[1]);
    // leaf field
    a.lwu(regs::T[2], regs::S[4], 40);
    a.beq(regs::T[2], i, "walk"); // self-interaction: skip
                                  // d2 = |com - p|^2
    a.ld(regs::T[3], regs::S[4], 0);
    a.fsub(regs::T[3], regs::T[3], px);
    a.fmul(regs::T[3], regs::T[3], regs::T[3]);
    a.ld(regs::T[4], regs::S[4], 8);
    a.fsub(regs::T[4], regs::T[4], py);
    a.fmul(regs::T[4], regs::T[4], regs::T[4]);
    a.fadd(regs::T[3], regs::T[3], regs::T[4]);
    a.ld(regs::T[4], regs::S[4], 16);
    a.fsub(regs::T[4], regs::T[4], pz);
    a.fmul(regs::T[4], regs::T[4], regs::T[4]);
    a.fadd(regs::T[3], regs::T[3], regs::T[4]); // d2
                                                // Leaf (of another particle): always interact.
    a.li(regs::T[5], NOT_LEAF as i64);
    a.bne(regs::T[2], regs::T[5], "interact_site");
    // size2 <= theta2 * d2 ?
    a.lfd(regs::T[4], THETA2);
    a.fmul(regs::T[4], regs::T[4], regs::T[3]);
    a.ld(regs::T[5], regs::S[4], 32);
    a.fcmple(regs::T[6], regs::T[5], regs::T[4]);
    a.bnez(regs::T[6], "interact_site");
    // Open: push the (up to 8) children, packed as u16 in two u64s.
    for half in 0..2 {
        a.ld(regs::T[0], regs::S[4], 48 + half * 8);
        for k in 0..4 {
            if k > 0 {
                a.srli(regs::T[0], regs::T[0], 16);
            }
            a.andi(regs::T[1], regs::T[0], 0xFFFF);
            a.li(regs::T[2], i64::from(NO_CHILD));
            a.beq(regs::T[1], regs::T[2], &format!("skip_{half}_{k}"));
            a.sd(regs::T[1], sp, 0);
            a.addi(sp, sp, 8);
            a.label(&format!("skip_{half}_{k}"));
        }
    }
    a.j("walk");
    a.label("interact_site");
    a.mv(regs::T[6], n);
    a.call(interact_label);
    a.j("walk");
    a.label("walk_done");
}

/// Runs the Barnes-Hut force phase with `p` workers over `n` particles.
pub fn run(variant: BenchVariant, p: usize, n: usize, seed: u64) -> AppResult {
    let layout = BhLayout::new();
    let particles = generate(n, seed);
    let nodes = build_octree(&particles);
    let expected = forces_ref(&particles, &nodes);
    let mut sys = System::new(variant.system_config(p, 1, BH_MHZ)).expect("valid config");
    for (i, pt) in particles.iter().enumerate() {
        let b = layout.particles + (i as u64) * 32;
        sys.poke_f64(b, pt.pos[0]);
        sys.poke_f64(b + 8, pt.pos[1]);
        sys.poke_f64(b + 16, pt.pos[2]);
        sys.poke_f64(b + 24, pt.mass);
    }
    for (id, nd) in nodes.iter().enumerate() {
        let b = layout.nodes + (id as u64) * 64;
        sys.poke_f64(b, nd.com[0]);
        sys.poke_f64(b + 8, nd.com[1]);
        sys.poke_f64(b + 16, nd.com[2]);
        sys.poke_f64(b + 24, nd.mass);
        sys.poke_f64(b + 32, nd.size2);
        sys.poke_u64(b + 40, u64::from(nd.leaf));
        for half in 0..2 {
            let mut w = 0u64;
            for k in 0..4 {
                w |= u64::from(nd.children[half * 4 + k]) << (16 * k);
            }
            sys.poke_u64(b + 48 + (half as u64) * 8, w);
        }
    }

    // Particle ranges per core.
    let chunk = n.div_ceil(p);
    let prog = match variant {
        BenchVariant::ProcOnly => {
            let mut a = Asm::new();
            a.label("main");
            // i = coreid*chunk .. min(n, +chunk); acc in S5..S7.
            a.coreid(regs::T[0]);
            a.li(regs::T[1], chunk as i64);
            a.mul(regs::S[0], regs::T[0], regs::T[1]);
            a.add(regs::A[3], regs::S[0], regs::T[1]);
            a.li(regs::T[2], n as i64);
            a.blt(regs::A[3], regs::T[2], "clamped");
            a.mv(regs::A[3], regs::T[2]);
            a.label("clamped");
            a.label("particle");
            a.bgeu(regs::S[0], regs::A[3], "all_done");
            a.lfd(regs::S[5], 0.0);
            a.lfd(regs::S[6], 0.0);
            a.lfd(regs::S[7], 0.0);
            emit_traversal(&mut a, &layout, "force");
            // store acc to out[i]
            a.slli(regs::T[0], regs::S[0], 5);
            a.li(regs::T[1], layout.out as i64);
            a.add(regs::T[0], regs::T[0], regs::T[1]);
            a.sd(regs::S[5], regs::T[0], 0);
            a.sd(regs::S[6], regs::T[0], 8);
            a.sd(regs::S[7], regs::T[0], 16);
            a.addi(regs::S[0], regs::S[0], 1);
            a.j("particle");
            a.label("all_done");
            a.fence();
            a.halt();
            // force(node T6): the inline kernel. Clobbers T0-T5, A4, A5.
            a.label("force");
            a.slli(regs::T[0], regs::T[6], 6);
            a.li(regs::T[1], layout.nodes as i64);
            a.add(regs::T[0], regs::T[0], regs::T[1]);
            // dx,dy,dz
            a.ld(regs::T[1], regs::T[0], 0);
            a.fsub(regs::T[1], regs::T[1], regs::A[0]);
            a.ld(regs::T[2], regs::T[0], 8);
            a.fsub(regs::T[2], regs::T[2], regs::A[1]);
            a.ld(regs::T[3], regs::T[0], 16);
            a.fsub(regs::T[3], regs::T[3], regs::A[2]);
            // d2 = dx2+dy2+dz2+EPS
            a.fmul(regs::T[4], regs::T[1], regs::T[1]);
            a.fmul(regs::T[5], regs::T[2], regs::T[2]);
            a.fadd(regs::T[4], regs::T[4], regs::T[5]);
            a.fmul(regs::T[5], regs::T[3], regs::T[3]);
            a.fadd(regs::T[4], regs::T[4], regs::T[5]);
            a.lfd(regs::T[5], EPS);
            a.fadd(regs::T[4], regs::T[4], regs::T[5]);
            // inv = 1/(d2*sqrt(d2)); f = mass*inv
            a.fsqrt(regs::T[5], regs::T[4]);
            a.fmul(regs::T[4], regs::T[4], regs::T[5]);
            a.lfd(regs::A[4], 1.0);
            a.fdiv(regs::T[4], regs::A[4], regs::T[4]);
            a.ld(regs::A[5], regs::T[0], 24); // mass
            a.fmul(regs::T[4], regs::A[5], regs::T[4]);
            // acc += f * d
            a.fmul(regs::T[1], regs::T[4], regs::T[1]);
            a.fadd(regs::S[5], regs::S[5], regs::T[1]);
            a.fmul(regs::T[2], regs::T[4], regs::T[2]);
            a.fadd(regs::S[6], regs::S[6], regs::T[2]);
            a.fmul(regs::T[3], regs::T[4], regs::T[3]);
            a.fadd(regs::S[7], regs::S[7], regs::T[3]);
            a.ret();
            a.assemble().unwrap()
        }
        _ => {
            let base = sys.config().mmio_base;
            sys.set_reg_mode(0, RegMode::FpgaBound);
            for c in 0..p {
                sys.set_reg_mode(8 + c, RegMode::CpuBound);
            }
            sys.attach_accelerator(Box::new(BhAccel::new(
                variant.push_mode(),
                p,
                layout.nodes,
                layout.particles,
            )));
            let mut a = Asm::new();
            a.label("main");
            a.coreid(regs::T[0]);
            a.li(regs::T[1], chunk as i64);
            a.mul(regs::S[0], regs::T[0], regs::T[1]);
            a.add(regs::A[3], regs::S[0], regs::T[1]);
            a.li(regs::T[2], n as i64);
            a.blt(regs::A[3], regs::T[2], "clamped");
            a.mv(regs::A[3], regs::T[2]);
            a.label("clamped");
            // A6 = cmd reg addr; A7 = per-core result reg addr;
            // S5 = coreid<<48 template.
            a.li(regs::A[6], base as i64);
            a.coreid(regs::T[0]);
            a.slli(regs::T[1], regs::T[0], 3);
            a.li(regs::A[7], (base + 64) as i64);
            a.add(regs::A[7], regs::A[7], regs::T[1]);
            a.slli(regs::S[5], regs::T[0], 48);
            a.label("particle");
            a.bgeu(regs::S[0], regs::A[3], "all_done");
            // SET_PARTICLE
            a.li(regs::T[0], (bh_op::SET_PARTICLE << 62) as i64);
            a.or(regs::T[0], regs::T[0], regs::S[5]);
            a.or(regs::T[0], regs::T[0], regs::S[0]);
            a.sd(regs::T[0], regs::A[6], 0);
            emit_traversal(&mut a, &layout, "force");
            // GET + read three components.
            a.li(regs::T[0], (bh_op::GET << 62) as i64);
            a.or(regs::T[0], regs::T[0], regs::S[5]);
            a.sd(regs::T[0], regs::A[6], 0);
            a.slli(regs::T[1], regs::S[0], 5);
            a.li(regs::T[2], layout.out as i64);
            a.add(regs::T[1], regs::T[1], regs::T[2]);
            for d in 0..3 {
                a.ld(regs::T[3], regs::A[7], 0);
                a.sd(regs::T[3], regs::T[1], d * 8);
            }
            a.addi(regs::S[0], regs::S[0], 1);
            a.j("particle");
            a.label("all_done");
            a.fence();
            a.halt();
            // force(node T6): one FPGA-bound FIFO write (software
            // pipelining: the CPU keeps traversing while the pipeline
            // works).
            a.label("force");
            a.li(regs::T[0], (bh_op::INTERACT << 62) as i64);
            a.or(regs::T[0], regs::T[0], regs::S[5]);
            a.or(regs::T[0], regs::T[0], regs::T[6]);
            a.sd(regs::T[0], regs::A[6], 0);
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
            sys.warm_shared(layout.particles, (n as u64) * 32, c);
            sys.warm_shared(layout.nodes, (nodes.len() as u64) * 64, c);
        }
    }
    let runtime = sys
        .run_until_halt(Time::from_us(120_000))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(Time::from_us(121_000))
        .unwrap_or_else(|e| panic!("{e}"));
    let correct = (0..n).all(|i| {
        (0..3).all(|d| {
            let got = sys.peek_f64(layout.out + (i as u64) * 32 + (d as u64) * 8);
            let want = expected[i][d];
            (got - want).abs() <= 1e-9 * want.abs().max(1.0)
        })
    });
    AppResult {
        name: "barnes-hut".into(),
        variant,
        processors: p,
        memory_hubs: 1,
        fpga_mhz: BH_MHZ,
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
    fn octree_mass_is_conserved() {
        let ps = generate(24, 7);
        let nodes = build_octree(&ps);
        let total: f64 = ps.iter().map(|p| p.mass).sum();
        assert!((nodes[0].mass - total).abs() < 1e-9);
        assert_eq!(nodes[0].leaf, NOT_LEAF);
    }

    #[test]
    fn reference_forces_attract() {
        // Two particles attract each other along the connecting line.
        let ps = vec![
            Particle {
                pos: [0.25, 0.5, 0.5],
                mass: 1.0,
            },
            Particle {
                pos: [0.75, 0.5, 0.5],
                mass: 1.0,
            },
        ];
        let nodes = build_octree(&ps);
        let f = forces_ref(&ps, &nodes);
        assert!(f[0][0] > 0.0 && f[1][0] < 0.0);
        assert!((f[0][0] + f[1][0]).abs() < 1e-12, "Newton's third law");
    }

    #[test]
    fn baseline_single_core_matches_reference() {
        let r = run(BenchVariant::ProcOnly, 1, 10, 3);
        assert!(r.correct);
    }

    #[test]
    fn baseline_multicore_matches_reference() {
        let r = run(BenchVariant::ProcOnly, 2, 12, 3);
        assert!(r.correct);
    }

    #[test]
    fn accelerated_matches_reference() {
        let r = run(BenchVariant::Duet, 2, 12, 3);
        assert!(r.correct, "accelerator forces diverged");
    }

    #[test]
    fn duet_beats_baseline_and_fpsoc() {
        let base = run(BenchVariant::ProcOnly, 2, 16, 5);
        let duet = run(BenchVariant::Duet, 2, 16, 5);
        let fpsoc = run(BenchVariant::Fpsoc, 2, 16, 5);
        assert!(base.correct && duet.correct && fpsoc.correct);
        assert!(
            duet.runtime < base.runtime,
            "duet {} vs baseline {}",
            duet.runtime,
            base.runtime
        );
        assert!(
            duet.runtime < fpsoc.runtime,
            "duet {} vs fpsoc {}",
            duet.runtime,
            fpsoc.runtime
        );
    }
}
