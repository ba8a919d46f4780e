//! **Dijkstra** (P1M1, fine-grained acceleration with a soft cache;
//! Sec. V-D).
//!
//! "We implement an accelerator for Dijkstra's Shortest Path algorithm
//! with Catapult HLS and use a soft cache to exploit data locality between
//! consecutive calls to the accelerator."
//!
//! The engine runs the O(V²) kernel on the fabric: a pipelined min-scan
//! over the distance array followed by edge relaxation, with the distance
//! array and edge stream flowing through its **soft cache** (Duet) — the
//! cross-round reuse the paper highlights — or directly through the slow
//! FPGA-side cache (FPSoC: "soft caches become unnecessary and can be
//! removed"). The processor-only baseline is the classic O(V²) array
//! implementation.

use std::sync::Arc;

use duet_core::RegMode;
use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_fpga::fabric::NetlistSummary;
use duet_fpga::ports::{FabricPorts, FpgaRespKind, HubPort, SoftAccelerator};
use duet_fpga::regfile::FabricRegFile;
use duet_fpga::soft_cache::{SoftCache, SoftCacheConfig};
use duet_mem::types::{LineData, Width};
use duet_sim::{SimRng, Time};
use duet_system::System;

use crate::common::{AppResult, BenchVariant};

/// Accelerator clock from Table II.
pub const DIJKSTRA_MHZ: f64 = 127.0;

/// Infinity marker for unreached nodes.
pub const INF: u32 = u32::MAX;

/// A generated weighted digraph in CSR form.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Per-node `(first_edge, degree)`.
    pub offsets: Vec<(u32, u32)>,
    /// Edges as `(dest, weight)`.
    pub edges: Vec<(u32, u32)>,
}

impl Graph {
    /// Generates a connected random digraph with `v` nodes and about
    /// `v * avg_deg` edges.
    pub fn generate(v: u32, avg_deg: u32, seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); v as usize];
        // Ring backbone for connectivity.
        for u in 0..v {
            let w = 1 + (rng.next_below(15)) as u32;
            adj[u as usize].push(((u + 1) % v, w));
        }
        for _ in 0..v * avg_deg.saturating_sub(1) {
            let a = rng.next_below(u64::from(v)) as u32;
            let b = rng.next_below(u64::from(v)) as u32;
            if a != b {
                let w = 1 + (rng.next_below(31)) as u32;
                adj[a as usize].push((b, w));
            }
        }
        let mut offsets = Vec::with_capacity(v as usize);
        let mut edges = Vec::new();
        for l in &adj {
            offsets.push((edges.len() as u32, l.len() as u32));
            edges.extend_from_slice(l);
        }
        Graph { offsets, edges }
    }

    /// Reference single-source shortest paths from node 0.
    pub fn dijkstra_ref(&self) -> Vec<u32> {
        let v = self.offsets.len();
        let mut dist = vec![INF; v];
        let mut visited = vec![false; v];
        dist[0] = 0;
        for _ in 0..v {
            let mut u = usize::MAX;
            let mut best = INF;
            for (i, &d) in dist.iter().enumerate() {
                if !visited[i] && d < best {
                    best = d;
                    u = i;
                }
            }
            if u == usize::MAX {
                break;
            }
            visited[u] = true;
            let (off, deg) = self.offsets[u];
            for e in off..off + deg {
                let (w, wt) = self.edges[e as usize];
                let nd = dist[u].saturating_add(wt);
                if nd < dist[w as usize] {
                    dist[w as usize] = nd;
                }
            }
        }
        dist
    }
}

/// Memory layout.
#[derive(Clone, Copy, Debug)]
pub struct DijkstraLayout {
    /// `(off, deg)` packed as u64 per node.
    pub offsets: u64,
    /// Edges: `dest | weight<<32` per u64.
    pub edges: u64,
    /// Distance array (u32 per node).
    pub dist: u64,
    /// Visited flags (u8 per node), baseline/CPU side only.
    pub visited: u64,
}

impl DijkstraLayout {
    /// Default layout.
    pub fn new() -> Self {
        DijkstraLayout {
            offsets: 0x1_0000,
            edges: 0x2_0000,
            dist: 0x4_0000,
            visited: 0x5_0000,
        }
    }
}

impl Default for DijkstraLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// Fabric-side memory path: through a soft cache (Duet) or straight to the
/// Memory Hub (FPSoC, where the slow proxy is the cache).
enum MemPath {
    Cached(SoftCache),
    Direct {
        pending: Option<(u64, u64)>,
        got: Option<(u64, LineData)>,
        stores_outstanding: u32,
        next_id: u64,
    },
}

impl MemPath {
    fn new(use_soft_cache: bool) -> Self {
        if use_soft_cache {
            MemPath::Cached(SoftCache::new(SoftCacheConfig::typical(), 1 << 32))
        } else {
            MemPath::Direct {
                pending: None,
                got: None,
                stores_outstanding: 0,
                next_id: 1,
            }
        }
    }

    /// Absorbs hub responses and pumps buffered writes.
    fn pump(&mut self, now: Time, hub: &mut HubPort<'_>) {
        match self {
            MemPath::Cached(sc) => {
                while let Some(resp) = hub.pop_resp(now) {
                    sc.handle_resp(&resp);
                }
                sc.tick(now, hub);
            }
            MemPath::Direct {
                pending,
                got,
                stores_outstanding,
                ..
            } => {
                while let Some(resp) = hub.pop_resp(now) {
                    match resp.kind {
                        FpgaRespKind::LoadAck { data } => {
                            if let Some((id, addr)) = *pending {
                                if id == resp.id {
                                    *got = Some((addr & !0xF, data));
                                    *pending = None;
                                }
                            }
                        }
                        FpgaRespKind::StoreAck { .. } => {
                            *stores_outstanding = stores_outstanding.saturating_sub(1);
                        }
                        FpgaRespKind::Inv { .. } => {}
                    }
                }
            }
        }
    }

    /// Attempts a u32 load; `None` means retry next tick.
    fn read_u32(&mut self, now: Time, addr: u64, hub: &mut HubPort<'_>) -> Option<u32> {
        match self {
            MemPath::Cached(sc) => sc.load(now, addr, Width::B4, hub).map(|v| v as u32),
            MemPath::Direct {
                pending,
                got,
                next_id,
                ..
            } => {
                let line = addr & !0xF;
                if let Some((l, data)) = got {
                    if *l == line {
                        let o = (addr & 0xF) as usize;
                        return Some(u32::from_le_bytes(data[o..o + 4].try_into().unwrap()));
                    }
                }
                if pending.is_none() {
                    let id = *next_id;
                    *next_id += 1;
                    if hub.load_line(now, id, line) {
                        *pending = Some((id, addr));
                    }
                }
                None
            }
        }
    }

    /// Attempts a u32 store; false means retry next tick.
    fn write_u32(&mut self, now: Time, addr: u64, v: u32, hub: &mut HubPort<'_>) -> bool {
        match self {
            MemPath::Cached(sc) => sc.store(addr, Width::B4, u64::from(v)),
            MemPath::Direct {
                stores_outstanding,
                next_id,
                got,
                ..
            } => {
                let id = *next_id;
                if hub.store(now, id, addr, Width::B4, u64::from(v)) {
                    *next_id += 1;
                    *stores_outstanding += 1;
                    // Keep the local line view coherent for this engine.
                    if let Some((l, data)) = got {
                        if *l == addr & !0xF {
                            let o = (addr & 0xF) as usize;
                            data[o..o + 4].copy_from_slice(&v.to_le_bytes());
                        }
                    }
                    true
                } else {
                    false
                }
            }
        }
    }

    fn stores_pending(&self) -> bool {
        match self {
            MemPath::Cached(sc) => sc.pending_stores() > 0,
            MemPath::Direct {
                stores_outstanding, ..
            } => *stores_outstanding > 0,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DjState {
    Idle,
    /// Linear scan for the minimum-distance unvisited node.
    Scan {
        u: u32,
        best: u32,
        best_d: u32,
    },
    Meta {
        u: u32,
    },
    DistU {
        u: u32,
        off: u32,
        deg: u32,
    },
    Edge {
        e: u32,
        end: u32,
        du: u32,
    },
    EdgeDist {
        e: u32,
        end: u32,
        du: u32,
        dest: u32,
        wt: u32,
    },
    Drain,
}

/// Hand-written: the variant is construction-time configuration
/// (`use_soft_cache`), so the tag is cross-checked and the body loaded into
/// the already-built variant.
impl duet_sim::Snap for MemPath {
    fn save(&self, w: &mut duet_sim::SnapWriter) {
        match self {
            MemPath::Cached(sc) => {
                w.u8(0);
                sc.save(w);
            }
            MemPath::Direct {
                pending,
                got,
                stores_outstanding,
                next_id,
            } => {
                w.u8(1);
                (*pending, *got, *stores_outstanding, *next_id).save(w);
            }
        }
    }

    fn load(&mut self, r: &mut duet_sim::SnapReader<'_>) -> Result<(), duet_sim::SnapError> {
        use duet_sim::Snap;
        match (r.u8()?, self) {
            // UFCS: `SoftCache::load(addr, ...)` (the cache lookup) would
            // shadow the `Snap` method.
            (0, MemPath::Cached(sc)) => Snap::load(sc, r),
            (
                1,
                MemPath::Direct {
                    pending,
                    got,
                    stores_outstanding,
                    next_id,
                },
            ) => {
                (*pending, *got, *stores_outstanding, *next_id) = duet_sim::Pack::unpack(r)?;
                Ok(())
            }
            _ => Err(duet_sim::SnapError::Corrupt(
                "dijkstra memory-path variant mismatch",
            )),
        }
    }
}

duet_sim::pack_enum!(DjState {
    0 => Idle,
    1 => Scan { u, best, best_d },
    2 => Meta { u },
    3 => DistU { u, off, deg },
    4 => Edge { e, end, du },
    5 => EdgeDist { e, end, du, dest, wt },
    6 => Drain,
});

/// The Dijkstra engine: the whole kernel runs on the fabric — a pipelined
/// min-scan over the distance array followed by edge relaxation, with the
/// distance array held in the **soft cache** across rounds ("exploit data
/// locality between consecutive calls"). The `visited` set lives in fabric
/// BRAM.
pub struct DijkstraAccel {
    regs: FabricRegFile,
    mem: MemPath,
    layout: DijkstraLayout,
    state: DjState,
    visited: Vec<bool>,
    n: u32,
    rounds: u32,
}

impl DijkstraAccel {
    /// Creates the engine; `use_soft_cache` per variant.
    pub fn new(push_mode: bool, use_soft_cache: bool, layout: DijkstraLayout) -> Self {
        let mut regs = FabricRegFile::new(push_mode);
        regs.set_queue(1);
        DijkstraAccel {
            regs,
            mem: MemPath::new(use_soft_cache),
            layout,
            state: DjState::Idle,
            visited: Vec::new(),
            n: 0,
            rounds: 0,
        }
    }
}

duet_sim::snap_fields!(DijkstraAccel {
    regs,
    mem,
    state,
    visited,
    n,
    rounds
});

impl SoftAccelerator for DijkstraAccel {
    fn name(&self) -> &str {
        "dijkstra"
    }

    fn tick(&mut self, ports: &mut FabricPorts<'_>) {
        let now = ports.now;
        self.regs.tick(now, &mut ports.regs);
        let hub = &mut ports.hubs[0];
        self.mem.pump(now, hub);

        // The HLS engine is pipelined: several dependent micro-steps
        // complete per fabric cycle when their operands hit in the soft
        // cache (II ≈ 1 through the relaxation loop).
        for _ in 0..4 {
            let before = self.state;
            self.step(now, hub);
            if self.state == before {
                break;
            }
        }
        self.regs.tick(now, &mut ports.regs);
    }

    fn netlist(&self) -> NetlistSummary {
        // Calibrated against Table II (dijkstra: 127 MHz, norm. area 1.94,
        // CLB 0.96, BRAM 0.31).
        NetlistSummary {
            name: "dijkstra",
            luts: 6650,
            ffs: 9310,
            bram_kbits: 1280,
            mults: 0,
            logic_levels: 4,
        }
    }

    fn reset(&mut self) {
        self.state = DjState::Idle;
    }
}

impl DijkstraAccel {
    /// One micro-step of the engine.
    fn step(&mut self, now: Time, hub: &mut HubPort<'_>) {
        match self.state {
            DjState::Idle => {
                if let Some(v) = self.regs.pop_write(0) {
                    self.n = v as u32;
                    self.visited = vec![false; self.n as usize];
                    self.rounds = 0;
                    self.state = DjState::Scan {
                        u: 0,
                        best: self.n,
                        best_d: u32::MAX,
                    };
                }
            }
            DjState::Scan { u, best, best_d } => {
                if u == self.n {
                    if best == self.n || self.rounds == self.n {
                        // No reachable unvisited node: the kernel is done
                        // once every buffered store has drained.
                        self.state = DjState::Drain;
                    } else {
                        self.visited[best as usize] = true;
                        self.rounds += 1;
                        self.state = DjState::Meta { u: best };
                    }
                } else if self.visited[u as usize] {
                    self.state = DjState::Scan {
                        u: u + 1,
                        best,
                        best_d,
                    };
                } else {
                    let a = self.layout.dist + u64::from(u) * 4;
                    if let Some(d) = self.mem.read_u32(now, a, hub) {
                        let (best, best_d) = if d < best_d { (u, d) } else { (best, best_d) };
                        self.state = DjState::Scan {
                            u: u + 1,
                            best,
                            best_d,
                        };
                    }
                }
            }
            DjState::Meta { u } => {
                // offsets[u] = off | deg<<32 (two u32 reads share a line).
                let a = self.layout.offsets + u64::from(u) * 8;
                if let Some(off) = self.mem.read_u32(now, a, hub) {
                    if let Some(deg) = self.mem.read_u32(now, a + 4, hub) {
                        self.state = DjState::DistU { u, off, deg };
                    }
                }
            }
            DjState::DistU { u, off, deg } => {
                let a = self.layout.dist + u64::from(u) * 4;
                if let Some(du) = self.mem.read_u32(now, a, hub) {
                    self.state = DjState::Edge {
                        e: off,
                        end: off + deg,
                        du,
                    };
                }
            }
            DjState::Edge { e, end, du } => {
                if e == end {
                    // Next round's scan; the soft cache retains the hot
                    // distance lines between rounds.
                    self.state = DjState::Scan {
                        u: 0,
                        best: self.n,
                        best_d: u32::MAX,
                    };
                } else {
                    let a = self.layout.edges + u64::from(e) * 8;
                    if let Some(dest) = self.mem.read_u32(now, a, hub) {
                        if let Some(wt) = self.mem.read_u32(now, a + 4, hub) {
                            self.state = DjState::EdgeDist {
                                e,
                                end,
                                du,
                                dest,
                                wt,
                            };
                        }
                    }
                    // Prefetch the next edge line (streaming access).
                    if e + 2 < end {
                        let _ =
                            self.mem
                                .read_u32(now, self.layout.edges + u64::from(e + 2) * 8, hub);
                    }
                }
            }
            DjState::EdgeDist {
                e,
                end,
                du,
                dest,
                wt,
            } => {
                let a = self.layout.dist + u64::from(dest) * 4;
                if let Some(dv) = self.mem.read_u32(now, a, hub) {
                    let nd = du.saturating_add(wt);
                    if nd < dv {
                        if self.mem.write_u32(now, a, nd, hub) {
                            self.state = DjState::Edge { e: e + 1, end, du };
                        }
                    } else {
                        self.state = DjState::Edge { e: e + 1, end, du };
                    }
                }
            }
            DjState::Drain => {
                // All relaxation stores must be globally visible before the
                // processor's next min-scan reads the distance array.
                if !self.mem.stores_pending() {
                    self.regs.push_result(1, 1);
                    self.state = DjState::Idle;
                }
            }
        }
        let _ = now;
    }
}

fn install_graph(sys: &mut System, layout: &DijkstraLayout, g: &Graph) {
    for (u, &(off, deg)) in g.offsets.iter().enumerate() {
        let packed = u64::from(off) | (u64::from(deg) << 32);
        sys.poke_u64(layout.offsets + (u as u64) * 8, packed);
    }
    for (e, &(dest, wt)) in g.edges.iter().enumerate() {
        let packed = u64::from(dest) | (u64::from(wt) << 32);
        sys.poke_u64(layout.edges + (e as u64) * 8, packed);
    }
    let v = g.offsets.len() as u64;
    for u in 0..v {
        let d = if u == 0 { 0u32 } else { INF };
        sys.poke_bytes(layout.dist + u * 4, &d.to_le_bytes());
        sys.poke_bytes(layout.visited + u, &[0]);
    }
}

/// Emits the min-scan: finds the unvisited node with minimum distance.
/// Result: `S[5]` = node (or V if none), marks it visited.
fn emit_min_scan_and_mark(a: &mut Asm, layout: &DijkstraLayout, v: u64) {
    let (best_u, best_d, u) = (regs::S[5], regs::S[6], regs::S[7]);
    a.li(best_u, v as i64);
    a.li(best_d, i64::MAX);
    a.li(u, 0);
    a.label("scan");
    // skip visited
    a.li(regs::T[0], layout.visited as i64);
    a.add(regs::T[0], regs::T[0], u);
    a.lbu(regs::T[1], regs::T[0], 0);
    a.bnez(regs::T[1], "scan_next");
    // d = dist[u]
    a.slli(regs::T[0], u, 2);
    a.li(regs::T[1], layout.dist as i64);
    a.add(regs::T[0], regs::T[0], regs::T[1]);
    a.lwu(regs::T[2], regs::T[0], 0);
    a.bgeu(regs::T[2], best_d, "scan_next");
    a.mv(best_d, regs::T[2]);
    a.mv(best_u, u);
    a.label("scan_next");
    a.addi(u, u, 1);
    a.li(regs::T[3], v as i64);
    a.blt(u, regs::T[3], "scan");
    // Nothing reachable left?
    a.li(regs::T[3], v as i64);
    a.beq(best_u, regs::T[3], "finish");
    // visited[best_u] = 1
    a.li(regs::T[0], layout.visited as i64);
    a.add(regs::T[0], regs::T[0], best_u);
    a.li(regs::T[1], 1);
    a.sb(regs::T[1], regs::T[0], 0);
}

/// Builds a ready-to-run Dijkstra system on a `v`-node graph — graph
/// installed, program loaded, accelerator attached (accelerated variants)
/// or caches warmed (baseline) — plus the reference distances.
pub fn prepare(variant: BenchVariant, v: u32, avg_deg: u32, seed: u64) -> (System, Vec<u32>) {
    let layout = DijkstraLayout::new();
    let g = Graph::generate(v, avg_deg, seed);
    let expected = g.dijkstra_ref();
    let mut sys = System::new(variant.system_config(1, 1, DIJKSTRA_MHZ)).expect("valid config");
    install_graph(&mut sys, &layout, &g);

    let prog = match variant {
        BenchVariant::ProcOnly => {
            let mut a = Asm::new();
            a.label("main");
            let round = regs::S[0];
            a.li(round, 0);
            a.label("outer");
            emit_min_scan_and_mark(&mut a, &layout, u64::from(v));
            // Relax best_u's edges in software.
            let best_u = regs::S[5];
            let (eidx, eend, du) = (regs::S[1], regs::S[2], regs::S[3]);
            a.slli(regs::T[0], best_u, 3);
            a.li(regs::T[1], layout.offsets as i64);
            a.add(regs::T[0], regs::T[0], regs::T[1]);
            a.lwu(eidx, regs::T[0], 0);
            a.lwu(eend, regs::T[0], 4);
            a.add(eend, eend, eidx);
            a.slli(regs::T[0], best_u, 2);
            a.li(regs::T[1], layout.dist as i64);
            a.add(regs::T[0], regs::T[0], regs::T[1]);
            a.lwu(du, regs::T[0], 0);
            a.label("relax");
            a.bgeu(eidx, eend, "relax_done");
            a.slli(regs::T[0], eidx, 3);
            a.li(regs::T[1], layout.edges as i64);
            a.add(regs::T[0], regs::T[0], regs::T[1]);
            a.lwu(regs::T[2], regs::T[0], 0); // dest
            a.lwu(regs::T[3], regs::T[0], 4); // weight
            a.add(regs::T[3], regs::T[3], du); // nd
            a.slli(regs::T[4], regs::T[2], 2);
            a.li(regs::T[5], layout.dist as i64);
            a.add(regs::T[4], regs::T[4], regs::T[5]);
            a.lwu(regs::T[6], regs::T[4], 0); // dv
            a.bgeu(regs::T[3], regs::T[6], "no_update");
            a.sw(regs::T[3], regs::T[4], 0);
            a.label("no_update");
            a.addi(eidx, eidx, 1);
            a.j("relax");
            a.label("relax_done");
            a.addi(round, round, 1);
            a.li(regs::T[0], v as i64);
            a.blt(round, regs::T[0], "outer");
            a.label("finish");
            a.fence();
            a.halt();
            a.assemble().unwrap()
        }
        _ => {
            let base = sys.config().mmio_base;
            sys.set_reg_mode(0, RegMode::FpgaBound);
            sys.set_reg_mode(1, RegMode::CpuBound);
            let use_sc = variant == BenchVariant::Duet;
            {
                let a = sys.adapter_mut();
                let mut sw = a.hubs[0].switches();
                sw.fwd_inv = use_sc; // soft cache needs invalidations
                a.hubs[0].set_switches(sw);
            }
            sys.attach_accelerator(Box::new(DijkstraAccel::new(
                variant.push_mode(),
                use_sc,
                layout,
            )));
            // The processor launches the kernel (node count through the
            // FPGA-bound FIFO) and blocks on the completion token; the
            // engine runs scan + relax rounds on the fabric with the
            // distance array resident in the soft cache.
            let mut a = Asm::new();
            a.label("main");
            let (arg, res) = (regs::S[1], regs::S[2]);
            a.li(arg, base as i64);
            a.li(res, (base + 8) as i64);
            a.li(regs::T[0], v as i64);
            a.sd(regs::T[0], arg, 0);
            a.ld(regs::T[1], res, 0); // blocking completion token
            a.fence();
            a.halt();
            a.assemble().unwrap()
        }
    };
    sys.load_program(0, Arc::new(prog), "main");
    if variant == BenchVariant::ProcOnly {
        sys.warm_shared(layout.offsets, u64::from(v) * 8, 0);
        sys.warm_shared(layout.edges, g.edges.len() as u64 * 8, 0);
        sys.warm_shared(layout.dist, u64::from(v) * 4, 0);
        sys.warm_shared(layout.visited, u64::from(v), 0);
    }
    (sys, expected)
}

/// Runs the Dijkstra benchmark on a `v`-node graph.
pub fn run(variant: BenchVariant, v: u32, avg_deg: u32, seed: u64) -> AppResult {
    let layout = DijkstraLayout::new();
    let (mut sys, expected) = prepare(variant, v, avg_deg, seed);
    let runtime = sys
        .run_until_halt(Time::from_us(60_000))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(Time::from_us(61_000))
        .unwrap_or_else(|e| panic!("{e}"));
    let correct = (0..v as u64).all(|u| sys.peek_u32(layout.dist + u * 4) == expected[u as usize]);
    AppResult {
        name: "dijkstra".into(),
        variant,
        processors: 1,
        memory_hubs: 1,
        fpga_mhz: DIJKSTRA_MHZ,
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
    fn reference_matches_textbook_property() {
        let g = Graph::generate(24, 3, 5);
        let d = g.dijkstra_ref();
        assert_eq!(d[0], 0);
        // Triangle inequality over every edge.
        for (u, &(off, deg)) in g.offsets.iter().enumerate() {
            for e in off..off + deg {
                let (w, wt) = g.edges[e as usize];
                if d[u] != INF {
                    assert!(d[w as usize] <= d[u].saturating_add(wt));
                }
            }
        }
    }

    #[test]
    fn baseline_matches_reference() {
        let r = run(BenchVariant::ProcOnly, 16, 2, 9);
        assert!(r.correct);
    }

    #[test]
    fn duet_with_soft_cache_matches_reference() {
        let r = run(BenchVariant::Duet, 16, 2, 9);
        assert!(r.correct, "soft-cache relaxation corrupted distances");
    }

    #[test]
    fn fpsoc_matches_and_is_slower() {
        let duet = run(BenchVariant::Duet, 16, 2, 13);
        let fpsoc = run(BenchVariant::Fpsoc, 16, 2, 13);
        assert!(duet.correct && fpsoc.correct);
        assert!(
            duet.runtime < fpsoc.runtime,
            "duet {} vs fpsoc {}",
            duet.runtime,
            fpsoc.runtime
        );
    }
}
