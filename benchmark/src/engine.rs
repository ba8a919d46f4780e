//! The five engine workloads. Each drives the simulator through the same
//! public functions the figure harnesses and the engine micro-benches use.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_cpu::Program;
use duet_fpga::area::{normalized_adp, AreaModel};
use duet_fpga::fabric::{FabricSpec, NetlistSummary};
use duet_fpga::ports::SoftAccelerator;
use duet_sim::{SimRng, SnapHasher, Time};
use duet_system::{System, SystemConfig};
use duet_trace::TraceConfig;
use duet_workloads::common::{AppResult, BenchVariant};
use duet_workloads::synthetic::{
    measure_bandwidth, measure_contention, measure_latency, BandwidthPoint, ContentionPoint,
    Mechanism,
};
use duet_workloads::{barnes_hut, bfs, dijkstra, pdes, popcount, sort, tangent};

use crate::fingerprint;
use crate::metrics::Values;
use crate::spans::Recorder;
use crate::workload::{load_threads, UnitOutcome, Workload};

/// Sums `System::metrics_registry()`-style entries into the per-layer
/// counts. Service payloads carry the same names, so the serve workloads
/// feed their `metrics` objects through here too.
pub fn add_registry_counts<'a>(entries: impl Iterator<Item = (&'a str, u64)>, v: &mut Values) {
    let mut peak = v.get("noc.peak_occupancy");
    for (name, value) in entries {
        let x = value as f64;
        let last = name.rsplit('.').next().unwrap_or(name);
        let target = match name.split('.').next().unwrap_or(name) {
            "run" => match last {
                "fast_edges" => "system.fast_edges",
                "slow_edges" => "system.slow_edges",
                "executed_edges" => "system.executed_edges",
                "sim_ps" => "system.sim_ps",
                _ => continue,
            },
            "mesh" => match last {
                "injected" => "noc.injected",
                "delivered_flits" => "noc.delivered_flits",
                // Turned into the mean by `finish_counts`.
                "total_latency_ps" => "noc.mean_latency_ps",
                _ => continue,
            },
            "l2" => match last {
                "hits" => "mem.l2_hits",
                "misses" => "mem.l2_misses",
                "mshr_merges" => "mem.l2_mshr_merges",
                "writebacks" => "mem.l2_writebacks",
                "invs" => "mem.l2_invs",
                _ => continue,
            },
            "l3" => match last {
                "gets" => "mem.l3_gets",
                "getm" => "mem.l3_getm",
                "l3_hits" => "mem.l3_hits",
                "l3_misses" => "mem.l3_misses",
                "invs_sent" => "mem.dir_invs_sent",
                "fwds_sent" => "mem.dir_fwds_sent",
                _ => continue,
            },
            "ctrl" => match last {
                "mmio_ops" => "core.mmio_ops",
                "shadow_fast" => "core.shadow_fast",
                "normal_crossings" => "core.normal_crossings",
                "timeouts" => "core.ctrl_timeouts",
                _ => continue,
            },
            hub if hub.starts_with("hub") => match last {
                "requests" => "core.hub_requests",
                "invs_forwarded" => "core.hub_invs_forwarded",
                _ => continue,
            },
            "link" => match last {
                "pushes" => "sim.link_pushes",
                "rejected_pushes" => "sim.link_rejected_pushes",
                "peak_occupancy" => {
                    if name.starts_with("link.mesh") {
                        peak = peak.max(x);
                    }
                    continue;
                }
                _ => continue,
            },
            "verify" => match last {
                "mesi_checked" => "verify.mesi_checked",
                "noc_checked" => "verify.noc_checked",
                "violations" => "verify.violations",
                "faults_injected" => "verify.faults_injected",
                _ => continue,
            },
            _ => continue,
        };
        v.add(target, x);
    }
    v.set("noc.peak_occupancy", peak);
}

/// Turns the sums [`add_registry_counts`] collected into the ratios that
/// are defined over a whole unit. `delivered` is the unit's delivered
/// message count, `cores` the number of cores that ran.
pub fn finish_counts(v: &mut Values, delivered: u64, cores: u64) {
    // Service payloads leave `run.executed_edges` out, and with it the ratio.
    let (edges, executed) = (
        v.get("system.fast_edges") + v.get("system.slow_edges"),
        v.get("system.executed_edges"),
    );
    if executed > 0.0 {
        v.set("system.skip_ratio", 1.0 - executed / edges);
    }
    if delivered > 0 {
        v.set(
            "noc.mean_latency_ps",
            v.get("noc.mean_latency_ps") / delivered as f64,
        );
    }
    let core_cycles = v.get("system.fast_edges") * cores as f64;
    if core_cycles > 0.0 {
        v.set("cpu.ipc", v.get("cpu.instret") / core_cycles);
    }
}

/// Runs `f` over `items` on `threads` scoped threads pulling from one
/// queue; results come back in input order with each operation's wall time.
/// Each thread records into its own lane. The caller's argv and environment
/// play no part (unlike `duet_bench::parallel_map`).
pub(crate) fn run_queue<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    rec: &mut Recorder,
    f: impl Fn(&T, &mut Recorder) -> R + Sync,
) -> Vec<(R, f64)> {
    let timed = |item: &T, rec: &mut Recorder| {
        let start = Instant::now();
        let r = f(item, rec);
        (r, start.elapsed().as_secs_f64())
    };
    if threads <= 1 {
        return items.iter().map(|it| timed(it, rec)).collect();
    }
    let next = AtomicUsize::new(0);
    let lanes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mut lane = rec.lane(t as u32 + 1);
                let (next, timed) = (&next, &timed);
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, timed(item, &mut lane)));
                    }
                    (lane, done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect::<Vec<_>>()
    });
    let mut out: Vec<Option<(R, f64)>> = items.iter().map(|_| None).collect();
    for (lane, done) in lanes {
        rec.adopt(lane);
        for (i, r) in done {
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every item was claimed"))
        .collect()
}

fn mean_abs_rel_err_pct(pairs: &[(f64, f64)]) -> f64 {
    let sum: f64 = pairs
        .iter()
        .map(|&(sim, paper)| ((sim - paper) / paper).abs())
        .sum();
    100.0 * sum / pairs.len() as f64
}

// ---------------------------------------------------------------- comm_sweeps

const FREQS: [f64; 7] = [20.0, 50.0, 100.0, 200.0, 300.0, 400.0, 500.0];
const FIG10_WORDS: u64 = 512;
const FIG11_PROCS: [usize; 5] = [1, 2, 4, 8, 16];
const FIG11_PAIRS: u64 = 64;

/// The full Fig. 9 + Fig. 10 + Fig. 11 cell sets, serial. The cells are
/// the harnesses'; the seed only permutes the order they run in (seed 1
/// keeps the harness order), so every seed does the same work.
pub struct CommSweeps {
    fig9: Vec<usize>,
    fig10: Vec<usize>,
    fig11: Vec<usize>,
}

fn cell(i: usize) -> (Mechanism, f64) {
    (Mechanism::ALL[i / FREQS.len()], FREQS[i % FREQS.len()])
}

fn contention_cell(i: usize) -> (bool, usize) {
    (i.is_multiple_of(2), FIG11_PROCS[i / 2])
}

fn seeded_order(n: usize, seed: u64, salt: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if seed != 1 {
        SimRng::new(seed ^ salt).shuffle(&mut order);
    }
    order
}

impl CommSweeps {
    /// Builds the three cell orders and warms each measurement path once.
    pub fn setup(seed: u64, rec: &mut Recorder) -> Box<dyn Workload> {
        let cells = Mechanism::ALL.len() * FREQS.len();
        let w = CommSweeps {
            fig9: seeded_order(cells, seed, 0x0f19),
            fig10: seeded_order(cells, seed, 0x0f10),
            fig11: seeded_order(2 * FIG11_PROCS.len(), seed, 0x0f11),
        };
        rec.span("duet-workloads", "warm", 0, |_| {
            std::hint::black_box(measure_latency(Mechanism::CpuPullProxy, 100.0));
            std::hint::black_box(measure_bandwidth(Mechanism::ShadowReg, 100.0, FIG10_WORDS));
            std::hint::black_box(measure_contention(true, 2, FIG11_PAIRS));
        });
        Box::new(w)
    }
}

/// The published reference points the `fig10` and `fig11` harnesses print
/// beside their tables, against what was simulated.
fn comm_paper_pairs(bw: &[BandwidthPoint], ct: &[ContentionPoint]) -> Vec<(f64, f64)> {
    let at = |m: Mechanism, mhz: f64| {
        bw.iter()
            .find(|p| p.mechanism == m && p.fpga_mhz == mhz)
            .expect("cell swept")
            .mbps()
    };
    // Largest processor count still within 80 % of the single-processor
    // bandwidth, as the fig11 harness defines the knee.
    let knee = |shadow: bool| {
        let col: Vec<&ContentionPoint> = ct.iter().filter(|p| p.shadow == shadow).collect();
        let base = col[0].per_proc_mbps;
        col.iter()
            .take_while(|p| p.per_proc_mbps > 0.8 * base)
            .last()
            .map_or(1, |p| p.processors) as f64
    };
    vec![
        (at(Mechanism::EfpgaPullProxy, 500.0), 558.0),
        (at(Mechanism::CpuPullProxy, 500.0), 201.0),
        (at(Mechanism::EfpgaPullSlow, 500.0), 287.0),
        (at(Mechanism::CpuPullSlow, 500.0), 144.0),
        (at(Mechanism::ShadowReg, 500.0), 213.0),
        (at(Mechanism::NormalReg, 500.0), 121.0),
        (
            at(Mechanism::EfpgaPullProxy, 100.0) / at(Mechanism::EfpgaPullSlow, 100.0),
            9.5,
        ),
        (knee(true), 8.0),
        (knee(false), 2.0),
    ]
}

/// Runs one figure's cells in `order` under a span of the figure's name.
/// Returns the points in cell order, whatever order they ran in, and the
/// figure's wall time in ms; each cell's wall time goes to `op_lat_s`.
fn sweep<R: Send>(
    figure: &'static str,
    order: &[usize],
    slice: u64,
    rec: &mut Recorder,
    op_lat_s: &mut Vec<f64>,
    measure: impl Fn(usize) -> R + Sync,
) -> (Vec<R>, f64) {
    let start = Instant::now();
    let done = rec.span("duet-workloads", figure, slice, |rec| {
        run_queue(1, order, rec, |&i, rec| {
            rec.span("duet-workloads", "cell", slice, |_| measure(i))
        })
    });
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let mut cells: Vec<(usize, R)> = Vec::with_capacity(done.len());
    for (&i, (point, lat)) in order.iter().zip(done) {
        op_lat_s.push(lat);
        cells.push((i, point));
    }
    cells.sort_by_key(|&(i, _)| i);
    (cells.into_iter().map(|(_, p)| p).collect(), ms)
}

impl Workload for CommSweeps {
    fn unit(&mut self, slice: u64, rec: &mut Recorder) -> UnitOutcome {
        let mut out = UnitOutcome::default();
        let lats = &mut out.op_lat_s;
        let (lat, fig9_ms) = sweep("fig9", &self.fig9, slice, rec, lats, |i| {
            let (m, f) = cell(i);
            measure_latency(m, f)
        });
        let (bw, fig10_ms) = sweep("fig10", &self.fig10, slice, rec, lats, |i| {
            let (m, f) = cell(i);
            measure_bandwidth(m, f, FIG10_WORDS)
        });
        let (ct, fig11_ms) = sweep("fig11", &self.fig11, slice, rec, lats, |i| {
            let (shadow, p) = contention_cell(i);
            measure_contention(shadow, p, FIG11_PAIRS)
        });

        // Fingerprint in cell order, whatever order the cells ran in.
        let mut h = SnapHasher::new();
        let mut sim_ps = 0u64;
        for p in &lat {
            h.u64(p.total.as_ps());
            for part in [
                p.breakdown.noc,
                p.breakdown.cache_fast,
                p.breakdown.cache_slow,
                p.breakdown.cdc,
            ] {
                h.u64(part.as_ps());
            }
            for (name, r) in &p.links {
                h.bytes(name.as_bytes());
                h.u64(r.stats.pushes);
                h.u64(r.stats.pops);
                h.usize(r.stats.peak_occupancy);
            }
            sim_ps += p.total.as_ps();
            out.check(p.total > Time::ZERO, || {
                format!("fig9 {:?}@{} measured no latency", p.mechanism, p.fpga_mhz)
            });
        }
        for p in &bw {
            h.u64(p.bytes);
            h.u64(p.elapsed.as_ps());
            sim_ps += p.elapsed.as_ps();
            // Whole buffers, one way or both, depending on the mechanism.
            let whole = p.bytes > 0 && p.bytes % (FIG10_WORDS * 8) == 0;
            out.check(whole && p.elapsed > Time::ZERO, || {
                format!(
                    "fig10 {:?}@{} moved {} bytes in {}",
                    p.mechanism, p.fpga_mhz, p.bytes, p.elapsed
                )
            });
        }
        for p in &ct {
            h.f64(p.per_proc_mbps);
            out.check(p.per_proc_mbps > 0.0, || {
                format!("fig11 shadow={} p={} moved nothing", p.shadow, p.processors)
            });
        }
        out.fingerprint = h.finish();

        if rec.enabled() {
            let v = &mut out.counts;
            v.set(
                "paper_err_pct",
                mean_abs_rel_err_pct(&comm_paper_pairs(&bw, &ct)),
            );
            // The harness functions own their systems, so only what they
            // return is visible: measured simulated time and Fig. 9's links.
            v.set("system.sim_ps", sim_ps as f64);
            for p in &lat {
                for (_, r) in &p.links {
                    v.add("sim.link_pushes", r.stats.pushes as f64);
                    v.add("sim.link_rejected_pushes", r.stats.rejected_pushes as f64);
                }
            }
            v.set("workloads.fig9_ms", fig9_ms);
            v.set("workloads.fig10_ms", fig10_ms);
            v.set("workloads.fig11_ms", fig11_ms);
        }
        out
    }
}

// ----------------------------------------------------------------- fig12_apps

/// One Fig. 12 configuration, with the sizes and data seeds of the `fig12`
/// harness (a binary, so they are restated here).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    /// Fixed-point tangent.
    Tangent,
    /// Popcount over 512-bit vectors.
    Popcount,
    /// Streaming sort of `n`-element slices.
    Sort(u64),
    /// Single-source shortest paths.
    Dijkstra,
    /// Barnes-Hut force calculation.
    BarnesHut,
    /// Parallel discrete-event simulation on `p` processors.
    Pdes(usize),
    /// Breadth-first search on `p` processors.
    Bfs(usize),
}

impl App {
    /// The 13 configurations, in the harness's order.
    pub const ALL: [App; 13] = [
        App::Tangent,
        App::Popcount,
        App::Sort(32),
        App::Sort(64),
        App::Sort(128),
        App::Dijkstra,
        App::BarnesHut,
        App::Pdes(4),
        App::Pdes(8),
        App::Pdes(16),
        App::Bfs(4),
        App::Bfs(8),
        App::Bfs(16),
    ];

    /// Name as it appears in `workloads.<name>_ms`.
    pub fn name(&self) -> String {
        match self {
            App::Tangent => "tangent".into(),
            App::Popcount => "popcount".into(),
            App::Sort(n) => format!("sort-{n}"),
            App::Dijkstra => "dijkstra".into(),
            App::BarnesHut => "barnes-hut".into(),
            App::Pdes(p) => format!("pdes-{p}"),
            App::Bfs(p) => format!("bfs-{p}"),
        }
    }

    /// Runs the configuration; `bump` is added to the harness's data seed
    /// (0 reproduces the harness exactly).
    pub fn run(&self, v: BenchVariant, bump: u64) -> AppResult {
        match *self {
            App::Tangent => tangent::run(v, 96, 11 + bump),
            App::Popcount => popcount::run(v, 48, 21 + bump),
            App::Sort(n) => sort::run(v, n, n, 31 + bump),
            App::Dijkstra => dijkstra::run(v, 192, 8, 41 + bump),
            App::BarnesHut => barnes_hut::run(v, 4, 48, 51 + bump),
            App::Pdes(p) => pdes::run(v, p, 12, 6, 61 + bump),
            App::Bfs(p) => bfs::run(v, p, 192, 4, 71 + bump),
        }
    }

    /// The accelerator's netlist, for the area model.
    pub fn netlist(&self) -> NetlistSummary {
        match *self {
            App::Tangent => tangent::TangentAccel::new(true).netlist(),
            App::Popcount => popcount::PopcountAccel::new(true).netlist(),
            App::Sort(n) => sort::SortAccel::new(true, n).netlist(),
            App::Dijkstra => {
                dijkstra::DijkstraAccel::new(true, true, dijkstra::DijkstraLayout::new()).netlist()
            }
            App::BarnesHut => barnes_hut::BhAccel::new(true, 4, 0, 0).netlist(),
            App::Pdes(p) => pdes::TaskScheduler::new(true, p, &[]).netlist(),
            App::Bfs(p) => bfs::FrontierQueues::new(true, p, 0).netlist(),
        }
    }
}

const VARIANTS: [BenchVariant; 3] = [
    BenchVariant::ProcOnly,
    BenchVariant::Duet,
    BenchVariant::Fpsoc,
];

/// All 13 configurations × 3 variants over the sweep threads.
pub struct Fig12Apps {
    jobs: Vec<(App, BenchVariant)>,
    seed_bump: u64,
    fabric_mm2: Vec<f64>,
    threads: usize,
}

impl Fig12Apps {
    /// Builds the job list and the fabric areas, and warms one
    /// configuration on every variant.
    pub fn setup(seed: u64, rec: &mut Recorder) -> Box<dyn Workload> {
        let w = Fig12Apps {
            jobs: App::ALL
                .into_iter()
                .flat_map(|a| VARIANTS.into_iter().map(move |v| (a, v)))
                .collect(),
            seed_bump: seed - 1,
            fabric_mm2: rec.span("duet-fpga", "FabricSpec::implement x13", 0, |_| {
                App::ALL
                    .iter()
                    .map(|a| {
                        FabricSpec::k6_frac_n10_mem32k()
                            .implement(&a.netlist())
                            .area_mm2
                    })
                    .collect()
            }),
            threads: load_threads(),
        };
        rec.span("duet-workloads", "warm", 0, |_| {
            for v in VARIANTS {
                std::hint::black_box(App::Popcount.run(v, w.seed_bump));
            }
        });
        Box::new(w)
    }

    /// The four geomeans the `fig12` harness prints beside the paper's:
    /// speedup of Duet and of the FPSoC baseline, and their area-delay
    /// products, each against its published value.
    fn paper_pairs(&self, results: &[(AppResult, f64)]) -> Vec<(f64, f64)> {
        let mut logs = [0.0f64; 4];
        for (k, fabric_mm2) in self.fabric_mm2.iter().enumerate() {
            let (base, duet, fpsoc) = (
                &results[3 * k].0,
                &results[3 * k + 1].0,
                &results[3 * k + 2].0,
            );
            let model = AreaModel {
                processors: base.processors,
                memory_hubs: duet.memory_hubs,
                fabric_mm2: *fabric_mm2,
            };
            let adp = |area: f64, r: &AppResult| {
                normalized_adp(
                    area,
                    r.runtime.as_ps(),
                    model.processor_only_mm2(),
                    base.runtime.as_ps(),
                )
            };
            logs[0] += duet.speedup_over(base).ln();
            logs[1] += fpsoc.speedup_over(base).ln();
            logs[2] += adp(model.duet_mm2(), duet).ln();
            logs[3] += adp(model.fpsoc_mm2(), fpsoc).ln();
        }
        let n = self.fabric_mm2.len() as f64;
        let paper = [4.53, 2.14, 0.39, 1.23];
        (0..4).map(|i| ((logs[i] / n).exp(), paper[i])).collect()
    }
}

impl Workload for Fig12Apps {
    fn unit(&mut self, slice: u64, rec: &mut Recorder) -> UnitOutcome {
        let mut out = UnitOutcome::default();
        let bump = self.seed_bump;
        let run = |&(app, v): &(App, BenchVariant), rec: &mut Recorder| {
            let name = format!("{}/{}", app.name(), v.label());
            rec.span("duet-workloads", &name, slice, |_| app.run(v, bump))
        };
        let unit_start = Instant::now();
        let done = if slice == 0 && self.threads > 1 {
            // The warm-up runs every job on every sweep thread at once, so
            // that each thread's allocator arena has seen its largest job
            // beside the other's: peak RSS then no longer depends on which
            // jobs happen to overlap in the timed slices.
            let lanes: Vec<usize> = (0..self.threads).collect();
            let mut all = run_queue(self.threads, &lanes, rec, |_, rec| {
                run_queue(1, &self.jobs, rec, run)
            });
            all.swap_remove(0).0
        } else {
            run_queue(self.threads, &self.jobs, rec, run)
        };
        let unit_s = unit_start.elapsed().as_secs_f64();

        let mut h = SnapHasher::new();
        for ((r, lat), (app, v)) in done.iter().zip(&self.jobs) {
            h.u64(r.runtime.as_ps());
            h.bool(r.correct);
            out.op_lat_s.push(*lat);
            out.check(r.correct, || {
                format!("{} on {} computed a wrong result", app.name(), v.label())
            });
        }
        out.fingerprint = h.finish();

        if rec.enabled() {
            let v = &mut out.counts;
            v.set(
                "paper_err_pct",
                mean_abs_rel_err_pct(&self.paper_pairs(&done)),
            );
            v.set("fpga.fabric_mm2_total", self.fabric_mm2.iter().sum());
            v.set(
                "system.sim_ps",
                done.iter().map(|(r, _)| r.runtime.as_ps() as f64).sum(),
            );
            let mut busy_s = 0.0;
            for ((_, lat), (app, _)) in done.iter().zip(&self.jobs) {
                v.add(&format!("workloads.{}_ms", app.name()), lat * 1e3);
                busy_s += lat;
            }
            // Share of the sweep threads' time spent inside application
            // runs: what is lost is the tail where one thread has run dry.
            v.set(
                "bench.sweep_parallel_efficiency",
                busy_s / (self.threads as f64 * unit_s),
            );
        }
        out
    }
}

// ------------------------------------- coherence_stream, noc_hotspot(_t2)

/// Every core streams stores over one shared region; the three workloads
/// differ in system size, region and thread counts.
pub struct StoreStream {
    cfg: SystemConfig,
    programs: Vec<Arc<Program>>,
    values: Vec<u64>,
    region: Region,
    halt_by: Time,
    quiesce_by: Time,
    /// Whether units must reproduce the serial run of the same inputs.
    check_against_serial: bool,
    /// That run's fingerprint, once the warm-up has made it.
    expect: Option<u64>,
}

#[derive(Clone, Copy)]
struct Region {
    base: u64,
    len: u64,
    stride: u64,
    passes: u64,
}

/// `passes` sweeps of `value` stores over the region.
fn store_stream_program(r: Region, value: u64) -> Arc<Program> {
    let (addr, val, end, pass, passes) =
        (regs::T[0], regs::T[1], regs::T[2], regs::T[3], regs::T[4]);
    let mut a = Asm::new();
    a.label("main");
    a.li(val, value as i64);
    a.li(end, (r.base + r.len) as i64);
    a.li(pass, 0);
    a.li(passes, r.passes as i64);
    a.label("pass");
    a.li(addr, r.base as i64);
    a.label("loop");
    a.sd(val, addr, 0);
    a.addi(addr, addr, r.stride as i64);
    a.blt(addr, end, "loop");
    a.addi(pass, pass, 1);
    a.blt(pass, passes, "pass");
    a.halt();
    Arc::new(a.assemble().expect("static program assembles"))
}

impl StoreStream {
    fn setup(
        cfg: SystemConfig,
        region: Region,
        deadlines_us: (u64, u64),
        seed: u64,
        rec: &mut Recorder,
    ) -> StoreStream {
        // The seed picks what each core stores, never how much.
        let mut rng = SimRng::new(seed);
        let values: Vec<u64> = (0..cfg.processors)
            .map(|c| ((rng.next_u64() >> 13) << 12) | (c as u64 + 1))
            .collect();
        let programs = rec.span("duet-cpu", "Asm::assemble", 0, |_| {
            values
                .iter()
                .map(|&v| store_stream_program(region, v))
                .collect()
        });
        let w = StoreStream {
            cfg,
            programs,
            values,
            region,
            halt_by: Time::from_us(deadlines_us.0),
            quiesce_by: Time::from_us(deadlines_us.1),
            check_against_serial: false,
            expect: None,
        };
        rec.span("duet-system", "warm", 0, |rec| {
            let mut sys = w.build(&w.cfg, 0, rec);
            sys.run_until_time(Time::from_ns(500));
        });
        w
    }

    /// `SystemConfig::proc_only(4)`, 6 passes of 16-byte-stride stores
    /// over 64 KB.
    pub fn coherence_stream(seed: u64, rec: &mut Recorder) -> Box<dyn Workload> {
        Box::new(Self::setup(
            SystemConfig::proc_only(4),
            Self::COHERENCE,
            (24_000, 30_000),
            seed,
            rec,
        ))
    }

    const COHERENCE: Region = Region {
        base: 0x10_0000,
        len: 0x1_0000,
        stride: 16,
        passes: 6,
    };

    const HOTSPOT: Region = Region {
        base: 0x20_0000,
        len: 0x1000,
        stride: 64,
        passes: 1,
    };

    /// `SystemConfig::mesh_16x16()`, serial run loop and serial mesh tick.
    pub fn noc_hotspot(seed: u64, rec: &mut Recorder) -> Box<dyn Workload> {
        let mut cfg = SystemConfig::mesh_16x16();
        cfg.sim_threads = 1;
        cfg.mesh_shards = 1;
        Box::new(Self::setup(cfg, Self::HOTSPOT, (40_000, 50_000), seed, rec))
    }

    /// The same inputs on 2 simulation threads, mesh shards following. The
    /// warm-up also runs them once serially, and every unit is held to that
    /// run's fingerprint.
    pub fn noc_hotspot_t2(seed: u64, rec: &mut Recorder) -> Box<dyn Workload> {
        let mut cfg = SystemConfig::mesh_16x16();
        cfg.sim_threads = 2;
        cfg.mesh_shards = 0;
        let mut w = Self::setup(cfg, Self::HOTSPOT, (40_000, 50_000), seed, rec);
        w.check_against_serial = true;
        Box::new(w)
    }

    /// One `coherence_stream` unit with the simulator's own event tracing
    /// on: wall seconds of the run, events recorded, and seconds to export
    /// them as Chrome trace JSON.
    pub fn coherence_unit_traced(seed: u64, tcfg: &TraceConfig) -> (f64, u64, f64) {
        let mut quiet = Recorder::new(false);
        let w = Self::setup(
            SystemConfig::proc_only(4),
            Self::COHERENCE,
            (24_000, 30_000),
            seed,
            &mut quiet,
        );
        let start = Instant::now();
        let mut sys = w.build(&w.cfg, 0, &mut quiet);
        sys.enable_tracing(tcfg);
        sys.run_until_halt(w.halt_by).expect("traced run halts");
        sys.quiesce(w.quiesce_by).expect("traced run quiesces");
        let wall_s = start.elapsed().as_secs_f64();
        let events = sys.trace_session().map_or(0, |t| t.total());
        let start = Instant::now();
        std::hint::black_box(sys.trace_chrome_json());
        (wall_s, events, start.elapsed().as_secs_f64())
    }

    fn build(&self, cfg: &SystemConfig, slice: u64, rec: &mut Recorder) -> System {
        let mut sys = rec.span("duet-system", "System::new", slice, |_| {
            System::new(cfg.clone()).expect("valid config")
        });
        rec.span("duet-system", "load_program", slice, |_| {
            for (core, prog) in self.programs.iter().enumerate() {
                sys.load_program(core, prog.clone(), "main");
            }
        });
        sys
    }

    fn run(&self, cfg: &SystemConfig, slice: u64, rec: &mut Recorder) -> UnitOutcome {
        let mut out = UnitOutcome::default();
        let start = Instant::now();
        let mut sys = self.build(cfg, slice, rec);
        let halted = rec.span("duet-system", "run_until_halt", slice, |_| {
            sys.run_until_halt(self.halt_by)
        });
        let quiesced = rec.span("duet-system", "quiesce", slice, |_| {
            sys.quiesce(self.quiesce_by)
        });
        out.op_lat_s.push(start.elapsed().as_secs_f64());

        let reg = rec.span("duet-system", "metrics_registry", slice, |rec| {
            let reg = sys.metrics_registry();
            rec.count("executed_edges", sys.executed_edges());
            rec.count("metrics", reg.len() as u64);
            reg
        });

        rec.span("bench", "check outputs", slice, |_| {
            out.check(halted.is_ok() && quiesced.is_ok(), || {
                format!(
                    "run did not finish: {:?} {:?}",
                    halted.err(),
                    quiesced.err()
                )
            });
            // Whichever core stored last, every word holds some core's
            // value. What the words hold is part of what was simulated.
            let r = self.region;
            let mut h = SnapHasher::new();
            h.u64(fingerprint::of_registry(&reg));
            let mut stray = None;
            for addr in (r.base..r.base + r.len).step_by(r.stride as usize) {
                let word = sys.peek_u64(addr);
                h.u64(word);
                if !self.values.contains(&word) {
                    stray.get_or_insert(addr);
                }
            }
            out.fingerprint = h.finish();
            out.check(stray.is_none(), || {
                format!("address {:#x} holds no core's value", stray.unwrap_or(0))
            });
            out.check(sys.checker_violations() == 0, || {
                format!("{} checker violations", sys.checker_violations())
            });
            let incoherent = sys.check_coherence();
            out.check(incoherent.is_empty(), || {
                format!("caches and directory disagree: {:?}", incoherent.first())
            });
            if let Some(expect) = self.expect {
                let fp = out.fingerprint;
                out.check(fp == expect, || {
                    format!(
                        "fingerprint {} differs from the serial run's {}",
                        fingerprint::hex(fp),
                        fingerprint::hex(expect)
                    )
                });
            }
        });

        if rec.enabled() {
            let v = &mut out.counts;
            add_registry_counts(reg.iter(), v);
            let cores = sys.config().processors;
            let (mut l1_hits, mut l1_misses) = (0u64, 0u64);
            for c in 0..cores {
                let s = sys.core(c).stats();
                v.add("cpu.instret", s.instret as f64);
                v.add("cpu.mem_stall_cycles", s.mem_stall_cycles as f64);
                let l1 = sys.core(c).l1_stats();
                l1_hits += l1.hits;
                l1_misses += l1.misses;
            }
            if l1_hits + l1_misses > 0 {
                v.set(
                    "cpu.l1_hit_ratio",
                    l1_hits as f64 / (l1_hits + l1_misses) as f64,
                );
            }
            finish_counts(v, sys.mesh().stats().delivered, cores as u64);
        }
        out
    }
}

impl Workload for StoreStream {
    fn unit(&mut self, slice: u64, rec: &mut Recorder) -> UnitOutcome {
        if self.check_against_serial && self.expect.is_none() {
            let mut serial = self.cfg.clone();
            serial.sim_threads = 1;
            serial.mesh_shards = 1;
            let fp = self
                .run(&serial, slice, &mut Recorder::new(false))
                .fingerprint;
            self.expect = Some(fp);
        }
        self.run(&self.cfg, slice, rec)
    }
}
