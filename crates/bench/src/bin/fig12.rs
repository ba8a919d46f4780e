//! Regenerates **Fig. 12**: normalized speedup and area-delay product of
//! the seven application benchmarks on Duet and on the FPSoC-like
//! baseline, relative to the processor-only baseline.
//!
//! Run: `cargo run --release -p duet-bench --bin fig12 [--threads N]`
//! (13 configurations × 3 full-system simulations, fanned across cores.)

use duet_bench::{parallel_map, Throughput};
use duet_fpga::area::{base_tile_area_mm2, normalized_adp, AreaModel};
use duet_fpga::fabric::{FabricSpec, NetlistSummary};
use duet_fpga::ports::SoftAccelerator;
use duet_workloads::common::{AppResult, BenchVariant};
use duet_workloads::{barnes_hut, bfs, dijkstra, pdes, popcount, sort, tangent};

/// One Fig. 12 configuration; `run` builds its whole system (including
/// any `Rc`-based accelerator state) inside the calling worker thread.
#[derive(Clone, Copy)]
enum App {
    Tangent,
    Popcount,
    Sort(u64),
    Dijkstra,
    BarnesHut,
    Pdes(usize),
    Bfs(usize),
}

impl App {
    const ALL: [App; 13] = [
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

    fn name(&self) -> String {
        match self {
            App::Tangent => "tangent".into(),
            App::Popcount => "popcount".into(),
            App::Sort(n) => format!("sort/{n}"),
            App::Dijkstra => "dijkstra".into(),
            App::BarnesHut => "barnes-hut".into(),
            App::Pdes(p) => format!("pdes/{p}"),
            App::Bfs(p) => format!("bfs/{p}"),
        }
    }

    fn run(&self, v: BenchVariant) -> AppResult {
        match *self {
            App::Tangent => tangent::run(v, 96, 11),
            App::Popcount => popcount::run(v, 48, 21),
            // The paper's sorted arrays are network-sized (128-512 B): one
            // streaming pass, merged externally only in larger deployments.
            App::Sort(n) => sort::run(v, n, n, 31),
            App::Dijkstra => dijkstra::run(v, 192, 8, 41),
            App::BarnesHut => barnes_hut::run(v, 4, 48, 51),
            App::Pdes(p) => pdes::run(v, p, 12, 6, 61),
            App::Bfs(p) => bfs::run(v, p, 192, 4, 71),
        }
    }

    fn netlist(&self) -> NetlistSummary {
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

struct Row {
    name: String,
    fabric_mm2: f64,
    base: AppResult,
    duet: AppResult,
    fpsoc: AppResult,
}

fn main() {
    let tp = Throughput::start();
    const VARIANTS: [BenchVariant; 3] = [
        BenchVariant::ProcOnly,
        BenchVariant::Duet,
        BenchVariant::Fpsoc,
    ];
    // 13 x 3 = 39 independent full-system simulations.
    let jobs: Vec<(App, BenchVariant)> = App::ALL
        .into_iter()
        .flat_map(|a| VARIANTS.into_iter().map(move |v| (a, v)))
        .collect();
    eprintln!(
        "[fig12] running {} simulations on {} thread(s)...",
        jobs.len(),
        duet_bench::configured_threads()
    );
    let results = parallel_map(jobs, |(a, v)| {
        eprintln!("[fig12] {} ({:?})...", a.name(), v);
        a.run(v)
    });

    let rows: Vec<Row> = App::ALL
        .iter()
        .enumerate()
        .map(|(k, a)| Row {
            name: a.name(),
            fabric_mm2: FabricSpec::k6_frac_n10_mem32k()
                .implement(&a.netlist())
                .area_mm2,
            base: results[3 * k].clone(),
            duet: results[3 * k + 1].clone(),
            fpsoc: results[3 * k + 2].clone(),
        })
        .collect();

    println!("# Fig. 12: normalized speedup and ADP (baseline = processor-only = 1.0)");
    println!(
        "{:<12} {:>5} {:>11} {:>11} {:>11} | {:>9} {:>9} | {:>9} {:>9} | {:>3}",
        "benchmark",
        "P",
        "base us",
        "duet us",
        "fpsoc us",
        "spd duet",
        "spd fpsoc",
        "adp duet",
        "adp fpsoc",
        "ok"
    );
    let mut geo_duet = 1.0f64;
    let mut geo_fpsoc = 1.0f64;
    let mut geo_adp_duet = 1.0f64;
    let mut geo_adp_fpsoc = 1.0f64;
    for r in &rows {
        let s_duet = r.duet.speedup_over(&r.base);
        let s_fpsoc = r.fpsoc.speedup_over(&r.base);
        let model = AreaModel {
            processors: r.base.processors,
            memory_hubs: r.duet.memory_hubs,
            fabric_mm2: r.fabric_mm2,
        };
        let base_area = model.processor_only_mm2();
        let adp_duet = normalized_adp(
            model.duet_mm2(),
            r.duet.runtime.as_ps(),
            base_area,
            r.base.runtime.as_ps(),
        );
        let adp_fpsoc = normalized_adp(
            model.fpsoc_mm2(),
            r.fpsoc.runtime.as_ps(),
            base_area,
            r.base.runtime.as_ps(),
        );
        let ok = r.base.correct && r.duet.correct && r.fpsoc.correct;
        println!(
            "{:<12} {:>5} {:>11.1} {:>11.1} {:>11.1} | {:>9.2} {:>9.2} | {:>9.2} {:>9.2} | {:>3}",
            r.name,
            r.base.processors,
            r.base.runtime.as_us_f64(),
            r.duet.runtime.as_us_f64(),
            r.fpsoc.runtime.as_us_f64(),
            s_duet,
            s_fpsoc,
            adp_duet,
            adp_fpsoc,
            if ok { "yes" } else { "NO" }
        );
        geo_duet *= s_duet;
        geo_fpsoc *= s_fpsoc;
        geo_adp_duet *= adp_duet;
        geo_adp_fpsoc *= adp_fpsoc;
    }
    let n = rows.len() as f64;
    println!();
    println!(
        "# geomean speedup: duet {:.2}x, fpsoc {:.2}x (paper: 4.53x / 2.14x)",
        geo_duet.powf(1.0 / n),
        geo_fpsoc.powf(1.0 / n)
    );
    println!(
        "# geomean ADP: duet {:.2}, fpsoc {:.2} (paper: 0.39 / 1.23; lower is better)",
        geo_adp_duet.powf(1.0 / n),
        geo_adp_fpsoc.powf(1.0 / n)
    );
    println!(
        "# normalization tile: {:.2} mm2 (Ariane + P-Mesh socket)",
        base_tile_area_mm2()
    );
    duet_bench::maybe_write_trace("fig12");
    duet_bench::maybe_run_faulted("fig12");
    tp.report("fig12", results.iter().map(|r| (r.stats, r.sim_ps)));
}
