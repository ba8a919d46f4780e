//! Regenerates **Fig. 9**: CPU–eFPGA communication latency (single
//! processor, single transaction) with the four-way breakdown into NoC,
//! fast-domain cache, slow-domain cache, and CDC time, across eFPGA clock
//! frequencies, for all six mechanisms.
//!
//! Run: `cargo run --release -p duet-bench --bin fig9 [--threads N]`

use duet_bench::{configured_trace_path, parallel_map, Throughput};
use duet_workloads::synthetic::{measure_latency, measure_latency_traced, Mechanism};

fn main() {
    let tp = Throughput::start();
    let freqs = [20.0, 50.0, 100.0, 200.0, 300.0, 400.0, 500.0];
    // Every (mechanism, frequency) cell is an independent simulation; fan
    // them out and reassemble in deterministic (input) order.
    let cells: Vec<(Mechanism, f64)> = Mechanism::ALL
        .into_iter()
        .flat_map(|m| freqs.into_iter().map(move |f| (m, f)))
        .collect();
    let points = parallel_map(cells.clone(), |(m, f)| measure_latency(m, f));
    let lookup = |m: Mechanism, f: f64| {
        let i = cells
            .iter()
            .position(|&(cm, cf)| cm == m && cf == f)
            .expect("cell swept");
        &points[i]
    };

    println!("# Fig. 9: CPU-eFPGA round-trip latency (ns), system clock 1 GHz");
    println!(
        "{:<24} {:>8} {:>10} {:>8} {:>9} {:>9} {:>8}",
        "mechanism", "MHz", "total", "noc", "fast", "slow", "cdc"
    );
    for m in Mechanism::ALL {
        for &f in &freqs {
            let p = lookup(m, f);
            println!(
                "{:<24} {:>8.0} {:>10.1} {:>8.1} {:>9.1} {:>9.1} {:>8.1}",
                m.label(),
                f,
                p.total.as_ns_f64(),
                p.breakdown.noc.as_ns_f64(),
                p.breakdown.cache_fast.as_ns_f64(),
                p.breakdown.cache_slow.as_ns_f64(),
                p.breakdown.cdc.as_ns_f64(),
            );
        }
        println!();
    }

    // Paper headline numbers for comparison (reuses the swept cells).
    let reduction = |slow: Mechanism, fast: Mechanism, mhz: f64| {
        let s = lookup(slow, mhz).total.as_ps() as f64;
        let p = lookup(fast, mhz).total.as_ps() as f64;
        100.0 * (1.0 - p / s)
    };
    println!("# Headline reductions (paper: eFPGA pull 13-43%, CPU pull 42-82%, shadow 50-80%)");
    for &mhz in &[20.0, 100.0, 500.0] {
        println!(
            "  @{mhz:>3.0} MHz: efpga-pull {:>5.1}%   cpu-pull {:>5.1}%   shadow-reg {:>5.1}%",
            reduction(Mechanism::EfpgaPullSlow, Mechanism::EfpgaPullProxy, mhz),
            reduction(Mechanism::CpuPullSlow, Mechanism::CpuPullProxy, mhz),
            reduction(Mechanism::NormalReg, Mechanism::ShadowReg, mhz),
        );
    }

    // Component-graph link counters for one representative cell per
    // mechanism (100 MHz): where traffic flows and where it stalls.
    println!();
    println!("# Per-link occupancy/stall counters @100 MHz (links with traffic or rejections)");
    println!(
        "{:<24} {:<28} {:>8} {:>8} {:>9} {:>6} {:>6}",
        "mechanism", "link", "pushes", "pops", "rejected", "peak", "cap"
    );
    for m in Mechanism::ALL {
        let p = lookup(m, 100.0);
        for (name, r) in &p.links {
            if r.stats.pushes == 0 && r.stats.rejected_pushes == 0 {
                continue;
            }
            println!(
                "{:<24} {:<28} {:>8} {:>8} {:>9} {:>6} {:>6}",
                m.label(),
                name,
                r.stats.pushes,
                r.stats.pops,
                r.stats.rejected_pushes,
                r.stats.peak_occupancy,
                r.capacity.map_or("inf".to_string(), |c| c.to_string()),
            );
        }
        println!();
    }
    // `--trace <path>`: re-run one representative cell
    // (proxy-cached CPU pull @ 100 MHz) with full event tracing and dump
    // the Chrome trace-event JSON. The traced rerun is bit-identical to
    // the untraced sweep cell above — instrumentation is read-only.
    if let Some(path) = configured_trace_path() {
        let tcfg = duet_trace::TraceConfig::default();
        let (traced, json) = measure_latency_traced(Mechanism::CpuPullProxy, 100.0, Some(&tcfg));
        assert_eq!(
            traced.total,
            lookup(Mechanism::CpuPullProxy, 100.0).total,
            "tracing must not perturb simulated time"
        );
        let json = json.expect("tracing enabled");
        match std::fs::write(&path, &json) {
            Ok(()) => println!("# fig9: chrome trace (cpu-pull-proxy @100 MHz) written to {path}"),
            Err(e) => eprintln!("# fig9: failed to write trace to {path}: {e}"),
        }
    }
    duet_bench::maybe_run_faulted("fig9");
    tp.report("fig9", points.iter().map(|p| (p.stats, p.sim_ps)));
}
