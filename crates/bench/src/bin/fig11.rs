//! Regenerates **Fig. 11**: per-processor soft-register bandwidth vs
//! number of contending processors (eFPGA fixed at 500 MHz), shadow vs
//! normal registers.
//!
//! Run: `cargo run --release -p duet-bench --bin fig11 [--threads N]`

use duet_bench::{parallel_map, Throughput};
use duet_workloads::synthetic::measure_contention;

fn main() {
    let tp = Throughput::start();
    let procs = [1usize, 2, 4, 8, 16];
    let pairs = 64;
    // 5 processor counts x {shadow, normal} = 10 independent simulations.
    let cells: Vec<(bool, usize)> = procs
        .iter()
        .flat_map(|&p| [(true, p), (false, p)])
        .collect();
    let points = parallel_map(cells, |(shadow, p)| measure_contention(shadow, p, pairs));

    println!("# Fig. 11: per-processor bandwidth (MB/s) vs contending processors");
    println!("# eFPGA at 500 MHz; each processor issues write/read pairs to one register");
    println!("{:<10} {:>14} {:>14}", "procs", "shadow", "normal");
    let mut rows = Vec::new();
    for (k, &p) in procs.iter().enumerate() {
        let s = &points[2 * k];
        let n = &points[2 * k + 1];
        println!(
            "{:<10} {:>14.1} {:>14.1}",
            p, s.per_proc_mbps, n.per_proc_mbps
        );
        rows.push((p, s.per_proc_mbps, n.per_proc_mbps));
    }
    println!();
    println!("# Paper: shadow registers sustain ~8 processors before per-processor");
    println!("# bandwidth drops; normal registers only ~2.");
    let knee = |col: fn(&(usize, f64, f64)) -> f64, rows: &[(usize, f64, f64)]| {
        let base = col(&rows[0]);
        rows.iter()
            .take_while(|r| col(r) > 0.8 * base)
            .map(|r| r.0)
            .last()
            .unwrap_or(1)
    };
    println!(
        "# measured knees: shadow sustains ~{} procs, normal ~{} procs",
        knee(|r| r.1, &rows),
        knee(|r| r.2, &rows)
    );
    duet_bench::maybe_write_trace("fig11");
    duet_bench::maybe_run_faulted("fig11");
    tp.report("fig11", points.iter().map(|p| (p.stats, p.sim_ps)));
}
