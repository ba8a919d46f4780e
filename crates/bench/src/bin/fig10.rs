//! Regenerates **Fig. 10**: single-processor CPU↔eFPGA bandwidth vs eFPGA
//! clock frequency, passing 512 quad-words each way (the paper's
//! protocol), for all six mechanisms.
//!
//! Run: `cargo run --release -p duet-bench --bin fig10 [--threads N]`

use duet_bench::{parallel_map, Throughput};
use duet_workloads::synthetic::{measure_bandwidth, Mechanism};

fn main() {
    let tp = Throughput::start();
    let freqs = [20.0, 50.0, 100.0, 200.0, 300.0, 400.0, 500.0];
    let nwords = 512; // the paper's 512 quad-words (4 KB buffers)
    let cells: Vec<(Mechanism, f64)> = Mechanism::ALL
        .into_iter()
        .flat_map(|m| freqs.into_iter().map(move |f| (m, f)))
        .collect();
    let points = parallel_map(cells.clone(), |(m, f)| measure_bandwidth(m, f, nwords));
    let lookup = |m: Mechanism, f: f64| {
        let i = cells
            .iter()
            .position(|&(cm, cf)| cm == m && cf == f)
            .expect("cell swept");
        &points[i]
    };

    println!("# Fig. 10: processor-eFPGA bandwidth (MB/s), 512 quad-words, 1 GHz system");
    print!("{:<24}", "mechanism");
    for f in freqs {
        print!(" {:>8.0}", f);
    }
    println!("  (MHz)");
    for m in Mechanism::ALL {
        print!("{:<24}", m.label());
        for &f in &freqs {
            print!(" {:>8.0}", lookup(m, f).mbps());
        }
        println!();
    }
    println!();
    println!("# Paper reference points: proxy eFPGA-pull peaks 558 MB/s (>=100 MHz);");
    println!("# proxy CPU-pull 201 MB/s (>=50 MHz); slow cache 287/144 MB/s at 500 MHz;");
    println!("# shadow regs 213 MB/s (>=50 MHz); normal regs 121 MB/s at 500 MHz;");
    println!("# largest proxy/slow gap at 100 MHz (9.5x in the paper).");
    let p100 = lookup(Mechanism::EfpgaPullProxy, 100.0).mbps();
    let s100 = lookup(Mechanism::EfpgaPullSlow, 100.0).mbps();
    println!("# measured proxy/slow gap @100 MHz: {:.1}x", p100 / s100);
    duet_bench::maybe_write_trace("fig10");
    duet_bench::maybe_run_faulted("fig10");
    tp.report("fig10", points.iter().map(|p| (p.stats, p.sim_ps)));
}
