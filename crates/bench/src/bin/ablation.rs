//! Ablation studies of Duet's design choices, beyond the paper's figures:
//!
//! 1. **Private-cache MSHR count** — the paper notes cache-based bandwidth
//!    is bounded by "the number of concurrent, in-flight memory requests
//!    supported by the Proxy Cache". This sweeps the same bound at the
//!    protocol level: line loads streamed through one 1 GHz private L2 on
//!    a bare coherence harness (no eFPGA, no adapter).
//! 2. **Synchronizer depth** — the CDC cost model: async FIFOs "typically
//!    take two to four stages"; sweep latency vs stages.
//! 3. **Shadow-vs-normal register latency gap** — the Fig. 9 register
//!    round trip at three eFPGA clocks, showing how much of the gap comes
//!    from keeping register state in the fast domain.
//!
//! Run: `cargo run --release -p duet-bench --bin ablation [--threads N]`

use duet_bench::{parallel_map, Throughput};
use duet_sim::{AsyncFifo, Clock};
use duet_workloads::synthetic::{measure_latency, LatencyPoint, Mechanism};

fn main() {
    let tp = Throughput::start();
    mshr_sweep();
    sync_stage_sweep();
    let points = register_gap_sweep();
    duet_bench::maybe_write_trace("ablation");
    duet_bench::maybe_run_faulted("ablation");
    tp.report(
        "ablation",
        points
            .iter()
            .flat_map(|(n, s)| [(n.stats, n.sim_ps), (s.stats, s.sim_ps)]),
    );
}

/// Line-load bandwidth vs private-cache MSHRs (in-flight request bound).
fn mshr_sweep() {
    println!(
        "# Ablation 1: line-load bandwidth vs private-cache MSHRs (1 GHz L2, protocol harness)"
    );
    println!("{:<8} {:>12}", "mshrs", "MB/s");
    let counts = vec![1usize, 2, 4, 8, 16];
    let bws = parallel_map(counts.clone(), bandwidth_with_mshrs);
    for (mshrs, bw) in counts.iter().zip(&bws) {
        println!("{:<8} {:>12.0}", mshrs, bw);
    }
    println!();
}

/// Streams 256 line loads through one Dolly L2 with `mshrs` MSHRs on a
/// 2x2 coherence harness, issuing whenever the cache accepts, and returns
/// the payload bandwidth in MB/s.
fn bandwidth_with_mshrs(mshrs: usize) -> f64 {
    use duet_mem::priv_cache::CacheConfig;
    use duet_mem::testkit::ProtocolHarness;
    use duet_mem::types::MemReq;
    let cfg = CacheConfig::dolly_l2(Clock::ghz1()).with_mshrs(mshrs);
    let mut h = ProtocolHarness::new(2, 2, 1, cfg);
    let lines = 256u64;
    let mut next = 0u64;
    let mut done = 0u64;
    while done < lines {
        if next < lines && h.caches[0].can_accept() {
            h.request(0, MemReq::load_line(next, 0x1_0000 + next * 16));
            next += 1;
        }
        done += h.step().len() as u64;
    }
    let t = h.now();
    let bytes = lines * 16;
    bytes as f64 / (t.as_ps() as f64 * 1e-12) / 1e6
}

/// Round-trip latency contribution of the synchronizer depth.
fn sync_stage_sweep() {
    println!("# Ablation 2: CDC crossing latency vs synchronizer stages");
    println!("# (one fast->slow crossing at 100 MHz consumer)");
    println!("{:<8} {:>12}", "stages", "ns");
    let fast = Clock::ghz1();
    let slow = Clock::from_mhz(100.0);
    for stages in 1..=4u32 {
        let mut f: AsyncFifo<u8> = AsyncFifo::new(4, stages, fast, slow);
        let t0 = fast.first_edge();
        f.push(t0, 1).unwrap();
        // Find the first visible slow edge.
        let mut t = t0;
        loop {
            t = slow.next_edge_after(t);
            if f.front(t).is_some() {
                break;
            }
        }
        println!("{:<8} {:>12.1}", stages, (t - t0).as_ns_f64());
    }
    println!();
}

/// Normal- vs shadow-register latency at three eFPGA clocks; returns the
/// measured `(normal, shadow)` pairs.
fn register_gap_sweep() -> Vec<(LatencyPoint, LatencyPoint)> {
    println!("# Ablation 3: shadow-vs-normal register latency gap by clock");
    println!(
        "{:<8} {:>12} {:>12} {:>8}",
        "MHz", "normal ns", "shadow ns", "gap"
    );
    let mhzs = vec![20.0f64, 100.0, 500.0];
    // Two independent simulations per clock point.
    let points = parallel_map(mhzs.clone(), |mhz| {
        (
            measure_latency(Mechanism::NormalReg, mhz),
            measure_latency(Mechanism::ShadowReg, mhz),
        )
    });
    for (mhz, (n, s)) in mhzs.iter().zip(&points) {
        println!(
            "{:<8.0} {:>12.1} {:>12.1} {:>7.1}x",
            mhz,
            n.total.as_ns_f64(),
            s.total.as_ns_f64(),
            n.total.as_ps() as f64 / s.total.as_ps() as f64
        );
    }
    points
}
