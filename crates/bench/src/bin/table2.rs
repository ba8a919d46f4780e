//! Regenerates **Table II**: maximum clock frequency and eFPGA resource
//! utilization of the seven soft accelerators, by implementing each
//! design's netlist summary on the `k6_frac_N10_frac_chain_mem32K_40nm`
//! fabric model.
//!
//! Run: `cargo run --release -p duet-bench --bin table2 [--threads N]`

use duet_bench::parallel_map;
use duet_fpga::area::base_tile_area_mm2;
use duet_fpga::fabric::{FabricSpec, NetlistSummary};
use duet_fpga::ports::SoftAccelerator;

/// Table II designs; workers instantiate each one (some hold `Rc` state,
/// so construction happens inside the worker, not in a shared list).
#[derive(Clone, Copy)]
enum Design {
    Tangent,
    Popcount,
    Sort(u64),
    Dijkstra,
    BarnesHut,
    Bfs,
    Pdes,
    Scratchpad,
}

impl Design {
    fn netlist(&self) -> NetlistSummary {
        match *self {
            Design::Tangent => duet_workloads::tangent::TangentAccel::new(true).netlist(),
            Design::Popcount => duet_workloads::popcount::PopcountAccel::new(true).netlist(),
            Design::Sort(n) => duet_workloads::sort::SortAccel::new(true, n).netlist(),
            Design::Dijkstra => duet_workloads::dijkstra::DijkstraAccel::new(
                true,
                true,
                duet_workloads::dijkstra::DijkstraLayout::new(),
            )
            .netlist(),
            Design::BarnesHut => duet_workloads::barnes_hut::BhAccel::new(true, 4, 0, 0).netlist(),
            Design::Bfs => duet_workloads::bfs::FrontierQueues::new(true, 4, 0).netlist(),
            Design::Pdes => duet_workloads::pdes::TaskScheduler::new(true, 4, &[]).netlist(),
            Design::Scratchpad => {
                let events = std::rc::Rc::new(std::cell::RefCell::new(
                    duet_workloads::synthetic::SpEvents::default(),
                ));
                duet_workloads::synthetic::Scratchpad::new(true, events).netlist()
            }
        }
    }
}

fn main() {
    // (design, paper MHz, paper norm area, paper CLB util, paper BRAM util)
    let designs: [(Design, f64, f64, f64, f64); 10] = [
        (Design::Tangent, 282.0, 0.47, 0.84, 0.0),
        (Design::Popcount, 189.0, 2.77, 0.83, 0.56),
        (Design::Sort(32), 228.0, 6.29, 0.30, 0.76),
        (Design::Sort(64), 234.0, 8.10, 0.27, 0.92),
        (Design::Sort(128), 228.0, 10.27, 0.27, 0.92),
        (Design::Dijkstra, 127.0, 1.94, 0.96, 0.31),
        (Design::BarnesHut, 85.0, 14.22, 0.99, 0.05),
        (Design::Bfs, 208.0, 1.24, 0.61, 0.75),
        (Design::Pdes, 126.0, 2.77, 0.47, 0.56),
        (Design::Scratchpad, 0.0, 0.0, 0.0, 0.0),
    ];
    let implemented = parallel_map(designs.to_vec(), |(d, p_mhz, p_area, p_clb, p_bram)| {
        let n = d.netlist();
        let r = FabricSpec::k6_frac_n10_mem32k().implement(&n);
        (n, r, p_mhz, p_area, p_clb, p_bram)
    });

    println!("# Table II: Clock Frequency and Area of Soft Accelerators");
    println!("# (model vs paper; area normalized to 1x Ariane + 1x P-Mesh Socket)");
    println!(
        "{:<14} {:>9} {:>9} | {:>9} {:>9} | {:>8} {:>8} | {:>8} {:>8}",
        "design", "MHz", "paper", "area", "paper", "CLB", "paper", "BRAM", "paper"
    );
    for (n, r, p_mhz, p_area, p_clb, p_bram) in &implemented {
        let norm_area = r.area_mm2 / base_tile_area_mm2();
        println!(
            "{:<14} {:>9.0} {:>9.0} | {:>9.2} {:>9.2} | {:>8.2} {:>8.2} | {:>8.2} {:>8.2}",
            n.name, r.fmax_mhz, p_mhz, norm_area, p_area, r.clb_util, p_clb, r.bram_util, p_bram
        );
    }
    println!();
    println!("# Paper note: accelerators run at 8%-28% of the 1 GHz processor clock.");
    duet_bench::maybe_write_trace("table2");
    duet_bench::maybe_run_faulted("table2");
}
