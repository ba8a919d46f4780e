//! Regenerates **Table I**: area and typical frequency of Dolly's hard
//! components (from the component database; the paper's numbers come from
//! published works and FreePDK45 synthesis — see DESIGN.md).
//!
//! Run: `cargo run --release -p duet-bench --bin table1`

use duet_fpga::area::{base_tile_area_mm2, table1, AreaModel};

fn main() {
    println!("# Table I: Area and Typical Frequency of Dolly Components");
    println!(
        "{:<26} {:<26} {:>10} {:>10} {:>12} {:>12}",
        "component", "technology", "area mm2", "freq MHz", "scaled mm2", "scaled MHz"
    );
    for c in table1() {
        println!(
            "{:<26} {:<26} {:>10.2} {:>10.0} {:>12.2} {:>12.0}",
            c.name, c.technology, c.area_mm2, c.freq_mhz, c.scaled_area_mm2, c.scaled_freq_mhz
        );
    }
    println!();
    println!(
        "# normalization unit (1x Ariane + 1x P-Mesh socket): {:.2} mm2",
        base_tile_area_mm2()
    );
    let m = AreaModel {
        processors: 1,
        memory_hubs: 1,
        fabric_mm2: 0.0,
    };
    let adapter_only = AreaModel {
        processors: 0,
        memory_hubs: 1,
        fabric_mm2: 1.0,
    };
    let adapter = adapter_only.duet_mm2() - adapter_only.fpsoc_mm2();
    println!(
        "# one Duet Adapter (C-tile socket + coherent mem intf + FPGA mgr/soft regs): {:.2} mm2",
        adapter
    );
    println!(
        "# = {:.1}% of a processor tile — the \"negligible hardware overhead\" claim",
        100.0 * adapter / m.processor_only_mm2()
    );
    duet_bench::maybe_write_trace("table1");
    duet_bench::maybe_run_faulted("table1");
}
