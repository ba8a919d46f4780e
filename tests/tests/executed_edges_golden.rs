//! Executed-edge golden: how many clock edges the host actually executes
//! with edge skipping on, next to the fast and slow edges the run covers.
//!
//! The fast and slow counts are simulated results (edge skipping
//! reconstructs them exactly), so they must never move. The executed
//! count is the host's work: a change to the event horizon that moves it
//! re-blesses this file and says per line why, old → new, in its commit.
//! Skipping is set on explicitly, so the file reads the same whether or
//! not `DUET_DISABLE_EDGE_SKIP` is set.
//!
//! Re-bless: `DUET_BLESS_GOLDEN=1 cargo test -p duet-tests --test
//! executed_edges_golden`.

use std::sync::Arc;

use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_sim::Time;
use duet_system::{FaultPlan, System, SystemConfig};
use duet_workloads::{bandwidth_system, popcount, BenchVariant, Mechanism};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/executed_edges_v1.txt");

/// Runs `sys` to halt and quiescence with edge skipping on and returns its
/// golden line.
fn edges_line(name: &str, mut sys: System) -> String {
    sys.set_edge_skipping(true);
    sys.run_until_halt(Time::from_us(60_000))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    sys.quiesce(Time::from_us(60_100))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let st = sys.stats();
    format!(
        "{name}: executed={} fast={} slow={}\n",
        sys.executed_edges(),
        st.fast_edges,
        st.slow_edges
    )
}

/// Four cores each stream 128 stores over one shared 2 KB region.
fn store_stream_p4() -> System {
    let mut sys = System::new(SystemConfig::proc_only(4)).expect("valid config");
    let (addr, val, end) = (regs::T[0], regs::T[1], regs::T[2]);
    let mut a = Asm::new();
    a.label("main");
    a.coreid(val);
    a.addi(val, val, 1);
    a.li(addr, 0x9000);
    a.li(end, 0x9000 + 0x800);
    a.label("loop");
    a.sd(val, addr, 0);
    a.addi(addr, addr, 16);
    a.blt(addr, end, "loop");
    a.halt();
    let prog = Arc::new(a.assemble().unwrap());
    for c in 0..4 {
        sys.load_program(c, prog.clone(), "main");
    }
    sys
}

#[test]
fn executed_edges_match_golden() {
    let mut all = String::new();
    for mechanism in [
        Mechanism::EfpgaPullSlow,
        Mechanism::EfpgaPullProxy,
        Mechanism::CpuPullSlow,
        Mechanism::CpuPullProxy,
    ] {
        for mhz in [20.0, 500.0] {
            let name = format!("bandwidth {} @{mhz} MHz", mechanism.label());
            all.push_str(&edges_line(&name, bandwidth_system(mechanism, mhz, 512).0));
        }
    }
    all.push_str(&edges_line(
        "bandwidth normal-reg @100 MHz",
        bandwidth_system(Mechanism::NormalReg, 100.0, 512).0,
    ));
    all.push_str(&edges_line(
        "popcount n=6 duet",
        popcount::prepare(BenchVariant::Duet, 6, 42, FaultPlan::empty()).0,
    ));
    all.push_str(&edges_line("store stream proc_only(4)", store_stream_p4()));

    if std::env::var("DUET_BLESS_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(GOLDEN_PATH, &all).unwrap();
        eprintln!("blessed executed-edge goldens to {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; bless with DUET_BLESS_GOLDEN=1");
    assert_eq!(golden, all, "executed-edge counts diverged from the golden");
}
