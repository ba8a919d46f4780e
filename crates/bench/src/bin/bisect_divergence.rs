//! Bisect-to-divergence: walk two runs of the same workload — one clean,
//! one under a fault plan (or two different fault plans) — to the exact
//! first clock edge where their simulated states part ways.
//!
//! The tool runs both systems in lockstep with event-horizon edge skipping
//! disabled (so the two edge schedules are identical and edge-indexed
//! comparison is meaningful). A coarse phase advances both by a checkpoint
//! quantum, comparing [`System::divergence_fingerprint`] at each boundary
//! and snapshotting both sides while they still agree. On the first
//! mismatching boundary, a fine phase restores both sides from the
//! last-good checkpoints and single-steps them edge by edge
//! ([`System::step_edge`]) until the fingerprints differ, then reports the
//! divergent edge and every metric that differs at that instant.
//!
//! ```text
//! bisect_divergence [--faults <plan.txt>] [--faults-b <plan.txt>]
//!                   [--quantum-ns N] [--until-us N] [--out <report.txt>]
//! ```
//!
//! With no `--faults`, a built-in known-divergent plan is used: a NoC
//! injection stall at the C-tile crossing the popcount accelerator's
//! line-fetch window. `--faults-b` bisects plan-vs-plan instead of
//! clean-vs-plan.

use std::sync::Arc;

use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_sim::Time;
use duet_system::{FaultKind, FaultPlan, FaultSpec, System, SystemConfig};
use duet_workloads::popcount::PopcountAccel;

/// The shared workload: the quickstart popcount invocation on Dolly-P1M1
/// (one CPU kick, the accelerator streams four lines through the Proxy
/// Cache). Small enough that per-edge fingerprints are cheap, rich enough
/// to cross every subsystem (MMIO, shadow registers, CDC, NoC, MESI).
fn build(plan: &FaultPlan) -> System {
    use duet_core::RegMode;
    let mut cfg = SystemConfig::dolly(1, 1, 189.0);
    cfg.faults = plan.clone();
    let mut sys = System::new(cfg).expect("valid config");
    sys.set_reg_mode(0, RegMode::FpgaBound);
    sys.set_reg_mode(1, RegMode::CpuBound);
    sys.attach_accelerator(Box::new(PopcountAccel::new(true)));
    let vec_addr = 0x1_0000u64;
    let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
    sys.poke_bytes(vec_addr, &data);
    let mmio = sys.config().mmio_base;
    let mut a = Asm::new();
    a.label("main");
    a.li(regs::T[0], mmio as i64);
    a.li(regs::T[1], vec_addr as i64);
    a.sd(regs::T[1], regs::T[0], 0);
    a.ld(regs::T[2], regs::T[0], 8);
    a.li(regs::T[3], 0x2_0000);
    a.sd(regs::T[2], regs::T[3], 0);
    a.fence();
    a.halt();
    sys.load_program(0, Arc::new(a.assemble().expect("static program")), "main");
    // Edge skipping stays off: both sides must execute the identical edge
    // schedule for "first divergent edge" to be well defined.
    sys.set_edge_skipping(false);
    sys
}

/// The built-in known-divergent plan: stall NoC injection at the C-tile
/// while the accelerator's line fetches are in flight. `NocDelay` is
/// stateless — the stall is re-derived from the plan and the clock at
/// every injection — so the first divergent edge the bisect reports is
/// the first edge where the clean side actually injects a message the
/// faulted side holds, not merely the window opening. The clean run
/// halts at ~353 ns, so a window from 50 ns crosses live traffic.
fn default_plan() -> FaultPlan {
    let cfg = SystemConfig::dolly(1, 1, 189.0);
    FaultPlan {
        seed: 0,
        specs: vec![FaultSpec {
            kind: FaultKind::NocDelay {
                node: cfg.ctile_node(),
            },
            from: Time::from_ns(50),
            until: Time::from_ns(1_000),
        }],
        degrade: None,
    }
}

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(&format!("{name}=")) {
            return Some(v.to_string());
        }
    }
    None
}

fn load_plan(path: &str) -> FaultPlan {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read fault plan {path}: {e}"));
    FaultPlan::parse(&text).unwrap_or_else(|e| panic!("bad fault plan {path}: {e}"))
}

/// Metrics that differ between the two sides at the divergent edge,
/// rendered one per line.
fn metric_diff(a: &System, b: &System) -> String {
    let ra = a.metrics_registry();
    let rb = b.metrics_registry();
    let mut out = String::new();
    for (k, va) in ra.iter() {
        let vb = rb.get(k).unwrap_or(0);
        if va != vb {
            out.push_str(&format!("  {k}: a={va} b={vb}\n"));
        }
    }
    out
}

fn main() {
    let plan_a = arg_value("--faults").map_or_else(FaultPlan::default, |p| load_plan(&p));
    let plan_b = arg_value("--faults-b").map_or_else(
        || {
            if plan_a.is_empty() {
                default_plan()
            } else {
                FaultPlan::default()
            }
        },
        |p| load_plan(&p),
    );
    let quantum = Time::from_ns(
        arg_value("--quantum-ns")
            .and_then(|v| v.parse().ok())
            .unwrap_or(100),
    );
    let horizon = Time::from_us(
        arg_value("--until-us")
            .and_then(|v| v.parse().ok())
            .unwrap_or(100),
    );

    let mut report = String::new();
    report.push_str("bisect_divergence report\n");
    report.push_str(&format!(
        "side a: {}\n",
        if plan_a.is_empty() {
            "clean".to_string()
        } else {
            plan_a.render().replace('\n', "; ")
        }
    ));
    report.push_str(&format!(
        "side b: {}\n",
        if plan_b.is_empty() {
            "clean".to_string()
        } else {
            plan_b.render().replace('\n', "; ")
        }
    ));
    report.push_str(&format!("quantum: {quantum}, horizon: {horizon}\n"));

    let mut a = build(&plan_a);
    let mut b = build(&plan_b);

    // Coarse phase: advance by the checkpoint quantum, snapshotting while
    // the two sides still agree.
    let mut last_good: Option<(Time, Vec<u8>, Vec<u8>)> = None;
    let mut boundary = Time::ZERO;
    let diverged_boundary = loop {
        if a.divergence_fingerprint() != b.divergence_fingerprint() {
            break boundary;
        }
        if boundary >= horizon {
            report.push_str(&format!(
                "no divergence: fingerprints agree at every checkpoint through {horizon}\n"
            ));
            finish(&report);
            return;
        }
        last_good = Some((boundary, a.snapshot(), b.snapshot()));
        boundary = horizon.min(Time::from_ps(boundary.as_ps() + quantum.as_ps()));
        a.run_until_time(boundary);
        b.run_until_time(boundary);
    };

    // Fine phase: rewind to the last agreeing checkpoint and single-step.
    let from = match &last_good {
        Some((t, snap_a, snap_b)) => {
            a.restore(snap_a).expect("self-restore of side a");
            b.restore(snap_b).expect("self-restore of side b");
            *t
        }
        None => {
            // Diverged before the first checkpoint (differing initial
            // state would be a config bug; report and bail).
            report.push_str("sides differ at time zero — nothing to bisect\n");
            finish(&report);
            std::process::exit(2);
        }
    };
    report.push_str(&format!(
        "coarse: checkpoints agree at {from}, diverge by {diverged_boundary}\n"
    ));

    // `restore` leaves the host-side edge count alone.
    let edges_at_checkpoint = a.executed_edges();
    loop {
        let (ta, da) = a.step_edge();
        let (tb, db) = b.step_edge();
        assert_eq!(
            (ta, da),
            (tb, db),
            "edge schedules must match with edge skipping disabled"
        );
        if a.divergence_fingerprint() != b.divergence_fingerprint() {
            report.push_str(&format!("FIRST DIVERGENT EDGE: {ta} ({da:?} edge)\n"));
            report.push_str(&format!(
                "edges executed from checkpoint: {}\n",
                a.executed_edges() - edges_at_checkpoint
            ));
            let diff = metric_diff(&a, &b);
            if diff.is_empty() {
                report
                    .push_str("no aggregate metric differs yet (divergence is in queued state)\n");
            } else {
                report.push_str("metrics differing at the divergent edge:\n");
                report.push_str(&diff);
            }
            finish(&report);
            return;
        }
        if ta > diverged_boundary {
            report.push_str(&format!(
                "error: walked past {diverged_boundary} without reproducing the divergence\n"
            ));
            finish(&report);
            std::process::exit(2);
        }
    }
}

fn finish(report: &str) {
    print!("{report}");
    if let Some(path) = arg_value("--out") {
        std::fs::write(&path, report).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("# report written to {path}");
    }
}
