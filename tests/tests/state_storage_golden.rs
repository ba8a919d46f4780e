//! Golden-file determinism: run fingerprints must be byte-identical to the
//! values recorded *before* the hot-path state-storage refactor (PR 3:
//! `LineMap` directory/MSHR/page-table storage, `PagedMem` backing store,
//! O(1) run-loop dispatch).
//!
//! One workload per system variant (ProcOnly / Duet / FPSoC) runs with
//! event-horizon edge skipping both on and off; each of the resulting
//! fingerprints must match the committed golden file bit for bit. The
//! golden values were generated from commit `62d99d1` (the last commit
//! with `BTreeMap`-based storage) by running with `DUET_BLESS_GOLDEN=1`.
//!
//! If a *deliberate* timing-model change invalidates these values, re-bless
//! with: `DUET_BLESS_GOLDEN=1 cargo test -p duet-tests --test
//! state_storage_golden` — and say so in the commit message.

use std::sync::Arc;

use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_sim::Time;
use duet_system::{System, SystemConfig};
use duet_workloads::popcount::PopcountAccel;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/state_storage_pr3.txt");

/// Everything observable about a finished run, as one comparable string
/// (the same shape as `engine_determinism::fingerprint`).
fn fingerprint(sys: &System, halt: Time, quiesced: Time, mem: &[(u64, usize)]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "halt={halt} quiesced={quiesced} now={}\n",
        sys.now()
    ));
    s.push_str(&format!("run={:?}\n", sys.stats()));
    s.push_str(&format!("mesh={:?}\n", sys.mesh().stats()));
    for i in 0..sys.config().processors {
        s.push_str(&format!("core{i}={:?}\n", sys.core(i).stats()));
        s.push_str(&format!("l2_{i}={:?}\n", sys.l2(i).stats()));
    }
    if sys.config().has_fpga() {
        let a = sys.adapter();
        s.push_str(&format!("ctl={:?}\n", a.control.stats()));
        for (h, hub) in a.hubs.iter().enumerate() {
            s.push_str(&format!(
                "hub{h}={:?} err={} active={}\n",
                hub.stats(),
                hub.error_code(),
                hub.switches().active
            ));
        }
    }
    for (name, report) in sys.link_reports() {
        let st = report.stats;
        s.push_str(&format!(
            "link[{name}] pushes={} pops={} peak={} hist={:?}\n",
            st.pushes, st.pops, st.peak_occupancy, st.occupancy_hist
        ));
    }
    for &(addr, words) in mem {
        for k in 0..words as u64 {
            s.push_str(&format!(
                "m[{:#x}]={:#x}\n",
                addr + 8 * k,
                sys.peek_u64(addr + 8 * k)
            ));
        }
    }
    s
}

/// ProcOnly variant: two-core producer/consumer message passing.
fn proc_only_system() -> System {
    let iters = 8i64;
    let mut sys = System::new(SystemConfig::proc_only(2)).expect("valid config");
    let mut a = Asm::new();
    a.label("producer");
    let (data, flag, i) = (regs::S[0], regs::S[1], regs::S[2]);
    a.li(data, 0x1000);
    a.li(flag, 0x2000);
    a.li(i, 1);
    a.label("p_loop");
    a.li(regs::T[0], 1000);
    a.mul(regs::T[1], i, regs::T[0]);
    a.sd(regs::T[1], data, 0);
    a.fence();
    a.sd(i, flag, 0);
    a.addi(i, i, 1);
    a.li(regs::T[2], iters + 1);
    a.blt(i, regs::T[2], "p_loop");
    a.halt();
    a.label("consumer");
    a.li(data, 0x1000);
    a.li(flag, 0x2000);
    a.li(i, 1);
    a.label("spin");
    a.ld(regs::T[0], flag, 0);
    a.blt(regs::T[0], i, "spin");
    a.addi(i, i, 1);
    a.li(regs::T[5], iters + 1);
    a.blt(i, regs::T[5], "spin");
    a.fence();
    a.halt();
    let prog = Arc::new(a.assemble().unwrap());
    sys.load_program(0, prog.clone(), "producer");
    sys.load_program(1, prog, "consumer");
    sys
}

/// Duet variant: the quickstart-style popcount accelerator invoked through
/// shadow registers, reading a vector coherently via the Proxy Cache.
fn duet_system() -> System {
    use duet_core::RegMode;
    let mut sys = System::new(SystemConfig::dolly(1, 1, 189.0)).expect("valid config");
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
    sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
    sys
}

/// FPSoC variant: slow-domain hubs behind CDC FIFOs, shared-memory loop.
fn fpsoc_system() -> System {
    let mut sys = System::new(SystemConfig::fpsoc(2, 1, 137.0)).expect("valid config");
    let mut a = Asm::new();
    a.label("main");
    a.li(regs::T[0], 0x4000);
    a.li(regs::T[1], 0);
    a.label("loop");
    a.sd(regs::T[1], regs::T[0], 0);
    a.ld(regs::T[2], regs::T[0], 0);
    a.addi(regs::T[1], regs::T[1], 1);
    a.slti(regs::T[3], regs::T[1], 40);
    a.bnez(regs::T[3], "loop");
    a.fence();
    a.halt();
    let prog = Arc::new(a.assemble().unwrap());
    sys.load_program(0, prog.clone(), "main");
    sys.load_program(1, prog, "main");
    sys
}

fn run_fingerprint(build: impl Fn() -> System, skip: bool, mem: &[(u64, usize)]) -> String {
    let mut sys = build();
    sys.set_edge_skipping(skip);
    let halt = sys
        .run_until_halt(Time::from_us(10_000))
        .unwrap_or_else(|e| panic!("{e}"));
    let quiesced = sys
        .quiesce(Time::from_us(11_000))
        .unwrap_or_else(|e| panic!("{e}"));
    fingerprint(&sys, halt, quiesced, mem)
}

/// The metrics dump minus the host counter `run.executed_edges`, which
/// counts only the edges this system executed itself (a restored one
/// never ran the first half).
fn per_run_metrics(sys: &System) -> String {
    sys.metrics_registry()
        .iter()
        .filter(|(k, _)| *k != "run.executed_edges")
        .map(|(k, v)| format!("{k} = {v}\n"))
        .collect()
}

/// One mid-run checkpoint cell: run uninterrupted as the reference, then in
/// a second "process" snapshot at roughly half the halt time, restore the
/// bytes into a third freshly built system, and continue. Fingerprints,
/// metrics dumps, and (when tracing) trace text logs must be byte-identical.
///
/// Tracing is enabled *at the checkpoint* in both the reference and the
/// restored run, so the two trace windows cover the same interval. The
/// attach must not perturb anything — that invariant is part of what this
/// cell checks.
fn midrun_cell(
    name: &str,
    build: &dyn Fn() -> System,
    mem: &[(u64, usize)],
    skip: bool,
    trace: bool,
) {
    use duet_trace::TraceConfig;
    let deadline = Time::from_us(10_000);
    let label = format!("{name} skip={skip} trace={trace}");

    // Probe run: find the halt time so the checkpoint lands mid-run.
    let mut probe = build();
    probe.set_edge_skipping(skip);
    let halt = probe
        .run_until_halt(deadline)
        .unwrap_or_else(|e| panic!("{label}: probe run failed: {e}"));
    let mid = Time::from_ps(halt.as_ps() / 2);
    assert!(mid > Time::ZERO, "{label}: degenerate mid-point");
    drop(probe);

    // Reference: uninterrupted, tracing attached at the checkpoint time.
    let mut reference = build();
    reference.set_edge_skipping(skip);
    reference.run_until_time(mid);
    if trace {
        reference.enable_tracing(&TraceConfig::default());
    }
    let halt_a = reference
        .run_until_halt(deadline)
        .unwrap_or_else(|e| panic!("{label}: reference run failed: {e}"));
    let q_a = reference
        .quiesce(Time::from_us(11_000))
        .unwrap_or_else(|e| panic!("{label}: reference quiesce failed: {e}"));
    let fp_a = fingerprint(&reference, halt_a, q_a, mem);
    let metrics_a = per_run_metrics(&reference);
    let trace_a = reference.trace_text_log();

    // Checkpoint "process": run to the mid-point and serialize.
    let mut writer = build();
    writer.set_edge_skipping(skip);
    writer.run_until_time(mid);
    let snap = writer.snapshot();
    drop(writer);

    // Fresh "process": rebuild the same structure, restore, continue.
    let mut restored = build();
    restored.set_edge_skipping(skip);
    restored
        .restore(&snap)
        .unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
    if trace {
        restored.enable_tracing(&TraceConfig::default());
    }
    let halt_b = restored
        .run_until_halt(deadline)
        .unwrap_or_else(|e| panic!("{label}: restored run failed: {e}"));
    let q_b = restored
        .quiesce(Time::from_us(11_000))
        .unwrap_or_else(|e| panic!("{label}: restored quiesce failed: {e}"));
    let fp_b = fingerprint(&restored, halt_b, q_b, mem);

    assert_eq!(fp_a, fp_b, "{label}: fingerprint diverged after restore");
    assert_eq!(
        metrics_a,
        per_run_metrics(&restored),
        "{label}: metrics registry diverged after restore"
    );
    if trace {
        assert_eq!(
            trace_a,
            restored.trace_text_log(),
            "{label}: trace text log diverged after restore"
        );
    }
}

#[test]
fn midrun_snapshot_restore_continues_bit_identically() {
    // `build()` must construct the *identical* structure the snapshot
    // writer had (config, programs, accelerator design) — the restore
    // protocol rebuilds structure, snapshots carry only state.
    type Case<'a> = (&'a str, &'a dyn Fn() -> System, &'a [(u64, usize)]);
    let cases: [Case; 3] = [
        ("proc_only", &proc_only_system, &[(0x1000, 1), (0x2000, 1)]),
        ("duet", &duet_system, &[(0x2_0000, 1)]),
        ("fpsoc", &fpsoc_system, &[(0x4000, 1)]),
    ];
    for (name, build, mem) in cases {
        for skip in [false, true] {
            for trace in [false, true] {
                midrun_cell(name, build, mem, skip, trace);
            }
        }
    }
}

#[test]
fn restore_rejects_mismatched_structure() {
    use duet_sim::SnapError;
    // Snapshot of the Duet system (accelerator attached)...
    let mut writer = duet_system();
    writer.run_until_time(Time::from_ns(200));
    let snap = writer.snapshot();

    // ...must not load into a system built from a different config
    // (header hash mismatch fails before any section is read)...
    let mut wrong_cfg = proc_only_system();
    assert!(matches!(
        wrong_cfg.restore(&snap),
        Err(SnapError::ConfigHash { .. })
    ));

    // ...and truncated bytes fail loudly rather than half-loading.
    let mut target = duet_system();
    assert!(target.restore(&snap[..snap.len() - 1]).is_err());
}

#[test]
fn golden_fingerprints_match_pre_refactor_values() {
    let mut all = String::new();
    type Case = (
        &'static str,
        Box<dyn Fn() -> System>,
        &'static [(u64, usize)],
    );
    let cases: [Case; 3] = [
        (
            "proc_only",
            Box::new(proc_only_system),
            &[(0x1000, 1), (0x2000, 1)],
        ),
        ("duet", Box::new(duet_system), &[(0x2_0000, 1)]),
        ("fpsoc", Box::new(fpsoc_system), &[(0x4000, 1)]),
    ];
    for (name, build, mem) in &cases {
        for skip in [false, true] {
            let fp = run_fingerprint(build, skip, mem);
            all.push_str(&format!("=== {name} skip={} ===\n{fp}", skip as u8));
        }
    }
    if std::env::var("DUET_BLESS_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN_PATH, &all).unwrap();
        eprintln!("blessed golden fingerprints to {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; bless with DUET_BLESS_GOLDEN=1");
    assert_eq!(
        golden, all,
        "run fingerprints diverged from pre-refactor golden values"
    );
}
