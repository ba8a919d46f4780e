//! The fault-injection matrix: every `FaultKind` crossed with
//! {edge-skip off/on} × {trace off/on}.
//!
//! Three properties per row:
//!
//! 1. **Checker-fires-or-recovery** — every injected fault ends in one of
//!    the structured outcomes (a completed run with correct memory, a
//!    graceful fence + software-visible error status, or a `RunError`
//!    carrying a stall snapshot / violation). Never a panic, never silent
//!    corruption.
//! 2. **Mode invariance** — the faulted run's full fingerprint (outcome,
//!    metrics registry, observed memory) is bit-identical across all four
//!    {skip, trace} cells. Faults are pure functions of simulated time, so
//!    the optimizer and the tracer must both be invisible to them.
//! 3. **Determinism** — re-running the same plan yields a byte-identical
//!    fingerprint.
//!
//! Plus the no-fault guarantees: an empty/never-active plan (checkers
//! still live) leaves the fingerprint bit-identical to a plain run, and
//! `FaultPlan::randomized` is reproducible from its seed. The `--ignored`
//! soak test drives the randomized plans across the committed seed list
//! (`fault_soak_seeds.txt`) — CI runs it and archives the report.

use std::sync::Arc;

use duet_core::{control_hub::error_codes, RegMode, BOGUS};
use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_sim::Time;
use duet_system::{
    is_simulated_metric, DegradeConfig, FaultKind, FaultPlan, FaultSpec, RunError, System,
    SystemConfig,
};
use duet_trace::TraceConfig;
use duet_workloads::popcount::PopcountAccel;

/// Expected bytes at 0x2_0000 after the popcount scenario completes
/// normally: the popcount of the `(i * 37 + 11)` test vector.
const POPCOUNT_EXPECTED: u64 = 256;

/// What a faulted run is allowed to end as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    /// `run_until_halt` returned `Ok` and memory checks passed.
    Completed,
    /// `Ok`, but the driver saw the BOGUS error status (fenced design).
    Degraded,
    /// `RunError::Deadlock`.
    Deadlock,
    /// `RunError::ProtocolViolation`.
    Violation,
}

/// One run under a plan: outcome + full comparable fingerprint. The
/// fingerprint folds in the outcome (including the complete `RunError`
/// rendering), the metrics registry minus the counters that legitimately
/// differ across modes, and the observed memory words.
fn run_cell(
    build: &dyn Fn() -> System,
    deadline: Time,
    mem: &[(u64, usize)],
    skip: bool,
    trace: bool,
) -> (Outcome, String) {
    let mut sys = build();
    sys.set_edge_skipping(skip);
    if trace {
        sys.enable_tracing(&TraceConfig::default());
    }
    let result = sys.run_until_halt(deadline);
    let mut fp = String::new();
    let outcome = match &result {
        Ok(halt) => {
            let quiesced = sys
                .quiesce(deadline + Time::from_us(1_000))
                .unwrap_or_else(|e| panic!("halted run must quiesce: {e}"));
            fp.push_str(&format!("outcome=ok halt={halt} quiesced={quiesced}\n"));
            if sys.accel_fenced() {
                Outcome::Degraded
            } else {
                Outcome::Completed
            }
        }
        Err(e) => {
            fp.push_str(&format!("outcome=err\n{e}\n"));
            match e {
                RunError::Deadlock { .. } => Outcome::Deadlock,
                RunError::ProtocolViolation { .. } => Outcome::Violation,
            }
        }
    };
    // Rejected pushes count *attempts* (retries differ while a frozen link
    // is polled) and executed_edges counts only non-skipped edges — both
    // vary by design across modes.
    for (name, value) in sys.metrics_registry().iter() {
        if is_simulated_metric(name) {
            fp.push_str(&format!("{name}={value}\n"));
        }
    }
    for &(addr, words) in mem {
        for k in 0..words as u64 {
            fp.push_str(&format!(
                "m[{:#x}]={:#x}\n",
                addr + 8 * k,
                sys.peek_u64(addr + 8 * k)
            ));
        }
    }
    (outcome, fp)
}

/// Runs the {skip, trace} matrix for one plan and asserts all four cells
/// agree bit-for-bit, then re-runs the first cell to pin same-plan
/// determinism. Returns the common outcome and the baseline fingerprint.
fn run_matrix(
    label: &str,
    build: &dyn Fn() -> System,
    deadline: Time,
    mem: &[(u64, usize)],
) -> (Outcome, String) {
    let (outcome, baseline) = run_cell(build, deadline, mem, false, false);
    for (skip, trace) in [(true, false), (false, true), (true, true)] {
        let (o, fp) = run_cell(build, deadline, mem, skip, trace);
        assert_eq!(
            outcome, o,
            "{label}: outcome changed at skip={skip} trace={trace}"
        );
        assert_eq!(
            baseline, fp,
            "{label}: fingerprint diverged at skip={skip} trace={trace}"
        );
    }
    let (_, again) = run_cell(build, deadline, mem, false, false);
    assert_eq!(
        baseline, again,
        "{label}: same-plan rerun not byte-identical"
    );
    (outcome, baseline)
}

// ----- scenarios -----

/// Two cores, producer/consumer over shared memory: all NoC and L3 faults
/// land on real coherence traffic.
fn two_core_system(faults: FaultPlan) -> System {
    let mut cfg = SystemConfig::proc_only(2);
    cfg.faults = faults;
    let mut sys = System::new(cfg).expect("valid config");
    let mut a = Asm::new();
    a.label("producer");
    a.li(regs::T[0], 0x1000);
    a.li(regs::T[1], 0xBEEF);
    a.sd(regs::T[1], regs::T[0], 0);
    a.fence();
    a.li(regs::T[2], 0x2000);
    a.li(regs::T[3], 1);
    a.sd(regs::T[3], regs::T[2], 0);
    a.halt();
    a.label("consumer");
    a.li(regs::T[0], 0x2000);
    a.label("spin");
    a.ld(regs::T[1], regs::T[0], 0);
    a.beqz(regs::T[1], "spin");
    a.li(regs::T[2], 0x1000);
    a.ld(regs::T[3], regs::T[2], 0);
    a.li(regs::T[4], 0x3000);
    a.sd(regs::T[3], regs::T[4], 0);
    a.fence();
    a.halt();
    let prog = Arc::new(a.assemble().expect("static program"));
    sys.load_program(0, prog.clone(), "producer");
    sys.load_program(1, prog, "consumer");
    sys
}

/// Memory checks for the two-core scenario after a completed run.
const TWO_CORE_MEM: &[(u64, usize)] = &[(0x1000, 1), (0x2000, 1), (0x3000, 1)];

/// Four cores adding 1 to one word 15 times each: faults land on contended
/// traffic from several cores at once.
fn amoadd_system(faults: FaultPlan) -> System {
    let mut cfg = SystemConfig::proc_only(4);
    cfg.faults = faults;
    let mut sys = System::new(cfg).expect("valid config");
    let mut a = Asm::new();
    a.label("main");
    a.li(regs::T[0], 0x7000);
    a.li(regs::S[0], 0);
    a.label("loop");
    a.li(regs::T[1], 1);
    a.amoadd(regs::T[2], regs::T[0], regs::T[1]);
    a.addi(regs::S[0], regs::S[0], 1);
    a.li(regs::T[3], 15);
    a.blt(regs::S[0], regs::T[3], "loop");
    a.halt();
    let prog = Arc::new(a.assemble().expect("static program"));
    for c in 0..4 {
        sys.load_program(c, prog.clone(), "main");
    }
    sys
}

/// The quickstart popcount on Dolly-P1M1: accelerator, CDC, and slow
/// domain — the target for `accel_hang` and `cdc_freeze`.
fn popcount_system(faults: FaultPlan) -> System {
    let mut cfg = SystemConfig::dolly(1, 1, 189.0);
    cfg.faults = faults;
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
    sys
}

fn window(kind: FaultKind, from_us: u64, until_us: u64) -> FaultSpec {
    FaultSpec {
        kind,
        from: Time::from_us(from_us),
        until: Time::from_us(until_us),
    }
}

// ----- the matrix, one row per fault kind -----

#[test]
fn accel_hang_with_degradation_recovers() {
    let plan = FaultPlan::empty()
        .with(FaultSpec::starting(FaultKind::AccelHang, Time::from_us(0)))
        .with_degrade(DegradeConfig {
            fence_after: Time::from_us(20),
        });
    let build = move || popcount_system(plan.clone());
    let (outcome, _) = run_matrix(
        "accel_hang+degrade",
        &build,
        Time::from_us(300),
        &[(0x2_0000, 1)],
    );
    assert_eq!(outcome, Outcome::Degraded);
    // The driver observed the fence as a data value, not a crash.
    let mut sys = build();
    sys.run_until_halt(Time::from_us(300))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(sys.peek_u64(0x2_0000), BOGUS);
    assert!(sys.faults_injected() >= 1);
    assert_eq!(sys.checker_violations(), 0);
    assert_eq!(
        sys.adapter().control.error_code(),
        error_codes::ACCEL_FENCED
    );
}

#[test]
fn accel_hang_without_degradation_deadlocks_with_named_snapshot() {
    let plan = FaultPlan::empty().with(FaultSpec::starting(FaultKind::AccelHang, Time::from_us(0)));
    let build = move || popcount_system(plan.clone());
    let (outcome, fp) = run_matrix("accel_hang", &build, Time::from_us(300), &[]);
    assert_eq!(outcome, Outcome::Deadlock);
    assert!(
        fp.contains("accelerator `popcount`"),
        "stall snapshot must name the hung accelerator:\n{fp}"
    );
}

#[test]
fn cdc_freeze_window_delays_but_completes() {
    let plan = FaultPlan::empty().with(window(FaultKind::CdcFreeze { hub: 0 }, 0, 50));
    let build = move || popcount_system(plan.clone());
    let (outcome, _) = run_matrix("cdc_freeze", &build, Time::from_us(300), &[(0x2_0000, 1)]);
    assert_eq!(outcome, Outcome::Completed);
    let mut sys = build();
    sys.run_until_halt(Time::from_us(300))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(sys.peek_u64(0x2_0000), POPCOUNT_EXPECTED);
    assert_eq!(sys.checker_violations(), 0);
}

#[test]
fn noc_delay_window_delays_but_completes() {
    let plan = FaultPlan::empty().with(window(FaultKind::NocDelay { node: 0 }, 0, 20));
    let build = move || two_core_system(plan.clone());
    let (outcome, fp) = run_matrix("noc_delay", &build, Time::from_us(1_000), TWO_CORE_MEM);
    assert_eq!(outcome, Outcome::Completed);
    assert!(
        fp.contains("m[0x3000]=0xbeef"),
        "payload must arrive:\n{fp}"
    );
}

/// A reorder alone on the two-core hand-off, and mixed with the other
/// budgeted and windowed kinds on four-core fetch-and-add: NoC delay +
/// reorder + drop, and NoC delay + L3 stall + reorder + L3 drop.
#[test]
fn noc_reorder_checker_fires_or_recovers() {
    let reorder =
        FaultPlan::empty().with(window(FaultKind::NocReorder { node: 1, count: 1 }, 0, 200));
    let noc_mix = FaultPlan::empty()
        .with(window(FaultKind::NocDelay { node: 0 }, 0, 20))
        .with(window(FaultKind::NocReorder { node: 2, count: 1 }, 0, 200))
        .with(window(FaultKind::NocDrop { node: 3, count: 1 }, 0, 100));
    let l3_mix = FaultPlan::empty()
        .with(window(FaultKind::NocDelay { node: 0 }, 0, 20))
        .with(window(FaultKind::L3RespStall { node: 1 }, 10, 40))
        .with(window(FaultKind::NocReorder { node: 2, count: 1 }, 0, 200))
        .with(window(FaultKind::L3RespDrop { node: 3, count: 1 }, 0, 100));
    type Case = (
        &'static str,
        Box<dyn Fn() -> System>,
        u64,
        &'static [(u64, usize)],
        &'static str,
    );
    let cases: [Case; 3] = [
        (
            "noc_reorder",
            Box::new(move || two_core_system(reorder.clone())),
            300,
            TWO_CORE_MEM,
            "m[0x3000]=0xbeef",
        ),
        (
            "amoadd+noc_mix",
            Box::new(move || amoadd_system(noc_mix.clone())),
            1_000,
            &[(0x7000, 1)],
            "m[0x7000]=0x3c",
        ),
        (
            "amoadd+l3_mix",
            Box::new(move || amoadd_system(l3_mix.clone())),
            1_000,
            &[(0x7000, 1)],
            "m[0x7000]=0x3c",
        ),
    ];
    for (label, build, deadline_us, mem, payload) in &cases {
        let (outcome, fp) = run_matrix(label, build, Time::from_us(*deadline_us), mem);
        // Swapping adjacent deliveries either trips a checker, wedges the
        // blocking protocol, or (both messages on unrelated flows) is
        // absorbed. Whatever happens must be structured and mode-invariant;
        // on recovery the memory image must still be correct.
        if outcome == Outcome::Completed {
            assert!(fp.contains(payload), "{label}: silent corruption:\n{fp}");
        } else {
            assert!(matches!(outcome, Outcome::Deadlock | Outcome::Violation));
        }
    }
}

#[test]
fn noc_drop_is_caught_not_silent() {
    let plan = FaultPlan::empty().with(FaultSpec::starting(
        FaultKind::NocDrop { node: 1, count: 1 },
        Time::from_us(0),
    ));
    let build = move || two_core_system(plan.clone());
    let (outcome, fp) = run_matrix("noc_drop", &build, Time::from_us(300), &[]);
    assert!(
        matches!(outcome, Outcome::Deadlock | Outcome::Violation),
        "a dropped message in a blocking protocol must surface, got {outcome:?}:\n{fp}"
    );
}

#[test]
fn l3_stall_window_delays_but_completes() {
    let plan = FaultPlan::empty().with(window(FaultKind::L3RespStall { node: 0 }, 0, 20));
    let build = move || two_core_system(plan.clone());
    let (outcome, fp) = run_matrix("l3_stall", &build, Time::from_us(1_000), TWO_CORE_MEM);
    assert_eq!(outcome, Outcome::Completed);
    assert!(
        fp.contains("m[0x3000]=0xbeef"),
        "payload must arrive:\n{fp}"
    );
}

#[test]
fn l3_drop_is_caught_not_silent() {
    let plan = FaultPlan::empty().with(FaultSpec::starting(
        FaultKind::L3RespDrop { node: 0, count: 1 },
        Time::from_us(0),
    ));
    let build = move || two_core_system(plan.clone());
    let (outcome, fp) = run_matrix("l3_drop", &build, Time::from_us(300), &[]);
    assert!(
        matches!(outcome, Outcome::Deadlock | Outcome::Violation),
        "a dropped directory response must surface, got {outcome:?}:\n{fp}"
    );
}

// ----- no-fault guarantees -----

/// A plan that schedules nothing active before the deadline — and the
/// always-on checkers — must leave every fingerprint bit-identical to a
/// plain run.
#[test]
fn inactive_plan_and_checkers_are_invisible() {
    let deadline = Time::from_us(300);
    let (o0, fp0) = run_cell(
        &|| popcount_system(FaultPlan::empty()),
        deadline,
        &[(0x2_0000, 1)],
        true,
        false,
    );
    assert_eq!(o0, Outcome::Completed);
    // Empty plan, degrade-only plan, and a window that opens long after
    // the run finishes: all three must be invisible.
    let degrade_only = FaultPlan::empty().with_degrade(DegradeConfig {
        fence_after: Time::from_us(50),
    });
    let never_active = FaultPlan::empty().with(FaultSpec::starting(
        FaultKind::AccelHang,
        Time::from_us(10_000),
    ));
    for (label, plan) in [
        ("degrade-only", degrade_only),
        ("never-active", never_active),
    ] {
        let (o, fp) = run_cell(
            &move || popcount_system(plan.clone()),
            deadline,
            &[(0x2_0000, 1)],
            true,
            false,
        );
        assert_eq!(o0, o, "{label}: outcome changed");
        assert_eq!(fp0, fp, "{label}: fingerprint changed");
    }
    assert!(fp0.contains(&format!("m[0x20000]={POPCOUNT_EXPECTED:#x}")));
}

/// Graceful degradation is contained: while core 0's accelerator hangs
/// and gets fenced, a second core running independent software on the
/// same mesh must produce byte-identical results to the fault-free run.
#[test]
fn degradation_leaves_nonfaulted_core_identical() {
    let build = |faults: FaultPlan| {
        let mut cfg = SystemConfig::dolly(2, 1, 189.0);
        cfg.faults = faults;
        let mut sys = System::new(cfg).expect("valid config");
        sys.set_reg_mode(0, RegMode::FpgaBound);
        sys.set_reg_mode(1, RegMode::CpuBound);
        sys.attach_accelerator(Box::new(PopcountAccel::new(true)));
        let vec_addr = 0x1_0000u64;
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        sys.poke_bytes(vec_addr, &data);
        let mmio = sys.config().mmio_base;
        let mut a = Asm::new();
        // Core 0: drive the accelerator (the faulted half).
        a.label("driver");
        a.li(regs::T[0], mmio as i64);
        a.li(regs::T[1], vec_addr as i64);
        a.sd(regs::T[1], regs::T[0], 0);
        a.ld(regs::T[2], regs::T[0], 8);
        a.li(regs::T[3], 0x2_0000);
        a.sd(regs::T[2], regs::T[3], 0);
        a.fence();
        a.halt();
        // Core 1: pure-software running sum over its own region — never
        // touches the adapter or core 0's lines.
        a.label("bystander");
        a.li(regs::S[0], 0x8_0000);
        a.li(regs::S[1], 0);
        a.li(regs::S[2], 0);
        a.label("acc");
        a.add(regs::S[1], regs::S[1], regs::S[2]);
        a.sd(regs::S[1], regs::S[0], 0);
        a.addi(regs::S[0], regs::S[0], 8);
        a.addi(regs::S[2], regs::S[2], 1);
        a.li(regs::T[5], 64);
        a.blt(regs::S[2], regs::T[5], "acc");
        a.fence();
        a.halt();
        let prog = Arc::new(a.assemble().expect("static program"));
        sys.load_program(0, prog.clone(), "driver");
        sys.load_program(1, prog, "bystander");
        sys
    };
    let bystander_mem: Vec<(u64, usize)> = vec![(0x8_0000, 64)];
    let run = |faults: FaultPlan| -> (Outcome, String) {
        let (outcome, fp) = run_cell(
            &move || build(faults.clone()),
            Time::from_us(300),
            &bystander_mem,
            true,
            false,
        );
        // Only the bystander's memory image is the comparable portion:
        // timing-coupled counters legitimately shift when the adapter
        // traffic disappears.
        let mem_only: String = fp
            .lines()
            .filter(|l| l.starts_with("m["))
            .collect::<Vec<_>>()
            .join("\n");
        (outcome, mem_only)
    };
    let (clean_outcome, clean_mem) = run(FaultPlan::empty());
    assert_eq!(clean_outcome, Outcome::Completed);
    let hang = FaultPlan::empty()
        .with(FaultSpec::starting(FaultKind::AccelHang, Time::from_us(0)))
        .with_degrade(DegradeConfig {
            fence_after: Time::from_us(20),
        });
    let (faulted_outcome, faulted_mem) = run(hang);
    assert_eq!(faulted_outcome, Outcome::Degraded);
    assert_eq!(
        clean_mem, faulted_mem,
        "the non-faulted core's results must be identical to the fault-free run"
    );
}

/// Time-travel debugging for faulted runs: checkpoint periodically while
/// a fault plan drives the run toward its structured failure, rewind a
/// *fresh* system to the checkpoint preceding the failure, and replay.
/// The replay must reproduce the identical failure — same `RunError`
/// rendering (stall snapshot included), same state fingerprint, same
/// metrics — even though the replaying system never executed the first
/// two-thirds of the run.
///
/// (No plan in the matrix trips a runtime checker deterministically —
/// reorder swaps are absorbed or wedge the blocking protocol first — so
/// the cell pins the deadlock-with-named-snapshot failure, which carries
/// the checkers' verdict inside its rendering.)
#[test]
fn replay_from_checkpoint_preceding_failure_reproduces_it() {
    let plan = FaultPlan::empty().with(FaultSpec::starting(
        FaultKind::NocDrop { node: 1, count: 1 },
        Time::from_us(0),
    ));
    let deadline = Time::from_us(300);
    let build = move || two_core_system(plan.clone());

    // Reference: straight run into the structured failure.
    let mut reference = build();
    let ref_err = reference
        .run_until_halt(deadline)
        .expect_err("a dropped message in a blocking protocol must surface");
    let ref_fp = reference.divergence_fingerprint();

    // Checkpointed run: snapshot every 100 µs. The wedged clock still
    // advances, so every boundary before the deadline is reached; the
    // last snapshot (200 µs) is the checkpoint preceding the failure.
    let mut sys = build();
    let mut checkpoint: Option<(Time, Vec<u8>)> = None;
    for us in [100u64, 200] {
        let boundary = Time::from_us(us);
        sys.run_until_time(boundary);
        checkpoint = Some((boundary, sys.snapshot()));
    }
    let (at, bytes) = checkpoint.expect("checkpoints taken");
    assert_eq!(at, Time::from_us(200));

    // Rewind a fresh system to the pre-failure checkpoint and replay.
    let mut replay = build();
    replay.restore(&bytes).expect("restore own snapshot");
    let replay_err = replay
        .run_until_halt(deadline)
        .expect_err("replay must hit the same failure");
    assert_eq!(
        format!("{ref_err}"),
        format!("{replay_err}"),
        "replayed failure must render identically (stall snapshot and all)"
    );
    assert_eq!(
        ref_fp,
        replay.divergence_fingerprint(),
        "replayed system must land in the identical state"
    );
    // Host counters differ by design: the replay executed only the edges
    // after the checkpoint.
    let metrics = |s: &System| {
        s.metrics_registry()
            .iter()
            .filter(|(k, _)| *k != "run.executed_edges")
            .map(|(k, v)| format!("{k}={v}\n"))
            .collect::<String>()
    };
    assert_eq!(metrics(&reference), metrics(&replay));
}

/// `FaultPlan::randomized` is a pure function of its seed tuple.
#[test]
fn randomized_plans_are_reproducible() {
    for seed in [1u64, 7, 42, 0xDEAD] {
        let a = FaultPlan::randomized(seed, 2, 1, Time::from_us(100));
        let b = FaultPlan::randomized(seed, 2, 1, Time::from_us(100));
        assert_eq!(a.specs, b.specs, "seed {seed} not reproducible");
        assert!(!a.specs.is_empty());
    }
}

// ----- randomized soak (CI runs with --ignored and archives the report) -----

/// Drives the committed seed list (`fault_soak_seeds.txt`) through
/// randomized plans on both scenarios. Every run must end in a structured
/// outcome and be identical across edge-skip modes; the per-seed report
/// goes to `$DUET_SOAK_REPORT` when set.
#[test]
#[ignore = "soak: run explicitly (CI fault-soak job) with --ignored"]
fn randomized_seed_soak() {
    let seeds_path = concat!(env!("CARGO_MANIFEST_DIR"), "/fault_soak_seeds.txt");
    let seeds: Vec<u64> = std::fs::read_to_string(seeds_path)
        .expect("committed seed list")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().expect("seed lines are u64"))
        .collect();
    assert!(!seeds.is_empty(), "empty seed list");

    let mut report = String::from("seed scenario outcome\n");
    for &seed in &seeds {
        let horizon = Time::from_us(100);
        for scenario in ["two_core", "popcount"] {
            let build = move || match scenario {
                "two_core" => two_core_system(FaultPlan::randomized(seed, 2, 0, horizon)),
                _ => popcount_system(FaultPlan::randomized(seed, 2, 1, horizon)),
            };
            let (o_skip, fp_skip) = run_cell(&build, Time::from_us(500), &[], true, false);
            let (o_full, fp_full) = run_cell(&build, Time::from_us(500), &[], false, false);
            assert_eq!(
                o_skip, o_full,
                "seed {seed} {scenario}: outcome differs across skip modes"
            );
            assert_eq!(
                fp_skip, fp_full,
                "seed {seed} {scenario}: fingerprint differs across skip modes"
            );
            report.push_str(&format!("{seed} {scenario} {o_skip:?}\n"));
        }
    }
    println!("{report}");
    if let Ok(path) = std::env::var("DUET_SOAK_REPORT") {
        if !path.is_empty() {
            std::fs::write(&path, &report).expect("writing soak report");
            println!("soak report written to {path}");
        }
    }
}
