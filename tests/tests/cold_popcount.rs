//! The paths a cold popcount job takes, each against an oracle.
//!
//! * Popcount's `awaits_input` attestation: at every slow edge where it
//!   holds and no fabric input is pending, one more tick changes neither
//!   the design nor the adapter's fabric links.
//! * Edge skipping with that gate: skip on and off agree on fingerprints
//!   and mid-run snapshot bytes for n = 1..8 on Duet and FPSoC, with a
//!   degrade-armed accelerator hang and with tracing on.
//! * The checker itself: after a passing run, corrupting any one output
//!   word makes `PopcountCheck::check` return false.
//! * A mid-run snapshot taken while a result waits in the register
//!   endpoint's outbox restores into a fresh system that finishes equal.
//! * `System::poke_bytes` writes the same memory image as one byte at a
//!   time, across line and home-shard boundaries.

use std::sync::Arc;

use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_fpga::ports::SoftAccelerator;
use duet_sim::{Snap, SnapReader, SnapWriter, Time};
use duet_system::{
    is_simulated_metric, DegradeConfig, FaultKind, FaultPlan, FaultSpec, System, SystemConfig,
};
use duet_trace::TraceConfig;
use duet_workloads::popcount::{self, PopcountAccel, PopcountCheck};
use duet_workloads::BenchVariant;

const ACCEL_VARIANTS: [BenchVariant; 2] = [BenchVariant::Duet, BenchVariant::Fpsoc];
const DEADLINE: Time = Time::from_us(2_000);

fn bytes_of(item: &dyn Snap) -> Vec<u8> {
    let mut w = SnapWriter::new();
    item.save(&mut w);
    w.finish()
}

/// A standalone copy of the system's popcount design, state included.
fn design_of(sys: &System, variant: BenchVariant) -> PopcountAccel {
    let accel = sys.accelerator().expect("popcount attached");
    let mut copy = PopcountAccel::new(variant.push_mode());
    let bytes = bytes_of(accel);
    let mut r = SnapReader::new(&bytes);
    copy.load(&mut r).expect("same design");
    r.expect_end().expect("whole state consumed");
    copy
}

/// Runs `sys` to halt and quiescence and returns everything observable:
/// times, every simulated counter, the outputs, the checker's verdict and
/// the final snapshot bytes.
fn finish(mut sys: System, check: &PopcountCheck, n: u64) -> (String, Vec<u8>) {
    let halt = sys
        .run_until_halt(DEADLINE)
        .unwrap_or_else(|e| panic!("{e}"));
    let quiesced = sys
        .quiesce(DEADLINE + Time::from_us(1_000))
        .unwrap_or_else(|e| panic!("{e}"));
    let mut s = format!(
        "halt={halt} quiesced={quiesced} correct={}\n",
        check.check(&sys)
    );
    for (name, value) in sys.metrics_registry().iter() {
        if is_simulated_metric(name) {
            s.push_str(&format!("{name}={value}\n"));
        }
    }
    let out = popcount::PopcountLayout::new(n).out;
    for k in 0..n {
        s.push_str(&format!("out[{k}]={}\n", sys.peek_u64(out + 8 * k)));
    }
    (s, sys.snapshot())
}

#[test]
fn a_tick_awaiting_input_changes_nothing() {
    for variant in ACCEL_VARIANTS {
        let (mut sys, check) = popcount::prepare(variant, 6, 42, FaultPlan::empty());
        sys.set_edge_skipping(false);
        let mut probed = 0;
        while !sys.all_halted() {
            let (now, domain) = sys.step_edge();
            assert!(
                now <= DEADLINE,
                "{}: no halt by the deadline",
                variant.label()
            );
            let quiet = sys.accelerator().is_some_and(|a| a.awaits_input())
                && !sys.adapter().fabric_input_pending();
            if !domain.slow() || !quiet {
                continue;
            }
            let mut design = design_of(&sys, variant);
            let mut adapter = sys.adapter().clone();
            let before = (bytes_of(&design), bytes_of(&adapter));
            design.tick(&mut adapter.fabric_ports(now));
            assert!(
                before == (bytes_of(&design), bytes_of(&adapter)),
                "{} at {now}: a tick awaiting input changed state",
                variant.label()
            );
            probed += 1;
        }
        assert!(
            probed > 10,
            "{}: only {probed} quiet slow edges",
            variant.label()
        );
        sys.quiesce(DEADLINE).unwrap_or_else(|e| panic!("{e}"));
        assert!(check.check(&sys), "{}: wrong counts", variant.label());
    }
}

/// Asserts that skip on and off agree on the snapshot at half the halt
/// time and on the finished run, and returns the finished fingerprint.
fn assert_skip_invisible(
    name: &str,
    build: &dyn Fn() -> (System, PopcountCheck),
    n: u64,
) -> String {
    let halt = build()
        .0
        .run_until_halt(DEADLINE)
        .unwrap_or_else(|e| panic!("{name}: probe run failed: {e}"));
    let [on, off] = [true, false].map(|skip| {
        let (mut sys, check) = build();
        sys.set_edge_skipping(skip);
        sys.run_until_time(Time::from_ps(halt.as_ps() / 2));
        let mid = sys.snapshot();
        (mid, finish(sys, &check, n))
    });
    assert!(
        on.0 == off.0,
        "{name}: mid-run snapshots differ with skip on and off"
    );
    assert_eq!(
        on.1 .0, off.1 .0,
        "{name}: fingerprints differ with skip on and off"
    );
    assert!(
        on.1 .1 == off.1 .1,
        "{name}: final snapshots differ with skip on and off"
    );
    on.1 .0
}

#[test]
fn skip_on_equals_skip_off_for_every_small_size() {
    for variant in ACCEL_VARIANTS {
        for n in 1..=8 {
            let name = format!("popcount/{} n={n}", variant.label());
            let fp = assert_skip_invisible(
                &name,
                &|| popcount::prepare(variant, n, 7 + n, FaultPlan::empty()),
                n,
            );
            assert!(fp.contains("correct=true"), "{name}: wrong counts");
        }
    }
}

#[test]
fn skip_on_equals_skip_off_under_a_degrade_armed_hang() {
    for variant in ACCEL_VARIANTS {
        for hang_ns in [0, 700, 1_500] {
            let name = format!("popcount/{} hang@{hang_ns}ns", variant.label());
            let plan = FaultPlan::empty()
                .with(FaultSpec::starting(
                    FaultKind::AccelHang,
                    Time::from_ns(hang_ns),
                ))
                .with_degrade(DegradeConfig {
                    fence_after: Time::from_us(2),
                });
            let fp = assert_skip_invisible(
                &name,
                &|| popcount::prepare(variant, 6, 42, plan.clone()),
                6,
            );
            assert!(
                fp.contains("verify.fences=1"),
                "{name}: the watchdog never fenced"
            );
        }
    }
}

#[test]
fn tracing_is_invisible_with_skip_on_and_off() {
    for variant in ACCEL_VARIANTS {
        let build = |trace: bool| {
            move || {
                let (mut sys, check) = popcount::prepare(variant, 6, 42, FaultPlan::empty());
                if trace {
                    sys.enable_tracing(&TraceConfig::default());
                }
                (sys, check)
            }
        };
        let name = format!("popcount/{}", variant.label());
        let plain = assert_skip_invisible(&name, &build(false), 6);
        let traced = assert_skip_invisible(&format!("{name} traced"), &build(true), 6);
        assert_eq!(plain, traced, "{name}: tracing changed the fingerprint");
    }
}

/// Stores `value` to `addr` from core 0 and runs the store to quiescence.
fn store_word(sys: &mut System, addr: u64, value: u64) {
    let mut a = Asm::new();
    a.label("main");
    a.li(regs::T[0], addr as i64);
    a.li(regs::T[1], value as i64);
    a.sd(regs::T[1], regs::T[0], 0);
    a.fence();
    a.halt();
    sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
    let now = sys.now();
    sys.run_until_halt(now + Time::from_us(100))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(now + Time::from_us(200))
        .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn the_checker_rejects_any_corrupted_output_word() {
    let n = 6;
    let out = popcount::PopcountLayout::new(n).out;
    for variant in [
        BenchVariant::ProcOnly,
        BenchVariant::Duet,
        BenchVariant::Fpsoc,
    ] {
        let (mut sys, check) = popcount::prepare(variant, n, 42, FaultPlan::empty());
        sys.run_until_halt(DEADLINE)
            .unwrap_or_else(|e| panic!("{e}"));
        sys.quiesce(DEADLINE).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            check.check(&sys),
            "{}: the clean run must pass",
            variant.label()
        );
        for k in 0..n {
            let addr = out + 8 * k;
            let mut corrupted = sys.fork();
            store_word(&mut corrupted, addr, sys.peek_u64(addr) ^ 1);
            assert!(
                !check.check(&corrupted),
                "{}: corrupting output word {k} went unnoticed",
                variant.label()
            );
        }
    }
}

/// One-vector popcount on FPSoC whose program writes the argument, then
/// counts to 400 before it reads the result: the count waits in the
/// register endpoint's outbox (normal registers answer reads only).
fn late_reader() -> (System, PopcountCheck) {
    let (mut sys, check) = popcount::prepare(BenchVariant::Fpsoc, 1, 42, FaultPlan::empty());
    let layout = popcount::PopcountLayout::new(1);
    let mmio = sys.config().mmio_base;
    let (arg, i, end) = (regs::T[0], regs::T[1], regs::T[2]);
    let mut a = Asm::new();
    a.label("main");
    a.li(arg, mmio as i64);
    a.li(i, layout.vectors as i64);
    a.sd(i, arg, 0);
    a.li(i, 0);
    a.li(end, 400);
    a.label("wait");
    a.addi(i, i, 1);
    a.blt(i, end, "wait");
    a.ld(i, arg, 8);
    a.li(end, layout.out as i64);
    a.sd(i, end, 0);
    a.fence();
    a.halt();
    sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
    (sys, check)
}

#[test]
fn snapshot_with_a_result_in_the_outbox_restores_equal() {
    let variant = BenchVariant::Fpsoc;
    let (mut sys, check) = late_reader();
    sys.set_edge_skipping(true);
    sys.run_until(DEADLINE, |s| {
        design_of(s, variant).regs().undelivered(1) > 0
    })
    .unwrap_or_else(|e| panic!("{e}"));
    let bytes = sys.snapshot();
    let (mut restored, _) = late_reader();
    restored.set_edge_skipping(true);
    restored.restore(&bytes).expect("same structure");
    assert!(!design_of(&restored, variant).regs().is_quiescent());
    let expected = finish(late_reader().0, &check, 1);
    assert!(expected.0.contains("correct=true"), "wrong count");
    assert_eq!(expected.0, finish(sys, &check, 1).0);
    let got = finish(restored, &check, 1);
    assert_eq!(expected.0, got.0, "the restored run finished differently");
    assert!(
        expected.1 == got.1,
        "the restored run's final snapshot differs"
    );
}

#[test]
fn poke_bytes_equals_one_byte_at_a_time() {
    // Spans that start and end mid-line and cover several lines, each
    // homed on a different L3 shard of a four-node system.
    let spans: [(u64, usize); 5] = [
        (0x1003, 1),
        (0x100f, 2),
        (0x2007, 45),
        (0x3000, 64),
        (0x40fd, 300),
    ];
    for (addr, len) in spans {
        let data: Vec<u8> = (0..len)
            .map(|k| (k as u8).wrapping_mul(29).wrapping_add(5))
            .collect();
        let fresh = || {
            let mut sys = System::new(SystemConfig::proc_only(4)).expect("valid config");
            sys.poke_bytes(addr - 32, &[0xA5; 16]);
            sys
        };
        let mut whole = fresh();
        whole.poke_bytes(addr, &data);
        let mut bytewise = fresh();
        for (k, &b) in data.iter().enumerate() {
            bytewise.poke_bytes(addr + k as u64, &[b]);
        }
        // The reference image of a window around the span.
        let (base, width) = (addr - 40, len + 80);
        let mut model = vec![0u8; width];
        model[8..24].fill(0xA5);
        model[40..40 + len].copy_from_slice(&data);
        assert_eq!(
            whole.peek_bytes_raw(base, width),
            model,
            "span {addr:#x}+{len}"
        );
        assert_eq!(
            bytewise.peek_bytes_raw(base, width),
            model,
            "span {addr:#x}+{len}"
        );
        assert!(
            whole.snapshot() == bytewise.snapshot(),
            "span {addr:#x}+{len}: images differ"
        );
    }
}
