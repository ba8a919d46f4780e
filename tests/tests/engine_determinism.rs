//! Differential determinism: event-horizon scheduling (dead-edge
//! skipping and idle-component gating) must be cycle-for-cycle identical
//! to exhaustive edge-by-edge ticking — same halt time, same statistics
//! down to individual stall counters, same memory images.
//!
//! Each scenario builds the same system twice, runs one copy with
//! `set_edge_skipping(false)` (the exhaustive baseline) and one with the
//! default skipping enabled, and compares a full fingerprint.

use std::sync::Arc;

use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_sim::{DualClock, SimRng, Time};
use duet_system::{System, SystemConfig};
use duet_workloads::popcount::PopcountAccel;

/// Everything observable about a finished run, as one comparable string.
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
    if sys.config().has_fpga {
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
    // Per-link movement counters. `rejected_pushes` is deliberately
    // omitted: it counts *attempts*, and gated-off components never make
    // the attempts exhaustive ticking would (both outcomes are correct —
    // nothing moved either way).
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

/// Runs `build` twice (skipping off, then on) and asserts identical
/// fingerprints. `mem` lists (addr, word-count) ranges to compare.
fn assert_differential(
    build: impl Fn() -> System,
    halt_deadline: Time,
    quiesce_deadline: Time,
    mem: &[(u64, usize)],
) {
    let run = |skip: bool| {
        let mut sys = build();
        sys.set_edge_skipping(skip);
        let halt = sys
            .run_until_halt(halt_deadline)
            .unwrap_or_else(|e| panic!("{e}"));
        let quiesced = sys
            .quiesce(quiesce_deadline)
            .unwrap_or_else(|e| panic!("{e}"));
        fingerprint(&sys, halt, quiesced, mem)
    };
    let baseline = run(false);
    let skipping = run(true);
    assert_eq!(
        baseline, skipping,
        "event-horizon scheduling diverged from exhaustive ticking"
    );
}

/// Multi-core coherence with spin-waits: the producer/consumer pair spends
/// most edges stalled or spinning, so both the stall-reconstruction and
/// the dead-edge math are exercised hard.
#[test]
fn differential_message_passing_two_cores() {
    let build = || {
        let iters = 12i64;
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
        a.li(regs::S[3], 0x3000);
        a.label("spin");
        a.ld(regs::T[0], flag, 0);
        a.blt(regs::T[0], i, "spin");
        a.ld(regs::T[1], data, 0);
        a.li(regs::T[2], 1000);
        a.mul(regs::T[3], i, regs::T[2]);
        a.bge(regs::T[1], regs::T[3], "ok");
        a.li(regs::T[4], 1);
        a.sd(regs::T[4], regs::S[3], 0);
        a.label("ok");
        a.addi(i, i, 1);
        a.li(regs::T[5], iters + 1);
        a.blt(i, regs::T[5], "spin");
        a.fence();
        a.halt();
        let prog = Arc::new(a.assemble().unwrap());
        sys.load_program(0, prog.clone(), "producer");
        sys.load_program(1, prog, "consumer");
        sys
    };
    assert_differential(
        build,
        Time::from_us(10_000),
        Time::from_us(11_000),
        &[(0x1000, 1), (0x2000, 1), (0x3000, 1)],
    );
}

/// Four cores hammering one line with fetch-and-add: maximal coherence
/// contention, no idle phases — stresses the "nothing skippable" path and
/// the active-set bookkeeping under churn.
#[test]
fn differential_four_core_amoadd() {
    let build = || {
        let mut sys = System::new(SystemConfig::proc_only(4)).expect("valid config");
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
        let prog = Arc::new(a.assemble().unwrap());
        for c in 0..4 {
            sys.load_program(c, prog.clone(), "main");
        }
        sys
    };
    assert_differential(
        build,
        Time::from_us(5_000),
        Time::from_us(6_000),
        &[(0x7000, 1)],
    );
}

/// Four cores streaming stores over one shared region, with a one-deep
/// and the default four-deep store buffer: the cores spend most edges
/// retrying a store against the full buffer, the state in which they leave
/// the wake set and their stall cycles are settled from edge counts. Every
/// combination of edge skipping × simulation threads × a mid-run
/// snapshot/restore must agree on the full fingerprint, per-core
/// `mem_stall_cycles` included.
#[test]
fn differential_store_streams_sleeping_on_a_full_buffer() {
    use duet_cpu::Core;
    for store_buffer in [1, 4] {
        let build = |sim_threads: usize| {
            let mut cfg = SystemConfig::proc_only(4);
            cfg.sim_threads = sim_threads;
            let mut sys = System::new(cfg).expect("valid config");
            let (addr, val, end, pass) = (regs::T[0], regs::T[1], regs::T[2], regs::T[3]);
            let mut a = Asm::new();
            a.label("main");
            a.coreid(val);
            a.addi(val, val, 1);
            a.li(end, 0x9000 + 0x800);
            a.li(pass, 0);
            a.label("pass");
            a.li(addr, 0x9000);
            a.label("loop");
            a.sd(val, addr, 0);
            a.addi(addr, addr, 16);
            a.blt(addr, end, "loop");
            a.addi(pass, pass, 1);
            a.slti(regs::T[4], pass, 2);
            a.bnez(regs::T[4], "pass");
            a.halt();
            let prog = Arc::new(a.assemble().unwrap());
            for c in 0..4 {
                let mut cc = sys.config().core_config(c);
                cc.store_buffer = store_buffer;
                let mut core = Core::new(cc, prog.clone());
                core.set_pc_label("main");
                *sys.core_mut(c) = core;
            }
            sys
        };
        let (halt_by, quiesce_by) = (Time::from_us(5_000), Time::from_us(6_000));
        let finish = |mut sys: System| {
            let halt = sys
                .run_until_halt(halt_by)
                .unwrap_or_else(|e| panic!("{e}"));
            let quiesced = sys.quiesce(quiesce_by).unwrap_or_else(|e| panic!("{e}"));
            let stalls: Vec<u64> = (0..4)
                .map(|c| sys.core(c).stats().mem_stall_cycles)
                .collect();
            (
                fingerprint(&sys, halt, quiesced, &[(0x9000, 256)]),
                stalls,
                halt,
            )
        };
        let mut oracle = build(1);
        oracle.set_edge_skipping(false);
        let (baseline, stalls, halt) = finish(oracle);
        assert!(
            stalls.iter().all(|&s| s > 1000),
            "cores must actually stall on the store buffer: {stalls:?}"
        );
        let midpoint = Time::from_ps(halt.as_ps() / 2);
        for skip in [false, true] {
            for sim_threads in [1, 2] {
                for snapshot in [false, true] {
                    let mut sys = build(sim_threads);
                    sys.set_edge_skipping(skip);
                    if snapshot {
                        sys.run_until_time(midpoint);
                        let bytes = sys.snapshot();
                        sys = build(sim_threads);
                        sys.set_edge_skipping(skip);
                        sys.restore(&bytes).expect("self-restore");
                    }
                    let (fp, s, _) = finish(sys);
                    let cell = format!(
                        "store_buffer {store_buffer}, skip {skip}, {sim_threads} sim \
                         threads, snapshot {snapshot}"
                    );
                    assert_eq!(s, stalls, "per-core mem_stall_cycles differ: {cell}");
                    assert_eq!(fp, baseline, "fingerprint differs: {cell}");
                }
            }
        }
    }
}

/// Builds the quickstart-style popcount system: a Duet accelerator invoked
/// through shadow registers, reading a vector coherently via the Proxy
/// Cache. Exercises the adapter, slow clock domain, MMIO, and the
/// accelerator cap on edge skipping.
fn popcount_system(cfg: SystemConfig) -> System {
    use duet_core::RegMode;
    let mut sys = System::new(cfg).expect("valid config");
    let accel = PopcountAccel::new(true);
    sys.set_reg_mode(0, RegMode::FpgaBound);
    sys.set_reg_mode(1, RegMode::CpuBound);
    sys.attach_accelerator(Box::new(accel));
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

#[test]
fn differential_duet_accelerator_popcount() {
    assert_differential(
        || popcount_system(SystemConfig::dolly(1, 1, 189.0)),
        Time::from_us(1_000),
        Time::from_us(2_000),
        &[(0x2_0000, 1)],
    );
    // Sanity: the accelerated result is actually correct, not just equal.
    let mut sys = popcount_system(SystemConfig::dolly(1, 1, 189.0));
    sys.run_until_halt(Time::from_us(1_000))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(Time::from_us(2_000))
        .unwrap_or_else(|e| panic!("{e}"));
    let expected: u32 = (0..64u32).map(|i| ((i * 37 + 11) as u8).count_ones()).sum();
    assert_eq!(sys.peek_u64(0x2_0000), u64::from(expected));
}

/// FPSoC variant: slow-domain Memory Hubs behind CDC FIFOs. The hub clock
/// is deliberately an awkward ratio so fast/slow edges interleave
/// irregularly.
#[test]
fn differential_fpsoc_slow_hubs() {
    let build = || {
        let mut sys = System::new(SystemConfig::fpsoc(2, 1, 137.0)).expect("valid config");
        // Plain shared-memory workload; in FPSoC the hub path still ticks
        // every slow edge behind the CDC, capping the skip horizon.
        let mut a = Asm::new();
        a.label("main");
        a.li(regs::T[0], 0x4000);
        a.li(regs::T[1], 0);
        a.label("loop");
        a.sd(regs::T[1], regs::T[0], 0);
        a.ld(regs::T[2], regs::T[0], 0);
        a.addi(regs::T[1], regs::T[1], 1);
        a.slti(regs::T[3], regs::T[1], 60);
        a.bnez(regs::T[3], "loop");
        a.fence();
        a.halt();
        let prog = Arc::new(a.assemble().unwrap());
        sys.load_program(0, prog.clone(), "main");
        sys.load_program(1, prog, "main");
        sys
    };
    assert_differential(
        build,
        Time::from_us(1_000),
        Time::from_us(2_000),
        &[(0x4000, 1)],
    );
}

/// Property test for `DualClock::advance_to`: for random clock pairs and
/// random jump targets, one arithmetic jump must report exactly the edges
/// that cloned edge-by-edge stepping would execute, and leave the clock in
/// a state that generates the identical edge stream afterwards.
#[test]
fn advance_to_equals_stepping_randomized() {
    let mut rng = SimRng::new(0xE4E0);
    for case in 0..200 {
        let fast_mhz = 200.0 + (rng.next_u64() % 3800) as f64;
        let slow_mhz = 37.0 + (rng.next_u64() % 400) as f64;
        let mut dual = DualClock::new(
            duet_sim::Clock::from_mhz(fast_mhz),
            duet_sim::Clock::from_mhz(slow_mhz),
        );
        // Randomly pre-run a few edges so `started` state varies.
        for _ in 0..(rng.next_u64() % 4) {
            dual.next_edge();
        }
        let mut target = dual.now();
        for hop in 0..8 {
            target += Time::from_ps(1 + rng.next_u64() % 300_000);
            // Reference: step a clone edge by edge, counting edges
            // strictly before the target.
            let mut reference = dual.clone();
            let (mut fast, mut slow) = (0u64, 0u64);
            loop {
                let mut probe = reference.clone();
                let (t, d) = probe.next_edge();
                if t >= target {
                    break;
                }
                reference = probe;
                if d.fast() {
                    fast += 1;
                }
                if d.slow() {
                    slow += 1;
                }
            }
            let (jf, js) = dual.advance_to(target);
            assert_eq!(
                (jf, js),
                (fast, slow),
                "case {case} hop {hop}: skip counts diverged (fast {fast_mhz} MHz, slow {slow_mhz} MHz, target {target})"
            );
            // The edge streams must coincide from here on.
            for _ in 0..6 {
                assert_eq!(
                    reference.next_edge(),
                    dual.next_edge(),
                    "case {case} hop {hop}"
                );
            }
            target = dual.now();
        }
    }
}
