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

/// How the cores of a [`lock_counter`] program synchronize.
#[derive(Clone, Copy, Debug)]
enum SyncKind {
    Mcs,
    TestAndSet,
    SenseBarrier,
}

const COUNTER: u64 = 0x8100;
const BAD_ROUND: u64 = 0x8180;

/// `locks.rs`'s counter programs: every core bumps one shared counter
/// `rounds` times, either inside an MCS or test-and-set critical section,
/// or with an AMO followed by a sense-reversing barrier (after which the
/// counter must hold every core's bump of the round, else `BAD_ROUND` is
/// set). The MCS and barrier waits are `ld; branch` spins on L1-resident
/// data; the test-and-set lock backs off in counted loops instead.
fn lock_counter(sync: SyncKind, cores: usize, rounds: i64) -> System {
    use duet_workloads::locks::{barrier, mcs_acquire, mcs_release, spin_acquire, spin_release};
    let mut sys = System::new(SystemConfig::proc_only(cores)).expect("valid config");
    let (lock, node, counter, i) = (regs::S[0], regs::S[1], regs::S[2], regs::S[3]);
    let (t0, t1, t2) = (regs::T[0], regs::T[1], regs::T[2]);
    let mut a = Asm::new();
    a.label("main");
    a.li(lock, 0x8000);
    a.li(counter, COUNTER as i64);
    a.coreid(t0);
    a.slli(t0, t0, 6);
    a.li(node, 0x8200);
    a.add(node, node, t0); // MCS node / barrier sense register below
    a.li(regs::S[4], 0); // local sense
    a.li(i, 0);
    a.label("round");
    match sync {
        SyncKind::Mcs | SyncKind::TestAndSet => {
            if let SyncKind::Mcs = sync {
                mcs_acquire(&mut a, "l", lock, node, t0, t1);
            } else {
                spin_acquire(&mut a, "l", lock, t0);
            }
            a.ld(t2, counter, 0);
            a.addi(t2, t2, 1);
            a.sd(t2, counter, 0);
            if let SyncKind::Mcs = sync {
                mcs_release(&mut a, "l", lock, node, t0, t1);
            } else {
                spin_release(&mut a, lock);
            }
            a.addi(i, i, 1);
        }
        SyncKind::SenseBarrier => {
            a.li(t0, 1);
            a.amoadd(t0, counter, t0);
            barrier(&mut a, "b", lock, regs::S[4], cores as u64, t0, t1);
            a.addi(i, i, 1);
            a.ld(t2, counter, 0);
            a.li(t0, cores as i64);
            a.mul(t0, t0, i);
            a.bge(t2, t0, "round_ok");
            a.li(t0, 1);
            a.li(t1, BAD_ROUND as i64);
            a.sd(t0, t1, 0);
            a.label("round_ok");
        }
    }
    a.li(t0, rounds);
    a.blt(i, t0, "round");
    a.fence();
    a.halt();
    let prog = Arc::new(a.assemble().unwrap());
    for c in 0..cores {
        sys.load_program(c, prog.clone(), "main");
    }
    sys
}

/// `sys`'s state in a fresh system built with `sim_threads` simulation
/// threads, through a snapshot (the shard knobs are not part of the
/// config hash).
fn rebuilt(sys: &System, sim_threads: usize) -> System {
    let mut cfg = sys.config().clone();
    cfg.sim_threads = sim_threads;
    let mut out = System::new(cfg).expect("valid config");
    for c in 0..sys.config().processors {
        out.load_program(c, sys.core(c).program().clone(), "main");
    }
    out.restore(&sys.snapshot()).expect("same structure");
    out
}

/// Spinning cores sleep until an invalidation reaches their L1 and are
/// caught up arithmetically. On the MCS, test-and-set and sense-barrier
/// counters at 4 and 8 cores, and on the processor-only PDES and BFS
/// baselines (which serialize on MCS locks), every combination of edge
/// skipping × simulation threads × a mid-run snapshot/restore × stepping
/// through a `run_until` predicate (which settles sleeping spinners after
/// every executed edge) must match exhaustive ticking: the fingerprint and
/// every core's `instret`, `load_hits`, stalls and `L1Stats`.
#[test]
fn differential_spinning_cores_sleep_until_invalidated() {
    use duet_workloads::common::BenchVariant;
    use duet_workloads::{bfs, pdes};
    struct Case {
        name: String,
        build: Box<dyn Fn() -> System>,
        /// Memory to compare.
        mem: Vec<(u64, usize)>,
        /// Whether any core spins: the test-and-set lock backs off in
        /// counted loops, which never do.
        spins: bool,
    }
    let mut cases = Vec::new();
    for sync in [SyncKind::Mcs, SyncKind::TestAndSet, SyncKind::SenseBarrier] {
        for cores in [4, 8] {
            cases.push(Case {
                name: format!("{sync:?}/{cores}"),
                build: Box::new(move || lock_counter(sync, cores, 6)),
                mem: vec![(COUNTER, 1), (BAD_ROUND, 1)],
                spins: !matches!(sync, SyncKind::TestAndSet),
            });
        }
    }
    let dist = bfs::BfsLayout::new().dist;
    let out = pdes::PdesLayout::new().out;
    cases.push(Case {
        name: "pdes-8/proc-only".into(),
        build: Box::new(|| pdes::prepare(BenchVariant::ProcOnly, 8, 4, 3, 5).0),
        mem: vec![(out, 8)],
        spins: true,
    });
    cases.push(Case {
        name: "bfs-8/proc-only".into(),
        build: Box::new(|| bfs::prepare(BenchVariant::ProcOnly, 8, 40, 3, 5).0),
        mem: vec![(dist, 20)],
        spins: true,
    });
    let (halt_by, quiesce_by) = (Time::from_us(20_000), Time::from_us(21_000));
    for Case {
        name,
        build,
        mem,
        spins,
    } in &cases
    {
        let cores = build().config().processors;
        let finish = |mut sys: System, stepped: bool| {
            let mut spun = false;
            let halt = if stepped {
                sys.run_until(halt_by, |s| {
                    spun |= (0..cores).any(|c| s.core(c).is_spinning());
                    s.all_halted()
                })
            } else {
                sys.run_until_halt(halt_by)
            }
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            let quiesced = sys
                .quiesce(quiesce_by)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let per_core: Vec<String> = (0..cores)
                .map(|c| {
                    let (s, l1) = (sys.core(c).stats(), sys.core(c).l1_stats());
                    format!(
                        "instret={} load_hits={} stalls={} {l1:?}",
                        s.instret, s.load_hits, s.mem_stall_cycles
                    )
                })
                .collect();
            (fingerprint(&sys, halt, quiesced, mem), per_core, halt, spun)
        };
        let mut oracle = build();
        oracle.set_edge_skipping(false);
        let (baseline, cores_baseline, halt, _) = finish(oracle, false);
        if mem[0].0 == COUNTER {
            let total = format!("m[{COUNTER:#x}]={:#x}\n", cores * 6);
            let early = format!("m[{BAD_ROUND:#x}]=0x0\n");
            assert!(baseline.contains(&total), "{name}: lost an increment");
            assert!(baseline.contains(&early), "{name}: a barrier let a core by");
        }
        let midpoint = Time::from_ps(halt.as_ps() / 2);
        for skip in [false, true] {
            for sim_threads in [1, 2] {
                for snapshot in [false, true] {
                    for stepped in [false, true] {
                        let mut sys = rebuilt(&build(), sim_threads);
                        sys.set_edge_skipping(skip);
                        if snapshot {
                            sys.run_until_time(midpoint);
                            sys = rebuilt(&sys, sim_threads);
                            sys.set_edge_skipping(skip);
                        }
                        let (fp, per_core, _, spun) = finish(sys, stepped);
                        let cell = format!(
                            "{name}: skip {skip}, {sim_threads} sim threads, snapshot \
                             {snapshot}, stepped {stepped}"
                        );
                        assert_eq!(per_core, cores_baseline, "per-core counters: {cell}");
                        assert_eq!(fp, baseline, "fingerprint: {cell}");
                        if skip && stepped {
                            assert_eq!(spun, *spins, "a core slept on a spin: {cell}");
                        }
                    }
                }
            }
        }
    }
}

/// A core spinning on a flag nobody sets runs into the deadline. The stall
/// snapshot in the error reads every core's next event, so a core asleep
/// on the spin is woken first: the report equals the exhaustive loop's.
#[test]
fn deadlocked_spinner_reports_as_if_ticked() {
    let report = |skip: bool| {
        let mut sys = System::new(SystemConfig::proc_only(2)).expect("valid config");
        let mut a = Asm::new();
        a.label("main");
        a.li(regs::T[0], 0x3000);
        a.label("spin");
        a.ld(regs::T[1], regs::T[0], 0);
        a.beqz(regs::T[1], "spin");
        a.halt();
        sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
        sys.set_edge_skipping(skip);
        let e = sys
            .run_until_halt(Time::from_us(20))
            .expect_err("nobody sets the flag");
        let spinner = e.snapshot().components.iter().find(|c| c.name == "core0");
        assert!(
            spinner.is_some_and(|c| c.next_event_ps.is_some()),
            "the spinner must be reported with its next issue: {e:?}"
        );
        (
            format!("{e:?}"),
            sys.core(0).stats(),
            sys.core(0).l1_stats(),
        )
    };
    let (exhaustive, skipping) = (report(false), report(true));
    assert_eq!(format!("{exhaustive:?}"), format!("{skipping:?}"));
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
