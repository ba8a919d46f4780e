//! Tracing must be an observer, never a participant: enabling the event
//! trace cannot change a single simulated cycle, and the exported Chrome
//! JSON must be structurally valid with the expected tracks and flow
//! arrows.
//!
//! The differential test runs the same scenario across the full
//! {trace off, trace on} × {edge-skip off, edge-skip on} matrix and
//! requires all four fingerprints to be bit-identical, and each traced
//! cell's text log to come out the same when the cell is run again.

use std::sync::Arc;

use duet_core::RegMode;
use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_serve::json::{parse as parse_json, Json};
use duet_sim::Time;
use duet_system::{is_simulated_metric, FaultPlan, System, SystemConfig};
use duet_trace::{export, masks, pack_hop, pack_noc, EventKind, TraceConfig, TraceEvent};
use duet_workloads::popcount::PopcountAccel;
use duet_workloads::BenchVariant;

/// Everything observable about a finished run, as one comparable string.
/// Uses the unified metrics registry, so every counter in the simulator
/// participates except the host-side ones [`is_simulated_metric`] drops.
fn fingerprint(sys: &System, halt: Time, quiesced: Time, mem: &[(u64, usize)]) -> String {
    let mut s = format!("halt={halt} quiesced={quiesced} now={}\n", sys.now());
    // executed_edges counts only non-skipped edges and rejected pushes
    // count attempts — both vary by design across skip modes.
    for (name, value) in sys.metrics_registry().iter() {
        if is_simulated_metric(name) {
            s.push_str(&format!("{name}={value}\n"));
        }
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

/// A small two-core producer/consumer over shared memory: exercises the
/// NoC, the private caches, and the directory without needing the slow
/// clock domain.
fn two_core_system() -> System {
    let mut sys = System::new(SystemConfig::proc_only(2)).expect("valid config");
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
    let prog = Arc::new(a.assemble().unwrap());
    sys.load_program(0, prog.clone(), "producer");
    sys.load_program(1, prog, "consumer");
    sys
}

/// Producer/consumer over twelve rounds on two cores: long spin phases,
/// so skip gating, stall reconstruction and spin sleep all run traced.
fn message_passing_system() -> System {
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
}

/// Four cores hammering one line with fetch-and-add: maximal coherence
/// contention, no idle phases.
fn amoadd_system() -> System {
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
}

/// FPSoC variant on two cores: slow-domain hubs behind CDC FIFOs at an
/// awkward clock ratio.
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
    a.slti(regs::T[3], regs::T[1], 60);
    a.bnez(regs::T[3], "loop");
    a.fence();
    a.halt();
    let prog = Arc::new(a.assemble().unwrap());
    sys.load_program(0, prog.clone(), "main");
    sys.load_program(1, prog, "main");
    sys
}

/// The quickstart-style popcount system: accelerator through shadow
/// registers and the Proxy Cache — covers the adapter, CDC, slow domain,
/// and accelerator trace hooks.
fn popcount_system() -> System {
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

/// Runs `build` across the {trace, skip} matrix and asserts all four
/// fingerprints are bit-identical, and that each traced cell renders the
/// same text log when run a second time.
fn assert_trace_invisible(build: impl Fn() -> System, deadline: Time, mem: &[(u64, usize)]) {
    let run = |trace: bool, skip: bool| {
        let mut sys = build();
        if trace {
            sys.enable_tracing(&TraceConfig::default());
        }
        sys.set_edge_skipping(skip);
        let halt = sys
            .run_until_halt(deadline)
            .unwrap_or_else(|e| panic!("{e}"));
        let quiesced = sys
            .quiesce(deadline + Time::from_us(1_000))
            .unwrap_or_else(|e| panic!("{e}"));
        (fingerprint(&sys, halt, quiesced, mem), sys.trace_text_log())
    };
    let (baseline, _) = run(false, false);
    for (trace, skip) in [(false, true), (true, false), (true, true)] {
        let (fp, log) = run(trace, skip);
        assert_eq!(
            baseline, fp,
            "fingerprint diverged at trace={trace} skip={skip}"
        );
        if trace {
            assert!(log.is_some(), "tracing produced no log (skip={skip})");
            assert_eq!(
                log,
                run(trace, skip).1,
                "trace text log differs between identical runs (skip={skip})"
            );
        }
    }
}

/// The processor-only and FPSoC core workloads: the two-core hand-off,
/// twelve-round message passing, the FPSoC slow hubs, and four-core
/// fetch-and-add contention.
#[test]
fn differential_trace_onoff_skip_onoff_two_cores() {
    assert_trace_invisible(
        two_core_system,
        Time::from_us(5_000),
        &[(0x1000, 1), (0x2000, 1), (0x3000, 1)],
    );
    assert_trace_invisible(
        message_passing_system,
        Time::from_us(10_000),
        &[(0x1000, 1), (0x2000, 1), (0x3000, 1)],
    );
    assert_trace_invisible(fpsoc_system, Time::from_us(1_000), &[(0x4000, 1)]);
    assert_trace_invisible(amoadd_system, Time::from_us(5_000), &[(0x7000, 1)]);
}

#[test]
fn differential_trace_onoff_skip_onoff_popcount_accel() {
    assert_trace_invisible(popcount_system, Time::from_us(1_000), &[(0x2_0000, 1)]);
}

/// The exporter's string escaping survives a real JSON parser: component
/// names with quotes, backslashes and control characters come back
/// unchanged as track names, next to slices and flow arrows.
/// `System::metrics_registry` pushes names in visit order and sorts once;
/// the sort's `debug_assert` (on in test builds) fails on a duplicate name.
/// On a processor-only system, a Duet popcount mid-run and the 16x16 mesh
/// the names must come out strictly increasing, with every link report
/// under `link.<name>.*`.
#[test]
fn metrics_registry_names_are_unique_and_sorted() {
    let mut duet =
        duet_workloads::popcount::prepare(BenchVariant::Duet, 6, 42, FaultPlan::empty()).0;
    duet.run_until_time(Time::from_us(2));
    let systems = [
        System::new(SystemConfig::proc_only(4)).expect("valid config"),
        duet,
        System::new(SystemConfig::mesh_16x16()).expect("valid config"),
    ];
    for sys in systems {
        let reg = sys.metrics_registry();
        let names: Vec<&str> = reg.iter().map(|(k, _)| k).collect();
        assert!(
            names.windows(2).all(|w| w[0] < w[1]),
            "names not strictly sorted"
        );
        let links = sys.link_reports();
        assert_eq!(reg.with_prefix("link").count(), 4 * links.len());
        for (name, report) in links {
            let get = |field: &str| reg.get(&format!("link.{name}.{field}"));
            assert_eq!(get("pushes"), Some(report.stats.pushes), "{name}");
            assert_eq!(get("pops"), Some(report.stats.pops), "{name}");
            assert_eq!(get("rejected_pushes"), Some(report.stats.rejected_pushes));
            assert_eq!(
                get("peak_occupancy"),
                Some(report.stats.peak_occupancy as u64)
            );
        }
        assert_eq!(reg.get("run.sim_ps"), Some(sys.now().as_ps()));
    }
}

/// A registry is a function of its own system: running a different system
/// in the same process afterwards changes none of the first one's
/// entries, the first one's registry equals that of the same run repeated
/// on its own, and no entry is process-wide.
#[test]
fn a_registry_describes_only_its_own_system() {
    let popcount = || {
        let mut sys =
            duet_workloads::popcount::prepare(BenchVariant::Duet, 6, 42, FaultPlan::empty()).0;
        sys.run_until_halt(Time::from_us(2_000))
            .unwrap_or_else(|e| panic!("{e}"));
        sys.quiesce(Time::from_us(2_100))
            .unwrap_or_else(|e| panic!("{e}"));
        sys
    };
    let a = popcount();
    let before = a.metrics_registry().to_string();

    // System B: four processor-only cores stream stores over one region.
    let mut b = System::new(SystemConfig::proc_only(4)).expect("valid config");
    let mut asm = Asm::new();
    asm.label("main");
    asm.li(regs::T[0], 0x9000);
    asm.li(regs::T[2], 0x9000 + 0x400);
    asm.label("loop");
    asm.sd(regs::T[1], regs::T[0], 0);
    asm.addi(regs::T[0], regs::T[0], 16);
    asm.blt(regs::T[0], regs::T[2], "loop");
    asm.fence();
    asm.halt();
    let prog = Arc::new(asm.assemble().unwrap());
    for c in 0..4 {
        b.load_program(c, prog.clone(), "main");
    }
    b.run_until_halt(Time::from_us(2_000))
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(b.stats().fast_edges > 0, "system B ran");

    assert_eq!(
        a.metrics_registry().to_string(),
        before,
        "running system B changed system A's registry"
    );
    assert_eq!(
        popcount().metrics_registry().to_string(),
        before,
        "a repeated run of A reports differently"
    );
    assert!(
        a.metrics_registry()
            .iter()
            .all(|(k, _)| !k.starts_with("process.")),
        "a registry holds a process-wide entry"
    );
}

#[test]
fn chrome_json_escapes_component_names() {
    let names = vec![
        "runloop".to_string(),
        "weird\"name\\".to_string(),
        "tab\tand\u{1}ctl".to_string(),
    ];
    let ev = |ts_ps, comp, kind: EventKind, a, b| TraceEvent {
        ts_ps,
        comp,
        kind: kind as u8,
        a,
        b,
    };
    let events = [
        ev(1000, 0, EventKind::EdgeFast, 1, 0),
        ev(1000, 1, EventKind::NocInject, 42, pack_noc(0, 3, 0, 2)),
        ev(2000, 1, EventKind::NocRoute, 42, pack_hop(0, 2, 0)),
        ev(3000, 2, EventKind::NocEject, 42, pack_noc(0, 3, 0, 2)),
    ];
    for evs in [&events[..], &[]] {
        let out = export::chrome_trace(evs, &names, 0);
        let doc = parse_json(out.as_bytes()).expect("chrome trace must be valid JSON");
        let records = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        let tracks: Vec<&str> = records
            .iter()
            .filter(|r| r.get("name").and_then(Json::as_str) == Some("thread_name"))
            .filter_map(|r| r.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(tracks, names.iter().map(String::as_str).collect::<Vec<_>>());
        // The process name and one record per track, then one slice per
        // event plus one flow record per NoC event.
        let flows = evs
            .iter()
            .filter(|e| e.kind != EventKind::EdgeFast as u8)
            .count();
        assert_eq!(records.len(), 1 + names.len() + evs.len() + flows);
    }
}

/// Golden structural checks on the Chrome JSON from a tiny two-node run:
/// parses, names its per-component tracks, and carries at least one full
/// inject→eject flow arrow across the NoC.
#[test]
fn chrome_json_golden_tiny_two_node_run() {
    let mut sys = two_core_system();
    sys.enable_tracing(&TraceConfig::default());
    sys.run_until_halt(Time::from_us(5_000))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(Time::from_us(6_000))
        .unwrap_or_else(|e| panic!("{e}"));

    let json = sys.trace_chrome_json().expect("tracing enabled");
    parse_json(json.as_bytes()).expect("chrome trace must be valid JSON");

    // Golden header: exact process-metadata record (nothing dropped on a
    // run this small, the ring holds 1 Mi events).
    assert!(json.starts_with(
        "{\"traceEvents\":[\n{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"duet-sim (dropped_events=0)\"}}"
    ));
    // Per-component tracks, in canonical registration order: runloop is
    // component 0, mesh component 1, then the L2s and L3 shards.
    for (tid, track) in [(0, "runloop"), (1, "mesh"), (2, "l2@n0"), (3, "l2@n1")] {
        assert!(
            json.contains(&format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{track}\"}}}}"
            )),
            "missing track {track}"
        );
    }
    // Flow arrows: start at inject, finish at eject, same transaction id.
    assert!(json.contains("\"ph\":\"s\""), "missing flow start");
    assert!(json.contains("\"ph\":\"t\""), "missing flow step");
    assert!(json.contains("\"ph\":\"f\""), "missing flow finish");

    // The text log and scoreboard views of the same session agree.
    let log = sys.trace_text_log().expect("tracing enabled");
    assert!(log.contains("0 dropped"));
    assert!(log.contains("mesh"));
    let sb = sys.trace_scoreboard().expect("tracing enabled");
    let scored: u64 = sb.noc_latency.iter().map(|h| h.count()).sum();
    assert!(scored > 0, "no inject→eject pairs scored");
    assert!(
        !sb.mesi_transitions.is_empty(),
        "no MESI transitions scored"
    );

    // Event-level sanity: the session saw coherence traffic.
    let session = sys.trace_session().expect("tracing enabled");
    let events = session.events();
    assert!(events
        .iter()
        .any(|e| e.kind == EventKind::MesiTransition as u8));
    assert!(events.iter().any(|e| e.kind == EventKind::NocInject as u8));
    assert_eq!(session.dropped(), 0);
}

/// The mask narrows what is captured without touching simulation state.
#[test]
fn mask_restricts_captured_kinds() {
    let mut sys = two_core_system();
    sys.enable_tracing(&TraceConfig::default().with_mask(masks::NOC));
    sys.run_until_halt(Time::from_us(5_000))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(Time::from_us(6_000))
        .unwrap_or_else(|e| panic!("{e}"));
    let events = sys.trace_session().expect("tracing enabled").events();
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| {
        matches!(
            EventKind::from_u8(e.kind),
            Some(EventKind::NocInject | EventKind::NocRoute | EventKind::NocEject)
        )
    }));
}
