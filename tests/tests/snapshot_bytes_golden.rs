//! Byte-level snapshot goldens: `(len, SnapHasher)` of mid-run
//! `System::snapshot()` buffers, the canonical config encodings, one
//! service cache key, and the result store's record-layout hash must stay
//! identical to the recorded values.
//!
//! The cases put every kind of serialized state on the wire: all three
//! system variants, an accelerator attached and in flight (popcount,
//! dijkstra with and without its soft cache, sort, the pdes scheduler), an
//! 8x8 hotspot with flits in the mesh, and a faulted run with an open
//! fault window, spent budgets, a fenced accelerator and a recorded
//! checker violation. Each snapshot is taken twice, with edge skipping on
//! and off, and the two buffers must be equal: a snapshot is a pure
//! function of simulated state.
//!
//! The config, cache-key and store-layout lines are encoded without a
//! snapshot header, so a format version bump must not move them: spec
//! canonical bytes are the service's cache key. A layout change that is
//! *meant* to alter the snapshot bytes must bump
//! `duet_sim::snapshot::FORMAT_VERSION` and re-bless:
//! `DUET_BLESS_GOLDEN=1 cargo test -p duet-tests --test
//! snapshot_bytes_golden` — and say so in the commit message.

use std::sync::Arc;

use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_serve::spec::{ScenarioSpec, WorkloadSpec};
use duet_sim::{SnapHasher, Time};
use duet_system::{DegradeConfig, FaultKind, FaultPlan, FaultSpec, System, SystemConfig};
use duet_workloads::common::BenchVariant;
use duet_workloads::{dijkstra, pdes, popcount, sort};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/snapshot_bytes_v2.txt");

fn digest(bytes: &[u8]) -> String {
    let mut h = SnapHasher::new();
    h.bytes(bytes);
    format!("len={} hash={:016x}", bytes.len(), h.finish())
}

/// Runs a freshly built system to `at` with edge skipping on and again
/// with it off, checks each with `check`, and returns the snapshot line
/// for `name` after asserting both snapshots are the same bytes.
fn snapshot_line(
    name: &str,
    build: &dyn Fn() -> System,
    at: Time,
    check: &dyn Fn(&System),
) -> String {
    let [on, off] = [true, false].map(|skip| {
        let mut sys = build();
        sys.set_edge_skipping(skip);
        sys.run_until_time(at);
        check(&sys);
        sys.snapshot()
    });
    assert!(
        on == off,
        "{name}: snapshot differs with edge skipping on ({}) and off ({})",
        digest(&on),
        digest(&off)
    );
    format!("snapshot {name}: {}\n", digest(&on))
}

/// The snapshot line of a system stopped at half its halt time.
fn midrun_line(name: &str, build: &dyn Fn() -> System) -> String {
    let halt = build()
        .run_until_halt(Time::from_us(400_000))
        .unwrap_or_else(|e| panic!("{name}: probe run failed: {e}"));
    snapshot_line(name, build, Time::from_ps(halt.as_ps() / 2), &|sys| {
        if let Some(a) = sys.accelerator() {
            assert!(!a.is_idle(), "accelerator must be in flight at mid-run");
        }
    })
}

/// Every core of an 8x8 mesh stores into one 4 KB hotspot.
fn hotspot_8x8() -> System {
    let mut sys = System::new(SystemConfig::mesh_8x8()).expect("valid config");
    let (addr, val, end) = (regs::T[0], regs::T[1], regs::T[2]);
    let mut a = Asm::new();
    a.label("main");
    a.coreid(val);
    a.addi(val, val, 1);
    a.li(addr, 0x20_0000);
    a.li(end, 0x20_1000);
    a.label("loop");
    a.sd(val, addr, 0);
    a.addi(addr, addr, 64);
    a.blt(addr, end, "loop");
    a.halt();
    let prog = Arc::new(a.assemble().unwrap());
    for i in 0..sys.config().processors {
        sys.load_program(i, prog.clone(), "main");
    }
    sys
}

/// Popcount on Duet under a plan that swaps deliveries at the core's node
/// and then wedges the accelerator until the watchdog fences it.
fn faulted_popcount() -> System {
    let plan = FaultPlan::empty()
        .with(FaultSpec::starting(
            FaultKind::NocReorder { node: 0, count: 2 },
            Time::from_ns(100),
        ))
        .with(FaultSpec::starting(
            FaultKind::AccelHang,
            Time::from_ns(1500),
        ))
        .with_degrade(DegradeConfig {
            fence_after: Time::from_us(2),
        });
    popcount::prepare(BenchVariant::Duet, 6, 42, plan).0
}

#[test]
fn snapshot_bytes_match_golden_with_skip_on_and_off() {
    let clean = FaultPlan::empty;
    type Case<'a> = (&'a str, &'a dyn Fn() -> System);
    let midrun: [Case; 8] = [
        ("popcount/proc-only", &|| {
            popcount::prepare(BenchVariant::ProcOnly, 6, 42, clean()).0
        }),
        ("popcount/duet", &|| {
            popcount::prepare(BenchVariant::Duet, 6, 42, clean()).0
        }),
        ("popcount/fpsoc", &|| {
            popcount::prepare(BenchVariant::Fpsoc, 6, 42, clean()).0
        }),
        ("dijkstra/duet (soft cache)", &|| {
            dijkstra::prepare(BenchVariant::Duet, 16, 2, 9).0
        }),
        ("dijkstra/fpsoc (direct)", &|| {
            dijkstra::prepare(BenchVariant::Fpsoc, 16, 2, 9).0
        }),
        ("sort/duet", &|| {
            sort::prepare(BenchVariant::Duet, 32, 128, 9).0
        }),
        ("pdes/duet", &|| {
            pdes::prepare(BenchVariant::Duet, 4, 6, 4, 7).0
        }),
        ("pdes/fpsoc", &|| {
            pdes::prepare(BenchVariant::Fpsoc, 2, 4, 3, 2).0
        }),
    ];
    let mut all = String::new();
    for (name, build) in midrun {
        all.push_str(&midrun_line(name, build));
    }
    all.push_str(&snapshot_line(
        "hotspot/8x8",
        &hotspot_8x8,
        Time::from_ns(400),
        &|sys| assert!(!sys.mesh().is_idle(), "hotspot must have flits in the mesh"),
    ));
    all.push_str(&snapshot_line(
        "popcount/duet faulted",
        &faulted_popcount,
        Time::from_us(6),
        &|sys| {
            let m = sys.metrics_registry();
            assert!(m.get("verify.faults_injected") >= Some(2));
            assert!(m.get("verify.fences") >= Some(1));
            assert!(m.get("verify.violations") >= Some(1));
        },
    ));

    for (name, cfg) in [
        ("dolly(2,1,189)", SystemConfig::dolly(2, 1, 189.0)),
        ("fpsoc(2,2,137)", SystemConfig::fpsoc(2, 2, 137.0)),
        ("proc_only(4)", SystemConfig::proc_only(4)),
    ] {
        all.push_str(&format!(
            "config {name}: {}\n",
            digest(&cfg.canonical_bytes())
        ));
    }

    let spec = ScenarioSpec {
        workload: WorkloadSpec::Popcount { n: 6, seed: 42 },
        variant: BenchVariant::Duet,
        faults: FaultPlan::empty().with(FaultSpec::starting(
            FaultKind::NocDrop { node: 2, count: 1 },
            Time::from_us(1),
        )),
        trace: false,
        max_sim_us: 10_000,
    };
    all.push_str(&format!("cache key: {}\n", spec.cache_key_hex()));
    all.push_str(&format!(
        "store layout hash: {:016x}\n",
        duet_serve::store::layout_hash()
    ));
    all.push_str(&format!(
        "format version: {}\n",
        duet_sim::snapshot::FORMAT_VERSION
    ));

    if std::env::var("DUET_BLESS_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(GOLDEN_PATH, &all).unwrap();
        eprintln!("blessed snapshot byte goldens to {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; bless with DUET_BLESS_GOLDEN=1");
    assert_eq!(
        golden, all,
        "snapshot bytes diverged from the golden values"
    );
}
