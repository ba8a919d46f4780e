//! Hostile input to the whole snapshot decoder stack: `System::restore`
//! over truncated and bit-flipped buffers must come back with `Ok` or a
//! typed `SnapError` — never a panic, an overflow or a runaway allocation.
//! One test reaches every generated and every hand-written `unpack`/`load`,
//! because a restore walks all of them.
//!
//! The second test is the benign direction: for each accelerator that can
//! be stopped mid-run, restoring a snapshot into a freshly built system and
//! snapshotting again must reproduce the bytes exactly, so every `load` is
//! the inverse of its `save`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use duet_sim::{SimRng, Time};
use duet_system::{FaultPlan, System};
use duet_workloads::common::BenchVariant;
use duet_workloads::{dijkstra, pdes, popcount, sort};

fn popcount_duet() -> System {
    popcount::prepare(BenchVariant::Duet, 6, 42, FaultPlan::empty()).0
}

fn midrun(build: &dyn Fn() -> System) -> Vec<u8> {
    let halt = build()
        .run_until_halt(Time::from_us(400_000))
        .unwrap_or_else(|e| panic!("probe run failed: {e}"));
    let mut sys = build();
    sys.run_until_time(Time::from_ps(halt.as_ps() / 2));
    sys.snapshot()
}

#[test]
fn restore_of_damaged_snapshots_never_panics() {
    let good = midrun(&popcount_duet);
    let mut rng = SimRng::new(0x5eed_0012);
    let mut typed_errors = 0;
    for case in 0..400 {
        let pos = rng.gen_range(0..good.len() as u64) as usize;
        let damaged = if case % 2 == 0 {
            good[..pos].to_vec()
        } else {
            let mut b = good.clone();
            b[pos] ^= 1 << rng.gen_range(0..8);
            b
        };
        let mut target = popcount_duet();
        let outcome = catch_unwind(AssertUnwindSafe(|| target.restore(&damaged)));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(_)) => typed_errors += 1,
            Err(_) => panic!(
                "restore panicked on case {case} ({} at byte {pos} of {})",
                if case % 2 == 0 {
                    "truncated"
                } else {
                    "bit flip"
                },
                good.len()
            ),
        }
    }
    // Every truncation must be caught; most flips land in data and load.
    assert!(typed_errors >= 200, "only {typed_errors} typed errors");

    // The classic overflow probe: `u64::MAX` as the length of every
    // top-level section (header is magic + version + config hash = 20
    // bytes; each section is a 4-byte tag, a `u64` length, then the body),
    // and at a stride through the bodies, where it lands on nested
    // lengths, counts and plain data alike.
    let mut plant_at = Vec::new();
    let mut at = 20;
    while at + 12 <= good.len() {
        plant_at.push(at + 4);
        let len = u64::from_le_bytes(good[at + 4..at + 12].try_into().unwrap());
        at += 12 + len as usize;
    }
    assert_eq!(at, good.len(), "section walk must end exactly at the end");
    plant_at.extend((20..good.len() - 8).step_by(97));
    for pos in plant_at {
        let mut b = good.clone();
        b[pos..pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut target = popcount_duet();
        assert!(
            catch_unwind(AssertUnwindSafe(|| target.restore(&b))).is_ok(),
            "restore panicked with u64::MAX planted at byte {pos}"
        );
    }
}

#[test]
fn restore_then_snapshot_reproduces_the_bytes() {
    type Case<'a> = (&'a str, &'a dyn Fn() -> System);
    let cases: [Case; 6] = [
        ("popcount/duet", &popcount_duet),
        ("popcount/fpsoc", &|| {
            popcount::prepare(BenchVariant::Fpsoc, 6, 42, FaultPlan::empty()).0
        }),
        ("dijkstra/duet", &|| {
            dijkstra::prepare(BenchVariant::Duet, 16, 2, 9).0
        }),
        ("dijkstra/fpsoc", &|| {
            dijkstra::prepare(BenchVariant::Fpsoc, 16, 2, 9).0
        }),
        ("sort/duet", &|| {
            sort::prepare(BenchVariant::Duet, 32, 128, 9).0
        }),
        ("pdes/duet", &|| {
            pdes::prepare(BenchVariant::Duet, 4, 6, 4, 7).0
        }),
    ];
    for (name, build) in cases {
        let snap = midrun(build);
        let mut fresh = build();
        fresh
            .restore(&snap)
            .unwrap_or_else(|e| panic!("{name}: restore failed: {e}"));
        assert!(
            fresh.snapshot() == snap,
            "{name}: restore + snapshot changed the bytes"
        );
    }
}
