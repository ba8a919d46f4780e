//! COW fork semantics: `System::fork()` must produce a child in the
//! identical simulated state while allocating only bookkeeping — backing
//! memory is shared page-grained copy-on-write, and pages privatize one at
//! a time as either side writes. The warmed 16×16-mesh probe here is the
//! acceptance criterion for "fork is O(dirty pages)".

use std::sync::Arc;

use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_sim::Time;
use duet_system::{System, SystemConfig};
use duet_workloads::popcount::PopcountAccel;

/// A 256-tile mesh with every core spinning over a private memory stripe,
/// plus a multi-megabyte pre-warmed data image.
fn warmed_16x16() -> System {
    let mut sys = System::new(SystemConfig::mesh_16x16()).expect("valid config");
    // Warm the backing store: 2 MiB of nonzero data. Lines interleave
    // across the 256 home shards, so every shard allocates backing pages
    // of its own (densely keyed: 8 KiB of this image per shard).
    let chunk: Vec<u8> = (0..4096u32).map(|i| (i * 131 + 17) as u8).collect();
    for k in 0..512u64 {
        sys.poke_bytes(0x10_0000 + k * 4096, &chunk);
    }
    let mut a = Asm::new();
    a.label("main");
    a.li(regs::T[1], 0);
    a.label("loop");
    a.sd(regs::T[1], regs::T[0], 0);
    a.ld(regs::T[2], regs::T[0], 0);
    a.addi(regs::T[1], regs::T[1], 1);
    a.slti(regs::T[3], regs::T[1], 6);
    a.bnez(regs::T[3], "loop");
    a.fence();
    a.halt();
    let prog = Arc::new(a.assemble().unwrap());
    for i in 0..sys.config().processors {
        sys.load_program(i, prog.clone(), "main");
        // Each core works a private stripe so the run itself only
        // dirties a bounded, contention-free page set.
        sys.core_mut(i)
            .set_reg(regs::T[0], 0x200_0000 + (i as u64) * 0x1000);
    }
    sys
}

#[test]
fn fork_of_warmed_mesh_allocates_only_dirty_pages() {
    let mut parent = warmed_16x16();
    parent.run_until_time(Time::from_ns(200));

    let (allocated, _) = parent.memory_pages();
    assert!(
        allocated >= 256,
        "warmup should allocate pages on every home shard, got {allocated}"
    );

    let child = parent.fork();

    // Identical simulated state...
    assert_eq!(
        parent.divergence_fingerprint(),
        child.divergence_fingerprint(),
        "fork must not perturb simulated state"
    );
    // ...with every backing page shared: neither side privately owns any.
    let (_, parent_owned) = parent.memory_pages();
    let (child_allocated, child_owned) = child.memory_pages();
    assert_eq!(child_allocated, allocated);
    assert_eq!(parent_owned, 0, "parent pages must all be shared post-fork");
    assert_eq!(child_owned, 0, "child pages must all be shared post-fork");

    // Writes privatize pages one at a time: dirtying 8 addresses on
    // distinct pages costs at most 8 owned pages, not a deep copy.
    let mut child = child;
    for k in 0..8u64 {
        child.poke_bytes(0x10_0000 + k * 4096, &[0xab; 8]);
    }
    let (_, child_owned) = child.memory_pages();
    assert!(
        (1..=8).contains(&child_owned),
        "expected <= 8 privately owned pages after 8 page writes, got {child_owned}"
    );
    let (_, parent_owned) = parent.memory_pages();
    assert!(
        parent_owned <= 8,
        "parent must own only the pages the child dirtied, got {parent_owned}"
    );
}

#[test]
fn forked_child_continues_identically_to_parent() {
    let mut parent = warmed_16x16();
    parent.run_until_time(Time::from_ns(100));
    let mut child = parent.fork();

    let deadline = Time::from_us(10_000);
    let halt_p = parent.run_until_halt(deadline).expect("parent halts");
    let halt_c = child.run_until_halt(deadline).expect("child halts");
    assert_eq!(halt_p, halt_c);
    assert_eq!(
        parent.divergence_fingerprint(),
        child.divergence_fingerprint(),
        "identically driven fork must stay bit-identical"
    );
}

/// A midrun snapshot of the warmed 16x16 mesh, with traffic in flight,
/// restores into a fresh system and continues bit-identically.
#[test]
fn midrun_snapshot_of_warmed_mesh_restores_bit_identically() {
    let mut live = warmed_16x16();
    let mut resumed = warmed_16x16();

    live.run_until_time(Time::from_ns(150));
    let snap = live.snapshot();
    resumed.restore(&snap).expect("midrun snapshot restores");
    assert_eq!(
        live.divergence_fingerprint(),
        resumed.divergence_fingerprint(),
        "restore must land in the identical simulated state"
    );

    let deadline = Time::from_us(10_000);
    let halt_live = live.run_until_halt(deadline).expect("live run halts");
    let halt_resumed = resumed.run_until_halt(deadline).expect("resumed run halts");
    assert_eq!(halt_live, halt_resumed);
    assert_eq!(
        live.divergence_fingerprint(),
        resumed.divergence_fingerprint(),
        "restored run must continue bit-identically"
    );
}

/// `fork()` drops the accelerator; `fork_with` carries its state into a
/// freshly built instance of the same design.
#[test]
fn fork_with_transfers_accelerator_state() {
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

    // Checkpoint in the middle of the accelerator's work.
    let halt_probe = {
        let mut probe = sys.fork_with(Box::new(PopcountAccel::new(true))).unwrap();
        probe.run_until_halt(Time::from_us(10_000)).expect("halts")
    };
    sys.run_until_time(Time::from_ps(halt_probe.as_ps() / 2));

    let mut child = sys
        .fork_with(Box::new(PopcountAccel::new(true)))
        .expect("same design forks");
    assert_eq!(sys.divergence_fingerprint(), child.divergence_fingerprint());

    let halt_p = sys.run_until_halt(Time::from_us(10_000)).expect("halts");
    let halt_c = child.run_until_halt(Time::from_us(10_000)).expect("halts");
    assert_eq!(halt_p, halt_c);
    assert_eq!(sys.divergence_fingerprint(), child.divergence_fingerprint());
    assert_eq!(sys.peek_u64(0x2_0000), child.peek_u64(0x2_0000));

    // fork() without an accelerator carries none.
    assert!(sys.fork().accelerator().is_none());
}
