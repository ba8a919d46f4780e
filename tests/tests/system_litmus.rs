//! Full-system litmus tests: memory-consistency and fault-containment
//! scenarios spanning cores, coherence, the NoC, and the Duet Adapter.

use std::sync::Arc;

use duet_core::RegMode;
use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_fpga::fabric::NetlistSummary;
use duet_fpga::ports::{FabricPorts, SoftAccelerator};
use duet_mem::types::Width;
use duet_sim::Time;
use duet_system::{System, SystemConfig};

/// Message-passing litmus: with a fence between data and flag stores, the
/// consumer must never observe the flag without the data, across many
/// iterations.
#[test]
fn message_passing_litmus_holds_repeatedly() {
    let iters = 24i64;
    let mut sys = System::new(SystemConfig::proc_only(2)).expect("valid config");
    // Producer: for each round, write data, fence, set flag = round.
    let mut a = Asm::new();
    a.label("producer");
    let (data, flag, i) = (regs::S[0], regs::S[1], regs::S[2]);
    a.li(data, 0x1000);
    a.li(flag, 0x2000);
    a.li(i, 1);
    a.label("p_loop");
    // data = i * 1000
    a.li(regs::T[0], 1000);
    a.mul(regs::T[1], i, regs::T[0]);
    a.sd(regs::T[1], data, 0);
    a.fence();
    a.sd(i, flag, 0);
    a.addi(i, i, 1);
    a.li(regs::T[2], iters + 1);
    a.blt(i, regs::T[2], "p_loop");
    a.halt();
    // Consumer: spin until flag == round, then data must be round*1000.
    a.label("consumer");
    a.li(data, 0x1000);
    a.li(flag, 0x2000);
    a.li(i, 1);
    a.li(regs::S[3], 0x3000); // violation counter
    a.label("c_loop");
    a.label("spin");
    a.ld(regs::T[0], flag, 0);
    a.blt(regs::T[0], i, "spin");
    a.ld(regs::T[1], data, 0);
    // expected >= i*1000 (producer may have advanced further)
    a.li(regs::T[2], 1000);
    a.mul(regs::T[3], i, regs::T[2]);
    a.bge(regs::T[1], regs::T[3], "ok");
    a.li(regs::T[4], 1);
    a.sd(regs::T[4], regs::S[3], 0); // record violation
    a.label("ok");
    a.addi(i, i, 1);
    a.li(regs::T[5], iters + 1);
    a.blt(i, regs::T[5], "c_loop");
    a.fence();
    a.halt();
    let prog = Arc::new(a.assemble().unwrap());
    sys.load_program(0, prog.clone(), "producer");
    sys.load_program(1, prog, "consumer");
    sys.run_until_halt(Time::from_us(10_000))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(Time::from_us(11_000))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(sys.peek_u64(0x3000), 0, "consumer saw flag before data");
}

/// A defective accelerator (misaligned request) must be contained: the
/// exception handler deactivates the hubs, an interrupt is raised, and the
/// processors keep running to completion.
struct RogueAccel {
    fired: bool,
}

duet_sim::snap_fields!(RogueAccel { fired });

impl SoftAccelerator for RogueAccel {
    fn name(&self) -> &str {
        "rogue"
    }

    fn tick(&mut self, ports: &mut FabricPorts<'_>) {
        let now = ports.now;
        if !self.fired && !ports.hubs.is_empty() {
            // Misaligned store: trips the exception handler's validation
            // (the RTL's parity-check stand-in).
            if ports.hubs[0].store(now, 1, 0x1003, Width::B8, 0xBAD) {
                self.fired = true;
            }
        }
    }

    fn netlist(&self) -> NetlistSummary {
        NetlistSummary {
            name: "rogue",
            luts: 10,
            ffs: 10,
            bram_kbits: 0,
            mults: 0,
            logic_levels: 1,
        }
    }
}

#[test]
fn faulty_accelerator_is_contained() {
    let mut sys = System::new(SystemConfig::dolly(1, 1, 100.0)).expect("valid config");
    sys.attach_accelerator(Box::new(RogueAccel { fired: false }));
    // The core runs a pure-memory workload, oblivious to the rogue fabric.
    let mut a = Asm::new();
    a.label("main");
    a.li(regs::T[0], 0x5000);
    a.li(regs::T[1], 0);
    a.label("loop");
    a.sd(regs::T[1], regs::T[0], 0);
    a.ld(regs::T[2], regs::T[0], 0);
    a.addi(regs::T[1], regs::T[1], 1);
    a.slti(regs::T[3], regs::T[1], 200);
    a.bnez(regs::T[3], "loop");
    a.fence();
    a.halt();
    sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
    sys.run_until_halt(Time::from_us(1_000))
        .unwrap_or_else(|e| panic!("{e}"));
    // Exception latched, hub deactivated, system alive.
    let hub = &sys.adapter().hubs[0];
    assert_ne!(hub.error_code(), 0, "exception must be latched");
    assert!(!hub.switches().active, "hub must be deactivated");
    assert_eq!(sys.peek_u64(0x5000), 199, "the core's work completed");
    assert!(sys.stats().exceptions >= 1, "OS observed the interrupt");
}

/// Deactivated soft-register interfaces return bogus data instead of
/// stalling the system (Sec. II-E).
#[test]
fn deactivated_interface_never_wedges_a_processor() {
    let mut sys = System::new(SystemConfig::dolly(1, 1, 100.0)).expect("valid config");
    sys.set_reg_mode(0, RegMode::CpuBound);
    // No accelerator attached and the interface switched off: a blocking
    // read would hang forever if deactivation didn't bypass it.
    let base = sys.config().mmio_base;
    {
        use duet_core::control_hub::mmio_map;
        use duet_mem::types::MemReq;
        let a = sys.adapter_mut();
        // Fire-and-forget setup write; the OS id space (top bits set)
        // marks responses the system should discard.
        a.mmio_request(
            Time::ZERO,
            MemReq::store(1 << 62, base + mmio_map::INTERFACE_ACTIVE, Width::B8, 0),
            0,
        );
    }
    let mut a = Asm::new();
    a.label("main");
    a.li(regs::T[0], base as i64);
    a.ld(regs::T[1], regs::T[0], 0); // would block if active
    a.li(regs::T[2], 0x6000);
    a.sd(regs::T[1], regs::T[2], 0);
    a.fence();
    a.halt();
    sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
    sys.run_until_halt(Time::from_us(500))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(Time::from_us(600))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        sys.peek_u64(0x6000),
        duet_core::BOGUS,
        "deactivated interface returns bogus data"
    );
}

/// Atomic fetch-and-add across four cores through the whole system stack
/// is exact under maximal contention.
#[test]
fn four_core_fetch_add_is_exact() {
    let mut sys = System::new(SystemConfig::proc_only(4)).expect("valid config");
    let mut a = Asm::new();
    a.label("main");
    a.li(regs::T[0], 0x7000);
    a.li(regs::S[0], 0);
    a.label("loop");
    a.li(regs::T[1], 1);
    a.amoadd(regs::T[2], regs::T[0], regs::T[1]);
    a.addi(regs::S[0], regs::S[0], 1);
    a.li(regs::T[3], 25);
    a.blt(regs::S[0], regs::T[3], "loop");
    a.halt();
    let prog = Arc::new(a.assemble().unwrap());
    for c in 0..4 {
        sys.load_program(c, prog.clone(), "main");
    }
    sys.run_until_halt(Time::from_us(5_000))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(Time::from_us(6_000))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(sys.peek_u64(0x7000), 100);
}
