//! End-to-end tests of fabric-initiated atomics (Sec. II-C: the Proxy
//! Cache "can be configured ... to enable atomic operations which require
//! the soft cache to support incrementally more message types"): an
//! accelerator and processors increment the same counter coherently.

use std::sync::Arc;

use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_fpga::fabric::NetlistSummary;
use duet_fpga::ports::{FabricPorts, FpgaRespKind, SoftAccelerator};
use duet_mem::types::{AmoOp, Width};
use duet_sim::Time;
use duet_system::{System, SystemConfig};

/// Increments a shared counter `n` times through hub atomics, recording
/// the old values it observes.
struct AtomicIncrementer {
    addr: u64,
    remaining: u32,
    inflight: bool,
    observed: Vec<u64>,
}

// `addr` is configuration.
duet_sim::snap_fields!(AtomicIncrementer {
    remaining,
    inflight,
    observed
});

impl SoftAccelerator for AtomicIncrementer {
    fn name(&self) -> &str {
        "atomic-incrementer"
    }

    fn tick(&mut self, ports: &mut FabricPorts<'_>) {
        let now = ports.now;
        while let Some(resp) = ports.hubs[0].pop_resp(now) {
            if let FpgaRespKind::StoreAck { old } = resp.kind {
                self.observed.push(old);
                self.inflight = false;
            }
        }
        if !self.inflight
            && self.remaining > 0
            && ports.hubs[0].amo(now, 1, AmoOp::Add, self.addr, Width::B8, 1, 0)
        {
            self.inflight = true;
            self.remaining -= 1;
        }
    }

    fn netlist(&self) -> NetlistSummary {
        NetlistSummary {
            name: "atomic-incrementer",
            luts: 100,
            ffs: 100,
            bram_kbits: 0,
            mults: 0,
            logic_levels: 2,
        }
    }
}

#[test]
fn fabric_and_processors_share_an_atomic_counter() {
    let addr = 0x9000u64;
    let accel_incs = 20u32;
    let core_incs = 25i64;
    let cores = 2usize;
    let mut sys = System::new(SystemConfig::dolly(cores, 1, 150.0)).expect("valid config");
    sys.attach_accelerator(Box::new(AtomicIncrementer {
        addr,
        remaining: accel_incs,
        inflight: false,
        observed: Vec::new(),
    }));
    let mut a = Asm::new();
    a.label("main");
    a.li(regs::T[0], addr as i64);
    a.li(regs::S[0], 0);
    a.label("loop");
    a.li(regs::T[1], 1);
    a.amoadd(regs::T[2], regs::T[0], regs::T[1]);
    a.addi(regs::S[0], regs::S[0], 1);
    a.li(regs::T[3], core_incs);
    a.blt(regs::S[0], regs::T[3], "loop");
    a.halt();
    let prog = Arc::new(a.assemble().unwrap());
    for c in 0..cores {
        sys.load_program(c, prog.clone(), "main");
    }
    sys.run_until_halt(Time::from_us(5_000))
        .unwrap_or_else(|e| panic!("{e}"));
    // Let the accelerator finish its remaining increments.
    let deadline = sys.now() + Time::from_us(200);
    while sys.now() < deadline {
        sys.step_edge();
    }
    sys.quiesce(Time::from_us(10_000))
        .unwrap_or_else(|e| panic!("{e}"));
    let expected = u64::from(accel_incs) + (core_incs as u64) * cores as u64;
    assert_eq!(
        sys.peek_u64(addr),
        expected,
        "fabric + processor atomics must serialize exactly"
    );
}

#[test]
fn fabric_amo_returns_strictly_increasing_old_values_without_contention() {
    // Single-agent case: the old values the fabric observes must be
    // 0, 1, 2, ... — each AMO is a full serialized round trip.
    let addr = 0xA000u64;
    let mut sys = System::new(SystemConfig::dolly(1, 1, 100.0)).expect("valid config");
    sys.attach_accelerator(Box::new(AtomicIncrementer {
        addr,
        remaining: 10,
        inflight: false,
        observed: Vec::new(),
    }));
    let mut a = Asm::new();
    a.label("main");
    a.halt();
    sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
    sys.run_until_halt(Time::from_us(10))
        .unwrap_or_else(|e| panic!("{e}"));
    let deadline = sys.now() + Time::from_us(100);
    while sys.now() < deadline {
        sys.step_edge();
    }
    sys.quiesce(Time::from_us(1_000))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(sys.peek_u64(addr), 10);
}

#[test]
fn amo_feature_switch_blocks_fabric_atomics_system_wide() {
    let mut sys = System::new(SystemConfig::dolly(1, 1, 100.0)).expect("valid config");
    {
        let a = sys.adapter_mut();
        let mut sw = a.hubs[0].switches();
        sw.atomics = false;
        a.hubs[0].set_switches(sw);
    }
    sys.attach_accelerator(Box::new(AtomicIncrementer {
        addr: 0xB000,
        remaining: 5,
        inflight: false,
        observed: Vec::new(),
    }));
    let mut a = Asm::new();
    a.label("main");
    a.halt();
    sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
    sys.run_until_halt(Time::from_us(10))
        .unwrap_or_else(|e| panic!("{e}"));
    let deadline = sys.now() + Time::from_us(100);
    while sys.now() < deadline {
        sys.step_edge();
    }
    assert_eq!(
        sys.adapter().hubs[0].error_code(),
        duet_core::memory_hub::error_codes::ATOMICS_DISABLED
    );
    assert_eq!(sys.peek_u64(0xB000), 0, "no increment went through");
}
