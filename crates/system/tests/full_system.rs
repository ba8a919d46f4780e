//! Full-system integration tests: cores + coherence + NoC + Duet Adapter +
//! a live soft accelerator, end to end.

use std::sync::Arc;

use duet_core::RegMode;
use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_fpga::fabric::NetlistSummary;
use duet_fpga::ports::{FabricPorts, FpgaRespKind, SoftAccelerator};
use duet_fpga::regfile::FabricRegFile;
use duet_sim::Time;
use duet_system::{System, SystemConfig};

/// A minimal accelerator: consumes values written to reg 0, produces
/// `value + 1` on result reg 1. One result per FPGA cycle. Works under both
/// shadow (Duet) and normal (FPSoC) register configurations.
struct EchoPlusOne {
    regs: FabricRegFile,
}

impl EchoPlusOne {
    fn new(push_mode: bool) -> Self {
        let mut regs = FabricRegFile::new(push_mode);
        regs.set_queue(1);
        EchoPlusOne { regs }
    }
}

duet_sim::snap_fields!(EchoPlusOne { regs });

impl SoftAccelerator for EchoPlusOne {
    fn name(&self) -> &str {
        "echo-plus-one"
    }

    fn tick(&mut self, ports: &mut FabricPorts<'_>) {
        let now = ports.now;
        self.regs.tick(now, &mut ports.regs);
        if let Some(v) = self.regs.pop_write(0) {
            self.regs.push_result(1, v + 1);
        }
        self.regs.tick(now, &mut ports.regs);
    }

    fn netlist(&self) -> NetlistSummary {
        NetlistSummary {
            name: "echo-plus-one",
            luts: 64,
            ffs: 64,
            bram_kbits: 0,
            mults: 0,
            logic_levels: 2,
        }
    }
}

/// An accelerator that sums a cacheline from coherent memory via hub 0 and
/// reports the total through result reg 1.
struct LineSummer {
    regs: FabricRegFile,
    addr: Option<u64>,
}

impl LineSummer {
    fn new(push_mode: bool) -> Self {
        let mut regs = FabricRegFile::new(push_mode);
        regs.set_queue(1);
        LineSummer { regs, addr: None }
    }
}

duet_sim::snap_fields!(LineSummer { regs, addr });

impl SoftAccelerator for LineSummer {
    fn name(&self) -> &str {
        "line-summer"
    }

    fn tick(&mut self, ports: &mut FabricPorts<'_>) {
        let now = ports.now;
        self.regs.tick(now, &mut ports.regs);
        if self.addr.is_none() {
            self.addr = self.regs.pop_write(0);
        }
        if let Some(r) = ports.hubs[0].pop_resp(now) {
            if let FpgaRespKind::LoadAck { data } = r.kind {
                let sum: u64 = data.iter().map(|&b| u64::from(b)).sum();
                self.regs.push_result(1, sum);
            }
        }
        if let Some(addr) = self.addr.take() {
            if !ports.hubs[0].load_line(now, 1, addr) {
                self.addr = Some(addr);
            }
        }
        self.regs.tick(now, &mut ports.regs);
    }

    fn netlist(&self) -> NetlistSummary {
        NetlistSummary {
            name: "line-summer",
            luts: 128,
            ffs: 96,
            bram_kbits: 0,
            mults: 0,
            logic_levels: 3,
        }
    }
}

#[test]
fn two_cores_contend_on_an_atomic_counter() {
    let mut sys = System::new(SystemConfig::proc_only(2)).expect("valid config");
    let mut a = Asm::new();
    a.label("main");
    a.li(regs::T[0], 0x2000);
    a.li(regs::T[1], 0);
    a.label("loop");
    a.li(regs::T[2], 1);
    a.amoadd(regs::T[3], regs::T[0], regs::T[2]);
    a.addi(regs::T[1], regs::T[1], 1);
    a.li(regs::T[2], 50);
    a.blt(regs::T[1], regs::T[2], "loop");
    a.halt();
    let prog = Arc::new(a.assemble().unwrap());
    sys.load_program(0, prog.clone(), "main");
    sys.load_program(1, prog, "main");
    sys.run_until_halt(Time::from_us(500))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(Time::from_us(600))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(sys.peek_u64(0x2000), 100, "atomicity across cores");
}

#[test]
fn producer_consumer_through_shared_memory() {
    // Core 0 writes a flag+value; core 1 spins on the flag then reads.
    let mut sys = System::new(SystemConfig::proc_only(2)).expect("valid config");
    let mut a = Asm::new();
    a.label("producer");
    a.li(regs::T[0], 0x3000);
    a.li(regs::T[1], 777);
    a.sd(regs::T[1], regs::T[0], 8); // value
    a.fence();
    a.li(regs::T[1], 1);
    a.sd(regs::T[1], regs::T[0], 0); // flag
    a.halt();
    a.label("consumer");
    a.li(regs::T[0], 0x3000);
    a.label("spin");
    a.ld(regs::T[1], regs::T[0], 0);
    a.beqz(regs::T[1], "spin");
    a.ld(regs::T[2], regs::T[0], 8);
    a.li(regs::T[3], 0x3100);
    a.sd(regs::T[2], regs::T[3], 0);
    a.fence();
    a.halt();
    let prog = Arc::new(a.assemble().unwrap());
    sys.load_program(0, prog.clone(), "producer");
    sys.load_program(1, prog, "consumer");
    sys.run_until_halt(Time::from_us(500))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(Time::from_us(600))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(sys.peek_u64(0x3100), 777, "consumer saw the produced value");
}

#[test]
fn core_reaches_accelerator_through_shadow_registers() {
    let mut sys = System::new(SystemConfig::dolly(1, 1, 100.0)).expect("valid config");
    sys.set_reg_mode(0, RegMode::FpgaBound);
    sys.set_reg_mode(1, RegMode::CpuBound);
    sys.attach_accelerator(Box::new(EchoPlusOne::new(true)));

    let mut a = Asm::new();
    a.label("main");
    a.li(regs::T[0], 0x4000_0000u64 as i64); // reg 0
    a.li(regs::T[1], 41);
    a.sd(regs::T[1], regs::T[0], 0); // write arg (FPGA-bound)
    a.ld(regs::T[2], regs::T[0], 8); // read result (CPU-bound, blocking)
    a.li(regs::T[3], 0x5000);
    a.sd(regs::T[2], regs::T[3], 0);
    a.fence();
    a.halt();
    sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
    sys.run_until_halt(Time::from_us(100))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(Time::from_us(200))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(sys.peek_u64(0x5000), 42, "round trip through the eFPGA");
}

#[test]
fn accelerator_reads_coherent_memory_written_by_core() {
    let mut sys = System::new(SystemConfig::dolly(1, 1, 100.0)).expect("valid config");
    sys.set_reg_mode(0, RegMode::FpgaBound);
    sys.set_reg_mode(1, RegMode::CpuBound);
    sys.attach_accelerator(Box::new(LineSummer::new(true)));

    // The core writes 16 bytes (2,3,...) then asks the accelerator to sum
    // the line — the accelerator must see the *core's* dirty data through
    // the Proxy Cache (bi-directional coherence).
    let mut a = Asm::new();
    a.label("main");
    a.li(regs::T[0], 0x6000);
    a.li(regs::T[1], 0x0302_0302_0302_0302u64 as i64);
    a.sd(regs::T[1], regs::T[0], 0);
    a.sd(regs::T[1], regs::T[0], 8);
    a.fence();
    a.li(regs::T[2], 0x4000_0000u64 as i64);
    a.li(regs::T[3], 0x6000);
    a.sd(regs::T[3], regs::T[2], 0); // address -> accel
    a.ld(regs::T[4], regs::T[2], 8); // blocking read of the sum
    a.li(regs::T[5], 0x7000);
    a.sd(regs::T[4], regs::T[5], 0);
    a.fence();
    a.halt();
    sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
    sys.run_until_halt(Time::from_us(200))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(Time::from_us(300))
        .unwrap_or_else(|e| panic!("{e}"));
    // Sum of bytes: 8 × (2+3) = 40.
    assert_eq!(sys.peek_u64(0x7000), 40, "accelerator saw coherent data");
}

#[test]
fn fpsoc_variant_is_slower_than_duet_for_the_same_work() {
    let run = |cfg: SystemConfig| -> Time {
        let push_mode = cfg.variant == duet_system::Variant::Duet;
        let mut sys = System::new(cfg).expect("valid config");
        sys.set_reg_mode(0, RegMode::FpgaBound);
        sys.set_reg_mode(1, RegMode::CpuBound);
        sys.attach_accelerator(Box::new(EchoPlusOne::new(push_mode)));
        let mut a = Asm::new();
        a.label("main");
        a.li(regs::T[0], 0x4000_0000u64 as i64);
        a.li(regs::S[0], 0); // i
        a.li(regs::S[1], 16); // n
        a.label("loop");
        a.sd(regs::S[0], regs::T[0], 0);
        a.ld(regs::T[2], regs::T[0], 8);
        a.addi(regs::S[0], regs::S[0], 1);
        a.blt(regs::S[0], regs::S[1], "loop");
        a.halt();
        sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
        sys.run_until_halt(Time::from_us(1000))
            .unwrap_or_else(|e| panic!("{e}"))
    };
    let duet = run(SystemConfig::dolly(1, 1, 100.0));
    let fpsoc = run(SystemConfig::fpsoc(1, 1, 100.0));
    assert!(
        fpsoc > duet,
        "FPSoC ({fpsoc}) must be slower than Duet ({duet}) at 100 MHz"
    );
}

#[test]
fn page_fault_is_serviced_by_the_os_stub() {
    let mut sys = System::new(SystemConfig::dolly(1, 1, 100.0)).expect("valid config");
    // Hub 0 in virtual-address mode.
    {
        let a = sys.adapter_mut();
        let mut sw = a.hubs[0].switches();
        sw.tlb_enabled = true;
        a.hubs[0].set_switches(sw);
    }
    sys.map_identity(0x6000, 0x1000);
    sys.poke_u64(0x6000, 0x0101_0101_0101_0101);
    sys.poke_u64(0x6008, 0x0101_0101_0101_0101);
    sys.set_reg_mode(0, RegMode::FpgaBound);
    sys.set_reg_mode(1, RegMode::CpuBound);
    sys.attach_accelerator(Box::new(LineSummer::new(true)));
    let mut a = Asm::new();
    a.label("main");
    a.li(regs::T[2], 0x4000_0000u64 as i64);
    a.li(regs::T[3], 0x6000);
    a.sd(regs::T[3], regs::T[2], 0);
    a.ld(regs::T[4], regs::T[2], 8); // blocks across the page fault
    a.li(regs::T[5], 0x7000);
    a.sd(regs::T[4], regs::T[5], 0);
    a.fence();
    a.halt();
    sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
    sys.run_until_halt(Time::from_us(500))
        .unwrap_or_else(|e| panic!("{e}"));
    sys.quiesce(Time::from_us(600))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        sys.peek_u64(0x7000),
        16,
        "access completed after TLB refill"
    );
    assert_eq!(sys.stats().page_faults, 1, "exactly one fault serviced");
}

#[test]
fn unmapped_page_kills_the_accelerator() {
    let mut sys = System::new(SystemConfig::dolly(1, 1, 100.0)).expect("valid config");
    {
        let a = sys.adapter_mut();
        let mut sw = a.hubs[0].switches();
        sw.tlb_enabled = true;
        a.hubs[0].set_switches(sw);
    }
    // No mapping for 0x6000 at all.
    sys.set_reg_mode(0, RegMode::FpgaBound);
    sys.attach_accelerator(Box::new(LineSummer::new(true)));
    let mut a = Asm::new();
    a.label("main");
    a.li(regs::T[2], 0x4000_0000u64 as i64);
    a.li(regs::T[3], 0x6000);
    a.sd(regs::T[3], regs::T[2], 0);
    a.halt();
    sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
    sys.run_until_halt(Time::from_us(100))
        .unwrap_or_else(|e| panic!("{e}"));
    // Give the fault + kill path time to complete.
    let deadline = sys.now() + Time::from_us(50);
    while sys.now() < deadline {
        sys.step_edge();
    }
    let hub = &sys.adapter().hubs[0];
    assert_eq!(
        hub.error_code(),
        duet_core::memory_hub::error_codes::KILLED,
        "kernel killed the accelerator"
    );
    assert!(!hub.switches().active);
}
