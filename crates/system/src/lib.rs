#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! # duet-system
//!
//! Full-system assembly of the Duet reproduction: Dolly-PpMm instances
//! (Sec. IV, Fig. 8), the FPSoC-like baseline, and the processor-only
//! baseline, all driven by a deterministic dual-clock edge loop.
//!
//! A system consists of:
//!
//! * `p` **P-tiles**: an in-order core + write-through L1D + private MESI
//!   L2, each with a NoC router and an L3 shard,
//! * one **C-tile** (when an eFPGA exists): the Control Hub and Memory Hub
//!   0 of the [`duet_core::DuetAdapter`],
//! * `m − 1` **M-tiles**: the remaining Memory Hubs,
//! * a 2D-mesh NoC carrying coherence + MMIO + interrupts,
//! * an **OS stub** that services page-fault interrupts from the hubs by
//!   MMIO TLB refills (or kills the accelerator for unmapped pages) after a
//!   configurable kernel latency.
//!
//! # Example
//!
//! ```
//! use duet_system::{System, SystemConfig};
//! use duet_cpu::asm::Asm;
//! use duet_cpu::isa::regs;
//! use duet_sim::Time;
//! use std::sync::Arc;
//!
//! let mut sys = System::new(SystemConfig::proc_only(1)).expect("valid config");
//! let mut a = Asm::new();
//! a.label("main");
//! a.li(regs::T[0], 0x1000);
//! a.li(regs::T[1], 7);
//! a.sd(regs::T[1], regs::T[0], 0);
//! a.fence();
//! a.halt();
//! sys.load_program(0, Arc::new(a.assemble()?), "main");
//! sys.run_until_halt(Time::from_us(100))?;
//! sys.quiesce(Time::from_us(200))?;
//! assert_eq!(sys.peek_u64(0x1000), 7);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The run entry points return `Result<Time, RunError>`: a deadline that
//! passes or a runtime-checker violation comes back as a structured
//! [`RunError`] carrying a per-component stall snapshot, instead of a
//! panic. Fault injection is configured through
//! [`SystemConfig::faults`](config::SystemConfig) (see [`duet_verify`]).

pub mod config;
mod passes;
mod run_loop;
mod snapshot;
mod stats;
pub mod system;
mod wiring;

pub use config::{ConfigError, SystemConfig, Variant};
pub use stats::{is_simulated_metric, RunStats};
pub use system::System;

// Re-export the `duet-verify` surface a system user needs: fault plans are
// configured through `SystemConfig::faults`, run errors come back from the
// run loop.
pub use duet_verify::{
    DegradeConfig, FaultKind, FaultPlan, FaultSpec, RunError, StallSnapshot, Violation,
};
