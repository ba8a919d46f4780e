#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # duet-core
//!
//! **The paper's primary contribution: the Duet Adapter** (Sec. II), which
//! integrates embedded FPGAs as equal, cache-coherent peers of the
//! processors on the NoC:
//!
//! * [`memory_hub`] — Memory Hubs with the hardware **Proxy Cache**
//!   (hybrid coherence: full MESI on the NoC side, an ack-free
//!   Load/Store/LoadAck/StoreAck/Inv protocol on the eFPGA side), exception
//!   handler, feature switches, and per-hub TLB with VIVT reverse mapping,
//! * [`control_hub`] — the Control Hub: FPGA Manager (bitstream programming
//!   with integrity checks, programmable clock generator, timeout limits)
//!   and the Soft Register Interface with all four **Shadow Register**
//!   flavours (plain / FPGA-bound FIFO / CPU-bound FIFO / token FIFO) under
//!   strict I/O ordering,
//! * [`adapter`] — the assembled [`adapter::DuetAdapter`]: MMIO decode,
//!   adapter-wide exception propagation, clock-generator plumbing, and the
//!   [`duet_fpga::ports::FabricPorts`] construction for the accelerator,
//! * [`msg`] — the unified NoC payload (coherence + MMIO + interrupts).
//!
//! The defining property, tested throughout: **nothing in the fast domain
//! ever waits for the eFPGA.** The Proxy Cache answers coherence
//! immediately and forwards invalidations without acknowledgement; Shadow
//! Registers acknowledge processor writes from the fast domain.

pub mod adapter;
pub mod control_hub;
pub mod memory_hub;
pub mod msg;

pub use adapter::{AdapterConfig, DuetAdapter};
pub use control_hub::{ControlHub, ControlHubConfig, ProgStatus, RegMode, BOGUS, REG_COUNT};
pub use memory_hub::{HubStats, HubSwitches, MemoryHub, MemoryHubConfig};
pub use msg::{DuetMsg, IrqCause};
