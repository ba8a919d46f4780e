#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # duet-cpu
//!
//! The processor substrate: a RISC-V-flavoured mini-ISA (**kernel IR**,
//! [`isa`]), an assembler with labels and pseudo-instructions ([`asm`]), and
//! an in-order, single-issue timing core with an integrated write-through
//! L1D ([`core`]).
//!
//! The paper runs bare-metal C on Ariane cores; this workspace hand-writes
//! the same kernels in the IR (see `duet-workloads`). What matters for the
//! evaluation is preserved: every load/store/AMO/MMIO is a real transaction
//! against the simulated coherent memory hierarchy, MMIO follows strict I/O
//! ordering (the premise of the paper's Shadow Registers), and compute
//! carries in-order issue costs.
//!
//! # Example
//!
//! ```
//! use duet_cpu::asm::Asm;
//! use duet_cpu::isa::regs;
//!
//! let mut a = Asm::new();
//! a.li(regs::T[0], 2);
//! a.li(regs::T[1], 3);
//! a.add(regs::T[2], regs::T[0], regs::T[1]);
//! a.halt();
//! let program = a.assemble()?;
//! assert_eq!(program.len(), 4);
//! # Ok::<(), duet_cpu::asm::AsmError>(())
//! ```

pub mod asm;
pub mod core;
pub mod isa;

pub use crate::core::{Core, CoreConfig, CoreStats};
pub use asm::{Asm, AsmError};
pub use isa::{AluOp, Cond, FpCmp, FpOp, Inst, Program, Reg};
