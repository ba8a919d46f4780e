//! The kernel IR: a RISC-V-flavoured mini-ISA executed by the timing core.
//!
//! The paper's benchmarks run bare-metal C on Ariane (RV64). We cannot ship
//! a C compiler, so benchmarks are hand-written in this IR via
//! [`crate::asm::Asm`]. The IR keeps the properties that matter for the
//! evaluation: every load/store/AMO/MMIO is a real transaction against the
//! simulated memory hierarchy, and ALU/FPU operations carry in-order
//! single-issue costs calibrated to an Ariane-class core.

use duet_mem::types::{AmoOp, Width};

/// A register index (x0..x31). `x0` is hardwired to zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// The zero register.
    pub const ZERO: Reg = Reg(0);
    /// Return-address register (link).
    pub const RA: Reg = Reg(1);
    /// Stack pointer.
    pub const SP: Reg = Reg(2);
}

/// Conventionally-named argument/temporary registers.
pub mod regs {
    use super::Reg;
    /// Argument/return registers a0-a7 (x10-x17).
    pub const A: [Reg; 8] = [
        Reg(10),
        Reg(11),
        Reg(12),
        Reg(13),
        Reg(14),
        Reg(15),
        Reg(16),
        Reg(17),
    ];
    /// Temporaries t0-t6 (x5-x7, x28-x31).
    pub const T: [Reg; 7] = [Reg(5), Reg(6), Reg(7), Reg(28), Reg(29), Reg(30), Reg(31)];
    /// Saved registers s0-s7 (x8, x9, x18-x23).
    pub const S: [Reg; 8] = [
        Reg(8),
        Reg(9),
        Reg(18),
        Reg(19),
        Reg(20),
        Reg(21),
        Reg(22),
        Reg(23),
    ];
}

/// Integer ALU operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left.
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Set-if-less-than (signed).
    Slt,
    /// Set-if-less-than (unsigned).
    Sltu,
    /// Multiplication (low 64 bits).
    Mul,
    /// Signed division (x/0 = -1, as RISC-V).
    Div,
    /// Signed remainder (x%0 = x, as RISC-V).
    Rem,
    /// Unsigned division.
    Divu,
    /// Unsigned remainder.
    Remu,
}

/// Branch conditions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

/// Double-precision FPU operations (f64 values live in the integer
/// registers as raw bits, like a unified register file).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FpOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Square root (rs2 ignored).
    Sqrt,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// FP comparisons producing 0/1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FpCmp {
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Equal.
    Eq,
}

/// One kernel-IR instruction. Branch/jump targets are instruction indices
/// (resolved from labels by the assembler).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Inst {
    /// `rd = rs1 op rs2`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
    },
    /// `rd = rs1 op imm`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Operand.
        rs1: Reg,
        /// Immediate.
        imm: i64,
    },
    /// `rd = imm`.
    Li {
        /// Destination.
        rd: Reg,
        /// Immediate.
        imm: i64,
    },
    /// `rd = zero_or_sign_extend(mem[rs1 + off])`.
    Load {
        /// Access width.
        width: Width,
        /// Sign-extend the loaded value.
        signed: bool,
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        off: i64,
    },
    /// `mem[rs1 + off] = rs2` (low `width` bytes).
    Store {
        /// Access width.
        width: Width,
        /// Value register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        off: i64,
    },
    /// `rd = atomic op at mem[base]` with operand `src` (and compare value
    /// `expected` for CAS).
    Amo {
        /// Atomic operation.
        op: AmoOp,
        /// Access width.
        width: Width,
        /// Destination (old value).
        rd: Reg,
        /// Address register (no offset, as RISC-V A).
        base: Reg,
        /// Operand register.
        src: Reg,
        /// Expected-value register (CAS only; `x0` otherwise).
        expected: Reg,
    },
    /// Memory fence: drains the store buffer and completes all outstanding
    /// accesses before the next instruction issues.
    Fence,
    /// Conditional branch to `target`.
    Branch {
        /// Condition.
        cond: Cond,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Target instruction index.
        target: usize,
    },
    /// Unconditional jump; `rd` receives the return address (next index).
    Jal {
        /// Link destination (`x0` to discard).
        rd: Reg,
        /// Target instruction index.
        target: usize,
    },
    /// Indirect jump to `base + off` (instruction index arithmetic).
    Jalr {
        /// Link destination.
        rd: Reg,
        /// Base register holding an instruction index.
        base: Reg,
        /// Offset added to the base.
        off: i64,
    },
    /// `rd = f64 op(rs1, rs2)` on raw f64 bits.
    Fp {
        /// Operation.
        op: FpOp,
        /// Destination.
        rd: Reg,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
    },
    /// `rd = (rs1 cmp rs2) as u64` on f64 bits.
    FpCmp {
        /// Comparison.
        cmp: FpCmp,
        /// Destination.
        rd: Reg,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
    },
    /// `rd = (f64)(i64)rs1` (integer to double).
    I2F {
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
    },
    /// `rd = (i64)(f64)rs1` (double to integer, round toward zero).
    F2I {
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
    },
    /// `rd = hart id` of the executing core.
    CoreId {
        /// Destination.
        rd: Reg,
    },
    /// `rd = current cycle count` (RISC-V `rdcycle`; used by benchmark
    /// drivers to timestamp measurement windows).
    RdCycle {
        /// Destination.
        rd: Reg,
    },
    /// No operation (1 cycle).
    Nop,
    /// Stops the core; the simulation ends when all cores halt.
    Halt,
}

impl Inst {
    /// Issue cost in core cycles (occupancy of the single-issue pipeline),
    /// excluding memory-system time. Calibrated to an Ariane-class in-order
    /// core: single-cycle ALU, 3-cycle multiply, 20-cycle divide, pipelined
    /// 4-cycle FP add/mul, iterative FP divide/sqrt.
    pub fn cost(&self) -> u32 {
        match self {
            Inst::Alu { op, .. } | Inst::AluImm { op, .. } => match op {
                AluOp::Mul => 3,
                AluOp::Div | AluOp::Rem | AluOp::Divu | AluOp::Remu => 20,
                _ => 1,
            },
            Inst::Fp { op, .. } => match op {
                FpOp::Div => 18,
                FpOp::Sqrt => 22,
                _ => 4,
            },
            Inst::FpCmp { .. } | Inst::I2F { .. } | Inst::F2I { .. } => 2,
            _ => 1,
        }
    }
}

/// The most instructions a [`SpinLoop`] body may hold, closing branch
/// included.
pub const SPIN_BODY_MAX: usize = 16;

/// The most distinct registers a [`SpinLoop`] body may write.
pub const SPIN_WRITES_MAX: usize = 8;

/// A short loop closed by a backward branch whose body can only read
/// memory and compute: loads, ALU ops, `Li`, `CoreId`, `Nop`, and branches
/// that stay inside it. A core that runs one whole iteration of such a loop
/// without a miss, an invalidation, a store, an MMIO access or a stall, and
/// ends it with every register the body writes back at its old value, is
/// on a fixed point: it repeats that iteration until something outside the
/// core changes its L1 (see [`Core`](crate::Core)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpinLoop {
    /// The loop head (the branch target).
    pub head: usize,
    /// The closing backward branch.
    pub branch: usize,
    writes: [Reg; SPIN_WRITES_MAX],
    n_writes: u8,
}

impl SpinLoop {
    /// The registers the body writes (`x0` excluded), ascending.
    pub fn writes(&self) -> &[Reg] {
        &self.writes[..usize::from(self.n_writes)]
    }

    /// The loop `insts[branch]` closes, if it is one. Inner branches must
    /// target the body itself, so the only way out is the closing branch
    /// falling through.
    ///
    /// A straight-line body that steps a register by a non-zero constant
    /// (`addi r, r, c`) and writes it nowhere else is a counted loop: that
    /// register never returns to its value, so the loop is left out and
    /// costs its back-edges nothing.
    fn analyze(insts: &[Inst], branch: usize) -> Option<SpinLoop> {
        let Inst::Branch { target: head, .. } = insts[branch] else {
            return None;
        };
        if head > branch || branch - head >= SPIN_BODY_MAX {
            return None;
        }
        let (mut written, mut rewritten, mut stepped) = (0u32, 0u32, 0u32);
        let mut straight = true;
        for inst in &insts[head..branch] {
            let rd = match *inst {
                Inst::AluImm {
                    op: AluOp::Add,
                    rd,
                    rs1,
                    imm,
                } if rs1 == rd && imm != 0 => {
                    stepped |= 1u32.checked_shl(u32::from(rd.0))?;
                    rd
                }
                Inst::Alu { rd, .. }
                | Inst::AluImm { rd, .. }
                | Inst::Li { rd, .. }
                | Inst::CoreId { rd }
                | Inst::Load { rd, .. } => rd,
                Inst::Branch { target, .. } if (head..=branch).contains(&target) => {
                    straight = false;
                    continue;
                }
                Inst::Nop => continue,
                _ => return None,
            };
            let bit = 1u32.checked_shl(u32::from(rd.0))?;
            rewritten |= written & bit;
            written |= bit;
        }
        written &= !1; // x0 is never written
        if written.count_ones() as usize > SPIN_WRITES_MAX
            || (straight && stepped & !rewritten & !1 != 0)
        {
            return None;
        }
        let mut writes = [Reg::ZERO; SPIN_WRITES_MAX];
        let mut n_writes = 0u8;
        for r in (0..32u8).filter(|r| written & (1 << r) != 0) {
            writes[usize::from(n_writes)] = Reg(r);
            n_writes += 1;
        }
        Some(SpinLoop {
            head,
            branch,
            writes,
            n_writes,
        })
    }
}

/// A fully-assembled program: instructions plus resolved labels.
#[derive(Clone, Debug, Default)]
pub struct Program {
    insts: Vec<Inst>,
    labels: std::collections::BTreeMap<String, usize>,
    /// Every [`SpinLoop`], ascending by closing branch: built once here and
    /// shared by all cores running the program.
    spin_loops: Vec<SpinLoop>,
}

impl Program {
    /// Builds a program from raw parts (prefer [`crate::asm::Asm`]).
    pub fn from_parts(insts: Vec<Inst>, labels: std::collections::BTreeMap<String, usize>) -> Self {
        let spin_loops = (0..insts.len())
            .filter_map(|b| SpinLoop::analyze(&insts, b))
            .collect();
        Program {
            insts,
            labels,
            spin_loops,
        }
    }

    /// The [`SpinLoop`] closed by the branch at `branch`, if any.
    pub fn spin_loop(&self, branch: usize) -> Option<&SpinLoop> {
        self.spin_loops
            .binary_search_by_key(&branch, |l| l.branch)
            .ok()
            .map(|i| &self.spin_loops[i])
    }

    /// The instruction at `pc`, if in range.
    pub fn fetch(&self, pc: usize) -> Option<Inst> {
        self.insts.get(pc).copied()
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Resolves a label to its instruction index.
    pub fn label(&self, name: &str) -> Option<usize> {
        self.labels.get(name).copied()
    }

    /// All instructions (for inspection/tests).
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_reflect_complexity() {
        let add = Inst::Alu {
            op: AluOp::Add,
            rd: Reg(1),
            rs1: Reg(2),
            rs2: Reg(3),
        };
        let div = Inst::Alu {
            op: AluOp::Div,
            rd: Reg(1),
            rs1: Reg(2),
            rs2: Reg(3),
        };
        let fsqrt = Inst::Fp {
            op: FpOp::Sqrt,
            rd: Reg(1),
            rs1: Reg(2),
            rs2: Reg(0),
        };
        assert_eq!(add.cost(), 1);
        assert_eq!(div.cost(), 20);
        assert!(fsqrt.cost() > add.cost());
    }

    #[test]
    fn program_fetch_and_labels() {
        let mut labels = std::collections::BTreeMap::new();
        labels.insert("start".to_string(), 0);
        let p = Program::from_parts(vec![Inst::Nop, Inst::Halt], labels);
        assert_eq!(p.len(), 2);
        assert_eq!(p.fetch(1), Some(Inst::Halt));
        assert_eq!(p.fetch(2), None);
        assert_eq!(p.label("start"), Some(0));
        assert_eq!(p.label("nope"), None);
    }

    #[test]
    fn spin_loops_are_short_side_effect_free_backward_branches() {
        use crate::asm::Asm;
        use crate::isa::regs::T;
        let mut a = Asm::new();
        a.label("spin"); // 0-1: `ld; bnez` — the MCS wait
        a.ld(T[1], T[0], 8);
        a.bnez(T[1], "spin");
        a.label("store"); // 2-3: a store in the body
        a.sd(T[1], T[0], 0);
        a.bnez(T[1], "store");
        a.label("inner"); // 4-7: an inner branch leaving the body
        a.ld(T[1], T[0], 0);
        a.beqz(T[1], "out");
        a.addi(T[2], T[2], 1);
        a.bnez(T[1], "inner");
        a.label("out");
        a.nop();
        a.label("counted"); // 9-10: steps t2 by one per iteration
        a.addi(T[2], T[2], 1);
        a.bnez(T[1], "counted");
        a.label("reset"); // 11-13: ... unless something else writes it
        a.addi(T[2], T[2], 1);
        a.li(T[2], 0);
        a.bnez(T[1], "reset");
        a.label("skipped"); // 14-16: ... or an inner branch may skip it
        a.beqz(T[1], "skip_end");
        a.addi(T[2], T[2], 1);
        a.label("skip_end");
        a.bnez(T[1], "skipped");
        a.halt();
        let p = a.assemble().unwrap();
        let spin = p.spin_loop(1).expect("ld/bnez closes a spin loop");
        assert_eq!((spin.head, spin.branch), (0, 1));
        assert_eq!(spin.writes(), &[T[1]]);
        assert_eq!(p.spin_loop(0), None, "only the closing branch keys a loop");
        assert_eq!(p.spin_loop(3), None, "a store makes the body ineligible");
        assert_eq!(p.spin_loop(7), None, "an exit from mid-body is ineligible");
        assert_eq!(p.spin_loop(10), None, "a counted loop never spins");
        assert!(p.spin_loop(13).is_some() && p.spin_loop(16).is_some());

        // The body bound counts the closing branch.
        for (len, eligible) in [(SPIN_BODY_MAX, true), (SPIN_BODY_MAX + 1, false)] {
            let mut a = Asm::new();
            a.label("l");
            for _ in 0..len - 1 {
                a.nop();
            }
            a.bnez(T[0], "l");
            let p = a.assemble().unwrap();
            assert_eq!(p.spin_loop(len - 1).is_some(), eligible, "body of {len}");
        }
    }
}
