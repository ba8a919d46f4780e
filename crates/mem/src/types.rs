//! Fundamental memory types: addresses, cachelines, and the CPU-side
//! request/response interface shared by cores and the Duet Adapter.

use duet_sim::LatencyBreakdown;

/// A physical (or virtual, depending on context) byte address.
pub type Addr = u64;

/// Bytes per cacheline. Dolly uses 16-byte lines ("the cache line size is
/// 16 Bytes", Sec. V-C).
pub const LINE_BYTES: usize = 16;

/// log2 of [`LINE_BYTES`].
pub const LINE_OFFSET_BITS: u32 = 4;

/// The data contents of one cacheline.
pub type LineData = [u8; LINE_BYTES];

/// A cacheline-granular address (byte address >> 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The line containing byte address `a`.
    pub fn containing(a: Addr) -> Self {
        LineAddr(a >> LINE_OFFSET_BITS)
    }

    /// First byte address of this line.
    pub fn base(self) -> Addr {
        self.0 << LINE_OFFSET_BITS
    }

    /// Byte offset of `a` within its line.
    pub fn offset(a: Addr) -> usize {
        (a as usize) & (LINE_BYTES - 1)
    }
}

/// Access width in bytes (1, 2, 4, or 8 — the Dolly L2 "only supports stores
/// up to 8 Bytes", Sec. V-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Width {
    /// 1 byte.
    B1 = 1,
    /// 2 bytes.
    B2 = 2,
    /// 4 bytes.
    B4 = 4,
    /// 8 bytes.
    B8 = 8,
}

impl Width {
    /// Width in bytes.
    pub fn bytes(self) -> usize {
        self as usize
    }

    /// Mask selecting the low `bytes * 8` bits of a u64.
    pub fn mask(self) -> u64 {
        match self {
            Width::B8 => u64::MAX,
            w => (1u64 << (w.bytes() * 8)) - 1,
        }
    }
}

/// Atomic memory operation kinds.
///
/// `Cas` is not a RISC-V AMO, but MCS-style locks need either LR/SC or CAS;
/// we model the LR/SC pair as a single CAS performed at the coherence point
/// (documented substitution — the timing is equivalent to a successful LR/SC
/// pair executed under an exclusive line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AmoOp {
    /// Atomic swap; returns the old value.
    Swap,
    /// Atomic add; returns the old value.
    Add,
    /// Atomic AND.
    And,
    /// Atomic OR.
    Or,
    /// Atomic signed max.
    Max,
    /// Atomic signed min.
    Min,
    /// Compare-and-swap: stores `wdata` iff current == `expected`; returns
    /// the old value.
    Cas,
}

/// Operations accepted by the CPU-side port of a private cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemOp {
    /// Scalar load of `width` bytes.
    Load(Width),
    /// Scalar store of `width` bytes.
    Store(Width),
    /// Atomic read-modify-write of `width` bytes.
    Amo(AmoOp, Width),
    /// Whole-cacheline load (used by the eFPGA side: "the eFPGA can load up
    /// to one line per cycle", Sec. V-C).
    LoadLine,
    /// Instruction-side line fetch (shared, read-only).
    IFetch,
}

/// A request into a private cache's CPU-side port.
#[derive(Clone, Copy, Debug)]
pub struct MemReq {
    /// Caller-chosen id echoed in the response.
    pub id: u64,
    /// Operation.
    pub op: MemOp,
    /// Byte address (must be naturally aligned for the width).
    pub addr: Addr,
    /// Store/AMO operand (low `width` bytes significant).
    pub wdata: u64,
    /// Second operand for [`AmoOp::Cas`] (the expected value).
    pub expected: u64,
}

impl MemReq {
    /// Convenience constructor for a load.
    pub fn load(id: u64, addr: Addr, width: Width) -> Self {
        MemReq {
            id,
            op: MemOp::Load(width),
            addr,
            wdata: 0,
            expected: 0,
        }
    }

    /// Convenience constructor for a store.
    pub fn store(id: u64, addr: Addr, width: Width, wdata: u64) -> Self {
        MemReq {
            id,
            op: MemOp::Store(width),
            addr,
            wdata,
            expected: 0,
        }
    }

    /// Convenience constructor for a whole-line load.
    pub fn load_line(id: u64, addr: Addr) -> Self {
        MemReq {
            id,
            op: MemOp::LoadLine,
            addr,
            wdata: 0,
            expected: 0,
        }
    }

    /// Convenience constructor for an atomic.
    pub fn amo(id: u64, op: AmoOp, addr: Addr, width: Width, wdata: u64, expected: u64) -> Self {
        MemReq {
            id,
            op: MemOp::Amo(op, width),
            addr,
            wdata,
            expected,
        }
    }
}

/// A response from a private cache's CPU-side port.
#[derive(Clone, Copy, Debug)]
pub struct MemResp {
    /// Echo of the request id.
    pub id: u64,
    /// Loaded value (old value for AMOs; zero for stores).
    pub rdata: u64,
    /// Whole-line data for [`MemOp::LoadLine`].
    pub line: Option<LineData>,
    /// Whether the upper cache (L1) may retain this line. False when the
    /// serving cache did not install it (a fill invalidated in flight is
    /// served once and discarded); caching it above would break inclusion.
    pub cacheable: bool,
    /// Latency attribution for this transaction.
    pub breakdown: LatencyBreakdown,
}

duet_sim::pack_struct!(LineAddr { 0 });
duet_sim::pack_enum!(Width { 1 => B1, 2 => B2, 4 => B4, 8 => B8 });
duet_sim::pack_enum!(AmoOp {
    0 => Swap,
    1 => Add,
    2 => And,
    3 => Or,
    4 => Max,
    5 => Min,
    6 => Cas,
});
duet_sim::pack_enum!(MemOp {
    0 => Load(width),
    1 => Store(width),
    2 => Amo(op, width),
    3 => LoadLine,
    4 => IFetch,
});
duet_sim::pack_struct!(MemReq {
    id,
    op,
    addr,
    wdata,
    expected
});
duet_sim::pack_struct!(MemResp {
    id,
    rdata,
    line,
    cacheable,
    breakdown
});

/// Reads `width` bytes at `offset` in a line as a little-endian u64.
///
/// # Panics
///
/// Panics if `offset + width` exceeds the line.
pub fn read_scalar(line: &LineData, offset: usize, width: Width) -> u64 {
    let n = width.bytes();
    assert!(
        offset + n <= LINE_BYTES,
        "scalar read crosses line boundary"
    );
    let mut v = 0u64;
    for i in 0..n {
        v |= u64::from(line[offset + i]) << (8 * i);
    }
    v
}

/// Writes the low `width` bytes of `value` at `offset` in a line
/// (little-endian).
///
/// # Panics
///
/// Panics if `offset + width` exceeds the line.
pub fn write_scalar(line: &mut LineData, offset: usize, width: Width, value: u64) {
    let n = width.bytes();
    assert!(
        offset + n <= LINE_BYTES,
        "scalar write crosses line boundary"
    );
    for i in 0..n {
        line[offset + i] = (value >> (8 * i)) as u8;
    }
}

/// Applies an atomic op to `width` bytes at `offset`, returning the old value.
pub fn apply_amo(
    line: &mut LineData,
    offset: usize,
    width: Width,
    op: AmoOp,
    wdata: u64,
    expected: u64,
) -> u64 {
    let old = read_scalar(line, offset, width);
    let mask = width.mask();
    let w = wdata & mask;
    let new = match op {
        AmoOp::Swap => w,
        AmoOp::Add => old.wrapping_add(w) & mask,
        AmoOp::And => old & w,
        AmoOp::Or => old | w,
        AmoOp::Max => {
            let sign_ext = |v: u64| -> i64 {
                let shift = 64 - width.bytes() * 8;
                ((v << shift) as i64) >> shift
            };
            if sign_ext(old) >= sign_ext(w) {
                old
            } else {
                w
            }
        }
        AmoOp::Min => {
            let sign_ext = |v: u64| -> i64 {
                let shift = 64 - width.bytes() * 8;
                ((v << shift) as i64) >> shift
            };
            if sign_ext(old) <= sign_ext(w) {
                old
            } else {
                w
            }
        }
        AmoOp::Cas => {
            if old == expected & mask {
                w
            } else {
                old
            }
        }
    };
    write_scalar(line, offset, width, new);
    old
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_addr_math() {
        assert_eq!(LineAddr::containing(0x1234).0, 0x123);
        assert_eq!(LineAddr(0x123).base(), 0x1230);
        assert_eq!(LineAddr::offset(0x1234), 4);
        assert_eq!(LineAddr::offset(0x1230), 0);
    }

    #[test]
    fn scalar_roundtrip() {
        let mut line = [0u8; LINE_BYTES];
        write_scalar(&mut line, 8, Width::B8, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(read_scalar(&line, 8, Width::B8), 0xDEAD_BEEF_CAFE_F00D);
        write_scalar(&mut line, 0, Width::B2, 0xABCD);
        assert_eq!(read_scalar(&line, 0, Width::B2), 0xABCD);
        assert_eq!(read_scalar(&line, 0, Width::B1), 0xCD);
    }

    #[test]
    fn scalar_write_is_masked() {
        let mut line = [0xFFu8; LINE_BYTES];
        write_scalar(&mut line, 0, Width::B4, 0x1122_3344_5566_7788);
        assert_eq!(read_scalar(&line, 0, Width::B4), 0x5566_7788);
        // Adjacent bytes untouched.
        assert_eq!(line[4], 0xFF);
    }

    #[test]
    fn amo_add_and_swap() {
        let mut line = [0u8; LINE_BYTES];
        write_scalar(&mut line, 0, Width::B8, 10);
        let old = apply_amo(&mut line, 0, Width::B8, AmoOp::Add, 5, 0);
        assert_eq!(old, 10);
        assert_eq!(read_scalar(&line, 0, Width::B8), 15);
        let old = apply_amo(&mut line, 0, Width::B8, AmoOp::Swap, 99, 0);
        assert_eq!(old, 15);
        assert_eq!(read_scalar(&line, 0, Width::B8), 99);
    }

    #[test]
    fn amo_cas_success_and_failure() {
        let mut line = [0u8; LINE_BYTES];
        write_scalar(&mut line, 0, Width::B8, 7);
        let old = apply_amo(&mut line, 0, Width::B8, AmoOp::Cas, 8, 7);
        assert_eq!(old, 7);
        assert_eq!(read_scalar(&line, 0, Width::B8), 8);
        let old = apply_amo(&mut line, 0, Width::B8, AmoOp::Cas, 99, 7);
        assert_eq!(old, 8, "failed CAS returns current value");
        assert_eq!(
            read_scalar(&line, 0, Width::B8),
            8,
            "failed CAS writes nothing"
        );
    }

    #[test]
    fn amo_minmax_signed() {
        let mut line = [0u8; LINE_BYTES];
        write_scalar(&mut line, 0, Width::B4, (-5i32) as u32 as u64);
        apply_amo(&mut line, 0, Width::B4, AmoOp::Max, 3, 0);
        assert_eq!(read_scalar(&line, 0, Width::B4) as u32 as i32, 3);
        apply_amo(
            &mut line,
            0,
            Width::B4,
            AmoOp::Min,
            (-9i32) as u32 as u64,
            0,
        );
        assert_eq!(read_scalar(&line, 0, Width::B4) as u32 as i32, -9);
    }

    #[test]
    fn width_masks() {
        assert_eq!(Width::B1.mask(), 0xFF);
        assert_eq!(Width::B4.mask(), 0xFFFF_FFFF);
        assert_eq!(Width::B8.mask(), u64::MAX);
    }
}
