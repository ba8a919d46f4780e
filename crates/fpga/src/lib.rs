#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # duet-fpga
//!
//! The embedded-FPGA substrate of the Duet reproduction:
//!
//! * [`ports`] — the fabric-side protocol of the Duet Adapter: Load/Store
//!   (+optional atomics) requests; LoadAck/StoreAck/Invalidation responses
//!   delivered in order; the soft-register up/down streams; and the
//!   [`ports::SoftAccelerator`] trait all fabric designs implement,
//! * [`soft_cache`] — the eFPGA-emulated, write-through soft cache with
//!   write buffer and configurable RAW forwarding (Sec. II-C),
//! * [`fabric`] — the island-style fabric resource/area/Fmax model standing
//!   in for the PRGA + Yosys + VTR flow (calibrated against Table II),
//! * [`bitstream`] — configuration bitstreams with integrity checking
//!   (Sec. II-E),
//! * [`area`] — the Table I hard-component database and the ADP accounting
//!   of Fig. 12.
//!
//! # Example: sizing an accelerator on the fabric
//!
//! ```
//! use duet_fpga::fabric::{FabricSpec, NetlistSummary};
//!
//! let fabric = FabricSpec::k6_frac_n10_mem32k();
//! let report = fabric.implement(&NetlistSummary {
//!     name: "popcount",
//!     luts: 1200,
//!     ffs: 900,
//!     bram_kbits: 64,
//!     mults: 0,
//!     logic_levels: 6,
//! });
//! assert!(report.fmax_mhz > 50.0 && report.clb_util <= 1.0);
//! ```

pub mod area;
pub mod bitstream;
pub mod fabric;
pub mod ports;
pub mod regfile;
pub mod soft_cache;

pub use area::{normalized_adp, AreaModel, ComponentArea};
pub use bitstream::Bitstream;
pub use fabric::{FabricSpec, ImplReport, NetlistSummary};
pub use ports::{
    FabricPorts, FpgaMemOp, FpgaMemReq, FpgaMemResp, FpgaRespKind, HubPort, RegDown, RegPort,
    RegUp, SoftAccelerator,
};
pub use regfile::{FabricRegFile, FabricRegKind};
pub use soft_cache::{SoftCache, SoftCacheConfig, SoftCacheStats};
