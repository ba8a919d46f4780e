#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # duet-mem
//!
//! The memory substrate of the Duet reproduction: a cycle-level model of the
//! OpenPiton P-Mesh cache hierarchy that Dolly builds on (Sec. IV of the
//! paper):
//!
//! * [`l1::L1Cache`] — small write-through L1D in front of each core,
//! * [`priv_cache::PrivCache`] — the private, write-back, MESI L2. The same
//!   component is reused as the **Proxy Cache** in `duet-core` and, ticked
//!   on the eFPGA clock, as the **slow cache** baseline of Sec. V-C,
//! * [`directory::L3Shard`] — one distributed L3 slice + blocking directory
//!   per tile, running directory-based MESI over three NoC virtual networks,
//! * [`tlb`] — page tables and the per-Memory-Hub TLB of Sec. II-D.
//!
//! The caches are *functional*: they carry real line data, so protocol bugs
//! become data corruption that the test suite catches, not just timing
//! noise.
//!
//! # Example: a load miss resolved by a directory shard
//!
//! ```
//! use duet_mem::priv_cache::{CacheConfig, HomeMap, PrivCache};
//! use duet_mem::types::{MemReq, Width};
//! use duet_sim::{Clock, Time};
//!
//! let clock = Clock::ghz1();
//! let mut l2 = PrivCache::new(CacheConfig::dolly_l2(clock), 0, HomeMap::new(vec![1]));
//! l2.cpu_request(MemReq::load(1, 0x40, Width::B8));
//! l2.tick(Time::from_ps(1000));
//! let (dst, msg) = l2.pop_outgoing(Time::from_ps(10_000)).expect("miss goes to home");
//! assert_eq!(dst, 1);
//! assert!(matches!(msg, duet_mem::msg::CoherenceMsg::GetS { .. }));
//! ```

pub mod array;
pub mod directory;
pub mod l1;
pub mod msg;
pub mod priv_cache;
pub mod testkit;
pub mod tlb;
pub mod types;

pub use directory::{DirConfig, DirStats, L3Shard};
pub use l1::{L1Cache, L1Config, L1Stats};
pub use msg::{CoherenceMsg, Grant};
pub use priv_cache::{CacheConfig, CacheStats, HomeMap, InvalReason, LineState, PrivCache};
pub use tlb::{PagePerms, PageTable, Ppn, Tlb, Translation, Vpn};
pub use types::{Addr, AmoOp, LineAddr, LineData, MemOp, MemReq, MemResp, Width, LINE_BYTES};
