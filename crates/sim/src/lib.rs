#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # duet-sim
//!
//! Deterministic, dual-clock-domain, discrete-time simulation engine used by
//! every other crate in this workspace.
//!
//! The engine models time in **picoseconds** ([`Time`]) and clocks as
//! period/offset pairs ([`Clock`]). Components are plain structs ticked by
//! their owner on the edges of the clock domain they belong to; the
//! [`DualClock`] iterator yields the interleaved edge sequence of the fast
//! (processor) and slow (eFPGA) domains.
//!
//! Communication across clock domains uses [`AsyncFifo`], which models a
//! Gray-coded, multi-stage synchronizer: an entry pushed at time *t* becomes
//! visible to the consumer only after `sync_stages` consumer-clock edges
//! strictly after *t*, and the space freed by a pop becomes visible to the
//! producer only after `sync_stages` producer-clock edges. This single type
//! is the source of all clock-domain-crossing (CDC) cost in the Duet model.
//!
//! On top of the raw queue sits the **component graph** layer: ticking
//! structures implement [`Component`] (tick / `next_event_time` / `is_active`
//! / clock domain), and every edge between them is a typed, instrumented
//! [`Link`] — a CDC crossing or an explicitly-timed pipe — that counts
//! occupancy and backpressure stalls. The shared [`Horizon`] accumulator
//! merges per-component event times for the event-horizon scheduler.
//!
//! # Example
//!
//! ```
//! use duet_sim::{Clock, AsyncFifo};
//!
//! let fast = Clock::ghz1();                 // 1 GHz system clock
//! let slow = Clock::from_mhz(100.0);        // 100 MHz eFPGA clock
//! let mut fifo: AsyncFifo<u64> = AsyncFifo::new(4, 2, fast, slow);
//!
//! let t0 = fast.first_edge();
//! fifo.push(t0, 42).unwrap();
//! // Not yet visible: fewer than 2 slow edges have passed.
//! assert!(fifo.pop(t0).is_none());
//! let visible = slow.nth_edge_after(t0, 2);
//! assert_eq!(fifo.pop(visible), Some(42));
//! ```

pub mod bitset;
pub mod clock;
pub mod component;
pub mod fifo;
pub mod horizon;
pub mod link;
pub mod rng;
pub mod shard;
pub mod snapshot;
pub mod stats;
pub mod storage;
pub mod time;

pub use bitset::BitSet;
pub use clock::{Clock, DualClock, EdgeDomain};
pub use component::{ClockDomain, Component};
pub use fifo::{AsyncFifo, PushError};
pub use horizon::{merge_min, Horizon};
pub use link::{Link, LinkReport, LinkStats};
pub use rng::SimRng;
pub use shard::EpochBarrier;
pub use snapshot::{Pack, Snap, SnapError, SnapHasher, SnapReader, SnapWriter};
pub use stats::LatencyBreakdown;
pub use storage::{IdSlab, LineMap, PagedMem, ShardMem};
pub use time::Time;
