#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
//! # duet-verify
//!
//! Fault injection, runtime protocol verification, and run-error reporting
//! for the Duet reproduction.
//!
//! The paper's central safety claim (PAPER.md §3–4) is that the Duet adapters
//! keep the host coherence protocol correct *regardless of what the
//! eFPGA-mapped accelerator does*. This crate provides the machinery to test
//! that claim:
//!
//! * [`FaultPlan`] — a deterministic, seeded schedule of injected faults
//!   (hung accelerators, frozen CDC FIFOs, dropped/delayed/reordered NoC
//!   traffic, stalled L3 response ports). Faults are pure functions of
//!   simulated time so runs replay bit-identically, and they are applied at
//!   the `Link<T>`/`Component` layer so no protocol code is forked.
//! * [`MesiChecker`] / [`NocOrderChecker`] — runtime observers that validate
//!   single-writer/multiple-reader exclusivity and NoC point-to-point
//!   ordering as messages are delivered. Observers never mutate simulation
//!   state, so enabling them cannot change a fingerprint.
//! * [`RunError`] / [`StallSnapshot`] — structured run outcomes replacing
//!   panic-based deadlines: a deadlock or protocol violation carries a
//!   per-component stall snapshot naming the components that wedged.
//!
//! The system-level wiring (where faults are actually applied and where the
//! checkers observe deliveries) lives in `duet-system`; this crate only
//! depends on the protocol/message layers so it can be unit-tested with
//! synthetic message streams.

pub mod fault;
pub mod mesi;
pub mod noc_order;
pub mod report;

pub use fault::{DegradeConfig, FaultIndex, FaultKind, FaultPlan, FaultSpec, PlanParseError};
pub use mesi::MesiChecker;
pub use noc_order::NocOrderChecker;
pub use report::{ComponentStall, RunError, StallSnapshot, Violation};
