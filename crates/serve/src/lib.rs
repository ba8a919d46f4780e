#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
//! # duet-serve
//!
//! A multi-tenant simulation service over the Duet full-system simulator:
//! an HTTP/JSON API (hand-rolled on `std::net` — the repo takes no
//! external dependencies) that accepts scenario specifications, executes
//! them on a bounded job queue with a worker pool, and memoizes results
//! in a **content-addressed cache**.
//!
//! The cache is the point. The simulator is bit-deterministic: a result
//! payload is a pure function of the scenario spec, so the spec's
//! canonical byte encoding (shared with the snapshot-header config hash)
//! names the result outright. A repeat submission returns the stored
//! bytes without simulating anything, and `?verify=1` inverts the bet —
//! re-run the spec and demand byte-identity — turning the service into a
//! standing determinism regression check.
//!
//! Failure is part of the API: a spec whose fault plan wedges the machine
//! (e.g. `accel_hang` with no degrade policy) comes back as a structured
//! deadlock report from the run loop's watchdog, and the worker moves on
//! to the next job.
//!
//! Module map:
//!
//! - [`json`] — dependency-free JSON with deterministic serialization
//! - [`spec`] — scenario specs, validation, canonical bytes, cache keys
//! - [`scenario`] — spec → `System` → run → payload / structured error
//! - [`cache`] — the content-addressed result cache (bounded memory
//!   tier + optional durable disk tier)
//! - [`hostio`] — injectable host I/O with a deterministic fault layer
//! - [`store`] — the crash-consistent append-only segment log
//! - [`queue`] — bounded queue, worker pool, per-tenant quotas, drain
//! - [`http`] — minimal HTTP/1.1 request/response plumbing
//! - [`server`] — routing and the cache/verify protocol
//! - [`client`] — a blocking client with bounded, deterministic retries

// The service layer refuses panics-as-control-flow: `unwrap` on `Option`/
// `Result` is warned crate-wide (lock poisoning uses `expect` with a
// message; worker panics are caught and become structured errors).

pub mod cache;
pub mod client;
pub mod hostio;
pub mod http;
pub mod json;
pub mod queue;
pub mod scenario;
pub mod server;
pub mod spec;
pub mod store;

pub use cache::{CacheConfig, CacheStats, ResultCache};
pub use client::RetryPolicy;
pub use hostio::{FaultyIo, HostIo, IoFaultPlan, MemIo, RealIo, SharedMemIo};
pub use queue::{JobStatus, JobView, Quota, ServiceState, SubmitError};
pub use server::{ServeConfig, Server};
pub use spec::{ScenarioSpec, SpecError, WorkloadSpec};
pub use store::{DiskStore, FsyncPolicy, RecoveryReport, StoreConfig, StoreStats};
