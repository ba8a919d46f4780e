#![warn(missing_docs)]
//! # duet-benchmark
//!
//! The repository's one repeatable benchmark. Seven workloads — five that
//! drive the simulator engine and two that load `duet-serve` — each a fixed
//! unit of work repeated as identical *slices*; every gated host-time metric
//! is the best slice. The same command checks that outputs are correct, and
//! a traced pass times every layer from outside, through its public
//! functions. No simulator or service code knows the benchmark exists.
//!
//! See `benchmark/README.md` for the metrics, the workloads and why each is
//! there.

pub mod cli;
pub mod compare;
pub mod engine;
pub mod fingerprint;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod runner;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod workload;
