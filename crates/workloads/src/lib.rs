#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # duet-workloads
//!
//! The benchmarks of the paper's evaluation (Sec. V): the synthetic
//! CPU↔eFPGA communication microbenchmarks (Figs. 9–11) and the seven
//! application benchmarks of Fig. 12, each with a processor-only IR
//! baseline, a soft-accelerator design, and a Duet/FPSoC driver program.

pub mod barnes_hut;
pub mod bfs;
pub mod common;
pub mod dijkstra;
pub mod locks;
pub mod pdes;
pub mod popcount;
pub mod sort;
pub mod synthetic;
pub mod tangent;

pub use common::{AppResult, BenchVariant};
pub use popcount::POPCOUNT_MHZ;
pub use synthetic::{
    bandwidth_system, measure_bandwidth, measure_contention, measure_latency,
    measure_latency_traced, BandwidthPoint, ContentionPoint, LatencyPoint, Mechanism, Scratchpad,
};
pub use tangent::TANGENT_MHZ;
