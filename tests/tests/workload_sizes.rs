//! Every Fig. 12 workload is correct at every small size, on every variant.
//!
//! The paper-scale runs exercise each program's steady state only. These
//! sizes reach the boundaries instead: one element, the software-pipeline
//! depth (tangent's is 4) minus one, at and plus one, twice the depth, and
//! one slice, lane or worker count either side. Each cell must finish and
//! pass its workload's own output check. Seeds are fixed.

use duet_workloads::{
    barnes_hut, bfs, dijkstra, pdes, popcount, sort, tangent, AppResult, BenchVariant,
};

const VARIANTS: [BenchVariant; 3] = [
    BenchVariant::ProcOnly,
    BenchVariant::Duet,
    BenchVariant::Fpsoc,
];

/// Runs `run` on every variant for every size and lists the failing cells.
fn sweep<S: std::fmt::Debug + Copy>(
    app: &str,
    sizes: impl IntoIterator<Item = S>,
    run: impl Fn(BenchVariant, S) -> AppResult,
) -> Vec<String> {
    let mut failed = Vec::new();
    for size in sizes {
        for v in VARIANTS {
            if !run(v, size).correct {
                failed.push(format!("{app} {size:?} on {}", v.label()));
            }
        }
    }
    failed
}

#[test]
fn every_workload_is_correct_at_small_sizes() {
    let mut failed = Vec::new();
    failed.extend(sweep("tangent n", 1..=12, |v, n| tangent::run(v, n, 11)));
    failed.extend(sweep("popcount n", 1..=20, |v, n| popcount::run(v, n, 21)));
    failed.extend(sweep("sort/32 n", [32, 64, 96, 128], |v, n| {
        sort::run(v, 32, n, 31)
    }));
    failed.extend(sweep("dijkstra v", 2..=24, |v, n| {
        dijkstra::run(v, n, 8, 41)
    }));
    let circuits = (1..=6).flat_map(|w| (1..=3).map(move |l| (w, l)));
    failed.extend(sweep("pdes p2 (width, layers)", circuits, |v, (w, l)| {
        pdes::run(v, 2, w, l, 61)
    }));
    failed.extend(sweep("bfs p2 v", 2..=24, |v, n| bfs::run(v, 2, n, 4, 71)));
    failed.extend(sweep("barnes-hut p1 n", 2..=16, |v, n| {
        barnes_hut::run(v, 1, n, 51)
    }));
    assert!(failed.is_empty(), "wrong outputs: {failed:#?}");
}
