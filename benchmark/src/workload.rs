//! What a workload is to the runner: set-up that builds the inputs from the
//! seed, and a *unit* of fixed work that the runner repeats as identical
//! slices.

use crate::metrics::Values;
use crate::probes::ProbeCtx;
use crate::spans::Recorder;

/// What one unit of work produced.
#[derive(Clone, Debug, Default)]
pub struct UnitOutcome {
    /// Hash of everything the unit simulated (see [`crate::fingerprint`]).
    pub fingerprint: u64,
    /// Host wall time of each operation of the unit, in seconds: one per
    /// sweep cell, application run, full-system run or HTTP request.
    pub op_lat_s: Vec<f64>,
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Operations whose result was wrong, with the reason for each.
    pub failures: Vec<String>,
    /// Layer counts read at the unit's boundaries. Only filled in when the
    /// recorder is enabled (the traced unit): reading them costs host time.
    pub counts: Values,
}

impl UnitOutcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// A workload after set-up, ready to run units.
pub trait Workload {
    /// Runs one unit. Slice 0 is the warm-up, timed slices count from 1; a
    /// workload whose inputs must never repeat derives them from the number.
    fn unit(&mut self, slice: u64, rec: &mut Recorder) -> UnitOutcome;

    /// Stops whatever set-up started (servers, temporary directories).
    fn teardown(self: Box<Self>) {}
}

/// A workload's entry in the table.
pub struct WorkloadSpec {
    /// Name as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload is in the benchmark, in one line.
    pub why: &'static str,
    /// Slices of a full run; `--seconds` may end the run sooner.
    pub slices: u64,
    /// Builds inputs from the seed, constructs what persists across units
    /// and warms it. Timed as `setup_s`.
    pub setup: fn(seed: u64, rec: &mut Recorder) -> Box<dyn Workload>,
    /// Host-time probes of the layers this workload leans on, run in the
    /// traced pass.
    pub probes: fn(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values),
    /// Whether every slice simulates the same thing, so that every slice's
    /// fingerprint must equal the warm-up's.
    pub repeats: bool,
}

/// At most this many load threads, whatever the host has.
pub fn load_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Every workload, in the order the runner takes them.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "comm_sweeps",
        why: "94 short-lived dual-clock systems: System::new, adapter, CDC and edge skipping do the work, the mesh almost none",
        slices: 20,
        setup: crate::engine::CommSweeps::setup,
        probes: crate::probes::comm_sweeps,
        repeats: true,
    },
    WorkloadSpec {
        name: "fig12_apps",
        why: "the paper's headline experiment over 2 sweep threads: cores, coherent hierarchy, memory hubs and soft accelerators all carry load",
        slices: 8,
        setup: crate::engine::Fig12Apps::setup,
        probes: crate::probes::fig12_apps,
        repeats: true,
    },
    WorkloadSpec {
        name: "coherence_stream",
        why: "4 cores store over one shared 64 KB region with no eFPGA: L2, MSHRs, directory and per-message checkers are the whole cost",
        slices: 20,
        setup: crate::engine::StoreStream::coherence_stream,
        probes: crate::probes::coherence_stream,
        repeats: true,
    },
    WorkloadSpec {
        name: "noc_hotspot",
        why: "256 cores store into a 4 KB hotspot on a 16x16 mesh, one thread: Mesh::tick and the component passes dominate",
        slices: 24,
        setup: crate::engine::StoreStream::noc_hotspot,
        probes: crate::probes::noc_hotspot,
        repeats: true,
    },
    WorkloadSpec {
        name: "noc_hotspot_t2",
        why: "the same inputs with 2 simulation threads: ShardPool, EpochBarrier, per-shard lanes and the merge instead of the serial tick",
        slices: 16,
        setup: crate::engine::StoreStream::noc_hotspot_t2,
        probes: crate::probes::noc_hotspot_t2,
        repeats: true,
    },
    WorkloadSpec {
        name: "serve_hot",
        why: "2 closed-loop clients repeat 8 cached specs, 100% hits: accept, parse, hash, lookup and splice do the work, the engine none",
        slices: 16,
        setup: crate::serve::Serve::hot,
        probes: crate::probes::serve_hot,
        repeats: true,
    },
    WorkloadSpec {
        name: "serve_cold",
        why: "2 closed-loop clients send never-repeated specs, 100% misses: queue, execute, encode, insert and store append run on each",
        slices: 16,
        setup: crate::serve::Serve::cold,
        probes: crate::probes::serve_cold,
        repeats: false,
    },
];

/// Finds a workload by name.
pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
