//! Runs one workload: set-up (several times), a warm-up unit, the timed
//! slices with tracing off, and — in the traced pass — one more unit under
//! the span recorder plus the layer probes.

use std::time::Instant;

use crate::fingerprint;
use crate::metrics::Values;
use crate::probes::ProbeCtx;
use crate::serve::out_dir;
use crate::spans::{self, Recorder};
use crate::stats::{self, Better};
use crate::workload::{Workload, WorkloadSpec};

/// Set-up is repeated at least this often, and then until it has taken
/// `SETUP_SECONDS` in all or run `SETUP_REPS_MAX` times; `setup_s` is the
/// best of them. Cheap set-ups (a 4-core system builds in 0.2 ms) need the
/// many repetitions to read steadily.
const SETUP_REPS_MIN: usize = 5;
const SETUP_REPS_MAX: usize = 200;
const SETUP_SECONDS: f64 = 0.3;
/// Timed slices a run never goes below, whatever `--seconds` says.
const MIN_SLICES: u64 = 3;
/// Samples a slice must have beyond its tail latency quantile.
const TAIL_BEYOND: usize = 10;

/// How to run a workload.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Seeds every generated input.
    pub seed: u64,
    /// Wall-clock budget of the timed slices.
    pub seconds: f64,
    /// Whether to add the traced pass and report per-layer metrics.
    pub trace: bool,
    /// One set-up, no warm-up, one slice, probes cut to a tenth.
    pub quick: bool,
    /// A fingerprint the run must reproduce (from an earlier run of the
    /// same workload and seed, possibly of another commit).
    pub expect_fingerprint: Option<u64>,
}

/// What a run found.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The workload's name.
    pub workload: &'static str,
    /// The seed it ran with.
    pub seed: u64,
    /// Operations checked over every unit run.
    pub attempted: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// Fingerprint of the first unit.
    pub fingerprint: u64,
    /// Every end-to-end metric.
    pub end_to_end: Values,
    /// Every per-layer metric; only filled in by a traced run.
    pub per_layer: Values,
}

impl RunResult {
    /// Whether every checked operation was right.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process, all threads.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, in clock ticks (100 per second on Linux).
    let after = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

struct Slice {
    wall_s: f64,
    lat_sorted: Vec<f64>,
}

/// Runs `spec` as `cfg` says.
pub fn run(spec: &'static WorkloadSpec, cfg: &RunConfig) -> RunResult {
    let mut quiet = Recorder::new(false);
    let mut result = RunResult {
        workload: spec.name,
        seed: cfg.seed,
        attempted: 0,
        failures: Vec::new(),
        fingerprint: 0,
        end_to_end: Values::default(),
        per_layer: Values::default(),
    };

    // Set-up, several times; the last one is kept and measured on.
    let mut workload: Option<Box<dyn Workload>> = None;
    let (mut setup_s, mut reps, setting_up) = (f64::INFINITY, 0, Instant::now());
    while reps == 0
        || !cfg.quick
            && (reps < SETUP_REPS_MIN
                || reps < SETUP_REPS_MAX && setting_up.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        if let Some(w) = workload.take() {
            w.teardown();
        }
        let start = Instant::now();
        workload = Some((spec.setup)(cfg.seed, &mut quiet));
        setup_s = setup_s.min(start.elapsed().as_secs_f64());
        reps += 1;
    }
    let mut workload = workload.expect("set-up ran at least once");

    let mut first_fp = None;
    let mut account = |result: &mut RunResult, slice: u64, out: &crate::workload::UnitOutcome| {
        result.attempted += out.attempted;
        result.failures.extend(out.failures.iter().cloned());
        let first = *first_fp.get_or_insert(out.fingerprint);
        if spec.repeats {
            result.attempted += 1;
            if out.fingerprint != first {
                result.failures.push(format!(
                    "slice {slice} simulated {}, the first unit {}",
                    fingerprint::hex(out.fingerprint),
                    fingerprint::hex(first)
                ));
            }
        }
    };

    // Slice 0 is the warm-up; `--quick` goes without.
    let mut next_slice = 1;
    if !cfg.quick {
        let out = workload.unit(0, &mut quiet);
        account(&mut result, 0, &out);
    }

    // Timed slices, tracing off.
    let mut slices: Vec<Slice> = Vec::new();
    let slice_cap = if cfg.quick { 1 } else { spec.slices };
    let (cpu0, timed) = (cpu_seconds(), Instant::now());
    while (slices.len() as u64) < slice_cap
        && ((slices.len() as u64) < MIN_SLICES.min(slice_cap)
            || timed.elapsed().as_secs_f64() < cfg.seconds)
    {
        let start = Instant::now();
        let out = workload.unit(next_slice, &mut quiet);
        let wall_s = start.elapsed().as_secs_f64();
        account(&mut result, next_slice, &out);
        next_slice += 1;
        slices.push(Slice {
            wall_s,
            lat_sorted: stats::sorted(&out.op_lat_s),
        });
    }
    let (timed_s, cpu_s) = (timed.elapsed().as_secs_f64(), cpu_seconds() - cpu0);

    let walls: Vec<f64> = slices.iter().map(|s| s.wall_s).collect();
    eprintln!("[benchmark] {} slice seconds: {walls:.4?}", spec.name);
    let per_slice = |f: &dyn Fn(&Slice) -> f64| slices.iter().map(f).collect::<Vec<f64>>();
    let best_unit_s = stats::best(&walls, Better::Lower);
    let lat_p50_s = stats::best(
        &per_slice(&|s| stats::quantile(&s.lat_sorted, 0.5)),
        Better::Lower,
    );
    let lat_p90_s = stats::best(
        &per_slice(&|s| stats::tail_quantile(&s.lat_sorted, 0.9, TAIL_BEYOND).0),
        Better::Lower,
    );
    let e = &mut result.end_to_end;
    e.set("setup_s", setup_s);
    e.set("unit_wall_s", best_unit_s);
    e.set(
        "req_per_s",
        stats::best(
            &per_slice(&|s| s.lat_sorted.len() as f64 / s.wall_s),
            Better::Higher,
        ),
    );
    e.set("lat_p50_ms", lat_p50_s * 1e3);
    e.set("lat_p90_ms", lat_p90_s * 1e3);

    if cfg.trace {
        // One more unit, every call into a layer inside a span.
        let mut rec = Recorder::new(true);
        let start = Instant::now();
        let out = rec.span("bench", "unit", next_slice, |rec| {
            workload.unit(next_slice, rec)
        });
        let traced_s = start.elapsed().as_secs_f64();
        account(&mut result, next_slice, &out);

        let v = &mut result.per_layer;
        *v = out.counts;
        let ops = &slices[0].lat_sorted;
        v.set("bench.slices", slices.len() as f64);
        v.set("bench.ops_per_slice", ops.len() as f64);
        v.set(
            "bench.lat_tail_pct",
            100.0 * stats::tail_quantile(ops, 0.9, TAIL_BEYOND).1,
        );
        v.set(
            "bench.slice_p50_s",
            stats::quantile(&stats::sorted(&walls), 0.5),
        );
        v.set("bench.slice_max_s", stats::best(&walls, Better::Higher));
        v.set("bench.slice_spread_pct", stats::spread_pct(&walls));
        v.set("bench.cpu_s", cpu_s);
        v.set("bench.cpu_util", cpu_s / timed_s);
        v.set(
            "bench.trace_overhead_pct",
            100.0 * (traced_s / best_unit_s - 1.0),
        );
        if v.get("system.executed_edges") > 0.0 {
            v.set(
                "system.ns_per_executed_edge",
                best_unit_s * 1e9 / v.get("system.executed_edges"),
            );
        }
        v.set("cpu.minstr_per_s", v.get("cpu.instret") / best_unit_s / 1e6);

        let ctx = ProbeCtx {
            seed: cfg.seed,
            best_unit_s,
            lat_p50_s,
            shrink: if cfg.quick { 10 } else { 1 },
        };
        rec.span("bench", "probes", next_slice, |rec| {
            (spec.probes)(&ctx, rec, v)
        });

        let root = &rec.spans()[0];
        v.set(
            "bench.trace_root_self_pct",
            100.0 * spans::self_time_ns(rec.spans(), 0) as f64 / root.duration_ns() as f64,
        );
        let path = out_dir().join(format!("trace-{}.json", spec.name));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, spans::chrome_trace(spec.name, rec.spans())));
        result.attempted += 1;
        if let Err(e) = written {
            result
                .failures
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }
    workload.teardown();

    result.fingerprint = first_fp.expect("at least one unit ran");
    if let Some(expect) = cfg.expect_fingerprint {
        result.attempted += 1;
        if result.fingerprint != expect {
            result.failures.push(format!(
                "simulated {}, expected {}",
                fingerprint::hex(result.fingerprint),
                fingerprint::hex(expect)
            ));
        }
    }
    result.end_to_end.set("peak_rss_mb", peak_rss_mb());
    if cfg.trace {
        result.per_layer.set(
            "failed_frac",
            result.failures.len() as f64 / result.attempted as f64,
        );
    }
    result
}
