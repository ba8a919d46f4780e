//! The benchmark run as a user runs it: the `benchmark` binary, every
//! workload and probe, the files it writes, and its exit code when a
//! correctness check is made to fail.

use std::path::{Path, PathBuf};
use std::process::Command;

use duet_benchmark::metrics::{END_TO_END, PER_LAYER};
use duet_benchmark::report::num;
use duet_benchmark::serve::{out_dir, Serve};
use duet_benchmark::spans::Recorder;
use duet_benchmark::workload::{Workload, WORKLOADS};
use duet_benchmark::{engine, fingerprint};
use duet_serve::json::{self, Json};
use duet_serve::ScenarioSpec;

fn benchmark() -> Command {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
}

fn load(path: &Path) -> Json {
    let text = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn scratch(name: &str) -> PathBuf {
    out_dir()
        .join("tmp")
        .join(format!("test-{}-{name}", std::process::id()))
}

/// `--quick`: one slice per workload, every probe, both passes.
#[test]
fn quick_mode_runs_every_workload_and_probe() {
    let out = scratch("quick.json");
    let status = benchmark()
        .args(["all", "--quick", "--seed", "2", "--out"])
        .arg(&out)
        // The runner must not let the caller's environment through.
        .env("DUET_SIM_THREADS", "7")
        .env("DUET_DISABLE_EDGE_SKIP", "1")
        .status()
        .expect("benchmark binary runs");
    assert!(status.success(), "quick run failed: {status}");

    let results = load(&out);
    assert_eq!(
        results.get("schema").and_then(Json::as_str),
        Some(duet_benchmark::report::SCHEMA)
    );
    let workloads = results.get("workloads").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());

    let mut measured = std::collections::BTreeSet::new();
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap();
        assert_eq!(w.get("failed").and_then(Json::as_u64), Some(0), "{name}");
        assert!(w.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        let value = |section: &str, metric: &str| {
            w.get(section)
                .and_then(|s| s.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(num)
                .unwrap_or_else(|| panic!("{name} lacks {metric}"))
        };
        // Every end-to-end metric, on every workload, and never 0.
        for d in END_TO_END {
            assert!(value("end_to_end", d.name) > 0.0, "{name} {}", d.name);
        }
        for d in PER_LAYER {
            let v = value("per_layer", d.name);
            assert!(v.is_finite(), "{name} {}", d.name);
            if v != 0.0 {
                measured.insert(d.name);
            }
        }
        assert_eq!(value("per_layer", "failed_frac"), 0.0);
        assert_eq!(value("per_layer", "verify.violations"), 0.0);

        // One loadable trace per workload, its spans covering the unit.
        let trace = load(&out_dir().join(format!("trace-{name}.json")));
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        let root = &events[0];
        assert_eq!(root.get("name").and_then(Json::as_str), Some("unit"));
        let arg = |e: &Json, k: &str| e.get("args").and_then(|a| a.get(k)).and_then(num);
        let root_self_us = arg(root, "self_ns").unwrap() / 1e3;
        let root_us = root.get("dur").and_then(num).unwrap();
        assert!(
            root_self_us <= 0.05 * root_us,
            "{name}: {root_self_us} us of a {root_us} us unit is outside every span"
        );
        // The unit's spans come before the probes'. Their self times add
        // back up to the unit (one lane) or exceed it by what ran in
        // parallel (two lanes); nothing is lost.
        let unit_self_us: f64 = events
            .iter()
            .take_while(|e| e.get("name").and_then(Json::as_str) != Some("probes"))
            .filter_map(|e| arg(e, "self_ns"))
            .sum::<f64>()
            / 1e3;
        assert!(
            unit_self_us >= 0.95 * root_us,
            "{name}: self times sum to {unit_self_us} us of a {root_us} us unit"
        );
    }
    // Every host-time probe is at home on some workload. (Counts may read
    // 0 everywhere: no workload merges MSHRs or times a register out.)
    for d in PER_LAYER {
        let timed = ["s", "ms", "us", "ns", "MB/s", "M/s"].contains(&d.unit);
        assert!(
            !timed || measured.contains(d.name),
            "{} is measured on no workload",
            d.name
        );
    }
    for name in ["paper_err_pct", "system.executed_edges", "serve.cache_hits"] {
        assert!(measured.contains(name), "{name} is 0 on every workload");
    }

    // The sharded and the serial hotspot simulate the same thing.
    let fp = |name: &str| {
        workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|w| w.get("sim_fingerprint"))
            .and_then(Json::as_str)
            .unwrap()
    };
    assert_eq!(fp("noc_hotspot"), fp("noc_hotspot_t2"));

    // A results file compares clean against itself; the spec is the
    // repository's own.
    let spec = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let status = benchmark()
        .arg("compare")
        .args([&out, &out])
        .arg("--spec")
        .arg(&spec)
        .status()
        .unwrap();
    assert!(status.success());
    let _ = std::fs::remove_file(&out);
}

/// `BENCHMARK.json` lists exactly the names the program prints.
#[test]
fn benchmark_json_matches_the_tables() {
    let spec = load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    let listed = |key: &str| -> Vec<(String, String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let table = |t: &[duet_benchmark::metrics::MetricDef]| -> Vec<(String, String, String)> {
        t.iter()
            .map(|d| {
                let better = match d.better {
                    duet_benchmark::stats::Better::Lower => "lower",
                    duet_benchmark::stats::Better::Higher => "higher",
                };
                (d.name.to_string(), d.unit.to_string(), better.to_string())
            })
            .collect()
    };
    assert_eq!(listed("end_to_end"), table(END_TO_END));
    assert_eq!(listed("per_layer"), table(PER_LAYER));
    let workloads: Vec<(String, String)> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| {
            let s = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
            (s("name"), s("why"))
        })
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(workloads, ours);
    assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
}

/// Two builds of one workload hash equal; another seed does not.
#[test]
fn fingerprints_repeat_across_builds_and_follow_the_seed() {
    let mut quiet = Recorder::new(false);
    let unit = |seed: u64, quiet: &mut Recorder| {
        let mut w = engine::StoreStream::coherence_stream(seed, quiet);
        let out = w.unit(0, quiet);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        out.fingerprint
    };
    let a = unit(5, &mut quiet);
    assert_eq!(a, unit(5, &mut quiet));
    assert_ne!(a, unit(6, &mut quiet));
}

/// A poisoned cache entry is a failed operation.
#[test]
fn poisoned_cache_payload_fails_the_unit() {
    let mut quiet = Recorder::new(false);
    let mut serve = Serve::setup(true, 9, &mut quiet);
    let clean = serve.unit(0, &mut quiet);
    assert!(clean.failures.is_empty(), "{:?}", clean.failures);

    let body = duet_benchmark::serve::spec_body(9 * 1_000_000);
    let spec = ScenarioSpec::from_json(&json::parse(body.as_bytes()).unwrap()).unwrap();
    assert!(serve.server().state().cache.poison(spec.cache_key()));
    let poisoned = serve.unit(1, &mut quiet);
    // One spec of eight is poisoned: an eighth of the slice's hits are wrong.
    assert_eq!(poisoned.failures.len() as u64, poisoned.attempted / 8);
    assert!(poisoned.failures[0].contains("differs from the spec's first cold payload"));
    assert_ne!(poisoned.fingerprint, clean.fingerprint);
    Box::new(serve).teardown();
}

/// The command exits non-zero, and says why, when the simulated
/// fingerprint is not the expected one.
#[test]
fn wrong_expected_fingerprint_fails_the_command() {
    let out = scratch("fp.json");
    let run = |expect: Option<&str>| {
        let mut cmd = benchmark();
        cmd.args([
            "--workload",
            "coherence_stream",
            "--quick",
            "--seed",
            "4",
            "--out",
        ])
        .arg(&out);
        if let Some(fp) = expect {
            cmd.args(["--expect-fingerprint", fp]);
        }
        let output = cmd.output().unwrap();
        let record = load(&out);
        (output, record)
    };
    let (output, record) = run(None);
    assert!(output.status.success());
    let fp = record
        .get("sim_fingerprint")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    // The right fingerprint passes…
    assert!(run(Some(&fp)).0.status.success());
    // …one flipped bit does not.
    let poisoned = fingerprint::hex(u64::from_str_radix(&fp, 16).unwrap() ^ 1);
    let (output, record) = run(Some(&poisoned));
    assert_eq!(output.status.code(), Some(1));
    assert_eq!(record.get("failed").and_then(Json::as_u64), Some(1));
    let last = String::from_utf8_lossy(&output.stdout);
    let last = json::parse(last.trim().lines().last().unwrap().as_bytes()).unwrap();
    assert_eq!(last.get("correct").and_then(Json::as_bool), Some(false));
    let _ = std::fs::remove_file(&out);
}
