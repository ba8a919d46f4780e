//! Command line: one workload (what the driver runs), every workload (what
//! a person runs), or a comparison of two results files.

use std::path::{Path, PathBuf};
use std::process::Command;

use duet_serve::json::{self, obj, Json};

use crate::compare;
use crate::report::{self, SCHEMA};
use crate::runner::{self, RunConfig};
use crate::serve::out_dir;
use crate::workload::{self, WORKLOADS};

/// Environment variables that change what the simulator or the harness
/// library does. Removed before anything is measured, so that a result never
/// depends on the caller's shell: thread counts are set in the configs.
pub const PINNED_ENV: [&str; 7] = [
    "DUET_SIM_THREADS",
    "DUET_SIM_FORCE_THREADS",
    "DUET_MESH_SHARDS",
    "DUET_DISABLE_EDGE_SKIP",
    "DUET_TRACE",
    "DUET_FAULTS",
    "DUET_BENCH_THREADS",
];

const USAGE: &str = "\
usage: benchmark [all] [--seed N] [--seconds S] [--out FILE] [--quick]
       benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                 [--out FILE] [--quick] [--expect-fingerprint HEX]
       benchmark compare A.json B.json [--spec BENCHMARK.json]";

#[derive(Debug, Default)]
struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    spec: Option<PathBuf>,
    expect_fingerprint: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        seconds: 10.0,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s| *s >= 1)
                    .ok_or("--seed takes a whole number from 1")?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(PathBuf::from(value("a file")?)),
            "--spec" => a.spec = Some(PathBuf::from(value("a file")?)),
            "--expect-fingerprint" => {
                a.expect_fingerprint = Some(
                    u64::from_str_radix(&value("16 hex digits")?, 16)
                        .map_err(|e| format!("--expect-fingerprint: {e}"))?,
                )
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => a.positional.push(arg.clone()),
        }
    }
    Ok(a)
}

/// Runs the command line and returns the exit code: 0 when everything ran
/// and every output was right, 1 when a check failed or a comparison found a
/// regression, 2 on a usage error.
pub fn main(args: &[String]) -> i32 {
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
    let parsed = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let outcome = match (
        parsed.positional.first().map(String::as_str),
        &parsed.workload,
    ) {
        (Some("compare"), _) => run_compare(&parsed),
        (None | Some("all"), None) => run_all(&parsed),
        (None, Some(name)) => run_one(name, &parsed),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, in this process. The result is the last line of standard
/// output; `--out` also gets the fuller record (the service prints to the
/// standard streams too, so the runner reads the file).
fn run_one(name: &str, a: &Args) -> Result<bool, String> {
    let spec = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("no workload {name}; there are {}", names.join(", "))
    })?;
    let cfg = RunConfig {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        quick: a.quick,
        expect_fingerprint: a.expect_fingerprint,
    };
    let r = runner::run(spec, &cfg);
    for f in &r.failures {
        eprintln!("FAILED {}: {f}", r.workload);
    }
    if let Some(path) = &a.out {
        write(path, &report::workload_record(&r, a.trace).to_json())?;
    }
    println!(
        "sim_fingerprint {} {}",
        r.workload,
        crate::fingerprint::hex(r.fingerprint)
    );
    println!("{}", report::result_line(&r, a.trace));
    Ok(r.correct())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload, one at a time, each pass in a child process of its own:
/// a fresh allocator and its own peak RSS per workload, and no environment
/// inherited beyond what [`PINNED_ENV`] leaves.
fn run_all(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let tmp = out_dir().join("tmp");
    let mut records = Vec::new();
    let mut all_correct = true;
    for spec in WORKLOADS {
        let mut merged: Option<Json> = None;
        for trace in ["0", "1"] {
            let file = tmp.join(format!("{}-{trace}-{}.json", spec.name, std::process::id()));
            let mut child = Command::new(&exe);
            child
                .args(["--workload", spec.name, "--trace", trace])
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .arg("--out")
                .arg(&file);
            if a.quick {
                child.arg("--quick");
            }
            for var in PINNED_ENV {
                child.env_remove(var);
            }
            eprintln!("[benchmark] {} (trace {trace})", spec.name);
            let status = child
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let text = std::fs::read_to_string(&file)
                .map_err(|e| format!("{} left no result ({status}): {e}", spec.name))?;
            let _ = std::fs::remove_file(&file);
            let record = json::parse(text.as_bytes())
                .map_err(|e| format!("{}: result does not parse: {e}", spec.name))?;
            all_correct &= status.success();
            merged = Some(match merged {
                None => record,
                Some(untraced) => merge_passes(untraced, record),
            });
        }
        let record = merged.expect("both passes ran");
        print!(
            "{}",
            report::table(
                &format!(
                    "== {} (sim_fingerprint {}) ==",
                    spec.name,
                    record
                        .get("sim_fingerprint")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                ),
                record.get("end_to_end").unwrap_or(&Json::Null)
            )
        );
        print!(
            "{}",
            report::table(
                "  -- per layer --",
                record.get("per_layer").unwrap_or(&Json::Null)
            )
        );
        records.push(record);
    }

    // The sharded run must simulate exactly what the serial one does.
    let fp = |name: &str| {
        records
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|r| r.get("sim_fingerprint"))
            .cloned()
    };
    if fp("noc_hotspot") != fp("noc_hotspot_t2") {
        eprintln!("FAILED: noc_hotspot and noc_hotspot_t2 simulated different things");
        all_correct = false;
    }

    let combined = obj([
        ("schema", Json::Str(SCHEMA.to_string())),
        (
            "host",
            obj([
                (
                    "nproc",
                    Json::U64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
                ),
                ("rustc", Json::Str(command_line("rustc", &["--version"]))),
                (
                    "commit",
                    Json::Str(command_line("git", &["rev-parse", "HEAD"])),
                ),
            ]),
        ),
        ("seed", Json::U64(a.seed)),
        ("seconds", Json::F64(a.seconds)),
        ("quick", Json::Bool(a.quick)),
        ("workloads", Json::Arr(records)),
    ]);
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("results.json"));
    write(&path, &combined.to_json())?;
    println!("results written to {}", path.display());
    println!(
        "{}",
        if all_correct {
            "all outputs correct"
        } else {
            "SOME OUTPUTS WRONG"
        }
    );
    Ok(all_correct)
}

/// The untraced pass gives the end-to-end metrics, the traced pass the
/// per-layer ones; attempts and failures add up.
fn merge_passes(untraced: Json, traced: Json) -> Json {
    let sum = |k: &str| {
        Json::U64(
            [&untraced, &traced]
                .iter()
                .filter_map(|r| r.get(k).and_then(Json::as_u64))
                .sum(),
        )
    };
    let failures: Vec<Json> = [&untraced, &traced]
        .iter()
        .flat_map(|r| r.get("failures").and_then(Json::as_arr).unwrap_or(&[]))
        .cloned()
        .collect();
    let take = |r: &Json, k: &str| r.get(k).cloned().unwrap_or(Json::Null);
    obj([
        ("name", take(&untraced, "name")),
        ("seed", take(&untraced, "seed")),
        ("sim_fingerprint", take(&untraced, "sim_fingerprint")),
        ("attempted", sum("attempted")),
        ("failed", sum("failed")),
        ("failures", Json::Arr(failures)),
        ("end_to_end", take(&untraced, "end_to_end")),
        ("per_layer", take(&traced, "per_layer")),
    ])
}

fn run_compare(a: &Args) -> Result<bool, String> {
    let [_, file_a, file_b] = a.positional.as_slice() else {
        return Err(USAGE.to_string());
    };
    let load = |path: &Path| {
        let text = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let spec_path = a
        .spec
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCHMARK.json"));
    let gates = compare::gates(&load(&spec_path)?)?;
    let rows = compare::compare(&load(Path::new(file_a))?, &load(Path::new(file_b))?, &gates)?;
    let (text, regressed) = compare::render(&rows);
    print!("{text}");
    Ok(!regressed)
}
