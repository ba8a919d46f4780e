//! Service-level tests for `duet-serve`: the content-addressed result
//! cache, the `?verify=1` determinism check, graceful degradation under
//! faulted specs, per-tenant quotas, and the fault-plan echo round-trip.
//!
//! Every test but one boots a real server on an ephemeral port and talks
//! to it over TCP through the crate's own client — the same path `curl`
//! takes. The result payload golden calls the scenario layer directly:
//! the bytes it pins are the ones the cache stores.

use std::time::Duration;

use duet_serve::client;
use duet_serve::json::{obj, parse, Json};
use duet_serve::queue::Quota;
use duet_serve::scenario::{self, RunOutcome};
use duet_serve::server::{ServeConfig, Server};
use duet_serve::spec::ScenarioSpec;

fn start(quota: Quota, workers: usize) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_cap: 64,
        quota,
        wait_timeout: Duration::from_secs(240),
        ..ServeConfig::default()
    })
    .expect("server starts")
}

fn field<'a>(v: &'a Json, k: &str) -> &'a Json {
    v.get(k)
        .unwrap_or_else(|| panic!("missing field '{k}' in {v}"))
}

/// The acceptance scenario: POST the same spec twice; the first run
/// simulates, the second is served from the cache with a byte-identical
/// result payload and an explicit `cache: hit` marker.
#[test]
fn double_submit_hits_the_cache_with_byte_identical_payload() {
    let server = start(Quota::default(), 2);
    let addr = server.addr();
    let body = br#"{"workload":"popcount","n":4,"seed":11,"variant":"duet"}"#;

    let first = client::post_json(addr, "/v1/runs?wait=1", Some("alice"), body).unwrap();
    assert_eq!(
        first.status,
        200,
        "{}",
        String::from_utf8_lossy(&first.body)
    );
    let fj = first.json().unwrap();
    assert_eq!(field(&fj, "status").as_str(), Some("done"));
    assert_eq!(field(&fj, "cache").as_str(), Some("miss"));
    let result1 = field(&fj, "result").to_json();
    assert_eq!(field(field(&fj, "result"), "correct").as_bool(), Some(true));

    let second = client::post_json(addr, "/v1/runs?wait=1", Some("bob"), body).unwrap();
    assert_eq!(second.status, 200);
    let sj = second.json().unwrap();
    assert_eq!(field(&sj, "status").as_str(), Some("done"));
    assert_eq!(field(&sj, "cache").as_str(), Some("hit"));
    let result2 = field(&sj, "result").to_json();
    assert_eq!(result1, result2, "cache hit must return identical payload");

    // The raw cached bytes are addressable by key, and the two responses
    // spliced them verbatim.
    let key = field(&sj, "key").as_str().unwrap().to_string();
    let raw = client::get(addr, &format!("/v1/cache/{key}")).unwrap();
    assert_eq!(raw.status, 200);
    assert_eq!(parse(&raw.body).unwrap().to_json(), result1);

    // Counters saw exactly one miss-then-insert and at least one hit.
    let stats = client::get(addr, "/v1/stats").unwrap().json().unwrap();
    let cache = field(&stats, "cache");
    assert_eq!(field(cache, "inserts").as_u64(), Some(1));
    assert!(field(cache, "hits").as_u64().unwrap() >= 1);

    server.shutdown();
}

/// A spec whose fault plan hangs the accelerator with no degrade policy
/// must come back as a structured deadlock error — and the worker that
/// ran it must stay alive to serve the next job.
#[test]
fn faulted_spec_degrades_gracefully_and_pool_stays_alive() {
    let server = start(Quota::default(), 1); // ONE worker: it must survive
    let addr = server.addr();

    let hang = br#"{"workload":"popcount","n":4,"seed":5,
        "faults":"fault accel_hang from_us=0\n","max_sim_us":500}"#;
    let resp = client::post_json(addr, "/v1/runs?wait=1", Some("alice"), hang).unwrap();
    assert_eq!(resp.status, 200);
    let j = resp.json().unwrap();
    assert_eq!(field(&j, "status").as_str(), Some("failed"));
    let err = field(&j, "error");
    assert_eq!(field(err, "kind").as_str(), Some("deadlock"));
    assert_eq!(
        field(err, "detail")
            .get("deadline_ps")
            .and_then(Json::as_u64),
        Some(500_000_000)
    );
    assert!(field(err, "at_ps").as_u64().is_some());
    assert!(
        !field(err, "message").as_str().unwrap().is_empty(),
        "deadlock error carries a human-readable report"
    );

    // Failed runs are never cached.
    let stats = client::get(addr, "/v1/stats").unwrap().json().unwrap();
    assert_eq!(field(field(&stats, "cache"), "inserts").as_u64(), Some(0));
    assert_eq!(field(field(&stats, "jobs"), "failed").as_u64(), Some(1));

    // The single worker picks up and completes a healthy job afterwards.
    let ok = br#"{"workload":"popcount","n":4,"seed":5}"#;
    let resp = client::post_json(addr, "/v1/runs?wait=1", Some("alice"), ok).unwrap();
    let j = resp.json().unwrap();
    assert_eq!(field(&j, "status").as_str(), Some("done"));
    assert_eq!(field(field(&j, "result"), "correct").as_bool(), Some(true));

    server.shutdown();
}

/// `?verify=1` re-runs a cache hit and compares bytes. A poisoned entry
/// is detected, reported as a 409 with a mismatch marker, and evicted so
/// the next submission repopulates the cache honestly.
#[test]
fn verify_detects_a_poisoned_cache_entry() {
    let server = start(Quota::default(), 2);
    let addr = server.addr();
    let body = br#"{"workload":"tangent","n":4,"seed":3}"#;

    // Populate.
    let first = client::post_json(addr, "/v1/runs?wait=1", None, body).unwrap();
    let fj = first.json().unwrap();
    assert_eq!(field(&fj, "status").as_str(), Some("done"));
    let result1 = field(&fj, "result").to_json();

    // A clean verify passes and reports so.
    let clean = client::post_json(addr, "/v1/runs?verify=1", None, body).unwrap();
    assert_eq!(clean.status, 200);
    let cj = clean.json().unwrap();
    assert_eq!(field(&cj, "cache").as_str(), Some("hit"));
    assert_eq!(field(&cj, "verified").as_bool(), Some(true));

    // Poison the stored entry through the test hook and verify again.
    let spec = ScenarioSpec::from_json(&parse(body).unwrap()).unwrap();
    assert!(server.state().cache.poison(spec.cache_key()));
    let caught = client::post_json(addr, "/v1/runs?verify=1", None, body).unwrap();
    assert_eq!(caught.status, 409);
    let kj = caught.json().unwrap();
    assert_eq!(field(&kj, "status").as_str(), Some("verify_mismatch"));
    assert_eq!(server.state().cache.stats().verify_mismatches, 1);

    // The poisoned entry was evicted: resubmitting simulates afresh and
    // lands the honest bytes back in the cache.
    let again = client::post_json(addr, "/v1/runs?wait=1", None, body).unwrap();
    let aj = again.json().unwrap();
    assert_eq!(field(&aj, "cache").as_str(), Some("miss"));
    assert_eq!(field(&aj, "result").to_json(), result1);

    server.shutdown();
}

/// Per-tenant quotas: a tenant at its queue limit gets 429 with a
/// structured quota error while other tenants keep submitting, and a
/// deadline above the sim-time quota is refused outright.
#[test]
fn tenant_quotas_return_structured_429s() {
    // Zero workers: jobs queue but never run, so admission behavior is
    // deterministic — no race against the execution path.
    let server = start(
        Quota {
            max_queued: 1,
            max_concurrent: 1,
            max_sim_us: 1_000,
        },
        0,
    );
    let addr = server.addr();

    let job = br#"{"workload":"popcount","n":8,"seed":1,"max_sim_us":1000}"#;
    let r = client::post_json(addr, "/v1/runs", Some("alice"), job).unwrap();
    assert_eq!(r.status, 202);
    let r = client::post_json(addr, "/v1/runs", Some("alice"), job).unwrap();
    assert_eq!(r.status, 429);
    let j = r.json().unwrap();
    let err = field(&j, "error");
    assert_eq!(field(err, "kind").as_str(), Some("quota_queued"));
    assert_eq!(field(err, "tenant").as_str(), Some("alice"));

    // Another tenant is unaffected by alice's backlog.
    let r = client::post_json(addr, "/v1/runs", Some("bob"), job).unwrap();
    assert_eq!(r.status, 202);

    // Sim-time quota.
    let big = br#"{"workload":"popcount","n":8,"seed":1,"max_sim_us":999999}"#;
    let r = client::post_json(addr, "/v1/runs", Some("carol"), big).unwrap();
    assert_eq!(r.status, 429);
    let j = r.json().unwrap();
    assert_eq!(
        field(field(&j, "error"), "kind").as_str(),
        Some("quota_sim_time")
    );

    server.shutdown();
}

/// The spec echo in job status responses round-trips the fault plan
/// through its lossless text format: parse(echo) == original, including
/// picosecond-granular bounds that the old integer-µs formatter lost.
#[test]
fn job_status_echoes_spec_with_lossless_fault_plan() {
    let server = start(Quota::default(), 1);
    let addr = server.addr();
    let plan = "seed = 9\ndegrade fence_after_us=2\nfault noc_delay node=1 from_us=1 until_us=3\nfault l3_stall node=2 from_us=2\n";
    let body = format!(
        r#"{{"workload":"popcount","n":3,"seed":8,"faults":{},"max_sim_us":300000}}"#,
        Json::Str(plan.to_string()).to_json()
    );
    let submitted = client::post_json(addr, "/v1/runs", Some("alice"), body.as_bytes()).unwrap();
    assert_eq!(submitted.status, 202);
    let id = field(&submitted.json().unwrap(), "id").as_u64().unwrap();

    let status = client::get(addr, &format!("/v1/runs/{id}")).unwrap();
    assert_eq!(status.status, 200);
    let j = status.json().unwrap();
    let echoed = field(&j, "spec");
    let original = ScenarioSpec::from_json(&parse(body.as_bytes()).unwrap()).unwrap();
    let round_tripped = ScenarioSpec::from_json(echoed).unwrap();
    assert_eq!(round_tripped, original);
    assert_eq!(round_tripped.faults.render(), original.faults.render());

    // Progress is reported against the spec's deadline.
    let progress = field(&j, "progress");
    assert_eq!(
        field(progress, "target_ps").as_u64(),
        Some(300_000 * 1_000_000)
    );

    server.shutdown();
}

/// Unknown routes, bad JSON, and bad specs map to structured 4xx errors.
#[test]
fn malformed_requests_get_structured_errors() {
    let server = start(Quota::default(), 1);
    let addr = server.addr();

    let r = client::get(addr, "/v1/nope").unwrap();
    assert_eq!(r.status, 404);

    let r = client::post_json(addr, "/v1/runs", None, b"{not json").unwrap();
    assert_eq!(r.status, 400);
    let j = r.json().unwrap();
    assert_eq!(field(field(&j, "error"), "kind").as_str(), Some("bad_json"));

    let r = client::post_json(addr, "/v1/runs", None, br#"{"workload":"sort"}"#).unwrap();
    assert_eq!(r.status, 400);
    let j = r.json().unwrap();
    assert_eq!(field(field(&j, "error"), "kind").as_str(), Some("bad_spec"));

    let r = client::get(addr, "/v1/runs/999").unwrap();
    assert_eq!(r.status, 404);

    let r = client::get(addr, "/healthz").unwrap();
    assert_eq!(r.status, 200);

    server.shutdown();
}

const PAYLOAD_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/serve_payloads_v1.txt");

/// The specs whose result payloads the golden records: popcount at every
/// size from 2 to 6 on all three variants, tangent, stream stores, and a
/// traced popcount whose scoreboard section carries `\n` escapes.
fn golden_specs() -> Vec<String> {
    let mut specs = Vec::new();
    for variant in ["proc-only", "duet", "fpsoc"] {
        for n in 2..=6 {
            specs.push(format!(
                r#"{{"workload":"popcount","variant":"{variant}","n":{n},"seed":42}}"#
            ));
        }
    }
    specs.push(r#"{"workload":"tangent","n":6,"seed":42}"#.to_string());
    specs.push(
        r#"{"workload":"stream_stores","variant":"proc-only","processors":4,"stores":64}"#
            .to_string(),
    );
    specs.push(r#"{"workload":"popcount","n":3,"seed":1,"trace":true}"#.to_string());
    specs
}

/// The payload as a `Json` tree encodes it: the oracle for the bytes
/// `scenario::result_payload` writes directly.
fn tree_payload(spec: &ScenarioSpec, out: &RunOutcome) -> Vec<u8> {
    let mut fields: Vec<(String, Json)> = vec![
        ("spec".to_string(), spec.to_json()),
        ("correct".to_string(), Json::Bool(out.correct)),
        ("sim_ps".to_string(), Json::U64(out.sim_ps)),
        (
            "stats".to_string(),
            obj([
                ("fast_edges", Json::U64(out.stats.fast_edges)),
                ("slow_edges", Json::U64(out.stats.slow_edges)),
                ("exceptions", Json::U64(out.stats.exceptions)),
                ("page_faults", Json::U64(out.stats.page_faults)),
            ]),
        ),
        (
            "metrics".to_string(),
            Json::Obj(
                out.metrics
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::U64(v)))
                    .collect(),
            ),
        ),
    ];
    if let Some(report) = &out.scoreboard {
        fields.push(("scoreboard".to_string(), Json::Str(report.clone())));
    }
    Json::Obj(fields).to_bytes()
}

/// Result payloads are what the cache stores and every hit returns, and a
/// `?verify=1` re-run compares against stored ones, so their bytes must
/// not move: `(len, SnapHasher)` of each spec's payload must equal the
/// committed golden, and equal the `Json` tree encoding of the same
/// outcome. Re-bless only for an intended payload format change:
/// `DUET_BLESS_GOLDEN=1 cargo test -p duet-tests --test serve_cache
/// result_payloads` — and say so in the commit message.
#[test]
fn result_payloads_match_golden() {
    use duet_sim::SnapHasher;

    let mut all = String::new();
    for body in golden_specs() {
        let spec = ScenarioSpec::from_json(&parse(body.as_bytes()).unwrap()).unwrap();
        let out = scenario::execute(&spec, |_| {}).expect("golden spec runs");
        let payload = scenario::result_payload(&spec, &out);
        assert!(
            payload == tree_payload(&spec, &out),
            "{body}: streamed payload differs from the tree encoding"
        );
        if spec.trace {
            let text = std::str::from_utf8(&payload).unwrap();
            assert!(text.contains(r"\n"), "{body}: scoreboard has no escapes");
        }
        let mut h = SnapHasher::new();
        h.bytes(&payload);
        all.push_str(&format!(
            "{body}: len={} hash={:016x}\n",
            payload.len(),
            h.finish()
        ));
    }
    if std::env::var("DUET_BLESS_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(PAYLOAD_GOLDEN, &all).unwrap();
        eprintln!("blessed result payload goldens to {PAYLOAD_GOLDEN}");
    }
    let golden = std::fs::read_to_string(PAYLOAD_GOLDEN)
        .expect("golden file missing; bless with DUET_BLESS_GOLDEN=1");
    for (want, got) in golden.lines().zip(all.lines()) {
        assert_eq!(got, want, "result payload bytes moved");
    }
    assert_eq!(
        all, golden,
        "result payload golden has a different spec list"
    );
}
