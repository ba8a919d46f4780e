//! Crash-recovery and robustness tests for the duet-serve disk tier.
//!
//! Two layers of coverage:
//!
//! 1. **In-process recovery** over `SharedMemIo` — stage exact damage
//!    (torn tails, flipped CRCs, bad headers, empty files) and check the
//!    recovery verdicts, plus the `FaultyIo` fault matrix (short writes,
//!    failed fsync, full disk → degraded mode).
//! 2. **End-to-end restart** over a real temp directory — run a real
//!    server with `--store`-equivalent config, populate it through HTTP,
//!    drop the server without any shutdown protocol, restart over the
//!    same directory, and demand `cache: hit` plus a clean `?verify=1`
//!    pass on every recovered entry.
//!
//! Plus the client-facing robustness satellites: socket io-timeout → 408
//! (slowloris), `Retry-After` on refusals, drain semantics, and the
//! retrying client riding them out.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use duet_serve::cache::{CacheConfig, ResultCache};
use duet_serve::client::{self, RetryPolicy};
use duet_serve::hostio::{FaultyIo, IoFaultPlan, MemIo, SharedMemIo};
use duet_serve::json::Json;
use duet_serve::queue::Quota;
use duet_serve::server::{ServeConfig, Server};
use duet_serve::store::{DiskStore, FsyncPolicy, StoreConfig};

fn field<'a>(v: &'a Json, k: &str) -> &'a Json {
    v.get(k)
        .unwrap_or_else(|| panic!("missing field '{k}' in {v}"))
}

/// A unique temp dir per test (no tempfile crate: pid + name suffice —
/// each test name is unique within one test-runner process).
fn temp_store_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("duet-store-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_with_store(dir: &Path, workers: usize) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        wait_timeout: Duration::from_secs(240),
        store_dir: Some(dir.to_path_buf()),
        fsync: FsyncPolicy::Always,
        ..ServeConfig::default()
    })
    .expect("server starts")
}

fn mem_store(fs: &SharedMemIo) -> DiskStore {
    DiskStore::open(StoreConfig::new("/store"), Box::new(fs.clone())).expect("store opens")
}

// ---------------------------------------------------------------------------
// In-process recovery over staged damage
// ---------------------------------------------------------------------------

#[test]
fn recovery_truncates_torn_tail_and_keeps_prior_records() {
    let fs = SharedMemIo::new();
    {
        let s = mem_store(&fs);
        for k in 0..8 {
            s.append(k, format!("payload-{k}").as_bytes());
        }
    }
    // Tear mid-record: chop 3 bytes off the segment.
    let seg = Path::new("/store").join("seg-000001.dlog");
    fs.with(|m| {
        let f = m.file_mut(&seg).expect("segment exists");
        let n = f.len();
        f.truncate(n - 3);
    });
    let s = mem_store(&fs);
    let report = s.recovery_report();
    assert_eq!(report.live_entries, 7, "torn record lost, rest recovered");
    assert!(report.truncated_bytes > 0);
    for k in 0..7 {
        assert_eq!(
            s.get(k).expect("recovered entry"),
            format!("payload-{k}").as_bytes(),
            "entry {k} must be byte-identical"
        );
    }
    assert!(s.get(7).is_none(), "torn record is gone, not corrupted");
}

#[test]
fn recovery_quarantines_flipped_crc_mid_file_and_keeps_the_rest() {
    let fs = SharedMemIo::new();
    {
        let s = mem_store(&fs);
        s.append(1, b"aaaa-payload");
        s.append(2, b"bbbb-payload");
        s.append(3, b"cccc-payload");
    }
    // Flip one payload bit in the middle record. Records are 25 + 12
    // bytes; the header is 20. Record 2's payload starts at
    // 20 + 37 + 17 = 74.
    let seg = Path::new("/store").join("seg-000001.dlog");
    fs.with(|m| m.file_mut(&seg).expect("segment")[74] ^= 0x01);
    let s = mem_store(&fs);
    let report = s.recovery_report();
    assert_eq!(report.quarantined_records, 1, "one corrupt middle record");
    assert_eq!(report.live_entries, 2);
    assert_eq!(s.get(1).unwrap(), b"aaaa-payload");
    assert!(s.get(2).is_none(), "corrupt record quarantined, not served");
    assert_eq!(s.get(3).unwrap(), b"cccc-payload", "later record survives");
}

#[test]
fn recovery_skips_bad_magic_and_bad_version_segments() {
    for stage in ["magic", "version"] {
        let fs = SharedMemIo::new();
        {
            let s = mem_store(&fs);
            s.append(1, b"doomed");
        }
        let seg = Path::new("/store").join("seg-000001.dlog");
        fs.with(|m| {
            let f = m.file_mut(&seg).expect("segment");
            match stage {
                "magic" => f[0] ^= 0xFF,
                _ => f[8] ^= 0xFF, // version u32 starts after the 8-byte magic
            }
        });
        let s = mem_store(&fs);
        let report = s.recovery_report();
        assert_eq!(report.skipped_segments, 1, "bad {stage} segment skipped");
        assert_eq!(report.live_entries, 0);
        assert!(report.segments[0].header_error.is_some());
        // The service stays writable: new appends land in a new segment.
        s.append(2, b"fresh");
        assert_eq!(s.get(2).unwrap(), b"fresh");
    }
}

#[test]
fn recovery_treats_empty_file_as_fresh_segment() {
    let fs = SharedMemIo::new();
    fs.with(|m| m.put_file(&Path::new("/store").join("seg-000001.dlog"), Vec::new()));
    let s = mem_store(&fs);
    let report = s.recovery_report();
    assert_eq!(report.segments.len(), 1);
    assert_eq!(report.segments[0].status, "empty");
    assert_eq!(report.live_entries, 0);
    s.append(1, b"first");
    assert_eq!(s.get(1).unwrap(), b"first");
}

/// Payload of `key` in the committed segment fixture: keys 0..=72 hold
/// `key` bytes (every length through nine CRC words), key 100 holds
/// 6000 (the size of a result record).
fn fixture_payload(key: u64) -> Vec<u8> {
    let len = if key <= 72 { key as usize } else { 6000 };
    (0..len).map(|i| (i as u64 * 31 + key * 7) as u8).collect()
}

/// `golden/store_segment_v1.dlog` was written by the byte-at-a-time CRC
/// implementation: keys 0..=72 and 100 appended with [`fixture_payload`],
/// then a tombstone for key 5. A CRC or framing change that stops such
/// segments from recovering whole would quarantine every record a running
/// service has already stored, so the fixture is never regenerated.
#[test]
fn segment_written_by_the_bytewise_crc_recovers_whole() {
    let fs = SharedMemIo::new();
    let seg = Path::new("/store").join("seg-000001.dlog");
    let fixture = include_bytes!("../golden/store_segment_v1.dlog");
    fs.with(|m| m.put_file(&seg, fixture.to_vec()));
    let s = mem_store(&fs);
    let report = s.recovery_report();
    assert_eq!(report.quarantined_records, 0, "{}", report.summary());
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(report.skipped_segments, 0);
    assert_eq!(report.recovered_records, 75, "74 puts and one tombstone");
    assert_eq!(report.live_entries, 73);
    for key in (0..=72).chain([100]) {
        if key == 5 {
            assert!(s.get(key).is_none(), "tombstoned key stays dead");
        } else {
            assert_eq!(s.get(key), Some(fixture_payload(key)), "key {key}");
        }
    }
    // The store keeps appending to the recovered segment, and a reopen
    // verifies old and new records alike.
    s.append(200, &fixture_payload(100));
    s.append(201, &fixture_payload(71));
    drop(s);
    let bytes = fs.with(|m| m.file(&seg).expect("segment").clone());
    assert_eq!(
        &bytes[..fixture.len()],
        &fixture[..],
        "recovered prefix untouched"
    );
    let s = mem_store(&fs);
    assert_eq!(s.recovery_report().quarantined_records, 0);
    assert_eq!(s.recovery_report().recovered_records, 77);
    assert_eq!(s.get(100), Some(fixture_payload(100)));
    assert_eq!(s.get(200), Some(fixture_payload(100)));
    assert_eq!(s.get(201), Some(fixture_payload(71)));
}

// ---------------------------------------------------------------------------
// HostIo fault matrix
// ---------------------------------------------------------------------------

#[test]
fn fault_matrix_short_writes_and_eintr_never_corrupt() {
    let plan = IoFaultPlan {
        seed: 99,
        short_write_every: 3,
        eintr_every: 7,
        ..IoFaultPlan::default()
    };
    let s = DiskStore::open(
        StoreConfig::new("/store"),
        Box::new(FaultyIo::new(MemIo::new(), plan)),
    )
    .unwrap();
    for k in 0..50 {
        s.append(k, vec![k as u8; 64].as_slice());
    }
    assert!(!s.is_degraded());
    for k in 0..50 {
        assert_eq!(s.get(k).unwrap(), vec![k as u8; 64]);
    }
}

#[test]
fn fault_matrix_failed_fsync_degrades_to_memory_only() {
    let fs = SharedMemIo::new();
    let plan = IoFaultPlan {
        fail_sync_after: Some(2),
        ..IoFaultPlan::default()
    };
    let store = DiskStore::open(
        StoreConfig::new("/store"),
        Box::new(FaultyIo::new(fs.clone(), plan)),
    )
    .unwrap();
    let cache = ResultCache::with_config(CacheConfig {
        max_bytes: 1 << 20,
        store: Some(Arc::new(store)),
    });
    cache.insert(1, b"one".to_vec());
    cache.insert(2, b"two".to_vec());
    cache.insert(3, b"three".to_vec()); // sync #3 fails → degraded
    let store = cache.store().expect("store configured");
    assert!(store.is_degraded());
    // Degraded ≠ broken: the memory tier still answers everything.
    assert_eq!(cache.lookup(1).unwrap().as_slice(), b"one");
    assert_eq!(cache.lookup(3).unwrap().as_slice(), b"three");
    cache.insert(4, b"four".to_vec());
    assert_eq!(cache.lookup(4).unwrap().as_slice(), b"four");
    assert!(store.stats().append_errors >= 1);
}

#[test]
fn fault_matrix_full_disk_degrades_and_service_continues() {
    let plan = IoFaultPlan {
        disk_capacity: Some(100),
        ..IoFaultPlan::default()
    };
    let store = DiskStore::open(
        StoreConfig::new("/store"),
        Box::new(FaultyIo::new(MemIo::new(), plan)),
    )
    .unwrap();
    let cache = ResultCache::with_config(CacheConfig {
        max_bytes: 1 << 20,
        store: Some(Arc::new(store)),
    });
    // Each record is 25 + payload bytes + 20 header once: the third
    // insert must blow the 100-byte budget.
    cache.insert(1, vec![0xAA; 30]);
    cache.insert(2, vec![0xBB; 30]);
    cache.insert(3, vec![0xCC; 30]);
    assert!(cache.store().unwrap().is_degraded(), "ENOSPC degrades");
    // Memory tier unaffected; later inserts skip the dead disk.
    for k in 1..=3 {
        assert!(cache.lookup(k).is_some());
    }
    cache.insert(4, vec![0xDD; 30]);
    assert!(cache.lookup(4).is_some());
}

// ---------------------------------------------------------------------------
// End-to-end: restart over a real directory, verify every recovered entry
// ---------------------------------------------------------------------------

#[test]
fn restart_serves_recovered_entries_as_hits_and_verify_passes() {
    let dir = temp_store_dir("restart");
    let specs: Vec<&[u8]> = vec![
        br#"{"workload":"popcount","n":4,"seed":21}"#,
        br#"{"workload":"popcount","n":4,"seed":22}"#,
        br#"{"workload":"tangent","n":4,"seed":21}"#,
    ];

    // Generation 1: populate through real HTTP, then drop the server
    // abruptly (no drain, no flush beyond per-append fsync).
    let mut keys = Vec::new();
    {
        let server = start_with_store(&dir, 2);
        let addr = server.addr();
        for body in &specs {
            let resp = client::post_json(addr, "/v1/runs?wait=1", Some("t"), body).unwrap();
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
            let j = resp.json().unwrap();
            assert_eq!(field(&j, "cache").as_str(), Some("miss"));
            keys.push(field(&j, "key").as_str().unwrap().to_string());
        }
        server.shutdown();
    }

    // Generation 2: fresh process state, same directory.
    let server = start_with_store(&dir, 2);
    let addr = server.addr();
    let stats = client::get(addr, "/v1/stats").unwrap().json().unwrap();
    let store_stats = field(&stats, "store");
    assert_eq!(field(store_stats, "enabled").as_bool(), Some(true));
    assert_eq!(
        field(store_stats, "indexed_entries").as_u64(),
        Some(specs.len() as u64)
    );
    let recovery = client::get(addr, "/v1/recovery").unwrap();
    assert_eq!(recovery.status, 200);
    let rj = recovery.json().unwrap();
    assert_eq!(
        field(&rj, "live_entries").as_u64(),
        Some(specs.len() as u64)
    );
    assert_eq!(field(&rj, "quarantined_records").as_u64(), Some(0));

    for (body, key) in specs.iter().zip(&keys) {
        // Every entry must hit — nothing was re-simulated yet — and the
        // verify pass re-runs the spec and demands byte-identity with
        // the payload that crossed a process restart.
        let resp = client::post_json(addr, "/v1/runs?wait=1&verify=1", Some("t"), body).unwrap();
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let j = resp.json().unwrap();
        assert_eq!(field(&j, "cache").as_str(), Some("hit"));
        assert_eq!(field(&j, "verified").as_bool(), Some(true));
        assert_eq!(field(&j, "key").as_str(), Some(key.as_str()));
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_after_torn_tail_on_disk_recovers_the_intact_prefix() {
    let dir = temp_store_dir("torn");
    let good: &[u8] = br#"{"workload":"popcount","n":4,"seed":31}"#;
    let torn: &[u8] = br#"{"workload":"popcount","n":4,"seed":32}"#;
    {
        let server = start_with_store(&dir, 2);
        let addr = server.addr();
        for body in [good, torn] {
            let r = client::post_json(addr, "/v1/runs?wait=1", Some("t"), body).unwrap();
            assert_eq!(r.status, 200);
        }
        server.shutdown();
    }
    // Simulate a crash mid-append: tear bytes off the end of the last
    // segment, exactly what a kill-9 during a record write leaves.
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .max()
        .expect("segment file exists");
    let bytes = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &bytes[..bytes.len() - 9]).unwrap();

    let server = start_with_store(&dir, 2);
    let addr = server.addr();
    let rj = client::get(addr, "/v1/recovery").unwrap().json().unwrap();
    assert_eq!(field(&rj, "live_entries").as_u64(), Some(1));
    assert!(field(&rj, "truncated_bytes").as_u64().unwrap() > 0);
    // The surviving entry hits and verifies; the torn one is a miss that
    // re-simulates cleanly (self-healing, not an error).
    let r = client::post_json(addr, "/v1/runs?wait=1&verify=1", Some("t"), good).unwrap();
    let j = r.json().unwrap();
    assert_eq!(field(&j, "cache").as_str(), Some("hit"));
    assert_eq!(field(&j, "verified").as_bool(), Some(true));
    let r = client::post_json(addr, "/v1/runs?wait=1", Some("t"), torn).unwrap();
    let j = r.json().unwrap();
    assert_eq!(field(&j, "cache").as_str(), Some("miss"));
    assert_eq!(field(&j, "status").as_str(), Some("done"));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_enabled_and_disabled_produce_bit_identical_payloads() {
    let dir = temp_store_dir("parity");
    let body: &[u8] = br#"{"workload":"tangent","n":5,"seed":77}"#;
    let with_store = {
        let server = start_with_store(&dir, 2);
        let r = client::post_json(server.addr(), "/v1/runs?wait=1", Some("t"), body).unwrap();
        server.shutdown();
        r.json().unwrap().get("result").unwrap().to_json()
    };
    let without_store = {
        let server = Server::start(ServeConfig {
            wait_timeout: Duration::from_secs(240),
            ..ServeConfig::default()
        })
        .unwrap();
        let r = client::post_json(server.addr(), "/v1/runs?wait=1", Some("t"), body).unwrap();
        server.shutdown();
        r.json().unwrap().get("result").unwrap().to_json()
    };
    assert_eq!(
        with_store, without_store,
        "persistence must not perturb simulation results"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Robustness satellites: timeouts, Retry-After, drain, retrying client
// ---------------------------------------------------------------------------

#[test]
fn slow_client_gets_408_within_the_io_timeout() {
    let server = Server::start(ServeConfig {
        io_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    // A slowloris peer: open, dribble half a request line, stall.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /v1/st").unwrap();
    stream.flush().unwrap();
    let mut raw = Vec::new();
    use std::io::Read;
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "expected 408, got: {text}"
    );
    assert!(text.contains("\"timeout\""), "structured body: {text}");
    server.shutdown();
}

#[test]
fn refusals_carry_retry_after_and_drain_kind_is_distinct() {
    // workers=0 wedges the queue so refusals are easy to provoke.
    let server = Server::start(ServeConfig {
        workers: 0,
        queue_cap: 8,
        quota: Quota {
            max_queued: 1,
            max_concurrent: 1,
            max_sim_us: 2_000_000,
        },
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let body: &[u8] = br#"{"workload":"popcount","n":2,"seed":3}"#;

    // Fill the queue, then overflow it: 429 (tenant quota) with Retry-After.
    assert_eq!(
        client::post_json(addr, "/v1/runs", Some("a"), body)
            .unwrap()
            .status,
        202
    );
    let refused = client::post_json(addr, "/v1/runs", Some("a"), body).unwrap();
    assert_eq!(refused.status, 429);
    assert_eq!(refused.retry_after_secs(), Some(1));

    // Begin draining: submissions now get the dedicated "draining" kind.
    assert_eq!(
        client::request(addr, "POST", "/v1/drain", &[], b"")
            .unwrap()
            .status,
        202
    );
    let drained = client::post_json(addr, "/v1/runs", Some("b"), body).unwrap();
    assert_eq!(drained.status, 503);
    assert_eq!(drained.retry_after_secs(), Some(5));
    let j = drained.json().unwrap();
    assert_eq!(
        field(field(&j, "error"), "kind").as_str(),
        Some("draining"),
        "draining must be distinguishable from queue_full"
    );

    // Readiness flips to 503 while liveness stays 200.
    let health = client::get(addr, "/v1/health").unwrap();
    assert_eq!(health.status, 503);
    let hj = health.json().unwrap();
    assert_eq!(field(&hj, "draining").as_bool(), Some(true));
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    server.shutdown();
}

#[test]
fn retrying_client_rides_out_queue_pressure() {
    // One worker, tiny queue: bursts refuse with 429/503 and clear as
    // the worker drains — exactly what the retry loop is for.
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_cap: 2,
        quota: Quota {
            max_queued: 2,
            max_concurrent: 1,
            max_sim_us: 2_000_000,
        },
        wait_timeout: Duration::from_secs(240),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let bodies: Vec<String> = (0..6)
        .map(|s| format!(r#"{{"workload":"popcount","n":2,"seed":{s}}}"#))
        .collect();
    let handles: Vec<_> = bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| {
            std::thread::spawn(move || {
                let policy = RetryPolicy {
                    max_attempts: 8,
                    base_ms: 20,
                    max_ms: 500,
                    seed: i as u64,
                };
                client::post_json_retry(
                    addr,
                    "/v1/runs?wait=1",
                    Some("t"),
                    body.as_bytes(),
                    &policy,
                )
            })
        })
        .collect();
    for h in handles {
        let resp = h.join().unwrap().expect("request eventually lands");
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    }
    server.shutdown();
}
