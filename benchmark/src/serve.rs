//! The two service workloads: an in-process `duet-serve` on a fresh store
//! directory, loaded by closed-loop clients over real TCP. The loop is
//! closed because the modelled callers — sweep scripts, CI, `loadgen` — wait
//! for each reply before sending the next request.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use duet_serve::client;
use duet_serve::json::{self, Json};
use duet_serve::{FsyncPolicy, ServeConfig, Server};

use crate::engine::{add_registry_counts, finish_counts, run_queue};
use crate::fingerprint;
use crate::spans::Recorder;
use crate::workload::{load_threads, UnitOutcome, Workload};

/// Specs in the hot set.
const HOT_SPECS: u64 = 8;
/// Requests per slice. Sizing runs on the 2-core host: with 800 hits (0.09 s)
/// a slice, the best of 16 slices moved 8 % run to run and its p90 11 %;
/// with 2000 (0.21 s) both stay within 3 %. The client opens one connection
/// per request, about 35 k a run for `serve_hot`; loopback reuses ports in
/// TIME_WAIT, and a 68 k-connection trial run saw no refusal.
const HOT_REQUESTS: u64 = 2000;
const COLD_REQUESTS: u64 = 500;

/// Where the benchmark may write: `benchmark/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh, empty directory under `out/tmp/`.
pub fn fresh_dir(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = out_dir().join("tmp").join(format!(
        "{label}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a directory under benchmark/out");
    dir
}

/// The server shape both workloads use: 2 workers, durable tier without
/// fsync.
pub fn start_server(store_dir: PathBuf) -> Server {
    Server::start(ServeConfig {
        workers: 2,
        store_dir: Some(store_dir),
        fsync: FsyncPolicy::Never,
        ..ServeConfig::default()
    })
    .expect("bind 127.0.0.1:0 and open the store")
}

/// A `popcount n=6` spec body.
pub fn spec_body(seed: u64) -> String {
    format!(r#"{{"workload":"popcount","n":6,"seed":{seed}}}"#)
}

/// The result payload inside a `POST /v1/runs?wait=1` reply: the server
/// splices it last, as `"result":<payload>}`, so these are the bytes the
/// cache holds.
pub fn result_payload(body: &[u8]) -> Option<&[u8]> {
    const KEY: &[u8] = br#","result":"#;
    let at = body.windows(KEY.len()).position(|w| w == KEY)?;
    body.strip_suffix(b"}").map(|b| &b[at + KEY.len()..])
}

/// One request's reply, kept for checking after the slice is timed.
struct Reply {
    spec: usize,
    status: u16,
    body: Vec<u8>,
}

/// `serve_hot` and `serve_cold`.
pub struct Serve {
    server: Option<Server>,
    dir: PathBuf,
    hot: bool,
    seed: u64,
    clients: usize,
    bodies: Vec<String>,
    /// Each hot spec's first cold payload; every hit must repeat it.
    first_payloads: Vec<Vec<u8>>,
}

impl Serve {
    /// Starts the server on a fresh store directory and simulates the hot
    /// set once.
    pub fn setup(hot: bool, seed: u64, rec: &mut Recorder) -> Serve {
        let dir = fresh_dir(if hot { "serve_hot" } else { "serve_cold" });
        let server = rec.span("duet-serve", "Server::start", 0, |_| {
            start_server(dir.clone())
        });
        let addr = server.addr();
        // The hot set: seeded specs, simulated once each during set-up.
        let bodies: Vec<String> = (0..HOT_SPECS)
            .map(|i| spec_body(seed * 1_000_000 + i))
            .collect();
        let first_payloads = rec.span("duet-serve", "prefill", 0, |rec| {
            bodies
                .iter()
                .map(|b| {
                    let reply = rec.span("duet-serve", "POST /v1/runs", 0, |_| {
                        client::post_json(addr, "/v1/runs?wait=1", None, b.as_bytes())
                            .expect("prefill request")
                    });
                    assert_eq!(reply.status, 200, "prefill refused");
                    result_payload(&reply.body)
                        .expect("prefill reply carries a result")
                        .to_vec()
                })
                .collect()
        });
        Serve {
            server: Some(server),
            dir,
            hot,
            seed,
            clients: load_threads(),
            bodies,
            first_payloads,
        }
    }

    /// 100 % hits on 8 prefilled specs.
    pub fn hot(seed: u64, rec: &mut Recorder) -> Box<dyn Workload> {
        Box::new(Self::setup(true, seed, rec))
    }

    /// 100 % misses: every request a never-repeated seed.
    pub fn cold(seed: u64, rec: &mut Recorder) -> Box<dyn Workload> {
        Box::new(Self::setup(false, seed, rec))
    }

    fn addr(&self) -> SocketAddr {
        self.server
            .as_ref()
            .expect("server runs until teardown")
            .addr()
    }

    /// The running server (tests poison its cache).
    pub fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until teardown")
    }
}

impl Workload for Serve {
    fn unit(&mut self, slice: u64, rec: &mut Recorder) -> UnitOutcome {
        let mut out = UnitOutcome::default();
        let addr = self.addr();
        let n = if self.hot {
            HOT_REQUESTS
        } else {
            COLD_REQUESTS
        };
        // Cold seeds start past the hot set and never repeat across slices.
        let cold_base = self.seed * 1_000_000 + HOT_SPECS + slice * COLD_REQUESTS;
        let requests: Vec<u64> = (0..n).collect();
        let state = self.server().state().clone();
        let (cache0, jobs0) = (state.cache.stats(), state.job_counts());
        let store0 = state.cache.store().map(|s| s.stats().appended_bytes);

        let done = run_queue(self.clients, &requests, rec, |&i, rec| {
            let cold;
            let (spec, body) = if self.hot {
                let spec = (i % HOT_SPECS) as usize;
                (spec, &self.bodies[spec])
            } else {
                cold = spec_body(cold_base + i);
                (usize::MAX, &cold)
            };
            let id = slice * n + i;
            let reply = rec.span("duet-serve", "POST /v1/runs", id, |_| {
                client::post_json(addr, "/v1/runs?wait=1", None, body.as_bytes())
            });
            match reply {
                Ok(r) => Reply {
                    spec,
                    status: r.status,
                    body: r.body,
                },
                Err(e) => Reply {
                    spec,
                    status: 0,
                    body: e.to_string().into_bytes(),
                },
            }
        });

        // Checked after the clock stops: status, cache verdict, payload.
        let want_cache = format!(r#""cache":"{}""#, if self.hot { "hit" } else { "miss" });
        let collect = rec.enabled();
        let mut payloads: Vec<&[u8]> = Vec::with_capacity(done.len());
        let mut delivered = 0u64;
        rec.span("bench", "check outputs", slice, |_| {
            for (i, (reply, lat)) in done.iter().enumerate() {
                out.op_lat_s.push(*lat);
                let payload = result_payload(&reply.body);
                payloads.push(payload.unwrap_or(&[]));
                let mut verdict = || -> Result<(), String> {
                    if reply.status != 200 {
                        return Err(format!(
                            "status {}: {}",
                            reply.status,
                            String::from_utf8_lossy(&reply.body)
                        ));
                    }
                    let payload = payload.ok_or("reply carries no result")?;
                    let envelope = &reply.body[..reply.body.len() - payload.len()];
                    if !String::from_utf8_lossy(envelope).contains(&want_cache) {
                        return Err(format!("expected {want_cache}"));
                    }
                    if self.hot {
                        // Checked for correctness when it was first simulated.
                        return if payload == self.first_payloads[reply.spec] {
                            Ok(())
                        } else {
                            Err("hit differs from the spec's first cold payload".into())
                        };
                    }
                    let parsed = json::parse(payload).map_err(|e| format!("payload: {e}"))?;
                    if parsed.get("correct").and_then(Json::as_bool) != Some(true) {
                        return Err("payload says the result is wrong".into());
                    }
                    let metrics = parsed.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
                    let metric = |k: &str| {
                        metrics
                            .iter()
                            .find(|(name, _)| name == k)
                            .and_then(|(_, v)| v.as_u64())
                    };
                    if metric("verify.violations") != Some(0) {
                        return Err("payload reports checker violations".into());
                    }
                    if collect {
                        add_registry_counts(
                            metrics
                                .iter()
                                .filter_map(|(k, v)| Some((k.as_str(), v.as_u64()?))),
                            &mut out.counts,
                        );
                        delivered += metric("mesh.delivered").unwrap_or(0);
                    }
                    Ok(())
                };
                let verdict = verdict();
                out.check(verdict.is_ok(), || {
                    format!("request {i} of slice {slice}: {}", verdict.unwrap_err())
                });
            }
        });
        // Cold slices simulate different specs, so only the first unit's
        // fingerprint (the same seeds on every run) is compared.
        out.fingerprint = fingerprint::of_payloads(payloads.iter().copied());

        if collect {
            let (cache1, jobs1) = (state.cache.stats(), state.job_counts());
            let v = &mut out.counts;
            finish_counts(v, delivered, n);
            v.set("serve.cache_hits", (cache1.hits - cache0.hits) as f64);
            v.set("serve.cache_misses", (cache1.misses - cache0.misses) as f64);
            v.set(
                "serve.cache_inserts",
                (cache1.inserts - cache0.inserts) as f64,
            );
            v.set(
                "serve.cache_evictions",
                (cache1.evictions - cache0.evictions) as f64,
            );
            if let (Some(b0), Some(store)) = (store0, state.cache.store()) {
                v.set(
                    "serve.store_appended_bytes",
                    (store.stats().appended_bytes - b0) as f64,
                );
            }
            v.set("serve.jobs_failed", (jobs1.3 - jobs0.3) as f64);
            // One attempt per request: a transport error is a failed
            // operation here, not a retry.
            v.set("serve.client_retries", 0.0);
            v.set(
                "serve.payload_bytes",
                payloads.iter().map(|p| p.len()).sum::<usize>() as f64 / n as f64,
            );
        }
        out
    }

    fn teardown(mut self: Box<Self>) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_payload_is_the_spliced_tail() {
        let body = br#"{"status":"done","cache":"hit","key":"00","result":{"a":{"result":1}}}"#;
        assert_eq!(
            result_payload(body),
            Some(br#"{"a":{"result":1}}"#.as_slice())
        );
        assert_eq!(result_payload(br#"{"status":"timeout","id":3}"#), None);
    }
}
