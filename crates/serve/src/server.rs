//! The service itself: listener, routing, and the cache/verify protocol.
//!
//! # API
//!
//! | Route | What it does |
//! |---|---|
//! | `GET /healthz` | liveness probe |
//! | `GET /v1/health` | readiness: 200 while serving, 503 once draining |
//! | `GET /v1/stats` | cache + store + queue counters, handlers spawned, connections accepted, degradation flags |
//! | `GET /v1/recovery` | the startup recovery report (requires `--store`) |
//! | `POST /v1/runs` | submit a scenario spec; `?wait=1` blocks for the result, `?verify=1` re-runs cache hits and demands byte-identity |
//! | `GET /v1/runs/<id>` | job status, progress, spec echo, result/error |
//! | `GET /v1/cache/<key>` | raw cached payload by content address |
//! | `POST /v1/drain` | begin graceful drain: finish in-flight jobs, refuse new ones |
//!
//! Tenancy comes from the `X-Duet-Tenant` header (default `"anon"`).
//! Cache-hit responses splice the stored payload bytes verbatim into the
//! envelope, so two hits on the same key are byte-identical — the
//! property the service tests pin down.
//!
//! Refusals carry structured bodies and, when a retry can help, a
//! `Retry-After` header; accepted sockets get read/write timeouts so a
//! slowloris peer holds one connection handler for a bounded time (408).
//! A keep-alive connection that sits idle past the same timeout is closed
//! without a reply.
//!
//! # Connections
//!
//! Connections are served by a leader/follower pool of handler threads,
//! each blocked in `accept` on the shared listener. The pool starts
//! with one handler; the handler that takes the last idle slot spawns a
//! successor, up to `workers + queue_cap + 2` — one per job that can be
//! running or queued (each may hold a `?wait=1` handler), plus two so a
//! full queue can still be refused and polled. Handlers live until
//! [`Server::shutdown`], which joins them all.
//!
//! A handler answers requests on its connection until the peer closes,
//! the connection idles past `io_timeout`, or a reply goes out with
//! `connection: close`. A reply keeps the connection only if the request
//! asked for `keep-alive`, the server is not stopping, and another
//! handler is idle in `accept` — so a kept connection never holds the
//! last handler that could take a new one. Shutdown shuts the read half
//! of every open connection, so idle keep-alive peers release their
//! handlers at once.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::cache::{CacheConfig, ResultCache};
use crate::hostio::RealIo;
use crate::http::{read_next, write_response, Request};
use crate::json::{obj, parse, Json};
use crate::queue::{JobStatus, JobView, Quota, ServiceState};
use crate::scenario;
use crate::spec::ScenarioSpec;
use crate::store::{DiskStore, FsyncPolicy, StoreConfig};

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads executing simulations. `0` is allowed (jobs queue
    /// but never run) — useful for tests that pin down admission
    /// behavior without racing the execution path.
    pub workers: usize,
    /// Global queue capacity.
    pub queue_cap: usize,
    /// Per-tenant admission limits.
    pub quota: Quota,
    /// How long `?wait=1` blocks before giving up on a job.
    pub wait_timeout: Duration,
    /// Read/write timeout on accepted sockets (slowloris bound). A peer
    /// that stalls past it mid-request gets 408 and the connection is
    /// closed; a keep-alive connection idle past it is closed silently.
    pub io_timeout: Duration,
    /// Memory-tier cache byte budget.
    pub cache_max_bytes: u64,
    /// Durable tier directory; `None` runs memory-only.
    pub store_dir: Option<PathBuf>,
    /// Durability policy for the store tier.
    pub fsync: FsyncPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 64,
            quota: Quota::default(),
            wait_timeout: Duration::from_secs(300),
            io_timeout: Duration::from_secs(10),
            cache_max_bytes: CacheConfig::default().max_bytes,
            store_dir: None,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`shutdown`](Server::shutdown).
pub struct Server {
    addr: SocketAddr,
    handlers: Arc<Handlers>,
    worker_threads: Vec<JoinHandle<()>>,
}

/// What every connection handler shares.
struct Handlers {
    listener: TcpListener,
    state: Arc<ServiceState>,
    wait_timeout: Duration,
    io_timeout: Duration,
    /// Most handler threads ever spawned.
    cap: usize,
    pool: Mutex<Pool>,
}

#[derive(Default)]
struct Pool {
    /// Set once by `shutdown`; no handler is spawned after it.
    stop: bool,
    /// Handlers in (or on their way to) `accept`.
    idle: usize,
    /// Every handler spawned; none exits before `stop`.
    threads: Vec<JoinHandle<()>>,
    /// Per handler, a handle on the connection it serves, so `shutdown`
    /// can end a read that would otherwise wait out `io_timeout`.
    open: Vec<Option<TcpStream>>,
    /// Connections accepted, pokes from `shutdown` excluded.
    accepted: u64,
}

impl Handlers {
    fn pool(&self) -> MutexGuard<'_, Pool> {
        self.pool.lock().expect("handler pool lock")
    }

    /// Whether handler `id` may keep its connection open after a reply:
    /// the server is not stopping, `shutdown` can reach the connection,
    /// and another handler is idle in `accept`. Below the cap one always
    /// is, since the handler that takes the last idle slot spawns a
    /// successor; at the cap, the last idle handler serves one request
    /// per connection.
    fn may_keep(&self, id: usize) -> bool {
        let pool = self.pool();
        !pool.stop && pool.open[id].is_some() && pool.idle > 0
    }

    /// Spawns one more idle handler.
    fn spawn(self: &Arc<Self>, pool: &mut Pool) -> io::Result<()> {
        let handlers = self.clone();
        let id = pool.threads.len();
        let thread = std::thread::Builder::new()
            .name(format!("duet-serve-conn{id}"))
            .spawn(move || handlers.run(id))?;
        pool.threads.push(thread);
        pool.open.push(None);
        pool.idle += 1;
        Ok(())
    }

    /// A handler's life: accept, hand the leader role on, serve, repeat.
    fn run(self: &Arc<Self>, id: usize) {
        loop {
            let accepted = self.listener.accept();
            let mut stream = {
                let mut pool = self.pool();
                if pool.stop {
                    return;
                }
                let Ok((stream, _)) = accepted else { continue };
                pool.idle -= 1;
                pool.accepted += 1;
                pool.open[id] = stream.try_clone().ok();
                if pool.idle == 0 && pool.threads.len() < self.cap {
                    // Without a successor the next connection would wait
                    // for this one to finish; a failed spawn only means it
                    // does.
                    let _ = self.spawn(&mut pool);
                }
                stream
            };
            let _ = handle_connection(self, id, &mut stream);
            // Idle again before the close lets the peer send its next
            // request, so sequential traffic never spawns a third handler.
            // The handle goes first: the close happens when both are gone.
            {
                let mut pool = self.pool();
                pool.idle += 1;
                pool.open[id] = None;
            }
            drop(stream);
        }
    }
}

impl Server {
    /// Binds, spawns the worker pool and the first connection handler,
    /// and returns. With `store_dir` set, the durable tier is opened (and
    /// recovered) first; its recovery summary goes to stderr and
    /// `GET /v1/recovery`.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let store = match &cfg.store_dir {
            Some(dir) => {
                let mut store_cfg = StoreConfig::new(dir.clone());
                store_cfg.fsync = cfg.fsync;
                let store = DiskStore::open(store_cfg, Box::new(RealIo::new()))?;
                eprintln!("{}", store.recovery_report().summary());
                Some(Arc::new(store))
            }
            None => None,
        };
        let cache = ResultCache::with_config(CacheConfig {
            max_bytes: cfg.cache_max_bytes,
            store,
        });
        let state = Arc::new(ServiceState::with_cache(cfg.quota, cfg.queue_cap, cache));
        let handlers = Arc::new(Handlers {
            listener,
            state: state.clone(),
            wait_timeout: cfg.wait_timeout,
            io_timeout: cfg.io_timeout,
            cap: cfg.workers + cfg.queue_cap + 2,
            pool: Mutex::new(Pool::default()),
        });
        handlers.spawn(&mut handlers.pool())?;
        let worker_threads = (0..cfg.workers)
            .map(|i| {
                let state = state.clone();
                std::thread::Builder::new()
                    .name(format!("duet-serve-worker{i}"))
                    .spawn(move || state.worker_loop())
                    .expect("spawn worker")
            })
            .collect();
        Ok(Server {
            addr,
            handlers,
            worker_threads,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state (test hook: cache poisoning, counters).
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.handlers.state
    }

    /// Stops accepting, drains workers, and joins every service thread.
    pub fn shutdown(self) {
        self.state().shutdown();
        let handlers = {
            let mut pool = self.handlers.pool();
            pool.stop = true;
            // A handler waiting for a kept connection's next request reads
            // EOF and returns to `accept`; one mid-request still replies.
            for conn in pool.open.iter().flatten() {
                let _ = conn.shutdown(Shutdown::Read);
            }
            std::mem::take(&mut pool.threads)
        };
        // Any handler may be the one blocked in `accept`, and each leaves
        // after one accept: poke all of them awake before joining any.
        let pokes: Vec<_> = handlers
            .iter()
            .map(|_| TcpStream::connect(self.addr))
            .collect();
        for t in handlers.into_iter().chain(self.worker_threads) {
            let _ = t.join();
        }
        drop(pokes);
    }

    /// Blocks until a `POST /v1/drain` (or a direct `begin_drain`)
    /// completes — every queued and running job finished — then flushes
    /// the store and shuts down. The graceful-exit path of the binary.
    pub fn serve_until_drained(self) {
        // Long poll: wake on every finished job, leave when drained.
        loop {
            if self.state().wait_drained(Duration::from_secs(3600)) {
                break;
            }
        }
        if let Some(store) = self.state().cache.store() {
            store.flush();
        }
        self.shutdown();
    }
}

/// A routed reply: status, JSON body, extra response headers.
type Reply = (u16, Vec<u8>, Vec<(String, String)>);

fn reply(status: u16, body: Vec<u8>) -> Reply {
    (status, body, Vec::new())
}

fn handle_connection(handlers: &Handlers, id: usize, stream: &mut TcpStream) -> io::Result<()> {
    // Slowloris bound: a peer that trickles its request head (or stalls
    // reading our response) gets cut off at the timeout, not never.
    let _ = stream.set_read_timeout(Some(handlers.io_timeout));
    let _ = stream.set_write_timeout(Some(handlers.io_timeout));
    let _ = stream.set_nodelay(true);
    let mut buf = Vec::new();
    let mut served = false;
    loop {
        let req = match read_next(stream, &mut buf) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if served && buf.is_empty() {
                    // An idle keep-alive connection, not a stalled request.
                    return Ok(());
                }
                let body = error_body("timeout", "request not completed within the io timeout");
                return write_response(stream, 408, &[], &body, false);
            }
            Err(e) => {
                let body = error_body("bad_request", &e.to_string());
                return write_response(stream, 400, &[], &body, false);
            }
        };
        let (status, body, headers) = route(handlers, &req);
        let keep = req.keep_alive() && handlers.may_keep(id);
        write_response(stream, status, &headers, &body, keep)?;
        if !keep {
            return Ok(());
        }
        served = true;
    }
}

fn error_body(kind: &str, message: &str) -> Vec<u8> {
    obj([(
        "error",
        obj([
            ("kind", Json::Str(kind.to_string())),
            ("message", Json::Str(message.to_string())),
        ]),
    )])
    .to_bytes()
}

/// Splices pre-serialized payload bytes into an envelope without
/// re-parsing them — the splice is what keeps cache hits byte-identical.
fn envelope(fields: &[(&str, String)], result_key: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 128);
    out.push(b'{');
    for (k, v) in fields {
        out.extend_from_slice(Json::Str((*k).to_string()).to_json().as_bytes());
        out.push(b':');
        out.extend_from_slice(v.as_bytes());
        out.push(b',');
    }
    out.extend_from_slice(Json::Str(result_key.to_string()).to_json().as_bytes());
    out.push(b':');
    out.extend_from_slice(payload);
    out.push(b'}');
    out
}

fn route(handlers: &Handlers, req: &Request) -> Reply {
    let state = &handlers.state;
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => reply(200, obj([("ok", Json::Bool(true))]).to_bytes()),
        ("GET", "/v1/health") => health(state),
        ("GET", "/v1/stats") => {
            let (spawned, accepted) = {
                let pool = handlers.pool();
                (pool.threads.len() as u64, pool.accepted)
            };
            reply(200, stats_body(state, spawned, accepted))
        }
        ("GET", "/v1/recovery") => recovery(state),
        ("POST", "/v1/runs") => post_run(state, req, handlers.wait_timeout),
        ("POST", "/v1/drain") => {
            state.begin_drain();
            reply(
                202,
                obj([("status", Json::Str("draining".into()))]).to_bytes(),
            )
        }
        ("GET", path) if path.starts_with("/v1/runs/") => {
            get_run(state, &path["/v1/runs/".len()..])
        }
        ("GET", path) if path.starts_with("/v1/cache/") => {
            get_cache(state, &path["/v1/cache/".len()..])
        }
        ("GET" | "POST", _) => reply(
            404,
            error_body("not_found", &format!("no route {}", req.path)),
        ),
        _ => reply(405, error_body("method_not_allowed", &req.method)),
    }
}

/// Readiness: 200 while accepting work, 503 (with `Retry-After`) once a
/// drain has begun — so a fronting balancer pulls the instance before
/// its jobs finish. Storage degradation is reported but does **not**
/// fail readiness: a memory-only service still serves correctly.
fn health(state: &Arc<ServiceState>) -> Reply {
    let draining = state.is_draining();
    let degraded = state
        .cache
        .store()
        .map(|s| s.is_degraded())
        .unwrap_or(false);
    let body = obj([
        ("ready", Json::Bool(!draining)),
        ("draining", Json::Bool(draining)),
        ("degraded_storage", Json::Bool(degraded)),
    ])
    .to_bytes();
    if draining {
        (
            503,
            body,
            vec![("retry-after".to_string(), "5".to_string())],
        )
    } else {
        reply(200, body)
    }
}

/// The startup recovery report, verbatim. 404 without a store tier.
fn recovery(state: &Arc<ServiceState>) -> Reply {
    match state.cache.store() {
        Some(store) => reply(200, store.recovery_report().to_json().to_bytes()),
        None => reply(404, error_body("no_store", "service is memory-only")),
    }
}

fn stats_body(
    state: &Arc<ServiceState>,
    handlers_spawned: u64,
    connections_accepted: u64,
) -> Vec<u8> {
    let c = state.cache.stats();
    let (queued, running, done, failed) = state.job_counts();
    let store_section = match state.cache.store() {
        Some(store) => {
            let s = store.stats();
            obj([
                ("enabled", Json::Bool(true)),
                ("degraded", Json::Bool(s.degraded)),
                ("indexed_entries", Json::U64(s.indexed_entries)),
                ("appended_records", Json::U64(s.appended_records)),
                ("appended_bytes", Json::U64(s.appended_bytes)),
                ("append_errors", Json::U64(s.append_errors)),
                ("disk_reads", Json::U64(s.disk_reads)),
                ("disk_read_corrupt", Json::U64(s.disk_read_corrupt)),
                ("recovered_records", Json::U64(s.recovered_records)),
                ("quarantined_records", Json::U64(s.quarantined_records)),
            ])
        }
        None => obj([("enabled", Json::Bool(false))]),
    };
    let degraded = state
        .cache
        .store()
        .map(|s| s.is_degraded())
        .unwrap_or(false);
    obj([
        (
            "cache",
            obj([
                ("hits", Json::U64(c.hits)),
                ("misses", Json::U64(c.misses)),
                ("inserts", Json::U64(c.inserts)),
                ("entries", Json::U64(c.entries)),
                ("mem_bytes", Json::U64(c.mem_bytes)),
                ("evictions", Json::U64(c.evictions)),
                ("disk_hits", Json::U64(c.disk_hits)),
                ("verify_mismatches", Json::U64(c.verify_mismatches)),
            ]),
        ),
        ("store", store_section),
        (
            "jobs",
            obj([
                ("queued", Json::U64(queued)),
                ("running", Json::U64(running)),
                ("done", Json::U64(done)),
                ("failed", Json::U64(failed)),
            ]),
        ),
        ("handlers_spawned", Json::U64(handlers_spawned)),
        ("connections_accepted", Json::U64(connections_accepted)),
        ("draining", Json::Bool(state.is_draining())),
        ("degraded_storage", Json::Bool(degraded)),
    ])
    .to_bytes()
}

fn post_run(state: &Arc<ServiceState>, req: &Request, wait_timeout: Duration) -> Reply {
    let body = match parse(&req.body) {
        Ok(v) => v,
        Err(e) => return reply(400, error_body("bad_json", &e.to_string())),
    };
    let spec = match ScenarioSpec::from_json(&body) {
        Ok(s) => s,
        Err(e) => return reply(400, error_body("bad_spec", &e.0)),
    };
    let tenant = req.header("x-duet-tenant").unwrap_or("anon").to_string();
    let key = spec.cache_key();
    let key_hex = format!("\"{:016x}\"", key);

    if let Some(cached) = state.cache.lookup(key) {
        if req.query_flag("verify") {
            return verify_hit(state, &spec, key, &key_hex, &cached);
        }
        let body = envelope(
            &[
                ("status", "\"done\"".to_string()),
                ("cache", "\"hit\"".to_string()),
                ("key", key_hex),
            ],
            "result",
            &cached,
        );
        return reply(200, body);
    }

    let id = match state.submit(&tenant, spec) {
        Ok(id) => id,
        Err(e) => {
            let body = obj([("error", e.to_json())]).to_bytes();
            let headers = match e.retry_after_secs() {
                Some(secs) => vec![("retry-after".to_string(), secs.to_string())],
                None => Vec::new(),
            };
            return (e.http_status(), body, headers);
        }
    };
    if !req.query_flag("wait") {
        let body = obj([
            ("status", Json::Str("queued".into())),
            ("id", Json::U64(id)),
            ("cache", Json::Str("miss".into())),
            ("key", Json::Str(format!("{key:016x}"))),
        ])
        .to_bytes();
        return reply(202, body);
    }
    match state.wait_done(id, wait_timeout) {
        Some(view) => match view.status {
            JobStatus::Done => {
                let payload = view.payload.expect("done job has payload");
                let body = envelope(
                    &[
                        ("status", "\"done\"".to_string()),
                        ("cache", "\"miss\"".to_string()),
                        ("key", key_hex),
                        ("id", id.to_string()),
                    ],
                    "result",
                    &payload,
                );
                reply(200, body)
            }
            JobStatus::Failed => {
                let error = view.error.unwrap_or_else(|| "{}".to_string());
                let body = envelope(
                    &[
                        ("status", "\"failed\"".to_string()),
                        ("cache", "\"miss\"".to_string()),
                        ("key", key_hex),
                        ("id", id.to_string()),
                    ],
                    "error",
                    error.as_bytes(),
                );
                reply(200, body)
            }
            _ => reply(
                200,
                obj([
                    ("status", Json::Str("timeout".into())),
                    ("id", Json::U64(id)),
                ])
                .to_bytes(),
            ),
        },
        None => reply(500, error_body("lost_job", "job record disappeared")),
    }
}

/// `?verify=1` on a cache hit: re-run the spec through the production
/// execution path and demand the payload be byte-identical to the stored
/// entry. A mismatch means either the cache was corrupted or the
/// simulator broke bit-determinism — both worth a loud, structured 409;
/// the entry is evicted so the next run repopulates it honestly.
fn verify_hit(
    state: &Arc<ServiceState>,
    spec: &ScenarioSpec,
    key: u64,
    key_hex: &str,
    cached: &[u8],
) -> Reply {
    let progress = AtomicU64::new(0);
    let fresh = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        scenario::execute(spec, |ps| progress.store(ps, Ordering::Relaxed))
    }));
    let fresh_payload = match fresh {
        Ok(Ok(out)) => scenario::result_payload(spec, &out),
        Ok(Err(run_err)) => {
            return reply(
                409,
                obj([
                    ("status", Json::Str("verify_failed".into())),
                    ("key", Json::Str(format!("{key:016x}"))),
                    ("error", scenario::error_json(&run_err)),
                ])
                .to_bytes(),
            )
        }
        Err(_) => return reply(500, error_body("panic", "verification run panicked")),
    };
    if fresh_payload == cached {
        let body = envelope(
            &[
                ("status", "\"done\"".to_string()),
                ("cache", "\"hit\"".to_string()),
                ("verified", "true".to_string()),
                ("key", key_hex.to_string()),
            ],
            "result",
            cached,
        );
        return reply(200, body);
    }
    state.cache.note_verify_mismatch();
    state.cache.evict(key);
    let body = obj([
        ("status", Json::Str("verify_mismatch".into())),
        ("key", Json::Str(format!("{key:016x}"))),
        ("cached_len", Json::U64(cached.len() as u64)),
        ("fresh_len", Json::U64(fresh_payload.len() as u64)),
        (
            "message",
            Json::Str(
                "cached payload differs from a fresh deterministic re-run; entry evicted".into(),
            ),
        ),
    ])
    .to_bytes();
    reply(409, body)
}

fn get_run(state: &Arc<ServiceState>, id_str: &str) -> Reply {
    let Ok(id) = id_str.parse::<u64>() else {
        return reply(400, error_body("bad_id", id_str));
    };
    let Some(view) = state.job_view(id) else {
        return reply(404, error_body("unknown_job", id_str));
    };
    reply(200, job_body(&view))
}

fn job_body(view: &JobView) -> Vec<u8> {
    let mut fields: Vec<(&str, String)> = vec![
        ("id", view.id.to_string()),
        ("tenant", Json::Str(view.tenant.clone()).to_json()),
        (
            "status",
            Json::Str(view.status.label().to_string()).to_json(),
        ),
        ("key", format!("\"{:016x}\"", view.key)),
        (
            "progress",
            obj([
                ("sim_ps", Json::U64(view.sim_ps)),
                ("target_ps", Json::U64(view.target_ps)),
            ])
            .to_json(),
        ),
        ("spec", view.spec.to_json().to_json()),
    ];
    match view.status {
        JobStatus::Done => {
            let payload = view.payload.clone().expect("done job has payload");
            envelope(&fields, "result", &payload)
        }
        JobStatus::Failed => {
            let error = view.error.clone().unwrap_or_else(|| "{}".to_string());
            envelope(&fields, "error", error.as_bytes())
        }
        _ => {
            // No result yet: close the envelope after the last field.
            fields.push(("cache", Json::Str("miss".into()).to_json()));
            let mut out = Vec::new();
            out.push(b'{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                out.extend_from_slice(Json::Str((*k).to_string()).to_json().as_bytes());
                out.push(b':');
                out.extend_from_slice(v.as_bytes());
            }
            out.push(b'}');
            out
        }
    }
}

fn get_cache(state: &Arc<ServiceState>, key_str: &str) -> Reply {
    let Ok(key) = u64::from_str_radix(key_str, 16) else {
        return reply(400, error_body("bad_key", key_str));
    };
    match state.cache.lookup(key) {
        Some(payload) => reply(200, payload.to_vec()),
        None => reply(404, error_body("unknown_key", key_str)),
    }
}
