//! Bounded job queue, worker pool, and per-tenant quotas.
//!
//! Submissions land in a FIFO guarded by one mutex; worker threads claim
//! the oldest job whose tenant is under its concurrency quota, execute it
//! **outside** the lock (panics caught, run errors structured), then
//! publish the payload into the result cache. A hung simulation cannot
//! wedge a worker: the run loop's deadline converts it into a
//! [`RunError::Deadlock`](duet_system::RunError) after a bounded amount
//! of simulated — and therefore host — time.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::cache::ResultCache;
use crate::json::{obj, Json};
use crate::scenario;
use crate::spec::ScenarioSpec;

/// Per-tenant admission limits. Every tenant gets the same quota; the
/// accounting is per tenant name, so one noisy tenant cannot starve the
/// others out of the queue or the worker pool.
#[derive(Clone, Copy, Debug)]
pub struct Quota {
    /// Jobs a tenant may have waiting in the queue.
    pub max_queued: usize,
    /// Jobs a tenant may have running at once.
    pub max_concurrent: usize,
    /// Largest `max_sim_us` a tenant may request.
    pub max_sim_us: u64,
}

impl Default for Quota {
    fn default() -> Self {
        Quota {
            max_queued: 8,
            max_concurrent: 2,
            max_sim_us: 2_000_000,
        }
    }
}

/// Why a submission was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant already has `max_queued` jobs waiting (HTTP 429).
    TenantQueueFull {
        /// The offending tenant.
        tenant: String,
        /// The limit that was hit.
        limit: usize,
    },
    /// The spec's deadline exceeds the tenant's simulated-time quota
    /// (HTTP 429).
    SimTimeQuota {
        /// Requested deadline (µs).
        requested_us: u64,
        /// The limit that was hit (µs).
        limit_us: u64,
    },
    /// The global queue is at capacity (HTTP 503).
    QueueFull,
    /// The service is draining: finishing in-flight work, admitting
    /// nothing new (HTTP 503).
    Draining,
    /// The service is shutting down (HTTP 503).
    ShuttingDown,
}

impl SubmitError {
    /// The HTTP status this refusal maps to.
    pub fn http_status(&self) -> u16 {
        match self {
            SubmitError::TenantQueueFull { .. } | SubmitError::SimTimeQuota { .. } => 429,
            SubmitError::QueueFull | SubmitError::Draining | SubmitError::ShuttingDown => 503,
        }
    }

    /// `Retry-After` guidance in whole seconds, when retrying makes
    /// sense. Queue pressure clears quickly; a draining process does
    /// not come back, so the hint is "long enough for the replacement".
    /// A sim-time quota violation is a spec problem — retrying the same
    /// spec can never succeed, so no hint is sent.
    pub fn retry_after_secs(&self) -> Option<u64> {
        match self {
            SubmitError::TenantQueueFull { .. } | SubmitError::QueueFull => Some(1),
            SubmitError::Draining | SubmitError::ShuttingDown => Some(5),
            SubmitError::SimTimeQuota { .. } => None,
        }
    }

    /// The structured error object for the response body.
    pub fn to_json(&self) -> Json {
        match self {
            SubmitError::TenantQueueFull { tenant, limit } => obj([
                ("kind", Json::Str("quota_queued".into())),
                ("tenant", Json::Str(tenant.clone())),
                ("limit", Json::U64(*limit as u64)),
            ]),
            SubmitError::SimTimeQuota {
                requested_us,
                limit_us,
            } => obj([
                ("kind", Json::Str("quota_sim_time".into())),
                ("requested_us", Json::U64(*requested_us)),
                ("limit_us", Json::U64(*limit_us)),
            ]),
            SubmitError::QueueFull => obj([("kind", Json::Str("queue_full".into()))]),
            SubmitError::Draining => obj([("kind", Json::Str("draining".into()))]),
            SubmitError::ShuttingDown => obj([("kind", Json::Str("shutting_down".into()))]),
        }
    }
}

/// Job lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting for a worker.
    Queued,
    /// On a worker now.
    Running,
    /// Finished; payload available (and cached).
    Done,
    /// Finished with a structured error.
    Failed,
}

impl JobStatus {
    /// Wire spelling.
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

struct JobRecord {
    tenant: String,
    spec: ScenarioSpec,
    key: u64,
    status: JobStatus,
    payload: Option<Arc<Vec<u8>>>,
    /// Serialized error object (JSON bytes) for failed jobs.
    error: Option<String>,
    /// Simulated progress in picoseconds, updated lock-free by the worker.
    progress: Arc<AtomicU64>,
    target_ps: u64,
}

/// A point-in-time snapshot of one job, safe to render outside the lock.
#[derive(Clone)]
pub struct JobView {
    /// Job id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Content-address of the spec.
    pub key: u64,
    /// The spec (echoed back to clients).
    pub spec: ScenarioSpec,
    /// Result payload when done.
    pub payload: Option<Arc<Vec<u8>>>,
    /// Structured error (JSON text) when failed.
    pub error: Option<String>,
    /// Simulated progress (ps).
    pub sim_ps: u64,
    /// Simulated deadline (ps).
    pub target_ps: u64,
}

#[derive(Default)]
struct TenantCounters {
    queued: usize,
    running: usize,
}

struct Inner {
    queue: VecDeque<u64>,
    jobs: HashMap<u64, JobRecord>,
    /// Ids of the done and failed jobs still in `jobs`.
    finished: BTreeSet<u64>,
    tenants: HashMap<String, TenantCounters>,
    next_id: u64,
    shutdown: bool,
    /// Draining: stop admitting, finish what is queued/running, then let
    /// workers exit. Unlike `shutdown`, queued jobs still run to
    /// completion.
    draining: bool,
    done: u64,
    failed: u64,
}

impl Inner {
    fn running_count(&self) -> usize {
        self.jobs
            .values()
            .filter(|j| j.status == JobStatus::Running)
            .count()
    }

    fn drained(&self) -> bool {
        self.draining && self.queue.is_empty() && self.running_count() == 0
    }
}

/// Everything the HTTP layer and the workers share.
pub struct ServiceState {
    /// Admission limits (applied per tenant).
    pub quota: Quota,
    /// The content-addressed result cache.
    pub cache: ResultCache,
    /// Global queue capacity.
    queue_cap: usize,
    inner: Mutex<Inner>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// Finished jobs kept around for `GET /v1/runs/<id>`; lower ids are
/// pruned first, so a long-lived server does not accumulate records
/// forever.
const FINISHED_RETAIN: usize = 1024;

impl ServiceState {
    /// A fresh service with the given quota and queue capacity, and a
    /// default (memory-only, default-budget) cache.
    pub fn new(quota: Quota, queue_cap: usize) -> Self {
        ServiceState::with_cache(quota, queue_cap, ResultCache::new())
    }

    /// A fresh service over an explicitly configured cache (byte budget
    /// and/or durable tier).
    pub fn with_cache(quota: Quota, queue_cap: usize, cache: ResultCache) -> Self {
        ServiceState {
            quota,
            cache,
            queue_cap,
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                finished: BTreeSet::new(),
                tenants: HashMap::new(),
                next_id: 1,
                shutdown: false,
                draining: false,
                done: 0,
                failed: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }
    }

    /// Admits a job, enforcing quotas, and wakes a worker. Returns the
    /// job id.
    pub fn submit(&self, tenant: &str, spec: ScenarioSpec) -> Result<u64, SubmitError> {
        if spec.max_sim_us > self.quota.max_sim_us {
            return Err(SubmitError::SimTimeQuota {
                requested_us: spec.max_sim_us,
                limit_us: self.quota.max_sim_us,
            });
        }
        let key = spec.cache_key();
        let target_ps = spec.max_sim_us.saturating_mul(1_000_000);
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if inner.draining {
            return Err(SubmitError::Draining);
        }
        if inner.queue.len() >= self.queue_cap {
            return Err(SubmitError::QueueFull);
        }
        let counters = inner.tenants.entry(tenant.to_string()).or_default();
        if counters.queued >= self.quota.max_queued {
            return Err(SubmitError::TenantQueueFull {
                tenant: tenant.to_string(),
                limit: self.quota.max_queued,
            });
        }
        counters.queued += 1;
        let id = inner.next_id;
        inner.next_id += 1;
        inner.jobs.insert(
            id,
            JobRecord {
                tenant: tenant.to_string(),
                spec,
                key,
                status: JobStatus::Queued,
                payload: None,
                error: None,
                progress: Arc::new(AtomicU64::new(0)),
                target_ps,
            },
        );
        inner.queue.push_back(id);
        drop(inner);
        self.work_cv.notify_one();
        Ok(id)
    }

    fn view_locked(id: u64, j: &JobRecord) -> JobView {
        JobView {
            id,
            tenant: j.tenant.clone(),
            status: j.status,
            key: j.key,
            spec: j.spec.clone(),
            payload: j.payload.clone(),
            error: j.error.clone(),
            sim_ps: j.progress.load(Ordering::Relaxed),
            target_ps: j.target_ps,
        }
    }

    /// Snapshot of one job.
    pub fn job_view(&self, id: u64) -> Option<JobView> {
        let inner = self.inner.lock().expect("queue lock");
        inner.jobs.get(&id).map(|j| Self::view_locked(id, j))
    }

    /// Blocks until the job finishes (or the timeout passes, or shutdown
    /// leaves it queued for good) and returns its last snapshot.
    pub fn wait_done(&self, id: u64, timeout: Duration) -> Option<JobView> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            match inner.jobs.get(&id) {
                None => return None,
                Some(j)
                    if matches!(j.status, JobStatus::Done | JobStatus::Failed)
                        || (inner.shutdown && j.status == JobStatus::Queued) =>
                {
                    return Some(Self::view_locked(id, j));
                }
                Some(_) => {}
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return inner.jobs.get(&id).map(|j| Self::view_locked(id, j));
            }
            let (guard, _) = self
                .done_cv
                .wait_timeout(inner, deadline - now)
                .expect("queue lock");
            inner = guard;
        }
    }

    /// `(queued, running, done, failed)` counts for `GET /v1/stats`.
    pub fn job_counts(&self) -> (u64, u64, u64, u64) {
        let inner = self.inner.lock().expect("queue lock");
        let queued = inner.queue.len() as u64;
        let running = inner
            .jobs
            .values()
            .filter(|j| j.status == JobStatus::Running)
            .count() as u64;
        (queued, running, inner.done, inner.failed)
    }

    /// Signals workers to exit once the queue drains of claimable work.
    pub fn shutdown(&self) {
        self.inner.lock().expect("queue lock").shutdown = true;
        self.work_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Starts a graceful drain: new submissions get 503 `draining`,
    /// queued and running jobs finish normally, and workers exit once
    /// nothing claimable remains.
    pub fn begin_drain(&self) {
        self.inner.lock().expect("queue lock").draining = true;
        self.work_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.inner.lock().expect("queue lock").draining
    }

    /// Blocks until a started drain completes (queue empty, nothing
    /// running) or the timeout passes. Returns whether it completed.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if inner.drained() {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .done_cv
                .wait_timeout(inner, deadline - now)
                .expect("queue lock");
            inner = guard;
        }
    }

    /// Claims the oldest queued job whose tenant has concurrency headroom.
    /// Returns `None` once shutdown is signalled.
    fn claim(&self) -> Option<(u64, ScenarioSpec, Arc<AtomicU64>)> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if inner.shutdown {
                return None;
            }
            // A draining service runs everything already queued, then
            // releases its workers.
            if inner.draining && inner.queue.is_empty() {
                return None;
            }
            let max_concurrent = self.quota.max_concurrent;
            let pick = inner.queue.iter().position(|id| {
                inner
                    .jobs
                    .get(id)
                    .map(|j| {
                        inner
                            .tenants
                            .get(&j.tenant)
                            .map(|c| c.running < max_concurrent)
                            .unwrap_or(true)
                    })
                    .unwrap_or(false)
            });
            if let Some(pos) = pick {
                let id = inner.queue.remove(pos).expect("position valid");
                let job = inner.jobs.get_mut(&id).expect("claimed job exists");
                job.status = JobStatus::Running;
                let spec = job.spec.clone();
                let progress = job.progress.clone();
                let tenant = job.tenant.clone();
                let counters = inner.tenants.entry(tenant).or_default();
                counters.queued = counters.queued.saturating_sub(1);
                counters.running += 1;
                return Some((id, spec, progress));
            }
            inner = self.work_cv.wait(inner).expect("queue lock");
        }
    }

    fn finish(&self, id: u64, outcome: Result<Arc<Vec<u8>>, String>) {
        let mut inner = self.inner.lock().expect("queue lock");
        if let Some(job) = inner.jobs.get_mut(&id) {
            let tenant = job.tenant.clone();
            match outcome {
                Ok(payload) => {
                    job.status = JobStatus::Done;
                    job.payload = Some(payload);
                    inner.done += 1;
                }
                Err(error) => {
                    job.status = JobStatus::Failed;
                    job.error = Some(error);
                    inner.failed += 1;
                }
            }
            if let Some(c) = inner.tenants.get_mut(&tenant) {
                c.running = c.running.saturating_sub(1);
            }
            inner.finished.insert(id);
            if inner.finished.len() > FINISHED_RETAIN {
                if let Some(oldest) = inner.finished.pop_first() {
                    inner.jobs.remove(&oldest);
                }
            }
        }
        drop(inner);
        // A job finishing may unblock a tenant that was at its concurrency
        // cap, so every parked worker rescans the queue.
        self.work_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Runs one job synchronously on the calling thread: execute, cache,
    /// publish. Public so the `?verify=1` path and tests can share the
    /// exact production execution path.
    pub fn run_job(&self, id: u64, spec: &ScenarioSpec, progress: &AtomicU64) {
        let key = spec.cache_key();
        let result = catch_unwind(AssertUnwindSafe(|| {
            scenario::execute(spec, |ps| progress.store(ps, Ordering::Relaxed))
        }));
        let outcome = match result {
            Ok(Ok(out)) => {
                let payload = scenario::result_payload(spec, &out);
                Ok(self.cache.insert(key, payload))
            }
            Ok(Err(run_err)) => Err(scenario::error_json(&run_err).to_json()),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("worker panicked");
                Err(obj([
                    ("kind", Json::Str("panic".into())),
                    ("message", Json::Str(msg.to_string())),
                ])
                .to_json())
            }
        };
        self.finish(id, outcome);
    }

    /// The worker thread body: claim, run, repeat until shutdown.
    pub fn worker_loop(self: &Arc<Self>) {
        while let Some((id, spec, progress)) = self.claim() {
            self.run_job(id, &spec, &progress);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn spec(body: &str) -> ScenarioSpec {
        ScenarioSpec::from_json(&json::parse(body.as_bytes()).unwrap()).unwrap()
    }

    fn tiny() -> ScenarioSpec {
        spec(r#"{"workload":"popcount","n":2,"seed":3}"#)
    }

    #[test]
    fn quota_rejections_map_to_http_statuses() {
        let state = ServiceState::new(
            Quota {
                max_queued: 1,
                max_concurrent: 1,
                max_sim_us: 1_000,
            },
            64,
        );
        // No workers running: the first submit parks in the queue.
        let s = spec(r#"{"workload":"popcount","n":2,"seed":3,"max_sim_us":500}"#);
        state.submit("alice", s.clone()).unwrap();
        let err = state.submit("alice", s.clone()).unwrap_err();
        assert_eq!(err.http_status(), 429);
        assert!(matches!(err, SubmitError::TenantQueueFull { .. }));
        // A different tenant still gets in.
        state.submit("bob", s).unwrap();
        // Sim-time quota.
        let big = spec(r#"{"workload":"popcount","n":2,"seed":3,"max_sim_us":2000}"#);
        let err = state.submit("alice", big).unwrap_err();
        assert!(matches!(err, SubmitError::SimTimeQuota { .. }));
        assert_eq!(err.http_status(), 429);
    }

    #[test]
    fn pruning_keeps_the_highest_finished_ids() {
        let state = ServiceState::new(Quota::default(), 64);
        let finishes = 3_000u64;
        for i in 0..finishes {
            state.submit("alice", tiny()).unwrap();
            let (id, _, _) = state.claim().expect("a queued job");
            let outcome = if i % 3 == 0 {
                Err("{}".to_string())
            } else {
                Ok(Arc::new(Vec::new()))
            };
            state.finish(id, outcome);
        }
        let kept = finishes - FINISHED_RETAIN as u64;
        for id in 1..=finishes {
            assert_eq!(state.job_view(id).is_some(), id > kept, "job {id}");
        }
        assert_eq!(state.job_counts(), (0, 0, 2_000, 1_000));
    }

    #[test]
    fn global_queue_capacity_is_enforced() {
        let state = ServiceState::new(Quota::default(), 2);
        state.submit("a", tiny()).unwrap();
        state.submit("b", tiny()).unwrap();
        assert_eq!(
            state.submit("c", tiny()).unwrap_err(),
            SubmitError::QueueFull
        );
    }

    #[test]
    fn workers_drain_the_queue_and_populate_the_cache() {
        let state = Arc::new(ServiceState::new(Quota::default(), 64));
        let s = tiny();
        let key = s.cache_key();
        let id = state.submit("alice", s).unwrap();
        let worker = {
            let state = state.clone();
            std::thread::spawn(move || state.worker_loop())
        };
        let view = state
            .wait_done(id, Duration::from_secs(120))
            .expect("job exists");
        assert_eq!(view.status, JobStatus::Done);
        assert!(view.payload.is_some());
        assert!(state.cache.lookup(key).is_some());
        state.shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn drain_finishes_queued_work_and_releases_workers() {
        let state = Arc::new(ServiceState::new(Quota::default(), 64));
        let id1 = state.submit("alice", tiny()).unwrap();
        let id2 = state.submit("bob", tiny()).unwrap();
        state.begin_drain();
        // Draining refuses new work with the dedicated error kind.
        let err = state.submit("carol", tiny()).unwrap_err();
        assert_eq!(err, SubmitError::Draining);
        assert_eq!(err.http_status(), 503);
        assert_eq!(err.retry_after_secs(), Some(5));
        assert_eq!(
            err.to_json().get("kind").unwrap().as_str(),
            Some("draining")
        );
        // Workers started after the drain still run the queued jobs.
        let worker = {
            let state = state.clone();
            std::thread::spawn(move || state.worker_loop())
        };
        assert!(state.wait_drained(Duration::from_secs(120)));
        worker.join().unwrap();
        for id in [id1, id2] {
            let view = state.job_view(id).expect("job retained");
            assert_eq!(view.status, JobStatus::Done, "queued job ran to done");
        }
    }

    #[test]
    fn failed_jobs_leave_the_pool_accepting_work() {
        let state = Arc::new(ServiceState::new(Quota::default(), 64));
        let hang = spec(
            r#"{"workload":"popcount","n":2,"seed":3,
                "faults":"fault accel_hang from_us=0\n","max_sim_us":500}"#,
        );
        let id = state.submit("alice", hang).unwrap();
        let worker = {
            let state = state.clone();
            std::thread::spawn(move || state.worker_loop())
        };
        let view = state.wait_done(id, Duration::from_secs(120)).unwrap();
        assert_eq!(view.status, JobStatus::Failed);
        let err = json::parse(view.error.as_ref().unwrap().as_bytes()).unwrap();
        assert_eq!(err.get("kind").unwrap().as_str(), Some("deadlock"));
        // Same worker thread picks up and completes a healthy job.
        let id2 = state.submit("alice", tiny()).unwrap();
        let view2 = state.wait_done(id2, Duration::from_secs(120)).unwrap();
        assert_eq!(view2.status, JobStatus::Done);
        state.shutdown();
        worker.join().unwrap();
    }
}
