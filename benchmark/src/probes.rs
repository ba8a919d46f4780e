//! Host-time probes of single layers, run in the traced pass. Each times a
//! layer's public functions directly, on inputs made from the seed, and each
//! has a home: the workloads whose end-to-end metric it should move. A probe
//! reads 0 on the workloads it is not at home on.

use std::hint::black_box;
use std::time::Instant;

use duet_fpga::fabric::FabricSpec;
use duet_mem::testkit::ProtocolHarness;
use duet_mem::{CacheConfig, MemReq, Width};
use duet_noc::{Mesh, MeshConfig, Message, VNet};
use duet_serve::hostio::RealIo;
use duet_serve::json;
use duet_serve::{
    client, scenario, DiskStore, FsyncPolicy, ResultCache, ScenarioSpec, StoreConfig,
};
use duet_sim::{Clock, EpochBarrier, SimRng, SnapWriter, Time};
use duet_system::{FaultPlan, System, SystemConfig};
use duet_trace::TraceConfig;
use duet_workloads::{popcount, BenchVariant};

use crate::engine::{App, StoreStream};
use crate::metrics::Values;
use crate::serve::{fresh_dir, spec_body, start_server};
use crate::spans::Recorder;
use crate::stats;

/// What a probe set is given.
#[derive(Clone, Copy, Debug)]
pub struct ProbeCtx {
    /// The run's seed.
    pub seed: u64,
    /// Best untraced unit of the run, seconds.
    pub best_unit_s: f64,
    /// Best-slice median operation latency of the run, seconds.
    pub lat_p50_s: f64,
    /// Divides every probe's repetition count (`--quick` passes 10).
    pub shrink: usize,
}

impl ProbeCtx {
    fn reps(&self, full: usize) -> usize {
        (full / self.shrink).max(1)
    }
}

/// Best wall time of `reps` calls of `f`, in seconds. The minimum, for the
/// same reason slices report their best.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Best time per call over `reps` batches of `batch` calls, in seconds.
fn per_call(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    best_of(reps, || (0..batch).for_each(|_| f())) / batch as f64
}

// ------------------------------------------------------------- duet-system

/// Construction, horizon and registry cost on the single-core Dolly
/// instance the sweeps and the service build once per run.
fn system_small(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values) {
    rec.span("duet-system", "probe System::new", 0, |_| {
        let cfg = SystemConfig::dolly(1, 1, 100.0);
        let s = best_of(ctx.reps(50), || {
            black_box(System::new(cfg.clone()).expect("valid config"));
        });
        out.set("system.build_us", s * 1e6);
    });
    rec.span(
        "duet-system",
        "probe next_event_time + metrics_registry",
        0,
        |_| {
            let (mut sys, _) =
                popcount::prepare(BenchVariant::Duet, 6, ctx.seed, FaultPlan::empty());
            sys.run_until_time(Time::from_us(1));
            let s = per_call(ctx.reps(20), 2000, || {
                black_box(sys.next_event_time());
            });
            out.set("system.next_event_time_ns", s * 1e9);
            let s = per_call(ctx.reps(20), 20, || {
                black_box(sys.metrics_registry());
            });
            out.set("system.metrics_registry_us", s * 1e6);
        },
    );
}

/// Snapshot, restore and fork of a warmed 16×16 system. Recorded, not gated.
fn system_snapshot(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values) {
    rec.span("duet-system", "probe snapshot/restore/fork", 0, |_| {
        let build = || System::new(SystemConfig::mesh_16x16()).expect("valid config");
        let mut sys = build();
        sys.run_until_time(Time::from_ns(500));
        let bytes = sys.snapshot();
        out.set("system.snapshot_bytes", bytes.len() as f64);
        let reps = ctx.reps(5);
        out.set(
            "system.snapshot_ms",
            best_of(reps, || {
                black_box(sys.snapshot());
            }) * 1e3,
        );
        let mut restore = f64::INFINITY;
        for _ in 0..reps {
            let mut fresh = build();
            restore = restore.min(best_of(1, || {
                fresh.restore(&bytes).expect("self-restore");
            }));
        }
        out.set("system.restore_ms", restore * 1e3);
        out.set(
            "system.fork_ms",
            best_of(reps, || {
                black_box(sys.fork());
            }) * 1e3,
        );
    });
}

// ---------------------------------------------------------------- duet-sim

fn sim_snapwriter(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values) {
    rec.span("duet-sim", "probe SnapWriter", 0, |_| {
        const WORDS: u64 = 1 << 17; // 1 MiB
        let s = best_of(ctx.reps(30), || {
            let mut w = SnapWriter::new();
            for i in 0..WORDS {
                w.u64(i);
            }
            black_box(w.finish());
        });
        out.set("sim.snapwriter_mb_s", (WORDS * 8) as f64 / 1e6 / s);
    });
}

/// Coordinator `open` → worker `finish` → coordinator `wait_done`, one
/// worker thread: what every sharded edge pays before any work is done.
fn sim_epoch_barrier(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values) {
    rec.span("duet-sim", "probe EpochBarrier", 0, |_| {
        let barrier = EpochBarrier::new(1);
        let epochs = ctx.reps(20_000) as u64;
        let mut next = 0u64;
        let s = std::thread::scope(|s| {
            s.spawn(|| {
                let mut seen = 0;
                while let Some(e) = barrier.wait_open(seen) {
                    barrier.finish(0, e);
                    seen = e;
                }
            });
            let s = best_of(5, || {
                for _ in 0..epochs {
                    next += 1;
                    barrier.open(next);
                    barrier.wait_done(next);
                }
            });
            barrier.shutdown();
            s
        });
        out.set("sim.epoch_barrier_ns", s * 1e9 / epochs as f64);
    });
}

// ---------------------------------------------------------------- duet-noc

/// Seeded uniform traffic with a quarter of it aimed at one hotspot, on a
/// standalone 16×16 mesh. Returns ns per tick and ns per delivered message
/// spent injecting and ejecting.
fn mesh_under_load(shards: usize, seed: u64, ticks: u64) -> (f64, f64) {
    const HOTSPOT: usize = 136;
    let mut mesh: Mesh<u64> = Mesh::new(MeshConfig::new(16, 16, Clock::ghz1()));
    mesh.set_shards(shards);
    let mut rng = SimRng::new(seed);
    let (mut tick_s, mut edge_s, mut delivered) = (0.0, 0.0, 0u64);
    for t in 1..=ticks {
        let now = Time::from_ps(t * 1000);
        let start = Instant::now();
        for _ in 0..24 {
            let src = rng.next_below(256) as usize;
            let dst = if rng.next_below(4) == 0 {
                HOTSPOT
            } else {
                rng.next_below(256) as usize
            };
            if src != dst && mesh.can_inject(src, VNet::Req) {
                mesh.inject(now, Message::new(src, dst, VNet::Req, 2, t))
                    .expect("can_inject said yes");
            }
        }
        edge_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        mesh.tick(now);
        tick_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        while let Some(node) = mesh.first_eject_node() {
            while mesh.eject(node, VNet::Req).is_some() {
                delivered += 1;
            }
        }
        edge_s += start.elapsed().as_secs_f64();
    }
    (
        tick_s * 1e9 / ticks as f64,
        edge_s * 1e9 / delivered.max(1) as f64,
    )
}

fn noc_mesh(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values) {
    rec.span("duet-noc", "probe Mesh::tick", 0, |_| {
        let ticks = ctx.reps(4000) as u64;
        let best = |shards| {
            (0..3)
                .map(|_| mesh_under_load(shards, ctx.seed, ticks))
                .fold((f64::INFINITY, f64::INFINITY), |a, b| {
                    (a.0.min(b.0), a.1.min(b.1))
                })
        };
        let (tick_ns, edge_ns) = best(1);
        out.set("noc.tick_ns", tick_ns);
        out.set("noc.inject_eject_ns", edge_ns);
        out.set("noc.tick_sharded_ns", best(2).0);
        let idle_ticks = ctx.reps(200_000) as u64;
        let mut mesh: Mesh<u64> = Mesh::new(MeshConfig::new(16, 16, Clock::ghz1()));
        let mut t = 0;
        let s = best_of(3, || {
            for _ in 0..idle_ticks {
                t += 1000;
                mesh.tick(Time::from_ps(t));
            }
        });
        out.set("noc.tick_idle_ns", s * 1e9 / idle_ticks as f64);
    });
}

// ---------------------------------------------------------------- duet-mem

/// A seeded load/store mix from 4 caches over 64 shared lines, through the
/// protocol harness: private caches, directory shards and mesh, no cores.
fn mem_harness(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values) {
    rec.span("duet-mem", "probe ProtocolHarness", 0, |_| {
        let reqs = ctx.reps(3000) as u64;
        let s = best_of(3, || {
            let mut h = ProtocolHarness::new(2, 2, 4, CacheConfig::dolly_l2(Clock::ghz1()));
            let mut rng = SimRng::new(ctx.seed);
            for id in 0..reqs {
                let cache = rng.next_below(4) as usize;
                let addr = 0x1000 + rng.next_below(64) * 64;
                let req = if rng.next_below(10) < 6 {
                    MemReq::load(id, addr, Width::B8)
                } else {
                    MemReq::store(id, addr, Width::B8, id)
                };
                h.request(cache, req);
                black_box(h.run_until_resp(cache, 5000));
            }
        });
        out.set("mem.harness_reqs", reqs as f64);
        out.set("mem.harness_ns_per_req", s * 1e9 / reqs as f64);
    });
}

// ------------------------------------------- duet-fpga, -verify, -trace

fn fpga_implement(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values) {
    rec.span("duet-fpga", "probe FabricSpec::implement", 0, |_| {
        let netlists: Vec<_> = App::ALL.iter().map(App::netlist).collect();
        let fabric = FabricSpec::k6_frac_n10_mem32k();
        let s = best_of(ctx.reps(200), || {
            for n in &netlists {
                black_box(fabric.implement(n));
            }
        });
        out.set("fpga.implement_us", s * 1e6);
    });
}

fn verify_plan_parse(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values) {
    rec.span("duet-verify", "probe FaultPlan::parse", 0, |_| {
        let text = FaultPlan::randomized(ctx.seed, 16, 1, Time::from_us(100)).render();
        let s = per_call(ctx.reps(20), 50, || {
            black_box(FaultPlan::parse(&text).expect("rendered plans parse"));
        });
        out.set("verify.fault_plan_parse_us", s * 1e6);
    });
}

/// One `coherence_stream` unit with the simulator's event tracing on,
/// against the best untraced unit.
fn trace_overhead(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values) {
    rec.span("duet-trace", "probe enable_tracing", 0, |_| {
        let (wall_s, events, export_s) =
            StoreStream::coherence_unit_traced(ctx.seed, &TraceConfig::default());
        out.set("trace.events_recorded", events as f64);
        out.set(
            "trace.on_overhead_pct",
            100.0 * (wall_s / ctx.best_unit_s - 1.0),
        );
        out.set("trace.chrome_export_ms", export_s * 1e3);
    });
}

// -------------------------------------------------------------- duet-serve

/// The service's phases, one by one, on the workloads' own spec.
fn serve_parts(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values) {
    let body = spec_body(ctx.seed * 1_000_000);
    let parsed = json::parse(body.as_bytes()).expect("spec body parses");
    let spec = ScenarioSpec::from_json(&parsed).expect("spec is valid");
    let run = scenario::execute(&spec, |_| {}).expect("spec runs");
    let payload = scenario::result_payload(&spec, &run);
    let payload_json = json::parse(&payload).expect("payload parses");

    rec.span("duet-serve", "probe json + spec + key", 0, |_| {
        let r = ctx.reps(20);
        let us = |s: f64| s * 1e6;
        out.set(
            "serve.json_parse_spec_us",
            us(per_call(r, 200, || {
                black_box(json::parse(body.as_bytes()).expect("parses"));
            })),
        );
        out.set(
            "serve.spec_from_json_us",
            us(per_call(r, 200, || {
                black_box(ScenarioSpec::from_json(&parsed).expect("valid"));
            })),
        );
        out.set(
            "serve.cache_key_us",
            us(per_call(r, 200, || {
                black_box(spec.cache_key());
            })),
        );
        out.set(
            "serve.json_parse_payload_us",
            us(per_call(r, 5, || {
                black_box(json::parse(&payload).expect("parses"));
            })),
        );
        out.set(
            "serve.json_encode_payload_us",
            us(per_call(r, 5, || {
                black_box(payload_json.to_bytes());
            })),
        );
    });
    rec.span("duet-serve", "probe execute + result_payload", 0, |_| {
        out.set(
            "serve.execute_ms",
            best_of(ctx.reps(10), || {
                black_box(scenario::execute(&spec, |_| {}).expect("spec runs"));
            }) * 1e3,
        );
        out.set(
            "serve.result_payload_us",
            per_call(ctx.reps(20), 5, || {
                black_box(scenario::result_payload(&spec, &run));
            }) * 1e6,
        );
    });
    rec.span("duet-serve", "probe ResultCache", 0, |_| {
        let cache = ResultCache::new();
        for key in 0..8 {
            cache.insert(key, payload.clone());
        }
        let mut key = 0;
        out.set(
            "serve.cache_lookup_hit_ns",
            per_call(ctx.reps(20), 2000, || {
                key = (key + 1) % 8;
                black_box(cache.lookup(key));
            }) * 1e9,
        );
        out.set(
            "serve.cache_lookup_miss_ns",
            per_call(ctx.reps(20), 2000, || {
                key += 1;
                black_box(cache.lookup(1 << 40 | key));
            }) * 1e9,
        );
        // The payload copies are made before the clock starts: a worker
        // hands the cache a buffer it already owns.
        let n = ctx.reps(500);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let cache = ResultCache::new();
            let fresh: Vec<Vec<u8>> = (0..n).map(|_| payload.clone()).collect();
            let t = Instant::now();
            for (key, p) in fresh.into_iter().enumerate() {
                cache.insert(key as u64, p);
            }
            best = best.min(t.elapsed().as_secs_f64());
        }
        out.set("serve.cache_insert_us", best * 1e6 / n as f64);
    });
    rec.span("duet-serve", "probe DiskStore", 0, |_| {
        let open = |dir: &std::path::Path, fsync| {
            let mut cfg = StoreConfig::new(dir);
            cfg.fsync = fsync;
            DiskStore::open(cfg, Box::new(RealIo::new())).expect("open the store")
        };
        let dir = fresh_dir("probe-store");
        let n = ctx.reps(500) as u64;
        let store = open(&dir, FsyncPolicy::Never);
        let t = Instant::now();
        for key in 0..n {
            store.append(key, &payload);
        }
        out.set(
            "serve.store_append_us",
            t.elapsed().as_secs_f64() * 1e6 / n as f64,
        );
        let mut key = 0;
        out.set(
            "serve.store_get_us",
            per_call(3, n as usize, || {
                key = (key + 1) % n;
                black_box(store.get(key).expect("appended"));
            }) * 1e6,
        );
        store.flush();
        drop(store);
        out.set(
            "serve.store_recover_ms",
            best_of(3, || {
                black_box(open(&dir, FsyncPolicy::Never));
            }) * 1e3,
        );
        let _ = std::fs::remove_dir_all(&dir);

        // Disk-dependent; reported only.
        let dir = fresh_dir("probe-store-fsync");
        let store = open(&dir, FsyncPolicy::Always);
        let n = ctx.reps(20) as u64;
        let t = Instant::now();
        for key in 0..n {
            store.append(key, &payload);
        }
        out.set(
            "serve.store_append_fsync_us",
            t.elapsed().as_secs_f64() * 1e6 / n as f64,
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    });
}

/// The cost of one HTTP exchange that does nothing: connect, `GET
/// /healthz`, read, close. Returned in seconds.
fn serve_http_floor(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values) -> f64 {
    rec.span("duet-serve", "probe GET /healthz", 0, |_| {
        let dir = fresh_dir("probe-http");
        let server = start_server(dir.clone());
        let addr = server.addr();
        let lat: Vec<f64> = (0..ctx.reps(300))
            .map(|_| {
                let t = Instant::now();
                let r = client::get(addr, "/healthz").expect("healthz");
                assert_eq!(r.status, 200);
                t.elapsed().as_secs_f64()
            })
            .collect();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        let floor = stats::quantile(&stats::sorted(&lat), 0.5);
        out.set("serve.http_floor_us", floor * 1e6);
        floor
    })
}

// ----------------------------------------------------- one set per workload

/// `comm_sweeps`: construction and horizon cost of small dual-clock systems.
pub fn comm_sweeps(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values) {
    system_small(ctx, rec, out);
}

/// `fig12_apps`: the area model behind the ADP half of `paper_err_pct`.
pub fn fig12_apps(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values) {
    fpga_implement(ctx, rec, out);
}

/// `coherence_stream`: the coherent hierarchy without cores, the checkers'
/// plan parser, and the simulator's own tracing switched on.
pub fn coherence_stream(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values) {
    mem_harness(ctx, rec, out);
    verify_plan_parse(ctx, rec, out);
    trace_overhead(ctx, rec, out);
}

/// `noc_hotspot`: the standalone mesh, and checkpointing of the big system.
pub fn noc_hotspot(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values) {
    noc_mesh(ctx, rec, out);
    system_snapshot(ctx, rec, out);
}

/// `noc_hotspot_t2`: the standalone mesh and the barrier every sharded
/// edge crosses.
pub fn noc_hotspot_t2(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values) {
    noc_mesh(ctx, rec, out);
    sim_epoch_barrier(ctx, rec, out);
}

/// `serve_hot`: every phase of the service, the empty exchange, and what a
/// hit costs beyond it.
pub fn serve_hot(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values) {
    serve_parts(ctx, rec, out);
    sim_snapwriter(ctx, rec, out);
    let floor = serve_http_floor(ctx, rec, out);
    out.set("serve.hit_overhead_us", (ctx.lat_p50_s - floor) * 1e6);
}

/// `serve_cold`: every phase of the service and of the system it builds per
/// request, and what a miss costs beyond the phases measured one by one —
/// queue hand-off, worker wake-up and the waiting client's wake-up.
pub fn serve_cold(ctx: &ProbeCtx, rec: &mut Recorder, out: &mut Values) {
    serve_parts(ctx, rec, out);
    system_small(ctx, rec, out);
    let floor = serve_http_floor(ctx, rec, out);
    let phases_us = floor * 1e6
        + out.get("serve.json_parse_spec_us")
        + out.get("serve.spec_from_json_us")
        + out.get("serve.cache_key_us")
        + out.get("serve.cache_lookup_miss_ns") / 1e3
        + out.get("serve.execute_ms") * 1e3
        + out.get("serve.result_payload_us")
        + out.get("serve.cache_insert_us")
        + out.get("serve.store_append_us");
    out.set("serve.queue_wait_us", ctx.lat_p50_s * 1e6 - phases_us);
}
