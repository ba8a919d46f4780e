//! Building and executing one scenario: spec → `System` → run loop →
//! deterministic result payload (or a structured [`RunError`]).

use std::sync::Arc;

use duet_cpu::asm::Asm;
use duet_cpu::isa::regs;
use duet_sim::Time;
use duet_system::{is_simulated_metric, RunError, RunStats, System};
use duet_trace::{MetricsRegistry, TraceConfig};
use duet_workloads::{popcount, tangent, BenchVariant};

use crate::json::{self, obj, Json};
use crate::spec::{ScenarioSpec, WorkloadSpec};

/// Shared window the stream-stores cores hammer.
const STREAM_WINDOW: u64 = 0x2_0000;
/// Window size in bytes (8 cache lines — enough to keep the directory
/// busy, small enough that every core collides constantly).
const STREAM_SPAN: u64 = 512;

/// How a finished run scores its own output.
enum Check {
    Popcount(popcount::PopcountCheck),
    Tangent(tangent::TangentCheck),
    /// Last store wins deterministically; any nonzero word proves the
    /// window was written through the coherence protocol.
    Stream,
}

impl Check {
    fn check(&self, sys: &System) -> bool {
        match self {
            Check::Popcount(c) => c.check(sys),
            Check::Tangent(c) => c.check(sys),
            Check::Stream => {
                (0..STREAM_SPAN / 64).all(|l| sys.peek_u64(STREAM_WINDOW + l * 64) != 0)
            }
        }
    }
}

/// Builds the ready-to-run system for a spec. The `SystemConfig` under the
/// hood is exactly [`ScenarioSpec::system_config`] — the config the cache
/// key hashes — via the workload `prepare` constructors.
fn build(spec: &ScenarioSpec) -> (System, Check) {
    match &spec.workload {
        WorkloadSpec::Popcount { n, seed } => {
            let (sys, check) = popcount::prepare(spec.variant, *n, *seed, spec.faults.clone());
            (sys, Check::Popcount(check))
        }
        WorkloadSpec::Tangent { n, seed } => {
            let (sys, check) = tangent::prepare(spec.variant, *n, *seed, spec.faults.clone());
            (sys, Check::Tangent(check))
        }
        WorkloadSpec::StreamStores { processors, stores } => {
            let mut cfg = BenchVariant::ProcOnly.system_config(*processors as usize, 0, 0.0);
            cfg.faults = spec.faults.clone();
            let mut sys = System::new(cfg).expect("valid config");
            let mut a = Asm::new();
            a.label("main");
            let (base, i, val) = (regs::S[0], regs::S[1], regs::S[2]);
            a.li(base, STREAM_WINDOW as i64);
            a.li(i, 0);
            a.li(val, 0);
            a.label("loop");
            // addr = base + (i*8 mod STREAM_SPAN): every core walks the
            // same 8 lines, so stores constantly steal ownership.
            a.slli(regs::T[0], i, 3);
            a.andi(regs::T[0], regs::T[0], (STREAM_SPAN - 1) as i64);
            a.add(regs::T[0], regs::T[0], base);
            a.addi(val, val, 1);
            a.sd(val, regs::T[0], 0);
            a.addi(i, i, 1);
            a.li(regs::T[1], *stores as i64);
            a.blt(i, regs::T[1], "loop");
            a.fence();
            a.halt();
            let prog = Arc::new(a.assemble().expect("stream_stores assembles"));
            for c in 0..*processors as usize {
                sys.load_program(c, prog.clone(), "main");
            }
            (sys, Check::Stream)
        }
    }
}

/// Everything a completed run produces.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Simulated end time (after quiesce), picoseconds.
    pub sim_ps: u64,
    /// Whether the output matched the workload's reference.
    pub correct: bool,
    /// Aggregate run statistics.
    pub stats: RunStats,
    /// Deterministic metrics: the run's registry with every entry that
    /// [`is_simulated_metric`] rejects dropped. The trace-differential
    /// suite asserts everything kept is bit-identical across trace and
    /// edge-skip modes, so a payload is a function of the spec alone.
    pub metrics: MetricsRegistry,
    /// Scoreboard report when the spec asked for a trace.
    pub scoreboard: Option<String>,
}

/// Runs a spec to completion, reporting simulated progress (picoseconds)
/// through `progress` roughly once per deadline/64 of simulated time.
///
/// # Errors
///
/// Propagates [`RunError`] from the run loop: a hung run (e.g. an
/// `accel_hang` fault with no degrade policy) surfaces as
/// [`RunError::Deadlock`] when the spec's `max_sim_us` deadline expires —
/// bounded simulated time means bounded host time, so the worker thread
/// always comes back.
pub fn execute(spec: &ScenarioSpec, mut progress: impl FnMut(u64)) -> Result<RunOutcome, RunError> {
    let (mut sys, check) = build(spec);
    if spec.trace {
        sys.enable_tracing(&TraceConfig::default());
    }
    let deadline = Time::from_us(spec.max_sim_us);
    let quantum = (deadline.as_ps() / 64).max(1);
    while !sys.all_halted() {
        let target = Time::from_ps(sys.now().as_ps().saturating_add(quantum));
        if target >= deadline {
            sys.run_until_halt(deadline)?;
            break;
        }
        sys.run_until(deadline, |s| s.all_halted() || s.now() >= target)?;
        progress(sys.now().as_ps());
    }
    let quiesce_deadline = Time::from_ps(deadline.as_ps().saturating_mul(2));
    let end = sys.quiesce(quiesce_deadline)?;
    progress(end.as_ps());
    let mut metrics = sys.metrics_registry();
    metrics.retain(|name, _| is_simulated_metric(name));
    Ok(RunOutcome {
        sim_ps: end.as_ps(),
        correct: check.check(&sys),
        stats: sys.stats(),
        metrics,
        scoreboard: sys.trace_scoreboard().map(|s| s.report()),
    })
}

/// Serializes a completed run as the canonical result payload — the exact
/// bytes the cache stores and every later hit returns. Field order is
/// fixed and the metrics section is sorted (the registry iterates in
/// order), so two deterministic runs of the same spec produce identical
/// bytes; `?verify=1` re-runs and compares against these.
///
/// The bytes are written straight from the outcome instead of through a
/// [`Json`] tree, and equal what `Json::Obj` of the same fields in the
/// same order encodes to.
pub fn result_payload(spec: &ScenarioSpec, out: &RunOutcome) -> Vec<u8> {
    let scoreboard = out.scoreboard.as_deref();
    let mut p = String::with_capacity(
        256 + 32 * out.metrics.len() + scoreboard.map_or(0, |s| s.len() + s.len() / 8),
    );
    p.push_str("{\"spec\":");
    json::write_value(&mut p, &spec.to_json());
    p.push_str(if out.correct {
        ",\"correct\":true"
    } else {
        ",\"correct\":false"
    });
    let stats = &out.stats;
    for (key, value) in [
        (",\"sim_ps\":", out.sim_ps),
        (",\"stats\":{\"fast_edges\":", stats.fast_edges),
        (",\"slow_edges\":", stats.slow_edges),
        (",\"exceptions\":", stats.exceptions),
        (",\"page_faults\":", stats.page_faults),
    ] {
        p.push_str(key);
        json::write_u64(&mut p, value);
    }
    p.push_str("},\"metrics\":{");
    for (i, (name, value)) in out.metrics.iter().enumerate() {
        if i > 0 {
            p.push(',');
        }
        json::write_string(&mut p, name);
        p.push(':');
        json::write_u64(&mut p, value);
    }
    p.push('}');
    if let Some(report) = scoreboard {
        p.push_str(",\"scoreboard\":");
        json::write_string(&mut p, report);
    }
    p.push('}');
    p.into_bytes()
}

/// Maps a [`RunError`] to the structured error object the API returns.
/// The stall snapshot's component list and notes ride along so a client
/// sees *where* the run wedged, not just that it did.
pub fn error_json(err: &RunError) -> Json {
    let (kind, detail, snapshot) = match err {
        RunError::Deadlock {
            deadline_ps,
            snapshot,
        } => (
            "deadlock",
            obj([("deadline_ps", Json::U64(*deadline_ps))]),
            snapshot,
        ),
        RunError::ProtocolViolation {
            violation,
            snapshot,
        } => (
            "protocol_violation",
            obj([("violation", Json::Str(violation.to_string()))]),
            snapshot,
        ),
    };
    let components = snapshot
        .components
        .iter()
        .map(|c| {
            obj([
                ("name", Json::Str(c.name.clone())),
                ("active", Json::Bool(c.active)),
                ("queued", Json::U64(c.queued as u64)),
                (
                    "next_event_ps",
                    c.next_event_ps.map(Json::U64).unwrap_or(Json::Null),
                ),
            ])
        })
        .collect();
    obj([
        ("kind", Json::Str(kind.to_string())),
        ("detail", detail),
        ("message", Json::Str(err.to_string())),
        ("at_ps", Json::U64(snapshot.at_ps)),
        ("components", Json::Arr(components)),
        (
            "notes",
            Json::Arr(
                snapshot
                    .notes
                    .iter()
                    .map(|n| Json::Str(n.clone()))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn spec(body: &str) -> ScenarioSpec {
        ScenarioSpec::from_json(&json::parse(body.as_bytes()).unwrap()).unwrap()
    }

    #[test]
    fn popcount_executes_and_payload_is_reproducible() {
        let s = spec(r#"{"workload":"popcount","n":4,"seed":7}"#);
        let a = execute(&s, |_| {}).unwrap();
        assert!(a.correct);
        let b = execute(&s, |_| {}).unwrap();
        assert_eq!(result_payload(&s, &a), result_payload(&s, &b));
    }

    #[test]
    fn stream_stores_hits_every_line() {
        let s = spec(
            r#"{"workload":"stream_stores","variant":"proc-only","processors":2,"stores":128}"#,
        );
        let out = execute(&s, |_| {}).unwrap();
        assert!(out.correct);
        assert!(out.sim_ps > 0);
    }

    #[test]
    fn hung_accelerator_returns_structured_deadlock() {
        let s = spec(
            r#"{"workload":"popcount","n":4,"seed":7,
                "faults":"fault accel_hang from_us=0\n","max_sim_us":500}"#,
        );
        let err = execute(&s, |_| {}).unwrap_err();
        let j = error_json(&err);
        assert_eq!(j.get("kind").unwrap().as_str(), Some("deadlock"));
        assert!(j.get("at_ps").unwrap().as_u64().is_some());
    }

    #[test]
    fn progress_reports_monotonic_sim_time() {
        let s = spec(r#"{"workload":"tangent","n":3,"seed":2,"max_sim_us":100000}"#);
        let mut seen = Vec::new();
        execute(&s, |ps| seen.push(ps)).unwrap();
        assert!(!seen.is_empty());
        assert!(seen.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn traced_runs_carry_a_scoreboard_and_distinct_payloads() {
        let plain = spec(r#"{"workload":"popcount","n":3,"seed":1}"#);
        let traced = spec(r#"{"workload":"popcount","n":3,"seed":1,"trace":true}"#);
        let a = execute(&plain, |_| {}).unwrap();
        let b = execute(&traced, |_| {}).unwrap();
        assert!(a.scoreboard.is_none());
        assert!(b.scoreboard.is_some());
        // Same simulation, different payloads — hence different cache keys.
        assert_eq!(a.sim_ps, b.sim_ps);
        assert_ne!(plain.cache_key(), traced.cache_key());
    }
}
