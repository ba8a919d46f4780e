#![forbid(unsafe_code)]
//! Shared helpers for the benchmark harness binaries: a dependency-free
//! parallel sweep runner and wall-clock throughput reporting.
//!
//! Every figure/table harness runs many *independent* simulations (one per
//! (configuration, variant) cell). [`parallel_map`] fans them out across a
//! scoped thread pool — results come back in input order, so the printed
//! tables are byte-identical to a sequential run — and each binary ends
//! with a `throughput:` line giving edges/sec and simulated-ns/sec.
//!
//! Thread count: `--threads N` on the command line, else the
//! `DUET_BENCH_THREADS` environment variable, else all available cores.
//!
//! Tracing: every harness accepts `--trace <path>` (or `--trace=<path>`,
//! or the `DUET_TRACE` environment variable) and writes a Chrome
//! trace-event JSON of a representative traced run to that path —
//! loadable in `chrome://tracing` or <https://ui.perfetto.dev>.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The worker-thread count for [`parallel_map`]: `--threads N` (or
/// `--threads=N`) from the command line, else `DUET_BENCH_THREADS`, else
/// [`std::thread::available_parallelism`]. `0` from either source also
/// means "auto" (available parallelism). Always at least 1. Each
/// simulation runs on one thread, so this is the host thread count.
pub fn configured_threads() -> usize {
    let auto = || std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            if let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) {
                return if n == 0 { auto() } else { n };
            }
        } else if let Some(v) = a.strip_prefix("--threads=") {
            if let Ok(n) = v.parse::<usize>() {
                return if n == 0 { auto() } else { n };
            }
        }
    }
    if let Ok(v) = std::env::var("DUET_BENCH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return if n == 0 { auto() } else { n };
        }
    }
    auto()
}

/// Applies `f` to every item on a scoped thread pool and returns the
/// results **in input order**. Simulations whose guts are `!Send`
/// (`Rc<RefCell<..>>` accelerators) are fine: each is built and torn down
/// entirely inside one worker. With one configured thread this degrades to
/// a plain sequential map.
pub fn parallel_map<T, R>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    let n = items.len();
    let threads = configured_threads().min(n.max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = jobs[i].lock().unwrap().take().expect("job claimed once");
                let r = f(item);
                *results[i].lock().unwrap() = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled its slot"))
        .collect()
}

/// The trace output path, if the user asked for one: `--trace <path>` (or
/// `--trace=<path>`) from the command line, else the `DUET_TRACE`
/// environment variable. `None` means tracing stays disabled (the
/// zero-overhead default).
pub fn configured_trace_path() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--trace" {
            if let Some(p) = args.next() {
                return Some(p);
            }
        } else if let Some(p) = a.strip_prefix("--trace=") {
            return Some(p.to_string());
        }
    }
    std::env::var("DUET_TRACE").ok().filter(|p| !p.is_empty())
}

/// Honors `--trace <path>` / `DUET_TRACE` for harnesses whose own sweep
/// does not capture traces: re-runs one representative scenario (the
/// proxy-cached Fig. 9 round trip at 250 MHz) with tracing enabled and
/// writes its Chrome trace-event JSON to the configured path. No-op when
/// no trace path is configured. Returns the path written, if any.
pub fn maybe_write_trace(label: &str) -> Option<String> {
    let path = configured_trace_path()?;
    let tcfg = duet_trace::TraceConfig::default();
    let (_, json) = duet_workloads::measure_latency_traced(
        duet_workloads::Mechanism::CpuPullProxy,
        250.0,
        Some(&tcfg),
    );
    let json = json.expect("tracing was enabled, so a trace must exist");
    match std::fs::write(&path, &json) {
        Ok(()) => {
            println!("# {label}: chrome trace written to {path}");
            Some(path)
        }
        Err(e) => {
            eprintln!("# {label}: failed to write trace to {path}: {e}");
            None
        }
    }
}

/// The fault-plan path, if the user asked for one: `--faults <path>` (or
/// `--faults=<path>`) from the command line, else the `DUET_FAULTS`
/// environment variable. `None` means no fault injection (the default).
pub fn configured_fault_path() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--faults" {
            if let Some(p) = args.next() {
                return Some(p);
            }
        } else if let Some(p) = a.strip_prefix("--faults=") {
            return Some(p.to_string());
        }
    }
    std::env::var("DUET_FAULTS").ok().filter(|p| !p.is_empty())
}

/// Honors `--faults <plan>` / `DUET_FAULTS` on the figure harnesses:
/// loads the [`duet_system::FaultPlan`] text file, runs one representative
/// accelerated scenario (the quickstart popcount on Dolly-P1M1) under that
/// plan with the runtime checkers live, and prints the outcome plus every
/// deterministic `verify.*` metric. Unreadable or unparsable plans are
/// clean errors on stderr, not panics. No-op when no plan is configured.
/// Returns the plan path on a completed run.
pub fn maybe_run_faulted(label: &str) -> Option<String> {
    use duet_cpu::asm::Asm;
    use duet_cpu::isa::regs;
    use duet_system::{System, SystemConfig};
    use std::sync::Arc;

    let path = configured_fault_path()?;
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("# {label}: cannot read fault plan {path}: {e}");
            return None;
        }
    };
    let plan = match duet_system::FaultPlan::parse(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("# {label}: bad fault plan {path}: {e}");
            return None;
        }
    };
    println!(
        "# {label}: fault plan {path}: seed {}, {} fault(s), degrade {}",
        plan.seed,
        plan.specs.len(),
        if plan.degrade.is_some() { "on" } else { "off" },
    );
    let mut cfg = SystemConfig::dolly(1, 1, 189.0);
    cfg.faults = plan;
    let mut sys = System::new(cfg).expect("valid config");
    sys.set_reg_mode(0, duet_core::RegMode::FpgaBound);
    sys.set_reg_mode(1, duet_core::RegMode::CpuBound);
    sys.attach_accelerator(Box::new(duet_workloads::popcount::PopcountAccel::new(true)));
    let vec_addr = 0x1_0000u64;
    let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
    sys.poke_bytes(vec_addr, &data);
    let mmio = sys.config().mmio_base;
    let mut a = Asm::new();
    a.label("main");
    a.li(regs::T[0], mmio as i64);
    a.li(regs::T[1], vec_addr as i64);
    a.sd(regs::T[1], regs::T[0], 0);
    a.ld(regs::T[2], regs::T[0], 8);
    a.li(regs::T[3], 0x2_0000);
    a.sd(regs::T[2], regs::T[3], 0);
    a.fence();
    a.halt();
    sys.load_program(0, Arc::new(a.assemble().expect("static program")), "main");
    match sys.run_until_halt(duet_sim::Time::from_us(2_000)) {
        Ok(t) => println!("# {label}: faulted popcount run completed at {t}"),
        Err(e) => println!("# {label}: faulted popcount run failed:\n{e}"),
    }
    for (name, value) in sys.metrics_registry().iter() {
        if name.starts_with("verify.") {
            println!("# {label}: {name} = {value}");
        }
    }
    Some(path)
}

/// Measures wall time and simulation-throughput counters across a
/// harness's working section; [`Throughput::report`] prints the standard
/// `throughput:` line.
pub struct Throughput {
    start: Instant,
    edges0: u64,
    sim_ps0: u64,
}

impl Default for Throughput {
    fn default() -> Self {
        Self::start()
    }
}

impl Throughput {
    /// Starts the clock and snapshots the process-wide counters.
    pub fn start() -> Self {
        let (edges0, sim_ps0) = duet_system::metrics::snapshot();
        Throughput {
            start: Instant::now(),
            edges0,
            sim_ps0,
        }
    }

    /// Prints `# <label> throughput: X edges/sec, Y simulated-ns/sec
    /// (wall Zs, T threads)` from the counter deltas since `start`.
    pub fn report(&self, label: &str) {
        let wall = self.start.elapsed();
        let (edges, sim_ps) = duet_system::metrics::snapshot();
        let line = duet_system::metrics::throughput_line(
            edges.saturating_sub(self.edges0),
            sim_ps.saturating_sub(self.sim_ps0),
            wall,
        );
        println!(
            "# {label} {line} (wall {:.3}s, {} threads)",
            wall.as_secs_f64(),
            configured_threads()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(items.clone(), |x| x * 3 + 1);
        assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(parallel_map(Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        assert_eq!(parallel_map(vec![7u8], |x| x + 1), vec![8]);
    }
}
