//! Microbenchmarks of the simulator engine itself: how fast the
//! substrates simulate (host-side performance, not simulated-system
//! performance).
//!
//! Hand-rolled harness (`harness = false`): each scenario is warmed up,
//! then timed over enough repetitions to smooth noise, reporting ns/iter
//! plus per-element and engine-throughput rates.
//!
//! Run: `cargo bench -p duet-bench`
//! Filter by substring: `cargo bench -p duet-bench -- mesh`

use duet_mem::priv_cache::CacheConfig;
use duet_mem::testkit::ProtocolHarness;
use duet_mem::types::{MemReq, Width};
use duet_noc::{Mesh, MeshConfig, Message, VNet};
use duet_sim::{AsyncFifo, Clock, Time};
use duet_system::{System, SystemConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times `f` (returning an element count per iteration) and prints one
/// result line. Warms up ~3 iterations, then runs until either 20
/// measured iterations or ~1s of wall time has accumulated.
fn bench(filter: &Option<String>, name: &str, mut f: impl FnMut() -> u64) {
    if let Some(pat) = filter {
        if !name.contains(pat.as_str()) {
            return;
        }
    }
    for _ in 0..3 {
        black_box(f());
    }
    let mut iters = 0u64;
    let mut elems = 0u64;
    let budget = Duration::from_secs(1);
    let start = Instant::now();
    while iters < 20 || start.elapsed() < budget / 4 {
        elems += black_box(f());
        iters += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    let total = start.elapsed();
    let per_iter = total.as_nanos() as f64 / iters as f64;
    let per_elem = if elems > 0 {
        total.as_nanos() as f64 / elems as f64
    } else {
        0.0
    };
    println!("{name:<44} {per_iter:>14.0} ns/iter {per_elem:>10.1} ns/elem   ({iters} iters)");
}

fn main() {
    let filter = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .filter(|a| a != "bench");
    println!(
        "{:<44} {:>22} {:>18}",
        "# engine microbenchmarks", "time", "per element"
    );

    // --- async FIFO ---
    bench(&filter, "async_fifo/push_pop_1000", || {
        let fast = Clock::ghz1();
        let slow = Clock::from_mhz(100.0);
        let mut f: AsyncFifo<u64> = AsyncFifo::new(16, 2, fast, slow);
        let mut t = Time::ZERO;
        let mut got = 0u64;
        let mut sent = 0u64;
        while got < 1000 {
            t += Time::from_ps(1000);
            if sent < 1000 && f.can_push(t) {
                f.push(t, sent).unwrap();
                sent += 1;
            }
            while f.pop(t).is_some() {
                got += 1;
            }
        }
        got
    });

    // --- mesh: idle (the active-set fast path), light, saturated ---
    let mesh_cfg = MeshConfig::new(4, 4, Clock::ghz1());
    bench(&filter, "noc/mesh4x4_idle_10k_ticks", || {
        // An idle mesh must tick in O(1): no router scan at all.
        let mut mesh: Mesh<u32> = Mesh::new(mesh_cfg);
        let mut t = Time::ZERO;
        for _ in 0..10_000 {
            t += Time::from_ps(1000);
            mesh.tick(t);
        }
        10_000
    });
    bench(&filter, "noc/mesh4x4_light_one_flow_2k_ticks", || {
        // One long-lived flow: only routers on the path should pay.
        let mut mesh: Mesh<u32> = Mesh::new(mesh_cfg);
        let mut t = Time::ZERO;
        let mut delivered = 0u64;
        let mut injected = 0u32;
        for _ in 0..2_000 {
            t += Time::from_ps(1000);
            if injected < 500 && mesh.can_inject(0, VNet::Req) {
                mesh.inject(t, Message::new(0, 15, VNet::Req, 2, injected))
                    .unwrap();
                injected += 1;
            }
            mesh.tick(t);
            while mesh.eject(15, VNet::Req).is_some() {
                delivered += 1;
            }
        }
        delivered
    });
    bench(&filter, "noc/mesh4x4_hotspot_1000_msgs", || {
        // Saturated hotspot: every router active, worst case for the set.
        let mut mesh: Mesh<u32> = Mesh::new(mesh_cfg);
        let mut t = Time::ZERO;
        let mut delivered = 0u64;
        let mut injected = 0u32;
        while delivered < 1000 {
            t += Time::from_ps(1000);
            for src in 0..16 {
                if src != 5 && injected < 1000 && mesh.can_inject(src, VNet::Req) {
                    mesh.inject(t, Message::new(src, 5, VNet::Req, 2, injected))
                        .unwrap();
                    injected += 1;
                }
            }
            mesh.tick(t);
            while mesh.eject(5, VNet::Req).is_some() {
                delivered += 1;
            }
        }
        delivered
    });

    // --- mesh tick: saturated hotspot on a 16x16 grid ---
    let big_cfg = MeshConfig::new(16, 16, Clock::ghz1());
    bench(&filter, "noc/mesh_tick_16x16_hotspot", || {
        let mut mesh: Mesh<u32> = Mesh::new(big_cfg);
        let mut t = Time::ZERO;
        let mut delivered = 0u64;
        let mut injected = 0u32;
        while delivered < 2000 {
            t += Time::from_ps(1000);
            for src in (0..256).step_by(5) {
                if src != 136 && injected < 2000 && mesh.can_inject(src, VNet::Req) {
                    mesh.inject(t, Message::new(src, 136, VNet::Req, 2, injected))
                        .unwrap();
                    injected += 1;
                }
            }
            mesh.tick(t);
            while mesh.eject(136, VNet::Req).is_some() {
                delivered += 1;
            }
        }
        delivered
    });

    // --- coherence ---
    bench(&filter, "coherence/two_cache_pingpong_200_writes", || {
        let cfg = CacheConfig::dolly_l2(Clock::ghz1());
        let mut h = ProtocolHarness::new(2, 2, 2, cfg);
        for k in 0..200u64 {
            let cache = (k % 2) as usize;
            h.request(cache, MemReq::store(k, 0x1000, Width::B8, k));
            h.run_until_resp(cache, 2000);
        }
        200
    });

    // --- full system ---
    let mut asm = duet_cpu::asm::Asm::new();
    asm.label("main");
    asm.li(duet_cpu::isa::regs::T[0], 0x1000);
    asm.label("loop");
    asm.ld(duet_cpu::isa::regs::T[1], duet_cpu::isa::regs::T[0], 0);
    asm.addi(duet_cpu::isa::regs::T[1], duet_cpu::isa::regs::T[1], 1);
    asm.sd(duet_cpu::isa::regs::T[1], duet_cpu::isa::regs::T[0], 0);
    asm.j("loop");
    let busy = Arc::new(asm.assemble().unwrap());

    bench(&filter, "system/p4m1_10us_busy_step_edge", || {
        // Host cost of exhaustively stepping 10 us of a busy 4-core Dolly
        // instance, edge by edge (the step_edge micro-path).
        let mut sys = System::new(SystemConfig::dolly(4, 1, 100.0)).expect("valid config");
        for core in 0..4 {
            sys.load_program(core, busy.clone(), "main");
        }
        let deadline = Time::from_us(10);
        let mut edges = 0u64;
        while sys.now() < deadline {
            sys.step_edge();
            edges += 1;
        }
        edges
    });

    // Coherence-heavy: four cores stream stores over a shared 64 KB
    // region (4 K lines, far beyond the 8 KB L2), so nearly every store is
    // a miss with an eviction writeback — the directory maps fill with
    // thousands of lines and every edge moves GetM / Data / Inv / PutM
    // traffic. This is the hot-path state-storage scenario: wall time is
    // dominated by directory/MSHR/backing-store lookups.
    let mut st = duet_cpu::asm::Asm::new();
    st.label("main");
    st.li(duet_cpu::isa::regs::T[0], 0x10_0000);
    st.li(duet_cpu::isa::regs::T[2], 0x10_0000 + 0x1_0000);
    st.label("loop");
    st.sd(duet_cpu::isa::regs::T[1], duet_cpu::isa::regs::T[0], 0);
    st.addi(duet_cpu::isa::regs::T[0], duet_cpu::isa::regs::T[0], 16);
    st.blt(duet_cpu::isa::regs::T[0], duet_cpu::isa::regs::T[2], "loop");
    st.halt();
    let stream = Arc::new(st.assemble().unwrap());
    bench(&filter, "system/p4_stream_stores_4k_lines", || {
        let mut sys = System::new(SystemConfig::proc_only(4)).expect("valid config");
        for core in 0..4 {
            sys.load_program(core, stream.clone(), "main");
        }
        sys.run_until_halt(Time::from_us(4_000))
            .unwrap_or_else(|e| panic!("{e}"));
        sys.quiesce(Time::from_us(5_000))
            .unwrap_or_else(|e| panic!("{e}"));
        let s = sys.stats();
        s.fast_edges + s.slow_edges
    });

    bench(&filter, "system/poke_peek_1mb_image", || {
        // Memory-image initialization: the harness-side hot path every fig
        // binary pays before simulating (poke_bytes/peek_bytes_raw walk the
        // shard backing stores line by line).
        let mut sys = System::new(SystemConfig::proc_only(2)).expect("valid config");
        let buf = vec![0xA5u8; 1 << 20];
        sys.poke_bytes(0x10_0000, &buf);
        let back = sys.peek_bytes_raw(0x10_0000, 1 << 20);
        black_box(back.len() as u64)
    });

    // Idle-heavy: core 0 performs blocking MMIO round trips to a 20 MHz
    // scratchpad (write the echo register, block reading the result queue)
    // while three cores sit halted — the latency-bound case event-horizon
    // scheduling targets: almost every fast edge falls inside a CDC wait.
    use duet_core::control_hub::RegMode;
    use duet_workloads::synthetic::{sp_reg, Scratchpad, SpEvents};
    let idle_cfg = SystemConfig::dolly(4, 1, 20.0);
    let mut one = duet_cpu::asm::Asm::new();
    one.label("main");
    one.li(
        duet_cpu::isa::regs::T[0],
        (idle_cfg.mmio_base + (sp_reg::DATA as u64) * 8) as i64,
    );
    one.li(
        duet_cpu::isa::regs::T[6],
        (idle_cfg.mmio_base + (sp_reg::RESULT as u64) * 8) as i64,
    );
    one.li(duet_cpu::isa::regs::T[1], 0);
    one.label("loop");
    one.li(duet_cpu::isa::regs::T[2], 0x11);
    one.sd(duet_cpu::isa::regs::T[2], duet_cpu::isa::regs::T[0], 0); // DATA
    one.ld(duet_cpu::isa::regs::T[3], duet_cpu::isa::regs::T[6], 0); // RESULT (blocks)
    one.addi(duet_cpu::isa::regs::T[1], duet_cpu::isa::regs::T[1], 1);
    one.li(duet_cpu::isa::regs::T[4], 40);
    one.blt(duet_cpu::isa::regs::T[1], duet_cpu::isa::regs::T[4], "loop");
    one.halt();
    let mmio = Arc::new(one.assemble().unwrap());
    for skip in [false, true] {
        let label = if skip {
            "system/p4m1_idle_heavy_skip_on"
        } else {
            "system/p4m1_idle_heavy_skip_off"
        };
        bench(&filter, label, || {
            let mut sys = System::new(idle_cfg.clone()).expect("valid config");
            sys.set_edge_skipping(skip);
            for r in [sp_reg::CMD, sp_reg::RESULT, sp_reg::DATA] {
                sys.set_reg_mode(r, RegMode::Normal);
            }
            let events = std::rc::Rc::new(std::cell::RefCell::new(SpEvents::default()));
            sys.attach_accelerator(Box::new(Scratchpad::new(false, events)));
            sys.load_program(0, mmio.clone(), "main");
            sys.run_until_halt(Time::from_us(200))
                .unwrap_or_else(|e| panic!("{e}"));
            let s = sys.stats();
            s.fast_edges + s.slow_edges
        });
    }
}
