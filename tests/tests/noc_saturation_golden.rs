//! Saturating-traffic golden for the mesh: every node injects on all three
//! virtual networks every cycle, so router input queues fill to `buf_depth`
//! and forwards are actually refused by the start-of-tick credit snapshot —
//! the backpressure path no other test reaches (ROADMAP 4b).
//!
//! Each cell (mesh size × `buf_depth` × traffic pattern) runs a standalone
//! `Mesh<u64>` and records the full ejection stream — a hash of every
//! `(trace_id, eject time, eject node)` — every queue's [`LinkStats`] as
//! seen through `visit_links`, and the [`MeshStats`]. A cell must produce
//! the same line at 1, 2 and 4 mesh shards, lose nothing, and drain.
//!
//! The golden values were recorded at the parent of PR 15 (the mesh storage
//! rewrite) with `DUET_BLESS_GOLDEN=1 cargo test -p duet-tests --test
//! noc_saturation_golden`. A change that moves them has changed the NoC's
//! timing model: say so, and why, in the commit that re-blesses.
//!
//! [`LinkStats`]: duet_sim::LinkStats
//! [`MeshStats`]: duet_noc::MeshStats

use duet_noc::{Mesh, MeshConfig, Message, NodeId, VNet};
use duet_sim::{Clock, Component, SimRng, SnapHasher, Time};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/golden/noc_saturation_pr15.txt"
);

/// Cycles during which every node offers a message on every vnet.
const INJECT_CYCLES: u64 = 300;
/// Drain bound after injection stops; not draining by then is a deadlock.
const DRAIN_CYCLES: u64 = 50_000;

#[derive(Clone, Copy, Debug)]
enum Pattern {
    /// Every node (the target included) sends to one interior node.
    AllToOne,
    /// `(x, y)` sends to `(y, x)`; the diagonal sends to itself.
    Transpose,
    /// Seeded uniform-random destinations.
    Uniform,
}

impl Pattern {
    fn label(self) -> &'static str {
        match self {
            Pattern::AllToOne => "all-to-one",
            Pattern::Transpose => "transpose",
            Pattern::Uniform => "uniform",
        }
    }
}

const VNETS: [VNet; 3] = [VNet::Req, VNet::Fwd, VNet::Resp];

fn run_cell(dim: usize, depth: usize, pattern: Pattern, shards: usize) -> String {
    let cfg = MeshConfig::new(dim, dim, Clock::ghz1()).with_buf_depth(depth);
    let nodes = cfg.nodes();
    let mut mesh: Mesh<u64> = Mesh::new(cfg);
    mesh.set_shards(shards);
    let mut rng = SimRng::new(0x5A70 + dim as u64 * 16 + depth as u64);
    let hot = cfg.node_at(dim / 2 - 1, dim / 2 - 1);

    // Payload = index into `sent`; `sent[i]` = (src, dst, vnet, delivered).
    let mut sent: Vec<(NodeId, NodeId, usize, bool)> = Vec::new();
    let mut ejects = SnapHasher::new();
    let mut delivered = 0u64;
    // Highest trace id seen per (src, dst, vnet): point-to-point order.
    let mut last_id = vec![0u64; nodes * nodes * 3];

    let mut t = Time::ZERO;
    let mut cycle = 0u64;
    loop {
        t += Time::from_ps(1000);
        if cycle < INJECT_CYCLES {
            for src in 0..nodes {
                for (vi, &vnet) in VNETS.iter().enumerate() {
                    let dst = match pattern {
                        Pattern::AllToOne => hot,
                        Pattern::Transpose => {
                            let (x, y) = cfg.coords(src);
                            cfg.node_at(y, x)
                        }
                        Pattern::Uniform => rng.next_below(nodes as u64) as usize,
                    };
                    if !mesh.can_inject(src, vnet) {
                        continue;
                    }
                    // Mixed single-flit control and 3-flit data messages.
                    let flits = if (src + vi + cycle as usize).is_multiple_of(2) {
                        1
                    } else {
                        3
                    };
                    let id = sent.len() as u64;
                    mesh.inject(t, Message::new(src, dst, vnet, flits, id))
                        .expect("can_inject checked");
                    sent.push((src, dst, vi, false));
                }
            }
        }
        mesh.tick(t);
        while let Some(node) = mesh.first_eject_node() {
            for vnet in VNet::ALL {
                while let Some(m) = mesh.eject(node, vnet) {
                    let (src, dst, vi, seen) = &mut sent[m.payload as usize];
                    assert!(!*seen, "message {} delivered twice", m.payload);
                    *seen = true;
                    assert_eq!(node, *dst, "message {} misrouted", m.payload);
                    assert_eq!((m.src, m.vnet.index()), (*src, VNETS[*vi].index()));
                    let flow = (*src * nodes + *dst) * 3 + *vi;
                    assert!(
                        m.trace_id > last_id[flow],
                        "flow n{src}->n{dst} vnet {vi} reordered"
                    );
                    last_id[flow] = m.trace_id;
                    ejects.u64(m.trace_id);
                    ejects.u64(t.as_ps());
                    ejects.usize(node);
                    delivered += 1;
                }
            }
        }
        cycle += 1;
        if cycle >= INJECT_CYCLES && mesh.is_idle() {
            break;
        }
        assert!(
            cycle < INJECT_CYCLES + DRAIN_CYCLES,
            "{dim}x{dim} depth {depth} {}: deadlock, {} of {} delivered",
            pattern.label(),
            delivered,
            sent.len()
        );
    }
    assert_eq!(delivered as usize, sent.len(), "messages lost");

    let mut links = SnapHasher::new();
    let (mut full_queues, mut full_router_queues) = (0u64, 0u64);
    Component::visit_links(&mesh, &mut |name, rep| {
        links.bytes(name.as_bytes());
        links.usize(rep.capacity.expect("router queues are bounded"));
        links.usize(rep.occupancy);
        links.u64(rep.stats.pushes);
        links.u64(rep.stats.pops);
        links.u64(rep.stats.rejected_pushes);
        links.usize(rep.stats.peak_occupancy);
        for b in rep.stats.occupancy_hist {
            links.u64(b);
        }
        assert!(rep.stats.peak_occupancy <= depth, "{name} overfilled");
        if rep.stats.peak_occupancy == depth {
            full_queues += 1;
            if !name.contains(".local.") {
                full_router_queues += 1;
            }
        }
    });
    // The point of the test: router-to-router queues really filled, so the
    // credit snapshot — not just the injection port — refused traffic.
    assert!(
        full_router_queues > 0,
        "no inter-router queue reached buf_depth {depth}"
    );

    let s = mesh.stats();
    assert_eq!(s.injected, sent.len() as u64);
    assert_eq!(s.delivered, delivered);
    format!(
        "{dim}x{dim} depth={depth} {}: injected={} flits={} latency_ps={} cycles={cycle} \
         full_queues={full_queues} ejects={:016x} links={:016x}",
        pattern.label(),
        s.injected,
        s.delivered_flits,
        s.total_latency.as_ps(),
        ejects.finish(),
        links.finish(),
    )
}

#[test]
fn saturated_mesh_matches_golden_at_every_shard_count() {
    let mut all = String::new();
    for dim in [4, 8] {
        for depth in [1, 2] {
            for pattern in [Pattern::AllToOne, Pattern::Transpose, Pattern::Uniform] {
                let line = run_cell(dim, depth, pattern, 1);
                for shards in [2, 4] {
                    assert_eq!(
                        run_cell(dim, depth, pattern, shards),
                        line,
                        "cell differs at {shards} mesh shards"
                    );
                }
                all.push_str(&line);
                all.push('\n');
            }
        }
    }
    if std::env::var("DUET_BLESS_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(GOLDEN_PATH, &all).unwrap();
        eprintln!("blessed NoC saturation goldens to {GOLDEN_PATH}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; bless with DUET_BLESS_GOLDEN=1");
    assert_eq!(
        golden, all,
        "saturated-mesh behaviour diverged from the golden"
    );
}
