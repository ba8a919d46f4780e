//! A small protocol harness wiring private caches and directory shards over
//! a real [`duet_noc::Mesh`].
//!
//! Used by this crate's protocol tests, the cross-crate property tests in
//! `tests/`, and anywhere a bare coherent memory system (no cores, no eFPGA)
//! is useful. `duet-system` builds the full Dolly tile structure; this
//! harness is deliberately minimal: node `i` hosts cache `i` for
//! `i < caches`, and every node hosts a directory shard (distributed L3).

use duet_noc::{Mesh, MeshConfig, Message};
use duet_sim::{Clock, Time};

use crate::directory::{DirConfig, L3Shard};
use crate::msg::CoherenceMsg;
use crate::priv_cache::{CacheConfig, HomeMap, PrivCache};
use crate::types::{LineAddr, LineData, MemReq, MemResp};

/// A mesh of private caches and directory shards (no cores).
pub struct ProtocolHarness {
    /// The network.
    pub mesh: Mesh<CoherenceMsg>,
    /// Private caches; cache `i` sits on node `i`.
    pub caches: Vec<PrivCache>,
    /// One L3/directory shard per node.
    pub shards: Vec<L3Shard>,
    clock: Clock,
    now: Time,
}

impl ProtocolHarness {
    /// Builds a harness with `n_caches` private caches on a `width x height`
    /// mesh (every node also hosts an L3 shard).
    ///
    /// # Panics
    ///
    /// Panics if `n_caches` exceeds the node count.
    pub fn new(width: usize, height: usize, n_caches: usize, cache_cfg: CacheConfig) -> Self {
        let clock = cache_cfg.clock;
        let mesh_cfg = MeshConfig::new(width, height, clock);
        let nodes = mesh_cfg.nodes();
        assert!(n_caches <= nodes, "more caches than mesh nodes");
        let home = HomeMap::new((0..nodes).collect());
        let caches = (0..n_caches)
            .map(|i| PrivCache::new(cache_cfg, i, home.clone()))
            .collect();
        let shards = (0..nodes)
            .map(|i| L3Shard::new(DirConfig::dolly_l3(clock), i).interleaved(nodes, i))
            .collect();
        ProtocolHarness {
            mesh: Mesh::new(mesh_cfg),
            caches,
            shards,
            clock,
            now: Time::ZERO,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The home map used by the caches.
    pub fn home(&self) -> HomeMap {
        HomeMap::new((0..self.mesh.config().nodes()).collect())
    }

    /// Writes a line into the memory image at its home shard.
    pub fn poke_line(&mut self, line: LineAddr, data: LineData) {
        let home = self.home().home_of(line);
        self.shards[home].poke_line(line, data);
    }

    /// Reads a line from the memory image (home shard) — not coherent if a
    /// cache holds the line dirty; see [`peek_coherent`].
    ///
    /// [`peek_coherent`]: ProtocolHarness::peek_coherent
    pub fn peek_line(&self, line: LineAddr) -> LineData {
        let home = self.home().home_of(line);
        self.shards[home].peek_line(line)
    }

    /// Reads the globally visible value of a line: the owner's copy if one
    /// exists, else the memory image.
    pub fn peek_coherent(&self, line: LineAddr) -> LineData {
        let home = self.home().home_of(line);
        if let Some(owner) = self.shards[home].owner_of(line) {
            if owner < self.caches.len() {
                if let Some(d) = self.caches[owner].peek_line(line) {
                    return d;
                }
            }
        }
        self.shards[home].peek_line(line)
    }

    /// Issues a CPU-side request to cache `c`.
    pub fn request(&mut self, c: usize, req: MemReq) {
        self.caches[c].cpu_request(req);
    }

    /// Advances one system-clock cycle, moving messages between components.
    pub fn step(&mut self) -> Vec<(usize, MemResp)> {
        self.now = self.clock.next_edge_after(self.now);
        let now = self.now;

        // Drain cache outgoing into the mesh; eject mesh traffic into
        // caches and shards; tick everything.
        for c in 0..self.caches.len() {
            while self.mesh.can_inject(c, duet_noc::VNet::Req)
                && self.mesh.can_inject(c, duet_noc::VNet::Fwd)
                && self.mesh.can_inject(c, duet_noc::VNet::Resp)
            {
                let Some((dst, msg)) = self.caches[c].pop_outgoing(now) else {
                    break;
                };
                let vnet = msg.vnet();
                let flits = msg.flits();
                self.mesh
                    .inject(now, Message::new(c, dst, vnet, flits, msg))
                    .expect("vnet space checked");
            }
        }
        for s in 0..self.shards.len() {
            loop {
                let node = self.shards[s].node();
                let ok = duet_noc::VNet::ALL
                    .iter()
                    .all(|&v| self.mesh.can_inject(node, v));
                if !ok {
                    break;
                }
                let Some((dst, msg)) = self.shards[s].pop_outgoing(now) else {
                    break;
                };
                let vnet = msg.vnet();
                let flits = msg.flits();
                self.mesh
                    .inject(now, Message::new(node, dst, vnet, flits, msg))
                    .expect("vnet space checked");
            }
        }

        self.mesh.tick(now);

        // Ejection: directory-bound vs cache-bound messages are routed by
        // message type.
        let nodes = self.mesh.config().nodes();
        for node in 0..nodes {
            for &vnet in &duet_noc::VNet::ALL {
                while let Some(m) = self.mesh.eject(node, vnet) {
                    let flight = now.saturating_sub(m.injected_at);
                    match &m.payload {
                        CoherenceMsg::GetS { .. }
                        | CoherenceMsg::GetM { .. }
                        | CoherenceMsg::PutM { .. }
                        | CoherenceMsg::WBData { .. }
                        | CoherenceMsg::Unblock { .. } => {
                            self.shards[node].handle_msg_with_flight(now, m.src, m.payload, flight);
                        }
                        _ => {
                            assert!(node < self.caches.len(), "cache message to shard-only node");
                            self.caches[node].handle_msg(now, m.src, m.payload, flight);
                        }
                    }
                }
            }
        }

        for c in &mut self.caches {
            c.tick(now);
            // No L1s in this harness; discard back-invalidations.
            let _ = c.take_back_invalidations();
        }
        for s in &mut self.shards {
            s.tick(now);
        }

        let mut resps = Vec::new();
        for (i, c) in self.caches.iter_mut().enumerate() {
            while let Some(r) = c.pop_cpu_resp(now) {
                resps.push((i, r));
            }
        }
        resps
    }

    /// Steps until cache `c` produces a response (panics after `max` cycles).
    pub fn run_until_resp(&mut self, c: usize, max: u64) -> (Time, MemResp) {
        for _ in 0..max {
            for (i, r) in self.step() {
                if i == c {
                    return (self.now, r);
                }
            }
        }
        panic!("no response from cache {c} within {max} cycles");
    }

    /// Steps until the whole system is quiescent (no buffered work
    /// anywhere). Returns the number of cycles taken.
    ///
    /// # Panics
    ///
    /// Panics if the system does not quiesce within `max` cycles.
    pub fn quiesce(&mut self, max: u64) -> u64 {
        for i in 0..max {
            let _ = self.step();
            let idle = self.caches.iter().all(|c| c.is_idle())
                && self.shards.iter().all(|s| s.is_idle())
                && self.mesh.is_idle();
            if idle {
                return i;
            }
        }
        panic!("system did not quiesce within {max} cycles");
    }

    /// Protocol invariant: at most one cache holds a line in E/M, and if one
    /// does, no other cache holds it at all (single-writer/multi-reader).
    pub fn check_swmr(&self, line: LineAddr) {
        use crate::priv_cache::LineState;
        let holders: Vec<(usize, LineState)> = self
            .caches
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.line_state(line).map(|s| (i, s)))
            .collect();
        let owners = holders
            .iter()
            .filter(|(_, s)| matches!(s, LineState::E | LineState::M))
            .count();
        assert!(owners <= 1, "multiple owners of {line:?}: {holders:?}");
        if owners == 1 {
            assert_eq!(
                holders.len(),
                1,
                "owner coexists with sharers on {line:?}: {holders:?}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{read_scalar, AmoOp, Width};

    fn harness(n: usize) -> ProtocolHarness {
        ProtocolHarness::new(2, 2, n, CacheConfig::dolly_l2(Clock::ghz1()))
    }

    #[test]
    fn end_to_end_load() {
        let mut h = harness(1);
        let mut d = [0u8; 16];
        crate::types::write_scalar(&mut d, 0, Width::B8, 1234);
        h.poke_line(LineAddr::containing(0x400), d);
        h.request(0, MemReq::load(1, 0x400, Width::B8));
        let (_, r) = h.run_until_resp(0, 500);
        assert_eq!(r.rdata, 1234);
        h.quiesce(100);
    }

    #[test]
    fn store_then_load_same_cache() {
        let mut h = harness(1);
        h.request(0, MemReq::store(1, 0x800, Width::B8, 99));
        h.run_until_resp(0, 500);
        h.request(0, MemReq::load(2, 0x800, Width::B8));
        let (_, r) = h.run_until_resp(0, 100);
        assert_eq!(r.rdata, 99, "store hit after fill");
    }

    #[test]
    fn producer_consumer_two_caches() {
        let mut h = harness(2);
        // Cache 0 writes; cache 1 reads the same line (FwdGetS path).
        h.request(0, MemReq::store(1, 0x1000, Width::B8, 0xBEEF));
        h.run_until_resp(0, 500);
        h.request(1, MemReq::load(2, 0x1000, Width::B8));
        let (_, r) = h.run_until_resp(1, 500);
        assert_eq!(r.rdata, 0xBEEF, "reader sees writer's value via coherence");
        h.quiesce(200);
        h.check_swmr(LineAddr::containing(0x1000));
        // Memory image updated by the copy-back.
        let line = h.peek_line(LineAddr::containing(0x1000));
        assert_eq!(read_scalar(&line, 0, Width::B8), 0xBEEF);
    }

    #[test]
    fn write_write_migration() {
        let mut h = harness(2);
        h.request(0, MemReq::store(1, 0x2000, Width::B8, 1));
        h.run_until_resp(0, 500);
        // Cache 1 writes the same line: FwdGetM migrates ownership.
        h.request(1, MemReq::store(2, 0x2000, Width::B8, 2));
        h.run_until_resp(1, 500);
        h.quiesce(200);
        let line = h.peek_coherent(LineAddr::containing(0x2000));
        assert_eq!(read_scalar(&line, 0, Width::B8), 2);
        h.check_swmr(LineAddr::containing(0x2000));
        assert_eq!(h.caches[0].line_state(LineAddr::containing(0x2000)), None);
    }

    #[test]
    fn read_read_then_write_invalidates_sharers() {
        let mut h = harness(3);
        h.poke_line(LineAddr::containing(0x3000), [7u8; 16]);
        // Two readers.
        h.request(0, MemReq::load(1, 0x3000, Width::B8));
        h.run_until_resp(0, 500);
        h.request(1, MemReq::load(2, 0x3000, Width::B8));
        h.run_until_resp(1, 500);
        h.quiesce(300);
        // Writer invalidates both.
        h.request(2, MemReq::store(3, 0x3000, Width::B8, 42));
        h.run_until_resp(2, 500);
        h.quiesce(300);
        assert_eq!(h.caches[0].line_state(LineAddr::containing(0x3000)), None);
        assert_eq!(h.caches[1].line_state(LineAddr::containing(0x3000)), None);
        h.check_swmr(LineAddr::containing(0x3000));
        let line = h.peek_coherent(LineAddr::containing(0x3000));
        assert_eq!(read_scalar(&line, 0, Width::B8), 42);
    }

    #[test]
    fn contended_atomic_counter() {
        // Four caches each atomically increment the same counter N times;
        // the final value must be exact — the litmus test for GetM/FwdGetM
        // serialization.
        let mut h = harness(4);
        let addr = 0x4000u64;
        let per_cache = 10u64;
        let mut remaining = [per_cache; 4];
        let mut inflight = [false; 4];
        let mut done = 0;
        let mut steps = 0u64;
        while done < 4 {
            for c in 0..4 {
                if !inflight[c] && remaining[c] > 0 {
                    h.request(
                        c,
                        MemReq::amo(100 + c as u64, AmoOp::Add, addr, Width::B8, 1, 0),
                    );
                    inflight[c] = true;
                }
            }
            for (i, _r) in h.step() {
                inflight[i] = false;
                remaining[i] -= 1;
                if remaining[i] == 0 {
                    done += 1;
                }
            }
            steps += 1;
            assert!(steps < 100_000, "livelock in contended AMO test");
        }
        h.quiesce(1000);
        let line = h.peek_coherent(LineAddr::containing(addr));
        assert_eq!(read_scalar(&line, 0, Width::B8), 4 * per_cache);
        h.check_swmr(LineAddr::containing(addr));
    }

    #[test]
    fn capacity_evictions_preserve_data() {
        // Write more conflicting lines than one set holds, then read them
        // all back: writebacks must land in memory correctly.
        let cfg = CacheConfig {
            sets: 2,
            ways: 2,
            ..CacheConfig::dolly_l2(Clock::ghz1())
        };
        let mut h = ProtocolHarness::new(2, 2, 1, cfg);
        // 8 lines mapping to 2 sets: forces evictions.
        for i in 0..8u64 {
            h.request(0, MemReq::store(i, 0x9000 + i * 32, Width::B8, 1000 + i));
            h.run_until_resp(0, 2000);
        }
        h.quiesce(2000);
        for i in 0..8u64 {
            h.request(0, MemReq::load(100 + i, 0x9000 + i * 32, Width::B8));
            let (_, r) = h.run_until_resp(0, 2000);
            assert_eq!(r.rdata, 1000 + i, "line {i} lost in eviction");
        }
    }

    #[test]
    fn latency_breakdown_sums_sanely() {
        let mut h = harness(2);
        h.request(0, MemReq::store(1, 0x5000, Width::B8, 5));
        h.run_until_resp(0, 500);
        h.quiesce(300);
        // Remote dirty read: breakdown should include NoC and fast-cache time.
        h.request(1, MemReq::load(2, 0x5000, Width::B8));
        let (_, r) = h.run_until_resp(1, 500);
        assert!(r.breakdown.noc > Time::ZERO, "noc time recorded");
        assert!(r.breakdown.cache_fast > Time::ZERO, "cache time recorded");
        assert_eq!(r.breakdown.cache_slow, Time::ZERO, "no slow domain here");
        assert_eq!(r.breakdown.cdc, Time::ZERO, "no CDC here");
    }
}
