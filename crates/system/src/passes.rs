//! The per-node component passes of a fast edge — private L2s, then L3
//! shards, then cores, each ascending — and the wake sets that say which
//! members a pass visits.
//!
//! # Wake sets
//!
//! A pass visits only the *awake* members of its set: [`WakeSets`] holds a
//! bitset each for the L2s, the L3 shards and the cores. The rule is
//! push-style: a component that only an outside call can change leaves its
//! set, and that call puts it back; nothing polls or retries per edge. An
//! L2 or L3 is woken at its two entry points (`cpu_request`, `handle_msg*`)
//! and leaves after a tick that ends with `is_active()` false. A core
//! leaves when `next_event_time` is `None` — see [`Core::next_event_time`]
//! for the states — and is put back before `mem_response` reaches it, or,
//! if it is spinning, before a back-invalidation reaches its L1; the stall
//! cycles it would have counted while asleep are a difference of fast-edge
//! indices, and a spinner's progress is [`Core::catch_up`], both applied
//! when it wakes (or when a run loop returns). The sets are derived state:
//! never serialized, refilled after `restore()`/`fork()`, and kept full
//! while edge skipping is off, which makes every pass tick everything — the
//! oracle the determinism suites compare against. Debug builds check after
//! every fast edge that each set still covers what the polled predicates
//! call due.
//!
//! # The twin
//!
//! Debug builds keep one oracle for every way a core sleeps — on a load,
//! an AMO or an MMIO, a drain, a full store buffer, a spin. Putting a core
//! to sleep stores a copy of it, its *twin*; each settle ticks the twin on
//! every fast edge the core slept through and asserts that its `Snap`
//! bytes — registers, pc, `next_issue`, statistics, the L1 with its LRU
//! stamps — equal the settled core's. Waking drops the twin.
//!
//! The one outside input a sleeping core takes without being woken is a
//! back-invalidation into a non-spinner's L1, in the L2 pass; each one is
//! applied to the twin as well. (The twin is ticked only when the core is
//! settled, so it takes the invalidation before the edges it has not yet
//! been ticked through. On a correct sleeper those edges only count
//! stalls, which an invalidation does not touch.) Anything else that
//! changes a sleeping core must wake it first, as `core_mut` does, or the
//! next settle panics. Release builds hold no twins.
//!
//! # Deferred core MMIOs
//!
//! The core pass does not send a core's MMIO request: it waits in
//! `System::mmio_deferred` until the adapter pass has run and is then sent
//! in ascending core order ([`System::send_deferred_mmio`]). That is the
//! order in which the MMIO-id slab inserts were made when every committed
//! golden was recorded.

use duet_core::DuetMsg;
use duet_cpu::Core;
use duet_noc::NodeId;
use duet_sim::{BitSet, Time};
use duet_verify::FaultKind;

use crate::system::System;

/// Which components the next pass must visit: L2s and cores by core index,
/// L3 shards by node.
pub(crate) struct WakeSets {
    /// L2s that are active or hold a `core_held` request.
    pub(crate) l2: BitSet,
    /// L3 shards that are active.
    pub(crate) l3: BitSet,
    /// Cores whose `next_event_time` is not `None`.
    pub(crate) cores: BitSet,
    /// Per core, meaningful while it is asleep: the fast-edge index up to
    /// which its state already accounts for the sleep.
    settled: Vec<u64>,
    /// Debug builds only: per sleeping core, a copy of it ticked on every
    /// edge it sleeps through, that each settle must reproduce.
    twins: Vec<Option<Box<Core>>>,
}

impl WakeSets {
    /// Everything awake: the state after construction, `restore()` and
    /// `fork()`, and while edge skipping is off. Always sound — the sets
    /// only need to *cover* what is due — and the first gated pass puts the
    /// idle members to sleep.
    pub(crate) fn all_awake(cores: usize, nodes: usize) -> Self {
        WakeSets {
            l2: BitSet::full(cores),
            l3: BitSet::full(nodes),
            cores: BitSet::full(cores),
            settled: vec![0; cores],
            twins: vec![None; cores],
        }
    }

    /// Puts sleeping core `k` back in the set, first settling the fast
    /// edges it slept through, up to and including edge index `through`,
    /// and ends a spin. Must run before anything changes the core's state.
    fn wake_core(&mut self, k: usize, core: &mut Core, now: Time, through: u64) {
        if self.cores.insert(k) {
            self.settle(k, core, now, through);
            self.twins[k] = None;
        }
        core.forget_spin();
    }

    /// Brings sleeping core `k` up to edge index `through` without waking
    /// it: its stall count, and a spinner's whole visible state.
    fn settle(&mut self, k: usize, core: &mut Core, now: Time, through: u64) {
        core.account_skipped_edges(now, through - self.settled[k]);
        if core.is_spinning() {
            core.catch_up(core.config().clock.nth_edge(through));
        }
        if cfg!(debug_assertions) {
            self.check_twin(k, core, through);
        }
        self.settled[k] = through;
    }

    /// Ticks core `k`'s twin over the edges settled after `settled[k]`, up
    /// to `through`, and asserts that it equals the settled `core`.
    fn check_twin(&mut self, k: usize, core: &Core, through: u64) {
        let Some(twin) = self.twins[k].as_deref_mut() else {
            return;
        };
        let clock = core.config().clock;
        for e in self.settled[k] + 1..=through {
            twin.tick(clock.nth_edge(e));
        }
        assert!(
            snap_bytes(twin) == snap_bytes(core),
            "core {k}: settling edges {}..={through} differs from ticking every edge",
            self.settled[k] + 1
        );
    }

    /// Takes core `k`, whose state is exact through edge `edge`, out of
    /// the set.
    fn sleep_core(&mut self, k: usize, core: &Core, edge: u64) {
        self.settled[k] = edge;
        if cfg!(debug_assertions) {
            self.twins[k] = Some(Box::new(core.clone()));
        }
    }
}

/// A core's snapshot bytes: everything a tick can change.
fn snap_bytes(core: &Core) -> Vec<u8> {
    let mut w = duet_sim::SnapWriter::new();
    duet_sim::Snap::save(core, &mut w);
    w.finish()
}

impl System {
    /// Wakes core `i` ahead of an outside change to it (a memory response,
    /// a new program), first settling the stall cycles of its sleep.
    pub(crate) fn wake_core(&mut self, i: usize) {
        let (now, through) = (self.now, self.stats.fast_edges);
        self.wake.wake_core(i, &mut self.cores[i], now, through);
    }

    /// Wakes L2 `i` after handing it a message.
    pub(crate) fn wake_l2(&mut self, i: usize) {
        self.wake.l2.insert(i);
    }

    /// Wakes the L3 shard at `node` after handing it a message.
    pub(crate) fn wake_l3(&mut self, node: usize) {
        self.wake.l3.insert(node);
    }

    /// Brings every sleeping core's `mem_stall_cycles` up to the last fast
    /// edge. The run loops call this as they return, so everything read
    /// between runs — statistics, snapshots, forks — is exact.
    pub(crate) fn settle_sleeping_cores(&mut self) {
        let (now, through) = (self.now, self.stats.fast_edges);
        for (k, core) in self.cores.iter_mut().enumerate() {
            if !self.wake.cores.contains(k) && self.wake.settled[k] < through {
                self.wake.settle(k, core, now, through);
            }
        }
    }

    /// Wakes every spinning core (and drops the marks of cores that carry
    /// one while awake, with edge skipping off), so that per-component
    /// reports read as they would after ticking every edge.
    pub(crate) fn wake_spinners(&mut self) {
        for i in 0..self.cores.len() {
            if self.cores[i].is_spinning() {
                self.wake_core(i);
            }
        }
    }

    /// Puts every component back in its wake set (edge skipping was just
    /// turned off).
    pub(crate) fn wake_everything(&mut self) {
        self.settle_sleeping_cores();
        self.wake = WakeSets::all_awake(self.cores.len(), self.shards.len());
    }

    /// Debug builds, after every fast edge and every horizon jump: each
    /// wake set covers what the polled predicates call due.
    pub(crate) fn check_wake_sets(&self) {
        let (now, wake) = (self.now, &self.wake);
        for (i, core) in self.cores.iter().enumerate() {
            assert!(
                wake.cores.contains(i) || core.next_event_time(now).is_none(),
                "core {i} is due but asleep"
            );
            assert!(
                wake.l2.contains(i) || !(self.l2s[i].is_active() || self.core_held[i].is_some()),
                "L2 {i} is due but asleep"
            );
        }
        for (n, shard) in self.shards.iter().enumerate() {
            assert!(
                wake.l3.contains(n) || !shard.is_active(),
                "L3 shard {n} is due but asleep"
            );
        }
    }

    /// The three per-node component passes of a fast edge: L2s, L3 shards,
    /// cores — each over its wake set, ascending. With edge skipping off
    /// nothing ever leaves a set, so every component ticks on every edge.
    pub(crate) fn component_passes(&mut self, now: Time) {
        let gate = self.skip_enabled;
        let faulted = !self.cfg.faults.specs.is_empty();
        // Index of this fast edge (`RunStats::fast_edges` once it is done).
        let edge = self.stats.fast_edges + 1;

        // L2s: tick, collect outgoing, deliver responses + back-invals.
        let mut awake = std::mem::take(&mut self.wake.l2);
        awake.retain(|k| {
            if gate && self.core_held[k].is_none() && !self.l2s[k].is_active() {
                return false;
            }
            // Retry a held request first.
            if let Some(req) = self.core_held[k].take() {
                if self.l2s[k].can_accept() {
                    self.l2s[k].cpu_request(req);
                } else {
                    self.core_held[k] = Some(req);
                }
            }
            self.l2s[k].tick(now);
            let node = self.cfg.core_node(k);
            while let Some((dst, msg)) = self.l2s[k].pop_outgoing(now) {
                self.enqueue_msg(node, dst, DuetMsg::Coherence(msg));
            }
            let invalidations = self.l2s[k].take_back_invalidations();
            if !invalidations.is_empty() && self.cores[k].is_spinning() {
                // A spinner polls its L1: bring it up to the previous edge
                // and wake it before the line goes.
                self.wake.wake_core(k, &mut self.cores[k], now, edge - 1);
            }
            for (line, _) in invalidations {
                self.cores[k].back_invalidate(line);
                // A sleeping non-spinner's twin takes it too.
                if let Some(twin) = self.wake.twins[k].as_deref_mut() {
                    twin.back_invalidate(line);
                }
            }
            while let Some(resp) = self.l2s[k].pop_cpu_resp(now) {
                // The core's own pass comes later this edge, so it slept
                // through the edges before this one.
                self.wake.wake_core(k, &mut self.cores[k], now, edge - 1);
                self.cores[k].mem_response(resp);
            }
            !gate || self.core_held[k].is_some() || self.l2s[k].is_active()
        });
        self.wake.l2 = awake;

        // L3 shards.
        let mut awake = std::mem::take(&mut self.wake.l3);
        awake.retain(|j| {
            if gate && !self.shards[j].is_active() {
                return false;
            }
            self.shards[j].tick(now);
            let node = self.shards[j].node();
            // `L3RespStall`: responses stay queued in the shard's output
            // pipe (keeping it active, so the horizon stays pinned) until
            // the window closes.
            if !(faulted && self.shard_output_stalled(node, now)) {
                while let Some((dst, msg)) = self.shards[j].pop_outgoing(now) {
                    if faulted && self.shard_output_dropped(node, now) {
                        continue; // `L3RespDrop`: the message is lost
                    }
                    self.enqueue_msg(node, dst, DuetMsg::Coherence(msg));
                }
            }
            !gate || self.shards[j].is_active()
        });
        self.wake.l3 = awake;

        // Cores: deliver requests to L2, defer MMIO (see the module docs).
        let mut awake = std::mem::take(&mut self.wake.cores);
        awake.retain(|k| {
            let due = self.cores[k].next_event_time(now);
            if gate && due.is_none_or(|t| t > now) {
                // The core would either do nothing this edge or only bump
                // a stall counter; reconstruct that without ticking.
                self.cores[k].account_skipped_edges(now, 1);
                if due.is_some() {
                    return true; // a timer: polled again next edge
                }
            } else {
                self.cores[k].tick(now);
                while self.core_held[k].is_none() {
                    let Some(req) = self.cores[k].pop_mem_request() else {
                        break;
                    };
                    if self.cores[k].is_mmio(req.addr) {
                        self.mmio_deferred.push((k, req));
                    } else {
                        if self.l2s[k].can_accept() {
                            self.l2s[k].cpu_request(req);
                        } else {
                            self.core_held[k] = Some(req);
                        }
                        self.wake.l2.insert(k);
                    }
                }
            }
            // Only `mem_response` can change what a tick would do: sleep
            // until it comes, with this edge's stall already counted.
            let asleep = gate && self.cores[k].next_event_time(now).is_none();
            if asleep {
                self.wake.sleep_core(k, &self.cores[k], edge);
            }
            !asleep
        });
        self.wake.cores = awake;
    }

    /// Sends the core MMIO requests the core pass deferred, in ascending
    /// core order, allocating their wire ids.
    pub(crate) fn send_deferred_mmio(&mut self) {
        let mut deferred = std::mem::take(&mut self.mmio_deferred);
        for (i, mut req) in deferred.drain(..) {
            req.id = self.mmio_ids.insert((i, req.id));
            let node = self.cfg.core_node(i);
            let dst = self.cfg.ctile_node();
            self.enqueue_msg(
                node,
                dst,
                DuetMsg::MmioReq {
                    req,
                    reply_to: node,
                },
            );
        }
        self.mmio_deferred = deferred;
    }

    /// Whether an active `L3RespStall` fault is holding `node`'s shard
    /// output.
    fn shard_output_stalled(&self, node: NodeId, now: Time) -> bool {
        self.cfg.faults.specs.iter().any(|s| {
            matches!(s.kind, FaultKind::L3RespStall { node: n } if n == node) && s.active_at(now)
        })
    }

    /// Consumes one unit of `L3RespDrop` budget for `node`, if a matching
    /// fault is active. True means the popped shard message is lost.
    fn shard_output_dropped(&mut self, node: NodeId, now: Time) -> bool {
        for (i, spec) in self.cfg.faults.specs.iter().enumerate() {
            if !spec.active_at(now) || self.fault_budget[i] == 0 {
                continue;
            }
            if let FaultKind::L3RespDrop { node: n, .. } = spec.kind {
                if n == node {
                    self.fault_budget[i] -= 1;
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use std::sync::Arc;

    use duet_cpu::asm::Asm;
    use duet_cpu::isa::regs;

    use crate::{System, SystemConfig};

    fn system(cores: usize) -> System {
        let mut sys = System::new(SystemConfig::proc_only(cores)).expect("valid config");
        sys.set_edge_skipping(true);
        sys
    }

    #[test]
    #[should_panic(expected = "core 0: settling edges")]
    fn a_core_changed_behind_the_wake_sets_fails_the_twin_check() {
        let mut sys = system(1);
        let mut a = Asm::new();
        a.label("main");
        a.li(regs::S[0], 0x1000);
        a.ld(regs::T[0], regs::S[0], 0);
        a.halt();
        sys.load_program(0, Arc::new(a.assemble().unwrap()), "main");
        // Step until the core sleeps on the load's miss.
        for edges in 0.. {
            assert!(edges < 100, "core 0 never slept");
            if !sys.wake.cores.contains(0) {
                break;
            }
            sys.step_edge();
        }
        // Not through `core_mut`, which would wake it first.
        sys.cores[0].set_reg(regs::S[5], 7);
        sys.step_edge();
    }

    /// Core 1's stores take back the line core 0 reloads before each
    /// miss it sleeps on, so back-invalidations reach core 0's L1 while
    /// it sleeps; its twin must see each one too.
    #[test]
    fn a_sleeping_core_back_invalidated_settles_equal_to_its_twin() {
        let mut sys = system(2);
        let mut a = Asm::new();
        let (shared, miss, i) = (regs::S[0], regs::S[1], regs::S[2]);
        a.label("reader");
        a.li(shared, 0x1000);
        a.li(miss, 0x10_0000);
        a.li(i, 0);
        a.label("r_loop");
        a.ld(regs::T[0], shared, 0);
        a.ld(regs::T[1], miss, 0);
        a.addi(miss, miss, 0x1000);
        a.addi(i, i, 1);
        a.li(regs::T[2], 40);
        a.blt(i, regs::T[2], "r_loop");
        a.halt();
        a.label("writer");
        a.li(shared, 0x1000);
        a.li(i, 0);
        a.label("w_loop");
        a.sd(i, shared, 0);
        a.addi(i, i, 1);
        a.li(regs::T[2], 4000);
        a.blt(i, regs::T[2], "w_loop");
        a.halt();
        let prog = Arc::new(a.assemble().unwrap());
        sys.load_program(0, prog.clone(), "reader");
        sys.load_program(1, prog, "writer");
        let mut asleep_invalidations = 0;
        for _ in 0..50_000 {
            let asleep = !sys.wake.cores.contains(0) && !sys.cores[0].is_spinning();
            let before = sys.core(0).l1_stats().invalidations;
            sys.step_edge();
            if asleep {
                asleep_invalidations += sys.core(0).l1_stats().invalidations - before;
            }
            if sys.core(0).is_halted() && sys.core(1).is_halted() {
                break;
            }
        }
        assert!(sys.core(0).is_halted() && sys.core(1).is_halted());
        assert!(
            asleep_invalidations > 0,
            "no back-invalidation reached core 0 while it slept"
        );
    }
}
