//! The dual-clock run loop: edge execution, message routing between
//! components, the OS stub, and event-horizon scheduling.
//!
//! Every public run entry point (`run_until_halt`, `run_until`,
//! `run_until_time`, `quiesce`) drives [`System::step_event`], which skips
//! provably-dead clock edges by merging each component's
//! [`next_event_time`](duet_sim::Component::next_event_time) into a single
//! [`Horizon`]. Results are bit-identical to exhaustive edge-by-edge
//! ticking (see the differential determinism tests).
//!
//! The loop also hosts the `duet-verify` integration: fault windows from
//! the configured [`FaultPlan`](duet_verify::FaultPlan) are applied at
//! executed edges (their boundaries are merged into the horizon so both
//! schedulers observe identical activations), runtime checkers observe
//! every NoC delivery, and the halt/quiesce entry points return
//! [`RunError`] — with a per-component stall snapshot — instead of
//! panicking on deadline or protocol violation.

use duet_core::{DuetMsg, IrqCause};
use duet_mem::msg::CoherenceMsg;
use duet_mem::tlb::Vpn;
use duet_mem::types::{MemReq, Width};
use duet_noc::{Message, NodeId, VNet};
use duet_sim::{Component, EdgeDomain, Horizon, Time};
use duet_trace::EventKind;
use duet_verify::{ComponentStall, FaultKind, RunError, StallSnapshot, Violation};

use crate::config::Variant;
use crate::system::{NodeRole, System};
use duet_core::control_hub::mmio_map;

/// Id-space tag for MMIOs generated by the OS stub (responses discarded).
const OS_ID_BASE: u64 = 1 << 62;

/// The skip bound of a loop that fails on the first edge *past*
/// `deadline`: dead edges up to and including the deadline may be skipped,
/// so the failing edge is the one exhaustive stepping fails on.
fn past(deadline: Time) -> Time {
    deadline.checked_add(Time::from_ps(1)).unwrap_or(Time::MAX)
}

/// A deferred OS action (page-fault handling).
#[derive(Clone, Debug)]
pub(crate) enum OsTask {
    TlbFill { vaddr: u64, hub: usize },
}

impl System {
    /// Queues `(dst, msg)` on `src`'s injection pipe toward the mesh.
    pub(crate) fn enqueue_msg(&mut self, src: NodeId, dst: NodeId, msg: DuetMsg) {
        if self.inject_pending[src].is_empty() {
            self.inject_dirty.insert(src);
        }
        if self.inject_pending[src].push(self.now, (dst, msg)).is_err() {
            unreachable!("injection pipes are unbounded");
        }
        self.inject_pending_total += 1;
    }

    fn pump_injections(&mut self, now: Time) {
        debug_assert_eq!(
            self.inject_pending_total,
            self.inject_pending.iter().map(|l| l.len()).sum::<usize>(),
            "inject_pending_total out of sync with the per-node pipes"
        );
        if self.inject_pending_total == 0 {
            self.inject_dirty.clear();
            return;
        }
        // `inject_dirty` is a sorted superset of the nodes with non-empty
        // pipes, so visiting it ascending (and dropping entries whose
        // pipes drained) is the same visit order as a full ascending node
        // scan — without the O(nodes) sweep on every edge.
        let mut dirty = std::mem::take(&mut self.inject_dirty);
        dirty.retain(|src| {
            if self.inject_pending[src].is_empty() {
                return false;
            }
            // An active `NocDelay` fault stalls this node's injection port:
            // messages keep queueing in the pipe (which pins the horizon to
            // `now`, so no edge is skipped while traffic is delayed).
            if self.injection_stalled(src, now) {
                return true;
            }
            while let Some(front) = self.inject_pending[src].front(now) {
                let vnet = front.1.vnet();
                if !self.mesh.can_inject(src, vnet) {
                    break;
                }
                let Some((dst, msg)) = self.inject_pending[src].pop(now) else {
                    unreachable!("front checked");
                };
                self.inject_pending_total -= 1;
                let flits = msg.flits();
                if self
                    .mesh
                    .inject(now, Message::new(src, dst, vnet, flits, msg))
                    .is_err()
                {
                    unreachable!("space checked");
                }
            }
            !self.inject_pending[src].is_empty()
        });
        self.inject_dirty = dirty;
    }

    /// Whether an active `NocDelay` fault is stalling `src`'s injections.
    /// The per-node index holds only the specs targeting `src`, so the
    /// common case (no delay fault here) is an empty-slice scan.
    fn injection_stalled(&self, src: NodeId, now: Time) -> bool {
        self.fault_index
            .delay_specs(src)
            .iter()
            .any(|&i| self.cfg.faults.specs[i].active_at(now))
    }

    fn dispatch_ejections(&mut self, now: Time) {
        // Only nodes with waiting ejections, lowest first — the same visit
        // order as a full ascending node scan. Handling a message never
        // creates a new ejection (outbound traffic goes through the
        // injection pipes), so each node is drained exactly once.
        while let Some(node) = self.mesh.first_eject_node() {
            for &vnet in &VNet::ALL {
                while let Some(m) = self.mesh.eject(node, vnet) {
                    match self.fault_intercept(now, node, m) {
                        None => {} // dropped or stashed by a fault
                        Some((m, held)) => {
                            self.deliver(now, node, m);
                            if let Some(h) = held {
                                // The reorder swap: the younger message went
                                // first, the stashed older one follows.
                                self.deliver(now, node, h);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Applies active NoC-level faults to an ejected message. Returns the
    /// message to deliver now — plus a previously-stashed message to
    /// deliver right after it, for `NocReorder` swaps — or `None` when the
    /// message was consumed (dropped, or stashed awaiting a swap partner).
    fn fault_intercept(
        &mut self,
        now: Time,
        node: NodeId,
        m: Message<DuetMsg>,
    ) -> Option<(Message<DuetMsg>, Option<Message<DuetMsg>>)> {
        if self.cfg.faults.specs.is_empty() {
            return Some((m, None));
        }
        // The index buckets reorder/drop spec indices per eject node in
        // plan order, so this walk acts on exactly the specs the full
        // plan scan would have matched, in the same order.
        for k in 0..self.fault_index.eject_specs(node).len() {
            let i = self.fault_index.eject_specs(node)[k];
            let spec = self.cfg.faults.specs[i];
            if !spec.active_at(now) || self.fault_budget[i] == 0 {
                continue;
            }
            match spec.kind {
                FaultKind::NocDrop { node: n, .. } if n == node => {
                    self.fault_budget[i] -= 1;
                    return None;
                }
                FaultKind::NocReorder { node: n, .. } if n == node => {
                    if let Some(k) = self.reorder_stash.iter().position(|(s, _, _)| *s == i) {
                        let (_, _, held) = self.reorder_stash.remove(k);
                        self.fault_budget[i] -= 1; // one swap done
                        return Some((m, Some(held)));
                    }
                    self.reorder_stash.push((i, node, m));
                    return None;
                }
                _ => {}
            }
        }
        Some((m, None))
    }

    /// Delivers one ejected message to its endpoint, running the runtime
    /// checkers first. A message whose delivery *itself* violates an
    /// invariant is recorded and withheld from the protocol — the state
    /// machines downstream assume the invariant and could wedge on it —
    /// and the surrounding run loop surfaces the violation as a
    /// [`RunError`] after this edge.
    fn deliver(&mut self, now: Time, node: NodeId, m: Message<DuetMsg>) {
        if let Some(v) = self
            .noc_checker
            .on_eject(now, m.src, node, m.vnet.index(), m.trace_id)
        {
            self.note_violation(now, 1, v);
            return;
        }
        if let DuetMsg::Coherence(c) = &m.payload {
            if let Some(v) = self.mesi_checker.on_delivery(now, m.src, node, c) {
                self.note_violation(now, 0, v);
                return;
            }
        }
        let flight = now.saturating_sub(m.injected_at);
        match m.payload {
            DuetMsg::Coherence(c) => self.dispatch_coherence(now, node, m.src, c, flight),
            DuetMsg::MmioReq { req, reply_to } => match self.adapter.as_mut() {
                Some(a) => a.mmio_request(now, req, reply_to),
                None => {
                    let detail = format!(
                        "MMIO request {:#x} to a system without an adapter",
                        req.addr
                    );
                    self.adapter_invariant(now, detail);
                }
            },
            DuetMsg::MmioResp { resp } => {
                if resp.id >= OS_ID_BASE {
                    return; // OS-stub MMIO: fire and forget
                }
                match self.mmio_ids.remove(resp.id) {
                    Some((core, orig)) => {
                        let mut r = resp;
                        r.id = orig;
                        self.wake_core(core);
                        self.cores[core].mem_response(r);
                    }
                    None => {
                        let detail = format!("MMIO response with unknown id {}", resp.id);
                        self.adapter_invariant(now, detail);
                    }
                }
            }
            DuetMsg::Interrupt { cause, .. } => self.handle_irq(now, cause),
        }
    }

    /// Records a checker violation: emits a trace event and latches the
    /// first unsurfaced violation for the run loop to return.
    fn note_violation(&mut self, now: Time, checker: u64, v: Violation) {
        self.sys_tracer.emit(
            now.as_ps(),
            EventKind::CheckerViolation,
            self.checker_violations(),
            checker,
        );
        if self.pending_violation.is_none() {
            self.pending_violation = Some(v);
        }
    }

    /// Records an adapter/MMIO invariant break (previously a panic site).
    pub(crate) fn adapter_invariant(&mut self, now: Time, detail: String) {
        self.adapter_violations += 1;
        let v = Violation::AdapterInvariant {
            detail,
            at_ps: now.as_ps(),
        };
        self.note_violation(now, 2, v);
    }

    fn dispatch_coherence(
        &mut self,
        now: Time,
        node: NodeId,
        src: NodeId,
        c: CoherenceMsg,
        flight: Time,
    ) {
        match &c {
            CoherenceMsg::GetS { .. }
            | CoherenceMsg::GetM { .. }
            | CoherenceMsg::PutM { .. }
            | CoherenceMsg::WBData { .. }
            | CoherenceMsg::Unblock { .. } => {
                self.shards[node].handle_msg_with_flight(now, src, c, flight);
                self.wake_l3(node);
            }
            _ => match self.node_roles[node] {
                NodeRole::Core(i) => {
                    self.l2s[i].handle_msg(now, src, c, flight);
                    self.wake_l2(i);
                }
                NodeRole::Hub(h) => {
                    if self.cfg.variant == Variant::Fpsoc {
                        // Cross into the slow domain first.
                        if self.slow_cdc[h]
                            .into_hub
                            .push(now, (src, c, flight))
                            .is_err()
                        {
                            let detail = format!("slow-hub CDC into hub {h} overflowed");
                            self.adapter_invariant(now, detail);
                        }
                    } else if let Some(a) = self.adapter.as_mut() {
                        a.hubs[h].handle_noc(now, src, c, flight);
                    } else {
                        let detail =
                            format!("coherence message for hub {h} with no adapter present");
                        self.adapter_invariant(now, detail);
                    }
                }
                NodeRole::ShardOnly => {
                    let detail =
                        format!("cache-bound coherence message to node {node} with no cache");
                    self.adapter_invariant(now, detail);
                }
            },
        }
    }

    fn handle_irq(&mut self, now: Time, cause: IrqCause) {
        let delay = self.cfg.clock.period().mul(self.cfg.kernel_latency_cycles);
        match cause {
            IrqCause::PageFault { vaddr, hub, .. } => {
                self.stats.page_faults += 1;
                self.os_tasks
                    .push((now + delay, OsTask::TlbFill { vaddr, hub }));
            }
            IrqCause::Exception { .. } => {
                self.stats.exceptions += 1;
            }
        }
    }

    fn run_os_tasks(&mut self, now: Time) {
        // Cheap pre-check: while a task is pending but not yet due (the
        // common case for the thousands of edges inside a kernel-latency
        // window), return without allocating the ready list.
        if !self.os_tasks.iter().any(|(t, _)| *t <= now) {
            return;
        }
        let ready: Vec<OsTask> = {
            let mut out = Vec::new();
            self.os_tasks.retain(|(t, task)| {
                if *t <= now {
                    out.push(task.clone());
                    false
                } else {
                    true
                }
            });
            out
        };
        for task in ready {
            match task {
                OsTask::TlbFill { vaddr, hub } => {
                    let vpn = Vpn::containing(vaddr);
                    match self.page_table.lookup(vpn) {
                        Some((ppn, perms)) => {
                            let base = self.cfg.mmio_base
                                + mmio_map::HUB_BASE
                                + hub as u64 * mmio_map::HUB_STRIDE;
                            let mut enc = ppn.0;
                            if perms.read {
                                enc |= 1 << 62;
                            }
                            if perms.write {
                                enc |= 1 << 63;
                            }
                            self.os_mmio_write(base + mmio_map::HUB_TLB_VPN, vpn.0);
                            self.os_mmio_write(base + mmio_map::HUB_TLB_PPN, enc);
                        }
                        None => {
                            let base = self.cfg.mmio_base
                                + mmio_map::HUB_BASE
                                + hub as u64 * mmio_map::HUB_STRIDE;
                            self.os_mmio_write(base + mmio_map::HUB_KILL, 1);
                        }
                    }
                }
            }
        }
    }

    /// Sends a fire-and-forget MMIO write on behalf of the kernel from the
    /// IRQ-target core's node.
    fn os_mmio_write(&mut self, addr: u64, value: u64) {
        let id = OS_ID_BASE + self.next_os_mmio_id;
        self.next_os_mmio_id += 1;
        let src = 0;
        let dst = self.cfg.ctile_node();
        let req = MemReq::store(id, addr, Width::B8, value);
        self.enqueue_msg(src, dst, DuetMsg::MmioReq { req, reply_to: src });
    }

    fn fast_edge(&mut self, now: Time) {
        // `stats.fast_edges` counts this edge only once it is done: until
        // then it is the index of the last completed fast edge, which is
        // what a core woken mid-edge has slept through.
        self.sys_tracer.emit(now.as_ps(), EventKind::EdgeFast, 0, 0);
        self.run_os_tasks(now);
        self.pump_injections(now);
        self.mesh.tick(now);
        if self.mesh.has_ejections() {
            self.dispatch_ejections(now);
        }

        // Per-node component passes: L2s, L3 shards, cores (see `passes`).
        self.component_passes(now);

        // The adapter pass, then the core MMIOs the core pass deferred.
        // Within an edge the adapter and the cores never touch each
        // other's state, and they inject into disjoint NoC nodes' pipes.
        self.adapter_pass(now);
        self.send_deferred_mmio();
        self.stats.fast_edges += 1;
        if cfg!(debug_assertions) {
            self.check_wake_sets();
        }
    }

    /// The adapter portion of a fast edge: control hub always fast; hubs
    /// fast except in FPSoC (where the CDC FIFOs are drained instead).
    fn adapter_pass(&mut self, now: Time) {
        let gate = self.skip_enabled;
        let fpsoc = self.cfg.variant == Variant::Fpsoc;
        let adapter_live = !gate
            || self
                .adapter
                .as_ref()
                .is_some_and(|a| a.is_active(now, !fpsoc))
            || (fpsoc
                && self
                    .slow_cdc
                    .iter()
                    .any(|c| c.from_hub.front_ready_at().is_some_and(|t| t <= now)));
        if adapter_live {
            if let Some(mut a) = self.adapter.take() {
                a.tick_parts(now, !fpsoc);
                let ctl_node = a.control.node();
                while let Some((dst, msg)) = a.pop_outgoing(now) {
                    self.enqueue_msg(ctl_node, dst, msg);
                }
                if fpsoc {
                    // Drain hub→NoC CDC FIFOs (fast side).
                    for h in 0..self.slow_cdc.len() {
                        let node = a.hubs[h].node();
                        while let Some((dst, msg)) = self.slow_cdc[h].from_hub.pop(now) {
                            self.enqueue_msg(node, dst, DuetMsg::Coherence(msg));
                        }
                    }
                } else {
                    for h in 0..a.hubs.len() {
                        let node = a.hubs[h].node();
                        while let Some((dst, msg)) = a.hubs[h].pop_outgoing(now) {
                            self.enqueue_msg(node, dst, DuetMsg::Coherence(msg));
                        }
                    }
                }
                self.adapter = Some(a);
            }
        }
    }

    fn slow_edge(&mut self, now: Time) {
        self.stats.slow_edges += 1;
        self.sys_tracer.emit(now.as_ps(), EventKind::EdgeSlow, 0, 0);
        // Slow edges execute whenever they are due, but their *components*
        // are gated like fast-edge ones: a hub with no due event and an
        // accelerator awaiting input (with no fabric-bound input that
        // could wake it) would tick as provable no-ops.
        let gate = self.skip_enabled;
        if self.cfg.variant == Variant::Fpsoc {
            let mut overflowed: Vec<usize> = Vec::new();
            if let Some(a) = self.adapter.as_mut() {
                for (h, cdc) in self.slow_cdc.iter_mut().enumerate() {
                    if gate
                        && cdc.into_hub.front_ready_at().is_none_or(|t| t > now)
                        && a.hubs[h].next_event_time(now).is_none_or(|t| t > now)
                    {
                        continue;
                    }
                    while let Some((src, msg, flight)) = cdc.into_hub.pop(now) {
                        a.hubs[h].handle_noc(now, src, msg, flight);
                    }
                    a.tick_hub(h, now);
                    while let Some((dst, msg)) = a.hubs[h].pop_outgoing(now) {
                        if cdc.from_hub.push(now, (dst, msg)).is_err() {
                            // The crossing is sized for the hub's MSHR bound,
                            // so overflow means an invariant broke upstream;
                            // record it (borrow ends before we can report).
                            overflowed.push(h);
                            break;
                        }
                    }
                }
            }
            for h in overflowed {
                self.adapter_invariant(now, format!("slow-hub CDC out of hub {h} overflowed"));
            }
        }
        // Degradation watchdog: fence an accelerator that stays busy
        // without fabric-visible progress (runs before the tick so the
        // fenced edge itself no longer advances the design).
        self.accel_watchdog(now);
        // A fenced accelerator is cut off: no ticks, no resets — the rest
        // of the system proceeds without it.
        if self.accel_fenced {
            return;
        }
        // An active `AccelHang` fault wedges the design completely: it
        // neither ticks nor responds to reset while the window is open.
        if self.accel_hung(now) {
            return;
        }
        let (Some(a), Some(accel)) = (self.adapter.as_mut(), self.accel.as_mut()) else {
            return;
        };
        // A design awaiting input with none pending would tick as a no-op
        // (its own attestation), so only the busy bookkeeping below runs.
        let gated = gate && accel.awaits_input() && !a.fabric_input_pending();
        if !gated {
            if a.take_reset() {
                accel.reset();
            }
            let mut ports = a.fabric_ports(now);
            if self.accel_busy {
                // A busy design facing a full request FIFO is stalled on
                // backpressure this edge.
                for (h, hub) in ports.hubs.iter().enumerate() {
                    if !hub.can_issue(now) {
                        self.accel_tracer
                            .emit(now.as_ps(), EventKind::AccelStall, h as u64, 0);
                    }
                }
            }
            accel.tick(&mut ports);
        }
        let busy = !accel.is_idle();
        match (self.accel_busy, busy) {
            (false, true) => {
                // Arm the watchdog from the start edge: `watchdog_since`
                // may be stale from a long-idle stretch.
                self.watchdog_since = now;
                self.watchdog_sig = a.progress_signature();
                self.accel_tracer
                    .emit(now.as_ps(), EventKind::AccelStart, 0, 0);
            }
            (true, false) => self
                .accel_tracer
                .emit(now.as_ps(), EventKind::AccelDone, 0, 0),
            _ => {}
        }
        self.accel_busy = busy;
    }

    // ----- fault-injection helpers (duet-verify) -----
    // (`L3RespStall` / `L3RespDrop` interception lives in `passes`, inside
    // the L3 pass.)

    /// Whether an active `AccelHang` fault is wedging the accelerator.
    fn accel_hung(&self, now: Time) -> bool {
        self.cfg
            .faults
            .specs
            .iter()
            .any(|s| s.kind == FaultKind::AccelHang && s.active_at(now))
    }

    /// The degradation watchdog: when a [`DegradeConfig`](duet_verify::DegradeConfig)
    /// is set and the accelerator has been busy for longer than
    /// `fence_after` without the adapter's progress signature changing, the
    /// accelerator is fenced: the Control Hub fails the in-flight MMIO
    /// wait and answers subsequent accesses with error status, every
    /// Memory Hub is killed (in-flight coherence obligations drain through
    /// the still-coherent proxy), and the design never ticks again. The
    /// driving core sees the error status and falls back to software.
    fn accel_watchdog(&mut self, now: Time) {
        let Some(d) = self.cfg.faults.degrade else {
            return;
        };
        // Watch whenever the fabric owes the system progress: a design that
        // attests busy, or pending input it never consumed (a kernel hung
        // before its first tick). With neither, the watchdog stays quiet —
        // no state is touched, so skipped idle edges cannot diverge.
        let input_pending = self
            .adapter
            .as_ref()
            .is_some_and(|a| a.fabric_input_pending());
        if self.accel_fenced || !(self.accel_busy || input_pending) {
            return;
        }
        let sig = self
            .adapter
            .as_ref()
            .map(|a| a.progress_signature())
            .unwrap_or(0);
        if sig != self.watchdog_sig {
            self.watchdog_sig = sig;
            self.watchdog_since = now;
            return;
        }
        let stuck_for = now.saturating_sub(self.watchdog_since);
        if stuck_for >= d.fence_after {
            let hubs = self
                .adapter
                .as_mut()
                .map(|a| a.fence_accelerator(now))
                .unwrap_or(0);
            self.accel_fenced = true;
            self.fences += 1;
            self.sys_tracer.emit(
                now.as_ps(),
                EventKind::Fence,
                hubs as u64,
                stuck_for.as_ps(),
            );
        }
    }

    /// Applies fault-window transitions at an executed edge: activation
    /// counters and trace events, CDC freeze/thaw side effects, and — on
    /// window close — release of any messages still held by a reorder
    /// stash. Faults are pure functions of time, and every window boundary
    /// is merged into the event horizon, so both edge-skip modes observe
    /// the same transitions at the same edges.
    fn apply_faults(&mut self, now: Time) {
        for i in 0..self.cfg.faults.specs.len() {
            let spec = self.cfg.faults.specs[i];
            let want = spec.active_at(now);
            if want == self.fault_active[i] {
                continue;
            }
            self.fault_active[i] = want;
            if want {
                self.faults_injected += 1;
                self.sys_tracer.emit(
                    now.as_ps(),
                    EventKind::FaultInject,
                    i as u64,
                    spec.kind.canonical_code().0,
                );
            }
            if let FaultKind::CdcFreeze { hub } = spec.kind {
                if let Some(a) = self.adapter.as_mut() {
                    a.set_hub_fabric_frozen(hub, want);
                }
            }
            if !want {
                self.flush_reorder_stash(now, i);
            }
        }
    }

    /// Delivers every message spec `i`'s reorder stash still holds (its
    /// window closed without a swap partner arriving).
    fn flush_reorder_stash(&mut self, now: Time, spec: usize) {
        let mut k = 0;
        while k < self.reorder_stash.len() {
            if self.reorder_stash[k].0 == spec {
                let (_, node, m) = self.reorder_stash.remove(k);
                self.deliver(now, node, m);
            } else {
                k += 1;
            }
        }
    }

    /// Advances to the next clock edge (fast and/or slow) and executes it.
    pub fn step_edge(&mut self) -> (Time, EdgeDomain) {
        let edge = self.exec_edge();
        self.settle_sleeping_cores();
        edge
    }

    /// [`step_edge`](System::step_edge) for the run loops, which settle
    /// sleeping cores' stall counters once, when they return.
    fn exec_edge(&mut self) -> (Time, EdgeDomain) {
        let (t, d) = self.dual.next_edge();
        self.executed_edges += 1;
        self.now = t;
        if !self.cfg.faults.specs.is_empty() {
            self.apply_faults(t);
        }
        if d.fast() {
            self.fast_edge(t);
        }
        if d.slow() {
            self.slow_edge(t);
        }
        (t, d)
    }

    /// The earliest future instant at which any component could act, or
    /// `None` if the system is provably inert (every component reports no
    /// upcoming event).
    ///
    /// Every clock edge strictly before the returned time is a *dead
    /// edge*: executing it would change nothing except the edge counters
    /// and stalled-core cycle statistics, both of which
    /// [`step_event`](System::run_until_halt) reconstructs arithmetically
    /// when it jumps, and the progress of spinning cores, which are caught
    /// up before anything reads or wakes them. A result at or before the
    /// next edge ([`DualClock::next_edge_time`](duet_sim::DualClock::next_edge_time))
    /// skips nothing, so the walk stops at the first source at or before
    /// that edge: among several such sources, which one's time is returned
    /// is unspecified (callers only compare the result against that edge).
    /// Conservatively-early results are always sound (the edge executes as
    /// a no-op, exactly as exhaustive ticking would).
    pub fn next_event_time(&self) -> Option<Time> {
        let now = self.now;
        // A pending injection is retried every edge.
        if self.inject_pending_total > 0 {
            return Some(now);
        }
        let mut horizon = Horizon::new(now, self.dual.next_edge_time());
        // Only awake components can have an event (a sleeping one reports
        // `None` by construction), so the wake sets are the whole walk.
        // Cheaper horizons (busy cores, the common case while simulated
        // work is in flight) come first, so a due component costs one
        // probe. Merge *order* never affects which edge runs next: a
        // horizon past the next edge is a pure minimum.
        for i in self.wake.cores.iter() {
            if horizon.merge_opt(self.cores[i].next_event_time(now)) {
                return horizon.earliest();
            }
        }
        if horizon.merge_opt(self.mesh.next_event_time(now)) {
            return horizon.earliest();
        }
        for i in self.wake.l2.iter() {
            if self.core_held[i].is_some() {
                return Some(now); // retried every edge
            }
            if horizon.merge_opt(self.l2s[i].next_event_time(now)) {
                return horizon.earliest();
            }
        }
        for n in self.wake.l3.iter() {
            if horizon.merge_opt(self.shards[n].next_event_time(now)) {
                return horizon.earliest();
            }
        }
        // FPSoC hubs and their inbound CDC FIFOs are ticked and popped
        // only on slow edges, so their events wait for the next one. A
        // hub's queued interrupt is the exception: it drains on the fast
        // side, so that hub reports `Some(now)` unrounded.
        let fpsoc = self.cfg.variant == Variant::Fpsoc;
        let slow_edge_from = |t: Time| {
            let slow = self.dual.slow();
            slow.edge_at_or_after(t.max(self.dual.next_slow_edge()))
        };
        if let Some(a) = &self.adapter {
            if horizon.merge_opt(Component::next_event_time(&a.control, now)) {
                return horizon.earliest();
            }
            for hub in &a.hubs {
                let mut t = Component::next_event_time(hub, now);
                if fpsoc && !hub.has_pending_irq() {
                    t = t.map(slow_edge_from);
                }
                if horizon.merge_opt(t) {
                    return horizon.earliest();
                }
            }
        }
        for (t, _) in &self.os_tasks {
            if horizon.merge(*t) {
                return horizon.earliest();
            }
        }
        for cdc in &self.slow_cdc {
            if horizon.merge_opt(cdc.from_hub.front_ready_at())
                || horizon.merge_opt(cdc.into_hub.front_ready_at().map(slow_edge_from))
            {
                return horizon.earliest();
            }
        }
        // Fault windows: never skip across a (de)activation boundary, so
        // both edge-skip modes observe transitions at the same edges. An
        // empty plan contributes nothing.
        if !self.cfg.faults.specs.is_empty()
            && self
                .cfg
                .faults
                .next_boundary(now)
                .is_some_and(|t| horizon.merge(t))
        {
            return horizon.earliest();
        }
        // The accelerator ticks on a slow edge unless it awaits input and
        // none sits in a CDC FIFO. Two guards pin the next slow edge
        // anyway: a busy design under a degrade policy (the watchdog
        // samples progress on every slow edge), and a busy transition not
        // yet recorded (its Start/Done bookkeeping runs on that edge). A
        // fenced accelerator never ticks again, so it pins nothing.
        let accel_hot = !self.accel_fenced
            && self.accel.as_ref().is_some_and(|a| {
                let idle = a.is_idle();
                !a.awaits_input()
                    || self.accel_busy == idle
                    || (!idle && self.cfg.faults.degrade.is_some())
                    || self
                        .adapter
                        .as_ref()
                        .is_some_and(|ad| ad.fabric_input_pending())
            });
        if accel_hot {
            horizon.merge(self.dual.next_slow_edge());
        }
        horizon.earliest()
    }

    /// Advances to — and executes — the next clock edge that can do work,
    /// skipping any provably-dead edges in between, but only those strictly
    /// before `bound`: the first edge at or after `bound` always executes,
    /// as it would under exhaustive stepping, so a loop that stops there
    /// stops on the same edge either way.
    fn step_event(&mut self, bound: Time) -> (Time, EdgeDomain) {
        if self.skip_enabled {
            if let Some(horizon) = self.next_event_time() {
                // Edges strictly before the horizon are dead; a target
                // past the next edge skips at least that one.
                let target = horizon.min(bound);
                if target > self.dual.next_edge_time() {
                    let (fast, slow) = self.dual.advance_to(target);
                    // Sleeping cores catch up from the edge count when
                    // they wake; awake ones are accounted here.
                    let now = self.now;
                    for i in self.wake.cores.iter() {
                        self.cores[i].account_skipped_edges(now, fast);
                    }
                    self.stats.fast_edges += fast;
                    self.stats.slow_edges += slow;
                    if cfg!(debug_assertions) {
                        self.check_wake_sets();
                    }
                    self.sys_tracer
                        .emit(self.now.as_ps(), EventKind::HorizonSkip, fast, slow);
                }
            }
            // `None` (fully inert system) falls through to plain stepping,
            // reproducing the baseline spin-to-deadline behavior.
        }
        self.exec_edge()
    }

    /// Whether every core has halted.
    pub fn all_halted(&self) -> bool {
        self.cores.iter().all(|c| c.is_halted())
    }

    /// Checks the run-ending conditions after an executed edge: a pending
    /// checker violation surfaces first, then the deadline (the edge past
    /// the deadline has already executed, matching the old panic edge).
    fn run_error(&mut self, t: Time, deadline: Time, goal: &str) -> Option<RunError> {
        if self.pending_violation.is_some() || t > deadline {
            // The stall snapshot reads every core's next event.
            self.wake_spinners();
        }
        if let Some(v) = self.pending_violation.take() {
            return Some(RunError::ProtocolViolation {
                violation: v,
                snapshot: self.stall_snapshot(),
            });
        }
        if t > deadline {
            let mut snapshot = self.stall_snapshot();
            snapshot
                .notes
                .insert(0, format!("goal not reached: {goal}"));
            return Some(RunError::Deadlock {
                deadline_ps: deadline.as_ps(),
                snapshot,
            });
        }
        None
    }

    /// A per-component picture of where work is stuck right now: every
    /// component that is active or has queued link entries, plus free-form
    /// notes (accelerator status, pending injections, outstanding MMIO
    /// transactions, active fault windows). Carried inside [`RunError`].
    pub fn stall_snapshot(&self) -> StallSnapshot {
        let now = self.now;
        let mut components = Vec::new();
        self.visit_components(&mut |c| {
            let mut queued = 0usize;
            c.visit_links(&mut |_, report| queued += report.occupancy);
            let active = c.is_active(now);
            let next = c.next_event_time(now);
            if active || queued > 0 || next.is_some() {
                components.push(ComponentStall {
                    name: c.name(),
                    active,
                    next_event_ps: next.map(|t| t.as_ps()),
                    queued,
                });
            }
            true
        });
        let mut notes = Vec::new();
        if let Some(a) = self.accel.as_ref().filter(|a| !a.is_idle()) {
            let name = a.name();
            notes.push(if self.accel_fenced {
                format!("accelerator `{name}` busy but fenced off (software fallback expected)")
            } else if self.cfg.faults.degrade.is_some() {
                format!(
                    "accelerator `{name}` busy and unfenced (watchdog armed but not yet expired)"
                )
            } else {
                format!("accelerator `{name}` busy and unfenced; no degradation policy configured")
            });
        }
        if self.inject_pending_total > 0 {
            notes.push(format!(
                "{} message(s) waiting in injection pipes",
                self.inject_pending_total
            ));
        }
        if !self.reorder_stash.is_empty() {
            notes.push(format!(
                "{} message(s) held by an open-ended noc_reorder fault",
                self.reorder_stash.len()
            ));
        }
        if !self.mmio_ids.is_empty() {
            notes.push(format!(
                "{} MMIO transaction(s) outstanding",
                self.mmio_ids.len()
            ));
        }
        for (i, spec) in self.cfg.faults.specs.iter().enumerate() {
            if spec.active_at(now) {
                notes.push(format!(
                    "fault #{i} ({}) currently active",
                    spec.kind.label()
                ));
            }
        }
        StallSnapshot {
            at_ps: now.as_ps(),
            components,
            notes,
        }
    }

    /// Runs until every core halts. Returns the halt time.
    ///
    /// Dead clock edges (no component can act) are skipped arithmetically;
    /// halt time and every statistic are identical to edge-by-edge
    /// stepping.
    ///
    /// # Errors
    ///
    /// [`RunError::Deadlock`] if the deadline passes first, and
    /// [`RunError::ProtocolViolation`] if a runtime checker trips; both
    /// carry a [`StallSnapshot`] naming the components that wedged.
    pub fn run_until_halt(&mut self, deadline: Time) -> Result<Time, RunError> {
        while !self.all_halted() {
            let (t, _) = self.step_event(past(deadline));
            if let Some(e) = self.run_error(t, deadline, "all cores halted") {
                self.settle_sleeping_cores();
                return Err(e);
            }
        }
        self.settle_sleeping_cores();
        Ok(self.now)
    }

    /// Runs until `pred` holds, checked after every *executed* edge.
    ///
    /// Dead edges are skipped, so a predicate should depend on component
    /// state (which only changes at executed edges), not on wall-clock
    /// instants; use [`run_until_time`](System::run_until_time) to stop at
    /// a time.
    ///
    /// # Errors
    ///
    /// As for [`run_until_halt`](System::run_until_halt).
    pub fn run_until(
        &mut self,
        deadline: Time,
        mut pred: impl FnMut(&System) -> bool,
    ) -> Result<Time, RunError> {
        // Every run entry point returns settled, so the state the first
        // predicate check reads is too; after that, each step is settled
        // exactly once, before the predicate (or the caller) reads it.
        while !pred(self) {
            let (t, _) = self.step_event(past(deadline));
            let err = self.run_error(t, deadline, "run_until predicate");
            self.settle_sleeping_cores();
            if let Some(e) = err {
                return Err(e);
            }
        }
        Ok(self.now)
    }

    /// Runs until simulated time reaches at least `until` (or every core
    /// halts first), skipping dead edges. Returns the last executed edge
    /// time. Bounded by construction, so it keeps the plain `Time` return;
    /// a checker violation detected here surfaces from the next
    /// `Result`-returning run call.
    pub fn run_until_time(&mut self, until: Time) -> Time {
        while self.now < until && !self.all_halted() {
            // The loop stops on the first edge at or after `until`, so
            // only edges before it may be skipped.
            self.step_event(until);
        }
        self.settle_sleeping_cores();
        self.now
    }

    /// Runs until all queues everywhere drain (after halting).
    ///
    /// # Errors
    ///
    /// As for [`run_until_halt`](System::run_until_halt).
    pub fn quiesce(&mut self, deadline: Time) -> Result<Time, RunError> {
        while !self.is_quiescent() {
            let (t, _) = self.step_event(past(deadline));
            if let Some(e) = self.run_error(t, deadline, "all queues drained") {
                self.settle_sleeping_cores();
                return Err(e);
            }
        }
        self.settle_sleeping_cores();
        Ok(self.now)
    }

    /// Whether every queue in the memory system has drained. O(cores +
    /// shards): the mesh and injection pipes answer in O(1) via their
    /// activity tracking. A message held by a reorder fault counts as
    /// undrained work.
    fn is_quiescent(&self) -> bool {
        self.mesh.is_idle()
            && self.inject_pending_total == 0
            && self.reorder_stash.is_empty()
            && self.l2s.iter().all(|c| c.is_idle())
            && self.shards.iter().all(|s| s.is_idle())
            && self
                .adapter
                .as_ref()
                .is_none_or(|a| a.control.is_idle() && a.hubs.iter().all(|h| h.proxy_is_quiet()))
    }
}
