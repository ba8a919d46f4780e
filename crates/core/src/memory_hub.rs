//! The **Memory Hub** (Sec. II-B): Proxy Cache + exception handler +
//! feature switches + per-hub TLB, all in the fast clock domain.
//!
//! A Memory Hub bridges the eFPGA's simple memory interface to the
//! cache-coherent NoC:
//!
//! * the **Proxy Cache** is an unmodified private L2
//!   ([`duet_mem::priv_cache::PrivCache`]) with its CPU-side port driven by
//!   fabric requests — exactly Dolly's "coherent memory interface added to
//!   the unmodified P-Mesh L2",
//! * the hub **never waits for the fabric**: invalidations are forwarded
//!   into the response FIFO without acknowledgement and the proxy answers
//!   coherence immediately (Fig. 5c),
//! * the **exception handler** validates fabric requests (alignment /
//!   feature checks standing in for the RTL's parity) and, on an error,
//!   latches a code and deactivates the hub while the Proxy Cache keeps
//!   serving in-flight coherence,
//! * the optional **TLB** translates accelerator virtual addresses; misses
//!   raise a page-fault interrupt and stall the (in-order) fabric request
//!   stream until the kernel refills the TLB by MMIO (Sec. II-D). For VIVT
//!   soft caches the hub tracks the virtual line of each physical line so
//!   forwarded invalidations carry fabric-visible addresses, and it
//!   invalidates synonyms before completing a fill under a new alias.

use std::collections::BTreeMap;

use duet_fpga::ports::{FpgaMemOp, FpgaMemReq, FpgaMemResp, FpgaRespKind};
use duet_mem::msg::CoherenceMsg;
use duet_mem::priv_cache::{CacheConfig, HomeMap, PrivCache};
use duet_mem::tlb::{PagePerms, Ppn, Tlb, Translation, Vpn};
use duet_mem::types::{LineAddr, MemReq};
use duet_noc::NodeId;
use duet_sim::{merge_min, Clock, Component, LatencyBreakdown, Link, LinkReport, Time};
use duet_trace::{EventKind, Tracer};

use crate::msg::IrqCause;

/// Error codes latched by the exception handler.
pub mod error_codes {
    /// Misaligned or malformed fabric request (stands in for parity).
    pub const BAD_REQUEST: u64 = 0x1;
    /// Atomic issued while the atomics feature switch is off.
    pub const ATOMICS_DISABLED: u64 = 0x2;
    /// Access to a page the accelerator lacks permission for.
    pub const PERMISSION: u64 = 0x3;
    /// The kernel killed the accelerator after an invalid page access.
    pub const KILLED: u64 = 0x4;
}

/// Feature switches of a Memory Hub (Sec. II-B). All are processor-
/// configurable via MMIO.
#[derive(Clone, Copy, Debug)]
pub struct HubSwitches {
    /// Hub accepts fabric requests. Cleared during reconfiguration and by
    /// the exception handler.
    pub active: bool,
    /// Forward coherence invalidations into the eFPGA (set when soft
    /// caches are used).
    pub fwd_inv: bool,
    /// Translate fabric addresses through the TLB (virtual-address mode).
    pub tlb_enabled: bool,
    /// Allow fabric atomics.
    pub atomics: bool,
}

impl Default for HubSwitches {
    fn default() -> Self {
        HubSwitches {
            active: true,
            fwd_inv: false,
            tlb_enabled: false,
            atomics: true,
        }
    }
}

/// Memory Hub configuration.
#[derive(Clone, Copy, Debug)]
pub struct MemoryHubConfig {
    /// Proxy Cache geometry/timing (fast domain).
    pub proxy: CacheConfig,
    /// Depth of the fabric→hub request FIFO.
    pub req_fifo_depth: usize,
    /// Depth of the hub→fabric response FIFO.
    pub resp_fifo_depth: usize,
    /// Synchronizer stages of the async FIFOs.
    pub sync_stages: u32,
    /// TLB entries.
    pub tlb_entries: usize,
    /// Initial feature switches.
    pub switches: HubSwitches,
}

impl MemoryHubConfig {
    /// Dolly-like hub: proxy = Dolly L2 with 8 MSHRs, 16-deep FIFOs,
    /// 2-stage synchronizers, 16-entry TLB.
    pub fn dolly(fast_clock: Clock) -> Self {
        MemoryHubConfig {
            proxy: CacheConfig::dolly_l2(fast_clock).with_mshrs(8),
            req_fifo_depth: 16,
            resp_fifo_depth: 16,
            sync_stages: 2,
            tlb_entries: 16,
            switches: HubSwitches::default(),
        }
    }
}

/// Event counters for a Memory Hub.
#[derive(Clone, Copy, Debug, Default)]
pub struct HubStats {
    /// Fabric requests accepted.
    pub requests: u64,
    /// Line loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Atomics.
    pub amos: u64,
    /// Invalidations forwarded into the fabric.
    pub invs_forwarded: u64,
    /// TLB page faults raised.
    pub page_faults: u64,
    /// Exceptions latched.
    pub exceptions: u64,
}

#[derive(Clone, Copy, Debug)]
struct Pending {
    fabric_id: u64,
    base: LatencyBreakdown,
    is_amo: bool,
}

/// The Memory Hub. See module docs.
#[derive(Clone)]
pub struct MemoryHub {
    cfg: MemoryHubConfig,
    node: NodeId,
    proxy: PrivCache,
    /// Fabric (slow, producer) → hub (fast, consumer) CDC link.
    req_fifo: Link<FpgaMemReq>,
    /// Hub (fast, producer) → fabric (slow, consumer) CDC link.
    resp_fifo: Link<FpgaMemResp>,
    /// Overflow stage in front of `resp_fifo`, preserving order while never
    /// blocking the proxy (models a deeper hardware FIFO).
    resp_stage: std::collections::VecDeque<FpgaMemResp>,
    tlb: Tlb,
    switches: HubSwitches,
    error_code: u64,
    pending: BTreeMap<u64, Pending>,
    next_proxy_id: u64,
    /// A faulting fabric request waiting for a TLB refill (stalls the
    /// in-order request stream).
    fault: Option<FpgaMemReq>,
    irqs: std::collections::VecDeque<IrqCause>,
    /// Physical line → virtual line, for VIVT invalidation reverse-mapping.
    va_of_pa: BTreeMap<u64, u64>,
    /// This hub's index within its adapter (reported in page faults).
    hub_index: usize,
    stats: HubStats,
    /// Trace handle (events: request-FIFO pops, response-FIFO pushes —
    /// i.e. the CDC crossings). Purely observational.
    tracer: Tracer,
}

impl MemoryHub {
    /// Creates a hub whose Proxy Cache sits on NoC node `node`.
    pub fn new(
        cfg: MemoryHubConfig,
        node: NodeId,
        hub_index: usize,
        home: HomeMap,
        fpga_clock: Clock,
    ) -> Self {
        let fast = cfg.proxy.clock;
        MemoryHub {
            cfg,
            node,
            proxy: PrivCache::new(cfg.proxy, node, home),
            req_fifo: Link::cdc(cfg.req_fifo_depth, cfg.sync_stages, fpga_clock, fast),
            resp_fifo: Link::cdc(cfg.resp_fifo_depth, cfg.sync_stages, fast, fpga_clock),
            resp_stage: std::collections::VecDeque::new(),
            tlb: Tlb::new(cfg.tlb_entries),
            switches: cfg.switches,
            error_code: 0,
            pending: BTreeMap::new(),
            next_proxy_id: 1,
            fault: None,
            irqs: std::collections::VecDeque::new(),
            va_of_pa: BTreeMap::new(),
            hub_index,
            stats: HubStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs the trace handle.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Installs a trace handle on the hub's inner Proxy Cache (MSHR and
    /// writeback events attributed to the proxy's component id).
    pub fn set_proxy_tracer(&mut self, tracer: Tracer) {
        self.proxy.set_tracer(tracer);
    }

    /// The hub's NoC node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The hub's configuration.
    pub fn config(&self) -> &MemoryHubConfig {
        &self.cfg
    }

    /// Event counters.
    pub fn stats(&self) -> HubStats {
        self.stats
    }

    /// Current feature switches.
    pub fn switches(&self) -> HubSwitches {
        self.switches
    }

    /// Updates the feature switches (MMIO).
    pub fn set_switches(&mut self, s: HubSwitches) {
        self.switches = s;
    }

    /// Latched error code (0 = none).
    pub fn error_code(&self) -> u64 {
        self.error_code
    }

    /// Clears the error code and reactivates the hub (MMIO).
    pub fn clear_error(&mut self) {
        self.error_code = 0;
        self.switches.active = true;
    }

    /// Deactivates the hub (used during reconfiguration and by adapter-wide
    /// exception propagation). The Proxy Cache remains fully functional.
    pub fn deactivate(&mut self) {
        self.switches.active = false;
    }

    /// Whether the exception handler has tripped since the last clear.
    pub fn exception_pending(&self) -> bool {
        self.error_code != 0
    }

    /// Inserts a TLB mapping (kernel MMIO refill). Retries a pending fault
    /// on the next tick.
    pub fn tlb_insert(&mut self, vpn: Vpn, ppn: Ppn, perms: PagePerms) {
        self.tlb.insert(vpn, ppn, perms);
    }

    /// Kills the accelerator after an invalid page access: drops the
    /// faulting request, latches an error, deactivates.
    pub fn kill(&mut self) {
        self.fault = None;
        self.raise(error_codes::KILLED);
    }

    /// Pops a pending interrupt.
    pub fn pop_irq(&mut self) -> Option<IrqCause> {
        self.irqs.pop_front()
    }

    /// Whether an interrupt is queued (drained on the fast side even when
    /// the hub itself ticks in the slow domain).
    pub fn has_pending_irq(&self) -> bool {
        !self.irqs.is_empty()
    }

    /// Reclocks the fabric-side FIFOs after a clock-generator change.
    pub fn set_fpga_clock(&mut self, clock: Clock) {
        self.req_fifo.set_producer_clock(clock);
        self.resp_fifo.set_consumer_clock(clock);
    }

    /// Fabric-side CDC links (for building
    /// [`duet_fpga::ports::FabricPorts`]).
    pub fn fabric_links(&mut self) -> (&mut Link<FpgaMemReq>, &mut Link<FpgaMemResp>) {
        (&mut self.req_fifo, &mut self.resp_fifo)
    }

    /// Freezes or thaws both fabric-side CDC FIFOs (fault injection: a
    /// stuck synchronizer). Contents are preserved across the freeze.
    pub fn set_fabric_frozen(&mut self, frozen: bool) {
        self.req_fifo.set_frozen(frozen);
        self.resp_fifo.set_frozen(frozen);
    }

    /// Monotone count of fabric-side memory activity (requests the fabric
    /// issued plus responses it consumed). The adapter watchdog samples
    /// this to distinguish a hung accelerator from a slow one.
    pub fn progress_signature(&self) -> u64 {
        self.req_fifo.stats().pushes + self.resp_fifo.stats().pops
    }

    /// Reads a line resident in the Proxy Cache (coherent peek support).
    pub fn peek_proxy_line(&self, line: LineAddr) -> Option<duet_mem::types::LineData> {
        self.proxy.peek_line(line)
    }

    /// The Proxy Cache's stable MESI state for a line (verification aid).
    pub fn proxy_line_state(&self, line: LineAddr) -> Option<duet_mem::LineState> {
        self.proxy.line_state(line)
    }

    /// Whether the proxy and its NoC-facing state are drained (the fabric
    /// FIFOs may still hold responses the accelerator has not popped).
    pub fn proxy_is_quiet(&self) -> bool {
        self.proxy.is_idle() && self.pending.is_empty() && self.fault.is_none()
    }

    /// Delivers a coherence message from the NoC glue.
    pub fn handle_noc(&mut self, now: Time, src: NodeId, msg: CoherenceMsg, flight: Time) {
        self.proxy.handle_msg(now, src, msg, flight);
    }

    /// Pops an outgoing coherence message.
    pub fn pop_outgoing(&mut self, now: Time) -> Option<(NodeId, CoherenceMsg)> {
        self.proxy.pop_outgoing(now)
    }

    /// Whether responses await the fabric: occupancy in the slow-consumed
    /// response FIFO (invisible to the fast-side
    /// [`next_event_time`](MemoryHub::next_event_time) contract).
    pub fn fabric_resp_pending(&self) -> bool {
        !self.resp_fifo.is_empty()
    }

    /// Whether all queues are empty (quiesce checks).
    pub fn is_idle(&self) -> bool {
        self.proxy.is_idle()
            && self.pending.is_empty()
            && self.req_fifo.is_empty()
            && self.resp_fifo.is_empty()
            && self.resp_stage.is_empty()
            && self.fault.is_none()
    }

    /// The earliest time ticking or draining this hub can next do observable
    /// work, or `None` when it can only be woken externally (a fabric push
    /// or a NoC message).
    ///
    /// A pending fault keeps the hub hot: the retry path probes the TLB
    /// (updating its replacement state) every tick, which must not be
    /// elided. Staged responses are hot because backpressure visibility
    /// depends on slow-domain pops. Accepting new fabric requests is bounded
    /// by the request FIFO's synchronizer-crossing time, and only matters
    /// while the hub is switched on.
    pub fn next_event_time(&self, now: Time) -> Option<Time> {
        if self.fault.is_some() || !self.resp_stage.is_empty() || !self.irqs.is_empty() {
            return Some(now);
        }
        let mut earliest = self.proxy.next_event_time(now);
        if self.switches.active {
            earliest = merge_min(earliest, self.req_fifo.front_ready_at());
        }
        earliest
    }

    fn raise(&mut self, code: u64) {
        if self.error_code == 0 {
            self.error_code = code;
            self.stats.exceptions += 1;
            self.irqs.push_back(IrqCause::Exception { code });
        }
        self.switches.active = false;
    }

    fn push_resp(&mut self, now: Time, resp: FpgaMemResp) {
        self.resp_stage.push_back(resp);
        self.drain_resp_stage(now);
    }

    fn drain_resp_stage(&mut self, now: Time) {
        while let Some(front) = self.resp_stage.front() {
            if self.resp_fifo.can_push(now) {
                let r = *front;
                self.resp_stage.pop_front();
                let kind = match r.kind {
                    FpgaRespKind::LoadAck { .. } => 0,
                    FpgaRespKind::StoreAck { .. } => 1,
                    FpgaRespKind::Inv { .. } => 2,
                };
                self.tracer
                    .emit(now.as_ps(), EventKind::AdapterRespPush, r.id, kind);
                self.resp_fifo.push(now, r).expect("space checked");
            } else {
                break;
            }
        }
    }

    /// Advances the hub by one fast-clock edge.
    pub fn tick(&mut self, now: Time) {
        self.proxy.tick(now);
        self.drain_resp_stage(now);

        // Forward back-invalidations into the fabric (ack-free; Sec. II-C).
        for (line, _reason) in self.proxy.take_back_invalidations() {
            if self.switches.fwd_inv {
                let fabric_line = if self.switches.tlb_enabled {
                    match self.va_of_pa.get(&line.0) {
                        Some(va) => LineAddr(*va),
                        None => continue, // never exposed to the fabric
                    }
                } else {
                    line
                };
                self.stats.invs_forwarded += 1;
                self.push_resp(
                    now,
                    FpgaMemResp {
                        id: 0,
                        kind: FpgaRespKind::Inv { line: fabric_line },
                        breakdown: LatencyBreakdown::new(),
                    },
                );
            }
        }

        // Complete proxy responses toward the fabric.
        while let Some(resp) = self.proxy.pop_cpu_resp(now) {
            let Some(p) = self.pending.remove(&resp.id) else {
                panic!("proxy response for unknown id {}", resp.id);
            };
            let mut bd = p.base;
            bd.merge(&resp.breakdown);
            let kind = match resp.line {
                Some(data) => FpgaRespKind::LoadAck { data },
                None => FpgaRespKind::StoreAck {
                    old: if p.is_amo { resp.rdata } else { 0 },
                },
            };
            self.push_resp(
                now,
                FpgaMemResp {
                    id: p.fabric_id,
                    kind,
                    breakdown: bd,
                },
            );
        }

        // Retry a faulting request after a TLB refill.
        if let Some(req) = self.fault {
            if self.proxy.can_accept() {
                let is_write = !matches!(req.op, FpgaMemOp::LoadLine);
                match self.tlb.translate(req.addr, is_write) {
                    Translation::Hit(pa) => {
                        self.fault = None;
                        self.issue_translated(now, req, pa);
                    }
                    Translation::Miss => {} // still waiting for the kernel
                    Translation::Fault => self.raise(error_codes::PERMISSION),
                }
            }
            return; // in-order: nothing behind the fault may proceed
        }

        // Accept new fabric requests.
        while self.switches.active && self.proxy.can_accept() {
            let Some(req) = self.req_fifo.pop(now) else {
                break;
            };
            self.tracer
                .emit(now.as_ps(), EventKind::AdapterReqPop, req.id, req.addr);
            // Exception handler: validation standing in for parity checks.
            let width_ok = match req.op {
                FpgaMemOp::LoadLine => req.addr % 16 == 0,
                FpgaMemOp::Store(w) | FpgaMemOp::Amo(_, w) => req.addr % (w.bytes() as u64) == 0,
            };
            if !width_ok {
                self.raise(error_codes::BAD_REQUEST);
                break;
            }
            if matches!(req.op, FpgaMemOp::Amo(..)) && !self.switches.atomics {
                self.raise(error_codes::ATOMICS_DISABLED);
                break;
            }
            if self.switches.tlb_enabled {
                let is_write = !matches!(req.op, FpgaMemOp::LoadLine);
                match self.tlb.translate(req.addr, is_write) {
                    Translation::Hit(pa) => self.issue_translated(now, req, pa),
                    Translation::Miss => {
                        self.stats.page_faults += 1;
                        self.fault = Some(req);
                        self.irqs.push_back(IrqCause::PageFault {
                            vaddr: req.addr,
                            is_write,
                            hub: self.hub_index,
                        });
                        break;
                    }
                    Translation::Fault => {
                        self.raise(error_codes::PERMISSION);
                        break;
                    }
                }
            } else {
                let pa = req.addr;
                self.issue_translated(now, req, pa);
            }
        }
    }

    /// Issues a validated, translated fabric request into the Proxy Cache.
    fn issue_translated(&mut self, now: Time, req: FpgaMemReq, pa: u64) {
        self.stats.requests += 1;
        let mut base = LatencyBreakdown::new();
        // Request-side CDC: time from the fabric edge that issued it to
        // this fast edge.
        base.cdc += now.saturating_sub(req.issued_at);

        // VIVT reverse map + synonym exclusion (Sec. II-D): remember which
        // virtual line this physical line is cached under; if the fabric
        // re-accesses it under a different alias, invalidate the old one.
        if self.switches.tlb_enabled {
            let pa_line = LineAddr::containing(pa);
            let va_line = LineAddr::containing(req.addr);
            if let Some(&old_va) = self.va_of_pa.get(&pa_line.0) {
                if old_va != va_line.0 && self.switches.fwd_inv {
                    self.stats.invs_forwarded += 1;
                    self.push_resp(
                        now,
                        FpgaMemResp {
                            id: 0,
                            kind: FpgaRespKind::Inv {
                                line: LineAddr(old_va),
                            },
                            breakdown: LatencyBreakdown::new(),
                        },
                    );
                }
            }
            self.va_of_pa.insert(pa_line.0, va_line.0);
        }

        let proxy_id = self.next_proxy_id;
        self.next_proxy_id += 1;
        let (mem_req, is_amo) = match req.op {
            FpgaMemOp::LoadLine => {
                self.stats.loads += 1;
                (MemReq::load_line(proxy_id, pa), false)
            }
            FpgaMemOp::Store(w) => {
                self.stats.stores += 1;
                (MemReq::store(proxy_id, pa, w, req.wdata), false)
            }
            FpgaMemOp::Amo(op, w) => {
                self.stats.amos += 1;
                (
                    MemReq::amo(proxy_id, op, pa, w, req.wdata, req.expected),
                    true,
                )
            }
        };
        self.pending.insert(
            proxy_id,
            Pending {
                fabric_id: req.id,
                base,
                is_amo,
            },
        );
        self.proxy.cpu_request(mem_req);
    }
}

duet_sim::pack_struct!(HubSwitches {
    active,
    fwd_inv,
    tlb_enabled,
    atomics
});
duet_sim::pack_struct!(HubStats {
    requests,
    loads,
    stores,
    amos,
    invs_forwarded,
    page_faults,
    exceptions
});
duet_sim::pack_struct!(Pending {
    fabric_id,
    base,
    is_amo
});
// Everything observable is serialized; the tracer handles (hub and proxy)
// are not — the owning system re-installs them after a restore.
duet_sim::snap_fields!(MemoryHub {
    proxy,
    req_fifo,
    resp_fifo,
    resp_stage,
    tlb,
    switches,
    error_code,
    pending,
    next_proxy_id,
    fault,
    irqs,
    va_of_pa,
    stats
});

impl Component for MemoryHub {
    fn name(&self) -> String {
        format!("hub{}@n{}", self.hub_index, self.node)
    }

    fn tick(&mut self, now: Time) {
        MemoryHub::tick(self, now);
    }

    fn next_event_time(&self, now: Time) -> Option<Time> {
        MemoryHub::next_event_time(self, now)
    }

    fn visit_links(&self, visit: &mut dyn FnMut(&str, LinkReport)) {
        visit("fabric_req", self.req_fifo.report());
        visit("fabric_resp", self.resp_fifo.report());
        let mut full = String::from("proxy.");
        self.proxy.visit_links(&mut |name, report| {
            full.truncate("proxy.".len());
            full.push_str(name);
            visit(&full, report);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_fpga::ports::HubPort;
    use duet_mem::msg::Grant;
    use duet_mem::types::Width;

    fn fast() -> Clock {
        Clock::ghz1()
    }

    fn slow() -> Clock {
        Clock::from_mhz(100.0)
    }

    fn hub() -> MemoryHub {
        MemoryHub::new(
            MemoryHubConfig::dolly(fast()),
            0,
            0,
            HomeMap::new(vec![1]),
            slow(),
        )
    }

    fn t(ps: u64) -> Time {
        Time::from_ps(ps)
    }

    /// Pushes a fabric load at a slow edge and runs the hub until the GetS
    /// appears on the NoC side.
    #[test]
    fn fabric_load_reaches_noc_with_cdc_attribution() {
        let mut h = hub();
        {
            let (req, resp) = h.fabric_links();
            let mut port = HubPort {
                req,
                resp,
                tracer: duet_trace::Tracer::disabled(),
            };
            assert!(port.load_line(t(10_000), 7, 0x100));
        }
        // CDC: visible to hub at 12_000 (two fast edges).
        h.tick(t(11_000));
        assert_eq!(h.stats().requests, 0);
        h.tick(t(12_000));
        assert_eq!(h.stats().requests, 1);
        let mut saw = false;
        for c in 13..20 {
            h.tick(t(c * 1000));
            while let Some((dst, m)) = h.pop_outgoing(t(40_000)) {
                assert_eq!(dst, 1);
                assert!(matches!(m, CoherenceMsg::GetS { .. }));
                saw = true;
            }
        }
        assert!(saw);
        // Fill comes back; response lands in the fabric FIFO with CDC time
        // recorded.
        h.handle_noc(
            t(20_000),
            1,
            CoherenceMsg::Data {
                line: LineAddr::containing(0x100),
                data: [9u8; 16],
                grant: Grant::E,
                acks: 0,
                breakdown: LatencyBreakdown::new(),
            },
            Time::from_ns(4),
        );
        for c in 21..30 {
            h.tick(t(c * 1000));
        }
        let (_, resp_fifo) = h.fabric_links();
        let resp = resp_fifo.pop(t(60_000)).expect("fabric response");
        assert_eq!(resp.id, 7);
        assert!(matches!(resp.kind, FpgaRespKind::LoadAck { data } if data[0] == 9));
        assert!(
            resp.breakdown.cdc >= Time::from_ns(2),
            "request CDC recorded"
        );
        assert!(
            resp.breakdown.noc >= Time::from_ns(4),
            "NoC flight recorded"
        );
    }

    #[test]
    fn misaligned_request_trips_exception_and_deactivates() {
        let mut h = hub();
        {
            let (req, resp) = h.fabric_links();
            let mut port = HubPort {
                req,
                resp,
                tracer: duet_trace::Tracer::disabled(),
            };
            assert!(port.store(t(10_000), 1, 0x101, Width::B8, 5)); // misaligned
        }
        h.tick(t(12_000));
        assert_eq!(h.error_code(), error_codes::BAD_REQUEST);
        assert!(!h.switches().active);
        assert!(
            matches!(h.pop_irq(), Some(IrqCause::Exception { code }) if code == error_codes::BAD_REQUEST)
        );
        // Deactivated hub stops accepting (request stays in FIFO).
        {
            let (req, resp) = h.fabric_links();
            let mut port = HubPort {
                req,
                resp,
                tracer: duet_trace::Tracer::disabled(),
            };
            assert!(port.store(t(20_000), 2, 0x108, Width::B8, 5));
        }
        h.tick(t(22_000));
        assert_eq!(h.stats().requests, 0);
        // Clear + reactivate resumes.
        h.clear_error();
        h.tick(t(23_000));
        assert_eq!(h.stats().requests, 1);
    }

    #[test]
    fn proxy_keeps_serving_coherence_while_deactivated() {
        let mut h = hub();
        h.deactivate();
        // Warm a line into the proxy, then hit it with an Inv.
        // (Direct warm via proxy is not exposed; drive a fill instead.)
        {
            let (req, resp) = h.fabric_links();
            let mut port = HubPort {
                req,
                resp,
                tracer: duet_trace::Tracer::disabled(),
            };
            // Re-activate briefly to get a line in.
            port.load_line(t(10_000), 1, 0x200);
        }
        h.clear_error(); // also reactivates
        h.tick(t(12_000));
        if h.pop_outgoing(t(12_000)).is_none() {
            h.tick(t(13_000));
        }
        h.handle_noc(
            t(14_000),
            1,
            CoherenceMsg::Data {
                line: LineAddr::containing(0x200),
                data: [1u8; 16],
                grant: Grant::E,
                acks: 0,
                breakdown: LatencyBreakdown::new(),
            },
            Time::ZERO,
        );
        for c in 15..20 {
            h.tick(t(c * 1000));
        }
        h.deactivate();
        // An invalidation must still be answered while deactivated.
        h.handle_noc(
            t(21_000),
            1,
            CoherenceMsg::FwdGetM {
                line: LineAddr::containing(0x200),
                requestor: 2,
                breakdown: LatencyBreakdown::new(),
            },
            Time::ZERO,
        );
        h.tick(t(22_000));
        let mut found = false;
        for c in 23..28 {
            while let Some((dst, m)) = h.pop_outgoing(t(c * 1000)) {
                if matches!(m, CoherenceMsg::DataOwner { .. }) {
                    assert_eq!(dst, 2);
                    found = true;
                }
            }
            h.tick(t(c * 1000));
        }
        assert!(found, "deactivated hub's proxy must answer coherence");
    }

    #[test]
    fn tlb_miss_raises_page_fault_and_stalls_in_order() {
        let mut h = hub();
        let mut sw = h.switches();
        sw.tlb_enabled = true;
        h.set_switches(sw);
        {
            let (req, resp) = h.fabric_links();
            let mut port = HubPort {
                req,
                resp,
                tracer: duet_trace::Tracer::disabled(),
            };
            assert!(port.load_line(t(10_000), 1, 0x5000)); // unmapped VA
            assert!(port.load_line(t(20_000), 2, 0x6000)); // behind the fault
        }
        h.tick(t(12_000));
        assert!(matches!(
            h.pop_irq(),
            Some(IrqCause::PageFault {
                vaddr: 0x5000,
                is_write: false,
                hub: 0
            })
        ));
        // Nothing issues while faulted.
        for c in 13..30 {
            h.tick(t(c * 1000));
        }
        assert_eq!(h.stats().requests, 0);
        // Kernel refills; the faulting access retries, then the next one.
        h.tlb_insert(Vpn(0x5), Ppn(0x9), PagePerms::rw());
        h.tlb_insert(Vpn(0x6), Ppn(0xA), PagePerms::rw());
        for c in 30..40 {
            h.tick(t(c * 1000));
        }
        assert_eq!(h.stats().requests, 2);
        // Both GetS messages target translated physical lines.
        let mut lines = Vec::new();
        while let Some((_, m)) = h.pop_outgoing(t(60_000)) {
            if let CoherenceMsg::GetS { line } = m {
                lines.push(line.0);
            }
        }
        assert_eq!(lines, vec![0x9000 >> 4, 0xA000 >> 4]);
    }

    #[test]
    fn write_to_readonly_page_is_permission_exception() {
        let mut h = hub();
        let mut sw = h.switches();
        sw.tlb_enabled = true;
        h.set_switches(sw);
        h.tlb_insert(Vpn(0x5), Ppn(0x9), PagePerms::ro());
        {
            let (req, resp) = h.fabric_links();
            let mut port = HubPort {
                req,
                resp,
                tracer: duet_trace::Tracer::disabled(),
            };
            assert!(port.store(t(10_000), 1, 0x5000, Width::B8, 1));
        }
        h.tick(t(12_000));
        assert_eq!(h.error_code(), error_codes::PERMISSION);
    }

    #[test]
    fn vivt_synonym_invalidates_old_alias() {
        let mut h = hub();
        let mut sw = h.switches();
        sw.tlb_enabled = true;
        sw.fwd_inv = true;
        h.set_switches(sw);
        // Two VAs mapping to the same PA.
        h.tlb_insert(Vpn(0x5), Ppn(0x9), PagePerms::rw());
        h.tlb_insert(Vpn(0x6), Ppn(0x9), PagePerms::rw());
        {
            let (req, resp) = h.fabric_links();
            let mut port = HubPort {
                req,
                resp,
                tracer: duet_trace::Tracer::disabled(),
            };
            assert!(port.load_line(t(10_000), 1, 0x5000));
        }
        h.tick(t(12_000));
        {
            let (req, resp) = h.fabric_links();
            let mut port = HubPort {
                req,
                resp,
                tracer: duet_trace::Tracer::disabled(),
            };
            assert!(port.load_line(t(20_000), 2, 0x6000)); // synonym
        }
        h.tick(t(22_000));
        // The fabric must receive an Inv for the OLD virtual line (0x5000).
        let (_, resp_fifo) = h.fabric_links();
        let mut saw_inv = false;
        while let Some(r) = resp_fifo.pop(t(80_000)) {
            if let FpgaRespKind::Inv { line } = r.kind {
                assert_eq!(line, LineAddr::containing(0x5000));
                saw_inv = true;
            }
        }
        assert!(saw_inv, "synonym must invalidate the previous alias");
    }

    #[test]
    fn kill_drops_fault_and_latches_error() {
        let mut h = hub();
        let mut sw = h.switches();
        sw.tlb_enabled = true;
        h.set_switches(sw);
        {
            let (req, resp) = h.fabric_links();
            let mut port = HubPort {
                req,
                resp,
                tracer: duet_trace::Tracer::disabled(),
            };
            assert!(port.load_line(t(10_000), 1, 0x7000));
        }
        h.tick(t(12_000));
        assert_eq!(h.stats().page_faults, 1);
        h.kill();
        assert_eq!(h.error_code(), error_codes::KILLED);
        assert!(!h.switches().active);
    }

    #[test]
    fn amo_blocked_by_feature_switch() {
        let mut h = hub();
        let mut sw = h.switches();
        sw.atomics = false;
        h.set_switches(sw);
        {
            let (req, resp) = h.fabric_links();
            let mut port = HubPort {
                req,
                resp,
                tracer: duet_trace::Tracer::disabled(),
            };
            assert!(port.amo(
                t(10_000),
                1,
                duet_mem::types::AmoOp::Add,
                0x100,
                Width::B8,
                1,
                0
            ));
        }
        h.tick(t(12_000));
        assert_eq!(h.error_code(), error_codes::ATOMICS_DISABLED);
    }
}
