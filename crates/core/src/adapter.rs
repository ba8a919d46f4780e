//! The **Duet Adapter**: one Control Hub plus one or more Memory Hubs,
//! presented to the system as a set of tiles (Sec. II-A, Fig. 8).
//!
//! In Dolly terms: the adapter's Control Hub and first Memory Hub share the
//! *C-tile*; every further Memory Hub is an *M-tile*. The adapter owns all
//! dual-clock FIFOs, decodes the MMIO device region, propagates exceptions
//! ("deactivates all Memory Hubs in the same Duet Adapter"), applies
//! clock-generator changes, and builds the [`FabricPorts`] handed to the
//! soft accelerator on every eFPGA clock edge.

use duet_fpga::ports::{FabricPorts, HubPort, RegPort};
use duet_mem::priv_cache::HomeMap;
use duet_mem::tlb::{PagePerms, Ppn, Vpn};
use duet_mem::types::{MemOp, MemReq};
use duet_noc::NodeId;
use duet_sim::{Clock, Time};
use duet_trace::{TraceSession, Tracer};

use crate::control_hub::{mmio_map, ControlHub, ControlHubConfig};
use crate::memory_hub::{HubSwitches, MemoryHub, MemoryHubConfig};
use crate::msg::DuetMsg;

/// Adapter configuration.
#[derive(Clone, Copy, Debug)]
pub struct AdapterConfig {
    /// Base physical address of this adapter's MMIO region.
    pub mmio_base: u64,
    /// Per-hub configuration (applied to every Memory Hub).
    pub hub: MemoryHubConfig,
    /// Control-hub configuration.
    pub ctrl: ControlHubConfig,
    /// Node that receives this adapter's interrupts.
    pub irq_target: NodeId,
}

/// The Duet Adapter. See module docs.
#[derive(Clone)]
pub struct DuetAdapter {
    cfg: AdapterConfig,
    /// The Control Hub (C-tile).
    pub control: ControlHub,
    /// Memory Hubs; `hubs[0]` shares the C-tile, the rest are M-tiles.
    pub hubs: Vec<MemoryHub>,
    fpga_clock: Clock,
    /// Trace handle cloned into the fabric-side [`HubPort`]s (fabric
    /// request/response events, attributed to the accelerator).
    fabric_tracer: Tracer,
}

impl DuetAdapter {
    /// Builds an adapter whose Control Hub sits on `ctrl_node` and whose
    /// Memory Hubs sit on `hub_nodes` (possibly empty for an M0 system).
    pub fn new(
        cfg: AdapterConfig,
        ctrl_node: NodeId,
        hub_nodes: &[NodeId],
        home: HomeMap,
        fpga_clock: Clock,
    ) -> Self {
        let control = ControlHub::new(cfg.ctrl, ctrl_node, fpga_clock);
        let hubs = hub_nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| MemoryHub::new(cfg.hub, n, i, home.clone(), fpga_clock))
            .collect();
        DuetAdapter {
            cfg,
            control,
            hubs,
            fpga_clock,
            fabric_tracer: Tracer::disabled(),
        }
    }

    /// Registers the adapter's hubs with a trace session and installs the
    /// handles. Components register in canonical walk order: the Control
    /// Hub, then each Memory Hub (with its inner Proxy Cache sharing the
    /// hub's id).
    pub fn install_tracers(&mut self, session: &mut TraceSession) {
        self.control.set_tracer(session.tracer("adapter.control"));
        for (i, hub) in self.hubs.iter_mut().enumerate() {
            let t = session.tracer(&format!("adapter.hub{i}"));
            hub.set_tracer(t.clone());
            hub.set_proxy_tracer(t);
        }
    }

    /// Installs the accelerator-attributed handle cloned into the
    /// fabric-side ports (fabric request/response events).
    pub fn set_fabric_tracer(&mut self, fabric: Tracer) {
        self.fabric_tracer = fabric;
    }

    /// Resets every trace handle in the adapter (control hub, memory hubs,
    /// proxies, fabric ports) to disabled. Used when forking a system: the
    /// child must not share the parent's trace session.
    pub fn clear_tracers(&mut self) {
        self.control.set_tracer(Tracer::disabled());
        for hub in &mut self.hubs {
            hub.set_tracer(Tracer::disabled());
            hub.set_proxy_tracer(Tracer::disabled());
        }
        self.fabric_tracer = Tracer::disabled();
    }

    /// The adapter's configuration.
    pub fn config(&self) -> &AdapterConfig {
        &self.cfg
    }

    /// Current eFPGA clock.
    pub fn fpga_clock(&self) -> Clock {
        self.fpga_clock
    }

    /// Reprograms the eFPGA clock (the Control Hub's programmable clock
    /// generator), reclocking every dual-clock FIFO.
    pub fn set_fpga_clock(&mut self, clock: Clock) {
        self.fpga_clock = clock;
        self.control.set_fpga_clock(clock);
        for h in &mut self.hubs {
            h.set_fpga_clock(clock);
        }
    }

    /// Whether `addr` falls inside this adapter's MMIO region.
    pub fn owns_addr(&self, addr: u64) -> bool {
        addr >= self.cfg.mmio_base && addr < self.cfg.mmio_base + mmio_map::REGION_SIZE
    }

    /// Queues an incoming MMIO access addressed to this adapter.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the adapter's region.
    pub fn mmio_request(&mut self, now: Time, mut req: MemReq, reply_to: NodeId) {
        assert!(self.owns_addr(req.addr), "MMIO for a different device");
        let offset = req.addr - self.cfg.mmio_base;
        if offset >= mmio_map::HUB_BASE {
            self.hub_region_access(now, req, reply_to, offset);
            return;
        }
        req.addr = offset;
        self.control.mmio_request(req, reply_to);
    }

    /// Handles the per-hub register region (decoded by the adapter; all
    /// operations are single-cycle and respond via the Control Hub).
    fn hub_region_access(&mut self, now: Time, req: MemReq, reply_to: NodeId, offset: u64) {
        let hub_idx = ((offset - mmio_map::HUB_BASE) / mmio_map::HUB_STRIDE) as usize;
        let reg = (offset - mmio_map::HUB_BASE) % mmio_map::HUB_STRIDE;
        let is_read = matches!(req.op, MemOp::Load(_) | MemOp::LoadLine | MemOp::IFetch);
        let mut resp = 0u64;
        if hub_idx < self.hubs.len() {
            let hub = &mut self.hubs[hub_idx];
            match reg {
                mmio_map::HUB_TLB_VPN if !is_read => {
                    self.control.latch_tlb_vpn(hub_idx, req.wdata);
                }
                mmio_map::HUB_TLB_PPN if !is_read => {
                    let vpn = Vpn(self.control.latched_tlb_vpn(hub_idx));
                    let ppn = Ppn(req.wdata & 0x3FFF_FFFF_FFFF_FFFF);
                    let perms = PagePerms {
                        read: req.wdata & (1 << 62) != 0,
                        write: req.wdata & (1 << 63) != 0,
                    };
                    hub.tlb_insert(vpn, ppn, perms);
                }
                mmio_map::HUB_SWITCHES if !is_read => {
                    hub.set_switches(HubSwitches {
                        active: req.wdata & 1 != 0,
                        fwd_inv: req.wdata & 2 != 0,
                        tlb_enabled: req.wdata & 4 != 0,
                        atomics: req.wdata & 8 != 0,
                    });
                }
                mmio_map::HUB_SWITCHES if is_read => {
                    let s = hub.switches();
                    resp = u64::from(s.active)
                        | u64::from(s.fwd_inv) << 1
                        | u64::from(s.tlb_enabled) << 2
                        | u64::from(s.atomics) << 3;
                }
                mmio_map::HUB_ERROR if is_read => {
                    resp = hub.error_code();
                }
                mmio_map::HUB_KILL if !is_read => {
                    hub.kill();
                }
                mmio_map::HUB_CLEAR if !is_read => {
                    hub.clear_error();
                }
                _ => {
                    resp = crate::control_hub::BOGUS;
                }
            }
        } else {
            resp = crate::control_hub::BOGUS;
        }
        self.control.respond_now(now, req.id, resp, reply_to);
    }

    /// Builds the fabric-side port set handed to the soft accelerator on an
    /// eFPGA clock edge.
    pub fn fabric_ports(&mut self, now: Time) -> FabricPorts<'_> {
        let clock = self.fpga_clock;
        let hubs = self
            .hubs
            .iter_mut()
            .map(|h| {
                let (req, resp) = h.fabric_links();
                HubPort {
                    req,
                    resp,
                    tracer: self.fabric_tracer.clone(),
                }
            })
            .collect();
        let (down, up) = self.control.fabric_links();
        FabricPorts {
            now,
            clock,
            hubs,
            regs: RegPort { down, up },
        }
    }

    /// Advances the adapter by one fast-clock edge.
    pub fn tick(&mut self, now: Time) {
        self.tick_parts(now, true);
    }

    /// Advances the control hub, and the Memory Hubs only when `hubs` is
    /// true. The FPSoC-like baseline (Sec. V-D) moves the hubs into the
    /// slow clock domain: the system then calls `tick_parts(now, false)`
    /// on fast edges and [`tick_hub`](DuetAdapter::tick_hub) on slow edges.
    pub fn tick_parts(&mut self, now: Time, hubs: bool) {
        self.control.tick(now);
        // Apply a software-requested clock change.
        if let Some(mhz) = self.control.take_clock_change() {
            self.set_fpga_clock(Clock::from_mhz(mhz.max(1.0)));
        }
        // Hubs are held inactive while the bitstream streams in.
        if self.control.programming() {
            for h in &mut self.hubs {
                h.deactivate();
            }
        }
        if hubs {
            for h in &mut self.hubs {
                h.tick(now);
            }
        }
        // Exception propagation: any latched hub error deactivates every
        // hub in the adapter (Sec. II-B).
        if self.hubs.iter().any(|h| h.exception_pending()) {
            for h in &mut self.hubs {
                h.deactivate();
            }
        }
    }

    /// Ticks a single Memory Hub (slow-domain hub variants).
    pub fn tick_hub(&mut self, i: usize, now: Time) {
        self.hubs[i].tick(now);
    }

    /// Drains pending interrupts (to `cfg.irq_target`) and MMIO responses.
    pub fn pop_outgoing(&mut self, now: Time) -> Option<(NodeId, DuetMsg)> {
        for h in &mut self.hubs {
            if let Some(cause) = h.pop_irq() {
                return Some((
                    self.cfg.irq_target,
                    DuetMsg::Interrupt {
                        cause,
                        from: self.control.node(),
                    },
                ));
            }
        }
        if let Some(cause) = self.control.pop_irq() {
            return Some((
                self.cfg.irq_target,
                DuetMsg::Interrupt {
                    cause,
                    from: self.control.node(),
                },
            ));
        }
        self.control.pop_outgoing(now)
    }

    /// Whether every queue in the adapter is drained.
    pub fn is_idle(&self) -> bool {
        self.control.is_idle() && self.hubs.iter().all(|h| h.is_idle())
    }

    /// The earliest time the fast-edge adapter path
    /// ([`tick_parts`](DuetAdapter::tick_parts) +
    /// [`pop_outgoing`](DuetAdapter::pop_outgoing)) can next do observable
    /// work, or `None` when the adapter can only be woken externally.
    ///
    /// With `include_hubs` false (FPSoC-style slow-domain hubs), hub queues
    /// are excluded — they tick on slow edges — but queued hub interrupts
    /// still count: they are drained on the fast side, and a freshly raised
    /// hub exception must reach the next fast edge so sibling-hub
    /// deactivation happens on the same edge as with per-edge ticking.
    pub fn next_event_time(&self, now: Time, include_hubs: bool) -> Option<Time> {
        let mut earliest = self.control.next_event_time(now);
        for h in &self.hubs {
            if include_hubs {
                if let Some(t) = h.next_event_time(now) {
                    earliest = Some(earliest.map_or(t, |e: Time| e.min(t)));
                }
            } else if h.has_pending_irq() {
                return Some(now);
            }
        }
        earliest
    }

    /// Whether the fast-edge adapter path could do anything at `now`.
    pub fn is_active(&self, now: Time, include_hubs: bool) -> bool {
        self.next_event_time(now, include_hubs)
            .is_some_and(|t| t <= now)
    }

    /// Takes a pending accelerator-reset pulse.
    pub fn take_reset(&mut self) -> bool {
        self.control.take_reset()
    }

    /// Fences a non-progressing accelerator (graceful degradation, the
    /// paper's adapter guarantee): the control hub deactivates its
    /// soft-register interface and fails the head-of-line blocked MMIO
    /// access with `BOGUS`, and every Memory Hub drops its in-flight
    /// faulting request and deactivates. Proxy Caches stay fully coherent —
    /// outstanding MSHRs complete and future invalidations are honoured, so
    /// the rest of the mesh is unaffected. Returns the number of hubs
    /// fenced.
    pub fn fence_accelerator(&mut self, now: Time) -> usize {
        self.control.fence(now);
        for h in &mut self.hubs {
            h.kill();
        }
        self.hubs.len()
    }

    /// Aggregate fabric-progress signature (control-hub register traffic
    /// plus per-hub memory traffic). Strictly monotone while the
    /// accelerator interacts with the adapter; constant while it is hung.
    pub fn progress_signature(&self) -> u64 {
        let mut sig = self.control.progress_signature();
        for h in &self.hubs {
            sig = sig.wrapping_add(h.progress_signature());
        }
        sig
    }

    /// Freezes or thaws one hub's fabric CDC FIFO pair (fault injection).
    pub fn set_hub_fabric_frozen(&mut self, hub: usize, frozen: bool) {
        if let Some(h) = self.hubs.get_mut(hub) {
            h.set_fabric_frozen(frozen);
        }
    }

    /// Whether any input is pending on the fabric side of the adapter's
    /// CDC FIFOs: register traffic or a reset in the control hub's down
    /// path, or a memory response awaiting a fabric pop. While this holds,
    /// eFPGA edges must execute even for an accelerator reporting
    /// [`is_idle`](duet_fpga::ports::SoftAccelerator::is_idle) — the input
    /// may wake it.
    pub fn fabric_input_pending(&self) -> bool {
        self.control.fabric_input_pending() || self.hubs.iter().any(|h| h.fabric_resp_pending())
    }
}

// The eFPGA clock is state (software can reprogram it mid-run), so it is
// saved before the hubs; each CDC link additionally carries its own clocks.
// Tracer handles are re-installed by the owning system.
duet_sim::snap_fields!(DuetAdapter { fpga_clock, control, [hubs] });

/// Re-export for users of the IRQ type.
pub use crate::msg::IrqCause as AdapterIrq;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::IrqCause;
    use duet_fpga::ports::{FpgaRespKind, RegDown};
    use duet_mem::types::Width;

    fn adapter() -> DuetAdapter {
        let fast = Clock::ghz1();
        let cfg = AdapterConfig {
            mmio_base: 0x4000_0000,
            hub: MemoryHubConfig::dolly(fast),
            ctrl: ControlHubConfig::dolly(fast),
            irq_target: 0,
        };
        DuetAdapter::new(
            cfg,
            2,
            &[2, 3],
            HomeMap::new(vec![0, 1, 2, 3]),
            Clock::from_mhz(100.0),
        )
    }

    fn t(c: u64) -> Time {
        Time::from_ps(c * 1000)
    }

    fn mmio_until_resp(a: &mut DuetAdapter, req: MemReq, start: u64) -> (u64, u64) {
        a.mmio_request(t(start), req, 0);
        for c in start..start + 300 {
            a.tick(t(c));
            if let Some((_, DuetMsg::MmioResp { resp })) = a.pop_outgoing(t(c)) {
                return (c, resp.rdata);
            }
        }
        panic!("no adapter MMIO response");
    }

    #[test]
    fn address_decode_routes_hub_and_control() {
        let mut a = adapter();
        assert!(a.owns_addr(0x4000_0000));
        assert!(a.owns_addr(0x4000_0FFF));
        assert!(!a.owns_addr(0x4000_1000));
        // Hub 1 switches write + readback.
        let sw_addr =
            0x4000_0000 + mmio_map::HUB_BASE + mmio_map::HUB_STRIDE + mmio_map::HUB_SWITCHES;
        let (_, _) = mmio_until_resp(&mut a, MemReq::store(1, sw_addr, Width::B8, 0b1111), 1);
        let (_, v) = mmio_until_resp(&mut a, MemReq::load(2, sw_addr, Width::B8), 50);
        assert_eq!(v, 0b1111);
        assert!(a.hubs[1].switches().tlb_enabled);
    }

    #[test]
    fn tlb_refill_via_mmio() {
        let mut a = adapter();
        let base = 0x4000_0000 + mmio_map::HUB_BASE;
        mmio_until_resp(
            &mut a,
            MemReq::store(1, base + mmio_map::HUB_TLB_VPN, Width::B8, 0x5),
            1,
        );
        let ppn_perms = 0x9u64 | (1 << 62) | (1 << 63);
        mmio_until_resp(
            &mut a,
            MemReq::store(2, base + mmio_map::HUB_TLB_PPN, Width::B8, ppn_perms),
            40,
        );
        // The hub's TLB now translates 0x5xxx -> 0x9xxx: verified via the
        // hub directly.
        let mut sw = a.hubs[0].switches();
        sw.tlb_enabled = true;
        a.hubs[0].set_switches(sw);
        {
            let mut ports = a.fabric_ports(t(100));
            assert!(ports.hubs[0].load_line(t(100), 1, 0x5000));
        }
        for c in 101..130 {
            a.tick(t(c));
        }
        let reqs: Vec<_> = std::iter::from_fn(|| a.hubs[0].pop_outgoing(t(200))).collect();
        assert!(reqs
            .iter()
            .any(|(_, m)| matches!(m, duet_mem::msg::CoherenceMsg::GetS { line } if line.0 == 0x9000 >> 4)));
    }

    #[test]
    fn exception_in_one_hub_deactivates_all() {
        let mut a = adapter();
        {
            let mut ports = a.fabric_ports(t(10));
            // Misaligned store into hub 0 trips its exception handler.
            assert!(ports.hubs[0].store(t(10), 1, 0x101, Width::B8, 1));
        }
        for c in 11..20 {
            a.tick(t(c));
        }
        assert!(a.hubs[0].exception_pending());
        assert!(!a.hubs[1].switches().active, "sibling hub deactivated");
        // The interrupt reaches the IRQ target.
        let mut saw_irq = false;
        for c in 20..25 {
            if let Some((dst, DuetMsg::Interrupt { cause, .. })) = a.pop_outgoing(t(c)) {
                assert_eq!(dst, 0);
                assert!(matches!(cause, IrqCause::Exception { .. }));
                saw_irq = true;
                break;
            }
        }
        assert!(saw_irq);
    }

    #[test]
    fn clock_change_reclocks_fifos() {
        let mut a = adapter();
        let addr = 0x4000_0000 + mmio_map::FPGA_CLOCK_MHZ;
        mmio_until_resp(&mut a, MemReq::store(1, addr, Width::B8, 500), 1);
        for c in 50..55 {
            a.tick(t(c));
        }
        assert!((a.fpga_clock().freq_mhz() - 500.0).abs() < 1.0);
        let (_, v) = mmio_until_resp(&mut a, MemReq::load(2, addr, Width::B8), 60);
        assert_eq!(v, 500);
    }

    #[test]
    fn fabric_ports_expose_all_hubs_and_regs() {
        let mut a = adapter();
        a.control
            .set_reg_mode(0, crate::control_hub::RegMode::CpuBound);
        let now = t(100);
        {
            let mut ports = a.fabric_ports(now);
            assert_eq!(ports.hubs.len(), 2);
            assert!(ports.regs.push(now, 0, 55));
        }
        for c in 101..200 {
            a.tick(t(c));
        }
        // The push should now satisfy a CPU-bound read instantly.
        let (_, v) = mmio_until_resp(&mut a, MemReq::load(9, 0x4000_0000, Width::B8), 200);
        assert_eq!(v, 55);
    }

    #[test]
    fn invalidation_forwarding_reaches_fabric_port() {
        let mut a = adapter();
        let mut sw = a.hubs[0].switches();
        sw.fwd_inv = true;
        a.hubs[0].set_switches(sw);
        // Fill a line through hub 0's proxy.
        {
            let mut ports = a.fabric_ports(t(10));
            assert!(ports.hubs[0].load_line(t(10), 1, 0x200));
        }
        for c in 11..20 {
            a.tick(t(c));
        }
        let (dst, _gets) = a.hubs[0].pop_outgoing(t(20)).expect("GetS sent");
        a.hubs[0].handle_noc(
            t(21),
            dst,
            duet_mem::msg::CoherenceMsg::Data {
                line: duet_mem::types::LineAddr::containing(0x200),
                data: [1; 16],
                grant: duet_mem::msg::Grant::E,
                acks: 0,
                breakdown: Default::default(),
            },
            Time::ZERO,
        );
        for c in 22..30 {
            a.tick(t(c));
        }
        // Now invalidate it via coherence.
        a.hubs[0].handle_noc(
            t(30),
            dst,
            duet_mem::msg::CoherenceMsg::FwdGetM {
                line: duet_mem::types::LineAddr::containing(0x200),
                requestor: 1,
                breakdown: Default::default(),
            },
            Time::ZERO,
        );
        for c in 31..40 {
            a.tick(t(c));
        }
        // The fabric receives LoadAck then Inv, in order.
        let mut kinds = Vec::new();
        {
            let mut ports = a.fabric_ports(t(1_000_000));
            while let Some(r) = ports.hubs[0].pop_resp(t(1_000_000)) {
                kinds.push(match r.kind {
                    FpgaRespKind::LoadAck { .. } => "fill",
                    FpgaRespKind::StoreAck { .. } => "ack",
                    FpgaRespKind::Inv { .. } => "inv",
                });
            }
        }
        assert_eq!(kinds, vec!["fill", "inv"], "in-order delivery");
    }

    #[test]
    fn shadow_write_faster_than_normal_write() {
        // The headline of Fig. 6: shadow-register writes ack from the fast
        // domain; normal writes round-trip into the slow fabric.
        let mut a = adapter();
        a.control
            .set_reg_mode(0, crate::control_hub::RegMode::FpgaBound);
        a.control
            .set_reg_mode(1, crate::control_hub::RegMode::Normal);
        let base = 0x4000_0000;
        let (shadow_done, _) = mmio_until_resp(&mut a, MemReq::store(1, base, Width::B8, 1), 1);
        // Normal write: we must emulate the fabric answering.
        a.mmio_request(
            t(shadow_done + 1),
            MemReq::store(2, base + 8, Width::B8, 1),
            0,
        );
        let mut normal_done = 0;
        'outer: for c in shadow_done + 1..shadow_done + 3000 {
            a.tick(t(c));
            // Fabric echo: ack any WriteReq on the next slow edge.
            let now = t(c);
            let mut acks = Vec::new();
            {
                let mut ports = a.fabric_ports(now);
                while let Some(ev) = ports.regs.pop(now) {
                    if let RegDown::WriteReq { txn, .. } = ev {
                        acks.push(txn);
                    }
                }
                for txn in acks {
                    ports.regs.write_ack(now, txn);
                }
            }
            if let Some((_, DuetMsg::MmioResp { resp })) = a.pop_outgoing(t(c)) {
                assert_eq!(resp.id, 2);
                normal_done = c;
                break 'outer;
            }
        }
        assert!(normal_done > 0, "normal write never completed");
        let shadow_latency = shadow_done - 1;
        let normal_latency = normal_done - shadow_done - 1;
        assert!(
            normal_latency > 2 * shadow_latency,
            "normal {normal_latency} vs shadow {shadow_latency}"
        );
    }
}
