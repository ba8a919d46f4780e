//! The fabric-side interfaces between soft accelerators and the Duet
//! Adapter.
//!
//! The paper's Proxy Cache exposes "a simple memory interface" to the eFPGA
//! (Sec. II-C): two request types (Load and Store, plus optional atomics)
//! and three response types (LoadAck, StoreAck, Invalidation), delivered
//! strictly in order through the asynchronous FIFOs. This module defines
//! those message types, the [`HubPort`]/[`RegPort`] wrappers accelerators
//! use, and the [`SoftAccelerator`] trait every fabric design implements.

use duet_mem::types::{Addr, AmoOp, LineAddr, LineData, Width};
use duet_sim::{Clock, LatencyBreakdown, Link, Time};
use duet_trace::{EventKind, Tracer};

/// Operations an accelerator may issue to a Memory Hub.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FpgaMemOp {
    /// Load a full 16-byte line ("the eFPGA can load up to one line per
    /// cycle", Sec. V-C).
    LoadLine,
    /// Store up to 8 bytes (the Dolly L2 "only supports stores up to
    /// 8 Bytes").
    Store(Width),
    /// Atomic read-modify-write (enabled by a feature switch; requires the
    /// soft side to understand the extra message types, Sec. II-C).
    Amo(AmoOp, Width),
}

/// A request from the fabric to a Memory Hub.
#[derive(Clone, Copy, Debug)]
pub struct FpgaMemReq {
    /// Fabric-chosen id echoed in the matching response.
    pub id: u64,
    /// Operation.
    pub op: FpgaMemOp,
    /// Byte address (virtual if the hub's TLB is enabled, else physical).
    pub addr: Addr,
    /// Store/AMO operand.
    pub wdata: u64,
    /// CAS expected value.
    pub expected: u64,
    /// When the fabric issued this request (slow-domain edge) — lets the
    /// hub attribute the request-side CDC crossing.
    pub issued_at: Time,
}

/// The payload of a hub-to-fabric response.
#[derive(Clone, Copy, Debug)]
pub enum FpgaRespKind {
    /// Line fill completing a `LoadLine`.
    LoadAck {
        /// The filled line.
        data: LineData,
    },
    /// Completion of a `Store` (the old value for AMOs rides in `old`).
    StoreAck {
        /// Previous value (AMOs only; zero otherwise).
        old: u64,
    },
    /// Invalidation forwarded from the Proxy Cache. Not a reply to any
    /// request; `id` is zero. Carries the *fabric-visible* line address
    /// (virtual when the soft cache is VIVT — the Proxy Cache reverse-maps
    /// using the stored VPN, Sec. II-D).
    Inv {
        /// Line to invalidate.
        line: LineAddr,
    },
}

/// A response (or invalidation) from a Memory Hub to the fabric. Delivered
/// in hub order via the async FIFO — the ordering guarantee the ack-free
/// proxy protocol relies on.
#[derive(Clone, Copy, Debug)]
pub struct FpgaMemResp {
    /// Echo of the request id (zero for invalidations).
    pub id: u64,
    /// Payload.
    pub kind: FpgaRespKind,
    /// Latency attribution accumulated across the whole transaction.
    pub breakdown: LatencyBreakdown,
}

/// Hub-to-fabric soft-register traffic (pushed by the Control Hub).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegDown {
    /// A value written by a processor through a shadowed register or
    /// FPGA-bound FIFO.
    ShadowWrite {
        /// Register index.
        reg: u8,
        /// Written value.
        value: u64,
    },
    /// A read of a normal (non-shadowed) soft register: the fabric must
    /// answer with [`RegUp::ReadResp`] carrying the same `txn`.
    ReadReq {
        /// Transaction id.
        txn: u64,
        /// Register index.
        reg: u8,
    },
    /// A write to a normal soft register: the fabric must acknowledge with
    /// [`RegUp::WriteAck`].
    WriteReq {
        /// Transaction id.
        txn: u64,
        /// Register index.
        reg: u8,
        /// Written value.
        value: u64,
    },
}

/// Fabric-to-hub soft-register traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegUp {
    /// Pushes a value toward the processors: feeds a CPU-bound FIFO, a
    /// plain shadow register's fast-domain copy, or a token FIFO
    /// (value-less, value ignored).
    Push {
        /// Register index.
        reg: u8,
        /// Pushed value.
        value: u64,
    },
    /// Reply to [`RegDown::ReadReq`].
    ReadResp {
        /// Transaction id being answered.
        txn: u64,
        /// Read value.
        value: u64,
    },
    /// Acknowledgement of [`RegDown::WriteReq`].
    WriteAck {
        /// Transaction id being acknowledged.
        txn: u64,
    },
}

duet_sim::pack_enum!(FpgaMemOp { 0 => LoadLine, 1 => Store(width), 2 => Amo(op, width) });
duet_sim::pack_struct!(FpgaMemReq {
    id,
    op,
    addr,
    wdata,
    expected,
    issued_at
});
duet_sim::pack_enum!(FpgaRespKind {
    0 => LoadAck { data },
    1 => StoreAck { old },
    2 => Inv { line },
});
duet_sim::pack_struct!(FpgaMemResp {
    id,
    kind,
    breakdown
});
duet_sim::pack_enum!(RegDown {
    0 => ShadowWrite { reg, value },
    1 => ReadReq { txn, reg },
    2 => WriteReq { txn, reg, value },
});
duet_sim::pack_enum!(RegUp {
    0 => Push { reg, value },
    1 => ReadResp { txn, value },
    2 => WriteAck { txn },
});

/// Fabric-side handle on one Memory Hub's request/response CDC link pair.
pub struct HubPort<'a> {
    /// Fabric → hub requests.
    pub req: &'a mut Link<FpgaMemReq>,
    /// Hub → fabric responses/invalidations.
    pub resp: &'a mut Link<FpgaMemResp>,
    /// Trace handle (events: fabric request issue / response pop). The
    /// adapter installs a live one when tracing is enabled; defaults to
    /// disabled.
    pub tracer: Tracer,
}

impl HubPort<'_> {
    /// Whether a request can be pushed right now.
    pub fn can_issue(&self, now: Time) -> bool {
        self.req.can_push(now)
    }

    /// Issues a whole-line load. Returns false if the FIFO is full.
    pub fn load_line(&mut self, now: Time, id: u64, addr: Addr) -> bool {
        self.issue(
            now,
            FpgaMemReq {
                id,
                op: FpgaMemOp::LoadLine,
                addr,
                wdata: 0,
                expected: 0,
                issued_at: now,
            },
        )
    }

    /// Issues a scalar store. Returns false if the FIFO is full.
    pub fn store(&mut self, now: Time, id: u64, addr: Addr, width: Width, value: u64) -> bool {
        self.issue(
            now,
            FpgaMemReq {
                id,
                op: FpgaMemOp::Store(width),
                addr,
                wdata: value,
                expected: 0,
                issued_at: now,
            },
        )
    }

    /// Issues an atomic. Returns false if the FIFO is full.
    #[allow(clippy::too_many_arguments)]
    pub fn amo(
        &mut self,
        now: Time,
        id: u64,
        op: AmoOp,
        addr: Addr,
        width: Width,
        value: u64,
        expected: u64,
    ) -> bool {
        self.issue(
            now,
            FpgaMemReq {
                id,
                op: FpgaMemOp::Amo(op, width),
                addr,
                wdata: value,
                expected,
                issued_at: now,
            },
        )
    }

    /// Issues a raw request. Returns false if the FIFO is full.
    pub fn issue(&mut self, now: Time, req: FpgaMemReq) -> bool {
        let (id, addr) = (req.id, req.addr);
        let ok = self.req.push(now, req).is_ok();
        if ok {
            self.tracer
                .emit(now.as_ps(), EventKind::FabricReq, id, addr);
        }
        ok
    }

    /// Pops the next visible response.
    pub fn pop_resp(&mut self, now: Time) -> Option<FpgaMemResp> {
        let r = self.resp.pop(now)?;
        let kind = match r.kind {
            FpgaRespKind::LoadAck { .. } => 0,
            FpgaRespKind::StoreAck { .. } => 1,
            FpgaRespKind::Inv { .. } => 2,
        };
        self.tracer
            .emit(now.as_ps(), EventKind::FabricResp, r.id, kind);
        Some(r)
    }
}

/// Fabric-side handle on the Control Hub's soft-register CDC link pair.
pub struct RegPort<'a> {
    /// Hub → fabric (shadow writes, normal reads/writes).
    pub down: &'a mut Link<RegDown>,
    /// Fabric → hub (pushes, read replies, write acks).
    pub up: &'a mut Link<RegUp>,
}

impl RegPort<'_> {
    /// Pops the next visible downstream event.
    pub fn pop(&mut self, now: Time) -> Option<RegDown> {
        self.down.pop(now)
    }

    /// Pushes a value toward the CPU side. Returns false if full.
    pub fn push(&mut self, now: Time, reg: u8, value: u64) -> bool {
        self.up.push(now, RegUp::Push { reg, value }).is_ok()
    }

    /// Answers a normal-register read.
    pub fn read_resp(&mut self, now: Time, txn: u64, value: u64) -> bool {
        self.up.push(now, RegUp::ReadResp { txn, value }).is_ok()
    }

    /// Acknowledges a normal-register write.
    pub fn write_ack(&mut self, now: Time, txn: u64) -> bool {
        self.up.push(now, RegUp::WriteAck { txn }).is_ok()
    }
}

/// Everything a soft accelerator can touch during one slow-clock edge.
pub struct FabricPorts<'a> {
    /// Current time (a slow-clock edge).
    pub now: Time,
    /// The eFPGA clock.
    pub clock: Clock,
    /// One port per Memory Hub available to this accelerator.
    pub hubs: Vec<HubPort<'a>>,
    /// The soft-register port.
    pub regs: RegPort<'a>,
}

/// A fabric design: a timed state machine ticked on every eFPGA clock edge.
///
/// Implementations model the RTL/HLS accelerators of Sec. V-D: they may
/// take multiple ticks per result (pipeline depth / initiation interval)
/// and interact with the system only through [`FabricPorts`].
///
/// The [`Snap`](duet_sim::Snap) supertrait carries the design's internal
/// state (FSM phase, counters, soft caches, register endpoints) through
/// system snapshots and forks: declare it with one
/// [`snap_fields!`](duet_sim::snap_fields) list — empty only for a
/// stateless design. A state field left off the list makes a restored run
/// silently diverge from the uninterrupted one.
pub trait SoftAccelerator: duet_sim::Snap {
    /// Human-readable name (used in reports).
    fn name(&self) -> &str;

    /// Advances the design by one eFPGA clock edge.
    fn tick(&mut self, ports: &mut FabricPorts<'_>);

    /// Resource summary for the fabric area/frequency model (Table II).
    fn netlist(&self) -> crate::fabric::NetlistSummary;

    /// Resets all internal state (on reconfiguration or feature-switch
    /// reset).
    fn reset(&mut self) {}

    /// Whether the design attests that, with no input visible on any of its
    /// ports, [`tick`](SoftAccelerator::tick) neither changes observable
    /// state nor produces output. The engine uses this to skip provably-dead
    /// eFPGA clock edges (event-horizon scheduling); it re-checks the ports
    /// itself, so an implementation only vouches for its *internal* state:
    /// no in-flight operation, no undelivered result, no unconsumed command.
    ///
    /// Returning `false` is always safe (every slow edge then executes, as
    /// exhaustive ticking would) — which is why it is the default. Returning
    /// `true` while internal work remains breaks cycle accuracy.
    fn is_idle(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_port_roundtrip_through_async_fifos() {
        let fast = Clock::ghz1();
        let slow = Clock::from_mhz(100.0);
        let mut req = Link::cdc(4, 2, slow, fast);
        let mut resp = Link::cdc(4, 2, fast, slow);
        let t_slow = Time::from_ps(10_000);
        {
            let mut port = HubPort {
                req: &mut req,
                resp: &mut resp,
                tracer: Tracer::disabled(),
            };
            assert!(port.load_line(t_slow, 1, 0x40));
        }
        // Hub (fast side) sees it after 2 fast edges.
        let seen = req.pop(Time::from_ps(12_000)).expect("visible to hub");
        assert_eq!(seen.id, 1);
        assert!(matches!(seen.op, FpgaMemOp::LoadLine));
        // Hub replies; fabric sees it after 2 slow edges.
        resp.push(
            Time::from_ps(15_000),
            FpgaMemResp {
                id: 1,
                kind: FpgaRespKind::LoadAck { data: [7; 16] },
                breakdown: LatencyBreakdown::new(),
            },
        )
        .unwrap();
        let mut port = HubPort {
            req: &mut req,
            resp: &mut resp,
            tracer: Tracer::disabled(),
        };
        assert!(port.pop_resp(Time::from_ps(20_000)).is_none());
        let r = port
            .pop_resp(Time::from_ps(30_000))
            .expect("after 2 slow edges");
        assert!(matches!(r.kind, FpgaRespKind::LoadAck { data } if data[0] == 7));
    }

    #[test]
    fn reg_port_push_and_ack() {
        let fast = Clock::ghz1();
        let slow = Clock::from_mhz(250.0);
        let mut down = Link::cdc(4, 2, fast, slow);
        let mut up = Link::cdc(4, 2, slow, fast);
        down.push(
            Time::from_ps(1000),
            RegDown::WriteReq {
                txn: 9,
                reg: 2,
                value: 5,
            },
        )
        .unwrap();
        let mut port = RegPort {
            down: &mut down,
            up: &mut up,
        };
        // Visible after 2 slow edges (4000, 8000).
        assert_eq!(port.pop(Time::from_ps(4000)), None);
        let ev = port.pop(Time::from_ps(8000)).unwrap();
        assert_eq!(
            ev,
            RegDown::WriteReq {
                txn: 9,
                reg: 2,
                value: 5
            }
        );
        assert!(port.write_ack(Time::from_ps(8000), 9));
        assert_eq!(
            up.pop(Time::from_ps(10_000)),
            Some(RegUp::WriteAck { txn: 9 })
        );
    }
}
