//! The unified NoC payload of a Duet system: coherence traffic plus the
//! on-chip MMIO messages that let processors reach the Duet Adapter
//! ("The NoC ... supports additional message types besides the coherence
//! messages, enabling on-chip MMIOs required by Dolly", Sec. IV).

use duet_mem::msg::CoherenceMsg;
use duet_mem::types::{MemReq, MemResp};
use duet_noc::{NodeId, VNet};

/// Interrupt causes raised by a Duet Adapter toward a processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IrqCause {
    /// A Memory Hub TLB missed; the kernel must refill it via MMIO
    /// (Sec. II-D). Carries the faulting virtual address and whether the
    /// access was a write.
    PageFault {
        /// Faulting virtual address.
        vaddr: u64,
        /// Store/AMO access.
        is_write: bool,
        /// Index of the faulting Memory Hub within its adapter.
        hub: usize,
    },
    /// The exception handler tripped (timeout or parity); the hubs were
    /// deactivated and an error code latched (Sec. II-B).
    Exception {
        /// Latched error code.
        code: u64,
    },
}

/// Everything that travels on a Duet system's mesh.
#[derive(Clone, Debug)]
pub enum DuetMsg {
    /// Directory-MESI coherence traffic.
    Coherence(CoherenceMsg),
    /// An MMIO request from a processor tile to a device (Duet Adapter).
    MmioReq {
        /// Request (address selects the register; see
        /// [`crate::control_hub::mmio_map`]).
        req: MemReq,
        /// Node to send the response to.
        reply_to: NodeId,
    },
    /// The device's response to an MMIO request.
    MmioResp {
        /// Response (id echoes the request).
        resp: MemResp,
    },
    /// An interrupt from an adapter to a processor tile.
    Interrupt {
        /// Cause.
        cause: IrqCause,
        /// Node of the raising adapter.
        from: NodeId,
    },
}

impl DuetMsg {
    /// Virtual network assignment. MMIO requests ride the request network,
    /// responses and interrupts the response network, so they can never
    /// deadlock against coherence forward progress.
    pub fn vnet(&self) -> VNet {
        match self {
            DuetMsg::Coherence(c) => c.vnet(),
            DuetMsg::MmioReq { .. } => VNet::Req,
            DuetMsg::MmioResp { .. } | DuetMsg::Interrupt { .. } => VNet::Resp,
        }
    }

    /// Size in flits (header + payload).
    pub fn flits(&self) -> u32 {
        match self {
            DuetMsg::Coherence(c) => c.flits(),
            DuetMsg::MmioReq { .. } => 2,
            DuetMsg::MmioResp { .. } => 2,
            DuetMsg::Interrupt { .. } => 1,
        }
    }
}

duet_sim::pack_enum!(IrqCause { 0 => PageFault { vaddr, is_write, hub }, 1 => Exception { code } });
duet_sim::pack_enum!(DuetMsg {
    0 => Coherence(msg),
    1 => MmioReq { req, reply_to },
    2 => MmioResp { resp },
    3 => Interrupt { cause, from },
});

#[cfg(test)]
mod tests {
    use super::*;
    use duet_mem::types::Width;

    #[test]
    fn vnet_and_flit_assignment() {
        let req = DuetMsg::MmioReq {
            req: MemReq::load(1, 0x4000_0000, Width::B8),
            reply_to: 0,
        };
        assert_eq!(req.vnet(), VNet::Req);
        assert_eq!(req.flits(), 2);
        let irq = DuetMsg::Interrupt {
            cause: IrqCause::Exception { code: 7 },
            from: 3,
        };
        assert_eq!(irq.vnet(), VNet::Resp);
        let coh = DuetMsg::Coherence(CoherenceMsg::GetS {
            line: duet_mem::types::LineAddr(4),
        });
        assert_eq!(coh.vnet(), VNet::Req);
        assert_eq!(coh.flits(), 1);
    }
}
