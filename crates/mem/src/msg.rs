//! Coherence protocol messages exchanged between private caches (including
//! Proxy Caches) and the distributed L3 directory shards.
//!
//! The protocol is a blocking-directory MESI in the style of the OpenPiton
//! P-Mesh / Wisconsin GEMS `MESI_Two_Level` protocols:
//!
//! * the **home** directory shard serializes transactions per line — while a
//!   transaction is in flight the line is *busy* and later requests queue;
//! * a requestor finishes a transaction by sending `Unblock`, which releases
//!   the busy state;
//! * invalidation acknowledgements flow directly from sharers to the
//!   requestor (the directory tells the requestor how many to expect);
//! * on a downgrade (`FwdGetS`) the previous owner copies the dirty line
//!   back to the home (`WBData`) in parallel with sending it to the
//!   requestor.

use duet_noc::{NodeId, VNet};
use duet_sim::LatencyBreakdown;

use crate::types::{LineAddr, LineData};

/// Ownership level granted by a data response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grant {
    /// Shared, read-only.
    S,
    /// Exclusive, clean (granted on a read miss when no other sharer exists).
    E,
    /// Modified-permission (granted on a write miss / upgrade).
    M,
}

/// A coherence protocol message. The sender's node id travels in the NoC
/// message envelope ([`duet_noc::Message::src`]).
#[derive(Clone, Debug)]
pub enum CoherenceMsg {
    // ----- VNet::Req: private cache -> home directory -----
    /// Read request (load miss).
    GetS {
        /// Target line.
        line: LineAddr,
    },
    /// Write/upgrade request (store or AMO miss).
    GetM {
        /// Target line.
        line: LineAddr,
    },
    /// Write-back of an owned (E or M) line being evicted.
    PutM {
        /// Evicted line.
        line: LineAddr,
        /// Line contents (clean copy for E evictions).
        data: LineData,
    },

    // ----- VNet::Fwd: home directory -> private cache -----
    /// Downgrade request: send the line to `requestor` (shared) and copy it
    /// back to the home.
    FwdGetS {
        /// Target line.
        line: LineAddr,
        /// Node that issued the triggering `GetS`.
        requestor: NodeId,
        /// Attribution accumulated so far in this transaction.
        breakdown: LatencyBreakdown,
    },
    /// Ownership transfer: send the line to `requestor` and invalidate.
    FwdGetM {
        /// Target line.
        line: LineAddr,
        /// Node that issued the triggering `GetM`.
        requestor: NodeId,
        /// Attribution accumulated so far in this transaction.
        breakdown: LatencyBreakdown,
    },
    /// Invalidate a shared copy; acknowledge directly to `requestor`.
    Inv {
        /// Target line.
        line: LineAddr,
        /// Node collecting the acknowledgement.
        requestor: NodeId,
    },
    /// Acknowledges a `PutM`; the write-back is complete.
    PutAck {
        /// Written-back line.
        line: LineAddr,
    },

    // ----- VNet::Resp -----
    /// Data response from the home directory.
    Data {
        /// Filled line.
        line: LineAddr,
        /// Line contents.
        data: LineData,
        /// Ownership granted.
        grant: Grant,
        /// Number of `InvAck`s the requestor must collect before the fill
        /// is complete.
        acks: u32,
        /// Attribution accumulated so far (request flight + home processing).
        breakdown: LatencyBreakdown,
    },
    /// Data response from the previous owner (via `FwdGetS`/`FwdGetM`).
    DataOwner {
        /// Filled line.
        line: LineAddr,
        /// Line contents.
        data: LineData,
        /// Ownership granted (`S` after `FwdGetS`, `M` after `FwdGetM`).
        grant: Grant,
        /// Attribution accumulated so far.
        breakdown: LatencyBreakdown,
    },
    /// Invalidation acknowledgement (sharer -> requestor).
    InvAck {
        /// Invalidated line.
        line: LineAddr,
    },
    /// Dirty copy-back from a downgraded owner to the home.
    WBData {
        /// Copied-back line.
        line: LineAddr,
        /// Line contents.
        data: LineData,
    },
    /// Transaction-complete notification (requestor -> home); releases the
    /// home's per-line busy state.
    Unblock {
        /// Completed line.
        line: LineAddr,
    },
}

impl CoherenceMsg {
    /// The line this message concerns.
    pub fn line(&self) -> LineAddr {
        match self {
            CoherenceMsg::GetS { line }
            | CoherenceMsg::GetM { line }
            | CoherenceMsg::PutM { line, .. }
            | CoherenceMsg::FwdGetS { line, .. }
            | CoherenceMsg::FwdGetM { line, .. }
            | CoherenceMsg::Inv { line, .. }
            | CoherenceMsg::PutAck { line }
            | CoherenceMsg::Data { line, .. }
            | CoherenceMsg::DataOwner { line, .. }
            | CoherenceMsg::InvAck { line }
            | CoherenceMsg::WBData { line, .. }
            | CoherenceMsg::Unblock { line } => *line,
        }
    }

    /// The virtual network this message type travels on.
    pub fn vnet(&self) -> VNet {
        match self {
            CoherenceMsg::GetS { .. } | CoherenceMsg::GetM { .. } | CoherenceMsg::PutM { .. } => {
                VNet::Req
            }
            CoherenceMsg::FwdGetS { .. }
            | CoherenceMsg::FwdGetM { .. }
            | CoherenceMsg::Inv { .. }
            | CoherenceMsg::PutAck { .. } => VNet::Fwd,
            CoherenceMsg::Data { .. }
            | CoherenceMsg::DataOwner { .. }
            | CoherenceMsg::InvAck { .. }
            | CoherenceMsg::WBData { .. }
            | CoherenceMsg::Unblock { .. } => VNet::Resp,
        }
    }

    /// Message size in 64-bit flits: one header flit plus two flits per
    /// 16-byte data payload.
    pub fn flits(&self) -> u32 {
        match self {
            CoherenceMsg::PutM { .. }
            | CoherenceMsg::Data { .. }
            | CoherenceMsg::DataOwner { .. }
            | CoherenceMsg::WBData { .. } => 3,
            _ => 1,
        }
    }
}

duet_sim::pack_enum!(Grant { 0 => S, 1 => E, 2 => M });
duet_sim::pack_enum!(CoherenceMsg {
    0 => GetS { line },
    1 => GetM { line },
    2 => PutM { line, data },
    3 => FwdGetS { line, requestor, breakdown },
    4 => FwdGetM { line, requestor, breakdown },
    5 => Inv { line, requestor },
    6 => PutAck { line },
    7 => Data { line, data, grant, acks, breakdown },
    8 => DataOwner { line, data, grant, breakdown },
    9 => InvAck { line },
    10 => WBData { line, data },
    11 => Unblock { line },
});

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> LineAddr {
        LineAddr(n)
    }

    #[test]
    fn vnet_assignment() {
        assert_eq!(CoherenceMsg::GetS { line: l(1) }.vnet(), VNet::Req);
        assert_eq!(
            CoherenceMsg::Inv {
                line: l(1),
                requestor: 0
            }
            .vnet(),
            VNet::Fwd
        );
        assert_eq!(CoherenceMsg::Unblock { line: l(1) }.vnet(), VNet::Resp);
    }

    #[test]
    fn data_messages_are_three_flits() {
        let d = CoherenceMsg::Data {
            line: l(2),
            data: [0; 16],
            grant: Grant::E,
            acks: 0,
            breakdown: LatencyBreakdown::new(),
        };
        assert_eq!(d.flits(), 3);
        assert_eq!(CoherenceMsg::GetS { line: l(2) }.flits(), 1);
        assert_eq!(
            CoherenceMsg::PutM {
                line: l(2),
                data: [0; 16]
            }
            .flits(),
            3
        );
    }

    #[test]
    fn line_extraction() {
        assert_eq!(CoherenceMsg::PutAck { line: l(9) }.line(), l(9));
        assert_eq!(CoherenceMsg::InvAck { line: l(3) }.line(), l(3));
    }
}
