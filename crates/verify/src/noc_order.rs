//! NoC point-to-point ordering checker.
//!
//! The mesh guarantees that two messages injected at the same source toward
//! the same destination on the same virtual network are delivered in
//! injection order (XY routing over FIFO channels). Directory protocols
//! lean on this guarantee implicitly, so a fault that breaks it — a
//! reordering link, a retransmit bug — must be caught even when the
//! protocol happens to survive. The checker keys on the monotone per-mesh
//! `trace_id` stamped at injection: per `(src, dst, vnet)` flow, delivered
//! ids must be strictly increasing (gaps are fine — drops and filtering are
//! not ordering violations).

use duet_noc::NodeId;
use duet_sim::{snap_fields, LineMap, Time};

use crate::report::Violation;

/// Observes message ejections and checks per-flow delivery order.
#[derive(Clone, Debug, Default)]
pub struct NocOrderChecker {
    /// Last delivered id per flow, keyed by [`flow_key`].
    last: LineMap<u64>,
    checked: u64,
    violations: u64,
    first: Option<Violation>,
}

impl NocOrderChecker {
    /// A fresh checker with no history.
    pub fn new() -> Self {
        NocOrderChecker::default()
    }

    /// Number of ejections observed.
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// Number of inversions detected (only the first is retained).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The first inversion detected, if any.
    pub fn first_violation(&self) -> Option<&Violation> {
        self.first.as_ref()
    }

    /// Observes one message being ejected (delivered) at `dst`. `trace_id`
    /// is the mesh-assigned injection sequence number. Returns the
    /// inversion this ejection caused, if any (also recorded internally).
    pub fn on_eject(
        &mut self,
        now: Time,
        src: NodeId,
        dst: NodeId,
        vnet: usize,
        trace_id: u64,
    ) -> Option<Violation> {
        self.checked += 1;
        let key = flow_key(src, dst, vnet);
        match self.last.get_mut(key) {
            Some(prev) if *prev >= trace_id => {
                self.violations += 1;
                let v = Violation::NocOrderInversion {
                    src,
                    dst,
                    vnet,
                    prev_id: *prev,
                    id: trace_id,
                    at_ps: now.as_ps(),
                };
                if self.first.is_none() {
                    self.first = Some(v.clone());
                }
                Some(v)
            }
            Some(prev) => {
                *prev = trace_id;
                None
            }
            None => {
                self.last.insert(key, trace_id);
                None
            }
        }
    }
}

/// Packs a flow into one key, `src << 40 | dst << 8 | vnet`, so that
/// ascending keys are ascending `(src, dst, vnet)` tuples.
fn flow_key(src: NodeId, dst: NodeId, vnet: usize) -> u64 {
    let (src, dst, vnet) = (src as u64, dst as u64, vnet as u64);
    debug_assert!(src < 1 << 24 && dst < 1 << 32 && vnet < 1 << 8);
    src << 40 | dst << 8 | vnet
}

snap_fields!(NocOrderChecker {
    last,
    checked,
    violations,
    first
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_flows_pass_even_with_gaps() {
        let mut c = NocOrderChecker::new();
        let t = Time::from_ns(1);
        c.on_eject(t, 0, 1, 0, 10);
        c.on_eject(t, 0, 1, 0, 12); // gap: a drop, not an inversion
        c.on_eject(t, 0, 1, 1, 11); // different vnet: independent flow
        c.on_eject(t, 1, 0, 0, 5); // different direction: independent flow
        assert_eq!(c.violations(), 0);
        assert_eq!(c.checked(), 4);
    }

    #[test]
    fn inversion_on_one_flow_is_flagged() {
        let mut c = NocOrderChecker::new();
        let t = Time::from_ns(2);
        c.on_eject(t, 3, 4, 2, 100);
        c.on_eject(t, 3, 4, 2, 90);
        assert_eq!(c.violations(), 1);
        match c.first_violation() {
            Some(Violation::NocOrderInversion {
                src,
                dst,
                prev_id,
                id,
                ..
            }) => {
                assert_eq!((*src, *dst), (3, 4));
                assert_eq!(*prev_id, 100);
                assert_eq!(*id, 90);
            }
            other => panic!("unexpected violation: {other:?}"),
        }
    }

    #[test]
    fn duplicate_delivery_counts_as_inversion() {
        let mut c = NocOrderChecker::new();
        let t = Time::from_ns(3);
        c.on_eject(t, 0, 2, 0, 7);
        c.on_eject(t, 0, 2, 0, 7);
        assert_eq!(c.violations(), 1);
    }
}
