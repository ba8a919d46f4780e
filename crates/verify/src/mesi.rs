//! Runtime MESI invariant checker.
//!
//! The checker is a *shadow automaton* over observed message deliveries: it
//! never reads protocol state and never mutates anything, so enabling it
//! cannot change a run's fingerprint. It tracks, per line, which node holds
//! unrelieved write permission, and flags:
//!
//! * an exclusive (E/M) grant delivered while another node's write
//!   permission has not been relieved ([`Violation::MesiDoubleOwner`]);
//! * a shared grant delivered under the same condition
//!   ([`Violation::MesiReaderWhileWriter`]).
//!
//! "Relieved" means the checker observed the event that, in this protocol,
//! necessarily precedes a conflicting grant: a `FwdGetS`/`FwdGetM`/`Inv`
//! delivered *to* the holder, or the holder's own `PutM`/`WBData` delivered
//! at the home. Because the blocking directory serializes transactions per
//! line and forwarded data (`DataOwner`) is only sent after the old owner
//! processed its forward, a correct run never trips either check — including
//! with stale sharer supersets from silent S evictions, which the checker
//! deliberately does not model as readers-block-writers.

use duet_mem::{CoherenceMsg, Grant};
use duet_noc::NodeId;
use duet_sim::{LineMap, Time};

use crate::report::Violation;

#[derive(Clone, Debug, Default)]
struct ShadowLine {
    /// Node holding unrelieved write permission, if any.
    writer: Option<NodeId>,
    /// Bitmask of nodes granted shared copies since the last full clear
    /// (diagnostic only — silent evictions make it a superset).
    readers: u64,
}

/// Observes coherence message deliveries and checks writer exclusivity.
#[derive(Clone, Debug, Default)]
pub struct MesiChecker {
    /// Keyed by line index; serialized in ascending key order, which is
    /// what the `BTreeMap` this replaced wrote.
    lines: LineMap<ShadowLine>,
    checked: u64,
    violations: u64,
    first: Option<Violation>,
}

impl MesiChecker {
    /// A fresh checker with no history.
    pub fn new() -> Self {
        MesiChecker::default()
    }

    /// Number of deliveries observed.
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// Number of violations detected (only the first is retained).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The first violation detected, if any.
    pub fn first_violation(&self) -> Option<&Violation> {
        self.first.as_ref()
    }

    /// Observes one coherence message being *delivered* to `dst` (for
    /// directory-bound messages `dst` is the home shard's node). `src` is
    /// the sending node from the NoC envelope. Returns the violation this
    /// delivery caused, if any (also recorded internally).
    pub fn on_delivery(
        &mut self,
        now: Time,
        src: NodeId,
        dst: NodeId,
        msg: &CoherenceMsg,
    ) -> Option<Violation> {
        self.checked += 1;
        let line = msg.line().0;
        // Only a grant starts a record; relieving a line nobody holds
        // changes nothing.
        let entry = match msg {
            CoherenceMsg::Data { .. } | CoherenceMsg::DataOwner { .. } => {
                self.lines.get_or_default(line)
            }
            _ => self.lines.get_mut(line)?,
        };
        let mut violation = None;
        match msg {
            CoherenceMsg::Data { grant, .. } | CoherenceMsg::DataOwner { grant, .. } => match grant
            {
                Grant::S => {
                    if let Some(w) = entry.writer {
                        if w != dst {
                            violation = Some(Violation::MesiReaderWhileWriter {
                                line,
                                writer: w,
                                reader: dst,
                                at_ps: now.as_ps(),
                            });
                        }
                    }
                    entry.readers |= reader_bit(dst);
                }
                Grant::E | Grant::M => {
                    if let Some(w) = entry.writer {
                        if w != dst {
                            violation = Some(Violation::MesiDoubleOwner {
                                line,
                                holder: w,
                                granted_to: dst,
                                at_ps: now.as_ps(),
                            });
                        }
                    }
                    entry.writer = Some(dst);
                    entry.readers &= !reader_bit(dst);
                }
            },
            // Relief events: the holder has been told to give the line up,
            // or its write-back reached the home.
            CoherenceMsg::FwdGetS { .. } => {
                if entry.writer == Some(dst) {
                    entry.writer = None;
                    // Downgrade: the old owner keeps a shared copy.
                    entry.readers |= reader_bit(dst);
                }
            }
            CoherenceMsg::FwdGetM { .. } => {
                if entry.writer == Some(dst) {
                    entry.writer = None;
                }
                entry.readers &= !reader_bit(dst);
            }
            CoherenceMsg::Inv { .. } => {
                entry.readers &= !reader_bit(dst);
                if entry.writer == Some(dst) {
                    entry.writer = None;
                }
            }
            CoherenceMsg::PutM { .. } | CoherenceMsg::WBData { .. } => {
                if entry.writer == Some(src) {
                    entry.writer = None;
                }
            }
            CoherenceMsg::GetS { .. }
            | CoherenceMsg::GetM { .. }
            | CoherenceMsg::PutAck { .. }
            | CoherenceMsg::InvAck { .. }
            | CoherenceMsg::Unblock { .. } => {}
        }
        if entry.writer.is_none() && entry.readers == 0 {
            self.lines.remove(line);
        }
        if let Some(v) = &violation {
            self.violations += 1;
            if self.first.is_none() {
                self.first = Some(v.clone());
            }
        }
        violation
    }
}

duet_sim::pack_struct!(ShadowLine { writer, readers });
duet_sim::snap_fields!(MesiChecker {
    lines,
    checked,
    violations,
    first
});

/// Nodes above 63 fall out of the diagnostic reader mask; writer tracking
/// (the checked invariant) is exact for any node count.
fn reader_bit(node: NodeId) -> u64 {
    if node < 64 {
        1u64 << node
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use duet_mem::LineAddr;
    use duet_sim::LatencyBreakdown;

    use super::*;

    fn data(line: u64, grant: Grant) -> CoherenceMsg {
        CoherenceMsg::Data {
            line: LineAddr(line),
            data: [0; 16],
            grant,
            acks: 0,
            breakdown: LatencyBreakdown::new(),
        }
    }

    fn data_owner(line: u64, grant: Grant) -> CoherenceMsg {
        CoherenceMsg::DataOwner {
            line: LineAddr(line),
            data: [0; 16],
            grant,
            breakdown: LatencyBreakdown::new(),
        }
    }

    fn fwd_getm(line: u64, requestor: NodeId) -> CoherenceMsg {
        CoherenceMsg::FwdGetM {
            line: LineAddr(line),
            requestor,
            breakdown: LatencyBreakdown::new(),
        }
    }

    fn fwd_gets(line: u64, requestor: NodeId) -> CoherenceMsg {
        CoherenceMsg::FwdGetS {
            line: LineAddr(line),
            requestor,
            breakdown: LatencyBreakdown::new(),
        }
    }

    const HOME: NodeId = 9;

    #[test]
    fn clean_ownership_transfer_passes() {
        let mut c = MesiChecker::new();
        let t = Time::from_ns(1);
        // A gets M, is relieved by a forward, B gets the line from A.
        c.on_delivery(t, HOME, 1, &data(0x40, Grant::M));
        c.on_delivery(t, HOME, 1, &fwd_getm(0x40, 2));
        c.on_delivery(t, 1, 2, &data_owner(0x40, Grant::M));
        assert_eq!(c.violations(), 0);
        assert_eq!(c.checked(), 3);
    }

    #[test]
    fn downgrade_then_shared_grant_passes() {
        let mut c = MesiChecker::new();
        let t = Time::from_ns(1);
        c.on_delivery(t, HOME, 1, &data(0x80, Grant::E));
        c.on_delivery(t, HOME, 1, &fwd_gets(0x80, 2));
        c.on_delivery(t, 1, 2, &data_owner(0x80, Grant::S));
        assert_eq!(c.violations(), 0);
    }

    #[test]
    fn writeback_relieves_the_owner() {
        let mut c = MesiChecker::new();
        let t = Time::from_ns(1);
        c.on_delivery(t, HOME, 1, &data(0xc0, Grant::M));
        c.on_delivery(
            t,
            1,
            HOME,
            &CoherenceMsg::PutM {
                line: LineAddr(0xc0),
                data: [0; 16],
            },
        );
        c.on_delivery(t, HOME, 2, &data(0xc0, Grant::M));
        assert_eq!(c.violations(), 0);
    }

    #[test]
    fn double_exclusive_grant_is_flagged() {
        let mut c = MesiChecker::new();
        let t = Time::from_ns(2);
        c.on_delivery(t, HOME, 1, &data(0x40, Grant::M));
        c.on_delivery(t, HOME, 2, &data(0x40, Grant::M));
        assert_eq!(c.violations(), 1);
        match c.first_violation() {
            Some(Violation::MesiDoubleOwner {
                holder, granted_to, ..
            }) => {
                assert_eq!(*holder, 1);
                assert_eq!(*granted_to, 2);
            }
            other => panic!("unexpected violation: {other:?}"),
        }
    }

    #[test]
    fn shared_grant_under_live_writer_is_flagged() {
        let mut c = MesiChecker::new();
        let t = Time::from_ns(2);
        c.on_delivery(t, HOME, 1, &data(0x40, Grant::E));
        c.on_delivery(t, HOME, 3, &data(0x40, Grant::S));
        assert_eq!(c.violations(), 1);
        assert!(matches!(
            c.first_violation(),
            Some(Violation::MesiReaderWhileWriter {
                writer: 1,
                reader: 3,
                ..
            })
        ));
    }

    #[test]
    fn only_first_violation_is_retained_but_all_are_counted() {
        let mut c = MesiChecker::new();
        let t = Time::from_ns(3);
        c.on_delivery(t, HOME, 1, &data(0x40, Grant::M));
        c.on_delivery(t, HOME, 2, &data(0x40, Grant::M));
        c.on_delivery(t, HOME, 3, &data(0x40, Grant::M));
        assert_eq!(c.violations(), 2);
        assert!(matches!(
            c.first_violation(),
            Some(Violation::MesiDoubleOwner { granted_to: 2, .. })
        ));
    }

    #[test]
    fn stale_sharers_do_not_block_a_new_writer() {
        let mut c = MesiChecker::new();
        let t = Time::from_ns(4);
        // Two sharers; one silently evicts (no message). A write grant with
        // invalidations still in flight must not be a false positive.
        c.on_delivery(t, HOME, 1, &data(0x40, Grant::S));
        c.on_delivery(t, HOME, 2, &data(0x40, Grant::S));
        c.on_delivery(t, HOME, 3, &data(0x40, Grant::M));
        c.on_delivery(
            t,
            HOME,
            1,
            &CoherenceMsg::Inv {
                line: LineAddr(0x40),
                requestor: 3,
            },
        );
        assert_eq!(c.violations(), 0);
    }
}
