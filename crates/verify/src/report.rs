//! Structured run outcomes: protocol violations, stall snapshots, and the
//! [`RunError`] returned by the system run loop in place of a panic.

use std::fmt;

use duet_noc::NodeId;

/// A runtime invariant violation detected by one of the checkers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// An exclusive (E/M) grant was delivered to a node while another node
    /// still held unrelieved write permission for the same line.
    MesiDoubleOwner {
        /// Line address.
        line: u64,
        /// Node that still held write permission.
        holder: NodeId,
        /// Node the conflicting grant was delivered to.
        granted_to: NodeId,
        /// Delivery time (picoseconds).
        at_ps: u64,
    },
    /// A shared grant was delivered while another node still held unrelieved
    /// write permission for the same line.
    MesiReaderWhileWriter {
        /// Line address.
        line: u64,
        /// Node that still held write permission.
        writer: NodeId,
        /// Node the shared grant was delivered to.
        reader: NodeId,
        /// Delivery time (picoseconds).
        at_ps: u64,
    },
    /// A structural sweep found the directory and the caches disagreeing
    /// about a line (owner not holding E/M, a holder missing from the
    /// sharers list, or two caches holding E/M at once).
    MesiDirectoryMismatch {
        /// Line address.
        line: u64,
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// Two messages on the same (source, destination, virtual network) flow
    /// were delivered out of their injection order.
    NocOrderInversion {
        /// Flow source node.
        src: NodeId,
        /// Flow destination node.
        dst: NodeId,
        /// Virtual network index.
        vnet: usize,
        /// Trace id of the previously delivered (newer) message.
        prev_id: u64,
        /// Trace id of the out-of-order (older) message.
        id: u64,
        /// Delivery time (picoseconds).
        at_ps: u64,
    },
    /// The adapter/MMIO plumbing broke an internal invariant (e.g. a
    /// response arrived for an unknown transaction id).
    AdapterInvariant {
        /// Human-readable description.
        detail: String,
        /// Detection time (picoseconds).
        at_ps: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MesiDoubleOwner {
                line,
                holder,
                granted_to,
                at_ps,
            } => write!(
                f,
                "MESI single-writer violated on line {line:#x} at {at_ps}ps: \
                 exclusive grant delivered to n{granted_to} while n{holder} still owns it"
            ),
            Violation::MesiReaderWhileWriter {
                line,
                writer,
                reader,
                at_ps,
            } => write!(
                f,
                "MESI writer exclusivity violated on line {line:#x} at {at_ps}ps: \
                 shared grant delivered to n{reader} while n{writer} still owns it"
            ),
            Violation::MesiDirectoryMismatch { line, detail } => {
                write!(f, "directory/cache mismatch on line {line:#x}: {detail}")
            }
            Violation::NocOrderInversion {
                src,
                dst,
                vnet,
                prev_id,
                id,
                at_ps,
            } => write!(
                f,
                "NoC point-to-point order violated on n{src}->n{dst} vnet{vnet} at {at_ps}ps: \
                 message #{id} delivered after #{prev_id}"
            ),
            Violation::AdapterInvariant { detail, at_ps } => {
                write!(f, "adapter invariant violated at {at_ps}ps: {detail}")
            }
        }
    }
}

/// One component's state at the moment a run failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentStall {
    /// Component name (matches the `duet-trace` track name).
    pub name: String,
    /// Whether the component reported itself active.
    pub active: bool,
    /// The component's next event time in picoseconds, if it had one.
    pub next_event_ps: Option<u64>,
    /// Total entries queued across the component's links.
    pub queued: usize,
}

/// A per-component snapshot of where work was stuck when a run failed,
/// carried inside [`RunError`] so deadlock reports name the culprits.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StallSnapshot {
    /// Simulated time of the failure (picoseconds).
    pub at_ps: u64,
    /// Components that were still active or had queued work. Quiet
    /// components are omitted to keep reports readable.
    pub components: Vec<ComponentStall>,
    /// Free-form diagnostic notes (accelerator status, pending injections,
    /// recent trace events, ...), most significant first.
    pub notes: Vec<String>,
}

impl StallSnapshot {
    /// Renders the snapshot as an indented multi-line report.
    pub fn report(&self) -> String {
        let mut out = format!("stall snapshot at {}ps:\n", self.at_ps);
        for n in &self.notes {
            out.push_str(&format!("  ! {n}\n"));
        }
        if self.components.is_empty() {
            out.push_str("  (no component reported pending work)\n");
        }
        for c in &self.components {
            let next = match c.next_event_ps {
                Some(t) => format!("next_event={t}ps"),
                None => "no next event".to_string(),
            };
            out.push_str(&format!(
                "  {:<16} {} queued={} {}\n",
                c.name,
                if c.active { "ACTIVE" } else { "idle  " },
                c.queued,
                next
            ));
        }
        out
    }
}

impl fmt::Display for StallSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.report())
    }
}

/// Why a run loop stopped without reaching its goal. Replaces the previous
/// panic-based deadline: callers decide whether to recover, report, or abort.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The deadline passed without the halt/quiesce condition being met.
    Deadlock {
        /// The deadline that expired (picoseconds).
        deadline_ps: u64,
        /// Where work was stuck.
        snapshot: StallSnapshot,
    },
    /// A runtime checker detected a protocol violation.
    ProtocolViolation {
        /// The first violation observed.
        violation: Violation,
        /// System state at detection time.
        snapshot: StallSnapshot,
    },
}

impl RunError {
    /// The stall snapshot carried by either variant.
    pub fn snapshot(&self) -> &StallSnapshot {
        match self {
            RunError::Deadlock { snapshot, .. } => snapshot,
            RunError::ProtocolViolation { snapshot, .. } => snapshot,
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Deadlock {
                deadline_ps,
                snapshot,
            } => {
                write!(
                    f,
                    "no progress toward halt before deadline {deadline_ps}ps\n{}",
                    snapshot.report()
                )
            }
            RunError::ProtocolViolation {
                violation,
                snapshot,
            } => {
                write!(f, "{violation}\n{}", snapshot.report())
            }
        }
    }
}

impl std::error::Error for RunError {}

duet_sim::pack_enum!(Violation {
    0 => MesiDoubleOwner { line, holder, granted_to, at_ps },
    1 => MesiReaderWhileWriter { line, writer, reader, at_ps },
    2 => MesiDirectoryMismatch { line, detail },
    3 => NocOrderInversion { src, dst, vnet, prev_id, id, at_ps },
    4 => AdapterInvariant { detail, at_ps },
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_report_names_active_components() {
        let err = RunError::Deadlock {
            deadline_ps: 1_000,
            snapshot: StallSnapshot {
                at_ps: 900,
                components: vec![ComponentStall {
                    name: "accel".to_string(),
                    active: true,
                    next_event_ps: Some(900),
                    queued: 2,
                }],
                notes: vec!["accelerator busy and unfenced".to_string()],
            },
        };
        let text = err.to_string();
        assert!(text.contains("deadline 1000ps"));
        assert!(text.contains("accel"));
        assert!(text.contains("ACTIVE"));
        assert!(text.contains("busy and unfenced"));
    }

    #[test]
    fn violation_display_is_specific() {
        let v = Violation::NocOrderInversion {
            src: 1,
            dst: 2,
            vnet: 0,
            prev_id: 9,
            id: 4,
            at_ps: 77,
        };
        let s = v.to_string();
        assert!(s.contains("n1->n2"));
        assert!(s.contains("#4"));
        assert!(s.contains("#9"));
    }
}
