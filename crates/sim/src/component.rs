//! The `Component` trait: the unit node of the simulated hardware graph.
//!
//! Every ticking structure in the system — cores, caches, directory shards,
//! the mesh, the adapter hubs — implements [`Component`]. The trait captures
//! exactly the contract the event-horizon scheduler (PR 1) relies on:
//!
//! * [`Component::tick`] advances the component by one edge of its clock
//!   domain.
//! * [`Component::next_event_time`] is a *conservative* lower bound on the
//!   next time the component can do observable work. Returning `None` means
//!   "idle until externally poked"; returning `Some(t)` with `t <= now` means
//!   "has work on this very edge". Skipping every edge strictly before the
//!   reported time must be provably unobservable.
//! * [`Component::is_active`] is the cheap boolean form of the same question,
//!   used by per-edge gating.
//!
//! Components expose their [`Link`](crate::link::Link) endpoints through
//! [`Component::visit_links`], which is how the system-level registry gathers
//! per-link occupancy and stall counters without each layer hand-exporting
//! its buffers.

use crate::link::LinkReport;
use crate::time::Time;

/// A node in the component graph: anything ticked on clock edges.
///
/// The `next_event_time` / `is_active` pair is the load-bearing contract:
/// the run loop merges every component's horizon (see
/// [`Horizon`](crate::horizon::Horizon)) to find the next edge where *any*
/// work can happen and arithmetically skips the dead edges in between. An
/// implementation that under-reports (claims idleness while work is pending)
/// breaks bit-exactness with the exhaustive baseline; over-reporting (waking
/// too early) costs only speed, never correctness.
pub trait Component {
    /// Stable, human-readable instance name (e.g. `core0`, `l2@n1`, `mesh`).
    /// Used to prefix link names in reports and to label registry entries.
    fn name(&self) -> String;

    /// Advances the component across one edge of its domain at time `now`.
    fn tick(&mut self, now: Time);

    /// Conservative earliest time at or after `now` at which this component
    /// can make observable progress, or `None` if it is idle until some other
    /// component hands it new input.
    ///
    /// The run loop only compares the merged result against the next edge
    /// it executes anyway, and stops merging at the first component at or
    /// before that edge, so any time up to the next edge means the same:
    /// "tick me on it".
    fn next_event_time(&self, now: Time) -> Option<Time>;

    /// Whether the component has work pending on the current edge. The
    /// default derives it from [`Component::next_event_time`]; implementors
    /// with a cheaper check may override it.
    fn is_active(&self, now: Time) -> bool {
        self.next_event_time(now).is_some_and(|t| t <= now)
    }

    /// Reports every [`Link`](crate::link::Link) endpoint owned by this
    /// component. `visit` receives the link's local name (the owner's field
    /// name, e.g. `noc_out`) and a counter snapshot; registries prefix it
    /// with [`Component::name`]. The default reports nothing.
    fn visit_links(&self, visit: &mut dyn FnMut(&str, LinkReport)) {
        let _ = visit;
    }
}
