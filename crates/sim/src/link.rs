//! Typed, instrumented links: the edges of the component graph.
//!
//! A [`Link`] subsumes the three ad-hoc edge kinds the system grew
//! organically:
//!
//! * **Sync** — a same-domain [`Fifo`] with next-cycle visibility (mesh
//!   router input buffers, paper Sec. IV's NoC ports).
//! * **Cdc** — an [`AsyncFifo`] clock-domain crossing with Gray-coded
//!   synchronizer cost (adapter fabric FIFOs, the FPSoC `SlowHubCdc` pair;
//!   paper Sec. IV-B).
//! * **Pipe** — an unbounded staging queue whose entries each carry an
//!   explicit ready time (cache/directory output queues whose per-message
//!   delay varies, and the mesh `inject_pending` backpressure buffers).
//!
//! Every link counts successful pushes/pops, rejected pushes (backpressure
//! stalls), peak occupancy, and a log₂ occupancy histogram — free
//! observability for Fig. 9-style attribution.
//!
//! # Determinism note
//!
//! [`LinkStats::pushes`], [`LinkStats::pops`], [`LinkStats::peak_occupancy`]
//! and the histogram are driven only by *successful* data movement, which is
//! bit-identical between event-horizon scheduling and the exhaustive
//! baseline; determinism fingerprints may include them.
//! [`LinkStats::rejected_pushes`] counts *attempts*, which gated components
//! never make — it is observability-only and must stay out of fingerprints.

use std::collections::VecDeque;

use crate::clock::Clock;
use crate::fifo::{AsyncFifo, Fifo, PushError};
use crate::time::Time;

/// Number of log₂ buckets in the occupancy histogram: bucket *k* counts
/// pushes that left the link with an occupancy in `[2^k, 2^(k+1))`, with the
/// last bucket absorbing everything larger.
pub const OCCUPANCY_BUCKETS: usize = 8;

/// Monotonic traffic counters for one [`Link`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Successful pushes over the link's lifetime.
    pub pushes: u64,
    /// Successful pops.
    pub pops: u64,
    /// Pushes refused because the link was full (backpressure stalls).
    /// Observability-only: see the module-level determinism note.
    pub rejected_pushes: u64,
    /// Highest occupancy ever observed immediately after a push.
    pub peak_occupancy: usize,
    /// Log₂ histogram of occupancy sampled after each successful push.
    pub occupancy_hist: [u64; OCCUPANCY_BUCKETS],
}

impl LinkStats {
    /// Counts one successful push that left the queue holding
    /// `occupancy_after` entries. [`Link`] calls this itself; it is public
    /// for queues stored outside a `Link` (the mesh's flat router rings)
    /// that must keep identical counters.
    pub fn record_push(&mut self, occupancy_after: usize) {
        self.pushes += 1;
        self.peak_occupancy = self.peak_occupancy.max(occupancy_after);
        let bucket = if occupancy_after <= 1 {
            0
        } else {
            ((usize::BITS - 1 - occupancy_after.leading_zeros()) as usize)
                .min(OCCUPANCY_BUCKETS - 1)
        };
        self.occupancy_hist[bucket] += 1;
    }
}

/// Point-in-time snapshot of a link, as gathered by
/// [`Component::visit_links`](crate::component::Component::visit_links).
#[derive(Clone, Debug)]
pub struct LinkReport {
    /// Transport kind: `"sync"`, `"cdc"`, or `"pipe"`.
    pub kind: &'static str,
    /// Bounded capacity, or `None` for unbounded pipes.
    pub capacity: Option<usize>,
    /// Entries currently buffered (visible or in flight).
    pub occupancy: usize,
    /// Lifetime counters.
    pub stats: LinkStats,
}

#[derive(Clone, Debug)]
struct PipeSlot<T> {
    ready_at: Time,
    item: T,
}

#[derive(Clone, Debug)]
enum Transport<T> {
    Sync(Fifo<T>),
    Cdc(AsyncFifo<T>),
    Pipe(VecDeque<PipeSlot<T>>),
}

/// A typed, instrumented point-to-point edge of the component graph.
///
/// All timing behaviour delegates to the proven [`Fifo`]/[`AsyncFifo`]
/// models (or, for pipes, to an explicit per-entry ready time); `Link` adds
/// only a uniform API and traffic counters on top, so converting a raw queue
/// to a link is behaviour-preserving by construction.
#[derive(Clone, Debug)]
pub struct Link<T> {
    transport: Transport<T>,
    stats: LinkStats,
    /// Fault-injection hook: a frozen link refuses pushes and hides its
    /// contents from the consumer (entries are preserved and reappear on
    /// thaw). See `duet-verify`'s `FaultKind::CdcFreeze`.
    frozen: bool,
}

impl<T> Link<T> {
    /// A same-domain synchronous link: `capacity` entries, each visible
    /// `latency` after its push (one clock period for next-cycle FIFOs).
    pub fn sync(capacity: usize, latency: Time) -> Self {
        Link {
            transport: Transport::Sync(Fifo::new(capacity, latency)),
            stats: LinkStats::default(),
            frozen: false,
        }
    }

    /// A clock-domain-crossing link over a Gray-coded `sync_stages`-deep
    /// synchronizer (see [`AsyncFifo`]).
    pub fn cdc(capacity: usize, sync_stages: u32, producer: Clock, consumer: Clock) -> Self {
        Link {
            transport: Transport::Cdc(AsyncFifo::new(capacity, sync_stages, producer, consumer)),
            stats: LinkStats::default(),
            frozen: false,
        }
    }

    /// An unbounded staging link whose entries carry explicit ready times
    /// (use [`Link::push_at`]); a plain [`Link::push`] is visible at once.
    pub fn pipe() -> Self {
        Link {
            transport: Transport::Pipe(VecDeque::new()),
            stats: LinkStats::default(),
            frozen: false,
        }
    }

    /// Entries currently buffered, visible to the consumer or not.
    pub fn len(&self) -> usize {
        match &self.transport {
            Transport::Sync(f) => f.len(),
            Transport::Cdc(f) => f.len(),
            Transport::Pipe(q) => q.len(),
        }
    }

    /// Whether the link buffers no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bounded capacity, or `None` for unbounded pipes.
    pub fn capacity(&self) -> Option<usize> {
        match &self.transport {
            Transport::Sync(f) => Some(f.capacity()),
            Transport::Cdc(f) => Some(f.capacity()),
            Transport::Pipe(_) => None,
        }
    }

    /// Whether a push at `now` would succeed. Pure: never counts a stall —
    /// only a failed [`Link::push`] does (see the determinism note).
    pub fn can_push(&self, now: Time) -> bool {
        if self.frozen {
            return false;
        }
        match &self.transport {
            Transport::Sync(f) => f.can_push(),
            Transport::Cdc(f) => f.can_push(now),
            Transport::Pipe(_) => true,
        }
    }

    /// Pushes `item` at time `now`; visibility follows the transport's
    /// timing model (pipes: visible immediately).
    ///
    /// # Errors
    ///
    /// Returns [`PushError`] — and counts a rejected push — if the link is
    /// full.
    pub fn push(&mut self, now: Time, item: T) -> Result<(), PushError> {
        if self.frozen {
            self.stats.rejected_pushes += 1;
            return Err(PushError);
        }
        let res = match &mut self.transport {
            Transport::Sync(f) => f.push(now, item),
            Transport::Cdc(f) => f.push(now, item),
            Transport::Pipe(q) => {
                q.push_back(PipeSlot {
                    ready_at: now,
                    item,
                });
                Ok(())
            }
        };
        match res {
            Ok(()) => self.stats.record_push(self.len()),
            Err(PushError) => self.stats.rejected_pushes += 1,
        }
        res
    }

    /// Pushes an entry that becomes visible at exactly `ready_at` (pipes
    /// only; clocked transports derive visibility from their own timing).
    /// Order is strictly FIFO: an entry with an early ready time queued
    /// behind a later one waits for the head (head-of-line blocking, as in
    /// the hardware queues this models).
    ///
    /// # Panics
    ///
    /// Panics on a sync or CDC link — an explicit ready time would bypass
    /// the transport's timing model.
    pub fn push_at(&mut self, ready_at: Time, item: T) {
        match &mut self.transport {
            Transport::Pipe(q) => {
                q.push_back(PipeSlot { ready_at, item });
                self.stats.record_push(self.len());
            }
            _ => panic!("push_at is only valid on pipe links"),
        }
    }

    /// Peeks at the front entry if it is visible at `now`.
    pub fn front(&self, now: Time) -> Option<&T> {
        if self.frozen {
            return None;
        }
        match &self.transport {
            Transport::Sync(f) => f.front(now),
            Transport::Cdc(f) => f.front(now),
            Transport::Pipe(q) => q.front().filter(|s| s.ready_at <= now).map(|s| &s.item),
        }
    }

    /// Pops the front entry if it is visible at `now`.
    pub fn pop(&mut self, now: Time) -> Option<T> {
        if self.frozen {
            return None;
        }
        let popped = match &mut self.transport {
            Transport::Sync(f) => f.pop(now),
            Transport::Cdc(f) => f.pop(now),
            Transport::Pipe(q) => {
                if q.front().is_some_and(|s| s.ready_at <= now) {
                    q.pop_front().map(|s| s.item)
                } else {
                    None
                }
            }
        };
        if popped.is_some() {
            self.stats.pops += 1;
        }
        popped
    }

    /// Time at which the front entry becomes consumer-visible, if any entry
    /// is buffered. The event-horizon scheduler merges this across links.
    pub fn front_ready_at(&self) -> Option<Time> {
        if self.frozen {
            return None;
        }
        match &self.transport {
            Transport::Sync(f) => f.front_ready_at(),
            Transport::Cdc(f) => f.front_ready_at(),
            Transport::Pipe(q) => q.front().map(|s| s.ready_at),
        }
    }

    /// Drains every entry regardless of visibility (reset/flush). Lifetime
    /// counters are preserved.
    pub fn clear(&mut self) {
        match &mut self.transport {
            Transport::Sync(f) => f.clear(),
            Transport::Cdc(f) => f.clear(),
            Transport::Pipe(q) => q.clear(),
        }
    }

    /// Iterates over all buffered items front-to-back, ignoring visibility.
    pub fn iter(&self) -> Box<dyn Iterator<Item = &T> + '_> {
        match &self.transport {
            Transport::Sync(f) => Box::new(f.iter()),
            Transport::Cdc(f) => Box::new(f.iter()),
            Transport::Pipe(q) => Box::new(q.iter().map(|s| &s.item)),
        }
    }

    /// Freezes or thaws the link (fault injection). While frozen the link
    /// rejects pushes, hides its contents from the consumer, and reports no
    /// front-ready time; buffered entries are preserved and become visible
    /// again — with their original timing — once thawed. Callers that freeze
    /// links are responsible for scheduling a wake-up at thaw time (the
    /// system run loop merges fault-window boundaries into its horizon).
    pub fn set_frozen(&mut self, frozen: bool) {
        self.frozen = frozen;
    }

    /// Whether the link is currently frozen by fault injection.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Lifetime traffic counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Snapshot for registries and experiment harnesses.
    pub fn report(&self) -> LinkReport {
        LinkReport {
            kind: match &self.transport {
                Transport::Sync(_) => "sync",
                Transport::Cdc(_) => "cdc",
                Transport::Pipe(_) => "pipe",
            },
            capacity: self.capacity(),
            occupancy: self.len(),
            stats: self.stats,
        }
    }

    /// Occupancy as seen by the producer at `now` (CDC links count
    /// freed-but-unsynchronized slots; others equal [`Link::len`]).
    pub fn producer_occupancy(&self, now: Time) -> usize {
        match &self.transport {
            Transport::Cdc(f) => f.producer_occupancy(now),
            _ => self.len(),
        }
    }

    /// Reconfigures the consumer clock of a CDC link (programmable eFPGA
    /// clock changes). In-flight entries keep their visibility times.
    ///
    /// # Panics
    ///
    /// Panics if the link is not a CDC link.
    pub fn set_consumer_clock(&mut self, clock: Clock) {
        match &mut self.transport {
            Transport::Cdc(f) => f.set_consumer_clock(clock),
            _ => panic!("set_consumer_clock is only valid on cdc links"),
        }
    }

    /// Reconfigures the producer clock of a CDC link.
    ///
    /// # Panics
    ///
    /// Panics if the link is not a CDC link.
    pub fn set_producer_clock(&mut self, clock: Clock) {
        match &mut self.transport {
            Transport::Cdc(f) => f.set_producer_clock(clock),
            _ => panic!("set_producer_clock is only valid on cdc links"),
        }
    }

    /// The consumer-domain clock of a CDC link.
    ///
    /// # Panics
    ///
    /// Panics if the link is not a CDC link.
    pub fn consumer_clock(&self) -> Clock {
        match &self.transport {
            Transport::Cdc(f) => f.consumer_clock(),
            _ => panic!("consumer_clock is only valid on cdc links"),
        }
    }
}

crate::pack_struct!(LinkStats {
    pushes,
    pops,
    rejected_pushes,
    peak_occupancy,
    occupancy_hist
});
crate::pack_struct!(PipeSlot<T> { ready_at, item });
crate::snap_fields!(Link<T> { transport, stats, frozen });

/// Hand-written: the transport kind is wiring, not state — the tag is
/// cross-checked and the body loaded into the already-built variant.
impl<T: crate::snapshot::Pack> crate::snapshot::Snap for Transport<T> {
    fn save(&self, w: &mut crate::snapshot::SnapWriter) {
        let (kind, body): (u8, &dyn crate::snapshot::Snap) = match self {
            Transport::Sync(f) => (0, f),
            Transport::Cdc(f) => (1, f),
            Transport::Pipe(q) => (2, q),
        };
        w.u8(kind);
        body.save(w);
    }
    fn load(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        match (r.u8()?, self) {
            (0, Transport::Sync(f)) => f.load(r),
            (1, Transport::Cdc(f)) => f.load(r),
            (2, Transport::Pipe(q)) => q.load(r),
            _ => Err(crate::snapshot::SnapError::Corrupt(
                "link transport kind mismatch",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: u64) -> Time {
        Time::from_ps(v)
    }

    #[test]
    fn sync_link_matches_fifo_timing() {
        let mut l = Link::sync(2, ps(1000));
        l.push(ps(1000), 7u32).unwrap();
        assert!(l.front(ps(1000)).is_none(), "next-cycle visibility");
        assert_eq!(l.pop(ps(2000)), Some(7));
        assert_eq!(l.stats().pushes, 1);
        assert_eq!(l.stats().pops, 1);
    }

    #[test]
    fn sync_link_counts_rejected_pushes() {
        let mut l = Link::sync(1, ps(0));
        l.push(ps(0), 1u8).unwrap();
        assert!(l.push(ps(0), 2u8).is_err());
        assert_eq!(l.stats().rejected_pushes, 1);
        assert_eq!(l.stats().pushes, 1);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn cdc_link_matches_async_fifo_timing() {
        let fast = Clock::ghz1();
        let slow = Clock::from_mhz(100.0);
        let mut l = Link::cdc(8, 2, fast, slow);
        l.push(ps(1000), 9u64).unwrap();
        assert_eq!(l.pop(ps(19_999)), None);
        assert_eq!(l.pop(ps(20_000)), Some(9));
    }

    #[test]
    fn pipe_link_respects_explicit_ready_times() {
        let mut l = Link::pipe();
        l.push_at(ps(5000), 'a');
        l.push_at(ps(7000), 'b');
        assert_eq!(l.front_ready_at(), Some(ps(5000)));
        assert!(l.pop(ps(4999)).is_none());
        assert_eq!(l.pop(ps(5000)), Some('a'));
        assert!(l.pop(ps(5000)).is_none());
        assert_eq!(l.pop(ps(7000)), Some('b'));
        assert!(l.capacity().is_none());
        assert!(l.can_push(ps(0)));
    }

    #[test]
    fn pipe_plain_push_is_immediately_visible() {
        let mut l = Link::pipe();
        l.push(ps(3000), 1u8).unwrap();
        assert_eq!(l.front(ps(3000)), Some(&1));
    }

    #[test]
    fn occupancy_histogram_and_peak() {
        let mut l = Link::pipe();
        for i in 0..5u32 {
            l.push_at(ps(0), i);
        }
        let s = l.stats();
        assert_eq!(s.peak_occupancy, 5);
        // Occupancies after each push: 1, 2, 3, 4, 5 -> buckets 0,1,1,2,2.
        assert_eq!(s.occupancy_hist[0], 1);
        assert_eq!(s.occupancy_hist[1], 2);
        assert_eq!(s.occupancy_hist[2], 2);
    }

    #[test]
    fn frozen_link_rejects_and_hides_then_recovers() {
        let mut l = Link::sync(4, ps(0));
        l.push(ps(0), 1u8).unwrap();
        l.set_frozen(true);
        assert!(l.is_frozen());
        assert!(!l.can_push(ps(1000)));
        assert!(l.push(ps(1000), 2u8).is_err());
        assert_eq!(l.stats().rejected_pushes, 1);
        assert!(l.front(ps(1000)).is_none());
        assert!(l.pop(ps(1000)).is_none());
        assert!(l.front_ready_at().is_none());
        assert_eq!(l.len(), 1, "contents preserved while frozen");
        l.set_frozen(false);
        assert_eq!(l.pop(ps(1000)), Some(1), "entry reappears after thaw");
        assert!(l.can_push(ps(1000)));
    }

    #[test]
    fn clear_preserves_counters() {
        let mut l = Link::sync(4, ps(0));
        l.push(ps(0), 1u8).unwrap();
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.stats().pushes, 1);
    }
}
