//! Same-domain and dual-clock (CDC) FIFOs.

use std::collections::VecDeque;

use crate::clock::Clock;
use crate::time::Time;

/// Error returned when pushing into a full FIFO.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PushError;

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fifo is full")
    }
}

impl std::error::Error for PushError {}

#[derive(Clone, Debug)]
struct Slot<T> {
    ready_at: Time,
    item: T,
}

/// A bounded, same-clock-domain FIFO with next-cycle visibility.
///
/// An entry pushed at time *t* becomes poppable at `t + latency`. With
/// `latency` equal to one clock period this models a standard synchronous
/// FIFO: a value written on one edge is readable on the next.
///
/// # Example
///
/// ```
/// use duet_sim::{Fifo, Time};
/// let mut f = Fifo::new(2, Time::from_ps(1000));
/// let t = Time::from_ps(1000);
/// f.push(t, 7u32).unwrap();
/// assert!(f.pop(t).is_none());                     // same cycle: not visible
/// assert_eq!(f.pop(t + Time::from_ps(1000)), Some(7));
/// ```
#[derive(Clone, Debug)]
pub struct Fifo<T> {
    capacity: usize,
    latency: Time,
    slots: VecDeque<Slot<T>>,
}

impl<T> Fifo<T> {
    /// Creates a FIFO holding up to `capacity` entries, each becoming visible
    /// `latency` after its push.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, latency: Time) -> Self {
        assert!(capacity > 0, "fifo capacity must be non-zero");
        Fifo {
            capacity,
            latency,
            slots: VecDeque::with_capacity(capacity),
        }
    }

    /// Number of entries currently buffered (visible or not).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the FIFO holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether a push would currently succeed.
    pub fn can_push(&self) -> bool {
        self.slots.len() < self.capacity
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pushes `item` at time `now`.
    ///
    /// # Errors
    ///
    /// Returns [`PushError`] if the FIFO is full.
    pub fn push(&mut self, now: Time, item: T) -> Result<(), PushError> {
        if !self.can_push() {
            return Err(PushError);
        }
        self.slots.push_back(Slot {
            ready_at: now + self.latency,
            item,
        });
        Ok(())
    }

    /// Peeks at the front entry if it is visible at `now`.
    pub fn front(&self, now: Time) -> Option<&T> {
        self.slots
            .front()
            .filter(|s| s.ready_at <= now)
            .map(|s| &s.item)
    }

    /// Pops the front entry if it is visible at `now`.
    pub fn pop(&mut self, now: Time) -> Option<T> {
        if self.slots.front().is_some_and(|s| s.ready_at <= now) {
            self.slots.pop_front().map(|s| s.item)
        } else {
            None
        }
    }

    /// The time at which the front entry becomes visible to `pop`, if any
    /// entry is buffered. Used by event-horizon scheduling to bound the next
    /// time this FIFO can make progress.
    pub fn front_ready_at(&self) -> Option<Time> {
        self.slots.front().map(|s| s.ready_at)
    }

    /// Drains every entry regardless of visibility (used on reset/flush).
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Iterates over all buffered items front-to-back, ignoring visibility.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().map(|s| &s.item)
    }
}

#[derive(Clone, Copy, Debug)]
struct PopRecord {
    /// When the freed space becomes visible to the producer.
    producer_sees_at: Time,
}

/// A dual-clock FIFO modelling a Gray-coded, `sync_stages`-deep synchronizer
/// in each direction (Sec. IV of the paper: "All the asynchronous FIFOs are
/// implemented with dual-clock RAMs and Gray-coded, 2-stage synchronizers").
///
/// * An entry pushed at time *t* becomes visible to the consumer at the
///   `sync_stages`-th consumer-clock edge strictly after *t*.
/// * The space freed by a pop at time *t* becomes visible to the producer at
///   the `sync_stages`-th producer-clock edge strictly after *t*; until then
///   the slot still counts against `capacity` on the producer side.
///
/// This is the one and only source of clock-domain-crossing cost in the whole
/// simulator, making CDC overhead attributable (Fig. 9's breakdown).
#[derive(Clone, Debug)]
pub struct AsyncFifo<T> {
    capacity: usize,
    sync_stages: u32,
    producer_clock: Clock,
    consumer_clock: Clock,
    slots: VecDeque<Slot<T>>,
    pending_pops: VecDeque<PopRecord>,
}

impl<T> AsyncFifo<T> {
    /// Creates an async FIFO with the given `capacity` and synchronizer depth.
    ///
    /// `producer_clock` is the domain of the pushing side, `consumer_clock`
    /// of the popping side.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `sync_stages` is zero.
    pub fn new(
        capacity: usize,
        sync_stages: u32,
        producer_clock: Clock,
        consumer_clock: Clock,
    ) -> Self {
        assert!(capacity > 0, "async fifo capacity must be non-zero");
        assert!(sync_stages > 0, "synchronizer must have at least one stage");
        AsyncFifo {
            capacity,
            sync_stages,
            producer_clock,
            consumer_clock,
            slots: VecDeque::with_capacity(capacity),
            pending_pops: VecDeque::new(),
        }
    }

    /// Reconfigures the consumer clock (used when the programmable clock
    /// generator in the Control Hub changes the eFPGA frequency). Entries
    /// already in flight keep their original visibility times.
    pub fn set_consumer_clock(&mut self, clock: Clock) {
        self.consumer_clock = clock;
    }

    /// Reconfigures the producer clock.
    pub fn set_producer_clock(&mut self, clock: Clock) {
        self.producer_clock = clock;
    }

    /// The consumer-domain clock.
    pub fn consumer_clock(&self) -> Clock {
        self.consumer_clock
    }

    /// The producer-domain clock.
    pub fn producer_clock(&self) -> Clock {
        self.producer_clock
    }

    /// Entries buffered (whether or not visible to the consumer).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether no entries are buffered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Occupancy as seen by the producer at `now`: current entries plus
    /// freed-but-not-yet-synchronized slots.
    pub fn producer_occupancy(&self, now: Time) -> usize {
        let unseen_frees = self
            .pending_pops
            .iter()
            .filter(|p| p.producer_sees_at > now)
            .count();
        self.slots.len() + unseen_frees
    }

    /// Whether the producer can push at `now`.
    pub fn can_push(&self, now: Time) -> bool {
        self.producer_occupancy(now) < self.capacity
    }

    /// Pushes `item` at producer time `now`.
    ///
    /// # Errors
    ///
    /// Returns [`PushError`] if the FIFO appears full to the producer.
    pub fn push(&mut self, now: Time, item: T) -> Result<(), PushError> {
        if !self.can_push(now) {
            return Err(PushError);
        }
        let ready_at = self.consumer_clock.nth_edge_after(now, self.sync_stages);
        self.slots.push_back(Slot { ready_at, item });
        Ok(())
    }

    /// Peeks at the front entry if visible to the consumer at `now`.
    pub fn front(&self, now: Time) -> Option<&T> {
        self.slots
            .front()
            .filter(|s| s.ready_at <= now)
            .map(|s| &s.item)
    }

    /// Time at which the front entry becomes consumer-visible, if any entry
    /// is buffered.
    pub fn front_ready_at(&self) -> Option<Time> {
        self.slots.front().map(|s| s.ready_at)
    }

    /// Pops the front entry if visible to the consumer at `now`.
    pub fn pop(&mut self, now: Time) -> Option<T> {
        if self.slots.front().is_some_and(|s| s.ready_at <= now) {
            // Garbage-collect pop records the producer has already seen.
            while self
                .pending_pops
                .front()
                .is_some_and(|p| p.producer_sees_at <= now)
            {
                self.pending_pops.pop_front();
            }
            self.pending_pops.push_back(PopRecord {
                producer_sees_at: self.producer_clock.nth_edge_after(now, self.sync_stages),
            });
            self.slots.pop_front().map(|s| s.item)
        } else {
            None
        }
    }

    /// Drains all entries regardless of visibility (reset/flush).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.pending_pops.clear();
    }

    /// Iterates over all buffered items front-to-back, ignoring visibility.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().map(|s| &s.item)
    }
}

crate::pack_struct!(Slot<T> { ready_at, item });
crate::pack_struct!(PopRecord { producer_sees_at });
crate::snap_fields!(Fifo<T> { const capacity, latency, slots });
// Clocks are mutable state: the Control Hub can reprogram the eFPGA clock
// mid-run.
crate::snap_fields!(AsyncFifo<T> {
    const capacity, const sync_stages, producer_clock, consumer_clock, slots, pending_pops
});

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: u64) -> Time {
        Time::from_ps(v)
    }

    #[test]
    fn fifo_next_cycle_visibility() {
        let mut f = Fifo::new(4, ps(1000));
        f.push(ps(1000), 1u32).unwrap();
        f.push(ps(1000), 2u32).unwrap();
        assert_eq!(f.pop(ps(1000)), None);
        assert_eq!(f.front(ps(2000)), Some(&1));
        assert_eq!(f.pop(ps(2000)), Some(1));
        assert_eq!(f.pop(ps(2000)), Some(2));
        assert_eq!(f.pop(ps(2000)), None);
    }

    #[test]
    fn fifo_capacity() {
        let mut f = Fifo::new(2, ps(0));
        assert!(f.can_push());
        f.push(ps(0), 1u8).unwrap();
        f.push(ps(0), 2u8).unwrap();
        assert!(!f.can_push());
        assert_eq!(f.push(ps(0), 3u8), Err(PushError));
        assert_eq!(f.len(), 2);
        f.clear();
        assert!(f.is_empty());
    }

    #[test]
    fn fifo_preserves_order() {
        let mut f = Fifo::new(16, ps(1000));
        for i in 0..10u32 {
            f.push(ps(1000 + u64::from(i) * 1000), i).unwrap();
        }
        let mut out = Vec::new();
        while let Some(v) = f.pop(ps(100_000)) {
            out.push(v);
        }
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn async_fifo_cdc_latency_fast_to_slow() {
        // Producer: 1 GHz. Consumer: 100 MHz (edges 10_000, 20_000, ...).
        let fast = Clock::ghz1();
        let slow = Clock::from_mhz(100.0);
        let mut f = AsyncFifo::new(8, 2, fast, slow);
        // Push at t=1000: next slow edges after are 10_000 and 20_000.
        f.push(ps(1000), 9u64).unwrap();
        assert_eq!(f.pop(ps(10_000)), None);
        assert_eq!(f.pop(ps(19_999)), None);
        assert_eq!(f.pop(ps(20_000)), Some(9));
    }

    #[test]
    fn async_fifo_cdc_latency_slow_to_fast() {
        let fast = Clock::ghz1();
        let slow = Clock::from_mhz(100.0);
        let mut f = AsyncFifo::new(8, 2, slow, fast);
        // Push at slow edge t=10_000: fast edges after are 11_000 and 12_000.
        f.push(ps(10_000), 5u8).unwrap();
        assert_eq!(f.pop(ps(11_000)), None);
        assert_eq!(f.pop(ps(12_000)), Some(5));
    }

    #[test]
    fn async_fifo_backpressure_includes_unsynchronized_frees() {
        let fast = Clock::ghz1();
        let slow = Clock::from_mhz(100.0);
        let mut f = AsyncFifo::new(1, 2, fast, slow);
        f.push(ps(1000), 1u8).unwrap();
        assert!(!f.can_push(ps(2000)));
        // Consumer pops at 20_000; producer sees the free slot only two fast
        // edges later (22_000).
        assert_eq!(f.pop(ps(20_000)), Some(1));
        assert!(!f.can_push(ps(20_000)));
        assert!(!f.can_push(ps(21_000)));
        assert!(f.can_push(ps(22_000)));
    }

    #[test]
    fn async_fifo_in_order_delivery() {
        // The proxy-cache protocol depends on FIFO order across the boundary.
        let fast = Clock::ghz1();
        let slow = Clock::from_mhz(333.0);
        let mut f = AsyncFifo::new(64, 2, fast, slow);
        for i in 0..50u32 {
            f.push(ps(1000 * (u64::from(i) + 1)), i).unwrap();
        }
        let mut out = Vec::new();
        let mut t = ps(0);
        while out.len() < 50 {
            t += ps(500);
            if let Some(v) = f.pop(t) {
                out.push(v);
            }
        }
        assert_eq!(out, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn async_fifo_pop_exactly_at_synchronizer_boundary() {
        // An entry pushed at t must be invisible at the 1st consumer edge
        // strictly after t, and become poppable at exactly the 2nd — not a
        // picosecond earlier.
        let fast = Clock::ghz1();
        let slow = Clock::from_mhz(250.0); // slow edges at 4000, 8000, ...
        let mut f = AsyncFifo::new(4, 2, fast, slow);
        // Push exactly ON a consumer edge: edges *strictly after* 4000 are
        // 8000 and 12000, so the push's own edge must not count as a stage.
        f.push(ps(4000), 1u8).unwrap();
        assert_eq!(f.front_ready_at(), Some(ps(12_000)));
        assert_eq!(f.pop(ps(11_999)), None);
        assert_eq!(f.front(ps(12_000)), Some(&1));
        assert_eq!(f.pop(ps(12_000)), Some(1));
        // Freed space: producer edges strictly after 12_000 are 13_000 and
        // 14_000 — the free is invisible at 13_999 and visible at 14_000, so
        // until then the popped slot still counts against capacity.
        f.push(ps(12_000), 2u8).unwrap();
        f.push(ps(12_000), 3u8).unwrap();
        f.push(ps(12_000), 4u8).unwrap();
        assert_eq!(f.push(ps(13_999), 5u8), Err(PushError));
        assert_eq!(f.producer_occupancy(ps(13_999)), 3 + 1);
        assert_eq!(f.producer_occupancy(ps(14_000)), 3);
        f.push(ps(14_000), 5u8).unwrap();
    }

    #[test]
    fn async_fifo_unit_clock_ratio() {
        // Producer and consumer on the *same* clock (ratio 1): the CDC still
        // costs sync_stages edges in each direction — the synchronizer does
        // not degenerate into a plain FIFO.
        let clk = Clock::ghz1(); // edges at 1000, 2000, ...
        let mut f = AsyncFifo::new(2, 2, clk, clk);
        f.push(ps(1000), 7u32).unwrap();
        assert_eq!(f.pop(ps(2000)), None, "one edge is not enough");
        assert_eq!(f.pop(ps(3000)), Some(7));
        // The freed slot is producer-visible only at 5000 (two edges after
        // the pop), so a second push at 4000 sees occupancy 1 + 1 = full.
        f.push(ps(4000), 8u32).unwrap();
        assert_eq!(f.push(ps(4000), 9u32), Err(PushError));
        f.push(ps(5000), 9u32).unwrap(); // full: 2 slots occupied
        assert!(!f.can_push(ps(5000)));
        assert_eq!(f.pop(ps(7000)), Some(8));
        assert!(!f.can_push(ps(8000)), "free not yet synchronized");
        assert!(f.can_push(ps(9000)));
    }

    #[test]
    fn async_fifo_full_fifo_backpressure() {
        // Fill to capacity; every further push must be rejected without
        // corrupting order, and draining reopens exactly one slot per pop
        // (after synchronization).
        let fast = Clock::ghz1();
        let slow = Clock::from_mhz(100.0);
        let mut f = AsyncFifo::new(3, 2, fast, slow);
        for i in 0..3u8 {
            f.push(ps(1000 + u64::from(i)), i).unwrap();
        }
        assert!(!f.can_push(ps(2000)));
        assert_eq!(f.push(ps(2000), 99), Err(PushError));
        assert_eq!(f.len(), 3);
        // Consumer drains one at 20_000; producer sees the slot at 22_000.
        assert_eq!(f.pop(ps(20_000)), Some(0));
        assert_eq!(f.push(ps(21_000), 99), Err(PushError));
        f.push(ps(22_000), 3).unwrap();
        assert_eq!(f.push(ps(22_000), 99), Err(PushError));
        // Order survives the backpressure episode.
        let mut out = Vec::new();
        let mut t = ps(22_000);
        while out.len() < 3 {
            t += ps(10_000);
            while let Some(v) = f.pop(t) {
                out.push(v);
            }
        }
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn async_fifo_reclocking() {
        let fast = Clock::ghz1();
        let slow = Clock::from_mhz(50.0);
        let mut f = AsyncFifo::new(4, 2, fast, slow);
        assert_eq!(f.consumer_clock().period().as_ps(), 20_000);
        f.set_consumer_clock(Clock::from_mhz(500.0));
        f.push(ps(1000), 3u8).unwrap();
        // New consumer clock: edges every 2000 ps -> visible at 6000... edges
        // after 1000 are 2000 and 4000.
        assert_eq!(f.pop(ps(4000)), Some(3));
    }
}
