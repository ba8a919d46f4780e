//! [`EpochBarrier`]: a spin-then-park barrier for per-epoch fork/join
//! between one coordinator thread and a few persistent workers.
//!
//! No simulator code uses it: the simulator is serial (DESIGN.md
//! "Intra-run threading: tried, measured, removed"). It stays only as the
//! subject of the benchmark's `sim.epoch_barrier_ns` probe, and goes with
//! that probe.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// A reusable two-phase barrier for per-epoch fork/join between one
/// coordinator and `workers` persistent worker threads.
///
/// Per epoch: the coordinator publishes work, calls
/// [`open`](EpochBarrier::open) (one store plus a conditional wake),
/// does its own share, then [`wait_done`](EpochBarrier::wait_done).
/// Workers block in [`wait_open`](EpochBarrier::wait_open) — spinning
/// briefly, then yielding, then parking on a condvar so an idle pool
/// burns no CPU — and report with [`finish`](EpochBarrier::finish).
///
/// The barrier carries no payload; the ordering on the epoch and done
/// counters (SeqCst publish — see [`open`](EpochBarrier::open) — and
/// release/acquire completion) makes everything written before `open`
/// visible to workers, and everything workers wrote visible after
/// `wait_done`.
#[derive(Debug)]
pub struct EpochBarrier {
    epoch: AtomicU64,
    done: Vec<AtomicU64>,
    quit: AtomicBool,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Spin iterations before a waiting thread starts yielding.
const SPINS: u32 = 128;
/// Yield iterations before a worker parks on the condvar.
const YIELDS: u32 = 64;

impl EpochBarrier {
    /// A barrier coordinating `workers` worker threads (the coordinator
    /// is not counted).
    pub fn new(workers: usize) -> Self {
        EpochBarrier {
            epoch: AtomicU64::new(0),
            done: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            quit: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Opens epoch `epoch` (must be strictly increasing). Everything the
    /// coordinator wrote before this call is visible to workers returning
    /// from [`wait_open`](EpochBarrier::wait_open).
    pub fn open(&self, epoch: u64) {
        // Store-buffer (Dekker) pattern against a parking worker, which
        // does `sleepers.fetch_add(SeqCst)` and then re-checks the epoch
        // before waiting on the condvar. All four accesses must be SeqCst:
        // in the single total order that gives, the coordinator reading
        // `sleepers == 0` (skipping the notify) while the worker reads the
        // stale epoch (and parks) is impossible. A Release store here
        // could be reordered after the `sleepers` load (StoreLoad — legal
        // even on x86), losing the wakeup and hanging `wait_done`.
        self.epoch.store(epoch, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.lock.lock().unwrap();
            self.cv.notify_all();
        }
    }

    fn poll(&self, last_seen: u64) -> Option<Option<u64>> {
        if self.quit.load(Ordering::Acquire) {
            return Some(None);
        }
        // SeqCst pairs with the SeqCst publish in `open` — see the
        // store-buffer note there. (On the spin path plain Acquire would
        // do, but a SeqCst load costs the same on the hot architectures
        // and keeps one ordering story for every reader.)
        let e = self.epoch.load(Ordering::SeqCst);
        if e > last_seen {
            return Some(Some(e));
        }
        None
    }

    /// Blocks a worker until an epoch newer than `last_seen` opens.
    /// Returns `None` once [`shutdown`](EpochBarrier::shutdown) is called.
    pub fn wait_open(&self, last_seen: u64) -> Option<u64> {
        for _ in 0..SPINS {
            if let Some(r) = self.poll(last_seen) {
                return r;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELDS {
            if let Some(r) = self.poll(last_seen) {
                return r;
            }
            std::thread::yield_now();
        }
        let mut g = self.lock.lock().unwrap();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let r = loop {
            if let Some(r) = self.poll(last_seen) {
                break r;
            }
            g = self.cv.wait(g).unwrap();
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        r
    }

    /// Worker `worker` reports its share of epoch `epoch` complete.
    pub fn finish(&self, worker: usize, epoch: u64) {
        self.done[worker].store(epoch, Ordering::Release);
    }

    /// Blocks the coordinator until every worker has finished `epoch`.
    /// The coordinator spins/yields but never parks: by the time it gets
    /// here it has finished its own shard and the workers are close
    /// behind.
    pub fn wait_done(&self, epoch: u64) {
        for d in &self.done {
            let mut spins = 0u32;
            while d.load(Ordering::Acquire) < epoch {
                if spins < SPINS {
                    std::hint::spin_loop();
                    spins += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Tells every worker to exit its `wait_open` loop.
    pub fn shutdown(&self) {
        self.quit.store(true, Ordering::SeqCst);
        let _g = self.lock.lock().unwrap();
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn barrier_synchronizes_epochs() {
        let workers = 3;
        let barrier = Arc::new(EpochBarrier::new(workers));
        let hits: Arc<Vec<AtomicU64>> = Arc::new((0..workers).map(|_| AtomicU64::new(0)).collect());
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let b = Arc::clone(&barrier);
                let h = Arc::clone(&hits);
                std::thread::spawn(move || {
                    let mut last = 0;
                    while let Some(ep) = b.wait_open(last) {
                        last = ep;
                        h[w].fetch_add(1, Ordering::SeqCst);
                        b.finish(w, ep);
                    }
                })
            })
            .collect();
        for ep in 1..=50u64 {
            barrier.open(ep);
            barrier.wait_done(ep);
            for h in hits.iter() {
                assert_eq!(h.load(Ordering::SeqCst), ep, "lockstep at epoch {ep}");
            }
        }
        barrier.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Regression test for the lost-wakeup race: pause long enough before
    /// each `open` that workers exhaust their spin/yield budget and park
    /// on the condvar, so every epoch must actually wake a sleeper. With
    /// a non-SeqCst epoch publish this hangs (coordinator misses the
    /// sleeper, worker misses the epoch) rather than failing an assert.
    #[test]
    fn barrier_wakes_parked_workers() {
        let workers = 2;
        let barrier = Arc::new(EpochBarrier::new(workers));
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let b = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut last = 0;
                    while let Some(ep) = b.wait_open(last) {
                        last = ep;
                        b.finish(w, ep);
                    }
                })
            })
            .collect();
        for ep in 1..=30u64 {
            std::thread::sleep(std::time::Duration::from_millis(3));
            barrier.open(ep);
            barrier.wait_done(ep);
        }
        barrier.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }
}
