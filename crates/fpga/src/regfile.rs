//! A fabric-side soft-register endpoint used by accelerator designs.
//!
//! An accelerator's "device controller" (Sec. II-E) must speak two wire
//! protocols depending on how the system configures its registers:
//!
//! * **shadowed** (Duet): processor writes arrive as
//!   [`RegDown::ShadowWrite`]; results are *pushed* with `RegUp::Push`
//!   and land in the Control Hub's fast-domain CPU-bound FIFOs,
//! * **normal** (FPSoC baseline, or registers needing non-bufferable
//!   semantics): writes arrive as [`RegDown::WriteReq`] and must be
//!   acknowledged; reads arrive as [`RegDown::ReadReq`] and must be
//!   answered — a read of a result queue blocks (the answer is deferred)
//!   until a result exists.
//!
//! [`FabricRegFile`] implements both so the same accelerator design runs
//! unmodified on Duet and on the FPSoC-like baseline, exactly as the paper
//! evaluates ("FPSoC ... downgrades all shadowed soft registers to normal
//! registers", Sec. V-D). Construct it with `push_mode = true` when the
//! system uses shadow registers.

use std::collections::VecDeque;

use duet_sim::Time;

use crate::ports::{RegDown, RegPort};

/// How reads of a register behave.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FabricRegKind {
    /// A plain value: reads return the latest value.
    #[default]
    Value,
    /// A result queue: reads consume one queued result (blocking in normal
    /// mode, pushed to a CPU-bound FIFO in shadow mode).
    Queue,
    /// A synchronization barrier (Sec. II-F): a read is held until the
    /// accelerator calls [`FabricRegFile::release_barrier`] — "the eFPGA
    /// signals its arrival at the barrier by acknowledging the read". Must
    /// be configured as a *normal* register on the hub side (non-bufferable).
    Barrier,
    /// A token queue (the non-blocking `try_join` FIFO): a normal-mode read
    /// consumes a token and returns 1, or returns 0 immediately when empty.
    /// In push mode tokens are pushed to the hub's token FIFO instead.
    TokenQueue,
}

/// The fabric-side register endpoint. See module docs.
#[derive(Clone, Debug)]
pub struct FabricRegFile {
    push_mode: bool,
    kinds: [FabricRegKind; 32],
    values: [u64; 32],
    inbox: Vec<VecDeque<u64>>,
    outbox: Vec<VecDeque<u64>>,
    pending_reads: VecDeque<(u64, u8)>,
    pending_acks: VecDeque<u64>,
}

impl FabricRegFile {
    /// Creates an endpoint. `push_mode` selects shadow-register delivery of
    /// results (true on Duet, false when registers are normal/FPSoC).
    pub fn new(push_mode: bool) -> Self {
        FabricRegFile {
            push_mode,
            kinds: [FabricRegKind::Value; 32],
            values: [0; 32],
            inbox: (0..32).map(|_| VecDeque::new()).collect(),
            outbox: (0..32).map(|_| VecDeque::new()).collect(),
            pending_reads: VecDeque::new(),
            pending_acks: VecDeque::new(),
        }
    }

    /// Declares `reg` a result queue.
    pub fn set_queue(&mut self, reg: usize) {
        self.kinds[reg] = FabricRegKind::Queue;
    }

    /// Declares `reg` a barrier register.
    pub fn set_barrier(&mut self, reg: usize) {
        self.kinds[reg] = FabricRegKind::Barrier;
    }

    /// Declares `reg` a token queue (non-blocking try-join).
    pub fn set_token(&mut self, reg: usize) {
        self.kinds[reg] = FabricRegKind::TokenQueue;
    }

    /// Releases one blocked barrier read on `reg` (or the next to arrive)
    /// with `value`.
    pub fn release_barrier(&mut self, reg: usize, value: u64) {
        self.outbox[reg].push_back(value);
    }

    /// Whether a processor is currently blocked on a barrier read of `reg`.
    pub fn barrier_waiting(&self, reg: usize) -> bool {
        self.pending_reads.iter().any(|(_, r)| *r as usize == reg)
    }

    /// Whether results are pushed (shadow mode).
    pub fn push_mode(&self) -> bool {
        self.push_mode
    }

    /// The latest value written to `reg`.
    pub fn value(&self, reg: usize) -> u64 {
        self.values[reg]
    }

    /// Consumes the oldest unprocessed write to `reg` (an argument).
    pub fn pop_write(&mut self, reg: usize) -> Option<u64> {
        self.inbox[reg].pop_front()
    }

    /// Queues a result on `reg` for delivery to the processors.
    pub fn push_result(&mut self, reg: usize, value: u64) {
        self.outbox[reg].push_back(value);
        self.values[reg] = value;
    }

    /// Number of results not yet delivered.
    pub fn undelivered(&self, reg: usize) -> usize {
        self.outbox[reg].len()
    }

    /// Whether `reg` has writes the accelerator has not consumed yet.
    pub fn has_pending_write(&self, reg: usize) -> bool {
        !self.inbox[reg].is_empty()
    }

    /// Whether the endpoint's *protocol* side is drained: no unacked
    /// writes, no deferred reads, and no undelivered results — i.e. given
    /// no new down-FIFO input, [`tick`](FabricRegFile::tick) is a no-op.
    ///
    /// Unconsumed argument writes (the inbox) are deliberately *not*
    /// counted: consuming them is the accelerator's decision, and many
    /// designs latch-and-ignore plain parameter registers. An accelerator's
    /// [`is_idle`](crate::ports::SoftAccelerator::is_idle) must separately
    /// check [`has_pending_write`](FabricRegFile::has_pending_write) for
    /// every register it drains with `pop_write`.
    pub fn is_quiescent(&self) -> bool {
        self.pending_reads.is_empty()
            && self.pending_acks.is_empty()
            && self.outbox.iter().all(|q| q.is_empty())
    }

    /// Processes one eFPGA clock edge of register traffic: absorbs
    /// downstream events and services acks, deferred reads, and (in push
    /// mode) result delivery — all bounded by up-FIFO space.
    pub fn tick(&mut self, now: Time, regs: &mut RegPort<'_>) {
        while let Some(ev) = regs.pop(now) {
            match ev {
                RegDown::ShadowWrite { reg, value } => {
                    let r = reg as usize % 32;
                    self.values[r] = value;
                    self.inbox[r].push_back(value);
                }
                RegDown::WriteReq { txn, reg, value } => {
                    let r = reg as usize % 32;
                    self.values[r] = value;
                    self.inbox[r].push_back(value);
                    self.pending_acks.push_back(txn);
                }
                RegDown::ReadReq { txn, reg } => {
                    self.pending_reads.push_back((txn, reg));
                }
            }
        }
        // Acks first (cheap, unblocks the hub's head-of-line).
        while let Some(&txn) = self.pending_acks.front() {
            if !regs.write_ack(now, txn) {
                break;
            }
            self.pending_acks.pop_front();
        }
        // Deferred reads: Value regs answer immediately; Queue regs answer
        // when a result exists (in order per register).
        let mut still_pending = VecDeque::new();
        while let Some((txn, reg)) = self.pending_reads.pop_front() {
            let r = reg as usize % 32;
            let answer = match self.kinds[r] {
                FabricRegKind::Value => Some(self.values[r]),
                FabricRegKind::Queue | FabricRegKind::Barrier => self.outbox[r].front().copied(),
                // Non-blocking: 1-with-consume or 0 immediately.
                FabricRegKind::TokenQueue => {
                    if self.outbox[r].pop_front().is_some() {
                        Some(1)
                    } else {
                        Some(0)
                    }
                }
            };
            match answer {
                Some(v) => {
                    if regs.read_resp(now, txn, v) {
                        if matches!(self.kinds[r], FabricRegKind::Queue | FabricRegKind::Barrier) {
                            self.outbox[r].pop_front();
                        }
                    } else if self.kinds[r] == FabricRegKind::TokenQueue && v == 1 {
                        // Could not send the reply: put the token back.
                        self.outbox[r].push_front(0);
                        still_pending.push_back((txn, reg));
                    } else {
                        still_pending.push_back((txn, reg));
                    }
                }
                None => still_pending.push_back((txn, reg)),
            }
        }
        self.pending_reads = still_pending;
        // Push-mode result delivery (barrier registers are always normal:
        // their releases only answer reads).
        if self.push_mode {
            for r in 0..32 {
                if self.kinds[r] == FabricRegKind::Barrier {
                    continue;
                }
                while let Some(&v) = self.outbox[r].front() {
                    if !regs.push(now, r as u8, v) {
                        return;
                    }
                    self.outbox[r].pop_front();
                }
            }
        }
    }
}

duet_sim::pack_enum!(FabricRegKind { 0 => Value, 1 => Queue, 2 => Barrier, 3 => TokenQueue });
duet_sim::snap_fields!(FabricRegFile {
    const push_mode, kinds, values, inbox, outbox, pending_reads, pending_acks
} check |f| duet_sim::snapshot::ensure(
    f.inbox.len() == 32 && f.outbox.len() == 32,
    "regfile queue count mismatch"
));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::RegUp;
    use duet_sim::{Clock, Link};

    fn fifos() -> (Link<RegDown>, Link<RegUp>) {
        let fast = Clock::ghz1();
        let slow = Clock::from_mhz(100.0);
        (Link::cdc(8, 2, fast, slow), Link::cdc(8, 2, slow, fast))
    }

    fn t(ps: u64) -> Time {
        Time::from_ps(ps)
    }

    #[test]
    fn shadow_write_lands_in_inbox() {
        let (mut down, mut up) = fifos();
        down.push(t(1000), RegDown::ShadowWrite { reg: 0, value: 7 })
            .unwrap();
        let mut rf = FabricRegFile::new(true);
        let mut port = RegPort {
            down: &mut down,
            up: &mut up,
        };
        rf.tick(t(20_000), &mut port);
        assert_eq!(rf.pop_write(0), Some(7));
        assert_eq!(rf.pop_write(0), None);
        assert_eq!(rf.value(0), 7);
    }

    #[test]
    fn normal_write_is_acked() {
        let (mut down, mut up) = fifos();
        down.push(
            t(1000),
            RegDown::WriteReq {
                txn: 3,
                reg: 1,
                value: 9,
            },
        )
        .unwrap();
        let mut rf = FabricRegFile::new(false);
        {
            let mut port = RegPort {
                down: &mut down,
                up: &mut up,
            };
            rf.tick(t(20_000), &mut port);
        }
        assert_eq!(rf.pop_write(1), Some(9));
        assert_eq!(up.pop(t(25_000)), Some(RegUp::WriteAck { txn: 3 }));
    }

    #[test]
    fn queue_read_blocks_until_result() {
        let (mut down, mut up) = fifos();
        down.push(t(1000), RegDown::ReadReq { txn: 5, reg: 2 })
            .unwrap();
        let mut rf = FabricRegFile::new(false);
        rf.set_queue(2);
        {
            let mut port = RegPort {
                down: &mut down,
                up: &mut up,
            };
            rf.tick(t(20_000), &mut port);
        }
        assert_eq!(up.pop(t(25_000)), None, "no result yet: read deferred");
        rf.push_result(2, 55);
        {
            let mut port = RegPort {
                down: &mut down,
                up: &mut up,
            };
            rf.tick(t(30_000), &mut port);
        }
        assert_eq!(
            up.pop(t(35_000)),
            Some(RegUp::ReadResp { txn: 5, value: 55 })
        );
    }

    #[test]
    fn value_read_answers_immediately() {
        let (mut down, mut up) = fifos();
        down.push(
            t(1000),
            RegDown::WriteReq {
                txn: 1,
                reg: 3,
                value: 8,
            },
        )
        .unwrap();
        down.push(t(2000), RegDown::ReadReq { txn: 2, reg: 3 })
            .unwrap();
        let mut rf = FabricRegFile::new(false);
        {
            let mut port = RegPort {
                down: &mut down,
                up: &mut up,
            };
            rf.tick(t(30_000), &mut port);
        }
        assert_eq!(up.pop(t(35_000)), Some(RegUp::WriteAck { txn: 1 }));
        assert_eq!(
            up.pop(t(36_000)),
            Some(RegUp::ReadResp { txn: 2, value: 8 })
        );
    }

    #[test]
    fn push_mode_delivers_results_as_pushes() {
        let (mut down, mut up) = fifos();
        let mut rf = FabricRegFile::new(true);
        rf.set_queue(4);
        rf.push_result(4, 11);
        rf.push_result(4, 12);
        {
            let mut port = RegPort {
                down: &mut down,
                up: &mut up,
            };
            rf.tick(t(10_000), &mut port);
        }
        assert_eq!(up.pop(t(15_000)), Some(RegUp::Push { reg: 4, value: 11 }));
        assert_eq!(up.pop(t(16_000)), Some(RegUp::Push { reg: 4, value: 12 }));
    }

    #[test]
    fn non_push_mode_holds_results_for_reads() {
        let (mut down, mut up) = fifos();
        let mut rf = FabricRegFile::new(false);
        rf.set_queue(4);
        rf.push_result(4, 11);
        {
            let mut port = RegPort {
                down: &mut down,
                up: &mut up,
            };
            rf.tick(t(10_000), &mut port);
        }
        assert_eq!(up.pop(t(15_000)), None, "results held, not pushed");
        assert_eq!(rf.undelivered(4), 1);
    }
}
