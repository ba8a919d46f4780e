//! The eFPGA-emulated **soft cache** (Sec. II-C of the paper).
//!
//! A soft cache is built out of fabric BRAMs and tightly integrated into an
//! accelerator's datapath. The Proxy Cache's ack-free protocol imposes two
//! rules, both enforced here:
//!
//! * the soft cache is **write-through** (a store is never globally visible
//!   until the Proxy Cache acknowledges it), with an optional bounded
//!   **write buffer**;
//! * invalidations, line fills, and write acks arrive strictly in the order
//!   the Proxy Cache sent them, and the soft cache applies them in that
//!   order without ever acknowledging back.
//!
//! Read-after-write forwarding from the write buffer is configurable — "it
//! is up to the accelerator designer ... whether read-after-write
//! forwarding is compatible with the consistency assumptions of the
//! application".

use std::collections::VecDeque;

use duet_mem::array::CacheArray;
use duet_mem::types::{read_scalar, write_scalar, Addr, LineAddr, Width};
use duet_sim::Time;

use crate::ports::{FpgaMemResp, FpgaRespKind, HubPort};

/// Soft-cache configuration.
#[derive(Clone, Copy, Debug)]
pub struct SoftCacheConfig {
    /// Sets (power of two).
    pub sets: usize,
    /// Ways.
    pub ways: usize,
    /// Write-buffer entries (0 disables buffering: stores block).
    pub write_buffer: usize,
    /// Allocate lines on store miss (write-allocate) or not. The Proxy
    /// Cache supports both (Sec. II-C).
    pub write_allocate: bool,
    /// Forward pending write-buffer data to loads (RAW forwarding).
    pub raw_forwarding: bool,
}

impl SoftCacheConfig {
    /// A typical BRAM-built cache: 2 KB, 2-way, 4-entry write buffer,
    /// write-allocate, RAW forwarding on.
    pub fn typical() -> Self {
        SoftCacheConfig {
            sets: 64,
            ways: 2,
            write_buffer: 4,
            write_allocate: true,
            raw_forwarding: true,
        }
    }
}

/// Event counters for a soft cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct SoftCacheStats {
    /// Load hits (including RAW forwards).
    pub hits: u64,
    /// Load misses (fills requested).
    pub misses: u64,
    /// Stores accepted.
    pub stores: u64,
    /// Invalidations applied.
    pub invalidations: u64,
}

#[derive(Clone, Copy, Debug)]
struct PendingStore {
    id: u64,
    addr: Addr,
    width: Width,
    value: u64,
    sent: bool,
}

/// The soft cache. The owning accelerator calls [`load`](SoftCache::load) /
/// [`store`](SoftCache::store) from its datapath and must call
/// [`tick`](SoftCache::tick) once per eFPGA clock edge with the hub port it
/// uses.
pub struct SoftCache {
    cfg: SoftCacheConfig,
    array: CacheArray<()>,
    wbuf: VecDeque<PendingStore>,
    /// Lines with an outstanding fill, so duplicate fills aren't issued.
    pending_fills: Vec<(u64, LineAddr)>,
    id_next: u64,
    stats: SoftCacheStats,
}

impl SoftCache {
    /// Creates an empty soft cache. `id_base` namespaces its request ids so
    /// they never collide with the owning accelerator's own hub requests.
    pub fn new(cfg: SoftCacheConfig, id_base: u64) -> Self {
        SoftCache {
            cfg,
            array: CacheArray::new(cfg.sets, cfg.ways),
            wbuf: VecDeque::new(),
            pending_fills: Vec::new(),
            id_next: id_base,
            stats: SoftCacheStats::default(),
        }
    }

    /// Event counters.
    pub fn stats(&self) -> SoftCacheStats {
        self.stats
    }

    /// Whether this response id belongs to the soft cache.
    pub fn owns_id(&self, id: u64) -> bool {
        self.pending_fills.iter().any(|(i, _)| *i == id) || self.wbuf.iter().any(|s| s.id == id)
    }

    /// Number of buffered (not yet acknowledged) stores.
    pub fn pending_stores(&self) -> usize {
        self.wbuf.len()
    }

    /// Whether a fill for `line` is outstanding.
    pub fn fill_pending(&self, line: LineAddr) -> bool {
        self.pending_fills.iter().any(|(_, l)| *l == line)
    }

    /// Attempts a load. `Some(value)` on a hit (or RAW forward); `None` on
    /// a miss, in which case a fill is requested through `hub` (if the
    /// request FIFO has space) and the caller should retry on later ticks.
    pub fn load(
        &mut self,
        now: Time,
        addr: Addr,
        width: Width,
        hub: &mut HubPort<'_>,
    ) -> Option<u64> {
        if self.cfg.raw_forwarding {
            if let Some(s) = self
                .wbuf
                .iter()
                .rev()
                .find(|s| s.addr == addr && s.width == width)
            {
                self.stats.hits += 1;
                return Some(s.value);
            }
        }
        let line = LineAddr::containing(addr);
        if let Some((_, data)) = self.array.get(line) {
            self.stats.hits += 1;
            return Some(read_scalar(data, LineAddr::offset(addr), width));
        }
        if !self.fill_pending(line) && hub.can_issue(now) {
            self.stats.misses += 1;
            let id = self.alloc_id();
            hub.load_line(now, id, line.base());
            self.pending_fills.push((id, line));
        }
        None
    }

    /// Attempts a store (write-through). Returns false if the write buffer
    /// is full; the caller retries on a later tick.
    pub fn store(&mut self, addr: Addr, width: Width, value: u64) -> bool {
        if self.wbuf.len() >= self.cfg.write_buffer.max(1) {
            return false;
        }
        self.stats.stores += 1;
        // Update the local copy so subsequent loads see the new value
        // (write-allocate installs nothing until the fill path does).
        let line = LineAddr::containing(addr);
        if let Some((_, data)) = self.array.get_mut(line) {
            write_scalar(data, LineAddr::offset(addr), width, value);
        }
        let id = self.alloc_id();
        self.wbuf.push_back(PendingStore {
            id,
            addr,
            width,
            value,
            sent: false,
        });
        true
    }

    /// Processes hub responses addressed to this cache and pumps the write
    /// buffer. The accelerator should pass every response whose id
    /// [`owns_id`](SoftCache::owns_id) (and every `Inv`) to
    /// [`handle_resp`](SoftCache::handle_resp); `tick` only pumps writes.
    pub fn tick(&mut self, now: Time, hub: &mut HubPort<'_>) {
        if let Some(s) = self.wbuf.iter_mut().find(|s| !s.sent) {
            if hub.can_issue(now) {
                let (id, addr, width, value) = (s.id, s.addr, s.width, s.value);
                s.sent = true;
                hub.store(now, id, addr, width, value);
            }
        }
    }

    /// Applies one hub response: a line fill, a store ack, or an
    /// invalidation. Invalidations are applied unconditionally and never
    /// acknowledged (the ack-free protocol).
    pub fn handle_resp(&mut self, resp: &FpgaMemResp) {
        match resp.kind {
            FpgaRespKind::LoadAck { data } => {
                if let Some(pos) = self.pending_fills.iter().position(|(i, _)| *i == resp.id) {
                    let (_, line) = self.pending_fills.remove(pos);
                    let mut d = data;
                    // Replay newer buffered stores over the fill so the
                    // local copy stays ahead of (never behind) the buffer.
                    for s in &self.wbuf {
                        if LineAddr::containing(s.addr) == line {
                            write_scalar(&mut d, LineAddr::offset(s.addr), s.width, s.value);
                        }
                    }
                    self.array.insert(line, d, ());
                }
            }
            FpgaRespKind::StoreAck { .. } => {
                if let Some(pos) = self.wbuf.iter().position(|s| s.id == resp.id) {
                    self.wbuf.remove(pos);
                }
            }
            FpgaRespKind::Inv { line } => {
                self.stats.invalidations += 1;
                self.array.remove(line);
                // A pending fill for this line will deliver data that was
                // valid when the Proxy Cache sent it — and the FIFO
                // guarantees the fill was sent *before* this Inv if it
                // arrives before it. A fill arriving after the Inv is newer
                // data; keep it. Nothing to do here.
            }
        }
    }

    fn alloc_id(&mut self) -> u64 {
        let id = self.id_next;
        self.id_next += 1;
        id
    }
}

duet_sim::pack_struct!(PendingStore {
    id,
    addr,
    width,
    value,
    sent
});
duet_sim::pack_struct!(SoftCacheStats {
    hits,
    misses,
    stores,
    invalidations
});
duet_sim::snap_fields!(SoftCache {
    array,
    wbuf,
    pending_fills,
    id_next,
    stats
});

#[cfg(test)]
mod tests {
    use super::*;
    use duet_sim::{Clock, LatencyBreakdown, Link};
    use duet_trace::Tracer;

    fn ports() -> (Link<crate::ports::FpgaMemReq>, Link<FpgaMemResp>) {
        let fast = Clock::ghz1();
        let slow = Clock::from_mhz(100.0);
        (Link::cdc(8, 2, slow, fast), Link::cdc(8, 2, fast, slow))
    }

    fn t(ps: u64) -> Time {
        Time::from_ps(ps)
    }

    #[test]
    fn miss_fill_hit_sequence() {
        let (mut req, mut resp) = ports();
        let mut sc = SoftCache::new(SoftCacheConfig::typical(), 1 << 32);
        let mut hub = HubPort {
            req: &mut req,
            resp: &mut resp,
            tracer: Tracer::disabled(),
        };
        assert_eq!(sc.load(t(10_000), 0x100, Width::B8, &mut hub), None);
        assert!(sc.fill_pending(LineAddr::containing(0x100)));
        // Second load while pending doesn't duplicate the fill.
        assert_eq!(sc.load(t(20_000), 0x100, Width::B8, &mut hub), None);
        assert_eq!(sc.stats().misses, 1);
        // Fill arrives.
        let mut data = [0u8; 16];
        write_scalar(&mut data, 0, Width::B8, 42);
        let fill = FpgaMemResp {
            id: 1 << 32,
            kind: FpgaRespKind::LoadAck { data },
            breakdown: LatencyBreakdown::new(),
        };
        sc.handle_resp(&fill);
        let mut hub = HubPort {
            req: &mut req,
            resp: &mut resp,
            tracer: Tracer::disabled(),
        };
        assert_eq!(sc.load(t(30_000), 0x100, Width::B8, &mut hub), Some(42));
        assert_eq!(sc.stats().hits, 1);
    }

    #[test]
    fn write_through_with_buffer_and_ack() {
        let (mut req, mut resp) = ports();
        let mut sc = SoftCache::new(SoftCacheConfig::typical(), 1 << 32);
        assert!(sc.store(0x200, Width::B8, 7));
        assert_eq!(sc.pending_stores(), 1);
        {
            let mut hub = HubPort {
                req: &mut req,
                resp: &mut resp,
                tracer: Tracer::disabled(),
            };
            sc.tick(t(10_000), &mut hub);
        }
        // The store went through the request FIFO.
        let sent = req.pop(t(12_000)).expect("store sent to hub");
        assert_eq!(sent.wdata, 7);
        // Ack retires the buffer entry.
        sc.handle_resp(&FpgaMemResp {
            id: sent.id,
            kind: FpgaRespKind::StoreAck { old: 0 },
            breakdown: LatencyBreakdown::new(),
        });
        assert_eq!(sc.pending_stores(), 0);
    }

    #[test]
    fn raw_forwarding_serves_buffered_store() {
        let (mut req, mut resp) = ports();
        let mut sc = SoftCache::new(SoftCacheConfig::typical(), 1 << 32);
        assert!(sc.store(0x300, Width::B8, 9));
        let mut hub = HubPort {
            req: &mut req,
            resp: &mut resp,
            tracer: Tracer::disabled(),
        };
        assert_eq!(sc.load(t(10_000), 0x300, Width::B8, &mut hub), Some(9));
    }

    #[test]
    fn raw_forwarding_can_be_disabled() {
        let (mut req, mut resp) = ports();
        let cfg = SoftCacheConfig {
            raw_forwarding: false,
            ..SoftCacheConfig::typical()
        };
        let mut sc = SoftCache::new(cfg, 1 << 32);
        assert!(sc.store(0x300, Width::B8, 9));
        let mut hub = HubPort {
            req: &mut req,
            resp: &mut resp,
            tracer: Tracer::disabled(),
        };
        assert_eq!(sc.load(t(10_000), 0x300, Width::B8, &mut hub), None);
    }

    #[test]
    fn invalidation_removes_line_without_ack() {
        let (mut req, mut resp) = ports();
        let mut sc = SoftCache::new(SoftCacheConfig::typical(), 1 << 32);
        // Install a line via fill.
        {
            let mut hub = HubPort {
                req: &mut req,
                resp: &mut resp,
                tracer: Tracer::disabled(),
            };
            sc.load(t(10_000), 0x400, Width::B8, &mut hub);
        }
        let id = req.pop(t(12_000)).unwrap().id;
        sc.handle_resp(&FpgaMemResp {
            id,
            kind: FpgaRespKind::LoadAck { data: [5; 16] },
            breakdown: LatencyBreakdown::new(),
        });
        // Invalidate it.
        sc.handle_resp(&FpgaMemResp {
            id: 0,
            kind: FpgaRespKind::Inv {
                line: LineAddr::containing(0x400),
            },
            breakdown: LatencyBreakdown::new(),
        });
        assert_eq!(sc.stats().invalidations, 1);
        let mut hub = HubPort {
            req: &mut req,
            resp: &mut resp,
            tracer: Tracer::disabled(),
        };
        assert_eq!(
            sc.load(t(20_000), 0x400, Width::B8, &mut hub),
            None,
            "line gone after Inv"
        );
        // No message was pushed back toward the hub by the Inv itself
        // (ack-free): the only new request is the re-fill just issued.
        let m = req.pop(t(22_000)).unwrap();
        assert!(matches!(m.op, crate::ports::FpgaMemOp::LoadLine));
        assert!(req.pop(t(24_000)).is_none());
    }

    #[test]
    fn write_buffer_capacity_blocks() {
        let (mut _req, mut _resp) = ports();
        let cfg = SoftCacheConfig {
            write_buffer: 2,
            ..SoftCacheConfig::typical()
        };
        let mut sc = SoftCache::new(cfg, 0);
        assert!(sc.store(0x0, Width::B8, 1));
        assert!(sc.store(0x8, Width::B8, 2));
        assert!(!sc.store(0x10, Width::B8, 3), "buffer full");
    }

    #[test]
    fn fill_replays_newer_buffered_stores() {
        // Store to a missing line (write-allocate), then the fill arrives:
        // the installed line must reflect the buffered store.
        let (mut req, mut resp) = ports();
        let mut sc = SoftCache::new(SoftCacheConfig::typical(), 1 << 32);
        assert!(sc.store(0x500, Width::B8, 0xAA));
        {
            let mut hub = HubPort {
                req: &mut req,
                resp: &mut resp,
                tracer: Tracer::disabled(),
            };
            // Trigger a fill via a load to the other half of the line.
            assert_eq!(sc.load(t(10_000), 0x508, Width::B8, &mut hub), None);
        }
        let fill_req = {
            let m = req.pop(t(12_000)).unwrap();
            assert!(matches!(m.op, crate::ports::FpgaMemOp::LoadLine));
            m
        };
        sc.handle_resp(&FpgaMemResp {
            id: fill_req.id,
            kind: FpgaRespKind::LoadAck { data: [0; 16] },
            breakdown: LatencyBreakdown::new(),
        });
        let mut hub = HubPort {
            req: &mut req,
            resp: &mut resp,
            tracer: Tracer::disabled(),
        };
        assert_eq!(
            sc.load(t(20_000), 0x500, Width::B8, &mut hub),
            Some(0xAA),
            "buffered store replayed over the fill"
        );
    }
}
