//! Checkpoint, fork, and time-travel for the whole system.
//!
//! Three capabilities, all built on the `duet-sim` snapshot layer:
//!
//! * **Checkpoint/restore** — [`System::snapshot`] serializes every bit of
//!   simulated state into a versioned, fingerprinted byte buffer;
//!   [`System::restore`] loads it back into a freshly *built* system (same
//!   [`SystemConfig`], same program, same accelerator design). A restored
//!   run continues bit-identically to the uninterrupted one: identical
//!   fingerprints, metrics, and traces at any thread count, with edge-skip
//!   on or off.
//! * **COW fork** — [`System::fork`] clones a live system in O(dirty pages):
//!   backing memory is page-grained copy-on-write ([`duet_sim::PagedMem`]),
//!   so a warmed multi-megabyte footprint forks by bumping `Arc` counts.
//!   Sweeps boot once and fork per point instead of re-running warmup.
//! * **Divergence fingerprints** — [`System::divergence_fingerprint`]
//!   hashes the full simulated state (host-only metrics excluded) into one
//!   `u64`, cheap enough to compare every few thousand edges. The
//!   `bisect_divergence` tool in `duet-bench` uses it to walk two runs to
//!   their first divergent clock edge.
//!
//! # What is (and is not) in a snapshot
//!
//! Everything that affects simulated behavior is serialized: clocks, cores,
//! L1/L2/TLB, the mesh (routers, in-flight messages, per-link stats), L3
//! shards (directory + backing memory), the adapter (control hub, memory
//! hubs, proxy caches, CDC FIFOs), the accelerator's registered state
//! (its [`Snap`] supertrait impl), the OS stub (page table, pending
//! tasks, MMIO id space), fault-injection progress, and the runtime
//! checkers. Host-side plumbing is *not*: trace sessions, shard pools and
//! lanes, the edge-skip knob, and the mesh-tick rebalancer (per-router
//! load EWMAs and the current shard partition) are rebuilt from the
//! config and environment, because none of them may influence results in
//! the first place — a restored mesh re-learns its load balance from
//! zero. The mesh's boundary-exchange lanes *are* carried (encoded
//! shard-count-invariantly) but must be empty at snapshot time, since
//! snapshots are only taken between edges when every lane has been
//! replayed. `executed_edges` (a host-performance metric) travels in its
//! own trailing section so it survives restore but stays out of
//! divergence fingerprints.
//!
//! # Restore protocol
//!
//! `restore` overwrites state; it does not build structure. The caller
//! re-runs the same setup as the original process — `System::new` with an
//! equal config, `load_program`, `attach_accelerator` with the same design
//! — then calls `restore(bytes)`. Mismatches fail loudly: a wrong config
//! is caught by the header hash, a missing accelerator or different core
//! count by structural checks, garbage by section tags and exact-consumption
//! checks. On error the system may be partially overwritten and must be
//! discarded (fail-loud poisoning; no rollback).
//!
//! [`SystemConfig`]: crate::config::SystemConfig

use std::sync::atomic::{AtomicU64, Ordering};

use duet_fpga::SoftAccelerator;
use duet_sim::snapshot::{ensure, load_each, save_each};
use duet_sim::{
    pack_enum, pack_struct, snap_fields, Pack, Snap, SnapError, SnapHasher, SnapReader, SnapWriter,
};
use duet_trace::Tracer;

use crate::run_loop::OsTask;
use crate::stats::RunStats;
use crate::system::System;
use crate::wiring::SlowHubCdc;

pack_struct!(RunStats {
    fast_edges,
    slow_edges,
    exceptions,
    page_faults
});
pack_enum!(OsTask { 0 => TlbFill { vaddr, hub } });
snap_fields!(SlowHubCdc { into_hub, from_hub });

/// Writes an optional component: a presence byte, then its state.
fn save_opt<T: Snap + ?Sized>(item: Option<&T>, w: &mut SnapWriter) {
    w.u8(u8::from(item.is_some()));
    if let Some(item) = item {
        item.save(w);
    }
}

/// Loads what [`save_opt`] wrote; presence must match the built structure.
fn load_opt<T: Snap + ?Sized>(
    item: Option<&mut T>,
    r: &mut SnapReader<'_>,
    what: &'static str,
) -> Result<(), SnapError> {
    ensure((r.u8()? != 0) == item.is_some(), what)?;
    item.map_or(Ok(()), |item| item.load(r))
}

impl System {
    /// Serializes the complete simulated state into a versioned,
    /// config-fingerprinted buffer. See the module docs for the format
    /// contract and the restore protocol.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::with_header(self.cfg.config_hash());
        self.write_state(&mut w);
        w.section(*b"FLT\0", |w| {
            self.fault_active.pack(w);
            let budget: Vec<u64> = self
                .fault_budget
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect();
            budget.pack(w);
            self.faults_injected.pack(w);
        });
        w.section(*b"HOST", |w| self.executed_edges.pack(w));
        w.finish()
    }

    /// Overwrites this system's state from a buffer produced by
    /// [`snapshot`](System::snapshot). The system must have been built from
    /// an equal [`SystemConfig`](crate::config::SystemConfig) (checked via
    /// the header hash) with the same structure — programs loaded and, if
    /// the snapshot carries accelerator state, the same accelerator design
    /// attached. On `Err` the system is partially overwritten and must be
    /// discarded.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::with_header(bytes, self.cfg.config_hash())?;
        self.read_state(&mut r)?;
        r.section(*b"FLT\0", |r| {
            self.fault_active = Pack::unpack(r)?;
            if self.fault_active.len() != self.cfg.faults.specs.len() {
                return Err(SnapError::Corrupt("fault window count mismatch"));
            }
            let budget: Vec<u64> = Pack::unpack(r)?;
            if budget.len() != self.fault_budget.len() {
                return Err(SnapError::Corrupt("fault budget count mismatch"));
            }
            for (slot, v) in self.fault_budget.iter().zip(budget) {
                slot.store(v, Ordering::Relaxed);
            }
            self.faults_injected = Pack::unpack(r)?;
            Ok(())
        })?;
        self.executed_edges = r.section(*b"HOST", |r| Pack::unpack(r))?;
        r.expect_end()?;
        // Derived counters and host-side scratch. The wake sets are derived
        // too: everything starts awake and the first gated pass re-sorts.
        self.inject_pending_total = self.inject_pending.iter().map(duet_sim::Link::len).sum();
        self.trace_scratch = None;
        self.wake = crate::parallel::ShardWake::all_awake(&self.shard_plan);
        Ok(())
    }

    /// A 64-bit digest of the full simulated state, excluding host-only
    /// metrics (`executed_edges`) and fault-*schedule* bookkeeping (window
    /// flags, remaining budgets, injection counts — progress through the
    /// plan, not system state). That exclusion is what lets a clean run
    /// and a faulted run compare equal until a fault actually perturbs
    /// something: the `bisect_divergence` tool compares these digests to
    /// localize the first edge where two runs part ways.
    pub fn divergence_fingerprint(&self) -> u64 {
        let mut w = SnapWriter::new();
        self.write_state(&mut w);
        let buf = w.finish();
        let mut h = SnapHasher::new();
        h.bytes(&buf);
        h.finish()
    }

    /// Every state section except the trailing fault-bookkeeping and
    /// host-metrics sections, in fixed order. Shared by
    /// [`snapshot`](System::snapshot) (which appends the header plus the
    /// `FLT`/`HOST` sections) and
    /// [`divergence_fingerprint`](System::divergence_fingerprint) (which
    /// hashes exactly these bytes).
    ///
    /// Hand-written (with [`read_state`](System::read_state) as its
    /// mirror): the tagged sections frame groups of `System` fields, and
    /// the adapter and accelerator are optional structure whose presence
    /// is cross-checked rather than loaded.
    fn write_state(&self, w: &mut SnapWriter) {
        w.section(*b"TIME", |w| {
            self.dual.save(w);
            self.now.pack(w);
            self.stats.pack(w);
        });
        w.section(*b"CORE", |w| save_each(&self.cores, w));
        w.section(*b"MESH", |w| self.mesh.save(w));
        w.section(*b"L2\0\0", |w| save_each(&self.l2s, w));
        w.section(*b"L3\0\0", |w| save_each(&self.shards, w));
        w.section(*b"ADPT", |w| {
            save_opt(self.adapter.as_ref(), w);
            save_each(&self.slow_cdc, w);
        });
        w.section(*b"ACCL", |w| {
            self.accel_busy.pack(w);
            self.accel_fenced.pack(w);
            self.watchdog_sig.pack(w);
            self.watchdog_since.pack(w);
            save_opt(self.accel.as_deref(), w);
        });
        w.section(*b"SYS\0", |w| {
            save_each(&self.inject_pending, w);
            self.inject_dirty.pack(w);
            self.core_held.pack(w);
            self.mmio_ids.pack(w);
            self.next_os_mmio_id.pack(w);
            self.page_table.pack(w);
            self.os_tasks.pack(w);
            self.reorder_stash.pack(w);
            self.fences.pack(w);
        });
        w.section(*b"VRFY", |w| {
            self.mesi_checker.save(w);
            self.noc_checker.save(w);
            self.adapter_violations.pack(w);
            self.pending_violation.pack(w);
        });
    }

    /// Mirror of [`write_state`](System::write_state): loads every state
    /// section into the already-built structure, failing loudly on any
    /// structural mismatch.
    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.section(*b"TIME", |r| {
            self.dual.load(r)?;
            self.now.load(r)?;
            self.stats.load(r)
        })?;
        r.section(*b"CORE", |r| {
            load_each(&mut self.cores, r, "core count mismatch")
        })?;
        r.section(*b"MESH", |r| self.mesh.load(r))?;
        r.section(*b"L2\0\0", |r| {
            load_each(&mut self.l2s, r, "L2 count mismatch")
        })?;
        r.section(*b"L3\0\0", |r| {
            load_each(&mut self.shards, r, "L3 shard count mismatch")
        })?;
        r.section(*b"ADPT", |r| {
            load_opt(self.adapter.as_mut(), r, "adapter presence mismatch")?;
            load_each(&mut self.slow_cdc, r, "slow-CDC count mismatch")
        })?;
        r.section(*b"ACCL", |r| {
            self.accel_busy.load(r)?;
            self.accel_fenced.load(r)?;
            self.watchdog_sig.load(r)?;
            self.watchdog_since.load(r)?;
            load_opt(
                self.accel.as_deref_mut(),
                r,
                "accelerator presence mismatch",
            )
        })?;
        r.section(*b"SYS\0", |r| {
            load_each(&mut self.inject_pending, r, "injection pipe count mismatch")?;
            self.inject_dirty.load(r)?;
            self.core_held.load(r)?;
            ensure(
                self.core_held.len() == self.cores.len(),
                "core_held count mismatch",
            )?;
            self.mmio_ids.load(r)?;
            self.next_os_mmio_id.load(r)?;
            self.page_table.load(r)?;
            self.os_tasks.load(r)?;
            self.reorder_stash.load(r)?;
            self.fences.load(r)
        })?;
        r.section(*b"VRFY", |r| {
            self.mesi_checker.load(r)?;
            self.noc_checker.load(r)?;
            self.adapter_violations.load(r)?;
            self.pending_violation.load(r)
        })
    }

    /// `(allocated, privately owned)` backing-memory page counts summed
    /// over every L3 shard. The COW probe for [`fork`](System::fork):
    /// right after a fork both parent and child privately own zero pages,
    /// and each copy-on-write fault moves exactly one page from shared to
    /// owned — so "fork is O(dirty pages)" is directly assertable.
    pub fn memory_pages(&self) -> (usize, usize) {
        let mut allocated = 0;
        let mut owned = 0;
        for s in &self.shards {
            let (a, o) = s.backing_pages();
            allocated += a;
            owned += o;
        }
        (allocated, owned)
    }

    /// Forks a copy-on-write child of this system, without an accelerator.
    ///
    /// The child is in the identical simulated state (equal
    /// [`divergence_fingerprint`](System::divergence_fingerprint)) and
    /// diverges only as it is driven differently. Backing memory is shared
    /// page-grained copy-on-write, so the fork itself allocates only
    /// bookkeeping — a warmed multi-megabyte memory image costs `Arc`
    /// bumps, and pages are copied lazily as either side writes.
    ///
    /// Host-side plumbing is deliberately *not* inherited: the child starts
    /// with tracing disabled (call
    /// [`enable_tracing`](System::enable_tracing) for its own session) and
    /// builds its own shard pool lazily. If the parent has an accelerator
    /// attached, the child gets none — use
    /// [`fork_with`](System::fork_with) to carry accelerator state across.
    pub fn fork(&self) -> System {
        let sim_shards = self.sim_shards;
        let mut adapter = self.adapter.clone();
        if let Some(a) = &mut adapter {
            a.clear_tracers();
        }
        let mut mesh = self.mesh.clone();
        mesh.set_tracer(Tracer::disabled());
        let mut l2s = self.l2s.clone();
        for l2 in &mut l2s {
            l2.set_tracer(Tracer::disabled());
        }
        let mut shards = self.shards.clone();
        for s in &mut shards {
            s.set_tracer(Tracer::disabled());
        }
        // Spin marks are derived, like the wake sets: every child core
        // starts awake (the parent's spinners were settled when its last
        // run loop returned).
        let mut cores = self.cores.clone();
        for c in &mut cores {
            c.forget_spin();
        }
        System {
            cfg: self.cfg.clone(),
            dual: self.dual.clone(),
            mesh,
            cores,
            l2s,
            shards,
            adapter,
            accel: None,
            home: self.home.clone(),
            inject_pending: self.inject_pending.clone(),
            inject_pending_total: self.inject_pending_total,
            inject_dirty: self.inject_dirty.clone(),
            core_held: self.core_held.clone(),
            node_roles: self.node_roles.clone(),
            mmio_ids: self.mmio_ids.clone(),
            next_os_mmio_id: self.next_os_mmio_id,
            page_table: self.page_table.clone(),
            os_tasks: self.os_tasks.clone(),
            slow_cdc: self.slow_cdc.clone(),
            stats: self.stats,
            executed_edges: self.executed_edges,
            now: self.now,
            skip_enabled: self.skip_enabled,
            trace: None,
            sys_tracer: Tracer::disabled(),
            accel_tracer: Tracer::disabled(),
            accel_busy: self.accel_busy,
            fault_active: self.fault_active.clone(),
            fault_index: self.fault_index.clone(),
            fault_budget: self
                .fault_budget
                .iter()
                .map(|b| AtomicU64::new(b.load(Ordering::Relaxed)))
                .collect(),
            reorder_stash: self.reorder_stash.clone(),
            mesi_checker: self.mesi_checker.clone(),
            noc_checker: self.noc_checker.clone(),
            adapter_violations: self.adapter_violations,
            pending_violation: self.pending_violation.clone(),
            faults_injected: self.faults_injected,
            fences: self.fences,
            accel_fenced: self.accel_fenced,
            watchdog_sig: self.watchdog_sig,
            watchdog_since: self.watchdog_since,
            sim_shards,
            shard_plan: self.shard_plan.clone(),
            shard_lanes: (0..sim_shards)
                .map(|_| crate::parallel::ShardLane::default())
                .collect(),
            mesh_shards: self.mesh_shards,
            mesh_pool_min_active: self.mesh_pool_min_active,
            shard_pool: None,
            pool_enabled: self.pool_enabled,
            trace_scratch: None,
            wake: crate::parallel::ShardWake::all_awake(&self.shard_plan),
            jobs: Vec::new(),
        }
    }

    /// [`fork`](System::fork), carrying accelerator state into the child.
    ///
    /// `Box<dyn SoftAccelerator>` cannot be cloned, so the caller supplies
    /// a freshly built instance of the *same design*; the parent's
    /// registered state is transferred through the design's
    /// [`Snap`] impl. Fails if this system has no
    /// accelerator or if the fresh instance rejects (or fails to fully
    /// consume) the parent's state.
    pub fn fork_with(&self, mut accel: Box<dyn SoftAccelerator>) -> Result<System, SnapError> {
        let Some(parent) = &self.accel else {
            return Err(SnapError::Corrupt(
                "fork_with on a system without an accelerator",
            ));
        };
        let mut w = SnapWriter::new();
        parent.save(&mut w);
        let buf = w.finish();
        let mut r = SnapReader::new(&buf);
        accel.load(&mut r)?;
        r.expect_end()?;
        let mut child = self.fork();
        child.accel = Some(accel);
        Ok(child)
    }
}
