//! Injectable host I/O for the on-disk store tier.
//!
//! Every byte the [`store`](crate::store) reads or writes goes through
//! the [`HostIo`] trait, so the recovery and degradation paths can be
//! driven deterministically in-process:
//!
//! * [`RealIo`] — the production implementation over `std::fs`.
//! * [`MemIo`] — an in-memory filesystem for hermetic unit tests; its
//!   file contents are directly inspectable and corruptible, which is
//!   how the torn-tail and flipped-CRC recovery tests stage their
//!   damage.
//! * [`FaultyIo`] — a deterministic fault layer over any inner `HostIo`,
//!   seeded like `duet-verify`'s `FaultPlan`: short writes, `EINTR`,
//!   full-disk `ENOSPC`, fsync failures, and read bit-flips, each a pure
//!   function of the seed and the operation counter.
//!
//! The trait is deliberately narrow — append-only writes, whole-file and
//! ranged reads, truncate, sync — because that is the entire I/O surface
//! an append-only segment log needs.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The store's window onto the host filesystem. Implementations must be
/// safe to drive from one thread at a time (the store serializes access
/// behind its own lock).
pub trait HostIo: Send {
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()>;
    /// File names (not paths) of regular files directly inside `dir`.
    fn list_dir(&mut self, dir: &Path) -> io::Result<Vec<String>>;
    /// Reads a whole file.
    fn read_file(&mut self, path: &Path) -> io::Result<Vec<u8>>;
    /// Reads `len` bytes at `offset`. Short files are an error.
    fn read_range(&mut self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>>;
    /// Appends to `path` (creating it if missing), returning how many
    /// bytes were written — **may be fewer than `buf.len()`** (a short
    /// write) or fail with `ErrorKind::Interrupted`; callers loop.
    fn append(&mut self, path: &Path, buf: &[u8]) -> io::Result<usize>;
    /// Flushes `path`'s written data to durable storage.
    fn sync(&mut self, path: &Path) -> io::Result<()>;
    /// Truncates `path` to `len` bytes.
    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()>;
    /// Current length of `path` in bytes.
    fn file_len(&mut self, path: &Path) -> io::Result<u64>;
}

/// Production I/O over `std::fs`. The most recent append handle is
/// cached so a hot append path does not reopen the segment file per
/// record. Only one handle is kept — the store appends to a single
/// active segment at a time, and caching per path would accumulate one
/// open fd per retired segment as rotation walks forward.
#[derive(Default)]
pub struct RealIo {
    appender: Option<(PathBuf, File)>,
}

impl RealIo {
    /// A fresh instance with no open handles.
    pub fn new() -> Self {
        RealIo::default()
    }

    fn appender(&mut self, path: &Path) -> io::Result<&mut File> {
        if self.appender.as_ref().map(|(p, _)| p.as_path()) != Some(path) {
            let f = OpenOptions::new().create(true).append(true).open(path)?;
            self.appender = Some((path.to_path_buf(), f));
        }
        Ok(&mut self.appender.as_mut().expect("set above").1)
    }
}

impl HostIo for RealIo {
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list_dir(&mut self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn read_file(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn read_range(&mut self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut f = File::open(path)?;
        f.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        f.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn append(&mut self, path: &Path, buf: &[u8]) -> io::Result<usize> {
        self.appender(path)?.write(buf)
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        self.appender(path)?.sync_all()
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        // Drop any cached append handle first: append-mode writes ignore
        // the cursor, but a stale handle on some platforms keeps the old
        // length cached.
        if self.appender.as_ref().is_some_and(|(p, _)| p == path) {
            self.appender = None;
        }
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn file_len(&mut self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }
}

/// An in-memory filesystem: `path → bytes`. Deterministic, hermetic, and
/// open to direct inspection/corruption by tests.
#[derive(Default)]
pub struct MemIo {
    files: HashMap<PathBuf, Vec<u8>>,
    dirs: Vec<PathBuf>,
}

impl MemIo {
    /// An empty filesystem.
    pub fn new() -> Self {
        MemIo::default()
    }

    /// Direct access to a file's bytes (test staging: flip bits, truncate
    /// by hand, plant garbage).
    pub fn file_mut(&mut self, path: &Path) -> Option<&mut Vec<u8>> {
        self.files.get_mut(path)
    }

    /// Direct read access to a file's bytes.
    pub fn file(&self, path: &Path) -> Option<&Vec<u8>> {
        self.files.get(path)
    }

    /// Plants a file wholesale.
    pub fn put_file(&mut self, path: &Path, bytes: Vec<u8>) {
        self.files.insert(path.to_path_buf(), bytes);
    }
}

impl HostIo for MemIo {
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        if !self.dirs.iter().any(|d| d == dir) {
            self.dirs.push(dir.to_path_buf());
        }
        Ok(())
    }

    fn list_dir(&mut self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names: Vec<String> = self
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(String::from))
            .collect();
        names.sort();
        Ok(names)
    }

    fn read_file(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        self.files
            .get(path)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn read_range(&mut self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let bytes = self
            .files
            .get(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        let start = usize::try_from(offset)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "offset too large"))?;
        if start + len > bytes.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "read past end of file",
            ));
        }
        Ok(bytes[start..start + len].to_vec())
    }

    fn append(&mut self, path: &Path, buf: &[u8]) -> io::Result<usize> {
        self.files
            .entry(path.to_path_buf())
            .or_default()
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn sync(&mut self, _path: &Path) -> io::Result<()> {
        Ok(())
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        let bytes = self
            .files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
        bytes.truncate(len as usize);
        Ok(())
    }

    fn file_len(&mut self, path: &Path) -> io::Result<u64> {
        self.files
            .get(path)
            .map(|b| b.len() as u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }
}

/// A cloneable handle onto one shared [`MemIo`]: every clone sees the
/// same files. This is how restart tests work — open a store over one
/// handle, drop the store (the "crash"), stage corruption through
/// another handle, and reopen over the same bytes.
#[derive(Clone, Default)]
pub struct SharedMemIo {
    shared: std::sync::Arc<std::sync::Mutex<MemIo>>,
}

impl SharedMemIo {
    /// An empty shared filesystem.
    pub fn new() -> Self {
        SharedMemIo::default()
    }

    /// Runs `f` with direct access to the backing [`MemIo`] (stage
    /// corruption, inspect bytes).
    pub fn with<R>(&self, f: impl FnOnce(&mut MemIo) -> R) -> R {
        f(&mut self.shared.lock().expect("shared mem io lock"))
    }
}

impl HostIo for SharedMemIo {
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        self.with(|m| m.create_dir_all(dir))
    }

    fn list_dir(&mut self, dir: &Path) -> io::Result<Vec<String>> {
        self.with(|m| m.list_dir(dir))
    }

    fn read_file(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        self.with(|m| m.read_file(path))
    }

    fn read_range(&mut self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.with(|m| m.read_range(path, offset, len))
    }

    fn append(&mut self, path: &Path, buf: &[u8]) -> io::Result<usize> {
        self.with(|m| m.append(path, buf))
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        self.with(|m| m.sync(path))
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        self.with(|m| m.truncate(path, len))
    }

    fn file_len(&mut self, path: &Path) -> io::Result<u64> {
        self.with(|m| m.file_len(path))
    }
}

/// Which host-I/O faults to inject and how often. Every field is a pure
/// schedule — there is no wall-clock or OS entropy anywhere — so a given
/// `(plan, operation sequence)` always produces the same failures, the
/// same short-write lengths, and the same flipped bits.
#[derive(Clone, Debug, Default)]
pub struct IoFaultPlan {
    /// Seed mixed into every per-operation decision (short-write split
    /// points, flipped-bit positions).
    pub seed: u64,
    /// Every Nth append call writes only part of the buffer (0 = never).
    pub short_write_every: u64,
    /// Every Nth append call fails with `ErrorKind::Interrupted` before
    /// writing anything (0 = never).
    pub eintr_every: u64,
    /// Appends fail with `ErrorKind::StorageFull` once this many bytes
    /// have been written through this layer (`None` = unlimited disk).
    pub disk_capacity: Option<u64>,
    /// `sync` calls fail after this many successes (`None` = never).
    pub fail_sync_after: Option<u64>,
    /// Every Nth ranged read has one bit flipped in its result (0 =
    /// never). Whole-file recovery reads are left intact so the fault
    /// targets the serving path, not startup.
    pub flip_read_bit_every: u64,
    /// The Nth whole-file read (1-based) fails with an injected I/O
    /// error (`None` = never). Recovery reads segments in sorted order,
    /// so this targets one specific segment during startup replay.
    pub fail_read_file_on: Option<u64>,
}

/// A deterministic fault layer over any [`HostIo`].
pub struct FaultyIo<I: HostIo> {
    inner: I,
    plan: IoFaultPlan,
    appends: u64,
    syncs: u64,
    reads: u64,
    file_reads: u64,
    bytes_written: u64,
}

impl<I: HostIo> FaultyIo<I> {
    /// Wraps `inner`, injecting faults per `plan`.
    pub fn new(inner: I, plan: IoFaultPlan) -> Self {
        FaultyIo {
            inner,
            plan,
            appends: 0,
            syncs: 0,
            reads: 0,
            file_reads: 0,
            bytes_written: 0,
        }
    }

    /// SplitMix-style mix of the seed and an operation counter.
    fn mix(&self, op: u64) -> u64 {
        duet_sim::splitmix64_finalize(
            self.plan
                .seed
                .wrapping_add(op.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    }
}

impl<I: HostIo> HostIo for FaultyIo<I> {
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn list_dir(&mut self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list_dir(dir)
    }

    fn read_file(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        self.file_reads += 1;
        if self.plan.fail_read_file_on == Some(self.file_reads) {
            return Err(io::Error::other("injected whole-file read failure"));
        }
        self.inner.read_file(path)
    }

    fn read_range(&mut self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.reads += 1;
        let mut bytes = self.inner.read_range(path, offset, len)?;
        let every = self.plan.flip_read_bit_every;
        if every != 0 && self.reads.is_multiple_of(every) && !bytes.is_empty() {
            let r = self.mix(self.reads);
            let byte = (r as usize / 8) % bytes.len();
            bytes[byte] ^= 1 << (r % 8);
        }
        Ok(bytes)
    }

    fn append(&mut self, path: &Path, buf: &[u8]) -> io::Result<usize> {
        self.appends += 1;
        let eintr = self.plan.eintr_every;
        if eintr != 0 && self.appends.is_multiple_of(eintr) {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"));
        }
        let mut len = buf.len();
        let short = self.plan.short_write_every;
        if short != 0 && self.appends.is_multiple_of(short) && len > 1 {
            // Deterministic split point somewhere inside the buffer.
            len = 1 + (self.mix(self.appends) as usize % (len - 1));
        }
        if let Some(cap) = self.plan.disk_capacity {
            let room = cap.saturating_sub(self.bytes_written);
            if room == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "injected disk full",
                ));
            }
            len = len.min(room as usize);
        }
        let n = self.inner.append(path, &buf[..len])?;
        self.bytes_written += n as u64;
        Ok(n)
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        if let Some(after) = self.plan.fail_sync_after {
            if self.syncs >= after {
                return Err(io::Error::other("injected fsync failure"));
            }
        }
        self.syncs += 1;
        self.inner.sync(path)
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }

    fn file_len(&mut self, path: &Path) -> io::Result<u64> {
        self.inner.file_len(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_io_round_trips_and_lists() {
        let mut io = MemIo::new();
        let dir = Path::new("/store");
        io.create_dir_all(dir).unwrap();
        let p = dir.join("seg-000001.dlog");
        assert_eq!(io.append(&p, b"hello").unwrap(), 5);
        io.append(&p, b" world").unwrap();
        assert_eq!(io.read_file(&p).unwrap(), b"hello world");
        assert_eq!(io.read_range(&p, 6, 5).unwrap(), b"world");
        assert!(io.read_range(&p, 8, 5).is_err());
        assert_eq!(io.list_dir(dir).unwrap(), vec!["seg-000001.dlog"]);
        io.truncate(&p, 5).unwrap();
        assert_eq!(io.file_len(&p).unwrap(), 5);
    }

    #[test]
    fn faulty_io_is_deterministic() {
        let run = |seed| {
            let plan = IoFaultPlan {
                seed,
                short_write_every: 2,
                eintr_every: 5,
                ..IoFaultPlan::default()
            };
            let mut io = FaultyIo::new(MemIo::new(), plan);
            let p = PathBuf::from("/s/a");
            let mut log = Vec::new();
            for _ in 0..10 {
                match io.append(&p, b"0123456789abcdef") {
                    Ok(n) => log.push(n as i64),
                    Err(_) => log.push(-1),
                }
            }
            log
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "seed must matter for split points");
        assert!(run(7).contains(&-1), "EINTR schedule fires");
    }

    #[test]
    fn faulty_io_disk_capacity_hits_storage_full() {
        let plan = IoFaultPlan {
            disk_capacity: Some(10),
            ..IoFaultPlan::default()
        };
        let mut io = FaultyIo::new(MemIo::new(), plan);
        let p = PathBuf::from("/s/a");
        assert_eq!(io.append(&p, b"0123456789abcdef").unwrap(), 10);
        let err = io.append(&p, b"more").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn faulty_io_sync_fails_after_budget() {
        let plan = IoFaultPlan {
            fail_sync_after: Some(1),
            ..IoFaultPlan::default()
        };
        let mut io = FaultyIo::new(MemIo::new(), plan);
        let p = PathBuf::from("/s/a");
        io.append(&p, b"x").unwrap();
        assert!(io.sync(&p).is_ok());
        assert!(io.sync(&p).is_err());
    }

    #[test]
    fn faulty_io_fails_only_the_scheduled_whole_file_read() {
        let plan = IoFaultPlan {
            fail_read_file_on: Some(2),
            ..IoFaultPlan::default()
        };
        let mut io = FaultyIo::new(MemIo::new(), plan);
        let p = PathBuf::from("/s/a");
        io.append(&p, b"bytes").unwrap();
        assert!(io.read_file(&p).is_ok());
        assert!(io.read_file(&p).is_err(), "second read is the faulted one");
        assert!(io.read_file(&p).is_ok(), "fault is transient");
    }

    #[test]
    fn real_io_keeps_one_append_handle_across_segment_switches() {
        let dir = std::env::temp_dir().join(format!("duet-hostio-appender-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut io = RealIo::new();
        io.create_dir_all(&dir).unwrap();
        let a = dir.join("seg-000001.dlog");
        let b = dir.join("seg-000002.dlog");
        // Alternate paths the way rotation + flush would; the single
        // cached handle must follow the active path without corrupting
        // either file.
        io.append(&a, b"aaa").unwrap();
        io.append(&b, b"bbb").unwrap();
        io.append(&a, b"AAA").unwrap();
        io.sync(&a).unwrap();
        assert!(
            io.appender.as_ref().is_some_and(|(p, _)| p == &a),
            "only the most recent path's handle is cached"
        );
        assert_eq!(io.read_file(&a).unwrap(), b"aaaAAA");
        assert_eq!(io.read_file(&b).unwrap(), b"bbb");
        io.truncate(&a, 3).unwrap();
        assert!(io.appender.is_none(), "truncate drops the cached handle");
        assert_eq!(io.read_file(&a).unwrap(), b"aaa");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulty_io_read_bit_flip_changes_exactly_one_bit() {
        let plan = IoFaultPlan {
            seed: 3,
            flip_read_bit_every: 1,
            ..IoFaultPlan::default()
        };
        let mut io = FaultyIo::new(MemIo::new(), plan);
        let p = PathBuf::from("/s/a");
        io.append(&p, b"abcdefgh").unwrap();
        let clean = io.read_file(&p).unwrap();
        let flipped = io.read_range(&p, 0, 8).unwrap();
        let differing: u32 = clean
            .iter()
            .zip(&flipped)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(differing, 1);
    }
}
