//! The crash-consistent on-disk tier under the result cache: an
//! append-only segment log with CRC-verified records and self-healing
//! recovery.
//!
//! # Format
//!
//! A store directory holds numbered segment files (`seg-000001.dlog`,
//! `seg-000002.dlog`, ...). Each segment starts with the snapshot
//! layer's standard header framing under the store's own magic —
//! [`STORE_MAGIC`], [`STORE_VERSION`], and a layout hash so a reader
//! from a different record-format generation refuses loudly — followed
//! by back-to-back records:
//!
//! ```text
//! ┌──────┬─────────┬─────────────┬───────────────┬───────────┐
//! │ kind │ key u64 │ payload_len │ payload bytes │ crc64 u64 │
//! │  u8  │   LE    │   u64 LE    │               │    LE     │
//! └──────┴─────────┴─────────────┴───────────────┴───────────┘
//!        └────────── CRC covers kind..payload ──────────┘
//! ```
//!
//! `kind` 0 is a put, `kind` 1 a tombstone (payload empty) written when
//! an entry is evicted for cause (`?verify=1` mismatch), so a poisoned
//! result cannot resurrect at the next restart. Within and across
//! segments, the **last record for a key wins**.
//!
//! # Recovery
//!
//! [`DiskStore::open`] replays every segment, byte-verifying each CRC:
//!
//! * a record that ends past the end of its file is a **torn tail** —
//!   the file is truncated back to the last valid record and the write
//!   path resumes from there;
//! * a CRC mismatch on a fully-framed record is a **quarantined
//!   record** — skipped, counted, and scanning continues at the next
//!   record boundary (a middle-of-file bit flip costs one record, not
//!   the segment);
//! * an implausible length or kind byte means framing itself is gone —
//!   the rest of the segment is unrecoverable and is truncated off;
//! * a segment with a bad header (magic/version/layout hash) — or one
//!   whose bytes cannot be read at all — is **skipped whole** and
//!   **sealed**: the active segment advances past it (starting empty),
//!   so appends never land behind records that were not replayed and a
//!   later restart that *can* parse the segment cannot resurrect its
//!   stale values over newer writes.
//!
//! Every decision lands in a structured [`RecoveryReport`] (served at
//! `GET /v1/recovery`, summarized in `/v1/stats`), never a panic.
//!
//! # Degradation
//!
//! A failed append, sync, or rotation marks the store **degraded**: the
//! service keeps answering from the memory tier alone (flag in
//! `/v1/stats`), rather than failing requests. Reads that hit a
//! corrupted record quarantine the entry and report a miss.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use duet_sim::{SnapError, SnapHasher, SnapReader, SnapWriter};

use crate::hostio::HostIo;
use crate::json::{obj, Json};

/// Leading magic of every segment file.
pub const STORE_MAGIC: [u8; 8] = *b"DUETSTR\0";
/// Segment format version. Bump on any layout change.
pub const STORE_VERSION: u32 = 1;
/// Sanity ceiling on a record's payload length; anything larger during
/// recovery means the length field itself is corrupt.
pub const MAX_RECORD_PAYLOAD: u64 = 64 * 1024 * 1024;

/// Fixed bytes before the first record: magic + version + layout hash.
const HEADER_LEN: u64 = 8 + 4 + 8;
/// Bytes of record framing around the payload (kind + key + len + crc).
const RECORD_OVERHEAD: u64 = 1 + 8 + 8 + 8;

const KIND_PUT: u8 = 0;
const KIND_TOMBSTONE: u8 = 1;

/// Hash identifying the record layout, checked in every segment header
/// the way snapshots check the config hash.
pub fn layout_hash() -> u64 {
    let mut h = SnapHasher::new();
    h.bytes(b"duet-store-record-v1:kind,key,len,payload,crc64");
    h.finish()
}

/// Slicing-by-8 tables for CRC-64/XZ (ECMA-182 polynomial, reflected),
/// computed at compile time: `[0]` is the classic byte-at-a-time table and
/// `[k][b]` advances the CRC of byte `b` across `k` further zero bytes.
static CRC64_TABLES: [[u64; 256]; 8] = crc64_tables();

const fn crc64_tables() -> [[u64; 256]; 8] {
    const POLY: u64 = 0xC96C_5795_D787_0F42;
    let mut t = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-64/XZ (ECMA-182 polynomial, reflected), eight bytes per step
/// (slicing-by-8), the tail a byte at a time.
pub fn crc64(bytes: &[u8]) -> u64 {
    let t = &CRC64_TABLES;
    let mut crc = !0u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let x = crc ^ u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        crc = t[7][(x & 0xFF) as usize]
            ^ t[6][((x >> 8) & 0xFF) as usize]
            ^ t[5][((x >> 16) & 0xFF) as usize]
            ^ t[4][((x >> 24) & 0xFF) as usize]
            ^ t[3][((x >> 32) & 0xFF) as usize]
            ^ t[2][((x >> 40) & 0xFF) as usize]
            ^ t[1][((x >> 48) & 0xFF) as usize]
            ^ t[0][(x >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// When the store calls `fsync` on the active segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// After every append — a record acknowledged is a record durable.
    Always,
    /// Never (the OS flushes on its own schedule); crash-consistent but
    /// the unsynced tail may be lost. Recovery handles either way.
    Never,
}

impl FsyncPolicy {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }
}

/// Store construction parameters.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Directory holding the segment files.
    pub dir: PathBuf,
    /// Durability policy for appends.
    pub fsync: FsyncPolicy,
    /// Roll to a new segment once the active one reaches this size.
    pub segment_max_bytes: u64,
}

impl StoreConfig {
    /// Defaults: fsync on every append, 8 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            segment_max_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Why part of a segment was not recovered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Damage {
    /// Record framing ran past the end of the file (crash mid-append).
    TornTail,
    /// A fully-framed record whose CRC did not match its bytes.
    CrcMismatch,
    /// A length field beyond [`MAX_RECORD_PAYLOAD`]; framing is lost.
    BadLength,
    /// An unknown record kind byte; framing is lost.
    BadKind,
}

impl Damage {
    fn label(self) -> &'static str {
        match self {
            Damage::TornTail => "torn_tail",
            Damage::CrcMismatch => "crc_mismatch",
            Damage::BadLength => "bad_length",
            Damage::BadKind => "bad_kind",
        }
    }
}

/// One recovery decision inside one segment.
#[derive(Clone, Debug)]
pub struct QuarantineNote {
    /// Byte offset of the offending record.
    pub offset: u64,
    /// What was wrong with it.
    pub damage: Damage,
}

/// What recovery found in one segment file.
#[derive(Clone, Debug)]
pub struct SegmentReport {
    /// File name inside the store directory.
    pub file: String,
    /// `recovered`, `empty`, or `skipped` (bad header).
    pub status: &'static str,
    /// Records whose CRC verified and that entered the index.
    pub records: u64,
    /// Per-record quarantine decisions.
    pub quarantined: Vec<QuarantineNote>,
    /// Bytes cut off the end of the file (torn tail / lost framing).
    pub truncated_bytes: u64,
    /// Header error text when `status == "skipped"`.
    pub header_error: Option<String>,
}

impl SegmentReport {
    fn to_json(&self) -> Json {
        obj([
            ("file", Json::Str(self.file.clone())),
            ("status", Json::Str(self.status.to_string())),
            ("records", Json::U64(self.records)),
            (
                "quarantined",
                Json::Arr(
                    self.quarantined
                        .iter()
                        .map(|q| {
                            obj([
                                ("offset", Json::U64(q.offset)),
                                ("damage", Json::Str(q.damage.label().to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("truncated_bytes", Json::U64(self.truncated_bytes)),
            (
                "header_error",
                self.header_error
                    .clone()
                    .map(Json::Str)
                    .unwrap_or(Json::Null),
            ),
        ])
    }
}

/// The structured outcome of startup recovery: every segment's verdict
/// plus aggregate counts. Served verbatim at `GET /v1/recovery`.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Per-segment decisions in replay order.
    pub segments: Vec<SegmentReport>,
    /// Distinct keys live in the index after replay.
    pub live_entries: u64,
    /// CRC-verified records replayed (includes superseded duplicates).
    pub recovered_records: u64,
    /// Records dropped for CRC mismatch.
    pub quarantined_records: u64,
    /// Bytes truncated off torn tails.
    pub truncated_bytes: u64,
    /// Segments skipped whole for bad headers.
    pub skipped_segments: u64,
}

impl RecoveryReport {
    /// The report as a JSON object.
    pub fn to_json(&self) -> Json {
        obj([
            (
                "segments",
                Json::Arr(self.segments.iter().map(|s| s.to_json()).collect()),
            ),
            ("live_entries", Json::U64(self.live_entries)),
            ("recovered_records", Json::U64(self.recovered_records)),
            ("quarantined_records", Json::U64(self.quarantined_records)),
            ("truncated_bytes", Json::U64(self.truncated_bytes)),
            ("skipped_segments", Json::U64(self.skipped_segments)),
        ])
    }

    /// One-line human summary for the startup log.
    pub fn summary(&self) -> String {
        format!(
            "store recovery: {} live entries from {} segments ({} records replayed, {} quarantined, {} torn-tail bytes truncated, {} segments skipped)",
            self.live_entries,
            self.segments.len(),
            self.recovered_records,
            self.quarantined_records,
            self.truncated_bytes,
            self.skipped_segments,
        )
    }
}

/// Counters for `/v1/stats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Whether the disk tier has failed over to memory-only.
    pub degraded: bool,
    /// Records appended since startup.
    pub appended_records: u64,
    /// Bytes appended since startup.
    pub appended_bytes: u64,
    /// Appends that failed (each one degrades the store).
    pub append_errors: u64,
    /// Lookups served by reading a record back off disk.
    pub disk_reads: u64,
    /// Disk reads that failed CRC verification (entry quarantined).
    pub disk_read_corrupt: u64,
    /// Keys currently resolvable from disk.
    pub indexed_entries: u64,
    /// CRC-verified records replayed at startup.
    pub recovered_records: u64,
    /// Records quarantined at startup.
    pub quarantined_records: u64,
}

/// Where a key's latest record lives.
#[derive(Clone, Copy, Debug)]
struct RecordLoc {
    segment: u64,
    /// Offset of the record's first byte (the kind byte).
    offset: u64,
    payload_len: u64,
}

struct StoreInner {
    io: Box<dyn HostIo>,
    index: std::collections::HashMap<u64, RecordLoc>,
    /// Id of the segment currently accepting appends.
    active_id: u64,
    /// Byte length of the active segment.
    active_len: u64,
}

/// The durable tier: one instance per service, shared behind the cache.
pub struct DiskStore {
    cfg: StoreConfig,
    inner: Mutex<StoreInner>,
    report: RecoveryReport,
    degraded: AtomicBool,
    appended_records: AtomicU64,
    appended_bytes: AtomicU64,
    append_errors: AtomicU64,
    disk_reads: AtomicU64,
    disk_read_corrupt: AtomicU64,
}

fn segment_name(id: u64) -> String {
    format!("seg-{id:06}.dlog")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let id = name.strip_prefix("seg-")?.strip_suffix(".dlog")?;
    id.parse().ok()
}

fn read_le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// Serializes one record (framing + CRC trailer).
fn encode_record(kind: u8, key: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + RECORD_OVERHEAD as usize);
    buf.push(kind);
    buf.extend_from_slice(&key.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    let crc = crc64(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// What `scan_segment` decided about one segment's bytes. Pure function
/// of the bytes — no I/O — so the recovery rules are unit-testable in
/// isolation.
struct SegmentScan {
    /// `(kind, key, record_offset, payload_len)` of every valid record.
    records: Vec<(u8, u64, u64, u64)>,
    /// Offset the file should be truncated to (`< file len` when a torn
    /// or unframable tail was found).
    valid_len: u64,
    quarantined: Vec<QuarantineNote>,
    header_error: Option<String>,
}

fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut scan = SegmentScan {
        records: Vec::new(),
        valid_len: bytes.len() as u64,
        quarantined: Vec::new(),
        header_error: None,
    };
    if bytes.is_empty() {
        // A file created but never written (or truncated to nothing):
        // valid, empty; the append path re-writes the header.
        scan.valid_len = 0;
        return scan;
    }
    match SnapReader::with_custom_header(bytes, STORE_MAGIC, STORE_VERSION, layout_hash()) {
        Ok(_) => {}
        Err(SnapError::Truncated) => {
            // Crash inside the header write: nothing after it can exist,
            // so reset the file to empty.
            scan.valid_len = 0;
            scan.quarantined.push(QuarantineNote {
                offset: 0,
                damage: Damage::TornTail,
            });
            return scan;
        }
        Err(e) => {
            scan.header_error = Some(e.to_string());
            return scan;
        }
    }
    let len = bytes.len() as u64;
    let mut o = HEADER_LEN;
    loop {
        if o == len {
            break;
        }
        let rem = len - o;
        if rem < RECORD_OVERHEAD {
            scan.quarantined.push(QuarantineNote {
                offset: o,
                damage: Damage::TornTail,
            });
            scan.valid_len = o;
            break;
        }
        let at = o as usize;
        let kind = bytes[at];
        if kind > KIND_TOMBSTONE {
            scan.quarantined.push(QuarantineNote {
                offset: o,
                damage: Damage::BadKind,
            });
            scan.valid_len = o;
            break;
        }
        let key = read_le_u64(&bytes[at + 1..]);
        let payload_len = read_le_u64(&bytes[at + 9..]);
        if payload_len > MAX_RECORD_PAYLOAD {
            scan.quarantined.push(QuarantineNote {
                offset: o,
                damage: Damage::BadLength,
            });
            scan.valid_len = o;
            break;
        }
        let total = RECORD_OVERHEAD + payload_len;
        if rem < total {
            scan.quarantined.push(QuarantineNote {
                offset: o,
                damage: Damage::TornTail,
            });
            scan.valid_len = o;
            break;
        }
        let body_end = at + (total - 8) as usize;
        let stored = read_le_u64(&bytes[body_end..]);
        if crc64(&bytes[at..body_end]) != stored {
            // Framing is intact (lengths were plausible), so quarantine
            // just this record and keep scanning.
            scan.quarantined.push(QuarantineNote {
                offset: o,
                damage: Damage::CrcMismatch,
            });
        } else {
            scan.records.push((kind, key, o, payload_len));
        }
        o += total;
    }
    scan
}

impl DiskStore {
    /// Opens (or creates) the store, replaying and repairing every
    /// segment. I/O errors during recovery skip the affected segment
    /// rather than failing the open; only an unusable directory is a
    /// hard error.
    pub fn open(cfg: StoreConfig, mut io: Box<dyn HostIo>) -> io::Result<DiskStore> {
        io.create_dir_all(&cfg.dir)?;
        let mut names: Vec<(u64, String)> = io
            .list_dir(&cfg.dir)?
            .into_iter()
            .filter_map(|n| parse_segment_name(&n).map(|id| (id, n)))
            .collect();
        names.sort();

        let mut report = RecoveryReport::default();
        let mut index = std::collections::HashMap::new();
        let mut active_id = 1u64;
        let mut active_len = 0u64;
        for (id, name) in &names {
            let path = cfg.dir.join(name);
            let bytes = match io.read_file(&path) {
                Ok(b) => b,
                Err(e) => {
                    report.segments.push(SegmentReport {
                        file: name.clone(),
                        status: "skipped",
                        records: 0,
                        quarantined: Vec::new(),
                        truncated_bytes: 0,
                        header_error: Some(format!("read failed: {e}")),
                    });
                    report.skipped_segments += 1;
                    // Seal the unreadable segment: if appends landed in a
                    // lower-numbered segment and a later restart *could*
                    // read this one, its stale records would replay after
                    // them (replay is in segment-id order, last record
                    // wins) and resurrect overwritten or tombstoned
                    // values.
                    active_id = active_id.max(id + 1);
                    active_len = 0;
                    continue;
                }
            };
            let scan = scan_segment(&bytes);
            if let Some(err) = scan.header_error {
                report.segments.push(SegmentReport {
                    file: name.clone(),
                    status: "skipped",
                    records: 0,
                    quarantined: Vec::new(),
                    truncated_bytes: 0,
                    header_error: Some(err),
                });
                report.skipped_segments += 1;
                // Never append into a segment we cannot parse; make sure
                // the next active id clears it. The new active segment
                // was never scanned, so it starts empty — a stale
                // active_len here would make the first append skip the
                // header write and index records at shifted offsets.
                active_id = active_id.max(id + 1);
                active_len = 0;
                continue;
            }
            let truncated = bytes.len() as u64 - scan.valid_len;
            if truncated > 0 {
                // Physically cut the damaged tail so future appends land
                // on a valid record boundary. If the host refuses, seal
                // the segment by rolling past it.
                if io.truncate(&path, scan.valid_len).is_err() {
                    active_id = active_id.max(id + 1);
                    active_len = 0;
                }
            }
            for (kind, key, offset, payload_len) in &scan.records {
                match *kind {
                    KIND_PUT => {
                        index.insert(
                            *key,
                            RecordLoc {
                                segment: *id,
                                offset: *offset,
                                payload_len: *payload_len,
                            },
                        );
                    }
                    _ => {
                        index.remove(key);
                    }
                }
            }
            report.recovered_records += scan.records.len() as u64;
            report.quarantined_records += scan
                .quarantined
                .iter()
                .filter(|q| q.damage == Damage::CrcMismatch)
                .count() as u64;
            report.truncated_bytes += truncated;
            report.segments.push(SegmentReport {
                file: name.clone(),
                status: if scan.valid_len <= HEADER_LEN {
                    "empty"
                } else {
                    "recovered"
                },
                records: scan.records.len() as u64,
                quarantined: scan.quarantined,
                truncated_bytes: truncated,
                header_error: None,
            });
            if *id >= active_id {
                active_id = *id;
                active_len = scan.valid_len;
            }
        }
        report.live_entries = index.len() as u64;
        Ok(DiskStore {
            cfg,
            inner: Mutex::new(StoreInner {
                io,
                index,
                active_id,
                active_len,
            }),
            report,
            degraded: AtomicBool::new(false),
            appended_records: AtomicU64::new(0),
            appended_bytes: AtomicU64::new(0),
            append_errors: AtomicU64::new(0),
            disk_reads: AtomicU64::new(0),
            disk_read_corrupt: AtomicU64::new(0),
        })
    }

    /// The startup recovery report.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// Whether the store has failed over to memory-only.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Counter snapshot for `/v1/stats`.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            degraded: self.is_degraded(),
            appended_records: self.appended_records.load(Ordering::Relaxed),
            appended_bytes: self.appended_bytes.load(Ordering::Relaxed),
            append_errors: self.append_errors.load(Ordering::Relaxed),
            disk_reads: self.disk_reads.load(Ordering::Relaxed),
            disk_read_corrupt: self.disk_read_corrupt.load(Ordering::Relaxed),
            indexed_entries: self.inner.lock().expect("store lock").index.len() as u64,
            recovered_records: self.report.recovered_records,
            quarantined_records: self.report.quarantined_records,
        }
    }

    /// Whether `key` is currently resolvable from disk. The cache's
    /// promotion path re-checks this after re-inserting a disk-read
    /// payload into memory, closing the race with a concurrent
    /// evict-for-cause tombstone.
    pub fn contains(&self, key: u64) -> bool {
        self.inner
            .lock()
            .expect("store lock")
            .index
            .contains_key(&key)
    }

    /// Keys currently resolvable from disk, sorted (deterministic — used
    /// by the restart-verification tests).
    pub fn keys(&self) -> Vec<u64> {
        let inner = self.inner.lock().expect("store lock");
        let mut keys: Vec<u64> = inner.index.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    fn mark_degraded(&self) {
        self.append_errors.fetch_add(1, Ordering::Relaxed);
        self.degraded.store(true, Ordering::Relaxed);
    }

    /// Appends a put record. On any I/O failure the store degrades
    /// (memory-only) instead of propagating the error to the request.
    pub fn append(&self, key: u64, payload: &[u8]) {
        self.append_record(KIND_PUT, key, payload);
    }

    /// Appends a tombstone so an evicted-for-cause entry stays dead
    /// across restarts.
    pub fn append_tombstone(&self, key: u64) {
        self.append_record(KIND_TOMBSTONE, key, b"");
    }

    fn append_record(&self, kind: u8, key: u64, payload: &[u8]) {
        if self.is_degraded() {
            // Appends are lost while degraded, but a tombstone must
            // still drop the key from the index, or the poisoned record
            // would keep being served from disk for the rest of this
            // process (the durable tombstone is forfeited along with
            // everything else durability promised).
            if kind == KIND_TOMBSTONE {
                self.inner.lock().expect("store lock").index.remove(&key);
            }
            return;
        }
        let record = encode_record(kind, key, payload);
        let mut inner = self.inner.lock().expect("store lock");
        match Self::write_record(&self.cfg, &mut inner, &record) {
            Ok(offset) => {
                self.appended_records.fetch_add(1, Ordering::Relaxed);
                self.appended_bytes
                    .fetch_add(record.len() as u64, Ordering::Relaxed);
                match kind {
                    KIND_PUT => {
                        let segment = inner.active_id;
                        inner.index.insert(
                            key,
                            RecordLoc {
                                segment,
                                offset,
                                payload_len: payload.len() as u64,
                            },
                        );
                    }
                    _ => {
                        inner.index.remove(&key);
                    }
                }
            }
            Err(_) => {
                // Same index rule as the degraded fast path above: a
                // tombstone whose record failed to persist still kills
                // the in-memory entry.
                if kind == KIND_TOMBSTONE {
                    inner.index.remove(&key);
                }
                self.mark_degraded();
            }
        }
    }

    /// Writes one record durably, handling header creation, rotation,
    /// short writes, and `EINTR`. Returns the record's offset.
    fn write_record(cfg: &StoreConfig, inner: &mut StoreInner, record: &[u8]) -> io::Result<u64> {
        // Rotate once the active segment is at capacity (header-only
        // segments never rotate, however large the record).
        if inner.active_len >= cfg.segment_max_bytes && inner.active_len > HEADER_LEN {
            inner.active_id += 1;
            inner.active_len = 0;
        }
        let path = cfg.dir.join(segment_name(inner.active_id));
        if inner.active_len == 0 {
            let header =
                SnapWriter::with_custom_header(STORE_MAGIC, STORE_VERSION, layout_hash()).finish();
            Self::write_all(inner.io.as_mut(), &path, &header)?;
            inner.active_len = header.len() as u64;
        }
        let offset = inner.active_len;
        if let Err(e) = Self::write_all(inner.io.as_mut(), &path, record) {
            // A partial record may now be on disk (a torn tail for the
            // next recovery). Try to cut it back; either way the store
            // is degraded by the caller.
            let _ = inner.io.truncate(&path, offset);
            return Err(e);
        }
        if cfg.fsync == FsyncPolicy::Always {
            inner.io.sync(&path)?;
        }
        inner.active_len += record.len() as u64;
        Ok(offset)
    }

    fn write_all(io: &mut dyn HostIo, path: &Path, mut buf: &[u8]) -> io::Result<()> {
        while !buf.is_empty() {
            match io.append(path, buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "append made no progress",
                    ))
                }
                Ok(n) => buf = &buf[n..],
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads a key's payload back off disk, byte-verifying its CRC. A
    /// record that fails verification is quarantined (dropped from the
    /// index) and reported as a miss.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let mut inner = self.inner.lock().expect("store lock");
        let loc = *inner.index.get(&key)?;
        let path = self.cfg.dir.join(segment_name(loc.segment));
        let total = (RECORD_OVERHEAD + loc.payload_len) as usize;
        self.disk_reads.fetch_add(1, Ordering::Relaxed);
        let bytes = match inner.io.read_range(&path, loc.offset, total) {
            Ok(b) => b,
            Err(_) => {
                inner.index.remove(&key);
                self.disk_read_corrupt.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let body_end = total - 8;
        let stored = read_le_u64(&bytes[body_end..]);
        if crc64(&bytes[..body_end]) != stored {
            inner.index.remove(&key);
            self.disk_read_corrupt.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(bytes[17..body_end].to_vec())
    }

    /// Syncs the active segment (graceful drain calls this before exit).
    pub fn flush(&self) {
        let mut inner = self.inner.lock().expect("store lock");
        if inner.active_len == 0 {
            return;
        }
        let path = self.cfg.dir.join(segment_name(inner.active_id));
        if inner.io.sync(&path).is_err() {
            self.mark_degraded();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostio::{FaultyIo, IoFaultPlan, MemIo, SharedMemIo};

    fn mem_store(dir: &str) -> DiskStore {
        DiskStore::open(StoreConfig::new(dir), Box::new(MemIo::new())).unwrap()
    }

    #[test]
    fn crc64_matches_reference_vector() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    /// The byte-at-a-time CRC-64/XZ every segment was first written with:
    /// the reference the sliced implementation must equal.
    fn crc64_bytewise(bytes: &[u8]) -> u64 {
        const POLY: u64 = 0xC96C_5795_D787_0F42;
        let mut table = [0u64; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u64;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        let mut crc = !0u64;
        for &b in bytes {
            crc = table[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn sliced_crc64_equals_the_bytewise_reference() {
        // xorshift64: seeded, dependency-free test bytes.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let buf: Vec<u8> = (0..80).map(|_| next() as u8).collect();
        // Every length through nine words, from every start offset, so
        // every word/tail split and alignment is covered.
        for start in 0..8 {
            for len in 0..=72 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc64(bytes),
                    crc64_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
        for _ in 0..64 {
            let len = (next() % (64 * 1024 + 1)) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc64(&bytes), crc64_bytewise(&bytes), "len {len}");
        }
        let zeros = vec![0u8; 64 * 1024];
        assert_eq!(crc64(&zeros), crc64_bytewise(&zeros));
        let ones = vec![0xFFu8; 64 * 1024 - 3];
        assert_eq!(crc64(&ones), crc64_bytewise(&ones));
    }

    #[test]
    fn append_get_roundtrip_and_tombstone() {
        let s = mem_store("/s");
        s.append(1, b"alpha");
        s.append(2, b"beta");
        assert_eq!(s.get(1).unwrap(), b"alpha");
        assert_eq!(s.get(2).unwrap(), b"beta");
        assert_eq!(s.keys(), vec![1, 2]);
        s.append_tombstone(1);
        assert!(s.get(1).is_none());
        assert_eq!(s.keys(), vec![2]);
        assert!(!s.is_degraded());
    }

    #[test]
    fn last_record_for_a_key_wins() {
        let s = mem_store("/s");
        s.append(7, b"old");
        s.append(7, b"new");
        assert_eq!(s.get(7).unwrap(), b"new");
    }

    #[test]
    fn scan_segment_flags_each_damage_kind() {
        // Build a valid two-record segment by hand.
        let mut bytes =
            SnapWriter::with_custom_header(STORE_MAGIC, STORE_VERSION, layout_hash()).finish();
        let r1_at = bytes.len();
        bytes.extend_from_slice(&encode_record(KIND_PUT, 1, b"one"));
        let r2_at = bytes.len();
        bytes.extend_from_slice(&encode_record(KIND_PUT, 2, b"two"));

        let clean = scan_segment(&bytes);
        assert_eq!(clean.records.len(), 2);
        assert_eq!(clean.valid_len, bytes.len() as u64);
        assert!(clean.quarantined.is_empty());

        // Torn tail: cut mid-way through record 2.
        let torn = scan_segment(&bytes[..r2_at + 5]);
        assert_eq!(torn.records.len(), 1);
        assert_eq!(torn.valid_len, r2_at as u64);
        assert_eq!(torn.quarantined[0].damage, Damage::TornTail);

        // Flipped payload byte in record 1: quarantined, record 2 kept.
        let mut flipped = bytes.clone();
        flipped[r1_at + 18] ^= 0x40;
        let scan = scan_segment(&flipped);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].1, 2);
        assert_eq!(scan.quarantined[0].damage, Damage::CrcMismatch);
        assert_eq!(scan.valid_len, bytes.len() as u64, "no truncation");

        // Corrupt length field: rest of segment unframable.
        let mut badlen = bytes.clone();
        badlen[r1_at + 9..r1_at + 17].copy_from_slice(&u64::MAX.to_le_bytes());
        let scan = scan_segment(&badlen);
        assert_eq!(scan.records.len(), 0);
        assert_eq!(scan.valid_len, r1_at as u64);
        assert_eq!(scan.quarantined[0].damage, Damage::BadLength);

        // Bad header magic: segment skipped whole.
        let mut badmagic = bytes.clone();
        badmagic[0] ^= 0xFF;
        assert!(scan_segment(&badmagic).header_error.is_some());

        // Empty file is valid and empty.
        let empty = scan_segment(&[]);
        assert!(empty.records.is_empty() && empty.header_error.is_none());
    }

    #[test]
    fn reopen_recovers_entries_byte_identically() {
        let fs = SharedMemIo::new();
        {
            let s = DiskStore::open(StoreConfig::new("/s"), Box::new(fs.clone())).unwrap();
            s.append(10, b"payload-ten");
            s.append(11, b"payload-eleven");
            s.append_tombstone(11);
        } // dropped without any shutdown protocol — a "crash"
        let s = DiskStore::open(StoreConfig::new("/s"), Box::new(fs.clone())).unwrap();
        let report = s.recovery_report();
        assert_eq!(report.live_entries, 1);
        assert_eq!(report.recovered_records, 3, "two puts + one tombstone");
        assert_eq!(report.quarantined_records, 0);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(s.get(10).unwrap(), b"payload-ten");
        assert!(s.get(11).is_none(), "tombstone survives restart");
    }

    #[test]
    fn reopen_truncates_torn_tail_and_keeps_earlier_records() {
        let fs = SharedMemIo::new();
        {
            let s = DiskStore::open(StoreConfig::new("/s"), Box::new(fs.clone())).unwrap();
            s.append(1, b"kept");
            s.append(2, b"torn-away");
        }
        // Tear the tail: chop 4 bytes off the last record.
        let path = Path::new("/s").join(segment_name(1));
        fs.with(|m| {
            let f = m.file_mut(&path).unwrap();
            let n = f.len();
            f.truncate(n - 4);
        });
        let s = DiskStore::open(StoreConfig::new("/s"), Box::new(fs.clone())).unwrap();
        assert_eq!(s.get(1).unwrap(), b"kept");
        assert!(s.get(2).is_none());
        let report = s.recovery_report();
        assert!(report.truncated_bytes > 0);
        assert_eq!(report.segments[0].quarantined[0].damage, Damage::TornTail);
        // The torn bytes were physically removed, so appends resume on a
        // valid boundary and a third open sees all three records clean.
        s.append(3, b"after-repair");
        drop(s);
        let s = DiskStore::open(StoreConfig::new("/s"), Box::new(fs.clone())).unwrap();
        assert_eq!(s.get(1).unwrap(), b"kept");
        assert_eq!(s.get(3).unwrap(), b"after-repair");
        assert_eq!(s.recovery_report().truncated_bytes, 0);
    }

    #[test]
    fn reopen_skips_bad_header_segment_without_crashing() {
        let fs = SharedMemIo::new();
        {
            let s = DiskStore::open(StoreConfig::new("/s"), Box::new(fs.clone())).unwrap();
            s.append(1, b"one");
        }
        let path = Path::new("/s").join(segment_name(1));
        fs.with(|m| m.file_mut(&path).unwrap()[0] ^= 0xFF);
        let s = DiskStore::open(StoreConfig::new("/s"), Box::new(fs.clone())).unwrap();
        assert_eq!(s.recovery_report().skipped_segments, 1);
        assert!(s.get(1).is_none());
        // New appends must not land in the unreadable segment.
        s.append(2, b"two");
        drop(s);
        let s = DiskStore::open(StoreConfig::new("/s"), Box::new(fs)).unwrap();
        assert_eq!(s.get(2).unwrap(), b"two");
    }

    #[test]
    fn sealing_the_newest_segment_resets_active_len() {
        // Two damaged segments at once: the second-newest loses its tail
        // (recovery truncates it below the rotation threshold) and the
        // newest loses its header (recovery seals it). The new active
        // segment must start empty — a stale active_len would make the
        // first post-recovery append skip the header write and index the
        // record at a shifted offset, silently losing every new write at
        // the next restart.
        let fs = SharedMemIo::new();
        let mut cfg = StoreConfig::new("/s");
        cfg.segment_max_bytes = 128;
        {
            let s = DiskStore::open(cfg.clone(), Box::new(fs.clone())).unwrap();
            for k in 0..8 {
                s.append(k, &[k as u8; 40]); // two records per segment
            }
        }
        fs.with(|m| {
            let f = m.file_mut(&Path::new("/s").join(segment_name(3))).unwrap();
            let n = f.len();
            f.truncate(n - 4);
            m.file_mut(&Path::new("/s").join(segment_name(4))).unwrap()[0] ^= 0xFF;
        });
        let s = DiskStore::open(cfg.clone(), Box::new(fs.clone())).unwrap();
        assert_eq!(s.recovery_report().skipped_segments, 1);
        s.append(100, b"post-recovery");
        assert_eq!(s.get(100).unwrap(), b"post-recovery");
        drop(s);
        let s = DiskStore::open(cfg, Box::new(fs)).unwrap();
        assert_eq!(
            s.get(100).unwrap(),
            b"post-recovery",
            "post-recovery writes must survive the next restart"
        );
        assert_eq!(s.get(0).unwrap(), vec![0u8; 40], "undamaged segment kept");
        assert_eq!(
            s.get(4).unwrap(),
            vec![4u8; 40],
            "record before the tear kept"
        );
        assert!(s.get(6).is_none(), "sealed segment's records are gone");
    }

    #[test]
    fn read_failed_segment_is_sealed_so_stale_records_cannot_resurrect() {
        let fs = SharedMemIo::new();
        let mut cfg = StoreConfig::new("/s");
        cfg.segment_max_bytes = 128;
        {
            let s = DiskStore::open(cfg.clone(), Box::new(fs.clone())).unwrap();
            s.append(7, &[1u8; 40]);
            s.append(8, &[2u8; 40]); // fills segment 1
            s.append(7, &[3u8; 40]); // rotates; key 7's newer value is in segment 2
        }
        // Segment 2's read fails transiently at this open: it must be
        // sealed, not left as the append target — otherwise the write
        // below would land behind its un-replayed records and the stale
        // value would win the replay at the next restart.
        let plan = IoFaultPlan {
            fail_read_file_on: Some(2),
            ..IoFaultPlan::default()
        };
        let s = DiskStore::open(cfg.clone(), Box::new(FaultyIo::new(fs.clone(), plan))).unwrap();
        assert_eq!(s.recovery_report().skipped_segments, 1);
        s.append(7, b"newest");
        drop(s);
        let s = DiskStore::open(cfg, Box::new(fs)).unwrap();
        assert_eq!(
            s.get(7).unwrap(),
            b"newest",
            "replay order is segment-id order; the post-recovery write must win"
        );
        assert_eq!(s.get(8).unwrap(), vec![2u8; 40]);
    }

    #[test]
    fn tombstone_while_degraded_still_kills_the_index_entry() {
        let plan = IoFaultPlan {
            disk_capacity: Some(256),
            ..IoFaultPlan::default()
        };
        let s = DiskStore::open(
            StoreConfig::new("/s"),
            Box::new(FaultyIo::new(MemIo::new(), plan)),
        )
        .unwrap();
        s.append(1, &[0xAB; 64]);
        assert_eq!(s.get(1).unwrap(), vec![0xAB; 64]);
        s.append(2, &[0xCD; 200]); // blows the budget
        assert!(s.is_degraded());
        s.append_tombstone(1);
        assert!(
            s.get(1).is_none(),
            "a degraded store must not keep serving a tombstoned entry"
        );
    }

    #[test]
    fn full_disk_degrades_instead_of_erroring() {
        let plan = IoFaultPlan {
            disk_capacity: Some(64),
            ..IoFaultPlan::default()
        };
        let io = FaultyIo::new(MemIo::new(), plan);
        let s = DiskStore::open(StoreConfig::new("/s"), Box::new(io)).unwrap();
        s.append(1, &[0xAB; 16]);
        s.append(2, &[0xCD; 64]); // blows the 64-byte budget
        assert!(s.is_degraded());
        assert!(s.stats().append_errors >= 1);
        // Degraded stores drop appends silently; no panic, no error.
        s.append(3, b"after");
        assert!(s.get(3).is_none());
    }

    #[test]
    fn failed_fsync_degrades() {
        let plan = IoFaultPlan {
            fail_sync_after: Some(1),
            ..IoFaultPlan::default()
        };
        let io = FaultyIo::new(MemIo::new(), plan);
        let s = DiskStore::open(StoreConfig::new("/s"), Box::new(io)).unwrap();
        s.append(1, b"first"); // sync #1 succeeds
        assert!(!s.is_degraded());
        s.append(2, b"second"); // sync #2 fails
        assert!(s.is_degraded());
    }

    #[test]
    fn short_writes_and_eintr_are_absorbed() {
        let plan = IoFaultPlan {
            seed: 11,
            short_write_every: 2,
            eintr_every: 3,
            ..IoFaultPlan::default()
        };
        let io = FaultyIo::new(MemIo::new(), plan);
        let s = DiskStore::open(StoreConfig::new("/s"), Box::new(io)).unwrap();
        for k in 0..20 {
            s.append(k, format!("payload-{k}").as_bytes());
        }
        assert!(!s.is_degraded(), "retry loop must absorb benign faults");
        for k in 0..20 {
            assert_eq!(s.get(k).unwrap(), format!("payload-{k}").as_bytes());
        }
    }

    #[test]
    fn segment_rotation_keeps_all_entries_reachable() {
        let mut cfg = StoreConfig::new("/s");
        cfg.segment_max_bytes = 128; // force frequent rotation
        let s = DiskStore::open(cfg, Box::new(MemIo::new())).unwrap();
        for k in 0..32 {
            s.append(k, &[k as u8; 40]);
        }
        for k in 0..32 {
            assert_eq!(s.get(k).unwrap(), vec![k as u8; 40]);
        }
        assert_eq!(s.stats().indexed_entries, 32);
    }

    #[test]
    fn read_bit_flip_quarantines_the_entry() {
        let plan = IoFaultPlan {
            seed: 5,
            flip_read_bit_every: 1,
            ..IoFaultPlan::default()
        };
        let io = FaultyIo::new(MemIo::new(), plan);
        let s = DiskStore::open(StoreConfig::new("/s"), Box::new(io)).unwrap();
        s.append(9, b"fragile");
        assert!(s.get(9).is_none(), "flipped read must fail CRC");
        assert_eq!(s.stats().disk_read_corrupt, 1);
        assert_eq!(s.stats().indexed_entries, 0, "entry quarantined");
    }
}
