//! Versioned binary snapshots of simulation state.
//!
//! Every stateful crate in the workspace implements [`Snap`] for its
//! components so a whole `System` can be checkpointed mid-run and
//! restored — in the same process or a fresh one — with bit-identical
//! continuation (same fingerprints, metrics, and traces as an
//! uninterrupted run). The format is deliberately simple and loud:
//!
//! * a fixed magic (`DUETSNP\0`) and a [`FORMAT_VERSION`], so readers
//!   from a different format generation fail with a typed error rather
//!   than misinterpreting bytes;
//! * a 64-bit configuration hash — the snapshot carries *state only*,
//!   never structure, so restore requires a `System` rebuilt from the
//!   exact same `SystemConfig` (the hash is checked before any section
//!   is read);
//! * tagged, length-prefixed sections: each component's state is framed
//!   by a 4-byte ASCII tag and a byte length, and the reader verifies
//!   both the tag and that the section was consumed exactly — a
//!   component whose layout drifted produces [`SnapError::TagMismatch`]
//!   or [`SnapError::TrailingBytes`], never a silent misparse.
//!
//! Two traits split the work:
//!
//! * [`Pack`] — self-describing *values* (integers, times, messages,
//!   containers of packable things) that can be written and
//!   reconstructed from bytes alone.
//! * [`Snap`] — *components* that are rebuilt from configuration and
//!   then overwritten in place: `save` serializes the mutable state,
//!   `load` restores it into an already-constructed instance.
//!
//! Impls are declared, not written: [`pack_struct!`](crate::pack_struct),
//! [`pack_enum!`](crate::pack_enum) and [`snap_fields!`](crate::snap_fields)
//! generate both directions from one field list, so what `save` writes
//! and what `load` reads cannot drift apart. Only the base encodings in
//! this file, and the few containers that transform rather than list
//! (each says why), are written by hand.
//!
//! All encodings are little-endian and fixed-width; there is no
//! varint layer, because snapshots are a cold path and debuggability
//! beats density.

use std::collections::{BTreeMap, VecDeque};

use crate::stats::LatencyBreakdown;
use crate::time::Time;

/// Leading magic bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"DUETSNP\0";

/// Current snapshot format version. Bump on any layout change.
pub const FORMAT_VERSION: u32 = 2;

/// Why a snapshot could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The snapshot was written by a different format generation.
    Version {
        /// Version found in the snapshot.
        found: u32,
        /// Version this reader understands.
        expected: u32,
    },
    /// The snapshot was taken under a different `SystemConfig`.
    ConfigHash {
        /// Hash found in the snapshot.
        found: u64,
        /// Hash of the restoring system's config.
        expected: u64,
    },
    /// A section tag did not match the component being restored.
    TagMismatch {
        /// Tag found in the snapshot.
        found: [u8; 4],
        /// Tag the reader expected.
        expected: [u8; 4],
    },
    /// The buffer ended before the declared data did.
    Truncated,
    /// A section's body was not fully consumed by its reader.
    TrailingBytes {
        /// Tag of the offending section.
        tag: [u8; 4],
        /// Bytes left unread inside the section.
        unread: usize,
    },
    /// A decoded value was structurally invalid.
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "not a Duet snapshot (bad magic)"),
            SnapError::Version { found, expected } => write!(
                f,
                "snapshot format version {found} (this reader understands {expected})"
            ),
            SnapError::ConfigHash { found, expected } => write!(
                f,
                "snapshot config hash {found:#018x} does not match system config {expected:#018x}"
            ),
            SnapError::TagMismatch { found, expected } => write!(
                f,
                "section tag {:?} where {:?} was expected",
                String::from_utf8_lossy(found),
                String::from_utf8_lossy(expected)
            ),
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::TrailingBytes { tag, unread } => write!(
                f,
                "section {:?} left {unread} bytes unread",
                String::from_utf8_lossy(tag)
            ),
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Streaming writer producing a snapshot byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer (no header). Useful for unit tests and nested
    /// value encoding.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// A writer primed with the standard header: magic, format version,
    /// and the configuration hash.
    pub fn with_header(config_hash: u64) -> Self {
        SnapWriter::with_custom_header(MAGIC, FORMAT_VERSION, config_hash)
    }

    /// A writer primed with a caller-chosen header in the standard
    /// framing (8-byte magic, `u32` version, `u64` hash). Lets other
    /// on-disk artifacts — the serve layer's result-store segments, for
    /// one — reuse the snapshot header discipline under their own magic.
    pub fn with_custom_header(magic: [u8; 8], version: u32, hash: u64) -> Self {
        let mut w = SnapWriter::new();
        w.buf.extend_from_slice(&magic);
        w.u32(version);
        w.u64(hash);
        w
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn len64(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a tagged, length-prefixed section whose body is produced
    /// by `f`. Sections may nest.
    pub fn section(&mut self, tag: [u8; 4], f: impl FnOnce(&mut Self)) {
        self.buf.extend_from_slice(&tag);
        let len_at = self.buf.len();
        self.u64(0); // placeholder
        let body_start = self.buf.len();
        f(self);
        let body_len = (self.buf.len() - body_start) as u64;
        self.buf[len_at..len_at + 8].copy_from_slice(&body_len.to_le_bytes());
    }

    /// Consumes the writer, returning the snapshot bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Streaming reader over a snapshot byte buffer.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Exclusive upper bound of the region the reader may touch; shrinks
    /// while inside a section.
    limit: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over raw (headerless) bytes.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader {
            buf,
            pos: 0,
            limit: buf.len(),
        }
    }

    /// A reader that first validates the standard header (magic, format
    /// version, config hash) against `expected_config_hash`.
    pub fn with_header(buf: &'a [u8], expected_config_hash: u64) -> Result<Self, SnapError> {
        SnapReader::with_custom_header(buf, MAGIC, FORMAT_VERSION, expected_config_hash)
    }

    /// A reader that validates a caller-chosen header in the standard
    /// framing (the [`SnapWriter::with_custom_header`] counterpart).
    /// Mismatches are the same typed errors snapshot loading produces.
    pub fn with_custom_header(
        buf: &'a [u8],
        magic: [u8; 8],
        expected_version: u32,
        expected_hash: u64,
    ) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(buf);
        let found_magic = r.take(magic.len())?;
        if found_magic != magic {
            return Err(SnapError::BadMagic);
        }
        let version = r.u32()?;
        if version != expected_version {
            return Err(SnapError::Version {
                found: version,
                expected: expected_version,
            });
        }
        let hash = r.u64()?;
        if hash != expected_hash {
            return Err(SnapError::ConfigHash {
                found: hash,
                expected: expected_hash,
            });
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        // `n` may be a hostile length prefix: `pos + n` could overflow.
        if n > self.remaining() {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a `u64` and converts it to `usize`.
    pub fn len64(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::Corrupt("length exceeds usize"))
    }

    /// Enters a tagged section: verifies the tag, bounds the reader to
    /// the section body for the duration of `f`, and verifies the body
    /// was consumed exactly.
    pub fn section<T>(
        &mut self,
        tag: [u8; 4],
        f: impl FnOnce(&mut Self) -> Result<T, SnapError>,
    ) -> Result<T, SnapError> {
        let found = self.take(4)?;
        if found != tag {
            let mut t = [0u8; 4];
            t.copy_from_slice(found);
            return Err(SnapError::TagMismatch {
                found: t,
                expected: tag,
            });
        }
        let body_len = self.len64()?;
        if body_len > self.remaining() {
            return Err(SnapError::Truncated);
        }
        let outer_limit = self.limit;
        self.limit = self.pos + body_len;
        let result = f(self);
        let end = self.limit;
        self.limit = outer_limit;
        let value = result?;
        if self.pos != end {
            return Err(SnapError::TrailingBytes {
                tag,
                unread: end - self.pos,
            });
        }
        Ok(value)
    }

    /// Bytes remaining inside the current bound.
    pub fn remaining(&self) -> usize {
        self.limit - self.pos
    }

    /// Fails with [`SnapError::TrailingBytes`] unless the whole buffer
    /// was consumed (call after the last section at top level).
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.pos != self.limit {
            return Err(SnapError::TrailingBytes {
                tag: *b"END_",
                unread: self.limit - self.pos,
            });
        }
        Ok(())
    }
}

/// A value that can be written to and reconstructed from snapshot bytes.
pub trait Pack: Sized {
    /// Writes `self`.
    fn pack(&self, w: &mut SnapWriter);
    /// Reads a value.
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
    /// Reads a value over `self`. Growable containers override this to
    /// refill in place, so a preallocated queue keeps its allocation
    /// across a restore.
    fn unpack_over(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = Self::unpack(r)?;
        Ok(())
    }
}

/// A component whose identity comes from configuration and whose mutable
/// state is saved and restored in place.
pub trait Snap {
    /// Serializes the mutable state.
    fn save(&self, w: &mut SnapWriter);
    /// Restores the mutable state into `self` (which was rebuilt from
    /// the same configuration the snapshot was taken under).
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// Every packable value is trivially snappable by overwrite.
impl<T: Pack> Snap for T {
    fn save(&self, w: &mut SnapWriter) {
        self.pack(w);
    }
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.unpack_over(r)
    }
}

/// `Ok` when `ok` holds, [`SnapError::Corrupt`]`(what)` otherwise — the
/// one-line form of a post-load validity check.
pub fn ensure(ok: bool, what: &'static str) -> Result<(), SnapError> {
    if ok {
        Ok(())
    } else {
        Err(SnapError::Corrupt(what))
    }
}

/// Reads a `T` and fails unless it equals `built`: construction-time
/// values (a capacity, a mode) are written only to cross-check that the
/// restoring instance was built the same way.
pub fn expect_same<T: Pack + PartialEq>(
    built: &T,
    r: &mut SnapReader<'_>,
    what: &'static str,
) -> Result<(), SnapError> {
    ensure(T::unpack(r)? == *built, what)
}

/// Writes a fixed-structure sequence of components: the count, then each
/// element's state.
pub fn save_each<T: Snap>(items: &[T], w: &mut SnapWriter) {
    w.len64(items.len());
    for item in items {
        item.save(w);
    }
}

/// Loads what [`save_each`] wrote into the already-built elements; the
/// count must match the built structure.
pub fn load_each<T: Snap>(
    items: &mut [T],
    r: &mut SnapReader<'_>,
    what: &'static str,
) -> Result<(), SnapError> {
    ensure(r.len64()? == items.len(), what)?;
    items.iter_mut().try_for_each(|item| item.load(r))
}

/// Implements [`Pack`] for a struct from one field list: `pack` writes the
/// fields in the listed order and `unpack` reads them back in the same
/// order, so the two directions cannot drift. Tuple structs list their
/// fields by index (`Vpn { 0 }`); one type parameter is supported and
/// bound by `Pack`. An optional `check |v| expr` runs on the decoded value
/// and must evaluate to `Result<(), SnapError>` (see [`ensure`]).
///
/// The listed order *is* the wire layout: reordering, adding or removing a
/// name changes the bytes and needs a [`FORMAT_VERSION`] bump.
///
/// ```
/// use duet_sim::snapshot::ensure;
/// use duet_sim::{Pack, Snap, SnapReader, SnapWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Span { from: u64, len: u32 }
/// duet_sim::pack_struct!(Span { from, len } check |s| ensure(s.len > 0, "empty span"));
///
/// #[derive(Debug, PartialEq)]
/// enum Job { Idle, Copy(Span, u64), Fill { span: Span, byte: u8 } }
/// duet_sim::pack_enum!(Job { 0 => Idle, 1 => Copy(span, dst), 2 => Fill { span, byte } });
///
/// struct Engine { lanes: usize, queue: Vec<Job>, done: u64, scratch: Vec<u8> }
/// // `lanes` is configuration (cross-checked), `scratch` is not state.
/// duet_sim::snap_fields!(Engine { const lanes, queue, done });
///
/// let queue = vec![Job::Copy(Span { from: 8, len: 4 }, 64)];
/// let a = Engine { lanes: 2, queue, done: 7, scratch: vec![1] };
/// let mut w = SnapWriter::new();
/// a.save(&mut w);
/// let bytes = w.finish();
/// let mut b = Engine { lanes: 2, queue: vec![], done: 0, scratch: vec![] };
/// b.load(&mut SnapReader::new(&bytes)).unwrap();
/// assert_eq!((b.queue, b.done), (a.queue, 7));
/// let mut wrong = Engine { lanes: 3, queue: vec![], done: 0, scratch: vec![] };
/// assert!(wrong.load(&mut SnapReader::new(&bytes)).is_err());
/// ```
#[macro_export]
macro_rules! pack_struct {
    ($ty:ident $(<$g:ident>)? { $($f:tt),+ $(,)? } $(check |$v:ident| $check:expr)?) => {
        impl $(<$g: $crate::snapshot::Pack>)? $crate::snapshot::Pack for $ty $(<$g>)? {
            fn pack(&self, w: &mut $crate::snapshot::SnapWriter) {
                $( $crate::snapshot::Pack::pack(&self.$f, w); )+
            }
            fn unpack(
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapError> {
                let value = $ty { $( $f: $crate::snapshot::Pack::unpack(r)? ),+ };
                $( let $v = &value; $check?; )?
                Ok(value)
            }
        }
    };
}

/// Implements [`Pack`] for an enum from one variant list: each variant is
/// a `u8` tag followed by its fields in the listed order. Unit, tuple
/// (`3 => Amo(op, width)`, the names are just binders) and struct
/// (`1 => S { sharers }`) variants are supported; an unknown tag decodes
/// to [`SnapError::Corrupt`]. Tags are part of the wire layout — never
/// renumber one. See [`pack_struct!`] for an example.
#[macro_export]
macro_rules! pack_enum {
    ($ty:ident {
        $( $tag:literal => $var:ident $( ( $($t:ident),+ ) )? $( { $($s:ident),+ } )? ),+ $(,)?
    }) => {
        impl $crate::snapshot::Pack for $ty {
            fn pack(&self, w: &mut $crate::snapshot::SnapWriter) {
                match self {
                    $( Self::$var $( ( $($t),+ ) )? $( { $($s),+ } )? => {
                        w.u8($tag);
                        $( $( $crate::snapshot::Pack::pack($t, w); )+ )?
                        $( $( $crate::snapshot::Pack::pack($s, w); )+ )?
                    } )+
                }
            }
            fn unpack(
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapError> {
                Ok(match r.u8()? {
                    $( $tag => Self::$var
                        $( ( $( { let $t = $crate::snapshot::Pack::unpack(r)?; $t } ),+ ) )?
                        $( { $( $s: $crate::snapshot::Pack::unpack(r)? ),+ } )?, )+
                    _ => {
                        return Err($crate::snapshot::SnapError::Corrupt(concat!(
                            "invalid ",
                            stringify!($ty),
                            " discriminant"
                        )))
                    }
                })
            }
        }
    };
}

/// Implements [`Snap`] for a component from one list of its *state*
/// fields (anything not listed — configuration, tracer handles, derived
/// worklists — is left as built). Each entry is one of:
///
/// * `name` — saved and loaded in place through the field's own `Snap`
///   (every `Pack` value is one);
/// * `const name` — a construction-time value, written and cross-checked
///   on load with [`expect_same`];
/// * `[name]` — a fixed-structure `Vec`/slice of components, count-checked
///   and loaded element by element ([`save_each`]/[`load_each`]).
///
/// An optional `check |this| expr` runs after the last field is loaded,
/// with `this: &mut Self`, to validate the result or recompute derived
/// fields; it must evaluate to `Result<(), SnapError>`. One type parameter
/// is supported and bound by `Pack`. The listed order *is* the wire
/// layout. See [`pack_struct!`] for an example.
#[macro_export]
macro_rules! snap_fields {
    ($ty:ident $(<$g:ident>)? { $($fields:tt)* } $(check |$this:ident| $check:expr)?) => {
        impl $(<$g: $crate::snapshot::Pack>)? $crate::snapshot::Snap for $ty $(<$g>)? {
            fn save(&self, w: &mut $crate::snapshot::SnapWriter) {
                $crate::snap_fields!(@save self, w; $($fields)*);
            }
            fn load(
                &mut self,
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> Result<(), $crate::snapshot::SnapError> {
                $crate::snap_fields!(@load self, r; $($fields)*);
                $( let $this = &mut *self; $check?; )?
                Ok(())
            }
        }
    };
    // End of list. Touching the writer/reader keeps an empty list (a
    // stateless design) free of unused-variable warnings.
    (@save $s:ident, $w:ident;) => {
        let _ = $w;
    };
    (@save $s:ident, $w:ident; const $f:ident $(, $($rest:tt)*)?) => {
        $crate::snapshot::Pack::pack(&$s.$f, $w);
        $crate::snap_fields!(@save $s, $w; $($($rest)*)?);
    };
    (@save $s:ident, $w:ident; [$f:ident] $(, $($rest:tt)*)?) => {
        $crate::snapshot::save_each(&$s.$f, $w);
        $crate::snap_fields!(@save $s, $w; $($($rest)*)?);
    };
    (@save $s:ident, $w:ident; $f:ident $(, $($rest:tt)*)?) => {
        $crate::snapshot::Snap::save(&$s.$f, $w);
        $crate::snap_fields!(@save $s, $w; $($($rest)*)?);
    };
    (@load $s:ident, $r:ident;) => {
        let _ = $r;
    };
    (@load $s:ident, $r:ident; const $f:ident $(, $($rest:tt)*)?) => {
        $crate::snapshot::expect_same(
            &$s.$f,
            $r,
            concat!(stringify!($f), " differs from the built component"),
        )?;
        $crate::snap_fields!(@load $s, $r; $($($rest)*)?);
    };
    (@load $s:ident, $r:ident; [$f:ident] $(, $($rest:tt)*)?) => {
        $crate::snapshot::load_each(
            &mut $s.$f,
            $r,
            concat!(stringify!($f), " count differs from the built component"),
        )?;
        $crate::snap_fields!(@load $s, $r; $($($rest)*)?);
    };
    (@load $s:ident, $r:ident; $f:ident $(, $($rest:tt)*)?) => {
        $crate::snapshot::Snap::load(&mut $s.$f, $r)?;
        $crate::snap_fields!(@load $s, $r; $($($rest)*)?);
    };
}

impl Pack for u8 {
    fn pack(&self, w: &mut SnapWriter) {
        w.u8(*self);
    }
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u8()
    }
}

impl Pack for u16 {
    fn pack(&self, w: &mut SnapWriter) {
        w.bytes(&self.to_le_bytes());
    }
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let b = r.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
}

impl Pack for u32 {
    fn pack(&self, w: &mut SnapWriter) {
        w.u32(*self);
    }
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u32()
    }
}

impl Pack for u64 {
    fn pack(&self, w: &mut SnapWriter) {
        w.u64(*self);
    }
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u64()
    }
}

impl Pack for usize {
    fn pack(&self, w: &mut SnapWriter) {
        w.len64(*self);
    }
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.len64()
    }
}

impl Pack for i64 {
    fn pack(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
    }
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.u64()? as i64)
    }
}

impl Pack for bool {
    fn pack(&self, w: &mut SnapWriter) {
        w.u8(u8::from(*self));
    }
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool out of range")),
        }
    }
}

impl Pack for f64 {
    fn pack(&self, w: &mut SnapWriter) {
        w.u64(self.to_bits());
    }
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(r.u64()?))
    }
}

impl Pack for Time {
    fn pack(&self, w: &mut SnapWriter) {
        w.u64(self.as_ps());
    }
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Time::from_ps(r.u64()?))
    }
}

impl<T: Pack> Pack for Option<T> {
    fn pack(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.pack(w);
            }
        }
    }
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::unpack(r)?)),
            _ => Err(SnapError::Corrupt("Option discriminant out of range")),
        }
    }
}

impl<T: Pack> Pack for Vec<T> {
    fn pack(&self, w: &mut SnapWriter) {
        w.len64(self.len());
        for v in self {
            v.pack(w);
        }
    }
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::new();
        out.unpack_over(r)?;
        Ok(out)
    }
    fn unpack_over(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.clear();
        for _ in 0..r.len64()? {
            self.push(T::unpack(r)?);
        }
        Ok(())
    }
}

impl<T: Pack> Pack for VecDeque<T> {
    fn pack(&self, w: &mut SnapWriter) {
        w.len64(self.len());
        for v in self {
            v.pack(w);
        }
    }
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = VecDeque::new();
        out.unpack_over(r)?;
        Ok(out)
    }
    fn unpack_over(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.clear();
        for _ in 0..r.len64()? {
            self.push_back(T::unpack(r)?);
        }
        Ok(())
    }
}

impl<K: Pack + Ord, V: Pack> Pack for BTreeMap<K, V> {
    /// Entries are written in key order (the map's iteration order), so the
    /// encoding is canonical: equal maps produce equal bytes.
    fn pack(&self, w: &mut SnapWriter) {
        w.len64(self.len());
        for (k, v) in self {
            k.pack(w);
            v.pack(w);
        }
    }
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len64()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::unpack(r)?;
            let v = V::unpack(r)?;
            if out.insert(k, v).is_some() {
                return Err(SnapError::Corrupt("duplicate BTreeMap key"));
            }
        }
        Ok(out)
    }
}

impl Pack for String {
    fn pack(&self, w: &mut SnapWriter) {
        w.len64(self.len());
        w.bytes(self.as_bytes());
    }
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len64()?;
        let b = r.bytes(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::Corrupt("string not UTF-8"))
    }
}

impl<T: Pack + Copy + Default, const N: usize> Pack for [T; N] {
    fn pack(&self, w: &mut SnapWriter) {
        for v in self {
            v.pack(w);
        }
    }
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = [T::default(); N];
        for slot in out.iter_mut() {
            *slot = T::unpack(r)?;
        }
        Ok(out)
    }
}

impl<A: Pack, B: Pack> Pack for (A, B) {
    fn pack(&self, w: &mut SnapWriter) {
        self.0.pack(w);
        self.1.pack(w);
    }
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::unpack(r)?, B::unpack(r)?))
    }
}

impl<A: Pack, B: Pack, C: Pack> Pack for (A, B, C) {
    fn pack(&self, w: &mut SnapWriter) {
        self.0.pack(w);
        self.1.pack(w);
        self.2.pack(w);
    }
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::unpack(r)?, B::unpack(r)?, C::unpack(r)?))
    }
}

impl<A: Pack, B: Pack, C: Pack, D: Pack> Pack for (A, B, C, D) {
    fn pack(&self, w: &mut SnapWriter) {
        self.0.pack(w);
        self.1.pack(w);
        self.2.pack(w);
        self.3.pack(w);
    }
    fn unpack(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::unpack(r)?, B::unpack(r)?, C::unpack(r)?, D::unpack(r)?))
    }
}

impl Pack for () {
    /// Zero bytes — lets `()`-metadata containers (timing-only cache tag
    /// arrays) reuse the generic container impls.
    fn pack(&self, _w: &mut SnapWriter) {}
    fn unpack(_r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(())
    }
}

crate::pack_struct!(LatencyBreakdown {
    noc,
    cache_fast,
    cache_slow,
    cdc
});

/// Streaming 64-bit hasher for configuration fingerprints, built on the
/// same fixed SplitMix64-style mixer as [`crate::storage::LineMap`]. Not
/// cryptographic — it only needs to make accidental config mismatches
/// loud, deterministically, on every platform.
#[derive(Clone, Debug)]
pub struct SnapHasher {
    state: u64,
}

impl Default for SnapHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapHasher {
    /// A fresh hasher with a fixed non-zero seed.
    pub fn new() -> Self {
        SnapHasher {
            state: 0xD0E7_5EED_0000_0001,
        }
    }

    fn mix(z: u64) -> u64 {
        crate::rng::splitmix64_finalize(z.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    /// Folds a `u64` into the state.
    pub fn u64(&mut self, v: u64) {
        self.state = Self::mix(self.state ^ v);
    }

    /// Folds a `usize` into the state.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Folds a `bool` into the state.
    pub fn bool(&mut self, v: bool) {
        self.u64(u64::from(v));
    }

    /// Folds an `f64`'s bit pattern into the state.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds raw bytes (length-prefixed) into the state.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut a = [0u8; 8];
            a[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(a));
        }
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        Self::mix(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = SnapWriter::new();
        0xABu8.pack(&mut w);
        0xBEEFu16.pack(&mut w);
        0xDEAD_BEEFu32.pack(&mut w);
        u64::MAX.pack(&mut w);
        (-5i64).pack(&mut w);
        true.pack(&mut w);
        1.5f64.pack(&mut w);
        Time::from_ns(7).pack(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(u8::unpack(&mut r).unwrap(), 0xAB);
        assert_eq!(u16::unpack(&mut r).unwrap(), 0xBEEF);
        assert_eq!(u32::unpack(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::unpack(&mut r).unwrap(), u64::MAX);
        assert_eq!(i64::unpack(&mut r).unwrap(), -5);
        assert!(bool::unpack(&mut r).unwrap());
        assert_eq!(f64::unpack(&mut r).unwrap(), 1.5);
        assert_eq!(Time::unpack(&mut r).unwrap(), Time::from_ns(7));
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn container_roundtrip() {
        let mut w = SnapWriter::new();
        let v: Vec<u64> = vec![1, 2, 3];
        let d: VecDeque<(u32, bool)> = VecDeque::from(vec![(7, true), (9, false)]);
        let o: Option<String> = Some("hi".to_string());
        let n: Option<u8> = None;
        let a: [u8; 16] = *b"0123456789abcdef";
        v.pack(&mut w);
        d.pack(&mut w);
        o.pack(&mut w);
        n.pack(&mut w);
        a.pack(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(Vec::<u64>::unpack(&mut r).unwrap(), v);
        assert_eq!(VecDeque::<(u32, bool)>::unpack(&mut r).unwrap(), d);
        assert_eq!(Option::<String>::unpack(&mut r).unwrap(), o);
        assert_eq!(Option::<u8>::unpack(&mut r).unwrap(), n);
        assert_eq!(<[u8; 16]>::unpack(&mut r).unwrap(), a);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn header_checks_magic_version_and_hash() {
        let bytes = SnapWriter::with_header(42).finish();
        assert!(SnapReader::with_header(&bytes, 42).is_ok());
        assert_eq!(
            SnapReader::with_header(&bytes, 43).unwrap_err(),
            SnapError::ConfigHash {
                found: 42,
                expected: 43
            }
        );
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            SnapReader::with_header(&bad, 42).unwrap_err(),
            SnapError::BadMagic
        );
        let mut newer = bytes.clone();
        newer[8] = (FORMAT_VERSION + 1) as u8;
        assert_eq!(
            SnapReader::with_header(&newer, 42).unwrap_err(),
            SnapError::Version {
                found: FORMAT_VERSION + 1,
                expected: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn sections_frame_and_verify_consumption() {
        let mut w = SnapWriter::new();
        w.section(*b"AAAA", |w| {
            7u64.pack(w);
        });
        w.section(*b"BBBB", |w| {
            w.section(*b"CCCC", |w| 3u32.pack(w));
        });
        let bytes = w.finish();

        let mut r = SnapReader::new(&bytes);
        let v = r.section(*b"AAAA", |r| u64::unpack(r)).unwrap();
        assert_eq!(v, 7);
        let inner = r
            .section(*b"BBBB", |r| r.section(*b"CCCC", |r| u32::unpack(r)))
            .unwrap();
        assert_eq!(inner, 3);
        assert!(r.expect_end().is_ok());

        // Wrong tag is typed.
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            r.section(*b"XXXX", |r| u64::unpack(r)).unwrap_err(),
            SnapError::TagMismatch {
                found: *b"AAAA",
                expected: *b"XXXX"
            }
        );

        // Under-consuming a section is typed.
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            r.section(*b"AAAA", |r| u32::unpack(r)).unwrap_err(),
            SnapError::TrailingBytes {
                tag: *b"AAAA",
                unread: 4
            }
        );

        // Over-reading a section hits its bound, not the next section.
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            r.section(*b"AAAA", |r| <(u64, u64)>::unpack(r))
                .unwrap_err(),
            SnapError::Truncated
        );
    }

    #[test]
    fn truncation_is_loud() {
        let mut w = SnapWriter::new();
        w.section(*b"AAAA", |w| {
            vec![1u64, 2, 3].pack(w);
        });
        let bytes = w.finish();
        for cut in 1..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            let res = r.section(*b"AAAA", |r| Vec::<u64>::unpack(r));
            assert!(res.is_err(), "cut at {cut} must fail");
        }
    }

    /// A `u64::MAX` length prefix used to overflow `pos + n` (panic in
    /// debug, wrap then slice-panic in release).
    #[test]
    fn hostile_value_lengths_are_truncation_not_overflow() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX);
        let bytes = w.finish();
        assert_eq!(
            String::unpack(&mut SnapReader::new(&bytes)).unwrap_err(),
            SnapError::Truncated
        );
        let mut r = SnapReader::new(&bytes);
        r.u8().unwrap();
        assert_eq!(r.bytes(usize::MAX).unwrap_err(), SnapError::Truncated);
        assert_eq!(r.remaining(), 7, "a failed read consumes nothing");
    }

    #[test]
    fn hostile_section_length_is_truncation_not_overflow() {
        let mut w = SnapWriter::new();
        w.bytes(b"AAAA");
        w.u64(u64::MAX);
        7u64.pack(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            r.section(*b"AAAA", |r| u64::unpack(r)).unwrap_err(),
            SnapError::Truncated
        );
    }

    #[test]
    fn hasher_is_deterministic_and_sensitive() {
        let mut a = SnapHasher::new();
        a.u64(1);
        a.bytes(b"duet");
        a.bool(true);
        let mut b = SnapHasher::new();
        b.u64(1);
        b.bytes(b"duet");
        b.bool(true);
        assert_eq!(a.finish(), b.finish());
        let mut c = SnapHasher::new();
        c.u64(1);
        c.bytes(b"duet");
        c.bool(false);
        assert_ne!(a.finish(), c.finish());
        // Length prefix keeps concatenation ambiguity out.
        let mut d = SnapHasher::new();
        d.bytes(b"ab");
        d.bytes(b"c");
        let mut e = SnapHasher::new();
        e.bytes(b"a");
        e.bytes(b"bc");
        assert_ne!(d.finish(), e.finish());
    }

    #[test]
    fn snap_blanket_impl_overwrites_in_place() {
        let mut w = SnapWriter::new();
        99u64.save(&mut w);
        let bytes = w.finish();
        let mut v = 0u64;
        let mut r = SnapReader::new(&bytes);
        v.load(&mut r).unwrap();
        assert_eq!(v, 99);
    }
}
