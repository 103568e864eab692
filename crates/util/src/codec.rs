//! Hand-rolled binary codec for snapshot files.
//!
//! Snapshots persist the frozen analysis artifacts across processes, so the
//! format favors three properties over generality:
//!
//! * **Self-describing framing** — a magic tag, a format version, a snapshot
//!   key (the program content hash), and a named section table, so a reader
//!   can reject foreign or stale files before touching any payload.
//! * **Corruption detection** — a trailing [xxHash64]-style checksum over
//!   everything before it. Snapshot loads must *never* surface an error to
//!   the query path; a checksum mismatch simply means "cold build".
//! * **Compactness** — varint framing ([`ByteWriter::vu64`]) for the id-heavy
//!   payloads (dense `u32` indices compress to 1–2 bytes each).
//!
//! All multi-byte fixed-width values are little-endian. No external crates
//! are involved; the whole format is defined by this module.
//!
//! [xxHash64]: https://xxhash.com
//!
//! # Examples
//!
//! ```
//! use thinslice_util::codec::{ByteReader, ByteWriter, SnapshotReader, SnapshotWriter};
//!
//! let mut w = SnapshotWriter::new(*b"TDEM", 1, "cafe0123");
//! let mut sec = ByteWriter::new();
//! sec.vu64(42);
//! w.section("answers", sec.into_bytes());
//! let bytes = w.finish();
//!
//! let r = SnapshotReader::open(&bytes, *b"TDEM", 1).unwrap();
//! assert_eq!(r.key(), "cafe0123");
//! let mut sec = ByteReader::new(r.section("answers").unwrap());
//! assert_eq!(sec.vu64().unwrap(), 42);
//! ```

use crate::Idx;
use std::fmt;

/// Ways a snapshot file can fail to decode.
///
/// Every variant means the same thing to callers: discard the snapshot and
/// rebuild from sources. The distinctions exist for logging and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a complete value could be read.
    Truncated,
    /// The file does not start with the expected magic tag.
    BadMagic,
    /// The file's format version differs from what this build writes.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build expects.
        expected: u32,
    },
    /// The trailing checksum does not match the file contents.
    Checksum,
    /// A structurally invalid value (bad tag, out-of-range index, …).
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated input"),
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::Version { found, expected } => {
                write!(f, "format version {found}, expected {expected}")
            }
            CodecError::Checksum => write!(f, "checksum mismatch"),
            CodecError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only byte buffer with varint and length-prefixed primitives.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a fixed-width little-endian `u64` (used for hashes, where
    /// varint framing would save nothing).
    pub fn u64_le(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes `v` as an LEB128-style varint (7 bits per byte, high bit is
    /// the continuation flag).
    pub fn vu64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Writes a `usize` as a varint.
    pub fn vusize(&mut self, v: usize) {
        self.vu64(v as u64);
    }

    /// Writes a signed value zigzag-mapped onto a varint, so small
    /// magnitudes of either sign stay short.
    pub fn vi64(&mut self, v: i64) {
        self.vu64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.vusize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a dense `u32` slice as a varint length followed by raw
    /// little-endian words. Bulk form of repeated [`ByteWriter::vu64`]
    /// for the CSR-style index arrays warm starts decode by the tens of
    /// thousands: fixed width costs a little size but decodes with one
    /// bounds check per array instead of one branchy varint per element.
    pub fn u32s(&mut self, v: &[u32]) {
        self.vusize(v.len());
        self.buf.reserve(4 * v.len());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Writes a dense `u64` slice as a varint length followed by raw
    /// little-endian words (bulk form of repeated [`ByteWriter::u64_le`],
    /// used for bitset word arrays).
    pub fn u64s_le(&mut self, v: &[u64]) {
        self.vusize(v.len());
        self.buf.reserve(8 * v.len());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Appends raw bytes with no length prefix; the reader must know the
    /// count from context (see [`ByteReader::raw`]).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Cursor over an encoded byte slice, mirroring [`ByteWriter`].
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the reader has consumed every byte.
    pub fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads one raw byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a fixed-width little-endian `u64`.
    pub fn u64_le(&mut self) -> Result<u64, CodecError> {
        let end = self.pos.checked_add(8).ok_or(CodecError::Truncated)?;
        let bytes = self
            .buf
            .get(self.pos..end)
            .ok_or(CodecError::Truncated)?
            .try_into()
            .expect("8-byte slice");
        self.pos = end;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Reads a varint `u64`.
    #[inline]
    pub fn vu64(&mut self) -> Result<u64, CodecError> {
        // Fast path: most values in practice are dense ids below 128,
        // which the writer emitted as a single continuation-free byte.
        if let Some(&b) = self.buf.get(self.pos) {
            if b & 0x80 == 0 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        self.vu64_slow()
    }

    fn vu64_slow(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::Malformed("varint"))
    }

    /// Reads a varint `usize`, rejecting values beyond the address space.
    #[inline]
    pub fn vusize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.vu64()?).map_err(|_| CodecError::Malformed("usize"))
    }

    /// Reads a varint dense index, rejecting a value past `u32` — the
    /// range every index type holds — so that a corrupt file fails to
    /// decode instead of panicking in the index constructor.
    #[inline]
    pub fn vidx<I: Idx>(&mut self) -> Result<I, CodecError> {
        match u32::try_from(self.vu64()?) {
            Ok(v) => Ok(I::from_usize(v as usize)),
            Err(_) => Err(CodecError::Malformed("index")),
        }
    }

    /// Reads a zigzag-encoded `i64`.
    pub fn vi64(&mut self) -> Result<i64, CodecError> {
        let v = self.vu64()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.vusize()?;
        let end = self.pos.checked_add(len).ok_or(CodecError::Truncated)?;
        let out = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::Malformed("utf-8 string"))
    }

    /// Reads a `bool`, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed("bool")),
        }
    }

    /// Borrows the raw bytes of a fixed-width array: `count` elements of
    /// `width` bytes each, bounds-checked once.
    fn fixed(&mut self, count: usize, width: usize) -> Result<&'a [u8], CodecError> {
        let len = count.checked_mul(width).ok_or(CodecError::Truncated)?;
        let end = self.pos.checked_add(len).ok_or(CodecError::Truncated)?;
        let raw = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(raw)
    }

    /// Reads a slice written by [`ByteWriter::u32s`].
    pub fn u32s(&mut self) -> Result<Vec<u32>, CodecError> {
        let n = self.vusize()?;
        let raw = self.fixed(n, 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Borrows `count` raw bytes written by [`ByteWriter::raw`]; the
    /// caller supplies the count from context.
    pub fn raw(&mut self, count: usize) -> Result<&'a [u8], CodecError> {
        self.fixed(count, 1)
    }

    /// Reads a slice written by [`ByteWriter::u64s_le`].
    pub fn u64s_le(&mut self) -> Result<Vec<u64>, CodecError> {
        let n = self.vusize()?;
        let raw = self.fixed(n, 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }
}

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn xxh_round(mut acc: u64, lane: u64) -> u64 {
    acc = acc.wrapping_add(lane.wrapping_mul(PRIME64_2));
    acc = acc.rotate_left(31);
    acc.wrapping_mul(PRIME64_1)
}

#[inline]
fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

#[inline]
fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

/// One-shot xxHash64 of `data` with the given `seed`.
///
/// Used as the snapshot trailer checksum: fast enough to hash multi-megabyte
/// payloads without showing up in warm-start profiles, and strong enough to
/// catch truncation and bit flips with near-certainty.
pub fn xxhash64(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let mut rest = data;
    let mut h = if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while rest.len() >= 32 {
            v1 = xxh_round(v1, read_u64(rest));
            v2 = xxh_round(v2, read_u64(&rest[8..]));
            v3 = xxh_round(v3, read_u64(&rest[16..]));
            v4 = xxh_round(v4, read_u64(&rest[24..]));
            rest = &rest[32..];
        }
        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = xxh_merge(h, v1);
        h = xxh_merge(h, v2);
        h = xxh_merge(h, v3);
        xxh_merge(h, v4)
    } else {
        seed.wrapping_add(PRIME64_5)
    };
    h = h.wrapping_add(len as u64);
    while rest.len() >= 8 {
        h ^= xxh_round(0, read_u64(rest));
        h = h
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h ^= u64::from(u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")))
            .wrapping_mul(PRIME64_1);
        h = h
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = &rest[4..];
    }
    for &b in rest {
        h ^= u64::from(b).wrapping_mul(PRIME64_5);
        h = h.rotate_left(11).wrapping_mul(PRIME64_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^= h >> 32;
    h
}

/// Seed for the snapshot trailer checksum (any fixed value works; this one
/// marks the stream as ours).
const CHECKSUM_SEED: u64 = 0x7453_4e41_5053_4e41; // "tSNAPSNA"

/// Builder for a complete snapshot file: header, named section table,
/// payloads, trailing checksum.
///
/// Layout (all varints unless noted):
///
/// ```text
/// magic            4 raw bytes
/// version          varint u32
/// key              length-prefixed str (program content hash)
/// section count    varint
///   per section:   name str · payload byte length
/// payloads         concatenated, in table order
/// checksum         fixed u64 LE, xxHash64 of everything above
/// ```
#[derive(Debug)]
pub struct SnapshotWriter {
    magic: [u8; 4],
    version: u32,
    key: String,
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Starts a snapshot with the given magic tag, format version, and key.
    pub fn new(magic: [u8; 4], version: u32, key: &str) -> Self {
        Self {
            magic,
            version,
            key: key.to_string(),
            sections: Vec::new(),
        }
    }

    /// Appends a named section. Names must be unique; order is preserved.
    pub fn section(&mut self, name: &str, payload: Vec<u8>) {
        debug_assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate section {name}"
        );
        self.sections.push((name.to_string(), payload));
    }

    /// Serializes the file, appending the trailer checksum.
    pub fn finish(self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.buf.extend_from_slice(&self.magic);
        w.vu64(u64::from(self.version));
        w.str(&self.key);
        w.vusize(self.sections.len());
        for (name, payload) in &self.sections {
            w.str(name);
            w.vusize(payload.len());
        }
        for (_, payload) in &self.sections {
            w.buf.extend_from_slice(payload);
        }
        let sum = xxhash64(&w.buf, CHECKSUM_SEED);
        w.u64_le(sum);
        w.into_bytes()
    }
}

/// Parsed snapshot file: header verified, checksum verified, sections
/// addressable by name.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    key: &'a str,
    sections: Vec<(&'a str, &'a [u8])>,
}

impl<'a> SnapshotReader<'a> {
    /// Opens `bytes`, verifying magic, version, and the trailer checksum.
    ///
    /// The checksum is verified *first* (before any structural parsing), so
    /// arbitrary corruption reports [`CodecError::Checksum`] rather than a
    /// structural error — except corruption within the final 12 bytes plus
    /// magic/version fields, which report their specific causes.
    pub fn open(bytes: &'a [u8], magic: [u8; 4], version: u32) -> Result<Self, CodecError> {
        if bytes.len() < 4 + 8 {
            return Err(CodecError::Truncated);
        }
        if bytes[..4] != magic {
            return Err(CodecError::BadMagic);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        if xxhash64(body, CHECKSUM_SEED) != stored {
            return Err(CodecError::Checksum);
        }
        let mut r = ByteReader::new(&body[4..]);
        let found =
            u32::try_from(r.vu64()?).map_err(|_| CodecError::Malformed("format version"))?;
        if found != version {
            return Err(CodecError::Version {
                found,
                expected: version,
            });
        }
        let key = r.str()?;
        let count = r.vusize()?;
        let mut table = Vec::with_capacity(count.min(64));
        for _ in 0..count {
            let name = r.str()?;
            let len = r.vusize()?;
            table.push((name, len));
        }
        let mut sections = Vec::with_capacity(table.len());
        for (name, len) in table {
            let end = r.pos.checked_add(len).ok_or(CodecError::Truncated)?;
            let payload = r.buf.get(r.pos..end).ok_or(CodecError::Truncated)?;
            r.pos = end;
            sections.push((name, payload));
        }
        if !r.is_at_end() {
            return Err(CodecError::Malformed("trailing bytes after sections"));
        }
        Ok(Self { key, sections })
    }

    /// The snapshot key (program content hash) from the header.
    pub fn key(&self) -> &'a str {
        self.key
    }

    /// The named section's payload, if present.
    pub fn section(&self, name: &str) -> Option<&'a [u8]> {
        self.sections
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, p)| *p)
    }

    /// Section names in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.sections.iter().map(|(n, _)| *n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_across_widths() {
        let mut w = ByteWriter::new();
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        for &v in &values {
            w.vu64(v);
        }
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        for &v in &values {
            assert_eq!(r.vu64().unwrap(), v);
        }
        assert!(r.is_at_end());
    }

    #[test]
    fn vidx_accepts_u32_and_rejects_wider_values() {
        let mut w = ByteWriter::new();
        for v in [
            0,
            127,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
            u64::MAX,
        ] {
            w.vu64(v);
        }
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.vidx::<u32>(), Ok(0));
        assert_eq!(r.vidx::<usize>(), Ok(127));
        assert_eq!(r.vidx::<u32>(), Ok(u32::MAX));
        assert_eq!(r.vidx::<u32>(), Err(CodecError::Malformed("index")));
        assert_eq!(r.vidx::<usize>(), Err(CodecError::Malformed("index")));
        assert!(r.is_at_end());
    }

    #[test]
    fn zigzag_roundtrip_keeps_small_magnitudes_short() {
        let mut w = ByteWriter::new();
        for v in [-1i64, 0, 1, -64, 63] {
            w.vi64(v);
        }
        assert_eq!(w.len(), 5, "one byte each");
        for v in [i64::MIN, i64::MAX, -1_000_000] {
            w.vi64(v);
        }
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        for v in [-1i64, 0, 1, -64, 63, i64::MIN, i64::MAX, -1_000_000] {
            assert_eq!(r.vi64().unwrap(), v);
        }
    }

    #[test]
    fn strings_bytes_and_bools_roundtrip() {
        let mut w = ByteWriter::new();
        w.str("héllo");
        w.bytes(&[0, 1, 2, 255]);
        w.bool(true);
        w.bool(false);
        w.u64_le(0xdead_beef_cafe_f00d);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), &[0, 1, 2, 255]);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u64_le().unwrap(), 0xdead_beef_cafe_f00d);
        assert!(r.is_at_end());
    }

    #[test]
    fn bulk_arrays_roundtrip_and_reject_truncation() {
        let words32: Vec<u32> = (0..100u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        let words64: Vec<u64> = (0..50).map(|i| u64::MAX - i * 0x0123_4567).collect();
        let mut w = ByteWriter::new();
        w.u32s(&words32);
        w.u64s_le(&words64);
        w.u32s(&[]);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u32s().unwrap(), words32);
        assert_eq!(r.u64s_le().unwrap(), words64);
        assert_eq!(r.u32s().unwrap(), Vec::<u32>::new());
        assert!(r.is_at_end());
        // Any truncation is caught by the single bounds check.
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            let ok = r.u32s().is_ok() && r.u64s_le().is_ok() && r.u32s().is_ok();
            assert!(!ok, "cut at {cut}");
        }
        // A length claiming more elements than the buffer holds errors
        // instead of allocating.
        let mut w = ByteWriter::new();
        w.vusize(usize::MAX / 2);
        let buf = w.into_bytes();
        assert!(ByteReader::new(&buf).u32s().is_err());
    }

    #[test]
    fn truncated_reads_error_without_panicking() {
        let mut w = ByteWriter::new();
        w.str("payload");
        let buf = w.into_bytes();
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            assert!(r.str().is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn overlong_varint_is_malformed() {
        let buf = [0x80u8; 11];
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.vu64(), Err(CodecError::Malformed("varint")));
    }

    #[test]
    fn malformed_bool_and_utf8_are_rejected() {
        let mut r = ByteReader::new(&[7]);
        assert_eq!(r.bool(), Err(CodecError::Malformed("bool")));
        let mut w = ByteWriter::new();
        w.bytes(&[0xff, 0xfe]);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.str(), Err(CodecError::Malformed("utf-8 string")));
    }

    /// Reference vectors from the xxHash specification (seed 0 and a
    /// nonzero seed), pinning the implementation to real xxHash64.
    #[test]
    fn xxhash64_matches_reference_vectors() {
        assert_eq!(xxhash64(b"", 0), 0xef46_db37_51d8_e999);
        assert_eq!(xxhash64(b"a", 0), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxhash64(b"abc", 0), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            xxhash64(b"Nobody inspects the spammish repetition", 0),
            0xfbce_a83c_8a37_8bf1
        );
        assert_eq!(xxhash64(b"xxhash", 20141025), 13067679811253438005);
    }

    #[test]
    fn snapshot_roundtrips_sections_in_order() {
        let mut w = SnapshotWriter::new(*b"TSNP", 3, "0123456789abcdef");
        w.section("alpha", vec![1, 2, 3]);
        w.section("beta", Vec::new());
        w.section("gamma", vec![0xff; 1000]);
        let bytes = w.finish();
        let r = SnapshotReader::open(&bytes, *b"TSNP", 3).unwrap();
        assert_eq!(r.key(), "0123456789abcdef");
        assert_eq!(
            r.section_names().collect::<Vec<_>>(),
            ["alpha", "beta", "gamma"]
        );
        assert_eq!(r.section("alpha").unwrap(), &[1, 2, 3]);
        assert_eq!(r.section("beta").unwrap(), &[] as &[u8]);
        assert_eq!(r.section("gamma").unwrap().len(), 1000);
        assert!(r.section("delta").is_none());
    }

    #[test]
    fn snapshot_rejects_foreign_magic_and_version_skew() {
        let bytes = SnapshotWriter::new(*b"TSNP", 3, "k").finish();
        assert_eq!(
            SnapshotReader::open(&bytes, *b"XXXX", 3).unwrap_err(),
            CodecError::BadMagic
        );
        assert_eq!(
            SnapshotReader::open(&bytes, *b"TSNP", 4).unwrap_err(),
            CodecError::Version {
                found: 3,
                expected: 4
            }
        );
    }

    #[test]
    fn snapshot_detects_every_single_bit_flip() {
        let mut w = SnapshotWriter::new(*b"TSNP", 1, "deadbeefdeadbeef");
        let mut sec = ByteWriter::new();
        for i in 0..100u64 {
            sec.vu64(i * 7);
        }
        w.section("data", sec.into_bytes());
        let bytes = w.finish();
        assert!(SnapshotReader::open(&bytes, *b"TSNP", 1).is_ok());
        for byte in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1;
            assert!(
                SnapshotReader::open(&flipped, *b"TSNP", 1).is_err(),
                "flip at byte {byte} must be detected"
            );
        }
    }

    #[test]
    fn snapshot_detects_every_truncation() {
        let mut w = SnapshotWriter::new(*b"TSNP", 1, "k");
        w.section("s", vec![9; 64]);
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            assert!(
                SnapshotReader::open(&bytes[..cut], *b"TSNP", 1).is_err(),
                "truncation to {cut} bytes must be detected"
            );
        }
    }
}
