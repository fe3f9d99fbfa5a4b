//! Compact binary codec primitives shared by the durable-storage layer.
//!
//! [`ByteWriter`]/[`ByteReader`] implement the workspace's binary wire
//! format: LEB128 varints for lengths and unsigned integers, zig-zag
//! varints for signed integers, raw little-endian IEEE-754 bits for
//! floats (bit-exact round-trips, including NaN payloads and signed
//! zeros), and length-prefixed UTF-8 for strings. On top of the
//! primitives the module encodes the shared vocabulary types —
//! [`Timestamp`], [`Duration`], [`Interval`], [`Value`],
//! [`PropertyValue`], [`PropertyMap`], and [`Label`] lists — so the
//! checkpoint codecs in `hygraph-graph`/`hygraph-ts`/`hygraph-core` and
//! the WAL record codec in `hygraph-persist` all agree byte-for-byte.
//!
//! Decoding is *untrusted*: every read is bounds-checked and malformed
//! input surfaces as [`HyGraphError::Corrupt`], never a panic — the
//! recovery path leans on this to detect torn or damaged frames.
//!
//! The module also hosts [`crc32`] and its incremental form [`Crc32`]:
//! the CRC-32/ISO-HDLC checksum that guards WAL frames, checkpoint
//! payloads and wire frames. It is table-driven, slice-by-16 (sixteen
//! 256-entry tables built once, sixteen input bytes per step), with no
//! external dependency, per the workspace's offline policy.

use crate::error::{HyGraphError, Result};
use crate::ids::Label;
use crate::interval::Interval;
use crate::property::{PropertyMap, PropertyValue};
use crate::time::{Duration, Timestamp};
use crate::value::Value;
use crate::SeriesId;
use std::sync::OnceLock;

// ---------------------------------------------------------------------
// CRC-32 (ISO-HDLC / zlib polynomial 0xEDB88320), slice-by-16.
// ---------------------------------------------------------------------

/// Sixteen 256-entry tables: `[0]` is the classic byte-at-a-time table,
/// and `[k][b]` is the CRC contribution of byte `b` followed by `k` zero
/// bytes, so one step folds sixteen input bytes with sixteen lookups.
fn crc_tables() -> &'static [[u32; 256]; 16] {
    static TABLES: OnceLock<[[u32; 256]; 16]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 16];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for k in 1..16 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// An incremental CRC-32 (ISO-HDLC, the zlib/PNG polynomial): feeding
/// the pieces of a byte run to [`Crc32::update`] in order and calling
/// [`Crc32::finish`] gives the [`crc32`] of the whole run, so a caller
/// can checksum data it never holds in one buffer.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The checksum of no bytes yet.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let t = crc_tables();
        let mut c = self.state;
        let (blocks, tail) = data.as_chunks::<16>();
        for b in blocks {
            let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            c = t[15][(x & 0xFF) as usize]
                ^ t[14][((x >> 8) & 0xFF) as usize]
                ^ t[13][((x >> 16) & 0xFF) as usize]
                ^ t[12][(x >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in tail {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of every byte fed so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// CRC-32 checksum (ISO-HDLC, the zlib/PNG polynomial) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Append-only binary encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            buf: Vec::with_capacity(n),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Empties the writer, keeping its capacity — a caller that only
    /// measures encodings reuses one buffer instead of allocating.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Cuts the written bytes back to the first `len` (a retracted tail).
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Overwrites already written bytes from offset `at` on — a header
    /// reserved before what it describes was written.
    ///
    /// # Panics
    /// If `at + bytes.len()` exceeds [`ByteWriter::len`].
    pub fn patch(&mut self, at: usize, bytes: &[u8]) {
        self.buf[at..at + bytes.len()].copy_from_slice(bytes);
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Raw bytes, no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// LEB128 varint.
    pub fn u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Length/count shorthand.
    pub fn len_of(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Zig-zag LEB128 varint.
    pub fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// IEEE-754 bits, little-endian — bit-exact round-trip.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// `1`/`0` byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Length-prefixed UTF-8.
    pub fn str(&mut self, s: &str) {
        self.len_of(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Timestamp (zig-zag millis).
    pub fn timestamp(&mut self, t: Timestamp) {
        self.i64(t.millis());
    }

    /// Duration (zig-zag millis).
    pub fn duration(&mut self, d: Duration) {
        self.i64(d.millis());
    }

    /// Half-open interval as two timestamps.
    pub fn interval(&mut self, iv: &Interval) {
        self.timestamp(iv.start);
        self.timestamp(iv.end);
    }

    /// Tagged dynamic value.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Bool(b) => {
                self.u8(1);
                self.bool(*b);
            }
            Value::Int(i) => {
                self.u8(2);
                self.i64(*i);
            }
            Value::Float(f) => {
                self.u8(3);
                self.f64(*f);
            }
            Value::Str(s) => {
                self.u8(4);
                self.str(s);
            }
            Value::Time(t) => {
                self.u8(5);
                self.timestamp(*t);
            }
            Value::Span(d) => {
                self.u8(6);
                self.duration(*d);
            }
        }
    }

    /// Static-or-series property value.
    pub fn property_value(&mut self, v: &PropertyValue) {
        match v {
            PropertyValue::Static(v) => {
                self.u8(0);
                self.value(v);
            }
            PropertyValue::Series(id) => {
                self.u8(1);
                self.u64(id.raw());
            }
        }
    }

    /// Whole property map (deterministic key order — `PropertyMap`
    /// iterates its BTreeMap).
    pub fn property_map(&mut self, props: &PropertyMap) {
        self.len_of(props.len());
        for (k, v) in props.iter() {
            self.str(k.as_str());
            self.property_value(v);
        }
    }

    /// Label list.
    pub fn labels(&mut self, labels: &[Label]) {
        self.len_of(labels.len());
        for l in labels {
            self.str(l.as_str());
        }
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Bounds-checked binary decoder over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole buffer has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Errors unless every byte was consumed — guards against trailing
    /// garbage in checkpoint payloads.
    pub fn expect_exhausted(&self) -> Result<()> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(self.corrupt("trailing bytes after decoded payload"))
        }
    }

    fn corrupt(&self, what: &str) -> HyGraphError {
        HyGraphError::Corrupt {
            offset: self.pos,
            message: what.to_owned(),
        }
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| self.corrupt("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    /// `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.corrupt("truncated byte run"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// LEB128 varint.
    pub fn u64(&mut self) -> Result<u64> {
        let mut out = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            out |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                if shift == 63 && byte > 1 {
                    return Err(self.corrupt("varint overflows u64"));
                }
                return Ok(out);
            }
        }
        Err(self.corrupt("varint longer than 10 bytes"))
    }

    /// Length/count shorthand, sanity-bounded by the remaining input so
    /// hostile lengths cannot trigger huge allocations.
    pub fn len_of(&mut self) -> Result<usize> {
        let n = self.u64()? as usize;
        if n > self.remaining().saturating_mul(8).saturating_add(64) {
            return Err(self.corrupt("declared length exceeds input"));
        }
        Ok(n)
    }

    /// Zig-zag LEB128 varint.
    pub fn i64(&mut self) -> Result<i64> {
        let z = self.u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// IEEE-754 bits, little-endian.
    pub fn f64(&mut self) -> Result<f64> {
        let raw = self.raw(8)?;
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(raw);
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    /// `1`/`0` byte.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.corrupt("bool byte must be 0 or 1")),
        }
    }

    /// Length-prefixed UTF-8.
    pub fn str(&mut self) -> Result<String> {
        let n = self.len_of()?;
        let raw = self.raw(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| self.corrupt("string is not valid UTF-8"))
    }

    /// Timestamp (zig-zag millis).
    pub fn timestamp(&mut self) -> Result<Timestamp> {
        Ok(Timestamp::from_millis(self.i64()?))
    }

    /// Duration (zig-zag millis).
    pub fn duration(&mut self) -> Result<Duration> {
        Ok(Duration::from_millis(self.i64()?))
    }

    /// Half-open interval; rejects reversed bounds.
    pub fn interval(&mut self) -> Result<Interval> {
        let start = self.timestamp()?;
        let end = self.timestamp()?;
        Interval::try_new(start, end).ok_or_else(|| self.corrupt("reversed interval"))
    }

    /// Tagged dynamic value.
    pub fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.bool()?),
            2 => Value::Int(self.i64()?),
            3 => Value::Float(self.f64()?),
            4 => Value::Str(self.str()?),
            5 => Value::Time(self.timestamp()?),
            6 => Value::Span(self.duration()?),
            _ => return Err(self.corrupt("unknown value tag")),
        })
    }

    /// Static-or-series property value.
    pub fn property_value(&mut self) -> Result<PropertyValue> {
        Ok(match self.u8()? {
            0 => PropertyValue::Static(self.value()?),
            1 => PropertyValue::Series(SeriesId::new(self.u64()?)),
            _ => return Err(self.corrupt("unknown property-value tag")),
        })
    }

    /// Whole property map.
    pub fn property_map(&mut self) -> Result<PropertyMap> {
        let n = self.len_of()?;
        let mut props = PropertyMap::new();
        for _ in 0..n {
            let key = self.str()?;
            let value = self.property_value()?;
            props.set(key, value);
        }
        Ok(props)
    }

    /// Label list.
    pub fn labels(&mut self) -> Result<Vec<Label>> {
        let n = self.len_of()?;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(Label::new(self.str()?));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props;

    /// The byte-at-a-time table CRC the sliced kernel replaced: the
    /// reference the kernel is checked against.
    fn bytewise_crc32(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vectors() {
        // standard check value of CRC-32/ISO-HDLC
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(Crc32::new().finish(), 0);
        let mut crc = Crc32::new();
        for part in [&b"1234"[..], b"", b"56789"] {
            crc.update(part);
        }
        assert_eq!(crc.finish(), 0xCBF4_3926);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    proptest::proptest! {
        /// The sliced kernel and its incremental form agree with the
        /// bytewise reference on every length up to 4096, from every
        /// start offset within a 16-byte block, whatever the split.
        #[test]
        fn crc32_matches_the_bytewise_reference(
            data in proptest::collection::vec(0u8..=255, 0..=4096 + 15),
            cuts in proptest::collection::vec(0usize..=4096, 0..8),
        ) {
            for offset in 0..16.min(data.len() + 1) {
                let run = &data[offset..];
                let want = bytewise_crc32(run);
                proptest::prop_assert_eq!(crc32(run), want, "offset {}", offset);
                let mut at: Vec<usize> = cuts.iter().map(|c| c % (run.len() + 1)).collect();
                at.sort_unstable();
                let mut crc = Crc32::new();
                let mut from = 0;
                for &to in at.iter().chain([run.len()].iter()) {
                    crc.update(&run[from..to]);
                    from = to;
                }
                proptest::prop_assert_eq!(crc.finish(), want, "offset {}, cuts {:?}", offset, at);
            }
        }
    }

    #[test]
    fn varint_roundtrip_extremes() {
        let mut w = ByteWriter::new();
        let us = [0u64, 1, 127, 128, 300, u64::MAX / 2, u64::MAX];
        let is = [0i64, -1, 1, i64::MIN, i64::MAX, -123456789];
        for &v in &us {
            w.u64(v);
        }
        for &v in &is {
            w.i64(v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for &v in &us {
            assert_eq!(r.u64().unwrap(), v);
        }
        for &v in &is {
            assert_eq!(r.i64().unwrap(), v);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn f64_bits_exact() {
        let vals = [
            0.0,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
        ];
        let mut w = ByteWriter::new();
        for &v in &vals {
            w.f64(v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for &v in &vals {
            assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn value_and_props_roundtrip() {
        let props = props! {
            "name" => "a=b;c\td\nnewline",
            "age" => 34i64,
            "score" => 0.1234567890123,
            "vip" => true,
            "joined" => Timestamp::from_millis(42),
            "nothing" => Value::Null
        };
        let mut w = ByteWriter::new();
        w.property_map(&props);
        w.property_value(&PropertyValue::Series(SeriesId::new(7)));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.property_map().unwrap(), props);
        assert_eq!(
            r.property_value().unwrap(),
            PropertyValue::Series(SeriesId::new(7))
        );
        r.expect_exhausted().unwrap();
    }

    #[test]
    fn interval_and_labels_roundtrip() {
        let iv = Interval::new(Timestamp::MIN, Timestamp::MAX);
        let labels = vec![Label::new("User"), Label::new("Pérson")];
        let mut w = ByteWriter::new();
        w.interval(&iv);
        w.labels(&labels);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.interval().unwrap(), iv);
        assert_eq!(r.labels().unwrap(), labels);
    }

    #[test]
    fn corrupt_input_errors_not_panics() {
        // truncated varint
        assert!(ByteReader::new(&[0x80]).u64().is_err());
        // truncated f64
        assert!(ByteReader::new(&[1, 2, 3]).f64().is_err());
        // bad value tag
        assert!(ByteReader::new(&[9]).value().is_err());
        // bad bool
        assert!(ByteReader::new(&[2]).bool().is_err());
        // declared string length beyond input
        let mut w = ByteWriter::new();
        w.u64(1_000_000);
        assert!(ByteReader::new(w.as_bytes()).str().is_err());
        // invalid utf-8
        let mut w = ByteWriter::new();
        w.u64(2);
        w.raw(&[0xFF, 0xFE]);
        assert!(ByteReader::new(w.as_bytes()).str().is_err());
        // reversed interval
        let mut w = ByteWriter::new();
        w.timestamp(Timestamp::from_millis(10));
        w.timestamp(Timestamp::from_millis(5));
        assert!(ByteReader::new(w.as_bytes()).interval().is_err());
        // trailing garbage detection
        let mut r = ByteReader::new(&[0, 1]);
        r.u8().unwrap();
        assert!(r.expect_exhausted().is_err());
    }

    #[test]
    fn corrupt_error_reports_offset() {
        let mut r = ByteReader::new(&[0x05, 0x80]);
        r.u8().unwrap();
        let err = r.u64().unwrap_err();
        match err {
            HyGraphError::Corrupt { offset, .. } => assert!(offset >= 1),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
