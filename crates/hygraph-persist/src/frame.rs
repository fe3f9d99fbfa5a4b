//! CRC-guarded WAL frame encoding.
//!
//! Every record in a segment is one frame:
//!
//! ```text
//! ┌───────────┬───────────┬──────────────────────────────┐
//! │ len  u32  │ crc  u32  │ payload (len bytes)          │
//! │ LE        │ LE        │   = LSN varint ++ record     │
//! └───────────┴───────────┴──────────────────────────────┘
//! ```
//!
//! `crc` is the CRC-32/ISO-HDLC checksum of the payload. A torn write
//! (crash mid-append) leaves either a short header, a short payload, or
//! a payload whose checksum disagrees — all three are detected by
//! [`read_frame`] and surface as [`FrameOutcome::Torn`], which the
//! recovery path treats as "the log ends here".

use hygraph_types::bytes::{crc32, ByteReader, ByteWriter};
use hygraph_types::Result;

/// Frame header size: `len` + `crc`.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Hard cap on a single frame's payload — a corrupted length field must
/// not trigger a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: u32 = 256 * 1024 * 1024;

/// Starts a frame at the end of `out`: reserves its header and writes
/// `lsn`. The caller encodes the record straight after it, then calls
/// [`finish_frame`] with the returned start offset — nothing is staged
/// in a buffer of its own.
pub fn begin_frame(out: &mut ByteWriter, lsn: u64) -> usize {
    let start = out.len();
    out.raw(&[0; FRAME_HEADER_BYTES]);
    out.u64(lsn);
    start
}

/// Fills in the header of the frame [`begin_frame`] started at `start`:
/// the length and CRC of everything written after the header since.
pub fn finish_frame(out: &mut ByteWriter, start: usize) {
    let payload = &out.as_bytes()[start + FRAME_HEADER_BYTES..];
    let mut header = [0u8; FRAME_HEADER_BYTES];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    out.patch(start, &header);
}

/// Appends one frame carrying `lsn` and `record` to `out`.
pub fn append_frame(out: &mut ByteWriter, lsn: u64, record: &[u8]) {
    let start = begin_frame(out, lsn);
    out.raw(record);
    finish_frame(out, start);
}

/// Writes one frame through an arbitrary [`std::io::Write`] sink —
/// exercised against [`crate::fault::FailingWriter`] to prove IO errors
/// propagate instead of corrupting silently.
pub fn write_frame<W: std::io::Write>(out: &mut W, lsn: u64, record: &[u8]) -> Result<()> {
    let mut buf = ByteWriter::with_capacity(FRAME_HEADER_BYTES + 10 + record.len());
    append_frame(&mut buf, lsn, record);
    out.write_all(buf.as_bytes())?;
    Ok(())
}

/// The result of attempting to read one frame at an offset.
#[derive(Debug)]
pub enum FrameOutcome<'a> {
    /// A valid frame: its LSN, the record bytes, and the offset just
    /// past the frame.
    Frame {
        /// Log sequence number carried by the frame.
        lsn: u64,
        /// The record payload (without the LSN prefix).
        record: &'a [u8],
        /// Byte offset of the next frame.
        next_offset: usize,
    },
    /// Clean end of segment: `offset == buf.len()`.
    End,
    /// A torn or corrupt frame starts at this offset; recovery truncates
    /// the segment here.
    Torn,
}

/// Reads the frame starting at `offset` in `buf`.
pub fn read_frame(buf: &[u8], offset: usize) -> FrameOutcome<'_> {
    if offset == buf.len() {
        return FrameOutcome::End;
    }
    let Some(header) = buf.get(offset..offset + FRAME_HEADER_BYTES) else {
        return FrameOutcome::Torn;
    };
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if len == 0 || len > MAX_FRAME_BYTES {
        return FrameOutcome::Torn;
    }
    let start = offset + FRAME_HEADER_BYTES;
    let Some(payload) = buf.get(start..start + len as usize) else {
        return FrameOutcome::Torn;
    };
    if crc32(payload) != crc {
        return FrameOutcome::Torn;
    }
    let mut r = ByteReader::new(payload);
    let Ok(lsn) = r.u64() else {
        return FrameOutcome::Torn;
    };
    let record = &payload[r.position()..];
    FrameOutcome::Frame {
        lsn,
        record,
        next_offset: start + len as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_types::HyGraphError;

    /// Every valid frame of `buf` and the byte length of the intact
    /// prefix — the walk `Wal::recover` does, without the LSN checks.
    fn scan_frames(buf: &[u8]) -> (Vec<(u64, &[u8])>, usize) {
        let mut frames = Vec::new();
        let mut offset = 0;
        loop {
            match read_frame(buf, offset) {
                FrameOutcome::Frame {
                    lsn,
                    record,
                    next_offset,
                } => {
                    frames.push((lsn, record));
                    offset = next_offset;
                }
                FrameOutcome::End | FrameOutcome::Torn => return (frames, offset),
            }
        }
    }

    #[test]
    fn roundtrip_multiple_frames() {
        let mut w = ByteWriter::new();
        append_frame(&mut w, 7, b"alpha");
        append_frame(&mut w, 8, b"");
        append_frame(&mut w, 9, b"gamma-record");
        let buf = w.into_bytes();
        let (frames, valid) = scan_frames(&buf);
        assert_eq!(valid, buf.len());
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], (7, &b"alpha"[..]));
        assert_eq!(frames[1], (8, &b""[..]));
        assert_eq!(frames[2], (9, &b"gamma-record"[..]));
    }

    #[test]
    fn truncation_at_every_byte_never_panics_and_keeps_prefix() {
        let mut w = ByteWriter::new();
        for lsn in 0..5u64 {
            append_frame(&mut w, lsn, format!("record-{lsn}").as_bytes());
        }
        let buf = w.into_bytes();
        let (all, _) = scan_frames(&buf);
        assert_eq!(all.len(), 5);
        let frame_starts: Vec<usize> = {
            let mut starts = vec![0usize];
            let mut off = 0;
            while let FrameOutcome::Frame { next_offset, .. } = read_frame(&buf, off) {
                starts.push(next_offset);
                off = next_offset;
            }
            starts
        };
        for cut in 0..buf.len() {
            let (frames, valid) = scan_frames(&buf[..cut]);
            // the intact prefix is exactly the whole frames before `cut`
            let expect_full = frame_starts.iter().filter(|&&s| s > 0 && s <= cut).count();
            assert_eq!(frames.len(), expect_full, "cut at {cut}");
            assert!(valid <= cut);
        }
    }

    #[test]
    fn corrupt_byte_detected() {
        let mut w = ByteWriter::new();
        append_frame(&mut w, 0, b"first");
        append_frame(&mut w, 1, b"second");
        let buf = w.into_bytes();
        let full = scan_frames(&buf).0.len();
        assert_eq!(full, 2);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0xFF;
            let (frames, _) = scan_frames(&bad);
            // flipping any byte may only shorten the valid prefix, never
            // yield a frame that was not written
            assert!(frames.len() <= 2);
            for (lsn, rec) in frames {
                let want: &[u8] = if lsn == 0 { b"first" } else { b"second" };
                // a surviving frame is bit-exact or not reported at all
                if rec != want {
                    panic!("byte {i}: frame {lsn} decoded to altered record");
                }
            }
        }
    }

    #[test]
    fn oversized_length_field_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[0; 64]);
        assert!(matches!(read_frame(&buf, 0), FrameOutcome::Torn));
        // zero-length frames are also invalid
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&crc32(b"").to_le_bytes());
        assert!(matches!(read_frame(&buf, 0), FrameOutcome::Torn));
    }

    #[test]
    fn write_frame_propagates_io_errors() {
        let mut sink = crate::fault::FailingWriter::failing_after(4);
        let err = write_frame(&mut sink, 0, b"record").unwrap_err();
        assert!(matches!(err, HyGraphError::Io(_)));
        // nothing partial is observable as a valid frame
        let (frames, _) = scan_frames(sink.written());
        assert!(frames.is_empty());
    }
}
