//! Append-only, segmented write-ahead log.
//!
//! A log is a directory of segment files named `wal-<base>.seg`, where
//! `<base>` is the 16-hex-digit LSN of the segment's first frame.
//! Every segment starts with a 9-byte header — magic `HGWL2` plus the
//! 4-byte store tag — followed by CRC-guarded frames
//! ([`crate::frame`]). Every frame record is prefixed with the 8-byte
//! little-endian commit timestamp (epoch ms) of the transaction that
//! produced it. Appends buffer frames in memory (group commit);
//! [`Wal::sync`] writes the batch with one `write` + `fdatasync` pair,
//! rotating to a fresh segment once the active one exceeds the
//! configured size.
//!
//! Recovery ([`Wal::recover`]) replays segments in base order, checks
//! header, checksum, and LSN continuity, and — on the first torn or
//! corrupt frame — truncates the segment at the last intact frame and
//! discards any later segments, exactly reproducing the "committed =
//! synced prefix" contract.
//!
//! `HGWL2` is the only format read. A segment whose header starts
//! `HGWL` with another version digit (the `HGWL1` of PRs 2–7, or a
//! newer build's) is a healthy log this build cannot interpret, not a
//! torn one: recovery refuses with [`HyGraphError::UnsupportedFormat`]
//! before it removes or truncates anything.

use crate::frame::{begin_frame, finish_frame, read_frame, FrameOutcome};
use crate::vfs::{AppendFile, Vfs};
use hygraph_metrics as metrics;
use hygraph_types::bytes::ByteWriter;
use hygraph_types::{HyGraphError, Result};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const SEGMENT_MAGIC: &[u8; 5] = b"HGWL2";
const SEGMENT_HEADER_BYTES: usize = SEGMENT_MAGIC.len() + 4;
/// Bytes of the commit-timestamp prefix on every frame record.
const TS_PREFIX_BYTES: usize = 8;

fn segment_name(base: u64) -> String {
    format!("wal-{base:016x}.seg")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Lists `(base LSN, path)` of every segment in `dir`, sorted by base.
pub fn list_segments(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for name in vfs.list(dir)? {
        if let Some(base) = parse_segment_name(&name) {
            out.push((base, dir.join(name)));
        }
    }
    out.sort();
    Ok(out)
}

/// Compares the head of a stored file with the 5-byte `magic` this
/// build writes: a 4-byte family (`HGWL`, `HGCK`) and an ASCII version
/// digit. `Ok(true)`: the current format. `Ok(false)`: no header of
/// this family — a torn write, which recovery may drop. `Err`: the
/// family under another version digit (PRs 2–7 wrote `…1`), a healthy
/// file this build cannot read; dropping it as torn would delete a
/// valid log, so callers refuse before they remove or truncate anything.
pub(crate) fn check_magic(what: &str, path: &Path, head: &[u8], magic: &[u8; 5]) -> Result<bool> {
    let Some(found) = head.get(..magic.len()) else {
        return Ok(false);
    };
    let (family, version) = found.split_at(magic.len() - 1);
    if found == magic {
        Ok(true)
    } else if family == &magic[..family.len()] && version[0].is_ascii_digit() {
        Err(HyGraphError::UnsupportedFormat(format!(
            "{what} {} is format {}; this build reads and writes only {} and left the \
             directory untouched (OPERATIONS.md, \"Directories written before PR 8\")",
            path.display(),
            found.escape_ascii(),
            magic.escape_ascii(),
        )))
    } else {
        Ok(false)
    }
}

/// Reads every segment header in `dir` and fails on the first one
/// recovery must neither replay nor drop as torn: another format
/// version ([`check_magic`]) or another store's tag (deleting that one
/// would destroy someone else's data). Read-only, so a refused open
/// leaves the directory byte-identical — [`Wal::recover`] runs it
/// before touching anything, and a caller recovering several logs as
/// one unit runs it over all of them first.
pub(crate) fn refuse_foreign_segments(vfs: &dyn Vfs, dir: &Path, tag: [u8; 4]) -> Result<()> {
    if !vfs.exists(dir) {
        return Ok(());
    }
    for (_, path) in list_segments(vfs, dir)? {
        let head = vfs.read_head(&path, SEGMENT_HEADER_BYTES)?;
        let found = head.get(SEGMENT_MAGIC.len()..SEGMENT_HEADER_BYTES);
        if check_magic("WAL segment", &path, &head, SEGMENT_MAGIC)?
            && found.is_some_and(|found| found != tag)
        {
            return Err(HyGraphError::corrupt(format!(
                "WAL segment {} belongs to store tag {:?}, expected {:?}",
                path.display(),
                String::from_utf8_lossy(&head[SEGMENT_MAGIC.len()..]),
                String::from_utf8_lossy(&tag),
            )));
        }
    }
    Ok(())
}

struct ActiveSegment {
    path: PathBuf,
    file: Box<dyn AppendFile>,
    len: u64,
}

/// An opaque position in the unsynced batch (see [`Wal::mark`]).
#[derive(Clone, Copy, Debug)]
pub struct PendingMark {
    pending_len: usize,
    next_lsn: u64,
}

/// The segmented write-ahead log of one durable store.
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    tag: [u8; 4],
    segment_bytes: u64,
    active: Option<ActiveSegment>,
    /// Frames appended but not yet written+synced (the group-commit
    /// batch), each encoded here in place.
    pending: ByteWriter,
    /// LSN of the first pending frame (base for a new segment).
    pending_base: u64,
    next_lsn: u64,
    /// `next_lsn` as of the last successful [`Wal::sync`] — everything
    /// below this is durable.
    durable_lsn: u64,
    /// Set when a failed sync left the active segment in a state that
    /// could not be wound back: further syncs refuse, because retrying
    /// would append the batch *after* the torn bytes and then claim it
    /// durable while recovery truncates at the tear.
    poisoned: bool,
}

impl Wal {
    /// Opens a fresh, empty log in `dir` (created if missing).
    pub fn create(
        vfs: Arc<dyn Vfs>,
        dir: impl Into<PathBuf>,
        tag: [u8; 4],
        segment_bytes: u64,
    ) -> Result<Self> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)?;
        Ok(Self {
            vfs,
            dir,
            tag,
            segment_bytes: segment_bytes.max(1),
            active: None,
            pending: ByteWriter::new(),
            pending_base: 0,
            next_lsn: 0,
            durable_lsn: 0,
            poisoned: false,
        })
    }

    /// Recovers the log from `dir`: replays every intact frame with
    /// LSN ≥ `from_lsn` through `apply` (in LSN order, with the frame's
    /// commit timestamp), truncates at the first torn or corrupt frame,
    /// and positions the log for appends. A segment of another format
    /// version or another store fails the call before any file changes.
    pub fn recover(
        vfs: Arc<dyn Vfs>,
        dir: impl Into<PathBuf>,
        tag: [u8; 4],
        segment_bytes: u64,
        from_lsn: u64,
        mut apply: impl FnMut(u64, i64, &[u8]) -> Result<()>,
    ) -> Result<Self> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)?;
        let start = Instant::now();
        let mut replayed = 0u64;
        let mut truncations = 0u64;
        refuse_foreign_segments(&*vfs, &dir, tag)?;
        let segments = list_segments(&*vfs, &dir)?;
        if let Some((first_base, _)) = segments.first() {
            // the log must reach back to the recovery watermark: a first
            // segment starting above it means the prefix (and whatever
            // checkpoint covered it) is gone — replaying the suffix onto
            // a state missing those mutations would be silently wrong
            if *first_base > from_lsn {
                return Err(HyGraphError::corrupt(format!(
                    "WAL in {} starts at LSN {first_base} but recovery needs LSN {from_lsn}: \
                     the log prefix (or the checkpoint covering it) is missing",
                    dir.display(),
                )));
            }
        }
        let mut expected: Option<u64> = None;
        let mut survivors: Vec<(u64, PathBuf, u64)> = Vec::new(); // (base, path, file len)
        let mut torn = false;

        for (base, path) in &segments {
            if torn {
                vfs.remove_file(path)?;
                truncations += 1;
                continue;
            }
            let bytes = vfs.read(path)?;
            // anything else the pass above let through is a torn header
            let header_ok = bytes.len() >= SEGMENT_HEADER_BYTES
                && bytes[..SEGMENT_MAGIC.len()] == *SEGMENT_MAGIC
                && bytes[SEGMENT_MAGIC.len()..SEGMENT_HEADER_BYTES] == tag;
            // a later segment whose base disagrees with the running LSN
            // means frames in between vanished: stop at the gap
            let continuous = match expected {
                None => true,
                Some(e) => *base == e,
            };
            if !header_ok || !continuous {
                // nothing in this segment (or anything later) is usable
                torn = true;
                vfs.remove_file(path)?;
                truncations += 1;
                continue;
            }
            let body = &bytes[SEGMENT_HEADER_BYTES..];
            let mut offset = 0usize;
            let mut lsn_here = *base;
            loop {
                match read_frame(body, offset) {
                    FrameOutcome::Frame {
                        lsn,
                        record,
                        next_offset,
                    } => {
                        if lsn != lsn_here {
                            break; // LSN discontinuity: corrupt from here
                        }
                        // records lead with the commit timestamp; one
                        // too short to hold it is corrupt
                        let Some((prefix, record)) = record.split_at_checked(TS_PREFIX_BYTES)
                        else {
                            break;
                        };
                        let ts = i64::from_le_bytes(prefix.try_into().expect("8 bytes"));
                        if lsn >= from_lsn {
                            apply(lsn, ts, record)?;
                            replayed += 1;
                        }
                        lsn_here += 1;
                        offset = next_offset;
                    }
                    FrameOutcome::End => break,
                    FrameOutcome::Torn => break,
                }
            }
            let valid_file_len = (SEGMENT_HEADER_BYTES + offset) as u64;
            if valid_file_len < bytes.len() as u64 {
                // torn tail: truncate to the intact prefix, drop the rest
                vfs.truncate(path, valid_file_len)?;
                torn = true;
                truncations += 1;
            }
            expected = Some(lsn_here);
            survivors.push((*base, path.clone(), valid_file_len));
        }
        // If the log ends below the recovery watermark (a crash landed
        // between checkpoint-write and segment purge), every surviving
        // segment is fully covered by the checkpoint: drop them all so
        // the next append opens a fresh segment at the watermark —
        // otherwise the LSN jump would read as a gap on the *next*
        // recovery.
        if expected.unwrap_or(0) < from_lsn {
            for (_, path, _) in survivors.drain(..) {
                vfs.remove_file(&path)?;
                truncations += 1;
            }
            torn = true; // force the directory fsync below
        }
        if torn {
            vfs.sync_dir(&dir)?;
        }

        let next_lsn = expected.unwrap_or(0).max(from_lsn);
        let active = match survivors.last() {
            Some((_, path, len)) => Some(ActiveSegment {
                path: path.clone(),
                file: vfs.open_append(path)?,
                len: *len,
            }),
            None => None,
        };
        if let Some(m) = metrics::get() {
            m.persist.recoveries.inc();
            m.persist.recovery_frames_replayed.add(replayed);
            m.persist.recovery_truncations.add(truncations);
            m.persist.recovery_us.observe_duration(start.elapsed());
        }
        Ok(Self {
            vfs,
            dir,
            tag,
            segment_bytes: segment_bytes.max(1),
            active,
            pending: ByteWriter::new(),
            pending_base: next_lsn,
            next_lsn,
            durable_lsn: next_lsn,
            poisoned: false,
        })
    }

    /// The LSN the next appended record will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Everything below this LSN is durable on disk.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one record stamped with commit timestamp `ts` (epoch ms;
    /// 0 when the caller tracks no transaction time) to the
    /// group-commit batch and returns its LSN. The record is *not*
    /// durable until [`Wal::sync`] returns.
    pub fn append(&mut self, ts: i64, record: &[u8]) -> u64 {
        self.append_with(ts, |w| w.raw(record))
    }

    /// [`Wal::append`] of the record `encode` writes: it encodes straight
    /// into the batch, after the frame header, LSN and timestamp, and
    /// the header is filled in after it — the record is never staged in
    /// a buffer of its own.
    pub fn append_with(&mut self, ts: i64, encode: impl FnOnce(&mut ByteWriter)) -> u64 {
        let start = metrics::enabled().then(Instant::now);
        let lsn = self.next_lsn;
        if self.pending.is_empty() {
            self.pending_base = lsn;
        }
        let frame = begin_frame(&mut self.pending, lsn);
        self.pending.raw(&ts.to_le_bytes());
        encode(&mut self.pending);
        finish_frame(&mut self.pending, frame);
        self.next_lsn += 1;
        if let Some(m) = metrics::get() {
            m.persist.wal_appends.inc();
            if let Some(s) = start {
                m.persist.wal_append_us.observe_duration(s.elapsed());
            }
        }
        lsn
    }

    /// Bytes currently buffered (group-commit batch size).
    pub fn pending_bytes(&self) -> usize {
        self.pending.len()
    }

    /// A position in the unsynced batch, for [`Wal::rollback_to`].
    pub fn mark(&self) -> PendingMark {
        PendingMark {
            pending_len: self.pending.len(),
            next_lsn: self.next_lsn,
        }
    }

    /// Retracts every append made after `mark` — valid only while none
    /// of them has been synced (the WAL-before-apply protocol appends,
    /// tries to apply, and retracts the frame if the apply is rejected,
    /// so rejected mutations never reach disk).
    pub fn rollback_to(&mut self, mark: PendingMark) {
        assert!(
            mark.pending_len <= self.pending.len() && mark.next_lsn <= self.next_lsn,
            "rollback mark is from after a sync"
        );
        self.pending.truncate(mark.pending_len);
        self.next_lsn = mark.next_lsn;
        if self.pending.is_empty() {
            self.pending_base = self.next_lsn;
        }
    }

    /// Writes the batch with one `write` + `fdatasync`, rotating first
    /// if the active segment is over the size threshold. On success the
    /// whole batch is durable.
    ///
    /// A failed sync is safe to retry: a partially written batch is
    /// wound back to the segment's known-good length first, so the
    /// retry cannot land the batch after torn bytes. If the wind-back
    /// itself fails (or the `fdatasync` fails, after which the kernel
    /// may silently drop the error state), the log is poisoned and
    /// refuses all further syncs — reopen the store to recover the
    /// durable prefix.
    pub fn sync(&mut self) -> Result<()> {
        if self.poisoned {
            return Err(HyGraphError::corrupt(
                "WAL poisoned by an earlier failed sync; reopen the store to recover",
            ));
        }
        if self.pending.is_empty() {
            return Ok(());
        }
        let start = Instant::now();
        let batch_frames = self.next_lsn - self.pending_base;
        let batch_bytes = self.pending.len() as u64;
        let mut rotated = false;
        if let Some(a) = &self.active {
            if a.len >= self.segment_bytes {
                self.active = None; // finalized; a fresh segment follows
            }
        }
        if self.active.is_none() {
            let path = self.dir.join(segment_name(self.pending_base));
            let file = self.vfs.create_append(&path, &[SEGMENT_MAGIC, &self.tag])?;
            self.vfs.sync_dir(&self.dir)?;
            self.active = Some(ActiveSegment {
                path,
                file,
                len: SEGMENT_HEADER_BYTES as u64,
            });
            rotated = true;
        }
        let a = self.active.as_mut().expect("active segment opened above");
        if let Err(e) = a.file.write_all(self.pending.as_bytes()) {
            // part of the batch may already be in the file: wind the
            // segment (and the write cursor) back to the known-good
            // length so a retried sync starts exactly where the last
            // successful one ended
            if a.file.rewind(a.len).is_err() {
                self.poisoned = true;
            }
            return Err(e.into());
        }
        if let Err(e) = a.file.sync_data() {
            // after a failed fdatasync the fate of the just-written
            // bytes is unknowable (the kernel may clear the error), so
            // nothing later can be trusted to reach disk
            self.poisoned = true;
            return Err(e.into());
        }
        a.len += self.pending.len() as u64;
        self.pending.clear();
        self.pending_base = self.next_lsn;
        self.durable_lsn = self.next_lsn;
        if let Some(m) = metrics::get() {
            m.persist.wal_syncs.inc();
            m.persist.wal_synced_bytes.add(batch_bytes);
            m.persist.group_commit_frames.observe(batch_frames);
            m.persist.wal_sync_us.observe_duration(start.elapsed());
            if rotated {
                m.persist.wal_rotations.inc();
            }
        }
        Ok(())
    }

    /// Closes the active segment so the next [`Wal::sync`] starts a new
    /// one — called after a checkpoint, making the closed segment
    /// purgeable by the following checkpoint.
    pub fn rotate(&mut self) {
        self.active = None;
    }

    /// Deletes every segment whose frames all have LSN < `lsn` (they
    /// are covered by a checkpoint). The active segment is never
    /// deleted.
    pub fn purge_up_to(&mut self, lsn: u64) -> Result<()> {
        let segments = list_segments(&*self.vfs, &self.dir)?;
        let active_path = self.active.as_ref().map(|a| a.path.clone());
        // windows(2) never visits the last segment, so the tail — which
        // may be active or carry the next appends — is always kept
        for window in segments.windows(2) {
            let (_, ref path) = window[0];
            let (next_base, _) = window[1];
            // every frame of window[0] has LSN < next_base
            if next_base <= lsn && Some(path) != active_path.as_ref() {
                self.vfs.remove_file(path)?;
            }
        }
        self.vfs.sync_dir(&self.dir)?;
        Ok(())
    }

    /// Flushes and closes the log. Dropping without this loses any
    /// unsynced batch — by design (that is the crash the WAL protects
    /// against).
    pub fn close(mut self) -> Result<()> {
        self.sync()
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("next_lsn", &self.next_lsn)
            .field("durable_lsn", &self.durable_lsn)
            .field("pending_bytes", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{flip_byte, scratch_dir, truncate_file};
    use crate::vfs::OsVfs;

    const TAG: [u8; 4] = *b"TEST";

    fn collect(dir: &Path, from: u64) -> (Vec<(u64, Vec<u8>)>, Wal) {
        let mut seen = Vec::new();
        let wal = Wal::recover(OsVfs::shared(), dir, TAG, 64, from, |lsn, _ts, rec| {
            seen.push((lsn, rec.to_vec()));
            Ok(())
        })
        .unwrap();
        (seen, wal)
    }

    #[test]
    fn append_sync_recover_roundtrip() {
        let dir = scratch_dir("roundtrip");
        let mut wal = Wal::create(OsVfs::shared(), &dir, TAG, 1024).unwrap();
        for i in 0..10u64 {
            assert_eq!(wal.append(0, format!("r{i}").as_bytes()), i);
        }
        wal.sync().unwrap();
        let (seen, wal2) = collect(&dir, 0);
        assert_eq!(seen.len(), 10);
        assert_eq!(seen[3], (3, b"r3".to_vec()));
        assert_eq!(wal2.next_lsn(), 10);
        // replay from a watermark skips the prefix
        let (tail, _) = collect(&dir, 7);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].0, 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsynced_batch_is_lost_synced_prefix_survives() {
        let dir = scratch_dir("unsynced");
        let mut wal = Wal::create(OsVfs::shared(), &dir, TAG, 1024).unwrap();
        wal.append(0, b"durable");
        wal.sync().unwrap();
        wal.append(0, b"volatile");
        drop(wal); // crash: batch never synced
        let (seen, wal2) = collect(&dir, 0);
        assert_eq!(seen, vec![(0, b"durable".to_vec())]);
        assert_eq!(wal2.next_lsn(), 1, "lost LSN is reused");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_produces_multiple_segments_and_replays_in_order() {
        let dir = scratch_dir("rotate");
        let mut wal = Wal::create(OsVfs::shared(), &dir, TAG, 64).unwrap(); // tiny segments
        for i in 0..50u64 {
            wal.append(0, format!("record-{i:04}").as_bytes());
            wal.sync().unwrap();
        }
        assert!(
            list_segments(&OsVfs, &dir).unwrap().len() > 1,
            "rotation happened"
        );
        let (seen, _) = collect(&dir, 0);
        assert_eq!(seen.len(), 50);
        for (i, (lsn, rec)) in seen.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            assert_eq!(rec, format!("record-{i:04}").as_bytes());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncated_on_recovery() {
        let dir = scratch_dir("torn");
        let mut wal = Wal::create(OsVfs::shared(), &dir, TAG, 4096).unwrap();
        for i in 0..5u64 {
            wal.append(0, format!("r{i}").as_bytes());
        }
        wal.sync().unwrap();
        let (base, path) = list_segments(&OsVfs, &dir).unwrap().pop().unwrap();
        assert_eq!(base, 0);
        let full = std::fs::metadata(&path).unwrap().len();
        truncate_file(&path, full - 3).unwrap(); // tear the last frame
        let (seen, wal2) = collect(&dir, 0);
        assert_eq!(seen.len(), 4, "last frame gone, prefix intact");
        assert_eq!(wal2.next_lsn(), 4);
        // the file was physically truncated to the intact prefix
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < full - 3);
        // and the log accepts new appends at the reused LSN
        let mut wal2 = wal2;
        assert_eq!(wal2.append(0, b"replacement"), 4);
        wal2.sync().unwrap();
        let (seen, _) = collect(&dir, 0);
        assert_eq!(seen[4], (4, b"replacement".to_vec()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_mid_segment_drops_suffix_and_later_segments() {
        let dir = scratch_dir("corrupt");
        let mut wal = Wal::create(OsVfs::shared(), &dir, TAG, 64).unwrap();
        for i in 0..30u64 {
            wal.append(0, format!("record-{i:05}").as_bytes());
            wal.sync().unwrap();
        }
        let segments = list_segments(&OsVfs, &dir).unwrap();
        assert!(segments.len() >= 3);
        // flip a byte in the middle of the second segment
        let (_, ref second) = segments[1];
        let len = std::fs::metadata(second).unwrap().len();
        flip_byte(second, len / 2).unwrap();
        let (seen, _) = collect(&dir, 0);
        assert!(!seen.is_empty() && seen.len() < 30);
        // the surviving prefix is sequential from 0
        for (i, (lsn, _)) in seen.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
        }
        // later segments were deleted
        let remaining = list_segments(&OsVfs, &dir).unwrap();
        assert!(remaining.len() < segments.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_tag_segment_is_rejected() {
        let dir = scratch_dir("tag");
        let mut wal = Wal::create(OsVfs::shared(), &dir, TAG, 1024).unwrap();
        wal.append(0, b"x");
        wal.sync().unwrap();
        drop(wal);
        let res = Wal::recover(OsVfs::shared(), &dir, *b"OTHR", 1024, 0, |_, _, _| Ok(()));
        assert!(res.is_err(), "foreign log must not open");
        // the segment survives untouched for its rightful owner
        assert_eq!(list_segments(&OsVfs, &dir).unwrap().len(), 1);
        let mut seen = Vec::new();
        Wal::recover(OsVfs::shared(), &dir, TAG, 1024, 0, |lsn, _ts, rec| {
            seen.push((lsn, rec.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![(0, b"x".to_vec())]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn purge_removes_covered_segments() {
        let dir = scratch_dir("purge");
        let mut wal = Wal::create(OsVfs::shared(), &dir, TAG, 64).unwrap();
        for i in 0..30u64 {
            wal.append(0, format!("record-{i:05}").as_bytes());
            wal.sync().unwrap();
        }
        let before = list_segments(&OsVfs, &dir).unwrap().len();
        assert!(before >= 3);
        wal.rotate();
        wal.purge_up_to(wal.next_lsn()).unwrap();
        let after = list_segments(&OsVfs, &dir).unwrap();
        assert!(after.len() < before, "covered segments deleted");
        // a purged log only opens from a watermark the surviving
        // segments cover (the checkpoint's LSN); recovering from 0
        // would silently skip the purged prefix and must fail loudly
        assert!(Wal::recover(OsVfs::shared(), &dir, TAG, 64, 0, |_, _, _| Ok(())).is_err());
        // ...while recovery from the watermark replays what remains and
        // positions the log at next_lsn
        let wal2 = Wal::recover(OsVfs::shared(), &dir, TAG, 64, 30, |_, _, _| Ok(())).unwrap();
        assert_eq!(wal2.next_lsn(), 30);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_log_prefix_is_a_loud_error() {
        let dir = scratch_dir("prefix");
        let mut wal = Wal::create(OsVfs::shared(), &dir, TAG, 64).unwrap();
        for i in 0..30u64 {
            wal.append(0, format!("record-{i:05}").as_bytes());
            wal.sync().unwrap();
        }
        let segments = list_segments(&OsVfs, &dir).unwrap();
        assert!(segments.len() >= 3);
        // the first segment vanishes (lost checkpoint scenario): the
        // remaining suffix must not be replayed onto a state missing
        // the prefix mutations
        std::fs::remove_file(&segments[0].1).unwrap();
        let res = Wal::recover(OsVfs::shared(), &dir, TAG, 64, 0, |_, _, _| Ok(()));
        assert!(res.is_err(), "missing prefix silently skipped");
        // the error is detected before anything is deleted
        assert_eq!(
            list_segments(&OsVfs, &dir).unwrap().len(),
            segments.len() - 1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commit_timestamps_roundtrip_through_recovery() {
        let dir = scratch_dir("wal-ts");
        let mut wal = Wal::create(OsVfs::shared(), &dir, TAG, 4096).unwrap();
        wal.append(1_000, b"a");
        wal.append(1_000, b"b");
        wal.append(2_500, b"c");
        wal.sync().unwrap();
        let mut seen = Vec::new();
        Wal::recover(OsVfs::shared(), &dir, TAG, 4096, 0, |lsn, ts, rec| {
            seen.push((lsn, ts, rec.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            seen,
            vec![
                (0, 1_000, b"a".to_vec()),
                (1, 1_000, b"b".to_vec()),
                (2, 2_500, b"c".to_vec()),
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn assert_refused_untouched(dir: &Path, version: &str) {
        let before = crate::fault::snapshot_dir(dir).unwrap();
        let err = Wal::recover(OsVfs::shared(), dir, TAG, 4096, 0, |_, _, _| Ok(())).unwrap_err();
        assert!(
            matches!(&err, HyGraphError::UnsupportedFormat(m) if m.contains(version)),
            "expected a refusal naming {version}, got {err:?}"
        );
        assert_eq!(
            crate::fault::snapshot_dir(dir).unwrap(),
            before,
            "a refused open must leave the directory byte-identical"
        );
    }

    #[test]
    fn legacy_v1_segment_is_refused_and_left_untouched() {
        let dir = scratch_dir("wal-v1");
        // hand-write a v1 segment: old header, frames without ts prefix
        let mut bytes = ByteWriter::new();
        bytes.raw(b"HGWL1");
        bytes.raw(&TAG);
        crate::frame::append_frame(&mut bytes, 0, b"old-a");
        crate::frame::append_frame(&mut bytes, 1, b"old-b");
        std::fs::write(dir.join(segment_name(0)), bytes.as_bytes()).unwrap();
        assert_refused_untouched(&dir, "HGWL1");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_newer_segment_version_is_refused_and_left_untouched() {
        // a healthy two-segment log whose tail claims a newer version,
        // behind a head segment with a torn tail: the refusal comes
        // before that tear is truncated
        let dir = scratch_dir("wal-v3");
        let mut wal = Wal::create(OsVfs::shared(), &dir, TAG, 1).unwrap(); // rotate every sync
        wal.append(1_000, b"kept-a");
        wal.sync().unwrap();
        wal.append(2_000, b"kept-b");
        wal.sync().unwrap();
        drop(wal);
        let segments = list_segments(&OsVfs, &dir).unwrap();
        let (head, tail) = (&segments[0].1, &segments[1].1);
        truncate_file(head, std::fs::metadata(head).unwrap().len() - 2).unwrap();
        let mut bytes = std::fs::read(tail).unwrap();
        bytes[4] = b'3';
        std::fs::write(tail, bytes).unwrap();
        assert_refused_untouched(&dir, "HGWL3");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_batches_into_one_segment_write() {
        let dir = scratch_dir("group");
        let mut wal = Wal::create(OsVfs::shared(), &dir, TAG, 1 << 20).unwrap();
        for i in 0..100u64 {
            wal.append(0, format!("batched-{i}").as_bytes());
        }
        assert!(wal.pending_bytes() > 0);
        assert_eq!(wal.durable_lsn(), 0);
        wal.sync().unwrap();
        assert_eq!(wal.durable_lsn(), 100);
        assert_eq!(wal.pending_bytes(), 0);
        assert_eq!(list_segments(&OsVfs, &dir).unwrap().len(), 1);
        let (seen, _) = collect(&dir, 0);
        assert_eq!(seen.len(), 100);
        std::fs::remove_dir_all(&dir).ok();
    }
}
