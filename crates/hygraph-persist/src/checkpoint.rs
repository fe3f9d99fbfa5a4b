//! Binary full-state checkpoints.
//!
//! A checkpoint file `ckpt-<lsn>.ck` (16-hex-digit LSN) captures the
//! complete store state as of that LSN:
//!
//! ```text
//! ┌─────────┬───────┬──────────┬──────────┬─────────────────────┐
//! │ "HGCK2" │ tag 4 │ len u32  │ crc u32  │ payload (len bytes) │
//! └─────────┴───────┴──────────┴──────────┴─────────────────────┘
//! payload = history watermark i64 LE (8 bytes) ++ state
//! ```
//!
//! The watermark is the commit timestamp (epoch ms) of the newest
//! transaction the snapshot covers — 0 when the store tracks no
//! transaction time. Placing it inside the payload keeps it under the
//! CRC. `HGCK2` is the only format read: a file whose header starts
//! `HGCK` with another version digit (the `HGCK1` of PRs 2–7, or a
//! newer build's) is a healthy snapshot this build cannot interpret,
//! so [`load_latest`] fails with [`HyGraphError::UnsupportedFormat`]
//! instead of skipping it as torn — skipping would fall back to an
//! older state and let the next checkpoint purge the file.
//!
//! A checkpoint streams to disk ([`CheckpointWriter`]). It is staged
//! to a `.tmp` sibling whose header goes out first with its length and
//! CRC zeroed; the payload follows in chunks of about [`CHUNK_BYTES`],
//! each folded into an incremental CRC as it is written, so the encoded
//! state is never held whole. Once the last chunk is out, the length
//! and CRC are patched into the header, the file is `fdatasync`ed,
//! renamed over the final name, and the directory `fsync`ed — each a
//! separate [`Vfs`] call. An existing intact checkpoint is therefore
//! never truncated, and a crash mid-write leaves at most a stray
//! `.tmp` (ignored on load, swept by [`purge_older`]). Should a file
//! under the final name still end up with a length or CRC that
//! disagrees with its header, [`load_latest`] skips it and falls back
//! to the previous checkpoint — a scenario the fault-injection tests
//! exercise explicitly. After a checkpoint is fully synced, WAL
//! segments below its LSN are purged; never before, so the fallback
//! always has the log it needs.

use crate::vfs::{AppendFile, Vfs};
use hygraph_types::bytes::{crc32, ByteWriter, Crc32};
use hygraph_types::{HyGraphError, Result};
use std::path::{Path, PathBuf};

const CKPT_MAGIC: &[u8; 5] = b"HGCK2";
const CKPT_HEADER_BYTES: usize = CKPT_MAGIC.len() + 4 + 4 + 4;
/// Bytes of the watermark prefix inside the payload.
const WATERMARK_BYTES: usize = 8;

fn checkpoint_name(lsn: u64) -> String {
    format!("ckpt-{lsn:016x}.ck")
}

fn parse_checkpoint_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("ckpt-")?.strip_suffix(".ck")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Lists `(LSN, path)` of every checkpoint file in `dir`, sorted by LSN.
pub fn list_checkpoints(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for name in vfs.list(dir)? {
        if let Some(lsn) = parse_checkpoint_name(&name) {
            out.push((lsn, dir.join(name)));
        }
    }
    out.sort();
    Ok(out)
}

/// Payload bytes a streaming encoder gathers before
/// [`CheckpointWriter::drain`] writes them out: the write unit of a
/// checkpoint, and with one series' encoding the most it buffers.
pub const CHUNK_BYTES: usize = 1 << 20;

/// A checkpoint being written, one chunk at a time.
///
/// [`CheckpointWriter::create`] stages the file as a `.tmp` sibling of
/// its final name and writes the header with its length and CRC fields
/// zeroed, then the watermark. [`CheckpointWriter::append`] checksums
/// and writes payload bytes as they come. [`CheckpointWriter::commit`]
/// fills in the header, makes the file durable, renames it over the
/// final name and makes the rename durable: a checkpoint already under
/// that name is never truncated, and a crash at any point leaves either
/// the old file or the complete new one, plus at most a stray `.tmp`
/// that loading ignores and [`purge_older`] sweeps. A writer dropped
/// uncommitted (an I/O error, an oversized state) leaves the same.
pub struct CheckpointWriter<'a> {
    vfs: &'a dyn Vfs,
    tmp: PathBuf,
    path: PathBuf,
    file: Box<dyn AppendFile>,
    crc: Crc32,
    payload_len: u64,
}

impl<'a> CheckpointWriter<'a> {
    /// Starts the checkpoint of `dir` at `lsn`, stamped with the history
    /// `watermark` (commit timestamp of the newest covered transaction;
    /// 0 when untracked).
    pub fn create(
        vfs: &'a dyn Vfs,
        dir: &Path,
        tag: [u8; 4],
        lsn: u64,
        watermark: i64,
    ) -> Result<Self> {
        let path = dir.join(checkpoint_name(lsn));
        let tmp = dir.join(format!("{}.tmp", checkpoint_name(lsn)));
        let file = vfs.create_append(&tmp, &[CKPT_MAGIC, &tag, &[0; 8]])?;
        let mut writer = Self {
            vfs,
            tmp,
            path,
            file,
            crc: Crc32::new(),
            payload_len: 0,
        };
        writer.append(&watermark.to_le_bytes())?;
        Ok(writer)
    }

    /// Appends payload bytes. Refuses, before writing them, bytes that
    /// would take the payload past the header's `u32` length field: a
    /// wrapped length would make the checkpoint unreadable, and it
    /// would then license purging the WAL needed to recover.
    pub fn append(&mut self, bytes: &[u8]) -> Result<()> {
        let len = self.payload_len + bytes.len() as u64;
        if len > u64::from(u32::MAX) {
            return Err(HyGraphError::invalid(format!(
                "checkpoint state passes {} bytes, the u32 header limit",
                u32::MAX,
            )));
        }
        self.crc.update(bytes);
        self.file.write_all(bytes)?;
        self.payload_len = len;
        Ok(())
    }

    /// Appends and empties `w` once it holds [`CHUNK_BYTES`] or more —
    /// the drain a streaming encoder calls at its boundaries.
    pub fn drain(&mut self, w: &mut ByteWriter) -> Result<()> {
        if w.len() >= CHUNK_BYTES {
            self.append(w.as_bytes())?;
            w.clear();
        }
        Ok(())
    }

    /// Fills in the header, `fdatasync`s the file, renames it into place
    /// and `fsync`s the directory. Returns the checkpoint's path.
    pub fn commit(mut self) -> Result<PathBuf> {
        let len = u32::try_from(self.payload_len).expect("bounded by append");
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&len.to_le_bytes());
        header[4..].copy_from_slice(&self.crc.finish().to_le_bytes());
        self.file.patch((CKPT_MAGIC.len() + 4) as u64, &header)?;
        self.file.sync_data()?;
        self.vfs.rename(&self.tmp, &self.path)?;
        if let Some(dir) = self.path.parent() {
            self.vfs.sync_dir(dir)?;
        }
        Ok(self.path)
    }
}

/// Writes and syncs a checkpoint of `state` at `lsn`, stamped with the
/// history `watermark`, in one piece (see [`CheckpointWriter`]).
/// Returns its path.
pub fn write_checkpoint(
    vfs: &dyn Vfs,
    dir: &Path,
    tag: [u8; 4],
    lsn: u64,
    watermark: i64,
    state: &[u8],
) -> Result<PathBuf> {
    let mut file = CheckpointWriter::create(vfs, dir, tag, lsn, watermark)?;
    file.append(state)?;
    file.commit()
}

/// Validates one checkpoint file: `Ok(Some((watermark, state)))` if
/// intact, `Ok(None)` if torn/corrupt, `Err` if it is a healthy
/// checkpoint this store must not skip — another format version
/// (`HGCK` family, foreign version digit) or a *different* store
/// (intact magic, foreign tag). Skipping either silently would make
/// the caller re-initialise over live data.
fn read_checkpoint(vfs: &dyn Vfs, path: &Path, tag: [u8; 4]) -> Result<Option<(i64, Vec<u8>)>> {
    let Ok(mut bytes) = vfs.read(path) else {
        return Ok(None);
    };
    if !crate::wal::check_magic("checkpoint", path, &bytes, CKPT_MAGIC)? {
        return Ok(None);
    }
    if bytes.len() < CKPT_HEADER_BYTES {
        return Ok(None);
    }
    if bytes[CKPT_MAGIC.len()..CKPT_MAGIC.len() + 4] != tag {
        return Err(HyGraphError::corrupt(format!(
            "checkpoint {} belongs to store tag {:?}, expected {:?}",
            path.display(),
            String::from_utf8_lossy(&bytes[CKPT_MAGIC.len()..CKPT_MAGIC.len() + 4]),
            String::from_utf8_lossy(&tag),
        )));
    }
    let len = u32::from_le_bytes(bytes[9..13].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[13..17].try_into().expect("4 bytes"));
    let Some(payload) = bytes.get(CKPT_HEADER_BYTES..CKPT_HEADER_BYTES.saturating_add(len)) else {
        return Ok(None);
    };
    if bytes.len() != CKPT_HEADER_BYTES + len || crc32(payload) != crc {
        return Ok(None);
    }
    // payload = watermark prefix ++ state; too short is torn
    let Some(prefix) = payload.get(..WATERMARK_BYTES) else {
        return Ok(None);
    };
    let watermark = i64::from_le_bytes(prefix.try_into().expect("8 bytes"));
    // the state is the file's tail: shift it down in place rather than
    // copy it into a second state-sized buffer
    bytes.drain(..CKPT_HEADER_BYTES + WATERMARK_BYTES);
    Ok(Some((watermark, bytes)))
}

/// Loads the newest *intact* checkpoint: torn or corrupt files are
/// skipped, falling back to older ones. Returns
/// `(lsn, watermark, state)`. A checkpoint of another format version
/// or belonging to a different store is a hard error, raised before
/// any older candidate is considered; nothing is ever deleted here.
pub fn load_latest(vfs: &dyn Vfs, dir: &Path, tag: [u8; 4]) -> Result<Option<(u64, i64, Vec<u8>)>> {
    let mut candidates = list_checkpoints(vfs, dir)?;
    while let Some((lsn, path)) = candidates.pop() {
        if let Some((watermark, state)) = read_checkpoint(vfs, &path, tag)? {
            return Ok(Some((lsn, watermark, state)));
        }
    }
    Ok(None)
}

/// Deletes every checkpoint older than `keep_lsn` (the newest intact
/// one stays by construction, since its LSN equals `keep_lsn`), plus
/// any stray `.tmp` a crashed [`write_checkpoint`] left behind.
pub fn purge_older(vfs: &dyn Vfs, dir: &Path, keep_lsn: u64) -> Result<()> {
    for (lsn, path) in list_checkpoints(vfs, dir)? {
        if lsn < keep_lsn {
            vfs.remove_file(&path)?;
        }
    }
    for name in vfs.list(dir)? {
        if name.starts_with("ckpt-") && name.ends_with(".ck.tmp") {
            vfs.remove_file(&dir.join(name))?;
        }
    }
    Ok(())
}

/// Deletes checkpoint files *newer* than `latest_valid_lsn` — by
/// definition torn (recovery just established that none of them load),
/// and left in place they would shadow the LSN namespace of future
/// checkpoints.
pub fn purge_newer_than(vfs: &dyn Vfs, dir: &Path, latest_valid_lsn: u64) -> Result<()> {
    for (lsn, path) in list_checkpoints(vfs, dir)? {
        if lsn > latest_valid_lsn {
            vfs.remove_file(&path)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{flip_byte, scratch_dir, truncate_file};
    use crate::vfs::OsVfs;

    const TAG: [u8; 4] = *b"TEST";

    #[test]
    fn write_load_roundtrip_picks_newest() {
        let dir = scratch_dir("ckpt");
        write_checkpoint(&OsVfs, &dir, TAG, 5, 100, b"old-state").unwrap();
        write_checkpoint(&OsVfs, &dir, TAG, 12, 250, b"new-state").unwrap();
        let (lsn, watermark, payload) = load_latest(&OsVfs, &dir, TAG).unwrap().unwrap();
        assert_eq!(lsn, 12);
        assert_eq!(watermark, 250);
        assert_eq!(payload, b"new-state");
        purge_older(&OsVfs, &dir, 12).unwrap();
        assert_eq!(list_checkpoints(&OsVfs, &dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_checkpoint_falls_back_to_previous() {
        let dir = scratch_dir("ckpt-torn");
        write_checkpoint(&OsVfs, &dir, TAG, 3, 7, b"good").unwrap();
        let newer = write_checkpoint(&OsVfs, &dir, TAG, 9, 8, b"doomed-by-crash").unwrap();
        let len = std::fs::metadata(&newer).unwrap().len();
        truncate_file(&newer, len - 4).unwrap();
        let (lsn, watermark, payload) = load_latest(&OsVfs, &dir, TAG).unwrap().unwrap();
        assert_eq!((lsn, watermark, payload.as_slice()), (3, 7, &b"good"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_payload_detected_at_every_byte() {
        let dir = scratch_dir("ckpt-flip");
        let path = write_checkpoint(&OsVfs, &dir, TAG, 1, 42, b"payload-bytes").unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        for off in 0..len {
            flip_byte(&path, off).unwrap();
            // a flipped tag byte surfaces as a hard error, every other
            // flip as "no intact checkpoint" — never as a clean load
            assert!(
                !matches!(load_latest(&OsVfs, &dir, TAG), Ok(Some(_))),
                "flip at {off} accepted"
            );
            flip_byte(&path, off).unwrap(); // restore
        }
        assert!(load_latest(&OsVfs, &dir, TAG).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_tag_is_a_hard_error() {
        let dir = scratch_dir("ckpt-tag");
        write_checkpoint(&OsVfs, &dir, TAG, 1, 0, b"x").unwrap();
        assert!(
            load_latest(&OsVfs, &dir, *b"OTHR").is_err(),
            "foreign store opened"
        );
        // the file survives for its rightful owner
        assert_eq!(list_checkpoints(&OsVfs, &dir).unwrap().len(), 1);
        assert!(load_latest(&OsVfs, &dir, TAG).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewrite_at_same_lsn_never_truncates_the_intact_file() {
        let dir = scratch_dir("ckpt-rewrite");
        write_checkpoint(&OsVfs, &dir, TAG, 7, 1, b"first").unwrap();
        // a rewrite at the same LSN replaces the file atomically…
        write_checkpoint(&OsVfs, &dir, TAG, 7, 2, b"second").unwrap();
        let (lsn, _, payload) = load_latest(&OsVfs, &dir, TAG).unwrap().unwrap();
        assert_eq!((lsn, payload.as_slice()), (7, &b"second"[..]));
        // …and a crash mid-rewrite leaves only a torn .tmp, which can
        // neither shadow the intact file nor survive the next purge
        let tmp = dir.join("ckpt-0000000000000007.ck.tmp");
        std::fs::write(&tmp, b"HGCK2ga").unwrap();
        let (lsn, _, payload) = load_latest(&OsVfs, &dir, TAG).unwrap().unwrap();
        assert_eq!((lsn, payload.as_slice()), (7, &b"second"[..]));
        purge_older(&OsVfs, &dir, 7).unwrap();
        assert!(!tmp.exists(), "stray tmp swept by purge");
        assert!(load_latest(&OsVfs, &dir, TAG).unwrap().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_state_checkpoint_roundtrips() {
        let dir = scratch_dir("ckpt-empty");
        write_checkpoint(&OsVfs, &dir, TAG, 0, 0, b"").unwrap();
        let (lsn, watermark, payload) = load_latest(&OsVfs, &dir, TAG).unwrap().unwrap();
        assert_eq!(lsn, 0);
        assert_eq!(watermark, 0);
        assert!(payload.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `load_latest` must refuse with an error naming `version` and
    /// leave every file as it was.
    fn assert_refused_untouched(dir: &Path, version: &str) {
        let before = crate::fault::snapshot_dir(dir).unwrap();
        let err = load_latest(&OsVfs, dir, TAG).unwrap_err();
        assert!(
            matches!(&err, HyGraphError::UnsupportedFormat(m) if m.contains(version)),
            "expected a refusal naming {version}, got {err:?}"
        );
        assert_eq!(crate::fault::snapshot_dir(dir).unwrap(), before);
    }

    #[test]
    fn legacy_v1_checkpoint_is_refused_not_skipped() {
        let dir = scratch_dir("ckpt-v1");
        // an older intact v2 file the loader must NOT fall back to
        write_checkpoint(&OsVfs, &dir, TAG, 2, 5, b"older-v2-state").unwrap();
        // hand-write a v1 file: old magic, payload = state (no prefix)
        let state = b"v1-state-bytes";
        let mut bytes = b"HGCK1".to_vec();
        bytes.extend_from_slice(&TAG);
        bytes.extend_from_slice(&(state.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(state).to_le_bytes());
        bytes.extend_from_slice(state);
        std::fs::write(dir.join("ckpt-0000000000000004.ck"), &bytes).unwrap();
        assert_refused_untouched(&dir, "HGCK1");

        // once a newer v2 checkpoint supersedes it, the store opens
        write_checkpoint(&OsVfs, &dir, TAG, 9, 777, b"v2-state").unwrap();
        let (lsn, watermark, payload) = load_latest(&OsVfs, &dir, TAG).unwrap().unwrap();
        assert_eq!(
            (lsn, watermark, payload.as_slice()),
            (9, 777, &b"v2-state"[..])
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_newer_checkpoint_version_is_refused_not_skipped() {
        let dir = scratch_dir("ckpt-v3");
        write_checkpoint(&OsVfs, &dir, TAG, 2, 5, b"older-v2-state").unwrap();
        let newer = write_checkpoint(&OsVfs, &dir, TAG, 4, 6, b"from-the-future").unwrap();
        let mut bytes = std::fs::read(&newer).unwrap();
        bytes[..5].copy_from_slice(b"HGCK3");
        std::fs::write(&newer, bytes).unwrap();
        assert_refused_untouched(&dir, "HGCK3");
        std::fs::remove_dir_all(&dir).ok();
    }
}
