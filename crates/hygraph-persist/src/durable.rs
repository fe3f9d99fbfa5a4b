//! The [`Durable`] trait and the [`DurableStore`] engine that wraps any
//! implementor with write-ahead logging, periodic checkpoints, and
//! crash recovery.
//!
//! # Protocol
//!
//! * **WAL before apply.** [`DurableStore::stage`] encodes the mutation
//!   and appends it to the log's group-commit batch *before* touching
//!   the in-memory state; if the state rejects the mutation, the frame
//!   is retracted (it was never synced), so the log only ever holds
//!   mutations that applied cleanly.
//! * **Committed = synced prefix.** Staged mutations become durable at
//!   the next [`DurableStore::sync`] / [`DurableStore::commit`] — one
//!   `write` + `fdatasync` for the whole batch (group commit).
//! * **Checkpoint, then purge.** [`DurableStore::checkpoint`] syncs the
//!   log, snapshots the full state at the current LSN, and only after
//!   the snapshot is fsynced rotates and purges segments the snapshot
//!   covers. A crash at any point leaves either the new checkpoint or
//!   the old checkpoint + the segments it needs.
//! * **Recovery.** [`DurableStore::open`] loads the newest *intact*
//!   checkpoint (torn ones are skipped and deleted), replays intact
//!   WAL frames above it, and truncates the log at the first torn or
//!   corrupt frame instead of failing — the recovered state is
//!   bit-identical to the committed state at the crash. A checkpoint
//!   or segment of another format version is not torn: the open fails
//!   with [`HyGraphError::UnsupportedFormat`] before any file is
//!   removed, truncated or purged.
//!
//! One directory holds one store's log: segment and checkpoint files
//! carry the store's [`Durable::STORE_TAG`] as a guard against mixups,
//! but recovery treats unrecognised files as corruption, so never point
//! two stores at the same directory.

use crate::checkpoint;
use crate::config;
use crate::wal::Wal;
use hygraph_metrics as metrics;
use hygraph_types::bytes::{ByteReader, ByteWriter};
use hygraph_types::{HyGraphError, Result};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// A store whose state and mutations have exact binary codecs — the
/// contract the WAL engine needs to make it durable.
pub trait Durable: Sized {
    /// The store's logged operation vocabulary.
    type Mutation;

    /// Four-byte tag stamped into segment and checkpoint headers.
    const STORE_TAG: [u8; 4];

    /// An empty store (the state before LSN 0).
    fn fresh() -> Self;

    /// Encodes the complete physical state. Must be deterministic and
    /// exact: `decode_state(encode_state(s))` re-encodes to the same
    /// bytes, bit for bit.
    fn encode_state(&self, w: &mut ByteWriter);

    /// Decodes a state written by [`Durable::encode_state`]. Input is
    /// untrusted: errors, never panics, on malformed bytes.
    fn decode_state(r: &mut ByteReader<'_>) -> Result<Self>;

    /// Encodes one mutation as a WAL record.
    fn encode_mutation(m: &Self::Mutation, w: &mut ByteWriter);

    /// Decodes a WAL record. Input is untrusted.
    fn decode_mutation(r: &mut ByteReader<'_>) -> Result<Self::Mutation>;

    /// Applies one mutation. Must be deterministic — replaying the same
    /// mutations against the same state reproduces every allocated id
    /// and every bit of the result.
    fn apply(&mut self, m: &Self::Mutation) -> Result<()>;
}

fn encode_record<S: Durable>(m: &S::Mutation) -> Vec<u8> {
    let mut w = ByteWriter::new();
    S::encode_mutation(m, &mut w);
    w.into_bytes()
}

fn decode_record<S: Durable>(record: &[u8]) -> Result<S::Mutation> {
    let mut r = ByteReader::new(record);
    let m = S::decode_mutation(&mut r)?;
    r.expect_exhausted()?;
    Ok(m)
}

/// Observes a [`DurableStore::open_observed`] recovery: first the
/// recovered base state, then every replayed WAL record in LSN order —
/// enough for a history layer to rebuild its commit timeline from the
/// log without a second read pass.
pub trait RecoveryObserver<S: Durable> {
    /// The recovered base: the checkpoint's history watermark (commit
    /// timestamp of the newest covered transaction; 0 when untracked)
    /// and the exact state encoding at that point — the
    /// fresh-state encoding when the directory had no checkpoint.
    fn base(&mut self, watermark: i64, state: &[u8]);

    /// One replayed WAL record above the checkpoint, with its commit
    /// timestamp (0 when the writer tracked no transaction time).
    fn replay(&mut self, lsn: u64, ts: i64, m: &S::Mutation);
}

/// A [`Durable`] store wrapped with a write-ahead log and checkpoints.
///
/// A committed mutation survives any crash: [`DurableStore::commit`]
/// appends to the WAL and fsyncs before applying, and
/// [`DurableStore::open`] recovers the newest intact checkpoint plus
/// the intact WAL suffix, bit-identically.
///
/// ```
/// use hygraph_persist::{DurableStore, TsMutation};
/// use hygraph_ts::TsStore;
/// use hygraph_types::{SeriesId, Timestamp};
///
/// let dir = std::env::temp_dir().join(format!("hygraph-doc-{}", std::process::id()));
/// let sid = SeriesId::new(0);
/// {
///     let mut store: DurableStore<TsStore> = DurableStore::open(&dir)?;
///     store.commit(TsMutation::CreateSeries(sid))?;
///     store.commit(TsMutation::Insert(sid, Timestamp::from_millis(0), 1.5))?;
/// } // dropped without a clean shutdown — the commits are on disk
///
/// let store: DurableStore<TsStore> = DurableStore::open(&dir)?;
/// assert_eq!(store.get().value_at(sid, Timestamp::from_millis(0)), Some(1.5));
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), hygraph_types::HyGraphError>(())
/// ```
pub struct DurableStore<S: Durable> {
    state: S,
    wal: Wal,
    checkpoint_lsn: u64,
    /// Whether an intact checkpoint at `checkpoint_lsn` exists on disk —
    /// false only while `open`/`create` bootstrap a fresh directory, so
    /// the initial checkpoint is never skipped as "already written".
    checkpoint_on_disk: bool,
    /// Records staged since the last checkpoint (drives auto-checkpoint).
    since_checkpoint: u64,
    /// Commit timestamp stamped onto subsequently staged WAL frames and
    /// persisted as the checkpoint watermark — the highest transaction
    /// time this store has seen (0 when the caller tracks none).
    commit_ts: i64,
}

impl<S: Durable> DurableStore<S> {
    /// Opens (or initialises) the store in `dir`, recovering committed
    /// state after a crash: newest intact checkpoint + intact WAL
    /// suffix, truncated at the first torn frame.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::open_impl(dir.into(), None)
    }

    /// [`DurableStore::open`], reporting the recovered base state and
    /// every replayed WAL record to `observer` (in LSN order, with
    /// commit timestamps) — the hook a history layer uses to seed its
    /// commit timeline from the log.
    pub fn open_observed(
        dir: impl Into<PathBuf>,
        observer: &mut dyn RecoveryObserver<S>,
    ) -> Result<Self> {
        Self::open_impl(dir.into(), Some(observer))
    }

    fn open_impl(dir: PathBuf, mut observer: Option<&mut dyn RecoveryObserver<S>>) -> Result<Self> {
        std::fs::create_dir_all(&dir)?;
        let segment_bytes = config::configured_segment_bytes();

        let (checkpoint_lsn, watermark, mut state) =
            match checkpoint::load_latest(&dir, S::STORE_TAG)? {
                Some((lsn, watermark, payload)) => {
                    if payload.starts_with(crate::sharded::SHARD_META_MAGIC) {
                        return Err(HyGraphError::shard_layout(format!(
                            "{} holds a hash-sharded log (per-shard WAL streams); \
                             open it with ShardedStore (HYGRAPH_SHARDS > 1), not the \
                             single-WAL DurableStore",
                            dir.display()
                        )));
                    }
                    let mut r = ByteReader::new(&payload);
                    let state = S::decode_state(&mut r)?;
                    r.expect_exhausted()?;
                    // a log this build cannot read refuses the open: find
                    // out before the first removal, not after it
                    crate::wal::refuse_foreign_segments(&dir, S::STORE_TAG)?;
                    // anything newer than the checkpoint we just loaded
                    // failed to load — torn; clear the namespace
                    checkpoint::purge_newer_than(&dir, lsn)?;
                    (lsn, watermark, state)
                }
                None => (0, 0, S::fresh()),
            };

        if let Some(o) = observer.as_deref_mut() {
            let mut w = ByteWriter::new();
            state.encode_state(&mut w);
            o.base(watermark, &w.into_bytes());
        }
        let mut commit_ts = watermark;
        let wal = Wal::recover(
            &dir,
            S::STORE_TAG,
            segment_bytes,
            checkpoint_lsn,
            |lsn, ts, record| {
                let m = decode_record::<S>(record)?;
                state.apply(&m)?;
                commit_ts = commit_ts.max(ts);
                if let Some(o) = observer.as_deref_mut() {
                    o.replay(lsn, ts, &m);
                }
                Ok(())
            },
        )?;

        let checkpoint_on_disk = !checkpoint::list_checkpoints(&dir)?.is_empty();
        let mut store = Self {
            state,
            wal,
            checkpoint_lsn,
            checkpoint_on_disk,
            since_checkpoint: 0,
            commit_ts,
        };
        if !checkpoint_on_disk {
            // first open of a fresh directory: pin the empty state so
            // recovery always has a checkpoint to start from
            store.checkpoint()?;
        }
        Ok(store)
    }

    /// Opens the store under `$HYGRAPH_WAL_DIR/<sub>`.
    pub fn open_default(sub: &str) -> Result<Self> {
        let base = config::configured_wal_dir().ok_or_else(|| {
            HyGraphError::invalid("HYGRAPH_WAL_DIR is not set; use DurableStore::open(dir)")
        })?;
        Self::open(base.join(sub))
    }

    /// Creates a durable store in an *empty* `dir` from an existing
    /// in-memory state (the bulk-load-then-go-durable path): writes the
    /// initial checkpoint of `initial` at LSN 0.
    pub fn create(dir: impl Into<PathBuf>, initial: S) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        if !checkpoint::list_checkpoints(&dir)?.is_empty()
            || !crate::wal::list_segments(&dir)?.is_empty()
        {
            return Err(HyGraphError::invalid(format!(
                "DurableStore::create: {} already holds a log",
                dir.display()
            )));
        }
        let wal = Wal::create(&dir, S::STORE_TAG, config::configured_segment_bytes())?;
        let mut store = Self {
            state: initial,
            wal,
            checkpoint_lsn: 0,
            checkpoint_on_disk: false,
            since_checkpoint: 0,
            commit_ts: 0,
        };
        store.checkpoint()?;
        Ok(store)
    }

    /// The wrapped state. All mutation goes through
    /// [`DurableStore::commit`] / [`DurableStore::stage`]; reads are
    /// direct.
    pub fn get(&self) -> &S {
        &self.state
    }

    /// Stages one mutation: WAL-append, then apply. Returns its LSN.
    /// Not durable until the next [`DurableStore::sync`]. A mutation
    /// the state rejects is retracted from the log and the error
    /// returned.
    pub fn stage(&mut self, m: S::Mutation) -> Result<u64> {
        let record = encode_record::<S>(&m);
        let mark = self.wal.mark();
        let lsn = self.wal.append(self.commit_ts, &record);
        match self.state.apply(&m) {
            Ok(()) => {
                self.since_checkpoint += 1;
                Ok(lsn)
            }
            Err(e) => {
                self.wal.rollback_to(mark);
                Err(e)
            }
        }
    }

    /// Commits one mutation: stage + fsync. On return it is durable.
    pub fn commit(&mut self, m: S::Mutation) -> Result<u64> {
        let lsn = self.stage(m)?;
        self.sync()?;
        Ok(lsn)
    }

    /// Group commit: stages every mutation, then makes the whole batch
    /// durable with a single fsync. Returns the batch's LSN range. If a
    /// mutation is rejected the batch stops there — earlier mutations
    /// stay staged (and the sync of that prefix is still attempted) —
    /// and the rejection is returned with priority over a sync failure,
    /// so callers can tell a rejected mutation from an I/O error (a
    /// persistent I/O failure resurfaces on the next durability call).
    pub fn commit_batch(
        &mut self,
        mutations: impl IntoIterator<Item = S::Mutation>,
    ) -> Result<Range<u64>> {
        let start = self.wal.next_lsn();
        let mut staged = Ok(());
        for m in mutations {
            if let Err(e) = self.stage(m) {
                staged = Err(e);
                break;
            }
        }
        let end = self.wal.next_lsn();
        let synced = self.sync();
        staged.and(synced).map(|()| start..end)
    }

    /// Makes every staged mutation durable (one fsync for the batch),
    /// then checkpoints automatically if the configured interval
    /// (`HYGRAPH_CHECKPOINT_EVERY`) has elapsed.
    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync()?;
        let every = config::configured_checkpoint_every();
        if every > 0 && self.since_checkpoint >= every {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Snapshots the full state at the current LSN, then rotates the
    /// log and purges segments and checkpoints the snapshot supersedes.
    ///
    /// On a quiescent store (no mutations since the last checkpoint)
    /// this is a no-op: the checkpoint on disk already captures the
    /// exact state, and rewriting it would only put the sole intact
    /// snapshot back at risk for nothing.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.wal.sync()?;
        let lsn = self.wal.next_lsn();
        if self.checkpoint_on_disk && lsn == self.checkpoint_lsn {
            return Ok(());
        }
        let start = std::time::Instant::now();
        let bytes = self.state_bytes();
        checkpoint::write_checkpoint(self.wal.dir(), S::STORE_TAG, lsn, self.commit_ts, &bytes)?;
        // only after the snapshot is durable may its inputs be deleted
        checkpoint::purge_older(self.wal.dir(), lsn)?;
        self.wal.rotate();
        self.wal.purge_up_to(lsn)?;
        self.checkpoint_lsn = lsn;
        self.checkpoint_on_disk = true;
        self.since_checkpoint = 0;
        if let Some(m) = metrics::get() {
            m.persist.checkpoints.inc();
            m.persist.checkpoint_us.observe_duration(start.elapsed());
        }
        Ok(())
    }

    /// The exact state encoding — what a checkpoint at this instant
    /// would contain; recovery tests compare these bytes for
    /// bit-identity.
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.state.encode_state(&mut w);
        w.into_bytes()
    }

    /// LSN the next mutation will receive.
    pub fn next_lsn(&self) -> u64 {
        self.wal.next_lsn()
    }

    /// Everything below this LSN is durable.
    pub fn durable_lsn(&self) -> u64 {
        self.wal.durable_lsn()
    }

    /// LSN of the newest durable checkpoint.
    pub fn checkpoint_lsn(&self) -> u64 {
        self.checkpoint_lsn
    }

    /// Sets the commit timestamp stamped onto subsequently staged WAL
    /// frames (and persisted as the next checkpoint's watermark). The
    /// caller allocates timestamps and keeps them monotonic; call this
    /// *before* staging the batch the timestamp belongs to.
    pub fn set_commit_ts(&mut self, ts: i64) {
        self.commit_ts = ts;
    }

    /// The highest transaction time this store has seen: the last
    /// [`DurableStore::set_commit_ts`] value, or on open the maximum of
    /// the checkpoint watermark and every replayed frame's timestamp.
    pub fn history_watermark(&self) -> i64 {
        self.commit_ts
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        self.wal.dir()
    }

    /// Flushes staged mutations and closes the store.
    pub fn close(mut self) -> Result<()> {
        self.wal.sync()
    }

    /// Flushes staged mutations and dismantles the store, handing the
    /// in-memory state to the caller — the seam the sharded layout
    /// migration uses to lift a legacy single-WAL store into per-shard
    /// streams without a byte-level state copy.
    pub fn into_state(mut self) -> Result<S> {
        self.wal.sync()?;
        Ok(self.state)
    }
}

impl<S: Durable> std::fmt::Debug for DurableStore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("dir", &self.dir())
            .field("next_lsn", &self.next_lsn())
            .field("durable_lsn", &self.durable_lsn())
            .field("checkpoint_lsn", &self.checkpoint_lsn)
            .finish()
    }
}
