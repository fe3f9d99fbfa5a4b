//! [`ShardedStore`]: a [`Durable`] state behind **per-shard WAL
//! streams** with a global commit sequence number — the one durable
//! store. One shard is the single-stream case, not another engine.
//!
//! The store routes each frame to one of `N` WALs — series-affine
//! mutations to the shard that owns their series (so a vertex range
//! and its time series co-locate), everything else spread by commit
//! sequence number. Each shard directory is a complete, self-contained
//! [`Wal`] with its own segments, rotation, and fsync.
//!
//! # Layout
//!
//! ```text
//! <dir>/
//!   ckpt-<csn>.ck            checkpoint: shard meta ++ full state
//!   shards-<epoch>/
//!     shard-00/wal-*.seg     per-shard segmented WAL streams
//!     shard-01/wal-*.seg
//!     ...
//!   legacy-wal/              archived pre-shard segments (migration)
//! ```
//!
//! The checkpoint payload leads with a shard-meta header (magic
//! [`SHARD_META_MAGIC`], generation epoch, shard count, per-shard next
//! LSNs) so a checkpoint fully describes which generation of shard
//! directories is live — directory swaps (migration, re-sharding) are
//! committed by the checkpoint rename, arc-swap style, and stale
//! generations are swept on the next open.
//!
//! # Commit sequence numbers
//!
//! Every frame record carries the **CSN** (global commit sequence
//! number) it was staged at, ahead of the mutation bytes. Within one
//! shard stream CSNs are strictly increasing; across shards they
//! interleave. Recovery re-merges the streams by CSN and applies the
//! **longest contiguous prefix** above the checkpoint watermark: a
//! crash between per-shard fsyncs can persist frames `{5, 7}` but lose
//! `6`, and replaying `7` over a state missing `6` would be silently
//! wrong, so frames after the first gap are discarded and physically
//! purged (via an immediate post-recovery checkpoint) — exactly the
//! committed-prefix contract a single stream gives for a torn batch
//! tail. Since a batch is acknowledged only after *all* involved
//! shards fsynced, an acknowledged batch can never land after a gap.
//!
//! # Migration from the pre-shard layout
//!
//! A directory written before the store was sharded holds one
//! `wal-*.seg` stream at top level under a checkpoint without the
//! shard-meta header. Nothing writes that layout any more, but it is
//! still *read*, exactly once: the first open at any shard count runs
//! a full legacy recovery (feeding the observer), re-checkpoints the
//! state under the sharded meta header, and archives the old segments
//! into `legacy-wal/` — never silently ignoring them. Re-opening with a
//! different shard count re-shards the same way (recover with the
//! recorded count, rewrite under a fresh generation), in either
//! direction and down to one shard.

use crate::checkpoint;
use crate::config;
use crate::durable::{Durable, RecoveryObserver};
use crate::vfs::{OsVfs, Vfs};
use crate::wal::Wal;
use hygraph_types::bytes::{ByteReader, ByteWriter};
use hygraph_types::shard::ShardRouter;
use hygraph_types::{HyGraphError, Result};
use std::borrow::Borrow;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic prefix of a sharded checkpoint payload (ahead of the state
/// bytes). Its absence marks a pre-shard checkpoint, which the first
/// open migrates.
pub const SHARD_META_MAGIC: &[u8; 4] = b"HGSH";

/// Routing affinity of a mutation vocabulary: which shard a logged
/// operation is pinned to, if any.
///
/// Implementors return `Some(shard)` for mutations with data affinity
/// (an append belongs with its series) and `None` for the rest, which
/// the store spreads across shards by CSN. Routing must be a pure
/// function of the mutation and the router: frame placement on disk is
/// the only routing record, recovery never recomputes it.
pub trait ShardRouted {
    /// The shard this mutation is pinned to under `router`, or `None`
    /// when any shard will do.
    fn shard_affinity(&self, router: &ShardRouter) -> Option<usize>;
}

fn generation_dir(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("shards-{epoch:04}"))
}

fn shard_dir(dir: &Path, epoch: u64, idx: usize) -> PathBuf {
    generation_dir(dir, epoch).join(format!("shard-{idx:02}"))
}

/// Shard meta decoded from (or encoded into) a checkpoint payload
/// prefix.
struct ShardMeta {
    epoch: u64,
    next_lsns: Vec<u64>,
}

fn encode_meta(meta: &ShardMeta, w: &mut ByteWriter) {
    w.raw(SHARD_META_MAGIC);
    w.u64(meta.epoch);
    w.len_of(meta.next_lsns.len());
    for &lsn in &meta.next_lsns {
        w.u64(lsn);
    }
}

fn decode_meta(r: &mut ByteReader<'_>) -> Result<ShardMeta> {
    if r.raw(4)? != SHARD_META_MAGIC {
        return Err(HyGraphError::corrupt("bad shard meta magic"));
    }
    let epoch = r.u64()?;
    let n = r.len_of()?;
    if n == 0 || n > hygraph_types::shard::MAX_SHARDS {
        return Err(HyGraphError::corrupt(format!(
            "shard meta names {n} shards, outside 1..={}",
            hygraph_types::shard::MAX_SHARDS
        )));
    }
    let mut next_lsns = Vec::with_capacity(n);
    for _ in 0..n {
        next_lsns.push(r.u64()?);
    }
    Ok(ShardMeta { epoch, next_lsns })
}

fn decode_record<S: Durable>(record: &[u8]) -> Result<(u64, S::Mutation)> {
    let mut r = ByteReader::new(record);
    let csn = r.u64()?;
    let m = S::decode_mutation(&mut r)?;
    r.expect_exhausted()?;
    Ok((csn, m))
}

/// A [`Durable`] state behind hash-sharded per-shard WAL streams with
/// CSN-merged recovery. See the module docs for the protocol.
///
/// A committed mutation survives any crash: [`ShardedStore::commit`]
/// appends to its shard's WAL and fsyncs, and [`ShardedStore::open`]
/// recovers the newest intact checkpoint plus the contiguous intact
/// WAL suffix, bit-identically, at any shard count.
pub struct ShardedStore<S: Durable>
where
    S::Mutation: ShardRouted,
{
    state: S,
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    router: ShardRouter,
    epoch: u64,
    wals: Vec<Wal>,
    /// Shards with appends staged since their last fsync.
    dirty: Vec<bool>,
    /// First CSN staged to each shard since its last fsync — only
    /// meaningful while `dirty[shard]`. Feeds the per-shard durable
    /// *CSN* frontiers (see [`ShardedStore::shard_csn_frontiers`]).
    pending_csn: Vec<u64>,
    /// Global commit sequence number of the next staged frame.
    next_csn: u64,
    /// CSN watermark of the newest durable checkpoint.
    checkpoint_csn: u64,
    checkpoint_on_disk: bool,
    since_checkpoint: u64,
    commit_ts: i64,
    /// Frames discarded by the last recovery's contiguous-prefix rule
    /// (a crash tail between per-shard fsyncs); 0 after a clean open.
    orphans_discarded: u64,
}

impl<S: Durable> ShardedStore<S>
where
    S::Mutation: ShardRouted,
{
    /// Opens (or initialises) a sharded store over `shards` partitions
    /// in `dir`, recovering committed state after a crash: newest
    /// intact checkpoint + the longest contiguous CSN prefix merged
    /// from every shard stream. A pre-shard single-WAL directory is
    /// migrated once (old segments archived into `legacy-wal/`); a recorded
    /// shard count different from `shards` triggers a re-shard under a
    /// fresh directory generation.
    pub fn open(dir: impl Into<PathBuf>, shards: usize) -> Result<Self> {
        Self::open_in(OsVfs::shared(), dir, shards, None)
    }

    /// [`ShardedStore::open`], reporting the recovered base state and
    /// every replayed frame (in CSN order, with commit timestamps) to
    /// `observer` — the hook a history layer uses to seed its commit
    /// timeline from the log. A migrated pre-shard directory reports
    /// its legacy LSNs, which coincide with the CSNs they become.
    pub fn open_observed(
        dir: impl Into<PathBuf>,
        shards: usize,
        observer: &mut dyn RecoveryObserver<S>,
    ) -> Result<Self> {
        Self::open_in(OsVfs::shared(), dir, shards, Some(observer))
    }

    /// [`ShardedStore::open`] (with `observer`, as
    /// [`ShardedStore::open_observed`]) in `dir` of `vfs` — the real
    /// filesystem ([`OsVfs`]) or memory ([`crate::vfs::MemVfs`]).
    pub fn open_in(
        vfs: Arc<dyn Vfs>,
        dir: impl Into<PathBuf>,
        shards: usize,
        observer: Option<&mut dyn RecoveryObserver<S>>,
    ) -> Result<Self> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)?;
        let router = ShardRouter::new(shards);
        let shards = router.shards();
        let segment_bytes = config::configured_segment_bytes();

        let checkpoint = checkpoint::load_latest(&*vfs, &dir, S::STORE_TAG)?;
        let legacy_segments = crate::wal::list_segments(&*vfs, &dir)?;
        let is_sharded_ckpt = matches!(
            &checkpoint,
            Some((_, _, payload)) if payload.starts_with(SHARD_META_MAGIC)
        );

        if !is_sharded_ckpt && (checkpoint.is_some() || !legacy_segments.is_empty()) {
            // Pre-shard layout: migrate rather than silently ignore the
            // old segments. A full legacy recovery replays them (feeding
            // the observer), then the state is re-checkpointed under the
            // sharded meta header and the old segments are archived.
            let (state, csn, commit_ts) =
                read_legacy::<S>(&vfs, &dir, checkpoint, segment_bytes, observer)?;
            let store = Self::rebuild(vfs, dir, router, 1, state, csn, commit_ts, segment_bytes)?;
            store.sweep_stale()?;
            return Ok(store);
        }

        let Some((ckpt_csn, watermark, payload)) = checkpoint else {
            // Fresh directory: pin the empty state under epoch 1 so
            // recovery always has a checkpoint to start from.
            let state = S::fresh();
            if let Some(o) = observer {
                o.base(0, &state);
            }
            let store = Self::rebuild(vfs, dir, router, 1, state, 0, 0, segment_bytes)?;
            store.sweep_stale()?;
            return Ok(store);
        };

        let mut r = ByteReader::new(&payload);
        let meta = decode_meta(&mut r)?;
        let state = S::decode_state(&mut r)?;
        r.expect_exhausted()?;
        // a shard stream this build cannot read refuses the open: check
        // all of them before the first removal, so the refusal leaves
        // every shard (and every torn checkpoint) exactly as found
        for idx in 0..meta.next_lsns.len() {
            let sdir = shard_dir(&dir, meta.epoch, idx);
            crate::wal::refuse_foreign_segments(&*vfs, &sdir, S::STORE_TAG)?;
        }
        checkpoint::purge_newer_than(&*vfs, &dir, ckpt_csn)?;

        if meta.next_lsns.len() != shards {
            // Shard count changed between runs: recover fully with the
            // recorded count, then rewrite under a fresh generation.
            let recovered = Self::recover_generation(
                &vfs,
                &dir,
                ShardRouter::new(meta.next_lsns.len()),
                &meta,
                ckpt_csn,
                watermark,
                state,
                segment_bytes,
                observer,
            )?;
            let store = Self::rebuild(
                vfs,
                dir,
                router,
                meta.epoch + 1,
                recovered.state,
                recovered.next_csn,
                recovered.commit_ts,
                segment_bytes,
            )?;
            store.sweep_stale()?;
            return Ok(store);
        }

        let recovered = Self::recover_generation(
            &vfs,
            &dir,
            router,
            &meta,
            ckpt_csn,
            watermark,
            state,
            segment_bytes,
            observer,
        )?;
        let mut store = Self {
            state: recovered.state,
            vfs,
            dir,
            router,
            epoch: meta.epoch,
            wals: recovered.wals,
            dirty: vec![false; shards],
            pending_csn: vec![0; shards],
            next_csn: recovered.next_csn,
            checkpoint_csn: ckpt_csn,
            checkpoint_on_disk: true,
            since_checkpoint: recovered.next_csn - ckpt_csn,
            commit_ts: recovered.commit_ts,
            orphans_discarded: recovered.orphans,
        };
        if recovered.orphans > 0 {
            // Orphaned frames (past the contiguity gap) are still on
            // disk; a fresh CSN would collide with theirs. Checkpointing
            // right away rotates and purges every shard stream, erasing
            // them before any new append can reuse a CSN. The purge must
            // happen even when the gap sat at the very first
            // post-checkpoint CSN (zero frames applied, `next_csn ==
            // checkpoint_csn`): clearing `checkpoint_on_disk` bypasses
            // the quiescent no-op guard so the physical rotate/purge
            // always runs.
            let orphans = store.orphans_discarded;
            store.checkpoint_on_disk = false;
            store.checkpoint()?;
            store.orphans_discarded = orphans;
        }
        store.sweep_stale()?;
        Ok(store)
    }

    /// Creates a sharded store in an *empty* `dir` from an existing
    /// in-memory state (bulk-load-then-go-durable): writes the initial
    /// checkpoint of `initial` at CSN 0 under epoch 1.
    pub fn create(dir: impl Into<PathBuf>, shards: usize, initial: S) -> Result<Self> {
        Self::create_in(OsVfs::shared(), dir, shards, initial)
    }

    /// [`ShardedStore::create`] in `dir` of `vfs`.
    pub fn create_in(
        vfs: Arc<dyn Vfs>,
        dir: impl Into<PathBuf>,
        shards: usize,
        initial: S,
    ) -> Result<Self> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)?;
        if !checkpoint::list_checkpoints(&*vfs, &dir)?.is_empty()
            || !crate::wal::list_segments(&*vfs, &dir)?.is_empty()
            || list_generations(&*vfs, &dir)?.next().is_some()
        {
            return Err(HyGraphError::invalid(format!(
                "ShardedStore::create: {} already holds a log",
                dir.display()
            )));
        }
        let router = ShardRouter::new(shards);
        Self::rebuild(
            vfs,
            dir,
            router,
            1,
            initial,
            0,
            0,
            config::configured_segment_bytes(),
        )
    }

    /// Recovers one shard generation: per-shard [`Wal::recover`], then
    /// a CSN merge applying the longest contiguous prefix above the
    /// checkpoint watermark.
    #[allow(clippy::too_many_arguments)]
    fn recover_generation(
        vfs: &Arc<dyn Vfs>,
        dir: &Path,
        router: ShardRouter,
        meta: &ShardMeta,
        ckpt_csn: u64,
        watermark: i64,
        mut state: S,
        segment_bytes: u64,
        mut observer: Option<&mut dyn RecoveryObserver<S>>,
    ) -> Result<RecoveredGeneration<S>> {
        if let Some(o) = observer.as_deref_mut() {
            o.base(watermark, &state);
        }
        let mut frames: Vec<(u64, i64, S::Mutation)> = Vec::new();
        let mut wals = Vec::with_capacity(router.shards());
        for (idx, &from_lsn) in meta.next_lsns.iter().enumerate() {
            let sdir = shard_dir(dir, meta.epoch, idx);
            let wal = Wal::recover(
                Arc::clone(vfs),
                &sdir,
                S::STORE_TAG,
                segment_bytes,
                from_lsn,
                |_, ts, rec| {
                    let (csn, m) = decode_record::<S>(rec)?;
                    if csn < ckpt_csn {
                        return Err(HyGraphError::corrupt(format!(
                            "shard {idx} frame carries CSN {csn} below the checkpoint \
                         watermark {ckpt_csn}"
                        )));
                    }
                    frames.push((csn, ts, m));
                    Ok(())
                },
            )?;
            wals.push(wal);
        }
        // Merge the shard streams by CSN; apply the contiguous prefix.
        frames.sort_by_key(|&(csn, _, _)| csn);
        let mut expected = ckpt_csn;
        let mut commit_ts = watermark;
        let mut applied = 0u64;
        for (csn, ts, m) in &frames {
            if *csn != expected {
                break; // gap: everything from here is a crash tail
            }
            state.apply(m)?;
            commit_ts = commit_ts.max(*ts);
            if let Some(o) = observer.as_deref_mut() {
                o.replay(*csn, *ts, m);
            }
            expected += 1;
            applied += 1;
        }
        Ok(RecoveredGeneration {
            state,
            wals,
            next_csn: expected,
            commit_ts,
            orphans: frames.len() as u64 - applied,
        })
    }

    /// Builds a fresh shard generation around `state` and commits it
    /// with a checkpoint: new `shards-<epoch>` directory, empty WALs,
    /// meta checkpoint at `csn`. The rename of the checkpoint file is
    /// the commit point — a crash before it leaves the previous layout
    /// authoritative, a crash after it leaves only stale directories
    /// for the next open's sweep.
    #[allow(clippy::too_many_arguments)]
    fn rebuild(
        vfs: Arc<dyn Vfs>,
        dir: PathBuf,
        router: ShardRouter,
        epoch: u64,
        state: S,
        csn: u64,
        commit_ts: i64,
        segment_bytes: u64,
    ) -> Result<Self> {
        let gen_dir = generation_dir(&dir, epoch);
        if vfs.exists(&gen_dir) {
            // leftovers of a rebuild that crashed before its checkpoint
            // committed — the current checkpoint references another
            // epoch, so nothing in here is live
            vfs.remove_dir_all(&gen_dir)?;
        }
        let shards = router.shards();
        let mut wals = Vec::with_capacity(shards);
        for idx in 0..shards {
            wals.push(Wal::create(
                Arc::clone(&vfs),
                shard_dir(&dir, epoch, idx),
                S::STORE_TAG,
                segment_bytes,
            )?);
        }
        let mut store = Self {
            state,
            vfs,
            dir,
            router,
            epoch,
            wals,
            dirty: vec![false; shards],
            pending_csn: vec![0; shards],
            next_csn: csn,
            checkpoint_csn: csn,
            checkpoint_on_disk: false,
            since_checkpoint: 0,
            commit_ts,
            orphans_discarded: 0,
        };
        store.checkpoint()?;
        Ok(store)
    }

    /// Removes shard generations other than the live one and archives
    /// stray top-level legacy segments into `legacy-wal/`. Runs only
    /// after the live checkpoint is durable — everything swept is
    /// superseded by it, so a crash at any point here loses nothing.
    fn sweep_stale(&self) -> Result<()> {
        for (epoch, path) in list_generations(&*self.vfs, &self.dir)? {
            if epoch != self.epoch {
                self.vfs.remove_dir_all(&path)?;
            }
        }
        legacy_wal_archive_moves(&*self.vfs, &self.dir)?;
        Ok(())
    }

    /// The wrapped state. All mutation goes through
    /// [`ShardedStore::commit`] / [`ShardedStore::stage`]; reads are
    /// direct.
    pub fn get(&self) -> &S {
        &self.state
    }

    /// Stages one mutation, owned or borrowed: routes it to its shard,
    /// encodes `[CSN ++ record]` straight into that shard's WAL batch,
    /// then applies. Returns the CSN. Not durable until the next
    /// [`ShardedStore::sync`]. A mutation the state rejects is retracted
    /// from its shard's log and the error returned.
    pub fn stage(&mut self, m: impl Borrow<S::Mutation>) -> Result<u64> {
        let m = m.borrow();
        let csn = self.next_csn;
        let shard = m
            .shard_affinity(&self.router)
            .unwrap_or_else(|| self.router.of_csn(csn));
        let wal = &mut self.wals[shard];
        let mark = wal.mark();
        wal.append_with(self.commit_ts, |w| {
            w.u64(csn);
            S::encode_mutation(m, w);
        });
        match self.state.apply(m) {
            Ok(()) => {
                self.next_csn += 1;
                self.since_checkpoint += 1;
                if !self.dirty[shard] {
                    self.pending_csn[shard] = csn;
                    self.dirty[shard] = true;
                }
                Ok(csn)
            }
            Err(e) => {
                self.wals[shard].rollback_to(mark);
                Err(e)
            }
        }
    }

    /// Commits one mutation: stage + fsync of its shard. On return it
    /// is durable.
    pub fn commit(&mut self, m: impl Borrow<S::Mutation>) -> Result<u64> {
        let csn = self.stage(m)?;
        self.sync()?;
        Ok(csn)
    }

    /// Group commit: stages every mutation (owned or borrowed, so a
    /// caller that keeps its batch passes `batch.iter()` and nothing is
    /// cloned), then makes the whole batch
    /// durable with one fsync *per touched shard*. Returns the batch's
    /// CSN range. If a mutation is rejected the batch stops there —
    /// earlier mutations stay staged (and the sync of that prefix is
    /// still attempted) — and the rejection is returned. The semantic
    /// rejection outranks a sync failure: callers must be able to tell
    /// a rejected mutation from an I/O error. The I/O failure is not
    /// lost — the WAL either winds the torn batch back for a clean
    /// retry or poisons itself, so a persistent failure resurfaces on
    /// the next durability call.
    pub fn commit_batch<M: Borrow<S::Mutation>>(
        &mut self,
        mutations: impl IntoIterator<Item = M>,
    ) -> Result<Range<u64>> {
        let start = self.next_csn;
        let mut staged = Ok(());
        for m in mutations {
            if let Err(e) = self.stage(m) {
                staged = Err(e);
                break;
            }
        }
        let end = self.next_csn;
        let synced = self.sync();
        staged.and(synced).map(|()| start..end)
    }

    /// Makes every staged mutation durable (one fsync per dirty shard),
    /// then checkpoints automatically if the configured interval
    /// (`HYGRAPH_CHECKPOINT_EVERY`) has elapsed. A batch is
    /// acknowledged only after *every* involved shard synced — the
    /// invariant the recovery contiguity rule relies on.
    pub fn sync(&mut self) -> Result<()> {
        for (idx, wal) in self.wals.iter_mut().enumerate() {
            if self.dirty[idx] {
                wal.sync()?;
                self.dirty[idx] = false;
            }
        }
        let every = config::configured_checkpoint_every();
        if every > 0 && self.since_checkpoint >= every {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Snapshots the full state (plus the shard meta) at the current
    /// CSN, then rotates every shard stream and purges segments and
    /// checkpoints the snapshot supersedes. No-op on a quiescent store.
    ///
    /// The snapshot streams: meta and state are encoded into one buffer
    /// that is checksummed and written out whenever it passes
    /// [`checkpoint::CHUNK_BYTES`] at a boundary the state's encoder
    /// offers ([`Durable::encode_state_streamed`]), so the encoded state
    /// is never held whole.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.sync_all_wals()?;
        let csn = self.next_csn;
        if self.checkpoint_on_disk && csn == self.checkpoint_csn {
            return Ok(());
        }
        let start = std::time::Instant::now();
        let mut file = checkpoint::CheckpointWriter::create(
            &*self.vfs,
            &self.dir,
            S::STORE_TAG,
            csn,
            self.commit_ts,
        )?;
        let mut w = ByteWriter::with_capacity(checkpoint::CHUNK_BYTES);
        encode_meta(
            &ShardMeta {
                epoch: self.epoch,
                next_lsns: self.wals.iter().map(Wal::next_lsn).collect(),
            },
            &mut w,
        );
        self.state
            .encode_state_streamed(&mut w, &mut |w| file.drain(w))?;
        file.append(w.as_bytes())?;
        file.commit()?;
        checkpoint::purge_older(&*self.vfs, &self.dir, csn)?;
        for wal in &mut self.wals {
            let lsn = wal.next_lsn();
            wal.rotate();
            wal.purge_up_to(lsn)?;
        }
        self.checkpoint_csn = csn;
        self.checkpoint_on_disk = true;
        self.since_checkpoint = 0;
        if let Some(m) = hygraph_metrics::get() {
            m.persist.checkpoints.inc();
            m.persist.checkpoint_us.observe_duration(start.elapsed());
        }
        Ok(())
    }

    fn sync_all_wals(&mut self) -> Result<()> {
        for (idx, wal) in self.wals.iter_mut().enumerate() {
            wal.sync()?;
            self.dirty[idx] = false;
        }
        Ok(())
    }

    /// The exact state encoding — what a checkpoint at this instant
    /// would contain after the shard meta; recovery and equivalence
    /// tests compare these bytes for bit-identity across shard counts.
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.state.encode_state(&mut w);
        w.into_bytes()
    }

    /// CSN the next staged mutation will receive.
    pub fn next_csn(&self) -> u64 {
        self.next_csn
    }

    /// CSN watermark of the newest durable checkpoint.
    pub fn checkpoint_csn(&self) -> u64 {
        self.checkpoint_csn
    }

    /// Number of shards (and WAL streams).
    pub fn shards(&self) -> usize {
        self.router.shards()
    }

    /// The router mapping elements to shards.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Per-shard `(next_lsn, durable_lsn)` positions, indexed by shard
    /// — the feed for per-shard WAL-depth gauges. These are **per-stream
    /// frame counters** (each shard's WAL numbers frames independently
    /// from 0), not global CSNs; for the cross-shard durability
    /// frontier use [`ShardedStore::shard_csn_frontiers`].
    pub fn shard_lsns(&self) -> Vec<(u64, u64)> {
        self.wals
            .iter()
            .map(|w| (w.next_lsn(), w.durable_lsn()))
            .collect()
    }

    /// Per-shard durable **CSN** frontiers, indexed by shard: every
    /// frame a shard holds with a CSN *strictly below* its frontier is
    /// durable on disk. A fully-synced shard's frontier is the global
    /// [`ShardedStore::next_csn`] — it holds no frame at or above it —
    /// so an idle shard never pins the cross-shard watermark; a shard
    /// with staged-but-unsynced frames sits at the CSN of its first
    /// unsynced frame. The minimum across shards is the cross-shard
    /// durable watermark (`hygraph_temporal::ShardWatermark`).
    pub fn shard_csn_frontiers(&self) -> Vec<u64> {
        self.dirty
            .iter()
            .zip(&self.pending_csn)
            .map(|(&dirty, &pending)| if dirty { pending } else { self.next_csn })
            .collect()
    }

    /// Frames the last recovery discarded past a CSN contiguity gap
    /// (a crash tail between per-shard fsyncs); 0 after a clean open.
    pub fn orphans_discarded(&self) -> u64 {
        self.orphans_discarded
    }

    /// Sets the commit timestamp stamped onto subsequently staged WAL
    /// frames (and persisted as the next checkpoint's watermark). The
    /// caller allocates timestamps and keeps them monotonic; call this
    /// *before* staging the batch the timestamp belongs to.
    pub fn set_commit_ts(&mut self, ts: i64) {
        self.commit_ts = ts;
    }

    /// The highest transaction time this store has seen: the last
    /// [`ShardedStore::set_commit_ts`] value, or on open the maximum of
    /// the checkpoint watermark and every replayed frame's timestamp.
    pub fn history_watermark(&self) -> i64 {
        self.commit_ts
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Flushes staged mutations on every shard and closes the store.
    pub fn close(mut self) -> Result<()> {
        self.sync_all_wals()
    }
}

struct RecoveredGeneration<S: Durable> {
    state: S,
    wals: Vec<Wal>,
    next_csn: u64,
    commit_ts: i64,
    orphans: u64,
}

impl<S: Durable> std::fmt::Debug for ShardedStore<S>
where
    S::Mutation: ShardRouted,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("dir", &self.dir)
            .field("shards", &self.shards())
            .field("epoch", &self.epoch)
            .field("next_csn", &self.next_csn)
            .field("checkpoint_csn", &self.checkpoint_csn)
            .finish()
    }
}

/// Recovers a pre-shard directory — one top-level `wal-*.seg` stream
/// under an optional checkpoint without the shard-meta header, the
/// layout this store migrates away from — and returns the state, the
/// next LSN (which becomes the next CSN) and the highest commit
/// timestamp seen. A segment or checkpoint this build cannot read
/// refuses the open before anything is purged or truncated; a torn log
/// tail is truncated, as any recovery does.
fn read_legacy<S: Durable>(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
    checkpoint: Option<(u64, i64, Vec<u8>)>,
    segment_bytes: u64,
    mut observer: Option<&mut dyn RecoveryObserver<S>>,
) -> Result<(S, u64, i64)> {
    let (checkpoint_lsn, watermark, mut state) = match checkpoint {
        Some((lsn, watermark, payload)) => {
            let mut r = ByteReader::new(&payload);
            let state = S::decode_state(&mut r)?;
            r.expect_exhausted()?;
            crate::wal::refuse_foreign_segments(&**vfs, dir, S::STORE_TAG)?;
            // anything newer than the checkpoint just loaded failed to
            // load — torn; clear the namespace
            checkpoint::purge_newer_than(&**vfs, dir, lsn)?;
            (lsn, watermark, state)
        }
        None => (0, 0, S::fresh()),
    };
    if let Some(o) = observer.as_deref_mut() {
        o.base(watermark, &state);
    }
    let mut commit_ts = watermark;
    let wal = Wal::recover(
        Arc::clone(vfs),
        dir,
        S::STORE_TAG,
        segment_bytes,
        checkpoint_lsn,
        |lsn, ts, record| {
            // pre-shard records carry no CSN prefix
            let mut r = ByteReader::new(record);
            let m = S::decode_mutation(&mut r)?;
            r.expect_exhausted()?;
            state.apply(&m)?;
            commit_ts = commit_ts.max(ts);
            if let Some(o) = observer.as_deref_mut() {
                o.replay(lsn, ts, &m);
            }
            Ok(())
        },
    )?;
    Ok((state, wal.next_lsn(), commit_ts))
}

/// Iterates `(epoch, path)` of every `shards-<epoch>` generation
/// directory in `dir`.
fn list_generations(vfs: &dyn Vfs, dir: &Path) -> Result<impl Iterator<Item = (u64, PathBuf)>> {
    let mut out = Vec::new();
    for name in vfs.list(dir)? {
        let Some(hex) = name.strip_prefix("shards-") else {
            continue;
        };
        if let Ok(epoch) = hex.parse::<u64>() {
            out.push((epoch, dir.join(&name)));
        }
    }
    Ok(out.into_iter())
}

/// Moves stray top-level `wal-*.seg` files (a pre-shard layout) into
/// `legacy-wal/`. Idempotent; called only
/// after the sharded checkpoint covering those frames is durable.
fn legacy_wal_archive_moves(vfs: &dyn Vfs, dir: &Path) -> Result<()> {
    let segments = crate::wal::list_segments(vfs, dir)?;
    if segments.is_empty() {
        return Ok(());
    }
    let archive = dir.join("legacy-wal");
    vfs.create_dir_all(&archive)?;
    for (_, path) in segments {
        let dest = archive.join(path.file_name().expect("segment file name"));
        vfs.rename(&path, &dest)?;
    }
    Ok(())
}
