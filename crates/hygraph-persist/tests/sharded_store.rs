//! Integration suite for the durable store: byte-identical state at
//! every shard count, CSN-merged crash recovery (contiguous-prefix
//! discard of orphaned frames), pre-shard layout migration, format-
//! version refusal through every open path, and re-sharding in both
//! directions.

use hygraph_core::HyGraph;
use hygraph_persist::fault::{restore_dir, scratch_dir, snapshot_dir, truncate_file};
use hygraph_persist::wal::Wal;
use hygraph_persist::{
    checkpoint, config, Durable, HgMutation, OsVfs, PersistConfig, RecoveryObserver, ShardedStore,
    TsMutation,
};
use hygraph_ts::TsStore;
use hygraph_types::bytes::ByteWriter;
use hygraph_types::{HyGraphError, Interval, Label, PropertyMap, SeriesId, Timestamp};
use std::path::Path;

/// Small segments so tiny workloads rotate; manual checkpoints only, so
/// the scenarios control exactly when snapshots happen. Process-wide,
/// installed identically from every test.
fn configure() {
    PersistConfig::new()
        .segment_bytes(512)
        .checkpoint_every(0)
        .install();
}

fn ts(n: i64) -> Timestamp {
    Timestamp::from_millis(n)
}

/// A HyGraph workload that exercises both affinity-routed mutations
/// (appends, ts elements) and CSN-spread structural ones.
fn hg_workload() -> Vec<HgMutation> {
    let validity = Interval::new(ts(0), ts(1_000));
    let mut muts = Vec::new();
    for i in 0..4 {
        muts.push(HgMutation::AddSeries {
            names: vec![format!("var{i}")],
            rows: vec![(ts(0), vec![i as f64])],
        });
    }
    for i in 0..4u64 {
        muts.push(HgMutation::AddTsVertex {
            labels: vec![Label::new("Sensor")],
            series: SeriesId::new(i),
        });
    }
    muts.push(HgMutation::AddPgVertex {
        labels: vec![Label::new("Room")],
        props: PropertyMap::new(),
        validity,
    });
    for i in 0..4u64 {
        for k in 1..6 {
            muts.push(HgMutation::Append {
                series: SeriesId::new(i),
                t: ts(k * 10),
                row: vec![(i * 100 + k as u64) as f64],
            });
        }
    }
    muts.push(HgMutation::CreateSubgraph {
        labels: vec![Label::new("Floor")],
        props: PropertyMap::new(),
        validity,
    });
    muts
}

fn state_bytes<S: Durable>(state: &S) -> Vec<u8> {
    let mut w = ByteWriter::new();
    state.encode_state(&mut w);
    w.into_bytes()
}

/// Writes the pre-shard layout exactly as the single-WAL store of
/// earlier builds left it: one top-level WAL stream whose records carry
/// no CSN prefix, one `write` + `fdatasync` per batch with every frame
/// stamped with the batch's commit timestamp, and after batch
/// `checkpoint_after` a plain checkpoint (no shard meta) watermarked
/// with that batch's timestamp, followed by the rotate-and-purge of the
/// segments it covers. Nothing in the product writes this layout any
/// more; the store only reads it once, to migrate. Returns the state
/// bytes after the last batch.
fn write_pre_shard_dir(
    dir: &Path,
    batches: &[(i64, &[HgMutation])],
    checkpoint_after: usize,
) -> Vec<u8> {
    let tag = HyGraph::STORE_TAG;
    let mut state = HyGraph::fresh();
    let mut wal = Wal::create(
        OsVfs::shared(),
        dir,
        tag,
        config::configured_segment_bytes(),
    )
    .unwrap();
    for (i, &(ts, batch)) in batches.iter().enumerate() {
        for m in batch {
            let mut w = ByteWriter::new();
            HyGraph::encode_mutation(m, &mut w);
            wal.append(ts, &w.into_bytes());
            state.apply(m).unwrap();
        }
        wal.sync().unwrap();
        if i == checkpoint_after {
            let lsn = wal.next_lsn();
            checkpoint::write_checkpoint(&OsVfs, dir, tag, lsn, ts, &state_bytes(&state)).unwrap();
            wal.rotate();
            wal.purge_up_to(lsn).unwrap();
        }
    }
    state_bytes(&state)
}

/// The pre-shard fixture the migration tests share: a checkpoint after
/// the first third of [`hg_workload`] (stamped 1 000), two live batches
/// above it (stamped 2 000 and 3 000). Returns the final state bytes.
fn write_hg_pre_shard_dir(dir: &Path) -> Vec<u8> {
    let muts = hg_workload();
    let (covered, live) = muts.split_at(muts.len() / 3);
    let (second, third) = live.split_at(live.len() / 2);
    write_pre_shard_dir(dir, &[(1_000, covered), (2_000, second), (3_000, third)], 0)
}

/// The same workload at N = 1, 2, 4 shards builds and recovers the
/// state the one-shard store does, bit for bit.
#[test]
fn state_is_bit_identical_at_every_shard_count() {
    configure();
    let golden = {
        let dir = scratch_dir("shard-eq-one");
        let mut store: ShardedStore<HyGraph> = ShardedStore::open(&dir, 1).unwrap();
        store.commit_batch(hg_workload()).unwrap();
        let bytes = store.state_bytes();
        store.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        bytes
    };
    for shards in [1usize, 2, 4] {
        let dir = scratch_dir(&format!("shard-eq-{shards}"));
        let mut store: ShardedStore<HyGraph> = ShardedStore::open(&dir, shards).unwrap();
        store.commit_batch(hg_workload()).unwrap();
        assert_eq!(
            store.state_bytes(),
            golden,
            "{shards}-shard state diverged from the one-shard store"
        );
        drop(store); // crash: no clean close
        let store: ShardedStore<HyGraph> = ShardedStore::open(&dir, shards).unwrap();
        assert_eq!(
            store.state_bytes(),
            golden,
            "{shards}-shard recovery diverged from the committed state"
        );
        assert_eq!(store.shards(), shards);
        assert_eq!(store.orphans_discarded(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Committed mutations survive a crash mid-stream: checkpoints rotate
/// and purge per-shard logs, and reopen recovers the exact CSN frontier.
#[test]
fn sharded_crash_recovery_across_checkpoints() {
    configure();
    let dir = scratch_dir("shard-crash");
    let mut store: ShardedStore<HyGraph> = ShardedStore::open(&dir, 4).unwrap();
    let muts = hg_workload();
    let mid = muts.len() / 2;
    store.commit_batch(muts[..mid].iter().cloned()).unwrap();
    store.checkpoint().unwrap();
    store.commit_batch(muts[mid..].iter().cloned()).unwrap();
    let golden = store.state_bytes();
    let next_csn = store.next_csn();
    assert_eq!(next_csn, muts.len() as u64);
    drop(store);

    let store: ShardedStore<HyGraph> = ShardedStore::open(&dir, 4).unwrap();
    assert_eq!(store.state_bytes(), golden);
    assert_eq!(store.next_csn(), next_csn);
    assert_eq!(store.checkpoint_csn(), mid as u64);
    std::fs::remove_dir_all(&dir).ok();
}

/// A crash between per-shard fsyncs can persist a later frame while an
/// earlier one is lost. Recovery must apply only the contiguous CSN
/// prefix, discard the orphaned tail, purge it from disk, and hand out
/// the gap CSN again without colliding.
#[test]
fn orphaned_frames_past_a_csn_gap_are_discarded_and_purged() {
    configure();
    let dir = scratch_dir("shard-orphan");
    // Two shards; series 0 routes to shard 0, series 1 to shard 1.
    let mut store: ShardedStore<TsStore> = ShardedStore::open(&dir, 2).unwrap();
    store
        .commit_batch([
            TsMutation::CreateSeries(SeriesId::new(0)),
            TsMutation::CreateSeries(SeriesId::new(1)),
        ])
        .unwrap();
    let base_state = store.state_bytes();
    let base_snapshot = snapshot_dir(&dir).unwrap();

    // csn 2 → shard 0, csn 3 → shard 1, csn 4 → shard 0.
    store
        .commit(TsMutation::Insert(SeriesId::new(0), ts(10), 1.0))
        .unwrap();
    let after_first = store.state_bytes();
    store
        .commit(TsMutation::Insert(SeriesId::new(1), ts(10), 2.0))
        .unwrap();
    store
        .commit(TsMutation::Insert(SeriesId::new(0), ts(20), 3.0))
        .unwrap();
    assert_eq!(store.next_csn(), 5);
    drop(store);

    // Simulate the partial crash: roll shard 1 back to the pre-batch
    // snapshot (its csn-3 frame vanishes) while shard 0 keeps csn 2 and
    // csn 4.
    let full_snapshot = snapshot_dir(&dir).unwrap();
    let shard1: Vec<_> = base_snapshot
        .iter()
        .filter(|(name, _)| name.contains("shard-01"))
        .cloned()
        .collect();
    let keep: Vec<_> = full_snapshot
        .iter()
        .filter(|(name, _)| !name.contains("shard-01"))
        .cloned()
        .chain(shard1)
        .collect();
    restore_dir(&dir, &keep).unwrap();

    let store: ShardedStore<TsStore> = ShardedStore::open(&dir, 2).unwrap();
    assert_eq!(
        store.state_bytes(),
        after_first,
        "recovery must stop at the first CSN gap"
    );
    assert_ne!(store.state_bytes(), base_state);
    assert_eq!(store.orphans_discarded(), 1, "csn 4 is an orphan");
    assert_eq!(store.next_csn(), 3, "the gap CSN is reissued");
    drop(store);

    // The orphan was physically purged: reopening is clean, and the
    // reissued CSN cannot collide with the discarded frame.
    let mut store: ShardedStore<TsStore> = ShardedStore::open(&dir, 2).unwrap();
    assert_eq!(store.orphans_discarded(), 0);
    assert_eq!(store.state_bytes(), after_first);
    store
        .commit(TsMutation::Insert(SeriesId::new(1), ts(30), 9.0))
        .unwrap();
    drop(store);
    let store: ShardedStore<TsStore> = ShardedStore::open(&dir, 2).unwrap();
    assert_eq!(store.get().value_at(SeriesId::new(1), ts(30)), Some(9.0));
    assert_eq!(store.get().value_at(SeriesId::new(0), ts(20)), None);
    std::fs::remove_dir_all(&dir).ok();
}

/// The contiguity gap can sit at the *very first* frame past the
/// checkpoint: zero frames apply, so `next_csn == checkpoint_csn` and a
/// naive post-recovery checkpoint would take its quiescent no-op guard.
/// The physical purge must still run — a skipped purge leaves the
/// orphan on disk, its CSN is reissued to new acknowledged commits, and
/// the *next* recovery merges the discarded frame back in place of (or
/// colliding with) acknowledged data.
#[test]
fn orphan_purge_runs_when_gap_is_at_the_first_post_checkpoint_csn() {
    configure();
    let dir = scratch_dir("shard-orphan-first");
    let mut store: ShardedStore<TsStore> = ShardedStore::open(&dir, 2).unwrap();
    let base_snapshot = snapshot_dir(&dir).unwrap();
    // csn 0 → shard 0, csn 1 → shard 1 (series-affine routing)
    store
        .commit(TsMutation::CreateSeries(SeriesId::new(0)))
        .unwrap();
    store
        .commit(TsMutation::CreateSeries(SeriesId::new(1)))
        .unwrap();
    assert_eq!(store.next_csn(), 2);
    drop(store);

    // Crash: shard 0 loses csn 0 while shard 1 keeps csn 1 — the gap is
    // at the first post-checkpoint CSN, so recovery applies nothing.
    let full_snapshot = snapshot_dir(&dir).unwrap();
    let shard0: Vec<_> = base_snapshot
        .iter()
        .filter(|(name, _)| name.contains("shard-00"))
        .cloned()
        .collect();
    let keep: Vec<_> = full_snapshot
        .iter()
        .filter(|(name, _)| !name.contains("shard-00"))
        .cloned()
        .chain(shard0)
        .collect();
    restore_dir(&dir, &keep).unwrap();

    let store: ShardedStore<TsStore> = ShardedStore::open(&dir, 2).unwrap();
    assert_eq!(store.orphans_discarded(), 1, "csn 1 is an orphan");
    assert_eq!(store.next_csn(), 0, "nothing applied past the checkpoint");
    drop(store);

    // The orphan must be physically gone: a second open sees a clean
    // log, and reissued CSNs cannot resurrect the discarded frame.
    let mut store: ShardedStore<TsStore> = ShardedStore::open(&dir, 2).unwrap();
    assert_eq!(
        store.orphans_discarded(),
        0,
        "orphan frame survived recovery on disk"
    );
    // Both new commits route to shard 1 — the stream that held the
    // orphan — reusing csn 0 and csn 1.
    store
        .commit(TsMutation::CreateSeries(SeriesId::new(3)))
        .unwrap();
    store
        .commit(TsMutation::Insert(SeriesId::new(3), ts(5), 7.0))
        .unwrap();
    drop(store);

    let store: ShardedStore<TsStore> = ShardedStore::open(&dir, 2).unwrap();
    assert_eq!(store.orphans_discarded(), 0);
    assert_eq!(store.next_csn(), 2);
    assert_eq!(
        store.get().value_at(SeriesId::new(3), ts(5)),
        Some(7.0),
        "acknowledged commit lost to a resurrected orphan"
    );
    // Bit-identical to a clean run of the same acknowledged commits:
    // the discarded CreateSeries(1) must not have come back.
    let golden = {
        let gdir = scratch_dir("shard-orphan-first-golden");
        let mut golden: ShardedStore<TsStore> = ShardedStore::open(&gdir, 2).unwrap();
        golden
            .commit(TsMutation::CreateSeries(SeriesId::new(3)))
            .unwrap();
        golden
            .commit(TsMutation::Insert(SeriesId::new(3), ts(5), 7.0))
            .unwrap();
        let bytes = golden.state_bytes();
        golden.close().unwrap();
        std::fs::remove_dir_all(&gdir).ok();
        bytes
    };
    assert_eq!(
        store.state_bytes(),
        golden,
        "recovered state contains traces of the discarded orphan"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Per-shard durable CSN frontiers track *commit* durability, not WAL
/// stream depth: an idle shard (empty stream) follows the global CSN
/// frontier instead of pinning the cross-shard watermark at zero, and a
/// shard with staged-but-unsynced frames sits at its first unsynced
/// CSN.
#[test]
fn csn_frontiers_track_durability_not_stream_depth() {
    configure();
    let dir = scratch_dir("shard-frontiers");
    let mut store: ShardedStore<TsStore> = ShardedStore::open(&dir, 2).unwrap();
    // All traffic routes to shard 0; shard 1 stays idle.
    store
        .commit(TsMutation::CreateSeries(SeriesId::new(0)))
        .unwrap();
    store
        .commit(TsMutation::Insert(SeriesId::new(0), ts(1), 1.0))
        .unwrap();
    assert_eq!(
        store.shard_csn_frontiers(),
        vec![2, 2],
        "an idle shard follows the global CSN frontier"
    );
    assert_eq!(
        store.shard_lsns()[1],
        (0, 0),
        "…even though its WAL stream is empty"
    );
    // A staged-but-unsynced frame holds its shard at the frame's CSN.
    store
        .stage(TsMutation::Insert(SeriesId::new(0), ts(2), 2.0))
        .unwrap();
    assert_eq!(store.shard_csn_frontiers(), vec![2, 3]);
    store.sync().unwrap();
    assert_eq!(store.shard_csn_frontiers(), vec![3, 3]);
    store.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Collects the recovery stream so tests can assert observer parity.
#[derive(Default)]
struct Timeline {
    base_watermark: i64,
    /// The handed-over base state, encoded here by the observer.
    base_state: Vec<u8>,
    /// `(lsn, commit timestamp)` of every replayed frame.
    replayed: Vec<(u64, i64)>,
}

impl<S: Durable> RecoveryObserver<S> for Timeline {
    fn base(&mut self, watermark: i64, state: &S) {
        self.base_watermark = watermark;
        let mut w = ByteWriter::new();
        state.encode_state(&mut w);
        self.base_state = w.into_bytes();
    }
    fn replay(&mut self, lsn: u64, ts: i64, _m: &S::Mutation) {
        self.replayed.push((lsn, ts));
    }
}

/// A directory in the pre-shard layout must *migrate* on its first open
/// at any shard count — full replay through the observer with the
/// original commit timestamps, re-checkpoint under the sharded header,
/// old segments archived — never silently ignore the old log.
#[test]
fn pre_shard_directory_migrates_with_segments_archived() {
    configure();
    let muts = hg_workload();
    let covered = muts.len() / 3;
    for shards in [1usize, 4] {
        let dir = scratch_dir(&format!("shard-migrate-{shards}"));
        let golden = write_hg_pre_shard_dir(&dir);
        let legacy_segments: Vec<_> = hygraph_persist::wal::list_segments(&OsVfs, &dir)
            .unwrap()
            .into_iter()
            .map(|(_, p)| p.file_name().unwrap().to_owned())
            .collect();
        assert!(
            legacy_segments.len() >= 2,
            "fixture must leave live top-level segments behind"
        );

        let mut timeline = Timeline::default();
        let store: ShardedStore<HyGraph> =
            ShardedStore::open_observed(&dir, shards, &mut timeline).unwrap();
        assert_eq!(store.shards(), shards);
        assert_eq!(
            store.state_bytes(),
            golden,
            "{shards}: migration lost state"
        );
        assert_eq!(
            store.next_csn(),
            muts.len() as u64,
            "LSNs carry over as CSNs"
        );
        assert_eq!(store.history_watermark(), 3_000);
        // the observer sees the checkpoint at its watermark, then every
        // live frame at its LSN with the timestamp it was committed at
        assert_eq!(timeline.base_watermark, 1_000);
        let mut base = HyGraph::fresh();
        for m in &muts[..covered] {
            base.apply(m).unwrap();
        }
        assert_eq!(timeline.base_state, state_bytes(&base));
        let live = muts.len() - covered;
        let expected: Vec<(u64, i64)> = (covered..muts.len())
            .map(|lsn| {
                (
                    lsn as u64,
                    if lsn < covered + live / 2 {
                        2_000
                    } else {
                        3_000
                    },
                )
            })
            .collect();
        assert_eq!(timeline.replayed, expected, "{shards}: replay stream");
        // Old segments are archived, not ignored and not deleted.
        assert!(
            hygraph_persist::wal::list_segments(&OsVfs, &dir)
                .unwrap()
                .is_empty(),
            "legacy segments must leave the top level"
        );
        let archive = dir.join("legacy-wal");
        for name in &legacy_segments {
            assert!(
                archive.join(name).exists(),
                "{name:?} missing from legacy-wal/"
            );
        }
        drop(store);

        // Once migrated, the directory reopens as a sharded store and
        // replays nothing: the migration checkpoint covers the log.
        let mut timeline = Timeline::default();
        let store: ShardedStore<HyGraph> =
            ShardedStore::open_observed(&dir, shards, &mut timeline).unwrap();
        assert_eq!(store.state_bytes(), golden);
        assert_eq!(timeline.base_watermark, 3_000);
        assert!(timeline.replayed.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A one-shard open of a 2-shard directory re-shards it down like any
/// other count change: the state bytes are identical, the CSN frontier
/// carries over, and the old generation is swept.
#[test]
fn one_shard_open_of_a_two_shard_directory_reshards_it() {
    configure();
    let dir = scratch_dir("shard-down-to-one");
    let mut store: ShardedStore<HyGraph> = ShardedStore::open(&dir, 2).unwrap();
    store.commit_batch(hg_workload()).unwrap();
    let golden = store.state_bytes();
    let csn = store.next_csn();
    store.close().unwrap();

    let mut store: ShardedStore<HyGraph> = ShardedStore::open(&dir, 1).unwrap();
    assert_eq!(store.shards(), 1);
    assert_eq!(store.state_bytes(), golden, "re-shard to one lost state");
    assert_eq!(store.next_csn(), csn);
    let names: Vec<String> = snapshot_dir(&dir)
        .unwrap()
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| name.starts_with("shards-"))
        .collect();
    assert!(
        names.iter().all(|n| n.starts_with("shards-0002/shard-00/")),
        "old generation not swept: {names:?}"
    );
    // the one-shard store keeps committing and recovers after a crash
    store
        .commit(HgMutation::Append {
            series: SeriesId::new(0),
            t: ts(10_000),
            row: vec![42.0],
        })
        .unwrap();
    let after = store.state_bytes();
    drop(store);
    let store: ShardedStore<HyGraph> = ShardedStore::open(&dir, 1).unwrap();
    assert_eq!(store.state_bytes(), after);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint or segment of another format version — the `HGWL1` /
/// `HGCK1` of PRs 2–7, or a newer build's — is a healthy artifact this
/// build cannot read, not a torn one. Every open path must refuse it
/// with the typed error *before* recovery's usual repairs (truncating a
/// torn tail, purging a torn newer checkpoint, archiving legacy
/// segments), leaving the directory byte-identical.
#[test]
fn foreign_format_versions_are_refused_before_anything_is_repaired() {
    configure();
    type Open = fn(&Path) -> hygraph_types::Result<()>;
    let one_shard: Open = |d| ShardedStore::<HyGraph>::open(d, 1).map(drop);
    let sharded: Open = |d| ShardedStore::<HyGraph>::open(d, 2).map(drop);
    let observed: Open =
        |d| ShardedStore::<HyGraph>::open_observed(d, 2, &mut Timeline::default()).map(drop);
    let resharded: Open = |d| ShardedStore::<HyGraph>::open(d, 4).map(drop);

    // one directory per layout: a checkpoint mid-stream, live segments above
    let muts = hg_workload();
    let (covered, live) = muts.split_at(muts.len() / 2);
    let pre_shard_dir = scratch_dir("version-pre-shard");
    write_pre_shard_dir(&pre_shard_dir, &[(0, covered), (0, live)], 0);
    let sharded_dir = scratch_dir("version-sharded");
    {
        let mut store: ShardedStore<HyGraph> = ShardedStore::open(&sharded_dir, 2).unwrap();
        store.commit_batch(covered.iter().cloned()).unwrap();
        store.checkpoint().unwrap();
        store.commit_batch(live.iter().cloned()).unwrap();
        store.close().unwrap();
    }
    let layouts = [
        (
            &pre_shard_dir,
            vec![
                ("one-shard migration of the pre-shard layout", one_shard),
                ("two-shard migration of the pre-shard layout", sharded),
            ],
        ),
        (
            &sharded_dir,
            vec![
                ("ShardedStore::open", sharded),
                ("ShardedStore::open_observed", observed),
                ("ShardedStore::open at another shard count", resharded),
            ],
        ),
    ];

    for (dir, opens) in layouts {
        let names: Vec<String> = snapshot_dir(dir)
            .unwrap()
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let segments: Vec<&String> = names.iter().filter(|n| n.ends_with(".seg")).collect();
        let checkpoints: Vec<&String> = names.iter().filter(|n| n.ends_with(".ck")).collect();
        assert!(segments.len() >= 2 && checkpoints.len() == 1, "{names:?}");
        // work for recovery's repair paths, which a refusal must not
        // start on: a torn tail in the first live segment (in the
        // sharded layout: another shard than the one patched below)
        // and a torn checkpoint above the intact one
        let first = dir.join(segments[0]);
        truncate_file(&first, std::fs::metadata(&first).unwrap().len() - 2).unwrap();
        std::fs::write(dir.join("ckpt-ffffffffffffffff.ck"), b"torn").unwrap();
        let fixture = snapshot_dir(dir).unwrap();

        for (how, open) in opens {
            for artifact in [*segments.last().unwrap(), checkpoints[0]] {
                for version in [b'1', b'3'] {
                    restore_dir(dir, &fixture).unwrap();
                    let mut bytes = std::fs::read(dir.join(artifact)).unwrap();
                    bytes[4] = version;
                    std::fs::write(dir.join(artifact), &bytes).unwrap();
                    let magic = String::from_utf8_lossy(&bytes[..5]).into_owned();
                    let before = snapshot_dir(dir).unwrap();
                    match open(dir) {
                        Err(HyGraphError::UnsupportedFormat(msg))
                            if msg.contains(&magic) && msg.contains(artifact.as_str()) => {}
                        other => panic!(
                            "{how}: expected a refusal naming {artifact} and {magic}, got {other:?}"
                        ),
                    }
                    assert_eq!(
                        snapshot_dir(dir).unwrap(),
                        before,
                        "{how}: refusing {artifact} as {magic} changed the directory"
                    );
                }
            }
            // only the version byte stood in the way: the fixture opens
            restore_dir(dir, &fixture).unwrap();
            open(dir).unwrap_or_else(|e| panic!("{how}: fixture must open, got {e:?}"));
        }
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Changing `HYGRAPH_SHARDS` between runs re-shards in place: state is
/// preserved, the old generation directory is swept, and a stale
/// generation left by a crashed rebuild is ignored and removed.
#[test]
fn reopening_with_a_different_shard_count_reshards() {
    configure();
    let dir = scratch_dir("shard-reshard");
    let mut store: ShardedStore<HyGraph> = ShardedStore::open(&dir, 2).unwrap();
    store.commit_batch(hg_workload()).unwrap();
    let golden = store.state_bytes();
    let csn = store.next_csn();
    store.close().unwrap();

    // Plant a stale generation dir, as a rebuild crashed mid-way would.
    std::fs::create_dir_all(dir.join("shards-0002").join("shard-00")).unwrap();

    let store: ShardedStore<HyGraph> = ShardedStore::open(&dir, 4).unwrap();
    assert_eq!(store.shards(), 4);
    assert_eq!(store.state_bytes(), golden, "re-shard lost state");
    assert_eq!(
        store.next_csn(),
        csn,
        "re-shard must preserve the CSN frontier"
    );
    drop(store);

    // Old generations are swept once the new checkpoint is durable.
    let generations: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            name.starts_with("shards-").then_some(name)
        })
        .collect();
    assert_eq!(generations, vec!["shards-0002".to_string()]);
    std::fs::remove_dir_all(&dir).ok();
}
