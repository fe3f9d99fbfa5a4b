//! Process-free fault-injection suite: every store's recovery is exact.
//!
//! The harness commits a workload one mutation at a time through the
//! durable store the engine serves, [`ShardedStore`] — every state type
//! at one shard (one WAL stream), the full hybrid model also at two —
//! snapshotting the store directory and the canonical state bytes after
//! every commit. It then simulates crashes —
//!
//! * restore the directory to any commit point (clean crash),
//! * truncate each shard's tail segment at *every* byte (torn append),
//! * flip every byte of each shard's tail segment (damaged sector),
//! * tear or complete a checkpoint mid-write —
//!
//! and asserts that recovery never panics and never lands on a silently
//! wrong state: it recovers a state **bit-identical** to one of the
//! committed states (for clean crashes: exactly the state at that
//! commit), or — when damage makes the log look like another store's —
//! refuses loudly without touching the directory.

use hygraph_core::ElementRef;
use hygraph_persist::fault::{restore_dir, scratch_dir, snapshot_dir, truncate_file};
use hygraph_persist::{Durable, HgMutation, PersistConfig, ShardRouted, ShardedStore, TsMutation};
use hygraph_storage::{AllInGraphStore, PolyglotStore, StoreMutation};
use hygraph_ts::TsStore;
use hygraph_types::{
    Interval, Label, PropertyMap, PropertyValue, SeriesId, Timestamp, Value, VertexId,
};

/// Small segments so even tiny workloads rotate; manual checkpoints
/// only, so the scenarios control exactly when snapshots happen.
/// Installed identically from every test (the config is process-wide).
fn configure() {
    PersistConfig::new()
        .segment_bytes(512)
        .checkpoint_every(0)
        .install();
}

struct Suite {
    dir: std::path::PathBuf,
    /// `goldens[i]` = canonical state bytes after `i` commits.
    goldens: Vec<Vec<u8>>,
    /// `snapshots[i]` = the store directory after `i` commits.
    snapshots: Vec<Vec<(String, Vec<u8>)>>,
}

fn run_workload<S: Durable>(
    tag: &str,
    shards: usize,
    mutations: &[S::Mutation],
    checkpoint_at: &[usize],
) -> Suite
where
    S::Mutation: Clone + ShardRouted,
{
    configure();
    let dir = scratch_dir(tag);
    let mut store: ShardedStore<S> = ShardedStore::open(&dir, shards).expect("open fresh");
    let mut goldens = vec![store.state_bytes()];
    let mut snapshots = vec![snapshot_dir(&dir).expect("snapshot")];
    for (i, m) in mutations.iter().enumerate() {
        store.commit(m.clone()).expect("commit");
        if checkpoint_at.contains(&i) {
            store.checkpoint().expect("checkpoint");
        }
        goldens.push(store.state_bytes());
        snapshots.push(snapshot_dir(&dir).expect("snapshot"));
    }
    store.close().expect("close");
    Suite {
        dir,
        goldens,
        snapshots,
    }
}

fn recovered_state<S: Durable>(dir: &std::path::Path, shards: usize) -> Vec<u8>
where
    S::Mutation: ShardRouted,
{
    let store: ShardedStore<S> = ShardedStore::open(dir, shards).expect("recovery must not fail");
    store.state_bytes()
}

fn assert_is_committed_state(recovered: &[u8], goldens: &[Vec<u8>], context: &str) {
    assert!(
        goldens.iter().any(|g| g.as_slice() == recovered),
        "{context}: recovered state matches no committed state"
    );
}

/// The newest segment of every WAL stream in a [`snapshot_dir`]
/// listing, as `(path relative to the store directory, length)`, one
/// per shard.
fn tail_segments(snapshot: &[(String, Vec<u8>)]) -> Vec<(String, u64)> {
    let mut tails = std::collections::BTreeMap::new();
    // the listing is sorted and segment names are zero-padded LSNs, so
    // the last segment seen in a stream directory is its tail
    for (name, bytes) in snapshot.iter().filter(|(n, _)| n.ends_with(".seg")) {
        let stream = name.rsplit_once('/').map_or("", |(stream, _)| stream);
        tails.insert(stream, (name.clone(), bytes.len() as u64));
    }
    tails.into_values().collect()
}

fn fault_suite<S: Durable>(
    tag: &str,
    shards: usize,
    mutations: Vec<S::Mutation>,
    checkpoint_at: &[usize],
) where
    S::Mutation: Clone + ShardRouted,
{
    let suite = run_workload::<S>(tag, shards, &mutations, checkpoint_at);
    let Suite {
        dir,
        goldens,
        snapshots,
    } = &suite;

    // 1. Clean crash after every single commit: recovery is *exactly*
    //    the state at that commit, bit for bit.
    for (i, snap) in snapshots.iter().enumerate() {
        restore_dir(dir, snap).expect("restore");
        let recovered = recovered_state::<S>(dir, shards);
        assert_eq!(
            recovered, goldens[i],
            "clean crash after commit {i}: recovery not bit-identical"
        );
    }

    // 2. Torn append: truncate each shard's tail segment at every byte.
    //    Recovery must land on some committed prefix, never error, never
    //    invent state — a frame lost on one shard orphans every later
    //    frame on the others, which recovery discards.
    let last = snapshots.last().expect("at least the empty snapshot");
    let tails = tail_segments(last);
    assert_eq!(tails.len(), shards, "every shard must hold a segment");
    for (tail, tail_len) in &tails {
        let tail = dir.join(tail);
        for cut in 0..*tail_len {
            restore_dir(dir, last).expect("restore");
            truncate_file(&tail, cut).expect("truncate");
            let recovered = recovered_state::<S>(dir, shards);
            assert_is_committed_state(
                &recovered,
                goldens,
                &format!("{} torn at byte {cut}", tail.display()),
            );
        }
    }

    // 3. Damaged sector: flip every byte of each shard's tail segment.
    //    Recovery lands on a committed state — except a flip inside the
    //    header's store tag (bytes 5..9), which makes the segment look
    //    like another store's and must be refused loudly instead of
    //    deleted.
    for (tail, tail_len) in &tails {
        let tail = dir.join(tail);
        for off in 0..*tail_len {
            restore_dir(dir, last).expect("restore");
            hygraph_persist::fault::flip_byte(&tail, off).expect("flip");
            let context = format!("{} flipped at {off}", tail.display());
            match ShardedStore::<S>::open(dir, shards) {
                Ok(store) => assert_is_committed_state(&store.state_bytes(), goldens, &context),
                Err(e) => assert!(
                    (5..9).contains(&(off as usize)),
                    "{context}: refused unexpectedly: {e}"
                ),
            }
        }
    }

    // 4. Crash *during* checkpoint write: the torn checkpoint must be
    //    ignored and the pre-checkpoint state recovered exactly.
    restore_dir(dir, last).expect("restore");
    let pre = snapshot_dir(dir).expect("snapshot");
    {
        let mut store: ShardedStore<S> = ShardedStore::open(dir, shards).expect("open");
        store.checkpoint().expect("checkpoint");
    }
    let post = snapshot_dir(dir).expect("snapshot");
    let (ck_name, ck_bytes) = post
        .iter()
        .filter(|(n, _)| n.starts_with("ckpt-"))
        .max_by(|a, b| a.0.cmp(&b.0))
        .expect("checkpoint written")
        .clone();
    for torn_len in [0usize, 5, ck_bytes.len() / 2, ck_bytes.len() - 1] {
        restore_dir(dir, &pre).expect("restore");
        std::fs::write(dir.join(&ck_name), &ck_bytes[..torn_len]).expect("write torn ckpt");
        let recovered = recovered_state::<S>(dir, shards);
        assert_eq!(
            recovered,
            *goldens.last().unwrap(),
            "mid-checkpoint crash (torn at {torn_len}): recovery not bit-identical"
        );
    }

    // 5. Crash *between* checkpoint write and segment purge: the intact
    //    new checkpoint plus the stale segments must recover exactly.
    restore_dir(dir, &pre).expect("restore");
    std::fs::write(dir.join(&ck_name), &ck_bytes).expect("write intact ckpt");
    let recovered = recovered_state::<S>(dir, shards);
    assert_eq!(
        recovered,
        *goldens.last().unwrap(),
        "crash between checkpoint and purge: recovery not bit-identical"
    );
    // ... and the stale segments, all below the new checkpoint, replay
    // nothing: reopening once more still matches.
    let recovered = recovered_state::<S>(dir, shards);
    assert_eq!(recovered, *goldens.last().unwrap());

    std::fs::remove_dir_all(dir).ok();
}

fn ts(i: i64) -> Timestamp {
    Timestamp::from_millis(i * 60_000)
}

#[test]
fn ts_store_recovery_is_exact_under_faults() {
    let s0 = SeriesId::new(0);
    let s1 = SeriesId::new(1);
    let mut ops = vec![TsMutation::CreateSeries(s0), TsMutation::CreateSeries(s1)];
    for i in 0..25 {
        ops.push(TsMutation::Insert(s0, ts(i), i as f64 * 0.5));
        if i % 2 == 0 {
            ops.push(TsMutation::Insert(s1, ts(i), 100.0 - i as f64));
        }
    }
    ops.push(TsMutation::RetainFrom(s0, ts(5)));
    ops.push(TsMutation::DropSeries(s1));
    fault_suite::<TsStore>("faults-ts", 1, ops, &[20]);
}

fn station_workload() -> Vec<StoreMutation> {
    let station = |name: &str| StoreMutation::AddStation {
        labels: vec![Label::new("Station")],
        props: {
            let mut p = PropertyMap::new();
            p.set("name", Value::Str(name.into()));
            p
        },
    };
    let mut ops = vec![station("a"), station("b"), station("c")];
    ops.push(StoreMutation::AddTrip {
        src: VertexId::new(0),
        dst: VertexId::new(1),
        labels: vec![Label::new("TRIP")],
        props: PropertyMap::new(),
    });
    ops.push(StoreMutation::AddTrip {
        src: VertexId::new(2),
        dst: VertexId::new(0),
        labels: vec![Label::new("TRIP")],
        props: PropertyMap::new(),
    });
    for i in 0..20 {
        ops.push(StoreMutation::Observe {
            station: VertexId::new((i % 3) as u64),
            t: ts(i),
            value: (i * i) as f64 * 0.25,
        });
    }
    ops
}

#[test]
fn all_in_graph_recovery_is_exact_under_faults() {
    fault_suite::<AllInGraphStore>("faults-aig", 1, station_workload(), &[12]);
}

#[test]
fn polyglot_recovery_is_exact_under_faults() {
    fault_suite::<PolyglotStore>("faults-poly", 1, station_workload(), &[12]);
}

fn hygraph_workload() -> Vec<HgMutation> {
    let mut ops = vec![
        HgMutation::AddSeries {
            names: vec!["availability".into()],
            rows: vec![(ts(0), vec![10.0])],
        },
        HgMutation::AddTsVertex {
            labels: vec![Label::new("Station")],
            series: SeriesId::new(0),
        },
        HgMutation::AddPgVertex {
            labels: vec![Label::new("User")],
            props: PropertyMap::new(),
            validity: Interval::ALL,
        },
        HgMutation::AddPgVertex {
            labels: vec![Label::new("User")],
            props: PropertyMap::new(),
            validity: Interval::ALL,
        },
        HgMutation::AddPgEdge {
            src: VertexId::new(1),
            dst: VertexId::new(2),
            labels: vec![Label::new("knows")],
            props: PropertyMap::new(),
            validity: Interval::ALL,
        },
        HgMutation::AddTsEdge {
            src: VertexId::new(1),
            dst: VertexId::new(0),
            labels: vec![Label::new("observes")],
            series: SeriesId::new(0),
        },
        HgMutation::SetProperty {
            el: ElementRef::Vertex(VertexId::new(1)),
            key: "age".into(),
            value: PropertyValue::Static(Value::Int(44)),
        },
        HgMutation::CreateSubgraph {
            labels: vec![Label::new("Community")],
            props: PropertyMap::new(),
            validity: Interval::ALL,
        },
        HgMutation::AddSubgraphVertex {
            s: hygraph_types::SubgraphId::new(0),
            v: VertexId::new(1),
            during: Interval::ALL,
        },
        HgMutation::CloseEdge {
            e: hygraph_types::EdgeId::new(0),
            t: ts(40),
        },
    ];
    for i in 1..15 {
        ops.push(HgMutation::Append {
            series: SeriesId::new(0),
            t: ts(i),
            row: vec![10.0 - i as f64 * 0.1],
        });
    }
    ops
}

#[test]
fn hygraph_recovery_is_exact_under_faults() {
    fault_suite::<hygraph_core::HyGraph>("faults-hg", 1, hygraph_workload(), &[8]);
}

/// Two shards: a torn or damaged tail on either stream must still
/// recover a committed prefix — the contiguous-CSN rule discards what
/// the other stream holds past the loss.
#[test]
fn hygraph_recovery_is_exact_under_faults_at_two_shards() {
    fault_suite::<hygraph_core::HyGraph>("faults-hg-2", 2, hygraph_workload(), &[8]);
}

/// Re-checkpointing a quiescent store (periodic checkpointer ticking
/// with no traffic, or an explicit checkpoint at shutdown right after
/// an auto-checkpoint) must never endanger the — after purge, only —
/// intact checkpoint: it is a no-op, and even a crash mid-rewrite
/// leaves the old snapshot loadable.
#[test]
fn quiescent_recheckpoint_never_endangers_the_only_checkpoint() {
    configure();
    let dir = scratch_dir("faults-quiesce");
    let mut store: ShardedStore<PolyglotStore> = ShardedStore::open(&dir, 1).expect("open fresh");
    for m in station_workload() {
        store.commit(m).expect("commit");
    }
    store.checkpoint().expect("checkpoint");
    let golden = store.state_bytes();
    let after_first = snapshot_dir(&dir).expect("snapshot");
    // a second checkpoint with nothing new to capture changes no bytes
    store.checkpoint().expect("re-checkpoint");
    assert_eq!(
        snapshot_dir(&dir).expect("snapshot"),
        after_first,
        "quiescent checkpoint rewrote on-disk state"
    );
    store.close().expect("close");
    // a crash mid-rewrite of the same checkpoint leaves only a torn
    // .tmp sibling, which must not shadow the intact snapshot
    let ck_name = after_first
        .iter()
        .map(|(n, _)| n.clone())
        .find(|n| n.starts_with("ckpt-"))
        .expect("checkpoint on disk");
    std::fs::write(dir.join(format!("{ck_name}.tmp")), b"HGCK1torn").expect("write torn tmp");
    let recovered = recovered_state::<PolyglotStore>(&dir, 1);
    assert_eq!(
        recovered, golden,
        "crashed quiescent re-checkpoint lost committed state"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The bulk-load-then-go-durable path: `ShardedStore::create` seeds the
/// log with a full checkpoint of a dataset-loaded store, incremental
/// commits ride the WAL, and an unclean drop recovers bit-exactly.
#[test]
fn create_from_bulk_load_then_crash() {
    configure();
    let dataset = hygraph_datagen::bike::generate(hygraph_datagen::bike::BikeConfig {
        stations: 5,
        days: 1,
        tick: hygraph_types::Duration::from_mins(60),
        avg_degree: 2,
        seed: 7,
    });
    let dir = scratch_dir("faults-create");
    let golden = {
        let loaded = PolyglotStore::load(&dataset);
        let mut store = ShardedStore::create(&dir, 1, loaded).expect("create");
        let station = store.get().stations()[0];
        for i in 0..10 {
            store
                .commit(StoreMutation::Observe {
                    station,
                    t: Timestamp::from_millis(i * 1_000_000_000),
                    value: i as f64,
                })
                .expect("observe");
        }
        store.state_bytes()
        // dropped without close — commits are already durable
    };
    let recovered = recovered_state::<PolyglotStore>(&dir, 1);
    assert_eq!(recovered, golden, "post-crash recovery not bit-identical");
    // creating again over a non-empty log is refused
    assert!(ShardedStore::create(&dir, 1, PolyglotStore::new()).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
