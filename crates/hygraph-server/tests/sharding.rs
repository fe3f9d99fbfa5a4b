//! Sharded-engine snapshot isolation: readers pinning epoch snapshots
//! while a writer commits batches must never observe a torn batch —
//! every count they see is a whole number of committed batches, and
//! what a single reader sees only moves forward.

use hygraph_persist::fault::scratch_dir;
use hygraph_persist::HgMutation;
use hygraph_server::{Backend, Engine};
use hygraph_temporal::HistoryConfig;
use hygraph_types::{Interval, Label, PropertyMap, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const BATCH: usize = 7; // vertices per committed batch
const BATCHES: usize = 40;
const READERS: usize = 3;

fn station_batch() -> Vec<HgMutation> {
    (0..BATCH)
        .map(|_| HgMutation::AddPgVertex {
            labels: vec![Label::new("Station")],
            props: PropertyMap::new(),
            validity: Interval::ALL,
        })
        .collect()
}

/// The observed station count, which the engine must serve from a
/// consistent snapshot: a torn batch would surface as a non-multiple
/// of `BATCH`.
fn observed_count(engine: &Engine) -> i64 {
    let res = engine
        .query("MATCH (s:Station) RETURN COUNT(s) AS n")
        .expect("count query");
    match res.rows[0][0] {
        Value::Int(n) => n,
        ref v => panic!("count must be an int, got {v:?}"),
    }
}

/// Drives `engine` with one writer committing whole batches while
/// reader threads hammer snapshot queries; every observation is
/// checked for batch-atomicity and per-reader monotonicity. The writer
/// starts only once every reader has observed once — memory commits
/// are fast enough to all finish before a reader is first scheduled.
fn readers_never_observe_torn_batches(engine: Arc<Engine>) {
    assert_eq!(engine.shards(), 4, "the test must run the sharded path");
    let done = Arc::new(AtomicBool::new(false));
    let all_observing = Arc::new(Barrier::new(READERS + 1));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let done = Arc::clone(&done);
            let all_observing = Arc::clone(&all_observing);
            std::thread::spawn(move || {
                let mut observations = 0usize;
                let mut last = 0i64;
                loop {
                    let n = observed_count(&engine);
                    assert_eq!(
                        n % BATCH as i64,
                        0,
                        "torn batch: {n} stations is not a whole number of {BATCH}-vertex batches"
                    );
                    assert!(n >= last, "snapshot went backwards: {n} after {last}");
                    last = n;
                    observations += 1;
                    if observations == 1 {
                        all_observing.wait();
                    }
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                }
                observations
            })
        })
        .collect();

    all_observing.wait();
    for _ in 0..BATCHES {
        engine.mutate_batch(station_batch()).expect("commit");
    }
    done.store(true, Ordering::Release);
    for r in readers {
        assert!(r.join().unwrap() > 0, "every reader must have observed");
    }

    assert_eq!(observed_count(&engine), (BATCH * BATCHES) as i64);
    assert_eq!(
        engine.snapshot_epoch(),
        BATCHES as u64,
        "one snapshot published per committed batch"
    );
}

#[test]
fn memory_sharded_snapshots_are_batch_atomic() {
    let engine = Engine::new(Backend::memory(hygraph_core::HyGraph::new())).with_shards(4);
    readers_never_observe_torn_batches(Arc::new(engine));
}

#[test]
fn durable_sharded_snapshots_are_batch_atomic() {
    let dir = scratch_dir("sharded-snapshot-reads");
    let engine = Engine::open_durable_sharded(&dir, 0, HistoryConfig::disabled(), 4)
        .expect("open sharded store");
    readers_never_observe_torn_batches(Arc::new(engine));
}
