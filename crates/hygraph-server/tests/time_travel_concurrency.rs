//! Time travel beside a committing writer. One writer commits `BATCHES`
//! batches while two readers loop over three kinds of read:
//!
//! - live queries, whose answer must be some committed prefix and never
//!   go backwards;
//! - `AS OF` at a timestamp `history_commit_timestamps()` already
//!   returned, which must equal the query on a fresh replay of the base
//!   plus every batch up to that commit;
//! - `BETWEEN` two such timestamps, which must equal the first-seen
//!   union of the fresh-replay answers at every commit in the window.
//!
//! A reader error fails the test. Runs once on an in-memory engine, and
//! on a durable one at one and two shards — and at the configured
//! count, so `HYGRAPH_SHARDS=4` adds a four-shard WAL layout.

use hygraph_core::{ElementRef, HyGraph};
use hygraph_persist::fault::scratch_dir;
use hygraph_persist::{Durable, HgMutation};
use hygraph_query::QueryResult;
use hygraph_server::Engine;
use hygraph_temporal::HistoryConfig;
use hygraph_types::{props, Interval, Label, PropertyValue, Value, VertexId};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const BATCHES: usize = 24;
const READERS: usize = 2;
/// Reads each reader makes at least, writer finished or not.
const MIN_READS: usize = 45;

const COUNT: &str = "MATCH (s:Station) RETURN COUNT(s) AS n";
const QUERIES: &[&str] = &[
    COUNT,
    "MATCH (s:Station) WHERE s.docks > 10 RETURN s.name AS name, s.docks AS docks",
    "MATCH (s:Station) RETURN SUM(s.docks) AS total",
];

fn station(name: String, docks: i64) -> HgMutation {
    HgMutation::AddPgVertex {
        labels: vec![Label::new("Station")],
        props: props! {"name" => name, "docks" => docks},
        validity: Interval::ALL,
    }
}

/// The base every engine starts from: three stations.
fn base_batch() -> Vec<HgMutation> {
    (0..3)
        .map(|i| station(format!("base-{i}"), 5 + i))
        .collect()
}

/// Batch `i` over a base of `first` vertices: a new station, and a
/// rewrite of the previous batch's station (a version-chain link).
fn batch(i: usize, first: usize) -> Vec<HgMutation> {
    let mut out = vec![station(format!("s{i}"), i as i64)];
    if i > 0 {
        out.push(HgMutation::SetProperty {
            el: ElementRef::Vertex(VertexId::from(first + i - 1)),
            key: "docks".into(),
            value: PropertyValue::Static(Value::Int(100 + i as i64)),
        });
    }
    out
}

/// `oracle[i][q]`: `QUERIES[q]` on a fresh replay of `base` plus
/// `batches[..=i]`.
fn oracle(base: &HyGraph, batches: &[Vec<HgMutation>]) -> Vec<Vec<QueryResult>> {
    let mut state = base.clone();
    batches
        .iter()
        .map(|b| {
            for m in b {
                state.apply(m).expect("oracle replay applies");
            }
            QUERIES
                .iter()
                .map(|q| hygraph_query::query(&state, q).expect("oracle query"))
                .collect()
        })
        .collect()
}

/// What `BETWEEN` over commits `a..=b` must answer: every epoch's rows,
/// first seen first, each once.
fn union(answers: &[Vec<QueryResult>], q: usize) -> QueryResult {
    let mut out = QueryResult {
        columns: answers[0][q].columns.clone(),
        rows: Vec::new(),
    };
    for epoch in answers {
        for row in &epoch[q].rows {
            if !out.rows.contains(row) {
                out.rows.push(row.clone());
            }
        }
    }
    out
}

fn count(r: &QueryResult) -> i64 {
    match r.rows[0][0] {
        Value::Int(n) => n,
        ref v => panic!("count must be an int, got {v:?}"),
    }
}

/// A small deterministic generator for the readers' choices.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// One reader: loops live / `AS OF` / `BETWEEN` until the writer is done
/// and it made `MIN_READS` reads, each kind at least once; returns how
/// many of each it made.
fn read_loop(
    engine: &Engine,
    oracle: &[Vec<QueryResult>],
    base_n: i64,
    seed: u64,
    done: &AtomicBool,
    started: &Barrier,
) -> [usize; 3] {
    let mut rng = Rng(seed);
    let mut made = [0usize; 3];
    let mut last_live = base_n;
    for i in 0.. {
        if i == 1 {
            started.wait();
        }
        // a reader the scheduler starved until the writer finished still
        // makes each kind of read once more before it stops
        if i >= MIN_READS && made.iter().all(|&n| n > 0) && done.load(Ordering::Acquire) {
            break;
        }
        let kind = i % 3;
        let stamps = engine.history_commit_timestamps().expect("history is on");
        if kind == 0 || stamps.is_empty() {
            let n = count(&engine.query(COUNT).expect("live read"));
            assert!(
                (base_n..=base_n + BATCHES as i64).contains(&n),
                "live count {n} is no committed prefix"
            );
            assert!(
                n >= last_live,
                "live read went backwards: {n} after {last_live}"
            );
            last_live = n;
            made[0] += 1;
            continue;
        }
        let q = rng.below(QUERIES.len());
        let a = rng.below(stamps.len());
        if kind == 1 {
            let got = engine
                .query_as_of(QUERIES[q], stamps[a])
                .expect("AS OF read");
            assert_eq!(got, oracle[a][q], "AS OF commit {a}: {}", QUERIES[q]);
        } else {
            let b = a + rng.below(stamps.len() - a);
            let text = QUERIES[q].replacen(
                " RETURN",
                &format!(" BETWEEN {} AND {} RETURN", stamps[a], stamps[b]),
                1,
            );
            let got = engine.query(&text).expect("BETWEEN read");
            assert_eq!(got, union(&oracle[a..=b], q), "{text}");
        }
        made[kind] += 1;
    }
    made
}

/// Runs the writer and the readers over `engine`, whose history must be
/// empty and whose state is the base the batches build on.
fn time_travel_beside_a_writer(engine: Engine) {
    assert_eq!(engine.history_commit_timestamps(), Some(vec![]));
    let base = engine.with_graph(|g| g.clone());
    let first = base.topology().vertex_capacity();
    let batches: Vec<_> = (0..BATCHES).map(|i| batch(i, first)).collect();
    let oracle = oracle(&base, &batches);
    let base_n = count(&hygraph_query::query(&base, COUNT).unwrap());

    let engine = Arc::new(engine);
    let oracle = Arc::new(oracle);
    let done = Arc::new(AtomicBool::new(false));
    let started = Arc::new(Barrier::new(READERS + 1));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let (engine, oracle) = (Arc::clone(&engine), Arc::clone(&oracle));
            let (done, started) = (Arc::clone(&done), Arc::clone(&started));
            std::thread::spawn(move || {
                read_loop(&engine, &oracle, base_n, 0x9E37 + r as u64, &done, &started)
            })
        })
        .collect();
    started.wait();
    for b in batches {
        engine.mutate_batch(b).expect("commit");
        std::thread::yield_now();
    }
    done.store(true, Ordering::Release);
    for r in readers {
        let made = r.join().expect("a reader failed");
        assert!(made.iter().all(|&n| n > 0), "every read kind ran: {made:?}");
    }
    assert_eq!(
        engine.history_commit_timestamps().map(|t| t.len()),
        Some(BATCHES)
    );
}

fn shard_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, hygraph_types::shard::configured_shards()];
    counts.sort_unstable();
    counts.dedup();
    counts
}

#[test]
fn memory_time_travel_is_exact_beside_a_writer() {
    let mut base = HyGraph::new();
    for m in base_batch() {
        base.apply(&m).unwrap();
    }
    let engine = Engine::in_memory(base, 8, HistoryConfig::default()).unwrap();
    time_travel_beside_a_writer(engine);
}

/// The durable engine starts from a checkpoint, so its history base is
/// the recovered state the store hands over.
#[test]
fn durable_time_travel_is_exact_beside_a_writer() {
    for shards in shard_counts() {
        let dir = scratch_dir(&format!("time-travel-concurrency-{shards}"));
        {
            let engine =
                Engine::open_durable_sharded(&dir, 8, HistoryConfig::default(), shards).unwrap();
            engine.mutate_batch(base_batch()).unwrap();
            engine.checkpoint().unwrap();
            engine.sync().unwrap();
        }
        let engine =
            Engine::open_durable_sharded(&dir, 8, HistoryConfig::default(), shards).unwrap();
        assert_eq!(engine.shards(), shards);
        assert!(
            engine.history_horizon().unwrap() > 0,
            "checkpoint is the horizon"
        );
        time_travel_beside_a_writer(engine);
        std::fs::remove_dir_all(&dir).ok();
    }
}
