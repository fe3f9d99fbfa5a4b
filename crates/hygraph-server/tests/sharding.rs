//! Snapshot isolation at every shard count: readers pinning epoch
//! snapshots while a writer commits batches must never observe a torn
//! batch — every count they see is a whole number of committed
//! batches, and what a single reader sees only moves forward. And the
//! shard count, which only sets the durable store's WAL layout, must
//! not change an answer: every engine serves the bytes of one
//! sequential `execute_planned` pass.

use hygraph_core::HyGraphBuilder;
use hygraph_persist::fault::scratch_dir;
use hygraph_persist::{HgMutation, ShardedStore};
use hygraph_query::{execute_planned, plan_query};
use hygraph_server::{plan_cache_capacity_from_env, Engine};
use hygraph_sub::SubConfig;
use hygraph_temporal::HistoryConfig;
use hygraph_ts::TimeSeries;
use hygraph_types::bytes::ByteWriter;
use hygraph_types::parallel::ExecMode;
use hygraph_types::shard::ShardConfig;
use hygraph_types::{props, Duration, Interval, Label, PropertyMap, Timestamp, Value};
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
fn memory_snapshots_are_batch_atomic() {
    let engine = Engine::in_memory(
        hygraph_core::HyGraph::new(),
        plan_cache_capacity_from_env(),
        HistoryConfig::from_env(),
    )
    .unwrap();
    readers_never_observe_torn_batches(Arc::new(engine));
}

/// One WAL stream and four: the read path is the same snapshot plane.
#[test]
fn durable_snapshots_are_batch_atomic() {
    for shards in [1, 4] {
        let dir = scratch_dir(&format!("snapshot-reads-{shards}"));
        let engine = Engine::open_durable_sharded(&dir, 0, HistoryConfig::disabled(), shards)
            .expect("open sharded store");
        assert_eq!(engine.shards(), shards);
        readers_never_observe_torn_batches(Arc::new(engine));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The subscription index partitions series by the store's recorded
/// shard count, not the configured one: a store created at four shards
/// and reopened at four while another count is installed routes by four,
/// also after its subscription settings are replaced.
#[test]
fn subscription_router_follows_the_recorded_shard_count() {
    let dir = scratch_dir("sub-router-shards");
    drop(
        Engine::open_durable_sharded(&dir, 0, HistoryConfig::disabled(), 4)
            .expect("create at four shards"),
    );
    ShardConfig::new().shards(3).install();
    let engine = Engine::open_durable_sharded(&dir, 0, HistoryConfig::disabled(), 4)
        .expect("reopen at four shards");
    assert_eq!(engine.shards(), 4);
    assert_eq!(engine.subscriptions().router().shards(), engine.shards());
    let engine = engine.with_sub_config(SubConfig::default().push_buffer(8));
    assert_eq!(engine.subscriptions().router().shards(), engine.shards());
    ShardConfig::new().shards(0).install();
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

fn corpus_instance() -> hygraph_core::HyGraph {
    let hot = TimeSeries::generate(Timestamp::ZERO, Duration::from_millis(10), 100, |i| {
        if i >= 50 {
            900.0
        } else {
            10.0
        }
    });
    let cold = TimeSeries::generate(Timestamp::ZERO, Duration::from_millis(10), 100, |_| 12.0);
    HyGraphBuilder::new()
        .univariate("hot", &hot)
        .univariate("cold", &cold)
        .pg_vertex(
            "alice",
            ["User"],
            props! {"name" => "alice", "age" => 34i64},
        )
        .pg_vertex("bob", ["User"], props! {"name" => "bob", "age" => 19i64})
        .pg_vertex("m1", ["Merchant"], props! {"name" => "m1"})
        .pg_vertex("m2", ["Merchant"], props! {"name" => "m2"})
        .ts_vertex("c1", ["CreditCard"], "hot")
        .ts_vertex("c2", ["CreditCard"], "cold")
        .pg_edge(None, "alice", "c1", ["USES"], props! {})
        .pg_edge(None, "bob", "c2", ["USES"], props! {})
        .pg_edge(Some("t1"), "c1", "m1", ["TX"], props! {"amount" => 1500.0})
        .pg_edge(Some("t2"), "c1", "m2", ["TX"], props! {"amount" => 30.0})
        .pg_edge(Some("t3"), "c2", "m1", ["TX"], props! {"amount" => 20.0})
        .build()
        .unwrap()
        .hygraph
}

/// The Table-1-shaped plan-equivalence corpus (success *and* error
/// cases) every planner change is pinned on.
const CORPUS: &[&str] = &[
    "MATCH (u:User) RETURN u.name AS name ORDER BY name",
    "MATCH (u:User {name: 'alice'})-[:USES]->(c:CreditCard) RETURN u.age AS age",
    "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
     WHERE t.amount > 1000 RETURN u.name AS who, t.amount AS amt",
    "MATCH (u:User)-[:USES]->(c:CreditCard) \
     WHERE MEAN(DELTA(c) IN [0, 1000)) > 400 RETURN u.name AS who",
    "MATCH (u:User)-[:USES]->(c:CreditCard) \
     RETURN u.name AS who, MAX(DELTA(c) IN [0, 1000)) AS peak, \
     COUNT(DELTA(c) IN [0, 250)) AS n ORDER BY who",
    "MATCH (c:CreditCard)-[t:TX]->(m:Merchant) RETURN DISTINCT m.name AS m ORDER BY m",
    "MATCH (c:CreditCard)-[t:TX]->(m) RETURN t.amount AS a ORDER BY a DESC LIMIT 2",
    "MATCH (u:User) WHERE u.ghost > 1 RETURN u",
    "MATCH (u:User) WHERE u.name = 'alice' RETURN u.age * 2 + 1 AS x, u.age / 0 AS z",
    "MATCH (u:User)-[:USES]->(c:CreditCard), (c)-[t:TX]->(m:Merchant) \
     WHERE m.name = 'm1' RETURN u.name AS who ORDER BY who",
    "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
     RETURN u.name AS who, COUNT(t) AS n HAVING COUNT(t) > 1 ORDER BY who",
    "MATCH (c:CreditCard)-[t:TX]->(m:Merchant) \
     RETURN COUNT(m.name) AS all_rows, COUNT(DISTINCT m.name) AS uniq",
    "MATCH (u:User) RETURN COUNT(*) AS n",
    "MATCH (u:Ghost) RETURN COUNT(*) AS n",
    "MATCH (u:User {name: 'alice'})-[*1..2]->(x) RETURN DISTINCT x ORDER BY x",
    "MATCH (c:CreditCard)-[:TX*1..3]->(m) RETURN COUNT(*) AS n",
    "MATCH (u:User)-[:USES]->(c:CreditCard) \
     RETURN AVG(MEAN(DELTA(c) IN [0, 1000)) ) AS fleet_mean",
    "MATCH (u:User) RETURN u.name AS n ORDER BY zzz",
    "MATCH (c:CreditCard) WHERE MEAN(DELTA(c) IN [100, 0)) > 1 RETURN c",
    "MATCH (u:User) WHERE u.age > 18 AND 1 < 2 RETURN u.name AS n ORDER BY n",
];

/// Wire bytes of a result, or the error's text.
fn served(r: hygraph_types::Result<hygraph_query::QueryResult>) -> Result<Vec<u8>, String> {
    r.map(|rows| {
        let mut w = ByteWriter::new();
        rows.encode(&mut w);
        w.into_bytes()
    })
    .map_err(|e| e.to_string())
}

#[test]
fn every_shard_count_serves_the_bytes_of_one_sequential_pass() {
    let hg = corpus_instance();
    for shards in [1usize, 2, 4, 7] {
        let dir = scratch_dir(&format!("sequential-pass-{shards}"));
        ShardedStore::create(&dir, shards, hg.clone()).expect("create store");
        let engine = Engine::open_durable_sharded(
            &dir,
            plan_cache_capacity_from_env(),
            HistoryConfig::from_env(),
            shards,
        )
        .expect("open store");
        assert_eq!(engine.shards(), shards);
        for text in CORPUS {
            let q = hygraph_query::parser::parse(text).expect("corpus parses");
            let reference =
                served(plan_query(&q).and_then(|p| execute_planned(&hg, &p, ExecMode::Sequential)));
            assert_eq!(
                served(engine.query(text)),
                reference,
                "{shards} shards diverge from the sequential pass: {text}"
            );
        }
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }
}
