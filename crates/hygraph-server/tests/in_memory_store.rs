//! An in-memory engine is the durable engine over a `MemVfs`: fed the
//! same batches as an engine over a directory, it answers every commit,
//! checkpoint and `AS OF` query identically and ends in the same state
//! bytes — at one shard and at the configured shard count.

use hygraph_core::HyGraph;
use hygraph_persist::fault::scratch_dir;
use hygraph_persist::{Durable, HgMutation, ShardedStore};
use hygraph_server::{Engine, HistoryConfig, Request, Response};
use hygraph_types::shard::configured_shards;
use hygraph_types::{Interval, Label, PropertyMap, SeriesId, Timestamp};

fn station(i: u64) -> Vec<HgMutation> {
    vec![
        HgMutation::AddSeries {
            names: vec![format!("avail{i}")],
            rows: vec![],
        },
        HgMutation::AddTsVertex {
            labels: vec![Label::new("Station")],
            series: SeriesId::new(i),
        },
    ]
}

/// The initial instance both engines start from.
fn initial() -> HyGraph {
    let mut hg = HyGraph::new();
    for m in station(0) {
        hg.apply(&m).unwrap();
    }
    hg
}

/// What each engine is fed, in order: batches and checkpoints. Batch 5
/// ends in a mutation the state rejects (its prefix stays committed).
fn requests() -> Vec<Request> {
    let mut out = Vec::new();
    for i in 1..12u64 {
        let mut batch = station(i);
        batch.push(HgMutation::Append {
            series: SeriesId::new(i - 1),
            t: Timestamp::from_millis(i as i64),
            row: vec![i as f64],
        });
        batch.push(HgMutation::AddPgVertex {
            labels: vec![Label::new("User")],
            props: PropertyMap::new(),
            validity: Interval::ALL,
        });
        if i == 5 {
            batch.push(HgMutation::Append {
                series: SeriesId::new(99),
                t: Timestamp::from_millis(0),
                row: vec![0.0],
            });
        }
        out.push(Request::MutateBatch(batch));
        if i % 4 == 0 {
            out.push(Request::Checkpoint);
        }
    }
    out
}

const QUERIES: &[&str] = &[
    "MATCH (s:Station) RETURN COUNT(s) AS n",
    "MATCH (u:User) RETURN COUNT(u) AS n",
    "MATCH (s:Station) RETURN SUM(DELTA(s) IN [0, 100)) AS total",
];

/// Every reply, then the state bytes and each query's answer as of
/// every recorded commit, in commit order.
fn run(engine: &Engine) -> (Vec<Response>, Vec<u8>, Vec<Vec<Response>>) {
    let replies: Vec<Response> = requests().iter().map(|r| engine.handle(r)).collect();
    let as_of = engine
        .history_commit_timestamps()
        .expect("history is on")
        .into_iter()
        .map(|t| {
            QUERIES
                .iter()
                .map(|q| {
                    engine.handle(&Request::QueryAsOf {
                        text: (*q).to_string(),
                        as_of_ms: t,
                    })
                })
                .collect()
        })
        .collect();
    (replies, engine.state_bytes(), as_of)
}

#[test]
fn in_memory_and_directory_engines_answer_identically() {
    let memory = Engine::in_memory(initial(), 8, HistoryConfig::default()).unwrap();
    let expected = run(&memory);
    // the numbering clients see: commit sequence numbers from 0 past
    // the initial instance, a rejected batch's kept prefix counted, a
    // checkpoint reporting the next number
    let mut next = 0;
    for (request, reply) in requests().iter().zip(&expected.0) {
        match request {
            Request::MutateBatch(batch) if batch.len() == 5 => {
                assert!(matches!(reply, Response::Error { .. }), "{reply:?}");
                next += 4;
            }
            Request::MutateBatch(batch) => {
                let count = batch.len() as u64;
                let first_lsn = next;
                assert_eq!(reply, &Response::Committed { first_lsn, count });
                next += count;
            }
            Request::Checkpoint => assert_eq!(reply, &Response::CheckpointDone { lsn: next }),
            other => unreachable!("not fed: {other:?}"),
        }
    }
    assert_eq!(expected.2.len(), 11, "every batch is one recorded commit");

    for shards in [1, configured_shards()] {
        let dir = scratch_dir(&format!("in-memory-equivalence-{shards}"));
        ShardedStore::create(&dir, shards, initial()).unwrap();
        let durable =
            Engine::open_durable_sharded(&dir, 8, HistoryConfig::default(), shards).unwrap();
        assert_eq!(durable.shards(), shards);
        let got = run(&durable);
        assert_eq!(got.0, expected.0, "{shards} shard(s): replies");
        assert_eq!(got.1, expected.1, "{shards} shard(s): state bytes");
        assert_eq!(got.2, expected.2, "{shards} shard(s): AS OF answers");
        drop(durable);
        std::fs::remove_dir_all(&dir).ok();
    }
}
