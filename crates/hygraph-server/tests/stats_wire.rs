//! Observability integration: the `Stats` wire request against a live
//! server, and the drain-drop accounting in [`ShutdownReport`].
//!
//! The metrics registry is process-global, so every test here funnels
//! through one static mutex and asserts on *deltas* between two
//! snapshots rather than absolute counts — absolute values depend on
//! which test ran first.

use hygraph_core::HyGraph;
use hygraph_metrics::Snapshot;
use hygraph_persist::HgMutation;
use hygraph_server::{
    plan_cache_capacity_from_env, Client, Engine, HistoryConfig, Request, Server,
};
use hygraph_types::net::ServerConfig;
use hygraph_types::{Label, PropertyMap};
use std::sync::Mutex;
use std::time::Duration;

/// An in-memory engine over `hg` with the environment's plan-cache and
/// history settings.
fn memory(hg: HyGraph) -> Engine {
    Engine::in_memory(
        hg,
        plan_cache_capacity_from_env(),
        HistoryConfig::from_env(),
    )
    .expect("in-memory engine")
}

/// Serialises the tests in this binary: they all observe the one
/// process-global registry.
static REGISTRY_GUARD: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    REGISTRY_GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

fn config(workers: usize, queue: usize, timeout_ms: u64) -> ServerConfig {
    ServerConfig::new()
        .addr("127.0.0.1:0")
        .workers(workers)
        .queue_depth(queue)
        .req_timeout_ms(timeout_ms)
}

/// Two `Stats` calls bracket a known request mix; the admitted and
/// completed deltas must account for every request exactly. Each
/// bracketing `Stats` call counts its own admission before it snapshots
/// and its own completion after, so over a serial connection the delta
/// is exactly `K + 1` for `K` bracketed requests.
#[test]
fn stats_over_wire_count_requests_exactly() {
    let _g = guard();
    let server =
        Server::serve_engine(memory(HyGraph::new()), &config(2, 16, 5_000)).expect("serve");
    let mut c = Client::connect(server.local_addr()).expect("connect");

    let before = c.stats().expect("stats before");
    assert!(
        hygraph_metrics::enabled(),
        "tier-1 runs with the default config: metrics on"
    );

    const PINGS: u64 = 5;
    const QUERIES: u64 = 3;
    for _ in 0..PINGS {
        c.ping().expect("ping");
    }
    c.mutate(HgMutation::AddPgVertex {
        labels: vec![Label::new("User")],
        props: PropertyMap::new(),
        validity: hygraph_types::Interval::ALL,
    })
    .expect("mutate");
    for _ in 0..QUERIES {
        c.query("MATCH (u:User) RETURN COUNT(u) AS n")
            .expect("query");
    }
    let after = c.stats().expect("stats after");

    let k = PINGS + 1 + QUERIES;
    assert_eq!(
        after.server.admitted - before.server.admitted,
        k + 1,
        "every request admitted exactly once (plus the closing Stats)"
    );
    assert_eq!(
        after.server.completed - before.server.completed,
        k + 1,
        "every request completed exactly once (plus the opening Stats)"
    );
    assert_eq!(
        after.server.rejected_overload,
        before.server.rejected_overload
    );
    assert_eq!(after.server.bad_frames, before.server.bad_frames);
    // the query timings flowed into the per-class taxonomy: COUNT(..)
    // makes these Q2 (aggregation) under the Table 2 classifier
    let q2 = hygraph_metrics::OpClass::Q2Aggregate as usize;
    assert!(
        after.query.classes[q2].count - before.query.classes[q2].count >= QUERIES,
        "Q2 counter must cover the {QUERIES} aggregating queries"
    );

    server.shutdown().expect("shutdown");
}

/// The snapshot that crossed the wire re-encodes to the exact bytes it
/// decodes from — the canonical-codec guarantee, exercised end to end
/// over TCP rather than in-process.
#[test]
fn wire_snapshot_reencodes_byte_identically() {
    let _g = guard();
    let server =
        Server::serve_engine(memory(HyGraph::new()), &config(2, 16, 5_000)).expect("serve");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    // put real mass in the histograms and the slow log first
    for _ in 0..4 {
        c.query("MATCH (n) RETURN COUNT(n) AS n").expect("query");
    }
    let snap = c.stats().expect("stats");
    assert!(snap.server.admitted > 0, "live counters crossed the wire");

    let bytes = snap.to_bytes();
    let decoded = Snapshot::from_bytes(&bytes).expect("decode");
    assert_eq!(decoded, snap, "decode must reproduce the snapshot");
    assert_eq!(
        decoded.to_bytes(),
        bytes,
        "re-encode must be byte-identical"
    );
    server.shutdown().expect("shutdown");
}

/// The TS compression gauges and rollup counters cross the wire: two
/// `Stats` calls bracket a known chunk-store workload (the server
/// shares this process's registry), and the deltas must match the
/// store's own ground-truth [`compression_stats`] exactly.
#[test]
fn ts_compression_metrics_cross_the_wire() {
    let _g = guard();
    let server =
        Server::serve_engine(memory(HyGraph::new()), &config(2, 16, 5_000)).expect("serve");
    let mut c = Client::connect(server.local_addr()).expect("connect");

    let before = c.stats().expect("stats before");

    // a compressing chunk store: 12 chunks → 11 sealed behind the head,
    // then summarize wide intervals to drive the rollup path
    use hygraph_ts::{TsOptions, TsStore};
    use hygraph_types::{Interval, SeriesId, Timestamp};
    let mut st = TsStore::with_options(
        hygraph_types::Duration::from_millis(100),
        TsOptions::default().compress(true).rollup_fanout(4),
    );
    let id = SeriesId::new(1);
    for i in 0..120 {
        st.insert(id, Timestamp::from_millis(i * 10), (i % 7) as f64);
    }
    let wide = Interval::new(Timestamp::from_millis(5), Timestamp::from_millis(1_195));
    let s = st.summarize(id, &wide);
    assert!(s.count > 0);

    let after = c.stats().expect("stats after");
    let ground_truth = st.compression_stats();
    assert_eq!(
        after.ts.sealed_chunks - before.ts.sealed_chunks,
        ground_truth.sealed_chunks as i64,
        "sealed-chunk gauge delta matches the store"
    );
    assert_eq!(
        after.ts.raw_bytes - before.ts.raw_bytes,
        ground_truth.raw_bytes as i64,
        "raw-bytes gauge delta matches the store"
    );
    assert_eq!(
        after.ts.compressed_bytes - before.ts.compressed_bytes,
        ground_truth.compressed_bytes as i64,
        "compressed-bytes gauge delta matches the store"
    );
    assert!(
        after.ts.rollup_hits > before.ts.rollup_hits,
        "the wide summarize merged precomputed pyramid nodes"
    );
    assert!(
        after.ts.rollup_boundary_decodes > before.ts.rollup_boundary_decodes,
        "both interval boundaries cut through sealed chunks"
    );
    // and the extended snapshot still round-trips its codec
    let bytes = after.to_bytes();
    let decoded = Snapshot::from_bytes(&bytes).expect("decode");
    assert_eq!(decoded.ts.sealed_chunks, after.ts.sealed_chunks);
    assert_eq!(decoded.ts.rollup_hits, after.ts.rollup_hits);

    // undo this test's gauge contributions so other bracketing tests in
    // this binary keep seeing clean deltas
    let _ = st.drop_series(id);
    server.shutdown().expect("shutdown");
}

/// Snapshot-publication instruments cross the wire: on a memory
/// engine (one shard), two `Stats` calls bracket `K` committed batches
/// and the `hygraph_commit_publish_us` histogram gains exactly `K`
/// observations — one per publication. The `hygraph_snapshot_pinned`
/// gauge reads 1 with no readers (only the slot's current epoch is
/// alive), rises to 2 while a held pin keeps a retired epoch live
/// across a commit, and falls back to 1 once the pin drops.
#[test]
fn snapshot_publication_metrics_cross_the_wire() {
    let _g = guard();
    let engine = Engine::in_memory(HyGraph::new(), 8, HistoryConfig::from_env()).expect("engine");
    let server = Server::serve_engine(engine, &config(2, 16, 5_000)).expect("serve");
    let engine = server.engine();
    let mut c = Client::connect(server.local_addr()).expect("connect");

    let mutation = || HgMutation::AddPgVertex {
        labels: vec![Label::new("User")],
        props: PropertyMap::new(),
        validity: hygraph_types::Interval::ALL,
    };
    let before = c.stats().expect("stats before");
    const COMMITS: u64 = 6;
    for _ in 0..COMMITS {
        c.mutate(mutation()).expect("mutate");
    }
    let after = c.stats().expect("stats after");
    assert_eq!(
        after.shard.commit_publish_us.count - before.shard.commit_publish_us.count,
        COMMITS,
        "every committed batch published exactly one snapshot"
    );
    assert_eq!(
        after.shard.snapshot_pinned, 1,
        "with no readers only the current epoch is alive"
    );

    // pin the current epoch, then retire it with another commit: both
    // the pinned epoch and the new current one are alive
    let pin = engine.pin_snapshot();
    c.mutate(mutation()).expect("mutate past the pin");
    let held = c.stats().expect("stats with held pin");
    assert_eq!(
        held.shard.snapshot_pinned, 2,
        "a held pin keeps its retired epoch alive"
    );
    assert!(
        held.render_text().contains("hygraph_snapshot_pinned 2"),
        "the gauge reaches the text exposition"
    );
    drop(pin);
    let released = c.stats().expect("stats after release");
    assert_eq!(
        released.shard.snapshot_pinned, 1,
        "dropping the pin releases the retired epoch"
    );

    // the snapshot still round-trips its codec exactly
    let bytes = released.to_bytes();
    let decoded = Snapshot::from_bytes(&bytes).expect("decode");
    assert_eq!(decoded, released);
    assert_eq!(decoded.to_bytes(), bytes);
    server.shutdown().expect("shutdown");
}

/// Requests that sit out their deadline while the server drains are
/// answered-but-not-executed; the shutdown report tallies them.
#[test]
fn shutdown_report_tallies_drain_deadline_drops() {
    let _g = guard();
    // one worker, tight deadline: everything queued behind the parked
    // worker goes stale before the drain reaches it
    let server = Server::serve_engine(memory(HyGraph::new()), &config(1, 16, 100)).expect("serve");
    let mut c = Client::connect(server.local_addr()).expect("connect");

    c.send(&Request::Sleep(500)).expect("park the worker");
    const STALE: u64 = 3;
    for _ in 0..STALE {
        c.send(&Request::Sleep(10)).expect("queue a doomed sleep");
    }
    // all four admitted; the three queued ones out-wait their 100 ms
    // deadline while the worker sleeps
    std::thread::sleep(Duration::from_millis(200));

    let report = server.shutdown().expect("shutdown");
    assert_eq!(
        report.dropped_at_deadline, STALE,
        "exactly the queued requests were dropped at deadline: {report:?}"
    );
    assert_eq!(
        report.drained,
        STALE + 1,
        "the parked sleep plus the drops were all answered: {report:?}"
    );
    assert_eq!(
        report.stats.drain_deadline_drops, report.dropped_at_deadline,
        "the drain-drop counter is the report's tally"
    );
    assert!(
        report.stats.rejected_deadline >= report.stats.drain_deadline_drops,
        "drain drops are a subset of deadline rejections"
    );
}
