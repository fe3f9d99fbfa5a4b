//! End-to-end serving suite over real TCP sockets: concurrent mixed
//! workloads, overload rejection, deadline drops, mid-request
//! disconnects, frame corruption on a live connection, and graceful
//! shutdown with the WAL intact across a restart.

use hygraph_core::HyGraph;
use hygraph_persist::fault::scratch_dir;
use hygraph_persist::{Durable, HgMutation, ShardedStore};
use hygraph_server::{
    plan_cache_capacity_from_env, Client, Engine, ErrorCode, HistoryConfig, Request, Response,
    Server,
};
use hygraph_types::bytes::ByteWriter;
use hygraph_types::net::{self, FrameRead, ServerConfig, DEFAULT_MAX_FRAME_BYTES};
use hygraph_types::{HyGraphError, Interval, Label, PropertyMap, SeriesId, Timestamp, Value};
use std::net::TcpStream;
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

fn config(workers: usize, queue_depth: usize, timeout_ms: u64) -> ServerConfig {
    ServerConfig::new()
        .addr("127.0.0.1:0")
        .workers(workers)
        .queue_depth(queue_depth)
        .req_timeout_ms(timeout_ms)
}

fn pg_vertex(label: &str) -> HgMutation {
    HgMutation::AddPgVertex {
        labels: vec![Label::new(label)],
        props: PropertyMap::new(),
        validity: Interval::ALL,
    }
}

/// One station per writer: a series plus the ts-vertex whose identity
/// it is.
fn seed_mutations(writers: usize) -> Vec<HgMutation> {
    let mut ms = Vec::new();
    for w in 0..writers {
        ms.push(HgMutation::AddSeries {
            names: vec![format!("avail-{w}")],
            rows: vec![],
        });
        ms.push(HgMutation::AddTsVertex {
            labels: vec![Label::new("Station")],
            series: SeriesId::new(w as u64),
        });
    }
    ms.push(pg_vertex("User"));
    ms
}

/// The appends writer `w` performs, in order. Distinct writers touch
/// distinct series, so the final state is independent of how the
/// server interleaves them.
fn writer_appends(w: usize, n: usize) -> Vec<HgMutation> {
    (0..n)
        .map(|i| HgMutation::Append {
            series: SeriesId::new(w as u64),
            t: Timestamp::from_millis((i as i64) * 60_000),
            row: vec![(w * 1000 + i) as f64],
        })
        .collect()
}

const FINAL_QUERIES: &[&str] = &[
    "MATCH (s:Station) RETURN COUNT(s) AS n",
    "MATCH (u:User) RETURN COUNT(u) AS n",
];

fn encoded(result: &hygraph_query::QueryResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    result.encode(&mut w);
    w.into_bytes()
}

/// ≥ 8 concurrent clients (4 writers + 4 readers) over real sockets;
/// the served end state and query results are byte-identical to the
/// same workload executed as direct library calls.
#[test]
fn concurrent_mixed_workload_matches_direct_library_calls() {
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const APPENDS: usize = 40;

    let server =
        Server::serve_engine(memory(HyGraph::new()), &config(4, 64, 10_000)).expect("serve");
    let addr = server.local_addr();

    let mut seeder = Client::connect(addr).expect("connect seeder");
    seeder
        .mutate_batch(seed_mutations(WRITERS))
        .expect("seed batch");

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            scope.spawn(move || {
                let mut c = Client::connect(addr).expect("connect writer");
                for m in writer_appends(w, APPENDS) {
                    c.mutate(m).expect("append");
                }
            });
        }
        for _ in 0..READERS {
            scope.spawn(move || {
                let mut c = Client::connect(addr).expect("connect reader");
                for _ in 0..20 {
                    let rows = c
                        .query("MATCH (s:Station) RETURN COUNT(s) AS n")
                        .expect("query under write load");
                    assert_eq!(rows.rows[0][0], Value::Int(WRITERS as i64));
                }
            });
        }
    });

    // the reference: the identical workload as direct library calls
    let mut reference = HyGraph::new();
    for m in seed_mutations(WRITERS) {
        reference.apply(&m).expect("reference seed");
    }
    for w in 0..WRITERS {
        for m in writer_appends(w, APPENDS) {
            reference.apply(&m).expect("reference append");
        }
    }

    for q in FINAL_QUERIES {
        let served = seeder.query(*q).expect("served final query");
        let direct = hygraph_query::query(&reference, q).expect("direct final query");
        assert_eq!(
            encoded(&served),
            encoded(&direct),
            "served and direct results must be byte-identical for {q}"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.rejected_overload, 0, "workload fits the queue");
    assert!(stats.admitted >= (WRITERS * APPENDS + READERS * 20 + 1) as u64);

    let engine = server.shutdown().expect("shutdown").engine.expect("engine");
    let mut w = ByteWriter::new();
    reference.encode_state(&mut w);
    assert_eq!(
        engine.state_bytes(),
        w.into_bytes(),
        "served end state must be byte-identical to the direct one"
    );
}

/// A saturated worker pool + full admission queue yields an explicit,
/// typed overload rejection — and the work already admitted still
/// completes.
#[test]
fn saturated_queue_rejects_with_overload() {
    // one worker, one queue slot, no deadline
    let server = Server::serve_engine(memory(HyGraph::new()), &config(1, 1, 0)).expect("serve");
    let mut c = Client::connect(server.local_addr()).expect("connect");

    let s1 = c.send(&Request::Sleep(600)).expect("send sleep 1");
    // let the worker pick s1 up so the queue slot is truly free
    std::thread::sleep(Duration::from_millis(150));
    let s2 = c.send(&Request::Sleep(10)).expect("send sleep 2"); // fills the slot
    let p = c.send(&Request::Ping).expect("send ping"); // overflows

    let rejected = c.recv_for(p).expect("recv ping reply");
    match rejected {
        Response::Error {
            code: ErrorCode::Overloaded,
            ..
        } => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // admitted work still completes
    assert_eq!(c.recv_for(s1).expect("sleep 1 reply"), Response::Pong);
    assert_eq!(c.recv_for(s2).expect("sleep 2 reply"), Response::Pong);

    // the typed client surfaces the rejection as a retryable error
    let err = c.sleep(0).err();
    assert!(err.is_none(), "server must serve again after the burst");
    let stats = server.stats();
    assert!(stats.rejected_overload >= 1, "stats: {stats:?}");
    server.shutdown().expect("shutdown");
}

/// A request that out-waits its deadline in the queue is dropped
/// unexecuted with a typed error.
#[test]
fn queued_requests_past_their_deadline_are_dropped() {
    let server = Server::serve_engine(memory(HyGraph::new()), &config(1, 8, 100)).expect("serve");
    let mut c = Client::connect(server.local_addr()).expect("connect");

    let s = c.send(&Request::Sleep(400)).expect("send sleep");
    let m = c
        .send(&Request::Mutate(pg_vertex("User")))
        .expect("send mutate");

    match c.recv_for(m).expect("mutate reply") {
        Response::Error {
            code: ErrorCode::DeadlineExceeded,
            ..
        } => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(c.recv_for(s).expect("sleep reply"), Response::Pong);
    // dropped means dropped: the mutation never executed
    let rows = c
        .query("MATCH (u:User) RETURN COUNT(u) AS n")
        .expect("query");
    assert_eq!(rows.rows[0][0], Value::Int(0));
    assert!(server.stats().rejected_deadline >= 1);
    server.shutdown().expect("shutdown");
}

/// A client that disconnects with requests in flight neither crashes
/// the server nor loses the admitted work.
#[test]
fn mid_request_disconnect_leaves_server_healthy() {
    let server = Server::serve_engine(memory(HyGraph::new()), &config(1, 8, 5_000)).expect("serve");
    let addr = server.local_addr();

    let mut doomed = Client::connect(addr).expect("connect doomed");
    doomed.send(&Request::Sleep(200)).expect("send sleep");
    doomed
        .send(&Request::Mutate(pg_vertex("Ghost")))
        .expect("send mutate");
    doomed.close(); // gone before any reply

    // the admitted mutation still executes; the server keeps serving
    let mut c = Client::connect(addr).expect("connect fresh");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let rows = c
            .query("MATCH (g:Ghost) RETURN COUNT(g) AS n")
            .expect("query");
        if rows.rows[0][0] == Value::Int(1) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "mutation from the disconnected client never applied"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    c.ping().expect("server healthy");
    server.shutdown().expect("shutdown");
}

/// A corrupt frame on a live connection draws a typed `BadFrame` reply
/// and the connection keeps working — only unframeable garbage kills it.
#[test]
fn corrupt_frame_is_rejected_without_killing_the_connection() {
    let server = Server::serve_engine(memory(HyGraph::new()), &config(2, 8, 5_000)).expect("serve");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect raw");

    // a valid query frame with one payload byte flipped after encoding
    let mut bytes = Request::Query("MATCH (n) RETURN COUNT(n) AS n".into())
        .to_frame(7)
        .encode();
    let last = bytes.len() - 5; // inside the payload, before the CRC
    bytes[last] ^= 0x20;
    use std::io::Write;
    stream.write_all(&bytes).expect("write corrupt frame");

    match net::read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).expect("read reply") {
        FrameRead::Frame(f) => {
            assert_eq!(f.request_id, 0, "CRC failures are connection-level");
            match Response::from_frame(&f).expect("decode reply") {
                Response::Error {
                    code: ErrorCode::BadFrame,
                    ..
                } => {}
                other => panic!("expected BadFrame, got {other:?}"),
            }
        }
        other => panic!("expected a reply frame, got {other:?}"),
    }

    // the same connection still serves intact frames
    net::write_frame(
        &mut stream,
        &Request::Ping.to_frame(8),
        DEFAULT_MAX_FRAME_BYTES,
    )
    .expect("write ping");
    match net::read_frame(&mut stream, DEFAULT_MAX_FRAME_BYTES).expect("read pong") {
        FrameRead::Frame(f) => {
            assert_eq!(f.request_id, 8);
            assert_eq!(Response::from_frame(&f).expect("decode"), Response::Pong);
        }
        other => panic!("expected pong frame, got {other:?}"),
    }
    assert!(server.stats().bad_frames >= 1);
    server.shutdown().expect("shutdown");
}

/// Graceful shutdown drains admitted requests (a mutation queued behind
/// a sleeping worker still commits), syncs the WAL, and a reopened
/// store recovers the exact pre-shutdown state, bit for bit.
#[test]
fn graceful_shutdown_drains_and_recovers_bit_identical() {
    let dir = scratch_dir("server_shutdown");
    let engine = Engine::open_durable_sharded(
        &dir,
        plan_cache_capacity_from_env(),
        HistoryConfig::from_env(),
        1,
    )
    .expect("open store");
    let server = Server::serve_engine(engine, &config(1, 16, 5_000)).expect("serve");
    let mut c = Client::connect(server.local_addr()).expect("connect");

    c.mutate_batch(seed_mutations(2)).expect("seed");
    // park the only worker, then queue a mutation behind it
    c.send(&Request::Sleep(300)).expect("send sleep");
    c.send(&Request::Mutate(pg_vertex("LastWrite")))
        .expect("send mutate");
    std::thread::sleep(Duration::from_millis(100)); // both admitted

    let report = server.shutdown().expect("shutdown");
    assert!(
        report.drained >= 1,
        "the queued sleep/mutation were answered during the drain: {report:?}"
    );
    let engine = report.engine.expect("engine returned");
    // the drain executed the queued mutation before the WAL sync
    assert_eq!(
        engine.with_graph(HyGraph::vertex_count),
        2 + 1 + 1,
        "stations + user + the drained LastWrite vertex"
    );
    let pre_shutdown = engine.state_bytes();
    drop(engine);

    let reopened = ShardedStore::<HyGraph>::open(&dir, 1).expect("reopen");
    assert_eq!(
        reopened.state_bytes(),
        pre_shutdown,
        "recovery must be bit-identical to the pre-shutdown state"
    );

    // and the recovered store serves again
    drop(reopened);
    let engine = Engine::open_durable_sharded(
        &dir,
        plan_cache_capacity_from_env(),
        HistoryConfig::from_env(),
        1,
    )
    .expect("reopen engine");
    let server = Server::serve_engine(engine, &config(2, 16, 5_000)).expect("serve again");
    let mut c = Client::connect(server.local_addr()).expect("reconnect");
    let rows = c
        .query("MATCH (v:LastWrite) RETURN COUNT(v) AS n")
        .expect("query recovered state");
    assert_eq!(rows.rows[0][0], Value::Int(1));
    server.shutdown().expect("second shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

/// `EXPLAIN` returns the optimized plan rendering — not rows — through
/// both client paths: the in-process [`hygraph_server::LocalClient`]
/// and a real TCP [`Client`]. The rendering is the stable plan text
/// (fingerprint header, rules line, operator pipeline) and the two
/// paths agree byte for byte.
#[test]
fn explain_works_over_the_wire() {
    let server = Server::serve_engine(memory(HyGraph::new()), &config(2, 8, 5_000)).expect("serve");
    let local = server.local_client();
    local.mutate_batch(seed_mutations(2)).expect("seed");

    let text = "EXPLAIN MATCH (s:Station) WHERE s.kind = 'dock' \
                RETURN s AS station ORDER BY station LIMIT 5";
    let via_local = local.query(text).expect("local EXPLAIN");
    assert_eq!(via_local.columns, vec!["plan"]);
    let lines: Vec<String> = via_local.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(
        lines[0].starts_with("Plan fingerprint=0x"),
        "header: {lines:?}"
    );
    assert!(lines[1].starts_with("rules: "), "rules line: {lines:?}");
    assert_eq!(lines[2], "Limit 5");
    assert_eq!(lines[3], "  Sort station ASC");
    assert_eq!(lines[4], "    Project station := s");
    assert!(
        lines[5].contains("Match (s:Station)") && lines[5].contains("pushed=[s.kind = 'dock']"),
        "pushdown visible in plan: {lines:?}"
    );

    let mut c = Client::connect(server.local_addr()).expect("connect");
    let via_tcp = c.query(text).expect("TCP EXPLAIN");
    assert_eq!(
        encoded(&via_tcp),
        encoded(&via_local),
        "wire and local EXPLAIN renderings must be byte-identical"
    );
    // the un-prefixed query still returns data rows
    let rows = c
        .query("MATCH (s:Station) RETURN s AS station ORDER BY station LIMIT 5")
        .expect("plain query");
    assert_eq!(rows.columns, vec!["station"]);
    assert_eq!(rows.rows.len(), 2);
    server.shutdown().expect("shutdown");
}

/// A query nested 100 000 levels deep — by parentheses, a `NOT` run,
/// or a left-deep operator chain — fits the frame cap many times over
/// and used to overflow the worker's stack, which aborts the process
/// and with it every session. It must come back as a typed error on
/// every request kind that carries query text, and the connection must
/// keep serving.
#[test]
fn hostile_nesting_is_an_error_reply_not_a_dead_server() {
    const LEVELS: usize = 100_000;
    let server = Server::serve_engine(memory(HyGraph::new()), &config(2, 8, 0)).expect("serve");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let filters = [
        format!("{}a.x > 1{}", "(".repeat(LEVELS), ")".repeat(LEVELS)),
        format!("{}a.x > 1", "NOT ".repeat(LEVELS)),
        format!("a.x{} > 1", " + 1".repeat(LEVELS)),
    ];
    for filter in filters {
        let text = format!("MATCH (a) WHERE {filter} RETURN a");
        let as_of = Request::QueryAsOf {
            text: text.clone(),
            as_of_ms: 0,
        };
        for req in [
            Request::Query(text.clone()),
            Request::Subscribe(text),
            as_of,
        ] {
            match c.call(&req).expect("the server answers") {
                Response::Error { message, .. } => {
                    assert!(message.contains("nests deeper"), "{message}");
                }
                other => panic!("expected an error reply, got {other:?}"),
            }
            c.ping().expect("the connection survives the refusal");
        }
    }
    server.shutdown().expect("shutdown");
}

/// Requests arriving after shutdown begins get a typed retryable
/// rejection, not a hang or a silent drop.
#[test]
fn requests_after_drain_starts_are_rejected_as_shutting_down() {
    let server = Server::serve_engine(memory(HyGraph::new()), &config(1, 4, 0)).expect("serve");
    let addr = server.local_addr();
    let mut c = Client::connect(addr).expect("connect");
    // park the worker so shutdown has something to drain
    c.send(&Request::Sleep(400)).expect("send sleep");
    std::thread::sleep(Duration::from_millis(100));

    let shutdown = std::thread::spawn(move || server.shutdown().expect("shutdown"));
    std::thread::sleep(Duration::from_millis(100)); // queue now closed
                                                    // the reader answers ShuttingDown (or the connection is already
                                                    // gone, which the client reports as unavailable)
    let err = c.ping().expect_err("ping during drain must fail");
    assert!(
        matches!(
            err,
            // ShuttingDown reply, connection already closed, or the
            // socket torn down mid-read — all are clean failures
            HyGraphError::Unavailable(_) | HyGraphError::Io(_) | HyGraphError::Corrupt { .. }
        ),
        "got {err:?}"
    );
    shutdown.join().expect("shutdown thread");
}
