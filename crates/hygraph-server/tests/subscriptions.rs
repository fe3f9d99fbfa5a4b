//! Standing queries over real TCP: subscriptions registered with
//! `SUBSCRIBE`, incremental deltas pushed as unsolicited tagged frames,
//! and the client-side [`Subscription`] replaying them into a local
//! result that must stay **byte-identical** to re-running the query
//! server-side after every commit.
//!
//! The metrics registry is process-global, so (as in `stats_wire.rs`)
//! every test funnels through one static mutex and metric assertions
//! work on deltas between snapshots.

use hygraph_core::{ElementRef, HyGraph, HyGraphBuilder};
use hygraph_persist::HgMutation;
use hygraph_server::{
    plan_cache_capacity_from_env, Client, Engine, ErrorCode, HistoryConfig, Push, Request,
    Response, Server, SubConfig, Subscription,
};
use hygraph_ts::TimeSeries;
use hygraph_types::bytes::ByteWriter;
use hygraph_types::net::ServerConfig;
use hygraph_types::{
    props, Duration as HgDuration, Interval, Label, PropertyValue, SeriesId, Timestamp, Value,
    VertexId,
};
use std::sync::Mutex;
use std::time::{Duration, Instant};

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
/// process-global metrics registry.
static REGISTRY_GUARD: Mutex<()> = Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    REGISTRY_GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

fn config(workers: usize, queue_depth: usize, timeout_ms: u64) -> ServerConfig {
    ServerConfig::new()
        .addr("127.0.0.1:0")
        .workers(workers)
        .queue_depth(queue_depth)
        .req_timeout_ms(timeout_ms)
}

fn encoded(result: &hygraph_query::QueryResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    result.encode(&mut w);
    w.into_bytes()
}

/// The fixture: one card whose spend series sums to 190 over
/// `[0, 1000)` ms, its user, a merchant, and an unrelated station.
/// Vertex ids are allocated in insertion order: u1=0, c1=1, m1=2, s1=3.
fn instance() -> HyGraph {
    let spend = TimeSeries::generate(Timestamp::ZERO, HgDuration::from_millis(10), 20, |i| {
        i as f64
    });
    HyGraphBuilder::new()
        .univariate("spend", &spend)
        .pg_vertex("u1", ["User"], props! {"name" => "ada", "age" => 34i64})
        .ts_vertex("c1", ["Card"], "spend")
        .pg_vertex("m1", ["Merchant"], props! {"name" => "m1"})
        .pg_vertex("s1", ["Station"], props! {"name" => "dock-1"})
        .pg_edge(None, "u1", "c1", ["USES"], props! {})
        .pg_edge(None, "c1", "m1", ["TX"], props! {"amount" => 120.0})
        .build()
        .unwrap()
        .hygraph
}

fn add_user(name: &str, age: i64) -> HgMutation {
    HgMutation::AddPgVertex {
        labels: vec![Label::new("User")],
        props: props! {"name" => name, "age" => age},
        validity: Interval::ALL,
    }
}

const Q_USERS: &str = "MATCH (u:User) WHERE u.age > 30 RETURN u.name AS name";
const Q_STATIONS: &str = "MATCH (s:Station) RETURN s.name AS name";
const Q_COUNT: &str = "MATCH (u:User) RETURN COUNT(u) AS n";
const Q_SPENDERS: &str = "MATCH (u:User)-[:USES]->(c:Card) \
     WHERE SUM(DELTA(c) IN [0, 1000)) > 10 RETURN u.name AS who";

/// Drives `subscriber` until every subscription's locally maintained
/// result is byte-identical to re-running its query via `oracle`, then
/// asserts the wire has gone silent (no spurious frames for this
/// commit). Records every sub id that pushed into `seen`.
fn settle(
    subscriber: &mut Client,
    oracle: &mut Client,
    subs: &mut [(Subscription, &str)],
    seen: &mut Vec<u64>,
) {
    let expected: Vec<Vec<u8>> = subs
        .iter()
        .map(|(_, q)| encoded(&oracle.query(*q).expect("oracle query")))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let converged = subs
            .iter()
            .zip(&expected)
            .all(|((s, _), e)| encoded(s.rows()) == *e);
        if converged {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "subscriptions failed to converge on the oracle's result"
        );
        if let Some((sub_id, push)) = subscriber
            .recv_push_timeout(Duration::from_millis(200))
            .expect("recv_push")
        {
            seen.push(sub_id);
            let (sub, _) = subs
                .iter_mut()
                .find(|(s, _)| s.id() == sub_id)
                .expect("push for an unknown subscription id");
            sub.apply(&push).expect("apply push");
        }
    }
    // converged means every non-empty delta for this commit has been
    // applied and empty ones were never sent — any further frame now
    // would be spurious
    assert!(
        subscriber
            .recv_push_timeout(Duration::from_millis(60))
            .expect("drain")
            .is_none(),
        "no frames may follow convergence"
    );
}

/// The end-to-end gate: four standing queries (incremental, rerun-mode,
/// series-routed, and one nothing touches) tracked across six commit
/// batches covering vertex adds, edge adds, series appends, property
/// rewrites, and a mixed batch. After every commit each subscription
/// must equal a fresh execution byte-for-byte, and the untouched
/// Station query must never receive a single frame.
#[test]
fn standing_queries_track_commits_byte_identically() {
    let _g = guard();
    let server = Server::serve_engine(memory(instance()), &config(2, 32, 5_000)).expect("serve");
    let mut subscriber = Client::connect(server.local_addr()).expect("connect subscriber");
    let mut oracle = Client::connect(server.local_addr()).expect("connect oracle");

    let queries = [Q_USERS, Q_STATIONS, Q_COUNT, Q_SPENDERS];
    let mut subs: Vec<(Subscription, &str)> = queries
        .iter()
        .map(|q| (subscriber.subscribe(*q).expect("subscribe"), *q))
        .collect();
    // the initial snapshot is a fresh execution
    for (sub, q) in &subs {
        assert_eq!(
            encoded(sub.rows()),
            encoded(&oracle.query(*q).expect("query")),
            "initial snapshot must match a fresh run of {q:?}"
        );
    }
    let station_id = subs[1].0.id();
    let users_id = subs[0].0.id();
    let spenders_id = subs[3].0.id();

    // teen is the sixth vertex the engine allocates (fixture holds
    // 0..=3, grace takes 4), so the age rewrite below targets vertex 5
    let commits: Vec<Vec<HgMutation>> = vec![
        // routes to Users (passes the filter), Count, Spenders
        vec![add_user("grace", 50)],
        // routes to Users but is filtered out → empty delta, no frame
        vec![add_user("teen", 12)],
        // a USES edge: only the path-shaped Spenders query follows
        // edges, and grace's spend now clears the SUM bound
        vec![HgMutation::AddPgEdge {
            src: VertexId::from(4usize),
            dst: VertexId::from(1usize),
            labels: vec![Label::new("USES")],
            props: props! {},
            validity: Interval::ALL,
        }],
        // a series append routes through the TS index to Spenders
        vec![HgMutation::Append {
            series: SeriesId::new(0),
            t: Timestamp::from_millis(300),
            row: vec![100.0],
        }],
        // a property rewrite flips teen past the WHERE bound — the
        // conservative rebuild path
        vec![HgMutation::SetProperty {
            el: ElementRef::Vertex(VertexId::from(5usize)),
            key: "age".to_owned(),
            value: PropertyValue::Static(Value::Int(41)),
        }],
        // a mixed group-commit batch
        vec![
            add_user("bob", 44),
            HgMutation::Append {
                series: SeriesId::new(0),
                t: Timestamp::from_millis(310),
                row: vec![1.0],
            },
        ],
    ];
    let mut seen = Vec::new();
    for batch in commits {
        oracle.mutate_batch(batch).expect("commit");
        settle(&mut subscriber, &mut oracle, &mut subs, &mut seen);
    }

    assert!(
        !seen.contains(&station_id),
        "the untouched Station subscription received a frame: {seen:?}"
    );
    assert!(
        seen.contains(&users_id) && seen.contains(&spenders_id),
        "the affected subscriptions pushed deltas: {seen:?}"
    );
    for (sub, q) in &subs {
        assert!(sub.closed().is_none(), "{q:?} was dropped unexpectedly");
    }
    server.shutdown().expect("shutdown");
}

/// A delta op's row position is not a length: a one-cell insert landing
/// past row 200 of a standing result is a few bytes on the wire, and
/// the client must decode and apply it like any other.
#[test]
fn insert_far_down_a_long_standing_result_is_pushed_and_applied() {
    let _g = guard();
    let server = Server::serve_engine(memory(instance()), &config(2, 32, 5_000)).expect("serve");
    let mut subscriber = Client::connect(server.local_addr()).expect("connect subscriber");
    let mut oracle = Client::connect(server.local_addr()).expect("connect oracle");
    oracle
        .mutate_batch((0..300).map(|i| add_user(&format!("u{i}"), 40)).collect())
        .expect("bulk load");

    let mut subs = vec![(subscriber.subscribe(Q_USERS).expect("subscribe"), Q_USERS)];
    assert!(subs[0].0.rows().rows.len() > 200);
    let mut seen = Vec::new();
    oracle
        .mutate_batch(vec![add_user("z", 40)])
        .expect("commit");
    settle(&mut subscriber, &mut oracle, &mut subs, &mut seen);

    assert_eq!(seen, [subs[0].0.id()], "exactly one delta frame");
    assert!(subs[0].0.closed().is_none());
    server.shutdown().expect("shutdown");
}

/// A push frame sitting in the socket buffer ahead of pipelined replies
/// must not break correlation: replies are matched by id (here
/// deliberately collected out of order) and the delta is routed to the
/// push queue, not misread as someone's response.
#[test]
fn pushes_interleave_with_pipelined_replies() {
    let _g = guard();
    let server = Server::serve_engine(memory(instance()), &config(2, 32, 5_000)).expect("serve");
    let mut a = Client::connect(server.local_addr()).expect("connect a");
    let mut m = Client::connect(server.local_addr()).expect("connect m");

    let mut sub = a.subscribe(Q_USERS).expect("subscribe");
    m.mutate(add_user("grace", 50)).expect("commit");
    // let the delta land in a's socket buffer before a sends anything
    std::thread::sleep(Duration::from_millis(150));

    let i1 = a.send(&Request::Ping).expect("send 1");
    let i2 = a.send(&Request::Query(Q_STATIONS.into())).expect("send 2");
    let i3 = a.send(&Request::Ping).expect("send 3");
    assert!(matches!(a.recv_for(i3).expect("recv 3"), Response::Pong));
    match a.recv_for(i2).expect("recv 2") {
        Response::Rows(rows) => assert_eq!(rows.rows.len(), 1),
        other => panic!("expected rows, got {other:?}"),
    }
    assert!(matches!(a.recv_for(i1).expect("recv 1"), Response::Pong));

    // the delta read past during correlation is still there, in order
    let (sub_id, push) = a
        .recv_push_timeout(Duration::from_secs(5))
        .expect("recv_push")
        .expect("the delta frame was queued, not lost");
    assert_eq!(sub_id, sub.id());
    sub.apply(&push).expect("apply");
    assert_eq!(
        encoded(sub.rows()),
        encoded(&m.query(Q_USERS).expect("oracle")),
        "after the interleaved traffic the subscription still converges"
    );
    server.shutdown().expect("shutdown");
}

/// An idle subscription connection issues keepalive pings
/// (`HYGRAPH_CLIENT_PING_MS` / [`Client::ping_every_ms`]); the pongs
/// are swallowed so later request/response correlation stays intact.
#[test]
fn idle_subscription_connection_stays_live_via_keepalives() {
    let _g = guard();
    let server = Server::serve_engine(memory(instance()), &config(2, 32, 5_000)).expect("serve");
    let mut a = Client::connect(server.local_addr())
        .expect("connect a")
        .ping_every_ms(40);
    let mut observer = Client::connect(server.local_addr()).expect("connect observer");

    let _sub = a.subscribe(Q_USERS).expect("subscribe");
    let before = observer.stats().expect("stats before");
    assert!(
        a.recv_push_timeout(Duration::from_millis(400))
            .expect("idle wait")
            .is_none(),
        "nothing was committed, so nothing may arrive"
    );
    let after = observer.stats().expect("stats after");
    // the 400 ms wait at a 40 ms interval produced a stream of admitted
    // pings (the +1 is the closing Stats itself)
    assert!(
        after.server.admitted - before.server.admitted > 4,
        "keepalives kept the connection talking: {} admitted",
        after.server.admitted - before.server.admitted
    );
    // the swallowed pongs left correlation intact
    a.ping().expect("explicit ping still works");
    let rows = a.query(Q_COUNT).expect("query still works");
    assert_eq!(rows.rows, vec![vec![Value::Int(1)]]);

    // the env knob wires the same interval at connect time
    std::env::set_var("HYGRAPH_CLIENT_PING_MS", "25");
    let mut b = Client::connect(server.local_addr()).expect("connect b");
    std::env::remove_var("HYGRAPH_CLIENT_PING_MS");
    let _sub_b = b.subscribe(Q_STATIONS).expect("subscribe b");
    assert!(b
        .recv_push_timeout(Duration::from_millis(120))
        .expect("idle wait b")
        .is_none());
    b.ping()
        .expect("env-configured keepalive client stays correlated");

    server.shutdown().expect("shutdown");
}

/// A subscriber whose push buffer is full is disconnected with a typed
/// [`Push::Closed`] instead of stalling the commit path. `push_buffer(0)`
/// makes the very first delta overflow deterministically.
#[test]
fn slow_consumer_is_dropped_with_a_typed_close() {
    let _g = guard();
    let engine = memory(instance()).with_sub_config(SubConfig::default().push_buffer(0));
    let server = Server::serve_engine(engine, &config(2, 32, 5_000)).expect("serve");
    let mut a = Client::connect(server.local_addr()).expect("connect a");
    let mut m = Client::connect(server.local_addr()).expect("connect m");

    let mut sub = a.subscribe(Q_USERS).expect("subscribe");
    m.mutate(add_user("grace", 50)).expect("commit");

    let (sub_id, push) = a
        .recv_push_timeout(Duration::from_secs(5))
        .expect("recv_push")
        .expect("the close frame arrives even though the buffer is full");
    assert_eq!(sub_id, sub.id());
    match &push {
        Push::Closed { reason } => {
            assert!(reason.contains("slow consumer"), "reason: {reason}")
        }
        other => panic!("expected a typed close, got {other:?}"),
    }
    sub.apply(&push).expect("apply");
    assert!(sub.closed().expect("closed").contains("slow consumer"));

    // the registry dropped the subscription: later commits are silent
    m.mutate(add_user("alan", 50)).expect("commit 2");
    assert!(a
        .recv_push_timeout(Duration::from_millis(100))
        .expect("drain")
        .is_none());
    // the connection itself survives for request/response traffic
    a.ping().expect("connection still serves requests");
    server.shutdown().expect("shutdown");
}

/// The subscription instruments cross the wire: the `active` gauge
/// tracks the registry, `deltas_pushed` counts non-empty frames,
/// `fallback_reruns` counts rerun-mode commits, and the text rendering
/// names them all.
#[test]
fn subscription_metrics_bracket_the_lifecycle() {
    let _g = guard();
    let server = Server::serve_engine(memory(instance()), &config(2, 32, 5_000)).expect("serve");
    let mut a = Client::connect(server.local_addr()).expect("connect a");
    let mut m = Client::connect(server.local_addr()).expect("connect m");
    assert!(
        hygraph_metrics::enabled(),
        "tier-1 runs with the default config: metrics on"
    );

    let before = m.stats().expect("stats before");
    let mut inc = a.subscribe(Q_USERS).expect("subscribe incremental");
    let mut cnt = a.subscribe(Q_COUNT).expect("subscribe rerun-mode");
    let mid = m.stats().expect("stats mid");
    assert_eq!(
        mid.sub.active - before.sub.active,
        2,
        "two standing queries registered"
    );

    m.mutate(add_user("grace", 50)).expect("commit");
    for _ in 0..2 {
        let (sub_id, push) = a
            .recv_push_timeout(Duration::from_secs(5))
            .expect("recv_push")
            .expect("both subscriptions push for this commit");
        let sub = if sub_id == inc.id() {
            &mut inc
        } else {
            &mut cnt
        };
        sub.apply(&push).expect("apply");
    }
    let after = m.stats().expect("stats after");
    assert!(
        after.sub.deltas_pushed - before.sub.deltas_pushed >= 2,
        "both deltas were counted"
    );
    assert!(
        after.sub.fallback_reruns - before.sub.fallback_reruns >= 1,
        "the COUNT subscription re-executes instead of maintaining"
    );
    assert_eq!(
        after.sub.slow_consumer_drops,
        before.sub.slow_consumer_drops
    );

    assert!(a.unsubscribe(inc.id()).expect("unsubscribe inc"));
    assert!(a.unsubscribe(cnt.id()).expect("unsubscribe cnt"));
    let end = m.stats().expect("stats end");
    assert_eq!(
        end.sub.active, before.sub.active,
        "the gauge returns to its baseline"
    );
    for name in [
        "hygraph_sub_active",
        "hygraph_sub_deltas_pushed_total",
        "hygraph_sub_fallback_reruns_total",
        "hygraph_sub_slow_consumer_drops_total",
    ] {
        assert!(
            end.render_text().contains(name),
            "render_text must name {name}"
        );
    }
    server.shutdown().expect("shutdown");
}

/// Unsubscribe semantics: `existed` is true exactly once, a removed
/// subscription pushes nothing, and the in-process [`LocalClient`] is
/// refused — subscriptions are connection-bound.
#[test]
fn unsubscribe_is_idempotent_and_local_clients_are_refused() {
    let _g = guard();
    let server = Server::serve_engine(memory(instance()), &config(2, 16, 5_000)).expect("serve");
    let mut a = Client::connect(server.local_addr()).expect("connect a");
    let mut m = Client::connect(server.local_addr()).expect("connect m");

    let sub = a.subscribe(Q_USERS).expect("subscribe");
    assert!(a.unsubscribe(sub.id()).expect("first unsubscribe"));
    assert!(!a.unsubscribe(sub.id()).expect("second unsubscribe"));

    m.mutate(add_user("grace", 50)).expect("commit");
    assert!(a
        .recv_push_timeout(Duration::from_millis(100))
        .expect("drain")
        .is_none());

    match server
        .local_client()
        .handle(&Request::Subscribe(Q_USERS.into()))
    {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Exec);
            assert!(message.contains("connection"), "message: {message}");
        }
        other => panic!("expected an error, got {other:?}"),
    }
    server.shutdown().expect("shutdown");
}
