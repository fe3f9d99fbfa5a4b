//! Observability end to end: run a server, drive a workload, then read
//! the metrics back all three ways — the `Stats` wire request, the
//! in-process snapshot, and Prometheus-style text — and finish with the
//! shutdown drain report.
//!
//! Run with: `cargo run --example observability`
//!
//! Knobs (see OPERATIONS.md for the full table):
//!   HYGRAPH_METRICS=0              turn the registry off entirely
//!   HYGRAPH_SLOW_QUERY_MS=250      slow-query capture threshold
//!   HYGRAPH_METRICS_LOG_EVERY_MS=1000  periodic one-line stats log

use hygraph::metrics::MetricsConfig;
use hygraph::prelude::*;
use hygraph::server::{plan_cache_capacity_from_env, Client, Engine, HistoryConfig, Server};
use hygraph::types::net::ServerConfig;

fn main() -> Result<()> {
    // Explicit install beats the environment; first caller wins. An
    // aggressive slow-query threshold makes the ring fill up in this
    // tiny demo — a real deployment keeps the 100 ms default.
    hygraph::metrics::install(MetricsConfig {
        slow_query_threshold: std::time::Duration::from_micros(1),
        ..MetricsConfig::default()
    });

    // a small hybrid graph: stations with availability series
    let mut builder = HyGraphBuilder::new();
    for i in 0..8 {
        let series = TimeSeries::generate(Timestamp::ZERO, Duration::from_hours(1), 48, move |h| {
            ((h * 7 + i * 13) % 30) as f64
        });
        let (name, key) = (format!("avail{i}"), format!("station{i}"));
        builder = builder
            .univariate(&name, &series)
            .ts_vertex(&key, ["Station"], &name);
    }
    let built = builder.build()?;

    // the engine keeps its store in memory; `Engine::open_durable`
    // would put the same store in a directory
    let engine = Engine::in_memory(
        built.hygraph,
        plan_cache_capacity_from_env(),
        HistoryConfig::from_env(),
    )?;
    let server = Server::serve_engine(engine, &ServerConfig::new().addr("127.0.0.1:0").workers(2))?;
    let mut client = Client::connect(server.local_addr())?;

    // a mixed workload: matches, aggregates, and a deliberate parse error
    for _ in 0..5 {
        client.query("MATCH (s:Station) RETURN COUNT(s) AS n")?;
        client.query(
            "MATCH (s:Station) WHERE MEAN(DELTA(s) IN [0, 86400000)) > 10 \
             RETURN COUNT(s) AS busy",
        )?;
    }
    let _ = client.query("MTCH oops"); // counted in query_parse_errors

    // 1. the Stats wire request: one round trip, canonical binary codec
    let snap = client.stats()?;
    println!("== wire snapshot ==");
    println!("{}", snap.summary_line());
    println!(
        "admitted={} completed={} q2_aggregates={} parse_errors={}",
        snap.server.admitted,
        snap.server.completed,
        snap.query
            .class(hygraph::metrics::OpClass::Q2Aggregate)
            .count,
        snap.query.parse_errors,
    );
    println!(
        "queue_wait p95 = {} µs, execute p95 = {} µs",
        snap.server.queue_wait_us.p95(),
        snap.server.execute_us.p95(),
    );

    // 2. the same registry, in process (no socket)
    let local = server.local_client().stats();
    println!("\n== in-process snapshot ==");
    println!("{}", local.summary_line());

    // 3. Prometheus-style exposition text (first lines only, it's long)
    println!("\n== render_text (excerpt) ==");
    for line in snap.render_text().lines().take(12) {
        println!("{line}");
    }
    println!(
        "… plus {} slow-query entries (threshold 1 µs for this demo)",
        snap.slow_queries.len()
    );

    // the shutdown drain is accounted for, too
    let report = server.shutdown()?;
    println!(
        "\nshutdown: drained {} request(s), {} dropped at deadline",
        report.drained, report.dropped_at_deadline
    );
    Ok(())
}
