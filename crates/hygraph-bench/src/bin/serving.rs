//! Closed-loop load generator for the serving layer.
//!
//! Drives a running [`hygraph_server::Server`] with N concurrent
//! clients, each issuing a configurable mix of HyQL reads and
//! time-series appends and waiting for every reply (closed loop — the
//! offered load adapts to the server, so latency numbers are honest).
//! Three modes isolate where time goes:
//!
//! 1. **local** — in-process [`hygraph_server::LocalClient`]s against
//!    the same engine: the no-socket baseline;
//! 2. **tcp-memory** — real sockets, a store in memory: adds framing,
//!    queueing, and the worker pool;
//! 3. **tcp-durable** — real sockets over a store in a directory: adds
//!    the filesystem's writes and fsyncs.
//!
//! Run with: `cargo run --release -p hygraph-bench --bin serving
//! [--scale small|medium|large] [--clients N] [--read-pct P]`
//!
//! Emits `BENCH_PR3.json` in the working directory (override with
//! `BENCH_PR3_JSON=<path>`) so CI and later PRs can diff the numbers.

use hygraph_bench::Scale;
use hygraph_core::HyGraph;
use hygraph_persist::HgMutation;
use hygraph_server::{plan_cache_capacity_from_env, Client, Engine, HistoryConfig, Server};
use hygraph_types::net::ServerConfig;
use hygraph_types::{Label, SeriesId, Timestamp};
use std::time::Instant;

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|pair| pair[0] == name)
        .map(|pair| pair[1].clone())
}

/// One station (series + ts-vertex) per client, so concurrent appends
/// never violate per-series append-only ordering.
fn seed(clients: usize) -> Vec<HgMutation> {
    let mut ms = Vec::with_capacity(clients * 2);
    for c in 0..clients {
        ms.push(HgMutation::AddSeries {
            names: vec!["availability".into()],
            rows: vec![],
        });
        ms.push(HgMutation::AddTsVertex {
            labels: vec![Label::new("Station"), Label::new(format!("Zone{}", c % 8))],
            series: SeriesId::new(c as u64),
        });
    }
    ms
}

const READ_QUERIES: &[&str] = &[
    "MATCH (s:Station) RETURN COUNT(s) AS n",
    "MATCH (s:Zone0) RETURN COUNT(s) AS n",
];

/// Whether op `i` of the deterministic per-client sequence is a read.
fn is_read(i: usize, read_pct: usize) -> bool {
    (i * 31 + 7) % 100 < read_pct
}

fn append_for(client: usize, i: usize) -> HgMutation {
    HgMutation::Append {
        series: SeriesId::new(client as u64),
        t: Timestamp::from_millis(i as i64 * 1_000),
        row: vec![((i * 13 + client * 5) % 40) as f64],
    }
}

struct ModeStats {
    throughput_ops_s: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    errors: usize,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn finish(mut latencies: Vec<f64>, wall_s: f64, errors: usize) -> ModeStats {
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    ModeStats {
        throughput_ops_s: latencies.len() as f64 / wall_s.max(1e-9),
        p50_ms: percentile(&latencies, 50.0),
        p95_ms: percentile(&latencies, 95.0),
        p99_ms: percentile(&latencies, 99.0),
        errors,
    }
}

/// A generous queue and no deadline: the bench measures steady-state
/// latency, not the load-shedding path (the tests cover that).
fn bench_config() -> ServerConfig {
    ServerConfig::new()
        .addr("127.0.0.1:0")
        .queue_depth(4096)
        .req_timeout_ms(0)
}

/// An in-memory engine with the environment's plan-cache and history
/// settings.
fn memory_engine() -> Engine {
    Engine::in_memory(
        HyGraph::new(),
        plan_cache_capacity_from_env(),
        HistoryConfig::from_env(),
    )
    .expect("in-memory engine")
}

fn run_tcp(engine: Engine, clients: usize, ops: usize, read_pct: usize) -> ModeStats {
    let server = Server::serve_engine(engine, &bench_config()).expect("serve");
    let addr = server.local_addr();
    let mut seeder = Client::connect(addr).expect("connect seeder");
    seeder.mutate_batch(seed(clients)).expect("seed");

    let t0 = Instant::now();
    let per_client: Vec<(Vec<f64>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut lat = Vec::with_capacity(ops);
                    let mut errors = 0usize;
                    for i in 0..ops {
                        let t = Instant::now();
                        let ok = if is_read(i, read_pct) {
                            client.query(READ_QUERIES[i % READ_QUERIES.len()]).is_ok()
                        } else {
                            client.mutate(append_for(c, i)).is_ok()
                        };
                        lat.push(t.elapsed().as_secs_f64() * 1e3);
                        if !ok {
                            errors += 1;
                        }
                    }
                    (lat, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    server.shutdown().expect("shutdown");

    let mut latencies = Vec::with_capacity(clients * ops);
    let mut errors = 0;
    for (lat, e) in per_client {
        latencies.extend(lat);
        errors += e;
    }
    finish(latencies, wall, errors)
}

fn run_local(clients: usize, ops: usize, read_pct: usize) -> ModeStats {
    let server = Server::serve_engine(memory_engine(), &bench_config()).expect("serve");
    let local = server.local_client();
    local.mutate_batch(seed(clients)).expect("seed");

    let t0 = Instant::now();
    let per_client: Vec<(Vec<f64>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = local.clone();
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(ops);
                    let mut errors = 0usize;
                    for i in 0..ops {
                        let t = Instant::now();
                        let ok = if is_read(i, read_pct) {
                            client.query(READ_QUERIES[i % READ_QUERIES.len()]).is_ok()
                        } else {
                            client.mutate_batch(vec![append_for(c, i)]).is_ok()
                        };
                        lat.push(t.elapsed().as_secs_f64() * 1e3);
                        if !ok {
                            errors += 1;
                        }
                    }
                    (lat, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    server.shutdown().expect("shutdown");

    let mut latencies = Vec::with_capacity(clients * ops);
    let mut errors = 0;
    for (lat, e) in per_client {
        latencies.extend(lat);
        errors += e;
    }
    finish(latencies, wall, errors)
}

fn print_mode(name: &str, s: &ModeStats) {
    println!(
        "  {name:<12} {:>9.0} ops/s   p50 {:>7.3} ms   p95 {:>7.3} ms   p99 {:>7.3} ms   errors {}",
        s.throughput_ops_s, s.p50_ms, s.p95_ms, s.p99_ms, s.errors
    );
}

fn json_mode(s: &ModeStats) -> String {
    format!(
        "{{\"throughput_ops_s\": {:.1}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}, \"errors\": {}}}",
        s.throughput_ops_s, s.p50_ms, s.p95_ms, s.p99_ms, s.errors
    )
}

fn main() {
    // the serving numbers are metrics-free by default so BENCH_PR3.json
    // stays comparable across PRs; pass --metrics to measure with the
    // full observability layer live
    let with_metrics = std::env::args().any(|a| a == "--metrics");
    hygraph_metrics::install(if with_metrics {
        hygraph_metrics::MetricsConfig::default()
    } else {
        hygraph_metrics::MetricsConfig::disabled()
    });

    let scale = Scale::from_args();
    let (default_clients, ops) = match scale {
        Scale::Small => (4, 200),
        Scale::Medium => (8, 1_000),
        Scale::Large => (16, 2_500),
    };
    let clients: usize = arg_value("--clients")
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default_clients);
    let read_pct: usize = arg_value("--read-pct")
        .and_then(|v| v.parse().ok())
        .filter(|&p| p <= 100)
        .unwrap_or(70);

    println!("serving benchmark — {clients} closed-loop clients × {ops} ops, {read_pct}% reads");

    let local = run_local(clients, ops, read_pct);
    print_mode("local", &local);

    let tcp_memory = run_tcp(memory_engine(), clients, ops, read_pct);
    print_mode("tcp-memory", &tcp_memory);

    let dir = std::env::temp_dir().join(format!("hygraph-bench-serving-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let engine = Engine::open_durable_sharded(
        &dir,
        plan_cache_capacity_from_env(),
        HistoryConfig::from_env(),
        1,
    )
    .expect("open store");
    let tcp_durable = run_tcp(engine, clients, ops, read_pct);
    print_mode("tcp-durable", &tcp_durable);
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        (local.errors, tcp_memory.errors, tcp_durable.errors),
        (0, 0, 0),
        "the bench workload must complete without rejections"
    );

    let scale_name = match scale {
        Scale::Small => "small",
        Scale::Medium => "medium",
        Scale::Large => "large",
    };
    let json = format!(
        "{{\n  \"bench\": \"serving\",\n  \"scale\": \"{scale_name}\",\n  \"clients\": {clients},\n  \
         \"ops_per_client\": {ops},\n  \"read_pct\": {read_pct},\n  \"modes\": {{\n    \
         \"local\": {},\n    \"tcp_memory\": {},\n    \"tcp_durable\": {}\n  }}\n}}\n",
        json_mode(&local),
        json_mode(&tcp_memory),
        json_mode(&tcp_durable)
    );
    let path = std::env::var("BENCH_PR3_JSON").unwrap_or_else(|_| "BENCH_PR3.json".to_string());
    std::fs::write(&path, json).expect("write bench json");
    println!("\nwrote {path}");
}
