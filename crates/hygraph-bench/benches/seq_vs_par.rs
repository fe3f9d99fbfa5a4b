//! Sequential vs parallel execution of the workspace's fan-out paths:
//! HyQL per-binding evaluation, PageRank, the pairwise correlation
//! matrix, and batch series summarisation.
//!
//! Unlike the other benches this binary always writes a
//! machine-readable summary — `BENCH_PR1.json` in the working directory
//! (override with `BENCH_PR1_JSON=<path>`) — so CI and later PRs can
//! diff seq/par ratios without scraping stdout. Thread count follows
//! `HYGRAPH_THREADS`; on a single-core box the parallel rows measure
//! pure chunking overhead, which is exactly the regression the
//! `hygraph-types::parallel` sequential-fallback threshold exists to
//! bound.
//!
//! Run with: `cargo bench -p hygraph-bench --bench seq_vs_par`

use criterion::{black_box, Criterion};
use hygraph_core::HyGraph;
use hygraph_graph::algorithms::pagerank::{pagerank, PageRankConfig};
use hygraph_graph::TemporalGraph;
use hygraph_query::{execute, parser};
use hygraph_ts::ops::correlate;
use hygraph_ts::store::AggKind;
use hygraph_ts::{TimeSeries, TsStore};
use hygraph_types::parallel::ExecMode;
use hygraph_types::{props, Duration, Interval, SeriesId, Timestamp, VertexId};

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn unit_f64(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// 80 users × 3 cards: 240 bindings, each evaluating a series aggregate.
fn query_fixture() -> HyGraph {
    let mut st = 0x5eed_cafe_u64;
    let mut hg = HyGraph::new();
    for u in 0..80 {
        let user = hg.add_pg_vertex(["User"], props! {"name" => format!("u{u:03}")});
        for _ in 0..3 {
            let base = unit_f64(&mut st) * 1000.0;
            let s = TimeSeries::generate(Timestamp::ZERO, Duration::from_hours(1), 48, move |h| {
                base + (h as f64 * 0.3).sin() * 50.0
            });
            let sid = hg.add_univariate_series("spend", &s);
            let card = hg.add_ts_vertex(["Card"], sid).unwrap();
            hg.add_pg_edge(
                user,
                card,
                ["USES"],
                props! {"fee" => unit_f64(&mut st) * 10.0},
            )
            .unwrap();
        }
    }
    hg
}

fn bench_query(c: &mut Criterion) {
    let hg = query_fixture();
    let q = parser::parse(
        "MATCH (u:User)-[e:USES]->(c:Card) \
         WHERE MEAN(DELTA(c) IN [0, 172800000)) > 400 \
         RETURN u.name AS who, e.fee AS fee ORDER BY who, fee",
    )
    .unwrap();
    let mut group = c.benchmark_group("seq_vs_par/query_execute");
    group.bench_function("seq", |b| {
        b.iter(|| black_box(execute(&hg, &q, ExecMode::Sequential).unwrap().rows.len()))
    });
    group.bench_function("par", |b| {
        b.iter(|| black_box(execute(&hg, &q, ExecMode::Parallel).unwrap().rows.len()))
    });
    group.finish();
}

fn bench_pagerank(c: &mut Criterion) {
    let mut st = 0x9e37_79b9_u64;
    let n = 1500usize;
    let mut g = TemporalGraph::new();
    let vs: Vec<VertexId> = (0..n).map(|_| g.add_vertex(["N"], props! {})).collect();
    for i in 0..n {
        let _ = g.add_edge(vs[i], vs[(i + 1) % n], ["E"], props! {});
    }
    for _ in 0..6 * n {
        let a = (xorshift(&mut st) as usize) % n;
        let b = (xorshift(&mut st) as usize) % n;
        let _ = g.add_edge(vs[a], vs[b], ["E"], props! {});
    }
    let cfg = PageRankConfig {
        max_iter: 30,
        ..PageRankConfig::default()
    };
    let mut group = c.benchmark_group("seq_vs_par/pagerank");
    group.bench_function("seq", |b| {
        b.iter(|| black_box(pagerank(&g, cfg, ExecMode::Sequential).len()))
    });
    group.bench_function("par", |b| {
        b.iter(|| black_box(pagerank(&g, cfg, ExecMode::Parallel).len()))
    });
    group.finish();
}

fn bench_correlation(c: &mut Criterion) {
    let mut st = 0x0dd_ba11_u64;
    let cols: Vec<Vec<f64>> = (0..48)
        .map(|_| (0..512).map(|_| unit_f64(&mut st) * 10.0 - 5.0).collect())
        .collect();
    let refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
    let mut group = c.benchmark_group("seq_vs_par/correlation_matrix");
    group.bench_function("seq", |b| {
        b.iter(|| black_box(correlate::correlation_matrix(&refs, ExecMode::Sequential).len()))
    });
    group.bench_function("par", |b| {
        b.iter(|| black_box(correlate::correlation_matrix(&refs, ExecMode::Parallel).len()))
    });
    group.finish();
}

fn bench_batch_aggregate(c: &mut Criterion) {
    let mut store = TsStore::with_chunk_width(Duration::from_days(1));
    let k = 96usize;
    for i in 0..k {
        let s = TimeSeries::generate(Timestamp::ZERO, Duration::from_mins(5), 7 * 288, move |t| {
            ((t + i * 17) as f64 * 0.01).sin() * 20.0 + 50.0
        });
        store.insert_series(SeriesId::new(i as u64), &s);
    }
    let ids: Vec<SeriesId> = (0..k).map(|i| SeriesId::new(i as u64)).collect();
    let iv = Interval::new(
        Timestamp::ZERO + Duration::from_hours(12),
        Timestamp::ZERO + Duration::from_days(6),
    );
    let mut group = c.benchmark_group("seq_vs_par/batch_aggregate");
    group.bench_function("seq", |b| {
        b.iter(|| {
            black_box(
                store
                    .aggregate_batch(&ids, &iv, AggKind::Mean, ExecMode::Sequential)
                    .len(),
            )
        })
    });
    group.bench_function("par", |b| {
        b.iter(|| {
            black_box(
                store
                    .aggregate_batch(&ids, &iv, AggKind::Mean, ExecMode::Parallel)
                    .len(),
            )
        })
    });
    group.finish();
}

fn main() {
    let mut criterion = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    bench_query(&mut criterion);
    bench_pagerank(&mut criterion);
    bench_correlation(&mut criterion);
    bench_batch_aggregate(&mut criterion);
    let path = std::env::var("BENCH_PR1_JSON").unwrap_or_else(|_| "BENCH_PR1.json".to_string());
    criterion
        .export_json(&path)
        .expect("write seq-vs-par bench json");
    println!("wrote {path}");
}
