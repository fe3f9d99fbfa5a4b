//! Criterion benchmarks of the Table-2 operator taxonomy: every row's
//! time-series and graph operator, plus the four hybrid roadmap
//! operators, at a CI-friendly scale.

use criterion::{criterion_group, criterion_main, Criterion};
use hygraph_analytics::hybrid;
use hygraph_core::interfaces::import::graph_to_hygraph;
use hygraph_datagen::random;
use hygraph_graph::algorithms::{community, motifs};
use hygraph_graph::{aggregate, snapshot, traverse, Direction, Pattern};
use hygraph_ts::ops;
use hygraph_types::parallel::ExecMode;
use hygraph_types::{Duration, Interval, Timestamp};
use std::hint::black_box;

fn bench_series_ops(c: &mut Criterion) {
    let series = random::seasonal(50_000, 288, 20.0, 0.0, 2.0, 42);
    let other = random::seasonal(50_000, 288, 15.0, 0.001, 3.0, 43);
    let query: Vec<f64> = series.values()[1000..1100].to_vec();

    let mut g = c.benchmark_group("table2_series");
    g.bench_function("q1_subsequence_match", |b| {
        b.iter(|| black_box(ops::subsequence::best_match(&series, &query)))
    });
    g.bench_function("q2_downsample_lttb", |b| {
        b.iter(|| black_box(ops::downsample::lttb(&series, 500).len()))
    });
    g.bench_function("q2_downsample_bucket", |b| {
        b.iter(|| black_box(ops::downsample::bucket_mean(&series, Duration::from_secs(3600)).len()))
    });
    g.bench_function("q3_pearson", |b| {
        b.iter(|| black_box(ops::correlate::pearson(series.values(), other.values())))
    });
    g.bench_function("q4_pelt_segmentation", |b| {
        let coarse = ops::downsample::bucket_mean(&series, Duration::from_secs(1800));
        b.iter(|| black_box(ops::segment::pelt(&coarse, None).len()))
    });
    g.bench_function("d_sliding_anomaly", |b| {
        b.iter(|| {
            black_box(
                ops::anomaly::sliding_window(&series, Duration::from_secs(3600), 4.0, 10).len(),
            )
        })
    });
    g.bench_function("pm_matrix_profile", |b| {
        let small = ops::downsample::stride(&series, 25); // 2k points
        b.iter(|| black_box(ops::motif::motifs(&small, 50, 1).len()))
    });
    g.bench_function("c1_feature_vector", |b| {
        b.iter(|| black_box(ops::features::feature_vector(&series)))
    });
    g.bench_function("c2_sax_words", |b| {
        b.iter(|| {
            black_box(
                ops::sax::frequent_words(&series, 288, 6, 4, 2)
                    .expect("valid SAX params")
                    .len(),
            )
        })
    });
    g.finish();
}

fn bench_graph_ops(c: &mut Criterion) {
    let horizon = Interval::new(Timestamp::ZERO, Timestamp::from_millis(1_000_000));
    let graph = random::random_graph(5_000, 20_000, &["A", "B", "C"], horizon, 42);
    let hg = graph_to_hygraph(&graph);
    let start = graph.vertex_ids().next().expect("non-empty");

    let mut g = c.benchmark_group("table2_graph");
    g.bench_function("q1_subgraph_match", |b| {
        b.iter(|| {
            let mut p = Pattern::new();
            let a = p.vertex("a", ["A"]);
            let bb = p.vertex("b", ["B"]);
            p.edge(None, a, bb, ["E"], Direction::Out);
            black_box(p.find_all(&graph).len())
        })
    });
    g.bench_function("q2_grouping", |b| {
        b.iter(|| {
            black_box(
                aggregate::group_by(&graph, aggregate::GroupBy::Labels, &["w"])
                    .summary
                    .vertex_count(),
            )
        })
    });
    g.bench_function("q3_bfs", |b| {
        b.iter(|| black_box(traverse::bfs(&graph, start, traverse::Follow::Out).len()))
    });
    g.bench_function("q3_temporal_reachability", |b| {
        b.iter(|| black_box(traverse::temporal_reachability(&graph, start, &horizon).len()))
    });
    g.bench_function("q4_snapshot", |b| {
        b.iter(|| {
            black_box(snapshot::snapshot(&graph, Timestamp::from_millis(500_000)).vertex_count())
        })
    });
    g.bench_function("d_louvain", |b| {
        b.iter(|| black_box(community::louvain(&graph, 10).count))
    });
    g.bench_function("pm_triangles", |b| {
        b.iter(|| black_box(motifs::triangle_count(&graph)))
    });
    g.bench_function("e_fastrp", |b| {
        b.iter(|| {
            black_box(
                hygraph_analytics::embedding::fastrp(
                    &hg,
                    hygraph_analytics::embedding::FastRpConfig::default(),
                )
                .len(),
            )
        })
    });
    g.finish();
}

fn bench_hybrid_ops(c: &mut Criterion) {
    let fraud = hygraph_datagen::fraud::generate(hygraph_datagen::fraud::FraudConfig {
        users: 100,
        merchants: 40,
        hours: 24 * 7,
        ..Default::default()
    });
    let hg = fraud.hygraph;
    let shape: Vec<f64> = (0..12)
        .map(|i| if (4..8).contains(&i) { 1500.0 } else { 40.0 })
        .collect();

    let mut g = c.benchmark_group("roadmap_hybrid");
    g.bench_function("q1_hybrid_match", |b| {
        b.iter(|| {
            let mut p = Pattern::new();
            let u = p.vertex("u", ["User"]);
            let cc = p.vertex("c", ["CreditCard"]);
            p.edge(None, u, cc, ["USES"], Direction::Out);
            black_box(
                hybrid::hybrid_match(
                    &hg,
                    &hybrid::HybridMatchSpec {
                        pattern: p,
                        series_var: "c".into(),
                        shape: shape.clone(),
                        max_dist: 2.0,
                    },
                    ExecMode::Auto,
                )
                .len(),
            )
        })
    });
    g.bench_function("q2_hybrid_aggregate", |b| {
        b.iter(|| {
            black_box(
                hybrid::hybrid_aggregate(&hg, Duration::from_hours(6), ExecMode::Auto)
                    .group_series
                    .len(),
            )
        })
    });
    g.bench_function("q3_correlation_reachability", |b| {
        b.iter(|| {
            black_box(
                hybrid::correlation_reachability(
                    &hg,
                    fraud.cards[0],
                    Duration::from_hours(1),
                    0.5,
                    ExecMode::Auto,
                )
                .len(),
            )
        })
    });
    g.bench_function("q4_segmentation_snapshots", |b| {
        let driver = hg
            .series(fraud.spending[0])
            .expect("series exists")
            .to_univariate("spending")
            .expect("column");
        b.iter(|| black_box(hybrid::segmentation_snapshots(&hg, &driver, None).map(|s| s.len())))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    // CI-friendly precision: 10 samples / short windows; bump for
    // publication-grade numbers
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_series_ops, bench_graph_ops, bench_hybrid_ops
}
criterion_main!(benches);
