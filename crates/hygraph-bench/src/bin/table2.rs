//! Regenerates **Table 2** of the paper: the operator taxonomy
//! ("Time Series vs Graphs: Querying, Analysis, and ML"). For every row
//! we run *both* columns — the time-series operator and the graph
//! operator — on standard workloads, print timings, and run the hybrid
//! combination the roadmap derives from the row.
//!
//! Run with: `cargo run --release -p hygraph-bench --bin table2 [--scale small|medium|large]`

use hygraph_analytics::hybrid;
use hygraph_bench::{time_ms, Scale};
use hygraph_core::interfaces::import::graph_to_hygraph;
use hygraph_datagen::random;
use hygraph_graph::algorithms::{community, metrics, motifs};
use hygraph_graph::pattern::{CmpOp, PropPredicate};
use hygraph_graph::{aggregate, snapshot, traverse, Direction, Pattern};
use hygraph_ts::ops;
use hygraph_types::parallel::ExecMode;
use hygraph_types::{Duration, Interval, Timestamp};

fn main() {
    let scale = Scale::from_args();
    let (series_len, graph_n, graph_m) = match scale {
        Scale::Small => (20_000, 2_000, 8_000),
        Scale::Medium => (200_000, 20_000, 80_000),
        Scale::Large => (1_000_000, 50_000, 200_000),
    };
    println!(
        "Table 2 reproduction — workloads: series of {series_len} points, graph of {graph_n} vertices / {graph_m} edges\n"
    );

    let series = random::seasonal(series_len, 288, 20.0, 0.0, 2.0, 42);
    let horizon = Interval::new(Timestamp::ZERO, Timestamp::from_millis(1_000_000));
    let graph = random::random_graph(graph_n, graph_m, &["A", "B", "C"], horizon, 42);
    let hg = graph_to_hygraph(&graph);

    let row = |name: &str, ts_name: &str, ts_ms: f64, g_name: &str, g_ms: f64| {
        println!(
            "{:<4} {:<28} {:>10.2} ms   {:<30} {:>10.2} ms",
            name, ts_name, ts_ms, g_name, g_ms
        );
    };
    println!(
        "{:<4} {:<28} {:>13}   {:<30} {:>13}",
        "row", "time-series operator", "time", "graph operator", "time"
    );

    // Q1: subsequence matching vs subgraph matching
    let query_shape: Vec<f64> = series.values()[1000..1100].to_vec();
    let (m1, t_ts) = time_ms(|| ops::subsequence::top_k_matches(&series, &query_shape, 3));
    let (m2, t_g) = time_ms(|| {
        let mut p = Pattern::new();
        let a = p.vertex("a", ["A"]);
        let b = p.vertex("b", ["B"]);
        p.edge(Some("e"), a, b, ["E"], Direction::Out);
        p.edge_pred(0, PropPredicate::new("w", CmpOp::Gt, 5.0));
        p.find_all(&graph).len()
    });
    row("Q1", "subsequence matching", t_ts, "subgraph matching", t_g);
    std::hint::black_box((m1.len(), m2));

    // Q2: downsampling vs graph aggregation
    let (d1, t_ts) = time_ms(|| ops::downsample::lttb(&series, 1_000));
    let (d2, t_g) = time_ms(|| aggregate::group_by(&graph, aggregate::GroupBy::Labels, &["w"]));
    row(
        "Q2",
        "downsampling (LTTB)",
        t_ts,
        "graph aggregation (grouping)",
        t_g,
    );
    std::hint::black_box((d1.len(), d2.summary.vertex_count()));

    // Q3: correlation vs reachability
    let other = random::seasonal(series_len, 288, 15.0, 0.001, 3.0, 43);
    let (c1, t_ts) = time_ms(|| ops::correlate::pearson(series.values(), other.values()));
    let start = graph.vertex_ids().next().expect("non-empty graph");
    let (c2, t_g) = time_ms(|| traverse::bfs(&graph, start, traverse::Follow::Out).len());
    row(
        "Q3",
        "correlation (Pearson)",
        t_ts,
        "reachability (BFS)",
        t_g,
    );
    std::hint::black_box((c1, c2));

    // Q4: segmentation vs snapshot
    let coarse = ops::downsample::bucket_mean(&series, Duration::from_millis(60_000));
    let (s1, t_ts) = time_ms(|| ops::segment::pelt(&coarse, None).len());
    let (s2, t_g) =
        time_ms(|| snapshot::snapshot(&graph, Timestamp::from_millis(500_000)).vertex_count());
    row("Q4", "segmentation (PELT)", t_ts, "snapshot retrieval", t_g);
    std::hint::black_box((s1, s2));

    // D: anomalies vs communities
    let (a1, t_ts) = time_ms(|| {
        ops::anomaly::sliding_window(&series, Duration::from_millis(5_000), 4.0, 10).len()
    });
    let (a2, t_g) = time_ms(|| community::louvain(&graph, 10).count);
    row(
        "D",
        "anomaly detection",
        t_ts,
        "community detection (Louvain)",
        t_g,
    );
    std::hint::black_box((a1, a2));

    // PM: sequence/motif mining vs subgraph motifs
    let motif_input = ops::downsample::stride(&series, (series_len / 5_000).max(1));
    let (p1, t_ts) = time_ms(|| ops::motif::motifs(&motif_input, 50, 2).len());
    let (p2, t_g) = time_ms(|| motifs::triad_census(&graph));
    row(
        "PM",
        "motif discovery (matrix profile)",
        t_ts,
        "triangle/motif census",
        t_g,
    );
    std::hint::black_box((p1, p2.triangles));

    // E: embeddings
    let (e1, t_ts) = time_ms(|| {
        let windows: Vec<Vec<f64>> = series
            .values()
            .chunks_exact(288)
            .take(500)
            .map(<[f64]>::to_vec)
            .collect();
        ops::pca::Pca::fit(&windows, 4).map(|p| p.k())
    });
    let (e2, t_g) = time_ms(|| {
        hygraph_analytics::embedding::fastrp(
            &hg,
            hygraph_analytics::embedding::FastRpConfig {
                dim: 32,
                ..Default::default()
            },
        )
        .len()
    });
    row(
        "E",
        "PCA series embedding",
        t_ts,
        "FastRP vertex embedding",
        t_g,
    );
    std::hint::black_box((e1, e2));

    // C1: classification features
    let (f1, t_ts) = time_ms(|| ops::features::feature_vector(&series));
    let (f2, t_g) = time_ms(|| metrics::degree_histogram(&graph).len());
    row(
        "C1",
        "temporal features (FAT/trend)",
        t_ts,
        "label/degree features",
        t_g,
    );
    std::hint::black_box((f1[0], f2));

    // C2: clustering inputs
    let (k1, t_ts) = time_ms(|| {
        let words = ops::sax::frequent_words(&series, 288, 6, 4, 2).expect("valid SAX params");
        words.len()
    });
    let (k2, t_g) = time_ms(|| community::label_propagation(&graph, 10).count);
    row(
        "C2",
        "temporal-proximity grouping (SAX)",
        t_ts,
        "connectivity clustering (LPA)",
        t_g,
    );
    std::hint::black_box((k1, k2));

    // the hybrid combinations derived from the rows
    println!("\nhybrid operators (roadmap §6):");
    let fraud = hygraph_datagen::fraud::generate(hygraph_datagen::fraud::FraudConfig {
        users: 100,
        merchants: 40,
        hours: 24 * 7,
        ..Default::default()
    });
    let fh = &fraud.hygraph;
    // a fraud-burst shape: flat, 4-hour spike, flat
    let shape: Vec<f64> = (0..12)
        .map(|i| if (4..8).contains(&i) { 1500.0 } else { 40.0 })
        .collect();
    let (h1, t) = time_ms(|| {
        let mut p = Pattern::new();
        let u = p.vertex("u", ["User"]);
        let c = p.vertex("c", ["CreditCard"]);
        p.edge(None, u, c, ["USES"], Direction::Out);
        hybrid::hybrid_match(
            fh,
            &hybrid::HybridMatchSpec {
                pattern: p,
                series_var: "c".into(),
                shape,
                max_dist: 2.0,
            },
            ExecMode::Auto,
        )
        .len()
    });
    println!("  Q1 hybrid_match: {h1} structural+temporal matches in {t:.1} ms");
    let (h2, t) = time_ms(|| {
        hybrid::hybrid_aggregate(fh, Duration::from_hours(6), ExecMode::Auto)
            .group_series
            .len()
    });
    println!("  Q2 hybrid_aggregate: {h2} label groups with 6h series in {t:.1} ms");
    let (h3, t) = time_ms(|| {
        hybrid::correlation_reachability(
            fh,
            fraud.cards[0],
            Duration::from_hours(1),
            0.5,
            ExecMode::Auto,
        )
        .len()
    });
    println!("  Q3 correlation_reachability: {h3} correlated-regime vertices in {t:.1} ms");
    let driver = fh
        .series(fraud.spending[0])
        .expect("series exists")
        .to_univariate("spending")
        .expect("column");
    let (h4, t) = time_ms(|| hybrid::segmentation_snapshots(fh, &driver, None).map(|s| s.len()));
    println!(
        "  Q4 segmentation_snapshots: {:?} regime snapshots in {t:.1} ms",
        h4.expect("runs")
    );
}
