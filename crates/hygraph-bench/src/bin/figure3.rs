//! Regenerates **Figure 3** of the paper: the state-of-the-art data
//! models (top) and the HyGraph layer (bottom), exercised as one concrete
//! operation per numbered arrow. Each line of output certifies the
//! corresponding capability exists in this implementation.
//!
//! Run with: `cargo run --release -p hygraph-bench --bin figure3`

use hygraph_analytics::hybrid;
use hygraph_core::interfaces::{export, import};
use hygraph_core::view::HyGraphView;
use hygraph_core::{ElementRef, HyGraph};
use hygraph_datagen::random;
use hygraph_graph::{pattern::Pattern, snapshot, Direction};
use hygraph_ts::ops;
use hygraph_types::parallel::ExecMode;
use hygraph_types::{props, Duration, Interval, Timestamp};

fn main() {
    let horizon = Interval::new(Timestamp::ZERO, Timestamp::from_millis(100_000));
    let graph = random::random_graph(300, 900, &["User", "Item"], horizon, 7);
    let series = random::seasonal(5_000, 250, 10.0, 0.0, 1.0, 7);

    // (1)/(2) operations on LG/LPG
    let mut p = Pattern::new();
    let a = p.vertex("a", ["User"]);
    let b = p.vertex("b", ["Item"]);
    p.edge(None, a, b, ["E"], Direction::Out);
    println!(
        "(1,2) LPG subgraph matching: {} (User)->(Item) edges",
        p.find_all(&graph).len()
    );

    // (3) operations on TPGs
    let snap = snapshot::snapshot(&graph, Timestamp::from_millis(50_000));
    println!(
        "(3)   TPG snapshot retrieval: {} vertices alive at t=50s",
        snap.vertex_count()
    );

    // (4) data-series operations
    let down = ops::downsample::lttb(&series, 500);
    println!(
        "(4)   series sampling: {} -> {} points (LTTB)",
        series.len(),
        down.len()
    );

    // (5) time-series operations
    let segs = ops::segment::pelt(
        &ops::downsample::bucket_mean(&series, Duration::from_secs(60)),
        None,
    );
    println!("(5)   series segmentation: {} regimes (PELT)", segs.len());

    // (6) time series -> graph
    let sensors: Vec<(String, hygraph_ts::TimeSeries)> = (0..6)
        .map(|i| {
            (
                format!("s{i}"),
                random::seasonal(400, 50, 5.0, 0.0, if i < 3 { 0.1 } else { 3.0 }, i as u64),
            )
        })
        .collect();
    let (ts_hg, _) = import::series_to_hygraph(
        &sensors,
        "Sensor",
        Some(import::SimilarityConfig {
            step: Duration::from_secs(60),
            threshold: 0.9,
            window: 10,
        }),
    )
    .expect("import runs");
    println!(
        "(6)   series-to-graph: {} sensors linked by {} similarity ts-edges",
        ts_hg.vertex_count(),
        ts_hg.edge_count()
    );

    // (7) LPG -> data series
    let hg = import::graph_to_hygraph(&graph);
    let mut p7 = Pattern::new();
    let x = p7.vertex("x", ["User"]);
    let y = p7.vertex("y", Vec::<&str>::new());
    p7.edge(Some("e"), x, y, ["E"], Direction::Out);
    let ws = export::pattern_value_series(&hg, &p7, "e", "w");
    println!(
        "(7)   LPG-to-series: pattern query emitted {} weights as a time series",
        ws.len()
    );

    // (8) LPG + time series as properties
    let mut hg8 = HyGraph::new();
    let v = hg8.add_pg_vertex(["Station"], props! {"name" => "st"});
    let sid = hg8.add_univariate_series("load", &series);
    hg8.set_property(ElementRef::Vertex(v), "load", sid)
        .expect("property set");
    println!(
        "(8)   series-as-property: station carries a {}-point load series",
        hg8.series(sid).expect("series exists").len()
    );

    // (9) operations using both models
    let reach = hybrid::correlation_reachability(
        &ts_hg,
        ts_hg.topology().vertex_ids().next().unwrap(),
        Duration::from_secs(60),
        0.7,
        ExecMode::Auto,
    );
    println!(
        "(9)   hybrid op: correlation-constrained reachability touches {} vertices",
        reach.len()
    );

    // (10) the HyGraph model: unified instance, views, validation
    let view = HyGraphView::new(&hg).with_label("User");
    println!(
        "(10)  HyGraph layer: unified instance ({} V, {} E, {} TS) with logical views ({} User vertices)",
        hg.vertex_count(),
        hg.edge_count(),
        hg.series_count(),
        view.vertex_count()
    );
    hg.validate().expect("valid");
    println!("\nall ten arrows of Figure 3 exercised ✓");
}
