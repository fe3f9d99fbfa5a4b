//! End-to-end integration tests spanning datagen → core → query →
//! analytics → storage.

use hygraph::analytics::pipeline::{self, PipelineConfig};
use hygraph::core::interfaces::{export, import};
use hygraph::datagen::{bike, fraud};
use hygraph::prelude::*;
use hygraph::query;

#[test]
fn bike_dataset_full_flow() {
    let data = bike::generate(bike::BikeConfig {
        stations: 25,
        days: 7,
        tick: Duration::from_mins(30),
        avg_degree: 4,
        seed: 99,
    });
    let hg = data.to_hygraph();
    hg.validate().expect("generated instance is valid");

    // HyQL over the generated instance
    let week = 7 * 86_400_000i64;
    let r = query(
        &hg,
        &format!(
            "MATCH (s:Station) \
             WHERE MEAN(s.availability IN [0, {week})) > 0 \
             RETURN s.name AS name, MIN(s.availability IN [0, {week})) AS lo \
             ORDER BY name"
        ),
    )
    .expect("query runs");
    assert_eq!(r.len(), 25, "every station has availability data");
    // the min can never go below zero by construction
    for row in &r.rows {
        assert!(row[1].as_f64().expect("numeric") >= 0.0);
    }

    // graph algorithms run on the unified topology
    let (_, components) = hygraph::graph::algorithms::components::connected_components(
        hg.topology(),
        hygraph::types::parallel::ExecMode::Auto,
    );
    assert!(components >= 1);

    // metric evolution annotates and preserves validity
    let mut hg = hg;
    let instants = [Timestamp::ZERO, Timestamp::from_millis(week / 2)];
    let n = hygraph::analytics::metric_evolution::annotate_metric_evolution(
        &mut hg,
        hygraph::analytics::metric_evolution::Metric::Degree,
        &instants,
    )
    .expect("annotation runs");
    assert_eq!(n, 25);
    hg.validate().expect("still valid after annotation");
}

#[test]
fn fraud_flow_query_pipeline_agree() {
    let data = fraud::generate(fraud::FraudConfig {
        users: 60,
        merchants: 20,
        hours: 24 * 7,
        ..Default::default()
    });
    let users = data.users.clone();
    let fraudsters = data.fraudsters.clone();
    let mut hg = data.hygraph;

    // HyQL sees the high transactions of fraud bursts
    let r = query(
        &hg,
        "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
         WHERE t.amount > 1000 RETURN DISTINCT u.name AS who ORDER BY who",
    )
    .expect("query runs");
    assert!(
        r.len() >= fraudsters.len(),
        "at least every fraudster surfaces in the high-amount query"
    );

    // the pipeline nails the ground truth
    let report = pipeline::run(&mut hg, PipelineConfig::default()).expect("pipeline runs");
    for (i, &u) in users.iter().enumerate() {
        let v = report.verdict(u).expect("user judged");
        assert_eq!(
            v.suspicious,
            fraudsters.contains(&i),
            "user {i} verdict mismatch: {v:?}"
        );
    }
    hg.validate().expect("annotated instance valid");
}

#[test]
fn roundtrip_losslessness_r1() {
    // TPG -> HyGraph -> TPG and series -> HyGraph -> series
    let horizon = Interval::new(Timestamp::ZERO, Timestamp::from_millis(50_000));
    let g = hygraph::datagen::random::random_graph(40, 120, &["X", "Y"], horizon, 5);
    let hg = import::graph_to_hygraph(&g);
    let back = export::to_temporal_graph(&hg, export::TsProjection::Exclude);
    assert_eq!(back.vertex_count(), g.vertex_count());
    assert_eq!(back.edge_count(), g.edge_count());
    for v in g.vertices() {
        let bv = back.vertex(v.id).expect("preserved");
        assert_eq!(bv.labels, v.labels);
        assert_eq!(bv.props, v.props);
        assert_eq!(bv.validity, v.validity);
    }
    for (e_orig, e_back) in g.edges().zip(back.edges()) {
        assert_eq!(e_orig.src, e_back.src);
        assert_eq!(e_orig.dst, e_back.dst);
        assert_eq!(e_orig.props, e_back.props);
        assert_eq!(e_orig.validity, e_back.validity);
    }

    let series = hygraph::datagen::random::random_walk(500, 1.0, 100.0, 3);
    let mut hg = HyGraph::new();
    let sid = hg.add_univariate_series("walk", &series);
    let out = export::extract_series(&hg);
    assert_eq!(out[0].0, sid);
    assert_eq!(out[0].1.to_univariate("walk").expect("column"), series);
}

#[test]
fn hyql_matches_programmatic_pattern_results() {
    let data = fraud::figure2_instance();
    let hg = &data.hygraph;
    // HyQL
    let r = query(
        hg,
        "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
         WHERE t.amount > 1000 RETURN DISTINCT u.name AS who ORDER BY who",
    )
    .expect("query runs");
    // programmatic pattern
    let mut p = hygraph::graph::Pattern::new();
    let u = p.vertex("u", ["User"]);
    let c = p.vertex("c", ["CreditCard"]);
    let m = p.vertex("m", ["Merchant"]);
    p.edge(None, u, c, ["USES"], hygraph::graph::Direction::Out);
    let t = p.edge(Some("t"), c, m, ["TX"], hygraph::graph::Direction::Out);
    p.edge_pred(
        t,
        hygraph::graph::pattern::PropPredicate::new(
            "amount",
            hygraph::graph::pattern::CmpOp::Gt,
            1000.0,
        ),
    );
    let mut programmatic: Vec<VertexId> = p
        .find_all(hg.topology())
        .iter()
        .map(|b| b.vertices["u"])
        .collect();
    programmatic.sort_unstable();
    programmatic.dedup();
    assert_eq!(r.len(), programmatic.len());
}

#[test]
fn views_respect_snapshot_semantics() {
    use hygraph::core::view::HyGraphView;
    let data = fraud::figure2_instance();
    let hg = &data.hygraph;
    let all_users = HyGraphView::new(hg).with_label("User").vertex_count();
    assert_eq!(all_users, 3);
    let ts_vertices = HyGraphView::new(hg)
        .with_kind(ElementKind::Ts)
        .vertex_count();
    assert_eq!(ts_vertices, 3, "three credit cards");
}

#[test]
fn storage_backends_agree_on_bike_workload() {
    use hygraph::storage::harness::{run_query, Workload};
    use hygraph::storage::{backend::QueryId, AllInGraphStore, PolyglotStore};
    let data = bike::generate(bike::BikeConfig {
        stations: 12,
        days: 5,
        tick: Duration::from_mins(20),
        avg_degree: 3,
        seed: 31,
    });
    let w = Workload::for_dataset(&data);
    let aig = AllInGraphStore::load(&data);
    let poly = PolyglotStore::load(&data);
    for q in QueryId::ALL {
        let a = run_query(&aig, &w, q);
        let p = run_query(&poly, &w, q);
        assert!(
            (a - p).abs() < 1e-6 * a.abs().max(1.0),
            "{} disagreement: {a} vs {p}",
            q.name()
        );
    }
}

#[test]
fn persistence_roundtrip_preserves_query_results() {
    use hygraph::core::binio;
    let data = fraud::generate(fraud::FraudConfig {
        users: 40,
        merchants: 16,
        hours: 48,
        ..Default::default()
    });
    let hg = data.hygraph;
    let q = "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
             WHERE t.amount > 1000 \
             RETURN u.name AS who, COUNT(t) AS n, MAX(DELTA(c) IN [0, 172800000)) AS peak \
             ORDER BY who";
    let before = query(&hg, q).expect("query runs");

    let bytes = binio::to_bytes(&hg);
    let reloaded = binio::from_bytes(&bytes).expect("decodes");
    let after = query(&reloaded, q).expect("query runs after reload");
    assert_eq!(before, after, "results identical after binio round-trip");
    // canonical form: serialising the reloaded instance is byte-identical
    assert_eq!(binio::to_bytes(&reloaded), bytes);
}

#[test]
fn label_index_agrees_with_scan() {
    let data = fraud::generate(fraud::FraudConfig {
        users: 30,
        merchants: 12,
        hours: 24,
        ..Default::default()
    });
    let g = data.hygraph.topology();
    for label in ["User", "CreditCard", "Merchant", "Ghost"] {
        let indexed: Vec<_> = g.vertex_ids_with_label(label);
        let scanned: Vec<_> = g
            .vertices()
            .filter(|v| v.has_label(label))
            .map(|v| v.id)
            .collect();
        assert_eq!(indexed, scanned, "label '{label}'");
    }
}

#[test]
fn non_ascii_string_literals_compare_and_echo_intact() {
    let mut hg = HyGraph::new();
    hg.add_pg_vertex(["City"], props! {"name" => "Zürich"});
    hg.add_pg_vertex(["City"], props! {"name" => "Zurich"});
    let r = query(
        &hg,
        "MATCH (c:City) WHERE c.name = 'Zürich' RETURN COUNT(c) AS n",
    )
    .expect("query runs");
    assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
    let r = query(
        &hg,
        "MATCH (c:City) WHERE c.name = 'Zurich' RETURN 'Zürich' AS s",
    )
    .expect("query runs");
    assert_eq!(r.rows, vec![vec![Value::Str("Zürich".into())]]);
}
