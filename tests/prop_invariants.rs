//! Property-based tests of the core invariants, spanning crates.

use hygraph::prelude::*;
use hygraph::ts::ops;
use hygraph::ts::store::{AggKind, Summary};
use proptest::prelude::*;

fn ts(ms: i64) -> Timestamp {
    Timestamp::from_millis(ms)
}

proptest! {
    // ---- interval algebra ------------------------------------------------

    #[test]
    fn interval_intersection_commutes(a0 in -1000i64..1000, al in 0i64..500, b0 in -1000i64..1000, bl in 0i64..500) {
        let a = Interval::new(ts(a0), ts(a0 + al));
        let b = Interval::new(ts(b0), ts(b0 + bl));
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        // intersection is contained in both
        if let Some(i) = a.intersect(&b) {
            prop_assert!(a.contains_interval(&i));
            prop_assert!(b.contains_interval(&i));
        }
    }

    #[test]
    fn interval_hull_contains_both(a0 in -1000i64..1000, al in 0i64..500, b0 in -1000i64..1000, bl in 0i64..500) {
        let a = Interval::new(ts(a0), ts(a0 + al));
        let b = Interval::new(ts(b0), ts(b0 + bl));
        let h = a.hull(&b);
        prop_assert!(h.contains_interval(&a));
        prop_assert!(h.contains_interval(&b));
    }

    #[test]
    fn truncate_is_idempotent_and_bounded(t in -1_000_000i64..1_000_000, b in 1i64..10_000) {
        let bucket = Duration::from_millis(b);
        let tr = ts(t).truncate(bucket);
        prop_assert_eq!(tr.truncate(bucket), tr, "idempotent");
        prop_assert!(tr <= ts(t));
        prop_assert!(ts(t) - tr < bucket);
    }

    // ---- series construction ---------------------------------------------

    #[test]
    fn from_pairs_always_sorted_unique(pairs in prop::collection::vec((-10_000i64..10_000, -1e6f64..1e6), 0..200)) {
        let s = TimeSeries::from_pairs(pairs.iter().map(|&(t, v)| (ts(t), v)));
        prop_assert!(s.validate().is_ok());
        prop_assert!(s.len() <= pairs.len());
        // every input timestamp is present
        for &(t, _) in &pairs {
            prop_assert!(s.value_at(ts(t)).is_some());
        }
    }

    #[test]
    fn upsert_sequence_preserves_invariant(ops in prop::collection::vec((-5_000i64..5_000, -1e3f64..1e3), 0..300)) {
        let mut s = TimeSeries::new();
        for &(t, v) in &ops {
            s.upsert(ts(t), v);
        }
        prop_assert!(s.validate().is_ok());
        // last write wins
        if let Some(&(t_last, v_last)) = ops.last() {
            if ops.iter().rev().skip(1).all(|&(t, _)| t != t_last) {
                prop_assert_eq!(s.value_at(ts(t_last)), Some(v_last));
            }
        }
    }

    // ---- store vs naive equivalence ----------------------------------------

    #[test]
    fn tsstore_range_equals_naive(
        pairs in prop::collection::vec((-50_000i64..50_000, -1e3f64..1e3), 1..150),
        q0 in -60_000i64..60_000,
        qlen in 0i64..80_000,
        chunk in 1i64..20_000,
    ) {
        let mut store = TsStore::with_chunk_width(Duration::from_millis(chunk));
        let id = SeriesId::new(0);
        for &(t, v) in &pairs {
            store.insert(id, ts(t), v);
        }
        let naive = TimeSeries::from_pairs(pairs.iter().map(|&(t, v)| (ts(t), v)));
        let iv = Interval::new(ts(q0), ts(q0 + qlen));
        let got = store.range(id, &iv);
        let want = naive.slice(&iv);
        prop_assert_eq!(got, want);
        // aggregates agree too
        let sm = store.summarize(id, &iv);
        let nv = naive.range(&iv);
        let nsm = Summary::of(nv.values);
        prop_assert_eq!(sm.count, nsm.count);
        prop_assert!((sm.sum - nsm.sum).abs() < 1e-6);
        if sm.count > 0 {
            prop_assert_eq!(sm.min, nsm.min);
            prop_assert_eq!(sm.max, nsm.max);
        }
    }

    #[test]
    fn sliding_agg_equals_naive(
        n in 1usize..120,
        width in 1i64..200,
        kind in prop::sample::select(vec![AggKind::Mean, AggKind::Min, AggKind::Max, AggKind::Sum, AggKind::Count]),
    ) {
        // irregular but ordered timestamps
        let s = TimeSeries::from_pairs((0..n).map(|i| {
            (ts((i as i64) * 7 + ((i as i64 * 13) % 5)), ((i * 31) % 17) as f64 - 8.0)
        }));
        let w = Duration::from_millis(width);
        let fast = ops::aggregate::sliding(&s, w, kind);
        prop_assert_eq!(fast.len(), s.len());
        for (i, (t, got)) in fast.iter().enumerate() {
            let lo = t - w;
            let vals: Vec<f64> = s.iter().filter(|(u, _)| *u >= lo && *u <= t).map(|(_, v)| v).collect();
            let want = Summary::of(&vals).get(kind).expect("window holds at least the point itself");
            prop_assert!((got - want).abs() < 1e-9, "idx {} kind {:?}", i, kind);
        }
    }

    // ---- graph invariants -------------------------------------------------

    #[test]
    fn snapshot_monotone_in_validity(seed in 0u64..500) {
        let horizon = Interval::new(ts(0), ts(10_000));
        let g = hygraph::datagen::random::random_graph(20, 60, &["N"], horizon, seed);
        // a snapshot never contains an element invalid at that instant
        for t_ms in [0i64, 2_500, 5_000, 7_500, 9_999] {
            let snap = hygraph::graph::snapshot::snapshot(&g, ts(t_ms));
            for v in snap.vertices() {
                prop_assert!(v.validity.contains(ts(t_ms)));
            }
            for e in snap.edges() {
                prop_assert!(e.validity.contains(ts(t_ms)));
                prop_assert!(snap.contains_vertex(e.src) && snap.contains_vertex(e.dst));
            }
        }
    }

    #[test]
    fn components_count_bounded(seed in 0u64..300) {
        let horizon = Interval::new(ts(0), ts(1_000));
        let g = hygraph::datagen::random::random_graph(30, 40, &["N"], horizon, seed);
        let (assign, n) = hygraph::graph::algorithms::components::connected_components(
            &g,
            hygraph::types::parallel::ExecMode::Auto,
        );
        prop_assert!(n >= 1 && n <= g.vertex_count());
        prop_assert_eq!(assign.len(), g.vertex_count());
        // component ids are dense 0..n
        for &c in assign.values() {
            prop_assert!(c < n);
        }
    }

    // ---- correlation bounds --------------------------------------------------

    #[test]
    fn pearson_bounded(xs in prop::collection::vec(-1e6f64..1e6, 2..100)) {
        let ys: Vec<f64> = xs.iter().map(|x| x * 0.5 + 3.0).collect();
        if let Some(r) = ops::correlate::pearson(&xs, &ys) {
            prop_assert!((-1.0..=1.0).contains(&r));
            prop_assert!(r > 0.999, "affine positive transform must give r≈1, got {}", r);
        }
        let mut zs = xs.clone();
        zs.reverse();
        if let Some(r) = ops::correlate::pearson(&xs, &zs) {
            prop_assert!((-1.0..=1.0).contains(&r));
        }
    }

    // ---- downsampling bounds ----------------------------------------------------

    #[test]
    fn lttb_within_bounds(n in 3usize..300, k in 3usize..100) {
        let s = TimeSeries::generate(ts(0), Duration::from_millis(3), n, |i| ((i * 37) % 23) as f64);
        let d = ops::downsample::lttb(&s, k);
        prop_assert!(d.len() <= n.max(k));
        prop_assert!(d.validate().is_ok());
        if k < n {
            prop_assert_eq!(d.len(), k);
            prop_assert_eq!(d.first(), s.first());
            prop_assert_eq!(d.last(), s.last());
        }
        // downsampled values are a subset of the original values
        for (t, v) in d.iter() {
            prop_assert_eq!(s.value_at(t), Some(v));
        }
    }

    // ---- HyQL parser totality ---------------------------------------------------

    #[test]
    fn parser_never_panics(input in "\\PC{0,80}") {
        // any input: parse must return Ok or Err, never panic
        let _ = hygraph::query_engine::parser::parse(&input);
    }

    #[test]
    fn parser_roundtrips_simple_queries(
        // prefixes chosen so no generated identifier collides with a
        // (case-insensitive) reserved word like IN, AS, MIN, ...
        label in "Lbl[a-z]{0,5}",
        key in "k[a-z]{0,5}",
        threshold in -1000i64..1000,
        limit in 1usize..50,
    ) {
        let q = format!(
            "MATCH (a:{label})-[e:TX]->(b) WHERE a.{key} > {threshold} RETURN a.{key} AS x ORDER BY x LIMIT {limit}"
        );
        let parsed = hygraph::query_engine::parser::parse(&q).expect("well-formed query parses");
        prop_assert_eq!(parsed.limit, Some(limit));
        prop_assert_eq!(parsed.patterns[0].start.labels[0].as_str(), label.as_str());
    }
}

// ---- model-level property tests (non-proptest loops kept deterministic) ----

proptest! {
    #[test]
    fn hygraph_validate_accepts_generated(seed in 0u64..200) {
        let data = hygraph::datagen::fraud::generate(hygraph::datagen::fraud::FraudConfig {
            users: 20,
            merchants: 8,
            hours: 48,
            seed,
            ..Default::default()
        });
        prop_assert!(data.hygraph.validate().is_ok());
    }

    #[test]
    fn kmeans_partitions_everything(k in 1usize..6, seed in 0u64..100) {
        use std::collections::HashMap;
        let mut points = HashMap::new();
        for i in 0..30u64 {
            let x = ((i.wrapping_mul(seed + 1)) % 97) as f64;
            points.insert(VertexId::new(i), vec![x, (x * 1.3) % 11.0]);
        }
        let c = hygraph::analytics::cluster::kmeans(&points, k, 30);
        prop_assert_eq!(c.assignment.len(), 30);
        prop_assert!(c.count <= k);
        for &cid in c.assignment.values() {
            prop_assert!(cid < c.count);
        }
    }
}

// ---- persistence round-trip under arbitrary content -------------------

proptest! {
    #[test]
    fn io_roundtrip_arbitrary_instances(
        n_series in 0usize..4,
        n_pg in 1usize..8,
        n_ts in 0usize..4,
        n_edges in 0usize..10,
        seed in 0u64..1000,
        strings in prop::collection::vec("\\PC{0,12}", 8),
    ) {
        use hygraph::core::binio;
        use hygraph::core::HyGraph;
        let mut hg = HyGraph::new();
        let mut sids = Vec::new();
        for k in 0..n_series {
            let s = hygraph::datagen::random::random_walk(5 + k * 3, 1.0, 50.0, seed + k as u64);
            sids.push(hg.add_univariate_series(&format!("s{k}"), &s));
        }
        let mut vs = Vec::new();
        for k in 0..n_pg {
            let mut props = PropertyMap::new();
            props.set("idx", k as i64);
            props.set("tag", strings[k % strings.len()].as_str());
            if let Some(&sid) = sids.first() {
                props.set("attached", sid);
            }
            vs.push(hg.add_pg_vertex([format!("L{}", k % 3)], props));
        }
        for &sid in sids.iter().take(n_ts) {
            vs.push(hg.add_ts_vertex(["TsV"], sid).expect("series exists"));
        }
        for k in 0..n_edges {
            let a = vs[(seed as usize + k) % vs.len()];
            let b = vs[(seed as usize + 3 * k + 1) % vs.len()];
            let _ = hg.add_pg_edge(a, b, ["E"], PropertyMap::new());
        }
        prop_assume!(hg.validate().is_ok());
        let bytes = binio::to_bytes(&hg);
        let back = binio::from_bytes(&bytes).expect("round-trip decodes");
        prop_assert_eq!(back.vertex_count(), hg.vertex_count());
        prop_assert_eq!(back.edge_count(), hg.edge_count());
        prop_assert_eq!(back.series_count(), hg.series_count());
        // canonical: re-serialisation is identical
        prop_assert_eq!(binio::to_bytes(&back), bytes);
    }
}
