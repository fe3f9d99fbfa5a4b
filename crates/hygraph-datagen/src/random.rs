//! Random graphs and series for property tests and operator benchmarks.

use hygraph_core::{ElementRef, HyGraph};
use hygraph_graph::TemporalGraph;
use hygraph_ts::{MultiSeries, TimeSeries};
use hygraph_types::{props, Duration, Interval, PropertyMap, Timestamp, Value, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A G(n, m)-style random labelled temporal graph: `n` vertices, `m`
/// edges with endpoints chosen uniformly (self-loops allowed), labels
/// drawn from `labels`, and validity intervals sampled inside `horizon`.
pub fn random_graph(
    n: usize,
    m: usize,
    labels: &[&str],
    horizon: Interval,
    seed: u64,
) -> TemporalGraph {
    assert!(n > 0, "need at least one vertex");
    assert!(!labels.is_empty(), "need at least one label");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = TemporalGraph::new();
    let span = horizon.len().millis().max(2);
    let rand_iv = |rng: &mut StdRng| {
        let a = rng.random_range(0..span - 1);
        let b = rng.random_range(a + 1..span);
        Interval::new(
            horizon.start + Duration::from_millis(a),
            horizon.start + Duration::from_millis(b),
        )
    };
    let vs: Vec<VertexId> = (0..n)
        .map(|i| {
            let label = labels[rng.random_range(0..labels.len())];
            let iv = rand_iv(&mut rng);
            g.add_vertex_valid([label], props! {"idx" => i as i64}, iv)
        })
        .collect();
    for _ in 0..m {
        let a = vs[rng.random_range(0..n)];
        let b = vs[rng.random_range(0..n)];
        // edge validity inside the intersection of endpoint validities
        let va = g.vertex(a).expect("exists").validity;
        let vb = g.vertex(b).expect("exists").validity;
        let Some(overlap) = va.intersect(&vb) else {
            continue;
        };
        let w = rng.random_range(0.1..10.0);
        g.add_edge_valid(a, b, ["E"], props! {"w" => w}, overlap)
            .expect("vertices exist");
    }
    g
}

/// A random full-model HyGraph instance exercising every element class
/// of Definition 1: multivariate series, pg- and ts-vertices, pg- and
/// ts-edges, scalar and series-valued properties, and subgraphs with
/// interval-qualified members. Deterministic in `seed`; the result
/// always passes `validate()` — the generator is the input source for
/// the persistence round-trip property tests.
pub fn random_hygraph(
    n_vertices: usize,
    n_edges: usize,
    n_series: usize,
    n_subgraphs: usize,
    seed: u64,
) -> HyGraph {
    assert!(n_vertices > 0, "need at least one vertex");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hg = HyGraph::new();

    // series: 1–3 named columns, 0–19 rows on an irregular time axis
    let mut sids = Vec::with_capacity(n_series);
    for k in 0..n_series {
        let cols = rng.random_range(1..=3usize);
        let names: Vec<String> = (0..cols).map(|c| format!("var{k}_{c}")).collect();
        let mut s = MultiSeries::new(names);
        let len = rng.random_range(0..20usize);
        let mut t = rng.random_range(0..1_000i64);
        for _ in 0..len {
            let row: Vec<f64> = (0..cols).map(|_| rng.random_range(-100.0..100.0)).collect();
            s.push(Timestamp::from_millis(t), &row)
                .expect("increasing times");
            t += rng.random_range(1..10_000i64);
        }
        sids.push(hg.add_series(s));
    }

    // vertices: ~1 in 4 is a ts-vertex when series exist; a fraction of
    // pg-vertices get a bounded validity interval
    let horizon = 10_000_000i64;
    let mut vertices = Vec::with_capacity(n_vertices);
    let mut all_valid = Vec::new(); // candidates for Interval::ALL edges
    for k in 0..n_vertices {
        if !sids.is_empty() && rng.random_range(0..4) == 0 {
            let sid = sids[rng.random_range(0..sids.len())];
            let v = hg
                .add_ts_vertex([format!("Ts{}", k % 3)], sid)
                .expect("series exists");
            vertices.push(v);
            all_valid.push(v);
        } else {
            let mut p = PropertyMap::new();
            p.set("idx", Value::Int(k as i64));
            if rng.random_range(0..3) == 0 {
                p.set("score", Value::Float(rng.random_range(-1.0..1.0)));
            }
            if rng.random_range(0..3) == 0 {
                p.set("tag", Value::Str(format!("t{}", rng.random_range(0..50))));
            }
            if let Some(&sid) = sids.first() {
                if rng.random_range(0..4) == 0 {
                    p.set("attached", sid); // series-valued property
                }
            }
            let validity = if rng.random_range(0..3) == 0 {
                let a = rng.random_range(0..horizon - 1);
                let b = rng.random_range(a + 1..horizon);
                Interval::new(Timestamp::from_millis(a), Timestamp::from_millis(b))
            } else {
                Interval::ALL
            };
            let v = hg.add_pg_vertex_valid([format!("L{}", k % 4)], p, validity);
            vertices.push(v);
            if validity == Interval::ALL {
                all_valid.push(v);
            }
        }
    }

    // edges: ts-edges only between always-valid endpoints (their
    // validity is Interval::ALL); pg-edges inside the endpoint overlap
    for k in 0..n_edges {
        if !sids.is_empty() && all_valid.len() >= 2 && rng.random_range(0..4) == 0 {
            let a = all_valid[rng.random_range(0..all_valid.len())];
            let b = all_valid[rng.random_range(0..all_valid.len())];
            let sid = sids[rng.random_range(0..sids.len())];
            hg.add_ts_edge(a, b, ["FLOW"], sid)
                .expect("valid endpoints");
        } else {
            let a = vertices[rng.random_range(0..vertices.len())];
            let b = vertices[rng.random_range(0..vertices.len())];
            let va = hg.topology().vertex(a).expect("exists").validity;
            let vb = hg.topology().vertex(b).expect("exists").validity;
            let Some(overlap) = va.intersect(&vb) else {
                continue;
            };
            let mut p = PropertyMap::new();
            p.set("w", Value::Float(rng.random_range(0.1..10.0)));
            hg.add_pg_edge_valid(a, b, [format!("E{}", k % 2)], p, overlap)
                .expect("endpoints exist");
        }
    }

    // subgraphs with interval-qualified members
    for k in 0..n_subgraphs {
        let mut p = PropertyMap::new();
        p.set("rank", Value::Int(k as i64));
        let sg = hg.create_subgraph([format!("S{k}")], p, Interval::ALL);
        for _ in 0..rng.random_range(0..5usize) {
            let v = vertices[rng.random_range(0..vertices.len())];
            let a = rng.random_range(0..horizon - 1);
            let b = rng.random_range(a + 1..horizon);
            let during = Interval::new(Timestamp::from_millis(a), Timestamp::from_millis(b));
            // membership must sit inside the member's own validity
            let validity = hg.topology().vertex(v).expect("exists").validity;
            let Some(during) = during.intersect(&validity) else {
                continue;
            };
            hg.add_subgraph_vertex(sg, v, during)
                .expect("vertex exists");
        }
    }

    // supplementary series-valued properties via set_property
    for &sid in sids.iter().take(2) {
        if let Some(&v) = vertices.first() {
            if hg.vertex_kind(v).expect("exists") == hygraph_core::ElementKind::Pg {
                hg.set_property(ElementRef::Vertex(v), format!("extra{}", sid.raw()), sid)
                    .expect("pg vertex");
            }
        }
    }

    hg.validate().expect("generator emits valid instances");
    hg
}

/// A bounded random walk: `x_{k+1} = x_k + N(0, step)` approximated with
/// a uniform increment, reflected at `±bound`.
pub fn random_walk(n: usize, step: f64, bound: f64, seed: u64) -> TimeSeries {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = 0.0f64;
    TimeSeries::generate(Timestamp::ZERO, Duration::from_secs(1), n, |_| {
        x += rng.random_range(-step..step);
        if x > bound {
            x = 2.0 * bound - x;
        }
        if x < -bound {
            x = -2.0 * bound - x;
        }
        x
    })
}

/// A seasonal series: `amplitude·sin(2πk/period) + trend·k + noise`.
pub fn seasonal(
    n: usize,
    period: usize,
    amplitude: f64,
    trend: f64,
    noise: f64,
    seed: u64,
) -> TimeSeries {
    assert!(period > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    TimeSeries::generate(Timestamp::ZERO, Duration::from_secs(60), n, |k| {
        amplitude * ((k % period) as f64 / period as f64 * std::f64::consts::TAU).sin()
            + trend * k as f64
            + rng.random_range(-noise..noise)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_respects_counts_and_integrity() {
        let horizon = Interval::new(Timestamp::ZERO, Timestamp::from_millis(10_000));
        let g = random_graph(50, 200, &["A", "B"], horizon, 9);
        assert_eq!(g.vertex_count(), 50);
        assert!(g.edge_count() <= 200);
        assert!(
            g.edge_count() > 60,
            "a solid majority of edges should materialise"
        );
        assert!(g.validate().is_ok(), "edge validity within endpoints");
    }

    #[test]
    fn graph_deterministic() {
        let horizon = Interval::new(Timestamp::ZERO, Timestamp::from_millis(1_000));
        let a = random_graph(20, 50, &["X"], horizon, 5);
        let b = random_graph(20, 50, &["X"], horizon, 5);
        assert_eq!(a.edge_count(), b.edge_count());
    }

    #[test]
    fn hygraph_generator_is_valid_and_deterministic() {
        let a = random_hygraph(20, 30, 4, 2, 17);
        let b = random_hygraph(20, 30, 4, 2, 17);
        assert_eq!(a.vertex_count(), 20);
        assert!(a.validate().is_ok());
        assert_eq!(a.vertex_count(), b.vertex_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.series_count(), b.series_count());
        // same seed → identical serialisation; different seed → diverges
        let a_bytes = hygraph_core::binio::to_bytes(&a);
        assert_eq!(a_bytes, hygraph_core::binio::to_bytes(&b));
        let c = random_hygraph(20, 30, 4, 2, 18);
        assert_ne!(a_bytes, hygraph_core::binio::to_bytes(&c));
    }

    #[test]
    fn hygraph_generator_covers_element_classes() {
        use hygraph_core::ElementKind;
        let hg = random_hygraph(60, 80, 6, 3, 5);
        let ts_v = hg.vertices_of_kind(ElementKind::Ts).count();
        let pg_v = hg.vertices_of_kind(ElementKind::Pg).count();
        assert!(ts_v > 0, "ts-vertices generated");
        assert!(pg_v > 0, "pg-vertices generated");
        assert!(hg.series_count() >= 6);
        assert_eq!(hg.subgraphs().count(), 3);
    }

    #[test]
    fn walk_bounded_and_deterministic() {
        let w = random_walk(5_000, 1.0, 50.0, 3);
        assert_eq!(w.len(), 5_000);
        for (_, v) in w.iter() {
            assert!(v.abs() <= 50.0 + 1.0, "reflected at the bound");
        }
        assert_eq!(
            random_walk(100, 1.0, 50.0, 3),
            random_walk(100, 1.0, 50.0, 3)
        );
    }

    #[test]
    fn seasonal_has_period() {
        let s = seasonal(500, 50, 10.0, 0.0, 0.1, 11);
        let r = hygraph_ts::ops::stats::autocorrelation(s.values(), 50).unwrap();
        // biased ACF estimator caps at (n-k)/n = 0.9 for a perfect period
        assert!(r > 0.85, "period-50 autocorrelation, got {r}");
    }
}
