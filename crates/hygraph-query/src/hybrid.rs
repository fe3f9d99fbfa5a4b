//! The roadmap's four hybrid operators (paper §6, "Querying HyGraph").
//!
//! * **Q1 [`hybrid_match`]** — "matches specific temporal patterns with
//!   corresponding structural patterns": a structural [`Pattern`] plus a
//!   subsequence-shape constraint on the series of one bound variable.
//! * **Q2 [`hybrid_aggregate`]** — "summarises and aggregates graph
//!   elements and adjusts the frequency of associated time series":
//!   label-grouping of the topology with per-group downsampled series.
//! * **Q3 [`correlation_reachability`]** — "measures the correlation
//!   between time-series data of vertices to enhance reachability":
//!   reachability where an edge is traversable only when its endpoint
//!   series correlate above a threshold.
//! * **Q4 [`segmentation_snapshots`]** — "creates graph snapshots at
//!   significant time intervals identified through time series
//!   segmentation": PELT changepoints on a driver series become snapshot
//!   instants.

use hygraph_core::{ElementKind, ElementRef, HyGraph};
use hygraph_graph::pattern::Binding;
use hygraph_graph::{snapshot, Pattern, TemporalGraph};
use hygraph_metrics::{OpClass, OpTimer};
use hygraph_ts::ops::{correlate, downsample, segment, subsequence};
use hygraph_ts::TimeSeries;
use hygraph_types::parallel::{should_parallelize, ExecMode};
use hygraph_types::{Duration, Result, SeriesId, Timestamp, VertexId};
use rayon::prelude::*;
use std::collections::HashMap;

/// The first univariate series associated with a vertex: δ for a
/// ts-vertex, else the first series-valued property of a pg-vertex.
pub fn vertex_series(hg: &HyGraph, v: VertexId) -> Option<TimeSeries> {
    let sid = vertex_series_id(hg, v)?;
    let ms = hg.series(sid).ok()?;
    let name = ms.names().first()?.clone();
    ms.to_univariate(&name)
}

/// The series id associated with a vertex (see [`vertex_series`]).
pub fn vertex_series_id(hg: &HyGraph, v: VertexId) -> Option<SeriesId> {
    match hg.vertex_kind(v).ok()? {
        ElementKind::Ts => hg.delta_id(ElementRef::Vertex(v)).ok(),
        ElementKind::Pg => {
            let props = hg.props(ElementRef::Vertex(v)).ok()?;
            props.series_entries().next().map(|(_, sid)| sid)
        }
    }
}

/// A hybrid structural + temporal pattern (operator Q1).
pub struct HybridMatchSpec {
    /// The structural pattern.
    pub pattern: Pattern,
    /// The bound vertex variable whose series must contain the shape.
    pub series_var: String,
    /// The temporal shape to find (z-normalised matching).
    pub shape: Vec<f64>,
    /// Maximum z-normalised Euclidean distance for a shape hit.
    pub max_dist: f64,
}

/// One hybrid match: the structural binding plus the best temporal hit.
pub struct HybridMatch {
    /// Structural variable bindings.
    pub binding: Binding,
    /// Offset/time/distance of the best shape occurrence.
    pub shape_match: subsequence::Match,
}

/// Operator Q1: structural matches whose `series_var` series contains
/// the spec's temporal shape. The per-binding shape search is pure, so
/// bindings fan out across threads; results keep the pattern's
/// enumeration order either way.
pub fn hybrid_match(hg: &HyGraph, spec: &HybridMatchSpec, mode: ExecMode) -> Vec<HybridMatch> {
    let _t = OpTimer::new(OpClass::Q1Match);
    let bindings = spec.pattern.find_all(hg.topology());
    let eval_one = |binding: &Binding| -> Option<HybridMatch> {
        let &v = binding.vertices.get(&spec.series_var)?;
        let series = vertex_series(hg, v)?;
        let m = subsequence::best_match(&series, &spec.shape)?;
        (m.distance <= spec.max_dist).then(|| HybridMatch {
            binding: binding.clone(),
            shape_match: m,
        })
    };
    let hits: Vec<Option<HybridMatch>> = if should_parallelize(mode, bindings.len()) {
        bindings.par_iter().map(eval_one).collect()
    } else {
        bindings.iter().map(eval_one).collect()
    };
    hits.into_iter().flatten().collect()
}

/// Result of operator Q2: the label-grouped summary graph plus one
/// downsampled aggregate series per group.
pub struct HybridAggregate {
    /// The structural grouping (super-vertices/super-edges).
    pub grouped: hygraph_graph::aggregate::GroupedGraph,
    /// Per group key: the mean of member series, downsampled to `bucket`.
    pub group_series: HashMap<String, TimeSeries>,
}

/// Operator Q2: groups vertices by label and produces one
/// `bucket`-granularity mean series per group, averaging over every
/// member's associated series. Per-vertex series resolution and
/// downsampling fan out; the accumulation into label groups stays
/// sequential in vertex-id order, so the float sums are combined in
/// exactly the same order as the sequential path.
pub fn hybrid_aggregate(hg: &HyGraph, bucket: Duration, mode: ExecMode) -> HybridAggregate {
    let _t = OpTimer::new(OpClass::Q2Aggregate);
    let g = hg.topology();
    let grouped =
        hygraph_graph::aggregate::group_by(g, hygraph_graph::aggregate::GroupBy::Labels, &[]);
    let ids: Vec<VertexId> = g.vertex_ids().collect();
    let down_one = |&v: &VertexId| -> Option<(VertexId, TimeSeries)> {
        let series = vertex_series(hg, v)?;
        Some((v, downsample::bucket_mean(&series, bucket)))
    };
    let downs: Vec<Option<(VertexId, TimeSeries)>> = if should_parallelize(mode, ids.len()) {
        ids.par_iter().map(down_one).collect()
    } else {
        ids.iter().map(down_one).collect()
    };
    let mut acc: HashMap<String, (TimeSeries, TimeSeries)> = HashMap::new(); // (sum, count)
    for item in downs {
        let Some((v, down)) = item else {
            continue;
        };
        let Some(&group_v) = grouped.membership.get(&v) else {
            continue;
        };
        let key = grouped.group_keys[&group_v].clone();
        let entry = acc
            .entry(key)
            .or_insert_with(|| (TimeSeries::new(), TimeSeries::new()));
        for (t, x) in down.iter() {
            let cur = entry.0.value_at(t).unwrap_or(0.0);
            entry.0.upsert(t, cur + x);
            let n = entry.1.value_at(t).unwrap_or(0.0);
            entry.1.upsert(t, n + 1.0);
        }
    }
    let group_series = acc
        .into_iter()
        .map(|(k, (sum, count))| {
            let mean = TimeSeries::from_pairs(
                sum.iter()
                    .zip(count.iter())
                    .map(|((t, s), (_, n))| (t, s / n)),
            );
            (k, mean)
        })
        .collect();
    HybridAggregate {
        grouped,
        group_series,
    }
}

/// Operator Q3: vertices reachable from `from` through edges whose
/// endpoint series correlate at least `min_corr` (Pearson after linear
/// alignment to `step`). Returns `(vertex, correlation-with-predecessor)`
/// pairs; the start maps to correlation 1.
///
/// The traversal is level-synchronous BFS: each wave's candidate edges
/// are scored (series resolution + Pearson) in parallel, then admitted
/// sequentially in (frontier-order, neighbor-order) — the exact visit
/// order of the sequential FIFO queue, so a vertex reachable through
/// several same-level predecessors records the same first-predecessor
/// correlation in both modes.
pub fn correlation_reachability(
    hg: &HyGraph,
    from: VertexId,
    step: Duration,
    min_corr: f64,
    mode: ExecMode,
) -> Vec<(VertexId, f64)> {
    let _t = OpTimer::new(OpClass::Q3Traverse);
    let g = hg.topology();
    let mut out: Vec<(VertexId, f64)> = Vec::new();
    let Some(start_series) = vertex_series(hg, from) else {
        return out;
    };
    let mut seen: HashMap<VertexId, f64> = HashMap::new();
    seen.insert(from, 1.0);
    out.push((from, 1.0));
    let mut frontier: Vec<(VertexId, TimeSeries)> = vec![(from, start_series)];
    while !frontier.is_empty() {
        // candidate edges out of this wave, in FIFO visit order; vertices
        // already admitted before the wave are pruned up front (scoring
        // them would be wasted work), intra-wave duplicates are resolved
        // by the sequential admission pass below
        let candidates: Vec<(usize, VertexId)> = frontier
            .iter()
            .enumerate()
            .flat_map(|(i, (v, _))| {
                g.neighbors(*v)
                    .filter(|(_, n)| !seen.contains_key(n))
                    .map(move |(_, n)| (i, n))
            })
            .collect();
        let score_one = |&(i, n): &(usize, VertexId)| -> Option<(f64, TimeSeries)> {
            let n_series = vertex_series(hg, n)?;
            let r = correlate::series_correlation(&frontier[i].1, &n_series, step)?;
            Some((r, n_series))
        };
        let scored: Vec<Option<(f64, TimeSeries)>> = if should_parallelize(mode, candidates.len()) {
            candidates.par_iter().map(score_one).collect()
        } else {
            candidates.iter().map(score_one).collect()
        };
        let mut next: Vec<(VertexId, TimeSeries)> = Vec::new();
        for (&(_, n), hit) in candidates.iter().zip(scored) {
            let Some((r, n_series)) = hit else {
                continue;
            };
            if r >= min_corr && !seen.contains_key(&n) {
                seen.insert(n, r);
                out.push((n, r));
                next.push((n, n_series));
            }
        }
        frontier = next;
    }
    out.sort_by_key(|&(v, _)| v);
    out
}

/// Operator Q4: segments `driver` (PELT, optional penalty override) and
/// snapshots the topology at each segment boundary. Returns
/// `(boundary, snapshot)` pairs.
pub fn segmentation_snapshots(
    hg: &HyGraph,
    driver: &TimeSeries,
    penalty: Option<f64>,
) -> Result<Vec<(Timestamp, TemporalGraph)>> {
    let _t = OpTimer::new(OpClass::Q4Snapshot);
    let segments = segment::pelt(driver, penalty);
    let boundaries = segment::boundaries(&segments);
    Ok(boundaries
        .into_iter()
        .map(|t| (t, snapshot::snapshot(hg.topology(), t)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_graph::Direction;
    use hygraph_types::{props, Interval};

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn bump_series(offset: usize) -> TimeSeries {
        TimeSeries::generate(ts(0), Duration::from_millis(1), 200, move |i| {
            let x = i as f64 - offset as f64;
            (-(x * x) / 50.0).exp() * 10.0
        })
    }

    #[test]
    fn q1_hybrid_match_filters_by_shape() {
        let mut hg = HyGraph::new();
        let bumped = hg.add_univariate_series("a", &bump_series(100));
        let flat = hg.add_univariate_series(
            "b",
            &TimeSeries::generate(ts(0), Duration::from_millis(1), 200, |i| {
                // structured non-repeating signal with no bump
                ((i as f64) * 0.7).sin() + (i as f64) * 0.05
            }),
        );
        let owner1 = hg.add_pg_vertex(["User"], props! {});
        let owner2 = hg.add_pg_vertex(["User"], props! {});
        let c1 = hg.add_ts_vertex(["Card"], bumped).unwrap();
        let c2 = hg.add_ts_vertex(["Card"], flat).unwrap();
        hg.add_pg_edge(owner1, c1, ["USES"], props! {}).unwrap();
        hg.add_pg_edge(owner2, c2, ["USES"], props! {}).unwrap();

        let mut pattern = Pattern::new();
        let u = pattern.vertex("u", ["User"]);
        let c = pattern.vertex("c", ["Card"]);
        pattern.edge(None, u, c, ["USES"], Direction::Out);
        // the query shape: a gaussian bump
        let shape: Vec<f64> = (0..40)
            .map(|i| {
                let x = i as f64 - 20.0;
                (-(x * x) / 50.0).exp()
            })
            .collect();
        let spec = HybridMatchSpec {
            pattern,
            series_var: "c".into(),
            shape,
            max_dist: 1.0,
        };
        let matches = hybrid_match(&hg, &spec, ExecMode::Auto);
        assert_eq!(matches.len(), 1, "only the bumped card matches the shape");
        assert_eq!(matches[0].binding.vertices["c"], c1);
        assert!((60..=120).contains(&matches[0].shape_match.offset));
    }

    #[test]
    fn q2_hybrid_aggregate_groups_and_downsamples() {
        let mut hg = HyGraph::new();
        for i in 0..4 {
            let s = TimeSeries::generate(ts(0), Duration::from_millis(10), 100, move |k| {
                (i + 1) as f64 * 10.0 + k as f64 * 0.0
            });
            let sid = hg.add_univariate_series("load", &s);
            let label = if i < 2 { "Hot" } else { "Cold" };
            hg.add_ts_vertex([label], sid).unwrap();
        }
        let agg = hybrid_aggregate(&hg, Duration::from_millis(100), ExecMode::Auto);
        assert_eq!(agg.grouped.summary.vertex_count(), 2);
        let hot = &agg.group_series["Hot"];
        let cold = &agg.group_series["Cold"];
        // Hot members have constant 10, 20 -> mean 15; Cold 30, 40 -> 35
        assert!(hot.values().iter().all(|&v| (v - 15.0).abs() < 1e-9));
        assert!(cold.values().iter().all(|&v| (v - 35.0).abs() < 1e-9));
        assert_eq!(hot.len(), 10, "downsampled 100 points / bucket 10");
    }

    #[test]
    fn q3_correlation_reachability_blocks_uncorrelated() {
        let mut hg = HyGraph::new();
        let base = |i: usize| ((i as f64) * 0.2).sin() * 5.0;
        let s1 = TimeSeries::generate(ts(0), Duration::from_millis(10), 200, base);
        let s2 = TimeSeries::generate(ts(0), Duration::from_millis(10), 200, |i| base(i) * 3.0);
        let anti = TimeSeries::generate(ts(0), Duration::from_millis(10), 200, |i| -base(i));
        let sid_a = hg.add_univariate_series("a", &s1);
        let sid_b = hg.add_univariate_series("b", &s2);
        let sid_c = hg.add_univariate_series("c", &anti);
        let a = hg.add_ts_vertex(["S"], sid_a).unwrap();
        let b = hg.add_ts_vertex(["S"], sid_b).unwrap();
        let c = hg.add_ts_vertex(["S"], sid_c).unwrap();
        hg.add_pg_edge(a, b, ["E"], props! {}).unwrap();
        hg.add_pg_edge(b, c, ["E"], props! {}).unwrap();
        let reach =
            correlation_reachability(&hg, a, Duration::from_millis(10), 0.8, ExecMode::Auto);
        let ids: Vec<VertexId> = reach.iter().map(|&(v, _)| v).collect();
        assert!(ids.contains(&a) && ids.contains(&b));
        assert!(!ids.contains(&c), "anti-correlated vertex unreachable");
        // with a permissive threshold everything connects
        let reach =
            correlation_reachability(&hg, a, Duration::from_millis(10), -1.0, ExecMode::Auto);
        assert_eq!(reach.len(), 3);
    }

    #[test]
    fn q3_start_without_series_is_empty() {
        let mut hg = HyGraph::new();
        let a = hg.add_pg_vertex(["X"], props! {});
        assert!(
            correlation_reachability(&hg, a, Duration::from_millis(1), 0.5, ExecMode::Auto)
                .is_empty()
        );
    }

    #[test]
    fn q4_segmentation_snapshots_track_regimes() {
        let mut hg = HyGraph::new();
        // vertex alive only in the middle regime
        let a = hg.add_pg_vertex(["N"], props! {});
        let b = hg.add_pg_vertex_valid(["N"], props! {}, Interval::new(ts(30), ts(60)));
        let _ = (a, b);
        // driver series with mean shifts at t=30 and t=60
        let driver = TimeSeries::generate(ts(0), Duration::from_millis(1), 90, |i| {
            if i < 30 {
                0.0
            } else if i < 60 {
                10.0
            } else {
                -5.0
            }
        });
        let snaps = segmentation_snapshots(&hg, &driver, Some(5.0)).unwrap();
        assert_eq!(snaps.len(), 3);
        assert_eq!(snaps[0].0, ts(0));
        assert_eq!(snaps[1].0, ts(30));
        assert_eq!(snaps[2].0, ts(60));
        assert_eq!(snaps[0].1.vertex_count(), 1, "b not yet alive");
        assert_eq!(snaps[1].1.vertex_count(), 2, "b alive in the middle regime");
        assert_eq!(snaps[2].1.vertex_count(), 1, "b gone again");
    }

    /// Tentpole invariant: every hybrid operator's parallel path is
    /// bit-identical to its sequential path on a graph large enough to
    /// exercise real fan-out (multi-binding patterns, multi-wave BFS
    /// with same-level shared successors).
    #[test]
    fn hybrid_operators_parallel_match_sequential_bitwise() {
        let mut hg = HyGraph::new();
        let mut vs = Vec::new();
        for i in 0..30usize {
            let s = TimeSeries::generate(ts(0), Duration::from_millis(5), 120, move |k| {
                ((k as f64) * 0.11 + i as f64 * 0.37).sin() * (1.0 + (i % 5) as f64)
                    + if i % 4 == 0 { k as f64 * 0.01 } else { 0.0 }
            });
            let sid = hg.add_univariate_series("s", &s);
            let label = if i % 3 == 0 { "A" } else { "B" };
            vs.push(hg.add_ts_vertex([label], sid).unwrap());
        }
        for i in 0..30 {
            hg.add_pg_edge(vs[i], vs[(i + 1) % 30], ["E"], props! {})
                .unwrap();
            if i % 5 == 0 {
                // chords create diamonds: same-level shared successors
                hg.add_pg_edge(vs[i], vs[(i + 7) % 30], ["E"], props! {})
                    .unwrap();
            }
        }

        // Q1: loose threshold so several bindings survive
        let mut pattern = Pattern::new();
        let a = pattern.vertex("a", ["A"]);
        let b = pattern.vertex("b", ["B"]);
        pattern.edge(None, a, b, ["E"], Direction::Out);
        let shape: Vec<f64> = (0..20).map(|k| ((k as f64) * 0.11).sin()).collect();
        let spec = HybridMatchSpec {
            pattern,
            series_var: "b".into(),
            shape,
            max_dist: 3.0,
        };
        let m_seq = hybrid_match(&hg, &spec, ExecMode::Sequential);
        let m_par = hybrid_match(&hg, &spec, ExecMode::Parallel);
        assert!(!m_seq.is_empty(), "fixture must produce Q1 matches");
        assert_eq!(m_seq.len(), m_par.len());
        for (s, p) in m_seq.iter().zip(&m_par) {
            assert_eq!(s.binding.vertices, p.binding.vertices);
            assert_eq!(s.shape_match.offset, p.shape_match.offset);
            assert_eq!(
                s.shape_match.distance.to_bits(),
                p.shape_match.distance.to_bits()
            );
        }

        // Q2: label-group mean series
        let g_seq = hybrid_aggregate(&hg, Duration::from_millis(50), ExecMode::Sequential);
        let g_par = hybrid_aggregate(&hg, Duration::from_millis(50), ExecMode::Parallel);
        assert_eq!(
            g_seq.group_series.len(),
            g_par.group_series.len(),
            "same group keys"
        );
        for (key, s) in &g_seq.group_series {
            let p = &g_par.group_series[key];
            assert_eq!(s.len(), p.len());
            for ((ts_s, x_s), (ts_p, x_p)) in s.iter().zip(p.iter()) {
                assert_eq!(ts_s, ts_p);
                assert_eq!(x_s.to_bits(), x_p.to_bits());
            }
        }

        // Q3: multi-wave BFS with diamond joins
        let r_seq = correlation_reachability(
            &hg,
            vs[0],
            Duration::from_millis(5),
            0.2,
            ExecMode::Sequential,
        );
        let r_par = correlation_reachability(
            &hg,
            vs[0],
            Duration::from_millis(5),
            0.2,
            ExecMode::Parallel,
        );
        assert!(r_seq.len() > 2, "fixture must reach beyond the start");
        assert_eq!(r_seq.len(), r_par.len());
        for ((v_s, c_s), (v_p, c_p)) in r_seq.iter().zip(&r_par) {
            assert_eq!(v_s, v_p);
            assert_eq!(c_s.to_bits(), c_p.to_bits());
        }
    }

    #[test]
    fn vertex_series_resolution() {
        let mut hg = HyGraph::new();
        let s = TimeSeries::generate(ts(0), Duration::from_millis(1), 5, |i| i as f64);
        let sid = hg.add_univariate_series("x", &s);
        let tsv = hg.add_ts_vertex(["T"], sid).unwrap();
        let pgv = hg.add_pg_vertex(["P"], props! {});
        hg.set_property(ElementRef::Vertex(pgv), "metric", sid)
            .unwrap();
        let bare = hg.add_pg_vertex(["P"], props! {});
        assert_eq!(vertex_series(&hg, tsv).unwrap().len(), 5);
        assert_eq!(vertex_series(&hg, pgv).unwrap().len(), 5);
        assert!(vertex_series(&hg, bare).is_none());
    }
}
