//! `HyGraphTo<X>`: extracting original-format views from a HyGraph.
//!
//! * [`to_temporal_graph`] — the graph view, with a configurable
//!   projection of ts-elements;
//! * [`extract_series`] — the series view;
//! * [`pattern_value_series`] — arrow ⑦ of Figure 3: a graph pattern
//!   query whose matched property values, ordered by element validity
//!   start, *are* a time series;
//! * [`edges_to_series`] — the paper's super-edge transform: aggregate
//!   edges between vertex groups into an edge-activity time series.

use crate::model::{ElementKind, HyGraph};
use hygraph_graph::aggregate::{self, GroupBy};
use hygraph_graph::{Pattern, TemporalGraph};
use hygraph_ts::{MultiSeries, TimeSeries};
use hygraph_types::{Duration, SeriesId, Timestamp, Value};

/// How ts-elements are projected into the extracted graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TsProjection {
    /// Drop ts-vertices and ts-edges: the pure pg view (lossless inverse
    /// of `graph_to_hygraph`).
    Exclude,
    /// Keep ts-elements as plain graph elements; each gets a
    /// `__series` property recording its δ series id and summary stats
    /// (`__mean`, `__count`) so downstream graph tools see *something*.
    Summarize,
}

/// Extracts a [`TemporalGraph`] view.
pub fn to_temporal_graph(hg: &HyGraph, projection: TsProjection) -> TemporalGraph {
    let g = hg.topology();
    let mut out = TemporalGraph::new();
    // map old ids -> new ids (ts-exclusion makes ids non-dense)
    let mut vmap = std::collections::HashMap::new();
    for v in g.vertices() {
        let kind = hg.vertex_kind(v.id).expect("vertex exists");
        match (kind, projection) {
            (ElementKind::Pg, _) => {
                let nid = out.add_vertex_valid(v.labels.clone(), v.props.clone(), v.validity);
                vmap.insert(v.id, nid);
            }
            (ElementKind::Ts, TsProjection::Exclude) => {}
            (ElementKind::Ts, TsProjection::Summarize) => {
                let mut props = v.props.clone();
                let sid = hg
                    .delta_id(crate::model::ElementRef::Vertex(v.id))
                    .expect("ts vertex has series");
                annotate_summary(&mut props, sid, hg);
                let nid = out.add_vertex_valid(v.labels.clone(), props, v.validity);
                vmap.insert(v.id, nid);
            }
        }
    }
    for e in g.edges() {
        let kind = hg.edge_kind(e.id).expect("edge exists");
        let (Some(&src), Some(&dst)) = (vmap.get(&e.src), vmap.get(&e.dst)) else {
            continue;
        };
        match (kind, projection) {
            (ElementKind::Pg, _) => {
                out.add_edge_valid(src, dst, e.labels.clone(), e.props.clone(), e.validity)
                    .expect("endpoints mapped");
            }
            (ElementKind::Ts, TsProjection::Exclude) => {}
            (ElementKind::Ts, TsProjection::Summarize) => {
                let mut props = e.props.clone();
                let sid = hg
                    .delta_id(crate::model::ElementRef::Edge(e.id))
                    .expect("ts edge has series");
                annotate_summary(&mut props, sid, hg);
                out.add_edge_valid(src, dst, e.labels.clone(), props, e.validity)
                    .expect("endpoints mapped");
            }
        }
    }
    out
}

fn annotate_summary(props: &mut hygraph_types::PropertyMap, sid: SeriesId, hg: &HyGraph) {
    props.set("__series", Value::Int(sid.raw() as i64));
    if let Ok(s) = hg.series(sid) {
        props.set("__count", Value::Int(s.len() as i64));
        if let Some(col) = s.column(0) {
            if let Some(m) = hygraph_ts::ops::stats::mean(col) {
                props.set("__mean", Value::Float(m));
            }
        }
    }
}

/// Extracts every registered series, in id order.
pub fn extract_series(hg: &HyGraph) -> Vec<(SeriesId, MultiSeries)> {
    hg.all_series().map(|(id, s)| (id, s.clone())).collect()
}

/// Arrow ⑦: runs `pattern` against the HyGraph topology and emits the
/// static numeric property `key` of the element bound to `var`, ordered
/// by that element's validity start — "simple pattern-matching queries
/// returning property values … as a series of values".
///
/// Matches whose bound element lacks the property, is non-numeric, or
/// has an unbounded validity start are skipped.
pub fn pattern_value_series(hg: &HyGraph, pattern: &Pattern, var: &str, key: &str) -> TimeSeries {
    let g = hg.topology();
    let mut pairs: Vec<(Timestamp, f64)> = Vec::new();
    pattern.find(g, |binding| {
        // var may bind a vertex or an edge
        if let Some(&v) = binding.vertices.get(var) {
            if let Ok(data) = g.vertex(v) {
                if data.validity.start != Timestamp::MIN {
                    if let Some(x) = data.props.static_value(key).and_then(Value::as_f64) {
                        pairs.push((data.validity.start, x));
                    }
                }
            }
        } else if let Some(&e) = binding.edges.get(var) {
            if let Ok(data) = g.edge(e) {
                if data.validity.start != Timestamp::MIN {
                    if let Some(x) = data.props.static_value(key).and_then(Value::as_f64) {
                        pairs.push((data.validity.start, x));
                    }
                }
            }
        }
        true
    });
    TimeSeries::from_pairs(pairs)
}

/// The paper's super-edge transform: groups the pg-projection of the
/// HyGraph by label, then converts the edges between the two named label
/// groups into an edge-count time series with `bucket` resolution.
///
/// Returns `None` when either group does not exist.
pub fn edges_to_series(
    hg: &HyGraph,
    from_label_group: &str,
    to_label_group: &str,
    bucket: Duration,
) -> Option<TimeSeries> {
    let g = to_temporal_graph(hg, TsProjection::Exclude);
    let grouped = aggregate::group_by(&g, GroupBy::Labels, &[]);
    let find = |key: &str| {
        grouped
            .group_keys
            .iter()
            .find(|(_, k)| k.as_str() == key)
            .map(|(&v, _)| v)
    };
    let fg = find(from_label_group)?;
    let tg = find(to_label_group)?;
    Some(aggregate::edge_time_series(&g, &grouped, fg, tg, bucket))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interfaces::import::graph_to_hygraph;
    use crate::model::ElementRef;
    use hygraph_graph::Direction;
    use hygraph_types::{props, Interval};

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn sample_series() -> TimeSeries {
        TimeSeries::from_pairs([(ts(0), 1.0), (ts(10), 3.0)])
    }

    #[test]
    fn roundtrip_graph_is_lossless() {
        // R1 expressiveness: TPG -> HGM -> TPG preserves everything
        let mut g = TemporalGraph::new();
        let a = g.add_vertex_valid(
            ["User"],
            props! {"name" => "a"},
            Interval::new(ts(0), ts(50)),
        );
        let b = g.add_vertex(["Merchant"], props! {"city" => "lyon"});
        g.add_edge_valid(
            a,
            b,
            ["TX"],
            props! {"amount" => 7.0},
            Interval::new(ts(5), ts(40)),
        )
        .unwrap();
        let hg = graph_to_hygraph(&g);
        let back = to_temporal_graph(&hg, TsProjection::Exclude);
        assert_eq!(back.vertex_count(), g.vertex_count());
        assert_eq!(back.edge_count(), g.edge_count());
        let va = back.vertex(a).unwrap();
        assert_eq!(va.labels, g.vertex(a).unwrap().labels);
        assert_eq!(va.props, g.vertex(a).unwrap().props);
        assert_eq!(va.validity, g.vertex(a).unwrap().validity);
        let e_orig = g.edges().next().unwrap();
        let e_back = back.edges().next().unwrap();
        assert_eq!(e_back.props, e_orig.props);
        assert_eq!(e_back.validity, e_orig.validity);
    }

    #[test]
    fn roundtrip_series_is_lossless() {
        // R1: TS -> HGM -> TS preserves observations
        let s = sample_series();
        let mut hg = HyGraph::new();
        let sid = hg.add_univariate_series("x", &s);
        let extracted = extract_series(&hg);
        assert_eq!(extracted.len(), 1);
        assert_eq!(extracted[0].0, sid);
        assert_eq!(extracted[0].1.to_univariate("x").unwrap(), s);
    }

    #[test]
    fn exclude_projection_drops_ts_elements() {
        let mut hg = HyGraph::new();
        let sid = hg.add_univariate_series("b", &sample_series());
        let user = hg.add_pg_vertex(["User"], props! {});
        let card = hg.add_ts_vertex(["Card"], sid).unwrap();
        hg.add_pg_edge(user, card, ["USES"], props! {}).unwrap();
        let g = to_temporal_graph(&hg, TsProjection::Exclude);
        assert_eq!(g.vertex_count(), 1);
        assert_eq!(g.edge_count(), 0, "edge touching a ts vertex dropped");
    }

    #[test]
    fn summarize_projection_keeps_ts_elements() {
        let mut hg = HyGraph::new();
        let sid = hg.add_univariate_series("b", &sample_series());
        let user = hg.add_pg_vertex(["User"], props! {});
        let card = hg.add_ts_vertex(["Card"], sid).unwrap();
        hg.add_pg_edge(user, card, ["USES"], props! {}).unwrap();
        let g = to_temporal_graph(&hg, TsProjection::Summarize);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
        let card_v = g.vertex(card).unwrap();
        assert_eq!(
            card_v.props.static_value("__count").unwrap().as_i64(),
            Some(2)
        );
        assert_eq!(
            card_v.props.static_value("__mean").unwrap().as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn pattern_value_series_orders_by_validity() {
        let mut hg = HyGraph::new();
        let u = hg.add_pg_vertex(["User"], props! {});
        let m = hg.add_pg_vertex(["Merchant"], props! {});
        for (start, amount) in [(30, 3.0), (10, 1.0), (20, 2.0)] {
            hg.add_pg_edge_valid(
                u,
                m,
                ["TX"],
                props! {"amount" => amount},
                Interval::from(ts(start)),
            )
            .unwrap();
        }
        let mut p = Pattern::new();
        let pu = p.vertex("u", ["User"]);
        let pm = p.vertex("m", ["Merchant"]);
        p.edge(Some("t"), pu, pm, ["TX"], Direction::Out);
        let series = pattern_value_series(&hg, &p, "t", "amount");
        assert_eq!(series.len(), 3);
        assert_eq!(
            series.values(),
            &[1.0, 2.0, 3.0],
            "sorted by validity start"
        );
        // missing key yields empty
        let empty = pattern_value_series(&hg, &p, "t", "nope");
        assert!(empty.is_empty());
    }

    #[test]
    fn edges_to_series_counts_by_bucket() {
        let mut hg = HyGraph::new();
        let u = hg.add_pg_vertex(["User"], props! {});
        let m = hg.add_pg_vertex(["Merchant"], props! {});
        for i in 0..4 {
            hg.add_pg_edge_valid(u, m, ["TX"], props! {}, Interval::from(ts(i * 30)))
                .unwrap();
        }
        let s = edges_to_series(&hg, "User", "Merchant", Duration::from_millis(60)).unwrap();
        assert_eq!(s.values(), &[2.0, 2.0]);
        assert!(edges_to_series(&hg, "User", "Ghost", Duration::from_millis(60)).is_none());
    }

    #[test]
    fn attached_series_survive_graph_projection() {
        let mut hg = HyGraph::new();
        let sid = hg.add_univariate_series("avail", &sample_series());
        let station = hg.add_pg_vertex(["Station"], props! {});
        hg.set_property(ElementRef::Vertex(station), "availability", sid)
            .unwrap();
        let g = to_temporal_graph(&hg, TsProjection::Exclude);
        // the property map still records the series reference
        assert_eq!(
            g.vertex(station)
                .unwrap()
                .props
                .series_value("availability"),
            Some(sid)
        );
    }
}
