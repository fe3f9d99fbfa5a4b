//! `metricEvolution` (paper §5, after Rost et al. \[63\]): compute graph
//! metrics on snapshots over time and store the resulting *time series*
//! back onto the vertices as series-valued properties — the flagship
//! demonstration of the `HyGraphTo<X>` / `<X>ToHyGraph` duality.

use hygraph_core::{ElementKind, ElementRef, HyGraph};
use hygraph_graph::algorithms::{centrality, community, pagerank};
use hygraph_graph::snapshot;
use hygraph_ts::TimeSeries;
use hygraph_types::parallel::ExecMode;
use hygraph_types::{Result, Timestamp, VertexId};
use std::collections::HashMap;

/// Which metric to evolve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Total degree.
    Degree,
    /// Out-degree.
    OutDegree,
    /// PageRank score.
    PageRank,
    /// Louvain community id.
    CommunityId,
    /// Brandes betweenness centrality.
    Betweenness,
}

impl Metric {
    /// Property key the evolved series is stored under.
    pub fn property_key(self) -> &'static str {
        match self {
            Metric::Degree => "evolution:degree",
            Metric::OutDegree => "evolution:out_degree",
            Metric::PageRank => "evolution:pagerank",
            Metric::CommunityId => "evolution:community",
            Metric::Betweenness => "evolution:betweenness",
        }
    }
}

/// Computes `metric` on the snapshot at each of `instants` for every
/// vertex, returning per-vertex series.
pub fn metric_evolution(
    hg: &HyGraph,
    metric: Metric,
    instants: &[Timestamp],
) -> HashMap<VertexId, TimeSeries> {
    let mut out: HashMap<VertexId, TimeSeries> = HashMap::new();
    let full = hg.topology();
    for &t in instants {
        let snap = snapshot::snapshot(full, t);
        let values: HashMap<VertexId, f64> = match metric {
            Metric::Degree => snap
                .vertex_ids()
                .map(|v| (v, snap.degree(v) as f64))
                .collect(),
            Metric::OutDegree => snap
                .vertex_ids()
                .map(|v| (v, snap.out_degree(v) as f64))
                .collect(),
            Metric::PageRank => {
                pagerank::pagerank(&snap, pagerank::PageRankConfig::default(), ExecMode::Auto)
            }
            Metric::CommunityId => {
                let c = community::louvain(&snap, 20);
                c.assignment
                    .iter()
                    .map(|(&v, &cid)| (v, cid as f64))
                    .collect()
            }
            Metric::Betweenness => centrality::betweenness_centrality(&snap, ExecMode::Auto),
        };
        for (v, x) in values {
            out.entry(v)
                .or_default()
                .push(t, x)
                .expect("instants are processed in caller order");
        }
    }
    out
}

/// Runs [`metric_evolution`] and writes each vertex's series back into
/// the instance as a series-valued property (pg-vertices only — the
/// paper stores meta-properties on entities). Returns how many vertices
/// were annotated.
pub fn annotate_metric_evolution(
    hg: &mut HyGraph,
    metric: Metric,
    instants: &[Timestamp],
) -> Result<usize> {
    let mut sorted = instants.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let evolved = metric_evolution(hg, metric, &sorted);
    let mut annotated = 0usize;
    let mut items: Vec<(VertexId, TimeSeries)> = evolved.into_iter().collect();
    items.sort_by_key(|&(v, _)| v);
    for (v, series) in items {
        if hg.vertex_kind(v)? != ElementKind::Pg || series.is_empty() {
            continue;
        }
        let sid = hg.add_univariate_series(metric.property_key(), &series);
        hg.set_property(ElementRef::Vertex(v), metric.property_key(), sid)?;
        annotated += 1;
    }
    Ok(annotated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_types::{props, Interval};

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    /// Hub-and-spoke graph where spokes attach at staggered times.
    fn growing_star() -> (HyGraph, VertexId) {
        let mut hg = HyGraph::new();
        let hub = hg.add_pg_vertex(["N"], props! {});
        for i in 0..4 {
            let s = hg.add_pg_vertex(["N"], props! {});
            hg.add_pg_edge_valid(
                s,
                hub,
                ["E"],
                props! {},
                Interval::from(ts(10 * (i as i64 + 1))),
            )
            .unwrap();
        }
        (hg, hub)
    }

    #[test]
    fn degree_evolution_grows() {
        let (hg, hub) = growing_star();
        let instants = [ts(5), ts(15), ts(25), ts(35), ts(45)];
        let evolved = metric_evolution(&hg, Metric::Degree, &instants);
        let hub_series = &evolved[&hub];
        assert_eq!(hub_series.values(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn pagerank_evolution_shifts_to_hub() {
        let (hg, hub) = growing_star();
        let evolved = metric_evolution(&hg, Metric::PageRank, &[ts(5), ts(45)]);
        let hub_series = &evolved[&hub];
        assert!(
            hub_series.values()[1] > hub_series.values()[0],
            "hub gains rank as spokes connect"
        );
    }

    #[test]
    fn community_evolution_merges() {
        // two pairs that merge into one component at t=50
        let mut hg = HyGraph::new();
        let a = hg.add_pg_vertex(["N"], props! {});
        let b = hg.add_pg_vertex(["N"], props! {});
        let c = hg.add_pg_vertex(["N"], props! {});
        let d = hg.add_pg_vertex(["N"], props! {});
        hg.add_pg_edge(a, b, ["E"], props! {}).unwrap();
        hg.add_pg_edge(c, d, ["E"], props! {}).unwrap();
        hg.add_pg_edge_valid(b, c, ["E"], props! {}, Interval::from(ts(50)))
            .unwrap();
        let evolved = metric_evolution(&hg, Metric::CommunityId, &[ts(0), ts(100)]);
        // before: a,b in one community, c,d in another
        let before: Vec<f64> = [a, b, c, d]
            .iter()
            .map(|v| evolved[v].values()[0])
            .collect();
        assert_eq!(before[0], before[1]);
        assert_eq!(before[2], before[3]);
        assert_ne!(before[0], before[2]);
    }

    #[test]
    fn annotate_writes_series_properties() {
        let (mut hg, hub) = growing_star();
        let n = annotate_metric_evolution(&mut hg, Metric::Degree, &[ts(5), ts(45)]).unwrap();
        assert_eq!(n, 5);
        let sid = hg
            .props(ElementRef::Vertex(hub))
            .unwrap()
            .series_value("evolution:degree")
            .expect("annotation present");
        let s = hg.series(sid).unwrap();
        assert_eq!(s.len(), 2);
        assert!(hg.validate().is_ok());
    }

    #[test]
    fn betweenness_evolution() {
        // a bridge vertex appears at t=50 connecting two pairs
        let mut hg = HyGraph::new();
        let a = hg.add_pg_vertex(["N"], props! {});
        let b = hg.add_pg_vertex(["N"], props! {});
        let bridge = hg.add_pg_vertex(["N"], props! {});
        hg.add_pg_edge_valid(a, bridge, ["E"], props! {}, Interval::from(ts(50)))
            .unwrap();
        hg.add_pg_edge_valid(bridge, b, ["E"], props! {}, Interval::from(ts(50)))
            .unwrap();
        let evolved = metric_evolution(&hg, Metric::Betweenness, &[ts(0), ts(100)]);
        let s = &evolved[&bridge];
        assert_eq!(s.values()[0], 0.0, "no paths before the edges exist");
        assert_eq!(s.values()[1], 1.0, "carries the (a,b) pair after t=50");
    }

    #[test]
    fn annotate_dedups_and_sorts_instants() {
        let (mut hg, _) = growing_star();
        // unsorted with duplicates must not panic
        let n = annotate_metric_evolution(&mut hg, Metric::OutDegree, &[ts(45), ts(5), ts(45)])
            .unwrap();
        assert_eq!(n, 5);
    }

    #[test]
    fn empty_instants_no_annotation() {
        let (mut hg, _) = growing_star();
        let n = annotate_metric_evolution(&mut hg, Metric::Degree, &[]).unwrap();
        assert_eq!(n, 0);
    }
}
