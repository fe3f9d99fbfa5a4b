//! Snapshot retrieval over temporal graphs (Table 2, row Q4 — graph
//! side; Khurana & Deshpande-style snapshot semantics).
//!
//! A *snapshot* at instant `t` is the static graph of all elements valid
//! at `t`; a *slice* over an interval keeps everything whose validity
//! overlaps it. Both produce new [`TemporalGraph`]s with **the same
//! element ids** as the source, so results of algorithms on the snapshot
//! can be joined back to the full graph (and across snapshots — needed by
//! `metricEvolution`).

use crate::graph::TemporalGraph;
use hygraph_types::{Interval, Timestamp, VertexId};

/// The static graph of elements valid at instant `t`. Ids are preserved;
/// validity intervals are carried over unchanged.
pub fn snapshot(g: &TemporalGraph, t: Timestamp) -> TemporalGraph {
    filtered(g, |iv| iv.contains(t))
}

/// The temporal graph restricted to elements whose validity overlaps
/// `window`.
pub fn slice(g: &TemporalGraph, window: &Interval) -> TemporalGraph {
    filtered(g, |iv| iv.overlaps(window))
}

fn filtered(g: &TemporalGraph, keep: impl Fn(&Interval) -> bool) -> TemporalGraph {
    let mut out = TemporalGraph::new();
    // Rebuild with identical ids: allocate tombstoned gaps by inserting
    // placeholder vertices and removing them afterwards would be wasteful;
    // instead we exploit that ids are dense and insertion order defines
    // ids, re-adding every slot in order and tombstoning the dropped ones.
    let cap = g.vertex_capacity();
    let mut dropped: Vec<VertexId> = Vec::new();
    for idx in 0..cap {
        let vid = VertexId::from(idx);
        match g.vertex(vid) {
            Ok(v) if keep(&v.validity) => {
                let nid = out.add_vertex_valid(v.labels.clone(), v.props.clone(), v.validity);
                debug_assert_eq!(nid, vid);
            }
            _ => {
                // placeholder to keep ids aligned, tombstoned below
                let nid = out.add_vertex_valid(
                    Vec::<hygraph_types::Label>::new(),
                    Default::default(),
                    Interval::ALL,
                );
                debug_assert_eq!(nid, vid);
                dropped.push(vid);
            }
        }
    }
    for e in g.edges() {
        if keep(&e.validity) && out.contains_vertex(e.src) && out.contains_vertex(e.dst) {
            // endpoints may be placeholders that will be dropped: check
            let src_dropped = dropped.binary_search(&e.src).is_ok();
            let dst_dropped = dropped.binary_search(&e.dst).is_ok();
            if !src_dropped && !dst_dropped {
                out.add_edge_valid(e.src, e.dst, e.labels.clone(), e.props.clone(), e.validity)
                    .expect("endpoints exist");
            }
        }
    }
    for vid in dropped {
        let _ = out.remove_vertex(vid);
    }
    out
}

/// Snapshots at each of `instants`, returned in input order.
pub fn snapshots(g: &TemporalGraph, instants: &[Timestamp]) -> Vec<TemporalGraph> {
    instants.iter().map(|&t| snapshot(g, t)).collect()
}

/// The ordered set of instants at which the graph's structure changes
/// (validity starts and ends of vertices and edges) within `window` —
/// the natural sampling points for evolution analysis.
pub fn change_points(g: &TemporalGraph, window: &Interval) -> Vec<Timestamp> {
    let mut pts = Vec::new();
    let mut push = |t: Timestamp| {
        if window.contains(t) {
            pts.push(t);
        }
    };
    for v in g.vertices() {
        push(v.validity.start);
        push(v.validity.end);
    }
    for e in g.edges() {
        push(e.validity.start);
        push(e.validity.end);
    }
    pts.sort_unstable();
    pts.dedup();
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_types::props;

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn iv(a: i64, b: i64) -> Interval {
        Interval::new(ts(a), ts(b))
    }

    /// a alive [0,100), b alive [50,200), c alive always;
    /// a->b alive [50,100), b->c alive [60,150), c->a alive [0, 90).
    fn evolving() -> (TemporalGraph, [VertexId; 3]) {
        let mut g = TemporalGraph::new();
        let a = g.add_vertex_valid(["N"], props! {"name" => "a"}, iv(0, 100));
        let b = g.add_vertex_valid(["N"], props! {"name" => "b"}, iv(50, 200));
        let c = g.add_vertex(["N"], props! {"name" => "c"});
        g.add_edge_valid(a, b, ["E"], props! {}, iv(50, 100))
            .unwrap();
        g.add_edge_valid(b, c, ["E"], props! {}, iv(60, 150))
            .unwrap();
        g.add_edge_valid(c, a, ["E"], props! {}, iv(0, 90)).unwrap();
        (g, [a, b, c])
    }

    #[test]
    fn snapshot_at_various_instants() {
        let (g, [a, b, c]) = evolving();
        // t=25: only a and c alive, edge c->a alive
        let s = snapshot(&g, ts(25));
        assert!(s.contains_vertex(a));
        assert!(!s.contains_vertex(b));
        assert!(s.contains_vertex(c));
        assert_eq!(s.edge_count(), 1);
        // t=75: everything alive
        let s = snapshot(&g, ts(75));
        assert_eq!(s.vertex_count(), 3);
        assert_eq!(s.edge_count(), 3);
        // t=150: only b (validity ends 200) and c; b->c ended at 150 (exclusive)
        let s = snapshot(&g, ts(150));
        assert_eq!(s.vertex_count(), 2);
        assert_eq!(s.edge_count(), 0);
        // t=1000: only c
        let s = snapshot(&g, ts(1000));
        assert_eq!(s.vertex_count(), 1);
        assert!(s.contains_vertex(c));
    }

    #[test]
    fn snapshot_preserves_ids_and_props() {
        let (g, [a, _, c]) = evolving();
        let s = snapshot(&g, ts(25));
        assert_eq!(
            s.vertex(a)
                .unwrap()
                .props
                .static_value("name")
                .unwrap()
                .as_str(),
            Some("a")
        );
        assert_eq!(s.vertex(c).unwrap().id, c);
    }

    #[test]
    fn snapshot_drops_edges_to_dead_vertices() {
        // edge whose validity outlives an endpoint must not reappear
        let mut g = TemporalGraph::new();
        let a = g.add_vertex_valid(["N"], props! {}, iv(0, 10));
        let b = g.add_vertex(["N"], props! {});
        g.add_edge_valid(a, b, ["E"], props! {}, iv(0, 100))
            .unwrap();
        let s = snapshot(&g, ts(50));
        assert!(!s.contains_vertex(a));
        assert_eq!(s.edge_count(), 0, "edge endpoint dead at t=50");
    }

    #[test]
    fn slice_keeps_overlapping() {
        let (g, [a, b, c]) = evolving();
        let s = slice(&g, &iv(120, 180));
        // a dead (ends 100); b alive; c alive; only edge b->c overlaps [120,150)
        assert!(!s.contains_vertex(a));
        assert!(s.contains_vertex(b));
        assert!(s.contains_vertex(c));
        assert_eq!(s.edge_count(), 1);
    }

    #[test]
    fn change_points_ordered_unique() {
        let (g, _) = evolving();
        let pts = change_points(&g, &iv(0, 1000));
        assert_eq!(
            pts,
            vec![ts(0), ts(50), ts(60), ts(90), ts(100), ts(150), ts(200)]
        );
        let windowed = change_points(&g, &iv(55, 120));
        assert_eq!(windowed, vec![ts(60), ts(90), ts(100)]);
    }

    #[test]
    fn snapshots_bulk() {
        let (g, _) = evolving();
        let snaps = snapshots(&g, &[ts(25), ts(75)]);
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].vertex_count(), 2);
        assert_eq!(snaps[1].vertex_count(), 3);
    }

    #[test]
    fn snapshot_of_empty_graph() {
        let g = TemporalGraph::new();
        let s = snapshot(&g, ts(0));
        assert_eq!(s.vertex_count(), 0);
        assert_eq!(s.edge_count(), 0);
    }

    #[test]
    fn snapshot_with_tombstoned_source_ids() {
        let (mut g, [a, _b, c]) = evolving();
        g.remove_vertex(a).unwrap();
        let s = snapshot(&g, ts(75));
        assert!(!s.contains_vertex(a));
        assert!(s.contains_vertex(c));
        assert_eq!(s.vertex(c).unwrap().id, c, "ids preserved across gaps");
    }
}
