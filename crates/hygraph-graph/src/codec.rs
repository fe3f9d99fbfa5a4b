//! Exact binary state codec for [`TemporalGraph`].
//!
//! Serialises the *physical* representation — vertex and edge slot
//! vectors including tombstones left by `remove_vertex`/`remove_edge` —
//! so ids survive a round-trip unchanged and the decoded graph is
//! indistinguishable from the original (same ids, same iteration order,
//! same adjacency order). Derived state (adjacency lists, the label
//! index, live counters) is rebuilt, not stored: both are maintained in
//! ascending id order by construction, so a rebuild in id order
//! reproduces them exactly.
//!
//! This codec is the topology layer of the durable checkpoint format
//! used by `hygraph-persist`; framing, versioning and checksums are the
//! caller's concern.

use crate::graph::{EdgeData, TemporalGraph, VertexData};
use hygraph_types::bytes::{ByteReader, ByteWriter};
use hygraph_types::{EdgeId, Result, VertexId};

/// Encodes the full graph state into `w`.
pub fn encode_graph(g: &TemporalGraph, w: &mut ByteWriter) {
    w.len_of(g.vertices.slots());
    for i in 0..g.vertices.slots() {
        match g.vertices.get(i) {
            None => w.bool(false),
            Some(v) => {
                w.bool(true);
                w.labels(&v.labels);
                w.property_map(&v.props);
                w.interval(&v.validity);
            }
        }
    }
    w.len_of(g.edges.slots());
    for i in 0..g.edges.slots() {
        match g.edges.get(i) {
            None => w.bool(false),
            Some(e) => {
                w.bool(true);
                w.u64(e.src.raw());
                w.u64(e.dst.raw());
                w.labels(&e.labels);
                w.property_map(&e.props);
                w.interval(&e.validity);
            }
        }
    }
}

/// Decodes a graph previously written by [`encode_graph`].
pub fn decode_graph(r: &mut ByteReader<'_>) -> Result<TemporalGraph> {
    let mut g = TemporalGraph::new();
    let vertex_slots = r.len_of()?;
    for i in 0..vertex_slots {
        let id = VertexId::from(i);
        if !r.bool()? {
            g.vertices.push_slot(None);
            continue;
        }
        let labels = r.labels()?;
        let props = r.property_map()?;
        let validity = r.interval()?;
        for l in &labels {
            if !g.vertex_label_index.contains_key(l) {
                g.vertex_label_index.insert(l.clone(), Vec::new());
            }
            g.vertex_label_index
                .get_mut(l)
                .expect("ensured above")
                .push(id);
        }
        g.vertices.push_slot(Some(VertexData {
            id,
            labels,
            props,
            validity,
        }));
        g.live_vertices += 1;
    }
    let edge_slots = r.len_of()?;
    for i in 0..edge_slots {
        let id = EdgeId::from(i);
        if !r.bool()? {
            g.edges.push_slot(None);
            continue;
        }
        let src = VertexId::new(r.u64()?);
        let dst = VertexId::new(r.u64()?);
        let labels = r.labels()?;
        let props = r.property_map()?;
        let validity = r.interval()?;
        // endpoints must be live vertex slots, else adjacency rebuild
        // would index out of bounds or attach to a tombstone
        g.vertex(src)?;
        g.vertex(dst)?;
        g.out_adj.add(src.index(), id);
        g.in_adj.add(dst.index(), id);
        g.edges.push_slot(Some(EdgeData {
            id,
            src,
            dst,
            labels,
            props,
            validity,
        }));
        g.live_edges += 1;
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_types::{props, Interval, Timestamp};

    fn graph_to_bytes(g: &TemporalGraph) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_graph(g, &mut w);
        w.into_bytes()
    }

    /// Decodes a graph, requiring the slice to be fully consumed.
    fn graph_from_bytes(bytes: &[u8]) -> Result<TemporalGraph> {
        let mut r = ByteReader::new(bytes);
        let g = decode_graph(&mut r)?;
        r.expect_exhausted()?;
        Ok(g)
    }

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn sample() -> TemporalGraph {
        let mut g = TemporalGraph::new();
        let a = g.add_vertex_valid(
            ["Station", "Hub"],
            props! {"name" => "a", "capacity" => 30i64},
            Interval::new(ts(0), ts(1_000)),
        );
        let b = g.add_vertex(["Station"], props! {"lat" => 52.52});
        let c = g.add_vertex(["Depot"], props! {});
        g.add_edge_valid(
            a,
            b,
            ["TRIP"],
            props! {"trips" => 7i64},
            Interval::new(ts(0), ts(500)),
        )
        .unwrap();
        g.add_edge(b, c, ["TRIP"], props! {}).unwrap();
        g.add_edge(c, a, ["SERVICE"], props! {"w" => 0.5}).unwrap();
        g
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample();
        let bytes = graph_to_bytes(&g);
        let back = graph_from_bytes(&bytes).unwrap();
        assert_eq!(back.vertex_count(), g.vertex_count());
        assert_eq!(back.edge_count(), g.edge_count());
        for v in g.vertices() {
            let bv = back.vertex(v.id).unwrap();
            assert_eq!(bv.labels, v.labels);
            assert_eq!(bv.props, v.props);
            assert_eq!(bv.validity, v.validity);
        }
        for e in g.edges() {
            let be = back.edge(e.id).unwrap();
            assert_eq!((be.src, be.dst), (e.src, e.dst));
            assert_eq!(be.props, e.props);
        }
        // canonical: re-encoding is byte-identical
        assert_eq!(graph_to_bytes(&back), bytes);
    }

    #[test]
    fn roundtrip_preserves_tombstones_and_ids() {
        let mut g = sample();
        let doomed = g.vertex_ids().nth(1).unwrap();
        g.remove_vertex(doomed).unwrap();
        let bytes = graph_to_bytes(&g);
        let back = graph_from_bytes(&bytes).unwrap();
        assert_eq!(back.vertex_count(), g.vertex_count());
        assert!(!back.contains_vertex(doomed), "tombstone survives");
        // new ids keep allocating after the hole, exactly like the original
        let mut g2 = g.clone();
        let mut b2 = back;
        let id_a = g2.add_vertex(["New"], props! {});
        let id_b = b2.add_vertex(["New"], props! {});
        assert_eq!(id_a, id_b);
        // adjacency orders agree
        for v in g.vertices() {
            let got: Vec<_> = b2.out_edges(v.id).map(|e| e.id).collect();
            let want: Vec<_> = g.out_edges(v.id).map(|e| e.id).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn label_index_rebuilt() {
        let g = sample();
        let back = graph_from_bytes(&graph_to_bytes(&g)).unwrap();
        assert_eq!(
            back.vertex_ids_with_label("Station"),
            g.vertex_ids_with_label("Station")
        );
    }

    #[test]
    fn corrupt_bytes_error() {
        let g = sample();
        let mut bytes = graph_to_bytes(&g);
        // flip a byte in the middle
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        // either a decode error or (rarely) a changed-but-valid graph;
        // must never panic
        let _ = graph_from_bytes(&bytes);
        let truncated = &graph_to_bytes(&g)[..5];
        assert!(graph_from_bytes(truncated).is_err());
        // edge referencing a missing vertex
        let mut w = ByteWriter::new();
        w.len_of(0); // no vertices
        w.len_of(1);
        w.bool(true);
        w.u64(0);
        w.u64(0);
        w.labels(&[]);
        w.property_map(&Default::default());
        w.interval(&Interval::ALL);
        assert!(graph_from_bytes(w.as_bytes()).is_err());
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = TemporalGraph::new();
        let back = graph_from_bytes(&graph_to_bytes(&g)).unwrap();
        assert_eq!(back.vertex_count(), 0);
        assert_eq!(back.edge_count(), 0);
    }
}
