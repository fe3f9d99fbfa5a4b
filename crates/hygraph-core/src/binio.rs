//! Compact binary codec for [`HyGraph`] instances — the one stored
//! form of a model instance (checkpoints, history snapshots).
//!
//! A field-exact snapshot of the whole HGM tuple that round-trips
//! *without id remapping*: the codec preserves the original id spaces
//! (including tombstones in the topology and the
//! `next_series`/`next_subgraph` allocation counters), so a decoded
//! instance keeps assigning the same ids the original would — the
//! property WAL replay depends on.
//!
//! Layout (all integers varint, floats raw IEEE-754 bits — see
//! [`hygraph_types::bytes`]):
//!
//! ```text
//! magic "HGB1"
//! next_series next_subgraph
//! <topology: hygraph_graph::codec>
//! kinds:   per live vertex id-ordered, per live edge id-ordered (1 byte each)
//! deltas:  ts-vertex (v, series) pairs, ts-edge (e, series) pairs
//! series:  count, then per series: id, names, len, times, columns
//! subgraphs: count, then per subgraph: id, labels, props, validity,
//!            vertex members (v, interval), edge members (e, interval)
//! ```
//!
//! Framing, checksums and versioned containers are the concern of
//! `hygraph-persist`; this module only defines the payload.

use crate::model::{ElementKind, HyGraph};
use crate::subgraph::Subgraph;
use hygraph_graph::codec as graph_codec;
use hygraph_ts::MultiSeries;
use hygraph_types::bytes::{ByteReader, ByteWriter};
use hygraph_types::pmap::PMap;
use hygraph_types::{HyGraphError, Result, SeriesId, SubgraphId};
use std::convert::Infallible;

const MAGIC: &[u8; 4] = b"HGB1";

fn kind_byte(k: ElementKind) -> u8 {
    match k {
        ElementKind::Pg => 0,
        ElementKind::Ts => 1,
    }
}

fn kind_from_byte(b: u8) -> Result<ElementKind> {
    match b {
        0 => Ok(ElementKind::Pg),
        1 => Ok(ElementKind::Ts),
        other => Err(HyGraphError::corrupt(format!("unknown kind byte {other}"))),
    }
}

/// Encodes the full instance state into `w`.
pub fn encode_hygraph(hg: &HyGraph, w: &mut ByteWriter) {
    let Ok(()) = encode_hygraph_streamed(hg, w, &mut |_| Ok::<(), Infallible>(()));
}

/// [`encode_hygraph`] for a caller that streams the encoding out: after
/// each section, and after each series and subgraph, `drain(w)` may
/// write out and empty what `w` holds. The bytes drained, in order,
/// followed by what `w` holds at the end, are exactly
/// [`encode_hygraph`]'s — which is this with a drain that keeps
/// everything in `w`.
pub fn encode_hygraph_streamed<E>(
    hg: &HyGraph,
    w: &mut ByteWriter,
    drain: &mut dyn FnMut(&mut ByteWriter) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    w.raw(MAGIC);
    w.u64(hg.next_series);
    w.u64(hg.next_subgraph);
    graph_codec::encode_graph(&hg.graph, w);
    drain(w)?;
    // kinds, in id order (graph iteration is id-ordered)
    for v in hg.graph.vertices() {
        w.u8(kind_byte(
            *hg.vertex_kind.get(&v.id).expect("every vertex has a kind"),
        ));
    }
    for e in hg.graph.edges() {
        w.u8(kind_byte(
            *hg.edge_kind.get(&e.id).expect("every edge has a kind"),
        ));
    }
    // δ mappings, id-ordered for determinism
    let mut dv: Vec<_> = hg.delta_v.iter().map(|(&v, &s)| (v, s)).collect();
    dv.sort_unstable();
    w.len_of(dv.len());
    for (v, s) in dv {
        w.u64(v.raw());
        w.u64(s.raw());
    }
    let mut de: Vec<_> = hg.delta_e.iter().map(|(&e, &s)| (e, s)).collect();
    de.sort_unstable();
    w.len_of(de.len());
    for (e, s) in de {
        w.u64(e.raw());
        w.u64(s.raw());
    }
    drain(w)?;
    // series set, id-ordered
    w.len_of(hg.series.len());
    for (id, s) in hg.series.iter() {
        w.u64(id.raw());
        w.len_of(s.names().len());
        for name in s.names() {
            w.str(name);
        }
        w.len_of(s.len());
        for t in s.times() {
            w.timestamp(*t);
        }
        for c in 0..s.names().len() {
            for v in s.column(c).expect("column exists") {
                w.f64(*v);
            }
        }
        drain(w)?;
    }
    // subgraphs, id-ordered
    w.len_of(hg.subgraphs.len());
    for (id, sg) in hg.subgraphs.iter() {
        w.u64(id.raw());
        w.labels(&sg.labels);
        w.property_map(&sg.props);
        w.interval(&sg.validity);
        w.len_of(sg.vertex_members().len());
        for &(v, iv) in sg.vertex_members() {
            w.u64(v.raw());
            w.interval(&iv);
        }
        w.len_of(sg.edge_members().len());
        for &(e, iv) in sg.edge_members() {
            w.u64(e.raw());
            w.interval(&iv);
        }
        drain(w)?;
    }
    Ok(())
}

/// Decodes an instance previously written by [`encode_hygraph`].
pub fn decode_hygraph(r: &mut ByteReader<'_>) -> Result<HyGraph> {
    if r.raw(4)? != MAGIC {
        return Err(HyGraphError::corrupt("bad HyGraph binary magic"));
    }
    let next_series = r.u64()?;
    let next_subgraph = r.u64()?;
    let graph = graph_codec::decode_graph(r)?;
    let mut vertex_kind = PMap::new();
    for v in graph.vertex_ids() {
        let kind = kind_from_byte(r.u8()?)?;
        vertex_kind.insert(v, kind);
    }
    let mut edge_kind = PMap::new();
    for e in graph.edge_ids() {
        let kind = kind_from_byte(r.u8()?)?;
        edge_kind.insert(e, kind);
    }
    let mut delta_v = PMap::new();
    let n_dv = r.len_of()?;
    for _ in 0..n_dv {
        let v = hygraph_types::VertexId::new(r.u64()?);
        let s = SeriesId::new(r.u64()?);
        delta_v.insert(v, s);
    }
    let mut delta_e = PMap::new();
    let n_de = r.len_of()?;
    for _ in 0..n_de {
        let e = hygraph_types::EdgeId::new(r.u64()?);
        let s = SeriesId::new(r.u64()?);
        delta_e.insert(e, s);
    }
    let mut series_set = PMap::new();
    let n_series = r.len_of()?;
    for _ in 0..n_series {
        let id = SeriesId::new(r.u64()?);
        let n_names = r.len_of()?;
        let mut names = Vec::with_capacity(n_names.min(1024));
        for _ in 0..n_names {
            names.push(r.str()?);
        }
        let arity = names.len();
        let mut series = MultiSeries::new(names);
        let n_rows = r.len_of()?;
        let mut times = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            times.push(r.timestamp()?);
        }
        let mut columns = vec![Vec::with_capacity(n_rows); arity];
        for col in columns.iter_mut() {
            for _ in 0..n_rows {
                col.push(r.f64()?);
            }
        }
        let mut row = vec![0.0; arity];
        for (i, &t) in times.iter().enumerate() {
            for (c, col) in columns.iter().enumerate() {
                row[c] = col[i];
            }
            series
                .push(t, &row)
                .map_err(|e| HyGraphError::corrupt(format!("series row: {e}")))?;
        }
        if series_set.insert(id, std::sync::Arc::new(series)).is_some() {
            return Err(HyGraphError::corrupt("duplicate series id"));
        }
        if id.raw() >= next_series {
            return Err(HyGraphError::corrupt(
                "series id at or above the allocation counter",
            ));
        }
    }
    let mut subgraphs = PMap::new();
    let n_subgraphs = r.len_of()?;
    for _ in 0..n_subgraphs {
        let id = SubgraphId::new(r.u64()?);
        let labels = r.labels()?;
        let props = r.property_map()?;
        let validity = r.interval()?;
        let mut sg = Subgraph::new(id, labels, props, validity);
        let n_v = r.len_of()?;
        for _ in 0..n_v {
            let v = hygraph_types::VertexId::new(r.u64()?);
            let iv = r.interval()?;
            sg.add_vertex(v, iv);
        }
        let n_e = r.len_of()?;
        for _ in 0..n_e {
            let e = hygraph_types::EdgeId::new(r.u64()?);
            let iv = r.interval()?;
            sg.add_edge(e, iv);
        }
        if subgraphs.insert(id, sg).is_some() {
            return Err(HyGraphError::corrupt("duplicate subgraph id"));
        }
    }
    Ok(HyGraph {
        graph,
        vertex_kind,
        edge_kind,
        series: series_set,
        delta_v,
        delta_e,
        subgraphs,
        next_series,
        next_subgraph,
    })
}

/// Encodes an instance into a fresh byte vector.
pub fn to_bytes(hg: &HyGraph) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_hygraph(hg, &mut w);
    w.into_bytes()
}

/// Decodes and validates an instance from a standalone byte slice.
pub fn from_bytes(bytes: &[u8]) -> Result<HyGraph> {
    let mut r = ByteReader::new(bytes);
    let hg = decode_hygraph(&mut r)?;
    r.expect_exhausted()?;
    hg.validate()?;
    Ok(hg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ElementRef;
    use hygraph_ts::TimeSeries;
    use hygraph_types::{props, Interval, Timestamp, Value};

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn rich_instance() -> HyGraph {
        let mut hg = HyGraph::new();
        let mut m = MultiSeries::new(["price", "volume"]);
        m.push(ts(0), &[100.5, 3.0]).unwrap();
        m.push(ts(60_000), &[101.25, 7.0]).unwrap();
        let sid = hg.add_series(m);
        let extra = hg.add_univariate_series(
            "load",
            &TimeSeries::from_pairs([(ts(5), 1.5), (ts(10), -2.25)]),
        );
        let u = hg.add_pg_vertex_valid(
            ["User", "Person"],
            props! {
                "name" => "a=b;c\td",
                "age" => 34i64,
                "score" => 0.1234567890123,
                "vip" => true,
                "joined" => ts(42),
                "nothing" => Value::Null
            },
            Interval::new(ts(0), ts(1_000)),
        );
        let card = hg.add_ts_vertex(["Card"], sid).unwrap();
        hg.add_pg_edge_valid(
            u,
            card,
            ["USES"],
            props! {"since" => ts(10)},
            Interval::new(ts(0), ts(900)),
        )
        .unwrap();
        let flow = hg.add_univariate_series("flow", &TimeSeries::from_pairs([(ts(1), 9.0)]));
        hg.add_ts_edge(card, u, ["FLOW"], flow).unwrap();
        hg.set_property(ElementRef::Vertex(u), "load", extra)
            .unwrap();
        let sg = hg.create_subgraph(
            ["Suspicious"],
            props! {"reason" => "test"},
            Interval::new(ts(0), ts(500)),
        );
        hg.add_subgraph_vertex(sg, u, Interval::new(ts(0), ts(100)))
            .unwrap();
        hg
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let hg = rich_instance();
        let bytes = to_bytes(&hg);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(to_bytes(&back), bytes, "canonical re-encode");
        assert_eq!(back.vertex_count(), hg.vertex_count());
        assert_eq!(back.edge_count(), hg.edge_count());
        assert_eq!(back.series_count(), hg.series_count());
        assert_eq!(back.subgraphs().count(), hg.subgraphs().count());
    }

    #[test]
    fn roundtrip_preserves_ids_without_remap() {
        let hg = rich_instance();
        let mut back = from_bytes(&to_bytes(&hg)).unwrap();
        // the next series allocated by the copy matches the original
        let mut orig = hg.clone();
        let a = orig.add_univariate_series("x", &TimeSeries::new());
        let b = back.add_univariate_series("x", &TimeSeries::new());
        assert_eq!(a, b);
        let sg_a = orig.create_subgraph(["S"], props! {}, Interval::ALL);
        let sg_b = back.create_subgraph(["S"], props! {}, Interval::ALL);
        assert_eq!(sg_a, sg_b);
    }

    #[test]
    fn roundtrip_preserves_kinds_and_delta() {
        let hg = rich_instance();
        let back = from_bytes(&to_bytes(&hg)).unwrap();
        for v in hg.topology().vertex_ids() {
            assert_eq!(back.vertex_kind(v).unwrap(), hg.vertex_kind(v).unwrap());
        }
        for e in hg.topology().edge_ids() {
            assert_eq!(back.edge_kind(e).unwrap(), hg.edge_kind(e).unwrap());
        }
        for v in hg.vertices_of_kind(ElementKind::Ts) {
            assert_eq!(
                back.delta_id(ElementRef::Vertex(v)).unwrap(),
                hg.delta_id(ElementRef::Vertex(v)).unwrap()
            );
        }
    }

    #[test]
    fn empty_instance_roundtrip() {
        let hg = HyGraph::new();
        let back = from_bytes(&to_bytes(&hg)).unwrap();
        assert_eq!(back.vertex_count(), 0);
        assert_eq!(back.series_count(), 0);
    }

    #[test]
    fn corrupt_inputs_error_not_panic() {
        let bytes = to_bytes(&rich_instance());
        assert!(from_bytes(&[]).is_err());
        assert!(from_bytes(b"XXXX").is_err());
        assert!(from_bytes(&bytes[..bytes.len() / 2]).is_err());
        let mut extended = bytes.clone();
        extended.push(7);
        assert!(from_bytes(&extended).is_err());
    }
}
