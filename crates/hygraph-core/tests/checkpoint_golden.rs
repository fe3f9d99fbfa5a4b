//! Format pin for the canonical checkpoint encoding: a fixed content
//! mix must encode to exactly the bytes it encoded to before the
//! snapshot collections were collapsed to one representation (length
//! and CRC-32 captured at that commit, where the copy-on-write and the
//! persistent collections both produced them). Checkpoints and WAL
//! frames written by any earlier build therefore keep opening with no
//! migration; a change that moves these constants is a format change.

use hygraph_core::binio::{from_bytes, to_bytes};
use hygraph_core::model::ElementRef;
use hygraph_core::HyGraph;
use hygraph_ts::{MultiSeries, TimeSeries};
use hygraph_types::bytes::crc32;
use hygraph_types::{props, Interval, Timestamp};

const GOLDEN_LEN: usize = 4025;
const GOLDEN_CRC32: u32 = 0xc79a_f399;

fn ts(ms: i64) -> Timestamp {
    Timestamp::from_millis(ms)
}

/// A content mix covering every encoded section: multivariate and
/// univariate series, both vertex kinds, both edge kinds, properties
/// updated after the fact, and a subgraph with memberships.
fn build() -> HyGraph {
    let mut hg = HyGraph::new();
    let mut m = MultiSeries::new(["price", "volume"]);
    m.push(ts(0), &[100.5, 3.0]).unwrap();
    m.push(ts(60_000), &[101.25, 7.0]).unwrap();
    let sid = hg.add_series(m);
    let mut stations = Vec::new();
    for i in 0..40i64 {
        let s = hg.add_univariate_series(
            &format!("avail-{i}"),
            &TimeSeries::from_pairs([(ts(i), i as f64), (ts(i + 1_000), 0.5)]),
        );
        let v = hg
            .add_ts_vertex(["Station".to_string(), format!("Zone{}", i % 8)], s)
            .unwrap();
        stations.push(v);
    }
    let hub = hg.add_pg_vertex_valid(
        ["Hub"],
        props! {"name" => "central", "docks" => 42i64},
        Interval::new(ts(0), ts(900_000)),
    );
    for (i, &v) in stations.iter().enumerate() {
        hg.add_pg_edge_valid(
            hub,
            v,
            ["FEEDS"],
            props! {"order" => i as i64},
            Interval::new(ts(0), ts(900_000)),
        )
        .unwrap();
    }
    hg.add_ts_edge(stations[0], hub, ["FLOW"], sid).unwrap();
    hg.set_property(ElementRef::Vertex(hub), "docks", 48i64)
        .unwrap();
    let sg = hg.create_subgraph(["Downtown"], props! {"zone" => 3i64}, Interval::ALL);
    for &v in &stations[..5] {
        hg.add_subgraph_vertex(sg, v, Interval::new(ts(0), ts(500)))
            .unwrap();
    }
    hg
}

#[test]
fn checkpoint_bytes_match_the_golden_pin() {
    let bytes = to_bytes(&build());
    assert_eq!(bytes.len(), GOLDEN_LEN, "checkpoint length moved");
    assert_eq!(crc32(&bytes), GOLDEN_CRC32, "checkpoint bytes moved");
}

#[test]
fn checkpoint_round_trip_is_bit_exact() {
    let bytes = to_bytes(&build());
    let back = from_bytes(&bytes).expect("decode");
    assert_eq!(to_bytes(&back), bytes, "re-encode must be bit-exact");
    assert_eq!(back.vertex_count(), 41);
    assert_eq!(back.edge_count(), 41);
    assert_eq!(back.series_count(), 41);
}
