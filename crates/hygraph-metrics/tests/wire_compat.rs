//! The `Stats` wire contract, checked from outside the crate against
//! the documented layout only (format byte · records · `u16 0` · slow
//! ring; record = `u16` name length · name · `u8` kind · `u32` payload
//! length · payload):
//!
//! * forward/backward compatibility — unknown records are skipped,
//!   absent instruments read as zero, a pre-record-format payload is a
//!   typed error;
//! * a decoder fuzz — arbitrary byte flips, truncations and length-field
//!   inflations of a valid encoding decode or fail with `DecodeError`,
//!   never panic and never reserve memory from an unchecked length.

use hygraph_metrics::{Histogram, OpClass, PlanOp, Registry, Snapshot};
use proptest::prelude::*;
use std::time::Duration;

const COUNTER: u8 = 0;
const GAUGE: u8 = 1;
const HISTOGRAM: u8 = 2;

/// A snapshot with every kind of instrument, every labelled family and
/// the slow-query ring populated.
fn busy() -> Snapshot {
    let r = Registry::new(4);
    r.server.admitted.add(10);
    r.server.queue_depth.set(3);
    r.server.execute_us.observe(120);
    r.server.execute_us.observe(80_000);
    r.persist.wal_syncs.add(3);
    r.query.class(OpClass::Q2Aggregate).count.add(4);
    r.query.class(OpClass::Q2Aggregate).time_us.observe(250);
    r.query.operator(PlanOp::Sort).rows_out.add(17);
    r.ts.raw_bytes.set(16_000);
    r.sub.active.set(2);
    r.temporal.asof_us.observe(900);
    r.shard.set_lanes(&[(12, 10), (9, 8), (15, 15)], 8);
    r.shard.commit_publish_us.observe(150);
    for i in 0..6u64 {
        r.slow.record(
            "MATCH (n) RETURN n",
            Duration::from_millis(250 + i),
            i,
            0xfeed + i,
            Duration::from_millis(100),
        );
    }
    r.snapshot()
}

/// One record in its wire form.
fn record(name: &str, kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = (name.len() as u16).to_le_bytes().to_vec();
    out.extend_from_slice(name.as_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// An encoding taken apart along the documented layout.
#[derive(Clone)]
struct Parts {
    format: u8,
    /// Each record's full wire form, in encoding order.
    records: Vec<Vec<u8>>,
    /// Everything after the `u16 0` terminator (the slow ring).
    ring: Vec<u8>,
}

impl Parts {
    fn of(bytes: &[u8]) -> Parts {
        let mut records = Vec::new();
        let mut at = 1;
        loop {
            let name_len = u16::from_le_bytes(bytes[at..at + 2].try_into().unwrap()) as usize;
            if name_len == 0 {
                break;
            }
            let len_at = at + 2 + name_len + 1;
            let payload_len =
                u32::from_le_bytes(bytes[len_at..len_at + 4].try_into().unwrap()) as usize;
            let end = len_at + 4 + payload_len;
            records.push(bytes[at..end].to_vec());
            at = end;
        }
        Parts {
            format: bytes[0],
            records,
            ring: bytes[at + 2..].to_vec(),
        }
    }

    fn name(record: &[u8]) -> &str {
        let n = u16::from_le_bytes(record[..2].try_into().unwrap()) as usize;
        std::str::from_utf8(&record[2..2 + n]).unwrap()
    }

    fn position(&self, name: &str) -> usize {
        self.records
            .iter()
            .position(|r| Parts::name(r) == name)
            .unwrap_or_else(|| panic!("no record named {name}"))
    }

    fn bytes(&self) -> Vec<u8> {
        let mut out = vec![self.format];
        for r in &self.records {
            out.extend_from_slice(r);
        }
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&self.ring);
        out
    }
}

#[test]
fn the_documented_layout_is_what_to_bytes_writes() {
    let bytes = busy().to_bytes();
    let parts = Parts::of(&bytes);
    assert_eq!(parts.bytes(), bytes);
    assert!(parts.records.len() > 100, "one record per instrument");
    // names carry their labels
    parts.position("hygraph_query_q2_aggregate_total");
    parts.position("hygraph_query_op_sort_rows_total");
    parts.position("hygraph_shard_durable_lsn{shard=\"2\"}");
}

#[test]
fn unknown_records_are_skipped() {
    let snap = busy();
    let parts = Parts::of(&snap.to_bytes());
    let hist = {
        let h = Histogram::new();
        h.observe(7);
        let mut one = Snapshot::default();
        one.server.execute_us = h.snapshot();
        let p = Parts::of(&one.to_bytes());
        p.records[p.position("hygraph_server_execute_us")].clone()
    };
    let hist_payload = &hist[2 + "hygraph_server_execute_us".len() + 1 + 4..];
    let extras = [
        // a newer build's instruments, one of each kind
        record("hygraph_future_things_total", COUNTER, &9u64.to_le_bytes()),
        record("hygraph_future_level", GAUGE, &(-4i64).to_le_bytes()),
        record("hygraph_future_us", HISTOGRAM, hist_payload),
        // a kind this build has never heard of
        record("hygraph_future_sketch", 9, b"opaque"),
        // a known name under a kind it does not have here
        record("hygraph_server_admitted_total", 9, b""),
    ];
    for at in [0, parts.records.len() / 2, parts.records.len()] {
        let mut spliced = parts.clone();
        for (i, extra) in extras.iter().enumerate() {
            spliced.records.insert(at + i, extra.clone());
        }
        let decoded = Snapshot::from_bytes(&spliced.bytes())
            .unwrap_or_else(|e| panic!("unknown records at {at} must be skipped: {e}"));
        assert_eq!(decoded, snap, "spliced at {at}");
    }
}

#[test]
fn absent_records_read_as_zero() {
    let snap = busy();
    let mut parts = Parts::of(&snap.to_bytes());
    for name in [
        "hygraph_server_admitted_total",
        "hygraph_server_queue_depth",
        "hygraph_server_execute_us",
        "hygraph_query_q2_aggregate_total",
        "hygraph_shard_next_lsn{shard=\"1\"}",
    ] {
        let at = parts.position(name);
        parts.records.remove(at);
    }
    let mut expected = snap.clone();
    expected.server.admitted = 0;
    expected.server.queue_depth = 0;
    expected.server.execute_us = Default::default();
    expected.query.classes[OpClass::Q2Aggregate as usize].count = 0;
    expected.shard.lanes[1].next_lsn = 0;
    assert_eq!(Snapshot::from_bytes(&parts.bytes()).unwrap(), expected);

    // a snapshot holds `hygraph_shards` lanes, whatever lane records
    // the encoding carries
    for name in [
        "hygraph_shard_next_lsn{shard=\"2\"}",
        "hygraph_shard_durable_lsn{shard=\"2\"}",
    ] {
        let at = parts.position(name);
        parts.records.remove(at);
    }
    expected.shard.lanes[2] = Default::default();
    assert_eq!(Snapshot::from_bytes(&parts.bytes()).unwrap(), expected);
    let at = parts.position("hygraph_shards");
    parts.records.remove(at);
    expected.shard.shards = 0;
    expected.shard.lanes.clear();
    assert_eq!(Snapshot::from_bytes(&parts.bytes()).unwrap(), expected);

    // and nothing but the terminator and an empty ring is a zero snapshot
    let mut empty = vec![parts.format, 0, 0];
    empty.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(Snapshot::from_bytes(&empty).unwrap(), Snapshot::default());
}

#[test]
fn duplicate_and_out_of_order_records_are_rejected() {
    let parts = Parts::of(&busy().to_bytes());
    let a = parts.position("hygraph_server_admitted_total");
    let b = parts.position("hygraph_persist_wal_syncs_total");

    let mut swapped = parts.clone();
    swapped.records.swap(a, b);
    let e = Snapshot::from_bytes(&swapped.bytes()).unwrap_err();
    assert!(e.to_string().contains("out of order"), "{e}");

    let mut doubled = parts.clone();
    doubled.records.push(parts.records[a].clone());
    let e = Snapshot::from_bytes(&doubled.bytes()).unwrap_err();
    assert!(e.to_string().contains("duplicate"), "{e}");

    // a payload of the wrong size for its kind
    let mut short = parts.clone();
    short.records[a] = record("hygraph_server_admitted_total", COUNTER, &[1, 2, 3]);
    assert!(Snapshot::from_bytes(&short.bytes()).is_err());
    let mut long = parts.clone();
    long.records[a] = record("hygraph_server_admitted_total", COUNTER, &[0; 9]);
    assert!(Snapshot::from_bytes(&long.bytes()).is_err());
}

/// The first 16 bytes of `busy_registry().snapshot().to_bytes()` as the
/// last positional build (PR 12, version byte 7) wrote them:
/// `admitted = 10`, then `completed = 9`.
const V7_HEAD: [u8; 16] = [7, 10, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0];

#[test]
fn a_positional_v7_payload_is_a_typed_error() {
    let e = Snapshot::from_bytes(&V7_HEAD).unwrap_err();
    assert_eq!(
        e.to_string(),
        "snapshot decode: unsupported snapshot format 7"
    );
    let mut padded = V7_HEAD.to_vec();
    padded.resize(1253, 0); // the full v7 length of that fixture
    assert!(Snapshot::from_bytes(&padded).is_err());
}

/// Offsets of every length or count field in `bytes`, with its width.
fn length_fields(bytes: &[u8]) -> Vec<(usize, usize)> {
    let parts = Parts::of(bytes);
    let mut fields = Vec::new();
    let mut at = 1;
    for r in &parts.records {
        let name_len = Parts::name(r).len();
        fields.push((at, 2));
        fields.push((at + 2 + name_len + 1, 4));
        if r[2 + name_len] == HISTOGRAM {
            // count · sum · u16 non-zero bucket count
            fields.push((at + 2 + name_len + 1 + 4 + 16, 2));
        }
        at += r.len();
    }
    at += 2;
    fields.push((at, 4)); // slow-ring entry count
    fields.push((at + 4, 4)); // first entry's text length
    fields
}

proptest! {
    #[test]
    fn flipped_bytes_never_panic(
        flips in prop::collection::vec((0usize..1 << 16, 1u8..=255), 1..8),
    ) {
        let mut bytes = busy().to_bytes();
        for (at, mask) in flips {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
        if let Ok(decoded) = Snapshot::from_bytes(&bytes) {
            // whatever decodes re-encodes to something that decodes
            prop_assert!(Snapshot::from_bytes(&decoded.to_bytes()).is_ok());
        }
    }

    #[test]
    fn truncations_always_error(cut in 0usize..1 << 16) {
        let bytes = busy().to_bytes();
        prop_assert!(Snapshot::from_bytes(&bytes[..cut % bytes.len()]).is_err());
    }

    #[test]
    fn inflated_lengths_never_panic_or_reserve(
        which in 0usize..1 << 16,
        value in 0u32..=u32::MAX,
    ) {
        let mut bytes = busy().to_bytes();
        let fields = length_fields(&bytes);
        let (at, width) = fields[which % fields.len()];
        let original = bytes[at..at + width].to_vec();
        bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        prop_assume!(bytes[at..at + width] != original[..]);
        // A changed length desynchronises everything after it; with up
        // to 4 GiB claimed, returning at all shows nothing was reserved
        // from the claim.
        let _ = Snapshot::from_bytes(&bytes);
    }
}
