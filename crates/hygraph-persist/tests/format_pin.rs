//! Whole-file format pin: a fixed workload, committed with fixed
//! timestamps into a [`MemVfs`] store at one and at two shards and
//! checkpointed partway through, leaves exactly these files — name,
//! length and CRC-32 of every checkpoint and WAL segment. The CRC here
//! is a bytewise loop local to this file, so the pin does not lean on
//! the checksum the store itself uses. A change that moves any of these
//! constants changes what the store writes to disk.

use hygraph_core::{ElementRef, HyGraph};
use hygraph_persist::{HgMutation, MemVfs, PersistConfig, ShardedStore, Vfs};
use hygraph_types::{
    props, Interval, Label, PropertyValue, SeriesId, SubgraphId, Timestamp, Value, VertexId,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn ts(ms: i64) -> Timestamp {
    Timestamp::from_millis(ms)
}

/// CRC-32/ISO-HDLC, one bit at a time.
fn reference_crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// Batch 0 registers one series large enough (~1.3 MB encoded) that a
/// checkpoint of it spans many write chunks, next to small ones.
fn first_batch() -> Vec<HgMutation> {
    let big = (0..70_000)
        .map(|i| (ts(i * 1_000), vec![i as f64 * 0.5, (i % 97) as f64]))
        .collect();
    let mut ms = vec![HgMutation::AddSeries {
        names: vec!["load".into(), "temp".into()],
        rows: big,
    }];
    for s in 1..6 {
        ms.push(HgMutation::AddSeries {
            names: vec![format!("s{s}")],
            rows: vec![(ts(0), vec![s as f64])],
        });
    }
    for s in 0..6 {
        ms.push(HgMutation::AddTsVertex {
            labels: vec![Label::new("Sensor")],
            series: SeriesId::new(s),
        });
    }
    ms.push(HgMutation::CreateSubgraph {
        labels: vec![Label::new("Zone")],
        props: props! {"name" => "north"},
        validity: Interval::ALL,
    });
    ms
}

/// Batch `i ≥ 1`: series-affine appends beside structural mutations;
/// every fourth batch ends in a mutation the state rejects.
fn batch(i: u64) -> Vec<HgMutation> {
    let room = VertexId::new(6 + 2 * (i - 1));
    let mut ms = vec![
        HgMutation::AddPgVertex {
            labels: vec![Label::new("Room")],
            props: props! {"floor" => i as i64, "name" => format!("room-{i}")},
            validity: Interval::new(ts(i as i64), ts(10_000)),
        },
        HgMutation::AddSeries {
            names: vec![format!("flow{i}")],
            rows: vec![],
        },
        HgMutation::AddTsEdge {
            src: VertexId::new(i % 6),
            dst: room,
            labels: vec![Label::new("FEEDS")],
            series: SeriesId::new(5 + i),
        },
        HgMutation::AddPgVertex {
            labels: vec![Label::new("Desk")],
            props: props! {"ok" => true},
            validity: Interval::ALL,
        },
        HgMutation::AddPgEdge {
            src: room,
            dst: VertexId::new(room.raw() + 1),
            labels: vec![Label::new("HAS")],
            props: props! {"w" => 0.25 * i as f64},
            validity: Interval::ALL,
        },
        HgMutation::SetProperty {
            el: ElementRef::Vertex(room),
            key: "level".into(),
            value: PropertyValue::Static(Value::Float(i as f64 / 3.0)),
        },
        HgMutation::AddSubgraphVertex {
            s: SubgraphId::new(0),
            v: room,
            during: Interval::new(ts(0), ts(i as i64 * 100)),
        },
    ];
    for s in 0..6 {
        ms.push(HgMutation::Append {
            series: SeriesId::new(s),
            t: ts(100_000_000 + i as i64),
            row: if s == 0 {
                vec![i as f64, -(i as f64)]
            } else {
                vec![f64::from_bits(0x7FF8_0000_0000_0000 | i)]
            },
        });
    }
    if i.is_multiple_of(3) {
        ms.push(HgMutation::CloseVertex {
            v: VertexId::new(room.raw() + 1),
            t: ts(5_000),
        });
    }
    if i.is_multiple_of(4) {
        ms.push(HgMutation::Append {
            series: SeriesId::new(9_999), // no such series: rejected
            t: ts(0),
            row: vec![0.0],
        });
    }
    ms
}

/// Every file under `root/dir` as `(path below root, length, CRC)`, in
/// path order.
fn files(vfs: &MemVfs, root: &Path, dir: &Path) -> Vec<(String, usize, u32)> {
    let mut out = Vec::new();
    let mut names = vfs.list(&root.join(dir)).expect("list");
    names.sort();
    for name in names {
        let path: PathBuf = dir.join(name);
        if vfs.list(&root.join(&path)).is_ok() {
            out.extend(files(vfs, root, &path));
        } else {
            let bytes = vfs.read(&root.join(&path)).expect("read");
            let name = path.to_str().expect("utf-8").to_owned();
            out.push((name, bytes.len(), reference_crc32(&bytes)));
        }
    }
    out
}

/// Runs the workload at `shards` and returns what it leaves on disk.
fn run(shards: usize) -> Vec<(String, usize, u32)> {
    PersistConfig::new()
        .segment_bytes(512)
        .checkpoint_every(0)
        .install();
    let vfs = Arc::new(MemVfs::new());
    let dir = Path::new("store");
    let mut store: ShardedStore<HyGraph> =
        ShardedStore::open_in(vfs.clone(), dir, shards, None).expect("open");
    for i in 0..24u64 {
        store.set_commit_ts(1_700_000_000_000 + 1_000 * i as i64);
        let ms = if i == 0 { first_batch() } else { batch(i) };
        let outcome = store.commit_batch(ms);
        assert_eq!(outcome.is_err(), i > 0 && i.is_multiple_of(4), "batch {i}");
        if i == 15 {
            store.checkpoint().expect("checkpoint");
        }
    }
    drop(store);
    files(&vfs, dir, Path::new(""))
}

fn check(shards: usize, want: &[&str]) {
    let got: Vec<String> = run(shards)
        .iter()
        .map(|(name, len, crc)| format!("{name} {len} {crc:08x}"))
        .collect();
    assert_eq!(got, want, "{shards} shards wrote:\n{got:#?}");
}

#[test]
fn one_shard_writes_the_pinned_files() {
    check(
        1,
        &[
            "ckpt-00000000000000d5.ck 1403089 19045df4",
            "shards-0001/shard-00/wal-00000000000000c7.seg 548 af9eaacc",
            "shards-0001/shard-00/wal-00000000000000d5.seg 524 71407c22",
            "shards-0001/shard-00/wal-00000000000000e2.seg 524 088b0c89",
            "shards-0001/shard-00/wal-00000000000000ef.seg 548 5142298f",
            "shards-0001/shard-00/wal-00000000000000fd.seg 524 1619276e",
            "shards-0001/shard-00/wal-000000000000010a.seg 524 f1b86c1d",
            "shards-0001/shard-00/wal-0000000000000117.seg 548 bb2ecd1a",
            "shards-0001/shard-00/wal-0000000000000125.seg 524 076d042e",
            "shards-0001/shard-00/wal-0000000000000132.seg 524 0cbaf2a6",
        ],
    );
}

#[test]
fn two_shards_write_the_pinned_files() {
    check(
        2,
        &[
            "ckpt-00000000000000d5.ck 1403089 be5463cc",
            "shards-0001/shard-00/wal-0000000000000060.seg 542 d1a67fe7",
            "shards-0001/shard-00/wal-000000000000006e.seg 519 c17f01d1",
            "shards-0001/shard-00/wal-000000000000007b.seg 531 073815be",
            "shards-0001/shard-00/wal-0000000000000089.seg 556 606624f9",
            "shards-0001/shard-00/wal-0000000000000097.seg 532 93cc0a75",
            "shards-0001/shard-01/wal-000000000000005a.seg 503 c8cf5544",
            "shards-0001/shard-01/wal-0000000000000067.seg 775 d9fa79fc",
            "shards-0001/shard-01/wal-000000000000007b.seg 759 111801da",
            "shards-0001/shard-01/wal-000000000000008e.seg 516 f03f4e8c",
        ],
    );
}
