//! `MemVfs` is a faithful disk: a store over it, copied after any
//! acknowledged commit, reopens to exactly the acknowledged prefix —
//! the same contract a directory gives — while checkpoints and segment
//! purges keep its files bounded.

use hygraph_core::HyGraph;
use hygraph_persist::{checkpoint, wal, Durable, HgMutation, MemVfs, PersistConfig, ShardedStore};
use hygraph_types::bytes::ByteWriter;
use hygraph_types::{Interval, Label, PropertyMap, SeriesId, Timestamp};
use std::path::Path;
use std::sync::Arc;

fn state_bytes(hg: &HyGraph) -> Vec<u8> {
    let mut w = ByteWriter::new();
    hg.encode_state(&mut w);
    w.into_bytes()
}

/// Batch `i` of a workload mixing series-affine appends with structural
/// mutations; every fifth batch ends in a mutation the state rejects.
fn batch(i: u64) -> Vec<HgMutation> {
    let mut ms = vec![
        HgMutation::AddSeries {
            names: vec![format!("s{i}")],
            rows: vec![],
        },
        HgMutation::AddTsVertex {
            labels: vec![Label::new("Sensor")],
            series: SeriesId::new(i),
        },
        HgMutation::AddPgVertex {
            labels: vec![Label::new("Room")],
            props: PropertyMap::new(),
            validity: Interval::ALL,
        },
    ];
    for s in i.saturating_sub(2)..=i {
        ms.push(HgMutation::Append {
            series: SeriesId::new(s),
            t: Timestamp::from_millis(i as i64),
            row: vec![(s * 100 + i) as f64],
        });
    }
    if i % 5 == 4 {
        ms.push(HgMutation::Append {
            series: SeriesId::new(1_000), // no such series: rejected
            t: Timestamp::from_millis(0),
            row: vec![0.0],
        });
    }
    ms
}

#[test]
fn a_copy_taken_after_any_acknowledged_commit_reopens_to_that_prefix() {
    PersistConfig::new()
        .segment_bytes(256)
        .checkpoint_every(8)
        .install();
    let dir = Path::new("store");
    for shards in [1usize, 2] {
        let vfs = Arc::new(MemVfs::new());
        let mut store: ShardedStore<HyGraph> =
            ShardedStore::open_in(vfs.clone(), dir, shards, None).expect("open");
        let mut reference = HyGraph::new();
        let mut acked = 0u64;
        for i in 0..40 {
            let ms = batch(i);
            let outcome = store.commit_batch(ms.clone());
            // the store keeps (and syncs) the prefix before a rejection
            let kept = ms.iter().take_while(|m| reference.apply(m).is_ok()).count();
            assert_eq!(
                outcome.is_err(),
                kept < ms.len(),
                "{shards} shards, batch {i}"
            );
            acked += kept as u64;

            let copy = vfs.as_ref().clone();
            let reopened: ShardedStore<HyGraph> =
                ShardedStore::open_in(Arc::new(copy), dir, shards, None).expect("reopen copy");
            assert_eq!(reopened.next_csn(), acked, "{shards} shards, batch {i}");
            assert_eq!(
                reopened.state_bytes(),
                state_bytes(&reference),
                "{shards} shards, batch {i}"
            );

            // checkpoints replace each other and purge what they cover
            assert_eq!(checkpoint::list_checkpoints(&*vfs, dir).unwrap().len(), 1);
            for shard in 0..shards {
                let sdir = dir.join(format!("shards-0001/shard-{shard:02}"));
                let segments = wal::list_segments(&*vfs, &sdir).unwrap().len();
                assert!(
                    segments <= 8,
                    "{segments} segments kept in {}",
                    sdir.display()
                );
            }
        }
        assert_eq!(store.next_csn(), acked);
    }
}
