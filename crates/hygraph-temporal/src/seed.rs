//! Rebuilding history across restarts from checkpoint + WAL replay.

use hygraph_core::HyGraph;
use hygraph_persist::{Durable, HgMutation, RecoveryObserver};
use hygraph_types::Result;

use crate::config::HistoryConfig;
use crate::history::{CommitRecord, HistoryStore};

/// A [`RecoveryObserver`] that captures the recovered checkpoint state
/// and every replayed WAL frame, then assembles them into a
/// [`HistoryStore`] whose horizon is the checkpoint watermark.
///
/// Pass it to [`hygraph_persist::ShardedStore::open_observed`]; call
/// [`HistorySeed::finish`] once recovery returns. Frames stamped at or
/// below the watermark — including the `ts = 0` frames of a writer that
/// tracked no transaction time — are applied onto the base state;
/// frames above it become one [`CommitRecord`] per distinct timestamp
/// (frames of one commit share a stamp, and stamps are strictly
/// increasing across commits).
#[derive(Debug)]
pub struct HistorySeed {
    cfg: HistoryConfig,
    base: HyGraph,
    base_ts: i64,
    replays: Vec<(i64, HgMutation)>,
}

impl HistorySeed {
    /// An empty seed: until [`RecoveryObserver::base`] fires, the base
    /// is a fresh store at transaction time 0.
    pub fn new(cfg: HistoryConfig) -> Self {
        Self {
            cfg,
            base: HyGraph::new(),
            base_ts: 0,
            replays: Vec::new(),
        }
    }

    /// Assembles the captured recovery into a [`HistoryStore`].
    pub fn finish(self) -> Result<HistoryStore> {
        let Self {
            cfg,
            mut base,
            base_ts,
            replays,
        } = self;
        // Apply untimed / pre-watermark replays onto the base. (Empty
        // above an intact checkpoint when every commit was stamped;
        // frames staged without `set_commit_ts` replay as ts = 0.)
        let split = replays.partition_point(|(ts, _)| *ts <= base_ts);
        for (_, m) in &replays[..split] {
            base.apply(m)?;
        }
        // Group the timed suffix into commits: one record per run of
        // consecutive equal timestamps.
        let mut commits: Vec<CommitRecord> = Vec::new();
        for (ts, m) in replays.into_iter().skip(split) {
            match commits.last_mut() {
                Some(last) if last.commit_ts == ts => last.mutations.push(m),
                _ => commits.push(CommitRecord {
                    commit_ts: ts,
                    mutations: vec![m],
                }),
            }
        }
        Ok(HistoryStore::assemble(cfg, base, base_ts, commits))
    }
}

impl RecoveryObserver<HyGraph> for HistorySeed {
    fn base(&mut self, watermark: i64, state: &HyGraph) {
        self.base_ts = watermark;
        self.base = state.clone();
    }

    fn replay(&mut self, _lsn: u64, ts: i64, m: &HgMutation) {
        self.replays.push((ts, m.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::SnapshotResolution;
    use hygraph_types::bytes::ByteWriter;
    use hygraph_types::{Interval, PropertyMap, Timestamp};

    fn add_vertex(label: &str) -> HgMutation {
        HgMutation::AddPgVertex {
            labels: vec![label.into()],
            props: PropertyMap::new(),
            validity: Interval::from(Timestamp::from_millis(0)),
        }
    }

    fn state_bytes(hg: &HyGraph) -> Vec<u8> {
        let mut w = ByteWriter::new();
        hg.encode_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn empty_seed_finishes_as_a_fresh_history() {
        let mut history = HistorySeed::new(HistoryConfig::default()).finish().unwrap();
        assert_eq!(history.base_ts(), 0);
        assert_eq!(history.commit_count(), 0);
        // the horizon state is an empty store
        assert!(matches!(
            history.snapshot_at(0).unwrap(),
            SnapshotResolution::Live
        ));
    }

    #[test]
    fn checkpoint_plus_timed_frames_become_base_plus_commits() {
        let mut base = HyGraph::new();
        base.apply(&add_vertex("Base")).unwrap();
        let base_bytes = state_bytes(&base);

        let mut seed = HistorySeed::new(HistoryConfig::default());
        seed.base(5_000, &base);
        // two commits above the watermark: t=6000 (two frames), t=7000
        seed.replay(1, 6_000, &add_vertex("A"));
        seed.replay(2, 6_000, &add_vertex("B"));
        seed.replay(3, 7_000, &add_vertex("C"));
        let mut history = seed.finish().unwrap();

        assert_eq!(history.base_ts(), 5_000);
        assert_eq!(history.commit_timestamps(), vec![6_000, 7_000]);

        match history.snapshot_at(5_000).unwrap() {
            SnapshotResolution::Past(p) => assert_eq!(state_bytes(&p), base_bytes),
            SnapshotResolution::Live => panic!("watermark state is past"),
        }
        match history.snapshot_at(6_500).unwrap() {
            SnapshotResolution::Past(p) => assert_eq!(p.vertex_count(), 3),
            SnapshotResolution::Live => panic!("t=6500 is past"),
        }
        assert!(matches!(
            history.snapshot_at(7_000).unwrap(),
            SnapshotResolution::Live
        ));
    }

    #[test]
    fn untimed_zero_ts_frames_fold_into_the_base() {
        let mut seed = HistorySeed::new(HistoryConfig::default());
        // no checkpoint; frames staged without a commit ts replay as 0
        seed.replay(1, 0, &add_vertex("Old"));
        seed.replay(2, 0, &add_vertex("Older"));
        // then a timed frame
        seed.replay(3, 4_000, &add_vertex("New"));
        let mut history = seed.finish().unwrap();

        assert_eq!(history.base_ts(), 0);
        assert_eq!(history.commit_timestamps(), vec![4_000]);
        // the base already holds the two untimed vertices
        match history.snapshot_at(1_000).unwrap() {
            SnapshotResolution::Past(p) => {
                let expected = {
                    let mut hg = HyGraph::new();
                    hg.apply(&add_vertex("Old")).unwrap();
                    hg.apply(&add_vertex("Older")).unwrap();
                    hg
                };
                assert_eq!(state_bytes(&p), state_bytes(&expected));
            }
            SnapshotResolution::Live => panic!("t=1000 is past"),
        }
        assert!(matches!(
            history.snapshot_at(4_000).unwrap(),
            SnapshotResolution::Live
        ));
    }

    /// Folding pre-watermark frames by `apply` onto the handed-over
    /// state gives the same base bytes as the decode → apply → encode
    /// pass over the checkpoint encoding it replaces.
    #[test]
    fn pre_watermark_frames_fold_to_the_decode_apply_encode_bytes() {
        let mut base = HyGraph::new();
        base.apply(&add_vertex("Base")).unwrap();
        base.apply(&add_vertex("Base2")).unwrap();
        let early = [
            add_vertex("Untimed"),
            add_vertex("Early"),
            add_vertex("AtMark"),
        ];

        let mut seed = HistorySeed::new(HistoryConfig::default());
        seed.base(5_000, &base);
        seed.replay(1, 0, &early[0]);
        seed.replay(2, 3_000, &early[1]);
        seed.replay(3, 5_000, &early[2]);
        seed.replay(4, 6_000, &add_vertex("Late"));
        let history = seed.finish().unwrap();

        // the replaced path: decode the checkpoint encoding (through the
        // one decode site, `from_parts`), apply, encode
        let decoded =
            HistoryStore::from_parts(HistoryConfig::default(), state_bytes(&base), 5_000, vec![]);
        let mut old = HyGraph::clone(decoded.base());
        for m in &early {
            old.apply(m).unwrap();
        }
        assert_eq!(state_bytes(history.base()), state_bytes(&old));
        assert_eq!(history.base_ts(), 5_000);
        assert_eq!(history.commit_timestamps(), vec![6_000]);
    }
}
