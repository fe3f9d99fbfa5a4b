//! The timestamped commit log and snapshot reconstruction.

use hygraph_core::{ElementRef, HyGraph};
use hygraph_metrics as metrics;
use hygraph_persist::{Durable, HgMutation};
use hygraph_query::{ResolvedStates, TemporalBound, TemporalResolver};
use hygraph_types::bytes::{ByteReader, ByteWriter};
use hygraph_types::{HyGraphError, Result};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::config::HistoryConfig;

/// One committed transaction: its timestamp and the mutation batch
/// that applied (only the applied prefix of a partially failed batch).
#[derive(Clone, Debug, PartialEq)]
pub struct CommitRecord {
    /// Monotonically increasing transaction timestamp (epoch ms).
    pub commit_ts: i64,
    /// The mutations, in application order.
    pub mutations: Vec<HgMutation>,
}

/// How an `AS OF t` bound resolves.
#[derive(Clone, Debug)]
pub enum SnapshotResolution {
    /// `t` is at or past the newest commit: the live state answers.
    Live,
    /// A reconstructed historical state.
    Past(Arc<HyGraph>),
}

/// The transaction-time history of one store: the state at the horizon,
/// held in memory, plus the ordered commit deltas above it. See the
/// crate docs for the reconstruction and retention model.
#[derive(Debug)]
pub struct HistoryStore {
    cfg: HistoryConfig,
    /// The state at the history horizon. Its interior is persistent
    /// structure, so a reconstruction starting here clones pointers,
    /// not data.
    base: Arc<HyGraph>,
    /// Commit timestamp the base covers: every commit with `ts <=
    /// base_ts` is folded in; `AS OF` below it is out of range.
    base_ts: i64,
    /// Retained commits, strictly increasing `commit_ts`. Shared, so a
    /// replay takes the commits it needs as pointer clones.
    commits: Vec<Arc<CommitRecord>>,
    /// Highest timestamp handed out by [`HistoryStore::allocate_ts`]
    /// (or observed at seeding) — the monotonicity floor.
    last_alloc: i64,
    /// Encoded bytes of the retained deltas (what the
    /// `hygraph_temporal_history_bytes` gauge reports). The base is the
    /// store's own structure, shared, and is not counted.
    approx_bytes: u64,
    /// Per-entity count of retained delta versions — the version
    /// chains. Only mutations addressing an *existing* element
    /// (property writes, closes) lengthen a chain; creations are the
    /// chain's root and carry no prior version.
    chains: HashMap<ElementRef, u32>,
    /// LRU of reconstructed snapshots, keyed by commit timestamp;
    /// most recently used last. On a miss the entries double as replay
    /// anchors.
    cache: Vec<(i64, Arc<HyGraph>)>,
    /// Reused buffer [`encoded_len`] measures deltas in.
    scratch: ByteWriter,
}

/// Encoded size of `m`, measured in a reused buffer.
fn encoded_len(scratch: &mut ByteWriter, m: &HgMutation) -> u64 {
    scratch.clear();
    <HyGraph as Durable>::encode_mutation(m, scratch);
    scratch.len() as u64
}

/// The element an already-existing entity's mutation rewrites, if any
/// — the version-chain key.
fn chain_key(m: &HgMutation) -> Option<ElementRef> {
    match m {
        HgMutation::SetProperty { el, .. } => Some(*el),
        HgMutation::CloseVertex { v, .. } => Some(ElementRef::Vertex(*v)),
        HgMutation::CloseEdge { e, .. } => Some(ElementRef::Edge(*e)),
        _ => None,
    }
}

#[cfg(test)]
thread_local! {
    /// Commits [`Replay::run`] applied on this thread.
    static REPLAYED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// A reconstruction planned under the history lock and run outside it:
/// the state to start from — the nearest cached state at or below the
/// target, else the base — and the commits between it and the target.
#[derive(Debug)]
struct Replay {
    /// Commit timestamp of the target state (its cache key).
    key: i64,
    from: Arc<HyGraph>,
    commits: Vec<Arc<CommitRecord>>,
}

impl Replay {
    /// Applies the commits onto a clone of the start state.
    fn run(self) -> Result<Arc<HyGraph>> {
        if self.commits.is_empty() {
            return Ok(self.from);
        }
        #[cfg(test)]
        REPLAYED.with(|n| n.set(n.get() + self.commits.len()));
        let mut state = HyGraph::clone(&self.from);
        for c in &self.commits {
            for m in &c.mutations {
                state.apply(m)?;
            }
        }
        Ok(Arc::new(state))
    }
}

/// What the locked lookup found for one target state.
enum Found {
    /// The state itself: the base or a cache hit.
    State(Arc<HyGraph>),
    /// A reconstruction to run unlocked, then remember.
    Replay(Replay),
}

impl HistoryStore {
    /// A history whose horizon is `base` at transaction time `base_ts`.
    pub fn new(cfg: HistoryConfig, base: &HyGraph, base_ts: i64) -> Self {
        Self::assemble(cfg, base.clone(), base_ts, Vec::new())
    }

    /// A history assembled from an exact state encoding (what
    /// `encode_state` writes) and the commits above it, which must
    /// carry strictly increasing timestamps, all above `base_ts`. The
    /// encoding is decoded once, here.
    ///
    /// # Panics
    ///
    /// When `base_state` is not a state encoding.
    pub fn from_parts(
        cfg: HistoryConfig,
        base_state: Vec<u8>,
        base_ts: i64,
        commits: Vec<CommitRecord>,
    ) -> Self {
        let mut r = ByteReader::new(&base_state);
        let base = HyGraph::decode_state(&mut r)
            .and_then(|hg| r.expect_exhausted().map(|()| hg))
            .expect("history base must be an encode_state encoding");
        Self::assemble(cfg, base, base_ts, commits)
    }

    /// A history over an in-memory base (see [`crate::HistorySeed`]).
    /// `commits` must carry strictly increasing timestamps, all above
    /// `base_ts`.
    pub(crate) fn assemble(
        cfg: HistoryConfig,
        base: HyGraph,
        base_ts: i64,
        commits: Vec<CommitRecord>,
    ) -> Self {
        let mut store = Self {
            cfg,
            base: Arc::new(base),
            base_ts,
            commits: Vec::with_capacity(commits.len()),
            last_alloc: base_ts,
            approx_bytes: 0,
            chains: HashMap::new(),
            cache: Vec::new(),
            scratch: ByteWriter::new(),
        };
        for c in commits {
            debug_assert!(c.commit_ts > store.last_alloc, "commit ts not increasing");
            store.last_alloc = store.last_alloc.max(c.commit_ts);
            store.index_commit(Arc::new(c));
        }
        store.publish_gauges();
        store
    }

    /// Appends `c`, counting its delta bytes and version-chain links.
    fn index_commit(&mut self, c: Arc<CommitRecord>) {
        for m in &c.mutations {
            self.approx_bytes += encoded_len(&mut self.scratch, m);
            if let Some(key) = chain_key(m) {
                *self.chains.entry(key).or_insert(0) += 1;
            }
        }
        self.commits.push(c);
    }

    fn publish_gauges(&self) {
        if let Some(m) = metrics::get() {
            m.temporal.history_commits.set(self.commits.len() as i64);
            m.temporal.history_bytes.set(self.approx_bytes as i64);
            m.temporal
                .version_chain_max
                .set(self.version_chain_max() as i64);
        }
    }

    /// Allocates the next transaction timestamp: wall-clock `now_ms`,
    /// bumped to stay strictly increasing under bursts and clock
    /// steps. Call before making the batch durable so WAL frames carry
    /// the same timestamp history records.
    pub fn allocate_ts(&mut self, now_ms: i64) -> i64 {
        let ts = now_ms.max(self.last_alloc + 1);
        self.last_alloc = ts;
        ts
    }

    /// Records one committed batch at `ts` (an [`allocate_ts`] value).
    /// Pass only the mutations that actually applied; an empty batch
    /// records nothing. Runs retention GC against `ts` afterwards.
    ///
    /// [`allocate_ts`]: HistoryStore::allocate_ts
    pub fn record_commit(&mut self, ts: i64, mutations: Vec<HgMutation>) {
        if mutations.is_empty() {
            return;
        }
        debug_assert!(self.last_ts() < ts, "commit ts must increase");
        self.index_commit(Arc::new(CommitRecord {
            commit_ts: ts,
            mutations,
        }));
        self.gc(ts);
        self.publish_gauges();
    }

    /// Folds commits older than the retention window (relative to
    /// `now_ms`) into the base snapshot, moving the horizon forward.
    /// Returns how many commits were retired. No-op when retention is
    /// unbounded.
    pub fn gc(&mut self, now_ms: i64) -> usize {
        if self.cfg.retain_ms <= 0 {
            return 0;
        }
        let cutoff = now_ms.saturating_sub(self.cfg.retain_ms);
        let fold = self.commits.partition_point(|c| c.commit_ts < cutoff);
        if fold == 0 {
            return 0;
        }
        // the new base: the expired run applied onto a clone of the
        // nearest state below its end
        self.base = self
            .replay_to(Some(fold - 1))
            .run()
            .expect("recorded mutation must re-apply: it applied once");
        for c in self.commits.drain(..fold) {
            for m in &c.mutations {
                self.approx_bytes = self
                    .approx_bytes
                    .saturating_sub(encoded_len(&mut self.scratch, m));
                if let Some(key) = chain_key(m) {
                    if let Some(n) = self.chains.get_mut(&key) {
                        *n -= 1;
                        if *n == 0 {
                            self.chains.remove(&key);
                        }
                    }
                }
            }
            self.base_ts = c.commit_ts;
        }
        // cached snapshots at or below the new horizon are unreachable
        // (or the base itself)
        let horizon = self.base_ts;
        self.cache.retain(|(ts, _)| *ts > horizon);
        if let Some(m) = metrics::get() {
            m.temporal.gc_commits_folded.add(fold as u64);
        }
        self.publish_gauges();
        fold
    }

    /// Cache key of the state after commit `idx` (`None`: the base).
    fn key_of(&self, idx: Option<usize>) -> i64 {
        idx.map_or(self.base_ts, |i| self.commits[i].commit_ts)
    }

    /// The replay reconstructing the state after commit `idx`: from the
    /// nearest cached state at or below it (else the base), over only
    /// the commits in between.
    fn replay_to(&self, idx: Option<usize>) -> Replay {
        let key = self.key_of(idx);
        let (anchor_ts, from) = self
            .cache
            .iter()
            .filter(|(ts, _)| *ts <= key)
            .max_by_key(|(ts, _)| *ts)
            .map_or((self.base_ts, &self.base), |(ts, state)| (*ts, state));
        let first = self.commits.partition_point(|c| c.commit_ts <= anchor_ts);
        let end = idx.map_or(0, |i| i + 1);
        Replay {
            key,
            from: Arc::clone(from),
            commits: self.commits[first..end].to_vec(),
        }
    }

    /// The lookup step for the state after commit `idx`: the base or a
    /// cached state (a cache hit), else the replay that rebuilds it (a
    /// rebuild).
    fn find(&mut self, idx: Option<usize>) -> Found {
        let key = self.key_of(idx);
        let hit = match idx {
            None => Some(Arc::clone(&self.base)),
            Some(_) => self.cache.iter().position(|(ts, _)| *ts == key).map(|pos| {
                let hit = self.cache.remove(pos);
                let state = Arc::clone(&hit.1);
                self.cache.push(hit); // most recently used last
                state
            }),
        };
        let found = match hit {
            Some(state) => Found::State(state),
            None => Found::Replay(self.replay_to(idx)),
        };
        if let Some(m) = metrics::get() {
            match found {
                Found::State(_) => m.temporal.snapshot_cache_hits.inc(),
                Found::Replay(_) => m.temporal.snapshot_rebuilds.inc(),
            }
        }
        found
    }

    /// The remember step: caches a rebuilt state, unless a `gc` since
    /// the lookup moved the horizon past it or a concurrent resolution
    /// cached it first.
    fn remember(&mut self, key: i64, state: &Arc<HyGraph>) {
        if key <= self.base_ts || self.cache.iter().any(|(ts, _)| *ts == key) {
            return;
        }
        self.cache.push((key, Arc::clone(state)));
        if self.cache.len() > self.cfg.snapshot_cache.max(1) {
            self.cache.remove(0);
        }
    }

    /// Index of the last commit with `commit_ts <= t`, or `None` when
    /// `t` lands on the bare base.
    fn index_at(&self, t: i64) -> Option<usize> {
        self.commits
            .partition_point(|c| c.commit_ts <= t)
            .checked_sub(1)
    }

    /// The lookup step of `AS OF t`; `None` when the live state answers.
    fn find_at(&mut self, t: i64) -> Result<Option<Found>> {
        if t >= self.last_ts() {
            return Ok(None);
        }
        if t < self.base_ts {
            return Err(HyGraphError::query(format!(
                "AS OF {t} is before the history horizon {}: \
                 the commits covering it were retired by retention \
                 (HYGRAPH_HISTORY_RETAIN_SECS)",
                self.base_ts
            )));
        }
        let idx = self.index_at(t);
        Ok(Some(self.find(idx)))
    }

    /// The lookup step of `BETWEEN t1 AND t2`: the state current at
    /// `t1`, and the commits with `t1 < commit_ts <= t2`.
    fn find_window(&mut self, t1: i64, t2: i64) -> Result<(Found, Vec<Arc<CommitRecord>>)> {
        if t2 < t1 {
            return Err(HyGraphError::query(format!(
                "BETWEEN bounds must satisfy t1 <= t2, got [{t1}, {t2}]"
            )));
        }
        if t1 < self.base_ts {
            return Err(HyGraphError::query(format!(
                "BETWEEN {t1} starts before the history horizon {}: \
                 the commits covering it were retired by retention \
                 (HYGRAPH_HISTORY_RETAIN_SECS)",
                self.base_ts
            )));
        }
        let idx = self.index_at(t1);
        let first = idx.map_or(0, |i| i + 1);
        let end = self.commits.partition_point(|c| c.commit_ts <= t2);
        let window = self.commits[first..end].to_vec();
        Ok((self.find(idx), window))
    }

    /// Resolves `AS OF t`: [`SnapshotResolution::Live`] when `t` is at
    /// or past the newest commit (the live store already *is* that
    /// state), a reconstructed snapshot when `t` lands inside history,
    /// and an error when `t` precedes the retention horizon.
    pub fn snapshot_at(&mut self, t: i64) -> Result<SnapshotResolution> {
        as_of(self, t)
    }

    /// Resolves `BETWEEN t1 AND t2`: the state current at `t1`, then
    /// the state after each commit with `t1 < commit_ts <= t2` — one
    /// entry per epoch the window saw, oldest first.
    pub fn states_between(&mut self, t1: i64, t2: i64) -> Result<Vec<Arc<HyGraph>>> {
        between(self, t1, t2)
    }

    /// Transaction time of the history horizon — `AS OF` below this is
    /// out of range.
    pub fn base_ts(&self) -> i64 {
        self.base_ts
    }

    /// Timestamp of the newest commit (the base's when none are
    /// retained). `AS OF t >= last_ts()` resolves to the live state.
    pub fn last_ts(&self) -> i64 {
        self.commits
            .last()
            .map(|c| c.commit_ts)
            .unwrap_or(self.base_ts)
    }

    /// Retained commit count.
    pub fn commit_count(&self) -> usize {
        self.commits.len()
    }

    /// Timestamps of every retained commit, oldest first.
    pub fn commit_timestamps(&self) -> Vec<i64> {
        self.commits.iter().map(|c| c.commit_ts).collect()
    }

    /// Approximate bytes held by history: the encoded retained deltas.
    pub fn approx_bytes(&self) -> u64 {
        self.approx_bytes
    }

    /// Length of the longest per-entity version chain currently
    /// retained (prior versions only; the hot version is the store's).
    pub fn version_chain_max(&self) -> u32 {
        self.chains.values().copied().max().unwrap_or(0)
    }

    /// The state at the horizon.
    #[cfg(test)]
    pub(crate) fn base(&self) -> &Arc<HyGraph> {
        &self.base
    }
}

/// A [`HistoryStore`] shared by the committing writer and any number of
/// readers. Resolving through `&SharedHistory` holds the mutex only to
/// look up (binary search, cache probe, `Arc` clones of the start state
/// and of the commits to replay) and to remember the result; the replay,
/// and the query run on it, hold nothing.
#[derive(Debug)]
pub struct SharedHistory(Mutex<HistoryStore>);

impl SharedHistory {
    /// Shares `store`.
    pub fn new(store: HistoryStore) -> Self {
        Self(Mutex::new(store))
    }

    /// Locks the history for a writer step (`allocate_ts`,
    /// `record_commit`) or a read of its bookkeeping. A poisoned lock
    /// is taken over, not propagated: no step leaves the store invalid
    /// midway (GC swaps the base in only after its replay succeeded).
    pub fn lock(&self) -> MutexGuard<'_, HistoryStore> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// How a resolution reaches the history for its two bookkeeping steps
/// (lookup, remember): through `&mut`, or through [`SharedHistory`]'s
/// mutex, taken once per step and never across a replay.
trait Reach {
    fn with<R>(&mut self, step: impl FnOnce(&mut HistoryStore) -> R) -> R;
}

impl Reach for HistoryStore {
    fn with<R>(&mut self, step: impl FnOnce(&mut HistoryStore) -> R) -> R {
        step(self)
    }
}

impl Reach for &SharedHistory {
    fn with<R>(&mut self, step: impl FnOnce(&mut HistoryStore) -> R) -> R {
        step(&mut self.lock())
    }
}

/// Runs the replay a lookup planned, unlocked, then remembers it.
fn settle(h: &mut impl Reach, found: Found) -> Result<Arc<HyGraph>> {
    match found {
        Found::State(state) => Ok(state),
        Found::Replay(replay) => {
            let key = replay.key;
            let state = replay.run()?;
            h.with(|s| s.remember(key, &state));
            Ok(state)
        }
    }
}

fn as_of(h: &mut impl Reach, t: i64) -> Result<SnapshotResolution> {
    Ok(match h.with(|s| s.find_at(t))? {
        None => SnapshotResolution::Live,
        Some(found) => SnapshotResolution::Past(settle(h, found)?),
    })
}

fn between(h: &mut impl Reach, t1: i64, t2: i64) -> Result<Vec<Arc<HyGraph>>> {
    let (start, window) = h.with(|s| s.find_window(t1, t2))?;
    let mut out = Vec::with_capacity(window.len() + 1);
    out.push(settle(h, start)?);
    for c in &window {
        let mut state = HyGraph::clone(out.last().expect("holds the start state"));
        for m in &c.mutations {
            state.apply(m)?;
        }
        out.push(Arc::new(state));
    }
    Ok(out)
}

/// The resolution both [`TemporalResolver`]s run, with its metrics.
fn resolve_bound(h: &mut impl Reach, bound: &TemporalBound) -> Result<ResolvedStates> {
    let start = metrics::enabled().then(Instant::now);
    let resolved = match bound {
        TemporalBound::AsOfNow => return Ok(ResolvedStates::Live),
        TemporalBound::AsOf(t) => match as_of(h, t.millis())? {
            SnapshotResolution::Live => ResolvedStates::Live,
            SnapshotResolution::Past(state) => ResolvedStates::At(state),
        },
        TemporalBound::Between(t1, t2) => {
            ResolvedStates::Epochs(between(h, t1.millis(), t2.millis())?)
        }
    };
    if let Some(m) = metrics::get() {
        match bound {
            TemporalBound::Between(..) => m.temporal.between_queries.inc(),
            _ => m.temporal.asof_queries.inc(),
        }
        if let Some(s) = start {
            m.temporal.asof_us.observe_duration(s.elapsed());
        }
    }
    Ok(resolved)
}

impl TemporalResolver for HistoryStore {
    fn resolve(&mut self, bound: &TemporalBound) -> Result<ResolvedStates> {
        resolve_bound(self, bound)
    }
}

impl TemporalResolver for &SharedHistory {
    fn resolve(&mut self, bound: &TemporalBound) -> Result<ResolvedStates> {
        resolve_bound(self, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_types::{Interval, PropertyMap, Timestamp, Value};

    fn add_vertex(label: &str) -> HgMutation {
        HgMutation::AddPgVertex {
            labels: vec![label.into()],
            props: PropertyMap::new(),
            validity: Interval::from(Timestamp::from_millis(0)),
        }
    }

    fn set_prop(el: ElementRef, key: &str, v: i64) -> HgMutation {
        HgMutation::SetProperty {
            el,
            key: key.into(),
            value: Value::Int(v).into(),
        }
    }

    fn state_bytes(hg: &HyGraph) -> Vec<u8> {
        let mut w = ByteWriter::new();
        hg.encode_state(&mut w);
        w.into_bytes()
    }

    fn past(r: SnapshotResolution) -> Arc<HyGraph> {
        match r {
            SnapshotResolution::Past(state) => state,
            SnapshotResolution::Live => panic!("expected a past state"),
        }
    }

    fn replayed() -> usize {
        REPLAYED.with(|n| n.get())
    }

    /// A live graph plus a history mirroring every commit, with the
    /// full state after each commit for comparison.
    fn build(commit_batches: Vec<Vec<HgMutation>>) -> (HyGraph, HistoryStore, Vec<(i64, Vec<u8>)>) {
        let mut live = HyGraph::new();
        let mut history = HistoryStore::new(HistoryConfig::default(), &live, 0);
        let mut states = Vec::new();
        for (i, batch) in commit_batches.into_iter().enumerate() {
            let ts = history.allocate_ts((i as i64 + 1) * 1_000);
            for m in &batch {
                live.apply(m).unwrap();
            }
            history.record_commit(ts, batch);
            states.push((ts, state_bytes(&live)));
        }
        (live, history, states)
    }

    /// Seven commits mixing creations and rewrites of earlier vertices.
    fn churn() -> Vec<Vec<HgMutation>> {
        (0..7u64)
            .map(|i| {
                let mut batch = vec![add_vertex(&format!("L{i}"))];
                if i > 0 {
                    let v = ElementRef::Vertex(hygraph_types::VertexId::new(i - 1));
                    batch.push(set_prop(v, "x", i as i64));
                }
                batch
            })
            .collect()
    }

    #[test]
    fn snapshots_are_bit_identical_to_the_state_at_each_commit() {
        let (live, mut history, states) = build(vec![
            vec![add_vertex("A")],
            vec![add_vertex("B"), add_vertex("C")],
            vec![set_prop(
                ElementRef::Vertex(hygraph_types::VertexId::new(0)),
                "score",
                7,
            )],
        ]);
        for (ts, expected) in &states[..states.len() - 1] {
            match history.snapshot_at(*ts).unwrap() {
                SnapshotResolution::Past(past) => {
                    assert_eq!(&state_bytes(&past), expected, "AS OF {ts}")
                }
                SnapshotResolution::Live => panic!("AS OF {ts} should be in the past"),
            }
            // between commits the earlier state stays current
            match history.snapshot_at(*ts + 500).unwrap() {
                SnapshotResolution::Past(past) => assert_eq!(&state_bytes(&past), expected),
                SnapshotResolution::Live => panic!("AS OF {}+500 should be past", ts),
            }
        }
        // at or after the newest commit: live
        let last = states.last().unwrap().0;
        assert!(matches!(
            history.snapshot_at(last).unwrap(),
            SnapshotResolution::Live
        ));
        assert!(matches!(
            history.snapshot_at(i64::MAX).unwrap(),
            SnapshotResolution::Live
        ));
        // and full reconstruction equals the live bytes
        let full = history.replay_to(Some(2)).run().unwrap();
        assert_eq!(state_bytes(&full), state_bytes(&live));
    }

    /// A miss replays only the commits above the nearest cached state at
    /// or below its target — `(j, k]` — and lands on the same bytes as a
    /// full replay, for every `(j, k)` of a small history.
    #[test]
    fn a_miss_replays_only_from_the_nearest_cached_state() {
        let (_, _, states) = build(churn());
        let past_commits = states.len() - 1; // the newest resolves live
        for j in 0..past_commits {
            for k in 0..past_commits {
                let (_, mut history, _) = build(churn());
                past(history.snapshot_at(states[j].0).unwrap());
                let before = replayed();
                let got = past(history.snapshot_at(states[k].0).unwrap());
                let expected = match j.cmp(&k) {
                    std::cmp::Ordering::Less => k - j,
                    std::cmp::Ordering::Equal => 0, // a cache hit
                    std::cmp::Ordering::Greater => k + 1, // from the base
                };
                assert_eq!(replayed() - before, expected, "cached {j}, target {k}");
                assert_eq!(state_bytes(&got), states[k].1, "cached {j}, target {k}");
            }
        }
    }

    #[test]
    fn gc_folds_onto_a_cached_state_and_drops_the_states_below_the_horizon() {
        let (_live, mut history, states) = build(churn());
        for (ts, _) in &states[..4] {
            past(history.snapshot_at(*ts).unwrap());
        }
        // retention of 2.5s relative to t=5000 retires t=1000 and t=2000
        history.cfg.retain_ms = 2_500;
        let before = replayed();
        assert_eq!(history.gc(5_000), 2);
        assert_eq!(history.base_ts(), 2_000);
        assert_eq!(replayed(), before, "the state at t=2000 was cached");
        assert_eq!(state_bytes(history.base()), states[1].1, "base = the fold");
        let cached: Vec<i64> = history.cache.iter().map(|(ts, _)| *ts).collect();
        assert_eq!(
            cached,
            vec![3_000, 4_000],
            "states at or below the horizon dropped"
        );
        // the delta bytes left are exactly the retained commits'
        let mut scratch = ByteWriter::new();
        let retained: u64 = history
            .commits
            .iter()
            .flat_map(|c| c.mutations.iter())
            .map(|m| encoded_len(&mut scratch, m))
            .sum();
        assert_eq!(history.approx_bytes(), retained);

        // with nothing cached the fold replays onto a clone of the base
        let (_live, mut history, states) = build(churn());
        history.cfg.retain_ms = 2_500;
        let before = replayed();
        assert_eq!(history.gc(5_000), 2);
        assert_eq!(replayed() - before, 2);
        assert_eq!(state_bytes(history.base()), states[1].1);
    }

    #[test]
    fn before_base_errors_after_gc_horizon_moves() {
        let (_live, mut history, states) = build(vec![
            vec![add_vertex("A")],
            vec![add_vertex("B")],
            vec![add_vertex("C")],
        ]);
        assert!(history.snapshot_at(-5).is_err(), "before genesis");

        // retention of 1.5s relative to the last commit (t=3000)
        // retires the first commit (t=1000 < 3000 - 1500)
        history.cfg.retain_ms = 1_500;
        let folded = history.gc(3_000);
        assert_eq!(folded, 1);
        assert_eq!(history.base_ts(), 1_000);
        assert_eq!(history.commit_count(), 2);
        assert!(history.snapshot_at(500).is_err(), "below the new horizon");
        // the horizon itself still answers, bit-identically
        match history.snapshot_at(1_000).unwrap() {
            SnapshotResolution::Past(past) => {
                assert_eq!(state_bytes(&past), states[0].1);
            }
            SnapshotResolution::Live => panic!("t=1000 is past"),
        }
    }

    #[test]
    fn between_returns_one_state_per_epoch_in_the_window() {
        let (_live, mut history, states) = build(vec![
            vec![add_vertex("A")],
            vec![add_vertex("B")],
            vec![add_vertex("C")],
        ]);
        // window covering commits 2 and 3, starting inside epoch 1
        let got = history.states_between(1_500, 3_500).unwrap();
        assert_eq!(got.len(), 3, "epoch at t1 + two commits in window");
        assert_eq!(state_bytes(&got[0]), states[0].1);
        assert_eq!(state_bytes(&got[1]), states[1].1);
        assert_eq!(state_bytes(&got[2]), states[2].1);
        // degenerate window: just the state at t1
        let got = history.states_between(2_100, 2_900).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(state_bytes(&got[0]), states[1].1);
        assert!(history.states_between(-1, 100).is_err(), "below horizon");
    }

    #[test]
    fn allocate_ts_is_strictly_increasing_under_clock_stalls() {
        let mut history = HistoryStore::new(HistoryConfig::default(), &HyGraph::new(), 0);
        let a = history.allocate_ts(100);
        let b = history.allocate_ts(100); // clock stalled
        let c = history.allocate_ts(50); // clock stepped back
        assert!(a < b && b < c, "{a} {b} {c}");
        let d = history.allocate_ts(10_000);
        assert_eq!(d, 10_000, "clock ahead of floor wins");
    }

    #[test]
    fn version_chains_and_bytes_track_recorded_deltas() {
        let v0 = ElementRef::Vertex(hygraph_types::VertexId::new(0));
        let (_live, history, _) = build(vec![
            vec![add_vertex("A")],
            vec![set_prop(v0, "x", 1)],
            vec![set_prop(v0, "x", 2), set_prop(v0, "y", 9)],
        ]);
        assert_eq!(history.version_chain_max(), 3, "three rewrites of v0");
        assert!(history.approx_bytes() > 0);
        assert_eq!(history.commit_count(), 3);
        assert_eq!(history.commit_timestamps(), vec![1_000, 2_000, 3_000]);
    }

    #[test]
    fn snapshot_cache_serves_repeats_and_evicts() {
        let (_live, mut history, states) = build(vec![
            vec![add_vertex("A")],
            vec![add_vertex("B")],
            vec![add_vertex("C")],
        ]);
        history.cfg.snapshot_cache = 2;
        for _ in 0..3 {
            for (ts, expected) in &states[..2] {
                match history.snapshot_at(*ts).unwrap() {
                    SnapshotResolution::Past(p) => assert_eq!(&state_bytes(&p), expected),
                    SnapshotResolution::Live => panic!("past expected"),
                }
            }
        }
        assert!(history.cache.len() <= 2, "cache bounded");
    }

    #[test]
    fn shared_and_owned_resolution_agree() {
        let (_live, mut owned, states) = build(churn());
        let (_live, history, _) = build(churn());
        let shared = SharedHistory::new(history);
        let bounds = [
            TemporalBound::AsOf(Timestamp::from_millis(3_000)),
            TemporalBound::AsOf(Timestamp::from_millis(5_500)),
            TemporalBound::Between(Timestamp::from_millis(1_500), Timestamp::from_millis(4_000)),
        ];
        for bound in &bounds {
            let a = owned.resolve(bound).unwrap();
            let b = (&shared).resolve(bound).unwrap();
            let bytes = |r: ResolvedStates| match r {
                ResolvedStates::At(s) => vec![state_bytes(&s)],
                ResolvedStates::Epochs(ss) => ss.iter().map(|s| state_bytes(s.as_ref())).collect(),
                ResolvedStates::Live => panic!("past bound resolved live"),
            };
            assert_eq!(bytes(a), bytes(b), "{bound:?}");
        }
        assert_eq!(shared.lock().commit_timestamps().len(), states.len());
        assert_eq!(shared.lock().cache.len(), owned.cache.len());
    }

    #[test]
    fn resolver_maps_bounds_to_resolved_states() {
        let (_live, mut history, states) =
            build(vec![vec![add_vertex("A")], vec![add_vertex("B")]]);
        let r: &mut dyn TemporalResolver = &mut history;
        assert!(matches!(
            r.resolve(&TemporalBound::AsOfNow).unwrap(),
            ResolvedStates::Live
        ));
        match r
            .resolve(&TemporalBound::AsOf(Timestamp::from_millis(1_000)))
            .unwrap()
        {
            ResolvedStates::At(state) => assert_eq!(state_bytes(&state), states[0].1),
            other => panic!("expected At, got {other:?}"),
        }
        match r
            .resolve(&TemporalBound::Between(
                Timestamp::from_millis(1_000),
                Timestamp::from_millis(2_000),
            ))
            .unwrap()
        {
            ResolvedStates::Epochs(states_got) => assert_eq!(states_got.len(), 2),
            other => panic!("expected Epochs, got {other:?}"),
        }
    }
}
