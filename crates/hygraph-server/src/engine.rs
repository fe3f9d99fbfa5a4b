//! The execution engine every connection shares: one HyGraph instance
//! — in memory or in the durable [`ShardedStore`] — behind the lock
//! discipline the shard count selects.
//!
//! With one shard (`HYGRAPH_SHARDS=1`) queries take the read lock of a
//! readers/writer lock and run concurrently; mutations take the write
//! lock and go through the store's group-commit path (one WAL stream)
//! when persistence is on.
//!
//! With more than one shard the engine switches to **epoch-based
//! snapshot reads**: the backend lock becomes a pure commit lock
//! (writers serialise on it; readers never touch it), and after every
//! committed batch the writer publishes a new immutable
//! [`Arc<HyGraph>`] snapshot into a dedicated slot. Queries pin the
//! current snapshot (one `Arc` clone — the interior is persistent
//! tries, so publication is O(changed structure), not O(data)) and
//! execute against it without blocking behind writers. Either way a
//! query runs through the same `hygraph_query::execute_planned` pass:
//! the shard count selects how state is pinned (read guard vs `Arc`
//! clone), never how a query executes; the [`ShardRouter`] only places
//! WAL frames and routes subscriptions. A snapshot is published
//! only after the whole batch applied (and, for durable backends,
//! after every involved shard's WAL synced), so a reader can never
//! observe a torn batch. The engine is the single place that maps
//! [`Request`]s to [`Response`]s, so the TCP server, the in-process
//! [`crate::LocalClient`], and the load generator all execute requests
//! identically.

use crate::proto::{ErrorCode, Request, Response};
use hygraph_core::HyGraph;
use hygraph_persist::{Durable, HgMutation, ShardedStore};
use hygraph_query::{PlanCacheHook, PlannedQuery, QueryResult, TemporalBound, TemporalResolver};
use hygraph_sub::{DeltaSink, SubConfig, SubscriptionRegistry};
use hygraph_temporal::{
    now_ms, HistoryConfig, HistorySeed, HistoryStore, ShardWatermark, SharedHistory,
};
use hygraph_types::bytes::ByteWriter;
use hygraph_types::shard::{ShardConfig, ShardRouter};
use hygraph_types::{Result, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};
use std::time::Instant;

/// Default plan-cache capacity when `HYGRAPH_PLAN_CACHE` is unset.
const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

/// A bounded move-to-front LRU of compiled plans, keyed by the query's
/// canonical fingerprint. Plans are data-independent (pattern
/// compilation never looks at the instance), so entries stay valid
/// across mutations and a cached plan re-executes against whatever
/// state the read lock currently exposes.
struct PlanCache {
    entries: Mutex<Vec<(u64, Arc<PlannedQuery>)>>,
    capacity: usize,
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        Self {
            entries: Mutex::new(Vec::with_capacity(capacity)),
            capacity,
        }
    }
}

impl PlanCacheHook for PlanCache {
    fn get(&self, fingerprint: u64) -> Option<Arc<PlannedQuery>> {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let pos = entries.iter().position(|(fp, _)| *fp == fingerprint)?;
        let hit = entries.remove(pos);
        let plan = Arc::clone(&hit.1);
        entries.insert(0, hit); // move to front
        Some(plan)
    }

    fn put(&self, fingerprint: u64, plan: Arc<PlannedQuery>) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(pos) = entries.iter().position(|(fp, _)| *fp == fingerprint) {
            entries.remove(pos);
        }
        entries.insert(0, (fingerprint, plan));
        entries.truncate(self.capacity);
    }
}

/// Plan-cache capacity from `HYGRAPH_PLAN_CACHE` (`0` disables the
/// cache; unset/unparsable falls back to the default of
/// [`DEFAULT_PLAN_CACHE_CAPACITY`]).
fn plan_cache_capacity_from_env() -> usize {
    std::env::var("HYGRAPH_PLAN_CACHE")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(DEFAULT_PLAN_CACHE_CAPACITY)
}

/// The state a server serves: the full hybrid model, either purely in
/// memory or wrapped in the WAL/checkpoint engine.
pub enum Backend {
    /// In-memory only — mutations die with the process. `applied`
    /// counts mutations so replies carry monotone pseudo-LSNs.
    Memory {
        /// The instance.
        hg: Box<HyGraph>,
        /// Mutations applied so far (the pseudo-LSN counter).
        applied: u64,
    },
    /// Durable: every committed mutation is WAL-logged and survives a
    /// crash. One WAL stream per shard (one in all at a single shard),
    /// frames placed by [`ShardRouter`], recovery re-merged by global
    /// commit sequence number (see [`ShardedStore`]).
    Sharded(Box<ShardedStore<HyGraph>>),
}

impl Backend {
    /// An in-memory backend over `hg`.
    pub fn memory(hg: HyGraph) -> Self {
        Backend::Memory {
            hg: Box::new(hg),
            applied: 0,
        }
    }

    /// A durable backend over an opened store.
    pub fn sharded(store: ShardedStore<HyGraph>) -> Self {
        Backend::Sharded(Box::new(store))
    }

    /// The wrapped instance, whichever backend holds it.
    pub fn graph(&self) -> &HyGraph {
        match self {
            Backend::Memory { hg, .. } => hg,
            Backend::Sharded(store) => store.get(),
        }
    }

    /// The exact binary state encoding (recovery tests compare these
    /// bytes for bit-identity across a shutdown/reopen cycle).
    pub fn state_bytes(&self) -> Vec<u8> {
        match self {
            Backend::Memory { hg, .. } => {
                let mut w = ByteWriter::new();
                hg.encode_state(&mut w);
                w.into_bytes()
            }
            Backend::Sharded(store) => store.state_bytes(),
        }
    }
}

/// Both per-shard position feeds of a sharded backend, captured under
/// one lock acquisition so the two views are mutually consistent.
struct ShardPositions {
    /// Per-stream `(next_lsn, durable_lsn)` WAL-depth lanes (frames
    /// numbered independently from 0 per shard).
    lanes: Vec<(u64, u64)>,
    /// Per-shard durable **CSN** frontiers — the watermark feed.
    frontiers: Vec<u64>,
}

/// Thread-safe request executor over a [`Backend`] (see module docs).
pub struct Engine {
    inner: RwLock<Backend>,
    /// Shared compiled-plan LRU; `None` when `HYGRAPH_PLAN_CACHE=0`.
    plan_cache: Option<PlanCache>,
    /// Standing queries. Registration runs under the read lock (a
    /// snapshot and its registration are atomic w.r.t. writers);
    /// [`Engine::mutate_batch`] notifies it under the write lock, so
    /// every subscriber observes each committed batch exactly once, in
    /// commit order.
    subs: SubscriptionRegistry,
    /// Transaction-time history (`None` when `HYGRAPH_HISTORY=0`): the
    /// in-memory base plus the commit timeline behind `AS OF` /
    /// `BETWEEN`. Its mutex covers bookkeeping only: commits allocate a
    /// timestamp and record under the backend write lock; a temporal
    /// query takes it inside [`hygraph_query::TemporalResolver::resolve`]
    /// just to look up its start state (the base or the nearest cached
    /// epoch) and to cache what it rebuilt — the replay and the
    /// execution run unlocked, and a live query never touches it. Lock
    /// order is always backend lock first, then this mutex.
    history: Option<SharedHistory>,
    /// The element → shard partitioning every layer of this engine
    /// agrees on. Single-shard routers select the legacy lock paths.
    router: ShardRouter,
    /// Multi-shard only: the published read snapshot. Writers replace
    /// the `Arc` under the backend write lock after each committed
    /// batch; readers clone it (pinning that epoch) and never take the
    /// backend lock at all. `None` exactly when `router.is_single()`.
    snapshot: Option<RwLock<Arc<HyGraph>>>,
    /// Monotone snapshot-publication counter (the read epoch). Starts
    /// at 0 for the initial state; each published batch bumps it.
    epoch: AtomicU64,
    /// Weak handles to every published snapshot version, pruned as
    /// readers release their pins — the feed for the
    /// `hygraph_snapshot_pinned` gauge. Structural sharing keeps a
    /// retired epoch's marginal footprint at the structure that changed
    /// since, but a reader pinning one for a long scan still holds that
    /// delta live; this gauge is how operators see it.
    pinned: Mutex<Vec<Weak<HyGraph>>>,
    /// Cross-shard durable watermark tracker, fed from the sharded
    /// store's per-shard durable CSN frontiers whenever stats are
    /// reported.
    watermark: Mutex<ShardWatermark>,
}

impl Engine {
    /// An engine serving `backend`, with the plan-cache capacity taken
    /// from `HYGRAPH_PLAN_CACHE` (default 64 entries, `0` disables) and
    /// history from `HYGRAPH_HISTORY` / `HYGRAPH_HISTORY_RETAIN_SECS`.
    pub fn new(backend: Backend) -> Self {
        Self::with_plan_cache(backend, plan_cache_capacity_from_env())
    }

    /// An engine with an explicit plan-cache capacity (`0` disables) —
    /// lets tests pin the behaviour regardless of the environment.
    /// History still comes from the environment.
    pub fn with_plan_cache(backend: Backend, capacity: usize) -> Self {
        Self::with_history_config(backend, capacity, HistoryConfig::from_env())
    }

    /// An engine with both the plan cache and the history config pinned
    /// explicitly. History is seeded from the backend's *current* state
    /// — its horizon is now (memory) or the recovered watermark
    /// (durable). To keep pre-restart commits individually
    /// time-addressable, open with [`Engine::open_durable`] instead.
    pub fn with_history_config(backend: Backend, capacity: usize, cfg: HistoryConfig) -> Self {
        let history = cfg.enabled.then(|| match &backend {
            Backend::Memory { hg, .. } => HistoryStore::new(cfg.clone(), hg, 0),
            Backend::Sharded(store) => {
                HistoryStore::new(cfg.clone(), store.get(), store.history_watermark())
            }
        });
        Self::with_seeded_history(backend, capacity, history)
    }

    /// An engine over a pre-seeded history (or none) — the assembly
    /// point the other constructors and [`Engine::open_durable`] share.
    /// The shard count comes from the workspace config
    /// ([`hygraph_types::shard::configured_shards`]): explicit install,
    /// else `HYGRAPH_SHARDS`, else one per core — except that a backend
    /// already opened as [`Backend::Sharded`] pins the engine to that
    /// store's recorded shard count (routing must match frame
    /// placement).
    pub fn with_seeded_history(
        backend: Backend,
        capacity: usize,
        history: Option<HistoryStore>,
    ) -> Self {
        let router = match &backend {
            // a durable store fixes the shard count on disk
            Backend::Sharded(store) => store.router(),
            Backend::Memory { .. } => ShardConfig::new().router(),
        };
        let initial = (!router.is_single()).then(|| Arc::new(backend.graph().clone()));
        let pinned = Mutex::new(initial.iter().map(Arc::downgrade).collect());
        Self {
            inner: RwLock::new(backend),
            plan_cache: (capacity > 0).then(|| PlanCache::new(capacity)),
            subs: SubscriptionRegistry::from_env(),
            history: history.map(SharedHistory::new),
            watermark: Mutex::new(ShardWatermark::new(router.shards())),
            router,
            snapshot: initial.map(RwLock::new),
            epoch: AtomicU64::new(0),
            pinned,
        }
    }

    /// Re-partitions a (memory-backed) engine to exactly `shards`
    /// shards, regardless of the environment — how tests and the bench
    /// harness pin the lock discipline. `1` restores the legacy
    /// readers/writer-lock engine; `> 1` enables snapshot reads.
    /// Durable backends ignore this (their shard count is recorded on
    /// disk); re-shard those by reopening the directory via
    /// [`Engine::open_durable`] under a different `HYGRAPH_SHARDS`.
    pub fn with_shards(mut self, shards: usize) -> Self {
        let (router, initial) = {
            let guard = self.read();
            let router = match &*guard {
                Backend::Sharded(store) => store.router(),
                Backend::Memory { .. } => ShardRouter::new(shards),
            };
            let initial = (!router.is_single()).then(|| Arc::new(guard.graph().clone()));
            (router, initial)
        };
        self.router = router;
        self.pinned = Mutex::new(initial.iter().map(Arc::downgrade).collect());
        self.snapshot = initial.map(RwLock::new);
        self.watermark = Mutex::new(ShardWatermark::new(self.router.shards()));
        self
    }

    /// Opens (or initialises) a durable backend at `dir`, seeding
    /// history from the recovery stream itself: the checkpoint becomes
    /// the history base at its watermark and every replayed WAL frame
    /// above it re-enters the commit timeline with its original
    /// transaction timestamp — `AS OF` keeps answering across restarts
    /// for everything the log still covers.
    ///
    /// The configured shard count
    /// ([`hygraph_types::shard::configured_shards`]) is the number of
    /// WAL streams the [`ShardedStore`] keeps — see
    /// [`Engine::open_durable_sharded`].
    pub fn open_durable(
        dir: impl Into<std::path::PathBuf>,
        capacity: usize,
        cfg: HistoryConfig,
    ) -> Result<Self> {
        Self::open_durable_sharded(
            dir,
            capacity,
            cfg,
            hygraph_types::shard::configured_shards(),
        )
    }

    /// [`Engine::open_durable`] with the shard count pinned explicitly:
    /// the store keeps `shards` WAL streams (one at `1`), migrating a
    /// pre-shard single-WAL directory once or re-sharding one recorded
    /// at a different count.
    pub fn open_durable_sharded(
        dir: impl Into<std::path::PathBuf>,
        capacity: usize,
        cfg: HistoryConfig,
        shards: usize,
    ) -> Result<Self> {
        if !cfg.enabled {
            let store = ShardedStore::open(dir, shards)?;
            return Ok(Self::with_seeded_history(
                Backend::sharded(store),
                capacity,
                None,
            ));
        }
        let mut seed = HistorySeed::new(cfg);
        let store = ShardedStore::open_observed(dir, shards, &mut seed)?;
        Ok(Self::with_seeded_history(
            Backend::sharded(store),
            capacity,
            Some(seed.finish()?),
        ))
    }

    /// Replaces the subscription-layer settings (cap, push-buffer
    /// depth) — lets tests pin them regardless of the environment.
    pub fn with_sub_config(mut self, cfg: SubConfig) -> Self {
        self.subs = SubscriptionRegistry::new(cfg);
        self
    }

    /// The standing-query registry this engine notifies on commit.
    pub fn subscriptions(&self) -> &SubscriptionRegistry {
        &self.subs
    }

    /// Registers a standing query for connection `conn` under the read
    /// lock: the returned snapshot and the registration are atomic with
    /// respect to mutation batches.
    pub fn subscribe(
        &self,
        text: &str,
        conn: u64,
        sink: Arc<dyn DeltaSink>,
    ) -> Result<(u64, QueryResult)> {
        let guard = self.read();
        self.subs.subscribe(guard.graph(), text, conn, sink)
    }

    /// Removes standing query `sub_id` if it belongs to `conn`.
    pub fn unsubscribe(&self, conn: u64, sub_id: u64) -> bool {
        self.subs.unsubscribe(conn, sub_id)
    }

    /// Drops every standing query of a disconnected client.
    pub fn drop_conn(&self, conn: u64) {
        self.subs.drop_conn(conn);
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Backend> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Backend> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Executes a HyQL query under the read lock (concurrent with other
    /// queries), consulting the engine's plan cache: repeated query
    /// shapes skip parsing's downstream cost — lowering, optimization,
    /// and pattern compilation — and go straight to execution. Queries
    /// carrying `AS OF` / `BETWEEN` resolve against the engine's
    /// history; with history disabled they fail with a typed error
    /// (`AS OF NOW()` still degrades gracefully to the live state).
    pub fn query(&self, text: &str) -> Result<QueryResult> {
        self.run_query(text, None)
    }

    /// [`Engine::query`] pinned to the state as of `as_of_ms` (epoch
    /// milliseconds of transaction time) — the structured-request form
    /// of suffixing the text's MATCH with `AS OF <t>`. Rejects text
    /// that already carries its own temporal bound.
    pub fn query_as_of(&self, text: &str, as_of_ms: i64) -> Result<QueryResult> {
        self.run_query(
            text,
            Some(TemporalBound::AsOf(Timestamp::from_millis(as_of_ms))),
        )
    }

    fn run_query(&self, text: &str, bound: Option<TemporalBound>) -> Result<QueryResult> {
        let cache = self.plan_cache.as_ref().map(|c| c as &dyn PlanCacheHook);
        match &self.snapshot {
            // Multi-shard: pin the published epoch (one Arc clone, the
            // slot lock held only for that clone) and execute against
            // the immutable snapshot — never blocking behind a writer
            // mid-commit.
            Some(slot) => {
                let snap = Arc::clone(&slot.read().unwrap_or_else(|e| e.into_inner()));
                self.run_pinned(&snap, text, cache, bound)
            }
            // Single shard: the exact legacy path — queries share the
            // backend read lock with each other and exclude writers.
            None => {
                let guard = self.read();
                self.run_pinned(guard.graph(), text, cache, bound)
            }
        }
    }

    fn run_pinned(
        &self,
        hg: &HyGraph,
        text: &str,
        cache: Option<&dyn PlanCacheHook>,
        bound: Option<TemporalBound>,
    ) -> Result<QueryResult> {
        // the resolver locks history only for its lookup and its cache
        // insert, and only when the query carries a temporal bound
        let mut history = self.history.as_ref();
        let resolver = history.as_mut().map(|h| h as &mut dyn TemporalResolver);
        hygraph_query::run_instrumented_bound(hg, text, cache, resolver, bound)
    }

    /// Publishes the current backend state as the new read snapshot
    /// (multi-shard engines only; a no-op at one shard). Callers hold
    /// the backend write lock, so publications happen in commit order.
    /// The whole step — clone (structural sharing makes it O(structure
    /// changed by the batch)), slot swap, and the drop of the previous
    /// epoch's last unpinned reference — lands in the
    /// `hygraph_commit_publish_us` histogram: it is the per-commit cost
    /// snapshot publication adds to the write path.
    fn publish(&self, hg: &HyGraph) {
        if let Some(slot) = &self.snapshot {
            let start = Instant::now();
            let next = Arc::new(hg.clone());
            let retired = std::mem::replace(
                &mut *slot.write().unwrap_or_else(|e| e.into_inner()),
                Arc::clone(&next),
            );
            self.epoch.fetch_add(1, Ordering::Release);
            drop(retired);
            if let Some(m) = hygraph_metrics::get() {
                m.shard.commit_publish_us.observe_duration(start.elapsed());
            }
            let mut pinned = self.pinned.lock().unwrap_or_else(|e| e.into_inner());
            pinned.retain(|w| w.strong_count() > 0);
            pinned.push(Arc::downgrade(&next));
        }
    }

    /// Pins the currently published snapshot — the handle a long-running
    /// reader (an export, an analytics scan, the bench harness) holds to
    /// keep one epoch stable across many queries. `None` on single-shard
    /// engines, which have no snapshot plane. While the returned `Arc`
    /// lives, that epoch counts into the `hygraph_snapshot_pinned`
    /// gauge.
    pub fn pin_snapshot(&self) -> Option<Arc<HyGraph>> {
        self.snapshot
            .as_ref()
            .map(|slot| Arc::clone(&slot.read().unwrap_or_else(|e| e.into_inner())))
    }

    /// How many published snapshot versions are currently alive: the
    /// slot's own epoch plus every retired epoch a reader still pins.
    /// `0` on single-shard engines. Prunes released epochs as a side
    /// effect.
    pub fn pinned_snapshots(&self) -> usize {
        let mut pinned = self.pinned.lock().unwrap_or_else(|e| e.into_inner());
        pinned.retain(|w| w.strong_count() > 0);
        pinned.len()
    }

    /// How many shards this engine partitions its commit/storage plane
    /// into (`1` = one WAL stream, reads under the read/write lock).
    pub fn shards(&self) -> usize {
        self.router.shards()
    }

    /// The engine's element → shard router.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// The read epoch: how many snapshots have been published. `0`
    /// until the first committed batch; single-shard engines never
    /// publish and stay at `0`.
    pub fn snapshot_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Per-shard `(next_lsn, durable_lsn)` pairs of a sharded backend,
    /// `None` otherwise — the feed for the per-shard WAL-depth gauges.
    /// These are per-stream frame counters (each shard's WAL numbers
    /// frames independently from 0), **not** global commit sequence
    /// numbers; the cross-shard watermark is derived from the store's
    /// CSN frontiers instead.
    pub fn shard_lsns(&self) -> Option<Vec<(u64, u64)>> {
        self.shard_positions().map(|p| p.lanes)
    }

    /// Both per-shard position feeds of a sharded backend, read under
    /// one lock acquisition: the WAL-stream `(next_lsn, durable_lsn)`
    /// lanes and the durable CSN frontiers.
    fn shard_positions(&self) -> Option<ShardPositions> {
        match &*self.read() {
            Backend::Sharded(store) => Some(ShardPositions {
                lanes: store.shard_lsns(),
                frontiers: store.shard_csn_frontiers(),
            }),
            Backend::Memory { .. } => None,
        }
    }

    /// The cross-shard durable watermark: the commit sequence number
    /// strictly below which every shard's WAL is durable (see
    /// [`ShardWatermark`]), fed from the sharded store's per-shard
    /// durable **CSN** frontiers — a shard that happens to receive
    /// little traffic does not pin the watermark, because a fully
    /// synced shard's frontier is the store-wide next CSN. For memory
    /// backends this is simply the last frontier observed (0). The
    /// tracker is fed on every stats report and on demand here, so the
    /// returned value is current as of this call.
    pub fn shard_watermark(&self) -> u64 {
        let frontiers = self.shard_positions().map(|p| p.frontiers);
        let mut wm = self.watermark.lock().unwrap_or_else(|e| e.into_inner());
        match frontiers {
            Some(frontiers) => wm.observe_frontiers(&frontiers),
            None => wm.watermark(),
        }
    }

    /// Folds the sharded backend's per-shard WAL positions and CSN
    /// watermark into the global metrics registry's shard gauges
    /// (no-op for memory backends or when metrics are disabled).
    /// Called on every [`Request::Stats`]; the periodic metrics logger
    /// reaches it the same way.
    fn report_shard_metrics(&self) {
        let Some(m) = hygraph_metrics::get() else {
            return;
        };
        // the pinned-snapshot gauge covers every multi-shard engine,
        // memory-backed included — it reads the snapshot plane, not the
        // store
        m.shard.snapshot_pinned.set(self.pinned_snapshots() as i64);
        let Some(ShardPositions { lanes, frontiers }) = self.shard_positions() else {
            return;
        };
        let watermark = {
            let mut wm = self.watermark.lock().unwrap_or_else(|e| e.into_inner());
            wm.observe_frontiers(&frontiers)
        };
        m.shard.set_lanes(&lanes, watermark);
    }

    /// Runs `f` against the instance under the read lock — how tests
    /// compare served results against direct library calls.
    pub fn with_graph<R>(&self, f: impl FnOnce(&HyGraph) -> R) -> R {
        f(self.read().graph())
    }

    /// Applies a batch of mutations under the write lock. Durable
    /// backends group-commit (WAL append + one fsync); on reply the
    /// batch is on disk. Returns `(first_lsn, count)`.
    pub fn mutate_batch(&self, mut mutations: Vec<HgMutation>) -> Result<(u64, u64)> {
        let count = mutations.len() as u64;
        let mut guard = self.write();
        // the write lock excludes concurrent subscribes, so the check
        // cannot race a registration
        let notify = !self.subs.is_empty();
        // allocate the batch's transaction timestamp before staging so
        // WAL frames carry the same stamp the history records
        let ts = self.history.as_ref().map(|h| {
            let ts = h.lock().allocate_ts(now_ms());
            // one cross-shard commit timestamp per batch: every involved
            // shard's frames carry the same stamp, so an `AS OF` bound
            // cuts all shards at the same point
            if let Backend::Sharded(store) = &mut *guard {
                store.set_commit_ts(ts);
            }
            ts
        });
        let pre_v = guard.graph().topology().vertex_capacity();
        let pre_e = guard.graph().topology().edge_capacity();
        let (outcome, applied_n) = match &mut *guard {
            Backend::Memory { hg, applied } => {
                let mut res = Ok((*applied, count));
                let mut n = 0usize;
                for m in &mutations {
                    if let Err(e) = hg.apply(m) {
                        res = Err(e);
                        break;
                    }
                    *applied += 1;
                    n += 1;
                }
                (res, n)
            }
            Backend::Sharded(store) => {
                let before = store.next_csn();
                // history and subscribers read the batch after the
                // commit; with neither, it moves into the store uncloned
                let res = if ts.is_some() || notify {
                    store.commit_batch(mutations.iter().cloned())
                } else {
                    store.commit_batch(mutations.drain(..))
                };
                // a failed batch keeps its staged prefix; the CSN delta
                // is exactly how many mutations applied
                let res = res.map(|range| (range.start, range.end - range.start));
                (res, (store.next_csn() - before) as usize)
            }
        };
        // publication and the history record share one history lock
        // hold (the fan-out between them needs the batch the record
        // then takes): a resolver that finds `AS OF t` at the newest
        // recorded commit answers with the pinned epoch, so no resolver
        // may see an epoch published that history has not recorded yet
        let mut history = self.history.as_ref().map(SharedHistory::lock);
        // readers advance to the batch (or its kept prefix) only now —
        // a pinned snapshot can never show a torn batch
        self.publish(guard.graph());
        if notify {
            // both backends keep the valid prefix of a failed batch, so
            // subscribers must still observe it (failed => rebuild path)
            self.subs
                .on_commit(guard.graph(), &mutations, pre_v, pre_e, outcome.is_err());
        }
        if let (Some(ts), Some(h)) = (ts, &mut history) {
            // record the applied prefix — history replays must
            // reproduce exactly what the store kept; the batch moves in
            mutations.truncate(applied_n);
            h.record_commit(ts, mutations);
        }
        outcome
    }

    /// The timestamps of every commit the history currently retains
    /// (oldest first), or `None` with history disabled — how tests and
    /// the bench harness pick `AS OF` targets.
    pub fn history_commit_timestamps(&self) -> Option<Vec<i64>> {
        self.history.as_ref().map(|h| h.lock().commit_timestamps())
    }

    /// The history horizon (`base_ts`), or `None` with history off.
    pub fn history_horizon(&self) -> Option<i64> {
        self.history.as_ref().map(|h| h.lock().base_ts())
    }

    /// Forces a checkpoint on a durable backend; a no-op pseudo-LSN
    /// report on a memory backend.
    pub fn checkpoint(&self) -> Result<u64> {
        let mut guard = self.write();
        match &mut *guard {
            Backend::Memory { applied, .. } => Ok(*applied),
            Backend::Sharded(store) => {
                store.checkpoint()?;
                Ok(store.checkpoint_csn())
            }
        }
    }

    /// Makes every staged mutation durable — the shutdown path's final
    /// WAL sync. A no-op for memory backends.
    pub fn sync(&self) -> Result<()> {
        match &mut *self.write() {
            Backend::Memory { .. } => Ok(()),
            Backend::Sharded(store) => store.sync(),
        }
    }

    /// Executes one request, mapping every failure to a typed error
    /// response — the engine never panics on client input and never
    /// loses an error. [`Request::Sleep`] is *not* handled here (it
    /// would hold no lock but would still occupy this call); the worker
    /// pool services it before consulting the engine.
    pub fn handle(&self, request: &Request) -> Response {
        let result = match request {
            Request::Ping | Request::Sleep(_) => return Response::Pong,
            // near lock-free: the registry is all atomics (a disabled
            // registry answers with an all-zero snapshot so the wire
            // request never errors); a sharded backend first folds its
            // WAL lane positions into the per-shard gauges
            Request::Stats => {
                self.report_shard_metrics();
                return Response::Stats(Box::new(hygraph_metrics::snapshot().unwrap_or_default()));
            }
            Request::Query(text) => self.query(text).map(Response::Rows),
            Request::QueryAsOf { text, as_of_ms } => {
                self.query_as_of(text, *as_of_ms).map(Response::Rows)
            }
            Request::Mutate(m) => self
                .mutate_batch(vec![m.clone()])
                .map(|(first_lsn, count)| Response::Committed { first_lsn, count }),
            Request::MutateBatch(ms) => self
                .mutate_batch(ms.clone())
                .map(|(first_lsn, count)| Response::Committed { first_lsn, count }),
            Request::Checkpoint => self
                .checkpoint()
                .map(|lsn| Response::CheckpointDone { lsn }),
            // subscriptions are connection-scoped: the serving layer
            // intercepts these before the engine (it owns the sink); a
            // connectionless caller (LocalClient) has nowhere to push
            Request::Subscribe(_) | Request::Unsubscribe { .. } => {
                return Response::Error {
                    code: ErrorCode::Exec,
                    message: "subscriptions require a connection; use Client::subscribe \
                              over TCP"
                        .to_string(),
                }
            }
        };
        result.unwrap_or_else(|e| Response::Error {
            code: ErrorCode::Exec,
            message: e.to_string(),
        })
    }

    /// The exact binary state encoding at this instant.
    pub fn state_bytes(&self) -> Vec<u8> {
        self.read().state_bytes()
    }

    /// Consumes the engine, returning the backend (the shutdown path
    /// hands it back for inspection or reuse).
    pub fn into_backend(self) -> Backend {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let guard = self.read();
        let kind = match &*guard {
            Backend::Memory { .. } => "memory",
            Backend::Sharded(_) => "sharded",
        };
        f.debug_struct("Engine")
            .field("backend", &kind)
            .field("shards", &self.router.shards())
            .field("vertices", &guard.graph().vertex_count())
            .finish()
    }
}

// `HyGraphError` values crossing the engine are plain data; the lock
// poisoning strategy above (into_inner) means a panicking writer cannot
// wedge the server — but engine code paths return errors instead of
// panicking in the first place.
fn _engine_is_send_sync(e: Engine) -> impl Send + Sync {
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_types::{Interval, Label, PropertyMap, SeriesId, Timestamp};

    fn seed_mutations() -> Vec<HgMutation> {
        vec![
            HgMutation::AddSeries {
                names: vec!["avail".into()],
                rows: vec![],
            },
            HgMutation::AddTsVertex {
                labels: vec![Label::new("Station")],
                series: SeriesId::new(0),
            },
            HgMutation::AddPgVertex {
                labels: vec![Label::new("User")],
                props: PropertyMap::new(),
                validity: Interval::ALL,
            },
            HgMutation::Append {
                series: SeriesId::new(0),
                t: Timestamp::from_millis(5),
                row: vec![3.5],
            },
        ]
    }

    #[test]
    fn memory_engine_serves_queries_and_mutations() {
        let engine = Engine::new(Backend::memory(HyGraph::new()));
        let (first, count) = engine.mutate_batch(seed_mutations()).unwrap();
        assert_eq!((first, count), (0, 4));
        let r = engine
            .query("MATCH (s:Station) RETURN COUNT(s) AS n")
            .unwrap();
        assert_eq!(r.rows[0][0], hygraph_types::Value::Int(1));
        // pseudo-LSNs advance monotonically
        let (first, _) = engine
            .mutate_batch(vec![HgMutation::AddPgVertex {
                labels: vec![Label::new("User")],
                props: PropertyMap::new(),
                validity: Interval::ALL,
            }])
            .unwrap();
        assert_eq!(first, 4);
    }

    #[test]
    fn handle_maps_failures_to_error_responses() {
        let engine = Engine::new(Backend::memory(HyGraph::new()));
        // bad query text
        let resp = engine.handle(&Request::Query("MTCH oops".into()));
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::Exec,
                ..
            }
        ));
        // mutation referencing a missing series
        let resp = engine.handle(&Request::Mutate(HgMutation::Append {
            series: SeriesId::new(99),
            t: Timestamp::from_millis(0),
            row: vec![1.0],
        }));
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::Exec,
                ..
            }
        ));
        assert_eq!(engine.handle(&Request::Ping), Response::Pong);
    }

    #[test]
    fn plan_cache_reuses_and_evicts() {
        let cache = PlanCache::new(2);
        let plan = |text: &str| {
            let q = hygraph_query::parser::parse(text).unwrap();
            (
                hygraph_query::plan::fingerprint(&q),
                Arc::new(hygraph_query::plan_query(&q).unwrap()),
            )
        };
        let (fp_a, a) = plan("MATCH (u:User) RETURN u");
        let (fp_b, b) = plan("MATCH (m:Merchant) RETURN m");
        let (fp_c, c) = plan("MATCH (c:Card) RETURN c");
        assert!(cache.get(fp_a).is_none());
        cache.put(fp_a, a);
        cache.put(fp_b, b);
        assert!(cache.get(fp_a).is_some(), "hit moves a to front");
        cache.put(fp_c, c); // evicts b (least recently used)
        assert!(cache.get(fp_a).is_some());
        assert!(cache.get(fp_c).is_some());
        assert!(cache.get(fp_b).is_none(), "b evicted at capacity 2");
    }

    #[test]
    fn cached_plans_serve_repeated_and_explain_queries() {
        let engine = Engine::with_plan_cache(Backend::memory(HyGraph::new()), 8);
        engine.mutate_batch(seed_mutations()).unwrap();
        let text = "MATCH (s:Station) RETURN COUNT(s) AS n";
        let cold = engine.query(text).unwrap();
        let warm = engine.query(text).unwrap();
        assert_eq!(cold, warm, "cache hit returns identical rows");
        // cached plans survive mutations: plans are data-independent
        engine
            .mutate_batch(vec![HgMutation::AddTsVertex {
                labels: vec![Label::new("Station")],
                series: SeriesId::new(0),
            }])
            .unwrap();
        let after = engine.query(text).unwrap();
        assert_eq!(after.rows[0][0], hygraph_types::Value::Int(2));
        // EXPLAIN shares the executable plan's cache entry and renders
        // the plan instead of rows
        let plan = engine.query(&format!("EXPLAIN {text}")).unwrap();
        assert_eq!(plan.columns, vec!["plan"]);
        assert!(plan.rows[0][0]
            .to_string()
            .starts_with("Plan fingerprint=0x"));
        // a disabled cache still answers correctly
        let engine_off = Engine::with_plan_cache(Backend::memory(HyGraph::new()), 0);
        engine_off.mutate_batch(seed_mutations()).unwrap();
        assert_eq!(engine_off.query(text).unwrap().rows, cold.rows);
    }

    #[test]
    fn as_of_serves_past_states_and_now_serves_live() {
        let engine = Engine::with_history_config(
            Backend::memory(HyGraph::new()),
            8,
            HistoryConfig::default(),
        );
        engine.mutate_batch(seed_mutations()).unwrap();
        let t1 = *engine
            .history_commit_timestamps()
            .unwrap()
            .last()
            .expect("one commit");
        engine
            .mutate_batch(vec![HgMutation::AddTsVertex {
                labels: vec![Label::new("Station")],
                series: SeriesId::new(0),
            }])
            .unwrap();
        let text = "MATCH (s:Station) RETURN COUNT(s) AS n";
        // live: two stations; as of the first commit: one
        assert_eq!(
            engine.query(text).unwrap().rows[0][0],
            hygraph_types::Value::Int(2)
        );
        let past = engine.query(&format!(
            "MATCH (s:Station) AS OF {t1} RETURN COUNT(s) AS n"
        ));
        assert_eq!(past.unwrap().rows[0][0], hygraph_types::Value::Int(1));
        // the structured request form answers identically
        assert_eq!(
            engine.query_as_of(text, t1).unwrap().rows[0][0],
            hygraph_types::Value::Int(1)
        );
        // AS OF NOW() is the live state
        let now = engine
            .query("MATCH (s:Station) AS OF NOW() RETURN COUNT(s) AS n")
            .unwrap();
        assert_eq!(now.rows[0][0], hygraph_types::Value::Int(2));
        // double bounds are rejected, not silently overridden
        let err = engine
            .query_as_of(
                &format!("MATCH (s:Station) AS OF {t1} RETURN COUNT(s) AS n"),
                t1,
            )
            .unwrap_err();
        assert!(err.to_string().contains("already carries"), "{err}");
    }

    #[test]
    fn history_disabled_rejects_time_travel_but_serves_now() {
        let engine = Engine::with_history_config(
            Backend::memory(HyGraph::new()),
            8,
            HistoryConfig::disabled(),
        );
        engine.mutate_batch(seed_mutations()).unwrap();
        assert!(engine.history_commit_timestamps().is_none());
        let err = engine
            .query("MATCH (s:Station) AS OF 5 RETURN COUNT(s) AS n")
            .unwrap_err();
        assert!(err.to_string().contains("HYGRAPH_HISTORY"), "{err}");
        // AS OF NOW() degrades gracefully: it is the live state
        let now = engine
            .query("MATCH (s:Station) AS OF NOW() RETURN COUNT(s) AS n")
            .unwrap();
        assert_eq!(now.rows[0][0], hygraph_types::Value::Int(1));
    }

    #[test]
    fn durable_reopen_keeps_replayed_commits_time_addressable() {
        let dir = hygraph_persist::fault::scratch_dir("engine-asof");
        let (t1, t2);
        {
            let engine =
                Engine::open_durable(&dir, 8, HistoryConfig::default()).expect("open fresh");
            engine.mutate_batch(seed_mutations()).unwrap();
            engine
                .mutate_batch(vec![HgMutation::AddTsVertex {
                    labels: vec![Label::new("Station")],
                    series: SeriesId::new(0),
                }])
                .unwrap();
            let ts = engine.history_commit_timestamps().unwrap();
            t1 = ts[0];
            t2 = ts[1];
            engine.sync().unwrap();
        } // crash: no checkpoint — both commits live only in the WAL
        let engine = Engine::open_durable(&dir, 8, HistoryConfig::default()).expect("reopen");
        assert_eq!(
            engine.history_commit_timestamps().unwrap(),
            vec![t1, t2],
            "replayed WAL frames re-enter the commit timeline"
        );
        let text = "MATCH (s:Station) RETURN COUNT(s) AS n";
        assert_eq!(
            engine.query_as_of(text, t1).unwrap().rows[0][0],
            hygraph_types::Value::Int(1)
        );
        assert_eq!(
            engine.query(text).unwrap().rows[0][0],
            hygraph_types::Value::Int(2)
        );
        // a checkpoint moves the durable watermark; reopening seeds the
        // base there and newer commits stay addressable
        engine.checkpoint().unwrap();
        let engine2 = Engine::open_durable(&dir, 8, HistoryConfig::default()).expect("reopen 2");
        assert_eq!(engine2.history_horizon().unwrap(), t2);
        assert!(matches!(
            engine2.query_as_of(text, t2),
            Ok(r) if r.rows[0][0] == hygraph_types::Value::Int(2)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A directory in the pre-shard layout — one top-level WAL stream
    /// under a plain checkpoint, as the single-WAL store of earlier
    /// builds wrote it — opens at one shard and at two with its state
    /// intact, every commit above the checkpoint still `AS OF`-
    /// addressable, and its segments archived in `legacy-wal/`.
    #[test]
    fn pre_shard_directory_migrates_with_commits_time_addressable() {
        use hygraph_persist::{checkpoint, wal};
        let bytes = |f: &dyn Fn(&mut ByteWriter)| {
            let mut w = ByteWriter::new();
            f(&mut w);
            w.into_bytes()
        };
        let station = HgMutation::AddTsVertex {
            labels: vec![Label::new("Station")],
            series: SeriesId::new(0),
        };
        let batches = [
            (100, seed_mutations()),
            (200, vec![station.clone()]),
            (300, vec![station]),
        ];
        for shards in [1, 2] {
            let dir = hygraph_persist::fault::scratch_dir("engine-pre-shard");
            let mut hg = HyGraph::new();
            let mut log = wal::Wal::create(&dir, HyGraph::STORE_TAG, 1 << 20).unwrap();
            for (i, (ts, batch)) in batches.iter().enumerate() {
                for m in batch {
                    log.append(*ts, &bytes(&|w| HyGraph::encode_mutation(m, w)));
                    hg.apply(m).unwrap();
                }
                log.sync().unwrap();
                if i == 0 {
                    let (lsn, state) = (log.next_lsn(), bytes(&|w| hg.encode_state(w)));
                    checkpoint::write_checkpoint(&dir, HyGraph::STORE_TAG, lsn, *ts, &state)
                        .unwrap();
                    log.rotate();
                }
            }
            drop(log);

            let engine = Engine::open_durable_sharded(&dir, 8, HistoryConfig::default(), shards)
                .expect("migrate");
            assert_eq!(engine.shards(), shards);
            assert_eq!(engine.state_bytes(), bytes(&|w| hg.encode_state(w)));
            assert_eq!(engine.history_horizon(), Some(100));
            assert_eq!(engine.history_commit_timestamps().unwrap(), vec![200, 300]);
            let text = "MATCH (s:Station) RETURN COUNT(s) AS n";
            for (as_of, stations) in [(100, 1), (200, 2), (300, 3)] {
                assert_eq!(
                    engine.query_as_of(text, as_of).unwrap().rows[0][0],
                    hygraph_types::Value::Int(stations),
                    "{shards} shard(s), as of {as_of}"
                );
            }
            assert!(wal::list_segments(&dir).unwrap().is_empty());
            assert_eq!(
                wal::list_segments(&dir.join("legacy-wal")).unwrap().len(),
                2
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn sharded_watermark_tracks_csn_not_stream_depth() {
        let dir = hygraph_persist::fault::scratch_dir("engine-watermark");
        let engine = Engine::open_durable_sharded(&dir, 8, HistoryConfig::disabled(), 4)
            .expect("open sharded");
        assert_eq!(engine.shards(), 4);
        engine.mutate_batch(seed_mutations()).unwrap();
        // Four committed (durable) mutations land on a subset of the
        // four shards; the idle shards' WAL streams stay empty but must
        // not pin the watermark — every shard's durable CSN frontier is
        // the global next CSN once its stream is synced.
        assert_eq!(
            engine.shard_watermark(),
            4,
            "idle shards must not pin the cross-shard watermark"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_batch_failure_keeps_earlier_mutations() {
        // explicit history config: the assertions below time-travel, so
        // the test must not depend on the ambient HYGRAPH_HISTORY
        let engine = Engine::with_history_config(
            Backend::memory(HyGraph::new()),
            plan_cache_capacity_from_env(),
            HistoryConfig::default(),
        );
        let mut ms = seed_mutations();
        ms.push(HgMutation::Append {
            series: SeriesId::new(42), // rejected: no such series
            t: Timestamp::from_millis(9),
            row: vec![1.0],
        });
        assert!(engine.mutate_batch(ms).is_err());
        // the valid prefix applied (matches ShardedStore::commit_batch)
        engine.with_graph(|hg| assert_eq!(hg.vertex_count(), 2));
        // history recorded exactly that prefix: commit once more, then
        // travel back to the failed batch's timestamp
        let failed_ts = *engine.history_commit_timestamps().unwrap().last().unwrap();
        engine
            .mutate_batch(vec![HgMutation::AddPgVertex {
                labels: vec![Label::new("User")],
                props: PropertyMap::new(),
                validity: Interval::ALL,
            }])
            .unwrap();
        let past = engine
            .query_as_of("MATCH (s:Station) RETURN COUNT(s) AS n", failed_ts)
            .unwrap();
        assert_eq!(past.rows[0][0], hygraph_types::Value::Int(1));
    }
}
