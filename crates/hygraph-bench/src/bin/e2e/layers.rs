//! The `--trace` run: per-layer metrics taken from outside each crate.
//!
//! A sample of the workload's generated operations — the first
//! `sample_ops` of every client, interleaved — is replayed by **one**
//! client, so counts repeat exactly:
//!
//! 1. over TCP with the recorder off (per-class latency, tails, stalls);
//! 2. over TCP with the recorder on, bracketed by two `Stats` requests
//!    (`wire.rtt` spans; counter deltas; the two replays' throughput
//!    ratio is what recording costs);
//! 3. in process: each operation goes to `Engine::handle` on a third
//!    store, and is then re-executed by a **replica** of the engine's
//!    read and commit paths assembled from the layers' public calls —
//!    `parser::parse`, `plan_query`, `execute_planned_sharded`,
//!    `HistoryStore::snapshot_at`, `ShardedStore::stage`/`sync`,
//!    `HyGraph::clone`, `HistoryStore::record_commit`,
//!    `SubscriptionRegistry::on_commit` — each wrapped in a span. The
//!    replica's self times are held against the `handle` span: what they
//!    do not explain is time no public call reaches. **Probes** time
//!    work that sits inside one of those calls (`Pattern::find_all`,
//!    `MultiSeries::summarize`, `Durable::apply`, the frame codec) and
//!    are reported as shares, never added to the budget.
//!
//! A metric whose calls this workload's sample never makes reports 0:
//! `persist.*` on `read_hybrid` is the prediction "the persistence layer
//! does nothing here" in numbers.

use crate::check::{self, Oracle};
use crate::run::{self, call_timed, Bed, Metric, Outcome, RunConfig, Writer};
use crate::stats;
use crate::trace::{self, timed, Off, Recorder, Span, SpanId, Spans};
use crate::workload::{self, Bound, Limit, ReadClass, ReadOp, Workload};
use hygraph_core::HyGraph;
use hygraph_metrics::Snapshot;
use hygraph_persist::{fault, HgMutation, ShardedStore};
use hygraph_query::incremental::Delta;
use hygraph_query::{parser, plan, PlannedQuery, QueryResult, TemporalBound};
use hygraph_server::{Client, Request, Response};
use hygraph_sub::{DeltaSink, SubConfig, SubscriptionRegistry};
use hygraph_temporal::{now_ms, HistoryConfig, HistoryStore, SnapshotResolution};
use hygraph_ts::MultiSeries;
use hygraph_types::net::{self, FrameRead, DEFAULT_MAX_FRAME_BYTES};
use hygraph_types::parallel::ExecMode;
use hygraph_types::pmap::PMap;
use hygraph_types::shard::ShardRouter;
use hygraph_types::{Interval, SeriesId, Timestamp};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric, in `BENCHMARK.json` order: `(name, unit)`.
pub const METRICS: [(&str, &str); 50] = [
    ("server.wire_overhead_us", "us"),
    ("server.handle_read_us", "us"),
    ("server.handle_commit_us", "us"),
    ("server.proto_codec_us", "us"),
    ("server.response_bytes", "B"),
    ("server.class.count.p50_ms", "ms"),
    ("server.class.point.p50_ms", "ms"),
    ("server.class.fleet_agg.p50_ms", "ms"),
    ("server.class.filter_agg.p50_ms", "ms"),
    ("server.class.pattern.p50_ms", "ms"),
    ("server.class.varlen.p50_ms", "ms"),
    ("server.read_p99_ms", "ms"),
    ("server.commit_p99_ms", "ms"),
    ("server.commit_stall_share", "ratio"),
    ("server.history_read_tax_ratio", "ratio"),
    ("query.parse_us", "us"),
    ("query.plan_us", "us"),
    ("query.execute_us", "us"),
    ("query.plan_cache_hit_ratio", "ratio"),
    ("query.scatter_overhead_ratio", "ratio"),
    ("ts.summarize_us_per_kpoint", "us"),
    ("ts.share_of_execute", "ratio"),
    ("ts.append_ns_per_point", "ns"),
    ("graph.match_us", "us"),
    ("graph.bindings_per_call", "count"),
    ("types.pmap_get_ns", "ns"),
    ("core.apply_us_per_mutation", "us"),
    ("core.snapshot_clone_us", "us"),
    ("persist.stage_us", "us"),
    ("persist.sync_us", "us"),
    ("persist.syncs_per_commit", "count"),
    ("persist.wal_bytes_per_point", "B"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.checkpoint_bytes", "B"),
    ("persist.recovery_frames_per_s", "1/s"),
    ("temporal.record_commit_us", "us"),
    ("temporal.history_bytes_per_commit", "B"),
    ("temporal.snapshot_at_cold_ms", "ms"),
    ("temporal.snapshot_at_warm_us", "us"),
    ("temporal.snapshot_cache_hit_ratio", "ratio"),
    ("sub.on_commit_us", "us"),
    ("sub.deltas_per_commit", "count"),
    ("sub.fallback_rerun_ratio", "ratio"),
    ("sub.push_p50_ms", "ms"),
    ("setup.generate_s", "s"),
    ("setup.load_s", "s"),
    ("setup.open_s", "s"),
    ("trace.read_unaccounted_share", "ratio"),
    ("trace.commit_unaccounted_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// A commit slower than this many medians counts as a stall.
const STALL_FACTOR: f64 = 10.0;
/// Reads replayed before a timed replay starts.
const WARMUP_READS: usize = 100;
/// Above this unaccounted share the output names the gap.
const BUDGET_TOLERANCE: f64 = 0.10;

/// One operation of the replay sample.
enum SampleOp {
    /// A read from reader `client`'s list.
    Read(ReadOp),
    /// The next batch of writer `.0`.
    Commit(usize),
}

/// The first `sample_ops` operations of every client, interleaved.
fn sample(cfg: &RunConfig) -> Vec<SampleOp> {
    let (n_readers, n_writers) = cfg.workload.clients();
    let shape = workload::CorpusShape::new(cfg.scale, cfg.seed);
    let lists: Vec<Vec<ReadOp>> = (0..n_readers)
        .map(|client| workload::reader_list(cfg.workload, &shape, cfg.scale, client))
        .collect();
    let mut ops = Vec::new();
    for i in 0..cfg.workload.sample_ops(cfg.scale) {
        ops.extend(
            lists
                .iter()
                .map(|list| SampleOp::Read(list[i % list.len()].clone())),
        );
        ops.extend((0..n_writers).map(SampleOp::Commit));
    }
    ops
}

/// What one single-client replay over TCP observed.
struct WireOut {
    /// `(class, ms)` per read.
    reads: Vec<(ReadClass, f64)>,
    /// Reply per sample position (`None` for commits and failures).
    replies: Vec<Option<Response>>,
    /// Per writer slot.
    writers: Vec<run::WriterOut>,
    /// Operations that failed.
    failed: u64,
    /// Wall time of the replay.
    elapsed_s: f64,
    /// `Stats` after minus before.
    stats: (Snapshot, Snapshot),
}

/// Replays the sample over TCP with one request in flight.
fn replay_wire<R: Recorder>(rec: &mut R, cfg: &RunConfig, bed: &Bed, ops: &[SampleOp]) -> WireOut {
    let (_, n_writers) = cfg.workload.clients();
    let standing = cfg.workload == Workload::MixedLive;
    let mut reader = Client::connect(bed.addr()).expect("connect replay reader");
    let mut writers: Vec<Writer> = (0..n_writers)
        .map(|w| Writer::connect(bed.addr(), &bed.corpus, (w, n_writers), standing))
        .collect();
    let mut out = WireOut {
        reads: Vec::with_capacity(ops.len()),
        replies: Vec::with_capacity(ops.len()),
        writers: Vec::new(),
        failed: 0,
        elapsed_s: 0.0,
        stats: Default::default(),
    };
    // reads leave the state alone, so a few can run first: the first
    // requests on a fresh store pay page faults and cold caches that
    // have nothing to do with the recorder being on or off
    let warmup = ops.iter().filter_map(|op| match op {
        SampleOp::Read(read) => Some(read),
        SampleOp::Commit(_) => None,
    });
    for read in warmup.take(WARMUP_READS) {
        reader
            .call(&read.request(&bed.commit_ts))
            .expect("warm-up read");
    }
    let before = reader.stats().expect("stats");
    let t = Instant::now();
    for (op_id, op) in ops.iter().enumerate() {
        match op {
            SampleOp::Read(read) => {
                let (reply, ms) = call_timed(
                    rec,
                    op_id as u32,
                    &mut reader,
                    &read.request(&bed.commit_ts),
                );
                match reply {
                    Ok(reply @ Response::Rows(_)) => {
                        out.reads.push((read.class, ms));
                        out.replies.push(Some(reply));
                    }
                    _ => {
                        out.failed += 1;
                        out.replies.push(None);
                    }
                }
            }
            SampleOp::Commit(w) => {
                out.failed += u64::from(!writers[*w].commit(rec, op_id as u32, true));
                out.replies.push(None);
            }
        }
    }
    out.elapsed_s = t.elapsed().as_secs_f64();
    out.stats = (before, reader.stats().expect("stats"));
    out.writers = writers.into_iter().map(Writer::finish).collect();
    out.failed += out.writers.iter().map(|w| w.failed).sum::<u64>();
    out
}

/// A sink that accepts every delta: the replica's standing queries have
/// no connection to push to.
struct NullSink;

impl DeltaSink for NullSink {
    fn push_delta(&self, _: u64, _: &Delta) -> bool {
        true
    }
    fn close(&self, _: u64, _: &str) {}
}

/// The replica: the engine's read and commit paths rebuilt from the
/// layers' public parts, over its own store.
struct Replica {
    store: ShardedStore<HyGraph>,
    history: HistoryStore,
    subs: SubscriptionRegistry,
    /// The published read snapshot (what `Engine::pin_snapshot` hands
    /// readers).
    published: Arc<HyGraph>,
    /// Move-to-front plan cache of the engine's capacity.
    plans: Vec<(u64, Arc<PlannedQuery>)>,
    router: ShardRouter,
    /// Commit timestamps of the history batches, as this replica
    /// allocated them.
    commit_ts: Vec<i64>,
}

impl Replica {
    fn open(dir: &Path) -> Self {
        let _ = std::fs::remove_dir_all(dir);
        let store =
            ShardedStore::<HyGraph>::open(dir, run::SHARDS).expect("open the replica's store");
        let published = Arc::new(store.get().clone());
        Self {
            history: HistoryStore::new(HistoryConfig::default(), store.get(), 0),
            subs: SubscriptionRegistry::new(SubConfig {
                shards: run::SHARDS,
                ..SubConfig::default()
            }),
            router: store.router(),
            store,
            published,
            plans: Vec::new(),
            commit_ts: Vec::new(),
        }
    }

    /// `Engine::mutate_batch` on a sharded backend with history on,
    /// call for call.
    fn commit<R: Recorder>(
        &mut self,
        rec: &mut R,
        op_id: u32,
        parent: Option<SpanId>,
        batch: &[HgMutation],
    ) -> i64 {
        // `handle` clones the request's batch before committing it
        let batch = &timed(rec, op_id, "server.clone_batch", parent, || batch.to_vec())[..];
        let ts = self.history.allocate_ts(now_ms());
        self.store.set_commit_ts(ts);
        let topology = self.store.get().topology();
        let (pre_v, pre_e) = (topology.vertex_capacity(), topology.edge_capacity());
        timed(rec, op_id, "persist.stage", parent, || {
            for m in batch.iter().cloned() {
                self.store.stage(m).expect("generated mutation stages");
            }
        });
        timed(rec, op_id, "persist.sync", parent, || {
            self.store.sync().expect("wal sync")
        });
        timed(rec, op_id, "core.snapshot_clone", parent, || {
            let retired =
                std::mem::replace(&mut self.published, Arc::new(self.store.get().clone()));
            drop(retired);
        });
        timed(rec, op_id, "temporal.record_commit", parent, || {
            self.history.record_commit(ts, batch.to_vec());
        });
        if !self.subs.is_empty() {
            timed(rec, op_id, "sub.on_commit", parent, || {
                self.subs
                    .on_commit(self.store.get(), batch, pre_v, pre_e, false);
            });
        }
        ts
    }

    /// Brings the replica to the state `run::setup` leaves a bed in.
    fn load(&mut self, bed: &Bed, workload: Workload) {
        for batch in &bed.corpus.load {
            self.commit(&mut Off, 0, None, batch);
        }
        if workload == Workload::AsofRead {
            // what the reopen after the checkpoint does to history: the
            // checkpointed state becomes the base, the timeline restarts
            self.store.checkpoint().expect("checkpoint the replica");
            self.history = HistoryStore::from_parts(
                HistoryConfig::default(),
                self.store.state_bytes(),
                self.store.history_watermark(),
                Vec::new(),
            );
            for batch in &bed.history {
                let ts = self.commit(&mut Off, 0, None, batch);
                self.commit_ts.push(ts);
            }
        }
        if workload == Workload::MixedLive {
            for text in workload::STANDING {
                self.subs
                    .subscribe(self.store.get(), text, 1, Arc::new(NullSink))
                    .expect("replica subscribes");
            }
        }
    }

    /// The engine's plan-cache step: look the fingerprint up, plan on a
    /// miss (only a miss is a `query.plan` span).
    fn planned<R: Recorder>(
        &mut self,
        rec: &mut R,
        op_id: u32,
        parent: Option<SpanId>,
        q: &hygraph_query::Query,
    ) -> Arc<PlannedQuery> {
        let fp = plan::fingerprint(q);
        if let Some(at) = self.plans.iter().position(|(have, _)| *have == fp) {
            let hit = self.plans.remove(at);
            self.plans.insert(0, hit);
        } else {
            let planned = timed(rec, op_id, "query.plan", parent, || {
                Arc::new(hygraph_query::plan_query(q).expect("generated query plans"))
            });
            self.plans.insert(0, (fp, planned));
            self.plans.truncate(run::PLAN_CACHE);
        }
        Arc::clone(&self.plans[0].1)
    }

    /// `Engine::query` / `query_as_of` on a multi-shard engine.
    fn read<R: Recorder>(
        &mut self,
        rec: &mut R,
        op_id: u32,
        parent: Option<SpanId>,
        request: &Request,
    ) -> (Arc<PlannedQuery>, QueryResult) {
        let (text, as_of) = match request {
            Request::Query(text) => (text, None),
            Request::QueryAsOf { text, as_of_ms } => (text, Some(*as_of_ms)),
            other => unreachable!("reads are queries, got {other:?}"),
        };
        let mut q = timed(rec, op_id, "query.parse", parent, || {
            parser::parse(text).expect("generated query parses")
        });
        if let Some(ms) = as_of {
            q.temporal = Some(TemporalBound::AsOf(Timestamp::from_millis(ms)));
        }
        let planned = self.planned(rec, op_id, parent, &q);
        let rebuilds = || hygraph_metrics::get().map_or(0, |m| m.temporal.snapshot_rebuilds.get());
        let states: Vec<Arc<HyGraph>> = match q.temporal {
            None | Some(TemporalBound::AsOfNow) => vec![Arc::clone(&self.published)],
            Some(TemporalBound::AsOf(t)) => {
                let before = rebuilds();
                let span = rec.enter(op_id, "temporal.snapshot_at.warm", parent);
                let resolved = self
                    .history
                    .snapshot_at(t.millis())
                    .expect("inside history");
                rec.exit(span);
                if rebuilds() > before {
                    rec.rename(span, "temporal.snapshot_at.cold");
                }
                match resolved {
                    SnapshotResolution::Live => vec![Arc::clone(&self.published)],
                    SnapshotResolution::Past(state) => vec![state],
                }
            }
            Some(TemporalBound::Between(t1, t2)) => {
                timed(rec, op_id, "temporal.states_between", parent, || {
                    self.history
                        .states_between(t1.millis(), t2.millis())
                        .expect("inside history")
                })
            }
        };
        let rows = timed(rec, op_id, "query.execute", parent, || {
            match states.as_slice() {
                [state] => hygraph_query::execute_planned_sharded(
                    state,
                    &planned,
                    ExecMode::Auto,
                    self.router,
                ),
                many => hygraph_query::execute_epochs(many, &planned, ExecMode::Auto),
            }
        })
        .expect("generated query executes");
        (planned, rows)
    }
}

/// Work that happens inside one of the replica's calls, timed again in
/// isolation. Accumulates what spans cannot carry (counts, bytes).
#[derive(Default)]
struct Probes {
    response_bytes: Vec<f64>,
    bindings: Vec<f64>,
    summarized_points: u64,
    appended_points: u64,
    applied_mutations: u64,
    /// One scratch series per appended-to series, for `MultiSeries::push`.
    scratch: HashMap<SeriesId, MultiSeries>,
}

impl Probes {
    fn read(
        &mut self,
        rec: &mut Spans,
        op_id: u32,
        parent: SpanId,
        (op, request, reply): (&ReadOp, &Request, &Response),
        (planned, snapshot): (&PlannedQuery, &HyGraph),
    ) {
        // request and reply through the frame codec, both directions
        let bytes = timed(rec, op_id, "server.proto_codec", Some(parent), || {
            let mut bytes = 0;
            for frame in [request.to_frame(1), reply.to_frame(1)] {
                let wire = frame.encode();
                bytes = wire.len();
                match net::read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME_BYTES) {
                    Ok(FrameRead::Frame(back)) if back.kind == frame.kind => {}
                    other => panic!("frame does not round-trip: {other:?}"),
                }
            }
            Request::from_frame(&request.to_frame(1)).expect("request decodes");
            Response::from_frame(&reply.to_frame(1)).expect("reply decodes");
            bytes
        });
        self.response_bytes.push(bytes as f64);
        if matches!(op.class, ReadClass::Pattern | ReadClass::Varlen) {
            let found = timed(rec, op_id, "graph.match", Some(parent), || {
                planned
                    .patterns
                    .iter()
                    .map(|p| p.find_all(snapshot.topology()).len())
                    .sum::<usize>()
            });
            self.bindings.push(found as f64);
        }
        if let (Some((key, from, to)), Bound::Live) = (op.fleet_window, op.bound) {
            // exactly the series and window the query aggregates
            let window = Interval::new(Timestamp::from_millis(from), Timestamp::from_millis(to));
            let column = usize::from(key == "docks");
            let stations = snapshot.series_count() / 2;
            self.summarized_points += timed(rec, op_id, "ts.summarize", Some(parent), || {
                (0..stations)
                    .map(|s| {
                        let id =
                            SeriesId::new(workload::availability_series(s).raw() + column as u64);
                        let series = snapshot.series(id).expect("station series");
                        series
                            .summarize(&window, 0)
                            .map_or(0, |summary| summary.count)
                    })
                    .sum::<u64>()
            });
            timed(rec, op_id, "query.execute_one_shard", Some(parent), || {
                hygraph_query::execute_planned_sharded(
                    snapshot,
                    planned,
                    ExecMode::Auto,
                    ShardRouter::new(1),
                )
                .expect("single-shard execution")
            });
        }
    }

    fn commit(
        &mut self,
        rec: &mut Spans,
        op_id: u32,
        parent: SpanId,
        batch: &[HgMutation],
        oracle: &mut Oracle,
    ) {
        // the oracle's graph is the memory graph the apply probe needs
        timed(rec, op_id, "core.apply", Some(parent), || {
            oracle.apply(batch)
        });
        self.applied_mutations += batch.len() as u64;
        for m in batch {
            if let HgMutation::Append { series, .. } = m {
                self.scratch
                    .entry(*series)
                    .or_insert_with(|| MultiSeries::new(["v"]));
            }
        }
        timed(rec, op_id, "ts.append", Some(parent), || {
            for m in batch {
                if let HgMutation::Append { series, t, row } = m {
                    let scratch = self.scratch.get_mut(series).expect("created above");
                    scratch.push(*t, row).expect("appends move forward");
                    self.appended_points += 1;
                }
            }
        });
    }
}

fn median(values: Vec<f64>) -> f64 {
    stats::median_of(&values).unwrap_or(0.0)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `PMap::get` over the corpus' dense `u64` ids, in a scattered order.
fn pmap_get_ns(ids: u64) -> f64 {
    let mut map: PMap<u64, u64> = PMap::new();
    for id in 0..ids {
        map.insert(id, id);
    }
    let rounds = (2_000_000 / ids.max(1)).max(1);
    let t = Instant::now();
    let mut found = 0u64;
    for round in 0..rounds {
        for i in 0..ids {
            // odd stride: visits every id once per round, never in order
            let key = (i.wrapping_mul(0x9E37_79B1) + round) % ids;
            found += u64::from(std::hint::black_box(map.get(&key)).is_some());
        }
    }
    assert_eq!(found, rounds * ids, "every dense id is present");
    t.elapsed().as_nanos() as f64 / (rounds * ids) as f64
}

/// `read_hybrid` with history on ÷ with history off: two short windows
/// on two fresh beds. AeonG's claim is that this stays at 1.
fn history_read_tax(cfg: &RunConfig) -> f64 {
    let window = cfg
        .scale
        .window_ops
        .map_or(Limit::Seconds(cfg.seconds / 4.0), Limit::Ops);
    let rate = |history: HistoryConfig| {
        let bed = run::setup(cfg, cfg.scratch.join("tax"), history);
        let ops_per_s = run::run_window(cfg, &bed, window).ops_per_s();
        bed.teardown();
        ops_per_s
    };
    let on = rate(HistoryConfig::default());
    ratio(on, rate(HistoryConfig::disabled()))
}

/// What the replica's store says once the sample is through.
struct PersistProbe {
    /// `ShardedStore::checkpoint` at the final state.
    checkpoint_ms: f64,
    /// Bytes in the directory right after it.
    checkpoint_bytes: usize,
    /// WAL frames replayed per second by a recovery of the directory as
    /// it was *before* that checkpoint.
    recovery_frames_per_s: f64,
    /// Whether that recovery reproduced `expected`.
    recovered_whole: bool,
}

/// Copies the store's directory as a crash would leave it, checkpoints,
/// then recovers the copy.
fn persist_probe(mut store: ShardedStore<HyGraph>, expected: &[u8]) -> PersistProbe {
    let dir = store.dir().to_path_buf();
    let crashed = fault::snapshot_dir(&dir).expect("copy the replica's store");
    let t = Instant::now();
    store.checkpoint().expect("checkpoint");
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    let checkpoint_bytes = fault::snapshot_dir(&dir)
        .expect("read the checkpointed store")
        .iter()
        .map(|(_, bytes)| bytes.len())
        .sum();
    drop(store);
    let replayed =
        || hygraph_metrics::get().map_or(0, |m| m.persist.recovery_frames_replayed.get());
    fault::restore_dir(&dir, &crashed).expect("restore the crashed store");
    let (frames_before, t) = (replayed(), Instant::now());
    let recovered =
        ShardedStore::<HyGraph>::open(&dir, run::SHARDS).expect("recover the replica's store");
    PersistProbe {
        checkpoint_ms,
        checkpoint_bytes,
        recovery_frames_per_s: ratio(
            (replayed() - frames_before) as f64,
            t.elapsed().as_secs_f64(),
        ),
        recovered_whole: recovered.state_bytes() == expected,
    }
}

/// The `--trace` run (see the module docs).
pub fn per_layer(cfg: &RunConfig) -> Outcome {
    let mut notes = Vec::new();
    let ops = sample(cfg);
    let n_commits = ops
        .iter()
        .filter(|op| matches!(op, SampleOp::Commit(_)))
        .count();
    let history = HistoryConfig::default;

    // 0. a store nobody uses: the first store a process opens pays the
    // page faults for every buffer the later ones reuse, and the two
    // replays below must differ in the recorder, not in heap age
    run::setup(cfg, cfg.scratch.join("discarded"), history()).teardown();

    // 1. untraced replay
    let bed = run::setup(cfg, cfg.scratch.join("untraced"), history());
    let setup_times = bed.times;
    let untraced = replay_wire(&mut Off, cfg, &bed, &ops);
    bed.teardown();

    // 2. traced replay, counters bracketed
    let bed = run::setup(cfg, cfg.scratch.join("traced"), history());
    let mut rec = Spans::with_capacity(ops.len() * 16);
    let traced = replay_wire(&mut rec, cfg, &bed, &ops);
    let wire_state = bed.server.engine().state_bytes();
    bed.teardown();

    // 3. in-process handle, replica and probes
    let bed = run::setup(cfg, cfg.scratch.join("handled"), history());
    let engine = bed.server.engine();
    if cfg.workload == Workload::MixedLive {
        // the handled engine fans out to the same standing queries
        for text in workload::STANDING {
            engine
                .subscribe(text, 1, Arc::new(NullSink))
                .expect("subscribe in process");
        }
    }
    let mut replica = Replica::open(&cfg.scratch.join("replica"));
    replica.load(&bed, cfg.workload);
    let mut oracle = Oracle::loaded(&bed.corpus.load);
    let epochs = oracle.replay(&bed.history);
    let mut probes = Probes::default();
    let n_writers = cfg.workload.clients().1;
    let mut next_batch = vec![0u64; n_writers];
    let mut handled: Vec<Option<Response>> = Vec::with_capacity(ops.len());
    let (mut attempted, mut failed) = (0u64, untraced.failed + traced.failed);
    for (i, op) in ops.iter().enumerate() {
        let op_id = i as u32;
        let root = rec.enter(op_id, "op", None);
        match op {
            SampleOp::Read(read) => {
                let request = read.request(&bed.commit_ts);
                let reply = timed(&mut rec, op_id, "server.handle_read", Some(root), || {
                    engine.handle(&request)
                });
                let parts = rec.enter(op_id, "replica.read", Some(root));
                let (planned, rows) = replica.read(
                    &mut rec,
                    op_id,
                    Some(parts),
                    &read.request(&replica.commit_ts),
                );
                rec.exit(parts);
                let probe = rec.enter(op_id, "probe", Some(root));
                let snapshot = Arc::clone(&replica.published);
                probes.read(
                    &mut rec,
                    op_id,
                    probe,
                    (read, &request, &reply),
                    (&planned, &snapshot),
                );
                rec.exit(probe);
                // three independent executions of one request must agree
                attempted += 2;
                failed += u64::from(reply != Response::Rows(rows));
                failed += u64::from(traced.replies[i].as_ref() != Some(&reply));
                if n_writers > 0 {
                    // the state moves: ask the oracle now
                    attempted += 1;
                    failed += u64::from(oracle.answer(&read.text()) != reply);
                }
                handled.push(Some(reply));
            }
            SampleOp::Commit(w) => {
                let batch =
                    workload::writer_batch(&bed.corpus.shape, *w, n_writers, next_batch[*w]);
                next_batch[*w] += 1;
                let request = Request::MutateBatch(batch);
                let reply = timed(&mut rec, op_id, "server.handle_commit", Some(root), || {
                    engine.handle(&request)
                });
                let Request::MutateBatch(batch) = request else {
                    unreachable!("built above")
                };
                let parts = rec.enter(op_id, "replica.commit", Some(root));
                replica.commit(&mut rec, op_id, Some(parts), &batch);
                rec.exit(parts);
                let probe = rec.enter(op_id, "probe", Some(root));
                probes.commit(&mut rec, op_id, probe, &batch, &mut oracle);
                rec.exit(probe);
                attempted += 1;
                failed += u64::from(
                    !matches!(reply, Response::Committed { count, .. } if count as usize == batch.len()),
                );
                handled.push(None);
            }
        }
        rec.exit(root);
    }
    if n_writers == 0 {
        let reads: Vec<ReadOp> = ops
            .iter()
            .map(|op| match op {
                SampleOp::Read(read) => read.clone(),
                SampleOp::Commit(_) => unreachable!("no writers"),
            })
            .collect();
        attempted += reads.len() as u64;
        failed += check::mismatches(&oracle, &epochs, &reads, &handled);
    }
    drop(epochs);
    // four copies of one history must end in one state
    let expected = oracle.state_bytes();
    attempted += 3;
    failed += u64::from(engine.state_bytes() != expected)
        + u64::from(replica.store.state_bytes() != expected)
        + u64::from(wire_state != expected);
    drop(engine);

    let history_bytes_per_commit = ratio(
        replica.history.approx_bytes() as f64,
        replica.history.commit_count() as f64,
    );
    let persist = persist_probe(replica.store, &expected);
    attempted += 1;
    failed += u64::from(!persist.recovered_whole);
    bed.teardown();

    let tax = if cfg.workload == Workload::ReadHybrid {
        history_read_tax(cfg)
    } else {
        0.0
    };

    let trace_path =
        crate::report::scratch_root().join(format!("trace.{}.jsonl", cfg.workload.name()));
    match std::fs::File::create(&trace_path).map(std::io::BufWriter::new) {
        Ok(file) => match trace::write_jsonl(rec.spans(), file) {
            Ok(()) => notes.push(format!(
                "{} spans written to {}",
                rec.spans().len(),
                trace_path.display()
            )),
            Err(e) => notes.push(format!("trace not written: {e}")),
        },
        Err(e) => notes.push(format!("trace not written: {e}")),
    }

    // ---- metrics ----
    let spans = rec.spans();
    let us = |name: &str| median(trace::durations_us(spans, name));
    let total = |name: &str| trace::total_ns(spans, name) as f64;
    let of_class = |class: ReadClass| {
        median(
            untraced
                .reads
                .iter()
                .filter(|(c, _)| *c == class)
                .map(|&(_, ms)| ms)
                .collect(),
        )
    };
    let read_ms: Vec<f64> = untraced.reads.iter().map(|&(_, ms)| ms).collect();
    let commit_ms: Vec<f64> = untraced
        .writers
        .iter()
        .flat_map(|w| w.commits.iter().copied())
        .collect();
    let p99 = |ms: &[f64]| stats::percentile(&stats::sorted(ms.to_vec()), 99.0).unwrap_or(0.0);
    let stall_floor = STALL_FACTOR * median(commit_ms.clone());
    let stalled: f64 = commit_ms.iter().filter(|&&ms| ms > stall_floor).sum();
    // wire overhead: the same request's round trip minus its handle
    let handle_by_op: HashMap<u32, u64> = spans
        .iter()
        .filter(|s| s.name == "server.handle_read")
        .map(|s| (s.op_id, s.duration_ns()))
        .collect();
    let wire_overhead: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "wire.rtt")
        .filter_map(|s| Some((s.duration_ns() as f64 - *handle_by_op.get(&s.op_id)? as f64) / 1e3))
        .collect();
    let (before, after) = &traced.stats;
    let delta = |f: fn(&Snapshot) -> u64| f(after).saturating_sub(f(before)) as f64;
    let traced_points: u64 = traced.writers.iter().map(|w| w.points).sum();
    let plan_lookups = delta(|s| s.query.plan_cache_hits) + delta(|s| s.query.plan_cache_misses);
    let resolutions =
        delta(|s| s.temporal.snapshot_cache_hits) + delta(|s| s.temporal.snapshot_rebuilds);
    let fleet_execute = spans
        .iter()
        .filter(|s| s.name == "query.execute")
        .filter(|s| matches!(&ops[s.op_id as usize], SampleOp::Read(r) if r.fleet_window.is_some() && r.bound == Bound::Live))
        .map(Span::duration_ns)
        .sum::<u64>() as f64;
    let push_ms: Vec<f64> = untraced
        .writers
        .iter()
        .flat_map(|w| w.push_ms.iter().copied())
        .collect();
    let read_gap =
        trace::unaccounted_share(spans, "server.handle_read", "replica.read").unwrap_or(0.0);
    let commit_gap =
        trace::unaccounted_share(spans, "server.handle_commit", "replica.commit").unwrap_or(0.0);
    for (what, gap, handle_us) in [
        ("read", read_gap, us("server.handle_read")),
        ("commit", commit_gap, us("server.handle_commit")),
    ] {
        if gap.abs() > BUDGET_TOLERANCE {
            notes.push(format!(
                "{what} budget does not add up: {:.1} % of the median Engine::handle ({:.1} of {handle_us:.1} us) \
                 is not explained by the layers' public calls — {}",
                gap * 100.0,
                gap * handle_us,
                if gap > 0.0 {
                    "lock waits (backend, history mutex), metrics bookkeeping and engine glue, \
                     not observable from outside"
                } else {
                    "the replica did more work than the engine (cold caches the engine had warm)"
                }
            ));
        }
    }
    let values: [f64; 50] = [
        median(wire_overhead),
        us("server.handle_read"),
        us("server.handle_commit"),
        us("server.proto_codec"),
        mean(&probes.response_bytes),
        of_class(ReadClass::Count),
        of_class(ReadClass::Point),
        of_class(ReadClass::FleetAgg),
        of_class(ReadClass::FilterAgg),
        of_class(ReadClass::Pattern),
        of_class(ReadClass::Varlen),
        p99(&read_ms),
        p99(&commit_ms),
        ratio(stalled, commit_ms.iter().sum()),
        tax,
        us("query.parse"),
        us("query.plan"),
        us("query.execute"),
        ratio(delta(|s| s.query.plan_cache_hits), plan_lookups),
        ratio(fleet_execute, total("query.execute_one_shard")),
        ratio(
            total("ts.summarize") / 1e3,
            probes.summarized_points as f64 / 1e3,
        ),
        ratio(total("ts.summarize"), fleet_execute),
        ratio(total("ts.append"), probes.appended_points as f64),
        us("graph.match"),
        mean(&probes.bindings),
        pmap_get_ns(oracle.graph().vertex_count() as u64 + oracle.graph().edge_count() as u64),
        ratio(total("core.apply") / 1e3, probes.applied_mutations as f64),
        us("core.snapshot_clone"),
        us("persist.stage"),
        us("persist.sync"),
        ratio(delta(|s| s.persist.wal_syncs), n_commits as f64),
        ratio(delta(|s| s.persist.wal_synced_bytes), traced_points as f64),
        if n_commits > 0 {
            persist.checkpoint_ms
        } else {
            0.0
        },
        if n_commits > 0 {
            persist.checkpoint_bytes as f64
        } else {
            0.0
        },
        if n_commits > 0 {
            persist.recovery_frames_per_s
        } else {
            0.0
        },
        us("temporal.record_commit"),
        if n_commits > 0 {
            history_bytes_per_commit
        } else {
            0.0
        },
        us("temporal.snapshot_at.cold") / 1e3,
        us("temporal.snapshot_at.warm"),
        ratio(delta(|s| s.temporal.snapshot_cache_hits), resolutions),
        us("sub.on_commit"),
        ratio(delta(|s| s.sub.deltas_pushed), n_commits as f64),
        ratio(
            delta(|s| s.sub.fallback_reruns),
            (n_commits * workload::STANDING.len()) as f64,
        ),
        median(push_ms),
        setup_times.generate_s,
        setup_times.load_s,
        setup_times.open_s,
        read_gap,
        commit_gap,
        ratio(
            ops.len() as f64 / traced.elapsed_s,
            ops.len() as f64 / untraced.elapsed_s,
        ),
    ];
    notes.push(format!(
        "sample: {} operations ({n_commits} commits), replayed by one client; untraced {:.3} s, traced {:.3} s",
        ops.len(),
        untraced.elapsed_s,
        traced.elapsed_s
    ));
    let metrics: Vec<Metric> = METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    Outcome {
        attempted: attempted + ops.len() as u64 * 2,
        failed,
        metrics,
        diagnostics: Vec::new(),
        notes,
    }
}
