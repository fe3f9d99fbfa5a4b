//! The test bed (an in-process server over the durable sharded engine),
//! the closed-loop clients that drive it over TCP, and the untraced run
//! that produces the end-to-end metrics.
//!
//! Fixed configuration — pinned by constructor or `install`, never by
//! the environment: 2 shards, plan cache 64 (the shipped default),
//! history on, metrics registry on, 2 server workers, queue depth 4096,
//! no request deadline, fsync on every commit, default checkpoint
//! interval. Sized for a 2-core box that the load generator shares.

use crate::check::{self, Oracle};
use crate::stats;
use crate::trace::{self, Off, Recorder};
use crate::workload::{self, Corpus, Limit, ReadClass, ReadOp, Scale, Workload};
use hygraph_persist::{fault, HgMutation};
use hygraph_query::QueryResult;
use hygraph_server::{Client, Engine, Push, Request, Response, Server, Subscription};
use hygraph_temporal::HistoryConfig;
use hygraph_types::net::ServerConfig;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Shards of the durable store and the engine's snapshot plane.
pub const SHARDS: usize = 2;
/// Plan-cache entries (the shipped default).
pub const PLAN_CACHE: usize = 64;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Admission-queue depth: never the limit with two closed-loop clients.
pub const QUEUE_DEPTH: usize = 4096;
/// Set-ups per run: the first serves the window and `setup_s` is the
/// median of all (the driver's contract asks for several set-ups per run).
pub const SETUPS: usize = 3;
/// Timed recoveries of the copied store per run; `recovery_s` is their
/// median (one recovery takes about 0.1 s, too short to time once).
pub const RECOVERIES: usize = 5;

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one invocation runs.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input sizes.
    pub scale: Scale,
    /// The seed all inputs derive from.
    pub seed: u64,
    /// Length of the measured window (ignored when the scale fixes an
    /// operation count).
    pub seconds: f64,
    /// Directory for store directories and the trace file.
    pub scratch: PathBuf,
}

impl RunConfig {
    fn window(&self) -> Limit {
        self.scale
            .window_ops
            .map_or(Limit::Seconds(self.seconds), Limit::Ops)
    }
}

/// `HYGRAPH_*` variables present in the environment. The benchmark
/// refuses to run with any set: every knob is pinned in code, and a
/// stray variable would silently measure a different configuration.
pub fn hygraph_env() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HYGRAPH_"))
        .collect();
    set.sort();
    set
}

/// Installs the process-wide parts of the fixed configuration (they are
/// install-once, so this runs before anything touches the engine).
pub fn pin_process_config() {
    hygraph_metrics::install(hygraph_metrics::MetricsConfig::default());
    hygraph_types::shard::ShardConfig::new()
        .shards(SHARDS)
        .install();
}

fn server_config() -> ServerConfig {
    ServerConfig::new()
        .addr("127.0.0.1:0")
        .workers(WORKERS)
        .queue_depth(QUEUE_DEPTH)
        .req_timeout_ms(0)
}

/// Opens (or recovers) the durable sharded engine at `dir`.
pub fn open_engine(dir: &Path, history: HistoryConfig) -> Engine {
    Engine::open_durable_sharded(dir, PLAN_CACHE, history, SHARDS)
        .expect("open the durable sharded store")
}

/// Where set-up time went.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `bike::generate` and the conversion to load batches.
    pub generate_s: f64,
    /// `Engine::open_durable_sharded` calls (fresh, and the reopen
    /// `asof_read` does).
    pub open_s: f64,
    /// Loading the corpus through `mutate_batch`.
    pub load_s: f64,
    /// All of set-up, to the first warm-up operation.
    pub total_s: f64,
}

/// A served store ready for a workload.
pub struct Bed {
    /// The in-process server.
    pub server: Server,
    /// Its store directory.
    pub dir: PathBuf,
    /// The corpus that was loaded.
    pub corpus: Corpus,
    /// Batches applied after the corpus (`asof_read`'s history), in
    /// commit order.
    pub history: Vec<Vec<HgMutation>>,
    /// Their commit timestamps.
    pub commit_ts: Vec<i64>,
    /// Where the time went.
    pub times: SetupTimes,
    /// Latency of every `mutate_batch` set-up issued, in ms.
    pub commit_ms: Vec<f64>,
    /// Points those batches carried.
    pub commit_points: u64,
}

impl Bed {
    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Shuts the server down and removes the store directory.
    pub fn teardown(self) {
        self.server.shutdown().expect("server shutdown");
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn timed_commit(client: &mut Client, batch: &[HgMutation], commit_ms: &mut Vec<f64>) {
    let t = Instant::now();
    let (_, count) = client
        .mutate_batch(batch.to_vec())
        .expect("set-up batch commits");
    commit_ms.push(t.elapsed().as_secs_f64() * 1e3);
    assert_eq!(count as usize, batch.len(), "set-up batch fully applied");
}

/// Set-up: generate the corpus, open an empty store, serve it, and load
/// the corpus through `mutate_batch` over TCP. For `asof_read` the
/// corpus is then checkpointed and the store reopened — so the history
/// horizon is the checkpoint, as in a store that has been running for a
/// while — and `history_batches` single-writer batches build the commit
/// timeline the readers travel over.
pub fn setup(cfg: &RunConfig, dir: PathBuf, history: HistoryConfig) -> Bed {
    let t0 = Instant::now();
    let mut times = SetupTimes::default();
    let corpus = workload::corpus(cfg.scale, cfg.seed);
    times.generate_s = t0.elapsed().as_secs_f64();

    let _ = std::fs::remove_dir_all(&dir);
    let t = Instant::now();
    let engine = open_engine(&dir, history.clone());
    times.open_s = t.elapsed().as_secs_f64();
    let mut server = Server::serve_engine(engine, &server_config()).expect("serve");
    let mut client = Client::connect(server.local_addr()).expect("connect loader");
    let mut commit_ms = Vec::with_capacity(corpus.load.len() + cfg.scale.history_batches);
    let t = Instant::now();
    for batch in &corpus.load {
        timed_commit(&mut client, batch, &mut commit_ms);
    }
    times.load_s = t.elapsed().as_secs_f64();
    let mut commit_points = corpus.points;

    let mut history_batches = Vec::new();
    let mut commit_ts = Vec::new();
    if cfg.workload == Workload::AsofRead {
        client.checkpoint().expect("checkpoint the corpus");
        drop(client);
        server.shutdown().expect("shutdown before reopen");
        let t = Instant::now();
        let engine = open_engine(&dir, history);
        times.open_s += t.elapsed().as_secs_f64();
        server = Server::serve_engine(engine, &server_config()).expect("serve reopened");
        client = Client::connect(server.local_addr()).expect("connect loader");
        for i in 0..cfg.scale.history_batches as u64 {
            let batch = workload::writer_batch(&corpus.shape, 0, 1, i);
            timed_commit(&mut client, &batch, &mut commit_ms);
            commit_points += workload::batch_points(&batch);
            history_batches.push(batch);
        }
        commit_ts = server
            .engine()
            .history_commit_timestamps()
            .expect("history is on");
        assert_eq!(
            commit_ts.len(),
            history_batches.len(),
            "one commit per history batch"
        );
    }
    times.total_s = t0.elapsed().as_secs_f64();
    Bed {
        server,
        dir,
        corpus,
        history: history_batches,
        commit_ts,
        times,
        commit_ms,
        commit_points,
    }
}

/// What one reader client did in the measured window.
pub struct ReaderOut {
    /// Its operation list.
    pub ops: Vec<ReadOp>,
    /// Send → decoded reply of every completed read, in ms.
    pub latencies: Vec<(ReadClass, f64)>,
    /// First reply per list position (static-state workloads only).
    pub replies: Vec<Option<Response>>,
    /// Reads attempted / failed (error replies, and replies that differ
    /// from an earlier reply to the same request on a static state).
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Wall time of its measured phase, to its last reply, in seconds.
    pub wall_s: f64,
}

/// What one writer client did.
pub struct WriterOut {
    /// Send → durable ack of every acknowledged batch of the window, in
    /// ms.
    pub commits: Vec<f64>,
    /// Commit send → expected delta received, ms, on graph batches.
    pub push_ms: Vec<f64>,
    /// Batches acknowledged in total (warm-up included): the oracle
    /// replays exactly `0..acked`.
    pub acked: u64,
    /// Points acknowledged in the window.
    pub points: u64,
    /// Batches attempted / failed in the window.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Final local materialisation of each standing query.
    pub standing: Vec<QueryResult>,
    /// Wall time of its measured phase, to its last ack, in seconds.
    pub wall_s: f64,
}

/// One closed-loop operation: send, wait for the decoded reply, and
/// time the round trip in ms. Every client of every run goes through
/// here; with [`Off`] the span calls compile to nothing, so the untraced
/// windows pay no branch for the recorder the `--trace` replay passes.
pub fn call_timed<R: Recorder>(
    rec: &mut R,
    op_id: u32,
    client: &mut Client,
    request: &Request,
) -> (hygraph_types::Result<Response>, f64) {
    let t = Instant::now();
    let reply = trace::timed(rec, op_id, "wire.rtt", None, || client.call(request));
    (reply, t.elapsed().as_secs_f64() * 1e3)
}

/// Per-phase stop rule shared by readers and writers.
struct Phase {
    limit: Limit,
    started: Instant,
    done: usize,
}

impl Phase {
    fn new(limit: Limit) -> Self {
        Self {
            limit,
            started: Instant::now(),
            done: 0,
        }
    }

    /// Whether another operation should be issued; counts it if so.
    fn next(&mut self) -> bool {
        let go = match self.limit {
            Limit::Ops(n) => self.done < n,
            Limit::Seconds(s) => self.started.elapsed().as_secs_f64() < s,
        };
        self.done += usize::from(go);
        go
    }

    fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// A closed-loop reader: sends its list in order, round and round, and
/// waits for each reply before the next request.
fn reader(
    addr: SocketAddr,
    ops: Vec<ReadOp>,
    commit_ts: &[i64],
    static_state: bool,
    (warmup, window): (Limit, Limit),
    barrier: &Barrier,
) -> ReaderOut {
    let mut client = Client::connect(addr).expect("connect reader");
    let requests: Vec<Request> = ops.iter().map(|op| op.request(commit_ts)).collect();
    let mut out = ReaderOut {
        latencies: Vec::with_capacity(1 << 16),
        replies: vec![None; if static_state { ops.len() } else { 0 }],
        ops,
        attempted: 0,
        failed: 0,
        wall_s: 0.0,
    };
    let mut cursor = 0;
    let mut phase = Phase::new(warmup);
    while phase.next() {
        client
            .call(&requests[cursor % requests.len()])
            .expect("warm-up read");
        cursor += 1;
    }
    barrier.wait();
    let mut phase = Phase::new(window);
    while phase.next() {
        let at = cursor % requests.len();
        cursor += 1;
        let (reply, ms) = call_timed(&mut Off, 0, &mut client, &requests[at]);
        out.attempted += 1;
        match reply {
            Ok(reply @ Response::Rows(_)) => {
                out.latencies.push((out.ops[at].class, ms));
                if static_state {
                    match &out.replies[at] {
                        None => out.replies[at] = Some(reply),
                        Some(first) => {
                            let same = *first == reply
                                || check::reply_bytes(first) == check::reply_bytes(&reply);
                            out.failed += u64::from(!same);
                        }
                    }
                }
            }
            _ => out.failed += 1,
        }
    }
    out.wall_s = phase.elapsed_s();
    out
}

/// A closed-loop writer: batch `i` of its own unbounded list, one
/// `mutate_batch` per operation, acknowledged durable before the next.
pub struct Writer<'a> {
    /// Its connection (the `--trace` replay also sends reads on it).
    pub client: Client,
    corpus: &'a Corpus,
    /// `(this writer, of how many)`.
    slot: (usize, usize),
    /// The standing queries it holds (`mixed_live` only).
    subs: Vec<Subscription>,
    /// What it has done so far.
    pub out: WriterOut,
}

impl<'a> Writer<'a> {
    /// Connects writer `slot.0` of `slot.1`; `standing` registers the
    /// eight standing queries on its connection first.
    pub fn connect(
        addr: SocketAddr,
        corpus: &'a Corpus,
        slot: (usize, usize),
        standing: bool,
    ) -> Self {
        let mut client = Client::connect(addr).expect("connect writer");
        let subs = if standing {
            workload::STANDING
                .iter()
                .map(|text| client.subscribe(*text).expect("subscribe"))
                .collect()
        } else {
            Vec::new()
        };
        Self {
            client,
            corpus,
            slot,
            subs,
            out: WriterOut {
                commits: Vec::with_capacity(1 << 14),
                push_ms: Vec::new(),
                acked: 0,
                points: 0,
                attempted: 0,
                failed: 0,
                standing: Vec::new(),
                wall_s: 0.0,
            },
        }
    }

    /// Applies one push frame to its subscription; returns whether it
    /// was a delta of the query every graph batch changes.
    fn apply(&mut self, id: u64, push: &Push) -> bool {
        let Some(i) = self.subs.iter().position(|s| s.id() == id) else {
            return false;
        };
        if self.subs[i].apply(push).is_err() || self.subs[i].closed().is_some() {
            self.out.failed += 1;
        }
        i == workload::PUSH_SUB && matches!(push, Push::Delta(_))
    }

    /// Commits the next batch; returns whether it was acknowledged
    /// whole. A `measured` commit is counted and timed; a warm-up one is
    /// only applied.
    pub fn commit<R: Recorder>(&mut self, rec: &mut R, op_id: u32, measured: bool) -> bool {
        let batch =
            workload::writer_batch(&self.corpus.shape, self.slot.0, self.slot.1, self.out.acked);
        let (len, points) = (batch.len() as u64, workload::batch_points(&batch));
        let expects_push = !self.subs.is_empty()
            && batch
                .iter()
                .any(|m| matches!(m, HgMutation::SetProperty { .. }));
        let t = Instant::now();
        let (reply, ms) = call_timed(rec, op_id, &mut self.client, &Request::MutateBatch(batch));
        let ok = matches!(reply, Ok(Response::Committed { count, .. }) if count == len);
        if !ok {
            eprintln!(
                "e2e: writer {:?} batch {} not acknowledged whole: {reply:?}",
                self.slot, self.out.acked
            );
        }
        // pushes that arrived with the reply, then the expected delta if
        // it is still on its way
        let mut pushed = false;
        let mut pushed_ms = ms;
        let deadline = t + Duration::from_secs(2);
        loop {
            let wait = if expects_push && !pushed && ok {
                deadline.saturating_duration_since(Instant::now())
            } else {
                Duration::ZERO
            };
            match self.client.recv_push_timeout(wait).expect("push stream") {
                Some((id, push)) => {
                    if self.apply(id, &push) && !pushed {
                        pushed = true;
                        pushed_ms = pushed_ms.max(t.elapsed().as_secs_f64() * 1e3);
                    }
                }
                None => break,
            }
        }
        if measured {
            self.out.attempted += 1;
            self.out.failed += u64::from(!ok) + u64::from(ok && expects_push && !pushed);
            if ok {
                self.out.commits.push(ms);
                self.out.points += points;
                if expects_push && pushed {
                    self.out.push_ms.push(pushed_ms);
                }
            }
        }
        self.out.acked += u64::from(ok);
        ok
    }
    /// Lets the last commits' deltas arrive, freezes the local results
    /// of the standing queries, and returns what the writer did.
    pub fn finish(mut self) -> WriterOut {
        while let Some((id, push)) = self
            .client
            .recv_push_timeout(Duration::from_millis(100))
            .expect("push stream")
        {
            self.apply(id, &push);
        }
        self.out.standing = self.subs.iter().map(|s| s.rows().clone()).collect();
        self.out
    }
}

fn writer(
    addr: SocketAddr,
    corpus: &Corpus,
    slot: (usize, usize),
    standing: bool,
    (warmup, window): (Limit, Limit),
    barrier: &Barrier,
) -> WriterOut {
    let mut w = Writer::connect(addr, corpus, slot, standing);
    let mut phase = Phase::new(warmup);
    while phase.next() {
        // a rejected batch would leave this writer's list and the
        // oracle out of step; in warm-up that is a broken generator
        assert!(w.commit(&mut Off, 0, false), "warm-up batch rejected");
    }
    barrier.wait();
    let mut phase = Phase::new(window);
    while phase.next() && w.commit(&mut Off, 0, true) {}
    w.out.wall_s = phase.elapsed_s();
    w.finish()
}

/// Everything the clients of one window produced.
pub struct WindowOut {
    /// Per reader.
    pub readers: Vec<ReaderOut>,
    /// Per writer.
    pub writers: Vec<WriterOut>,
}

impl WindowOut {
    /// Operations attempted in the window.
    pub fn attempted(&self) -> u64 {
        self.readers.iter().map(|r| r.attempted).sum::<u64>()
            + self.writers.iter().map(|w| w.attempted).sum::<u64>()
    }

    /// Operations that failed in the window.
    pub fn failed(&self) -> u64 {
        self.readers.iter().map(|r| r.failed).sum::<u64>()
            + self.writers.iter().map(|w| w.failed).sum::<u64>()
    }

    /// Completed client operations ÷ measured wall time, summed over
    /// clients: reads where the workload has readers (so on `mixed_live`
    /// the reader's operations only), commits where it has none.
    pub fn ops_per_s(&self) -> f64 {
        if self.readers.is_empty() {
            let rates = self
                .writers
                .iter()
                .map(|w| w.commits.len() as f64 / w.wall_s);
            rates.sum()
        } else {
            let rates = self
                .readers
                .iter()
                .map(|r| r.latencies.len() as f64 / r.wall_s);
            rates.sum()
        }
    }

    /// Appended points acknowledged durable ÷ measured wall time.
    pub fn points_per_s(&self) -> f64 {
        self.writers
            .iter()
            .map(|w| w.points as f64 / w.wall_s)
            .sum()
    }

    /// Read latencies of the window in ms.
    pub fn read_ms(&self) -> Vec<f64> {
        let all = self.readers.iter().flat_map(|r| &r.latencies);
        all.map(|&(_, ms)| ms).collect()
    }

    /// Commit latencies of the window in ms.
    pub fn commit_ms(&self) -> Vec<f64> {
        self.writers
            .iter()
            .flat_map(|w| w.commits.iter().copied())
            .collect()
    }
}

/// Runs one closed-loop window of the workload against `bed`: every
/// client warms up, all meet at a barrier, and each then runs its
/// measured phase until the limit.
pub fn run_window(cfg: &RunConfig, bed: &Bed, window: Limit) -> WindowOut {
    let (n_readers, n_writers) = cfg.workload.clients();
    let shape = &bed.corpus.shape;
    let read_lists: Vec<Vec<ReadOp>> = (0..n_readers)
        .map(|client| workload::reader_list(cfg.workload, shape, cfg.scale, client))
        .collect();
    // replies are comparable run-round only while nothing writes
    let static_state = n_writers == 0;
    let standing = cfg.workload == Workload::MixedLive;
    let barrier = &Barrier::new(n_readers + n_writers);
    let (addr, limits) = (bed.addr(), (cfg.scale.warmup, window));
    std::thread::scope(|scope| {
        let readers: Vec<_> = read_lists
            .into_iter()
            .map(|ops| {
                scope
                    .spawn(move || reader(addr, ops, &bed.commit_ts, static_state, limits, barrier))
            })
            .collect();
        let writers: Vec<_> = (0..n_writers)
            .map(|w| {
                scope.spawn(move || {
                    writer(addr, &bed.corpus, (w, n_writers), standing, limits, barrier)
                })
            })
            .collect();
        WindowOut {
            readers: readers
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .collect(),
            writers: writers
                .into_iter()
                .map(|h| h.join().expect("writer thread"))
                .collect(),
        }
    })
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The result of one invocation: what the last output line carries.
pub struct Outcome {
    /// Operations attempted (client operations plus one per state or
    /// answer checked after the window).
    pub attempted: u64,
    /// Of those, how many failed or were wrong.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Figures printed and kept in the `--out` envelope but not in the
    /// result line: the demoted end-to-end metrics (README, "Demoted").
    pub diagnostics: Vec<Metric>,
    /// Human-readable notes (sample counts, supported percentiles).
    pub notes: Vec<String>,
}

/// Median and p95 of a whole latency sample; its count, quartiles and
/// the highest tail it supports go to the notes.
fn p50_p95(name: &str, ms: Vec<f64>, notes: &mut Vec<String>) -> (f64, f64) {
    let sorted = stats::sorted(ms);
    let p50 = stats::median(&sorted).unwrap_or(0.0);
    let p = |p: f64| stats::percentile(&sorted, p).unwrap_or(0.0);
    notes.push(format!(
        "{name}: n = {}, p25 = {:.4} ms, p50 = {p50:.4} ms, p75 = {:.4} ms; highest tail \
         with {} values beyond it: {}",
        sorted.len(),
        p(25.0),
        p(75.0),
        stats::MIN_BEYOND,
        stats::supported_tail(&sorted)
            .map_or("none".to_string(), |(p, v)| format!("p{p} = {v:.4} ms")),
    ));
    (p50, p(95.0))
}

/// Recovers a fresh copy of `snapshot` and answers one `count` query;
/// returns the seconds that took and the recovered engine.
fn recover(snapshot: &[(String, Vec<u8>)], dir: &Path) -> (f64, Engine) {
    let _ = std::fs::remove_dir_all(dir);
    fault::restore_dir(dir, snapshot).expect("write the copied store");
    let t = Instant::now();
    let engine = open_engine(dir, HistoryConfig::default());
    let reply = engine.handle(&Request::Query(
        "MATCH (s:Station) RETURN COUNT(s) AS n".into(),
    ));
    let s = t.elapsed().as_secs_f64();
    assert!(
        matches!(reply, Response::Rows(_)),
        "recovered store answers: {reply:?}"
    );
    (s, engine)
}

/// The untraced run: one set-up, one closed-loop window, a copy of the
/// store directory taken while the server is still running, then
/// `SETUPS - 1` more set-ups (so `setup_s` is a median), `RECOVERIES`
/// timed recoveries of the copy, and the oracle check of every answer
/// and state.
pub fn end_to_end(cfg: &RunConfig) -> Outcome {
    let mut notes = Vec::new();
    let store = cfg.scratch.join("store");
    let bed = setup(cfg, store.clone(), HistoryConfig::default());
    let window = run_window(cfg, &bed, cfg.window());
    // read now: the peak that counts is one set-up plus the served
    // window; the set-ups, recoveries and oracle below allocate too
    let rss = rss_peak_mb();
    let mut attempted = window.attempted();
    let mut failed = window.failed();
    if failed > 0 {
        notes.push(format!("FAILED {failed} operations in the window (error replies, unstable answers, lost pushes)"));
    }

    // crash-like copy: whatever is in the files now, while the server
    // still runs — bytes a WAL writer buffered in user space are lost
    let snapshot = fault::snapshot_dir(&bed.dir).expect("copy the store directory");
    let disk_bytes: usize = snapshot.iter().map(|(_, bytes)| bytes.len()).sum();
    let live_state = bed.server.engine().state_bytes();

    // the oracle: corpus, history, then exactly the acknowledged batches
    let mut oracle = Oracle::loaded(&bed.corpus.load);
    let epochs = oracle.replay(&bed.history);
    for reader in window.readers.iter().filter(|r| !r.replies.is_empty()) {
        attempted += reader.replies.iter().flatten().count() as u64;
        let wrong = check::mismatches(&oracle, &epochs, &reader.ops, &reader.replies);
        if wrong > 0 {
            failed += wrong;
            notes.push(format!("WRONG {wrong} answers differ from the oracle's"));
        }
    }
    drop(epochs);
    let n_writers = window.writers.len();
    let mut points = bed.commit_points;
    for (w, out) in window.writers.iter().enumerate() {
        for i in 0..out.acked {
            let batch = workload::writer_batch(&bed.corpus.shape, w, n_writers, i);
            points += workload::batch_points(&batch);
            oracle.apply(&batch);
        }
        for (text, rows) in workload::STANDING.iter().zip(&out.standing) {
            attempted += 1;
            if oracle.answer(text) != Response::Rows(rows.clone()) {
                failed += 1;
                notes.push(format!(
                    "WRONG standing result ({} rows held locally): {text}",
                    rows.rows.len()
                ));
            }
        }
    }

    // the writer-only workload reads its final state back, so query
    // answers over freshly ingested data are checked too (and timed)
    let mut readback = Vec::new();
    if cfg.workload == Workload::IngestDurable {
        // one reader's list, whole, so class shares are exact here too
        let ops = workload::hybrid_reads(&bed.corpus.shape, cfg.workload, 0, cfg.scale.read_list);
        let mut client = Client::connect(bed.addr()).expect("connect read-back");
        let mut replies = Vec::with_capacity(ops.len());
        for op in &ops {
            let (reply, ms) = call_timed(&mut Off, 0, &mut client, &op.request(&[]));
            readback.push(ms);
            replies.push(reply.ok());
        }
        attempted += ops.len() as u64;
        let wrong = replies.iter().filter(|r| r.is_none()).count() as u64
            + check::mismatches(&oracle, &[], &ops, &replies);
        if wrong > 0 {
            failed += wrong;
            notes.push(format!(
                "WRONG {wrong} read-back answers differ from the oracle's"
            ));
        }
    }

    let expected_state = oracle.state_bytes();
    attempted += 1;
    if live_state != expected_state {
        failed += 1;
        notes.push("WRONG live state_bytes() after the acknowledged batches".to_string());
    }

    // what set-up cost, as a median over SETUPS of them
    let mut setups = vec![bed.times.total_s];
    let load_rate = |b: &Bed| b.commit_points as f64 / (b.commit_ms.iter().sum::<f64>() / 1e3);
    let mut load_rates = vec![load_rate(&bed)];
    let setup_commit_ms = bed.commit_ms.clone();
    bed.teardown();
    for _ in 1..SETUPS {
        let again = setup(cfg, store.clone(), HistoryConfig::default());
        setups.push(again.times.total_s);
        load_rates.push(load_rate(&again));
        again.teardown();
    }
    let setup_s = stats::median_of(&setups).expect("set-ups ran");
    notes.push(format!("setup_s: median of {setups:.3?}"));

    let copy = cfg.scratch.join("recovered");
    let mut recoveries = Vec::with_capacity(RECOVERIES);
    for i in 0..RECOVERIES {
        let (s, engine) = recover(&snapshot, &copy);
        recoveries.push(s);
        if i == 0 {
            // every acknowledged batch must be in the copied files
            attempted += 1;
            if engine.state_bytes() != expected_state {
                failed += 1;
                notes.push(
                    "WRONG recovered state_bytes(): an acknowledged batch is missing".to_string(),
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&copy);
    let recovery_s = stats::median_of(&recoveries).expect("recoveries ran");
    notes.push(format!("recovery_s: median of {recoveries:.4?}"));

    let has_readers = !window.readers.is_empty();
    let has_writers = n_writers > 0;
    let (read_p50, read_p95) = p50_p95(
        if has_readers {
            "reads (window)"
        } else {
            "reads (read-back after the last ack)"
        },
        if has_readers {
            window.read_ms()
        } else {
            readback
        },
        &mut notes,
    );
    let (commit_p50, commit_p95) = p50_p95(
        if has_writers {
            "commits (window)"
        } else {
            "commits (set-up: corpus load, history)"
        },
        if has_writers {
            window.commit_ms()
        } else {
            setup_commit_ms
        },
        &mut notes,
    );
    let points_per_s = if has_writers {
        window.points_per_s()
    } else {
        stats::median_of(&load_rates).expect("set-ups ran")
    };
    let metrics = vec![
        ("setup_s", setup_s, "s"),
        ("ops_per_s", window.ops_per_s(), "1/s"),
        ("read_p50_ms", read_p50, "ms"),
        ("commit_p50_ms", commit_p50, "ms"),
        ("points_per_s", points_per_s, "1/s"),
        ("recovery_s", recovery_s, "s"),
        (
            "disk_bytes_per_point",
            disk_bytes as f64 / points as f64,
            "B",
        ),
        ("rss_peak_mb", rss, "MiB"),
    ];
    // demoted: they do not repeat within a bound (README, "Demoted")
    let mut diagnostics = vec![
        ("read_p95_ms", read_p95, "ms"),
        ("commit_p95_ms", commit_p95, "ms"),
    ];
    let push_ms: Vec<f64> = window
        .writers
        .iter()
        .flat_map(|w| &w.push_ms)
        .copied()
        .collect();
    if let Some(push_p50) = stats::median_of(&push_ms) {
        diagnostics.push(("push_p50_ms", push_p50, "ms"));
    }
    Outcome {
        attempted,
        failed,
        metrics,
        diagnostics,
        notes,
    }
}
