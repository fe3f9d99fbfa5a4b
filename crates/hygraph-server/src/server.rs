//! The TCP serving front end: accept loop, per-connection readers, a
//! fixed worker pool behind the bounded admission queue, and graceful
//! shutdown.
//!
//! # Threading model
//!
//! ```text
//! accept thread ──spawns──▶ reader thread (1 per connection)
//!                               │  decode frame → Request
//!                               ▼  try_push (non-blocking)
//!                        bounded admission queue ──▶ overload reply
//!                               │                    when full
//!                               ▼  pop (blocking)
//!                        worker pool (fixed, ParallelConfig-sized)
//!                               │  deadline check → execute on Engine
//!                               ▼
//!                        response frame → connection (mutex-serialised)
//! ```
//!
//! Readers never execute requests and never block on the queue, so a
//! saturated pool cannot stop the server from *answering* — it answers
//! with an explicit [`ErrorCode::Overloaded`] rejection instead. Each
//! worker writes its response under the connection's write mutex, so
//! concurrent responses to one pipelined client interleave per frame,
//! never mid-frame.
//!
//! # Graceful shutdown
//!
//! [`Server::shutdown`] stops admission (readers answer
//! [`ErrorCode::ShuttingDown`]), lets the workers drain every admitted
//! request and write its response, syncs the store's WAL, and only then
//! drops connections. A client whose request was
//! admitted before shutdown always gets its reply.

use crate::engine::Engine;
use crate::proto::{ErrorCode, Push, Request, Response, MAX_SLEEP_MS};
use crate::queue::{Bounded, PushError};
use hygraph_metrics as metrics;
use hygraph_query::incremental::Delta;
use hygraph_sub::DeltaSink;
use hygraph_types::net::{self, Frame, FrameRead, ServerConfig, ServerSettings};
use hygraph_types::Result;
use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One admitted unit of work: a decoded request plus where to send the
/// response and how long it may wait.
struct Job {
    request_id: u64,
    req: Request,
    reply: Arc<Mutex<TcpStream>>,
    deadline: Option<Instant>,
    /// When the job entered the queue; `Some` only while metrics are
    /// enabled (drives the queue-wait histogram).
    admitted_at: Option<Instant>,
}

#[derive(Default)]
struct Stats {
    admitted: AtomicU64,
    completed: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_deadline: AtomicU64,
    rejected_shutdown: AtomicU64,
    bad_frames: AtomicU64,
    /// Deadline drops that happened *during the shutdown drain* — the
    /// requests a graceful shutdown answered but did not execute.
    drain_deadline_drops: AtomicU64,
}

/// A point-in-time snapshot of the server's request counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted to the queue.
    pub admitted: u64,
    /// Requests a worker finished (including deadline drops).
    pub completed: u64,
    /// Requests rejected because the admission queue was full.
    pub rejected_overload: u64,
    /// Admitted requests dropped at dequeue for exceeding their
    /// deadline.
    pub rejected_deadline: u64,
    /// Requests refused because the server was draining for shutdown.
    pub rejected_shutdown: u64,
    /// Frames rejected before decoding (CRC failures).
    pub bad_frames: u64,
    /// Deadline drops that happened during the shutdown drain (a subset
    /// of `rejected_deadline`).
    pub drain_deadline_drops: u64,
}

/// What a graceful [`Server::shutdown`] accomplished.
pub struct ShutdownReport {
    /// The engine, handed back for inspection or reuse — `None` if a
    /// [`crate::client::LocalClient`] still shares it (the shutdown
    /// itself still completed and the WAL is synced).
    pub engine: Option<Engine>,
    /// Requests taken off the queue and answered during the drain
    /// (executed or deadline-dropped).
    pub drained: u64,
    /// How many of the drained requests sat past their deadline and
    /// were answered [`ErrorCode::DeadlineExceeded`] without executing.
    pub dropped_at_deadline: u64,
    /// Final counter values at the instant the drain finished.
    pub stats: ServerStats,
}

impl std::fmt::Debug for ShutdownReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShutdownReport")
            .field("engine", &self.engine.is_some())
            .field("drained", &self.drained)
            .field("dropped_at_deadline", &self.dropped_at_deadline)
            .field("stats", &self.stats)
            .finish()
    }
}

/// The per-connection outbound push channel for standing-query deltas.
///
/// Workers (inside [`Engine::mutate_batch`], under the engine's write
/// lock) enqueue pre-encoded frames; a dedicated pusher thread drains
/// the queue and writes them under the connection's reply mutex, so
/// pushes interleave with pipelined replies per frame, never mid-frame,
/// and a slow socket never blocks the commit path — the queue just
/// fills and the registry drops the subscriber.
struct ConnSink {
    reply: Arc<Mutex<TcpStream>>,
    max_frame: usize,
    /// Queue depth bound (`HYGRAPH_SUB_BUFFER`); [`Push::Closed`]
    /// frames bypass it so the disconnect reason always fits.
    cap: usize,
    q: Mutex<VecDeque<Frame>>,
    cv: Condvar,
    done: AtomicBool,
}

impl ConnSink {
    fn new(reply: Arc<Mutex<TcpStream>>, max_frame: usize, cap: usize) -> Self {
        Self {
            reply,
            max_frame,
            cap,
            q: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            done: AtomicBool::new(false),
        }
    }

    fn enqueue(&self, frame: Frame, respect_cap: bool) -> bool {
        let mut q = lock(&self.q);
        if respect_cap && q.len() >= self.cap {
            return false;
        }
        q.push_back(frame);
        self.cv.notify_one();
        true
    }

    /// Stops the pusher after it flushes what is already queued.
    fn shutdown(&self) {
        self.done.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }
}

impl DeltaSink for ConnSink {
    fn push_delta(&self, sub_id: u64, delta: &Delta) -> bool {
        self.enqueue(Push::Delta(delta.clone()).to_frame(sub_id), true)
    }

    fn close(&self, sub_id: u64, reason: &str) {
        self.enqueue(
            Push::Closed {
                reason: reason.to_owned(),
            }
            .to_frame(sub_id),
            false,
        );
    }
}

/// Drains a [`ConnSink`]'s queue onto the wire until shutdown, then
/// flushes the remainder. A gone peer is not an error here — the
/// registry notices via the filling queue.
fn pusher_loop(sink: &ConnSink) {
    loop {
        let frame = {
            let mut q = lock(&sink.q);
            loop {
                if let Some(f) = q.pop_front() {
                    break f;
                }
                if sink.done.load(Ordering::SeqCst) {
                    return;
                }
                q = sink.cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let mut stream = lock(&sink.reply);
        let _ = net::write_frame(&mut *stream, &frame, sink.max_frame);
    }
}

struct SinkEntry {
    sink: Arc<ConnSink>,
    pusher: Option<JoinHandle<()>>,
}

struct Shared {
    engine: Arc<Engine>,
    queue: Bounded<Job>,
    settings: ServerSettings,
    shutdown: AtomicBool,
    conns: Mutex<Vec<TcpStream>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// Push channels by connection id (the reply-mutex pointer, unique
    /// while the connection lives).
    sinks: Mutex<HashMap<u64, SinkEntry>>,
    stats: Stats,
}

/// A connection's id: the address of its reply mutex — stable and
/// unique for the connection's whole lifetime, with no extra counter to
/// thread through.
fn conn_id(reply: &Arc<Mutex<TcpStream>>) -> u64 {
    Arc::as_ptr(reply) as usize as u64
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn snapshot_stats(s: &Stats) -> ServerStats {
    ServerStats {
        admitted: s.admitted.load(Ordering::Relaxed),
        completed: s.completed.load(Ordering::Relaxed),
        rejected_overload: s.rejected_overload.load(Ordering::Relaxed),
        rejected_deadline: s.rejected_deadline.load(Ordering::Relaxed),
        rejected_shutdown: s.rejected_shutdown.load(Ordering::Relaxed),
        bad_frames: s.bad_frames.load(Ordering::Relaxed),
        drain_deadline_drops: s.drain_deadline_drops.load(Ordering::Relaxed),
    }
}

/// Writes one response frame under the connection's write mutex. A gone
/// peer is not an error — the work was done; only the reply is lost.
fn respond(reply: &Mutex<TcpStream>, resp: &Response, request_id: u64, max_bytes: usize) {
    let frame = resp.to_frame(request_id);
    let mut stream = lock(reply);
    let _ = net::write_frame(&mut *stream, &frame, max_bytes);
}

fn reject(reply: &Mutex<TcpStream>, code: ErrorCode, msg: &str, request_id: u64, max: usize) {
    respond(
        reply,
        &Response::Error {
            code,
            message: msg.to_owned(),
        },
        request_id,
        max,
    );
}

fn reader_loop(shared: &Shared, mut stream: TcpStream, reply: Arc<Mutex<TcpStream>>) {
    let max = shared.settings.max_frame_bytes;
    if let Some(m) = metrics::get() {
        m.server.connections.inc();
    }
    loop {
        let frame = match net::read_frame(&mut stream, max) {
            Ok(FrameRead::Frame(f)) => f,
            // clean close between frames
            Ok(FrameRead::Eof) => break,
            // CRC failure: the stream is still frame-aligned, so reject
            // the frame (id 0 = connection-level) and keep reading
            Ok(FrameRead::Corrupt(msg)) => {
                shared.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = metrics::get() {
                    m.server.bad_frames.inc();
                }
                reject(&reply, ErrorCode::BadFrame, &msg, 0, max);
                continue;
            }
            // bad magic / oversize / mid-frame hangup: unrecoverable
            Err(_) => break,
        };
        // admission clock starts once a whole frame is off the wire
        let t_admit = metrics::enabled().then(Instant::now);
        let request_id = frame.request_id;
        let req = match Request::from_frame(&frame) {
            Ok(r) => r,
            Err(e) => {
                reject(
                    &reply,
                    ErrorCode::BadRequest,
                    &e.to_string(),
                    request_id,
                    max,
                );
                continue;
            }
        };
        let job = Job {
            request_id,
            req,
            reply: Arc::clone(&reply),
            deadline: shared.settings.req_timeout.map(|t| Instant::now() + t),
            admitted_at: t_admit,
        };
        // admission is counted *inside* the queue's critical section:
        // a worker pops through the same lock, so a dequeued request's
        // own admission is always visible in the snapshot it takes —
        // the exact-count contract of the `Stats` request
        let pushed = shared.queue.try_push_with(job, || {
            shared.stats.admitted.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = metrics::get() {
                m.server.admitted.inc();
                m.server.queue_depth.inc();
                if let Some(t) = t_admit {
                    m.server.admission_us.observe_duration(t.elapsed());
                }
            }
        });
        match pushed {
            Ok(()) => {}
            Err(PushError::Full(job)) => {
                shared
                    .stats
                    .rejected_overload
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(m) = metrics::get() {
                    m.server.rejected_overload.inc();
                }
                reject(
                    &job.reply,
                    ErrorCode::Overloaded,
                    "admission queue full; retry later",
                    job.request_id,
                    max,
                );
            }
            Err(PushError::Closed(job)) => {
                shared
                    .stats
                    .rejected_shutdown
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(m) = metrics::get() {
                    m.server.rejected_shutdown.inc();
                }
                reject(
                    &job.reply,
                    ErrorCode::ShuttingDown,
                    "server is draining",
                    job.request_id,
                    max,
                );
                break;
            }
        }
    }
    // connection teardown: stop the pusher (flushing what is queued),
    // then unregister every standing query of this connection. Order
    // matters for the subscribe race (see the worker's Subscribe arm):
    // `done` is set before `drop_conn`, so a concurrent subscribe either
    // observes `done` and self-unsubscribes, or registered early enough
    // that `drop_conn` sweeps it.
    let id = conn_id(&reply);
    // absent when server shutdown already drained the sinks map
    let entry = lock(&shared.sinks).remove(&id);
    if let Some(entry) = &entry {
        entry.sink.shutdown();
    }
    shared.engine.drop_conn(id);
    if let Some(SinkEntry {
        pusher: Some(h), ..
    }) = entry
    {
        let _ = h.join();
    }
    if let Some(m) = metrics::get() {
        m.server.connections.dec();
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        if let Some(m) = metrics::get() {
            m.server.queue_depth.dec();
            if let Some(t) = job.admitted_at {
                m.server.queue_wait_us.observe_duration(t.elapsed());
            }
        }
        let resp = if job.deadline.is_some_and(|d| Instant::now() > d) {
            shared
                .stats
                .rejected_deadline
                .fetch_add(1, Ordering::Relaxed);
            // a deadline drop while the queue is closed is a request the
            // graceful shutdown answered but never executed
            let draining = shared.shutdown.load(Ordering::SeqCst);
            if draining {
                shared
                    .stats
                    .drain_deadline_drops
                    .fetch_add(1, Ordering::Relaxed);
            }
            if let Some(m) = metrics::get() {
                m.server.rejected_deadline.inc();
                if draining {
                    m.server.drain_deadline_drops.inc();
                }
            }
            Response::Error {
                code: ErrorCode::DeadlineExceeded,
                message: "request queued past its deadline; dropped unexecuted".into(),
            }
        } else {
            let t_exec = metrics::enabled().then(Instant::now);
            if let Some(m) = metrics::get() {
                m.server.workers_busy.inc();
            }
            let resp = match &job.req {
                Request::Sleep(ms) => {
                    // serviced here, not in the engine: holds no lock,
                    // only a worker slot — exactly what the saturation
                    // tests need
                    std::thread::sleep(Duration::from_millis(*ms.min(&MAX_SLEEP_MS)));
                    Response::Pong
                }
                // connection-scoped, so serviced here where the push
                // sink lives, not in the engine
                Request::Subscribe(text) => {
                    let id = conn_id(&job.reply);
                    let sink = lock(&shared.sinks).get(&id).map(|e| Arc::clone(&e.sink));
                    match sink {
                        Some(sink) => {
                            match shared.engine.subscribe(text, id, sink.clone()) {
                                Ok((sub_id, snapshot)) => {
                                    if sink.done.load(Ordering::SeqCst) {
                                        // the reader tore the connection
                                        // down while we registered; its
                                        // drop_conn may have run before
                                        // we existed, so sweep ourselves
                                        shared.engine.unsubscribe(id, sub_id);
                                        Response::Error {
                                            code: ErrorCode::Exec,
                                            message: "connection closed during subscribe".into(),
                                        }
                                    } else {
                                        Response::Subscribed { sub_id, snapshot }
                                    }
                                }
                                Err(e) => Response::Error {
                                    code: ErrorCode::Exec,
                                    message: e.to_string(),
                                },
                            }
                        }
                        None => Response::Error {
                            code: ErrorCode::Exec,
                            message: "connection is closing".into(),
                        },
                    }
                }
                Request::Unsubscribe { sub_id } => Response::Unsubscribed {
                    existed: shared.engine.unsubscribe(conn_id(&job.reply), *sub_id),
                },
                req => shared.engine.handle(req),
            };
            if let Some(m) = metrics::get() {
                m.server.workers_busy.dec();
                if let Some(t) = t_exec {
                    m.server.execute_us.observe_duration(t.elapsed());
                }
            }
            resp
        };
        shared.stats.completed.fetch_add(1, Ordering::Relaxed);
        // count completion *before* the response hits the wire, so a
        // client that has a reply in hand is guaranteed to see it in the
        // next snapshot (exact-count accounting over a serial connection)
        if let Some(m) = metrics::get() {
            m.server.completed.inc();
        }
        let t_encode = metrics::enabled().then(Instant::now);
        respond(
            &job.reply,
            &resp,
            job.request_id,
            shared.settings.max_frame_bytes,
        );
        if let Some(m) = metrics::get() {
            if let Some(t) = t_encode {
                m.server.encode_us.observe_duration(t.elapsed());
            }
        }
    }
}

/// Periodic one-line metrics summary to stderr, driven by
/// `HYGRAPH_METRICS_LOG_EVERY_MS` (see [`hygraph_metrics::MetricsConfig`]).
/// Sleeps in short slices so shutdown never waits more than ~250 ms for
/// this thread.
fn logger_loop(shared: &Shared, every: Duration) {
    let slice = Duration::from_millis(250).min(every);
    let mut last = Instant::now();
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(slice);
        if last.elapsed() >= every {
            last = Instant::now();
            if let Some(snap) = metrics::snapshot() {
                eprintln!("{}", snap.summary_line());
            }
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let (reply, registered) = match (stream.try_clone(), stream.try_clone()) {
            (Ok(w), Ok(r)) => (Arc::new(Mutex::new(w)), r),
            _ => continue,
        };
        lock(&shared.conns).push(registered);
        // every connection gets a push channel up front: subscriptions
        // registered by any worker have somewhere to deliver, with no
        // lazy-spawn race against the commit path
        let sink = Arc::new(ConnSink::new(
            Arc::clone(&reply),
            shared.settings.max_frame_bytes,
            shared.engine.subscriptions().config().push_buffer,
        ));
        let pusher = {
            let sink = Arc::clone(&sink);
            std::thread::Builder::new()
                .name("hygraph-push".into())
                .spawn(move || pusher_loop(&sink))
                .ok()
        };
        lock(&shared.sinks).insert(conn_id(&reply), SinkEntry { sink, pusher });
        let shared2 = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("hygraph-conn".into())
            .spawn(move || reader_loop(&shared2, stream, reply));
        if let Ok(h) = handle {
            lock(&shared.readers).push(h);
        }
    }
}

struct Threads {
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    logger: Option<JoinHandle<()>>,
}

/// A running HyGraph server (see module docs). Dropping it shuts it
/// down best-effort; call [`Server::shutdown`] for the checked path.
pub struct Server {
    shared: Option<Arc<Shared>>,
    threads: Option<Threads>,
    addr: SocketAddr,
}

impl Server {
    /// Binds and starts serving `engine` with `config` (explicit fields
    /// win over `HYGRAPH_*` environment knobs — see [`ServerConfig`]).
    /// Use address `"127.0.0.1:0"` for an ephemeral test port;
    /// [`Server::local_addr`] reports what was bound.
    pub fn serve_engine(engine: Engine, config: &ServerConfig) -> Result<Self> {
        let settings = config.resolve();
        let listener = TcpListener::bind(&settings.addr)?;
        let addr = listener.local_addr()?;
        let workers = settings.workers;
        let shared = Arc::new(Shared {
            engine: Arc::new(engine),
            queue: Bounded::new(settings.queue_depth),
            settings,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
            sinks: Mutex::new(HashMap::new()),
            stats: Stats::default(),
        });
        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let s = Arc::clone(&shared);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("hygraph-worker-{i}"))
                    .spawn(move || worker_loop(&s))?,
            );
        }
        let s = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("hygraph-accept".into())
            .spawn(move || accept_loop(&s, listener))?;
        let every = metrics::config().log_every;
        let logger = if metrics::enabled() && !every.is_zero() {
            let s = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("hygraph-metrics-log".into())
                    .spawn(move || logger_loop(&s, every))?,
            )
        } else {
            None
        };
        Ok(Self {
            shared: Some(shared),
            threads: Some(Threads {
                accept,
                workers: worker_handles,
                logger,
            }),
            addr,
        })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The effective settings this server runs with.
    pub fn settings(&self) -> &ServerSettings {
        &self.shared.as_ref().expect("server not shut down").settings
    }

    /// The shared engine this server executes against — lets tests and
    /// embedded callers pin snapshot epochs ([`Engine::pin_snapshot`])
    /// alongside live wire traffic, at any shard count.
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.shared.as_ref().expect("server not shut down").engine)
    }

    /// A snapshot of the request counters.
    pub fn stats(&self) -> ServerStats {
        snapshot_stats(&self.shared.as_ref().expect("server not shut down").stats)
    }

    /// An in-process client sharing this server's engine — same locks,
    /// same execution paths, no sockets. For tests and benches.
    pub fn local_client(&self) -> crate::client::LocalClient {
        crate::client::LocalClient::new(Arc::clone(
            &self.shared.as_ref().expect("server not shut down").engine,
        ))
    }

    /// Gracefully shuts down: stops admitting, drains every admitted
    /// request (responses are written), syncs the WAL, then closes
    /// connections. The report carries the engine (unless a [`crate::client::LocalClient`] still shares the
    /// engine), how many queued requests the drain answered, and how
    /// many of those sat past their deadline and were dropped
    /// unexecuted.
    pub fn shutdown(mut self) -> Result<ShutdownReport> {
        self.shutdown_impl()
    }

    fn shutdown_impl(&mut self) -> Result<ShutdownReport> {
        let Some(shared) = self.shared.take() else {
            return Ok(ShutdownReport {
                engine: None,
                drained: 0,
                dropped_at_deadline: 0,
                stats: ServerStats::default(),
            });
        };
        let completed_before = shared.stats.completed.load(Ordering::SeqCst);
        let drops_before = shared.stats.drain_deadline_drops.load(Ordering::SeqCst);
        // 1. stop admission: readers see Closed and answer ShuttingDown
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.queue.close();
        // 2. wake the accept thread out of its blocking accept()
        let _ = TcpStream::connect(self.addr);
        if let Some(threads) = self.threads.take() {
            let _ = threads.accept.join();
            // 3. workers drain the queue, then exit on pop() == None
            for w in threads.workers {
                let _ = w.join();
            }
            if let Some(l) = threads.logger {
                let _ = l.join();
            }
        }
        let drained = shared.stats.completed.load(Ordering::SeqCst) - completed_before;
        let dropped_at_deadline =
            shared.stats.drain_deadline_drops.load(Ordering::SeqCst) - drops_before;
        // 3b. the workers are done, so no more deltas can be produced:
        // flush every push channel (queued deltas still reach their
        // subscribers) and retire the pusher threads
        let entries: Vec<SinkEntry> = lock(&shared.sinks).drain().map(|(_, e)| e).collect();
        for e in &entries {
            e.sink.shutdown();
        }
        for e in entries {
            if let Some(h) = e.pusher {
                let _ = h.join();
            }
        }
        // 4. every admitted mutation is on disk before we say goodbye
        shared.engine.sync()?;
        // 5. now drop the connections and collect the readers
        for conn in lock(&shared.conns).drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let readers: Vec<_> = lock(&shared.readers).drain(..).collect();
        for r in readers {
            let _ = r.join();
        }
        let stats = snapshot_stats(&shared.stats);
        let engine = Arc::try_unwrap(shared)
            .ok()
            .and_then(|shared| Arc::try_unwrap(shared.engine).ok());
        Ok(ShutdownReport {
            engine,
            drained,
            dropped_at_deadline,
            stats,
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown_impl();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("stats", &self.shared.as_ref().map(|_| self.stats()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use hygraph_core::HyGraph;
    use hygraph_persist::HgMutation;
    use hygraph_temporal::HistoryConfig;
    use hygraph_types::{Label, PropertyMap, Value};

    fn serve_memory() -> Server {
        let engine =
            Engine::in_memory(HyGraph::new(), 8, HistoryConfig::from_env()).expect("engine");
        Server::serve_engine(engine, &test_config()).expect("bind")
    }

    fn test_config() -> ServerConfig {
        ServerConfig::new()
            .addr("127.0.0.1:0")
            .workers(2)
            .queue_depth(16)
            .req_timeout_ms(2_000)
    }

    #[test]
    fn serves_ping_query_and_mutation_over_tcp() {
        let server = serve_memory();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client.ping().expect("ping");
        let (first, count) = client
            .mutate(HgMutation::AddPgVertex {
                labels: vec![Label::new("User")],
                props: PropertyMap::new(),
                validity: hygraph_types::Interval::ALL,
            })
            .expect("mutate");
        assert_eq!((first, count), (0, 1));
        let rows = client
            .query("MATCH (u:User) RETURN COUNT(u) AS n")
            .expect("query");
        assert_eq!(rows.rows[0][0], Value::Int(1));
        let stats = server.stats();
        assert_eq!(stats.admitted, 3);
        let report = server.shutdown().expect("shutdown");
        let engine = report.engine.expect("engine back");
        assert_eq!(engine.with_graph(HyGraph::vertex_count), 1);
    }

    #[test]
    fn rejects_new_requests_while_draining() {
        let server = serve_memory();
        let addr = server.local_addr();
        let mut client = Client::connect(addr).expect("connect");
        client.ping().expect("ping");
        server.shutdown().expect("shutdown");
        // the connection is gone or refuses work; either way no panic
        let err = client.ping();
        assert!(err.is_err(), "ping after shutdown must fail, got {err:?}");
    }

    #[test]
    fn exec_errors_come_back_typed() {
        let server = serve_memory();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let err = client.query("MTCH nonsense").unwrap_err();
        assert!(
            matches!(err, hygraph_types::HyGraphError::Query(_)),
            "got {err:?}"
        );
        // the connection survives the failed request
        client.ping().expect("ping after error");
        server.shutdown().expect("shutdown");
    }
}
