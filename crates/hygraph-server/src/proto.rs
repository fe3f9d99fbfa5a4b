//! The request/response vocabulary of the HyGraph wire protocol.
//!
//! Messages travel inside [`Frame`]s (see [`hygraph_types::net`]): the
//! frame's kind tag selects a variant here, and the payload is the
//! variant's [`hygraph_types::bytes`] encoding. Mutations reuse the WAL
//! record codec of `hygraph-persist` — what a client sends over the
//! wire is byte-for-byte what the server appends to its log — and query
//! results reuse [`QueryResult`]'s wire codec, so the serving layer
//! introduces no second serialisation vocabulary.
//!
//! Decoding is untrusted on both sides: malformed payloads error,
//! never panic, and never kill the connection loop.

use hygraph_core::HyGraph;
use hygraph_persist::{Durable, HgMutation};
use hygraph_query::QueryResult;
use hygraph_types::bytes::{ByteReader, ByteWriter};
use hygraph_types::net::Frame;
use hygraph_types::{HyGraphError, Result};

/// Upper bound on [`Request::Sleep`] so a hostile client cannot park a
/// worker indefinitely.
pub const MAX_SLEEP_MS: u64 = 10_000;

// Request kinds (client → server).
const K_PING: u8 = 0;
const K_QUERY: u8 = 1;
const K_MUTATE: u8 = 2;
const K_MUTATE_BATCH: u8 = 3;
const K_CHECKPOINT: u8 = 4;
const K_SLEEP: u8 = 5;
const K_STATS: u8 = 6;
const K_SUBSCRIBE: u8 = 7;
const K_UNSUBSCRIBE: u8 = 8;
const K_QUERY_AS_OF: u8 = 9;

// Response kinds (server → client).
const K_PONG: u8 = 128;
const K_ROWS: u8 = 129;
const K_COMMITTED: u8 = 130;
const K_CHECKPOINT_DONE: u8 = 131;
const K_STATS_SNAPSHOT: u8 = 132;
const K_SUBSCRIBED: u8 = 133;
const K_UNSUBSCRIBED: u8 = 134;
const K_ERROR: u8 = 255;

// Push kinds (server → client, unsolicited). Everything in
// `192..K_ERROR` is a push frame: its `request_id` carries the
// *subscription* id, not a request correlation id, so clients must
// route these by kind before matching replies (see
// [`Push::is_push_kind`]).
const K_DELTA: u8 = 192;
const K_SUB_CLOSED: u8 = 193;

/// Why the server refused or failed a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame failed its CRC check; the request was never decoded.
    BadFrame = 0,
    /// The frame decoded but the payload did not parse as a request.
    BadRequest = 1,
    /// The admission queue is full — explicit load shedding. Retry
    /// later; nothing was executed.
    Overloaded = 2,
    /// The request sat in the queue past its deadline and was dropped
    /// without executing.
    DeadlineExceeded = 3,
    /// The server is draining for shutdown and admits no new work.
    ShuttingDown = 4,
    /// The engine executed the request and returned an error (the
    /// message carries its rendering).
    Exec = 5,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            0 => ErrorCode::BadFrame,
            1 => ErrorCode::BadRequest,
            2 => ErrorCode::Overloaded,
            3 => ErrorCode::DeadlineExceeded,
            4 => ErrorCode::ShuttingDown,
            5 => ErrorCode::Exec,
            _ => return Err(HyGraphError::corrupt(format!("unknown error code {v}"))),
        })
    }
}

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Execute a HyQL query and return its rows.
    Query(String),
    /// Commit one mutation (durable on reply when persistence is on).
    Mutate(HgMutation),
    /// Group-commit a batch of mutations: one fsync for the lot.
    MutateBatch(Vec<HgMutation>),
    /// Force a checkpoint (snapshot + log purge) of the engine's store.
    Checkpoint,
    /// Hold a worker for the given milliseconds (capped at
    /// [`MAX_SLEEP_MS`]), then reply [`Response::Pong`] — the serving
    /// analogue of SQL `sleep()`, used by the load tests to saturate
    /// the pool deterministically.
    Sleep(u64),
    /// Fetch the server's observability snapshot (counters, latency
    /// histograms, slow-query log) — answered with [`Response::Stats`].
    Stats,
    /// Register the HyQL text as a standing query on this connection —
    /// answered with [`Response::Subscribed`], after which committed
    /// changes arrive as unsolicited [`Push::Delta`] frames.
    Subscribe(String),
    /// Remove a standing query registered on this connection.
    Unsubscribe {
        /// The id from [`Response::Subscribed`].
        sub_id: u64,
    },
    /// Execute a HyQL query pinned to the store's state as of a past
    /// transaction time — the structured form of an `AS OF` clause, so
    /// clients bind the timestamp without splicing it into query text.
    /// Rejected if `text` already carries its own temporal bound, or if
    /// the server runs with `HYGRAPH_HISTORY=0`.
    QueryAsOf {
        /// The HyQL text (without a temporal clause).
        text: String,
        /// Transaction time to query at, in epoch milliseconds.
        as_of_ms: i64,
    },
}

/// One server response. `Error` carries an [`ErrorCode`] so clients can
/// distinguish retryable rejections (backpressure, shutdown, deadline)
/// from request or execution failures.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`] / [`Request::Sleep`].
    Pong,
    /// Query result rows.
    Rows(QueryResult),
    /// Mutations applied: first LSN and how many were committed.
    Committed {
        /// LSN of the first mutation in the batch.
        first_lsn: u64,
        /// Number of mutations committed.
        count: u64,
    },
    /// Checkpoint finished at this LSN.
    CheckpointDone {
        /// The checkpoint's LSN.
        lsn: u64,
    },
    /// Reply to [`Request::Stats`]: the process-wide metrics snapshot.
    /// The payload is [`hygraph_metrics::Snapshot::to_bytes`] verbatim,
    /// so what a client decodes is byte-identical to what
    /// [`hygraph_metrics::snapshot`] returns in-process (all zeros when
    /// metrics are disabled server-side).
    Stats(Box<hygraph_metrics::Snapshot>),
    /// Reply to [`Request::Subscribe`]: the standing query's id plus
    /// its initial materialised result. Applying every subsequent
    /// [`Push::Delta`] to `snapshot` in arrival order reproduces the
    /// server-side result after each commit.
    Subscribed {
        /// Subscription id (scoped to this connection).
        sub_id: u64,
        /// The result as of registration.
        snapshot: QueryResult,
    },
    /// Reply to [`Request::Unsubscribe`]; carries whether the id was
    /// actually registered on this connection.
    Unsubscribed {
        /// `false` when the id was unknown (already dropped or never
        /// this connection's).
        existed: bool,
    },
    /// The request was refused or failed; see [`ErrorCode`].
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

fn mutation_bytes(m: &HgMutation) -> Vec<u8> {
    let mut w = ByteWriter::new();
    <HyGraph as Durable>::encode_mutation(m, &mut w);
    w.into_bytes()
}

impl Request {
    /// The frame kind tag for this request.
    pub fn kind(&self) -> u8 {
        match self {
            Request::Ping => K_PING,
            Request::Query(_) => K_QUERY,
            Request::Mutate(_) => K_MUTATE,
            Request::MutateBatch(_) => K_MUTATE_BATCH,
            Request::Checkpoint => K_CHECKPOINT,
            Request::Sleep(_) => K_SLEEP,
            Request::Stats => K_STATS,
            Request::Subscribe(_) => K_SUBSCRIBE,
            Request::Unsubscribe { .. } => K_UNSUBSCRIBE,
            Request::QueryAsOf { .. } => K_QUERY_AS_OF,
        }
    }

    /// Encodes the request into a frame carrying `request_id`.
    pub fn to_frame(&self, request_id: u64) -> Frame {
        let mut w = ByteWriter::new();
        match self {
            Request::Ping | Request::Checkpoint | Request::Stats => {}
            Request::Query(text) => w.str(text),
            Request::Mutate(m) => <HyGraph as Durable>::encode_mutation(m, &mut w),
            Request::MutateBatch(ms) => {
                w.len_of(ms.len());
                for m in ms {
                    let bytes = mutation_bytes(m);
                    w.len_of(bytes.len());
                    w.raw(&bytes);
                }
            }
            Request::Sleep(ms) => w.u64(*ms),
            Request::Subscribe(text) => w.str(text),
            Request::Unsubscribe { sub_id } => w.u64(*sub_id),
            Request::QueryAsOf { text, as_of_ms } => {
                w.str(text);
                w.i64(*as_of_ms);
            }
        }
        Frame::new(request_id, self.kind(), w.into_bytes())
    }

    /// Decodes a request frame. Untrusted input.
    pub fn from_frame(frame: &Frame) -> Result<Self> {
        let mut r = ByteReader::new(&frame.payload);
        let req = match frame.kind {
            K_PING => Request::Ping,
            K_QUERY => Request::Query(r.str()?),
            K_MUTATE => Request::Mutate(<HyGraph as Durable>::decode_mutation(&mut r)?),
            K_MUTATE_BATCH => {
                let n = r.len_of()?;
                let mut ms = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let len = r.len_of()?;
                    let raw = r.raw(len)?;
                    let mut mr = ByteReader::new(raw);
                    let m = <HyGraph as Durable>::decode_mutation(&mut mr)?;
                    mr.expect_exhausted()?;
                    ms.push(m);
                }
                Request::MutateBatch(ms)
            }
            K_CHECKPOINT => Request::Checkpoint,
            K_SLEEP => Request::Sleep(r.u64()?.min(MAX_SLEEP_MS)),
            K_STATS => Request::Stats,
            K_SUBSCRIBE => Request::Subscribe(r.str()?),
            K_UNSUBSCRIBE => Request::Unsubscribe { sub_id: r.u64()? },
            K_QUERY_AS_OF => Request::QueryAsOf {
                text: r.str()?,
                as_of_ms: r.i64()?,
            },
            k => return Err(HyGraphError::corrupt(format!("unknown request kind {k}"))),
        };
        r.expect_exhausted()?;
        Ok(req)
    }
}

impl Response {
    /// The frame kind tag for this response.
    pub fn kind(&self) -> u8 {
        match self {
            Response::Pong => K_PONG,
            Response::Rows(_) => K_ROWS,
            Response::Committed { .. } => K_COMMITTED,
            Response::CheckpointDone { .. } => K_CHECKPOINT_DONE,
            Response::Stats(_) => K_STATS_SNAPSHOT,
            Response::Subscribed { .. } => K_SUBSCRIBED,
            Response::Unsubscribed { .. } => K_UNSUBSCRIBED,
            Response::Error { .. } => K_ERROR,
        }
    }

    /// Encodes the response into a frame echoing `request_id`.
    pub fn to_frame(&self, request_id: u64) -> Frame {
        let mut w = ByteWriter::new();
        match self {
            Response::Pong => {}
            Response::Rows(result) => result.encode(&mut w),
            Response::Committed { first_lsn, count } => {
                w.u64(*first_lsn);
                w.u64(*count);
            }
            Response::CheckpointDone { lsn } => w.u64(*lsn),
            Response::Subscribed { sub_id, snapshot } => {
                w.u64(*sub_id);
                snapshot.encode(&mut w);
            }
            Response::Unsubscribed { existed } => w.u8(*existed as u8),
            Response::Stats(snap) => {
                let bytes = snap.to_bytes();
                w.len_of(bytes.len());
                w.raw(&bytes);
            }
            Response::Error { code, message } => {
                w.u8(*code as u8);
                w.str(message);
            }
        }
        Frame::new(request_id, self.kind(), w.into_bytes())
    }

    /// Decodes a response frame. Untrusted input.
    pub fn from_frame(frame: &Frame) -> Result<Self> {
        let mut r = ByteReader::new(&frame.payload);
        let resp = match frame.kind {
            K_PONG => Response::Pong,
            K_ROWS => Response::Rows(QueryResult::decode(&mut r)?),
            K_COMMITTED => Response::Committed {
                first_lsn: r.u64()?,
                count: r.u64()?,
            },
            K_CHECKPOINT_DONE => Response::CheckpointDone { lsn: r.u64()? },
            K_SUBSCRIBED => Response::Subscribed {
                sub_id: r.u64()?,
                snapshot: QueryResult::decode(&mut r)?,
            },
            K_UNSUBSCRIBED => Response::Unsubscribed {
                existed: r.u8()? != 0,
            },
            K_STATS_SNAPSHOT => {
                let len = r.len_of()?;
                let raw = r.raw(len)?;
                let snap = hygraph_metrics::Snapshot::from_bytes(raw)
                    .map_err(|e| HyGraphError::corrupt(e.to_string()))?;
                Response::Stats(Box::new(snap))
            }
            K_ERROR => Response::Error {
                code: ErrorCode::from_u8(r.u8()?)?,
                message: r.str()?,
            },
            k => return Err(HyGraphError::corrupt(format!("unknown response kind {k}"))),
        };
        r.expect_exhausted()?;
        Ok(resp)
    }

    /// Converts a response into the client-side result: rejections and
    /// failures become [`HyGraphError`]s, everything else passes
    /// through. Retryable rejections (overload, deadline, shutdown) map
    /// to [`HyGraphError::Unavailable`].
    pub fn into_result(self) -> Result<Response> {
        match self {
            Response::Error { code, message } => Err(match code {
                ErrorCode::Overloaded => {
                    HyGraphError::unavailable(format!("server overloaded: {message}"))
                }
                ErrorCode::DeadlineExceeded => {
                    HyGraphError::unavailable(format!("deadline exceeded: {message}"))
                }
                ErrorCode::ShuttingDown => {
                    HyGraphError::unavailable(format!("server shutting down: {message}"))
                }
                ErrorCode::BadFrame | ErrorCode::BadRequest => HyGraphError::invalid(message),
                ErrorCode::Exec => HyGraphError::query(message),
            }),
            ok => Ok(ok),
        }
    }
}

/// One unsolicited server→client push frame for a standing query.
/// Unlike [`Response`]s, pushes are not correlated to a request: the
/// frame's `request_id` slot carries the subscription id.
#[derive(Clone, Debug, PartialEq)]
pub enum Push {
    /// The subscription's result changed; apply with
    /// [`hygraph_query::incremental::apply_delta`].
    Delta(hygraph_query::incremental::Delta),
    /// The server dropped the subscription (slow consumer, standing
    /// query failure); no further frames follow for this id.
    Closed {
        /// Why it was dropped.
        reason: String,
    },
}

impl Push {
    /// Whether a frame kind is in the unsolicited-push range. Clients
    /// route these by kind *before* reply correlation.
    pub fn is_push_kind(kind: u8) -> bool {
        (K_DELTA..K_ERROR).contains(&kind)
    }

    /// The frame kind tag for this push.
    pub fn kind(&self) -> u8 {
        match self {
            Push::Delta(_) => K_DELTA,
            Push::Closed { .. } => K_SUB_CLOSED,
        }
    }

    /// Encodes the push into a frame whose id slot carries `sub_id`.
    pub fn to_frame(&self, sub_id: u64) -> Frame {
        let mut w = ByteWriter::new();
        match self {
            Push::Delta(d) => d.encode(&mut w),
            Push::Closed { reason } => w.str(reason),
        }
        Frame::new(sub_id, self.kind(), w.into_bytes())
    }

    /// Decodes a push frame, returning `(sub_id, push)`. Untrusted
    /// input.
    pub fn from_frame(frame: &Frame) -> Result<(u64, Self)> {
        let mut r = ByteReader::new(&frame.payload);
        let push = match frame.kind {
            K_DELTA => Push::Delta(hygraph_query::incremental::Delta::decode(&mut r)?),
            K_SUB_CLOSED => Push::Closed { reason: r.str()? },
            k => return Err(HyGraphError::corrupt(format!("unknown push kind {k}"))),
        };
        r.expect_exhausted()?;
        Ok((frame.request_id, push))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_query::incremental::{Delta, DeltaOp};
    use hygraph_types::{Interval, Label, PropertyMap, SeriesId, Timestamp, Value};

    fn roundtrip_request(req: &Request) -> Request {
        let frame = req.to_frame(7);
        assert_eq!(frame.request_id, 7);
        Request::from_frame(&frame).expect("request decodes")
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let frame = resp.to_frame(9);
        assert_eq!(frame.request_id, 9);
        Response::from_frame(&frame).expect("response decodes")
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            Request::Ping,
            Request::Query("MATCH (n) RETURN n.name AS name".into()),
            Request::Mutate(HgMutation::AddPgVertex {
                labels: vec![Label::new("User")],
                props: PropertyMap::new(),
                validity: Interval::ALL,
            }),
            Request::MutateBatch(vec![
                HgMutation::AddSeries {
                    names: vec!["x".into()],
                    rows: vec![(Timestamp::from_millis(1), vec![0.5])],
                },
                HgMutation::Append {
                    series: SeriesId::new(0),
                    t: Timestamp::from_millis(2),
                    row: vec![1.5],
                },
            ]),
            Request::Checkpoint,
            Request::Sleep(50),
            Request::Stats,
            Request::Subscribe("MATCH (u:User) RETURN u.name AS n".into()),
            Request::Unsubscribe { sub_id: 12 },
            Request::QueryAsOf {
                text: "MATCH (n) RETURN n.name AS name".into(),
                as_of_ms: 1_722_000_000_123,
            },
        ];
        for req in &reqs {
            assert_eq!(&roundtrip_request(req), req);
        }
    }

    #[test]
    fn sleep_is_capped_on_decode() {
        let frame = Request::Sleep(u64::MAX).to_frame(1);
        assert_eq!(
            Request::from_frame(&frame).unwrap(),
            Request::Sleep(MAX_SLEEP_MS)
        );
    }

    #[test]
    fn responses_roundtrip() {
        let resps = [
            Response::Pong,
            Response::Rows(QueryResult {
                columns: vec!["a".into(), "b".into()],
                rows: vec![vec![
                    hygraph_types::Value::Int(1),
                    hygraph_types::Value::Str("x".into()),
                ]],
            }),
            Response::Committed {
                first_lsn: 17,
                count: 3,
            },
            Response::CheckpointDone { lsn: 20 },
            Response::Stats(Box::new({
                let mut snap = hygraph_metrics::Snapshot::default();
                snap.server.admitted = 42;
                snap.slow_queries.push(hygraph_metrics::SlowQueryEntry {
                    query: "MATCH (n) RETURN n".into(),
                    duration_us: 123_456,
                    rows: 7,
                    plan_fp: 0xabc,
                });
                snap
            })),
            Response::Subscribed {
                sub_id: 3,
                snapshot: QueryResult {
                    columns: vec!["n".into()],
                    rows: vec![vec![Value::Str("ada".into())]],
                },
            },
            Response::Unsubscribed { existed: true },
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "queue full".into(),
            },
        ];
        for resp in &resps {
            assert_eq!(&roundtrip_response(resp), resp);
        }
    }

    #[test]
    fn pushes_roundtrip_and_carry_sub_id() {
        let pushes = [
            Push::Delta(Delta {
                ops: vec![
                    DeltaOp::Insert {
                        at: 0,
                        row: vec![Value::Int(7)],
                    },
                    DeltaOp::Remove { at: 2 },
                ],
            }),
            Push::Closed {
                reason: "slow consumer: push buffer full".into(),
            },
        ];
        for push in &pushes {
            let frame = push.to_frame(42);
            assert!(Push::is_push_kind(frame.kind), "kind {}", frame.kind);
            // push kinds never collide with the reply vocabulary
            assert!(Response::from_frame(&frame).is_err());
            let (sub_id, decoded) = Push::from_frame(&frame).expect("push decodes");
            assert_eq!(sub_id, 42);
            assert_eq!(&decoded, push);
        }
        // the error kind stays a reply, not a push
        assert!(!Push::is_push_kind(K_ERROR));
        assert!(!Push::is_push_kind(K_PONG));
        assert!(Push::from_frame(&Frame::new(1, K_PONG, vec![])).is_err());
    }

    #[test]
    fn malformed_payloads_error_not_panic() {
        // trailing garbage after a valid ping
        let frame = Frame::new(1, 0, vec![0xFF]);
        assert!(Request::from_frame(&frame).is_err());
        // unknown kinds
        assert!(Request::from_frame(&Frame::new(1, 99, vec![])).is_err());
        assert!(Response::from_frame(&Frame::new(1, 99, vec![])).is_err());
        // truncated mutation batch
        let good = Request::MutateBatch(vec![HgMutation::AddSeries {
            names: vec!["x".into()],
            rows: vec![],
        }])
        .to_frame(1);
        let cut = Frame::new(
            1,
            good.kind,
            good.payload[..good.payload.len() - 1].to_vec(),
        );
        assert!(Request::from_frame(&cut).is_err());
    }

    #[test]
    fn retryable_rejections_map_to_unavailable() {
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::ShuttingDown,
        ] {
            let err = Response::Error {
                code,
                message: "x".into(),
            }
            .into_result()
            .unwrap_err();
            assert!(
                matches!(err, HyGraphError::Unavailable(_)),
                "{code:?} must be Unavailable, got {err:?}"
            );
        }
        assert!(Response::Pong.into_result().is_ok());
    }
}
