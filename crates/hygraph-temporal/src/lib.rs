//! # hygraph-temporal — transaction-time history and time travel
//!
//! Keeps the store's *transaction time* alongside its data: every
//! committed mutation batch is stamped with a monotonically increasing
//! commit timestamp and retained as a delta in a [`HistoryStore`]. A
//! query bounded by `AS OF t` is then answered against the
//! reconstruction of the store as of the last commit with timestamp
//! `<= t`; `BETWEEN t1 AND t2` unions results across every commit
//! epoch current somewhere in the window.
//!
//! The design follows the delta-chain school (AeonG, Chronos): the
//! *current* state stays hot and untouched — history is an in-memory
//! base state (an `Arc<HyGraph>` whose persistent structure a clone
//! shares, so starting a reconstruction there costs pointers) plus an
//! ordered list of [`CommitRecord`]s, each the mutation batch of one
//! transaction. The 8-entry LRU of reconstructed snapshots serves
//! repeated `AS OF` reads of an epoch; on a miss its entries are
//! anchors, and reconstruction replays only the commits between the
//! nearest cached epoch at or below the target (else the base) and
//! the target. By the determinism contract of
//! [`hygraph_persist::Durable::apply`] that reproduces the historical
//! state *bit for bit* — the same argument that makes WAL recovery
//! exact makes time travel exact.
//!
//! Every resolution runs the same three steps: a locked lookup
//! (binary-search the commit, pick the start state, clone the `Arc`s of
//! the commits to replay), an unlocked replay, and a locked insert into
//! the cache. [`SharedHistory`] is how a server shares one history
//! between its writer and its readers: the lock is held for the lookup
//! and the insert only, never across a replay or the query run on it.
//!
//! Retention is bounded by `HYGRAPH_HISTORY_RETAIN_SECS`
//! ([`HistoryConfig`]): expired commits are applied onto a clone of the
//! base, moving the queryable horizon forward. `AS OF` below the
//! horizon is a typed error, never a silently wrong answer.
//!
//! ```
//! use hygraph_core::HyGraph;
//! use hygraph_persist::{Durable as _, HgMutation};
//! use hygraph_temporal::{HistoryConfig, HistoryStore, SnapshotResolution};
//! use hygraph_types::{Interval, Timestamp};
//!
//! let mut live = HyGraph::new();
//! let mut history = HistoryStore::new(HistoryConfig::default(), &live, 0);
//!
//! // commit one vertex at t=1000 (mirroring the mutation into history)
//! let m = HgMutation::AddPgVertex {
//!     labels: vec!["User".into()],
//!     props: Default::default(),
//!     validity: Interval::from(Timestamp::from_millis(0)),
//! };
//! let ts = history.allocate_ts(1_000);
//! live.apply(&m)?;
//! history.record_commit(ts, vec![m]);
//!
//! // the state as of t=500 — before the commit — has no vertices
//! match history.snapshot_at(500)? {
//!     SnapshotResolution::Past(past) => assert_eq!(past.vertex_count(), 0),
//!     SnapshotResolution::Live => unreachable!("t=500 precedes the commit"),
//! }
//! // at (or after) the commit timestamp the query runs on the live state
//! assert!(matches!(history.snapshot_at(ts)?, SnapshotResolution::Live));
//! # Ok::<(), hygraph_types::HyGraphError>(())
//! ```
//!
//! Serving integration lives in `hygraph-server`: the engine allocates
//! a timestamp per mutation batch ([`HistoryStore::allocate_ts`]),
//! stamps it into the WAL frames and checkpoint watermark
//! (`hygraph-persist`), moves the applied batch into the history, and
//! passes its [`SharedHistory`] as the
//! [`hygraph_query::TemporalResolver`] for `AS OF` / `BETWEEN` queries.
//! After a restart, [`HistorySeed`] rebuilds the commit timeline from
//! the recovered checkpoint state (handed over decoded, never
//! re-encoded) plus the replayed WAL suffix.

#![warn(missing_docs)]

mod config;
mod history;
mod seed;
mod watermark;

pub use config::{now_ms, HistoryConfig};
pub use history::{CommitRecord, HistoryStore, SharedHistory, SnapshotResolution};
pub use seed::HistorySeed;
pub use watermark::ShardWatermark;
