//! hygraph-server — the concurrent query-serving layer for HyGraph.
//!
//! Turns the embedded hybrid-graph library into a network service: a
//! TCP server speaking a CRC-guarded, length-prefixed binary protocol
//! (framing in [`hygraph_types::net`], vocabulary in [`proto`]) over a
//! shared [`Engine`] holding a [`hygraph_core::HyGraph`] in a
//! [`hygraph_persist::ShardedStore`] (one WAL stream per shard, one in
//! all at a single shard) whose files live in a directory
//! ([`Engine::open_durable`]) or in memory ([`Engine::in_memory`]).
//!
//! The serving pipeline is deliberately boring and explicit:
//!
//! * per-connection reader threads decode frames and **never block** —
//!   admission goes through a bounded queue ([`queue::Bounded`]) and a
//!   full queue is an immediate, typed overload rejection
//!   ([`proto::ErrorCode::Overloaded`]), not latency;
//! * a fixed worker pool (sized like the rest of the workspace, via
//!   [`hygraph_types::parallel`]) executes requests — queries run
//!   concurrently against a published snapshot and never wait for a
//!   writer, mutations serialise on one commit lock through the WAL's
//!   group-commit path;
//! * per-request deadlines drop stale queued work
//!   ([`proto::ErrorCode::DeadlineExceeded`]) instead of executing it
//!   after the client stopped caring;
//! * graceful shutdown ([`Server::shutdown`]) drains every admitted
//!   request, syncs the WAL, and only then closes connections;
//! * standing queries ([`Client::subscribe`], `hygraph-sub`) push
//!   incremental result deltas as unsolicited tagged frames, written by
//!   a per-connection pusher thread so a slow subscriber never blocks
//!   the commit path — it is disconnected with a typed
//!   [`proto::Push::Closed`] instead.
//!
//! Configuration follows the workspace's layered-knob convention:
//! `HYGRAPH_ADDR`, `HYGRAPH_WORKERS`, `HYGRAPH_QUEUE_DEPTH`, and
//! `HYGRAPH_REQ_TIMEOUT_MS` from the environment, overridable
//! programmatically via [`hygraph_types::net::ServerConfig`].
//!
//! ```
//! use hygraph_server::{Client, Engine, HistoryConfig, Server};
//! use hygraph_types::net::ServerConfig;
//!
//! let engine =
//!     Engine::in_memory(hygraph_core::HyGraph::new(), 64, HistoryConfig::from_env()).unwrap();
//! let server =
//!     Server::serve_engine(engine, &ServerConfig::new().addr("127.0.0.1:0").workers(2)).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.ping().unwrap();
//! let rows = client.query("MATCH (n) RETURN COUNT(n) AS n").unwrap();
//! assert_eq!(rows.columns, vec!["n"]);
//! server.shutdown().unwrap();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod proto;
pub mod queue;
pub mod server;

pub use client::{Client, LocalClient, Subscription};
pub use engine::{plan_cache_capacity_from_env, Engine};
pub use hygraph_sub::SubConfig;
pub use hygraph_temporal::HistoryConfig;
pub use proto::{ErrorCode, Push, Request, Response};
pub use server::{Server, ServerStats, ShutdownReport};
