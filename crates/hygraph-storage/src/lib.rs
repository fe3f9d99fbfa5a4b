//! Storage backends for the paper's Table-1 experiment.
//!
//! The paper benchmarks two ways of persisting a hybrid graph +
//! time-series workload:
//!
//! * **All-in-graph** (Neo4j in the paper): "we store the time series in
//!   Neo4j as properties of nodes and edges, where each timestamp and its
//!   corresponding value are stored as separate properties." Every query
//!   that touches a time range must enumerate a vertex's whole property
//!   map and parse timestamps out of property *keys*. Implemented by
//!   [`AllInGraphStore`].
//! * **Polyglot persistence** (TimeTravelDB = Neo4j + TimescaleDB in the
//!   paper): topology in a graph store, series in a dedicated
//!   chunk-partitioned store with ordered chunk indexes and per-chunk
//!   sparse aggregates. Implemented by [`PolyglotStore`] on top of
//!   [`hygraph_ts::TsStore`].
//!
//! Both implement [`StorageBackend`] — the eight benchmark queries Q1–Q8
//! (simple time-range fetch up to hybrid graph+series aggregation) — and
//! must return **identical answers**; only their access paths (and hence
//! latencies) differ. [`harness`] measures mean response time and
//! coefficient of variation per query, regenerating Table 1. Both also
//! go durable over `hygraph-persist` ([`durable`]), logging the
//! station/trip/observe vocabulary [`StoreMutation`].

pub mod all_in_graph;
pub mod backend;
pub mod durable;
pub mod harness;
pub mod polyglot;

pub use all_in_graph::AllInGraphStore;
pub use backend::{QueryId, StorageBackend};
pub use durable::StoreMutation;
pub use polyglot::PolyglotStore;
