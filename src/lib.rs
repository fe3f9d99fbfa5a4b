//! # HyGraph — a unified hybrid model for property graphs and time series
//!
//! A Rust implementation of the HyGraph vision (*"Towards Hybrid Graphs:
//! Unifying Property Graphs and Time Series"*, EDBT 2025): temporal
//! property graphs and time series in **one** data model, with both as
//! first-class citizens.
//!
//! ```
//! use hygraph::prelude::*;
//!
//! // build: a user (pg-vertex) using a credit card whose identity IS
//! // its spending series (ts-vertex)
//! let spending = TimeSeries::generate(
//!     Timestamp::ZERO,
//!     Duration::from_hours(1),
//!     48,
//!     |h| if (20..24).contains(&h) { 1500.0 } else { 40.0 },
//! );
//! let built = HyGraphBuilder::new()
//!     .univariate("spending", &spending)
//!     .pg_vertex("alice", ["User"], props! {"name" => "alice"})
//!     .ts_vertex("card", ["CreditCard"], "spending")
//!     .pg_edge(None, "alice", "card", ["USES"], props! {})
//!     .build()
//!     .unwrap();
//!
//! // query: graph pattern + series aggregate in one declarative query
//! let result = hygraph::query(
//!     &built.hygraph,
//!     "MATCH (u:User)-[:USES]->(c:CreditCard) \
//!      WHERE MAX(DELTA(c) IN [0, 172800000)) > 1000 \
//!      RETURN u.name AS who",
//! )
//! .unwrap();
//! assert_eq!(result.rows[0][0], Value::Str("alice".into()));
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`types`] | ids, timestamps, intervals, values, property maps |
//! | [`ts`] | time-series substrate: [`ts::TimeSeries`], chunked [`ts::TsStore`], the full operator library |
//! | [`graph`] | temporal property graphs: storage, snapshots, traversal, pattern matching, algorithms |
//! | [`core`] | the HGM model: [`core::HyGraph`], builders, import/export interfaces, views |
//! | [`query`] | HyQL: the hybrid declarative query language |
//! | [`analytics`] | the four roadmap hybrid operators (Table 2's Q1–Q4), metricEvolution, hybrid embeddings/clustering/classification, contextual detection, pattern mining, the fraud pipeline |
//! | [`datagen`] | deterministic synthetic datasets (bike sharing, fraud, random) |
//! | [`storage`] | the Table-1 experiment: all-in-graph vs polyglot persistence backends |
//! | [`persist`] | durable storage engine: write-ahead log, checkpoints, crash recovery, per-shard WAL streams |
//! | [`temporal`] | transaction-time history: timestamped commit log, snapshot reconstruction, `AS OF` / `BETWEEN` time travel |
//! | [`sub`] | standing queries: live HyQL subscriptions maintained by incremental deltas |
//! | [`server`] | concurrent query serving: sharded engine with epoch snapshot reads, wire protocol, worker pool, backpressure, graceful shutdown |
//! | [`metrics`] | observability: counters, latency histograms, slow-query log, wire-exposed stats |
//!
//! Runtime knobs (`HYGRAPH_*` environment variables) are documented in
//! `OPERATIONS.md` at the repository root.

pub use hygraph_analytics as analytics;
pub use hygraph_core as core;
pub use hygraph_datagen as datagen;
pub use hygraph_graph as graph;
pub use hygraph_metrics as metrics;
pub use hygraph_persist as persist;
pub use hygraph_query as query_engine;
pub use hygraph_server as server;
pub use hygraph_storage as storage;
pub use hygraph_sub as sub;
pub use hygraph_temporal as temporal;
pub use hygraph_ts as ts;
pub use hygraph_types as types;

pub use hygraph_core::{ElementKind, ElementRef, HyGraph, HyGraphBuilder, Subgraph};
pub use hygraph_query::query;

/// Common imports for working with HyGraph.
pub mod prelude {
    pub use hygraph_core::{ElementKind, ElementRef, HyGraph, HyGraphBuilder, Subgraph};
    pub use hygraph_graph::{Pattern, TemporalGraph};
    pub use hygraph_ts::{MultiSeries, TimeSeries, TsStore};
    pub use hygraph_types::{
        props, Duration, EdgeId, HyGraphError, Interval, Label, PropertyKey, PropertyMap,
        PropertyValue, Result, SeriesId, SubgraphId, Timestamp, Value, VertexId,
    };
}
