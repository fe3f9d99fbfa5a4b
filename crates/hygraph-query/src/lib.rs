//! HyQL — the hybrid declarative query engine over HyGraph instances.
//!
//! HyQL is a small Cypher-flavoured language whose predicates and
//! projections range over *both* worlds: static graph properties and
//! time-series aggregates. A query like
//!
//! ```text
//! MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant)
//! WHERE t.amount > 1000 AND MEAN(DELTA(c) IN [0, 86400000)) > 500
//! RETURN u.name AS user, t.amount
//! ORDER BY user LIMIT 10
//! ```
//!
//! pattern-matches the topology (pg- and ts-elements uniformly), and the
//! `MEAN(DELTA(c) IN …)` term aggregates the series δ(c) of the matched
//! ts-vertex — the unified capability the paper's §4 calls for.
//!
//! Pipeline: [`lexer`] → [`parser`] (AST in [`ast`]) → [`plan`] (logical
//! plan + fingerprint) → [`optimize`] (rule-based rewrites: constant
//! folding, predicate pushdown into pattern matching, redundant-stage
//! elimination, series-aggregate memoization) → [`physical`] (operator
//! pipeline with per-operator metrics) against a
//! [`hygraph_core::HyGraph`] — the one executor: a sharded engine
//! hands it the whole published snapshot, so the shard count never
//! changes how a query runs. The optimizer may make a query cheaper,
//! never different; `tests/plan_equivalence.rs` checks that against a
//! brute-force evaluator under `tests/oracle` that shares none of the
//! engine's evaluation code. Prefix a query with
//! `EXPLAIN` to get the optimized plan rendering instead of rows. The
//! roadmap's four *hybrid operators* of the paper's Table 2 (Q1 hybrid
//! matching … Q4 segmentation snapshots) are not HyQL: their
//! programmatic APIs live in `hygraph_analytics::hybrid`.
//!
//! # Language reference
//!
//! ```text
//! query  := MATCH path (',' path)*
//!           [WHERE expr]                 -- per-row filter (no row aggregates)
//!           [VALID AT <millis>]          -- ρ-aware matching at an instant
//!           [AS OF <millis> | AS OF NOW() | BETWEEN <millis> AND <millis>]
//!                                        -- transaction-time travel over
//!                                        -- the store's commit history
//!           RETURN [DISTINCT] item (',' item)*
//!           [HAVING expr]                -- per-group filter (row aggregates ok)
//!           [ORDER BY col [ASC|DESC] (',' ...)*]
//!           [LIMIT n]
//!
//! path   := node (edge node)*
//! node   := '(' [var] (':' Label)* ['{' key ':' literal (',' ...)* '}'] ')'
//! edge   := '-[' [var] (':' Label)* ['*' min '..' max] ']->'   -- outgoing
//!         | '<-[' ... ']-'                                     -- incoming
//!         | '-[' ... ']-'                                      -- undirected
//! ```
//!
//! **Expressions** combine, with the usual precedence
//! (`OR` < `AND` < `NOT` < comparisons < `+ -` < `* /`):
//!
//! * literals: `42`, `3.5`, `-7`, `'text'` (doubled `''` escapes), `TRUE`,
//!   `FALSE`, `NULL`;
//! * property access `var.key` (static properties; `NULL` if absent or
//!   series-valued);
//! * **series aggregates** `MEAN|SUM|MIN|MAX|COUNT '(' series IN
//!   '[' t1 ',' t2 ')' ')'` where `series` is `DELTA(var)` (the δ series
//!   of a ts-element) or `var.key` (a series-valued property) — evaluated
//!   per matched row over the half-open epoch-millisecond range;
//! * **row aggregates** `COUNT(*)`, `COUNT([DISTINCT] expr)`,
//!   `SUM|AVG|MIN|MAX(expr)` — Cypher-style implicit grouping by the
//!   aggregate-free RETURN items; usable in RETURN and HAVING only.
//!
//! Comparisons use SQL three-valued logic: `NULL` never matches.
//! Expressions nest at most [`parser::MAX_EXPR_DEPTH`] levels
//! (parentheses, aggregate arguments, `NOT` runs and operator chains
//! alike); a deeper one is a positioned parse error.
//!
//! ```
//! use hygraph_core::HyGraphBuilder;
//! use hygraph_ts::TimeSeries;
//! use hygraph_types::{props, Duration, Timestamp, Value};
//!
//! let spend = TimeSeries::generate(Timestamp::ZERO, Duration::from_hours(1), 24, |h| {
//!     if h == 12 { 900.0 } else { 25.0 }
//! });
//! let built = HyGraphBuilder::new()
//!     .univariate("spend", &spend)
//!     .pg_vertex("u", ["User"], props! {"name" => "ada"})
//!     .ts_vertex("c", ["Card"], "spend")
//!     .pg_vertex("m1", ["Merchant"], props! {"name" => "m1"})
//!     .pg_vertex("m2", ["Merchant"], props! {"name" => "m2"})
//!     .pg_edge(None, "u", "c", ["USES"], props! {})
//!     .pg_edge(None, "c", "m1", ["TX"], props! {"amount" => 900.0})
//!     .pg_edge(None, "c", "m2", ["TX"], props! {"amount" => 25.0})
//!     .build()
//!     .unwrap();
//!
//! // pattern + inline props + series aggregate + row aggregate + HAVING
//! let r = hygraph_query::query(
//!     &built.hygraph,
//!     "MATCH (u:User {name: 'ada'})-[:USES]->(c:Card)-[t:TX]->(m:Merchant) \
//!      WHERE MAX(DELTA(c) IN [0, 86400000)) > 500 \
//!      RETURN u.name AS who, COUNT(t) AS txs, SUM(t.amount) AS total \
//!      HAVING COUNT(t) > 1",
//! )
//! .unwrap();
//! assert_eq!(r.rows[0][0], Value::Str("ada".into()));
//! assert_eq!(r.rows[0][1], Value::Int(2));
//! assert_eq!(r.rows[0][2], Value::Float(925.0));
//!
//! // variable-length traversal: everything within 2 hops of the user
//! let r = hygraph_query::query(
//!     &built.hygraph,
//!     "MATCH (u:User)-[*1..2]->(x) RETURN COUNT(x) AS reach",
//! )
//! .unwrap();
//! assert_eq!(r.rows[0][0], Value::Int(3)); // card + 2 merchants
//! ```

pub mod ast;
pub mod exec;
pub mod incremental;
pub mod lexer;
pub mod optimize;
pub mod parser;
pub mod physical;
pub mod plan;

pub use ast::{Query, TemporalBound};
pub use exec::{execute, QueryResult, Row};
pub use incremental::{apply_delta, diff_rows, Delta, DeltaOp, IncState};
pub use physical::{execute_planned, plan_query, PlannedQuery};
pub use plan::{LogicalPlan, PushedPred};

use hygraph_core::HyGraph;
use hygraph_metrics::OpClass;
use hygraph_types::parallel::ExecMode;
use hygraph_types::Result;
use std::sync::Arc;

/// Classifies a parsed query into the paper's Table 2 operator
/// taxonomy — the key space for per-class execution metrics.
///
/// Precedence (a query showing several traits takes the first match):
/// `VALID AT` anchors and `AS OF`/`BETWEEN` time travel are snapshot
/// retrieval (Q4), variable-length edges are traversal (Q3), any
/// aggregate (series, row, or `HAVING`) is aggregation (Q2), and
/// everything else is plain pattern matching (Q1).
pub fn classify(q: &Query) -> OpClass {
    if q.valid_at.is_some() || q.temporal.is_some() {
        return OpClass::Q4Snapshot;
    }
    let traverses = q
        .patterns
        .iter()
        .flat_map(|p| p.hops.iter())
        .any(|(e, _)| e.hops != (1, 1));
    if traverses {
        return OpClass::Q3Traverse;
    }
    fn has_agg(e: &ast::Expr) -> bool {
        match e {
            ast::Expr::Agg { .. } | ast::Expr::RowAgg { .. } => true,
            ast::Expr::Not(inner) => has_agg(inner),
            ast::Expr::Binary { lhs, rhs, .. } => has_agg(lhs) || has_agg(rhs),
            ast::Expr::Literal(_) | ast::Expr::Prop { .. } | ast::Expr::Var(_) => false,
        }
    }
    let aggregates = q.having.is_some()
        || q.filter.as_ref().is_some_and(has_agg)
        || q.returns.iter().any(|r| has_agg(&r.expr));
    if aggregates {
        return OpClass::Q2Aggregate;
    }
    OpClass::Q1Match
}

/// A pluggable plan cache keyed by [`plan::fingerprint`]. The serving
/// layer implements this over a bounded LRU; anything stored must be
/// data-independent, which [`PlannedQuery`] is by construction.
pub trait PlanCacheHook: Send + Sync {
    /// Looks up a cached plan.
    fn get(&self, fingerprint: u64) -> Option<Arc<PlannedQuery>>;
    /// Stores a freshly built plan.
    fn put(&self, fingerprint: u64, plan: Arc<PlannedQuery>);
}

/// What a [`TemporalResolver`] resolved a [`TemporalBound`] to: the
/// graph state(s) the query must execute against.
#[derive(Clone, Debug)]
pub enum ResolvedStates {
    /// The live (current) graph — `AS OF NOW()` or a bound at or past
    /// the latest commit watermark.
    Live,
    /// One reconstructed historical state (`AS OF t`).
    At(Arc<HyGraph>),
    /// Successive states for `BETWEEN t1 AND t2`, oldest first; the
    /// query runs at each epoch and the rows are unioned.
    Epochs(Vec<Arc<HyGraph>>),
}

/// Resolves transaction-time bounds to historical graph states. The
/// history subsystem (`hygraph-temporal`) implements this over its
/// commit log; the query layer stays ignorant of how snapshots are
/// reconstructed.
pub trait TemporalResolver {
    /// Resolves `bound` to the state(s) to execute against. Errors when
    /// the bound precedes the retained history horizon.
    fn resolve(&mut self, bound: &TemporalBound) -> Result<ResolvedStates>;
}

/// Executes a planned query at each epoch state in order and unions the
/// result rows, dropping rows already produced by an earlier epoch
/// (first-seen order, exact value equality). This is the `BETWEEN`
/// execution strategy: "everything the query ever returned while the
/// store passed through `[t1, t2]`".
pub fn execute_epochs(
    states: &[Arc<HyGraph>],
    planned: &PlannedQuery,
    mode: ExecMode,
) -> Result<QueryResult> {
    let columns: Vec<String> = planned
        .plan
        .query
        .returns
        .iter()
        .map(|r| r.alias.clone())
        .collect();
    let mut rows: Vec<Row> = Vec::new();
    for g in states {
        let r = physical::execute_planned(g, planned, mode)?;
        for row in r.rows {
            if !rows.iter().any(|seen| exec::rows_equal(seen, &row)) {
                rows.push(row);
            }
        }
    }
    Ok(QueryResult { columns, rows })
}

/// Kept only because `hygraph-bench`'s `e2e` layer probe
/// (`src/bin/e2e/layers.rs`, frozen by BENCHMARK.json) still calls this
/// name; the router is ignored. The next `benchmark` PR repoints its two
/// calls at [`execute_planned`] and deletes this.
#[doc(hidden)]
pub fn execute_planned_sharded(
    hg: &HyGraph,
    planned: &PlannedQuery,
    mode: ExecMode,
    _router: hygraph_types::shard::ShardRouter,
) -> Result<QueryResult> {
    physical::execute_planned(hg, planned, mode)
}

/// Parses and executes `text` against `hg` in one call (no plan cache,
/// no history): [`run_instrumented_bound`] with every option off.
pub fn query(hg: &HyGraph, text: &str) -> Result<QueryResult> {
    run_instrumented_bound(hg, text, None, None, None)
}

/// The instrumented entry point: executions are counted and timed per
/// [`OpClass`], parse failures bump a dedicated counter, and queries
/// slower than the `HYGRAPH_SLOW_QUERY_MS` threshold are captured
/// (text, duration, row count, plan fingerprint) in the global
/// slow-query ring.
///
/// With a plan `cache`, a fingerprint hit executes the cached
/// [`PlannedQuery`] directly (skipping lowering, optimization, and
/// pattern compilation) and a miss stores the fresh plan. Hits and
/// misses bump the `plan_cache_hits`/`_misses` counters; misses are
/// only counted when a cache is actually present.
///
/// Queries carrying an `AS OF`/`BETWEEN` bound execute against the
/// historical state(s) the [`TemporalResolver`] reconstructs instead of
/// `hg`; without a resolver, `AS OF NOW()` degrades gracefully to the
/// live graph (the two are equivalent by definition) and any other
/// bound is a typed error — time travel needs a history store behind
/// it. When `bound` is `Some`, the query executes as if its text
/// carried that `AS OF`/`BETWEEN` clause. This backs structured wire
/// requests (a client pins a timestamp without splicing it into HyQL
/// text). A query that already carries its own bound rejects the
/// injection — silently overriding either one would be a correctness
/// trap. The bound participates in the plan fingerprint exactly as a
/// textual bound would, so cached plans never cross epochs.
pub fn run_instrumented_bound(
    hg: &HyGraph,
    text: &str,
    cache: Option<&dyn PlanCacheHook>,
    mut resolver: Option<&mut dyn TemporalResolver>,
    bound: Option<TemporalBound>,
) -> Result<QueryResult> {
    let start = hygraph_metrics::enabled().then(std::time::Instant::now);
    let mut q = match parser::parse(text) {
        Ok(q) => q,
        Err(e) => {
            if let Some(m) = hygraph_metrics::get() {
                m.query.parse_errors.inc();
            }
            return Err(e);
        }
    };
    if let Some(b) = bound {
        if q.temporal.is_some() {
            return Err(hygraph_types::HyGraphError::query(
                "query text already carries an AS OF / BETWEEN bound; \
                 drop the clause or the structured timestamp",
            ));
        }
        q.temporal = Some(b);
    }
    let fp = plan::fingerprint(&q);
    let res = (|| {
        let planned = match cache.and_then(|c| c.get(fp)) {
            Some(p) => {
                if let Some(m) = hygraph_metrics::get() {
                    m.query.plan_cache_hits.inc();
                }
                p
            }
            None => {
                let p = Arc::new(physical::plan_query(&q)?);
                if let Some(c) = cache {
                    if let Some(m) = hygraph_metrics::get() {
                        m.query.plan_cache_misses.inc();
                    }
                    c.put(fp, Arc::clone(&p));
                }
                p
            }
        };
        if q.explain {
            return Ok(plan::explain_result(&planned));
        }
        let states = match (&q.temporal, resolver.as_deref_mut()) {
            (None, _) | (Some(TemporalBound::AsOfNow), None) => ResolvedStates::Live,
            (Some(bound), Some(r)) => r.resolve(bound)?,
            (Some(_), None) => {
                return Err(hygraph_types::HyGraphError::query(
                    "AS OF / BETWEEN requires a history-enabled engine \
                     (serve with HYGRAPH_HISTORY=1)",
                ))
            }
        };
        match states {
            ResolvedStates::Live => physical::execute_planned(hg, &planned, ExecMode::Auto),
            ResolvedStates::At(g) => physical::execute_planned(&g, &planned, ExecMode::Auto),
            ResolvedStates::Epochs(gs) => execute_epochs(&gs, &planned, ExecMode::Auto),
        }
    })();
    if let (Some(m), Some(s)) = (hygraph_metrics::get(), start) {
        let elapsed = s.elapsed();
        let om = m.query.class(classify(&q));
        om.count.inc();
        om.time_us.observe_duration(elapsed);
        if res.is_err() {
            om.errors.inc();
        }
        let rows = res.as_ref().map_or(0, |r| r.rows.len() as u64);
        m.slow.record(
            text,
            elapsed,
            rows,
            fp,
            hygraph_metrics::slow_query_threshold(),
        );
    }
    res
}
