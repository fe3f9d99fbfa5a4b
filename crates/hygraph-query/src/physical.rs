//! Physical execution of optimized logical plans.
//!
//! A [`PlannedQuery`] bundles the optimized [`LogicalPlan`] with its
//! compiled match [`Pattern`]s — everything about it is a function of
//! the query text alone (no data dependence), which is what makes
//! server-side plan caching sound. [`execute_planned`] runs the
//! operator pipeline (Match → Filter → Project|Aggregate → Distinct →
//! Sort → Limit) with per-operator metrics. Rows are assembled in
//! binding order and a failing query reports the first error in binding
//! order, so the answer never depends on the fan-out width.

use crate::ast::{Query, ReturnItem};
use crate::exec::{
    collect_rowaggs, compile_patterns, contains_rowagg, rows_equal, sort_rows, AggCache, AggState,
    EvalCtx, LocalAggCache, QueryResult, Row, RowAggSpec,
};
use crate::optimize::optimize;
use crate::plan::{lower, LogicalPlan};
use hygraph_core::HyGraph;
use hygraph_graph::pattern::Binding;
use hygraph_graph::Pattern;
use hygraph_metrics::PlanOp;
use hygraph_types::parallel::{should_parallelize, ExecMode};
use hygraph_types::{HyGraphError, Result, Value};
use rayon::prelude::*;
use std::time::Instant;

/// An optimized, compiled, data-independent execution plan — the unit
/// the server-side plan cache stores.
#[derive(Clone, Debug)]
pub struct PlannedQuery {
    /// The optimized logical plan.
    pub plan: LogicalPlan,
    /// Compiled match patterns (one per variable-length expansion).
    pub patterns: Vec<Pattern>,
}

/// Plans a parsed query: validates, lowers, optimizes, and compiles
/// the patterns. Static errors come in a fixed order: a row aggregate
/// in WHERE first, then the variable-length expansion cap.
pub fn plan_query(q: &Query) -> Result<PlannedQuery> {
    if let Some(filter) = &q.filter {
        if contains_rowagg(filter) {
            return Err(HyGraphError::query(
                "row aggregates are not allowed in WHERE; use HAVING",
            ));
        }
    }
    let plan = optimize(lower(q));
    let patterns = compile_patterns(&plan.query, &plan.pushed)?;
    Ok(PlannedQuery { plan, patterns })
}

fn op_start() -> Option<Instant> {
    hygraph_metrics::enabled().then(Instant::now)
}

fn record_op(op: PlanOp, start: Option<Instant>, rows: usize) {
    if let (Some(m), Some(s)) = (hygraph_metrics::get(), start) {
        let om = m.query.operator(op);
        om.invocations.inc();
        om.rows_out.add(rows as u64);
        om.time_us.observe_duration(s.elapsed());
    }
}

/// Executes a planned query. Fan-out follows `should_parallelize`;
/// results are assembled in binding order so parallel and sequential
/// execution are byte-identical.
pub fn execute_planned(
    hg: &HyGraph,
    planned: &PlannedQuery,
    mode: ExecMode,
) -> Result<QueryResult> {
    let plan = &planned.plan;
    let q = &plan.query;

    let t = op_start();
    let bindings: Vec<Binding> = planned
        .patterns
        .iter()
        .flat_map(|p| p.find_all(hg.topology()))
        .collect();
    record_op(PlanOp::Match, t, bindings.len());

    let columns: Vec<String> = q.returns.iter().map(|r| r.alias.clone()).collect();
    let cache = plan.memoize_aggs.then(AggCache::default);
    let mut rows = if plan.grouped {
        run_grouped(hg, q, &bindings, mode, cache.as_ref())?
    } else {
        run_flat(hg, q, &bindings, mode, cache.as_ref())?
    };

    finish_rows(q, &columns, &mut rows)?;
    Ok(QueryResult { columns, rows })
}

/// The tail of the operator pipeline — Distinct → Sort → Limit; all
/// three need the full row set.
fn finish_rows(q: &Query, columns: &[String], rows: &mut Vec<Row>) -> Result<()> {
    if q.distinct {
        let t = op_start();
        let mut seen: Vec<Row> = Vec::new();
        rows.retain(|r| {
            if seen.iter().any(|s| rows_equal(s, r)) {
                false
            } else {
                seen.push(r.clone());
                true
            }
        });
        record_op(PlanOp::Distinct, t, rows.len());
    }
    if !q.order_by.is_empty() {
        let t = op_start();
        sort_rows(rows, columns, &q.order_by)?;
        record_op(PlanOp::Sort, t, rows.len());
    }
    if let Some(limit) = q.limit {
        let t = op_start();
        rows.truncate(limit);
        record_op(PlanOp::Limit, t, rows.len());
    }
    Ok(())
}

/// Evaluates the residual filter over every binding, returning one
/// `Result<bool>` per binding (aligned by index). All bindings are
/// evaluated — no short-circuit — and the caller scans the results in
/// binding order, so the first error in binding order is the one
/// reported at any fan-out width.
fn filter_stage(
    hg: &HyGraph,
    q: &Query,
    bindings: &[Binding],
    par: bool,
    cache: Option<&AggCache>,
) -> Vec<Result<bool>> {
    match &q.filter {
        None => (0..bindings.len()).map(|_| Ok(true)).collect(),
        Some(_) => {
            let t = op_start();
            let eval = |binding: &Binding| -> Result<bool> { eval_filter(hg, q, cache, binding) };
            let results: Vec<Result<bool>> = if par {
                bindings.par_iter().map(eval).collect()
            } else {
                bindings.iter().map(eval).collect()
            };
            let passed = results.iter().filter(|r| matches!(r, Ok(true))).count();
            record_op(PlanOp::Filter, t, passed);
            results
        }
    }
}

/// Evaluates the residual WHERE filter for one binding — the per-row
/// unit of the Filter operator. Callers guarantee `q.filter` is `Some`.
pub(crate) fn eval_filter(
    hg: &HyGraph,
    q: &Query,
    cache: Option<&AggCache>,
    binding: &Binding,
) -> Result<bool> {
    let filter = q.filter.as_ref().expect("caller checked q.filter");
    let local = LocalAggCache::default();
    let ctx = EvalCtx {
        hg,
        binding,
        agg_cache: cache,
        local_agg: &local,
    };
    Ok(ctx.eval(filter)?.as_bool() == Some(true))
}

/// Evaluates the RETURN projection for one binding — the per-row unit
/// of the Project operator.
pub(crate) fn project_row(
    hg: &HyGraph,
    q: &Query,
    cache: Option<&AggCache>,
    binding: &Binding,
) -> Result<Row> {
    let local = LocalAggCache::default();
    let ctx = EvalCtx {
        hg,
        binding,
        agg_cache: cache,
        local_agg: &local,
    };
    q.returns
        .iter()
        .map(|ReturnItem { expr, .. }| ctx.eval(expr))
        .collect()
}

fn run_flat(
    hg: &HyGraph,
    q: &Query,
    bindings: &[Binding],
    mode: ExecMode,
    cache: Option<&AggCache>,
) -> Result<Vec<Row>> {
    let par = should_parallelize(mode, bindings.len());
    let filter_pass = filter_stage(hg, q, bindings, par, cache);

    let t = op_start();
    let passing: Vec<&Binding> = bindings
        .iter()
        .zip(&filter_pass)
        .filter(|(_, r)| matches!(r, Ok(true)))
        .map(|(b, _)| b)
        .collect();
    let project = |binding: &&Binding| -> Result<Row> { project_row(hg, q, cache, binding) };
    let projected: Vec<Result<Row>> = if par {
        passing.par_iter().map(project).collect()
    } else {
        passing.iter().map(project).collect()
    };
    record_op(
        PlanOp::Project,
        t,
        projected.iter().filter(|r| r.is_ok()).count(),
    );

    // assemble in binding order, interleaving the filter and project
    // result streams: a filter error at binding i surfaces before any
    // project error at j > i, as one per-binding pass would report it
    let mut rows = Vec::with_capacity(passing.len());
    let mut proj = projected.into_iter();
    for fr in filter_pass {
        if fr? {
            rows.push(proj.next().expect("aligned with filter passes")?);
        }
    }
    Ok(rows)
}

/// The data-independent shape of a grouped query: which RETURN items
/// are grouping keys and the deterministic aggregate-spec order.
struct GroupingLayout {
    /// Indices of aggregate-free RETURN items (the grouping keys).
    key_items: Vec<usize>,
    /// Aggregate specs: RETURN items first, then HAVING.
    specs: Vec<RowAggSpec>,
}

fn grouping_layout(q: &Query) -> GroupingLayout {
    // grouping keys: the aggregate-free RETURN items
    let key_items: Vec<usize> = q
        .returns
        .iter()
        .enumerate()
        .filter(|(_, r)| !contains_rowagg(&r.expr))
        .map(|(i, _)| i)
        .collect();
    // aggregate specs in deterministic order: RETURN items, then HAVING
    let mut specs: Vec<RowAggSpec> = Vec::new();
    for r in &q.returns {
        collect_rowaggs(&r.expr, &mut specs);
    }
    if let Some(h) = &q.having {
        collect_rowaggs(h, &mut specs);
    }
    GroupingLayout { key_items, specs }
}

/// Evaluates one binding's grouping keys + aggregate arguments — the
/// parallelisable pure work of the Aggregate operator; keys before
/// args, so within one binding a key error wins over an argument error.
fn eval_key_args(
    hg: &HyGraph,
    q: &Query,
    layout: &GroupingLayout,
    cache: Option<&AggCache>,
    binding: &Binding,
) -> Result<(Row, Vec<Value>)> {
    let local = LocalAggCache::default();
    let ctx = EvalCtx {
        hg,
        binding,
        agg_cache: cache,
        local_agg: &local,
    };
    let mut key = Vec::with_capacity(layout.key_items.len());
    for &i in &layout.key_items {
        key.push(ctx.eval(&q.returns[i].expr)?);
    }
    let mut args = Vec::with_capacity(layout.specs.len());
    for spec in &layout.specs {
        args.push(match &spec.arg {
            None => Value::Int(1), // COUNT(*)
            Some(arg) => ctx.eval(arg)?,
        });
    }
    Ok((key, args))
}

/// The merge step of a grouped query: a sequential fold in
/// global binding order (group creation order and aggregate update
/// order stay deterministic, and error precedence interleaves filter
/// and key/arg errors in binding order, as one per-binding pass would),
/// then per-group finalize + HAVING. `evaluated` must align with
/// the `Ok(true)` entries of `filter_pass`, in the same order.
fn fold_groups(
    q: &Query,
    layout: &GroupingLayout,
    filter_pass: Vec<Result<bool>>,
    evaluated: Vec<Result<(Row, Vec<Value>)>>,
) -> Result<Vec<Row>> {
    let GroupingLayout { key_items, specs } = layout;
    struct Group {
        key: Row,
        states: Vec<AggState>,
    }
    let mut groups: Vec<Group> = Vec::new();
    let mut ka = evaluated.into_iter();
    for fr in filter_pass {
        if !fr? {
            continue;
        }
        let (key, args) = ka.next().expect("aligned with filter passes")?;
        let group = match groups.iter_mut().find(|g| rows_equal(&g.key, &key)) {
            Some(g) => g,
            None => {
                groups.push(Group {
                    key,
                    states: vec![AggState::default(); specs.len()],
                });
                groups.last_mut().expect("just pushed")
            }
        };
        for ((spec, state), arg) in specs.iter().zip(group.states.iter_mut()).zip(args) {
            state.update(Some(&arg), spec.distinct && spec.arg.is_some());
        }
    }
    // Cypher semantics: no grouping keys and no matches -> one empty group
    if groups.is_empty() && key_items.is_empty() {
        groups.push(Group {
            key: Vec::new(),
            states: vec![AggState::default(); specs.len()],
        });
    }

    // finalize each group
    let mut rows = Vec::with_capacity(groups.len());
    for group in &groups {
        let agg_values: Vec<Value> = specs
            .iter()
            .zip(&group.states)
            .map(|(spec, state)| state.finalize(spec.func, spec.arg.is_none()))
            .collect();
        // map each key RETURN item to its pre-computed value
        let key_lookup = |expr: &crate::ast::Expr| -> Option<Value> {
            key_items
                .iter()
                .position(|&i| &q.returns[i].expr == expr)
                .map(|pos| group.key[pos].clone())
        };
        let mut cursor = 0usize;
        let mut row = Vec::with_capacity(q.returns.len());
        let mut keep = true;
        for r in &q.returns {
            row.push(crate::exec::eval_final(
                &r.expr,
                &agg_values,
                &mut cursor,
                &key_lookup,
            )?);
        }
        if let Some(h) = &q.having {
            let v = crate::exec::eval_final(h, &agg_values, &mut cursor, &key_lookup)?;
            keep = v.as_bool() == Some(true);
        }
        if keep {
            rows.push(row);
        }
    }
    Ok(rows)
}

fn run_grouped(
    hg: &HyGraph,
    q: &Query,
    bindings: &[Binding],
    mode: ExecMode,
    cache: Option<&AggCache>,
) -> Result<Vec<Row>> {
    let layout = grouping_layout(q);
    let par = should_parallelize(mode, bindings.len());
    let filter_pass = filter_stage(hg, q, bindings, par, cache);

    let t = op_start();
    let passing: Vec<&Binding> = bindings
        .iter()
        .zip(&filter_pass)
        .filter(|(_, r)| matches!(r, Ok(true)))
        .map(|(b, _)| b)
        .collect();
    let eval_ka = |binding: &&Binding| -> Result<(Row, Vec<Value>)> {
        eval_key_args(hg, q, &layout, cache, binding)
    };
    let evaluated: Vec<Result<(Row, Vec<Value>)>> = if par {
        passing.par_iter().map(eval_ka).collect()
    } else {
        passing.iter().map(eval_ka).collect()
    };

    let rows = fold_groups(q, &layout, filter_pass, evaluated)?;
    record_op(PlanOp::Aggregate, t, rows.len());
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use hygraph_core::HyGraphBuilder;
    use hygraph_ts::TimeSeries;
    use hygraph_types::{props, Duration, Timestamp};

    fn instance() -> hygraph_core::builder::BuiltHyGraph {
        let hot = TimeSeries::generate(Timestamp::ZERO, Duration::from_millis(10), 100, |i| {
            if i >= 50 {
                900.0
            } else {
                10.0
            }
        });
        let cold = TimeSeries::generate(Timestamp::ZERO, Duration::from_millis(10), 100, |_| 12.0);
        HyGraphBuilder::new()
            .univariate("hot", &hot)
            .univariate("cold", &cold)
            .pg_vertex(
                "alice",
                ["User"],
                props! {"name" => "alice", "age" => 34i64},
            )
            .pg_vertex("bob", ["User"], props! {"name" => "bob", "age" => 19i64})
            .pg_vertex("m1", ["Merchant"], props! {"name" => "m1"})
            .pg_vertex("m2", ["Merchant"], props! {"name" => "m2"})
            .ts_vertex("c1", ["CreditCard"], "hot")
            .ts_vertex("c2", ["CreditCard"], "cold")
            .pg_edge(None, "alice", "c1", ["USES"], props! {})
            .pg_edge(None, "bob", "c2", ["USES"], props! {})
            .pg_edge(Some("t1"), "c1", "m1", ["TX"], props! {"amount" => 1500.0})
            .pg_edge(Some("t2"), "c1", "m2", ["TX"], props! {"amount" => 30.0})
            .pg_edge(Some("t3"), "c2", "m1", ["TX"], props! {"amount" => 20.0})
            .build()
            .unwrap()
    }

    #[test]
    fn explain_renders_instead_of_executing() {
        let b = instance();
        let r = crate::query(
            &b.hygraph,
            "EXPLAIN MATCH (u:User)-[t:TX]->(m) WHERE u.age > 18 \
             RETURN u.name AS n ORDER BY n LIMIT 5",
        )
        .unwrap();
        assert_eq!(r.columns, vec!["plan"]);
        let text: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
        assert!(text[0].starts_with("Plan fingerprint=0x"), "{text:?}");
        assert!(
            text.iter().any(|l| l.contains("predicate-pushdown(1)")),
            "{text:?}"
        );
        assert!(
            text.iter().any(|l| l.trim_start().starts_with("Match")),
            "{text:?}"
        );
        // EXPLAIN output never contains data rows
        assert!(text.iter().all(|l| !l.contains("alice")), "{text:?}");
    }

    #[test]
    fn pushdown_prunes_bindings_with_identical_results() {
        let b = instance();
        let q = parse(
            "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
             WHERE u.age > 20 AND t.amount > 100 RETURN u.name AS who, t.amount AS a",
        )
        .unwrap();
        let planned = plan_query(&q).unwrap();
        assert_eq!(planned.plan.pushed.len(), 2);
        assert!(planned.plan.query.filter.is_none());
        let r = execute_planned(&b.hygraph, &planned, ExecMode::Sequential).unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Value::Str("alice".into()), Value::Float(1500.0)]]
        );
    }

    #[test]
    fn planned_query_is_reusable() {
        let b = instance();
        let q = parse("MATCH (u:User) RETURN COUNT(*) AS n").unwrap();
        let planned = plan_query(&q).unwrap();
        let r1 = execute_planned(&b.hygraph, &planned, ExecMode::Auto).unwrap();
        let r2 = execute_planned(&b.hygraph, &planned, ExecMode::Auto).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1.rows, vec![vec![Value::Int(2)]]);
    }
}
