//! HyQL execution: pattern compilation, expression evaluation, and
//! result assembly.

use crate::ast::{AggFunc, BinOp, EdgeDir, Expr, OrderItem, Query, RowAggFunc, SeriesRef};
use hygraph_core::{ElementRef, HyGraph};
use hygraph_graph::pattern::{Binding, CmpOp};
use hygraph_graph::{Direction, Pattern};
use hygraph_ts::store::AggKind;
use hygraph_types::parallel::ExecMode;
use hygraph_types::{HyGraphError, Interval, Result, Timestamp, Value};
use std::collections::HashMap;
use std::sync::Mutex;

/// Memoization table for series aggregates within one query execution:
/// `(series, from_ms, to_ms) -> Summary`. Shared across bindings so a
/// window recomputed for every match of the same ts-element is summarised
/// once. Insert races are harmless: the value is a deterministic function
/// of the key, and [`hygraph_ts::store::Summary`] is `Copy`, so every
/// writer stores the identical bits.
pub(crate) type AggCache =
    Mutex<HashMap<(hygraph_types::SeriesId, i64, i64), hygraph_ts::store::Summary>>;

/// One result row (values in column order).
pub type Row = Vec<Value>;

/// A query result: column names plus rows.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a column by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Encodes the result with the workspace binary codecs — column
    /// names, then rows of tagged [`Value`]s. This is the wire form the
    /// serving layer ships to clients.
    pub fn encode(&self, w: &mut hygraph_types::bytes::ByteWriter) {
        w.len_of(self.columns.len());
        for c in &self.columns {
            w.str(c);
        }
        w.len_of(self.rows.len());
        for row in &self.rows {
            w.len_of(row.len());
            for v in row {
                w.value(v);
            }
        }
    }

    /// Decodes a result written by [`QueryResult::encode`]. Input is
    /// untrusted: malformed bytes error, never panic — in particular a
    /// declared element count larger than the bytes remaining is
    /// rejected up front (every element costs at least one byte), so a
    /// hostile frame cannot drive a near-2^64 decode loop.
    pub fn decode(r: &mut hygraph_types::bytes::ByteReader<'_>) -> Result<Self> {
        fn check_count(
            r: &hygraph_types::bytes::ByteReader<'_>,
            n: usize,
            what: &str,
        ) -> Result<()> {
            if n > r.remaining() {
                return Err(HyGraphError::Corrupt {
                    offset: r.position(),
                    message: format!(
                        "declared {what} count {n} exceeds {} bytes remaining",
                        r.remaining()
                    ),
                });
            }
            Ok(())
        }
        let n_cols = r.len_of()?;
        check_count(r, n_cols, "column")?;
        let mut columns = Vec::with_capacity(n_cols.min(1 << 12));
        for _ in 0..n_cols {
            columns.push(r.str()?);
        }
        let n_rows = r.len_of()?;
        check_count(r, n_rows, "row")?;
        let mut rows = Vec::with_capacity(n_rows.min(1 << 16));
        for _ in 0..n_rows {
            let n = r.len_of()?;
            check_count(r, n, "cell")?;
            let mut row = Vec::with_capacity(n.min(1 << 12));
            for _ in 0..n {
                row.push(r.value()?);
            }
            rows.push(row);
        }
        Ok(Self { columns, rows })
    }

    /// Renders an aligned text table (for examples and bench binaries).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(ToString::to_string).collect())
            .collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for (w, c) in widths.iter().zip(&self.columns) {
            let _ = write!(out, "{c:<w$}  ");
        }
        out.push('\n');
        for w in &widths {
            let _ = write!(out, "{}  ", "-".repeat(*w));
        }
        out.push('\n');
        for row in &rendered {
            for (w, cell) in widths.iter().zip(row) {
                let _ = write!(out, "{cell:<w$}  ");
            }
            out.push('\n');
        }
        out
    }
}

pub(crate) fn contains_rowagg(expr: &Expr) -> bool {
    match expr {
        Expr::RowAgg { .. } => true,
        Expr::Not(inner) => contains_rowagg(inner),
        Expr::Binary { lhs, rhs, .. } => contains_rowagg(lhs) || contains_rowagg(rhs),
        _ => false,
    }
}

/// Executes a parsed query against an instance through the planner:
/// lowers the AST to a logical plan, runs the rewrite rules, and
/// executes the physical operators ([`ExecMode::Auto`] decides fan-out
/// from the number of pattern matches). The rewrites may make a query
/// cheaper, never different: `tests/plan_equivalence.rs` checks every
/// answer against a brute-force evaluator (`tests/oracle`) that shares
/// none of this code. An `EXPLAIN`-flagged query returns the optimized
/// plan rendering instead of executing.
pub fn execute(hg: &HyGraph, q: &Query, mode: ExecMode) -> Result<QueryResult> {
    let planned = crate::physical::plan_query(q)?;
    if q.explain {
        return Ok(crate::plan::explain_result(&planned));
    }
    crate::physical::execute_planned(hg, &planned, mode)
}

/// Accumulator for one row-aggregate instance within one group.
#[derive(Clone, Debug, Default)]
pub(crate) struct AggState {
    rows: u64,
    non_null: u64,
    sum: f64,
    numeric: u64,
    min: Option<Value>,
    max: Option<Value>,
    distinct: Vec<Value>,
}

impl AggState {
    pub(crate) fn update(&mut self, arg: Option<&Value>, distinct: bool) {
        self.rows += 1;
        let Some(v) = arg else { return };
        if v.is_null() {
            return;
        }
        if distinct {
            if self
                .distinct
                .iter()
                .any(|seen| seen.total_cmp(v) == std::cmp::Ordering::Equal)
            {
                return;
            }
            self.distinct.push(v.clone());
        }
        self.non_null += 1;
        if let Some(x) = v.as_f64() {
            self.sum += x;
            self.numeric += 1;
        }
        if self.min.as_ref().is_none_or(|m| v.total_cmp(m).is_lt()) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v.total_cmp(m).is_gt()) {
            self.max = Some(v.clone());
        }
    }

    pub(crate) fn finalize(&self, func: RowAggFunc, counts_rows: bool) -> Value {
        match func {
            RowAggFunc::Count => Value::Int(if counts_rows {
                self.rows as i64
            } else {
                self.non_null as i64
            }),
            RowAggFunc::Sum => {
                if self.numeric > 0 {
                    Value::Float(self.sum)
                } else {
                    Value::Null
                }
            }
            RowAggFunc::Avg => {
                if self.numeric > 0 {
                    Value::Float(self.sum / self.numeric as f64)
                } else {
                    Value::Null
                }
            }
            RowAggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            RowAggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// One row-aggregate occurrence, collected in deterministic pre-order
/// over the RETURN items then HAVING.
pub(crate) struct RowAggSpec {
    pub(crate) func: RowAggFunc,
    pub(crate) arg: Option<Expr>,
    pub(crate) distinct: bool,
}

pub(crate) fn collect_rowaggs(expr: &Expr, out: &mut Vec<RowAggSpec>) {
    match expr {
        Expr::RowAgg {
            func,
            arg,
            distinct,
        } => out.push(RowAggSpec {
            func: *func,
            arg: arg.as_deref().cloned(),
            distinct: *distinct,
        }),
        Expr::Not(inner) => collect_rowaggs(inner, out),
        Expr::Binary { lhs, rhs, .. } => {
            collect_rowaggs(lhs, out);
            collect_rowaggs(rhs, out);
        }
        _ => {}
    }
}

/// Substitutes pre-computed aggregate results (same pre-order as
/// [`collect_rowaggs`]) while evaluating an expression over a group.
/// Anything else that reads a binding (a property, a variable, a series
/// aggregate) outside a grouping key has no row to read and errors.
pub(crate) fn eval_final(
    expr: &Expr,
    agg_values: &[Value],
    cursor: &mut usize,
    key_lookup: &dyn Fn(&Expr) -> Option<Value>,
) -> Result<Value> {
    if let Some(v) = key_lookup(expr) {
        // grouping-key sub-expression: already evaluated for the group
        // (also skip any aggregates inside — there are none, by keydef)
        return Ok(v);
    }
    match expr {
        Expr::RowAgg { .. } => {
            let v = agg_values
                .get(*cursor)
                .cloned()
                .ok_or_else(|| HyGraphError::query("aggregate cursor out of range"))?;
            *cursor += 1;
            Ok(v)
        }
        Expr::Not(inner) => {
            let v = eval_final(inner, agg_values, cursor, key_lookup)?;
            Ok(match v.as_bool() {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            })
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = eval_final(lhs, agg_values, cursor, key_lookup)?;
            let r = eval_final(rhs, agg_values, cursor, key_lookup)?;
            Ok(apply_binop(*op, &l, &r))
        }
        Expr::Literal(v) => Ok(v.clone()),
        other => Err(HyGraphError::query(format!(
            "expression {other:?} requires a bound row outside aggregation"
        ))),
    }
}

pub(crate) fn rows_equal(a: &Row, b: &Row) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.total_cmp(y) == std::cmp::Ordering::Equal)
}

pub(crate) fn sort_rows(rows: &mut [Row], columns: &[String], order: &[OrderItem]) -> Result<()> {
    if order.is_empty() {
        return Ok(());
    }
    let mut keys = Vec::with_capacity(order.len());
    for item in order {
        let idx = columns
            .iter()
            .position(|c| c == &item.column)
            .ok_or_else(|| {
                HyGraphError::query(format!(
                    "ORDER BY references unknown column '{}'",
                    item.column
                ))
            })?;
        keys.push((idx, item.descending));
    }
    rows.sort_by(|a, b| {
        for &(idx, desc) in &keys {
            let ord = a[idx].total_cmp(&b[idx]);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(())
}

/// Compiles the MATCH clause. Variable-length edges are expanded at
/// compile time: one [`Pattern`] per combination of hop counts (capped
/// at 64 expansions), each inserting fresh anonymous intermediate
/// vertices. Plain queries compile to a single pattern.
///
/// `pushed` carries WHERE conjuncts the optimizer moved into pattern
/// matching; they are installed as pushed-down predicates (invisible to
/// the matcher's selectivity ordering) on the vertex or edge bound to
/// each predicate's variable.
pub(crate) fn compile_patterns(
    q: &Query,
    pushed: &[crate::plan::PushedPred],
) -> Result<Vec<Pattern>> {
    // hop-count choices for every var-length edge, in query order
    let ranges: Vec<(usize, usize)> = q
        .patterns
        .iter()
        .flat_map(|p| p.hops.iter().map(|(e, _)| e.hops))
        .filter(|&(lo, hi)| (lo, hi) != (1, 1))
        .collect();
    let total: usize = ranges.iter().map(|&(lo, hi)| hi - lo + 1).product();
    if total > 64 {
        return Err(HyGraphError::query(
            "variable-length expansion exceeds 64 combinations; narrow the hop ranges",
        ));
    }
    let mut assignments: Vec<Vec<usize>> = vec![Vec::new()];
    for &(lo, hi) in &ranges {
        let mut next = Vec::with_capacity(assignments.len() * (hi - lo + 1));
        for a in &assignments {
            for len in lo..=hi {
                let mut b = a.clone();
                b.push(len);
                next.push(b);
            }
        }
        assignments = next;
    }
    assignments
        .into_iter()
        .map(|a| compile_one(q, &a, pushed))
        .collect()
}

/// Builds one pattern with the given hop-length assignment (one entry
/// per var-length edge, in query order).
fn compile_one(
    q: &Query,
    lengths: &[usize],
    pushed: &[crate::plan::PushedPred],
) -> Result<Pattern> {
    let mut pattern = Pattern::new();
    let mut var_index: HashMap<String, usize> = HashMap::new();
    // edge vars in declaration order; only plain (1,1) edges carry a
    // user-visible variable, so duplicates cannot arise here
    let mut edge_vars: Vec<(String, usize)> = Vec::new();
    let mut length_cursor = 0usize;
    let mut anon = 0usize;

    let node_idx = |pattern: &mut Pattern,
                    var_index: &mut HashMap<String, usize>,
                    node: &crate::ast::NodePattern|
     -> usize {
        let idx = match var_index.get(&node.var) {
            Some(&idx) => {
                // a re-mentioned variable conjoins the labels of every
                // mention, as its inline props accumulate below
                pattern.vertex_labels(idx, node.labels.iter().map(String::as_str));
                idx
            }
            None => {
                let idx = pattern.vertex(node.var.clone(), node.labels.iter().map(String::as_str));
                var_index.insert(node.var.clone(), idx);
                idx
            }
        };
        for (key, value) in &node.props {
            pattern.vertex_pred(
                idx,
                hygraph_graph::pattern::PropPredicate::new(key.clone(), CmpOp::Eq, value.clone()),
            );
        }
        idx
    };

    for path in &q.patterns {
        let mut prev = node_idx(&mut pattern, &mut var_index, &path.start);
        for (edge, node) in &path.hops {
            let next = node_idx(&mut pattern, &mut var_index, node);
            let dir = match edge.dir {
                EdgeDir::Right => Direction::Out,
                EdgeDir::Left => Direction::In,
                EdgeDir::Undirected => Direction::Any,
            };
            let len = if edge.hops == (1, 1) {
                1
            } else {
                let l = lengths[length_cursor];
                length_cursor += 1;
                l
            };
            // chain prev -> i1 -> ... -> next through len sub-edges with
            // fresh anonymous intermediates; edge uniqueness inside one
            // match gives Cypher's distinct-relationship semantics
            let mut hop_src = prev;
            for k in 0..len {
                let hop_dst = if k + 1 == len {
                    next
                } else {
                    anon += 1;
                    pattern.vertex(format!("__vl{anon}"), Vec::<&str>::new())
                };
                let var_name = if len == 1 {
                    edge.var.clone()
                } else {
                    anon += 1;
                    format!("__vle{anon}")
                };
                let eidx = pattern.edge(
                    Some(var_name.as_str()),
                    hop_src,
                    hop_dst,
                    edge.labels.iter().map(String::as_str),
                    dir,
                );
                if len == 1 {
                    edge_vars.push((var_name.clone(), eidx));
                }
                hop_src = hop_dst;
            }
            prev = next;
        }
    }
    if let Some(t) = q.valid_at {
        pattern.valid_at(t);
    }
    for p in pushed {
        // vertex binding wins over an edge of the same name, matching
        // EvalCtx::element's lookup precedence
        if let Some(&idx) = var_index.get(&p.var) {
            pattern.vertex_pushed_pred(idx, p.pred.clone());
        } else if let Some((_, idx)) = edge_vars.iter().find(|(v, _)| v == &p.var) {
            pattern.edge_pushed_pred(*idx, p.pred.clone());
        } else {
            // the optimizer only pushes predicates on pattern-bound
            // vars; an unbound var here is a rule bug, not a user error
            return Err(HyGraphError::query(format!(
                "internal: pushed predicate references unbound variable '{}'",
                p.var
            )));
        }
    }
    Ok(pattern)
}

/// Single-entry intra-binding summary cache: lock-free, lives next to
/// one [`EvalCtx`], catches `MAX(DELTA(c) IN R)` / `SUM(DELTA(c) IN R)`
/// re-evaluating the same `(series, range)` within one row.
pub(crate) type LocalAggCache = std::cell::Cell<
    Option<(
        (hygraph_types::SeriesId, i64, i64),
        hygraph_ts::store::Summary,
    )>,
>;

pub(crate) struct EvalCtx<'a> {
    pub(crate) hg: &'a HyGraph,
    pub(crate) binding: &'a Binding,
    /// Optional shared series-aggregate memoization table (fan-out
    /// patterns, see the `ts-agg-memoize` rule); `None` recomputes per
    /// binding. Cached and uncached evaluation are bit-identical — the
    /// cache stores the `Copy` summary the kernel would have produced.
    pub(crate) agg_cache: Option<&'a AggCache>,
    /// Per-binding single-entry cache. Checked before the shared table;
    /// costs one compare on miss, no locking.
    pub(crate) local_agg: &'a LocalAggCache,
}

impl EvalCtx<'_> {
    pub(crate) fn element(&self, var: &str) -> Result<ElementRef> {
        if let Some(&v) = self.binding.vertices.get(var) {
            Ok(ElementRef::Vertex(v))
        } else if let Some(&e) = self.binding.edges.get(var) {
            Ok(ElementRef::Edge(e))
        } else {
            Err(HyGraphError::query(format!("unbound variable '{var}'")))
        }
    }

    pub(crate) fn eval(&self, expr: &Expr) -> Result<Value> {
        match expr {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Var(var) => {
                let el = self.element(var)?;
                Ok(match el {
                    ElementRef::Vertex(v) => Value::Str(v.to_string()),
                    ElementRef::Edge(e) => Value::Str(e.to_string()),
                    ElementRef::Subgraph(s) => Value::Str(s.to_string()),
                })
            }
            Expr::Prop { var, key } => {
                let el = self.element(var)?;
                // ts-elements have no φ: a static-property read on them is Null
                match self.hg.props(el) {
                    Ok(props) => Ok(props.static_value(key).cloned().unwrap_or(Value::Null)),
                    Err(HyGraphError::KindMismatch { .. }) => Ok(Value::Null),
                    Err(e) => Err(e),
                }
            }
            Expr::Agg {
                func,
                series,
                from,
                to,
            } => self.eval_agg(*func, series, *from, *to),
            Expr::RowAgg { .. } => Err(HyGraphError::query(
                "row aggregate in a per-row context (nest it only in RETURN/HAVING)",
            )),
            Expr::Not(inner) => {
                let v = self.eval(inner)?;
                Ok(match v.as_bool() {
                    Some(b) => Value::Bool(!b),
                    None => Value::Null,
                })
            }
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                Ok(apply_binop(*op, &l, &r))
            }
        }
    }

    fn eval_agg(&self, func: AggFunc, series: &SeriesRef, from: i64, to: i64) -> Result<Value> {
        if from > to {
            return Err(HyGraphError::query(format!(
                "aggregate range [{from}, {to}) is reversed"
            )));
        }
        let sid = match series {
            SeriesRef::Delta(var) => {
                let el = self.element(var)?;
                self.hg.delta_id(el)?
            }
            SeriesRef::Property { var, key } => {
                let el = self.element(var)?;
                match self.hg.props(el) {
                    Ok(props) => match props.series_value(key) {
                        Some(sid) => sid,
                        None => return Ok(Value::Null),
                    },
                    Err(HyGraphError::KindMismatch { .. }) => return Ok(Value::Null),
                    Err(e) => return Err(e),
                }
            }
        };
        let iv = Interval::new(Timestamp::from_millis(from), Timestamp::from_millis(to));
        let key = (sid, from, to);
        // shared kernel: per-chunk precomputed block summaries make this
        // O(blocks touched) instead of O(points); `None` only for a
        // series with zero value columns, which the old slice-then-
        // column(0) path also mapped to Null
        let local_hit = self
            .local_agg
            .get()
            .filter(|&(k, _)| k == key)
            .map(|(_, s)| s);
        let cached = local_hit.or_else(|| {
            self.agg_cache
                .and_then(|c| c.lock().ok())
                .and_then(|c| c.get(&key).copied())
        });
        let summary = match cached {
            Some(s) => Some(s),
            None => {
                let ms = self.hg.series(sid)?;
                let s = ms.summarize(&iv, 0);
                if let (Some(s), Some(cache)) = (s, self.agg_cache) {
                    if let Ok(mut c) = cache.lock() {
                        c.insert(key, s);
                    }
                }
                s
            }
        };
        if let Some(s) = summary {
            self.local_agg.set(Some((key, s)));
        }
        let Some(summary) = summary else {
            return Ok(Value::Null);
        };
        let kind = match func {
            AggFunc::Mean => AggKind::Mean,
            AggFunc::Sum => AggKind::Sum,
            AggFunc::Min => AggKind::Min,
            AggFunc::Max => AggKind::Max,
            AggFunc::Count => AggKind::Count,
        };
        Ok(match summary.get(kind) {
            Some(x) if func == AggFunc::Count => Value::Int(x as i64),
            Some(x) => Value::Float(x),
            None => Value::Null,
        })
    }
}

pub(crate) fn apply_binop(op: BinOp, l: &Value, r: &Value) -> Value {
    match op {
        // one three-valued comparator with the predicates pushed into
        // pattern matching
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let cmp = op.cmp_op().expect("a comparison operator");
            l.compare(cmp, r).map_or(Value::Null, Value::Bool)
        }
        BinOp::And => match (l.as_bool(), r.as_bool()) {
            (Some(a), Some(b)) => Value::Bool(a && b),
            // false AND anything = false (SQL three-valued logic)
            (Some(false), _) | (_, Some(false)) => Value::Bool(false),
            _ => Value::Null,
        },
        BinOp::Or => match (l.as_bool(), r.as_bool()) {
            (Some(a), Some(b)) => Value::Bool(a || b),
            (Some(true), _) | (_, Some(true)) => Value::Bool(true),
            _ => Value::Null,
        },
        BinOp::Add => l.add(r).unwrap_or(Value::Null),
        BinOp::Sub => match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                a.checked_sub(*b).map(Value::Int).unwrap_or(Value::Null)
            }
            _ => match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => Value::Float(a - b),
                _ => Value::Null,
            },
        },
        BinOp::Mul => match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                a.checked_mul(*b).map(Value::Int).unwrap_or(Value::Null)
            }
            _ => match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => Value::Float(a * b),
                _ => Value::Null,
            },
        },
        BinOp::Div => match (l.as_f64(), r.as_f64()) {
            (Some(_), Some(0.0)) => Value::Null,
            (Some(a), Some(b)) => Value::Float(a / b),
            _ => Value::Null,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query;
    use hygraph_core::HyGraphBuilder;
    use hygraph_ts::TimeSeries;
    use hygraph_types::{props, Duration};

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    /// Small fraud-shaped instance: 2 users, 2 cards (ts), 2 merchants,
    /// USES + TX edges with amounts.
    fn instance() -> hygraph_core::builder::BuiltHyGraph {
        let spend_hot = TimeSeries::generate(ts(0), Duration::from_millis(10), 100, |i| {
            if i >= 50 {
                900.0
            } else {
                10.0
            }
        });
        let spend_cold = TimeSeries::generate(ts(0), Duration::from_millis(10), 100, |_| 12.0);
        HyGraphBuilder::new()
            .univariate("hot", &spend_hot)
            .univariate("cold", &spend_cold)
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
    fn query_result_wire_roundtrip() {
        let b = instance();
        let r = query(
            &b.hygraph,
            "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
             RETURN u.name AS who, t.amount AS amount, \
             MEAN(DELTA(c) IN [0, 1000)) AS spend ORDER BY who, amount",
        )
        .unwrap();
        let mut w = hygraph_types::bytes::ByteWriter::new();
        r.encode(&mut w);
        let bytes = w.into_bytes();
        let mut rd = hygraph_types::bytes::ByteReader::new(&bytes);
        let back = QueryResult::decode(&mut rd).unwrap();
        rd.expect_exhausted().unwrap();
        assert_eq!(back, r);
        // re-encoding is byte-identical (the serving layer's contract)
        let mut w2 = hygraph_types::bytes::ByteWriter::new();
        back.encode(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        // malformed input errors instead of panicking
        assert!(QueryResult::decode(&mut hygraph_types::bytes::ByteReader::new(&[0x80])).is_err());
    }

    /// Regression: a frame whose *declared* counts vastly exceed the
    /// bytes actually present must be rejected up front with a typed
    /// `Corrupt` error — not drive a near-2^64 allocation/decode loop.
    #[test]
    fn decode_rejects_hostile_declared_counts() {
        use hygraph_types::bytes::{ByteReader, ByteWriter};
        use hygraph_types::HyGraphError;

        // absurd count (u64::MAX): rejected by the reader's own varint
        // length guard before any loop runs
        let mut w = ByteWriter::new();
        w.len_of(u64::MAX as usize);
        let bytes = w.into_bytes();
        let err = QueryResult::decode(&mut ByteReader::new(&bytes)).unwrap_err();
        assert!(
            matches!(err, HyGraphError::Corrupt { .. }),
            "expected typed Corrupt error, got {err:?}"
        );

        // sneaky count: small enough to slip past the reader's loose
        // varint bound (remaining*8+64) but still exceeding the bytes
        // present — the decode-level guard must name the hostile field.
        // 64 declared columns, zero payload bytes behind them:
        let mut w = ByteWriter::new();
        w.len_of(64);
        let bytes = w.into_bytes();
        let err = QueryResult::decode(&mut ByteReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, HyGraphError::Corrupt { .. }));
        assert!(
            err.to_string().contains("column count"),
            "error should name the hostile field: {err}"
        );

        // valid header, hostile row count
        let mut w = ByteWriter::new();
        w.len_of(1); // one column
        w.str("a");
        w.len_of(64); // declared rows, zero bytes behind them
        let bytes = w.into_bytes();
        let err = QueryResult::decode(&mut ByteReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, HyGraphError::Corrupt { .. }));
        assert!(err.to_string().contains("row count"), "{err}");

        // valid header + one row, hostile per-row cell count
        let mut w = ByteWriter::new();
        w.len_of(1);
        w.str("a");
        w.len_of(1); // one row…
        w.len_of(64); // …claiming 64 cells with nothing behind them
        let bytes = w.into_bytes();
        let err = QueryResult::decode(&mut ByteReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, HyGraphError::Corrupt { .. }));
        assert!(err.to_string().contains("cell count"), "{err}");
    }

    #[test]
    fn simple_match_return() {
        let b = instance();
        let r = query(
            &b.hygraph,
            "MATCH (u:User) RETURN u.name AS name ORDER BY name",
        )
        .unwrap();
        assert_eq!(r.columns, vec!["name"]);
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Str("alice".into())],
                vec![Value::Str("bob".into())]
            ]
        );
    }

    #[test]
    fn where_filters_on_edge_props() {
        let b = instance();
        let r = query(
            &b.hygraph,
            "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
             WHERE t.amount > 1000 RETURN u.name AS who, t.amount AS amt",
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Str("alice".into()));
        assert_eq!(r.rows[0][1], Value::Float(1500.0));
    }

    #[test]
    fn series_aggregate_in_where() {
        let b = instance();
        // hot card averages >400 over the full window; cold stays ~12
        let r = query(
            &b.hygraph,
            "MATCH (u:User)-[:USES]->(c:CreditCard) \
             WHERE MEAN(DELTA(c) IN [0, 1000)) > 400 RETURN u.name AS who",
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Str("alice".into()));
    }

    #[test]
    fn series_aggregate_in_return() {
        let b = instance();
        let r = query(
            &b.hygraph,
            "MATCH (u:User)-[:USES]->(c:CreditCard) \
             RETURN u.name AS who, MAX(DELTA(c) IN [0, 1000)) AS peak, \
             COUNT(DELTA(c) IN [0, 250)) AS n ORDER BY who",
        )
        .unwrap();
        assert_eq!(
            r.rows[0],
            vec![
                Value::Str("alice".into()),
                Value::Float(900.0),
                Value::Int(25)
            ]
        );
        assert_eq!(r.rows[1][1], Value::Float(12.0));
    }

    #[test]
    fn distinct_and_limit() {
        let b = instance();
        let r = query(
            &b.hygraph,
            "MATCH (c:CreditCard)-[t:TX]->(m:Merchant) RETURN DISTINCT m.name AS m ORDER BY m",
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        let r = query(
            &b.hygraph,
            "MATCH (c:CreditCard)-[t:TX]->(m:Merchant) RETURN m.name AS m ORDER BY m LIMIT 2",
        )
        .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn order_by_desc_numeric() {
        let b = instance();
        let r = query(
            &b.hygraph,
            "MATCH (c:CreditCard)-[t:TX]->(m) RETURN t.amount AS a ORDER BY a DESC",
        )
        .unwrap();
        let amounts: Vec<f64> = r.rows.iter().map(|row| row[0].as_f64().unwrap()).collect();
        assert_eq!(amounts, vec![1500.0, 30.0, 20.0]);
    }

    #[test]
    fn missing_property_is_null() {
        let b = instance();
        let r = query(&b.hygraph, "MATCH (u:User) RETURN u.ghost AS g LIMIT 1").unwrap();
        assert_eq!(r.rows[0][0], Value::Null);
        // Null comparisons filter out
        let r = query(&b.hygraph, "MATCH (u:User) WHERE u.ghost > 1 RETURN u").unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn ts_vertex_props_are_null() {
        let b = instance();
        let r = query(
            &b.hygraph,
            "MATCH (c:CreditCard) RETURN c.anything AS x LIMIT 1",
        )
        .unwrap();
        assert_eq!(r.rows[0][0], Value::Null);
    }

    #[test]
    fn arithmetic_in_projection() {
        let b = instance();
        let r = query(
            &b.hygraph,
            "MATCH (u:User) WHERE u.name = 'alice' RETURN u.age * 2 + 1 AS x, u.age / 0 AS z",
        )
        .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(69));
        assert_eq!(r.rows[0][1], Value::Null, "division by zero is null");
    }

    #[test]
    fn shared_variable_across_patterns() {
        let b = instance();
        // (u)-USES->(c), (c)-TX->(m1 named m1): join through c
        let r = query(
            &b.hygraph,
            "MATCH (u:User)-[:USES]->(c:CreditCard), (c)-[t:TX]->(m:Merchant) \
             WHERE m.name = 'm1' RETURN u.name AS who ORDER BY who",
        )
        .unwrap();
        assert_eq!(r.columns, ["who"]);
        assert_eq!(r.rows.len(), 2, "both users transact with m1");
    }

    #[test]
    fn unknown_order_column_errors() {
        let b = instance();
        let err = query(&b.hygraph, "MATCH (u:User) RETURN u.name AS n ORDER BY zzz").unwrap_err();
        assert!(matches!(err, HyGraphError::Query(_)));
    }

    #[test]
    fn reversed_agg_range_errors() {
        let b = instance();
        let err = query(
            &b.hygraph,
            "MATCH (c:CreditCard) WHERE MEAN(DELTA(c) IN [100, 0)) > 1 RETURN c",
        )
        .unwrap_err();
        assert!(matches!(err, HyGraphError::Query(_)));
    }

    #[test]
    fn render_table_output() {
        let b = instance();
        let r = query(
            &b.hygraph,
            "MATCH (u:User) RETURN u.name AS name ORDER BY name",
        )
        .unwrap();
        let text = r.render();
        assert!(text.contains("name"));
        assert!(text.contains("alice"));
        assert!(text.contains("bob"));
    }

    #[test]
    fn inline_node_props_filter() {
        let b = instance();
        let r = query(
            &b.hygraph,
            "MATCH (u:User {name: 'alice'})-[:USES]->(c:CreditCard) RETURN u.age AS age",
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(34));
        // no match for unknown value
        let r = query(&b.hygraph, "MATCH (u:User {name: 'zed'}) RETURN u").unwrap();
        assert!(r.is_empty());
        // numeric inline prop
        let r = query(&b.hygraph, "MATCH (u:User {age: 19}) RETURN u.name AS n").unwrap();
        assert_eq!(r.rows[0][0], Value::Str("bob".into()));
    }

    #[test]
    fn row_count_with_implicit_grouping() {
        let b = instance();
        // per-user transaction counts through their cards
        let r = query(
            &b.hygraph,
            "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
             RETURN u.name AS who, COUNT(t) AS n ORDER BY who",
        )
        .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Str("alice".into()), Value::Int(2)],
                vec![Value::Str("bob".into()), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn count_star_no_keys_single_group() {
        let b = instance();
        let r = query(&b.hygraph, "MATCH (u:User) RETURN COUNT(*) AS n").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
        // zero matches still yields one row with count 0
        let r = query(&b.hygraph, "MATCH (u:Ghost) RETURN COUNT(*) AS n").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn row_sum_avg_min_max() {
        let b = instance();
        let r = query(
            &b.hygraph,
            "MATCH (c:CreditCard)-[t:TX]->(m) \
             RETURN SUM(t.amount) AS s, AVG(t.amount) AS a, MIN(t.amount) AS lo, MAX(t.amount) AS hi",
        )
        .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Float(1550.0));
        let avg = r.rows[0][1].as_f64().unwrap();
        assert!((avg - 1550.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.rows[0][2], Value::Float(20.0));
        assert_eq!(r.rows[0][3], Value::Float(1500.0));
    }

    #[test]
    fn count_distinct() {
        let b = instance();
        // alice's card hits 2 distinct merchants; 3 TX rows total
        let r = query(
            &b.hygraph,
            "MATCH (c:CreditCard)-[t:TX]->(m:Merchant) \
             RETURN COUNT(m.name) AS all_rows, COUNT(DISTINCT m.name) AS uniq",
        )
        .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3));
        assert_eq!(r.rows[0][1], Value::Int(2));
    }

    #[test]
    fn having_filters_groups() {
        let b = instance();
        // Listing-1 style: users with more than one transaction
        let r = query(
            &b.hygraph,
            "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
             RETURN u.name AS who, COUNT(t) AS n HAVING COUNT(t) > 1 ORDER BY who",
        )
        .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Value::Str("alice".into()), Value::Int(2)]]
        );
    }

    #[test]
    fn rowagg_in_arithmetic() {
        let b = instance();
        let r = query(&b.hygraph, "MATCH (u:User) RETURN COUNT(*) * 10 + 1 AS x").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(21));
    }

    #[test]
    fn rowagg_rejected_in_where() {
        let b = instance();
        let err = query(&b.hygraph, "MATCH (u:User) WHERE COUNT(*) > 1 RETURN u").unwrap_err();
        assert!(matches!(err, HyGraphError::Query(_)), "{err:?}");
    }

    #[test]
    fn series_and_row_aggregates_coexist() {
        let b = instance();
        // MEAN(DELTA(..) IN [..)) is a series aggregate (per row);
        // AVG over it is a row aggregate across the group
        let r = query(
            &b.hygraph,
            "MATCH (u:User)-[:USES]->(c:CreditCard) \
             RETURN AVG(MEAN(DELTA(c) IN [0, 1000)) ) AS fleet_mean",
        )
        .unwrap();
        let fleet = r.rows[0][0].as_f64().unwrap();
        // hot card mean 455, cold card mean 12 -> fleet 233.5
        assert!((fleet - (455.0 + 12.0) / 2.0).abs() < 1e-9, "got {fleet}");
    }

    #[test]
    fn variable_length_paths() {
        // chain: alice -USES-> c1 -TX-> m1, plus c1 -TX-> m2
        let b = instance();
        // 1..2 hops from a user: reaches its card (1 hop) and the card's
        // merchants (2 hops)
        let r = query(
            &b.hygraph,
            "MATCH (u:User {name: 'alice'})-[*1..2]->(x) RETURN DISTINCT x ORDER BY x",
        )
        .unwrap();
        assert_eq!(r.len(), 3, "card + two merchants, got {:?}", r.rows);
        // exactly 2 hops: merchants only
        let r = query(
            &b.hygraph,
            "MATCH (u:User {name: 'alice'})-[*2..2]->(m:Merchant) RETURN m.name AS n ORDER BY n",
        )
        .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Value::Str("m1".into())], vec![Value::Str("m2".into())]]
        );
        // labelled var-length: only TX edges, starting from the card
        let r = query(
            &b.hygraph,
            "MATCH (c:CreditCard)-[:TX*1..3]->(m) RETURN COUNT(*) AS n",
        )
        .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3), "three TX edges, no TX chains");
    }

    #[test]
    fn variable_length_parse_errors() {
        let b = instance();
        for bad in [
            "MATCH (a)-[t:TX*1..2]->(b) RETURN a", // bound var on var-length
            "MATCH (a)-[:TX*0..2]->(b) RETURN a",  // min < 1
            "MATCH (a)-[:TX*3..2]->(b) RETURN a",  // reversed
            "MATCH (a)-[:TX*1..9]->(b) RETURN a",  // cap exceeded
        ] {
            assert!(query(&b.hygraph, bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(
            apply_binop(BinOp::And, &Value::Bool(false), &Value::Null),
            Value::Bool(false)
        );
        assert_eq!(
            apply_binop(BinOp::Or, &Value::Null, &Value::Bool(true)),
            Value::Bool(true)
        );
        assert_eq!(
            apply_binop(BinOp::And, &Value::Null, &Value::Bool(true)),
            Value::Null
        );
        assert_eq!(
            apply_binop(BinOp::Eq, &Value::Null, &Value::Int(1)),
            Value::Null
        );
    }
}
