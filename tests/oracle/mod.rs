//! A brute-force reference evaluator for HyQL.
//!
//! It answers a parsed query from the model's definitions alone and
//! shares no evaluation code with the engine: it reads the AST, the raw
//! vertex and edge lists, property maps, validity intervals and series
//! points, and does everything else itself — pattern matching by nested
//! loops, three-valued logic, arithmetic, the value order, series scans
//! and grouping. A bug in the engine's evaluator therefore cannot hide
//! behind the same bug here.
//!
//! Shape: match → retain on WHERE → project (or group, then HAVING) →
//! DISTINCT → ORDER BY. LIMIT is applied by [`Answer::admits`], because
//! which of several rows tied on the sort key a limit keeps is not part
//! of the contract.
//!
//! Semantics, as the engine documents them:
//!
//! * a match binds every node variable to a vertex carrying all its
//!   labels and inline properties, and every edge to a graph edge with
//!   all its labels running in the pattern's direction; with `VALID AT
//!   t`, every bound vertex and edge — intermediates of variable-length
//!   edges included — must be valid at `t` (`start <= t < end`);
//! * a variable-length edge `*lo..hi` is every walk of `lo..=hi` edges
//!   and binds no variable; within one match a graph edge binds at most
//!   one pattern edge, and vertices may repeat;
//! * comparisons and logic are three-valued (Null is unknown); `-0.0`
//!   and `0.0` are one value;
//! * a series aggregate scans the points in `[from, to)` of column 0; a
//!   reversed range is an error;
//! * row aggregates group by the aggregate-free RETURN items, and a
//!   query without keys and without matches has one empty group.
//!
//! An error is reported as the fragment the engine's message must
//! contain: the offending item (`'zzz'`, `[86400000, 0)`) or the rule it
//! breaks.

use hygraph::core::{ElementKind, ElementRef, HyGraph};
use hygraph::graph::{EdgeData, VertexData};
use hygraph::query_engine::ast::{
    AggFunc, BinOp, EdgeDir, EdgePattern, Expr, NodePattern, Query, RowAggFunc, SeriesRef,
};
use hygraph::query_engine::QueryResult;
use hygraph::types::{Duration, EdgeId, HyGraphError, Interval, Timestamp, Value, VertexId};
use std::cmp::Ordering;

/// One result row.
pub type Row = Vec<Value>;

/// What a failed evaluation reports: a fragment of the expected error.
pub type Failure = String;

/// The oracle's answer to a query.
#[derive(Debug)]
pub struct Answer {
    /// Output column names.
    pub columns: Vec<String>,
    /// Every row before LIMIT: after DISTINCT and ORDER BY.
    pub rows: Vec<Row>,
    /// ORDER BY as `(column index, descending)`.
    pub order: Vec<(usize, bool)>,
    /// LIMIT, applied by [`Answer::admits`].
    pub limit: Option<usize>,
}

impl Answer {
    /// Whether an engine result is a correct answer: equal columns; the
    /// right row count; rows drawn from this answer as a multiset (all
    /// of them without LIMIT); and, under ORDER BY, the same sequence of
    /// sort-key tuples as this answer's first rows.
    pub fn admits(&self, columns: &[String], rows: &[Row]) -> Result<(), String> {
        if columns != self.columns.as_slice() {
            return Err(format!("columns {columns:?}, expected {:?}", self.columns));
        }
        let want = self
            .limit
            .map_or(self.rows.len(), |l| l.min(self.rows.len()));
        if rows.len() != want {
            return Err(format!("{} rows, expected {want}", rows.len()));
        }
        let mut used = vec![false; self.rows.len()];
        for row in rows {
            let hit =
                (0..self.rows.len()).find(|&i| !used[i] && identical_rows(&self.rows[i], row));
            match hit {
                Some(i) => used[i] = true,
                None => return Err(format!("row {row:?} is not in the oracle's answer")),
            }
        }
        for (k, (got, exp)) in rows.iter().zip(&self.rows).enumerate() {
            if self
                .order
                .iter()
                .any(|&(i, _)| order(&got[i], &exp[i]) != Ordering::Equal)
            {
                return Err(format!("row {k} is {got:?}, expected sort key of {exp:?}"));
            }
        }
        Ok(())
    }
}

/// Whether the engine's outcome `got` for `q` over `hg` is correct:
/// both succeed and the oracle [admits](Answer::admits) the rows, or
/// both fail and the engine's error names the oracle's offending item.
pub fn agrees(
    hg: &HyGraph,
    q: &Query,
    got: &Result<QueryResult, HyGraphError>,
) -> Result<(), String> {
    match (got, evaluate(hg, q)) {
        (Ok(r), Ok(answer)) => answer.admits(&r.columns, &r.rows),
        (Err(e), Err(item)) if e.to_string().contains(&item) => Ok(()),
        (got, want) => Err(format!("outcome diverges: engine {got:?}, oracle {want:?}")),
    }
}

/// Evaluates `q` over `hg`.
pub fn evaluate(hg: &HyGraph, q: &Query) -> Result<Answer, Failure> {
    if q.filter.as_ref().is_some_and(has_row_agg) {
        return Err("not allowed in WHERE".into());
    }
    // the engine compiles one pattern per hop-count combination and
    // refuses more than 64 of them
    let combinations: usize = q
        .patterns
        .iter()
        .flat_map(|p| &p.hops)
        .map(|(e, _)| e.hops.1 - e.hops.0 + 1)
        .product();
    if combinations > 64 {
        return Err("64 combinations".into());
    }

    let mut matches = vec![Match::default()];
    for path in &q.patterns {
        matches = bind_node(hg, q, matches, &path.start);
        let mut from = &path.start.var;
        for (edge, node) in &path.hops {
            matches = hop(hg, q, matches, from, edge, node);
            from = &node.var;
        }
    }

    let mut kept = Vec::new();
    for m in matches {
        let keep = match &q.filter {
            None => true,
            Some(f) => matches!(eval(hg, &m, f)?, Value::Bool(true)),
        };
        if keep {
            kept.push(m);
        }
    }

    let grouped = q.having.is_some() || q.returns.iter().any(|r| has_row_agg(&r.expr));
    let mut rows = if grouped {
        group(hg, q, &kept)?
    } else {
        let mut rows = Vec::new();
        for m in &kept {
            let row: Result<Row, Failure> =
                q.returns.iter().map(|r| eval(hg, m, &r.expr)).collect();
            rows.push(row?);
        }
        rows
    };

    if q.distinct {
        let mut seen: Vec<Row> = Vec::new();
        for row in rows {
            if !seen.iter().any(|s| same_rows(s, &row)) {
                seen.push(row);
            }
        }
        rows = seen;
    }

    let columns: Vec<String> = q.returns.iter().map(|r| r.alias.clone()).collect();
    let mut sort = Vec::new();
    for item in &q.order_by {
        match columns.iter().position(|c| c == &item.column) {
            Some(i) => sort.push((i, item.descending)),
            None => return Err(format!("'{}'", item.column)),
        }
    }
    rows.sort_by(|a, b| {
        for &(i, desc) in &sort {
            let o = order(&a[i], &b[i]);
            let o = if desc { o.reverse() } else { o };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    });
    Ok(Answer {
        columns,
        rows,
        order: sort,
        limit: q.limit,
    })
}

// ---- matching ---------------------------------------------------------

/// One (partial) match: variable bindings plus the graph edges it uses.
#[derive(Clone, Default)]
struct Match {
    vertices: Vec<(String, VertexId)>,
    edges: Vec<(String, EdgeId)>,
    used: Vec<EdgeId>,
}

impl Match {
    fn vertex(&self, var: &str) -> Option<VertexId> {
        self.vertices
            .iter()
            .find(|(name, _)| name == var)
            .map(|&(_, v)| v)
    }

    /// A vertex binding shadows an edge binding of the same name.
    fn element(&self, var: &str) -> Result<ElementRef, Failure> {
        if let Some(v) = self.vertex(var) {
            return Ok(ElementRef::Vertex(v));
        }
        self.edges
            .iter()
            .find(|(name, _)| name == var)
            .map(|&(_, e)| ElementRef::Edge(e))
            .ok_or_else(|| format!("'{var}'"))
    }
}

fn valid(q: &Query, iv: &Interval) -> bool {
    q.valid_at
        .is_none_or(|t| iv.start.millis() <= t.millis() && t.millis() < iv.end.millis())
}

fn has_labels(have: &[hygraph::types::Label], want: &[String]) -> bool {
    want.iter().all(|w| have.iter().any(|h| h.as_str() == w))
}

fn vertex_data(hg: &HyGraph, v: VertexId) -> &VertexData {
    hg.topology()
        .vertices()
        .find(|d| d.id == v)
        .expect("edge endpoints are vertices")
}

fn vertex_fits(q: &Query, v: &VertexData, node: &NodePattern) -> bool {
    valid(q, &v.validity)
        && has_labels(&v.labels, &node.labels)
        && node.props.iter().all(|(key, lit)| {
            v.props
                .static_value(key)
                .is_some_and(|val| compare(BinOp::Eq, val, lit) == Some(true))
        })
}

fn edge_fits(q: &Query, e: &EdgeData, pat: &EdgePattern) -> bool {
    valid(q, &e.validity) && has_labels(&e.labels, &pat.labels)
}

/// Binds (or re-checks) `node` in every match, scanning all vertices.
fn bind_node(hg: &HyGraph, q: &Query, matches: Vec<Match>, node: &NodePattern) -> Vec<Match> {
    let mut out = Vec::new();
    for m in matches {
        for v in hg.topology().vertices() {
            let bound = m.vertex(&node.var);
            if bound.is_some_and(|b| b != v.id) || !vertex_fits(q, v, node) {
                continue;
            }
            let mut next = m.clone();
            if bound.is_none() {
                next.vertices.push((node.var.clone(), v.id));
            }
            out.push(next);
        }
    }
    out
}

/// The vertex a walk standing at `at` reaches over `e` in direction
/// `dir`, if `e` leaves `at` that way.
fn step(e: &EdgeData, at: VertexId, dir: EdgeDir) -> Option<VertexId> {
    match dir {
        EdgeDir::Right => (e.src == at).then_some(e.dst),
        EdgeDir::Left => (e.dst == at).then_some(e.src),
        EdgeDir::Undirected if e.src == at => Some(e.dst),
        EdgeDir::Undirected => (e.dst == at).then_some(e.src),
    }
}

/// Extends every match by one hop: every walk of `lo..=hi` unused edges
/// from the vertex bound to `from`, ending at a vertex that fits `node`.
fn hop(
    hg: &HyGraph,
    q: &Query,
    matches: Vec<Match>,
    from: &str,
    edge: &EdgePattern,
    node: &NodePattern,
) -> Vec<Match> {
    let (lo, hi) = edge.hops;
    let plain = (lo, hi) == (1, 1);
    let mut out = Vec::new();
    for m in matches {
        let start = m.vertex(from).expect("the previous node is bound");
        let mut walks = vec![(m, start)];
        for len in 1..=hi {
            let mut longer = Vec::new();
            for (walk, at) in &walks {
                // a vertex the walk passes through must be valid too
                if len > 1 && !valid(q, &vertex_data(hg, *at).validity) {
                    continue;
                }
                for e in hg.topology().edges() {
                    if walk.used.contains(&e.id) || !edge_fits(q, e, edge) {
                        continue;
                    }
                    let Some(to) = step(e, *at, edge.dir) else {
                        continue;
                    };
                    let mut next = walk.clone();
                    next.used.push(e.id);
                    if plain {
                        next.edges.push((edge.var.clone(), e.id));
                    }
                    longer.push((next, to));
                }
            }
            walks = longer;
            if len < lo {
                continue;
            }
            for (walk, end) in &walks {
                let bound = walk.vertex(&node.var);
                if bound.is_some_and(|b| b != *end) || !vertex_fits(q, vertex_data(hg, *end), node)
                {
                    continue;
                }
                let mut done = walk.clone();
                if bound.is_none() {
                    done.vertices.push((node.var.clone(), *end));
                }
                out.push(done);
            }
        }
    }
    out
}

// ---- expressions -------------------------------------------------------

fn has_row_agg(e: &Expr) -> bool {
    match e {
        Expr::RowAgg { .. } => true,
        Expr::Not(inner) => has_row_agg(inner),
        Expr::Binary { lhs, rhs, .. } => has_row_agg(lhs) || has_row_agg(rhs),
        _ => false,
    }
}

fn kind(hg: &HyGraph, el: ElementRef) -> ElementKind {
    match el {
        ElementRef::Vertex(v) => hg.vertex_kind(v),
        ElementRef::Edge(e) => hg.edge_kind(e),
        ElementRef::Subgraph(_) => Ok(ElementKind::Pg),
    }
    .expect("bound elements exist")
}

/// The property map of a pg-element; ts-elements have none.
fn props(hg: &HyGraph, el: ElementRef) -> Option<&hygraph::types::PropertyMap> {
    if kind(hg, el) == ElementKind::Ts {
        return None;
    }
    match el {
        ElementRef::Vertex(v) => Some(&vertex_data(hg, v).props),
        ElementRef::Edge(e) => hg.topology().edges().find(|d| d.id == e).map(|d| &d.props),
        ElementRef::Subgraph(_) => None,
    }
}

/// Evaluates a per-row expression over one match.
fn eval(hg: &HyGraph, m: &Match, e: &Expr) -> Result<Value, Failure> {
    Ok(match e {
        Expr::Literal(v) => v.clone(),
        Expr::Var(var) => Value::Str(match m.element(var)? {
            ElementRef::Vertex(v) => v.to_string(),
            ElementRef::Edge(e) => e.to_string(),
            ElementRef::Subgraph(s) => s.to_string(),
        }),
        Expr::Prop { var, key } => props(hg, m.element(var)?)
            .and_then(|p| p.static_value(key))
            .cloned()
            .unwrap_or(Value::Null),
        Expr::Agg {
            func,
            series,
            from,
            to,
        } => series_agg(hg, m, *func, series, *from, *to)?,
        Expr::RowAgg { .. } => return Err("row aggregate".into()),
        Expr::Not(inner) => not(&eval(hg, m, inner)?),
        Expr::Binary { op, lhs, rhs } => {
            let l = eval(hg, m, lhs)?;
            let r = eval(hg, m, rhs)?;
            binary(*op, &l, &r)
        }
    })
}

/// `FUNC(series IN [from, to))` by a direct scan of the points.
fn series_agg(
    hg: &HyGraph,
    m: &Match,
    func: AggFunc,
    series: &SeriesRef,
    from: i64,
    to: i64,
) -> Result<Value, Failure> {
    if from > to {
        return Err(format!("[{from}, {to})"));
    }
    let ms = match series {
        SeriesRef::Delta(var) => hg
            .delta(m.element(var)?)
            .map_err(|_| "kind mismatch".to_string())?,
        SeriesRef::Property { var, key } => {
            match props(hg, m.element(var)?).and_then(|p| p.series_value(key)) {
                Some(sid) => hg.series(sid).expect("property series exists"),
                None => return Ok(Value::Null),
            }
        }
    };
    let Some(column) = ms.column(0) else {
        return Ok(Value::Null);
    };
    let points: Vec<f64> = ms
        .times()
        .iter()
        .zip(column)
        .filter(|(t, _)| from <= t.millis() && t.millis() < to)
        .map(|(_, &v)| v)
        .collect();
    let Some(&first) = points.first() else {
        return Ok(match func {
            AggFunc::Count => Value::Int(0),
            _ => Value::Null,
        });
    };
    let sum: f64 = points.iter().sum();
    Ok(match func {
        AggFunc::Count => Value::Int(points.len() as i64),
        AggFunc::Sum => Value::Float(sum),
        AggFunc::Mean => Value::Float(sum / points.len() as f64),
        AggFunc::Min => Value::Float(points.iter().fold(first, |a, &b| if b < a { b } else { a })),
        AggFunc::Max => Value::Float(points.iter().fold(first, |a, &b| if b > a { b } else { a })),
    })
}

fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn unknown_or(b: Option<bool>) -> Value {
    b.map_or(Value::Null, Value::Bool)
}

fn not(v: &Value) -> Value {
    unknown_or(truth(v).map(|b| !b))
}

/// Numeric view: ints, floats, and booleans as 0 / 1.
fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        _ => None,
    }
}

fn binary(op: BinOp, l: &Value, r: &Value) -> Value {
    let (a, b) = (truth(l), truth(r));
    match op {
        BinOp::And => unknown_or(match (a, b) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        }),
        BinOp::Or => unknown_or(match (a, b) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        }),
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            unknown_or(compare(op, l, r))
        }
        BinOp::Add => add(l, r),
        BinOp::Sub => arith(l, r, i64::checked_sub, |x, y| x - y),
        BinOp::Mul => arith(l, r, i64::checked_mul, |x, y| x * y),
        BinOp::Div => match (numeric(l), numeric(r)) {
            (Some(x), Some(y)) if y != 0.0 => Value::Float(x / y),
            _ => Value::Null,
        },
    }
}

/// `+`: numbers (an int overflow is Null), string concatenation, and
/// time plus span.
fn add(l: &Value, r: &Value) -> Value {
    match (l, r) {
        (Value::Int(x), Value::Int(y)) => x.checked_add(*y).map_or(Value::Null, Value::Int),
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            Value::Float(numeric(l).unwrap() + numeric(r).unwrap())
        }
        (Value::Str(x), Value::Str(y)) => Value::Str(format!("{x}{y}")),
        (Value::Time(t), Value::Span(d)) | (Value::Span(d), Value::Time(t)) => {
            Value::Time(Timestamp::from_millis(t.millis() + d.millis()))
        }
        (Value::Span(x), Value::Span(y)) => {
            Value::Span(Duration::from_millis(x.millis() + y.millis()))
        }
        _ => Value::Null,
    }
}

/// `-` and `*`: exact on two ints (an overflow is Null), otherwise on
/// the numeric views.
fn arith(
    l: &Value,
    r: &Value,
    int: fn(i64, i64) -> Option<i64>,
    float: fn(f64, f64) -> f64,
) -> Value {
    match (l, r) {
        (Value::Int(x), Value::Int(y)) => int(*x, *y).map_or(Value::Null, Value::Int),
        _ => match (numeric(l), numeric(r)) {
            (Some(x), Some(y)) => Value::Float(float(x, y)),
            _ => Value::Null,
        },
    }
}

/// Three-valued comparison: unknown when either side is Null.
/// Equality compares numbers by value (NaN equals nothing); the order
/// operators use [`order`].
fn compare(op: BinOp, l: &Value, r: &Value) -> Option<bool> {
    if matches!(l, Value::Null) || matches!(r, Value::Null) {
        return None;
    }
    let eq = match (l, r) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            numeric(l) == numeric(r)
        }
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Time(x), Value::Time(y)) => x.millis() == y.millis(),
        (Value::Span(x), Value::Span(y)) => x.millis() == y.millis(),
        _ => false,
    };
    let o = order(l, r);
    Some(match op {
        BinOp::Eq => eq,
        BinOp::Ne => !eq,
        BinOp::Lt => o == Ordering::Less,
        BinOp::Le => o != Ordering::Greater,
        BinOp::Gt => o == Ordering::Greater,
        BinOp::Ge => o != Ordering::Less,
        _ => unreachable!("not a comparison"),
    })
}

/// The value order: Null < Bool < number < string < time < span; ints
/// and floats compare by value, `-0.0` equals `0.0`, NaN sorts above
/// every other number.
fn order(a: &Value, b: &Value) -> Ordering {
    fn family(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Time(_) => 4,
            Value::Span(_) => 5,
        }
    }
    fn floats(x: f64, y: f64) -> Ordering {
        match (x.is_nan(), y.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => x.partial_cmp(&y).expect("neither is NaN"),
        }
    }
    match (a, b) {
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Int(_) | Value::Float(_), Value::Int(_) | Value::Float(_)) => {
            floats(numeric(a).unwrap(), numeric(b).unwrap())
        }
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Time(x), Value::Time(y)) => x.millis().cmp(&y.millis()),
        (Value::Span(x), Value::Span(y)) => x.millis().cmp(&y.millis()),
        _ => family(a).cmp(&family(b)),
    }
}

/// "Not distinct": the equality DISTINCT and grouping use.
fn same_rows(a: &Row, b: &Row) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| order(x, y) == Ordering::Equal)
}

/// Same type and same value: the equality the comparison with the
/// engine's rows uses.
fn identical_rows(a: &Row, b: &Row) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Float(f), Value::Float(g)) => f == g || (f.is_nan() && g.is_nan()),
            (Value::Int(_), Value::Float(_)) | (Value::Float(_), Value::Int(_)) => false,
            _ => order(x, y) == Ordering::Equal,
        })
}

// ---- grouping ----------------------------------------------------------

/// One group of a grouped query: its key values and its matches.
struct Group<'a> {
    hg: &'a HyGraph,
    keys: &'a [&'a Expr],
    key: &'a Row,
    members: &'a [&'a Match],
}

impl Group<'_> {
    /// Evaluates a RETURN item or HAVING over the group: key items read
    /// the key, row aggregates fold the members, and anything else that
    /// needs a row has none.
    fn eval(&self, e: &Expr) -> Result<Value, Failure> {
        if let Some(i) = self.keys.iter().position(|k| *k == e) {
            return Ok(self.key[i].clone());
        }
        Ok(match e {
            Expr::Literal(v) => v.clone(),
            Expr::RowAgg {
                func,
                arg,
                distinct,
            } => self.row_agg(*func, arg.as_deref(), *distinct)?,
            Expr::Not(inner) => not(&self.eval(inner)?),
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                binary(*op, &l, &r)
            }
            _ => return Err("outside aggregation".into()),
        })
    }

    fn row_agg(
        &self,
        func: RowAggFunc,
        arg: Option<&Expr>,
        distinct: bool,
    ) -> Result<Value, Failure> {
        let Some(arg) = arg else {
            return Ok(Value::Int(self.members.len() as i64)); // COUNT(*)
        };
        let mut values: Vec<Value> = Vec::new();
        for m in self.members {
            let v = eval(self.hg, m, arg)?;
            let repeat = distinct && values.iter().any(|s| order(s, &v) == Ordering::Equal);
            if !matches!(v, Value::Null) && !repeat {
                values.push(v);
            }
        }
        let nums: Vec<f64> = values.iter().filter_map(numeric).collect();
        let extreme = |want: Ordering| {
            let mut best: Option<&Value> = None;
            for v in &values {
                if best.is_none_or(|b| order(v, b) == want) {
                    best = Some(v);
                }
            }
            best.cloned().unwrap_or(Value::Null)
        };
        Ok(match func {
            RowAggFunc::Count => Value::Int(values.len() as i64),
            RowAggFunc::Sum | RowAggFunc::Avg if nums.is_empty() => Value::Null,
            RowAggFunc::Sum => Value::Float(nums.iter().sum()),
            RowAggFunc::Avg => Value::Float(nums.iter().sum::<f64>() / nums.len() as f64),
            RowAggFunc::Min => extreme(Ordering::Less),
            RowAggFunc::Max => extreme(Ordering::Greater),
        })
    }
}

fn group(hg: &HyGraph, q: &Query, kept: &[Match]) -> Result<Vec<Row>, Failure> {
    let keys: Vec<&Expr> = q
        .returns
        .iter()
        .map(|r| &r.expr)
        .filter(|e| !has_row_agg(e))
        .collect();
    let mut groups: Vec<(Row, Vec<&Match>)> = Vec::new();
    for m in kept {
        let key: Row = keys
            .iter()
            .map(|k| eval(hg, m, k))
            .collect::<Result<_, _>>()?;
        match groups.iter_mut().find(|(k, _)| same_rows(k, &key)) {
            Some((_, members)) => members.push(m),
            None => groups.push((key, vec![m])),
        }
    }
    if groups.is_empty() && keys.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }
    let mut rows = Vec::new();
    for (key, members) in &groups {
        let g = Group {
            hg,
            keys: &keys,
            key,
            members,
        };
        let row: Row = q
            .returns
            .iter()
            .map(|r| g.eval(&r.expr))
            .collect::<Result<_, _>>()?;
        let keep = match &q.having {
            None => true,
            Some(h) => matches!(g.eval(h)?, Value::Bool(true)),
        };
        if keep {
            rows.push(row);
        }
    }
    Ok(rows)
}
