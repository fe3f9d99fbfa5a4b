//! Incremental maintenance of standing (subscribed) queries.
//!
//! A standing query keeps its materialised result up to date across
//! mutation batches without re-running the full plan. The machinery
//! rests on one ordering theorem about the match stage:
//! [`Pattern::find`]'s emission order equals the lexicographic order of
//! a canonical, data-independent [`MatchKey`] per emission (see the key
//! docs in `hygraph-graph`). [`IncState`] therefore stores every match
//! in a `BTreeMap` keyed by `(pattern index, MatchKey)` — iterating the
//! map *is* re-running the Match operator — together with the
//! filter/projection outcome per match. A mutation batch then only has
//! to (a) discover matches involving newly added vertices/edges via the
//! pinned searches ([`Pattern::find_keyed_with_vertex`] /
//! `find_keyed_with_edge`), (b) re-evaluate entries whose series inputs
//! received appended points, and (c) walk the map once to emit
//! positional [`DeltaOp`]s against the previous result.
//!
//! Supported plan shapes are the flat pipeline (Match → Filter →
//! Project, series aggregates allowed anywhere). Grouped plans
//! (row aggregates / HAVING), DISTINCT, ORDER BY and LIMIT fall back to
//! re-execution plus [`diff_rows`] — the subscription layer decides,
//! via [`support`], which path a plan takes; EXPLAIN output carries the
//! decision so it is visible to users.
//!
//! Deltas are positional edit scripts: applying the ops of a [`Delta`]
//! in order to the previous row vector yields the new row vector,
//! byte-identical to a from-scratch [`execute_planned`] run.
//!
//! [`Pattern::find`]: hygraph_graph::Pattern::find
//! [`Pattern::find_keyed_with_vertex`]: hygraph_graph::Pattern::find_keyed_with_vertex
//! [`execute_planned`]: crate::execute_planned

use crate::ast::{Expr, SeriesRef};
use crate::exec::{QueryResult, Row};
use crate::physical::{eval_filter, project_row, PlannedQuery};
use crate::plan::LogicalPlan;
use hygraph_core::{ElementRef, HyGraph};
use hygraph_graph::pattern::{Binding, MatchKey};
use hygraph_types::bytes::{ByteReader, ByteWriter};
use hygraph_types::{EdgeId, HyGraphError, Result, SeriesId, VertexId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// One positional edit against the previous result rows. Positions are
/// interpreted sequentially: each op applies to the vector produced by
/// the ops before it.
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaOp {
    /// Insert `row` so that it ends up at index `at`.
    Insert {
        /// Target index after insertion.
        at: usize,
        /// The new row.
        row: Row,
    },
    /// Replace the row at index `at`.
    Update {
        /// Index of the replaced row.
        at: usize,
        /// The replacement row.
        row: Row,
    },
    /// Remove the row at index `at`.
    Remove {
        /// Index of the removed row.
        at: usize,
    },
}

/// An ordered edit script transforming one result-row vector into the
/// next. Empty deltas are never pushed to subscribers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Delta {
    /// The edits, in application order.
    pub ops: Vec<DeltaOp>,
}

impl Delta {
    /// Whether the delta carries no edits.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Encodes the delta with the workspace binary codecs (op tag, then
    /// position, then the row for Insert/Update).
    pub fn encode(&self, w: &mut ByteWriter) {
        w.len_of(self.ops.len());
        for op in &self.ops {
            match op {
                DeltaOp::Insert { at, row } => {
                    w.u8(0);
                    w.len_of(*at);
                    encode_row(w, row);
                }
                DeltaOp::Update { at, row } => {
                    w.u8(1);
                    w.len_of(*at);
                    encode_row(w, row);
                }
                DeltaOp::Remove { at } => {
                    w.u8(2);
                    w.len_of(*at);
                }
            }
        }
    }

    /// Decodes a delta written by [`Delta::encode`]. Input is untrusted:
    /// declared counts are checked against the bytes remaining so a
    /// hostile frame cannot drive a huge allocation loop.
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let n = r.len_of()?;
        check_count(r, n, "delta op")?;
        let mut ops = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let tag = r.u8()?;
            // a row position, not a length: it allocates nothing, so
            // it must not be bounded by the bytes remaining
            let at = r.u64()? as usize;
            ops.push(match tag {
                0 => DeltaOp::Insert {
                    at,
                    row: decode_row(r)?,
                },
                1 => DeltaOp::Update {
                    at,
                    row: decode_row(r)?,
                },
                2 => DeltaOp::Remove { at },
                t => {
                    return Err(HyGraphError::Corrupt {
                        offset: r.position(),
                        message: format!("unknown delta op tag {t}"),
                    })
                }
            });
        }
        Ok(Self { ops })
    }
}

fn encode_row(w: &mut ByteWriter, row: &Row) {
    w.len_of(row.len());
    for v in row {
        w.value(v);
    }
}

fn decode_row(r: &mut ByteReader<'_>) -> Result<Row> {
    let n = r.len_of()?;
    check_count(r, n, "cell")?;
    let mut row = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        row.push(r.value()?);
    }
    Ok(row)
}

fn check_count(r: &ByteReader<'_>, n: usize, what: &str) -> Result<()> {
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

/// Applies a delta to a locally held result snapshot (the client side
/// of a subscription). Positions out of range error instead of
/// panicking — a desynchronised stream must surface, not abort.
pub fn apply_delta(res: &mut QueryResult, delta: &Delta) -> Result<()> {
    for op in &delta.ops {
        match op {
            DeltaOp::Insert { at, row } => {
                if *at > res.rows.len() {
                    return Err(HyGraphError::query(format!(
                        "delta insert at {at} beyond {} rows",
                        res.rows.len()
                    )));
                }
                res.rows.insert(*at, row.clone());
            }
            DeltaOp::Update { at, row } => match res.rows.get_mut(*at) {
                Some(slot) => *slot = row.clone(),
                None => {
                    return Err(HyGraphError::query(format!(
                        "delta update at {at} beyond {} rows",
                        res.rows.len()
                    )))
                }
            },
            DeltaOp::Remove { at } => {
                if *at >= res.rows.len() {
                    return Err(HyGraphError::query(format!(
                        "delta remove at {at} beyond {} rows",
                        res.rows.len()
                    )));
                }
                res.rows.remove(*at);
            }
        }
    }
    Ok(())
}

/// Positional diff between two row vectors (the fallback path): trims
/// the byte-identical common prefix and suffix, removes the remaining
/// old middle and inserts the new one. Minimal for the common cases
/// (append, single change) and always correct.
pub fn diff_rows(old: &[Row], new: &[Row]) -> Delta {
    let eq = |a: &Row, b: &Row| row_bytes(a) == row_bytes(b);
    let mut p = 0usize;
    while p < old.len() && p < new.len() && eq(&old[p], &new[p]) {
        p += 1;
    }
    let mut s = 0usize;
    while s < old.len() - p
        && s < new.len() - p
        && eq(&old[old.len() - 1 - s], &new[new.len() - 1 - s])
    {
        s += 1;
    }
    let mut ops = Vec::new();
    for _ in p..old.len() - s {
        ops.push(DeltaOp::Remove { at: p });
    }
    for (at, row) in new.iter().enumerate().take(new.len() - s).skip(p) {
        ops.push(DeltaOp::Insert {
            at,
            row: row.clone(),
        });
    }
    Delta { ops }
}

fn row_bytes(row: &Row) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_row(&mut w, row);
    w.into_bytes()
}

/// Whether a plan is incrementally maintainable; `Err` carries the
/// human-readable reason shown in EXPLAIN output (`Subscribe: rerun
/// (<reason>)`) and in operator-facing docs.
pub fn support(plan: &LogicalPlan) -> std::result::Result<(), String> {
    let q = &plan.query;
    if q.temporal.is_some() {
        return Err("temporal bound (AS OF / BETWEEN)".to_string());
    }
    if plan.grouped {
        return Err("row aggregates / HAVING need the grouped operator".to_string());
    }
    if q.distinct {
        return Err("DISTINCT".to_string());
    }
    if !q.order_by.is_empty() {
        return Err("ORDER BY".to_string());
    }
    if q.limit.is_some() {
        return Err("LIMIT".to_string());
    }
    Ok(())
}

/// Whether the plan reads any series aggregate — if not, `Append`
/// mutations can never affect it and the subscription layer routes
/// appends past it entirely.
pub fn uses_series(plan: &LogicalPlan) -> bool {
    fn walk(e: &Expr) -> bool {
        match e {
            Expr::Agg { .. } => true,
            Expr::Not(i) => walk(i),
            Expr::Binary { lhs, rhs, .. } => walk(lhs) || walk(rhs),
            Expr::RowAgg { arg, .. } => arg.as_deref().is_some_and(walk),
            _ => false,
        }
    }
    let q = &plan.query;
    q.filter.as_ref().is_some_and(walk)
        || q.returns.iter().any(|r| walk(&r.expr))
        || q.having.as_ref().is_some_and(walk)
}

/// One stored match: its variable bindings and, if the filter passed,
/// the projected row.
#[derive(Clone, Debug)]
struct Entry {
    binding: Binding,
    row: Option<Row>,
}

/// Stable identifier of a stored match: pattern index (variable-length
/// expansions enumerate pattern-major) plus the canonical match key.
type EntryKey = (u32, MatchKey);

/// Incrementally maintained state of one standing query: every match
/// with its evaluation outcome, ordered exactly as `execute_planned`
/// would emit them, plus an inverted index from series ids to the
/// entries whose values depend on them.
#[derive(Clone, Debug)]
pub struct IncState {
    planned: PlannedQuery,
    entries: BTreeMap<EntryKey, Entry>,
    by_series: HashMap<SeriesId, HashSet<EntryKey>>,
}

impl IncState {
    /// Builds the initial state and materialised snapshot. Errors if
    /// the plan shape is unsupported (see [`support`]) or evaluation
    /// fails — both mirror what `execute_planned` would report.
    pub fn new(planned: &PlannedQuery, hg: &HyGraph) -> Result<(Self, QueryResult)> {
        support(&planned.plan).map_err(HyGraphError::query)?;
        let mut st = Self {
            planned: planned.clone(),
            entries: BTreeMap::new(),
            by_series: HashMap::new(),
        };
        st.entries = st.full_entries(hg)?;
        st.reindex_series(hg);
        let snapshot = st.snapshot();
        Ok((st, snapshot))
    }

    /// The plan this state maintains.
    pub fn planned(&self) -> &PlannedQuery {
        &self.planned
    }

    /// The current materialised result, in `execute_planned` order.
    pub fn snapshot(&self) -> QueryResult {
        QueryResult {
            columns: self
                .planned
                .plan
                .query
                .returns
                .iter()
                .map(|r| r.alias.clone())
                .collect(),
            rows: self
                .entries
                .values()
                .filter_map(|e| e.row.clone())
                .collect(),
        }
    }

    /// Advances the state across one committed mutation batch and
    /// returns the edit script against the previous snapshot.
    ///
    /// `new_vertices` / `new_edges` are the ids created by the batch,
    /// `appended` the series that received points. `rebuild` forces a
    /// from-scratch recomputation (required after property updates,
    /// validity closes, or a partially applied batch, where touched
    /// matches cannot be enumerated locally); it stays correct for any
    /// batch.
    pub fn apply_batch(
        &mut self,
        hg: &HyGraph,
        new_vertices: &[VertexId],
        new_edges: &[EdgeId],
        appended: &[SeriesId],
        rebuild: bool,
    ) -> Result<Delta> {
        if rebuild {
            return self.rebuild(hg);
        }

        // old row (None = absent/not passing) of every touched entry
        let mut changed: BTreeMap<EntryKey, Option<Row>> = BTreeMap::new();

        // (a) matches involving newly added elements, via pinned search
        let topo = hg.topology();
        for (pi, pattern) in self.planned.patterns.iter().enumerate() {
            let mut found: BTreeMap<MatchKey, Binding> = BTreeMap::new();
            for &v in new_vertices {
                pattern.find_keyed_with_vertex(topo, v, &mut found);
            }
            for &e in new_edges {
                pattern.find_keyed_with_edge(topo, e, &mut found);
            }
            for (key, binding) in found {
                let k = (pi as u32, key);
                if self.entries.contains_key(&k) {
                    continue; // impossible for pure additions, but harmless
                }
                changed.insert(k.clone(), None);
                self.entries.insert(k, Entry { binding, row: None });
            }
        }

        // (b) entries whose series inputs changed
        for sid in appended {
            if let Some(keys) = self.by_series.get(sid) {
                for k in keys {
                    changed
                        .entry(k.clone())
                        .or_insert_with(|| self.entries[k].row.clone());
                }
            }
        }

        if changed.is_empty() {
            return Ok(Delta::default());
        }

        // (c) re-evaluate every touched entry against the new instance
        for k in changed.keys() {
            let entry = self.entries.get(k).expect("touched entry exists");
            let row = eval_binding(&self.planned, hg, &entry.binding)?;
            let deps = series_deps(&self.planned, hg, &entry.binding);
            for sid in deps {
                self.by_series.entry(sid).or_default().insert(k.clone());
            }
            self.entries.get_mut(k).expect("touched entry exists").row = row;
        }

        // (d) one ordered walk emits the positional edit script
        let mut ops = Vec::new();
        let mut pos = 0usize;
        for (k, entry) in &self.entries {
            match changed.get(k) {
                None => {
                    if entry.row.is_some() {
                        pos += 1;
                    }
                }
                Some(old) => emit_op(&mut ops, &mut pos, old.as_ref(), entry.row.as_ref()),
            }
        }
        Ok(Delta { ops })
    }

    /// Full recomputation plus an ordered merge-diff against the old
    /// entries — the correctness anchor for mutations the incremental
    /// path cannot localise.
    fn rebuild(&mut self, hg: &HyGraph) -> Result<Delta> {
        let new_entries = self.full_entries(hg)?;
        let keys: BTreeSet<&EntryKey> = self.entries.keys().chain(new_entries.keys()).collect();
        let mut ops = Vec::new();
        let mut pos = 0usize;
        for k in keys {
            let old = self.entries.get(k).and_then(|e| e.row.as_ref());
            let new = new_entries.get(k).and_then(|e| e.row.as_ref());
            emit_op(&mut ops, &mut pos, old, new);
        }
        self.entries = new_entries;
        self.reindex_series(hg);
        Ok(Delta { ops })
    }

    /// Enumerates and evaluates every match from scratch.
    fn full_entries(&self, hg: &HyGraph) -> Result<BTreeMap<EntryKey, Entry>> {
        let mut entries = BTreeMap::new();
        for (pi, pattern) in self.planned.patterns.iter().enumerate() {
            for (key, binding) in pattern.find_keyed(hg.topology()) {
                let row = eval_binding(&self.planned, hg, &binding)?;
                entries.insert((pi as u32, key), Entry { binding, row });
            }
        }
        Ok(entries)
    }

    fn reindex_series(&mut self, hg: &HyGraph) {
        self.by_series.clear();
        for (k, entry) in &self.entries {
            for sid in series_deps(&self.planned, hg, &entry.binding) {
                self.by_series.entry(sid).or_default().insert(k.clone());
            }
        }
    }
}

/// Extends the edit script for one entry transition, tracking the
/// cursor into the partially rewritten row vector. Both old and new row
/// sequences share the entry-key order, which is what makes this single
/// cursor sufficient.
fn emit_op(ops: &mut Vec<DeltaOp>, pos: &mut usize, old: Option<&Row>, new: Option<&Row>) {
    match (old, new) {
        (None, None) => {}
        (None, Some(row)) => {
            ops.push(DeltaOp::Insert {
                at: *pos,
                row: row.clone(),
            });
            *pos += 1;
        }
        (Some(_), None) => ops.push(DeltaOp::Remove { at: *pos }),
        (Some(o), Some(n)) => {
            if row_bytes(o) != row_bytes(n) {
                ops.push(DeltaOp::Update {
                    at: *pos,
                    row: n.clone(),
                });
            }
            *pos += 1;
        }
    }
}

/// Filter + project one binding through the flat physical path's own
/// per-binding units, so stored rows are byte-identical to
/// `execute_planned`'s.
fn eval_binding(planned: &PlannedQuery, hg: &HyGraph, binding: &Binding) -> Result<Option<Row>> {
    let q = &planned.plan.query;
    if q.filter.is_some() && !eval_filter(hg, q, None, binding)? {
        return Ok(None);
    }
    project_row(hg, q, None, binding).map(Some)
}

/// Resolves the series ids this binding's evaluation reads (through
/// `DELTA(var)` and series-valued properties), mirroring `eval_agg`'s
/// resolution rules. Unresolvable references contribute nothing — their
/// evaluation is Null regardless of appended points.
fn series_deps(planned: &PlannedQuery, hg: &HyGraph, binding: &Binding) -> Vec<SeriesId> {
    fn element(binding: &Binding, var: &str) -> Option<ElementRef> {
        if let Some(&v) = binding.vertices.get(var) {
            Some(ElementRef::Vertex(v))
        } else {
            binding.edges.get(var).map(|&e| ElementRef::Edge(e))
        }
    }
    fn walk(e: &Expr, hg: &HyGraph, binding: &Binding, out: &mut Vec<SeriesId>) {
        match e {
            Expr::Agg { series, .. } => {
                let sid = match series {
                    SeriesRef::Delta(var) => {
                        element(binding, var).and_then(|el| hg.delta_id(el).ok())
                    }
                    SeriesRef::Property { var, key } => element(binding, var)
                        .and_then(|el| hg.props(el).ok())
                        .and_then(|p| p.series_value(key)),
                };
                if let Some(sid) = sid {
                    out.push(sid);
                }
            }
            Expr::Not(i) => walk(i, hg, binding, out),
            Expr::Binary { lhs, rhs, .. } => {
                walk(lhs, hg, binding, out);
                walk(rhs, hg, binding, out);
            }
            Expr::RowAgg { arg: Some(a), .. } => walk(a, hg, binding, out),
            _ => {}
        }
    }
    let q = &planned.plan.query;
    let mut out = Vec::new();
    if let Some(f) = &q.filter {
        walk(f, hg, binding, &mut out);
    }
    for r in &q.returns {
        walk(&r.expr, hg, binding, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::physical::{execute_planned, plan_query};
    use hygraph_core::HyGraphBuilder;
    use hygraph_ts::TimeSeries;
    use hygraph_types::parallel::ExecMode;
    use hygraph_types::{props, Duration, Timestamp};

    fn instance() -> HyGraph {
        let hot = TimeSeries::generate(Timestamp::ZERO, Duration::from_millis(10), 50, |i| {
            (i % 17) as f64
        });
        HyGraphBuilder::new()
            .univariate("hot", &hot)
            .pg_vertex(
                "alice",
                ["User"],
                props! {"name" => "alice", "age" => 34i64},
            )
            .pg_vertex("bob", ["User"], props! {"name" => "bob", "age" => 19i64})
            .ts_vertex("c1", ["Card"], "hot")
            .pg_vertex("m1", ["Merchant"], props! {"name" => "m1"})
            .pg_edge(None, "alice", "c1", ["USES"], props! {})
            .pg_edge(Some("t1"), "c1", "m1", ["TX"], props! {"amount" => 120.0})
            .build()
            .unwrap()
            .hygraph
    }

    fn encoded(r: &QueryResult) -> Vec<u8> {
        let mut w = ByteWriter::new();
        r.encode(&mut w);
        w.into_bytes()
    }

    /// Drives a state across a mutation step and checks the applied
    /// delta reproduces a from-scratch run byte-for-byte.
    fn step_and_check(
        st: &mut IncState,
        local: &mut QueryResult,
        hg: &HyGraph,
        new_v: &[VertexId],
        new_e: &[EdgeId],
        appended: &[SeriesId],
    ) {
        let delta = st.apply_batch(hg, new_v, new_e, appended, false).unwrap();
        apply_delta(local, &delta).unwrap();
        let fresh = execute_planned(hg, st.planned(), ExecMode::Sequential).unwrap();
        assert_eq!(encoded(local), encoded(&fresh));
        assert_eq!(encoded(&st.snapshot()), encoded(&fresh));
    }

    #[test]
    fn initial_snapshot_matches_execute_planned() {
        let hg = instance();
        for text in [
            "MATCH (u:User) RETURN u.name AS name",
            "MATCH (u:User)-[:USES]->(c:Card) WHERE u.age > 20 RETURN u.name AS who",
            "MATCH (u:User)-[:USES]->(c:Card)-[t:TX]->(m:Merchant) \
             RETURN u.name AS who, t.amount AS amt, MEAN(DELTA(c) IN [0, 500)) AS m",
        ] {
            let planned = plan_query(&parse(text).unwrap()).unwrap();
            let (_, snap) = IncState::new(&planned, &hg).unwrap();
            let fresh = execute_planned(&hg, &planned, ExecMode::Sequential).unwrap();
            assert_eq!(encoded(&snap), encoded(&fresh), "{text}");
        }
    }

    #[test]
    fn incremental_additions_and_appends() {
        let mut hg = instance();
        let planned = plan_query(
            &parse(
                "MATCH (u:User)-[:USES]->(c:Card) \
                 WHERE SUM(DELTA(c) IN [0, 1000)) > 10 RETURN u.name AS who",
            )
            .unwrap(),
        )
        .unwrap();
        let (mut st, mut local) = IncState::new(&planned, &hg).unwrap();

        // new user + new USES edge to the existing card
        let v0 = hg.topology().vertex_capacity();
        let e0 = hg.topology().edge_capacity();
        let u3 = hg.add_pg_vertex(["User"], props! {"name" => "carol", "age" => 40i64});
        let card = hg.topology().vertices_with_label("Card").next().unwrap().id;
        let e = hg.add_pg_edge(u3, card, ["USES"], props! {}).unwrap();
        let new_v: Vec<VertexId> = (v0..hg.topology().vertex_capacity())
            .map(VertexId::from)
            .collect();
        let new_e: Vec<EdgeId> = (e0..hg.topology().edge_capacity())
            .map(EdgeId::from)
            .collect();
        assert_eq!(new_v, vec![u3]);
        assert_eq!(new_e, vec![e]);
        step_and_check(&mut st, &mut local, &hg, &new_v, &new_e, &[]);

        // append to the card's series: rows flip as the SUM crosses 10
        let sid = hg.delta_id(ElementRef::Vertex(card)).unwrap();
        hg.append(sid, Timestamp::from_millis(600), &[500.0])
            .unwrap();
        step_and_check(&mut st, &mut local, &hg, &[], &[], &[sid]);
    }

    #[test]
    fn rebuild_handles_property_updates() {
        let mut hg = instance();
        let planned = plan_query(
            &parse("MATCH (u:User) WHERE u.age > 20 RETURN u.name AS who, u.age AS age").unwrap(),
        )
        .unwrap();
        let (mut st, mut local) = IncState::new(&planned, &hg).unwrap();
        let alice = hg.topology().vertices_with_label("User").next().unwrap().id;
        hg.set_property(
            ElementRef::Vertex(alice),
            "age".to_string(),
            hygraph_types::PropertyValue::Static(18i64.into()),
        )
        .unwrap();
        let delta = st.apply_batch(&hg, &[], &[], &[], true).unwrap();
        apply_delta(&mut local, &delta).unwrap();
        let fresh = execute_planned(&hg, st.planned(), ExecMode::Sequential).unwrap();
        assert_eq!(encoded(&local), encoded(&fresh));
    }

    #[test]
    fn unsupported_shapes_are_rejected_with_reasons() {
        for (text, needle) in [
            ("MATCH (u:User) RETURN COUNT(*) AS n", "grouped"),
            ("MATCH (u:User) RETURN DISTINCT u.name AS n", "DISTINCT"),
            ("MATCH (u:User) RETURN u.name AS n ORDER BY n", "ORDER BY"),
            ("MATCH (u:User) RETURN u.name AS n LIMIT 1", "LIMIT"),
        ] {
            let planned = plan_query(&parse(text).unwrap()).unwrap();
            let reason = support(&planned.plan).unwrap_err();
            assert!(reason.contains(needle), "{text}: {reason}");
        }
    }

    #[test]
    fn delta_codec_roundtrip_and_hostile_input() {
        let d = Delta {
            ops: vec![
                DeltaOp::Insert {
                    at: 0,
                    row: vec![Value::Int(1), Value::Str("x".into())],
                },
                DeltaOp::Update {
                    at: 3,
                    row: vec![Value::Float(2.5)],
                },
                DeltaOp::Remove { at: 1 },
            ],
        };
        let mut w = ByteWriter::new();
        d.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(Delta::decode(&mut r).unwrap(), d);
        // hostile: huge declared count must be rejected, not allocated
        let mut w = ByteWriter::new();
        w.len_of(usize::MAX >> 1);
        let hostile = w.into_bytes();
        let mut r = ByteReader::new(&hostile);
        assert!(Delta::decode(&mut r).is_err());
    }

    #[test]
    fn delta_codec_roundtrips_a_position_far_past_the_frame_length() {
        for op in [
            DeltaOp::Insert {
                at: 10_000,
                row: vec![Value::Int(7)],
            },
            DeltaOp::Update {
                at: 10_000,
                row: vec![Value::Int(7)],
            },
            DeltaOp::Remove { at: 10_000 },
        ] {
            let d = Delta { ops: vec![op] };
            let mut w = ByteWriter::new();
            d.encode(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(Delta::decode(&mut ByteReader::new(&bytes)).unwrap(), d);
        }
    }

    use hygraph_types::Value;

    #[test]
    fn diff_rows_prefix_suffix() {
        let r = |i: i64| vec![Value::Int(i)];
        let old = vec![r(1), r(2), r(3), r(4)];
        let new = vec![r(1), r(9), r(8), r(3), r(4)];
        let d = diff_rows(&old, &new);
        let mut res = QueryResult {
            columns: vec!["x".into()],
            rows: old,
        };
        apply_delta(&mut res, &d).unwrap();
        assert_eq!(res.rows, new);
        assert!(diff_rows(&res.rows, &res.rows).is_empty());
    }
}
