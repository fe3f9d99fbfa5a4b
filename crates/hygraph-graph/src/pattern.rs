//! Subgraph pattern matching (Table 2, row Q1 — graph side; the
//! machinery behind the paper's Listing 1 fraud query).
//!
//! A [`Pattern`] is a small graph of variables with label and property
//! constraints. Matching follows Cypher semantics: *edge-isomorphic*
//! (each graph edge binds at most one pattern edge per match) with vertex
//! repetition allowed unless [`Pattern::distinct_vertices`] is set.
//! Matching is backtracking search seeded from the most selective
//! pattern vertex, extending along pattern edges through adjacency lists.

use crate::graph::{EdgeData, TemporalGraph, VertexData};
use hygraph_types::{EdgeId, Label, Timestamp, Value, VertexId};
use std::collections::{BTreeMap, HashMap};

/// Comparison operator for property predicates — one type with the
/// query engine's residual comparisons, evaluated by [`Value::compare`].
pub use hygraph_types::CmpOp;

/// A static-property predicate `element.key op value`.
#[derive(Clone, Debug, PartialEq)]
pub struct PropPredicate {
    /// Property key to read.
    pub key: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub value: Value,
}

impl PropPredicate {
    /// Builds a predicate.
    pub fn new(key: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Self {
        Self {
            key: key.into(),
            op,
            value: value.into(),
        }
    }

    fn holds(&self, props: &hygraph_types::PropertyMap) -> bool {
        props
            .static_value(&self.key)
            .is_some_and(|v| v.compare(self.op, &self.value) == Some(true))
    }
}

/// Direction constraint of a pattern edge relative to its `from` vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// `(from)-[]->(to)`
    Out,
    /// `(from)<-[]-(to)`
    In,
    /// `(from)-[]-(to)`
    Any,
}

/// A pattern vertex: a variable with optional label and property
/// constraints.
#[derive(Clone, Debug)]
pub struct PatternVertex {
    /// Variable name the match binds.
    pub var: String,
    /// Required labels (all must be present).
    pub labels: Vec<Label>,
    /// Static property predicates.
    pub preds: Vec<PropPredicate>,
    /// Predicates pushed down from a query-level filter. Enforced during
    /// matching exactly like `preds`, but excluded from the selectivity
    /// estimate, so pushing a predicate never changes the enumeration
    /// order — the surviving bindings are an order-preserving subsequence
    /// of the un-pushed pattern's bindings.
    pub pushed: Vec<PropPredicate>,
}

/// A pattern edge between two pattern vertices (referenced by index).
#[derive(Clone, Debug)]
pub struct PatternEdge {
    /// Optional variable name binding the matched edge.
    pub var: Option<String>,
    /// Index of the source pattern vertex.
    pub from: usize,
    /// Index of the target pattern vertex.
    pub to: usize,
    /// Required labels (all must be present).
    pub labels: Vec<Label>,
    /// Static property predicates.
    pub preds: Vec<PropPredicate>,
    /// Pushed-down filter predicates (see [`PatternVertex::pushed`]).
    pub pushed: Vec<PropPredicate>,
    /// Direction constraint.
    pub direction: Direction,
}

/// Canonical key of one match emission: a pure function of the
/// assignment (vertex/edge choices plus, for each edge slot, which
/// adjacency-list occurrence produced it).
///
/// Layout: for each depth of the pattern's canonical [`plan
/// order`](Pattern::find), the bound vertex id, followed by one
/// occurrence word `(side << 63) | edge_id` per pattern-edge slot whose
/// later endpoint is that depth (slots in ascending index order; side 0
/// = found in the `from` vertex's out-adjacency, side 1 = in-adjacency).
/// Because all candidate orders inside [`Pattern::find`] are ascending
/// (append-only adjacency lists, sorted anchored candidates, insertion
/// -ordered label index), iterating matches in ascending key order
/// reproduces `find`'s emission order. A self-loop graph edge sits in
/// both adjacency lists but binds a slot once, found on side 0.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MatchKey(pub Vec<u64>);

/// One match: variable → element bindings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Binding {
    /// Vertex variable bindings.
    pub vertices: HashMap<String, VertexId>,
    /// Edge variable bindings.
    pub edges: HashMap<String, EdgeId>,
}

/// A declarative subgraph pattern.
#[derive(Clone, Debug, Default)]
pub struct Pattern {
    vertices: Vec<PatternVertex>,
    edges: Vec<PatternEdge>,
    valid_at: Option<Timestamp>,
    distinct_vertices: bool,
}

impl Pattern {
    /// An empty pattern.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a pattern vertex; returns its index for edge construction.
    pub fn vertex(
        &mut self,
        var: impl Into<String>,
        labels: impl IntoIterator<Item = impl Into<Label>>,
    ) -> usize {
        self.vertices.push(PatternVertex {
            var: var.into(),
            labels: labels.into_iter().map(Into::into).collect(),
            preds: Vec::new(),
            pushed: Vec::new(),
        });
        self.vertices.len() - 1
    }

    /// Adds `labels` to the ones pattern vertex `idx` requires (a vertex
    /// must carry all of them).
    pub fn vertex_labels(
        &mut self,
        idx: usize,
        labels: impl IntoIterator<Item = impl Into<Label>>,
    ) -> &mut Self {
        let have = &mut self.vertices[idx].labels;
        for l in labels.into_iter().map(Into::into) {
            if !have.contains(&l) {
                have.push(l);
            }
        }
        self
    }

    /// Adds a property predicate to pattern vertex `idx`.
    pub fn vertex_pred(&mut self, idx: usize, pred: PropPredicate) -> &mut Self {
        self.vertices[idx].preds.push(pred);
        self
    }

    /// Adds a *pushed-down* predicate to pattern vertex `idx`: enforced
    /// during matching but invisible to the planner's selectivity
    /// ordering, so the result is an order-preserving pruned subsequence
    /// of the matches without the predicate.
    pub fn vertex_pushed_pred(&mut self, idx: usize, pred: PropPredicate) -> &mut Self {
        self.vertices[idx].pushed.push(pred);
        self
    }

    /// Adds a pattern edge; returns its index.
    pub fn edge(
        &mut self,
        var: Option<&str>,
        from: usize,
        to: usize,
        labels: impl IntoIterator<Item = impl Into<Label>>,
        direction: Direction,
    ) -> usize {
        assert!(from < self.vertices.len() && to < self.vertices.len());
        self.edges.push(PatternEdge {
            var: var.map(str::to_owned),
            from,
            to,
            labels: labels.into_iter().map(Into::into).collect(),
            preds: Vec::new(),
            pushed: Vec::new(),
            direction,
        });
        self.edges.len() - 1
    }

    /// Adds a property predicate to pattern edge `idx`.
    pub fn edge_pred(&mut self, idx: usize, pred: PropPredicate) -> &mut Self {
        self.edges[idx].preds.push(pred);
        self
    }

    /// Adds a *pushed-down* predicate to pattern edge `idx` (see
    /// [`Self::vertex_pushed_pred`]).
    pub fn edge_pushed_pred(&mut self, idx: usize, pred: PropPredicate) -> &mut Self {
        self.edges[idx].pushed.push(pred);
        self
    }

    /// Restricts matches to elements valid at `t` (ρ-aware matching).
    pub fn valid_at(&mut self, t: Timestamp) -> &mut Self {
        self.valid_at = Some(t);
        self
    }

    /// Requires all vertex variables to bind distinct vertices
    /// (isomorphic matching).
    pub fn distinct_vertices(&mut self, on: bool) -> &mut Self {
        self.distinct_vertices = on;
        self
    }

    fn vertex_ok(&self, pv: &PatternVertex, v: &VertexData) -> bool {
        if let Some(t) = self.valid_at {
            if !v.validity.contains(t) {
                return false;
            }
        }
        pv.labels.iter().all(|l| v.has_label(l.as_str()))
            && pv.preds.iter().all(|p| p.holds(&v.props))
            && pv.pushed.iter().all(|p| p.holds(&v.props))
    }

    fn edge_ok(&self, pe: &PatternEdge, e: &EdgeData) -> bool {
        if let Some(t) = self.valid_at {
            if !e.validity.contains(t) {
                return false;
            }
        }
        pe.labels.iter().all(|l| e.has_label(l.as_str()))
            && pe.preds.iter().all(|p| p.holds(&e.props))
            && pe.pushed.iter().all(|p| p.holds(&e.props))
    }

    /// Finds all matches of the pattern in `g`, visiting each via
    /// `on_match`. Return `false` from the callback to stop early.
    pub fn find(&self, g: &TemporalGraph, mut on_match: impl FnMut(&Binding) -> bool) {
        if self.vertices.is_empty() {
            return;
        }
        // Order vertices: seed with the most label/pred-constrained one,
        // then repeatedly add the vertex most connected to the chosen set.
        let order = self.plan_order();
        let mut vbind: Vec<Option<VertexId>> = vec![None; self.vertices.len()];
        let mut ebind: Vec<Option<EdgeId>> = vec![None; self.edges.len()];
        self.backtrack(g, &order, 0, &mut vbind, &mut ebind, &mut on_match);
    }

    /// Collects all matches (convenience over [`Self::find`]).
    pub fn find_all(&self, g: &TemporalGraph) -> Vec<Binding> {
        let mut out = Vec::new();
        self.find(g, |b| {
            out.push(b.clone());
            true
        });
        out
    }

    fn selectivity(&self, idx: usize) -> usize {
        self.vertices[idx].labels.len() * 2 + self.vertices[idx].preds.len() * 3
    }

    fn plan_order(&self) -> Vec<usize> {
        let n = self.vertices.len();
        let mut order = Vec::with_capacity(n);
        let mut chosen = vec![false; n];
        // seed: most selective vertex
        let seed = (0..n)
            .max_by_key(|&i| self.selectivity(i))
            .expect("non-empty");
        order.push(seed);
        chosen[seed] = true;
        while order.len() < n {
            // prefer connected-to-chosen vertices, tie-break on selectivity
            let next = (0..n)
                .filter(|&i| !chosen[i])
                .max_by_key(|&i| {
                    let connected = self
                        .edges
                        .iter()
                        .any(|e| (e.from == i && chosen[e.to]) || (e.to == i && chosen[e.from]));
                    (connected as usize, self.selectivity(i))
                })
                .expect("remaining vertex exists");
            order.push(next);
            chosen[next] = true;
        }
        order
    }

    #[allow(clippy::too_many_arguments)]
    fn backtrack(
        &self,
        g: &TemporalGraph,
        order: &[usize],
        depth: usize,
        vbind: &mut Vec<Option<VertexId>>,
        ebind: &mut Vec<Option<EdgeId>>,
        on_match: &mut impl FnMut(&Binding) -> bool,
    ) -> bool {
        if depth == order.len() {
            // all vertices bound; all edges were bound along the way
            let binding = self.to_binding(vbind, ebind);
            return on_match(&binding);
        }
        let pv_idx = order[depth];
        let pv = &self.vertices[pv_idx];

        // candidate vertices: through an already-bound neighbour when
        // possible, else full scan
        let anchor = self.edges.iter().enumerate().find(|(ei, e)| {
            ebind[*ei].is_none()
                && ((e.from == pv_idx && vbind[e.to].is_some())
                    || (e.to == pv_idx && vbind[e.from].is_some()))
        });

        let candidates: Vec<VertexId> = match anchor {
            Some((_, e)) => {
                let (bound_idx, from_side) = if e.from == pv_idx {
                    (e.to, false)
                } else {
                    (e.from, true)
                };
                let bound_v = vbind[bound_idx].expect("anchor bound");
                // direction as seen from the bound vertex
                let dir = match (e.direction, from_side) {
                    (Direction::Any, _) => Direction::Any,
                    (Direction::Out, true) => Direction::Out, // bound is `from`
                    (Direction::Out, false) => Direction::In, // bound is `to`
                    (Direction::In, true) => Direction::In,
                    (Direction::In, false) => Direction::Out,
                };
                let mut cs: Vec<VertexId> = match dir {
                    Direction::Out => g.neighbors_out(bound_v).map(|(_, v)| v).collect(),
                    Direction::In => g.neighbors_in(bound_v).map(|(_, v)| v).collect(),
                    Direction::Any => g.neighbors(bound_v).map(|(_, v)| v).collect(),
                };
                cs.sort_unstable();
                cs.dedup();
                cs
            }
            // unanchored: seed from the label index when the pattern
            // vertex is labelled, else the full vertex scan
            None => match pv.labels.first() {
                Some(l) => g.vertex_ids_with_label(l.as_str()),
                None => g.vertex_ids().collect(),
            },
        };

        for cand in candidates {
            let Ok(vdata) = g.vertex(cand) else { continue };
            if !self.vertex_ok(pv, vdata) {
                continue;
            }
            if self.distinct_vertices && vbind.iter().flatten().any(|&b| b == cand) {
                continue;
            }
            vbind[pv_idx] = Some(cand);
            // bind every pattern edge whose endpoints are now both bound
            if self.bind_edges(g, vbind, ebind, pv_idx, |vb, eb| {
                self.backtrack(g, order, depth + 1, vb, eb, on_match)
            }) {
                vbind[pv_idx] = None;
            } else {
                vbind[pv_idx] = None;
                return false; // stop requested
            }
        }
        true
    }

    /// Binds all unbound pattern edges with both endpoints bound,
    /// enumerating graph-edge choices; calls `cont` for each complete
    /// assignment. Returns `false` if `cont` requested stop.
    fn bind_edges(
        &self,
        g: &TemporalGraph,
        vbind: &mut Vec<Option<VertexId>>,
        ebind: &mut Vec<Option<EdgeId>>,
        _just_bound: usize,
        mut cont: impl FnMut(&mut Vec<Option<VertexId>>, &mut Vec<Option<EdgeId>>) -> bool,
    ) -> bool {
        let pending: Vec<usize> = (0..self.edges.len())
            .filter(|&ei| {
                ebind[ei].is_none()
                    && vbind[self.edges[ei].from].is_some()
                    && vbind[self.edges[ei].to].is_some()
            })
            .collect();
        self.bind_edges_rec(g, &pending, 0, vbind, ebind, &mut cont)
    }

    fn bind_edges_rec(
        &self,
        g: &TemporalGraph,
        pending: &[usize],
        k: usize,
        vbind: &mut Vec<Option<VertexId>>,
        ebind: &mut Vec<Option<EdgeId>>,
        cont: &mut impl FnMut(&mut Vec<Option<VertexId>>, &mut Vec<Option<EdgeId>>) -> bool,
    ) -> bool {
        if k == pending.len() {
            return cont(vbind, ebind);
        }
        let ei = pending[k];
        let pe = &self.edges[ei];
        let from_v = vbind[pe.from].expect("bound");
        let to_v = vbind[pe.to].expect("bound");

        // enumerate graph edges between from_v and to_v honouring
        // direction, each once: a self-loop sits in both adjacency
        // lists, so the in-list skips it
        let candidates: Vec<EdgeId> = g
            .out_edges(from_v)
            .chain(g.in_edges(from_v).filter(|e| e.src != e.dst))
            .filter(|e| {
                let fwd = e.src == from_v && e.dst == to_v;
                let bwd = e.src == to_v && e.dst == from_v;
                match pe.direction {
                    Direction::Out => fwd,
                    Direction::In => bwd,
                    Direction::Any => fwd || bwd,
                }
            })
            .filter(|e| self.edge_ok(pe, e))
            .map(|e| e.id)
            .collect();

        for ce in candidates {
            // Cypher semantics: edges are used at most once per match
            if ebind.iter().flatten().any(|&b| b == ce) {
                continue;
            }
            ebind[ei] = Some(ce);
            let keep_going = self.bind_edges_rec(g, pending, k + 1, vbind, ebind, cont);
            ebind[ei] = None;
            if !keep_going {
                return false;
            }
        }
        true
    }

    // ---- keyed matching (incremental-maintenance support) -------------

    /// All matches, keyed by [`MatchKey`]: iterating the returned map in
    /// key order visits exactly the bindings [`Self::find`] emits, in
    /// the same order.
    pub fn find_keyed(&self, g: &TemporalGraph) -> BTreeMap<MatchKey, Binding> {
        let mut out = BTreeMap::new();
        self.collect_keyed(
            g,
            &vec![None; self.vertices.len()],
            &vec![None; self.edges.len()],
            &mut out,
        );
        out
    }

    /// Collects (into `out`) every match whose assignment binds vertex
    /// `v` at one or more pattern-vertex positions. Search cost radiates
    /// from `v` rather than scanning the graph; results already present
    /// in `out` are kept as-is (keys are unique per assignment).
    pub fn find_keyed_with_vertex(
        &self,
        g: &TemporalGraph,
        v: VertexId,
        out: &mut BTreeMap<MatchKey, Binding>,
    ) {
        let epin = vec![None; self.edges.len()];
        for i in 0..self.vertices.len() {
            let mut vpin = vec![None; self.vertices.len()];
            vpin[i] = Some(v);
            self.collect_keyed(g, &vpin, &epin, out);
        }
    }

    /// Collects (into `out`) every match whose assignment binds graph
    /// edge `id` at one or more pattern-edge slots (both orientations
    /// for [`Direction::Any`] slots).
    pub fn find_keyed_with_edge(
        &self,
        g: &TemporalGraph,
        id: EdgeId,
        out: &mut BTreeMap<MatchKey, Binding>,
    ) {
        let Ok(e) = g.edge(id) else { return };
        for (ei, pe) in self.edges.iter().enumerate() {
            // candidate (from, to) vertex assignments for this slot
            let mut orients: Vec<(VertexId, VertexId)> = Vec::new();
            match pe.direction {
                Direction::Out => orients.push((e.src, e.dst)),
                Direction::In => orients.push((e.dst, e.src)),
                Direction::Any => {
                    orients.push((e.src, e.dst));
                    if e.src != e.dst {
                        orients.push((e.dst, e.src));
                    }
                }
            }
            for (fv, tv) in orients {
                if pe.from == pe.to && fv != tv {
                    continue; // pattern self-loop slot needs a graph self-loop
                }
                let mut vpin = vec![None; self.vertices.len()];
                vpin[pe.from] = Some(fv);
                vpin[pe.to] = Some(tv);
                let mut epin = vec![None; self.edges.len()];
                epin[ei] = Some(id);
                self.collect_keyed(g, &vpin, &epin, out);
            }
        }
    }

    /// Shared engine behind the keyed entry points: enumerates all
    /// assignments honouring the pins, computes each one's canonical
    /// key(s) post-hoc and inserts into `out` (insert-if-absent, so
    /// overlapping pinned searches dedupe naturally).
    fn collect_keyed(
        &self,
        g: &TemporalGraph,
        vpin: &[Option<VertexId>],
        epin: &[Option<EdgeId>],
        out: &mut BTreeMap<MatchKey, Binding>,
    ) {
        if self.vertices.is_empty() {
            return;
        }
        let canon_order = self.plan_order();
        let canon_slots = self.canonical_slots(&canon_order);
        let pinned: Vec<bool> = vpin.iter().map(Option::is_some).collect();
        let order = self.plan_order_pinned(&pinned);
        let mut vbind: Vec<Option<VertexId>> = vec![None; self.vertices.len()];
        let mut ebind: Vec<Option<EdgeId>> = vec![None; self.edges.len()];
        self.enumerate_pinned(
            g,
            &order,
            0,
            vpin,
            epin,
            &mut vbind,
            &mut ebind,
            &mut |vb, eb| {
                let key = self.canonical_key(g, &canon_order, &canon_slots, vb, eb);
                out.entry(key).or_insert_with(|| self.to_binding(vb, eb));
            },
        );
    }

    /// Per-depth pattern-edge slots of the canonical order: slot `ei`
    /// belongs to the depth at which its later endpoint is bound —
    /// exactly when [`Self::bind_edges`] picks it up during `find`.
    fn canonical_slots(&self, order: &[usize]) -> Vec<Vec<usize>> {
        let mut pos = vec![0usize; self.vertices.len()];
        for (d, &vi) in order.iter().enumerate() {
            pos[vi] = d;
        }
        let mut slots = vec![Vec::new(); order.len()];
        for (ei, pe) in self.edges.iter().enumerate() {
            slots[pos[pe.from].max(pos[pe.to])].push(ei);
        }
        slots
    }

    /// Computes the canonical key of a complete assignment.
    fn canonical_key(
        &self,
        g: &TemporalGraph,
        order: &[usize],
        slots: &[Vec<usize>],
        vbind: &[Option<VertexId>],
        ebind: &[Option<EdgeId>],
    ) -> MatchKey {
        let mut key = Vec::with_capacity(order.len() + self.edges.len());
        for (d, &vi) in order.iter().enumerate() {
            key.push(vbind[vi].expect("complete assignment").index() as u64);
            for &ei in &slots[d] {
                let id = ebind[ei].expect("complete assignment");
                let Ok(e) = g.edge(id) else { continue };
                let from_v = vbind[self.edges[ei].from].expect("bound");
                // a self-loop is found in the out-list, like any edge
                // leaving `from_v`
                let side = u64::from(e.src != from_v) << 63;
                key.push(side | id.index() as u64);
            }
        }
        MatchKey(key)
    }

    /// [`Self::plan_order`] variant that starts from the pinned
    /// positions so search cost radiates outward from the seed element.
    fn plan_order_pinned(&self, pinned: &[bool]) -> Vec<usize> {
        let n = self.vertices.len();
        if !pinned.iter().any(|&p| p) {
            return self.plan_order();
        }
        let mut order: Vec<usize> = (0..n).filter(|&i| pinned[i]).collect();
        let mut chosen = vec![false; n];
        for &i in &order {
            chosen[i] = true;
        }
        while order.len() < n {
            let next = (0..n)
                .filter(|&i| !chosen[i])
                .max_by_key(|&i| {
                    let connected = self
                        .edges
                        .iter()
                        .any(|e| (e.from == i && chosen[e.to]) || (e.to == i && chosen[e.from]));
                    (connected as usize, self.selectivity(i))
                })
                .expect("remaining vertex exists");
            order.push(next);
            chosen[next] = true;
        }
        order
    }

    /// Pin-aware re-implementation of [`Self::backtrack`]: same
    /// candidate and constraint semantics, but pinned positions/slots
    /// restrict to the pinned element, and emission order is free (keys
    /// are computed post-hoc, so only the match *set* matters here).
    #[allow(clippy::too_many_arguments)]
    fn enumerate_pinned(
        &self,
        g: &TemporalGraph,
        order: &[usize],
        depth: usize,
        vpin: &[Option<VertexId>],
        epin: &[Option<EdgeId>],
        vbind: &mut Vec<Option<VertexId>>,
        ebind: &mut Vec<Option<EdgeId>>,
        emit: &mut impl FnMut(&[Option<VertexId>], &[Option<EdgeId>]),
    ) {
        if depth == order.len() {
            emit(vbind, ebind);
            return;
        }
        let pv_idx = order[depth];
        let pv = &self.vertices[pv_idx];

        let candidates: Vec<VertexId> = if let Some(pin) = vpin[pv_idx] {
            vec![pin]
        } else {
            let anchor = self.edges.iter().enumerate().find(|(ei, e)| {
                ebind[*ei].is_none()
                    && ((e.from == pv_idx && vbind[e.to].is_some())
                        || (e.to == pv_idx && vbind[e.from].is_some()))
            });
            match anchor {
                Some((_, e)) => {
                    let (bound_idx, from_side) = if e.from == pv_idx {
                        (e.to, false)
                    } else {
                        (e.from, true)
                    };
                    let bound_v = vbind[bound_idx].expect("anchor bound");
                    let dir = match (e.direction, from_side) {
                        (Direction::Any, _) => Direction::Any,
                        (Direction::Out, true) => Direction::Out,
                        (Direction::Out, false) => Direction::In,
                        (Direction::In, true) => Direction::In,
                        (Direction::In, false) => Direction::Out,
                    };
                    let mut cs: Vec<VertexId> = match dir {
                        Direction::Out => g.neighbors_out(bound_v).map(|(_, v)| v).collect(),
                        Direction::In => g.neighbors_in(bound_v).map(|(_, v)| v).collect(),
                        Direction::Any => g.neighbors(bound_v).map(|(_, v)| v).collect(),
                    };
                    cs.sort_unstable();
                    cs.dedup();
                    cs
                }
                None => match pv.labels.first() {
                    Some(l) => g.vertex_ids_with_label(l.as_str()),
                    None => g.vertex_ids().collect(),
                },
            }
        };

        for cand in candidates {
            let Ok(vdata) = g.vertex(cand) else { continue };
            if !self.vertex_ok(pv, vdata) {
                continue;
            }
            if self.distinct_vertices && vbind.iter().flatten().any(|&b| b == cand) {
                continue;
            }
            vbind[pv_idx] = Some(cand);
            let pending: Vec<usize> = (0..self.edges.len())
                .filter(|&ei| {
                    ebind[ei].is_none()
                        && vbind[self.edges[ei].from].is_some()
                        && vbind[self.edges[ei].to].is_some()
                })
                .collect();
            self.bind_pinned(g, order, depth, &pending, 0, vpin, epin, vbind, ebind, emit);
            vbind[pv_idx] = None;
        }
    }

    /// Pin-aware twin of [`Self::bind_edges_rec`]. Candidates are
    /// deduped (a self-loop shows up in both adjacency lists), so each
    /// graph edge binds once, as in [`Self::find`].
    #[allow(clippy::too_many_arguments)]
    fn bind_pinned(
        &self,
        g: &TemporalGraph,
        order: &[usize],
        depth: usize,
        pending: &[usize],
        k: usize,
        vpin: &[Option<VertexId>],
        epin: &[Option<EdgeId>],
        vbind: &mut Vec<Option<VertexId>>,
        ebind: &mut Vec<Option<EdgeId>>,
        emit: &mut impl FnMut(&[Option<VertexId>], &[Option<EdgeId>]),
    ) {
        if k == pending.len() {
            self.enumerate_pinned(g, order, depth + 1, vpin, epin, vbind, ebind, emit);
            return;
        }
        let ei = pending[k];
        let pe = &self.edges[ei];
        let from_v = vbind[pe.from].expect("bound");
        let to_v = vbind[pe.to].expect("bound");

        let mut candidates: Vec<EdgeId> = match epin[ei] {
            Some(pin) => vec![pin],
            None => g.incident_edges(from_v).map(|e| e.id).collect(),
        };
        candidates.sort_unstable();
        candidates.dedup();

        for ce in candidates {
            let Ok(e) = g.edge(ce) else { continue };
            let fwd = e.src == from_v && e.dst == to_v;
            let bwd = e.src == to_v && e.dst == from_v;
            let dir_ok = match pe.direction {
                Direction::Out => fwd,
                Direction::In => bwd,
                Direction::Any => fwd || bwd,
            };
            if !dir_ok || !self.edge_ok(pe, e) {
                continue;
            }
            if ebind.iter().flatten().any(|&b| b == ce) {
                continue;
            }
            ebind[ei] = Some(ce);
            self.bind_pinned(
                g,
                order,
                depth,
                pending,
                k + 1,
                vpin,
                epin,
                vbind,
                ebind,
                emit,
            );
            ebind[ei] = None;
        }
    }

    fn to_binding(&self, vbind: &[Option<VertexId>], ebind: &[Option<EdgeId>]) -> Binding {
        let mut b = Binding::default();
        for (pv, bound) in self.vertices.iter().zip(vbind) {
            if let Some(v) = bound {
                b.vertices.insert(pv.var.clone(), *v);
            }
        }
        for (pe, bound) in self.edges.iter().zip(ebind) {
            if let (Some(var), Some(e)) = (&pe.var, bound) {
                b.edges.insert(var.clone(), *e);
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_types::{props, Interval};

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    /// user1 -USES-> card1 -TX{amount}-> m1/m2 ; user2 -USES-> card2 -TX-> m1
    fn fraud_graph() -> (TemporalGraph, HashMap<&'static str, VertexId>) {
        let mut g = TemporalGraph::new();
        let u1 = g.add_vertex(["User"], props! {"name" => "user1"});
        let u2 = g.add_vertex(["User"], props! {"name" => "user2"});
        let c1 = g.add_vertex(["CreditCard"], props! {"num" => "c1"});
        let c2 = g.add_vertex(["CreditCard"], props! {"num" => "c2"});
        let m1 = g.add_vertex(["Merchant"], props! {"name" => "m1"});
        let m2 = g.add_vertex(["Merchant"], props! {"name" => "m2"});
        g.add_edge(u1, c1, ["USES"], props! {}).unwrap();
        g.add_edge(u2, c2, ["USES"], props! {}).unwrap();
        g.add_edge(c1, m1, ["TX"], props! {"amount" => 1500.0})
            .unwrap();
        g.add_edge(c1, m2, ["TX"], props! {"amount" => 2000.0})
            .unwrap();
        g.add_edge(c2, m1, ["TX"], props! {"amount" => 30.0})
            .unwrap();
        let mut ids = HashMap::new();
        ids.insert("u1", u1);
        ids.insert("u2", u2);
        ids.insert("c1", c1);
        ids.insert("c2", c2);
        ids.insert("m1", m1);
        ids.insert("m2", m2);
        (g, ids)
    }

    #[test]
    fn single_vertex_pattern() {
        let (g, _) = fraud_graph();
        let mut p = Pattern::new();
        p.vertex("u", ["User"]);
        assert_eq!(p.find_all(&g).len(), 2);
        let mut p = Pattern::new();
        p.vertex("x", ["Nothing"]);
        assert!(p.find_all(&g).is_empty());
    }

    #[test]
    fn listing1_style_high_amount_tx() {
        // MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX WHERE t.amount>1000]->(m:Merchant)
        let (g, ids) = fraud_graph();
        let mut p = Pattern::new();
        let u = p.vertex("u", ["User"]);
        let c = p.vertex("c", ["CreditCard"]);
        let m = p.vertex("m", ["Merchant"]);
        p.edge(None, u, c, ["USES"], Direction::Out);
        let tx = p.edge(Some("t"), c, m, ["TX"], Direction::Out);
        p.edge_pred(tx, PropPredicate::new("amount", CmpOp::Gt, 1000.0));
        let matches = p.find_all(&g);
        assert_eq!(
            matches.len(),
            2,
            "two high-amount transactions, both by user1"
        );
        for b in &matches {
            assert_eq!(b.vertices["u"], ids["u1"]);
            assert!(b.edges.contains_key("t"));
        }
    }

    #[test]
    fn vertex_predicate() {
        let (g, ids) = fraud_graph();
        let mut p = Pattern::new();
        let u = p.vertex("u", ["User"]);
        p.vertex_pred(u, PropPredicate::new("name", CmpOp::Eq, "user2"));
        let matches = p.find_all(&g);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].vertices["u"], ids["u2"]);
    }

    #[test]
    fn direction_constraints() {
        let (g, ids) = fraud_graph();
        // merchants reached FROM cards: (m)<-[:TX]-(c)
        let mut p = Pattern::new();
        let m = p.vertex("m", ["Merchant"]);
        let c = p.vertex("c", ["CreditCard"]);
        p.edge(None, m, c, ["TX"], Direction::In);
        let ms: Vec<VertexId> = p.find_all(&g).iter().map(|b| b.vertices["m"]).collect();
        assert_eq!(ms.len(), 3);
        assert!(ms.contains(&ids["m1"]) && ms.contains(&ids["m2"]));
        // wrong direction yields nothing
        let mut p = Pattern::new();
        let m = p.vertex("m", ["Merchant"]);
        let c = p.vertex("c", ["CreditCard"]);
        p.edge(None, m, c, ["TX"], Direction::Out);
        assert!(p.find_all(&g).is_empty());
        // Any matches regardless
        let mut p = Pattern::new();
        let m = p.vertex("m", ["Merchant"]);
        let c = p.vertex("c", ["CreditCard"]);
        p.edge(None, m, c, ["TX"], Direction::Any);
        assert_eq!(p.find_all(&g).len(), 3);
    }

    #[test]
    fn edge_uniqueness_cypher_semantics() {
        // pattern (a)-[e1]->(b), (a)-[e2]->(c): e1 != e2 enforced, so a card
        // with two TX edges yields exactly the 2 ordered pairs
        let (g, ids) = fraud_graph();
        let mut p = Pattern::new();
        let c = p.vertex("c", ["CreditCard"]);
        let m1 = p.vertex("m1", ["Merchant"]);
        let m2 = p.vertex("m2", ["Merchant"]);
        p.edge(Some("t1"), c, m1, ["TX"], Direction::Out);
        p.edge(Some("t2"), c, m2, ["TX"], Direction::Out);
        let matches = p.find_all(&g);
        // only card1 has two TX edges; ordered pairs (m1,m2) and (m2,m1)
        assert_eq!(matches.len(), 2);
        for b in &matches {
            assert_eq!(b.vertices["c"], ids["c1"]);
            assert_ne!(b.edges["t1"], b.edges["t2"]);
        }
    }

    #[test]
    fn distinct_vertices_flag() {
        let (g, _) = fraud_graph();
        // (a:Merchant), (b:Merchant) without edges: homomorphic gives 4
        let mut p = Pattern::new();
        p.vertex("a", ["Merchant"]);
        p.vertex("b", ["Merchant"]);
        assert_eq!(p.find_all(&g).len(), 4);
        p.distinct_vertices(true);
        assert_eq!(p.find_all(&g).len(), 2);
    }

    #[test]
    fn temporal_pattern_matching() {
        let mut g = TemporalGraph::new();
        let a = g.add_vertex_valid(["N"], props! {}, Interval::new(ts(0), ts(100)));
        let b = g.add_vertex(["N"], props! {});
        g.add_edge_valid(a, b, ["E"], props! {}, Interval::new(ts(0), ts(50)))
            .unwrap();
        let mut p = Pattern::new();
        let x = p.vertex("x", ["N"]);
        let y = p.vertex("y", ["N"]);
        p.edge(None, x, y, ["E"], Direction::Out);
        p.valid_at(ts(25));
        assert_eq!(p.find_all(&g).len(), 1);
        p.valid_at(ts(75));
        assert!(p.find_all(&g).is_empty(), "edge expired at t=50");
    }

    #[test]
    fn early_stop() {
        let (g, _) = fraud_graph();
        let mut p = Pattern::new();
        p.vertex("u", ["User"]);
        let mut count = 0;
        p.find(&g, |_| {
            count += 1;
            false // stop after first
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn multi_hop_path_pattern() {
        // (u:User)-[:USES]->(c)-[:TX]->(m:Merchant {name=m1})
        let (g, ids) = fraud_graph();
        let mut p = Pattern::new();
        let u = p.vertex("u", ["User"]);
        let c = p.vertex("c", ["CreditCard"]);
        let m = p.vertex("m", ["Merchant"]);
        p.vertex_pred(m, PropPredicate::new("name", CmpOp::Eq, "m1"));
        p.edge(None, u, c, ["USES"], Direction::Out);
        p.edge(None, c, m, ["TX"], Direction::Out);
        let matches = p.find_all(&g);
        let users: Vec<VertexId> = matches.iter().map(|b| b.vertices["u"]).collect();
        assert_eq!(users.len(), 2, "both users transact with m1");
        assert!(users.contains(&ids["u1"]) && users.contains(&ids["u2"]));
    }

    #[test]
    fn pushed_preds_prune_without_reordering() {
        let (g, _) = fraud_graph();
        let build = |pushed: bool| {
            let mut p = Pattern::new();
            let u = p.vertex("u", ["User"]);
            let c = p.vertex("c", ["CreditCard"]);
            let m = p.vertex("m", ["Merchant"]);
            p.edge(None, u, c, ["USES"], Direction::Out);
            let tx = p.edge(Some("t"), c, m, ["TX"], Direction::Out);
            if pushed {
                p.edge_pushed_pred(tx, PropPredicate::new("amount", CmpOp::Gt, 1000.0));
                p.vertex_pushed_pred(m, PropPredicate::new("name", CmpOp::Eq, "m1"));
            }
            p
        };
        let all = build(false).find_all(&g);
        let pruned = build(true).find_all(&g);
        assert_eq!(pruned.len(), 1, "only user1's 1500.0 TX to m1 survives");
        // the pruned result is a subsequence of the un-pushed bindings,
        // in the same relative order
        let mut cursor = 0;
        for b in &pruned {
            let pos = all[cursor..]
                .iter()
                .position(|a| a == b)
                .expect("pruned binding present in full enumeration");
            cursor += pos + 1;
        }
    }

    /// Keyed enumeration must replay `find`'s emission sequence exactly
    /// — same bindings, same order, same multiplicity — when iterated
    /// in ascending key order.
    fn assert_keyed_matches_find(p: &Pattern, g: &TemporalGraph) {
        let sequential = p.find_all(g);
        let keyed: Vec<Binding> = p.find_keyed(g).into_values().collect();
        assert_eq!(
            sequential, keyed,
            "keyed map in key order must equal find() emission order"
        );
    }

    #[test]
    fn keyed_equals_find_on_fraud_patterns() {
        let (g, _) = fraud_graph();
        // multi-hop with edge var + preds
        let mut p = Pattern::new();
        let u = p.vertex("u", ["User"]);
        let c = p.vertex("c", ["CreditCard"]);
        let m = p.vertex("m", ["Merchant"]);
        p.edge(None, u, c, ["USES"], Direction::Out);
        let tx = p.edge(Some("t"), c, m, ["TX"], Direction::Out);
        p.edge_pred(tx, PropPredicate::new("amount", CmpOp::Gt, 10.0));
        assert_keyed_matches_find(&p, &g);
        // Any direction
        let mut p = Pattern::new();
        let m = p.vertex("m", ["Merchant"]);
        let c = p.vertex("c", ["CreditCard"]);
        p.edge(Some("t"), m, c, ["TX"], Direction::Any);
        assert_keyed_matches_find(&p, &g);
        // unlabeled full-scan seed + two slots sharing a vertex
        let mut p = Pattern::new();
        let c = p.vertex("c", [] as [&str; 0]);
        let m1 = p.vertex("m1", ["Merchant"]);
        let m2 = p.vertex("m2", ["Merchant"]);
        p.edge(Some("t1"), c, m1, ["TX"], Direction::Out);
        p.edge(Some("t2"), c, m2, ["TX"], Direction::Out);
        assert_keyed_matches_find(&p, &g);
    }

    #[test]
    fn keyed_self_loops_and_parallel_edges() {
        let mut g = TemporalGraph::new();
        let a = g.add_vertex(["N"], props! {});
        let b = g.add_vertex(["N"], props! {});
        g.add_edge(a, a, ["E"], props! {}).unwrap(); // self-loop
        g.add_edge(a, b, ["E"], props! {}).unwrap();
        g.add_edge(a, b, ["E"], props! {}).unwrap(); // parallel
        g.add_edge(b, a, ["E"], props! {}).unwrap();
        for dir in [Direction::Out, Direction::In, Direction::Any] {
            let mut p = Pattern::new();
            let x = p.vertex("x", ["N"]);
            let y = p.vertex("y", ["N"]);
            p.edge(Some("e"), x, y, ["E"], dir);
            assert_keyed_matches_find(&p, &g);
        }
        // one graph edge binds a pattern edge once: the self-loop sits
        // in both adjacency lists but is one match
        let mut p = Pattern::new();
        let x = p.vertex("x", ["N"]);
        let y = p.vertex("y", ["N"]);
        p.edge(Some("e"), x, y, ["E"], Direction::Out);
        let loops = p
            .find_all(&g)
            .iter()
            .filter(|m| m.vertices["x"] == a && m.vertices["y"] == a)
            .count();
        assert_eq!(loops, 1, "a self-loop binds once");
    }

    /// Seeded (pinned) search over the new elements of a growth step
    /// must discover exactly the matches that appeared.
    #[test]
    fn seeded_search_covers_exactly_the_new_matches() {
        let build_pattern = |dir| {
            let mut p = Pattern::new();
            let u = p.vertex("u", ["User"]);
            let c = p.vertex("c", ["CreditCard"]);
            let m = p.vertex("m", [] as [&str; 0]);
            p.edge(Some("s"), u, c, ["USES"], Direction::Out);
            p.edge(Some("t"), c, m, ["TX"], dir);
            p
        };
        for dir in [Direction::Out, Direction::Any, Direction::In] {
            let p = build_pattern(dir);
            let (mut g, ids) = fraud_graph();
            let before = p.find_keyed(&g);
            // growth step: one new card wired to an existing user, one
            // new merchant, three new edges incl. one into existing m1
            let v0 = g.vertex_capacity();
            let e0 = g.edge_capacity();
            let c3 = g.add_vertex(["CreditCard"], props! {"num" => "c3"});
            let m3 = g.add_vertex(["Merchant"], props! {"name" => "m3"});
            g.add_edge(ids["u2"], c3, ["USES"], props! {}).unwrap();
            g.add_edge(c3, m3, ["TX"], props! {"amount" => 7.0})
                .unwrap();
            g.add_edge(c3, ids["m1"], ["TX"], props! {"amount" => 8.0})
                .unwrap();
            // reversed TX so the In/Any shapes also gain matches
            g.add_edge(m3, c3, ["TX"], props! {"amount" => 9.0})
                .unwrap();
            let after = p.find_keyed(&g);

            let mut grown = before.clone();
            for vi in v0..g.vertex_capacity() {
                p.find_keyed_with_vertex(&g, VertexId::from(vi), &mut grown);
            }
            for ei in e0..g.edge_capacity() {
                p.find_keyed_with_edge(&g, EdgeId::from(ei), &mut grown);
            }
            assert_eq!(
                grown, after,
                "old matches + seeded discoveries == full re-enumeration ({dir:?})"
            );
            // sanity: growth actually added matches, and none vanished
            assert!(after.len() > before.len());
            assert!(before.keys().all(|k| after.contains_key(k)));
        }
    }
}
