//! The temporal property graph store.
//!
//! Dense-id storage: vertices and edges live in `Vec`s indexed by their
//! ids, with per-vertex out/in adjacency lists. Every element carries a
//! label set (λ), a property map (φ) and a validity interval (ρ).
//! Structural deletion is modelled two ways, matching TPG practice:
//!
//! * [`TemporalGraph::close_vertex`] / [`TemporalGraph::close_edge`] end
//!   an element's validity at a given instant but keep its history — the
//!   normal temporal-graph update (R3: "structural updates without
//!   compromising integrity");
//! * [`TemporalGraph::remove_vertex`] / [`TemporalGraph::remove_edge`]
//!   tombstone the element entirely (physical delete).

use crate::store::{SnapAdj, SnapSlab};
use hygraph_types::pmap::PMap;
use hygraph_types::{
    EdgeId, HyGraphError, Interval, Label, PropertyMap, Result, Timestamp, VertexId,
};

/// Stored data of one vertex.
#[derive(Clone, Debug, PartialEq)]
pub struct VertexData {
    /// The vertex id (stable, dense).
    pub id: VertexId,
    /// Label set λ(v).
    pub labels: Vec<Label>,
    /// Property map φ(v, ·).
    pub props: PropertyMap,
    /// Validity interval ρ(v).
    pub validity: Interval,
}

impl VertexData {
    /// Whether the vertex carries `label`.
    pub fn has_label(&self, label: &str) -> bool {
        self.labels.iter().any(|l| l.as_str() == label)
    }
}

/// Stored data of one edge.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeData {
    /// The edge id (stable, dense).
    pub id: EdgeId,
    /// Source vertex.
    pub src: VertexId,
    /// Target vertex.
    pub dst: VertexId,
    /// Label set λ(e).
    pub labels: Vec<Label>,
    /// Property map φ(e, ·).
    pub props: PropertyMap,
    /// Validity interval ρ(e).
    pub validity: Interval,
}

impl EdgeData {
    /// Whether the edge carries `label`.
    pub fn has_label(&self, label: &str) -> bool {
        self.labels.iter().any(|l| l.as_str() == label)
    }

    /// The endpoint opposite to `v` (useful for undirected traversal).
    pub fn other(&self, v: VertexId) -> VertexId {
        if self.src == v {
            self.dst
        } else {
            self.src
        }
    }
}

/// A directed temporal property graph.
///
/// Interior collections are persistent tries: `clone` is O(1) and a
/// mutation path-copies O(log n) nodes, so snapshot publication in the
/// sharded engine costs O(batch) per commit even while readers pin old
/// epochs. Iteration is in ascending id order.
#[derive(Clone, Debug, Default)]
pub struct TemporalGraph {
    pub(crate) vertices: SnapSlab<VertexData>,
    pub(crate) edges: SnapSlab<EdgeData>,
    pub(crate) out_adj: SnapAdj,
    pub(crate) in_adj: SnapAdj,
    // label -> vertices carrying it (kept in insertion order; tombstoned
    // entries are pruned on removal). Accelerates label-seeded pattern
    // matching and HyQL candidate generation.
    pub(crate) vertex_label_index: PMap<Label, Vec<VertexId>>,
    pub(crate) live_vertices: usize,
    pub(crate) live_edges: usize,
}

impl TemporalGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- construction ------------------------------------------------

    /// Adds a vertex valid over all of time.
    pub fn add_vertex(
        &mut self,
        labels: impl IntoIterator<Item = impl Into<Label>>,
        props: PropertyMap,
    ) -> VertexId {
        self.add_vertex_valid(labels, props, Interval::ALL)
    }

    /// Adds a vertex with an explicit validity interval.
    pub fn add_vertex_valid(
        &mut self,
        labels: impl IntoIterator<Item = impl Into<Label>>,
        props: PropertyMap,
        validity: Interval,
    ) -> VertexId {
        let id = VertexId::from(self.vertices.slots());
        let labels: Vec<Label> = labels.into_iter().map(Into::into).collect();
        for l in &labels {
            if !self.vertex_label_index.contains_key(l) {
                self.vertex_label_index.insert(l.clone(), Vec::new());
            }
            self.vertex_label_index
                .get_mut(l)
                .expect("ensured above")
                .push(id);
        }
        self.vertices.push_slot(Some(VertexData {
            id,
            labels,
            props,
            validity,
        }));
        self.live_vertices += 1;
        id
    }

    /// Adds an edge valid over all of time.
    pub fn add_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        labels: impl IntoIterator<Item = impl Into<Label>>,
        props: PropertyMap,
    ) -> Result<EdgeId> {
        self.add_edge_valid(src, dst, labels, props, Interval::ALL)
    }

    /// Adds an edge with an explicit validity interval. Both endpoints
    /// must exist (temporal integrity is checked lazily by
    /// [`Self::validate`], since endpoints may legitimately be created
    /// with broader validity later in a bulk load).
    pub fn add_edge_valid(
        &mut self,
        src: VertexId,
        dst: VertexId,
        labels: impl IntoIterator<Item = impl Into<Label>>,
        props: PropertyMap,
        validity: Interval,
    ) -> Result<EdgeId> {
        self.vertex(src)?;
        self.vertex(dst)?;
        let id = EdgeId::from(self.edges.slots());
        self.edges.push_slot(Some(EdgeData {
            id,
            src,
            dst,
            labels: labels.into_iter().map(Into::into).collect(),
            props,
            validity,
        }));
        self.out_adj.add(src.index(), id);
        self.in_adj.add(dst.index(), id);
        self.live_edges += 1;
        Ok(id)
    }

    // ---- lookup -------------------------------------------------------

    /// The data of vertex `v`.
    pub fn vertex(&self, v: VertexId) -> Result<&VertexData> {
        self.vertices
            .get(v.index())
            .ok_or(HyGraphError::VertexNotFound(v))
    }

    /// Mutable access to vertex `v`.
    pub fn vertex_mut(&mut self, v: VertexId) -> Result<&mut VertexData> {
        self.vertices
            .get_mut(v.index())
            .ok_or(HyGraphError::VertexNotFound(v))
    }

    /// The data of edge `e`.
    pub fn edge(&self, e: EdgeId) -> Result<&EdgeData> {
        self.edges
            .get(e.index())
            .ok_or(HyGraphError::EdgeNotFound(e))
    }

    /// Mutable access to edge `e`.
    pub fn edge_mut(&mut self, e: EdgeId) -> Result<&mut EdgeData> {
        self.edges
            .get_mut(e.index())
            .ok_or(HyGraphError::EdgeNotFound(e))
    }

    /// Whether vertex `v` exists (not tombstoned).
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        self.vertices.get(v.index()).is_some()
    }

    /// Number of live vertices.
    pub fn vertex_count(&self) -> usize {
        self.live_vertices
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Upper bound over all vertex indices ever allocated (for dense
    /// per-vertex arrays in algorithms).
    pub fn vertex_capacity(&self) -> usize {
        self.vertices.slots()
    }

    /// Upper bound over all edge indices ever allocated (mirror of
    /// [`Self::vertex_capacity`]; lets change observers diff id ranges
    /// across a mutation batch).
    pub fn edge_capacity(&self) -> usize {
        self.edges.slots()
    }

    // ---- iteration ----------------------------------------------------

    /// Iterates all live vertices (ascending id order).
    pub fn vertices(&self) -> impl Iterator<Item = &VertexData> {
        self.vertices.iter_live()
    }

    /// Iterates all live edges (ascending id order).
    pub fn edges(&self) -> impl Iterator<Item = &EdgeData> {
        self.edges.iter_live()
    }

    /// Iterates ids of all live vertices.
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertices().map(|v| v.id)
    }

    /// Iterates ids of all live edges.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges().map(|e| e.id)
    }

    /// Live vertices carrying `label`, served from the label index in
    /// O(matches) rather than a full vertex scan.
    pub fn vertices_with_label<'a>(
        &'a self,
        label: &'a str,
    ) -> impl Iterator<Item = &'a VertexData> + 'a {
        self.vertex_label_index
            .get(&Label::new(label))
            .into_iter()
            .flatten()
            .filter_map(|&v| self.vertices.get(v.index()))
    }

    /// Ids of live vertices carrying `label` (index-backed).
    pub fn vertex_ids_with_label(&self, label: &str) -> Vec<VertexId> {
        self.vertices_with_label(label).map(|v| v.id).collect()
    }

    /// Outgoing edges of `v`.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = &EdgeData> {
        self.out_adj
            .edge_ids(v.index())
            .filter_map(|e| self.edges.get(e.index()))
    }

    /// Incoming edges of `v`.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = &EdgeData> {
        self.in_adj
            .edge_ids(v.index())
            .filter_map(|e| self.edges.get(e.index()))
    }

    /// All incident edges of `v` (out then in; self-loops appear twice).
    pub fn incident_edges(&self, v: VertexId) -> impl Iterator<Item = &EdgeData> {
        self.out_edges(v).chain(self.in_edges(v))
    }

    /// Out-neighbours of `v` as `(edge, neighbour)` pairs.
    pub fn neighbors_out(&self, v: VertexId) -> impl Iterator<Item = (&EdgeData, VertexId)> {
        self.out_edges(v).map(|e| (e, e.dst))
    }

    /// In-neighbours of `v` as `(edge, neighbour)` pairs.
    pub fn neighbors_in(&self, v: VertexId) -> impl Iterator<Item = (&EdgeData, VertexId)> {
        self.in_edges(v).map(|e| (e, e.src))
    }

    /// Undirected neighbours of `v` as `(edge, neighbour)` pairs.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (&EdgeData, VertexId)> {
        self.incident_edges(v).map(move |e| (e, e.other(v)))
    }

    /// Out-degree of `v` (live edges only).
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_edges(v).count()
    }

    /// In-degree of `v` (live edges only).
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_edges(v).count()
    }

    /// Total degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    // ---- temporal updates ----------------------------------------------

    /// Ends vertex `v`'s validity at `t` and closes all its incident
    /// still-open edges at the same instant (temporal cascade).
    pub fn close_vertex(&mut self, v: VertexId, t: Timestamp) -> Result<()> {
        let incident: Vec<EdgeId> = self
            .incident_edges(v)
            .filter(|e| e.validity.contains(t) || e.validity.start >= t)
            .map(|e| e.id)
            .collect();
        for e in incident {
            self.close_edge(e, t)?;
        }
        let data = self.vertex_mut(v)?;
        data.validity = data.validity.closed_at(t);
        Ok(())
    }

    /// Ends edge `e`'s validity at `t`.
    pub fn close_edge(&mut self, e: EdgeId, t: Timestamp) -> Result<()> {
        let data = self.edge_mut(e)?;
        data.validity = data.validity.closed_at(t);
        Ok(())
    }

    /// Physically removes edge `e` (tombstone).
    pub fn remove_edge(&mut self, e: EdgeId) -> Result<EdgeData> {
        let data = self
            .edges
            .take(e.index())
            .ok_or(HyGraphError::EdgeNotFound(e))?;
        self.out_adj.remove(data.src.index(), e);
        self.in_adj.remove(data.dst.index(), e);
        self.live_edges -= 1;
        Ok(data)
    }

    /// Physically removes vertex `v` and all incident edges.
    pub fn remove_vertex(&mut self, v: VertexId) -> Result<VertexData> {
        self.vertex(v)?;
        let incident: Vec<EdgeId> = self.incident_edges(v).map(|e| e.id).collect();
        for e in incident {
            // self-loops appear twice in `incident`; the second removal is a no-op
            let _ = self.remove_edge(e);
        }
        let data = self.vertices.take(v.index()).expect("checked above");
        for l in &data.labels {
            if let Some(list) = self.vertex_label_index.get_mut(l) {
                list.retain(|&x| x != v);
            }
        }
        self.live_vertices -= 1;
        Ok(data)
    }

    // ---- validation (R2 temporal integrity) -----------------------------

    /// Checks temporal integrity: every edge's validity must be contained
    /// in both endpoints' validity (an edge cannot outlive its vertices).
    pub fn validate(&self) -> Result<()> {
        for e in self.edges() {
            let sv = self.vertex(e.src)?;
            let dv = self.vertex(e.dst)?;
            if !sv.validity.contains_interval(&e.validity) {
                return Err(HyGraphError::TemporalIntegrity(format!(
                    "edge {} validity {} exceeds source vertex {} validity {}",
                    e.id, e.validity, e.src, sv.validity
                )));
            }
            if !dv.validity.contains_interval(&e.validity) {
                return Err(HyGraphError::TemporalIntegrity(format!(
                    "edge {} validity {} exceeds target vertex {} validity {}",
                    e.id, e.validity, e.dst, dv.validity
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_types::props;

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn triangle() -> (TemporalGraph, [VertexId; 3], [EdgeId; 3]) {
        let mut g = TemporalGraph::new();
        let a = g.add_vertex(["Node"], props! {"name" => "a"});
        let b = g.add_vertex(["Node"], props! {"name" => "b"});
        let c = g.add_vertex(["Node"], props! {"name" => "c"});
        let e0 = g.add_edge(a, b, ["LINK"], props! {}).unwrap();
        let e1 = g.add_edge(b, c, ["LINK"], props! {}).unwrap();
        let e2 = g.add_edge(c, a, ["LINK"], props! {}).unwrap();
        (g, [a, b, c], [e0, e1, e2])
    }

    #[test]
    fn construction_and_counts() {
        let (g, [a, b, c], _) = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(a), 1);
        assert_eq!(g.degree(b), 2);
        assert!(g.contains_vertex(c));
        assert!(!g.contains_vertex(VertexId::new(99)));
    }

    #[test]
    fn edge_requires_endpoints() {
        let mut g = TemporalGraph::new();
        let a = g.add_vertex(["X"], props! {});
        let err = g
            .add_edge(a, VertexId::new(7), ["E"], props! {})
            .unwrap_err();
        assert_eq!(err, HyGraphError::VertexNotFound(VertexId::new(7)));
    }

    #[test]
    fn adjacency_iteration() {
        let (g, [a, b, _c], [e0, _, e2]) = triangle();
        let out: Vec<VertexId> = g.neighbors_out(a).map(|(_, v)| v).collect();
        assert_eq!(out, vec![b]);
        let all: Vec<EdgeId> = g.incident_edges(a).map(|e| e.id).collect();
        assert_eq!(all, vec![e0, e2]);
        let undirected: Vec<VertexId> = g.neighbors(a).map(|(_, v)| v).collect();
        assert_eq!(undirected.len(), 2);
    }

    #[test]
    fn label_filter_and_props() {
        let mut g = TemporalGraph::new();
        g.add_vertex(["User", "Person"], props! {"name" => "u1"});
        g.add_vertex(["Merchant"], props! {"name" => "m1"});
        assert_eq!(g.vertices_with_label("User").count(), 1);
        assert_eq!(g.vertices_with_label("Person").count(), 1);
        assert_eq!(g.vertices_with_label("Ghost").count(), 0);
        let u = g.vertices_with_label("User").next().unwrap();
        assert_eq!(u.props.static_value("name").unwrap().as_str(), Some("u1"));
    }

    #[test]
    fn close_vertex_cascades_to_edges() {
        let (mut g, [a, _, _], [e0, _, e2]) = triangle();
        g.close_vertex(a, ts(100)).unwrap();
        assert!(!g.vertex(a).unwrap().validity.contains(ts(100)));
        assert!(g.vertex(a).unwrap().validity.contains(ts(99)));
        // both incident edges closed
        assert!(!g.edge(e0).unwrap().validity.contains(ts(100)));
        assert!(!g.edge(e2).unwrap().validity.contains(ts(100)));
        // elements still exist (history preserved)
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn remove_vertex_tombstones() {
        let (mut g, [a, b, _], _) = triangle();
        let removed = g.remove_vertex(a).unwrap();
        assert_eq!(removed.id, a);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1, "two incident edges removed");
        assert!(g.vertex(a).is_err());
        assert_eq!(g.degree(b), 1);
        // ids remain stable for survivors
        assert!(g.contains_vertex(b));
    }

    #[test]
    fn remove_vertex_with_self_loop() {
        let mut g = TemporalGraph::new();
        let a = g.add_vertex(["X"], props! {});
        g.add_edge(a, a, ["SELF"], props! {}).unwrap();
        g.remove_vertex(a).unwrap();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.vertex_count(), 0);
    }

    #[test]
    fn validity_windows() {
        let mut g = TemporalGraph::new();
        let v = g.add_vertex_valid(["Company"], props! {}, Interval::from(ts(1000)));
        assert!(!g.vertex(v).unwrap().validity.contains(ts(999)));
        assert!(g.vertex(v).unwrap().validity.contains(ts(1_000_000)));
    }

    #[test]
    fn validate_temporal_integrity() {
        let mut g = TemporalGraph::new();
        let a = g.add_vertex_valid(["X"], props! {}, Interval::new(ts(0), ts(100)));
        let b = g.add_vertex(["X"], props! {});
        // edge valid beyond a's lifetime
        g.add_edge_valid(a, b, ["E"], props! {}, Interval::new(ts(50), ts(200)))
            .unwrap();
        assert!(matches!(
            g.validate().unwrap_err(),
            HyGraphError::TemporalIntegrity(_)
        ));
        let mut ok = TemporalGraph::new();
        let a = ok.add_vertex_valid(["X"], props! {}, Interval::new(ts(0), ts(100)));
        let b = ok.add_vertex(["X"], props! {});
        ok.add_edge_valid(a, b, ["E"], props! {}, Interval::new(ts(10), ts(90)))
            .unwrap();
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn mutation_through_vertex_mut() {
        let (mut g, [a, _, _], _) = triangle();
        g.vertex_mut(a).unwrap().props.set("flag", true);
        assert_eq!(
            g.vertex(a)
                .unwrap()
                .props
                .static_value("flag")
                .unwrap()
                .as_bool(),
            Some(true)
        );
    }

    #[test]
    fn edge_other_endpoint() {
        let (g, [a, b, _], [e0, _, _]) = triangle();
        let e = g.edge(e0).unwrap();
        assert_eq!(e.other(a), b);
        assert_eq!(e.other(b), a);
    }
}
