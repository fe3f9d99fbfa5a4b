//! Connected components (weakly connected for directed graphs).
//!
//! Two interchangeable engines produce the identical assignment:
//! sequential union-find, and a parallel Jacobi-style min-label
//! propagation with pointer jumping. Component ids carry no information
//! beyond the partition — both engines renumber components 0.. by first
//! appearance in vertex-id order, so the exact output map is the same
//! either way and [`connected_components`] is free to pick by size.

use crate::graph::TemporalGraph;
use hygraph_types::parallel::{should_parallelize, ExecMode};
use hygraph_types::VertexId;
use rayon::prelude::*;
use std::collections::HashMap;

/// Union-find over dense vertex indices with path halving and union by
/// size.
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            // path halving
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x as usize
    }

    /// Merges the sets of `a` and `b`; returns whether they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra as u32;
        self.size[ra] += self.size[rb];
        true
    }

    /// Whether `a` and `b` share a set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Weakly connected components. Returns vertex → component id, with
/// component ids renumbered 0.. in order of first appearance (by vertex
/// id), and the number of components. [`ExecMode::Auto`] picks the
/// engine (union-find or parallel label propagation) from graph size.
pub fn connected_components(
    g: &TemporalGraph,
    mode: ExecMode,
) -> (HashMap<VertexId, usize>, usize) {
    let cap = g.vertex_capacity();
    let roots = if should_parallelize(mode, cap) {
        propagate_min_labels(g, cap)
    } else {
        let mut uf = UnionFind::new(cap);
        for e in g.edges() {
            uf.union(e.src.index(), e.dst.index());
        }
        (0..cap).map(|i| uf.find(i) as u32).collect()
    };
    renumber_roots(g, &roots)
}

/// Parallel engine: every vertex repeatedly adopts the minimum label in
/// its closed undirected neighbourhood (Jacobi iteration — each round
/// reads only the previous round's snapshot, so the fixpoint is
/// independent of thread count and scheduling), with a pointer-jumping
/// shortcut so convergence takes O(log n) rounds on long paths. At the
/// fixpoint every vertex's label is the minimum raw index of its
/// component, a canonical root equivalent to union-find's.
fn propagate_min_labels(g: &TemporalGraph, cap: usize) -> Vec<u32> {
    // undirected adjacency over raw indices (tombstoned endpoints never
    // occur: their edges are removed with them)
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); cap];
    for e in g.edges() {
        adj[e.src.index()].push(e.dst.index() as u32);
        adj[e.dst.index()].push(e.src.index() as u32);
    }
    let mut labels: Vec<u32> = (0..cap as u32).collect();
    loop {
        // gather: min over closed neighbourhood, from the old snapshot
        let gathered: Vec<u32> = (0..cap)
            .into_par_iter()
            .map(|i| {
                let mut m = labels[i];
                for &j in &adj[i] {
                    m = m.min(labels[j as usize]);
                }
                m
            })
            .collect();
        // shortcut: jump to the label's label (also from a snapshot)
        let jumped: Vec<u32> = (0..cap)
            .into_par_iter()
            .map(|i| gathered[gathered[i] as usize])
            .collect();
        if jumped == labels {
            return jumped;
        }
        labels = jumped;
    }
}

/// Renumbers per-index roots 0.. by first appearance in vertex-id order.
fn renumber_roots(g: &TemporalGraph, roots: &[u32]) -> (HashMap<VertexId, usize>, usize) {
    let mut renumber: HashMap<u32, usize> = HashMap::new();
    let mut out = HashMap::new();
    for v in g.vertex_ids().collect::<Vec<_>>() {
        let root = roots[v.index()];
        let next = renumber.len();
        let cid = *renumber.entry(root).or_insert(next);
        out.insert(v, cid);
    }
    let n = renumber.len();
    (out, n)
}

/// Sizes of each component, indexed by component id.
pub fn component_sizes(assignment: &HashMap<VertexId, usize>, count: usize) -> Vec<usize> {
    let mut sizes = vec![0usize; count];
    for &cid in assignment.values() {
        sizes[cid] += 1;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_types::props;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already merged");
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
    }

    #[test]
    fn two_components() {
        let mut g = TemporalGraph::new();
        let a = g.add_vertex(["N"], props! {});
        let b = g.add_vertex(["N"], props! {});
        let c = g.add_vertex(["N"], props! {});
        let d = g.add_vertex(["N"], props! {});
        g.add_edge(a, b, ["E"], props! {}).unwrap();
        g.add_edge(c, d, ["E"], props! {}).unwrap();
        let (assign, n) = connected_components(&g, ExecMode::Auto);
        assert_eq!(n, 2);
        assert_eq!(assign[&a], assign[&b]);
        assert_eq!(assign[&c], assign[&d]);
        assert_ne!(assign[&a], assign[&c]);
        assert_eq!(component_sizes(&assign, n), vec![2, 2]);
    }

    #[test]
    fn directedness_ignored() {
        let mut g = TemporalGraph::new();
        let a = g.add_vertex(["N"], props! {});
        let b = g.add_vertex(["N"], props! {});
        g.add_edge(b, a, ["E"], props! {}).unwrap();
        let (_, n) = connected_components(&g, ExecMode::Auto);
        assert_eq!(n, 1);
    }

    #[test]
    fn isolated_vertices_are_components() {
        let mut g = TemporalGraph::new();
        g.add_vertex(["N"], props! {});
        g.add_vertex(["N"], props! {});
        let (_, n) = connected_components(&g, ExecMode::Auto);
        assert_eq!(n, 2);
    }

    #[test]
    fn empty_graph() {
        let g = TemporalGraph::new();
        let (assign, n) = connected_components(&g, ExecMode::Auto);
        assert!(assign.is_empty());
        assert_eq!(n, 0);
    }

    #[test]
    fn parallel_engine_matches_union_find_exactly() {
        let mut g = TemporalGraph::new();
        let vs: Vec<VertexId> = (0..200).map(|_| g.add_vertex(["N"], props! {})).collect();
        // several chains and rings plus isolated vertices and a tombstone
        let mut x = 0x853C49E6748FEA9Bu64;
        for _ in 0..160 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = (x % 200) as usize;
            let b = ((x >> 24) % 200) as usize;
            if a != b {
                let _ = g.add_edge(vs[a], vs[b], ["E"], props! {});
            }
        }
        g.remove_vertex(vs[13]).unwrap();
        let (seq, n_seq) = connected_components(&g, ExecMode::Sequential);
        let (par, n_par) = connected_components(&g, ExecMode::Parallel);
        assert_eq!(n_seq, n_par);
        assert_eq!(seq, par, "identical assignment incl. component ids");
    }

    #[test]
    fn parallel_engine_converges_on_long_path() {
        // a 500-vertex path stresses the pointer-jumping shortcut
        let mut g = TemporalGraph::new();
        let vs: Vec<VertexId> = (0..500).map(|_| g.add_vertex(["N"], props! {})).collect();
        for w in vs.windows(2) {
            g.add_edge(w[0], w[1], ["E"], props! {}).unwrap();
        }
        let (assign, n) = connected_components(&g, ExecMode::Parallel);
        assert_eq!(n, 1);
        assert!(assign.values().all(|&c| c == 0));
    }

    #[test]
    fn tombstoned_vertices_skipped() {
        let mut g = TemporalGraph::new();
        let a = g.add_vertex(["N"], props! {});
        let b = g.add_vertex(["N"], props! {});
        g.add_edge(a, b, ["E"], props! {}).unwrap();
        g.remove_vertex(a).unwrap();
        let (assign, n) = connected_components(&g, ExecMode::Auto);
        assert_eq!(n, 1);
        assert!(assign.contains_key(&b));
        assert!(!assign.contains_key(&a));
    }
}
