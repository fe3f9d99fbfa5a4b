//! PageRank (power iteration with dangling-mass redistribution).
//!
//! The iteration is *pull-based*: each vertex gathers `rank/out_deg`
//! contributions from its in-neighbours in a fixed adjacency order.
//! Because every vertex's gather is an independent pure function of the
//! previous iteration's snapshot, the per-vertex loop parallelises
//! without changing a single bit of the result — the floating-point
//! summation order inside each gather is identical on any thread, and
//! the dangling-mass and convergence-delta reductions stay sequential.

use crate::graph::TemporalGraph;
use hygraph_types::parallel::{should_parallelize, ExecMode};
use hygraph_types::VertexId;
use rayon::prelude::*;
use std::collections::HashMap;

/// PageRank configuration.
#[derive(Clone, Copy, Debug)]
pub struct PageRankConfig {
    /// Damping factor (probability of following an out-edge).
    pub damping: f64,
    /// Maximum power iterations.
    pub max_iter: usize,
    /// L1 convergence tolerance.
    pub tol: f64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        Self {
            damping: 0.85,
            max_iter: 100,
            tol: 1e-9,
        }
    }
}

/// Computes PageRank over live vertices; scores sum to 1. Returns an
/// empty map for an empty graph. The parallel path is bit-identical to
/// the sequential one for any thread count: both gather in-contributions
/// per vertex in the same adjacency order, and all cross-vertex
/// reductions (dangling mass, L1 delta) are sequential.
pub fn pagerank(g: &TemporalGraph, cfg: PageRankConfig, mode: ExecMode) -> HashMap<VertexId, f64> {
    let ids: Vec<VertexId> = g.vertex_ids().collect();
    let n = ids.len();
    if n == 0 {
        return HashMap::new();
    }
    // dense index over live vertices
    let mut dense: HashMap<VertexId, usize> = HashMap::with_capacity(n);
    for (i, &v) in ids.iter().enumerate() {
        dense.insert(v, i);
    }
    let out_deg: Vec<usize> = ids.iter().map(|&v| g.out_degree(v)).collect();
    // in-adjacency in deterministic order: source edge order per vertex,
    // one entry per (multi-)edge, mirroring the push formulation
    let mut in_adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, &v) in ids.iter().enumerate() {
        for (_, nbr) in g.neighbors_out(v) {
            in_adj[dense[&nbr]].push(i as u32);
        }
    }

    let parallel = should_parallelize(mode, n);
    let mut rank = vec![1.0 / n as f64; n];
    let mut contrib = vec![0.0f64; n];
    for _ in 0..cfg.max_iter {
        // per-vertex out-shares and total dangling mass (sequential fold:
        // its order must not depend on the thread count)
        let mut dangling = 0.0;
        for i in 0..n {
            if out_deg[i] == 0 {
                dangling += rank[i];
                contrib[i] = 0.0;
            } else {
                contrib[i] = rank[i] / out_deg[i] as f64;
            }
        }
        let teleport = (1.0 - cfg.damping) / n as f64 + cfg.damping * dangling / n as f64;
        let gather = |i: usize| {
            let mut sum = 0.0;
            for &j in &in_adj[i] {
                sum += contrib[j as usize];
            }
            teleport + cfg.damping * sum
        };
        let next: Vec<f64> = if parallel {
            (0..n).into_par_iter().map(gather).collect()
        } else {
            (0..n).map(gather).collect()
        };
        let delta: f64 = next
            .iter()
            .zip(&rank)
            .map(|(new, old)| (new - old).abs())
            .sum();
        rank = next;
        if delta < cfg.tol {
            break;
        }
    }
    ids.into_iter().zip(rank).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_types::props;

    #[test]
    fn scores_sum_to_one() {
        let mut g = TemporalGraph::new();
        let vs: Vec<VertexId> = (0..5).map(|_| g.add_vertex(["N"], props! {})).collect();
        for i in 0..5 {
            g.add_edge(vs[i], vs[(i + 1) % 5], ["E"], props! {})
                .unwrap();
        }
        let pr = pagerank(&g, PageRankConfig::default(), ExecMode::Auto);
        let total: f64 = pr.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // symmetric ring: all equal
        for &v in &vs {
            assert!((pr[&v] - 0.2).abs() < 1e-9);
        }
    }

    #[test]
    fn hub_gets_more_rank() {
        // star: everyone points at the hub
        let mut g = TemporalGraph::new();
        let hub = g.add_vertex(["N"], props! {});
        let spokes: Vec<VertexId> = (0..6).map(|_| g.add_vertex(["N"], props! {})).collect();
        for &s in &spokes {
            g.add_edge(s, hub, ["E"], props! {}).unwrap();
        }
        let pr = pagerank(&g, PageRankConfig::default(), ExecMode::Auto);
        for &s in &spokes {
            assert!(pr[&hub] > pr[&s] * 2.0, "hub dominates");
        }
        let total: f64 = pr.values().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "dangling hub mass redistributed"
        );
    }

    #[test]
    fn empty_graph() {
        let g = TemporalGraph::new();
        assert!(pagerank(&g, PageRankConfig::default(), ExecMode::Auto).is_empty());
    }

    #[test]
    fn disconnected_components_balanced() {
        let mut g = TemporalGraph::new();
        let a = g.add_vertex(["N"], props! {});
        let b = g.add_vertex(["N"], props! {});
        let c = g.add_vertex(["N"], props! {});
        let d = g.add_vertex(["N"], props! {});
        g.add_edge(a, b, ["E"], props! {}).unwrap();
        g.add_edge(b, a, ["E"], props! {}).unwrap();
        g.add_edge(c, d, ["E"], props! {}).unwrap();
        g.add_edge(d, c, ["E"], props! {}).unwrap();
        let pr = pagerank(&g, PageRankConfig::default(), ExecMode::Auto);
        for v in [a, b, c, d] {
            assert!((pr[&v] - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn respects_tombstones() {
        let mut g = TemporalGraph::new();
        let a = g.add_vertex(["N"], props! {});
        let b = g.add_vertex(["N"], props! {});
        g.add_edge(a, b, ["E"], props! {}).unwrap();
        g.remove_vertex(a).unwrap();
        let pr = pagerank(&g, PageRankConfig::default(), ExecMode::Auto);
        assert_eq!(pr.len(), 1);
        assert!((pr[&b] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let mut g = TemporalGraph::new();
        let vs: Vec<VertexId> = (0..40).map(|_| g.add_vertex(["N"], props! {})).collect();
        // deterministic pseudo-random sparse digraph with dangling nodes
        let mut x = 0x2545F4914F6CDD1Du64;
        for _ in 0..150 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = (x % 40) as usize;
            let b = ((x >> 16) % 37) as usize;
            g.add_edge(vs[a], vs[b], ["E"], props! {}).unwrap();
        }
        let seq = pagerank(&g, PageRankConfig::default(), ExecMode::Sequential);
        let par = pagerank(&g, PageRankConfig::default(), ExecMode::Parallel);
        assert_eq!(seq.len(), par.len());
        for (v, s) in &seq {
            assert_eq!(s.to_bits(), par[v].to_bits(), "vertex {v:?}");
        }
    }
}
