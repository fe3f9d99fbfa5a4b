//! Vertex centrality measures: degree, closeness, harmonic, and
//! betweenness (Brandes' algorithm). All operate on the undirected
//! unweighted simple view, matching the evolution metrics of Rost et
//! al. that `metricEvolution` tracks over time.
//!
//! Closeness, harmonic, and betweenness are embarrassingly parallel per
//! source vertex. Closeness/harmonic scores are computed independently
//! per vertex, so a parallel map is bit-identical to the sequential
//! loop. Betweenness sums per-source contribution vectors; to keep the
//! floating-point accumulation order independent of the thread count,
//! sources are grouped into fixed-size blocks (`BETWEENNESS_BLOCK`, 64 sources):
//! each block's partial is accumulated sequentially in source order, and
//! block partials are combined sequentially in block order — the same
//! summation tree in both modes, whatever the machine size.

use crate::graph::TemporalGraph;
use crate::traverse::{bfs, Follow};
use hygraph_types::parallel::{should_parallelize, ExecMode};
use hygraph_types::VertexId;
use rayon::prelude::*;
use std::collections::{HashMap, VecDeque};

/// Sources per betweenness accumulation block. Fixed (not derived from
/// the thread count) so the summation tree — and therefore every output
/// bit — is the same in sequential and parallel mode.
const BETWEENNESS_BLOCK: usize = 64;

/// Degree centrality: degree / (n - 1), in `[0, 1]` for simple graphs.
pub fn degree_centrality(g: &TemporalGraph, mode: ExecMode) -> HashMap<VertexId, f64> {
    let n = g.vertex_count();
    let denom = (n.saturating_sub(1)).max(1) as f64;
    let ids: Vec<VertexId> = g.vertex_ids().collect();
    per_vertex(&ids, mode, |&v| g.degree(v) as f64 / denom)
}

/// Closeness centrality: `(reachable - 1) / Σ dist`, normalised by the
/// fraction of the graph reached (Wasserman-Faust for disconnected
/// graphs). Isolated vertices score 0. One BFS per vertex; BFS runs are
/// independent, so fan-out cannot change results.
pub fn closeness_centrality(g: &TemporalGraph, mode: ExecMode) -> HashMap<VertexId, f64> {
    let n = g.vertex_count();
    let ids: Vec<VertexId> = g.vertex_ids().collect();
    per_vertex(&ids, mode, |&v| {
        let dist = bfs(g, v, Follow::Both);
        let reached = dist.len() - 1; // excluding self
        let total: usize = dist.values().sum();
        if reached == 0 || total == 0 {
            0.0
        } else {
            let base = reached as f64 / total as f64;
            // scale by coverage so small components do not dominate
            base * reached as f64 / (n.saturating_sub(1)).max(1) as f64
        }
    })
}

/// Harmonic centrality: `Σ 1/dist(v, u)` over all reachable `u ≠ v` —
/// well-defined on disconnected graphs.
pub fn harmonic_centrality(g: &TemporalGraph, mode: ExecMode) -> HashMap<VertexId, f64> {
    let ids: Vec<VertexId> = g.vertex_ids().collect();
    per_vertex(&ids, mode, |&v| {
        let dist = bfs(g, v, Follow::Both);
        // sum in sorted distance order: HashMap iteration order is
        // seeded per instance, which would make the floating-point sum
        // differ between otherwise identical runs
        let mut ds: Vec<usize> = dist
            .iter()
            .filter(|&(&u, &d)| u != v && d > 0)
            .map(|(_, &d)| d)
            .collect();
        ds.sort_unstable();
        ds.into_iter().map(|d| 1.0 / d as f64).sum()
    })
}

/// Maps `score` over every vertex, in parallel when `mode` allows. The
/// closure must be pure; results are zipped back in vertex order.
fn per_vertex<F>(ids: &[VertexId], mode: ExecMode, score: F) -> HashMap<VertexId, f64>
where
    F: Fn(&VertexId) -> f64 + Sync,
{
    let scores: Vec<f64> = if should_parallelize(mode, ids.len()) {
        ids.par_iter().map(&score).collect()
    } else {
        ids.iter().map(&score).collect()
    };
    ids.iter().copied().zip(scores).collect()
}

/// Betweenness centrality via Brandes' algorithm on the undirected
/// unweighted simple view. Scores are unnormalised pair counts (each
/// unordered pair contributes once). The per-source dependency
/// accumulations are distributed over fixed-size source blocks; see the
/// module docs for why this keeps the result bit-identical across modes
/// and thread counts.
pub fn betweenness_centrality(g: &TemporalGraph, mode: ExecMode) -> HashMap<VertexId, f64> {
    let ids: Vec<VertexId> = g.vertex_ids().collect();
    let n = ids.len();
    let index: HashMap<VertexId, usize> = ids.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    // undirected simple adjacency
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in g.edges() {
        if e.src == e.dst {
            continue;
        }
        let (a, b) = (index[&e.src], index[&e.dst]);
        if !adj[a].contains(&b) {
            adj[a].push(b);
            adj[b].push(a);
        }
    }

    // one Brandes pass: contributions of sources [lo, hi) accumulated
    // sequentially in source order
    let block_partial = |lo: usize, hi: usize| {
        let mut cb = vec![0.0f64; n];
        for s in lo..hi {
            // single-source shortest paths with path counting
            let mut stack: Vec<usize> = Vec::new();
            let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
            let mut sigma = vec![0.0f64; n];
            let mut dist = vec![-1i64; n];
            sigma[s] = 1.0;
            dist[s] = 0;
            let mut queue = VecDeque::from([s]);
            while let Some(v) = queue.pop_front() {
                stack.push(v);
                for &w in &adj[v] {
                    if dist[w] < 0 {
                        dist[w] = dist[v] + 1;
                        queue.push_back(w);
                    }
                    if dist[w] == dist[v] + 1 {
                        sigma[w] += sigma[v];
                        preds[w].push(v);
                    }
                }
            }
            // accumulation
            let mut delta = vec![0.0f64; n];
            while let Some(w) = stack.pop() {
                for &v in &preds[w] {
                    delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
                }
                if w != s {
                    cb[w] += delta[w];
                }
            }
        }
        cb
    };

    let blocks = n.div_ceil(BETWEENNESS_BLOCK);
    let partials: Vec<Vec<f64>> = if should_parallelize(mode, n) && blocks > 1 {
        (0..blocks)
            .into_par_iter()
            .map(|b| {
                let lo = b * BETWEENNESS_BLOCK;
                block_partial(lo, (lo + BETWEENNESS_BLOCK).min(n))
            })
            .collect()
    } else {
        (0..blocks)
            .map(|b| {
                let lo = b * BETWEENNESS_BLOCK;
                block_partial(lo, (lo + BETWEENNESS_BLOCK).min(n))
            })
            .collect()
    };
    // combine block partials sequentially, in block order
    let mut cb = vec![0.0f64; n];
    for partial in partials {
        for (acc, x) in cb.iter_mut().zip(partial) {
            *acc += x;
        }
    }
    // undirected: every pair was counted twice
    ids.into_iter()
        .zip(cb.into_iter().map(|x| x / 2.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_types::props;

    /// Path graph a - b - c - d - e.
    fn path5() -> (TemporalGraph, Vec<VertexId>) {
        let mut g = TemporalGraph::new();
        let vs: Vec<VertexId> = (0..5).map(|_| g.add_vertex(["N"], props! {})).collect();
        for w in vs.windows(2) {
            g.add_edge(w[0], w[1], ["E"], props! {}).unwrap();
        }
        (g, vs)
    }

    #[test]
    fn degree_centrality_path() {
        let (g, vs) = path5();
        let c = degree_centrality(&g, ExecMode::Auto);
        assert_eq!(c[&vs[0]], 0.25, "endpoint: 1/(5-1)");
        assert_eq!(c[&vs[2]], 0.5, "middle: 2/4");
    }

    #[test]
    fn closeness_middle_highest() {
        let (g, vs) = path5();
        let c = closeness_centrality(&g, ExecMode::Auto);
        assert!(c[&vs[2]] > c[&vs[1]]);
        assert!(c[&vs[1]] > c[&vs[0]]);
        // exact: middle distances 2+1+1+2 = 6, closeness = 4/6
        assert!((c[&vs[2]] - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn closeness_isolated_zero() {
        let mut g = TemporalGraph::new();
        let a = g.add_vertex(["N"], props! {});
        let c = closeness_centrality(&g, ExecMode::Auto);
        assert_eq!(c[&a], 0.0);
    }

    #[test]
    fn closeness_disconnected_penalised() {
        // two components: a pair and a triangle; the Wasserman-Faust
        // factor keeps pair members below triangle members
        let mut g = TemporalGraph::new();
        let a = g.add_vertex(["N"], props! {});
        let b = g.add_vertex(["N"], props! {});
        g.add_edge(a, b, ["E"], props! {}).unwrap();
        let t: Vec<VertexId> = (0..3).map(|_| g.add_vertex(["N"], props! {})).collect();
        for i in 0..3 {
            g.add_edge(t[i], t[(i + 1) % 3], ["E"], props! {}).unwrap();
        }
        let c = closeness_centrality(&g, ExecMode::Auto);
        assert!(c[&t[0]] > c[&a], "triangle members reach more of the graph");
    }

    #[test]
    fn harmonic_path() {
        let (g, vs) = path5();
        let h = harmonic_centrality(&g, ExecMode::Auto);
        // middle: 1/2 + 1/1 + 1/1 + 1/2 = 3
        assert!((h[&vs[2]] - 3.0).abs() < 1e-12);
        // endpoint: 1 + 1/2 + 1/3 + 1/4
        assert!((h[&vs[0]] - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn betweenness_path() {
        let (g, vs) = path5();
        let b = betweenness_centrality(&g, ExecMode::Auto);
        // endpoints carry no shortest paths
        assert_eq!(b[&vs[0]], 0.0);
        assert_eq!(b[&vs[4]], 0.0);
        // the exact middle carries the most: pairs (0,3),(0,4),(1,3),(1,4) = 4
        assert_eq!(b[&vs[2]], 4.0);
        // v1 carries (0,2),(0,3),(0,4) = 3
        assert_eq!(b[&vs[1]], 3.0);
    }

    #[test]
    fn betweenness_star() {
        let mut g = TemporalGraph::new();
        let hub = g.add_vertex(["N"], props! {});
        let spokes: Vec<VertexId> = (0..5).map(|_| g.add_vertex(["N"], props! {})).collect();
        for &s in &spokes {
            g.add_edge(s, hub, ["E"], props! {}).unwrap();
        }
        let b = betweenness_centrality(&g, ExecMode::Auto);
        // hub carries all C(5,2) = 10 spoke pairs
        assert_eq!(b[&hub], 10.0);
        for &s in &spokes {
            assert_eq!(b[&s], 0.0);
        }
    }

    #[test]
    fn betweenness_triangle_symmetric_zero() {
        let mut g = TemporalGraph::new();
        let t: Vec<VertexId> = (0..3).map(|_| g.add_vertex(["N"], props! {})).collect();
        for i in 0..3 {
            g.add_edge(t[i], t[(i + 1) % 3], ["E"], props! {}).unwrap();
        }
        let b = betweenness_centrality(&g, ExecMode::Auto);
        for &v in &t {
            assert_eq!(b[&v], 0.0, "all pairs adjacent: no intermediaries");
        }
    }

    #[test]
    fn empty_graph() {
        let g = TemporalGraph::new();
        assert!(degree_centrality(&g, ExecMode::Auto).is_empty());
        assert!(closeness_centrality(&g, ExecMode::Auto).is_empty());
        assert!(harmonic_centrality(&g, ExecMode::Auto).is_empty());
        assert!(betweenness_centrality(&g, ExecMode::Auto).is_empty());
    }

    /// Random-ish graph exercising multiple accumulation blocks: the
    /// parallel mode must agree with sequential to the last bit.
    #[test]
    fn parallel_matches_sequential_bitwise() {
        let mut g = TemporalGraph::new();
        let vs: Vec<VertexId> = (0..150).map(|_| g.add_vertex(["N"], props! {})).collect();
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..400 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = (x % 150) as usize;
            let b = ((x >> 20) % 149) as usize;
            if a != b {
                let _ = g.add_edge(vs[a], vs[b], ["E"], props! {});
            }
        }
        for (name, seq, par) in [
            (
                "closeness",
                closeness_centrality(&g, ExecMode::Sequential),
                closeness_centrality(&g, ExecMode::Parallel),
            ),
            (
                "harmonic",
                harmonic_centrality(&g, ExecMode::Sequential),
                harmonic_centrality(&g, ExecMode::Parallel),
            ),
            (
                "betweenness",
                betweenness_centrality(&g, ExecMode::Sequential),
                betweenness_centrality(&g, ExecMode::Parallel),
            ),
        ] {
            assert_eq!(seq.len(), par.len(), "{name}");
            for (v, s) in &seq {
                assert_eq!(s.to_bits(), par[v].to_bits(), "{name} at {v:?}");
            }
        }
    }
}
