//! Hybrid embeddings and similarity search (paper §6 rows E and the
//! GraphRAG integration plan).
//!
//! * **FastRP** (Chen et al., CIKM'19): very sparse random projection of
//!   the adjacency structure, iterated over `k` hops with per-hop
//!   weights — the structural half the paper names.
//! * **Series features + PCA**: the temporal half — the statistical
//!   feature vector of each vertex's series, optionally PCA-reduced.
//! * **Hybrid**: L2-normalised concatenation of both halves.
//! * **[`SimilarityIndex`]**: exact cosine top-k over embeddings — the
//!   "query API + vector similarity search" step of the paper's
//!   GraphRAG plan.

use crate::hybrid::vertex_series;
use hygraph_core::HyGraph;
use hygraph_ts::ops::{features, pca::Pca};
use hygraph_types::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// FastRP configuration.
#[derive(Clone, Copy, Debug)]
pub struct FastRpConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Per-hop weights (length = number of propagation iterations).
    pub iteration_weights: [f64; 3],
    /// Sparsity parameter `s`: entries are ±√s with probability 1/(2s).
    pub sparsity: f64,
    /// RNG seed for the projection matrix.
    pub seed: u64,
}

impl Default for FastRpConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            iteration_weights: [0.0, 1.0, 1.0],
            sparsity: 3.0,
            seed: 17,
        }
    }
}

/// Structural FastRP embeddings over the undirected topology.
pub fn fastrp(hg: &HyGraph, cfg: FastRpConfig) -> HashMap<VertexId, Vec<f64>> {
    let g = hg.topology();
    let ids: Vec<VertexId> = g.vertex_ids().collect();
    let n = ids.len();
    if n == 0 {
        return HashMap::new();
    }
    let index: HashMap<VertexId, usize> = ids.iter().enumerate().map(|(i, &v)| (v, i)).collect();

    // R: n × dim very sparse random matrix (the hop-0 features)
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let s = cfg.sparsity.max(1.0);
    let scale = s.sqrt();
    let mut current: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..cfg.dim)
                .map(|_| {
                    let u: f64 = rng.random();
                    if u < 1.0 / (2.0 * s) {
                        scale
                    } else if u < 1.0 / s {
                        -scale
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();

    let mut acc: Vec<Vec<f64>> = vec![vec![0.0; cfg.dim]; n];
    add_weighted(&mut acc, &current, cfg.iteration_weights[0]);

    for &w in &cfg.iteration_weights[1..] {
        // propagate: next[v] = mean of current[neighbours]
        let mut next = vec![vec![0.0; cfg.dim]; n];
        for (i, &v) in ids.iter().enumerate() {
            let mut count = 0usize;
            for (_, nbr) in g.neighbors(v) {
                let j = index[&nbr];
                for (slot, x) in next[i].iter_mut().zip(&current[j]) {
                    *slot += x;
                }
                count += 1;
            }
            if count > 0 {
                for slot in next[i].iter_mut() {
                    *slot /= count as f64;
                }
            }
        }
        normalize_rows(&mut next);
        add_weighted(&mut acc, &next, w);
        current = next;
    }
    normalize_rows(&mut acc);
    ids.into_iter().zip(acc).collect()
}

fn add_weighted(acc: &mut [Vec<f64>], src: &[Vec<f64>], w: f64) {
    if w == 0.0 {
        return;
    }
    for (a, s) in acc.iter_mut().zip(src) {
        for (x, y) in a.iter_mut().zip(s) {
            *x += w * y;
        }
    }
}

fn normalize_rows(rows: &mut [Vec<f64>]) {
    for r in rows {
        let norm: f64 = r.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > f64::EPSILON {
            r.iter_mut().for_each(|x| *x /= norm);
        }
    }
}

/// Temporal embeddings: the statistical feature vector of each vertex's
/// associated series (zero vector for vertices without one), column-wise
/// z-normalised, optionally PCA-reduced to `pca_dims`.
pub fn series_embedding(hg: &HyGraph, pca_dims: Option<usize>) -> HashMap<VertexId, Vec<f64>> {
    let ids: Vec<VertexId> = hg.topology().vertex_ids().collect();
    let mut rows: Vec<Vec<f64>> = ids
        .iter()
        .map(|&v| {
            vertex_series(hg, v)
                .map(|s| features::feature_vector(&s).to_vec())
                .unwrap_or_else(|| vec![0.0; features::FEATURE_DIM])
        })
        .collect();
    features::normalize_columns(&mut rows);
    if let Some(k) = pca_dims {
        if let Some(p) = Pca::fit(&rows, k) {
            rows = p.transform_all(&rows);
        }
    }
    ids.into_iter().zip(rows).collect()
}

/// Hybrid embeddings: L2-normalised concatenation of FastRP structure
/// and (PCA-reduced) series features — "specialized embeddings to
/// capture the topological *and* temporal data characteristics".
pub fn hybrid_embedding(
    hg: &HyGraph,
    cfg: FastRpConfig,
    pca_dims: Option<usize>,
) -> HashMap<VertexId, Vec<f64>> {
    let _t = hygraph_metrics::OpTimer::new(hygraph_metrics::OpClass::EEmbed);
    let structural = fastrp(hg, cfg);
    let temporal = series_embedding(hg, pca_dims);
    let mut out = HashMap::with_capacity(structural.len());
    for (v, mut s) in structural {
        let t = temporal.get(&v).cloned().unwrap_or_default();
        s.extend(t);
        let norm: f64 = s.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > f64::EPSILON {
            s.iter_mut().for_each(|x| *x /= norm);
        }
        out.insert(v, s);
    }
    out
}

/// Exact cosine-similarity top-k index over vertex embeddings.
pub struct SimilarityIndex {
    entries: Vec<(VertexId, Vec<f64>)>,
}

impl SimilarityIndex {
    /// Builds the index (copies the embeddings, sorted by vertex id for
    /// determinism).
    pub fn build(embeddings: &HashMap<VertexId, Vec<f64>>) -> Self {
        let mut entries: Vec<(VertexId, Vec<f64>)> =
            embeddings.iter().map(|(&v, e)| (v, e.clone())).collect();
        entries.sort_by_key(|&(v, _)| v);
        Self { entries }
    }

    /// Number of indexed vertices.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `k` nearest vertices to `query` by cosine similarity
    /// (excluding exact id `exclude` if given), best first.
    pub fn top_k(
        &self,
        query: &[f64],
        k: usize,
        exclude: Option<VertexId>,
    ) -> Vec<(VertexId, f64)> {
        let mut scored: Vec<(VertexId, f64)> = self
            .entries
            .iter()
            .filter(|(v, _)| Some(*v) != exclude)
            .map(|(v, e)| (*v, features::cosine(query, e)))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    /// The `k` vertices most similar to an already-indexed vertex.
    pub fn neighbours_of(&self, v: VertexId, k: usize) -> Vec<(VertexId, f64)> {
        let Some((_, e)) = self.entries.iter().find(|(x, _)| *x == v) else {
            return Vec::new();
        };
        let e = e.clone();
        self.top_k(&e, k, Some(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_ts::TimeSeries;
    use hygraph_types::{props, Duration, Timestamp};

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    /// Two 5-cliques bridged by one edge.
    fn two_cliques() -> (HyGraph, Vec<VertexId>, Vec<VertexId>) {
        let mut hg = HyGraph::new();
        let mk = |hg: &mut HyGraph| (0..5).map(|_| hg.add_pg_vertex(["N"], props! {})).collect();
        let a: Vec<VertexId> = mk(&mut hg);
        let b: Vec<VertexId> = mk(&mut hg);
        for set in [&a, &b] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    hg.add_pg_edge(set[i], set[j], ["E"], props! {}).unwrap();
                }
            }
        }
        hg.add_pg_edge(a[0], b[0], ["BRIDGE"], props! {}).unwrap();
        (hg, a, b)
    }

    fn cos(a: &[f64], b: &[f64]) -> f64 {
        features::cosine(a, b)
    }

    #[test]
    fn fastrp_separates_cliques() {
        let (hg, a, b) = two_cliques();
        let emb = fastrp(&hg, FastRpConfig::default());
        // same-clique interior vertices are more similar than cross-clique
        let within = cos(&emb[&a[1]], &emb[&a[2]]);
        let across = cos(&emb[&a[1]], &emb[&b[2]]);
        assert!(
            within > across,
            "within-clique {within} should beat across {across}"
        );
    }

    #[test]
    fn fastrp_deterministic_and_normalised() {
        let (hg, _, _) = two_cliques();
        let e1 = fastrp(&hg, FastRpConfig::default());
        let e2 = fastrp(&hg, FastRpConfig::default());
        assert_eq!(e1, e2);
        for e in e1.values() {
            let norm: f64 = e.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((norm - 1.0).abs() < 1e-9 || norm < 1e-9);
        }
        assert!(fastrp(&HyGraph::new(), FastRpConfig::default()).is_empty());
    }

    #[test]
    fn series_embedding_separates_behaviours() {
        let mut hg = HyGraph::new();
        let mk_ts = |hg: &mut HyGraph, name: &str, f: fn(usize) -> f64| {
            let s = TimeSeries::generate(ts(0), Duration::from_millis(1), 100, f);
            let sid = hg.add_univariate_series(name, &s);
            hg.add_ts_vertex(["C"], sid).unwrap()
        };
        let flat1 = mk_ts(&mut hg, "f1", |_| 10.0);
        let flat2 = mk_ts(&mut hg, "f2", |_| 10.5);
        let bursty = mk_ts(&mut hg, "b", |i| if i > 90 { 500.0 } else { 10.0 });
        let emb = series_embedding(&hg, None);
        let d_flat = features::euclidean(&emb[&flat1], &emb[&flat2]);
        let d_burst = features::euclidean(&emb[&flat1], &emb[&bursty]);
        assert!(d_flat < d_burst);
    }

    #[test]
    fn series_embedding_pca_reduces_dim() {
        let (hg, _, _) = two_cliques();
        let emb = series_embedding(&hg, Some(3));
        for e in emb.values() {
            assert!(e.len() <= 3);
        }
    }

    #[test]
    fn hybrid_embedding_concatenates() {
        let (hg, a, _) = two_cliques();
        let cfg = FastRpConfig::default();
        let emb = hybrid_embedding(&hg, cfg, Some(4));
        let e = &emb[&a[0]];
        assert!(e.len() > cfg.dim, "structure + temporal parts");
        let norm: f64 = e.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn similarity_index_topk() {
        let (hg, a, _) = two_cliques();
        let emb = fastrp(&hg, FastRpConfig::default());
        let idx = SimilarityIndex::build(&emb);
        assert_eq!(idx.len(), 10);
        let nn = idx.neighbours_of(a[1], 4);
        assert_eq!(nn.len(), 4);
        // the top hits for an interior clique-A vertex are in clique A
        let in_a = nn.iter().filter(|(v, _)| a.contains(v)).count();
        assert!(in_a >= 3, "expected mostly clique-A neighbours, got {nn:?}");
        // scores sorted descending
        for w in nn.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        // query for a missing vertex
        assert!(idx.neighbours_of(VertexId::new(999), 3).is_empty());
    }
}
