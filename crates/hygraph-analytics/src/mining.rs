//! Hybrid frequent-pattern mining (Table 2, row PM).
//!
//! The paper: "Pattern Mining in HyGraph involves identifying recurring
//! subgraphs … and integrating time-series data to analyze trends in
//! sub-structures featuring common vertex types."
//!
//! * [`frequent_edge_patterns`] — frequency census of labelled edge
//!   patterns `(:A)-[:R]->(:B)` (1-edge subgraph patterns, the unit of
//!   most frequent-subgraph miners);
//! * [`frequent_two_hop_patterns`] — 2-edge path patterns
//!   `(:A)-[:R]->(:B)-[:S]->(:C)`;
//! * [`hybrid_patterns`] — joins structural patterns with the SAX words
//!   that are frequent in the member vertices' series: a *hybrid pattern*
//!   is a (structural pattern, temporal word) pair with joint support.

use crate::hybrid::vertex_series;
use hygraph_core::HyGraph;
use hygraph_ts::ops::sax;
use hygraph_types::VertexId;
use std::collections::HashMap;

/// A labelled 1-edge structural pattern with its support.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EdgePattern {
    /// Source label (first label of the source vertex, or `*`).
    pub src_label: String,
    /// Edge label.
    pub edge_label: String,
    /// Target label.
    pub dst_label: String,
}

impl std::fmt::Display for EdgePattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "(:{})-[:{}]->(:{})",
            self.src_label, self.edge_label, self.dst_label
        )
    }
}

fn first_label(hg: &HyGraph, v: VertexId) -> String {
    hg.topology()
        .vertex(v)
        .ok()
        .and_then(|d| d.labels.first().map(|l| l.as_str().to_owned()))
        .unwrap_or_else(|| "*".to_owned())
}

/// Counts every labelled edge pattern, returning those with support ≥
/// `min_support`, most frequent first.
pub fn frequent_edge_patterns(hg: &HyGraph, min_support: usize) -> Vec<(EdgePattern, usize)> {
    let g = hg.topology();
    let mut counts: HashMap<EdgePattern, usize> = HashMap::new();
    for e in g.edges() {
        let pat = EdgePattern {
            src_label: first_label(hg, e.src),
            edge_label: e
                .labels
                .first()
                .map(|l| l.as_str().to_owned())
                .unwrap_or_else(|| "*".to_owned()),
            dst_label: first_label(hg, e.dst),
        };
        *counts.entry(pat).or_insert(0) += 1;
    }
    let mut out: Vec<(EdgePattern, usize)> = counts
        .into_iter()
        .filter(|&(_, c)| c >= min_support)
        .collect();
    out.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then_with(|| a.0.to_string().cmp(&b.0.to_string()))
    });
    out
}

/// A labelled 2-hop path pattern with its support.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PathPattern2 {
    /// First edge pattern.
    pub first: EdgePattern,
    /// Second edge label.
    pub second_edge: String,
    /// Final target label.
    pub final_label: String,
}

impl std::fmt::Display for PathPattern2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}-[:{}]->(:{})",
            self.first, self.second_edge, self.final_label
        )
    }
}

/// Counts 2-hop labelled path patterns with support ≥ `min_support`.
pub fn frequent_two_hop_patterns(hg: &HyGraph, min_support: usize) -> Vec<(PathPattern2, usize)> {
    let g = hg.topology();
    let mut counts: HashMap<PathPattern2, usize> = HashMap::new();
    for e1 in g.edges() {
        for (e2, _) in g.neighbors_out(e1.dst) {
            let pat = PathPattern2 {
                first: EdgePattern {
                    src_label: first_label(hg, e1.src),
                    edge_label: e1
                        .labels
                        .first()
                        .map(|l| l.as_str().to_owned())
                        .unwrap_or_else(|| "*".to_owned()),
                    dst_label: first_label(hg, e1.dst),
                },
                second_edge: e2
                    .labels
                    .first()
                    .map(|l| l.as_str().to_owned())
                    .unwrap_or_else(|| "*".to_owned()),
                final_label: first_label(hg, e2.dst),
            };
            *counts.entry(pat).or_insert(0) += 1;
        }
    }
    let mut out: Vec<(PathPattern2, usize)> = counts
        .into_iter()
        .filter(|&(_, c)| c >= min_support)
        .collect();
    out.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then_with(|| a.0.to_string().cmp(&b.0.to_string()))
    });
    out
}

/// A hybrid pattern: a structural edge pattern whose *source* vertices
/// frequently exhibit the given SAX temporal word.
#[derive(Clone, Debug, PartialEq)]
pub struct HybridPattern {
    /// The structural part.
    pub structure: EdgePattern,
    /// The temporal part (SAX word over the source's series windows).
    pub word: String,
    /// Number of (edge instance, word occurrence) joint supports.
    pub support: usize,
}

/// SAX parameters for hybrid mining.
#[derive(Clone, Copy, Debug)]
pub struct SaxParams {
    /// Sliding-window length (points).
    pub window: usize,
    /// Word length.
    pub word_len: usize,
    /// Alphabet size (2..=8).
    pub alphabet: usize,
}

impl Default for SaxParams {
    fn default() -> Self {
        Self {
            window: 24,
            word_len: 4,
            alphabet: 4,
        }
    }
}

/// Joins frequent structural edge patterns with frequent temporal words
/// of the source vertices' series. A hybrid pattern's support is the
/// number of edge instances whose source vertex exhibits the word at
/// least once. Errors on invalid SAX parameters (alphabet outside
/// 2..=8, zero word length) instead of panicking.
pub fn hybrid_patterns(
    hg: &HyGraph,
    min_structural_support: usize,
    min_word_support: usize,
    params: SaxParams,
) -> hygraph_types::Result<Vec<HybridPattern>> {
    let _t = hygraph_metrics::OpTimer::new(hygraph_metrics::OpClass::PmMine);
    let structural = frequent_edge_patterns(hg, min_structural_support);
    let g = hg.topology();
    // per-vertex set of words it exhibits
    let mut words_of: HashMap<VertexId, Vec<String>> = HashMap::new();
    let mut ids: Vec<VertexId> = g.vertex_ids().collect();
    ids.sort_unstable();
    for v in ids {
        if let Some(series) = vertex_series(hg, v) {
            let freq =
                sax::frequent_words(&series, params.window, params.word_len, params.alphabet, 1)?;
            words_of.insert(v, freq.into_iter().map(|(w, _)| w).collect());
        }
    }
    let mut out = Vec::new();
    for (pat, _) in structural {
        // count joint support per word
        let mut word_support: HashMap<String, usize> = HashMap::new();
        for e in g.edges() {
            let matches_pattern = first_label(hg, e.src) == pat.src_label
                && e.labels.first().map(|l| l.as_str()) == Some(pat.edge_label.as_str())
                && first_label(hg, e.dst) == pat.dst_label;
            if !matches_pattern {
                continue;
            }
            if let Some(words) = words_of.get(&e.src) {
                for w in words {
                    *word_support.entry(w.clone()).or_insert(0) += 1;
                }
            }
        }
        let mut hits: Vec<(String, usize)> = word_support
            .into_iter()
            .filter(|&(_, c)| c >= min_word_support)
            .collect();
        hits.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (word, support) in hits {
            out.push(HybridPattern {
                structure: pat.clone(),
                word,
                support,
            });
        }
    }
    out.sort_by(|a, b| b.support.cmp(&a.support).then_with(|| a.word.cmp(&b.word)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_ts::TimeSeries;
    use hygraph_types::{props, Duration, Timestamp};

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn fraud_like() -> HyGraph {
        let mut hg = HyGraph::new();
        let mut cards = Vec::new();
        for i in 0..3 {
            let u = hg.add_pg_vertex(["User"], props! {});
            // rising card series -> consistent SAX words
            let s = TimeSeries::generate(ts(0), Duration::from_millis(1), 100, move |k| {
                (k as f64) * (i + 1) as f64
            });
            let sid = hg.add_univariate_series(&format!("c{i}"), &s);
            let c = hg.add_ts_vertex(["Card"], sid).unwrap();
            hg.add_pg_edge(u, c, ["USES"], props! {}).unwrap();
            cards.push(c);
        }
        let m = hg.add_pg_vertex(["Merchant"], props! {});
        for &c in &cards {
            hg.add_pg_edge(c, m, ["TX"], props! {}).unwrap();
            hg.add_pg_edge(c, m, ["TX"], props! {}).unwrap();
        }
        hg
    }

    #[test]
    fn edge_pattern_census() {
        let hg = fraud_like();
        let pats = frequent_edge_patterns(&hg, 1);
        // (:Card)-[:TX]->(:Merchant) has 6 instances, (:User)-[:USES]->(:Card) has 3
        assert_eq!(pats[0].1, 6);
        assert_eq!(pats[0].0.to_string(), "(:Card)-[:TX]->(:Merchant)");
        assert_eq!(pats[1].1, 3);
        // min support filters
        let pats = frequent_edge_patterns(&hg, 4);
        assert_eq!(pats.len(), 1);
    }

    #[test]
    fn two_hop_census() {
        let hg = fraud_like();
        let pats = frequent_two_hop_patterns(&hg, 1);
        // (:User)-[:USES]->(:Card)-[:TX]->(:Merchant): 3 users x 2 TX = 6
        let top = &pats[0];
        assert_eq!(top.1, 6);
        assert_eq!(
            top.0.to_string(),
            "(:User)-[:USES]->(:Card)-[:TX]->(:Merchant)"
        );
    }

    #[test]
    fn hybrid_patterns_join_structure_and_words() {
        let hg = fraud_like();
        let hybrids = hybrid_patterns(&hg, 2, 2, SaxParams::default()).unwrap();
        assert!(!hybrids.is_empty(), "rising cards share SAX words");
        let top = &hybrids[0];
        assert_eq!(top.structure.to_string(), "(:Card)-[:TX]->(:Merchant)");
        // all three cards rise monotonically: their windows share the
        // ascending word; 6 TX edges from word-bearing sources
        assert!(top.support >= 2);
        assert_eq!(top.word.len(), SaxParams::default().word_len);
    }

    #[test]
    fn empty_graph_yields_nothing() {
        let hg = HyGraph::new();
        assert!(frequent_edge_patterns(&hg, 1).is_empty());
        assert!(frequent_two_hop_patterns(&hg, 1).is_empty());
        assert!(hybrid_patterns(&hg, 1, 1, SaxParams::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn invalid_sax_params_error_not_panic() {
        let hg = fraud_like();
        let bad = SaxParams {
            alphabet: 9,
            ..SaxParams::default()
        };
        assert!(hybrid_patterns(&hg, 1, 1, bad).is_err());
    }
}
