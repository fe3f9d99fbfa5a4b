//! The Figure-4 end-to-end fraud pipeline.
//!
//! The paper's running example, solved the HyGraph way:
//!
//! 1. **Graph rule** (Listing 1): users with ≥3 high-amount transactions
//!    to co-located merchants within one hour — flags fraudsters *and*
//!    benign bulk shoppers (false positives).
//! 2. **Series rule** (Listing 2): global z-score burst detection on each
//!    card's spending series — misses nothing bursty but knows no
//!    structure.
//! 3. **Hybrid refinement**: a graph-rule hit is *confirmed* only when
//!    the temporal evidence agrees — the spending series shows a burst,
//!    or the structural pattern is a one-off rather than a recurring
//!    (e.g. daily restock) routine. This is what clears "User 3" and
//!    keeps "User 1" in the paper's narrative.
//! 4. **Cluster & annotate**: users are clustered on hybrid embeddings,
//!    clusters are classified ordinary/suspicious by mean confirmed
//!    score, and verdict subgraphs are written back to the instance.

use crate::classify::{self, ClusterVerdict};
use crate::cluster;
use crate::embedding::{self, FastRpConfig};
use crate::hybrid::vertex_series;
use hygraph_core::{ElementRef, HyGraph};
use hygraph_ts::ops::anomaly;
use hygraph_types::{Duration, Result, SubgraphId, Timestamp, Value, VertexId};
use std::collections::HashMap;

/// Pipeline configuration (thresholds of the paper's Listing 1/2).
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Listing-1 amount threshold.
    pub amount_threshold: f64,
    /// Listing-1 merchant co-location radius (same units as merchant
    /// `x`/`y` properties).
    pub distance_threshold: f64,
    /// Listing-1 time window.
    pub window: Duration,
    /// Listing-1 minimum distinct merchants.
    pub min_merchants: usize,
    /// Listing-2 z-score threshold.
    pub zscore_threshold: f64,
    /// A structural pattern recurring on at least this many distinct
    /// days counts as a routine (clears the graph flag absent a burst).
    pub recurrence_days: usize,
    /// Number of clusters for the final annotation step.
    pub clusters: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            amount_threshold: 1000.0,
            distance_threshold: 1000.0,
            window: Duration::from_hours(1),
            min_merchants: 3,
            zscore_threshold: 3.0,
            recurrence_days: 2,
            clusters: 4,
        }
    }
}

/// Per-user outcome of the pipeline.
#[derive(Clone, Debug)]
pub struct UserVerdict {
    /// The user vertex.
    pub user: VertexId,
    /// Flagged by the graph-only rule (Listing 1).
    pub graph_flagged: bool,
    /// Flagged by the series-only rule (Listing 2).
    pub series_flagged: bool,
    /// On how many distinct days the structural pattern fired.
    pub pattern_days: usize,
    /// Final hybrid verdict.
    pub suspicious: bool,
}

/// The full pipeline output.
pub struct PipelineReport {
    /// Per-user verdicts (user vertex order).
    pub verdicts: Vec<UserVerdict>,
    /// The cluster-level classification written to the instance.
    pub clusters: Vec<ClusterVerdict>,
    /// Ids of the annotation subgraphs created.
    pub annotations: Vec<SubgraphId>,
}

impl PipelineReport {
    /// Verdict lookup by user vertex.
    pub fn verdict(&self, user: VertexId) -> Option<&UserVerdict> {
        self.verdicts.iter().find(|v| v.user == user)
    }
}

/// One observed transaction of a user.
struct TxObs {
    at: Timestamp,
    amount: f64,
    merchant: VertexId,
    pos: (f64, f64),
}

/// Runs the full pipeline on a fraud-shaped instance (`User`, `USES`,
/// `CreditCard`, `TX`, `Merchant` with `x`/`y` and TX `amount`).
pub fn run(hg: &mut HyGraph, cfg: PipelineConfig) -> Result<PipelineReport> {
    let g = hg.topology();
    // gather users and their transactions through their cards
    let mut users: Vec<VertexId> = g
        .vertices()
        .filter(|v| v.has_label("User"))
        .map(|v| v.id)
        .collect();
    users.sort_unstable();

    let merchant_pos = |hg: &HyGraph, m: VertexId| -> Option<(f64, f64)> {
        let props = hg.props(ElementRef::Vertex(m)).ok()?;
        Some((
            props.static_value("x").and_then(Value::as_f64)?,
            props.static_value("y").and_then(Value::as_f64)?,
        ))
    };

    let mut verdicts = Vec::with_capacity(users.len());
    let mut confirmed_score: HashMap<VertexId, f64> = HashMap::new();

    for &user in &users {
        // the user's cards
        let cards: Vec<VertexId> = hg
            .topology()
            .neighbors_out(user)
            .filter(|(e, _)| e.has_label("USES"))
            .map(|(_, c)| c)
            .collect();
        // transactions across all cards
        let mut txs: Vec<TxObs> = Vec::new();
        for &card in &cards {
            for (e, m) in hg.topology().neighbors_out(card) {
                if !e.has_label("TX") {
                    continue;
                }
                let Some(amount) = e.props.static_value("amount").and_then(Value::as_f64) else {
                    continue;
                };
                let Some(pos) = merchant_pos(hg, m) else {
                    continue;
                };
                txs.push(TxObs {
                    at: e.validity.start,
                    amount,
                    merchant: m,
                    pos,
                });
            }
        }
        txs.sort_by_key(|t| t.at);

        // Listing 1: sliding window of high-amount txs to co-located,
        // distinct merchants
        let fire_days = pattern_fire_days(&txs, &cfg);
        let graph_flagged = !fire_days.is_empty();

        // Listing 2: burst on any card's series
        let series_flagged = cards.iter().any(|&c| {
            vertex_series(hg, c)
                .map(|s| !anomaly::zscore(&s, cfg.zscore_threshold).is_empty())
                .unwrap_or(false)
        });

        // hybrid refinement: evidence from BOTH worlds. A structural hit
        // is confirmed by a spending burst or by being a one-off (not a
        // recurring routine); a series burst alone (one big legitimate
        // purchase) is cleared absent the structural pattern.
        let recurring = fire_days.len() >= cfg.recurrence_days;
        let suspicious = graph_flagged && (series_flagged || !recurring);

        if suspicious {
            confirmed_score.insert(user, 1.0);
        }
        verdicts.push(UserVerdict {
            user,
            graph_flagged,
            series_flagged,
            pattern_days: fire_days.len(),
            suspicious,
        });
    }

    // cluster users on hybrid features: the structural FastRP embedding
    // of the user plus the temporal feature vector of its card's series
    // ("analyze transactional interactions and account balance to
    // produce enriched clusters")
    let structural = embedding::fastrp(hg, FastRpConfig::default());
    let mut temporal_rows: Vec<Vec<f64>> = users
        .iter()
        .map(|&user| {
            let card_series = hg
                .topology()
                .neighbors_out(user)
                .filter(|(e, _)| e.has_label("USES"))
                .find_map(|(_, c)| vertex_series(hg, c));
            card_series
                .map(|s| hygraph_ts::ops::features::feature_vector(&s).to_vec())
                .unwrap_or_else(|| vec![0.0; hygraph_ts::ops::features::FEATURE_DIM])
        })
        .collect();
    hygraph_ts::ops::features::normalize_columns(&mut temporal_rows);
    let user_emb: HashMap<VertexId, Vec<f64>> = users
        .iter()
        .zip(temporal_rows)
        .map(|(&user, temporal)| {
            let mut e = structural.get(&user).cloned().unwrap_or_default();
            // temporal behaviour dominates the clustering, structure
            // refines it
            e.iter_mut().for_each(|x| *x *= 0.25);
            e.extend(temporal);
            (user, e)
        })
        .collect();
    let clustering = cluster::kmeans(&user_emb, cfg.clusters, 50);
    let cluster_verdicts = classify::classify_clusters(&clustering, &confirmed_score, 0.5);
    let annotations = classify::annotate_instance(hg, &cluster_verdicts)?;

    Ok(PipelineReport {
        verdicts,
        clusters: cluster_verdicts,
        annotations,
    })
}

/// The distinct days on which the Listing-1 pattern fires for a user's
/// ordered transaction list.
fn pattern_fire_days(txs: &[TxObs], cfg: &PipelineConfig) -> Vec<Timestamp> {
    let mut days: Vec<Timestamp> = Vec::new();
    let day = Duration::from_days(1);
    for (i, anchor) in txs.iter().enumerate() {
        if anchor.amount <= cfg.amount_threshold {
            continue;
        }
        // window [anchor.at, anchor.at + window]
        let mut merchants: Vec<VertexId> = vec![anchor.merchant];
        for other in &txs[i + 1..] {
            if other.at - anchor.at > cfg.window {
                break;
            }
            if other.amount <= cfg.amount_threshold {
                continue;
            }
            let d = ((anchor.pos.0 - other.pos.0).powi(2) + (anchor.pos.1 - other.pos.1).powi(2))
                .sqrt();
            if d < cfg.distance_threshold {
                merchants.push(other.merchant);
            }
        }
        merchants.sort_unstable();
        merchants.dedup();
        if merchants.len() >= cfg.min_merchants {
            let bucket = anchor.at.truncate(day);
            if days.last() != Some(&bucket) {
                days.push(bucket);
            }
        }
    }
    days.dedup();
    days
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_datagen::fraud;

    #[test]
    fn figure2_story_reproduced() {
        let mut d = fraud::figure2_instance();
        let report = run(&mut d.hygraph, PipelineConfig::default()).unwrap();
        let u1 = report.verdict(d.users[0]).unwrap();
        let u2 = report.verdict(d.users[1]).unwrap();
        let u3 = report.verdict(d.users[2]).unwrap();
        // Listing 1 (graph-only) flags User 1 and User 3
        assert!(u1.graph_flagged, "User 1 graph-flagged");
        assert!(!u2.graph_flagged, "User 2 clean on graph");
        assert!(u3.graph_flagged, "User 3 graph-flagged (false positive)");
        // Listing 2 (series-only) flags User 1 only
        assert!(u1.series_flagged);
        assert!(!u2.series_flagged);
        assert!(!u3.series_flagged);
        // hybrid: User 1 suspicious, User 3 cleared (recurring routine)
        assert!(u1.suspicious, "User 1 confirmed");
        assert!(!u2.suspicious);
        assert!(
            !u3.suspicious,
            "User 3 cleared by recurrence + smooth series"
        );
        assert!(u3.pattern_days >= 2, "User 3's pattern recurs daily");
        // annotations written back
        assert!(!report.annotations.is_empty());
        assert!(d.hygraph.validate().is_ok());
    }

    #[test]
    fn scaled_dataset_accuracy() {
        let data = fraud::generate(fraud::FraudConfig {
            users: 80,
            merchants: 30,
            hours: 24 * 7,
            ..Default::default()
        });
        let mut hg = data.hygraph;
        let report = run(&mut hg, PipelineConfig::default()).unwrap();
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut fname = 0usize;
        for (i, &user) in data.users.iter().enumerate() {
            let v = report.verdict(user).expect("every user judged");
            let truth = data.fraudsters.contains(&i);
            match (v.suspicious, truth) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fname += 1,
                _ => {}
            }
        }
        let recall = tp as f64 / (tp + fname).max(1) as f64;
        let precision = tp as f64 / (tp + fp).max(1) as f64;
        assert!(recall >= 0.9, "recall {recall} (tp={tp}, fn={fname})");
        assert!(precision >= 0.9, "precision {precision} (tp={tp}, fp={fp})");
        // bulk shoppers must not be flagged (the false positives the
        // hybrid pipeline exists to remove)
        for &i in &data.bulk_shoppers {
            let v = report.verdict(data.users[i]).unwrap();
            assert!(!v.suspicious, "bulk shopper {i} wrongly flagged: {v:?}");
        }
    }

    #[test]
    fn graph_only_has_false_positives_hybrid_removes_them() {
        // the quantitative claim behind Figure 4
        let data = fraud::generate(fraud::FraudConfig {
            users: 80,
            merchants: 30,
            hours: 24 * 7,
            ..Default::default()
        });
        let mut hg = data.hygraph;
        let report = run(&mut hg, PipelineConfig::default()).unwrap();
        let graph_fp = data
            .bulk_shoppers
            .iter()
            .filter(|&&i| report.verdict(data.users[i]).unwrap().graph_flagged)
            .count();
        assert!(
            graph_fp > 0,
            "bulk shoppers should trip the graph-only rule"
        );
        let hybrid_fp = data
            .bulk_shoppers
            .iter()
            .filter(|&&i| report.verdict(data.users[i]).unwrap().suspicious)
            .count();
        assert_eq!(hybrid_fp, 0, "hybrid pipeline clears them");
    }

    #[test]
    fn series_only_false_positives_cleared() {
        // one-off big spenders burst on the series axis but lack the
        // structural co-location pattern: hybrid must clear them
        let data = fraud::generate(fraud::FraudConfig {
            users: 80,
            merchants: 30,
            hours: 24 * 7,
            ..Default::default()
        });
        let mut hg = data.hygraph;
        let report = run(&mut hg, PipelineConfig::default()).unwrap();
        assert!(!data.vacation_spenders.is_empty());
        for &i in &data.vacation_spenders {
            let v = report.verdict(data.users[i]).unwrap();
            assert!(v.series_flagged, "vacation spender {i} should burst");
            assert!(!v.graph_flagged, "no co-location run for {i}");
            assert!(!v.suspicious, "hybrid must clear {i}: {v:?}");
        }
    }

    #[test]
    fn empty_instance_runs() {
        let mut hg = HyGraph::new();
        let report = run(&mut hg, PipelineConfig::default()).unwrap();
        assert!(report.verdicts.is_empty());
    }
}
