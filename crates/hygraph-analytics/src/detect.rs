//! Community-contextual anomaly detection (Table 2, row D, hybridised).
//!
//! The paper: "HyGraph exploits such a duality to enrich anomaly
//! detection with contextual data from graph communities". The idea:
//! a raw series anomaly is *suspicious* only if the behaviour is also
//! anomalous **relative to the entity's community** — an entity whose
//! whole community behaves the same way (e.g. business accounts doing
//! daily bulk purchases) is a false positive.

use crate::hybrid::vertex_series;
use hygraph_core::HyGraph;
use hygraph_graph::algorithms::community::{louvain, Communities};
use hygraph_ts::ops::{anomaly, features, stats};
use hygraph_types::VertexId;
use std::collections::HashMap;

/// A contextualised detection result for one vertex.
#[derive(Clone, Debug)]
pub struct ContextualAnomaly {
    /// The vertex.
    pub vertex: VertexId,
    /// The vertex's community.
    pub community: usize,
    /// Raw series anomaly score (max |z| of its own series).
    pub raw_score: f64,
    /// How far the vertex's behaviour deviates from its community's
    /// typical behaviour (z-score of its feature vector distance).
    pub community_deviation: f64,
    /// Final verdict: anomalous both on its own series *and* relative to
    /// its community.
    pub confirmed: bool,
}

/// Configuration for [`contextual_anomalies`].
#[derive(Clone, Copy, Debug)]
pub struct DetectConfig {
    /// Raw z-score threshold on a vertex's own series.
    pub raw_threshold: f64,
    /// Community-deviation threshold (in community-distance z-scores).
    pub community_threshold: f64,
    /// Louvain passes for community detection.
    pub louvain_passes: usize,
}

impl Default for DetectConfig {
    fn default() -> Self {
        Self {
            raw_threshold: 3.0,
            community_threshold: 1.5,
            louvain_passes: 20,
        }
    }
}

/// Runs the hybrid detector over all vertices with an associated series.
///
/// Pipeline: Louvain communities on the topology → per-vertex raw
/// anomaly score → per-community feature baseline → confirmation of
/// vertices that deviate on both axes.
pub fn contextual_anomalies(hg: &HyGraph, cfg: DetectConfig) -> Vec<ContextualAnomaly> {
    let _t = hygraph_metrics::OpTimer::new(hygraph_metrics::OpClass::DDetect);
    let communities: Communities = louvain(hg.topology(), cfg.louvain_passes);

    // collect vertices with series + their features
    let mut entries: Vec<(VertexId, usize, f64, Vec<f64>)> = Vec::new();
    let mut ids: Vec<VertexId> = hg.topology().vertex_ids().collect();
    ids.sort_unstable();
    for v in ids {
        let Some(series) = vertex_series(hg, v) else {
            continue;
        };
        let raw = anomaly::zscore(&series, 0.0)
            .into_iter()
            .map(|a| a.score)
            .fold(0.0f64, f64::max);
        let feats = features::feature_vector(&series).to_vec();
        let comm = communities.of(v).unwrap_or(usize::MAX);
        entries.push((v, comm, raw, feats));
    }

    // per-community centroid of feature vectors
    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, (_, comm, _, _)) in entries.iter().enumerate() {
        groups.entry(*comm).or_default().push(i);
    }
    let mut deviation = vec![0.0f64; entries.len()];
    for members in groups.values() {
        if members.len() < 2 {
            // singleton community: no peer baseline; deviation stays 0 so
            // the community axis neither confirms nor clears it — fall
            // back to raw-only via the confirmed rule below
            continue;
        }
        let dim = entries[members[0]].3.len();
        let mut centroid = vec![0.0; dim];
        for &i in members {
            for (c, x) in centroid.iter_mut().zip(&entries[i].3) {
                *c += x;
            }
        }
        centroid.iter_mut().for_each(|c| *c /= members.len() as f64);
        let dists: Vec<f64> = members
            .iter()
            .map(|&i| features::euclidean(&entries[i].3, &centroid))
            .collect();
        let mean = stats::mean(&dists).unwrap_or(0.0);
        let sd = stats::stddev(&dists).unwrap_or(0.0);
        for (&i, &d) in members.iter().zip(&dists) {
            deviation[i] = if sd > f64::EPSILON {
                (d - mean) / sd
            } else {
                0.0
            };
        }
    }

    entries
        .into_iter()
        .enumerate()
        .map(|(i, (vertex, community, raw_score, _))| {
            let community_deviation = deviation[i];
            let in_peer_group = groups.get(&community).is_some_and(|m| m.len() >= 2);
            let confirmed = raw_score > cfg.raw_threshold
                && (!in_peer_group || community_deviation > cfg.community_threshold);
            ContextualAnomaly {
                vertex,
                community,
                raw_score,
                community_deviation,
                confirmed,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_ts::TimeSeries;
    use hygraph_types::{props, Duration, Timestamp};

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn series(f: impl FnMut(usize) -> f64) -> TimeSeries {
        TimeSeries::generate(ts(0), Duration::from_millis(1), 100, f)
    }

    /// Community A: 4 smooth entities + 1 bursty (true anomaly).
    /// Community B: 4 entities that ALL burst the same way (peer-normal
    /// behaviour — no confirmation).
    fn instance() -> (HyGraph, Vec<VertexId>, Vec<VertexId>) {
        let mut hg = HyGraph::new();
        let add = |hg: &mut HyGraph, name: String, s: &TimeSeries| {
            let sid = hg.add_univariate_series(&name, s);
            hg.add_ts_vertex(["C"], sid).unwrap()
        };
        let mut comm_a = Vec::new();
        for i in 0..4 {
            let s = series(move |k| 10.0 + ((k * (i + 3)) % 7) as f64 * 0.1);
            comm_a.push(add(&mut hg, format!("a{i}"), &s));
        }
        let burst = series(|k| if (50..54).contains(&k) { 500.0 } else { 10.0 });
        comm_a.push(add(&mut hg, "a_burst".into(), &burst));

        let mut comm_b = Vec::new();
        for i in 0..4 {
            let s = series(move |k| {
                if (50..54).contains(&k) {
                    480.0 + i as f64
                } else {
                    12.0
                }
            });
            comm_b.push(add(&mut hg, format!("b{i}"), &s));
        }
        // densely connect each community
        for set in [&comm_a, &comm_b] {
            for i in 0..set.len() {
                for j in (i + 1)..set.len() {
                    hg.add_pg_edge(set[i], set[j], ["E"], props! {}).unwrap();
                }
            }
        }
        // a single bridge
        hg.add_pg_edge(comm_a[0], comm_b[0], ["BRIDGE"], props! {})
            .unwrap();
        (hg, comm_a, comm_b)
    }

    #[test]
    fn confirms_true_anomaly_and_clears_peer_normal_bursts() {
        let (hg, comm_a, comm_b) = instance();
        let results = contextual_anomalies(&hg, DetectConfig::default());
        let by_vertex: HashMap<VertexId, &ContextualAnomaly> =
            results.iter().map(|r| (r.vertex, r)).collect();
        // the bursty vertex in the smooth community is confirmed
        let true_anom = comm_a[4];
        assert!(
            by_vertex[&true_anom].confirmed,
            "bursty-in-smooth-community must be confirmed: {:?}",
            by_vertex[&true_anom]
        );
        // smooth members are not confirmed
        for &v in &comm_a[..4] {
            assert!(!by_vertex[&v].confirmed, "smooth member flagged: {v}");
        }
        // community-B members all burst: raw score is high but the
        // community context clears them
        for &v in &comm_b {
            let r = by_vertex[&v];
            assert!(r.raw_score > 3.0, "B members do have raw bursts");
            assert!(!r.confirmed, "peer-normal burst must be cleared: {r:?}");
        }
    }

    #[test]
    fn vertices_without_series_are_skipped() {
        let mut hg = HyGraph::new();
        hg.add_pg_vertex(["X"], props! {});
        let results = contextual_anomalies(&hg, DetectConfig::default());
        assert!(results.is_empty());
    }

    #[test]
    fn singleton_community_falls_back_to_raw() {
        let mut hg = HyGraph::new();
        let s = series(|k| if k == 50 { 400.0 } else { 1.0 });
        let sid = hg.add_univariate_series("lone", &s);
        let v = hg.add_ts_vertex(["C"], sid).unwrap();
        let results = contextual_anomalies(&hg, DetectConfig::default());
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].vertex, v);
        assert!(results[0].confirmed, "no peers: raw anomaly stands");
    }
}
