//! Hybrid analytics over HyGraph instances — the `HyGraphToHyGraph`
//! operator family (paper §5 Figure 4, §6 roadmap).
//!
//! | paper concept | module |
//! |---|---|
//! | `metricEvolution` (degree / PageRank / community id over time, stored back as series properties) | [`metric_evolution`] |
//! | hybrid embeddings (FastRP structure + PCA series features) + vector similarity (the GraphRAG hook) | [`embedding`] |
//! | hybrid clustering (k-means over structure ⊕ series features) | [`cluster`] |
//! | cluster classification ("ordinary" / "suspicious") + instance annotation | [`classify`] |
//! | community-contextual anomaly detection (kills graph-only false positives) | [`detect`] |
//! | hybrid frequent-pattern mining (subgraph patterns × SAX sequences) | [`mining`] |
//! | the Figure-4 end-to-end fraud pipeline | [`pipeline`] |
//! | the four hybrid operators (Q1 hybrid matching, Q2 hybrid aggregation, Q3 correlation reachability, Q4 segmentation snapshots) and the vertex → series lookup the modules above share | [`hybrid`] |

pub mod classify;
pub mod cluster;
pub mod detect;
pub mod embedding;
pub mod evaluate;
pub mod hybrid;
pub mod metric_evolution;
pub mod mining;
pub mod pipeline;
