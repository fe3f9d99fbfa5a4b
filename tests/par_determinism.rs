//! Cross-crate determinism properties for the parallel execution layer.
//!
//! Every parallelized path in the workspace promises *bit-identical*
//! results to its sequential counterpart, for any thread count. These
//! properties pin that promise end-to-end on randomly generated inputs
//! for the three flagship paths: PageRank (graph layer), HyQL execution
//! (query layer), and the pairwise correlation matrix (ts layer).
//!
//! The thread pool is forced to 4 threads with a size-1 sequential
//! cutoff, so the `Parallel` runs genuinely chunk work across threads
//! even on single-core CI machines and tiny sampled inputs.

use hygraph::graph::algorithms::pagerank::{pagerank, PageRankConfig};
use hygraph::prelude::*;
use hygraph::query_engine::{execute, parser};
use hygraph::ts::ops::correlate;
use hygraph::types::parallel::{ExecMode, ParallelConfig};
use proptest::prelude::*;

fn force_threads() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        ParallelConfig::new().threads(4).seq_threshold(1).install();
    });
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Uniform in [0, 1) with full f64 mantissa randomness.
fn unit_f64(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
}

proptest! {
    #[test]
    fn pagerank_parallel_matches_sequential(
        n in 2usize..40,
        extra in 0usize..80,
        seed in 1u64..1_000_000,
    ) {
        force_threads();
        let mut g = TemporalGraph::new();
        let vs: Vec<VertexId> = (0..n).map(|_| g.add_vertex(["N"], props! {})).collect();
        // ring keeps the graph connected; extra random edges add skew,
        // duplicates/self-loops are allowed to fail silently
        for i in 0..n {
            let _ = g.add_edge(vs[i], vs[(i + 1) % n], ["E"], props! {});
        }
        let mut st = seed | 1;
        for _ in 0..extra {
            let a = (xorshift(&mut st) as usize) % n;
            let b = (xorshift(&mut st) as usize) % n;
            let _ = g.add_edge(vs[a], vs[b], ["E"], props! {});
        }
        let seq = pagerank(&g, PageRankConfig::default(), ExecMode::Sequential);
        let par = pagerank(&g, PageRankConfig::default(), ExecMode::Parallel);
        prop_assert_eq!(seq.len(), par.len());
        for (v, s) in &seq {
            prop_assert_eq!(s.to_bits(), par[v].to_bits(), "rank of {:?} drifted", v);
        }
    }

    #[test]
    fn correlation_matrix_parallel_matches_sequential(
        k in 2usize..12,
        len in 4usize..40,
        seed in 1u64..1_000_000,
    ) {
        force_threads();
        let mut st = seed | 1;
        let cols: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..len).map(|_| unit_f64(&mut st) * 10.0 - 5.0).collect())
            .collect();
        let refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let seq = correlate::correlation_matrix(&refs, ExecMode::Sequential);
        let par = correlate::correlation_matrix(&refs, ExecMode::Parallel);
        prop_assert_eq!(seq.len(), par.len());
        for (rs, rp) in seq.iter().zip(&par) {
            prop_assert_eq!(rs.len(), rp.len());
            for (a, b) in rs.iter().zip(rp) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn query_execute_parallel_matches_sequential(
        n_users in 1usize..8,
        n_cards in 1usize..4,
        seed in 1u64..1_000_000,
    ) {
        force_threads();
        let mut st = seed | 1;
        let mut hg = HyGraph::new();
        for u in 0..n_users {
            let user = hg.add_pg_vertex(["User"], props! {"name" => format!("u{u}")});
            for _ in 0..n_cards {
                let base = unit_f64(&mut st) * 1000.0;
                let s = TimeSeries::generate(
                    Timestamp::ZERO,
                    Duration::from_hours(1),
                    24,
                    move |h| base + h as f64,
                );
                let sid = hg.add_univariate_series("spend", &s);
                let card = hg.add_ts_vertex(["Card"], sid).unwrap();
                let fee = (unit_f64(&mut st) * 10.0 * 100.0).round() / 100.0;
                hg.add_pg_edge(user, card, ["USES"], props! {"fee" => fee}).unwrap();
            }
        }
        // a flat query mixing WHERE, a per-row series aggregate, and
        // ordering — exercises the per-binding parallel filter/project
        let q_flat = parser::parse(
            "MATCH (u:User)-[e:USES]->(c:Card) \
             WHERE MEAN(DELTA(c) IN [0, 86400000)) > 300 \
             RETURN u.name AS who, e.fee AS fee ORDER BY who, fee",
        ).unwrap();
        // a grouped query — exercises parallel pre-aggregation eval with
        // the sequential in-order group fold
        let q_grouped = parser::parse(
            "MATCH (u:User)-[e:USES]->(c:Card) \
             RETURN u.name AS who, COUNT(c) AS cards, SUM(e.fee) AS fees \
             ORDER BY who",
        ).unwrap();
        for q in [&q_flat, &q_grouped] {
            let seq = execute(&hg, q, ExecMode::Sequential).unwrap();
            let par = execute(&hg, q, ExecMode::Parallel).unwrap();
            prop_assert_eq!(&seq.columns, &par.columns);
            prop_assert_eq!(&seq.rows, &par.rows);
        }
    }
}
