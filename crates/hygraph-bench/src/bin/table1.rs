//! Regenerates **Table 1** of the paper: mean response time (MRS) and
//! coefficient of variation (CV) of the eight benchmark queries on the
//! all-in-graph baseline (the paper's Neo4j configuration) vs the
//! polyglot-persistence backend (the paper's TimeTravelDB).
//!
//! Run with: `cargo run --release -p hygraph-bench --bin table1 [--scale small|medium|large] [--parallel] [--persist]`
//!
//! `--parallel` fans the eight query trials across the configured
//! thread pool (`HYGRAPH_THREADS`) — same answers, faster suite,
//! noisier per-query timings.
//!
//! `--persist` additionally routes the polyglot ingest through the
//! durable storage engine (WAL + checkpoint) and reports the durable
//! write overhead and the cold-start recovery time next to the query
//! table.

use hygraph_bench::{time_ms, Scale};
use hygraph_datagen::bike::{self, BikeConfig};
use hygraph_persist::{PersistConfig, ShardedStore};
use hygraph_storage::harness::{measure_all, measure_all_parallel, render_table, Workload};
use hygraph_storage::{AllInGraphStore, PolyglotStore, StoreMutation};
use hygraph_types::Duration;

/// `--persist`: replays the dataset's observations through the durable
/// engine (group-committed batches) and times cold-start recovery, so
/// the WAL's write amplification is visible next to the query numbers.
fn durable_ingest_report(dataset: &bike::BikeDataset, volatile_load_ms: f64) {
    PersistConfig::new().checkpoint_every(0).install();
    let dir = std::env::temp_dir().join(format!("hygraph-table1-persist-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let (_, ingest_ms) = time_ms(|| {
        let mut store: ShardedStore<PolyglotStore> =
            ShardedStore::open(&dir, 1).expect("open durable store");
        for (i, &_station) in dataset.stations.iter().enumerate() {
            store
                .commit(StoreMutation::AddStation {
                    labels: vec!["Station".into()],
                    props: hygraph_types::PropertyMap::new(),
                })
                .expect("add station");
            let v = *store.get().stations().last().expect("just added");
            let batch: Vec<StoreMutation> = dataset.availability[i]
                .iter()
                .map(|(t, value)| StoreMutation::Observe {
                    station: v,
                    t,
                    value,
                })
                .collect();
            store.commit_batch(batch).expect("observe batch");
        }
        store.checkpoint().expect("checkpoint");
        store.close().expect("close");
    });
    let (recover_ms, recovered_points) = {
        let (store, ms) =
            time_ms(|| ShardedStore::<PolyglotStore>::open(&dir, 1).expect("cold-start recovery"));
        let pts: usize = {
            let inner = store.get();
            inner
                .stations()
                .iter()
                .enumerate()
                .map(|(i, _)| dataset.availability[i].len())
                .sum()
        };
        (ms, pts)
    };
    println!(
        "durable ingest (WAL + checkpoint): {ingest_ms:.0} ms vs {volatile_load_ms:.0} ms volatile \
         ({:.1}x write overhead); cold-start recovery {recover_ms:.0} ms for {recovered_points} observations\n",
        ingest_ms / volatile_load_ms.max(0.001)
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn main() {
    let scale = Scale::from_args();
    let (cfg, warmup, runs) = match scale {
        Scale::Small => (
            BikeConfig {
                stations: 30,
                days: 7,
                tick: Duration::from_mins(15),
                avg_degree: 5,
                seed: 42,
            },
            1,
            5,
        ),
        Scale::Medium => (
            BikeConfig {
                stations: 200,
                days: 30,
                tick: Duration::from_mins(5),
                avg_degree: 6,
                seed: 42,
            },
            2,
            10,
        ),
        Scale::Large => (
            BikeConfig {
                stations: 500,
                days: 60,
                tick: Duration::from_mins(5),
                avg_degree: 6,
                seed: 42,
            },
            2,
            10,
        ),
    };

    println!(
        "Table 1 reproduction — bike-sharing dataset: {} stations, {} days @ {} ticks",
        cfg.stations, cfg.days, cfg.tick
    );
    let (dataset, gen_ms) = time_ms(|| bike::generate(cfg));
    let points = dataset.points_per_station() * cfg.stations;
    println!(
        "generated {points} observations in {gen_ms:.0} ms ({} per station)",
        dataset.points_per_station()
    );

    let (aig, load_aig_ms) = time_ms(|| AllInGraphStore::load(&dataset));
    println!(
        "loaded all-in-graph store in {load_aig_ms:.0} ms ({} observation properties) — the paper's 'high write overhead'",
        aig.observation_property_count()
    );
    let (poly, load_poly_ms) = time_ms(|| PolyglotStore::load(&dataset));
    println!("loaded polyglot store in {load_poly_ms:.0} ms (chunked, 1-day partitions)\n");

    if std::env::args().any(|a| a == "--persist") {
        durable_ingest_report(&dataset, load_poly_ms);
    }

    let parallel_harness = std::env::args().any(|a| a == "--parallel");
    let w = Workload::for_dataset(&dataset);
    let (stats_aig, stats_poly) = if parallel_harness {
        println!(
            "parallel harness: query trials fan out over {} thread(s)\n",
            hygraph_types::parallel::configured_threads()
        );
        (
            measure_all_parallel(&aig, &w, warmup, runs),
            measure_all_parallel(&poly, &w, warmup, runs),
        )
    } else {
        (
            measure_all(&aig, &w, warmup, runs),
            measure_all(&poly, &w, warmup, runs),
        )
    };

    // correctness guard: identical answers
    for (a, p) in stats_aig.iter().zip(&stats_poly) {
        assert!(
            (a.checksum - p.checksum).abs() < 1e-6 * a.checksum.abs().max(1.0),
            "{}: backends disagree ({} vs {})",
            a.query.name(),
            a.checksum,
            p.checksum
        );
    }

    println!("{}", render_table(&stats_aig, &stats_poly));
    println!(
        "paper reference (Neo4j vs TTDB, ms): Q1 3.4/4.3 · Q2 41/7 · Q3 56/20 · \
         Q4 31109/72 · Q5 73815/63 · Q6 73447/65 · Q7 48299/48 · Q8 54494/49"
    );
    println!(
        "expected shape: near-parity on the point-range Q1, growing wins for the \
         polyglot store on filtered/aggregate queries, and orders of magnitude on \
         the all-station aggregates Q4–Q8."
    );
}
