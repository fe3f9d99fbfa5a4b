//! Cold-start recovery benchmark for the durable storage engine.
//!
//! Compares two ways of bringing a one-shard HyGraph store back from
//! disk:
//!
//! 1. **checkpoint-only** — the log was checkpointed at the tip, so
//!    recovery is one binary snapshot load;
//! 2. **checkpoint + WAL replay** — the checkpoint sits at half the
//!    workload and the tail is replayed frame by frame.
//!
//! Run with: `cargo run --release -p hygraph-bench --bin recovery
//! [--scale small|medium|large]`
//!
//! Emits `BENCH_PR2.json` in the working directory (override with
//! `BENCH_PR2_JSON=<path>`) so CI and later PRs can diff the numbers.

use hygraph_bench::{time_ms, time_stats, Scale};
use hygraph_core::HyGraph;
use hygraph_persist::{HgMutation, PersistConfig, ShardedStore};
use hygraph_types::{Label, SeriesId, Timestamp};

/// The ingest workload: one series + ts-vertex per station, then
/// round-robin appends — the R3 continuous-ingest shape.
fn workload(stations: usize, points: usize) -> Vec<HgMutation> {
    let mut ops = Vec::with_capacity(stations * (2 + points));
    for k in 0..stations {
        ops.push(HgMutation::AddSeries {
            names: vec!["availability".into()],
            rows: vec![],
        });
        ops.push(HgMutation::AddTsVertex {
            labels: vec![Label::new("Station"), Label::new(format!("Zone{}", k % 8))],
            series: SeriesId::new(k as u64),
        });
    }
    for p in 0..points {
        for k in 0..stations {
            ops.push(HgMutation::Append {
                series: SeriesId::new(k as u64),
                t: Timestamp::from_millis(p as i64 * 300_000),
                row: vec![((p * 31 + k * 7) % 40) as f64],
            });
        }
    }
    ops
}

/// Total size of the `*.ext` files under `dir`, shard streams included.
fn dir_bytes(dir: &std::path::Path, ext: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            if path.is_dir() {
                dir_bytes(&path, ext)
            } else if path.extension().is_some_and(|x| x == ext) {
                e.metadata().map_or(0, |m| m.len())
            } else {
                0
            }
        })
        .sum()
}

fn open(dir: &std::path::Path) -> ShardedStore<HyGraph> {
    ShardedStore::open(dir, 1).expect("open")
}

fn main() {
    let scale = Scale::from_args();
    let (stations, points, runs) = match scale {
        Scale::Small => (10, 50, 5),
        Scale::Medium => (50, 200, 10),
        Scale::Large => (200, 500, 10),
    };
    // manual checkpoints only — the scenarios place them deliberately
    PersistConfig::new().checkpoint_every(0).install();

    let ops = workload(stations, points);
    println!(
        "recovery benchmark — {} stations × {} points = {} logged mutations",
        stations,
        points,
        ops.len()
    );

    let base = std::env::temp_dir().join(format!("hygraph-bench-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&base).expect("scratch dir");
    let ckpt_dir = base.join("checkpoint-only");
    let replay_dir = base.join("checkpoint-replay");

    // -- populate: checkpoint-at-tip log ---------------------------------
    let (_, ms) = time_ms(|| {
        let mut store = open(&ckpt_dir);
        store.commit_batch(ops.clone()).expect("ingest");
        store.checkpoint().expect("checkpoint");
        store.close().expect("close");
    });
    println!("ingested checkpoint-only log in {ms:.0} ms");

    // -- populate: checkpoint-at-half log, tail lives in the WAL ---------
    let half = ops.len() / 2;
    let replayed = ops.len() - half;
    let (_, ms) = time_ms(|| {
        let mut store = open(&replay_dir);
        store.commit_batch(ops[..half].to_vec()).expect("ingest");
        store.checkpoint().expect("checkpoint");
        store.commit_batch(ops[half..].to_vec()).expect("ingest");
        store.close().expect("close");
    });
    println!("ingested checkpoint+WAL log in {ms:.0} ms ({replayed} frames left to replay)");

    let golden = open(&ckpt_dir).state_bytes();

    // -- measure ---------------------------------------------------------
    let (ckpt_ms, ckpt_cv) = time_stats(runs, || {
        let store = open(&ckpt_dir);
        store.get().vertex_count() as f64
    });
    let (replay_ms, replay_cv) = time_stats(runs, || {
        let store = open(&replay_dir);
        store.get().vertex_count() as f64
    });

    // correctness guard: both roads lead to the same committed state
    {
        let a = open(&ckpt_dir);
        let b = open(&replay_dir);
        assert_eq!(a.state_bytes(), golden, "checkpoint-only state diverged");
        assert_eq!(b.state_bytes(), golden, "replayed state diverged");
    }

    let ckpt_bytes = dir_bytes(&ckpt_dir, "ck");
    let wal_bytes = dir_bytes(&replay_dir, "seg") + dir_bytes(&replay_dir, "ck");

    println!("\ncold-start recovery, mean of {runs} runs:");
    println!("  checkpoint only      {ckpt_ms:9.2} ms  (cv {ckpt_cv:4.1}%)  [{ckpt_bytes} bytes]");
    println!("  checkpoint + replay  {replay_ms:9.2} ms  (cv {replay_cv:4.1}%)  [{wal_bytes} bytes, {replayed} frames]");

    let scale_name = match scale {
        Scale::Small => "small",
        Scale::Medium => "medium",
        Scale::Large => "large",
    };
    let json = format!(
        "{{\n  \"bench\": \"recovery\",\n  \"scale\": \"{scale_name}\",\n  \"mutations\": {},\n  \
         \"checkpoint_only\": {{\"mean_ms\": {ckpt_ms:.3}, \"cv_pct\": {ckpt_cv:.1}, \"bytes\": {ckpt_bytes}}},\n  \
         \"checkpoint_wal_replay\": {{\"mean_ms\": {replay_ms:.3}, \"cv_pct\": {replay_cv:.1}, \"bytes\": {wal_bytes}, \"replayed_frames\": {replayed}}}\n}}\n",
        ops.len()
    );
    let path = std::env::var("BENCH_PR2_JSON").unwrap_or_else(|_| "BENCH_PR2.json".to_string());
    std::fs::write(&path, json).expect("write bench json");
    println!("\nwrote {path}");

    std::fs::remove_dir_all(&base).ok();
}
