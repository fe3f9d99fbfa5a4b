//! Output: the result line, the `--out` envelope, the `--repeat`
//! harness that runs fresh child processes and prints quartiles, and
//! `--compare`, which holds two envelopes against the bounds in
//! `BENCHMARK.json`.

use crate::json::{self, Json};
use crate::run::{self, Outcome};
use crate::stats;
use crate::workload::{Scale, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The benchmark's contract, compiled in so the binary, its schema test
/// and `--compare` can never disagree with the file they were built
/// beside.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Measured-window length when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Scratch directory (store directories, trace files): beside the
/// running binary, so inside cargo's target directory — within the
/// checkout, and already ignored by git wherever that directory is.
pub fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running binary");
    exe.parent()
        .expect("a binary lives in a directory")
        .join("e2e_scratch")
}

/// `{name: {value, unit}}`, the shape of the result line's `metrics`.
pub fn metrics_json(metrics: &[run::Metric]) -> Json {
    let entry = |&(name, value, unit): &run::Metric| {
        let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]);
        (name.to_string(), entry)
    };
    Json::Obj(metrics.iter().map(entry).collect())
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(&outcome.metrics)),
    ])
}

/// What an untraced run prints before its result line, so that a parent
/// `--repeat` process can keep the diagnostics in its envelope.
pub const DIAGNOSTICS_PREFIX: &str = "diagnostics ";

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The `--out` envelope: where, on what, with which fixed configuration
/// the results were measured, then the results per workload (one entry
/// per run).
pub fn envelope<'a>(
    seed: u64,
    scale: Scale,
    seconds: f64,
    results: impl IntoIterator<Item = (Workload, &'a Json)>,
) -> Json {
    let mut per_workload: Vec<(String, Json)> = Vec::new();
    for (workload, result) in results {
        match per_workload
            .iter_mut()
            .find(|(name, _)| name == workload.name())
        {
            Some((_, Json::Arr(runs))) => runs.push(result.clone()),
            _ => per_workload.push((workload.name().to_string(), Json::Arr(vec![result.clone()]))),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("bench", Json::str("e2e")),
        ("git_sha", Json::str(git_sha())),
        ("nproc", Json::Num(nproc as f64)),
        ("seed", Json::Num(seed as f64)),
        ("scale", Json::str(scale.name)),
        ("seconds", Json::Num(seconds)),
        (
            "config",
            Json::obj([
                ("shards", Json::Num(run::SHARDS as f64)),
                ("plan_cache", Json::Num(run::PLAN_CACHE as f64)),
                ("workers", Json::Num(run::WORKERS as f64)),
                ("queue_depth", Json::Num(run::QUEUE_DEPTH as f64)),
                ("history", Json::Bool(true)),
                ("metrics_registry", Json::Bool(true)),
                ("request_deadline_ms", Json::Num(0.0)),
                ("setups_per_run", Json::Num(run::SETUPS as f64)),
                ("recoveries_per_run", Json::Num(run::RECOVERIES as f64)),
            ]),
        ),
        (
            "hygraph_env",
            Json::Arr(run::hygraph_env().into_iter().map(Json::Str).collect()),
        ),
        ("workloads", Json::Obj(per_workload)),
    ])
}

/// Runs one workload in a fresh child process (the engine's metrics,
/// shard and net configurations are install-once per process), echoing
/// its output; returns its parsed result line.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    trace: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--scale", scale.name])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let mut result = json::parse(last).map_err(|e| format!("child printed no result line: {e}"))?;
    if !output.status.success() && result.get("correct") != Some(&Json::Bool(false)) {
        return Err(format!("child exited with {}", output.status));
    }
    let diagnostics = stdout
        .lines()
        .find_map(|line| line.strip_prefix(DIAGNOSTICS_PREFIX))
        .and_then(|text| json::parse(text).ok());
    if let (Json::Obj(fields), Some(diagnostics)) = (&mut result, diagnostics) {
        fields.push(("diagnostics".to_string(), diagnostics));
    }
    Ok(result)
}

/// `(name, unit, value per run)` of the runs' `metrics` or `diagnostics`.
fn metric_values<'a>(
    runs: impl IntoIterator<Item = &'a Json>,
    key: &str,
) -> Vec<(String, String, Vec<f64>)> {
    let mut out: Vec<(String, String, Vec<f64>)> = Vec::new();
    for run in runs {
        for (name, entry) in run.get(key).and_then(Json::as_obj).unwrap_or_default() {
            let Some(value) = entry.get("value").and_then(Json::as_f64) else {
                continue;
            };
            let unit = entry.get("unit").and_then(Json::as_str).unwrap_or_default();
            match out.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, values)) => values.push(value),
                None => out.push((name.clone(), unit.to_string(), vec![value])),
            }
        }
    }
    out
}

fn median_of(values: &[f64]) -> f64 {
    stats::median_of(values).unwrap_or(f64::NAN)
}

/// `--workload all` and `--repeat N`: every run in its own child
/// process, run `r` on seed `seed + r`. Prints per-metric median,
/// quartiles and spread when repeated; the last line aggregates every
/// workload as `<workload>.<metric>` medians.
pub fn drive_children(
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    scale: Scale,
    trace: bool,
    repeat: usize,
    out: Option<&Path>,
) -> Result<bool, String> {
    let mut results: Vec<(Workload, Json)> = Vec::new();
    for &workload in &workloads {
        for r in 0..repeat as u64 {
            results.push((
                workload,
                run_child(workload, seed + r, seconds, scale, trace)?,
            ));
        }
    }
    let mut combined = Vec::new();
    let (mut attempted, mut failed) = (0.0, 0.0);
    for &workload in &workloads {
        let runs: Vec<&Json> = results
            .iter()
            .filter(|(w, _)| *w == workload)
            .map(|(_, r)| r)
            .collect();
        for run in &runs {
            attempted += run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed += run.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
        }
        if repeat > 1 {
            println!(
                "e2e: {} over {repeat} runs (seeds {seed}..{})",
                workload.name(),
                seed + repeat as u64 - 1
            );
            println!(
                "  {:<40} {:>14} {:>14} {:>14} {:>8}",
                "metric", "q1", "median", "q3", "spread"
            );
        }
        for key in ["metrics", "diagnostics"] {
            for (name, unit, values) in metric_values(runs.iter().copied(), key) {
                if let Some([q1, q2, q3]) = stats::quartiles(&values) {
                    let spread = stats::spread(&values).unwrap_or(f64::NAN);
                    println!(
                        "  {name:<40} {q1:>14.5} {q2:>14.5} {q3:>14.5} {:>7.2}% {unit}",
                        spread * 100.0
                    );
                }
                if key == "metrics" {
                    let entry = Json::obj([
                        ("value", Json::Num(median_of(&values))),
                        ("unit", Json::Str(unit)),
                    ]);
                    combined.push((format!("{}.{name}", workload.name()), entry));
                }
            }
        }
    }
    if let Some(path) = out {
        let env = envelope(seed, scale, seconds, results.iter().map(|(w, r)| (*w, r)));
        std::fs::write(path, env.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let line = Json::obj([
        ("correct", Json::Bool(failed == 0.0)),
        ("attempted", Json::Num(attempted.max(1.0))),
        ("failed", Json::Num(failed)),
        ("metrics", Json::Obj(combined)),
    ]);
    println!("{}", line.render());
    Ok(failed == 0.0)
}

/// `(name, better-is-lower, bound)` of every end-to-end metric in
/// `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let contract = json::parse(BENCHMARK_JSON)?;
    let metrics = contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end")?;
    metrics
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

fn load_envelope(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--compare base new`: per workload row, each end-to-end metric's
/// ratio with its base and a verdict against its bound —
/// `regressed` (median worse by more than the bound), `unresolved`
/// (either side's run-to-run spread is wider than the bound, so the
/// runs cannot tell), else `ok`. Returns false if anything regressed.
pub fn compare(base: &Path, new: &Path) -> Result<bool, String> {
    let (base, new) = (load_envelope(base)?, load_envelope(new)?);
    let bounds = bounds()?;
    let mut regressed = false;
    for workload in Workload::ALL {
        let runs = |env: &Json| -> Vec<(String, String, Vec<f64>)> {
            let runs = env.get("workloads").and_then(|w| w.get(workload.name()));
            metric_values(runs.and_then(Json::as_arr).unwrap_or_default(), "metrics")
        };
        let (b, n) = (runs(&base), runs(&new));
        if b.is_empty() || n.is_empty() {
            continue;
        }
        println!("{}", workload.name());
        for (name, lower_is_better, bound) in &bounds {
            let find = |side: &[(String, String, Vec<f64>)]| {
                side.iter()
                    .find(|(m, _, _)| m == name)
                    .map(|(_, unit, v)| (unit.clone(), v.clone()))
            };
            let (Some((unit, bv)), Some((_, nv))) = (find(&b), find(&n)) else {
                continue;
            };
            let (bm, nm) = (median_of(&bv), median_of(&nv));
            let worse = if *lower_is_better {
                nm / bm - 1.0
            } else {
                1.0 - nm / bm
            };
            let spread = [&bv, &nv]
                .iter()
                .filter_map(|v| stats::spread(v))
                .fold(0.0, f64::max);
            let verdict = if spread > *bound {
                "unresolved"
            } else if worse > *bound {
                regressed = true;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "  {name:<24} {nm:>14.5} / {bm:>14.5} {unit:<4} = {:>7.4}  bound {:>4.0}%  spread {:>5.1}%  {verdict}",
                nm / bm,
                bound * 100.0,
                spread * 100.0
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(value: f64) -> Json {
        result_json(&Outcome {
            attempted: 10,
            failed: 0,
            metrics: vec![("ops_per_s", value, "1/s"), ("read_p50_ms", 1.0, "ms")],
            diagnostics: vec![],
            notes: vec![],
        })
    }

    #[test]
    fn envelope_groups_runs_and_compare_judges_against_the_bounds() {
        let dir = scratch_root().join(format!("report-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, values: &[f64]| {
            let runs: Vec<Json> = values.iter().map(|&v| result(v)).collect();
            let env = envelope(
                1,
                Scale::SMOKE,
                1.0,
                runs.iter().map(|r| (Workload::ReadHybrid, r)),
            );
            assert_eq!(
                env.get("workloads")
                    .unwrap()
                    .get("read_hybrid")
                    .unwrap()
                    .as_arr()
                    .unwrap()
                    .len(),
                values.len()
            );
            let path = dir.join(name);
            std::fs::write(&path, env.render()).unwrap();
            path
        };
        let base = write("base.json", &[100.0, 101.0, 99.0]);
        // higher is better: 3 % down is inside a 10 % bound, 30 % down is not
        assert_eq!(
            compare(&base, &write("same.json", &[97.0, 98.0, 96.0])),
            Ok(true)
        );
        assert_eq!(
            compare(&base, &write("slow.json", &[70.0, 71.0, 69.0])),
            Ok(false)
        );
        // a spread wider than the bound resolves nothing, so nothing regressed
        assert_eq!(
            compare(&base, &write("noisy.json", &[40.0, 70.0, 100.0])),
            Ok(true)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
