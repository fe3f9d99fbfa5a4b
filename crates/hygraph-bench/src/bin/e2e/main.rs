//! `e2e` — the repository's benchmark: one seeded, closed-loop workload
//! driver over the wire protocol, with a per-layer trace taken from
//! outside each crate. See `README.md` in this directory.
//!
//! ```text
//! e2e --workload <name|all> --seed <u64> [--seconds <s>] [--trace [0|1]]
//!     [--scale full|smoke] [--repeat <n>] [--out <file>]
//! e2e --compare <base.json> <new.json>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the process exits
//! non-zero if any answer or state was wrong.

mod check;
mod json;
mod layers;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use run::RunConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Scale, Workload};

/// Parsed command line.
struct Args {
    /// `None` = all four, each in a fresh child process.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    repeat: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "usage: e2e --workload <read_hybrid|ingest_durable|mixed_live|asof_read|all> \
--seed <u64> [--seconds <s>] [--trace [0|1]] [--scale full|smoke] [--repeat <n>] [--out <file>]\n       \
e2e --compare <base.json> <new.json>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: report::DEFAULT_SECONDS,
        trace: false,
        scale: Scale::FULL,
        repeat: 1,
        out: None,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = match name.as_str() {
                    "all" => None,
                    name => {
                        Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?)
                    }
                };
            }
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                // bare `--trace` means on; the driver passes 0 or 1
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--scale" => {
                let name = value("full or smoke")?;
                args.scale = Scale::parse(&name).ok_or(format!("unknown scale {name:?}"))?;
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "--compare" => {
                args.compare = Some((
                    PathBuf::from(value("two files")?),
                    PathBuf::from(value("two files")?),
                ));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process and prints its result line.
fn run_one(args: &Args, workload: Workload) -> Result<bool, String> {
    let set = run::hygraph_env();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {set:?} set: the benchmark pins every knob in code"
        ));
    }
    run::pin_process_config();
    let scratch = report::scratch_root().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let cfg = RunConfig {
        workload,
        scale: args.scale,
        seed: args.seed,
        seconds: args.seconds,
        scratch: scratch.clone(),
    };
    println!(
        "e2e: workload {} seed {} scale {} window {} s trace {}",
        workload.name(),
        cfg.seed,
        cfg.scale.name,
        cfg.seconds,
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        layers::per_layer(&cfg)
    } else {
        run::end_to_end(&cfg)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    for note in &outcome.notes {
        println!("  note  {note}");
    }
    for (name, value, unit) in outcome.metrics.iter().chain(&outcome.diagnostics) {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    if !outcome.diagnostics.is_empty() {
        let diagnostics = report::metrics_json(&outcome.diagnostics);
        println!("{}{}", report::DIAGNOSTICS_PREFIX, diagnostics.render());
    }
    let line = report::result_json(&outcome);
    if let Some(path) = &args.out {
        let envelope = report::envelope(args.seed, args.scale, args.seconds, [(workload, &line)]);
        std::fs::write(path, envelope.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", line.render());
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (&args.compare, args.workload) {
        (Some((base, new)), _) => report::compare(base, new),
        // one run of one workload happens in this process; anything more
        // goes to fresh child processes
        (None, Some(workload)) if args.repeat == 1 => run_one(&args, workload),
        (None, workload) => report::drive_children(
            workload.map_or(Workload::ALL.to_vec(), |w| vec![w]),
            args.seed,
            args.seconds,
            args.scale,
            args.trace,
            args.repeat,
            args.out.as_deref(),
        ),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) if args.compare.is_some() => {
            eprintln!("e2e: REGRESSED — at least one median is worse than its bound allows");
            ExitCode::FAILURE
        }
        Ok(false) => {
            eprintln!("e2e: FAILED — at least one answer or state was wrong");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    /// `(name, unit)` pairs of one list in `BENCHMARK.json`.
    fn declared(contract: &Json, list: &str) -> Vec<(String, String)> {
        contract
            .get(list)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// Schema sync: every workload, traced and untraced, at smoke scale.
    /// What the binary emits must be exactly what `BENCHMARK.json`
    /// declares — same names, same order, same units, each once — and
    /// nothing may fail.
    #[test]
    fn smoke_runs_emit_exactly_what_benchmark_json_declares() {
        let contract = json::parse(report::BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<String> = declared(&contract, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours, "workload names");
        assert_eq!(
            contract.get("run_seconds").and_then(Json::as_f64),
            Some(report::DEFAULT_SECONDS),
            "--seconds defaults to the contract's run_seconds"
        );
        run::pin_process_config();
        for workload in Workload::ALL {
            for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
                let scratch = report::scratch_root().join(format!(
                    "smoke-{}-{}-{list}",
                    std::process::id(),
                    workload.name()
                ));
                std::fs::create_dir_all(&scratch).unwrap();
                let cfg = RunConfig {
                    workload,
                    scale: Scale::SMOKE,
                    seed: 3,
                    seconds: 1.0,
                    scratch: scratch.clone(),
                };
                let outcome = if trace {
                    layers::per_layer(&cfg)
                } else {
                    run::end_to_end(&cfg)
                };
                std::fs::remove_dir_all(&scratch).unwrap();
                let emitted: Vec<(String, String)> = outcome
                    .metrics
                    .iter()
                    .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
                    .collect();
                assert_eq!(
                    emitted,
                    declared(&contract, list),
                    "{} {list}",
                    workload.name()
                );
                assert_eq!(
                    outcome.failed,
                    0,
                    "{} {list}: {:?}",
                    workload.name(),
                    outcome.notes
                );
                assert!(outcome.attempted > 0);
                assert!(
                    outcome.metrics.iter().all(|(_, v, _)| v.is_finite()),
                    "{:?}",
                    outcome.metrics
                );
                if !trace {
                    // the driver refuses an end-to-end metric that reads 0
                    assert!(
                        outcome.metrics.iter().all(|(_, v, _)| *v > 0.0),
                        "{:?}",
                        outcome.metrics
                    );
                }
            }
        }
    }

    #[test]
    fn command_line_accepts_the_drivers_form_and_rejects_nonsense() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload asof_read --seed 9 --seconds 12 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::AsofRead), 9, 12.0, false)
        );
        assert!(
            parse_args(&argv("--workload mixed_live --trace 1"))
                .unwrap()
                .trace
        );
        assert!(parse_args(&argv("--trace --workload all")).unwrap().trace);
        assert_eq!(parse_args(&argv("--workload all")).unwrap().workload, None);
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--repeat 0",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
