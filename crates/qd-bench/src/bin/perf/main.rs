//! `perf` — the wall-clock benchmark of the Query Decomposition engine.
//!
//! ```text
//! perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! perf compare A.jsonl B.jsonl
//! ```
//!
//! One run measures one workload for `--seconds` seconds, checks what the
//! system answered, prints every metric by name with its unit, and ends its
//! standard output with one JSON line. `--trace 0` (the default) reports the
//! end-to-end metrics; `--trace 1` re-runs the workload under a bench-side
//! span recorder and reports the per-layer metrics instead. `--out` appends
//! a fuller record of the run to a file; `compare` reads two such files and
//! applies the regression bounds. Run from the repository root; see
//! `README.md` beside this file for the workloads, metrics and conventions.

mod compare;
mod deploy;
mod e2e;
mod json;
mod layers;
mod report;
mod spec;
mod stats;
mod tracer;
mod traffic;

use deploy::Deploy;
use e2e::Env;
use qd_index::RStarTree;
use qd_shard::ShardSet;
use report::Report;
use spec::Workload;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use traffic::Traffic;

const USAGE: &str = "\
usage: perf --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       perf compare A.jsonl B.jsonl
workloads: paper15k_qd sweep30k_qd paper15k_global shard15k_serve_churn";

/// Parsed command line of a run.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" | "false" => false,
                    "1" | "true" => true,
                    other => return Err(format!("--trace: `{other}` is not 0 or 1")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

/// Where build outputs go: the benchmark keeps its corpus cache and trace
/// files there, so it writes nothing git would see.
fn scratch_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("perf")
}

fn corpus_cache_file(dir: &Path, workload: &Workload) -> PathBuf {
    let c = &workload.corpus;
    dir.join(format!(
        "corpus-{}-{}-{}-{}-{}.qdc",
        c.size, c.image_size, c.seed, c.filler_count, c.with_viewpoints
    ))
}

fn run_on<D: Deploy>(env: &Env<'_>, trace: bool, seconds: f64, dir: &Path, cache: &Path) -> Report {
    if trace {
        let trace_file = dir.join(format!("trace-{}.json", env.workload.name));
        layers::run::<D>(env, seconds, cache, &trace_file)
    } else {
        e2e::run::<D>(env, seconds)
    }
}

/// One run of `workload`, with its corpus cache and trace file under `dir`.
fn run_workload(
    workload: &Workload,
    seed: u64,
    trace: bool,
    seconds: f64,
    dir: &Path,
) -> Result<Report, String> {
    let cache = corpus_cache_file(dir, workload);
    let corpus = qd_corpus::cache::load_or_build(&workload.corpus, &cache)
        .map_err(|e| format!("corpus cache {}: {e}", cache.display()))?;
    let env = Env {
        workload,
        traffic: Traffic::generate(&corpus, workload, seed),
        corpus: Arc::new(corpus),
        seed,
    };
    // One worker: on a small shared machine a second worker's timing is the
    // scheduler's, not the program's. Its cost is a per-layer metric.
    Ok(qd_runtime::with_threads(1, || {
        if workload.shards == 1 {
            run_on::<RStarTree>(&env, trace, seconds, dir, &cache)
        } else {
            run_on::<ShardSet>(&env, trace, seconds, dir, &cache)
        }
    }))
}

fn run(args: &Args) -> Result<Report, String> {
    let workloads = spec::workloads();
    let workload = workloads
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    run_workload(
        workload,
        args.seed,
        args.trace,
        args.seconds,
        &scratch_dir(),
    )
}

fn compare_files(paths: &[String]) -> Result<(String, bool), String> {
    let [a, b] = paths else {
        return Err("compare takes two files".to_string());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    compare::compare(&read(a)?, &read(b)?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare_files(&args[1..]) {
            Ok((table, regressed)) => {
                print!("{table}");
                ExitCode::from(u8::from(regressed))
            }
            Err(e) => {
                eprintln!("perf compare: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&parsed) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &parsed.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", report.record_line()));
        if let Err(e) = appended {
            eprintln!("perf: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    print!("{}", report.table());
    println!("{}", report.driver_line());
    ExitCode::from(u8::from(!report.correct()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let parsed = parse_args(&args(&[
            "--workload",
            "paper15k_qd",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(parsed.workload, "paper15k_qd");
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 10.0, true));
        let defaults = parse_args(&args(&["--workload", "x"])).expect("valid");
        assert_eq!(
            (defaults.seed, defaults.trace, defaults.out),
            (42, false, None)
        );
        for bad in [
            &["--seed", "7"][..],
            &["--workload"],
            &["--workload", "x", "--trace", "2"],
            &["--workload", "x", "--seconds", "-1"],
            &["--workload", "x", "--frobnicate"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} parsed");
        }
    }

    /// Drives all four workloads, untraced and traced, at 600 images, and
    /// checks that each emits exactly its declared table with sane values —
    /// so an engine API or behaviour drift that would break the benchmark
    /// fails `cargo test` first.
    #[test]
    fn smoke_all_workloads_emit_exactly_the_declared_metrics() {
        let dir = std::env::temp_dir().join(format!("qd-perf-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        for workload in spec::workloads() {
            let workload = spec::tiny(&workload);
            let run = |trace: bool| run_workload(&workload, 3, trace, 0.0, &dir).expect("runs");
            let (untraced, traced) = (run(false), run(true));
            let trace_file = dir.join(format!("trace-{}.json", workload.name));
            for (report, table) in [(&untraced, spec::END_TO_END), (&traced, spec::PER_LAYER)] {
                assert!(report.correct(), "{}: {:?}", workload.name, report.checks);
                assert!(report.checks.attempted > 0);
                let got: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
                let want: Vec<&str> = table.iter().map(|m| m.name).collect();
                assert_eq!(got, want, "{} traced={}", workload.name, report.traced);
                for m in &report.metrics {
                    assert!(m.value.is_finite(), "{} {}", workload.name, m.name);
                }
            }
            for m in &untraced.metrics {
                assert!(m.value > 0.0, "{} {} = {}", workload.name, m.name, m.value);
            }
            let spans = std::fs::read_to_string(&trace_file).expect("trace file written");
            assert!(matches!(json::parse(&spans), Ok(json::Json::Arr(s)) if !s.is_empty()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
