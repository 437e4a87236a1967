//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p qd-bench --bin repro -- <command> [--quick] [--seed N]
//!
//! commands:
//!   fig1        PCA projection of the four white-sedan pose clusters
//!   table1      per-query precision/GTIR, MV vs QD
//!   table2      per-round quality averaged over the 11 queries
//!   figs4to9    qualitative top-k listings for the computer queries
//!   fig10       node accesses vs database size (Figures 10–11, §5.2.2 units)
//!   fig11       the same study as fig10
//!   io          §5.2.2 node-access accounting
//!   ablate      all DESIGN.md ablations
//!   shootout    QD vs MV/QPM/MPQ/Qcluster
//!   patk        precision@k curves, QD vs every baseline
//!   all         everything above (the size study once)
//! ```
//!
//! `--quick` runs on a 3,000-image corpus instead of the paper's 15,000, and
//! sweeps 2 000–3 000 images instead of 2 500–15 000 for `fig10`/`fig11`
//! (below 2 000 at seed 42, sessions average under one subquery: the user
//! finds too few relevant images among the representatives to mark).
//! Every number `repro` prints is a deterministic count or quality figure;
//! wall-clock is the `perf` binary's (`BENCHMARK.json`).
//!
//! `--json` ignores the command and instead writes the machine-readable
//! observability report `BENCH_qd.json` ({config, tables, counters,
//! histograms, span_tree} — the histograms carry exact p50/p90/p99/max
//! per-query distance and node-access distributions for QD vs MV). It runs
//! at the `Tiny` scale by default (`--quick` upgrades it to `Quick`) and
//! its output is byte-identical across consecutive runs and across
//! `QD_THREADS` settings — CI diffs it to pin the observability contract.
//!
//! An unknown option or command, a second command, or a `--seed` without a
//! non-negative integer after it exits 2 with the usage line.

use qd_bench::experiments;
use qd_bench::BenchScale;
use qd_core::QdError;

const USAGE: &str = "usage: repro [fig1|table1|table2|figs4to9|fig10|fig11|io|ablate|shootout|patk|all] [--quick] [--json] [--seed N]";

const COMMANDS: &[&str] = &[
    "fig1", "table1", "table2", "figs4to9", "fig4_5", "fig6_7", "fig8_9", "fig10", "fig11", "io",
    "ablate", "shootout", "patk", "all",
];

/// What the command line asks for.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    command: String,
    quick: bool,
    json: bool,
    seed: u64,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        command: String::new(),
        quick: false,
        json: false,
        seed: 42,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--json" => parsed.json = true,
            "--seed" => {
                parsed.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs a non-negative integer after it")?;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag:?}")),
            command if !COMMANDS.contains(&command) => {
                return Err(format!("unknown command {command:?}"))
            }
            command if parsed.command.is_empty() => parsed.command = command.to_string(),
            extra => return Err(format!("a second command {extra:?}")),
        }
    }
    if parsed.command.is_empty() {
        parsed.command = "all".to_string();
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), QdError> {
    let (quick, seed) = (args.quick, args.seed);
    if args.json {
        let scale = if quick {
            BenchScale::Quick
        } else {
            BenchScale::Tiny
        };
        eprintln!("[repro: json report, scale={scale:?}, seed={seed}]");
        return qd_bench::obs_report::json_report(scale, seed);
    }

    let scale = if quick {
        BenchScale::Quick
    } else {
        BenchScale::Paper
    };
    let sizes: &[usize] = if quick {
        &[2_000, 2_500, 3_000]
    } else {
        &[2_500, 5_000, 7_500, 10_000, 12_500, 15_000]
    };

    eprintln!(
        "[repro: command={}, scale={scale:?}, seed={seed}]",
        args.command
    );
    let start = std::time::Instant::now();
    match args.command.as_str() {
        "fig1" => experiments::fig1(scale, seed),
        "table1" => experiments::table1(scale, seed)?,
        "table2" => experiments::table2(scale, seed)?,
        "figs4to9" | "fig4_5" | "fig6_7" | "fig8_9" => experiments::figs4to9(scale, seed)?,
        "fig10" | "fig11" => experiments::fig10_11(sizes, seed)?,
        "io" => experiments::io_experiment(scale, seed)?,
        "ablate" => experiments::ablate(scale, seed)?,
        "shootout" => experiments::baseline_shootout(scale, seed)?,
        "patk" => experiments::precision_at_k(scale, seed)?,
        "all" => {
            experiments::fig1(scale, seed);
            experiments::table1(scale, seed)?;
            experiments::table2(scale, seed)?;
            experiments::figs4to9(scale, seed)?;
            experiments::fig10_11(sizes, seed)?;
            experiments::io_experiment(scale, seed)?;
            experiments::baseline_shootout(scale, seed)?;
            experiments::precision_at_k(scale, seed)?;
            experiments::ablate(scale, seed)?;
        }
        other => unreachable!("parse admits only COMMANDS, not {other:?}"),
    }
    eprintln!("[repro finished in {:.1}s]", start.elapsed().as_secs_f64());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn known_flags_and_commands_parse() {
        let a = parse_str("ablate --quick --seed 7").unwrap();
        assert_eq!(
            a,
            Args {
                command: "ablate".into(),
                quick: true,
                json: false,
                seed: 7
            }
        );
        let b = parse_str("--seed 0 --json").unwrap();
        assert_eq!((b.command.as_str(), b.json, b.seed), ("all", true, 0));
        assert_eq!(parse_str("").unwrap().seed, 42);
    }

    #[test]
    fn unknown_or_malformed_input_is_rejected() {
        for line in [
            "table1 --quik",
            "--timing --json",
            "table1 --seed",
            "table1 --seed=7",
            "table1 --seed -1",
            "table1 --seed x",
            "tabel1",
            "table1 table2",
            "-q",
        ] {
            assert!(parse_str(line).is_err(), "{line:?} parsed");
        }
    }
}
