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
//!   fig10       overall query time vs database size
//!   fig11       per-iteration feedback time vs database size
//!   io          §5.2.2 node-access accounting
//!   ablate      all DESIGN.md ablations
//!   shootout    QD vs MV/QPM/MPQ/Qcluster
//!   all         everything above
//! ```
//!
//! `--quick` runs on a 3,000-image corpus instead of the paper's 15,000.
//!
//! `--json` ignores the command and instead writes the machine-readable
//! observability report `BENCH_qd.json` ({config, tables, counters,
//! histograms, span_tree} — the histograms carry exact p50/p90/p99/max
//! per-query distance and node-access distributions for QD vs MV). It runs
//! at the `Tiny` scale by default (`--quick` upgrades it to `Quick`) and
//! its output is byte-identical across consecutive runs and across
//! `QD_THREADS` settings — CI diffs it to pin the observability contract.
//! `--json --timing` additionally appends the Figure 10/11 wall-clock
//! timing tables plus the `timing_percentiles` table (per-round /
//! final-k-NN / per-query wall-clock percentiles in microseconds); those
//! are non-deterministic, so CI never passes the flag.

use qd_bench::experiments;
use qd_bench::BenchScale;
use qd_core::QdError;

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), QdError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    let command = args
        .iter()
        .find(|a| !a.starts_with("--") && a.parse::<u64>().is_err())
        .cloned()
        .unwrap_or_else(|| "all".to_string());

    if args.iter().any(|a| a == "--json") {
        let scale = if quick {
            BenchScale::Quick
        } else {
            BenchScale::Tiny
        };
        let with_timing = args.iter().any(|a| a == "--timing");
        eprintln!("[repro: json report, scale={scale:?}, seed={seed}, timing={with_timing}]");
        return experiments::json_report(scale, seed, with_timing);
    }

    let scale = if quick {
        BenchScale::Quick
    } else {
        BenchScale::Paper
    };
    let (sizes, per_size): (Vec<usize>, usize) = if quick {
        (vec![1_000, 2_000, 3_000], 20)
    } else {
        (vec![2_500, 5_000, 7_500, 10_000, 12_500, 15_000], 100)
    };

    eprintln!("[repro: command={command}, scale={scale:?}, seed={seed}]");
    let start = std::time::Instant::now();
    match command.as_str() {
        "fig1" => experiments::fig1(scale, seed),
        "table1" => experiments::table1(scale, seed)?,
        "table2" => experiments::table2(scale, seed)?,
        "figs4to9" | "fig4_5" | "fig6_7" | "fig8_9" => experiments::figs4to9(scale, seed)?,
        "fig10" => experiments::fig10(&sizes, per_size, seed)?,
        "fig11" => experiments::fig11(&sizes, per_size, seed)?,
        "io" => experiments::io_experiment(scale, seed)?,
        "ablate" => run_ablations(scale, seed)?,
        "shootout" => experiments::baseline_shootout(scale, seed)?,
        "patk" => experiments::precision_at_k(scale, seed)?,
        "all" => {
            experiments::fig1(scale, seed);
            experiments::table1(scale, seed)?;
            experiments::table2(scale, seed)?;
            experiments::figs4to9(scale, seed)?;
            experiments::fig10(&sizes, per_size, seed)?;
            experiments::fig11(&sizes, per_size, seed)?;
            experiments::io_experiment(scale, seed)?;
            experiments::baseline_shootout(scale, seed)?;
            experiments::precision_at_k(scale, seed)?;
            run_ablations(scale, seed)?;
        }
        other => {
            eprintln!("unknown command {other:?}; see the module docs for the list");
            std::process::exit(2);
        }
    }
    eprintln!("[repro finished in {:.1}s]", start.elapsed().as_secs_f64());
    Ok(())
}

fn run_ablations(scale: BenchScale, seed: u64) -> Result<(), QdError> {
    experiments::ablate_threshold(scale, seed, &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0])?;
    experiments::ablate_representative_fraction(scale, seed, &[0.01, 0.03, 0.05, 0.08, 0.10])?;
    experiments::ablate_fanout(scale, seed, &[25, 50, 100, 200])?;
    experiments::ablate_merge(scale, seed)?;
    experiments::ablate_build(scale, seed)?;
    experiments::ablate_representative_selection(scale, seed)?;
    experiments::ablate_feature_weights(scale, seed)?;
    experiments::ablate_user_noise(scale, seed, &[0.0, 0.1, 0.2, 0.3, 0.4])?;
    experiments::ablate_patience(scale, seed, &[1, 3, 7, 15, usize::MAX])
}
