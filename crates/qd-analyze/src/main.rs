//! CLI for the workspace lints: `cargo run -p qd-analyze -- check`.

use qd_analyze::rules::RuleId;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
qd-analyze — workspace determinism & panic-safety lints

USAGE:
    qd-analyze check [--root <path>]
                          run all rules; nonzero exit on findings
    qd-analyze rules      list the rules
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("rules") => {
            for rule in RuleId::ALL {
                println!("{rule}  {}", rule.describe());
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            // `cargo run -p qd-analyze` runs from the invoker's directory;
            // fall back to the crate's own location for out-of-tree cwds.
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match qd_analyze::find_root(&cwd)
                .or_else(|| qd_analyze::find_root(&PathBuf::from(env!("CARGO_MANIFEST_DIR"))))
            {
                Some(r) => r,
                None => {
                    eprintln!("could not locate the workspace root (pass --root)");
                    return ExitCode::from(2);
                }
            }
        }
    };

    let report = match qd_analyze::run_check(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("qd-analyze: {e}");
            return ExitCode::FAILURE;
        }
    };

    for f in &report.reported {
        println!("{f}");
    }
    for s in &report.stale {
        println!(
            "{}:{} [allowlist] stale entry `{s}` suppresses nothing — remove it",
            qd_analyze::ALLOWLIST_FILE,
            s.line
        );
    }
    eprintln!(
        "qd-analyze: {} files, {} finding(s), {} suppressed, {} stale allowlist entr(y/ies)",
        report.files_scanned,
        report.reported.len(),
        report.suppressed.len(),
        report.stale.len()
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
