//! Fixture self-tests: positive and negative snippets for R1, a check that a
//! reintroduced violation fails the run, a self-check that the real workspace
//! is clean, and a drift check between the two clippy configurations.
//!
//! Fixtures are string literals on purpose: the scanner blanks string
//! bodies, so these snippets can never trip the linter when it walks
//! qd-analyze's own sources.

use qd_analyze::rules::{analyze_file, Finding, RuleId};
use qd_analyze::scan::scrub;
use std::path::PathBuf;

fn run(path: &str, src: &str) -> Vec<Finding> {
    analyze_file(path, &scrub(src))
}

fn rules_fired(path: &str, src: &str) -> Vec<RuleId> {
    run(path, src).iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- R1

#[test]
fn r1_positive_unwrap_comparator() {
    let src = "fn f(v: &mut Vec<f32>) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    assert_eq!(
        rules_fired("crates/qd-core/src/x.rs", src),
        vec![RuleId::R1]
    );
}

#[test]
fn r1_positive_unwrap_or_equal_comparator() {
    // The silent variant: NaN compares Equal, ranking becomes input-order
    // dependent. Also across lines, and in max_by.
    let src = "let m = v.iter().max_by(|a, b| {\n    a.partial_cmp(b)\n        .unwrap_or(Ordering::Equal)\n});\n";
    assert_eq!(
        rules_fired("crates/qd-bench/src/x.rs", src),
        vec![RuleId::R1]
    );
}

#[test]
fn r1_negative_total_cmp_comparator() {
    let src = "fn f(v: &mut Vec<f32>) {\n    v.sort_by(|a, b| a.total_cmp(b));\n    v.sort_by(|a, b| a.total_cmp(b).then(std::cmp::Ordering::Equal));\n}\n";
    assert!(run("crates/qd-core/src/x.rs", src).is_empty());
}

#[test]
fn r1_negative_partial_cmp_outside_comparator() {
    // A PartialOrd impl legitimately defines partial_cmp; only comparator
    // closures are in scope.
    let src = "impl PartialOrd for X {\n    fn partial_cmp(&self, o: &Self) -> Option<Ordering> {\n        Some(self.cmp(o))\n    }\n}\n";
    assert!(run("crates/qd-index/src/x.rs", src).is_empty());
}

// ---------------------------------------------------------- whole run

/// A reintroduced violation in a throwaway on-disk workspace fails the run.
#[test]
fn check_reports_reintroduced_violation() {
    let root = std::env::temp_dir().join("qd_analyze_fixture_reintroduced");
    let _ = std::fs::remove_dir_all(&root);
    let src_dir = root.join("crates/qd-core/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(
        src_dir.join("bad.rs"),
        "fn f(v: &mut Vec<f32>) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));\n}\n",
    )
    .unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    // Keep the cross-file rules quiet: one manifest, one layer entry, no
    // dependency edges.
    std::fs::write(
        root.join("crates/qd-core/Cargo.toml"),
        "[package]\nname = \"qd-core\"\n",
    )
    .unwrap();
    std::fs::write(root.join("qd-analyze.layers"), "0 qd-core\n").unwrap();
    let report = qd_analyze::run_check(&root).unwrap();
    assert!(!report.is_clean());
    assert_eq!(report.reported.len(), 1);
    assert_eq!(report.reported[0].rule, RuleId::R1);
    assert_eq!(report.reported[0].file, "crates/qd-core/src/bad.rs");
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------- self-check

fn workspace_root() -> PathBuf {
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    qd_analyze::find_root(&here).expect("workspace root above qd-analyze")
}

/// The real workspace must stay clean: no rule fires anywhere. This is the
/// same gate CI runs via `cargo run -p qd-analyze -- check`.
#[test]
fn shipped_workspace_is_clean() {
    let report = qd_analyze::run_check(&workspace_root()).unwrap();
    for f in &report.reported {
        eprintln!("{f}");
    }
    assert!(report.is_clean(), "{} finding(s)", report.reported.len());
    assert!(report.files_scanned > 50, "walker lost the source tree");
}

// ---------------------------------------------------------- clippy configs

/// The `path = "…"` values of one `key = [ … ]` array in a clippy.toml.
fn disallowed_paths(toml: &str, key: &str) -> Vec<String> {
    let Some(start) = toml.lines().position(|l| l.trim_start().starts_with(key)) else {
        return Vec::new();
    };
    toml.lines()
        .skip(start + 1)
        .take_while(|l| l.trim() != "]")
        .filter_map(|l| l.split("path = \"").nth(1)?.split('"').next())
        .map(str::to_string)
        .collect()
}

/// Clippy reads the nearest clippy.toml and does not merge it with the
/// root's, so qd-bench sees only what its own file lists. Every root
/// `disallowed-methods` entry but the two clock reads (qd-bench is where the
/// clock may be read) must be repeated there, or a rule added at the root
/// silently skips the harness and its `perf` bin.
#[test]
fn qd_bench_clippy_config_repeats_every_root_method_ban_but_the_clock() {
    let root = workspace_root();
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).unwrap();
    let clocks = ["std::time::Instant::now", "std::time::SystemTime::now"];
    let at_root = disallowed_paths(&read("clippy.toml"), "disallowed-methods");
    for clock in clocks {
        assert!(
            at_root.iter().any(|p| p == clock),
            "root clippy.toml lost {clock}"
        );
    }
    let in_bench = disallowed_paths(&read("crates/qd-bench/clippy.toml"), "disallowed-methods");
    let want: Vec<&String> = at_root
        .iter()
        .filter(|p| !clocks.contains(&p.as_str()))
        .collect();
    assert!(
        !want.is_empty(),
        "no thread bans parsed from the root clippy.toml"
    );
    for path in want {
        assert!(
            in_bench.contains(path),
            "`{path}` is disallowed at the root but not in crates/qd-bench/clippy.toml"
        );
    }
}
