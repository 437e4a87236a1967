//! Fixture self-tests: positive and negative snippets for R1, R3 and R4, the
//! allowlist contract (including staleness), and a self-check that the real
//! workspace is clean.
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

// ---------------------------------------------------------------- R3

#[test]
fn r3_positive_unsorted_hash_iteration() {
    let src = "use std::collections::HashMap;\nfn f(m: HashMap<u32, f32>) -> Vec<f32> {\n    m.values().copied().collect()\n}\n";
    assert_eq!(
        rules_fired("crates/qd-core/src/x.rs", src),
        vec![RuleId::R3]
    );
}

#[test]
fn r3_positive_line_broken_chain() {
    // rustfmt splits chains; the lookup must follow to the next line.
    let src = "struct S { nodes: HashMap<u32, u32> }\nimpl S {\n    fn g(&self) -> usize {\n        self.nodes\n            .values()\n            .map(|n| *n as usize)\n            .product()\n    }\n}\n";
    assert_eq!(
        rules_fired("crates/qd-core/src/x.rs", src),
        vec![RuleId::R3]
    );
}

#[test]
fn r3_negative_adjacent_sort() {
    let src = "fn f(m: std::collections::HashMap<u32, f32>) -> Vec<u32> {\n    let mut out: Vec<u32> = m.keys().copied().collect();\n    out.sort_unstable();\n    out\n}\n";
    assert!(run("crates/qd-core/src/x.rs", src).is_empty());
}

#[test]
fn r3_negative_btreemap_and_out_of_scope_crates() {
    let btree = "fn f(m: std::collections::BTreeMap<u32, f32>) -> Vec<u32> {\n    m.keys().copied().collect()\n}\n";
    assert!(run("crates/qd-core/src/x.rs", btree).is_empty());
    let hash = "fn f(m: HashMap<u32, f32>) -> Vec<f32> { m.values().copied().collect() }\n";
    assert!(run("crates/qd-corpus/src/x.rs", hash).is_empty());
    assert!(run("crates/qd-bench/src/x.rs", hash).is_empty());
}

// ---------------------------------------------------------------- R4

#[test]
fn r4_positive_instant_now() {
    let src =
        "fn f() {\n    let t = std::time::Instant::now();\n    let s = SystemTime::now();\n}\n";
    assert_eq!(
        rules_fired("crates/qd-core/src/x.rs", src),
        vec![RuleId::R4, RuleId::R4]
    );
}

#[test]
fn r4_negative_inside_qd_bench() {
    let src = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
    assert!(run("crates/qd-bench/src/x.rs", src).is_empty());
    assert!(run("crates/qd-bench/benches/x.rs", src).is_empty());
}

#[test]
fn r4_negative_duration_arithmetic() {
    let src = "fn f(d: std::time::Duration) -> u128 {\n    d.as_millis()\n}\n";
    assert!(run("crates/qd-core/src/x.rs", src).is_empty());
}

// ---------------------------------------------------------- allowlist

/// Builds a throwaway workspace on disk: `crates/qd-core/src/bad.rs` with a
/// known R1 violation, plus an optional allowlist.
fn scratch_workspace(name: &str, allowlist: Option<&str>) -> PathBuf {
    let root = std::env::temp_dir().join(format!("qd_analyze_fixture_{name}"));
    let _ = std::fs::remove_dir_all(&root);
    let src_dir = root.join("crates/qd-core/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(
        src_dir.join("bad.rs"),
        "fn f(v: &mut Vec<f32>) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));\n}\n",
    )
    .unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    // Keep the cross-file rules quiet so these tests stay about the
    // allowlist contract: one manifest, one layer entry, no dep edges.
    std::fs::write(
        root.join("crates/qd-core/Cargo.toml"),
        "[package]\nname = \"qd-core\"\n",
    )
    .unwrap();
    std::fs::write(root.join("qd-analyze.layers"), "0 qd-core\n").unwrap();
    if let Some(text) = allowlist {
        std::fs::write(root.join(qd_analyze::ALLOWLIST_FILE), text).unwrap();
    }
    root
}

#[test]
fn check_reports_reintroduced_violation() {
    let root = scratch_workspace("reintroduced", None);
    let report = qd_analyze::run_check(&root).unwrap();
    assert!(!report.is_clean());
    assert_eq!(report.reported.len(), 1);
    assert_eq!(report.reported[0].rule, RuleId::R1);
    assert_eq!(report.reported[0].file, "crates/qd-core/src/bad.rs");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn allowlist_suppresses_matching_findings() {
    let root = scratch_workspace(
        "suppressed",
        Some("R1 crates/qd-core/src/bad.rs fixture: kept broken on purpose\n"),
    );
    let report = qd_analyze::run_check(&root).unwrap();
    assert!(report.is_clean());
    assert_eq!(report.suppressed.len(), 1);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn stale_allowlist_entry_fails_the_check() {
    let root = scratch_workspace(
        "stale",
        Some(
            "R1 crates/qd-core/src/bad.rs fixture: kept broken on purpose\n\
             R4 crates/qd-core/src/gone.rs this file no longer exists\n",
        ),
    );
    let report = qd_analyze::run_check(&root).unwrap();
    assert!(!report.is_clean(), "stale entry must fail the check");
    assert!(report.reported.is_empty());
    assert_eq!(report.stale.len(), 1);
    assert_eq!(report.stale[0].file, "crates/qd-core/src/gone.rs");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn allowlist_without_justification_is_rejected() {
    let root = scratch_workspace("unjustified", Some("R1 crates/qd-core/src/bad.rs\n"));
    assert!(qd_analyze::run_check(&root).is_err());
    std::fs::remove_dir_all(&root).ok();
}

// ---------------------------------------------------------- self-check

/// The real workspace must stay clean: every shipped allowlist entry still
/// suppresses something, and no rule fires outside the allowlist. This is
/// the same gate CI runs via `cargo run -p qd-analyze -- check`.
#[test]
fn shipped_workspace_is_clean() {
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = qd_analyze::find_root(&here).expect("workspace root above qd-analyze");
    let report = qd_analyze::run_check(&root).unwrap();
    for f in &report.reported {
        eprintln!("{f}");
    }
    for s in &report.stale {
        eprintln!("stale allowlist entry: {s}");
    }
    assert!(
        report.is_clean(),
        "{} finding(s), {} stale allowlist entr(y/ies)",
        report.reported.len(),
        report.stale.len()
    );
    assert!(report.files_scanned > 50, "walker lost the source tree");
}
