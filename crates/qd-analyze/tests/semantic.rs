//! Fixture tests for the token-stream engine: the cross-file rules R9–R11
//! (scratch workspaces on disk, run through [`qd_analyze::run_check`]
//! exactly like CI), the file-scoped R12, the walker's coverage and
//! exclusion behavior, and the lexer's byte-identity property over every
//! first-party file of the real workspace.

use qd_analyze::rules::{analyze_file, Finding, RuleId};
use qd_analyze::scan::scrub;
use std::path::PathBuf;

fn run(path: &str, src: &str) -> Vec<Finding> {
    analyze_file(path, &scrub(src))
}

fn rules_fired(path: &str, src: &str) -> Vec<RuleId> {
    let mut out: Vec<RuleId> = run(path, src).into_iter().map(|f| f.rule).collect();
    out.sort();
    out.dedup();
    out
}

// ---------------------------------------------------------- R12 (file-scoped)

#[test]
fn r12_positive_narrowing_cast_in_engine_src() {
    let src = "fn f(n: usize) -> u32 {\n    n as u32\n}\n";
    let findings = run("crates/qd-index/src/tree.rs", src);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, RuleId::R12);
    assert_eq!(findings[0].line, 2);
}

#[test]
fn r12_negative_cast_comment_and_wide_casts() {
    let justified = "fn f(n: usize) -> u32 {\n    // CAST: n is a node count, bounded by u32.\n    n as u32\n}\n";
    assert!(rules_fired("crates/qd-index/src/tree.rs", justified).is_empty());
    // Widening casts are not narrowing — no justification required.
    let widening =
        "fn f(n: u32) -> u64 {\n    n as u64\n}\nfn g(x: f32) -> f64 {\n    x as f64\n}\n";
    assert!(rules_fired("crates/qd-index/src/tree.rs", widening).is_empty());
}

#[test]
fn r12_negative_outside_engine_src_and_in_tests() {
    let src = "fn f(n: usize) -> u32 {\n    n as u32\n}\n";
    // qd-bench is not an engine crate; test dirs are out of scope.
    assert!(rules_fired("crates/qd-bench/src/report.rs", src).is_empty());
    assert!(rules_fired("crates/qd-index/tests/knn.rs", src).is_empty());
    // #[cfg(test)] code inside engine src is exempt.
    let in_test_mod =
        "#[cfg(test)]\nmod tests {\n    fn f(n: usize) -> u32 {\n        n as u32\n    }\n}\n";
    assert!(rules_fired("crates/qd-index/src/tree.rs", in_test_mod).is_empty());
}

// ---------------------------------------------------------- scratch workspaces

/// Builds a throwaway on-disk workspace from `(rel_path, contents)` pairs and
/// runs the full check over it. The caller filters findings by rule.
fn check_workspace(name: &str, files: &[(&str, &str)]) -> qd_analyze::CheckReport {
    let root = std::env::temp_dir().join(format!("qd_analyze_semantic_{name}"));
    let _ = std::fs::remove_dir_all(&root);
    for (rel, contents) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, contents).unwrap();
    }
    if !root.join("Cargo.toml").exists() {
        std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    }
    // `crates/` must exist for find_root-style workspaces; the fixtures all
    // create at least one crate, so nothing to do here.
    let report = qd_analyze::run_check(&root).unwrap();
    std::fs::remove_dir_all(&root).ok();
    report
}

fn findings_of(report: &qd_analyze::CheckReport, rule: RuleId) -> Vec<&Finding> {
    report.reported.iter().filter(|f| f.rule == rule).collect()
}

const EMPTY_MAIN: &str = "fn lib() {}\n";

fn manifest(name: &str, deps: &[&str]) -> String {
    let mut s = format!("[package]\nname = \"{name}\"\n\n[dependencies]\n");
    for d in deps {
        s.push_str(&format!("{d}.workspace = true\n"));
    }
    s
}

// ---------------------------------------------------------- R9

#[test]
fn r9_positive_upward_dependency_and_manifest_drift() {
    let report = check_workspace(
        "r9_upward",
        &[
            // qd-low (layer 0) depends on qd-high (layer 1): an upward edge.
            (
                "crates/qd-low/Cargo.toml",
                &manifest("qd-low", &["qd-high"]),
            ),
            ("crates/qd-low/src/lib.rs", EMPTY_MAIN),
            ("crates/qd-high/Cargo.toml", &manifest("qd-high", &[])),
            ("crates/qd-high/src/lib.rs", EMPTY_MAIN),
            // qd-extra exists but has no layer entry; qd-ghost is the reverse.
            ("crates/qd-extra/Cargo.toml", &manifest("qd-extra", &[])),
            ("crates/qd-extra/src/lib.rs", EMPTY_MAIN),
            ("qd-analyze.layers", "0 qd-low\n1 qd-high\n2 qd-ghost\n"),
        ],
    );
    let r9 = findings_of(&report, RuleId::R9);
    assert!(
        r9.iter()
            .any(|f| f.file == "crates/qd-low/Cargo.toml"
                && f.message.contains("depends on `qd-high`")),
        "upward dependency edge not reported: {r9:?}"
    );
    assert!(
        r9.iter()
            .any(|f| f.file == "qd-analyze.layers" && f.message.contains("qd-ghost")),
        "unknown layered crate not reported"
    );
    assert!(
        r9.iter()
            .any(|f| f.file == "crates/qd-extra/Cargo.toml" && f.message.contains("missing")),
        "unlisted crate not reported"
    );
}

#[test]
fn r9_positive_src_token_reference_to_higher_layer() {
    let report = check_workspace(
        "r9_token",
        &[
            ("crates/qd-low/Cargo.toml", &manifest("qd-low", &[])),
            // No manifest edge at all — the token scan alone must catch it.
            (
                "crates/qd-low/src/lib.rs",
                "pub fn f() -> u64 {\n    qd_high::answer()\n}\n",
            ),
            ("crates/qd-high/Cargo.toml", &manifest("qd-high", &[])),
            ("crates/qd-high/src/lib.rs", EMPTY_MAIN),
            ("qd-analyze.layers", "0 qd-low\n1 qd-high\n"),
        ],
    );
    let r9 = findings_of(&report, RuleId::R9);
    assert_eq!(r9.len(), 1, "{r9:?}");
    assert_eq!(r9[0].file, "crates/qd-low/src/lib.rs");
    assert_eq!(r9[0].line, 2);
    assert!(r9[0].message.contains("qd_high"));
}

#[test]
fn r9_negative_downward_dag_is_clean() {
    let report = check_workspace(
        "r9_clean",
        &[
            ("crates/qd-low/Cargo.toml", &manifest("qd-low", &[])),
            ("crates/qd-low/src/lib.rs", EMPTY_MAIN),
            (
                "crates/qd-high/Cargo.toml",
                &manifest("qd-high", &["qd-low"]),
            ),
            (
                "crates/qd-high/src/lib.rs",
                "pub fn f() -> u64 {\n    qd_low::answer()\n}\n",
            ),
            ("qd-analyze.layers", "0 qd-low\n1 qd-high\n"),
        ],
    );
    assert!(findings_of(&report, RuleId::R9).is_empty());
}

#[test]
fn r9_missing_layers_manifest_is_itself_a_finding() {
    let report = check_workspace(
        "r9_missing",
        &[
            ("crates/qd-low/Cargo.toml", &manifest("qd-low", &[])),
            ("crates/qd-low/src/lib.rs", EMPTY_MAIN),
        ],
    );
    let r9 = findings_of(&report, RuleId::R9);
    assert_eq!(r9.len(), 1);
    assert!(r9[0].message.contains("missing or empty"));
}

// ---------------------------------------------------------- R10

/// A layers file naming the fixture crates, so R9 noise stays out of the
/// R10/R11 assertions (they filter by rule anyway; this keeps reports small).
const R10_LAYERS: &str = "0 qd-fault\n1 qd-corpus\n";

#[test]
fn r10_positive_direct_fs_use_and_dead_site() {
    let report = check_workspace(
        "r10_uncovered",
        &[
            ("crates/qd-corpus/Cargo.toml", &manifest("qd-corpus", &[])),
            (
                "crates/qd-corpus/src/cache.rs",
                "use std::fs;\npub fn save(path: &Path) -> io::Result<()> {\n    fs::write(path, b\"x\")\n}\n",
            ),
            ("crates/qd-fault/Cargo.toml", &manifest("qd-fault", &[])),
            (
                "crates/qd-fault/src/lib.rs",
                "pub mod site {\n    pub const CACHE_READ: &str = \"corpus.cache.read\";\n}\n",
            ),
            ("tests/fault_properties.rs", "fn covers_nothing() {}\n"),
            ("qd-analyze.layers", R10_LAYERS),
        ],
    );
    let r10 = findings_of(&report, RuleId::R10);
    let fs_lines: Vec<usize> = r10
        .iter()
        .filter(|f| f.file == "crates/qd-corpus/src/cache.rs")
        .map(|f| f.line)
        .collect();
    assert_eq!(fs_lines, [1, 3], "import and call both reported: {r10:?}");
    assert!(
        r10.iter().any(|f| f.file == "crates/qd-fault/src/lib.rs"
            && f.message.contains("CACHE_READ")
            && f.message.contains("dead failpoint")),
        "dead site not reported: {r10:?}"
    );
}

#[test]
fn r10_negative_codec_boundary_test_code_and_other_crates() {
    let report = check_workspace(
        "r10_covered",
        &[
            ("crates/qd-corpus/Cargo.toml", &manifest("qd-corpus", &[])),
            (
                "crates/qd-corpus/src/cache.rs",
                // Files go through the codec; only #[cfg(test)] code and
                // comments name std::fs.
                "// never std::fs::write here\n\
                 pub fn save(path: &Path) -> Result<(), CodecError> {\n    codec::write_file_atomic(path, b\"x\", &CACHE_SITES)\n}\n\
                 #[cfg(test)]\nmod tests {\n    fn t() {\n        std::fs::remove_file(\"x\").ok();\n    }\n}\n",
            ),
            ("crates/qd-fault/Cargo.toml", &manifest("qd-fault", &[])),
            (
                "crates/qd-fault/src/lib.rs",
                // The codec's home is not a persisting crate.
                "pub mod site {\n    pub const CACHE_WRITE: &str = \"corpus.cache.write\";\n}\n\
                 pub fn write_file_atomic() {\n    std::fs::write(\"a\", b\"x\").ok();\n}\n",
            ),
            (
                "tests/fault_properties.rs",
                "fn t() {\n    let _ = qd_fault::site::CACHE_WRITE;\n}\n",
            ),
            ("qd-analyze.layers", R10_LAYERS),
        ],
    );
    assert!(
        findings_of(&report, RuleId::R10).is_empty(),
        "{:?}",
        findings_of(&report, RuleId::R10)
    );
}

#[test]
fn r10_missing_chaos_suite_is_reported_when_sites_exist() {
    let report = check_workspace(
        "r10_no_suite",
        &[
            ("crates/qd-fault/Cargo.toml", &manifest("qd-fault", &[])),
            (
                "crates/qd-fault/src/lib.rs",
                "pub mod site {\n    pub const CACHE_READ: &str = \"corpus.cache.read\";\n}\n",
            ),
            ("qd-analyze.layers", "0 qd-fault\n"),
        ],
    );
    let r10 = findings_of(&report, RuleId::R10);
    assert_eq!(r10.len(), 1, "{r10:?}");
    assert!(r10[0].message.contains("fault_properties.rs not found"));
}

// ---------------------------------------------------------- R11

#[test]
fn r11_positive_dead_catalog_name() {
    let report = check_workspace(
        "r11_dead",
        &[
            ("crates/qd-obs/Cargo.toml", &manifest("qd-obs", &[])),
            (
                "crates/qd-obs/src/lib.rs",
                "pub mod ctr {\n    pub const KNN_PRUNED: &str = \"knn.pruned\";\n}\n\
                 pub mod sp {\n    pub const RFS_BUILD: &str = \"rfs.build\";\n}\n",
            ),
            ("crates/qd-core/Cargo.toml", &manifest("qd-core", &[])),
            (
                "crates/qd-core/src/lib.rs",
                // References RFS_BUILD but not KNN_PRUNED.
                "pub fn build() {\n    qd_obs::span(qd_obs::sp::RFS_BUILD, || {})\n}\n",
            ),
            ("qd-analyze.layers", "0 qd-obs\n1 qd-core\n"),
        ],
    );
    let r11 = findings_of(&report, RuleId::R11);
    assert_eq!(r11.len(), 1, "{r11:?}");
    assert!(r11[0].message.contains("ctr::KNN_PRUNED"));
    assert_eq!(r11[0].file, "crates/qd-obs/src/lib.rs");
}

#[test]
fn r11_positive_dead_hist_name() {
    let report = check_workspace(
        "r11_hist_dead",
        &[
            ("crates/qd-obs/Cargo.toml", &manifest("qd-obs", &[])),
            (
                "crates/qd-obs/src/lib.rs",
                "pub mod hist {\n    pub const LATENCY: &str = \"q.latency\";\n}\n",
            ),
            ("qd-analyze.layers", "0 qd-obs\n"),
        ],
    );
    let r11 = findings_of(&report, RuleId::R11);
    assert_eq!(r11.len(), 1, "{r11:?}");
    assert!(r11[0].message.contains("hist::LATENCY"));
}

#[test]
fn r11_negative_referenced_hist_name_is_clean() {
    let report = check_workspace(
        "r11_hist_live",
        &[
            ("crates/qd-obs/Cargo.toml", &manifest("qd-obs", &[])),
            (
                "crates/qd-obs/src/lib.rs",
                "pub mod hist {\n    pub const LATENCY: &str = \"q.latency\";\n}\n",
            ),
            ("crates/qd-core/Cargo.toml", &manifest("qd-core", &[])),
            (
                "crates/qd-core/src/lib.rs",
                "pub fn serve(n: u64) {\n    qd_obs::observe(qd_obs::hist::LATENCY, n)\n}\n",
            ),
            ("qd-analyze.layers", "0 qd-obs\n1 qd-core\n"),
        ],
    );
    let r11 = findings_of(&report, RuleId::R11);
    assert!(r11.is_empty(), "{r11:?}");
}

#[test]
fn r11_negative_reference_inside_qd_obs_does_not_count() {
    // The only reference is qd-obs's own aggregate table — still dead.
    let report = check_workspace(
        "r11_self",
        &[
            ("crates/qd-obs/Cargo.toml", &manifest("qd-obs", &[])),
            (
                "crates/qd-obs/src/lib.rs",
                "pub mod ctr {\n    pub const KNN_PRUNED: &str = \"knn.pruned\";\n}\n\
                 pub const COUNTERS: &[(&str, &str)] = &[(ctr::KNN_PRUNED, \"d\")];\n",
            ),
            ("qd-analyze.layers", "0 qd-obs\n"),
        ],
    );
    let r11 = findings_of(&report, RuleId::R11);
    assert_eq!(r11.len(), 1, "self-reference must not satisfy closure");
}

// ---------------------------------------------------------- walker

#[test]
fn walker_scans_examples_and_skips_vendor_and_hidden_dirs() {
    // The same R1 violation planted in four places; only the first two are
    // first-party source the walker may see.
    let bad = "fn f(v: &mut Vec<f32>) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    let report = check_workspace(
        "walker",
        &[
            ("examples/demo.rs", bad),
            ("crates/qd-x/Cargo.toml", &manifest("qd-x", &[])),
            ("crates/qd-x/examples/tour.rs", bad),
            ("vendor/rand/src/lib.rs", bad),
            (".git/hooks/snippet.rs", bad),
            ("crates/qd-x/src/lib.rs", EMPTY_MAIN),
            ("qd-analyze.layers", "0 qd-x\n"),
        ],
    );
    let r1_files: Vec<&str> = findings_of(&report, RuleId::R1)
        .iter()
        .map(|f| f.file.as_str())
        .collect();
    assert_eq!(
        r1_files,
        ["crates/qd-x/examples/tour.rs", "examples/demo.rs"],
        "walker coverage drifted"
    );
    assert_eq!(report.files_scanned, 3);
}

// ---------------------------------------------------------- lexer round-trip

/// The lexer's load-bearing property: concatenating token texts reproduces
/// every first-party file byte-for-byte. Run over the real workspace so each
/// new source construct anyone commits becomes part of the corpus.
#[test]
fn lexer_round_trips_every_first_party_file() {
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = qd_analyze::find_root(&here).expect("workspace root above qd-analyze");
    let files = qd_analyze::source_files(&root).unwrap();
    assert!(files.len() > 50, "walker lost the source tree");
    for rel in &files {
        let source = std::fs::read_to_string(root.join(rel)).unwrap();
        let tokens = qd_analyze::lex::lex(&source);
        assert_eq!(
            qd_analyze::lex::reconstruct(&tokens),
            source,
            "lexer did not round-trip {rel}"
        );
    }
}

/// The scrub view must preserve line structure exactly: same line count, and
/// every line no longer than the original (blanking never adds bytes).
#[test]
fn scrub_preserves_line_structure_of_every_first_party_file() {
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = qd_analyze::find_root(&here).expect("workspace root above qd-analyze");
    for rel in qd_analyze::source_files(&root).unwrap() {
        let source = std::fs::read_to_string(root.join(&rel)).unwrap();
        let scrubbed = scrub(&source);
        assert_eq!(
            scrubbed.lines.len(),
            source.split('\n').count(),
            "line count drifted in {rel}"
        );
        for (i, (s, o)) in scrubbed.lines.iter().zip(source.split('\n')).enumerate() {
            assert!(
                s.chars().count() <= o.chars().count(),
                "{rel}:{} grew under scrubbing",
                i + 1
            );
        }
    }
}
