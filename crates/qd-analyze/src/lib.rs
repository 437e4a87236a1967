#![warn(missing_docs)]

//! # qd-analyze — workspace determinism & panic-safety lints
//!
//! The workspace's core contract since the qd-runtime PR is *parallel ≡
//! sequential, byte-identical CSVs at any `QD_THREADS`*; since the qd-fault
//! PR it also includes *serving paths never panic — they return typed errors
//! or degrade*. Those contracts rest on source-level invariants. Where
//! clippy can state one, the workspace lint configuration carries it
//! (`cargo clippy --workspace --all-targets -- -D warnings`); this crate
//! checks the rest:
//!
//! | rule | invariant |
//! |------|-----------|
//! | R1 | float comparators use `total_cmp`, never `partial_cmp(..).unwrap()` (NaN ⇒ panic) or `unwrap_or(Equal)` (NaN ⇒ nondeterministic ranking) |
//! | R3 | no hash-container iteration shaping results in qd-core/qd-cluster/qd-index without an adjacent deterministic sort |
//! | R4 | no `Instant::now`/`SystemTime::now` outside `qd-bench` |
//! | R8 | no string-literal counter/span names at `qd_obs` call sites in `src/` outside `#[cfg(test)]` — names come from the `qd_obs::ctr`/`qd_obs::sp` catalogs |
//! | R9 | crate dependencies point strictly down the layering manifest (`qd-analyze.layers`); engine crates never reach qd-bench or the CLI |
//! | R10 | no `std::fs` in qd-index/qd-corpus/qd-core/qd-shard `src/` outside `#[cfg(test)]` code (files go through `qd_fault::codec`), and every declared fault site is exercised by `tests/fault_properties.rs` |
//! | R11 | every `qd_obs::ctr`/`qd_obs::sp` catalog name is referenced outside qd-obs (reverse of R8 — no dead metrics) |
//! | R12 | narrowing `as` casts in engine-crate src carry a `// CAST:` justification within 3 lines |
//!
//! The retired ids R2, R5, R6, R7 and R13 are clippy lints now, with
//! exceptions as in-source `#[expect(lint, reason = "…")]`; DESIGN.md §8
//! maps each one to its lint.
//!
//! The crate is dependency-free (the build environment is offline, so `syn`
//! is not an option). A hand-rolled Rust lexer ([`lex`]) produces a lossless
//! comment/string/raw-string-aware token stream; the line-oriented scrub
//! view ([`scan`]) is derived from it, and the [`model::Workspace`] adds the
//! cross-file facts (crate manifests, the layering table, per-file token
//! streams). Rules implement the [`rules::Rule`] trait; R1, R3, R4, R8 and
//! R12 are file-scoped ([`rules`]), R9–R11 are cross-file ([`wsrules`]).
//! Justified exceptions live in `qd-analyze.allow` at the workspace root
//! ([`allow`]), optionally scoped to line ranges; stale entries are
//! themselves an error.
//!
//! Run it as `cargo run -p qd-analyze -- check`.

pub mod allow;
pub mod lex;
pub mod model;
pub mod rules;
pub mod scan;
pub mod wsrules;

use rules::Finding;
use std::path::{Path, PathBuf};

/// Name of the allowlist file at the workspace root.
pub const ALLOWLIST_FILE: &str = "qd-analyze.allow";

/// The source directories walked, relative to the workspace root.
const WALKED: [&str; 3] = ["src", "tests", "examples"];

/// Directory names never descended into, wherever they appear: vendored
/// third-party stubs are not first-party code, and build output is not
/// source. Hidden directories (`.git`, `.github`) are skipped too.
const EXCLUDED_DIRS: [&str; 2] = ["vendor", "target"];

/// Everything one `check` run produced.
#[derive(Debug)]
pub struct CheckReport {
    /// Findings not covered by the allowlist — each one fails the check.
    pub reported: Vec<Finding>,
    /// Findings suppressed by an allowlist entry.
    pub suppressed: Vec<Finding>,
    /// Allowlist entries that suppressed nothing — each one fails the check.
    pub stale: Vec<allow::AllowEntry>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl CheckReport {
    /// True if the tree is clean: nothing reported, no stale entries.
    pub fn is_clean(&self) -> bool {
        self.reported.is_empty() && self.stale.is_empty()
    }
}

/// Errors from a `check` run (I/O or a malformed allowlist).
#[derive(Debug)]
pub enum CheckError {
    /// Reading a source file or directory failed.
    Io(PathBuf, std::io::Error),
    /// The allowlist did not parse.
    Allowlist(allow::ParseError),
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Io(p, e) => write!(f, "{}: {e}", p.display()),
            CheckError::Allowlist(e) => write!(f, "{e}"),
        }
    }
}

/// Collects every `.rs` file under the workspace's walked roots:
/// `src/`, `tests/`, `examples/`, and each `crates/*/{src,tests,benches,examples}`.
/// `vendor/` and `target/` are never entered ([`EXCLUDED_DIRS`]). Returned
/// paths are workspace-relative with forward slashes, sorted.
pub fn source_files(root: &Path) -> Result<Vec<String>, CheckError> {
    let mut roots: Vec<PathBuf> = WALKED.iter().map(|d| root.join(d)).collect();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let entries =
            std::fs::read_dir(&crates_dir).map_err(|e| CheckError::Io(crates_dir.clone(), e))?;
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                for sub in ["src", "tests", "benches", "examples"] {
                    roots.push(p.join(sub));
                }
            }
        }
    }
    let mut out = Vec::new();
    for dir in roots {
        if dir.is_dir() {
            collect_rs(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<String>) -> Result<(), CheckError> {
    let entries = std::fs::read_dir(dir).map_err(|e| CheckError::Io(dir.to_path_buf(), e))?;
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            let name = p.file_name().map(|n| n.to_string_lossy().into_owned());
            let skip = name
                .as_deref()
                .is_some_and(|n| EXCLUDED_DIRS.contains(&n) || n.starts_with('.'));
            if !skip {
                collect_rs(&p, root, out)?;
            }
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .expect("walked path under root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Runs the full check over the workspace at `root`: builds the workspace
/// model, runs every rule, and applies the allowlist at
/// `root/qd-analyze.allow` when present.
pub fn run_check(root: &Path) -> Result<CheckReport, CheckError> {
    let files = source_files(root)?;
    let ws = model::Workspace::load(root, &files).map_err(|(p, e)| CheckError::Io(p, e))?;

    let mut findings = Vec::new();
    for rule in rules::all_rules() {
        rule.check(&ws, &mut findings);
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    findings.dedup_by(|a, b| {
        a.rule == b.rule && a.file == b.file && a.line == b.line && a.message == b.message
    });

    let allow_path = root.join(ALLOWLIST_FILE);
    let entries = if allow_path.is_file() {
        let text = std::fs::read_to_string(&allow_path)
            .map_err(|e| CheckError::Io(allow_path.clone(), e))?;
        allow::parse(&text).map_err(CheckError::Allowlist)?
    } else {
        Vec::new()
    };
    let (suppressed, reported, stale) = allow::apply(findings, &entries);
    Ok(CheckReport {
        reported,
        suppressed,
        stale,
        files_scanned: files.len(),
    })
}

/// Locates the workspace root from `start`: the nearest ancestor containing
/// both `Cargo.toml` and `crates/`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir.to_path_buf());
        }
        cur = dir.parent();
    }
    None
}
