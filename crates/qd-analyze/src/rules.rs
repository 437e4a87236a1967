//! The repo-specific rules clippy cannot express.
//!
//! Every file-scoped rule matches on scrubbed source (comments and literal
//! bodies blanked, see [`crate::scan`], itself a rendering of the
//! [`crate::lex`] token stream), so mentions of a forbidden pattern in docs,
//! strings, or test fixtures never fire. Rules are heuristic by design —
//! tight enough that the workspace runs clean, loose enough to never need a
//! type checker. The failure direction is chosen per rule: R1
//! over-approximates (any `partial_cmp` inside a comparator), R12
//! under-approximates (it only recognizes casts whose *target* type is
//! narrow).
//!
//! The cross-file rules R9–R11 live in [`crate::wsrules`]; everything is
//! driven through the [`Rule`] trait, which receives the full workspace
//! model ([`crate::model::Workspace`]: token streams, scrub views, crate
//! manifests, layering table). R2–R7 and R13 are clippy lints now
//! (DESIGN.md §8); their ids stay retired.

use crate::model::Workspace;
use crate::scan::{word_occurrences, Scrubbed};
use std::fmt;

/// Identifier of one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// `partial_cmp` inside a `sort_by`/`max_by`/`min_by` comparator.
    R1,
    /// String-literal counter/span names passed to `qd_obs` hooks.
    R8,
    /// Crate-layering DAG: dependencies must point strictly down the
    /// checked-in layering manifest.
    R9,
    /// Failpoint coverage: the persisting crates reach the filesystem only
    /// through `qd_fault::codec`, and no declared site is dead (unexercised
    /// by the chaos suite).
    R10,
    /// Observability catalog closure: every `qd_obs::ctr`/`qd_obs::sp` name
    /// is emitted at least once.
    R11,
    /// Lossy `as` casts in engine-crate src need a `// CAST:` justification.
    R12,
}

impl RuleId {
    /// All rules, in report order.
    pub const ALL: [RuleId; 6] = [
        RuleId::R1,
        RuleId::R8,
        RuleId::R9,
        RuleId::R10,
        RuleId::R11,
        RuleId::R12,
    ];

    /// One-line description, shown by `qd-analyze rules`.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::R1 => {
                "float comparators must use total_cmp: partial_cmp inside \
                 sort_by/max_by/min_by panics (unwrap) or silently reorders \
                 (unwrap_or) on NaN"
            }
            RuleId::R8 => {
                "no string-literal counter/span/histogram names at qd_obs call \
                 sites in src outside #[cfg(test)]: names come from the \
                 qd_obs::ctr / qd_obs::sp / qd_obs::hist catalogs, so every \
                 metric is greppable and the trace vocabulary stays closed"
            }
            RuleId::R9 => {
                "crate dependencies must point strictly down the layering \
                 manifest (qd-analyze.layers): engine crates can never pull \
                 in qd-bench or the CLI facade, and the manifest itself must \
                 cover exactly the first-party crate set"
            }
            RuleId::R10 => {
                "failpoint coverage: no std::fs in qd-index/qd-corpus/qd-core/\
                 qd-shard src outside #[cfg(test)] code — files are read and \
                 written through qd_fault::codec, where the I/O failpoints \
                 fire — and every declared qd_fault::site name is exercised \
                 by tests/fault_properties.rs — no dead failpoints"
            }
            RuleId::R11 => {
                "observability catalog closure (reverse of R8): every name \
                 declared in qd_obs::ctr / qd_obs::sp / qd_obs::hist is \
                 referenced outside qd-obs at least once; a dead catalog name \
                 means a golden or dashboard is watching a metric nothing \
                 records"
            }
            RuleId::R12 => {
                "narrowing `as` casts (target u8/i8/u16/i16/u32/i32/f32) in \
                 engine-crate src need a // CAST: comment within 3 lines \
                 stating why the value fits"
            }
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What was matched.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}\n    fix: {}",
            self.file, self.line, self.rule, self.message, self.hint
        )
    }
}

/// One lint: an id plus a pass over the workspace model. File-scoped rules
/// (R1, R8, R12) loop over [`Workspace::files`] and match on the
/// scrub view; cross-file rules (R9–R11 in [`crate::wsrules`]) read
/// manifests, catalogs, and token streams across files.
pub trait Rule {
    /// Which rule this is.
    fn id(&self) -> RuleId;
    /// Appends this rule's findings for the whole workspace.
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// The file-scoped rules, paired with their matcher. Shared by
/// [`analyze_file`] (the single-file path the fixture tests drive) and the
/// [`Rule`] instances [`all_rules`] returns.
type FileRuleFn = fn(&str, &Scrubbed, &mut Vec<Finding>);
const FILE_RULES: [(RuleId, FileRuleFn); 3] = [
    (RuleId::R1, rule_r1),
    (RuleId::R8, rule_r8),
    (RuleId::R12, rule_r12),
];

/// Whether a file-scoped rule applies to `rel_path` (forward slashes,
/// workspace-relative). Per-rule crate exemptions key off path prefixes.
fn rule_applies(id: RuleId, rel_path: &str) -> bool {
    match id {
        RuleId::R1 => true,
        RuleId::R8 => {
            (rel_path.starts_with("src/") || rel_path.contains("/src/"))
                && !rel_path.starts_with("crates/qd-obs/")
        }
        RuleId::R12 => [
            "crates/qd-core/src/",
            "crates/qd-index/src/",
            "crates/qd-cluster/src/",
            "crates/qd-linalg/src/",
        ]
        .iter()
        .any(|p| rel_path.starts_with(p)),
        // Cross-file rules are not file-scoped.
        RuleId::R9 | RuleId::R10 | RuleId::R11 => false,
    }
}

/// A file-scoped rule lifted to the [`Rule`] trait.
struct FileRule {
    id: RuleId,
    run: FileRuleFn,
}

impl Rule for FileRule {
    fn id(&self) -> RuleId {
        self.id
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            if rule_applies(self.id, &file.rel_path) {
                (self.run)(&file.rel_path, &file.scrubbed, out);
            }
        }
    }
}

/// Every rule, in report order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    let mut out: Vec<Box<dyn Rule>> = FILE_RULES
        .iter()
        .map(|&(id, run)| Box::new(FileRule { id, run }) as Box<dyn Rule>)
        .collect();
    out.push(Box::new(crate::wsrules::Layering));
    out.push(Box::new(crate::wsrules::FaultCoverage));
    out.push(Box::new(crate::wsrules::ObsClosure));
    out.sort_by_key(|r| r.id());
    out
}

/// Runs every *file-scoped* rule over one scrubbed file. `rel_path` must use
/// forward slashes; per-rule crate exemptions key off its prefix. Cross-file
/// rules (R9–R11) need the full workspace model and only run via
/// [`all_rules`] + [`crate::run_check`].
pub fn analyze_file(rel_path: &str, scrubbed: &Scrubbed) -> Vec<Finding> {
    let mut out = Vec::new();
    for (id, run) in FILE_RULES {
        if rule_applies(id, rel_path) {
            run(rel_path, scrubbed, &mut out);
        }
    }
    out.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.message.cmp(&b.message)));
    out.dedup_by(|a, b| a.rule == b.rule && a.line == b.line && a.message == b.message);
    out
}

/// Comparator-taking methods whose closure bodies R1 inspects.
const COMPARATOR_METHODS: [&str; 6] = [
    "sort_by",
    "sort_unstable_by",
    "sort_by_cached_key",
    "max_by",
    "min_by",
    "select_nth_unstable_by",
];

/// R1: `partial_cmp` inside a comparator closure. Finds each comparator
/// method call, walks its parenthesized argument region (across lines), and
/// reports every `partial_cmp` word inside it.
fn rule_r1(rel_path: &str, scrubbed: &Scrubbed, out: &mut Vec<Finding>) {
    let lines = &scrubbed.lines;
    for (li, line) in lines.iter().enumerate() {
        for method in COMPARATOR_METHODS {
            for start in word_occurrences(line, method) {
                // Require a call: next non-space char after the word is `(`.
                let after = &line[start + method.len()..];
                let Some(rel_open) = after.find(|c: char| !c.is_whitespace()) else {
                    continue;
                };
                if !after[rel_open..].starts_with('(') {
                    continue;
                }
                let to = closing_line(lines, li, start + method.len() + rel_open);
                for (ri, region_line) in lines.iter().enumerate().take(to + 1).skip(li) {
                    if word_occurrences(region_line, "partial_cmp").is_empty() {
                        continue;
                    }
                    out.push(Finding {
                        rule: RuleId::R1,
                        file: rel_path.to_string(),
                        line: ri + 1,
                        message: format!("partial_cmp inside a `{method}` comparator"),
                        hint: "use f32::total_cmp/f64::total_cmp (NaN-total, never panics, \
                               one deterministic order)"
                            .to_string(),
                    });
                }
            }
        }
    }
}

/// The line on which the parenthesized region opening at byte `col` of
/// `line` closes. An unbalanced region (not in compiling code) runs to the
/// last line, so the scan stays conservative.
fn closing_line(lines: &[String], line: usize, col: usize) -> usize {
    let mut depth = 0i32;
    for (li, l) in lines.iter().enumerate().skip(line) {
        let from = if li == line { col } else { 0 };
        for c in l[from..].chars() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return li;
                    }
                }
                _ => {}
            }
        }
    }
    lines.len() - 1
}

/// Marks every line belonging to a `#[cfg(test)]`-gated item. The attribute
/// line starts the region; it ends when the item's brace pair closes (or at
/// the trailing `;` of a braceless item like `#[cfg(test)] mod testutil;`).
/// Runs on scrubbed lines, so braces inside strings and comments are already
/// blanked and simple depth counting is exact.
pub(crate) fn cfg_test_lines(lines: &[String]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0usize;
    while i < lines.len() {
        if !lines[i].trim_start().starts_with("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let mut depth = 0i64;
        let mut opened = false;
        let mut end = lines.len() - 1;
        let mut j = i;
        'scan: while j < lines.len() {
            for c in lines[j].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' if opened => {
                        depth -= 1;
                        if depth == 0 {
                            end = j;
                            break 'scan;
                        }
                    }
                    ';' if !opened => {
                        end = j;
                        break 'scan;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        for m in mask.iter_mut().take(end + 1).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// The `qd_obs` hooks whose first argument is a counter/span/histogram name.
const R8_HOOKS: [&str; 5] = ["count", "span", "span_indexed", "measured", "observe"];

/// R8: a string literal passed as the name argument of a `qd_obs` hook in
/// `src/` outside `#[cfg(test)]` code. Production counter, span, and
/// histogram names must be the `qd_obs::ctr` / `qd_obs::sp` /
/// `qd_obs::hist` catalog constants: the catalogs
/// keep the trace vocabulary closed (goldens, BENCH_qd.json consumers, and
/// conservation tests all grep by constant), and a literal at the call site
/// silently forks it. The scrubber blanks string bodies but keeps the quote
/// characters, so the literal is still visible as a leading `"`. The crate
/// defining the catalogs (`qd-obs` itself) and test code — where ad-hoc
/// names are the point — are exempt.
fn rule_r8(rel_path: &str, scrubbed: &Scrubbed, out: &mut Vec<Finding>) {
    let test_mask = cfg_test_lines(&scrubbed.lines);
    for (li, line) in scrubbed.lines.iter().enumerate() {
        if test_mask[li] {
            continue;
        }
        for hook in R8_HOOKS {
            for start in word_occurrences(line, hook) {
                if !line[..start].ends_with("qd_obs::") {
                    continue;
                }
                let Some(rest) = line[start + hook.len()..].strip_prefix('(') else {
                    continue;
                };
                // rustfmt may wrap the argument list; an empty remainder
                // means the first argument starts the next line.
                let first_arg = if rest.trim().is_empty() {
                    scrubbed.lines.get(li + 1).map(|l| l.trim_start())
                } else {
                    Some(rest.trim_start())
                };
                if first_arg.is_some_and(|a| a.starts_with('"')) {
                    out.push(Finding {
                        rule: RuleId::R8,
                        file: rel_path.to_string(),
                        line: li + 1,
                        message: format!("string-literal name passed to qd_obs::{hook}"),
                        hint: "name it with a qd_obs::ctr / qd_obs::sp / qd_obs::hist \
                               catalog constant \
                               (add one there if this is a genuinely new metric)"
                            .to_string(),
                    });
                }
            }
        }
    }
}

/// Cast targets R12 treats as narrowing. The source type is unknown without
/// a type checker, so the rule keys off the *target*: anything at most 32
/// bits can truncate or lose precision when fed from the usize/u64/f64
/// arithmetic this codebase does internally. A deliberate
/// under-approximation — `f64 as usize` escapes — chosen so every hit is
/// worth a comment.
const R12_NARROW_TARGETS: [&str; 7] = ["u8", "i8", "u16", "i16", "u32", "i32", "f32"];

/// How many preceding lines R12 searches for a `// CAST:` comment.
const JUSTIFY_WINDOW: usize = 3;

/// R12: a narrowing `as` cast in engine-crate src without a `// CAST:`
/// comment on the same line or within [`JUSTIFY_WINDOW`] lines above.
/// `#[cfg(test)]` code is exempt (fixture arithmetic casts freely).
fn rule_r12(rel_path: &str, scrubbed: &Scrubbed, out: &mut Vec<Finding>) {
    let test_mask = cfg_test_lines(&scrubbed.lines);
    for (li, line) in scrubbed.lines.iter().enumerate() {
        if test_mask[li] {
            continue;
        }
        for start in word_occurrences(line, "as") {
            let mut rest = line[start + 2..].trim_start();
            if rest.is_empty() {
                // rustfmt can break a long expression after `as`.
                rest = scrubbed
                    .lines
                    .get(li + 1)
                    .map(|l| l.trim_start())
                    .unwrap_or("");
            }
            let target: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !R12_NARROW_TARGETS.contains(&target.as_str()) {
                continue;
            }
            let lo = li.saturating_sub(JUSTIFY_WINDOW);
            if (lo..=li).any(|i| scrubbed.cast_comment[i]) {
                continue;
            }
            out.push(Finding {
                rule: RuleId::R12,
                file: rel_path.to_string(),
                line: li + 1,
                message: format!("narrowing `as {target}` cast without a // CAST: justification"),
                hint: "state why the value fits (range bound, counted quantity, \
                       precision argument) in a // CAST: comment within 3 lines, \
                       or use a checked conversion"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scrub;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        analyze_file(path, &scrub(src))
    }

    #[test]
    fn r1_catches_multiline_comparator() {
        let src = "v.sort_by(|a, b| {\n    a.partial_cmp(b).unwrap()\n});";
        let f = findings("crates/qd-core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), (RuleId::R1, 2));
    }

    #[test]
    fn r1_ignores_partial_cmp_outside_comparators() {
        let src = "impl PartialOrd for X {\n    fn partial_cmp(&self, o: &X) -> Option<Ordering> { Some(self.cmp(o)) }\n}";
        assert!(findings("crates/qd-core/src/x.rs", src).is_empty());
    }

    #[test]
    fn r8_catches_string_literal_names_in_src() {
        let src = "fn f() {\n\
                       qd_obs::count(\"knn.ad_hoc\", 1);\n\
                       qd_obs::span(\"phase\", || ());\n\
                       qd_obs::span_indexed(\"phase\", 3, || ());\n\
                       let (_, c) = qd_obs::measured(\"phase\", || ());\n\
                       qd_obs::observe(\"lat.ad_hoc\", 9);\n\
                   }";
        let f = findings("crates/qd-core/src/x.rs", src);
        assert_eq!(f.len(), 5, "{f:?}");
        assert!(f.iter().all(|x| x.rule == RuleId::R8));
        assert_eq!(f[0].line, 2);
        // Facade src is covered too.
        assert_eq!(findings("src/bin/qd.rs", src).len(), 5);
    }

    #[test]
    fn r8_catches_wrapped_argument_lists() {
        let src = "fn f() {\n\
                       qd_obs::span_indexed(\n\
                           \"phase\",\n\
                           3,\n\
                           || (),\n\
                       );\n\
                   }";
        let f = findings("crates/qd-core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::R8);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn r8_accepts_catalog_constants() {
        let src = "fn f(n: u64) {\n\
                       qd_obs::count(qd_obs::ctr::KNN_DISTANCE, n);\n\
                       qd_obs::span(qd_obs::sp::RFS_BUILD, || ());\n\
                       qd_obs::span_indexed(qd_obs::sp::SUBQUERY, 0, || ());\n\
                       qd_obs::observe(qd_obs::hist::QD_QUERY_DISTANCES, n);\n\
                   }";
        assert!(findings("crates/qd-core/src/x.rs", src).is_empty());
    }

    #[test]
    fn r8_exempts_tests_benches_and_the_obs_crate_itself() {
        let src = "fn f() { qd_obs::count(\"scratch.name\", 1); }";
        // Integration tests, benches, and qd-obs (the catalog home): clean.
        assert!(findings("tests/x.rs", src).is_empty());
        assert!(findings("crates/qd-core/tests/x.rs", src).is_empty());
        assert!(findings("crates/qd-bench/benches/x.rs", src).is_empty());
        assert!(findings("crates/qd-obs/src/lib.rs", src).is_empty());
        // #[cfg(test)] code inside src: clean.
        let gated = "fn serve() {}\n\
                     #[cfg(test)]\n\
                     mod tests {\n\
                         fn t() { qd_obs::count(\"scratch.name\", 1); }\n\
                     }";
        assert!(findings("crates/qd-core/src/x.rs", gated).is_empty());
        // Unqualified calls are out of scope (heuristic matches qd_obs:: paths).
        let unqualified = "fn f() { count(\"scratch.name\", 1); }";
        assert!(findings("crates/qd-core/src/x.rs", unqualified).is_empty());
    }

    #[test]
    fn r12_catches_unjustified_narrowing_casts() {
        let src = "fn f(n: usize) -> u32 { n as u32 }";
        let f = findings("crates/qd-index/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RuleId::R12);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn r12_accepts_cast_comments_within_window() {
        let same_line = "fn f(n: usize) -> u32 { n as u32 } // CAST: slot count < 2^32";
        assert!(findings("crates/qd-index/src/x.rs", same_line).is_empty());
        let above = "fn f(n: usize) -> u32 {\n    // CAST: node count bounded by corpus size\n    n as u32\n}";
        assert!(findings("crates/qd-index/src/x.rs", above).is_empty());
        let too_far = "fn f(n: usize) -> u32 {\n    // CAST: too far away\n    let _a = 0;\n    let _b = 0;\n    let _c = 0;\n    n as u32\n}";
        assert_eq!(findings("crates/qd-index/src/x.rs", too_far).len(), 1);
    }

    #[test]
    fn r12_ignores_widening_casts_test_code_and_other_crates() {
        let widening = "fn f(n: u32) -> u64 { n as u64 }\nfn g(x: f32) -> f64 { x as f64 }\nfn h(n: u32) -> usize { n as usize }";
        assert!(findings("crates/qd-core/src/x.rs", widening).is_empty());
        let gated = "#[cfg(test)]\nmod tests {\n    fn t(i: usize) -> f32 { i as f32 }\n}";
        assert!(findings("crates/qd-core/src/x.rs", gated).is_empty());
        let narrowing = "fn f(n: usize) -> u32 { n as u32 }";
        // Engine crates only: qd-corpus / qd-bench / the facade are exempt.
        assert!(findings("crates/qd-corpus/src/x.rs", narrowing).is_empty());
        assert!(findings("crates/qd-bench/src/x.rs", narrowing).is_empty());
        // `use x as y` renames never look like narrow targets.
        let rename = "use std::io::Read as _;\nuse a::b as c;";
        assert!(findings("crates/qd-core/src/x.rs", rename).is_empty());
    }
}
