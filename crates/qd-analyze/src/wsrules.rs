//! The cross-file rules R9–R11.
//!
//! These are the rules the old line-based scrubber could not express: each
//! one relates facts from *different* files — manifests against the layering
//! table (R9), failpoint declarations against the chaos suite and the one
//! file boundary (R10), the observability catalogs against their call sites
//! (R11). They
//! run only through [`crate::run_check`], which hands them the full
//! [`Workspace`] model.

use crate::model::{Workspace, LAYERS_FILE};
use crate::rules::{cfg_test_lines, Finding, Rule, RuleId};
use crate::scan::word_occurrences;
use std::collections::HashSet;

/// R9: the crate-layering DAG.
///
/// The checked-in manifest (`qd-analyze.layers`) assigns every first-party
/// crate a layer; a crate's `[dependencies]` may only name crates on
/// *strictly lower* layers. Engine crates therefore can never pull in
/// qd-bench or the CLI facade. The manifest itself is kept closed: an entry
/// naming a crate that no longer exists, or a crate missing from the
/// manifest, is a finding too. On top of the manifest edges, every `src/`
/// file is token-scanned for identifiers of same-or-higher-layer first-party
/// crates — so a path like `qd_bench::report::…` fails even if someone also
/// forgot the manifest edge (dev-dependency leakage into src).
pub struct Layering;

impl Rule for Layering {
    fn id(&self) -> RuleId {
        RuleId::R9
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        if ws.layers.is_empty() {
            out.push(Finding {
                rule: RuleId::R9,
                file: LAYERS_FILE.to_string(),
                line: 1,
                message: "layering manifest missing or empty".to_string(),
                hint: "add one `<layer> <crate-name>` line per first-party crate; \
                       dependencies must point strictly down"
                    .to_string(),
            });
            return;
        }
        for entry in &ws.layers {
            if !ws.crates.iter().any(|c| c.name == entry.crate_name) {
                out.push(Finding {
                    rule: RuleId::R9,
                    file: LAYERS_FILE.to_string(),
                    line: entry.line,
                    message: format!("layering entry names unknown crate `{}`", entry.crate_name),
                    hint: "remove the entry or fix the crate name".to_string(),
                });
            }
        }
        for c in &ws.crates {
            if ws.layer_of(&c.name).is_none() {
                out.push(Finding {
                    rule: RuleId::R9,
                    file: c.manifest_rel.clone(),
                    line: 1,
                    message: format!("crate `{}` is missing from {LAYERS_FILE}", c.name),
                    hint: format!("assign it a layer in {LAYERS_FILE}"),
                });
            }
        }
        // Manifest edges: every first-party dependency must point strictly
        // down. Vendored stubs are not in the layer table and are ignored.
        for c in &ws.crates {
            let Some(layer) = ws.layer_of(&c.name) else {
                continue;
            };
            for dep in &c.deps {
                let Some(dep_layer) = ws.layer_of(&dep.name) else {
                    continue;
                };
                if dep_layer >= layer {
                    out.push(Finding {
                        rule: RuleId::R9,
                        file: c.manifest_rel.clone(),
                        line: dep.line,
                        message: format!(
                            "`{}` (layer {layer}) depends on `{}` (layer {dep_layer}); \
                             dependencies must point strictly down the layer table",
                            c.name, dep.name
                        ),
                        hint: format!(
                            "invert or remove the dependency, or re-justify the \
                             layering in {LAYERS_FILE}"
                        ),
                    });
                }
            }
        }
        // Token-level scan of src/ for references to same-or-higher layers.
        for file in &ws.files {
            let in_src = file.rel_path.starts_with("src/") || file.rel_path.contains("/src/");
            if !in_src {
                continue;
            }
            let Some(owner) = ws.crate_of_file(&file.rel_path) else {
                continue;
            };
            let Some(owner_layer) = ws.layer_of(&owner.name) else {
                continue;
            };
            let idents = file.ident_set();
            for entry in &ws.layers {
                if entry.crate_name == owner.name || entry.layer < owner_layer {
                    continue;
                }
                let ident = entry.crate_name.replace('-', "_");
                if !idents.contains(ident.as_str()) {
                    continue;
                }
                let line = file
                    .tokens
                    .iter()
                    .find(|t| t.text == ident)
                    .map(|t| t.line)
                    .unwrap_or(1);
                out.push(Finding {
                    rule: RuleId::R9,
                    file: file.rel_path.clone(),
                    line,
                    message: format!(
                        "src of `{}` (layer {owner_layer}) references `{ident}` \
                         (layer {})",
                        owner.name, entry.layer
                    ),
                    hint: "engine src may only reach strictly lower layers; move \
                           the code or the crate boundary"
                        .to_string(),
                });
            }
        }
    }
}

/// The crates that persist an engine format (QDT2, QDC2, QDR2, QDS1): their
/// `src/` reaches the filesystem only through `qd_fault::codec`.
const PERSISTING_SRC: [&str; 4] = [
    "crates/qd-index/src/",
    "crates/qd-corpus/src/",
    "crates/qd-core/src/",
    "crates/qd-shard/src/",
];

/// Where fault sites are declared and where they must be exercised.
const FAULT_LIB: &str = "crates/qd-fault/src/lib.rs";
const FAULT_TESTS: &str = "tests/fault_properties.rs";

/// R10: failpoint coverage, both directions.
///
/// Forward: `std::fs` does not appear in the `src/` of the persisting crates
/// ([`PERSISTING_SRC`]) outside `#[cfg(test)]` code. Every file they read or
/// write therefore goes through `qd_fault::codec::{read_file,
/// write_file_atomic}` — the one place the I/O failpoints fire and the one
/// temp-file + rename — so a new format is fault-covered and atomic by
/// construction. Reverse: every `pub const NAME: &str` in `qd_fault::site`
/// appears as an identifier in `tests/fault_properties.rs`, so no declared
/// failpoint is dead weight the chaos suite never pulls.
pub struct FaultCoverage;

impl Rule for FaultCoverage {
    fn id(&self) -> RuleId {
        RuleId::R10
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            if !PERSISTING_SRC.iter().any(|p| file.rel_path.starts_with(p)) {
                continue;
            }
            let lines = &file.scrubbed.lines;
            let test_mask = cfg_test_lines(lines);
            for (li, line) in lines.iter().enumerate() {
                // `std::fs`, or a call through an imported `fs::`.
                let direct = word_occurrences(line, "fs")
                    .into_iter()
                    .any(|at| line[..at].ends_with("std::") || line[at + 2..].starts_with("::"));
                if direct && !test_mask[li] {
                    out.push(Finding {
                        rule: RuleId::R10,
                        file: file.rel_path.clone(),
                        line: li + 1,
                        message: "std::fs in a persisting crate outside qd_fault::codec"
                            .to_string(),
                        hint: "read with qd_fault::codec::read_file and write with \
                               write_file_atomic, so the I/O failpoints and the atomic \
                               rename cover this file too"
                            .to_string(),
                    });
                }
            }
        }

        // Reverse direction: declared sites must be exercised.
        let Some(fault_lib) = ws.file(FAULT_LIB) else {
            return;
        };
        let sites = str_consts_in_mod(&fault_lib.scrubbed.lines, "site");
        if sites.is_empty() {
            return;
        }
        let Some(tests) = ws.file(FAULT_TESTS) else {
            out.push(Finding {
                rule: RuleId::R10,
                file: FAULT_TESTS.to_string(),
                line: 1,
                message: "tests/fault_properties.rs not found — declared fault \
                          sites cannot be checked for coverage"
                    .to_string(),
                hint: "restore the chaos property suite".to_string(),
            });
            return;
        };
        let test_idents = tests.ident_set();
        for (name, line) in sites {
            if !test_idents.contains(name.as_str()) {
                out.push(Finding {
                    rule: RuleId::R10,
                    file: FAULT_LIB.to_string(),
                    line,
                    message: format!(
                        "fault site `{name}` is never exercised by {FAULT_TESTS} \
                         — dead failpoint"
                    ),
                    hint: "add a chaos test that injects this site by name, or \
                           delete the site"
                        .to_string(),
                });
            }
        }
    }
}

/// Where the observability catalogs live.
const OBS_LIB: &str = "crates/qd-obs/src/lib.rs";

/// R11: observability catalog closure (the reverse direction of R8).
///
/// R8 forces every production call site to use a
/// `qd_obs::ctr`/`qd_obs::sp`/`qd_obs::hist` constant; R11 forces every
/// constant to have at least one reference outside qd-obs. Together they
/// keep the metric vocabulary exactly equal to what the engine emits — a
/// dead catalog name means a golden file or dashboard is watching a metric
/// nothing records.
pub struct ObsClosure;

impl Rule for ObsClosure {
    fn id(&self) -> RuleId {
        RuleId::R11
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let Some(obs) = ws.file(OBS_LIB) else {
            return;
        };
        let mut names = Vec::new();
        for module in ["ctr", "sp", "hist"] {
            for (name, line) in str_consts_in_mod(&obs.scrubbed.lines, module) {
                names.push((module, name, line));
            }
        }
        if names.is_empty() {
            return;
        }
        let outside: Vec<HashSet<&str>> = ws
            .files
            .iter()
            .filter(|f| !f.rel_path.starts_with("crates/qd-obs/"))
            .map(|f| f.ident_set())
            .collect();
        for (module, name, line) in names {
            if outside.iter().any(|set| set.contains(name.as_str())) {
                continue;
            }
            out.push(Finding {
                rule: RuleId::R11,
                file: OBS_LIB.to_string(),
                line,
                message: format!(
                    "catalog name `{module}::{name}` is never referenced outside \
                     qd-obs — dead metric"
                ),
                hint: "emit it from the engine path it was declared for, or \
                       delete it from the catalog (and any goldens naming it)"
                    .to_string(),
            });
        }
    }
}

/// Collects `pub const NAME: &str = …;` declarations inside `pub mod <name>`
/// of a scrubbed file, with their 1-based lines. The `&str` type filter
/// excludes the aggregate catalogs (`SITES`, `COUNTERS`, `SPANS`), whose
/// types are slices/arrays.
fn str_consts_in_mod(lines: &[String], mod_name: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let header = format!("pub mod {mod_name}");
    let Some(open) = lines.iter().position(|l| {
        let t = l.trim_start();
        t.strip_prefix(&header)
            .is_some_and(|r| r.trim_start().starts_with('{'))
    }) else {
        return out;
    };
    let mut depth = 0i64;
    for (li, line) in lines.iter().enumerate().skip(open) {
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if let Some(rest) = line.trim_start().strip_prefix("pub const ") {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            let ty = rest[name.len()..]
                .trim_start()
                .strip_prefix(':')
                .map(str::trim_start)
                .unwrap_or("");
            if !name.is_empty() && ty.starts_with("&str") {
                out.push((name, li + 1));
            }
        }
        if depth <= 0 {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scrub;

    #[test]
    fn str_consts_sees_only_str_typed_consts_in_the_mod() {
        let src = "pub mod site {\n\
                       /// doc\n\
                       pub const CACHE_READ: &str = \"corpus.cache.read\";\n\
                       pub const SITES: &[(&str, &str)] = &[];\n\
                   }\n\
                   pub const OUTSIDE: &str = \"nope\";\n";
        let consts = str_consts_in_mod(&scrub(src).lines, "site");
        assert_eq!(consts.len(), 1);
        assert_eq!(consts[0], ("CACHE_READ".to_string(), 3));
    }
}
