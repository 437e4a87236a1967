//! The workspace model handed to every rule.
//!
//! Cross-file rules (R9–R11) need more than one file at a time: the set of
//! per-crate `[dependencies]`, the layering manifest, and the token streams
//! of every first-party source file. [`Workspace::load`] gathers all of it
//! up front so rules are pure functions of the model — no I/O inside a rule,
//! so a report depends on nothing but the tree.

use crate::lex::{lex, Token, TokenKind};
use crate::scan::{scrub_tokens, Scrubbed};
use std::path::{Path, PathBuf};

/// Name of the layering manifest at the workspace root (rule R9).
pub const LAYERS_FILE: &str = "qd-analyze.layers";

/// One lexed + scrubbed source file.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel_path: String,
    /// The full token stream (lossless: concatenating `text` reproduces the
    /// file byte-for-byte).
    pub tokens: Vec<Token>,
    /// The derived line-oriented scrub view.
    pub scrubbed: Scrubbed,
}

impl SourceFile {
    /// Lexes `source` into a model entry.
    pub fn parse(rel_path: &str, source: &str) -> SourceFile {
        let tokens = lex(source);
        let scrubbed = scrub_tokens(&tokens);
        SourceFile {
            rel_path: rel_path.to_string(),
            tokens,
            scrubbed,
        }
    }

    /// Every distinct identifier token in the file.
    pub fn ident_set(&self) -> std::collections::BTreeSet<&str> {
        self.tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect()
    }
}

/// One `[dependencies]` entry of a crate manifest.
#[derive(Debug, Clone)]
pub struct Dep {
    /// Dependency package name.
    pub name: String,
    /// 1-based line in the manifest (for findings).
    pub line: usize,
}

/// One first-party crate (a `crates/*` member or the root facade package).
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Package name from `[package] name = …`.
    pub name: String,
    /// Workspace-relative manifest path (`crates/qd-core/Cargo.toml`).
    pub manifest_rel: String,
    /// Workspace-relative crate root dir, empty string for the facade.
    pub root_rel: String,
    /// `[dependencies]` names (dev-dependencies are deliberately excluded:
    /// test scaffolding may reach up the layer stack).
    pub deps: Vec<Dep>,
}

/// One line of the layering manifest.
#[derive(Debug, Clone)]
pub struct LayerEntry {
    /// Layer number; dependencies must point to *strictly lower* layers.
    pub layer: u32,
    /// Crate (package) name.
    pub crate_name: String,
    /// 1-based line in the manifest (for findings).
    pub line: usize,
}

/// Everything a rule may inspect.
pub struct Workspace {
    /// All first-party `.rs` files, sorted by `rel_path`.
    pub files: Vec<SourceFile>,
    /// First-party crates, sorted by manifest path (facade first).
    pub crates: Vec<CrateInfo>,
    /// The layering manifest, in file order; empty if the file is absent
    /// (R9 reports that as a finding rather than an I/O error).
    pub layers: Vec<LayerEntry>,
}

impl Workspace {
    /// Builds the model: lexes `files` (workspace-relative paths under
    /// `root`), parses the facade and `crates/*` manifests, and reads the
    /// layering manifest. I/O failures return the offending path.
    pub fn load(root: &Path, files: &[String]) -> Result<Workspace, (PathBuf, std::io::Error)> {
        let mut parsed = Vec::with_capacity(files.len());
        for rel in files {
            let path = root.join(rel);
            let source = std::fs::read_to_string(&path).map_err(|e| (path.clone(), e))?;
            parsed.push(SourceFile::parse(rel, &source));
        }

        let mut crates = Vec::new();
        if root.join("Cargo.toml").is_file() {
            let text = std::fs::read_to_string(root.join("Cargo.toml"))
                .map_err(|e| (root.join("Cargo.toml"), e))?;
            if let Some(mut info) = parse_manifest(&text) {
                info.manifest_rel = "Cargo.toml".to_string();
                info.root_rel = String::new();
                crates.push(info);
            }
        }
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
                .map_err(|e| (crates_dir.clone(), e))?
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
                .collect();
            dirs.sort();
            for dir in dirs {
                let manifest = dir.join("Cargo.toml");
                let text = std::fs::read_to_string(&manifest).map_err(|e| (manifest.clone(), e))?;
                if let Some(mut info) = parse_manifest(&text) {
                    let dir_name = dir
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_default();
                    info.root_rel = format!("crates/{dir_name}");
                    info.manifest_rel = format!("crates/{dir_name}/Cargo.toml");
                    crates.push(info);
                }
            }
        }

        let layers_path = root.join(LAYERS_FILE);
        let layers = if layers_path.is_file() {
            let text =
                std::fs::read_to_string(&layers_path).map_err(|e| (layers_path.clone(), e))?;
            parse_layers(&text)
        } else {
            Vec::new()
        };

        Ok(Workspace {
            files: parsed,
            crates,
            layers,
        })
    }

    /// The file at `rel_path`, if scanned.
    pub fn file(&self, rel_path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel_path == rel_path)
    }

    /// Layer of `crate_name` per the manifest, if listed.
    pub fn layer_of(&self, crate_name: &str) -> Option<u32> {
        self.layers
            .iter()
            .find(|l| l.crate_name == crate_name)
            .map(|l| l.layer)
    }

    /// The crate a source file belongs to: the crate whose `root_rel` is the
    /// longest prefix of `rel_path` (the facade, with its empty root, owns
    /// the top-level `src/`, `tests/`, and `examples/`).
    pub fn crate_of_file(&self, rel_path: &str) -> Option<&CrateInfo> {
        self.crates
            .iter()
            .filter(|c| c.root_rel.is_empty() || rel_path.starts_with(&format!("{}/", c.root_rel)))
            .max_by_key(|c| c.root_rel.len())
    }
}

/// Minimal `Cargo.toml` reader: the `[package] name` plus the names of the
/// top-level `[dependencies]` section. This is not a TOML parser — it
/// understands exactly the subset these manifests use (one key per line,
/// `[section]` headers, `#` comments), which is all R9 needs.
fn parse_manifest(text: &str) -> Option<CrateInfo> {
    let mut section = String::new();
    let mut name = None;
    let mut deps = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            section = rest.trim_end_matches(']').trim().to_string();
            continue;
        }
        match section.as_str() {
            "package" => {
                if let Some(v) = line.strip_prefix("name") {
                    let v = v.trim_start();
                    if let Some(v) = v.strip_prefix('=') {
                        name = Some(v.trim().trim_matches('"').to_string());
                    }
                }
            }
            "dependencies" => {
                let key: String = line
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '-')
                    .collect();
                if !key.is_empty() {
                    deps.push(Dep {
                        name: key,
                        line: i + 1,
                    });
                }
            }
            _ => {}
        }
    }
    Some(CrateInfo {
        name: name?,
        manifest_rel: String::new(),
        root_rel: String::new(),
        deps,
    })
}

/// Parses the layering manifest: `<layer> <crate-name>` per line, `#`
/// comments and blank lines skipped. Unparseable lines are ignored here —
/// R9 re-validates the manifest against the crate set and reports drift as
/// findings, not parse errors.
fn parse_layers(text: &str) -> Vec<LayerEntry> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(layer), Some(name)) = (parts.next(), parts.next()) else {
            continue;
        };
        let Ok(layer) = layer.parse::<u32>() else {
            continue;
        };
        out.push(LayerEntry {
            layer,
            crate_name: name.to_string(),
            line: i + 1,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parser_reads_package_and_dependencies() {
        let text = "[package]\nname = \"qd-core\"\nversion.workspace = true\n\n\
                    [features]\nlegacy = []\n\n\
                    [dependencies]\nqd-linalg.workspace = true\n# a comment\n\
                    qd-index = { path = \"../qd-index\" }\nrand.workspace = true\n\n\
                    [dev-dependencies]\nproptest.workspace = true\n";
        let info = parse_manifest(text).unwrap();
        assert_eq!(info.name, "qd-core");
        let names: Vec<&str> = info.deps.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["qd-linalg", "qd-index", "rand"]);
    }

    #[test]
    fn layers_parser_reads_entries_and_skips_comments() {
        let text = "# layering\n0 qd-fault\n0 qd-obs\n3 qd-core\n\nnot-a-layer qd-x\n";
        let layers = parse_layers(text);
        assert_eq!(layers.len(), 3);
        assert_eq!(layers[2].crate_name, "qd-core");
        assert_eq!(layers[2].layer, 3);
        assert_eq!(layers[2].line, 4);
    }

    #[test]
    fn crate_of_file_prefers_longest_root() {
        let ws = Workspace {
            files: Vec::new(),
            crates: vec![
                CrateInfo {
                    name: "query-decomposition".into(),
                    manifest_rel: "Cargo.toml".into(),
                    root_rel: String::new(),
                    deps: Vec::new(),
                },
                CrateInfo {
                    name: "qd-core".into(),
                    manifest_rel: "crates/qd-core/Cargo.toml".into(),
                    root_rel: "crates/qd-core".into(),
                    deps: Vec::new(),
                },
            ],
            layers: Vec::new(),
        };
        assert_eq!(
            ws.crate_of_file("crates/qd-core/src/rfs.rs").unwrap().name,
            "qd-core"
        );
        assert_eq!(
            ws.crate_of_file("src/bin/qd.rs").unwrap().name,
            "query-decomposition"
        );
        assert_eq!(
            ws.crate_of_file("tests/fault_properties.rs").unwrap().name,
            "query-decomposition"
        );
    }
}
