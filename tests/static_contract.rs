//! The repository rules that neither the compiler nor clippy can state
//! (DESIGN.md §8), as plain tests over the source tree. R8 is the type
//! `qd_obs::Name`, R2–R7 and R13 are clippy configuration, and retired rule
//! ids are not reused. The rules read scrubbed code, with comments and
//! literal bodies blanked one char for one char, so they report real line
//! numbers and never see what [`FIXTURE`] holds. [`check`] states each rule.

use std::collections::BTreeSet;
use std::path::Path;

/// The crate layering, lowest first: `[dependencies]` point strictly down.
/// Dev-dependencies are exempt; vendored stubs are not listed.
const LAYERS: [&[&str]; 7] = [
    &["qd-fault", "qd-obs", "qd-linalg", "qd-imagery"],
    &["qd-runtime", "qd-features", "qd-index", "qd-cluster"],
    &["qd-corpus"],
    &["qd-core"],
    // qd-serve stays generic over any `KnnIndex`, so it never names qd-shard.
    &["qd-serve", "qd-shard"],
    &["qd-bench"],
    &["query-decomposition"],
];

/// The crates that persist an engine format (QDT2, QDC2, QDR2, QDS1): R10.
const PERSISTING: [&str; 4] = ["qd-index", "qd-corpus", "qd-core", "qd-shard"];
/// The engine crates, whose casts R12 checks.
const ENGINE: [&str; 4] = ["qd-core", "qd-index", "qd-cluster", "qd-linalg"];

/// Narrowing cast targets: R12 cannot see a cast's source type.
const NARROW: [&str; 7] = ["u8", "i8", "u16", "i16", "u32", "i32", "f32"];

/// A repository file: its text and, line by line, its scrubbed code.
struct File {
    /// Relative to the repository root, with forward slashes.
    path: String,
    text: String,
    /// Each source char is one char here.
    lines: Vec<String>,
    /// Whether the comment text on each line contains `CAST:`.
    cast: Vec<bool>,
    /// Whether each line is in a `#[cfg(test)]` item (see [`scrub`]).
    test: Vec<bool>,
}

/// Blanks the comments and literal bodies of `text`, keeping each literal's
/// quotes: nested block comments, raw strings with any number of `#`s, byte
/// and C strings, escapes, and lifetimes beside char literals. An unclosed
/// construct runs to the end. A `#[cfg(test)]` item runs from the attribute
/// to the close of its first brace pair, or to a `;` before any brace.
fn scrub(path: &str, text: &str) -> File {
    let c: Vec<char> = text.chars().collect();
    let n = c.len();
    let at = |j: usize| c.get(j).copied();
    let run =
        |j: usize, more: fn(char) -> bool| j + c[j..].iter().take_while(|&&ch| more(ch)).count();
    let word = |ch: char| ch.is_alphanumeric() || ch == '_';
    // Past the closing `q` of a literal body that starts at `j`.
    let body_end = |mut j: usize, q: char| {
        while j < n && c[j] != q {
            j += if c[j] == '\\' { 2 } else { 1 };
        }
        (j + 1).min(n)
    };
    let raw_end = |j: usize, hashes: usize| {
        let close = (j..n).find(|&k| c[k] == '"' && (1..=hashes).all(|h| at(k + h) == Some('#')));
        close.map_or(n, |k| k + 1 + hashes)
    };
    let (mut lines, mut cast, mut line, mut comment, mut i) =
        (vec![], vec![], String::new(), String::new(), 0);
    while i < n {
        // After `r`, `br` or `cr`: where a raw string's `#`s would start.
        let raw = (i + 1 + usize::from(c[i] != 'r')).min(n);
        let hashes = run(raw, |ch| ch == '#') - raw;
        // The token's end, and what it keeps: `None` keeps code, `/` blanks a
        // comment, and a quote blanks a literal body between its quotes.
        let (end, keep) = match (c[i], at(i + 1)) {
            ('/', Some('/')) => (run(i, |ch| ch != '\n'), Some('/')),
            ('/', Some('*')) => {
                let (mut j, mut depth) = (i + 2, 1);
                while j < n && depth > 0 {
                    let opens = c[j] == '/' && at(j + 1) == Some('*');
                    let closes = c[j] == '*' && at(j + 1) == Some('/');
                    depth += i32::from(opens) - i32::from(closes);
                    j += 1 + usize::from(opens || closes);
                }
                (j, Some('/'))
            }
            ('r', _) | ('b' | 'c', Some('r')) if at(raw + hashes) == Some('"') => {
                (raw_end(raw + hashes + 1, hashes), Some('"'))
            }
            ('b' | 'c', Some('"')) => (body_end(i + 2, '"'), Some('"')),
            ('b', Some('\'')) => (body_end(i + 2, '\''), Some('\'')),
            ('"', _) => (body_end(i + 1, '"'), Some('"')),
            // A lifetime, unless the quote closes right after one char.
            ('\'', Some(ch)) if (ch.is_alphabetic() || ch == '_') && at(i + 2) != Some('\'') => {
                (run(i + 1, word), None)
            }
            ('\'', _) => (body_end(i + 1, '\''), Some('\'')),
            (ch, _) if ch.is_alphabetic() || ch == '_' || ch.is_ascii_digit() => {
                (run(i, word), None)
            }
            _ => (i + 1, None),
        };
        let token = &c[i..end];
        let open = token.iter().position(|&ch| Some(ch) == keep);
        let close = token.iter().rposition(|&ch| Some(ch) == keep);
        for (k, &ch) in token.iter().enumerate() {
            if ch == '\n' {
                cast.push(comment.contains("CAST:"));
                lines.push(std::mem::take(&mut line));
                comment.clear();
            } else if keep == Some('/') {
                comment.push(ch);
                line.push(' ');
            } else {
                let shown = keep.is_none() || Some(k) == open || Some(k) == close;
                line.push(if shown { ch } else { ' ' });
            }
        }
        i = end;
    }
    cast.push(comment.contains("CAST:"));
    lines.push(line);
    let (mut depth, mut opened, mut inside) = (0, false, false);
    let mut test = vec![false; lines.len()];
    for (l, marked) in lines.iter().zip(&mut test) {
        inside |= l.trim_start().starts_with("#[cfg(test)]");
        *marked = inside;
        for ch in l.chars().take_while(|_| *marked) {
            match ch {
                '{' => (depth, opened) = (depth + 1, true),
                '}' if opened => depth -= 1,
                ';' if !opened => {}
                _ => continue,
            }
            if depth == 0 {
                (inside, opened) = (false, false);
                break;
            }
        }
    }
    File {
        path: path.into(),
        text: text.into(),
        lines,
        cast,
        test,
    }
}

/// Every first-party `.rs` file (none in `vendor`, `target` or a hidden
/// directory) and the `Cargo.toml` and `clippy.toml` of the root and `crates/*`.
fn repository() -> Vec<File> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut dirs, mut out) = (vec![root.to_path_buf()], Vec::new());
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable").flatten() {
            let p = entry.path();
            let rel = p.strip_prefix(root).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            let name = rel.rsplit('/').next().unwrap_or("");
            let config = name == "Cargo.toml" || name == "clippy.toml";
            if p.is_dir() && !(name == "vendor" || name == "target" || name.starts_with('.')) {
                dirs.push(p);
            } else if name.ends_with(".rs") || config && rel.matches('/').count() <= 2 {
                let text = std::fs::read_to_string(&p).expect("readable");
                out.push(scrub(&rel, &text));
            }
        }
    }
    out
}

/// The identifiers in `line`.
fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
}

/// Byte offsets at which `word` stands in `line` as a whole identifier.
fn word_at<'a>(line: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let whole = move |at: &usize| {
        !line[..*at].ends_with(ident) && !line[at + word.len()..].starts_with(ident)
    };
    line.match_indices(word).map(|(at, _)| at).filter(whole)
}

/// `(NAME, line number)` of each `pub const NAME: <ty>` in `module` of `f`,
/// from its `pub mod <module> {` line to the first line that is `}`.
fn consts<'a>(f: &'a File, module: &str, ty: &str) -> Vec<(&'a str, usize)> {
    let header = format!("pub mod {module} {{");
    let start = f.lines.iter().position(|l| l.starts_with(&header));
    let mut out = Vec::new();
    for (i, l) in f.lines.iter().enumerate().skip(start.unwrap_or(usize::MAX)) {
        if l == "}" {
            break;
        }
        let decl = l.trim_start().strip_prefix("pub const ").unwrap_or("");
        let (name, rest) = decl.split_once(':').unwrap_or(("", ""));
        if !name.is_empty() && rest.trim_start().starts_with(ty) {
            out.push((name.trim(), i + 1));
        }
    }
    out
}

/// The package name and `[dependencies]` of a `Cargo.toml`: one key a line,
/// `[section]` headers, `#` comments, and `name` first under `[package]`.
fn manifest(text: &str) -> (&str, Vec<(&str, usize)>) {
    let name = text.lines().find_map(|l| l.strip_prefix("name = \""));
    let (mut deps, mut section) = (vec![], "");
    for (i, line) in text.lines().enumerate() {
        let key = line.split(['=', '.', ' ', '#']).next().unwrap_or("");
        if line.starts_with('[') {
            section = line;
        } else if section == "[dependencies]" && !key.is_empty() {
            deps.push((key, i + 1));
        }
    }
    (name.map_or("", |n| n.trim_end_matches('"')), deps)
}

/// Every rule over `files`, with `layers` as R9's table: one line per finding.
fn check(layers: &[&[&str]], files: &[File]) -> Vec<String> {
    let mut out = Vec::new();
    let mut hit =
        |path: &str, line: usize, what: String| out.push(format!("{path}:{line}: {what}"));
    let file = |path: &str| files.iter().find(|f| f.path == path).expect(path);
    let used = |keep: &dyn Fn(&str) -> bool| {
        let mut set = BTreeSet::new();
        for f in files.iter().filter(|f| keep(&f.path)) {
            set.extend(f.lines.iter().flat_map(|l| words(l)));
        }
        set
    };

    for f in files.iter().filter(|f| f.path.ends_with(".rs")) {
        let rest = f.path.strip_prefix("crates/").unwrap_or("");
        let krate = rest.split_once("/src/").map_or("", |(krate, _)| krate);
        let (persisting, engine) = (PERSISTING.contains(&krate), ENGINE.contains(&krate));
        for (i, l) in f.lines.iter().enumerate() {
            // R1: `partial_cmp` only names a `fn partial_cmp` definition.
            let defines = |at: usize| l[..at].split_whitespace().last() == Some("fn");
            if word_at(l, "partial_cmp").any(|at| !defines(at)) {
                hit(&f.path, i + 1, "R1 partial_cmp".into());
            }
            if f.test[i] {
                continue;
            }
            // R10: no `std::fs`, nor an imported `fs::`, in persisting src.
            let fs = |at: usize| l[..at].ends_with("std::") || l[at + 2..].starts_with("::");
            if persisting && word_at(l, "fs").any(fs) {
                hit(&f.path, i + 1, "R10 std::fs".into());
            }
            // R12: a narrowing cast in engine src needs `// CAST:` within 3 lines
            // above; rustfmt can break a long expression after `as`.
            let next = f.lines.get(i + 1).map_or("", |next| next.as_str());
            for at in word_at(l, "as").filter(|_| engine) {
                let rest = Some(l[at + 2..].trim_start()).filter(|r| !r.is_empty());
                let rest = rest.unwrap_or(next).trim_start();
                let target = words(rest).next().unwrap_or("");
                if NARROW.contains(&target) && !f.cast[i.saturating_sub(3)..=i].contains(&true) {
                    hit(&f.path, i + 1, format!("R12 `as {target}`"));
                }
            }
        }
    }

    // R9: the table lists exactly the crates, and each first-party
    // dependency and each crate path in src points strictly down it.
    let layer_of = |name: &str| layers.iter().position(|l| l.contains(&name));
    let mut crates = Vec::new();
    for f in files {
        if let Some(dir) = f.path.strip_suffix("Cargo.toml") {
            crates.push((&f.path, dir, manifest(&f.text)));
        }
    }
    let known: Vec<&str> = crates.iter().map(|c| c.2 .0).collect();
    for name in layers.concat().iter().filter(|name| !known.contains(name)) {
        hit("LAYERS", 0, format!("R9 `{name}` is not a crate"));
    }
    for (path, dir, (name, deps)) in &crates {
        let Some(layer) = layer_of(name) else {
            hit(path, 0, format!("R9 `{name}` is not in LAYERS"));
            continue;
        };
        for (dep, line) in deps.iter().filter(|d| layer_of(d.0) >= Some(layer)) {
            hit(path, *line, format!("R9 depends on `{dep}`"));
        }
        let src = format!("{dir}src/");
        for f in files.iter().filter(|f| f.path.starts_with(&src)) {
            for up in layers[layer..].concat().iter().filter(|up| *up != name) {
                let up = up.replace('-', "_");
                if let Some(i) = f.lines.iter().position(|l| words(l).any(|w| w == up)) {
                    hit(&f.path, i + 1, format!("R9 names `{up}`"));
                }
            }
        }
    }

    // R10: the chaos suite names every `qd_fault::site`.
    let fault = file("crates/qd-fault/src/lib.rs");
    let sites = consts(fault, "site", "&str");
    let chaos = used(&|p| p == "tests/fault_properties.rs");
    for (name, i) in sites.iter().filter(|(name, _)| !chaos.contains(name)) {
        hit(&fault.path, *i, format!("R10 `{name}` is never exercised"));
    }

    // R11: code outside qd-obs names every catalog constant.
    let obs = file("crates/qd-obs/src/lib.rs");
    let catalogs = ["ctr", "sp", "hist"].map(|m| consts(obs, m, "&Name"));
    let names = catalogs.concat();
    let users = used(&|p| !p.starts_with("crates/qd-obs/"));
    for (name, i) in names.iter().filter(|(name, _)| !users.contains(name)) {
        hit(&obs.path, *i, format!("R11 `{name}` is never recorded"));
    }

    // Clippy reads the nearest clippy.toml and does not merge, so qd-bench's
    // must repeat every root method ban but the two clock reads.
    let bans = |path: &str| -> Vec<&str> {
        let text = &file(path).text;
        let from = text.find("disallowed-methods").unwrap_or(text.len());
        let lines = text[from..].lines().skip(1).take_while(|l| l.trim() != "]");
        let paths = lines.flat_map(|l| l.split("path = \"").skip(1));
        paths.filter_map(|p| p.split('"').next()).collect()
    };
    let (top, sub) = (bans("clippy.toml"), bans("crates/qd-bench/clippy.toml"));
    let clock = ["std::time::Instant::now", "std::time::SystemTime::now"];
    if top.len() <= clock.len() || clock.iter().any(|c| !top.contains(c)) {
        hit("clippy.toml", 0, "lost its clock or thread bans".into());
    }
    for ban in top
        .iter()
        .filter(|p| !clock.contains(p) && !sub.contains(p))
    {
        hit("crates/qd-bench/clippy.toml", 0, format!("misses `{ban}`"));
    }
    out
}

#[test]
fn the_repository_keeps_every_rule_and_scrub_keeps_its_line_shapes() {
    let files = repository();
    assert!(files.len() > 60, "the walk lost the source tree");
    let findings = check(&LAYERS, &files);
    assert!(findings.is_empty(), "{}", findings.join("\n"));
    for f in files.iter().filter(|f| f.path.ends_with(".rs")) {
        let chars = |text: &str| text.chars().count();
        let shape: Vec<usize> = f.text.split('\n').map(chars).collect();
        let scrubbed: Vec<usize> = f.lines.iter().map(|l| chars(l)).collect();
        assert_eq!(shape, scrubbed, "{}", f.path);
        assert!(f.cast.len() == shape.len() && f.test.len() == shape.len());
    }
}

/// A positive and a negative case of each rule, as `== <path>` sections.
const FIXTURE: &str = r##"
== crates/qd-core/src/r1.rs
fn f(v: &mut [f32]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()) } // bad
== crates/qd-index/src/r1.rs
impl PartialOrd for X { fn partial_cmp(&self, o: &Self) -> Option<Ordering> { None } } // good
/* a.partial_cmp(b) /* nested */ a.partial_cmp(b) */ let s = r#"a "b" .partial_cmp(c)"#;
let (c, d, e, x) = (b'"', '\'', b"partial_cmp", &'a partial_cmp_too);
== crates/qd-linalg/Cargo.toml
name = "qd-linalg"
[dependencies]
qd-core.workspace = true # bad: up a layer
== crates/qd-core/Cargo.toml
name = "qd-core"
[dependencies]
qd-linalg = { path = "../qd-linalg" } # good: down a layer
rand.workspace = true
[dev-dependencies]
qd-bench.workspace = true
== crates/qd-new/Cargo.toml
name = "qd-new"
== crates/qd-core/src/r9.rs
pub fn f() -> u64 { qd_bench::answer() } // bad: a crate above
pub fn g() -> u64 { qd_linalg::answer() + qd_bench_like() } // good
== crates/qd-core/src/r10.rs
use std::fs; // bad, twice
pub fn save(p: &Path) { fs::write(p, b"x").ok(); }
== crates/qd-shard/src/r10_ok.rs
pub fn save(p: &Path) { codec::write_file_atomic(p, b"std::fs", &SITES).ok(); } // good
#[cfg(test)]
mod tests { fn t() { std::fs::remove_file("x").ok(); } }
== crates/qd-fault/src/lib.rs
pub const FAULT_SEED_ENV: &str = "QD_FAULT_SEED";
pub mod site {
    pub const CACHE_READ: &str = "corpus.cache.read";
    pub const DEAD: &str = "dead";
    pub const SITES: &[&str] = &[CACHE_READ, DEAD];
}
== tests/fault_properties.rs
fn chaos() { inject(site::CACHE_READ); } // DEAD
== crates/qd-obs/src/lib.rs
pub mod ctr {
    pub const USED: &Name = &Name("used");
    pub const UNUSED: &Name =
        &Name("unused");
    pub const COUNTERS: &[(&Name, &str)] = &[(USED, "used"), (UNUSED, "unused")];
}
fn t() { count(ctr::UNUSED, 1) }
== crates/qd-serve/src/r11.rs
fn f() { qd_obs::count(qd_obs::ctr::USED, 1) } // UNUSED
== crates/qd-index/src/r12.rs
// CAST: these three casts fit (good); the rest are too far below it (bad)
fn f(n: usize) -> u32 { n as u32 }
fn g(n: usize) -> u16 { n as u16 }
fn h(n: usize) -> u8 { n as u8 }
fn k(n: usize) -> i32 { let _ = "// CAST: not a comment"; n as i32 }
fn m(n: usize) -> f32 { n as
    f32 }
fn w(n: u32) -> u64 { use std::io::Read as _; n as u64 } // good: widening
== clippy.toml
disallowed-methods = [
    { path = "std::thread::spawn" }, { path = "std::thread::scope" },
    { path = "std::time::Instant::now" }, { path = "std::time::SystemTime::now" },
]
== crates/qd-bench/clippy.toml
disallowed-methods = [
    { path = "std::thread::scope" },
]
"##;

#[test]
fn each_rule_reports_its_planted_violations_and_nothing_else() {
    let sections = FIXTURE.split("\n== ").filter_map(|s| s.split_once('\n'));
    let files: Vec<File> = sections.map(|(path, text)| scrub(path, text)).collect();
    let layers: [&[&str]; 3] = [&["qd-linalg"], &["qd-core"], &["qd-bench"]];
    let want = [
        "crates/qd-core/src/r1.rs:1: R1 partial_cmp",
        "crates/qd-core/src/r10.rs:1: R10 std::fs",
        "crates/qd-core/src/r10.rs:2: R10 std::fs",
        "crates/qd-index/src/r12.rs:5: R12 `as i32`",
        "crates/qd-index/src/r12.rs:6: R12 `as f32`",
        "LAYERS:0: R9 `qd-bench` is not a crate",
        "crates/qd-linalg/Cargo.toml:3: R9 depends on `qd-core`",
        "crates/qd-core/src/r9.rs:1: R9 names `qd_bench`",
        "crates/qd-new/Cargo.toml:0: R9 `qd-new` is not in LAYERS",
        "crates/qd-fault/src/lib.rs:4: R10 `DEAD` is never exercised",
        "crates/qd-obs/src/lib.rs:3: R11 `UNUSED` is never recorded",
        "crates/qd-bench/clippy.toml:0: misses `std::thread::spawn`",
    ];
    assert_eq!(check(&layers, &files), want);
}
