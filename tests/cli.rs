//! End-to-end tests of the `qd` command-line binary: build artifacts on
//! disk, inspect them, query them, export images.

use std::path::PathBuf;
use std::process::{Command, Output};

fn qd(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qd"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("qd binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).to_string()
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("qd_cli_test").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One shared corpus+RFS build reused by the pipeline assertions below.
fn built() -> &'static PathBuf {
    static DIR: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    DIR.get_or_init(|| {
        let dir = workdir("pipeline");
        let out = qd(
            &dir,
            &[
                "build-corpus",
                "--out",
                "c.qdc",
                "--size",
                "400",
                "--fillers",
                "4",
                "--seed",
                "3",
                "--image-size",
                "24",
            ],
        );
        assert!(out.status.success(), "{}", stderr(&out));
        let out = qd(&dir, &["build-rfs", "--corpus", "c.qdc", "--out", "r.qdr"]);
        assert!(out.status.success(), "{}", stderr(&out));
        dir
    })
}

#[test]
fn build_writes_artifacts() {
    let dir = built();
    assert!(dir.join("c.qdc").exists());
    assert!(dir.join("r.qdr").exists());
}

#[test]
fn stats_reports_corpus_and_tree() {
    let dir = built();
    let out = qd(dir, &["stats", "--corpus", "c.qdc", "--rfs", "r.qdr"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("images      : 400"), "{text}");
    assert!(text.contains("dimensions  : 37"), "{text}");
    assert!(text.contains("height"), "{text}");
}

#[test]
fn list_queries_names_all_eleven() {
    let dir = built();
    let out = qd(dir, &["list-queries", "--corpus", "c.qdc"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert_eq!(text.lines().count(), 11, "{text}");
    assert!(text.contains("a person"));
    assert!(text.contains("laptop"));
}

#[test]
fn query_runs_a_session_and_reports_metrics() {
    let dir = built();
    let out = qd(
        dir,
        &[
            "query", "--corpus", "c.qdc", "--rfs", "r.qdr", "--query", "car",
        ],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("round 3"), "{text}");
    assert!(text.contains("precision"), "{text}");
    assert!(text.contains("GTIR"), "{text}");
}

/// `--k` is the caller's number and sizes no buffer: one past what the
/// allocator can give (2^60 results) and one at which `quota + slack`
/// overflows are both requests for everything there is, on the QD path and
/// on a baseline's.
#[test]
fn query_with_an_absurd_k_answers_with_at_most_the_corpus() {
    let dir = built();
    for k in ["1152921504606846976", "18446744073709551615"] {
        let out = qd(
            dir,
            &[
                "query",
                "--corpus",
                "c.qdc",
                "--rfs",
                "r.qdr",
                "--query",
                "bird",
                "--k",
                k,
                "--baseline",
                "mv",
            ],
        );
        assert!(out.status.success(), "k {k}: {}", stderr(&out));
        let text = stdout(&out);
        // `query "bird": 2 subqueries, 400 results (k = …)`
        let results: usize = text
            .split(" results")
            .next()
            .and_then(|head| head.rsplit(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no result count in {text}"));
        assert!((1..=400).contains(&results), "k {k}: {results} results");
        assert!(text.contains("MV: precision"), "{text}");
    }
}

/// `--rounds 0` reaches the engine from four commands; every one of them
/// answers with the typed error — exit 1 and an `error:` line — instead of
/// tripping the stepper's assertion (exit 101).
#[test]
fn zero_rounds_is_an_error_not_a_panic() {
    let dir = built();
    let session = ["--corpus", "c.qdc", "--rfs", "r.qdr", "--rounds", "0"];
    for command in ["query", "trace", "profile", "serve-sim"] {
        let mut args = vec![command];
        args.extend(session);
        if command != "serve-sim" {
            args.extend(["--query", "bird"]);
        }
        let out = qd(dir, &args);
        assert_eq!(out.status.code(), Some(1), "{command}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(
            err.starts_with("error: ") && err.contains("feedback round"),
            "{command}: {err}"
        );
        assert!(!err.contains("panicked"), "{command}: {err}");
    }
}

/// `--rounds 99999999999` used to run a session that never ends until the
/// kernel killed it (exit 137); every command refuses it where the option
/// enters, with the typed error, before any round runs.
#[test]
fn unbounded_rounds_are_an_error_not_an_oom_kill() {
    let dir = built();
    let session = [
        "--corpus",
        "c.qdc",
        "--rfs",
        "r.qdr",
        "--rounds",
        "99999999999",
    ];
    for command in ["query", "trace", "profile", "serve-sim"] {
        let mut args = vec![command];
        args.extend(session);
        if command != "serve-sim" {
            args.extend(["--query", "bird"]);
        }
        let out = qd(dir, &args);
        assert_eq!(out.status.code(), Some(1), "{command}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(
            err.starts_with("error: ") && err.contains("at most 1000 feedback rounds"),
            "{command}: {err}"
        );
    }
}

/// An option value the library would assert on is refused where the option
/// enters, before any work starts: exit 1 and an `error:` line naming the
/// option, never a panic (exit 101) and never a written file.
#[test]
fn out_of_range_options_are_errors_not_panics() {
    let dir = built();
    let build_corpus = ["build-corpus", "--out", "refused.out"];
    let build_rfs = ["build-rfs", "--corpus", "c.qdc", "--out", "refused.out"];
    let shard = ["shard", "--corpus", "c.qdc", "--out", "refused.out"];
    let serve = ["serve-sim", "--corpus", "c.qdc", "--rfs", "r.qdr"];
    let cases: &[(&[&str], [&str; 2])] = &[
        (&shard, ["--shards", "0"]),
        (&shard, ["--shards", "300"]),
        (&shard, ["--node-max", "1"]),
        (&build_corpus, ["--size", "0"]),
        (&build_corpus, ["--image-size", "0"]),
        (&build_corpus, ["--fillers", "65537"]),
        (&build_rfs, ["--node-max", "0"]),
        (&build_rfs, ["--node-max", "3"]),
        (&build_rfs, ["--node-max", "1048577"]),
        (&build_rfs, ["--rep-fraction", "NaN"]),
        (&serve, ["--max-active", "0"]),
        (&serve, ["--users", "0"]),
    ];
    for (command, [key, value]) in cases {
        let args: Vec<&str> = command.iter().chain(&[*key, *value]).copied().collect();
        let out = qd(dir, &args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.starts_with("error: ") && err.contains(&format!("{key} {value}")),
            "{args:?}: {err}"
        );
        assert!(!dir.join("refused.out").exists(), "{args:?} wrote a file");
    }
}

/// A corpus file whose feature table holds a NaN is refused where it is
/// read: `build-rfs` exits 1 with an `error:` line instead of panicking
/// (exit 101) when the NaN reaches the R*-tree as a rectangle corner.
#[test]
fn a_nan_feature_is_an_error_not_a_panic() {
    let dir = workdir("nan_feature");
    let out = qd(
        &dir,
        &[
            "build-corpus",
            "--out",
            "c.qdc",
            "--size",
            "120",
            "--fillers",
            "2",
            "--image-size",
            "16",
        ],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let mut data = std::fs::read(dir.join("c.qdc")).unwrap();
    // QDC2: magic, five config fields, dim, the normalizer's two 37-value
    // vectors, then n / dim / block_len and the feature rows. Row 3, value 0:
    let at = 4 + 8 * 4 + 1 + 8 + 2 * 4 * 37 + 3 * 8 + 4 * 3 * 37;
    data[at..at + 4].copy_from_slice(&f32::NAN.to_le_bytes());
    std::fs::write(dir.join("nan.qdc"), &data).unwrap();

    let out = qd(
        &dir,
        &["build-rfs", "--corpus", "nan.qdc", "--out", "r.qdr"],
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.starts_with("error: ") && err.contains("non-finite feature value"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn export_writes_ppm_files() {
    let dir = built();
    let out = qd(
        dir,
        &[
            "export", "--corpus", "c.qdc", "--ids", "0,3", "--dir", "imgs",
        ],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    let entries: Vec<_> = std::fs::read_dir(dir.join("imgs")).unwrap().collect();
    assert_eq!(entries.len(), 2);
    for e in entries {
        let data = std::fs::read(e.unwrap().path()).unwrap();
        assert!(data.starts_with(b"P6\n"));
    }
}

#[test]
fn unknown_command_fails_cleanly() {
    let dir = workdir("errors");
    let out = qd(&dir, &["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

/// Each command reads only the options its usage line names: a misspelt
/// key (which used to build silently at the default) or a stray word exits
/// 2 with that line, before any work starts.
#[test]
fn an_unknown_option_or_a_stray_word_is_a_usage_error() {
    let dir = built();
    let build_rfs = "usage: qd build-rfs --corpus corpus.qdc --out rfs.qdr";
    let query = "usage: qd query --corpus corpus.qdc --rfs rfs.qdr --query <name>";
    let cases: &[(&[&str], &str, &str)] = &[
        (
            &[
                "build-rfs",
                "--corpus",
                "c.qdc",
                "--out",
                "refused.out",
                "--node-mx",
                "50",
            ],
            "unknown option --node-mx",
            build_rfs,
        ),
        (
            &[
                "build-rfs",
                "--corpus",
                "c.qdc",
                "--out",
                "refused.out",
                "--baseline",
                "mv",
            ],
            "unknown option --baseline",
            build_rfs,
        ),
        (
            &["build-rfs", "--corpus", "c.qdc", "refused.out"],
            "unexpected argument \"refused.out\"",
            build_rfs,
        ),
        (
            &[
                "query", "--corpus", "c.qdc", "--rfs", "r.qdr", "--query", "bird", "car",
            ],
            "unexpected argument \"car\"",
            query,
        ),
        (
            &[
                "query", "--corpus", "c.qdc", "--rfs", "r.qdr", "--query", "bird", "--k",
            ],
            "--k needs a value",
            query,
        ),
    ];
    for (args, error, usage) in cases {
        let out = qd(dir, args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.starts_with(&format!("error: {error}\n")),
            "{args:?}: {err}"
        );
        assert!(err.contains(usage), "{args:?}: {err}");
        assert!(stdout(&out).is_empty(), "{args:?} ran");
        assert!(!dir.join("refused.out").exists(), "{args:?} wrote a file");
    }
}

#[test]
fn missing_required_option_fails_cleanly() {
    let dir = workdir("errors");
    let out = qd(&dir, &["build-corpus"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("missing --out"));
}

#[test]
fn query_rejects_unknown_query_name() {
    let dir = built();
    let out = qd(
        dir,
        &[
            "query", "--corpus", "c.qdc", "--rfs", "r.qdr", "--query", "zebra",
        ],
    );
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("no standard query"),
        "{}",
        stderr(&out)
    );
}
