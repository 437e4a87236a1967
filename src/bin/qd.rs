//! `qd` — the command-line face of the Query Decomposition library.
//!
//! ```text
//! qd build-corpus --out corpus.qdc [--size N] [--image-size PX] [--seed S] [--fillers N] [--no-viewpoints]
//! qd build-rfs    --corpus corpus.qdc --out rfs.qdr [--node-max N] [--rep-fraction F] [--bulk]
//! qd stats        --corpus corpus.qdc [--rfs rfs.qdr]
//! qd query        --corpus corpus.qdc --rfs rfs.qdr --query <name> [--k N] [--seed S] [--rounds N]
//! qd trace        --corpus corpus.qdc --rfs rfs.qdr --query <name> [--k N] [--seed S] [--rounds N] [--json] [--export-chrome PATH]
//! qd profile      --corpus corpus.qdc --rfs rfs.qdr --query <name> [--k N] [--seed S] [--rounds N]
//! qd list-queries --corpus corpus.qdc
//! qd export       --corpus corpus.qdc --ids 0,17,42 --dir out/
//! qd serve-sim    --corpus corpus.qdc --rfs rfs.qdr [--users N] [--seed S] [--arrivals N] [--rounds N] [--deadline COST] [--max-active N] [--queue N] [--shed-seed S]
//! qd shard        --corpus corpus.qdc --out rfs.qds [--shards K] [--shard-seed S] [--node-max N] [--rep-fraction F]
//! qd shard        --corpus corpus.qdc --rfs rfs.qds --query <name> [--k N] [--seed S] [--rounds N]
//! ```
//!
//! `query` runs a full QD session with the simulated oracle user (the CLI
//! has no human in the loop; use `--example interactive` for that) and
//! prints the grouped results plus precision/GTIR against ground truth.
//!
//! `trace` runs the same session under a `qd_obs` recorder and prints the
//! deterministic execution trace instead: the session-wide counter totals,
//! histograms, and the span tree (feedback rounds, the final fan-out, one
//! span per subquery). The same session always prints the same trace.
//! `--json` emits the machine-readable `{counters, histograms, span_tree}`
//! form instead of the human renderer; `--export-chrome PATH` additionally
//! writes a Chrome/Perfetto trace-event file whose timeline is
//! deterministic counter cost (open it at `chrome://tracing` or
//! `ui.perfetto.dev`).
//!
//! `profile` folds the same trace's span tree into a flame-style table:
//! per span name, the call count plus self and subtree-inclusive cost for
//! every counter touched. Deterministic like `trace`.
//!
//! `shard` is the sharded-index face (qd-shard): with `--out` it partitions
//! the corpus into `--shards` deterministic shards, builds one RFS arena per
//! shard, and writes the QDS1 snapshot; with `--rfs` + `--query` it loads a
//! QDS1 snapshot and runs a full QD session through the scatter-gather
//! index — same protocol, same results as the monolithic path.
//!
//! `serve-sim` runs the multi-tenant serving simulation (qd-serve): a
//! seeded open-loop load of simulated users — cooperative, drifting-intent,
//! contradictory-marks, impatient-truncation — driven through the
//! supervised session scheduler over the loaded corpus + RFS snapshot. It
//! prints the per-session outcomes and the serving latency/cost/throughput
//! percentiles. Everything is deterministic for a fixed seed set.

use query_decomposition::core::eval::Baseline;
use query_decomposition::core::session::validate_rounds;
use query_decomposition::corpus::cache;
use query_decomposition::imagery::io::write_ppm;
use query_decomposition::index::tree::MAX_NODE_ENTRIES;
use query_decomposition::prelude::*;
use std::ops::RangeBounds;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!(
            "usage: qd <build-corpus|build-rfs|stats|query|trace|profile|list-queries|export|serve-sim|shard> [options]"
        );
        eprintln!("       see the module docs (or `src/bin/qd.rs`) for per-command options");
        return ExitCode::from(2);
    };
    let opts = Options::parse(&args[1..]);
    let result = match command.as_str() {
        "build-corpus" => build_corpus(&opts),
        "build-rfs" => build_rfs(&opts),
        "stats" => stats(&opts),
        "query" => query(&opts),
        "trace" => trace(&opts),
        "profile" => profile(&opts),
        "list-queries" => list_queries(&opts),
        "export" => export(&opts),
        "serve-sim" => serve_sim(&opts),
        "shard" => shard(&opts),
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal `--key value` / `--flag` option bag.
struct Options {
    values: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Self {
        let mut values = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if let Some(key) = arg.strip_prefix("--") {
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    values.push((key.to_string(), args[i + 1].clone()));
                    i += 2;
                } else {
                    flags.push(key.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Self { values, flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid --{key} {v:?}")),
        }
    }

    /// [`Options::parse_or`] for a value the library asserts on: one outside
    /// `range` is refused here, before any work starts.
    fn parse_in<T, R>(&self, key: &str, default: T, range: R) -> Result<T, String>
    where
        T: std::str::FromStr + PartialOrd + std::fmt::Display,
        R: RangeBounds<T> + std::fmt::Debug,
    {
        let v = self.parse_or(key, default)?;
        if range.contains(&v) {
            Ok(v)
        } else {
            Err(format!("--{key} {v} is outside {range:?}"))
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn load_corpus(opts: &Options) -> Result<Corpus, String> {
    let path = opts.require("corpus")?;
    cache::load_any(Path::new(path)).map_err(|e| format!("cannot load corpus {path}: {e}"))
}

/// The RFS configuration `build-rfs` and `shard --out` share, refusing a
/// node capacity the R\*-tree cannot split (it needs at least twice the
/// minimum fill) or the tree file cannot hold, and a representative
/// fraction outside `[0, 1]`.
fn rfs_config(opts: &Options, corpus: &Corpus) -> Result<RfsConfig, String> {
    // Default node capacity adapts to the corpus so small test databases
    // still get a multi-level hierarchy (the paper's 100 suits 15k images).
    let default_node_max = (corpus.len() / 8).clamp(10, 100);
    let node_max = opts.parse_in("node-max", default_node_max, ..=MAX_NODE_ENTRIES)?;
    let node_min = (node_max * 2 / 5).max(2);
    if node_min * 2 > node_max {
        return Err(format!(
            "--node-max {node_max} is too small: a node must hold twice its minimum fill {node_min}"
        ));
    }
    Ok(RfsConfig {
        node_min,
        node_max,
        representative_fraction: opts.parse_in("rep-fraction", 0.05f32, 0.0..=1.0)?,
        ..RfsConfig::paper()
    })
}

fn build_corpus(opts: &Options) -> Result<(), String> {
    let out = PathBuf::from(opts.require("out")?);
    let config = CorpusConfig {
        size: opts.parse_in("size", 740usize, 1..)?,
        image_size: opts.parse_in("image-size", 32usize, 1..)?,
        seed: opts.parse_or("seed", 42u64)?,
        // The cache reader refuses more fillers than this.
        filler_count: opts.parse_in("fillers", 8usize, ..=cache::MAX_FILLERS)?,
        with_viewpoints: !opts.flag("no-viewpoints"),
    };
    eprintln!(
        "building corpus: {} images, {}px, seed {}…",
        config.size, config.image_size, config.seed
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "elapsed time printed for the operator; nothing downstream reads it"
    )]
    let start = std::time::Instant::now();
    let corpus = Corpus::build(&config);
    cache::save(&corpus, &out).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "wrote {} ({} images, {} categories) in {:.1}s",
        out.display(),
        corpus.len(),
        corpus.taxonomy().len(),
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

fn build_rfs(opts: &Options) -> Result<(), String> {
    let corpus = load_corpus(opts)?;
    let out = PathBuf::from(opts.require("out")?);
    let config = RfsConfig {
        bulk_load: opts.flag("bulk"),
        ..rfs_config(opts, &corpus)?
    };
    eprintln!(
        "building RFS: node capacity {}, rep fraction {:.2}…",
        config.node_max, config.representative_fraction
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "elapsed time printed for the operator; nothing downstream reads it"
    )]
    let start = std::time::Instant::now();
    let rfs = RfsStructure::build(corpus.features(), &config);
    rfs.save(&out)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "wrote {} ({}-level tree, {} nodes, {} representatives) in {:.1}s",
        out.display(),
        rfs.tree().height(),
        rfs.tree().node_count(),
        rfs.all_representatives().len(),
        start.elapsed().as_secs_f64()
    );
    Ok(())
}

fn stats(opts: &Options) -> Result<(), String> {
    let corpus = load_corpus(opts)?;
    println!("corpus:");
    println!("  images      : {}", corpus.len());
    println!("  categories  : {}", corpus.taxonomy().len());
    println!("  dimensions  : {}", corpus.dim());
    println!(
        "  viewpoints  : {}",
        if corpus.viewpoint_features(Viewpoint::Negative).is_some() {
            "normal + negative + gray + gray-negative"
        } else {
            "normal only"
        }
    );
    if let Some(rfs_path) = opts.get("rfs") {
        let rfs = RfsStructure::load(Path::new(rfs_path))
            .map_err(|e| format!("cannot load RFS {rfs_path}: {e}"))?;
        let tree = rfs.tree();
        println!("rfs:");
        println!("  height      : {}", tree.height());
        println!("  nodes       : {}", tree.node_count());
        println!(
            "  reps        : {} ({:.1}% of the database)",
            rfs.all_representatives().len(),
            100.0 * rfs.all_representatives().len() as f64 / corpus.len() as f64
        );
        for (level, nodes, fill) in tree.occupancy() {
            println!(
                "  level {level}     : {nodes} nodes, {:.0}% full",
                fill * 100.0
            );
        }
    }
    Ok(())
}

fn list_queries(opts: &Options) -> Result<(), String> {
    let corpus = load_corpus(opts)?;
    for q in queries::standard_queries(corpus.taxonomy()) {
        let gt = corpus.ground_truth(&q).len();
        let groups: Vec<&str> = q.groups.iter().map(|g| g.name.as_str()).collect();
        println!(
            "{:<20} {:>5} ground-truth images  [{}]",
            q.name,
            gt,
            groups.join(", ")
        );
    }
    Ok(())
}

/// Loads the corpus + RFS pair and resolves the named standard query —
/// the shared front half of `query` and `trace`.
fn load_session_inputs(opts: &Options) -> Result<(Corpus, RfsStructure, QuerySpec), String> {
    let corpus = load_corpus(opts)?;
    let rfs_path = opts.require("rfs")?;
    let rfs = RfsStructure::load(Path::new(rfs_path))
        .map_err(|e| format!("cannot load RFS {rfs_path}: {e}"))?;
    if rfs.len() != corpus.len() {
        return Err(format!(
            "RFS indexes {} images but the corpus has {} — rebuild with `qd build-rfs`",
            rfs.len(),
            corpus.len()
        ));
    }
    let name = opts.require("query")?;
    let query = queries::standard_queries(corpus.taxonomy())
        .into_iter()
        .find(|q| q.name == name)
        .ok_or_else(|| format!("no standard query named {name:?} (see `qd list-queries`)"))?;
    Ok((corpus, rfs, query))
}

fn query(opts: &Options) -> Result<(), String> {
    let (corpus, rfs, query) = load_session_inputs(opts)?;
    let gt = corpus.ground_truth(&query).len();
    let k = opts.parse_or("k", gt)?;
    let seed = opts.parse_or("seed", 7u64)?;
    let cfg = QdConfig {
        rounds: opts.parse_or("rounds", 3usize)?,
        seed,
        ..QdConfig::default()
    };
    let mut user = SimulatedUser::oracle(&query, seed);
    let out = try_run_session(&corpus, &rfs, &query, &mut user, k, &cfg)
        .map_err(|e| e.to_string())?
        .into_outcome();

    println!(
        "query {:?}: {} subqueries, {} results (k = {k})",
        query.name,
        out.subquery_count,
        out.results.len()
    );
    for trace in &out.round_trace {
        println!(
            "  round {}: precision {}, GTIR {:.3}",
            trace.round,
            trace
                .precision
                .map(|p| format!("{p:.3}"))
                .unwrap_or_else(|| "n/a".into()),
            trace.gtir
        );
    }
    for (i, group) in out.groups.iter().enumerate() {
        let label = group
            .images
            .first()
            .map(|&(id, _)| corpus.taxonomy().name(corpus.label(id)))
            .unwrap_or("");
        println!(
            "  group {:>2}: {:>3} images, score {:>8.2}, mostly {}",
            i + 1,
            group.images.len(),
            group.ranking_score,
            label
        );
    }
    println!(
        "precision {:.3}  recall {:.3}  GTIR {:.3}  (feedback reads {}, kNN reads {})",
        precision(&corpus, &query, &out.results),
        recall(&corpus, &query, &out.results),
        gtir(&corpus, &query, &out.results),
        out.feedback_accesses,
        out.knn_accesses
    );

    if let Some(baseline) = opts.get("baseline") {
        let b = match baseline {
            "mv" => Baseline::MultipleViewpoints,
            "qpm" => Baseline::QueryPointMovement,
            "mpq" => Baseline::MultipointQuery,
            "qcluster" => Baseline::Qcluster,
            other => return Err(format!("unknown baseline {other:?}")),
        };
        let mut b_user = SimulatedUser::oracle(&query, seed);
        let b_out = b.run(&corpus, &query, &mut b_user, k, &BaselineConfig::default());
        println!(
            "{}: precision {:.3}  GTIR {:.3}",
            b.name(),
            precision(&corpus, &query, &b_out.results),
            gtir(&corpus, &query, &b_out.results)
        );
    }
    Ok(())
}

/// Runs one traced oracle session — the shared back half of `trace` and
/// `profile`. Returns the query name, effective seed and k, the outcome,
/// and the recorded trace.
fn traced_session(
    opts: &Options,
) -> Result<
    (
        String,
        u64,
        usize,
        QdOutcome,
        query_decomposition::obs::Trace,
    ),
    String,
> {
    let (corpus, rfs, query) = load_session_inputs(opts)?;
    let gt = corpus.ground_truth(&query).len();
    let k = opts.parse_or("k", gt)?;
    let seed = opts.parse_or("seed", 7u64)?;
    let cfg = QdConfig {
        rounds: opts.parse_or("rounds", 3usize)?,
        seed,
        ..QdConfig::default()
    };
    let mut user = SimulatedUser::oracle(&query, seed);
    let (served, trace) = query_decomposition::obs::with_recorder(|| {
        try_run_session(&corpus, &rfs, &query, &mut user, k, &cfg)
    });
    let out = served.map_err(|e| e.to_string())?.into_outcome();
    Ok((query.name.clone(), seed, k, out, trace))
}

fn trace(opts: &Options) -> Result<(), String> {
    let (name, seed, k, out, trace) = traced_session(opts)?;
    if let Some(path) = opts.get("export-chrome") {
        let path = PathBuf::from(path);
        let json = qd_bench::report::chrome_trace_json(&trace).render();
        std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("[wrote {}]", path.display());
    }
    if opts.flag("json") {
        print!("{}", qd_bench::report::trace_to_json(&trace).render());
        return Ok(());
    }
    println!(
        "trace of query {name:?} (seed {seed}, k = {k}): {} subqueries, {} results",
        out.subquery_count,
        out.results.len()
    );
    print!("{}", trace.render());
    Ok(())
}

fn profile(opts: &Options) -> Result<(), String> {
    let (name, seed, k, out, trace) = traced_session(opts)?;
    println!(
        "profile of query {name:?} (seed {seed}, k = {k}): {} subqueries, {} results",
        out.subquery_count,
        out.results.len()
    );
    print!(
        "{}",
        query_decomposition::obs::render_profile(&trace.profile())
    );
    Ok(())
}

fn serve_sim(opts: &Options) -> Result<(), String> {
    let corpus = load_corpus(opts)?;
    let rfs_path = opts.require("rfs")?;
    let rfs = RfsStructure::load(Path::new(rfs_path))
        .map_err(|e| format!("cannot load RFS {rfs_path}: {e}"))?;
    if rfs.len() != corpus.len() {
        return Err(format!(
            "RFS indexes {} images but the corpus has {} — rebuild with `qd build-rfs`",
            rfs.len(),
            corpus.len()
        ));
    }
    let load_cfg = LoadConfig {
        users: opts.parse_in("users", 12usize, 1..)?,
        seed: opts.parse_or("seed", 7u64)?,
        arrivals_per_tick: opts.parse_in("arrivals", 2u64, 1..)?,
        rounds: opts.parse_or("rounds", 3usize)?,
        k: None,
        deadline: opts.parse_or("deadline", 900u64)?,
    };
    // The server would admit no one: every tenant is refused with this
    // error at the door.
    validate_rounds(load_cfg.rounds).map_err(|e| e.to_string())?;
    let serve_cfg = ServeConfig {
        max_active: opts.parse_in("max-active", 4usize, 1..)?,
        queue_capacity: opts.parse_or("queue", 8usize)?,
        shed_seed: opts.parse_or("shed-seed", ServeConfig::default().shed_seed)?,
        ..ServeConfig::default()
    };
    let plan = LoadPlan::generate(&corpus, &load_cfg);
    let server = Server::new(
        std::sync::Arc::new(corpus),
        std::sync::Arc::new(rfs),
        serve_cfg,
    );
    let (report, trace) = query_decomposition::obs::with_recorder(|| server.run(&plan));
    print!("{}", report.summary());
    println!("degradation rate: {:.3}", report.degradation_rate());
    for (name, label) in [
        (
            query_decomposition::obs::hist::SERVE_LATENCY_TICKS,
            "latency (ticks)  ",
        ),
        (
            query_decomposition::obs::hist::SERVE_COST_UNITS,
            "cost (units)     ",
        ),
        (
            query_decomposition::obs::hist::SERVE_TICK_STEPS,
            "steps per tick   ",
        ),
    ] {
        if let Some(h) = trace.hists.get(name) {
            println!(
                "{label} p50={} p90={} p99={} max={}",
                h.p50(),
                h.p90(),
                h.p99(),
                h.max()
            );
        }
    }
    Ok(())
}

fn export(opts: &Options) -> Result<(), String> {
    let corpus = load_corpus(opts)?;
    let dir = PathBuf::from(opts.require("dir")?);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let ids: Vec<usize> = opts
        .require("ids")?
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<usize>()
                .map_err(|_| format!("bad id {t:?}"))
        })
        .collect::<Result<_, _>>()?;
    for id in ids {
        if id >= corpus.len() {
            return Err(format!(
                "image id {id} out of range (corpus has {})",
                corpus.len()
            ));
        }
        let img = corpus.render_image(id);
        let name = corpus.taxonomy().name(corpus.label(id)).replace('/', "_");
        let path = dir.join(format!("{id:05}-{name}.ppm"));
        write_ppm(&img, &path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn shard(opts: &Options) -> Result<(), String> {
    use query_decomposition::index::KnnIndex;
    use query_decomposition::shard::{build_sharded_rfs, persist, ShardConfig, MAX_SHARDS};

    let corpus = load_corpus(opts)?;
    if let Some(out) = opts.get("out") {
        // Build mode: partition, build one RFS arena per shard, save QDS1.
        let out = PathBuf::from(out);
        let shards = opts.parse_in("shards", 4usize, 1..=MAX_SHARDS)?;
        let shard_seed = opts.parse_or("shard-seed", 42u64)?;
        let config = rfs_config(opts, &corpus)?;
        eprintln!(
            "building sharded RFS: {shards} shards (seed {shard_seed}), node capacity {}…",
            config.node_max
        );
        let rfs = build_sharded_rfs(
            corpus.features(),
            &config,
            ShardConfig::new(shards, shard_seed),
        );
        persist::save(&rfs, &out).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        let set = rfs.tree();
        let sizes: Vec<String> = (0..set.shard_count())
            .map(|s| set.shard_members(s).len().to_string())
            .collect();
        println!(
            "wrote {} ({} shards of [{}] images, {} nodes, {} representatives)",
            out.display(),
            set.shard_count(),
            sizes.join(", "),
            set.node_count(),
            rfs.all_representatives().len(),
        );
        return Ok(());
    }

    // Query mode: load a QDS1 snapshot and run a session through it.
    let rfs_path = opts.require("rfs")?;
    let rfs = persist::load(Path::new(rfs_path))
        .map_err(|e| format!("cannot load sharded RFS {rfs_path}: {e}"))?;
    if rfs.len() != corpus.len() {
        return Err(format!(
            "sharded RFS indexes {} images but the corpus has {} — rebuild with `qd shard --out`",
            rfs.len(),
            corpus.len()
        ));
    }
    let name = opts.require("query")?;
    let query = queries::standard_queries(corpus.taxonomy())
        .into_iter()
        .find(|q| q.name == name)
        .ok_or_else(|| format!("no standard query named {name:?} (see `qd list-queries`)"))?;
    let gt = corpus.ground_truth(&query).len();
    let k = opts.parse_or("k", gt)?;
    let seed = opts.parse_or("seed", 7u64)?;
    let cfg = QdConfig {
        rounds: opts.parse_or("rounds", 3usize)?,
        seed,
        ..QdConfig::default()
    };
    let mut user = SimulatedUser::oracle(&query, seed);
    let out = try_run_session(&corpus, &rfs, &query, &mut user, k, &cfg)
        .map_err(|e| e.to_string())?
        .into_outcome();
    println!(
        "query {:?} over {} shards: {} subqueries, {} results (k = {k})",
        query.name,
        rfs.tree().shard_count(),
        out.subquery_count,
        out.results.len()
    );
    println!(
        "precision {:.3}  recall {:.3}  GTIR {:.3}  (feedback reads {}, kNN reads {})",
        precision(&corpus, &query, &out.results),
        recall(&corpus, &query, &out.results),
        gtir(&corpus, &query, &out.results),
        out.feedback_accesses,
        out.knn_accesses
    );
    Ok(())
}
