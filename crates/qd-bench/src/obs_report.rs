//! The machine-readable observability report `BENCH_qd.json`
//! (`repro --json`): the Table 1 workload under a `qd_obs` recorder, plus a
//! multi-tenant serving run and a sharding equivalence probe, each a pure
//! function of `(scale, seed)`.

use crate::experiments::table1_table;
use crate::fixtures::{bench_corpus, bench_rfs, BenchScale};
use crate::report::{self, JsonValue};
use qd_core::baselines::BaselineConfig;
use qd_core::eval::{self, Baseline};
use qd_core::rfs::RfsStructure;
use qd_core::session::QdConfig;
use qd_core::QdError;

/// Runs the Table 1 workload (MV vs QD over the eleven standard queries)
/// under a `qd_obs` recorder and writes `BENCH_qd.json` with the schema
/// `{config, tables: {table1}, serving, sharding, counters, histograms,
/// span_tree}`.
///
/// Deterministic by construction: the RFS is built *inside* the recorder so
/// its build span and counters are part of the report, the corpus
/// render/extract phase runs *outside* it so a warm disk cache emits the
/// same bytes as a cold one, and nothing derived from wall-clock time,
/// thread count or the git commit is recorded — CI compares consecutive
/// runs and a `QD_THREADS=8` run byte-for-byte.
///
/// The `serving` ([`serving_section`]) and `sharding`
/// ([`sharding_section`]) sections run under recorders of their own, so the
/// engine workload's `counters`/`histograms` never mix with `serve.*` or
/// `shard.*` names.
pub fn json_report(scale: BenchScale, seed: u64) -> Result<(), QdError> {
    let corpus = bench_corpus(scale, seed);
    let (rows, trace) = qd_obs::with_recorder(|| {
        let rfs = RfsStructure::build(corpus.features(), &scale.rfs_config());
        eval::run_table1(
            &corpus,
            &rfs,
            Baseline::MultipleViewpoints,
            &QdConfig::default(),
            &BaselineConfig::default(),
        )
    });
    let table = table1_table(&rows?);
    let cc = scale.corpus_config(seed);
    let rc = scale.rfs_config();
    let config = JsonValue::Obj(vec![
        ("scale".to_string(), JsonValue::str(format!("{scale:?}"))),
        ("seed".to_string(), JsonValue::u64(seed)),
        ("corpus_size".to_string(), JsonValue::u64(cc.size as u64)),
        (
            "image_size".to_string(),
            JsonValue::u64(cc.image_size as u64),
        ),
        (
            "with_viewpoints".to_string(),
            JsonValue::Bool(cc.with_viewpoints),
        ),
        (
            "rfs_node_min".to_string(),
            JsonValue::u64(rc.node_min as u64),
        ),
        (
            "rfs_node_max".to_string(),
            JsonValue::u64(rc.node_max as u64),
        ),
    ]);
    let doc = JsonValue::Obj(vec![
        ("config".to_string(), config),
        (
            "tables".to_string(),
            JsonValue::Obj(vec![("table1".to_string(), table.to_json())]),
        ),
        ("serving".to_string(), serving_section(scale, seed)),
        ("sharding".to_string(), sharding_section(scale, seed)),
        (
            "counters".to_string(),
            report::counters_to_json(&trace.counters),
        ),
        (
            "histograms".to_string(),
            report::hists_to_json(&trace.hists),
        ),
        ("span_tree".to_string(), report::span_to_json(&trace.root)),
    ]);
    let path = std::path::Path::new("BENCH_qd.json");
    match std::fs::write(path, doc.render()) {
        Ok(()) => println!("[wrote {}]", path.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    Ok(())
}

/// The `serving` section of `BENCH_qd.json`: a deliberately overloaded
/// multi-tenant run (arrival rate 4/tick against 4 active slots and a
/// 4-deep queue) over the scenario matrix, reported as the outcome mix,
/// shed/evicted id sets, and throughput/latency/cost percentiles. The
/// simulation runs in its own recorder scope, so the engine workload's
/// `counters`/`histograms` sections are unaffected, and everything here is
/// a pure function of `(scale, seed)` — the CI byte-diff covers it.
fn serving_section(scale: BenchScale, seed: u64) -> JsonValue {
    use qd_serve::{LoadConfig, LoadPlan, ServeConfig, Server, SessionOutcome};

    let corpus = bench_corpus(scale, seed);
    let rfs = bench_rfs(scale, seed);
    let load_cfg = LoadConfig {
        users: 16,
        seed,
        arrivals_per_tick: 4,
        rounds: 3,
        k: None,
        deadline: 900,
    };
    let serve_cfg = ServeConfig {
        max_active: 4,
        queue_capacity: 4,
        ..ServeConfig::default()
    };
    let plan = LoadPlan::generate(&corpus, &load_cfg);
    let server = Server::new(corpus, rfs, serve_cfg.clone());
    let (serve_report, serve_trace) = qd_obs::with_recorder(|| server.run(&plan));

    let (complete, degraded, evicted, failed) = serve_report.state_counts();
    let ids = |list: Vec<qd_serve::SessionId>| {
        JsonValue::Arr(list.into_iter().map(|id| JsonValue::u64(id.0)).collect())
    };
    let truncated = serve_report.sessions.iter().filter(|s| s.truncated).count();
    let answered = (complete + degraded) as f64;
    JsonValue::Obj(vec![
        (
            "load".to_string(),
            JsonValue::Obj(vec![
                ("users".to_string(), JsonValue::u64(load_cfg.users as u64)),
                ("seed".to_string(), JsonValue::u64(load_cfg.seed)),
                (
                    "arrivals_per_tick".to_string(),
                    JsonValue::u64(load_cfg.arrivals_per_tick),
                ),
                ("rounds".to_string(), JsonValue::u64(load_cfg.rounds as u64)),
                ("deadline".to_string(), JsonValue::u64(load_cfg.deadline)),
            ]),
        ),
        (
            "scheduler".to_string(),
            JsonValue::Obj(vec![
                (
                    "max_active".to_string(),
                    JsonValue::u64(serve_cfg.max_active as u64),
                ),
                (
                    "queue_capacity".to_string(),
                    JsonValue::u64(serve_cfg.queue_capacity as u64),
                ),
                ("shed_seed".to_string(), JsonValue::u64(serve_cfg.shed_seed)),
            ]),
        ),
        ("ticks".to_string(), JsonValue::u64(serve_report.ticks)),
        (
            "outcomes".to_string(),
            JsonValue::Obj(vec![
                ("complete".to_string(), JsonValue::u64(complete as u64)),
                ("degraded".to_string(), JsonValue::u64(degraded as u64)),
                ("evicted".to_string(), JsonValue::u64(evicted as u64)),
                ("failed".to_string(), JsonValue::u64(failed as u64)),
            ]),
        ),
        (
            "truncated_sessions".to_string(),
            JsonValue::u64(truncated as u64),
        ),
        (
            "degradation_rate".to_string(),
            JsonValue::f64(serve_report.degradation_rate()),
        ),
        (
            "throughput_sessions_per_tick".to_string(),
            JsonValue::f64(if serve_report.ticks == 0 {
                0.0
            } else {
                answered / serve_report.ticks as f64
            }),
        ),
        ("shed_sessions".to_string(), ids(serve_report.shed_ids())),
        (
            "evicted_sessions".to_string(),
            ids(serve_report.evicted_ids()),
        ),
        (
            "failed_sessions".to_string(),
            JsonValue::Arr(
                serve_report
                    .sessions
                    .iter()
                    .filter(|s| matches!(&s.outcome, SessionOutcome::Failed(_)))
                    .map(|s| JsonValue::u64(s.id.0))
                    .collect(),
            ),
        ),
        (
            "counters".to_string(),
            report::counters_to_json(&serve_trace.counters),
        ),
        (
            "histograms".to_string(),
            report::hists_to_json(&serve_trace.hists),
        ),
    ])
}

/// The `sharding` section of `BENCH_qd.json`: builds a sharded index at
/// K ∈ {1, 2, 4, 7} over the bench corpus and probes the scatter-gather
/// merge against the monolithic R\*-tree — unbudgeted k-NN answers must be
/// the same multiset of `(distance, id)` pairs at every K. Like the
/// serving section it runs in its own recorder scope (so the `shard.*`
/// counters and histograms reported here never leak into the engine
/// workload's sections) and is a pure function of `(scale, seed)` — the
/// CI byte-diff covers it.
fn sharding_section(scale: BenchScale, seed: u64) -> JsonValue {
    use qd_index::KnnIndex;
    use qd_shard::{ShardConfig, ShardSet};

    let corpus = bench_corpus(scale, seed);
    let solo = bench_rfs(scale, seed);
    let tree_cfg = scale.rfs_config().tree_config(corpus.dim());
    let k = 10usize.min(corpus.len());
    let probes: Vec<usize> = (0..5).map(|i| i * (corpus.len() - 1) / 4).collect();
    // The answer is order-insensitive across index shapes: equal distances
    // may rank differently between one tree and a merged scatter, so the
    // probe compares the sorted `(distance bits, id)` multiset.
    let answer = |knn: qd_index::BudgetedKnn| -> Vec<(u32, u64)> {
        let mut a: Vec<(u32, u64)> = knn
            .neighbors
            .iter()
            .map(|n| (n.distance.to_bits(), n.id))
            .collect();
        a.sort_unstable();
        a
    };
    let ((rows, shard_sizes), shard_trace) = qd_obs::with_recorder(|| {
        let mut rows = Vec::new();
        let mut sizes = Vec::new();
        for shards in [1usize, 2, 4, 7] {
            let set = ShardSet::build(
                corpus.features(),
                tree_cfg.clone(),
                ShardConfig::new(shards, seed),
            );
            if shards == 4 {
                sizes = (0..set.shard_count())
                    .map(|s| set.shard_members(s).len() as u64)
                    .collect();
            }
            let mut exact = 0usize;
            for &p in &probes {
                let q = corpus.features()[p].as_slice();
                let sharded = answer(set.knn_in_budgeted(set.root(), q, k, None));
                let tree = solo.tree();
                let monolithic = answer(tree.knn_in_budgeted(tree.root(), q, k, None));
                if sharded == monolithic {
                    exact += 1;
                }
            }
            // One budgeted probe per K exercises the largest-remainder
            // budget split and the anytime merge accounting.
            let q = corpus.features()[probes[0]].as_slice();
            let budgeted = set.knn_in_budgeted(set.root(), q, k, Some(256));
            rows.push((shards, exact, budgeted.accesses, budgeted.exhausted));
        }
        (rows, sizes)
    });
    JsonValue::Obj(vec![
        ("seed".to_string(), JsonValue::u64(seed)),
        ("k".to_string(), JsonValue::u64(k as u64)),
        ("probes".to_string(), JsonValue::u64(probes.len() as u64)),
        (
            "shard_sizes_at_4".to_string(),
            JsonValue::Arr(shard_sizes.into_iter().map(JsonValue::u64).collect()),
        ),
        (
            "equivalence".to_string(),
            JsonValue::Arr(
                rows.into_iter()
                    .map(|(shards, exact, accesses, exhausted)| {
                        JsonValue::Obj(vec![
                            ("shards".to_string(), JsonValue::u64(shards as u64)),
                            ("exact_matches".to_string(), JsonValue::u64(exact as u64)),
                            ("budgeted_accesses".to_string(), JsonValue::u64(accesses)),
                            ("budgeted_exhausted".to_string(), JsonValue::Bool(exhausted)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "counters".to_string(),
            report::counters_to_json(&shard_trace.counters),
        ),
        (
            "histograms".to_string(),
            report::hists_to_json(&shard_trace.hists),
        ),
    ])
}
