//! The traced run: where the time of the untraced run goes.
//!
//! Everything here is measured **from outside**: a span (see
//! [`crate::tracer`]) around each call the benchmark makes into a layer's
//! public functions. `try_execute_subqueries` fans out internally, so after
//! each traced session its captured inputs are *replayed* through the public
//! pieces one at a time — quota allocation, each localized query, the merge,
//! then each `(scope, centroid, fetch)` through the index alone, then the
//! distance kernel over as many rows as that search scored. Layers a session
//! never reaches (build, persistence, clustering, serving, corpus synthesis)
//! are probed directly.

use crate::deploy::{Deploy, Update};
use crate::e2e::{check_sessions, run_sessions, serve, serve_config, Env};
use crate::report::{ms, secs, us, Checks, Measured, Report};
use crate::spec::KNN_K;
use crate::stats::{self, fit_two, tail_percentile};
use crate::tracer::{self, per_session, SpanRec, Tracer};
use crate::traffic::{Burst, SessionInput};
use qd_cluster::KMeans;
use qd_core::localknn::{try_run_local_query, LocalQuery, LocalResult};
use qd_core::ranking::{allocate_quotas, flatten_groups, merge_local_results};
use qd_core::rfs::RfsStructure;
use qd_core::session::{assemble_outcome, try_execute_subqueries, FeedbackStepper};
use qd_corpus::{Corpus, CorpusConfig};
use qd_features::FeatureExtractor;
use qd_index::{KnnIndex, RStarTree};
use qd_linalg::metric::{euclidean, squared_euclidean};
use qd_linalg::vector::centroid;
use qd_serve::{LoadConfig, LoadPlan, Server};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Traced sessions per cycle (a prefix of the workload's sessions).
const TRACED: usize = 400;
/// Cycles measured even when `--seconds` is already spent.
const MIN_CYCLES: usize = 3;
/// Repetitions of each direct probe; its metric is their median.
const PROBE_REPS: usize = 5;
/// Points inserted one by one for `qd-index.insert_us`.
const INSERT_SAMPLE: usize = 2000;
/// Images rendered and extracted for the corpus-side probes.
const IMAGE_SAMPLE: usize = 200;
/// Distance budget of the budgeted k-NN probe (what a deadline leaves).
const SMALL_BUDGET: u64 = 256;

// Span names. Layer metrics are folded from these.
const SESSION: &str = "session";
const FEEDBACK: &str = "qd-core.session.feedback";
const ROUND1: &str = "qd-core.session.round1";
const ROUND_LATER: &str = "qd-core.session.round_later";
const FINAL: &str = "qd-core.session.final";
const ASSEMBLE: &str = "qd-core.session.assemble";
const REPLAY: &str = "replay";
const QUOTAS: &str = "qd-core.ranking.quotas";
const LOCAL: &str = "qd-core.localknn.query";
const MERGE: &str = "qd-core.ranking.merge";
const KNN_LEAF: &str = "qd-index.knn_leaf";
const KERNEL: &str = "qd-linalg.kernel";

/// `PROBE_REPS` timings of `f`; the metric made from them is their median.
fn probe(mut f: impl FnMut() -> Duration) -> Vec<Duration> {
    (0..PROBE_REPS).map(|_| f()).collect()
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

fn over(name: &'static str, samples: &[Duration], unit: impl Fn(Duration) -> f64) -> Measured {
    Measured::over(name, &samples.iter().map(|&d| unit(d)).collect::<Vec<_>>())
}

/// The `qd-linalg` probes: both kernels streamed over every corpus row, and
/// an exhaustive scan with a top-`KNN_K` selection.
fn kernel_probes(corpus: &Corpus, out: &mut Vec<Measured>) -> f64 {
    let rows = corpus.features();
    let query = corpus.feature(rows.len() / 2);
    let per_row = |d: Duration| d.as_secs_f64() * 1e9 / rows.len() as f64;
    let stream = |kernel: fn(&[f32], &[f32]) -> f32| {
        probe(|| {
            timed(|| {
                let mut acc = 0.0f32;
                for row in rows {
                    acc += kernel(row, query);
                }
                black_box(acc)
            })
            .1
        })
    };
    let squared = stream(squared_euclidean);
    out.push(over("qd-linalg.sqdist37_ns", &squared, per_row));
    out.push(over("qd-linalg.euclid37_ns", &stream(euclidean), per_row));
    let scan = probe(|| {
        timed(|| {
            let mut scored: Vec<(f32, usize)> = rows
                .iter()
                .enumerate()
                .map(|(id, row)| (euclidean(row, query), id))
                .collect();
            let k = KNN_K.min(scored.len()) - 1;
            scored.select_nth_unstable_by(k, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            scored.truncate(k + 1);
            scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            black_box(scored)
        })
        .1
    });
    let scan = over("qd-linalg.scan_us", &scan, us);
    let scan_us = scan.value;
    out.push(scan);
    scan_us
}

/// Build- and persistence-side probes of `qd-index` and `qd-cluster`.
fn index_probes<D: Deploy>(env: &Env<'_>, rfs: &RfsStructure<D>, out: &mut Vec<Measured>) {
    let features = env.corpus.features();
    let tree_config = env.workload.rfs.tree_config(env.corpus.dim());
    let sample = INSERT_SAMPLE.min(features.len());
    let (tree, took) = timed(|| {
        let mut tree = RStarTree::new(tree_config.clone());
        for (id, row) in features[..sample].iter().enumerate() {
            tree.insert(row.clone(), id as u64);
        }
        tree
    });
    out.push(Measured::once(
        "qd-index.insert_us",
        us(took) / sample as f64,
    ));
    drop(tree);
    let items: Vec<(u64, Vec<f32>)> = features
        .iter()
        .enumerate()
        .map(|(id, row)| (id as u64, row.clone()))
        .collect();
    let (bulk, took) = timed(|| RStarTree::bulk_load(tree_config, items));
    out.push(Measured::once("qd-index.bulk_load_s", secs(took)));
    drop(bulk);

    let mut bytes = Vec::new();
    let encode = probe(|| {
        let (encoded, took) = timed(|| D::encode(rfs));
        bytes = encoded;
        took
    });
    out.push(over("qd-index.encode_ms", &encode, ms));
    let decode = probe(|| timed(|| assert!(D::decodes(&bytes), "own encoding decodes")).1);
    out.push(over("qd-index.decode_ms", &decode, ms));
    let index = rfs.tree();
    out.push(Measured::once("qd-index.nodes", index.node_count() as f64));
    out.push(Measured::once("qd-index.height", index.height() as f64));

    // One leaf's vectors through k-means, as representative selection does.
    let leaf = index
        .node_ids()
        .into_iter()
        .filter(|&n| index.is_leaf(n))
        .min()
        .expect("a built index has a leaf");
    let vectors: Vec<&[f32]> = index.leaf_items(leaf).into_iter().map(|(_, v)| v).collect();
    // CAST: a leaf holds at most `node_max` vectors; exact in f32.
    let k = ((env.workload.rfs.representative_fraction * vectors.len() as f32).round() as usize)
        .clamp(2, vectors.len().max(2));
    let kmeans = probe(|| timed(|| black_box(KMeans::new(k).with_seed(0).fit(&vectors))).1);
    out.push(over("qd-cluster.kmeans_leaf_us", &kmeans, us));
}

/// The pieces of an update, timed apart, plus the shape of the deployment.
fn update_probes<D: Deploy>(env: &Env<'_>, publisher: &D::Publisher, out: &mut Vec<Measured>) {
    let features = env.corpus.features();
    let config = &env.workload.rfs;
    let (mut mutate, mut refresh, mut select, mut publish) = (vec![], vec![], vec![], vec![]);
    for &victim in env.traffic.victims.iter().take(2) {
        let current = D::snapshot(publisher);
        let (index, took) = timed(|| D::mutated(current.tree(), features, Update::Remove(victim)));
        mutate.push(took);
        let (next, took) = timed(|| current.rebuild_with_refresh(index, features, config));
        refresh.push(took);
        let (current, took) = timed(|| D::publish(publisher, next));
        publish.push(took);
        let (index, took) = timed(|| D::mutated(current.tree(), features, Update::Insert(victim)));
        mutate.push(took);
        // Full representative selection over a prebuilt index.
        let (next, took) = timed(|| RfsStructure::build_on(index, features, config));
        select.push(took);
        publish.push(timed(|| D::publish(publisher, next)).1);
    }
    out.push(over("qd-core.rfs.select_reps_s", &select, secs));
    out.push(over("qd-core.rfs.refresh_ms", &refresh, ms));
    let current = D::snapshot(publisher);
    out.push(Measured::once(
        "qd-core.rfs.reps_total",
        current.all_representatives().len() as f64,
    ));
    out.push(over("deploy.mutate_ms", &mutate, ms));
    out.push(over("deploy.publish_us", &publish, us));
    let sizes = D::shard_sizes(current.tree());
    let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
    let largest = sizes.iter().copied().max().unwrap_or(0) as f64;
    out.push(Measured::once("deploy.shards", sizes.len() as f64));
    out.push(Measured::once("deploy.skew", largest / mean));
}

/// `qd-runtime` fan-out cost and `qd-obs` recorder cost.
fn runtime_probes<D: Deploy>(
    env: &Env<'_>,
    burst: &Burst,
    rfs: &RfsStructure<D>,
    out: &mut Vec<Measured>,
) {
    let items = [0u8; 4];
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let par_map4 = |threads: usize, calls: u32| {
        probe(|| {
            qd_runtime::with_threads(threads, || {
                timed(|| {
                    for _ in 0..calls {
                        black_box(qd_runtime::par_map(&items, |&x| x));
                    }
                })
                .1 / calls
            })
        })
    };
    out.push(over("qd-runtime.par_map4_us_t1", &par_map4(1, 2000), us));
    out.push(over(
        "qd-runtime.par_map4_us_tn",
        &par_map4(workers, 200),
        us,
    ));

    let inputs = traced_prefix(burst);
    let (times, _, _) =
        qd_runtime::with_threads(workers, || run_sessions(&env.corpus, rfs, inputs));
    out.push(Measured::once(
        "qd-runtime.session_p50_us_tn",
        stats::p50(&times),
    ));

    let (bare, _, _) = run_sessions(&env.corpus, rfs, inputs);
    let (recorded, _trace) = qd_obs::with_recorder(|| run_sessions(&env.corpus, rfs, inputs).0);
    let (bare, recorded) = (stats::p50(&bare), stats::p50(&recorded));
    out.push(Measured::once(
        "qd-obs.recorder_overhead_pct",
        (recorded - bare) / bare * 100.0,
    ));
}

/// `qd-serve`: plan generation, one steady run, and what the scheduler adds
/// over running the same tenants one at a time.
fn serve_probes<D: Deploy>(
    env: &Env<'_>,
    burst: &Burst,
    rfs: &Arc<RfsStructure<D>>,
    checks: &mut Checks,
    out: &mut Vec<Measured>,
) {
    let plan = &burst.plan_steady;
    let plan_config = LoadConfig {
        users: plan.specs.len(),
        rounds: env.workload.rounds,
        ..LoadConfig::default()
    };
    let generate = probe(|| timed(|| black_box(LoadPlan::generate(&env.corpus, &plan_config))).1);
    out.push(over("qd-serve.plan_ms", &generate, ms));

    let served = serve(&env.corpus, rfs, rfs, plan, true, checks);
    out.push(Measured::once("qd-serve.ticks", served.ticks as f64));
    out.push(Measured::once(
        "qd-serve.tick_mean_us",
        us(served.wall) / served.ticks.max(1) as f64,
    ));
    out.push(Measured::once(
        "qd-serve.truncated",
        served.truncated as f64,
    ));
    out.push(Measured::once("qd-serve.degraded", served.degraded as f64));

    let server = Server::new(Arc::clone(&env.corpus), Arc::clone(rfs), serve_config());
    let solo: Duration = plan
        .specs
        .iter()
        .filter_map(|spec| plan.solo(spec.id))
        .map(|one| timed(|| black_box(server.run(&one))).1)
        .sum();
    out.push(Measured::once(
        "qd-serve.overhead_pct",
        (secs(served.wall) - secs(solo)) / secs(served.wall) * 100.0,
    ));
}

/// Input generation: synthesis of a small corpus, the cache load, and the
/// render and extract steps on their own.
fn corpus_probes(env: &Env<'_>, cache: &Path, out: &mut Vec<Measured>) {
    let small = CorpusConfig {
        size: IMAGE_SAMPLE,
        ..env.workload.corpus.clone()
    };
    let synth = probe(|| timed(|| black_box(Corpus::build(&small))).1);
    out.push(over("qd-corpus.synth_ms", &synth, ms));
    let load = probe(|| {
        timed(|| black_box(qd_corpus::cache::load(cache, &env.workload.corpus).is_ok())).1
    });
    out.push(over("qd-corpus.load_ms", &load, ms));

    let ids: Vec<usize> = (0..IMAGE_SAMPLE.min(env.corpus.len())).collect();
    let (images, took) = timed(|| {
        ids.iter()
            .map(|&id| env.corpus.render_image(id))
            .collect::<Vec<_>>()
    });
    out.push(Measured::once(
        "qd-imagery.render_us",
        us(took) / ids.len() as f64,
    ));
    let extractor = FeatureExtractor::new();
    let (_, took) = timed(|| {
        for image in &images {
            black_box(extractor.extract(image));
        }
    });
    out.push(Measured::once(
        "qd-features.extract_us",
        us(took) / ids.len() as f64,
    ));
}

/// The sessions of a cycle that run traced.
fn traced_prefix(burst: &Burst) -> &[SessionInput] {
    &burst.sessions[..TRACED.min(burst.sessions.len())]
}

/// One replayed index call: what calibration regresses time on.
struct KnnCall {
    ns: f64,
    distances: f64,
    accesses: f64,
    pruned: f64,
    /// The localized query searched above its home cluster.
    expanded: bool,
}

/// Runs one session under spans, then replays the inputs of its final phase
/// piece by piece. Returns whether the session answered.
fn traced_session<I: KnnIndex + Sync>(
    tracer: &mut Tracer,
    corpus: &Corpus,
    rfs: &RfsStructure<I>,
    input: &SessionInput,
    calls: &mut Vec<KnnCall>,
) -> bool {
    let cfg = &input.cfg;
    let mut user = input.user();
    let session = tracer.enter(SESSION);
    let feedback = tracer.enter(FEEDBACK);
    let mut stepper = FeedbackStepper::new(rfs, corpus.labels(), cfg.clone());
    loop {
        let name = if stepper.rounds_run() == 0 {
            ROUND1
        } else {
            ROUND_LATER
        };
        if tracer.span(name, || stepper.step_round(&mut user)) {
            break;
        }
    }
    let rounds = stepper.finish();
    tracer.exit(feedback);
    let marks = &rounds.final_marks;
    let execution = tracer.span(FINAL, || {
        try_execute_subqueries(corpus, rfs, marks, input.k, cfg)
    });
    let Ok(execution) = execution else {
        tracer.exit(session);
        return false;
    };
    tracer.span(ASSEMBLE, || {
        black_box(assemble_outcome(
            corpus,
            &input.query,
            cfg,
            &rounds,
            execution,
        ))
    });
    tracer.exit(session);
    if marks.is_empty() {
        return true;
    }

    let tree = rfs.tree();
    let features = corpus.features();
    let replay = tracer.enter(REPLAY);
    let supports: Vec<usize> = marks.iter().map(|(_, m)| m.len()).collect();
    let quotas = tracer.span(QUOTAS, || allocate_quotas(&supports, input.k));
    let fetch_of = |quota: usize| quota + (quota / 2).max(5);
    let mut locals: Vec<LocalResult> = Vec::with_capacity(marks.len());
    for ((home, points), &quota) in marks.iter().zip(&quotas) {
        let query = LocalQuery {
            home: *home,
            query_points: points.clone(),
        };
        let local = tracer.span(LOCAL, || {
            try_run_local_query(
                tree,
                features,
                &query,
                cfg.boundary_threshold,
                fetch_of(quota),
                quota,
                None,
                None,
            )
        });
        match local {
            Ok(local) => locals.push(local),
            Err(_) => {
                tracer.exit(replay);
                return false;
            }
        }
    }
    tracer.span(MERGE, || {
        let groups = merge_local_results(&locals, input.k);
        black_box(flatten_groups(&groups))
    });
    for (((_, points), local), &quota) in marks.iter().zip(&locals).zip(&quotas) {
        let rows: Vec<&[f32]> = points.iter().map(|&id| features[id].as_slice()).collect();
        let center = centroid(&rows);
        let open = tracer.enter(KNN_LEAF);
        let answer = tree.knn_in_budgeted(local.scope, &center, fetch_of(quota), None);
        let ns = tracer.exit(open);
        calls.push(KnnCall {
            ns: ns as f64,
            distances: answer.distance_computations as f64,
            accesses: answer.accesses as f64,
            pruned: answer.distances_pruned as f64,
            expanded: local.scope != local.home,
        });
        let scored = (answer.distance_computations as usize).min(features.len());
        tracer.span(KERNEL, || {
            let mut acc = 0.0f32;
            for row in &features[..scored] {
                acc += squared_euclidean(row, &center);
            }
            black_box(acc)
        });
    }
    tracer.exit(replay);
    true
}

/// Root-scope probes with and without a small budget.
fn root_probes<I: KnnIndex>(
    index: &I,
    corpus: &Corpus,
    probes: &[usize],
    calls: &mut Vec<KnnCall>,
) -> (f64, f64, f64) {
    let (mut full, mut distances, mut small) = (vec![], vec![], vec![]);
    for &p in probes {
        let query = corpus.feature(p);
        let (answer, took) = timed(|| index.knn_in_budgeted(index.root(), query, KNN_K, None));
        full.push(us(took));
        distances.push(answer.distance_computations as f64);
        calls.push(KnnCall {
            ns: took.as_secs_f64() * 1e9,
            distances: answer.distance_computations as f64,
            accesses: answer.accesses as f64,
            pruned: answer.distances_pruned as f64,
            expanded: false,
        });
        let budget = Some(SMALL_BUDGET);
        let (answer, took) = timed(|| index.knn_in_budgeted(index.root(), query, KNN_K, budget));
        small.push(us(took));
        black_box(answer);
    }
    (
        stats::p50(&full),
        stats::p50(&distances),
        stats::p50(&small),
    )
}

/// Per-cycle values of every session-side layer metric, keyed by name.
type Columns = BTreeMap<&'static str, Vec<f64>>;

fn push(columns: &mut Columns, name: &'static str, value: f64) {
    columns.entry(name).or_default().push(value);
}

fn p50_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::p50(values)
    }
}

/// What one cycle's spans add up to.
struct Folded {
    /// Nanoseconds of session time inside some layer's span.
    attributed_ns: f64,
    /// Nanoseconds of all traced session spans.
    session_ns: f64,
    /// p50 of the traced session spans, microseconds.
    session_p50_us: f64,
}

/// Folds the spans of one cycle into per-layer columns. `spans` must hold
/// whole trees only, with `parent` indices relative to the slice.
fn fold_cycle(spans: &[SpanRec], columns: &mut Columns) -> Folded {
    let durations: Vec<u64> = spans.iter().map(SpanRec::ns).collect();
    let own = tracer::self_times(spans);
    let micros = |ns: u64| ns as f64 / 1e3;
    // Per-session self time of the spans called `name`.
    let layer = |name: &str| per_session(spans, &own, name);
    let at = |m: &BTreeMap<u64, u64>, s: u64| m.get(&s).copied().unwrap_or(0) as f64;
    // p50 over the individual spans called `name`.
    let span_p50 = |names: &[&str]| -> f64 {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| micros(s.ns()))
            .collect();
        p50_or_zero(&v)
    };

    let session = per_session(spans, &durations, SESSION);
    let (final_, assemble) = (layer(FINAL), layer(ASSEMBLE));
    let (local, merge, quotas, knn) = (layer(LOCAL), layer(MERGE), layer(QUOTAS), layer(KNN_LEAF));
    // The feedback span's self time is stepper construction and `finish`;
    // its children are the rounds.
    let (feedback, round1, later) = (layer(FEEDBACK), layer(ROUND1), layer(ROUND_LATER));

    let (mut fanout, mut local_self) = (Vec::new(), Vec::new());
    let (mut attributed_ns, mut session_ns) = (0.0, 0.0);
    for &s in session.keys() {
        let pieces = at(&local, s) + at(&merge, s) + at(&quotas, s);
        if local.contains_key(&s) {
            fanout.push((at(&final_, s) - pieces) / 1e3);
            local_self.push((at(&local, s) - at(&knn, s)) / 1e3);
        }
        // Attributed to a layer: the feedback phase, the final phase (its
        // replayed pieces plus the remainder, which is the fan-out's own
        // time) and the assembly. What is left of the session span is the
        // benchmark's glue between the calls.
        let rounds = at(&feedback, s) + at(&round1, s) + at(&later, s);
        attributed_ns += rounds + at(&final_, s) + at(&assemble, s);
        session_ns += at(&session, s);
    }
    let session_us: Vec<f64> = session.values().map(|&ns| micros(ns)).collect();
    let session_p50_us = p50_or_zero(&session_us);

    push(columns, "trace.session_us", session_p50_us);
    push(columns, "qd-core.session.round1_us", span_p50(&[ROUND1]));
    push(
        columns,
        "qd-core.session.round_us",
        span_p50(&[ROUND1, ROUND_LATER]),
    );
    push(columns, "qd-core.session.final_us", span_p50(&[FINAL]));
    push(
        columns,
        "qd-core.session.assemble_us",
        span_p50(&[ASSEMBLE]),
    );
    push(
        columns,
        "qd-core.session.fanout_self_us",
        p50_or_zero(&fanout),
    );
    let subqueries = spans.iter().filter(|s| s.name == LOCAL).count();
    push(
        columns,
        "qd-core.session.subqueries",
        subqueries as f64 / session.len().max(1) as f64,
    );
    push(columns, "qd-core.localknn.query_us", span_p50(&[LOCAL]));
    push(
        columns,
        "qd-core.localknn.self_us",
        p50_or_zero(&local_self),
    );
    push(columns, "qd-core.ranking.merge_us", span_p50(&[MERGE]));
    push(columns, "qd-index.knn_leaf_us", span_p50(&[KNN_LEAF]));
    let kernel: Vec<f64> = layer(KERNEL).values().map(|&ns| micros(ns)).collect();
    push(columns, "qd-linalg.kernel_us", p50_or_zero(&kernel));
    Folded {
        attributed_ns,
        session_ns,
        session_p50_us,
    }
}

/// The whole traced run of one workload.
pub fn run<D: Deploy>(env: &Env<'_>, seconds: f64, cache: &Path, trace_file: &Path) -> Report {
    let workload = env.workload;
    let corpus = &env.corpus;
    let mut checks = Checks::default();
    let mut metrics: Vec<Measured> = Vec::new();

    let (rfs, took) = timed(|| D::build(corpus.features(), &workload.rfs, workload.shards));
    metrics.push(Measured::once("deploy.build_s", secs(took)));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);

    let scan_us = kernel_probes(corpus, &mut metrics);
    index_probes::<D>(env, &rfs, &mut metrics);
    corpus_probes(env, cache, &mut metrics);
    let publisher = D::publisher(rfs);
    update_probes::<D>(env, &publisher, &mut metrics);
    let rfs = D::snapshot(&publisher);
    let first = env.traffic.burst(corpus, workload, 0);
    runtime_probes::<D>(env, &first, &rfs, &mut metrics);
    serve_probes::<D>(env, &first, &rfs, &mut checks, &mut metrics);

    // Displays per round come from the engine's own counters, read once.
    let (rounds_run, recorded) = qd_obs::with_recorder(|| {
        traced_prefix(&first)
            .iter()
            .map(|s| {
                let mut user = s.user();
                qd_core::run_feedback_rounds(&*rfs, corpus.labels(), &mut user, &s.cfg)
                    .round_durations
                    .len()
            })
            .sum::<usize>()
    });
    let displays = recorded
        .counters
        .get(qd_obs::ctr::SESSION_DISPLAYS)
        .copied()
        .unwrap_or(0);
    metrics.push(Measured::once(
        "qd-core.session.displays_per_round",
        displays as f64 / rounds_run.max(1) as f64,
    ));

    let mut tracer = Tracer::new();
    let mut columns = Columns::new();
    let (mut attributed_ns, mut session_ns) = (0.0, 0.0);
    let mut digest = 0;
    let mut cycles = 0usize;
    while cycles < MIN_CYCLES || Instant::now() < deadline {
        let burst = env.traffic.burst(corpus, workload, 1 + cycles);
        let inputs = traced_prefix(&burst);
        // Untraced pass first, over the whole burst: the tail of the session
        // time, and (its traced prefix) the base of the tracing overhead.
        let (mut bare, _, outcomes) = run_sessions(corpus, &rfs, &burst.sessions);
        let cycle_digest = check_sessions(&burst.sessions, &outcomes, corpus.len(), &mut checks);
        if cycles == 0 {
            digest = cycle_digest; // as in the untraced run: the first cycle's
        }
        drop(outcomes);
        let bare_p50 = stats::p50(&bare[..inputs.len()]);
        stats::sort(&mut bare);
        // p99 at every declared mix; a smaller sample gets the tail it supports.
        let tail = stats::percentile(&bare, tail_percentile(bare.len()));
        push(&mut columns, "qd-core.session.p99_us", tail);

        let from = tracer.spans().len();
        let mut calls: Vec<KnnCall> = Vec::new();
        for (i, input) in inputs.iter().enumerate() {
            tracer.set_session((cycles * inputs.len() + i) as u64);
            let ok = traced_session(&mut tracer, corpus, &rfs, input, &mut calls);
            checks.op(ok, || format!("traced session {i} failed"));
        }
        let cycle_spans = tracer.since(from);
        let folded = fold_cycle(&cycle_spans, &mut columns);
        attributed_ns += folded.attributed_ns;
        session_ns += folded.session_ns;
        push(
            &mut columns,
            "trace.overhead_pct",
            (folded.session_p50_us - bare_p50) / bare_p50 * 100.0,
        );

        let column = |f: fn(&KnnCall) -> f64| -> Vec<f64> { calls.iter().map(f).collect() };
        let (scored, pruned) = (column(|c| c.distances), column(|c| c.pruned));
        push(&mut columns, "qd-index.knn_leaf_dist", p50_or_zero(&scored));
        push(
            &mut columns,
            "qd-index.knn_leaf_accesses",
            p50_or_zero(&column(|c| c.accesses)),
        );
        let expanded = calls.iter().filter(|c| c.expanded).count();
        push(
            &mut columns,
            "qd-core.localknn.expanded_fraction",
            expanded as f64 / calls.len().max(1) as f64,
        );
        push(
            &mut columns,
            "qd-index.knn_pruned_fraction",
            pruned.iter().sum::<f64>() / scored.iter().sum::<f64>().max(1.0),
        );
        let (root_us, root_dist, small_us) =
            root_probes(rfs.tree(), corpus, &burst.probes, &mut calls);
        checks.ops(2 * burst.probes.len(), 0, String::new);
        push(&mut columns, "qd-index.knn_root_us", root_us);
        push(&mut columns, "qd-index.knn_root_dist", root_dist);
        push(&mut columns, "qd-index.knn_root_vs_scan", root_us / scan_us);
        push(&mut columns, "qd-index.knn_budget256_us", small_us);
        // Calibration: call time regressed on the two deterministic counters,
        // over leaf-scope and root-scope calls together.
        let rows: Vec<(f64, f64, f64)> = calls
            .iter()
            .map(|c| (c.distances, c.accesses, c.ns))
            .collect();
        let (per_distance, per_access, residual) = fit_two(&rows).unwrap_or((0.0, 0.0, 0.0));
        push(&mut columns, "calib.ns_per_distance", per_distance);
        push(&mut columns, "calib.ns_per_node_access", per_access);
        push(&mut columns, "calib.residual_pct", residual * 100.0);
        cycles += 1;
    }
    metrics.extend(columns.iter().map(|(name, v)| Measured::over(name, v)));
    metrics.push(Measured::once(
        "trace.attributed_pct",
        attributed_ns / session_ns * 100.0,
    ));

    if let Some(dir) = trace_file.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(trace_file, tracer::to_json(tracer.spans()).render()) {
        checks.problem(format!("cannot write {}: {e}", trace_file.display()));
    }

    // Table order, so the printed report reads layer by layer.
    metrics.sort_by_key(|m| {
        crate::spec::PER_LAYER
            .iter()
            .position(|d| d.name == m.name)
            .unwrap_or(usize::MAX)
    });
    Report {
        workload: workload.name,
        why: workload.why,
        seed: env.seed,
        traced: true,
        checks,
        result_digest: digest,
        repetitions: cycles,
        metrics,
    }
}
