//! Chaos property suite: the degradation contract under deterministic fault
//! injection (DESIGN.md §9).
//!
//! For every fault site, for seeded random fault combinations, and for any
//! distance budget, a QD serving call must end in exactly one of three ways:
//!
//! 1. `Ok(ServedOutcome::Complete(..))` — the fault missed the exercised path;
//! 2. `Ok(ServedOutcome::Degraded { .. })` — a *valid* ranked list (unique,
//!    in-range ids, at most k) plus an honest degradation report;
//! 3. `Err(QdError::..)` — a typed error.
//!
//! Never a panic. And because fault decisions key off stable tokens (node
//! index, subquery index) rather than scheduling order, the outcome — results,
//! counters, degradation report, error text — is byte-identical between
//! `QD_THREADS=1` and `QD_THREADS=8` for a fixed `(fault seed, query)`. The
//! CI chaos job reruns this suite under eight different `QD_FAULT_SEED`s.

use qd_fault::codec::CodecError;
use qd_fault::{FaultPlan, Mode};
use query_decomposition::prelude::*;
use std::sync::OnceLock;

fn fixture() -> &'static (Corpus, RfsStructure) {
    static FIXTURE: OnceLock<(Corpus, RfsStructure)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = Corpus::build(&CorpusConfig {
            size: 300,
            image_size: 24,
            seed: 23,
            filler_count: 5,
            with_viewpoints: false,
        });
        let rfs = RfsStructure::build(corpus.features(), &RfsConfig::test_small());
        (corpus, rfs)
    })
}

/// The sweep's fault seed: `QD_FAULT_SEED` when set (the CI chaos job runs
/// eight of them), 0 otherwise.
fn fault_seed() -> u64 {
    std::env::var(qd_fault::FAULT_SEED_ENV)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// One serving call under whatever fault plan is active on this thread.
fn serve(query_name: &str, cfg: &QdConfig) -> Result<ServedOutcome, QdError> {
    let (corpus, rfs) = fixture();
    let query = queries::standard_queries(corpus.taxonomy())
        .into_iter()
        .find(|q| q.name == query_name)
        .expect("standard query");
    let k = corpus.ground_truth(&query).len();
    let mut user = SimulatedUser::oracle(&query, 13);
    qd_core::session::try_run_session(corpus, rfs, &query, &mut user, k, cfg)
}

/// Asserts the three-way contract and returns a CSV-shaped line that must be
/// byte-identical across thread counts.
fn check_and_serialize(outcome: &Result<ServedOutcome, QdError>, k: usize) -> String {
    let (corpus, _) = fixture();
    match outcome {
        Ok(served) => {
            let o = served.outcome();
            assert!(o.results.len() <= k, "more than k results");
            let mut sorted = o.results.clone();
            sorted.sort_unstable();
            let before = sorted.len();
            sorted.dedup();
            assert_eq!(sorted.len(), before, "duplicate result ids");
            assert!(
                o.results.iter().all(|&id| id < corpus.len()),
                "out-of-range result id"
            );
            match served {
                ServedOutcome::Complete(o) => format!(
                    "complete,{},{},{},{:?}",
                    o.subquery_count, o.feedback_accesses, o.knn_accesses, o.results
                ),
                ServedOutcome::Degraded { outcome, report } => {
                    assert!(
                        report.budget_spent > 0
                            || report.nodes_skipped > 0
                            || report.subqueries_dropped > 0
                            || report.shard_legs_dropped > 0
                            || report.displays_skipped > 0,
                        "degraded outcome with an empty report"
                    );
                    format!(
                        "degraded,{},{},{},{},{},{},{:?}",
                        report.budget_spent,
                        report.nodes_skipped,
                        report.subqueries_dropped,
                        report.shard_legs_dropped,
                        report.displays_skipped,
                        outcome.subquery_count,
                        outcome.results
                    )
                }
            }
        }
        Err(e) => format!("error,{e}"),
    }
}

/// Runs `f` under the plan at 1 and at 8 workers and asserts the serialized
/// outcome is identical; returns the 1-thread line.
fn serve_both_thread_counts(plan: &FaultPlan, query: &str, cfg: &QdConfig) -> String {
    let (corpus, _) = fixture();
    let q = queries::standard_queries(corpus.taxonomy())
        .into_iter()
        .find(|x| x.name == query)
        .expect("standard query");
    let k = corpus.ground_truth(&q).len();
    let one = qd_fault::with_plan(plan, || {
        qd_runtime::with_threads(1, || check_and_serialize(&serve(query, cfg), k))
    });
    let eight = qd_fault::with_plan(plan, || {
        qd_runtime::with_threads(8, || check_and_serialize(&serve(query, cfg), k))
    });
    assert_eq!(
        one,
        eight,
        "fault outcome diverged between 1 and 8 threads (plan seed {}, query {query})",
        plan.seed()
    );
    one
}

#[test]
fn every_site_firing_always_keeps_the_contract() {
    for &(site, _) in qd_fault::SITES {
        let plan = FaultPlan::new(fault_seed()).site(site, Mode::Always);
        for query in ["bird", "rose"] {
            let line = serve_both_thread_counts(&plan, query, &QdConfig::default());
            // Sanity: the serializer produced one of the three shapes.
            assert!(
                line.starts_with("complete,")
                    || line.starts_with("degraded,")
                    || line.starts_with("error,"),
                "site {site}: unexpected outcome shape {line}"
            );
        }
    }
}

#[test]
fn seeded_random_fault_storms_never_panic_and_are_thread_invariant() {
    let base = fault_seed();
    for round in 0..4u64 {
        let plan = FaultPlan::new(base ^ (round.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .all_sites(Mode::Probability(0.3));
        for query in ["bird", "horse", "mountain view"] {
            serve_both_thread_counts(&plan, query, &QdConfig::default());
        }
        // Same storm with a tight distance budget stacked on top.
        let cfg = QdConfig {
            distance_budget: Some(97 + round * 131),
            ..QdConfig::default()
        };
        serve_both_thread_counts(&plan, "bird", &cfg);
    }
}

#[test]
fn fixed_fault_seed_is_reproducible_run_to_run() {
    let plan = FaultPlan::new(fault_seed()).all_sites(Mode::Probability(0.4));
    let first = serve_both_thread_counts(&plan, "rose", &QdConfig::default());
    let second = serve_both_thread_counts(&plan, "rose", &QdConfig::default());
    assert_eq!(first, second, "same plan, same query, different outcome");
}

#[test]
fn budget_sweep_degrades_gracefully_at_any_level() {
    let (corpus, _) = fixture();
    let query = queries::standard_queries(corpus.taxonomy())
        .into_iter()
        .find(|q| q.name == "bird")
        .expect("standard query");
    let k = corpus.ground_truth(&query).len();
    let no_faults = FaultPlan::new(0);
    let mut lines = Vec::new();
    for budget in [0u64, 1, 17, 333, 9_999, u64::MAX] {
        let cfg = QdConfig {
            distance_budget: Some(budget),
            ..QdConfig::default()
        };
        lines.push(serve_both_thread_counts(&no_faults, "bird", &cfg));
    }
    // The unbudgeted run and the effectively-unlimited run agree exactly.
    let unlimited = serve_both_thread_counts(&no_faults, "bird", &QdConfig::default());
    assert_eq!(lines[lines.len() - 1], unlimited);
    // Zero budget still serves (possibly empty, possibly degraded) — checked
    // inside check_and_serialize; here just pin that nothing errored.
    assert!(
        !lines[0].starts_with("error,"),
        "zero budget must degrade, not fail: {}",
        lines[0]
    );
    let _ = k;
}

#[test]
fn client_submit_retries_deterministically_under_chaos() {
    use qd_core::client::{client_feedback, submit_with_retry, ClientRfs, RetryPolicy};

    let (corpus, rfs) = fixture();
    let client = ClientRfs::replicate(rfs);
    let query = queries::standard_queries(corpus.taxonomy())
        .into_iter()
        .find(|q| q.name == "rose")
        .expect("standard query");
    let k = corpus.ground_truth(&query).len();
    let cfg = QdConfig::default();
    let mut user = SimulatedUser::oracle(&query, 5);
    let remote = client_feedback(&client, corpus.labels(), &mut user, &cfg);
    let policy = RetryPolicy { max_attempts: 4 };

    for round in 0..6u64 {
        let plan = FaultPlan::new(fault_seed() ^ round)
            .site(qd_fault::site::CLIENT_TRANSPORT, Mode::Probability(0.5))
            .site(qd_fault::site::CLIENT_MARK_CORRUPT, Mode::Probability(0.5));
        let describe = |r: &Result<qd_core::client::SubmitReport, QdError>| match r {
            Ok(rep) => {
                assert!(rep.attempts >= 1 && rep.attempts <= policy.max_attempts);
                assert!(rep.execution.results.len() <= k);
                format!(
                    "ok,{},{},{:?}",
                    rep.attempts, rep.backoff_units, rep.execution.results
                )
            }
            Err(QdError::RetriesExhausted {
                attempts,
                last_error,
            }) => {
                assert_eq!(*attempts, policy.max_attempts);
                format!("exhausted,{attempts},{last_error}")
            }
            Err(e) => panic!("chaos plan produced a non-transient error: {e}"),
        };
        let first = qd_fault::with_plan(&plan, || {
            describe(&submit_with_retry(corpus, rfs, &remote, k, &cfg, policy))
        });
        let second = qd_fault::with_plan(&plan, || {
            describe(&submit_with_retry(corpus, rfs, &remote, k, &cfg, policy))
        });
        assert_eq!(first, second, "retry outcome not deterministic");
    }
}

/// Drives one format's `save`/`load` pair through the three failpoints of
/// its family: a failed save leaves neither the target nor a `.tmp` sibling
/// behind, a failed read is a typed error, and a torn read is rejected or —
/// for the one payload that keeps every byte — loads a value that passes
/// `validate`, the same way on every run.
fn check_file_sites<T>(
    file: &str,
    [read, short_read, write]: [&str; 3],
    save: impl Fn(&std::path::Path) -> Result<(), CodecError>,
    load: impl Fn(&std::path::Path) -> Result<T, CodecError>,
    validate: impl Fn(&T),
) {
    let dir = std::env::temp_dir().join("qd_fault_file_sites");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(file);
    let tmp = dir.join(format!("{file}.tmp"));
    std::fs::remove_file(&path).ok();

    let plan = FaultPlan::new(fault_seed()).site(write, Mode::Always);
    let err = qd_fault::with_plan(&plan, || save(&path)).unwrap_err();
    assert!(err.to_string().contains("injected"), "{file}: {err}");
    assert!(
        !path.exists() && !tmp.exists(),
        "{file}: a failed save left a file behind"
    );

    save(&path).unwrap();
    assert!(!tmp.exists(), "{file}: the temp file must be renamed away");
    validate(&load(&path).unwrap());

    let plan = FaultPlan::new(fault_seed()).site(read, Mode::Always);
    let err = qd_fault::with_plan(&plan, || load(&path).map(drop)).unwrap_err();
    assert!(err.to_string().contains("injected"), "{file}: {err}");

    let plan = FaultPlan::new(fault_seed()).site(short_read, Mode::Always);
    let torn = || {
        qd_fault::with_plan(&plan, || {
            load(&path)
                .map(|loaded| validate(&loaded))
                .map_err(|e| e.to_string())
        })
    };
    assert_eq!(torn(), torn(), "{file}: torn reads are deterministic");
    std::fs::remove_file(&path).ok();
}

#[test]
fn all_four_formats_honour_their_file_sites() {
    use qd_fault::site::*;
    use query_decomposition::corpus::cache;
    use query_decomposition::index::persist;
    use query_decomposition::shard::persist as shard_persist;
    let cache_sites = [CACHE_READ, CACHE_SHORT_READ, CACHE_WRITE];
    let index_sites = [INDEX_READ, INDEX_SHORT_READ, INDEX_WRITE];
    let (_, rfs) = fixture();

    let config = CorpusConfig {
        size: 40,
        image_size: 16,
        seed: 7,
        filler_count: 2,
        with_viewpoints: false,
    };
    let corpus = Corpus::build(&config);
    check_file_sites(
        "corpus.qdc",
        cache_sites,
        |p| cache::save(&corpus, p),
        |p| cache::load(p, &config),
        |loaded| assert_eq!(loaded.features(), corpus.features()),
    );
    // The CLI's config-free load sits behind the same sites.
    check_file_sites(
        "corpus_any.qdc",
        cache_sites,
        |p| cache::save(&corpus, p),
        cache::load_any,
        |loaded| assert_eq!(loaded.config(), &config),
    );
    check_file_sites(
        "tree.qdt",
        index_sites,
        |p| persist::save(rfs.tree(), p),
        persist::load,
        |loaded| {
            loaded.validate();
            assert_eq!(loaded.len(), rfs.len());
        },
    );
    check_file_sites(
        "rfs.qdr",
        index_sites,
        |p| rfs.save(p),
        RfsStructure::load,
        |loaded| assert_eq!(loaded.reps_map(), rfs.reps_map()),
    );
    let sharded = sharded_fixture();
    check_file_sites(
        "set.qds",
        index_sites,
        |p| shard_persist::save(sharded, p),
        shard_persist::load,
        |loaded| assert_eq!(loaded.reps_map(), sharded.reps_map()),
    );
}

#[test]
fn session_sites_degrade_deterministically_site_by_site() {
    for site in [
        qd_fault::site::SESSION_ROUND_DISPLAY,
        qd_fault::site::SESSION_SUBQUERY_PANIC,
    ] {
        let plan = FaultPlan::new(fault_seed()).site(site, Mode::Probability(0.5));
        let first = serve_both_thread_counts(&plan, "bird", &QdConfig::default());
        let second = serve_both_thread_counts(&plan, "bird", &QdConfig::default());
        assert_eq!(first, second, "site {site}: outcome not reproducible");
        // The one permitted error is the documented total-loss case (§9):
        // when the seed happens to kill *every* subquery, the session
        // returns typed `AllSubqueriesFailed`; any partial loss must
        // degrade or complete.
        assert!(
            !first.starts_with("error,") || first.contains("localized subqueries failed"),
            "site {site} must degrade, complete, or fail the typed all-dead \
             error — never anything else: {first}"
        );
    }
}

#[test]
fn serve_sites_shed_evict_and_quarantine_deterministically() {
    use std::sync::Arc;
    static SERVE_FIXTURE: OnceLock<(Arc<Corpus>, Arc<RfsStructure>)> = OnceLock::new();
    let (corpus, rfs) = SERVE_FIXTURE
        .get_or_init(|| {
            let corpus = Corpus::build(&CorpusConfig {
                size: 160,
                image_size: 16,
                seed: 29,
                filler_count: 3,
                with_viewpoints: false,
            });
            let rfs = RfsStructure::build(corpus.features(), &RfsConfig::test_small());
            (Arc::new(corpus), Arc::new(rfs))
        })
        .clone();
    let plan = LoadPlan::generate(
        &corpus,
        &LoadConfig {
            users: 8,
            arrivals_per_tick: 4,
            ..LoadConfig::default()
        },
    );
    let server = Server::new(corpus, rfs, ServeConfig::default());

    // Each serving failpoint armed alone: admission rejection sheds at the
    // door, operator eviction removes mid-flight sessions, and an injected
    // step panic quarantines the tenant — always to a terminal state, and
    // because all three key off the session id (`fire_keyed`), two runs and
    // two thread counts agree byte for byte.
    for site in [
        qd_fault::site::SERVE_ADMISSION,
        qd_fault::site::SERVE_EVICT,
        qd_fault::site::SERVE_STEP_PANIC,
    ] {
        let fault_plan = FaultPlan::new(fault_seed()).site(site, Mode::Probability(0.5));
        let run = |threads: usize| {
            qd_fault::with_plan(&fault_plan, || {
                qd_runtime::with_threads(threads, || {
                    let report = server.run(&plan);
                    assert_eq!(report.sessions.len(), 8, "site {site}: lost a session");
                    report
                        .sessions
                        .iter()
                        .map(|s| format!("{}:{}", s.id, s.fingerprint()))
                        .collect::<Vec<_>>()
                        .join("\n")
                })
            })
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one, eight, "site {site}: diverged between 1 and 8 workers");
        let again = run(1);
        assert_eq!(one, again, "site {site}: not reproducible run to run");
    }
}

#[test]
fn rfs_build_survives_representative_selection_panics() {
    let (corpus, _) = fixture();
    let plan =
        FaultPlan::new(fault_seed()).site(qd_fault::site::RFS_SELECT_PANIC, Mode::Probability(0.5));
    let build = || {
        qd_fault::with_plan(&plan, || {
            RfsStructure::build(corpus.features(), &RfsConfig::test_small())
        })
    };
    let a = build();
    let b = build();
    // Deterministic degraded build: both runs picked the same representatives.
    assert_eq!(a.all_representatives(), b.all_representatives());
    // And the degraded structure still serves a valid session.
    let query = queries::standard_queries(corpus.taxonomy())
        .into_iter()
        .find(|q| q.name == "bird")
        .expect("standard query");
    let k = corpus.ground_truth(&query).len();
    let mut user = SimulatedUser::oracle(&query, 13);
    let served =
        qd_core::session::try_run_session(corpus, &a, &query, &mut user, k, &QdConfig::default())
            .expect("degraded RFS must still serve");
    let results = &served.outcome().results;
    assert!(results.len() <= k);
    assert!(results.iter().all(|&id| id < corpus.len()));
}

/// Sharded companion of [`fixture`]: the same corpus behind a four-shard
/// scatter-gather index, so the `shard.*` failpoints have legs to kill.
fn sharded_fixture() -> &'static RfsStructure<ShardSet> {
    static SHARDED: OnceLock<RfsStructure<ShardSet>> = OnceLock::new();
    SHARDED.get_or_init(|| {
        let (corpus, _) = fixture();
        build_sharded_rfs(
            corpus.features(),
            &RfsConfig::test_small(),
            ShardConfig::new(4, 23),
        )
    })
}

/// `shard.scatter.panic` and `shard.merge.drop` targeted at a single shard
/// (the failpoints key off the shard index, so `Mode::Once(victim)` kills
/// exactly that leg): the scatter-gather query loses the victim's images and
/// nothing else — the survivors' merge is still exact, the dropped partition
/// is counted, and the answer is byte-identical at 1 and 8 workers.
#[test]
fn shard_scatter_and_merge_faults_drop_one_leg_never_the_query() {
    use query_decomposition::index::KnnIndex;
    let (corpus, _) = fixture();
    let set = sharded_fixture().tree();
    let k = 25;
    let probe = corpus.features()[17].clone();

    let clean = set.knn_in_budgeted(set.root(), &probe, k, None);
    assert_eq!(clean.partitions_dropped, 0);
    assert_eq!(clean.neighbors.len(), k);

    for site in [qd_fault::site::SHARD_SCATTER, qd_fault::site::SHARD_MERGE] {
        for victim in 0..set.shard_count() {
            let plan = FaultPlan::new(fault_seed()).site(site, Mode::Once(victim as u64));
            let run = |threads: usize| {
                qd_fault::with_plan(&plan, || {
                    qd_runtime::with_threads(threads, || {
                        set.knn_in_budgeted(set.root(), &probe, k, None)
                    })
                })
            };
            let one = run(1);
            let eight = run(8);
            assert_eq!(
                one.neighbors, eight.neighbors,
                "site {site} victim {victim}: diverged between 1 and 8 workers"
            );
            assert_eq!(
                one.partitions_dropped, 1,
                "site {site} victim {victim}: exactly the targeted leg must drop"
            );
            // Degradation, not an error: the surviving shards' exact merged
            // answer is what remains, and the victim's images never appear.
            let mut expected: Vec<_> = (0..set.shard_count())
                .filter(|&s| s != victim)
                .flat_map(|s| {
                    let tree = set.shard(s);
                    tree.knn_in_budgeted(tree.root(), &probe, k, None).neighbors
                })
                .collect();
            expected.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
            expected.truncate(k);
            assert_eq!(
                one.neighbors, expected,
                "site {site} victim {victim}: survivors' merge is not exact"
            );
            let victims = set.shard_members(victim);
            assert!(
                one.neighbors.iter().all(|n| !victims.contains(&n.id)),
                "site {site} victim {victim}: a dropped shard's image leaked into the answer"
            );
        }
    }
}

/// Whole-shard loss through the session layer's accounting: a subquery whose
/// scope is the synthetic root scatters across every shard, so killing all
/// its legs empties it — and the report must say so. As long as another
/// subquery still answers, the session degrades instead of erroring, with
/// `subqueries_dropped` counting the emptied subquery and
/// `shard_legs_dropped` counting the lost legs. Byte-identical at 1 and 8
/// workers.
#[test]
fn whole_shard_loss_is_honest_degradation_while_a_subquery_survives() {
    use query_decomposition::index::KnnIndex;
    let (corpus, _) = fixture();
    let rfs = sharded_fixture();
    let set = rfs.tree();
    let k = 20;
    // Threshold 1.0 keeps the in-shard subquery from expanding past its own
    // shard (an image inside its leaf is never past its leaf's diagonal), so
    // only the root-homed subquery scatters.
    let cfg = QdConfig {
        boundary_threshold: 1.0,
        ..QdConfig::default()
    };
    let leaf = set
        .node_ids()
        .into_iter()
        .find(|&n| set.is_leaf(n))
        .expect("a sharded set has leaves");
    let marks: Vec<usize> = set
        .subtree_ids(leaf)
        .into_iter()
        .take(2)
        .map(|id| id as usize)
        .collect();
    let subqueries = [(set.root(), vec![4usize, 9]), (leaf, marks)];

    // Phase 1: every scatter leg dies (`Mode::Always`); the root subquery
    // comes back empty and is accounted as dropped.
    let all_dead = FaultPlan::new(fault_seed()).site(qd_fault::site::SHARD_SCATTER, Mode::Always);
    let run_all_dead = |threads: usize| {
        qd_fault::with_plan(&all_dead, || {
            qd_runtime::with_threads(threads, || {
                let exec =
                    qd_core::session::try_execute_subqueries(corpus, rfs, &subqueries, k, &cfg)
                        .expect("one subquery survives: degraded, not an error");
                let d = exec
                    .degradation
                    .clone()
                    .expect("whole-shard loss must be reported");
                assert_eq!(d.subqueries_dropped, 1, "the emptied subquery is dropped");
                assert_eq!(
                    d.shard_legs_dropped,
                    set.shard_count() as u64,
                    "every scatter leg of the root subquery was lost"
                );
                assert!(
                    !exec.results.is_empty(),
                    "the surviving subquery still answers"
                );
                format!(
                    "{},{},{},{},{:?}",
                    d.budget_spent,
                    d.nodes_skipped,
                    d.subqueries_dropped,
                    d.shard_legs_dropped,
                    exec.results
                )
            })
        })
    };
    let one = run_all_dead(1);
    assert_eq!(
        one,
        run_all_dead(8),
        "all-legs-dead diverged across workers"
    );
    assert_eq!(one, run_all_dead(1), "all-legs-dead not reproducible");

    // Phase 2: exactly one leg dies (`Mode::Once`); the root subquery keeps
    // its three survivors, so nothing is dropped at the subquery level but
    // the lost leg still degrades the report.
    let one_dead = FaultPlan::new(fault_seed()).site(qd_fault::site::SHARD_SCATTER, Mode::Once(1));
    let run_one_dead = |threads: usize| {
        qd_fault::with_plan(&one_dead, || {
            qd_runtime::with_threads(threads, || {
                let exec =
                    qd_core::session::try_execute_subqueries(corpus, rfs, &subqueries, k, &cfg)
                        .expect("three legs survive: degraded, not an error");
                let d = exec
                    .degradation
                    .clone()
                    .expect("a lost leg must degrade the report");
                assert_eq!(d.subqueries_dropped, 0, "no subquery came back empty");
                assert_eq!(d.shard_legs_dropped, 1, "exactly the targeted leg was lost");
                assert!(!exec.results.is_empty());
                format!(
                    "{},{},{},{},{:?}",
                    d.budget_spent,
                    d.nodes_skipped,
                    d.subqueries_dropped,
                    d.shard_legs_dropped,
                    exec.results
                )
            })
        })
    };
    let first = run_one_dead(1);
    assert_eq!(
        first,
        run_one_dead(8),
        "one-leg-dead diverged across workers"
    );
}

/// `shard.publish.fail`: a refused publication is all-or-nothing — the typed
/// error surfaces, the generation does not advance, and readers keep seeing
/// the previous snapshot. Disarmed, the same publication goes through.
#[test]
fn publish_failpoint_keeps_the_previous_snapshot_published() {
    use query_decomposition::shard::PublishError;
    use std::sync::Arc;
    let (corpus, _) = fixture();
    let cfg = RfsConfig::test_small();
    let next = || build_sharded_rfs(corpus.features(), &cfg, ShardConfig::new(3, 5));
    let publisher = ShardPublisher::new(build_sharded_rfs(
        corpus.features(),
        &cfg,
        ShardConfig::new(2, 5),
    ));
    let before = publisher.snapshot();

    let plan = FaultPlan::new(fault_seed()).site(qd_fault::site::SHARD_PUBLISH, Mode::Always);
    let err = qd_fault::with_plan(&plan, || publisher.publish(next())).unwrap_err();
    assert_eq!(err, PublishError::Injected);
    assert!(err.to_string().contains("injected"), "{err}");
    assert_eq!(
        publisher.generation(),
        0,
        "a refused publication must not bump the generation"
    );
    assert!(
        Arc::ptr_eq(&before, &publisher.snapshot()),
        "readers must keep seeing the old snapshot"
    );

    // The failpoint disarmed, the same publication succeeds.
    let after = publisher
        .publish(next())
        .expect("publication succeeds without the failpoint");
    assert_eq!(publisher.generation(), 1);
    assert!(Arc::ptr_eq(&after, &publisher.snapshot()));
    assert!(!Arc::ptr_eq(&before, &after));
}

/// Full sessions over the sharded RFS under `shard.*` chaos keep the same
/// three-way contract as the monolithic suite, thread-invariantly — and
/// since a lost scatter leg is absorbed inside the fan-out (never a panic,
/// never an error), shard chaos can only complete or degrade.
#[test]
fn sharded_sessions_keep_the_contract_under_shard_site_chaos() {
    let (corpus, _) = fixture();
    let rfs = sharded_fixture();
    let query = queries::standard_queries(corpus.taxonomy())
        .into_iter()
        .find(|q| q.name == "bird")
        .expect("standard query");
    let k = corpus.ground_truth(&query).len();
    for site in [qd_fault::site::SHARD_SCATTER, qd_fault::site::SHARD_MERGE] {
        let plan = FaultPlan::new(fault_seed()).site(site, Mode::Probability(0.5));
        let run = |threads: usize| {
            qd_fault::with_plan(&plan, || {
                qd_runtime::with_threads(threads, || {
                    let mut user = SimulatedUser::oracle(&query, 13);
                    let out = qd_core::session::try_run_session(
                        corpus,
                        rfs,
                        &query,
                        &mut user,
                        k,
                        &QdConfig::default(),
                    );
                    check_and_serialize(&out, k)
                })
            })
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one, eight, "site {site}: diverged between thread counts");
        assert_eq!(one, run(1), "site {site}: not reproducible run to run");
        assert!(
            !one.starts_with("error,"),
            "site {site}: shard chaos must degrade or complete, never error: {one}"
        );
    }
}
