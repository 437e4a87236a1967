//! End-to-end integration: synthetic rendering → 37-d feature extraction →
//! RFS construction → multi-round QD sessions → metrics, spanning every
//! crate in the workspace.

use query_decomposition::prelude::*;
use std::sync::OnceLock;

fn fixture() -> &'static (Corpus, RfsStructure) {
    static FIXTURE: OnceLock<(Corpus, RfsStructure)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = Corpus::build(&CorpusConfig::test_small(42));
        let rfs = RfsStructure::build(corpus.features(), &RfsConfig::test_small());
        (corpus, rfs)
    })
}

/// One QD session over a well-formed fixture, whatever its service level.
fn session(
    corpus: &Corpus,
    rfs: &RfsStructure,
    query: &QuerySpec,
    user: &mut SimulatedUser,
    k: usize,
    cfg: &QdConfig,
) -> QdOutcome {
    try_run_session(corpus, rfs, query, user, k, cfg)
        .expect("well-formed session")
        .into_outcome()
}

fn standard_query(name: &str) -> QuerySpec {
    let (corpus, _) = fixture();
    queries::standard_queries(corpus.taxonomy())
        .into_iter()
        .find(|q| q.name == name)
        .expect("standard query")
}

#[test]
fn full_pipeline_produces_grouped_multi_cluster_results() {
    let (corpus, rfs) = fixture();
    let query = standard_query("bird");
    let k = corpus.ground_truth(&query).len();
    let mut user = SimulatedUser::oracle(&query, 11);
    let out = session(corpus, rfs, &query, &mut user, k, &QdConfig::default());

    assert!(!out.results.is_empty());
    assert!(out.subquery_count >= 2, "no decomposition happened");
    assert!(out.groups.len() >= 2);
    // Result ids are valid and unique.
    let mut ids = out.results.clone();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(ids.len(), before);
    assert!(ids.iter().all(|&id| id < corpus.len()));
    // Quality clears the random-retrieval bar by a wide margin.
    let p = precision(corpus, &query, &out.results);
    assert!(p > 3.0 * k as f64 / corpus.len() as f64, "precision {p}");
    assert!(gtir(corpus, &query, &out.results) >= 2.0 / 3.0);
}

#[test]
fn whole_experiment_is_deterministic_end_to_end() {
    // Two corpora built from the same config are identical, and sessions on
    // them produce identical results.
    let corpus_a = Corpus::build(&CorpusConfig {
        size: 200,
        image_size: 24,
        seed: 9,
        filler_count: 3,
        with_viewpoints: false,
    });
    let corpus_b = Corpus::build(&CorpusConfig {
        size: 200,
        image_size: 24,
        seed: 9,
        filler_count: 3,
        with_viewpoints: false,
    });
    assert_eq!(corpus_a.features(), corpus_b.features());

    let rfs_a = RfsStructure::build(corpus_a.features(), &RfsConfig::test_small());
    let rfs_b = RfsStructure::build(corpus_b.features(), &RfsConfig::test_small());
    let query = queries::standard_queries(corpus_a.taxonomy())
        .into_iter()
        .find(|q| q.name == "rose")
        .unwrap();
    let k = corpus_a.ground_truth(&query).len();
    let mut user_a = SimulatedUser::oracle(&query, 3);
    let mut user_b = SimulatedUser::oracle(&query, 3);
    let out_a = session(
        &corpus_a,
        &rfs_a,
        &query,
        &mut user_a,
        k,
        &QdConfig::default(),
    );
    let out_b = session(
        &corpus_b,
        &rfs_b,
        &query,
        &mut user_b,
        k,
        &QdConfig::default(),
    );
    assert_eq!(out_a.results, out_b.results);
}

#[test]
fn qd_covers_more_subconcepts_than_every_baseline() {
    let (corpus, rfs) = fixture();
    let query = standard_query("a person"); // three scattered subconcepts
    let k = corpus.ground_truth(&query).len();

    let mut qd_user = SimulatedUser::oracle(&query, 5);
    let qd = session(corpus, rfs, &query, &mut qd_user, k, &QdConfig::default());
    let qd_gtir = gtir(corpus, &query, &qd.results);

    for baseline in [
        Baseline::MultipleViewpoints,
        Baseline::QueryPointMovement,
        Baseline::MultipointQuery,
        Baseline::Qcluster,
    ] {
        let mut user = SimulatedUser::oracle(&query, 5);
        let out = baseline.run(corpus, &query, &mut user, k, &BaselineConfig::default());
        let b_gtir = gtir(corpus, &query, &out.results);
        assert!(
            qd_gtir >= b_gtir,
            "{} GTIR {b_gtir} beat QD {qd_gtir}",
            baseline.name()
        );
    }
    assert!(qd_gtir >= 2.0 / 3.0, "QD GTIR {qd_gtir}");
}

#[test]
fn noisy_user_degrades_gracefully() {
    let (corpus, rfs) = fixture();
    let query = standard_query("car");
    let k = corpus.ground_truth(&query).len();

    let mut clean_user = SimulatedUser::oracle(&query, 2);
    let clean = session(
        corpus,
        rfs,
        &query,
        &mut clean_user,
        k,
        &QdConfig::default(),
    );
    let mut noisy_user = SimulatedUser::oracle(&query, 2).with_noise(0.3);
    let noisy = session(
        corpus,
        rfs,
        &query,
        &mut noisy_user,
        k,
        &QdConfig::default(),
    );

    // Noise may hurt but must not crash or hang, and the clean run should be
    // at least as good.
    let p_clean = precision(corpus, &query, &clean.results);
    let p_noisy = precision(corpus, &query, &noisy.results);
    assert!(
        p_clean >= p_noisy - 0.1,
        "clean {p_clean} vs noisy {p_noisy}"
    );
}

#[test]
fn impatient_user_limits_coverage_but_not_correctness() {
    let (corpus, rfs) = fixture();
    let query = standard_query("computer");
    let k = corpus.ground_truth(&query).len();
    let mut user = SimulatedUser::oracle(&query, 4).with_patience(10);
    let out = session(corpus, rfs, &query, &mut user, k, &QdConfig::default());
    // With only 10 inspected images per display the user may miss groups,
    // but everything returned is still a valid image and within k.
    assert!(out.results.len() <= k);
    assert!(out.results.iter().all(|&id| id < corpus.len()));
}

#[test]
fn feedback_cost_stays_far_below_database_scans() {
    let (corpus, rfs) = fixture();
    let query = standard_query("horse");
    let k = corpus.ground_truth(&query).len();
    let mut user = SimulatedUser::oracle(&query, 6);
    let out = session(corpus, rfs, &query, &mut user, k, &QdConfig::default());
    // §5.2.2: feedback processing reads a handful of RFS nodes, and the
    // final localized k-NN touches only a few neighborhoods — all far below
    // one node access per database image.
    assert!((out.feedback_accesses as usize) < corpus.len() / 10);
    assert!((out.knn_accesses as usize) < rfs.tree().node_count());
}

#[test]
fn rstar_and_bulk_built_rfs_both_serve_sessions() {
    let (corpus, _) = fixture();
    let query = standard_query("rose");
    let k = corpus.ground_truth(&query).len();
    for bulk in [false, true] {
        let cfg = RfsConfig {
            bulk_load: bulk,
            ..RfsConfig::test_small()
        };
        let rfs = RfsStructure::build(corpus.features(), &cfg);
        rfs.tree().validate();
        let mut user = SimulatedUser::oracle(&query, 8);
        let out = session(corpus, &rfs, &query, &mut user, k, &QdConfig::default());
        assert!(out.results.len() <= k);
    }
}

#[test]
fn table_runners_work_across_crates() {
    use query_decomposition::core::eval;
    let (corpus, rfs) = fixture();
    let rows = eval::run_table1(
        corpus,
        rfs,
        Baseline::MultipleViewpoints,
        &QdConfig::default(),
        &BaselineConfig::default(),
    )
    .unwrap();
    assert_eq!(rows.len(), 11);
    let avg = eval::average_row(&rows);
    assert!(avg.qd_gtir > 0.8);

    let rounds = eval::run_table2(
        corpus,
        rfs,
        Baseline::MultipleViewpoints,
        &QdConfig::default(),
        &BaselineConfig::default(),
    )
    .unwrap();
    assert_eq!(rounds.len(), 3);
    assert!(rounds[2].qd_precision.is_some());
}
