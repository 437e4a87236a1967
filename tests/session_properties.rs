//! Property-based tests over whole QD sessions: for arbitrary user behavior
//! (seed, noise, patience) and session configuration, the protocol's
//! invariants must hold.

use proptest::prelude::*;
use qd_bench::BenchScale;
use query_decomposition::core::session::{run_feedback_rounds, FeedbackRounds};
use query_decomposition::index::{BudgetedKnn, KnnIndex, NodeId, Rect};
use query_decomposition::prelude::*;
use std::sync::{Arc, OnceLock};

#[path = "common/golden.rs"]
mod golden;
use golden::assert_matches_golden;

fn fixture() -> &'static (Corpus, RfsStructure) {
    static FIXTURE: OnceLock<(Corpus, RfsStructure)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = Corpus::build(&CorpusConfig {
            size: 400,
            image_size: 24,
            seed: 17,
            filler_count: 6,
            with_viewpoints: false,
        });
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn session_invariants_hold_for_arbitrary_users(
        query_idx in 0usize..11,
        user_seed in any::<u64>(),
        noise in 0.0f32..0.4,
        patience in prop::sample::select(vec![5usize, 21, 100, usize::MAX]),
        rounds in 1usize..5,
        threshold in 0.0f32..1.0,
    ) {
        let (corpus, rfs) = fixture();
        let query = &queries::standard_queries(corpus.taxonomy())[query_idx];
        let k = corpus.ground_truth(query).len();
        let cfg = QdConfig {
            rounds,
            boundary_threshold: threshold,
            seed: user_seed,
            ..QdConfig::default()
        };
        let mut user = SimulatedUser::oracle(query, user_seed)
            .with_noise(noise)
            .with_patience(patience);
        let out = session(corpus, rfs, query, &mut user, k, &cfg);

        // Results: bounded, valid, unique.
        prop_assert!(out.results.len() <= k);
        prop_assert!(out.results.iter().all(|&id| id < corpus.len()));
        let mut sorted = out.results.clone();
        sorted.sort_unstable();
        let before = sorted.len();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), before, "duplicate result ids");

        // Trace shape: one entry per round, precision only at the end (or
        // zero-filled after early death), metrics in range.
        prop_assert_eq!(out.round_trace.len(), rounds);
        for t in &out.round_trace {
            prop_assert!((0.0..=1.0).contains(&t.gtir));
            if let Some(p) = t.precision {
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }
        prop_assert!(out.round_trace[rounds - 1].precision.is_some());

        // Groups partition the results.
        let from_groups: usize = out.groups.iter().map(|g| g.images.len()).sum();
        prop_assert_eq!(from_groups, out.results.len());

        // Cost accounting is sane.
        prop_assert!(out.feedback_accesses >= 1);
        prop_assert_eq!(out.round_durations.len().min(rounds), out.round_durations.len());
        prop_assert!(out.subquery_count <= rfs.tree().node_count());
    }

    #[test]
    fn merge_strategies_agree_on_result_count_bounds(
        query_idx in 0usize..11,
        seed in any::<u64>(),
    ) {
        let (corpus, rfs) = fixture();
        let query = &queries::standard_queries(corpus.taxonomy())[query_idx];
        let k = corpus.ground_truth(query).len();
        for merge in [MergeStrategy::Proportional, MergeStrategy::Uniform] {
            let cfg = QdConfig { merge, seed, ..QdConfig::default() };
            let mut user = SimulatedUser::oracle(query, seed);
            let out = session(corpus, rfs, query, &mut user, k, &cfg);
            prop_assert!(out.results.len() <= k, "{merge:?}");
        }
    }

    #[test]
    fn group_ranking_scores_ascend(seed in any::<u64>()) {
        let (corpus, rfs) = fixture();
        let query = &queries::standard_queries(corpus.taxonomy())[2]; // bird
        let k = corpus.ground_truth(query).len();
        let cfg = QdConfig { seed, ..QdConfig::default() };
        let mut user = SimulatedUser::oracle(query, seed);
        let out = session(corpus, rfs, query, &mut user, k, &cfg);
        for w in out.groups.windows(2) {
            prop_assert!(w[0].ranking_score <= w[1].ranking_score);
        }
        for g in &out.groups {
            for w in g.images.windows(2) {
                prop_assert!(w[0].1 <= w[1].1, "images within a group must ascend by score");
            }
        }
    }
}

/// Everything deterministic about a served outcome (durations left out),
/// floats as raw bits.
fn fingerprint(served: &ServedOutcome) -> String {
    let o = served.outcome();
    let groups: Vec<String> = o
        .groups
        .iter()
        .map(|g| {
            let images: Vec<String> = g
                .images
                .iter()
                .map(|(id, d)| format!("{id}:{:08x}", d.to_bits()))
                .collect();
            format!(
                "{}@{:016x}[{}]",
                g.home.index(),
                g.ranking_score.to_bits(),
                images.join(",")
            )
        })
        .collect();
    format!(
        "results={:?} groups={groups:?} trace={:?} fb={} knn={} sub={} degradation={:?}",
        o.results,
        o.round_trace,
        o.feedback_accesses,
        o.knn_accesses,
        o.subquery_count,
        served.degradation()
    )
}

/// An `RStarTree` that is `!Sync` by construction and a [`KnnIndex`] by
/// delegation.
struct SerialOnly(RStarTree, std::marker::PhantomData<std::cell::Cell<()>>);

impl KnnIndex for SerialOnly {
    fn root(&self) -> NodeId {
        self.0.root()
    }
    fn dims(&self) -> usize {
        self.0.dims()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn node_ids(&self) -> impl IntoIterator<Item = NodeId> + '_ {
        self.0.node_ids()
    }
    fn contains_node(&self, n: NodeId) -> bool {
        self.0.contains_node(n)
    }
    fn level(&self, n: NodeId) -> u32 {
        self.0.level(n)
    }
    fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.0.parent(n)
    }
    fn node_rect(&self, n: NodeId) -> Option<&Rect> {
        self.0.node_rect(n)
    }
    fn children(&self, n: NodeId) -> impl IntoIterator<Item = NodeId> + '_ {
        self.0.children(n)
    }
    fn leaf_ids(
        &self,
        n: NodeId,
    ) -> impl IntoIterator<Item = u64, IntoIter: ExactSizeIterator> + '_ {
        self.0.leaf_ids(n)
    }
    fn leaf_items(
        &self,
        n: NodeId,
    ) -> impl IntoIterator<Item = (u64, &[f32]), IntoIter: ExactSizeIterator> + '_ {
        self.0.leaf_items(n)
    }
    fn knn_in_budgeted(
        &self,
        scope: NodeId,
        query: &[f32],
        k: usize,
        budget: Option<u64>,
    ) -> BudgetedKnn {
        self.0.knn_in_budgeted(scope, query, k, budget)
    }
    fn check_invariants(&self) -> Result<(), String> {
        self.0.check_invariants()
    }
    fn take_touched(&mut self) -> Vec<NodeId> {
        self.0.take_touched()
    }
}

/// Serial by type: the session path and the serve loop run over an index
/// that cannot be shared between threads, so this compiles only while no
/// thread fan-out is reachable from `try_run_session` or `Server::run` —
/// and the outcome is the bare tree's, whatever worker count the caller
/// asked for.
#[test]
fn a_non_sync_index_serves_the_same_sessions() {
    let (corpus, rfs) = fixture();
    let serial = RfsStructure::from_parts(
        SerialOnly(rfs.tree().clone(), std::marker::PhantomData),
        rfs.reps_map().clone(),
    )
    .expect("the same tree under the same representatives");
    for (name, budget) in [("bird", None), ("rose", Some(200)), ("car", Some(0))] {
        let query = queries::standard_queries(corpus.taxonomy())
            .into_iter()
            .find(|q| q.name == name)
            .expect("standard query");
        let k = corpus.ground_truth(&query).len();
        let cfg = QdConfig {
            distance_budget: budget,
            ..QdConfig::default()
        };
        let bare = {
            let mut user = SimulatedUser::oracle(&query, 5);
            try_run_session(corpus, rfs, &query, &mut user, k, &cfg).expect("bare tree")
        };
        for workers in [1, 8] {
            let mut user = SimulatedUser::oracle(&query, 5);
            let served = qd_runtime::with_threads(workers, || {
                try_run_session(corpus, &serial, &query, &mut user, k, &cfg)
            })
            .expect("non-Sync index");
            assert_eq!(
                fingerprint(&served),
                fingerprint(&bare),
                "{name} at {workers} workers"
            );
        }
    }
    // The serve loop too: every tenant's fingerprint is the one the bare
    // tree's server gives it.
    let shared_corpus = Arc::new(corpus.clone());
    let plan = LoadPlan::generate(
        corpus,
        &LoadConfig {
            users: 6,
            ..LoadConfig::default()
        },
    );
    let bare = Server::new(
        shared_corpus.clone(),
        Arc::new(rfs.clone()),
        ServeConfig::default(),
    );
    #[expect(
        clippy::arc_with_non_send_sync,
        reason = "`Server` shares its snapshot by `Arc`; this one is `!Sync` on purpose"
    )]
    let serial = Arc::new(serial);
    let serial = Server::new(shared_corpus, serial, ServeConfig::default());
    let fingerprints = |report: ServeReport| -> Vec<String> {
        report.sessions.iter().map(|s| s.fingerprint()).collect()
    };
    for workers in [1, 8] {
        let (bare_run, serial_run) =
            qd_runtime::with_threads(workers, || (bare.run(&plan), serial.run(&plan)));
        assert_eq!(
            fingerprints(serial_run),
            fingerprints(bare_run),
            "served at {workers} workers"
        );
    }
}

/// Serial by type, build side: representative selection runs on the calling
/// thread, so a `!Sync` index goes through `build_on` and
/// `rebuild_with_refresh` — and each gives what the same `RStarTree` gives.
#[test]
fn a_non_sync_index_builds_and_refreshes_the_same_structure() {
    let (corpus, rfs) = fixture();
    let features = corpus.features();
    let config = RfsConfig::test_small();
    let serial = |tree: &RStarTree| SerialOnly(tree.clone(), std::marker::PhantomData);
    let mut built = qd_runtime::with_threads(8, || {
        RfsStructure::build_on(serial(rfs.tree()), features, &config)
    });
    assert_eq!(built.reps_map(), rfs.reps_map());
    // One image out, then back in: every refresh matches the bare tree's.
    let (mut tree, mut bare) = (rfs.tree().clone(), rfs.clone());
    let id = 7;
    for insert in [false, true] {
        if insert {
            tree.insert(features[id].clone(), id as u64);
        } else {
            assert!(tree.remove(&features[id], id as u64));
        }
        bare = bare.rebuild_with_refresh(tree.clone(), features, &config);
        built = qd_runtime::with_threads(8, || {
            built.rebuild_with_refresh(serial(&tree), features, &config)
        });
        assert_eq!(built.reps_map(), bare.reps_map(), "insert {insert}");
        for image in 0..features.len() {
            assert_eq!(built.leaf_of(image), bare.leaf_of(image), "image {image}");
        }
    }
}

/// FNV-1a-64 over `ids`, each as a little-endian `u64`.
fn fnv1a64(ids: &[usize]) -> u64 {
    ids.iter()
        .flat_map(|&id| (id as u64).to_le_bytes())
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// One golden line per feedback phase: the final marks, every round's
/// snapshot as `length:digest`, the node reads and the skipped displays.
fn feedback_line(label: &str, rounds: &FeedbackRounds) -> String {
    let snaps: Vec<String> = rounds
        .snapshots()
        .map(|s| format!("{}:{:016x}", s.len(), fnv1a64(s)))
        .collect();
    let marks: Vec<String> = rounds
        .final_marks
        .iter()
        .map(|(node, ids)| format!("{}{ids:?}", node.index()))
        .collect();
    format!(
        "{label} accesses={} skipped={} snapshots=[{}] marks=[{}]\n",
        rounds.feedback_accesses,
        rounds.displays_skipped,
        snaps.join(","),
        marks.join(";")
    )
}

/// The feedback phase for every kind of user the repo simulates, pinned on
/// the `repro --json` corpus (Tiny, seed 42): the eleven standard queries ×
/// three seeds × an oracle, two noise rates (0.35 is qd-serve's
/// `ContradictoryMarks` tenant), a ten-image patience bound, and an intent
/// drift to the next query after five judgments. Every noise draw, the
/// drift switch point and the patience cut reach a line of
/// `tests/golden/feedback_phase.txt` (three seeds, so that a drift switched
/// one judgment late lands on a label the two intents disagree on).
/// Regenerate only with `QD_UPDATE_GOLDEN=1`, and only for a change meant to
/// alter what a user marks.
#[test]
fn feedback_phase_matches_golden() {
    let corpus = qd_bench::bench_corpus(BenchScale::Tiny, 42);
    let rfs = qd_bench::bench_rfs(BenchScale::Tiny, 42);
    let queries = queries::standard_queries(corpus.taxonomy());
    let mut actual = String::new();
    for (i, query) in queries.iter().enumerate() {
        let other = &queries[(i + 1) % queries.len()];
        for seed in [100, 200, 300].map(|s| s + i as u64) {
            let cfg = QdConfig {
                seed,
                ..QdConfig::default()
            };
            let users = [
                ("oracle", SimulatedUser::oracle(query, seed)),
                (
                    "noise0.1",
                    SimulatedUser::oracle(query, seed).with_noise(0.1),
                ),
                (
                    "noise0.35",
                    SimulatedUser::oracle(query, seed).with_noise(0.35),
                ),
                (
                    "patience10",
                    SimulatedUser::oracle(query, seed).with_patience(10),
                ),
                (
                    "drift5",
                    SimulatedUser::oracle(query, seed).with_drift(other, 5),
                ),
            ];
            for (kind, mut user) in users {
                let rounds = run_feedback_rounds(&*rfs, corpus.labels(), &mut user, &cfg);
                let label = format!("{}/{kind}/seed{seed}", query.name);
                actual.push_str(&feedback_line(&label, &rounds));
            }
        }
    }
    assert_matches_golden("feedback_phase.txt", &actual);
}

/// The subquery-panic chaos case: one subquery's worker dies, exactly that
/// subquery is dropped, and the degraded answer does not depend on the
/// worker count.
#[test]
fn one_panicking_subquery_is_dropped_at_any_worker_count() {
    let (corpus, rfs) = fixture();
    let query = queries::standard_queries(corpus.taxonomy())
        .into_iter()
        .find(|q| q.name == "bird")
        .expect("standard query");
    let k = corpus.ground_truth(&query).len();
    let cfg = QdConfig::default();
    let plan = qd_fault::FaultPlan::new(7).site(
        qd_fault::site::SESSION_SUBQUERY_PANIC,
        qd_fault::Mode::Once(0),
    );
    let run = |workers: usize| {
        let mut user = SimulatedUser::oracle(&query, 5);
        qd_fault::with_plan(&plan, || {
            qd_runtime::with_threads(workers, || {
                try_run_session(corpus, rfs, &query, &mut user, k, &cfg)
            })
        })
        .expect("the other subqueries still answer")
    };
    let one = run(1);
    let report = one.degradation().expect("a dropped subquery degrades");
    assert_eq!(report.subqueries_dropped, 1);
    assert!(one.outcome().subquery_count >= 1);
    assert_eq!(fingerprint(&one), fingerprint(&run(8)));
}
