//! Parallel ≡ sequential property suite for the qd-runtime wiring.
//!
//! Four places fan out over the qd-runtime pool: the corpus build (per
//! image), the shard builds (per shard), and the per-query loops of the
//! evaluation tables and of `repro`'s baseline shoot-out (the last is pinned
//! by a unit test in `qd-bench`). Each must produce *bit-identical* output
//! whatever the worker count. These properties pin that contract: each
//! scenario runs once under a forced single thread and once under eight
//! workers, and every observable (row order, precision and GTIR down to the
//! bit, file bytes) must match exactly. The session path has no fan-out at
//! all: `session_properties`' `!Sync` index proves that by type.

use proptest::prelude::*;
use query_decomposition::core::baselines::BaselineConfig;
use query_decomposition::core::eval::{self, Baseline};
use query_decomposition::core::rfs::{RfsConfig, RfsStructure};
use query_decomposition::core::session::QdConfig;
use query_decomposition::corpus::cache;
use query_decomposition::prelude::{build_sharded_rfs, Corpus, CorpusConfig, ShardConfig};
use query_decomposition::shard::persist;
use std::sync::OnceLock;

fn fixture() -> &'static (Corpus, RfsStructure) {
    static FIXTURE: OnceLock<(Corpus, RfsStructure)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = Corpus::build(&CorpusConfig {
            size: 400,
            image_size: 24,
            seed: 23,
            filler_count: 6,
            with_viewpoints: true,
        });
        let rfs = RfsStructure::build(corpus.features(), &RfsConfig::test_small());
        (corpus, rfs)
    })
}

/// Runs `f` once on a single thread and once on eight workers.
fn both_modes<R>(f: impl Fn() -> R) -> (R, R) {
    let sequential = qd_runtime::with_threads(1, &f);
    let parallel = qd_runtime::with_threads(8, &f);
    (sequential, parallel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Build layer, corpus: every image renders and extracts from its own
    /// RNG stream, so the corpus file is byte-identical under 1 and 8
    /// workers, viewpoint features and normalizers included.
    #[test]
    fn corpus_build_is_thread_count_invariant(seed in any::<u64>()) {
        let config = CorpusConfig {
            size: 90,
            image_size: 16,
            seed,
            filler_count: 2,
            with_viewpoints: true,
        };
        let (seq, par) = both_modes(|| cache::to_bytes(&Corpus::build(&config)));
        prop_assert!(seq == par, "corpus bytes diverge");
    }

    /// Build layer, shards: one R*-tree per shard, built on its own worker,
    /// gives the same QDS1 bytes under 1 and 8 workers.
    #[test]
    fn shard_build_is_thread_count_invariant(seed in any::<u64>(), shards in 2usize..6) {
        let (corpus, _) = fixture();
        let (seq, par) = both_modes(|| {
            persist::to_bytes(&build_sharded_rfs(
                corpus.features(),
                &RfsConfig::test_small(),
                ShardConfig::new(shards, seed),
            ))
        });
        prop_assert!(seq == par, "sharded RFS bytes diverge");
    }

    /// Harness layer: Table 1 and Table 2 rows (the CSV payload) are
    /// identical — every float bit-for-bit — under 1 and 8 workers.
    #[test]
    fn eval_tables_are_thread_count_invariant(seed in any::<u64>()) {
        let (corpus, rfs) = fixture();
        let qd_cfg = QdConfig { seed, ..QdConfig::default() };
        let baseline_cfg = BaselineConfig { seed, ..BaselineConfig::default() };
        let (seq1, par1) = both_modes(|| {
            eval::run_table1(corpus, rfs, Baseline::MultipleViewpoints, &qd_cfg, &baseline_cfg)
                .expect("well-formed sessions")
        });
        prop_assert_eq!(seq1.len(), par1.len());
        for (a, b) in seq1.iter().zip(&par1) {
            prop_assert_eq!(&a.query, &b.query, "row order diverges");
            prop_assert_eq!(a.baseline_precision.to_bits(), b.baseline_precision.to_bits());
            prop_assert_eq!(a.baseline_gtir.to_bits(), b.baseline_gtir.to_bits());
            prop_assert_eq!(a.qd_precision.to_bits(), b.qd_precision.to_bits());
            prop_assert_eq!(a.qd_gtir.to_bits(), b.qd_gtir.to_bits());
        }
        let (seq2, par2) = both_modes(|| {
            eval::run_table2(corpus, rfs, Baseline::MultipleViewpoints, &qd_cfg, &baseline_cfg)
                .expect("well-formed sessions")
        });
        prop_assert_eq!(seq2.len(), par2.len());
        for (a, b) in seq2.iter().zip(&par2) {
            prop_assert_eq!(a.round, b.round);
            prop_assert_eq!(a.baseline_precision.to_bits(), b.baseline_precision.to_bits());
            prop_assert_eq!(a.baseline_gtir.to_bits(), b.baseline_gtir.to_bits());
            prop_assert_eq!(a.qd_precision, b.qd_precision);
            prop_assert_eq!(a.qd_gtir.to_bits(), b.qd_gtir.to_bits());
        }
    }
}

// ----------------------------------------------------------------------
// NaN-score regression (rule R1's migration to `total_cmp`).
//
// Before the migration, a NaN similarity score either panicked the merge
// (`partial_cmp(..).unwrap()`) or — worse for the paper's Table 1/2 numbers —
// silently produced a ranking that depended on the incoming order
// (`unwrap_or(Ordering::Equal)` makes NaN compare Equal to everything, so a
// stable sort leaves it wherever it happens to sit). `total_cmp` gives NaN a
// fixed place in the order: positive NaN after every finite float.
// ----------------------------------------------------------------------

mod nan_regression {
    use query_decomposition::core::localknn::LocalResult;
    use query_decomposition::core::ranking::{
        flatten_groups, merge_local_results, merge_single_list,
    };
    use query_decomposition::index::{Neighbor, NodeId, RStarTree, TreeConfig};
    use std::sync::OnceLock;

    /// Stable node ids for hand-built `LocalResult`s (NodeId has no public
    /// constructor).
    fn scratch_node(i: usize) -> NodeId {
        static TREE: OnceLock<RStarTree> = OnceLock::new();
        let tree = TREE.get_or_init(|| {
            let items = (0..200u64).map(|id| (id, vec![id as f32, 0.0])).collect();
            RStarTree::bulk_load(TreeConfig::small(2), items)
        });
        tree.node_ids()
            .nth(i % tree.node_count())
            .expect("index below the node count")
    }

    fn local(home: usize, support: usize, neighbors: &[(u64, f32)]) -> LocalResult {
        LocalResult {
            home: scratch_node(home),
            scope: scratch_node(home),
            neighbors: neighbors
                .iter()
                .map(|&(id, distance)| Neighbor { id, distance })
                .collect(),
            support,
            accesses: 0,
            distance_computations: 0,
            nodes_skipped: 0,
            legs_dropped: 0,
            exhausted: false,
        }
    }

    /// Two subqueries where one candidate carries a NaN score: the merge
    /// must not panic, NaN must rank strictly after every finite score, and
    /// repeated runs must agree exactly.
    #[test]
    fn nan_scores_neither_panic_nor_reorder_the_merge() {
        let a = local(0, 2, &[(0, 0.1), (1, f32::NAN), (2, 0.3), (3, 0.4)]);
        let b = local(1, 2, &[(10, 0.15), (11, 0.25), (12, f32::NAN), (13, 0.45)]);
        let run = || merge_local_results(&[a.clone(), b.clone()], 8);
        let groups = run();
        assert_eq!(flatten_groups(&groups).len(), 8);
        for g in &groups {
            // Within a group, every finite score precedes the NaN.
            let scores: Vec<f32> = g.images.iter().map(|&(_, s)| s).collect();
            if let Some(nan_pos) = scores.iter().position(|s| s.is_nan()) {
                assert!(
                    scores[..nan_pos].iter().all(|s| !s.is_nan()),
                    "NaN not sorted to the end of its group: {scores:?}"
                );
                assert_eq!(nan_pos, scores.len() - 1, "NaN before finite: {scores:?}");
            }
        }
        // Determinism: identical output on every run, scores bit-for-bit.
        let again = run();
        assert_eq!(flatten_groups(&groups), flatten_groups(&again));
        for (ga, gb) in groups.iter().zip(&again) {
            for (&(ia, sa), &(ib, sb)) in ga.images.iter().zip(&gb.images) {
                assert_eq!(ia, ib);
                assert_eq!(sa.to_bits(), sb.to_bits());
            }
        }
    }

    /// The single-list merge (§3.4 alternative) under NaN: no panic, NaN
    /// candidates rank last, and the input order of subqueries does not
    /// change the ranking.
    #[test]
    fn nan_scores_are_stable_in_single_list_merge() {
        let a = local(0, 1, &[(0, f32::NAN), (1, 0.2), (2, 0.3)]);
        let b = local(1, 1, &[(10, 0.1), (11, 0.4)]);
        let forward = merge_single_list(&[a.clone(), b.clone()], 5);
        let backward = merge_single_list(&[b, a], 5);
        assert_eq!(forward.len(), 5);
        assert_eq!(
            forward.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            backward.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            "subquery input order leaked into the NaN ranking"
        );
        let ids: Vec<usize> = forward.iter().map(|&(id, _)| id).collect();
        assert_eq!(&ids[..4], &[10, 1, 2, 11], "finite scores rank first");
        assert!(forward[4].1.is_nan(), "NaN candidate must rank last");
    }

    /// A full group whose every score is NaN still merges deterministically
    /// and is ordered after finite-scored groups (NaN ranking_score sums
    /// sort last under total_cmp).
    #[test]
    fn all_nan_group_ranks_after_finite_groups() {
        let nan_group = local(0, 1, &[(0, f32::NAN), (1, f32::NAN)]);
        let fine_group = local(1, 1, &[(10, 0.1), (11, 0.2)]);
        let groups = merge_local_results(&[nan_group, fine_group], 4);
        assert_eq!(groups.len(), 2);
        assert!(groups[0].ranking_score.is_finite());
        assert!(groups[1].ranking_score.is_nan());
        assert_eq!(groups[0].images[0].0, 10);
    }
}
