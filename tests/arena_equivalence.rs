//! Arena-equivalence harness (the standing gate behind the arena refactor).
//!
//! The R\*-tree's node storage moved from per-node `BTreeMap` entries to a
//! flat arena with a contiguous SoA feature block, and `knn_in_budgeted`
//! gained a norm-based lower-bound prune. The differential phase of that
//! refactor compared the arena against the pre-arena tree (`qd_index::legacy`)
//! live in this suite; that reference implementation has since been retired,
//! and the behaviors it vouched for are pinned as golden snapshots captured
//! from the equivalence runs (regenerate with `QD_UPDATE_GOLDEN=1` — any
//! diff is a behavior change that needs the same scrutiny the legacy
//! differential would have given it):
//!
//! 1. **Structure** (`tests/golden/arena_structure*.txt`): `NodeId`
//!    assignment, levels, child order, rectangles (bit-for-bit), leaf
//!    contents, representative lists, and `leaf_of` maps — for both the
//!    incremental-insert and bulk-load builds.
//! 2. **Sessions** (`tests/golden/arena_sessions.txt`): bit-identical
//!    `ServedOutcome`s, observability counters, span trees, and degradation
//!    reports across the full `distance_budget` sweep including 0 and
//!    `u64::MAX`. Thread-count equivalence (1 vs 8 workers) and chaos-plan
//!    determinism stay *live* assertions — the CI chaos job reruns this
//!    suite under eight `QD_FAULT_SEED`s, which a seed-dependent golden
//!    could not cover.
//! 3. **Pruning** (`tests/golden/arena_knn_sweep.txt`): the pruned budgeted
//!    k-NN's full id/score/accounting sweep, plus live invariants: pruning
//!    savings are visible only in `distances_pruned`, never in the budget
//!    charge or ranking.
//! 4. **Arena invariants**: child/sibling links always resolve to live
//!    in-bounds nodes, root traversal visits every live node exactly once,
//!    `leaf_of` is consistent with the set of live leaves, and the SoA
//!    feature block stays exactly `dims × stored points` under churn.

use qd_fault::{FaultPlan, Mode};
use query_decomposition::index::KnnIndex;
use query_decomposition::obs;
use query_decomposition::prelude::*;
use std::fmt::Write as _;
use std::sync::OnceLock;

#[path = "common/golden.rs"]
mod golden;
use golden::assert_matches_golden;

type ArenaRfs = RfsStructure<RStarTree>;

/// Shared fixture: the `fault_properties.rs` corpus plus the RFS structure.
fn fixture() -> &'static (Corpus, ArenaRfs) {
    static FIXTURE: OnceLock<(Corpus, ArenaRfs)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = Corpus::build(&CorpusConfig {
            size: 300,
            image_size: 24,
            seed: 23,
            filler_count: 5,
            with_viewpoints: false,
        });
        let cfg = RfsConfig::test_small();
        let arena = ArenaRfs::build(corpus.features(), &cfg);
        (corpus, arena)
    })
}

/// The chaos seed: `QD_FAULT_SEED` when set (CI runs eight), 0 otherwise.
fn fault_seed() -> u64 {
    std::env::var(qd_fault::FAULT_SEED_ENV)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The distance-budget sweep: both degenerate ends plus a spread that
/// exercises mid-scan exhaustion.
const BUDGETS: [Option<u64>; 7] = [
    None,
    Some(0),
    Some(1),
    Some(10),
    Some(200),
    Some(5000),
    Some(u64::MAX),
];

fn f32_bits(v: &[f32]) -> String {
    v.iter()
        .map(|x| format!("{:08x}", x.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

/// Serializes everything the RFS exposes about its tree — every bit of it
/// is pinned by the structure goldens.
fn serialize_structure<I: KnnIndex>(rfs: &RfsStructure<I>, corpus_len: usize) -> String {
    let t = rfs.tree();
    let mut s = String::new();
    writeln!(
        s,
        "len={} dims={} height={} nodes={} root={}",
        t.len(),
        t.dims(),
        t.height(),
        t.node_count(),
        t.root().index()
    )
    .unwrap();
    let mut ids: Vec<_> = t.node_ids().into_iter().collect();
    ids.sort_unstable_by_key(|n| n.index());
    for n in ids {
        let rect = match t.node_rect(n) {
            Some(r) => format!("{}|{}", f32_bits(r.min()), f32_bits(r.max())),
            None => "-".to_string(),
        };
        let children: Vec<String> = t
            .children(n)
            .into_iter()
            .map(|c| c.index().to_string())
            .collect();
        let items: Vec<String> = t
            .leaf_items(n)
            .into_iter()
            .map(|(id, p)| format!("{id}:{}", f32_bits(p)))
            .collect();
        let reps: Vec<String> = rfs
            .representatives(n)
            .iter()
            .map(|r| r.to_string())
            .collect();
        writeln!(
            s,
            "node={} level={} parent={} subtree_len={} rect={} children=[{}] items=[{}] reps=[{}]",
            n.index(),
            t.level(n),
            t.parent(n)
                .map_or("-".to_string(), |p| p.index().to_string()),
            t.subtree_len(n),
            rect,
            children.join(","),
            items.join(";"),
            reps.join(",")
        )
        .unwrap();
    }
    for image in 0..corpus_len {
        writeln!(s, "leaf_of {image}={}", rfs.leaf_of(image).unwrap().index()).unwrap();
    }
    s
}

/// Gate 1: both build paths reproduce the structures captured from the
/// legacy-differential runs, bit for bit.
#[test]
fn arena_structures_match_goldens() {
    let (corpus, arena) = fixture();
    arena.validate();
    assert_matches_golden(
        "arena_structure.txt",
        &serialize_structure(arena, corpus.len()),
    );

    let bulk_cfg = RfsConfig {
        bulk_load: true,
        ..RfsConfig::test_small()
    };
    let bulk = ArenaRfs::build(corpus.features(), &bulk_cfg);
    bulk.validate();
    assert_matches_golden(
        "arena_structure_bulk.txt",
        &serialize_structure(&bulk, corpus.len()),
    );
}

fn standard_query(name: &str) -> QuerySpec {
    let (corpus, _) = fixture();
    queries::standard_queries(corpus.taxonomy())
        .into_iter()
        .find(|q| q.name == name)
        .expect("standard query")
}

/// Serializes a served session (or its typed error) deterministically,
/// excluding wall-clock fields; floats are raw bits.
fn serialize_session(outcome: &Result<ServedOutcome, QdError>) -> String {
    let mut s = String::new();
    let served = match outcome {
        Ok(served) => served,
        Err(e) => return format!("error {e}\n"),
    };
    let o = served.outcome();
    writeln!(
        s,
        "kind={}",
        match served {
            ServedOutcome::Complete(_) => "complete",
            ServedOutcome::Degraded { .. } => "degraded",
        }
    )
    .unwrap();
    let results: Vec<String> = o.results.iter().map(|id| id.to_string()).collect();
    writeln!(s, "results=[{}]", results.join(",")).unwrap();
    for g in &o.groups {
        let images: Vec<String> = g
            .images
            .iter()
            .map(|(id, d)| format!("{id}:{:08x}", d.to_bits()))
            .collect();
        writeln!(
            s,
            "group home={} score={:016x} images=[{}]",
            g.home.index(),
            g.ranking_score.to_bits(),
            images.join(",")
        )
        .unwrap();
    }
    for r in &o.round_trace {
        let p = match r.precision {
            Some(p) => format!("{:016x}", p.to_bits()),
            None => "-".to_string(),
        };
        writeln!(
            s,
            "round={} precision={p} gtir={:016x}",
            r.round,
            r.gtir.to_bits()
        )
        .unwrap();
    }
    writeln!(
        s,
        "feedback_accesses={} knn_accesses={} subquery_count={}",
        o.feedback_accesses, o.knn_accesses, o.subquery_count
    )
    .unwrap();
    match served.degradation() {
        None => writeln!(s, "degradation=-").unwrap(),
        Some(d) => writeln!(
            s,
            "degradation budget_spent={} nodes_skipped={} subqueries_dropped={} displays_skipped={}",
            d.budget_spent, d.nodes_skipped, d.subqueries_dropped, d.displays_skipped
        )
        .unwrap(),
    }
    s
}

/// One observed session: serialized outcome, the full counter ledger, and
/// the span tree.
fn observed_session(
    corpus: &Corpus,
    rfs: &ArenaRfs,
    query_name: &str,
    cfg: &QdConfig,
    workers: usize,
) -> String {
    let query = standard_query(query_name);
    let k = corpus.ground_truth(&query).len();
    let (outcome, trace) = obs::with_recorder(|| {
        qd_runtime::with_threads(workers, || {
            let mut user = SimulatedUser::oracle(&query, 13);
            qd_core::session::try_run_session(corpus, rfs, &query, &mut user, k, cfg)
        })
    });
    let mut s = serialize_session(&outcome);
    for (name, value) in &trace.counters {
        writeln!(s, "counter {name}={value}").unwrap();
    }
    s.push_str(&trace.render());
    s
}

/// Gate 2: sessions across the whole budget sweep. The fault-free sweep is
/// pinned bit-for-bit by the golden (it is seed-independent: an unarmed
/// `FaultPlan` makes no fault decisions); thread-count equivalence and the
/// chaos plan stay live, asserted per active `QD_FAULT_SEED`.
#[test]
fn sessions_match_golden_and_stay_thread_and_chaos_invariant() {
    let (corpus, arena) = fixture();
    let seed = fault_seed();
    let plans = [
        FaultPlan::new(seed), // no faults armed
        FaultPlan::new(seed).all_sites(Mode::Probability(0.4)),
    ];
    let mut fault_free = String::new();
    for budget in BUDGETS {
        let cfg = QdConfig {
            distance_budget: budget,
            ..QdConfig::default()
        };
        for query in ["bird", "rose"] {
            for (pi, plan) in plans.iter().enumerate() {
                let mut lines = Vec::new();
                for workers in [1usize, 8] {
                    lines.push(qd_fault::with_plan(plan, || {
                        observed_session(corpus, arena, query, &cfg, workers)
                    }));
                }
                assert_eq!(
                    lines[0], lines[1],
                    "thread count left a fingerprint (query={query}, budget={budget:?}, \
                     plan={pi}, seed={seed})"
                );
                if pi == 0 {
                    writeln!(fault_free, "=== query={query} budget={budget:?}").unwrap();
                    fault_free.push_str(&lines[0]);
                }
            }
        }
    }
    assert_matches_golden("arena_sessions.txt", &fault_free);
}

/// Gate 3: the pruned budgeted k-NN sweep, pinned against the accounting the
/// unpruned legacy scan produced, plus the live pruning invariants: savings
/// appear only in `distances_pruned`, never in the budget charge, ranking,
/// or node accounting.
#[test]
fn pruned_knn_sweep_matches_golden() {
    let (corpus, arena) = fixture();
    let at = arena.tree();
    // Scopes: the root plus every child of the root (the localized scopes
    // the paper's subqueries actually use), against queries taken from
    // corpus feature vectors (dense region) and a far-out synthetic point.
    let mut scopes = vec![at.root()];
    scopes.extend(at.children(at.root()));
    let far: Vec<f32> = vec![1e3; at.dims()];
    let queries: Vec<Vec<f32>> = vec![
        corpus.features()[0].clone(),
        corpus.features()[137].clone(),
        far,
    ];
    let mut sweep = String::new();
    let mut pruned_total = 0u64;
    for scope in scopes {
        for (qi, q) in queries.iter().enumerate() {
            for budget in BUDGETS {
                for k in [1usize, 5, 40] {
                    let a = at.knn_in_budgeted(scope, q, k, budget);
                    let ids: Vec<String> = a
                        .neighbors
                        .iter()
                        .map(|n| format!("{}:{:08x}", n.id, n.distance.to_bits()))
                        .collect();
                    // `distances_pruned` is deliberately excluded from the
                    // golden: it is the one quantity the prune may change.
                    writeln!(
                        sweep,
                        "scope={} q={qi} budget={budget:?} k={k} accesses={} \
                         exhausted={} skipped={} charged={} ids=[{}]",
                        scope.index(),
                        a.accesses,
                        a.exhausted,
                        a.nodes_skipped,
                        a.distance_computations,
                        ids.join(",")
                    )
                    .unwrap();
                    assert!(a.distances_pruned <= a.distance_computations);
                    pruned_total += a.distances_pruned;
                }
            }
        }
    }
    assert!(
        pruned_total > 0,
        "the sweep never exercised the pruning path"
    );
    assert_matches_golden("arena_knn_sweep.txt", &sweep);
}

/// Satellite: arena invariant properties under churn. Inserts and removes
/// drive allocation, release, reinsert, split, and condense; after every
/// batch the full invariant check must hold, the root traversal must visit
/// each live node exactly once, and `leaf_of`-style leaf lookups must agree
/// with the set of live leaves.
#[test]
fn arena_invariants_hold_under_churn() {
    let dims = 4;
    let mut tree = RStarTree::new(TreeConfig::small(dims));
    let point = |i: u64| -> Vec<f32> {
        (0..dims)
            .map(|d| {
                let x = i
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(11 + d as u32);
                (x % 1000) as f32 / 10.0
            })
            .collect()
    };
    for i in 0..250u64 {
        tree.insert(point(i), i);
        if i % 3 == 0 && i > 40 {
            let victim = i / 2;
            assert!(tree.remove(&point(victim), victim) || victim > i);
        }
        if i % 25 == 0 {
            tree.validate();
        }
    }
    tree.validate();

    // Root traversal visits every live node exactly once.
    let mut visited = std::collections::BTreeSet::new();
    let mut stack = vec![tree.root()];
    while let Some(n) = stack.pop() {
        assert!(tree.contains_node(n), "traversal reached a dead node");
        assert!(
            visited.insert(n.index()),
            "node {} visited twice",
            n.index()
        );
        for c in tree.children(n) {
            assert_eq!(tree.parent(c), Some(n), "child/parent links disagree");
            stack.push(c);
        }
    }
    assert_eq!(
        visited.len(),
        tree.node_count(),
        "traversal missed live nodes"
    );

    // Every live leaf is reachable and every stored point lives in exactly
    // one leaf (the tree-level ground truth behind the RFS `leaf_of` map).
    let mut ids_seen = std::collections::BTreeSet::new();
    for n in tree.node_ids() {
        assert!(visited.contains(&n.index()), "live node unreachable");
        if tree.is_leaf(n) {
            for id in tree.leaf_ids(n) {
                assert!(ids_seen.insert(id), "image {id} stored in two leaves");
            }
        } else {
            assert_eq!(tree.leaf_ids(n).len(), 0);
        }
    }
    assert_eq!(ids_seen.len(), tree.len(), "leaf union misses points");
}

/// Satellite: the RFS `leaf_of` map is a bijection-compatible assignment
/// against the live leaves of the arena tree: every image maps to a live
/// leaf that stores it, and every live leaf is the image of some id.
#[test]
fn rfs_leaf_of_agrees_with_live_leaves() {
    let (corpus, arena) = fixture();
    let t = arena.tree();
    let mut leaves_hit = std::collections::BTreeSet::new();
    for image in 0..corpus.len() {
        let leaf = arena.leaf_of(image).unwrap();
        assert!(t.contains_node(leaf), "leaf_of returned a dead node");
        assert!(t.is_leaf(leaf), "leaf_of returned an internal node");
        assert!(
            t.leaf_ids(leaf).into_iter().any(|id| id == image as u64),
            "leaf_of({image}) points at a leaf that does not store it"
        );
        leaves_hit.insert(leaf.index());
    }
    let live_leaves: std::collections::BTreeSet<usize> = t
        .node_ids()
        .filter(|&n| t.is_leaf(n))
        .map(|n| n.index())
        .collect();
    assert_eq!(leaves_hit, live_leaves, "some live leaf holds no image");
}
