//! Sharded-RFS differential harness (the standing gate behind `qd-shard`).
//!
//! The corpus can now be partitioned into K deterministic shards, each with
//! its own R\*-tree arena, served through a scatter-gather merge that must
//! be indistinguishable from the monolithic index. This suite pins that
//! contract differentially, against the live monolithic implementation —
//! no goldens but gate 8's, because the reference is always available:
//!
//! 1. **K=1 transparency**: a single-shard set is handle-transparent, so
//!    whole sessions — results, grouping scores, counters, span trees —
//!    are byte-identical to the unsharded RFS at every distance budget.
//! 2. **Scatter-gather exactness**: at K ∈ {1, 2, 4, 7} the unbudgeted
//!    global k-NN answer is the same `(distance bits, id)` ranking the
//!    monolithic tree produces.
//! 3. **Determinism**: budgeted scatter results and whole sharded sessions
//!    are byte-identical at `QD_THREADS` 1 and 8, across reruns, and under
//!    every chaos seed (the CI chaos job reruns this suite under eight
//!    `QD_FAULT_SEED`s).
//! 4. **Incremental updates**: *appending* images equals a from-scratch
//!    rebuild exactly (an append is the next step of a shard's
//!    ascending-id construction, and the representative refresh is
//!    lossless), and a deleted image is never returned again. Every other
//!    update is held to gates 6 and 7, not to a rebuild.
//! 5. **Snapshot swaps**: `Server::run_with_swaps` publishes a new
//!    snapshot mid-run without perturbing any session that was in flight —
//!    fingerprints stay byte-identical to the swap-free run.
//! 6. **Updates against an oracle**: a seeded random walk of inserts,
//!    removes and publications beside a `BTreeSet` of member ids — after
//!    every step the invariants hold, the set's mutation log names every
//!    node that changed (the refresh reads nothing else), root-scope k-NN
//!    is the exhaustive scan over the model's membership, and the structure
//!    survives QDS1.
//! 7. **One update algorithm**: a one-shard set's update is byte for byte
//!    the monolithic tree's `clone` + `insert`/`remove`, and an update
//!    costs a bounded number of node accesses whatever the shard's size —
//!    no shard build, no RFS node created, a path's worth of refreshes.
//! 8. **Scan order**: the weighted scan under a finite budget scores a
//!    prefix of the subtree traversal, so the traversal order (children
//!    last-first, shards in index order) is pinned by a golden.

use qd_fault::{FaultPlan, Mode};
use query_decomposition::index::{KnnIndex, NodeId};
use query_decomposition::obs;
use query_decomposition::prelude::*;
use query_decomposition::shard::{
    build_sharded_rfs, shard_of, ShardConfig, ShardPublisher, ShardSet,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::OnceLock;

mod common;
#[path = "common/golden.rs"]
mod golden;
use golden::assert_matches_golden;

type SoloRfs = RfsStructure<RStarTree>;
type ShardedRfs = RfsStructure<ShardSet>;
/// The shared fixture tuple: corpus, monolithic RFS, and `(K, sharded RFS)`
/// pairs for every shard count the suite sweeps.
type Fixture = (Corpus, SoloRfs, Vec<(usize, ShardedRfs)>);

const SHARD_SEED: u64 = 0x51ed;

fn rfs_config() -> RfsConfig {
    RfsConfig::test_small()
}

/// Small nodes for the update gates: ≈ 11 leaves per shard over the fixture
/// at K = 4, so removals underflow nodes (condensation, free-listed node
/// and feature slots) and re-inserts split them again within a few hundred
/// steps.
fn small_node_config() -> RfsConfig {
    RfsConfig {
        node_min: 4,
        node_max: 10,
        ..rfs_config()
    }
}

/// Shared fixture: corpus, the monolithic RFS, and sharded RFS structures
/// at every K the suite sweeps.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = Corpus::build(&CorpusConfig {
            size: 300,
            image_size: 24,
            seed: 23,
            filler_count: 5,
            with_viewpoints: false,
        });
        let solo = SoloRfs::build(corpus.features(), &rfs_config());
        let sharded = [1usize, 2, 4, 7]
            .into_iter()
            .map(|k| {
                let rfs = build_sharded_rfs(
                    corpus.features(),
                    &rfs_config(),
                    ShardConfig::new(k, SHARD_SEED),
                );
                (k, rfs)
            })
            .collect();
        (corpus, solo, sharded)
    })
}

/// The chaos seed: `QD_FAULT_SEED` when set (CI runs eight), 0 otherwise.
fn fault_seed() -> u64 {
    std::env::var(qd_fault::FAULT_SEED_ENV)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

const BUDGETS: [Option<u64>; 6] = [
    None,
    Some(0),
    Some(10),
    Some(200),
    Some(5000),
    Some(u64::MAX),
];

fn standard_query(corpus: &Corpus, name: &str) -> QuerySpec {
    queries::standard_queries(corpus.taxonomy())
        .into_iter()
        .find(|q| q.name == name)
        .expect("standard query")
}

/// Serializes a served session (or its typed error) deterministically;
/// floats are raw bits.
fn serialize_session(outcome: &Result<ServedOutcome, QdError>) -> String {
    let mut s = String::new();
    let served = match outcome {
        Ok(served) => served,
        Err(e) => return format!("error {e}\n"),
    };
    let o = served.outcome();
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
            "degradation budget_spent={} nodes_skipped={} subqueries_dropped={} \
             shard_legs_dropped={} displays_skipped={}",
            d.budget_spent,
            d.nodes_skipped,
            d.subqueries_dropped,
            d.shard_legs_dropped,
            d.displays_skipped
        )
        .unwrap(),
    }
    s
}

/// One observed session over any hierarchy: serialized outcome, the full
/// counter ledger, and the rendered span tree.
fn observed_session<I: KnnIndex + Sync>(
    corpus: &Corpus,
    rfs: &RfsStructure<I>,
    query_name: &str,
    cfg: &QdConfig,
    workers: usize,
) -> String {
    let query = standard_query(corpus, query_name);
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

fn sharded(k: usize) -> &'static ShardedRfs {
    let (_, _, all) = fixture();
    &all.iter().find(|(n, _)| *n == k).expect("K in fixture").1
}

/// Gate 1: K=1 is handle-transparent — whole sessions are byte-identical
/// to the unsharded RFS across the budget sweep, counters and span trees
/// included.
#[test]
fn single_shard_sessions_are_byte_identical_to_unsharded() {
    let (corpus, solo, _) = fixture();
    let one = sharded(1);
    for budget in BUDGETS {
        let cfg = QdConfig {
            distance_budget: budget,
            ..QdConfig::default()
        };
        for query in ["bird", "rose"] {
            let a = observed_session(corpus, solo, query, &cfg, 1);
            let b = observed_session(corpus, one, query, &cfg, 1);
            assert_eq!(
                a, b,
                "K=1 session diverged from unsharded (query={query}, budget={budget:?})"
            );
        }
    }
}

/// The `(distance bits, id)` ranking of a budgeted k-NN answer. Results
/// are sorted by `(distance, id)` on both paths, so exact equality is the
/// bar — not just the same multiset.
fn ranking(knn: &qd_index::BudgetedKnn) -> Vec<(u32, u64)> {
    knn.neighbors
        .iter()
        .map(|n| (n.distance.to_bits(), n.id))
        .collect()
}

/// Gate 2: at every K the unbudgeted global k-NN through the scatter-gather
/// merge ranks exactly like the monolithic tree.
#[test]
fn scatter_gather_knn_matches_unsharded_exactly() {
    let (corpus, solo, all) = fixture();
    let tree = solo.tree();
    let probes: Vec<usize> = vec![0, 57, 137, 222, corpus.len() - 1];
    for (k_shards, rfs) in all {
        let set = rfs.tree();
        for &p in &probes {
            let q = corpus.features()[p].as_slice();
            for k in [1usize, 5, 25] {
                let a = set.knn_in_budgeted(set.root(), q, k, None);
                let b = tree.knn_in_budgeted(tree.root(), q, k, None);
                assert_eq!(
                    ranking(&a),
                    ranking(&b),
                    "K={k_shards} probe={p} k={k} ranking diverged"
                );
                assert!(!a.exhausted);
                assert_eq!(a.partitions_dropped, 0);
            }
        }
    }
}

/// Serializes every observable field of a budgeted k-NN answer.
fn serialize_knn(knn: &qd_index::BudgetedKnn) -> String {
    format!(
        "accesses={} charged={} pruned={} skipped={} dropped={} exhausted={} ids={:?}",
        knn.accesses,
        knn.distance_computations,
        knn.distances_pruned,
        knn.nodes_skipped,
        knn.partitions_dropped,
        knn.exhausted,
        ranking(knn)
    )
}

/// Gate 3a: budgeted scatter answers — results *and* accounting — are
/// byte-identical across thread counts and reruns, and a large-enough
/// budget converges on the exact unbudgeted answer.
#[test]
fn budgeted_scatter_is_thread_and_rerun_invariant() {
    let (corpus, _, all) = fixture();
    for (k_shards, rfs) in all {
        let set = rfs.tree();
        let q = corpus.features()[137].as_slice();
        for budget in BUDGETS {
            let runs: Vec<String> = [1usize, 8, 1]
                .iter()
                .map(|&w| {
                    qd_runtime::with_threads(w, || {
                        serialize_knn(&set.knn_in_budgeted(set.root(), q, 10, budget))
                    })
                })
                .collect();
            assert_eq!(runs[0], runs[1], "K={k_shards} budget={budget:?} threads");
            assert_eq!(runs[0], runs[2], "K={k_shards} budget={budget:?} rerun");
        }
        let exact = ranking(&set.knn_in_budgeted(set.root(), q, 10, None));
        let large = ranking(&set.knn_in_budgeted(set.root(), q, 10, Some(u64::MAX)));
        assert_eq!(exact, large, "K={k_shards}: huge budget must be exact");
    }
}

/// Gate 3b: whole sharded sessions stay byte-identical at `QD_THREADS` 1
/// vs 8, fault-free and under an armed chaos plan covering every site —
/// including the `shard.*` failpoints — at the active `QD_FAULT_SEED`.
#[test]
fn sharded_sessions_are_thread_invariant_under_chaos() {
    let (corpus, _, _) = fixture();
    let rfs = sharded(4);
    let seed = fault_seed();
    let plans = [
        FaultPlan::new(seed), // no faults armed
        FaultPlan::new(seed).all_sites(Mode::Probability(0.4)),
    ];
    for budget in [None, Some(200), Some(5000)] {
        let cfg = QdConfig {
            distance_budget: budget,
            ..QdConfig::default()
        };
        for query in ["bird", "rose"] {
            for (pi, plan) in plans.iter().enumerate() {
                let runs: Vec<String> = [1usize, 8]
                    .iter()
                    .map(|&w| {
                        qd_fault::with_plan(plan, || observed_session(corpus, rfs, query, &cfg, w))
                    })
                    .collect();
                assert_eq!(
                    runs[0], runs[1],
                    "thread count left a fingerprint (query={query}, budget={budget:?}, \
                     plan={pi}, seed={seed})"
                );
            }
        }
    }
}

/// Serializes everything a sharded RFS exposes: per-shard membership, the
/// synthetic root view, every node's rectangle/children/items, the
/// representative lists, and the `leaf_of` map.
fn serialize_sharded(rfs: &ShardedRfs, corpus_len: usize) -> String {
    let t = rfs.tree();
    let mut s = String::new();
    writeln!(
        s,
        "len={} dims={} height={} nodes={} root={} shards={}",
        t.len(),
        t.dims(),
        t.height(),
        t.node_count(),
        t.root().index(),
        t.shard_count()
    )
    .unwrap();
    for shard in 0..t.shard_count() {
        writeln!(s, "shard {shard} members={:?}", t.shard_members(shard)).unwrap();
    }
    let mut ids: Vec<_> = t.node_ids().into_iter().collect();
    ids.sort_unstable_by_key(|n| n.index());
    for n in ids {
        let rect = match t.node_rect(n) {
            Some(r) => {
                let bits = |v: &[f32]| {
                    v.iter()
                        .map(|x| format!("{:08x}", x.to_bits()))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                format!("{}|{}", bits(r.min()), bits(r.max()))
            }
            None => "-".to_string(),
        };
        let children: Vec<String> = t
            .children(n)
            .into_iter()
            .map(|c| c.index().to_string())
            .collect();
        let items: Vec<String> = t.leaf_ids(n).into_iter().map(|id| id.to_string()).collect();
        let reps: Vec<String> = rfs
            .representatives(n)
            .iter()
            .map(|r| r.to_string())
            .collect();
        writeln!(
            s,
            "node={} level={} subtree_len={} rect={} children=[{}] items=[{}] reps=[{}]",
            n.index(),
            t.level(n),
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

/// Gate 4a: *appending* images one at a time (with representative refresh
/// on every touched leaf) lands on the *same structure* — and therefore the
/// same query answers — as rebuilding the whole sharded RFS from scratch.
/// This holds byte for byte only because every inserted id (`n0..len`) is
/// larger than every member: the in-place R\* insert is then exactly the
/// next step of the shard's ascending-id construction. Re-inserting a
/// middle id or removing one is not a rebuild; gates 6 and 7 cover those.
#[test]
fn insert_then_query_equals_rebuild_then_query() {
    let (corpus, _, _) = fixture();
    let features = corpus.features();
    let n0 = features.len() - 6;
    let config = rfs_config();
    let shard_cfg = ShardConfig::new(3, SHARD_SEED);

    let mut incremental = build_sharded_rfs(&features[..n0], &config, shard_cfg.clone());
    for id in n0..features.len() {
        let grown = incremental.tree().insert(features, id as u64);
        incremental = incremental.rebuild_with_refresh(grown, features, &config);
    }
    let scratch = build_sharded_rfs(features, &config, shard_cfg);

    assert_eq!(
        serialize_sharded(&incremental, features.len()),
        serialize_sharded(&scratch, features.len()),
        "incremental structure diverged from a from-scratch rebuild"
    );
    // Slot numbers are layout, not structure: an appended row takes the next
    // free slot where a rebuild gives it a place in its leaf's run, so the
    // arenas differ until both sides are compacted — then they are the same
    // QDT2 bytes, shard for shard.
    let mut differing = 0;
    for s in 0..3 {
        let mut a = incremental.tree().shard(s).clone();
        let mut b = scratch.tree().shard(s).clone();
        differing +=
            usize::from(qd_index::persist::to_bytes(&a) != qd_index::persist::to_bytes(&b));
        a.compact();
        b.compact();
        assert!(
            qd_index::persist::to_bytes(&a) == qd_index::persist::to_bytes(&b),
            "shard {s}: compacted append differs from the compacted rebuild"
        );
    }
    assert!(differing > 0, "no append left its row out of leaf order");
    for query in ["bird", "rose"] {
        let cfg = QdConfig::default();
        let a = observed_session(corpus, &incremental, query, &cfg, 1);
        let b = observed_session(corpus, &scratch, query, &cfg, 1);
        assert_eq!(a, b, "insert-then-query diverged for {query}");
    }
}

/// Gate 4b: a deleted image is gone from every observable surface — the
/// membership check, the leaf union, and every k-NN answer.
#[test]
fn delete_then_query_never_returns_a_deleted_id() {
    let (corpus, _, _) = fixture();
    let features = corpus.features();
    let base = build_sharded_rfs(features, &rfs_config(), ShardConfig::new(4, SHARD_SEED));
    let victims: [u64; 3] = [3, 137, 250];
    let mut set = base.tree().clone();
    for &v in &victims {
        set = set.remove(features, v);
    }
    set.validate();
    assert_eq!(set.len(), features.len() - victims.len());
    for &v in &victims {
        assert!(!set.contains_image(v), "image {v} still a member");
        for n in set.node_ids() {
            assert!(
                set.leaf_ids(n).into_iter().all(|id| id != v),
                "image {v} still stored in a leaf"
            );
        }
        let q = features[v as usize].as_slice();
        for k in [1usize, 10, 50] {
            let knn = set.knn_in_budgeted(set.root(), q, k, None);
            assert!(
                knn.neighbors.iter().all(|n| n.id != v),
                "deleted image {v} returned by k-NN (k={k})"
            );
        }
    }
}

/// Gate 5: a snapshot swap mid-run never perturbs in-flight sessions.
/// Swapping in a byte-equivalent snapshot leaves *every* fingerprint
/// byte-identical to the swap-free run; swapping in a mutated snapshot
/// leaves every session that finished before the swap tick untouched.
#[test]
fn snapshot_swap_preserves_inflight_session_fingerprints() {
    use qd_serve::{LoadConfig, LoadPlan, ServeConfig, Server};
    use std::sync::Arc;

    let (corpus, _, _) = fixture();
    let features = corpus.features();
    let config = rfs_config();
    let shard_cfg = ShardConfig::new(3, SHARD_SEED);
    let snapshot = Arc::new(build_sharded_rfs(features, &config, shard_cfg.clone()));
    let corpus = Arc::new(Corpus::build(&CorpusConfig {
        size: 300,
        image_size: 24,
        seed: 23,
        filler_count: 5,
        with_viewpoints: false,
    }));
    let plan = LoadPlan::generate(
        &corpus,
        &LoadConfig {
            users: 10,
            ..LoadConfig::default()
        },
    );
    let server = Server::new(corpus.clone(), snapshot.clone(), ServeConfig::default());
    let (baseline, _) = obs::with_recorder(|| server.run(&plan));

    // An equivalent snapshot (an independent from-scratch build of the same
    // corpus): every session fingerprint must stay byte-identical, and the
    // swap must be visible in the counters.
    let twin = Arc::new(build_sharded_rfs(features, &config, shard_cfg.clone()));
    let swap_tick = baseline.ticks / 2;
    let (swapped, trace) =
        obs::with_recorder(|| server.run_with_swaps(&plan, &[(swap_tick, twin)]));
    assert_eq!(
        trace.counters.get(obs::ctr::SERVE_SWAPS).copied(),
        Some(1),
        "swap not applied"
    );
    for (a, b) in baseline.sessions.iter().zip(&swapped.sessions) {
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "equivalent-snapshot swap perturbed session {}",
            a.id
        );
    }

    // A mutated snapshot (one image removed from its shard in place): the two
    // runs are identical up to the swap tick, so every session that had
    // already finished keeps its fingerprint.
    let shrunk = base_minus_one(&snapshot, features, &config);
    let (mutated, _) =
        obs::with_recorder(|| server.run_with_swaps(&plan, &[(swap_tick, Arc::new(shrunk))]));
    for a in &baseline.sessions {
        if a.finished_tick < swap_tick {
            let b = mutated.session(a.id).expect("session report");
            assert_eq!(
                a.fingerprint(),
                b.fingerprint(),
                "mutated-snapshot swap perturbed already-finished session {}",
                a.id
            );
        }
    }
}

/// The fixture snapshot with one image removed (copy-on-write: untouched
/// shards stay shared) and representatives refreshed on the touched leaves.
fn base_minus_one(base: &ShardedRfs, features: &[Vec<f32>], config: &RfsConfig) -> ShardedRfs {
    let shrunk = base.tree().remove(features, 137);
    base.rebuild_with_refresh(shrunk, features, config)
}

/// The exhaustive-scan answer over `members`: `(distance bits, id)` in
/// `(d², id)` order, with the arithmetic of `index_properties.rs`'s oracle
/// (f32 differences, f64 squares and sum).
fn scan_knn(
    features: &[Vec<f32>],
    members: &BTreeSet<u64>,
    q: &[f32],
    k: usize,
) -> Vec<(u32, u64)> {
    let mut scored: Vec<(f64, u64)> = members
        .iter()
        .map(|&id| {
            let p = &features[id as usize];
            let d2 = p.iter().zip(q).map(|(x, y)| ((x - y) as f64).powi(2)).sum();
            (d2, id)
        })
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.truncate(k);
    scored
        .into_iter()
        .map(|(d2, id)| ((d2.sqrt() as f32).to_bits(), id))
        .collect()
}

/// Root-scope k-NN of `rfs` at every probe equals the scan over `members`.
fn assert_answers_over(
    rfs: &ShardedRfs,
    features: &[Vec<f32>],
    members: &BTreeSet<u64>,
    probes: &[u64],
    what: &str,
) {
    let set = rfs.tree();
    for &p in probes {
        let q = features[p as usize].as_slice();
        let got = set.knn_in_budgeted(set.root(), q, 12, None);
        assert!(!got.exhausted && got.partitions_dropped == 0, "{what}");
        assert_eq!(
            ranking(&got),
            scan_knn(features, members, q, 12),
            "{what}: probe {p}"
        );
    }
}

/// The whole-tree comparison the refresh made before indexes kept a
/// mutation log, kept as the log's oracle: every node of `new` that `old`
/// did not hold, or held as the other kind, with other images or with other
/// children, and every handle of `old` that `new` freed, is in `log` — all
/// but a multi-shard set's synthetic root, which is no shard's node and which
/// the refresh re-selects after every update.
fn assert_log_covers(old: &ShardSet, new: &ShardSet, log: &[NodeId], what: &str) {
    let synthetic = (new.shard_count() > 1).then(|| new.root());
    for n in new.node_ids().into_iter().filter(|&n| Some(n) != synthetic) {
        let same = old.contains_node(n)
            && old.is_leaf(n) == new.is_leaf(n)
            && old.leaf_ids(n).into_iter().eq(new.leaf_ids(n))
            && old.children(n).into_iter().eq(new.children(n));
        assert!(same || log.contains(&n), "{what}: changed {n:?} not logged");
    }
    for n in old
        .node_ids()
        .into_iter()
        .filter(|&n| !new.contains_node(n))
    {
        assert!(log.contains(&n), "{what}: freed {n:?} not logged");
    }
}

/// The update model behind gate 6: a sharded RFS driven beside a `BTreeSet`
/// of the image ids that should be in it.
struct Model<'a> {
    features: &'a [Vec<f32>],
    config: RfsConfig,
    members: BTreeSet<u64>,
    current: ShardedRfs,
    publisher: ShardPublisher,
    /// Membership of the published snapshot.
    published: BTreeSet<u64>,
}

impl<'a> Model<'a> {
    fn new(features: &'a [Vec<f32>], k_shards: usize) -> Self {
        let config = small_node_config();
        let current = build_sharded_rfs(features, &config, ShardConfig::new(k_shards, SHARD_SEED));
        let members: BTreeSet<u64> = (0..features.len() as u64).collect();
        Self {
            features,
            publisher: ShardPublisher::new(current.clone()),
            published: members.clone(),
            config,
            members,
            current,
        }
    }

    /// One insert (`id` absent) or remove (`id` present), then every check
    /// of the update contract.
    fn toggle(&mut self, id: u64, extra_probe: u64) {
        let features = self.features;
        let before = &self.current;
        let before_members = self.members.clone();
        let old_set = before.tree();
        let new_set = if self.members.remove(&id) {
            old_set.remove(features, id)
        } else {
            self.members.insert(id);
            old_set.insert(features, id)
        };
        let what = format!("after toggling image {id}");
        let touched = shard_of(old_set.config(), id);
        for s in 0..old_set.shard_count() {
            assert_eq!(
                std::ptr::eq(old_set.shard(s), new_set.shard(s)),
                s != touched,
                "{what}: shard {s} sharing"
            );
        }
        new_set.check_invariants().expect("set invariants");
        common::assert_rects_tight(new_set.shard(touched));
        assert_log_covers(old_set, &new_set, &new_set.clone().take_touched(), &what);
        let next = before.rebuild_with_refresh(new_set.clone(), features, &self.config);
        next.check_invariants().expect("refreshed RFS invariants");

        // Membership: the tree, the leaf map and the descent all agree with
        // the model, for members and non-members alike.
        let set = next.tree();
        assert_eq!(set.len(), self.members.len(), "{what}");
        let stored: BTreeSet<u64> = (0..set.shard_count())
            .flat_map(|s| set.shard_members(s).to_vec())
            .collect();
        assert_eq!(stored, self.members, "{what}: member lists");
        let root = set.root();
        for image in 0..features.len() {
            let member = self.members.contains(&(image as u64));
            assert_eq!(set.contains_image(image as u64), member, "{what}");
            if !member {
                assert_eq!(next.leaf_of(image), None, "{what}");
                assert_eq!(next.child_containing(root, image), None, "{what}");
                continue;
            }
            let leaf = next.leaf_of(image).unwrap();
            assert!(
                set.is_leaf(leaf) && set.leaf_ids(leaf).into_iter().any(|i| i == image as u64),
                "{what}: leaf_of[{image}]"
            );
            if leaf != root {
                let child = next
                    .child_containing(root, image)
                    .expect("member under root");
                assert_eq!(set.parent(child), Some(root), "{what}");
            }
        }

        // The refresh is exactly a from-scratch decoration of the same tree.
        let scratch = ShardedRfs::build_on(new_set, features, &self.config);
        assert_eq!(next.reps_map(), scratch.reps_map(), "{what}: refresh");
        for image in 0..features.len() {
            assert_eq!(
                next.leaf_of(image),
                scratch.leaf_of(image),
                "{what}: leaf_of[{image}]"
            );
        }

        // Answers: the new structure over the new membership; the structure
        // it was derived from, and the published snapshot, over theirs.
        let probes = [id, extra_probe];
        assert_answers_over(&next, features, &self.members, &probes, &what);
        assert_answers_over(before, features, &before_members, &probes, &what);
        let snapshot = self.publisher.snapshot();
        assert_answers_over(&snapshot, features, &self.published, &probes, &what);

        // QDS1 round trip of the mutated arenas.
        let bytes = qd_shard::persist::to_bytes(&next);
        let loaded = qd_shard::persist::from_bytes(&bytes).expect("own bytes decode");
        assert_eq!(loaded.reps_map(), next.reps_map(), "{what}: QDS1 reps");
        assert!(
            qd_shard::persist::to_bytes(&loaded) == bytes,
            "{what}: QDS1"
        );
        assert_answers_over(&loaded, features, &self.members, &probes, &what);

        self.current = next;
    }

    fn publish(&mut self) {
        let published = self
            .publisher
            .publish(self.current.clone())
            .expect("no failpoint armed");
        self.published = self.members.clone();
        assert_eq!(published.reps_map(), self.current.reps_map());
    }
}

/// Gate 6: updates against an oracle, not against a rebuild. A seeded walk
/// of random insert / remove / publish steps at K ∈ {1, 4} beside a
/// `BTreeSet` of member ids; after every step the invariants hold on the
/// set and on the refreshed RFS, the set's mutation log names every node
/// that changed, root-scope k-NN is the exhaustive scan
/// over the model's membership, `leaf_of` / `child_containing` resolve
/// exactly the members, the refresh equals `build_on` over the same tree,
/// untouched shards are shared, older snapshots still answer over their own
/// membership, and the structure survives a QDS1 round trip. At K = 4 the
/// walk ends by emptying one shard completely and refilling it.
#[test]
fn random_updates_agree_with_a_membership_oracle() {
    let (corpus, _, _) = fixture();
    let features = corpus.features();
    let n = features.len() as u64;
    for k_shards in [1usize, 4] {
        let mut rng = StdRng::seed_from_u64(fault_seed() ^ (0x6a7e << 8) ^ k_shards as u64);
        let mut model = Model::new(features, k_shards);
        for step in 0..320 {
            if rng.random_range(0..10) == 0 {
                model.publish();
                continue;
            }
            // Alternate shrinking and growing phases so the walk drifts far
            // enough to condense nodes and then split them again.
            let shrinking = (step / 80) % 2 == 0;
            let remove = model.members.len() > 8
                && (model.members.len() as u64 == n
                    || rng.random_range(0..10) < if shrinking { 8 } else { 2 });
            let pool: Vec<u64> = (0..n)
                .filter(|id| model.members.contains(id) == remove)
                .collect();
            let id = pool[rng.random_range(0..pool.len())];
            model.toggle(id, rng.random_range(0..n));
        }
        if k_shards == 1 {
            continue;
        }
        // The edge no other test visits: one shard emptied completely
        // (queried and persisted by `toggle` at every size down to zero),
        // then refilled in descending id order.
        let victims = model.current.tree().shard_members(2).to_vec();
        assert!(!victims.is_empty());
        for &id in &victims {
            model.toggle(id, rng.random_range(0..n));
        }
        assert!(model.current.tree().shard_members(2).is_empty());
        assert!(model.current.tree().shard(2).is_empty());
        model.publish();
        for &id in victims.iter().rev() {
            model.toggle(id, rng.random_range(0..n));
        }
        assert_eq!(model.current.tree().shard_members(2), victims);
    }
}

/// Gate 7a: one update algorithm, two deployments. Removing and then
/// re-inserting a *middle* id through a one-shard set yields the same QDT2
/// bytes and the same refreshed representatives as `RStarTree::clone` +
/// `remove` / `insert` on the monolithic tree.
#[test]
fn single_shard_update_is_the_monolithic_update() {
    let (corpus, solo, _) = fixture();
    let features = corpus.features();
    let config = rfs_config();
    let mut mono = solo.clone();
    let mut one = sharded(1).clone();
    let id = 137u64;
    let point = &features[id as usize];
    for insert in [false, true] {
        let mut tree = mono.tree().clone();
        let set = if insert {
            tree.insert(point.clone(), id);
            one.tree().insert(features, id)
        } else {
            assert!(tree.remove(point, id));
            one.tree().remove(features, id)
        };
        mono = mono.rebuild_with_refresh(tree, features, &config);
        one = one.rebuild_with_refresh(set, features, &config);
        // `assert!`, not `assert_eq!`: a failure should not print two trees.
        assert!(
            qd_index::persist::to_bytes(one.tree().shard(0))
                == qd_index::persist::to_bytes(mono.tree()),
            "QDT2 bytes diverged (insert={insert})"
        );
        assert_eq!(one.reps_map(), mono.reps_map(), "insert={insert}");
    }
    // The round trip went through the in-place path: a rebuild in ascending
    // id order would have put image 137 back where `build` had it.
    assert!(
        qd_index::persist::to_bytes(one.tree().shard(0))
            != qd_index::persist::to_bytes(solo.tree())
    );
}

/// Gate 7b: what one update costs, in the paper's own unit (node accesses,
/// §5.2.2) and in the recorder's. An insert descends once, plus once per
/// entry a forced reinsertion evicts (at most once per level, fewer than
/// `max_entries` entries); a remove finds the leaf, then descends once per
/// entry condensation orphans (fewer than `max_entries` per level). So the
/// touched shard's tree takes at most `(1 + height · max_entries) · height`
/// accesses — a function of the node capacity and the height, not of the
/// shard's size: the same bound holds on shards of ≈ 300 and ≈ 1 200 images.
/// Under a recorder the update builds no shard, creates no RFS node, and
/// refreshes fewer nodes than the touched shard has; a refresh over an
/// unchanged set (every shard untouched) refreshes none.
#[test]
fn one_update_costs_a_path_not_a_shard() {
    let counter =
        |trace: &obs::Trace, name: &obs::Name| trace.counters.get(name).copied().unwrap_or(0);
    let config = small_node_config();
    for n in [1_200usize, 4_800] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let features: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..4).map(|_| rng.random::<f32>()).collect())
            .collect();
        let mut rfs = build_sharded_rfs(&features, &config, ShardConfig::new(4, SHARD_SEED));

        let (_, trace) =
            obs::with_recorder(|| rfs.rebuild_with_refresh(rfs.tree().clone(), &features, &config));
        assert_eq!(counter(&trace, obs::ctr::RFS_REFRESHED), 0, "n={n}: no-op");

        for step in 0..40 {
            let id = rng.random_range(0..n as u64);
            let s = shard_of(rfs.tree().config(), id);
            for insert in [false, true] {
                let old = rfs.tree().shard(s);
                old.reset_accesses();
                let (next, trace) = obs::with_recorder(|| {
                    let set = if insert {
                        rfs.tree().insert(&features, id)
                    } else {
                        rfs.tree().remove(&features, id)
                    };
                    rfs.rebuild_with_refresh(set, &features, &config)
                });
                let what = format!("n={n} step={step} id={id} insert={insert}");
                let new = next.tree().shard(s);
                let height = old.height().max(new.height()) as u64;
                let bound = (1 + height * config.node_max as u64) * height;
                assert!(
                    (1..=bound).contains(&new.accesses()),
                    "{what}: {} node accesses, bound {bound}",
                    new.accesses()
                );
                assert!(trace.spans_named(obs::sp::SHARD_BUILD).is_empty(), "{what}");
                assert_eq!(counter(&trace, obs::ctr::RFS_NODES_CREATED), 0, "{what}");
                let refreshed = counter(&trace, obs::ctr::RFS_REFRESHED);
                assert!(
                    refreshed >= 1 && refreshed < new.node_count() as u64,
                    "{what}: {refreshed} of {} nodes refreshed",
                    new.node_count()
                );
                rfs = next;
            }
        }
    }
}

/// Gate 8: the weighted scan under a finite budget scores the first `b`
/// items of the scope's subtree traversal, so that traversal order is an
/// answer: a node's children are taken last-first (popped off a stack),
/// and under the synthetic root the shards come in index order. One line
/// per `(index, scope, budget)` — neighbours as `id:distance bits`, the
/// distance computations and the items skipped — over the monolithic tree
/// and the 4-shard set, at the root and at one child of the root.
#[test]
fn weighted_budget_scan_matches_golden() {
    use qd_core::localknn::{try_run_local_query, LocalQuery};

    fn sweep<I: KnnIndex>(out: &mut String, label: &str, corpus: &Corpus, rfs: &RfsStructure<I>) {
        let weights = QdConfig::default()
            .with_group_weights(1.0, 0.25, 0.5)
            .feature_weights
            .expect("group weights set");
        let marks = vec![3usize, 141, 267];
        let root = rfs.tree().root();
        let child = rfs
            .child_containing(root, marks[0])
            .expect("the fixture's root is internal");
        for (scope_name, home) in [("root", root), ("child", child)] {
            let lq = LocalQuery {
                home,
                query_points: marks.clone(),
            };
            for budget in [0u64, 1, 5, 25, 100] {
                // An infinite threshold and no minimum pool: the scope is
                // `home` itself.
                let r = try_run_local_query(
                    rfs.tree(),
                    corpus.features(),
                    &lq,
                    f32::INFINITY,
                    10,
                    0,
                    Some(&weights),
                    Some(budget),
                )
                .expect("well-formed query");
                assert_eq!(r.scope, home);
                let neighbors: Vec<String> = r
                    .neighbors
                    .iter()
                    .map(|n| format!("{}:{:08x}", n.id, n.distance.to_bits()))
                    .collect();
                writeln!(
                    out,
                    "{label} {scope_name} b={budget} dist={} skipped={} exhausted={} :: {}",
                    r.distance_computations,
                    r.nodes_skipped,
                    r.exhausted,
                    neighbors.join(" ")
                )
                .unwrap();
            }
        }
    }

    let (corpus, solo, _) = fixture();
    let mut actual = String::new();
    sweep(&mut actual, "rstar", corpus, solo);
    sweep(&mut actual, "shard4", corpus, sharded(4));

    assert_matches_golden("weighted_budget_scan.txt", &actual);
}
