//! Property-based tests for the R\*-tree: search correctness against brute
//! force and structural invariants under arbitrary operation interleavings.

use proptest::prelude::*;
use query_decomposition::index::{NodeId, RStarTree, Rect, TreeConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write as _;

fn dist2(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(x, y)| ((x - y) as f64).powi(2)).sum()
}

fn brute_knn(items: &[(u64, Vec<f32>)], q: &[f32], k: usize) -> Vec<u64> {
    let mut scored: Vec<(f64, u64)> = items.iter().map(|(id, p)| (dist2(p, q), *id)).collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.into_iter().take(k).map(|(_, id)| id).collect()
}

fn point(dims: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, dims)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// k-NN over an insertion-built tree matches brute force exactly
    /// (including tie order by construction: distances on random floats are
    /// almost surely distinct).
    #[test]
    fn knn_matches_brute_force(
        points in prop::collection::vec(point(4), 1..120),
        query in point(4),
        k in 1usize..20,
    ) {
        let mut tree = RStarTree::new(TreeConfig::small(4));
        let items: Vec<(u64, Vec<f32>)> = points
            .into_iter()
            .enumerate()
            .map(|(i, p)| (i as u64, p))
            .collect();
        for (id, p) in items.clone() {
            tree.insert(p, id);
        }
        let got: Vec<u64> = tree.knn(&query, k).into_iter().map(|n| n.id).collect();
        let want = brute_knn(&items, &query, k);
        prop_assert_eq!(got, want);
    }

    /// Bulk-loaded trees answer identically to insertion-built ones.
    #[test]
    fn bulk_load_equals_insert_for_knn(
        points in prop::collection::vec(point(3), 1..100),
        query in point(3),
    ) {
        let items: Vec<(u64, Vec<f32>)> = points
            .into_iter()
            .enumerate()
            .map(|(i, p)| (i as u64, p))
            .collect();
        let bulk = RStarTree::bulk_load(TreeConfig::small(3), items.clone());
        let mut inserted = RStarTree::new(TreeConfig::small(3));
        for (id, p) in items.clone() {
            inserted.insert(p, id);
        }
        let k = 8.min(items.len());
        let a: Vec<u64> = bulk.knn(&query, k).into_iter().map(|n| n.id).collect();
        let b: Vec<u64> = inserted.knn(&query, k).into_iter().map(|n| n.id).collect();
        prop_assert_eq!(a, b);
    }

    /// Range queries return exactly the filtered set.
    #[test]
    fn range_matches_filter(
        points in prop::collection::vec(point(3), 1..150),
        lo in point(3),
        extent in prop::collection::vec(0.0f32..120.0, 3),
    ) {
        let hi: Vec<f32> = lo.iter().zip(&extent).map(|(l, e)| l + e).collect();
        let range = Rect::new(lo, hi);
        let items: Vec<(u64, Vec<f32>)> = points
            .into_iter()
            .enumerate()
            .map(|(i, p)| (i as u64, p))
            .collect();
        let tree = RStarTree::bulk_load(TreeConfig::small(3), items.clone());
        let mut got = tree.range(&range);
        got.sort_unstable();
        let mut want: Vec<u64> = items
            .iter()
            .filter(|(_, p)| range.contains_point(p))
            .map(|(id, _)| *id)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Invariants survive arbitrary insert/remove interleavings, and removed
    /// entries stay gone.
    #[test]
    fn interleaved_operations_keep_invariants(
        ops in prop::collection::vec((point(2), any::<bool>()), 1..120),
    ) {
        let mut tree = RStarTree::new(TreeConfig::small(2));
        let mut live: Vec<(u64, Vec<f32>)> = Vec::new();
        let mut next_id = 0u64;
        for (p, remove) in ops {
            if remove && !live.is_empty() {
                let (id, point) = live.swap_remove(p[0].abs() as usize % live.len());
                prop_assert!(tree.remove(&point, id));
            } else {
                tree.insert(p.clone(), next_id);
                live.push((next_id, p));
                next_id += 1;
            }
            tree.validate();
        }
        prop_assert_eq!(tree.len(), live.len());
        // Every live entry is findable as its own nearest neighbor.
        for (id, p) in &live {
            let nn = tree.knn(p, 1);
            prop_assert_eq!(nn[0].distance, 0.0);
            // Ties on identical points allowed: just ensure *some* zero hit;
            // and the specific id must be removable (hence present).
            let _ = id;
        }
    }

    /// Subtree-scoped k-NN returns exactly the brute-force answer over that
    /// subtree's items.
    #[test]
    fn subtree_knn_is_locally_correct(
        points in prop::collection::vec(point(3), 30..150),
        query in point(3),
    ) {
        let items: Vec<(u64, Vec<f32>)> = points
            .into_iter()
            .enumerate()
            .map(|(i, p)| (i as u64, p))
            .collect();
        let tree = RStarTree::bulk_load(TreeConfig::small(3), items.clone());
        let root = tree.root();
        prop_assume!(!tree.is_leaf(root));
        for child in tree.children(root) {
            let local: Vec<(u64, Vec<f32>)> = tree
                .subtree_items(child)
                .into_iter()
                .map(|(id, p)| (id, p.to_vec()))
                .collect();
            let k = 5.min(local.len());
            let got: Vec<u64> = tree
                .knn_in_budgeted(child, &query, k, None)
                .neighbors
                .into_iter()
                .map(|n| n.id)
                .collect();
            let want = brute_knn(&local, &query, k);
            prop_assert_eq!(got, want);
        }
    }

    /// MINDIST lower-bounds the distance to every point in a rectangle.
    #[test]
    fn min_dist_is_a_lower_bound(
        lo in point(4),
        extent in prop::collection::vec(0.0f32..50.0, 4),
        inside in prop::collection::vec(0.0f32..1.0, 4),
        query in point(4),
    ) {
        let hi: Vec<f32> = lo.iter().zip(&extent).map(|(l, e)| l + e).collect();
        let rect = Rect::new(lo.clone(), hi.clone());
        let p: Vec<f32> = lo
            .iter()
            .zip(&hi)
            .zip(&inside)
            .map(|((l, h), t)| l + t * (h - l))
            .collect();
        prop_assert!(rect.contains_point(&p));
        prop_assert!(rect.min_dist2(&query) <= dist2(&p, &query) + 1e-3);
    }
}

// ---------------------------------------------------------------------
// The k-NN oracle and the budget/counter pin (DESIGN.md §11, "search core").
// ---------------------------------------------------------------------

const ORACLE_DIMS: usize = 37;

/// A seeded 37-d database of twelve clusters at different distances from the
/// origin (so the norm lower bound has something to prune), R\*-inserted
/// into a small-fan-out tree of height 3.
fn oracle_fixture() -> (RStarTree, Vec<(u64, Vec<f32>)>) {
    let mut rng = StdRng::seed_from_u64(0x5EA2_C0DE);
    let centers: Vec<Vec<f32>> = (0..12)
        .map(|c| {
            let scale = 1.0 + c as f32;
            (0..ORACLE_DIMS)
                .map(|_| scale * rng.random_range(-1.0f32..1.0))
                .collect()
        })
        .collect();
    let items: Vec<(u64, Vec<f32>)> = (0..1500u64)
        .map(|id| {
            let center = &centers[rng.random_range(0..centers.len())];
            let p = center
                .iter()
                .map(|c| c + rng.random_range(-0.5f32..0.5))
                .collect();
            (id, p)
        })
        .collect();
    let mut tree = RStarTree::new(TreeConfig {
        dims: ORACLE_DIMS,
        min_entries: 8,
        max_entries: 20,
        reinsert_fraction: 0.3,
    });
    for (id, p) in &items {
        tree.insert(p.clone(), *id);
    }
    tree.validate();
    assert_eq!(tree.height(), 3, "fixture must have leaf, level-1 and root");
    (tree, items)
}

/// Root, its first child (level 1) and that child's first child (a leaf).
fn oracle_scopes(tree: &RStarTree) -> [NodeId; 3] {
    let root = tree.root();
    let mid = tree.children(root)[0];
    let leaf = tree.children(mid)[0];
    assert!(tree.is_leaf(leaf) && tree.level(mid) == 1);
    [leaf, mid, root]
}

/// Queries inside the data: one just beside a stored point, one between two
/// clusters. Overlapping rectangles that contain them tie at MINDIST 0.
fn inside_queries(items: &[(u64, Vec<f32>)]) -> Vec<Vec<f32>> {
    let beside: Vec<f32> = items[17].1.iter().map(|v| v + 1e-3).collect();
    let between: Vec<f32> = items[3]
        .1
        .iter()
        .zip(&items[4].1)
        .map(|(a, b)| 0.5 * (a + b) + 1e-3)
        .collect();
    vec![beside, between]
}

/// The inside queries pushed out of the database's bounding box along one
/// axis, plus one far away on every axis: every rectangle is at a positive
/// MINDIST, and [`assert_tie_free`] checks that no two coincide.
fn outside_queries(items: &[(u64, Vec<f32>)]) -> Vec<Vec<f32>> {
    let mut queries = inside_queries(items);
    queries[0][0] = 25.0;
    queries[1][1] = -25.0;
    queries.push(vec![1e3; ORACLE_DIMS]);
    queries
}

/// No two keys that can meet on the frontier of a search for `q` — node
/// MINDISTs and item distances alike — coincide, so no answer and no
/// counter, at any budget, can depend on how the frontier breaks ties. (A
/// node may tie with its own ancestor: the ancestor is popped before the
/// node is pushed.)
fn assert_tie_free(tree: &RStarTree, q: &[f32]) {
    let on_one_path = |a: NodeId, b: NodeId| {
        let reaches = |mut from: NodeId, to: NodeId| loop {
            match tree.parent(from) {
                Some(p) if p == to => break true,
                Some(p) => from = p,
                None => break false,
            }
        };
        reaches(a, b) || reaches(b, a)
    };
    let mut keys: Vec<(u64, Option<NodeId>)> = tree
        .node_ids()
        .into_iter()
        .filter_map(|n| Some((tree.node_rect(n)?.min_dist2(q).to_bits(), Some(n))))
        .chain(
            tree.subtree_items(tree.root())
                .into_iter()
                .map(|(_, p)| (dist2(p, q).to_bits(), None)),
        )
        .collect();
    keys.sort_unstable();
    for group in keys.chunk_by(|a, b| a.0 == b.0) {
        for (i, a) in group.iter().enumerate() {
            for b in &group[i + 1..] {
                let nested = matches!((a.1, b.1), (Some(a), Some(b)) if on_one_path(a, b));
                assert!(nested, "fixture ties {a:?} with {b:?}");
            }
        }
    }
}

/// The dumb reference: score every item under `scope` with a plain
/// dimension-order sum and sort by `(d2 bits, id)`.
fn exhaustive_scan(tree: &RStarTree, scope: NodeId, q: &[f32]) -> Vec<(f64, u64)> {
    let mut scored: Vec<(f64, u64)> = tree
        .subtree_items(scope)
        .into_iter()
        .map(|(id, p)| (dist2(p, q), id))
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored
}

/// Unbudgeted `knn_in_budgeted` at leaf, level-1 and root scope is exactly
/// the exhaustive scan: same ids in the same order, same distance bits.
#[test]
fn unbudgeted_knn_equals_exhaustive_scan_at_every_scope() {
    let (tree, items) = oracle_fixture();
    for scope in oracle_scopes(&tree) {
        for q in inside_queries(&items)
            .into_iter()
            .chain(outside_queries(&items))
        {
            let scan = exhaustive_scan(&tree, scope, &q);
            assert!(
                scan.windows(2).all(|w| w[0].0 < w[1].0),
                "fixture must be tie-free"
            );
            for k in [1usize, 10, 50, scan.len(), scan.len() + 7] {
                let got = tree.knn_in_budgeted(scope, &q, k, None);
                assert!(!got.exhausted);
                assert_eq!(got.nodes_skipped, 0);
                let got: Vec<(u64, u32)> = got
                    .neighbors
                    .iter()
                    .map(|n| (n.id, n.distance.to_bits()))
                    .collect();
                let want: Vec<(u64, u32)> = scan
                    .iter()
                    .take(k)
                    .map(|&(d2, id)| (id, (d2.sqrt() as f32).to_bits()))
                    .collect();
                assert_eq!(got, want, "scope {} k {k}", scope.index());
            }
        }
    }
}

/// Every observable of the budgeted search — ids, distance bits and all five
/// counters — across the budget sweep, pinned against a golden captured from
/// the search loop that pushed every leaf entry through both heaps. Each
/// budgeted answer must also be a prefix-consistent subset of the scan: in
/// ascending order, and complete whenever the budget was not exhausted.
#[test]
fn knn_budget_sweep_matches_golden() {
    const BUDGETS: [Option<u64>; 7] = [
        Some(0),
        Some(1),
        Some(2),
        Some(64),
        Some(256),
        Some(1_000),
        None,
    ];
    let (tree, items) = oracle_fixture();
    let mut sweep = String::new();
    let mut pruned_total = 0u64;
    for scope in oracle_scopes(&tree) {
        for (qi, q) in outside_queries(&items).iter().enumerate() {
            assert_tie_free(&tree, q);
            let scan = exhaustive_scan(&tree, scope, q);
            for budget in BUDGETS {
                for k in [1usize, 10, 50] {
                    let b = tree.knn_in_budgeted(scope, q, k, budget);
                    if !b.exhausted {
                        let want: Vec<u64> = scan.iter().take(k).map(|s| s.1).collect();
                        let got: Vec<u64> = b.neighbors.iter().map(|n| n.id).collect();
                        assert_eq!(got, want);
                    }
                    assert!(b
                        .neighbors
                        .windows(2)
                        .all(|w| w[0].distance <= w[1].distance));
                    assert!(b.distances_pruned <= b.distance_computations);
                    pruned_total += b.distances_pruned;
                    let ids: Vec<String> = b
                        .neighbors
                        .iter()
                        .map(|n| format!("{}:{:08x}", n.id, n.distance.to_bits()))
                        .collect();
                    writeln!(
                        sweep,
                        "scope={} q={qi} budget={budget:?} k={k} accesses={} charged={} \
                         pruned={} skipped={} exhausted={} ids=[{}]",
                        scope.index(),
                        b.accesses,
                        b.distance_computations,
                        b.distances_pruned,
                        b.nodes_skipped,
                        b.exhausted,
                        ids.join(",")
                    )
                    .unwrap();
                }
            }
        }
    }
    assert!(pruned_total > 0, "the sweep never exercised the norm prune");
    assert_matches_golden("knn_budget_sweep.txt", &sweep);
}

/// Compares `actual` against `tests/golden/<file>`; `QD_UPDATE_GOLDEN=1`
/// rewrites the file instead (same convention as `arena_equivalence.rs`).
fn assert_matches_golden(file: &str, actual: &str) {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var("QD_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    if let Some((i, (e, a))) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (e, a))| e != a)
    {
        panic!(
            "golden {file} drifted at line {}:\n  expected: {e}\n  actual:   {a}",
            i + 1
        );
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "golden {file} drifted in length"
    );
}
