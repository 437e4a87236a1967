//! Property-based tests for the R\*-tree: search correctness against brute
//! force and structural invariants under arbitrary operation interleavings.

use proptest::prelude::*;
use query_decomposition::index::{
    persist, BudgetedKnn, KnnIndex, NodeId, RStarTree, Rect, TreeConfig,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write as _;

mod common;

fn dist2(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(x, y)| ((x - y) as f64).powi(2)).sum()
}

/// `(id, point)` of every entry under `n`, in `subtree_ids` order: leaves
/// popped off a stack, children pushed in chain order.
fn subtree_rows(tree: &RStarTree, n: NodeId) -> Vec<(u64, Vec<f32>)> {
    let mut rows = Vec::new();
    let mut stack = vec![n];
    while let Some(cur) = stack.pop() {
        rows.extend(tree.leaf_items(cur).map(|(id, p)| (id, p.to_vec())));
        stack.extend(tree.children(cur));
    }
    rows
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

    /// Invariants survive arbitrary insert/remove interleavings, every
    /// rectangle stays the tight box of its entries, and removed entries
    /// stay gone.
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
            common::assert_rects_tight(&tree);
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
            let local = subtree_rows(&tree, child);
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

/// `n` seeded 37-d points in twelve clusters at different distances from the
/// origin (so the norm lower bound has something to prune).
fn clustered_points(seed: u64, n: u64) -> Vec<(u64, Vec<f32>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> = (0..12)
        .map(|c| {
            let scale = 1.0 + c as f32;
            (0..ORACLE_DIMS)
                .map(|_| scale * rng.random_range(-1.0f32..1.0))
                .collect()
        })
        .collect();
    (0..n)
        .map(|id| {
            let center = &centers[rng.random_range(0..centers.len())];
            let p = center
                .iter()
                .map(|c| c + rng.random_range(-0.5f32..0.5))
                .collect();
            (id, p)
        })
        .collect()
}

/// 1 500 clustered points R\*-inserted into a small-fan-out tree of height 3.
fn oracle_fixture() -> (RStarTree, Vec<(u64, Vec<f32>)>) {
    let items = clustered_points(0x5EA2_C0DE, 1500);
    let tree = inserted(tree_config(ORACLE_DIMS, 8, 20), &items);
    tree.validate();
    assert_eq!(tree.height(), 3, "fixture must have leaf, level-1 and root");
    (tree, items)
}

fn first_child(tree: &RStarTree, n: NodeId) -> NodeId {
    tree.children(n).next().expect("an internal node")
}

/// Root, its first child (level 1) and that child's first child (a leaf).
fn oracle_scopes(tree: &RStarTree) -> [NodeId; 3] {
    let root = tree.root();
    let mid = first_child(tree, root);
    let leaf = first_child(tree, mid);
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
        .filter_map(|n| Some((tree.node_rect(n)?.min_dist2(q).to_bits(), Some(n))))
        .chain(
            subtree_rows(tree, tree.root())
                .into_iter()
                .map(|(_, p)| (dist2(&p, q).to_bits(), None)),
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
    let mut scored: Vec<(f64, u64)> = subtree_rows(tree, scope)
        .into_iter()
        .map(|(id, p)| (dist2(&p, q), id))
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

/// The all-tie build of `build_digests.txt`, line (d): 1 500 points on the
/// grid `{0, 1, 2}^5 × {1}` in nodes of at most 10 — 243 distinct points at
/// most, every rectangle's corners on the grid, so every image distance and
/// every MINDIST from a grid or half-integer query is a small multiple of
/// 1/4, exact in f64.
fn tie_fixture() -> (RStarTree, Vec<(u64, Vec<f32>)>) {
    let items = grid_points(0x71E5, 1500, 6, 3);
    let tree = inserted(tree_config(6, 4, 10), &items);
    assert_eq!(tree.height(), 4);
    (tree, items)
}

/// Every observable of the budgeted search where the budget sweep above is
/// blind by construction: on ties. Image distances coincide with each other
/// and with node MINDISTs all the time here, so which of two equidistant
/// images is answered, and whether an image at distance `d` comes before the
/// images of a node at MINDIST `d`, decide ids, counters and exhaustion
/// points on almost every line. Pinned against a golden captured from the
/// search loop that popped images and nodes off one totally ordered
/// frontier (`tests/golden/knn_tie_sweep.txt`, generated at the commit
/// before the one-heap loop; it must hold in the test and release profile).
#[test]
fn knn_tie_sweep_matches_golden() {
    const BUDGETS: [Option<u64>; 5] = [None, Some(16), Some(64), Some(256), Some(1024)];
    let (tree, items) = tie_fixture();
    let root = tree.root();
    let level2 = first_child(&tree, root);
    let last = tree.children(root).last().unwrap();
    let level1 = first_child(&tree, last);
    let leaf = first_child(&tree, level1);
    assert!(tree.is_leaf(leaf) && tree.level(level1) == 1 && tree.level(level2) == 2);
    // Two grid points (the centre of the data; one step outside its
    // bounding box on every axis) and two half-integer points (inside every
    // cell wall; half a step outside the box on two axes).
    let queries: [[f32; 6]; 4] = [
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        [-1.0, -1.0, 3.0, 3.0, -1.0, 1.0],
        [0.5, 1.5, 0.5, 1.5, 0.5, 1.0],
        [-0.5, 1.0, 2.5, 0.5, 1.0, 1.0],
    ];

    // The fixture really ties at the root. Images tie with each other on
    // every query: 1 500 of them share a few dozen distances. And on every
    // query but the third they tie with MINDISTs: leaves that hold an image
    // exactly at their own positive MINDIST (it is answered after every
    // image already scored at that distance, whatever its id), and images
    // exactly at the MINDIST of some other node (they are answered before
    // that node is opened).
    for (qi, q) in queries.iter().enumerate() {
        let mindists: Vec<(NodeId, u64)> = tree
            .node_ids()
            .filter_map(|n| Some((n, tree.node_rect(n)?.min_dist2(q).to_bits())))
            .collect();
        let at_own_leaf: usize = mindists
            .iter()
            .map(|&(n, m)| {
                let at_m = |(_, p): (u64, &[f32])| m != 0 && dist2(p, q).to_bits() == m;
                tree.leaf_items(n).filter(|&e| at_m(e)).count()
            })
            .sum();
        let distances: Vec<u64> = items.iter().map(|(_, p)| dist2(p, q).to_bits()).collect();
        let at_a_node = distances
            .iter()
            .filter(|&&d| mindists.iter().any(|&(_, m)| m == d))
            .count();
        let distinct: std::collections::BTreeSet<u64> = distances.iter().copied().collect();
        assert!(distinct.len() <= 40, "q{qi}: {} distances", distinct.len());
        if qi != 2 {
            assert!(
                at_own_leaf >= 5,
                "q{qi}: {at_own_leaf} image = own leaf ties"
            );
            assert!(at_a_node >= 500, "q{qi}: {at_a_node} image = node ties");
        }
    }

    let mut sweep = String::new();
    let (mut exhausted_lines, mut pruned_total) = (0usize, 0u64);
    for scope in [root, level2, level1, leaf] {
        for (qi, q) in queries.iter().enumerate() {
            let scan = exhaustive_scan(&tree, scope, q);
            for budget in BUDGETS {
                for k in [1usize, 2, 3, 7, 10, 40, 300] {
                    let b = tree.knn_in_budgeted(scope, q, k, budget);
                    // Ids are the tie order's to choose; the distances are
                    // not: each is the id's own, and an unexhausted answer
                    // carries the scan's `k` smallest.
                    let mut seen = std::collections::BTreeSet::new();
                    for n in &b.neighbors {
                        assert!(seen.insert(n.id), "id {} answered twice", n.id);
                        let d2 = dist2(&items[n.id as usize].1, q);
                        assert_eq!(n.distance.to_bits(), (d2.sqrt() as f32).to_bits());
                    }
                    assert!(b
                        .neighbors
                        .windows(2)
                        .all(|w| w[0].distance <= w[1].distance));
                    if !b.exhausted {
                        let want: Vec<u32> = scan
                            .iter()
                            .take(k)
                            .map(|s| (s.0.sqrt() as f32).to_bits())
                            .collect();
                        let got: Vec<u32> =
                            b.neighbors.iter().map(|n| n.distance.to_bits()).collect();
                        assert_eq!(got, want);
                        assert_eq!(b.nodes_skipped, 0);
                    }
                    exhausted_lines += usize::from(b.exhausted);
                    pruned_total += b.distances_pruned;
                    // Ids in answer order, grouped under their distance.
                    let groups: Vec<String> = b
                        .neighbors
                        .chunk_by(|a, b| a.distance.to_bits() == b.distance.to_bits())
                        .map(|g| {
                            let ids: Vec<String> = g.iter().map(|n| n.id.to_string()).collect();
                            format!("{:08x}:{}", g[0].distance.to_bits(), ids.join(","))
                        })
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
                        groups.join(" ")
                    )
                    .unwrap();
                }
            }
        }
    }
    assert!(
        exhausted_lines >= 50,
        "only {exhausted_lines} exhausted lines"
    );
    assert!(pruned_total > 0, "the sweep never exercised the norm prune");
    assert_matches_golden("knn_tie_sweep.txt", &sweep);
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

// ---------------------------------------------------------------------
// The construction pin (DESIGN.md §11, "construction core").
// ---------------------------------------------------------------------

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn tree_config(dims: usize, min_entries: usize, max_entries: usize) -> TreeConfig {
    TreeConfig {
        dims,
        min_entries,
        max_entries,
        reinsert_fraction: 0.3,
    }
}

fn inserted(config: TreeConfig, items: &[(u64, Vec<f32>)]) -> RStarTree {
    let mut tree = RStarTree::new(config);
    for (id, p) in items {
        tree.insert(p.clone(), *id);
    }
    tree
}

/// `n` points of `dims` dimensions on the integer grid `0..side`, the last
/// dimension constant: every rectangle has zero volume, so every area,
/// enlargement and overlap the insertion compares is exactly 0.0 and only
/// the tie order decides — among many exact duplicates (`side^(dims-1)`
/// distinct points at most).
fn grid_points(seed: u64, n: u64, dims: usize, side: u32) -> Vec<(u64, Vec<f32>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|id| {
            let mut p: Vec<f32> = (1..dims)
                .map(|_| rng.random_range(0..side) as f32)
                .collect();
            p.push(1.0);
            (id, p)
        })
        .collect()
}

fn uniform_point(rng: &mut StdRng, dims: usize) -> Vec<f32> {
    (0..dims).map(|_| rng.random::<f32>() * 10.0).collect()
}

/// A seeded walk of inserts and removes over `tree`, shrinking first and
/// growing afterwards. Removes eat a hole around a probe that moves every 50
/// steps, so whole leaves (and their parents) underflow: condensation
/// orphans entries and subtrees, and later inserts land in free-listed
/// nodes and slots.
fn churn(tree: &mut RStarTree, items: &[(u64, Vec<f32>)], seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = tree.dims();
    let mut live: Vec<(u64, Vec<f32>)> = items.to_vec();
    let mut next_id = items.len() as u64;
    let built_nodes = tree.node_count();
    let mut fewest_nodes = built_nodes;
    let mut hole = Vec::new();
    for step in 0..steps {
        if step % 50 == 0 {
            hole = uniform_point(&mut rng, dims);
        }
        let shrinking = step < steps * 5 / 8;
        if rng.random_range(0..10) < if shrinking { 8 } else { 2 } {
            let nearest = (0..live.len())
                .min_by(|&a, &b| dist2(&live[a].1, &hole).total_cmp(&dist2(&live[b].1, &hole)))
                .expect("the walk never empties the tree");
            let (id, p) = live.swap_remove(nearest);
            assert!(tree.remove(&p, id));
        } else {
            let p = uniform_point(&mut rng, dims);
            tree.insert(p.clone(), next_id);
            live.push((next_id, p));
            next_id += 1;
        }
        fewest_nodes = fewest_nodes.min(tree.node_count());
    }
    assert_eq!(tree.len(), live.len());
    assert!(fewest_nodes < built_nodes, "the walk condensed no node");
}

/// One golden line: the QDT2 encoding's length and FNV-1a-64 (the
/// `format_digests.txt` convention) plus the node count, the height and the
/// node accesses the construction charged — a changed `touch` count fails
/// even where the bytes agree.
fn digest_line(name: &str, tree: &RStarTree) -> String {
    tree.validate();
    common::assert_rects_tight(tree);
    let bytes = persist::to_bytes(tree);
    format!(
        "{name} QDT2 len={} fnv1a64={:016x} nodes={} height={} accesses={}\n",
        bytes.len(),
        fnv1a64(&bytes),
        tree.node_count(),
        tree.height(),
        tree.accesses()
    )
}

/// The five builds behind `build_digests.txt`, in its line order.
fn digest_fixtures() -> [(&'static str, RStarTree); 5] {
    // (a) leaf-level forced reinsertion and splits at the paper's M = 100
    // over 37-d volumes; (b) the same points in a tree tall enough for
    // subtree reinsertion and internal splits over 37-d box entries.
    let clustered = clustered_points(0xB01D_D16E, 4000);
    let paper = inserted(TreeConfig::paper(ORACLE_DIMS), &clustered);
    assert!(paper.height() >= 2);
    let tall = inserted(tree_config(ORACLE_DIMS, 6, 16), &clustered);
    assert!(tall.height() >= 4, "height {}", tall.height());

    // (c) cascading splits dominate; (e) the same tree after churn.
    let mut rng = StdRng::seed_from_u64(0xCA5C_ADE5);
    let low_d: Vec<(u64, Vec<f32>)> = (0..3000u64)
        .map(|id| (id, uniform_point(&mut rng, 4)))
        .collect();
    let small = inserted(TreeConfig::small(4), &low_d);
    assert!(small.height() >= 5, "height {}", small.height());
    let mut churned = small.clone();
    churn(&mut churned, &low_d, 0xC4A2, 400);

    // (d) only the tie order decides.
    let ties = inserted(tree_config(6, 4, 10), &grid_points(0x71E5, 1500, 6, 3));
    assert!(ties.height() >= 3);

    [
        ("clustered37d_paper", paper),
        ("clustered37d_m6_M16", tall),
        ("uniform4d_small", small),
        ("grid6d_ties_m4_M10", ties),
        ("uniform4d_small_churned", churned),
    ]
}

/// Pins R\* construction to the bit on builds the 300-image structure
/// golden does not reach. `tests/golden/build_digests.txt` was generated by
/// this test at the commit before the insertion fast path landed; the fast
/// path changes no decision, so it must reproduce every line, in the test
/// and the release profile alike. `QD_UPDATE_GOLDEN=1` rewrites the file —
/// which means a tree-shaping decision changed. The trees are built by plain
/// `insert` and never compacted: slots in arrival order, as the bytes were
/// pinned.
#[test]
fn build_digests_match_golden() {
    let actual: String = digest_fixtures()
        .iter()
        .map(|(name, tree)| digest_line(name, tree))
        .collect();
    assert_matches_golden("build_digests.txt", &actual);
}

// ---------------------------------------------------------------------
// The slot-order pin (DESIGN.md §11, "Slot order").
// ---------------------------------------------------------------------

/// Everything about a tree but where its vectors sit in the feature block:
/// per live node its index, level, parent, children in chain order,
/// rectangle bits, and the `(id, point bits)` sequence of a leaf.
fn structure_dump(tree: &RStarTree) -> String {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let mut out = format!(
        "root={} len={} height={}\n",
        tree.root().index(),
        tree.len(),
        tree.height()
    );
    for n in tree.node_ids() {
        let children: Vec<usize> = tree.children(n).map(NodeId::index).collect();
        let rect = tree.node_rect(n).map(|r| (bits(r.min()), bits(r.max())));
        let entries: Vec<(u64, Vec<u32>)> =
            tree.leaf_items(n).map(|(id, p)| (id, bits(p))).collect();
        writeln!(
            out,
            "node={} level={} parent={:?} children={children:?} rect={rect:?} entries={entries:?}",
            n.index(),
            tree.level(n),
            tree.parent(n).map(NodeId::index),
        )
        .unwrap();
    }
    out
}

/// The vectors of the leaves, taken depth-first along the child chains and
/// in each leaf's entry order, lie back to back in memory: each starts where
/// the one before it ended. Returns how many entries were walked.
fn contiguous_entries(tree: &RStarTree) -> Result<usize, String> {
    let mut next: Option<*const f32> = None;
    let mut walked = 0usize;
    let mut stack = vec![tree.root()];
    while let Some(n) = stack.pop() {
        for (id, p) in tree.leaf_items(n) {
            if next.is_some_and(|at| at != p.as_ptr()) {
                return Err(format!("entry {id} of leaf {} breaks the run", n.index()));
            }
            next = Some(p.as_ptr().wrapping_add(p.len()));
            walked += 1;
        }
        let first = stack.len();
        stack.extend(tree.children(n));
        stack[first..].reverse();
    }
    Ok(walked)
}

/// A budget/`k`/scope sweep of `knn_in_budgeted` over `tree`, every answer
/// with all its counters.
fn knn_sweep(tree: &RStarTree, queries: &[Vec<f32>]) -> Vec<BudgetedKnn> {
    let root = tree.root();
    let mid = first_child(tree, root);
    let leaf = std::iter::successors(Some(mid), |&n| tree.children(n).next())
        .last()
        .expect("a chain of first children ends in a leaf");
    let mut answers = Vec::new();
    for scope in [root, mid, leaf] {
        for q in queries {
            for budget in [Some(0), Some(2), Some(64), Some(256), Some(1_000), None] {
                for k in [1usize, 10, 50] {
                    answers.push(tree.knn_in_budgeted(scope, q, k, budget));
                }
            }
        }
    }
    answers
}

/// A seeded walk of 2 removes of a random live entry to 1 insert beside one,
/// checked at the end against its own membership list.
fn update_walk(tree: &mut RStarTree, seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live = subtree_rows(tree, tree.root());
    let mut next_id = 1u64 << 32;
    for _ in 0..steps {
        let i = rng.random_range(0..live.len());
        if rng.random_range(0..3) == 0 {
            let p: Vec<f32> = live[i]
                .1
                .iter()
                .map(|v| v + rng.random_range(-0.5f32..0.5))
                .collect();
            tree.insert(p.clone(), next_id);
            live.push((next_id, p));
            next_id += 1;
        } else {
            let (id, p) = live.swap_remove(i);
            assert!(tree.remove(&p, id), "entry {id} not found");
        }
    }
    tree.validate();
    let mut stored: Vec<u64> = tree.subtree_ids(tree.root()).into_iter().collect();
    let mut expected: Vec<u64> = live.iter().map(|e| e.0).collect();
    stored.sort_unstable();
    expected.sort_unstable();
    assert_eq!(stored, expected);
}

/// `compact` is a permutation of the feature slots and nothing else. On the
/// five construction fixtures (the churned one carries free-listed slots)
/// and the search oracle's: the structure dump, every budgeted answer with
/// its counters, and what a further insert/remove walk does to the tree are
/// the same before and after; afterwards the leaves' vectors are one linear
/// walk of a block with no dead slot in it; and a second call changes
/// nothing.
#[test]
fn compact_permutes_feature_slots_and_nothing_else() {
    let (oracle, oracle_items) = oracle_fixture();
    let oracle_queries = outside_queries(&oracle_items);
    let fixtures = digest_fixtures()
        .into_iter()
        .chain([("oracle37d_m8_M20", oracle)]);
    for (name, plain) in fixtures {
        let mut compacted = plain.clone();
        compacted.compact();
        compacted.validate();
        common::assert_rects_tight(&compacted);
        assert_eq!(structure_dump(&compacted), structure_dump(&plain), "{name}");

        // Insertion leaves slots in arrival order: nowhere near one run.
        assert!(contiguous_entries(&plain).is_err(), "{name}");
        assert_eq!(contiguous_entries(&compacted), Ok(plain.len()), "{name}");
        // No dead slot and no free list survive: the encoding is that of a
        // tree whose store holds exactly its points.
        let bytes = persist::to_bytes(&compacted);
        let shrunk = persist::to_bytes(&plain).len() - bytes.len();
        assert_eq!(shrunk > 0, name.ends_with("churned"), "{name}: {shrunk}");
        persist::from_bytes(&bytes).unwrap().validate();
        let mut again = compacted.clone();
        again.compact();
        assert_eq!(persist::to_bytes(&again), bytes, "{name}: not idempotent");

        let queries: Vec<Vec<f32>> = if plain.dims() == ORACLE_DIMS {
            oracle_queries.clone()
        } else {
            let some = subtree_rows(&plain, plain.root());
            [3usize, 77, 500]
                .iter()
                .map(|&i| some[i].1.iter().map(|v| v + 0.25).collect())
                .collect()
        };
        assert_eq!(
            knn_sweep(&compacted, &queries),
            knn_sweep(&plain, &queries),
            "{name}"
        );

        // Updates after compaction: the same walk shapes the same tree, on
        // whichever slots the new rows land.
        let (mut a, mut b) = (plain, compacted);
        update_walk(&mut a, 0x5107, 150);
        update_walk(&mut b, 0x5107, 150);
        common::assert_rects_tight(&b);
        assert_eq!(
            structure_dump(&b),
            structure_dump(&a),
            "{name}: after the walk"
        );
    }
}
