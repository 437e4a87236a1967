//! Localized multipoint k-NN computation (§3.3).
//!
//! In the final feedback round, each subset of relevant images belonging to
//! one subcluster becomes a *localized multipoint query*. The query is
//! answered inside that subcluster alone — unless some query image sits near
//! the subcluster's boundary, in which case the search area is expanded to
//! the parent cluster (and onward up the hierarchy) so that relevant images
//! just across the boundary in sibling clusters are not missed.
//!
//! The boundary test is the paper's ratio criterion: an image is "near the
//! boundary" when `distance(image, node center) / node diagonal` exceeds a
//! threshold (0.4 for the paper's database).

use crate::error::QdError;
use qd_index::{KnnIndex, Neighbor, NodeId};
use qd_linalg::metric::euclidean;
use qd_linalg::vector::centroid;

/// One localized subquery: the relevant images the user marked inside a
/// single subcluster.
#[derive(Debug, Clone)]
pub struct LocalQuery {
    /// The subcluster (tree node) the feedback came from.
    pub home: NodeId,
    /// Relevant image ids marked in this subcluster.
    pub query_points: Vec<usize>,
}

/// The answer to one localized subquery.
#[derive(Debug, Clone)]
pub struct LocalResult {
    /// The subcluster the feedback came from.
    pub home: NodeId,
    /// The node actually searched after boundary expansion.
    pub scope: NodeId,
    /// Candidate images, ascending by distance to the local query centroid.
    pub neighbors: Vec<Neighbor>,
    /// Number of user-marked relevant images backing this subquery — the
    /// merge step allocates result slots proportionally to this (§3.4).
    pub support: usize,
    /// Index node reads this subquery performed (call-local accounting, so
    /// concurrent subqueries over a shared tree never mix their costs).
    pub accesses: u64,
    /// Distance evaluations this subquery performed — the deterministic cost
    /// unit the anytime budget is charged in.
    pub distance_computations: u64,
    /// Frontier nodes the k-NN left unexplored because its budget ran out.
    pub nodes_skipped: u64,
    /// Whole index partitions (shards) that contributed nothing to this
    /// subquery because their scatter leg failed. Always 0 over a monolithic
    /// tree; the session layer folds it into degradation reporting.
    pub legs_dropped: u64,
    /// True when the budget ran out and `neighbors` is best-so-far rather
    /// than the exact local answer.
    pub exhausted: bool,
}

/// Applies the boundary-ratio test: starting at `home`, expands to the parent
/// while any query image lies within `threshold` of the boundary (i.e. its
/// center-distance ratio exceeds `threshold`).
pub fn resolve_scope<I: KnnIndex>(
    tree: &I,
    home: NodeId,
    query_features: &[&[f32]],
    threshold: f32,
) -> NodeId {
    let mut scope = home;
    while let Some(rect) = tree.node_rect(scope) {
        let center = rect.center();
        let diagonal = rect.diagonal();
        let worst = query_features
            .iter()
            .map(|q| euclidean(q, &center))
            .fold(0.0f32, f32::max);
        // A degenerate (point) node has zero diagonal: any off-center query
        // image forces expansion.
        let near_boundary = if diagonal <= f32::EPSILON {
            worst > 0.0
        } else {
            worst / diagonal > threshold
        };
        if !near_boundary {
            break;
        }
        match tree.parent(scope) {
            Some(parent) => {
                qd_obs::count(qd_obs::ctr::KNN_ESCALATIONS, 1);
                scope = parent;
            }
            None => break,
        }
    }
    scope
}

/// The fallible, budget-aware core of localized multipoint k-NN: resolves
/// the scope, forms the multipoint query centroid, and fetches the `fetch`
/// nearest images inside the scope — validating the query instead of
/// panicking on bad input, and honoring an optional distance-computation
/// budget (the anytime contract: an exhausted budget yields best-so-far
/// neighbors with [`LocalResult::exhausted`] set, never an error).
///
/// `min_pool` guards against starving the merge step: when the resolved
/// scope holds fewer than `min_pool` images the scope is expanded to
/// ancestors until it can supply that many candidates (or the root is
/// reached). Pass 0 to disable.
#[expect(
    clippy::too_many_arguments,
    reason = "tree, features and query plus five knobs; the one engine caller, \
              try_execute_subqueries, threads config fields straight through"
)]
pub fn try_run_local_query<I: KnnIndex>(
    tree: &I,
    features: &[Vec<f32>],
    query: &LocalQuery,
    threshold: f32,
    fetch: usize,
    min_pool: usize,
    weights: Option<&[f32]>,
    budget: Option<u64>,
) -> Result<LocalResult, QdError> {
    if query.query_points.is_empty() {
        return Err(QdError::EmptySubquery { subquery: 0 });
    }
    if !tree.contains_node(query.home) {
        return Err(QdError::UnknownNode {
            subquery: 0,
            node_index: query.home.index(),
        });
    }
    for &id in &query.query_points {
        if id >= features.len() {
            return Err(QdError::ImageOutOfRange {
                subquery: 0,
                image: id,
                corpus_len: features.len(),
            });
        }
    }
    let query_features: Vec<&[f32]> = query
        .query_points
        .iter()
        .map(|&id| features[id].as_slice())
        .collect();
    if let Some(w) = weights {
        if w.len() != query_features[0].len() {
            return Err(QdError::WeightDimension {
                got: w.len(),
                want: query_features[0].len(),
            });
        }
    }
    let mut scope = resolve_scope(tree, query.home, &query_features, threshold);
    while tree.subtree_len(scope) < min_pool {
        match tree.parent(scope) {
            Some(parent) => {
                qd_obs::count(qd_obs::ctr::KNN_ESCALATIONS, 1);
                scope = parent;
            }
            None => break,
        }
    }
    let multipoint: Vec<f32> = centroid(&query_features);
    let support = query.query_points.len();

    match weights {
        None => {
            let b = tree.knn_in_budgeted(scope, &multipoint, fetch, budget);
            qd_obs::count(qd_obs::ctr::KNN_DISTANCE, b.distance_computations);
            qd_obs::count(qd_obs::ctr::KNN_FRONTIER, b.accesses);
            qd_obs::count(qd_obs::ctr::KNN_NODES_SKIPPED, b.nodes_skipped);
            qd_obs::count(qd_obs::ctr::KNN_BUDGET_EXHAUSTED, u64::from(b.exhausted));
            Ok(LocalResult {
                home: query.home,
                scope,
                neighbors: b.neighbors,
                support,
                accesses: b.accesses,
                distance_computations: b.distance_computations,
                nodes_skipped: b.nodes_skipped,
                legs_dropped: b.partitions_dropped,
                exhausted: b.exhausted,
            })
        }
        Some(w) => {
            // Weighted ranking scans the scope's items directly rather than
            // threading a weighted MINDIST through the tree (scopes are small
            // subclusters). The budget caps the number of items scored; the
            // scan order is the tree's deterministic subtree traversal, so a
            // truncated scan is still bit-identical at every thread count.
            let metric = qd_linalg::Metric::WeightedEuclidean(w.to_vec());
            let total = tree.subtree_len(scope);
            let allowed = match budget {
                Some(b) => (b as usize).min(total),
                None => total,
            };
            let skipped = (total - allowed) as u64;
            qd_obs::count(qd_obs::ctr::KNN_DISTANCE, allowed as u64);
            qd_obs::count(qd_obs::ctr::KNN_NODES_SKIPPED, skipped);
            qd_obs::count(qd_obs::ctr::KNN_BUDGET_EXHAUSTED, u64::from(skipped > 0));
            // Points come from the caller's table: the index holds ids the
            // table must cover, which a mismatched tree/corpus pair breaks.
            let mut scored = Vec::with_capacity(allowed);
            for id in tree.subtree_ids(scope).into_iter().take(allowed) {
                let point = features.get(id as usize).ok_or(QdError::ImageOutOfRange {
                    subquery: 0,
                    image: id as usize,
                    corpus_len: features.len(),
                })?;
                scored.push(Neighbor {
                    id,
                    distance: metric.distance(point, &multipoint),
                });
            }
            scored.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
            scored.truncate(fetch);
            Ok(LocalResult {
                home: query.home,
                scope,
                neighbors: scored,
                support,
                // The weighted path performs zero `knn_in_budgeted` node reads, same
                // as the global counter's accounting.
                accesses: 0,
                distance_computations: allowed as u64,
                nodes_skipped: skipped,
                // The weighted scan reads every scope item directly, never
                // scattering across partitions — no legs to lose.
                legs_dropped: 0,
                exhausted: skipped > 0,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_index::{RStarTree, TreeConfig};

    /// Two blobs far apart; tree with tiny nodes so the hierarchy is deep.
    fn setup() -> (RStarTree, Vec<Vec<f32>>) {
        let mut features = Vec::new();
        for i in 0..40 {
            let j = (i % 8) as f32 * 0.05;
            features.push(vec![j, i as f32 * 0.01]); // blob A near origin
        }
        for i in 0..40 {
            let j = (i % 8) as f32 * 0.05;
            features.push(vec![20.0 + j, i as f32 * 0.01]); // blob B
        }
        let items = features
            .iter()
            .enumerate()
            .map(|(i, f)| (i as u64, f.clone()))
            .collect();
        (RStarTree::bulk_load(TreeConfig::small(2), items), features)
    }

    #[test]
    fn central_query_stays_in_home_node() {
        let (tree, features) = setup();
        let home = tree.root(); // root center covers everything
        let q = [features[0].as_slice()];
        // With the root as home there is nowhere to expand; scope == root.
        assert_eq!(resolve_scope(&tree, home, &q, 0.4), home);
    }

    #[test]
    fn boundary_query_expands_to_parent() {
        let (tree, features) = setup();
        // Pick a leaf and a query image far from that leaf's center: use an
        // image from the other blob.
        let leaf = {
            let mut found = None;
            for n in tree.node_ids() {
                if tree.is_leaf(n) {
                    let id = tree.leaf_ids(n).next().unwrap();
                    if (id as usize) < 40 {
                        found = Some(n);
                        break;
                    }
                }
            }
            found.unwrap()
        };
        let far_image = features[79].as_slice(); // other blob
        let scope = resolve_scope(&tree, leaf, &[far_image], 0.4);
        assert_ne!(scope, leaf, "far query must expand beyond the leaf");
        // Expansion walks the ancestor chain.
        let mut cur = leaf;
        let mut is_ancestor = false;
        while let Some(p) = tree.parent(cur) {
            if p == scope {
                is_ancestor = true;
                break;
            }
            cur = p;
        }
        assert!(is_ancestor || scope == tree.root());
    }

    #[test]
    fn threshold_zero_always_expands_to_root() {
        let (tree, features) = setup();
        let leaf = tree.node_ids().find(|&n| tree.is_leaf(n)).unwrap();
        let q = [features[1].as_slice()];
        assert_eq!(resolve_scope(&tree, leaf, &q, 0.0), tree.root());
    }

    #[test]
    fn threshold_one_rarely_expands() {
        let (tree, features) = setup();
        // A query image inside its own leaf: ratio ≤ 1 always (the image is
        // inside the rect, so distance-to-center ≤ diagonal… in fact ≤ D/2).
        for n in tree.node_ids() {
            if !tree.is_leaf(n) {
                continue;
            }
            let id = tree.leaf_ids(n).next().unwrap();
            let q = [features[id as usize].as_slice()];
            assert_eq!(resolve_scope(&tree, n, &q, 1.0), n);
        }
    }

    #[test]
    fn local_query_returns_neighbors_from_scope_only() {
        let (tree, features) = setup();
        let leaf = {
            // A leaf wholly inside blob A.
            tree.node_ids()
                .find(|&n| tree.is_leaf(n) && tree.leaf_ids(n).all(|id| (id as usize) < 40))
                .unwrap()
        };
        let member = tree.leaf_ids(leaf).next().unwrap() as usize;
        let lq = LocalQuery {
            home: leaf,
            query_points: vec![member],
        };
        let result = try_run_local_query(&tree, &features, &lq, 0.9, 5, 0, None, None).unwrap();
        assert_eq!(result.support, 1);
        assert!(!result.neighbors.is_empty());
        // All neighbors come from the resolved scope's subtree.
        let scope_members: std::collections::BTreeSet<u64> =
            tree.subtree_ids(result.scope).into_iter().collect();
        for n in &result.neighbors {
            assert!(scope_members.contains(&n.id));
        }
        // Neighbors ascend by distance.
        for w in result.neighbors.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn multipoint_centroid_attracts_between_query_points() {
        let (tree, features) = setup();
        // Two query points at opposite ends of blob A; the centroid sits
        // between them, so the nearest neighbor should be a middle image.
        let lq = LocalQuery {
            home: tree.root(),
            query_points: vec![0, 39],
        };
        let result = try_run_local_query(&tree, &features, &lq, 1.0, 40, 0, None, None).unwrap();
        assert_eq!(result.neighbors.len(), 40);
        // Everything retrieved first is from blob A (ids < 40).
        for n in &result.neighbors[..10] {
            assert!(n.id < 40, "blob B leaked into local result");
        }
    }

    #[test]
    fn try_run_rejects_malformed_queries_with_typed_errors() {
        let (tree, features) = setup();
        let empty = LocalQuery {
            home: tree.root(),
            query_points: vec![],
        };
        assert!(matches!(
            try_run_local_query(&tree, &features, &empty, 0.4, 5, 0, None, None),
            Err(QdError::EmptySubquery { subquery: 0 })
        ));

        let out_of_range = LocalQuery {
            home: tree.root(),
            query_points: vec![features.len() + 3],
        };
        assert!(matches!(
            try_run_local_query(&tree, &features, &out_of_range, 0.4, 5, 0, None, None),
            Err(QdError::ImageOutOfRange { .. })
        ));

        // A deep node id from the big tree does not exist in a tiny tree.
        let tiny_items = (0..3u64).map(|id| (id, vec![id as f32, 0.0])).collect();
        let tiny = RStarTree::bulk_load(TreeConfig::small(2), tiny_items);
        let tiny_features: Vec<Vec<f32>> = (0..3).map(|i| vec![i as f32, 0.0]).collect();
        let foreign = tree
            .node_ids()
            .find(|&n| !tiny.contains_node(n))
            .expect("big tree must hold a node unknown to the tiny tree");
        let divergent = LocalQuery {
            home: foreign,
            query_points: vec![0],
        };
        assert!(matches!(
            try_run_local_query(&tiny, &tiny_features, &divergent, 0.4, 5, 0, None, None),
            Err(QdError::UnknownNode { .. })
        ));

        let ok = LocalQuery {
            home: tree.root(),
            query_points: vec![0, 1],
        };
        assert!(matches!(
            try_run_local_query(&tree, &features, &ok, 0.4, 5, 0, Some(&[1.0]), None),
            Err(QdError::WeightDimension { got: 1, want: 2 })
        ));
    }

    #[test]
    fn weighted_scan_of_an_index_beyond_the_feature_table_is_a_typed_error() {
        // The weighted scan reads each scope member's point from the
        // caller's table. Cut the table just past the first id the scan
        // visits, so the tree holds ids the table does not.
        let (tree, mut features) = setup();
        let order: Vec<u64> = tree.subtree_ids(tree.root()).into_iter().collect();
        let cut = order[0] as usize + 1;
        assert!(
            cut < features.len(),
            "fixture: the scan starts at the last id"
        );
        features.truncate(cut);
        let lq = LocalQuery {
            home: tree.root(),
            query_points: vec![0],
        };
        let weights = [1.0f32, 2.0];
        let scan =
            |budget| try_run_local_query(&tree, &features, &lq, 0.4, 5, 0, Some(&weights), budget);
        match scan(None) {
            Err(QdError::ImageOutOfRange {
                subquery: 0,
                image,
                corpus_len,
            }) => assert!(
                corpus_len == cut && image >= cut,
                "image {image} of {corpus_len}"
            ),
            other => panic!("expected ImageOutOfRange, got {other:?}"),
        }
        // A budget that stops the scan before the first missing id answers.
        let in_table = order.iter().take_while(|&&id| (id as usize) < cut).count();
        let partial = scan(Some(in_table as u64)).unwrap();
        assert!(partial.exhausted);
        assert_eq!(partial.distance_computations, in_table as u64);
        assert!(partial.neighbors.iter().all(|n| (n.id as usize) < cut));
    }

    #[test]
    fn budget_exhaustion_degrades_to_a_valid_prefix() {
        let (tree, features) = setup();
        let lq = LocalQuery {
            home: tree.root(),
            query_points: vec![0, 3, 7],
        };
        let unlimited = try_run_local_query(&tree, &features, &lq, 0.4, 20, 0, None, None).unwrap();
        assert!(!unlimited.exhausted);
        assert!(unlimited.distance_computations > 0);

        for budget in [0u64, 1, 5, 25, 100, 10_000] {
            let r =
                try_run_local_query(&tree, &features, &lq, 0.4, 20, 0, None, Some(budget)).unwrap();
            // Valid ranked list: unique in-range ids, ascending distances.
            let mut ids: Vec<u64> = r.neighbors.iter().map(|n| n.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(
                ids.len(),
                r.neighbors.len(),
                "budget {budget}: duplicate ids"
            );
            for n in &r.neighbors {
                assert!((n.id as usize) < features.len());
            }
            for w in r.neighbors.windows(2) {
                assert!(w[0].distance <= w[1].distance);
            }
            if !r.exhausted {
                assert_eq!(r.neighbors.len(), unlimited.neighbors.len());
                assert_eq!(r.nodes_skipped, 0);
            }
            // Deterministic for a fixed budget.
            let again =
                try_run_local_query(&tree, &features, &lq, 0.4, 20, 0, None, Some(budget)).unwrap();
            assert_eq!(r.neighbors, again.neighbors);
            assert_eq!(r.distance_computations, again.distance_computations);
            assert_eq!(r.exhausted, again.exhausted);
        }
    }
}
