//! Property tests for the boundary-expansion rule (§3.3,
//! `qd_core::localknn::resolve_scope`): the resolved search scope is always
//! the home node or one of its ancestors, a threshold of 1.0 never expands a
//! query formed from the node's own members, a threshold of 0.0 always
//! expands an off-center query, and expansion is monotone in the threshold.

use proptest::prelude::*;
use query_decomposition::core::localknn::resolve_scope;
use query_decomposition::index::{KnnIndex, NodeId, RStarTree, TreeConfig};

fn points() -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-10.0f32..10.0, 3), 40..120)
}

fn build_tree(points: &[Vec<f32>]) -> RStarTree {
    let items = points
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u64, p.clone()))
        .collect();
    RStarTree::bulk_load(TreeConfig::small(3), items)
}

/// True if `scope` equals `home` or lies on `home`'s ancestor chain.
fn is_home_or_ancestor(tree: &RStarTree, scope: NodeId, home: NodeId) -> bool {
    let mut cur = home;
    loop {
        if cur == scope {
            return true;
        }
        match tree.parent(cur) {
            Some(p) => cur = p,
            None => return false,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the query and threshold, expansion only ever walks the
    /// ancestor chain: the scope is the home node or an ancestor of it.
    #[test]
    fn scope_is_always_home_or_an_ancestor(
        pts in points(),
        home_sel in any::<prop::sample::Index>(),
        q_sel in any::<prop::sample::Index>(),
        scale in 0.1f32..3.0,
        threshold in 0.0f32..1.0,
    ) {
        let tree = build_tree(&pts);
        let nodes: Vec<NodeId> = tree.node_ids().collect();
        let home = nodes[home_sel.index(nodes.len())];
        // Scaling pushes some queries well outside their node (and the
        // whole dataset), exercising both the stay-home and expand paths.
        let q: Vec<f32> = pts[q_sel.index(pts.len())].iter().map(|&x| x * scale).collect();
        let scope = resolve_scope(&tree, home, &[&q], threshold);
        prop_assert!(
            is_home_or_ancestor(&tree, scope, home),
            "scope {:?} is neither {:?} nor an ancestor of it",
            scope,
            home
        );
    }

    /// A query built from a node's own members sits within half a diagonal
    /// of the node center, so a threshold of 1.0 never expands.
    #[test]
    fn threshold_one_never_expands_member_queries(
        pts in points(),
        home_sel in any::<prop::sample::Index>(),
    ) {
        let tree = build_tree(&pts);
        let nodes: Vec<NodeId> = tree.node_ids().collect();
        let home = nodes[home_sel.index(nodes.len())];
        let query_features: Vec<&[f32]> = tree
            .subtree_ids(home)
            .into_iter()
            .map(|id| pts[id as usize].as_slice())
            .collect();
        prop_assume!(!query_features.is_empty());
        prop_assert_eq!(resolve_scope(&tree, home, &query_features, 1.0), home);
    }

    /// A threshold of 0.0 treats every off-center query image as boundary-
    /// adjacent: starting from any non-root leaf it must expand at least one
    /// level — and, since the ratio stays positive all the way up, reach the
    /// root.
    #[test]
    fn threshold_zero_expands_off_center_queries(
        pts in points(),
        leaf_sel in any::<prop::sample::Index>(),
        q_sel in any::<prop::sample::Index>(),
    ) {
        let tree = build_tree(&pts);
        let leaves: Vec<NodeId> = tree
            .node_ids()
            .filter(|&n| tree.is_leaf(n))
            .collect();
        let home = leaves[leaf_sel.index(leaves.len())];
        prop_assume!(home != tree.root());
        // Shift the query far outside the data range so it is off-center
        // with respect to every node on the ancestor chain.
        let mut q = pts[q_sel.index(pts.len())].clone();
        q[0] += 25.0;
        let scope = resolve_scope(&tree, home, &[&q], 0.0);
        prop_assert_ne!(scope, home, "off-center query must expand at least one level");
        prop_assert_eq!(scope, tree.root());
    }

    /// Lowering the threshold only ever expands further: the scope resolved
    /// at the lower threshold is the same node or an ancestor of the scope
    /// resolved at the higher one.
    #[test]
    fn expansion_is_monotone_in_the_threshold(
        pts in points(),
        home_sel in any::<prop::sample::Index>(),
        q_sel in any::<prop::sample::Index>(),
        scale in 0.1f32..3.0,
        t_a in 0.0f32..1.0,
        t_b in 0.0f32..1.0,
    ) {
        let (lo, hi) = if t_a <= t_b { (t_a, t_b) } else { (t_b, t_a) };
        let tree = build_tree(&pts);
        let nodes: Vec<NodeId> = tree.node_ids().collect();
        let home = nodes[home_sel.index(nodes.len())];
        let q: Vec<f32> = pts[q_sel.index(pts.len())].iter().map(|&x| x * scale).collect();
        let scope_lo = resolve_scope(&tree, home, &[&q], lo);
        let scope_hi = resolve_scope(&tree, home, &[&q], hi);
        prop_assert!(tree.level(scope_lo) >= tree.level(scope_hi));
        prop_assert!(
            is_home_or_ancestor(&tree, scope_lo, scope_hi),
            "scope at threshold {} ({:?}) is not an ancestor-or-self of scope at {} ({:?})",
            lo,
            scope_lo,
            hi,
            scope_hi
        );
    }
}
