//! Read/build abstraction over the R\*-tree.
//!
//! Born as the seam of the differential arena-equivalence harness: `qd-core`'s
//! RFS builder and the localized-k-NN executor are generic over [`KnnIndex`],
//! so during the arena refactor the exact same build and query code ran
//! against both the arena tree ([`crate::RStarTree`]) and the since-retired
//! pre-arena reference implementation, attributing any observable divergence
//! to the storage layout alone. The reference tree is gone (its behavior is
//! pinned by the golden snapshots in `tests/arena_equivalence.rs`); the trait
//! stays as the structural/query surface the RFS layer builds against.

use crate::rect::Rect;
use crate::tree::{BudgetedKnn, NodeId, TreeConfig};

/// Read-only structural and query access shared by both tree layouts.
pub trait KnnIndex {
    /// Root node handle.
    fn root(&self) -> NodeId;
    /// Point dimensionality.
    fn dims(&self) -> usize;
    /// Number of stored points.
    fn len(&self) -> usize;
    /// True if no points are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Tree height in levels.
    fn height(&self) -> usize;
    /// Number of live nodes.
    fn node_count(&self) -> usize;
    /// All live node handles.
    fn node_ids(&self) -> Vec<NodeId>;
    /// True if `n` is a live node of this tree.
    fn contains_node(&self, n: NodeId) -> bool;
    /// Level of `n` (0 = leaf).
    fn level(&self, n: NodeId) -> u32;
    /// True if `n` is a leaf.
    fn is_leaf(&self, n: NodeId) -> bool;
    /// Parent of `n`, if any.
    fn parent(&self, n: NodeId) -> Option<NodeId>;
    /// Bounding rectangle of `n`.
    fn node_rect(&self, n: NodeId) -> Option<&Rect>;
    /// Children of `n`, in order; empty for leaves.
    fn children(&self, n: NodeId) -> Vec<NodeId>;
    /// `(id, point)` pairs stored directly in leaf `n`.
    fn leaf_items(&self, n: NodeId) -> Vec<(u64, &[f32])>;
    /// All `(id, point)` pairs stored under `n`.
    fn subtree_items(&self, n: NodeId) -> Vec<(u64, &[f32])>;
    /// Number of points stored under `n`.
    fn subtree_len(&self, n: NodeId) -> usize;
    /// Budgeted localized k-NN (see [`crate::RStarTree::knn_in_budgeted`]).
    fn knn_in_budgeted(
        &self,
        scope: NodeId,
        query: &[f32],
        k: usize,
        budget: Option<u64>,
    ) -> BudgetedKnn;
    /// Non-panicking structural invariant check.
    fn check_invariants(&self) -> Result<(), String>;
    /// Panicking invariant check (tests).
    fn validate(&self);
}

/// The two from-scratch construction paths. Both leave every leaf's feature
/// slots one consecutive run (DESIGN.md §11, "Slot order").
pub trait IndexBuild: KnnIndex + Sized {
    /// Builds a tree by R\* insertion of `rows` (`(id, point)`) in order,
    /// then lays the feature store out leaf by leaf
    /// ([`crate::RStarTree::compact`]) — the one place rows are inserted into
    /// a fresh tree, and the one place a tree is compacted.
    fn from_rows(config: TreeConfig, rows: impl Iterator<Item = (u64, Vec<f32>)>) -> Self;
    /// Bulk-loads a tree by recursive tiling.
    fn bulk_load(config: TreeConfig, items: Vec<(u64, Vec<f32>)>) -> Self;
}

impl KnnIndex for crate::RStarTree {
    fn root(&self) -> NodeId {
        crate::RStarTree::root(self)
    }
    fn dims(&self) -> usize {
        crate::RStarTree::dims(self)
    }
    fn len(&self) -> usize {
        crate::RStarTree::len(self)
    }
    fn height(&self) -> usize {
        crate::RStarTree::height(self)
    }
    fn node_count(&self) -> usize {
        crate::RStarTree::node_count(self)
    }
    fn node_ids(&self) -> Vec<NodeId> {
        crate::RStarTree::node_ids(self)
    }
    fn contains_node(&self, n: NodeId) -> bool {
        crate::RStarTree::contains_node(self, n)
    }
    fn level(&self, n: NodeId) -> u32 {
        crate::RStarTree::level(self, n)
    }
    fn is_leaf(&self, n: NodeId) -> bool {
        crate::RStarTree::is_leaf(self, n)
    }
    fn parent(&self, n: NodeId) -> Option<NodeId> {
        crate::RStarTree::parent(self, n)
    }
    fn node_rect(&self, n: NodeId) -> Option<&Rect> {
        crate::RStarTree::node_rect(self, n)
    }
    fn children(&self, n: NodeId) -> Vec<NodeId> {
        crate::RStarTree::children(self, n)
    }
    fn leaf_items(&self, n: NodeId) -> Vec<(u64, &[f32])> {
        crate::RStarTree::leaf_entries(self, n).collect()
    }
    fn subtree_items(&self, n: NodeId) -> Vec<(u64, &[f32])> {
        crate::RStarTree::subtree_items(self, n)
    }
    fn subtree_len(&self, n: NodeId) -> usize {
        crate::RStarTree::subtree_len(self, n)
    }
    fn knn_in_budgeted(
        &self,
        scope: NodeId,
        query: &[f32],
        k: usize,
        budget: Option<u64>,
    ) -> BudgetedKnn {
        crate::RStarTree::knn_in_budgeted(self, scope, query, k, budget)
    }
    fn check_invariants(&self) -> Result<(), String> {
        crate::RStarTree::check_invariants(self)
    }
    fn validate(&self) {
        crate::RStarTree::validate(self)
    }
}

impl IndexBuild for crate::RStarTree {
    fn from_rows(config: TreeConfig, rows: impl Iterator<Item = (u64, Vec<f32>)>) -> Self {
        let mut tree = crate::RStarTree::new(config);
        for (id, point) in rows {
            tree.insert(point, id);
        }
        tree.compact();
        tree
    }
    fn bulk_load(config: TreeConfig, items: Vec<(u64, Vec<f32>)>) -> Self {
        crate::RStarTree::bulk_load(config, items)
    }
}
