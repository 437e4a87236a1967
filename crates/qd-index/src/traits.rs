//! Read abstraction over an R\*-tree-shaped index.
//!
//! `qd-core`'s RFS builder, feedback navigation and localized-k-NN executor
//! are generic over [`KnnIndex`]. Two indexes implement it: the arena tree
//! ([`crate::RStarTree`]) and `qd-shard`'s `ShardSet`, K such trees under
//! one synthetic root with strided node handles. (The seam was born for the
//! differential arena-equivalence harness; the pre-arena reference tree it
//! compared against is retired, its behaviour pinned by the goldens of
//! `tests/arena_equivalence.rs`.)
//!
//! The structural accessors hand out *borrowed views*: `node_ids`,
//! `children` and `leaf_ids` return `IntoIterator`s that borrow the arena
//! and allocate nothing, and everything derivable from them — heights,
//! counts, the subtree walk — is a provided method, so an implementation
//! supplies thirteen methods and overrides a provided one only where it has
//! a cheaper answer. Points stay inside the index, stored dimension-major
//! (DESIGN.md §11): an engine caller that needs an image's vector reads it
//! from its own feature table, by id.

use crate::rect::Rect;
use crate::tree::{BudgetedKnn, NodeId};

/// Read-only structural and query access to a tree-shaped index.
pub trait KnnIndex {
    /// Root node handle.
    fn root(&self) -> NodeId;
    /// Point dimensionality.
    fn dims(&self) -> usize;
    /// Number of stored points.
    fn len(&self) -> usize;
    /// All live node handles, each once, in arbitrary order.
    fn node_ids(&self) -> impl IntoIterator<Item = NodeId> + '_;
    /// True if `n` is a live node of this index.
    fn contains_node(&self, n: NodeId) -> bool;
    /// Level of `n` (0 = leaf).
    fn level(&self, n: NodeId) -> u32;
    /// Parent of `n`, if any.
    fn parent(&self, n: NodeId) -> Option<NodeId>;
    /// Bounding rectangle of `n`.
    fn node_rect(&self, n: NodeId) -> Option<&Rect>;
    /// Children of `n`, in order; empty for leaves.
    fn children(&self, n: NodeId) -> impl IntoIterator<Item = NodeId> + '_;
    /// Ids stored directly in `n`, in order; empty for internal nodes.
    fn leaf_ids(
        &self,
        n: NodeId,
    ) -> impl IntoIterator<Item = u64, IntoIter: ExactSizeIterator> + '_;
    /// `(id, point)` pairs stored directly in `n`, in order; empty for
    /// internal nodes. The points are a row-major copy of the index's
    /// dimension-major store, made on first use ([`crate::RStarTree::leaf_items`]),
    /// for probes that need them as slices; [`Self::leaf_ids`] copies
    /// nothing.
    fn leaf_items(
        &self,
        n: NodeId,
    ) -> impl IntoIterator<Item = (u64, &[f32]), IntoIter: ExactSizeIterator> + '_;
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

    /// True if no points are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Height in levels (a lone leaf root is height 1).
    fn height(&self) -> usize {
        self.level(self.root()) as usize + 1
    }
    /// Number of live nodes.
    fn node_count(&self) -> usize {
        self.node_ids().into_iter().count()
    }
    /// True if `n` is a leaf.
    fn is_leaf(&self, n: NodeId) -> bool {
        self.level(n) == 0
    }
    /// All ids stored under `n`, leaf by leaf. The order is an answer
    /// wherever a budget cuts a scan short (the weighted localized k-NN): a
    /// node's children are taken last-first — popped off a stack — and a
    /// leaf's entries in the order it holds them.
    fn subtree_ids(&self, n: NodeId) -> impl IntoIterator<Item = u64> + '_ {
        leaves_under(self, n).flat_map(|leaf| self.leaf_ids(leaf))
    }
    /// Number of points stored under `n`.
    fn subtree_len(&self, n: NodeId) -> usize {
        leaves_under(self, n)
            .map(|leaf| self.leaf_ids(leaf).into_iter().len())
            .sum()
    }
    /// Panicking invariant check (tests and debug assertions).
    ///
    /// # Panics
    /// Panics with the first violation [`Self::check_invariants`] reports.
    fn validate(&self) {
        if let Err(msg) = self.check_invariants() {
            panic!("{msg}");
        }
    }
}

/// The subtree walk behind [`KnnIndex::subtree_ids`] and
/// [`KnnIndex::subtree_len`]: the leaves under `n`, children popped
/// last-first off a stack.
fn leaves_under<I: KnnIndex + ?Sized>(index: &I, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    let mut stack = vec![n];
    std::iter::from_fn(move || loop {
        let cur = stack.pop()?;
        if index.is_leaf(cur) {
            return Some(cur);
        }
        stack.extend(index.children(cur));
    })
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
    fn node_ids(&self) -> impl IntoIterator<Item = NodeId> + '_ {
        crate::RStarTree::node_ids(self)
    }
    fn contains_node(&self, n: NodeId) -> bool {
        crate::RStarTree::contains_node(self, n)
    }
    fn level(&self, n: NodeId) -> u32 {
        crate::RStarTree::level(self, n)
    }
    fn parent(&self, n: NodeId) -> Option<NodeId> {
        crate::RStarTree::parent(self, n)
    }
    fn node_rect(&self, n: NodeId) -> Option<&Rect> {
        crate::RStarTree::node_rect(self, n)
    }
    fn children(&self, n: NodeId) -> impl IntoIterator<Item = NodeId> + '_ {
        crate::RStarTree::children(self, n)
    }
    fn leaf_ids(
        &self,
        n: NodeId,
    ) -> impl IntoIterator<Item = u64, IntoIter: ExactSizeIterator> + '_ {
        crate::RStarTree::leaf_ids(self, n)
    }
    fn leaf_items(
        &self,
        n: NodeId,
    ) -> impl IntoIterator<Item = (u64, &[f32]), IntoIter: ExactSizeIterator> + '_ {
        crate::RStarTree::leaf_items(self, n)
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
}
