//! The R\*-tree proper.
//!
//! Arena-based twice over: nodes live in one `Vec` and refer to each other
//! through compact u32 indices ([`NodeId`] handles, `first_child` /
//! `next_sibling` links), and every stored feature vector lives in one
//! block of dimension-major tiles of eight (the [`FeatureStore`]), so a
//! localized k-NN leaf scan is cache-linear and scores eight entries at a
//! time. Leaves hold u32 slot indices into the store instead of owning their
//! points. The layout contract is documented
//! in DESIGN.md §11; `tests/arena_equivalence.rs` proves the layout change
//! is unobservable next to the pre-arena implementation (`crate::legacy`).
//!
//! Budgeted k-NN additionally applies norm-based lower-bound pruning:
//! `|‖p‖ − ‖q‖| ≤ ‖p − q‖`, so a leaf entry whose norm gap already exceeds
//! the k-th best distance seen can skip its full distance evaluation. The
//! pruning is purely an evaluation shortcut — the distance-computation
//! *accounting* (`distance_computations`, the budget currency) still charges
//! exactly what an unpruned scan would, so budgets exhaust at identical
//! points and rankings, counters, and golden traces are bit-identical;
//! skipped evaluations are reported separately in
//! [`BudgetedKnn::distances_pruned`].

use crate::rect::Rect;
use qd_fault::codec::{CodecError, Reader, Writer};
use qd_linalg::metric::{sq_l2_tile, TILE};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::OnceLock;

mod build;

/// Handle to a tree node. Stable across inserts; invalidated only when the
/// node itself is removed by deletion-condensation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index (for debug displays).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Handle with the given raw index. The inverse of [`NodeId::index`];
    /// composite indexes (e.g. `qd-shard`'s `shard * stride + local`
    /// encoding) round-trip through this without the arena's involvement.
    ///
    /// # Panics
    /// Panics when `index` does not fit the arena's u32 handles or equals
    /// `u32::MAX` (the internal "no node" sentinel).
    pub fn from_index(index: usize) -> Self {
        assert!(
            index < u32::MAX as usize,
            "node index {index} out of u32 handle range"
        );
        NodeId(index as u32) // CAST: asserted above to fit u32 below the NONE sentinel.
    }
}

/// Sentinel for "no node" in the u32 link fields (`parent`, `next_sibling`,
/// `first_child`). An arena of `u32::MAX` nodes is unreachable in practice.
const NONE: u32 = u32::MAX;

/// Largest node capacity (`max_entries`) a QDT2 file may declare: a tree
/// built with more cannot be read back.
pub const MAX_NODE_ENTRIES: usize = 1 << 20;

/// Construction parameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Point dimensionality.
    pub dims: usize,
    /// Minimum entries per node (`m`). Must satisfy `2 ≤ m ≤ max_entries/2`.
    pub min_entries: usize,
    /// Maximum entries per node (`M`).
    pub max_entries: usize,
    /// Fraction of entries evicted by forced reinsertion (R\* recommends 0.3).
    pub reinsert_fraction: f32,
}

impl TreeConfig {
    /// The paper's database configuration: node capacity 100. The paper
    /// quotes a 70–100 occupancy band, which is a *bulk-construction* target;
    /// a dynamic R\*-tree requires `m ≤ M/2` for splits to be well defined,
    /// so the maintenance minimum here is the R\* default of 40 %. The bulk
    /// loader's median tiling naturally yields leaves in the 50–100 range.
    pub fn paper(dims: usize) -> Self {
        Self {
            dims,
            min_entries: 40,
            max_entries: 100,
            reinsert_fraction: 0.3,
        }
    }

    /// A small-fan-out configuration handy for tests.
    pub fn small(dims: usize) -> Self {
        Self {
            dims,
            min_entries: 2,
            max_entries: 5,
            reinsert_fraction: 0.3,
        }
    }

    pub(crate) fn validate(&self) {
        assert!(self.dims > 0, "dims must be positive");
        assert!(self.min_entries >= 2, "min_entries must be at least 2");
        assert!(
            self.min_entries * 2 <= self.max_entries,
            "min_entries must be at most half of max_entries"
        );
        assert!(
            (0.0..0.5).contains(&self.reinsert_fraction),
            "reinsert_fraction must be in [0, 0.5)"
        );
    }
}

/// A k-NN result: data id plus Euclidean distance to the query.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor {
    /// Caller-assigned data id (the image id in the CBIR workload).
    pub id: u64,
    /// Euclidean distance to the query point.
    pub distance: f32,
}

/// The answer of [`RStarTree::knn_in_budgeted`]: best-so-far neighbors plus
/// the deterministic cost accounting behind graceful degradation.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetedKnn {
    /// Neighbors found, ascending by distance; exactly the unbudgeted answer
    /// when `exhausted` is false, a valid best-so-far prefix otherwise.
    pub neighbors: Vec<Neighbor>,
    /// Node reads performed by this call (same unit as [`RStarTree::accesses`]).
    pub accesses: u64,
    /// Distance evaluations performed (leaf-entry distances + child-rectangle
    /// MINDIST evaluations) — the budget's currency. Charged as if no pruning
    /// happened, so budgets and degradation reports are layout-independent.
    pub distance_computations: u64,
    /// Leaf-entry distance evaluations skipped by the norm lower bound.
    /// Always ≤ `distance_computations`; purely informational — pruned
    /// entries are still charged to the budget like a full evaluation.
    pub distances_pruned: u64,
    /// Frontier nodes left unexpanded because the budget ran out.
    pub nodes_skipped: u64,
    /// Index partitions whose scatter leg was dropped from the answer
    /// (panicked worker or merge-time refusal). Always 0 for a single
    /// monolithic tree; a sharded index (`qd-shard`) reports its lost legs
    /// here so sessions can account whole-shard loss as degradation.
    pub partitions_dropped: u64,
    /// True when the budget ran out before the search completed.
    pub exhausted: bool,
}

/// Relative slack on the squared norm lower bound. The bound must only fire
/// when the *computed* `dist2` (f32 subtraction per coordinate, ≤ ~2⁻²³
/// relative error) provably exceeds the k-th best distance; 1e-6 covers that
/// rounding with an order of magnitude to spare.
const PRUNE_SLACK: f64 = 1.0 + 1e-6;

/// Dimension-major storage for every feature vector in the tree. Slots are
/// grouped in tiles of [`TILE`]: slot `s` is lane `s % TILE` of tile
/// `s / TILE`, tile `t` is the `TILE × dims` block at `tiles[t * TILE *
/// dims..]`, and coordinate `j` of lane `l` sits at `tile[j * TILE + l]` —
/// the layout [`sq_l2_tile`] scores eight slots from. The caller id and the
/// precomputed f64 Euclidean norm (for lower-bound pruning) sit in parallel
/// per-slot arrays. Slots are recycled through a free list; lanes past the
/// last slot hold zeros and freed slots their old point, neither read as a
/// point. Norms are recomputed on load rather than serialized.
#[derive(Debug, Clone)]
pub(crate) struct FeatureStore {
    dims: usize,
    ids: Vec<u64>,
    tiles: Vec<f32>,
    norms: Vec<f64>,
    live: Vec<bool>,
    free: Vec<u32>,
    rows: RowView,
}

/// A row-major copy of a [`FeatureStore`], made by the first
/// [`RStarTree::leaf_items`] call after the store last changed: the one
/// reader that needs a point as a slice. No search, build, update or codec
/// path makes it, and a clone starts without it.
#[derive(Debug, Default)]
struct RowView(OnceLock<Vec<f32>>);

impl Clone for RowView {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl FeatureStore {
    /// An empty store with room for exactly `slots` vectors.
    fn with_capacity(dims: usize, slots: usize) -> Self {
        Self {
            dims,
            ids: Vec::with_capacity(slots),
            tiles: Vec::with_capacity(slots.div_ceil(TILE) * TILE * dims),
            norms: Vec::with_capacity(slots),
            live: Vec::with_capacity(slots),
            free: Vec::new(),
            rows: RowView::default(),
        }
    }

    fn slot_count(&self) -> usize {
        self.ids.len()
    }

    fn alloc(&mut self, id: u64, point: &[f32]) -> u32 {
        debug_assert_eq!(point.len(), self.dims);
        let norm = norm_of(point);
        let slot = if let Some(slot) = self.free.pop() {
            let s = slot as usize;
            self.ids[s] = id;
            self.norms[s] = norm;
            self.live[s] = true;
            slot
        } else {
            self.push(id, norm)
        };
        self.write(slot, point.iter().copied());
        slot
    }

    /// Appends a slot past the last one, starting a zeroed tile when the
    /// last is full; the caller writes its coordinates.
    fn push(&mut self, id: u64, norm: f64) -> u32 {
        // CAST: slot indices are u32 by arena design; a tree would need
        // 2^32 stored points to overflow, far past the 15k corpus scale.
        let slot = self.ids.len() as u32;
        if self.ids.len().is_multiple_of(TILE) {
            self.tiles.resize(self.tiles.len() + TILE * self.dims, 0.0);
        }
        self.ids.push(id);
        self.norms.push(norm);
        self.live.push(true);
        slot
    }

    /// Sets the coordinates of `slot`, in dimension order.
    fn write(&mut self, slot: u32, point: impl IntoIterator<Item = f32>) {
        let (t, lane) = (slot as usize / TILE, slot as usize % TILE);
        let len = TILE * self.dims;
        let (dims, _) = self.tiles[t * len..(t + 1) * len].as_chunks_mut::<TILE>();
        for (lanes, value) in dims.iter_mut().zip(point) {
            lanes[lane] = value;
        }
        self.rows.0.take();
    }

    fn release(&mut self, slot: u32) {
        self.live[slot as usize] = false;
        self.free.push(slot);
    }

    /// The coordinates of `slot`, in dimension order.
    #[inline]
    fn coords(&self, slot: u32) -> impl ExactSizeIterator<Item = f32> + '_ {
        let (t, lane) = (slot as usize / TILE, slot as usize % TILE);
        let (dims, _) = self.tile(t).as_chunks::<TILE>();
        dims.iter().map(move |lanes| lanes[lane])
    }

    /// The point of `slot`, gathered into a row.
    fn row(&self, slot: u32) -> Vec<f32> {
        self.coords(slot).collect()
    }

    /// The degenerate rectangle of `slot`'s point ([`Rect::point`]).
    fn point_rect(&self, slot: u32) -> Rect {
        let row = self.row(slot);
        Rect::new(row.clone(), row)
    }

    /// Tile `t`: `TILE` slots, dimension-major.
    #[inline]
    fn tile(&self, t: usize) -> &[f32] {
        let len = TILE * self.dims;
        &self.tiles[t * len..(t + 1) * len]
    }

    /// Writes every slot's point into `out`, little-endian, slot after slot
    /// and each in dimension order: the row-major block of the QDT2 format.
    fn encode_rows(&self, out: &mut [[u8; 4]]) {
        let len = TILE * self.dims;
        for (rows, tile) in out.chunks_mut(len).zip(self.tiles.chunks_exact(len)) {
            let (dims, _) = tile.as_chunks::<TILE>();
            for (lane, row) in rows.chunks_exact_mut(self.dims).enumerate() {
                for (word, lanes) in row.iter_mut().zip(dims) {
                    *word = lanes[lane].to_le_bytes();
                }
            }
        }
    }

    /// The inverse of [`Self::encode_rows`]: a store of one live slot per
    /// id, its points scattered from the row-major `block` straight into
    /// the tiles and its norms summed eight lanes at a time.
    fn decode(dims: usize, ids: Vec<u64>, block: &[[u8; 4]]) -> Self {
        let len = TILE * dims;
        let mut tiles = vec![0.0; ids.len().div_ceil(TILE) * len];
        for (tile, rows) in tiles.chunks_exact_mut(len).zip(block.chunks(len)) {
            let (tile, _) = tile.as_chunks_mut::<TILE>();
            for (lane, row) in rows.chunks_exact(dims).enumerate() {
                for (lanes, word) in tile.iter_mut().zip(row) {
                    lanes[lane] = f32::from_le_bytes(*word);
                }
            }
        }
        let mut store = Self {
            dims,
            norms: Vec::with_capacity(ids.len()),
            live: vec![true; ids.len()],
            ids,
            tiles,
            free: Vec::new(),
            rows: RowView::default(),
        };
        for t in 0..store.tiles.len() / len {
            let norms = store.tile_norms(t);
            let lanes = (store.ids.len() - t * TILE).min(TILE);
            store.norms.extend_from_slice(&norms[..lanes]);
        }
        store
    }

    /// [`norm_of`] of every lane of tile `t`, eight sums advanced together,
    /// each adding its squares in dimension order as `norm_of` does.
    fn tile_norms(&self, t: usize) -> [f64; TILE] {
        let (dims, _) = self.tile(t).as_chunks::<TILE>();
        let mut acc = [0.0f64; TILE];
        for lanes in dims {
            for (sum, &v) in acc.iter_mut().zip(lanes) {
                *sum += (v as f64) * (v as f64);
            }
        }
        acc.map(f64::sqrt)
    }

    /// The point of `slot` as a slice of the row-major copy, made on first
    /// use.
    fn row_view(&self, slot: u32) -> &[f32] {
        let rows = (self.rows.0).get_or_init(|| {
            // CAST: slot indices are u32 by arena design (see `push`).
            let slots = 0..self.slot_count() as u32;
            slots.flat_map(|s| self.coords(s)).collect()
        });
        let s = slot as usize;
        &rows[s * self.dims..(s + 1) * self.dims]
    }

    #[inline]
    fn id(&self, slot: u32) -> u64 {
        self.ids[slot as usize]
    }

    #[inline]
    fn norm(&self, slot: u32) -> f64 {
        self.norms[slot as usize]
    }
}

/// Euclidean norm in f64 (exact squares of f32 values, f64 accumulation).
fn norm_of(point: &[f32]) -> f64 {
    point
        .iter()
        .map(|&v| (v as f64) * (v as f64))
        .sum::<f64>()
        .sqrt()
}

#[derive(Debug, Clone)]
enum NodeKind {
    /// Feature-store slots of the entries stored here.
    Leaf(Vec<u32>),
    /// Head of the sibling-linked child chain plus its length.
    Internal { first_child: u32, count: u32 },
}

#[derive(Debug, Clone)]
struct Node {
    rect: Option<Rect>,
    /// Arena index of the parent; `NONE` for the root (and detached nodes).
    parent: u32,
    /// Arena index of the next sibling in the parent's child chain.
    next_sibling: u32,
    /// Leaves are level 0; the root has the highest level.
    level: u32,
    kind: NodeKind,
    live: bool,
}

impl NodeKind {
    const EMPTY_INTERNAL: Self = NodeKind::Internal {
        first_child: NONE,
        count: 0,
    };
}

impl Node {
    /// A live node with no rectangle, parent or sibling yet.
    fn detached(level: u32, kind: NodeKind) -> Self {
        Self {
            rect: None,
            parent: NONE,
            next_sibling: NONE,
            level,
            kind,
            live: true,
        }
    }

    fn entry_count(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf(d) => d.len(),
            NodeKind::Internal { count, .. } => *count as usize,
        }
    }
}

/// Orphaned entry produced by condensation/reinsertion. Data orphans carry
/// their feature-store slot, so reinsertion never copies the vector.
enum Orphan {
    Data(u32),
    Subtree(NodeId),
}

/// The R\*-tree.
///
/// ```
/// use qd_index::{RStarTree, TreeConfig};
///
/// let mut tree = RStarTree::new(TreeConfig::small(2));
/// tree.insert(vec![0.0, 0.0], 1);
/// tree.insert(vec![5.0, 5.0], 2);
/// tree.insert(vec![0.2, 0.1], 3);
///
/// let nearest = tree.knn(&[0.0, 0.0], 2);
/// assert_eq!(nearest[0].id, 1);
/// assert_eq!(nearest[1].id, 3);
/// ```
#[derive(Debug)]
pub struct RStarTree {
    config: TreeConfig,
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: NodeId,
    len: usize,
    store: FeatureStore,
    accesses: AtomicU64,
}

/// A private copy of the whole arena — the copy-on-write step of an index
/// update: readers keep the shared original, the writer inserts into or
/// removes from the clone. The arena is flat `Vec`s, so this is a handful of
/// memcpys; the access counter carries its current value over.
impl Clone for RStarTree {
    fn clone(&self) -> Self {
        Self {
            config: self.config.clone(),
            nodes: self.nodes.clone(),
            free: self.free.clone(),
            root: self.root,
            len: self.len,
            store: self.store.clone(),
            accesses: AtomicU64::new(self.accesses()),
        }
    }
}

impl RStarTree {
    /// Creates an empty tree.
    ///
    /// # Panics
    /// Panics on an invalid [`TreeConfig`].
    pub fn new(config: TreeConfig) -> Self {
        config.validate();
        let root = Node::detached(0, NodeKind::Leaf(Vec::new()));
        let store = FeatureStore::with_capacity(config.dims, 0);
        Self {
            config,
            nodes: vec![root],
            free: Vec::new(),
            root: NodeId(0),
            len: 0,
            store,
            accesses: AtomicU64::new(0),
        }
    }

    /// Builds a tree by R\* insertion of `rows` (`(id, point)`) in order,
    /// then lays the feature store out leaf by leaf ([`Self::compact`]) —
    /// the one place rows are inserted into a fresh tree, and the one place
    /// a tree is compacted. Like [`Self::bulk_load`], it leaves every leaf's
    /// feature slots one consecutive run (DESIGN.md §11, "Slot order").
    ///
    /// # Panics
    /// Panics on an invalid config or a point with the wrong dimensionality.
    pub fn from_rows(config: TreeConfig, rows: impl Iterator<Item = (u64, Vec<f32>)>) -> Self {
        let mut tree = Self::new(config);
        for (id, point) in rows {
            tree.insert(point, id);
        }
        tree.compact();
        tree
    }

    /// Builds a tree by kd-style recursive tiling — cheaper than repeated
    /// insertion and producing well-separated leaves. Used for
    /// construction-cost comparisons and large benchmark corpora. Feature
    /// slots are allocated per tiled chunk, so each leaf's entries occupy a
    /// contiguous ascending run of the SoA block.
    ///
    /// # Panics
    /// Panics on an invalid config or a point with the wrong dimensionality.
    pub fn bulk_load(config: TreeConfig, items: Vec<(u64, Vec<f32>)>) -> Self {
        config.validate();
        let mut tree = Self::new(config);
        if items.is_empty() {
            return tree;
        }
        for (_, p) in &items {
            assert_eq!(p.len(), tree.config.dims, "point dimensionality mismatch");
        }
        tree.len = items.len();

        // Tile the raw items first (identical ordering decisions to the
        // insertion-order-preserving legacy tiler), then allocate feature
        // slots chunk by chunk so every leaf scans a contiguous run.
        let max = tree.config.max_entries;
        let dims = tree.config.dims;
        let mut entries = items;
        let chunks = partition_recursive(&mut entries, max, dims, |e, d| e.1[d]);
        tree.nodes.clear();
        let mut level_nodes: Vec<NodeId> = chunks
            .into_iter()
            .map(|chunk| {
                let slots: Vec<u32> = chunk
                    .into_iter()
                    .map(|(id, point)| tree.store.alloc(id, &point))
                    .collect();
                let rect = bounding_rect_of_slots(&tree.store, &slots);
                // CAST: node indices are u32 by arena design; the node count
                // is bounded by the point count, far below 2^32.
                let id = NodeId(tree.nodes.len() as u32);
                tree.nodes.push(Node {
                    rect: Some(rect),
                    parent: NONE,
                    next_sibling: NONE,
                    level: 0,
                    kind: NodeKind::Leaf(slots),
                    live: true,
                });
                id
            })
            .collect();

        // Build internal levels until a single root remains.
        let mut level = 1u32;
        while level_nodes.len() > 1 {
            let mut handles: Vec<(NodeId, Vec<f32>)> = level_nodes
                .iter()
                .map(|&n| (n, tree.rect_of(n).center()))
                .collect();
            let groups = partition_recursive(&mut handles, max, dims, |h, d| h.1[d]);
            level_nodes = groups
                .into_iter()
                .map(|group| {
                    let children: Vec<NodeId> = group.into_iter().map(|(n, _)| n).collect();
                    let rect = tree.rect_of_children(children.iter().copied());
                    // CAST: node indices are u32 by arena design (see alloc).
                    let id = NodeId(tree.nodes.len() as u32);
                    tree.nodes.push(Node {
                        rect,
                        parent: NONE,
                        next_sibling: NONE,
                        level,
                        kind: NodeKind::Internal {
                            first_child: NONE,
                            count: 0,
                        },
                        live: true,
                    });
                    tree.link_children(id, &children);
                    id
                })
                .collect();
            level += 1;
        }
        tree.root = level_nodes[0];
        tree
    }

    /// Re-lays the feature store in leaf order: leaves taken depth-first
    /// along the child chains, each leaf's entries in the order it holds
    /// them, copied into a fresh store of exactly `len` slots with nothing
    /// on the free list. Afterwards every leaf scans one ascending run of
    /// consecutive slots and the leaves of a subtree lie next to each other
    /// — what [`Self::bulk_load`] produces directly and repeated insertion
    /// (slots in arrival order) does not. Slot numbers are layout, not
    /// structure: nodes, rectangles, entry order, and so every answer and
    /// every counter, are untouched; only the QDT2 bytes of the store and
    /// of the leaves' slot lists change.
    pub fn compact(&mut self) {
        let mut store = FeatureStore::with_capacity(self.config.dims, self.len);
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            match &mut self.nodes[n.index()].kind {
                NodeKind::Leaf(slots) => {
                    for s in slots {
                        let slot = store.push(self.store.id(*s), self.store.norm(*s));
                        store.write(slot, self.store.coords(*s));
                        *s = slot;
                    }
                }
                NodeKind::Internal { .. } => {
                    let first = stack.len();
                    stack.extend(self.children(n));
                    stack[first..].reverse();
                }
            }
        }
        self.store = store;
    }

    /// Point dimensionality.
    pub fn dims(&self) -> usize {
        self.config.dims
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no points are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height in levels (a lone leaf root is height 1).
    pub fn height(&self) -> usize {
        self.nodes[self.root.index()].level as usize + 1
    }

    /// Root node handle.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// All live node handles, in ascending arena order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        // CAST: the arena length fits u32 by design (see alloc).
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|n| self.nodes[n.index()].live)
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.live).count()
    }

    /// True if `n` is a live node handle of *this* tree. Node accessors
    /// panic on dangling or foreign handles; serving paths that receive a
    /// handle from outside (e.g. a client's remote query) validate with this
    /// first and turn the answer into a typed error.
    pub fn contains_node(&self, n: NodeId) -> bool {
        self.nodes.get(n.index()).is_some_and(|node| node.live)
    }

    /// Level of `n` (0 = leaf).
    pub fn level(&self, n: NodeId) -> u32 {
        self.node(n).level
    }

    /// True if `n` is a leaf.
    pub fn is_leaf(&self, n: NodeId) -> bool {
        matches!(self.node(n).kind, NodeKind::Leaf(_))
    }

    /// Parent of `n`, if any.
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        let p = self.node(n).parent;
        (p != NONE).then_some(NodeId(p))
    }

    /// Bounding rectangle of `n` (`None` only for an empty root).
    pub fn node_rect(&self, n: NodeId) -> Option<&Rect> {
        self.node(n).rect.as_ref()
    }

    /// Children of an internal node, walking its sibling-linked chain in
    /// order; empty for leaves.
    pub fn children(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let first = match &self.node(n).kind {
            NodeKind::Internal { first_child, .. } => *first_child,
            NodeKind::Leaf(_) => NONE,
        };
        std::iter::successors((first != NONE).then_some(NodeId(first)), move |c| {
            let next = self.nodes[c.index()].next_sibling;
            (next != NONE).then_some(NodeId(next))
        })
    }

    /// Rewrites `parent`'s child chain to exactly `children` (in order) and
    /// points every child's parent link back at `parent`.
    fn link_children(&mut self, parent: NodeId, children: &[NodeId]) {
        self.chain_children(parent, children);
        for &c in children {
            self.nodes[c.index()].parent = parent.0;
        }
    }

    /// Rewrites `parent`'s child chain without touching the children's
    /// parent links (deserialization reads parents from the file and lets
    /// `check_invariants` cross-validate them against the chains).
    fn chain_children(&mut self, parent: NodeId, children: &[NodeId]) {
        let mut head = NONE;
        for &c in children.iter().rev() {
            self.nodes[c.index()].next_sibling = head;
            head = c.0;
        }
        match &mut self.nodes[parent.index()].kind {
            NodeKind::Internal { first_child, count } => {
                *first_child = head;
                // CAST: fan-out is capped by max_entries (~100), fits u32.
                *count = children.len() as u32;
            }
            NodeKind::Leaf(_) => unreachable!("chain_children on a leaf"),
        }
    }

    /// Appends `child` at the end of `parent`'s child chain.
    fn push_child(&mut self, parent: NodeId, child: NodeId) {
        self.nodes[child.index()].next_sibling = NONE;
        self.nodes[child.index()].parent = parent.0;
        match &mut self.nodes[parent.index()].kind {
            NodeKind::Internal { first_child, count } => {
                *count += 1;
                if *first_child == NONE {
                    *first_child = child.0;
                    return;
                }
                let mut cur = *first_child;
                loop {
                    let next = self.nodes[cur as usize].next_sibling;
                    if next == NONE {
                        break;
                    }
                    cur = next;
                }
                self.nodes[cur as usize].next_sibling = child.0;
            }
            NodeKind::Leaf(_) => unreachable!("push_child on a leaf"),
        }
    }

    /// Unlinks `child` from `parent`'s chain (keeping the remaining order).
    fn remove_child(&mut self, parent: NodeId, child: NodeId) {
        let children: Vec<NodeId> = self.children(parent).filter(|&c| c != child).collect();
        self.chain_children(parent, &children);
    }

    /// Ids of the entries stored in a leaf, in order; empty for internal
    /// nodes.
    pub fn leaf_ids(&self, n: NodeId) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.leaf_slots(n).iter().map(|&s| self.store.id(s))
    }

    /// `(id, point)` pairs stored in a leaf; empty for internal nodes. The
    /// store keeps points dimension-major (DESIGN.md §11), so the points are
    /// slices of a row-major copy of it, made by the first call after the
    /// tree last changed and kept until the next change: for callers that
    /// need a point as a slice, such as a per-leaf probe. Ids alone are
    /// [`Self::leaf_ids`], which copies nothing.
    pub fn leaf_items(&self, n: NodeId) -> impl ExactSizeIterator<Item = (u64, &[f32])> + '_ {
        self.leaf_slots(n)
            .iter()
            .map(|&s| (self.store.id(s), self.store.row_view(s)))
    }

    /// Feature-store slots of the entries of leaf `n`; empty for internal
    /// nodes.
    fn leaf_slots(&self, n: NodeId) -> &[u32] {
        match &self.node(n).kind {
            NodeKind::Leaf(s) => s,
            NodeKind::Internal { .. } => &[],
        }
    }

    /// The slot list of `n`, which must be a leaf.
    fn leaf_slots_mut(&mut self, n: NodeId) -> &mut Vec<u32> {
        match &mut self.node_mut(n).kind {
            NodeKind::Leaf(s) => s,
            NodeKind::Internal { .. } => unreachable!("slot list of an internal node"),
        }
    }

    /// Node accesses performed since the last [`Self::reset_accesses`] —
    /// the simulated-I/O unit of §5.2.2 (one access ≈ one disk page read).
    pub fn accesses(&self) -> u64 {
        self.accesses.load(AtomicOrdering::Relaxed)
    }

    /// Resets the node-access counter.
    pub fn reset_accesses(&self) {
        self.accesses.store(0, AtomicOrdering::Relaxed);
    }

    #[inline]
    fn touch(&self, _n: NodeId) {
        self.accesses.fetch_add(1, AtomicOrdering::Relaxed);
    }

    #[inline]
    fn node(&self, n: NodeId) -> &Node {
        let node = &self.nodes[n.index()];
        debug_assert!(node.live, "dangling NodeId");
        node
    }

    #[inline]
    fn node_mut(&mut self, n: NodeId) -> &mut Node {
        let node = &mut self.nodes[n.index()];
        debug_assert!(node.live, "dangling NodeId");
        node
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = node;
            NodeId(i)
        } else {
            // CAST: node indices are u32 by arena design (see alloc).
            let i = self.nodes.len() as u32;
            self.nodes.push(node);
            NodeId(i)
        }
    }

    fn release(&mut self, n: NodeId) {
        let node = &mut self.nodes[n.index()];
        node.live = false;
        node.rect = None;
        node.parent = NONE;
        node.next_sibling = NONE;
        node.kind = NodeKind::Leaf(Vec::new());
        self.free.push(n.0);
    }

    /// Rectangle of a node that has entries — every node but an empty root.
    #[expect(
        clippy::expect_used,
        reason = "every node but an empty root has a rect: insert, split and bulk_load \
                  set it whenever a node gets an entry, and a decoded file whose \
                  entry-holding node lacks one fails check_invariants; rect_of is asked \
                  only about children and nodes that hold entries"
    )]
    fn rect_of(&self, n: NodeId) -> &Rect {
        self.node(n).rect.as_ref().expect("node without rect")
    }

    /// Bounding box of `children`'s rectangles; `None` for no children.
    fn rect_of_children(&self, children: impl Iterator<Item = NodeId>) -> Option<Rect> {
        let mut rects = children.map(|c| self.rect_of(c));
        let mut rect = rects.next()?.clone();
        for r in rects {
            rect.enlarge(r);
        }
        Some(rect)
    }

    fn recompute_rect(&mut self, n: NodeId) {
        let rect = match &self.node(n).kind {
            NodeKind::Leaf(slots) => {
                if slots.is_empty() {
                    None
                } else {
                    Some(bounding_rect_of_slots(&self.store, slots))
                }
            }
            NodeKind::Internal { .. } => self.rect_of_children(self.children(n)),
        };
        self.node_mut(n).rect = rect;
    }

    /// Recomputes rectangles from `n` up to the root — what a node needs
    /// after entries *left* it (eviction, split, removal).
    fn adjust_upward(&mut self, mut n: NodeId) {
        loop {
            self.recompute_rect(n);
            match self.parent(n) {
                Some(p) => n = p,
                None => break,
            }
        }
    }

    /// Grows rectangles from `n` up to cover `entry`, just appended to `n`.
    /// Every rectangle is the tight box of its entries, so the first
    /// ancestor that already contains `entry` ends the walk: every ancestor
    /// above contains that one. `min`/`max` are exact, so this is the box a
    /// recomputation would fold (at `n` itself in the same order too).
    fn grow_upward(&mut self, n: NodeId, entry: &Rect) {
        let mut cur = Some(n);
        while let Some(c) = cur {
            match &mut self.node_mut(c).rect {
                Some(r) if c != n && r.contains_rect(entry) => break,
                Some(r) => r.enlarge(entry),
                empty => *empty = Some(entry.clone()),
            }
            cur = self.parent(c);
        }
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    /// Removes the entry with the given point and id. Returns `false` if no
    /// such entry exists.
    pub fn remove(&mut self, point: &[f32], id: u64) -> bool {
        assert_eq!(
            point.len(),
            self.config.dims,
            "point dimensionality mismatch"
        );
        let Some((leaf, pos)) = self.find_leaf(self.root, point, id) else {
            return false;
        };
        let slot = self.leaf_slots_mut(leaf).swap_remove(pos);
        self.store.release(slot);
        self.len -= 1;
        self.condense(leaf);
        true
    }

    /// The first leaf under `n`, depth first, holding the entry, and the
    /// entry's position in it.
    fn find_leaf(&self, n: NodeId, point: &[f32], id: u64) -> Option<(NodeId, usize)> {
        self.touch(n);
        match &self.node(n).kind {
            NodeKind::Leaf(slots) => slots
                .iter()
                .position(|&s| {
                    self.store.id(s) == id && self.store.coords(s).eq(point.iter().copied())
                })
                .map(|pos| (n, pos)),
            NodeKind::Internal { .. } => self
                .children(n)
                .filter(|&child| {
                    self.node(child)
                        .rect
                        .as_ref()
                        .is_some_and(|r| r.contains_point(point))
                })
                .find_map(|child| self.find_leaf(child, point, id)),
        }
    }

    /// `CondenseTree`: removes underfull ancestors, collecting orphans for
    /// reinsertion, then shrinks a single-child internal root.
    fn condense(&mut self, leaf: NodeId) {
        let m = self.config.min_entries;
        let mut orphans: Vec<(Orphan, u32)> = Vec::new();
        let mut cur = leaf;
        while cur != self.root {
            #[expect(
                clippy::expect_used,
                reason = "a node below the root has a parent: link_children and \
                          push_child set it, and a decoded file whose parent pointers \
                          disagree with the child chains fails check_invariants"
            )]
            let parent = self.parent(cur).expect("non-root without parent");
            if self.node(cur).entry_count() < m {
                self.remove_child(parent, cur);
                let level = self.node(cur).level;
                if self.is_leaf(cur) {
                    let slots = std::mem::take(self.leaf_slots_mut(cur));
                    orphans.extend(slots.into_iter().map(|s| (Orphan::Data(s), 0)));
                } else {
                    let children = self.children(cur).collect::<Vec<_>>();
                    self.node_mut(cur).kind = NodeKind::Leaf(Vec::new());
                    orphans.extend(
                        children
                            .into_iter()
                            .map(|c| (Orphan::Subtree(c), level - 1)),
                    );
                }
                self.release(cur);
            } else {
                self.recompute_rect(cur);
            }
            cur = parent;
        }
        self.recompute_rect(self.root);

        for (orphan, level) in orphans {
            let mut reinserted = u64::MAX; // every level: no forced reinsert storms
            self.insert_orphan(orphan, level, &mut reinserted);
        }

        // Shrink the root while it is an internal node with one child.
        loop {
            let child = match &self.node(self.root).kind {
                NodeKind::Internal { first_child, count } if *count == 1 => NodeId(*first_child),
                _ => break,
            };
            let old = self.root;
            self.node_mut(child).parent = NONE;
            self.node_mut(child).next_sibling = NONE;
            self.root = child;
            self.release(old);
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The `k` nearest neighbors of `query` over the whole database,
    /// ascending by distance: unbudgeted [`Self::knn_in_budgeted`] from the
    /// root.
    pub fn knn(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        self.knn_in_budgeted(self.root, query, k, None).neighbors
    }

    /// The `k` nearest neighbors of `query` among the points stored under
    /// `scope` — the paper's *localized* k-NN computation (§3.3): each final
    /// subquery searches only its own subcluster — under an optional
    /// *distance-computation budget*, the anytime variant behind
    /// cost-budgeted graceful degradation. This is the one search loop; every
    /// scope, shard leg, serve tick and convenience wrapper goes through it.
    ///
    /// The budget counts distance evaluations (one per leaf entry scored,
    /// one per child-rectangle MINDIST), a deterministic machine-independent
    /// cost measure: no wall clock is consulted, so a fixed
    /// `(scope, query, k, budget)` tuple always returns bit-identical results
    /// at any thread count. The node reads are counted call-locally (and
    /// folded into the global [`Self::accesses`] counter afterwards), so
    /// concurrent queries over a shared tree each see exactly their own cost.
    ///
    /// Once the budget is spent, no further node is expanded; the images
    /// already scored still fill the answer toward `k` in distance order
    /// (best-so-far), and every node that would have been opened before the
    /// answer was complete is counted in [`BudgetedKnn::nodes_skipped`].
    /// `None` means unlimited.
    ///
    /// Leaf entries whose norm lower bound `(‖p‖ − ‖q‖)²` provably exceeds
    /// the k-th best distance seen skip the full distance evaluation. A
    /// pruned entry is charged to the budget exactly like an evaluated one
    /// (so budgets, counters, and rankings are identical to an unpruned
    /// scan); the skips are reported in [`BudgetedKnn::distances_pruned`].
    ///
    /// The frontier holds unopened nodes only, in ascending `(MINDIST, node
    /// index)` order. Scored images go straight to the one bounded result
    /// heap ([`BestK`]), which keeps the `k` that a best-first search over
    /// images and nodes alike would answer first, in the order it would
    /// answer them; the search is over when the nearest unopened node is no
    /// nearer than the worst of `k` held images. DESIGN.md §11 has the
    /// contract.
    pub fn knn_in_budgeted(
        &self,
        scope: NodeId,
        query: &[f32],
        k: usize,
        budget: Option<u64>,
    ) -> BudgetedKnn {
        self.search(scope, query, k, budget, Self::score_leaf)
    }

    /// The loop of [`Self::knn_in_budgeted`] with its leaf scorer as a
    /// parameter, so that a test can run a one-by-one reference scorer
    /// through the same frontier, budget and result heap.
    fn search(
        &self,
        scope: NodeId,
        query: &[f32],
        k: usize,
        budget: Option<u64>,
        score_leaf: impl Fn(&Self, &[u32], &[f32], f64, (f64, u64), &mut BestK) -> u64,
    ) -> BudgetedKnn {
        assert_eq!(
            query.len(),
            self.config.dims,
            "query dimensionality mismatch"
        );
        // No answer is longer than the tree: asking for more asks for all of
        // it, and `k` sizes the result heap.
        let k = k.min(self.len);
        let mut touched = 0u64;
        let mut spent = 0u64;
        let mut pruned = 0u64;
        let mut nodes_skipped = 0u64;
        let mut exhausted = false;
        let mut best = BestK::new(k);
        if let Some(scope_rect) = self.node(scope).rect.as_ref().filter(|_| k > 0) {
            let qnorm = norm_of(query);
            let mut frontier = BinaryHeap::new();
            spent += 1;
            frontier.push(Reverse((TotalF64(scope_rect.min_dist2(query)), scope)));
            while let Some(Reverse((TotalF64(mindist), n))) = frontier.pop() {
                if best.closes(mindist) {
                    // `k` images at most this far are held, and every node
                    // still queued is at least this far.
                    break;
                }
                if budget.is_some_and(|b| spent >= b) {
                    // Budget gone: leave this subtree unexplored; the nodes
                    // queued behind it are skipped the same way.
                    exhausted = true;
                    nodes_skipped += 1;
                    continue;
                }
                touched += 1;
                match &self.node(n).kind {
                    NodeKind::Leaf(slots) => {
                        // Charged as if every entry were evaluated — the
                        // budget currency is layout- and pruning-free.
                        spent += slots.len() as u64;
                        let opened = (mindist, touched);
                        pruned += score_leaf(self, slots, query, qnorm, opened, &mut best);
                    }
                    NodeKind::Internal { .. } => {
                        for child in self.children(n) {
                            if let Some(r) = self.node(child).rect.as_ref() {
                                spent += 1;
                                frontier.push(Reverse((TotalF64(r.min_dist2(query)), child)));
                            }
                        }
                    }
                }
            }
        }
        self.accesses.fetch_add(touched, AtomicOrdering::Relaxed);
        BudgetedKnn {
            neighbors: best.into_neighbors(),
            accesses: touched,
            distance_computations: spent,
            distances_pruned: pruned,
            nodes_skipped,
            partitions_dropped: 0,
            exhausted,
        }
    }

    /// Scores the entries of one opened leaf into `best` and returns how many
    /// the norm lower bound pruned — a one-by-one scan in slot order, each
    /// entry pruned against the bound as it stands or admitted, except that
    /// the first survivor in a tile scores the whole tile and the entries
    /// after it in the same tile take their lanes from that. `opened` is the
    /// leaf's MINDIST and its position in the open sequence, from which
    /// [`BestK::admit`] takes an image's turn.
    fn score_leaf(
        &self,
        slots: &[u32],
        query: &[f32],
        qnorm: f64,
        opened: (f64, u64),
        best: &mut BestK,
    ) -> u64 {
        let mut pruned = 0;
        // The tile scored last and its lanes. A lane the kernel abandoned
        // exceeds the bound it was given, and the bound only tightens, so
        // `admit` turns it away as it would the exact distance.
        let mut scored: Option<(usize, [f64; TILE])> = None;
        for &s in slots {
            if best.prunes(self.store.norm(s) - qnorm) {
                pruned += 1;
                continue;
            }
            let (tile, lane) = (s as usize / TILE, s as usize % TILE);
            let lanes = match scored {
                Some((t, lanes)) if t == tile => lanes,
                _ => {
                    let lanes = sq_l2_tile(self.store.tile(tile), query, best.bound());
                    scored = Some((tile, lanes));
                    lanes
                }
            };
            best.admit(lanes[lane], opened, self.store.id(s));
        }
        pruned
    }

    /// The single nearest neighbor of `query`, if the tree is non-empty.
    pub fn nearest(&self, query: &[f32]) -> Option<Neighbor> {
        self.knn(query, 1).into_iter().next()
    }

    /// Per-level occupancy statistics: `(level, node count, mean fill)`.
    /// Fill is entries per node relative to `max_entries`; useful for
    /// inspecting construction quality (bulk load vs R\* insertion).
    pub fn occupancy(&self) -> Vec<(u32, usize, f64)> {
        let mut per_level: std::collections::BTreeMap<u32, (usize, usize)> =
            std::collections::BTreeMap::new();
        for n in self.node_ids() {
            let e = per_level.entry(self.level(n)).or_insert((0, 0));
            e.0 += 1;
            e.1 += self.node(n).entry_count();
        }
        per_level
            .into_iter()
            .map(|(level, (nodes, entries))| {
                (
                    level,
                    nodes,
                    entries as f64 / (nodes * self.config.max_entries) as f64,
                )
            })
            .collect()
    }

    /// Ids of all points inside `range` (boundary inclusive).
    pub fn range(&self, range: &Rect) -> Vec<u64> {
        assert_eq!(
            range.dim(),
            self.config.dims,
            "range dimensionality mismatch"
        );
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let Some(rect) = self.node(n).rect.as_ref() else {
                continue;
            };
            if !rect.intersects(range) {
                continue;
            }
            self.touch(n);
            match &self.node(n).kind {
                NodeKind::Leaf(slots) => {
                    out.extend(
                        slots
                            .iter()
                            .filter(|&&s| range.contains_point(&self.store.row(s)))
                            .map(|&s| self.store.id(s)),
                    );
                }
                NodeKind::Internal { .. } => stack.extend(self.children(n)),
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Invariants (used heavily by tests)
    // ------------------------------------------------------------------

    /// Checks every structural invariant, panicking with a description of the
    /// first violation. Intended for tests and debug assertions.
    pub fn validate(&self) {
        if let Err(msg) = self.check_invariants() {
            panic!("{msg}");
        }
    }

    /// Non-panicking invariant check: returns a description of the first
    /// violation. Used by deserialization to reject corrupt files.
    ///
    /// Beyond the classic R\*-tree invariants this validates the arena
    /// layout contract (DESIGN.md §11): every child/next-sibling link
    /// resolves to a live in-bounds node, each child chain has exactly the
    /// recorded length and terminates, traversal from the root reaches every
    /// node at most once, the feature tiles hold `dims × TILE` values for
    /// every started tile of slots, every live feature slot is referenced by
    /// exactly one leaf and has a fresh norm, and the free lists are
    /// consistent with liveness.
    pub fn check_invariants(&self) -> Result<(), String> {
        let fail = |msg: String| Err(msg);

        // --- Feature store layout ---
        let slot_count = self.store.slot_count();
        let tile_count = slot_count.div_ceil(TILE);
        if self.store.tiles.len() != tile_count * TILE * self.config.dims {
            return fail(format!(
                "feature block length {} does not equal dims {} x {TILE} x tile count {tile_count}",
                self.store.tiles.len(),
                self.config.dims
            ));
        }
        if self.store.norms.len() != slot_count || self.store.live.len() != slot_count {
            return fail("feature store parallel arrays disagree on slot count".to_string());
        }
        for t in 0..tile_count {
            for (lane, norm) in self.store.tile_norms(t).into_iter().enumerate() {
                let s = t * TILE + lane;
                if s < slot_count && self.store.live[s] && self.store.norms[s] != norm {
                    return fail(format!("stale cached norm for feature slot {s}"));
                }
            }
        }
        let mut freed = vec![false; slot_count];
        for &f in &self.store.free {
            if f as usize >= slot_count {
                return fail(format!("freed feature slot {f} out of bounds"));
            }
            if self.store.live[f as usize] {
                return fail(format!("freed feature slot {f} still marked live"));
            }
            if std::mem::replace(&mut freed[f as usize], true) {
                return fail(format!("feature slot {f} freed twice"));
            }
        }
        let live_slots = self.store.live.iter().filter(|&&l| l).count();
        if live_slots + self.store.free.len() != slot_count {
            return fail("feature slot liveness disagrees with the free list".to_string());
        }

        // --- Tree structure ---
        let root = self.root;
        let root_node = self
            .nodes
            .get(root.index())
            .filter(|n| n.live)
            .ok_or_else(|| "root is not a live node".to_string())?;
        if root_node.parent != NONE {
            return fail("root has a parent".to_string());
        }
        let mut seen_points = 0usize;
        let mut seen_slots = vec![false; slot_count];
        let mut row = Vec::with_capacity(self.config.dims);
        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            // Look the node up before marking it: a dangling index is an
            // `Err`, never an out-of-bounds mark.
            let node = self
                .nodes
                .get(n.index())
                .filter(|x| x.live)
                .ok_or_else(|| format!("dangling child reference {n:?}"))?;
            if std::mem::replace(&mut visited[n.index()], true) {
                return fail(format!(
                    "node {n:?} reachable twice (cycle or shared child)"
                ));
            }
            if n != root && node.entry_count() < self.config.min_entries {
                return fail(format!("node {n:?} underfull: {}", node.entry_count()));
            }
            if node.entry_count() > self.config.max_entries {
                return fail(format!("node {n:?} overfull: {}", node.entry_count()));
            }
            match &node.kind {
                NodeKind::Leaf(slots) => {
                    if node.level != 0 {
                        return fail(format!("leaf at level {}", node.level));
                    }
                    seen_points += slots.len();
                    for &s in slots {
                        if s as usize >= slot_count {
                            return fail(format!("leaf slot {s} out of bounds"));
                        }
                        if !self.store.live[s as usize] {
                            return fail(format!("leaf references freed feature slot {s}"));
                        }
                        if std::mem::replace(&mut seen_slots[s as usize], true) {
                            return fail(format!("feature slot {s} referenced by two leaves"));
                        }
                    }
                    if let Some(rect) = &node.rect {
                        for &s in slots {
                            row.clear();
                            row.extend(self.store.coords(s));
                            if !rect.contains_point(&row) {
                                return fail("leaf rect does not contain its point".to_string());
                            }
                        }
                    } else if !slots.is_empty() {
                        return fail("leaf with points but no rect".to_string());
                    }
                }
                NodeKind::Internal { first_child, count } => {
                    if *count == 0 {
                        return fail("internal node without children".to_string());
                    }
                    let rect = node
                        .rect
                        .as_ref()
                        .ok_or_else(|| "internal node without rect".to_string())?;
                    // Walk the sibling chain with an explicit bound so a
                    // corrupt cyclic chain fails instead of looping forever.
                    let mut chain = Vec::with_capacity(*count as usize);
                    let mut cur = *first_child;
                    for _ in 0..*count {
                        if cur == NONE {
                            return fail(format!(
                                "child chain of {n:?} shorter than count {count}"
                            ));
                        }
                        let child = NodeId(cur);
                        let cn = self
                            .nodes
                            .get(child.index())
                            .filter(|x| x.live)
                            .ok_or_else(|| format!("dangling child reference {child:?}"))?;
                        chain.push(child);
                        cur = cn.next_sibling;
                    }
                    if cur != NONE {
                        return fail(format!("child chain of {n:?} longer than count {count}"));
                    }
                    for &child in &chain {
                        let cn = &self.nodes[child.index()];
                        if cn.parent != n.0 {
                            return fail("bad parent pointer".to_string());
                        }
                        if cn.level + 1 != node.level {
                            return fail("level mismatch".to_string());
                        }
                        let crect = cn
                            .rect
                            .as_ref()
                            .ok_or_else(|| "child without rect".to_string())?;
                        if crect.dim() != self.config.dims || rect.dim() != self.config.dims {
                            return fail("rect dimensionality mismatch".to_string());
                        }
                        if !rect.contains_rect(crect) {
                            return fail("parent rect does not contain child rect".to_string());
                        }
                        stack.push(child);
                    }
                }
            }
        }
        if seen_points != self.len {
            return fail(format!(
                "len {} does not match stored points {seen_points}",
                self.len
            ));
        }
        let referenced = seen_slots.iter().filter(|&&seen| seen).count();
        if referenced != live_slots {
            return fail(format!(
                "live feature slots {live_slots} vs leaf-referenced slots {referenced}"
            ));
        }
        Ok(())
    }
}

fn bounding_rect_of_slots(store: &FeatureStore, slots: &[u32]) -> Rect {
    let mut rect = store.point_rect(slots[0]);
    let mut row = Vec::with_capacity(store.dims);
    for &s in &slots[1..] {
        row.clear();
        row.extend(store.coords(s));
        rect.enlarge_point(&row);
    }
    rect
}

/// A squared distance ordered by `total_cmp`.
#[derive(Debug)]
struct TotalF64(f64);

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for TotalF64 {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for TotalF64 {}

/// The answer of one search as it forms: the `k` scored images that sort
/// first by `(dist2, turn, id)`, largest on top. Once `k` are held the top's
/// distance is the *bound*: the norm prune, the kernel's early abandon and
/// the loop's stop test all compare against it, and it only ever tightens.
///
/// `turn` makes the key the order in which a best-first search over images
/// and nodes together answers (an image before a node at the same distance,
/// then ascending id / node index): an image nearer the query than its own
/// leaf's MINDIST was scored before anything at its distance is answered and
/// takes turn 0; an image exactly *at* its leaf's MINDIST `d` was scored
/// only when that leaf came up — after every image then known at `d` had
/// been answered — and takes the leaf's position in the open sequence.
/// Leaves tied at `d` open one after another, each one's images at `d`
/// answered before the next opens, so ascending turn is answer order and the
/// answer for `k` is a prefix of the answer for `k + 1` across any tie group.
struct BestK {
    k: usize,
    worst_first: BinaryHeap<(TotalF64, u64, u64)>,
}

impl BestK {
    fn new(k: usize) -> Self {
        Self {
            k,
            worst_first: BinaryHeap::with_capacity(k),
        }
    }

    /// The k-th best distance scored so far; infinite until `k` have been.
    fn bound(&self) -> f64 {
        match self.worst_first.peek() {
            Some(worst) if self.worst_first.len() == self.k => worst.0 .0,
            _ => f64::INFINITY,
        }
    }

    /// True when the norm gap `lb = ‖p‖ − ‖q‖` proves the entry lies beyond
    /// the bound, so its distance need not be evaluated.
    fn prunes(&self, lb: f64) -> bool {
        lb * lb > self.bound() * PRUNE_SLACK
    }

    /// True when `k` images are held and none is farther than `mindist`: no
    /// image under a node at least that far can sort before one of them (at
    /// equal distance the image already scored is answered first).
    fn closes(&self, mindist: f64) -> bool {
        match self.worst_first.peek() {
            Some(worst) if self.worst_first.len() == self.k => worst.0 <= TotalF64(mindist),
            _ => false,
        }
    }

    /// Offers an image scored at `d2` in a leaf `opened` at `(MINDIST,
    /// position in the open sequence)`. It is held while it sorts among the
    /// first `k`; one beyond the bound (every row of an abandoned block) is
    /// turned away.
    fn admit(&mut self, d2: f64, opened: (f64, u64), id: u64) {
        let turn = if d2 == opened.0 { opened.1 } else { 0 };
        let key = (TotalF64(d2), turn, id);
        if self.worst_first.len() < self.k {
            self.worst_first.push(key);
        } else if let Some(mut worst) = self.worst_first.peek_mut() {
            if key < *worst {
                *worst = key; // re-sifted when the guard drops
            }
        }
    }

    /// The held images, nearest first.
    fn into_neighbors(self) -> Vec<Neighbor> {
        self.worst_first
            .into_sorted_vec()
            .into_iter()
            .map(|(TotalF64(d2), _, id)| Neighbor {
                id,
                // CAST: f64 search-heap distance narrowed back to the f32
                // feature domain the points live in.
                distance: d2.sqrt() as f32,
            })
            .collect()
    }
}

/// Recursively partitions `items` into chunks of at most `max` elements by
/// median-splitting along the widest dimension — the bulk-load tiler.
/// `coord(item, d)` is the d-th coordinate of an item's key point; the
/// ordering decisions are identical to the legacy slice-keyed tiler.
fn partition_recursive<T: Clone>(
    items: &mut [T],
    max: usize,
    dims: usize,
    coord: impl Fn(&T, usize) -> f32 + Copy,
) -> Vec<Vec<T>> {
    if items.len() <= max {
        return vec![items.to_vec()];
    }
    let mut widest = 0usize;
    let mut widest_span = f32::NEG_INFINITY;
    for d in 0..dims {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for item in items.iter() {
            let v = coord(item, d);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if hi - lo > widest_span {
            widest_span = hi - lo;
            widest = d;
        }
    }
    let mid = items.len() / 2;
    items.sort_by(|a, b| coord(a, widest).total_cmp(&coord(b, widest)));
    let (left, right) = items.split_at_mut(mid);
    let mut out = partition_recursive(left, max, dims, coord);
    out.extend(partition_recursive(right, max, dims, coord));
    out
}

// ----------------------------------------------------------------------
// Persistence (see `crate::persist` for the public API)
// ----------------------------------------------------------------------

/// Arena format: nodes + the contiguous row-major feature block.
const PERSIST_MAGIC: &[u8; 4] = b"QDT2";

/// Serializes the full arena (little-endian): config header, the feature
/// store (ids, one row-major f32 block of `slot_count × dims` values
/// gathered from the tiles, free list; norms are recomputed on load), then
/// the node arena with explicit child lists (sibling chains are rebuilt on
/// load).
pub(crate) fn write_tree(tree: &RStarTree) -> Vec<u8> {
    // The size, bounded from above: the header, each slot's id and row, the
    // free list, and per node a live byte, level, parent, rectangle, kind,
    // count and its child link or entries.
    let dims = tree.config.dims;
    let bytes = 76
        + tree.store.slot_count() * (8 + 4 * dims)
        + 4 * tree.store.free.len()
        + tree.nodes.len() * (23 + 8 * dims)
        + 4 * tree.len;
    let mut w = Writer::with_capacity(PERSIST_MAGIC, bytes);
    w.usize(dims);
    w.usize(tree.config.min_entries);
    w.usize(tree.config.max_entries);
    w.f32(tree.config.reinsert_fraction);
    w.usize(tree.len);
    w.u32(tree.root.0);

    // Feature store.
    let slot_count = tree.store.slot_count();
    w.usize(slot_count);
    w.usize(slot_count * dims);
    w.u64s(&tree.store.ids);
    tree.store.encode_rows(w.f32_words(slot_count * dims));
    w.usize(tree.store.free.len());
    w.u32s(&tree.store.free);

    // Node arena.
    w.usize(tree.nodes.len());
    for (i, node) in tree.nodes.iter().enumerate() {
        w.u8(u8::from(node.live));
        if !node.live {
            continue;
        }
        w.u32(node.level);
        w.u32(node.parent);
        w.u8(u8::from(node.rect.is_some()));
        if let Some(rect) = &node.rect {
            w.f32s(rect.min());
            w.f32s(rect.max());
        }
        match &node.kind {
            NodeKind::Leaf(slots) => {
                w.u8(0);
                w.usize(slots.len());
                w.u32s(slots);
            }
            NodeKind::Internal { .. } => {
                w.u8(1);
                // CAST: i indexes the node arena, u32 by design (see alloc).
                let children = tree.children(NodeId(i as u32)).collect::<Vec<_>>();
                w.usize(children.len());
                for c in children {
                    w.u32(c.0);
                }
            }
        }
    }
    let out = w.finish();
    debug_assert!(
        out.len() <= bytes,
        "QDT2 size bound {bytes} < {}",
        out.len()
    );
    out
}

/// Deserializes a tree written by [`write_tree`], validating structure.
/// Every count is bounded by the remaining payload before it sizes an
/// allocation (`Reader::count`), and the blocks decode in bulk.
pub(crate) fn read_tree(data: &[u8]) -> Result<RStarTree, CodecError> {
    let bad = |msg: &str| CodecError::Invalid(msg.to_string());
    let mut r = Reader::new(data);
    r.magic(PERSIST_MAGIC)?;
    let dims = r.usize()?;
    let min_entries = r.usize()?;
    let max_entries = r.usize()?;
    let reinsert_fraction = r.f32()?;
    if dims == 0
        || dims > 1 << 16
        // bound before multiplying (overflow)
        || !(2..=MAX_NODE_ENTRIES).contains(&min_entries)
        || max_entries > MAX_NODE_ENTRIES
        || min_entries * 2 > max_entries
        || !reinsert_fraction.is_finite()
    {
        return Err(bad("invalid tree configuration"));
    }
    let len = r.usize()?;
    let root = NodeId(r.u32()?);

    // Feature store.
    let slot_count = r.count(8)?;
    let block_len = r.usize()?;
    if slot_count.checked_mul(dims) != Some(block_len) {
        return Err(bad("feature block length does not equal dims x slot count"));
    }
    let ids = r.u64s(slot_count)?;
    let mut store = FeatureStore::decode(dims, ids, r.f32_words(block_len)?);
    let free_count = r.count(4)?;
    store.free = r.u32s(free_count)?;
    for &f in &store.free {
        match store.live.get_mut(f as usize) {
            Some(slot) if *slot => *slot = false,
            _ => return Err(bad("corrupt feature free list")),
        }
    }

    // Node arena: every serialized node costs at least one byte.
    let arena = r.count(1)?;
    if root.index() >= arena {
        return Err(bad("root out of range"));
    }
    let mut nodes = Vec::with_capacity(arena);
    let mut free = Vec::new();
    let mut children_of: Vec<Vec<NodeId>> = Vec::with_capacity(arena);
    for i in 0..arena {
        if r.u8()? == 0 {
            // CAST: i < arena ≤ data.len() (bounded by `count`); overflowing
            // u32 would require a >4 GiB in-memory index image.
            free.push(i as u32);
            nodes.push(Node {
                rect: None,
                parent: NONE,
                next_sibling: NONE,
                level: 0,
                kind: NodeKind::Leaf(Vec::new()),
                live: false,
            });
            children_of.push(Vec::new());
            continue;
        }
        let level = r.u32()?;
        let parent = match r.u32()? {
            NONE => NONE,
            p if (p as usize) < arena => p,
            _ => return Err(bad("parent out of range")),
        };
        let rect = if r.u8()? != 0 {
            let min = r.f32s(dims)?;
            let max = r.f32s(dims)?;
            for (lo, hi) in min.iter().zip(&max) {
                if lo > hi || !lo.is_finite() || !hi.is_finite() {
                    return Err(bad("malformed rectangle"));
                }
            }
            Some(Rect::new(min, max))
        } else {
            None
        };
        let kind_tag = r.u8()?;
        let count = r.count(4)?;
        if count > max_entries {
            return Err(bad("node overfull"));
        }
        let entries = r.u32s(count)?;
        let (kind, children) = match kind_tag {
            0 => {
                if entries
                    .iter()
                    .any(|&s| store.live.get(s as usize) != Some(&true))
                {
                    return Err(bad("leaf references a bad feature slot"));
                }
                (NodeKind::Leaf(entries), Vec::new())
            }
            1 => {
                if entries.iter().any(|&c| c as usize >= arena) {
                    return Err(bad("child out of range"));
                }
                (
                    NodeKind::Internal {
                        first_child: NONE,
                        count: 0,
                    },
                    entries.into_iter().map(NodeId).collect(),
                )
            }
            _ => return Err(bad("unknown node kind")),
        };
        nodes.push(Node {
            rect,
            parent,
            next_sibling: NONE,
            level,
            kind,
            live: true,
        });
        children_of.push(children);
    }
    r.finish()?;

    let mut tree = RStarTree {
        config: TreeConfig {
            dims,
            min_entries,
            max_entries,
            reinsert_fraction,
        },
        nodes,
        free,
        root,
        len,
        store,
        accesses: AtomicU64::new(0),
    };
    // Rebuild sibling chains from the explicit child lists. Parents come
    // from the file and are cross-validated against the chains below.
    for (i, children) in children_of.into_iter().enumerate() {
        if !children.is_empty() {
            // CAST: i < arena ≤ data.len() (bounded by `count`); overflowing
            // u32 would require a >4 GiB in-memory index image.
            tree.chain_children(NodeId(i as u32), &children);
        }
    }
    // A structurally broken file must not produce a tree that misbehaves
    // later; the non-panicking checker rejects it cleanly.
    tree.check_invariants()
        .map_err(|msg| CodecError::Invalid(format!("tree fails structural validation: {msg}")))?;
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KnnIndex;
    use qd_linalg::metric::sq_l2_f64;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, dims: usize, seed: u64) -> Vec<(u64, Vec<f32>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|id| {
                let p: Vec<f32> = (0..dims).map(|_| rng.random::<f32>() * 10.0).collect();
                (id, p)
            })
            .collect()
    }

    fn brute_knn(items: &[(u64, Vec<f32>)], q: &[f32], k: usize) -> Vec<u64> {
        let mut scored: Vec<(f64, u64)> =
            items.iter().map(|(id, p)| (sq_l2_f64(p, q), *id)).collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        scored.into_iter().take(k).map(|(_, id)| id).collect()
    }

    #[test]
    fn empty_tree_behaves() {
        let tree = RStarTree::new(TreeConfig::small(3));
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        assert!(tree.knn(&[0.0, 0.0, 0.0], 5).is_empty());
        tree.validate();
    }

    #[test]
    fn insert_and_query_single_point() {
        let mut tree = RStarTree::new(TreeConfig::small(2));
        tree.insert(vec![1.0, 2.0], 42);
        assert_eq!(tree.len(), 1);
        let nn = tree.knn(&[1.0, 2.0], 1);
        assert_eq!(nn[0].id, 42);
        assert_eq!(nn[0].distance, 0.0);
        tree.validate();
    }

    #[test]
    fn inserts_grow_the_tree_and_keep_invariants() {
        let mut tree = RStarTree::new(TreeConfig::small(3));
        for (id, p) in random_points(200, 3, 1) {
            tree.insert(p, id);
            if id % 37 == 0 {
                tree.validate();
            }
        }
        assert_eq!(tree.len(), 200);
        assert!(tree.height() > 1);
        tree.validate();
    }

    #[test]
    fn knn_matches_brute_force() {
        let items = random_points(300, 4, 7);
        let mut tree = RStarTree::new(TreeConfig::small(4));
        for (id, p) in items.clone() {
            tree.insert(p, id);
        }
        let mut rng = StdRng::seed_from_u64(70);
        for _ in 0..20 {
            let q: Vec<f32> = (0..4).map(|_| rng.random::<f32>() * 10.0).collect();
            let got: Vec<u64> = tree.knn(&q, 10).into_iter().map(|n| n.id).collect();
            let want = brute_knn(&items, &q, 10);
            assert_eq!(got, want, "query {q:?}");
        }
    }

    #[test]
    fn knn_distances_ascend() {
        let items = random_points(150, 5, 9);
        let mut tree = RStarTree::new(TreeConfig::small(5));
        for (id, p) in items {
            tree.insert(p, id);
        }
        let result = tree.knn(&[5.0; 5], 20);
        assert_eq!(result.len(), 20);
        for w in result.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn knn_with_k_larger_than_len_returns_everything() {
        let mut tree = RStarTree::new(TreeConfig::small(2));
        for (id, p) in random_points(8, 2, 3) {
            tree.insert(p, id);
        }
        assert_eq!(tree.knn(&[0.0, 0.0], 100).len(), 8);
    }

    #[test]
    fn knn_with_k_at_usize_max_is_knn_with_k_at_len() {
        // `k` is the caller's number: it must size nothing (a heap of
        // `usize::MAX` entries cannot be allocated) and change nothing.
        let items = random_points(150, 3, 5);
        let mut tree = RStarTree::new(TreeConfig::small(3));
        for (id, p) in items {
            tree.insert(p, id);
        }
        let q = [4.0f32, 5.0, 6.0];
        assert_eq!(tree.knn(&q, usize::MAX), tree.knn(&q, tree.len()));
        let child = tree.children(tree.root()).next().unwrap();
        for budget in [None, Some(40)] {
            for scope in [tree.root(), child] {
                assert_eq!(
                    tree.knn_in_budgeted(scope, &q, usize::MAX, budget),
                    tree.knn_in_budgeted(scope, &q, tree.len(), budget)
                );
            }
        }
    }

    #[test]
    fn knn_in_subtree_is_local() {
        let items = random_points(400, 3, 21);
        let mut tree = RStarTree::new(TreeConfig::small(3));
        for (id, p) in items.clone() {
            tree.insert(p, id);
        }
        // Search restricted to the first child only returns items stored there.
        let child = tree.children(tree.root()).next().unwrap();
        let local_ids: std::collections::BTreeSet<u64> =
            tree.subtree_ids(child).into_iter().collect();
        let result = tree
            .knn_in_budgeted(child, &[5.0, 5.0, 5.0], 25, None)
            .neighbors;
        assert!(!result.is_empty());
        for n in &result {
            assert!(local_ids.contains(&n.id), "{} escaped the subtree", n.id);
        }
        // And matches brute force over the subtree's items.
        let local_items: Vec<(u64, Vec<f32>)> = items
            .iter()
            .filter(|(id, _)| local_ids.contains(id))
            .cloned()
            .collect();
        let want = brute_knn(&local_items, &[5.0, 5.0, 5.0], 25);
        let got: Vec<u64> = result.into_iter().map(|n| n.id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn range_query_matches_filter() {
        let items = random_points(250, 2, 13);
        let mut tree = RStarTree::new(TreeConfig::small(2));
        for (id, p) in items.clone() {
            tree.insert(p, id);
        }
        let range = Rect::new(vec![2.0, 3.0], vec![6.0, 8.0]);
        let mut got = tree.range(&range);
        got.sort_unstable();
        let mut want: Vec<u64> = items
            .iter()
            .filter(|(_, p)| range.contains_point(p))
            .map(|(id, _)| *id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!want.is_empty(), "test range should be non-trivial");
    }

    #[test]
    fn remove_deletes_exactly_the_entry() {
        let items = random_points(120, 3, 17);
        let mut tree = RStarTree::new(TreeConfig::small(3));
        for (id, p) in items.clone() {
            tree.insert(p, id);
        }
        // Remove half the entries.
        for (id, p) in items.iter().take(60) {
            assert!(tree.remove(p, *id), "missing {id}");
            tree.validate();
        }
        assert_eq!(tree.len(), 60);
        // Removed entries are gone; the rest still findable.
        for (id, p) in &items[..60] {
            assert!(!tree.remove(p, *id));
        }
        for (id, p) in &items[60..] {
            let nn = tree.knn(p, 1);
            assert_eq!(nn[0].id, *id);
        }
    }

    #[test]
    fn remove_everything_leaves_empty_tree() {
        let items = random_points(80, 2, 23);
        let mut tree = RStarTree::new(TreeConfig::small(2));
        for (id, p) in items.clone() {
            tree.insert(p, id);
        }
        for (id, p) in &items {
            assert!(tree.remove(p, *id));
        }
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 1);
        tree.validate();
        // Tree remains usable.
        tree.insert(vec![1.0, 1.0], 999);
        assert_eq!(tree.knn(&[1.0, 1.0], 1)[0].id, 999);
    }

    #[test]
    fn remove_nonexistent_returns_false() {
        let mut tree = RStarTree::new(TreeConfig::small(2));
        tree.insert(vec![1.0, 1.0], 1);
        assert!(!tree.remove(&[2.0, 2.0], 1)); // wrong point
        assert!(!tree.remove(&[1.0, 1.0], 2)); // wrong id
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn bulk_load_matches_insert_semantics() {
        let items = random_points(500, 4, 31);
        let tree = RStarTree::bulk_load(TreeConfig::small(4), items.clone());
        assert_eq!(tree.len(), 500);
        tree.validate();
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..10 {
            let q: Vec<f32> = (0..4).map(|_| rng.random::<f32>() * 10.0).collect();
            let got: Vec<u64> = tree.knn(&q, 7).into_iter().map(|n| n.id).collect();
            assert_eq!(got, brute_knn(&items, &q, 7), "query {q:?}");
        }
    }

    #[test]
    fn bulk_load_empty_and_tiny() {
        let tree = RStarTree::bulk_load(TreeConfig::small(2), vec![]);
        assert!(tree.is_empty());
        let tree = RStarTree::bulk_load(TreeConfig::small(2), vec![(5, vec![1.0, 1.0])]);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.knn(&[0.0, 0.0], 1)[0].id, 5);
        tree.validate();
    }

    #[test]
    fn paper_config_builds_shallow_tree() {
        // With node capacity 70–100 the paper's 15k-image database yields a
        // 3-level structure; 3,000 points must stay within 3 levels too.
        let items = random_points(3000, 5, 41);
        let tree = RStarTree::bulk_load(TreeConfig::paper(5), items);
        tree.validate();
        assert!(tree.height() <= 3, "height = {}", tree.height());
    }

    #[test]
    fn access_counter_tracks_work() {
        let items = random_points(400, 3, 43);
        let tree = RStarTree::bulk_load(TreeConfig::small(3), items);
        tree.reset_accesses();
        assert_eq!(tree.accesses(), 0);
        tree.knn(&[5.0, 5.0, 5.0], 5);
        let global = tree.accesses();
        assert!(global > 0);
        // A subtree-scoped query touches fewer nodes.
        tree.reset_accesses();
        let child = tree.children(tree.root()).next().unwrap();
        let local = tree.knn_in_budgeted(child, &[5.0, 5.0, 5.0], 5, None);
        assert_eq!(tree.accesses(), local.accesses);
        assert!(tree.accesses() < global);
    }

    #[test]
    fn structural_accessors_are_consistent() {
        let items = random_points(300, 3, 47);
        let tree = RStarTree::bulk_load(TreeConfig::small(3), items);
        let root = tree.root();
        assert!(tree.parent(root).is_none());
        assert_eq!(tree.level(root) as usize + 1, tree.height());
        let mut total = 0;
        for n in tree.node_ids() {
            if tree.is_leaf(n) {
                total += tree.leaf_ids(n).count();
            } else {
                for c in tree.children(n) {
                    assert_eq!(tree.parent(c), Some(n));
                }
            }
        }
        assert_eq!(total, tree.len());
        assert_eq!(tree.subtree_len(root), tree.len());
        assert_eq!(tree.subtree_ids(root).into_iter().count(), tree.len());
    }

    #[test]
    fn duplicate_points_are_allowed() {
        let mut tree = RStarTree::new(TreeConfig::small(2));
        for id in 0..20 {
            tree.insert(vec![1.0, 1.0], id);
        }
        assert_eq!(tree.len(), 20);
        tree.validate();
        assert_eq!(tree.knn(&[1.0, 1.0], 20).len(), 20);
    }

    #[test]
    fn high_dimensional_points_work() {
        // The real workload: 37 dimensions.
        let items = random_points(300, 37, 53);
        let mut tree = RStarTree::new(TreeConfig {
            dims: 37,
            min_entries: 8,
            max_entries: 20,
            reinsert_fraction: 0.3,
        });
        for (id, p) in items.clone() {
            tree.insert(p, id);
        }
        tree.validate();
        let q = &items[17].1;
        let got: Vec<u64> = tree.knn(q, 5).into_iter().map(|n| n.id).collect();
        assert_eq!(got, brute_knn(&items, q, 5));
    }

    #[test]
    fn nearest_matches_knn_head() {
        let items = random_points(100, 3, 61);
        let tree = RStarTree::bulk_load(TreeConfig::small(3), items);
        let q = [5.0, 5.0, 5.0];
        assert_eq!(tree.nearest(&q), tree.knn(&q, 1).into_iter().next());
        let empty = RStarTree::new(TreeConfig::small(3));
        assert_eq!(empty.nearest(&q), None);
    }

    #[test]
    fn occupancy_reports_every_level_with_sane_fill() {
        let items = random_points(500, 3, 67);
        let tree = RStarTree::bulk_load(TreeConfig::small(3), items);
        let occ = tree.occupancy();
        assert_eq!(occ.len(), tree.height());
        let total_nodes: usize = occ.iter().map(|&(_, n, _)| n).sum();
        assert_eq!(total_nodes, tree.node_count());
        for &(level, nodes, fill) in &occ {
            assert!(nodes > 0, "level {level}");
            assert!(fill > 0.0 && fill <= 1.0, "level {level} fill {fill}");
        }
        // Leaves (level 0) hold all the data.
        assert_eq!(occ[0].0, 0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dimension_insert_panics() {
        let mut tree = RStarTree::new(TreeConfig::small(3));
        tree.insert(vec![1.0, 2.0], 0);
    }

    #[test]
    #[should_panic(expected = "min_entries")]
    fn invalid_config_panics() {
        RStarTree::new(TreeConfig {
            dims: 2,
            min_entries: 4,
            max_entries: 5,
            reinsert_fraction: 0.3,
        });
    }

    #[test]
    fn contains_node_accepts_live_and_rejects_foreign_handles() {
        let items: Vec<(u64, Vec<f32>)> = (0..50u64).map(|i| (i, vec![i as f32, 0.0])).collect();
        let tree = RStarTree::bulk_load(TreeConfig::small(2), items);
        for n in tree.node_ids() {
            assert!(tree.contains_node(n));
        }
        let single = RStarTree::bulk_load(TreeConfig::small(2), vec![(0, vec![0.0, 0.0])]);
        // A handle minted by a much larger tree dangles in the single-node one.
        let big = tree.node_ids().last().unwrap();
        if big.index() >= single.node_count() {
            assert!(!single.contains_node(big));
        }
    }

    #[test]
    fn unlimited_budget_matches_plain_knn() {
        let items: Vec<(u64, Vec<f32>)> = (0..200u64)
            .map(|i| (i, vec![(i % 17) as f32, (i / 17) as f32]))
            .collect();
        let tree = RStarTree::bulk_load(TreeConfig::small(2), items);
        let q = [3.3f32, 4.1];
        tree.reset_accesses();
        let plain = tree.knn(&q, 10);
        let accesses = tree.accesses();
        let b = tree.knn_in_budgeted(tree.root(), &q, 10, None);
        assert_eq!(b.neighbors, plain);
        assert_eq!(b.accesses, accesses);
        assert!(!b.exhausted);
        assert_eq!(b.nodes_skipped, 0);
        assert!(b.distance_computations > 0);
        // A budget at least as large as the spend also completes untouched.
        let c = tree.knn_in_budgeted(tree.root(), &q, 10, Some(b.distance_computations + 1));
        assert_eq!(c.neighbors, plain);
        assert!(!c.exhausted);
    }

    fn ids_of(b: &BudgetedKnn) -> Vec<u64> {
        b.neighbors.iter().map(|n| n.id).collect()
    }

    #[test]
    fn equidistant_entries_of_a_leaf_are_emitted_in_ascending_id() {
        // One leaf (capacity 100): the same vector five times under ids that
        // ascend in no slot order, between a nearer and a farther point.
        let mut tree = RStarTree::new(TreeConfig::paper(2));
        for id in [7u64, 3, 9, 1, 5] {
            tree.insert(vec![1.0, 0.0], id);
        }
        tree.insert(vec![0.1, 0.0], 100);
        tree.insert(vec![5.0, 5.0], 200);
        assert!(tree.is_leaf(tree.root()));
        let order = [100u64, 1, 3, 5, 7, 9, 200];
        for k in 1..=order.len() {
            let full = tree.knn_in_budgeted(tree.root(), &[0.0, 0.0], k, None);
            assert_eq!(ids_of(&full), order[..k], "k {k}");
            // A budget that just covers the search changes nothing.
            let budget = Some(full.distance_computations);
            let tight = tree.knn_in_budgeted(tree.root(), &[0.0, 0.0], k, budget);
            assert_eq!(tight, full, "k {k}");
            assert!(!tight.exhausted);
        }
    }

    #[test]
    fn answers_across_a_tie_group_are_prefixes_of_each_other() {
        // Duplicated vectors spread over several small leaves: ties between
        // images of different leaves, and between an image and the MINDIST
        // of a leaf whose rectangle is that very point.
        let mut tree = RStarTree::new(TreeConfig::small(2));
        let mut id = 0u64;
        for round in 0..6 {
            for p in [[1.0f32, 0.0], [0.0, 1.0], [-1.0, 0.0], [2.0, 2.0]] {
                tree.insert(p.to_vec(), (id * 7) % 24); // ids in scrambled order
                id += 1;
            }
            tree.insert(vec![0.3 * round as f32, 0.1], 100 + round);
        }
        assert!(tree.height() >= 2);
        let q = [0.0f32, 0.0];
        let all = tree.knn_in_budgeted(tree.root(), &q, tree.len(), None);
        assert_eq!(all.neighbors.len(), tree.len());
        for k in 1..tree.len() {
            let full = tree.knn_in_budgeted(tree.root(), &q, k, None);
            assert_eq!(full.neighbors, all.neighbors[..k], "k {k}");
            let budget = Some(full.distance_computations);
            let tight = tree.knn_in_budgeted(tree.root(), &q, k, budget);
            assert_eq!(tight, full, "k {k}");
        }
    }

    #[test]
    fn exhausted_budget_returns_valid_best_so_far() {
        let items: Vec<(u64, Vec<f32>)> = (0..300u64)
            .map(|i| (i, vec![(i % 20) as f32, (i / 20) as f32]))
            .collect();
        let tree = RStarTree::bulk_load(TreeConfig::small(2), items);
        let q = [9.5f32, 7.5];
        let full = tree.knn(&q, 25);
        for budget in [0u64, 1, 5, 20, 60, 150] {
            let b = tree.knn_in_budgeted(tree.root(), &q, 25, Some(budget));
            assert!(
                b.distance_computations <= budget.max(1) + 64,
                "spend near budget"
            );
            // Results are valid: unique ids, ascending distances.
            let mut ids: Vec<u64> = b.neighbors.iter().map(|n| n.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(
                ids.len(),
                b.neighbors.len(),
                "duplicate ids at budget {budget}"
            );
            for w in b.neighbors.windows(2) {
                assert!(w[0].distance <= w[1].distance);
            }
            assert!(b.neighbors.len() <= full.len());
            if !b.exhausted {
                assert_eq!(
                    b.neighbors, full,
                    "non-exhausted budget {budget} must be exact"
                );
                assert_eq!(b.nodes_skipped, 0);
            } else {
                assert!(b.nodes_skipped > 0);
            }
        }
        // Determinism: same budget, same answer.
        let a = tree.knn_in_budgeted(tree.root(), &q, 25, Some(40));
        let b = tree.knn_in_budgeted(tree.root(), &q, 25, Some(40));
        assert_eq!(a, b);
    }

    #[test]
    fn budget_zero_computes_nothing() {
        let items: Vec<(u64, Vec<f32>)> = (0..50u64).map(|i| (i, vec![i as f32, 0.0])).collect();
        let tree = RStarTree::bulk_load(TreeConfig::small(2), items);
        let b = tree.knn_in_budgeted(tree.root(), &[1.0, 0.0], 5, Some(0));
        assert!(b.neighbors.is_empty());
        assert!(b.exhausted);
        assert_eq!(b.accesses, 0);
    }

    #[test]
    fn pruned_budgeted_knn_matches_unpruned_ranking() {
        // The norm lower bound may skip evaluations but must never change
        // the ranking, the counters, or budget exhaustion points. Clustered
        // data with a far-off query maximizes pruning opportunity.
        let mut items = random_points(400, 8, 71);
        for (i, (_, p)) in items.iter_mut().enumerate() {
            if i % 3 == 0 {
                for v in p.iter_mut() {
                    *v += 200.0; // far cluster: large norm gap to near queries
                }
            }
        }
        let tree = RStarTree::bulk_load(TreeConfig::small(8), items.clone());
        let q = vec![1.0f32; 8];
        let mut saw_pruning = false;
        for budget in [0u64, 1, 10, 50, 200, 1000, u64::MAX] {
            let b = tree.knn_in_budgeted(tree.root(), &q, 25, Some(budget));
            saw_pruning |= b.distances_pruned > 0;
            assert!(b.distances_pruned <= b.distance_computations);
            if !b.exhausted {
                let want = brute_knn(&items, &q, 25);
                let got: Vec<u64> = b.neighbors.iter().map(|n| n.id).collect();
                assert_eq!(got, want, "budget {budget}");
            }
        }
        assert!(saw_pruning, "test data should trigger the norm lower bound");
    }

    #[test]
    fn check_invariants_catches_soa_length_mismatch() {
        let items = random_points(100, 3, 73);
        let mut tree = RStarTree::bulk_load(TreeConfig::small(3), items);
        assert!(tree.check_invariants().is_ok());
        tree.store.tiles.pop(); // no longer dims x TILE per started tile
        let err = tree.check_invariants().unwrap_err();
        assert!(err.contains("feature block length"), "{err}");
    }

    #[test]
    fn check_invariants_catches_corrupt_child_chain() {
        let items = random_points(200, 2, 79);
        let mut tree = RStarTree::bulk_load(TreeConfig::small(2), items);
        let root = tree.root();
        let first = tree.children(root).next().unwrap();
        // Cut the chain short: the recorded count no longer matches.
        tree.nodes[first.index()].next_sibling = NONE;
        let err = tree.check_invariants().unwrap_err();
        assert!(err.contains("child chain"), "{err}");
    }

    #[test]
    fn check_invariants_catches_freed_slot_reference() {
        let items = random_points(60, 2, 83);
        let mut tree = RStarTree::bulk_load(TreeConfig::small(2), items);
        // Free a slot that a leaf still references.
        tree.store.release(0);
        let err = tree.check_invariants().unwrap_err();
        assert!(err.contains("slot"), "{err}");
    }

    #[test]
    fn leaf_items_see_the_store_as_it_is_now() {
        let items = random_points(60, 3, 101);
        let mut tree = RStarTree::new(TreeConfig::small(3));
        for (id, p) in items.iter().cloned() {
            tree.insert(p, id);
        }
        let rows = |tree: &RStarTree| -> Vec<(u64, Vec<f32>)> {
            let mut rows: Vec<_> = tree
                .node_ids()
                .flat_map(|n| tree.leaf_items(n))
                .map(|(id, p)| (id, p.to_vec()))
                .collect();
            rows.sort_by_key(|r| r.0);
            rows
        };
        assert_eq!(rows(&tree), items);
        // A freed slot taken by a new point: the row-major copy made above
        // must not answer for it.
        let (id, p) = &items[7];
        assert!(tree.remove(p, *id));
        let moved = vec![-1.0, -2.0, -3.0];
        tree.insert(moved.clone(), *id);
        assert!(tree.store.free.is_empty());
        let mut want = items.clone();
        want[7].1 = moved;
        assert_eq!(rows(&tree), want);
        // A clone makes its own copy when asked.
        let clone = tree.clone();
        assert!(clone.store.rows.0.get().is_none());
        assert_eq!(rows(&clone), want);
    }

    #[test]
    fn compact_renumbers_slots_leaf_by_leaf_and_drops_the_free_list() {
        let items = random_points(600, 3, 97);
        let mut tree = RStarTree::new(TreeConfig::small(3));
        for (id, p) in items.clone() {
            tree.insert(p, id);
        }
        for (id, p) in items.iter().step_by(4) {
            assert!(tree.remove(p, *id));
        }
        assert!(!tree.store.free.is_empty() && tree.store.slot_count() > tree.len());
        let entries = |tree: &RStarTree| -> Vec<String> {
            let of = |n| tree.leaf_items(n).collect::<Vec<_>>();
            tree.node_ids()
                .map(|n| format!("{n:?}: {:?}", of(n)))
                .collect()
        };
        let before = entries(&tree);

        tree.compact();
        tree.validate();
        assert_eq!(entries(&tree), before);
        assert_eq!(tree.store.slot_count(), tree.len());
        assert!(tree.store.free.is_empty());
        // Depth-first along the child chains, every leaf holds the next
        // consecutive run of slots, in its entry order.
        let mut next = 0u32;
        let mut stack = vec![tree.root()];
        while let Some(n) = stack.pop() {
            for &s in tree.leaf_slots(n) {
                assert_eq!(s, next, "leaf {n:?}");
                next += 1;
            }
            let first = stack.len();
            stack.extend(tree.children(n));
            stack[first..].reverse();
        }
        assert_eq!(next as usize, tree.len());
    }

    /// The leaf scan as a one-by-one loop in slot order: the norm prune
    /// against the bound as it stands, else the full [`sq_l2_f64`] of the
    /// gathered row, admitted.
    fn reference_score_leaf(
        tree: &RStarTree,
        slots: &[u32],
        query: &[f32],
        qnorm: f64,
        opened: (f64, u64),
        best: &mut BestK,
    ) -> u64 {
        let mut pruned = 0;
        for &s in slots {
            if best.prunes(tree.store.norm(s) - qnorm) {
                pruned += 1;
            } else {
                let d2 = sq_l2_f64(&tree.store.row(s), query);
                best.admit(d2, opened, tree.store.id(s));
            }
        }
        pruned
    }

    /// Tile-at-a-time leaf scoring is the one-by-one scan: same neighbours
    /// and distance bits, same `distance_computations` and
    /// `distances_pruned` (and every other field), on trees whose leaves
    /// share tiles with other leaves and with freed slots still holding
    /// their old points, whose last tile is partial, at several scopes, `k`
    /// and budgets, with queries on, near and far from the data.
    #[test]
    fn tile_scoring_matches_the_one_by_one_scan() {
        let mut rng = StdRng::seed_from_u64(0x711E);
        let (mut searches, mut pruning, mut shared_tiles, mut stale_lanes) = (0, 0, 0, 0);
        for (dims, n) in [(2usize, 150usize), (5, 301), (37, 403)] {
            // Two clusters far apart, so the norm bound prunes.
            let mut items = random_points(n, dims, dims as u64);
            for (_, p) in items.iter_mut().step_by(3) {
                p.iter_mut().for_each(|v| *v += 60.0);
            }
            let config = TreeConfig {
                dims,
                min_entries: 4,
                max_entries: 12,
                reinsert_fraction: 0.3,
            };
            let mut tree = RStarTree::new(config);
            for (id, p) in items.iter().cloned() {
                tree.insert(p, id);
            }
            // Churn: a third out, a few new points into the freed slots
            // and past them.
            for (id, p) in items.iter().step_by(3).take(n / 3) {
                assert!(tree.remove(p, *id));
            }
            for i in 0..n as u64 / 10 {
                let p = items[i as usize].1.iter().map(|v| v + 0.5).collect();
                tree.insert(p, 10_000 + i);
            }
            tree.validate();
            let slot_count = tree.store.slot_count();
            assert!(!tree.store.free.is_empty() && !slot_count.is_multiple_of(TILE));
            stale_lanes += tree.store.free.len();
            let leaf_tiles = |n: NodeId| {
                let mut t: Vec<usize> = tree
                    .leaf_slots(n)
                    .iter()
                    .map(|&s| s as usize / TILE)
                    .collect();
                t.dedup();
                t.len()
            };
            let leaves: Vec<NodeId> = tree.node_ids().filter(|&n| tree.is_leaf(n)).collect();
            shared_tiles += leaves
                .iter()
                .filter(|&&l| leaf_tiles(l) * TILE > 2 * tree.leaf_slots(l).len())
                .count();

            let mut scopes = vec![tree.root()];
            scopes.extend(tree.children(tree.root()).take(2));
            scopes.extend(leaves.iter().take(2));
            for q in 0..12 {
                let query: Vec<f32> = match q % 3 {
                    0 => items[rng.random_range(0..n)].1.clone(),
                    1 => (0..dims).map(|_| rng.random_range(-5.0f32..70.0)).collect(),
                    _ => vec![200.0; dims],
                };
                for &scope in &scopes {
                    for k in [1usize, 3, 10, 40, usize::MAX] {
                        for budget in [None, Some(5), Some(60), Some(400)] {
                            let got = tree.knn_in_budgeted(scope, &query, k, budget);
                            let want = tree.search(scope, &query, k, budget, reference_score_leaf);
                            assert_eq!(
                                got, want,
                                "d {dims} scope {scope:?} q {q} k {k} budget {budget:?}"
                            );
                            searches += 1;
                            pruning += usize::from(got.distances_pruned > 0);
                        }
                    }
                }
            }
        }
        assert!(searches > 2000, "{searches} searches");
        assert!(pruning > 300, "only {pruning} searches pruned");
        assert!(
            shared_tiles > 20,
            "only {shared_tiles} leaves spread over tiles"
        );
        assert!(stale_lanes > 50, "only {stale_lanes} freed slots");
    }

    #[test]
    fn bulk_load_packs_features_contiguously() {
        // Each leaf's slots form a contiguous ascending run of the SoA
        // block — the cache-linearity the arena layout exists for.
        let items = random_points(500, 3, 89);
        let tree = RStarTree::bulk_load(TreeConfig::small(3), items);
        for n in tree.node_ids() {
            if !tree.is_leaf(n) {
                continue;
            }
            let slots = match &tree.nodes[n.index()].kind {
                NodeKind::Leaf(s) => s.clone(),
                NodeKind::Internal { .. } => unreachable!(),
            };
            for w in slots.windows(2) {
                assert_eq!(w[1], w[0] + 1, "leaf slots not contiguous");
            }
        }
    }
}
