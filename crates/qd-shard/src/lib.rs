#![warn(missing_docs)]
// A serving path returns a typed error or degrades; it never panics on input.
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Sharded index layer: K independent R\*-tree shards behind one
//! [`KnnIndex`] facade.
//!
//! The paper's multiple-neighborhood decomposition already fans localized
//! subqueries out over independent regions of feature space, which maps
//! directly onto a sharded index: the corpus is partitioned into K shards by
//! a deterministic seeded hash of the image id, each shard grows its own
//! arena R\*-tree, and a [`ShardSet`] presents the collection as a single
//! tree — one synthetic root whose children are the K shard roots. Queries
//! scoped below the synthetic root delegate to the owning shard untouched;
//! queries at the synthetic root *scatter* across all shards (with a
//! largest-remainder split of the distance budget, reusing
//! [`qd_core::split_budget`]) and *gather* the per-shard prefixes through
//! the same `total_cmp`/id-tie-break merge the session layer uses, so
//! results are bit-identical at every `QD_THREADS`.
//!
//! Three properties make the layer safe to compose with the rest of the
//! engine:
//!
//! * **K = 1 transparency** — a single-shard set delegates every call to its
//!   one tree with identity node handles and no scatter instrumentation, so
//!   whole sessions (results, counters, span trees) are byte-identical to an
//!   unsharded run over the same corpus.
//! * **One update algorithm** — [`ShardSet::insert`]/[`ShardSet::remove`]
//!   clone the one touched shard's tree and apply a single R\* insert or
//!   remove to the clone: the O(M · height) update a monolithic tree takes,
//!   never a rebuild. What an updated set is equal to, strongest first:
//!   [`ShardSet::build`] is byte-pinned; *appending* an id above every
//!   member equals a from-scratch build byte for byte (it is the next step
//!   of that shard's ascending-id construction); a one-shard set's update
//!   equals `RStarTree::clone` + `insert`/`remove` on the monolithic tree,
//!   bytes and refreshed representatives alike; every other update (a
//!   middle id re-inserted, any removal) is held to an oracle instead —
//!   invariants, exhaustive-scan answers over the mutated membership, and
//!   a representative refresh equal to a fresh decoration of the same tree
//!   (DESIGN.md §14).
//! * **Copy-on-write snapshots** — a mutation returns a *new* `ShardSet`
//!   sharing the untouched shards by `Arc`; [`ShardPublisher`] swaps the
//!   published snapshot atomically so in-flight sessions keep reading the
//!   old one (the publication contract of DESIGN.md §14).
//!
//! Failure injection: `shard.scatter.panic` kills one scatter leg (keyed by
//! shard index), `shard.merge.drop` makes the gather refuse one shard's
//! prefix (work stays charged), and `shard.publish.fail` turns a snapshot
//! publication into a typed error that leaves the previous snapshot in
//! place. Lost legs surface as [`qd_index::BudgetedKnn::partitions_dropped`]
//! and the `shard.legs_dropped` counter, which the session layer folds into
//! its degradation report — a query degrades, never errors, while at least
//! one shard survives.

pub mod persist;

use qd_core::{split_budget, RfsConfig, RfsStructure};
use qd_index::{BudgetedKnn, KnnIndex, Neighbor, NodeId, RStarTree, Rect, TreeConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Node-handle stride between shards: a shard-local arena index must be
/// below this for the global handle `shard * STRIDE + local` to be
/// unambiguous. 2²³ nodes per shard is far above any reachable arena size
/// (the 15,000-image paper corpus builds a few hundred nodes).
const STRIDE: usize = 1 << 23;

/// Maximum shard count. Keeps every encoded handle (`shard * STRIDE +
/// local < 2³¹`) well clear of the synthetic-root handle and the arena's
/// internal `u32::MAX` sentinel.
pub const MAX_SHARDS: usize = 255;

/// Arena index of the synthetic root node (only used when `shards > 1`).
/// One below the arena's `u32::MAX` "no node" sentinel, far above any
/// encodable shard-local handle.
const SYNTH_ROOT_INDEX: usize = (u32::MAX - 1) as usize;

/// Shard partitioning parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards (1 ..= [`MAX_SHARDS`]).
    pub shards: usize,
    /// Seed of the deterministic id → shard assignment hash.
    pub seed: u64,
}

impl ShardConfig {
    /// Creates a config with `shards` partitions under `seed`.
    ///
    /// # Panics
    /// Panics when `shards` is 0 or exceeds [`MAX_SHARDS`].
    pub fn new(shards: usize, seed: u64) -> Self {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count {shards} outside 1..={MAX_SHARDS}"
        );
        Self { shards, seed }
    }
}

/// SplitMix64 finalizer — a full-avalanche 64-bit mix, so consecutive image
/// ids land on uncorrelated shards.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The shard owning image `id` under `config` — a pure function of
/// `(seed, id, shard count)`, so the assignment is reproducible across
/// processes, thread counts, and incremental mutations.
pub fn shard_of(config: &ShardConfig, id: u64) -> usize {
    // CAST: the modulus is the shard count (≤ MAX_SHARDS), always in usize.
    (splitmix64(config.seed ^ id) % config.shards as u64) as usize
}

/// K corpus shards presented as one [`KnnIndex`].
///
/// Shards are held by `Arc`, so cloning a set (the copy-on-write snapshot
/// step) is cheap and a mutation shares every untouched shard with its
/// predecessor. See the crate docs for the node-handle encoding and the
/// scatter-gather contract.
#[derive(Debug, Clone)]
pub struct ShardSet {
    config: ShardConfig,
    tree_config: TreeConfig,
    shards: Vec<Arc<RStarTree>>,
    /// Per-shard member image ids, ascending: the order [`Self::build`]
    /// inserts in, and the index membership checks binary-search.
    members: Vec<Vec<u64>>,
    total: usize,
    /// Union of the shard root rectangles (the synthetic root's rect).
    root_rect: Option<Rect>,
    /// Level of the synthetic root: one above the tallest shard root.
    root_level: u32,
}

/// Builds one shard's tree from scratch by inserting its member ids in
/// ascending order — the monolithic build's own entry point, compaction
/// included — so appending a larger id to a built shard is the next step of
/// the same construction (in structure; the appended row takes the next
/// free slot, not a place in its leaf's run).
fn build_shard_tree(ids: &[u64], features: &[Vec<f32>], config: &TreeConfig) -> RStarTree {
    let rows = ids.iter().map(|&id| (id, features[id as usize].clone()));
    RStarTree::from_rows(config.clone(), rows)
}

impl ShardSet {
    /// Partitions `features` (image id = index) into shards and builds one
    /// tree per shard, fanning the builds out across the qd-runtime pool
    /// (each under a `shard.build` span keyed by shard index).
    ///
    /// # Panics
    /// Panics if `features` is empty or `tree_config.dims` does not match.
    pub fn build(features: &[Vec<f32>], tree_config: TreeConfig, config: ShardConfig) -> Self {
        assert!(!features.is_empty(), "cannot shard an empty corpus");
        assert_eq!(
            tree_config.dims,
            features[0].len(),
            "tree config dims must match the features"
        );
        let mut members: Vec<Vec<u64>> = vec![Vec::new(); config.shards];
        for id in 0..features.len() as u64 {
            members[shard_of(&config, id)].push(id);
        }
        let shards: Vec<Arc<RStarTree>> = qd_runtime::par_map_indexed(&members, |s, ids| {
            qd_obs::span_indexed(qd_obs::sp::SHARD_BUILD, s as u64, || {
                Arc::new(build_shard_tree(ids, features, &tree_config))
            })
        });
        Self::assemble(config, tree_config, shards, members)
    }

    /// Returns a new set with `id` added to its assigned shard: that shard's
    /// tree is cloned and takes one R\* insert, exactly the update a
    /// monolithic tree takes; every other shard is shared with `self` by
    /// `Arc`. `features` must already contain the new image's vector at
    /// index `id`.
    ///
    /// # Panics
    /// Panics if `id` has no feature vector or is already a member.
    pub fn insert(&self, features: &[Vec<f32>], id: u64) -> Self {
        assert!(
            (id as usize) < features.len(),
            "inserted id {id} has no feature vector"
        );
        let s = shard_of(&self.config, id);
        let mut members = self.members.clone();
        let pos = match members[s].binary_search(&id) {
            Err(pos) => pos,
            Ok(_) => panic!("image {id} is already a member of shard {s}"),
        };
        members[s].insert(pos, id);
        self.with_updated_shard(s, members, |tree| {
            tree.insert(features[id as usize].clone(), id);
        })
    }

    /// Returns a new set with `id` removed from its assigned shard — the
    /// copy-on-write counterpart of [`Self::insert`]: one R\* remove on a
    /// clone of that shard's tree. `features` must still hold the removed
    /// image's vector at index `id`; the tree locates the entry by it.
    ///
    /// # Panics
    /// Panics if `id` has no feature vector or is not a member.
    pub fn remove(&self, features: &[Vec<f32>], id: u64) -> Self {
        assert!(
            (id as usize) < features.len(),
            "removed id {id} has no feature vector"
        );
        let s = shard_of(&self.config, id);
        let mut members = self.members.clone();
        let pos = match members[s].binary_search(&id) {
            Ok(pos) => pos,
            Err(_) => panic!("image {id} is not a member of shard {s}"),
        };
        members[s].remove(pos);
        self.with_updated_shard(s, members, |tree| {
            assert!(
                tree.remove(&features[id as usize], id),
                "invariant violated: shard {s} lists image {id} as a member but its tree holds \
                 no entry with that id and feature vector"
            );
        })
    }

    /// The copy-on-write step: applies `update` to a private clone of shard
    /// `s`'s tree and reassembles the set around it, sharing every other
    /// shard tree with `self`.
    fn with_updated_shard(
        &self,
        s: usize,
        members: Vec<Vec<u64>>,
        update: impl FnOnce(&mut RStarTree),
    ) -> Self {
        let mut tree = RStarTree::clone(&self.shards[s]);
        update(&mut tree);
        let mut shards = self.shards.clone();
        shards[s] = Arc::new(tree);
        Self::assemble(
            self.config.clone(),
            self.tree_config.clone(),
            shards,
            members,
        )
    }

    /// Computes the derived fields (totals, synthetic-root rect and level)
    /// shared by every construction path.
    fn assemble(
        config: ShardConfig,
        tree_config: TreeConfig,
        shards: Vec<Arc<RStarTree>>,
        members: Vec<Vec<u64>>,
    ) -> Self {
        let total = members.iter().map(Vec::len).sum();
        let mut root_rect: Option<Rect> = None;
        let mut max_root_level = 0u32;
        for tree in &shards {
            max_root_level = max_root_level.max(tree.level(tree.root()));
            if let Some(r) = tree.node_rect(tree.root()) {
                root_rect = Some(match root_rect {
                    Some(acc) => acc.union(r),
                    None => r.clone(),
                });
            }
        }
        Self {
            config,
            tree_config,
            shards,
            members,
            total,
            root_rect,
            root_level: max_root_level + 1,
        }
    }

    /// The partitioning configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// The per-shard tree construction parameters.
    pub fn tree_config(&self) -> &TreeConfig {
        &self.tree_config
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.config.shards
    }

    /// Shard `s`'s tree.
    ///
    /// # Panics
    /// Panics when `s` is out of range.
    pub fn shard(&self, s: usize) -> &RStarTree {
        &self.shards[s]
    }

    /// Shard `s`'s member image ids, ascending.
    ///
    /// # Panics
    /// Panics when `s` is out of range.
    pub fn shard_members(&self, s: usize) -> &[u64] {
        &self.members[s]
    }

    /// True when `id` is a member of the set.
    pub fn contains_image(&self, id: u64) -> bool {
        self.members[shard_of(&self.config, id)]
            .binary_search(&id)
            .is_ok()
    }

    /// True when `n` is the synthetic root handle of a multi-shard set.
    fn is_synth(&self, n: NodeId) -> bool {
        self.config.shards > 1 && n.index() == SYNTH_ROOT_INDEX
    }

    /// The synthetic root handle (multi-shard sets only).
    fn synth_root() -> NodeId {
        NodeId::from_index(SYNTH_ROOT_INDEX)
    }

    /// Global handle of shard `s`'s local node `local`. Identity for a
    /// single-shard set, so K = 1 is handle-transparent.
    fn encode(&self, s: usize, local: NodeId) -> NodeId {
        if self.config.shards == 1 {
            return local;
        }
        let idx = local.index();
        assert!(idx < STRIDE, "shard-local node index {idx} exceeds stride");
        NodeId::from_index(s * STRIDE + idx)
    }

    /// Inverse of [`Self::encode`] — must not be called on the synthetic
    /// root.
    ///
    /// # Panics
    /// Panics on a handle outside every shard's range.
    fn decode(&self, n: NodeId) -> (usize, NodeId) {
        if self.config.shards == 1 {
            return (0, n);
        }
        let idx = n.index();
        let s = idx / STRIDE;
        assert!(
            s < self.config.shards,
            "node handle {idx} outside any shard"
        );
        (s, NodeId::from_index(idx % STRIDE))
    }

    /// Where `n`'s leaf entries live: `(shard, local node, how many to
    /// take)`. The synthetic root stores nothing: zero entries of shard 0's
    /// root gives the empty answer the same type as a leaf's entries.
    fn leaf_of_shard(&self, n: NodeId) -> (usize, NodeId, usize) {
        if self.is_synth(n) {
            (0, self.shards[0].root(), 0)
        } else {
            let (s, local) = self.decode(n);
            (s, local, usize::MAX)
        }
    }

    /// The scatter-gather path behind [`KnnIndex::knn_in_budgeted`] at the
    /// synthetic root: split the budget across shards proportionally to
    /// their populations (largest-remainder, same as the session layer's
    /// subquery split), run one leg per shard on the qd-runtime pool, then
    /// merge the surviving prefixes by `(distance.total_cmp, id)`.
    ///
    /// Failure semantics: a leg that panics (`shard.scatter.panic`, keyed by
    /// shard index) or is refused at the gather (`shard.merge.drop`) is
    /// *dropped* — its neighbors are lost but any work it reported is still
    /// charged — and counted in [`BudgetedKnn::partitions_dropped`] plus the
    /// `shard.legs_dropped` counter. The query keeps whatever the surviving
    /// shards returned: degradation, not an error.
    fn scatter_gather_knn(&self, query: &[f32], k: usize, budget: Option<u64>) -> BudgetedKnn {
        let empty = BudgetedKnn {
            neighbors: Vec::new(),
            accesses: 0,
            distance_computations: 0,
            distances_pruned: 0,
            nodes_skipped: 0,
            partitions_dropped: 0,
            exhausted: false,
        };
        if k == 0 || self.root_rect.is_none() {
            return empty;
        }
        // One distance charge for the synthetic root rect — the same charge
        // a monolithic search pays for its scope rect — then the remainder
        // splits across the legs before any of them runs, so no live counter
        // is ever shared between workers.
        let leg_total = budget.map(|b| b.saturating_sub(1));
        let quotas: Vec<usize> = self.members.iter().map(Vec::len).collect();
        let budgets = split_budget(leg_total, &quotas);
        let shard_ids: Vec<usize> = (0..self.config.shards).collect();
        let legs = qd_runtime::par_try_map(&shard_ids, |&s| {
            qd_obs::span_indexed(qd_obs::sp::SHARD_LEG, s as u64, || {
                qd_obs::count(qd_obs::ctr::SHARD_LEGS, 1);
                if qd_fault::fire_keyed(qd_fault::site::SHARD_SCATTER, s as u64).is_some() {
                    panic!("injected fault: shard {s} scatter leg");
                }
                let tree = &self.shards[s];
                let leg = tree.knn_in_budgeted(tree.root(), query, k, budgets[s]);
                qd_obs::observe(qd_obs::hist::SHARD_LEG_DISTANCES, leg.distance_computations);
                leg
            })
        });

        let mut spent = 1u64; // synthetic root rect
        let mut accesses = 0u64;
        let mut pruned = 0u64;
        let mut nodes_skipped = 0u64;
        let mut dropped = 0u64;
        let mut exhausted = false;
        let mut merged: Vec<Neighbor> = Vec::new();
        for (s, leg) in legs.into_iter().enumerate() {
            match leg {
                // A panicked leg's partial trace was already absorbed by the
                // fan-out; its results are gone.
                Err(_) => dropped += 1,
                Ok(leg) => {
                    // Work is charged whether or not the merge keeps the
                    // leg — the degradation report counts work performed.
                    accesses += leg.accesses;
                    spent += leg.distance_computations;
                    pruned += leg.distances_pruned;
                    nodes_skipped += leg.nodes_skipped;
                    if qd_fault::fire_keyed(qd_fault::site::SHARD_MERGE, s as u64).is_some() {
                        dropped += 1;
                        continue;
                    }
                    exhausted |= leg.exhausted;
                    merged.extend(leg.neighbors);
                }
            }
        }
        qd_obs::count(qd_obs::ctr::SHARD_LEGS_DROPPED, dropped);
        merged.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        merged.truncate(k);
        BudgetedKnn {
            neighbors: merged,
            accesses,
            distance_computations: spent,
            distances_pruned: pruned,
            nodes_skipped,
            partitions_dropped: dropped,
            exhausted,
        }
    }
}

impl KnnIndex for ShardSet {
    fn root(&self) -> NodeId {
        if self.config.shards == 1 {
            return self.shards[0].root();
        }
        Self::synth_root()
    }

    fn dims(&self) -> usize {
        self.tree_config.dims
    }

    fn len(&self) -> usize {
        self.total
    }

    fn node_ids(&self) -> impl IntoIterator<Item = NodeId> + '_ {
        let shard_nodes = self
            .shards
            .iter()
            .enumerate()
            .flat_map(move |(s, tree)| tree.node_ids().map(move |n| self.encode(s, n)));
        shard_nodes.chain((self.config.shards > 1).then(Self::synth_root))
    }

    fn contains_node(&self, n: NodeId) -> bool {
        if self.is_synth(n) {
            return true;
        }
        if self.config.shards == 1 {
            return self.shards[0].contains_node(n);
        }
        let idx = n.index();
        let s = idx / STRIDE;
        s < self.config.shards && self.shards[s].contains_node(NodeId::from_index(idx % STRIDE))
    }

    fn level(&self, n: NodeId) -> u32 {
        if self.is_synth(n) {
            return self.root_level;
        }
        let (s, local) = self.decode(n);
        self.shards[s].level(local)
    }

    fn parent(&self, n: NodeId) -> Option<NodeId> {
        if self.is_synth(n) {
            return None;
        }
        let (s, local) = self.decode(n);
        match self.shards[s].parent(local) {
            Some(p) => Some(self.encode(s, p)),
            // A shard root's parent is the synthetic root (multi-shard only).
            None if self.config.shards > 1 => Some(Self::synth_root()),
            None => None,
        }
    }

    fn node_rect(&self, n: NodeId) -> Option<&Rect> {
        if self.is_synth(n) {
            return self.root_rect.as_ref();
        }
        let (s, local) = self.decode(n);
        self.shards[s].node_rect(local)
    }

    fn children(&self, n: NodeId) -> impl IntoIterator<Item = NodeId> + '_ {
        // Either arm, never both: the shard roots under the synthetic root,
        // the owning shard's children below it.
        let roots = self
            .is_synth(n)
            .then(|| (0..self.config.shards).map(|s| self.encode(s, self.shards[s].root())));
        let below = (!self.is_synth(n)).then(|| {
            let (s, local) = self.decode(n);
            self.shards[s]
                .children(local)
                .map(move |c| self.encode(s, c))
        });
        roots
            .into_iter()
            .flatten()
            .chain(below.into_iter().flatten())
    }

    fn leaf_ids(
        &self,
        n: NodeId,
    ) -> impl IntoIterator<Item = u64, IntoIter: ExactSizeIterator> + '_ {
        let (s, local, keep) = self.leaf_of_shard(n);
        self.shards[s].leaf_ids(local).take(keep)
    }

    fn leaf_items(
        &self,
        n: NodeId,
    ) -> impl IntoIterator<Item = (u64, &[f32]), IntoIter: ExactSizeIterator> + '_ {
        let (s, local, keep) = self.leaf_of_shard(n);
        self.shards[s].leaf_items(local).take(keep)
    }

    /// Shards in index order under the synthetic root — not the last-first
    /// order the provided walk would give its children — then each shard's
    /// own walk; pinned by `tests/golden/weighted_budget_scan.txt`.
    fn subtree_ids(&self, n: NodeId) -> impl IntoIterator<Item = u64> + '_ {
        let (shards, local) = if self.is_synth(n) {
            (0..self.config.shards, None)
        } else {
            let (s, local) = self.decode(n);
            (s..s + 1, Some(local))
        };
        shards.flat_map(move |s| {
            let tree = &self.shards[s];
            tree.subtree_ids(local.unwrap_or_else(|| tree.root()))
        })
    }

    fn subtree_len(&self, n: NodeId) -> usize {
        if self.is_synth(n) {
            return self.total;
        }
        let (s, local) = self.decode(n);
        self.shards[s].subtree_len(local)
    }

    fn knn_in_budgeted(
        &self,
        scope: NodeId,
        query: &[f32],
        k: usize,
        budget: Option<u64>,
    ) -> BudgetedKnn {
        if !self.is_synth(scope) {
            let (s, local) = self.decode(scope);
            return self.shards[s].knn_in_budgeted(local, query, k, budget);
        }
        self.scatter_gather_knn(query, k, budget)
    }

    fn check_invariants(&self) -> Result<(), String> {
        if self.config.shards != self.shards.len() || self.config.shards != self.members.len() {
            return Err(format!(
                "shard count mismatch: config {} vs {} trees / {} member lists",
                self.config.shards,
                self.shards.len(),
                self.members.len()
            ));
        }
        let mut total = 0usize;
        for (s, (tree, members)) in self.shards.iter().zip(&self.members).enumerate() {
            tree.check_invariants()?;
            if tree.dims() != self.tree_config.dims && !tree.is_empty() {
                return Err(format!("shard {s} dims {} != set dims", tree.dims()));
            }
            if !members.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("shard {s} member list not strictly ascending"));
            }
            let mut stored: Vec<u64> = tree.subtree_ids(tree.root()).into_iter().collect();
            stored.sort_unstable();
            if &stored != members {
                return Err(format!(
                    "shard {s} stores {} images but its member list has {}",
                    stored.len(),
                    members.len()
                ));
            }
            for &id in members {
                if shard_of(&self.config, id) != s {
                    return Err(format!("image {id} assigned to the wrong shard {s}"));
                }
            }
            if self.config.shards > 1 {
                for n in tree.node_ids() {
                    if n.index() >= STRIDE {
                        return Err(format!(
                            "shard {s} node index {} exceeds the encoding stride",
                            n.index()
                        ));
                    }
                }
            }
            total += members.len();
        }
        if total != self.total {
            return Err(format!("cached total {} != {total} members", self.total));
        }
        if self.config.shards > 1 {
            let expected = self
                .shards
                .iter()
                .map(|t| t.level(t.root()))
                .max()
                .unwrap_or(0)
                + 1;
            if self.root_level != expected {
                return Err(format!(
                    "synthetic root level {} != expected {expected}",
                    self.root_level
                ));
            }
        }
        Ok(())
    }
}

/// Builds an RFS over a freshly sharded corpus — the sharded counterpart of
/// [`RfsStructure::build`]: shard trees via [`ShardSet::build`] (using the
/// tree parameters `config` induces), then representative selection through
/// [`RfsStructure::build_on`]. With `shard_config.shards == 1` the result is
/// byte-identical to the unsharded build over the same corpus.
pub fn build_sharded_rfs(
    features: &[Vec<f32>],
    config: &RfsConfig,
    shard_config: ShardConfig,
) -> RfsStructure<ShardSet> {
    assert!(!features.is_empty(), "cannot build an RFS over no images");
    let tree_config = config.tree_config(features[0].len());
    let set = ShardSet::build(features, tree_config, shard_config);
    RfsStructure::build_on(set, features, config)
}

/// Why a snapshot publication was refused. The previous snapshot stays
/// published in every failure case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishError {
    /// The `shard.publish.fail` failpoint fired (chaos testing).
    Injected,
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::Injected => write!(f, "injected fault: snapshot publication refused"),
        }
    }
}

impl std::error::Error for PublishError {}

/// Copy-on-write snapshot publication for a sharded RFS.
///
/// Readers take cheap `Arc` snapshots ([`Self::snapshot`]) and keep using
/// them for as long as they like — a session admitted against generation N
/// finishes against generation N even if the publisher swaps in N+1 midway
/// (the qd-serve swap contract). Publication replaces the shared `Arc`
/// atomically under a write lock; a poisoned lock is recovered, never
/// unwrapped, because the structure behind it is a plain pointer swap that
/// cannot be left half-written.
#[derive(Debug)]
pub struct ShardPublisher {
    current: RwLock<Arc<RfsStructure<ShardSet>>>,
    generation: AtomicU64,
}

impl ShardPublisher {
    /// Publishes `initial` as generation 0.
    pub fn new(initial: RfsStructure<ShardSet>) -> Self {
        Self {
            current: RwLock::new(Arc::new(initial)),
            generation: AtomicU64::new(0),
        }
    }

    /// The currently published snapshot. The returned `Arc` stays valid (and
    /// unchanged) however many publications happen after it was taken.
    pub fn snapshot(&self) -> Arc<RfsStructure<ShardSet>> {
        let guard = self.current.read().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(&guard)
    }

    /// Number of successful publications since [`Self::new`].
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Atomically replaces the published snapshot with `next`, returning the
    /// new snapshot handle. Under the `shard.publish.fail` failpoint the
    /// swap is refused with a typed error and readers keep seeing the
    /// previous snapshot — publication is all-or-nothing.
    ///
    /// # Errors
    /// [`PublishError::Injected`] when the failpoint fires.
    pub fn publish(
        &self,
        next: RfsStructure<ShardSet>,
    ) -> Result<Arc<RfsStructure<ShardSet>>, PublishError> {
        if qd_fault::should_fail(qd_fault::site::SHARD_PUBLISH) {
            return Err(PublishError::Injected);
        }
        let snapshot = Arc::new(next);
        let mut guard = self.current.write().unwrap_or_else(PoisonError::into_inner);
        *guard = Arc::clone(&snapshot);
        drop(guard);
        self.generation.fetch_add(1, Ordering::SeqCst);
        qd_obs::count(qd_obs::ctr::SHARD_PUBLISHES, 1);
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_features(n: usize, dims: usize, seed: u64) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..dims)
                    .map(|d| {
                        let x = splitmix64(seed ^ ((i * dims + d) as u64));
                        // CAST: 20-bit hash slice mapped into [0, 1).
                        (x & 0xF_FFFF) as f32 / (1 << 20) as f32
                    })
                    .collect()
            })
            .collect()
    }

    fn tree_config(dims: usize) -> TreeConfig {
        TreeConfig {
            dims,
            min_entries: 2,
            max_entries: 8,
            reinsert_fraction: 0.3,
        }
    }

    #[test]
    fn assignment_is_deterministic_and_total() {
        let cfg = ShardConfig::new(4, 7);
        for id in 0..1000u64 {
            let s = shard_of(&cfg, id);
            assert!(s < 4);
            assert_eq!(s, shard_of(&cfg, id));
        }
    }

    #[test]
    fn build_partitions_every_image_exactly_once() {
        let features = blob_features(120, 3, 1);
        let set = ShardSet::build(&features, tree_config(3), ShardConfig::new(4, 9));
        set.validate();
        let mut seen: Vec<u64> = (0..4).flat_map(|s| set.shard_members(s).to_vec()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..120u64).collect::<Vec<_>>());
        assert_eq!(set.len(), 120);
    }

    #[test]
    fn single_shard_is_handle_transparent() {
        let features = blob_features(80, 2, 3);
        let set = ShardSet::build(&features, tree_config(2), ShardConfig::new(1, 0));
        let solo = {
            let mut t = RStarTree::new(tree_config(2));
            for (i, f) in features.iter().enumerate() {
                t.insert(f.clone(), i as u64);
            }
            t
        };
        assert_eq!(set.root(), KnnIndex::root(&solo));
        assert_eq!(set.node_count(), KnnIndex::node_count(&solo));
        assert!(set.node_ids().into_iter().eq(solo.node_ids()));
        let q = &features[7];
        let a = set.knn_in_budgeted(set.root(), q, 10, None);
        let b = KnnIndex::knn_in_budgeted(&solo, KnnIndex::root(&solo), q, 10, None);
        assert_eq!(a, b);
    }

    #[test]
    fn scatter_gather_matches_exhaustive_scan() {
        let features = blob_features(150, 3, 5);
        for k_shards in [2usize, 4, 7] {
            let set = ShardSet::build(&features, tree_config(3), ShardConfig::new(k_shards, 11));
            set.validate();
            let q = &features[42];
            let got = set.knn_in_budgeted(set.root(), q, 12, None);
            let mut brute: Vec<(f32, u64)> = features
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let d2: f32 = f.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
                    (d2.sqrt(), i as u64)
                })
                .collect();
            brute.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let want: Vec<u64> = brute.iter().take(12).map(|&(_, id)| id).collect();
            let got_ids: Vec<u64> = got.neighbors.iter().map(|n| n.id).collect();
            assert_eq!(got_ids, want, "K={k_shards}");
            assert!(!got.exhausted);
            assert_eq!(got.partitions_dropped, 0);
        }
    }

    #[test]
    fn synthetic_root_structure_is_consistent() {
        let features = blob_features(100, 2, 8);
        let set = ShardSet::build(&features, tree_config(2), ShardConfig::new(3, 2));
        let root = set.root();
        assert!(!set.is_leaf(root));
        assert_eq!(set.parent(root), None);
        let children: Vec<NodeId> = set.children(root).into_iter().collect();
        assert_eq!(children.len(), 3);
        for &c in &children {
            assert_eq!(set.parent(c), Some(root));
            assert!(set.level(c) < set.level(root));
        }
        assert_eq!(set.subtree_len(root), 100);
        assert_eq!(set.subtree_ids(root).into_iter().count(), 100);
        let rect = set.node_rect(root).expect("non-empty set has a root rect");
        for id in set.subtree_ids(root) {
            assert!(rect.contains_point(&features[id as usize]));
        }
    }

    /// Append ≡ rebuild: id 90 is larger than every member, so the in-place
    /// insert is the next step of the shard's ascending-id construction and
    /// the result equals a from-scratch build exactly. Inserting a middle
    /// id would not be (`tests/shard_properties.rs`, gates 6 and 7).
    #[test]
    fn insert_then_query_equals_rebuild_then_query() {
        let mut features = blob_features(90, 3, 13);
        let set = ShardSet::build(&features, tree_config(3), ShardConfig::new(4, 21));
        features.push(vec![0.5, 0.5, 0.5]);
        let incremental = set.insert(&features, 90);
        let rebuilt = ShardSet::build(&features, tree_config(3), ShardConfig::new(4, 21));
        incremental.validate();
        assert!(incremental.node_ids().into_iter().eq(rebuilt.node_ids()));
        for s in 0..4 {
            assert_eq!(incremental.shard_members(s), rebuilt.shard_members(s));
        }
        let q = &features[90];
        assert_eq!(
            incremental.knn_in_budgeted(incremental.root(), q, 15, Some(300)),
            rebuilt.knn_in_budgeted(rebuilt.root(), q, 15, Some(300))
        );
        // Untouched shards are shared, not copied.
        let touched = shard_of(incremental.config(), 90);
        for s in 0..4 {
            if s != touched {
                assert!(Arc::ptr_eq(&set.shards[s], &incremental.shards[s]));
            }
        }
    }

    #[test]
    fn remove_drops_the_image_everywhere() {
        let features = blob_features(70, 2, 17);
        let set = ShardSet::build(&features, tree_config(2), ShardConfig::new(3, 5));
        let removed = set.remove(&features, 33);
        removed.validate();
        assert!(!removed.contains_image(33));
        assert_eq!(removed.len(), 69);
        let got = removed.knn_in_budgeted(removed.root(), &features[33], 69, None);
        assert!(got.neighbors.iter().all(|n| n.id != 33));
    }

    #[test]
    #[should_panic(expected = "removed id 33 has no feature vector")]
    fn remove_needs_the_feature_vector() {
        let features = blob_features(70, 2, 17);
        let set = ShardSet::build(&features, tree_config(2), ShardConfig::new(3, 5));
        set.remove(&features[..33], 33);
    }

    #[test]
    #[should_panic(expected = "lists image 33 as a member but its tree holds no entry")]
    fn remove_names_the_image_its_tree_cannot_find() {
        let mut features = blob_features(70, 2, 17);
        let set = ShardSet::build(&features, tree_config(2), ShardConfig::new(3, 5));
        features[33][0] += 1.0;
        set.remove(&features, 33);
    }

    #[test]
    fn publisher_swaps_snapshots_and_survives_injected_failure() {
        let features = blob_features(60, 2, 19);
        let rfs = build_sharded_rfs(&features, &RfsConfig::test_small(), ShardConfig::new(2, 3));
        let publisher = ShardPublisher::new(rfs);
        let before = publisher.snapshot();
        assert_eq!(publisher.generation(), 0);

        let plan =
            qd_fault::FaultPlan::new(1).site(qd_fault::site::SHARD_PUBLISH, qd_fault::Mode::Always);
        let refused = qd_fault::with_plan(&plan, || {
            publisher.publish(build_sharded_rfs(
                &features,
                &RfsConfig::test_small(),
                ShardConfig::new(2, 3),
            ))
        });
        assert!(matches!(refused, Err(PublishError::Injected)));
        assert_eq!(publisher.generation(), 0);
        assert!(Arc::ptr_eq(&before, &publisher.snapshot()));

        let next = build_sharded_rfs(&features, &RfsConfig::test_small(), ShardConfig::new(2, 3));
        let published = publisher.publish(next).expect("publication succeeds");
        assert_eq!(publisher.generation(), 1);
        assert!(Arc::ptr_eq(&published, &publisher.snapshot()));
        // The pre-swap snapshot handle still reads the old generation.
        assert!(!Arc::ptr_eq(&before, &publisher.snapshot()));
        assert_eq!(before.len(), 60);
    }
}
