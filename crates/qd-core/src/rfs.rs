//! The Relevance Feedback Support structure (§3.1).
//!
//! An R\*-tree hierarchically clusters the image database; every tree node is
//! then decorated with *representative images* selected bottom-up:
//!
//! * each **leaf**'s images are clustered by unsupervised k-means and the
//!   image nearest each subcluster center becomes a representative;
//! * each **internal** node aggregates its children's representatives,
//!   re-clusters them, and keeps the images nearest the new centers.
//!
//! Representative counts are proportional to cluster size (the paper
//! designates ~5 % of the database as representatives). All information
//! needed to process relevance feedback — the hierarchy and the
//! representative lists — is self-contained in this structure, so feedback
//! rounds cost pure tree navigation, no k-NN.

use qd_cluster::KMeans;
use qd_fault::codec::{self, CodecError, Reader, Writer, INDEX_SITES};
use qd_index::{KnnIndex, NodeId, RStarTree, TreeConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;

/// Magic of a persisted [`RfsStructure`].
const MAGIC: &[u8; 4] = b"QDR2";

/// RFS construction parameters.
#[derive(Debug, Clone)]
pub struct RfsConfig {
    /// Minimum entries per tree node.
    pub node_min: usize,
    /// Maximum entries per tree node (the paper uses 100).
    pub node_max: usize,
    /// Fraction of a leaf's images selected as its representatives (the
    /// paper designates 5 % of the database).
    pub representative_fraction: f32,
    /// Build the tree by kd-style bulk loading (cheap but its median splits
    /// slice through clusters, hurting leaf purity) instead of repeated R\*
    /// insertion (the default; this *is* the paper's "hierarchical
    /// clustering … similar to the R\*-tree"). The build-strategy ablation
    /// quantifies the difference.
    pub bulk_load: bool,
    /// Select representatives by k-means medoids (true) or uniformly at
    /// random (the ablation of DESIGN.md §5.5).
    pub kmeans_representatives: bool,
    /// Seed for clustering and random selection.
    pub seed: u64,
}

impl RfsConfig {
    /// The paper's configuration: capacity-100 nodes, 5 % representatives.
    pub fn paper() -> Self {
        Self {
            node_min: 40,
            node_max: 100,
            representative_fraction: 0.05,
            bulk_load: false,
            kmeans_representatives: true,
            seed: 0,
        }
    }

    /// A small-fan-out configuration for tests (deeper trees on small data).
    pub fn test_small() -> Self {
        Self {
            node_min: 8,
            node_max: 20,
            representative_fraction: 0.10,
            bulk_load: false,
            kmeans_representatives: true,
            seed: 0,
        }
    }

    /// The tree configuration this RFS config induces for `dims`-dimensional
    /// features — the single source of truth shared by the monolithic build
    /// and `qd-shard`'s per-shard builds, so a shard over a given member set
    /// grows an arena byte-identical to the tree an unsharded build over the
    /// same members would produce.
    pub fn tree_config(&self, dims: usize) -> TreeConfig {
        TreeConfig {
            dims,
            min_entries: self.node_min,
            max_entries: self.node_max,
            reinsert_fraction: 0.3,
        }
    }
}

/// The navigation interface relevance-feedback rounds need. Implemented by
/// the full server-side [`RfsStructure`] and by the thin client-side replica
/// (`crate::client::ClientRfs`) — the paper's client–server configuration
/// (§4) runs all feedback rounds against the latter.
pub trait FeedbackHierarchy {
    /// The root cluster of the hierarchy.
    fn root(&self) -> NodeId;
    /// True if `n` has no child clusters.
    fn is_leaf(&self, n: NodeId) -> bool;
    /// Representative images of `n`.
    fn representatives(&self, n: NodeId) -> &[usize];
    /// The child of `n` whose subtree contains `image`, if any.
    fn child_containing(&self, n: NodeId, image: usize) -> Option<NodeId>;
}

/// The built RFS structure: the clustering tree plus per-node representative
/// image lists.
/// Both maps are `BTreeMap` (clippy's `disallowed-types` bans the hash
/// containers): `reps` is iterated when serializing and when listing all
/// representatives, and an ordered container makes every such traversal
/// deterministic by construction.
///
/// Generic over the index implementation: the arena tree (the default) and
/// `qd-shard`'s `ShardSet` both build, navigate and serve through this one
/// structure. The seam is inherited from the differential arena-equivalence
/// harness, where the same code also ran over the since-retired pre-arena
/// reference tree so any divergence was attributable to the storage layout.
#[derive(Debug, Clone)]
pub struct RfsStructure<I: KnnIndex = RStarTree> {
    tree: I,
    reps: BTreeMap<NodeId, Vec<usize>>,
    leaf_of: BTreeMap<usize, NodeId>,
}

/// The image → leaf map of `tree` (shared by every construction path):
/// the pairs are sorted first, so the map is bulk-built in one pass instead
/// of taking one tree insertion per image.
fn leaf_map<I: KnnIndex>(tree: &I) -> BTreeMap<usize, NodeId> {
    let mut pairs: Vec<(usize, NodeId)> = Vec::with_capacity(tree.len());
    for n in tree.node_ids() {
        if tree.is_leaf(n) {
            pairs.extend(tree.leaf_ids(n).into_iter().map(|id| (id as usize, n)));
        }
    }
    pairs.sort_unstable();
    pairs.into_iter().collect()
}

/// A node's candidate pool under the representative lists `reps`: a leaf's
/// stored images, an internal node's concatenated child representatives.
fn pool_of<I: KnnIndex>(tree: &I, reps: &BTreeMap<NodeId, Vec<usize>>, n: NodeId) -> Vec<usize> {
    if tree.is_leaf(n) {
        tree.leaf_ids(n).into_iter().map(|id| id as usize).collect()
    } else {
        tree.children(n)
            .into_iter()
            .flat_map(|c| reps.get(&c).cloned().unwrap_or_default())
            .collect()
    }
}

/// Bottom-up per-node representative selection over `tree` — the shared back
/// half of every build path. Levels build bottom-up (an internal node's pool
/// is its children's representatives), but nodes *within* a level are
/// independent, so each level fans out across the qd-runtime pool. Every
/// node derives its randomness from `config.seed` and its own stable node
/// index — never a shared RNG stream — so the selection is bit-identical
/// whatever the thread count or completion order.
///
/// With `previous = Some(old)` this is an *incremental refresh*: a node that
/// is the same kind of node in `old` with an identical candidate pool keeps
/// its old representatives untouched, and every other node re-selects from
/// scratch with the same node-index-keyed seed a full rebuild would use
/// (counted in `rfs.representatives_refreshed`) — which makes a refreshed
/// structure exactly equal to a full rebuild over the mutated tree.
fn select_representatives<I: KnnIndex + Sync>(
    tree: &I,
    features: &[Vec<f32>],
    config: &RfsConfig,
    previous: Option<&RfsStructure<I>>,
) -> BTreeMap<NodeId, Vec<usize>> {
    // `by_level` is a BTreeMap so iterating it visits levels in ascending
    // order — leaves first — with no separate sorted key list.
    let mut by_level: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
    for n in tree.node_ids() {
        by_level.entry(tree.level(n)).or_default().push(n);
    }

    let mut reps: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for (level, mut nodes) in by_level {
        nodes.sort_unstable(); // deterministic order
        let target_of = |pool_len: usize| -> usize {
            if level > 0 {
                // The paper keeps representative counts proportional to
                // cluster size at every level ("clusters in the upper
                // levels … have more representative images"): an internal
                // node carries its children's whole representative pool.
                return pool_len;
            }
            // At least two representatives per leaf: a single medoid of a
            // mixed leaf silences its minority categories, and a category
            // invisible at the leaf level is invisible everywhere above it.
            // CAST: pool_len is a node-capacity-bounded count
            // (≤ max_entries, well under 2^24), exact in f32.
            ((config.representative_fraction * pool_len as f32).round() as usize)
                .max(2)
                .min(pool_len)
        };
        // A panicking selection worker (real bug or the `rfs.select.panic`
        // failpoint, keyed by stable node index) is isolated by
        // `par_try_map`; the node falls back to a deterministic prefix of
        // its pool rather than aborting the whole build.
        let selected = qd_obs::span_indexed(qd_obs::sp::RFS_LEVEL, u64::from(level), || {
            qd_runtime::par_try_map(&nodes, |&n| {
                if qd_fault::fire_keyed(qd_fault::site::RFS_SELECT_PANIC, n.index() as u64)
                    .is_some()
                {
                    panic!(
                        "injected fault: representative selection for node {}",
                        n.index()
                    );
                }
                let pool = pool_of(tree, &reps, n);
                if pool.is_empty() {
                    return Vec::new();
                }
                if let Some(old) = previous {
                    // Same handle, same kind, same pool: a freed leaf index
                    // reused by an internal node must re-select, because the
                    // two kinds keep different fractions of their pool.
                    if old.tree.contains_node(n)
                        && old.tree.is_leaf(n) == tree.is_leaf(n)
                        && pool_of(&old.tree, &old.reps, n) == pool
                    {
                        if let Some(kept) = old.reps.get(&n) {
                            return kept.clone();
                        }
                    }
                    qd_obs::count(qd_obs::ctr::RFS_REFRESHED, 1);
                }
                qd_obs::count(qd_obs::ctr::RFS_SELECTIONS, 1);
                let target = target_of(pool.len());
                if target == pool.len() {
                    pool.clone()
                } else if config.kmeans_representatives {
                    let pool_features: Vec<&[f32]> =
                        pool.iter().map(|&id| features[id].as_slice()).collect();
                    let fit = KMeans::new(target)
                        .with_seed(config.seed ^ (n.index() as u64) << 1)
                        .fit(&pool_features);
                    qd_obs::count(qd_obs::ctr::RFS_KMEANS_ITERATIONS, fit.iterations as u64);
                    fit.medoid_indices(&pool_features)
                        .into_iter()
                        .map(|i| pool[i])
                        .collect()
                } else {
                    let mut rng =
                        StdRng::seed_from_u64(config.seed ^ ((n.index() as u64) << 1 | 1));
                    let mut shuffled = pool.clone();
                    shuffled.shuffle(&mut rng);
                    shuffled.truncate(target);
                    shuffled
                }
            })
        });
        let final_selections: Vec<Vec<usize>> = nodes
            .iter()
            .zip(selected)
            .map(|(&n, sel)| match sel {
                Ok(s) => s,
                Err(_) => {
                    // Degraded selection: the pool prefix (already in
                    // deterministic traversal order) keeps every node
                    // covered by *some* representatives.
                    let pool = pool_of(tree, &reps, n);
                    let target = target_of(pool.len().max(1)).min(pool.len());
                    pool.into_iter().take(target).collect()
                }
            })
            .collect();
        for (n, sel) in nodes.into_iter().zip(final_selections) {
            reps.insert(n, sel);
        }
    }
    reps
}

impl RfsStructure {
    /// Builds the RFS structure over the corpus feature vectors (image id =
    /// index into `features`).
    ///
    /// # Panics
    /// Panics if `features` is empty or rows differ in length.
    pub fn build(features: &[Vec<f32>], config: &RfsConfig) -> Self {
        qd_obs::span(qd_obs::sp::RFS_BUILD, || {
            assert!(!features.is_empty(), "cannot build an RFS over no images");
            let tree_config = config.tree_config(features[0].len());
            // Only the bulk loader needs every row owned at once; insertion
            // clones one row at a time.
            let rows = features
                .iter()
                .enumerate()
                .map(|(i, f)| (i as u64, f.clone()));
            let tree = if config.bulk_load {
                RStarTree::bulk_load(tree_config, rows.collect())
            } else {
                RStarTree::from_rows(tree_config, rows)
            };
            qd_obs::count(qd_obs::ctr::RFS_NODES_CREATED, tree.node_count() as u64);
            Self::decorate(tree, features, config, None)
        })
    }
}

impl<I: KnnIndex + Sync> RfsStructure<I> {
    /// The shared back half of every construction path: the leaf map and
    /// the bottom-up selection over `tree`, incremental against `previous`
    /// when there is one.
    fn decorate(
        tree: I,
        features: &[Vec<f32>],
        config: &RfsConfig,
        previous: Option<&Self>,
    ) -> Self {
        let leaf_of = leaf_map(&tree);
        let reps = select_representatives(&tree, features, config, previous);
        let built = Self {
            tree,
            reps,
            leaf_of,
        };
        // Debug builds (including the test profile) verify the full
        // structure; release builds skip the O(n·depth) walk.
        #[cfg(debug_assertions)]
        built.validate();
        built
    }

    /// Decorates an already-constructed index with representatives and the
    /// leaf map — the entry point for index types without single-insert
    /// construction, e.g. `qd-shard`'s `ShardSet`. Runs the exact bottom-up
    /// selection of [`RfsStructure::build`], inside the same `rfs.build`
    /// span, so a `ShardSet` of one shard decorates identically to the
    /// monolithic build over the same tree.
    ///
    /// # Panics
    /// Panics (in debug builds) if the resulting structure violates an
    /// invariant.
    pub fn build_on(tree: I, features: &[Vec<f32>], config: &RfsConfig) -> Self {
        qd_obs::span(qd_obs::sp::RFS_BUILD, || {
            qd_obs::count(qd_obs::ctr::RFS_NODES_CREATED, tree.node_count() as u64);
            Self::decorate(tree, features, config, None)
        })
    }

    /// Re-decorates a *mutated* index incrementally: a node whose candidate
    /// pool (leaf contents, or children's representatives) is unchanged from
    /// `self` keeps its representative list; every node insert/delete
    /// actually touched re-selects with the same node-index-keyed seed a
    /// full rebuild would use. The result is exactly equal to
    /// [`RfsStructure::build_on`] over the same mutated tree — the refresh
    /// saves the k-means work, never changes the answer. It creates no RFS
    /// node (`rfs.nodes_created` does not move); what it re-selected is
    /// counted in `rfs.representatives_refreshed`.
    ///
    /// # Panics
    /// Panics (in debug builds) if the resulting structure violates an
    /// invariant.
    pub fn rebuild_with_refresh(&self, tree: I, features: &[Vec<f32>], config: &RfsConfig) -> Self {
        qd_obs::span(qd_obs::sp::RFS_BUILD, || {
            Self::decorate(tree, features, config, Some(self))
        })
    }
}

impl<I: KnnIndex> RfsStructure<I> {
    /// The underlying clustering tree.
    pub fn tree(&self) -> &I {
        &self.tree
    }

    /// Representative images of a node.
    pub fn representatives(&self, n: NodeId) -> &[usize] {
        self.reps.get(&n).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All distinct representative image ids in the structure.
    pub fn all_representatives(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.reps.values().flatten().copied().collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The leaf node storing `image`.
    ///
    /// # Panics
    /// Panics if `image` is not in the corpus.
    pub fn leaf_of(&self, image: usize) -> NodeId {
        self.leaf_of[&image]
    }

    /// The child of `node` whose subtree contains `image`, or `None` if
    /// `image` is not under `node` (or `node` is a leaf).
    pub fn child_containing(&self, node: NodeId, image: usize) -> Option<NodeId> {
        let mut cur = *self.leaf_of.get(&image)?;
        if cur == node {
            return None; // `node` is the leaf itself; it has no children
        }
        while let Some(parent) = self.tree.parent(cur) {
            if parent == node {
                return Some(cur);
            }
            cur = parent;
        }
        None
    }

    /// Number of images in the corpus this structure indexes.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True if the structure is empty (never the case once built).
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The full per-node representative map, in ascending node order.
    pub fn reps_map(&self) -> &BTreeMap<NodeId, Vec<usize>> {
        &self.reps
    }

    /// Reassembles a structure from a deserialized tree and representative
    /// map, deriving the leaf map and re-checking every invariant.
    ///
    /// # Errors
    /// Returns the first invariant violation as a description, without
    /// panicking, so persistence loaders can surface it as typed corruption.
    pub fn from_parts(tree: I, reps: BTreeMap<NodeId, Vec<usize>>) -> Result<Self, String> {
        let leaf_of = leaf_map(&tree);
        let built = Self {
            tree,
            reps,
            leaf_of,
        };
        built.check_invariants()?;
        Ok(built)
    }

    /// Appends the representative section — `rep_count | (node_index |
    /// count | image ids)*`, the tail of both the QDR2 and the QDS1 format.
    pub fn write_reps(&self, w: &mut Writer) {
        // BTreeMap iteration is ascending by node handle: the on-disk order
        // is canonical without an explicit sort.
        w.usize(self.reps.len());
        for (node, list) in &self.reps {
            w.usize(node.index());
            w.usize(list.len());
            for &image in list {
                w.usize(image);
            }
        }
    }

    /// Reads the representative section that ends `r` and reassembles the
    /// structure over `tree` through [`Self::from_parts`], so a list for an
    /// unknown or repeated node, an id outside its node's subtree and
    /// trailing bytes are all refused.
    pub fn read_reps(tree: I, mut r: Reader<'_>) -> Result<Self, CodecError> {
        let bad = CodecError::Invalid;
        let mut reps = BTreeMap::new();
        // Every list costs at least its node index and its count.
        for _ in 0..r.count(16)? {
            let raw = r.usize()?;
            // `from_index` panics from the arena's u32::MAX sentinel upwards.
            let node = Some(raw)
                .filter(|&i| i < u32::MAX as usize)
                .map(NodeId::from_index)
                .filter(|&n| tree.contains_node(n))
                .ok_or_else(|| bad(format!("representative list for unknown node {raw}")))?;
            let count = r.count(8)?;
            let list = r
                .u64s(count)?
                .into_iter()
                .map(usize::try_from)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| bad(format!("representative id of node {raw} overflows usize")))?;
            if reps.insert(node, list).is_some() {
                return Err(bad(format!("duplicate representative list for node {raw}")));
            }
        }
        r.finish()?;
        Self::from_parts(tree, reps).map_err(bad)
    }
}

impl RfsStructure {
    /// Serializes the structure (`QDR2`: the QDT2 tree as a section, then
    /// the representative section).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(MAGIC);
        w.section(&qd_index::persist::to_bytes(&self.tree));
        self.write_reps(&mut w);
        w.finish()
    }

    /// Deserializes a structure from bytes produced by [`Self::to_bytes`],
    /// re-checking every invariant.
    pub fn from_bytes(data: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(data);
        r.magic(MAGIC)?;
        let tree = qd_index::persist::from_bytes(r.section()?)?;
        Self::read_reps(tree, r)
    }

    /// Saves the structure to `path`, atomically.
    ///
    /// A deployment builds the RFS once over its image database and serves
    /// every session from it; loading is orders of magnitude cheaper than
    /// the R\*-insertion + k-means build.
    pub fn save(&self, path: &Path) -> Result<(), CodecError> {
        codec::write_file_atomic(path, &self.to_bytes(), &INDEX_SITES)
    }

    /// Loads a structure saved by [`Self::save`].
    pub fn load(path: &Path) -> Result<Self, CodecError> {
        Self::from_bytes(&codec::read_file(path, &INDEX_SITES)?)
    }
}

impl<I: KnnIndex> RfsStructure<I> {
    /// Checks every structural invariant of the built structure, mirroring
    /// `RStarTree::validate`: panics with a description of the first
    /// violation. Intended for tests and debug assertions.
    ///
    /// # Panics
    /// Panics if any invariant of [`Self::check_invariants`] is violated.
    pub fn validate(&self) {
        if let Err(msg) = self.check_invariants() {
            panic!("{msg}");
        }
    }

    /// Non-panicking invariant check, mirroring
    /// `RStarTree::check_invariants`:
    ///
    /// * the underlying tree's own invariants hold;
    /// * `leaf_of` is a bijection between corpus images and leaf slots —
    ///   every entry points at a live leaf that stores the image, and every
    ///   image stored in a leaf has an entry;
    /// * grouping the node ids by level partitions the node set (every node
    ///   in exactly one level group, levels `0..height` all non-empty) and
    ///   every node carries a representative list;
    /// * every node's representatives are drawn from its own subtree.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.tree.check_invariants()?;
        let fail = |msg: String| Err(msg);

        let node_ids: Vec<NodeId> = self.tree.node_ids().into_iter().collect();
        for (&image, &leaf) in &self.leaf_of {
            if !self.tree.is_leaf(leaf) {
                return fail(format!("leaf_of[{image}] = {leaf:?} is not a leaf"));
            }
            if !self
                .tree
                .leaf_ids(leaf)
                .into_iter()
                .any(|id| id as usize == image)
            {
                return fail(format!("leaf_of[{image}] = {leaf:?} does not store it"));
            }
        }
        let mut stored = 0usize;
        for &n in &node_ids {
            if self.tree.is_leaf(n) {
                for id in self.tree.leaf_ids(n) {
                    stored += 1;
                    if self.leaf_of.get(&(id as usize)) != Some(&n) {
                        return fail(format!("image {id} in {n:?} missing from leaf_of"));
                    }
                }
            }
        }
        if stored != self.leaf_of.len() {
            return fail(format!(
                "leaf_of has {} entries for {stored} stored images",
                self.leaf_of.len()
            ));
        }

        // Level grouping partitions the node set.
        let mut by_level: BTreeMap<u32, usize> = BTreeMap::new();
        for &n in &node_ids {
            *by_level.entry(self.tree.level(n)).or_default() += 1;
        }
        let grouped: usize = by_level.values().sum();
        if grouped != node_ids.len() {
            return fail(format!(
                "level groups cover {grouped} of {} nodes",
                node_ids.len()
            ));
        }
        let height = self.tree.level(self.tree.root()) + 1;
        for level in 0..height {
            if !by_level.contains_key(&level) {
                return fail(format!("no nodes at level {level} (height {height})"));
            }
        }

        // Representatives exist for every node and stay inside its subtree.
        for &n in &node_ids {
            if !self.reps.contains_key(&n) {
                return fail(format!("node {n:?} has no representative list"));
            }
            let members: std::collections::BTreeSet<usize> = self
                .tree
                .subtree_ids(n)
                .into_iter()
                .map(|id| id as usize)
                .collect();
            for &r in self.representatives(n) {
                if !members.contains(&r) {
                    return fail(format!("representative {r} outside subtree of {n:?}"));
                }
            }
        }
        for n in self.reps.keys() {
            if !node_ids.contains(n) {
                return fail(format!("representative list for unknown node {n:?}"));
            }
        }
        Ok(())
    }
}

impl<I: KnnIndex> FeedbackHierarchy for RfsStructure<I> {
    fn root(&self) -> NodeId {
        self.tree.root()
    }

    fn is_leaf(&self, n: NodeId) -> bool {
        self.tree.is_leaf(n)
    }

    fn representatives(&self, n: NodeId) -> &[usize] {
        RfsStructure::representatives(self, n)
    }

    fn child_containing(&self, n: NodeId, image: usize) -> Option<NodeId> {
        RfsStructure::child_containing(self, n, image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    /// Clustered synthetic features: `clusters` blobs of `per` points in
    /// `dims` dimensions.
    fn blob_features(clusters: usize, per: usize, dims: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for c in 0..clusters {
            let center: Vec<f32> = (0..dims).map(|d| ((c * 7 + d) % 13) as f32 * 3.0).collect();
            for _ in 0..per {
                out.push(
                    center
                        .iter()
                        .map(|&x| x + rng.random::<f32>() * 0.5)
                        .collect(),
                );
            }
        }
        out
    }

    #[test]
    fn build_produces_representatives_everywhere() {
        let features = blob_features(6, 40, 5, 1);
        let rfs = RfsStructure::build(&features, &RfsConfig::test_small());
        assert_eq!(rfs.len(), 240);
        for n in rfs.tree().node_ids() {
            assert!(
                !rfs.representatives(n).is_empty(),
                "node {n:?} has no representatives"
            );
        }
    }

    #[test]
    fn representative_fraction_is_respected() {
        let features = blob_features(6, 50, 4, 2);
        let mut config = RfsConfig::test_small();
        config.representative_fraction = 0.10;
        let rfs = RfsStructure::build(&features, &config);
        let total: usize = rfs
            .tree()
            .node_ids()
            .filter(|&n| rfs.tree().is_leaf(n))
            .map(|n| rfs.representatives(n).len())
            .sum();
        let expected = (features.len() as f32 * 0.10) as usize;
        assert!(
            total >= expected / 2 && total <= expected * 2,
            "leaf reps {total}, expected ≈{expected}"
        );
    }

    #[test]
    fn representatives_belong_to_their_subtree() {
        let features = blob_features(5, 40, 4, 3);
        let rfs = RfsStructure::build(&features, &RfsConfig::test_small());
        for n in rfs.tree().node_ids() {
            let members: std::collections::BTreeSet<usize> = rfs
                .tree()
                .subtree_ids(n)
                .into_iter()
                .map(|id| id as usize)
                .collect();
            for &r in rfs.representatives(n) {
                assert!(members.contains(&r), "rep {r} outside node {n:?}");
            }
        }
    }

    #[test]
    fn upper_levels_summarize_child_representatives() {
        let features = blob_features(8, 40, 4, 4);
        let rfs = RfsStructure::build(&features, &RfsConfig::test_small());
        let tree = rfs.tree();
        for n in tree.node_ids() {
            if tree.is_leaf(n) {
                continue;
            }
            let child_reps: std::collections::BTreeSet<usize> = tree
                .children(n)
                .flat_map(|c| rfs.representatives(c).iter().copied())
                .collect();
            for &r in rfs.representatives(n) {
                assert!(
                    child_reps.contains(&r),
                    "internal rep {r} not among child reps"
                );
            }
            assert!(rfs.representatives(n).len() <= child_reps.len());
        }
    }

    #[test]
    fn leaf_of_is_consistent_with_tree() {
        let features = blob_features(4, 30, 3, 5);
        let rfs = RfsStructure::build(&features, &RfsConfig::test_small());
        for id in 0..features.len() {
            let leaf = rfs.leaf_of(id);
            assert!(rfs.tree().is_leaf(leaf));
            assert!(rfs.tree().leaf_ids(leaf).any(|eid| eid as usize == id));
        }
    }

    #[test]
    fn child_containing_traces_descent() {
        let features = blob_features(6, 40, 4, 6);
        let rfs = RfsStructure::build(&features, &RfsConfig::test_small());
        let tree = rfs.tree();
        let root = tree.root();
        if tree.is_leaf(root) {
            return; // degenerate tiny tree
        }
        for id in (0..features.len()).step_by(17) {
            let child = rfs.child_containing(root, id).expect("image under root");
            assert_eq!(tree.parent(child), Some(root));
            let members: Vec<usize> = tree
                .subtree_ids(child)
                .into_iter()
                .map(|i| i as usize)
                .collect();
            assert!(members.contains(&id));
        }
    }

    #[test]
    fn child_containing_rejects_foreign_images() {
        let features = blob_features(6, 40, 4, 7);
        let rfs = RfsStructure::build(&features, &RfsConfig::test_small());
        let tree = rfs.tree();
        let root = tree.root();
        let mut children = tree.children(root);
        let (Some(a), Some(b)) = (children.next(), children.next()) else {
            return;
        };
        let in_b = tree.subtree_ids(b).into_iter().next().unwrap() as usize;
        // Asking `a` for an image stored under `b` must fail.
        assert_eq!(rfs.child_containing(a, in_b), None);
    }

    #[test]
    fn random_representative_ablation_works() {
        let features = blob_features(5, 40, 4, 8);
        let mut config = RfsConfig::test_small();
        config.kmeans_representatives = false;
        let rfs = RfsStructure::build(&features, &config);
        for n in rfs.tree().node_ids() {
            assert!(!rfs.representatives(n).is_empty());
        }
    }

    #[test]
    fn bulk_loaded_tree_also_builds() {
        let features = blob_features(3, 30, 3, 9);
        let mut config = RfsConfig::test_small();
        config.bulk_load = true;
        let rfs = RfsStructure::build(&features, &config);
        assert_eq!(rfs.len(), features.len());
        rfs.tree().validate();
    }

    #[test]
    fn save_load_roundtrips_structure() {
        let features = blob_features(5, 40, 4, 11);
        let rfs = RfsStructure::build(&features, &RfsConfig::test_small());
        let dir = std::env::temp_dir().join("qd_rfs_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rfs.qdr");
        rfs.save(&path).unwrap();
        let loaded = RfsStructure::load(&path).unwrap();
        assert_eq!(loaded.len(), rfs.len());
        assert_eq!(loaded.all_representatives(), rfs.all_representatives());
        assert!(rfs.tree().node_ids().eq(loaded.tree().node_ids()));
        for n in rfs.tree().node_ids() {
            assert_eq!(loaded.representatives(n), rfs.representatives(n));
        }
        for id in (0..features.len()).step_by(13) {
            assert_eq!(loaded.leaf_of(id), rfs.leaf_of(id));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_corrupt_rfs_file() {
        let dir = std::env::temp_dir().join("qd_rfs_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.qdr");
        std::fs::write(&path, b"QDR1garbage").unwrap();
        assert!(RfsStructure::load(&path).is_err());
        std::fs::write(&path, b"nope").unwrap();
        assert!(RfsStructure::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deterministic_build() {
        let features = blob_features(4, 30, 4, 10);
        let a = RfsStructure::build(&features, &RfsConfig::test_small());
        let b = RfsStructure::build(&features, &RfsConfig::test_small());
        assert_eq!(a.all_representatives(), b.all_representatives());
    }
}
