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
use std::collections::{BTreeMap, BTreeSet};
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
/// `reps` is a `BTreeMap` (clippy's `disallowed-types` bans the hash
/// containers): it is iterated when serializing and when listing all
/// representatives, and an ordered container makes every such traversal
/// deterministic by construction. `leaf_of` is a [`LeafMap`]: `(image,
/// leaf)` pairs sorted by image, patched by one ordered merge per update
/// (see [`leaf_map`]). The tree's mutation log is always empty here: every
/// construction path takes it.
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
    leaf_of: LeafMap,
}

/// Pairs per block of a [`LeafMap`]: 32 pairs are 512 bytes, and the fence
/// list of a 15 000-image map is 469 keys, under 4 KB.
const LEAF_BLOCK: usize = 32;

/// The image → leaf map: `(image, leaf)` pairs sorted by image, and the
/// first image of every [`LEAF_BLOCK`] pairs. A lookup searches the fence
/// list, then one block. A plain binary search over the pairs touches about
/// a dozen cache lines spread over the whole map, each a miss once other
/// work has evicted it; here the early probes stay in the short fence list,
/// which every lookup reads and so keeps cached, and the rest in one block.
#[derive(Debug, Clone)]
struct LeafMap {
    pairs: Vec<(usize, NodeId)>,
    fences: Vec<usize>,
}

impl LeafMap {
    /// Indexes `pairs`, which must be sorted by image.
    fn new(pairs: Vec<(usize, NodeId)>) -> Self {
        let fences = pairs
            .iter()
            .step_by(LEAF_BLOCK)
            .map(|&(id, _)| id)
            .collect();
        Self { pairs, fences }
    }

    /// The leaf of `image`, or `None` if the map does not hold it.
    fn get(&self, image: usize) -> Option<NodeId> {
        self.position(image).map(|at| self.pairs[at].1)
    }

    /// Where `image`'s pair sits in [`Self::pairs`], if the map holds it.
    fn position(&self, image: usize) -> Option<usize> {
        let block = self
            .fences
            .partition_point(|&id| id <= image)
            .checked_sub(1)?;
        let start = block * LEAF_BLOCK;
        let pairs = &self.pairs[start..self.pairs.len().min(start + LEAF_BLOCK)];
        let at = pairs.binary_search_by_key(&image, |&(id, _)| id).ok()?;
        Some(start + at)
    }
}

/// The image → leaf map of `tree` — the one path every construction takes.
/// `fresh` lists the handles whose images are (re)mapped: every leaf for a
/// structure built from scratch, the mutation log for a refresh. With
/// `previous` (the tree the map was made for, and its pairs) the result is
/// the previous map less the images that the `fresh` handles held as leaves
/// of the older tree, merged with the sorted pairs of the `fresh` handles
/// that are leaves of `tree`: an update sorts only the leaves it touched and
/// copies the rest of the map in runs.
fn leaf_map<I: KnnIndex>(
    tree: &I,
    fresh: &[NodeId],
    previous: Option<(&I, &[(usize, NodeId)])>,
) -> LeafMap {
    fn leaves_of<'a, I: KnnIndex>(
        t: &'a I,
        handles: &'a [NodeId],
    ) -> impl Iterator<Item = NodeId> + 'a {
        let leaf = |&n: &NodeId| t.contains_node(n) && t.is_leaf(n);
        handles.iter().copied().filter(leaf)
    }
    // Sized up front: grown by doubling, a from-scratch map of 15 000 pairs
    // reallocates its way through blocks that raise the peak resident set.
    let count = leaves_of(tree, fresh).map(|leaf| tree.leaf_ids(leaf).into_iter().len());
    let mut added: Vec<(usize, NodeId)> = Vec::with_capacity(count.sum());
    for leaf in leaves_of(tree, fresh) {
        added.extend(
            tree.leaf_ids(leaf)
                .into_iter()
                .map(|id| (id as usize, leaf)),
        );
    }
    added.sort_unstable();
    let Some((old_tree, old_map)) = previous else {
        return LeafMap::new(added);
    };
    let mut dropped: Vec<usize> = leaves_of(old_tree, fresh)
        .flat_map(|leaf| old_tree.leaf_ids(leaf).into_iter().map(|id| id as usize))
        .collect();
    dropped.sort_unstable();

    let mut out = Vec::with_capacity((old_map.len() + added.len()).saturating_sub(dropped.len()));
    let mut rest = old_map;
    let mut drops = dropped.into_iter().peekable();
    let mut adds = added.into_iter().peekable();
    loop {
        let next = match (drops.peek(), adds.peek()) {
            (None, None) => break,
            (Some(&d), Some(&(a, _))) => d.min(a),
            (Some(&d), None) => d,
            (None, Some(&(a, _))) => a,
        };
        let at = rest.partition_point(|&(id, _)| id < next);
        out.extend_from_slice(&rest[..at]);
        rest = &rest[at..];
        if drops.next_if_eq(&next).is_some() && rest.first().is_some_and(|&(id, _)| id == next) {
            rest = &rest[1..];
        }
        out.extend(adds.next_if(|&(id, _)| id == next));
    }
    out.extend_from_slice(rest);
    LeafMap::new(out)
}

/// A node's candidate pool under the representative lists `reps`: a leaf's
/// stored images, an internal node's concatenated child representatives.
fn pool_of<I: KnnIndex>(tree: &I, reps: &BTreeMap<NodeId, Vec<usize>>, n: NodeId) -> Vec<usize> {
    if tree.is_leaf(n) {
        tree.leaf_ids(n).into_iter().map(|id| id as usize).collect()
    } else {
        tree.children(n)
            .into_iter()
            .flat_map(|c| reps.get(&c).into_iter().flatten().copied())
            .collect()
    }
}

/// The nodes a refresh of `tree` re-selects, given its mutation log `log`:
/// every logged node still live in `tree`, every ancestor of one, and the
/// root (a `ShardSet`'s synthetic root, whose children are the shard roots,
/// is no shard's node and so in no shard's log) — as `(level, handle)`,
/// ascending, each once. Nothing when nothing was logged.
fn dirty_nodes<I: KnnIndex>(tree: &I, log: &[NodeId]) -> Vec<(u32, NodeId)> {
    let mut dirty = Vec::new();
    for &n in log.iter().filter(|&&n| tree.contains_node(n)) {
        let mut cur = Some(n);
        while let Some(c) = cur {
            dirty.push((tree.level(c), c));
            cur = tree.parent(c);
        }
    }
    if !log.is_empty() {
        dirty.push((tree.level(tree.root()), tree.root()));
    }
    dirty.sort_unstable();
    dirty.dedup();
    dirty
}

/// Bottom-up representative selection of `nodes` over `tree` into `reps` —
/// the shared back half of every build path. `nodes` is ascending by
/// `(level, handle)`, so an internal node's pool (its children's
/// representatives) is settled before it selects; the nodes of a level run
/// in handle order on the calling thread, each under its own
/// `catch_unwind`. At 2 workers a fan-out over them gained nothing on a
/// 15 000-image build and made the update refresh 4× slower (DESIGN.md §7).
/// Every node derives its randomness from `config.seed` and its own stable
/// node index — never a shared RNG stream — so a node's selection does not
/// depend on which other nodes ran, or in what order.
///
/// That is what makes the incremental refresh exact: it passes only the
/// nodes the mutation log names and their ancestors (`refreshing`, counted
/// in `rfs.representatives_refreshed`), over `reps` holding the old lists,
/// and a node re-selected with an unchanged pool gets the list it had. The
/// refresh is sound only when `tree` is a copy of the tree `reps` was built
/// for — made by `clone()` or the codec — changed since only through
/// `insert`/`remove`, so that its log names every node whose pool changed.
fn select_representatives<I: KnnIndex>(
    tree: &I,
    features: &[Vec<f32>],
    config: &RfsConfig,
    nodes: &[(u32, NodeId)],
    reps: &mut BTreeMap<NodeId, Vec<usize>>,
    refreshing: bool,
) {
    for level_nodes in nodes.chunk_by(|a, b| a.0 == b.0) {
        let level = level_nodes[0].0;
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
        // A panicking selection (real bug or the `rfs.select.panic`
        // failpoint, keyed by stable node index) is isolated by
        // `try_map_indexed`; the node falls back to a deterministic prefix
        // of its pool rather than aborting the whole build.
        let selected = qd_obs::span_indexed(qd_obs::sp::RFS_LEVEL, u64::from(level), || {
            qd_runtime::try_map_indexed(level_nodes, |_, &(_, n)| {
                if qd_fault::fire_keyed(qd_fault::site::RFS_SELECT_PANIC, n.index() as u64)
                    .is_some()
                {
                    panic!(
                        "injected fault: representative selection for node {}",
                        n.index()
                    );
                }
                let pool = pool_of(tree, reps, n);
                if pool.is_empty() {
                    return Vec::new();
                }
                if refreshing {
                    qd_obs::count(qd_obs::ctr::RFS_REFRESHED, 1);
                }
                qd_obs::count(qd_obs::ctr::RFS_SELECTIONS, 1);
                let target = target_of(pool.len());
                if target == pool.len() {
                    pool
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
                    let mut shuffled = pool;
                    shuffled.shuffle(&mut rng);
                    shuffled.truncate(target);
                    shuffled
                }
            })
        });
        for (&(_, n), sel) in level_nodes.iter().zip(selected) {
            let sel = sel.unwrap_or_else(|_| {
                // Degraded selection: the pool prefix (already in
                // deterministic traversal order) keeps every node covered
                // by *some* representatives.
                let pool = pool_of(tree, reps, n);
                let target = target_of(pool.len().max(1)).min(pool.len());
                pool.into_iter().take(target).collect()
            });
            reps.insert(n, sel);
        }
    }
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

impl<I: KnnIndex> RfsStructure<I> {
    /// The shared back half of every construction path: the bottom-up
    /// selection and the leaf map over `tree` — of every node, or, against
    /// `previous`, of the nodes `tree`'s mutation log names and their
    /// ancestors, every other list copied from `previous`. Takes the log
    /// either way, so the stored tree's is empty.
    fn decorate(
        mut tree: I,
        features: &[Vec<f32>],
        config: &RfsConfig,
        previous: Option<&Self>,
    ) -> Self {
        let mut log = tree.take_touched();
        let (reps, leaf_of) = if let Some(old) = previous {
            log.sort_unstable();
            log.dedup();
            let mut reps = old.reps.clone();
            for n in log.iter().filter(|&&n| !tree.contains_node(n)) {
                reps.remove(n);
            }
            let dirty = dirty_nodes(&tree, &log);
            select_representatives(&tree, features, config, &dirty, &mut reps, true);
            let pairs = old.leaf_of.pairs.as_slice();
            (reps, leaf_map(&tree, &log, Some((&old.tree, pairs))))
        } else {
            let mut nodes: Vec<(u32, NodeId)> = tree
                .node_ids()
                .into_iter()
                .map(|n| (tree.level(n), n))
                .collect();
            nodes.sort_unstable();
            let mut reps = BTreeMap::new();
            select_representatives(&tree, features, config, &nodes, &mut reps, false);
            let every_node: Vec<NodeId> = nodes.iter().map(|&(_, n)| n).collect();
            (reps, leaf_map(&tree, &every_node, None))
        };
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

    /// Re-decorates a *mutated* index incrementally. `tree` must be a copy
    /// of [`Self::tree`] — made by `clone()` or the codec, or returned by a
    /// `ShardSet`'s `insert`/`remove` — changed since only through
    /// `insert`/`remove`: the refresh takes `tree`'s mutation log
    /// ([`KnnIndex::take_touched`]) and trusts it to name every node whose
    /// candidate pool changed. It re-selects exactly the logged nodes still
    /// live, their ancestors and the root, with the same node-index-keyed
    /// seed a full rebuild would use; drops the lists of logged handles that
    /// were freed; and copies every other list from `self`. Only dirty
    /// leaves run k-means — an internal node's pool is a concatenation. The
    /// leaf map is `self`'s, patched for the logged leaves of both trees. No
    /// node of either tree outside the log and its ancestors is read.
    ///
    /// The result is exactly equal to [`RfsStructure::build_on`] over the
    /// same mutated tree — the refresh saves the work, never changes the
    /// answer. It creates no RFS node (`rfs.nodes_created` does not move);
    /// what it re-selected is counted in `rfs.representatives_refreshed`.
    ///
    /// # Panics
    /// Panics (in debug builds) if the resulting structure violates an
    /// invariant.
    pub fn rebuild_with_refresh(&self, tree: I, features: &[Vec<f32>], config: &RfsConfig) -> Self {
        qd_obs::span(qd_obs::sp::RFS_BUILD, || {
            Self::decorate(tree, features, config, Some(self))
        })
    }

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

    /// The leaf node storing `image`, or `None` if the structure does not
    /// hold `image`.
    pub fn leaf_of(&self, image: usize) -> Option<NodeId> {
        self.leaf_of.get(image)
    }

    /// The child of `node` whose subtree contains `image`, or `None` if
    /// `image` is not under `node` (or `node` is a leaf).
    pub fn child_containing(&self, node: NodeId, image: usize) -> Option<NodeId> {
        let mut cur = self.leaf_of(image)?;
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

    /// Reassembles a structure from a tree and a representative map,
    /// deriving the leaf map and checking the decoration's invariants — the
    /// leaf map, the levels and the representative lists of
    /// [`Self::check_invariants`] — but not the tree's own: `tree` must
    /// already satisfy them, as every decoder's output does (QDT2 and QDS1
    /// check their trees as they read them), so a load checks each part once.
    ///
    /// # Errors
    /// Returns the first invariant violation as a description, without
    /// panicking, so persistence loaders can surface it as typed corruption.
    pub fn from_parts(mut tree: I, reps: BTreeMap<NodeId, Vec<usize>>) -> Result<Self, String> {
        tree.take_touched();
        let leaves: Vec<NodeId> = tree
            .node_ids()
            .into_iter()
            .filter(|&n| tree.is_leaf(n))
            .collect();
        let leaf_of = leaf_map(&tree, &leaves, None);
        let built = Self {
            tree,
            reps,
            leaf_of,
        };
        built.check_decoration()?;
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
    /// trailing bytes are all refused. `tree` is a decoder's output, already
    /// checked; only the representatives and the leaf map are checked here.
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
    /// `RStarTree::check_invariants`: the underlying tree's own invariants,
    /// then the decoration's ([`Self::from_parts`] checks only the latter):
    ///
    /// * `leaf_of` is a bijection between corpus images and leaf slots —
    ///   its entries are strictly ascending by image, every image stored in
    ///   a leaf has its own entry naming that leaf, and there are as many
    ///   entries as stored images, so no entry is left over;
    /// * every level `0..height` holds a node, and every node carries a
    ///   representative list, and no other handle does;
    /// * every node's representatives are drawn from its own subtree: the
    ///   node is an ancestor of (or is) the representative's leaf.
    ///
    /// Each part is one pass: the leaves' ids are each looked up once, a
    /// representative climbs at most `height` parents, and a list's handle
    /// is found by binary search in the sorted node list.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.tree.check_invariants()?;
        self.check_decoration()
    }

    /// The decoration's part of [`Self::check_invariants`], for a tree that
    /// already satisfies its own invariants.
    fn check_decoration(&self) -> Result<(), String> {
        let fail = |msg: String| Err(msg);
        let pairs = &self.leaf_of.pairs;
        if let Some(w) = pairs.windows(2).find(|w| w[0].0 >= w[1].0) {
            return fail(format!("leaf_of lists image {} after {}", w[1].0, w[0].0));
        }
        let mut node_ids: Vec<NodeId> = self.tree.node_ids().into_iter().collect();
        node_ids.sort_unstable();
        // Each entry may answer for one stored image only: an image stored
        // twice must not cover for an entry that nothing stores.
        let mut claimed = vec![false; pairs.len()];
        let mut stored = 0usize;
        for &n in &node_ids {
            if self.tree.is_leaf(n) {
                for id in self.tree.leaf_ids(n) {
                    stored += 1;
                    let entry = self.leaf_of.position(id as usize);
                    if !entry.is_some_and(|at| {
                        pairs[at].1 == n && !std::mem::replace(&mut claimed[at], true)
                    }) {
                        return fail(format!("image {id} in {n:?} missing from leaf_of"));
                    }
                }
            }
        }
        if stored != pairs.len() {
            return fail(format!(
                "leaf_of has {} entries for {stored} stored images",
                pairs.len()
            ));
        }

        // Every level from the leaves to the root holds a node.
        let levels: BTreeSet<u32> = node_ids.iter().map(|&n| self.tree.level(n)).collect();
        let height = self.tree.level(self.tree.root()) + 1;
        for level in 0..height {
            if !levels.contains(&level) {
                return fail(format!("no nodes at level {level} (height {height})"));
            }
        }

        // Representatives exist for every node and stay inside its subtree:
        // climbing from a representative's leaf to the node's level, at most
        // `height` steps, ends at the node.
        let ancestor_at = |image: usize, level: u32| {
            let mut cur = self.leaf_of(image);
            for _ in 0..height {
                match cur {
                    Some(c) if self.tree.level(c) < level => cur = self.tree.parent(c),
                    _ => break,
                }
            }
            cur
        };
        for &n in &node_ids {
            let Some(reps) = self.reps.get(&n) else {
                return fail(format!("node {n:?} has no representative list"));
            };
            let level = self.tree.level(n);
            for &r in reps {
                if ancestor_at(r, level) != Some(n) {
                    return fail(format!("representative {r} outside subtree of {n:?}"));
                }
            }
        }
        for n in self.reps.keys() {
            if node_ids.binary_search(n).is_err() {
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
            let leaf = rfs.leaf_of(id).unwrap();
            assert!(rfs.tree().is_leaf(leaf));
            assert!(rfs.tree().leaf_ids(leaf).any(|eid| eid as usize == id));
        }
    }

    /// The leaf map is proved a bijection by the walk over the leaves, the
    /// count and the ascending order only if no entry answers for two stored
    /// images: an image stored twice in one leaf must not cover for an entry
    /// whose image no leaf stores.
    #[test]
    fn an_image_stored_twice_cannot_cover_for_a_stray_leaf_of_entry() {
        let mut tree = RStarTree::new(RfsConfig::test_small().tree_config(2));
        for (id, point) in [(0, [0.0, 0.0]), (0, [0.0, 0.0]), (1, [1.0, 1.0])] {
            tree.insert(point.to_vec(), id);
        }
        let leaf = tree.root();
        let rfs = RfsStructure {
            leaf_of: LeafMap::new(vec![(0, leaf), (1, leaf), (7, leaf)]),
            reps: BTreeMap::from([(leaf, vec![0, 1])]),
            tree,
        };
        assert_eq!(
            rfs.check_invariants(),
            Err(format!("image 0 in {leaf:?} missing from leaf_of"))
        );
    }

    /// The fenced lookup answers as a binary search over all pairs would:
    /// maps of 0 to 3 blocks and a partial block, held ids on both sides of
    /// every block boundary, and absent ids below, between and above them.
    #[test]
    fn leaf_map_lookup_matches_a_search_of_all_pairs() {
        let b = LEAF_BLOCK;
        for len in [0, 1, b - 1, b, b + 1, 3 * b + 5] {
            // Every third id is absent, so gaps sit inside and across blocks.
            let pairs: Vec<(usize, NodeId)> = (0..len)
                .map(|i| (3 * i + 1 + i % 2, NodeId::from_index(i % 7)))
                .collect();
            let map = LeafMap::new(pairs.clone());
            for image in 0..3 * len + 4 {
                let expected = pairs
                    .binary_search_by_key(&image, |&(id, _)| id)
                    .ok()
                    .map(|at| pairs[at].1);
                assert_eq!(map.get(image), expected, "len {len}, image {image}");
            }
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

    /// A structure decorated over the insert-built tree of `ids` only.
    fn build_over(features: &[Vec<f32>], ids: &[usize], config: &RfsConfig) -> RfsStructure {
        let rows = ids.iter().map(|&id| (id as u64, features[id].clone()));
        let tree = RStarTree::from_rows(config.tree_config(features[0].len()), rows);
        RfsStructure::build_on(tree, features, config)
    }

    /// The whole-tree comparison the refresh made before the tree kept a
    /// mutation log, kept as the log's oracle: every node of `new` that `old`
    /// did not hold, or held as the other kind, with other images or with
    /// other children, and every handle of `old` that `new` freed, is in
    /// `log`.
    fn assert_log_covers(old: &RStarTree, new: &RStarTree, log: &[NodeId], what: &str) {
        for n in new.node_ids() {
            let same = old.contains_node(n)
                && old.is_leaf(n) == new.is_leaf(n)
                && old.leaf_ids(n).eq(new.leaf_ids(n))
                && old.children(n).eq(new.children(n));
            assert!(same || log.contains(&n), "{what}: changed {n:?} not logged");
        }
        for n in old.node_ids().filter(|&n| !new.contains_node(n)) {
            assert!(log.contains(&n), "{what}: freed {n:?} not logged");
        }
    }

    /// The oracle of the incremental refresh: `tree`'s log covers every
    /// change from `before`'s tree, and `before` refreshed over `tree`
    /// equals a from-scratch decoration of the same tree — the same
    /// representative lists, and the same leaf for every image id the
    /// features know, `None` for an id the tree does not hold. Checks the
    /// invariants explicitly, since release builds skip them in `decorate`.
    fn assert_refresh_is_rebuild(
        before: &RfsStructure,
        tree: RStarTree,
        features: &[Vec<f32>],
        config: &RfsConfig,
        what: &str,
    ) -> RfsStructure {
        assert_log_covers(before.tree(), &tree, tree.touched(), what);
        let refreshed = before.rebuild_with_refresh(tree.clone(), features, config);
        let scratch = RfsStructure::build_on(tree, features, config);
        refreshed.check_invariants().expect("refreshed invariants");
        scratch.check_invariants().expect("rebuilt invariants");
        assert_eq!(refreshed.reps_map(), scratch.reps_map(), "{what}: reps");
        let held: std::collections::BTreeSet<usize> = scratch
            .tree()
            .subtree_ids(scratch.tree().root())
            .into_iter()
            .map(|id| id as usize)
            .collect();
        for id in 0..features.len() {
            assert_eq!(refreshed.leaf_of(id), scratch.leaf_of(id), "{what}: {id}");
            assert_eq!(
                refreshed.leaf_of(id).is_some(),
                held.contains(&id),
                "{what}: {id}"
            );
        }
        refreshed
    }

    /// A seeded walk of single inserts and removes on the monolithic tree,
    /// alternating shrinking and growing phases so that leaves condense and
    /// split: after every step the refresh equals `build_on`.
    #[test]
    fn refresh_equals_rebuild_along_a_random_walk() {
        let features = blob_features(6, 50, 4, 12);
        let config = RfsConfig::test_small();
        let mut members: std::collections::BTreeSet<usize> = (0..200).collect();
        let ids: Vec<usize> = members.iter().copied().collect();
        let mut rfs = build_over(&features, &ids, &config);
        let mut rng = StdRng::seed_from_u64(0x2e_f2e5);
        for step in 0..240 {
            let shrinking = (step / 60) % 2 == 0;
            let remove =
                members.len() > 4 && rng.random_range(0..10) < if shrinking { 8 } else { 2 };
            let pool: Vec<usize> = (0..features.len())
                .filter(|id| members.contains(id) == remove)
                .collect();
            let id = pool[rng.random_range(0..pool.len())];
            let mut tree = rfs.tree().clone();
            if remove {
                assert!(tree.remove(&features[id], id as u64));
                members.remove(&id);
            } else {
                tree.insert(features[id].clone(), id as u64);
                members.insert(id);
            }
            let what = format!(
                "step {step}: {} {id}",
                if remove { "remove" } else { "insert" }
            );
            rfs = assert_refresh_is_rebuild(&rfs, tree, &features, &config, &what);
        }
    }

    /// Inserts next to one leaf's images until a split moves images that the
    /// old tree held into a leaf handle the old tree did not have.
    #[test]
    fn refresh_follows_a_leaf_split_into_a_new_leaf() {
        let mut features = blob_features(6, 50, 4, 13);
        let config = RfsConfig::test_small();
        let ids: Vec<usize> = (0..features.len()).collect();
        let mut rfs = build_over(&features, &ids, &config);
        let anchor = features[0].clone();
        let mut split = false;
        for step in 0..2 * config.node_max {
            let id = features.len();
            features.push(anchor.iter().map(|x| x + 1e-3 * step as f32).collect());
            let mut tree = rfs.tree().clone();
            tree.insert(features[id].clone(), id as u64);
            let old = rfs.tree();
            split = tree.node_ids().any(|n| {
                tree.is_leaf(n)
                    && !(old.contains_node(n) && old.is_leaf(n))
                    && tree.leaf_ids(n).any(|i| (i as usize) < id)
            });
            rfs =
                assert_refresh_is_rebuild(&rfs, tree, &features, &config, &format!("insert {id}"));
            if split {
                break;
            }
        }
        assert!(split, "no insert split a leaf");
    }

    /// Shrinks the tree far enough that condensation frees leaves, then
    /// regrows it until an internal node sits in a handle that was a leaf,
    /// and refreshes across the whole change: the freed-and-reused handle
    /// must re-select, because the two kinds keep different fractions.
    #[test]
    fn refresh_reselects_a_freed_leaf_handle_reused_by_an_internal_node() {
        let features = blob_features(6, 50, 4, 14);
        let config = RfsConfig::test_small();
        let ids: Vec<usize> = (0..features.len()).collect();
        let rfs = build_over(&features, &ids, &config);
        let old = rfs.tree();
        let mut tree = old.clone();
        for &id in ids.iter().filter(|id| *id % 5 != 0) {
            assert!(tree.remove(&features[id], id as u64));
        }
        let reused = |tree: &RStarTree| {
            tree.node_ids()
                .any(|n| !tree.is_leaf(n) && old.contains_node(n) && old.is_leaf(n))
        };
        for &id in ids.iter().filter(|id| *id % 5 != 0) {
            tree.insert(features[id].clone(), id as u64);
            if reused(&tree) {
                break;
            }
        }
        assert!(
            reused(&tree),
            "no freed leaf handle became an internal node"
        );
        assert_refresh_is_rebuild(&rfs, tree, &features, &config, "reused handle");
    }

    /// A one-leaf tree emptied id by id, down to a leaf with no images, and
    /// refilled by one.
    #[test]
    fn refresh_handles_removing_a_leafs_last_image() {
        let features = blob_features(1, 5, 3, 15);
        let config = RfsConfig::test_small();
        let mut rfs = build_over(&features, &[0, 1, 2, 3, 4], &config);
        assert!(rfs.tree().is_leaf(rfs.tree().root()));
        for id in 0..features.len() {
            let mut tree = rfs.tree().clone();
            assert!(tree.remove(&features[id], id as u64));
            rfs =
                assert_refresh_is_rebuild(&rfs, tree, &features, &config, &format!("remove {id}"));
        }
        assert!(rfs.is_empty());
        let mut tree = rfs.tree().clone();
        tree.insert(features[3].clone(), 3);
        let rfs = assert_refresh_is_rebuild(&rfs, tree, &features, &config, "insert 3");
        assert_eq!(rfs.representatives(rfs.tree().root()), &[3]);
    }

    /// A multi-level tree emptied, regrown in reverse and emptied again
    /// until its empty root leaf sits in a handle that was an internal node
    /// of the structure refreshed from. The leaf holds no images, and the
    /// node held none directly: only the kind tells them apart.
    #[test]
    fn refresh_empties_an_internal_handle_into_a_root_leaf() {
        let features = blob_features(3, 40, 3, 16);
        let config = RfsConfig::test_small();
        let mut ids: Vec<usize> = (0..features.len()).collect();
        let rfs = build_over(&features, &ids, &config);
        let old = rfs.tree();
        let was_internal = |n: NodeId| old.contains_node(n) && !old.is_leaf(n);
        let mut tree = old.clone();
        for _ in 0..8 {
            for &id in &ids {
                assert!(tree.remove(&features[id], id as u64));
            }
            if was_internal(tree.root()) {
                break;
            }
            ids.reverse();
            for &id in &ids {
                tree.insert(features[id].clone(), id as u64);
            }
        }
        let root = tree.root();
        assert!(
            tree.is_empty() && was_internal(root),
            "no empty root in an internal handle"
        );
        let empty = assert_refresh_is_rebuild(&rfs, tree, &features, &config, "emptied");
        assert!(empty.representatives(root).is_empty());
    }

    /// The leaf of `tree` holding `id`, found by a scan.
    fn leaf_holding(tree: &RStarTree, id: usize) -> Option<NodeId> {
        tree.node_ids()
            .find(|&n| tree.is_leaf(n) && tree.leaf_ids(n).any(|i| i as usize == id))
    }

    /// The updates that reach leaves the update itself did not aim at: an
    /// insert whose leaf-level forced reinsertion moves old images into a
    /// leaf other than the one the new image went to; then a remove that
    /// condenses a leaf whose images all land outside its old parent's
    /// subtree, so that the parent, which keeps its other children, is
    /// logged only for the child it lost. Either refresh is right only if
    /// the log names nodes off the update's own path: the leaves the moved
    /// images land in, and a parent under which no live logged node lies.
    #[test]
    fn refresh_follows_reinsertions_off_the_update_path() {
        // Uniform points, so that sibling rectangles overlap: with the
        // clustered fixtures condensed images go back under their parent.
        // Few seeds give the remove case at all; 13 does, within this walk.
        let mut rng = StdRng::seed_from_u64(13);
        let features: Vec<Vec<f32>> = (0..640)
            .map(|_| (0..4).map(|_| rng.random::<f32>()).collect())
            .collect();
        let config = RfsConfig::test_small();
        let ids: Vec<usize> = (0..features.len()).step_by(2).collect();
        let mut rfs = build_over(&features, &ids, &config);

        let mut moved = false;
        for id in (1..features.len()).step_by(2) {
            let old = rfs.tree();
            let mut tree = old.clone();
            tree.insert(features[id].clone(), id as u64);
            let target = leaf_holding(&tree, id);
            moved = tree.node_ids().any(|n| {
                Some(n) != target
                    && tree.is_leaf(n)
                    && old.contains_node(n)
                    && old.is_leaf(n)
                    && tree.leaf_ids(n).any(|i| !old.leaf_ids(n).any(|j| j == i))
            });
            rfs =
                assert_refresh_is_rebuild(&rfs, tree, &features, &config, &format!("insert {id}"));
            if moved {
                break;
            }
        }
        assert!(
            moved,
            "no forced reinsertion moved images off the insert path"
        );

        // Empties leaves one image at a time; each leaf condenses once it
        // falls below `node_min`.
        let mut landed_elsewhere = false;
        while !landed_elsewhere && rfs.len() > 2 * config.node_max {
            let tree = rfs.tree();
            let leaves: Vec<NodeId> = tree.node_ids().filter(|&n| tree.is_leaf(n)).collect();
            'leaves: for leaf in leaves {
                loop {
                    let old = rfs.tree();
                    if !(old.contains_node(leaf) && old.is_leaf(leaf)) {
                        continue 'leaves;
                    }
                    let (Some(parent), Some(id)) = (old.parent(leaf), old.leaf_ids(leaf).next())
                    else {
                        continue 'leaves;
                    };
                    let id = id as usize;
                    let orphans: Vec<usize> =
                        old.leaf_ids(leaf).skip(1).map(|i| i as usize).collect();
                    let mut tree = old.clone();
                    assert!(tree.remove(&features[id], id as u64));
                    let under_parent = |mut n: NodeId| loop {
                        if n == parent {
                            return true;
                        }
                        match tree.parent(n) {
                            Some(p) => n = p,
                            None => return false,
                        }
                    };
                    let condensed = orphans
                        .iter()
                        .all(|&i| leaf_holding(&tree, i) != Some(leaf));
                    landed_elsewhere = condensed
                        && parent != tree.root()
                        && tree.contains_node(parent)
                        && !tree.is_leaf(parent)
                        && old
                            .children(parent)
                            .filter(|&c| c != leaf)
                            .eq(tree.children(parent))
                        && orphans
                            .iter()
                            .all(|&i| leaf_holding(&tree, i).is_some_and(|l| !under_parent(l)));
                    let what = format!("remove {id}");
                    rfs = assert_refresh_is_rebuild(&rfs, tree, &features, &config, &what);
                    if landed_elsewhere {
                        break 'leaves;
                    }
                    if condensed {
                        continue 'leaves;
                    }
                }
            }
        }
        assert!(
            landed_elsewhere,
            "no condensed leaf's images left its parent's subtree"
        );
    }
}
