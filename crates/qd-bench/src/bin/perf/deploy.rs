//! The two ways the index is deployed — one R\*-tree, or a `ShardSet` of
//! several — behind the handful of operations the benchmark times on both.
//! Everything else (sessions, k-NN, serving) is already generic over
//! `KnnIndex` in the engine.

use qd_core::rfs::{RfsConfig, RfsStructure};
use qd_index::{KnnIndex, RStarTree};
use qd_shard::{ShardConfig, ShardPublisher, ShardSet};
use std::sync::{Arc, PoisonError, RwLock};

/// One index mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    /// Take image `id` out of the index.
    Remove(u64),
    /// Put image `id` (back) into the index.
    Insert(u64),
}

impl Update {
    /// The image the update touches.
    pub fn id(self) -> u64 {
        match self {
            Update::Remove(id) | Update::Insert(id) => id,
        }
    }
}

/// An index type the benchmark can build, mutate, publish and persist.
pub trait Deploy: KnnIndex + Sync + Sized {
    /// Where the published snapshot lives.
    type Publisher;

    /// Builds index and representatives from scratch — the `setup_s` work.
    fn build(features: &[Vec<f32>], rfs: &RfsConfig, shards: usize) -> RfsStructure<Self>;

    /// A mutated private copy of `index`; `index` itself stays untouched
    /// for the sessions still reading it.
    fn mutated(index: &Self, features: &[Vec<f32>], update: Update) -> Self;

    /// Starts publishing with `initial` as the visible snapshot.
    fn publisher(initial: RfsStructure<Self>) -> Self::Publisher;

    /// The snapshot readers currently see.
    fn snapshot(publisher: &Self::Publisher) -> Arc<RfsStructure<Self>>;

    /// Makes `next` the visible snapshot and returns it.
    fn publish(publisher: &Self::Publisher, next: RfsStructure<Self>) -> Arc<RfsStructure<Self>>;

    /// The persisted form.
    fn encode(rfs: &RfsStructure<Self>) -> Vec<u8>;

    /// Reads [`Self::encode`]'s output back; `false` if it was refused.
    fn decodes(bytes: &[u8]) -> bool;

    /// Images per shard (one entry for a monolithic tree).
    fn shard_sizes(index: &Self) -> Vec<usize>;
}

/// An owned copy of a tree. `RStarTree` has no `Clone`, so the copy goes
/// through its codec — the same bytes a deployment would load from disk.
fn copy_tree(tree: &RStarTree) -> RStarTree {
    qd_index::persist::from_bytes(&qd_index::persist::to_bytes(tree))
        .expect("a tree's own encoding decodes")
}

impl Deploy for RStarTree {
    type Publisher = RwLock<Arc<RfsStructure<RStarTree>>>;

    fn build(features: &[Vec<f32>], rfs: &RfsConfig, shards: usize) -> RfsStructure<Self> {
        assert_eq!(shards, 1, "a monolithic tree is one shard");
        RfsStructure::build(features, rfs)
    }

    fn mutated(index: &Self, features: &[Vec<f32>], update: Update) -> Self {
        let mut tree = copy_tree(index);
        let point = &features[update.id() as usize];
        match update {
            Update::Remove(id) => assert!(tree.remove(point, id), "image {id} was indexed"),
            Update::Insert(id) => tree.insert(point.clone(), id),
        }
        tree
    }

    fn publisher(initial: RfsStructure<Self>) -> Self::Publisher {
        RwLock::new(Arc::new(initial))
    }

    fn snapshot(publisher: &Self::Publisher) -> Arc<RfsStructure<Self>> {
        Arc::clone(&publisher.read().unwrap_or_else(PoisonError::into_inner))
    }

    fn publish(publisher: &Self::Publisher, next: RfsStructure<Self>) -> Arc<RfsStructure<Self>> {
        let next = Arc::new(next);
        *publisher.write().unwrap_or_else(PoisonError::into_inner) = Arc::clone(&next);
        next
    }

    fn encode(rfs: &RfsStructure<Self>) -> Vec<u8> {
        qd_index::persist::to_bytes(rfs.tree())
    }

    fn decodes(bytes: &[u8]) -> bool {
        qd_index::persist::from_bytes(bytes).is_ok()
    }

    fn shard_sizes(index: &Self) -> Vec<usize> {
        vec![KnnIndex::len(index)]
    }
}

impl Deploy for ShardSet {
    type Publisher = ShardPublisher;

    fn build(features: &[Vec<f32>], rfs: &RfsConfig, shards: usize) -> RfsStructure<Self> {
        let config = ShardConfig::new(shards, crate::spec::SHARD_SEED);
        qd_shard::build_sharded_rfs(features, rfs, config)
    }

    fn mutated(index: &Self, features: &[Vec<f32>], update: Update) -> Self {
        match update {
            Update::Remove(id) => index.remove(features, id),
            Update::Insert(id) => index.insert(features, id),
        }
    }

    fn publisher(initial: RfsStructure<Self>) -> Self::Publisher {
        ShardPublisher::new(initial)
    }

    fn snapshot(publisher: &Self::Publisher) -> Arc<RfsStructure<Self>> {
        publisher.snapshot()
    }

    fn publish(publisher: &Self::Publisher, next: RfsStructure<Self>) -> Arc<RfsStructure<Self>> {
        publisher
            .publish(next)
            .expect("no failpoint is armed in the benchmark")
    }

    fn encode(rfs: &RfsStructure<Self>) -> Vec<u8> {
        qd_shard::persist::to_bytes(rfs)
    }

    fn decodes(bytes: &[u8]) -> bool {
        qd_shard::persist::from_bytes(bytes).is_ok()
    }

    fn shard_sizes(index: &Self) -> Vec<usize> {
        (0..index.shard_count())
            .map(|s| index.shard_members(s).len())
            .collect()
    }
}

/// One whole update as a user sees it: mutate a private copy, refresh the
/// representatives, publish. Returns the newly visible snapshot.
pub fn apply_update<D: Deploy>(
    publisher: &D::Publisher,
    features: &[Vec<f32>],
    rfs: &RfsConfig,
    update: Update,
) -> Arc<RfsStructure<D>> {
    let current = D::snapshot(publisher);
    let index = D::mutated(current.tree(), features, update);
    let next = current.rebuild_with_refresh(index, features, rfs);
    D::publish(publisher, next)
}
