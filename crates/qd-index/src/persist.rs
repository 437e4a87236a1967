//! R\*-tree persistence.
//!
//! A CBIR deployment builds its index once over the image database and
//! serves queries from it for months; rebuilding a 15k-image R\*-tree by
//! insertion costs most of a second of CPU while loading it from disk costs
//! milliseconds. The format (`QDT2`) is a straightforward little-endian dump
//! of the node arena plus the feature block (row-major on disk, gathered
//! from and scattered into the in-memory tiles), framed by
//! [`qd_fault::codec`]; `NodeId` handles remain valid across save/load,
//! which the RFS structure relies on (its representative lists are keyed by
//! `NodeId`).

use crate::tree::{read_tree, write_tree, RStarTree};
use qd_fault::codec::{self, CodecError, INDEX_SITES};
use std::path::Path;

/// Serializes the tree to bytes.
pub fn to_bytes(tree: &RStarTree) -> Vec<u8> {
    write_tree(tree)
}

/// Deserializes a tree from bytes produced by [`to_bytes`].
pub fn from_bytes(data: &[u8]) -> Result<RStarTree, CodecError> {
    read_tree(data)
}

/// Saves the tree to `path`, atomically.
pub fn save(tree: &RStarTree, path: &Path) -> Result<(), CodecError> {
    codec::write_file_atomic(path, &to_bytes(tree), &INDEX_SITES)
}

/// Loads a tree from `path`.
pub fn load(path: &Path) -> Result<RStarTree, CodecError> {
    from_bytes(&codec::read_file(path, &INDEX_SITES)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeConfig;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("qd_index_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn random_tree(n: usize, seed: u64) -> RStarTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = RStarTree::new(TreeConfig::small(3));
        for id in 0..n as u64 {
            let p: Vec<f32> = (0..3).map(|_| rng.random::<f32>() * 10.0).collect();
            tree.insert(p, id);
        }
        tree
    }

    #[test]
    fn save_load_preserves_structure_and_answers() {
        let tree = random_tree(300, 1);
        let path = tmp("roundtrip.qdt");
        save(&tree, &path).unwrap();
        let loaded = load(&path).unwrap();
        loaded.validate();
        assert_eq!(loaded.len(), tree.len());
        assert_eq!(loaded.height(), tree.height());
        assert_eq!(loaded.root(), tree.root());
        // Node handles survive: every node's rect and children match.
        assert!(tree.node_ids().eq(loaded.node_ids()));
        for n in tree.node_ids() {
            assert_eq!(tree.level(n), loaded.level(n));
            assert!(tree.children(n).eq(loaded.children(n)));
            assert_eq!(
                tree.node_rect(n).map(|r| r.min().to_vec()),
                loaded.node_rect(n).map(|r| r.min().to_vec())
            );
        }
        // Queries answer identically.
        let q = [5.0, 5.0, 5.0];
        let got: Vec<u64> = loaded.knn(&q, 25).into_iter().map(|x| x.id).collect();
        let want: Vec<u64> = tree.knn(&q, 25).into_iter().map(|x| x.id).collect();
        assert_eq!(got, want);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loaded_tree_remains_mutable() {
        let tree = random_tree(100, 2);
        let path = tmp("mutable.qdt");
        save(&tree, &path).unwrap();
        let mut loaded = load(&path).unwrap();
        loaded.insert(vec![1.0, 2.0, 3.0], 9999);
        assert_eq!(loaded.len(), 101);
        loaded.validate();
        assert!(loaded.remove(&[1.0, 2.0, 3.0], 9999));
        loaded.validate();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_corruption() {
        let tree = random_tree(60, 3);
        let path = tmp("corrupt.qdt");
        save(&tree, &path).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        data.truncate(data.len() - 10);
        std::fs::write(&path, &data).unwrap();
        assert!(load(&path).is_err());
        std::fs::write(&path, b"nonsense").unwrap();
        assert!(load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tree_with_holes_roundtrips() {
        // Deletions leave free slots in the arena; those must survive.
        let mut tree = random_tree(200, 4);
        let items: Vec<(u64, Vec<f32>)> = tree
            .node_ids()
            .flat_map(|n| tree.leaf_items(n))
            .map(|(id, p)| (id, p.to_vec()))
            .collect();
        for (id, p) in items.iter().take(120) {
            assert!(tree.remove(p, *id));
        }
        let path = tmp("holes.qdt");
        save(&tree, &path).unwrap();
        let loaded = load(&path).unwrap();
        loaded.validate();
        assert_eq!(loaded.len(), tree.len());
        // And further inserts reuse the free list without clobbering.
        let mut loaded = loaded;
        for id in 1000..1050u64 {
            loaded.insert(vec![1.0, 1.0, 1.0], id);
        }
        loaded.validate();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_tree_roundtrips() {
        let tree = RStarTree::new(TreeConfig::small(2));
        let path = tmp("empty.qdt");
        save(&tree, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert!(loaded.is_empty());
        loaded.validate();
        std::fs::remove_file(&path).ok();
    }
}
