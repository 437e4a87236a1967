//! QDS1: on-disk format for a sharded RFS (shard trees + representatives).
//!
//! Layout (framed by [`qd_fault::codec`]; all integers little-endian u64
//! unless noted):
//!
//! ```text
//! b"QDS1"
//! shards | seed                          -- ShardConfig
//! dims | min_entries | max_entries       -- TreeConfig
//! reinsert_fraction                      -- f32 le
//! per shard: tree_len | QDT2 tree bytes  -- qd_index::persist sections
//! rep_count
//! per rep list: node_index | count | image ids
//! ```
//!
//! Shard member lists are *not* serialized — they are re-derived from each
//! tree's stored ids and re-verified against the seeded assignment hash, so
//! a corrupted file cannot smuggle an image into the wrong shard.
//!
//! Corruption contract (exercised exhaustively by
//! `tests/persistence_properties.rs`): every load failure — bad magic,
//! truncation, over-long counts, invalid tree bytes, representative ids
//! outside their subtree — surfaces as a typed [`CodecError`], never a
//! panic.

use crate::{ShardConfig, ShardSet, MAX_SHARDS};
use qd_core::RfsStructure;
use qd_fault::codec::{self, CodecError, Reader, Writer, INDEX_SITES};
use qd_index::{KnnIndex, RStarTree, TreeConfig};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"QDS1";

fn bad(msg: impl Into<String>) -> CodecError {
    CodecError::Invalid(msg.into())
}

/// Serializes a sharded RFS to QDS1 bytes.
pub fn to_bytes(rfs: &RfsStructure<ShardSet>) -> Vec<u8> {
    let set = rfs.tree();
    let mut w = Writer::new(MAGIC);
    w.usize(set.config().shards);
    w.u64(set.config().seed);
    let tc = set.tree_config();
    w.usize(tc.dims);
    w.usize(tc.min_entries);
    w.usize(tc.max_entries);
    w.f32(tc.reinsert_fraction);
    for s in 0..set.shard_count() {
        w.section(&qd_index::persist::to_bytes(set.shard(s)));
    }
    rfs.write_reps(&mut w);
    w.finish()
}

/// Deserializes QDS1 bytes into a sharded RFS, re-deriving shard membership
/// from the tree contents and re-checking every structural invariant.
pub fn from_bytes(data: &[u8]) -> Result<RfsStructure<ShardSet>, CodecError> {
    let mut r = Reader::new(data);
    r.magic(MAGIC)?;
    let shards = r.usize()?;
    if shards == 0 || shards > MAX_SHARDS {
        return Err(bad(format!(
            "shard count {shards} outside 1..={MAX_SHARDS}"
        )));
    }
    let config = ShardConfig {
        shards,
        seed: r.u64()?,
    };

    let dims = r.usize()?;
    let min_entries = r.usize()?;
    let max_entries = r.usize()?;
    let reinsert_fraction = r.f32()?;
    if dims == 0 || dims > u32::MAX as usize {
        return Err(bad(format!("implausible dimensionality {dims}")));
    }
    if min_entries < 2 || max_entries > u32::MAX as usize || min_entries > max_entries / 2 {
        return Err(bad(format!(
            "invalid node capacities {min_entries}..{max_entries}"
        )));
    }
    if !(0.0..0.5).contains(&reinsert_fraction) {
        return Err(bad(format!(
            "reinsert fraction {reinsert_fraction} outside [0, 0.5)"
        )));
    }

    let tree_config = TreeConfig {
        dims,
        min_entries,
        max_entries,
        reinsert_fraction,
    };

    let mut trees: Vec<Arc<RStarTree>> = Vec::with_capacity(shards);
    let mut members: Vec<Arc<Vec<u64>>> = Vec::with_capacity(shards);
    for s in 0..shards {
        let tree = qd_index::persist::from_bytes(r.section()?)
            .map_err(|e| bad(format!("shard {s} tree: {e}")))?;
        let mut stored: Vec<u64> = tree.subtree_ids(tree.root()).into_iter().collect();
        stored.sort_unstable();
        trees.push(Arc::new(tree));
        members.push(Arc::new(stored));
    }
    // Each tree passed its own check as it was read, and each member list
    // is what its tree stores: what is left is the set's membership, then
    // the representatives.
    let set = ShardSet::assemble(config, tree_config, trees, members);
    set.check_membership().map_err(bad)?;
    RfsStructure::read_reps(set, r)
}

/// Saves a sharded RFS to `path` in the QDS1 format, atomically.
pub fn save(rfs: &RfsStructure<ShardSet>, path: &Path) -> Result<(), CodecError> {
    codec::write_file_atomic(path, &to_bytes(rfs), &INDEX_SITES)
}

/// Loads a sharded RFS saved by [`save`].
pub fn load(path: &Path) -> Result<RfsStructure<ShardSet>, CodecError> {
    from_bytes(&codec::read_file(path, &INDEX_SITES)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_sharded_rfs;
    use qd_core::RfsConfig;

    fn fixture() -> RfsStructure<ShardSet> {
        let features: Vec<Vec<f32>> = (0..80)
            .map(|i| {
                let x = crate::splitmix64(41 ^ i as u64);
                vec![
                    // CAST: 16-bit hash slices mapped into [0, 1).
                    (x & 0xFFFF) as f32 / 65536.0,
                    ((x >> 16) & 0xFFFF) as f32 / 65536.0,
                ]
            })
            .collect();
        build_sharded_rfs(&features, &RfsConfig::test_small(), ShardConfig::new(3, 7))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let rfs = fixture();
        let bytes = to_bytes(&rfs);
        let loaded = from_bytes(&bytes).expect("roundtrip");
        assert_eq!(loaded.tree().config(), rfs.tree().config());
        assert!(loaded
            .tree()
            .node_ids()
            .into_iter()
            .eq(rfs.tree().node_ids()));
        assert_eq!(loaded.reps_map(), rfs.reps_map());
        for s in 0..3 {
            assert_eq!(loaded.tree().shard_members(s), rfs.tree().shard_members(s));
        }
        let q = vec![0.4f32, 0.6];
        assert_eq!(
            loaded
                .tree()
                .knn_in_budgeted(loaded.tree().root(), &q, 9, Some(200)),
            rfs.tree()
                .knn_in_budgeted(rfs.tree().root(), &q, 9, Some(200)),
        );
    }

    #[test]
    fn save_load_roundtrips_via_disk() {
        let rfs = fixture();
        let dir = std::env::temp_dir().join("qd_shard_persist_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("set.qds");
        save(&rfs, &path).expect("save");
        let loaded = load(&path).expect("load");
        assert_eq!(loaded.reps_map(), rfs.reps_map());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_foreign_magic_and_truncation() {
        let rfs = fixture();
        let bytes = to_bytes(&rfs);
        assert!(matches!(
            from_bytes(b"QDR2garbage"),
            Err(CodecError::BadMagic { .. })
        ));
        for cut in [0, 3, 4, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_wrong_shard_assignment() {
        let rfs = fixture();
        let mut bytes = to_bytes(&rfs);
        // Flip the assignment seed: every stored id now maps elsewhere.
        bytes[12] ^= 0xFF;
        assert!(from_bytes(&bytes).is_err());
    }
}
