//! The QDT2 codec of the arena (see `crate::persist` for the public API).

use super::{FeatureStore, Node, NodeId, NodeKind, RStarTree, TreeConfig, MAX_NODE_ENTRIES, NONE};
use crate::rect::Rect;
use qd_fault::codec::{CodecError, Reader, Writer};
use std::sync::atomic::AtomicU64;

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
        touched: Vec::new(),
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
