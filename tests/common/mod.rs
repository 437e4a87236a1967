//! Checks shared by the index and shard suites.

use query_decomposition::index::RStarTree;

/// Every node's rectangle is the *tight* box of its entries, bit for bit:
/// the left-to-right `min`/`max` fold of its points (a leaf) or of its
/// children's rectangles (an internal node), read through the public
/// accessors. `check_invariants` checks containment only; the insertion
/// path grows rectangles incrementally and relies on tightness (DESIGN.md
/// §11, "The construction core"), so the update walks assert it after every
/// step. Kept out of `check_invariants` on purpose: that runs on every
/// decode.
pub fn assert_rects_tight(tree: &RStarTree) {
    for n in tree.node_ids() {
        let mut corners: Option<(Vec<f32>, Vec<f32>)> = None;
        let mut cover = |lo: &[f32], hi: &[f32]| match &mut corners {
            None => corners = Some((lo.to_vec(), hi.to_vec())),
            Some((min, max)) => {
                min.iter_mut().zip(lo).for_each(|(a, b)| *a = a.min(*b));
                max.iter_mut().zip(hi).for_each(|(a, b)| *a = a.max(*b));
            }
        };
        for (_, p) in tree.leaf_items(n) {
            cover(p, p);
        }
        for c in tree.children(n) {
            let r = tree.node_rect(c).expect("child without rect");
            cover(r.min(), r.max());
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let stored = tree.node_rect(n).map(|r| (bits(r.min()), bits(r.max())));
        let tight = corners.map(|(min, max)| (bits(&min), bits(&max)));
        assert_eq!(
            stored,
            tight,
            "rectangle of node {} is not tight",
            n.index()
        );
    }
}
