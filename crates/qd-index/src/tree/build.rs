//! R\* insertion: `ChooseSubtree`, then overflow treatment by forced
//! reinsertion or the topological split — everything `insert` and the
//! reinsertions of `condense` run (DESIGN.md §11, "The construction core").

use super::{Node, NodeId, NodeKind, Orphan, RStarTree};
use crate::rect::Rect;
use qd_linalg::metric::sq_l2_f64;

impl RStarTree {
    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Inserts `point` under the caller-assigned `id`.
    ///
    /// Duplicate ids are permitted (the tree is a multiset); the CBIR corpus
    /// assigns unique image ids.
    ///
    /// # Panics
    /// Panics if `point` has the wrong dimensionality.
    pub fn insert(&mut self, point: Vec<f32>, id: u64) {
        assert_eq!(
            point.len(),
            self.config.dims,
            "point dimensionality mismatch"
        );
        let slot = self.store.alloc(id, &point);
        self.insert_orphan(Orphan::Data(slot), 0, &mut 0);
        self.len += 1;
    }

    /// Inserts an orphan (data slot or whole subtree) at the given level.
    /// Bit `l` of `reinserted` is set once level `l` has had its forced
    /// reinsertion for this insertion (levels stay far below 64: slot
    /// indices are u32 and every node holds at least two entries).
    pub(super) fn insert_orphan(&mut self, orphan: Orphan, level: u32, reinserted: &mut u64) {
        match orphan {
            Orphan::Data(slot) => {
                debug_assert_eq!(level, 0);
                let rect = self.store.point_rect(slot);
                let leaf = self.choose_subtree(&rect, 0);
                self.leaf_slots_mut(leaf).push(slot);
                self.grow_upward(leaf, &rect);
                if self.node(leaf).entry_count() > self.config.max_entries {
                    self.overflow(leaf, reinserted);
                }
            }
            Orphan::Subtree(child) => {
                let child_rect = self.rect_of(child).clone();
                // A subtree of level L becomes the child of a node at L+1.
                let target = self.choose_subtree(&child_rect, level + 1);
                self.push_child(target, child);
                self.grow_upward(target, &child_rect);
                if self.node(target).entry_count() > self.config.max_entries {
                    self.overflow(target, reinserted);
                }
            }
        }
    }

    /// R\* `ChooseSubtree`: descends from the root to a node at
    /// `target_level`, minimizing overlap enlargement when the children are
    /// leaves and area enlargement otherwise.
    fn choose_subtree(&self, rect: &Rect, target_level: u32) -> NodeId {
        let mut n = self.root;
        while self.node(n).level > target_level {
            self.touch(n);
            n = if self.node(n).level == 1 {
                self.pick_min_overlap_child(n, rect)
            } else {
                self.pick_min_area_child(n, rect)
            };
        }
        self.touch(n);
        n
    }

    fn pick_min_area_child(&self, n: NodeId, rect: &Rect) -> NodeId {
        let mut children = self.children(n).peekable();
        #[expect(
            clippy::expect_used,
            reason = "ChooseSubtree descends only through internal nodes, and an internal \
                      node has at least two children: min_entries >= 2 below the root, and \
                      a root is made internal by a split into two and is shrunk by condense \
                      when it has one child"
        )]
        let mut best = *children.peek().expect("internal node without children");
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for c in children {
            let r = self.rect_of(c);
            let key = (r.enlargement(rect), r.area());
            if key < best_key {
                best_key = key;
                best = c;
            }
        }
        best
    }

    /// Minimum overlap-enlargement child of `n`. For wide nodes, only the
    /// `CANDIDATES` children with the least area enlargement are examined —
    /// the R\* paper's own large-fan-out shortcut — in ascending
    /// `(enlargement.total_cmp, chain position)` order, which is the order a
    /// stable sort on the enlargement leaves them in. Enlargements and areas
    /// come four children at a time ([`Rect::enlargements4`]); the sixteen
    /// are selected, then only they are sorted.
    ///
    /// A candidate's overlap enlargement is a sum of terms `overlap(r ∪ e, s)
    /// − overlap(r, s)` ([`Rect::overlap_growth`]), none of them negative,
    /// rounding included (DESIGN.md §11, "The construction core"), so its
    /// partial sums never decrease: once one exceeds the best key's first
    /// component the candidate can no longer compare below the best, and its
    /// remaining siblings are skipped. The abandon is strict (`>`): on `==`
    /// the later key components still decide, and a NaN sum never abandons,
    /// exactly as it never wins. A candidate that already contains the entry
    /// is its own union, so every term is `x − x` for a finite `x` — each
    /// overlap is at most the candidate's area, finite here — and the sum is
    /// `0.0` without a sibling being read. The choice is the full
    /// evaluation's, bit for bit.
    fn pick_min_overlap_child(&self, n: NodeId, rect: &Rect) -> NodeId {
        const CANDIDATES: usize = 16;
        let children: Vec<(NodeId, &Rect)> =
            self.children(n).map(|c| (c, self.rect_of(c))).collect();
        // (area enlargement, chain position, area) per child.
        let mut by_area: Vec<(f64, usize, f64)> = Vec::with_capacity(children.len());
        for (b, block) in children.chunks(4).enumerate() {
            let last = block.len() - 1;
            let rects = std::array::from_fn(|i| block[i.min(last)].1);
            let (enlargements, areas) = Rect::enlargements4(rects, rect);
            by_area.extend((0..block.len()).map(|i| (enlargements[i], 4 * b + i, areas[i])));
        }
        let order =
            |a: &(f64, usize, f64), b: &(f64, usize, f64)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        if by_area.len() > CANDIDATES {
            by_area.select_nth_unstable_by(CANDIDATES - 1, order);
            by_area.truncate(CANDIDATES);
        }
        by_area.sort_unstable_by(order);

        let mut best = by_area[0].1;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        'candidates: for &(area_enlargement, c, area) in &by_area {
            let r = children[c].1;
            let mut overlap_increase = 0.0;
            if !(area.is_finite() && r.contains_rect(rect)) {
                for (s, (_, sr)) in children.iter().enumerate() {
                    if s == c {
                        continue;
                    }
                    overlap_increase += r.overlap_growth(rect, sr);
                    if overlap_increase > best_key.0 {
                        continue 'candidates;
                    }
                }
            }
            let key = (overlap_increase, area_enlargement, area);
            if key < best_key {
                best_key = key;
                best = c;
            }
        }
        children[best].0
    }

    /// R\* `OverflowTreatment`: forced reinsertion once per level per
    /// insertion, splits thereafter.
    fn overflow(&mut self, n: NodeId, reinserted: &mut u64) {
        let level_bit = 1u64 << self.node(n).level;
        if n != self.root && *reinserted & level_bit == 0 {
            *reinserted |= level_bit;
            self.forced_reinsert(n, reinserted);
        } else {
            self.split_and_propagate(n, reinserted);
        }
    }

    /// Evicts the `reinsert_fraction` entries farthest from the node center
    /// and re-inserts them from the top.
    fn forced_reinsert(&mut self, n: NodeId, reinserted: &mut u64) {
        let center = self.rect_of(n).center();
        // CAST: max_entries is a small node capacity (~100), exact in f32.
        let count = ((self.config.max_entries as f32 * self.config.reinsert_fraction).ceil()
            as usize)
            .max(1);
        let level = self.node(n).level;

        // Distances are computed once per entry; the stable sort on them is
        // the order a comparator recomputing both sides would produce.
        let orphans: Vec<Orphan> = if self.is_leaf(n) {
            let mut row = Vec::with_capacity(center.len());
            let mut scored: Vec<(f64, u32)> = self
                .leaf_slots(n)
                .iter()
                .map(|&s| {
                    row.clear();
                    row.extend(self.store.coords(s));
                    (sq_l2_f64(&row, &center), s)
                })
                .collect();
            scored.sort_by(|a, b| a.0.total_cmp(&b.0));
            let evicted = scored.split_off(scored.len() - count.min(scored.len()));
            // The leaf keeps its entries in ascending-distance order.
            *self.leaf_slots_mut(n) = scored.into_iter().map(|(_, s)| s).collect();
            evicted.into_iter().map(|(_, s)| Orphan::Data(s)).collect()
        } else {
            let mut scored: Vec<(f64, usize, NodeId)> = self
                .children(n)
                .enumerate()
                .map(|(i, c)| (sq_l2_f64(&self.rect_of(c).center(), &center), i, c))
                .collect();
            scored.sort_by(|a, b| a.0.total_cmp(&b.0));
            let evicted = scored.split_off(scored.len() - count.min(scored.len()));
            // The node keeps its children in chain order.
            scored.sort_by_key(|&(_, i, _)| i);
            let kept: Vec<NodeId> = scored.into_iter().map(|(_, _, c)| c).collect();
            self.link_children(n, &kept);
            evicted
                .into_iter()
                .map(|(_, _, c)| Orphan::Subtree(c))
                .collect()
        };

        self.adjust_upward(n);
        for orphan in orphans {
            // `insert_orphan` takes the level of the orphan itself: data
            // entries are level 0, evicted children sit one level below the
            // node they came from.
            let orphan_level = match &orphan {
                Orphan::Data(_) => 0,
                Orphan::Subtree(_) => level - 1,
            };
            self.insert_orphan(orphan, orphan_level, reinserted);
        }
    }

    fn split_and_propagate(&mut self, n: NodeId, reinserted: &mut u64) {
        let sibling = self.split(n);
        if n == self.root {
            let level = self.node(n).level + 1;
            let new_root = self.alloc(Node::detached(level, NodeKind::EMPTY_INTERNAL));
            self.link_children(new_root, &[n, sibling]);
            self.root = new_root;
            self.recompute_rect(new_root);
        } else {
            #[expect(
                clippy::expect_used,
                reason = "an overflowing node that is not the root has a parent, the \
                          invariant condense relies on"
            )]
            let parent = self.parent(n).expect("non-root without parent");
            self.push_child(parent, sibling);
            self.adjust_upward(parent);
            if self.node(parent).entry_count() > self.config.max_entries {
                self.overflow(parent, reinserted);
            }
        }
    }

    /// R\* topological split ([`choose_split`]). Returns the new sibling
    /// holding the second group; both groups keep their entries in the
    /// order the node held them.
    fn split(&mut self, n: NodeId) -> NodeId {
        let rects: Vec<Rect> = if self.is_leaf(n) {
            let slots = self.leaf_slots(n).iter();
            slots.map(|&s| self.store.point_rect(s)).collect()
        } else {
            self.children(n).map(|c| self.rect_of(c).clone()).collect()
        };
        debug_assert!(rects.len() > self.config.max_entries);
        let (order, split_at) = choose_split(&rects, self.config.min_entries);
        let mut second = vec![false; rects.len()];
        for &i in &order[split_at..] {
            second[i] = true;
        }

        let level = self.node(n).level;
        let sibling = if self.is_leaf(n) {
            let slots = std::mem::take(self.leaf_slots_mut(n));
            let (keep, give) = partition_by(slots, &second);
            *self.leaf_slots_mut(n) = keep;
            self.alloc(Node::detached(level, NodeKind::Leaf(give)))
        } else {
            let (keep, give) = partition_by(self.children(n), &second);
            self.link_children(n, &keep);
            let sibling = self.alloc(Node::detached(level, NodeKind::EMPTY_INTERNAL));
            self.link_children(sibling, &give);
            sibling
        };
        self.recompute_rect(n);
        self.recompute_rect(sibling);
        sibling
    }
}

/// R\* split choice over the entry rectangles of an overflowing node: the
/// ordering (entries sorted by lower or by upper bound along one axis) whose
/// legal distributions have the least total margin, then its distribution of
/// least overlap (ties by area sum). A distribution cuts the ordering into a
/// first group of `split_at` entries and the rest, each at least `m`.
/// Returns `(ordering, split_at)`.
///
/// Each ordering is swept once from either end ([`sweep`]) instead of
/// rebuilding both groups' boxes for every cut: `min`/`max` are exact, so a
/// running box equals the box folded from scratch. An ordering is sorted as
/// `(key, index)` integers, which is the stable sort on the key. Along an
/// axis where every entry's two bounds are the same bits — every axis of a
/// leaf's point entries — the upper-bound ordering is the lower-bound one
/// again: its margin sum is the same, and cannot compare below itself.
/// When no margin sum compares below `+∞` the first ordering is taken.
fn choose_split(rects: &[Rect], m: usize) -> (Vec<usize>, usize) {
    let total = rects.len();
    let mut best_margin = f64::INFINITY;
    let mut best: Vec<usize> = Vec::new();
    let mut keyed: Vec<u64> = Vec::with_capacity(total);
    // Margin sums per cut, indexed by `split_at - m`.
    let mut margins = vec![0.0f64; total - 2 * m + 1];
    for axis in 0..rects[0].dim() {
        let flat = rects
            .iter()
            .all(|r| r.min()[axis].to_bits() == r.max()[axis].to_bits());
        let bounds = [Rect::min, Rect::max];
        for bound in &bounds[..if flat { 1 } else { 2 }] {
            keyed.clear();
            keyed.extend(
                (0u64..)
                    .zip(rects)
                    .map(|(i, r)| u64::from(total_order_bits(bound(r)[axis])) << 32 | i),
            );
            keyed.sort_unstable();
            // CAST: the low half of a key is an entry index below 2^32.
            let order = keyed.iter().map(|&k| k as u32 as usize);
            sweep(rects, order.clone(), m, |len, first| {
                margins[len - m] = first.margin()
            });
            sweep(rects, order.clone().rev(), m, |len, second| {
                margins[total - len - m] += second.margin()
            });
            let margin_sum = margins.iter().sum::<f64>();
            if margin_sum < best_margin {
                best_margin = margin_sum;
                best.clear();
                best.extend(order);
            } else if best.is_empty() {
                // Every sum so far is +∞ or NaN (an extent overflowed f32):
                // the first ordering stands until one compares below +∞.
                best.extend(order);
            }
        }
    }

    // Overlap and area only for the winner: first groups by a forward sweep,
    // each met by its second group on the way back.
    let mut firsts: Vec<Rect> = Vec::with_capacity(margins.len());
    sweep(rects, best.iter().copied(), m, |_, first| {
        firsts.push(first.clone())
    });
    let mut keys = vec![(0.0f64, 0.0f64); margins.len()];
    sweep(rects, best.iter().copied().rev(), m, |len, second| {
        let first = &firsts[total - len - m];
        keys[total - len - m] = (first.overlap(second), first.area() + second.area());
    });
    let mut cut = 0;
    for (i, key) in keys.iter().enumerate() {
        if *key < keys[cut] {
            cut = i;
        }
    }
    (best, cut + m)
}

/// `x`'s rank in [`f32::total_cmp`]'s order, as an unsigned integer:
/// negative values by descending magnitude below non-negative ones by
/// ascending magnitude.
fn total_order_bits(x: f32) -> u32 {
    let bits = x.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

/// Calls `visit(len, bbox)` with the bounding box of the first `len`
/// rectangles in `order`, for every `len` that leaves both sides of the cut
/// at least `m` of them (`m` ≥ 2, so never for the first alone).
fn sweep(
    rects: &[Rect],
    mut order: impl ExactSizeIterator<Item = usize>,
    m: usize,
    mut visit: impl FnMut(usize, &Rect),
) {
    let longest = order.len() - m;
    let Some(first) = order.next() else { return };
    let mut bbox = rects[first].clone();
    for (len, i) in (2..=longest).zip(order) {
        bbox.enlarge(&rects[i]);
        if len >= m {
            visit(len, &bbox);
        }
    }
}

/// `items` in order, parted by the flag at each one's position: `(unset, set)`.
fn partition_by<T>(items: impl IntoIterator<Item = T>, flags: &[bool]) -> (Vec<T>, Vec<T>) {
    let (mut unset, mut set) = (Vec::new(), Vec::new());
    for (item, &flag) in items.into_iter().zip(flags) {
        if flag { &mut set } else { &mut unset }.push(item);
    }
    (unset, set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeConfig;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    // ------------------------------------------------------------------
    // The construction oracle: the two R* decisions as they were computed
    // before the insertion fast path (DESIGN.md §11, "The construction
    // core"), kept verbatim as references for the differential test below.
    // ------------------------------------------------------------------

    impl RStarTree {
        fn reference_pick_min_overlap_child(&self, children: &[NodeId], rect: &Rect) -> NodeId {
            const CANDIDATES: usize = 16;
            let mut by_area: Vec<(f64, NodeId)> = children
                .iter()
                .map(|&c| {
                    let r = self.node(c).rect.as_ref().expect("child without rect");
                    (r.union(rect).area() - r.area(), c)
                })
                .collect();
            by_area.sort_by(|a, b| a.0.total_cmp(&b.0));
            by_area.truncate(CANDIDATES.max(1));

            let mut best = by_area[0].1;
            let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            for &(area_enlargement, c) in &by_area {
                let r = self.node(c).rect.as_ref().expect("child without rect");
                let enlarged = r.union(rect);
                let mut overlap_increase = 0.0;
                for &s in children {
                    if s == c {
                        continue;
                    }
                    let sr = self.node(s).rect.as_ref().expect("child without rect");
                    overlap_increase += enlarged.overlap(sr) - r.overlap(sr);
                }
                let key = (overlap_increase, area_enlargement, r.area());
                if key < best_key {
                    best_key = key;
                    best = c;
                }
            }
            best
        }
    }

    struct Distribution {
        first_group_len: usize,
        margin_sum: f64,
        overlap: f64,
        area_sum: f64,
    }

    fn distributions(order: &[usize], rects: &[Rect], m: usize) -> Vec<Distribution> {
        let total = order.len();
        let mut out = Vec::with_capacity(total.saturating_sub(2 * m) + 1);
        for first_len in m..=(total - m) {
            let first = bounding_rect(order[..first_len].iter().map(|&i| &rects[i]));
            let second = bounding_rect(order[first_len..].iter().map(|&i| &rects[i]));
            out.push(Distribution {
                first_group_len: first_len,
                margin_sum: first.margin() + second.margin(),
                overlap: first.overlap(&second),
                area_sum: first.area() + second.area(),
            });
        }
        out
    }

    fn bounding_rect<'a>(mut rects: impl Iterator<Item = &'a Rect>) -> Rect {
        let mut out = rects.next().expect("empty rect set").clone();
        for r in rects {
            out.enlarge(r);
        }
        out
    }

    fn reference_choose_split(rects: &[Rect], m: usize) -> (Vec<usize>, usize) {
        let total = rects.len();
        let mut best_axis_margin = f64::INFINITY;
        let mut best_axis_order: Vec<usize> = Vec::new();
        for axis in 0..rects[0].dim() {
            for sort_by_upper in [false, true] {
                let mut order: Vec<usize> = (0..total).collect();
                order.sort_by(|&a, &b| {
                    let (ka, kb) = if sort_by_upper {
                        (rects[a].max()[axis], rects[b].max()[axis])
                    } else {
                        (rects[a].min()[axis], rects[b].min()[axis])
                    };
                    ka.total_cmp(&kb)
                });
                let margin_sum = distributions(&order, rects, m)
                    .iter()
                    .map(|d| d.margin_sum)
                    .sum::<f64>();
                if margin_sum < best_axis_margin {
                    best_axis_margin = margin_sum;
                    best_axis_order = order;
                }
            }
        }
        let split_at = {
            let dists = distributions(&best_axis_order, rects, m);
            let mut best = &dists[0];
            for d in &dists {
                if (d.overlap, d.area_sum) < (best.overlap, best.area_sum) {
                    best = d;
                }
            }
            best.first_group_len
        };
        (best_axis_order, split_at)
    }

    /// How the rectangles of a generated node relate to each other.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// Small boxes scattered over the space: in 37-d they hardly ever
        /// overlap, so most overlap terms take the early `0.0` exit.
        Scattered,
        /// Boxes spanning most of the space in all but three dimensions:
        /// positive 37-factor overlaps everywhere.
        Overlapping,
        /// Corners on a coarse integer grid, the last dimension constant:
        /// every volume is 0.0 and sort keys repeat — only tie order decides.
        Grid,
        /// Three distinct boxes, repeated.
        Duplicates,
        /// Corners from `{−1, −0.0, +0.0, 1}`, mostly degenerate: faces,
        /// zero extents and sort keys meet at zeros of either sign, and an
        /// axis can be flat in value but not in bits.
        SignedZeros,
        /// Extents up to `1e38` per axis: 37-factor areas and overlaps
        /// overflow to `+∞`, so terms go `∞ − ∞` and sums NaN.
        Huge,
        /// For ChooseSubtree: 17–40 children, a few containing the entry and
        /// the rest copies of one box, so the copies' equal enlargements
        /// straddle the cut after the sixteenth candidate. Duplicates for a
        /// split.
        TiedAtCut,
    }

    const SHAPES: [Shape; 7] = [
        Shape::Scattered,
        Shape::Overlapping,
        Shape::Grid,
        Shape::Duplicates,
        Shape::SignedZeros,
        Shape::Huge,
        Shape::TiedAtCut,
    ];

    fn random_rect(rng: &mut StdRng, dims: usize, shape: Shape, point: bool) -> Rect {
        let narrow: Vec<usize> = (0..3).map(|_| rng.random_range(0..dims)).collect();
        let (mut min, mut max) = (Vec::new(), Vec::new());
        for d in 0..dims {
            let (lo, hi) = match shape {
                Shape::Grid if d + 1 == dims => (1.0, 1.0),
                Shape::Grid => {
                    let lo = rng.random_range(0..3u32) as f32;
                    (lo, lo + rng.random_range(0..2u32) as f32)
                }
                Shape::Overlapping if !narrow.contains(&d) => {
                    (rng.random::<f32>(), 9.0 + rng.random::<f32>())
                }
                Shape::SignedZeros => {
                    // Mostly degenerate, and a zero's two bounds of
                    // independent sign: `(-0.0, 0.0)` and `(0.0, -0.0)`
                    // both pass `lo <= hi`.
                    let values = [-1.0f32, -0.0, 0.0, 1.0];
                    let a = values[rng.random_range(0..4usize)];
                    let b = match rng.random_range(0..4u32) {
                        0 => values[rng.random_range(0..4usize)],
                        _ if a == 0.0 => values[rng.random_range(1..3usize)],
                        _ => a,
                    };
                    if a <= b {
                        (a, b)
                    } else {
                        (b, a)
                    }
                }
                Shape::Huge => {
                    let lo = (rng.random::<f32>() * 2.0 - 1.0) * 1e38;
                    (lo, lo + rng.random::<f32>() * 1e38)
                }
                _ => {
                    let lo = rng.random::<f32>() * 8.0;
                    (lo, lo + rng.random::<f32>() * 2.0)
                }
            };
            min.push(lo);
            max.push(if point { lo } else { hi });
        }
        Rect::new(min, max)
    }

    fn random_rects(
        rng: &mut StdRng,
        n: usize,
        dims: usize,
        shape: Shape,
        points: bool,
    ) -> Vec<Rect> {
        let mut rects: Vec<Rect> = (0..n)
            .map(|_| random_rect(rng, dims, shape, points))
            .collect();
        if matches!(shape, Shape::Duplicates | Shape::TiedAtCut) {
            for i in 3..n {
                rects[i] = rects[rng.random_range(0..3usize)].clone();
            }
        }
        rects
    }

    /// The children of a ChooseSubtree node for `entry`. Their number is
    /// drawn from 2..=9 on every third round — a short last block of four
    /// and nodes narrower than the candidate list — and from 2..=`max`
    /// otherwise. On even rounds two of them nest around the entry, in
    /// either chain order; a `Huge` node may instead have a child around
    /// the entry at infinite area.
    fn chooser_node(
        rng: &mut StdRng,
        round: usize,
        max: usize,
        shape: Shape,
        entry: &Rect,
    ) -> Vec<Rect> {
        let dims = entry.dim();
        if let Shape::TiedAtCut = shape {
            // `k` children around the entry (enlargement 0.0), then copies
            // of one box that does not hold it, at scrambled positions.
            let n = rng.random_range(17..=40);
            let k = rng.random_range(1..16);
            let apart = Rect::new(
                entry.min().iter().map(|v| v + 20.0).collect(),
                entry.max().iter().map(|v| v + 21.0).collect(),
            );
            let mut rects = vec![apart; n];
            for _ in 0..k {
                let by = 1.0 + rng.random::<f32>();
                rects[rng.random_range(0..n)] = Rect::new(
                    entry.min().iter().map(|v| v - by).collect(),
                    entry.max().iter().map(|v| v + by).collect(),
                );
            }
            return rects;
        }
        let n = match round % 3 {
            0 => rng.random_range(2..=9),
            _ => rng.random_range(2..=max),
        };
        let mut rects = random_rects(rng, n, dims, shape, false);
        if round.is_multiple_of(2) {
            let grow = |by: f32| {
                Rect::new(
                    entry.min().iter().map(|v| v - by).collect(),
                    entry.max().iter().map(|v| v + by).collect(),
                )
            };
            let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
            if let Shape::Huge = shape {
                rects[i] = grow(1e38);
            } else {
                rects[i] = grow(2.0);
                rects[j] = grow(1.0);
            }
        }
        rects
    }

    /// A two-level tree whose root holds one (empty) leaf per rectangle:
    /// everything ChooseSubtree reads.
    fn level1_tree(rects: &[Rect]) -> RStarTree {
        let mut tree = RStarTree::new(TreeConfig::small(rects[0].dim()));
        let leaves: Vec<NodeId> = rects
            .iter()
            .map(|r| {
                let mut leaf = Node::detached(0, NodeKind::Leaf(Vec::new()));
                leaf.rect = Some(r.clone());
                tree.alloc(leaf)
            })
            .collect();
        tree.root = tree.alloc(Node::detached(1, NodeKind::EMPTY_INTERNAL));
        tree.link_children(tree.root, &leaves);
        tree
    }

    /// The premise of the early abandon, asserted term by term — a term is
    /// never negative, so a partial sum never decreases; once one is NaN it
    /// stays NaN, which never abandons — and the allocation-free geometry
    /// against the materialised union, bit for bit.
    fn assert_overlap_terms_monotone(rects: &[Rect], entry: &Rect) {
        for (c, r) in rects.iter().enumerate() {
            let enlarged = r.union(entry);
            assert_eq!(
                r.enlargement(entry).to_bits(),
                (enlarged.area() - r.area()).to_bits()
            );
            let mut sum = 0.0f64;
            for (s, sr) in rects.iter().enumerate() {
                if s == c {
                    continue;
                }
                let term = enlarged.overlap(sr) - r.overlap(sr);
                assert_eq!(r.overlap_growth(entry, sr).to_bits(), term.to_bits());
                assert!(term >= 0.0 || term.is_nan(), "negative overlap term {term}");
                assert!(
                    sum + term >= sum || (sum + term).is_nan(),
                    "partial sum decreased"
                );
                sum += term;
            }
        }
        for (b, block) in rects.chunks(4).enumerate() {
            let last = block.len() - 1;
            let (enlargements, areas) =
                Rect::enlargements4(std::array::from_fn(|i| &block[i.min(last)]), entry);
            for (i, r) in block.iter().enumerate() {
                let at = format!("child {}", 4 * b + i);
                assert_eq!(
                    enlargements[i].to_bits(),
                    r.enlargement(entry).to_bits(),
                    "{at}"
                );
                assert_eq!(areas[i].to_bits(), r.area().to_bits(), "{at}");
            }
        }
    }

    /// The fast ChooseSubtree and split make the reference's choice on
    /// every generated node: point and box entries, M ∈ {5, 100}, d ∈ {2, 37},
    /// scattered, overlapping, all-tie, duplicate-heavy, signed-zero and
    /// overflowing nodes, nodes of 2–9 children, and nodes whose new entry
    /// lies inside two overlapping children of different area — equal
    /// overlap and area enlargement (both 0.0), so only the third key
    /// component decides, which an abandon on `>=` would skip. Counted on
    /// the way: nodes whose sixteenth and seventeenth smallest enlargements
    /// tie (the candidate cut falls inside a tie group, where the lower
    /// chain position must win), and nodes where a candidate holds the
    /// entry at infinite area (where the shortcut to a `0.0` sum would be
    /// wrong: its terms are `∞ − ∞`).
    /// Coordinates far enough apart that an extent overflows `f32`: every
    /// ordering's margin sum is then `+∞`, none compares below another, and
    /// the split still has to pick one.
    #[test]
    fn a_node_whose_extents_overflow_still_splits() {
        let mut tree = RStarTree::new(TreeConfig::small(2));
        for i in 0..60u64 {
            let x = if i % 2 == 0 { -3e38 } else { 3e38 };
            tree.insert(vec![x, i as f32], i);
        }
        tree.validate();
        assert_eq!(tree.len(), 60);
        assert!(tree.height() > 1);
    }

    #[test]
    fn fast_choose_subtree_and_split_match_the_reference_decisions() {
        let mut rng = StdRng::seed_from_u64(0xD1FF_0AC1E);
        let mut nodes = 0usize;
        let mut third_component_decided = 0usize;
        let mut tied_at_cut = 0usize;
        let mut infinite_container = 0usize;
        for (max_entries, m) in [(5usize, 2usize), (100, 40)] {
            for dims in [2usize, 37] {
                let rounds = if max_entries * dims > 1000 { 12 } else { 48 };
                for round in 0..rounds {
                    for shape in SHAPES {
                        for points in [true, false] {
                            // ChooseSubtree over a node that still has room.
                            let entry = random_rect(&mut rng, dims, shape, points);
                            let rects = chooser_node(&mut rng, round, max_entries, shape, &entry);
                            assert_overlap_terms_monotone(&rects, &entry);
                            let tree = level1_tree(&rects);
                            let children = tree.children(tree.root).collect::<Vec<_>>();
                            let want = tree.reference_pick_min_overlap_child(&children, &entry);
                            assert_eq!(
                                tree.pick_min_overlap_child(tree.root, &entry),
                                want,
                                "ChooseSubtree: M {max_entries} d {dims} {shape:?} round {round}"
                            );
                            assert_eq!(tree.choose_subtree(&entry, 0), want);
                            let contains_entry =
                                |c: &&NodeId| tree.rect_of(**c).contains_rect(&entry);
                            let first_containing = children.iter().find(contains_entry);
                            if first_containing.is_some_and(|&c| c != want) {
                                third_component_decided += 1;
                            }
                            let mut enlargements: Vec<f64> =
                                rects.iter().map(|r| r.enlargement(&entry)).collect();
                            enlargements.sort_by(f64::total_cmp);
                            if enlargements.len() > 16 && enlargements[15] == enlargements[16] {
                                tied_at_cut += 1;
                            }
                            if rects
                                .iter()
                                .any(|r| r.contains_rect(&entry) && !r.area().is_finite())
                            {
                                infinite_container += 1;
                            }

                            // Split of an overflowing node.
                            let rects =
                                random_rects(&mut rng, max_entries + 1, dims, shape, points);
                            assert_eq!(
                                choose_split(&rects, m),
                                reference_choose_split(&rects, m),
                                "split: M {max_entries} d {dims} {shape:?} round {round}"
                            );
                            nodes += 2;
                        }
                    }
                }
            }
        }
        assert!(nodes >= 3000, "only {nodes} nodes");
        assert!(
            third_component_decided >= 50,
            "only {third_component_decided} nodes were decided by area alone"
        );
        assert!(tied_at_cut >= 100, "only {tied_at_cut} ties at the cut");
        assert!(
            infinite_container >= 20,
            "only {infinite_container} entries held at infinite area"
        );
    }
}
