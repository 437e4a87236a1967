//! The structural check: every invariant the arena, the feature store and
//! the R\*-tree keep, checked without panicking so that a decoder can
//! refuse a corrupt file (DESIGN.md §11).

use super::{FeatureStore, NodeId, NodeKind, RStarTree, NONE, TILE};
use crate::rect::Rect;

impl RStarTree {
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
    ///
    /// One walk from the root does it. A leaf's points are tested against
    /// its rectangle, and their norms against the cached ones, in one pass
    /// over its tiles (`FeatureStore::check_points`); a live slot that no
    /// leaf references fails the walk's final count, so every live norm is
    /// checked. Nothing is allocated beyond the walk's own marks and stack.
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
                        self.store.check_points(rect, slots)?;
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

impl FeatureStore {
    /// Checks the points of a leaf's `slots`, each already known to be a
    /// live slot, against the leaf's `rect`, and their cached norms against
    /// the norms of the points: one pass over the tiles in slot order. Each
    /// maximal run of consecutive slots is read tile by tile with
    /// [`Self::tile_in_rect`], lanes outside the run ignored; a slot on no
    /// run (churn leaves a few) is a run of one and reads its tile the same
    /// way. No row is gathered and nothing is allocated.
    ///
    /// A norm is compared with `!=`, exactly as the stored norm was summed,
    /// so a NaN norm — a NaN coordinate's — never passes, and a slot whose
    /// norm and point are both wrong is named by its norm.
    fn check_points(&self, rect: &Rect, slots: &[u32]) -> Result<(), String> {
        let mut rest = slots;
        while let Some(&first) = rest.first() {
            let run = 1 + rest
                .windows(2)
                .take_while(|w| w[1].wrapping_sub(w[0]) == 1)
                .count();
            let (start, end) = (first as usize, first as usize + run);
            for t in start / TILE..end.div_ceil(TILE) {
                let (outside, norms) = self.tile_in_rect(t, rect);
                for s in start.max(t * TILE)..end.min((t + 1) * TILE) {
                    if self.norms[s] != norms[s % TILE] {
                        return Err(format!("stale cached norm for feature slot {s}"));
                    }
                    if outside[s % TILE] != 0 {
                        return Err("leaf rect does not contain its point".to_string());
                    }
                }
            }
            rest = &rest[run..];
        }
        Ok(())
    }

    /// For every lane of tile `t`: whether its point lies outside `rect` —
    /// not `lo <= x && x <= hi` in some dimension, so a NaN coordinate lies
    /// in no rectangle — and its norm, each lane's squares summed in
    /// dimension order as [`Self::tile_norms`] sums them. The flags are
    /// words, not `bool`s, so that the eight lanes stay one vector.
    fn tile_in_rect(&self, t: usize, rect: &Rect) -> ([u32; TILE], [f64; TILE]) {
        let (dims, _) = self.tile(t).as_chunks::<TILE>();
        let mut outside = [0u32; TILE];
        let mut acc = [0.0f64; TILE];
        for ((lanes, &lo), &hi) in dims.iter().zip(rect.min()).zip(rect.max()) {
            for ((outside, sum), &v) in outside.iter_mut().zip(&mut acc).zip(lanes) {
                *outside |= u32::from(!(lo <= v && v <= hi));
                *sum += (v as f64) * (v as f64);
            }
        }
        (outside, acc.map(f64::sqrt))
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::random_points;
    use super::super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

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

    /// Sets coordinate `j` of `slot` to `value` and refreshes the slot's
    /// cached norm, so that the norm check sees a fresh norm.
    fn set_coord(tree: &mut RStarTree, slot: u32, j: usize, value: f32) {
        let mut row = tree.store.row(slot);
        row[j] = value;
        tree.store.write(slot, row.iter().copied());
        tree.store.norms[slot as usize] = norm_of(&row);
    }

    /// Every leaf with its slot list, in handle order.
    fn leaves_with_slots(tree: &RStarTree) -> Vec<(NodeId, Vec<u32>)> {
        tree.node_ids()
            .filter(|&n| tree.is_leaf(n))
            .map(|n| (n, tree.leaf_slots(n).to_vec()))
            .collect()
    }

    #[test]
    fn a_coordinate_one_ulp_above_its_leafs_max_is_refused() {
        let mut tree = RStarTree::bulk_load(TreeConfig::small(3), random_points(200, 3, 211));
        let (leaf, slots) = leaves_with_slots(&tree)
            .into_iter()
            .find(|(_, slots)| slots.len() > 2)
            .unwrap();
        let max = tree.node_rect(leaf).unwrap().max()[2];
        set_coord(&mut tree, slots[1], 2, max.next_up());
        let err = tree.check_invariants().unwrap_err();
        assert_eq!(err, "leaf rect does not contain its point");
    }

    /// A NaN coordinate has a NaN norm, which equals no cached norm — not
    /// even itself — so the norm check names the slot.
    #[test]
    fn a_nan_coordinate_is_refused() {
        let mut tree = RStarTree::bulk_load(TreeConfig::small(3), random_points(200, 3, 223));
        let (_, slots) = leaves_with_slots(&tree).swap_remove(3);
        set_coord(&mut tree, slots[0], 1, f32::NAN);
        let err = tree.check_invariants().unwrap_err();
        assert_eq!(
            err,
            format!("stale cached norm for feature slot {}", slots[0])
        );
    }

    #[test]
    fn a_point_in_a_leaf_whose_run_starts_mid_tile_is_checked() {
        let mut tree = RStarTree::bulk_load(TreeConfig::small(4), random_points(300, 4, 227));
        let (leaf, slots) = leaves_with_slots(&tree)
            .into_iter()
            .find(|(_, slots)| !(slots[0] as usize).is_multiple_of(TILE) && slots.len() > 1)
            .unwrap();
        assert!(slots.windows(2).all(|w| w[1] == w[0] + 1), "one run");
        let max = tree.node_rect(leaf).unwrap().max()[0];
        set_coord(&mut tree, slots[0], 0, max.next_up());
        let err = tree.check_invariants().unwrap_err();
        assert_eq!(err, "leaf rect does not contain its point");
    }

    #[test]
    fn a_point_on_a_slot_outside_any_run_is_checked() {
        let items = random_points(300, 4, 229);
        let mut tree = RStarTree::bulk_load(TreeConfig::small(4), items.clone());
        for (id, p) in items.iter().step_by(5) {
            assert!(tree.remove(p, *id));
        }
        for (id, p) in items.iter().skip(1).step_by(7).take(20) {
            tree.insert(p.iter().map(|v| v + 0.25).collect(), 1_000 + id);
        }
        tree.validate();
        let (leaf, slot) = leaves_with_slots(&tree)
            .into_iter()
            .find_map(|(leaf, slots)| {
                let alone = |i: usize| {
                    let s = slots[i];
                    (i == 0 || slots[i - 1] + 1 != s)
                        && slots.get(i + 1).is_none_or(|&next| next != s + 1)
                };
                (0..slots.len())
                    .find(|&i| alone(i))
                    .map(|i| (leaf, slots[i]))
            })
            .unwrap();
        let min = tree.node_rect(leaf).unwrap().min()[1];
        set_coord(&mut tree, slot, 1, min.next_down());
        let err = tree.check_invariants().unwrap_err();
        assert_eq!(err, "leaf rect does not contain its point");
    }

    #[test]
    fn a_norm_one_ulp_off_in_a_tile_shared_by_two_leaves_is_refused() {
        let mut tree = RStarTree::bulk_load(TreeConfig::small(3), random_points(200, 3, 233));
        let mut leaf_of_slot = vec![None; tree.store.slot_count()];
        for (leaf, slots) in leaves_with_slots(&tree) {
            for s in slots {
                leaf_of_slot[s as usize] = Some(leaf);
            }
        }
        let slot = (0..leaf_of_slot.len())
            .find(|&s| {
                let tile =
                    &leaf_of_slot[s / TILE * TILE..leaf_of_slot.len().min(s / TILE * TILE + TILE)];
                s % TILE == TILE - 1 && tile.iter().any(|&l| l != leaf_of_slot[s])
            })
            .unwrap();
        tree.store.norms[slot] = tree.store.norms[slot].next_up();
        let err = tree.check_invariants().unwrap_err();
        assert_eq!(err, format!("stale cached norm for feature slot {slot}"));
    }

    /// The point and norm checks as they ran before the run/lane pass: every
    /// live slot's cached norm against [`FeatureStore::tile_norms`], slot by
    /// slot, then every leaf's points gathered into a row one at a time and
    /// tested with [`Rect::contains_point`].
    fn reference_point_check(tree: &RStarTree) -> Result<(), String> {
        let store = &tree.store;
        for t in 0..store.slot_count().div_ceil(TILE) {
            for (lane, norm) in store.tile_norms(t).into_iter().enumerate() {
                let s = t * TILE + lane;
                if s < store.slot_count() && store.live[s] && store.norms[s] != norm {
                    return Err(format!("stale cached norm for feature slot {s}"));
                }
            }
        }
        for (leaf, slots) in leaves_with_slots(tree) {
            let rect = tree.node_rect(leaf).unwrap();
            for s in slots {
                if !rect.contains_point(&store.row(s)) {
                    return Err("leaf rect does not contain its point".to_string());
                }
            }
        }
        Ok(())
    }

    /// The run/lane check refuses exactly what the per-slot reference
    /// refuses, with the same message: on churned trees whose leaves hold
    /// runs that start and end mid-tile, slots on no run, and tiles shared
    /// with other leaves, freed slots and padding, each copy carrying one
    /// corruption — a coordinate moved onto, just past or inside its leaf's
    /// bounds with its norm refreshed or left stale, a NaN coordinate, one
    /// flipped bit of a cached norm, or any of these on a freed slot, which
    /// no check reads.
    #[test]
    fn the_run_lane_check_agrees_with_the_per_slot_reference() {
        let mut rng = StdRng::seed_from_u64(0xC4EC);
        let (mut cases, mut refused, mut lone) = (0usize, 0usize, 0usize);
        for (dims, n) in [(2usize, 150usize), (5, 301), (37, 403)] {
            let items = random_points(n, dims, 7 * dims as u64);
            let config = TreeConfig {
                dims,
                min_entries: 4,
                max_entries: 12,
                reinsert_fraction: 0.3,
            };
            let inserted = items.iter().cloned();
            for mut tree in [
                RStarTree::from_rows(config.clone(), inserted.clone()),
                RStarTree::bulk_load(config.clone(), items.clone()),
                {
                    let mut tree = RStarTree::new(config.clone());
                    inserted.for_each(|(id, p)| tree.insert(p, id));
                    tree
                },
            ] {
                for (id, p) in items.iter().step_by(3) {
                    assert!(tree.remove(p, *id));
                }
                for (id, p) in items.iter().step_by(5).take(n / 8) {
                    tree.insert(p.iter().map(|v| v + 0.125).collect(), 10_000 + id);
                }
                tree.validate();
                let leaves = leaves_with_slots(&tree);
                lone += leaves
                    .iter()
                    .flat_map(|(_, slots)| {
                        (0..slots.len()).filter(|&i| {
                            (i == 0 || slots[i - 1] + 1 != slots[i])
                                && slots.get(i + 1).is_none_or(|&s| s != slots[i] + 1)
                        })
                    })
                    .count();
                assert!(!tree.store.free.is_empty());
                for _ in 0..300 {
                    let mut bad = tree.clone();
                    let slot = if rng.random_range(0..8) == 0 {
                        bad.store.free[rng.random_range(0..bad.store.free.len())]
                    } else {
                        let (_, slots) = &leaves[rng.random_range(0..leaves.len())];
                        slots[rng.random_range(0..slots.len())]
                    };
                    let s = slot as usize;
                    let j = rng.random_range(0..dims);
                    let rect = leaves
                        .iter()
                        .find(|(_, slots)| slots.contains(&slot))
                        .and_then(|&(leaf, _)| bad.node_rect(leaf))
                        .cloned()
                        .unwrap_or_else(|| Rect::point(&vec![0.0; dims]));
                    let (lo, hi) = (rect.min()[j], rect.max()[j]);
                    match rng.random_range(0..3) {
                        0 => {
                            let value = match rng.random_range(0..5) {
                                0 => hi.next_up(),
                                1 => lo.next_down(),
                                2 => hi,
                                3 => lo,
                                _ => lo + (hi - lo) / 2.0,
                            };
                            let stale = bad.store.norms[s];
                            set_coord(&mut bad, slot, j, value);
                            if rng.random_range(0..2) == 0 {
                                bad.store.norms[s] = stale;
                            }
                        }
                        1 => set_coord(&mut bad, slot, j, f32::NAN),
                        _ => {
                            let bit = rng.random_range(0..64);
                            bad.store.norms[s] =
                                f64::from_bits(bad.store.norms[s].to_bits() ^ (1u64 << bit));
                        }
                    }
                    let got = bad.check_invariants();
                    assert_eq!(got, reference_point_check(&bad), "d {dims} slot {slot}");
                    refused += usize::from(got.is_err());
                    cases += 1;
                }
            }
        }
        assert!(lone > 50, "only {lone} slots on no run");
        assert!(
            refused > cases / 2 && refused < cases * 9 / 10,
            "{refused} of {cases} refused"
        );
    }
}
