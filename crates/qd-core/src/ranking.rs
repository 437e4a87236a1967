//! Similarity ranking and result merging (§3.4).
//!
//! Each localized subquery contributes a number of result images proportional
//! to how many images the user marked relevant in its subcluster — a
//! subcluster the user endorsed more strongly is more central to the query's
//! intent. Groups are presented in order of their *ranking score* (the sum of
//! member similarity scores, where the score is Euclidean distance to the
//! local query centroid — lower is better); images within a group are ordered
//! by their individual scores.

use crate::localknn::LocalResult;
use qd_index::NodeId;

/// One presented result group: the merged output of a single localized
/// subquery.
#[derive(Debug, Clone)]
pub struct ResultGroup {
    /// The subcluster the group's subquery came from.
    pub home: NodeId,
    /// `(image id, similarity score)` pairs, ascending by score.
    pub images: Vec<(usize, f32)>,
    /// Sum of the member scores; groups are presented ascending by this.
    pub ranking_score: f64,
}

/// Splits `k` result slots across subqueries proportionally to their support
/// (largest-remainder rounding, so quotas always sum to exactly
/// `min(k, …)`). Subqueries with zero support receive zero slots.
///
/// # Panics
/// Panics if `supports` is empty.
pub fn allocate_quotas(supports: &[usize], k: usize) -> Vec<usize> {
    assert!(!supports.is_empty(), "no subqueries to allocate to");
    let total: usize = supports.iter().sum();
    if total == 0 || k == 0 {
        return vec![0; supports.len()];
    }
    let exact: Vec<f64> = supports
        .iter()
        .map(|&s| k as f64 * s as f64 / total as f64)
        .collect();
    let mut quotas: Vec<usize> = exact.iter().map(|&e| e.floor() as usize).collect();
    // `k` is the caller's: past 2^53 the f64 shares round, and their floors
    // can sum past `k` or past `usize`. Saturate instead of wrapping.
    let assigned = quotas.iter().fold(0usize, |a, &q| a.saturating_add(q));
    // Hand the remaining slots to the largest fractional remainders.
    let mut rema: Vec<(f64, usize)> = exact
        .iter()
        .enumerate()
        .map(|(i, &e)| (e - e.floor(), i))
        .collect();
    rema.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in rema.iter().take(k.saturating_sub(assigned)) {
        quotas[i] += 1;
    }
    quotas
}

/// Merges localized results into `k` final images.
///
/// Each subquery fills its quota from its own candidate list; an image
/// retrieved by several subqueries is kept only by the first group that
/// claims it. Slots a group cannot fill (candidate list exhausted) are
/// redistributed to the remaining candidates with the globally smallest
/// scores. Returns the groups ordered for presentation (ascending ranking
/// score).
pub fn merge_local_results(locals: &[LocalResult], k: usize) -> Vec<ResultGroup> {
    if locals.is_empty() || k == 0 {
        return Vec::new();
    }
    let supports: Vec<usize> = locals.iter().map(|l| l.support).collect();
    let quotas = allocate_quotas(&supports, k);

    // The ids claimed so far, ascending. Sized by the candidates, not by the
    // largest id: a loaded index may carry any u64 id.
    let mut taken: Vec<usize> = Vec::new();
    let mut groups: Vec<ResultGroup> = Vec::with_capacity(locals.len());
    for (local, &quota) in locals.iter().zip(&quotas) {
        let mut images = Vec::with_capacity(quota.min(local.neighbors.len()));
        for n in &local.neighbors {
            if images.len() == quota {
                break;
            }
            let id = n.id as usize;
            if take(&mut taken, id) {
                images.push((id, n.distance));
            }
        }
        groups.push(ResultGroup {
            home: local.home,
            images,
            ranking_score: 0.0,
        });
    }

    // Redistribute unfilled slots to the best remaining candidates anywhere.
    let filled: usize = groups.iter().map(|g| g.images.len()).sum();
    let mut missing = k.saturating_sub(filled);
    if missing > 0 {
        let mut leftovers: Vec<(f32, usize, usize)> = Vec::new(); // (score, group, id)
        for (gi, local) in locals.iter().enumerate() {
            for n in &local.neighbors {
                let id = n.id as usize;
                if taken.binary_search(&id).is_err() {
                    leftovers.push((n.distance, gi, id));
                }
            }
        }
        leftovers.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        for (score, gi, id) in leftovers {
            if missing == 0 {
                break;
            }
            if take(&mut taken, id) {
                groups[gi].images.push((id, score));
                missing -= 1;
            }
        }
    }

    for g in &mut groups {
        g.images
            .sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        g.ranking_score = g.images.iter().map(|&(_, s)| s as f64).sum();
    }
    groups.retain(|g| !g.images.is_empty());
    groups.sort_by(|a, b| a.ranking_score.total_cmp(&b.ranking_score));
    groups
}

/// Claims `id` in the ascending list `taken`; false if it was already claimed.
fn take(taken: &mut Vec<usize>, id: usize) -> bool {
    match taken.binary_search(&id) {
        Ok(_) => false,
        Err(at) => {
            taken.insert(at, id);
            true
        }
    }
}

/// Flattens presented groups into the final result id list (group-major, the
/// paper's on-screen order).
pub fn flatten_groups(groups: &[ResultGroup]) -> Vec<usize> {
    groups
        .iter()
        .flat_map(|g| g.images.iter().map(|&(id, _)| id))
        .collect()
}

/// The alternative presentation of §3.4's final paragraph: instead of
/// proportional per-group quotas, all local result images are merged into a
/// single list ranked by their individual similarity scores. Ignores
/// supports entirely — strong subclusters no longer get guaranteed slots,
/// which is why the paper prefers the quota merge (see the merge ablation).
pub fn merge_single_list(locals: &[LocalResult], k: usize) -> Vec<(usize, f32)> {
    // BTreeMap: the collected list below starts in image-id order.
    let mut best: std::collections::BTreeMap<usize, f32> = std::collections::BTreeMap::new();
    for local in locals {
        for n in &local.neighbors {
            let id = n.id as usize;
            best.entry(id)
                .and_modify(|d| *d = d.min(n.distance))
                .or_insert(n.distance);
        }
    }
    let mut out: Vec<(usize, f32)> = best.into_iter().collect();
    out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    out.truncate(k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_index::Neighbor;

    fn local(home_raw: usize, support: usize, neighbors: &[(u64, f32)]) -> LocalResult {
        // NodeId has no public constructor; grab stable ids from a scratch
        // tree built once.
        LocalResult {
            home: scratch_node(home_raw),
            scope: scratch_node(home_raw),
            neighbors: neighbors
                .iter()
                .map(|&(id, distance)| Neighbor { id, distance })
                .collect(),
            support,
            accesses: 0,
            distance_computations: 0,
            nodes_skipped: 0,
            legs_dropped: 0,
            exhausted: false,
        }
    }

    fn scratch_node(i: usize) -> NodeId {
        use qd_index::{RStarTree, TreeConfig};
        use std::sync::OnceLock;
        static TREE: OnceLock<RStarTree> = OnceLock::new();
        let tree = TREE.get_or_init(|| {
            let items = (0..200u64).map(|id| (id, vec![id as f32, 0.0])).collect();
            RStarTree::bulk_load(TreeConfig::small(2), items)
        });
        tree.node_ids()
            .nth(i % tree.node_count())
            .expect("index below the node count")
    }

    #[test]
    fn quotas_sum_to_k_and_follow_support() {
        let q = allocate_quotas(&[3, 1], 8);
        assert_eq!(q.iter().sum::<usize>(), 8);
        assert_eq!(q, vec![6, 2]);
    }

    #[test]
    fn quotas_handle_rounding_with_largest_remainder() {
        let q = allocate_quotas(&[1, 1, 1], 10);
        assert_eq!(q.iter().sum::<usize>(), 10);
        // 3.33 each; two groups get the extra slot.
        assert!(q.iter().all(|&x| x == 3 || x == 4));
    }

    #[test]
    fn zero_support_gets_zero_quota() {
        let q = allocate_quotas(&[0, 5], 10);
        assert_eq!(q, vec![0, 10]);
        let q = allocate_quotas(&[0, 0], 10);
        assert_eq!(q, vec![0, 0]);
    }

    #[test]
    fn merge_respects_quotas() {
        let a = local(0, 2, &[(0, 0.1), (1, 0.2), (2, 0.3), (3, 0.4)]);
        let b = local(1, 2, &[(10, 0.15), (11, 0.25), (12, 0.35), (13, 0.45)]);
        let groups = merge_local_results(&[a, b], 4);
        assert_eq!(groups.len(), 2);
        for g in &groups {
            assert_eq!(g.images.len(), 2);
        }
        let flat = flatten_groups(&groups);
        assert_eq!(flat.len(), 4);
    }

    #[test]
    fn merge_deduplicates_shared_candidates() {
        // Both subqueries see image 7; it must appear once.
        let a = local(0, 1, &[(7, 0.1), (1, 0.2), (2, 0.25)]);
        let b = local(1, 1, &[(7, 0.05), (8, 0.3), (9, 0.35)]);
        let groups = merge_local_results(&[a, b], 4);
        let flat = flatten_groups(&groups);
        assert_eq!(flat.len(), 4);
        let unique: std::collections::BTreeSet<usize> = flat.iter().copied().collect();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn merge_sizes_nothing_by_an_id() {
        // Ids come from a loaded index and may be any u64: a table indexed
        // by id would try to allocate 2^62 flags here.
        let a = local(0, 1, &[(1 << 62, 0.1), (u64::MAX, 0.2), (3, 0.3)]);
        let b = local(1, 1, &[(u64::MAX, 0.05), (1 << 62, 0.4)]);
        let groups = merge_local_results(&[a, b], 4);
        let mut flat = flatten_groups(&groups);
        flat.sort_unstable();
        assert_eq!(flat, [3, 1 << 62, u64::MAX as usize]);
    }

    #[test]
    fn merge_redistributes_unfillable_quota() {
        // Group a has support 3 (quota 3) but only one candidate; group b
        // has plenty. Total must still be k.
        let a = local(0, 3, &[(0, 0.1)]);
        let b = local(1, 1, &[(10, 0.2), (11, 0.3), (12, 0.4), (13, 0.5)]);
        let groups = merge_local_results(&[a, b], 4);
        let flat = flatten_groups(&groups);
        assert_eq!(flat.len(), 4);
    }

    #[test]
    fn groups_are_ordered_by_ranking_score() {
        let a = local(0, 1, &[(0, 0.9), (1, 1.0)]);
        let b = local(1, 1, &[(10, 0.1), (11, 0.2)]);
        let groups = merge_local_results(&[a, b], 4);
        assert!(groups[0].ranking_score <= groups[1].ranking_score);
        // The tight group (b) is presented first.
        assert_eq!(groups[0].images[0].0, 10);
    }

    #[test]
    fn images_within_group_ascend_by_score() {
        let a = local(0, 1, &[(2, 0.3), (0, 0.1), (1, 0.2)]);
        let groups = merge_local_results(&[a], 3);
        let scores: Vec<f32> = groups[0].images.iter().map(|&(_, s)| s).collect();
        assert!(scores.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn single_list_ranks_globally_and_dedupes() {
        let a = local(0, 3, &[(0, 0.5), (1, 0.6)]);
        let b = local(1, 1, &[(10, 0.1), (0, 0.05), (11, 0.7)]);
        let merged = merge_single_list(&[a, b], 3);
        // Image 0 appears in both lists; its best (0.05) wins and it ranks
        // first. Supports are ignored.
        assert_eq!(merged[0], (0, 0.05));
        assert_eq!(merged[1].0, 10);
        assert_eq!(merged.len(), 3);
        let ids: std::collections::BTreeSet<usize> = merged.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn single_list_truncates_to_k() {
        let a = local(0, 1, &[(0, 0.1), (1, 0.2), (2, 0.3)]);
        assert_eq!(merge_single_list(&[a], 2).len(), 2);
        assert!(merge_single_list(&[], 5).is_empty());
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        assert!(merge_local_results(&[], 5).is_empty());
        let a = local(0, 1, &[(0, 0.1)]);
        assert!(merge_local_results(&[a], 0).is_empty());
    }
}
