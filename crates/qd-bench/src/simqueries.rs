//! Simulated queries for the wall-clock benchmark's traffic (`perf`).
//!
//! §5.2.2: "We randomly generated 100 initial queries and evaluated their
//! average query processing time … as well as the average relevance feedback
//! processing time for a single round." A simulated query targets a random
//! set of one to three categories; the oracle user then drives a normal QD
//! session toward them.

use qd_corpus::queries::{QueryGroup, QuerySpec};
use qd_corpus::Taxonomy;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Generates `n` random target queries over the taxonomy (named and filler
/// categories alike — the simulated user doesn't care about semantics).
pub fn random_queries(taxonomy: &Taxonomy, n: usize, seed: u64) -> Vec<QuerySpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let all: Vec<_> = taxonomy.ids().collect();
    (0..n)
        .map(|i| {
            let group_count = rng.random_range(1..=3usize).min(all.len());
            let mut pool = all.clone();
            pool.shuffle(&mut rng);
            QuerySpec {
                name: format!("sim-{i:03}"),
                groups: pool[..group_count]
                    .iter()
                    .map(|&id| QueryGroup {
                        name: taxonomy.name(id).to_string(),
                        members: vec![id],
                    })
                    .collect(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count_with_one_to_three_groups() {
        let t = Taxonomy::standard(20, 0);
        let qs = random_queries(&t, 50, 1);
        assert_eq!(qs.len(), 50);
        for q in &qs {
            assert!((1..=3).contains(&q.groups.len()));
            for g in &q.groups {
                assert_eq!(g.members.len(), 1);
            }
        }
    }

    #[test]
    fn groups_within_a_query_are_distinct() {
        let t = Taxonomy::standard(20, 0);
        for q in random_queries(&t, 50, 2) {
            let mut ids = q.leaf_ids();
            let before = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), before);
            assert_eq!(before, q.groups.len());
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let t = Taxonomy::standard(10, 0);
        let a = random_queries(&t, 10, 7);
        let b = random_queries(&t, 10, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.leaf_ids(), y.leaf_ids());
        }
    }
}
