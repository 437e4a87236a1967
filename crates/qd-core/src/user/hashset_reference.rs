//! The relevance test against its previous definition. Until PR 25 the user
//! hashed every judged label into a `HashSet` of the query's leaf
//! categories; it now binary-searches the sorted, deduplicated list
//! [`QuerySpec::leaf_ids`] returns. This keeps the hashed form as a
//! reference and checks, over random label streams, relevant sets built
//! from unsorted groups with duplicates, noise rates and drift thresholds,
//! that both answer every judgment alike and leave the noise generator in
//! the same state.
#![expect(
    clippy::disallowed_types,
    reason = "the hashed relevant set is the reference this module checks against"
)]

use super::SimulatedUser;
use proptest::prelude::*;
use qd_corpus::queries::QueryGroup;
use qd_corpus::{QuerySpec, SubconceptId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

/// `SimulatedUser::judge` as it stood with a hashed relevant set.
struct HashSetUser {
    relevant: HashSet<SubconceptId>,
    noise: f32,
    drift: Option<(HashSet<SubconceptId>, usize)>,
    judged: usize,
    rng: StdRng,
}

impl HashSetUser {
    fn judge(&mut self, label: SubconceptId) -> bool {
        if self
            .drift
            .as_ref()
            .is_some_and(|(_, after)| self.judged >= *after)
        {
            if let Some((target, _)) = self.drift.take() {
                self.relevant = target;
            }
        }
        self.judged += 1;
        let truthful = self.relevant.contains(&label);
        if self.noise > 0.0 && self.rng.random::<f32>() < self.noise {
            !truthful
        } else {
            truthful
        }
    }
}

/// A query whose groups are given as raw, possibly unsorted and repeating,
/// category ids.
fn spec(groups: &[Vec<u32>]) -> QuerySpec {
    QuerySpec {
        name: "generated".into(),
        groups: groups
            .iter()
            .map(|members| QueryGroup {
                name: "g".into(),
                members: members.iter().map(|&m| SubconceptId(m)).collect(),
            })
            .collect(),
    }
}

/// Every category id the groups name, hashed.
fn hashed(groups: &[Vec<u32>]) -> HashSet<SubconceptId> {
    groups.iter().flatten().map(|&m| SubconceptId(m)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn judgments_and_draws_match_the_hashset_definition(
        seed in any::<u64>(),
        groups in prop::collection::vec(prop::collection::vec(0u32..24, 0..6), 1..5),
        target in prop::collection::vec(prop::collection::vec(0u32..24, 0..6), 1..5),
        noise in prop::sample::select(vec![0.0f32, 0.1, 0.35, 0.5, 1.0]),
        drift_after in prop::sample::select(vec![None, Some(0usize), Some(1), Some(5), Some(30)]),
        labels in prop::collection::vec(0u32..32, 0..120),
    ) {
        let mut user = SimulatedUser::oracle(&spec(&groups), seed).with_noise(noise);
        let mut reference = HashSetUser {
            relevant: hashed(&groups),
            noise,
            drift: None,
            judged: 0,
            rng: StdRng::seed_from_u64(seed),
        };
        if let Some(after) = drift_after {
            user = user.with_drift(&spec(&target), after);
            reference.drift = Some((hashed(&target), after));
        }
        for (i, &label) in labels.iter().enumerate() {
            let label = SubconceptId(label);
            prop_assert_eq!(user.judge(label), reference.judge(label), "judgment {}", i);
        }
        prop_assert_eq!(user.judged, reference.judged);
        prop_assert_eq!(user.rng.random::<u64>(), reference.rng.random::<u64>());
    }
}
