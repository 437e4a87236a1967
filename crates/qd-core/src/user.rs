//! The simulated relevance-feedback user.
//!
//! The paper's quality study used 20 students who marked displayed images as
//! relevant or not; its efficiency study already used "simulated queries"
//! (§5.2). This oracle substitutes for the students: it marks an image
//! relevant iff the image's ground-truth category belongs to the query, with
//! an optional noise rate modelling imperfect human judgment and an optional
//! patience bound modelling how many displayed images a user actually
//! inspects per round.
//!
//! A judgment is one `binary_search` of the query's leaf categories (1–15
//! ids, sorted and deduplicated by [`QuerySpec::leaf_ids`]): a round judges
//! every representative it displays, so the test is on the round's critical
//! path and hashes nothing.

use qd_corpus::taxonomy::SubconceptId;
use qd_corpus::QuerySpec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A deterministic relevance-feedback oracle.
#[derive(Debug)]
pub struct SimulatedUser {
    /// The query's leaf categories, sorted and deduplicated.
    relevant: Vec<SubconceptId>,
    /// Probability that a single judgment is flipped.
    noise: f32,
    /// Maximum images the user inspects per feedback round;
    /// `usize::MAX` = inspects everything shown.
    patience: usize,
    /// Pending mid-session intent change: after `after` judgments the
    /// relevant set is swapped for this one (Barz & Denzler-style query
    /// ambiguity — the user changes their mind about what they wanted).
    /// The target is sorted and deduplicated like `relevant`.
    drift: Option<(Vec<SubconceptId>, usize)>,
    /// Judgments made so far, driving the drift trigger.
    judged: usize,
    rng: StdRng,
}

impl SimulatedUser {
    /// A noise-free, unbounded-patience oracle for `query`.
    pub fn oracle(query: &QuerySpec, seed: u64) -> Self {
        Self {
            relevant: query.leaf_ids(),
            noise: 0.0,
            patience: usize::MAX,
            drift: None,
            judged: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Schedules a mid-session intent drift (builder style): after `after`
    /// judgments the user starts judging by `target`'s ground truth instead
    /// of the original query's.
    pub fn with_drift(mut self, target: &QuerySpec, after: usize) -> Self {
        self.drift = Some((target.leaf_ids(), after));
        self
    }

    /// Sets the judgment noise rate (builder style).
    pub fn with_noise(mut self, noise: f32) -> Self {
        assert!((0.0..=1.0).contains(&noise), "noise must be a probability");
        self.noise = noise;
        self
    }

    /// Sets the per-round inspection bound (builder style).
    pub fn with_patience(mut self, patience: usize) -> Self {
        self.patience = patience;
        self
    }

    /// Per-round inspection bound.
    pub fn patience(&self) -> usize {
        self.patience
    }

    /// Judges one displayed image by its ground-truth label.
    pub fn judge(&mut self, label: SubconceptId) -> bool {
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
        let truthful = self.relevant.binary_search(&label).is_ok();
        if self.noise > 0.0 && self.rng.random::<f32>() < self.noise {
            !truthful
        } else {
            truthful
        }
    }

    /// Judges a whole display: returns the indices of `shown` the user marks
    /// relevant, inspecting at most `patience` images.
    pub fn mark_relevant(&mut self, shown: &[usize], labels: &[SubconceptId]) -> Vec<usize> {
        shown
            .iter()
            .take(self.patience)
            .copied()
            .filter(|&id| {
                let label = labels[id];
                self.judge(label)
            })
            .collect()
    }
}

#[cfg(test)]
mod hashset_reference;

#[cfg(test)]
mod tests {
    use super::*;
    use qd_corpus::Taxonomy;

    fn setup() -> (Taxonomy, QuerySpec) {
        let t = Taxonomy::standard(2, 0);
        let q = qd_corpus::queries::standard_queries(&t)[2].clone(); // bird
        (t, q)
    }

    #[test]
    fn oracle_is_perfect_without_noise() {
        let (t, q) = setup();
        let mut u = SimulatedUser::oracle(&q, 1);
        assert!(u.judge(t.require("bird/eagle")));
        assert!(u.judge(t.require("bird/owl")));
        assert!(!u.judge(t.require("horse/polo")));
        assert!(!u.judge(t.require("filler-000")));
    }

    #[test]
    fn noise_flips_roughly_the_stated_fraction() {
        let (t, q) = setup();
        let mut u = SimulatedUser::oracle(&q, 2).with_noise(0.3);
        let eagle = t.require("bird/eagle");
        let flips = (0..10_000).filter(|_| !u.judge(eagle)).count();
        let rate = flips as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "flip rate {rate}");
    }

    #[test]
    fn mark_relevant_respects_patience() {
        let (t, q) = setup();
        let eagle = t.require("bird/eagle");
        let labels = vec![eagle; 100];
        let shown: Vec<usize> = (0..100).collect();
        let mut u = SimulatedUser::oracle(&q, 3).with_patience(10);
        let marked = u.mark_relevant(&shown, &labels);
        assert_eq!(marked.len(), 10);
        assert_eq!(marked, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn mark_relevant_filters_by_label() {
        let (t, q) = setup();
        let eagle = t.require("bird/eagle");
        let horse = t.require("horse/polo");
        let labels = vec![eagle, horse, eagle, horse];
        let shown = vec![0, 1, 2, 3];
        let mut u = SimulatedUser::oracle(&q, 4);
        assert_eq!(u.mark_relevant(&shown, &labels), vec![0, 2]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (t, q) = setup();
        let eagle = t.require("bird/eagle");
        let mut a = SimulatedUser::oracle(&q, 9).with_noise(0.5);
        let mut b = SimulatedUser::oracle(&q, 9).with_noise(0.5);
        let ja: Vec<bool> = (0..50).map(|_| a.judge(eagle)).collect();
        let jb: Vec<bool> = (0..50).map(|_| b.judge(eagle)).collect();
        assert_eq!(ja, jb);
    }

    #[test]
    fn drift_switches_intent_after_threshold() {
        let (t, q) = setup(); // bird
        let horse = qd_corpus::queries::standard_queries(&t)
            .into_iter()
            .find(|s| s.name == "horse")
            .expect("horse query");
        let eagle = t.require("bird/eagle");
        let polo = t.require("horse/polo");
        let mut u = SimulatedUser::oracle(&q, 5).with_drift(&horse, 3);
        // Before the threshold the original intent holds.
        for _ in 0..3 {
            assert!(u.judge(eagle));
        }
        // After three judgments the user now wants horses, not birds.
        assert!(!u.judge(eagle));
        assert!(u.judge(polo));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_noise_panics() {
        let (_, q) = setup();
        let _ = SimulatedUser::oracle(&q, 0).with_noise(1.5);
    }
}
