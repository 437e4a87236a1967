//! Comparison techniques, all built on the traditional single-neighborhood
//! k-NN relevance-feedback model:
//!
//! * [`mv`] — **Multiple Viewpoints** (French & Jin, CIVR 2004), the paper's
//!   primary baseline: one k-NN query per color-channel viewpoint, results
//!   combined;
//! * [`qpm`] — **query point movement** (MindReader): centroid query point
//!   with inverse-variance dimension weights;
//! * [`mpq`] — **multipoint query** (MARS): clustered relevant points queried
//!   as a weighted combination of representatives;
//! * [`qcluster`] — **Qcluster-style adaptive clustering**: disjunctive
//!   per-cluster contours, scored by the minimum cluster distance.
//!
//! Each baseline runs the same protocol (the [`feedback_loop`]): the user
//! supplies a couple of example images, the system retrieves `k` images per
//! round, the user marks the relevant ones, and the query model is refit.
//! Unlike QD these techniques perform a *global* k-NN computation every
//! round — the cost the RFS structure exists to avoid.

pub mod mpq;
pub mod mv;
pub mod qcluster;
pub mod qpm;

use crate::metrics::{gtir, precision, RoundTrace};
use crate::user::SimulatedUser;
use qd_corpus::{Corpus, QuerySpec};
use qd_linalg::metric::sq_l2_each;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The outcome of a baseline feedback session.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Final round's result image ids (length `k` unless the corpus is tiny).
    pub results: Vec<usize>,
    /// Per-round precision/GTIR (Table 2's MV columns).
    pub round_trace: Vec<RoundTrace>,
}

/// Baseline session parameters.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Number of feedback rounds (the paper evaluates 3).
    pub rounds: usize,
    /// How many ground-truth example images the user supplies up front
    /// (query-by-example seeding).
    pub seed_examples: usize,
    /// Seed for example selection.
    pub seed: u64,
    /// Per-round inspection budget applied to users created by the `eval`
    /// runners (`usize::MAX` = the user inspects every retrieved image).
    pub user_patience: usize,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            rounds: 3,
            seed_examples: 2,
            seed: 0,
            user_patience: usize::MAX,
        }
    }
}

/// Runs the shared retrieve–mark–refit loop. `retrieve` maps the current
/// relevant set to a ranked result list of `k` ids.
pub(crate) fn feedback_loop(
    corpus: &Corpus,
    query: &QuerySpec,
    user: &mut SimulatedUser,
    cfg: &BaselineConfig,
    mut retrieve: impl FnMut(&[usize]) -> Vec<usize>,
) -> BaselineOutcome {
    assert!(cfg.rounds >= 1, "at least one feedback round required");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut gt = corpus.ground_truth(query);
    gt.shuffle(&mut rng);
    let mut relevant: Vec<usize> = gt.into_iter().take(cfg.seed_examples.max(1)).collect();

    let mut round_trace = Vec::with_capacity(cfg.rounds);
    let mut results = Vec::new();
    for round in 1..=cfg.rounds {
        results = retrieve(&relevant);
        let marked = user.mark_relevant(&results, corpus.labels());
        for m in marked {
            if !relevant.contains(&m) {
                relevant.push(m);
            }
        }
        round_trace.push(RoundTrace {
            round,
            precision: Some(precision(corpus, query, &results)),
            gtir: gtir(corpus, query, &results),
        });
    }
    BaselineOutcome {
        results,
        round_trace,
    }
}

/// Brute-force top-`k` scan under an arbitrary scoring function
/// (ascending score = more similar). Together with [`top_k_euclidean`] it
/// is the single counting point for `baseline.distance_computations`: one
/// candidate scoring per database image per scan, whatever the technique.
pub(crate) fn top_k_by(n: usize, k: usize, mut score: impl FnMut(usize) -> f32) -> Vec<usize> {
    top_k((0..n).map(|id| (score(id), id)).collect(), k)
}

/// [`top_k_by`] for the plain Euclidean distance to `query`, scored through
/// the same multi-row kernel as the index's leaf scans.
pub(crate) fn top_k_euclidean(features: &[Vec<f32>], query: &[f32], k: usize) -> Vec<usize> {
    let mut scored = Vec::with_capacity(features.len());
    // CAST: `qd_linalg::metric::euclidean`'s own narrowing — the f64 sum
    // back to the f32 feature domain, then the root.
    sq_l2_each(features, query, |id, d2| {
        scored.push(((d2 as f32).sqrt(), id))
    });
    top_k(scored, k)
}

/// The `k` best of one full scan, ascending by `(score, id)`. Selection
/// first, so only the `k` survivors are sorted, not the database.
fn top_k(mut scored: Vec<(f32, usize)>, k: usize) -> Vec<usize> {
    qd_obs::count(qd_obs::ctr::BASELINE_DISTANCE, scored.len() as u64);
    let by_score_then_id =
        |a: &(f32, usize), b: &(f32, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    if k < scored.len() {
        if k > 0 {
            scored.select_nth_unstable_by(k - 1, by_score_then_id);
        }
        scored.truncate(k);
    }
    scored.sort_unstable_by(by_score_then_id);
    scored.into_iter().map(|(_, id)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn top_k_orders_by_score() {
        let scores = [5.0f32, 1.0, 3.0, 0.5];
        let got = top_k_by(4, 2, |i| scores[i]);
        assert_eq!(got, vec![3, 1]);
    }

    #[test]
    fn top_k_breaks_score_ties_by_id_at_the_cut() {
        // Ids 1, 3 and 4 tie for the last two places: the lower ids win.
        let scores = [2.0f32, 1.0, 0.0, 1.0, 1.0];
        assert_eq!(top_k_by(5, 3, |i| scores[i]), vec![2, 1, 3]);
        assert_eq!(top_k_by(5, 0, |i| scores[i]), Vec::<usize>::new());
    }

    #[test]
    fn top_k_euclidean_matches_the_scalar_scan() {
        let (corpus, _) = testutil::shared();
        let features = corpus.features();
        let query = &features[7];
        for k in [1usize, 10, features.len(), features.len() + 3] {
            let want = top_k_by(features.len(), k, |id| {
                qd_linalg::metric::euclidean(&features[id], query)
            });
            assert_eq!(top_k_euclidean(features, query, k), want, "k {k}");
        }
    }

    #[test]
    fn top_k_with_large_k_returns_all() {
        assert_eq!(top_k_by(3, 100, |i| i as f32).len(), 3);
    }

    #[test]
    fn feedback_loop_produces_one_trace_entry_per_round() {
        let (corpus, _) = testutil::shared();
        let query = testutil::query("rose");
        let mut user = SimulatedUser::oracle(&query, 1);
        let cfg = BaselineConfig::default();
        let out = feedback_loop(corpus, &query, &mut user, &cfg, |_rel| (0..10).collect());
        assert_eq!(out.round_trace.len(), 3);
        assert_eq!(out.results.len(), 10);
    }

    #[test]
    fn feedback_loop_grows_relevant_set_from_marks() {
        let (corpus, _) = testutil::shared();
        let query = testutil::query("rose");
        let gt = corpus.ground_truth(&query);
        let mut user = SimulatedUser::oracle(&query, 2);
        let cfg = BaselineConfig::default();
        // Retrieve ground truth directly: the relevant set must grow past the
        // seed examples, which we observe through the closure's argument.
        let mut seen_sizes = Vec::new();
        let gt2 = gt.clone();
        let _ = feedback_loop(corpus, &query, &mut user, &cfg, |rel| {
            seen_sizes.push(rel.len());
            gt2.clone()
        });
        assert!(seen_sizes.windows(2).all(|w| w[1] >= w[0]));
        assert!(*seen_sizes.last().unwrap() > seen_sizes[0]);
    }
}
