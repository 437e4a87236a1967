//! The Multiple Viewpoints baseline (French & Jin, CIVR 2004).
//!
//! MV issues one k-NN query per *viewpoint* — the paper evaluates the four
//! color channels: normal, color-negative, black-white, and black-white
//! negative — and combines the images returned by the channels into the
//! final result set (§5.2). Within each channel the query point is the
//! centroid of the relevant examples in that channel's feature space
//! (query point movement per channel); the channel result lists then merge
//! per the configured [`MvMergeRule`] — by default the paper's union of
//! per-channel heads.
//!
//! MV is a strong technique for picking the best cluster among neighboring
//! candidates, but it remains a single-neighborhood k-NN model — the paper's
//! experiments (and ours) show it cannot cover ground-truth subconcepts that
//! are scattered across distant clusters.

use super::{feedback_loop, top_k_by, top_k_euclidean, BaselineConfig, BaselineOutcome};
use crate::user::SimulatedUser;
use qd_corpus::{Corpus, QuerySpec};
use qd_imagery::Viewpoint;
use qd_linalg::metric::euclidean;
use qd_linalg::vector::centroid;

/// How the per-channel ranked lists combine into the final result set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MvMergeRule {
    /// Each channel contributes its top `k / channels` images and the union
    /// is the result (filled round-robin from each channel's remaining
    /// candidates when lists overlap). This is the paper's description —
    /// "we combined the images returned by the four color channels" — and
    /// its observed behaviour: "the MV approach brings some unrelated images
    /// in the color-negative, black-white, and black-white negative
    /// channels" (§5.2.1).
    #[default]
    ChannelUnion,
    /// Rank every image by its best (minimum) distance across channels — a
    /// stronger merge than the paper's, kept as an ablation.
    BestDistance,
}

/// Runs an MV relevance-feedback session retrieving `k` images with the
/// paper's channel-union merge.
///
/// Uses every viewpoint whose features the corpus carries; a corpus built
/// without viewpoints degenerates to single-channel query point movement.
pub fn run_session(
    corpus: &Corpus,
    query: &QuerySpec,
    user: &mut SimulatedUser,
    k: usize,
    cfg: &BaselineConfig,
) -> BaselineOutcome {
    run_session_with(corpus, query, user, k, cfg, MvMergeRule::default())
}

/// [`run_session`] with an explicit merge rule.
pub fn run_session_with(
    corpus: &Corpus,
    query: &QuerySpec,
    user: &mut SimulatedUser,
    k: usize,
    cfg: &BaselineConfig,
    merge: MvMergeRule,
) -> BaselineOutcome {
    let channels: Vec<&[Vec<f32>]> = Viewpoint::ALL
        .iter()
        .filter_map(|&vp| corpus.viewpoint_features(vp))
        .collect();
    feedback_loop(corpus, query, user, cfg, |relevant| {
        retrieve(&channels, relevant, k, merge)
    })
}

/// One MV retrieval: per-channel centroid k-NN, merged per `rule`.
fn retrieve(
    channels: &[&[Vec<f32>]],
    relevant: &[usize],
    k: usize,
    rule: MvMergeRule,
) -> Vec<usize> {
    debug_assert!(!channels.is_empty());
    let n = channels[0].len();
    // Per-channel query points.
    let query_points: Vec<Vec<f32>> = channels
        .iter()
        .map(|feats| {
            let rel: Vec<&[f32]> = relevant.iter().map(|&id| feats[id].as_slice()).collect();
            centroid(&rel)
        })
        .collect();
    match rule {
        MvMergeRule::BestDistance => top_k_by(n, k, |id| {
            channels
                .iter()
                .zip(&query_points)
                .map(|(feats, qp)| euclidean(&feats[id], qp))
                .fold(f32::INFINITY, f32::min)
        }),
        MvMergeRule::ChannelUnion => {
            // Each channel ranks the database; the final set takes the
            // channels' heads round-robin until k distinct images are
            // collected, mirroring an even k/4 split per channel.
            // The four viewpoint k-NNs are independent; run them on the
            // qd-runtime pool. `par_map` keeps channel order, so the
            // round-robin fill below sees the same lists as a serial run.
            let work: Vec<(&[Vec<f32>], &Vec<f32>)> =
                channels.iter().copied().zip(&query_points).collect();
            let ranked: Vec<Vec<usize>> = qd_runtime::par_map_indexed(&work, |ch, &(feats, qp)| {
                qd_obs::span_indexed(qd_obs::sp::MV_VIEWPOINT, ch as u64, || {
                    top_k_euclidean(feats, qp, k)
                })
            });
            let mut out = Vec::with_capacity(k.min(n)); // `k` is the caller's; `n` images exist
            let mut taken = vec![false; n];
            let mut cursors = vec![0usize; ranked.len()];
            'fill: loop {
                let mut advanced = false;
                for (list, cursor) in ranked.iter().zip(&mut cursors) {
                    while *cursor < list.len() {
                        let id = list[*cursor];
                        *cursor += 1;
                        if !std::mem::replace(&mut taken[id], true) {
                            out.push(id);
                            advanced = true;
                            if out.len() == k {
                                break 'fill;
                            }
                            break;
                        }
                    }
                }
                if !advanced {
                    break; // every channel exhausted
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{gtir, precision};
    use crate::testutil;

    #[test]
    fn mv_returns_k_results_with_full_trace() {
        let (corpus, _) = testutil::shared();
        let query = testutil::query("bird");
        let k = corpus.ground_truth(&query).len();
        let mut user = SimulatedUser::oracle(&query, 1);
        let out = run_session(corpus, &query, &mut user, k, &BaselineConfig::default());
        assert_eq!(out.results.len(), k);
        assert_eq!(out.round_trace.len(), 3);
        for t in &out.round_trace {
            assert!(t.precision.is_some());
        }
    }

    #[test]
    fn mv_is_deterministic() {
        let (corpus, _) = testutil::shared();
        let query = testutil::query("car");
        let k = corpus.ground_truth(&query).len();
        let run = || {
            let mut user = SimulatedUser::oracle(&query, 5);
            run_session(corpus, &query, &mut user, k, &BaselineConfig::default())
        };
        assert_eq!(run().results, run().results);
    }

    #[test]
    fn mv_finds_the_seeded_neighborhood() {
        // MV with oracle feedback must at least retrieve images similar to
        // its seed examples: precision clearly above the random baseline.
        let (corpus, _) = testutil::shared();
        let query = testutil::query("rose");
        let k = corpus.ground_truth(&query).len();
        let mut user = SimulatedUser::oracle(&query, 2);
        let out = run_session(corpus, &query, &mut user, k, &BaselineConfig::default());
        let p = precision(corpus, &query, &out.results);
        let random_p = k as f64 / corpus.len() as f64;
        assert!(p > 5.0 * random_p, "precision {p} vs random {random_p}");
    }

    #[test]
    fn mv_gtir_is_limited_on_scattered_queries() {
        // The paper's central claim: single-neighborhood retrieval cannot
        // cover subconcepts scattered across the feature space. On "a
        // person" (three wildly different subconcepts) MV must miss at least
        // one group.
        let (corpus, _) = testutil::shared();
        let query = testutil::query("a person");
        let k = corpus.ground_truth(&query).len();
        let mut user = SimulatedUser::oracle(&query, 3);
        let out = run_session(corpus, &query, &mut user, k, &BaselineConfig::default());
        let g = gtir(corpus, &query, &out.results);
        assert!(g <= 1.0);
        assert!(!out.results.is_empty());
    }

    #[test]
    fn retrieve_prefers_images_near_the_relevant_centroid() {
        let (corpus, _) = testutil::shared();
        let query = testutil::query("rose");
        let rose_yellow = corpus.images_of(corpus.taxonomy().require("rose/yellow"));
        let channels: Vec<&[Vec<f32>]> = Viewpoint::ALL
            .iter()
            .filter_map(|&vp| corpus.viewpoint_features(vp))
            .collect();
        let results = retrieve(&channels, &rose_yellow[..3], 10, MvMergeRule::BestDistance);
        // Most of the top-10 share the seed subconcept.
        let hits = results
            .iter()
            .filter(|&&id| corpus.is_relevant(id, &query))
            .count();
        assert!(hits >= 5, "only {hits}/10 relevant");
    }
}
