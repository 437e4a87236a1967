//! The Multiple Viewpoints baseline (French & Jin, CIVR 2004).
//!
//! MV issues one k-NN query per *viewpoint* — the paper evaluates the four
//! color channels: normal, color-negative, black-white, and black-white
//! negative — and combines the images returned by the channels into the
//! final result set (§5.2). Within each channel the query point is the
//! centroid of the relevant examples in that channel's feature space
//! (query point movement per channel); the final result set is the union of
//! the channels' heads, taken round-robin — the paper's "we combined the
//! images returned by the four color channels", and its observed behaviour:
//! "the MV approach brings some unrelated images in the color-negative,
//! black-white, and black-white negative channels" (§5.2.1).
//!
//! MV is a strong technique for picking the best cluster among neighboring
//! candidates, but it remains a single-neighborhood k-NN model — the paper's
//! experiments (and ours) show it cannot cover ground-truth subconcepts that
//! are scattered across distant clusters.

use super::{feedback_loop, top_k_rows, top_k_tiles, BaselineConfig, BaselineOutcome};
use crate::user::SimulatedUser;
use qd_corpus::{Corpus, QuerySpec};
use qd_imagery::Viewpoint;
use qd_linalg::vector::centroid;
use qd_linalg::TileTable;

/// One viewpoint's feature table: the normal channel is the corpus's row
/// table, the other three are stored as tiles.
#[derive(Clone, Copy)]
enum Channel<'a> {
    Rows(&'a [Vec<f32>]),
    Tiles(&'a TileTable),
}

impl Channel<'_> {
    /// Number of images.
    fn len(self) -> usize {
        match self {
            Channel::Rows(rows) => rows.len(),
            Channel::Tiles(table) => table.len(),
        }
    }

    /// The centroid of the `relevant` images in this channel.
    fn centroid(self, relevant: &[usize]) -> Vec<f32> {
        match self {
            Channel::Rows(rows) => {
                let rel: Vec<&[f32]> = relevant.iter().map(|&id| rows[id].as_slice()).collect();
                centroid(&rel)
            }
            Channel::Tiles(table) => {
                let rel: Vec<Vec<f32>> =
                    relevant.iter().map(|&id| table.row(id).collect()).collect();
                centroid(&rel)
            }
        }
    }

    /// The `k` images nearest `query` in this channel, best first.
    fn top_k(self, query: &[f32], k: usize) -> Vec<usize> {
        match self {
            Channel::Rows(rows) => top_k_rows(rows, query, k),
            Channel::Tiles(table) => top_k_tiles(table, query, k),
        }
    }
}

/// Runs an MV relevance-feedback session retrieving `k` images.
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
    let channels = channels(corpus);
    feedback_loop(corpus, query, user, cfg, |relevant| {
        retrieve(&channels, relevant, k)
    })
}

/// The corpus's channels in [`Viewpoint::ALL`] order.
fn channels(corpus: &Corpus) -> Vec<Channel<'_>> {
    Viewpoint::ALL
        .iter()
        .filter_map(|&vp| match vp {
            Viewpoint::Normal => Some(Channel::Rows(corpus.features())),
            vp => corpus.viewpoint_table(vp).map(Channel::Tiles),
        })
        .collect()
}

/// One MV retrieval: per-channel centroid k-NN, then the channels' heads
/// round-robin until `k` distinct images are collected, mirroring an even
/// `k / channels` split.
fn retrieve(channels: &[Channel<'_>], relevant: &[usize], k: usize) -> Vec<usize> {
    debug_assert!(!channels.is_empty());
    // The viewpoint k-NNs run one after another: fanned out over 2 workers
    // they overlapped too little to pay for the spawn (DESIGN.md §7).
    let ranked: Vec<Vec<usize>> = channels
        .iter()
        .enumerate()
        .map(|(ch, channel)| {
            let query_point = channel.centroid(relevant);
            qd_obs::span_indexed(qd_obs::sp::MV_VIEWPOINT, ch as u64, || {
                channel.top_k(&query_point, k)
            })
        })
        .collect();
    let n = channels[0].len();
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
        let channels = channels(corpus);
        assert_eq!(channels.len(), Viewpoint::ALL.len());
        let results = retrieve(&channels, &rose_yellow[..3], 10);
        // Most of the top-10 share the seed subconcept.
        let hits = results
            .iter()
            .filter(|&&id| corpus.is_relevant(id, &query))
            .count();
        assert!(hits >= 5, "only {hits}/10 relevant");
    }
}
