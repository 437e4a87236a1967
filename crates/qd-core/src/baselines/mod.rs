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
use qd_linalg::metric::{sq_l2_each_within, sq_l2_tile, TILE};
use qd_linalg::TileTable;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
/// (ascending score = more similar). Together with [`top_k_rows`] and
/// [`top_k_tiles`] it is the single counting point for
/// `baseline.distance_computations`: one candidate scoring per database
/// image per scan, whatever the technique.
pub(crate) fn top_k_by(n: usize, k: usize, mut score: impl FnMut(usize) -> f32) -> Vec<usize> {
    let mut best = TopK::new(k, n);
    for id in 0..n {
        best.offer(score(id), id);
    }
    best.into_ids()
}

/// The `k` rows nearest `query` by Euclidean distance, scored four at a
/// time against the running k-th bound.
pub(crate) fn top_k_rows(rows: &[Vec<f32>], query: &[f32], k: usize) -> Vec<usize> {
    let mut best = TopK::new(k, rows.len());
    if best.cap > 0 {
        sq_l2_each_within(rows, query, |id, d2| {
            best.offer_sq_l2(d2, id);
            best.bound
        });
    }
    best.into_ids()
}

/// [`top_k_rows`] over a tiled table, eight rows per kernel call.
pub(crate) fn top_k_tiles(table: &TileTable, query: &[f32], k: usize) -> Vec<usize> {
    let n = table.len();
    let mut best = TopK::new(k, n);
    if best.cap > 0 {
        for (t, tile) in table.tiles().enumerate() {
            let lanes = sq_l2_tile(tile, query, best.bound);
            for (lane, &d2) in lanes.iter().take(n - t * TILE).enumerate() {
                best.offer_sq_l2(d2, t * TILE + lane);
            }
        }
    }
    best.into_ids()
}

/// The exact top-`k` selector every baseline scan feeds: the `k.min(n)`
/// best `(score, id)` under `(score.total_cmp, id)`, held in a max-heap
/// whose top is the current k-th — the answer a sort of the whole database
/// gives, a tie at the k-th score going to the lower id.
struct TopK {
    cap: usize,
    heap: BinaryHeap<Scored>,
    /// Every squared distance above it scores beyond the k-th: the bound
    /// the distance kernels may abandon a block at. Infinite until the
    /// heap is full.
    bound: f64,
}

impl TopK {
    /// A selector for the `k` best of `n` images, charged as one scan.
    fn new(k: usize, n: usize) -> Self {
        qd_obs::count(qd_obs::ctr::BASELINE_DISTANCE, n as u64);
        let cap = k.min(n);
        Self {
            cap,
            heap: BinaryHeap::with_capacity(cap),
            bound: f64::INFINITY,
        }
    }

    /// Offers image `id` at squared distance `d2`, exact or — beyond the
    /// bound — a partial sum the kernel stopped at.
    #[inline]
    fn offer_sq_l2(&mut self, d2: f64, id: usize) {
        if d2 > self.bound {
            return;
        }
        // CAST: `qd_linalg::metric::euclidean`'s own narrowing — the f64
        // sum back to the f32 feature domain, then the root.
        if self.offer((d2 as f32).sqrt(), id) && self.heap.len() == self.cap {
            if let Some(kth) = self.heap.peek() {
                self.bound = sq_l2_bound(kth.0);
            }
        }
    }

    /// Offers image `id` at `score`; true if it entered the selection.
    fn offer(&mut self, score: f32, id: usize) -> bool {
        let entry = Scored(score, id);
        if self.heap.len() < self.cap {
            self.heap.push(entry);
            return true;
        }
        match self.heap.peek_mut() {
            Some(mut kth) if entry < *kth => {
                *kth = entry;
                true
            }
            _ => false,
        }
    }

    /// The selected ids, best first.
    fn into_ids(self) -> Vec<usize> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|Scored(_, id)| id)
            .collect()
    }
}

/// `(score, id)` ordered by `score.total_cmp`, then id.
#[derive(Debug, Clone, Copy)]
struct Scored(f32, usize);

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Scored {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Scored {}

/// The smallest `f64` above which every squared distance scores beyond
/// `kth`: with `x` the largest `f32` whose root is at most `kth`, any sum
/// past `next_up(x)` narrows to at least `next_up(x)`, whose root exceeds
/// `kth`. A sum at or below it is scored and compared exactly, so a score
/// equal to `kth` is never cut short, whatever its id. `kth` is a root, so
/// never negative; an infinite or NaN one, which every sum may tie or beat,
/// bounds nothing.
fn sq_l2_bound(kth: f32) -> f64 {
    if !kth.is_finite() {
        return f64::INFINITY;
    }
    let mut x = kth * kth;
    while x.sqrt() > kth {
        x = x.next_down();
    }
    while x.next_up().sqrt() <= kth {
        x = x.next_up();
    }
    f64::from(x.next_up())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use qd_linalg::metric::{euclidean, sq_l2_f64};
    use rand::RngExt;

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

    /// The full-buffer selection the heap replaced, kept as the oracle:
    /// score every image, select the `k`-th, sort the prefix.
    fn top_k(mut scored: Vec<(f32, usize)>, k: usize) -> Vec<usize> {
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

    /// Both layouts' scans and the generic one against the oracle, each
    /// charged exactly one candidate per image.
    fn assert_selects_like_the_full_sort(rows: &[Vec<f32>], query: &[f32], what: &str) {
        let n = rows.len();
        let tiles = TileTable::from_rows(query.len(), rows);
        let scored: Vec<(f32, usize)> = rows
            .iter()
            .map(|row| qd_linalg::metric::euclidean(row, query))
            .zip(0..)
            .collect();
        let mut ks = vec![0, 1, 7, 8, 9, n.saturating_sub(1), n, n + 3, usize::MAX];
        ks.extend(0..=n.min(40));
        for k in ks {
            let want = top_k(scored.clone(), k);
            let scans: [(&str, &dyn Fn() -> Vec<usize>); 3] = [
                ("rows", &|| top_k_rows(rows, query, k)),
                ("tiles", &|| top_k_tiles(&tiles, query, k)),
                ("by", &|| top_k_by(n, k, |id| scored[id].0)),
            ];
            for (layout, scan) in scans {
                let (got, trace) = qd_obs::with_recorder(scan);
                assert_eq!(got, want, "{what}: {layout} n {n} k {k}");
                assert_eq!(
                    trace.counters[qd_obs::ctr::BASELINE_DISTANCE],
                    n as u64,
                    "{what}: {layout} charged per image, early abandon or not"
                );
            }
        }
    }

    #[test]
    fn the_bounded_selector_matches_the_full_sort() {
        let mut rng = StdRng::seed_from_u64(48);
        let mut random_rows = |n: usize, dims: usize| -> Vec<Vec<f32>> {
            (0..n)
                .map(|_| (0..dims).map(|_| rng.random_range(-4.0f32..4.0)).collect())
                .collect()
        };
        // Row counts off the tile width, dims off the abandon stride.
        for dims in [5usize, 9, 37] {
            for n in [1usize, 2, 7, 9, 13, 30, 61] {
                let rows = random_rows(n, dims);
                let query = random_rows(1, dims).remove(0);
                assert_selects_like_the_full_sort(&rows, &query, "random");
                assert_selects_like_the_full_sort(&rows, &rows[n / 2], "query on a row");
            }
        }
        // Duplicate rows: exact score ties everywhere, the cut among them.
        let distinct = random_rows(4, 37);
        let rows: Vec<Vec<f32>> = (0..29).map(|i| distinct[(i * 7) % 3].clone()).collect();
        assert_selects_like_the_full_sort(&rows, &distinct[3], "duplicates");
        let centre = vec![0.0f32; 37];
        assert_selects_like_the_full_sort(&rows, &centre, "duplicates");
    }

    #[test]
    fn distinct_sums_that_narrow_to_one_score_tie_by_id() {
        // From the origin, `a` and `b` sum to 1 + 2^-26 and 1 + 2^-28:
        // distinct f64s that narrow to the same f32 and so score 1.0 both.
        // `c` scores one ulp below 1.0 and must displace whichever of them
        // holds the k-th place; nine nearer rows and six farther ones fill
        // the places around them.
        let dims = 9;
        let row = |x: f32, tail: f32| {
            let mut r = vec![0.0f32; dims];
            (r[0], r[dims - 1]) = (x, tail);
            r
        };
        let (a, b) = (row(1.0, 2f32.powi(-13)), row(1.0, 2f32.powi(-14)));
        let c = row(1.0 - 2f32.powi(-24), 0.0);
        let origin = vec![0.0f32; dims];
        assert_ne!(sq_l2_f64(&a, &origin), sq_l2_f64(&b, &origin));
        assert_eq!(euclidean(&a, &origin), 1.0);
        assert_eq!(euclidean(&b, &origin), 1.0);
        assert_eq!(euclidean(&c, &origin), 1.0f32.next_down());
        let mut rows: Vec<Vec<f32>> = vec![a, b, c];
        rows.extend((0..9).map(|i| row(0.25 + 0.05 * i as f32, 0.0)));
        rows.extend((0..6).map(|i| row(1.5 + i as f32, 0.0)));
        // Every order of arrival, so each of the tied pair is the k-th in
        // some of them, in the same tile as its rival or another.
        let mut rng = StdRng::seed_from_u64(49);
        for _ in 0..40 {
            rows.shuffle(&mut rng);
            assert_selects_like_the_full_sort(&rows, &origin, "tie at the cut");
        }
    }

    #[test]
    fn the_bound_is_the_first_sum_whose_score_exceeds_the_kth() {
        let mut rng = StdRng::seed_from_u64(50);
        let score = |d2: f64| (d2 as f32).sqrt();
        let kths = (0..2000).map(|_| rng.random_range(0.0f32..30.0));
        for kth in kths.chain([0.0, 1.0, 2.0, 0.5, f32::MIN_POSITIVE, 1e19]) {
            let bound = sq_l2_bound(kth);
            assert!(score(bound) > kth, "{kth}: {bound} scores {}", score(bound));
            // The f32 below it scores at most `kth`.
            let below = f64::from((bound as f32).next_down());
            assert!(
                score(below) <= kth,
                "{kth}: {below} scores {}",
                score(below)
            );
        }
        assert_eq!(sq_l2_bound(f32::INFINITY), f64::INFINITY);
        assert_eq!(sq_l2_bound(f32::NAN), f64::INFINITY);
        assert_eq!(sq_l2_bound(f32::MAX), f64::INFINITY);
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
