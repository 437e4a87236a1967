//! Distance measures used by retrieval, clustering, and the RFS structure.
//!
//! The paper scores images by Euclidean distance to a (multipoint) query
//! centroid (§3.4). The baselines need more: MindReader-style query point
//! movement re-weights dimensions by feedback variance, and Qcluster evaluates
//! disjunctive per-cluster contours. [`Metric`] covers all of these behind one
//! enum so query processors can be generic over the measure without dynamic
//! dispatch in the hot loop.

/// A distance measure over equal-length `f32` vectors.
///
/// ```
/// use qd_linalg::Metric;
///
/// let d = Metric::Euclidean.distance(&[0.0, 0.0], &[3.0, 4.0]);
/// assert!((d - 5.0).abs() < 1e-6);
///
/// // Weighted: zero out the first dimension entirely.
/// let w = Metric::WeightedEuclidean(vec![0.0, 1.0]);
/// assert_eq!(w.distance(&[100.0, 2.0], &[0.0, 2.0]), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Standard Euclidean (L2) distance.
    Euclidean,
    /// Squared Euclidean distance. Monotone with [`Metric::Euclidean`]; cheaper
    /// when only the ranking matters (k-means, nearest-centroid assignment).
    SquaredEuclidean,
    /// Manhattan (L1) distance.
    Manhattan,
    /// Chebyshev (L∞) distance.
    Chebyshev,
    /// Cosine distance `1 - cos(a, b)`; zero vectors are at distance 1 from
    /// everything except other zero vectors.
    Cosine,
    /// Per-dimension weighted Euclidean distance
    /// `sqrt(Σ w_j (a_j - b_j)^2)`, the form used by MindReader-style
    /// relevance feedback. Weights must be non-negative.
    WeightedEuclidean(Vec<f32>),
}

impl Metric {
    /// Distance between `a` and `b`.
    ///
    /// # Panics
    /// Panics if the slices differ in length, or (for
    /// [`Metric::WeightedEuclidean`]) if the weight vector length does not
    /// match the data.
    pub fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "vector length mismatch");
        match self {
            Metric::Euclidean => sq_l2(a, b).sqrt(),
            Metric::SquaredEuclidean => sq_l2(a, b),
            Metric::Manhattan => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs() as f64)
                // CAST: f64-accumulated distance narrowed back to the f32
                // feature domain; the widening was only to stabilize the sum.
                .sum::<f64>() as f32,
            Metric::Chebyshev => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max),
            Metric::Cosine => {
                let (mut dot, mut na, mut nb) = (0.0f64, 0.0f64, 0.0f64);
                for (x, y) in a.iter().zip(b) {
                    dot += *x as f64 * *y as f64;
                    na += (*x as f64).powi(2);
                    nb += (*y as f64).powi(2);
                }
                if na == 0.0 && nb == 0.0 {
                    0.0
                } else if na == 0.0 || nb == 0.0 {
                    1.0
                } else {
                    // CAST: cosine distance lies in [0, 2]; f32 holds it.
                    (1.0 - dot / (na.sqrt() * nb.sqrt())).max(0.0) as f32
                }
            }
            Metric::WeightedEuclidean(w) => {
                assert_eq!(w.len(), a.len(), "weight length mismatch");
                a.iter()
                    .zip(b)
                    .zip(w)
                    .map(|((x, y), wj)| {
                        debug_assert!(*wj >= 0.0, "negative metric weight");
                        *wj as f64 * ((x - y) as f64).powi(2)
                    })
                    .sum::<f64>()
                    // CAST: f64-accumulated weighted distance narrowed back
                    // to the f32 feature domain.
                    .sqrt() as f32
            }
        }
    }

    /// MindReader-style weights: the reciprocal of the per-dimension variance
    /// of the relevant examples, so dimensions on which the user's relevant
    /// set agrees count more. Dimensions with (near-)zero variance receive the
    /// largest finite weight observed, capped at `max_weight`.
    pub fn mindreader_weights<V: AsRef<[f32]>>(relevant: &[V], max_weight: f32) -> Vec<f32> {
        assert!(!relevant.is_empty(), "no relevant examples");
        let dim = relevant[0].as_ref().len();
        let n = relevant.len() as f64;
        let mut mean = vec![0.0f64; dim];
        for v in relevant {
            for (m, x) in mean.iter_mut().zip(v.as_ref()) {
                *m += *x as f64;
            }
        }
        for m in mean.iter_mut() {
            *m /= n;
        }
        let mut var = vec![0.0f64; dim];
        for v in relevant {
            for ((s, x), m) in var.iter_mut().zip(v.as_ref()).zip(&mean) {
                *s += (*x as f64 - m).powi(2);
            }
        }
        var.iter()
            .map(|s| {
                let v = s / n;
                if v < 1e-12 {
                    max_weight
                } else {
                    // CAST: v ≥ 1e-12 bounds 1/v ≤ 1e12, inside f32 range;
                    // the min() clamp caps it at max_weight anyway.
                    ((1.0 / v) as f32).min(max_weight)
                }
            })
            .collect()
    }
}

#[inline]
fn sq_l2(a: &[f32], b: &[f32]) -> f32 {
    // CAST: f64-accumulated squared distance narrowed back to the f32
    // feature domain; the widening was only to stabilize the sum.
    sq_l2_f64(a, b) as f32
}

/// Squared Euclidean distance accumulated and returned in `f64`: each
/// coordinate difference is taken in `f32`, widened, squared, and added in
/// dimension order. This is the one summation order every distance in the
/// workspace uses; [`sq_l2_rows4`] produces the same bits four rows at a
/// time, [`sq_l2_tile`] eight.
#[inline]
pub fn sq_l2_f64(a: &[f32], b: &[f32]) -> f64 {
    let mut acc = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        let d = (x - y) as f64;
        acc += d * d;
    }
    acc
}

/// Dimensions between two early-abandon checks of [`sq_l2_rows4`] and
/// [`sq_l2_tile`]. Root-scope 37-d k-NN times the same at 4, 8 and 12 and
/// slower at 16.
const ABANDON_STRIDE: usize = 8;

/// Rows per tile of a dimension-major block: coordinate `j` of row `l` is
/// `tile[j * TILE + l]`, so one dimension of all eight rows is one
/// contiguous run that [`sq_l2_tile`] advances in eight lanes.
pub const TILE: usize = 8;

/// A kernel call [`with_best_isa`] compiles twice. `run` must be
/// `#[inline(always)]`, so that its body is compiled into each branch; a
/// closure would not do, its body being a function of its own that LLVM
/// need not inline, leaving both branches to call one baseline compile.
trait Kernel {
    type Output;
    fn run(self) -> Self::Output;
}

/// Runs `kernel` compiled for AVX2 when the CPU has it, and as the baseline
/// build otherwise — the workspace's one instruction-set choice. Both
/// compiles run the same source, and neither may fuse or reassociate an
/// f64 operation (Rust never contracts `a * b + c`, and AVX2 does not
/// enable FMA), so they produce the same bits; the kernels' tests run both.
#[inline(always)]
fn with_best_isa<K: Kernel>(kernel: K) -> K::Output {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        #[target_feature(enable = "avx2")]
        fn avx2<K: Kernel>(kernel: K) -> K::Output {
            kernel.run()
        }
        // SAFETY: `avx2` may execute AVX2 instructions, and the CPU has just
        // reported that it supports them.
        return unsafe { avx2(kernel) };
    }
    kernel.run()
}

/// [`sq_l2_f64`] from `q` to each of the [`TILE`] rows of a dimension-major
/// `tile` (coordinate `j` of row `l` at `tile[j * TILE + l]`). Each lane adds
/// its own terms in dimension order and is `to_bits`-equal to the row's
/// [`sq_l2_f64`]; a lane holding no row computes a value nobody reads.
///
/// `bound` is the same exact early abandon as [`sq_l2_rows4`]'s: once all
/// eight partial sums exceed it the tile stops, so every lane is either its
/// exact distance or a partial sum already beyond `bound`. Pass
/// `f64::INFINITY` for eight exact sums.
///
/// # Panics
/// Panics if `tile` holds fewer than `q.len() * TILE` values.
#[inline]
pub fn sq_l2_tile(tile: &[f32], q: &[f32], bound: f64) -> [f64; TILE] {
    with_best_isa(TileKernel { tile, q, bound })
}

/// The call behind [`sq_l2_tile`].
struct TileKernel<'a> {
    tile: &'a [f32],
    q: &'a [f32],
    bound: f64,
}

impl Kernel for TileKernel<'_> {
    type Output = [f64; TILE];

    #[inline(always)]
    fn run(self) -> [f64; TILE] {
        let (dims, _) = self.tile[..self.q.len() * TILE].as_chunks::<TILE>();
        let mut acc = [0.0f64; TILE];
        for (block, qs) in dims
            .chunks(ABANDON_STRIDE)
            .zip(self.q.chunks(ABANDON_STRIDE))
        {
            for (lanes, &qj) in block.iter().zip(qs) {
                for (sum, &x) in acc.iter_mut().zip(lanes) {
                    let d = (x - qj) as f64;
                    *sum += d * d;
                }
            }
            if acc.iter().all(|&partial| partial > self.bound) {
                break;
            }
        }
        acc
    }
}

/// [`sq_l2_f64`] from `q` to four rows at once. The four sums are
/// independent accumulators advanced together, so the CPU overlaps four
/// add chains where the single-row form waits on one; each lane still adds
/// its own terms in dimension order and is `to_bits`-equal to
/// `sq_l2_f64(rows[i], q)`. Callers with fewer than four rows left repeat
/// one and ignore the spare lanes.
///
/// `bound` allows an exact early abandon: a sum of non-negative terms never
/// decreases, so once all four partial sums exceed `bound` every full sum
/// does too, and the block stops there. Each lane is therefore either the
/// exact distance or — only when all four exceed `bound` — a partial sum
/// that already exceeds it; a caller that discards what lies beyond `bound`
/// cannot tell the difference. Pass `f64::INFINITY` for four exact sums.
///
/// # Panics
/// Panics if a row is shorter than `q`.
#[inline(always)]
pub fn sq_l2_rows4(rows: [&[f32]; 4], q: &[f32], bound: f64) -> [f64; 4] {
    let n = q.len();
    let [r0, r1, r2, r3] = rows.map(|r| &r[..n]);
    let mut acc = [0.0f64; 4];
    let mut j = 0;
    while j < n {
        let end = (j + ABANDON_STRIDE).min(n);
        while j < end {
            let d0 = (r0[j] - q[j]) as f64;
            let d1 = (r1[j] - q[j]) as f64;
            let d2 = (r2[j] - q[j]) as f64;
            let d3 = (r3[j] - q[j]) as f64;
            acc[0] += d0 * d0;
            acc[1] += d1 * d1;
            acc[2] += d2 * d2;
            acc[3] += d3 * d3;
            j += 1;
        }
        if acc.iter().all(|&partial| partial > bound) {
            break;
        }
    }
    acc
}

/// Calls `visit(i, sq_l2_f64(rows[i], q))` for every row in order: the
/// scan of [`sq_l2_each_within`] with no bound, as k-means scores points
/// against a centroid and centroids against a point.
pub fn sq_l2_each<V: AsRef<[f32]>>(rows: &[V], q: &[f32], mut visit: impl FnMut(usize, f64)) {
    sq_l2_each_within(rows, q, |i, d| {
        visit(i, d);
        f64::INFINITY
    });
}

/// The row scan, in blocks of four through [`sq_l2_rows4`], compiled for
/// AVX2 where the CPU has it. For a caller that keeps only what lies within
/// a bound which tightens as the scan goes (the row channel of the
/// baselines' bounded top-k): `visit(i, d2)` is called for every row in
/// order and returns the bound for the rows after it (`f64::INFINITY` keeps
/// every sum exact). Each block of four is scored against the bound the
/// last visit returned, so `d2` is the row's exact distance or a partial sum
/// already beyond that bound.
pub fn sq_l2_each_within<V: AsRef<[f32]>>(
    rows: &[V],
    q: &[f32],
    visit: impl FnMut(usize, f64) -> f64,
) {
    with_best_isa(WithinKernel { rows, q, visit });
}

/// The call behind [`sq_l2_each_within`].
struct WithinKernel<'a, V, F> {
    rows: &'a [V],
    q: &'a [f32],
    visit: F,
}

impl<V: AsRef<[f32]>, F: FnMut(usize, f64) -> f64> Kernel for WithinKernel<'_, V, F> {
    type Output = ();

    #[inline(always)]
    fn run(mut self) {
        let mut bound = f64::INFINITY;
        for (b, block) in self.rows.chunks(4).enumerate() {
            let last = block.len() - 1;
            let block_rows = std::array::from_fn(|i| block[i.min(last)].as_ref());
            let d2 = sq_l2_rows4(block_rows, self.q, bound);
            for (i, &d) in d2.iter().take(block.len()).enumerate() {
                bound = (self.visit)(4 * b + i, d);
            }
        }
    }
}

/// Convenience: Euclidean distance without constructing a [`Metric`].
#[inline]
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    sq_l2(a, b).sqrt()
}

/// Convenience: squared Euclidean distance without constructing a [`Metric`].
#[inline]
pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    sq_l2(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    const A: [f32; 3] = [1.0, 2.0, 3.0];
    const B: [f32; 3] = [4.0, 6.0, 3.0];

    #[test]
    fn euclidean_matches_hand_computation() {
        // sqrt(9 + 16 + 0) = 5
        assert!((Metric::Euclidean.distance(&A, &B) - 5.0).abs() < 1e-6);
        assert!((euclidean(&A, &B) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn squared_euclidean_is_square_of_euclidean() {
        assert!((Metric::SquaredEuclidean.distance(&A, &B) - 25.0).abs() < 1e-5);
        assert!((squared_euclidean(&A, &B) - 25.0).abs() < 1e-5);
    }

    /// The scalar definition the kernels must reproduce bit for bit.
    fn reference_sq_l2(a: &[f32], b: &[f32]) -> f64 {
        let mut sum = 0.0f64;
        for j in 0..a.len() {
            let d = (a[j] - b[j]) as f64;
            sum += d * d;
        }
        sum
    }

    /// Bit pattern of a sum, with every NaN folded to one: which operand's
    /// sign and payload survives `NaN + NaN` is the instruction selector's
    /// choice, in the scalar form as much as in the kernels.
    fn bits(d: f64) -> u64 {
        if d.is_nan() {
            f64::NAN.to_bits()
        } else {
            d.to_bits()
        }
    }

    /// Rows of `dim` random values with signed zeros, subnormals,
    /// infinities and NaNs mixed in when `specials` is set.
    fn kernel_rows(rng: &mut StdRng, n: usize, dim: usize, specials: bool) -> Vec<Vec<f32>> {
        const SPECIALS: [f32; 8] = [
            0.0,
            -0.0,
            1e-40,
            -1e-40,
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| {
                        if specials && rng.random_range(0..4usize) == 0 {
                            SPECIALS[rng.random_range(0..SPECIALS.len())]
                        } else {
                            rng.random_range(-100.0f32..100.0)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// `rows` (at most [`TILE`]) laid out as one dimension-major tile, the
    /// lanes past them holding `spare`'s rows.
    fn tile_of(rows: &[Vec<f32>], spare: &[Vec<f32>]) -> Vec<f32> {
        let lanes: Vec<&Vec<f32>> = rows.iter().chain(spare).take(TILE).collect();
        let dim = lanes[0].len();
        (0..dim * TILE).map(|i| lanes[i % TILE][i / TILE]).collect()
    }

    type TileFn = fn(&[f32], &[f32], f64) -> [f64; TILE];

    /// The tile kernel as it ships — the dispatched entry point, which runs
    /// the AVX2 compile on a CPU that has it — and its body compiled for the
    /// baseline ISA, called directly.
    const TILE_KERNELS: [(&str, TileFn); 2] = [
        ("sq_l2_tile", sq_l2_tile),
        ("TileKernel::run", |tile, q, bound| {
            TileKernel { tile, q, bound }.run()
        }),
    ];

    #[test]
    fn multi_row_kernels_are_bit_identical_to_the_scalar_sum() {
        let mut rng = StdRng::seed_from_u64(37);
        for dim in 1usize..=64 {
            for specials in [false, true] {
                for n in [1usize, 2, 3, 4, 5, 7, 8, 10, 13] {
                    let rows = kernel_rows(&mut rng, n, dim, specials);
                    let q = kernel_rows(&mut rng, 1, dim, specials).remove(0);
                    let want: Vec<u64> =
                        rows.iter().map(|r| bits(reference_sq_l2(r, &q))).collect();

                    let single: Vec<u64> = rows.iter().map(|r| bits(sq_l2_f64(r, &q))).collect();
                    assert_eq!(single, want, "sq_l2_f64 dim {dim} n {n}");

                    // Dispatched, and the body compiled for the baseline ISA.
                    let mut each = vec![u64::MAX; n];
                    sq_l2_each(&rows, &q, |i, d| each[i] = bits(d));
                    assert_eq!(each, want, "sq_l2_each dim {dim} n {n}");
                    let mut within = vec![u64::MAX; n];
                    sq_l2_each_within(&rows, &q, |i, d| {
                        within[i] = bits(d);
                        f64::INFINITY
                    });
                    assert_eq!(within, want, "sq_l2_each_within dim {dim} n {n}");
                    let mut plain = vec![u64::MAX; n];
                    let visit = |i, d| {
                        plain[i] = bits(d);
                        f64::INFINITY
                    };
                    WithinKernel {
                        rows: &rows,
                        q: &q,
                        visit,
                    }
                    .run();
                    assert_eq!(plain, want, "WithinKernel::run dim {dim} n {n}");

                    // Every lane, with the rows rotated through all four.
                    for shift in 0..4 {
                        let pick = |i: usize| rows[(i + shift) % n].as_slice();
                        let lanes = sq_l2_rows4(std::array::from_fn(pick), &q, f64::INFINITY);
                        for (i, lane) in lanes.iter().enumerate() {
                            assert_eq!(
                                bits(*lane),
                                want[(i + shift) % n],
                                "sq_l2_rows4 dim {dim} n {n} lane {i}"
                            );
                        }
                    }

                    // Eight rows a tile, a short last tile's spare lanes
                    // filled with other values that must not leak.
                    for (t, chunk) in rows.chunks(TILE).enumerate() {
                        let spare = kernel_rows(&mut rng, TILE, dim, specials);
                        let tile = tile_of(chunk, &spare);
                        for (name, kernel) in TILE_KERNELS {
                            let lanes = kernel(&tile, &q, f64::INFINITY);
                            for (l, lane) in lanes.iter().take(chunk.len()).enumerate() {
                                assert_eq!(
                                    bits(*lane),
                                    want[t * TILE + l],
                                    "{name} dim {dim} n {n} lane {l}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn early_abandon_only_touches_blocks_wholly_beyond_the_bound() {
        let mut rng = StdRng::seed_from_u64(39);
        let mut abandoned = [0usize; 3];
        let mut finished = [0usize; 3];
        for dim in [5usize, 8, 9, 16, 17, 36, 37, 38, 64] {
            for _ in 0..200 {
                let rows = kernel_rows(&mut rng, TILE, dim, false);
                let q = kernel_rows(&mut rng, 1, dim, false).remove(0);
                let exact: Vec<f64> = rows.iter().map(|r| reference_sq_l2(r, &q)).collect();
                let tile = tile_of(&rows, &[]);
                // Rows 0..4 through the four-row kernel, all eight through
                // both compiles of the tile kernel.
                for kernel in 0..3 {
                    let width = if kernel == 0 { 4 } else { TILE };
                    let exact = &exact[..width];
                    // A bound in and around the block's own range of distances.
                    let bound = exact[rng.random_range(0..width)] * rng.random_range(0.2f64..1.2);
                    let lanes = match kernel {
                        0 => {
                            let rows = std::array::from_fn(|i| rows[i].as_slice());
                            sq_l2_rows4(rows, &q, bound).to_vec()
                        }
                        k => TILE_KERNELS[k - 1].1(&tile, &q, bound).to_vec(),
                    };
                    if exact.iter().any(|&d| d <= bound) {
                        // A row within the bound: nothing may be cut short.
                        for (lane, want) in lanes.iter().zip(exact) {
                            assert_eq!(lane.to_bits(), want.to_bits(), "kernel {kernel}");
                        }
                        finished[kernel] += 1;
                    } else {
                        // Cut short or not, every lane still reads "beyond
                        // the bound" and never overshoots the true distance.
                        for (lane, want) in lanes.iter().zip(exact) {
                            assert!(*lane > bound && lane <= want, "kernel {kernel}");
                        }
                        abandoned[kernel] +=
                            usize::from(lanes.iter().zip(exact).any(|(l, w)| l < w));
                    }
                }
            }
        }
        for kernel in 0..3 {
            assert!(
                abandoned[kernel] > 100 && finished[kernel] > 100,
                "kernel {kernel}: {} / {}",
                abandoned[kernel],
                finished[kernel]
            );
        }
    }

    #[test]
    fn the_within_scan_abandons_only_past_the_bound_in_force() {
        let mut rng = StdRng::seed_from_u64(40);
        let (mut abandoned, mut exact) = (0usize, 0usize);
        for dim in [5usize, 9, 37, 64] {
            for n in [1usize, 4, 7, 13, 40] {
                let rows = kernel_rows(&mut rng, n, dim, false);
                let q = kernel_rows(&mut rng, 1, dim, false).remove(0);
                let want: Vec<f64> = rows.iter().map(|r| reference_sq_l2(r, &q)).collect();
                // A bound that tightens as the scan goes, the way a running
                // k-th best does: the smallest exact sum seen so far, scaled.
                let scale = rng.random_range(0.8f64..1.5);
                let (mut seen, mut handed) = (Vec::new(), vec![f64::INFINITY]);
                let mut smallest = f64::INFINITY;
                sq_l2_each_within(&rows, &q, |i, d| {
                    seen.push((i, d));
                    smallest = smallest.min(want[i]);
                    handed.push(smallest * scale);
                    smallest * scale
                });
                assert_eq!(
                    seen.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
                    (0..n).collect::<Vec<_>>()
                );
                for (i, d) in seen {
                    // The block starts from what the visit before it returned.
                    let bound = handed[i - i % 4];
                    if d.to_bits() == want[i].to_bits() {
                        exact += 1;
                    } else {
                        assert!(d > bound && d < want[i], "dim {dim} n {n} row {i}");
                        abandoned += 1;
                    }
                }
            }
        }
        assert!(abandoned > 10 && exact > 10, "{abandoned} / {exact}");
    }

    #[test]
    fn f32_distances_are_the_narrowed_f64_sum() {
        let mut rng = StdRng::seed_from_u64(38);
        let rows = kernel_rows(&mut rng, 2, 37, false);
        let d2 = reference_sq_l2(&rows[0], &rows[1]);
        assert_eq!(
            squared_euclidean(&rows[0], &rows[1]).to_bits(),
            (d2 as f32).to_bits()
        );
        assert_eq!(
            euclidean(&rows[0], &rows[1]).to_bits(),
            (d2 as f32).sqrt().to_bits()
        );
    }

    #[test]
    fn manhattan_matches_hand_computation() {
        assert_eq!(Metric::Manhattan.distance(&A, &B), 7.0);
    }

    #[test]
    fn chebyshev_matches_hand_computation() {
        assert_eq!(Metric::Chebyshev.distance(&A, &B), 4.0);
    }

    #[test]
    fn cosine_of_parallel_vectors_is_zero() {
        let d = Metric::Cosine.distance(&[1.0, 2.0], &[2.0, 4.0]);
        assert!(d.abs() < 1e-6);
    }

    #[test]
    fn cosine_of_orthogonal_vectors_is_one() {
        let d = Metric::Cosine.distance(&[1.0, 0.0], &[0.0, 1.0]);
        assert!((d - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_handles_zero_vectors() {
        assert_eq!(Metric::Cosine.distance(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
        assert_eq!(Metric::Cosine.distance(&[0.0, 0.0], &[1.0, 0.0]), 1.0);
    }

    #[test]
    fn weighted_euclidean_with_unit_weights_is_euclidean() {
        let w = Metric::WeightedEuclidean(vec![1.0; 3]);
        assert!((w.distance(&A, &B) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn weighted_euclidean_ignores_zero_weight_dimensions() {
        let w = Metric::WeightedEuclidean(vec![0.0, 0.0, 1.0]);
        assert_eq!(w.distance(&[9.0, 9.0, 1.0], &[0.0, 0.0, 1.0]), 0.0);
    }

    #[test]
    fn all_metrics_are_symmetric_and_zero_on_identity() {
        let metrics = [
            Metric::Euclidean,
            Metric::SquaredEuclidean,
            Metric::Manhattan,
            Metric::Chebyshev,
            Metric::Cosine,
            Metric::WeightedEuclidean(vec![0.5, 2.0, 1.0]),
        ];
        for m in metrics {
            assert!(
                (m.distance(&A, &B) - m.distance(&B, &A)).abs() < 1e-6,
                "{m:?}"
            );
            assert!(m.distance(&A, &A).abs() < 1e-6, "{m:?}");
        }
    }

    #[test]
    fn mindreader_weights_emphasize_agreeing_dimensions() {
        // Dimension 0 is constant among relevant examples, dimension 1 varies.
        let relevant = vec![vec![5.0, 0.0], vec![5.0, 10.0], vec![5.0, -10.0]];
        let w = Metric::mindreader_weights(&relevant, 1e6);
        assert!(w[0] > w[1]);
        assert_eq!(w[0], 1e6); // zero variance saturates at the cap
    }

    #[test]
    fn mindreader_weights_are_capped() {
        let relevant = vec![vec![1.0], vec![1.0 + 1e-9]];
        let w = Metric::mindreader_weights(&relevant, 100.0);
        assert!(w[0] <= 100.0);
    }
}
