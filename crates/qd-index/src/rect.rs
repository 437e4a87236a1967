//! Axis-aligned minimum bounding rectangles in D dimensions.

/// An axis-aligned bounding box in `dim()` dimensions.
///
/// Degenerate boxes (`min == max`) represent points. Extent products are
/// accumulated in `f64`: with 37 dimensions the volume of a normalized
/// feature-space rectangle under- or overflows `f32` easily.
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    min: Vec<f32>,
    max: Vec<f32>,
}

impl Rect {
    /// Creates a rectangle from corner vectors.
    ///
    /// # Panics
    /// Panics if lengths differ, are zero, or any `min > max`.
    pub fn new(min: Vec<f32>, max: Vec<f32>) -> Self {
        assert_eq!(min.len(), max.len(), "corner length mismatch");
        assert!(!min.is_empty(), "zero-dimensional rectangle");
        for (lo, hi) in min.iter().zip(&max) {
            assert!(lo <= hi, "inverted rectangle: {lo} > {hi}");
        }
        Self { min, max }
    }

    /// A degenerate rectangle containing exactly `point`.
    pub fn point(point: &[f32]) -> Self {
        Self::new(point.to_vec(), point.to_vec())
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.min.len()
    }

    /// Lower corner.
    #[inline]
    pub fn min(&self) -> &[f32] {
        &self.min
    }

    /// Upper corner.
    #[inline]
    pub fn max(&self) -> &[f32] {
        &self.max
    }

    /// Geometric center.
    pub fn center(&self) -> Vec<f32> {
        self.min
            .iter()
            .zip(&self.max)
            .map(|(lo, hi)| (lo + hi) / 2.0)
            .collect()
    }

    /// Volume (product of extents).
    pub fn area(&self) -> f64 {
        self.min
            .iter()
            .zip(&self.max)
            .map(|(lo, hi)| (hi - lo) as f64)
            .product()
    }

    /// Margin (sum of extents) — the R\* split quality measure.
    pub fn margin(&self) -> f64 {
        self.min
            .iter()
            .zip(&self.max)
            .map(|(lo, hi)| (hi - lo) as f64)
            .sum()
    }

    /// Length of the main diagonal — the scale used by the paper's boundary
    /// ratio test (§3.3).
    pub fn diagonal(&self) -> f32 {
        self.min
            .iter()
            .zip(&self.max)
            .map(|(lo, hi)| ((hi - lo) as f64).powi(2))
            .sum::<f64>()
            // CAST: f64-accumulated diagonal narrowed back to the f32
            // geometry domain; a heuristic quantity, rounding is harmless.
            .sqrt() as f32
    }

    /// Smallest rectangle containing both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        debug_assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        Rect {
            min: self
                .min
                .iter()
                .zip(&other.min)
                .map(|(a, b)| a.min(*b))
                .collect(),
            max: self
                .max
                .iter()
                .zip(&other.max)
                .map(|(a, b)| a.max(*b))
                .collect(),
        }
    }

    /// Grows `self` in place to cover `other`.
    pub fn enlarge(&mut self, other: &Rect) {
        debug_assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        for (a, b) in self.min.iter_mut().zip(&other.min) {
            *a = a.min(*b);
        }
        for (a, b) in self.max.iter_mut().zip(&other.max) {
            *a = a.max(*b);
        }
    }

    /// Grows `self` in place to cover `point`.
    pub fn enlarge_point(&mut self, point: &[f32]) {
        debug_assert_eq!(self.dim(), point.len(), "dimension mismatch");
        for ((lo, hi), p) in self.min.iter_mut().zip(&mut self.max).zip(point) {
            *lo = lo.min(*p);
            *hi = hi.max(*p);
        }
    }

    /// Increase in area needed to cover `other`: `union(other).area() -
    /// area()` to the bit (the same extents multiplied in the same dimension
    /// order) without materialising the union.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        // Two independent product chains in one pass, each in `area`'s order.
        let (mut union_area, mut area) = (1.0f64, 1.0f64);
        for ((alo, ahi), (blo, bhi)) in self
            .min
            .iter()
            .zip(&self.max)
            .zip(other.min.iter().zip(&other.max))
        {
            union_area *= (ahi.max(*bhi) - alo.min(*blo)) as f64;
            area *= (ahi - alo) as f64;
        }
        union_area - area
    }

    /// [`Rect::enlargement`] and [`Rect::area`] of four rectangles at once,
    /// by the same `other`: `(enlargements, areas)`, every lane to the bit.
    /// One rectangle's two products are chains of 37 dependent
    /// multiplications in 37-d; four rectangles give the CPU eight
    /// independent chains to overlap. Each lane still multiplies its own
    /// extents in dimension order from `1.0`, with the same `f32::max`/`min`.
    /// Plain selects would be cheaper, but unlike in [`Rect::overlap`] a
    /// zero's sign can reach the result here: where both boxes are
    /// degenerate at zeros of opposite sign, the union's extent is `+0.0` or
    /// `−0.0` by which zero each bound returns, that sign can carry through
    /// the products to a zero enlargement, and `total_cmp` orders the two.
    /// Callers with fewer than four rectangles repeat one and ignore the
    /// spare lanes.
    ///
    /// # Panics
    /// Panics if a rectangle has fewer dimensions than `other`.
    #[inline]
    pub fn enlargements4(rects: [&Rect; 4], other: &Rect) -> ([f64; 4], [f64; 4]) {
        let n = other.dim();
        let (blo, bhi) = (&other.min[..n], &other.max[..n]);
        let lo = rects.map(|r| &r.min[..n]);
        let hi = rects.map(|r| &r.max[..n]);
        let mut union_area = [1.0f64; 4];
        let mut area = [1.0f64; 4];
        for d in 0..n {
            for j in 0..4 {
                union_area[j] *= (hi[j][d].max(bhi[d]) - lo[j][d].min(blo[d])) as f64;
                area[j] *= (hi[j][d] - lo[j][d]) as f64;
            }
        }
        (std::array::from_fn(|j| union_area[j] - area[j]), area)
    }

    /// Growth of the overlap with `other` when `self` is enlarged to cover
    /// `entry`: `self.union(entry).overlap(other) - self.overlap(other)` to
    /// the bit, in one pass and without materialising the union. The union's
    /// corners are plain selects too, by [`Rect::overlap`]'s argument: a
    /// zero's sign can reach an extent only when that extent is zero, and a
    /// zero extent is the exit. The plain intersection lies inside the
    /// enlarged one, so when the enlarged one is empty the term is
    /// `0.0 − 0.0`; when only the plain one is, its product is flagged `0.0`
    /// and the factors it goes on multiplying are discarded. Both products
    /// advance on every axis, with nothing between them, so the compiler can
    /// pair them into one two-lane multiplication.
    ///
    /// # Panics
    /// Panics if `entry` or `other` has fewer dimensions than `self`.
    pub fn overlap_growth(&self, entry: &Rect, other: &Rect) -> f64 {
        let n = self.dim();
        let (alo, ahi) = (&self.min[..n], &self.max[..n]);
        let (elo, ehi) = (&entry.min[..n], &entry.max[..n]);
        let (slo, shi) = (&other.min[..n], &other.max[..n]);
        let (mut grown, mut plain) = (1.0f64, 1.0f64);
        let mut plain_empty = false;
        for d in 0..n {
            let ulo = if alo[d] < elo[d] { alo[d] } else { elo[d] };
            let uhi = if ahi[d] > ehi[d] { ahi[d] } else { ehi[d] };
            let glo = if ulo > slo[d] { ulo } else { slo[d] };
            let ghi = if uhi < shi[d] { uhi } else { shi[d] };
            let plo = if alo[d] > slo[d] { alo[d] } else { slo[d] };
            let phi = if ahi[d] < shi[d] { ahi[d] } else { shi[d] };
            if glo >= ghi {
                return 0.0;
            }
            plain_empty |= plo >= phi;
            grown *= (ghi - glo) as f64;
            plain *= (phi - plo) as f64;
        }
        grown - if plain_empty { 0.0 } else { plain }
    }

    /// True if the rectangles share any point (boundary contact counts).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min
            .iter()
            .zip(&self.max)
            .zip(other.min.iter().zip(&other.max))
            .all(|((alo, ahi), (blo, bhi))| alo <= bhi && blo <= ahi)
    }

    /// Volume of the intersection; 0 when disjoint.
    pub fn overlap(&self, other: &Rect) -> f64 {
        let mut v = 1.0f64;
        for ((alo, ahi), (blo, bhi)) in self
            .min
            .iter()
            .zip(&self.max)
            .zip(other.min.iter().zip(&other.max))
        {
            // Plain selects, not `f32::max`/`min`: corners are never NaN, so
            // the NaN handling those carry (most of this loop's cost inside
            // ChooseSubtree) buys nothing. The two can disagree only on
            // which of two opposite-signed zeros they return, and a zero's
            // sign can reach `hi - lo` only when that is zero too — the case
            // the exit below takes.
            let lo = if alo > blo { *alo } else { *blo };
            let hi = if ahi < bhi { *ahi } else { *bhi };
            if lo >= hi {
                return 0.0;
            }
            v *= (hi - lo) as f64;
        }
        v
    }

    /// True if `point` lies inside (boundary inclusive).
    pub fn contains_point(&self, point: &[f32]) -> bool {
        debug_assert_eq!(self.dim(), point.len(), "dimension mismatch");
        self.min
            .iter()
            .zip(&self.max)
            .zip(point)
            .all(|((lo, hi), p)| lo <= p && p <= hi)
    }

    /// True if `other` lies entirely inside `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.min
            .iter()
            .zip(&self.max)
            .zip(other.min.iter().zip(&other.max))
            .all(|((alo, ahi), (blo, bhi))| alo <= blo && bhi <= ahi)
    }

    /// Squared Euclidean distance from `point` to the nearest point of the
    /// rectangle (0 when inside) — the MINDIST bound of branch-and-bound
    /// k-NN search.
    ///
    /// Branch-free, and bit for bit the three-way `p < lo` / `p > hi` / else
    /// form: `lo ≤ hi`, so at most one of the two differences is positive
    /// and it is that branch's value; neither positive gives `0.0` (as a
    /// `-0.0` at most, which squares to `0.0`); a NaN coordinate gives `0.0`
    /// both ways, `f32::max` returning its other operand. The search loop
    /// scores children through [`Rect::min_dist2_each`], which must agree
    /// with this to the bit.
    pub fn min_dist2(&self, point: &[f32]) -> f64 {
        debug_assert_eq!(self.dim(), point.len(), "dimension mismatch");
        self.min
            .iter()
            .zip(&self.max)
            .zip(point)
            .map(|((lo, hi), p)| {
                let d = (lo - p).max(p - hi).max(0.0);
                (d as f64).powi(2)
            })
            .sum()
    }

    /// [`Rect::min_dist2`] of every rectangle `items` yields, handed to
    /// `each` with its tag in the order they come: eight rectangles at a
    /// time, one add chain each. One 37-d MINDIST is a chain of 37 dependent
    /// adds; eight are independent chains, which the compiler advances as
    /// vector lanes. Each value is `to_bits`-equal to `min_dist2`: see
    /// [`Rect::min_dist2_8`]. A last batch of fewer than eight repeats its
    /// first rectangle in the spare lanes and ignores them.
    ///
    /// # Panics
    /// Panics if a rectangle has fewer dimensions than `point`.
    #[inline]
    pub(crate) fn min_dist2_each<'a, T: Copy>(
        items: impl IntoIterator<Item = (T, &'a Rect)>,
        point: &[f32],
        mut each: impl FnMut(T, f64),
    ) {
        let mut items = items.into_iter();
        while let Some(first) = items.next() {
            let mut batch = [first; 8];
            let mut len = 1;
            for slot in &mut batch[1..] {
                let Some(item) = items.next() else { break };
                *slot = item;
                len += 1;
            }
            let d2 = Self::min_dist2_8(batch.map(|(_, r)| r), point);
            for (&(tag, _), d2) in batch[..len].iter().zip(d2) {
                each(tag, d2);
            }
        }
    }

    /// [`Rect::min_dist2`] of eight rectangles, one add chain per lane: each
    /// lane squares its terms and adds them in dimension order from `0.0`.
    /// No term is `−0.0` or NaN, so `sum()`'s starting zero is immaterial.
    ///
    /// The terms use plain selects where `min_dist2` uses `f32::max`. Both
    /// forms give the same square, because they can differ only in a zero's
    /// sign or where a difference is NaN. A NaN difference needs a NaN
    /// coordinate, which makes both differences NaN and both forms `0.0`,
    /// or an infinite coordinate on an equal infinite corner. There the
    /// other difference is `−∞` or NaN, and both forms give `0.0` again.
    /// Unlike `f32::max`, the selects compile to single vector instructions.
    /// The slices are cut to `point.len()` first so that the compiler can
    /// drop the bounds checks and run the eight lanes as vectors.
    #[inline]
    fn min_dist2_8(rects: [&Rect; 8], point: &[f32]) -> [f64; 8] {
        let n = point.len();
        let lo: [&[f32]; 8] = std::array::from_fn(|j| &rects[j].min[..n]);
        let hi: [&[f32]; 8] = std::array::from_fn(|j| &rects[j].max[..n]);
        let mut acc = [0.0f64; 8];
        for (d, &p) in point.iter().enumerate() {
            for j in 0..8 {
                let (below, above) = (lo[j][d] - p, p - hi[j][d]);
                let x = if below > above { below } else { above };
                let x = if x > 0.0 { x } else { 0.0 };
                acc[j] += (x as f64).powi(2);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn r(min: &[f32], max: &[f32]) -> Rect {
        Rect::new(min.to_vec(), max.to_vec())
    }

    #[test]
    fn point_rect_has_zero_extent() {
        let p = Rect::point(&[1.0, 2.0, 3.0]);
        assert_eq!(p.area(), 0.0);
        assert_eq!(p.margin(), 0.0);
        assert_eq!(p.diagonal(), 0.0);
        assert!(p.contains_point(&[1.0, 2.0, 3.0]));
        assert!(!p.contains_point(&[1.0, 2.0, 3.1]));
    }

    #[test]
    fn area_and_margin_match_hand_computation() {
        let b = r(&[0.0, 0.0], &[2.0, 3.0]);
        assert_eq!(b.area(), 6.0);
        assert_eq!(b.margin(), 5.0);
        assert!((b.diagonal() - 13.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn union_covers_both() {
        let a = r(&[0.0, 0.0], &[1.0, 1.0]);
        let b = r(&[2.0, -1.0], &[3.0, 0.5]);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u, r(&[0.0, -1.0], &[3.0, 1.0]));
    }

    #[test]
    fn enlarge_matches_union() {
        let mut a = r(&[0.0, 0.0], &[1.0, 1.0]);
        let b = r(&[-1.0, 0.5], &[0.5, 2.0]);
        let u = a.union(&b);
        a.enlarge(&b);
        assert_eq!(a, u);
    }

    #[test]
    fn enlargement_is_zero_for_contained_rect() {
        let a = r(&[0.0, 0.0], &[4.0, 4.0]);
        let b = r(&[1.0, 1.0], &[2.0, 2.0]);
        assert_eq!(a.enlargement(&b), 0.0);
        assert!(b.enlargement(&a) > 0.0);
    }

    #[test]
    fn intersection_cases() {
        let a = r(&[0.0, 0.0], &[2.0, 2.0]);
        assert!(a.intersects(&r(&[1.0, 1.0], &[3.0, 3.0])));
        assert!(a.intersects(&r(&[2.0, 0.0], &[3.0, 1.0]))); // touching
        assert!(!a.intersects(&r(&[2.1, 0.0], &[3.0, 1.0])));
    }

    #[test]
    fn overlap_volume() {
        let a = r(&[0.0, 0.0], &[2.0, 2.0]);
        let b = r(&[1.0, 1.0], &[3.0, 3.0]);
        assert_eq!(a.overlap(&b), 1.0);
        assert_eq!(b.overlap(&a), 1.0);
        assert_eq!(a.overlap(&r(&[5.0, 5.0], &[6.0, 6.0])), 0.0);
        // Touching rectangles have zero overlap volume.
        assert_eq!(a.overlap(&r(&[2.0, 0.0], &[3.0, 2.0])), 0.0);
    }

    #[test]
    fn overlap_and_enlargement_match_their_naive_formulations_bit_for_bit() {
        // `overlap` with `f32::max`/`min`, as it was written before the
        // construction fast path; the four-lane enlargement and the one-pass
        // overlap growth against the same materialised forms.
        fn naive_overlap(a: &Rect, b: &Rect) -> f64 {
            let mut v = 1.0f64;
            for d in 0..a.dim() {
                let lo = a.min[d].max(b.min[d]);
                let hi = a.max[d].min(b.max[d]);
                if lo >= hi {
                    return 0.0;
                }
                v *= (hi - lo) as f64;
            }
            v
        }
        // Corners from a small set that includes both zeros, so boxes touch,
        // nest, degenerate and meet at a signed zero all the time.
        let values = [-2.5f32, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0];
        let mut rng = StdRng::seed_from_u64(0x2E20);
        let mut pick = || values[rng.random_range(0..values.len())];
        let mut rect = |dims: usize| {
            let (min, max) = (0..dims)
                .map(|_| {
                    let (a, b) = (pick(), pick());
                    if a <= b {
                        (a, b)
                    } else {
                        (b, a)
                    }
                })
                .unzip();
            Rect::new(min, max)
        };
        for dims in [1usize, 2, 5, 37] {
            for _ in 0..2000 {
                let (a, b, c) = (rect(dims), rect(dims), rect(dims));
                assert_eq!(a.overlap(&b).to_bits(), naive_overlap(&a, &b).to_bits());
                let enlargement = a.union(&b).area() - a.area();
                assert_eq!(a.enlargement(&b).to_bits(), enlargement.to_bits());
                let (enlargements, areas) = Rect::enlargements4([&c, &a, &c, &a], &b);
                assert_eq!(enlargements[1].to_bits(), enlargement.to_bits());
                assert_eq!(areas[1].to_bits(), a.area().to_bits());
                let growth = naive_overlap(&a.union(&b), &c) - naive_overlap(&a, &c);
                assert_eq!(a.overlap_growth(&b, &c).to_bits(), growth.to_bits());
            }
        }
    }

    #[test]
    fn min_dist2_is_zero_inside_and_positive_outside() {
        let a = r(&[0.0, 0.0], &[2.0, 2.0]);
        assert_eq!(a.min_dist2(&[1.0, 1.0]), 0.0);
        assert_eq!(a.min_dist2(&[2.0, 2.0]), 0.0); // on the boundary
        assert_eq!(a.min_dist2(&[3.0, 2.0]), 1.0);
        assert_eq!(a.min_dist2(&[3.0, 3.0]), 2.0);
        assert_eq!(a.min_dist2(&[-1.0, 1.0]), 1.0);
    }

    // Corners from a small set with both zeros, subnormals, values an ulp
    // apart and ±∞, so boxes degenerate to points, faces and edges all the
    // time; query coordinates from the same set (inside, on a face, on a
    // corner) plus the box's own corners, far outside, ±∞ and NaN.
    const CORNERS: [f32; 14] = [
        f32::NEG_INFINITY,
        -2.5,
        -1.0,
        -f32::MIN_POSITIVE,
        -f32::from_bits(1),
        -0.0,
        0.0,
        f32::from_bits(1),
        f32::MIN_POSITIVE,
        0.5,
        1.0,
        1.0 + f32::EPSILON,
        3.0,
        f32::INFINITY,
    ];
    const SPECIALS: [f32; 9] = [
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::MAX,
        f32::MIN,
        1e-30,
        -7.25,
        0.75,
    ];

    /// A box with corners from [`CORNERS`]; a point box if `point`.
    fn edge_case_rect(rng: &mut StdRng, dims: usize, point: bool) -> Rect {
        let (min, max) = (0..dims)
            .map(|_| {
                let a = CORNERS[rng.random_range(0..CORNERS.len())];
                let b = if point {
                    a
                } else {
                    CORNERS[rng.random_range(0..CORNERS.len())]
                };
                if a <= b {
                    (a, b)
                } else {
                    (b, a)
                }
            })
            .unzip();
        Rect::new(min, max)
    }

    /// A query on, inside or outside `rect`, with [`SPECIALS`] among its
    /// coordinates.
    fn edge_case_query(rng: &mut StdRng, rect: &Rect) -> Vec<f32> {
        (0..rect.dim())
            .map(|d| match rng.random_range(0..6) {
                0 => rect.min[d],
                1 => rect.max[d],
                2 => (rect.min[d] + rect.max[d]) / 2.0,
                3 => SPECIALS[rng.random_range(0..SPECIALS.len())],
                _ => CORNERS[rng.random_range(0..CORNERS.len())],
            })
            .collect()
    }

    #[test]
    fn min_dist2_matches_the_branching_form_bit_for_bit() {
        // `min_dist2` as a per-dimension three-way branch, verbatim as it was
        // written before the branch-free form.
        fn branching_min_dist2(rect: &Rect, point: &[f32]) -> f64 {
            rect.min
                .iter()
                .zip(&rect.max)
                .zip(point)
                .map(|((lo, hi), p)| {
                    let d = if p < lo {
                        lo - p
                    } else if p > hi {
                        p - hi
                    } else {
                        0.0
                    };
                    (d as f64).powi(2)
                })
                .sum()
        }
        let mut rng = StdRng::seed_from_u64(0x31D1);
        let mut checked_outside = 0usize;
        for dims in [1usize, 2, 37] {
            for case in 0..4000 {
                let rect = edge_case_rect(&mut rng, dims, case % 4 == 0);
                let query = edge_case_query(&mut rng, &rect);
                let got = rect.min_dist2(&query);
                let want = branching_min_dist2(&rect, &query);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{rect:?} from {query:?}: {got} vs {want}"
                );
                assert!(!got.is_nan() && got.is_sign_positive());
                checked_outside += usize::from(got > 0.0);
            }
        }
        assert!(checked_outside > 3000, "only {checked_outside} outside");
        // The named cases, by hand: inside, face, corner, outside, ±0.
        let unit = r(&[0.0, -0.0], &[1.0, 1.0]);
        for (q, want) in [
            ([0.5f32, 0.5], 0.0f64),
            ([1.0, 0.5], 0.0),
            ([1.0, 1.0], 0.0),
            ([-0.0, 0.0], 0.0),
            ([3.0, -2.0], 8.0),
            ([f32::NAN, 2.0], 1.0),
            ([f32::NEG_INFINITY, 0.0], f64::INFINITY),
        ] {
            assert_eq!(unit.min_dist2(&q).to_bits(), want.to_bits(), "{q:?}");
            assert_eq!(
                branching_min_dist2(&unit, &q).to_bits(),
                want.to_bits(),
                "{q:?}"
            );
        }
    }

    #[test]
    fn min_dist2_each_matches_min_dist2_bit_for_bit() {
        // 1–17 children: one, two and three batches, full and partial, on
        // the same edge cases as the branching-form test; the query is
        // drawn against the first child, so it lies on, in or near some.
        let mut rng = StdRng::seed_from_u64(0x8C41);
        for dims in [1usize, 2, 37] {
            for children in 1..=17usize {
                for case in 0..60 {
                    let rects: Vec<Rect> = (0..children)
                        .map(|c| edge_case_rect(&mut rng, dims, (case + c) % 4 == 0))
                        .collect();
                    let query = edge_case_query(&mut rng, &rects[0]);
                    let mut got = Vec::new();
                    let tagged = rects.iter().enumerate();
                    Rect::min_dist2_each(tagged, &query, |c, d2| got.push((c, d2.to_bits())));
                    let want: Vec<_> = rects
                        .iter()
                        .map(|r| r.min_dist2(&query).to_bits())
                        .enumerate()
                        .collect();
                    assert_eq!(
                        got, want,
                        "d {dims}, {children} children: {rects:?} from {query:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn min_dist2_lower_bounds_distance_to_any_contained_point() {
        let a = r(&[0.0, -1.0], &[2.0, 1.0]);
        let q = [5.0, 5.0];
        let corner_d2 = (5.0f64 - 2.0).powi(2) + (5.0f64 - 1.0).powi(2);
        assert!(a.min_dist2(&q) <= corner_d2);
    }

    #[test]
    fn center_is_the_midpoint() {
        let a = r(&[0.0, 0.0], &[4.0, 2.0]);
        assert_eq!(a.center(), vec![2.0, 1.0]);
    }

    #[test]
    fn high_dimensional_area_does_not_underflow() {
        // 37 extents of 0.1 → 1e-37, below f32 normal range but fine in f64.
        let min = vec![0.0f32; 37];
        let max = vec![0.1f32; 37];
        let b = Rect::new(min, max);
        assert!(b.area() > 0.0);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_rect_panics() {
        r(&[1.0], &[0.0]);
    }
}
