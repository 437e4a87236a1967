//! Order statistics shared by the runs and by `compare`.

/// A percentile in tenths of a percent (`990` = p99), so ranks are computed
/// in integers and `p99` of 1000 samples is rank 990 on every machine.
pub type Permille = usize;

/// The median as a [`Permille`].
pub const P50: Permille = 500;
/// p99 as a [`Permille`].
pub const P99: Permille = 990;

/// Nearest rank of percentile `p` in a sample of `n`: `ceil(p · n)`,
/// clamped to `1..=n`.
fn rank(p: Permille, n: usize) -> usize {
    (p * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted sample.
///
/// # Panics
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], p: Permille) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(p, sorted.len()) - 1]
}

/// The highest of p99.9 / p99 / p95 / p90 / p75 that still leaves at least
/// ten samples beyond its nearest rank — the tail a sample of `n` supports.
/// Falls back to the median for samples too small to have any tail.
pub fn tail_percentile(n: usize) -> Permille {
    [999, P99, 950, 900, 750]
        .into_iter()
        .find(|&p| n >= 10 && n - rank(p, n) >= 10)
        .unwrap_or(P50)
}

/// Sorts `values` ascending in place (total order: no NaN panics).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the "exclusive" method) — the rule the acceptance check
/// applies to ten runs of one workload. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        // `delta` may be negative at the clamped ends, exactly as in Python.
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 for a constant sample.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    Some(if q3 == q1 { 0.0 } else { (q3 - q1) / med.abs() })
}

/// p50 of an unsorted sample.
pub fn p50(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, P50)
}

/// Fits `y ≈ a·x1 + b·x2` (no intercept) over `(x1, x2, y)` rows with
/// positive `y`, minimising the *relative* error of each row, so a thousand
/// cheap calls weigh as much as a thousand expensive ones. Returns
/// `(a, b, residual)` where `residual` is the mean relative error; `None`
/// when the rows do not determine two coefficients.
pub fn fit_two(rows: &[(f64, f64, f64)]) -> Option<(f64, f64, f64)> {
    // Dividing a row by its `y` turns the problem into fitting the constant 1.
    let scaled: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r.2 > 0.0)
        .map(|&(x1, x2, y)| (x1 / y, x2 / y))
        .collect();
    let (mut s11, mut s12, mut s22, mut s1, mut s2) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(u, v) in &scaled {
        s11 += u * u;
        s12 += u * v;
        s22 += v * v;
        s1 += u;
        s2 += v;
    }
    let det = s11 * s22 - s12 * s12;
    if det.abs() <= 1e-12 * s11 * s22 {
        return None;
    }
    let a = (s1 * s22 - s2 * s12) / det;
    let b = (s2 * s11 - s1 * s12) / det;
    let error: f64 = scaled
        .iter()
        .map(|&(u, v)| (1.0 - a * u - b * v).abs())
        .sum();
    Some((a, b, error / scaled.len() as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, P50), 5.0);
        assert_eq!(percentile(&v, 900), 9.0);
        assert_eq!(percentile(&v, 901), 10.0);
        assert_eq!(percentile(&v, 1000), 10.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&[7.0], P99), 7.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), P99); // rank 990, 10 beyond
        assert_eq!(tail_percentile(999), 950); // p99 → rank 990, 9 beyond
        assert_eq!(tail_percentile(10_000), 999);
        assert_eq!(tail_percentile(200), 950);
        assert_eq!(tail_percentile(100), 900);
        assert_eq!(tail_percentile(40), 750);
        assert_eq!(tail_percentile(12), P50);
        assert_eq!(tail_percentile(0), P50);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(quartile_spread(&[4.0, 4.0, 4.0]), Some(0.0));
        assert_eq!(quartile_spread(&v), Some(1.0));
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn two_term_fit_recovers_exact_coefficients() {
        let rows: Vec<(f64, f64, f64)> = (1..20)
            .map(|i| {
                let (x1, x2) = (f64::from(i), f64::from(i * i % 7));
                (x1, x2, 3.0 * x1 + 11.0 * x2)
            })
            .collect();
        let (a, b, r) = fit_two(&rows).expect("non-singular");
        assert!((a - 3.0).abs() < 1e-9 && (b - 11.0).abs() < 1e-9 && r < 1e-9);
        assert_eq!(fit_two(&[(1.0, 2.0, 3.0), (2.0, 4.0, 6.0)]), None);
    }
}
