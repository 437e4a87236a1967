//! Element-wise arithmetic over `f32` slices.
//!
//! Feature vectors are stored as plain `Vec<f32>` throughout the workspace;
//! these free functions keep call sites terse without introducing a wrapper
//! type that would have to be threaded through every crate.

/// Returns `a + b` as a new vector.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn add(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Returns `a - b` as a new vector.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Returns `s * a` as a new vector.
pub fn scale(a: &[f32], s: f32) -> Vec<f32> {
    a.iter().map(|x| x * s).collect()
}

/// Dot product of two equal-length vectors.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| *x as f64 * *y as f64)
        // CAST: f64-accumulated dot product narrowed back to the f32
        // feature domain; the widening was only to stabilize the sum.
        .sum::<f64>() as f32
}

/// Euclidean (L2) norm.
pub fn norm(a: &[f32]) -> f32 {
    // CAST: f64-accumulated norm narrowed back to the f32 feature domain.
    (a.iter().map(|x| (*x as f64).powi(2)).sum::<f64>()).sqrt() as f32
}

/// Returns a unit-length copy of `a`. Zero vectors are returned unchanged.
pub fn normalize(a: &[f32]) -> Vec<f32> {
    let n = norm(a);
    if n == 0.0 {
        a.to_vec()
    } else {
        scale(a, 1.0 / n)
    }
}

/// Component-wise mean of a non-empty set of equal-length vectors.
///
/// Accumulates in `f64` so centroids of large clusters stay accurate.
///
/// # Panics
/// Panics if `vectors` is empty or the rows differ in length.
pub fn centroid<V: AsRef<[f32]>>(vectors: &[V]) -> Vec<f32> {
    assert!(!vectors.is_empty(), "centroid of an empty set is undefined");
    let dim = vectors[0].as_ref().len();
    let mut acc = vec![0.0f64; dim];
    for v in vectors {
        let v = v.as_ref();
        assert_eq!(v.len(), dim, "vector length mismatch");
        for (a, x) in acc.iter_mut().zip(v) {
            *a += *x as f64;
        }
    }
    let inv = 1.0 / vectors.len() as f64;
    // CAST: f64-accumulated centroid narrowed back to the f32 feature domain.
    acc.into_iter().map(|a| (a * inv) as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = [1.0, 2.0, 3.0];
        let b = [0.5, -1.0, 4.0];
        assert_eq!(sub(&add(&a, &b), &b), a.to_vec());
    }

    #[test]
    fn scale_by_zero_gives_zero_vector() {
        assert_eq!(scale(&[1.0, -2.0, 3.5], 0.0), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn dot_matches_manual() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn norm_of_unit_axes() {
        assert_eq!(norm(&[0.0, 1.0, 0.0]), 1.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_produces_unit_norm() {
        let v = normalize(&[3.0, 4.0]);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_vector_is_identity() {
        assert_eq!(normalize(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn centroid_of_identical_points_is_that_point() {
        let pts = vec![vec![2.0, -1.0]; 7];
        assert_eq!(centroid(&pts), vec![2.0, -1.0]);
    }

    #[test]
    fn centroid_of_two_points_is_midpoint() {
        let pts = vec![vec![0.0, 0.0], vec![2.0, 4.0]];
        assert_eq!(centroid(&pts), vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        add(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn centroid_of_empty_panics() {
        centroid::<Vec<f32>>(&[]);
    }
}
