//! Principal Component Analysis via cyclic Jacobi eigendecomposition.
//!
//! Section 1.1 of the paper projects the 37-dimensional image database onto a
//! 3-dimensional orthogonal subspace with PCA to visualize the four distinct
//! "white sedan" clusters (Figure 1). The covariance matrices involved are at
//! most 37×37, so the classic Jacobi rotation method — simple, numerically
//! robust, and free of external dependencies — is the right tool.

use crate::matrix::Matrix;

/// A fitted PCA model: the top `k` principal axes of a data set.
///
/// ```
/// use qd_linalg::Pca;
///
/// // Points along the x axis: one component captures all the variance.
/// let data: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32, 0.0]).collect();
/// let pca = Pca::fit(&data, 1);
/// assert!(pca.explained_variance_ratio() > 0.999);
/// assert_eq!(pca.project(&[5.0, 0.0]).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f32>,
    /// One row per retained component, each of length `dim`, orthonormal,
    /// ordered by descending eigenvalue.
    components: Vec<Vec<f32>>,
    /// Eigenvalues (variances along each retained component), descending.
    explained_variance: Vec<f64>,
    /// Sum of all eigenvalues (total variance), for variance-ratio queries.
    total_variance: f64,
}

impl Pca {
    /// Fits a PCA retaining the top `k` components of `data`.
    ///
    /// # Panics
    /// Panics if `data` is empty, rows differ in length, or
    /// `k` exceeds the dimensionality.
    pub fn fit<V: AsRef<[f32]>>(data: &[V], k: usize) -> Self {
        assert!(!data.is_empty(), "cannot fit PCA on no data");
        let dim = data[0].as_ref().len();
        assert!(k <= dim, "cannot retain more components than dimensions");
        let cov = Matrix::covariance(data);
        let (eigvals, eigvecs) = jacobi_eigen(&cov, 1e-12, 100);

        // Sort eigenpairs by descending eigenvalue.
        let mut order: Vec<usize> = (0..dim).collect();
        order.sort_by(|&a, &b| eigvals[b].total_cmp(&eigvals[a]));

        let mean = {
            let n = data.len() as f64;
            let mut m = vec![0.0f64; dim];
            for row in data {
                for (acc, &x) in m.iter_mut().zip(row.as_ref()) {
                    *acc += x as f64;
                }
            }
            // CAST: f64-accumulated column means narrowed back to the f32
            // feature domain.
            m.into_iter().map(|x| (x / n) as f32).collect()
        };

        let components = order[..k]
            .iter()
            // CAST: eigenvector entries are unit-normalized (|x| ≤ 1);
            // narrowing to the f32 projection domain loses only precision.
            .map(|&c| (0..dim).map(|r| eigvecs[(r, c)] as f32).collect())
            .collect();
        let explained_variance = order[..k].iter().map(|&c| eigvals[c].max(0.0)).collect();
        let total_variance = eigvals.iter().map(|v| v.max(0.0)).sum();

        Self {
            mean,
            components,
            explained_variance,
            total_variance,
        }
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// The retained principal axes, one row per component, orthonormal,
    /// ordered by descending explained variance.
    pub fn components(&self) -> &[Vec<f32>] {
        &self.components
    }

    /// Variance captured by each retained component, descending.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Fraction of the total variance captured by the retained components.
    pub fn explained_variance_ratio(&self) -> f64 {
        if self.total_variance <= 0.0 {
            // A constant data set has no variance to explain; by convention
            // the retained subspace captures all of it.
            1.0
        } else {
            self.explained_variance.iter().sum::<f64>() / self.total_variance
        }
    }

    /// Projects one vector into the retained subspace.
    ///
    /// # Panics
    /// Panics if `v` has the wrong dimensionality.
    pub fn project(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.dim(), "vector length mismatch");
        self.components
            .iter()
            .map(|axis| {
                v.iter()
                    .zip(axis)
                    .zip(&self.mean)
                    .map(|((x, a), m)| ((x - m) as f64) * (*a as f64))
                    // CAST: f64-accumulated projection narrowed back to the
                    // f32 feature domain.
                    .sum::<f64>() as f32
            })
            .collect()
    }

    /// Projects every row of `data`.
    pub fn project_all<V: AsRef<[f32]>>(&self, data: &[V]) -> Vec<Vec<f32>> {
        data.iter().map(|v| self.project(v.as_ref())).collect()
    }
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix.
///
/// Returns `(eigenvalues, eigenvectors)` where column `c` of the eigenvector
/// matrix corresponds to `eigenvalues[c]`. Iterates whole sweeps until the
/// largest off-diagonal magnitude falls below `tol` or `max_sweeps` is hit.
pub fn jacobi_eigen(m: &Matrix, tol: f64, max_sweeps: usize) -> (Vec<f64>, Matrix) {
    assert_eq!(m.rows(), m.cols(), "square matrix required");
    let n = m.rows();
    let mut a = m.clone();
    let mut v = Matrix::identity(n);

    for _ in 0..max_sweeps {
        if a.max_off_diagonal() < tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                if apq.abs() < tol {
                    continue;
                }
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                // Stable tangent of the rotation angle.
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                // Rotate rows/columns p and q of `a`.
                for k in 0..n {
                    let akp = a[(k, p)];
                    let akq = a[(k, q)];
                    a[(k, p)] = c * akp - s * akq;
                    a[(k, q)] = s * akp + c * akq;
                }
                for k in 0..n {
                    let apk = a[(p, k)];
                    let aqk = a[(q, k)];
                    a[(p, k)] = c * apk - s * aqk;
                    a[(q, k)] = s * apk + c * aqk;
                }
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    let eigvals = (0..n).map(|i| a[(i, i)]).collect();
    (eigvals, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn jacobi_diagonalizes_known_matrix() {
        // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
        let m = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let (mut vals, _) = jacobi_eigen(&m, 1e-14, 50);
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(approx(vals[0], 1.0, 1e-10));
        assert!(approx(vals[1], 3.0, 1e-10));
    }

    #[test]
    fn jacobi_eigenvectors_are_orthonormal() {
        let m = Matrix::from_rows(3, 3, vec![4.0, 1.0, 0.5, 1.0, 3.0, -1.0, 0.5, -1.0, 2.0]);
        let (_, v) = jacobi_eigen(&m, 1e-14, 100);
        let vtv = v.transpose().matmul(&v);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!(approx(vtv[(i, j)], expected, 1e-10), "({i},{j})");
            }
        }
    }

    #[test]
    fn jacobi_reconstructs_matrix() {
        // A = V diag(λ) V^T
        let m = Matrix::from_rows(3, 3, vec![5.0, 2.0, 0.0, 2.0, 1.0, 3.0, 0.0, 3.0, 4.0]);
        let (vals, v) = jacobi_eigen(&m, 1e-14, 100);
        let mut d = Matrix::zeros(3, 3);
        for i in 0..3 {
            d[(i, i)] = vals[i];
        }
        let rec = v.matmul(&d).matmul(&v.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!(approx(rec[(i, j)], m[(i, j)], 1e-9), "({i},{j})");
            }
        }
    }

    #[test]
    fn pca_finds_dominant_direction() {
        // Points along y = 2x with small perpendicular noise: the first
        // principal axis must align with (1, 2)/sqrt(5).
        let data: Vec<Vec<f32>> = (0..100)
            .map(|i| {
                let t = (i as f32 - 50.0) / 10.0;
                let noise = ((i * 37 % 17) as f32 - 8.0) / 200.0;
                vec![t - 2.0 * noise, 2.0 * t + noise]
            })
            .collect();
        let pca = Pca::fit(&data, 1);
        let axis = &pca.components()[0];
        let expected = [1.0 / 5.0f32.sqrt(), 2.0 / 5.0f32.sqrt()];
        let dot: f32 = axis.iter().zip(&expected).map(|(a, b)| a * b).sum();
        assert!(dot.abs() > 0.999, "axis {axis:?} vs {expected:?}");
    }

    #[test]
    fn pca_variances_are_descending() {
        let data: Vec<Vec<f32>> = (0..60)
            .map(|i| {
                let i = i as f32;
                vec![i, (i * 0.3).sin() * 5.0, (i * 1.7).cos()]
            })
            .collect();
        let pca = Pca::fit(&data, 3);
        let ev = pca.explained_variance();
        assert!(ev[0] >= ev[1] && ev[1] >= ev[2]);
        assert!(approx(pca.explained_variance_ratio(), 1.0, 1e-9));
    }

    #[test]
    fn pca_projection_preserves_pairwise_distance_in_full_rank() {
        // With k = dim, projection is a rigid rotation + centering, so all
        // pairwise distances are preserved.
        let data = vec![
            vec![1.0f32, 0.0, 2.0],
            vec![0.0, 3.0, 1.0],
            vec![-1.0, 1.0, 0.0],
            vec![2.0, 2.0, 2.0],
        ];
        let pca = Pca::fit(&data, 3);
        let proj = pca.project_all(&data);
        for i in 0..data.len() {
            for j in (i + 1)..data.len() {
                let d0 = crate::metric::euclidean(&data[i], &data[j]);
                let d1 = crate::metric::euclidean(&proj[i], &proj[j]);
                assert!((d0 - d1).abs() < 1e-4, "pair ({i},{j}): {d0} vs {d1}");
            }
        }
    }

    #[test]
    fn pca_separates_two_distant_clusters_in_one_component() {
        let mut data = Vec::new();
        for i in 0..20 {
            let j = (i % 5) as f32 * 0.01;
            data.push(vec![0.0 + j, 0.0, 5.0]);
            data.push(vec![100.0 + j, 0.0, 5.0]);
        }
        let pca = Pca::fit(&data, 1);
        let proj = pca.project_all(&data);
        // Alternating points must land on opposite sides of zero.
        for pair in proj.chunks(2) {
            assert!(pair[0][0] * pair[1][0] < 0.0);
        }
    }

    #[test]
    fn pca_on_constant_data_is_degenerate_but_safe() {
        let data = vec![vec![1.0f32, 2.0]; 5];
        let pca = Pca::fit(&data, 2);
        assert_eq!(pca.project(&[1.0, 2.0]), vec![0.0, 0.0]);
        assert_eq!(pca.explained_variance_ratio(), 1.0);
    }
}
