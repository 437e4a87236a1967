//! Lloyd's k-means with k-means++ seeding.

use qd_linalg::metric::{sq_l2_each, squared_euclidean};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// k-means configuration.
///
/// ```
/// use qd_cluster::KMeans;
///
/// let data = vec![
///     vec![0.0f32, 0.0], vec![0.1, 0.0],   // blob A
///     vec![9.0, 9.0], vec![9.1, 9.0],      // blob B
/// ];
/// let fit = KMeans::new(2).with_seed(1).fit(&data);
/// assert_eq!(fit.k(), 2);
/// assert_eq!(fit.assignments[0], fit.assignments[1]);
/// assert_ne!(fit.assignments[0], fit.assignments[2]);
/// ```
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Number of clusters requested. If the data has fewer distinct points,
    /// fewer clusters are returned.
    pub k: usize,
    /// Iteration cap for the Lloyd loop.
    pub max_iters: usize,
    /// Relative SSE improvement below which the loop stops early.
    pub tolerance: f64,
    /// Seed for the k-means++ initialization.
    pub seed: u64,
}

impl KMeans {
    /// A sensible default configuration for `k` clusters.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iters: 50,
            tolerance: 1e-6,
            seed: 0,
        }
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Clusters `data`, returning centroids and point assignments.
    ///
    /// # Panics
    /// Panics if `data` is empty, rows differ in length, or `k == 0`.
    pub fn fit<V: AsRef<[f32]>>(&self, data: &[V]) -> KMeansResult {
        assert!(self.k > 0, "k must be positive");
        assert!(!data.is_empty(), "cannot cluster an empty data set");
        let dim = data[0].as_ref().len();
        for row in data {
            assert_eq!(row.as_ref().len(), dim, "vector length mismatch");
        }
        let k = self.k.min(data.len());
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut centroids = plus_plus_seed(data, k, &mut rng);
        let mut assignments = vec![0usize; data.len()];
        let mut sse = f64::INFINITY;
        let mut iterations = 0;

        for iter in 0..self.max_iters {
            iterations = iter + 1;
            // Assignment step.
            let mut new_sse = 0.0f64;
            for (i, row) in data.iter().enumerate() {
                let (best, d2) = nearest_centroid(row.as_ref(), &centroids);
                assignments[i] = best;
                new_sse += d2 as f64;
            }

            // Update step.
            let mut sums = vec![vec![0.0f64; dim]; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            for (i, row) in data.iter().enumerate() {
                counts[assignments[i]] += 1;
                for (s, &x) in sums[assignments[i]].iter_mut().zip(row.as_ref()) {
                    *s += x as f64;
                }
            }
            for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
                if count > 0 {
                    for (cj, s) in c.iter_mut().zip(sum) {
                        // CAST: f64-accumulated centroid mean narrowed back
                        // to the f32 feature domain the members live in.
                        *cj = (s / count as f64) as f32;
                    }
                }
            }

            // Empty-cluster repair: move each empty centroid onto the point
            // currently farthest from its assigned centroid.
            for c in 0..centroids.len() {
                if counts[c] > 0 {
                    continue;
                }
                let (far_idx, _) = data
                    .iter()
                    .enumerate()
                    .map(|(i, row)| {
                        (
                            i,
                            squared_euclidean(row.as_ref(), &centroids[assignments[i]]),
                        )
                    })
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("non-empty data");
                centroids[c] = data[far_idx].as_ref().to_vec();
                assignments[far_idx] = c;
            }

            // Convergence test on SSE improvement.
            let converged =
                sse.is_finite() && (sse - new_sse).abs() <= self.tolerance * sse.max(1e-12);
            sse = new_sse;
            if converged {
                break;
            }
        }

        // Final assignment pass so assignments match the final centroids.
        let mut final_sse = 0.0f64;
        for (i, row) in data.iter().enumerate() {
            let (best, d2) = nearest_centroid(row.as_ref(), &centroids);
            assignments[i] = best;
            final_sse += d2 as f64;
        }

        KMeansResult {
            centroids,
            assignments,
            sse: final_sse,
            iterations,
        }
    }
}

/// Result of a k-means fit.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster centers, `k × dim`.
    pub centroids: Vec<Vec<f32>>,
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
    /// Final within-cluster sum of squared distances.
    pub sse: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

impl KMeansResult {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Point indices belonging to cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == c)
            .map(|(i, _)| i)
            .collect()
    }

    /// For each cluster, the index of the member nearest the centroid —
    /// the RFS representative-selection rule ("images nearest its center").
    /// Empty clusters yield no entry.
    pub fn medoid_indices<V: AsRef<[f32]>>(&self, data: &[V]) -> Vec<usize> {
        let mut best: Vec<Option<(usize, f32)>> = vec![None; self.k()];
        for (i, row) in data.iter().enumerate() {
            let c = self.assignments[i];
            let d2 = squared_euclidean(row.as_ref(), &self.centroids[c]);
            if best[c].is_none_or(|(_, bd)| d2 < bd) {
                best[c] = Some((i, d2));
            }
        }
        best.into_iter().flatten().map(|(i, _)| i).collect()
    }
}

/// k-means++ seeding: first center uniform, each next center sampled with
/// probability proportional to squared distance from the nearest chosen
/// center.
fn plus_plus_seed<V: AsRef<[f32]>>(data: &[V], k: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(data[rng.random_range(0..data.len())].as_ref().to_vec());
    let mut d2 = vec![0.0f64; data.len()];
    sq_l2_each(data, &centroids[0], |i, d| d2[i] = f64::from(narrow(d)));
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 1e-18 {
            // All points coincide with chosen centers; any point works.
            rng.random_range(0..data.len())
        } else {
            let mut target = rng.random::<f64>() * total;
            let mut chosen = data.len() - 1;
            for (i, &w) in d2.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        let c = data[next].as_ref().to_vec();
        sq_l2_each(data, &c, |i, d| {
            let nd = f64::from(narrow(d));
            if nd < d2[i] {
                d2[i] = nd;
            }
        });
        centroids.push(c);
    }
    centroids
}

/// A kernel sum narrowed to the `f32` that [`squared_euclidean`] returns.
fn narrow(d2: f64) -> f32 {
    // CAST: f64-accumulated squared distance narrowed back to the f32
    // feature domain, exactly as `squared_euclidean` narrows it.
    d2 as f32
}

/// The centroid nearest `point` and its squared distance; the first of
/// equal distances wins. [`sq_l2_each`] scores four centroids per kernel
/// call, each as `(c − p)²` summed in dimension order: the same f64 as
/// [`squared_euclidean`]'s `(p − c)²`, since an f32 difference only changes
/// sign when its operands swap.
fn nearest_centroid(point: &[f32], centroids: &[Vec<f32>]) -> (usize, f32) {
    let mut best = 0usize;
    let mut best_d2 = f32::INFINITY;
    sq_l2_each(centroids, point, |c, d2| {
        let d2 = narrow(d2);
        if d2 < best_d2 {
            best_d2 = d2;
            best = c;
        }
    });
    (best, best_d2)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated blobs in 2-D.
    fn three_blobs() -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut data = Vec::new();
        let mut truth = Vec::new();
        let centers = [[0.0f32, 0.0], [10.0, 0.0], [0.0, 10.0]];
        for (c, center) in centers.iter().enumerate() {
            for i in 0..20 {
                let dx = ((i * 7 % 10) as f32 - 4.5) * 0.1;
                let dy = ((i * 3 % 10) as f32 - 4.5) * 0.1;
                data.push(vec![center[0] + dx, center[1] + dy]);
                truth.push(c);
            }
        }
        (data, truth)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (data, truth) = three_blobs();
        let result = KMeans::new(3).with_seed(1).fit(&data);
        assert_eq!(result.k(), 3);
        // Every ground-truth blob maps to exactly one k-means cluster.
        let mut mapping = std::collections::BTreeMap::new();
        for (a, t) in result.assignments.iter().zip(&truth) {
            let entry = mapping.entry(t).or_insert(*a);
            assert_eq!(entry, a, "blob {t} split across clusters");
        }
        assert_eq!(
            mapping
                .values()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            3
        );
    }

    #[test]
    fn sse_decreases_with_more_clusters() {
        let (data, _) = three_blobs();
        let sse1 = KMeans::new(1).with_seed(2).fit(&data).sse;
        let sse3 = KMeans::new(3).with_seed(2).fit(&data).sse;
        assert!(sse3 < sse1 * 0.2, "sse1={sse1}, sse3={sse3}");
    }

    #[test]
    fn k_one_returns_global_centroid() {
        let data = vec![vec![0.0f32, 0.0], vec![2.0, 0.0], vec![4.0, 6.0]];
        let result = KMeans::new(1).with_seed(3).fit(&data);
        let c = &result.centroids[0];
        assert!((c[0] - 2.0).abs() < 1e-4);
        assert!((c[1] - 2.0).abs() < 1e-4);
        assert!(result.assignments.iter().all(|&a| a == 0));
    }

    #[test]
    fn k_larger_than_data_is_clamped() {
        let data = vec![vec![0.0f32], vec![1.0], vec![2.0]];
        let result = KMeans::new(10).with_seed(4).fit(&data);
        assert!(result.k() <= 3);
        // Every point still gets an assignment within range.
        for &a in &result.assignments {
            assert!(a < result.k());
        }
    }

    #[test]
    fn identical_points_collapse_safely() {
        let data = vec![vec![5.0f32, 5.0]; 12];
        let result = KMeans::new(3).with_seed(5).fit(&data);
        assert!(result.sse < 1e-9);
        for c in &result.centroids {
            assert_eq!(c, &vec![5.0, 5.0]);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (data, _) = three_blobs();
        let a = KMeans::new(3).with_seed(9).fit(&data);
        let b = KMeans::new(3).with_seed(9).fit(&data);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn members_partition_the_data() {
        let (data, _) = three_blobs();
        let result = KMeans::new(3).with_seed(11).fit(&data);
        let total: usize = (0..result.k()).map(|c| result.members(c).len()).sum();
        assert_eq!(total, data.len());
    }

    #[test]
    fn medoids_are_actual_members_near_their_centroid() {
        let (data, _) = three_blobs();
        let result = KMeans::new(3).with_seed(13).fit(&data);
        let medoids = result.medoid_indices(&data);
        assert_eq!(medoids.len(), 3);
        for &m in &medoids {
            let c = result.assignments[m];
            let md = squared_euclidean(&data[m], &result.centroids[c]);
            for &other in result.members(c).iter() {
                let od = squared_euclidean(&data[other], &result.centroids[c]);
                assert!(md <= od + 1e-6, "medoid not nearest");
            }
        }
    }

    #[test]
    fn no_empty_clusters_after_repair() {
        // Pathological seed data: two tight groups but k = 4 forces repair.
        let mut data = vec![vec![0.0f32, 0.0]; 10];
        data.extend(vec![vec![100.0f32, 100.0]; 10]);
        data.push(vec![50.0, 50.0]);
        data.push(vec![51.0, 50.0]);
        let result = KMeans::new(4).with_seed(17).fit(&data);
        for c in 0..result.k() {
            assert!(!result.members(c).is_empty(), "cluster {c} empty");
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_data_panics() {
        KMeans::new(2).fit::<Vec<f32>>(&[]);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        KMeans::new(0).fit(&[vec![0.0f32]]);
    }

    /// The one-centroid-at-a-time scan `nearest_centroid` replaces.
    fn reference_nearest(point: &[f32], centroids: &[Vec<f32>]) -> (usize, f32) {
        let mut best = (0usize, f32::INFINITY);
        for (c, centroid) in centroids.iter().enumerate() {
            let d2 = squared_euclidean(point, centroid);
            if d2 < best.1 {
                best = (c, d2);
            }
        }
        best
    }

    /// Every centroid count around the kernel's block of four, repeated
    /// centroids (ties go to the first) and NaN / infinite coordinates: the
    /// blocked scan picks the reference's centroid with the same bits.
    #[test]
    fn nearest_centroid_matches_the_scalar_scan_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(23);
        let value = |rng: &mut StdRng| match rng.random_range(0..16u32) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => -0.0,
            _ => rng.random_range(-4.0f32..4.0),
        };
        for k in 1..=9usize {
            for _ in 0..200 {
                let dim = rng.random_range(1..12usize);
                let mut centroids: Vec<Vec<f32>> = (0..k)
                    .map(|_| (0..dim).map(|_| value(&mut rng)).collect())
                    .collect();
                if k > 1 && rng.random_range(0..2u32) == 0 {
                    let (a, b) = (rng.random_range(0..k), rng.random_range(0..k));
                    centroids[b] = centroids[a].clone();
                }
                let point: Vec<f32> = (0..dim).map(|_| value(&mut rng)).collect();
                let (c, d2) = nearest_centroid(&point, &centroids);
                let (rc, rd2) = reference_nearest(&point, &centroids);
                assert_eq!((c, d2.to_bits()), (rc, rd2.to_bits()), "k={k}");
            }
        }
    }
}
