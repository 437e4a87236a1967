//! Average-linkage agglomerative clustering.
//!
//! An independent, deterministic clusterer used to cross-check k-means in
//! tests and to probe alternative RFS construction strategies in ablations.
//! O(n³) worst case — intended for small inputs (node-level representative
//! selection operates on at most a few hundred points).

use qd_linalg::metric::euclidean;

/// Clusters `data` bottom-up by repeatedly merging the pair of clusters with
/// the smallest average inter-point distance, stopping at `k` clusters.
///
/// Returns cluster assignments (`0..k`).
///
/// # Panics
/// Panics if `data` is empty or `k` is zero.
pub fn agglomerative<V: AsRef<[f32]>>(data: &[V], k: usize) -> Vec<usize> {
    assert!(!data.is_empty(), "cannot cluster an empty data set");
    assert!(k > 0, "k must be positive");
    let n = data.len();
    let k = k.min(n);

    // Pairwise distances, computed once.
    let mut dist = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = euclidean(data[i].as_ref(), data[j].as_ref()) as f64;
            dist[i * n + j] = d;
            dist[j * n + i] = d;
        }
    }

    // Each cluster is a list of member indices.
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    while clusters.len() > k {
        let mut best = (0usize, 1usize);
        let mut best_d = f64::INFINITY;
        for a in 0..clusters.len() {
            for b in (a + 1)..clusters.len() {
                let mut sum = 0.0;
                for &i in &clusters[a] {
                    for &j in &clusters[b] {
                        sum += dist[i * n + j];
                    }
                }
                let avg = sum / (clusters[a].len() * clusters[b].len()) as f64;
                if avg < best_d {
                    best_d = avg;
                    best = (a, b);
                }
            }
        }
        // best.0 < best.1, so removing best.1 leaves best.0 valid.
        let merged = clusters.swap_remove(best.1);
        clusters[best.0].extend(merged);
    }

    let mut assignments = vec![0usize; n];
    for (c, members) in clusters.iter().enumerate() {
        for &i in members {
            assignments[i] = c;
        }
    }
    assignments
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_two_obvious_groups() {
        let data = vec![
            vec![0.0f32, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![10.0, 10.0],
            vec![10.1, 10.0],
        ];
        let a = agglomerative(&data, 2);
        assert_eq!(a[0], a[1]);
        assert_eq!(a[1], a[2]);
        assert_eq!(a[3], a[4]);
        assert_ne!(a[0], a[3]);
    }

    #[test]
    fn k_equals_n_gives_singletons() {
        let data = vec![vec![0.0f32], vec![1.0], vec![2.0]];
        let a = agglomerative(&data, 3);
        let set: std::collections::BTreeSet<usize> = a.iter().copied().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn k_one_merges_everything() {
        let data = vec![vec![0.0f32], vec![50.0], vec![100.0]];
        let a = agglomerative(&data, 1);
        assert!(a.iter().all(|&c| c == a[0]));
    }

    #[test]
    fn agrees_with_kmeans_on_clean_blobs() {
        let mut data = Vec::new();
        for i in 0..8 {
            data.push(vec![i as f32 * 0.05, 0.0]);
            data.push(vec![20.0 + i as f32 * 0.05, 0.0]);
            data.push(vec![40.0 + i as f32 * 0.05, 0.0]);
        }
        let agg = agglomerative(&data, 3);
        let km = crate::kmeans::KMeans::new(3).with_seed(2).fit(&data);
        // Same partition up to label permutation: points agree on "same
        // cluster" relations.
        for i in 0..data.len() {
            for j in 0..data.len() {
                assert_eq!(
                    agg[i] == agg[j],
                    km.assignments[i] == km.assignments[j],
                    "pair ({i},{j})"
                );
            }
        }
    }
}
