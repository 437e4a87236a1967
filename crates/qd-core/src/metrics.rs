//! Retrieval-quality metrics: precision and the Ground Truth Inclusion Ratio.

use qd_corpus::{Corpus, QuerySpec};

/// Fraction of `results` that are relevant to `query`.
///
/// The paper retrieves exactly `|ground truth|` images per query, making
/// precision and recall numerically equal (§5.2.1); this function is the
/// precision side of that identity.
pub fn precision(corpus: &Corpus, query: &QuerySpec, results: &[usize]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    let relevant = results
        .iter()
        .filter(|&&id| corpus.is_relevant(id, query))
        .count();
    relevant as f64 / results.len() as f64
}

/// Fraction of ground-truth images that appear in `results`.
pub fn recall(corpus: &Corpus, query: &QuerySpec, results: &[usize]) -> f64 {
    // Ascending and distinct: ground-truth ids come out in corpus order.
    let gt = corpus.ground_truth(query);
    if gt.is_empty() {
        return 0.0;
    }
    let hit = results
        .iter()
        .filter(|id| gt.binary_search(id).is_ok())
        .count();
    hit as f64 / gt.len() as f64
}

/// Ground Truth Inclusion Ratio (§5.2.1):
///
/// ```text
/// GTIR = (number of retrieved subconcepts) / (number of subconcepts in GT)
/// ```
///
/// A subconcept (query group) counts as retrieved when at least one of its
/// images appears in `results`.
pub fn gtir(corpus: &Corpus, query: &QuerySpec, results: &[usize]) -> f64 {
    if query.groups.is_empty() {
        return 0.0;
    }
    let mut covered = vec![false; query.groups.len()];
    for &id in results {
        if let Some(g) = corpus.group_of(id, query) {
            covered[g] = true;
        }
    }
    covered.iter().filter(|&&c| c).count() as f64 / query.groups.len() as f64
}

/// Per-round quality trace of a feedback session (Table 2's rows).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTrace {
    /// 1-based feedback round.
    pub round: usize,
    /// Precision of the round's result set; `None` for QD rounds before the
    /// final one, which perform no retrieval (the paper prints "n/a").
    pub precision: Option<f64>,
    /// GTIR after this round. For QD's non-final rounds this measures the
    /// subconcepts covered by the relevant representatives found so far.
    pub gtir: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_corpus::{queries, CorpusConfig};
    use std::sync::OnceLock;

    fn shared() -> &'static Corpus {
        static CORPUS: OnceLock<Corpus> = OnceLock::new();
        CORPUS.get_or_init(|| {
            Corpus::build(&CorpusConfig {
                size: 200,
                image_size: 24,
                seed: 3,
                filler_count: 3,
                with_viewpoints: false,
            })
        })
    }

    #[test]
    fn perfect_result_scores_one() {
        let c = shared();
        let q = &queries::standard_queries(c.taxonomy())[2]; // bird
        let gt = c.ground_truth(q);
        assert!((precision(c, q, &gt) - 1.0).abs() < 1e-12);
        assert!((recall(c, q, &gt) - 1.0).abs() < 1e-12);
        assert!((gtir(c, q, &gt) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn irrelevant_result_scores_zero() {
        let c = shared();
        let qs = queries::standard_queries(c.taxonomy());
        let bird = &qs[2];
        let horse_images = c.ground_truth(&qs[4]);
        assert_eq!(precision(c, bird, &horse_images), 0.0);
        assert_eq!(recall(c, bird, &horse_images), 0.0);
        assert_eq!(gtir(c, bird, &horse_images), 0.0);
    }

    #[test]
    fn gtir_counts_groups_not_images() {
        let c = shared();
        let q = &queries::standard_queries(c.taxonomy())[2]; // bird: 3 groups
                                                             // Take several images from a single group: GTIR stays 1/3.
        let eagle = c.images_of(c.taxonomy().require("bird/eagle"));
        assert!(eagle.len() >= 2);
        let r = gtir(c, q, &eagle);
        assert!((r - 1.0 / 3.0).abs() < 1e-12, "gtir = {r}");
        // One image from each of two groups: 2/3.
        let owl = c.images_of(c.taxonomy().require("bird/owl"));
        let two = vec![eagle[0], owl[0]];
        assert!((gtir(c, q, &two) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn precision_of_mixed_results() {
        let c = shared();
        let qs = queries::standard_queries(c.taxonomy());
        let bird = &qs[2];
        let eagle = c.images_of(c.taxonomy().require("bird/eagle"));
        let horse = c.images_of(c.taxonomy().require("horse/polo"));
        let mixed = vec![eagle[0], horse[0], horse[1], eagle[1]];
        assert!((precision(c, bird, &mixed) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_results_score_zero() {
        let c = shared();
        let q = &queries::standard_queries(c.taxonomy())[0];
        assert_eq!(precision(c, q, &[]), 0.0);
        assert_eq!(recall(c, q, &[]), 0.0);
        assert_eq!(gtir(c, q, &[]), 0.0);
    }

    #[test]
    fn duplicate_result_ids_do_not_inflate_gtir() {
        let c = shared();
        let q = &queries::standard_queries(c.taxonomy())[2];
        let eagle = c.images_of(c.taxonomy().require("bird/eagle"));
        let dup = vec![eagle[0]; 10];
        assert!((gtir(c, q, &dup) - 1.0 / 3.0).abs() < 1e-12);
    }
}
