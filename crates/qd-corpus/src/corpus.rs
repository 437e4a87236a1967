//! Corpus construction: render → extract → normalize.

use crate::queries::QuerySpec;
use crate::taxonomy::{SubconceptId, Taxonomy};
use qd_features::{FeatureExtractor, FEATURE_DIM};
use qd_imagery::Image;
use qd_imagery::Viewpoint;
use qd_linalg::{Normalizer, TileTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Corpus construction parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusConfig {
    /// Total number of images.
    pub size: usize,
    /// Rendered image edge length in pixels (images are square).
    pub image_size: usize,
    /// Master seed; the corpus is fully deterministic given the config.
    pub seed: u64,
    /// Number of procedurally generated filler categories.
    pub filler_count: usize,
    /// Also extract features under the three non-trivial MV viewpoints
    /// (color-negative, black-white, black-white-negative). Roughly
    /// quadruples build time; required by the MV baseline.
    pub with_viewpoints: bool,
}

impl CorpusConfig {
    /// The paper's database shape: 15,000 images, ~150 categories.
    pub fn paper(seed: u64) -> Self {
        Self {
            size: 15_000,
            image_size: 48,
            seed,
            filler_count: 121,
            with_viewpoints: true,
        }
    }

    /// A small corpus for tests: ~20 images per category over the 29 named
    /// categories plus a handful of fillers.
    pub fn test_small(seed: u64) -> Self {
        Self {
            size: 740,
            image_size: 32,
            seed,
            filler_count: 8,
            with_viewpoints: true,
        }
    }
}

/// The materialized corpus: normalized feature vectors plus ground truth.
///
/// Image ids are dense indices `0..len()`.
#[derive(Debug, Clone)]
pub struct Corpus {
    config: CorpusConfig,
    taxonomy: Taxonomy,
    features: Vec<Vec<f32>>,
    labels: Vec<SubconceptId>,
    normalizer: Normalizer,
    /// `(viewpoint, normalized features)` for the three non-trivial MV
    /// channels, stored only as tiles; empty unless `with_viewpoints` was
    /// set.
    viewpoint_tables: Vec<(Viewpoint, TileTable)>,
}

impl Corpus {
    /// Builds the corpus: renders every image from its category template,
    /// runs the 37-dimensional extraction pipeline, and z-score normalizes
    /// each feature space over the corpus.
    ///
    /// Images are assigned to categories round-robin so every category gets
    /// `size / category_count` images (±1).
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn build(config: &CorpusConfig) -> Self {
        assert!(config.size > 0, "corpus size must be positive");
        let taxonomy = Taxonomy::standard(config.filler_count, config.seed);
        let extractor = FeatureExtractor::new();

        let category_count = taxonomy.len();
        let mut labels = Vec::with_capacity(config.size);
        let mut features = Vec::with_capacity(config.size);
        let extra_viewpoints = [
            Viewpoint::Negative,
            Viewpoint::Grayscale,
            Viewpoint::GrayNegative,
        ];
        let mut raw_viewpoints: Vec<Vec<Vec<f32>>> = if config.with_viewpoints {
            vec![Vec::with_capacity(config.size); extra_viewpoints.len()]
        } else {
            Vec::new()
        };

        // Per-image RNG streams make every image independent of its
        // neighbors (and re-renderable on demand), so render + extraction
        // fans out across the qd-runtime pool with a deterministic result.
        let indices: Vec<usize> = (0..config.size).collect();
        let per_image = qd_runtime::par_map(&indices, |&i| {
            let label = SubconceptId((i % taxonomy.len()) as u32);
            let template = &taxonomy.get(label).template;
            let mut rng = image_rng(config.seed, i);
            let img = template.render(config.image_size, config.image_size, &mut rng);
            let feats = extractor.extract(&img);
            let vps: Vec<Vec<f32>> = if config.with_viewpoints {
                extra_viewpoints
                    .iter()
                    .map(|&vp| extractor.extract_viewpoint(&img, vp))
                    .collect()
            } else {
                Vec::new()
            };
            (feats, vps)
        });
        for (feats, vps) in per_image {
            features.push(feats);
            if config.with_viewpoints {
                for (slot, part) in raw_viewpoints.iter_mut().zip(vps) {
                    slot.push(part);
                }
            }
        }
        for i in 0..config.size {
            labels.push(SubconceptId((i % category_count) as u32));
        }

        let normalizer = Normalizer::fit(&features);
        normalizer.transform_all(&mut features);

        // Each channel goes into its tiles row by row, every row freed as it
        // is copied, so no channel is held twice.
        let viewpoint_tables = raw_viewpoints
            .into_iter()
            .zip(extra_viewpoints)
            .map(|(feats, vp)| {
                let n = Normalizer::fit(&feats);
                let mut table = TileTable::with_capacity(FEATURE_DIM, feats.len());
                for row in feats {
                    table.push(n.transform(&row));
                }
                (vp, table)
            })
            .collect();

        Self {
            config: config.clone(),
            taxonomy,
            features,
            labels,
            normalizer,
            viewpoint_tables,
        }
    }

    /// Reassembles a corpus from cached parts (see `crate::cache`).
    pub(crate) fn from_parts(
        config: CorpusConfig,
        taxonomy: Taxonomy,
        features: Vec<Vec<f32>>,
        labels: Vec<SubconceptId>,
        normalizer: Normalizer,
        viewpoint_tables: Vec<(Viewpoint, TileTable)>,
    ) -> Self {
        Self {
            config,
            taxonomy,
            features,
            labels,
            normalizer,
            viewpoint_tables,
        }
    }

    /// Re-renders image `id` exactly as it looked during corpus
    /// construction (same template, same jitter stream).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn render_image(&self, id: usize) -> Image {
        assert!(id < self.len(), "image id out of range");
        let template = &self.taxonomy.get(self.labels[id]).template;
        let mut rng = image_rng(self.config.seed, id);
        template.render(self.config.image_size, self.config.image_size, &mut rng)
    }

    /// The configuration this corpus was built from.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// Number of images.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True if the corpus is empty (never the case for a built corpus).
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Feature dimensionality (always [`FEATURE_DIM`]).
    pub fn dim(&self) -> usize {
        FEATURE_DIM
    }

    /// The taxonomy used to label this corpus.
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// Normalized feature vectors in the normal viewpoint, indexed by image
    /// id.
    pub fn features(&self) -> &[Vec<f32>] {
        &self.features
    }

    /// Normalized feature vector of one image.
    pub fn feature(&self, id: usize) -> &[f32] {
        &self.features[id]
    }

    /// Ground-truth category of one image.
    pub fn label(&self, id: usize) -> SubconceptId {
        self.labels[id]
    }

    /// All labels, indexed by image id.
    pub fn labels(&self) -> &[SubconceptId] {
        &self.labels
    }

    /// The per-dimension normalizer fitted on the normal viewpoint.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// Normalized features under one of the three non-trivial MV
    /// viewpoints, as tiles; present only when the corpus was built
    /// `with_viewpoints`. `Normal` is the row table [`Corpus::features`],
    /// so it maps to `None` here.
    pub fn viewpoint_table(&self, vp: Viewpoint) -> Option<&TileTable> {
        self.viewpoint_tables
            .iter()
            .find(|(v, _)| *v == vp)
            .map(|(_, table)| table)
    }

    /// Ids of all images with the given label.
    pub fn images_of(&self, sub: SubconceptId) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == sub)
            .map(|(i, _)| i)
            .collect()
    }

    /// Ground-truth image ids for a query (union over its groups).
    pub fn ground_truth(&self, query: &QuerySpec) -> Vec<usize> {
        let leaves = query.leaf_ids();
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, l)| leaves.contains(l))
            .map(|(i, _)| i)
            .collect()
    }

    /// True if image `id` is relevant to `query`.
    pub fn is_relevant(&self, id: usize, query: &QuerySpec) -> bool {
        query
            .groups
            .iter()
            .any(|g| g.members.contains(&self.labels[id]))
    }

    /// Index of the query group image `id` belongs to, if any.
    pub fn group_of(&self, id: usize, query: &QuerySpec) -> Option<usize> {
        query
            .groups
            .iter()
            .position(|g| g.members.contains(&self.labels[id]))
    }
}

/// The deterministic per-image RNG stream.
fn image_rng(seed: u64, image: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(image as u64 + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries;
    use qd_linalg::metric::euclidean;
    use std::sync::OnceLock;

    fn shared() -> &'static Corpus {
        static CORPUS: OnceLock<Corpus> = OnceLock::new();
        CORPUS.get_or_init(|| Corpus::build(&CorpusConfig::test_small(1)))
    }

    #[test]
    fn corpus_has_requested_shape() {
        let c = shared();
        assert_eq!(c.len(), 740);
        assert_eq!(c.dim(), 37);
        assert_eq!(c.features().len(), c.labels().len());
        assert!(c.features().iter().all(|f| f.len() == 37));
    }

    #[test]
    fn categories_are_evenly_populated() {
        let c = shared();
        let per = c.len() / c.taxonomy().len();
        for sub in c.taxonomy().ids() {
            let n = c.images_of(sub).len();
            assert!(
                n == per || n == per + 1,
                "{}: {n} images (expected ~{per})",
                c.taxonomy().name(sub)
            );
        }
    }

    #[test]
    fn features_are_normalized() {
        let c = shared();
        for d in 0..c.dim() {
            let mut stats = qd_linalg::RunningStats::new();
            for f in c.features() {
                stats.push(f[d]);
            }
            assert!(stats.mean().abs() < 1e-3, "dim {d} mean {}", stats.mean());
            let sd = stats.std_dev();
            assert!((sd - 1.0).abs() < 1e-2 || sd == 0.0, "dim {d} std {sd}");
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = Corpus::build(&CorpusConfig {
            size: 60,
            image_size: 24,
            seed: 5,
            filler_count: 1,
            with_viewpoints: false,
        });
        let b = Corpus::build(&CorpusConfig {
            size: 60,
            image_size: 24,
            seed: 5,
            filler_count: 1,
            with_viewpoints: false,
        });
        assert_eq!(a.features(), b.features());
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn viewpoints_present_only_when_requested() {
        let c = shared();
        assert!(c.viewpoint_table(Viewpoint::Normal).is_none());
        for vp in &Viewpoint::ALL[1..] {
            let table = c.viewpoint_table(*vp).unwrap();
            assert_eq!((table.len(), table.dims()), (c.len(), c.dim()), "{vp:?}");
        }
        let plain = Corpus::build(&CorpusConfig {
            size: 30,
            image_size: 24,
            seed: 2,
            filler_count: 1,
            with_viewpoints: false,
        });
        assert!(Viewpoint::ALL
            .iter()
            .all(|&vp| plain.viewpoint_table(vp).is_none()));
    }

    #[test]
    fn render_image_reproduces_build_time_features() {
        let c = shared();
        let extractor = qd_features::FeatureExtractor::new();
        for id in [0usize, 7, 123, 739] {
            let img = c.render_image(id);
            let raw = extractor.extract(&img);
            let normalized = c.normalizer().transform(&raw);
            for (a, b) in normalized.iter().zip(c.feature(id)) {
                assert!((a - b).abs() < 1e-4, "image {id}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn ground_truth_matches_labels() {
        let c = shared();
        let qs = queries::standard_queries(c.taxonomy());
        let bird = &qs[2];
        let gt = c.ground_truth(bird);
        assert!(!gt.is_empty());
        for &id in &gt {
            assert!(c.is_relevant(id, bird));
            assert!(c.group_of(id, bird).is_some());
        }
        // Non-ground-truth images are not relevant.
        let gt_set: std::collections::BTreeSet<usize> = gt.iter().copied().collect();
        for id in 0..c.len() {
            if !gt_set.contains(&id) {
                assert!(!c.is_relevant(id, bird));
            }
        }
    }

    #[test]
    fn within_category_distances_are_smaller_than_cross_category() {
        let c = shared();
        let eagle = c.images_of(c.taxonomy().require("bird/eagle"));
        let server = c.images_of(c.taxonomy().require("computer/server"));
        let mut within = 0.0f64;
        let mut wn = 0;
        for i in 0..eagle.len().min(10) {
            for j in (i + 1)..eagle.len().min(10) {
                within += euclidean(c.feature(eagle[i]), c.feature(eagle[j])) as f64;
                wn += 1;
            }
        }
        let mut cross = 0.0f64;
        let mut cn = 0;
        for &i in eagle.iter().take(10) {
            for &j in server.iter().take(10) {
                cross += euclidean(c.feature(i), c.feature(j)) as f64;
                cn += 1;
            }
        }
        let within = within / wn as f64;
        let cross = cross / cn as f64;
        assert!(cross > 2.0 * within, "within={within:.3}, cross={cross:.3}");
    }
}
