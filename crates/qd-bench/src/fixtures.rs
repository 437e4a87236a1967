//! Cached corpus/RFS fixtures shared across experiments within one process.

use qd_core::rfs::{RfsConfig, RfsStructure};
use qd_corpus::{Corpus, CorpusConfig};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Experiment scale, controlling corpus size and node capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchScale {
    /// The paper's database: 15,000 images, ~150 categories, capacity-100
    /// nodes (3-level RFS).
    Paper,
    /// A reduced database for quick runs.
    Quick,
    /// The smallest complete scale (viewpoints included) — sized for the
    /// `repro --json` observability report, which CI runs several times per
    /// push to compare byte-for-byte.
    Tiny,
    /// An arbitrary database size with paper-style category mix (used by the
    /// Figure 10/11 sweeps). `with_viewpoints` is disabled — the sweeps only
    /// run QD.
    Sweep(usize),
}

impl BenchScale {
    /// Corpus configuration for this scale.
    pub fn corpus_config(self, seed: u64) -> CorpusConfig {
        match self {
            BenchScale::Paper => CorpusConfig::paper(seed),
            BenchScale::Quick => CorpusConfig {
                size: 3_000,
                image_size: 32,
                seed,
                filler_count: 121,
                with_viewpoints: true,
            },
            BenchScale::Tiny => CorpusConfig {
                size: 600,
                image_size: 24,
                seed,
                filler_count: 20,
                with_viewpoints: true,
            },
            BenchScale::Sweep(size) => CorpusConfig {
                size,
                image_size: 32,
                seed,
                filler_count: 121,
                with_viewpoints: false,
            },
        }
    }

    /// RFS configuration for this scale.
    pub fn rfs_config(self) -> RfsConfig {
        match self {
            BenchScale::Paper | BenchScale::Sweep(_) => RfsConfig::paper(),
            BenchScale::Quick => RfsConfig {
                node_min: 16,
                node_max: 40,
                ..RfsConfig::paper()
            },
            BenchScale::Tiny => RfsConfig {
                node_min: 8,
                node_max: 20,
                ..RfsConfig::paper()
            },
        }
    }
}

type CorpusCache = Mutex<HashMap<(BenchScale, u64), Arc<Corpus>>>;
type RfsCache = Mutex<HashMap<(BenchScale, u64), Arc<RfsStructure>>>;

fn corpus_cache() -> &'static CorpusCache {
    static CACHE: std::sync::OnceLock<CorpusCache> = std::sync::OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn rfs_cache() -> &'static RfsCache {
    static CACHE: std::sync::OnceLock<RfsCache> = std::sync::OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Where built corpora persist: `qd-corpus-cache/` in `CARGO_TARGET_DIR`
/// when that is set, else in the workspace's `target/` — never relative to
/// the working directory, so a test run from a crate directory writes
/// nothing there.
fn corpus_cache_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .filter(|dir| !dir.is_empty())
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target"));
    target.join("qd-corpus-cache")
}

/// Builds (or returns the cached) corpus for a scale. Corpora are memoized
/// in-process and persisted to [`corpus_cache_dir`] so repeated `repro`
/// invocations skip the render+extract phase.
pub fn bench_corpus(scale: BenchScale, seed: u64) -> Arc<Corpus> {
    if let Some(c) = corpus_cache().lock().unwrap().get(&(scale, seed)) {
        return c.clone();
    }
    let config = scale.corpus_config(seed);
    let path = corpus_cache_dir().join(format!(
        "{}-{}-{}-{}-{}.qdc",
        config.size, config.image_size, config.seed, config.filler_count, config.with_viewpoints
    ));
    let corpus = Arc::new(
        qd_corpus::cache::load_or_build(&config, &path)
            .unwrap_or_else(|e| panic!("corpus cache {}: {e}", path.display())),
    );
    corpus_cache()
        .lock()
        .unwrap()
        .insert((scale, seed), corpus.clone());
    corpus
}

/// Builds (or returns the cached) RFS structure for a scale.
pub fn bench_rfs(scale: BenchScale, seed: u64) -> Arc<RfsStructure> {
    if let Some(r) = rfs_cache().lock().unwrap().get(&(scale, seed)) {
        return r.clone();
    }
    let corpus = bench_corpus(scale, seed);
    let rfs = Arc::new(RfsStructure::build(corpus.features(), &scale.rfs_config()));
    rfs_cache()
        .lock()
        .unwrap()
        .insert((scale, seed), rfs.clone());
    rfs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_scale_sets_requested_size() {
        let cfg = BenchScale::Sweep(1234).corpus_config(0);
        assert_eq!(cfg.size, 1234);
        assert!(!cfg.with_viewpoints);
    }

    #[test]
    fn cache_returns_same_instance() {
        let a = bench_corpus(BenchScale::Sweep(300), 9);
        let b = bench_corpus(BenchScale::Sweep(300), 9);
        assert!(Arc::ptr_eq(&a, &b));
        let ra = bench_rfs(BenchScale::Sweep(300), 9);
        let rb = bench_rfs(BenchScale::Sweep(300), 9);
        assert!(Arc::ptr_eq(&ra, &rb));
        assert_eq!(ra.len(), a.len());
    }
}
