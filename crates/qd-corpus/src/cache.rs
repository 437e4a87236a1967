//! Corpus disk cache.
//!
//! Building the 15,000-image corpus renders and feature-extracts every image
//! (~10 s in release, much longer in debug); the database-size sweeps of
//! Figures 10/11 build several corpora per run. This module persists a built
//! corpus to a compact little-endian binary file and reloads it instantly,
//! verifying that the cached file matches the requested configuration.
//!
//! Format (`QDC2`, framed by [`qd_fault::codec`]): header magic, the five
//! config fields, the normalizer, the feature table (with an explicit
//! `block_len = n × dim` field mirroring the index's SoA layout contract,
//! cross-checked on load), the labels, and the per-viewpoint tables: all
//! three, each tag once, when the header's `with_viewpoints` flag is set,
//! and none when it is not. The taxonomy is *not* stored — it is deterministic in
//! `(filler_count, seed)` and is rebuilt on load.
//!
//! Robustness comes from the shared boundary: [`save`] is atomic, [`load`]
//! carries the `corpus.cache.{read,short_read,write}` failpoints, and
//! [`from_bytes`] turns arbitrary corruption into a `CodecError`, never a
//! panic (swept in `tests/persistence_properties.rs`). That includes a
//! feature or viewpoint table holding a NaN or an infinity: every value is
//! a coordinate the index orders, so a non-finite one is refused on load.

use crate::corpus::{Corpus, CorpusConfig};
use crate::taxonomy::{SubconceptId, Taxonomy};
use qd_fault::codec::{self, CodecError, Reader, Writer, CACHE_SITES};
use qd_imagery::Viewpoint;
use qd_linalg::{Normalizer, TileTable};
use std::path::Path;

const MAGIC: &[u8; 4] = b"QDC2";

/// Most filler categories a cache header may name. The taxonomy is rebuilt
/// from this count before anything else can vouch for it, so it is capped
/// (the paper's database has 121); a corpus with more cannot be saved in a
/// form [`load`] accepts.
pub const MAX_FILLERS: usize = 1 << 16;

/// Serializes a corpus to `QDC2` bytes.
pub fn to_bytes(corpus: &Corpus) -> Vec<u8> {
    let mut w = Writer::new(MAGIC);
    let cfg = corpus.config();
    w.usize(cfg.size);
    w.usize(cfg.image_size);
    w.u64(cfg.seed);
    w.usize(cfg.filler_count);
    w.u8(u8::from(cfg.with_viewpoints));

    let (means, inv_stds) = corpus.normalizer().to_parts();
    w.usize(means.len());
    w.f32s(means);
    w.f32s(inv_stds);

    w.usize(corpus.len());
    w.usize(corpus.dim());
    // Explicit SoA block length (n × dim), cross-checked on load so a
    // corrupted count field can never silently re-shape the table.
    w.usize(corpus.len() * corpus.dim());
    for row in corpus.features() {
        w.f32s(row);
    }
    for &label in corpus.labels() {
        w.u32(label.0);
    }

    // Each viewpoint table is written row by row out of its tiles, so the
    // bytes are those of the row tables the format was defined on.
    let tables: Vec<(Viewpoint, &TileTable)> = [
        Viewpoint::Negative,
        Viewpoint::Grayscale,
        Viewpoint::GrayNegative,
    ]
    .into_iter()
    .filter_map(|vp| corpus.viewpoint_table(vp).map(|t| (vp, t)))
    .collect();
    w.usize(tables.len());
    for (vp, table) in tables {
        w.u8(viewpoint_tag(vp));
        for id in 0..table.len() {
            for (word, v) in w.f32_words(table.dims()).iter_mut().zip(table.row(id)) {
                *word = v.to_le_bytes();
            }
        }
    }
    w.finish()
}

/// Deserializes a corpus from bytes produced by [`to_bytes`], under
/// whatever configuration the header names.
pub fn from_bytes(data: &[u8]) -> Result<Corpus, CodecError> {
    let bad = |msg: &str| CodecError::Invalid(msg.to_string());
    let mut r = Reader::new(data);
    r.magic(MAGIC)?;
    let config = CorpusConfig {
        size: r.usize()?,
        image_size: r.usize()?,
        seed: r.u64()?,
        filler_count: r.usize()?,
        with_viewpoints: r.u8()? != 0,
    };
    if config.filler_count > MAX_FILLERS {
        return Err(bad("implausible filler category count"));
    }

    let dim = r.usize()?;
    if dim == 0 || dim > 4096 {
        return Err(bad("corrupt dimensionality"));
    }
    let normalizer = Normalizer::from_parts(r.f32s(dim)?, r.f32s(dim)?);

    // Every image costs at least its feature row.
    let n = r.count(4 * dim)?;
    let (table_dim, block_len) = (r.usize()?, r.usize()?);
    if n != config.size || table_dim != dim {
        return Err(bad("inconsistent table dimensions"));
    }
    if n.checked_mul(dim) != Some(block_len) {
        return Err(bad("feature block length does not match n × dim"));
    }
    let features = (0..n).map(|_| r.f32s(dim)).collect::<Result<Vec<_>, _>>()?;
    finite(features.iter().flatten())?;
    let taxonomy = Taxonomy::standard(config.filler_count, config.seed);
    let labels = r.u32s(n)?;
    if labels.iter().any(|&raw| raw as usize >= taxonomy.len()) {
        return Err(bad("label out of taxonomy range"));
    }
    let labels = labels.into_iter().map(SubconceptId).collect();

    let vp_count = r.count(1)?;
    if vp_count > 3 {
        return Err(bad("corrupt viewpoint count"));
    }
    // The header's flag promises all three tables or none.
    if vp_count != if config.with_viewpoints { 3 } else { 0 } {
        return Err(bad("viewpoint count does not match the header"));
    }
    let mut viewpoint_tables: Vec<(Viewpoint, TileTable)> = Vec::with_capacity(vp_count);
    for _ in 0..vp_count {
        let vp = viewpoint_from_tag(r.u8()?).ok_or_else(|| bad("unknown viewpoint tag"))?;
        if viewpoint_tables.iter().any(|(seen, _)| *seen == vp) {
            return Err(bad("repeated viewpoint tag"));
        }
        // Straight into tiles: the table never exists as rows.
        let mut table = TileTable::with_capacity(dim, n);
        for _ in 0..n {
            table.push(r.f32_words(dim)?.iter().map(|w| f32::from_le_bytes(*w)));
        }
        finite(table.tiles().flatten())?;
        viewpoint_tables.push((vp, table));
    }
    r.finish()?;

    Ok(Corpus::from_parts(
        config,
        taxonomy,
        features,
        labels,
        normalizer,
        viewpoint_tables,
    ))
}

/// Feature values become R*-tree corners, which must be ordered numbers: a
/// NaN or an infinity is refused on load rather than panicking the build.
fn finite<'a>(values: impl IntoIterator<Item = &'a f32>) -> Result<(), CodecError> {
    if values.into_iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(CodecError::Invalid("non-finite feature value".to_string()))
    }
}

/// Saves a corpus to `path`, atomically.
pub fn save(corpus: &Corpus, path: &Path) -> Result<(), CodecError> {
    codec::write_file_atomic(path, &to_bytes(corpus), &CACHE_SITES)
}

/// Loads a corpus from `path` with whatever configuration it was built
/// under (the config travels in the file header).
pub fn load_any(path: &Path) -> Result<Corpus, CodecError> {
    from_bytes(&codec::read_file(path, &CACHE_SITES)?)
}

/// Loads a corpus from `path`, verifying it was built with `config`.
pub fn load(path: &Path, config: &CorpusConfig) -> Result<Corpus, CodecError> {
    let corpus = load_any(path)?;
    if corpus.config() != config {
        return Err(CodecError::Invalid(
            "cached corpus was built with a different config".to_string(),
        ));
    }
    Ok(corpus)
}

/// Loads the cache when present and valid; otherwise builds the corpus and
/// writes the cache. A missing, stale, or corrupt cache file triggers a
/// rebuild; an IO error while *writing* the fresh cache is surfaced to the
/// caller (the build result would silently stop being reusable otherwise).
pub fn load_or_build(config: &CorpusConfig, path: &Path) -> Result<Corpus, CodecError> {
    if let Ok(corpus) = load(path, config) {
        return Ok(corpus);
    }
    let corpus = Corpus::build(config);
    save(&corpus, path)?;
    Ok(corpus)
}

fn viewpoint_tag(vp: Viewpoint) -> u8 {
    match vp {
        Viewpoint::Normal => 0,
        Viewpoint::Negative => 1,
        Viewpoint::Grayscale => 2,
        Viewpoint::GrayNegative => 3,
    }
}

fn viewpoint_from_tag(tag: u8) -> Option<Viewpoint> {
    match tag {
        0 => Some(Viewpoint::Normal),
        1 => Some(Viewpoint::Negative),
        2 => Some(Viewpoint::Grayscale),
        3 => Some(Viewpoint::GrayNegative),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> CorpusConfig {
        CorpusConfig {
            size: 40,
            image_size: 16,
            seed: 5,
            filler_count: 1,
            with_viewpoints: true,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("qd_corpus_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn save_load_roundtrips_exactly() {
        let config = tiny_config();
        let corpus = Corpus::build(&config);
        let path = tmp("roundtrip.qdc");
        save(&corpus, &path).unwrap();
        let loaded = load(&path, &config).unwrap();
        assert_eq!(loaded.features(), corpus.features());
        assert_eq!(loaded.labels(), corpus.labels());
        for vp in Viewpoint::ALL {
            assert_eq!(
                loaded.viewpoint_table(vp),
                corpus.viewpoint_table(vp),
                "{vp:?}"
            );
        }
        // The reloaded corpus can still re-render images.
        assert_eq!(loaded.render_image(3), corpus.render_image(3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bytes_survive_a_load_unchanged() {
        // The viewpoint tables are parsed into tiles and written back out
        // of them: the round trip must give back every byte.
        for with_viewpoints in [true, false] {
            let config = CorpusConfig {
                size: 21,
                with_viewpoints,
                ..tiny_config()
            };
            let bytes = to_bytes(&Corpus::build(&config));
            assert_eq!(to_bytes(&from_bytes(&bytes).unwrap()), bytes);
        }
    }

    #[test]
    fn load_rejects_mismatched_config() {
        let config = tiny_config();
        let corpus = Corpus::build(&config);
        let path = tmp("mismatch.qdc");
        save(&corpus, &path).unwrap();
        let mut other = config.clone();
        other.seed = 6;
        assert!(load(&path, &other).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_corruption() {
        let config = tiny_config();
        let corpus = Corpus::build(&config);
        let path = tmp("corrupt.qdc");
        save(&corpus, &path).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        data.truncate(data.len() / 2);
        std::fs::write(&path, &data).unwrap();
        assert!(load(&path, &config).is_err());
        std::fs::write(&path, b"garbage").unwrap();
        assert!(load(&path, &config).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_table_values_are_refused() {
        let config = tiny_config();
        let bytes = to_bytes(&Corpus::build(&config));
        let (n, dim) = (config.size, 37);
        // magic, five config fields, dim, normalizer, then n / dim / block_len
        let features = 4 + 8 * 4 + 1 + 8 + 2 * 4 * dim + 3 * 8;
        // the feature table, the labels, the table count and one tag
        let first_viewpoint = features + 4 * n * dim + 4 * n + 8 + 1;
        for at in [features + 4 * 3 * dim, first_viewpoint + 4 * (5 * dim + 2)] {
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut data = bytes.clone();
                data[at..at + 4].copy_from_slice(&bad.to_le_bytes());
                let err = from_bytes(&data).err().map(|e| e.to_string());
                assert_eq!(
                    err.as_deref(),
                    Some("invalid file: non-finite feature value"),
                    "{bad} at byte {at}"
                );
            }
        }
        assert!(from_bytes(&bytes).is_ok());
    }

    #[test]
    fn the_largest_filler_count_round_trips_and_one_more_is_refused() {
        let config = CorpusConfig {
            size: 4,
            image_size: 8,
            seed: 5,
            filler_count: MAX_FILLERS,
            with_viewpoints: false,
        };
        let corpus = Corpus::build(&config);
        let mut bytes = to_bytes(&corpus);
        let loaded = from_bytes(&bytes).unwrap();
        assert_eq!(loaded.config(), &config);
        assert_eq!(loaded.taxonomy().len(), corpus.taxonomy().len());
        assert_eq!(loaded.features(), corpus.features());
        // magic, size, image_size, seed, then filler_count
        bytes[28..36].copy_from_slice(&(MAX_FILLERS as u64 + 1).to_le_bytes());
        let err = from_bytes(&bytes).err().map(|e| e.to_string());
        assert_eq!(
            err.as_deref(),
            Some("invalid file: implausible filler category count")
        );
    }

    #[test]
    fn load_or_build_builds_then_caches_and_replaces_a_stale_file() {
        let config = tiny_config();
        let path = tmp("load_or_build.qdc");
        std::fs::remove_file(&path).ok();
        let first = load_or_build(&config, &path).unwrap();
        assert!(path.exists(), "cache file not written");
        let second = load_or_build(&config, &path).unwrap();
        assert_eq!(first.features(), second.features());

        // A file from the pre-arena format is refused by its magic, and
        // load_or_build treats it as stale: a fresh QDC2 file replaces it.
        let mut data = std::fs::read(&path).unwrap();
        data[..4].copy_from_slice(b"QDC1");
        std::fs::write(&path, &data).unwrap();
        let err = load(&path, &config).unwrap_err();
        assert!(
            matches!(err, CodecError::BadMagic { found, .. } if &found == b"QDC1"),
            "{err}"
        );
        let rebuilt = load_or_build(&config, &path).unwrap();
        assert_eq!(rebuilt.features(), first.features());
        assert_eq!(&std::fs::read(&path).unwrap()[..4], MAGIC);
        std::fs::remove_file(&path).ok();
    }
}
