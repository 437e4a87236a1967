//! The one persistence boundary: how the engine's binary formats (QDT2,
//! QDR2, QDC2, QDS1) are framed, and how their files are read and written.
//!
//! Framing: a four-byte magic, little-endian scalars, counts and
//! length-prefixed sections as `u64`, no trailing bytes. [`Reader`] bounds
//! every count by the payload that is left *before* anything is allocated
//! for it, so hostile bytes produce a [`CodecError`] — never a panic, an
//! overflow or an oversized reservation.
//!
//! Files: [`read_file`] and [`write_file_atomic`] are the only places the
//! persisting crates touch the filesystem (rule R10, checked by
//! `tests/static_contract.rs`), and the
//! only places the I/O failpoints fire — so every format's `from_bytes` is a
//! pure function and every format's `save` is atomic.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Why bytes failed to load, or a file failed to read or write.
#[derive(Debug)]
pub enum CodecError {
    /// The filesystem call failed, or an injected I/O fault fired.
    Io(io::Error),
    /// The bytes start with a different magic — another format, or an
    /// earlier version of this one.
    BadMagic {
        /// The magic this reader accepts.
        expected: [u8; 4],
        /// What the bytes start with.
        found: [u8; 4],
    },
    /// The bytes end before the structure they describe does.
    Truncated,
    /// The bytes are framed correctly but describe an invalid structure.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "io error: {e}"),
            CodecError::BadMagic { expected, found } => write!(
                f,
                "expected a {} file, found magic {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            CodecError::Truncated => write!(f, "truncated file"),
            CodecError::Invalid(msg) => write!(f, "invalid file: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Length-checked cursor over one encoded value.
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { rest: data }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.rest.len() {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const W: usize>(&mut self) -> Result<[u8; W], CodecError> {
        let mut b = [0u8; W];
        b.copy_from_slice(self.take(W)?);
        Ok(b)
    }

    /// One bounds check for the whole block, then a straight decode.
    fn block<T, const W: usize>(
        &mut self,
        n: usize,
        decode: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, CodecError> {
        let raw = self.take(n.checked_mul(W).ok_or(CodecError::Truncated)?)?;
        Ok(raw
            .chunks_exact(W)
            .map(|c| {
                let mut b = [0u8; W];
                b.copy_from_slice(c);
                decode(b)
            })
            .collect())
    }

    /// Consumes the four-byte magic, which must be `expected`.
    pub fn magic(&mut self, expected: &[u8; 4]) -> Result<(), CodecError> {
        let found = self.array()?;
        if found != *expected {
            return Err(CodecError::BadMagic {
                expected: *expected,
                found,
            });
        }
        Ok(())
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, CodecError> {
        self.array().map(f32::from_le_bytes)
    }

    /// The next `u64`, which must fit this platform's `usize`.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let raw = self.u64()?;
        usize::try_from(raw).map_err(|_| CodecError::Invalid(format!("{raw} does not fit usize")))
    }

    /// The next `n` little-endian `u32`s.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, CodecError> {
        self.block(n, u32::from_le_bytes)
    }

    /// The next `n` little-endian `u64`s.
    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, CodecError> {
        self.block(n, u64::from_le_bytes)
    }

    /// The next `n` little-endian `f32`s.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CodecError> {
        self.block(n, f32::from_le_bytes)
    }

    /// The next `n` little-endian `f32`s as raw words, for a caller that
    /// decodes them straight into a layout of its own.
    pub fn f32_words(&mut self, n: usize) -> Result<&'a [[u8; 4]], CodecError> {
        let raw = self.take(n.checked_mul(4).ok_or(CodecError::Truncated)?)?;
        Ok(raw.as_chunks::<4>().0)
    }

    /// A `u64` count of records still to come, each at least `record_width`
    /// bytes long: refused when the remaining payload could not hold them,
    /// so the caller may allocate for the count it gets back.
    pub fn count(&mut self, record_width: usize) -> Result<usize, CodecError> {
        let raw = self.u64()?;
        let fits = self.rest.len() / record_width.max(1);
        match usize::try_from(raw) {
            Ok(n) if n <= fits => Ok(n),
            _ => Err(CodecError::Truncated),
        }
    }

    /// A `u64` length followed by that many bytes — a nested encoding.
    pub fn section(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.count(1)?;
        self.take(len)
    }

    /// Ends the read; bytes left over are an error.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Invalid(format!(
                "{} trailing bytes",
                self.rest.len()
            )))
        }
    }
}

/// Builds one encoded value; each method is the inverse of the [`Reader`]
/// method of the same name (`count` and `usize` both write a `u64`).
pub struct Writer {
    out: Vec<u8>,
}

impl Writer {
    /// Starts an encoding with its magic.
    pub fn new(magic: &[u8; 4]) -> Self {
        Self::with_capacity(magic, 0)
    }

    /// Starts an encoding with its magic and room for `bytes` in all, for
    /// a caller that knows its size: a buffer grown by doubling past a
    /// large block copies it, holding both copies at once.
    pub fn with_capacity(magic: &[u8; 4], bytes: usize) -> Self {
        let mut out = Vec::with_capacity(bytes.max(magic.len()));
        out.extend_from_slice(magic);
        Writer { out }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    pub fn f32(&mut self, v: f32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a count, length or index as a `u64`.
    pub fn usize(&mut self, v: usize) {
        // CAST: usize is at most 64 bits on every supported target.
        self.u64(v as u64);
    }

    /// Appends each `u32`, little-endian, without a count.
    pub fn u32s(&mut self, vs: &[u32]) {
        self.out.reserve(vs.len() * 4);
        vs.iter().for_each(|&v| self.u32(v));
    }

    /// Appends each `u64`, little-endian, without a count.
    pub fn u64s(&mut self, vs: &[u64]) {
        self.out.reserve(vs.len() * 8);
        vs.iter().for_each(|&v| self.u64(v));
    }

    /// Appends each `f32`, little-endian, without a count.
    pub fn f32s(&mut self, vs: &[f32]) {
        self.out.reserve(vs.len() * 4);
        vs.iter().for_each(|&v| self.f32(v));
    }

    /// Appends room for `n` little-endian `f32`s, zeroed, and hands it to
    /// the caller to fill — the inverse of [`Reader::f32_words`], for a
    /// caller that encodes straight from a layout of its own.
    pub fn f32_words(&mut self, n: usize) -> &mut [[u8; 4]] {
        let start = self.out.len();
        self.out.resize(start + 4 * n, 0);
        self.out[start..].as_chunks_mut::<4>().0
    }

    /// Appends `bytes` behind their `u64` length.
    pub fn section(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.out.extend_from_slice(bytes);
    }

    /// The finished encoding.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// The three failpoints of one family of files.
pub struct IoSites {
    read: &'static str,
    short_read: &'static str,
    write: &'static str,
}

/// Failpoints of the corpus cache (QDC2).
pub const CACHE_SITES: IoSites = IoSites {
    read: crate::site::CACHE_READ,
    short_read: crate::site::CACHE_SHORT_READ,
    write: crate::site::CACHE_WRITE,
};

/// Failpoints of the index, RFS and shard-set files (QDT2, QDR2, QDS1).
pub const INDEX_SITES: IoSites = IoSites {
    read: crate::site::INDEX_READ,
    short_read: crate::site::INDEX_SHORT_READ,
    write: crate::site::INDEX_WRITE,
};

fn injected(site: &str) -> CodecError {
    CodecError::Io(io::Error::other(format!("injected fault: {site}")))
}

/// Reads the whole of `path`. The read fault and the torn read (a
/// deterministic, payload-chosen prefix of the file) fire here, once per
/// file, so parsing never sees a failpoint.
pub fn read_file(path: &Path, sites: &IoSites) -> Result<Vec<u8>, CodecError> {
    let mut data = std::fs::read(path)?;
    if crate::should_fail(sites.read) {
        return Err(injected(sites.read));
    }
    if let Some(payload) = crate::fire(sites.short_read) {
        // CAST: only the low bits matter; the modulus keeps every prefix
        // length, including the whole file, reachable.
        data.truncate(payload as usize % (data.len() + 1));
    }
    Ok(data)
}

/// A temp-file name in `path`'s own directory (rename is only atomic within
/// a filesystem); the added extension keeps it from matching `*.qd?` globs.
fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `bytes` to `path` through a temporary sibling and a rename, so a
/// reader — or a save that is interrupted or fails — never sees or leaves a
/// partial file. Creates `path`'s directory when it is missing.
pub fn write_file_atomic(path: &Path, bytes: &[u8], sites: &IoSites) -> Result<(), CodecError> {
    if crate::should_fail(sites.write) {
        return Err(injected(sites.write));
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = temp_sibling(path);
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    Ok(written?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_writer_method_reads_back() {
        let mut w = Writer::new(b"TEST");
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f32(-1.5);
        w.usize(3);
        w.u32s(&[1, 2, 3]);
        w.u64s(&[4, 5]);
        w.f32s(&[0.25, f32::MAX]);
        let words = [-0.0f32, 3.5, f32::MIN_POSITIVE].map(f32::to_le_bytes);
        w.f32_words(3).copy_from_slice(&words);
        w.section(b"nested");
        let bytes = w.finish();

        let mut r = Reader::new(&bytes);
        r.magic(b"TEST").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap(), -1.5);
        let n = r.count(4).unwrap();
        assert_eq!(r.u32s(n).unwrap(), [1, 2, 3]);
        assert_eq!(r.u64s(2).unwrap(), [4, 5]);
        assert_eq!(r.f32s(2).unwrap(), [0.25, f32::MAX]);
        let words = r
            .f32_words(3)
            .unwrap()
            .iter()
            .map(|&w| u32::from_le_bytes(w));
        let bits = [-0.0f32, 3.5, f32::MIN_POSITIVE].map(f32::to_bits);
        assert!(words.eq(bits));
        assert_eq!(r.section().unwrap(), b"nested");
        r.finish().unwrap();

        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let all = (|| {
                r.magic(b"TEST")?;
                r.u8()?;
                r.u32()?;
                r.u64()?;
                r.f32()?;
                let n = r.count(4)?;
                r.u32s(n)?;
                r.u64s(2)?;
                r.f32s(2)?;
                r.f32_words(3)?;
                r.section().map(|_| ())
            })();
            assert!(matches!(all, Err(CodecError::Truncated)), "cut {cut}");
        }
    }

    #[test]
    fn hostile_counts_and_lengths_fail_before_any_allocation() {
        let mut w = Writer::new(b"TEST");
        w.u64(u64::MAX);
        w.u64(1 << 32);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes[4..]);
        assert!(matches!(r.section(), Err(CodecError::Truncated)));
        assert!(matches!(r.count(8), Err(CodecError::Truncated)));
        assert!(matches!(
            Reader::new(&[]).f32s(usize::MAX),
            Err(CodecError::Truncated)
        ));
        assert!(matches!(
            Reader::new(&[0; 8]).f32_words(usize::MAX / 2),
            Err(CodecError::Truncated)
        ));
        assert!(matches!(
            Reader::new(b"QDT1....").magic(b"QDT2"),
            Err(CodecError::BadMagic { found, .. }) if &found == b"QDT1"
        ));
        assert!(Reader::new(b"x").finish().is_err());
    }

    #[test]
    fn a_failed_write_leaves_nothing_behind() {
        let dir = std::env::temp_dir().join("qd_codec_test/made/on/demand");
        let path = dir.join("value.bin");
        std::fs::remove_dir_all(&dir).ok();
        let plan = crate::FaultPlan::new(1).site(crate::site::INDEX_WRITE, crate::Mode::Always);
        let err = crate::with_plan(&plan, || write_file_atomic(&path, b"abc", &INDEX_SITES));
        assert!(err.unwrap_err().to_string().contains("injected"));
        assert!(!dir.exists());

        write_file_atomic(&path, b"abc", &INDEX_SITES).unwrap();
        assert_eq!(read_file(&path, &INDEX_SITES).unwrap(), b"abc");
        assert!(!temp_sibling(&path).exists());
        // Renaming onto a directory fails after the temp file was written.
        assert!(write_file_atomic(&dir, b"abc", &INDEX_SITES).is_err());
        assert!(!temp_sibling(&dir).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
