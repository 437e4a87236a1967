#![warn(missing_docs)]

//! Dense linear-algebra primitives for the Query Decomposition reproduction.
//!
//! The CBIR pipeline represents every image as a point in a 37-dimensional
//! feature space (see `qd-features`). This crate provides the small, dependency
//! free numeric substrate everything else builds on:
//!
//! * [`vector`] — element-wise vector arithmetic over `&[f32]` slices,
//! * [`metric`] — the distance measures used by retrieval and clustering,
//! * [`stats`] — running moments and per-dimension z-score normalization,
//! * [`tile`] — a row table stored as the dimension-major tiles the
//!   eight-lane distance kernel reads,
//! * [`matrix`] — a minimal row-major dense matrix,
//! * [`pca`] — principal component analysis via cyclic Jacobi eigendecomposition
//!   (used to regenerate Figure 1 of the paper).
//!
//! All routines operate on `f32` data, matching the storage type of the image
//! feature vectors, but accumulate in `f64` where numerical robustness matters
//! (moments, covariance, eigensolves).

pub mod matrix;
pub mod metric;
pub mod pca;
pub mod stats;
pub mod tile;
pub mod vector;

pub use matrix::Matrix;
pub use metric::Metric;
pub use pca::Pca;
pub use stats::{Normalizer, RunningStats};
pub use tile::TileTable;
