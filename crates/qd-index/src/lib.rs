#![warn(missing_docs)]
// A serving path returns a typed error or degrades; it never panics on input.
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! An R\*-tree over feature-space points.
//!
//! The paper's Relevance Feedback Support structure is "constructed by
//! hierarchically clustering the images in the database … similar to the
//! R\*-tree" (§3.1), with node capacities of 70–100 images producing a
//! 3-level hierarchy over the 15,000-image database. This crate is that
//! substrate: a from-scratch R\*-tree (Beckmann et al., SIGMOD 1990) with
//!
//! * full R\* insertion — `ChooseSubtree` with minimum overlap enlargement at
//!   the leaf level, `OverflowTreatment` with forced reinsertion (p = 30 %),
//!   and the topological margin/overlap split;
//! * deletion with tree condensation and orphan reinsertion;
//! * best-first (branch-and-bound) k-nearest-neighbor search, both global and
//!   restricted to a subtree — the latter is what makes the paper's
//!   *localized* k-NN computations cheap;
//! * bounding-rectangle range search;
//! * a bulk loader (kd-style recursive tiling) for construction-cost
//!   comparisons;
//! * node-access accounting, the unit in which §5.2.2 measures I/O cost;
//! * structural exposure (node ids, levels, rectangles, children) so the RFS
//!   builder in `qd-core` can attach representative images to every cluster.
//!
//! The tree stores owned points (`Vec<f32>`) tagged with caller-assigned
//! `u64` ids; for the CBIR workload these are image ids.

pub mod persist;
pub mod rect;
pub mod traits;
pub mod tree;

pub use rect::Rect;
pub use traits::KnnIndex;
pub use tree::{BudgetedKnn, Neighbor, NodeId, RStarTree, TreeConfig};
