#![warn(missing_docs)]
// A serving path returns a typed error or degrades; it never panics on input.
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! The evaluation corpus: a synthetic stand-in for the paper's 15,000-image
//! Corel database.
//!
//! The paper's experiments rest on three properties of the data set:
//!
//! 1. images are grouped into expert-labelled *categories* that serve as
//!    ground truth;
//! 2. one semantic *concept* (e.g. "car") spans several visually distinct
//!    *subconcepts* ("modern sedan", "antique car", "steamed car") whose
//!    feature vectors form well-separated clusters;
//! 3. the bulk of the database is unrelated filler whose points scatter
//!    between those clusters.
//!
//! [`taxonomy::Taxonomy`] defines the label space — 28 named subconcepts
//! covering Table 1's eleven test queries plus the four "white sedan" poses
//! of Figure 1, topped up with procedurally generated filler categories to
//! ~150 total, matching the paper's "15,000 images from about 150
//! categories". [`templates`] maps every subconcept to a `SceneTemplate`
//! whose renders are run through the *genuine* 37-dimensional extraction
//! pipeline, so the cluster geometry is produced by the same code path a
//! real deployment would use. [`corpus::Corpus`] materializes feature
//! vectors, labels, and (optionally) per-viewpoint features for the MV
//! baseline; [`queries`] defines the evaluation queries and their ground
//! truth.

pub mod cache;
pub mod corpus;
pub mod queries;
pub mod taxonomy;
pub mod templates;

pub use corpus::{Corpus, CorpusConfig};
pub use queries::QuerySpec;
pub use taxonomy::{SubconceptId, Taxonomy};
