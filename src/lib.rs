#![warn(missing_docs)]

//! # Query Decomposition
//!
//! A complete reproduction of *"Query Decomposition: A Multiple Neighborhood
//! Approach to Relevance Feedback Processing in Content-based Image
//! Retrieval"* (Hua, Yu, Liu — ICDE 2006), built from scratch in Rust.
//!
//! Traditional content-based image retrieval answers a query with the k
//! nearest neighbors of a single query point — one neighborhood of the
//! feature space. But semantically identical images (a sedan photographed
//! from four angles) form *several distant clusters*. Query Decomposition
//! (QD) splits a query, through rounds of relevance feedback over a
//! hierarchical **Relevance Feedback Support** structure, into independent
//! localized subqueries — one per relevant cluster — and merges their
//! results.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`linalg`] | vectors, metrics, running moments, PCA |
//! | [`imagery`] | RGB rasters, HSV, MV viewpoints, synthetic scenes |
//! | [`features`] | the paper's 37-dimensional feature vector |
//! | [`index`] | from-scratch R\*-tree with localized k-NN |
//! | [`cluster`] | k-means / k-means++, silhouette, agglomerative |
//! | [`corpus`] | synthetic Corel-style corpus + the 11 test queries |
//! | [`core`] | RFS structure, QD sessions, baselines, metrics |
//! | [`shard`] | sharded index: scatter-gather k-NN, incremental updates, snapshots |
//! | [`serve`] | multi-tenant session server: admission, deadlines, isolation |
//! | [`obs`] | deterministic observability: counters, spans, traces |
//!
//! ## Quickstart
//!
//! ```no_run
//! use query_decomposition::prelude::*;
//!
//! // 1. Build a corpus (renders synthetic images and extracts features).
//! let corpus = Corpus::build(&CorpusConfig::test_small(42));
//!
//! // 2. Build the RFS structure over its feature vectors.
//! let rfs = RfsStructure::build(corpus.features(), &RfsConfig::test_small());
//!
//! // 3. Pick a query and run a 3-round QD session with a simulated user.
//! let query = queries::standard_queries(corpus.taxonomy())
//!     .into_iter()
//!     .find(|q| q.name == "bird")
//!     .unwrap();
//! let k = corpus.ground_truth(&query).len();
//! let mut user = SimulatedUser::oracle(&query, 7);
//! let outcome = try_run_session(&corpus, &rfs, &query, &mut user, k, &QdConfig::default())
//!     .expect("a well-formed session")
//!     .into_outcome();
//!
//! println!(
//!     "precision {:.2}, GTIR {:.2}, {} subqueries",
//!     precision(&corpus, &query, &outcome.results),
//!     gtir(&corpus, &query, &outcome.results),
//!     outcome.subquery_count,
//! );
//! ```

pub use qd_cluster as cluster;
pub use qd_core as core;
pub use qd_corpus as corpus;
pub use qd_features as features;
pub use qd_imagery as imagery;
pub use qd_index as index;
pub use qd_linalg as linalg;
pub use qd_obs as obs;
pub use qd_serve as serve;
pub use qd_shard as shard;

/// The types most applications need.
pub mod prelude {
    pub use qd_core::baselines::BaselineConfig;
    pub use qd_core::error::QdError;
    pub use qd_core::eval::Baseline;
    pub use qd_core::metrics::{gtir, precision, recall};
    pub use qd_core::rfs::{RfsConfig, RfsStructure};
    pub use qd_core::session::{
        try_run_session, Degradation, MergeStrategy, QdConfig, QdOutcome, ServedOutcome,
    };
    pub use qd_core::user::SimulatedUser;
    pub use qd_corpus::{queries, Corpus, CorpusConfig, QuerySpec, Taxonomy};
    pub use qd_features::{FeatureExtractor, FEATURE_DIM};
    pub use qd_imagery::{Image, SceneTemplate, Viewpoint};
    pub use qd_index::{RStarTree, TreeConfig};
    pub use qd_serve::{
        EvictReason, LoadConfig, LoadPlan, Scenario, ServeConfig, ServeReport, Server, SessionId,
        SessionOutcome, SessionReport, SessionSpec, SessionState,
    };
    pub use qd_shard::{build_sharded_rfs, ShardConfig, ShardPublisher, ShardSet};
}
