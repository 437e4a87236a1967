#![warn(missing_docs)]
// A serving path returns a typed error or degrades; it never panics on input.
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Query Decomposition — the paper's primary contribution.
//!
//! The traditional k-NN retrieval model confines a query's result to a single
//! neighborhood of the feature space. Query Decomposition (QD) instead
//! decomposes an initial query, through rounds of relevance feedback, into
//! independent *localized subqueries* — one per semantically relevant
//! subcluster — and merges their local results. Two pieces make this cheap:
//!
//! * the **Relevance Feedback Support (RFS) structure** ([`rfs`]): an
//!   R\*-tree-backed hierarchical clustering whose every node carries
//!   *representative images* chosen bottom-up by k-means, so feedback rounds
//!   are pure tree descent with no k-NN work;
//! * **localized multipoint k-NN** ([`localknn`]): the only k-NN computation
//!   happens in the final round, inside small subclusters, with the paper's
//!   boundary-ratio test (threshold 0.4) expanding near-boundary queries to
//!   the parent cluster.
//!
//! [`session`] drives the multi-round protocol, [`ranking`] merges and groups
//! the local results (§3.4), [`user`] simulates the relevance-feedback oracle
//! (standing in for the paper's 20 human testers), [`metrics`] implements
//! precision and the Ground Truth Inclusion Ratio, [`baselines`] provides the
//! comparison techniques (Multiple Viewpoints, query point movement,
//! multipoint query, Qcluster), and [`eval`] packages whole-table experiment
//! runs for the bench harness.

pub mod baselines;
pub mod client;
pub mod error;
pub mod eval;
pub mod localknn;
pub mod metrics;
pub mod ranking;
pub mod rfs;
pub mod session;
#[cfg(test)]
pub(crate) mod testutil;
pub mod user;

pub use client::{
    client_feedback, submit_with_retry, ClientRfs, RemoteQuery, RetryPolicy, SubmitReport,
};
pub use error::QdError;
pub use metrics::{gtir, precision, RoundTrace};
pub use rfs::{FeedbackHierarchy, RfsConfig, RfsStructure};
pub use session::{
    assemble_outcome, run_feedback_rounds, split_budget, try_execute_subqueries, try_run_session,
    validate_subqueries, Degradation, FeedbackRounds, FeedbackStepper, FinalExecution,
    MergeStrategy, QdConfig, QdOutcome, ResultGroup, ServedOutcome,
};
pub use user::SimulatedUser;
