//! Typed errors for the serving path.
//!
//! The interactive serving path (session execution, localized k-NN, the
//! client/server boundary) never panics on bad input: malformed marks,
//! foreign node handles, dimension mismatches, and transport failures all
//! surface as [`QdError`] so a caller can retry, degrade, or report — the
//! paper's feedback loop only matters if a round always returns *something*.

use std::fmt;

/// Every way the serving path can fail without producing a ranked list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QdError {
    /// A subquery carried no marked images.
    EmptySubquery {
        /// Index of the offending subquery in the request.
        subquery: usize,
    },
    /// A marked image id does not exist in the corpus.
    ImageOutOfRange {
        /// Index of the offending subquery in the request.
        subquery: usize,
        /// The out-of-range image id.
        image: usize,
        /// Number of images in the corpus.
        corpus_len: usize,
    },
    /// A subquery referenced a cluster handle the server's tree does not
    /// hold (replica/server divergence).
    UnknownNode {
        /// Index of the offending subquery in the request.
        subquery: usize,
        /// Raw index of the unknown node handle.
        node_index: usize,
    },
    /// Configured feature weights do not match the corpus dimensionality.
    WeightDimension {
        /// Number of weights supplied.
        got: usize,
        /// Corpus feature dimensionality.
        want: usize,
    },
    /// Every localized subquery worker panicked; there is no partial result
    /// left to degrade to.
    AllSubqueriesFailed {
        /// Panic messages, in subquery order.
        panics: Vec<String>,
    },
    /// The session was configured with zero feedback rounds: there is no
    /// final round to take subqueries from.
    NoFeedbackRounds,
    /// The session was configured with more feedback rounds than
    /// [`MAX_FEEDBACK_ROUNDS`](crate::session::MAX_FEEDBACK_ROUNDS).
    TooManyFeedbackRounds {
        /// Rounds asked for.
        rounds: usize,
        /// The most rounds a session may run.
        max: usize,
    },
    /// The client exhausted its retry budget against the server.
    RetriesExhausted {
        /// Attempts performed (== the policy's maximum).
        attempts: usize,
        /// Description of the last failure observed.
        last_error: String,
    },
}

impl fmt::Display for QdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QdError::EmptySubquery { subquery } => {
                write!(f, "subquery {subquery} has no marked images")
            }
            QdError::ImageOutOfRange {
                subquery,
                image,
                corpus_len,
            } => write!(
                f,
                "subquery {subquery} marks image {image}, but the corpus holds {corpus_len}"
            ),
            QdError::UnknownNode {
                subquery,
                node_index,
            } => write!(
                f,
                "subquery {subquery} references unknown cluster node {node_index}"
            ),
            QdError::WeightDimension { got, want } => {
                write!(
                    f,
                    "feature weights have {got} dimensions, corpus has {want}"
                )
            }
            QdError::AllSubqueriesFailed { panics } => {
                write!(
                    f,
                    "all {} localized subqueries failed: {:?}",
                    panics.len(),
                    panics
                )
            }
            QdError::NoFeedbackRounds => {
                write!(
                    f,
                    "a session needs at least one feedback round (rounds = 0)"
                )
            }
            QdError::TooManyFeedbackRounds { rounds, max } => {
                write!(
                    f,
                    "a session may run at most {max} feedback rounds (rounds = {rounds})"
                )
            }
            QdError::RetriesExhausted {
                attempts,
                last_error,
            } => {
                write!(
                    f,
                    "gave up after {attempts} attempts (last error: {last_error})"
                )
            }
        }
    }
}

impl std::error::Error for QdError {}
