//! The paper's client–server configuration (§4, "More Scalable" in §6).
//!
//! "Since these [representative] images are substantially smaller than the
//! total database size, in practice our software can be configured such that
//! the RFS structure and relevance feedback mechanisms may run in the user
//! computer. In this client-server configuration, the user would first
//! identify the final query images on the client machine and only then
//! submit them to the server to initiate the localized k-NN computations."
//!
//! [`ClientRfs`] is that client-side replica: the cluster hierarchy and the
//! representative lists — **no feature vectors, no image data** — roughly 5 %
//! of the database by object count and a small constant per node. Feedback
//! rounds run against it byte-for-byte identically to the server (both go
//! through [`run_feedback_rounds`]); the resulting [`RemoteQuery`] is the
//! only thing shipped to the server, which answers it with the usual
//! localized k-NN execution.

use crate::error::QdError;
use crate::rfs::{FeedbackHierarchy, RfsStructure};
use crate::session::{
    run_feedback_rounds, try_execute_subqueries, validate_subqueries, FinalExecution, QdConfig,
};
use crate::user::SimulatedUser;
use qd_corpus::taxonomy::SubconceptId;
use qd_corpus::Corpus;
use qd_index::NodeId;

/// One node of the client replica.
#[derive(Debug, Clone)]
struct ClientNode {
    leaf: bool,
    reps: Vec<usize>,
    /// The child cluster each representative traces to, parallel to `reps`
    /// (`None` throughout a leaf).
    rep_child: Vec<Option<NodeId>>,
}

/// The thin client-side copy of the RFS structure: hierarchy +
/// representative ids only.
#[derive(Debug, Clone)]
pub struct ClientRfs {
    root: NodeId,
    /// Indexed by [`NodeId::index`]; `None` for an arena slot the tree has
    /// freed.
    nodes: Vec<Option<ClientNode>>,
}

impl ClientRfs {
    /// Extracts the client replica from a full server-side structure.
    pub fn replicate(rfs: &RfsStructure) -> Self {
        let tree = rfs.tree();
        let mut nodes = Vec::new();
        for n in tree.node_ids() {
            let reps = rfs.representatives(n).to_vec();
            let rep_child = reps
                .iter()
                .map(|&rep| rfs.child_containing(n, rep))
                .collect();
            if nodes.len() <= n.index() {
                nodes.resize_with(n.index() + 1, || None);
            }
            nodes[n.index()] = Some(ClientNode {
                leaf: tree.is_leaf(n),
                reps,
                rep_child,
            });
        }
        Self {
            root: tree.root(),
            nodes,
        }
    }

    /// The replicated node `n`, if the replica holds it.
    fn node(&self, n: NodeId) -> Option<&ClientNode> {
        self.nodes.get(n.index())?.as_ref()
    }

    /// Number of replicated hierarchy nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().flatten().count()
    }

    /// Number of distinct representative image ids the client holds.
    pub fn representative_count(&self) -> usize {
        let mut ids: Vec<usize> = self
            .nodes
            .iter()
            .flatten()
            .flat_map(|n| n.reps.iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Rough in-memory footprint of the replica in bytes (node slots plus
    /// ids). The point of the estimate is the *ratio* against the
    /// server-side feature table, which carries `n × 37` floats.
    pub fn estimated_bytes(&self) -> usize {
        let per_rep = std::mem::size_of::<usize>() + std::mem::size_of::<Option<NodeId>>();
        self.nodes.len() * std::mem::size_of::<Option<ClientNode>>()
            + self
                .nodes
                .iter()
                .flatten()
                .map(|n| n.reps.len() * per_rep)
                .sum::<usize>()
    }
}

impl FeedbackHierarchy for ClientRfs {
    fn root(&self) -> NodeId {
        self.root
    }

    /// A node the replica does not hold has no children to descend to.
    fn is_leaf(&self, n: NodeId) -> bool {
        self.node(n).is_none_or(|node| node.leaf)
    }

    fn representatives(&self, n: NodeId) -> &[usize] {
        self.node(n).map_or(&[], |node| &node.reps)
    }

    fn child_containing(&self, n: NodeId, image: usize) -> Option<NodeId> {
        let node = self.node(n)?;
        let at = node.reps.iter().position(|&rep| rep == image)?;
        node.rep_child[at]
    }
}

/// The message a client sends to the server after its feedback rounds: the
/// final localized subqueries (subcluster handle + marked image ids).
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteQuery {
    /// `(subcluster, marked relevant image ids)` per surviving subquery.
    pub subqueries: Vec<(NodeId, Vec<usize>)>,
}

impl RemoteQuery {
    /// Total marked images across subqueries — the size of the payload.
    pub fn mark_count(&self) -> usize {
        self.subqueries.iter().map(|(_, m)| m.len()).sum()
    }
}

/// Runs the feedback rounds entirely on the client replica and returns the
/// query to ship to the server.
pub fn client_feedback(
    client: &ClientRfs,
    labels: &[SubconceptId],
    user: &mut SimulatedUser,
    cfg: &QdConfig,
) -> RemoteQuery {
    let rounds = run_feedback_rounds(client, labels, user, cfg);
    RemoteQuery {
        subqueries: rounds.final_marks,
    }
}

/// Checks a remote query against the server's corpus and tree before any
/// k-NN work: every subquery must be non-empty, reference a cluster handle
/// this server actually holds, and mark only in-range image ids.
pub fn validate_remote_query(
    corpus: &Corpus,
    rfs: &RfsStructure,
    remote: &RemoteQuery,
    cfg: &QdConfig,
) -> Result<(), QdError> {
    validate_subqueries(corpus, rfs, &remote.subqueries, cfg)
}

/// Answers a client's query on the server — localized multipoint k-NN per
/// subquery plus the merge of §3.4: validates the payload, then executes
/// the subqueries, surfacing malformed queries and worker failures as typed
/// [`QdError`]s instead of panics.
pub fn try_server_execute(
    corpus: &Corpus,
    rfs: &RfsStructure,
    remote: &RemoteQuery,
    k: usize,
    cfg: &QdConfig,
) -> Result<FinalExecution, QdError> {
    try_execute_subqueries(corpus, rfs, &remote.subqueries, k, cfg)
}

/// How persistently the client resubmits a query that fails in transit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of submissions (including the first); treated as at
    /// least 1.
    pub max_attempts: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 3 }
    }
}

/// Outcome of a retried submission: the server's answer plus how hard the
/// client had to work for it.
#[derive(Debug, Clone)]
pub struct SubmitReport {
    /// The server's execution of the (eventually intact) query.
    pub execution: FinalExecution,
    /// Submissions performed, 1 if the first attempt succeeded.
    pub attempts: usize,
    /// Total abstract backoff waited, in units of the base delay: attempt
    /// `i` that fails adds `2^(i-1)` units, capped at `2^32` per attempt
    /// (see [`backoff_unit`]); the total saturates instead of wrapping.
    /// Deterministic — no clock is consulted.
    pub backoff_units: u64,
}

/// Exponent cap for a single attempt's backoff contribution. Without it a
/// retry policy allowing more than 64 attempts overflows the `1 << (i-1)`
/// shift (a panic in debug, silent wraparound in release); with it the
/// schedule grows exponentially to `2^32` base-delay units and plateaus
/// there.
const MAX_BACKOFF_SHIFT: u32 = 32;

/// One failed attempt's backoff contribution: `2^(attempt-1)` base-delay
/// units, capped at `2^MAX_BACKOFF_SHIFT` so arbitrarily persistent
/// policies stay overflow-free.
fn backoff_unit(attempt: usize) -> u64 {
    1u64 << attempt.saturating_sub(1).min(MAX_BACKOFF_SHIFT as usize)
}

/// Derives a deterministically corrupted copy of `remote` from a fault
/// payload: one marked image id is rewritten to an out-of-range value, the
/// kind of damage a truncated or bit-flipped payload produces.
fn corrupt_marks(remote: &RemoteQuery, corpus_len: usize, payload: u64) -> RemoteQuery {
    let mut corrupted = remote.clone();
    let with_marks: Vec<usize> = (0..corrupted.subqueries.len())
        .filter(|&s| !corrupted.subqueries[s].1.is_empty())
        .collect();
    if let Some(&s) = with_marks.get(payload as usize % with_marks.len().max(1)) {
        let marks = &mut corrupted.subqueries[s].1;
        let slot = (payload >> 16) as usize % marks.len();
        marks[slot] = corpus_len + (payload as usize % 7);
    }
    corrupted
}

/// Submits a query with bounded, deterministic retry.
///
/// Transient failures — a failed send ([`qd_fault::site::CLIENT_TRANSPORT`])
/// or a payload corrupted in transit and rejected by server-side validation
/// ([`qd_fault::site::CLIENT_MARK_CORRUPT`]) — are retried up to the policy
/// limit with exponential backoff accounted in abstract units (no clock).
/// A pristine query the server still rejects is a client bug, not a
/// transient: its typed error returns immediately.
pub fn submit_with_retry(
    corpus: &Corpus,
    rfs: &RfsStructure,
    remote: &RemoteQuery,
    k: usize,
    cfg: &QdConfig,
    policy: RetryPolicy,
) -> Result<SubmitReport, QdError> {
    let max_attempts = policy.max_attempts.max(1);
    let mut backoff_units = 0u64;
    let mut last_error = String::from("no attempt made");
    for attempt in 1..=max_attempts {
        if qd_fault::fire(qd_fault::site::CLIENT_TRANSPORT).is_some() {
            last_error = format!("transport send failed (attempt {attempt})");
            let unit = backoff_unit(attempt);
            backoff_units = backoff_units.saturating_add(unit);
            qd_obs::count(qd_obs::ctr::CLIENT_RETRIES, 1);
            qd_obs::count(qd_obs::ctr::CLIENT_BACKOFF_UNITS, unit);
            continue;
        }
        let (query, corrupted) = match qd_fault::fire(qd_fault::site::CLIENT_MARK_CORRUPT) {
            Some(payload) => (corrupt_marks(remote, corpus.len(), payload), true),
            None => (remote.clone(), false),
        };
        match try_server_execute(corpus, rfs, &query, k, cfg) {
            Ok(execution) => {
                return Ok(SubmitReport {
                    execution,
                    attempts: attempt,
                    backoff_units,
                })
            }
            Err(e) if corrupted => {
                last_error = format!("server rejected corrupted payload: {e}");
                let unit = backoff_unit(attempt);
                backoff_units = backoff_units.saturating_add(unit);
                qd_obs::count(qd_obs::ctr::CLIENT_RETRIES, 1);
                qd_obs::count(qd_obs::ctr::CLIENT_BACKOFF_UNITS, unit);
            }
            Err(e) => return Err(e),
        }
    }
    Err(QdError::RetriesExhausted {
        attempts: max_attempts,
        last_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rfs::RfsConfig;
    use crate::session::try_run_session;
    use crate::testutil;
    use qd_index::KnnIndex;

    fn client_fixture() -> (&'static Corpus, &'static RfsStructure, ClientRfs) {
        let (corpus, rfs) = testutil::shared();
        (corpus, rfs, ClientRfs::replicate(rfs))
    }

    /// The shared structure after removing every third image: condensing the
    /// tree frees arena slots below its highest live node.
    fn structure_with_freed_slots() -> RfsStructure {
        let (corpus, rfs) = testutil::shared();
        let mut tree = rfs.tree().clone();
        for id in (0..corpus.len()).step_by(3) {
            assert!(tree.remove(&corpus.features()[id], id as u64));
        }
        let highest = tree.node_ids().map(NodeId::index).max().unwrap();
        assert!(tree.node_count() <= highest, "no freed slot to skip");
        RfsStructure::build_on(tree, corpus.features(), &RfsConfig::test_small())
    }

    #[test]
    fn replica_mirrors_the_hierarchy() {
        let (_, shared, _) = client_fixture();
        for rfs in [shared, &structure_with_freed_slots()] {
            let client = ClientRfs::replicate(rfs);
            let tree = rfs.tree();
            assert_eq!(client.node_count(), tree.node_count());
            assert_eq!(
                client.representative_count(),
                rfs.all_representatives().len()
            );
            for n in tree.node_ids() {
                assert_eq!(client.representatives(n), rfs.representatives(n));
                assert_eq!(client.is_leaf(n), tree.is_leaf(n));
            }
        }
    }

    #[test]
    fn replica_rep_child_mapping_matches_server() {
        let (corpus, shared, _) = client_fixture();
        for rfs in [shared, &structure_with_freed_slots()] {
            let client = ClientRfs::replicate(rfs);
            let tree = rfs.tree();
            for n in tree.node_ids() {
                for &rep in rfs.representatives(n) {
                    assert_eq!(
                        client.child_containing(n, rep),
                        rfs.child_containing(n, rep),
                        "node {n:?} rep {rep}"
                    );
                }
                // Non-representative images: the first one outside `n`'s
                // subtree (the root has none) and one outside the corpus.
                let members: Vec<usize> = tree
                    .subtree_ids(n)
                    .into_iter()
                    .map(|id| id as usize)
                    .collect();
                let outside = (0..corpus.len()).find(|id| !members.contains(id));
                for image in outside.into_iter().chain([corpus.len()]) {
                    assert!(!rfs.representatives(n).contains(&image));
                    assert_eq!(
                        client.child_containing(n, image),
                        None,
                        "node {n:?} image {image}"
                    );
                    assert_eq!(
                        rfs.child_containing(n, image),
                        None,
                        "node {n:?} image {image}"
                    );
                }
            }
        }
    }

    #[test]
    fn client_server_split_reproduces_monolithic_session_exactly() {
        let (corpus, rfs, client) = client_fixture();
        let query = testutil::query("bird");
        let k = corpus.ground_truth(&query).len();
        let cfg = QdConfig::default();

        let mut mono_user = SimulatedUser::oracle(&query, 21);
        let monolithic = try_run_session(corpus, rfs, &query, &mut mono_user, k, &cfg)
            .unwrap()
            .into_outcome();

        let mut split_user = SimulatedUser::oracle(&query, 21);
        let remote = client_feedback(&client, corpus.labels(), &mut split_user, &cfg);
        let execution = try_server_execute(corpus, rfs, &remote, k, &cfg).unwrap();

        assert_eq!(execution.results, monolithic.results);
        assert_eq!(execution.subquery_count, monolithic.subquery_count);
    }

    #[test]
    fn client_footprint_is_a_small_fraction_of_the_feature_table() {
        let (corpus, _, client) = client_fixture();
        let server_bytes = corpus.len() * corpus.dim() * std::mem::size_of::<f32>();
        let client_bytes = client.estimated_bytes();
        assert!(
            client_bytes * 2 < server_bytes,
            "client {client_bytes}B vs server features {server_bytes}B"
        );
        // And the replicated image-id universe is a sliver of the database.
        assert!(client.representative_count() * 3 < corpus.len());
    }

    #[test]
    fn retry_survives_transient_transport_failures() {
        let (corpus, rfs, client) = client_fixture();
        let query = testutil::query("bird");
        let k = corpus.ground_truth(&query).len();
        let cfg = QdConfig::default();
        let mut user = SimulatedUser::oracle(&query, 21);
        let remote = client_feedback(&client, corpus.labels(), &mut user, &cfg);
        let clean = try_server_execute(corpus, rfs, &remote, k, &cfg).unwrap();

        // First send fails, second goes through.
        let plan = qd_fault::FaultPlan::new(11)
            .site(qd_fault::site::CLIENT_TRANSPORT, qd_fault::Mode::Once(0));
        let report = qd_fault::with_plan(&plan, || {
            submit_with_retry(corpus, rfs, &remote, k, &cfg, RetryPolicy::default())
        })
        .expect("one transport failure is within the retry budget");
        assert_eq!(report.attempts, 2);
        assert_eq!(report.backoff_units, 1); // 2^0 for the one failed attempt
        assert_eq!(report.execution.results, clean.results);

        // Transport permanently down: typed exhaustion, not a panic.
        let down = qd_fault::FaultPlan::new(11)
            .site(qd_fault::site::CLIENT_TRANSPORT, qd_fault::Mode::Always);
        let err = qd_fault::with_plan(&down, || {
            submit_with_retry(corpus, rfs, &remote, k, &cfg, RetryPolicy::default())
        })
        .unwrap_err();
        assert!(
            matches!(err, QdError::RetriesExhausted { attempts: 3, .. }),
            "{err}"
        );
    }

    #[test]
    fn corrupted_payload_is_rejected_then_retried() {
        let (corpus, rfs, client) = client_fixture();
        let query = testutil::query("rose");
        let k = corpus.ground_truth(&query).len();
        let cfg = QdConfig::default();
        let mut user = SimulatedUser::oracle(&query, 5);
        let remote = client_feedback(&client, corpus.labels(), &mut user, &cfg);
        let clean = try_server_execute(corpus, rfs, &remote, k, &cfg).unwrap();

        let plan = qd_fault::FaultPlan::new(29)
            .site(qd_fault::site::CLIENT_MARK_CORRUPT, qd_fault::Mode::Once(0));
        let report = qd_fault::with_plan(&plan, || {
            submit_with_retry(corpus, rfs, &remote, k, &cfg, RetryPolicy::default())
        })
        .expect("corruption on the first attempt only");
        assert_eq!(report.attempts, 2);
        assert_eq!(report.execution.results, clean.results);

        // Deterministic for a fixed plan: same attempts, same answer.
        let again = qd_fault::with_plan(&plan, || {
            submit_with_retry(corpus, rfs, &remote, k, &cfg, RetryPolicy::default())
        })
        .unwrap();
        assert_eq!(again.attempts, report.attempts);
        assert_eq!(again.backoff_units, report.backoff_units);
        assert_eq!(again.execution.results, report.execution.results);
    }

    #[test]
    fn huge_retry_policies_saturate_instead_of_overflowing() {
        let (corpus, rfs, client) = client_fixture();
        let query = testutil::query("rose");
        let k = corpus.ground_truth(&query).len();
        let cfg = QdConfig::default();
        let mut user = SimulatedUser::oracle(&query, 5);
        let remote = client_feedback(&client, corpus.labels(), &mut user, &cfg);

        // 200 attempts against a permanently dead transport: before the cap,
        // attempt 66's `1 << 65` overflowed the shift. Now the schedule
        // plateaus at 2^32 units per attempt and the total saturates.
        let down = qd_fault::FaultPlan::new(17)
            .site(qd_fault::site::CLIENT_TRANSPORT, qd_fault::Mode::Always);
        let policy = RetryPolicy { max_attempts: 200 };
        let err = qd_fault::with_plan(&down, || {
            submit_with_retry(corpus, rfs, &remote, k, &cfg, policy)
        })
        .unwrap_err();
        assert!(
            matches!(err, QdError::RetriesExhausted { attempts: 200, .. }),
            "{err}"
        );

        // The per-attempt schedule itself: exponential up to the cap, then
        // flat — and in particular never a shift overflow.
        assert_eq!(backoff_unit(1), 1);
        assert_eq!(backoff_unit(33), 1 << 32);
        assert_eq!(backoff_unit(66), 1 << 32);
        assert_eq!(backoff_unit(usize::MAX), 1 << 32);
    }

    #[test]
    fn pristine_but_invalid_query_fails_fast_without_retry() {
        let (corpus, rfs, _) = client_fixture();
        let cfg = QdConfig::default();
        let invalid = RemoteQuery {
            subqueries: vec![(rfs.tree().root(), vec![corpus.len() + 9])],
        };
        assert!(matches!(
            validate_remote_query(corpus, rfs, &invalid, &cfg),
            Err(QdError::ImageOutOfRange { .. })
        ));
        // No fault plan is active: the defect is the client's own, so the
        // submit must not burn retries on it.
        let err =
            submit_with_retry(corpus, rfs, &invalid, 10, &cfg, RetryPolicy::default()).unwrap_err();
        assert!(matches!(err, QdError::ImageOutOfRange { .. }), "{err}");
    }

    #[test]
    fn remote_query_carries_only_marks() {
        let (corpus, _, client) = client_fixture();
        let query = testutil::query("rose");
        let mut user = SimulatedUser::oracle(&query, 5);
        let remote = client_feedback(&client, corpus.labels(), &mut user, &QdConfig::default());
        assert!(!remote.subqueries.is_empty());
        assert!(remote.mark_count() > 0);
        // The payload is tiny relative to the database.
        assert!(remote.mark_count() < corpus.len() / 10);
    }
}
