//! The Query Decomposition feedback session (§3.2).
//!
//! Round 1 presents representative images from the RFS root; the user marks
//! the relevant ones; the system maps each marked representative to the
//! child cluster it came from and *splits* the query into one subquery per
//! relevant child. Each later round repeats the process on the active
//! subclusters, refining or discarding subqueries. No k-NN computation
//! happens until the final round, when each subquery becomes a localized
//! multipoint k-NN over its (possibly boundary-expanded) subcluster and the
//! local results are merged proportionally to user support.

use crate::error::QdError;
use crate::localknn::{try_run_local_query, LocalQuery};
use crate::metrics::{gtir, precision, RoundTrace};
use crate::ranking::{flatten_groups, merge_local_results};
use crate::rfs::{FeedbackHierarchy, RfsStructure};
use crate::user::SimulatedUser;
use qd_corpus::taxonomy::SubconceptId;
use qd_corpus::{Corpus, QuerySpec};
use qd_index::{KnnIndex, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub use crate::ranking::ResultGroup;

/// How final result slots are split across subqueries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Proportional to the number of relevant images the user marked in each
    /// subcluster — the paper's rule (§3.4).
    Proportional,
    /// One share per subquery regardless of support (ablation).
    Uniform,
    /// §3.4's alternative presentation: all local results merged into a
    /// single list ranked by individual similarity score (no quotas, one
    /// result group).
    SingleList,
}

/// The most feedback rounds one session may ask for. The paper evaluates
/// three and no configuration in this repository asks for more than four;
/// the bound keeps a mistyped round count (`--rounds 99999999999`) from
/// starting a session that, for all practical purposes, never ends: every
/// round re-displays the surviving leaves.
pub const MAX_FEEDBACK_ROUNDS: usize = 1_000;

/// Refuses a round count no session can run: zero has no final round to
/// take subqueries from, and more than [`MAX_FEEDBACK_ROUNDS`] is a
/// mistake. Applied where a configuration enters from outside:
/// [`try_run_session`], qd-serve admission and the `qd` CLI.
pub fn validate_rounds(rounds: usize) -> Result<(), QdError> {
    if rounds == 0 {
        Err(QdError::NoFeedbackRounds)
    } else if rounds > MAX_FEEDBACK_ROUNDS {
        Err(QdError::TooManyFeedbackRounds {
            rounds,
            max: MAX_FEEDBACK_ROUNDS,
        })
    } else {
        Ok(())
    }
}

/// Session parameters.
#[derive(Debug, Clone)]
pub struct QdConfig {
    /// Number of feedback rounds (the paper evaluates 3); at most
    /// [`MAX_FEEDBACK_ROUNDS`].
    pub rounds: usize,
    /// Boundary-ratio threshold for expanding localized queries (§3.3; the
    /// paper uses 0.4 for its database).
    pub boundary_threshold: f32,
    /// Result merge rule.
    pub merge: MergeStrategy,
    /// Shuffle seed for the "Random" representative browsing order.
    pub seed: u64,
    /// Per-round inspection budget applied to users created by the `eval`
    /// runners (`usize::MAX` = the user pages through every display). The
    /// paper's GUI shows 21 images at a time; a budget of a few pages per
    /// round reproduces Table 2's gradual GTIR growth.
    pub user_patience: usize,
    /// Optional user-defined per-dimension importance weights (the §6
    /// extension, e.g. "color is the most important feature"). Must have the
    /// corpus feature dimensionality when set.
    pub feature_weights: Option<Vec<f32>>,
    /// Optional distance-computation budget for the final localized k-NN
    /// phase (anytime retrieval). The budget is split across subqueries
    /// up front, proportionally to their quotas — never shared through a
    /// live counter — so a subquery's degraded answer depends on nothing
    /// but its own share. `None` (the default) means unlimited.
    pub distance_budget: Option<u64>,
}

impl QdConfig {
    /// Sets per-feature-group importance weights: the triple is expanded
    /// over the color/texture/edge dimension ranges of the 37-d vector.
    pub fn with_group_weights(mut self, color: f32, texture: f32, edge: f32) -> Self {
        use qd_features::pipeline::FeatureGroup;
        let mut w = vec![0.0f32; qd_features::FEATURE_DIM];
        for (group, value) in [
            (FeatureGroup::Color, color),
            (FeatureGroup::Texture, texture),
            (FeatureGroup::Edge, edge),
        ] {
            assert!(value >= 0.0, "importance weights must be non-negative");
            for d in group.range() {
                w[d] = value;
            }
        }
        self.feature_weights = Some(w);
        self
    }
}

impl Default for QdConfig {
    fn default() -> Self {
        Self {
            rounds: 3,
            boundary_threshold: 0.4,
            merge: MergeStrategy::Proportional,
            seed: 0,
            user_patience: usize::MAX,
            feature_weights: None,
            distance_budget: None,
        }
    }
}

/// The outcome of a QD session.
#[derive(Debug, Clone)]
pub struct QdOutcome {
    /// Final result image ids, in on-screen (group-major) order; at most `k`.
    pub results: Vec<usize>,
    /// Grouped presentation (§3.4), ascending by ranking score.
    pub groups: Vec<ResultGroup>,
    /// Per-round quality trace (Table 2's QD columns).
    pub round_trace: Vec<RoundTrace>,
    /// RFS node reads performed by feedback processing (one per subcluster
    /// whose representatives were displayed per round) — the I/O measure of
    /// §5.2.2.
    pub feedback_accesses: u64,
    /// Index node reads performed by the final localized k-NN computations.
    pub knn_accesses: u64,
    /// Number of localized subqueries executed in the final round.
    pub subquery_count: usize,
    /// Wall-clock duration of each feedback round's processing (user think
    /// time excluded) — the Figure 11 measurement.
    pub round_durations: Vec<Duration>,
    /// Wall-clock duration of the final localized k-NN computation and
    /// merge; total query processing time (Figure 10) is the sum of the
    /// round durations plus this.
    pub final_knn_duration: Duration,
}

/// The product of the feedback rounds alone — everything the final
/// (server-side) k-NN execution needs. Produced identically by the full
/// server structure and the thin client replica, which is what makes the
/// paper's client–server split (§4) possible.
#[derive(Debug, Clone)]
pub struct FeedbackRounds {
    /// `(subcluster, user-marked relevant images)` per surviving subquery,
    /// sorted by node id for determinism.
    pub final_marks: Vec<(NodeId, Vec<usize>)>,
    /// Every image the user marked relevant, in marking order across all
    /// rounds; each round's cumulative snapshot is a prefix of it.
    relevant_seen: Vec<usize>,
    /// `relevant_seen.len()` at the end of each round run.
    round_ends: Vec<usize>,
    /// RFS node reads performed (one per displayed subcluster per round).
    pub feedback_accesses: u64,
    /// Wall-clock duration of each round's processing.
    pub round_durations: Vec<Duration>,
    /// Node displays skipped because the `session.round.display` failpoint
    /// fired — the session degrades (marks never collected from that node)
    /// instead of aborting.
    pub displays_skipped: u64,
}

impl FeedbackRounds {
    /// The relevant images seen by the end of each round run, oldest first
    /// (for GTIR traces). Each is a prefix of one list, so a session retains
    /// every mark once however many rounds it runs.
    pub fn snapshots(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.round_ends
            .iter()
            .map(|&end| &self.relevant_seen[..end])
    }
}

/// Resumable feedback-phase state machine: one [`step_round`] call per
/// feedback round, so a multi-tenant scheduler (qd-serve) can interleave
/// many sessions' rounds and enforce deadlines between them.
/// [`run_feedback_rounds`] is a drive-to-completion loop over this stepper,
/// so a stepped session executes exactly the statements a solo session does
/// — same RNG consumption, same observability calls, same marks.
///
/// [`step_round`]: FeedbackStepper::step_round
pub struct FeedbackStepper<'a, H: FeedbackHierarchy> {
    hierarchy: &'a H,
    labels: &'a [SubconceptId],
    cfg: QdConfig,
    rng: StdRng,
    active: Vec<NodeId>,
    relevant_seen: Vec<usize>,
    round_ends: Vec<usize>,
    feedback_accesses: u64,
    displays_skipped: u64,
    round_durations: Vec<Duration>,
    // BTreeMap, so the flattening below yields subqueries in node-id order
    // with no explicit sort.
    final_marks: BTreeMap<NodeId, Vec<usize>>,
    /// Marks collected in the most recent round only — the best-so-far
    /// subquery set a deadline truncation promotes to final marks.
    last_round_marks: BTreeMap<NodeId, Vec<usize>>,
    /// Next round to run, 1-based.
    round: usize,
    done: bool,
}

impl<'a, H: FeedbackHierarchy> FeedbackStepper<'a, H> {
    /// A stepper positioned before round 1.
    ///
    /// # Panics
    /// Panics if [`validate_rounds`] refuses `cfg.rounds`. The entry points
    /// that take a configuration from outside refuse it first, with the
    /// same typed error: [`try_run_session`], qd-serve at admission.
    pub fn new(hierarchy: &'a H, labels: &'a [SubconceptId], cfg: QdConfig) -> Self {
        assert!(
            validate_rounds(cfg.rounds).is_ok(),
            "feedback rounds must be in 1..={MAX_FEEDBACK_ROUNDS}"
        );
        let rng = StdRng::seed_from_u64(cfg.seed);
        let active = vec![hierarchy.root()];
        FeedbackStepper {
            hierarchy,
            labels,
            cfg,
            rng,
            active,
            relevant_seen: Vec::new(),
            round_ends: Vec::new(),
            feedback_accesses: 0,
            displays_skipped: 0,
            round_durations: Vec::new(),
            final_marks: BTreeMap::new(),
            last_round_marks: BTreeMap::new(),
            round: 1,
            done: false,
        }
    }

    /// True once the feedback phase is over (final round ran, the query
    /// died, or [`truncate`](FeedbackStepper::truncate) was called).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Feedback rounds executed so far.
    pub fn rounds_run(&self) -> usize {
        self.round_durations.len()
    }

    /// Runs one feedback round: display representatives, collect user
    /// marks, split into child subqueries. Returns `true` when the feedback
    /// phase is over; further calls are no-ops.
    pub fn step_round(&mut self, user: &mut SimulatedUser) -> bool {
        if self.done {
            return true;
        }
        let round = self.round;
        #[expect(
            clippy::disallowed_methods,
            reason = "the round's wall-clock duration is the Fig. 10/11 measurement; \
                      it reaches only reported timing fields, never a ranking"
        )]
        let round_start = Instant::now();
        let is_final = round == self.cfg.rounds;
        let mut next_active: Vec<NodeId> = Vec::new();
        let active = std::mem::take(&mut self.active);
        self.last_round_marks.clear();
        qd_obs::span_indexed(qd_obs::sp::ROUND, round as u64, || {
            // What the user waits on this round, in deterministic cost
            // units: the representative displays generated. One histogram
            // observation per round, zero included (a round that displayed
            // nothing is a data point).
            let mut round_displays = 0u64;
            for &node in &active {
                // Failpoint: the display read for this node fails. Keyed by
                // the node's stable index (not an invocation counter), so the
                // same node is "broken" regardless of round order or thread
                // count.
                if qd_fault::fire_keyed(qd_fault::site::SESSION_ROUND_DISPLAY, node.index() as u64)
                    .is_some()
                {
                    self.displays_skipped += 1;
                    continue;
                }
                // Displaying a node's representatives reads exactly that node.
                self.feedback_accesses += 1;
                qd_obs::count(qd_obs::ctr::SESSION_NODES_VISITED, 1);
                let mut shown: Vec<usize> = self.hierarchy.representatives(node).to_vec();
                shown.shuffle(&mut self.rng); // the GUI's "Random" browsing order
                qd_obs::count(qd_obs::ctr::SESSION_DISPLAYS, shown.len() as u64);
                round_displays += shown.len() as u64;
                let marked = user.mark_relevant(&shown, self.labels);
                qd_obs::count(qd_obs::ctr::SESSION_MARKS, marked.len() as u64);
                if marked.is_empty() {
                    continue; // irrelevant subquery: discarded
                }
                self.relevant_seen.extend_from_slice(&marked);
                self.last_round_marks
                    .entry(node)
                    .or_default()
                    .extend(marked.iter().copied());

                if is_final {
                    self.final_marks.entry(node).or_default().extend(marked);
                } else {
                    // Split: one subquery per child cluster a marked
                    // representative traces to. Leaves cannot split further
                    // and stay active with their marks carried into the
                    // final round.
                    if self.hierarchy.is_leaf(node) {
                        if !next_active.contains(&node) {
                            next_active.push(node);
                        }
                    } else {
                        for &rep in &marked {
                            if let Some(child) = self.hierarchy.child_containing(node, rep) {
                                if !next_active.contains(&child) {
                                    next_active.push(child);
                                }
                            }
                        }
                    }
                }
            }
            qd_obs::observe(qd_obs::hist::QD_ROUND_DISPLAYS, round_displays);
        });

        self.round_durations.push(round_start.elapsed());
        self.round_ends.push(self.relevant_seen.len());
        if is_final {
            self.done = true;
        } else if next_active.is_empty() {
            self.done = true; // the user found nothing relevant: the query dies here
        } else {
            self.active = next_active;
            self.round += 1;
        }
        self.done
    }

    /// Ends the feedback phase now — deadline enforcement. The most recent
    /// round's marks become the final subquery marks (a valid best-so-far
    /// prefix of the session), and no further rounds run. A no-op once the
    /// phase is already over.
    pub fn truncate(&mut self) {
        if !self.done && self.final_marks.is_empty() {
            self.final_marks = std::mem::take(&mut self.last_round_marks);
        }
        self.done = true;
    }

    /// Consumes the stepper, yielding the feedback-phase product.
    pub fn finish(self) -> FeedbackRounds {
        let final_marks: Vec<(NodeId, Vec<usize>)> = self.final_marks.into_iter().collect();
        FeedbackRounds {
            final_marks,
            relevant_seen: self.relevant_seen,
            round_ends: self.round_ends,
            feedback_accesses: self.feedback_accesses,
            round_durations: self.round_durations,
            displays_skipped: self.displays_skipped,
        }
    }
}

/// Runs the feedback rounds of a QD session over any [`FeedbackHierarchy`]:
/// display representatives, collect user marks, split into child subqueries,
/// repeat. Performs **no k-NN work** — this is the part of the protocol the
/// paper runs on the client.
pub fn run_feedback_rounds(
    hierarchy: &impl FeedbackHierarchy,
    labels: &[SubconceptId],
    user: &mut SimulatedUser,
    cfg: &QdConfig,
) -> FeedbackRounds {
    let mut stepper = FeedbackStepper::new(hierarchy, labels, cfg.clone());
    while !stepper.step_round(user) {}
    stepper.finish()
}

/// Why (and how far) an otherwise-successful execution fell short of the
/// exact answer. Everything here is deterministic for a fixed `(fault seed,
/// budget, query)` triple — degraded runs are as reproducible as exact ones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Degradation {
    /// Distance computations spent across all surviving subqueries.
    pub budget_spent: u64,
    /// Index frontier nodes (or weighted-scan items) skipped because a
    /// subquery's budget share ran out.
    pub nodes_skipped: u64,
    /// Subqueries dropped because they panicked — or, over a sharded
    /// index, because every shard leg carrying them failed; their result
    /// slots were redistributed to the survivors.
    pub subqueries_dropped: usize,
    /// Shard scatter legs lost across all subqueries (always 0 over a
    /// monolithic tree). A nonzero count with `subqueries_dropped == 0`
    /// means every subquery still answered from its surviving shards —
    /// degraded coverage, not lost subqueries.
    pub shard_legs_dropped: u64,
    /// Feedback-round node displays that failed (their marks were never
    /// collected).
    pub displays_skipped: u64,
    /// Feedback rounds never run because a serving deadline truncated the
    /// session (qd-serve); the final marks are the last completed round's.
    pub rounds_truncated: usize,
}

/// The server-side tail of a QD session: localized multipoint k-NN per
/// subquery, quota allocation, and result merging.
#[derive(Debug, Clone)]
pub struct FinalExecution {
    /// Final result image ids, group-major; at most `k`.
    pub results: Vec<usize>,
    /// Grouped presentation (§3.4), ascending by ranking score.
    pub groups: Vec<ResultGroup>,
    /// Index node reads performed by the localized k-NN computations.
    pub knn_accesses: u64,
    /// Number of localized subqueries that produced results.
    pub subquery_count: usize,
    /// Wall-clock duration of the k-NN + merge phase.
    pub duration: Duration,
    /// `Some` when the answer is best-so-far (budget exhausted or
    /// subqueries dropped) rather than exact.
    pub degradation: Option<Degradation>,
}

/// Validates a batch of subqueries against the server's corpus and tree:
/// non-empty mark lists, in-range image ids, live node handles, and (when
/// configured) matching weight dimensionality. This is the server's armor
/// against malformed or diverged client payloads.
pub fn validate_subqueries<I: KnnIndex>(
    corpus: &Corpus,
    rfs: &RfsStructure<I>,
    subqueries: &[(NodeId, Vec<usize>)],
    cfg: &QdConfig,
) -> Result<(), QdError> {
    if let Some(w) = &cfg.feature_weights {
        if w.len() != corpus.dim() {
            return Err(QdError::WeightDimension {
                got: w.len(),
                want: corpus.dim(),
            });
        }
    }
    let tree = rfs.tree();
    for (i, (node, marks)) in subqueries.iter().enumerate() {
        if marks.is_empty() {
            return Err(QdError::EmptySubquery { subquery: i });
        }
        if !tree.contains_node(*node) {
            return Err(QdError::UnknownNode {
                subquery: i,
                node_index: node.index(),
            });
        }
        for &m in marks {
            if m >= corpus.len() {
                return Err(QdError::ImageOutOfRange {
                    subquery: i,
                    image: m,
                    corpus_len: corpus.len(),
                });
            }
        }
    }
    Ok(())
}

/// Splits a total distance budget across subqueries proportionally to their
/// quotas (largest-remainder rounding, ties to the lower index), falling
/// back to an even split when every quota is zero. Budgets are fixed before
/// any item runs so no live counter is ever shared between them — the
/// degraded answer is bit-identical at every thread count. Public because
/// `qd-shard` reuses the identical split to apportion a subquery's budget
/// share across shard scatter legs (proportional to shard populations).
pub fn split_budget(total: Option<u64>, quotas: &[usize]) -> Vec<Option<u64>> {
    let Some(total) = total else {
        return vec![None; quotas.len()];
    };
    let n = quotas.len() as u64;
    let qsum: u64 = quotas.iter().map(|&q| q as u64).sum();
    if qsum == 0 {
        return (0..n)
            .map(|i| Some(total / n + u64::from(i < total % n)))
            .collect();
    }
    let mut shares: Vec<u64> = quotas
        .iter()
        .map(|&q| ((total as u128 * q as u128) / qsum as u128) as u64)
        .collect();
    let assigned: u64 = shares.iter().sum();
    let mut rema: Vec<(u64, usize)> = quotas
        .iter()
        .enumerate()
        .map(|(i, &q)| (((total as u128 * q as u128) % qsum as u128) as u64, i))
        .collect();
    rema.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in rema.iter().take((total - assigned) as usize) {
        shares[i] += 1;
    }
    shares.into_iter().map(Some).collect()
}

/// Executes the final localized subqueries against the full RFS structure,
/// returning a typed error on malformed input and a degraded (but valid)
/// answer when budgets run out or subqueries panic. Quotas are known before the
/// queries run (they depend only on the mark counts), so each subquery
/// fetches just enough candidates to fill its share plus slack for
/// cross-subquery deduplication.
pub fn try_execute_subqueries<I: KnnIndex>(
    corpus: &Corpus,
    rfs: &RfsStructure<I>,
    subqueries: &[(NodeId, Vec<usize>)],
    k: usize,
    cfg: &QdConfig,
) -> Result<FinalExecution, QdError> {
    #[expect(
        clippy::disallowed_methods,
        reason = "the final k-NN's wall-clock duration is the Fig. 10/11 measurement; \
                  it reaches only reported timing fields, never a ranking"
    )]
    let start = Instant::now();
    validate_subqueries(corpus, rfs, subqueries, cfg)?;
    if subqueries.is_empty() || k == 0 {
        // A dead query still contributes to the per-query distribution:
        // it cost nothing.
        qd_obs::observe(qd_obs::hist::QD_QUERY_DISTANCES, 0);
        return Ok(FinalExecution {
            results: Vec::new(),
            groups: Vec::new(),
            knn_accesses: 0,
            subquery_count: 0,
            duration: start.elapsed(),
            degradation: None,
        });
    }
    let tree = rfs.tree();
    let supports: Vec<usize> = subqueries
        .iter()
        .map(|(_, marks)| match cfg.merge {
            MergeStrategy::Proportional => marks.len(),
            MergeStrategy::Uniform | MergeStrategy::SingleList => 1,
        })
        .collect();
    let quotas = crate::ranking::allocate_quotas(&supports, k);
    let budgets = split_budget(cfg.distance_budget, &quotas);

    // Each subquery is independent (§3.3) but small — a few microseconds of
    // leaf-scoped k-NN against the tens to hundreds a thread fan-out costs —
    // so they run one after another on the calling thread, each still isolated
    // under `catch_unwind` (qd-runtime's serial entry). Quotas and budget
    // shares are fixed up front, access counts are accumulated per call
    // (not via the tree's global counter) and failpoints are keyed by
    // subquery index, so no subquery can see another's work.
    let work: Vec<(usize, usize, Option<u64>)> = supports
        .into_iter()
        .zip(quotas)
        .zip(budgets)
        .map(|((s, q), b)| (s, q, b))
        .collect();
    // The whole loop runs under a measured span: the same `qd_obs`
    // counters that feed external traces also produce the authoritative
    // cost accounting below (`measured` installs a temporary recorder when
    // none is active, so the accounting is identical either way). The
    // subquery failpoint fires *after* the local k-NN so a dropped
    // subquery's distance work is already recorded — the degradation report
    // charges work performed, not work kept.
    let (attempts, final_counters) = qd_obs::measured(qd_obs::sp::SESSION_FINAL, || {
        qd_runtime::try_map_indexed(&work, |i, &(support, quota, budget)| {
            qd_obs::span_indexed(qd_obs::sp::SUBQUERY, i as u64, || {
                let (home, marks) = &subqueries[i];
                let fetch = quota.saturating_add((quota / 2).max(5));
                let lq = LocalQuery {
                    home: *home,
                    query_points: marks.clone(),
                };
                let mut result = try_run_local_query(
                    tree,
                    corpus.features(),
                    &lq,
                    cfg.boundary_threshold,
                    fetch,
                    quota,
                    cfg.feature_weights.as_deref(),
                    budget,
                )?;
                if qd_fault::fire_keyed(qd_fault::site::SESSION_SUBQUERY_PANIC, i as u64).is_some()
                {
                    panic!("injected fault: subquery {i} worker");
                }
                result.support = support;
                // Per-subquery distance distribution (Fig. 11): one
                // observation per surviving subquery, recorded inside the
                // SUBQUERY span it belongs to.
                qd_obs::observe(
                    qd_obs::hist::QD_SUBQUERY_DISTANCES,
                    result.distance_computations,
                );
                Ok::<_, QdError>(result)
            })
        })
    });

    let mut locals = Vec::with_capacity(attempts.len());
    let mut panics: Vec<String> = Vec::new();
    for attempt in attempts {
        match attempt {
            Ok(Ok(local)) => locals.push(local),
            // Validation ran up front, so an inner error means the world
            // changed under us — surface it as-is.
            Ok(Err(e)) => return Err(e),
            Err(p) => panics.push(p.message),
        }
    }
    if locals.is_empty() {
        return Err(QdError::AllSubqueriesFailed { panics });
    }
    // Over a sharded index a subquery can "survive" the loop yet return
    // nothing because every shard leg carrying it failed — account it as a
    // dropped subquery, same as a panicked one (degraded, not an error,
    // as long as some other subquery still answered).
    let subqueries_dropped = panics.len()
        + locals
            .iter()
            .filter(|l| l.legs_dropped > 0 && l.neighbors.is_empty())
            .count();

    let knn_accesses = locals.iter().map(|l| l.accesses).sum();
    // Degradation accounting comes from the measured counters, not from the
    // surviving `locals` — so distance work done by a subquery that was
    // subsequently dropped still shows up in the report.
    let counter = |name: &str| final_counters.get(name).copied().unwrap_or(0);
    let budget_spent = counter(qd_obs::ctr::KNN_DISTANCE);
    // Per-query distance distribution (Figs. 10/12): the measured counters
    // already include work from dropped subqueries, so the observation
    // charges everything the query actually spent.
    qd_obs::observe(qd_obs::hist::QD_QUERY_DISTANCES, budget_spent);
    let nodes_skipped = counter(qd_obs::ctr::KNN_NODES_SKIPPED);
    let exhausted = counter(qd_obs::ctr::KNN_BUDGET_EXHAUSTED) > 0;
    // Lost shard legs surface through the same measured counters as budget
    // work, so whole-shard loss degrades the report even when every subquery
    // still answered from its surviving shards.
    let shard_legs_dropped = counter(qd_obs::ctr::SHARD_LEGS_DROPPED);
    let degradation =
        (subqueries_dropped > 0 || exhausted || shard_legs_dropped > 0).then_some(Degradation {
            budget_spent,
            nodes_skipped,
            subqueries_dropped,
            shard_legs_dropped,
            displays_skipped: 0,
            rounds_truncated: 0,
        });

    let (groups, results) = match cfg.merge {
        MergeStrategy::SingleList => {
            let ranked = crate::ranking::merge_single_list(&locals, k);
            let results: Vec<usize> = ranked.iter().map(|&(id, _)| id).collect();
            let group = crate::ranking::ResultGroup {
                home: locals[0].home,
                ranking_score: ranked.iter().map(|&(_, s)| s as f64).sum(),
                images: ranked,
            };
            (vec![group], results)
        }
        _ => {
            let groups = merge_local_results(&locals, k);
            let results = flatten_groups(&groups);
            (groups, results)
        }
    };
    Ok(FinalExecution {
        results,
        groups,
        knn_accesses,
        subquery_count: locals.len(),
        duration: start.elapsed(),
        degradation,
    })
}

/// A session answer plus its service level: exact, or degraded-but-valid.
///
/// Either way the ranked list inside satisfies the result invariants
/// (unique, in-range ids; at most `k`) — degradation is quality loss, never
/// corruption.
#[derive(Debug, Clone)]
pub enum ServedOutcome {
    /// The exact answer: no fault fired, no budget ran out.
    Complete(QdOutcome),
    /// A valid best-so-far answer, with the accounting of what was skipped.
    Degraded {
        /// The (still valid) session outcome.
        outcome: QdOutcome,
        /// What fell short and by how much.
        report: Degradation,
    },
}

impl ServedOutcome {
    /// The session outcome, whatever the service level.
    pub fn outcome(&self) -> &QdOutcome {
        match self {
            ServedOutcome::Complete(o) | ServedOutcome::Degraded { outcome: o, .. } => o,
        }
    }

    /// Consumes the wrapper, yielding the outcome.
    pub fn into_outcome(self) -> QdOutcome {
        match self {
            ServedOutcome::Complete(o) | ServedOutcome::Degraded { outcome: o, .. } => o,
        }
    }

    /// The degradation report, if the answer fell short of exact.
    pub fn degradation(&self) -> Option<&Degradation> {
        match self {
            ServedOutcome::Complete(_) => None,
            ServedOutcome::Degraded { report, .. } => Some(report),
        }
    }
}

/// Runs one complete QD session for `query`, retrieving `k` images, with
/// typed errors and graceful degradation: every injected fault or exhausted
/// budget yields either `Ok(Degraded {..})` with a valid ranked list or a
/// typed [`QdError`] — never a panic, a round count [`validate_rounds`]
/// refuses included.
pub fn try_run_session<I: KnnIndex>(
    corpus: &Corpus,
    rfs: &RfsStructure<I>,
    query: &QuerySpec,
    user: &mut SimulatedUser,
    k: usize,
    cfg: &QdConfig,
) -> Result<ServedOutcome, QdError> {
    validate_rounds(cfg.rounds)?;
    let rounds = run_feedback_rounds(rfs, corpus.labels(), user, cfg);
    let execution = try_execute_subqueries(corpus, rfs, &rounds.final_marks, k, cfg)?;
    Ok(assemble_outcome(corpus, query, cfg, &rounds, execution))
}

/// Assembles the served outcome of a session from its two halves: the
/// feedback-phase product and the final execution. Factored out of
/// [`try_run_session`] so a stepped session (qd-serve) that ran its halves
/// across scheduler turns produces an outcome byte-identical to a solo run.
pub fn assemble_outcome(
    corpus: &Corpus,
    query: &QuerySpec,
    cfg: &QdConfig,
    rounds: &FeedbackRounds,
    execution: FinalExecution,
) -> ServedOutcome {
    // Per-query node-access distribution (Fig. 13): feedback-phase tree
    // walks plus the final k-NN's budgeted accesses.
    qd_obs::observe(
        qd_obs::hist::QD_QUERY_NODE_ACCESSES,
        rounds.feedback_accesses + execution.knn_accesses,
    );

    // Quality trace: GTIR of the relevant images seen so far per round, and
    // the final round's retrieval quality. A session that died early keeps
    // its last snapshot for the remaining rounds with zero precision.
    let mut round_trace = Vec::with_capacity(cfg.rounds);
    let snapshots: Vec<&[usize]> = rounds.snapshots().collect();
    let last_snapshot = snapshots.last().copied().unwrap_or_default();
    for round in 1..=cfg.rounds {
        let is_final = round == cfg.rounds;
        let snapshot = snapshots.get(round - 1).copied().unwrap_or(last_snapshot);
        round_trace.push(RoundTrace {
            round,
            precision: if is_final {
                Some(precision(corpus, query, &execution.results))
            } else if round > snapshots.len() {
                Some(0.0) // dead session: the paper would show empty panels
            } else {
                None
            },
            gtir: if is_final && !execution.results.is_empty() {
                gtir(corpus, query, &execution.results)
            } else {
                gtir(corpus, query, snapshot)
            },
        });
    }

    let outcome = QdOutcome {
        results: execution.results,
        groups: execution.groups,
        round_trace,
        feedback_accesses: rounds.feedback_accesses,
        knn_accesses: execution.knn_accesses,
        subquery_count: execution.subquery_count,
        round_durations: rounds.round_durations.clone(),
        final_knn_duration: execution.duration,
    };
    let exec_degraded = execution.degradation.is_some();
    let mut report = execution.degradation.unwrap_or_default();
    report.displays_skipped = rounds.displays_skipped;
    if exec_degraded || report.displays_skipped > 0 {
        ServedOutcome::Degraded { outcome, report }
    } else {
        ServedOutcome::Complete(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    /// The outcome of a session over a well-formed fixture, whatever its
    /// service level.
    fn session_outcome(
        corpus: &Corpus,
        rfs: &RfsStructure,
        query: &QuerySpec,
        user: &mut SimulatedUser,
        k: usize,
        cfg: &QdConfig,
    ) -> QdOutcome {
        try_run_session(corpus, rfs, query, user, k, cfg)
            .expect("well-formed session")
            .into_outcome()
    }

    #[test]
    fn qd_retrieves_multiple_subconcepts() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("bird");
        let k = corpus.ground_truth(&query).len();
        let mut user = SimulatedUser::oracle(&query, 1);
        let out = session_outcome(corpus, rfs, &query, &mut user, k, &QdConfig::default());
        assert!(!out.results.is_empty());
        assert!(out.results.len() <= k);
        let g = gtir(corpus, &query, &out.results);
        assert!(g >= 2.0 / 3.0, "bird GTIR = {g}");
        let p = precision(corpus, &query, &out.results);
        assert!(p > 0.3, "bird precision = {p}");
        assert!(
            out.subquery_count >= 2,
            "expected decomposition into ≥2 subqueries"
        );
    }

    #[test]
    fn trace_has_one_entry_per_round_with_final_precision() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("rose");
        let k = corpus.ground_truth(&query).len();
        let mut user = SimulatedUser::oracle(&query, 2);
        let out = session_outcome(corpus, rfs, &query, &mut user, k, &QdConfig::default());
        assert_eq!(out.round_trace.len(), 3);
        assert!(out.round_trace[0].precision.is_none());
        assert!(out.round_trace[1].precision.is_none());
        assert!(out.round_trace[2].precision.is_some());
        // GTIR is monotone non-decreasing across rounds.
        for w in out.round_trace.windows(2) {
            assert!(w[1].gtir >= w[0].gtir - 1e-9);
        }
    }

    #[test]
    fn session_is_deterministic() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("car");
        let k = corpus.ground_truth(&query).len();
        let run = || {
            let mut user = SimulatedUser::oracle(&query, 7);
            session_outcome(corpus, rfs, &query, &mut user, k, &QdConfig::default())
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.feedback_accesses, b.feedback_accesses);
    }

    #[test]
    fn impatient_user_yields_empty_outcome() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("horse");
        let mut user = SimulatedUser::oracle(&query, 3).with_patience(0);
        let out = session_outcome(corpus, rfs, &query, &mut user, 10, &QdConfig::default());
        assert!(out.results.is_empty());
        assert_eq!(out.subquery_count, 0);
        assert_eq!(out.round_trace.len(), 3);
        assert_eq!(out.round_trace[2].precision, Some(0.0));
    }

    #[test]
    fn uniform_merge_also_fills_k() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("computer");
        let k = corpus.ground_truth(&query).len();
        let cfg = QdConfig {
            merge: MergeStrategy::Uniform,
            ..QdConfig::default()
        };
        let mut user = SimulatedUser::oracle(&query, 4);
        let out = session_outcome(corpus, rfs, &query, &mut user, k, &cfg);
        // Localized scopes bound the candidate pool, so QD may return fewer
        // than k images on a small corpus, but never more — and the pool
        // should cover most of the request.
        assert!(out.results.len() <= k);
        assert!(
            out.results.len() >= k / 2,
            "only {} of {k} slots filled",
            out.results.len()
        );
    }

    #[test]
    fn groups_partition_results() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("a person");
        let k = corpus.ground_truth(&query).len();
        let mut user = SimulatedUser::oracle(&query, 5);
        let out = session_outcome(corpus, rfs, &query, &mut user, k, &QdConfig::default());
        let from_groups: Vec<usize> = crate::ranking::flatten_groups(&out.groups);
        assert_eq!(from_groups, out.results);
        // No duplicates across groups.
        let mut sorted = out.results.clone();
        sorted.sort_unstable();
        let before = sorted.len();
        sorted.dedup();
        assert_eq!(sorted.len(), before);
    }

    #[test]
    fn feedback_touches_few_nodes() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("airplane");
        let k = corpus.ground_truth(&query).len();
        let mut user = SimulatedUser::oracle(&query, 6);
        let out = session_outcome(corpus, rfs, &query, &mut user, k, &QdConfig::default());
        // Feedback node reads stay a tiny fraction of the node count: the
        // paper's scalability claim.
        let nodes = rfs.tree().node_count() as u64;
        assert!(
            out.feedback_accesses < nodes / 2,
            "feedback touched {} of {} nodes",
            out.feedback_accesses,
            nodes
        );
    }

    #[test]
    fn unit_feature_weights_match_unweighted_session() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("rose");
        let k = corpus.ground_truth(&query).len();
        let plain = QdConfig::default();
        let weighted = QdConfig::default().with_group_weights(1.0, 1.0, 1.0);
        let mut u1 = SimulatedUser::oracle(&query, 9);
        let a = session_outcome(corpus, rfs, &query, &mut u1, k, &plain);
        let mut u2 = SimulatedUser::oracle(&query, 9);
        let b = session_outcome(corpus, rfs, &query, &mut u2, k, &weighted);
        // Unit weights rank identically to plain Euclidean (ties broken the
        // same way), so results agree as sets.
        let mut ra = a.results.clone();
        let mut rb = b.results.clone();
        ra.sort_unstable();
        rb.sort_unstable();
        assert_eq!(ra, rb);
    }

    #[test]
    fn color_only_weights_change_the_ranking() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("rose");
        let k = corpus.ground_truth(&query).len();
        let color_cfg = QdConfig::default().with_group_weights(1.0, 0.0, 0.0);
        let mut u1 = SimulatedUser::oracle(&query, 9);
        let plain = session_outcome(corpus, rfs, &query, &mut u1, k, &QdConfig::default());
        let mut u2 = SimulatedUser::oracle(&query, 9);
        let colored = session_outcome(corpus, rfs, &query, &mut u2, k, &color_cfg);
        assert!(!colored.results.is_empty());
        // The color-only session still performs respectably on a
        // color-dominated query.
        let p = crate::metrics::precision(corpus, &query, &colored.results);
        assert!(p > 0.2, "color-weighted precision {p}");
        // And the rankings are not byte-identical (texture/edge mattered).
        assert_ne!(plain.results, colored.results);
    }

    #[test]
    fn wider_threshold_expands_scopes() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("water sports");
        let k = corpus.ground_truth(&query).len();
        let tight = QdConfig {
            boundary_threshold: 1.0,
            ..QdConfig::default()
        };
        let loose = QdConfig {
            boundary_threshold: 0.0,
            ..QdConfig::default()
        };
        let mut u1 = SimulatedUser::oracle(&query, 8);
        let a = session_outcome(corpus, rfs, &query, &mut u1, k, &tight);
        let mut u2 = SimulatedUser::oracle(&query, 8);
        let b = session_outcome(corpus, rfs, &query, &mut u2, k, &loose);
        // Threshold 0 forces every subquery to the root: strictly more k-NN
        // node reads than the tight setting.
        assert!(b.knn_accesses >= a.knn_accesses);
    }

    fn assert_valid_ranked_list(results: &[usize], corpus_len: usize, k: usize) {
        assert!(results.len() <= k);
        let mut sorted = results.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), results.len(), "duplicate result ids");
        for &id in results {
            assert!(id < corpus_len, "result id {id} out of range");
        }
    }

    #[test]
    fn zero_rounds_is_a_typed_error_not_a_panic() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("bird");
        let cfg = QdConfig {
            rounds: 0,
            ..QdConfig::default()
        };
        let mut user = SimulatedUser::oracle(&query, 1);
        let err = try_run_session(corpus, rfs, &query, &mut user, 10, &cfg).unwrap_err();
        assert_eq!(err, QdError::NoFeedbackRounds);
    }

    #[test]
    fn more_rounds_than_the_bound_is_a_typed_error() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("bird");
        for rounds in [MAX_FEEDBACK_ROUNDS + 1, usize::MAX] {
            let cfg = QdConfig {
                rounds,
                ..QdConfig::default()
            };
            let mut user = SimulatedUser::oracle(&query, 1);
            let err = try_run_session(corpus, rfs, &query, &mut user, 10, &cfg).unwrap_err();
            assert_eq!(
                err,
                QdError::TooManyFeedbackRounds {
                    rounds,
                    max: MAX_FEEDBACK_ROUNDS
                }
            );
        }
    }

    /// A session at the round bound keeps every mark once: the snapshots
    /// are prefixes of one list holding exactly the marks the rounds made,
    /// not one copy of everything seen per round.
    #[test]
    fn a_thousand_round_session_retains_each_mark_once() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("bird");
        let cfg = QdConfig {
            rounds: MAX_FEEDBACK_ROUNDS,
            ..QdConfig::default()
        };
        let mut user = SimulatedUser::oracle(&query, 3);
        let (rounds, trace) =
            qd_obs::with_recorder(|| run_feedback_rounds(rfs, corpus.labels(), &mut user, &cfg));
        assert_eq!(
            rounds.round_ends.len(),
            MAX_FEEDBACK_ROUNDS,
            "the session died"
        );
        let marks = trace.counters[qd_obs::ctr::SESSION_MARKS];
        assert_eq!(rounds.relevant_seen.len() as u64, marks);
        assert!(rounds.round_ends.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(rounds.round_ends.last(), Some(&rounds.relevant_seen.len()));
        // What one copy per round would have retained.
        let prefix_total: usize = rounds.snapshots().map(<[usize]>::len).sum();
        assert!(
            prefix_total as u64 > 100 * marks,
            "{prefix_total} vs {marks}"
        );

        // The GTIR trace reads those prefixes round by round.
        let mut user = SimulatedUser::oracle(&query, 3);
        let k = corpus.ground_truth(&query).len();
        let out = session_outcome(corpus, rfs, &query, &mut user, k, &cfg);
        assert_eq!(out.round_trace.len(), MAX_FEEDBACK_ROUNDS);
        for w in out.round_trace.windows(2) {
            assert!(w[1].gtir >= w[0].gtir - 1e-9);
        }
    }

    #[test]
    fn stepped_feedback_matches_the_solo_run() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("car");
        let cfg = QdConfig::default();
        let mut u1 = SimulatedUser::oracle(&query, 7);
        let a = run_feedback_rounds(rfs, corpus.labels(), &mut u1, &cfg);
        let mut u2 = SimulatedUser::oracle(&query, 7);
        let mut stepper = FeedbackStepper::new(rfs, corpus.labels(), cfg.clone());
        let mut steps = 0;
        while !stepper.step_round(&mut u2) {
            steps += 1;
        }
        assert_eq!(steps + 1, stepper.rounds_run());
        let b = stepper.finish();
        assert_eq!(a.final_marks, b.final_marks);
        assert!(a.snapshots().eq(b.snapshots()));
        assert_eq!(a.feedback_accesses, b.feedback_accesses);
        assert_eq!(a.displays_skipped, b.displays_skipped);
    }

    #[test]
    fn truncated_stepper_yields_best_so_far_marks() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("bird");
        let cfg = QdConfig::default();
        let mut user = SimulatedUser::oracle(&query, 21);
        let mut stepper = FeedbackStepper::new(rfs, corpus.labels(), cfg.clone());
        stepper.step_round(&mut user); // round 1 of 3
        assert!(!stepper.is_done());
        stepper.truncate();
        assert!(stepper.is_done());
        // Further steps are no-ops after truncation.
        assert!(stepper.step_round(&mut user));
        let rounds = stepper.finish();
        assert_eq!(rounds.round_durations.len(), 1);
        assert!(
            !rounds.final_marks.is_empty(),
            "round-1 marks must be promoted to final marks"
        );
        // The best-so-far marks still execute into a valid ranked list.
        let k = corpus.ground_truth(&query).len();
        let exec = try_execute_subqueries(corpus, rfs, &rounds.final_marks, k, &cfg).unwrap();
        assert_valid_ranked_list(&exec.results, corpus.len(), k);
    }

    #[test]
    fn validate_subqueries_reports_each_defect() {
        let (corpus, rfs) = testutil::shared();
        let cfg = QdConfig::default();
        let root = rfs.tree().root();

        let empty = vec![(root, Vec::new())];
        assert!(matches!(
            validate_subqueries(corpus, rfs, &empty, &cfg),
            Err(QdError::EmptySubquery { subquery: 0 })
        ));

        let oor = vec![(root, vec![corpus.len() + 1])];
        assert!(matches!(
            validate_subqueries(corpus, rfs, &oor, &cfg),
            Err(QdError::ImageOutOfRange { subquery: 0, .. })
        ));

        let bad_weights = QdConfig {
            feature_weights: Some(vec![1.0]),
            ..QdConfig::default()
        };
        let fine = vec![(root, vec![0])];
        assert!(matches!(
            validate_subqueries(corpus, rfs, &fine, &bad_weights),
            Err(QdError::WeightDimension { got: 1, .. })
        ));
        assert_eq!(validate_subqueries(corpus, rfs, &fine, &cfg), Ok(()));
    }

    #[test]
    fn distance_budget_yields_degraded_but_valid_sessions() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("bird");
        let k = corpus.ground_truth(&query).len();

        let mut u = SimulatedUser::oracle(&query, 21);
        let unbudgeted = try_run_session(corpus, rfs, &query, &mut u, k, &QdConfig::default())
            .expect("unbudgeted session");
        let ServedOutcome::Complete(full) = &unbudgeted else {
            panic!("unbudgeted session must be Complete");
        };

        for budget in [0u64, 1, 10, 200, 5_000] {
            let cfg = QdConfig {
                distance_budget: Some(budget),
                ..QdConfig::default()
            };
            let mut u = SimulatedUser::oracle(&query, 21);
            let served =
                try_run_session(corpus, rfs, &query, &mut u, k, &cfg).expect("budgeted session");
            assert_valid_ranked_list(served.outcome().results.as_slice(), corpus.len(), k);
            if let ServedOutcome::Degraded { report, .. } = &served {
                assert!(report.budget_spent > 0 || report.nodes_skipped > 0);
            }
            // Determinism: identical budget, identical outcome.
            let mut u2 = SimulatedUser::oracle(&query, 21);
            let again = try_run_session(corpus, rfs, &query, &mut u2, k, &cfg).unwrap();
            assert_eq!(served.outcome().results, again.outcome().results);
        }

        // A huge budget changes nothing.
        let lavish = QdConfig {
            distance_budget: Some(u64::MAX),
            ..QdConfig::default()
        };
        let mut u3 = SimulatedUser::oracle(&query, 21);
        let same = try_run_session(corpus, rfs, &query, &mut u3, k, &lavish).unwrap();
        assert_eq!(same.outcome().results, full.results);
    }

    #[test]
    fn subquery_panic_drops_only_that_subquery() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("bird");
        let k = corpus.ground_truth(&query).len();
        let cfg = QdConfig::default();

        let mut u = SimulatedUser::oracle(&query, 21);
        let rounds = run_feedback_rounds(rfs, corpus.labels(), &mut u, &cfg);
        let subqueries = rounds.final_marks;
        assert!(subqueries.len() >= 2, "fixture must decompose");

        let clean = try_execute_subqueries(corpus, rfs, &subqueries, k, &cfg).unwrap();

        let one_dead = qd_fault::FaultPlan::new(7).site(
            qd_fault::site::SESSION_SUBQUERY_PANIC,
            qd_fault::Mode::Once(0),
        );
        let degraded = qd_fault::with_plan(&one_dead, || {
            try_execute_subqueries(corpus, rfs, &subqueries, k, &cfg)
        })
        .unwrap();
        let report = degraded
            .degradation
            .clone()
            .expect("must report degradation");
        assert_eq!(report.subqueries_dropped, 1);
        assert_valid_ranked_list(&degraded.results, corpus.len(), k);
        assert!(degraded.subquery_count < clean.subquery_count);

        let all_dead = qd_fault::FaultPlan::new(7).site(
            qd_fault::site::SESSION_SUBQUERY_PANIC,
            qd_fault::Mode::Always,
        );
        let err = qd_fault::with_plan(&all_dead, || {
            try_execute_subqueries(corpus, rfs, &subqueries, k, &cfg)
        })
        .unwrap_err();
        assert!(
            matches!(err, QdError::AllSubqueriesFailed { ref panics } if panics.len() == subqueries.len())
        );
    }

    #[test]
    fn skipped_displays_surface_as_degradation_not_panic() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("rose");
        let k = corpus.ground_truth(&query).len();
        let cfg = QdConfig::default();

        let plan = qd_fault::FaultPlan::new(3).site(
            qd_fault::site::SESSION_ROUND_DISPLAY,
            qd_fault::Mode::Always,
        );
        let mut u = SimulatedUser::oracle(&query, 4);
        let served = qd_fault::with_plan(&plan, || {
            try_run_session(corpus, rfs, &query, &mut u, k, &cfg)
        })
        .expect("session must survive skipped displays");
        match served {
            ServedOutcome::Degraded { outcome, report } => {
                assert!(report.displays_skipped > 0);
                assert_valid_ranked_list(&outcome.results, corpus.len(), k);
            }
            ServedOutcome::Complete(_) => panic!("all displays skipped must degrade"),
        }
    }
}
