//! The supervised multi-tenant scheduler.
//!
//! [`Server::run`] drives a [`LoadPlan`]'s sessions through a deterministic
//! round-robin scheduler over a shared immutable RFS snapshot. Each tick:
//! arrivals are admitted (or shed), queued sessions are promoted into free
//! active slots, and every active session advances by one step — one
//! feedback round or the final localized k-NN — in turn order, on the
//! calling thread. A step is tens of microseconds, well below the grain at
//! which a thread fan-out pays (DESIGN.md §7).
//!
//! The isolation contract (DESIGN.md §13):
//!
//! * every session step runs under its **own** observability recorder and
//!   (when the spec carries one) its **own** fault plan, so a session's
//!   trace and fault decisions are byte-identical whether it runs alone or
//!   among any number of neighbors;
//! * a panicking step is caught by `qd_runtime::isolated`; the poisoned
//!   session is quarantined (its state dies with it) and reported as
//!   evicted, while every neighbor steps exactly as if the panic had not
//!   happened;
//! * all supervisor decisions (shedding, eviction, deadlines) are pure
//!   functions of `(config seeds, session id, accumulated deterministic
//!   cost)` — never of wall-clock time or thread scheduling.

use crate::load::{mix64, LoadPlan, Scenario, SessionId, SessionSpec};
use qd_core::session::{
    assemble_outcome, try_execute_subqueries, validate_rounds, Degradation, FeedbackRounds,
    FeedbackStepper, QdOutcome, ServedOutcome,
};
use qd_core::{QdError, RfsStructure, SimulatedUser};
use qd_corpus::Corpus;
use qd_index::{KnnIndex, RStarTree};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// How a session ended: the four terminal states a [`SessionReport`] can
/// hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Finished with the exact answer.
    Complete,
    /// Finished with a valid best-so-far answer (deadline truncation,
    /// budget exhaustion, or injected degradation).
    Degraded,
    /// Removed by the supervisor before finishing.
    Evicted,
    /// Finished with a typed [`QdError`].
    Failed,
}

/// Why the supervisor removed a session before it finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvictReason {
    /// Load shedding: the wait queue was full and the seeded coin picked
    /// this session (newcomer or oldest queued).
    Shed,
    /// The `serve.admission.reject` failpoint fired at the door.
    AdmissionFault,
    /// The session's step panicked; the panic was caught and the session
    /// quarantined. Carries the panic message.
    Poisoned(String),
    /// The `serve.session.evict` failpoint fired — operator-style forced
    /// eviction mid-flight.
    Operator,
    /// The server hit its tick limit with the session still unfinished.
    Stalled,
}

impl EvictReason {
    /// True for door-level rejections (never held an active slot's work).
    pub fn is_shed(&self) -> bool {
        matches!(self, EvictReason::Shed | EvictReason::AdmissionFault)
    }
}

/// Terminal result of one served session.
#[derive(Debug, Clone)]
pub enum SessionOutcome {
    /// The exact answer.
    Complete(QdOutcome),
    /// A valid best-so-far answer plus the degradation accounting.
    Degraded {
        /// The (still valid) session outcome.
        outcome: QdOutcome,
        /// What fell short and by how much.
        report: Degradation,
    },
    /// Removed by the supervisor; no answer.
    Evicted(EvictReason),
    /// A typed engine error.
    Failed(QdError),
}

impl SessionOutcome {
    /// The terminal [`SessionState`] this outcome represents.
    pub fn state(&self) -> SessionState {
        match self {
            SessionOutcome::Complete(_) => SessionState::Complete,
            SessionOutcome::Degraded { .. } => SessionState::Degraded,
            SessionOutcome::Evicted(_) => SessionState::Evicted,
            SessionOutcome::Failed(_) => SessionState::Failed,
        }
    }
}

/// Everything the server knows about one finished session.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The session's identity.
    pub id: SessionId,
    /// The behavior scenario it ran under.
    pub scenario: Scenario,
    /// Terminal outcome.
    pub outcome: SessionOutcome,
    /// Feedback rounds actually executed.
    pub rounds_run: usize,
    /// True when the serving deadline cut the feedback phase short.
    pub truncated: bool,
    /// Deterministic cost spent (representative displays + distance
    /// computations), summed over the session's steps.
    pub cost_spent: u64,
    /// Tick the session arrived.
    pub arrival_tick: u64,
    /// Tick the session reached its terminal state.
    pub finished_tick: u64,
    /// The session's private observability trace: the sum of its step
    /// traces, in step order. Byte-identical to the same session run solo.
    pub trace: qd_obs::Trace,
}

impl SessionReport {
    /// Ticks from arrival to terminal state, inclusive.
    pub fn latency_ticks(&self) -> u64 {
        self.finished_tick.saturating_sub(self.arrival_tick) + 1
    }

    /// A scheduling-independent one-line digest: everything about the
    /// session's *work* (outcome, rounds, cost, trace) and nothing about
    /// *when* the scheduler happened to run it. Two runs that step this
    /// session through the same work produce the same fingerprint at any
    /// thread count, neighbor count, or queueing delay.
    pub fn fingerprint(&self) -> String {
        let outcome = match &self.outcome {
            SessionOutcome::Complete(o) => format!(
                "complete,sub={},fb={},knn={},results={:?}",
                o.subquery_count, o.feedback_accesses, o.knn_accesses, o.results
            ),
            SessionOutcome::Degraded { outcome, report } => format!(
                "degraded,sub={},fb={},knn={},spent={},skipped={},dropped={},legs={},displays={},rounds_cut={},results={:?}",
                outcome.subquery_count,
                outcome.feedback_accesses,
                outcome.knn_accesses,
                report.budget_spent,
                report.nodes_skipped,
                report.subqueries_dropped,
                report.shard_legs_dropped,
                report.displays_skipped,
                report.rounds_truncated,
                outcome.results
            ),
            SessionOutcome::Evicted(reason) => format!("evicted,{reason:?}"),
            SessionOutcome::Failed(e) => format!("failed,{e}"),
        };
        format!(
            "{} {} rounds={} truncated={} cost={} :: {} :: trace\n{}",
            self.id,
            self.scenario.name(),
            self.rounds_run,
            self.truncated,
            self.cost_spent,
            outcome,
            self.trace.render()
        )
    }
}

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Active slots: sessions stepped per tick, one after another.
    pub max_active: usize,
    /// Wait-queue capacity; arrivals beyond it trigger load shedding.
    pub queue_capacity: usize,
    /// Seed of the overload shedding coin.
    pub shed_seed: u64,
    /// Watchdog: ticks after which unfinished sessions are evicted as
    /// [`EvictReason::Stalled`] — the scheduler can never spin forever.
    pub max_ticks: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_active: 4,
            queue_capacity: 8,
            shed_seed: 0x5eed,
            max_ticks: 10_000,
        }
    }
}

/// The full run's result: one report per planned session plus scheduler
/// totals.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// One report per session in the plan, ascending by id.
    pub sessions: Vec<SessionReport>,
    /// Scheduler ticks executed.
    pub ticks: u64,
}

impl ServeReport {
    /// The report for `id`, if the plan contained it.
    pub fn session(&self, id: SessionId) -> Option<&SessionReport> {
        self.sessions.iter().find(|s| s.id == id)
    }

    /// Ids shed at the door (admission overload or admission failpoint),
    /// ascending.
    pub fn shed_ids(&self) -> Vec<SessionId> {
        self.sessions
            .iter()
            .filter(|s| matches!(&s.outcome, SessionOutcome::Evicted(r) if r.is_shed()))
            .map(|s| s.id)
            .collect()
    }

    /// Ids evicted for any reason (shed, poisoned, operator, stalled),
    /// ascending.
    pub fn evicted_ids(&self) -> Vec<SessionId> {
        self.sessions
            .iter()
            .filter(|s| matches!(&s.outcome, SessionOutcome::Evicted(_)))
            .map(|s| s.id)
            .collect()
    }

    /// `(complete, degraded, evicted, failed)` session counts.
    pub fn state_counts(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for s in &self.sessions {
            match s.outcome.state() {
                SessionState::Complete => counts.0 += 1,
                SessionState::Degraded => counts.1 += 1,
                SessionState::Evicted => counts.2 += 1,
                SessionState::Failed => counts.3 += 1,
            }
        }
        counts
    }

    /// Fraction of *answered* sessions (complete or degraded) whose answer
    /// was degraded.
    pub fn degradation_rate(&self) -> f64 {
        let (complete, degraded, _, _) = self.state_counts();
        if complete + degraded == 0 {
            0.0
        } else {
            degraded as f64 / (complete + degraded) as f64
        }
    }

    /// Deterministic multi-line summary (what `qd serve-sim` prints).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let (complete, degraded, evicted, failed) = self.state_counts();
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} sessions over {} ticks: {} complete, {} degraded, {} evicted, {} failed",
            self.sessions.len(),
            self.ticks,
            complete,
            degraded,
            evicted,
            failed
        );
        for r in &self.sessions {
            let state = match &r.outcome {
                SessionOutcome::Complete(_) => "complete".to_string(),
                SessionOutcome::Degraded { .. } => "degraded".to_string(),
                SessionOutcome::Evicted(reason) => format!("evicted({reason:?})"),
                SessionOutcome::Failed(e) => format!("failed({e})"),
            };
            let _ = writeln!(
                s,
                "  {} {:<21} {:<10} rounds={} cost={:>6} latency={:>3} {}",
                r.id,
                r.scenario.name(),
                state,
                r.rounds_run,
                r.cost_spent,
                r.latency_ticks(),
                if r.truncated { "[truncated]" } else { "" }
            );
        }
        s
    }
}

/// Where a live session is in its protocol.
enum Phase<'a, I: KnnIndex> {
    /// Feedback rounds in progress. Boxed: the stepper (marks, per-round
    /// state) dwarfs the other variants.
    Feedback(Box<FeedbackStepper<'a, RfsStructure<I>>>),
    /// Feedback done; the final localized k-NN is the next step.
    Final(FeedbackRounds),
    /// Terminal; never scheduled again.
    Done,
}

/// Supervisor-side ledger for one session holding an active slot: its
/// protocol state and what it has spent so far. A queued session needs
/// none; it has spent nothing yet.
struct Meta<'a, I: KnnIndex> {
    spec: &'a SessionSpec,
    user: SimulatedUser,
    phase: Phase<'a, I>,
    /// The snapshot this session was promoted against. Every step of the
    /// session — feedback rounds and the final k-NN — runs against this
    /// reference, so a snapshot swap mid-run never changes an in-flight
    /// session's answer (DESIGN.md §14).
    rfs: &'a RfsStructure<I>,
    spent: u64,
    rounds_run: usize,
    truncated: bool,
    trace: qd_obs::Trace,
}

/// What one scheduler step produced.
enum StepEvent {
    /// A feedback round ran, or the deadline cut the rounds short; more
    /// steps needed.
    Round {
        /// Feedback rounds executed so far.
        rounds_run: usize,
        /// True when this step was the deadline truncation.
        truncated: bool,
    },
    /// The session reached an engine-terminal state.
    Finished(Result<ServedOutcome, QdError>),
}

/// Deterministic cost of one step, in the contract's cost units.
fn step_cost(trace: &qd_obs::Trace) -> u64 {
    let get = |name: &qd_obs::Name| trace.counters.get(name).copied().unwrap_or(0);
    get(qd_obs::ctr::SESSION_DISPLAYS) + get(qd_obs::ctr::KNN_DISTANCE)
}

/// Merges one step's trace into a session's accumulated trace: counters
/// add, histograms concatenate, and the step's spans append in step order.
fn merge_trace(acc: &mut qd_obs::Trace, step: qd_obs::Trace) {
    for (name, value) in step.counters {
        *acc.counters.entry(name).or_default() += value;
    }
    for (name, hist) in step.hists {
        acc.hists.entry(name).or_default().merge(&hist);
    }
    for (name, value) in step.root.counters {
        *acc.root.counters.entry(name).or_default() += value;
    }
    acc.root.children.extend(step.root.children);
}

/// Advances one session by one scheduler step: one feedback round, the
/// deadline truncation, or the final localized k-NN. Runs inside the
/// session's private recorder (and fault plan, when it has one), so
/// everything it observes lands in the session's own trace. The supervisor
/// folds the event into the ledger only once the step has returned: a
/// panicking step leaves the ledger's totals as they were before it.
fn step_session<I: KnnIndex>(corpus: &Corpus, meta: &mut Meta<'_, I>) -> StepEvent {
    let spec = meta.spec;
    match std::mem::replace(&mut meta.phase, Phase::Done) {
        Phase::Feedback(mut stepper) => {
            let over_deadline = spec.deadline.is_some_and(|d| meta.spent >= d);
            let truncated = over_deadline && !stepper.is_done();
            if truncated {
                // Deadline enforcement: promote the best-so-far marks and
                // skip the remaining rounds.
                stepper.truncate();
            } else {
                stepper.step_round(&mut meta.user);
            }
            let rounds_run = stepper.rounds_run();
            meta.phase = if stepper.is_done() {
                Phase::Final(stepper.finish())
            } else {
                Phase::Feedback(stepper)
            };
            StepEvent::Round {
                rounds_run,
                truncated,
            }
        }
        Phase::Final(rounds) => {
            // The final k-NN runs on whatever deadline budget remains,
            // folded into the engine's anytime distance-budget path.
            let mut cfg = spec.cfg.clone();
            if let Some(deadline) = spec.deadline {
                let remaining = deadline.saturating_sub(meta.spent);
                cfg.distance_budget = Some(match cfg.distance_budget {
                    Some(budget) => budget.min(remaining),
                    None => remaining,
                });
            }
            let result =
                try_execute_subqueries(corpus, meta.rfs, &rounds.final_marks, spec.k, &cfg).map(
                    |execution| assemble_outcome(corpus, &spec.query, &cfg, &rounds, execution),
                );
            StepEvent::Finished(result)
        }
        Phase::Done => {
            panic!("supervisor stepped a terminal session (scheduler invariant broken)")
        }
    }
}

/// Runs [`step_session`] as the `turn`-th step of its tick, isolated from
/// every neighbor: under its own recorder, under its own fault plan when
/// the spec carries one, and under `catch_unwind`, so a panic poisons this
/// session alone.
fn isolated_step<I: KnnIndex>(
    corpus: &Corpus,
    meta: &mut Meta<'_, I>,
    turn: usize,
) -> Result<(StepEvent, qd_obs::Trace), qd_runtime::TaskPanic> {
    let spec = meta.spec;
    let id = spec.id.0;
    qd_runtime::isolated(turn, || {
        let mut step = || {
            qd_obs::with_recorder(|| {
                // Failpoint: this session's step is poisoned.
                if qd_fault::fire_keyed(qd_fault::site::SERVE_STEP_PANIC, id).is_some() {
                    panic!("injected fault: poisoned step of session {id}");
                }
                step_session(corpus, meta)
            })
        };
        match &spec.fault_plan {
            Some(plan) => qd_fault::with_plan(plan, step),
            None => step(),
        }
    })
}

/// The multi-tenant session server: a shared immutable snapshot plus a
/// scheduler configuration. `run` is a pure function of the load plan (and
/// the ambient fault plan, if one is installed).
///
/// Generic over the index type behind the RFS snapshot: the default
/// `RStarTree` serves a monolithic arena, while `qd-shard`'s `ShardSet`
/// serves a partitioned corpus through the same scheduler unchanged. The
/// index need not be `Sync`: a run never leaves the calling thread.
pub struct Server<I: KnnIndex = RStarTree> {
    corpus: Arc<Corpus>,
    rfs: Arc<RfsStructure<I>>,
    cfg: ServeConfig,
}

impl<I: KnnIndex> Server<I> {
    /// A server over a shared corpus + RFS snapshot.
    pub fn new(corpus: Arc<Corpus>, rfs: Arc<RfsStructure<I>>, cfg: ServeConfig) -> Self {
        assert!(cfg.max_active >= 1, "at least one active slot required");
        Server { corpus, rfs, cfg }
    }

    /// Drives every session in `plan` to a terminal state and reports.
    pub fn run(&self, plan: &LoadPlan) -> ServeReport {
        self.run_with_swaps(plan, &[])
    }

    /// Like [`Server::run`], but publishes replacement snapshots mid-run:
    /// at each `(tick, snapshot)` pair (ascending by tick) the active
    /// snapshot is swapped before that tick's promotions, so sessions
    /// promoted afterwards run against the new snapshot while every
    /// in-flight session keeps the reference it captured at promotion —
    /// the copy-on-write contract of DESIGN.md §14.
    pub fn run_with_swaps(
        &self,
        plan: &LoadPlan,
        swaps: &[(u64, Arc<RfsStructure<I>>)],
    ) -> ServeReport {
        assert!(
            swaps.windows(2).all(|w| w[0].0 <= w[1].0),
            "snapshot swaps must be ascending by tick"
        );
        qd_obs::span(qd_obs::sp::SERVE_RUN, || self.run_inner(plan, swaps))
    }

    fn run_inner<'a>(
        &'a self,
        plan: &'a LoadPlan,
        swaps: &'a [(u64, Arc<RfsStructure<I>>)],
    ) -> ServeReport {
        let corpus: &Corpus = &self.corpus;
        let mut rfs: &'a RfsStructure<I> = &self.rfs;
        let mut next_swap = 0usize;
        let cfg = &self.cfg;

        // Arrival order: (tick, id). The generator already emits this order,
        // but re-sorting makes hand-built plans equally valid.
        let mut order: Vec<&SessionSpec> = plan.specs.iter().collect();
        order.sort_by_key(|spec| (spec.arrival_tick, spec.id));
        let mut arrivals: VecDeque<&SessionSpec> = order.into();

        let mut rr: VecDeque<Meta<'a, I>> = VecDeque::new(); // active, round-robin order
        let mut queue: VecDeque<&SessionSpec> = VecDeque::new(); // admitted, waiting
        let mut reports: BTreeMap<u64, SessionReport> = BTreeMap::new();

        let mut tick: u64 = 0;
        loop {
            if arrivals.is_empty() && rr.is_empty() && queue.is_empty() {
                break;
            }
            if tick >= cfg.max_ticks {
                // Watchdog: every unfinished session (active, queued, or not
                // yet arrived) is retired as stalled, so the report always
                // covers the whole plan.
                let stalled = || SessionOutcome::Evicted(EvictReason::Stalled);
                for meta in rr.drain(..) {
                    qd_obs::count(qd_obs::ctr::SERVE_EVICTED, 1);
                    retire(meta, stalled(), tick, &mut reports);
                }
                for spec in queue.drain(..) {
                    qd_obs::count(qd_obs::ctr::SERVE_EVICTED, 1);
                    let report = door_report(spec, stalled(), tick);
                    observe_retired(&report);
                    reports.insert(spec.id.0, report);
                }
                for spec in arrivals.drain(..) {
                    qd_obs::count(qd_obs::ctr::SERVE_EVICTED, 1);
                    reports.insert(spec.id.0, door_report(spec, stalled(), tick));
                }
                break;
            }
            // Nothing live and the next arrival is in the future: skip ahead.
            if rr.is_empty() && queue.is_empty() {
                if let Some(next) = arrivals.front() {
                    if next.arrival_tick > tick {
                        tick = next.arrival_tick.min(cfg.max_ticks);
                        continue;
                    }
                }
            }

            // 0. Snapshot publication: swaps due at this tick take effect
            //    before promotion, so newly promoted sessions capture the
            //    fresh snapshot and in-flight ones keep theirs.
            while swaps.get(next_swap).is_some_and(|(t, _)| *t <= tick) {
                rfs = &swaps[next_swap].1;
                next_swap += 1;
                qd_obs::count(qd_obs::ctr::SERVE_SWAPS, 1);
            }

            // 1. Admission: everyone whose arrival tick has come.
            while let Some(spec) = arrivals.front().copied() {
                if spec.arrival_tick > tick {
                    break;
                }
                arrivals.pop_front();
                self.admit(spec, tick, rr.len(), &mut queue, &mut reports);
            }

            // 2. Promotion: fill free active slots from the wait queue.
            while rr.len() < cfg.max_active {
                let Some(spec) = queue.pop_front() else { break };
                rr.push_back(Meta {
                    spec,
                    user: spec.user(),
                    phase: Phase::Feedback(Box::new(FeedbackStepper::new(
                        rfs,
                        corpus.labels(),
                        spec.cfg.clone(),
                    ))),
                    rfs,
                    spent: 0,
                    rounds_run: 0,
                    truncated: false,
                    trace: qd_obs::Trace::default(),
                });
            }

            // 3. Forced evictions apply at the door of the turn, before any
            //    session steps.
            let mut turn = Vec::with_capacity(rr.len());
            for meta in rr.drain(..) {
                if qd_fault::fire_keyed(qd_fault::site::SERVE_EVICT, meta.spec.id.0).is_some() {
                    qd_obs::count(qd_obs::ctr::SERVE_EVICTED, 1);
                    let evicted = SessionOutcome::Evicted(EvictReason::Operator);
                    retire(meta, evicted, tick, &mut reports);
                } else {
                    turn.push(meta);
                }
            }

            // 4. Every remaining active session steps, in turn order.
            if !turn.is_empty() {
                qd_obs::span_indexed(qd_obs::sp::SERVE_TICK, tick, || {
                    qd_obs::count(qd_obs::ctr::SERVE_STEPS, turn.len() as u64);
                    qd_obs::observe(qd_obs::hist::SERVE_TICK_STEPS, turn.len() as u64);
                    for (i, mut meta) in turn.into_iter().enumerate() {
                        let (event, trace) = match isolated_step(corpus, &mut meta, i) {
                            Ok(stepped) => stepped,
                            Err(panic) => {
                                // Quarantined: its in-flight state dies with
                                // it, and the neighbors step on untouched.
                                qd_obs::count(qd_obs::ctr::SERVE_EVICTED, 1);
                                let reason = EvictReason::Poisoned(panic.message);
                                let poisoned = SessionOutcome::Evicted(reason);
                                retire(meta, poisoned, tick, &mut reports);
                                continue;
                            }
                        };
                        meta.spent += step_cost(&trace);
                        merge_trace(&mut meta.trace, trace);
                        match event {
                            StepEvent::Round {
                                rounds_run,
                                truncated,
                            } => {
                                meta.rounds_run = rounds_run;
                                if truncated {
                                    meta.truncated = true;
                                    qd_obs::count(qd_obs::ctr::SERVE_TRUNCATIONS, 1);
                                }
                                rr.push_back(meta);
                            }
                            StepEvent::Finished(result) => {
                                let outcome =
                                    classify(meta.spec, meta.truncated, meta.rounds_run, result);
                                retire(meta, outcome, tick, &mut reports);
                            }
                        }
                    }
                });
            }

            tick += 1;
        }

        debug_assert_eq!(reports.len(), plan.specs.len(), "a session went missing");
        ServeReport {
            sessions: reports.into_values().collect(),
            ticks: tick,
        }
    }

    /// Admission control: failpoint rejection, then slot/queue placement,
    /// then the seeded overload coin.
    fn admit<'a>(
        &self,
        spec: &'a SessionSpec,
        tick: u64,
        active: usize,
        queue: &mut VecDeque<&'a SessionSpec>,
        reports: &mut BTreeMap<u64, SessionReport>,
    ) {
        let id = spec.id.0;
        // A tenant asking for zero feedback rounds has no final round to
        // answer from, and one asking for more than the engine's bound would
        // never finish (a stepper cannot be built for either): refused at
        // the door with the engine's own typed error.
        if let Err(e) = validate_rounds(spec.cfg.rounds) {
            let refused = SessionOutcome::Failed(e);
            reports.insert(id, door_report(spec, refused, tick));
            return;
        }
        // Failpoint: admission rejects this session at the door.
        if qd_fault::fire_keyed(qd_fault::site::SERVE_ADMISSION, id).is_some() {
            qd_obs::count(qd_obs::ctr::SERVE_SHED, 1);
            let shed = SessionOutcome::Evicted(EvictReason::AdmissionFault);
            reports.insert(id, door_report(spec, shed, tick));
            return;
        }
        let admit_to_queue = |queue: &mut VecDeque<&'a SessionSpec>| {
            queue.push_back(spec);
            qd_obs::count(qd_obs::ctr::SERVE_ADMITTED, 1);
        };
        if active + queue.len() < self.cfg.max_active + self.cfg.queue_capacity {
            admit_to_queue(queue);
            return;
        }
        // Overload: a seeded coin (pure function of shed seed and session
        // id) decides whether the newcomer or the oldest queued session is
        // shed — deterministic at any thread count or arrival interleaving.
        qd_obs::count(qd_obs::ctr::SERVE_SHED, 1);
        let shed = SessionOutcome::Evicted(EvictReason::Shed);
        if mix64(self.cfg.shed_seed ^ mix64(id)) & 1 == 0 || queue.is_empty() {
            reports.insert(id, door_report(spec, shed, tick));
        } else if let Some(victim) = queue.pop_front() {
            reports.insert(victim.id.0, door_report(victim, shed, tick));
            admit_to_queue(queue);
        }
    }
}

/// A report for a session that never held an active slot.
fn door_report(spec: &SessionSpec, outcome: SessionOutcome, tick: u64) -> SessionReport {
    SessionReport {
        id: spec.id,
        scenario: spec.scenario,
        outcome,
        rounds_run: 0,
        truncated: false,
        cost_spent: 0,
        arrival_tick: spec.arrival_tick,
        finished_tick: tick,
        trace: qd_obs::Trace::default(),
    }
}

/// Feeds an admitted session's retirement into the run's histograms.
fn observe_retired(report: &SessionReport) {
    qd_obs::observe(qd_obs::hist::SERVE_LATENCY_TICKS, report.latency_ticks());
    qd_obs::observe(qd_obs::hist::SERVE_COST_UNITS, report.cost_spent);
}

/// Retires a session that held an active slot: ledger out, report in,
/// histograms fed.
fn retire<I: KnnIndex>(
    meta: Meta<'_, I>,
    outcome: SessionOutcome,
    tick: u64,
    reports: &mut BTreeMap<u64, SessionReport>,
) {
    let spec = meta.spec;
    let report = SessionReport {
        id: spec.id,
        scenario: spec.scenario,
        outcome,
        rounds_run: meta.rounds_run,
        truncated: meta.truncated,
        cost_spent: meta.spent,
        arrival_tick: spec.arrival_tick,
        finished_tick: tick,
        trace: meta.trace,
    };
    observe_retired(&report);
    reports.insert(spec.id.0, report);
}

/// Maps an engine-terminal result to the session's outcome, folding the
/// serving deadline's truncation into the degradation report.
fn classify(
    spec: &SessionSpec,
    truncated: bool,
    rounds_run: usize,
    result: Result<ServedOutcome, QdError>,
) -> SessionOutcome {
    match result {
        Err(e) => SessionOutcome::Failed(e),
        Ok(served) => {
            let rounds_truncated = spec.cfg.rounds.saturating_sub(rounds_run);
            match served {
                ServedOutcome::Complete(outcome) if truncated => SessionOutcome::Degraded {
                    outcome,
                    report: Degradation {
                        rounds_truncated,
                        ..Degradation::default()
                    },
                },
                ServedOutcome::Complete(outcome) => SessionOutcome::Complete(outcome),
                ServedOutcome::Degraded {
                    outcome,
                    mut report,
                } => {
                    if truncated {
                        report.rounds_truncated = rounds_truncated;
                    }
                    SessionOutcome::Degraded { outcome, report }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{LoadConfig, Scenario};
    use qd_core::rfs::RfsConfig;
    use qd_corpus::CorpusConfig;
    use qd_fault::{FaultPlan, Mode};
    use std::sync::OnceLock;

    fn fixture() -> (Arc<Corpus>, Arc<RfsStructure>) {
        static FIXTURE: OnceLock<(Arc<Corpus>, Arc<RfsStructure>)> = OnceLock::new();
        FIXTURE
            .get_or_init(|| {
                let corpus = Corpus::build(&CorpusConfig {
                    size: 200,
                    image_size: 16,
                    seed: 11,
                    filler_count: 3,
                    with_viewpoints: false,
                });
                let rfs = RfsStructure::build(corpus.features(), &RfsConfig::test_small());
                (Arc::new(corpus), Arc::new(rfs))
            })
            .clone()
    }

    fn server(cfg: ServeConfig) -> Server {
        let (corpus, rfs) = fixture();
        Server::new(corpus, rfs, cfg)
    }

    fn plan(users: usize) -> LoadPlan {
        let (corpus, _) = fixture();
        LoadPlan::generate(
            &corpus,
            &LoadConfig {
                users,
                ..LoadConfig::default()
            },
        )
    }

    fn is_terminal(outcome: &SessionOutcome) -> bool {
        matches!(
            outcome.state(),
            SessionState::Complete
                | SessionState::Degraded
                | SessionState::Evicted
                | SessionState::Failed
        )
    }

    #[test]
    fn every_session_reaches_a_terminal_state() {
        let srv = server(ServeConfig::default());
        let p = plan(12);
        let report = srv.run(&p);
        assert_eq!(report.sessions.len(), 12);
        for s in &report.sessions {
            assert!(is_terminal(&s.outcome), "{} not terminal", s.id);
        }
        assert!(report.ticks < ServeConfig::default().max_ticks);
    }

    #[test]
    fn runs_are_byte_identical() {
        let srv = server(ServeConfig::default());
        let p = plan(10);
        let a = srv.run(&p);
        let b = srv.run(&p);
        assert_eq!(a.summary(), b.summary());
        for (x, y) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(x.fingerprint(), y.fingerprint());
        }
    }

    /// The isolation property: every session's outcome and trace are
    /// byte-identical whether it runs alone or among eleven neighbors.
    #[test]
    fn solo_and_interleaved_sessions_match() {
        let srv = server(ServeConfig::default());
        let p = plan(12);
        let together = srv.run(&p);
        for spec in &p.specs {
            let solo_plan = p.solo(spec.id).expect("spec exists");
            let solo = srv.run(&solo_plan);
            let a = together.session(spec.id).expect("in multi report");
            let b = solo.session(spec.id).expect("in solo report");
            assert_eq!(a.fingerprint(), b.fingerprint(), "session {}", spec.id);
        }
    }

    #[test]
    fn overload_sheds_deterministically_and_reports_everyone() {
        let cfg = ServeConfig {
            max_active: 2,
            queue_capacity: 1,
            ..ServeConfig::default()
        };
        let srv = server(cfg.clone());
        let (corpus, _) = fixture();
        let p = LoadPlan::generate(
            &corpus,
            &LoadConfig {
                users: 12,
                arrivals_per_tick: 6,
                ..LoadConfig::default()
            },
        );
        let a = srv.run(&p);
        let b = srv.run(&p);
        assert_eq!(a.sessions.len(), 12);
        assert!(!a.shed_ids().is_empty(), "burst should overload the queue");
        assert_eq!(a.shed_ids(), b.shed_ids());
        assert_eq!(a.evicted_ids(), b.evicted_ids());
        for s in &a.sessions {
            assert!(is_terminal(&s.outcome));
        }
    }

    #[test]
    fn poisoned_session_is_quarantined_and_neighbors_unaffected() {
        let srv = server(ServeConfig::default());
        let clean_plan = plan(8);
        let mut poisoned_plan = clean_plan.clone();
        poisoned_plan.specs[3].fault_plan =
            Some(FaultPlan::new(1).site(qd_fault::site::SERVE_STEP_PANIC, Mode::Always));
        let clean = srv.run(&clean_plan);
        let poisoned = srv.run(&poisoned_plan);
        let victim = poisoned.session(SessionId(3)).expect("victim report");
        match &victim.outcome {
            SessionOutcome::Evicted(EvictReason::Poisoned(msg)) => {
                assert!(msg.contains("injected fault"), "message: {msg}");
            }
            other => panic!("victim should be poisoned, got {:?}", other.state()),
        }
        for spec in &clean_plan.specs {
            if spec.id == SessionId(3) {
                continue;
            }
            let a = clean.session(spec.id).expect("clean report");
            let b = poisoned.session(spec.id).expect("poisoned-run report");
            assert_eq!(a.fingerprint(), b.fingerprint(), "neighbor {}", spec.id);
        }
    }

    #[test]
    fn deadline_truncates_to_a_valid_best_so_far_prefix() {
        let srv = server(ServeConfig::default());
        let mut p = plan(4);
        // Find a cooperative session and give it a deadline it must bust
        // after roughly one round of displays.
        let idx = p
            .specs
            .iter()
            .position(|s| matches!(s.scenario, Scenario::Cooperative))
            .expect("matrix includes a cooperative session");
        p.specs[idx].deadline = Some(30);
        let id = p.specs[idx].id;
        let report = srv.run(&p);
        let s = report.session(id).expect("report exists");
        assert!(s.truncated, "deadline should truncate the session");
        assert!(s.rounds_run < p.specs[idx].cfg.rounds);
        match &s.outcome {
            SessionOutcome::Degraded { outcome, report } => {
                assert!(report.rounds_truncated > 0);
                assert!(outcome.results.len() <= p.specs[idx].k);
            }
            other => panic!("truncated session should degrade, got {:?}", other.state()),
        }
    }

    #[test]
    fn a_tenant_with_zero_or_unbounded_rounds_is_refused_at_admission() {
        let too_many = qd_core::session::MAX_FEEDBACK_ROUNDS + 1;
        for (rounds, want) in [
            (0, QdError::NoFeedbackRounds),
            (
                too_many,
                QdError::TooManyFeedbackRounds {
                    rounds: too_many,
                    max: qd_core::session::MAX_FEEDBACK_ROUNDS,
                },
            ),
        ] {
            let mut p = plan(4);
            p.specs[1].cfg.rounds = rounds;
            let refused = p.specs[1].id;
            let report = server(ServeConfig::default()).run(&p);
            assert_eq!(report.sessions.len(), 4);
            let s = report.session(refused).expect("refused tenant is reported");
            assert!(
                matches!(&s.outcome, SessionOutcome::Failed(e) if *e == want),
                "{rounds} rounds: {:?}",
                s.outcome
            );
            assert_eq!((s.rounds_run, s.cost_spent), (0, 0));
            // Everyone else is served as if the refused tenant never arrived.
            for other in report.sessions.iter().filter(|s| s.id != refused) {
                assert!(is_terminal(&other.outcome));
                assert!(!matches!(other.outcome, SessionOutcome::Failed(_)));
            }
        }
    }

    #[test]
    fn admission_failpoint_sheds_at_the_door() {
        let srv = server(ServeConfig::default());
        let p = plan(6);
        let chaos = FaultPlan::new(2).site(qd_fault::site::SERVE_ADMISSION, Mode::Always);
        let report = qd_fault::with_plan(&chaos, || srv.run(&p));
        assert_eq!(report.shed_ids().len(), 6);
        for s in &report.sessions {
            assert!(matches!(
                &s.outcome,
                SessionOutcome::Evicted(EvictReason::AdmissionFault)
            ));
        }
    }

    #[test]
    fn operator_eviction_is_deterministic_under_a_seeded_plan() {
        let srv = server(ServeConfig::default());
        let p = plan(10);
        let chaos = FaultPlan::new(3).site(qd_fault::site::SERVE_EVICT, Mode::Probability(0.4));
        let a = qd_fault::with_plan(&chaos, || srv.run(&p));
        let b = qd_fault::with_plan(&chaos, || srv.run(&p));
        assert!(!a.evicted_ids().is_empty(), "p=0.4 should evict someone");
        assert_eq!(a.evicted_ids(), b.evicted_ids());
        for s in &a.sessions {
            assert!(is_terminal(&s.outcome));
        }
    }

    #[test]
    fn tick_watchdog_stalls_out_everything_left() {
        let cfg = ServeConfig {
            max_ticks: 1,
            ..ServeConfig::default()
        };
        let srv = server(cfg);
        let report = srv.run(&plan(6));
        assert_eq!(report.sessions.len(), 6);
        assert!(report
            .sessions
            .iter()
            .any(|s| matches!(&s.outcome, SessionOutcome::Evicted(EvictReason::Stalled))));
        for s in &report.sessions {
            assert!(is_terminal(&s.outcome));
        }
    }
}
