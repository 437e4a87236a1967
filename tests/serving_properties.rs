//! Serving property suite: the multi-tenant isolation and overload
//! contracts of `qd-serve` (DESIGN.md §13).
//!
//! Three properties hold for every load plan, fault seed, and thread count:
//!
//! 1. **Termination** — every admitted-or-arriving session ends in exactly
//!    one of `Complete`, `Degraded`, `Evicted(reason)`, or `Failed(QdError)`;
//!    the scheduler never panics and never stalls (the tick watchdog is a
//!    backstop, not a steady state).
//! 2. **Isolation** — a session's outcome, degradation report, and trace are
//!    byte-identical whether it runs alone or interleaved with any number of
//!    neighbors, at any `QD_THREADS`, even when a neighbor panics.
//! 3. **Deterministic degradation** — under overload, *which* sessions are
//!    shed is a pure function of `(shed_seed, session id)`, so two runs and
//!    two thread counts shed the same ids in the same order.
//!
//! The CI chaos job reruns this suite under eight `QD_FAULT_SEED`s with
//! `QD_THREADS=8`. One chaos run is also pinned byte for byte, arrival and
//! finish ticks included (`tests/golden/serve_run.txt`).

use qd_fault::{FaultPlan, Mode};
use query_decomposition::prelude::*;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

#[path = "common/golden.rs"]
mod golden;

fn fixture() -> (Arc<Corpus>, Arc<RfsStructure>) {
    static FIXTURE: OnceLock<(Arc<Corpus>, Arc<RfsStructure>)> = OnceLock::new();
    FIXTURE
        .get_or_init(|| {
            let corpus = Corpus::build(&CorpusConfig {
                size: 200,
                image_size: 16,
                seed: 17,
                filler_count: 3,
                with_viewpoints: false,
            });
            let rfs = RfsStructure::build(corpus.features(), &RfsConfig::test_small());
            (Arc::new(corpus), Arc::new(rfs))
        })
        .clone()
}

/// The suite's fault seed: `QD_FAULT_SEED` when set (the CI chaos job runs
/// eight of them), 0 otherwise.
fn fault_seed() -> u64 {
    std::env::var(qd_fault::FAULT_SEED_ENV)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn load_plan(users: usize, arrivals_per_tick: u64) -> LoadPlan {
    let (corpus, _) = fixture();
    LoadPlan::generate(
        &corpus,
        &LoadConfig {
            users,
            arrivals_per_tick,
            ..LoadConfig::default()
        },
    )
}

fn server(cfg: ServeConfig) -> Server {
    let (corpus, rfs) = fixture();
    Server::new(corpus, rfs, cfg)
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

/// The scheduling-independent digest of a whole run: one fingerprint per
/// session, ascending by id. Two reports with equal digests served every
/// tenant identically (results, degradation, per-session trace).
fn digest(report: &ServeReport) -> String {
    report
        .sessions
        .iter()
        .map(|s| format!("{}:{}", s.id, s.fingerprint()))
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_all_terminal(report: &ServeReport, expected: usize, context: &str) {
    assert_eq!(
        report.sessions.len(),
        expected,
        "{context}: a session vanished without a report"
    );
    for s in &report.sessions {
        assert!(
            is_terminal(&s.outcome),
            "{context}: {} left non-terminal",
            s.id
        );
    }
}

#[test]
fn interleaved_sessions_match_their_solo_runs_at_any_thread_count() {
    let srv = server(ServeConfig::default());
    let plan = load_plan(10, 2);
    let multi_one = qd_runtime::with_threads(1, || srv.run(&plan));
    let multi_eight = qd_runtime::with_threads(8, || srv.run(&plan));
    assert_eq!(
        digest(&multi_one),
        digest(&multi_eight),
        "multi-tenant run diverged between 1 and 8 workers"
    );
    assert_all_terminal(&multi_one, 10, "interleaved");
    for spec in &plan.specs {
        let solo_plan = plan.solo(spec.id).expect("spec came from this plan");
        let solo = srv.run(&solo_plan);
        let alone = solo.session(spec.id).expect("solo report").fingerprint();
        let together = multi_eight
            .session(spec.id)
            .expect("multi report")
            .fingerprint();
        assert_eq!(
            alone, together,
            "{}: interleaving changed the session's outcome or trace",
            spec.id
        );
    }
}

#[test]
fn overload_shedding_is_deterministic_and_thread_invariant() {
    let srv = server(ServeConfig {
        max_active: 2,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let plan = load_plan(14, 7);
    let first = qd_runtime::with_threads(1, || srv.run(&plan));
    let second = qd_runtime::with_threads(8, || srv.run(&plan));
    let third = srv.run(&plan);
    assert_all_terminal(&first, 14, "overload");
    assert!(
        !first.shed_ids().is_empty(),
        "14 arrivals at 7/tick against 3 slots must shed someone"
    );
    assert_eq!(
        first.shed_ids(),
        second.shed_ids(),
        "shed set diverged between 1 and 8 workers"
    );
    assert_eq!(first.evicted_ids(), second.evicted_ids());
    assert_eq!(
        digest(&first),
        digest(&third),
        "same plan, same config, different run"
    );
    // Everyone who was not shed got a real answer.
    let (complete, degraded, evicted, failed) = first.state_counts();
    assert_eq!(complete + degraded + evicted + failed, 14);
    assert_eq!(evicted, first.evicted_ids().len());
}

#[test]
fn chaos_storms_leave_every_tenant_terminal() {
    let srv = server(ServeConfig::default());
    let plan = load_plan(8, 4);
    let base = fault_seed();
    for round in 0..3u64 {
        let storm = FaultPlan::new(base ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .all_sites(Mode::Probability(0.25));
        let run = |threads: usize| {
            qd_fault::with_plan(&storm, || {
                qd_runtime::with_threads(threads, || srv.run(&plan))
            })
        };
        let one = run(1);
        let eight = run(8);
        assert_all_terminal(&one, 8, "storm");
        assert!(
            one.ticks < ServeConfig::default().max_ticks,
            "storm stalled the scheduler into the watchdog"
        );
        assert_eq!(
            digest(&one),
            digest(&eight),
            "storm outcome diverged between 1 and 8 workers (seed {})",
            storm.seed()
        );
    }
}

#[test]
fn poisoned_tenant_leaves_every_neighbor_byte_identical() {
    let srv = server(ServeConfig::default());
    let plan = load_plan(8, 4);
    let baseline = srv.run(&plan);
    assert_all_terminal(&baseline, 8, "baseline");

    for victim_index in [0usize, 3, 7] {
        let mut poisoned = plan.clone();
        let victim = poisoned.specs[victim_index].id;
        poisoned.specs[victim_index].fault_plan =
            Some(FaultPlan::new(fault_seed()).site(qd_fault::site::SERVE_STEP_PANIC, Mode::Always));
        let run = qd_runtime::with_threads(8, || srv.run(&poisoned));
        assert_all_terminal(&run, 8, "poisoned");
        let victim_report = run.session(victim).expect("victim report");
        assert!(
            matches!(
                &victim_report.outcome,
                SessionOutcome::Evicted(EvictReason::Poisoned(_))
            ),
            "{victim}: an always-panicking session must be quarantined, got {:?}",
            victim_report.outcome.state()
        );
        for s in &run.sessions {
            if s.id == victim {
                continue;
            }
            let before = baseline.session(s.id).expect("baseline report");
            assert_eq!(
                before.fingerprint(),
                s.fingerprint(),
                "{}: neighbor outcome changed because {victim} panicked",
                s.id
            );
        }
    }
}

/// One served run as golden lines: every session's arrival and finish tick
/// and its fingerprint, then the scheduler's own trace (`serve.*`).
fn render_run(label: &str, report: &ServeReport, trace: &qd_obs::Trace) -> String {
    let mut out = format!("== {label}: {} ticks\n", report.ticks);
    for s in &report.sessions {
        writeln!(
            out,
            "arrival={} finished={} {}",
            s.arrival_tick,
            s.finished_tick,
            s.fingerprint()
        )
        .unwrap();
    }
    out.push_str(&trace.render());
    out
}

/// The scheduler, pinned: one chaos plan with every supervisor decision in
/// it — admission rejects, poisoned steps, operator evictions, deadline
/// truncations, overload sheds, and tenants whose shard scatter loses a
/// leg — served over the monolithic snapshot and over a four-shard set
/// swapped mid-run for a copy with one image removed. Which session ends
/// how, and on which tick, is in `tests/golden/serve_run.txt`, at 1 and 8
/// workers alike. The plan's seeds are fixed: `QD_FAULT_SEED` does not
/// reach this test.
#[test]
fn a_chaos_run_matches_the_serve_golden() {
    let (corpus, rfs) = fixture();
    let mut plan = LoadPlan::generate(
        &corpus,
        &LoadConfig {
            users: 18,
            arrivals_per_tick: 2,
            deadline: 30,
            ..LoadConfig::default()
        },
    );
    // Every third tenant escalates its subqueries to the root (a zero
    // boundary threshold), where the sharded run scatters, and loses shard
    // 1's leg to a panic.
    for spec in plan.specs.iter_mut().skip(1).step_by(3) {
        spec.cfg.boundary_threshold = 0.0;
        spec.fault_plan =
            Some(FaultPlan::new(9).site(qd_fault::site::SHARD_SCATTER, Mode::Once(1)));
    }
    let chaos = FaultPlan::new(0x5e12e)
        .site(qd_fault::site::SERVE_ADMISSION, Mode::Probability(0.1))
        .site(qd_fault::site::SERVE_STEP_PANIC, Mode::Probability(0.2))
        .site(qd_fault::site::SERVE_EVICT, Mode::Probability(0.1));
    let cfg = ServeConfig {
        max_active: 3,
        queue_capacity: 3,
        ..ServeConfig::default()
    };
    let config = RfsConfig::test_small();
    let sharded = build_sharded_rfs(corpus.features(), &config, ShardConfig::new(4, 0x51ed));
    let shrunk = sharded.rebuild_with_refresh(
        sharded.tree().remove(corpus.features(), 137),
        corpus.features(),
        &config,
    );
    let swaps = [(4, Arc::new(shrunk))];
    let mono = Server::new(corpus.clone(), rfs, cfg.clone());
    let shard4 = Server::new(corpus, Arc::new(sharded), cfg);
    let run = |workers: usize| {
        qd_fault::with_plan(&chaos, || {
            qd_runtime::with_threads(workers, || {
                let (a, ta) = qd_obs::with_recorder(|| mono.run(&plan));
                let (b, tb) = qd_obs::with_recorder(|| shard4.run_with_swaps(&plan, &swaps));
                render_run("monolithic", &a, &ta) + &render_run("shard4, swap at tick 4", &b, &tb)
            })
        })
    };
    let one = run(1);
    assert_eq!(
        one,
        run(8),
        "the served run diverged between 1 and 8 workers"
    );
    golden::assert_matches_golden("serve_run.txt", &one);
}
