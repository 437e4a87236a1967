//! Golden-trace suite for the qd-obs observability layer (DESIGN.md §10).
//!
//! Pins three contracts:
//!
//! 1. **Snapshot**: a fixed-seed QD session's full span tree and counter map
//!    serialize to a checked-in golden string (`tests/golden/`), with a
//!    readable first-difference diff on drift, and the trace is
//!    byte-identical between `QD_THREADS=1` and `QD_THREADS=8`.
//! 2. **Conservation**: per-subquery `knn.distance_computations` sum to the
//!    session total, which equals `Degradation.budget_spent` when degraded —
//!    including the work of *dropped* subqueries; `session.nodes_visited`
//!    never exceeds the RFS node count; and QD's final-round distance count
//!    stays below MV's (the paper's Fig. 13 claim, as a test).
//! 3. **Overhead**: with no recorder installed, the instrumented session
//!    produces bit-identical `ServedOutcome`s to the pre-instrumentation
//!    baseline captured in `tests/golden/served_outcome_baseline.txt`.
//!
//! Regenerate goldens intentionally with `QD_UPDATE_GOLDEN=1 cargo test
//! --test trace_properties` (never on a branch that changes session
//! behavior by accident — the diff is the review artifact).

use query_decomposition::prelude::*;
use std::fmt::Write as _;
use std::sync::OnceLock;

#[path = "common/golden.rs"]
mod golden;
use golden::assert_matches_golden;

/// Shared fixture: a small viewpointed corpus (MV needs channels) and its
/// RFS structure. Seeds match `fault_properties.rs` so cross-suite behavior
/// stays comparable.
fn fixture() -> &'static (Corpus, RfsStructure) {
    static FIXTURE: OnceLock<(Corpus, RfsStructure)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let corpus = Corpus::build(&CorpusConfig {
            size: 300,
            image_size: 24,
            seed: 23,
            filler_count: 5,
            with_viewpoints: true,
        });
        let rfs = RfsStructure::build(corpus.features(), &RfsConfig::test_small());
        (corpus, rfs)
    })
}

fn standard_query(name: &str) -> QuerySpec {
    let (corpus, _) = fixture();
    queries::standard_queries(corpus.taxonomy())
        .into_iter()
        .find(|q| q.name == name)
        .expect("standard query")
}

/// The sessions pinned by the baseline and golden files: a spread of
/// standard queries under the default config and a budget tight enough to
/// degrade. User seed fixed at 13.
fn pinned_sessions() -> Vec<(&'static str, QdConfig)> {
    let budgeted = QdConfig {
        distance_budget: Some(2),
        ..QdConfig::default()
    };
    vec![
        ("bird", QdConfig::default()),
        ("rose", QdConfig::default()),
        ("car", QdConfig::default()),
        ("water sports", QdConfig::default()),
        ("bird", budgeted.clone()),
        ("rose", budgeted),
    ]
}

fn serve(query_name: &str, cfg: &QdConfig) -> ServedOutcome {
    let (corpus, rfs) = fixture();
    let query = standard_query(query_name);
    let k = corpus.ground_truth(&query).len();
    let mut user = SimulatedUser::oracle(&query, 13);
    try_run_session(corpus, rfs, &query, &mut user, k, cfg).expect("pinned session must serve")
}

/// Serializes a `ServedOutcome` deterministically, excluding every
/// wall-clock field. Floats are rendered as raw bits so "bit-identical"
/// means exactly that.
fn serialize_served(label: &str, served: &ServedOutcome) -> String {
    let mut s = String::new();
    let o = served.outcome();
    writeln!(s, "session {label}").unwrap();
    writeln!(
        s,
        "  kind={}",
        match served {
            ServedOutcome::Complete(_) => "complete",
            ServedOutcome::Degraded { .. } => "degraded",
        }
    )
    .unwrap();
    let results: Vec<String> = o.results.iter().map(|id| id.to_string()).collect();
    writeln!(s, "  results=[{}]", results.join(",")).unwrap();
    for g in &o.groups {
        let images: Vec<String> = g
            .images
            .iter()
            .map(|(id, d)| format!("{id}:{:08x}", d.to_bits()))
            .collect();
        writeln!(
            s,
            "  group home={} score={:016x} images=[{}]",
            g.home.index(),
            g.ranking_score.to_bits(),
            images.join(",")
        )
        .unwrap();
    }
    for r in &o.round_trace {
        let p = match r.precision {
            Some(p) => format!("{:016x}", p.to_bits()),
            None => "-".to_string(),
        };
        writeln!(
            s,
            "  round={} precision={} gtir={:016x}",
            r.round,
            p,
            r.gtir.to_bits()
        )
        .unwrap();
    }
    writeln!(
        s,
        "  feedback_accesses={} knn_accesses={} subquery_count={}",
        o.feedback_accesses, o.knn_accesses, o.subquery_count
    )
    .unwrap();
    match served.degradation() {
        None => writeln!(s, "  degradation=-").unwrap(),
        Some(d) => writeln!(
            s,
            "  degradation budget_spent={} nodes_skipped={} subqueries_dropped={} displays_skipped={}",
            d.budget_spent, d.nodes_skipped, d.subqueries_dropped, d.displays_skipped
        )
        .unwrap(),
    }
    s
}

fn serialize_pinned_sessions() -> String {
    let mut all = String::new();
    for (name, cfg) in pinned_sessions() {
        let label = format!(
            "query={name} budget={}",
            cfg.distance_budget
                .map_or("none".to_string(), |b| b.to_string())
        );
        all.push_str(&serialize_served(&label, &serve(name, &cfg)));
    }
    all
}

/// Overhead guard: with no recorder installed, the instrumented session path
/// must reproduce the pre-instrumentation `ServedOutcome`s bit for bit.
/// The baseline file was generated from the tree *before* qd-obs was wired
/// into qd-core, so any observability-induced perturbation of results,
/// counters, or degradation reports fails here.
#[test]
fn instrumentation_does_not_perturb_served_outcomes() {
    assert_matches_golden("served_outcome_baseline.txt", &serialize_pinned_sessions());
}

use query_decomposition::obs;

/// One observed session: the served outcome plus its full trace.
fn observed_serve(query_name: &str, cfg: &QdConfig) -> (ServedOutcome, obs::Trace) {
    // Build the lazily initialised fixture outside the recorder: whichever
    // test gets here first would otherwise record the RFS build in its trace.
    fixture();
    obs::with_recorder(|| serve(query_name, cfg))
}

/// Golden-trace snapshot: the full span tree and counter map of a
/// fixed-seed QD session, pinned byte for byte. Drift in any counter or in
/// the span structure is a behavior change that must be reviewed (and the
/// golden regenerated deliberately).
#[test]
fn session_trace_matches_golden() {
    let (_, trace) = observed_serve("bird", &QdConfig::default());
    assert_matches_golden("qd_session_trace.txt", &trace.render());
}

/// The parallel fan-out must not leave a fingerprint: traces recorded at
/// one worker and at eight are byte-identical.
#[test]
fn traces_are_byte_identical_across_thread_counts() {
    for cfg in [
        QdConfig::default(),
        QdConfig {
            distance_budget: Some(2),
            ..QdConfig::default()
        },
    ] {
        let run = |workers| qd_runtime::with_threads(workers, || observed_serve("bird", &cfg));
        let (served1, trace1) = run(1);
        let (served8, trace8) = run(8);
        assert_eq!(trace1, trace8);
        assert_eq!(trace1.render(), trace8.render());
        assert_eq!(
            serialize_served("t", &served1),
            serialize_served("t", &served8)
        );
    }
}

/// Counter conservation: the per-subquery span sums equal the session
/// totals, and `nodes_visited` can never exceed the structure's node count.
#[test]
fn subquery_spans_sum_to_session_totals() {
    let (_, rfs) = fixture();
    for cfg in [
        QdConfig::default(),
        QdConfig {
            distance_budget: Some(2),
            ..QdConfig::default()
        },
    ] {
        let (served, trace) = observed_serve("bird", &cfg);
        let total = |name: &obs::Name| trace.counters.get(name).copied().unwrap_or(0);
        let subquery_sum: u64 = trace
            .spans_named(obs::sp::SUBQUERY)
            .iter()
            .map(|span| {
                span.inclusive_counters()
                    .get(obs::ctr::KNN_DISTANCE)
                    .copied()
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(
            subquery_sum,
            total(obs::ctr::KNN_DISTANCE),
            "all k-NN distance work happens inside subquery spans"
        );
        if let Some(report) = served.degradation() {
            assert_eq!(
                report.budget_spent,
                total(obs::ctr::KNN_DISTANCE),
                "budget_spent derives from the same counter the trace reports"
            );
        }
        assert!(total(obs::ctr::SESSION_NODES_VISITED) <= rfs.tree().node_count() as u64);
        assert!(total(obs::ctr::SESSION_NODES_VISITED) > 0);
    }
}

/// The paper's Fig. 13 claim as a test: QD performs no k-NN work until the
/// final round and searches only localized scopes, so across the standard
/// queries its distance-computation count stays below MV's (which scans
/// every viewpoint channel in every round).
#[test]
fn qd_spends_fewer_distance_computations_than_mv() {
    let (corpus, _) = fixture();
    let mut qd_total = 0u64;
    let mut mv_total = 0u64;
    for query in queries::standard_queries(corpus.taxonomy()) {
        let k = corpus.ground_truth(&query).len();
        let (_, qd_trace) = observed_serve(&query.name, &QdConfig::default());
        qd_total += qd_trace
            .counters
            .get(obs::ctr::KNN_DISTANCE)
            .copied()
            .unwrap_or(0);
        let ((), mv_trace) = obs::with_recorder(|| {
            let mut user = SimulatedUser::oracle(&query, 13);
            Baseline::MultipleViewpoints.run(
                corpus,
                &query,
                &mut user,
                k,
                &BaselineConfig::default(),
            );
        });
        mv_total += mv_trace
            .counters
            .get(obs::ctr::BASELINE_DISTANCE)
            .copied()
            .unwrap_or(0);
    }
    assert!(qd_total > 0, "QD must do some k-NN work");
    assert!(
        qd_total < mv_total,
        "Fig. 13: QD distance computations ({qd_total}) must stay below MV's ({mv_total})"
    );
}

/// Golden profile snapshot: the flame-style aggregation of the same pinned
/// session, byte for byte. Pins both `Trace::profile`'s fold and
/// `render_profile`'s table format — the same bytes `qd profile` prints.
#[test]
fn session_profile_matches_golden() {
    let (_, trace) = observed_serve("bird", &QdConfig::default());
    assert_matches_golden("qd_profile.txt", &obs::render_profile(&trace.profile()));
}

/// Golden Chrome-trace snapshot: the counter-cost timeline export of the
/// pinned session. The file is valid Chrome/Perfetto trace-event JSON and,
/// because the timeline derives from deterministic counters rather than a
/// clock, it is byte-stable across runs and thread counts.
#[test]
fn chrome_trace_export_matches_golden() {
    let run = |workers| {
        qd_runtime::with_threads(workers, || {
            let (_, trace) = observed_serve("bird", &QdConfig::default());
            qd_bench::report::chrome_trace_json(&trace).render()
        })
    };
    let json = run(1);
    assert_eq!(json, run(8), "export must not depend on thread count");
    assert_matches_golden("qd_chrome_trace.json", &json);
}

/// Histogram conservation: the per-query distance observation is the same
/// number the counters report, the observation count matches the session
/// count, and the node-access observation equals the outcome's access
/// fields.
#[test]
fn histograms_agree_with_counters_and_outcomes() {
    for cfg in [
        QdConfig::default(),
        QdConfig {
            distance_budget: Some(2),
            ..QdConfig::default()
        },
    ] {
        let (served, trace) = observed_serve("bird", &cfg);
        let o = served.outcome();
        let query_distances = &trace.hists[obs::hist::QD_QUERY_DISTANCES];
        assert_eq!(query_distances.count(), 1, "one observation per session");
        assert_eq!(
            query_distances.sum(),
            trace
                .counters
                .get(obs::ctr::KNN_DISTANCE)
                .copied()
                .unwrap_or(0),
            "per-query distance observations conserve the counter total"
        );
        let sub = &trace.hists[obs::hist::QD_SUBQUERY_DISTANCES];
        assert_eq!(sub.count(), o.subquery_count as u64);
        let accesses = &trace.hists[obs::hist::QD_QUERY_NODE_ACCESSES];
        assert_eq!(accesses.sum(), o.feedback_accesses + o.knn_accesses);
        let displays = &trace.hists[obs::hist::QD_ROUND_DISPLAYS];
        assert!(
            displays.count() > 0,
            "every round observes its display cost"
        );
    }
}

/// The baseline side of the Fig. 12/13 histograms: one observation per MV
/// session, equal to the baseline distance counter (full scans read one
/// record per scored candidate, so node accesses mirror distances).
#[test]
fn baseline_histograms_record_per_session_scan_cost() {
    let (corpus, _) = fixture();
    let query = standard_query("bird");
    let k = corpus.ground_truth(&query).len();
    let ((), trace) = obs::with_recorder(|| {
        let mut user = SimulatedUser::oracle(&query, 13);
        Baseline::MultipleViewpoints.run(corpus, &query, &mut user, k, &BaselineConfig::default());
    });
    let distances = &trace.hists[obs::hist::BASELINE_QUERY_DISTANCES];
    assert_eq!(distances.count(), 1);
    assert_eq!(
        distances.sum(),
        trace.counters[obs::ctr::BASELINE_DISTANCE],
        "the observation charges exactly what the session scanned"
    );
    // Four channels × three rounds, each a scan of the whole corpus: a
    // scan charges every image, whether the kernel abandoned it or not.
    let cfg = BaselineConfig::default();
    assert_eq!(
        distances.sum(),
        (4 * cfg.rounds * corpus.len()) as u64,
        "MV charges channels × rounds × corpus size"
    );
    assert_eq!(
        distances,
        &trace.hists[obs::hist::BASELINE_QUERY_NODE_ACCESSES],
        "sequential scans: node accesses mirror distance computations"
    );
    assert!(
        !trace.spans_named(obs::sp::BASELINE_RUN).is_empty(),
        "the baseline session runs under its catalog span"
    );
}

/// Regression test for the `budget_spent` accounting fix: a subquery whose
/// worker panics *after* performing its k-NN work used to vanish from the
/// degradation report (the old code summed the surviving locals). Routed
/// through the recorder, the dropped subquery's distance computations are
/// still charged.
#[test]
fn dropped_subquery_work_still_counts_in_budget_spent() {
    let (corpus, rfs) = fixture();
    let query = standard_query("bird");
    let k = corpus.ground_truth(&query).len();
    let cfg = QdConfig::default();

    let mut user = SimulatedUser::oracle(&query, 13);
    let rounds = qd_core::session::run_feedback_rounds(rfs, corpus.labels(), &mut user, &cfg);
    let subqueries = rounds.final_marks;
    assert!(subqueries.len() >= 2, "fixture must decompose");

    // Clean reference: every subquery's cost, and subquery 0's own share.
    let (clean, trace) = obs::with_recorder(|| {
        qd_core::session::try_execute_subqueries(corpus, rfs, &subqueries, k, &cfg).unwrap()
    });
    assert!(clean.degradation.is_none());
    let total = trace.counters[obs::ctr::KNN_DISTANCE];
    let dropped_share = trace
        .spans_named(obs::sp::SUBQUERY)
        .iter()
        .find(|span| span.index == Some(0))
        .expect("subquery 0 span")
        .inclusive_counters()[obs::ctr::KNN_DISTANCE];
    assert!(dropped_share > 0, "subquery 0 must do measurable work");

    // Same batch with subquery 0's worker panicking after its k-NN ran.
    let one_dead = qd_fault::FaultPlan::new(7).site(
        qd_fault::site::SESSION_SUBQUERY_PANIC,
        qd_fault::Mode::Once(0),
    );
    let degraded = qd_fault::with_plan(&one_dead, || {
        qd_core::session::try_execute_subqueries(corpus, rfs, &subqueries, k, &cfg)
    })
    .unwrap();
    let report = degraded.degradation.expect("must report degradation");
    assert_eq!(report.subqueries_dropped, 1);
    assert_eq!(
        report.budget_spent, total,
        "dropped subquery's {dropped_share} distance computations must stay in the report"
    );
}
