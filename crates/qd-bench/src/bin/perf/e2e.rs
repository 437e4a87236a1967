//! The untraced run: what a user of the system sees.
//!
//! Closed loop, one client, one process, one `qd-runtime` worker. After the
//! index builds (`setup_s`) and one untimed warm-up, the run repeats a fixed
//! *cycle* of operations until `--seconds` have passed: one update, the
//! simulated sessions on the fresh snapshot, stepped rounds, root-scope k-NN
//! probes, MV baseline sessions, and the two serving plans. Every metric is
//! the median over cycles of that cycle's statistic.

use crate::deploy::{apply_update, Deploy, Update};
use crate::report::{ms, peak_rss_mib, secs, us, Checks, Measured, Report};
use crate::spec::{Workload, ACTIVE_SLOTS, KNN_K, SETUPS};
use crate::stats::{self, P50};
use crate::traffic::{Burst, Fnv, SessionInput, Traffic};
use qd_core::baselines::{mv, BaselineConfig};
use qd_core::rfs::RfsStructure;
use qd_core::session::{try_run_session, FeedbackStepper, ServedOutcome};
use qd_core::QdError;
use qd_corpus::Corpus;
use qd_index::{KnnIndex, Neighbor};
use qd_serve::{LoadPlan, ServeConfig, Server};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cycles measured even when `--seconds` is already spent (tiny budgets).
const MIN_CYCLES: usize = 2;

/// The fixture and the traffic of one run.
pub struct Env<'a> {
    /// The workload being run.
    pub workload: &'a Workload,
    /// The database.
    pub corpus: Arc<Corpus>,
    /// The run-level traffic; each cycle draws its own [`Burst`] from it.
    pub traffic: Traffic,
    /// The `--seed` behind `traffic`.
    pub seed: u64,
}

/// The serving configuration of both plans — the steady plan fits it, the
/// overload plan does not.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        max_active: ACTIVE_SLOTS,
        queue_capacity: 2 * ACTIVE_SLOTS,
        ..ServeConfig::default()
    }
}

/// Runs every session of `inputs` against `rfs`, timing each one.
/// Returns per-session microseconds, the loop's wall time, and the outcomes.
pub fn run_sessions<I: KnnIndex + Sync>(
    corpus: &Corpus,
    rfs: &RfsStructure<I>,
    inputs: &[SessionInput],
) -> (Vec<f64>, Duration, Vec<Result<ServedOutcome, QdError>>) {
    let mut times = Vec::with_capacity(inputs.len());
    let mut outcomes = Vec::with_capacity(inputs.len());
    let loop_start = Instant::now();
    for s in inputs {
        let mut user = s.user();
        let start = Instant::now();
        let served = try_run_session(corpus, rfs, &s.query, &mut user, s.k, &s.cfg);
        times.push(us(start.elapsed()));
        outcomes.push(served);
    }
    (times, loop_start.elapsed(), outcomes)
}

/// Checks every session answer (at most `k` distinct in-range ids) and
/// digests the result lists.
pub fn check_sessions(
    inputs: &[SessionInput],
    outcomes: &[Result<ServedOutcome, QdError>],
    images: usize,
    checks: &mut Checks,
) -> u64 {
    let mut digest = Fnv::new();
    for (i, (input, outcome)) in inputs.iter().zip(outcomes).enumerate() {
        match outcome {
            Err(e) => checks.op(false, || format!("session {i} failed: {e}")),
            Ok(served) => {
                let results = &served.outcome().results;
                let mut ids = results.clone();
                ids.sort_unstable();
                ids.dedup();
                let ok = results.len() <= input.k
                    && ids.len() == results.len()
                    && ids.last().is_none_or(|&id| id < images);
                checks.op(ok, || {
                    format!("session {i}: not <= {} distinct in-range ids", input.k)
                });
                digest.word(results.len() as u64);
                for &id in results {
                    digest.word(id as u64);
                }
            }
        }
    }
    digest.value()
}

/// Times every `step_round` of the first `count` sessions.
fn run_rounds<I: KnnIndex>(
    corpus: &Corpus,
    rfs: &RfsStructure<I>,
    inputs: &[SessionInput],
) -> Vec<f64> {
    let mut times = Vec::new();
    for s in inputs {
        let mut user = s.user();
        let mut stepper = FeedbackStepper::new(rfs, corpus.labels(), s.cfg.clone());
        loop {
            let start = Instant::now();
            let done = stepper.step_round(&mut user);
            times.push(us(start.elapsed()));
            if done {
                break;
            }
        }
        black_box(stepper.finish());
    }
    times
}

/// Root-scope k-NN for every probe; returns per-call microseconds.
fn run_knn<I: KnnIndex>(index: &I, corpus: &Corpus, probes: &[usize]) -> Vec<f64> {
    probes
        .iter()
        .map(|&p| {
            let start = Instant::now();
            let answer = index.knn_in_budgeted(index.root(), corpus.feature(p), KNN_K, None);
            let t = us(start.elapsed());
            black_box(answer);
            t
        })
        .collect()
}

/// One MV baseline session per input; returns per-session microseconds.
fn run_mv(corpus: &Corpus, inputs: &[SessionInput]) -> Vec<f64> {
    let cfg = BaselineConfig::default();
    inputs
        .iter()
        .map(|s| {
            let mut user = s.user();
            let start = Instant::now();
            let outcome = mv::run_session(corpus, &s.query, &mut user, s.k, &cfg);
            let t = us(start.elapsed());
            black_box(outcome);
            t
        })
        .collect()
}

/// What one serving run did.
pub struct Served {
    /// Wall time of the run.
    pub wall: Duration,
    /// Tenants answered (complete or degraded).
    pub answered: usize,
    /// Tenants refused at the door.
    pub shed: usize,
    /// Scheduler ticks executed.
    pub ticks: u64,
    /// Tenants whose deadline cut the feedback phase short.
    pub truncated: usize,
    /// Tenants answered with a degraded result.
    pub degraded: usize,
}

/// Drives `plan` through a server that starts on `first` and swaps to
/// `second` halfway through the arrivals. Every tenant must reach a terminal
/// state and none may end `Failed`; with `admit_all`, none may be shed.
pub fn serve<I: KnnIndex + Sync>(
    corpus: &Arc<Corpus>,
    first: &Arc<RfsStructure<I>>,
    second: &Arc<RfsStructure<I>>,
    plan: &LoadPlan,
    admit_all: bool,
    checks: &mut Checks,
) -> Served {
    let server = Server::new(Arc::clone(corpus), Arc::clone(first), serve_config());
    let last_arrival = plan.specs.iter().map(|s| s.arrival_tick).max().unwrap_or(0);
    let swaps = [(last_arrival / 2, Arc::clone(second))];
    let start = Instant::now();
    let report = server.run_with_swaps(plan, &swaps);
    let wall = start.elapsed();

    let (complete, degraded, evicted, failed) = report.state_counts();
    let shed = report.shed_ids().len();
    let accounted = complete + degraded + evicted + failed == plan.specs.len();
    if !accounted {
        checks.problem("serve: state counts do not sum to tenants".to_string());
    }
    // A tenant counts as a failed operation when the engine errored, when it
    // was evicted for any reason but overload, or when it was shed from a
    // plan sized to admit everyone. Shedding under the overload plan is the
    // behaviour being measured (`shed_fraction`), not a failure.
    let bad = failed + (evicted - shed) + if admit_all { shed } else { 0 };
    checks.ops(plan.specs.len(), bad, || {
        format!(
            "serve: {failed} failed, {} evicted, {shed} shed (admit_all={admit_all})",
            evicted - shed
        )
    });
    Served {
        wall,
        answered: complete + degraded,
        shed,
        ticks: report.ticks,
        truncated: report.sessions.iter().filter(|s| s.truncated).count(),
        degraded,
    }
}

/// Exhaustive-scan oracle for a root-scope k-NN answer: the same distance
/// bits in the same order, every reported distance true, and the same ids
/// (ids tied at the k-th distance may differ). Written without the engine's
/// kernels on purpose.
pub fn knn_matches_scan(
    features: &[Vec<f32>],
    present: &[bool],
    query: &[f32],
    answer: &[Neighbor],
) -> bool {
    let dist2 = |row: &[f32]| -> f64 {
        row.iter()
            .zip(query)
            .map(|(a, b)| {
                let d = f64::from(a - b);
                d * d
            })
            .sum()
    };
    // CAST: the index reports distances as f32; the oracle rounds the same way.
    let bits = |d2: f64| (d2.sqrt() as f32).to_bits();
    let mut all: Vec<(f64, u64)> = (0..features.len())
        .filter(|&id| present[id])
        .map(|id| (dist2(&features[id]), id as u64))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.truncate(KNN_K);
    if all.len() != answer.len() {
        return false;
    }
    let kth = all.last().map(|&(d2, _)| bits(d2));
    let strictly_inside = |pairs: Vec<(u32, u64)>| -> Vec<u64> {
        let mut ids: Vec<u64> = pairs
            .into_iter()
            .filter(|&(b, _)| Some(b) != kth)
            .map(|(_, id)| id)
            .collect();
        ids.sort_unstable();
        ids
    };
    let want: Vec<(u32, u64)> = all.iter().map(|&(d2, id)| (bits(d2), id)).collect();
    let got: Vec<(u32, u64)> = answer
        .iter()
        .map(|n| (n.distance.to_bits(), n.id))
        .collect();
    let same_distances = want.iter().zip(&got).all(|(w, g)| w.0 == g.0);
    let true_distances = answer.iter().all(|n| {
        present.get(n.id as usize) == Some(&true)
            && bits(dist2(&features[n.id as usize])) == n.distance.to_bits()
    });
    same_distances && true_distances && strictly_inside(want) == strictly_inside(got)
}

/// After an update, the k-NN of the victim's own vector must not contain a
/// removed image and must contain an inserted one at distance zero.
fn update_visible<I: KnnIndex>(index: &I, corpus: &Corpus, update: Update) -> bool {
    let point = corpus.feature(update.id() as usize);
    let answer = index.knn_in_budgeted(index.root(), point, 8, None);
    let found = answer.neighbors.iter().find(|n| n.id == update.id());
    match update {
        Update::Remove(_) => found.is_none(),
        Update::Insert(_) => found.is_some_and(|n| n.distance == 0.0),
    }
}

/// One cycle's statistics.
struct Cycle {
    update_ms: f64,
    session_p50_us: f64,
    sessions_per_s: f64,
    round_p50_us: f64,
    mv_p50_us: f64,
    knn_p50_us: f64,
    answered_per_s: f64,
    overload_per_s: f64,
    shed_fraction: f64,
    digest: u64,
}

/// The update of cycle `index`: victims take turns, each removed on an even
/// cycle and re-inserted on the next, so the database never drifts by more
/// than one image.
fn update_for(traffic: &Traffic, index: usize) -> Update {
    let victim = traffic.victims[(index / 2) % traffic.victims.len()];
    if index.is_multiple_of(2) {
        Update::Remove(victim)
    } else {
        Update::Insert(victim)
    }
}

fn run_cycle<D: Deploy>(
    env: &Env<'_>,
    publisher: &D::Publisher,
    index: usize,
    burst: &Burst,
    present: &mut [bool],
    checks: &mut Checks,
) -> Cycle {
    let corpus = &env.corpus;
    let mix = env.workload.mix;

    let update = update_for(&env.traffic, index);
    let previous = D::snapshot(publisher);
    let start = Instant::now();
    let current = apply_update::<D>(publisher, corpus.features(), &env.workload.rfs, update);
    let update_ms = ms(start.elapsed());
    present[update.id() as usize] = matches!(update, Update::Insert(_));
    checks.op(update_visible(current.tree(), corpus, update), || {
        format!("{update:?} is not visible in the published snapshot")
    });

    let (mut times, wall, outcomes) = run_sessions(corpus, &current, &burst.sessions);
    let digest = check_sessions(&burst.sessions, &outcomes, corpus.len(), checks);
    drop(outcomes);
    stats::sort(&mut times);

    let rounds = run_rounds(corpus, &*current, &burst.sessions[..mix.stepped]);
    let knn = run_knn(current.tree(), corpus, &burst.probes);
    let mv = run_mv(corpus, &burst.sessions[..mix.mv]);
    checks.ops(mix.stepped + knn.len() + mv.len(), 0, String::new);

    let steady = serve(
        corpus,
        &previous,
        &current,
        &burst.plan_steady,
        true,
        checks,
    );
    let overload = serve(
        corpus,
        &current,
        &current,
        &burst.plan_overload,
        false,
        checks,
    );

    Cycle {
        update_ms,
        session_p50_us: stats::percentile(&times, P50),
        sessions_per_s: times.len() as f64 / secs(wall),
        round_p50_us: stats::p50(&rounds),
        mv_p50_us: stats::p50(&mv),
        knn_p50_us: stats::p50(&knn),
        answered_per_s: steady.answered as f64 / secs(steady.wall),
        overload_per_s: overload.answered as f64 / secs(overload.wall),
        shed_fraction: overload.shed as f64 / burst.plan_overload.specs.len() as f64,
        digest,
    }
}

/// Mean final-round precision and GTIR over the quality sessions.
fn quality<I: KnnIndex + Sync>(
    env: &Env<'_>,
    rfs: &RfsStructure<I>,
    checks: &mut Checks,
) -> (f64, f64) {
    let inputs = &env.traffic.quality;
    let (_, _, outcomes) = run_sessions(&env.corpus, rfs, inputs);
    check_sessions(inputs, &outcomes, env.corpus.len(), checks);
    let (mut precision, mut gtir) = (0.0, 0.0);
    for (input, outcome) in inputs.iter().zip(&outcomes) {
        if let Ok(served) = outcome {
            let results = &served.outcome().results;
            precision += qd_core::precision(&env.corpus, &input.query, results);
            gtir += qd_core::gtir(&env.corpus, &input.query, results);
        }
    }
    let n = inputs.len() as f64;
    (precision / n, gtir / n)
}

/// The whole untraced run of one workload.
pub fn run<D: Deploy>(env: &Env<'_>, seconds: f64) -> Report {
    let workload = env.workload;
    let corpus = &env.corpus;
    let mut checks = Checks::default();

    // Set-up: the index build from features, from scratch, several times.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let start = Instant::now();
        built = Some(D::build(corpus.features(), &workload.rfs, workload.shards));
        setups.push(secs(start.elapsed()));
    }
    let rfs = built.expect("at least one set-up");
    let bytes_per_image = D::encode(&rfs).len() as f64 / corpus.len() as f64;
    let (precision, gtir) = quality(env, &rfs, &mut checks);
    let publisher = D::publisher(rfs);
    let mut present = vec![true; corpus.len()];

    // Warm-up: cycle 0, untimed and uncounted, fills caches and the allocator.
    let burst_of = |index: usize| env.traffic.burst(corpus, workload, index);
    let mut burst = burst_of(0);
    run_cycle::<D>(
        env,
        &publisher,
        0,
        &burst,
        &mut present,
        &mut Checks::default(),
    );

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut cycles: Vec<Cycle> = Vec::new();
    while cycles.len() < MIN_CYCLES || Instant::now() < deadline {
        let index = 1 + cycles.len();
        burst = burst_of(index);
        cycles.push(run_cycle::<D>(
            env,
            &publisher,
            index,
            &burst,
            &mut present,
            &mut checks,
        ));
    }

    // Determinism: the last cycle's sessions, replayed on the snapshot they
    // ran on, must produce the same result lists.
    let last = D::snapshot(&publisher);
    let (_, _, outcomes) = run_sessions(corpus, &last, &burst.sessions);
    let replayed = check_sessions(&burst.sessions, &outcomes, corpus.len(), &mut checks);
    let measured = cycles.last().map_or(0, |c| c.digest);
    if replayed != measured {
        checks.problem(format!(
            "result digest {replayed:016x} on replay, {measured:016x} when measured"
        ));
    }
    // Ground truth: sampled root-scope answers against an exhaustive scan.
    for &p in &burst.probes {
        let query = corpus.feature(p);
        let answer = last
            .tree()
            .knn_in_budgeted(last.tree().root(), query, KNN_K, None);
        let ok = knn_matches_scan(corpus.features(), &present, query, &answer.neighbors);
        checks.op(ok, || {
            format!("root k-NN of image {p} differs from an exhaustive scan")
        });
    }

    let column = |f: fn(&Cycle) -> f64| -> Vec<f64> { cycles.iter().map(f).collect() };
    let mut metrics = vec![
        Measured::over("setup_s", &setups),
        Measured::over("session_p50_us", &column(|c| c.session_p50_us)),
        Measured::over("sessions_per_s", &column(|c| c.sessions_per_s)),
        Measured::over("round_p50_us", &column(|c| c.round_p50_us)),
        Measured::once("precision_mean", precision),
        Measured::once("gtir_mean", gtir),
        Measured::over("mv_session_p50_us", &column(|c| c.mv_p50_us)),
        Measured::over("global_knn_p50_us", &column(|c| c.knn_p50_us)),
        Measured::over("update_p50_ms", &column(|c| c.update_ms)),
        Measured::over("serve_answered_per_s", &column(|c| c.answered_per_s)),
        Measured::over("serve_overload_per_s", &column(|c| c.overload_per_s)),
        Measured::over("shed_fraction", &column(|c| c.shed_fraction)),
        Measured::once("index_bytes_per_image", bytes_per_image),
    ];
    metrics.extend(peak_rss_mib().map(|v| Measured::once("peak_rss_mib", v)));

    Report {
        workload: workload.name,
        why: workload.why,
        seed: env.seed,
        traced: false,
        checks,
        // The first measured cycle always runs, on the same snapshot with the
        // same traffic: its digest is the same in every run of one seed.
        result_digest: cycles.first().map_or(0, |c| c.digest),
        repetitions: cycles.len(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn neighbor(id: u64, distance: f32) -> Neighbor {
        Neighbor { id, distance }
    }

    /// Points on a line at 0, 1, 2, …; the query sits at 0.
    fn line(n: usize) -> Vec<Vec<f32>> {
        (0..n).map(|i| vec![i as f32, 0.0]).collect()
    }

    #[test]
    fn the_scan_oracle_accepts_the_true_answer_and_nothing_else() {
        let features = line(KNN_K + 50);
        let mut present = vec![true; features.len()];
        present[3] = false; // removed images must not come back
        let query = [0.0f32, 0.0];
        let truth: Vec<Neighbor> = (0..features.len() as u64)
            .filter(|&id| id != 3)
            .take(KNN_K)
            .map(|id| neighbor(id, id as f32))
            .collect();
        assert!(knn_matches_scan(&features, &present, &query, &truth));

        let mut short = truth.clone();
        short.pop();
        assert!(!knn_matches_scan(&features, &present, &query, &short));
        let mut removed = truth.clone();
        removed[3] = neighbor(3, 3.0);
        assert!(!knn_matches_scan(&features, &present, &query, &removed));
        let mut wrong_distance = truth.clone();
        wrong_distance[7].distance = 7.5;
        assert!(!knn_matches_scan(
            &features,
            &present,
            &query,
            &wrong_distance
        ));
        let mut wrong_id = truth.clone();
        wrong_id[7].id = 140; // a real image, but not at that distance
        assert!(!knn_matches_scan(&features, &present, &query, &wrong_id));
    }

    #[test]
    fn the_scan_oracle_tolerates_ties_at_the_kth_distance() {
        // Two images at the same, largest distance: either may be reported.
        let mut features = line(KNN_K);
        features.push(vec![(KNN_K - 1) as f32, 0.0]);
        let present = vec![true; features.len()];
        let query = [0.0f32, 0.0];
        for last in [KNN_K - 1, KNN_K] {
            let mut answer: Vec<Neighbor> = (0..KNN_K as u64 - 1)
                .map(|id| neighbor(id, id as f32))
                .collect();
            answer.push(neighbor(last as u64, (KNN_K - 1) as f32));
            assert!(knn_matches_scan(&features, &present, &query, &answer));
        }
    }
}
