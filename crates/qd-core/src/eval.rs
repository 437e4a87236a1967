//! Whole-experiment runners shared by the benchmark harness, the examples,
//! and the integration tests: Table 1 (per-query quality), Table 2
//! (per-round quality), and the qualitative top-k comparisons of Figures
//! 4–9.

use crate::baselines::{self, BaselineConfig};
use crate::error::QdError;
use crate::metrics::{gtir, precision, RoundTrace};
use crate::rfs::RfsStructure;
use crate::session::{try_run_session, QdConfig};
use crate::user::SimulatedUser;
use qd_corpus::{queries, Corpus, QuerySpec};

/// Which baseline technique to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Multiple Viewpoints — the paper's Table 1/2 comparison.
    MultipleViewpoints,
    /// MindReader query point movement.
    QueryPointMovement,
    /// MARS multipoint query.
    MultipointQuery,
    /// Qcluster adaptive clustering.
    Qcluster,
}

impl Baseline {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Baseline::MultipleViewpoints => "MV",
            Baseline::QueryPointMovement => "QPM",
            Baseline::MultipointQuery => "MPQ",
            Baseline::Qcluster => "Qcluster",
        }
    }

    /// Runs this baseline's feedback session.
    pub fn run(
        self,
        corpus: &Corpus,
        query: &QuerySpec,
        user: &mut SimulatedUser,
        k: usize,
        cfg: &BaselineConfig,
    ) -> baselines::BaselineOutcome {
        let mut run_inner = || match self {
            Baseline::MultipleViewpoints => baselines::mv::run_session(corpus, query, user, k, cfg),
            Baseline::QueryPointMovement => {
                baselines::qpm::run_session(corpus, query, user, k, cfg)
            }
            Baseline::MultipointQuery => baselines::mpq::run_session(corpus, query, user, k, cfg),
            Baseline::Qcluster => baselines::qcluster::run_session(corpus, query, user, k, cfg),
        };
        if !qd_obs::enabled() {
            return run_inner();
        }
        // Baselines are full sequential scans: every candidate scored is a
        // record read, so node accesses equal distance computations by
        // construction. Recording both keeps the QD-vs-baseline histograms
        // symmetric in BENCH_qd.json.
        let (out, counters) = qd_obs::measured(qd_obs::sp::BASELINE_RUN, run_inner);
        let scanned = counters
            .get(qd_obs::ctr::BASELINE_DISTANCE)
            .copied()
            .unwrap_or(0);
        qd_obs::observe(qd_obs::hist::BASELINE_QUERY_DISTANCES, scanned);
        qd_obs::observe(qd_obs::hist::BASELINE_QUERY_NODE_ACCESSES, scanned);
        out
    }
}

/// One Table 1 row: a query evaluated under a baseline and under QD.
#[derive(Debug, Clone)]
pub struct QualityRow {
    /// Query name as listed in Table 1.
    pub query: String,
    /// Baseline technique's precision.
    pub baseline_precision: f64,
    /// Baseline technique's GTIR.
    pub baseline_gtir: f64,
    /// QD's precision.
    pub qd_precision: f64,
    /// QD's GTIR.
    pub qd_gtir: f64,
}

/// Runs Table 1: every standard query under `baseline` and QD, with
/// `k = |ground truth|` per query (making precision = recall, §5.2.1).
/// The final row returned by [`average_row`] reproduces the table's
/// "Average" line. Each query's two sessions run under a `bench.query` span
/// keyed by its index.
///
/// # Errors
/// The first QD session's [`QdError`], in query order.
pub fn run_table1(
    corpus: &Corpus,
    rfs: &RfsStructure,
    baseline: Baseline,
    qd_cfg: &QdConfig,
    baseline_cfg: &BaselineConfig,
) -> Result<Vec<QualityRow>, QdError> {
    // Each Table 1 row seeds its own simulated users from the config seeds,
    // so queries share no RNG stream and the rows fan out across the
    // qd-runtime pool while staying byte-identical to a sequential run.
    let queries = queries::standard_queries(corpus.taxonomy());
    qd_runtime::par_map_indexed(&queries, |i, query| {
        qd_obs::span_indexed(qd_obs::sp::BENCH_QUERY, i as u64, || {
            let k = corpus.ground_truth(query).len();
            let mut mv_user = SimulatedUser::oracle(query, baseline_cfg.seed)
                .with_patience(baseline_cfg.user_patience);
            let b = baseline.run(corpus, query, &mut mv_user, k, baseline_cfg);
            let mut qd_user =
                SimulatedUser::oracle(query, qd_cfg.seed).with_patience(qd_cfg.user_patience);
            let q = try_run_session(corpus, rfs, query, &mut qd_user, k, qd_cfg)?.into_outcome();
            Ok(QualityRow {
                query: query.name.clone(),
                baseline_precision: precision(corpus, query, &b.results),
                baseline_gtir: gtir(corpus, query, &b.results),
                qd_precision: precision(corpus, query, &q.results),
                qd_gtir: gtir(corpus, query, &q.results),
            })
        })
    })
    .into_iter()
    .collect()
}

/// The "Average" line of Table 1.
pub fn average_row(rows: &[QualityRow]) -> QualityRow {
    let n = rows.len().max(1) as f64;
    QualityRow {
        query: "Average".to_string(),
        baseline_precision: rows.iter().map(|r| r.baseline_precision).sum::<f64>() / n,
        baseline_gtir: rows.iter().map(|r| r.baseline_gtir).sum::<f64>() / n,
        qd_precision: rows.iter().map(|r| r.qd_precision).sum::<f64>() / n,
        qd_gtir: rows.iter().map(|r| r.qd_gtir).sum::<f64>() / n,
    }
}

/// One Table 2 row: round-averaged quality for a baseline and QD.
#[derive(Debug, Clone)]
pub struct RoundRow {
    /// 1-based feedback round.
    pub round: usize,
    /// Baseline technique's precision this round.
    pub baseline_precision: f64,
    /// Baseline technique's GTIR this round.
    pub baseline_gtir: f64,
    /// `None` before QD's final round (the paper prints "n/a": QD performs
    /// no retrieval until the last round).
    pub qd_precision: Option<f64>,
    /// QD's GTIR this round.
    pub qd_gtir: f64,
}

/// Runs Table 2: per-round precision/GTIR averaged over the 11 standard
/// queries.
///
/// # Errors
/// The first QD session's [`QdError`], in query order.
pub fn run_table2(
    corpus: &Corpus,
    rfs: &RfsStructure,
    baseline: Baseline,
    qd_cfg: &QdConfig,
    baseline_cfg: &BaselineConfig,
) -> Result<Vec<RoundRow>, QdError> {
    let queries = queries::standard_queries(corpus.taxonomy());
    let rounds = qd_cfg.rounds.max(baseline_cfg.rounds);
    // As in Table 1, every query's users are seeded independently; the
    // per-query trace pairs fan out and come back in query order.
    let traces = qd_runtime::par_map(&queries, |query| {
        let k = corpus.ground_truth(query).len();
        let mut b_user = SimulatedUser::oracle(query, baseline_cfg.seed)
            .with_patience(baseline_cfg.user_patience);
        let b_trace = baseline
            .run(corpus, query, &mut b_user, k, baseline_cfg)
            .round_trace;
        let mut q_user =
            SimulatedUser::oracle(query, qd_cfg.seed).with_patience(qd_cfg.user_patience);
        let q_trace = try_run_session(corpus, rfs, query, &mut q_user, k, qd_cfg)?
            .into_outcome()
            .round_trace;
        Ok((b_trace, q_trace))
    });
    let traces: Vec<(Vec<RoundTrace>, Vec<RoundTrace>)> =
        traces.into_iter().collect::<Result<_, QdError>>()?;
    let (baseline_traces, qd_traces): (Vec<_>, Vec<_>) = traces.into_iter().unzip();

    Ok((1..=rounds)
        .map(|round| {
            let n = queries.len() as f64;
            let b_prec = baseline_traces
                .iter()
                .filter_map(|t| t.get(round - 1).and_then(|r| r.precision))
                .sum::<f64>()
                / n;
            let b_gtir = baseline_traces
                .iter()
                .filter_map(|t| t.get(round - 1).map(|r| r.gtir))
                .sum::<f64>()
                / n;
            let qd_precisions: Vec<f64> = qd_traces
                .iter()
                .filter_map(|t| t.get(round - 1).and_then(|r| r.precision))
                .collect();
            let qd_gtir = qd_traces
                .iter()
                .filter_map(|t| t.get(round - 1).map(|r| r.gtir))
                .sum::<f64>()
                / n;
            RoundRow {
                round,
                baseline_precision: b_prec,
                baseline_gtir: b_gtir,
                qd_precision: if qd_precisions.len() == queries.len() {
                    Some(qd_precisions.iter().sum::<f64>() / n)
                } else {
                    None
                },
                qd_gtir,
            }
        })
        .collect())
}

/// A qualitative top-k run (Figures 4–9): retrieves `k` images for `query`
/// under both techniques and reports each result's category name.
#[derive(Debug, Clone)]
pub struct TopKComparison {
    /// Query name.
    pub query: String,
    /// Requested result count.
    pub k: usize,
    /// `(image id, category name)` for the baseline's top-k.
    pub baseline: Vec<(usize, String)>,
    /// `(image id, category name)` for QD's top-k.
    pub qd: Vec<(usize, String)>,
}

/// Runs the Figures 4–9 comparison for one query at a fixed `k`.
///
/// # Errors
/// The QD session's [`QdError`].
pub fn run_topk_comparison(
    corpus: &Corpus,
    rfs: &RfsStructure,
    query: &QuerySpec,
    k: usize,
    baseline: Baseline,
    qd_cfg: &QdConfig,
    baseline_cfg: &BaselineConfig,
) -> Result<TopKComparison, QdError> {
    let mut b_user =
        SimulatedUser::oracle(query, baseline_cfg.seed).with_patience(baseline_cfg.user_patience);
    let b = baseline.run(corpus, query, &mut b_user, k, baseline_cfg);
    let mut q_user = SimulatedUser::oracle(query, qd_cfg.seed).with_patience(qd_cfg.user_patience);
    let q = try_run_session(corpus, rfs, query, &mut q_user, k, qd_cfg)?.into_outcome();
    let name = |id: usize| corpus.taxonomy().name(corpus.label(id)).to_string();
    Ok(TopKComparison {
        query: query.name.clone(),
        k,
        baseline: b
            .results
            .into_iter()
            .take(k)
            .map(|id| (id, name(id)))
            .collect(),
        qd: q
            .results
            .into_iter()
            .take(k)
            .map(|id| (id, name(id)))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn table1_produces_eleven_rows_and_qd_wins_on_average() {
        let (corpus, rfs) = testutil::shared();
        let rows = run_table1(
            corpus,
            rfs,
            Baseline::MultipleViewpoints,
            &QdConfig::default(),
            &BaselineConfig::default(),
        )
        .unwrap();
        assert_eq!(rows.len(), 11);
        let avg = average_row(&rows);
        // The full Table 1 shape (QD ≈ 2× MV precision) needs paper-scale
        // cluster separation (15k images, 150 categories) and is checked by
        // the bench harness; on this small dense test corpus we assert the
        // structural claims: QD covers every ground-truth subconcept where
        // MV cannot, without giving up meaningful precision.
        assert!(
            avg.qd_gtir >= avg.baseline_gtir,
            "QD GTIR {} vs MV {}",
            avg.qd_gtir,
            avg.baseline_gtir
        );
        assert!(avg.qd_gtir > 0.9, "QD GTIR {}", avg.qd_gtir);
        assert!(
            avg.qd_precision > avg.baseline_precision - 0.1,
            "QD precision {} vs MV {}",
            avg.qd_precision,
            avg.baseline_precision
        );
    }

    #[test]
    fn table2_rounds_have_expected_shape() {
        let (corpus, rfs) = testutil::shared();
        let rows = run_table2(
            corpus,
            rfs,
            Baseline::MultipleViewpoints,
            &QdConfig::default(),
            &BaselineConfig::default(),
        )
        .unwrap();
        assert_eq!(rows.len(), 3);
        // QD reports no precision before the final round.
        assert!(rows[0].qd_precision.is_none());
        assert!(rows[1].qd_precision.is_none());
        assert!(rows[2].qd_precision.is_some());
        // QD GTIR grows across rounds.
        assert!(rows[2].qd_gtir >= rows[0].qd_gtir);
    }

    #[test]
    fn topk_comparison_reports_category_names() {
        let (corpus, rfs) = testutil::shared();
        let query = testutil::query("laptop");
        let cmp = run_topk_comparison(
            corpus,
            rfs,
            &query,
            8,
            Baseline::MultipleViewpoints,
            &QdConfig::default(),
            &BaselineConfig::default(),
        )
        .unwrap();
        assert_eq!(cmp.baseline.len(), 8);
        assert!(cmp.qd.len() <= 8);
        for (_, name) in cmp.baseline.iter().chain(&cmp.qd) {
            assert!(!name.is_empty());
        }
    }

    #[test]
    fn all_baselines_run_through_the_enum() {
        let (corpus, _) = testutil::shared();
        let query = testutil::query("rose");
        let k = 10;
        for b in [
            Baseline::MultipleViewpoints,
            Baseline::QueryPointMovement,
            Baseline::MultipointQuery,
            Baseline::Qcluster,
        ] {
            let mut user = SimulatedUser::oracle(&query, 0);
            let out = b.run(corpus, &query, &mut user, k, &BaselineConfig::default());
            assert_eq!(out.results.len(), k, "{}", b.name());
        }
    }
}
