//! Wall-clock timing histograms for the bench harness.
//!
//! Clippy's `disallowed-methods` confines wall-clock reads to qd-bench (and
//! the two `#[expect]`ed timers inside qd-core sessions). This module is the
//! aggregation side: it never reads the clock itself — it folds the
//! `Duration`s that sessions already expose (`round_durations`,
//! `final_knn_duration`) into [`qd_obs::Hist`]s over microseconds, and
//! renders nearest-rank percentiles next to the deterministic cost
//! percentiles in `BENCH_qd.json`.
//!
//! Timing is inherently non-deterministic, so everything here stays behind
//! the `--timing` flag: the CI byte-diff job never sees these tables.

use crate::report::Table;
use std::time::Duration;

/// Per-query and per-round wall-clock histograms for one bench workload.
#[derive(Debug, Clone, Default)]
pub struct TimingHists {
    /// One observation per feedback round, in microseconds.
    pub round: qd_obs::Hist,
    /// One observation per query: the final k-NN execution, in microseconds.
    pub final_knn: qd_obs::Hist,
    /// One observation per query: rounds plus final k-NN, in microseconds.
    pub query_total: qd_obs::Hist,
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

impl TimingHists {
    /// An empty set of timing histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one query's session timings in: every round individually, the
    /// final k-NN, and the query total.
    pub fn record_query(&mut self, rounds: &[Duration], final_knn: Duration) {
        let mut total = final_knn;
        for &round in rounds {
            self.round.record(micros(round));
            total += round;
        }
        self.final_knn.record(micros(final_knn));
        self.query_total.record(micros(total));
    }

    /// The `timing_percentiles` table: nearest-rank wall-clock percentiles
    /// per metric, in microseconds.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Timing percentiles (wall-clock, microseconds)",
            &["metric", "n", "p50", "p90", "p99", "max"],
        );
        for (name, hist) in [
            ("round", &self.round),
            ("final_knn", &self.final_knn),
            ("query_total", &self.query_total),
        ] {
            table.row(vec![
                name.to_string(),
                hist.count().to_string(),
                hist.p50().to_string(),
                hist.p90().to_string(),
                hist.p99().to_string(),
                hist.max().to_string(),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_query_fills_all_three_hists() {
        let mut t = TimingHists::new();
        t.record_query(
            &[Duration::from_micros(100), Duration::from_micros(300)],
            Duration::from_micros(50),
        );
        t.record_query(&[Duration::from_micros(200)], Duration::from_micros(70));
        assert_eq!(t.round.count(), 3);
        assert_eq!(t.final_knn.count(), 2);
        assert_eq!(t.query_total.count(), 2);
        assert_eq!(t.query_total.max(), 450);
        assert_eq!(t.final_knn.p50(), 50);
    }

    #[test]
    fn table_has_one_row_per_metric() {
        let t = TimingHists::new();
        let table = t.table();
        assert_eq!(table.len(), 3);
        let rendered = table.render();
        assert!(rendered.contains("round"));
        assert!(rendered.contains("final_knn"));
        assert!(rendered.contains("query_total"));
    }

    #[test]
    fn saturates_instead_of_truncating_huge_durations() {
        assert_eq!(micros(Duration::MAX), u64::MAX);
    }
}
