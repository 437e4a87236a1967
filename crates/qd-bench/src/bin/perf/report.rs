//! What a run produces: measured metrics, operation counts, and the lines
//! printed from them.

use crate::json::Json;
use crate::spec;
use crate::stats;
use std::time::Duration;

/// Microseconds of a duration, with every digit the clock gave.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Seconds of a duration.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One metric as measured: the median over repetitions of the
/// per-repetition statistic, with the extremes beside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Declared name (see [`spec::metric`]).
    pub name: &'static str,
    /// Median over repetitions.
    pub value: f64,
    /// Smallest repetition.
    pub min: f64,
    /// Largest repetition.
    pub max: f64,
    /// Repetitions.
    pub n: usize,
}

impl Measured {
    /// The median of one value per repetition.
    pub fn over(name: &'static str, per_repetition: &[f64]) -> Measured {
        let mut v = per_repetition.to_vec();
        stats::sort(&mut v);
        Measured {
            name,
            value: stats::median(&v),
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        }
    }

    /// A value measured once (counts, sizes).
    pub fn once(name: &'static str, value: f64) -> Measured {
        Measured::over(name, &[value])
    }

    fn unit(&self) -> &'static str {
        spec::metric(self.name).map_or("", |m| m.unit)
    }
}

/// Operations attempted and failed, with the reason for each failed check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checks {
    /// Operations sent at the system.
    pub attempted: u64,
    /// Operations that errored, were refused, or returned a wrong answer.
    pub failed: u64,
    /// One line per distinct kind of failure (first occurrence only).
    pub problems: Vec<String>,
}

impl Checks {
    /// Counts one operation; `describe` runs only when it failed.
    pub fn op(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problem(describe());
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: usize, failed: usize, describe: impl FnOnce() -> String) {
        self.attempted += n as u64;
        self.failed += failed as u64;
        if failed > 0 {
            self.problem(describe());
        }
    }

    /// Records a failed whole-run check that is not a single operation.
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 && !self.problems.contains(&what) {
            self.problems.push(what);
        }
    }
}

/// The result of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Why the workload exists.
    pub why: &'static str,
    /// The `--seed` the traffic came from.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Operation accounting.
    pub checks: Checks,
    /// FNV-1a over every session result list of the first repetition.
    pub result_digest: u64,
    /// Repetitions measured.
    pub repetitions: usize,
    /// The metrics, in table order.
    pub metrics: Vec<Measured>,
}

impl Report {
    /// True when every operation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.checks.problems.is_empty()
    }

    fn metrics_json(&self, with_spread: bool) -> Json {
        Json::obj(self.metrics.iter().map(|m| {
            let mut pairs = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit()))];
            if with_spread {
                pairs.push(("min", Json::Num(m.min)));
                pairs.push(("max", Json::Num(m.max)));
                pairs.push(("n", Json::UInt(m.n as u64)));
            }
            (m.name, Json::obj(pairs))
        }))
    }

    /// The last line of standard output: exactly the keys the driver reads.
    pub fn driver_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.checks.attempted)),
            ("failed", Json::UInt(self.checks.failed)),
            ("metrics", self.metrics_json(false)),
        ])
        .render()
    }

    /// The line `--out` appends and `compare` reads: the driver line plus
    /// what identifies the run and the in-run spread of every metric.
    pub fn record_line(&self) -> String {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::UInt(self.seed)),
            ("trace", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.checks.attempted)),
            ("failed", Json::UInt(self.checks.failed)),
            (
                "result_digest",
                Json::str(format!("{:016x}", self.result_digest)),
            ),
            ("repetitions", Json::UInt(self.repetitions as u64)),
            ("metrics", self.metrics_json(true)),
        ])
        .render()
    }

    /// Every metric by name with its unit, for people.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {}  seed {}  {}  repetitions {}  result_digest {:016x}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.repetitions,
            self.result_digest
        );
        let _ = writeln!(out, "  ({})", self.why);
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<38} {:>16.4} {:<6} (min {:.4}, max {:.4}, n {})",
                m.name,
                m.value,
                m.unit(),
                m.min,
                m.max,
                m.n
            );
        }
        let _ = writeln!(
            out,
            "  ops_attempted {}  ops_failed {}",
            self.checks.attempted, self.checks.failed
        );
        for p in &self.checks.problems {
            let _ = writeln!(out, "  CHECK FAILED: {p}");
        }
        out
    }
}

/// Peak resident set of this process in MiB (`VmHWM`); `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample() -> Report {
        let mut checks = Checks::default();
        checks.op(true, String::new);
        checks.op(true, String::new);
        Report {
            workload: "paper15k_qd",
            why: "a test",
            seed: 9,
            traced: false,
            checks,
            result_digest: 0xABCD,
            repetitions: 3,
            metrics: vec![
                Measured::over("session_p50_us", &[151.25, 149.5, 150.125]),
                Measured::once("setup_s", 4.75),
            ],
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let report = sample();
        let doc = parse(&report.driver_line()).expect("valid JSON");
        let Json::Obj(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted"), Some(&Json::UInt(2)));
        let m = doc.get("metrics").and_then(|m| m.get("session_p50_us"));
        assert_eq!(
            m.and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(150.125)
        );
        assert_eq!(
            m.and_then(|m| m.get("unit")).and_then(Json::as_str),
            Some("us")
        );
    }

    #[test]
    fn record_line_round_trips_with_spread() {
        let report = sample();
        let doc = parse(&report.record_line()).expect("valid JSON");
        assert_eq!(
            doc.get("workload").and_then(Json::as_str),
            Some("paper15k_qd")
        );
        let m = doc.get("metrics").and_then(|m| m.get("session_p50_us"));
        assert_eq!(
            m.and_then(|m| m.get("min")).and_then(Json::as_f64),
            Some(149.5)
        );
        assert_eq!(
            m.and_then(|m| m.get("max")).and_then(Json::as_f64),
            Some(151.25)
        );
        assert!(report.table().contains("session_p50_us"));
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut report = sample();
        report
            .checks
            .op(false, || "session 3 returned 12 > k = 10 ids".to_string());
        report
            .checks
            .op(false, || "session 3 returned 12 > k = 10 ids".to_string());
        assert!(!report.correct());
        assert_eq!(report.checks.failed, 2);
        assert_eq!(report.checks.problems.len(), 1);
        assert!(report.table().contains("CHECK FAILED"));
    }
}
