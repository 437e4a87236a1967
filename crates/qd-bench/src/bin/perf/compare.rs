//! `perf compare A B`: do two sets of runs agree within the benchmark's own
//! bounds? Each file holds the lines `--out` appended, any number of runs
//! per workload. One row per (workload, end-to-end metric).

use crate::json::{parse, Json};
use crate::spec::{Better, Metric, END_TO_END};
use crate::stats::{median, quartile_spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The values of one metric in one file: one per run, plus each run's own
/// min–max spread across repetitions.
#[derive(Debug, Clone, Default, PartialEq)]
struct Series {
    values: Vec<f64>,
    in_run_spreads: Vec<f64>,
}

impl Series {
    /// Run-to-run spread: the interquartile distance over the median when
    /// there are enough runs to have quartiles, else the widest in-run
    /// min–max spread.
    fn spread(&self) -> f64 {
        if self.values.len() >= 4 {
            quartile_spread(&self.values).unwrap_or(0.0)
        } else {
            self.in_run_spreads.iter().copied().fold(0.0, f64::max)
        }
    }
}

/// (workload, metric) → series, from the untraced runs of one file.
type Table = BTreeMap<(String, String), Series>;

fn read(text: &str) -> Result<Table, String> {
    let mut table = Table::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if doc.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("line {}: no metrics", n + 1));
        };
        for (name, m) in metrics {
            let number = |key: &str| m.get(key).and_then(Json::as_f64);
            let Some(value) = number("value") else {
                return Err(format!("line {}: {name} has no value", n + 1));
            };
            let series = table
                .entry((workload.to_string(), name.clone()))
                .or_default();
            series.values.push(value);
            if let (Some(min), Some(max)) = (number("min"), number("max")) {
                if value != 0.0 {
                    series.in_run_spreads.push((max - min) / value.abs());
                }
            }
        }
    }
    Ok(table)
}

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrow enough to say so.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// Not worse by more than the bound, but the spread is wider than the
    /// bound, so "unchanged" cannot be claimed either.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

fn verdict(metric: &Metric, a: &Series, b: &Series) -> (f64, f64, Verdict) {
    let bound = metric.bound.unwrap_or(0.0);
    let worse = worsening(metric, median(&a.values), median(&b.values));
    let spread = a.spread().max(b.spread());
    let verdict = if worse > bound {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, spread, verdict)
}

/// Compares two record files; returns the printable table and whether any
/// row regressed.
///
/// # Errors
/// A description of the first unreadable line or missing pairing.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (read(a_text)?, read(b_text)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:<22} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse%", "spread%", "bound%"
    );
    let mut regressed = false;
    let mut rows = 0;
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = a.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    for workload in workloads {
        for metric in END_TO_END {
            let key = (workload.clone(), metric.name.to_string());
            let (Some(sa), Some(sb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (worse, spread, v) = verdict(metric, sa, sb);
            regressed |= v == Verdict::Regressed;
            rows += 1;
            let _ = writeln!(
                out,
                "{:<22} {:<22} {:>14.4} {:>14.4} {:>+8.2} {:>8.2} {:>6.1}  {}",
                workload,
                metric.name,
                median(&sa.values),
                median(&sb.values),
                worse * 100.0,
                spread * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no (workload, metric) pair".to_string());
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> Metric {
        Metric {
            name: "m",
            unit: "us",
            better,
            bound: Some(0.10),
        }
    }

    fn series(values: &[f64], in_run: f64) -> Series {
        Series {
            values: values.to_vec(),
            in_run_spreads: vec![in_run; values.len()],
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let (lower, higher) = (&metric(Better::Lower), &metric(Better::Higher));
        let base = series(&[100.0], 0.02);
        assert_eq!(
            verdict(lower, &base, &series(&[109.0], 0.02)).2,
            Verdict::Ok
        );
        assert_eq!(
            verdict(lower, &base, &series(&[111.0], 0.02)).2,
            Verdict::Regressed
        );
        // Faster is never a regression for a lower-is-better metric…
        assert_eq!(verdict(lower, &base, &series(&[50.0], 0.02)).2, Verdict::Ok);
        // …and slower throughput is one for a higher-is-better metric.
        assert_eq!(
            verdict(higher, &base, &series(&[80.0], 0.02)).2,
            Verdict::Regressed
        );
        assert_eq!(
            verdict(higher, &base, &series(&[150.0], 0.02)).2,
            Verdict::Ok
        );
        // A spread wider than the bound turns "ok" into "unresolved" but
        // does not hide a regression.
        assert_eq!(
            verdict(lower, &base, &series(&[105.0], 0.30)).2,
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(lower, &base, &series(&[140.0], 0.30)).2,
            Verdict::Regressed
        );
    }

    #[test]
    fn many_runs_use_the_quartile_spread_not_the_in_run_one() {
        let m = &metric(Better::Lower);
        let steady: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.1).collect();
        // Wide in-run spread, tight run-to-run spread: resolved.
        let a = series(&steady, 0.50);
        assert!(a.spread() < 0.01);
        assert_eq!(verdict(m, &a, &a).2, Verdict::Ok);
    }

    fn line(workload: &str, trace: bool, value: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"trace\": {trace}, \"metrics\": \
             {{\"session_p50_us\": {{\"value\": {value}, \"unit\": \"us\", \
             \"min\": {value}, \"max\": {value}, \"n\": 3}}}}}}"
        )
    }

    #[test]
    fn files_are_compared_row_by_row() {
        let a = [line("w1", false, 100.0), line("w1", true, 1.0)].join("\n");
        let b = line("w1", false, 160.0);
        let (table, regressed) = compare(&a, &b).expect("comparable");
        assert!(regressed);
        assert!(table.contains("regressed") && table.contains("w1"));
        let (_, regressed) = compare(&a, &a).expect("comparable");
        assert!(!regressed);
        assert!(compare(&a, &line("w2", false, 1.0)).is_err());
        assert!(compare("not json", &b).is_err());
    }
}
