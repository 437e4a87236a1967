//! Result presentation: aligned text tables on stdout, CSV files under
//! `bench_results/`, and the machine-readable `BENCH_qd.json` report.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// A simple column-aligned table with a title.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders the CSV form.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.header
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Prints the table and writes `bench_results/<slug>.csv`.
    pub fn emit(&self, slug: &str) {
        println!("{}", self.render());
        let dir = PathBuf::from("bench_results");
        if fs::create_dir_all(&dir).is_ok() {
            let path = dir.join(format!("{slug}.csv"));
            if let Err(e) = fs::write(&path, self.to_csv()) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("[wrote {}]\n", path.display());
            }
        }
    }
}

/// A minimal JSON value for the machine-readable bench report (the build
/// environment is offline, so the serializer is hand-rolled). Object keys
/// keep insertion order and numbers are pre-formatted, so a given value
/// always renders to the same bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// A string (escaped on render).
    Str(String),
    /// A pre-formatted number.
    Num(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Self {
        JsonValue::Str(s.into())
    }

    /// An unsigned integer value.
    pub fn u64(v: u64) -> Self {
        JsonValue::Num(v.to_string())
    }

    /// A float value, rendered shortest-roundtrip (`format!("{v}")`) so the
    /// bytes are deterministic. Non-finite values fall back to strings
    /// (plain JSON has no NaN/Infinity).
    pub fn f64(v: f64) -> Self {
        if v.is_finite() {
            JsonValue::Num(format!("{v}"))
        } else {
            JsonValue::Str(format!("{v}"))
        }
    }

    /// Renders pretty-printed JSON with two-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let pad = |out: &mut String, d: usize| {
            for _ in 0..d {
                out.push_str("  ");
            }
        };
        match self {
            JsonValue::Str(s) => {
                let _ = write!(out, "\"{}\"", json_escape(s));
            }
            JsonValue::Num(n) => out.push_str(n),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, depth + 1);
                    item.render_into(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in pairs.iter().enumerate() {
                    pad(out, depth + 1);
                    let _ = write!(out, "\"{}\": ", json_escape(key));
                    value.render_into(out, depth + 1);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                pad(out, depth);
                out.push('}');
            }
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl Table {
    /// The table as a JSON object: `{title, header, rows}` (all strings —
    /// tables are presentation artifacts; typed data lives in `counters`).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("title".to_string(), JsonValue::str(&self.title)),
            (
                "header".to_string(),
                JsonValue::Arr(self.header.iter().map(JsonValue::str).collect()),
            ),
            (
                "rows".to_string(),
                JsonValue::Arr(
                    self.rows
                        .iter()
                        .map(|row| JsonValue::Arr(row.iter().map(JsonValue::str).collect()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// A `qd_obs` counter map as a JSON object (BTreeMap keys: sorted, stable).
pub fn counters_to_json(counters: &BTreeMap<qd_obs::Name, u64>) -> JsonValue {
    JsonValue::Obj(
        counters
            .iter()
            .map(|(name, value)| (name.to_string(), JsonValue::u64(*value)))
            .collect(),
    )
}

/// A `qd_obs` span tree as nested JSON objects. `index` is omitted when the
/// span is unindexed, and empty counter maps / child lists render as `{}` /
/// `[]` so the shape is uniform.
pub fn span_to_json(span: &qd_obs::Span) -> JsonValue {
    let mut pairs = vec![("name".to_string(), JsonValue::str(span.name.as_str()))];
    if let Some(index) = span.index {
        pairs.push(("index".to_string(), JsonValue::u64(index)));
    }
    pairs.push(("counters".to_string(), counters_to_json(&span.counters)));
    pairs.push((
        "children".to_string(),
        JsonValue::Arr(span.children.iter().map(span_to_json).collect()),
    ));
    JsonValue::Obj(pairs)
}

/// One `qd_obs` histogram as a JSON object:
/// `{count, sum, min, max, p50, p90, p99, buckets}`. Percentiles are exact
/// nearest-rank values from the raw observation multiset; `buckets` is the
/// log2 view keyed `"0"` / `"le_N"` in ascending bound order.
pub fn hist_to_json(hist: &qd_obs::Hist) -> JsonValue {
    let buckets = JsonValue::Obj(
        hist.buckets()
            .into_iter()
            .map(|(upper, count)| {
                let label = if upper == 0 {
                    "0".to_string()
                } else {
                    format!("le_{upper}")
                };
                (label, JsonValue::u64(count))
            })
            .collect(),
    );
    JsonValue::Obj(vec![
        ("count".to_string(), JsonValue::u64(hist.count())),
        ("sum".to_string(), JsonValue::u64(hist.sum())),
        ("min".to_string(), JsonValue::u64(hist.min())),
        ("max".to_string(), JsonValue::u64(hist.max())),
        ("p50".to_string(), JsonValue::u64(hist.p50())),
        ("p90".to_string(), JsonValue::u64(hist.p90())),
        ("p99".to_string(), JsonValue::u64(hist.p99())),
        ("buckets".to_string(), buckets),
    ])
}

/// A `qd_obs` histogram map as a JSON object (BTreeMap keys: sorted, stable).
pub fn hists_to_json(hists: &BTreeMap<qd_obs::Name, qd_obs::Hist>) -> JsonValue {
    JsonValue::Obj(
        hists
            .iter()
            .map(|(name, hist)| (name.to_string(), hist_to_json(hist)))
            .collect(),
    )
}

/// A whole trace as machine-readable JSON:
/// `{counters, histograms, span_tree}`. This is the `qd trace --json`
/// payload — everything in it derives from the deterministic recorder, so
/// two runs of the same session render identical bytes.
pub fn trace_to_json(trace: &qd_obs::Trace) -> JsonValue {
    JsonValue::Obj(vec![
        ("counters".to_string(), counters_to_json(&trace.counters)),
        ("histograms".to_string(), hists_to_json(&trace.hists)),
        ("span_tree".to_string(), span_to_json(&trace.root)),
    ])
}

/// Renders a trace as Chrome/Perfetto trace-event JSON
/// (`{traceEvents: [...], displayTimeUnit: "ms"}`, one complete `ph:"X"`
/// event per span). There is no wall clock in a deterministic trace, so the
/// timeline axis is *counter cost*: a span's duration is
/// `max(1, sum of its own counters)` plus its children's durations, the
/// span's self segment comes first, and children follow sequentially in
/// recording order. The result is a flame chart of where the counted work
/// went, byte-identical across runs and thread counts.
pub fn chrome_trace_json(trace: &qd_obs::Trace) -> JsonValue {
    fn cost(span: &qd_obs::Span) -> u64 {
        let own: u64 = span.counters.values().sum();
        own.max(1) + span.children.iter().map(cost).sum::<u64>()
    }
    fn emit(span: &qd_obs::Span, ts: u64, events: &mut Vec<JsonValue>) {
        let name = match span.index {
            Some(index) => format!("{}#{index}", span.name),
            None => span.name.to_string(),
        };
        events.push(JsonValue::Obj(vec![
            ("name".to_string(), JsonValue::str(name)),
            ("ph".to_string(), JsonValue::str("X")),
            ("ts".to_string(), JsonValue::u64(ts)),
            ("dur".to_string(), JsonValue::u64(cost(span))),
            ("pid".to_string(), JsonValue::u64(0)),
            ("tid".to_string(), JsonValue::u64(0)),
            ("args".to_string(), counters_to_json(&span.counters)),
        ]));
        let own: u64 = span.counters.values().sum();
        let mut child_ts = ts + own.max(1);
        for child in &span.children {
            emit(child, child_ts, events);
            child_ts += cost(child);
        }
    }
    let mut events = Vec::new();
    emit(&trace.root, 0, &mut events);
    JsonValue::Obj(vec![
        ("traceEvents".to_string(), JsonValue::Arr(events)),
        ("displayTimeUnit".to_string(), JsonValue::str("ms")),
    ])
}

/// Formats a fraction with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats an optional fraction, printing the paper's "n/a" when absent.
pub fn f3_opt(x: Option<f64>) -> String {
    x.map(f3).unwrap_or_else(|| "n/a".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("longer-name"));
        // Header padded to the longest cell.
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].starts_with("name       "));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["hello, world".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"hello, world\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.5), "0.500");
        assert_eq!(f3_opt(None), "n/a");
        assert_eq!(f3_opt(Some(1.0)), "1.000");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn json_escapes_and_renders_deterministically() {
        let v = JsonValue::Obj(vec![
            ("s".to_string(), JsonValue::str("a\"b\\c\nd\u{1}")),
            ("f".to_string(), JsonValue::f64(0.1 + 0.2)),
            ("b".to_string(), JsonValue::Bool(true)),
            (
                "arr".to_string(),
                JsonValue::Arr(vec![JsonValue::u64(7), JsonValue::Obj(vec![])]),
            ),
        ]);
        let rendered = v.render();
        assert_eq!(rendered, v.render());
        assert!(rendered.contains(r#""s": "a\"b\\c\nd\u0001""#));
        // Shortest-roundtrip float formatting, not a fixed precision.
        assert!(rendered.contains("\"f\": 0.30000000000000004"));
        assert!(rendered.contains("\"b\": true"));
        assert!(rendered.ends_with("}\n"));
    }

    #[test]
    fn json_non_finite_floats_become_strings() {
        assert_eq!(JsonValue::f64(f64::NAN).render(), "\"NaN\"\n");
        assert_eq!(JsonValue::f64(f64::INFINITY).render(), "\"inf\"\n");
    }

    #[test]
    fn table_to_json_keeps_title_header_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let json = t.to_json().render();
        assert!(json.contains("\"title\": \"demo\""));
        assert!(json.contains("\"header\""));
        assert!(json.contains("\"rows\""));
        assert!(json.contains("\"1\""));
    }

    #[test]
    fn hist_serialization_includes_percentiles_and_buckets() {
        let mut hist = qd_obs::Hist::new();
        for v in [0, 3, 5, 9, 100] {
            hist.record(v);
        }
        let json = hist_to_json(&hist).render();
        assert!(json.contains("\"count\": 5"));
        assert!(json.contains("\"sum\": 117"));
        assert!(json.contains("\"min\": 0"));
        assert!(json.contains("\"max\": 100"));
        assert!(json.contains("\"p50\": 5"));
        assert!(json.contains("\"p90\": 100"));
        // Zero bucket labeled "0", log2 buckets labeled "le_N".
        assert!(json.contains("\"0\": 1"));
        assert!(json.contains("\"le_3\": 1"));
        assert!(json.contains("\"le_7\": 1"));
        assert!(json.contains("\"le_15\": 1"));
        assert!(json.contains("\"le_127\": 1"));
    }

    #[test]
    fn trace_to_json_carries_all_three_sections() {
        let (_, trace) = qd_obs::with_recorder(|| {
            qd_obs::span(qd_obs::sp::BENCH_QUERY, || {
                qd_obs::count(qd_obs::ctr::KNN_DISTANCE, 4);
                qd_obs::observe(qd_obs::hist::QD_QUERY_DISTANCES, 12);
            });
        });
        let json = trace_to_json(&trace).render();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"histograms\""));
        assert!(json.contains("\"span_tree\""));
        assert!(json.contains("\"qd.query.distance_computations\""));
        // Deterministic: same trace renders the same bytes.
        assert_eq!(json, trace_to_json(&trace).render());
    }

    #[test]
    fn chrome_trace_layout_is_sequential_counter_cost() {
        let (_, trace) = qd_obs::with_recorder(|| {
            qd_obs::span(qd_obs::sp::SESSION_FINAL, || {
                qd_obs::count(qd_obs::ctr::SESSION_DISPLAYS, 10);
                qd_obs::span_indexed(qd_obs::sp::SUBQUERY, 0, || {
                    qd_obs::count(qd_obs::ctr::KNN_DISTANCE, 3);
                });
                qd_obs::span_indexed(qd_obs::sp::SUBQUERY, 1, || {
                    qd_obs::count(qd_obs::ctr::KNN_DISTANCE, 5);
                });
            });
        });
        let json = chrome_trace_json(&trace).render();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"displayTimeUnit\": \"ms\""));
        assert!(json.contains("\"session.subquery#0\""));
        assert!(json.contains("\"session.subquery#1\""));
        // root has no own counters → self segment 1; the final span starts at
        // ts=1 with dur = 10 (own) + 3 + 5 (children) = 18; subquery #0 at
        // ts = 1 + 10 = 11 (dur 3), subquery #1 at ts = 14 (dur 5).
        assert!(json.contains("\"ts\": 11"));
        assert!(json.contains("\"ts\": 14"));
        assert!(json.contains("\"dur\": 18"));
        // Counter-free spans still get a visible 1-unit self segment.
        assert!(json.contains("\"ts\": 0"));
    }

    #[test]
    fn span_tree_serialization_matches_trace_shape() {
        let (_, trace) = qd_obs::with_recorder(|| {
            qd_obs::span_indexed(qd_obs::sp::ROUND, 3, || {
                qd_obs::count(qd_obs::ctr::KNN_DISTANCE, 2);
            });
        });
        let json = span_to_json(&trace.root).render();
        assert!(json.contains("\"name\": \"root\""));
        assert!(json.contains("\"name\": \"session.round\""));
        assert!(json.contains("\"index\": 3"));
        assert!(json.contains("\"knn.distance_computations\": 2"));
        let counters = counters_to_json(&trace.counters).render();
        assert!(counters.contains("\"knn.distance_computations\": 2"));
    }
}
