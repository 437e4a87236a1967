//! The allowlist: `qd-analyze.allow` at the workspace root.
//!
//! Format — one entry per line:
//!
//! ```text
//! # comment
//! R4 crates/qd-core/src/session.rs:310-340  Round durations are the Fig-10/11 measurement …
//! R3 crates/qd-core/src/x.rs                Order-insensitive integer fold …
//! ```
//!
//! `<rule> <path>[:<start>[-<end>]] <justification>`. An entry suppresses
//! findings of that rule in that file — all of them when no range is given,
//! only those on lines `start..=end` (or exactly `start`) when one is. The
//! justification is mandatory. Entries that suppress nothing are *stale* and
//! fail the check — the allowlist can only describe violations that still
//! exist, so it never silently rots into a pile of dead exemptions, and a
//! ranged entry stops suppressing the moment the finding moves away from it.

use crate::rules::{parse_rule, Finding, RuleId};
use std::fmt;

/// One parsed allowlist entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// The suppressed rule.
    pub rule: RuleId,
    /// Workspace-relative file the suppression applies to.
    pub file: String,
    /// Inclusive line range the suppression is scoped to; `None` = whole file.
    pub range: Option<(usize, usize)>,
    /// Why this is sound (mandatory).
    pub justification: String,
    /// 1-based line in the allowlist file (for error messages).
    pub line: usize,
}

impl AllowEntry {
    /// True if this entry covers `finding`.
    pub fn covers(&self, finding: &Finding) -> bool {
        self.rule == finding.rule
            && self.file == finding.file
            && self
                .range
                .is_none_or(|(lo, hi)| (lo..=hi).contains(&finding.line))
    }
}

impl fmt::Display for AllowEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.rule, self.file)?;
        match self.range {
            Some((lo, hi)) if lo == hi => write!(f, ":{lo}"),
            Some((lo, hi)) => write!(f, ":{lo}-{hi}"),
            None => Ok(()),
        }
    }
}

/// A malformed allowlist line.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "allowlist line {}: {}", self.line, self.message)
    }
}

/// Parses allowlist text. Blank lines and `#` comments are skipped.
pub fn parse(text: &str) -> Result<Vec<AllowEntry>, ParseError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: String| ParseError {
            line: i + 1,
            message,
        };
        let mut parts = line.splitn(3, char::is_whitespace);
        let rule_s = parts.next().unwrap_or_default();
        let rule = parse_rule(rule_s)
            .ok_or_else(|| err(format!("unknown rule `{rule_s}` (see `qd-analyze rules`)")))?;
        let target = parts
            .next()
            .ok_or_else(|| err("missing file path".to_string()))?;
        let (file, range) = match target.rsplit_once(':') {
            Some((path, spec)) => {
                let range = parse_range(spec).ok_or_else(|| {
                    err(format!(
                        "bad line range `{spec}` (expected `<start>` or `<start>-<end>`)"
                    ))
                })?;
                (path.to_string(), Some(range))
            }
            None => (target.to_string(), None),
        };
        let justification = parts.next().unwrap_or("").trim().to_string();
        if justification.is_empty() {
            return Err(err(format!(
                "entry `{rule} {file}` has no justification — every suppression \
                 must say why it is sound"
            )));
        }
        out.push(AllowEntry {
            rule,
            file,
            range,
            justification,
            line: i + 1,
        });
    }
    Ok(out)
}

/// Parses `10` or `10-20` into an inclusive range.
fn parse_range(spec: &str) -> Option<(usize, usize)> {
    let (lo, hi) = match spec.split_once('-') {
        Some((lo, hi)) => (lo.parse().ok()?, hi.parse().ok()?),
        None => {
            let n = spec.parse().ok()?;
            (n, n)
        }
    };
    (lo >= 1 && hi >= lo).then_some((lo, hi))
}

/// Splits `findings` into (suppressed, reported) under `entries`, and returns
/// the stale entries (those that suppressed nothing) last.
pub fn apply(
    findings: Vec<Finding>,
    entries: &[AllowEntry],
) -> (Vec<Finding>, Vec<Finding>, Vec<AllowEntry>) {
    let mut suppressed = Vec::new();
    let mut reported = Vec::new();
    let mut used = vec![false; entries.len()];
    for f in findings {
        match entries.iter().position(|e| e.covers(&f)) {
            Some(i) => {
                used[i] = true;
                suppressed.push(f);
            }
            None => reported.push(f),
        }
    }
    let stale = entries
        .iter()
        .zip(&used)
        .filter(|&(_, &u)| !u)
        .map(|(e, _)| e.clone())
        .collect();
    (suppressed, reported, stale)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: RuleId, file: &str, line: usize) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message: String::new(),
            hint: String::new(),
        }
    }

    #[test]
    fn parses_entries_and_skips_comments() {
        let text = "# header\n\nR4 src/bin/qd.rs CLI elapsed-time display only.\n";
        let entries = parse(text).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, RuleId::R4);
        assert_eq!(entries[0].file, "src/bin/qd.rs");
        assert_eq!(entries[0].range, None);
    }

    #[test]
    fn parses_line_ranges() {
        let entries = parse(
            "R4 crates/qd-index/src/tree.rs:100-140 reporting-only timer\n\
             R3 crates/qd-core/src/client.rs:57 order-insensitive consumer\n",
        )
        .unwrap();
        assert_eq!(entries[0].range, Some((100, 140)));
        assert_eq!(entries[1].range, Some((57, 57)));
    }

    #[test]
    fn rejects_bad_ranges() {
        assert!(parse("R4 a.rs:x justification here").is_err());
        assert!(parse("R4 a.rs:20-10 justification here").is_err());
        assert!(parse("R4 a.rs:0 justification here").is_err());
    }

    #[test]
    fn rejects_missing_justification() {
        assert!(parse("R4 src/bin/qd.rs").is_err());
        assert!(parse("R4 src/bin/qd.rs    ").is_err());
    }

    #[test]
    fn rejects_unknown_rule() {
        assert!(parse("R14 src/x.rs because").is_err());
        // A retired id is unknown too: clippy carries that rule now.
        assert!(parse("R7 src/x.rs because").is_err());
    }

    #[test]
    fn apply_partitions_and_reports_stale() {
        let entries = parse(
            "R4 a.rs ok because reporting only\n\
             R3 never.rs suppresses nothing\n",
        )
        .unwrap();
        let findings = vec![
            finding(RuleId::R4, "a.rs", 1),
            finding(RuleId::R1, "a.rs", 1),
        ];
        let (suppressed, reported, stale) = apply(findings, &entries);
        assert_eq!(suppressed.len(), 1);
        assert_eq!(reported.len(), 1);
        assert_eq!(reported[0].rule, RuleId::R1);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].file, "never.rs");
    }

    #[test]
    fn ranged_entries_scope_the_suppression() {
        let entries = parse("R4 a.rs:10-20 reporting-only timer in this block\n").unwrap();
        let findings = vec![
            finding(RuleId::R4, "a.rs", 10),
            finding(RuleId::R4, "a.rs", 20),
            finding(RuleId::R4, "a.rs", 21),
        ];
        let (suppressed, reported, stale) = apply(findings, &entries);
        assert_eq!(suppressed.len(), 2);
        assert_eq!(reported.len(), 1);
        assert_eq!(reported[0].line, 21);
        assert!(stale.is_empty());
    }

    #[test]
    fn ranged_entry_that_misses_is_stale() {
        let entries = parse("R4 a.rs:10 moved elsewhere\n").unwrap();
        let (suppressed, reported, stale) = apply(vec![finding(RuleId::R4, "a.rs", 11)], &entries);
        assert!(suppressed.is_empty());
        assert_eq!(reported.len(), 1);
        assert_eq!(stale.len(), 1);
    }
}
