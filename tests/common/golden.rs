//! The golden-file check every suite shares. A suite includes this file on
//! its own (`#[path = "common/golden.rs"] mod golden;`), so a suite that
//! pins no golden carries no dead code.

use std::path::PathBuf;

/// Compares `actual` against the checked-in `tests/golden/<file>`. With
/// `QD_UPDATE_GOLDEN=1` the file is (re)written instead and the check
/// passes: regenerate only for a change meant to alter what the file pins,
/// and review the diff. On drift the failure names the first differing
/// line.
pub fn assert_matches_golden(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var("QD_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\n(create it with QD_UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    match expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (e, a))| e != a)
    {
        Some((i, (e, a))) => panic!(
            "golden {file} drifted at line {}:\n  expected: {e}\n  actual:   {a}\n(if intentional, regenerate with QD_UPDATE_GOLDEN=1)",
            i + 1
        ),
        None => panic!(
            "golden {file} drifted in length: expected {} lines, got {} (if intentional, regenerate with QD_UPDATE_GOLDEN=1)",
            expected.lines().count(),
            actual.lines().count()
        ),
    }
}
