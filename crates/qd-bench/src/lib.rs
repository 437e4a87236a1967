#![warn(missing_docs)]

//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§5), plus the ablations called out in DESIGN.md.
//!
//! The `repro` binary (`cargo run --release -p qd-bench --bin repro -- <cmd>`)
//! prints each artifact as an aligned text table and writes a CSV copy under
//! `bench_results/`. The `perf` binary (`BENCHMARK.json`) covers the
//! wall-clock experiments (Figures 10/11 and the per-layer timings) with
//! medians and spread; the `repro` versions of those figures report
//! single-shot sweeps.

pub mod experiments;
pub mod fixtures;
pub mod report;
pub mod simqueries;
pub mod timing;

pub use fixtures::{bench_corpus, bench_rfs, BenchScale};
