#![warn(missing_docs)]

//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§5), plus the ablations called out in DESIGN.md.
//!
//! The `repro` binary (`cargo run --release -p qd-bench --bin repro -- <cmd>`)
//! prints each artifact as an aligned text table and writes a CSV copy under
//! `bench_results/`. Everything it prints is a deterministic count or
//! quality figure; Figures 10–11 are reported in the paper's node-access
//! units.
//! The `perf` binary (`BENCHMARK.json`) owns wall-clock: session and round
//! latency at 15 000 and 30 000 images and the per-layer timings, with
//! medians and spread.

pub mod experiments;
pub mod fixtures;
pub mod obs_report;
pub mod report;
pub mod simqueries;

pub use fixtures::{bench_corpus, bench_rfs, BenchScale};
