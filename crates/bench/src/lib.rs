//! # clover-bench
//!
//! The evaluation harness: one binary per table/figure of the paper under
//! `src/bin/` (`fig01`–`fig16`, `table1`, `ablation_ged`, plus the
//! beyond-the-paper `fig_autoscale` elastic-fleet study and the
//! `perf_report` engine gate), and this library of shared scaffolding
//! ([`harness`]): figure headers/rows, the standard Sec. 5.1 experiment
//! configuration, and parallel grid fan-out (`run_cells`/`run_grid`).
//! Per-layer micro-timings live in the repository benchmark
//! (`perfbench/`, its `layers` module).
//!
//! Environment knobs honored by the binaries:
//!
//! - `CLOVER_BENCH_SCALE` (default 1.0) scales the simulated horizon so
//!   smoke runs finish quickly;
//! - `CLOVER_THREADS` pins the experiment-grid worker pool (results are
//!   byte-identical at any thread count).

#![warn(missing_docs)]

/// Schema tag written into `BENCH_engine.json` by the `perf_report` binary.
///
/// Single source of truth: the emitter writes it, the artifact-freshness
/// test (`crates/bench/tests/bench_artifact.rs`) and the CI schema-match
/// step compare the checked-in artifact against it. Bump this whenever the
/// artifact's shape changes so a stale checked-in ledger fails loudly
/// instead of silently advertising fields no code emits.
pub const BENCH_SCHEMA: &str = "clover.bench.engine.v3";

pub mod harness;

pub use harness::*;
