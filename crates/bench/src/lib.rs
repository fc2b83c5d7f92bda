//! # postal-bench
//!
//! Benchmarks and experiments that regenerate every figure and analytic
//! table of Bar-Noy & Kipnis (SPAA 1992) from the implementations in
//! `postal-model`, `postal-sim` and `postal-algos`.
//!
//! * [`experiments`] — one module per experiment id in `DESIGN.md`
//!   (F1, T6, T7, L8, L10–L18, X1–X3 and the ablations); each asserts
//!   the paper's claims while producing a human-readable table.
//! * [`report`] — `BENCH_<id>.json` machine-readable summaries every
//!   `exp_*` binary writes, with the pass/fail gates CI reads;
//! * [`probe`] — the peak-heap probe the memory-gated binaries install;
//! * [`table`] — the minimal text-table formatter used for output.
//!
//! Run `cargo run -p postal-bench --bin exp_all` for the full report, or
//! the individual `exp_*` binaries for one experiment. Criterion micro-
//! benchmarks live under `crates/bench/benches/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod probe;
pub mod report;
pub mod table;
