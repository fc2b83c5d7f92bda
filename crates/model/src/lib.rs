//! # postal-model
//!
//! Exact mathematical model for *"Designing Broadcasting Algorithms in the
//! Postal Model for Message-Passing Systems"* (A. Bar-Noy and S. Kipnis,
//! SPAA 1992).
//!
//! The postal model MPS(n, λ) describes a fully connected message-passing
//! system of `n` processors with *send-and-forget* communication: sending
//! or receiving one atomic message occupies a processor for one time unit,
//! and a message sent at time `t` is fully received at time `t + λ`, where
//! λ ≥ 1 is the communication latency. λ = 1 recovers the classical
//! telephone model.
//!
//! This crate provides the model's arithmetic backbone:
//!
//! * [`ratio::Ratio`] — exact rational numbers, so that non-integral λ
//!   (the paper's running example is λ = 5/2) and all derived times are
//!   represented without rounding;
//! * [`time::Time`] and [`latency::Latency`] — strongly typed model time
//!   and latency;
//! * [`fib::GenFib`] — the generalized Fibonacci function `F_λ(t)` and its
//!   index function `f_λ(n)`, the paper's central objects (Section 3);
//! * [`bounds`] — the Theorem 7 sandwich bounds and the appendix's
//!   asymptotic refinements;
//! * [`analysis`] — the characteristic growth base `b` with
//!   `b^λ = b^(λ−1) + 1` (φ for λ = 2), to machine precision;
//! * [`runtimes`] — exact closed-form running times for BCAST, REPEAT,
//!   PACK, PIPELINE-1/2 and the DTREE family, plus the Lemma 8 multi-
//!   message lower bound;
//! * [`schedule`] — explicit timed-send schedules with a mechanical
//!   validator for the model's port and causality rules;
//! * [`lint`] — the schedule lint engine behind that validator: stable
//!   codes `P0001`–`P0007` covering every validity rule plus quality
//!   checks (idle ports, optimality gaps against `f_λ(n)`);
//! * [`topology`] — sparse communication graphs (ring, torus, hypercube,
//!   bounded-degree broadcast graphs per arXiv:1312.1523) with the
//!   BFS oracle behind the topology-aware lint codes `P0017`–`P0019`;
//! * [`optimal`] — exact exhaustive search for optimal multi-message
//!   broadcast on tiny instances (quantifying the paper's Section 5 gap);
//! * [`step_fn`] — the paper's generic step-function/index-function
//!   machinery (Claims 1–2), with `F_λ` as one instance;
//! * [`corollaries`] — the elementary upper bounds of Corollaries 11,
//!   13, 15 and 17.
//!
//! The companion crates `postal-sim` (discrete-event simulator),
//! `postal-algos` (event-driven algorithm implementations) and
//! `postal-runtime` (threaded execution substrate) consume these
//! definitions and assert the paper's equalities *exactly*.
//!
//! ## Quick example
//!
//! ```
//! use postal_model::latency::Latency;
//! use postal_model::fib::GenFib;
//! use postal_model::time::Time;
//!
//! // The paper's Figure 1: broadcasting among 14 processors at λ = 5/2
//! // takes exactly 7½ time units, and the optimal first split is j = 9.
//! let lambda = Latency::from_ratio(5, 2);
//! let fib = GenFib::new(lambda);
//! assert_eq!(fib.index(14), Time::new(15, 2));
//! assert_eq!(fib.bcast_split(14), 9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod bounds;
pub mod corollaries;
pub mod fib;
pub mod latency;
pub mod lint;
pub mod optimal;
pub mod ratio;
pub mod runtimes;
pub mod schedule;
pub mod step_fn;
pub mod text;
pub mod time;
pub mod topology;

pub use fib::GenFib;
pub use latency::Latency;
pub use ratio::{Interval, Ratio};
pub use time::Time;
pub use topology::{Topology, TopologyError, TopologySpec};
