//! # postal-runtime
//!
//! A threaded execution substrate for postal-model programs: where
//! `postal-sim` simulates MPS(n, λ) on a virtual clock, this crate runs
//! the *same* event-driven [`postal_sim::Program`]s on real OS threads
//! with channel-based message passing, enforcing the model's send/receive
//! costs and latency with wall-clock sleeps.
//!
//! Use it to demonstrate that the paper's algorithms are executable
//! artifacts, to observe them under real scheduler jitter, and to
//! sanity-check that wall-clock completion tracks the exact model times
//! the simulator produces.
//!
//! ```
//! use postal_runtime::{run_threaded, send_programs_from, RuntimeConfig};
//! use postal_algos::bcast::{BcastPayload, BcastProgram};
//! use postal_algos::FibTable;
//! use postal_model::Latency;
//! use postal_sim::{ProcId, Program};
//! use std::sync::Arc;
//!
//! let lam = Latency::from_int(2);
//! let n = 6;
//! // One F_λ table for the run, shared by every processor's program.
//! let table = Arc::new(FibTable::new(lam, n as u64));
//! let programs = send_programs_from(n, |id| {
//!     let root_range = (id == ProcId::ROOT).then_some(n as u64);
//!     Box::new(BcastProgram::new(Arc::clone(&table), root_range))
//!         as Box<dyn Program<BcastPayload> + Send>
//! });
//! let report = run_threaded(lam, RuntimeConfig::default(), programs);
//! assert_eq!(report.deliveries.len(), n - 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod executor;

pub use clock::{units_to_time, UnitClock};
pub use executor::{
    run_threaded, run_threaded_observed, send_programs_from, try_run_threaded,
    try_run_threaded_observed, Delivery, RuntimeConfig, RuntimeError, ThreadedReport,
};
