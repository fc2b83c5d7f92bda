//! # postal-sim
//!
//! A deterministic discrete-event simulator for the postal model
//! MPS(n, λ) of Bar-Noy and Kipnis (SPAA 1992).
//!
//! The simulator executes *event-driven processor programs* — the exact
//! algorithm style the paper advocates — under the model's port semantics:
//! one output port and one input port per processor, one unit of busy time
//! per send and per receive, and a latency of λ units between send start
//! and receive finish. All timing is exact rational arithmetic (from
//! `postal-model`), so simulated completion times can be compared for
//! *equality* against the paper's closed forms.
//!
//! ## Structure
//!
//! * [`ids`] — processor and message identifiers;
//! * [`calendar`] — the O(1) bucket event queue behind the fast engine;
//! * [`latency_model`] — uniform λ (the paper), plus the time-varying and
//!   hierarchical relaxations proposed in the paper's Section 5;
//! * [`program`] — the event-driven [`program::Program`] trait shared with
//!   the threaded executor in `postal-runtime`;
//! * [`engine`] — the event queue, port accounting, strict/queued receive
//!   contention policies, and run reports;
//! * [`trace`] — complete per-transfer timing records with order-
//!   preservation checks;
//! * [`gantt`] — ASCII Gantt charts of traces;
//! * [`jitter`] — deterministic bounded-jitter latency, for probing the
//!   paper's uniform-λ assumption;
//! * [`faults`] — deterministic message-drop and crash injection, to
//!   observe how the (fault-intolerant) paper algorithms fail.
//!
//! ## Example: measuring a broadcast
//!
//! ```
//! use postal_sim::prelude::*;
//! use postal_model::{Latency, Time};
//!
//! // A naive "root sends to everyone" star broadcast on 4 processors.
//! struct Root;
//! impl Program<()> for Root {
//!     fn on_start(&mut self, ctx: &mut dyn Context<()>) {
//!         for i in 1..ctx.n() {
//!             ctx.send(ProcId::from(i), ());
//!         }
//!     }
//!     fn on_receive(&mut self, _: &mut dyn Context<()>, _: ProcId, _: ()) {}
//! }
//!
//! let latency = Uniform(Latency::from_int(2));
//! let mut programs: Vec<Box<dyn Program<()>>> = vec![Box::new(Root)];
//! for _ in 1..4 { programs.push(Box::new(Idle)); }
//! let report = Simulation::new(4, &latency).run(programs).unwrap();
//! report.assert_model_clean();
//! // Last send starts at t = 2, completes at t = 2 + λ = 4.
//! assert_eq!(report.completion, Time::from_int(4));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod calendar;
pub mod engine;
pub mod faults;
pub mod gantt;
pub mod ids;
pub mod jitter;
pub mod latency_model;
pub mod obs;
pub mod program;
pub mod trace;

/// One-stop imports for writing and running programs.
pub mod prelude {
    pub use crate::engine::{
        EdgeViolation, PortMode, RunReport, SimConfig, SimError, Simulation, Violation,
    };
    pub use crate::faults::FaultPlan;
    pub use crate::gantt::render_gantt;
    pub use crate::ids::{ProcId, SendSeq};
    pub use crate::jitter::Jittered;
    pub use crate::latency_model::{Hierarchical, LatencyModel, TimeVarying, Uniform};
    pub use crate::program::{programs_from, Context, Idle, Program};
    pub use crate::trace::{Trace, Transfer};
}

pub use calendar::{CalendarQueue, Lane, Stamp};
pub use engine::{EdgeViolation, PortMode, RunReport, SimConfig, SimError, Simulation};
pub use faults::FaultPlan;
pub use ids::{ProcId, SendSeq};
pub use jitter::Jittered;
pub use latency_model::{Hierarchical, LatencyModel, TimeVarying, Uniform};
pub use obs::{events_from_report, log_from_report};
pub use program::{Context, Idle, Program};
pub use trace::{Trace, Transfer};
