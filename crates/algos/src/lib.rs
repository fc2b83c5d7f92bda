//! # postal-algos
//!
//! Event-driven implementations of every broadcasting algorithm in
//! Bar-Noy & Kipnis, *"Designing Broadcasting Algorithms in the Postal
//! Model for Message-Passing Systems"* (SPAA 1992), runnable on the
//! `postal-sim` discrete-event engine and the `postal-runtime` threaded
//! substrate.
//!
//! ## Single message (Section 3)
//!
//! * [`bcast`] — Algorithm BCAST, optimal at exactly `f_λ(n)` (Theorem 6);
//! * [`fib_tree`] — the induced generalized Fibonacci broadcast tree
//!   (Figure 1), with ASCII rendering;
//! * [`flood`] — the greedy flood behind Lemma 5's optimality proof,
//!   as an executable schedule generator;
//! * [`mod@cascade`] — the per-processor send cascade both are built from,
//!   walked over one [`FibTable`] per run.
//!
//! ## Multiple messages (Section 4)
//!
//! * [`repeat`] — Algorithm REPEAT (Lemma 10);
//! * [`pack`] — Algorithm PACK (Lemma 12);
//! * [`pipeline`] — Algorithms PIPELINE-1/-2 (Lemmas 14/16);
//! * [`dtree`] — the DTREE(d) family incl. LINE, BINARY, STAR and the
//!   latency-matched degree (Lemma 18, Section 4.3);
//! * [`multi`] — the shared packet type and broadcast verification
//!   (completeness + the paper's order-preservation property).
//!
//! ## Section 5 extensions (the paper's "further research")
//!
//! * [`ext::adaptive`] — broadcast under time-varying λ;
//! * [`ext::hier`] — two-level latency hierarchies;
//! * [`ext::combine`] — combining (reduction) via the time-reversed tree;
//! * [`ext::gossip`] — gossip built from combine + pipeline broadcast;
//! * [`ext::scatter`] — personalized scatter and its optimality.
//!
//! All simulated completion times are exact rationals and are asserted
//! *equal* to the paper's closed forms in this crate's tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bcast;
pub mod cascade;
pub mod dtree;
pub mod ext;
pub mod fib_tree;
pub mod flood;
pub mod multi;
pub mod pack;
pub mod pipeline;
pub mod repeat;
pub mod replay;
pub mod svg;

pub use bcast::{bcast_programs, bcast_programs_from, run_bcast, run_bcast_from, BcastProgram};
pub use cascade::{cascade, CascadeSend, FibTable, Orientation};
pub use dtree::{
    dtree_exact_time, run_binary, run_dtree, run_latency_matched, run_line, run_star, DtreeProgram,
};
pub use fib_tree::{BroadcastTree, TreeNode};
pub use flood::{flood_schedule, FloodOutcome};
pub use multi::{BroadcastDefect, MultiPacket, MultiReport};
pub use pack::{run_pack, PackProgram};
pub use pipeline::{run_pipeline, PipelineProgram};
pub use repeat::{run_repeat, run_repeat_greedy, Pacing, RepeatProgram};
pub use replay::{replay, ReplayProgram, ToSchedule};
pub use svg::{tree_to_svg, SvgOptions};
