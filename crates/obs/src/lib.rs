//! # postal-obs
//!
//! Unified tracing, metrics and profiling for postal-model runs.
//!
//! Every execution substrate in the workspace — the discrete-event
//! engine and the threaded wall-clock executor — emits the same
//! [`ObsEvent`] stream through a [`Recorder`].
//! The assembled [`ObsLog`] then feeds:
//!
//! * [`chrome`] — Chrome trace-event JSON (`chrome://tracing`,
//!   Perfetto), one track per processor port;
//! * [`prometheus`] — text-exposition counters, gauges and histograms;
//! * [`jsonl`] — a streaming line-per-event log with exact-rational
//!   timestamps that round-trips losslessly and re-ingests into
//!   `postal-verify` via [`ObsLog::to_schedule`];
//! * [`metrics`] — per-processor utilization, latency and queue-delay
//!   summaries ([`MetricsSummary`]);
//! * [`gantt`] — the ASCII port-activity chart shared with `postal-sim`.
//!
//! The crate sits just above `postal-model` and below everything else,
//! so instrumentation never creates a dependency cycle: engines push
//! events down into a recorder; exporters read the log back out.
//!
//! ## Recording at scale
//!
//! Three recorders cover the cost spectrum: [`NullRecorder`] (zero
//! cost), [`MemoryRecorder`] (every event, unbounded memory), and
//! [`RingRecorder`] — a sharded fixed-capacity ring with configurable
//! [`SampleSpec`] head/tail/rate sampling for runs where tracing must
//! not dominate (n → 10⁶). Sampling is *honest*: every rejected event
//! is counted, the total lands in [`RunMeta::dropped_events`], and all
//! three exporters plus `postal-cli stats` surface it, so a partial
//! trace can never masquerade as a complete one. Percentile summaries
//! (p50/p90/p99 latency, queue delay, port utilization) come from
//! [`StreamingHistogram`] — log-bucketed sketches computed in
//! O(buckets) memory rather than from stored event vectors.
//!
//! One consumer runs *during* the run instead of after it:
//! [`LintSink`] is a recorder that feeds the streaming lint engine in
//! `postal-model` directly from the event stream, producing the full
//! `P0001`–`P0007` report with O(n) memory and no stored trace — see
//! [`lint_stream`] for the watermark policy that makes a live feed
//! sound.
//!
//! ## Timing fidelity
//!
//! Events carry [`postal_model::Time`] (exact rationals). The JSONL
//! codec serializes them as rational strings (`"15/2"`), so a λ = 5/2
//! run re-ingests with *equal* — not approximately equal — timestamps,
//! and lint verdicts are identical before and after export.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod gantt;
pub mod hist;
pub mod jsonl;
pub mod lint_stream;
pub mod log;
pub mod metrics;
pub mod prometheus;
pub mod recorder;
pub mod ring;
mod row;
pub mod sample;

pub use chrome::to_chrome_trace;
pub use event::{ObsEvent, PortSide, PortSpan};
pub use hist::StreamingHistogram;
pub use jsonl::{from_jsonl, looks_like_log, to_jsonl, JsonlParser, LineReader};
pub use lint_stream::{LintSink, LintStream};
pub use log::{port_busy_times, ObsError, ObsLog, RunMeta};
pub use metrics::{Histogram, MetricsSummary};
pub use prometheus::to_prometheus;
pub use recorder::{MemoryRecorder, NullRecorder, Recorder};
pub use ring::{RingRecorder, ShardStats};
pub use sample::{SampleMode, SampleSpec};
