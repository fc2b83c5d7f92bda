//! Normalized message flights.
//!
//! The race detector works over *flights*: one record per message with
//! approximate send and receive instants. Both exact event-driven
//! traces ([`postal_sim::Trace`]) and wall-clock runtime reports reduce
//! to this shape, so one detector serves every substrate.

use postal_model::latency::Latency;
use postal_model::schedule::Schedule;
use postal_sim::{Trace, Transfer};

/// One message in flight: who sent it, who received it, and when.
///
/// Times are `f64` model units. Exact traces convert losslessly for
/// the magnitudes involved; wall-clock traces are approximate by
/// nature, which is exactly why their ordering needs the causal check.
#[derive(Debug, Clone, PartialEq)]
pub struct Flight {
    /// Sending processor index.
    pub src: u32,
    /// Receiving processor index.
    pub dst: u32,
    /// When the sender's output port started transmitting.
    pub send_at: f64,
    /// When the receiver finished receiving.
    pub recv_at: f64,
    /// Display label (e.g. a sequence number or payload tag).
    pub label: String,
}

/// Converts an event-engine trace into flights.
pub fn flights_from_trace<P>(trace: &Trace<P>) -> Vec<Flight> {
    trace
        .transfers()
        .iter()
        .map(|t: &Transfer<P>| Flight {
            src: t.src.0,
            dst: t.dst.0,
            send_at: t.send_start.to_f64(),
            recv_at: t.recv_finish().to_f64(),
            label: format!("#{}", t.seq.0),
        })
        .collect()
}

/// Converts a trace back into a static [`Schedule`] so the lint engine
/// can analyze what the engine actually did. `n` and `latency` are the
/// run's parameters (a trace does not carry them).
pub fn schedule_from_trace<P>(trace: &Trace<P>, n: u32, latency: Latency) -> Schedule {
    trace.to_schedule(n, latency)
}

/// Builds flights from wall-clock delivery records `(src, dst,
/// recv_at_units)`, reconstructing the send instant as
/// `recv_at − λ` (the postal model's fixed flight time). Use this for
/// `postal-runtime` reports, whose deliveries carry only completion
/// times.
pub fn flights_from_deliveries<I>(deliveries: I, latency: Latency) -> Vec<Flight>
where
    I: IntoIterator<Item = (u32, u32, f64)>,
{
    let lam = latency.to_f64();
    deliveries
        .into_iter()
        .enumerate()
        .map(|(i, (src, dst, recv_at))| Flight {
            src,
            dst,
            send_at: recv_at - lam,
            recv_at,
            label: format!("#{i}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deliveries_reconstruct_send_times() {
        let lam = Latency::from_ratio(5, 2);
        let flights = flights_from_deliveries([(0u32, 1u32, 2.5f64), (0, 2, 3.5)], lam);
        assert_eq!(flights.len(), 2);
        assert!((flights[0].send_at - 0.0).abs() < 1e-12);
        assert!((flights[1].send_at - 1.0).abs() < 1e-12);
        assert_eq!(flights[1].label, "#1");
    }
}
