//! Execution traces: every message transfer with its exact timing.

use crate::ids::{ProcId, SendSeq};
use postal_model::schedule::{Schedule, TimedSend};
use postal_model::{Latency, Time};
use postal_obs::{PortSide, PortSpan};

/// One completed message transfer.
///
/// In the postal model a transfer sent at `s` occupies the sender during
/// `[s, s+1]` and the receiver during `[s+λ−1, s+λ]`. In queued-port mode
/// the receive interval may start later than `s+λ−1`; both the model
/// arrival time and the actual receive interval are recorded.
///
/// Only the three independent times are stored. Each port holds the
/// message for exactly one unit, so the two finishes are read from
/// their starts ([`Transfer::send_finish`], [`Transfer::recv_finish`]),
/// and a transfer with a payload of up to 16 bytes takes 128 bytes.
#[derive(Debug, Clone)]
pub struct Transfer<P> {
    /// Global issue-order sequence number.
    pub seq: SendSeq,
    /// Sending processor.
    pub src: ProcId,
    /// Receiving processor.
    pub dst: ProcId,
    /// When the sender's output port started transmitting (the model `t`).
    pub send_start: Time,
    /// `send_start + λ − 1`: when the message was ready at the receiver.
    pub arrival: Time,
    /// When the receiver's input port actually started receiving.
    pub recv_start: Time,
    /// The payload carried.
    pub payload: P,
}

impl<P> Transfer<P> {
    /// `send_start + 1`: when the sender's port became free again.
    #[inline]
    pub fn send_finish(&self) -> Time {
        self.send_start.plus_one()
    }

    /// `recv_start + 1`: when the payload was delivered to the program.
    #[inline]
    pub fn recv_finish(&self) -> Time {
        self.recv_start.plus_one()
    }

    /// Whether the receive was delayed past the model arrival time by
    /// input-port contention (only possible in queued-port mode).
    pub fn was_queued(&self) -> bool {
        self.recv_start > self.arrival
    }
}

/// The full, deterministic record of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct Trace<P> {
    transfers: Vec<Transfer<P>>,
}

impl<P> Trace<P> {
    /// Creates an empty trace.
    pub fn new() -> Trace<P> {
        Trace {
            transfers: Vec::new(),
        }
    }

    /// Appends a transfer (engine-internal).
    pub(crate) fn push(&mut self, t: Transfer<P>) {
        self.transfers.push(t);
    }

    /// All transfers, in receive-completion order.
    pub fn transfers(&self) -> &[Transfer<P>] {
        &self.transfers
    }

    /// Number of message transfers.
    pub fn len(&self) -> usize {
        self.transfers.len()
    }

    /// Whether no message was transferred.
    pub fn is_empty(&self) -> bool {
        self.transfers.is_empty()
    }

    /// Time at which the last receive finished (`Time::ZERO` when no
    /// message flowed). This is the paper's running time: "the arrival
    /// time of the last message to the last processor".
    pub fn completion_time(&self) -> Time {
        // The latest finish is one unit after the latest start.
        self.transfers
            .iter()
            .map(|t| t.recv_start)
            .max()
            .map_or(Time::ZERO, Time::plus_one)
    }

    /// Extracts the static [`Schedule`] this trace realized, so the
    /// lint engine can check an *execution* by the same rules as a
    /// hand-written schedule. `n` and `latency` are the run's
    /// parameters (a trace does not carry them).
    pub fn to_schedule(&self, n: u32, latency: Latency) -> Schedule {
        let sends = self
            .transfers
            .iter()
            .map(|t| TimedSend {
                src: t.src.0,
                dst: t.dst.0,
                send_start: t.send_start,
            })
            .collect();
        Schedule::new(n, latency, sends)
    }

    /// Transfers received by one processor, in receive order.
    pub fn received_by(&self, p: ProcId) -> impl Iterator<Item = &Transfer<P>> {
        self.transfers.iter().filter(move |t| t.dst == p)
    }

    /// Transfers sent by one processor, in send order.
    pub fn sent_by(&self, p: ProcId) -> Vec<&Transfer<P>> {
        let mut v: Vec<&Transfer<P>> = self.transfers.iter().filter(|t| t.src == p).collect();
        v.sort_by_key(|t| (t.send_start, t.seq));
        v
    }

    /// The time each processor first finished receiving any message, or
    /// `None` if it never received one. Index 0 (the originator) is `None`
    /// unless someone sent to it.
    pub fn first_receipt_times(&self, n: usize) -> Vec<Option<Time>> {
        let mut v = vec![None; n];
        for t in &self.transfers {
            let slot = &mut v[t.dst.index()];
            let finish = t.recv_finish();
            if slot.is_none_or(|existing| finish < existing) {
                *slot = Some(finish);
            }
        }
        v
    }

    /// The port-occupancy intervals this trace realized, in transfer
    /// order — the span stream the obs Gantt renderer and utilization
    /// accounting consume.
    pub fn port_spans(&self) -> Vec<PortSpan> {
        let mut spans = Vec::with_capacity(self.transfers.len() * 2);
        for t in &self.transfers {
            spans.push(PortSpan {
                proc: t.src.0,
                side: PortSide::Out,
                start: t.send_start,
                end: t.send_finish(),
            });
            spans.push(PortSpan {
                proc: t.dst.0,
                side: PortSide::In,
                start: t.recv_start,
                end: t.recv_finish(),
            });
        }
        spans
    }

    /// Per-processor port utilization: `(send_busy, recv_busy)` time for
    /// each processor. Dividing by the completion time gives utilization
    /// fractions (the busiest processor in an optimal broadcast — the
    /// originator — sends for `k` consecutive units, its whole
    /// participation). Delegates to [`postal_obs::port_busy_times`], the
    /// workspace's single definition of port busy time.
    pub fn port_busy_times(&self, n: usize) -> Vec<(Time, Time)> {
        postal_obs::port_busy_times(n, self.port_spans())
    }

    /// Exports the trace as CSV (timing columns as exact rationals plus
    /// decimal approximations; payloads via the supplied formatter).
    ///
    /// Columns: `seq,src,dst,send_start,arrival,recv_start,recv_finish,
    /// recv_finish_f64,queued,payload`.
    pub fn to_csv<F>(&self, mut payload_fmt: F) -> String
    where
        F: FnMut(&P) -> String,
    {
        let mut out = String::from(
            "seq,src,dst,send_start,arrival,recv_start,recv_finish,recv_finish_f64,queued,payload\n",
        );
        for t in &self.transfers {
            let recv_finish = t.recv_finish();
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{:.6},{},{}\n",
                t.seq.0,
                t.src.0,
                t.dst.0,
                t.send_start,
                t.arrival,
                t.recv_start,
                recv_finish,
                recv_finish.to_f64(),
                t.was_queued(),
                payload_fmt(&t.payload),
            ));
        }
        out
    }

    /// Checks per-destination order preservation with respect to a key
    /// extracted from each payload: for every processor, the sequence of
    /// keys of its received messages (in receive order) must be
    /// nondecreasing. Returns the first violating destination.
    ///
    /// This is the paper's "order of messages is preserved" property with
    /// the key being the message index `M_1 … M_m`.
    pub fn check_order_preserving<K, F>(&self, n: usize, mut key: F) -> Result<(), ProcId>
    where
        K: PartialOrd,
        F: FnMut(&P) -> Option<K>,
    {
        for i in 0..n {
            let p = ProcId::from(i);
            let mut last: Option<K> = None;
            for t in self.received_by(p) {
                if let Some(k) = key(&t.payload) {
                    if let Some(prev) = &last {
                        if *prev > k {
                            return Err(p);
                        }
                    }
                    last = Some(k);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(seq: u64, src: u32, dst: u32, send: i128, lam_num: i128, lam_den: i128) -> Transfer<u32> {
        let send_start = Time::from_int(send);
        let arrival = send_start + Time::new(lam_num, lam_den) - Time::ONE;
        Transfer {
            seq: SendSeq(seq),
            src: ProcId(src),
            dst: ProcId(dst),
            send_start,
            arrival,
            recv_start: arrival,
            payload: seq as u32,
        }
    }

    #[test]
    fn empty_trace_completes_at_zero() {
        let tr: Trace<u32> = Trace::new();
        assert!(tr.is_empty());
        assert_eq!(tr.completion_time(), Time::ZERO);
    }

    #[test]
    fn completion_is_last_recv_finish() {
        let mut tr = Trace::new();
        tr.push(t(0, 0, 1, 0, 5, 2));
        tr.push(t(1, 0, 2, 1, 5, 2));
        assert_eq!(tr.len(), 2);
        // Second send starts at 1, arrives at 1 + 5/2 = 7/2.
        assert_eq!(tr.completion_time(), Time::new(7, 2));
    }

    #[test]
    fn received_and_sent_by() {
        let mut tr = Trace::new();
        tr.push(t(0, 0, 1, 0, 2, 1));
        tr.push(t(1, 0, 2, 1, 2, 1));
        tr.push(t(2, 1, 2, 2, 2, 1));
        assert_eq!(tr.received_by(ProcId(2)).count(), 2);
        assert_eq!(tr.sent_by(ProcId(0)).len(), 2);
        assert_eq!(tr.sent_by(ProcId(2)).len(), 0);
    }

    #[test]
    fn first_receipt_times() {
        let mut tr = Trace::new();
        tr.push(t(0, 0, 1, 0, 2, 1));
        tr.push(t(1, 2, 1, 0, 2, 1)); // also to p1, same timing
        let first = tr.first_receipt_times(3);
        assert_eq!(first[0], None);
        assert_eq!(first[1], Some(Time::from_int(2)));
        assert_eq!(first[2], None);
    }

    #[test]
    fn order_preservation_check() {
        let mut tr = Trace::new();
        tr.push(t(0, 0, 1, 0, 2, 1)); // payload key 0
        tr.push(t(1, 0, 1, 1, 2, 1)); // payload key 1, received later: ok
        assert!(tr.check_order_preserving(2, |p| Some(*p)).is_ok());

        // Inject an out-of-order receipt: key 5 then key 1.
        let mut bad = Trace::new();
        bad.push(t(5, 0, 1, 0, 2, 1));
        bad.push(t(1, 0, 1, 1, 2, 1));
        assert_eq!(bad.check_order_preserving(2, |p| Some(*p)), Err(ProcId(1)));
    }

    #[test]
    fn port_busy_times() {
        let mut tr = Trace::new();
        tr.push(t(0, 0, 1, 0, 2, 1));
        tr.push(t(1, 0, 2, 1, 2, 1));
        tr.push(t(2, 1, 2, 2, 2, 1));
        let busy = tr.port_busy_times(3);
        assert_eq!(busy[0], (Time::from_int(2), Time::ZERO));
        assert_eq!(busy[1], (Time::ONE, Time::ONE));
        assert_eq!(busy[2], (Time::ZERO, Time::from_int(2)));
    }

    #[test]
    fn csv_export() {
        let mut tr = Trace::new();
        tr.push(t(0, 0, 1, 0, 5, 2));
        tr.push(t(1, 0, 2, 1, 5, 2));
        let csv = tr.to_csv(|p| format!("m{p}"));
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("seq,src,dst,"));
        assert!(lines[1].contains(",5/2,"), "{}", lines[1]);
        assert!(lines[1].ends_with(",false,m0"));
        assert!(lines[2].contains("3.500000"));
    }

    #[test]
    fn queued_detection() {
        let mut x = t(0, 0, 1, 0, 3, 1);
        assert!(!x.was_queued());
        x.recv_start = x.arrival + Time::ONE;
        assert!(x.was_queued());
    }
}
