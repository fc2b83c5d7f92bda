//! The threaded postal-model executor.
//!
//! Where `postal-sim` *simulates* MPS(n, λ) on a virtual clock, this
//! executor *realizes* it: every processor is an OS thread pair
//! communicating over channels, with the postal-model costs enforced by
//! wall-clock sleeps scaled by a configurable unit duration:
//!
//! * each processor has an independent **output port thread** that
//!   serializes its sends at one unit of wall time apiece (send-and-
//!   forget: the issuing callback never blocks);
//! * a message "travels" until `send_start + λ` units before the
//!   receiving thread may process it;
//! * the **input port** serializes receives at one unit apiece (FIFO
//!   queued, like the simulator's queued mode).
//!
//! The same [`Program`]s that run on the simulator run here unchanged —
//! this is the workspace's demonstration that the paper's event-driven
//! algorithms are directly implementable on a real concurrent
//! message-passing substrate, not just on a scheduler's whiteboard.
//! Timing is approximate (OS jitter), so tests assert correctness exactly
//! and timing within tolerances.
//!
//! Termination uses a global outstanding-work counter: every queued send,
//! pending wake-up, and running callback holds a token; threads exit when
//! the count reaches zero, which (tokens being released only after any
//! tokens they spawn are registered) implies global quiescence.

use crate::clock::{units_to_time, UnitClock};
use postal_model::{Latency, Time};
use postal_obs::{ObsEvent, Recorder};
use postal_sim::{Context, ProcId, Program};
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A failure of the threaded substrate itself (as opposed to a timing
/// anomaly, which the reports expose as data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A worker thread exited before global quiescence — in practice, a
    /// program callback panicked, so the run can never drain its
    /// outstanding-work counter. The model checker classifies this as a
    /// deadlock of the remaining processors (lint code `P0008`).
    WorkerExited {
        /// The processor whose thread died first (lowest index if
        /// several).
        proc: u32,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::WorkerExited { proc } => {
                write!(f, "processor thread p{proc} exited before quiescence")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Sets the shared abort flag if its thread unwinds, so sibling
/// processor threads stop waiting for an outstanding-work count that can
/// no longer reach zero.
struct AbortGuard(Arc<AtomicBool>);

impl Drop for AbortGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

/// A message in flight between threads.
struct TimedMsg<P> {
    seq: u64,
    from: ProcId,
    payload: P,
    /// Model time at which the receive completes (send_start + λ).
    deliver_at_units: f64,
}

/// A send request queued to a processor's output-port thread.
struct SendRequest<P> {
    dst: ProcId,
    payload: P,
}

/// One completed delivery, as observed by the receiving thread.
#[derive(Debug, Clone)]
pub struct Delivery<P> {
    /// Receiving processor.
    pub to: ProcId,
    /// Sending processor.
    pub from: ProcId,
    /// The payload.
    pub payload: P,
    /// Model units (wall-derived) at which the receive completed.
    pub at_units: f64,
}

/// The result of a threaded run.
#[derive(Debug)]
pub struct ThreadedReport<P> {
    /// Every delivery, globally sorted by completion time.
    pub deliveries: Vec<Delivery<P>>,
    /// Model units at which the last receive completed (0 if none).
    pub elapsed_units: f64,
    /// The run's completion on the virtual clock, quantized to the
    /// runtime's 1/1024-unit lattice — the executor's own answer to "when
    /// did the last receive finish", so callers compare against model
    /// predictions without re-deriving it from `deliveries`.
    pub completion: Time,
}

impl<P> ThreadedReport<P> {
    /// Deliveries received by processor `p`, in time order.
    pub fn received_by(&self, p: ProcId) -> impl Iterator<Item = &Delivery<P>> {
        self.deliveries.iter().filter(move |d| d.to == p)
    }
}

/// Wall-clock configuration for a threaded run.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Wall duration of one model unit. Smaller is faster but noisier;
    /// the default of 2 ms keeps a 10-unit broadcast around 20 ms with
    /// low relative jitter.
    pub unit: Duration,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            unit: Duration::from_millis(2),
        }
    }
}

/// The context handed to programs on the threaded substrate.
struct ThreadCtx<'a, P> {
    me: ProcId,
    n: usize,
    clock: UnitClock,
    out_queue: &'a SyncSender<SendRequest<P>>,
    wakes: &'a mut BinaryHeap<std::cmp::Reverse<OrderedF64>>,
    outstanding: &'a AtomicI64,
}

/// f64 wrapper with total order for the wake heap (wake times are always
/// finite).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);
impl Eq for OrderedF64 {}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl<P> Context<P> for ThreadCtx<'_, P> {
    fn me(&self) -> ProcId {
        self.me
    }

    fn n(&self) -> usize {
        self.n
    }

    fn now(&self) -> Time {
        self.clock.now_time()
    }

    fn send(&mut self, dst: ProcId, payload: P) {
        assert!(dst.index() < self.n, "send out of range");
        assert!(dst != self.me, "the postal model has no self-sends");
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        self.out_queue
            .send(SendRequest { dst, payload })
            .expect("output port thread lives as long as its processor");
    }

    fn wake_at(&mut self, t: Time) {
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        self.wakes.push(std::cmp::Reverse(OrderedF64(t.to_f64())));
    }
}

/// Runs `programs` (one per processor) on real threads under latency λ.
///
/// Returns after global quiescence. Panics if a program panics.
///
/// # Panics
/// Panics if `programs` is empty.
pub fn run_threaded<P>(
    latency: Latency,
    config: RuntimeConfig,
    programs: Vec<Box<dyn Program<P> + Send>>,
) -> ThreadedReport<P>
where
    P: Clone + Send + 'static,
{
    match try_run_threaded(latency, config, programs) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`run_threaded`]: a worker thread dying early (a panicking
/// program callback) is reported as [`RuntimeError::WorkerExited`]
/// instead of aborting the caller, and the surviving threads are
/// signalled to stop rather than spinning on an outstanding-work count
/// that can no longer drain.
///
/// # Errors
/// [`RuntimeError::WorkerExited`] if any processor or port thread
/// panicked.
///
/// # Panics
/// Panics if `programs` is empty.
pub fn try_run_threaded<P>(
    latency: Latency,
    config: RuntimeConfig,
    programs: Vec<Box<dyn Program<P> + Send>>,
) -> Result<ThreadedReport<P>, RuntimeError>
where
    P: Clone + Send + 'static,
{
    run_threaded_inner(latency, config, programs, None)
}

/// [`run_threaded`] with every send and receive additionally streamed
/// into an observability recorder from the port and processor threads
/// (same event vocabulary as the simulators; timestamps are wall-derived
/// and quantized to the 1/1024-unit virtual-clock lattice).
///
/// # Panics
/// As [`run_threaded`].
pub fn run_threaded_observed<P>(
    latency: Latency,
    config: RuntimeConfig,
    programs: Vec<Box<dyn Program<P> + Send>>,
    recorder: Arc<dyn Recorder>,
) -> ThreadedReport<P>
where
    P: Clone + Send + 'static,
{
    match try_run_threaded_observed(latency, config, programs, recorder) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`run_threaded_observed`]; see [`try_run_threaded`].
///
/// # Errors
/// [`RuntimeError::WorkerExited`] if any processor or port thread
/// panicked.
///
/// # Panics
/// Panics if `programs` is empty.
pub fn try_run_threaded_observed<P>(
    latency: Latency,
    config: RuntimeConfig,
    programs: Vec<Box<dyn Program<P> + Send>>,
    recorder: Arc<dyn Recorder>,
) -> Result<ThreadedReport<P>, RuntimeError>
where
    P: Clone + Send + 'static,
{
    run_threaded_inner(latency, config, programs, Some(recorder))
}

fn run_threaded_inner<P>(
    latency: Latency,
    config: RuntimeConfig,
    programs: Vec<Box<dyn Program<P> + Send>>,
    recorder: Option<Arc<dyn Recorder>>,
) -> Result<ThreadedReport<P>, RuntimeError>
where
    P: Clone + Send + 'static,
{
    let n = programs.len();
    assert!(n >= 1, "at least one processor required");
    let lam = latency.to_f64();
    let epoch = Instant::now() + Duration::from_millis(5); // sync start
    let clock = UnitClock::new(epoch, config.unit);

    // Inboxes: one per processor.
    let mut inbox_tx: Vec<Sender<TimedMsg<P>>> = Vec::with_capacity(n);
    let mut inbox_rx: Vec<Option<Receiver<TimedMsg<P>>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        inbox_tx.push(tx);
        inbox_rx.push(Some(rx));
    }

    // One startup token per processor, released after its on_start.
    let outstanding = Arc::new(AtomicI64::new(n as i64));
    // Set when any worker unwinds: survivors must stop waiting for a
    // count that can no longer reach zero.
    let aborted = Arc::new(AtomicBool::new(false));
    // Global send sequence numbers, claimed by port threads at send start.
    let send_seq = Arc::new(AtomicU64::new(0));

    let mut proc_handles = Vec::with_capacity(n);
    let mut port_handles = Vec::with_capacity(n);

    for (i, mut program) in programs.into_iter().enumerate() {
        let me = ProcId::from(i);
        let inbox = inbox_rx[i].take().expect("each inbox taken once");
        let all_inboxes = inbox_tx.clone();
        let outstanding = Arc::clone(&outstanding);

        // Output-port thread: serialize sends at 1 unit each. The
        // bounded queue backpressures runaway senders.
        let (port_tx, port_rx) = sync_channel::<SendRequest<P>>(1024);
        let port_clock = clock;
        let port_recorder = recorder.clone();
        let port_seq = Arc::clone(&send_seq);
        port_handles.push(std::thread::spawn(move || {
            let mut port_free = 0.0f64;
            while let Ok(req) = port_rx.recv() {
                let send_start = port_clock.now_units().max(port_free);
                port_free = send_start + 1.0;
                let seq = port_seq.fetch_add(1, Ordering::SeqCst);
                if let Some(r) = &port_recorder {
                    let start = units_to_time(send_start);
                    r.record(ObsEvent::Send {
                        seq,
                        src: me.0,
                        dst: req.dst.0,
                        start,
                        finish: start + Time::ONE,
                    });
                }
                // Busy sending for one unit (send-and-forget: the
                // *program* already moved on; only the port blocks).
                port_clock.sleep_until_units(port_free);
                let msg = TimedMsg {
                    seq,
                    from: me,
                    payload: req.payload,
                    deliver_at_units: send_start + lam,
                };
                // The receiver thread outlives all in-flight messages
                // (it exits only at global quiescence), but shutdown
                // racing is tolerated: a disconnected inbox means the
                // run is already over.
                let _ = all_inboxes[req.dst.index()].send(msg);
            }
        }));

        let proc_clock = clock;
        let proc_recorder = recorder.clone();
        let proc_aborted = Arc::clone(&aborted);
        proc_handles.push(std::thread::spawn(move || {
            let _guard = AbortGuard(Arc::clone(&proc_aborted));
            let mut deliveries: Vec<Delivery<P>> = Vec::new();
            let mut wakes: BinaryHeap<std::cmp::Reverse<OrderedF64>> = BinaryHeap::new();
            let mut in_port_free = 0.0f64;

            // Wait for the shared epoch, then run on_start.
            proc_clock.sleep_until_units(0.0);
            {
                let mut ctx = ThreadCtx {
                    me,
                    n,
                    clock: proc_clock,
                    out_queue: &port_tx,
                    wakes: &mut wakes,
                    outstanding: &outstanding,
                };
                program.on_start(&mut ctx);
            }
            outstanding.fetch_sub(1, Ordering::SeqCst); // startup token

            loop {
                // Fire due wake-ups.
                while let Some(&std::cmp::Reverse(OrderedF64(w))) = wakes.peek() {
                    if proc_clock.now_units() + 1e-9 < w {
                        break;
                    }
                    wakes.pop();
                    if let Some(r) = &proc_recorder {
                        r.record(ObsEvent::Wake {
                            proc: me.0,
                            at: units_to_time(w),
                        });
                    }
                    let mut ctx = ThreadCtx {
                        me,
                        n,
                        clock: proc_clock,
                        out_queue: &port_tx,
                        wakes: &mut wakes,
                        outstanding: &outstanding,
                    };
                    program.on_wake(&mut ctx);
                    outstanding.fetch_sub(1, Ordering::SeqCst);
                }

                // Poll the inbox until the next wake (or briefly).
                let next_wake_in = wakes
                    .peek()
                    .map(|&std::cmp::Reverse(OrderedF64(w))| {
                        ((w - proc_clock.now_units()).max(0.0)) * proc_clock.unit().as_secs_f64()
                    })
                    .unwrap_or(f64::INFINITY);
                let timeout = Duration::from_secs_f64(next_wake_in.clamp(0.000_05, 0.001));
                match inbox.recv_timeout(timeout) {
                    Ok(msg) => {
                        // Input port: FIFO, one unit per receive, never
                        // earlier than the model delivery time.
                        let recv_finish = msg.deliver_at_units.max(in_port_free + 1.0);
                        let queued = recv_finish > msg.deliver_at_units + 1e-9;
                        in_port_free = recv_finish;
                        proc_clock.sleep_until_units(recv_finish);
                        if let Some(r) = &proc_recorder {
                            let finish = units_to_time(recv_finish);
                            r.record(ObsEvent::Recv {
                                seq: msg.seq,
                                src: msg.from.0,
                                dst: me.0,
                                arrival: units_to_time(msg.deliver_at_units - 1.0),
                                start: finish - Time::ONE,
                                finish,
                                queued,
                            });
                        }
                        deliveries.push(Delivery {
                            to: me,
                            from: msg.from,
                            payload: msg.payload.clone(),
                            at_units: recv_finish,
                        });
                        let mut ctx = ThreadCtx {
                            me,
                            n,
                            clock: proc_clock,
                            out_queue: &port_tx,
                            wakes: &mut wakes,
                            outstanding: &outstanding,
                        };
                        program.on_receive(&mut ctx, msg.from, msg.payload);
                        outstanding.fetch_sub(1, Ordering::SeqCst);
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        if proc_aborted.load(Ordering::SeqCst) {
                            break;
                        }
                        if wakes.is_empty() && outstanding.load(Ordering::SeqCst) == 0 {
                            break;
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            deliveries
        }));
    }
    // Drop our clones so port threads can observe disconnection later.
    drop(inbox_tx);

    let mut deliveries: Vec<Delivery<P>> = Vec::new();
    let mut first_dead: Option<u32> = None;
    for (i, h) in proc_handles.into_iter().enumerate() {
        match h.join() {
            Ok(d) => deliveries.extend(d),
            Err(_) => {
                if first_dead.is_none() {
                    first_dead = Some(i as u32);
                }
            }
        }
    }
    for (i, h) in port_handles.into_iter().enumerate() {
        if h.join().is_err() && first_dead.is_none() {
            first_dead = Some(i as u32);
        }
    }
    if let Some(proc) = first_dead {
        return Err(RuntimeError::WorkerExited { proc });
    }
    deliveries.sort_by(|a, b| a.at_units.total_cmp(&b.at_units));
    let elapsed_units = deliveries.last().map(|d| d.at_units).unwrap_or(0.0);
    Ok(ThreadedReport {
        deliveries,
        elapsed_units,
        completion: units_to_time(elapsed_units),
    })
}

/// Builds one boxed `Send` program per processor from a closure.
pub fn send_programs_from<P, F>(n: usize, mut f: F) -> Vec<Box<dyn Program<P> + Send>>
where
    F: FnMut(ProcId) -> Box<dyn Program<P> + Send>,
{
    (0..n).map(|i| f(ProcId::from(i))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_algos::bcast::{BcastPayload, BcastProgram};
    use postal_algos::repeat::{Pacing, RepeatProgram};
    use postal_algos::FibTable;
    use postal_model::runtimes;

    /// BCAST programs for MPS(n, λ) rooted at `p_0`, sharing one table.
    fn bcast_programs(n: usize, latency: Latency) -> Vec<Box<dyn Program<BcastPayload> + Send>> {
        let table = Arc::new(FibTable::new(latency, n as u64));
        send_programs_from(n, |id| {
            Box::new(BcastProgram::new(
                Arc::clone(&table),
                (id == ProcId::ROOT).then_some(n as u64),
            )) as Box<dyn Program<BcastPayload> + Send>
        })
    }

    fn bcast_threaded(n: usize, latency: Latency) -> ThreadedReport<BcastPayload> {
        run_threaded(
            latency,
            RuntimeConfig::default(),
            bcast_programs(n, latency),
        )
    }

    #[test]
    fn bcast_delivers_to_every_thread() {
        let n = 14;
        let report = bcast_threaded(n, Latency::from_ratio(5, 2));
        for i in 1..n {
            assert_eq!(
                report.received_by(ProcId::from(i)).count(),
                1,
                "p{i} deliveries"
            );
        }
        assert_eq!(report.deliveries.len(), n - 1);
    }

    #[test]
    fn bcast_wall_time_tracks_model_time() {
        // Correct lower bound: sleeps enforce model minimums. Loose
        // upper bound: OS jitter.
        let n = 14;
        let lam = Latency::from_ratio(5, 2);
        let model = runtimes::bcast_time(n as u128, lam).to_f64(); // 7.5
        let report = bcast_threaded(n, lam);
        assert!(
            report.elapsed_units >= model - 0.01,
            "finished impossibly fast: {} < {model}",
            report.elapsed_units
        );
        assert!(
            report.elapsed_units < model * 3.0 + 5.0,
            "far too slow: {} vs {model}",
            report.elapsed_units
        );
    }

    /// Converts a threaded report's deliveries into race-detector
    /// flights (send instants reconstructed as `recv − λ`).
    fn flights_of<P>(report: &ThreadedReport<P>, latency: Latency) -> Vec<postal_verify::Flight> {
        postal_verify::flights_from_deliveries(
            report
                .deliveries
                .iter()
                .map(|d| (d.from.0, d.to.0, d.at_units)),
            latency,
        )
    }

    #[test]
    fn bcast_wall_trace_has_no_delivery_races() {
        // A broadcast delivers exactly once per processor: nothing to
        // reorder, so the happens-before detector must stay silent even
        // on jittery wall-clock timings.
        let n = 14;
        let lam = Latency::from_ratio(5, 2);
        let report = bcast_threaded(n, lam);
        let races = postal_verify::detect_races(n as u32, &flights_of(&report, lam));
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn independent_senders_race_on_the_wall_clock() {
        // p1 and p2 each fire one message at p0 at start: the arrival
        // order is whatever the OS scheduler made of it, and the
        // detector must flag it as not causally forced.
        struct FireAtRoot;
        impl Program<u32> for FireAtRoot {
            fn on_start(&mut self, ctx: &mut dyn Context<u32>) {
                if ctx.me() != ProcId::ROOT {
                    ctx.send(ProcId::ROOT, ctx.me().0);
                }
            }
            fn on_receive(&mut self, _ctx: &mut dyn Context<u32>, _from: ProcId, _p: u32) {}
        }
        let lam = Latency::from_int(1);
        let programs =
            send_programs_from(3, |_| Box::new(FireAtRoot) as Box<dyn Program<u32> + Send>);
        let report = run_threaded(lam, RuntimeConfig::default(), programs);
        assert_eq!(report.deliveries.len(), 2);
        let races = postal_verify::detect_races(3, &flights_of(&report, lam));
        assert_eq!(races.len(), 1, "{races:?}");
        assert_eq!(races[0].dst, 0);
        assert!(
            races[0].message.contains("not causally forced"),
            "{}",
            races[0].message
        );
    }

    #[test]
    fn repeat_preserves_order_on_threads() {
        let (n, m) = (8usize, 4u32);
        let lam = Latency::from_int(2);
        let table = Arc::new(FibTable::new(lam, n as u64));
        let programs = send_programs_from(n, |id| {
            Box::new(RepeatProgram::new(
                Arc::clone(&table),
                Pacing::Greedy,
                (id == ProcId::ROOT).then_some((n as u64, m)),
            )) as Box<dyn Program<postal_algos::MultiPacket> + Send>
        });
        let report = run_threaded(lam, RuntimeConfig::default(), programs);
        for i in 1..n {
            let msgs: Vec<u32> = report
                .received_by(ProcId::from(i))
                .map(|d| d.payload.msg)
                .collect();
            assert_eq!(msgs.len(), m as usize, "p{i}");
            let mut sorted = msgs.clone();
            sorted.sort_unstable();
            assert_eq!(msgs, sorted, "p{i} out of order: {msgs:?}");
        }
    }

    #[test]
    fn output_port_paces_bursts_at_one_unit_each() {
        // A root that fires 8 sends in one callback: wall-clock send
        // pacing must be at least one unit apart at the receivers.
        struct Burst;
        impl Program<BcastPayload> for Burst {
            fn on_start(&mut self, ctx: &mut dyn Context<BcastPayload>) {
                for _ in 0..8 {
                    ctx.send(ProcId(1), BcastPayload { range_size: 1 });
                }
            }
            fn on_receive(
                &mut self,
                _: &mut dyn Context<BcastPayload>,
                _: ProcId,
                _: BcastPayload,
            ) {
            }
        }
        use postal_sim::Context;
        let lam = Latency::from_int(2);
        let programs: Vec<Box<dyn Program<BcastPayload> + Send>> =
            vec![Box::new(Burst), Box::new(postal_sim::Idle)];
        let report = run_threaded(
            lam,
            RuntimeConfig {
                unit: Duration::from_millis(2),
            },
            programs,
        );
        assert_eq!(report.deliveries.len(), 8);
        let times: Vec<f64> = report.received_by(ProcId(1)).map(|d| d.at_units).collect();
        for w in times.windows(2) {
            assert!(
                w[1] - w[0] >= 0.95,
                "receives too close: {:.3} then {:.3}",
                w[0],
                w[1]
            );
        }
        // The 8th delivery cannot finish before 7 + λ = 9 units.
        assert!(
            times[7] >= 9.0 - 0.05,
            "finished impossibly fast: {}",
            times[7]
        );
    }

    #[test]
    fn observed_run_through_sharded_ring_accounts_for_every_event() {
        // Real threads hammer the ring concurrently; the accounting
        // invariant must hold regardless of interleaving, and the
        // drained log must stamp its own completeness.
        let n = 8;
        let lam = Latency::from_int(2);
        let rec = Arc::new(postal_obs::RingRecorder::with_spec(
            4,
            postal_obs::SampleSpec::tail(1),
        ));
        let programs = bcast_programs(n, lam);
        let report = run_threaded_observed(
            lam,
            RuntimeConfig::default(),
            programs,
            Arc::clone(&rec) as Arc<dyn postal_obs::Recorder>,
        );
        assert_eq!(report.deliveries.len(), n - 1);
        let ring = Arc::try_unwrap(rec).expect("all threads joined");
        assert_eq!(
            ring.recorded_events() + ring.dropped_events(),
            ring.attempted_events()
        );
        let dropped = ring.dropped_events();
        let log = ring.into_log(postal_obs::RunMeta::new("threaded", n as u32).latency(lam));
        assert_eq!(log.meta().dropped_events, Some(dropped));
        assert_eq!(log.meta().sample.as_deref(), Some("tail"));
    }

    #[test]
    fn completion_comes_from_the_virtual_clock() {
        let n = 8;
        let lam = Latency::from_int(2);
        let model = runtimes::bcast_time(n as u128, lam).to_f64();
        let report = bcast_threaded(n, lam);
        // The report's Time completion is the quantized elapsed_units —
        // no caller-side recomputation from the delivery list needed.
        assert_eq!(
            report.completion,
            crate::clock::units_to_time(report.elapsed_units)
        );
        assert!(report.completion.to_f64() >= model - 0.01);
    }

    #[test]
    fn observed_run_records_port_spans() {
        let n = 6;
        let lam = Latency::from_ratio(5, 2);
        let rec = Arc::new(postal_obs::MemoryRecorder::new());
        let programs = bcast_programs(n, lam);
        let report = run_threaded_observed(
            lam,
            RuntimeConfig::default(),
            programs,
            Arc::clone(&rec) as Arc<dyn postal_obs::Recorder>,
        );
        let log = Arc::try_unwrap(rec)
            .expect("all threads joined")
            .into_log(postal_obs::RunMeta::new("threaded", n as u32).latency(lam));
        // One send and one receive per delivery, nothing lost in transit.
        assert_eq!(log.deliveries(), report.deliveries.len());
        assert_eq!(log.deliveries(), n - 1);
        assert_eq!(
            log.events().iter().filter(|e| e.kind() == "send").count(),
            n - 1
        );
        // Wall jitter aside, the log's completion is the report's.
        assert_eq!(log.completion_time(), report.completion);
        // Every recv is ≥ λ after its matching send started.
        let sends: Vec<(u64, Time)> = log
            .events()
            .iter()
            .filter_map(|e| match *e {
                postal_obs::ObsEvent::Send { seq, start, .. } => Some((seq, start)),
                _ => None,
            })
            .collect();
        for e in log.events() {
            if let postal_obs::ObsEvent::Recv { seq, finish, .. } = *e {
                let (_, start) = sends.iter().find(|&&(q, _)| q == seq).copied().unwrap();
                assert!(
                    (finish - start).to_f64() >= lam.to_f64() - 0.01,
                    "recv #{seq} finished impossibly fast"
                );
            }
        }
    }

    #[test]
    fn panicking_program_reports_worker_exited() {
        // p1 dies in its receive callback. The run must neither abort the
        // caller nor hang the surviving threads on the outstanding-work
        // counter; it reports which processor died.
        struct Fragile;
        impl Program<BcastPayload> for Fragile {
            fn on_start(&mut self, ctx: &mut dyn Context<BcastPayload>) {
                if ctx.me() == ProcId::ROOT {
                    ctx.send(ProcId(1), BcastPayload { range_size: 1 });
                    ctx.send(ProcId(2), BcastPayload { range_size: 1 });
                }
            }
            fn on_receive(
                &mut self,
                ctx: &mut dyn Context<BcastPayload>,
                _: ProcId,
                _: BcastPayload,
            ) {
                assert!(ctx.me() != ProcId(1), "injected fault");
            }
        }
        use postal_sim::Context;
        let programs: Vec<Box<dyn Program<BcastPayload> + Send>> = send_programs_from(3, |_| {
            Box::new(Fragile) as Box<dyn Program<BcastPayload> + Send>
        });
        let result = try_run_threaded(Latency::from_int(2), RuntimeConfig::default(), programs);
        assert_eq!(result.unwrap_err(), RuntimeError::WorkerExited { proc: 1 });
    }

    #[test]
    fn empty_system_terminates() {
        let programs = bcast_programs(1, Latency::TELEPHONE);
        let report = run_threaded(Latency::TELEPHONE, RuntimeConfig::default(), programs);
        assert_eq!(report.deliveries.len(), 0);
        assert_eq!(report.elapsed_units, 0.0);
    }
}
