//! The sharded ring-buffer recorder: bounded-memory tracing that stays
//! off the hot path.
//!
//! [`RingRecorder`] is the scale successor to
//! [`crate::MemoryRecorder`]: instead of one mutex-guarded, unbounded
//! `Vec` shared by every thread, events are routed by processor id to
//! one of `S` **shards**, each a fixed-capacity ring. A `record` costs:
//!
//! 1. one relaxed `fetch_add` on the shard's attempt cursor (the
//!    rate pre-sampler, the head-overflow test and drop accounting hang
//!    off this single atomic sequence — a rate-sampled-out event, and
//!    one a full head shard drops, touches nothing else);
//! 2. for kept events only, one *per-shard* mutex acquisition around a
//!    slot write. Threads recording for different shards never contend,
//!    and there is no global lock anywhere on the path.
//!
//! Memory is `S × capacity` events, fixed at construction; overflow
//! follows the configured [`SampleSpec`] (head-keep or tail-overwrite).
//!
//! A head shard keeps the kept attempts whose ordinal `k / every` (for
//! attempt index `k`) is below `capacity`, and drops every later one
//! before it would lock. On one thread those are the first `capacity`
//! events the shard kept. Under contention they are still the first
//! `capacity` kept attempt *indices*, whatever order the threads then
//! take the mutex in: a thread that claimed an early index keeps its
//! slot even if a later index reaches the lock first.
//!
//! ## Honest drop accounting
//!
//! Sampling only works if it cannot silently bias downstream analysis.
//! Every event the recorder rejects — rate-sampled, head-overflowed or
//! tail-overwritten — increments its shard's `dropped` counter, and
//! `recorded + dropped == attempted` is a hard invariant (tested under
//! an 8-thread hammer). [`RingRecorder::into_log`] stamps the totals
//! and the sampling spec into [`RunMeta`], from which they surface in
//! the JSONL header, the Prometheus exposition, the Chrome trace
//! metadata and `postal-cli stats`; `postal-verify` uses the same
//! marker to downgrade coverage lints that a partial trace cannot
//! support (see `docs/observability.md`).

use crate::event::ObsEvent;
use crate::log::{ObsLog, RunMeta};
use crate::recorder::Recorder;
use crate::sample::{SampleMode, SampleSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default shard count (rounded up to a power of two).
pub const DEFAULT_SHARDS: usize = 16;

/// Default per-shard ring capacity.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// One shard: an attempt cursor, a drop counter, and a fixed ring.
#[derive(Debug)]
struct Shard {
    /// Events ever routed here (the rate pre-sampler indexes off this).
    attempted: AtomicU64,
    /// Events rejected: rate-sampled, head-overflowed or overwritten.
    dropped: AtomicU64,
    ring: Mutex<RingBuf>,
}

/// The fixed-capacity ring proper. `head` is the oldest slot once the
/// ring has wrapped (tail mode only).
#[derive(Debug)]
struct RingBuf {
    slots: Vec<ObsEvent>,
    head: usize,
}

/// Per-shard counters, for dashboards and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Events routed to this shard.
    pub attempted: u64,
    /// Events currently held in the ring.
    pub recorded: u64,
    /// Events rejected or overwritten.
    pub dropped: u64,
}

/// A sharded, sampling, fixed-memory event recorder.
#[derive(Debug)]
pub struct RingRecorder {
    shards: Vec<Shard>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: u32,
    capacity: usize,
    spec: SampleSpec,
}

impl Default for RingRecorder {
    fn default() -> RingRecorder {
        RingRecorder::new(DEFAULT_CAPACITY)
    }
}

impl RingRecorder {
    /// A recorder with [`DEFAULT_SHARDS`] shards of `capacity` events
    /// each and no rate sampling (head overflow).
    pub fn new(capacity: usize) -> RingRecorder {
        RingRecorder::with_config(capacity, DEFAULT_SHARDS, SampleSpec::all())
    }

    /// Full configuration: per-shard `capacity`, shard count (rounded
    /// up to a power of two, min 1) and sampling policy.
    pub fn with_config(capacity: usize, shards: usize, spec: SampleSpec) -> RingRecorder {
        let shards = shards.max(1).next_power_of_two();
        let capacity = capacity.max(1);
        RingRecorder {
            shards: (0..shards)
                .map(|_| Shard {
                    attempted: AtomicU64::new(0),
                    dropped: AtomicU64::new(0),
                    ring: Mutex::new(RingBuf {
                        slots: Vec::with_capacity(capacity),
                        head: 0,
                    }),
                })
                .collect(),
            mask: (shards - 1) as u32,
            capacity,
            spec,
        }
    }

    /// Same configuration, different sampling policy.
    pub fn with_spec(capacity: usize, spec: SampleSpec) -> RingRecorder {
        RingRecorder::with_config(capacity, DEFAULT_SHARDS, spec)
    }

    /// The sampling policy in force.
    pub fn spec(&self) -> SampleSpec {
        self.spec
    }

    /// Per-shard ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Events offered to the recorder so far.
    pub fn attempted_events(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.attempted.load(Ordering::Relaxed))
            .sum()
    }

    /// Events rejected so far (rate-sampled, overflowed, overwritten).
    pub fn dropped_events(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.dropped.load(Ordering::Relaxed))
            .sum()
    }

    /// Events currently held (`attempted − dropped`).
    pub fn recorded_events(&self) -> u64 {
        self.attempted_events() - self.dropped_events()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded_events() == 0
    }

    /// Counters for every shard, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let attempted = s.attempted.load(Ordering::Relaxed);
                let dropped = s.dropped.load(Ordering::Relaxed);
                ShardStats {
                    attempted,
                    dropped,
                    recorded: attempted - dropped,
                }
            })
            .collect()
    }

    /// Drains the recorder into an [`ObsLog`] sorted like
    /// [`crate::MemoryRecorder::into_log`], stamping
    /// [`RunMeta::dropped_events`] and [`RunMeta::sample`] so the log
    /// carries its own completeness accounting.
    pub fn into_log(self, meta: RunMeta) -> ObsLog {
        let mut meta = meta
            .dropped(self.dropped_events())
            .sampled(&self.spec.to_string());
        meta.ring_capacity = Some(self.capacity as u64);
        let mut events = Vec::with_capacity(self.recorded_events() as usize);
        for shard in self.shards {
            let ring = shard.ring.into_inner().unwrap_or_else(|e| e.into_inner());
            let head = ring.head;
            let (newer, older) = ring.slots.split_at(head);
            // Oldest-first within the shard: the slots from `head` on
            // predate the wrapped slots before it.
            events.extend_from_slice(older);
            events.extend_from_slice(newer);
        }
        ObsLog::sorted(meta, events)
    }

    /// Copies the current contents into an [`ObsLog`] without consuming
    /// the recorder (counters keep advancing afterwards).
    pub fn snapshot(&self, meta: RunMeta) -> ObsLog {
        let mut meta = meta
            .dropped(self.dropped_events())
            .sampled(&self.spec.to_string());
        meta.ring_capacity = Some(self.capacity as u64);
        let mut events = Vec::with_capacity(self.recorded_events() as usize);
        for shard in &self.shards {
            let ring = shard.ring.lock().unwrap_or_else(|e| e.into_inner());
            let (newer, older) = ring.slots.split_at(ring.head);
            events.extend_from_slice(older);
            events.extend_from_slice(newer);
        }
        ObsLog::sorted(meta, events)
    }
}

impl Recorder for RingRecorder {
    fn record(&self, event: ObsEvent) {
        let shard = &self.shards[(event.proc() & self.mask) as usize];
        // The one atomic sequence every record performs: claim an
        // attempt index; the rate pre-sampler and a full head key off it.
        let k = shard.attempted.fetch_add(1, Ordering::Relaxed);
        let head_full = self.spec.mode == SampleMode::Head
            && k / self.spec.every.max(1) >= self.capacity as u64;
        if !self.spec.keeps(k) || head_full {
            shard.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut ring = shard.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.slots.len() < self.capacity {
            ring.slots.push(event);
            return;
        }
        // Only a tail shard gets here full: the only head attempts that
        // lock are its first `capacity` kept ones.
        let head = ring.head;
        ring.slots[head] = event;
        ring.head = (head + 1) % self.capacity;
        drop(ring);
        shard.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::{Latency, Time};

    fn wake(proc: u32, at: i128) -> ObsEvent {
        ObsEvent::Wake {
            proc,
            at: Time::from_int(at),
        }
    }

    fn meta() -> RunMeta {
        RunMeta::new("test", 8).latency(Latency::from_int(2))
    }

    #[test]
    fn records_and_sorts_like_memory_recorder() {
        let rec = RingRecorder::new(16);
        rec.record(wake(3, 5));
        rec.record(wake(1, 2));
        rec.record(wake(2, 9));
        assert_eq!(rec.recorded_events(), 3);
        assert_eq!(rec.dropped_events(), 0);
        let log = rec.into_log(meta());
        let times: Vec<Time> = log.events().iter().map(|e| e.at()).collect();
        assert_eq!(
            times,
            vec![Time::from_int(2), Time::from_int(5), Time::from_int(9)]
        );
        assert_eq!(log.meta().dropped_events, Some(0));
        assert_eq!(log.meta().sample.as_deref(), Some("head"));
        assert_eq!(log.meta().ring_capacity, Some(16));
    }

    #[test]
    fn head_mode_keeps_the_first_events() {
        // One shard so capacity applies globally.
        let rec = RingRecorder::with_config(4, 1, SampleSpec::all());
        for i in 0..10 {
            rec.record(wake(0, i));
        }
        assert_eq!(rec.attempted_events(), 10);
        assert_eq!(rec.recorded_events(), 4);
        assert_eq!(rec.dropped_events(), 6);
        let log = rec.into_log(meta());
        let times: Vec<i128> = (0..4).collect();
        assert_eq!(
            log.events().iter().map(|e| e.at()).collect::<Vec<_>>(),
            times.into_iter().map(Time::from_int).collect::<Vec<_>>()
        );
        assert_eq!(log.meta().dropped_events, Some(6));
    }

    #[test]
    fn a_full_head_keeps_exactly_the_first_kept_attempts() {
        for every in [1, 3] {
            let rec = RingRecorder::with_config(4, 1, SampleSpec::head(every));
            for i in 0..40 {
                rec.record(wake(0, i));
            }
            assert_eq!(rec.attempted_events(), 40);
            assert_eq!(rec.recorded_events(), 4, "rate {every}");
            assert_eq!(
                rec.recorded_events() + rec.dropped_events(),
                rec.attempted_events()
            );
            let log = rec.into_log(meta());
            let kept: Vec<Time> = (0..4).map(|j| Time::from_int(j * every as i128)).collect();
            assert_eq!(
                log.events().iter().map(|e| e.at()).collect::<Vec<_>>(),
                kept,
                "rate {every}"
            );
        }
    }

    #[test]
    fn tail_mode_keeps_the_most_recent_events() {
        let rec = RingRecorder::with_config(4, 1, SampleSpec::tail(1));
        for i in 0..10 {
            rec.record(wake(0, i));
        }
        assert_eq!(rec.recorded_events(), 4);
        assert_eq!(rec.dropped_events(), 6);
        let log = rec.into_log(meta());
        assert_eq!(
            log.events().iter().map(|e| e.at()).collect::<Vec<_>>(),
            (6..10).map(Time::from_int).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rate_sampling_skips_without_locking() {
        let rec = RingRecorder::with_config(100, 1, SampleSpec::head(4));
        for i in 0..16 {
            rec.record(wake(0, i));
        }
        assert_eq!(rec.recorded_events(), 4);
        assert_eq!(rec.dropped_events(), 12);
        let log = rec.into_log(meta());
        assert_eq!(
            log.events().iter().map(|e| e.at()).collect::<Vec<_>>(),
            [0, 4, 8, 12].map(Time::from_int).to_vec()
        );
    }

    #[test]
    fn events_route_to_shards_by_processor() {
        let rec = RingRecorder::with_config(8, 4, SampleSpec::all());
        for p in 0..8u32 {
            rec.record(wake(p, p as i128));
        }
        let stats = rec.shard_stats();
        assert_eq!(stats.len(), 4);
        // p and p+4 share shard p & 3.
        assert!(stats.iter().all(|s| s.attempted == 2 && s.dropped == 0));
        let total: u64 = stats.iter().map(|s| s.recorded).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn snapshot_does_not_consume() {
        let rec = RingRecorder::new(8);
        rec.record(wake(0, 1));
        let log = rec.snapshot(meta());
        assert_eq!(log.len(), 1);
        rec.record(wake(0, 2));
        assert_eq!(rec.recorded_events(), 2);
    }

    #[test]
    fn accounting_invariant_holds() {
        let rec = RingRecorder::with_config(3, 2, SampleSpec::tail(2));
        for i in 0..100 {
            rec.record(wake((i % 5) as u32, i));
        }
        assert_eq!(
            rec.recorded_events() + rec.dropped_events(),
            rec.attempted_events()
        );
        assert_eq!(rec.attempted_events(), 100);
    }
}
