//! Always-on, low-overhead metrics for the MSCCL runtime and simulator.
//!
//! The runtime interpreter dedicates one OS thread per IR thread block, so
//! a single shared atomic per metric would bounce its cache line between
//! every worker on every instruction. Instead each [`Counter`] and
//! [`Histogram`] is *sharded*: one cache-line-padded slot per worker
//! thread, written with a relaxed `fetch_add` (no contention, no fences on
//! x86), and summed only when a [`Registry::snapshot`] is taken. The
//! simulator reuses the same vocabulary with a single shard and virtual
//! timestamps, which is what lets `msccl profile` compare measured and
//! modeled runs sample-for-sample.
//!
//! Metrics are identified by a name plus a sorted label set, Prometheus
//! style. Registration (name lookup, allocation) happens once at run
//! setup behind a mutex; workers hold `Arc` handles and never touch the
//! registry on the hot path. Snapshots are plain data — deterministically
//! ordered, mergeable, and exportable as JSON or Prometheus text
//! exposition (see [`MetricsSnapshot`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

mod snapshot;

pub use snapshot::{json_escape, HistogramSnapshot, MetricsSnapshot, Sample, SampleValue};

/// The shared metric vocabulary. The runtime, the simulator and the
/// offline trace analyzer all register these exact names, which is what
/// makes their snapshots comparable sample-for-sample: logical counters
/// (bytes, sends, receives per channel) must agree between executors,
/// while time-valued metrics differ only in clock domain (wall vs.
/// virtual nanoseconds).
pub mod names {
    /// Counter, labels `src`/`dst`/`channel`: payload bytes deposited.
    pub const BYTES_SENT: &str = "msccl_bytes_sent_total";
    /// Counter, labels `src`/`dst`/`channel`: payload bytes consumed.
    pub const BYTES_RECEIVED: &str = "msccl_bytes_received_total";
    /// Counter, labels `src`/`dst`/`channel`: tiles deposited.
    pub const SENDS: &str = "msccl_sends_total";
    /// Counter, labels `src`/`dst`/`channel`: tiles consumed.
    pub const RECVS: &str = "msccl_recvs_total";
    /// Counter, no labels: nanoseconds blocked on semaphore waits.
    pub const SEM_WAIT_NS: &str = "msccl_sem_wait_ns_total";
    /// Counter, no labels: nanoseconds blocked on full send FIFOs.
    pub const FIFO_SEND_BLOCK_NS: &str = "msccl_fifo_send_block_ns_total";
    /// Counter, no labels: nanoseconds blocked on empty receive FIFOs.
    pub const FIFO_RECV_BLOCK_NS: &str = "msccl_fifo_recv_block_ns_total";
    /// Gauge, labels `src`/`dst`/`channel`: peak FIFO occupancy (slots).
    pub const FIFO_PEAK_OCCUPANCY: &str = "msccl_fifo_peak_occupancy";
    /// Histogram, label `op`: per-instruction busy latency, nanoseconds.
    /// The live runtime samples observations (one in eight per worker) —
    /// clock reads are the expensive part of its instrumentation — so
    /// the histogram's `count` is below the exact [`INSTRUCTIONS`]
    /// counter; the simulator and trace-derived snapshots record every
    /// instruction, virtual time being free.
    pub const INSTR_LATENCY_NS: &str = "msccl_instr_latency_ns";
    /// Counter, label `op`: instructions completed.
    pub const INSTRUCTIONS: &str = "msccl_instructions_total";
    /// Counter, no labels: fresh tile-buffer allocations (pool misses).
    pub const POOL_ALLOCATED: &str = "msccl_pool_tiles_allocated_total";
    /// Counter, no labels: takes served from recycled buffers (hits).
    pub const POOL_REUSED: &str = "msccl_pool_tiles_reused_total";
    /// Counter, no labels: execution attempts made by the recovery layer.
    pub const RECOVERY_ATTEMPTS: &str = "msccl_recovery_attempts_total";
    /// Counter, no labels: transient failures that triggered a retry.
    pub const RECOVERY_RETRIES: &str = "msccl_recovery_retries_total";
    /// Counter, no labels: switches to the fallback algorithm.
    pub const RECOVERY_FALLBACKS: &str = "msccl_recovery_fallbacks_total";
    /// Counter, no labels: attempts cancelled by a worker failure.
    pub const RECOVERY_CANCELLATIONS: &str = "msccl_recovery_cancellations_total";
    /// Counter, no labels: tasks taken from another worker's deque by the
    /// work-stealing scheduler.
    pub const SCHED_STEALS: &str = "msccl_sched_steals_total";
    /// Counter, no labels: times a worker parked with nothing runnable.
    pub const SCHED_PARKS: &str = "msccl_sched_parks_total";
    /// Gauge, no labels: peak number of simultaneously runnable tasks
    /// (queue depth high-watermark across all deques and the injector).
    pub const SCHED_RUNNABLE_PEAK: &str = "msccl_sched_runnable_peak";
    /// Histogram, no labels: nanoseconds per worker park episode. Read
    /// together with [`SCHED_PARKS`], it distinguishes "parked often"
    /// (many short observations) from "parked long" (few buckets far to
    /// the right) — the two look identical in the bare counter.
    pub const SCHED_PARK_NS: &str = "msccl_sched_park_ns";
    /// Counter, label `tenant`: requests admitted by the service daemon.
    pub const SERVICE_ADMITTED: &str = "msccl_service_admitted_total";
    /// Counter, label `tenant`: admitted requests completed successfully.
    pub const SERVICE_SERVED: &str = "msccl_service_served_total";
    /// Counter, labels `tenant`/`reason`: requests shed at admission
    /// (`rate_limited`, `queue_full`, `draining`).
    pub const SERVICE_SHED: &str = "msccl_service_shed_total";
    /// Counter, label `tenant`: admitted requests that failed in
    /// execution (deadline, fault, verification).
    pub const SERVICE_FAILED: &str = "msccl_service_failed_total";
    /// Counter, no labels: compile-cache hits on admission.
    pub const SERVICE_CACHE_HITS: &str = "msccl_service_cache_hits_total";
    /// Counter, no labels: compile-cache misses (fresh compiles).
    pub const SERVICE_CACHE_MISSES: &str = "msccl_service_cache_misses_total";
    /// Counter, no labels: cache entries evicted by LRU pressure.
    pub const SERVICE_CACHE_EVICTIONS: &str = "msccl_service_cache_evictions_total";
    /// Counter, no labels: execution plans the slots' arenas built — one
    /// per request whose program its slot did not hold a plan for.
    pub const SERVICE_PLAN_BUILDS: &str = "msccl_service_plan_builds_total";
    /// Gauge, no labels: requests queued across all tenants right now.
    pub const SERVICE_QUEUE_DEPTH: &str = "msccl_service_queue_depth";
    /// Gauge, no labels: requests executing right now.
    pub const SERVICE_INFLIGHT: &str = "msccl_service_inflight";
    /// Histogram, no labels: admitted-request end-to-end latency
    /// (queue wait + execution), microseconds.
    pub const SERVICE_LATENCY_US: &str = "msccl_service_latency_us";
}

/// Number of log2 buckets in every [`Histogram`]. Bucket `0` holds the
/// value `0`; bucket `b >= 1` holds values in `[2^(b-1), 2^b)`; the last
/// bucket absorbs everything from `2^(BUCKETS-2)` up.
pub const BUCKETS: usize = 64;

/// Bucket index for a recorded value (see [`BUCKETS`]).
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket, or `None` for the open-ended last
/// bucket (rendered `+Inf` in expositions).
#[must_use]
pub fn bucket_upper_bound(index: usize) -> Option<u64> {
    match index {
        0 => Some(0),
        b if b < BUCKETS - 1 => Some((1u64 << b) - 1),
        _ => None,
    }
}

/// One cache line worth of counter slot, so two workers' shards never
/// share a line. 128 bytes covers adjacent-line prefetchers.
#[repr(align(128))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Monotonic sharded counter. `add` is a relaxed atomic add on the
/// caller's own shard; `value` folds all shards at read time.
pub struct Counter {
    shards: Box<[PaddedU64]>,
}

impl Counter {
    fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| PaddedU64::default()).collect(),
        }
    }

    /// Adds `v` on the given worker shard (wrapped into range, so any
    /// thread index is safe to pass).
    #[inline]
    pub fn add(&self, shard: usize, v: u64) {
        self.shards[shard % self.shards.len()]
            .0
            .fetch_add(v, Ordering::Relaxed);
    }

    /// Adds one on the given worker shard.
    #[inline]
    pub fn inc(&self, shard: usize) {
        self.add(shard, 1);
    }

    /// Sum over all shards. Concurrent adds may or may not be included.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Zeroes every shard. Only meaningful between runs, with no
    /// concurrent writers.
    pub fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }

    /// Zeroes one worker's shard. Safe concurrently with *other* shards'
    /// writers: each worker can reset its own slice at startup while its
    /// peers are already counting.
    pub fn reset_shard(&self, shard: usize) {
        self.shards[shard % self.shards.len()]
            .0
            .store(0, Ordering::Relaxed);
    }
}

/// Last-write or high-watermark value. Unsharded: gauges are updated at
/// instrumentation points that already hold a lock (FIFO enqueue) or are
/// rare (run setup), so a single relaxed atomic is cheap enough.
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Overwrites the gauge.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high watermark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zeroes the gauge. Only meaningful between runs, with no
    /// concurrent writers.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Per-shard histogram state: fixed log2 buckets plus count and sum.
/// Aligned so shards of the same histogram never share a cache line; a
/// shard has a single writer, so its three relaxed adds never contend.
#[repr(align(128))]
struct HistShard {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistShard {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Sharded fixed-bucket log2 histogram (e.g. instruction latency in
/// nanoseconds). Same sharding discipline as [`Counter`].
pub struct Histogram {
    shards: Box<[HistShard]>,
}

impl Histogram {
    fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| HistShard::new()).collect(),
        }
    }

    /// Records one observation on the given worker shard.
    #[inline]
    pub fn record(&self, shard: usize, value: u64) {
        let s = &self.shards[shard % self.shards.len()];
        s.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        s.count.fetch_add(1, Ordering::Relaxed);
        s.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Merges `count` pre-bucketed observations summing to `sum` into
    /// `bucket` on the given shard. This is the bulk-import path for
    /// subsystems that keep their own bucket arrays on the hot path (the
    /// scheduler's park-time buckets) and fold them into the registry
    /// once per run.
    pub fn record_bucketed(&self, shard: usize, bucket: usize, count: u64, sum: u64) {
        let s = &self.shards[shard % self.shards.len()];
        s.buckets[bucket.min(BUCKETS - 1)].fetch_add(count, Ordering::Relaxed);
        s.count.fetch_add(count, Ordering::Relaxed);
        s.sum.fetch_add(sum, Ordering::Relaxed);
    }

    /// Merges a whole bucket array of observations summing to `sum` into
    /// the given shard: the bulk form of [`Histogram::record_bucketed`],
    /// for callers that tally observations in plain integers and fold
    /// them in once (the simulator's per-opcode latencies).
    pub fn merge(&self, shard: usize, buckets: &[u64; BUCKETS], sum: u64) {
        let s = &self.shards[shard % self.shards.len()];
        let mut count = 0;
        for (slot, &n) in s.buckets.iter().zip(buckets) {
            if n > 0 {
                slot.fetch_add(n, Ordering::Relaxed);
                count += n;
            }
        }
        s.count.fetch_add(count, Ordering::Relaxed);
        s.sum.fetch_add(sum, Ordering::Relaxed);
    }

    /// Total observations across shards.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all observed values across shards.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.sum.load(Ordering::Relaxed))
            .sum()
    }

    /// Zeroes every shard's buckets, count and sum. Only meaningful
    /// between runs, with no concurrent writers.
    pub fn reset(&self) {
        for s in &self.shards {
            Self::reset_one(s);
        }
    }

    /// Zeroes one worker's shard (see [`Counter::reset_shard`]).
    pub fn reset_shard(&self, shard: usize) {
        Self::reset_one(&self.shards[shard % self.shards.len()]);
    }

    fn reset_one(s: &HistShard) {
        // An untouched shard costs one load instead of 66 stores.
        if s.count.load(Ordering::Relaxed) == 0 {
            return;
        }
        for b in &s.buckets {
            b.store(0, Ordering::Relaxed);
        }
        s.count.store(0, Ordering::Relaxed);
        s.sum.store(0, Ordering::Relaxed);
    }

    fn merged_buckets(&self) -> Vec<(u8, u64)> {
        let mut out = Vec::new();
        for b in 0..BUCKETS {
            let total: u64 = self
                .shards
                .iter()
                .map(|s| s.buckets[b].load(Ordering::Relaxed))
                .sum();
            if total > 0 {
                out.push((b as u8, total));
            }
        }
        out
    }
}

/// A metric's identity: name plus sorted `(label, value)` pairs.
type MetricKey = (String, Vec<(String, String)>);

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The per-run metric store. Created with the run's worker count so every
/// sharded metric gets one slot per worker; handed out as `Arc` handles
/// at setup time so the hot path never locks.
pub struct Registry {
    shards: usize,
    inner: Mutex<BTreeMap<MetricKey, Metric>>,
}

fn key_of(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
        .collect();
    labels.sort();
    (name.to_string(), labels)
}

impl Registry {
    /// A registry whose sharded metrics have `shards` slots (at least 1;
    /// pass the worker-thread count).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            inner: Mutex::new(BTreeMap::new()),
        }
    }

    /// Shard count sharded metrics are created with.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Returns the counter with this name and label set, creating it on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if the same name and labels were already registered as a
    /// different metric type.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner
            .entry(key_of(name, labels))
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new(self.shards))))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Returns the gauge with this name and label set, creating it on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if the same name and labels were already registered as a
    /// different metric type.
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner
            .entry(key_of(name, labels))
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Returns the histogram with this name and label set, creating it on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if the same name and labels were already registered as a
    /// different metric type.
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner
            .entry(key_of(name, labels))
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(self.shards))))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Folds every metric's shards into a deterministic, plain-data
    /// snapshot ordered by `(name, labels)`.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let samples = inner
            .iter()
            .map(|((name, labels), metric)| Sample {
                name: name.clone(),
                labels: labels.clone(),
                value: match metric {
                    Metric::Counter(c) => SampleValue::Counter(c.value()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.value()),
                    Metric::Histogram(h) => SampleValue::Histogram(HistogramSnapshot {
                        buckets: h.merged_buckets(),
                        count: h.count(),
                        sum: h.sum(),
                    }),
                },
            })
            .collect();
        MetricsSnapshot { samples }
    }

    /// Zeroes every registered metric in place, keeping all handles
    /// valid. This is what lets a long-lived registry (resolved once at
    /// setup) serve per-run snapshots without re-registering: reset at
    /// run start, snapshot at run end. Only meaningful with no
    /// concurrent writers.
    pub fn reset(&self) {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for metric in inner.values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_folds_shards() {
        let c = Counter::new(4);
        c.add(0, 5);
        c.add(3, 7);
        c.inc(9); // wraps to shard 1
        assert_eq!(c.value(), 13);
    }

    #[test]
    fn gauge_set_and_watermark() {
        let g = Gauge::new();
        g.set(4);
        g.set_max(2);
        assert_eq!(g.value(), 4);
        g.set_max(9);
        assert_eq!(g.value(), 9);
    }

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_cover_their_indices() {
        for b in 0..BUCKETS - 1 {
            let hi = bucket_upper_bound(b).unwrap();
            assert_eq!(bucket_index(hi), b, "upper bound of bucket {b}");
            assert_eq!(bucket_index(hi + 1), b + 1, "first value past bucket {b}");
        }
        assert_eq!(bucket_upper_bound(BUCKETS - 1), None);
    }

    #[test]
    fn histogram_counts_and_sums() {
        let h = Histogram::new(2);
        h.record(0, 0);
        h.record(1, 1000);
        h.record(0, 1000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 2000);
        let buckets = h.merged_buckets();
        assert_eq!(buckets, vec![(0, 1), (bucket_index(1000) as u8, 2)]);
    }

    #[test]
    fn merge_equals_recording_one_by_one() {
        let values = [0, 1, 7, 1000, 1000, u64::MAX / 4];
        let one_by_one = Histogram::new(1);
        let mut buckets = [0; BUCKETS];
        for v in values {
            one_by_one.record(0, v);
            buckets[bucket_index(v)] += 1;
        }
        let merged = Histogram::new(1);
        merged.merge(0, &buckets, values.iter().sum());
        assert_eq!(merged.count(), one_by_one.count());
        assert_eq!(merged.sum(), one_by_one.sum());
        assert_eq!(merged.merged_buckets(), one_by_one.merged_buckets());
    }

    #[test]
    fn registry_reuses_handles_and_sorts_labels() {
        let r = Registry::new(2);
        let a = r.counter("x_total", &[("b", "2"), ("a", "1")]);
        let b = r.counter("x_total", &[("a", "1"), ("b", "2")]);
        a.inc(0);
        b.inc(1);
        assert_eq!(a.value(), 2);
        let snap = r.snapshot();
        assert_eq!(snap.samples.len(), 1);
        assert_eq!(
            snap.samples[0].labels,
            vec![
                ("a".to_string(), "1".to_string()),
                ("b".to_string(), "2".to_string())
            ]
        );
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn registry_rejects_type_confusion() {
        let r = Registry::new(1);
        let _ = r.counter("x", &[]);
        let _ = r.gauge("x", &[]);
    }
}
