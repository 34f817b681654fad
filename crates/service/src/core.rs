//! The daemon's admission and execution core.
//!
//! One shared [`ServiceCore`] sits between the HTTP front end and the
//! runtime. Admission is a three-gate pipeline under one mutex:
//! draining check, per-tenant token bucket, bounded per-tenant queue —
//! each rejection is *structured* (reason + honest retry-after hint)
//! rather than a dropped connection, because a client that knows why it
//! was shed can back off correctly. Compilation happens *outside* both
//! the admission lock and the lock of the LRU [`IrCache`], which is held
//! only to look a program up and to insert one (the first of two raced
//! compiles of one key wins); a queue place is reserved first so a slow
//! compile cannot over-admit past the bound.
//!
//! The queue holds waiting callers, not work: `exec_workers` execution
//! slots each own one warm [`ExecArena`], a caller of
//! [`ServiceCore::call`] enqueues a ticket and, once a slot is granted
//! to it, runs its own request on its own thread. Releasing the slot
//! grants the next ticket under the same lock; a lone ticket meets a
//! free slot at once, so the idle path has no thread hand-off.
//!
//! Grants are deficit round-robin over tenant queues: every scheduling
//! round credits each backlogged tenant its weight, granting one ticket
//! costs one credit, so long-run throughput under contention divides
//! proportionally to weight no matter which tenant floods its queue.
//!
//! A request runs its full recovery ladder ([`execute_with_recovery`]
//! over a [`Run`] in its slot's arena) on one runtime thread: the
//! service is parallel across requests, one per slot, so no arena holds
//! a resident runtime thread. The request deadline (queue wait
//! included) becomes the ladder's whole-recovery budget, so a stuck
//! request fails fast instead of holding its slot, and a failed request
//! leaves a black-box dump when a dump directory is configured.
//!
//! Drain is a contract, not a hint: after [`ServiceCore::drain`] no new
//! request is admitted (they shed with reason `draining`), every
//! already-admitted request still runs to completion and delivers its
//! reply, and [`ServiceCore::wait_drained`] returns only when queues
//! and in-flight work are both empty.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use msccl_algos::AlgoSpec;
pub use msccl_metrics::json_escape;
use msccl_metrics::{names, Registry};
use msccl_runtime::{
    execute_with_recovery, reference, ExecArena, RecoveryPolicy, Run, RunOptions, RuntimeError,
};
use msccl_topology::Protocol;
use mscclang::{compile, CompileOptions};

use crate::cache::{size_class, CacheKey, CacheStats, IrCache};
use crate::tenant::{TenantSpec, TokenBucket};

/// Largest chunk element count a request may ask for (matches the
/// scenario runner's clamp; keeps a single request's memory bounded).
pub const MAX_CHUNK_ELEMS: usize = 1 << 16;

/// Configuration for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// HTTP connection-handler threads (bounds concurrent requests).
    pub http_workers: usize,
    /// Execution slots: how many requests run at once, each on its
    /// caller's thread in the slot's own arena.
    pub exec_workers: usize,
    /// Per-tenant admission queue bound.
    pub queue_depth: usize,
    /// Compile-cache capacity, programs.
    pub cache_capacity: usize,
    /// Explicitly configured tenants.
    pub tenants: Vec<TenantSpec>,
    /// Admission rate for tenants not in `tenants`, requests/second.
    pub default_rate: f64,
    /// Burst capacity for tenants not in `tenants`.
    pub default_burst: f64,
    /// Deadline applied when a request carries none (`None` = unbounded).
    pub default_deadline: Option<Duration>,
    /// Recovery-ladder retries per request.
    pub max_retries: usize,
    /// Whether to verify every request's outputs against the reference
    /// semantics (the service's default: a daemon that returns wrong
    /// numbers fast is worse than one that returns right numbers
    /// slightly slower).
    pub verify: bool,
    /// Directory for per-failed-request black-box dumps.
    pub blackbox_dir: Option<std::path::PathBuf>,
    /// Topology label, part of every cache key.
    pub topology: String,
    /// Largest rank count a request may ask for.
    pub max_ranks: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            http_workers: 16,
            exec_workers: 2,
            queue_depth: 8,
            cache_capacity: 64,
            tenants: Vec::new(),
            default_rate: 200.0,
            default_burst: 50.0,
            default_deadline: Some(Duration::from_secs(30)),
            max_retries: 1,
            verify: true,
            blackbox_dir: None,
            topology: "local".into(),
            max_ranks: 64,
        }
    }
}

/// One admitted unit of work.
#[derive(Debug, Clone)]
pub struct CollectiveRequest {
    /// Algorithm registry name.
    pub algorithm: String,
    /// Shape parameters forwarded to the algorithm constructor.
    pub spec: AlgoSpec,
    /// Elements per chunk.
    pub chunk_elems: usize,
    /// Tenant the request is billed to.
    pub tenant: String,
    /// Protocol to run under.
    pub protocol: Protocol,
    /// Wall-clock budget from admission to reply (queue wait included);
    /// `None` falls back to the config default.
    pub deadline: Option<Duration>,
    /// Seed for the deterministic input data.
    pub seed: u64,
}

impl Default for CollectiveRequest {
    fn default() -> Self {
        Self {
            algorithm: "ring-allreduce".into(),
            spec: AlgoSpec {
                ranks: Some(4),
                ..AlgoSpec::default()
            },
            chunk_elems: 64,
            tenant: "default".into(),
            protocol: Protocol::Simple,
            deadline: None,
            seed: 1,
        }
    }
}

/// Why a request was shed at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's token bucket was empty.
    RateLimited,
    /// The tenant's admission queue was full.
    QueueFull,
    /// The daemon is draining and admits nothing new.
    Draining,
}

impl ShedReason {
    /// Stable label, used in responses and metric labels.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ShedReason::RateLimited => "rate_limited",
            ShedReason::QueueFull => "queue_full",
            ShedReason::Draining => "draining",
        }
    }
}

/// A successful execution.
#[derive(Debug, Clone)]
pub struct OkReply {
    /// Tenant served.
    pub tenant: String,
    /// Whether the program came from the cache.
    pub cache_hit: bool,
    /// [`output_checksum`] of every rank's outputs — the determinism
    /// witness (same request, same checksum).
    pub checksum: u64,
    /// Recovery-ladder attempts consumed.
    pub attempts: usize,
    /// Whether the fallback algorithm produced the result.
    pub used_fallback: bool,
    /// Microseconds spent queued before execution.
    pub queue_us: u64,
    /// Microseconds spent executing (ladder total).
    pub exec_us: u64,
}

/// A structured load-shedding rejection.
#[derive(Debug, Clone)]
pub struct ShedReply {
    /// Tenant that was shed.
    pub tenant: String,
    /// Why.
    pub reason: ShedReason,
    /// Honest back-off hint, milliseconds (0 = retrying won't help).
    pub retry_after_ms: u64,
}

/// An admitted request that failed in execution.
#[derive(Debug, Clone)]
pub struct FailReply {
    /// Tenant whose request failed.
    pub tenant: String,
    /// Rendered runtime error.
    pub error: String,
    /// Whether the deadline (or its recovery budget) was the cause.
    pub deadline: bool,
    /// Whether a retry might succeed.
    pub transient: bool,
    /// Path of the black-box dump, when one was written.
    pub blackbox: Option<String>,
}

/// Everything a request can come back as.
#[derive(Debug, Clone)]
pub enum Reply {
    /// Executed (and, by default, verified).
    Ok(OkReply),
    /// Shed at admission.
    Shed(ShedReply),
    /// Admitted but failed.
    Failed(FailReply),
    /// Rejected before admission: unknown algorithm, bad shape, or a
    /// compile error. Retrying the same request will never help.
    BadRequest(String),
}

struct Job {
    ir: Arc<mscclang::IrProgram>,
    req: CollectiveRequest,
    cache_hit: bool,
    enqueued: Instant,
    deadline_at: Option<Instant>,
}

/// A waiting caller's place in its tenant's queue.
type Ticket = u64;

struct TenantState {
    spec: TenantSpec,
    bucket: TokenBucket,
    last_refill: Instant,
    queue: VecDeque<Ticket>,
    /// Admission slots held by requests compiling outside the lock.
    reserved: usize,
    deficit: f64,
    served: u64,
    shed: u64,
    failed: u64,
}

impl TenantState {
    fn new(spec: TenantSpec, now: Instant) -> Self {
        let bucket = TokenBucket::new(spec.rate, spec.burst);
        Self {
            spec,
            bucket,
            last_refill: now,
            queue: VecDeque::new(),
            reserved: 0,
            deficit: 0.0,
            served: 0,
            shed: 0,
            failed: 0,
        }
    }
}

struct AdmissionState {
    tenants: HashMap<String, TenantState>,
    /// Stable round-robin order (insertion order).
    order: Vec<String>,
    rr: usize,
    queued: usize,
    /// Slots granted and not yet released.
    inflight: usize,
    /// Free slots, each with its arena (built on the slot's first run).
    idle: Vec<Option<ExecArena>>,
    /// Tickets granted a slot that their caller has not yet picked up.
    granted: Vec<(Ticket, Option<ExecArena>)>,
    next_ticket: Ticket,
    draining: bool,
    admitted: u64,
    served: u64,
    shed: u64,
    failed: u64,
    plan_builds: u64,
    /// Exponentially weighted mean execution time, for queue-full
    /// retry-after hints. Microseconds; 0 until the first completion.
    ewma_exec_us: f64,
}

/// Per-tenant counters as exposed by `/stats`.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Requests completed successfully.
    pub served: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Admitted requests that failed.
    pub failed: u64,
    /// Requests queued right now.
    pub queued: usize,
    /// Tokens available right now.
    pub tokens: f64,
    /// Dequeue weight.
    pub weight: u32,
}

/// A point-in-time view of the whole daemon, the `/stats` payload.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Whether the daemon is draining.
    pub draining: bool,
    /// Requests queued across all tenants.
    pub queued: usize,
    /// Requests executing right now.
    pub inflight: usize,
    /// Requests admitted since start.
    pub admitted: u64,
    /// Requests completed successfully since start.
    pub served: u64,
    /// Requests shed since start.
    pub shed: u64,
    /// Admitted requests failed since start.
    pub failed: u64,
    /// Execution plans built since start: the requests whose slot held
    /// no plan for their program.
    pub plan_builds: u64,
    /// Compile-cache counters.
    pub cache: CacheStats,
    /// Per-tenant breakdown, round-robin order.
    pub tenants: Vec<TenantStats>,
}

impl ServiceStats {
    /// Renders the stats as a deterministic JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            "{{\"draining\": {}, \"queued\": {}, \"inflight\": {}, \
             \"admitted\": {}, \"served\": {}, \"shed\": {}, \"failed\": {}, \
             \"plan_builds\": {}",
            self.draining,
            self.queued,
            self.inflight,
            self.admitted,
            self.served,
            self.shed,
            self.failed,
            self.plan_builds
        ));
        s.push_str(&format!(
            ", \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"entries\": {}, \"capacity\": {}, \"hit_rate\": {:.4}, \"compile_ms\": {}}}",
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.entries,
            self.cache.capacity,
            self.cache.hit_rate(),
            self.cache.compile_ns / 1_000_000
        ));
        s.push_str(", \"tenants\": [");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "{{\"name\": \"{}\", \"served\": {}, \"shed\": {}, \"failed\": {}, \
                 \"queued\": {}, \"tokens\": {:.2}, \"weight\": {}}}",
                json_escape(&t.name),
                t.served,
                t.shed,
                t.failed,
                t.queued,
                t.tokens,
                t.weight
            ));
        }
        s.push_str("]}");
        s
    }
}

/// The daemon's brain: admission, queues, cache, execution slots.
pub struct ServiceCore {
    cfg: ServiceConfig,
    registry: Registry,
    cache: Mutex<IrCache>,
    state: Mutex<AdmissionState>,
    /// Signalled when a slot is granted, and when a drain completes.
    cv: Condvar,
    shutdown: Mutex<bool>,
    shutdown_cv: Condvar,
}

/// A slot granted to the calling thread. Dropping it releases the slot
/// and grants the next ticket, on unwind too, so a panicking request
/// cannot leak its slot.
struct Slot<'a> {
    core: &'a ServiceCore,
    arena: Option<ExecArena>,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        // A request that panicked may have left its arena mid-run: the
        // slot starts over with a fresh one.
        let arena = self.arena.take().filter(|_| !std::thread::panicking());
        let Ok(mut st) = self.core.state.lock() else {
            return;
        };
        st.inflight -= 1;
        st.idle.push(arena);
        let granted = ServiceCore::grant(&mut st);
        self.core.publish_gauges(&st);
        let drained = st.draining && st.queued == 0 && st.inflight == 0;
        drop(st);
        if granted || drained {
            self.core.cv.notify_all();
        }
    }
}

impl ServiceCore {
    /// Builds the core with `exec_workers` free execution slots.
    #[must_use]
    pub fn new(cfg: ServiceConfig) -> Arc<Self> {
        let now = Instant::now();
        let mut tenants = HashMap::new();
        let mut order = Vec::new();
        for spec in &cfg.tenants {
            order.push(spec.name.clone());
            tenants.insert(spec.name.clone(), TenantState::new(spec.clone(), now));
        }
        let idle = (0..cfg.exec_workers.max(1)).map(|_| None).collect();
        let core = Arc::new(Self {
            cfg,
            registry: Registry::new(2),
            cache: Mutex::new(IrCache::new(1)),
            state: Mutex::new(AdmissionState {
                tenants,
                order,
                rr: 0,
                queued: 0,
                inflight: 0,
                idle,
                granted: Vec::new(),
                next_ticket: 0,
                draining: false,
                admitted: 0,
                served: 0,
                shed: 0,
                failed: 0,
                plan_builds: 0,
                ewma_exec_us: 0.0,
            }),
            cv: Condvar::new(),
            shutdown: Mutex::new(false),
            shutdown_cv: Condvar::new(),
        });
        *core.cache.lock().expect("cache poisoned") = IrCache::new(core.cfg.cache_capacity.max(1));
        core
    }

    /// The daemon's configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The daemon's metrics registry (scraped by `/metrics`).
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Submits one request and runs it on the calling thread. This is
    /// the whole request lifecycle: admission gates, compile-or-cache,
    /// queue, weighted-fair grant of an execution slot, execution under
    /// the deadline budget, reply.
    pub fn call(&self, req: CollectiveRequest) -> Reply {
        let job = match self.admit(req) {
            Ok(job) => job,
            Err(reply) => return reply,
        };
        let mut slot = self.wait_for_slot(&job.req.tenant);
        let reply = self.run_job(&mut slot.arena, &job);
        let ok = matches!(reply, Reply::Ok(_));
        if let Reply::Ok(r) = &reply {
            self.registry
                .histogram(names::SERVICE_LATENCY_US, &[])
                .record(0, r.queue_us + r.exec_us);
        }
        // Outcome counters before the slot is released: drain counts a
        // request as in flight until it is counted.
        {
            let mut st = self.state.lock().expect("state poisoned");
            let t = st
                .tenants
                .get_mut(&job.req.tenant)
                .expect("tenants are never removed");
            *(if ok { &mut t.served } else { &mut t.failed }) += 1;
            *(if ok { &mut st.served } else { &mut st.failed }) += 1;
        }
        self.registry
            .counter(
                if ok {
                    names::SERVICE_SERVED
                } else {
                    names::SERVICE_FAILED
                },
                &[("tenant", &job.req.tenant)],
            )
            .inc(0);
        drop(slot);
        reply
    }

    /// Validates shape bounds before admission.
    fn validate(&self, req: &CollectiveRequest) -> Result<(), String> {
        if !msccl_algos::registry::NAMES.contains(&req.algorithm.as_str()) {
            return Err(format!(
                "unknown algorithm '{}' (see `msccl list`)",
                req.algorithm
            ));
        }
        if req.chunk_elems == 0 || req.chunk_elems > MAX_CHUNK_ELEMS {
            return Err(format!(
                "elems must be in 1..={MAX_CHUNK_ELEMS}, got {}",
                req.chunk_elems
            ));
        }
        let ranks = req
            .spec
            .ranks
            .unwrap_or(0)
            .max(req.spec.nodes.saturating_mul(req.spec.gpus));
        if ranks > self.cfg.max_ranks {
            return Err(format!(
                "request asks for {ranks} ranks; this daemon serves at most {}",
                self.cfg.max_ranks
            ));
        }
        if req.tenant.is_empty() {
            return Err("tenant must not be empty".into());
        }
        Ok(())
    }

    fn shed(&self, tenant: &str, reason: ShedReason, retry_after_ms: u64) -> Reply {
        self.registry
            .counter(
                names::SERVICE_SHED,
                &[("tenant", tenant), ("reason", reason.as_str())],
            )
            .inc(0);
        Reply::Shed(ShedReply {
            tenant: tenant.to_string(),
            reason,
            retry_after_ms,
        })
    }

    #[allow(clippy::too_many_lines)]
    fn admit(&self, req: CollectiveRequest) -> Result<Job, Reply> {
        if let Err(msg) = self.validate(&req) {
            return Err(Reply::BadRequest(msg));
        }
        let now = Instant::now();
        {
            let mut st = self.state.lock().expect("state poisoned");
            if st.draining {
                st.shed += 1;
                if let Some(t) = st.tenants.get_mut(&req.tenant) {
                    t.shed += 1;
                }
                drop(st);
                return Err(self.shed(&req.tenant, ShedReason::Draining, 0));
            }
            if !st.tenants.contains_key(&req.tenant) {
                // Unknown tenants get the default quota, created lazily.
                let spec = TenantSpec {
                    name: req.tenant.clone(),
                    rate: self.cfg.default_rate,
                    burst: self.cfg.default_burst,
                    weight: 1,
                };
                st.order.push(req.tenant.clone());
                st.tenants
                    .insert(req.tenant.clone(), TenantState::new(spec, now));
            }
            let queue_depth = self.cfg.queue_depth.max(1);
            let ewma = st.ewma_exec_us;
            let exec_workers = self.cfg.exec_workers.max(1) as f64;
            let t = st
                .tenants
                .get_mut(&req.tenant)
                .expect("tenant just ensured");
            t.bucket.refill(now.duration_since(t.last_refill));
            t.last_refill = now;
            if !t.bucket.try_take() {
                let retry_ms =
                    u64::try_from(t.bucket.time_to_token().as_millis()).unwrap_or(u64::MAX);
                t.shed += 1;
                st.shed += 1;
                drop(st);
                return Err(self.shed(&req.tenant, ShedReason::RateLimited, retry_ms.max(1)));
            }
            if t.queue.len() + t.reserved >= queue_depth {
                // Estimate when a queue place frees up: the backlog ahead
                // of a would-be enqueuer, divided across the slots.
                let backlog = (t.queue.len() + t.reserved) as f64;
                let retry_ms = ((backlog * ewma / exec_workers) / 1000.0).ceil().max(1.0);
                t.shed += 1;
                st.shed += 1;
                drop(st);
                return Err(self.shed(&req.tenant, ShedReason::QueueFull, retry_ms as u64));
            }
            t.reserved += 1;
            st.admitted += 1;
        }
        self.registry
            .counter(names::SERVICE_ADMITTED, &[("tenant", &req.tenant)])
            .inc(0);

        // Compile (or hit the cache) outside the admission lock and the
        // cache's lock; the reserved slot keeps the queue bound honest
        // meanwhile.
        let key = CacheKey {
            collective: req.algorithm.clone(),
            ranks: req
                .spec
                .ranks
                .unwrap_or_else(|| req.spec.nodes.saturating_mul(req.spec.gpus)),
            size_class: size_class(req.chunk_elems),
            topology: self.cfg.topology.clone(),
            protocol: req.protocol,
        };
        let cached = self.cache.lock().expect("cache poisoned").lookup(&key);
        let built = match cached {
            Some(ir) => Ok((ir, true)),
            None => {
                let t0 = Instant::now();
                msccl_algos::build_by_name(&req.algorithm, &req.spec)
                    .map_err(|e| format!("cannot build '{}': {e}", req.algorithm))
                    .and_then(|program| {
                        compile(&program, &CompileOptions::default())
                            .map_err(|e| format!("cannot compile '{}': {e}", req.algorithm))
                    })
                    .map(|ir| {
                        let mut cache = self.cache.lock().expect("cache poisoned");
                        (cache.insert(key, ir, t0.elapsed()), false)
                    })
            }
        };
        let (ir, cache_hit) = match built {
            Ok(pair) => pair,
            Err(msg) => {
                let mut st = self.state.lock().expect("state poisoned");
                if let Some(t) = st.tenants.get_mut(&req.tenant) {
                    t.reserved = t.reserved.saturating_sub(1);
                }
                return Err(Reply::BadRequest(msg));
            }
        };
        self.registry
            .counter(
                if cache_hit {
                    names::SERVICE_CACHE_HITS
                } else {
                    names::SERVICE_CACHE_MISSES
                },
                &[],
            )
            .inc(0);

        let deadline = req.deadline.or(self.cfg.default_deadline);
        Ok(Job {
            ir,
            req,
            cache_hit,
            enqueued: Instant::now(),
            deadline_at: deadline.map(|d| now + d),
        })
    }

    /// Turns the tenant's reserved queue place into a ticket and blocks
    /// until a slot is granted to it.
    fn wait_for_slot(&self, tenant: &str) -> Slot<'_> {
        let mut st = self.state.lock().expect("state poisoned");
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        let t = st
            .tenants
            .get_mut(tenant)
            .expect("tenant present since admission");
        t.reserved -= 1;
        t.queue.push_back(ticket);
        st.queued += 1;
        // Every release grants greedily, so a slot is free only while the
        // queue is empty: this grant can pick no ticket but our own.
        Self::grant(&mut st);
        self.publish_gauges(&st);
        loop {
            if let Some(i) = st.granted.iter().position(|&(g, _)| g == ticket) {
                let (_, arena) = st.granted.swap_remove(i);
                return Slot { core: self, arena };
            }
            st = self.cv.wait(st).expect("state poisoned");
        }
    }

    /// Grants free slots to queued tickets in deficit-round-robin order;
    /// returns whether any ticket was granted.
    fn grant(st: &mut AdmissionState) -> bool {
        let mut any = false;
        while !st.idle.is_empty() {
            let Some(ticket) = Self::dequeue(st) else {
                break;
            };
            debug_assert!(st.granted.iter().all(|&(g, _)| g != ticket));
            let arena = st.idle.pop().expect("a slot is free");
            st.granted.push((ticket, arena));
            st.inflight += 1;
            any = true;
        }
        debug_assert!(st.idle.is_empty() || st.queued == 0);
        any
    }

    fn publish_gauges(&self, st: &AdmissionState) {
        self.registry
            .gauge(names::SERVICE_QUEUE_DEPTH, &[])
            .set(st.queued as u64);
        self.registry
            .gauge(names::SERVICE_INFLIGHT, &[])
            .set(st.inflight as u64);
    }

    /// Deficit round-robin over tenant queues: a scheduling round
    /// credits every backlogged tenant its weight; serving one request
    /// costs one credit.
    fn dequeue(st: &mut AdmissionState) -> Option<Ticket> {
        let n = st.order.len();
        if n == 0 || st.queued == 0 {
            return None;
        }
        for pass in 0..2 {
            for i in 0..n {
                let idx = (st.rr + i) % n;
                let name = st.order[idx].clone();
                let t = st.tenants.get_mut(&name).expect("order entry exists");
                if t.queue.is_empty() {
                    continue;
                }
                if t.deficit >= 1.0 {
                    t.deficit -= 1.0;
                    let ticket = t.queue.pop_front();
                    if t.queue.is_empty() {
                        // Standard DRR: an emptied queue forfeits its
                        // leftover credit, so idleness is not banked.
                        t.deficit = 0.0;
                    }
                    st.rr = idx;
                    st.queued -= 1;
                    return ticket;
                }
            }
            if pass == 0 {
                let mut any = false;
                for name in &st.order {
                    let t = st.tenants.get_mut(name).expect("order entry exists");
                    if !t.queue.is_empty() {
                        t.deficit += f64::from(t.spec.weight);
                        any = true;
                    }
                }
                if !any {
                    return None;
                }
            }
        }
        None
    }

    fn run_job(&self, arena: &mut Option<ExecArena>, job: &Job) -> Reply {
        let queue_us = u64::try_from(job.enqueued.elapsed().as_micros()).unwrap_or(u64::MAX);
        let now = Instant::now();
        let fail = |error: String, deadline: bool, transient: bool, blackbox: Option<String>| {
            Reply::Failed(FailReply {
                tenant: job.req.tenant.clone(),
                error,
                deadline,
                transient,
                blackbox,
            })
        };
        let remaining = match job.deadline_at {
            Some(at) if at <= now => {
                return fail(
                    format!("deadline expired after {}us in queue", queue_us),
                    true,
                    true,
                    None,
                );
            }
            Some(at) => Some(at.duration_since(now).max(Duration::from_millis(1))),
            None => None,
        };
        let opts = RunOptions {
            protocol: job.req.protocol,
            deadline: remaining,
            metrics: false,
            // One runtime thread: the service runs requests in parallel,
            // one per slot, not the thread blocks of one request.
            worker_threads: 1,
            blackbox_dir: self.cfg.blackbox_dir.clone(),
            ..RunOptions::default()
        };
        let policy = RecoveryPolicy {
            max_retries: self.cfg.max_retries,
            verify: self.cfg.verify,
            ..RecoveryPolicy::default()
        };
        let inputs = reference::random_inputs(&job.ir, job.req.chunk_elems, job.req.seed);
        let arena = arena.get_or_insert_with(|| ExecArena::new(&job.ir, &opts));
        let plans_built = arena.plans_built();
        let t0 = Instant::now();
        let result = execute_with_recovery(
            Run {
                arena: Some(&mut *arena),
                ..Run::new(&job.ir, &inputs, job.req.chunk_elems, &opts)
            },
            None,
            &policy,
        );
        let exec_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        let plan_builds = arena.plans_built() - plans_built;
        self.registry
            .counter(names::SERVICE_PLAN_BUILDS, &[])
            .add(0, plan_builds);
        {
            let mut st = self.state.lock().expect("state poisoned");
            st.plan_builds += plan_builds;
            // EWMA with alpha 1/8: smooth enough for a hint, cheap.
            st.ewma_exec_us = if st.ewma_exec_us == 0.0 {
                exec_us as f64
            } else {
                st.ewma_exec_us * 0.875 + exec_us as f64 * 0.125
            };
        }
        match result {
            Ok(report) => {
                let checksum = output_checksum(&report.outputs);
                arena.recycle_outputs(report.outputs);
                Reply::Ok(OkReply {
                    tenant: job.req.tenant.clone(),
                    cache_hit: job.cache_hit,
                    checksum,
                    attempts: report.attempts,
                    used_fallback: report.used_fallback,
                    queue_us,
                    exec_us,
                })
            }
            Err(e) => {
                let deadline = matches!(
                    e,
                    RuntimeError::DeadlineExceeded { .. }
                        | RuntimeError::RecoveryBudgetExhausted { .. }
                );
                let blackbox = e.blackbox_path().map(|p| p.display().to_string());
                fail(e.to_string(), deadline, e.is_transient(), blackbox)
            }
        }
    }

    /// Stops admitting (new requests shed with reason `draining`);
    /// queued and in-flight requests still run to completion.
    pub fn drain(&self) {
        self.state.lock().expect("state poisoned").draining = true;
    }

    /// Blocks until every admitted request has delivered its reply.
    /// Meaningful only after [`drain`](Self::drain).
    pub fn wait_drained(&self) {
        let mut st = self.state.lock().expect("state poisoned");
        while st.queued > 0 || st.inflight > 0 {
            st = self.cv.wait(st).expect("state poisoned");
        }
    }

    /// Flags the daemon for shutdown (from `/shutdown` or a signal
    /// watcher) and wakes [`wait_shutdown_requested`](Self::wait_shutdown_requested).
    ///
    /// The drain starts *here*, not when the owner gets around to
    /// calling [`ServiceHandle::shutdown`](crate::ServiceHandle::shutdown):
    /// the instant the shutdown request is acknowledged, new work sheds
    /// with reason `draining` — no request admitted into a dying daemon.
    pub fn request_shutdown(&self) {
        self.drain();
        *self.shutdown.lock().expect("shutdown poisoned") = true;
        self.shutdown_cv.notify_all();
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        *self.shutdown.lock().expect("shutdown poisoned")
    }

    /// Blocks until [`request_shutdown`](Self::request_shutdown) is called.
    pub fn wait_shutdown_requested(&self) {
        let mut flag = self.shutdown.lock().expect("shutdown poisoned");
        while !*flag {
            flag = self.shutdown_cv.wait(flag).expect("shutdown poisoned");
        }
    }

    /// A consistent snapshot of queues, counters and the cache.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let cache = self.cache.lock().expect("cache poisoned").stats();
        let st = self.state.lock().expect("state poisoned");
        ServiceStats {
            draining: st.draining,
            queued: st.queued,
            inflight: st.inflight,
            admitted: st.admitted,
            served: st.served,
            shed: st.shed,
            failed: st.failed,
            plan_builds: st.plan_builds,
            cache,
            tenants: st
                .order
                .iter()
                .map(|name| {
                    let t = &st.tenants[name];
                    TenantStats {
                        name: name.clone(),
                        served: t.served,
                        shed: t.shed,
                        failed: t.failed,
                        queued: t.queue.len(),
                        tokens: t.bucket.tokens(),
                        weight: t.spec.weight,
                    }
                })
                .collect(),
        }
    }
}

/// The service's determinism witness: two executions of the same request
/// are bit-exact iff their checksums agree.
///
/// Each rank's output is hashed as `f32` bit patterns, one `u32` word at a
/// time, into four independent FNV-style lanes (word `i` goes to lane
/// `i % 4`), so the multiply chains overlap instead of serialising.
/// The lanes, then the words left over past the last full group, then the
/// rank's length and a rank delimiter fold into the running hash in that
/// order. Every step is a bijection of the state it updates, so changing
/// any one element always changes the checksum.
#[must_use]
pub fn output_checksum(outputs: &[Vec<f32>]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const LANES: usize = 4;
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(PRIME);
    let mut h = OFFSET;
    for out in outputs {
        let mut lanes: [u64; LANES] = std::array::from_fn(|i| OFFSET.rotate_left(16 * i as u32));
        let groups = out.chunks_exact(LANES);
        let rest = groups.remainder();
        for group in groups {
            for (lane, v) in lanes.iter_mut().zip(group) {
                *lane = step(*lane, u64::from(v.to_bits()));
            }
        }
        h = lanes.into_iter().fold(h, step);
        h = rest.iter().fold(h, |h, v| step(h, u64::from(v.to_bits())));
        h = step(h, out.len() as u64);
        // Rank delimiter: [1.0, 2.0] ++ [] must differ from [1.0] ++ [2.0].
        h = step(h, 0xff);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(tenant: &str) -> CollectiveRequest {
        CollectiveRequest {
            tenant: tenant.into(),
            spec: AlgoSpec {
                ranks: Some(2),
                ..AlgoSpec::default()
            },
            chunk_elems: 8,
            ..CollectiveRequest::default()
        }
    }

    fn quick_cfg() -> ServiceConfig {
        ServiceConfig {
            exec_workers: 1,
            verify: false,
            max_retries: 0,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn checksum_distinguishes_rank_boundaries() {
        let a = output_checksum(&[vec![1.0, 2.0], vec![]]);
        let b = output_checksum(&[vec![1.0], vec![2.0]]);
        assert_ne!(a, b);
        assert_eq!(
            output_checksum(&[vec![1.0, 2.0]]),
            output_checksum(&[vec![1.0, 2.0]])
        );
    }

    /// Output lengths around the lane count and its remainder.
    fn checksum_lengths() -> impl Iterator<Item = usize> {
        (0..=9).chain(31..=33)
    }

    fn sample_output(len: usize) -> Vec<f32> {
        (0..len).map(|i| i as f32 * 1.5 - 3.0).collect()
    }

    #[test]
    fn checksum_sees_every_bit_of_every_element() {
        for len in checksum_lengths() {
            let out = sample_output(len);
            let base = output_checksum(&[out.clone(), vec![7.0]]);
            for i in 0..len {
                for bit in 0..32 {
                    let mut flipped = out.clone();
                    flipped[i] = f32::from_bits(flipped[i].to_bits() ^ (1 << bit));
                    assert_ne!(
                        output_checksum(&[flipped, vec![7.0]]),
                        base,
                        "length {len}: flipping bit {bit} of element {i} went unseen"
                    );
                }
            }
        }
    }

    #[test]
    fn checksum_sees_two_elements_swapped() {
        for len in checksum_lengths() {
            let out = sample_output(len);
            let base = output_checksum(std::slice::from_ref(&out));
            for i in 0..len {
                for j in i + 1..len {
                    let mut swapped = out.clone();
                    swapped.swap(i, j);
                    assert_ne!(
                        output_checksum(&[swapped]),
                        base,
                        "length {len}: swapping elements {i} and {j} went unseen"
                    );
                }
            }
        }
    }

    #[test]
    fn checksum_value_is_pinned() {
        // The value on the wire: a change here is a protocol change.
        let outputs = [
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
            vec![],
            vec![-0.0, f32::INFINITY],
        ];
        assert_eq!(
            format!("{:016x}", output_checksum(&outputs)),
            "c5479ed07fa4e230"
        );
    }

    #[test]
    fn call_executes_and_second_call_hits_cache() {
        let core = ServiceCore::new(quick_cfg());
        let first = core.call(req("t"));
        let Reply::Ok(a) = first else {
            panic!("expected ok, got {first:?}");
        };
        assert!(!a.cache_hit);
        let Reply::Ok(b) = core.call(req("t")) else {
            panic!("expected ok");
        };
        assert!(b.cache_hit);
        assert_eq!(a.checksum, b.checksum, "same request must be bit-exact");
        let stats = core.stats();
        assert_eq!(stats.served, 2);
        assert_eq!(stats.cache.hits, 1);
        core.drain();
        core.wait_drained();
    }

    /// A slot builds one plan per program, not per cache key or per
    /// program switch: four size classes of one program are four cache
    /// entries and one plan, and alternating with a second program, or
    /// recompiling the first after its entries are evicted, builds
    /// nothing more.
    #[test]
    fn a_slot_builds_one_plan_per_program() {
        let core = ServiceCore::new(ServiceConfig {
            cache_capacity: 2,
            ..quick_cfg()
        });
        let sized = |elems: usize, ranks: usize| CollectiveRequest {
            chunk_elems: elems,
            spec: AlgoSpec {
                ranks: Some(ranks),
                ..AlgoSpec::default()
            },
            ..req("t")
        };
        for round in 0..2 {
            for elems in [8, 16, 32, 64] {
                for ranks in [2, 4] {
                    let reply = core.call(sized(elems, ranks));
                    assert!(matches!(reply, Reply::Ok(_)), "{round}: {reply:?}");
                }
            }
        }
        let stats = core.stats();
        assert_eq!(stats.served, 16);
        assert_eq!(stats.cache.misses, 16, "every key evicts another");
        assert_eq!(stats.plan_builds, 2);
        assert!(stats.to_json().contains("\"plan_builds\": 2"));
        assert_eq!(
            core.registry()
                .snapshot()
                .counter(names::SERVICE_PLAN_BUILDS, &[]),
            2
        );
        core.drain();
        core.wait_drained();
    }

    #[test]
    fn unknown_algorithm_is_bad_request() {
        let core = ServiceCore::new(quick_cfg());
        let mut r = req("t");
        r.algorithm = "bogus".into();
        assert!(matches!(core.call(r), Reply::BadRequest(_)));
        core.drain();
    }

    #[test]
    fn empty_bucket_sheds_rate_limited_with_hint() {
        let cfg = ServiceConfig {
            tenants: vec![TenantSpec {
                name: "slow".into(),
                rate: 0.001,
                burst: 1.0,
                weight: 1,
            }],
            ..quick_cfg()
        };
        let core = ServiceCore::new(cfg);
        assert!(matches!(core.call(req("slow")), Reply::Ok(_)));
        let Reply::Shed(shed) = core.call(req("slow")) else {
            panic!("expected shed");
        };
        assert_eq!(shed.reason, ShedReason::RateLimited);
        assert!(shed.retry_after_ms >= 1);
        assert_eq!(core.stats().shed, 1);
        core.drain();
    }

    #[test]
    fn draining_sheds_everything_new() {
        let core = ServiceCore::new(quick_cfg());
        core.drain();
        let Reply::Shed(shed) = core.call(req("t")) else {
            panic!("expected shed");
        };
        assert_eq!(shed.reason, ShedReason::Draining);
        core.wait_drained();
    }

    /// An admission state with `slots` free slots and two tenants of
    /// weight 2 (`a`) and 1 (`b`), queues empty.
    fn two_tenants(slots: usize) -> AdmissionState {
        let now = Instant::now();
        let mk = |name: &str, weight: u32| {
            TenantState::new(
                TenantSpec {
                    name: name.into(),
                    rate: 1e9,
                    burst: 1e9,
                    weight,
                },
                now,
            )
        };
        AdmissionState {
            tenants: HashMap::from([("a".into(), mk("a", 2)), ("b".into(), mk("b", 1))]),
            order: vec!["a".into(), "b".into()],
            rr: 0,
            queued: 0,
            inflight: 0,
            idle: (0..slots).map(|_| None).collect(),
            granted: Vec::new(),
            next_ticket: 0,
            draining: false,
            admitted: 0,
            served: 0,
            shed: 0,
            failed: 0,
            plan_builds: 0,
            ewma_exec_us: 0.0,
        }
    }

    fn enqueue(st: &mut AdmissionState, tenant: &str, tickets: std::ops::Range<Ticket>) {
        for ticket in tickets {
            st.tenants.get_mut(tenant).unwrap().queue.push_back(ticket);
            st.queued += 1;
        }
    }

    #[test]
    fn drr_serves_proportionally_to_weight() {
        // Drive the dequeue directly: 2:1 weights with full queues must
        // serve 2:1 over any window.
        let mut st = two_tenants(0);
        enqueue(&mut st, "a", 0..30);
        enqueue(&mut st, "b", 30..60);
        for _ in 0..30 {
            ServiceCore::dequeue(&mut st).expect("work available");
        }
        // After 30 dequeues at weights 2:1, a should have ~20 served
        // (30 - 10 left), b ~10 (30 - 20 left).
        let a_served = 30 - st.tenants["a"].queue.len();
        let b_served = 30 - st.tenants["b"].queue.len();
        assert_eq!(a_served + b_served, 30);
        assert!(
            (19..=21).contains(&a_served),
            "weight-2 tenant got {a_served} of 30"
        );
    }

    #[test]
    fn grant_fills_free_slots_and_each_release_grants_one_in_drr_order() {
        let mut st = two_tenants(2);
        enqueue(&mut st, "a", 0..3);
        enqueue(&mut st, "b", 3..5);
        assert!(ServiceCore::grant(&mut st));
        let granted: Vec<Ticket> = st.granted.iter().map(|&(t, _)| t).collect();
        assert_eq!(granted, [0, 1], "two slots, two grants");
        assert_eq!((st.inflight, st.queued), (2, 3));
        // Round one grants a twice and b once; round two resumes at b.
        let mut order = granted;
        while !st.granted.is_empty() {
            let (_, arena) = st.granted.remove(0);
            st.inflight -= 1;
            st.idle.push(arena);
            let before = st.granted.len();
            let more = ServiceCore::grant(&mut st);
            let new: Vec<Ticket> = st.granted[before..].iter().map(|&(t, _)| t).collect();
            assert_eq!(more, !new.is_empty());
            assert!(new.len() <= 1, "one release granted {new:?}");
            order.extend(new);
            assert!(st.inflight <= 2);
        }
        assert_eq!(order, [0, 1, 3, 4, 2]);
        assert_eq!((st.queued, st.inflight, st.idle.len()), (0, 0, 2));
    }
}
