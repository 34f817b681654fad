//! Collective-level recovery: one escalation ladder for transient
//! failures — full retry with capped-and-jittered exponential backoff,
//! verification of every completed attempt, then one attempt at a
//! fallback algorithm — under one whole-recovery deadline budget.
//!
//! The ladder ([`recover`]) is generic over an [`Attempts`] back end,
//! which runs the primary or the fallback program, and a [`Clock`].
//! [`execute_with_recovery`] runs it on the threaded runtime and the
//! wall clock; the scenario simulator runs the same loop over simulated
//! attempts and a virtual clock, so both engines decide in one place.
//!
//! The policy leans on two guarantees. Errors are classified at the
//! source ([`RuntimeError::is_transient`]), and a fault plan describes
//! one incident: the ladder arms the request's injector
//! ([`msccl_faults::FaultInjector`]) for the first attempt only, as the
//! scenario simulator does, so every retry and the fallback run without
//! it — the semantics of a transient fault in a real fabric. A fault the
//! aborted first attempt never reached does not strike a later one, and
//! persistent benign faults (a straggler, a latency spike) end with the
//! first attempt too. A compiled program is
//! deadlock-free and a call is short, so running it again from scratch
//! is the whole recovery. Verification closes the loop on *corrupting*
//! faults, which raise no error, only wrong numbers: an attempt counts
//! only when its outputs match the collective's reference semantics.
//!
//! A budget (`RunOptions::deadline` on the runtime) covers attempts and
//! backoff sleeps together: each attempt runs under the *remaining*
//! budget, and when the remainder cannot cover the next backoff the
//! loop fails fast with [`RuntimeError::RecoveryBudgetExhausted`].

use std::fmt;
use std::time::{Duration, Instant};

use msccl_metrics::{names, MetricsSnapshot, Registry};
use msccl_trace::{ClockDomain, EventKind, RecoveryDecision, Trace, TraceEvent};
use mscclang::IrProgram;

use crate::executor::{run, Run, RuntimeError};

/// Ceiling the exponential backoff saturates at, so a long ladder
/// degrades to fixed-interval retries instead of absurd sleeps.
const MAX_BACKOFF: Duration = Duration::from_millis(500);

/// How the recovery loop reacts to failed attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// How many times to re-run the primary algorithm after its first
    /// failed attempt (0 = no retries).
    pub max_retries: usize,
    /// Backoff before the first retry; doubles each further retry, up
    /// to 500 ms.
    pub backoff: Duration,
    /// Seed for the deterministic ±25% backoff jitter. Jitter
    /// desynchronizes retry herds; deriving it from a seed (no `rand`)
    /// keeps every run reproducible.
    pub jitter_seed: u64,
    /// Whether to verify outputs against the collective's reference
    /// semantics; without it, corrupting faults pass silently.
    pub verify: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff: Duration::from_millis(10),
            jitter_seed: 0,
            verify: true,
        }
    }
}

/// The delay before retry number `attempt + 1`: exponential in the
/// attempt (shift capped at 30 bits, multiplication saturating),
/// clamped to [`MAX_BACKOFF`], then jittered ±25% deterministically
/// from the policy's seed and the attempt index.
fn backoff_delay(policy: &RecoveryPolicy, attempt: usize) -> Duration {
    let exp = u32::try_from(attempt.min(30)).expect("bounded by min");
    let base = policy.backoff.saturating_mul(1u32 << exp).min(MAX_BACKOFF);
    let nanos = u64::try_from(base.as_nanos()).unwrap_or(u64::MAX);
    let quarter = nanos / 4;
    if quarter == 0 {
        return base;
    }
    // splitmix64 mixing: all the randomness the jitter needs, with no
    // dependency and full determinism.
    let r = mscclang::rng::mix(policy.jitter_seed ^ attempt as u64);
    // Uniform in [base - 25%, base + 25%]; the modulo bias over a range
    // this small is irrelevant for desynchronization.
    let jittered = (nanos - quarter).saturating_add(r % (2 * quarter + 1));
    Duration::from_nanos(jittered)
}

/// The ladder's time source. An [`Instant`] is the wall clock since
/// that instant and sleeps the thread; an `f64` is a virtual clock in
/// microseconds, which attempts advance by their modeled cost and
/// backoffs by their delay.
pub trait Clock {
    /// Time since recovery began.
    fn elapsed(&self) -> Duration;
    /// Waits out `delay`.
    fn sleep(&mut self, delay: Duration);
}

impl Clock for Instant {
    fn elapsed(&self) -> Duration {
        Instant::elapsed(self)
    }

    fn sleep(&mut self, delay: Duration) {
        std::thread::sleep(delay);
    }
}

impl Clock for f64 {
    fn elapsed(&self) -> Duration {
        Duration::from_secs_f64(*self / 1e6)
    }

    fn sleep(&mut self, delay: Duration) {
        *self += delay.as_secs_f64() * 1e6;
    }
}

/// A back end the ladder runs attempts on.
pub trait Attempts<C: Clock> {
    /// What a completed attempt yields.
    type Output;
    /// Why an attempt failed. The ladder's own verdicts (verification
    /// rejected, budget exhausted) arrive as [`RuntimeError`]s.
    type Error: fmt::Display + From<RuntimeError>;

    /// Runs the primary program, or the fallback when `fallback` is set,
    /// under `budget` (what remains of the whole-recovery budget). A
    /// back end on a virtual clock advances it by the attempt's cost.
    fn attempt(
        &mut self,
        fallback: bool,
        budget: Option<Duration>,
        clock: &mut C,
    ) -> Result<Self::Output, Self::Error>;

    /// Whether another attempt can help after `err`.
    fn is_transient(err: &Self::Error) -> bool;

    /// Checks a completed attempt of the primary (or the fallback)
    /// against the collective's reference semantics.
    fn verify(&self, fallback: bool, output: &Self::Output) -> Result<(), String>;
}

/// One logged decision of the recovery loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryStep {
    /// Microseconds since recovery began.
    pub ts_us: f64,
    /// Zero-based attempt the decision follows.
    pub attempt: usize,
    /// The decision.
    pub decision: RecoveryDecision,
    /// Why: the failure display, or "verified" / "completed" on success.
    pub detail: String,
}

/// What a recovered execution produced and how it got there.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport<T = Vec<Vec<f32>>> {
    /// What the accepted attempt produced: on the runtime, each rank's
    /// verified (or at least completed) output buffer.
    pub outputs: T,
    /// Total executions performed, primary and fallback together.
    pub attempts: usize,
    /// Whether the outputs came from the fallback algorithm.
    pub used_fallback: bool,
    /// Every decision taken, in order.
    pub steps: Vec<RecoveryStep>,
    /// The decision log as metric counters (see
    /// [`msccl_metrics::names`]): total attempts, retries, fallbacks and
    /// cancellations. Mergeable with execution snapshots via
    /// [`MetricsSnapshot::merge`].
    pub metrics: MetricsSnapshot,
}

impl<T> RecoveryReport<T> {
    /// The decision log as a wall-clock [`Trace`] (rank 0, tb 0:
    /// recovery is collective-level, not per-block), mergeable with
    /// execution traces and exportable like any other.
    #[must_use]
    pub fn decision_trace(&self) -> Trace {
        Trace::from_buffers(
            ClockDomain::Wall,
            vec![self
                .steps
                .iter()
                .map(|s| TraceEvent {
                    ts_us: s.ts_us,
                    rank: 0,
                    tb: 0,
                    kind: EventKind::Recovery {
                        attempt: s.attempt,
                        decision: s.decision,
                    },
                })
                .collect()],
        )
    }
}

/// Folds the decision log into the shared metric vocabulary. Derived
/// from the log rather than incremented inline so the counters and the
/// log can never disagree.
fn metrics_of(steps: &[RecoveryStep], attempts: usize) -> MetricsSnapshot {
    let reg = Registry::new(1);
    reg.counter(names::RECOVERY_ATTEMPTS, &[])
        .add(0, attempts as u64);
    for step in steps {
        let name = match step.decision {
            RecoveryDecision::Accept => continue,
            RecoveryDecision::Retry => names::RECOVERY_RETRIES,
            RecoveryDecision::Fallback => names::RECOVERY_FALLBACKS,
        };
        reg.counter(name, &[]).inc(0);
        // Every retry or fallback follows exactly one attempt that was
        // torn down (cancelled) without a usable result.
        reg.counter(names::RECOVERY_CANCELLATIONS, &[]).inc(0);
    }
    reg.snapshot()
}

/// The escalation ladder on any back end: run the primary; retry a
/// transient failure (a verification rejection is one) after a capped,
/// jittered backoff while `policy.max_retries` allows; then, when
/// `has_fallback`, give the fallback one attempt — the faults that broke
/// the primary are spent, and a fallback that fails on a clean run is
/// not worth iterating on. `budget` bounds the whole recovery.
///
/// # Errors
///
/// The first permanent error, [`RuntimeError::RecoveryBudgetExhausted`],
/// or the last transient error once every rung is spent.
pub fn recover<C: Clock, A: Attempts<C>>(
    backend: &mut A,
    clock: &mut C,
    has_fallback: bool,
    policy: &RecoveryPolicy,
    budget: Option<Duration>,
) -> Result<RecoveryReport<A::Output>, A::Error> {
    let remaining = |clock: &C| budget.map(|b| b.saturating_sub(clock.elapsed()));
    let accepted = if policy.verify {
        "verified"
    } else {
        "completed"
    };
    let mut steps = Vec::new();
    let mut attempt = 0;
    let mut on_fallback = false;
    loop {
        let result = backend.attempt(on_fallback, remaining(clock), clock);
        let result = result.and_then(|out| match policy.verify {
            true => match backend.verify(on_fallback, &out) {
                Ok(()) => Ok(out),
                Err(message) => Err(RuntimeError::VerificationFailed { message }.into()),
            },
            false => Ok(out),
        });
        let err = match result {
            Ok(outputs) => {
                steps.push(RecoveryStep {
                    ts_us: clock.elapsed().as_secs_f64() * 1e6,
                    attempt,
                    decision: RecoveryDecision::Accept,
                    detail: accepted.into(),
                });
                return Ok(RecoveryReport {
                    outputs,
                    attempts: attempt + 1,
                    used_fallback: on_fallback,
                    metrics: metrics_of(&steps, attempt + 1),
                    steps,
                });
            }
            Err(e) if !A::is_transient(&e) => return Err(e),
            Err(e) => e,
        };
        let decision = if !on_fallback && attempt < policy.max_retries {
            RecoveryDecision::Retry
        } else if !on_fallback && has_fallback {
            RecoveryDecision::Fallback
        } else {
            return Err(err);
        };
        steps.push(RecoveryStep {
            ts_us: clock.elapsed().as_secs_f64() * 1e6,
            attempt,
            decision,
            detail: err.to_string(),
        });
        if decision == RecoveryDecision::Retry {
            let delay = backoff_delay(policy, attempt);
            if let Some(left) = remaining(clock).filter(|left| *left < delay) {
                // Fail fast: sleeping would overrun the budget, so
                // surface a structured, permanent error now instead of
                // a deadline failure later.
                let ms = |d: Duration| u64::try_from(d.as_millis()).unwrap_or(u64::MAX);
                return Err(RuntimeError::RecoveryBudgetExhausted {
                    attempts: attempt + 1,
                    next_backoff_ms: ms(delay),
                    remaining_ms: ms(left),
                    last_error: err.to_string(),
                }
                .into());
            }
            clock.sleep(delay);
        }
        on_fallback = decision == RecoveryDecision::Fallback;
        attempt += 1;
    }
}

/// The threaded runtime as a ladder back end: every attempt is the
/// request's [`Run`] with only the deadline and (for the fallback) the
/// program replaced, and the injector taken by the first attempt.
struct Threaded<'a> {
    request: Run<'a>,
    fallback: Option<&'a IrProgram>,
}

impl<'a> Threaded<'a> {
    fn program(&self, fallback: bool) -> &'a IrProgram {
        self.fallback
            .filter(|_| fallback)
            .unwrap_or(self.request.ir)
    }
}

impl Attempts<Instant> for Threaded<'_> {
    type Output = Vec<Vec<f32>>;
    type Error = RuntimeError;

    fn attempt(
        &mut self,
        fallback: bool,
        budget: Option<Duration>,
        _: &mut Instant,
    ) -> Result<Vec<Vec<f32>>, RuntimeError> {
        let mut opts = self.request.opts.clone();
        if let Some(left) = budget {
            // Never pass a zero deadline (the executor rejects it): an
            // exhausted budget surfaces as DeadlineExceeded from the
            // attempt itself, then fails fast in the ladder.
            opts.deadline = Some(left.max(Duration::from_millis(1)));
        }
        let ir = self.program(fallback);
        let r = &mut self.request;
        run(Run {
            arena: r.arena.as_deref_mut(),
            injector: r.injector.take(),
            ..Run::new(ir, r.inputs, r.chunk_elems, &opts)
        })
        .result
    }

    fn is_transient(err: &RuntimeError) -> bool {
        err.is_transient()
    }

    fn verify(&self, fallback: bool, outputs: &Vec<Vec<f32>>) -> Result<(), String> {
        let r = &self.request;
        crate::reference::check_outputs(
            &self.program(fallback).collective,
            r.inputs,
            outputs,
            r.chunk_elems,
            r.opts.reduce_op,
        )
    }
}

/// Executes the request's program under the escalation ladder
/// ([`recover`]) on the threaded runtime and the wall clock, with
/// `opts.deadline` as the whole-recovery budget. `fallback` must
/// implement the same collective over the same ranks.
///
/// Every attempt is the same [`Run`] with only the deadline and (for the
/// fallback) the program replaced: it runs in the request's arena when
/// it has one — the `msccl serve` daemon keeps one per execution slot,
/// and the arena holds the primary's and the fallback's plans side by
/// side, so steady-state traffic allocates and builds nothing whatever
/// rung serves it. The request's fault injector is armed for the first
/// attempt only (see the module docs). [`Run::trace`] and [`Run::snapshot`]
/// are not collected across attempts; the ladder's own record is the
/// report's decision log and metrics.
///
/// # Errors
///
/// Returns the first permanent [`RuntimeError`] immediately, or the last
/// transient one once every attempt — retries and fallback — is spent.
pub fn execute_with_recovery(
    request: Run<'_>,
    fallback: Option<&IrProgram>,
    policy: &RecoveryPolicy,
) -> Result<RecoveryReport, RuntimeError> {
    let primary = request.ir;
    if let Some(fb) = fallback {
        if fb.num_ranks() != primary.num_ranks()
            || fb.collective.in_chunks() != primary.collective.in_chunks()
            || fb.collective.out_chunks() != primary.collective.out_chunks()
        {
            return Err(RuntimeError::InvalidOptions {
                message: format!(
                    "fallback '{}' does not implement the same collective as '{}'",
                    fb.name, primary.name
                ),
            });
        }
    }
    let budget = request.opts.deadline;
    recover(
        &mut Threaded { request, fallback },
        &mut Instant::now(),
        fallback.is_some(),
        policy,
        budget,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunOptions;
    use msccl_faults::{FaultInjector, FaultKind, FaultPlan, FaultSite, FaultSpec};
    use mscclang::{compile, CompileOptions};

    fn ring_ir(ranks: usize) -> IrProgram {
        let p = msccl_algos::ring_all_reduce(ranks, 1).unwrap();
        compile(&p, &CompileOptions::default()).unwrap()
    }

    fn allpairs_ir(ranks: usize) -> IrProgram {
        let p = msccl_algos::allpairs_all_reduce(ranks).unwrap();
        compile(&p, &CompileOptions::default()).unwrap()
    }

    fn kill_plan_at(rank: usize, step: usize) -> FaultPlan {
        FaultPlan {
            seed: 0,
            specs: vec![FaultSpec {
                site: FaultSite::Block { rank, tb: 0, step },
                kind: FaultKind::KillBlock,
            }],
        }
    }

    fn kill_plan(rank: usize) -> FaultPlan {
        kill_plan_at(rank, 0)
    }

    #[test]
    fn clean_run_accepts_first_attempt() {
        let ir = ring_ir(4);
        let chunk_elems = 8;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 21);
        let report = execute_with_recovery(
            Run::new(&ir, &inputs, chunk_elems, &RunOptions::default()),
            None,
            &RecoveryPolicy::default(),
        )
        .unwrap();
        assert_eq!(report.attempts, 1);
        assert!(!report.used_fallback);
        assert_eq!(report.steps.len(), 1);
        assert_eq!(report.steps[0].decision, RecoveryDecision::Accept);
    }

    /// A one-shot kill breaks the first attempt; the retry runs clean and
    /// verifies, and the decision log shows retry-then-accept.
    #[test]
    fn transient_kill_is_retried_to_success() {
        let ir = ring_ir(4);
        let chunk_elems = 8;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 22);
        let plan = kill_plan(1);
        plan.validate(&ir).unwrap();
        let injector = FaultInjector::new(&plan);
        let opts = RunOptions {
            timeout: Duration::from_secs(5),
            ..RunOptions::default()
        };
        let report = execute_with_recovery(
            Run {
                injector: Some(&injector),
                ..Run::new(&ir, &inputs, chunk_elems, &opts)
            },
            None,
            &RecoveryPolicy {
                backoff: Duration::from_millis(1),
                ..RecoveryPolicy::default()
            },
        )
        .unwrap();
        assert_eq!(report.attempts, 2);
        assert!(!report.used_fallback);
        let decisions: Vec<RecoveryDecision> = report.steps.iter().map(|s| s.decision).collect();
        assert_eq!(
            decisions,
            vec![RecoveryDecision::Retry, RecoveryDecision::Accept]
        );
        assert!(report.steps[0].detail.contains("kill block r1 tb0 step0"));
        assert_eq!(report.metrics.counter(names::RECOVERY_ATTEMPTS, &[]), 2);
        assert_eq!(report.metrics.counter(names::RECOVERY_RETRIES, &[]), 1);
        assert_eq!(
            report.metrics.counter(names::RECOVERY_CANCELLATIONS, &[]),
            1
        );
        assert_eq!(report.metrics.counter(names::RECOVERY_FALLBACKS, &[]), 0);
        crate::reference::check_outputs(
            &ir.collective,
            &inputs,
            &report.outputs,
            chunk_elems,
            opts.reduce_op,
        )
        .unwrap();
    }

    /// A corrupting fault produces no error, only wrong numbers: the
    /// verification step must catch it and drive a retry.
    #[test]
    fn corruption_is_caught_by_verification() {
        let ir = ring_ir(4);
        let chunk_elems = 8;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 23);
        let plan = FaultPlan {
            seed: 0,
            specs: vec![FaultSpec {
                site: FaultSite::Delivery {
                    src: 0,
                    dst: 1,
                    channel: 0,
                    seq: 0,
                },
                // Flip the sign bit: large, unmistakable corruption.
                kind: FaultKind::CorruptPayload { bit: 31 },
            }],
        };
        plan.validate(&ir).unwrap();
        let injector = FaultInjector::new(&plan);
        let report = execute_with_recovery(
            Run {
                injector: Some(&injector),
                ..Run::new(&ir, &inputs, chunk_elems, &RunOptions::default())
            },
            None,
            &RecoveryPolicy {
                backoff: Duration::from_millis(1),
                ..RecoveryPolicy::default()
            },
        )
        .unwrap();
        assert_eq!(report.attempts, 2);
        assert_eq!(report.steps[0].decision, RecoveryDecision::Retry);
        assert!(report.steps[0]
            .detail
            .contains("output verification failed"));
    }

    /// With no retry budget, a transient failure degrades to the
    /// fallback algorithm, whose (clean) run is accepted.
    #[test]
    fn fallback_runs_when_retries_are_exhausted() {
        let ir = ring_ir(4);
        let fb = allpairs_ir(4);
        let chunk_elems = 8;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 24);
        let plan = kill_plan(2);
        let injector = FaultInjector::new(&plan);
        let opts = RunOptions {
            timeout: Duration::from_secs(5),
            ..RunOptions::default()
        };
        let report = execute_with_recovery(
            Run {
                injector: Some(&injector),
                ..Run::new(&ir, &inputs, chunk_elems, &opts)
            },
            Some(&fb),
            &RecoveryPolicy {
                max_retries: 0,
                backoff: Duration::from_millis(1),
                ..RecoveryPolicy::default()
            },
        )
        .unwrap();
        assert!(report.used_fallback);
        assert_eq!(report.attempts, 2);
        let decisions: Vec<RecoveryDecision> = report.steps.iter().map(|s| s.decision).collect();
        assert_eq!(
            decisions,
            vec![RecoveryDecision::Fallback, RecoveryDecision::Accept]
        );
    }

    /// Permanent errors (structural rejections) must not be retried.
    #[test]
    fn permanent_errors_fail_fast() {
        let ir = ring_ir(2);
        let err = execute_with_recovery(
            Run::new(
                &ir,
                &[vec![0.0; 3]], // wrong rank count
                4,
                &RunOptions::default(),
            ),
            None,
            &RecoveryPolicy::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::InputShape { .. }));
    }

    /// A fallback implementing a different collective is rejected by name.
    #[test]
    fn mismatched_fallback_is_rejected() {
        let ir = ring_ir(4);
        let p = msccl_algos::ring_all_gather_program(4, 1).unwrap();
        let fb = compile(&p, &CompileOptions::default()).unwrap();
        let inputs = crate::reference::random_inputs(&ir, 4, 25);
        let err = execute_with_recovery(
            Run::new(&ir, &inputs, 4, &RunOptions::default()),
            Some(&fb),
            &RecoveryPolicy::default(),
        )
        .unwrap_err();
        let RuntimeError::InvalidOptions { message } = &err else {
            panic!("expected InvalidOptions, got {err:?}");
        };
        assert!(message.contains("fallback"));
    }

    /// The whole-recovery deadline is a budget: when what remains cannot
    /// cover the next backoff, the loop fails fast with a structured,
    /// permanent error instead of sleeping past its own deadline.
    #[test]
    fn budget_smaller_than_backoff_fails_fast() {
        let ir = ring_ir(4);
        let chunk_elems = 8;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 29);
        let injector = FaultInjector::new(&kill_plan(1));
        let opts = RunOptions {
            timeout: Duration::from_secs(5),
            deadline: Some(Duration::from_millis(200)),
            ..RunOptions::default()
        };
        let started = Instant::now();
        let err = execute_with_recovery(
            Run {
                injector: Some(&injector),
                ..Run::new(&ir, &inputs, chunk_elems, &opts)
            },
            None,
            &RecoveryPolicy {
                // Capped at MAX_BACKOFF and jittered, the first backoff
                // is at least 375 ms: no 200 ms budget can cover it, so
                // the decision comes right after the first (fast) failed
                // attempt.
                backoff: Duration::from_secs(3600),
                ..RecoveryPolicy::default()
            },
        )
        .unwrap_err();
        let RuntimeError::RecoveryBudgetExhausted {
            attempts,
            next_backoff_ms,
            remaining_ms,
            last_error,
        } = &err
        else {
            panic!("expected RecoveryBudgetExhausted, got {err:?}");
        };
        assert_eq!(*attempts, 1);
        assert!(*next_backoff_ms > *remaining_ms);
        assert!(last_error.contains("kill block"));
        assert!(!err.is_transient(), "budget exhaustion is permanent");
        assert!(
            started.elapsed() < MAX_BACKOFF.mul_f64(0.75),
            "must fail fast, not sleep out the backoff"
        );
    }

    /// Backoff delays are deterministic in the seed, jittered within
    /// ±25%, and capped by `MAX_BACKOFF` even at absurd attempt counts.
    #[test]
    fn backoff_is_jittered_capped_and_deterministic() {
        let policy = RecoveryPolicy {
            backoff: Duration::from_millis(100),
            jitter_seed: 42,
            ..RecoveryPolicy::default()
        };
        for attempt in 0..64 {
            let d = backoff_delay(&policy, attempt);
            assert_eq!(d, backoff_delay(&policy, attempt), "must be deterministic");
            let base = policy
                .backoff
                .saturating_mul(1u32 << u32::try_from(attempt.min(30)).unwrap())
                .min(MAX_BACKOFF);
            let lo = base.mul_f64(0.75);
            let hi = base.mul_f64(1.2500001);
            assert!(
                d >= lo && d <= hi,
                "attempt {attempt}: {d:?} not in [{lo:?}, {hi:?}]"
            );
            assert!(d <= MAX_BACKOFF.mul_f64(1.2500001));
        }
        // Different seeds actually move the delay (herd desync works).
        let other = RecoveryPolicy {
            jitter_seed: 43,
            ..policy.clone()
        };
        assert!((0..8).any(|a| backoff_delay(&policy, a) != backoff_delay(&other, a)));
        // Sub-4ns bases (quarter == 0) pass through unjittered rather
        // than dividing by zero.
        let tiny = RecoveryPolicy {
            backoff: Duration::from_nanos(2),
            ..RecoveryPolicy::default()
        };
        assert_eq!(backoff_delay(&tiny, 0), Duration::from_nanos(2));
    }

    /// The decision log exports as trace events.
    #[test]
    fn decisions_become_trace_events() {
        let ir = ring_ir(4);
        let chunk_elems = 4;
        let inputs = crate::reference::random_inputs(&ir, chunk_elems, 26);
        let plan = kill_plan(0);
        let injector = FaultInjector::new(&plan);
        let opts = RunOptions {
            timeout: Duration::from_secs(5),
            ..RunOptions::default()
        };
        let report = execute_with_recovery(
            Run {
                injector: Some(&injector),
                ..Run::new(&ir, &inputs, chunk_elems, &opts)
            },
            None,
            &RecoveryPolicy {
                backoff: Duration::from_millis(1),
                ..RecoveryPolicy::default()
            },
        )
        .unwrap();
        let trace = report.decision_trace();
        assert_eq!(trace.len(), report.steps.len());
        let csv = trace.to_csv();
        assert!(csv.contains("recovery"), "{csv}");
        assert!(csv.contains("retry"), "{csv}");
        assert!(csv.contains("accept"), "{csv}");
        let json = trace.to_chrome_json();
        assert!(json.contains("\"decision\":\"retry\""), "{json}");
    }
}
