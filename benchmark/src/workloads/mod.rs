//! The workloads. Each one is set up from a seed, driven in timed
//! rounds, then checked against an oracle outside the timed region; in a
//! traced run it also probes the layers it exercises.
//!
//! A round runs whole *batches* until its time budget is used: a batch
//! is the workload's unit of fixed composition (one pass over the
//! compile list, one sweep of simulations, a block of requests), so two
//! rounds always measure the same mix of work however long they took.

mod compile;
mod exec;
mod serve;
mod sim;

use std::time::Duration;

use crate::host::Host;
use crate::metrics::LayerValues;
use crate::stats::{percentile, sorted};
use crate::trace::Span;

/// What one timed round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Whether spans were recorded during this round.
    pub traced: bool,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed in flight (transport error, non-200,
    /// shed, runtime or simulator error). Oracle mismatches are counted
    /// later by [`Workload::check`].
    pub failed: u64,
    /// Wall time from the first operation's start to the last one's end.
    pub elapsed_s: f64,
    /// Latency of every operation that completed, as its caller saw it.
    pub lat_us: Vec<f64>,
}

impl Round {
    /// Median latency of the round, µs.
    #[must_use]
    pub fn p50_us(&self) -> f64 {
        percentile(&sorted(self.lat_us.clone()), 50.0)
    }

    /// Completed operations per second of the round.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            (self.ops - self.failed) as f64 / self.elapsed_s
        } else {
            0.0
        }
    }
}

/// When a drive of a workload's batch loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Whole batches until this much time is used (timed rounds).
    Time(Duration),
    /// Exactly this many batches (warm-up: a fixed amount of work, so
    /// that set-up time moves with the speed of the program under test).
    Batches(usize),
}

impl Limit {
    /// Whether another batch should start, `done` batches in.
    fn more(self, started: std::time::Instant, done: usize) -> bool {
        match self {
            Limit::Time(budget) => started.elapsed() < budget,
            Limit::Batches(n) => done < n,
        }
    }
}

/// The oracle's verdict on everything the timed rounds produced.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Outputs compared against the oracle.
    pub checked: u64,
    /// Outputs that differ from it.
    pub mismatched: u64,
    /// What differed (first few).
    pub notes: Vec<String>,
}

impl Verdict {
    pub fn expect(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.mismatched += 1;
            if self.notes.len() < 5 {
                self.notes.push(note());
            }
        }
    }
}

/// One workload, set up and ready to be driven.
pub trait Workload {
    /// Runs whole batches for about `budget`, recording spans when
    /// `traced`.
    fn round(&mut self, budget: Duration, traced: bool) -> Round;

    /// Checks every output of the rounds so far against the oracle.
    /// Runs outside the timed region.
    fn check(&mut self) -> Verdict;

    /// Traced runs only: measures this workload's layers from outside
    /// (replays, paired probes, counters the layers expose) and fills in
    /// their per-layer metrics.
    fn probe(&mut self, rounds: &[Round], m: &mut LayerValues);

    /// The spans of the traced rounds, handed over once at the end.
    fn take_spans(&mut self) -> Vec<Span>;

    /// Stops whatever set-up started (daemon threads, connections).
    fn teardown(self: Box<Self>) {}
}

/// Sets up the workload called `name`: builds its inputs from `seed`,
/// starts what it needs and warms it up. The caller times this call —
/// it is the workload's `setup_s`.
///
/// # Errors
///
/// Returns a message for an unknown name or a set-up that failed.
pub fn setup(name: &str, seed: u64, host: &Host) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "serve-hot" => Box::new(serve::Serve::setup(serve::Mix::Hot, seed, host)?),
        "serve-churn" => Box::new(serve::Serve::setup(serve::Mix::Churn, seed, host)?),
        "exec-alpha" => Box::new(exec::Exec::setup(exec::ALPHA, seed)?),
        "exec-beta" => Box::new(exec::Exec::setup(exec::BETA, seed)?),
        "compile-scale" => Box::new(compile::CompileScale::setup()?),
        "sim-scale" => Box::new(sim::SimScale::setup(sim::Engine::Serial)?),
        "sim-scale-par2" => Box::new(sim::SimScale::setup(sim::Engine::Parallel2)?),
        "sim-sweep" => Box::new(sim::SimSweep::setup()?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Writes the pinned oracle tables under `dir` (the `pin` subcommand).
///
/// # Errors
///
/// Returns the first build, compile, simulation or I/O error.
pub fn pin_expected(dir: &std::path::Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |file: &str, text: String| {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write("compile-scale.txt", compile::pin()?)?;
    write("sim.txt", sim::pin()?)
}

/// `part / whole`, 0 when `whole` is 0.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Median of `f` over three calls, µs.
fn median_us_of_3<R>(mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    crate::stats::median(&times)
}
