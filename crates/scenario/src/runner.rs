//! Executes a scenario: N seeded repetitions of a traffic storm through
//! the simulator or the threaded runtime, under the scenario's fault
//! environment and recovery policy.
//!
//! # Determinism
//!
//! Every sampled quantity — arrival gaps, collective/size/tenant picks,
//! which repetitions fault and with what plan — derives from the
//! scenario seed through a fixed draw order: repetition `rep` owns the
//! stream `Splitmix64::new(mix(seed ^ rep))`, and each repetition draws
//! its fault rolls first, then per-op `(gap, collective, size, tenant)`
//! tuples. The rolls are drawn *unconditionally*, so turning the fault
//! environment on or off never shifts the traffic: a clean variant and a
//! straggler variant of the same seed issue the identical op sequence,
//! which is what makes their p99s comparable.
//!
//! On the sim engine the clock is virtual, so the whole report is
//! **bit-identical** across runs and `--parallel` thread counts (the
//! parallel engine's determinism contract extends to scenarios). On the
//! runtime engine the recovery decisions and counts are deterministic
//! but latencies are wall-clock measurements.
//!
//! # One recovery ladder
//!
//! Both engines run every op through the runtime's escalation ladder
//! ([`msccl_runtime::recover`]) under one policy: the runtime engine via
//! [`msccl_runtime::execute_with_recovery`] on the wall clock, the sim
//! engine over simulated attempts on a virtual clock. A sim attempt
//! costs its simulated time (clean attempts are cached); one that an
//! injected fault aborts or wedges at `t` costs `t` plus a detection
//! margin; a backoff costs the ladder's jittered delay. A fault plan is
//! one incident, so only an op's first attempt runs its plan, and a
//! completed attempt whose plan held a corrupting fault fails
//! verification. Persistent faults (stragglers, link spikes) are
//! environment, not events: they slow every sim attempt. The runtime's
//! ladder arms an op's injector for its first attempt only, so there
//! they slow the first attempt, and a retry runs at full speed.

use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

use msccl_algos::{build_by_name, AlgoSpec};
use msccl_faults::{
    FaultClass, FaultInjector, FaultKind, FaultPlan, FaultSite, FaultSpec, FaultUniverse,
};
use msccl_metrics::{names, MetricsSnapshot};
use msccl_runtime::{
    execute_with_recovery, recover, reference, Attempts, RecoveryPolicy, Run, RunOptions,
    RuntimeError,
};
use msccl_sim::{simulate, SimConfig, SimError};
use msccl_topology::Machine;
use mscclang::rng::{mix, Splitmix64};
use mscclang::{compile, CompileOptions, IrProgram};

use crate::format::{Arrival, Engine, Scenario, ScenarioError};
use crate::report::{RepStats, ScenarioReport};

/// What an engine hands back to [`run_scenario`]: per-op latencies,
/// per-rep stats, per-tenant op counts and the total bytes moved.
type EngineOutput = (Vec<f64>, Vec<RepStats>, Vec<usize>, u64);

/// Virtual microseconds between a failure and the recovery loop acting
/// on it (the detection margin a failed sim attempt costs).
const DETECT_MARGIN_US: f64 = 5.0;

/// Per-chunk element cap for the runtime engine, bounding wall-clock
/// cost when a scenario lists large sizes. The service traffic driver
/// ([`crate::service`]) applies the same cap so a scenario drives the
/// daemon with exactly the sizes the local engines would run.
pub(crate) const MAX_CHUNK_ELEMS: usize = 1 << 16;

/// Runner knobs that come from the command line, not the scenario file.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Worker threads for the sim engine's parallel backend; `None`
    /// runs the serial oracle. Reports are bit-identical either way.
    pub threads: Option<usize>,
    /// Directory scenario-relative paths (`plan_file`) resolve against.
    pub base_dir: Option<std::path::PathBuf>,
    /// Directory the runtime engine writes black-box dumps into when an
    /// op exhausts the recovery ladder and fails outright. `None` (the
    /// default) writes nothing; the sim engine never dumps. Dump paths
    /// land in each repetition's report entry, ready for `msccl doctor`.
    pub blackbox_dir: Option<std::path::PathBuf>,
}

/// One compiled collective from the scenario's traffic mix.
struct Compiled {
    name: String,
    ir: IrProgram,
}

/// Everything `run` needs that `check` also validates: the machine and
/// the compiled traffic mix (plus fallback, last).
struct Preflight {
    machine: Machine,
    /// Compiled collectives, indexed like `traffic.collectives`; the
    /// fallback (when configured) is appended at the end.
    programs: Vec<Compiled>,
    /// The fallback's index in `programs`, when configured.
    fallback: Option<usize>,
    /// The environment plan applied to every attempt of every op:
    /// persistent stragglers and link spikes (`None` when there are none).
    env: Option<FaultPlan>,
    /// The explicit per-fault plan, when `plan_file` is set.
    file_plan: Option<FaultPlan>,
}

fn invalid(m: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid(m.into())
}

fn engine_err(m: impl std::fmt::Display) -> ScenarioError {
    ScenarioError::Engine(m.to_string())
}

/// Builds the persistent-fault environment plan for `machine`.
fn env_plan(sc: &Scenario, machine: &Machine) -> Result<Option<FaultPlan>, ScenarioError> {
    let (f, n) = (&sc.faults, machine.num_ranks());
    let permille = |factor: f64| (factor * 1000.0).round() as u32;
    let mut specs = Vec::new();
    if let Some(rank) = f.straggler_rank {
        if rank >= n {
            return Err(invalid(format!(
                "straggler_rank {rank} out of range for {n} ranks"
            )));
        }
        let permille = permille(f.straggler_factor);
        let kind = FaultKind::StragglerRank { permille };
        specs.push(FaultSpec {
            site: FaultSite::Rank { rank },
            kind,
        });
    }
    if let Some((src, dst)) = f.spike_link {
        if src >= n || dst >= n {
            return Err(invalid(format!(
                "spike_link {src}->{dst} out of range for {n} ranks"
            )));
        }
        let permille = permille(f.spike_factor);
        let kind = FaultKind::LinkLatencySpike { permille };
        specs.push(FaultSpec {
            site: FaultSite::Link { src, dst },
            kind,
        });
    }
    Ok((!specs.is_empty()).then_some(FaultPlan {
        seed: sc.seed,
        specs,
    }))
}

/// Compiles the scenario's traffic mix and validates everything that can
/// fail before the first repetition: machine spec, algorithm names and
/// shapes, fault sites, the plan file. This is the whole of
/// `msccl scenario check`.
fn preflight(sc: &Scenario, cfg: &RunConfig) -> Result<Preflight, ScenarioError> {
    let machine = msccl_topology::parse_machine(&sc.machine).map_err(invalid)?;
    let spec = AlgoSpec {
        ranks: Some(machine.num_ranks()),
        nodes: machine.num_nodes(),
        gpus: machine.gpus_per_node(),
        channels: sc.traffic.channels,
        chunks: sc.traffic.chunks,
        root: 0,
    };
    let mut names: Vec<&String> = sc.traffic.collectives.iter().collect();
    if let Some(fb) = &sc.recovery.fallback {
        names.push(fb);
    }
    let mut programs = Vec::with_capacity(names.len());
    for name in names {
        let program =
            build_by_name(name, &spec).map_err(|e| invalid(format!("collective '{name}': {e}")))?;
        let ir = compile(&program, &CompileOptions::default())
            .map_err(|e| invalid(format!("collective '{name}': {e}")))?;
        if ir.num_ranks() != machine.num_ranks() {
            return Err(invalid(format!(
                "collective '{name}' spans {} ranks but machine '{}' has {}",
                ir.num_ranks(),
                sc.machine,
                machine.num_ranks()
            )));
        }
        programs.push(Compiled {
            name: name.clone(),
            ir,
        });
    }
    let env = env_plan(sc, &machine)?;
    let file_plan = sc
        .faults
        .plan_file
        .as_ref()
        .map(|p| -> Result<FaultPlan, ScenarioError> {
            let path = match &cfg.base_dir {
                Some(dir) => dir.join(p),
                None => std::path::PathBuf::from(p),
            };
            let text = std::fs::read_to_string(&path)
                .map_err(|e| invalid(format!("plan_file {}: {e}", path.display())))?;
            FaultPlan::parse(&text).map_err(|e| invalid(format!("plan_file {p}: {e}")))
        })
        .transpose()?;
    // Every environment site and plan-file site must validate against
    // every program it can strike (the environment strikes all of them).
    for c in &programs {
        if let Some(env) = &env {
            env.validate(&c.ir)
                .map_err(|e| invalid(format!("fault environment vs '{}': {e}", c.name)))?;
        }
        if let Some(fp) = &file_plan {
            fp.validate(&c.ir)
                .map_err(|e| invalid(format!("plan_file vs '{}': {e}", c.name)))?;
        }
    }
    Ok(Preflight {
        machine,
        fallback: sc.recovery.fallback.as_ref().map(|_| programs.len() - 1),
        programs,
        env,
        file_plan,
    })
}

/// Validates a scenario without running it (the `scenario check`
/// command): parse-level checks happened in [`Scenario::parse`]; this
/// adds machine resolution, compilation of every named collective, and
/// fault-site validation.
///
/// # Errors
///
/// Returns [`ScenarioError::Invalid`] naming the first problem.
pub fn check_scenario(sc: &Scenario, cfg: &RunConfig) -> Result<(), ScenarioError> {
    preflight(sc, cfg).map(|_| ())
}

/// The per-op draws, in their fixed stream order.
pub(crate) struct OpDraw {
    pub(crate) gap_roll: f64,
    pub(crate) coll: usize,
    pub(crate) size: usize,
    pub(crate) tenant_roll: u64,
    /// Extra entropy for the runtime engine's input buffers.
    pub(crate) input_seed: u64,
}

/// The per-repetition draws: fault rolls first, then each op's tuple.
pub(crate) struct RepDraw {
    pub(crate) faulted: bool,
    pub(crate) fault_op: usize,
    pub(crate) plan_seed: u64,
    pub(crate) ops: Vec<OpDraw>,
}

pub(crate) fn draw_rep(sc: &Scenario, rep: usize) -> RepDraw {
    let mut rng = Splitmix64::new(mix(sc.seed ^ rep as u64));
    // Unconditional draws: the traffic stream must not shift when the
    // fault environment is toggled.
    let fault_roll = rng.unit();
    let fault_op_roll = rng.next_u64();
    let fault_seed_roll = rng.next_u64();
    let faulted = sc.faults.probability > 0.0 && fault_roll < sc.faults.probability;
    let ops = (0..sc.traffic.ops)
        .map(|_| OpDraw {
            gap_roll: rng.unit(),
            coll: rng.below(sc.traffic.collectives.len() as u64) as usize,
            size: rng.below(sc.traffic.sizes.len() as u64) as usize,
            tenant_roll: rng.next_u64(),
            input_seed: rng.next_u64(),
        })
        .collect();
    RepDraw {
        faulted,
        fault_op: (fault_op_roll % sc.traffic.ops as u64) as usize,
        plan_seed: mix(sc.faults.fault_seed.unwrap_or(0) ^ fault_seed_roll),
        ops,
    }
}

/// The arrival gap before an op, microseconds of virtual time.
fn gap_us(arrival: Arrival, mean: f64, roll: f64) -> f64 {
    match arrival {
        // Inverse-CDF exponential; `roll` < 1.0 by construction.
        Arrival::Poisson => -mean * (1.0 - roll).ln(),
        Arrival::Uniform => 2.0 * mean * roll,
        Arrival::Fixed => mean,
    }
}

/// The fault plan op `i` of a repetition first runs under: the
/// persistent environment plus the repetition's one-shot faults (from
/// the plan file or generated; preflight validated both sources). `None`
/// for every op but the repetition's faulted one.
fn faulted_plan(pre: &Preflight, draw: &RepDraw, i: usize, coll: usize) -> Option<FaultPlan> {
    if !draw.faulted || i != draw.fault_op {
        return None;
    }
    let mut specs = pre.env.as_ref().map_or_else(Vec::new, |e| e.specs.clone());
    match &pre.file_plan {
        Some(fp) => specs.extend(&fp.specs),
        None => {
            let universe = FaultUniverse::from_ir(&pre.programs[coll].ir);
            specs.extend(FaultPlan::generate(draw.plan_seed, &universe).specs);
        }
    }
    Some(FaultPlan {
        seed: draw.plan_seed,
        specs,
    })
}

/// Runs every repetition on either engine: `serve` runs op `i` under
/// its repetition's recovery policy and returns its service time (µs)
/// and the ladder's metrics, `None` when the op failed. With `queued`
/// (the sim's virtual clock) ops arrive on the arrival process and
/// serialize on the fabric; without it (the runtime's wall clock) a
/// latency is the op's own duration.
fn run_reps(
    sc: &Scenario,
    queued: bool,
    mut serve: impl FnMut(
        &RecoveryPolicy,
        &RepDraw,
        usize,
        &mut RepStats,
    ) -> Result<(f64, Option<MetricsSnapshot>), ScenarioError>,
) -> Result<EngineOutput, ScenarioError> {
    let mut latencies = Vec::with_capacity(sc.repetitions * sc.traffic.ops);
    let mut reps = Vec::with_capacity(sc.repetitions);
    let mut tenant_counts = vec![0usize; sc.traffic.tenants.len()];
    let mut total_bytes = 0u64;
    for rep in 0..sc.repetitions {
        let draw = draw_rep(sc, rep);
        let policy = RecoveryPolicy {
            max_retries: sc.recovery.retries,
            backoff: Duration::from_millis(sc.recovery.backoff_ms),
            jitter_seed: mix(sc.seed ^ rep as u64),
            ..RecoveryPolicy::default()
        };
        let mut stats = RepStats {
            faulted: draw.faulted,
            ..RepStats::default()
        };
        let mut arrival = 0.0f64;
        let mut finish = 0.0f64;
        for (i, op) in draw.ops.iter().enumerate() {
            total_bytes += sc.traffic.sizes[op.size];
            if !tenant_counts.is_empty() {
                let n = tenant_counts.len() as u64;
                tenant_counts[(op.tenant_roll % n) as usize] += 1;
            }
            let (service_us, metrics) = serve(&policy, &draw, i, &mut stats)?;
            match metrics {
                Some(m) => {
                    stats.retries += m.counter_total(names::RECOVERY_RETRIES);
                    stats.fallbacks += m.counter_total(names::RECOVERY_FALLBACKS);
                }
                None => stats.failures += 1,
            }
            if queued {
                arrival += gap_us(sc.traffic.arrival, sc.traffic.mean_gap_us, op.gap_roll);
                finish = arrival.max(finish) + service_us;
                latencies.push(finish - arrival);
            } else {
                finish += service_us;
                latencies.push(service_us);
            }
        }
        stats.makespan_us = finish;
        reps.push(stats);
    }
    Ok((latencies, reps, tenant_counts, total_bytes))
}

/// The simulator as a back end of the recovery ladder
/// ([`msccl_runtime::recover`]), serving one op at a time: the sim engine
/// runs every op through it.
pub struct SimEngine<'a> {
    /// The programs ops run; a fallback attempt runs `programs[fallback]`.
    pub programs: Vec<&'a IrProgram>,
    /// The fallback's index in `programs`, when there is one.
    pub fallback: Option<usize>,
    /// Machine and backend, with the persistent environment as fault plan.
    pub base: SimConfig,
    /// Clean (environment-only) service time of `(program, size)`.
    pub clean_cache: HashMap<(usize, u64), f64>,
    /// The op in flight: program, size and the plan its first attempt
    /// takes (injected faults are one-shot).
    pub op: (usize, u64, Option<FaultPlan>),
}

/// A failed sim attempt, and whether another attempt can help: an
/// injected fault that aborted or wedged the run, or a rejected
/// verification, is transient; any other engine error is not.
pub struct SimFailure(pub ScenarioError, pub bool);

impl From<RuntimeError> for SimFailure {
    fn from(e: RuntimeError) -> Self {
        SimFailure(engine_err(&e), e.is_transient())
    }
}

impl fmt::Display for SimFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl Attempts<f64> for SimEngine<'_> {
    /// The corrupting fault a completed attempt ran under, if any.
    type Output = Option<FaultSpec>;
    type Error = SimFailure;

    fn attempt(
        &mut self,
        fallback: bool,
        _: Option<Duration>,
        clock: &mut f64,
    ) -> Result<Option<FaultSpec>, SimFailure> {
        let permanent = |e: SimError| SimFailure(engine_err(e), false);
        let coll = self.fallback.filter(|_| fallback).unwrap_or(self.op.0);
        let (ir, size) = (self.programs[coll], self.op.1);
        let Some(plan) = self.op.2.take() else {
            let us = match self.clean_cache.get(&(coll, size)) {
                Some(&us) => us,
                None => simulate(ir, &self.base, size).map_err(permanent)?.total_us,
            };
            self.clean_cache.insert((coll, size), us);
            *clock += us;
            return Ok(None);
        };
        let corrupting = plan
            .specs
            .iter()
            .find(|s| s.kind.class() == FaultClass::Corrupting)
            .copied();
        let cfg = SimConfig {
            fault_plan: Some(plan),
            ..self.base.clone()
        };
        match simulate(ir, &cfg, size) {
            Ok(report) => {
                *clock += report.total_us;
                Ok(corrupting)
            }
            Err(e @ (SimError::InjectedFault { at_us, .. } | SimError::Stuck { at_us, .. })) => {
                *clock += at_us.as_f64() + DETECT_MARGIN_US;
                Err(SimFailure(engine_err(e), true))
            }
            Err(e) => Err(permanent(e)),
        }
    }

    fn is_transient(err: &SimFailure) -> bool {
        err.1
    }

    fn verify(&self, _: bool, corrupting: &Option<FaultSpec>) -> Result<(), String> {
        match corrupting {
            Some(spec) => Err(format!("a corrupting fault struck: {spec}")),
            None => Ok(()),
        }
    }
}

/// Runs every repetition on the simulator (see the module docs).
fn run_sim(
    sc: &Scenario,
    pre: &Preflight,
    threads: Option<usize>,
) -> Result<EngineOutput, ScenarioError> {
    let mut engine = SimEngine {
        programs: pre.programs.iter().map(|c| &c.ir).collect(),
        fallback: pre.fallback,
        base: SimConfig {
            fault_plan: pre.env.clone(),
            parallel: threads,
            ..SimConfig::new(pre.machine.clone())
        },
        clean_cache: HashMap::new(),
        op: (0, 0, None),
    };
    let has_fallback = engine.fallback.is_some();
    run_reps(sc, true, |policy, draw, i, _| {
        let op = &draw.ops[i];
        let plan = faulted_plan(pre, draw, i, op.coll);
        engine.op = (op.coll, sc.traffic.sizes[op.size], plan);
        let mut clock = 0.0;
        let metrics = match recover(&mut engine, &mut clock, has_fallback, policy, None) {
            Ok(report) => Some(report.metrics),
            Err(SimFailure(e, false)) => return Err(e),
            Err(_) => None,
        };
        Ok((clock, metrics))
    })
}

/// Runs every repetition on the threaded runtime: decisions and counts
/// are deterministic, wall-clock timings are not.
fn run_runtime(
    sc: &Scenario,
    pre: &Preflight,
    blackbox_dir: Option<&std::path::Path>,
) -> Result<EngineOutput, ScenarioError> {
    let fallback_ir = pre.fallback.map(|fb| &pre.programs[fb].ir);
    let opts = RunOptions {
        blackbox_dir: blackbox_dir.map(Into::into),
        ..RunOptions::default()
    };
    run_reps(sc, false, |policy, draw, i, stats| {
        let op = &draw.ops[i];
        let ir = &pre.programs[op.coll].ir;
        let size = sc.traffic.sizes[op.size];
        let chunk_elems =
            (size as usize / (ir.collective.in_chunks() * 4)).clamp(1, MAX_CHUNK_ELEMS);
        let inputs = reference::random_inputs(ir, chunk_elems, op.input_seed);
        let plan = faulted_plan(pre, draw, i, op.coll).or_else(|| pre.env.clone());
        let injector = plan.as_ref().map(FaultInjector::new);
        let started = Instant::now();
        let result = execute_with_recovery(
            Run {
                injector: injector.as_ref(),
                ..Run::new(ir, &inputs, chunk_elems, &opts)
            },
            fallback_ir,
            policy,
        );
        let metrics = match result {
            Ok(report) => Some(report.metrics),
            // The ladder ran dry: the op failed, the storm goes on.
            // Keep the black-box path (if a dump directory was given)
            // so the report points straight at the evidence.
            Err(e) => {
                if let Some(p) = e.blackbox_path() {
                    stats.blackboxes.push(p.display().to_string());
                }
                None
            }
        };
        Ok((started.elapsed().as_secs_f64() * 1e6, metrics))
    })
}

/// Runs a scenario end to end and evaluates its SLOs.
///
/// # Errors
///
/// Returns [`ScenarioError::Invalid`] for problems preflight catches
/// (machine, collectives, fault sites, plan file) and
/// [`ScenarioError::Engine`] when an engine call fails outside the
/// modeled fault path. SLO failures are **not** errors: they are
/// reported in [`ScenarioReport::passed`].
pub fn run_scenario(sc: &Scenario, cfg: &RunConfig) -> Result<ScenarioReport, ScenarioError> {
    let pre = preflight(sc, cfg)?;
    let (engine, (latencies, reps, tenant_counts, total_bytes)) = match sc.engine {
        Engine::Sim => ("sim", run_sim(sc, &pre, cfg.threads)?),
        Engine::Runtime => (
            "runtime",
            run_runtime(sc, &pre, cfg.blackbox_dir.as_deref())?,
        ),
    };
    let tenant_ops = sc
        .traffic
        .tenants
        .iter()
        .cloned()
        .zip(tenant_counts)
        .collect();
    Ok(ScenarioReport::build(
        &sc.name,
        engine,
        &sc.machine,
        sc.seed,
        &latencies,
        total_bytes,
        tenant_ops,
        reps,
        &sc.slo,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_scenario() -> Scenario {
        Scenario::parse(
            r#"
[scenario]
name = "unit"
seed = 11
repetitions = 3
engine = "sim"
machine = "custom:1x4"

[traffic]
collectives = ["allpairs-allreduce", "ring-allreduce"]
sizes = ["16KB", "64KB"]
tenants = ["a", "b"]
ops = 5
arrival = "poisson"
mean_gap_us = 30

[recovery]
retries = 2
backoff_ms = 1
"#,
        )
        .unwrap()
    }

    #[test]
    fn sim_reports_are_bit_identical_across_thread_counts() {
        let sc = base_scenario();
        let serial = run_scenario(&sc, &RunConfig::default()).unwrap();
        for threads in [2, 4] {
            let parallel = run_scenario(
                &sc,
                &RunConfig {
                    threads: Some(threads),
                    ..RunConfig::default()
                },
            )
            .unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
            assert_eq!(serial.to_json(), parallel.to_json());
        }
    }

    #[test]
    fn faults_trigger_the_virtual_ladder() {
        let mut sc = base_scenario();
        sc.faults.probability = 1.0;
        sc.faults.fault_seed = Some(5);
        let report = run_scenario(&sc, &RunConfig::default()).unwrap();
        assert_eq!(
            report.metric_value("faulted_reps").unwrap(),
            sc.repetitions as f64
        );
        // Same seed, same report — including every recovery decision.
        let again = run_scenario(&sc, &RunConfig::default()).unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn stragglers_degrade_latency_deterministically() {
        let clean = run_scenario(&base_scenario(), &RunConfig::default()).unwrap();
        let mut slow = base_scenario();
        slow.faults.straggler_rank = Some(1);
        slow.faults.straggler_factor = 4.0;
        let straggled = run_scenario(&slow, &RunConfig::default()).unwrap();
        // The traffic stream is identical (unconditional draws), so the
        // only difference is the straggler's slowdown.
        assert_eq!(clean.ops, straggled.ops);
        assert!(
            straggled.p99_us > clean.p99_us,
            "straggler p99 {} <= clean p99 {}",
            straggled.p99_us,
            clean.p99_us
        );
    }

    #[test]
    fn check_rejects_bad_shapes() {
        let mut sc = base_scenario();
        sc.machine = "warpdrive".into();
        assert!(matches!(
            check_scenario(&sc, &RunConfig::default()),
            Err(ScenarioError::Invalid(_))
        ));
        let mut sc = base_scenario();
        sc.traffic.collectives = vec!["hcm-allgather".into()]; // needs 8 ranks
        assert!(check_scenario(&sc, &RunConfig::default()).is_err());
        let mut sc = base_scenario();
        sc.faults.straggler_rank = Some(99);
        sc.faults.straggler_factor = 2.0;
        assert!(check_scenario(&sc, &RunConfig::default()).is_err());
    }

    #[test]
    fn runtime_engine_counts_decisions() {
        let mut sc = base_scenario();
        sc.engine = Engine::Runtime;
        sc.repetitions = 1;
        sc.traffic.ops = 2;
        sc.traffic.sizes = vec![4096];
        let report = run_scenario(&sc, &RunConfig::default()).unwrap();
        assert_eq!(report.ops, 2);
        assert!(report.verified);
        assert!(report.passed);
    }
}
