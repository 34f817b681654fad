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
//! # The virtual recovery ladder
//!
//! The simulator executes one attempt; recovery is *modeled* on top of
//! its outcome, mirroring the runtime's ladder
//! ([`msccl_runtime::execute_with_recovery`]). When a faulted attempt
//! fails at virtual time `t`: with no retry budget the op falls back (one
//! fallback execution) or fails; with budget, a retry charges
//! detection + backoff + a full clean run. Injected
//! faults are one-shot, so the re-attempt runs clean — exactly the
//! runtime's semantics. Persistent faults (stragglers, link spikes) are
//! environment, not events: they slow every attempt, including the
//! "clean" ones.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use msccl_algos::{build_by_name, AlgoSpec};
use msccl_faults::{FaultInjector, FaultKind, FaultPlan, FaultSite, FaultSpec, FaultUniverse};
use msccl_runtime::{execute_with_recovery, reference, RecoveryPolicy, Run, RunOptions};
use msccl_sim::{simulate, SimConfig, SimError};
use msccl_topology::Machine;
use mscclang::rng::{mix, Splitmix64};
use mscclang::{compile, CompileOptions, IrProgram};

use crate::format::{Arrival, Engine, FaultEnv, Scenario, ScenarioError};
use crate::report::{RepStats, ScenarioReport};

/// What an engine hands back to [`run_scenario`]: per-op latencies,
/// per-rep stats, per-tenant op counts and the total bytes moved.
type EngineOutput = (Vec<f64>, Vec<RepStats>, Vec<usize>, u64);

/// Virtual microseconds between a failure and the recovery loop acting
/// on it (detection margin charged by the modeled ladder).
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
    /// The environment plan applied to every attempt of every op:
    /// persistent stragglers and link spikes.
    env_specs: Vec<FaultSpec>,
    /// The explicit per-fault plan, when `plan_file` is set.
    file_plan: Option<FaultPlan>,
}

fn invalid(m: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid(m.into())
}

fn engine_err(m: impl std::fmt::Display) -> ScenarioError {
    ScenarioError::Engine(m.to_string())
}

/// Builds the persistent-fault environment specs for `machine`.
fn env_specs(f: &FaultEnv, machine: &Machine) -> Result<Vec<FaultSpec>, ScenarioError> {
    let mut specs = Vec::new();
    if let Some(rank) = f.straggler_rank {
        if rank >= machine.num_ranks() {
            return Err(invalid(format!(
                "straggler_rank {rank} out of range for {} ranks",
                machine.num_ranks()
            )));
        }
        specs.push(FaultSpec {
            site: FaultSite::Rank { rank },
            kind: FaultKind::StragglerRank {
                permille: (f.straggler_factor * 1000.0).round() as u32,
            },
        });
    }
    if let Some((src, dst)) = f.spike_link {
        if src >= machine.num_ranks() || dst >= machine.num_ranks() {
            return Err(invalid(format!(
                "spike_link {src}->{dst} out of range for {} ranks",
                machine.num_ranks()
            )));
        }
        specs.push(FaultSpec {
            site: FaultSite::Link { src, dst },
            kind: FaultKind::LinkLatencySpike {
                permille: (f.spike_factor * 1000.0).round() as u32,
            },
        });
    }
    Ok(specs)
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
    let env_specs = env_specs(&sc.faults, &machine)?;
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
        if !env_specs.is_empty() {
            let probe = FaultPlan {
                seed: sc.seed,
                specs: env_specs.clone(),
            };
            probe
                .validate(&c.ir)
                .map_err(|e| invalid(format!("fault environment vs '{}': {e}", c.name)))?;
        }
        if let Some(fp) = &file_plan {
            fp.validate(&c.ir)
                .map_err(|e| invalid(format!("plan_file vs '{}': {e}", c.name)))?;
        }
    }
    Ok(Preflight {
        machine,
        programs,
        env_specs,
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

struct SimCtx<'a> {
    sc: &'a Scenario,
    pre: &'a Preflight,
    threads: Option<usize>,
    /// Service time of a clean (environment-only) simulation of
    /// `(collective, size)`. Cached — the mix is small and every
    /// repetition re-uses the same attempts.
    clean_cache: HashMap<(usize, u64), f64>,
}

impl SimCtx<'_> {
    fn sim_config(&self, plan: Option<FaultPlan>) -> SimConfig {
        let mut cfg = SimConfig::new(self.pre.machine.clone());
        if let Some(threads) = self.threads {
            cfg = cfg.with_parallel(threads);
        }
        if let Some(plan) = plan {
            cfg = cfg.with_faults(plan);
        }
        cfg
    }

    fn env_plan(&self) -> Option<FaultPlan> {
        if self.pre.env_specs.is_empty() {
            None
        } else {
            Some(FaultPlan {
                seed: self.sc.seed,
                specs: self.pre.env_specs.clone(),
            })
        }
    }

    /// Simulates `(coll, size)` under the environment only.
    fn clean(&mut self, coll: usize, size: u64) -> Result<f64, ScenarioError> {
        if let Some(&us) = self.clean_cache.get(&(coll, size)) {
            return Ok(us);
        }
        let cfg = self.sim_config(self.env_plan());
        let report = simulate(&self.pre.programs[coll].ir, &cfg, size).map_err(engine_err)?;
        self.clean_cache.insert((coll, size), report.total_us);
        Ok(report.total_us)
    }
}

/// The outcome of one op's (possibly recovered) virtual execution.
struct OpOutcome {
    service_us: f64,
    retries: u64,
    fallbacks: u64,
    failures: u64,
}

/// Runs one op on the sim engine, modeling the recovery ladder on
/// failure (see the module docs).
fn sim_op(
    ctx: &mut SimCtx<'_>,
    coll: usize,
    size: u64,
    fault_plan: Option<&FaultPlan>,
) -> Result<OpOutcome, ScenarioError> {
    let clean_us = ctx.clean(coll, size)?;
    let mut out = OpOutcome {
        service_us: clean_us,
        retries: 0,
        fallbacks: 0,
        failures: 0,
    };
    let Some(plan) = fault_plan else {
        return Ok(out);
    };
    // The faulted attempt: environment plus the one-shot plan.
    let mut specs = ctx.pre.env_specs.clone();
    specs.extend(plan.specs.iter().copied());
    let full = FaultPlan {
        seed: plan.seed,
        specs,
    };
    full.validate(&ctx.pre.programs[coll].ir).map_err(|e| {
        invalid(format!(
            "fault plan vs '{}': {e}",
            ctx.pre.programs[coll].name
        ))
    })?;
    let cfg = ctx.sim_config(Some(full));
    let failed_at = match simulate(&ctx.pre.programs[coll].ir, &cfg, size) {
        // Benign/corrupting plans complete, just slower; charge the
        // perturbed time.
        Ok(report) => {
            out.service_us = report.total_us;
            return Ok(out);
        }
        Err(SimError::InjectedFault { at_us, .. } | SimError::Stuck { at_us, .. }) => {
            at_us.as_f64()
        }
        Err(other) => return Err(engine_err(other)),
    };
    let detect_us = failed_at + DETECT_MARGIN_US;
    let backoff_us = ctx.sc.recovery.backoff_ms as f64 * 1000.0;
    if ctx.sc.recovery.retries == 0 {
        // No retry budget: one shot at the fallback, or an outright
        // failure (the runtime ladder's last rungs).
        match ctx.sc.recovery.fallback.is_some() {
            true => {
                let fb = ctx.pre.programs.len() - 1;
                let fb_us = ctx.clean(fb, size)?;
                out.service_us = detect_us + backoff_us + fb_us;
                out.fallbacks = 1;
            }
            false => {
                out.service_us = detect_us;
                out.failures = 1;
            }
        }
        return Ok(out);
    }
    // Injected faults are one-shot, so the retry runs clean (over the
    // persistent environment) and repeats everything.
    out.service_us = detect_us + backoff_us + clean_us;
    out.retries = 1;
    Ok(out)
}

/// Builds the one-shot fault plan for a repetition's faulted op, from
/// the plan file or a generated plan.
fn rep_fault_plan(pre: &Preflight, draw: &RepDraw, coll: usize) -> Option<FaultPlan> {
    if !draw.faulted {
        return None;
    }
    if let Some(fp) = &pre.file_plan {
        return Some(fp.clone());
    }
    Some(FaultPlan::generate(
        draw.plan_seed,
        &FaultUniverse::from_ir(&pre.programs[coll].ir),
    ))
}

/// Runs every repetition on the simulator, returning per-op latencies
/// (arrival to finish, queueing included) and per-rep stats.
fn run_sim(
    sc: &Scenario,
    pre: &Preflight,
    threads: Option<usize>,
) -> Result<EngineOutput, ScenarioError> {
    let mut ctx = SimCtx {
        sc,
        pre,
        threads,
        clean_cache: HashMap::new(),
    };
    let mut latencies = Vec::with_capacity(sc.repetitions * sc.traffic.ops);
    let mut reps = Vec::with_capacity(sc.repetitions);
    let mut tenant_counts = vec![0usize; sc.traffic.tenants.len()];
    let mut total_bytes = 0u64;
    for rep in 0..sc.repetitions {
        let draw = draw_rep(sc, rep);
        let mut stats = RepStats {
            faulted: draw.faulted,
            retries: 0,
            fallbacks: 0,
            failures: 0,
            makespan_us: 0.0,
            blackboxes: Vec::new(),
        };
        let mut arrival = 0.0f64;
        let mut finish = 0.0f64;
        for (i, op) in draw.ops.iter().enumerate() {
            arrival += gap_us(sc.traffic.arrival, sc.traffic.mean_gap_us, op.gap_roll);
            let size = sc.traffic.sizes[op.size];
            total_bytes += size;
            if !tenant_counts.is_empty() {
                let n = tenant_counts.len() as u64;
                tenant_counts[(op.tenant_roll % n) as usize] += 1;
            }
            let plan = if i == draw.fault_op {
                rep_fault_plan(pre, &draw, op.coll)
            } else {
                None
            };
            let outcome = sim_op(&mut ctx, op.coll, size, plan.as_ref())?;
            // Ops serialize on the (single) fabric: service starts when
            // the op arrives or the previous one finishes.
            finish = arrival.max(finish) + outcome.service_us;
            latencies.push(finish - arrival);
            stats.retries += outcome.retries;
            stats.fallbacks += outcome.fallbacks;
            stats.failures += outcome.failures;
        }
        stats.makespan_us = finish;
        reps.push(stats);
    }
    Ok((latencies, reps, tenant_counts, total_bytes))
}

/// Runs every repetition on the threaded runtime. Latencies are
/// wall-clock per-op durations (arrival gaps are not slept through);
/// decisions and counts are deterministic, timings are not.
fn run_runtime(
    sc: &Scenario,
    pre: &Preflight,
    blackbox_dir: Option<&std::path::Path>,
) -> Result<EngineOutput, ScenarioError> {
    let mut latencies = Vec::with_capacity(sc.repetitions * sc.traffic.ops);
    let mut reps = Vec::with_capacity(sc.repetitions);
    let mut tenant_counts = vec![0usize; sc.traffic.tenants.len()];
    let mut total_bytes = 0u64;
    let fallback_ir = sc
        .recovery
        .fallback
        .as_ref()
        .map(|_| &pre.programs[pre.programs.len() - 1].ir);
    for rep in 0..sc.repetitions {
        let draw = draw_rep(sc, rep);
        let mut stats = RepStats {
            faulted: draw.faulted,
            retries: 0,
            fallbacks: 0,
            failures: 0,
            makespan_us: 0.0,
            blackboxes: Vec::new(),
        };
        for (i, op) in draw.ops.iter().enumerate() {
            let ir = &pre.programs[op.coll].ir;
            let size = sc.traffic.sizes[op.size];
            total_bytes += size;
            if !tenant_counts.is_empty() {
                let n = tenant_counts.len() as u64;
                tenant_counts[(op.tenant_roll % n) as usize] += 1;
            }
            let chunk_elems =
                (size as usize / (ir.collective.in_chunks() * 4)).clamp(1, MAX_CHUNK_ELEMS);
            let inputs = reference::random_inputs(ir, chunk_elems, op.input_seed);
            let opts = RunOptions {
                blackbox_dir: blackbox_dir.map(Into::into),
                ..RunOptions::default()
            };
            let policy = RecoveryPolicy {
                max_retries: sc.recovery.retries,
                backoff: Duration::from_millis(sc.recovery.backoff_ms),
                jitter_seed: mix(sc.seed ^ rep as u64),
                ..RecoveryPolicy::default()
            };
            let mut specs = pre.env_specs.clone();
            let plan = if i == draw.fault_op {
                rep_fault_plan(pre, &draw, op.coll)
            } else {
                None
            };
            if let Some(p) = &plan {
                specs.extend(p.specs.iter().copied());
            }
            let injector = if specs.is_empty() {
                None
            } else {
                let full = FaultPlan {
                    seed: draw.plan_seed,
                    specs,
                };
                full.validate(ir)
                    .map_err(|e| invalid(format!("fault plan vs '{}': {e}", ir.name)))?;
                Some(FaultInjector::new(&full))
            };
            let started = Instant::now();
            match execute_with_recovery(
                Run {
                    injector: injector.as_ref(),
                    ..Run::new(ir, &inputs, chunk_elems, &opts)
                },
                fallback_ir,
                &policy,
            ) {
                Ok(report) => {
                    use msccl_metrics::names;
                    stats.retries += report.metrics.counter_total(names::RECOVERY_RETRIES);
                    stats.fallbacks += report.metrics.counter_total(names::RECOVERY_FALLBACKS);
                }
                // The ladder ran dry: the op failed, the storm goes on.
                // Keep the black-box path (if a dump directory was
                // given) so the report points straight at the evidence.
                Err(e) => {
                    stats.failures += 1;
                    if let Some(p) = e.blackbox_path() {
                        stats.blackboxes.push(p.display().to_string());
                    }
                }
            }
            let us = started.elapsed().as_secs_f64() * 1e6;
            latencies.push(us);
            stats.makespan_us += us;
        }
        reps.push(stats);
    }
    Ok((latencies, reps, tenant_counts, total_bytes))
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
