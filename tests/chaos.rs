//! Chaos tier: deterministic fault injection over every algorithm.
//!
//! The invariant under test is the robustness contract from
//! `docs/robustness.md`: under *any* seeded fault plan, an execution
//! either returns outputs that verify against the golden collective, or
//! fails with a precise structured error that names an injected fault —
//! and it does so promptly (cooperative cancellation, not a timeout
//! cascade), never wedging and never corrupting silently.
//!
//! Seeds are pinned (`ALGO_INDEX * 1000 + i`), so every plan exercised
//! here is reproducible with `msccl faults <ir.xml> --seed N`. The
//! proptest tier layers randomized seeds on top of the pinned sweep.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use msccl_faults::{FaultInjector, FaultKind, FaultPlan, FaultSite, FaultSpec, FaultUniverse};
use msccl_runtime::{
    execute, execute_with_recovery, recover, reference, run, Blackbox, RecoveryPolicy,
    RecoveryReport, Run, RunOptions, RuntimeError, StallKind,
};
use msccl_scenario::{SimEngine, SimFailure};
use msccl_sim::{ParallelBackend, SerialBackend, SimBackend, SimConfig};
use msccl_topology::{LinkParams, Machine};
use msccl_trace::RecoveryDecision;
use mscclang::{compile, CompileOptions, IrProgram, Program, ReduceOp};
use proptest::prelude::*;

/// One run of `ir` under `injector`.
fn faulted(
    ir: &IrProgram,
    inputs: &[Vec<f32>],
    chunk_elems: usize,
    opts: &RunOptions,
    injector: &FaultInjector,
) -> Result<Vec<Vec<f32>>, RuntimeError> {
    run(Run {
        injector: Some(injector),
        ..Run::new(ir, inputs, chunk_elems, opts)
    })
    .result
}

/// Every buildable algorithm, at small dimensions.
fn catalog() -> Vec<Program> {
    vec![
        msccl_algos::ring_all_reduce(4, 1).unwrap(),
        msccl_algos::allpairs_all_reduce(4).unwrap(),
        msccl_algos::hierarchical_all_reduce(2, 2).unwrap(),
        msccl_algos::two_step_all_to_all(2, 2).unwrap(),
        msccl_algos::one_step_all_to_all(2, 2).unwrap(),
        msccl_algos::all_to_next(2, 2).unwrap(),
        msccl_algos::hcm_allgather().unwrap(),
        msccl_algos::recursive_doubling_all_gather(4).unwrap(),
        msccl_algos::binary_tree_all_reduce(4, 1).unwrap(),
        msccl_algos::double_binary_tree_all_reduce(4, 2).unwrap(),
        msccl_algos::rabenseifner_all_reduce(4).unwrap(),
        msccl_algos::binomial_broadcast(4, 1, 0).unwrap(),
        msccl_algos::binomial_reduce(4, 1, 0).unwrap(),
        msccl_algos::linear_gather(4, 1, 0).unwrap(),
        msccl_algos::linear_scatter(4, 1, 0).unwrap(),
    ]
}

fn compiled(program: &Program) -> IrProgram {
    compile(program, &CompileOptions::default()).expect("catalog programs compile")
}

/// Runs `ir` under the plan `seed` generates for it and asserts the
/// chaos contract: prompt termination, and either verified outputs or a
/// structured error naming a fired fault.
fn chaos_invariant(name: &str, ir: &IrProgram, seed: u64) {
    let plan = FaultPlan::generate(seed, &FaultUniverse::from_ir(ir));
    let chunk_elems = 8;
    let inputs = reference::random_inputs(ir, chunk_elems, seed ^ 0x00C0_FFEE);
    let opts = RunOptions {
        // Short step timeout so disruptive faults (drops) resolve fast;
        // generated delays/stalls top out at 2 ms, far below it.
        timeout: Duration::from_millis(250),
        deadline: Some(Duration::from_secs(5)),
        ..RunOptions::default()
    };
    let injector = FaultInjector::new(&plan);
    let start = Instant::now();
    let result = faulted(ir, &inputs, chunk_elems, &opts, &injector);
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(8),
        "{name} seed {seed}: run exceeded the global deadline ({elapsed:?})\nplan:\n{}",
        plan.to_text()
    );
    let fired = injector.fired();
    match result {
        Ok(outputs) => {
            if let Err(msg) = reference::check_outputs(
                &ir.collective,
                &inputs,
                &outputs,
                chunk_elems,
                ReduceOp::Sum,
            ) {
                // A wrong answer is only acceptable when a corrupting
                // fault (payload corruption / duplicated delivery)
                // actually struck; anything else is silent corruption.
                assert!(
                    fired
                        .iter()
                        .any(|f| f.starts_with("corrupt") || f.starts_with("dup")),
                    "{name} seed {seed}: wrong outputs without a corrupting fault\n\
                     verification: {msg}\nfired: {fired:?}\nplan:\n{}",
                    plan.to_text()
                );
            }
        }
        Err(err) => {
            assert!(
                err.is_transient(),
                "{name} seed {seed}: fault surfaced as a non-transient error: {err}"
            );
            assert!(
                !fired.is_empty(),
                "{name} seed {seed}: failed with no fault fired: {err}"
            );
            let display = err.to_string();
            assert!(
                fired.iter().any(|f| display.contains(f.as_str())),
                "{name} seed {seed}: error does not name any injected fault\n\
                 error: {display}\nfired: {fired:?}"
            );
        }
    }
}

/// Pinned sweep: 15 algorithms x 14 seeds = 210 fault plans.
macro_rules! chaos_sweep {
    ($($test:ident => $index:expr),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                let program = &catalog()[$index];
                let ir = compiled(program);
                for i in 0..14u64 {
                    chaos_invariant(program.name(), &ir, $index as u64 * 1000 + i);
                }
            }
        )*
    };
}

chaos_sweep! {
    chaos_ring_allreduce => 0,
    chaos_allpairs_allreduce => 1,
    chaos_hierarchical_allreduce => 2,
    chaos_two_step_alltoall => 3,
    chaos_one_step_alltoall => 4,
    chaos_alltonext => 5,
    chaos_hcm_allgather => 6,
    chaos_recursive_doubling_allgather => 7,
    chaos_tree_allreduce => 8,
    chaos_double_tree_allreduce => 9,
    chaos_rabenseifner_allreduce => 10,
    chaos_broadcast => 11,
    chaos_reduce => 12,
    chaos_gather => 13,
    chaos_scatter => 14,
}

/// The machine the simulator differential runs algorithm `index` on:
/// multi-node algorithms get two nodes of two GPUs each so the plan
/// straddles a node boundary and the parallel engine really runs two
/// shards; hcm needs the dgx1 cube-mesh; everything else is single-node.
fn sim_machine(index: usize) -> Machine {
    match index {
        2..=5 => Machine::custom(
            2,
            2,
            LinkParams::new(2.0, 275.0),
            1,
            LinkParams::new(3.5, 25.0),
        ),
        6 => Machine::dgx1(),
        _ => Machine::ndv4(1),
    }
}

/// Runs the pinned plan for `seed` through the serial simulator and the
/// parallel one, and asserts they return the same `Result` bit for bit:
/// a clean run yields the identical report; a kill aborts with the same
/// `InjectedFault {rank, tb, step, at_us}`; a drop wedges into the same
/// `Stuck {at_us, fired_faults}` naming the same faults in the same
/// order.
fn sim_chaos_invariant(name: &str, index: usize, ir: &IrProgram, seed: u64) {
    let plan = FaultPlan::generate(seed, &FaultUniverse::from_ir(ir));
    let cfg = SimConfig::new(sim_machine(index)).with_faults(plan.clone());
    let serial = SerialBackend.simulate(ir, &cfg, 1 << 18);
    for threads in [2, 4, 8] {
        let parallel = ParallelBackend { threads }.simulate(ir, &cfg, 1 << 18);
        assert_eq!(
            serial,
            parallel,
            "{name} seed {seed}: simulator verdicts diverged at {threads} threads\nplan:\n{}",
            plan.to_text()
        );
    }
}

/// The same 210 pinned fault plans as `chaos_sweep!`, replayed through
/// both simulator engines instead of the runtime.
macro_rules! sim_chaos_sweep {
    ($($test:ident => $index:expr),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                let program = &catalog()[$index];
                let ir = compiled(program);
                for i in 0..14u64 {
                    sim_chaos_invariant(program.name(), $index, &ir, $index as u64 * 1000 + i);
                }
            }
        )*
    };
}

sim_chaos_sweep! {
    sim_chaos_ring_allreduce => 0,
    sim_chaos_allpairs_allreduce => 1,
    sim_chaos_hierarchical_allreduce => 2,
    sim_chaos_two_step_alltoall => 3,
    sim_chaos_one_step_alltoall => 4,
    sim_chaos_alltonext => 5,
    sim_chaos_hcm_allgather => 6,
    sim_chaos_recursive_doubling_allgather => 7,
    sim_chaos_tree_allreduce => 8,
    sim_chaos_double_tree_allreduce => 9,
    sim_chaos_rabenseifner_allreduce => 10,
    sim_chaos_broadcast => 11,
    sim_chaos_reduce => 12,
    sim_chaos_gather => 13,
    sim_chaos_scatter => 14,
}

/// Killing one thread block aborts the whole collective promptly even
/// though the per-step timeout is the 20 s default: the cancellation
/// token wakes every worker; nobody waits out a timeout. The assertion
/// is on the token's *measured drain latency* (first cancel to last
/// worker parked), not wall clock, so a slow CI machine paying setup
/// or scheduling costs outside the cancellation path cannot flake it.
#[test]
fn killing_one_block_cancels_all_workers_promptly() {
    let program = msccl_algos::ring_all_reduce(8, 2).unwrap();
    let ir = compiled(&program);
    let plan = FaultPlan::parse("kill block r0 tb0 step0").unwrap();
    plan.validate(&ir).unwrap();
    let injector = FaultInjector::new(&plan);
    let inputs = reference::random_inputs(&ir, 8, 1);
    let err = faulted(&ir, &inputs, 8, &RunOptions::default(), &injector).unwrap_err();
    let drain = err
        .drain()
        .expect("an injected kill carries the observed cancellation drain");
    assert!(
        drain < Duration::from_secs(1),
        "cancellation drain took {drain:?}; workers waited out timeouts instead"
    );
    match &err {
        RuntimeError::InjectedFault { rank, tb, step, .. } => {
            assert_eq!((*rank, *tb, *step), (0, 0, 0))
        }
        other => panic!("expected InjectedFault, got {other}"),
    }
    assert!(err.to_string().contains("kill block r0 tb0 step0"));
}

/// Asserts the late-fault retry contract for one algorithm: a dropped
/// delivery in the *last* tile hangs the first attempt after most of the
/// work is done; the recovery ladder retries from scratch, and the
/// outputs are bit-exact with a clean run after exactly one retry.
fn late_drop_invariant(name: &str, ir: &IrProgram) {
    let chunk_elems = 8;
    let num_tiles = 4; // chunk_elems / tile_elems
    let opts = RunOptions {
        // Short per-step timeout so the dropped delivery surfaces as a
        // hang quickly; it bounds detection, not total work.
        timeout: Duration::from_millis(400),
        tile_elems: Some(chunk_elems / num_tiles),
        ..RunOptions::default()
    };
    let inputs = reference::random_inputs(ir, chunk_elems, 0x0EC0);
    let clean = execute(ir, &inputs, chunk_elems, &opts)
        .unwrap_or_else(|e| panic!("{name}: clean run failed: {e}"));

    // Drop the first delivery of the last tile on the first sending
    // connection: the receiver hangs there. (Block faults always fire in
    // the first tile, so a late fault needs a delivery site.)
    let (src, tb) = ir
        .gpus
        .iter()
        .enumerate()
        .flat_map(|(r, g)| g.threadblocks.iter().map(move |tb| (r, tb)))
        .find(|(_, tb)| tb.send_peer.is_some() && tb.instructions.iter().any(|i| i.op.has_send()))
        .unwrap_or_else(|| panic!("{name}: no sending thread block"));
    let sends_per_tile = tb.instructions.iter().filter(|i| i.op.has_send()).count() as u64;
    let plan = FaultPlan {
        seed: 0,
        specs: vec![FaultSpec {
            site: FaultSite::Delivery {
                src,
                dst: tb.send_peer.unwrap(),
                channel: tb.channel,
                seq: (num_tiles as u64 - 1) * sends_per_tile,
            },
            kind: FaultKind::DropDelivery,
        }],
    };
    plan.validate(ir)
        .unwrap_or_else(|e| panic!("{name}: synthesized plan invalid: {e}"));
    let injector = FaultInjector::new(&plan);
    let report = execute_with_recovery(
        Run {
            injector: Some(&injector),
            ..Run::new(ir, &inputs, chunk_elems, &opts)
        },
        None,
        &RecoveryPolicy::default(),
    )
    .unwrap_or_else(|e| {
        panic!(
            "{name}: recovery did not converge: {e}\nplan:\n{}",
            plan.to_text()
        )
    });
    let decisions: Vec<RecoveryDecision> = report.steps.iter().map(|s| s.decision).collect();
    assert_eq!(
        decisions,
        vec![RecoveryDecision::Retry, RecoveryDecision::Accept],
        "{name}: expected one retry\nsteps: {:?}",
        report.steps
    );
    assert_eq!(
        report.outputs, clean,
        "{name}: retried outputs are not bit-exact with a clean run"
    );
}

/// Late-fault sweep: every algorithm in the catalog recovers from a
/// last-tile dropped delivery by one retry.
macro_rules! late_drop_sweep {
    ($($test:ident => $index:expr),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                let program = &catalog()[$index];
                let ir = compiled(program);
                late_drop_invariant(program.name(), &ir);
            }
        )*
    };
}

late_drop_sweep! {
    late_drop_ring_allreduce => 0,
    late_drop_allpairs_allreduce => 1,
    late_drop_hierarchical_allreduce => 2,
    late_drop_two_step_alltoall => 3,
    late_drop_one_step_alltoall => 4,
    late_drop_alltonext => 5,
    late_drop_hcm_allgather => 6,
    late_drop_recursive_doubling_allgather => 7,
    late_drop_tree_allreduce => 8,
    late_drop_double_tree_allreduce => 9,
    late_drop_rabenseifner_allreduce => 10,
    late_drop_broadcast => 11,
    late_drop_reduce => 12,
    late_drop_gather => 13,
    late_drop_scatter => 14,
}

/// The first thread block with a send instruction — a site every peer
/// transitively depends on, so both killing and stalling it disrupt the
/// whole collective.
fn sending_block(ir: &IrProgram) -> (usize, usize) {
    ir.gpus
        .iter()
        .enumerate()
        .flat_map(|(r, g)| {
            g.threadblocks
                .iter()
                .enumerate()
                .map(move |(t, tb)| (r, t, tb))
        })
        .find(|(_, _, tb)| {
            tb.send_peer.is_some() && tb.instructions.iter().any(|i| i.op.has_send())
        })
        .map(|(r, t, _)| (r, t))
        .expect("every catalog collective has a sending thread block")
}

/// Asserts the hang-doctor contract for synthesized block faults at a
/// pinned site: a kill classifies as `self_fault` rooted at the killed
/// block, and a stall far longer than the step timeout classifies as
/// `straggler` rooted at the sleeping block — in both cases the
/// diagnosis names the injected rank/tb/step and the fired fault.
fn diagnosis_invariant(name: &str, ir: &IrProgram) {
    let (rank, tb) = sending_block(ir);
    let chunk_elems = 8;
    let inputs = reference::random_inputs(ir, chunk_elems, 0xD1A6);

    let kill_line = format!("kill block r{rank} tb{tb} step0");
    let plan = FaultPlan::parse(&kill_line).unwrap();
    plan.validate(ir)
        .unwrap_or_else(|e| panic!("{name}: kill plan invalid: {e}"));
    let injector = FaultInjector::new(&plan);
    let err = faulted(ir, &inputs, chunk_elems, &RunOptions::default(), &injector).unwrap_err();
    let d = err
        .diagnosis()
        .expect("an injected kill carries a diagnosis");
    assert_eq!(d.kind, StallKind::SelfFault, "{name}: {d:?}");
    assert_eq!(
        d.root,
        (rank, tb, 0),
        "{name}: kill root must be the injected site: {d:?}"
    );
    assert!(
        d.fired_faults.iter().any(|f| f == &kill_line),
        "{name}: diagnosis does not name the kill: {:?}",
        d.fired_faults
    );

    // 5 s stall against a 200 ms step timeout: a *peer* times out first
    // (the stalled block is asleep, not waiting), and the wait chain
    // must walk back to the sleeper.
    let stall_line = format!("stall block r{rank} tb{tb} step0 us 5000000");
    let plan = FaultPlan::parse(&stall_line).unwrap();
    plan.validate(ir)
        .unwrap_or_else(|e| panic!("{name}: stall plan invalid: {e}"));
    let injector = FaultInjector::new(&plan);
    let opts = RunOptions {
        timeout: Duration::from_millis(200),
        deadline: Some(Duration::from_secs(10)),
        ..RunOptions::default()
    };
    let err = faulted(ir, &inputs, chunk_elems, &opts, &injector).unwrap_err();
    let d = err
        .diagnosis()
        .expect("a stall-induced hang carries a diagnosis");
    assert_eq!(d.kind, StallKind::Straggler, "{name}: {d:?}");
    assert_eq!(
        d.root,
        (rank, tb, 0),
        "{name}: stall root must be the sleeping block: {d:?}"
    );
    assert!(
        d.fired_faults.iter().any(|f| f == &stall_line),
        "{name}: diagnosis does not name the stall: {:?}",
        d.fired_faults
    );
}

/// Diagnosis sweep: kill + stall at a pinned site on every algorithm.
macro_rules! diagnosis_sweep {
    ($($test:ident => $index:expr),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                let program = &catalog()[$index];
                let ir = compiled(program);
                diagnosis_invariant(program.name(), &ir);
            }
        )*
    };
}

diagnosis_sweep! {
    diagnose_ring_allreduce => 0,
    diagnose_allpairs_allreduce => 1,
    diagnose_hierarchical_allreduce => 2,
    diagnose_two_step_alltoall => 3,
    diagnose_one_step_alltoall => 4,
    diagnose_alltonext => 5,
    diagnose_hcm_allgather => 6,
    diagnose_recursive_doubling_allgather => 7,
    diagnose_tree_allreduce => 8,
    diagnose_double_tree_allreduce => 9,
    diagnose_rabenseifner_allreduce => 10,
    diagnose_broadcast => 11,
    diagnose_reduce => 12,
    diagnose_gather => 13,
    diagnose_scatter => 14,
}

/// The pinned stall-one-tb forensics path end to end in-process: the
/// failed run writes a black box, and re-reading it from disk still
/// deterministically names the injected rank/tb/step as root cause.
#[test]
fn stalled_block_blackbox_names_the_straggler_root() {
    let program = msccl_algos::ring_all_reduce(4, 1).unwrap();
    let ir = compiled(&program);
    let plan = FaultPlan::parse("stall block r1 tb0 step0 us 5000000").unwrap();
    plan.validate(&ir).unwrap();
    let injector = FaultInjector::new(&plan);
    let inputs = reference::random_inputs(&ir, 8, 3);
    let dir = std::env::temp_dir().join(format!("msccl-chaos-bb-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = RunOptions {
        timeout: Duration::from_millis(200),
        deadline: Some(Duration::from_secs(10)),
        blackbox_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let err = faulted(&ir, &inputs, 8, &opts, &injector).unwrap_err();
    let path = err.blackbox_path().expect("failed run wrote a black box");
    let bb = Blackbox::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(
        bb.diagnosis.kind,
        StallKind::Straggler,
        "{:?}",
        bb.diagnosis
    );
    assert_eq!(
        bb.diagnosis.root,
        (1, 0, 0),
        "root must be the stalled block: {:?}",
        bb.diagnosis
    );
    let human = bb.render_human();
    assert!(
        human.contains("stall block r1 tb0 step0"),
        "rendered diagnosis does not name the stall: {human}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent failures dumping into one directory must never collide on
/// a filename: the dump name carries a process-wide atomic sequence
/// number precisely so that a serving daemon writing one black box per
/// failed request can take simultaneous failures. Every failure must
/// produce its own distinct file, all of them parseable.
#[test]
fn concurrent_failures_write_distinct_blackboxes() {
    const FAILERS: usize = 6;
    let program = msccl_algos::ring_all_reduce(4, 1).unwrap();
    let ir = compiled(&program);
    let dir = std::env::temp_dir().join(format!("msccl-chaos-bb-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let paths: Vec<std::path::PathBuf> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..FAILERS)
            .map(|i| {
                let ir = &ir;
                let dir = dir.clone();
                scope.spawn(move || {
                    let plan = FaultPlan::parse("stall block r1 tb0 step0 us 5000000").unwrap();
                    let injector = FaultInjector::new(&plan);
                    let inputs = reference::random_inputs(ir, 8, i as u64);
                    let opts = RunOptions {
                        timeout: Duration::from_millis(200),
                        deadline: Some(Duration::from_secs(10)),
                        blackbox_dir: Some(dir),
                        ..RunOptions::default()
                    };
                    let err = faulted(ir, &inputs, 8, &opts, &injector)
                        .expect_err("stalled run must fail");
                    err.blackbox_path()
                        .expect("failed run wrote a black box")
                        .to_path_buf()
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("join")).collect()
    });
    let distinct: std::collections::HashSet<_> = paths.iter().collect();
    assert_eq!(
        distinct.len(),
        FAILERS,
        "colliding dump filenames: {paths:?}"
    );
    for p in &paths {
        let text = std::fs::read_to_string(p).expect("dump exists on disk");
        let bb = Blackbox::from_json(&text).expect("dump parses");
        assert_eq!(bb.diagnosis.root.0, 1, "dump names the stalled rank");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dropped delivery starves the receiver into a `Hang` whose context
/// dump names the injected fault — the error-path formatting contract.
#[test]
fn dropped_delivery_hangs_with_the_fault_named_in_context() {
    let program = msccl_algos::ring_all_reduce(4, 1).unwrap();
    let ir = compiled(&program);
    let plan = FaultPlan::parse("drop conn 0->1 ch 0 seq 0").unwrap();
    plan.validate(&ir).unwrap();
    let injector = FaultInjector::new(&plan);
    let inputs = reference::random_inputs(&ir, 8, 2);
    let opts = RunOptions {
        timeout: Duration::from_millis(200),
        ..RunOptions::default()
    };
    let err = faulted(&ir, &inputs, 8, &opts, &injector).unwrap_err();
    let display = err.to_string();
    assert!(
        matches!(err, RuntimeError::Hang { .. }),
        "expected Hang, got {display}"
    );
    assert!(
        display.contains("injected fault struck: drop conn 0->1 ch 0 seq 0"),
        "context does not name the drop: {display}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized seeds uphold the same contract the pinned sweep pins.
    #[test]
    fn random_fault_plans_never_wedge(index in 0usize..15, seed in any::<u64>()) {
        let program = &catalog()[index];
        let ir = compiled(program);
        chaos_invariant(program.name(), &ir, seed);
    }

    /// Every generated plan survives text serialization round-trip and
    /// still validates against the program it was generated for.
    #[test]
    fn generated_plans_round_trip_through_text(index in 0usize..15, seed in any::<u64>()) {
        let program = &catalog()[index];
        let ir = compiled(program);
        let plan = FaultPlan::generate(seed, &FaultUniverse::from_ir(&ir));
        let parsed = FaultPlan::parse(&plan.to_text()).unwrap();
        prop_assert_eq!(parsed.to_text(), plan.to_text());
        parsed.validate(&ir).unwrap();
    }
}

/// The ladder differential's two policies, `(retries, fallback)`: one
/// retry and no fallback, or no retry and the program itself as its own
/// fallback.
const LADDERS: [(usize, bool); 2] = [(1, false), (0, true)];

/// The policy a `(retries, fallback)` ladder runs under.
fn ladder_policy((retries, _): (usize, bool)) -> RecoveryPolicy {
    RecoveryPolicy {
        max_retries: retries,
        backoff: Duration::from_millis(1),
        ..RecoveryPolicy::default()
    }
}

/// One back end's decision sequence: the report's log when the ladder
/// served the op, `[verify]` marking a rung a verification rejection
/// triggered; else every rung `ladder` allows and then `give_up` — a
/// transient last error means the ladder skipped none.
fn decisions<T, E: std::fmt::Display>(
    result: Result<RecoveryReport<T>, E>,
    transient: impl Fn(&E) -> bool,
    (retries, fallback): (usize, bool),
) -> String {
    let labels: Vec<String> = match result {
        Ok(report) => report
            .steps
            .iter()
            .map(|s| match s.detail.contains("verification failed") {
                true => format!("{}[verify]", s.decision.label()),
                false => s.decision.label().to_string(),
            })
            .collect(),
        Err(e) => {
            assert!(transient(&e), "permanent failure: {e}");
            let mut rungs = vec![RecoveryDecision::Retry.label().to_string(); retries];
            rungs.extend(fallback.then(|| RecoveryDecision::Fallback.label().to_string()));
            rungs.push("give_up".to_string());
            rungs
        }
    };
    labels.join(",")
}

/// The pinned plan for `seed` through the threaded runtime's recovery
/// ladder, with `chaos_invariant`'s short step timeout.
fn runtime_ladder(ir: &IrProgram, seed: u64, ladder: (usize, bool)) -> String {
    let plan = FaultPlan::generate(seed, &FaultUniverse::from_ir(ir));
    let chunk_elems = 8;
    let inputs = reference::random_inputs(ir, chunk_elems, seed ^ 0x00C0_FFEE);
    let opts = RunOptions {
        timeout: Duration::from_millis(250),
        deadline: Some(Duration::from_secs(5)),
        ..RunOptions::default()
    };
    let injector = FaultInjector::new(&plan);
    let result = execute_with_recovery(
        Run {
            injector: Some(&injector),
            ..Run::new(ir, &inputs, chunk_elems, &opts)
        },
        ladder.1.then_some(ir),
        &ladder_policy(ladder),
    );
    decisions(result, RuntimeError::is_transient, ladder)
}

/// The same plan through the scenario simulator's ladder, on the machine
/// `sim_chaos_invariant` uses.
fn sim_ladder(index: usize, ir: &IrProgram, seed: u64, ladder: (usize, bool)) -> String {
    let plan = FaultPlan::generate(seed, &FaultUniverse::from_ir(ir));
    let mut engine = SimEngine {
        programs: vec![ir],
        fallback: ladder.1.then_some(0),
        base: SimConfig::new(sim_machine(index)),
        clean_cache: HashMap::new(),
        op: (0, 1 << 18, Some(plan)),
    };
    let result = recover(
        &mut engine,
        &mut 0.0,
        ladder.1,
        &ladder_policy(ladder),
        None,
    );
    decisions(result, |e: &SimFailure| e.1, ladder)
}

/// Plans whose corruption the runtime's verifier does not see: the
/// flipped bit stays within its 1e-3 relative tolerance, or the
/// duplicated or corrupted tile is never read (for example a duplicate
/// of a connection's last tile). The runtime accepts the first attempt;
/// the simulator, which moves no data, rejects every completed attempt
/// a corrupting fault struck and takes the next rung.
const UNSEEN_CORRUPTION: [u64; 42] = [
    1, 2, 11, 1000, 1005, 1007, 1011, 2005, 2007, 2012, 2013, 3000, 4001, 4005, 4007, 4010, 4011,
    5000, 5005, 6000, 6001, 7003, 8003, 9002, 9005, 9007, 10006, 10011, 11003, 11005, 11006, 11010,
    11011, 12000, 12004, 12006, 12012, 13002, 13007, 13009, 13013, 14012,
];

/// Ladder differential: every pinned chaos plan yields the same decision
/// sequence from the runtime's recovery ladder and the simulator's
/// under both policies, except the unseen corruption pinned above,
/// which must take its pinned shape. The runtime's ladder arms the plan
/// for the first attempt only, as the simulator's does, so a fault the
/// aborted first attempt never reached cannot strike the retry.
#[test]
fn runtime_and_sim_ladders_decide_alike() {
    let mut unexplained = Vec::new();
    for (index, program) in catalog().iter().enumerate() {
        let ir = compiled(program);
        for seed in (0..14u64).map(|i| index as u64 * 1000 + i) {
            let plan = FaultPlan::generate(seed, &FaultUniverse::from_ir(&ir));
            for ladder in LADDERS {
                let rung = if ladder.1 { "fallback" } else { "retry" };
                let (rt, sim) = (
                    runtime_ladder(&ir, seed, ladder),
                    sim_ladder(index, &ir, seed, ladder),
                );
                let explained = if UNSEEN_CORRUPTION.contains(&seed) {
                    rt == "accept" && sim == format!("{rung}[verify],accept")
                } else {
                    rt == sim
                };
                if !explained {
                    unexplained.push(format!(
                        "{} seed {seed} {ladder:?}: runtime {rt}, sim {sim}\n{}",
                        program.name(),
                        plan.to_text()
                    ));
                }
            }
        }
    }
    assert!(unexplained.is_empty(), "{}", unexplained.join("\n"));
}

fn census_path() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("recovery_census.txt")
}

/// Which rungs fire: the count of each simulator decision sequence over
/// the 210 pinned plans, per policy, against
/// `tests/fixtures/recovery_census.txt` (regenerate with
/// `MSCCL_UPDATE_GOLDEN=1`). The differential above ties the runtime to
/// the same counts, less its pinned disagreements.
#[test]
fn recovery_census_matches_fixture() {
    let mut counts = std::collections::BTreeMap::new();
    for (index, program) in catalog().iter().enumerate() {
        let ir = compiled(program);
        for seed in (0..14u64).map(|i| index as u64 * 1000 + i) {
            for ladder in LADDERS {
                let key = (ladder.0, ladder.1, sim_ladder(index, &ir, seed, ladder));
                *counts.entry(key).or_insert(0usize) += 1;
            }
        }
    }
    let mut got = String::from(
        "# Simulator recovery-ladder decision sequences over the 210 pinned\n\
         # chaos plans (tests/chaos.rs), per policy; [verify] marks a rung a\n\
         # verification rejection triggered. Regenerate with\n\
         # MSCCL_UPDATE_GOLDEN=1 cargo test --release --test chaos recovery_census\n",
    );
    for ((retries, fallback, sequence), n) in counts {
        let fallback = if fallback { "self" } else { "none" };
        got.push_str(&format!(
            "retries={retries} fallback={fallback} {sequence} {n}\n"
        ));
    }
    if std::env::var_os("MSCCL_UPDATE_GOLDEN").is_some() {
        std::fs::write(census_path(), &got).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(census_path())
        .expect("fixture missing; regenerate with MSCCL_UPDATE_GOLDEN=1");
    assert_eq!(got, pinned, "the recovery census drifted from its fixture");
}
