//! Differential tier for the sharded simulator: the parallel engine must
//! be **bit-identical** to the serial oracle for every program, protocol,
//! seed and thread count.
//!
//! Both backends drive the same per-node shards through the same
//! conservative rounds (see `docs/simulator.md`), so everything in the
//! [`msccl_sim::SimReport`] — total and per-interval times, event and
//! heap statistics, the metrics snapshot, the full
//! virtual-time trace — and every structured `SimError` must compare
//! exactly equal, not approximately. Any divergence means the round
//! drivers scheduled observable work differently, which is precisely the
//! bug class this tier exists to catch.

use msccl_faults::{FaultPlan, FaultUniverse};
use msccl_sim::{simulate, ParallelBackend, SerialBackend, SimBackend, SimConfig, SimError};
use msccl_topology::{LinkParams, Machine, Protocol};
use mscclang::{compile, CompileOptions, IrProgram, Program};
use proptest::prelude::*;

/// Two nodes of two GPUs each, NVLink inside and one NIC per node —
/// small enough that 4-rank multi-node algorithms genuinely straddle the
/// node boundary, so the parallel engine really runs multiple shards.
fn two_by_two() -> Machine {
    Machine::custom(
        2,
        2,
        LinkParams::new(2.0, 275.0),
        1,
        LinkParams::new(3.5, 25.0),
    )
}

/// Every buildable algorithm at small dimensions, paired with a machine
/// it runs on. Multi-node algorithms get the 2×2 machine (two shards);
/// single-node ones exercise the degenerate one-shard path, where the
/// round driver must reproduce the classic event loop verbatim.
fn catalog() -> Vec<(Program, Machine)> {
    vec![
        (
            msccl_algos::ring_all_reduce(4, 1).unwrap(),
            Machine::ndv4(1),
        ),
        (
            msccl_algos::allpairs_all_reduce(4).unwrap(),
            Machine::ndv4(1),
        ),
        (
            msccl_algos::hierarchical_all_reduce(2, 2).unwrap(),
            two_by_two(),
        ),
        (
            msccl_algos::two_step_all_to_all(2, 2).unwrap(),
            two_by_two(),
        ),
        (
            msccl_algos::one_step_all_to_all(2, 2).unwrap(),
            two_by_two(),
        ),
        (msccl_algos::all_to_next(2, 2).unwrap(), two_by_two()),
        (msccl_algos::hcm_allgather().unwrap(), Machine::dgx1()),
        (
            msccl_algos::recursive_doubling_all_gather(4).unwrap(),
            Machine::ndv4(1),
        ),
        (
            msccl_algos::binary_tree_all_reduce(4, 1).unwrap(),
            Machine::ndv4(1),
        ),
        (
            msccl_algos::double_binary_tree_all_reduce(4, 2).unwrap(),
            Machine::ndv4(1),
        ),
        (
            msccl_algos::rabenseifner_all_reduce(4).unwrap(),
            Machine::ndv4(1),
        ),
        (
            msccl_algos::binomial_broadcast(4, 1, 0).unwrap(),
            Machine::ndv4(1),
        ),
        (
            msccl_algos::binomial_reduce(4, 1, 0).unwrap(),
            Machine::ndv4(1),
        ),
        (
            msccl_algos::linear_gather(4, 1, 0).unwrap(),
            Machine::ndv4(1),
        ),
        (
            msccl_algos::linear_scatter(4, 1, 0).unwrap(),
            Machine::ndv4(1),
        ),
    ]
}

fn compiled(program: &Program) -> IrProgram {
    compile(program, &CompileOptions::default()).expect("catalog programs compile")
}

/// Thread counts the tier sweeps: 3 splits the 16-shard ring into
/// uneven blocks (5/5/6), 8 outnumbers the CPUs of a small host. CI
/// narrows this to one count per job via `MSCCL_SIM_THREADS` so three
/// jobs cover the matrix without duplicating the whole sweep in each.
fn thread_counts() -> Vec<usize> {
    match std::env::var("MSCCL_SIM_THREADS") {
        Ok(v) => vec![v.parse().expect("MSCCL_SIM_THREADS must be an integer")],
        Err(_) => vec![1, 2, 3, 4, 8],
    }
}

/// Asserts serial and parallel produce the exact same `Result` for one
/// configuration, across every swept thread count.
fn assert_backends_agree(name: &str, ir: &IrProgram, cfg: &SimConfig, bytes: u64) {
    let serial = SerialBackend.simulate(ir, cfg, bytes);
    for threads in thread_counts() {
        let par = ParallelBackend { threads }.simulate(ir, cfg, bytes);
        assert_eq!(
            serial, par,
            "{name}: parallel({threads}) diverged from serial"
        );
    }
}

/// All 15 algorithms × 3 protocols × thread counts {1, 2, 3, 4, 8}, with
/// trace and timeline recording on so the comparison covers every field
/// the report can carry.
#[test]
fn all_algorithms_agree_across_protocols_and_thread_counts() {
    for (program, machine) in &catalog() {
        let ir = compiled(program);
        for protocol in [Protocol::Simple, Protocol::Ll, Protocol::Ll128] {
            let cfg = SimConfig::new(machine.clone())
                .with_protocol(protocol)
                .with_trace(true)
                .with_timeline(true);
            assert_backends_agree(program.name(), &ir, &cfg, 1 << 18);
        }
    }
}

/// Multi-tile pipelines (large buffer) and single-tile runs (tiny
/// buffer) both survive the differential exactly.
#[test]
fn buffer_sizes_agree() {
    for (program, machine) in &catalog() {
        let ir = compiled(program);
        for bytes in [4096u64, 1 << 21] {
            let cfg = SimConfig::new(machine.clone()).with_trace(true);
            assert_backends_agree(program.name(), &ir, &cfg, bytes);
        }
    }
}

/// Multi-node scale: the compiled ring at 16 and 128 ranks spans 2 and 16
/// NDv4 nodes, so the parallel engine routes across many shards at once.
#[test]
fn multi_node_rings_agree_at_scale() {
    for ranks in [16, 128] {
        let program = msccl_algos::ring_all_reduce(ranks, 1).unwrap();
        let ir = compiled(&program);
        let cfg = SimConfig::new(Machine::ndv4(ranks / 8));
        assert_backends_agree(program.name(), &ir, &cfg, 1 << 20);
    }
}

/// Pinned fault plans produce the same verdict — the identical report,
/// or the identical structured error naming the same fault — through
/// both engines. Seeds match the chaos tier's pinning scheme.
#[test]
fn pinned_fault_plans_agree() {
    for (index, (program, machine)) in catalog().iter().enumerate() {
        let ir = compiled(program);
        for i in 0..4u64 {
            let seed = index as u64 * 1000 + i;
            let plan = FaultPlan::generate(seed, &FaultUniverse::from_ir(&ir));
            let cfg = SimConfig::new(machine.clone()).with_faults(plan.clone());
            let serial = SerialBackend.simulate(&ir, &cfg, 1 << 18);
            for threads in thread_counts() {
                let par = ParallelBackend { threads }.simulate(&ir, &cfg, 1 << 18);
                assert_eq!(
                    serial,
                    par,
                    "{} seed {seed}: faulted run diverged at {threads} threads\nplan:\n{}",
                    program.name(),
                    plan.to_text()
                );
            }
        }
    }
}

/// Structured errors carry bit-exact payloads through the parallel
/// engine: a kill aborts with the same `(rank, tb, step, at_us)`, a drop
/// wedges into `Stuck` at the same time naming the same fired fault.
#[test]
fn structured_errors_are_bit_identical() {
    use msccl_faults::{FaultKind, FaultSite, FaultSpec};
    let (program, machine) = &catalog()[5]; // all_to_next on the 2×2 machine
    let ir = compiled(program);
    let universe = FaultUniverse::from_ir(&ir);
    let &(rank, tb, _) = universe.blocks.first().expect("program has blocks");
    let &(src, dst, channel, _) = universe
        .connections
        .first()
        .expect("program has connections");
    let kill = FaultSpec {
        site: FaultSite::Block { rank, tb, step: 0 },
        kind: FaultKind::KillBlock,
    };
    let drop = FaultSpec {
        site: FaultSite::Delivery {
            src,
            dst,
            channel,
            seq: 0,
        },
        kind: FaultKind::DropDelivery,
    };
    for spec in [kill, drop] {
        let mut plan = FaultPlan::empty();
        plan.specs.push(spec);
        let cfg = SimConfig::new(machine.clone()).with_faults(plan);
        let serial = SerialBackend.simulate(&ir, &cfg, 1 << 18);
        let err = serial.as_ref().expect_err("fault must surface");
        assert!(
            matches!(err, SimError::InjectedFault { .. } | SimError::Stuck { .. }),
            "unexpected verdict for {spec:?}: {err}"
        );
        for threads in thread_counts() {
            let par = ParallelBackend { threads }.simulate(&ir, &cfg, 1 << 18);
            assert_eq!(serial, par, "{spec:?}: error diverged at {threads} threads");
        }
    }
}

/// Fan-in across workers: on four nodes every shard receives tiles from
/// three others at tied timestamps, and at 2 and 3 workers some of those
/// sources sit in different blocks. Each destination must still see its
/// messages in source-shard order, or its sequence numbers — and with
/// them the NIC queue order in the trace — would change.
#[test]
fn fan_in_from_several_workers_agrees() {
    let machine = Machine::custom(
        4,
        2,
        LinkParams::new(2.0, 275.0),
        1,
        LinkParams::new(3.5, 25.0),
    );
    for program in [
        msccl_algos::one_step_all_to_all(4, 2).unwrap(),
        msccl_algos::two_step_all_to_all(4, 2).unwrap(),
        msccl_algos::hierarchical_all_reduce(4, 2).unwrap(),
    ] {
        let ir = compiled(&program);
        for protocol in [Protocol::Simple, Protocol::Ll128] {
            let cfg = SimConfig::new(machine.clone())
                .with_protocol(protocol)
                .with_trace(true)
                .with_timeline(true);
            assert_backends_agree(program.name(), &ir, &cfg, 1 << 18);
        }
    }
}

/// Kills on two shards that different workers own — nodes 3 and 12 of
/// the 128-rank ring fall in blocks 0 and 1 at 2 workers, 0 and 2 at 3 —
/// resolve to the serial engine's error, whether they strike in the same
/// round (a tie the lower shard wins) or one well before the other.
#[test]
fn cross_worker_kills_resolve_like_serial() {
    use msccl_faults::{FaultKind, FaultSite, FaultSpec};
    let program = msccl_algos::ring_all_reduce(128, 1).unwrap();
    let ir = compiled(&program);
    let kill = |rank, step| FaultSpec {
        site: FaultSite::Block { rank, tb: 0, step },
        kind: FaultKind::KillBlock,
    };
    let mut winners = Vec::new();
    for (early, late) in [(0, 0), (40, 2), (2, 40)] {
        let mut plan = FaultPlan::empty();
        plan.specs.push(kill(24, early));
        plan.specs.push(kill(100, late));
        let cfg = SimConfig::new(Machine::ndv4(16)).with_faults(plan);
        let serial = SerialBackend.simulate(&ir, &cfg, 1 << 20);
        let Err(SimError::InjectedFault { rank, .. }) = serial else {
            panic!("steps ({early}, {late}): expected a kill, got {serial:?}");
        };
        winners.push(rank);
        for threads in [2, 3] {
            let par = ParallelBackend { threads }.simulate(&ir, &cfg, 1 << 20);
            assert_eq!(
                serial, par,
                "steps ({early}, {late}): error diverged at {threads} threads"
            );
        }
    }
    assert_eq!(winners, [24, 100, 24], "each kill wins somewhere");
}

/// The event-ordering contract (see `crates/sim/src/sync.rs`): events
/// with equal timestamps fire in insertion order on a per-shard counter,
/// so scheduling-sensitive statistics — the processed-event count and
/// the peak heap depth, which change if *any* tie is broken differently
/// — match exactly between backends and across repeated parallel runs.
#[test]
fn tie_breaking_is_schedule_independent() {
    let (program, machine) = &catalog()[2]; // hierarchical, two shards
    let ir = compiled(program);
    // No launch offset: every thread block wakes at exactly t = 0, the
    // worst case for timestamp ties.
    let cfg = SimConfig::new(machine.clone()).with_launch(false);
    let serial = simulate(&ir, &cfg, 1 << 18).unwrap();
    for threads in [2, 3, 4, 8] {
        let a = ParallelBackend { threads }
            .simulate(&ir, &cfg, 1 << 18)
            .unwrap();
        let b = ParallelBackend { threads }
            .simulate(&ir, &cfg, 1 << 18)
            .unwrap();
        assert_eq!(a.events, serial.events, "{threads} threads: event count");
        assert_eq!(a.max_heap, serial.max_heap, "{threads} threads: peak heap");
        assert_eq!(a, b, "{threads} threads: repeated runs diverged");
        assert_eq!(a, serial, "{threads} threads: full report diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random algorithm × random fault seed × random thread count: both
    /// engines return the same `Result`, and the parallel engine is
    /// deterministic across repeated runs of the same configuration.
    #[test]
    fn random_faulted_runs_agree_and_are_deterministic(
        index in 0usize..15,
        seed in any::<u64>(),
        threads in 2usize..9,
        shift in 12u32..22,
    ) {
        let (program, machine) = &catalog()[index];
        let ir = compiled(program);
        let plan = FaultPlan::generate(seed, &FaultUniverse::from_ir(&ir));
        let cfg = SimConfig::new(machine.clone()).with_faults(plan);
        let bytes = 1u64 << shift;
        let serial = SerialBackend.simulate(&ir, &cfg, bytes);
        let par = ParallelBackend { threads }.simulate(&ir, &cfg, bytes);
        let again = ParallelBackend { threads }.simulate(&ir, &cfg, bytes);
        prop_assert_eq!(&serial, &par);
        prop_assert_eq!(&par, &again);
    }

    /// Thread-count invariance on clean runs with full recording: the
    /// report is a pure function of (program, config, bytes), never of
    /// the worker count.
    #[test]
    fn thread_count_never_changes_the_report(
        index in 0usize..15,
        a in 2usize..9,
        b in 2usize..9,
    ) {
        let (program, machine) = &catalog()[index];
        let ir = compiled(program);
        let cfg = SimConfig::new(machine.clone()).with_trace(true).with_timeline(true);
        let ra = ParallelBackend { threads: a }.simulate(&ir, &cfg, 1 << 19);
        let rb = ParallelBackend { threads: b }.simulate(&ir, &cfg, 1 << 19);
        prop_assert_eq!(ra, rb);
    }
}
