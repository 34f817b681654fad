//! Differential tests between the two executors and the verifier.
//!
//! For every algorithm in `msccl-algos`, the threaded runtime and the
//! discrete-event simulator each record a trace of the same compiled IR,
//! pinned to a single tile so the executions are structurally identical.
//! Both traces must:
//!
//! * pass the consistency oracle against the IR — every `InstrBegin`
//!   happens-before-ordered after the `InstrEnd` of each dependency in
//!   verify's dependency graph, FIFO pairing intact, nesting intact;
//! * execute exactly the instruction instances the symbolic verifier
//!   counts; and
//! * agree with each other on each thread block's instruction order.
//!
//! On top of the traces, both executors' always-on metric registries
//! must report *identical* logical counters — bytes, sends and receives
//! per `(src, dst, channel)` connection and instruction counts per
//! opcode — because the simulator speaks the same metrics vocabulary on
//! a virtual clock.

use std::collections::HashMap;

use msccl_metrics::names;
use msccl_runtime::{reference, run, Run, RunOptions};
use msccl_sim::{simulate, SimConfig};
use msccl_topology::Machine;
use msccl_trace::{EventKind, Trace};
use mscclang::{compile, verify, CompileOptions, IrProgram, Program};

/// The worker-pool size to run at: `MSCCL_SCHED_THREADS` when set (the
/// CI `executor-oversub` matrix pins 1 and 2), else the default — the
/// host's parallelism.
fn pool_size() -> usize {
    std::env::var("MSCCL_SCHED_THREADS")
        .ok()
        .and_then(|pin| pin.parse().ok())
        .unwrap_or(0)
}

/// Per-thread-block `(step, tile)` sequence in `InstrBegin` order — the
/// program-order skeleton both executors must share.
fn begin_order(trace: &Trace) -> HashMap<(usize, usize), Vec<(usize, usize)>> {
    let mut order: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
    for e in trace.events() {
        if let EventKind::InstrBegin { step, tile, .. } = e.kind {
            order.entry((e.rank, e.tb)).or_default().push((step, tile));
        }
    }
    order
}

/// Runs one program through compile -> verify -> runtime trace -> sim
/// trace and cross-checks all three views.
fn differential(name: &str, program: &Program, machine: Machine) {
    let ir: IrProgram = compile(program, &CompileOptions::default()).expect("compiles");
    let report = verify::check(&ir, &verify::VerifyOptions::default()).expect("verifies");

    // Runtime, pinned to one tile (tile size = the whole chunk).
    let chunk_elems = 16;
    let opts = RunOptions {
        tile_elems: Some(chunk_elems),
        worker_threads: pool_size(),
        ..RunOptions::default()
    };
    let inputs = reference::random_inputs(&ir, chunk_elems, 3);
    let run_report = run(Run {
        trace: true,
        snapshot: true,
        ..Run::new(&ir, &inputs, chunk_elems, &opts)
    });
    run_report.result.unwrap_or_else(|e| panic!("{name}: {e}"));
    let run_trace = run_report.trace.expect("tracing was requested");
    let run_metrics = run_report.metrics;

    // Simulator over the *same* logical buffer (in_chunks x chunk_elems
    // f32), so each chunk is one tile and per-message byte counts line
    // up with the runtime's.
    let buffer_bytes =
        (ir.collective.in_chunks() * chunk_elems * std::mem::size_of::<f32>()) as u64;
    let cfg = SimConfig::new(machine).with_trace(true);
    let sim_report = simulate(&ir, &cfg, buffer_bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
    let sim_trace = sim_report.trace.expect("trace requested");
    assert_eq!(sim_report.tiles, 1, "{name}: expected a single-tile run");

    // Both traces obey the IR's dependency graph (the same `deps` edges
    // the verifier schedules by) and the FIFO/nesting invariants.
    run_trace
        .check_consistency(Some(&ir))
        .unwrap_or_else(|e| panic!("{name} runtime trace: {e}"));
    sim_trace
        .check_consistency(Some(&ir))
        .unwrap_or_else(|e| panic!("{name} sim trace: {e}"));

    // All three views count the same instruction instances.
    let ran = run_trace.executed_instructions();
    let simmed = sim_trace.executed_instructions();
    assert_eq!(ran, simmed, "{name}: executors ran different instructions");
    assert_eq!(
        ran.len(),
        report.instructions_executed,
        "{name}: trace and verifier disagree on instruction count"
    );

    // And the per-thread-block program order is identical.
    assert_eq!(
        begin_order(&run_trace),
        begin_order(&sim_trace),
        "{name}: per-tb instruction order diverged"
    );

    // The always-on registries agree sample for sample on every logical
    // counter: threaded execution and discrete-event simulation moved
    // exactly the same bytes over the same connections.
    for metric in [
        names::BYTES_SENT,
        names::BYTES_RECEIVED,
        names::SENDS,
        names::RECVS,
        names::INSTRUCTIONS,
    ] {
        let ran: Vec<_> = run_metrics.with_name(metric).collect();
        let simmed: Vec<_> = sim_report.metrics.with_name(metric).collect();
        assert!(!ran.is_empty(), "{name}: runtime recorded no {metric}");
        assert_eq!(ran, simmed, "{name}: {metric} diverged between executors");
    }
}

#[test]
fn single_node_allreduce_algorithms_agree() {
    let cases: Vec<(&str, Program)> = vec![
        (
            "ring_all_reduce",
            msccl_algos::ring_all_reduce(8, 2).unwrap(),
        ),
        (
            "allpairs_all_reduce",
            msccl_algos::allpairs_all_reduce(8).unwrap(),
        ),
        (
            "binary_tree_all_reduce",
            msccl_algos::binary_tree_all_reduce(8, 1).unwrap(),
        ),
        (
            "double_binary_tree_all_reduce",
            msccl_algos::double_binary_tree_all_reduce(8, 2).unwrap(),
        ),
        (
            "rabenseifner_all_reduce",
            msccl_algos::rabenseifner_all_reduce(8).unwrap(),
        ),
    ];
    for (name, program) in &cases {
        differential(name, program, Machine::ndv4(1));
    }
}

#[test]
fn single_node_data_movement_algorithms_agree() {
    let cases: Vec<(&str, Program)> = vec![
        (
            "recursive_doubling_all_gather",
            msccl_algos::recursive_doubling_all_gather(8).unwrap(),
        ),
        (
            "binomial_broadcast",
            msccl_algos::binomial_broadcast(8, 1, 0).unwrap(),
        ),
        (
            "binomial_reduce",
            msccl_algos::binomial_reduce(8, 1, 0).unwrap(),
        ),
        (
            "linear_gather",
            msccl_algos::linear_gather(8, 1, 0).unwrap(),
        ),
        (
            "linear_scatter",
            msccl_algos::linear_scatter(8, 1, 0).unwrap(),
        ),
    ];
    for (name, program) in &cases {
        differential(name, program, Machine::ndv4(1));
    }
}

#[test]
fn multi_node_algorithms_agree() {
    let cases: Vec<(&str, Program)> = vec![
        (
            "hierarchical_all_reduce",
            msccl_algos::hierarchical_all_reduce(2, 8).unwrap(),
        ),
        (
            "two_step_all_to_all",
            msccl_algos::two_step_all_to_all(2, 8).unwrap(),
        ),
        (
            "one_step_all_to_all",
            msccl_algos::one_step_all_to_all(2, 8).unwrap(),
        ),
        ("all_to_next", msccl_algos::all_to_next(2, 8).unwrap()),
    ];
    for (name, program) in &cases {
        differential(name, program, Machine::ndv4(2));
    }
}

#[test]
fn dgx1_algorithm_agrees() {
    differential(
        "hcm_allgather",
        &msccl_algos::hcm_allgather().unwrap(),
        Machine::dgx1(),
    );
}

/// The pooled, in-place runtime data path must be *bit-identical* to the
/// program-replay oracle for every algorithm under every protocol.
///
/// `random_inputs` produces small integers, so `f32` sums are exact and
/// independent of association order — any bit difference means the
/// zero-copy executor corrupted, reordered or dropped data somewhere.
/// A small explicit tile size forces multiple tiles per chunk (with an
/// uneven tail tile), so the pooled FIFO pipelining is exercised under
/// each protocol's slot count.
#[test]
fn pooled_executor_is_bit_exact_across_protocols() {
    use msccl_runtime::execute;
    use msccl_topology::Protocol;
    use mscclang::ReduceOp;

    let cases: Vec<(&str, Program)> = vec![
        (
            "ring_all_reduce",
            msccl_algos::ring_all_reduce(8, 2).unwrap(),
        ),
        (
            "allpairs_all_reduce",
            msccl_algos::allpairs_all_reduce(8).unwrap(),
        ),
        (
            "binary_tree_all_reduce",
            msccl_algos::binary_tree_all_reduce(8, 1).unwrap(),
        ),
        (
            "double_binary_tree_all_reduce",
            msccl_algos::double_binary_tree_all_reduce(8, 2).unwrap(),
        ),
        (
            "rabenseifner_all_reduce",
            msccl_algos::rabenseifner_all_reduce(8).unwrap(),
        ),
        (
            "recursive_doubling_all_gather",
            msccl_algos::recursive_doubling_all_gather(8).unwrap(),
        ),
        (
            "binomial_broadcast",
            msccl_algos::binomial_broadcast(8, 1, 0).unwrap(),
        ),
        (
            "binomial_reduce",
            msccl_algos::binomial_reduce(8, 1, 0).unwrap(),
        ),
        (
            "linear_gather",
            msccl_algos::linear_gather(8, 1, 0).unwrap(),
        ),
        (
            "linear_scatter",
            msccl_algos::linear_scatter(8, 1, 0).unwrap(),
        ),
        (
            "hierarchical_all_reduce",
            msccl_algos::hierarchical_all_reduce(2, 4).unwrap(),
        ),
        (
            "two_step_all_to_all",
            msccl_algos::two_step_all_to_all(2, 4).unwrap(),
        ),
        (
            "one_step_all_to_all",
            msccl_algos::one_step_all_to_all(2, 4).unwrap(),
        ),
        ("all_to_next", msccl_algos::all_to_next(2, 4).unwrap()),
        ("hcm_allgather", msccl_algos::hcm_allgather().unwrap()),
    ];

    let chunk_elems = 96;
    for (name, program) in &cases {
        let ir = compile(program, &CompileOptions::default()).expect("compiles");
        let inputs = reference::random_inputs(&ir, chunk_elems, 17);
        // The compiler may refine each program chunk into `ir.refinement`
        // contiguous sub-chunks; replaying the source program with
        // proportionally larger chunks keeps the flat buffers aligned.
        let golden =
            reference::replay_program(program, &inputs, chunk_elems * ir.refinement, ReduceOp::Sum);
        for protocol in [Protocol::Simple, Protocol::Ll, Protocol::Ll128] {
            let opts = RunOptions {
                protocol,
                tile_elems: Some(25), // 96 elems -> tiles of 25/25/25/21
                worker_threads: pool_size(),
                ..RunOptions::default()
            };
            let outputs = execute(&ir, &inputs, chunk_elems, &opts)
                .unwrap_or_else(|e| panic!("{name}/{protocol:?}: {e}"));
            assert_eq!(outputs.len(), golden.len(), "{name}/{protocol:?}: ranks");
            for (r, (got, want)) in outputs.iter().zip(&golden).enumerate() {
                assert_eq!(
                    got.len(),
                    want.len(),
                    "{name}/{protocol:?} rank {r}: output length"
                );
                for (i, (a, b)) in got.iter().zip(want).enumerate() {
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "{name}/{protocol:?} rank {r} element {i}: {a} != {b} (bitwise)"
                    );
                }
            }
        }
    }
}
