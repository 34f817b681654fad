//! Property-based tests over the structured execution traces.
//!
//! Whatever algorithm, size or parallelization the runtime executes, the
//! recorded trace must satisfy the invariants of the event model:
//!
//! * every `Send`/`Recv` pair on a `(src, dst, channel)` connection
//!   matches up in FIFO order, and the counts balance;
//! * `InstrBegin`/`InstrEnd` (and the wait/block intervals between and
//!   inside them) are well-nested per thread block;
//! * each thread block's semaphore values are strictly monotonic.

use std::collections::HashMap;

use proptest::prelude::*;

use msccl_runtime::{reference, run, Run, RunOptions};
use msccl_trace::{EventKind, Trace};
use mscclang::{compile, CompileOptions, IrProgram, Program};

/// The algorithm zoo the generator draws from; each constructor yields a
/// structurally different schedule (rings, trees, all-pairs).
#[derive(Debug, Clone, Copy)]
enum Algo {
    Ring { ranks: usize, channels: usize },
    AllPairs { ranks: usize },
    Tree { ranks: usize, chunks: usize },
    AllGather { ranks_log2: u32 },
}

impl Algo {
    fn build(self) -> Program {
        match self {
            Algo::Ring { ranks, channels } => {
                msccl_algos::ring_all_reduce(ranks, channels).expect("builds")
            }
            Algo::AllPairs { ranks } => msccl_algos::allpairs_all_reduce(ranks).expect("builds"),
            Algo::Tree { ranks, chunks } => {
                msccl_algos::binary_tree_all_reduce(ranks, chunks).expect("builds")
            }
            Algo::AllGather { ranks_log2 } => {
                msccl_algos::recursive_doubling_all_gather(1 << ranks_log2).expect("builds")
            }
        }
    }
}

fn algo_strategy() -> impl Strategy<Value = Algo> {
    prop_oneof![
        (2usize..6, 1usize..3).prop_map(|(ranks, channels)| Algo::Ring { ranks, channels }),
        (2usize..5).prop_map(|ranks| Algo::AllPairs { ranks }),
        (2usize..6, 1usize..3).prop_map(|(ranks, chunks)| Algo::Tree { ranks, chunks }),
        (1u32..3).prop_map(|ranks_log2| Algo::AllGather { ranks_log2 }),
    ]
}

fn trace_of(algo: Algo, instances: usize, chunk_elems: usize) -> (IrProgram, Trace) {
    let program = algo.build();
    let ir = compile(
        &program,
        &CompileOptions::default().with_instances(instances),
    )
    .expect("compiles");
    let inputs = reference::random_inputs(&ir, chunk_elems, 7);
    let report = run(Run {
        trace: true,
        ..Run::new(&ir, &inputs, chunk_elems, &RunOptions::default())
    });
    report.result.expect("executes");
    let trace = report.trace.expect("tracing was requested");
    (ir, trace)
}

/// Direct statement of the FIFO-pairing property, independent of the
/// checker in `msccl-trace` (which has its own unit tests): per
/// connection, send and receive sequence numbers each count 0, 1, 2, …
/// in trace order and the totals balance.
fn assert_fifo_pairing(trace: &Trace) {
    let mut sends: HashMap<(usize, usize, usize), u64> = HashMap::new();
    let mut recvs: HashMap<(usize, usize, usize), u64> = HashMap::new();
    for e in trace.events() {
        match e.kind {
            EventKind::Send {
                dst, channel, seq, ..
            } => {
                let n = sends.entry((e.rank, dst, channel)).or_default();
                assert_eq!(seq, *n, "send out of FIFO order on {:?}", (e.rank, dst));
                *n += 1;
            }
            EventKind::Recv {
                src, channel, seq, ..
            } => {
                let n = recvs.entry((src, e.rank, channel)).or_default();
                assert_eq!(seq, *n, "recv out of FIFO order on {:?}", (src, e.rank));
                *n += 1;
            }
            _ => {}
        }
    }
    assert_eq!(sends, recvs, "send/recv totals must balance per connection");
}

/// Direct statement of the nesting property: per thread block, an
/// `InstrEnd` closes the `InstrBegin` of the same `(step, tile)`, and no
/// instruction is left open at the end of the trace.
fn assert_well_nested(trace: &Trace) {
    let mut open: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
    for e in trace.events() {
        match e.kind {
            EventKind::InstrBegin { step, tile, .. } => {
                let prev = open.insert((e.rank, e.tb), (step, tile));
                assert_eq!(prev, None, "nested InstrBegin in tb {:?}", (e.rank, e.tb));
            }
            EventKind::InstrEnd { step, tile, .. } => {
                let begun = open.remove(&(e.rank, e.tb));
                assert_eq!(begun, Some((step, tile)), "mismatched InstrEnd");
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "instructions left open: {open:?}");
}

/// Direct statement of the semaphore property: values per thread block
/// strictly increase.
fn assert_monotonic_semaphores(trace: &Trace) {
    let mut last: HashMap<(usize, usize), u64> = HashMap::new();
    for e in trace.events() {
        if let EventKind::SemSet { value } = e.kind {
            if let Some(&prev) = last.get(&(e.rank, e.tb)) {
                assert!(value > prev, "semaphore went {prev} -> {value}");
            }
            last.insert((e.rank, e.tb), value);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn runtime_traces_satisfy_the_event_model(
        algo in algo_strategy(),
        instances in 1usize..3,
        chunk_elems in 4usize..64,
    ) {
        let (ir, trace) = trace_of(algo, instances, chunk_elems);
        // The full oracle: nesting, FIFO pairing, semaphore monotonicity
        // and dependency order against the IR.
        trace.check_consistency(Some(&ir)).unwrap();
        // And the three core invariants stated independently.
        assert_fifo_pairing(&trace);
        assert_well_nested(&trace);
        assert_monotonic_semaphores(&trace);
        // Every compiled instruction ran in every tile.
        let per_tile: Vec<_> = trace
            .executed_instructions()
            .iter()
            .filter(|&&(_, _, _, tile)| tile == 0)
            .copied()
            .collect();
        prop_assert_eq!(per_tile.len(), ir.num_instructions());
    }

    #[test]
    fn simulator_traces_satisfy_the_event_model(
        channels in 1usize..3,
        instances in 1usize..3,
        kib in 1u64..64,
    ) {
        let program = msccl_algos::ring_all_reduce(8, channels).expect("builds");
        let ir = compile(
            &program,
            &CompileOptions::default().with_instances(instances),
        )
        .expect("compiles");
        let cfg = msccl_sim::SimConfig::new(msccl_topology::Machine::ndv4(1)).with_trace(true);
        let report = msccl_sim::simulate(&ir, &cfg, kib << 10).expect("simulates");
        let trace = report.trace.expect("trace requested");
        trace.check_consistency(Some(&ir)).unwrap();
        assert_fifo_pairing(&trace);
        assert_well_nested(&trace);
        assert_monotonic_semaphores(&trace);
        prop_assert_eq!(trace.executed_instructions().len(), report.instructions);
    }
}
