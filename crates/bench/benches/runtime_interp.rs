//! Criterion benchmarks for the multi-threaded functional interpreter
//! (the Figure 5 analog): end-to-end AllReduce execution over real data.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use msccl_runtime::{execute, reference, run, Run, RunOptions};
use mscclang::{compile, CompileOptions};

fn bench_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_interpreter");
    group.sample_size(10);

    let ring = msccl_algos::ring_all_reduce(4, 1).expect("builds");
    let ir = compile(&ring, &CompileOptions::default().with_verify(false)).expect("compiles");

    for chunk_elems in [256usize, 4096] {
        let inputs = reference::random_inputs(&ir, chunk_elems, 9);
        let bytes = (ir.collective.in_chunks() * chunk_elems * 4) as u64;
        group.throughput(Throughput::Bytes(bytes * ir.num_ranks() as u64));
        group.bench_function(format!("ring_allreduce_4r_{chunk_elems}elems"), |b| {
            b.iter(|| {
                execute(
                    black_box(&ir),
                    black_box(&inputs),
                    chunk_elems,
                    &RunOptions::default(),
                )
                .unwrap()
            })
        });
    }

    // Tracing overhead: the same workload with event recording on. The
    // untraced path above is the same `run` as this one (recording
    // disabled), so comparing the two bounds the cost of the trace hooks.
    {
        let chunk_elems = 4096usize;
        let inputs = reference::random_inputs(&ir, chunk_elems, 9);
        let bytes = (ir.collective.in_chunks() * chunk_elems * 4) as u64;
        group.throughput(Throughput::Bytes(bytes * ir.num_ranks() as u64));
        group.bench_function(
            format!("ring_allreduce_4r_{chunk_elems}elems_traced"),
            |b| {
                b.iter(|| {
                    let report = run(Run {
                        trace: true,
                        ..Run::new(
                            black_box(&ir),
                            black_box(&inputs),
                            chunk_elems,
                            &RunOptions::default(),
                        )
                    });
                    (report.result.unwrap(), report.trace)
                })
            },
        );
    }

    let allpairs = msccl_algos::allpairs_all_reduce(4).expect("builds");
    let ir2 = compile(&allpairs, &CompileOptions::default().with_verify(false)).expect("compiles");
    let inputs2 = reference::random_inputs(&ir2, 1024, 10);
    group.bench_function("allpairs_allreduce_4r_1024elems", |b| {
        b.iter(|| {
            execute(
                black_box(&ir2),
                black_box(&inputs2),
                1024,
                &RunOptions::default(),
            )
            .unwrap()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
