//! Oversubscription differential tier: scheduler-size invariance.
//!
//! The work-stealing executor must produce *bit-identical* results no
//! matter how many worker threads interpret the compiled thread blocks.
//! Every algorithm in `msccl-algos` runs under every protocol at pool
//! sizes {1, 2, num_tbs/2} — from fully serialized (one worker resumes
//! every TB task in turn) through heavily oversubscribed — and each run
//! is compared element-for-element against the program-replay oracle.
//!
//! `random_inputs` produces small integers, so `f32` sums are exact and
//! association-order independent: any bit difference means a task lost
//! state across a park/steal migration, two workers ran the same task,
//! or a wakeup was lost and a stale tile was consumed.
//!
//! Set `MSCCL_SCHED_THREADS=N` to pin the tier to a single pool size —
//! the CI `executor-oversub` matrix job uses this to split pool sizes
//! across jobs.

use msccl_runtime::{execute, execute_in_arena, reference, ExecArena, RunOptions};
use msccl_topology::Protocol;
use mscclang::{compile, CompileOptions, Program, ReduceOp};

/// All fifteen shipped algorithms, sized as in the bit-exactness tier.
fn algorithms() -> Vec<(&'static str, Program)> {
    vec![
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
    ]
}

/// Pool sizes to sweep for a program with `num_tbs` total thread blocks,
/// honoring the `MSCCL_SCHED_THREADS` pin used by the CI matrix.
fn pool_sizes(num_tbs: usize) -> Vec<usize> {
    if let Ok(pin) = std::env::var("MSCCL_SCHED_THREADS") {
        let n: usize = pin
            .parse()
            .unwrap_or_else(|_| panic!("MSCCL_SCHED_THREADS={pin}: not a pool size"));
        return vec![n.max(1)];
    }
    let mut sizes = vec![1, 2, (num_tbs / 2).max(1)];
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

#[test]
fn every_algorithm_is_bit_exact_at_every_pool_size() {
    let chunk_elems = 96;
    for (name, program) in &algorithms() {
        let ir = compile(program, &CompileOptions::default()).expect("compiles");
        let inputs = reference::random_inputs(&ir, chunk_elems, 17);
        let golden =
            reference::replay_program(program, &inputs, chunk_elems * ir.refinement, ReduceOp::Sum);
        for pool in pool_sizes(ir.num_threadblocks()) {
            for protocol in [Protocol::Simple, Protocol::Ll, Protocol::Ll128] {
                let opts = RunOptions {
                    protocol,
                    tile_elems: Some(25), // 96 elems -> tiles of 25/25/25/21
                    worker_threads: pool,
                    ..RunOptions::default()
                };
                let outputs = execute(&ir, &inputs, chunk_elems, &opts)
                    .unwrap_or_else(|e| panic!("{name}/{protocol:?}/pool={pool}: {e}"));
                assert_eq!(
                    outputs.len(),
                    golden.len(),
                    "{name}/{protocol:?}/pool={pool}: ranks"
                );
                for (r, (got, want)) in outputs.iter().zip(&golden).enumerate() {
                    assert_eq!(
                        got.len(),
                        want.len(),
                        "{name}/{protocol:?}/pool={pool} rank {r}: output length"
                    );
                    for (i, (a, b)) in got.iter().zip(want).enumerate() {
                        assert!(
                            a.to_bits() == b.to_bits(),
                            "{name}/{protocol:?}/pool={pool} rank {r} element {i}: \
                             {a} != {b} (bitwise)"
                        );
                    }
                }
            }
        }
    }
}

/// Arena-recycled runs stay bit-exact with *changing* inputs.
///
/// Recycled construction elides the re-zero of chunks the instruction
/// scan proves are overwritten before every read, and output extraction
/// steals a rank's whole space buffer when the layout allows — both
/// optimizations keep stale data from the previous run in memory on
/// purpose. Three consecutive runs share one `ExecArena`, each with a
/// different input seed: if elision or the steal ever kept a byte that
/// is actually observable, round N's values would leak into round N+1's
/// outputs and the oracle comparison would catch the exact element.
#[test]
fn recycled_arena_runs_are_bit_exact_across_changing_inputs() {
    let chunk_elems = 96;
    for (name, program) in &algorithms() {
        let ir = compile(program, &CompileOptions::default()).expect("compiles");
        let opts = RunOptions {
            tile_elems: Some(25),
            worker_threads: 2,
            ..RunOptions::default()
        };
        let mut arena = ExecArena::new(&ir, &opts);
        for seed in [3u64, 41, 271] {
            let inputs = reference::random_inputs(&ir, chunk_elems, seed);
            let golden = reference::replay_program(
                program,
                &inputs,
                chunk_elems * ir.refinement,
                ReduceOp::Sum,
            );
            let (outputs, _) = execute_in_arena(&ir, &inputs, chunk_elems, &opts, &mut arena)
                .unwrap_or_else(|e| panic!("{name}/seed={seed}: {e}"));
            for (r, (got, want)) in outputs.iter().zip(&golden).enumerate() {
                assert_eq!(got.len(), want.len(), "{name}/seed={seed} rank {r}: length");
                for (i, (a, b)) in got.iter().zip(want).enumerate() {
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "{name}/seed={seed} rank {r} element {i}: {a} != {b} (bitwise)"
                    );
                }
            }
            arena.recycle_outputs(outputs);
        }
    }
}

/// Input chunks the runtime never copies into rank memory are
/// unobservable.
///
/// Every algorithm, under every protocol, at a many-tile and a one-tile
/// (protocol default) tile size, runs in one `ExecArena`: first on
/// all-NaN inputs, then on seeded inputs held bit-exact against the
/// replay oracle. The NaN runs leave NaN in every recycled rank-memory
/// slot and in the output vectors handed back to the arena, so a chunk
/// the seeded run reads from memory without having loaded or written it
/// first surfaces as NaN in the outputs.
#[test]
fn stale_input_chunks_are_unobservable() {
    let chunk_elems = 96;
    for (name, program) in &algorithms() {
        let ir = compile(program, &CompileOptions::default()).expect("compiles");
        let poison: Vec<Vec<f32>> = reference::random_inputs(&ir, chunk_elems, 0)
            .into_iter()
            .map(|input| vec![f32::NAN; input.len()])
            .collect();
        let inputs = reference::random_inputs(&ir, chunk_elems, 29);
        let golden =
            reference::replay_program(program, &inputs, chunk_elems * ir.refinement, ReduceOp::Sum);
        for pool in pool_sizes(ir.num_threadblocks()) {
            for protocol in [Protocol::Simple, Protocol::Ll, Protocol::Ll128] {
                for tile_elems in [Some(25), None] {
                    let what = format!("{name}/{protocol:?}/tile={tile_elems:?}/pool={pool}");
                    let opts = RunOptions {
                        protocol,
                        tile_elems,
                        worker_threads: pool,
                        ..RunOptions::default()
                    };
                    let mut arena = ExecArena::new(&ir, &opts);
                    // Twice: the second run's output steal swaps in the
                    // first run's NaN vectors, so NaN also lands in the
                    // spaces that back the outputs.
                    for _ in 0..2 {
                        let (stale, _) =
                            execute_in_arena(&ir, &poison, chunk_elems, &opts, &mut arena)
                                .unwrap_or_else(|e| panic!("{what} (NaN run): {e}"));
                        arena.recycle_outputs(stale);
                    }
                    let (outputs, _) =
                        execute_in_arena(&ir, &inputs, chunk_elems, &opts, &mut arena)
                            .unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_bit_exact(&what, &outputs, &golden);
                }
            }
        }
    }
}

/// How many input chunks each registry algorithm still copies into rank
/// memory at 16 ranks, summed over ranks, as a warm arena's
/// `ExecStats::input_elems_loaded` reports it: `(name, loaded, total)`.
/// Every other read of an input chunk takes the caller's buffer in place.
/// Ring allreduce loads nothing; the in-place allgathers load each rank's
/// own chunk, which is output and never written.
#[test]
fn input_loads_match_the_pinned_table() {
    const TABLE: [(&str, u64, u64); 15] = [
        ("ring-allreduce", 0, 256),
        ("allpairs-allreduce", 0, 256),
        ("hierarchical-allreduce", 0, 512),
        ("two-step-alltoall", 32, 256),
        ("one-step-alltoall", 16, 256),
        ("alltonext", 0, 128),
        ("hcm-allgather", 8, 8),
        ("recursive-doubling-allgather", 16, 16),
        ("tree-allreduce", 0, 16),
        ("double-tree-allreduce", 0, 32),
        ("rabenseifner-allreduce", 0, 256),
        ("broadcast", 1, 16),
        ("reduce", 0, 16),
        ("gather", 1, 16),
        ("scatter", 1, 256),
    ];
    let spec = msccl_algos::registry::AlgoSpec {
        ranks: Some(16),
        ..Default::default()
    };
    let chunk_elems = 4;
    let mut got = Vec::new();
    for (name, _, _) in TABLE {
        let program = msccl_algos::registry::build_by_name(name, &spec).expect("builds");
        let ir = compile(&program, &CompileOptions::default()).expect("compiles");
        let inputs = reference::random_inputs(&ir, chunk_elems, 5);
        let opts = RunOptions::default();
        let mut arena = ExecArena::new(&ir, &opts);
        let mut loaded = 0;
        for _ in 0..2 {
            let (outputs, stats) = execute_in_arena(&ir, &inputs, chunk_elems, &opts, &mut arena)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            arena.recycle_outputs(outputs);
            loaded = stats.input_elems_loaded;
        }
        let total = (ir.collective.in_chunks() * ir.num_ranks()) as u64;
        got.push((name, loaded / chunk_elems as u64, total));
    }
    assert_eq!(got, TABLE);
}

/// Panics unless `outputs` equals `golden` bit for bit.
fn assert_bit_exact(what: &str, outputs: &[Vec<f32>], golden: &[Vec<f32>]) {
    assert_eq!(outputs.len(), golden.len(), "{what}: ranks");
    for (r, (got, want)) in outputs.iter().zip(golden).enumerate() {
        assert_eq!(got.len(), want.len(), "{what} rank {r}: output length");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "{what} rank {r} element {i}: {a} != {b} (bitwise)"
            );
        }
    }
}

/// One arena run of `ir`, checked against the replay oracle of `program`
/// on inputs drawn from `seed`.
fn arena_run_is_bit_exact(
    what: &str,
    program: &Program,
    ir: &mscclang::IrProgram,
    chunk_elems: usize,
    seed: u64,
    opts: &RunOptions,
    arena: &mut ExecArena,
) {
    let inputs = reference::random_inputs(ir, chunk_elems, seed);
    let golden =
        reference::replay_program(program, &inputs, chunk_elems * ir.refinement, ReduceOp::Sum);
    let (outputs, _) = execute_in_arena(ir, &inputs, chunk_elems, opts, arena)
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_bit_exact(what, &outputs, &golden);
    arena.recycle_outputs(outputs);
}

/// `(rank, tb id, channel, send peer, recv peer)` of one thread block.
type TbIdentity = (usize, usize, usize, Option<usize>, Option<usize>);

fn tb_layout(ir: &mscclang::IrProgram) -> Vec<TbIdentity> {
    ir.gpus
        .iter()
        .flat_map(|g| {
            g.threadblocks
                .iter()
                .map(|t| (g.rank, t.id, t.channel, t.send_peer, t.recv_peer))
        })
        .collect()
}

/// Stale-plan safety (a): the arena's cached execution plan must be
/// matched by *content*. Ring allreduce, ring allgather and ring
/// reduce-scatter over the same ranks have the same thread-block layout
/// — same ranks, block ids, channels and peers, which is all the pre-plan
/// metric cache compared — but different instruction streams (and
/// different collectives). Alternating them in one arena, each freshly
/// compiled into a heap slot the previous one just vacated (so the
/// allocator is free to hand back the same address), a plan kept by
/// layout or by address would interpret the wrong program; the replay
/// oracle would see it in the bits.
#[test]
fn one_arena_alternating_programs_of_equal_layout_is_bit_exact() {
    let chunk_elems = 96;
    let programs = [
        msccl_algos::ring_all_reduce(8, 1).unwrap(),
        msccl_algos::ring_all_gather_program(8, 1).unwrap(),
        msccl_algos::ring_reduce_scatter_program(8, 1).unwrap(),
    ];
    let compiled =
        |p: &Program| Box::new(compile(p, &CompileOptions::default()).expect("compiles"));
    {
        let irs: Vec<_> = programs.iter().map(compiled).collect();
        for ir in &irs[1..] {
            assert_eq!(tb_layout(ir), tb_layout(&irs[0]), "layouts must agree");
            assert_ne!(ir.gpus, irs[0].gpus, "instruction streams must differ");
        }
    }
    for pool in pool_sizes(8) {
        let opts = RunOptions {
            tile_elems: Some(25),
            worker_threads: pool,
            ..RunOptions::default()
        };
        let mut arena = ExecArena::new(&compiled(&programs[0]), &opts);
        for round in 0..9u64 {
            let program = &programs[round as usize % programs.len()];
            let ir = compiled(program);
            for seed in [round, round + 100] {
                arena_run_is_bit_exact(
                    &format!("pool={pool} round {round} {} seed {seed}", ir.name),
                    program,
                    &ir,
                    chunk_elems,
                    seed,
                    &opts,
                    &mut arena,
                );
            }
            drop(ir);
        }
    }
}

/// Stale-plan safety (b): one program, one arena, every protocol (the
/// FIFO slot count is part of the plan's shape) crossed with a one-tile
/// and a many-tile chunk size (per-run scalars the plan must not bake
/// in), in an order that revisits each combination.
#[test]
fn one_arena_across_protocols_and_chunk_sizes_is_bit_exact() {
    let program = msccl_algos::ring_all_reduce(8, 2).unwrap();
    let ir = compile(&program, &CompileOptions::default()).expect("compiles");
    for pool in pool_sizes(ir.num_threadblocks()) {
        let mut arena = ExecArena::new(&ir, &RunOptions::default());
        for round in 0..2u64 {
            for protocol in [Protocol::Simple, Protocol::Ll, Protocol::Ll128] {
                for chunk_elems in [64, 4096] {
                    let opts = RunOptions {
                        protocol,
                        worker_threads: pool,
                        ..RunOptions::default()
                    };
                    arena_run_is_bit_exact(
                        &format!("pool={pool} round {round} {protocol:?} chunk={chunk_elems}"),
                        &program,
                        &ir,
                        chunk_elems,
                        17 + round,
                        &opts,
                        &mut arena,
                    );
                }
            }
        }
    }
}

/// Stale-plan safety (c): the pool size is part of the plan's shape and
/// of the arena's resident thread set. 1 → 2 → 1 → 4 → 2 in one arena
/// (deliberately ignoring the `MSCCL_SCHED_THREADS` pin: the change is
/// the test) must rebuild both and stay bit-exact.
#[test]
fn one_arena_across_pool_sizes_is_bit_exact() {
    let chunk_elems = 96;
    for (name, program) in &algorithms()[..4] {
        let ir = compile(program, &CompileOptions::default()).expect("compiles");
        let mut arena = ExecArena::new(&ir, &RunOptions::default());
        for (i, pool) in [1usize, 2, 1, 4, 2, 2].into_iter().enumerate() {
            let opts = RunOptions {
                tile_elems: Some(25),
                worker_threads: pool,
                ..RunOptions::default()
            };
            arena_run_is_bit_exact(
                &format!("{name} step {i} pool={pool}"),
                program,
                &ir,
                chunk_elems,
                i as u64,
                &opts,
                &mut arena,
            );
        }
    }
}

/// A 64-rank ring allreduce completes on the CI host with the default
/// (auto-sized) pool: 128 thread blocks collapse onto min(cores, 128)
/// workers instead of spawning one OS thread each, and the answer is
/// still bit-exact against the replay oracle.
#[test]
fn allreduce_64_ranks_completes_on_auto_pool() {
    let program = msccl_algos::ring_all_reduce(64, 2).unwrap();
    let ir = compile(&program, &CompileOptions::default()).expect("compiles");
    let chunk_elems = 8;
    let inputs = reference::random_inputs(&ir, chunk_elems, 99);
    let golden = reference::replay_program(
        &program,
        &inputs,
        chunk_elems * ir.refinement,
        ReduceOp::Sum,
    );
    let outputs = execute(&ir, &inputs, chunk_elems, &RunOptions::default())
        .unwrap_or_else(|e| panic!("64-rank allreduce: {e}"));
    assert_eq!(outputs.len(), golden.len(), "64-rank allreduce: ranks");
    for (r, (got, want)) in outputs.iter().zip(&golden).enumerate() {
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "64-rank allreduce rank {r} element {i}: {a} != {b} (bitwise)"
            );
        }
    }
}
