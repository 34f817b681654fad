//! Property-based tests (proptest) over the compiler and runtime.
//!
//! The central property mirrors the paper's correctness guarantee (§5.2):
//! *any* well-formed chunk program — here, arbitrary random `copy`/`reduce`
//! sequences — compiles to an MSCCL-IR schedule that the symbolic executor
//! proves deadlock-free, data-race-free and postcondition-correct, under
//! any instance count, with or without fusion, at any FIFO slot depth.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;

use msccl_runtime::{execute, execute_in_arena, reference, ExecArena, RunOptions};
use mscclang::dag::{ChunkDag, EdgeKind, InstrDag};
use mscclang::{
    compile, verify, BufferKind, ChunkValue, Collective, CompileOptions, Loc, OpCode, Program,
    ReduceOp, Space, TraceOpKind,
};

/// One intended operation, interpreted against the evolving program state;
/// intents that would be invalid (stale/uninitialized/out-of-bounds) are
/// skipped, so every generated program is well-formed by construction.
#[derive(Debug, Clone)]
struct OpIntent {
    is_reduce: bool,
    src_rank: usize,
    src_buf: u8,
    src_idx: usize,
    dst_rank: usize,
    dst_buf: u8,
    dst_idx: usize,
    count: usize,
    channel: Option<usize>,
}

fn buf(code: u8) -> BufferKind {
    match code % 3 {
        0 => BufferKind::Input,
        1 => BufferKind::Output,
        _ => BufferKind::Scratch,
    }
}

fn intent_strategy(ranks: usize, chunks: usize) -> impl Strategy<Value = OpIntent> {
    (
        any::<bool>(),
        0..ranks,
        0u8..3,
        0..chunks,
        0..ranks,
        0u8..3,
        0..chunks,
        1usize..3,
        prop_oneof![Just(None), (0usize..3).prop_map(Some)],
    )
        .prop_map(
            |(
                is_reduce,
                src_rank,
                src_buf,
                src_idx,
                dst_rank,
                dst_buf,
                dst_idx,
                count,
                channel,
            )| {
                OpIntent {
                    is_reduce,
                    src_rank,
                    src_buf,
                    src_idx,
                    dst_rank,
                    dst_buf,
                    dst_idx,
                    count,
                    channel,
                }
            },
        )
}

/// Builds a program from intents; returns `None` if no intent applied.
fn build_program(ranks: usize, chunks: usize, intents: &[OpIntent]) -> Option<Program> {
    let coll = Collective::custom(ranks, chunks, chunks, vec![vec![None; chunks]; ranks]);
    let mut p = Program::new("random_program", coll);
    let mut applied = 0usize;
    for intent in intents {
        let Ok(src) = p.chunk(
            intent.src_rank,
            buf(intent.src_buf),
            intent.src_idx,
            intent.count,
        ) else {
            continue;
        };
        let result = if intent.is_reduce {
            let Ok(dst) = p.chunk(
                intent.dst_rank,
                buf(intent.dst_buf),
                intent.dst_idx,
                intent.count,
            ) else {
                continue;
            };
            match intent.channel {
                Some(ch) => p.reduce_on(&dst, &src, ch),
                None => p.reduce(&dst, &src),
            }
        } else {
            match intent.channel {
                Some(ch) => p.copy_on(
                    &src,
                    intent.dst_rank,
                    buf(intent.dst_buf),
                    intent.dst_idx,
                    ch,
                ),
                None => p.copy(&src, intent.dst_rank, buf(intent.dst_buf), intent.dst_idx),
            }
        };
        if result.is_ok() {
            applied += 1;
        }
    }
    (applied > 0).then_some(p)
}

type Key = (usize, Space, usize);

/// Last writer and readers since, per `(rank, space, offset)`, in hash
/// maps: the reference the DAG builders' dense hazard table must agree
/// with.
#[derive(Default)]
struct HashedHazards {
    last_writer: HashMap<Key, usize>,
    readers: HashMap<Key, Vec<usize>>,
}

fn keys(collective: &Collective, rank: usize, loc: Option<Loc>, count: usize) -> Vec<Key> {
    loc.map_or_else(Vec::new, |loc| {
        (0..count)
            .map(|i| {
                let (space, off) = collective.space_of(rank, loc.buffer, loc.index + i);
                (rank, space, off)
            })
            .collect()
    })
}

/// Each Chunk DAG node's `(true_deps, false_deps)`, recomputed.
fn chunk_deps_reference(dag: &ChunkDag) -> Vec<(Vec<usize>, Vec<usize>)> {
    let c = dag.collective();
    let mut h = HashedHazards::default();
    let mut out = Vec::new();
    for (id, n) in dag.nodes().iter().enumerate() {
        let mut reads = keys(c, n.src.rank, Some(n.src), n.count);
        if n.kind == TraceOpKind::Reduce {
            reads.extend(keys(c, n.dst.rank, Some(n.dst), n.count));
        }
        let mut true_deps = BTreeSet::new();
        for key in reads {
            true_deps.extend(h.last_writer.get(&key).copied());
            h.readers.entry(key).or_default().push(id);
        }
        let mut false_deps = BTreeSet::new();
        for key in keys(c, n.dst.rank, Some(n.dst), n.count) {
            false_deps.extend(h.last_writer.insert(key, id));
            let readers = h.readers.insert(key, Vec::new()).unwrap_or_default();
            false_deps.extend(readers.into_iter().filter(|&r| r != id));
        }
        out.push((
            true_deps.iter().copied().collect(),
            false_deps.difference(&true_deps).copied().collect(),
        ));
    }
    out
}

/// The Instruction DAG's processing edges, recomputed in emission order.
fn instr_edges_reference(dag: &InstrDag) -> Vec<(usize, usize, EdgeKind)> {
    let c = &dag.collective;
    let mut h = HashedHazards::default();
    let mut edges = Vec::new();
    for (id, n) in dag.nodes.iter().enumerate() {
        let mut reads = Vec::new();
        match n.op {
            OpCode::Recv | OpCode::RecvCopySend => {}
            OpCode::Reduce => {
                reads = keys(c, n.rank, n.src, n.count);
                reads.extend(keys(c, n.rank, n.dst, n.count));
            }
            _ => reads = keys(c, n.rank, n.src, n.count),
        }
        let writes = if n.op.writes().is_some() {
            keys(c, n.rank, n.dst, n.count)
        } else {
            Vec::new()
        };
        let mut deps: Vec<(usize, EdgeKind)> = Vec::new();
        let mut add = |d: usize, kind: EdgeKind| {
            if !deps.iter().any(|&(n, _)| n == d) {
                deps.push((d, kind));
            }
        };
        for key in reads {
            if let Some(&w) = h.last_writer.get(&key) {
                add(w, EdgeKind::Raw);
            }
            h.readers.entry(key).or_default().push(id);
        }
        for key in &writes {
            if let Some(&w) = h.last_writer.get(key) {
                add(w, EdgeKind::Waw);
            }
            for &r in h.readers.get(key).into_iter().flatten() {
                if r != id {
                    add(r, EdgeKind::War);
                }
            }
        }
        for key in writes {
            h.last_writer.insert(key, id);
            h.readers.insert(key, Vec::new());
        }
        edges.extend(deps.into_iter().map(|(d, kind)| (d, id, kind)));
    }
    edges
}

/// Builds both DAGs of `program` (a debug build checks every hazard table
/// index against its block) and compares their dependencies with the
/// hash-map reference.
fn assert_hazards_match_reference(program: &Program, instances: usize) {
    let chunk_dag = ChunkDag::build(program, instances).expect("builds");
    let deps: Vec<_> = chunk_dag
        .nodes()
        .iter()
        .map(|n| (n.true_deps.clone(), n.false_deps.clone()))
        .collect();
    assert_eq!(deps, chunk_deps_reference(&chunk_dag), "chunk DAG deps");
    let instr_dag = InstrDag::build(&chunk_dag);
    assert_eq!(
        instr_dag.proc_edges,
        instr_edges_reference(&instr_dag),
        "instruction DAG processing edges"
    );
}

/// The dense hazard table is sized from the collective and the refined
/// scratch counts; these programs touch the last location of each kind of
/// block it has.
#[test]
fn hazard_tables_cover_every_location() {
    // In place, input and output alias into one data space at an offset
    // of `rank x chunks`; the last rank's block is the space's end.
    for instances in [1, 2] {
        let ag = msccl_algos::ring_all_gather_program(4, 2).unwrap();
        assert_hazards_match_reference(&ag, instances);
        let rs = msccl_algos::ring_reduce_scatter_program(4, 2).unwrap();
        assert_hazards_match_reference(&rs, instances);
        compile(&ag, &CompileOptions::default().with_instances(instances)).unwrap();
        compile(&rs, &CompileOptions::default().with_instances(instances)).unwrap();
    }

    // The highest scratch index is written by the last traced op.
    let mut p = Program::new("scratch_last", Collective::all_gather(2, 1, false));
    let c = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
    let s = p.copy(&c, 0, BufferKind::Scratch, 1).unwrap();
    let _ = p.copy(&s, 1, BufferKind::Output, 0).unwrap();
    let c = p.chunk(1, BufferKind::Input, 0, 1).unwrap();
    let _ = p.copy(&c, 0, BufferKind::Scratch, 4).unwrap();
    assert_eq!(p.scratch_chunks(0), 5);
    assert_hazards_match_reference(&p, 3);

    // Three instances over a `parallelize(2)` fragment refine by 6, in
    // place and through scratch.
    let mut p = Program::new("refined", Collective::all_reduce(2, 2, true));
    p.parallelize(2, |p| {
        let c0 = p.chunk(0, BufferKind::Input, 0, 2)?;
        let c1 = p.chunk(1, BufferKind::Input, 0, 2)?;
        let _ = p.reduce(&c1, &c0)?;
        Ok(())
    })
    .unwrap();
    let c = p.chunk(1, BufferKind::Input, 0, 2).unwrap();
    let s = p.copy(&c, 1, BufferKind::Scratch, 0).unwrap();
    let _ = p.copy(&s, 0, BufferKind::Output, 0).unwrap();
    assert_eq!(ChunkDag::build(&p, 3).unwrap().refinement(), 6);
    assert_hazards_match_reference(&p, 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any well-formed program compiles into verifiable IR at any instance
    /// count, fused or not.
    #[test]
    fn random_programs_compile_and_verify(
        ranks in 2usize..5,
        chunks in 2usize..5,
        intents in proptest::collection::vec(intent_strategy(4, 4), 1..25),
        instances in 1usize..4,
        fuse in any::<bool>(),
    ) {
        let intents: Vec<OpIntent> = intents
            .into_iter()
            .map(|mut i| {
                i.src_rank %= ranks;
                i.dst_rank %= ranks;
                i.src_idx %= chunks;
                i.dst_idx %= chunks;
                i
            })
            .collect();
        let Some(program) = build_program(ranks, chunks, &intents) else {
            return Ok(());
        };
        let ir = compile(
            &program,
            &CompileOptions::default()
                .with_verify(false)
                .with_instances(instances)
                .with_fuse(fuse),
        )
        .expect("well-formed programs must compile");
        ir.check_structure().expect("structural invariants");
        verify::check(&ir, &verify::VerifyOptions::default())
            .expect("compiled IR must verify");
    }

    /// Compiling against a FIFO budget of `s` slots yields a schedule
    /// that verifies at exactly `s` slots and never piles more than `s`
    /// unconsumed messages on any connection (§6.1).
    #[test]
    fn schedules_respect_their_slot_budget(
        intents in proptest::collection::vec(intent_strategy(3, 3), 1..15),
        slots in 1usize..9,
    ) {
        let Some(program) = build_program(3, 3, &intents) else { return Ok(()) };
        let ir = compile(
            &program,
            &CompileOptions::default().with_verify(false).with_slots(slots),
        )
        .expect("compiles");
        let report = verify::check(&ir, &verify::VerifyOptions { slots, check_races: true })
            .expect("verifies at the compiled slot budget");
        prop_assert!(report.max_queue_depth <= slots);
    }

    /// The threaded runtime computes the exact AllReduce result for random
    /// shapes, seeds, instance counts and tile sizes.
    #[test]
    fn ring_allreduce_is_numerically_correct(
        ranks in 2usize..6,
        channels in 1usize..3,
        instances in 1usize..3,
        chunk_elems in 1usize..40,
        tile in 1usize..16,
        seed in any::<u64>(),
    ) {
        let program = msccl_algos::ring_all_reduce(ranks, channels).expect("builds");
        let ir = compile(
            &program,
            &CompileOptions::default().with_verify(false).with_instances(instances),
        )
        .expect("compiles");
        let inputs = reference::random_inputs(&ir, chunk_elems, seed);
        let opts = RunOptions { tile_elems: Some(tile), ..RunOptions::default() };
        let outputs = execute(&ir, &inputs, chunk_elems, &opts).expect("executes");
        reference::check_outputs(&ir.collective, &inputs, &outputs, chunk_elems, ReduceOp::Sum)
            .expect("correct results");
    }

    /// Source-level validation agrees with IR-level verification: a traced
    /// program that satisfies its postcondition compiles to IR that also
    /// satisfies it, for the standard collectives.
    #[test]
    fn validation_is_preserved_by_compilation(
        ranks in 2usize..6,
        algo in 0usize..4,
    ) {
        let program = match algo {
            0 => msccl_algos::ring_all_reduce(ranks.max(2), 1),
            1 => msccl_algos::allpairs_all_reduce(ranks.max(2)),
            2 => msccl_algos::binary_tree_all_reduce(ranks.max(2), 1),
            _ => msccl_algos::all_to_next(2, ranks.max(2)),
        }
        .expect("builds");
        program.validate().expect("source validates");
        // compile() runs the IR verifier by default.
        compile(&program, &CompileOptions::default()).expect("IR verifies too");
    }

    /// Both DAG builders' dense hazard table agrees with the hash-map
    /// reference on arbitrary programs, scratch traffic included, at any
    /// instance count. Two ranks of two chunks make long programs read
    /// and overwrite the same locations many times.
    #[test]
    fn hazard_tables_match_the_reference(
        intents in proptest::collection::vec(intent_strategy(2, 2), 1..30),
        instances in 1usize..4,
    ) {
        let Some(program) = build_program(2, 2, &intents) else { return Ok(()) };
        assert_hazards_match_reference(&program, instances);
    }

    /// Compilation is a pure function: the same program and options
    /// produce bit-identical IR (no HashMap iteration order leaks into the
    /// schedule).
    #[test]
    fn compilation_is_deterministic(
        intents in proptest::collection::vec(intent_strategy(4, 3), 1..20),
        instances in 1usize..3,
    ) {
        let Some(program) = build_program(4, 3, &intents) else { return Ok(()) };
        let opts = CompileOptions::default().with_verify(false).with_instances(instances);
        let a = compile(&program, &opts).expect("compiles");
        let b = compile(&program, &opts).expect("compiles");
        prop_assert_eq!(a, b);
    }

    /// End-to-end agreement for *arbitrary* programs: executing the
    /// compiled IR across threads produces exactly what a sequential
    /// replay of the traced chunk operations produces — including custom
    /// collectives with unconstrained postconditions.
    #[test]
    fn compiled_execution_matches_trace_replay(
        intents in proptest::collection::vec(intent_strategy(3, 3), 1..18),
        instances in 1usize..3,
        seed in any::<u64>(),
    ) {
        let Some(program) = build_program(3, 3, &intents) else { return Ok(()) };
        let chunk_elems = 4 * instances; // divisible by the refinement
        let ir = compile(
            &program,
            &CompileOptions::default().with_verify(false).with_instances(instances),
        )
        .expect("compiles");
        // Build inputs at the SOURCE granularity, replay, then execute the
        // refined IR with proportionally smaller chunks over the same
        // flat data.
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 % 64.0
        };
        let inputs: Vec<Vec<f32>> = (0..3)
            .map(|_| (0..program.collective().in_chunks() * chunk_elems).map(|_| next()).collect())
            .collect();
        let expected =
            reference::replay_program(&program, &inputs, chunk_elems, ReduceOp::Sum);
        let refined_elems = chunk_elems / ir.refinement;
        let opts = RunOptions::default();
        let actual = execute(&ir, &inputs, refined_elems, &opts).expect("executes");
        // Only compare locations the program actually wrote: replay leaves
        // unwritten outputs at 0.0 while the runtime may leave garbage-free
        // zeros too (both initialize to zero), so exact equality holds.
        prop_assert_eq!(&actual, &expected);
        // The same program in an arena whose recycled memory and output
        // vectors earlier all-NaN runs poisoned: any chunk read before it
        // was loaded or written shows up as NaN, which equals nothing.
        let mut arena = ExecArena::new(&ir, &opts);
        let poison: Vec<Vec<f32>> = inputs.iter().map(|i| vec![f32::NAN; i.len()]).collect();
        // Twice, so the output steal also swaps NaN vectors into the
        // spaces that back the outputs.
        for _ in 0..2 {
            let (stale, _) = execute_in_arena(&ir, &poison, refined_elems, &opts, &mut arena)
                .expect("executes");
            arena.recycle_outputs(stale);
        }
        let (recycled, _) =
            execute_in_arena(&ir, &inputs, refined_elems, &opts, &mut arena).expect("executes");
        prop_assert_eq!(recycled, expected);
    }

    /// Every epoch cut the compiler emits for an arbitrary random program
    /// is a consistent frontier: the symbolic checker proves no message is
    /// in flight and no dependency crosses it, the chain shape (strictly
    /// advancing, ending at the full tile) holds structurally, and the
    /// cuts survive an XML round-trip bit-exactly.
    #[test]
    fn epoch_cuts_of_random_programs_are_consistent(
        intents in proptest::collection::vec(intent_strategy(4, 4), 1..25),
        instances in 1usize..3,
        fuse in any::<bool>(),
    ) {
        let Some(program) = build_program(4, 4, &intents) else { return Ok(()) };
        let ir = compile(
            &program,
            &CompileOptions::default()
                .with_verify(false)
                .with_instances(instances)
                .with_fuse(fuse),
        )
        .expect("compiles");
        prop_assert!(!ir.epoch_cuts.is_empty(), "compile must emit an epoch chain");
        ir.check_structure().expect("chain shape");
        for cut in &ir.epoch_cuts {
            verify::check_epoch_cut(&ir, cut).expect("every cut is a consistent frontier");
        }
    }

    /// The same epoch-cut consistency over the full algorithm catalog —
    /// all 15 collectives, at random instance counts, fused or not —
    /// plus XML round-trip preservation (custom collectives cannot be
    /// reconstructed from XML, so the round-trip leg lives here).
    #[test]
    fn epoch_cuts_of_every_algorithm_are_consistent(
        algo in 0usize..15,
        instances in 1usize..3,
        fuse in any::<bool>(),
    ) {
        let program = match algo {
            0 => msccl_algos::ring_all_reduce(4, 1),
            1 => msccl_algos::allpairs_all_reduce(4),
            2 => msccl_algos::hierarchical_all_reduce(2, 2),
            3 => msccl_algos::two_step_all_to_all(2, 2),
            4 => msccl_algos::one_step_all_to_all(2, 2),
            5 => msccl_algos::all_to_next(2, 2),
            6 => msccl_algos::hcm_allgather(),
            7 => msccl_algos::recursive_doubling_all_gather(4),
            8 => msccl_algos::binary_tree_all_reduce(4, 1),
            9 => msccl_algos::double_binary_tree_all_reduce(4, 2),
            10 => msccl_algos::rabenseifner_all_reduce(4),
            11 => msccl_algos::binomial_broadcast(4, 1, 0),
            12 => msccl_algos::binomial_reduce(4, 1, 0),
            13 => msccl_algos::linear_gather(4, 1, 0),
            _ => msccl_algos::linear_scatter(4, 1, 0),
        }
        .expect("builds");
        let ir = compile(
            &program,
            &CompileOptions::default()
                .with_verify(false)
                .with_instances(instances)
                .with_fuse(fuse),
        )
        .expect("compiles");
        prop_assert!(!ir.epoch_cuts.is_empty());
        ir.check_structure().expect("chain shape");
        for cut in &ir.epoch_cuts {
            verify::check_epoch_cut(&ir, cut).expect("every cut is a consistent frontier");
        }
        let back = mscclang::ir_xml::from_xml(&mscclang::ir_xml::to_xml(&ir))
            .expect("round-trips");
        prop_assert_eq!(back.epoch_cuts, ir.epoch_cuts);
    }

    /// Compiler optimizations are semantics-preserving: the same program
    /// executed with and without fusion and aggregation produces identical
    /// floating-point results.
    #[test]
    fn optimizations_preserve_runtime_results(
        ranks in 2usize..5,
        seed in any::<u64>(),
        fuse in any::<bool>(),
        aggregate in any::<bool>(),
        dce in any::<bool>(),
    ) {
        let program = msccl_algos::ring_all_reduce(ranks, 1).expect("builds");
        let chunk_elems = 8;
        let reference_ir =
            compile(&program, &CompileOptions::default().with_verify(false)).expect("compiles");
        let variant_ir = compile(
            &program,
            &CompileOptions::default()
                .with_verify(false)
                .with_fuse(fuse)
                .with_aggregate(aggregate)
                .with_eliminate_dead(dce),
        )
        .expect("compiles");
        let inputs = reference::random_inputs(&reference_ir, chunk_elems, seed);
        let a = execute(&reference_ir, &inputs, chunk_elems, &RunOptions::default())
            .expect("executes");
        let b =
            execute(&variant_ir, &inputs, chunk_elems, &RunOptions::default()).expect("executes");
        prop_assert_eq!(a, b);
    }

    /// The XML parser never panics and never accepts a structurally
    /// invalid program, no matter how the document is mutated.
    #[test]
    fn mutated_xml_never_panics(
        mutations in proptest::collection::vec((0usize..10_000, any::<u8>()), 1..8),
    ) {
        let program = msccl_algos::ring_all_reduce(3, 1).expect("builds");
        let ir = compile(&program, &CompileOptions::default().with_verify(false))
            .expect("compiles");
        let mut xml = mscclang::ir_xml::to_xml(&ir).into_bytes();
        for (pos, byte) in mutations {
            let idx = pos % xml.len();
            xml[idx] = byte;
        }
        // Parsing must return Ok or Err, never panic; if it parses, the
        // structure must still be internally consistent.
        if let Ok(text) = String::from_utf8(xml) {
            if let Ok(parsed) = mscclang::ir_xml::from_xml(&text) {
                parsed.check_structure().expect("parser only accepts consistent programs");
            }
        }
    }

    /// The verifier is total: structurally valid mutations of a correct
    /// program (dropped dependencies, swapped operand indices) either
    /// verify or fail with an error — never panic, hang or accept a
    /// postcondition violation silently.
    #[test]
    fn verifier_is_robust_to_ir_mutations(
        mutation in 0usize..4,
        target in 0usize..64,
    ) {
        let program = msccl_algos::ring_all_reduce(4, 1).expect("builds");
        let mut ir = compile(&program, &CompileOptions::default().with_verify(false))
            .expect("compiles");
        // Apply one mutation to the `target`-th instruction (mod count).
        let mut flat: Vec<(usize, usize, usize)> = Vec::new();
        for gpu in &ir.gpus {
            for tb in &gpu.threadblocks {
                for i in &tb.instructions {
                    flat.push((gpu.rank, tb.id, i.step));
                }
            }
        }
        let (rank, tb, step) = flat[target % flat.len()];
        {
            let instr = &mut ir.gpus[rank].threadblocks[tb].instructions[step];
            match mutation {
                0 => instr.deps.clear(),
                1 => {
                    if let Some(loc) = instr.src.as_mut() {
                        loc.index = (loc.index + 1) % 4;
                    }
                }
                2 => {
                    if let Some(loc) = instr.dst.as_mut() {
                        loc.index = (loc.index + 1) % 4;
                    }
                }
                _ => instr.op = OpCode::Nop,
            }
        }
        if ir.check_structure().is_err() {
            return Ok(()); // structurally invalid mutants are out of scope
        }
        // Must return, not panic; outcome may be Ok (benign mutation) or
        // a verification error.
        let _ = verify::check(&ir, &verify::VerifyOptions::default());
    }

    /// Collective refinement commutes with postcondition evaluation.
    #[test]
    fn refinement_preserves_postcondition_shape(
        ranks in 1usize..5,
        chunks in 1usize..4,
        factor in 1usize..5,
    ) {
        let coll = Collective::all_reduce(ranks, chunks, true);
        let refined = coll.refine(factor);
        prop_assert_eq!(refined.in_chunks(), chunks * factor);
        for r in 0..ranks {
            for i in 0..chunks {
                for k in 0..factor {
                    let v = refined.postcondition(r, i * factor + k).expect("constrained");
                    prop_assert_eq!(
                        v,
                        &ChunkValue::reduction_over(0..ranks, i * factor + k)
                    );
                }
            }
        }
    }
}
