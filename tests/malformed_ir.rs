//! Hand-built IR whose operands reach past their buffers is rejected with
//! `Error::Verification` — by `check_structure`, by the XML loader (which
//! runs it) and by the symbolic verifier, which must return the error
//! rather than panic on an out-of-range index. An inconsistent epoch cut
//! is rejected with the same message on every check.

use mscclang::{
    ir_xml, verify, BufferKind, Collective, EpochCut, Error, IrGpu, IrInstruction, IrLoc,
    IrProgram, IrThreadBlock, OpCode,
};

fn loc(buffer: BufferKind, index: usize) -> Option<IrLoc> {
    Some(IrLoc { buffer, index })
}

fn instr(step: usize, op: OpCode, src: Option<IrLoc>, dst: Option<IrLoc>) -> IrInstruction {
    IrInstruction {
        step,
        op,
        src,
        dst,
        count: 1,
        deps: vec![],
        has_dep: false,
    }
}

fn tb(send: Option<usize>, recv: Option<usize>, instructions: Vec<IrInstruction>) -> IrThreadBlock {
    IrThreadBlock {
        id: 0,
        send_peer: send,
        recv_peer: recv,
        channel: 0,
        instructions,
    }
}

/// A 2-rank AllGather program (1 input chunk, 2 output chunks, 1 scratch
/// chunk per rank) with the given thread blocks.
fn program(rank0: Vec<IrThreadBlock>, rank1: Vec<IrThreadBlock>) -> IrProgram {
    let gpu = |rank: usize, threadblocks: Vec<IrThreadBlock>| IrGpu {
        rank,
        input_chunks: 1,
        output_chunks: 2,
        scratch_chunks: 1,
        threadblocks,
    };
    IrProgram {
        name: "malformed".into(),
        collective: Collective::all_gather(2, 1, false),
        protocol: None,
        num_channels: 1,
        refinement: 1,
        gpus: vec![gpu(0, rank0), gpu(1, rank1)],
        epoch_cuts: vec![],
    }
}

/// One local instruction on rank 0.
fn local(op: OpCode, src: Option<IrLoc>, dst: Option<IrLoc>) -> IrProgram {
    program(vec![tb(None, None, vec![instr(0, op, src, dst)])], vec![])
}

fn is_verification<T>(result: &Result<T, Error>) -> bool {
    matches!(result, Err(Error::Verification { .. }))
}

fn assert_rejected(case: &str, ir: &IrProgram) {
    let structure = ir.check_structure();
    assert!(
        is_verification(&structure),
        "{case}: check_structure gave {structure:?}"
    );
    let loaded = ir_xml::from_xml(&ir_xml::to_xml(ir));
    assert!(is_verification(&loaded), "{case}: from_xml gave {loaded:?}");
    let verified = verify::check(ir, &verify::VerifyOptions::default());
    assert!(
        is_verification(&verified),
        "{case}: verify gave {verified:?}"
    );
    let unraced = verify::check(
        ir,
        &verify::VerifyOptions {
            slots: 1,
            check_races: false,
        },
    );
    assert!(
        is_verification(&unraced),
        "{case}: verify without races gave {unraced:?}"
    );
}

#[test]
fn out_of_range_operands_are_verification_errors() {
    let (i, o, s) = (BufferKind::Input, BufferKind::Output, BufferKind::Scratch);
    assert_rejected("copy dst", &local(OpCode::Copy, loc(i, 0), loc(o, 99)));
    assert_rejected("copy src", &local(OpCode::Copy, loc(i, 99), loc(o, 0)));
    assert_rejected("reduce dst", &local(OpCode::Reduce, loc(i, 0), loc(o, 99)));
    assert_rejected("scratch dst", &local(OpCode::Copy, loc(i, 0), loc(s, 1)));

    // An aggregated range that starts inside the buffer but runs past it.
    let mut wide = local(OpCode::Copy, loc(i, 0), loc(o, 1));
    wide.gpus[0].threadblocks[0].instructions[0].count = 2;
    assert_rejected("copy dst range", &wide);

    // A receive-reduce whose local operand is out of range.
    let rrc = program(
        vec![tb(
            Some(1),
            None,
            vec![instr(0, OpCode::Send, loc(i, 0), None)],
        )],
        vec![tb(
            None,
            Some(0),
            vec![instr(0, OpCode::RecvReduceCopy, loc(i, 99), loc(o, 0))],
        )],
    );
    assert_rejected("rrc src", &rrc);
}

#[test]
fn in_range_operands_still_pass_the_structure_check() {
    let (i, o, s) = (BufferKind::Input, BufferKind::Output, BufferKind::Scratch);
    local(OpCode::Copy, loc(i, 0), loc(o, 1))
        .check_structure()
        .unwrap();
    local(OpCode::Copy, loc(i, 0), loc(s, 0))
        .check_structure()
        .unwrap();
}

/// A cut that leaves two connections with a message in flight names the
/// first of them in `(src, dst, channel)` order, whatever order the thread
/// blocks list them in, and names the same one on every check.
#[test]
fn epoch_cut_names_the_first_connection_in_flight() {
    let (i, o) = (BufferKind::Input, BufferKind::Output);
    let on = |id: usize, channel: usize, mut tb: IrThreadBlock| {
        tb.id = id;
        tb.channel = channel;
        tb
    };
    // Rank 0's first thread block sends on channel 1, its second on 0.
    let ir = program(
        vec![
            on(
                0,
                1,
                tb(Some(1), None, vec![instr(0, OpCode::Send, loc(i, 0), None)]),
            ),
            on(
                1,
                0,
                tb(Some(1), None, vec![instr(0, OpCode::Send, loc(i, 0), None)]),
            ),
        ],
        vec![
            on(
                0,
                1,
                tb(None, Some(0), vec![instr(0, OpCode::Recv, None, loc(o, 0))]),
            ),
            on(
                1,
                0,
                tb(None, Some(0), vec![instr(0, OpCode::Recv, None, loc(o, 1))]),
            ),
        ],
    );
    ir.check_structure().unwrap();
    let cut = EpochCut {
        watermarks: vec![vec![1, 1], vec![0, 0]],
    };
    for _ in 0..20 {
        let err = verify::check_epoch_cut(&ir, &cut).unwrap_err();
        assert_eq!(
            err.to_string(),
            "verification failed: epoch cut leaves connection (0 -> 1, ch 0) with 1 sends \
             but 0 receives: a message is in flight across the cut"
        );
    }
}
