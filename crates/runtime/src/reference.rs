//! Golden reference results for collectives.
//!
//! Rather than re-implementing every collective imperatively, the expected
//! output is evaluated straight from the collective's *postcondition*: an
//! `Input(r, i)` chunk value denotes rank `r`'s input chunk `i`, and a
//! reduction chunk denotes the fold of its contributions under the
//! reduction operator. This makes the reference automatically correct for
//! every collective the verifier can express, including custom ones.

use std::collections::hash_map::{Entry, HashMap};

use mscclang::{ChunkValue, Collective, InputId, IrProgram, ReduceOp};

/// Deterministic pseudo-random input buffers for every rank of `ir`
/// (`in_chunks * chunk_elems` elements each).
#[must_use]
pub fn random_inputs(ir: &IrProgram, chunk_elems: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let v = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        // Small integers keep float sums exact.
        ((v >> 40) % 64) as f32
    };
    (0..ir.num_ranks())
        .map(|_| {
            (0..ir.collective.in_chunks() * chunk_elems)
                .map(|_| next())
                .collect()
        })
        .collect()
}

/// Rank `id.rank`'s input chunk `id.index`, in place.
fn input_chunk(inputs: &[Vec<f32>], id: InputId, chunk_elems: usize) -> &[f32] {
    let base = id.index * chunk_elems;
    &inputs[id.rank][base..base + chunk_elems]
}

/// Evaluates a symbolic chunk value over concrete inputs.
fn eval_chunk(
    value: &ChunkValue,
    inputs: &[Vec<f32>],
    chunk_elems: usize,
    op: ReduceOp,
) -> Option<Vec<f32>> {
    match value {
        ChunkValue::Uninit => None,
        ChunkValue::Input(id) => Some(input_chunk(inputs, *id, chunk_elems).to_vec()),
        ChunkValue::Reduction(set) => {
            let mut it = set.inputs().iter();
            let mut acc = input_chunk(inputs, *it.next()?, chunk_elems).to_vec();
            for &id in it {
                for (a, &b) in acc.iter_mut().zip(input_chunk(inputs, id, chunk_elems)) {
                    *a = op.apply(*a, b);
                }
            }
            Some(acc)
        }
    }
}

/// Whether an output element `a` verifies against the reference `x`:
/// equal (so `inf` matches `inf` and `-0.0` matches `0.0`), both NaN, or
/// a finite `x` within `1e-3 * max(|x|, 1)`. A NaN output never matches a
/// number, and an infinite reference is matched only by itself. Written
/// with non-short-circuit operators so a chunk's pass has no branches.
#[inline]
fn matches(a: f32, x: f32) -> bool {
    let tol = 1e-3 * x.abs().max(1.0);
    (a == x) | (a.is_nan() & x.is_nan()) | (x.is_finite() & ((a - x).abs() <= tol))
}

/// Checks every constrained output chunk of every rank against the
/// postcondition-derived golden value.
///
/// Each distinct postcondition value is evaluated once per call (an
/// allreduce names the same reduction at a chunk index on every rank),
/// and an `Input` value is compared against `inputs` in place. A chunk
/// is checked with one branch-free pass; only a chunk that fails it is
/// walked element by element to name the first mismatch.
///
/// # Errors
///
/// Returns a description of the first mismatching element, in (rank,
/// chunk, element) order.
pub fn check_outputs(
    collective: &Collective,
    inputs: &[Vec<f32>],
    outputs: &[Vec<f32>],
    chunk_elems: usize,
    op: ReduceOp,
) -> Result<(), String> {
    if outputs.len() != collective.num_ranks() {
        return Err(format!(
            "{} output buffers for {} ranks",
            outputs.len(),
            collective.num_ranks()
        ));
    }
    let mut folded: HashMap<&ChunkValue, Vec<f32>> = HashMap::new();
    for (rank, out) in outputs.iter().enumerate() {
        let expect_len = collective.out_chunks() * chunk_elems;
        if out.len() != expect_len {
            return Err(format!(
                "rank {rank} output has {} elements, expected {expect_len}",
                out.len()
            ));
        }
        for index in 0..collective.out_chunks() {
            let Some(value) = collective.postcondition(rank, index) else {
                continue;
            };
            let expected: &[f32] = if let ChunkValue::Input(id) = value {
                input_chunk(inputs, *id, chunk_elems)
            } else {
                match folded.entry(value) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => {
                        e.insert(eval_chunk(value, inputs, chunk_elems, op).ok_or_else(|| {
                            format!("postcondition of rank {rank} chunk {index} is uninit")
                        })?)
                    }
                }
            };
            let base = index * chunk_elems;
            let actual = &out[base..base + chunk_elems];
            let bad = actual
                .iter()
                .zip(expected)
                .fold(0u32, |bad, (&a, &x)| bad | u32::from(!matches(a, x)));
            if bad != 0 {
                let (e, (a, x)) = actual
                    .iter()
                    .zip(expected)
                    .enumerate()
                    .find(|(_, (&a, &x))| !matches(a, x))
                    .expect("the chunk's pass found a mismatch");
                return Err(format!(
                    "rank {rank} output chunk {index} element {e}: got {a}, expected {x}"
                ));
            }
        }
    }
    Ok(())
}

/// Replays a program's traced `copy`/`reduce` operations directly on
/// concrete buffers — an oracle independent of the compiler and runtime,
/// usable for *any* program including custom collectives with
/// unconstrained postconditions.
///
/// Returns each rank's output buffer (`out_chunks * chunk_elems`
/// elements); locations never written stay `0.0`.
///
/// # Panics
///
/// Panics if `inputs` does not have `num_ranks` buffers of
/// `in_chunks * chunk_elems` elements (the trace itself is valid by
/// construction).
#[must_use]
pub fn replay_program(
    program: &mscclang::Program,
    inputs: &[Vec<f32>],
    chunk_elems: usize,
    op: ReduceOp,
) -> Vec<Vec<f32>> {
    use mscclang::{BufferKind, Space, TraceOpKind};
    let collective = program.collective();
    let num_ranks = collective.num_ranks();
    assert_eq!(inputs.len(), num_ranks, "one input buffer per rank");

    // Storage per (rank, space), in elements.
    let mut spaces: std::collections::HashMap<(usize, Space), Vec<f32>> =
        std::collections::HashMap::new();
    for (rank, input) in inputs.iter().enumerate() {
        let data = collective.space_size(Space::Data).unwrap_or(0) * chunk_elems;
        spaces.insert((rank, Space::Data), vec![0.0; data]);
        let out = collective.space_size(Space::Output).unwrap_or(0) * chunk_elems;
        spaces.insert((rank, Space::Output), vec![0.0; out]);
        spaces.insert(
            (rank, Space::Scratch),
            vec![0.0; program.scratch_chunks(rank) * chunk_elems],
        );
        assert_eq!(input.len(), collective.in_chunks() * chunk_elems);
        for index in 0..collective.in_chunks() {
            let (space, off) = collective.space_of(rank, BufferKind::Input, index);
            let dst = spaces.get_mut(&(rank, space)).expect("inserted");
            dst[off * chunk_elems..(off + 1) * chunk_elems]
                .copy_from_slice(&input[index * chunk_elems..(index + 1) * chunk_elems]);
        }
    }

    for top in program.ops() {
        for i in 0..top.count {
            let (ss, so) = collective.space_of(top.src.rank, top.src.buffer, top.src.index + i);
            let src: Vec<f32> =
                spaces[&(top.src.rank, ss)][so * chunk_elems..(so + 1) * chunk_elems].to_vec();
            let (ds, doff) = collective.space_of(top.dst.rank, top.dst.buffer, top.dst.index + i);
            let dst = spaces.get_mut(&(top.dst.rank, ds)).expect("exists");
            let slice = &mut dst[doff * chunk_elems..(doff + 1) * chunk_elems];
            match top.kind {
                TraceOpKind::Copy => slice.copy_from_slice(&src),
                TraceOpKind::Reduce => {
                    for (d, s) in slice.iter_mut().zip(&src) {
                        *d = op.apply(*d, *s);
                    }
                }
            }
        }
    }

    (0..num_ranks)
        .map(|rank| {
            let mut out = Vec::with_capacity(collective.out_chunks() * chunk_elems);
            for index in 0..collective.out_chunks() {
                let (space, off) = collective.space_of(rank, BufferKind::Output, index);
                out.extend_from_slice(
                    &spaces[&(rank, space)][off * chunk_elems..(off + 1) * chunk_elems],
                );
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_input_chunk_slices_correctly() {
        let inputs = vec![vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]];
        let v = ChunkValue::input(1, 1);
        assert_eq!(
            eval_chunk(&v, &inputs, 2, ReduceOp::Sum),
            Some(vec![7.0, 8.0])
        );
    }

    #[test]
    fn eval_reduction_folds() {
        let inputs = vec![vec![1.0, 2.0], vec![10.0, 20.0]];
        let v = ChunkValue::reduction_over(0..2, 0);
        assert_eq!(
            eval_chunk(&v, &inputs, 2, ReduceOp::Sum),
            Some(vec![11.0, 22.0])
        );
        assert_eq!(
            eval_chunk(&v, &inputs, 2, ReduceOp::Max),
            Some(vec![10.0, 20.0])
        );
    }

    #[test]
    fn eval_duplicate_contributions_double_count() {
        let inputs = vec![vec![3.0]];
        let v = ChunkValue::Reduction(mscclang::ReductionSet::from_inputs(vec![
            InputId::new(0, 0),
            InputId::new(0, 0),
        ]));
        assert_eq!(eval_chunk(&v, &inputs, 1, ReduceOp::Sum), Some(vec![6.0]));
    }

    #[test]
    fn check_outputs_flags_mismatch() {
        let coll = Collective::all_gather(2, 1, false);
        let inputs = vec![vec![1.0], vec![2.0]];
        let good = vec![vec![1.0, 2.0], vec![1.0, 2.0]];
        let bad = vec![vec![1.0, 2.0], vec![1.0, 9.0]];
        assert!(check_outputs(&coll, &inputs, &good, 1, ReduceOp::Sum).is_ok());
        let err = check_outputs(&coll, &inputs, &bad, 1, ReduceOp::Sum).unwrap_err();
        assert!(err.contains("rank 1"));
    }

    #[test]
    fn check_outputs_on_non_finite_and_signed_zero() {
        // Does output `a` verify where the reference is `x`? Rank 1's
        // output chunk 0 of a 2-rank allgather is rank 0's input.
        let verifies = |x: f32, a: f32| {
            let coll = Collective::all_gather(2, 1, false);
            let inputs = vec![vec![x], vec![0.0]];
            let outs = vec![vec![x, 0.0], vec![a, 0.0]];
            check_outputs(&coll, &inputs, &outs, 1, ReduceOp::Sum).is_ok()
        };
        let (inf, nan) = (f32::INFINITY, f32::NAN);
        for (x, a, ok) in [
            (1.0, nan, false),
            (nan, 1.0, false),
            (nan, nan, true),
            (1.0, inf, false),
            (1.0, -inf, false),
            (inf, inf, true),
            (-inf, -inf, true),
            (inf, -inf, false),
            (inf, f32::MAX, false),
            (-inf, nan, false),
            (0.0, -0.0, true),
            (-0.0, 0.0, true),
            (0.0, 1e-4, true),
            (0.0, 2e-3, false),
        ] {
            assert_eq!(verifies(x, a), ok, "expected {x}, got {a}");
        }
    }

    #[test]
    fn check_outputs_names_the_first_mismatch_in_a_chunk() {
        let coll = Collective::all_gather(2, 1, false);
        let inputs = vec![vec![1.0; 40], vec![2.0; 40]];
        let mut outs = vec![[vec![1.0; 40], vec![2.0; 40]].concat(); 2];
        outs[1][40 + 33] = 7.0;
        outs[1][40 + 9] = 8.0;
        let err = check_outputs(&coll, &inputs, &outs, 40, ReduceOp::Sum).unwrap_err();
        assert_eq!(err, "rank 1 output chunk 1 element 9: got 8, expected 2");
    }

    #[test]
    fn replay_matches_simple_copy_program() {
        use mscclang::{BufferKind, Collective, Program};
        let mut p = Program::new("t", Collective::all_gather(2, 1, false));
        for r in 0..2 {
            let c = p.chunk(r, BufferKind::Input, 0, 1).unwrap();
            let c = p.copy(&c, r, BufferKind::Output, r).unwrap();
            let _ = p.copy(&c, 1 - r, BufferKind::Output, r).unwrap();
        }
        let inputs = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let outs = replay_program(&p, &inputs, 2, ReduceOp::Sum);
        assert_eq!(outs[0], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(outs[1], vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn replay_applies_reductions() {
        use mscclang::{BufferKind, Collective, Program};
        let mut p = Program::new("t", Collective::all_reduce(2, 1, true));
        let c0 = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let c1 = p.chunk(1, BufferKind::Input, 0, 1).unwrap();
        let r = p.reduce(&c1, &c0).unwrap();
        let _ = p.copy(&r, 0, BufferKind::Input, 0).unwrap();
        let outs = replay_program(&p, &[vec![2.0], vec![5.0]], 1, ReduceOp::Sum);
        assert_eq!(outs, vec![vec![7.0], vec![7.0]]);
        let outs = replay_program(&p, &[vec![2.0], vec![5.0]], 1, ReduceOp::Max);
        assert_eq!(outs, vec![vec![5.0], vec![5.0]]);
    }

    #[test]
    fn unconstrained_chunks_are_ignored() {
        let coll = Collective::all_to_next(2, 1);
        let inputs = vec![vec![5.0], vec![6.0]];
        // Rank 0's output is unconstrained; anything passes there.
        let outs = vec![vec![123.0], vec![5.0]];
        assert!(check_outputs(&coll, &inputs, &outs, 1, ReduceOp::Sum).is_ok());
    }
}
