//! Golden verdicts of `reference::check_outputs`, pinned in
//! `tests/fixtures/check_outputs.txt`.
//!
//! For every registry algorithm at 4 and 8 ranks the correct outputs come
//! from the replay oracle. Then, one at a time, one element of each output
//! chunk of the last rank is offset by +2.0 (outside the tolerance) and by
//! +1e-4 (inside it), and one element of the input chunk that an
//! `Input`-valued postcondition names is offset the same way; one element
//! is also set to inf and to NaN. Each verdict and its error text is
//! pinned, so a rewrite of the checker must accept, reject and name the
//! first mismatch exactly as before. Run with `MSCCL_UPDATE_GOLDEN=1` to
//! regenerate the table after a change that is meant to alter a verdict.

use std::fmt::Write as _;
use std::path::PathBuf;

use msccl_algos::{build_by_name, registry::NAMES, AlgoSpec};
use msccl_runtime::reference;
use mscclang::{compile, ChunkValue, CompileOptions, ReduceOp};

/// `(nodes, gpus)`; flat algorithms get `nodes * gpus` ranks.
const SHAPES: [(usize, usize); 2] = [(2, 2), (2, 4)];

/// Elements per chunk: small, so the element index can vary per chunk.
const ELEMS: usize = 3;

const SEED: u64 = 0x5EED;

/// Offsets applied to one element, with the label the table shows.
const OFFSETS: [(&str, f32); 2] = [("+2", 2.0), ("+1e-4", 1e-4)];

fn spec(nodes: usize, gpus: usize) -> AlgoSpec {
    AlgoSpec {
        ranks: Some(nodes * gpus),
        nodes,
        gpus,
        ..AlgoSpec::default()
    }
}

fn verdict(result: Result<(), String>) -> String {
    match result {
        Ok(()) => "ok".to_owned(),
        Err(e) => format!("err {e}"),
    }
}

fn table() -> String {
    let mut text = String::from(
        "# reference::check_outputs verdicts per (algorithm, ranks, corruption).\n\
         # Regenerate with MSCCL_UPDATE_GOLDEN=1 cargo test --test verify_outputs\n\
         # only when a change is meant to alter a verdict or its text.\n",
    );
    for name in NAMES {
        for (nodes, gpus) in SHAPES {
            let ranks = nodes * gpus;
            let program = build_by_name(name, &spec(nodes, gpus))
                .unwrap_or_else(|e| panic!("{name}@{nodes}x{gpus}: {e}"));
            let ir = compile(&program, &CompileOptions::default())
                .unwrap_or_else(|e| panic!("{name}@{nodes}x{gpus}: {e}"));
            let coll = &ir.collective;
            let inputs = reference::random_inputs(&ir, ELEMS, SEED);
            let outputs =
                reference::replay_program(&program, &inputs, ELEMS * ir.refinement, ReduceOp::Sum);
            let check = |inputs: &[Vec<f32>], outputs: &[Vec<f32>]| {
                verdict(reference::check_outputs(
                    coll,
                    inputs,
                    outputs,
                    ELEMS,
                    ReduceOp::Sum,
                ))
            };
            let row = format!("{name} {ranks}r");
            writeln!(text, "{row} clean {}", check(&inputs, &outputs)).unwrap();

            let last = ranks - 1;
            for chunk in 0..coll.out_chunks() {
                let e = chunk % ELEMS;
                for (label, delta) in OFFSETS {
                    let mut bad = outputs.clone();
                    bad[last][chunk * ELEMS + e] += delta;
                    let v = check(&inputs, &bad);
                    writeln!(text, "{row} out r{last} c{chunk} e{e} {label} {v}").unwrap();
                }
            }
            let mut bad = outputs.clone();
            bad[last][0] = f32::INFINITY;
            writeln!(text, "{row} out r{last} c0 e0 inf {}", check(&inputs, &bad)).unwrap();
            bad[last][0] = f32::NAN;
            writeln!(text, "{row} out r{last} c0 e0 nan {}", check(&inputs, &bad)).unwrap();

            // The first mismatch in (rank, chunk, element) order is named:
            // two bad elements of the last chunk, then every element bad.
            let mut bad = outputs.clone();
            let tail = (coll.out_chunks() - 1) * ELEMS;
            bad[last][tail + ELEMS - 1] += 2.0;
            bad[last][tail + 1] += 2.0;
            let v = check(&inputs, &bad);
            writeln!(
                text,
                "{row} out r{last} last chunk e1,e{} +2 {v}",
                ELEMS - 1
            )
            .unwrap();
            let mut bad = outputs.clone();
            bad.iter_mut().flatten().for_each(|x| *x += 2.0);
            writeln!(text, "{row} out every element +2 {}", check(&inputs, &bad)).unwrap();

            let input_valued = (0..ranks)
                .flat_map(|r| (0..coll.out_chunks()).map(move |c| (r, c)))
                .find_map(|(r, c)| match coll.postcondition(r, c) {
                    Some(ChunkValue::Input(id)) => Some((r, c, *id)),
                    _ => None,
                });
            if let Some((r, c, id)) = input_valued {
                let e = c % ELEMS;
                for (label, delta) in OFFSETS {
                    let mut bad = inputs.clone();
                    bad[id.rank][id.index * ELEMS + e] += delta;
                    let v = check(&bad, &outputs);
                    writeln!(
                        text,
                        "{row} in r{} i{} e{e} (out r{r} c{c}) {label} {v}",
                        id.rank, id.index
                    )
                    .unwrap();
                }
            }
        }
    }
    text
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("check_outputs.txt")
}

#[test]
fn check_outputs_matches_golden_verdicts() {
    let got = table();
    let path = fixture_path();
    if std::env::var_os("MSCCL_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("fixture missing; regenerate with MSCCL_UPDATE_GOLDEN=1");
    let drifted: Vec<String> = got
        .lines()
        .zip(expected.lines())
        .filter(|(g, e)| g != e)
        .map(|(g, e)| format!("got `{g}`, pinned `{e}`"))
        .collect();
    assert!(
        drifted.is_empty() && got.lines().count() == expected.lines().count(),
        "check_outputs verdicts drifted from the golden table ({} rows):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}
