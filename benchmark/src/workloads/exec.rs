//! `exec-alpha` and `exec-beta`: the threaded runtime called directly —
//! `execute_in_arena`, default `RunOptions`, a warmed `ExecArena` — on
//! the same compiled ring allreduce at the two ends of the size range.
//!
//! * alpha: 16 ranks × 64 KiB per rank, 496 instruction steps of 4 KiB
//!   each — what the caller waits for is dispatch, FIFO hand-off and
//!   wake-ups;
//! * beta: 4 ranks × 4 MiB per rank — what the caller waits for is
//!   memcpy and the reduce kernels.
//!
//! An optimisation of one regime has the other as its "must not move"
//! workload.

use std::time::{Duration, Instant};

use msccl_algos::{build_by_name, AlgoSpec};
use msccl_metrics::names;
use msccl_runtime::{
    execute_in_arena, execute_with_metrics, kernels, reference, ExecArena, RunOptions,
};
use mscclang::{compile, CompileOptions, IrProgram, Program, ReduceOp};

use super::{median_us_of_3, ratio, Limit, Round, Verdict, Workload};
use crate::metrics::LayerValues;
use crate::stats::{median, percentile, sorted};
use crate::trace::{Layer, Span, Tracer};

/// The collective's size.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    ranks: usize,
    bytes_per_rank: usize,
    /// Calls between looks at the clock.
    batch: usize,
}

pub const ALPHA: Shape = Shape {
    ranks: 16,
    bytes_per_rank: 64 << 10,
    batch: 40,
};

pub const BETA: Shape = Shape {
    ranks: 4,
    bytes_per_rank: 4 << 20,
    batch: 8,
};

pub struct Exec {
    shape: Shape,
    program: Program,
    ir: IrProgram,
    chunk_elems: usize,
    inputs: Vec<Vec<f32>>,
    opts: RunOptions,
    arena: ExecArena,
    tracer: Tracer,
    next_op: u64,
    /// Outputs of the first and of the latest timed call, kept for the
    /// oracle; every other result goes back to the arena.
    first: Option<Vec<Vec<f32>>>,
    last: Option<Vec<Vec<f32>>>,
    /// Instruction steps of the latest call and tile-pool allocations
    /// summed over all timed calls.
    instructions: u64,
    pool_allocated: u64,
}

impl Exec {
    pub fn setup(shape: Shape, seed: u64) -> Result<Self, String> {
        let spec = AlgoSpec {
            ranks: Some(shape.ranks),
            ..AlgoSpec::default()
        };
        let program = build_by_name("ring-allreduce", &spec).map_err(|e| e.to_string())?;
        let ir = compile(&program, &CompileOptions::default()).map_err(|e| e.to_string())?;
        let chunk_elems = shape.bytes_per_rank / 4 / ir.collective.in_chunks();
        let inputs = reference::random_inputs(&ir, chunk_elems, seed);
        let opts = RunOptions::default();
        let arena = ExecArena::new(&ir, &opts);
        let mut me = Self {
            shape,
            program,
            ir,
            chunk_elems,
            inputs,
            opts,
            arena,
            tracer: Tracer::default(),
            next_op: 0,
            first: None,
            last: None,
            instructions: 0,
            pool_allocated: 0,
        };
        // Warm-up, discarded: the first calls pay every allocation of
        // the data path; a batch more lets the worker pool settle.
        let warm = me.run(Limit::Batches(4));
        if warm.failed > 0 {
            return Err(format!("{} warm-up executions failed", warm.failed));
        }
        me.first = None;
        me.pool_allocated = 0;
        Ok(me)
    }

    fn run(&mut self, limit: Limit) -> Round {
        let mut round = Round {
            traced: self.tracer.enabled(),
            ..Round::default()
        };
        let started = Instant::now();
        let mut batches = 0;
        while limit.more(started, batches) {
            batches += 1;
            for _ in 0..self.shape.batch {
                let op = self.next_op;
                self.next_op += 1;
                round.ops += 1;
                let root = self.tracer.begin("exec.op", Layer::Bench, op, None);
                let call = self
                    .tracer
                    .begin("runtime.execute_in_arena", Layer::Runtime, op, root);
                let t0 = Instant::now();
                let result = execute_in_arena(
                    &self.ir,
                    &self.inputs,
                    self.chunk_elems,
                    &self.opts,
                    &mut self.arena,
                );
                let lat_us = t0.elapsed().as_secs_f64() * 1e6;
                self.tracer.end(call);
                match result {
                    Ok((outputs, stats)) => {
                        round.lat_us.push(lat_us);
                        self.instructions = stats.instructions;
                        self.pool_allocated += stats.pool.allocated;
                        let recycle =
                            self.tracer
                                .begin("runtime.recycle_outputs", Layer::Runtime, op, root);
                        if self.first.is_none() {
                            self.first = Some(outputs.clone());
                        }
                        if let Some(previous) = self.last.replace(outputs) {
                            self.arena.recycle_outputs(previous);
                        }
                        self.tracer.end(recycle);
                    }
                    Err(_) => round.failed += 1,
                }
                self.tracer.end(root);
            }
        }
        round.elapsed_s = started.elapsed().as_secs_f64();
        round
    }
}

fn bit_equal(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

impl Workload for Exec {
    fn round(&mut self, budget: Duration, traced: bool) -> Round {
        self.tracer.set_enabled(traced);
        self.run(Limit::Time(budget))
    }

    /// The first and the last timed call must be bit-equal to the replay
    /// oracle (the traced program's copies and reduces applied to the
    /// same inputs, without compiler or runtime).
    fn check(&mut self) -> Verdict {
        let oracle = reference::replay_program(
            &self.program,
            &self.inputs,
            self.chunk_elems * self.ir.refinement,
            ReduceOp::Sum,
        );
        let mut verdict = Verdict::default();
        for (which, outputs) in [("first", &self.first), ("last", &self.last)] {
            verdict.expect(
                outputs.as_ref().is_some_and(|o| bit_equal(o, &oracle)),
                || format!("{which} execution differs from the replay oracle"),
            );
        }
        verdict
    }

    fn probe(&mut self, rounds: &[Round], m: &mut LayerValues) {
        let lats = sorted(
            rounds
                .iter()
                .flat_map(|r| r.lat_us.iter().copied())
                .collect(),
        );
        let exec_us = percentile(&lats, 50.0);
        m.insert("runtime.exec_us", exec_us);
        m.insert("runtime.exec_p99_us", percentile(&lats, 99.0));
        m.insert("runtime.exec_samples", lats.len() as f64);
        let ops_per_s = median(&rounds.iter().map(Round::ops_per_s).collect::<Vec<_>>());
        m.insert(
            "runtime.algbw_gbps",
            self.shape.bytes_per_rank as f64 * ops_per_s / 1e9,
        );
        m.insert("runtime.instructions", self.instructions as f64);
        m.insert(
            "runtime.ns_per_instr",
            ratio(exec_us * 1e3, self.instructions as f64),
        );
        m.insert(
            "runtime.us_per_payload_kib",
            exec_us / (self.shape.bytes_per_rank as f64 / 1024.0),
        );
        m.insert("runtime.pool_allocated", self.pool_allocated as f64);

        // The always-on counters, read through the one entry point that
        // hands a snapshot back. Waits are summed over thread blocks, so
        // a share is "of an average thread block's life".
        let snapshots: Vec<_> = (0..5)
            .filter_map(|_| {
                let t0 = Instant::now();
                let (_, snap) =
                    execute_with_metrics(&self.ir, &self.inputs, self.chunk_elems, &self.opts)
                        .ok()?;
                Some((t0.elapsed().as_nanos() as f64, snap))
            })
            .collect();
        let tbs = self.ir.num_threadblocks() as f64;
        let per_run = |f: &dyn Fn(&(f64, msccl_metrics::MetricsSnapshot)) -> f64| {
            median(&snapshots.iter().map(f).collect::<Vec<_>>())
        };
        m.insert(
            "runtime.sem_wait_share",
            per_run(&|(wall, s)| ratio(s.counter_total(names::SEM_WAIT_NS) as f64, wall * tbs)),
        );
        m.insert(
            "runtime.fifo_block_share",
            per_run(&|(wall, s)| {
                let blocked = s.counter_total(names::FIFO_SEND_BLOCK_NS)
                    + s.counter_total(names::FIFO_RECV_BLOCK_NS);
                ratio(blocked as f64, wall * tbs)
            }),
        );
        m.insert(
            "runtime.sched_steals",
            per_run(&|(_, s)| s.counter_total(names::SCHED_STEALS) as f64),
        );
        m.insert(
            "runtime.sched_parks",
            per_run(&|(_, s)| s.counter_total(names::SCHED_PARKS) as f64),
        );

        // The reduce kernel alone, 1 MiB into 1 MiB.
        let src = vec![1.0f32; 256 << 10];
        let mut acc = vec![2.0f32; 256 << 10];
        let t0 = Instant::now();
        for _ in 0..200 {
            kernels::reduce_into_slice(ReduceOp::Sum, &mut acc, std::hint::black_box(&src));
        }
        std::hint::black_box(&acc);
        m.insert(
            "runtime.reduce_kernel_gbps",
            200.0 * (1 << 20) as f64 / t0.elapsed().as_secs_f64() / 1e9,
        );

        // What the always-on metrics and flight recorder cost: the
        // default against both off, alternating so drift hits both.
        let quiet = RunOptions {
            metrics: false,
            flight: false,
            ..RunOptions::default()
        };
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for i in 0..2 * self.shape.batch {
            let (opts, times) = if i % 2 == 0 {
                (&self.opts, &mut on)
            } else {
                (&quiet, &mut off)
            };
            let t0 = Instant::now();
            if let Ok((outputs, _)) = execute_in_arena(
                &self.ir,
                &self.inputs,
                self.chunk_elems,
                opts,
                &mut self.arena,
            ) {
                times.push(t0.elapsed().as_secs_f64());
                self.arena.recycle_outputs(outputs);
            }
        }
        m.insert(
            "runtime.probe_overhead_ratio",
            ratio(median(&on), median(&off)),
        );

        // A cold arena: construction plus the two calls that pay every
        // allocation of the data path.
        let t0 = Instant::now();
        let mut cold = ExecArena::new(&self.ir, &self.opts);
        for _ in 0..2 {
            if let Ok((outputs, _)) = execute_in_arena(
                &self.ir,
                &self.inputs,
                self.chunk_elems,
                &self.opts,
                &mut cold,
            ) {
                cold.recycle_outputs(outputs);
            }
        }
        m.insert("runtime.arena_setup_us", t0.elapsed().as_secs_f64() * 1e6);

        m.insert(
            "runtime.input_gen_us",
            median_us_of_3(|| reference::random_inputs(&self.ir, self.chunk_elems, 1)),
        );
        if let Some(outputs) = &self.last {
            m.insert(
                "runtime.verify_us",
                median_us_of_3(|| {
                    reference::check_outputs(
                        &self.ir.collective,
                        &self.inputs,
                        outputs,
                        self.chunk_elems,
                        ReduceOp::Sum,
                    )
                }),
            );
        }
    }

    fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.tracer).into_spans()
    }
}
