//! `compile-scale`: `build_by_name` + `compile` (default options, verify
//! on) over a fixed list at the paper's scales — every registry
//! algorithm at 16 ranks, then the shapes whose compile time grows
//! fastest with rank count. One operation is one pass over the list (no
//! program is more than ~35 % of it): a median over programs of such
//! different sizes would sit on the cliff between two of them.

use std::time::{Duration, Instant};

use msccl_algos::{build_by_name, AlgoSpec};
use mscclang::dag::{ChunkDag, InstrDag, InstrOp};
use mscclang::schedule::{assign_channels, assign_threadblocks, find_fifo_cycle, FifoOrder};
use mscclang::{compile, passes, verify, CompileOptions, IrProgram, IrStats};

use super::{Limit, Round, Verdict, Workload};
use crate::metrics::LayerValues;
use crate::stats::median;
use crate::trace::{Layer, Span, Tracer};

/// `IrStats` of every program of the list, pinned: a faster compiler
/// must still emit the same schedules.
const PINNED: &str = include_str!("../../expected/compile-scale.txt");

fn list() -> Vec<(&'static str, AlgoSpec)> {
    let spec = |nodes: usize, gpus: usize| AlgoSpec {
        ranks: Some(nodes * gpus),
        nodes,
        gpus,
        ..AlgoSpec::default()
    };
    let mut list: Vec<_> = msccl_algos::registry::NAMES
        .iter()
        .map(|&name| (name, spec(2, 8)))
        .collect();
    list.extend([
        ("two-step-alltoall", spec(8, 8)),
        ("hierarchical-allreduce", spec(6, 8)),
        ("ring-allreduce", spec(6, 8)),
        ("allpairs-allreduce", spec(4, 8)),
        ("recursive-doubling-allgather", spec(8, 8)),
        ("rabenseifner-allreduce", spec(8, 8)),
    ]);
    list
}

/// The counts of one compiled program that the pinned table holds.
fn stats_row(name: &str, ir: &IrProgram) -> String {
    let s = IrStats::compute(ir);
    format!(
        "{name} ranks={} instrs={} tbs={} channels={} chunks_sent={} critical_hops={} cross_tb_deps={}",
        ir.num_ranks(),
        ir.num_instructions(),
        ir.num_threadblocks(),
        s.channels,
        s.chunks_sent,
        s.critical_hops,
        s.cross_tb_deps
    )
}

/// The pinned table's text, regenerated.
pub fn pin() -> Result<String, String> {
    let mut text = String::from(
        "# IrStats of the compile-scale list, one program per line, in list order.\n\
         # Regenerate with `cargo run --release -- pin` only when a change is meant\n\
         # to alter the compiler's output.\n",
    );
    for (name, spec) in list() {
        let program = build_by_name(name, &spec).map_err(|e| e.to_string())?;
        let ir = compile(&program, &CompileOptions::default()).map_err(|e| e.to_string())?;
        text.push_str(&stats_row(name, &ir));
        text.push('\n');
    }
    Ok(text)
}

pub struct CompileScale {
    list: Vec<(&'static str, AlgoSpec)>,
    opts: CompileOptions,
    tracer: Tracer,
    next_op: u64,
    /// The latest pass's IRs, kept for the oracle.
    irs: Vec<IrProgram>,
    /// Per timed pass: wall seconds, then per program the build and the
    /// compile time.
    passes: Vec<(f64, Vec<(f64, f64)>)>,
}

impl CompileScale {
    pub fn setup() -> Result<Self, String> {
        let mut me = Self {
            list: list(),
            opts: CompileOptions::default(),
            tracer: Tracer::default(),
            next_op: 0,
            irs: Vec::new(),
            passes: Vec::new(),
        };
        // Warm-up, discarded: one pass over the list.
        let warm = me.run(Limit::Batches(1));
        if warm.failed > 0 {
            return Err(format!(
                "{} programs of the list do not compile",
                warm.failed
            ));
        }
        me.passes.clear();
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
            let op = self.next_op;
            self.next_op += 1;
            round.ops += 1;
            let root = self.tracer.begin("compile.pass", Layer::Bench, op, None);
            let pass_started = Instant::now();
            let mut irs = Vec::with_capacity(self.list.len());
            let mut times = Vec::with_capacity(self.list.len());
            for (name, spec) in &self.list {
                let t0 = Instant::now();
                let program =
                    self.tracer
                        .span("algos.build_by_name", Layer::Algos, op, root, || {
                            build_by_name(name, spec)
                        });
                let t1 = Instant::now();
                let ir = program.ok().and_then(|p| {
                    self.tracer
                        .span("core.compile", Layer::Core, op, root, || {
                            compile(&p, &self.opts)
                        })
                        .ok()
                });
                let t2 = Instant::now();
                if let Some(ir) = ir {
                    times.push(((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64()));
                    irs.push(ir);
                }
            }
            let pass_s = pass_started.elapsed().as_secs_f64();
            self.tracer.end(root);
            if irs.len() == self.list.len() {
                round.lat_us.push(pass_s * 1e6);
                self.passes.push((pass_s, times));
            } else {
                round.failed += 1;
            }
            self.irs = irs;
        }
        round.elapsed_s = started.elapsed().as_secs_f64();
        round
    }

    /// Median over the timed passes of program `i`'s build (`.0`) or
    /// compile (`.1`) time, summed over the list, in ms.
    fn list_ms(&self, pick: impl Fn(&(f64, f64)) -> f64) -> f64 {
        (0..self.list.len())
            .map(|i| {
                let per_pass: Vec<f64> = self
                    .passes
                    .iter()
                    .filter_map(|(_, times)| times.get(i).map(&pick))
                    .collect();
                median(&per_pass) * 1e3
            })
            .sum()
    }
}

/// Wall time of each stage of `compile`, replayed through the public
/// pass functions in the order and with the retry loop `compile` uses.
#[derive(Debug, Default)]
struct Replay {
    chunk_dag: f64,
    instr_dag: f64,
    fuse: f64,
    channels: f64,
    fifo_cycle: f64,
    threadblocks: f64,
    /// Instruction-DAG nodes before fusion.
    instr_nodes: usize,
}

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    *acc += t0.elapsed().as_secs_f64();
    r
}

fn replay(
    program: &mscclang::Program,
    opts: &CompileOptions,
    r: &mut Replay,
) -> Result<(), String> {
    let chunk_dag = timed(&mut r.chunk_dag, || {
        ChunkDag::build(program, opts.instances)
    })
    .map_err(|e| e.to_string())?;
    let mut dag = timed(&mut r.instr_dag, || InstrDag::build(&chunk_dag));
    r.instr_nodes += dag.nodes.len();
    timed(&mut r.fuse, || passes::fuse(&mut dag));
    let mut order = FifoOrder::Depth;
    loop {
        let ca = timed(&mut r.channels, || {
            assign_channels(&dag, opts.max_tbs_per_rank)
        })
        .map_err(|e| e.to_string())?;
        let stuck = timed(&mut r.fifo_cycle, || {
            find_fifo_cycle(&dag, &ca, order, opts.slots)
        });
        let Some(stuck) = stuck else {
            timed(&mut r.threadblocks, || {
                assign_threadblocks(&dag, &ca, opts.max_tbs_per_rank, order, opts.slots)
            })
            .map_err(|e| e.to_string())?;
            break;
        };
        let fused: Vec<usize> = stuck
            .into_iter()
            .filter(|&i| {
                matches!(
                    dag.nodes[i].op,
                    InstrOp::RecvCopySend | InstrOp::RecvReduceSend | InstrOp::RecvReduceCopySend
                )
            })
            .collect();
        if !fused.is_empty() {
            timed(&mut r.fuse, || passes::unfuse(&mut dag, &fused));
        } else if order == FifoOrder::Depth {
            order = FifoOrder::Trace;
        } else {
            return Err("instruction dependency graph is cyclic".into());
        }
    }
    Ok(())
}

impl Workload for CompileScale {
    fn round(&mut self, budget: Duration, traced: bool) -> Round {
        self.tracer.set_enabled(traced);
        self.run(Limit::Time(budget))
    }

    /// Every IR of the latest pass must pass the symbolic verifier again,
    /// outside `compile`, and its `IrStats` counts must equal the pinned
    /// table.
    fn check(&mut self) -> Verdict {
        let mut verdict = Verdict::default();
        let pinned: Vec<&str> = PINNED
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .collect();
        verdict.expect(
            pinned.len() == self.list.len() && self.irs.len() == self.list.len(),
            || {
                format!(
                    "{} programs in the list, {} compiled, {} pinned",
                    self.list.len(),
                    self.irs.len(),
                    pinned.len()
                )
            },
        );
        for (i, ((name, _), ir)) in self.list.iter().zip(&self.irs).enumerate() {
            let verified = verify::check(ir, &verify::VerifyOptions::default());
            verdict.expect(verified.is_ok(), || {
                format!("{name}@{}: {}", ir.num_ranks(), verified.unwrap_err())
            });
            let row = stats_row(name, ir);
            verdict.expect(pinned.get(i) == Some(&row.as_str()), || {
                format!("got `{row}`, pinned `{}`", pinned.get(i).unwrap_or(&""))
            });
        }
        verdict
    }

    fn probe(&mut self, _rounds: &[Round], m: &mut LayerValues) {
        let compile_ms = self.list_ms(|t| t.1);
        m.insert("algos.build_ms", self.list_ms(|t| t.0));
        m.insert("core.compile_ms", compile_ms);
        m.insert(
            "core.compile_pass_ms",
            median(&self.passes.iter().map(|p| p.0 * 1e3).collect::<Vec<_>>()),
        );

        // Each program is compiled whole and then replayed pass by pass,
        // back to back, so both see the same machine state.
        let mut r = Replay::default();
        let (mut whole_s, mut verify_s, mut trace_ops) = (0.0, 0.0, 0usize);
        for ((name, spec), ir) in self.list.iter().zip(&self.irs) {
            let Ok(program) = build_by_name(name, spec) else {
                continue;
            };
            trace_ops += program.ops().len();
            let whole = timed(&mut whole_s, || compile(&program, &self.opts));
            if whole.is_err() || replay(&program, &self.opts, &mut r).is_err() {
                continue;
            }
            let _ = timed(&mut verify_s, || {
                verify::check(ir, &verify::VerifyOptions::default())
            });
        }
        m.insert("algos.trace_ops", trace_ops as f64);
        m.insert("core.chunk_dag_ms", r.chunk_dag * 1e3);
        m.insert("core.instr_dag_ms", r.instr_dag * 1e3);
        m.insert("core.fuse_ms", r.fuse * 1e3);
        m.insert("core.channels_ms", r.channels * 1e3);
        m.insert("core.fifo_cycle_ms", r.fifo_cycle * 1e3);
        m.insert("core.threadblocks_ms", r.threadblocks * 1e3);
        m.insert("core.verify_ms", verify_s * 1e3);
        // What `compile` does that no public pass function covers:
        // building the IR from the schedule, epoch cuts, structure check.
        let replayed_ms = (r.chunk_dag
            + r.instr_dag
            + r.fuse
            + r.channels
            + r.fifo_cycle
            + r.threadblocks
            + verify_s)
            * 1e3;
        let whole_ms = whole_s * 1e3;
        m.insert("core.lower_ms", (whole_ms - replayed_ms).max(0.0));
        // A replay that takes longer than `compile` itself explains
        // nothing; above 0.10 the per-pass split is unresolved.
        m.insert(
            "core.replay_miss_share",
            super::ratio((replayed_ms - whole_ms).max(0.0), whole_ms),
        );
        m.insert("core.instr_nodes", r.instr_nodes as f64);
        m.insert(
            "core.ir_instrs",
            self.irs
                .iter()
                .map(IrProgram::num_instructions)
                .sum::<usize>() as f64,
        );
        m.insert(
            "core.ir_tbs",
            self.irs
                .iter()
                .map(IrProgram::num_threadblocks)
                .sum::<usize>() as f64,
        );
    }

    fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.tracer).into_spans()
    }
}
