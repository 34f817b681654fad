//! The simulator workloads. Host time is what is measured; simulated
//! time is what must not change.
//!
//! * `sim-scale` / `sim-scale-par2` — one hand-built single-channel
//!   1,024-rank ring allreduce on NDv4 × 128, 1 MiB, on the serial
//!   engine and on the 2-thread parallel engine: 12.6 M events through
//!   the event queue and the round driver, no compiler, one flow per
//!   link at a time.
//! * `sim-sweep` — four compiled programs simulated serially over
//!   1 KiB … 1 GiB in ×4 steps under all three protocols, the shape of
//!   the paper's §7 figures: 132 mostly small simulations where building
//!   the simulation and the flow network dominate. A queue tuned for
//!   `sim-scale` must not tax this. One operation is one pass over the
//!   132.

use std::time::{Duration, Instant};

use msccl_algos::{build_by_name, AlgoSpec};
use msccl_sim::{ParallelBackend, SerialBackend, SimBackend, SimConfig, SimReport};
use msccl_topology::{Machine, Protocol};
use mscclang::{
    compile, BufferKind, Collective, CompileOptions, IrGpu, IrInstruction, IrLoc, IrProgram,
    IrThreadBlock, OpCode,
};

use super::{median_us_of_3, ratio, Limit, Round, Verdict, Workload};
use crate::metrics::LayerValues;
use crate::stats::{median, percentile, sorted};
use crate::trace::{Layer, Span, Tracer};

/// Simulated statistics of every simulation of the three workloads,
/// pinned: a faster simulator must still predict the same times.
const PINNED: &str = include_str!("../../expected/sim.txt");

const SCALE_RANKS: usize = 1024;
const SCALE_BYTES: u64 = 1 << 20;

/// Which engine `sim-scale` drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Serial,
    Parallel2,
}

impl Engine {
    fn backend(self) -> &'static dyn SimBackend {
        match self {
            Engine::Serial => &SerialBackend,
            Engine::Parallel2 => &ParallelBackend { threads: 2 },
        }
    }

    fn other(self) -> Self {
        match self {
            Engine::Serial => Engine::Parallel2,
            Engine::Parallel2 => Engine::Serial,
        }
    }
}

/// The chunked ring allreduce written directly as MSCCL-IR: one thread
/// block per rank on one channel — `Send`, n−2 × `RecvReduceSend`,
/// `RecvReduceCopySend`, n−2 × `RecvCopySend`, `Recv`. The compiler
/// emits the same shape, but at 1,024 ranks its super-linear passes
/// would take minutes, and the simulator is what this workload measures.
/// (Same construction as `sim_throughput`'s, restated here so that the
/// benchmark depends on no other bench code.)
fn ring_ir(ranks: usize) -> IrProgram {
    let chunk = |index: usize| {
        Some(IrLoc {
            buffer: BufferKind::Input,
            index,
        })
    };
    let gpus = (0..ranks)
        .map(|r| {
            let mut instructions = Vec::with_capacity(2 * ranks - 1);
            let mut push = |op: OpCode, index: usize| {
                instructions.push(IrInstruction {
                    step: instructions.len(),
                    op,
                    src: chunk(index),
                    dst: chunk(index),
                    count: 1,
                    deps: Vec::new(),
                    has_dep: false,
                });
            };
            push(OpCode::Send, r);
            for k in 1..ranks - 1 {
                push(OpCode::RecvReduceSend, (r + ranks - k) % ranks);
            }
            push(OpCode::RecvReduceCopySend, (r + 1) % ranks);
            for k in 1..ranks - 1 {
                push(OpCode::RecvCopySend, (r + 1 + k) % ranks);
            }
            push(OpCode::Recv, r);
            IrGpu {
                rank: r,
                input_chunks: ranks,
                output_chunks: 0,
                scratch_chunks: 0,
                threadblocks: vec![IrThreadBlock {
                    id: 0,
                    send_peer: Some((r + 1) % ranks),
                    recv_peer: Some((r + ranks - 1) % ranks),
                    channel: 0,
                    instructions,
                }],
            }
        })
        .collect();
    // The simulator reads only the chunk count from the collective; a
    // real all-reduce collective would build O(ranks³) postconditions.
    IrProgram {
        name: format!("ring_allreduce_{ranks}"),
        collective: Collective::custom(ranks, ranks, 1, vec![vec![None]; ranks]),
        protocol: None,
        num_channels: 1,
        refinement: 1,
        gpus,
        epoch_cuts: Vec::new(),
    }
}

/// One simulation of a workload: which program, on what, how many bytes.
struct Case {
    label: String,
    ir: usize,
    config: SimConfig,
    bytes: u64,
}

/// What is kept of one simulation's report.
#[derive(Debug, Clone, Copy)]
struct Stats {
    events: u64,
    instructions: usize,
    flows: usize,
    /// Simulated completion time, µs.
    total_us: f64,
    max_heap: usize,
}

impl Stats {
    fn of(r: &SimReport) -> Self {
        Self {
            events: r.events,
            instructions: r.instructions,
            flows: r.flows,
            total_us: r.total_us,
            max_heap: r.max_heap,
        }
    }

    /// The simulated statistics as the pinned table holds them
    /// (`total_us` in shortest round-trip form, so equality is exact).
    /// The peak heap is the engine's business, not the model's.
    fn row(&self, label: &str) -> String {
        format!(
            "{label} events={} instructions={} flows={} total_us={}",
            self.events, self.instructions, self.flows, self.total_us
        )
    }
}

fn pinned_rows(prefix: &str) -> Vec<&'static str> {
    PINNED.lines().filter(|l| l.starts_with(prefix)).collect()
}

fn scale_case() -> (IrProgram, Case) {
    let ir = ring_ir(SCALE_RANKS);
    let case = Case {
        label: format!("scale ring@{SCALE_RANKS} bytes={SCALE_BYTES}"),
        ir: 0,
        config: SimConfig::new(Machine::ndv4(SCALE_RANKS / 8)),
        bytes: SCALE_BYTES,
    };
    (ir, case)
}

fn sweep_cases() -> Result<(Vec<IrProgram>, Vec<Case>), String> {
    let programs: [(&str, usize, usize); 4] = [
        ("hierarchical-allreduce", 2, 8),
        ("two-step-alltoall", 4, 8),
        ("allpairs-allreduce", 1, 8),
        ("ring-allreduce", 1, 8),
    ];
    let mut irs = Vec::new();
    let mut cases = Vec::new();
    for (i, (name, nodes, gpus)) in programs.into_iter().enumerate() {
        let spec = AlgoSpec {
            ranks: Some(nodes * gpus),
            nodes,
            gpus,
            ..AlgoSpec::default()
        };
        let program = build_by_name(name, &spec).map_err(|e| e.to_string())?;
        irs.push(compile(&program, &CompileOptions::default()).map_err(|e| e.to_string())?);
        let base = SimConfig::new(Machine::ndv4(nodes));
        for shift in (10..=30).step_by(2) {
            for protocol in [Protocol::Simple, Protocol::Ll, Protocol::Ll128] {
                cases.push(Case {
                    label: format!(
                        "sweep {name}@{} bytes=2^{shift} {}",
                        nodes * gpus,
                        protocol.as_str()
                    ),
                    ir: i,
                    config: base.clone().with_protocol(protocol),
                    bytes: 1 << shift,
                });
            }
        }
    }
    Ok((irs, cases))
}

/// The pinned table's text, regenerated from the serial engine.
pub fn pin() -> Result<String, String> {
    let mut text = String::from(
        "# Simulated statistics of every simulation of sim-scale, sim-scale-par2 and\n\
         # sim-sweep (serial engine; the parallel engine must agree). Regenerate with\n\
         # `cargo run --release -- pin` only when a change is meant to alter the model.\n",
    );
    let (ir, case) = scale_case();
    let (irs, cases) = sweep_cases()?;
    let all = std::iter::once((&ir, &case)).chain(cases.iter().map(|c| (&irs[c.ir], c)));
    for (ir, case) in all {
        let report = SerialBackend
            .simulate(ir, &case.config, case.bytes)
            .map_err(|e| e.to_string())?;
        text.push_str(&Stats::of(&report).row(&case.label));
        text.push('\n');
    }
    Ok(text)
}

/// The part shared by the three workloads: run cases, keep what the
/// oracle and the probes need.
struct Runner {
    backend: &'static dyn SimBackend,
    irs: Vec<IrProgram>,
    cases: Vec<Case>,
    tracer: Tracer,
    next_op: u64,
    /// Every timed simulation.
    done: Vec<Done>,
    /// Events per host second of each timed round.
    round_events_per_s: Vec<f64>,
}

struct Done {
    case: usize,
    host_us: f64,
    stats: Stats,
}

impl Runner {
    /// One operation is one pass over the cases.
    fn run(&mut self, limit: Limit) -> Round {
        let mut round = Round {
            traced: self.tracer.enabled(),
            ..Round::default()
        };
        let first = self.done.len();
        let started = Instant::now();
        let mut batches = 0;
        while limit.more(started, batches) {
            batches += 1;
            let op = self.next_op;
            self.next_op += 1;
            round.ops += 1;
            let root = self.tracer.begin("sim.pass", Layer::Bench, op, None);
            let pass_started = Instant::now();
            let before = self.done.len();
            for (i, case) in self.cases.iter().enumerate() {
                let call = self.tracer.begin("sim.simulate", Layer::Sim, op, root);
                let t0 = Instant::now();
                // The report is dropped inside the timed call: freeing it
                // is part of what a caller of the simulator pays.
                let stats = self
                    .backend
                    .simulate(&self.irs[case.ir], &case.config, case.bytes)
                    .map(|report| Stats::of(&report));
                let host_us = t0.elapsed().as_secs_f64() * 1e6;
                self.tracer.end(call);
                if let Ok(stats) = stats {
                    self.done.push(Done {
                        case: i,
                        host_us,
                        stats,
                    });
                }
            }
            let pass_us = pass_started.elapsed().as_secs_f64() * 1e6;
            self.tracer.end(root);
            if self.done.len() - before == self.cases.len() {
                round.lat_us.push(pass_us);
            } else {
                round.failed += 1;
            }
        }
        round.elapsed_s = started.elapsed().as_secs_f64();
        let events: u64 = self.done[first..].iter().map(|d| d.stats.events).sum();
        self.round_events_per_s
            .push(ratio(events as f64, round.elapsed_s));
        round
    }

    fn warm_up(&mut self) -> Result<(), String> {
        let warm = self.run(Limit::Batches(1));
        self.done.clear();
        self.round_events_per_s.clear();
        if warm.failed > 0 {
            return Err(format!("{} warm-up simulations failed", warm.failed));
        }
        Ok(())
    }

    /// Every timed simulation's statistics must equal the pinned row of
    /// its case, and repeats of a case must agree on the peak heap too.
    fn check(&self, pinned_prefix: &str) -> Verdict {
        let pinned = pinned_rows(pinned_prefix);
        let mut verdict = Verdict::default();
        verdict.expect(pinned.len() == self.cases.len(), || {
            format!("{} cases, {} pinned rows", self.cases.len(), pinned.len())
        });
        let mut heap: Vec<Option<usize>> = vec![None; self.cases.len()];
        for d in &self.done {
            let row = d.stats.row(&self.cases[d.case].label);
            verdict.expect(pinned.get(d.case) == Some(&row.as_str()), || {
                format!(
                    "got `{row}`, pinned `{}`",
                    pinned.get(d.case).unwrap_or(&"")
                )
            });
            let seen = *heap[d.case].get_or_insert(d.stats.max_heap);
            verdict.expect(seen == d.stats.max_heap, || {
                format!("{row}: peak heap {seen} then {}", d.stats.max_heap)
            });
        }
        verdict
    }

    /// Metrics every simulator workload reports; counts are summed over
    /// one pass of the cases (peak heap: the largest).
    fn probe(&self, m: &mut LayerValues) {
        let events_per_s = median(&self.round_events_per_s);
        m.insert("sim.events_per_s", events_per_s);
        m.insert("sim.ns_per_event", ratio(1e9, events_per_s));
        let pass: Vec<&Done> = (0..self.cases.len())
            .filter_map(|i| self.done.iter().find(|d| d.case == i))
            .collect();
        let sum = |f: &dyn Fn(&Stats) -> f64| pass.iter().map(|d| f(&d.stats)).sum::<f64>();
        m.insert("sim.events", sum(&|r| r.events as f64));
        m.insert("sim.flows", sum(&|r| r.flows as f64));
        m.insert("sim.instructions", sum(&|r| r.instructions as f64));
        m.insert("sim.simulated_total_us", sum(&|r| r.total_us));
        m.insert(
            "sim.max_heap",
            pass.iter().map(|d| d.stats.max_heap).max().unwrap_or(0) as f64,
        );
        let small = sorted(
            self.done
                .iter()
                .filter(|d| d.stats.events < 10_000)
                .map(|d| d.host_us)
                .collect(),
        );
        m.insert("sim.small_sim_us", percentile(&small, 50.0));
    }
}

pub struct SimScale {
    engine: Engine,
    runner: Runner,
}

impl SimScale {
    pub fn setup(engine: Engine) -> Result<Self, String> {
        let (ir, case) = scale_case();
        ir.check_structure().map_err(|e| e.to_string())?;
        let mut runner = Runner {
            backend: engine.backend(),
            irs: vec![ir],
            cases: vec![case],
            tracer: Tracer::default(),
            next_op: 0,
            done: Vec::new(),
            round_events_per_s: Vec::new(),
        };
        // Warm-up, discarded: one full-size simulation. Each one touches
        // ~340 MiB, and the first ones in a process pay for every page
        // (on a virtual machine, several times over).
        runner.warm_up()?;
        Ok(Self { engine, runner })
    }
}

impl Workload for SimScale {
    fn round(&mut self, budget: Duration, traced: bool) -> Round {
        self.runner.tracer.set_enabled(traced);
        self.runner.run(Limit::Time(budget))
    }

    fn check(&mut self) -> Verdict {
        self.runner.check("scale ")
    }

    fn probe(&mut self, _rounds: &[Round], m: &mut LayerValues) {
        self.runner.probe(m);
        // The other engine, once, on the same case: serial host time over
        // parallel host time.
        let case = &self.runner.cases[0];
        let t0 = Instant::now();
        let other =
            self.engine
                .other()
                .backend()
                .simulate(&self.runner.irs[0], &case.config, case.bytes);
        let other_us = t0.elapsed().as_secs_f64() * 1e6;
        let own_us = median(
            &self
                .runner
                .done
                .iter()
                .map(|d| d.host_us)
                .collect::<Vec<_>>(),
        );
        if other.is_ok() {
            let (serial, parallel) = match self.engine {
                Engine::Serial => (own_us, other_us),
                Engine::Parallel2 => (other_us, own_us),
            };
            m.insert("sim.par2_speedup", ratio(serial, parallel));
        }
        m.insert(
            "topology.machine_build_us",
            median_us_of_3(|| Machine::ndv4(SCALE_RANKS / 8)),
        );
    }

    fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.runner.tracer).into_spans()
    }
}

pub struct SimSweep {
    runner: Runner,
}

impl SimSweep {
    pub fn setup() -> Result<Self, String> {
        let (irs, cases) = sweep_cases()?;
        let mut runner = Runner {
            backend: Engine::Serial.backend(),
            irs,
            cases,
            tracer: Tracer::default(),
            next_op: 0,
            done: Vec::new(),
            round_events_per_s: Vec::new(),
        };
        // Warm-up, discarded: one pass over the sweep.
        runner.warm_up()?;
        Ok(Self { runner })
    }
}

impl Workload for SimSweep {
    fn round(&mut self, budget: Duration, traced: bool) -> Round {
        self.runner.tracer.set_enabled(traced);
        self.runner.run(Limit::Time(budget))
    }

    fn check(&mut self) -> Verdict {
        self.runner.check("sweep ")
    }

    fn probe(&mut self, _rounds: &[Round], m: &mut LayerValues) {
        self.runner.probe(m);
        m.insert(
            "topology.machine_build_us",
            median_us_of_3(|| [2, 4, 1, 1].map(Machine::ndv4)),
        );
    }

    fn take_spans(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.runner.tracer).into_spans()
    }
}
