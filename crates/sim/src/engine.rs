//! Simulation entry points: shard construction, the backend dispatch,
//! and report assembly.
//!
//! The event loops themselves live in [`crate::actor`] (the per-node
//! state machine) and [`crate::parallel`] (the round loop that runs
//! the shards on one worker or several). This module turns an
//! [`IrProgram`] plus a [`SimConfig`] into shards, runs them, and merges
//! the per-shard results back into one [`SimReport`] — identically
//! whichever backend executed the rounds.

use msccl_faults::FaultInjector;
use msccl_metrics::{MetricsSnapshot, Registry};
use msccl_topology::{Protocol, TransferPath};
use msccl_trace::{ClockDomain, EventKind, Trace, TraceEvent};
use mscclang::lower::Lowered;
use mscclang::IrProgram;

use crate::actor::{Dep, Shard, Step, Tb};
use crate::config::{SimConfig, SimError};
use crate::parallel::{self, RunCtx};

/// Receive-side FIFO bookkeeping cost per tile, microseconds.
pub(crate) const RECV_OVERHEAD_US: f64 = 0.4;

/// What a thread block was doing during a [`TimelineEntry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Processing a received tile (copy/reduce out of the FIFO slot).
    Recv,
    /// Sender-side synchronization and RDMA staging.
    SendSetup,
    /// Occupying an NVLink flow (the thread block is the copy engine).
    Flow,
    /// A local copy or reduction.
    Local,
}

/// One busy interval of one thread block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineEntry {
    /// Rank owning the thread block.
    pub rank: usize,
    /// Thread block id within the rank.
    pub tb: usize,
    /// Interval start, microseconds.
    pub start_us: f64,
    /// Interval end, microseconds.
    pub end_us: f64,
    /// What the block was doing.
    pub activity: Activity,
}

/// Results of a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Completion time of the last thread block, microseconds (includes
    /// the kernel launch when configured).
    pub total_us: f64,
    /// Instructions executed (instruction list length × tiles).
    pub instructions: usize,
    /// Network flows started.
    pub flows: usize,
    /// Peak concurrent flows (summed per-node peaks).
    pub max_concurrent_flows: usize,
    /// Protocol used.
    pub protocol: Protocol,
    /// Tiles each chunk split into.
    pub tiles: usize,
    /// Sum over thread blocks of time spent busy (processing or occupying
    /// a flow); `busy_us / (total_us × #tbs)` estimates utilization.
    pub busy_us: f64,
    /// Discrete events processed.
    pub events: u64,
    /// Peak event-queue length (the largest any shard's queue grew).
    pub max_heap: usize,
    /// Per-thread-block busy intervals (empty unless
    /// [`SimConfig::record_timeline`] is set).
    pub timeline: Vec<TimelineEntry>,
    /// Per-resource traffic: `(resource, bytes carried, busy µs)`. For
    /// NVLink ports the busy time is inferred from bytes over capacity;
    /// for NIC engines it is the exact queue occupancy.
    pub resource_usage: Vec<(msccl_topology::ResourceId, f64, f64)>,
    /// Structured virtual-time trace (`None` unless
    /// [`SimConfig::record_trace`] is set): the same event vocabulary the
    /// threaded runtime emits, timestamped by the discrete-event clock.
    pub trace: Option<Trace>,
    /// Always-on metrics in the same vocabulary the threaded runtime
    /// records (`msccl_metrics::names`), measured on the virtual clock:
    /// every `*_NS` value is virtual microseconds × 1000. The simulator
    /// has no tile pool, so the `POOL_*` counters are absent.
    pub metrics: MetricsSnapshot,
}

/// A fully constructed simulation, ready for the round loop.
struct Built {
    shards: Vec<Shard>,
    injector: Option<FaultInjector>,
    protocol: Protocol,
    params: msccl_topology::ProtocolParams,
    num_tiles: usize,
    tile_bytes: f64,
    /// Minimum cross-node message latency (`alpha × alpha_factor`) over
    /// all split connections — the conservative lookahead. `None` when
    /// no connection crosses nodes (one round processes everything).
    lookahead: Option<f64>,
    /// Engine-level trace events that belong to no shard (the kernel
    /// launch marker), prepended when assembling the merged trace.
    prelude: Vec<TraceEvent>,
}

/// Validates the program against the machine and builds one shard per
/// machine node.
fn build(ir: &IrProgram, config: &SimConfig, buffer_bytes: u64) -> Result<Built, SimError> {
    let machine = &config.machine;
    if ir.num_ranks() > machine.num_ranks() {
        return Err(SimError::RankMismatch {
            program: ir.num_ranks(),
            machine: machine.num_ranks(),
        });
    }
    if buffer_bytes == 0 {
        return Err(SimError::BadConfig {
            message: "buffer_bytes must be positive".into(),
        });
    }
    for gpu in &ir.gpus {
        if gpu.threadblocks.len() > machine.num_sms() {
            return Err(SimError::TooManyThreadBlocks {
                rank: gpu.rank,
                required: gpu.threadblocks.len(),
                sms: machine.num_sms(),
            });
        }
    }
    let lowered = Lowered::new(ir).map_err(|e| SimError::InvalidProgram {
        message: e.to_string(),
    })?;
    let injector = match &config.fault_plan {
        Some(plan) => {
            plan.validate(ir).map_err(|e| SimError::BadFaultPlan {
                message: e.to_string(),
            })?;
            Some(FaultInjector::new(plan))
        }
        None => None,
    };
    let protocol = config.protocol.or(ir.protocol).unwrap_or(Protocol::Simple);
    let mut params = protocol.params();
    if let Some(overhead) = config.tile_overhead_us {
        params.tile_overhead_us = overhead;
    }
    let slots = config.slots.unwrap_or(params.num_slots).max(1);
    let chunk_bytes = buffer_bytes as f64 / ir.collective.in_chunks() as f64;
    let exact_tiles = (chunk_bytes / params.slot_bytes as f64).ceil().max(1.0) as usize;
    let num_tiles = exact_tiles.min(config.max_tiles.max(1));
    let tile_bytes = chunk_bytes / num_tiles as f64;

    // ---- One shard per machine node that hosts any rank. Ranks fill
    // nodes in order (`node_of` is `rank / gpus_per_node`), so each node's
    // blocks are one contiguous flat range: a block's shard-local index is
    // its flat id less the flat id of its node's first block.
    let mut shard_first: Vec<usize> = Vec::new();
    for rank in 0..ir.num_ranks() {
        if machine.node_of(rank) == shard_first.len() {
            shard_first.push(lowered.rank_blocks(rank).start);
        }
    }
    let mut shards: Vec<Shard> = (0..shard_first.len().max(1))
        .map(|i| Shard::new(i, config.record_trace))
        .collect();

    // A step keeps its dependency range in two `u32`s, which keeps the
    // step table compact.
    let dep_index = |i: usize| u32::try_from(i).expect("a node holds fewer than 2^32 dependencies");

    // ---- Connections, created in the flat order of their sending blocks
    // so that resources intern in that order. Per connection id: the
    // shard-local ids of its send half and its receive half (the same
    // connection unless it is split across nodes).
    let mut conn_at: Vec<(usize, usize)> = vec![(0, 0); lowered.conns().len()];
    let mut lookahead: Option<f64> = None;
    for c in lowered.blocks().iter().filter_map(|b| b.send) {
        let key @ (rank, peer, _) = lowered.conns()[c];
        let home = machine.node_of(rank);
        let path = TransferPath::resolve(machine, rank, peer).ok_or(SimError::UnreachablePair {
            src: rank,
            dst: peer,
        })?;
        let cross_node = path.is_cross_node();
        let local = path.is_local();
        let demand_gbps = if local {
            machine.local_gbps()
        } else if cross_node {
            path.min_bandwidth_gbps()
        } else {
            machine.tb_gbps()
        };
        // An injected link-latency spike multiplies the path's base
        // latency for every transfer on this connection.
        let spike = injector
            .as_ref()
            .and_then(|inj| inj.link_spike(rank, peer))
            .unwrap_or(1.0);
        let alpha_us = path.alpha_us * spike;
        let proto = |resources| crate::actor::Conn {
            resources,
            alpha_us,
            cross_node,
            local,
            demand_gbps,
            slots,
            key,
            ..Default::default()
        };
        let send_id = shards[home].conns.len();
        conn_at[c] = if cross_node {
            // Split: the send half (and the egress NIC queue) lives with
            // the sending node, the receive half (and the ingress queue)
            // with the receiving node. The halves talk through
            // timestamped tile/credit messages. The spiked latency seeds
            // the conservative lookahead.
            let a = alpha_us * params.alpha_factor;
            lookahead = Some(lookahead.map_or(a, |l: f64| l.min(a)));
            let away = machine.node_of(peer);
            let recv_id = shards[away].conns.len();
            let (r, cap) = path.resources[0];
            let egress = shards[home].table.intern(r, cap);
            let mut send_half = proto(vec![egress]);
            send_half.remote_recv = Some((away, recv_id));
            shards[home].conns.push(send_half);
            let (r, cap) = path.resources[1];
            let ingress = shards[away].table.intern(r, cap);
            let mut recv_half = proto(vec![ingress]);
            recv_half.remote_send = Some((home, send_id));
            shards[away].conns.push(recv_half);
            (send_id, recv_id)
        } else {
            let resources = path
                .resources
                .iter()
                .map(|&(r, cap)| shards[home].table.intern(r, cap))
                .collect();
            shards[home].conns.push(proto(resources));
            (send_id, send_id)
        };
    }

    // ---- Blocks: instructions lowered to steps, dependencies to
    // shard-local block indices.
    for (b, block) in lowered.blocks().iter().enumerate() {
        let (rank, tb) = (block.rank, block.tb);
        let home = machine.node_of(rank);
        let shard = &mut shards[home];
        let first_step = shard.steps.len();
        for instr in &tb.instructions {
            let start = shard.deps.len();
            for d in &instr.deps {
                shard.deps.push(Dep {
                    tb: lowered.dep(rank, d).0 - shard_first[home],
                    step: d.step,
                });
            }
            shard.steps.push(Step {
                op: instr.op,
                has_dep: instr.has_dep,
                count: instr.count,
                deps: (dep_index(start), dep_index(shard.deps.len())),
            });
        }
        debug_assert_eq!(b - shard_first[home], shard.tbs.len());
        shard.tbs.push(Tb::new(
            rank,
            tb.id,
            first_step,
            tb.instructions.len(),
            block.send.map(|c| conn_at[c].0),
            block.recv.map(|c| conn_at[c].1),
        ));
    }

    let prelude = if config.record_trace {
        vec![TraceEvent {
            ts_us: 0.0,
            rank: 0,
            tb: 0,
            kind: EventKind::KernelLaunch,
        }]
    } else {
        Vec::new()
    };
    let start = if config.include_launch {
        machine.launch_us() + config.tb_setup_us * ir.max_threadblocks_per_rank() as f64
    } else {
        0.0
    };
    for shard in &mut shards {
        shard.seal(start);
    }
    Ok(Built {
        shards,
        injector,
        protocol,
        params,
        num_tiles,
        tile_bytes,
        lookahead,
        prelude,
    })
}

/// Merges the per-shard results into one report and folds the shards'
/// metric tallies into one registry.
fn assemble(config: &SimConfig, mut built: Built) -> SimReport {
    let registry = Registry::new(1);
    for shard in &built.shards {
        shard.fold_metrics(&registry);
    }
    let Built {
        ref mut shards,
        protocol,
        num_tiles,
        ..
    } = built;

    let last_time = shards
        .iter()
        .map(|s| s.last_time)
        .fold(f64::NEG_INFINITY, f64::max);
    let total_us = shards
        .iter()
        .flat_map(|s| s.tbs.iter())
        .map(|t| t.finish_time)
        .fold(last_time, f64::max);
    let timeline = shards
        .iter_mut()
        .flat_map(|s| std::mem::take(&mut s.timeline))
        .collect();
    let resource_usage = {
        // Every resource is owned by exactly one shard: intra-node ports
        // by their node, a cross-node link's egress queue by the sending
        // node and its ingress queue by the receiving node — so merging
        // is concatenation.
        let mut usage: Vec<_> = shards
            .iter()
            .flat_map(|s| {
                let carried = s.net.carried_bytes();
                s.table
                    .entries()
                    .map(|(id, idx, cap)| {
                        let bytes = carried[idx] + s.nic_bytes[idx];
                        let busy = s.nic_busy[idx] + carried[idx] / (cap * 1000.0);
                        (id, bytes, busy)
                    })
                    .collect::<Vec<_>>()
            })
            .filter(|&(_, bytes, _)| bytes > 0.0)
            .collect();
        usage.sort_by_key(|&(id, _, _)| id);
        usage
    };
    let trace = if config.record_trace {
        let mut buffers = Vec::with_capacity(shards.len() + 1);
        buffers.push(std::mem::take(&mut built.prelude));
        for s in &mut built.shards {
            buffers.push(s.trace.take().unwrap_or_default());
        }
        Some(Trace::from_buffers(ClockDomain::Virtual, buffers))
    } else {
        None
    };
    let shards = &built.shards;
    SimReport {
        total_us,
        instructions: shards.iter().map(|s| s.instructions_executed).sum(),
        flows: shards
            .iter()
            .map(|s| s.net.total_flows() + s.cross_flows)
            .sum(),
        max_concurrent_flows: shards.iter().map(|s| s.net.max_concurrent()).sum(),
        protocol,
        tiles: num_tiles,
        busy_us: shards
            .iter()
            .flat_map(|s| s.tbs.iter())
            .map(|t| t.busy_us)
            .sum(),
        events: shards.iter().map(|s| s.events).sum(),
        max_heap: shards.iter().map(|s| s.max_heap).max().unwrap_or(0),
        timeline,
        resource_usage,
        trace,
        metrics: registry.snapshot(),
    }
}

/// Simulates one kernel executing `ir` with a per-GPU buffer of
/// `buffer_bytes` bytes.
///
/// [`SimConfig::parallel`] selects the engine: `None` (or 0/1 threads)
/// runs the shards serially, larger values run them on worker threads.
/// Both paths drive the same per-node shards through the same
/// conservative rounds, so their results are bit-identical (see
/// `docs/simulator.md`).
///
/// # Errors
///
/// Returns [`SimError`] for mismatched machines, unreachable pairs,
/// SM over-subscription or deadlocked hand-written IR.
pub fn simulate(
    ir: &IrProgram,
    config: &SimConfig,
    buffer_bytes: u64,
) -> Result<SimReport, SimError> {
    let mut built = build(ir, config, buffer_bytes)?;
    let threads = match config.parallel {
        // Zero-lookahead machines (a cross-node link with zero latency)
        // offer no conservative window; fall back to serial rounds.
        Some(n) if n > 1 && built.lookahead.is_none_or(|l| l > 0.0) => n,
        _ => 1,
    };
    let ctx = RunCtx {
        config,
        params: &built.params,
        tile_bytes: built.tile_bytes,
        num_tiles: built.num_tiles,
        injector: built.injector.as_ref(),
    };
    parallel::run(&mut built.shards, threads, built.lookahead, &ctx)?;
    Ok(assemble(config, built))
}

/// A simulation engine selector: the serial oracle or the sharded
/// parallel engine, both producing bit-identical [`SimReport`]s.
pub trait SimBackend {
    /// Runs `ir` over `config`'s machine with this backend's engine,
    /// overriding [`SimConfig::parallel`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] exactly as [`simulate`] does.
    fn simulate(
        &self,
        ir: &IrProgram,
        config: &SimConfig,
        buffer_bytes: u64,
    ) -> Result<SimReport, SimError>;
}

/// The serial oracle: the round loop with one worker, the calling
/// thread, driving every shard.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialBackend;

impl SimBackend for SerialBackend {
    fn simulate(
        &self,
        ir: &IrProgram,
        config: &SimConfig,
        buffer_bytes: u64,
    ) -> Result<SimReport, SimError> {
        let mut config = config.clone();
        config.parallel = None;
        simulate(ir, &config, buffer_bytes)
    }
}

/// The parallel engine: the same round loop on `threads` workers, each
/// owning a contiguous block of the per-node shards. The calling thread
/// is worker 0; the others are spawned per simulation. Two workers beat
/// the serial engine once rounds carry enough events (see
/// `docs/simulator.md`, "Choosing `--parallel N`").
#[derive(Debug, Clone, Copy)]
pub struct ParallelBackend {
    /// Worker count, capped at one per shard (1 is the serial engine).
    pub threads: usize,
}

impl SimBackend for ParallelBackend {
    fn simulate(
        &self,
        ir: &IrProgram,
        config: &SimConfig,
        buffer_bytes: u64,
    ) -> Result<SimReport, SimError> {
        let mut config = config.clone();
        config.parallel = Some(self.threads);
        simulate(ir, &config, buffer_bytes)
    }
}

/// Simulates a sequence of kernels launched back to back (the multi-kernel
/// baselines of §7.2: each kernel pays its own launch and no cross-kernel
/// pipelining happens). Times, counts and events add up across kernels;
/// `max_heap` is the largest any kernel's queue grew.
///
/// # Errors
///
/// Propagates the first kernel's [`SimError`].
pub fn simulate_sequence(
    kernels: &[(&IrProgram, u64)],
    config: &SimConfig,
) -> Result<SimReport, SimError> {
    let mut total = 0.0;
    let mut instructions = 0;
    let mut flows = 0;
    let mut max_cc = 0;
    let mut protocol = Protocol::Simple;
    let mut tiles = 0;
    let mut busy = 0.0;
    let mut events = 0;
    let mut max_heap = 0;
    let mut metrics = MetricsSnapshot::default();
    for &(ir, bytes) in kernels {
        let r = simulate(ir, config, bytes)?;
        total += r.total_us;
        instructions += r.instructions;
        flows += r.flows;
        max_cc = max_cc.max(r.max_concurrent_flows);
        protocol = r.protocol;
        tiles = tiles.max(r.tiles);
        busy += r.busy_us;
        events += r.events;
        max_heap = max_heap.max(r.max_heap);
        metrics = metrics.merge(&r.metrics);
    }
    Ok(SimReport {
        total_us: total,
        instructions,
        flows,
        max_concurrent_flows: max_cc,
        protocol,
        tiles,
        busy_us: busy,
        events,
        max_heap,
        timeline: Vec::new(),
        resource_usage: Vec::new(),
        trace: None,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use msccl_metrics::names;
    use msccl_topology::Machine;
    use mscclang::{compile, CompileOptions};

    fn ndv4_config() -> SimConfig {
        SimConfig::new(Machine::ndv4(1))
    }

    fn ring(n: usize, ch: usize, instances: usize) -> IrProgram {
        let p = msccl_algos::ring_all_reduce(n, ch).unwrap();
        compile(&p, &CompileOptions::default().with_instances(instances)).unwrap()
    }

    #[test]
    fn simulation_terminates_and_reports() {
        let ir = ring(8, 1, 1);
        let r = simulate(&ir, &ndv4_config(), 1 << 20).unwrap();
        assert!(r.total_us > 0.0);
        assert!(r.instructions > 0);
        assert!(r.flows > 0);
    }

    #[test]
    fn bigger_buffers_take_longer() {
        let ir = ring(8, 1, 1);
        let small = simulate(&ir, &ndv4_config(), 1 << 16).unwrap();
        let large = simulate(&ir, &ndv4_config(), 1 << 26).unwrap();
        assert!(large.total_us > small.total_us * 2.0);
    }

    #[test]
    fn ll_beats_simple_at_small_sizes_and_loses_at_large() {
        let ir = ring(8, 1, 1);
        let cfg = ndv4_config();
        let small_ll = simulate(&ir, &cfg.clone().with_protocol(Protocol::Ll), 4 << 10).unwrap();
        let small_simple =
            simulate(&ir, &cfg.clone().with_protocol(Protocol::Simple), 4 << 10).unwrap();
        assert!(small_ll.total_us < small_simple.total_us);
        let large_ll = simulate(&ir, &cfg.clone().with_protocol(Protocol::Ll), 256 << 20).unwrap();
        let large_simple = simulate(&ir, &cfg.with_protocol(Protocol::Simple), 256 << 20).unwrap();
        assert!(large_simple.total_us < large_ll.total_us);
    }

    #[test]
    fn parallelization_helps_large_buffers() {
        let cfg = ndv4_config().with_protocol(Protocol::Simple);
        let r1 = simulate(&ring(8, 1, 1), &cfg, 128 << 20).unwrap();
        let r8 = simulate(&ring(8, 1, 8), &cfg, 128 << 20).unwrap();
        assert!(
            r8.total_us < r1.total_us,
            "8 instances ({}) should beat 1 ({}) at 128MB",
            r8.total_us,
            r1.total_us
        );
    }

    #[test]
    fn parallelization_hurts_small_buffers() {
        let cfg = ndv4_config().with_protocol(Protocol::Ll);
        let r1 = simulate(&ring(8, 1, 1), &cfg, 2 << 10).unwrap();
        let r8 = simulate(&ring(8, 1, 8), &cfg, 2 << 10).unwrap();
        assert!(r1.total_us < r8.total_us);
    }

    #[test]
    fn launch_cost_is_configurable() {
        let ir = ring(4, 1, 1);
        let cfg = ndv4_config();
        let with = simulate(&ir, &cfg, 4096).unwrap();
        let without = simulate(&ir, &cfg.clone().with_launch(false), 4096).unwrap();
        let diff = with.total_us - without.total_us;
        let expected =
            Machine::ndv4(1).launch_us() + cfg.tb_setup_us * ir.max_threadblocks_per_rank() as f64;
        assert!((diff - expected).abs() < 1e-6);
    }

    #[test]
    fn sequence_adds_kernels() {
        let ir = ring(4, 1, 1);
        let single = simulate(&ir, &ndv4_config(), 1 << 20).unwrap();
        let seq = simulate_sequence(&[(&ir, 1 << 20), (&ir, 1 << 20)], &ndv4_config()).unwrap();
        assert!((seq.total_us - 2.0 * single.total_us).abs() < 1e-6);
        assert_eq!(seq.events, 2 * single.events);
        assert_eq!(seq.max_heap, single.max_heap);
    }

    #[test]
    fn rank_mismatch_is_rejected() {
        let ir = ring(16, 1, 1);
        let err = simulate(&ir, &ndv4_config(), 4096).unwrap_err();
        assert!(matches!(err, SimError::RankMismatch { .. }));
    }

    #[test]
    fn sm_budget_is_enforced() {
        let ir = ring(8, 2, 2);
        let machine = Machine::ndv4(1).with_num_sms(2);
        assert!(ir.max_threadblocks_per_rank() > 2);
        let err = simulate(&ir, &SimConfig::new(machine), 4096).unwrap_err();
        assert!(matches!(err, SimError::TooManyThreadBlocks { .. }));
    }

    #[test]
    fn unreachable_dgx1_pair_is_rejected() {
        // Ring over all 8 GPUs in rank order hops 0 -> 1 (wired) but also
        // 3 -> 4 (not wired on DGX-1).
        let ir = ring(8, 1, 1);
        let err = simulate(&ir, &SimConfig::new(Machine::dgx1()), 4096).unwrap_err();
        assert!(matches!(err, SimError::UnreachablePair { .. }));
    }

    #[test]
    fn hcm_allgather_runs_on_dgx1() {
        let p = msccl_algos::hcm_allgather().unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let r = simulate(&ir, &SimConfig::new(Machine::dgx1()), 1 << 20).unwrap();
        assert!(r.total_us > 0.0);
    }

    #[test]
    fn cross_node_uses_nic_bandwidth() {
        // One big send across nodes: 64 MB over a 25 GB/s NIC ~= 2.7 ms.
        // The machine must have one GPU per node so ranks 0 and 1 really
        // sit on different nodes.
        let machine = Machine::custom(
            2,
            1,
            msccl_topology::LinkParams::new(2.0, 275.0),
            1,
            msccl_topology::LinkParams::new(3.5, 25.0),
        );
        let p = msccl_algos::all_to_next(2, 1).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let cfg = SimConfig::new(machine).with_protocol(Protocol::Simple);
        let bytes = 64u64 << 20;
        let r = simulate(&ir, &cfg, bytes).unwrap();
        let ideal_us = bytes as f64 / (25.0 * 1000.0);
        assert!(
            r.total_us > ideal_us,
            "{} vs ideal {}",
            r.total_us,
            ideal_us
        );
        assert!(
            r.total_us < 2.0 * ideal_us,
            "{} vs ideal {}",
            r.total_us,
            ideal_us
        );
    }

    #[test]
    fn timeline_records_busy_intervals() {
        let ir = ring(4, 1, 1);
        let cfg = ndv4_config()
            .with_protocol(Protocol::Simple)
            .with_timeline(true);
        let r = simulate(&ir, &cfg, 1 << 20).unwrap();
        assert!(!r.timeline.is_empty());
        let mut kinds = std::collections::HashSet::new();
        for e in &r.timeline {
            assert!(e.end_us >= e.start_us);
            assert!(e.rank < 4);
            kinds.insert(format!("{:?}", e.activity));
        }
        // Intra-node ring exercises recv processing, send setup and flows.
        assert!(kinds.contains("Recv") && kinds.contains("SendSetup") && kinds.contains("Flow"));
        // Busy accounting and timeline agree.
        let total: f64 = r.timeline.iter().map(|e| e.end_us - e.start_us).sum();
        assert!((total - r.busy_us).abs() < 1e-6 * r.busy_us.max(1.0));
        // Off by default.
        let quiet = simulate(&ir, &ndv4_config(), 1 << 20).unwrap();
        assert!(quiet.timeline.is_empty());
    }

    #[test]
    fn fewer_fifo_slots_throttle_the_pipeline() {
        // With a single slot the sender cannot run ahead, so throughput
        // drops; with the full 8 slots tiles pipeline.
        let ir = ring(8, 1, 1);
        let cfg = ndv4_config().with_protocol(Protocol::Simple);
        let bytes = 64u64 << 20;
        let full = simulate(&ir, &cfg.clone().with_slots(8), bytes)
            .unwrap()
            .total_us;
        let throttled = simulate(&ir, &cfg.clone().with_slots(1), bytes)
            .unwrap()
            .total_us;
        assert!(
            throttled >= full,
            "1 slot ({throttled}) should not beat 8 slots ({full})"
        );
    }

    #[test]
    fn alltonext_boundary_uses_every_nic() {
        // §7.4's point: the boundary transfer spreads over all 8 NICs.
        let p = msccl_algos::all_to_next(2, 8).unwrap();
        let ir = compile(&p, &CompileOptions::default().with_verify(false)).unwrap();
        let cfg = SimConfig::new(Machine::ndv4(2)).with_protocol(Protocol::Simple);
        let r = simulate(&ir, &cfg, 8 << 20).unwrap();
        let egress_nics = r
            .resource_usage
            .iter()
            .filter(|(id, _, _)| {
                matches!(
                    id,
                    msccl_topology::ResourceId::Nic {
                        node: 0,
                        dir: msccl_topology::Direction::Egress,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(egress_nics, 8, "boundary should engage all 8 NICs");
    }

    #[test]
    fn deterministic_results() {
        let ir = ring(8, 2, 2);
        let a = simulate(&ir, &ndv4_config(), 1 << 22).unwrap();
        let b = simulate(&ir, &ndv4_config(), 1 << 22).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn trace_is_consistent_with_ir() {
        let ir = ring(8, 2, 2);
        let cfg = ndv4_config().with_trace(true);
        let r = simulate(&ir, &cfg, 1 << 22).unwrap();
        let trace = r.trace.expect("trace requested");
        assert!(!trace.is_empty());
        trace.check_consistency(Some(&ir)).unwrap();
        // Every executed instruction appears exactly once in the trace.
        assert_eq!(trace.executed_instructions().len(), r.instructions);
        // Off by default.
        let quiet = simulate(&ir, &ndv4_config(), 1 << 22).unwrap();
        assert!(quiet.trace.is_none());
    }

    /// The always-on metrics and the recorded trace are two views of the
    /// same run: every logical counter must agree sample for sample with
    /// the snapshot reconstructed from the trace.
    #[test]
    fn metrics_agree_with_trace_counters() {
        let ir = ring(8, 2, 2);
        let r = simulate(&ir, &ndv4_config().with_trace(true), 1 << 22).unwrap();
        let from_trace = msccl_trace::snapshot_from_trace(r.trace.as_ref().unwrap());
        for name in [
            names::BYTES_SENT,
            names::BYTES_RECEIVED,
            names::SENDS,
            names::RECVS,
            names::INSTRUCTIONS,
        ] {
            for sample in r.metrics.with_name(name) {
                let labels: Vec<(&str, &str)> = sample
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                assert_eq!(
                    r.metrics.counter(name, &labels),
                    from_trace.counter(name, &labels),
                    "{name} diverges from trace at {labels:?}"
                );
            }
            assert_eq!(
                r.metrics.counter_total(name),
                from_trace.counter_total(name),
                "{name} total"
            );
        }
        assert_eq!(
            r.metrics.counter_total(names::INSTRUCTIONS),
            r.instructions as u64
        );
        // Metrics are always on: the untraced run reports the same counts.
        let quiet = simulate(&ir, &ndv4_config(), 1 << 22).unwrap();
        assert_eq!(quiet.metrics, r.metrics);
    }

    #[test]
    fn traced_and_untraced_times_agree() {
        let ir = ring(8, 1, 1);
        let plain = simulate(&ir, &ndv4_config(), 1 << 20).unwrap();
        let traced = simulate(&ir, &ndv4_config().with_trace(true), 1 << 20).unwrap();
        assert_eq!(plain.total_us, traced.total_us);
        assert_eq!(plain.instructions, traced.instructions);
    }

    fn faulted(plan_text: &str) -> SimConfig {
        ndv4_config().with_faults(msccl_faults::FaultPlan::parse(plan_text).unwrap())
    }

    #[test]
    fn injected_kill_is_a_structured_error() {
        let ir = ring(4, 1, 1);
        let err = simulate(&ir, &faulted("kill block r0 tb0 step0"), 1 << 20).unwrap_err();
        match err {
            SimError::InjectedFault { rank, tb, step, .. } => {
                assert_eq!((rank, tb, step), (0, 0, 0))
            }
            other => panic!("expected InjectedFault, got {other}"),
        }
        assert!(err.to_string().contains("kill block r0 tb0 step0"));
    }

    #[test]
    fn injected_drop_wedges_into_stuck_naming_the_fault() {
        let ir = ring(4, 1, 1);
        let err = simulate(&ir, &faulted("drop conn 0->1 ch 0 seq 0"), 1 << 20).unwrap_err();
        match &err {
            SimError::Stuck { fired_faults, .. } => {
                assert_eq!(fired_faults, &["drop conn 0->1 ch 0 seq 0".to_string()]);
            }
            other => panic!("expected Stuck, got {other}"),
        }
        assert!(err.to_string().contains("injected fault struck"));
    }

    #[test]
    fn benign_faults_only_shift_timing() {
        let ir = ring(4, 1, 1);
        let clean = simulate(&ir, &ndv4_config(), 1 << 20).unwrap();
        for plan in [
            "spike link 0->1 x5000",
            "delay conn 0->1 ch 0 seq 0 us 500",
            "stall block r0 tb0 step0 us 500",
        ] {
            let hurt = simulate(&ir, &faulted(plan), 1 << 20).unwrap();
            assert_eq!(
                hurt.instructions, clean.instructions,
                "{plan} changed the work done"
            );
            assert!(
                hurt.total_us >= clean.total_us,
                "{plan} sped the run up: {} < {}",
                hurt.total_us,
                clean.total_us
            );
        }
        // A duplicated delivery still completes the same program — its
        // timing may shift either way (the spurious tile can unblock the
        // receiver early), which is exactly why only output verification
        // in the threaded runtime can catch it.
        let dup = simulate(&ir, &faulted("dup conn 0->1 ch 0 seq 0"), 1 << 20).unwrap();
        assert_eq!(dup.instructions, clean.instructions);
        // Deterministic: the same faulted run twice gives identical times.
        let a = simulate(&ir, &faulted("delay conn 0->1 ch 0 seq 0 us 500"), 1 << 20).unwrap();
        let b = simulate(&ir, &faulted("delay conn 0->1 ch 0 seq 0 us 500"), 1 << 20).unwrap();
        assert_eq!(a.total_us, b.total_us);
    }

    #[test]
    fn fault_plan_is_validated_against_the_program() {
        let ir = ring(4, 1, 1);
        let err = simulate(&ir, &faulted("kill block r99 tb0 step0"), 1 << 20).unwrap_err();
        match &err {
            SimError::BadFaultPlan { message } => {
                assert!(message.contains("targets a rank"), "got: {message}");
            }
            other => panic!("expected BadFaultPlan, got {other}"),
        }
    }

    /// The backend selectors override [`SimConfig::parallel`] and agree
    /// bit for bit — the structural core of the differential tier.
    #[test]
    fn backends_agree_bit_for_bit() {
        let p = msccl_algos::hierarchical_all_reduce(2, 2).unwrap();
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let cfg = SimConfig::new(Machine::ndv4(2))
            .with_trace(true)
            .with_timeline(true);
        let serial = SerialBackend.simulate(&ir, &cfg, 1 << 20).unwrap();
        for threads in [1, 2, 4, 8] {
            let par = ParallelBackend { threads }
                .simulate(&ir, &cfg, 1 << 20)
                .unwrap();
            assert_eq!(serial, par, "threads={threads} diverged from serial");
        }
    }
}
