//! Simulation configuration and errors.

use std::fmt;

use msccl_faults::FaultPlan;
use msccl_topology::{Machine, Protocol};

/// Configuration of one simulation: the machine, the protocol and a few
/// model knobs.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The cluster model.
    pub machine: Machine,
    /// Communication protocol; falls back to the IR's protocol hint and
    /// then to `Simple` when `None`.
    pub protocol: Option<Protocol>,
    /// FIFO slots per connection; defaults to the protocol's slot count.
    pub slots: Option<usize>,
    /// Cap on the number of tiles a chunk splits into. Real chunks can
    /// split into thousands of slot-sized tiles at gigabyte scale; beyond
    /// a few dozen tiles the pipeline is saturated and simulating each
    /// tile individually only costs time, so larger chunks use
    /// proportionally larger tiles. Set to `usize::MAX` for exact tiling.
    pub max_tiles: usize,
    /// Per-instruction decode overhead in microseconds.
    pub instr_overhead_us: f64,
    /// Per-thread-block setup cost added to the kernel launch, in
    /// microseconds: a cooperative launch must bring up every thread block
    /// and its connections, so heavily parallelized programs pay more to
    /// start (§7.4: "less parallelization provides better performance [at
    /// small sizes], as the benefit ... doesn't offset the cost of
    /// initializing extra resources").
    pub tb_setup_us: f64,
    /// Whether to charge the cooperative kernel launch cost.
    pub include_launch: bool,
    /// Record a per-thread-block activity timeline in the report (adds
    /// memory proportional to the instruction count × tiles).
    pub record_timeline: bool,
    /// Record a structured virtual-time [`msccl_trace::Trace`] in the
    /// report: the same event vocabulary the threaded runtime emits, with
    /// timestamps from the discrete-event clock.
    pub record_trace: bool,
    /// Per-message processing occupancy of an InfiniBand NIC's DMA engine
    /// (µs): each RDMA message holds the engine for its serialization time
    /// *plus* this overhead, which is what makes many small IB messages
    /// expensive (§7.3's motivation for aggregated sends).
    pub nic_msg_overhead_us: f64,
    /// Overrides the protocol's per-tile sender overhead (µs); used to
    /// model non-NCCL runtimes such as SCCL's point-to-point protocol.
    pub tile_overhead_us: Option<f64>,
    /// Model SCCL's direct-copy point-to-point protocol (§7.5): senders
    /// write straight into the destination buffer, so receivers pay no
    /// copy-out of an intermediate FIFO slot.
    pub direct_copy: bool,
    /// Deterministic faults to inject into the simulated execution.
    /// Timing-visible kinds (drop, delay, duplicate, stall, link spike)
    /// perturb or wedge the virtual timeline; payload kinds (corrupt)
    /// are timing no-ops here since the simulator moves no data — use the
    /// threaded runtime to observe them.
    pub fault_plan: Option<FaultPlan>,
    /// Workers for the round loop, the calling thread included; `None`
    /// (or `Some(1)`) selects the serial oracle. The parallel engine shards the event
    /// loop by node under conservative lookahead synchronization and is
    /// **bit-identical** to serial for every program, seed and thread
    /// count (see `docs/simulator.md` for the determinism contract). A
    /// machine whose cross-node links have zero latency offers no
    /// lookahead, and the engine silently falls back to serial.
    pub parallel: Option<usize>,
}

impl SimConfig {
    /// A configuration for `machine` with default knobs.
    #[must_use]
    pub fn new(machine: Machine) -> Self {
        Self {
            machine,
            protocol: None,
            slots: None,
            max_tiles: 32,
            instr_overhead_us: 0.5,
            tb_setup_us: 0.35,
            include_launch: true,
            nic_msg_overhead_us: 2.0,
            record_timeline: false,
            record_trace: false,
            tile_overhead_us: None,
            direct_copy: false,
            fault_plan: None,
            parallel: None,
        }
    }

    /// Sets the protocol.
    #[must_use]
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = Some(protocol);
        self
    }

    /// Sets the FIFO slot count.
    #[must_use]
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = Some(slots);
        self
    }

    /// Sets the tile cap (see [`SimConfig::max_tiles`]).
    #[must_use]
    pub fn with_max_tiles(mut self, max_tiles: usize) -> Self {
        self.max_tiles = max_tiles;
        self
    }

    /// Includes or excludes the kernel launch cost.
    #[must_use]
    pub fn with_launch(mut self, include: bool) -> Self {
        self.include_launch = include;
        self
    }

    /// Enables the direct-copy point-to-point model (see
    /// [`SimConfig::direct_copy`]).
    #[must_use]
    pub fn with_direct_copy(mut self, direct: bool) -> Self {
        self.direct_copy = direct;
        self
    }

    /// Enables timeline recording (see [`SimConfig::record_timeline`]).
    #[must_use]
    pub fn with_timeline(mut self, record: bool) -> Self {
        self.record_timeline = record;
        self
    }

    /// Enables structured trace recording (see
    /// [`SimConfig::record_trace`]).
    #[must_use]
    pub fn with_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Injects a deterministic fault plan (see [`SimConfig::fault_plan`]).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Selects the parallel engine with `threads` workers (see
    /// [`SimConfig::parallel`]).
    #[must_use]
    pub fn with_parallel(mut self, threads: usize) -> Self {
        self.parallel = Some(threads);
        self
    }
}

/// Errors from the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The IR references more ranks than the machine has GPUs.
    RankMismatch {
        /// Ranks in the program.
        program: usize,
        /// GPUs in the machine.
        machine: usize,
    },
    /// A transfer between two ranks with no connecting link (possible on
    /// switchless machines like DGX-1).
    UnreachablePair {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
    },
    /// The program needs more thread blocks on a GPU than it has SMs; a
    /// cooperative launch cannot schedule it (§6.2).
    TooManyThreadBlocks {
        /// The over-subscribed rank.
        rank: usize,
        /// Thread blocks required.
        required: usize,
        /// SMs available.
        sms: usize,
    },
    /// The simulation made no progress (deadlock in hand-written IR, or
    /// an injected drop starving a receiver).
    Stuck {
        /// Simulated time at which progress stopped.
        at_us: f64_bits,
        /// Injected faults that struck before the wedge (fault-plan
        /// syntax), empty when none were configured.
        fired_faults: Vec<String>,
    },
    /// An injected fault killed a simulated thread block.
    InjectedFault {
        /// Rank of the killed thread block.
        rank: usize,
        /// Thread block id.
        tb: usize,
        /// Step at which the fault struck.
        step: usize,
        /// The fault, rendered in fault-plan syntax.
        fault: String,
        /// Simulated time of the kill.
        at_us: f64_bits,
    },
    /// The configured fault plan does not fit the program.
    BadFaultPlan {
        /// The underlying [`msccl_faults::FaultPlanError`], rendered.
        message: String,
    },
    /// Invalid configuration.
    BadConfig {
        /// What was wrong.
        message: String,
    },
    /// The program cannot be lowered ([`mscclang::lower::Lowered::new`]).
    InvalidProgram {
        /// The lowering's message.
        message: String,
    },
}

/// Bit-exact wrapper so [`SimError`] can stay `Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(non_camel_case_types)]
pub struct f64_bits(pub u64);

impl f64_bits {
    /// Wraps a float.
    #[must_use]
    pub fn from_f64(v: f64) -> Self {
        Self(v.to_bits())
    }

    /// Unwraps to a float.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        f64::from_bits(self.0)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RankMismatch { program, machine } => {
                write!(
                    f,
                    "program has {program} ranks but machine has {machine} GPUs"
                )
            }
            SimError::UnreachablePair { src, dst } => {
                write!(
                    f,
                    "no link connects rank {src} to rank {dst} on this machine"
                )
            }
            SimError::TooManyThreadBlocks {
                rank,
                required,
                sms,
            } => {
                write!(
                    f,
                    "rank {rank} needs {required} thread blocks but the GPU has {sms} SMs"
                )
            }
            SimError::Stuck {
                at_us,
                fired_faults,
            } => {
                write!(f, "simulation stuck at {:.3} us (deadlock)", at_us.as_f64())?;
                for fault in fired_faults {
                    write!(f, "\n  injected fault struck: {fault}")?;
                }
                Ok(())
            }
            SimError::InjectedFault {
                rank,
                tb,
                step,
                fault,
                at_us,
            } => {
                write!(
                    f,
                    "injected fault killed rank {rank} tb {tb} step {step} at {:.3} us: {fault}",
                    at_us.as_f64()
                )
            }
            SimError::BadFaultPlan { message } => write!(f, "bad fault plan: {message}"),
            SimError::BadConfig { message } => write!(f, "bad configuration: {message}"),
            SimError::InvalidProgram { message } => write!(f, "invalid program: {message}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use msccl_topology::Machine;

    #[test]
    fn builder_chains() {
        let c = SimConfig::new(Machine::ndv4(1))
            .with_protocol(Protocol::Ll)
            .with_slots(4)
            .with_max_tiles(8)
            .with_launch(false);
        assert_eq!(c.protocol, Some(Protocol::Ll));
        assert_eq!(c.slots, Some(4));
        assert_eq!(c.max_tiles, 8);
        assert!(!c.include_launch);
    }

    #[test]
    fn error_display() {
        let e = SimError::UnreachablePair { src: 0, dst: 5 };
        assert!(e.to_string().contains("rank 0"));
        let s = SimError::Stuck {
            at_us: f64_bits::from_f64(1.5),
            fired_faults: vec!["drop conn 0->1 ch 0 seq 3".into()],
        };
        assert!(s.to_string().contains("1.500"));
        assert!(s.to_string().contains("drop conn 0->1 ch 0 seq 3"));
    }
}
