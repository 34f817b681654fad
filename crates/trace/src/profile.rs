//! Per-step performance attribution: where did the time go, and does the
//! measurement match the α–β cost model?
//!
//! [`ProfileReport::from_traces`] folds one *measured* trace (wall-clock
//! runtime or virtual-time simulator) and optionally one *modeled* trace
//! (always the simulator replaying the same IR) into a per-thread-block /
//! per-channel / per-instruction-kind breakdown — compute vs. send vs.
//! sync-wait vs. FIFO-block — plus each block's share of the critical
//! path.
//!
//! The measured-vs-modeled column needs care: wall-clock and virtual
//! microseconds are not absolutely comparable (the simulator's α–β
//! parameters describe a datacenter NIC, not this machine's memcpy), so
//! steps are compared on *normalized shares* — each step's busy time as a
//! fraction of the run's total busy time. A step is flagged when its
//! measured share diverges from its modeled share by more than the
//! threshold (relative to the modeled share) — i.e. the step consumes a
//! very different fraction of the run than the α–β model predicts, which
//! is exactly the signal schedule tuning needs. Steps below
//! [`MIN_SHARE`] of total busy time in both domains are never flagged;
//! at that size the shares are dominated by timer noise.
//!
//! [`snapshot_from_trace`] derives the same logical counters the live
//! registry would have recorded (bytes/sends/receives per channel, wait
//! and block time, latency histograms) from a recorded trace, so offline
//! analysis exports the identical JSON/Prometheus schema.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use msccl_metrics::{names, MetricsSnapshot, Registry};
use mscclang::OpCode;

use crate::event::EventKind;
use crate::Trace;

/// Steps whose busy share is below this in both domains are never
/// flagged: at well under 1% of the run, shares measure timer noise.
pub const MIN_SHARE: f64 = 0.005;

/// An instruction instance `(rank, tb, step, tile)`.
type InstrKey = (usize, usize, usize, usize);

/// How one thread block's time is attributed.
#[derive(Debug, Clone, PartialEq)]
pub struct TbProfile {
    /// Rank owning the thread block.
    pub rank: usize,
    /// Thread block id within the rank.
    pub tb: usize,
    /// Instructions completed (across all tiles).
    pub instructions: usize,
    /// Busy time in non-sending instructions (receive/copy/reduce), µs.
    pub compute_us: f64,
    /// Busy time in sending instructions, µs.
    pub send_us: f64,
    /// Time blocked on cross-thread-block semaphores, µs.
    pub sem_wait_us: f64,
    /// Time blocked on full send FIFOs or empty receive FIFOs, µs.
    pub fifo_blocked_us: f64,
    /// Busy time of this block's instructions on the critical path, µs.
    pub critical_us: f64,
    /// `critical_us` as a fraction of the whole critical path.
    pub critical_share: f64,
}

/// Logical traffic over one `(src, dst, channel)` connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelProfile {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Channel id.
    pub channel: usize,
    /// Tiles deposited.
    pub sends: u64,
    /// Tiles consumed.
    pub recvs: u64,
    /// Payload bytes carried.
    pub bytes: u64,
    /// Peak number of unconsumed tiles in the FIFO.
    pub peak_occupancy: usize,
}

/// Latency aggregate for one instruction kind.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// Opcode mnemonic.
    pub op: String,
    /// Instructions completed.
    pub count: u64,
    /// Total busy time, µs.
    pub total_us: f64,
    /// Mean busy time per instruction, µs.
    pub mean_us: f64,
    /// Largest single busy time, µs.
    pub max_us: f64,
}

/// One `(rank, tb, step)` with its measured-vs-modeled comparison
/// (summed over tile iterations, so the comparison is insensitive to the
/// two executors tiling differently).
#[derive(Debug, Clone, PartialEq)]
pub struct StepProfile {
    /// Rank owning the step.
    pub rank: usize,
    /// Thread block id within the rank.
    pub tb: usize,
    /// Step index within the thread block.
    pub step: usize,
    /// Opcode mnemonic.
    pub op: String,
    /// Measured busy time, µs (in the measured trace's clock domain).
    pub measured_us: f64,
    /// Measured busy time as a fraction of total measured busy time.
    pub measured_share: f64,
    /// Modeled busy time, virtual µs (absent without a modeled trace or
    /// when the model never ran this step).
    pub modeled_us: Option<f64>,
    /// Modeled busy share of total modeled busy time.
    pub modeled_share: Option<f64>,
    /// `|measured_share - modeled_share| / max(modeled_share, ε)`.
    pub divergence: Option<f64>,
    /// Whether the divergence exceeds the report's threshold (and the
    /// step is large enough for shares to be meaningful).
    pub flagged: bool,
}

/// The full attribution report emitted by `msccl profile`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Clock domain of the measured trace (`"wall"` or `"virtual"`).
    pub domain: String,
    /// Clock domain of the modeled trace, when one was supplied.
    pub modeled_domain: Option<String>,
    /// Measured time between first and last event, µs.
    pub span_us: f64,
    /// Total measured busy time across all thread blocks, µs.
    pub busy_us: f64,
    /// Measured critical-path length, µs.
    pub critical_path_us: f64,
    /// Relative-share divergence above which a step is flagged.
    pub divergence_threshold: f64,
    /// Number of flagged steps.
    pub flagged_steps: usize,
    /// Per-thread-block attribution, sorted by `(rank, tb)`.
    pub thread_blocks: Vec<TbProfile>,
    /// Per-connection logical counters, sorted by `(src, dst, channel)`.
    pub channels: Vec<ChannelProfile>,
    /// Per-instruction-kind latency aggregates, sorted by mnemonic.
    pub ops: Vec<OpProfile>,
    /// Per-step measured-vs-modeled comparison, sorted by
    /// `(rank, tb, step)`.
    pub steps: Vec<StepProfile>,
}

/// Per-instruction busy time: span minus FIFO-blocked time within the
/// span (semaphore waits happen between instructions and never overlap).
/// Ordered by key, so every sum over it adds in the same order each run.
fn instr_busy(trace: &Trace) -> BTreeMap<InstrKey, (OpCode, f64)> {
    let mut open: HashMap<(usize, usize), (InstrKey, OpCode, f64, f64)> = HashMap::new();
    let mut open_block: HashMap<(usize, usize), f64> = HashMap::new();
    let mut out = BTreeMap::new();
    for e in trace.events() {
        let tbkey = (e.rank, e.tb);
        match e.kind {
            EventKind::InstrBegin { step, tile, op } => {
                open.insert(tbkey, ((e.rank, e.tb, step, tile), op, e.ts_us, 0.0));
            }
            EventKind::InstrEnd { step, tile, .. } => {
                if let Some((key, op, begin, blocked)) = open.remove(&tbkey) {
                    if key == (e.rank, e.tb, step, tile) {
                        out.insert(key, (op, (e.ts_us - begin - blocked).max(0.0)));
                    }
                }
            }
            EventKind::SendBlock { .. } | EventKind::RecvBlock { .. } => {
                open_block.insert(tbkey, e.ts_us);
            }
            EventKind::SendResume { .. } | EventKind::RecvResume { .. } => {
                if let Some(t0) = open_block.remove(&tbkey) {
                    if let Some(o) = open.get_mut(&tbkey) {
                        o.3 += e.ts_us - t0;
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Per-`(rank, tb, step)` busy time summed over tiles, with the opcode.
fn step_busy(
    busy: &BTreeMap<InstrKey, (OpCode, f64)>,
) -> BTreeMap<(usize, usize, usize), (OpCode, f64)> {
    let mut out: BTreeMap<(usize, usize, usize), (OpCode, f64)> = BTreeMap::new();
    for (&(rank, tb, step, _tile), &(op, us)) in busy {
        let entry = out.entry((rank, tb, step)).or_insert((op, 0.0));
        entry.1 += us;
    }
    out
}

impl ProfileReport {
    /// Builds the attribution report from a measured trace and an
    /// optional modeled trace (the simulator replaying the same IR).
    /// `threshold` is the relative share divergence above which a step is
    /// flagged (e.g. `0.5` = the measured share is more than 50% away
    /// from the modeled share).
    #[must_use]
    pub fn from_traces(measured: &Trace, modeled: Option<&Trace>, threshold: f64) -> Self {
        let summary = measured.summary();
        let busy = instr_busy(measured);
        let total_busy: f64 = busy.values().map(|&(_, us)| us).sum();

        // Critical-path busy time per thread block.
        let mut critical_by_tb: HashMap<(usize, usize), f64> = HashMap::new();
        for key in &summary.critical_nodes {
            if let Some(&(_, us)) = busy.get(key) {
                *critical_by_tb.entry((key.0, key.1)).or_default() += us;
            }
        }

        // Per-thread-block compute/send split.
        let mut split: HashMap<(usize, usize), (f64, f64)> = HashMap::new();
        for (&(rank, tb, _, _), &(op, us)) in &busy {
            let entry = split.entry((rank, tb)).or_default();
            if op.has_send() {
                entry.1 += us;
            } else {
                entry.0 += us;
            }
        }
        let thread_blocks: Vec<TbProfile> = summary
            .per_tb
            .iter()
            .map(|b| {
                let (compute_us, send_us) = split.get(&(b.rank, b.tb)).copied().unwrap_or_default();
                let critical_us = critical_by_tb.get(&(b.rank, b.tb)).copied().unwrap_or(0.0);
                TbProfile {
                    rank: b.rank,
                    tb: b.tb,
                    instructions: b.instructions,
                    compute_us,
                    send_us,
                    sem_wait_us: b.sem_wait_us,
                    fifo_blocked_us: b.fifo_blocked_us,
                    critical_us,
                    critical_share: if summary.critical_path_us > 0.0 {
                        critical_us / summary.critical_path_us
                    } else {
                        0.0
                    },
                }
            })
            .collect();

        // Receive counts per connection (sends/bytes come from summary).
        let mut recvs: HashMap<(usize, usize, usize), u64> = HashMap::new();
        for e in measured.events() {
            if let EventKind::Recv { src, channel, .. } = e.kind {
                *recvs.entry((src, e.rank, channel)).or_default() += 1;
            }
        }
        let channels: Vec<ChannelProfile> = summary
            .per_connection
            .iter()
            .map(|c| ChannelProfile {
                src: c.src,
                dst: c.dst,
                channel: c.channel,
                sends: c.messages,
                recvs: recvs.get(&(c.src, c.dst, c.channel)).copied().unwrap_or(0),
                bytes: c.bytes,
                peak_occupancy: c.peak_occupancy,
            })
            .collect();

        // Per-opcode latency aggregates.
        let mut by_op: HashMap<&'static str, (u64, f64, f64)> = HashMap::new();
        for &(op, us) in busy.values() {
            let entry = by_op.entry(op.mnemonic()).or_default();
            entry.0 += 1;
            entry.1 += us;
            entry.2 = entry.2.max(us);
        }
        let mut ops: Vec<OpProfile> = by_op
            .into_iter()
            .map(|(op, (count, total_us, max_us))| OpProfile {
                op: op.to_string(),
                count,
                total_us,
                mean_us: total_us / count as f64,
                max_us,
            })
            .collect();
        ops.sort_by(|a, b| a.op.cmp(&b.op));

        // Measured-vs-modeled per step, on normalized busy shares.
        let measured_steps = step_busy(&busy);
        let modeled_steps = modeled.map(|t| {
            let busy = instr_busy(t);
            let total: f64 = busy.values().map(|&(_, us)| us).sum();
            (step_busy(&busy), total)
        });
        let mut steps: Vec<StepProfile> = measured_steps
            .iter()
            .map(|(&(rank, tb, step), &(op, us))| {
                let measured_share = if total_busy > 0.0 {
                    us / total_busy
                } else {
                    0.0
                };
                let modeled = modeled_steps.as_ref().and_then(|(steps, total)| {
                    steps.get(&(rank, tb, step)).map(|&(_, m_us)| {
                        let share = if *total > 0.0 { m_us / total } else { 0.0 };
                        (m_us, share)
                    })
                });
                let divergence =
                    modeled.map(|(_, share)| (measured_share - share).abs() / share.max(1e-9));
                let flagged = matches!(
                    (divergence, modeled),
                    (Some(d), Some((_, m_share)))
                        if d > threshold && (measured_share >= MIN_SHARE || m_share >= MIN_SHARE)
                );
                StepProfile {
                    rank,
                    tb,
                    step,
                    op: op.mnemonic().to_string(),
                    measured_us: us,
                    measured_share,
                    modeled_us: modeled.map(|(us, _)| us),
                    modeled_share: modeled.map(|(_, s)| s),
                    divergence,
                    flagged,
                }
            })
            .collect();
        steps.sort_by_key(|s| (s.rank, s.tb, s.step));
        let flagged_steps = steps.iter().filter(|s| s.flagged).count();

        ProfileReport {
            domain: measured.domain().label().to_string(),
            modeled_domain: modeled.map(|t| t.domain().label().to_string()),
            span_us: summary.span_us,
            busy_us: total_busy,
            critical_path_us: summary.critical_path_us,
            divergence_threshold: threshold,
            flagged_steps,
            thread_blocks,
            channels,
            ops,
            steps,
        }
    }

    /// Deterministic JSON rendering (schema `msccl-profile-v1`): stable
    /// field order, three-decimal microseconds, six-decimal shares.
    #[must_use]
    pub fn to_json(&self) -> String {
        let us = |v: f64| format!("{v:.3}");
        let share = |v: f64| format!("{v:.6}");
        let opt_us = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.3}"));
        let opt_share = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.6}"));
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"msccl-profile-v1\",");
        let _ = writeln!(s, "  \"domain\": \"{}\",", self.domain);
        let _ = writeln!(
            s,
            "  \"modeled_domain\": {},",
            self.modeled_domain
                .as_ref()
                .map_or("null".to_string(), |d| format!("\"{d}\""))
        );
        let _ = writeln!(s, "  \"span_us\": {},", us(self.span_us));
        let _ = writeln!(s, "  \"busy_us\": {},", us(self.busy_us));
        let _ = writeln!(s, "  \"critical_path_us\": {},", us(self.critical_path_us));
        let _ = writeln!(
            s,
            "  \"divergence_threshold\": {},",
            share(self.divergence_threshold)
        );
        let _ = writeln!(s, "  \"flagged_steps\": {},", self.flagged_steps);
        let _ = writeln!(s, "  \"thread_blocks\": [");
        for (i, b) in self.thread_blocks.iter().enumerate() {
            let comma = if i + 1 == self.thread_blocks.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                s,
                "    {{\"rank\": {}, \"tb\": {}, \"instructions\": {}, \"compute_us\": {}, \
                 \"send_us\": {}, \"sem_wait_us\": {}, \"fifo_blocked_us\": {}, \
                 \"critical_us\": {}, \"critical_share\": {}}}{comma}",
                b.rank,
                b.tb,
                b.instructions,
                us(b.compute_us),
                us(b.send_us),
                us(b.sem_wait_us),
                us(b.fifo_blocked_us),
                us(b.critical_us),
                share(b.critical_share),
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"channels\": [");
        for (i, c) in self.channels.iter().enumerate() {
            let comma = if i + 1 == self.channels.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                s,
                "    {{\"src\": {}, \"dst\": {}, \"channel\": {}, \"sends\": {}, \
                 \"recvs\": {}, \"bytes\": {}, \"peak_occupancy\": {}}}{comma}",
                c.src, c.dst, c.channel, c.sends, c.recvs, c.bytes, c.peak_occupancy,
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"ops\": [");
        for (i, o) in self.ops.iter().enumerate() {
            let comma = if i + 1 == self.ops.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"op\": \"{}\", \"count\": {}, \"total_us\": {}, \"mean_us\": {}, \
                 \"max_us\": {}}}{comma}",
                o.op,
                o.count,
                us(o.total_us),
                us(o.mean_us),
                us(o.max_us),
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"steps\": [");
        for (i, p) in self.steps.iter().enumerate() {
            let comma = if i + 1 == self.steps.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"rank\": {}, \"tb\": {}, \"step\": {}, \"op\": \"{}\", \
                 \"measured_us\": {}, \"measured_share\": {}, \"modeled_us\": {}, \
                 \"modeled_share\": {}, \"divergence\": {}, \"flagged\": {}}}{comma}",
                p.rank,
                p.tb,
                p.step,
                p.op,
                us(p.measured_us),
                share(p.measured_share),
                opt_us(p.modeled_us),
                opt_share(p.modeled_share),
                opt_share(p.divergence),
                p.flagged,
            );
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }

    /// Human-readable rendering for the terminal. Shows the breakdown
    /// tables and only the flagged rows of the step comparison.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "domain={}  span={:.1}µs  busy={:.1}µs  critical path={:.1}µs ({:.0}% of span)",
            self.domain,
            self.span_us,
            self.busy_us,
            self.critical_path_us,
            if self.span_us > 0.0 {
                100.0 * self.critical_path_us / self.span_us
            } else {
                0.0
            },
        );
        match &self.modeled_domain {
            Some(d) => {
                let _ = writeln!(
                    s,
                    "measured vs modeled ({d}): {} of {} steps diverge more than {:.0}% \
                     in normalized busy share",
                    self.flagged_steps,
                    self.steps.len(),
                    self.divergence_threshold * 100.0,
                );
            }
            None => {
                let _ = writeln!(s, "no modeled trace: measured-vs-modeled column omitted");
            }
        }
        let _ = writeln!(s, "\nper thread block:");
        let _ = writeln!(
            s,
            "{:>4} {:>3} {:>6} {:>11} {:>9} {:>12} {:>12} {:>9} {:>6}",
            "rank",
            "tb",
            "instr",
            "compute_us",
            "send_us",
            "sem_wait_us",
            "fifo_blk_us",
            "crit_us",
            "crit%"
        );
        for b in &self.thread_blocks {
            let _ = writeln!(
                s,
                "{:>4} {:>3} {:>6} {:>11.1} {:>9.1} {:>12.1} {:>12.1} {:>9.1} {:>6.1}",
                b.rank,
                b.tb,
                b.instructions,
                b.compute_us,
                b.send_us,
                b.sem_wait_us,
                b.fifo_blocked_us,
                b.critical_us,
                b.critical_share * 100.0,
            );
        }
        let _ = writeln!(s, "\nper channel:");
        let _ = writeln!(
            s,
            "{:>4} {:>4} {:>3} {:>6} {:>6} {:>12} {:>5}",
            "src", "dst", "ch", "sends", "recvs", "bytes", "peak"
        );
        for c in &self.channels {
            let _ = writeln!(
                s,
                "{:>4} {:>4} {:>3} {:>6} {:>6} {:>12} {:>5}",
                c.src, c.dst, c.channel, c.sends, c.recvs, c.bytes, c.peak_occupancy,
            );
        }
        let _ = writeln!(s, "\nper instruction kind:");
        let _ = writeln!(
            s,
            "{:>5} {:>7} {:>10} {:>9} {:>9}",
            "op", "count", "total_us", "mean_us", "max_us"
        );
        for o in &self.ops {
            let _ = writeln!(
                s,
                "{:>5} {:>7} {:>10.1} {:>9.3} {:>9.3}",
                o.op, o.count, o.total_us, o.mean_us, o.max_us,
            );
        }
        if self.modeled_domain.is_some() {
            let _ = writeln!(
                s,
                "\ndivergent steps (threshold {:.0}%):",
                self.divergence_threshold * 100.0
            );
            if self.flagged_steps == 0 {
                let _ = writeln!(s, "  (none)");
            } else {
                let _ = writeln!(
                    s,
                    "{:>4} {:>3} {:>4} {:>5} {:>11} {:>7} {:>10} {:>7} {:>7}",
                    "rank",
                    "tb",
                    "step",
                    "op",
                    "measured_us",
                    "share%",
                    "modeled_us",
                    "share%",
                    "diff"
                );
                for p in self.steps.iter().filter(|p| p.flagged) {
                    let _ = writeln!(
                        s,
                        "{:>4} {:>3} {:>4} {:>5} {:>11.2} {:>7.2} {:>10.2} {:>7.2} {:>6.0}%",
                        p.rank,
                        p.tb,
                        p.step,
                        p.op,
                        p.measured_us,
                        p.measured_share * 100.0,
                        p.modeled_us.unwrap_or(0.0),
                        p.modeled_share.unwrap_or(0.0) * 100.0,
                        p.divergence.unwrap_or(0.0) * 100.0,
                    );
                }
            }
        }
        s
    }
}

/// Derives the logical metric counters a live registry would have
/// recorded from a recorded trace: per-channel bytes/sends/receives and
/// peak occupancy, semaphore and FIFO block time, per-opcode latency
/// histograms, pool and recovery counters. Time-valued metrics convert
/// the trace's microseconds to integer nanoseconds.
#[must_use]
pub fn snapshot_from_trace(trace: &Trace) -> MetricsSnapshot {
    let registry = Registry::new(1);
    let ns = |us: f64| (us * 1000.0).round().max(0.0) as u64;
    for (&(_, _, _, _), &(op, busy_us)) in &instr_busy(trace) {
        registry
            .histogram(names::INSTR_LATENCY_NS, &[("op", op.mnemonic())])
            .record(0, ns(busy_us));
        registry
            .counter(names::INSTRUCTIONS, &[("op", op.mnemonic())])
            .inc(0);
    }
    let mut open_sem: HashMap<(usize, usize), f64> = HashMap::new();
    let mut open_block: HashMap<(usize, usize), (bool, f64)> = HashMap::new();
    for e in trace.events() {
        let tbkey = (e.rank, e.tb);
        match e.kind {
            EventKind::Send {
                dst,
                channel,
                bytes,
                ..
            } => {
                let labels = [
                    ("src", e.rank.to_string()),
                    ("dst", dst.to_string()),
                    ("channel", channel.to_string()),
                ];
                let labels: Vec<(&str, &str)> =
                    labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
                registry.counter(names::BYTES_SENT, &labels).add(0, bytes);
                registry.counter(names::SENDS, &labels).inc(0);
            }
            EventKind::Recv {
                src,
                channel,
                bytes,
                ..
            } => {
                let labels = [
                    ("src", src.to_string()),
                    ("dst", e.rank.to_string()),
                    ("channel", channel.to_string()),
                ];
                let labels: Vec<(&str, &str)> =
                    labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
                registry
                    .counter(names::BYTES_RECEIVED, &labels)
                    .add(0, bytes);
                registry.counter(names::RECVS, &labels).inc(0);
            }
            EventKind::SemWaitEnter { .. } => {
                open_sem.insert(tbkey, e.ts_us);
            }
            EventKind::SemWaitExit { .. } => {
                if let Some(t0) = open_sem.remove(&tbkey) {
                    registry
                        .counter(names::SEM_WAIT_NS, &[])
                        .add(0, ns(e.ts_us - t0));
                }
            }
            EventKind::SendBlock { .. } => {
                open_block.insert(tbkey, (true, e.ts_us));
            }
            EventKind::RecvBlock { .. } => {
                open_block.insert(tbkey, (false, e.ts_us));
            }
            EventKind::SendResume { .. } | EventKind::RecvResume { .. } => {
                if let Some((is_send, t0)) = open_block.remove(&tbkey) {
                    let name = if is_send {
                        names::FIFO_SEND_BLOCK_NS
                    } else {
                        names::FIFO_RECV_BLOCK_NS
                    };
                    registry.counter(name, &[]).add(0, ns(e.ts_us - t0));
                }
            }
            EventKind::PoolStats { allocated, reused } => {
                registry
                    .counter(names::POOL_ALLOCATED, &[])
                    .add(0, allocated);
                registry.counter(names::POOL_REUSED, &[]).add(0, reused);
            }
            EventKind::Recovery { decision, .. } => {
                registry.counter(names::RECOVERY_ATTEMPTS, &[]).inc(0);
                match decision {
                    crate::event::RecoveryDecision::Retry => {
                        registry.counter(names::RECOVERY_RETRIES, &[]).inc(0);
                    }
                    crate::event::RecoveryDecision::Fallback => {
                        registry.counter(names::RECOVERY_FALLBACKS, &[]).inc(0);
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    for c in trace.summary().per_connection {
        let labels = [
            ("src", c.src.to_string()),
            ("dst", c.dst.to_string()),
            ("channel", c.channel.to_string()),
        ];
        let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        registry
            .gauge(names::FIFO_PEAK_OCCUPANCY, &labels)
            .set_max(c.peak_occupancy as u64);
    }
    registry.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClockDomain, TraceEvent};

    fn ev(ts: f64, rank: usize, tb: usize, kind: EventKind) -> TraceEvent {
        TraceEvent {
            ts_us: ts,
            rank,
            tb,
            kind,
        }
    }

    fn instr(ts: f64, rank: usize, tb: usize, step: usize, op: OpCode, end: bool) -> TraceEvent {
        ev(
            ts,
            rank,
            tb,
            if end {
                EventKind::InstrEnd { step, tile: 0, op }
            } else {
                EventKind::InstrBegin { step, tile: 0, op }
            },
        )
    }

    /// rank 0 sends 2µs (step 0), rank 1 receives 4µs (step 0): compute
    /// vs send split, channel counters and step table all line up.
    fn measured() -> Trace {
        Trace::from_buffers(
            ClockDomain::Wall,
            vec![
                vec![
                    instr(0.0, 0, 0, 0, OpCode::Send, false),
                    ev(
                        1.0,
                        0,
                        0,
                        EventKind::Send {
                            dst: 1,
                            channel: 0,
                            seq: 0,
                            bytes: 256,
                        },
                    ),
                    instr(2.0, 0, 0, 0, OpCode::Send, true),
                ],
                vec![
                    instr(0.5, 1, 0, 0, OpCode::Recv, false),
                    ev(
                        1.5,
                        1,
                        0,
                        EventKind::Recv {
                            src: 0,
                            channel: 0,
                            seq: 0,
                            bytes: 256,
                        },
                    ),
                    instr(4.5, 1, 0, 0, OpCode::Recv, true),
                ],
            ],
        )
    }

    /// A model of the same two steps where the send dominates instead:
    /// shares flip, so both steps diverge hard.
    fn modeled() -> Trace {
        Trace::from_buffers(
            ClockDomain::Virtual,
            vec![
                vec![
                    instr(0.0, 0, 0, 0, OpCode::Send, false),
                    ev(
                        4.0,
                        0,
                        0,
                        EventKind::Send {
                            dst: 1,
                            channel: 0,
                            seq: 0,
                            bytes: 256,
                        },
                    ),
                    instr(5.0, 0, 0, 0, OpCode::Send, true),
                ],
                vec![
                    instr(5.0, 1, 0, 0, OpCode::Recv, false),
                    ev(
                        5.0,
                        1,
                        0,
                        EventKind::Recv {
                            src: 0,
                            channel: 0,
                            seq: 0,
                            bytes: 256,
                        },
                    ),
                    instr(6.0, 1, 0, 0, OpCode::Recv, true),
                ],
            ],
        )
    }

    #[test]
    fn attribution_tables_line_up() {
        let report = ProfileReport::from_traces(&measured(), None, 0.5);
        assert_eq!(report.domain, "wall");
        assert_eq!(report.modeled_domain, None);
        assert_eq!(report.thread_blocks.len(), 2);
        let tb0 = &report.thread_blocks[0];
        assert!((tb0.send_us - 2.0).abs() < 1e-9);
        assert!((tb0.compute_us).abs() < 1e-9);
        let tb1 = &report.thread_blocks[1];
        assert!((tb1.compute_us - 4.0).abs() < 1e-9);
        assert_eq!(report.channels.len(), 1);
        let c = &report.channels[0];
        assert_eq!((c.sends, c.recvs, c.bytes), (1, 1, 256));
        assert_eq!(report.ops.len(), 2);
        assert_eq!(report.steps.len(), 2);
        assert!(report.steps.iter().all(|s| !s.flagged));
        // Critical path: send (2µs) feeds recv (4µs); both tbs on it.
        assert!((report.critical_path_us - 6.0).abs() < 1e-9);
        let shares: f64 = report.thread_blocks.iter().map(|b| b.critical_share).sum();
        assert!((shares - 1.0).abs() < 1e-9);
    }

    #[test]
    fn divergent_shares_are_flagged() {
        let report = ProfileReport::from_traces(&measured(), Some(&modeled()), 0.5);
        assert_eq!(report.modeled_domain.as_deref(), Some("virtual"));
        // Measured shares: send 1/3, recv 2/3. Modeled: send 5/6, recv
        // 1/6. Send diverges by |1/3-5/6|/(5/6) = 0.6, recv by
        // |2/3-1/6|/(1/6) = 3.0 — both above 0.5.
        assert_eq!(report.flagged_steps, 2);
        let send = report.steps.iter().find(|s| s.op == "s").unwrap();
        assert!((send.divergence.unwrap() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn json_is_deterministic_and_carries_schema() {
        let report = ProfileReport::from_traces(&measured(), Some(&modeled()), 0.5);
        let json = report.to_json();
        assert_eq!(json, report.to_json());
        assert!(json.contains("\"schema\": \"msccl-profile-v1\""));
        assert!(json.contains("\"modeled_domain\": \"virtual\""));
        assert!(json.contains("\"flagged\": true"));
        let no_model = ProfileReport::from_traces(&measured(), None, 0.5);
        assert!(no_model.to_json().contains("\"modeled_us\": null"));
    }

    #[test]
    fn snapshot_matches_trace_counters() {
        use msccl_metrics::names;
        let snap = snapshot_from_trace(&measured());
        let labels = [("src", "0"), ("dst", "1"), ("channel", "0")];
        assert_eq!(snap.counter(names::BYTES_SENT, &labels), 256);
        assert_eq!(snap.counter(names::BYTES_RECEIVED, &labels), 256);
        assert_eq!(snap.counter(names::SENDS, &labels), 1);
        assert_eq!(snap.counter(names::RECVS, &labels), 1);
        assert_eq!(snap.counter_total(names::INSTRUCTIONS), 2);
    }
}
