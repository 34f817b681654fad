//! Epoch partitioning: provable quiescent frontiers in MSCCL-IR.
//!
//! An *epoch cut* is a per-thread-block watermark vector within one tile
//! iteration — `watermarks[rank][tb]` instructions of each block have
//! completed — at which the execution state is **consistent**:
//!
//! * **drained connections** — on every connection the number of sends
//!   before the cut equals the number of receives before it, so no
//!   message is in flight across the frontier and every FIFO is empty;
//! * **quiesced semaphores** — every instruction before the cut has all
//!   of its cross-thread-block dependencies before the cut too, so no
//!   semaphore wait spans the frontier.
//!
//! At such a frontier the entire distributed state is captured by rank
//! memory alone: a checkpoint of each rank's buffers, restored together
//! with per-block watermarks, would resume the execution exactly (FIFO
//! sequence numbers and semaphore values follow from the watermarks, and
//! FIFOs restart empty because nothing crossed the cut). The threaded
//! runtime does not checkpoint — measured, a resume lost to a plain
//! restart (`docs/robustness.md`) — so the cuts serve
//! [`verify::check_epoch_cut`](crate::verify::check_epoch_cut) and the
//! simulator's checkpoint cost model (`simulate --epochs`).
//!
//! [`epoch_cuts`] computes the canonical chain of cuts for a program by
//! iterated frontier advance: from the previous cut, every unfinished
//! block steps forward by one instruction, then the frontier is closed
//! under the two consistency constraints until a fixpoint. The final cut
//! of the chain is always the full tile — an aligned tile boundary, which
//! is trivially consistent because the IR pairs every send with a receive
//! and scopes dependencies within one tile iteration.
//!
//! [`schedule`] turns the chain into concrete *epoch boundaries* for a
//! run with `num_tiles` tile iterations: global positions `(tile, cut)`
//! at which a run would snapshot rank memory, expressed as monotonic
//! per-block completed-instruction targets (the same encoding the
//! runtime's semaphores use: `tile * len + watermark`).

use crate::ir::{EpochCut, IrProgram};
use crate::lower::Lowered;

/// How many epoch boundaries a run should place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EpochMode {
    /// No epochs: a failure loses the whole run (the pre-epoch behavior).
    #[default]
    Off,
    /// A small number of evenly spaced boundaries (at most
    /// [`AUTO_BOUNDARIES`]), balancing resume granularity against
    /// snapshot cost.
    Auto,
    /// Exactly this many boundaries, clamped to the positions available.
    Count(usize),
}

/// Boundary budget [`EpochMode::Auto`] aims for: enough that a mid-run
/// fault loses at most ~a quarter of the work, few enough that the
/// fault-free snapshot overhead stays within the throughput bench's
/// budget.
pub const AUTO_BOUNDARIES: usize = 3;

/// Snapshot traffic [`EpochMode::Auto`] tolerates, as a divisor: all
/// checkpoints together may copy at most `1/AUTO_BUDGET_DIVISOR` of the
/// bytes the run itself moves (~1.5%). A checkpoint copies every rank's
/// memory, so for short programs — where one snapshot rivals the whole
/// run's traffic — Auto places *zero* boundaries: resuming would save
/// less than the snapshots cost. This is what keeps `--epochs auto`
/// inside the throughput bench's <3% fault-free overhead gate while
/// still checkpointing the long, many-tile runs that resume exists for.
pub const AUTO_BUDGET_DIVISOR: u64 = 64;

/// Boundary count [`EpochMode::Auto`] resolves to for a run that moves
/// `run_bytes` of instruction payload and whose checkpoints copy
/// `snapshot_bytes` each: as many as the [`AUTO_BUDGET_DIVISOR`] traffic
/// budget affords, capped at [`AUTO_BOUNDARIES`].
#[must_use]
pub fn auto_boundaries(run_bytes: u64, snapshot_bytes: u64) -> usize {
    let affordable = run_bytes / (AUTO_BUDGET_DIVISOR * snapshot_bytes.max(1));
    (usize::try_from(affordable).unwrap_or(usize::MAX)).min(AUTO_BOUNDARIES)
}

/// Payload bytes one run of `ir` moves end to end: every instruction
/// instance touches `count` chunk segments of `chunk_elems` `f32`s,
/// summed over all tile iterations. The [`EpochMode::Auto`] cost model's
/// numerator.
#[must_use]
pub fn traffic_bytes(ir: &IrProgram, chunk_elems: usize) -> u64 {
    let segments: u64 = ir
        .gpus
        .iter()
        .flat_map(|g| &g.threadblocks)
        .flat_map(|t| &t.instructions)
        .map(|i| i.count.max(1) as u64)
        .sum();
    segments * chunk_elems as u64 * std::mem::size_of::<f32>() as u64
}

/// Bytes one epoch checkpoint copies: every rank's data, output and
/// scratch space. The [`EpochMode::Auto`] cost model's denominator.
#[must_use]
pub fn snapshot_bytes(ir: &IrProgram, chunk_elems: usize) -> u64 {
    let chunks: u64 = ir
        .gpus
        .iter()
        .map(|g| (g.input_chunks + g.output_chunks + g.scratch_chunks) as u64)
        .sum();
    chunks * chunk_elems as u64 * std::mem::size_of::<f32>() as u64
}

impl EpochMode {
    /// Resolves [`EpochMode::Auto`] to a concrete count for a run over
    /// `chunk_elems`-sized chunks of `ir`, applying the traffic-budget
    /// cost model ([`auto_boundaries`]); `Off` and `Count` pass through.
    #[must_use]
    pub fn resolve(self, ir: &IrProgram, chunk_elems: usize) -> Self {
        match self {
            EpochMode::Auto => EpochMode::Count(auto_boundaries(
                traffic_bytes(ir, chunk_elems),
                snapshot_bytes(ir, chunk_elems),
            )),
            m => m,
        }
    }
}

impl EpochMode {
    /// Parses `off`, `auto` or a positive count (the CLI syntax of
    /// `--epochs`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" | "0" => Some(EpochMode::Off),
            "auto" => Some(EpochMode::Auto),
            n => n.parse::<usize>().ok().map(EpochMode::Count),
        }
    }
}

/// Per-block instruction counts, `[rank][tb]`.
fn tb_lens(ir: &IrProgram) -> Vec<Vec<usize>> {
    ir.gpus
        .iter()
        .map(|g| {
            g.threadblocks
                .iter()
                .map(|t| t.instructions.len())
                .collect()
        })
        .collect()
}

/// Sends (receives) among the first `w` instructions of a block.
fn prefix_count(ir: &IrProgram, rank: usize, tb: usize, w: usize, sends: bool) -> usize {
    ir.gpus[rank].threadblocks[tb].instructions[..w]
        .iter()
        .filter(|i| {
            if sends {
                i.op.has_send()
            } else {
                i.op.has_recv()
            }
        })
        .count()
}

/// A connection: `(sender (rank, tb), receiver (rank, tb))`.
type Conn = ((usize, usize), (usize, usize));

/// Every connection as `(sender (rank, tb), receiver (rank, tb))`, by
/// connection id.
fn connections(lowered: &Lowered) -> Vec<Conn> {
    let mut conns = vec![((0, 0), (0, 0)); lowered.conns().len()];
    for b in lowered.blocks() {
        let at = (b.rank, b.tb.id);
        if let Some(c) = b.send {
            conns[c].0 = at;
        }
        if let Some(c) = b.recv {
            conns[c].1 = at;
        }
    }
    conns
}

/// Closes `w` under the consistency constraints: dependency closure and
/// per-connection send/receive balance. Watermarks only ever increase,
/// bounded by the block lengths, so the fixpoint iteration terminates.
fn close(ir: &IrProgram, lens: &[Vec<usize>], conns: &[Conn], w: &mut [Vec<usize>]) {
    loop {
        let mut changed = false;
        // Dependency closure: an instruction before the cut needs its
        // producers before the cut.
        for (r, gpu) in ir.gpus.iter().enumerate() {
            for tb in &gpu.threadblocks {
                for instr in &tb.instructions[..w[r][tb.id]] {
                    for d in &instr.deps {
                        if w[r][d.tb] < d.step + 1 {
                            w[r][d.tb] = d.step + 1;
                            changed = true;
                        }
                    }
                }
            }
        }
        // Balance: no message may be in flight across the cut. A surplus
        // of sends pulls the receiver forward until it has consumed them;
        // a surplus of receives pulls the sender forward until it has
        // produced them.
        for &((sr, st), (rr, rt)) in conns {
            let sends = prefix_count(ir, sr, st, w[sr][st], true);
            let recvs = prefix_count(ir, rr, rt, w[rr][rt], false);
            if sends > recvs {
                while w[rr][rt] < lens[rr][rt] && prefix_count(ir, rr, rt, w[rr][rt], false) < sends
                {
                    w[rr][rt] += 1;
                    changed = true;
                }
            } else if recvs > sends {
                while w[sr][st] < lens[sr][st] && prefix_count(ir, sr, st, w[sr][st], true) < recvs
                {
                    w[sr][st] += 1;
                    changed = true;
                }
            }
        }
        if !changed {
            return;
        }
    }
}

/// Computes the canonical chain of consistent epoch cuts for a lowered
/// program by iterated frontier advance (see the [module docs](self)).
/// The chain is strictly increasing and its last cut is the full tile; a
/// maximally coupled program yields a single cut (the tile boundary
/// itself).
#[must_use]
pub fn epoch_cuts(lowered: &Lowered) -> Vec<EpochCut> {
    let ir = lowered.ir();
    let lens = tb_lens(ir);
    let conns = connections(lowered);
    let mut w: Vec<Vec<usize>> = lens.iter().map(|g| vec![0; g.len()]).collect();
    let mut cuts = Vec::new();
    while w != lens {
        for (wg, lg) in w.iter_mut().zip(&lens) {
            for (wt, &lt) in wg.iter_mut().zip(lg) {
                if *wt < lt {
                    *wt += 1;
                }
            }
        }
        close(ir, &lens, &conns, &mut w);
        cuts.push(EpochCut {
            watermarks: w.clone(),
        });
    }
    if cuts.is_empty() {
        // Empty program: the full (empty) tile is the only cut.
        cuts.push(EpochCut { watermarks: w });
    }
    cuts
}

/// Chooses the epoch boundaries for a run of `num_tiles` tile iterations
/// over the cut chain `cuts`, returning each boundary as per-block
/// monotonic completed-instruction targets `[rank][tb]` (the semaphore
/// encoding `tile * len + watermark`). Boundaries are interior only — the
/// end of the run is never one (there is nothing left to resume) — and
/// evenly spaced over the `num_tiles × cuts.len()` cut positions.
#[must_use]
pub fn schedule(
    ir: &IrProgram,
    cuts: &[EpochCut],
    num_tiles: usize,
    mode: EpochMode,
) -> Vec<Vec<Vec<u64>>> {
    let per_tile = cuts.len();
    let positions = num_tiles.saturating_mul(per_tile);
    if positions <= 1 {
        // A single position is the end of the run: nothing interior.
        if !matches!(mode, EpochMode::Off) {
            return Vec::new();
        }
    }
    let interior = positions.saturating_sub(1);
    let want = match mode {
        EpochMode::Off => 0,
        EpochMode::Auto => AUTO_BOUNDARIES.min(interior),
        EpochMode::Count(n) => n.min(interior),
    };
    if want == 0 {
        return Vec::new();
    }
    let lens = tb_lens(ir);
    let mut chosen = Vec::with_capacity(want);
    let mut last = 0usize;
    for i in 1..=want {
        // Evenly spaced 1-based positions in [1, positions - 1].
        let p = (i * positions / (want + 1)).clamp(1, positions - 1);
        if p <= last {
            continue;
        }
        last = p;
        let tile = (p - 1) / per_tile;
        let cut = &cuts[(p - 1) % per_tile];
        chosen.push(
            lens.iter()
                .enumerate()
                .map(|(r, g)| {
                    g.iter()
                        .enumerate()
                        .map(|(t, &len)| (tile * len + cut.watermarks[r][t]) as u64)
                        .collect()
                })
                .collect(),
        );
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions};

    fn ring_ir(n: usize) -> IrProgram {
        let p = msccl_algos_shim::ring(n);
        compile(&p, &CompileOptions::default()).unwrap()
    }

    // The algos crate depends on core, not the reverse; build a small
    // ring allreduce by hand for the pass's own unit tests.
    mod msccl_algos_shim {
        use crate::buffer::BufferKind;
        use crate::collective::Collective;
        use crate::program::Program;

        pub fn ring(n: usize) -> Program {
            let mut p = Program::new("ring", Collective::all_reduce(n, n, true));
            for r in 0..n {
                let mut c = p.chunk((r + 1) % n, BufferKind::Input, r, 1).unwrap();
                for step in 1..n {
                    let next = (r + 1 + step) % n;
                    let dst = p.chunk(next, BufferKind::Input, r, 1).unwrap();
                    c = p.reduce(&dst, &c).unwrap();
                }
                for step in 0..(n - 1) {
                    let next = (r + 1 + step) % n;
                    c = p.copy(&c, next, BufferKind::Input, r).unwrap();
                }
            }
            p
        }
    }

    #[test]
    fn chain_is_strictly_increasing_and_ends_full() {
        let ir = ring_ir(4);
        let cuts = epoch_cuts(&Lowered::new(&ir).unwrap());
        assert!(!cuts.is_empty());
        let lens = tb_lens(&ir);
        let mut prev: Vec<Vec<usize>> = lens.iter().map(|g| vec![0; g.len()]).collect();
        for cut in &cuts {
            let mut advanced = false;
            for (r, g) in cut.watermarks.iter().enumerate() {
                for (t, &w) in g.iter().enumerate() {
                    assert!(w >= prev[r][t], "watermarks regressed");
                    assert!(w <= lens[r][t], "watermark beyond block length");
                    advanced |= w > prev[r][t];
                }
            }
            assert!(advanced, "cut did not advance the frontier");
            prev = cut.watermarks.clone();
        }
        assert_eq!(prev, lens, "chain must end at the full tile");
    }

    #[test]
    fn cuts_are_balanced_and_dep_closed() {
        let ir = ring_ir(4);
        for cut in epoch_cuts(&Lowered::new(&ir).unwrap()) {
            crate::verify::check_epoch_cut(&ir, &cut).unwrap();
        }
    }

    #[test]
    fn schedule_respects_mode_and_stays_interior() {
        let ir = ring_ir(4);
        let cuts = epoch_cuts(&Lowered::new(&ir).unwrap());
        assert!(schedule(&ir, &cuts, 4, EpochMode::Off).is_empty());
        let auto = schedule(&ir, &cuts, 4, EpochMode::Auto);
        assert!(!auto.is_empty() && auto.len() <= AUTO_BOUNDARIES);
        let lens = tb_lens(&ir);
        let totals: Vec<Vec<u64>> = lens
            .iter()
            .map(|g| g.iter().map(|&l| (l * 4) as u64).collect())
            .collect();
        let mut prev: Vec<Vec<u64>> = lens.iter().map(|g| vec![0; g.len()]).collect();
        for b in &auto {
            let mut advanced = false;
            let mut strictly_before_end = false;
            for (r, g) in b.iter().enumerate() {
                for (t, &target) in g.iter().enumerate() {
                    assert!(target >= prev[r][t]);
                    assert!(target <= totals[r][t]);
                    advanced |= target > prev[r][t];
                    strictly_before_end |= target < totals[r][t];
                }
            }
            assert!(advanced && strictly_before_end);
            prev = b.clone();
        }
        let two = schedule(&ir, &cuts, 4, EpochMode::Count(2));
        assert_eq!(two.len(), 2);
        // A huge request clamps to the interior positions available.
        let many = schedule(&ir, &cuts, 2, EpochMode::Count(1000));
        assert_eq!(many.len(), 2 * cuts.len() - 1);
    }

    #[test]
    fn auto_resolution_scales_with_traffic() {
        // Budget arithmetic: boundaries are affordable only when the run
        // moves AUTO_BUDGET_DIVISOR× more bytes than a snapshot copies.
        assert_eq!(auto_boundaries(0, 1024), 0);
        assert_eq!(auto_boundaries(AUTO_BUDGET_DIVISOR * 1024, 1024), 1);
        assert_eq!(auto_boundaries(u64::MAX, 1024), AUTO_BOUNDARIES);
        assert_eq!(auto_boundaries(u64::MAX, 0), AUTO_BOUNDARIES);

        let ir = ring_ir(4);
        // A short program: one snapshot rivals the run's own traffic, so
        // Auto declines to checkpoint at all.
        assert_eq!(
            EpochMode::Auto.resolve(&ir, 1024),
            EpochMode::Count(0),
            "short runs must not pay for snapshots"
        );
        // Off and Count pass through untouched.
        assert_eq!(EpochMode::Off.resolve(&ir, 1024), EpochMode::Off);
        assert_eq!(EpochMode::Count(7).resolve(&ir, 1024), EpochMode::Count(7));
        // The estimates themselves scale linearly with chunk size.
        assert_eq!(traffic_bytes(&ir, 8) * 2, traffic_bytes(&ir, 16));
        assert_eq!(snapshot_bytes(&ir, 8) * 2, snapshot_bytes(&ir, 16));
        assert!(traffic_bytes(&ir, 8) > 0 && snapshot_bytes(&ir, 8) > 0);
    }

    #[test]
    fn mode_parses_cli_syntax() {
        assert_eq!(EpochMode::parse("off"), Some(EpochMode::Off));
        assert_eq!(EpochMode::parse("auto"), Some(EpochMode::Auto));
        assert_eq!(EpochMode::parse("4"), Some(EpochMode::Count(4)));
        assert_eq!(EpochMode::parse("zap"), None);
    }
}
