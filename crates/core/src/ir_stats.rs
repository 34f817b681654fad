//! Schedule statistics over compiled MSCCL-IR.
//!
//! Summarizes what the scheduler produced: thread block and channel usage,
//! opcode mix (how much fusion happened), communication volume in chunks,
//! and the longest chain of dependent transfers (the latency exponent of
//! the algorithm — 2 communication steps for All Pairs versus `2R − 2` for
//! Ring, §7.1.2).

use std::collections::HashMap;
use std::fmt;

use crate::ir::{IrProgram, OpCode};
use crate::lower::Lowered;
use crate::order;

/// Aggregate statistics of a compiled program.
#[derive(Debug, Clone, PartialEq)]
pub struct IrStats {
    /// Thread blocks per rank (min, max).
    pub tbs_per_rank: (usize, usize),
    /// Channels used.
    pub channels: usize,
    /// Instructions by opcode.
    pub opcode_counts: HashMap<OpCode, usize>,
    /// Fraction of receive-carrying instructions that are fused with a
    /// send (`rcs`/`rrs`/`rrcs`), in `[0, 1]`.
    pub fusion_rate: f64,
    /// Chunk-sends per connection (min, mean, max) — connection load
    /// balance.
    pub sends_per_connection: (usize, f64, usize),
    /// Total chunks sent across all connections.
    pub chunks_sent: usize,
    /// The longest chain of dependent communication hops (the algorithm's
    /// latency in communication steps).
    pub critical_hops: usize,
    /// Cross-thread-block dependency edges (semaphore waits).
    pub cross_tb_deps: usize,
}

impl IrStats {
    /// Computes statistics for `ir`.
    #[must_use]
    pub fn compute(ir: &IrProgram) -> Self {
        let mut opcode_counts: HashMap<OpCode, usize> = HashMap::new();
        let mut sends_per_conn: Vec<usize> = Vec::new();
        let mut chunks_sent = 0usize;
        let mut cross_tb_deps = 0usize;
        let mut tb_counts: Vec<usize> = Vec::new();
        for gpu in &ir.gpus {
            tb_counts.push(gpu.threadblocks.len());
            for tb in &gpu.threadblocks {
                let mut conn_sends = 0usize;
                for i in &tb.instructions {
                    *opcode_counts.entry(i.op).or_default() += 1;
                    cross_tb_deps += i.deps.len();
                    if i.op.has_send() {
                        conn_sends += 1;
                        chunks_sent += i.count;
                    }
                }
                if tb.send_peer.is_some() {
                    sends_per_conn.push(conn_sends);
                }
            }
        }
        let recv_ops: usize = opcode_counts
            .iter()
            .filter(|(op, _)| op.has_recv())
            .map(|(_, &n)| n)
            .sum();
        let fused_ops: usize = opcode_counts
            .iter()
            .filter(|(op, _)| op.has_recv() && op.has_send())
            .map(|(_, &n)| n)
            .sum();
        let fusion_rate = if recv_ops == 0 {
            0.0
        } else {
            fused_ops as f64 / recv_ops as f64
        };
        let (min_s, max_s, mean_s) = if sends_per_conn.is_empty() {
            (0, 0, 0.0)
        } else {
            let min = *sends_per_conn.iter().min().expect("non-empty");
            let max = *sends_per_conn.iter().max().expect("non-empty");
            let mean = sends_per_conn.iter().sum::<usize>() as f64 / sends_per_conn.len() as f64;
            (min, max, mean)
        };
        Self {
            tbs_per_rank: (
                tb_counts.iter().copied().min().unwrap_or(0),
                tb_counts.iter().copied().max().unwrap_or(0),
            ),
            channels: ir.num_channels,
            opcode_counts,
            fusion_rate,
            sends_per_connection: (min_s, mean_s, max_s),
            chunks_sent,
            critical_hops: critical_hops(ir),
            cross_tb_deps,
        }
    }
}

/// Longest chain of dependent communication hops, following intra-thread-
/// block order, semaphore dependencies and send→receive pairing; 0 for a
/// program that does not lower or whose order has a cycle.
fn critical_hops(ir: &IrProgram) -> usize {
    let Ok(lowered) = Lowered::new(ir) else {
        return 0;
    };
    let graph = order::step_graph(&lowered);
    let Ok(topo) = graph.topo_order() else {
        return 0;
    };
    // Hops per instruction, in the graph's numbering: 1 for a receive.
    let weight: Vec<usize> = ir
        .gpus
        .iter()
        .flat_map(|gpu| &gpu.threadblocks)
        .flat_map(|tb| &tb.instructions)
        .map(|i| usize::from(i.op.has_recv()))
        .collect();
    let mut hops = weight.clone();
    for &u in &topo {
        for &v in graph.succs(u) {
            let (u, v) = (u as usize, v as usize);
            hops[v] = hops[v].max(hops[u] + weight[v]);
        }
    }
    hops.into_iter().max().unwrap_or(0)
}

impl fmt::Display for IrStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "thread blocks/rank: {}..{}  channels: {}  cross-TB deps: {}",
            self.tbs_per_rank.0, self.tbs_per_rank.1, self.channels, self.cross_tb_deps
        )?;
        writeln!(
            f,
            "chunks sent: {}  sends/connection: {} / {:.1} / {}  fusion rate: {:.0}%",
            self.chunks_sent,
            self.sends_per_connection.0,
            self.sends_per_connection.1,
            self.sends_per_connection.2,
            100.0 * self.fusion_rate
        )?;
        writeln!(
            f,
            "critical path: {} communication hops",
            self.critical_hops
        )?;
        let mut ops: Vec<(&OpCode, &usize)> = self.opcode_counts.iter().collect();
        ops.sort_by_key(|(op, _)| op.mnemonic());
        write!(f, "opcodes:")?;
        for (op, count) in ops {
            write!(f, " {}={count}", op.mnemonic())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferKind;
    use crate::collective::Collective;
    use crate::compile::{compile, CompileOptions};
    use crate::program::Program;

    fn ring(n: usize) -> IrProgram {
        let mut p = Program::new("ring", Collective::all_reduce(n, n, true));
        for r in 0..n {
            let mut c = p.chunk((r + 1) % n, BufferKind::Input, r, 1).unwrap();
            for step in 1..n {
                let dst = p
                    .chunk((r + 1 + step) % n, BufferKind::Input, r, 1)
                    .unwrap();
                c = p.reduce(&dst, &c).unwrap();
            }
            for step in 0..(n - 1) {
                c = p
                    .copy(&c, (r + 1 + step) % n, BufferKind::Input, r)
                    .unwrap();
            }
        }
        compile(&p, &CompileOptions::default()).unwrap()
    }

    #[test]
    fn ring_critical_path_is_2r_minus_2() {
        for n in [3usize, 4, 6] {
            let stats = IrStats::compute(&ring(n));
            assert_eq!(stats.critical_hops, 2 * n - 2, "ring of {n}");
        }
    }

    #[test]
    fn allpairs_critical_path_is_much_shorter_than_ring() {
        // The DSL-level depth of All Pairs is 2 steps (gather, broadcast),
        // but the scheduled chain serializes the R-1 reductions into the
        // owner's accumulator, so the hop metric reads R-1 + 1. Either
        // way, it beats Ring's 2R - 2 — the latency claim of §7.1.2.
        let n = 6;
        let p = msccl_algos_allpairs(n);
        let ir = compile(&p, &CompileOptions::default()).unwrap();
        let allpairs_hops = IrStats::compute(&ir).critical_hops;
        assert_eq!(allpairs_hops, n);
        assert!(allpairs_hops < IrStats::compute(&ring(n)).critical_hops);
    }

    /// Local copy of the All Pairs construction to avoid a cyclic dev
    /// dependency on `msccl-algos`.
    fn msccl_algos_allpairs(n: usize) -> Program {
        let mut p = Program::new("allpairs", Collective::all_reduce(n, n, true));
        for r in 0..n {
            let mut acc = p.chunk(r, BufferKind::Input, r, 1).unwrap();
            for q in 0..n {
                if q != r {
                    let c = p.chunk(q, BufferKind::Input, r, 1).unwrap();
                    acc = p.reduce(&acc, &c).unwrap();
                }
            }
            for q in 0..n {
                if q != r {
                    let _ = p.copy(&acc, q, BufferKind::Input, r).unwrap();
                }
            }
        }
        p
    }

    #[test]
    fn fusion_rate_reflects_fused_schedules() {
        let ir = ring(5);
        let stats = IrStats::compute(&ir);
        assert!(stats.fusion_rate > 0.5, "ring middle hops should be fused");
        assert!(stats.chunks_sent > 0);
        assert_eq!(stats.channels, 1);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = IrStats::compute(&ring(4)).to_string();
        assert!(s.contains("critical path: 6 communication hops"));
        assert!(s.contains("fusion rate"));
    }
}
