//! Aggregate metrics derived from a trace: per-thread-block time
//! breakdowns, per-connection FIFO occupancy and critical-path length.

use std::collections::HashMap;

use mscclang::order::Dag;

use crate::event::EventKind;
use crate::Trace;

/// How one thread block spent its time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TbBreakdown {
    /// Rank owning the thread block.
    pub rank: usize,
    /// Thread block id within the rank.
    pub tb: usize,
    /// Instructions completed (across all tiles).
    pub instructions: usize,
    /// Time inside instructions minus waiting, µs (actual processing).
    pub busy_us: f64,
    /// Time blocked on cross-thread-block semaphores, µs.
    pub sem_wait_us: f64,
    /// Time blocked on full send FIFOs or empty receive FIFOs, µs.
    pub fifo_blocked_us: f64,
}

/// Traffic over one `(src, dst, channel)` connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionStats {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Channel id.
    pub channel: usize,
    /// Messages (tiles) carried.
    pub messages: u64,
    /// Payload bytes carried (sum of per-send sizes).
    pub bytes: u64,
    /// Peak number of unconsumed messages in the FIFO.
    pub peak_occupancy: usize,
}

/// Summary statistics computed by [`Trace::summary`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Time between the first and last event, µs.
    pub span_us: f64,
    /// Length of the longest chain of dependent processing, µs: per-node
    /// busy time accumulated along program order, observed semaphore waits
    /// and send→recv message edges.
    pub critical_path_us: f64,
    /// Per-thread-block breakdown, sorted by `(rank, tb)`.
    pub per_tb: Vec<TbBreakdown>,
    /// Per-connection FIFO statistics, sorted by `(src, dst, channel)`.
    pub per_connection: Vec<ConnectionStats>,
    /// Instruction instances `(rank, tb, step, tile)` on the critical
    /// path, in path order (the chain whose busy times sum to
    /// `critical_path_us`).
    pub critical_nodes: Vec<(usize, usize, usize, usize)>,
    /// Tile-pool `(allocated, reused)` counters, when the trace carries a
    /// [`EventKind::PoolStats`] event (threaded-runtime traces do; the
    /// simulator has no allocator to count).
    pub pool: Option<(u64, u64)>,
}

/// An instruction instance in the trace.
type InstrKey = (usize, usize, usize, usize); // (rank, tb, step, tile)

impl Trace {
    /// Computes the aggregate metrics for this trace.
    #[must_use]
    pub fn summary(&self) -> TraceSummary {
        let mut per_tb: HashMap<(usize, usize), TbBreakdown> = HashMap::new();
        // Open wait/block interval start per (rank, tb), by kind name.
        let mut open_wait: HashMap<(usize, usize), f64> = HashMap::new();
        let mut open_block: HashMap<(usize, usize), f64> = HashMap::new();
        let mut open_instr: HashMap<(usize, usize), (InstrKey, f64, f64)> = HashMap::new();

        // Instruction instances for the critical path, with dense ids in
        // the order they first end and their busy (non-waiting) time.
        let mut ids: HashMap<InstrKey, u32> = HashMap::new();
        let mut nodes: Vec<(InstrKey, f64)> = Vec::new();
        // Program-order and wait/message edges: pred -> succ.
        let mut edges: Vec<(InstrKey, InstrKey)> = Vec::new();
        let mut last_instr: HashMap<(usize, usize), InstrKey> = HashMap::new();
        // Semaphore waits observed since the last instruction ended; they
        // gate the next instruction and are drained at its InstrEnd.
        let mut pending_deps: HashMap<(usize, usize), Vec<(usize, u64)>> = HashMap::new();
        // k-th send / k-th recv node per connection.
        let mut send_nodes: HashMap<(usize, usize, usize), Vec<InstrKey>> = HashMap::new();
        let mut recv_nodes: HashMap<(usize, usize, usize), Vec<InstrKey>> = HashMap::new();
        // Highest step seen per (rank, tb): the per-tile instruction count,
        // used to decode semaphore targets back into (step, tile).
        let mut tb_len: HashMap<(usize, usize), u64> = HashMap::new();

        // FIFO occupancy per connection: +1 at send, -1 at recv, with the
        // peak depth, message count and payload byte total.
        type Occupancy = (i64, usize, u64, u64);
        let mut occupancy: HashMap<(usize, usize, usize), Occupancy> = HashMap::new();

        let mut pool: Option<(u64, u64)> = None;

        for e in &self.events {
            let tbkey = (e.rank, e.tb);
            let slot = per_tb.entry(tbkey).or_insert(TbBreakdown {
                rank: e.rank,
                tb: e.tb,
                instructions: 0,
                busy_us: 0.0,
                sem_wait_us: 0.0,
                fifo_blocked_us: 0.0,
            });
            match e.kind {
                EventKind::InstrBegin { step, tile, .. } => {
                    let key = (e.rank, e.tb, step, tile);
                    open_instr.insert(tbkey, (key, e.ts_us, 0.0));
                    let len = tb_len.entry(tbkey).or_insert(0);
                    *len = (*len).max(step as u64 + 1);
                }
                EventKind::InstrEnd { step, tile, .. } => {
                    slot.instructions += 1;
                    let key = (e.rank, e.tb, step, tile);
                    let (open_key, begin, waited) =
                        open_instr.remove(&tbkey).unwrap_or((key, e.ts_us, 0.0));
                    let begin = if open_key == key { begin } else { e.ts_us };
                    let busy = (e.ts_us - begin - waited).max(0.0);
                    slot.busy_us += busy;
                    let id = *ids.entry(key).or_insert_with(|| {
                        nodes.push((key, 0.0));
                        (nodes.len() - 1) as u32
                    });
                    nodes[id as usize].1 = busy;
                    if let Some(prev) = last_instr.insert(tbkey, key) {
                        edges.push((prev, key));
                    }
                    for (dep_tb, target) in pending_deps.remove(&tbkey).unwrap_or_default() {
                        // Decode target = tile * len + step + 1 with the
                        // dep block's per-tile instruction count.
                        if let Some(&len) = tb_len.get(&(e.rank, dep_tb)) {
                            if len > 0 && target > 0 {
                                let idx = target - 1;
                                let dep_key =
                                    (e.rank, dep_tb, (idx % len) as usize, (idx / len) as usize);
                                edges.push((dep_key, key));
                            }
                        }
                    }
                }
                EventKind::SemWaitEnter { .. } => {
                    open_wait.insert(tbkey, e.ts_us);
                }
                EventKind::SemWaitExit { dep_tb, target } => {
                    if let Some(t0) = open_wait.remove(&tbkey) {
                        let waited = e.ts_us - t0;
                        slot.sem_wait_us += waited;
                        if let Some(open) = open_instr.get_mut(&tbkey) {
                            open.2 += waited;
                        }
                    }
                    pending_deps
                        .entry(tbkey)
                        .or_default()
                        .push((dep_tb, target));
                }
                EventKind::SendBlock { .. } | EventKind::RecvBlock { .. } => {
                    open_block.insert(tbkey, e.ts_us);
                }
                EventKind::SendResume { .. } | EventKind::RecvResume { .. } => {
                    if let Some(t0) = open_block.remove(&tbkey) {
                        let blocked = e.ts_us - t0;
                        slot.fifo_blocked_us += blocked;
                        if let Some(open) = open_instr.get_mut(&tbkey) {
                            open.2 += blocked;
                        }
                    }
                }
                EventKind::Send {
                    dst,
                    channel,
                    bytes,
                    ..
                } => {
                    let conn = (e.rank, dst, channel);
                    let entry = occupancy.entry(conn).or_insert((0, 0, 0, 0));
                    entry.0 += 1;
                    entry.1 = entry.1.max(entry.0 as usize);
                    entry.2 += 1;
                    entry.3 += bytes;
                    if let Some(open) = open_instr.get(&tbkey) {
                        send_nodes.entry(conn).or_default().push(open.0);
                    }
                }
                EventKind::Recv { src, channel, .. } => {
                    let conn = (src, e.rank, channel);
                    let entry = occupancy.entry(conn).or_insert((0, 0, 0, 0));
                    entry.0 -= 1;
                    if let Some(open) = open_instr.get(&tbkey) {
                        recv_nodes.entry(conn).or_default().push(open.0);
                    }
                }
                EventKind::PoolStats { allocated, reused } => {
                    pool = Some((allocated, reused));
                }
                EventKind::KernelLaunch
                | EventKind::TileBegin { .. }
                | EventKind::TileEnd { .. }
                | EventKind::SemSet { .. }
                | EventKind::Recovery { .. } => {}
            }
        }

        // Message edges: the k-th send on a connection feeds the k-th recv.
        for (conn, sends) in &send_nodes {
            if let Some(recvs) = recv_nodes.get(conn) {
                for (s, r) in sends.iter().zip(recvs) {
                    edges.push((*s, *r));
                }
            }
        }

        let (critical_path_us, critical_nodes) = critical_path(&nodes, &ids, &edges);

        let mut per_tb: Vec<TbBreakdown> = per_tb.into_values().collect();
        per_tb.sort_by_key(|b| (b.rank, b.tb));
        let mut per_connection: Vec<ConnectionStats> = occupancy
            .into_iter()
            .map(
                |((src, dst, channel), (_, peak, messages, bytes))| ConnectionStats {
                    src,
                    dst,
                    channel,
                    messages,
                    bytes,
                    peak_occupancy: peak,
                },
            )
            .collect();
        per_connection.sort_by_key(|c| (c.src, c.dst, c.channel));

        TraceSummary {
            span_us: self.span_us(),
            critical_path_us,
            per_tb,
            per_connection,
            critical_nodes,
            pool,
        }
    }
}

/// Longest path through the instruction DAG, weighting each node by its
/// busy (non-waiting) time. Returns the path length and its nodes in path
/// order; `(0, [])` for empty or cyclic graphs (a cyclic "trace" cannot
/// come from a real execution). Ties between equally long chains go to
/// the instance that ended first in the trace, so the path is a function
/// of the trace alone.
fn critical_path(
    nodes: &[(InstrKey, f64)],
    ids: &HashMap<InstrKey, u32>,
    edges: &[(InstrKey, InstrKey)],
) -> (f64, Vec<InstrKey>) {
    let edges: Vec<(u32, u32)> = edges
        .iter()
        .filter_map(|(a, b)| Some((*ids.get(a)?, *ids.get(b)?)))
        .collect();
    let graph = Dag::from_edges(nodes.len(), &edges);
    let Ok(topo) = graph.topo_order() else {
        return (0.0, Vec::new()); // cycle: not a feasible execution order
    };
    // `pred[v]`: v's predecessor with the longest chain, the lowest id
    // among equals; `dist[v]`: the chain's length through v.
    let mut pred: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut dist = vec![0.0; nodes.len()];
    for &u in &topo {
        let u = u as usize;
        dist[u] = pred[u].map_or(0.0, |p| dist[p]) + nodes[u].1;
        for &v in graph.succs(u as u32) {
            let v = v as usize;
            if pred[v].is_none_or(|p| dist[u] > dist[p] || (dist[u] == dist[p] && u < p)) {
                pred[v] = Some(u);
            }
        }
    }
    // The longest chain's end: the lowest id among equals.
    let best_end = (0..nodes.len()).reduce(|b, v| if dist[v] > dist[b] { v } else { b });
    let mut path: Vec<InstrKey> = std::iter::successors(best_end, |&v| pred[v])
        .map(|v| nodes[v].0)
        .collect();
    path.reverse();
    let best = best_end.map_or(0.0, |b| dist[b]);
    (best, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClockDomain, TraceEvent};
    use mscclang::OpCode;

    fn ev(ts: f64, rank: usize, tb: usize, kind: EventKind) -> TraceEvent {
        TraceEvent {
            ts_us: ts,
            rank,
            tb,
            kind,
        }
    }

    /// tb0 copies for 2µs; tb1 waits 2µs on tb0's semaphore then works 3µs.
    /// Critical path = 2 + 3; tb1's wait is excluded from its busy time.
    #[test]
    fn breakdown_and_critical_path() {
        let events = vec![
            ev(
                0.0,
                0,
                0,
                EventKind::InstrBegin {
                    step: 0,
                    tile: 0,
                    op: OpCode::Copy,
                },
            ),
            ev(
                0.0,
                0,
                1,
                EventKind::SemWaitEnter {
                    dep_tb: 0,
                    target: 1,
                },
            ),
            ev(
                2.0,
                0,
                0,
                EventKind::InstrEnd {
                    step: 0,
                    tile: 0,
                    op: OpCode::Copy,
                },
            ),
            ev(2.0, 0, 0, EventKind::SemSet { value: 1 }),
            ev(
                2.0,
                0,
                1,
                EventKind::SemWaitExit {
                    dep_tb: 0,
                    target: 1,
                },
            ),
            ev(
                2.0,
                0,
                1,
                EventKind::InstrBegin {
                    step: 0,
                    tile: 0,
                    op: OpCode::Copy,
                },
            ),
            ev(
                5.0,
                0,
                1,
                EventKind::InstrEnd {
                    step: 0,
                    tile: 0,
                    op: OpCode::Copy,
                },
            ),
        ];
        let t = Trace::from_buffers(ClockDomain::Wall, vec![events]);
        let s = t.summary();
        assert_eq!(s.per_tb.len(), 2);
        let tb0 = &s.per_tb[0];
        let tb1 = &s.per_tb[1];
        assert!((tb0.busy_us - 2.0).abs() < 1e-9);
        assert!((tb1.sem_wait_us - 2.0).abs() < 1e-9);
        assert!((tb1.busy_us - 3.0).abs() < 1e-9);
        assert!((s.critical_path_us - 5.0).abs() < 1e-9, "{s:?}");
    }

    /// Two sends queued before the first recv: peak occupancy 2.
    #[test]
    fn fifo_occupancy_peaks() {
        let mk_instr = |ts, tb, step, end| {
            ev(
                ts,
                0,
                tb,
                if end {
                    EventKind::InstrEnd {
                        step,
                        tile: 0,
                        op: OpCode::Send,
                    }
                } else {
                    EventKind::InstrBegin {
                        step,
                        tile: 0,
                        op: OpCode::Send,
                    }
                },
            )
        };
        let events = vec![
            mk_instr(0.0, 0, 0, false),
            ev(
                1.0,
                0,
                0,
                EventKind::Send {
                    dst: 1,
                    channel: 0,
                    seq: 0,
                    bytes: 0,
                },
            ),
            mk_instr(1.0, 0, 0, true),
            mk_instr(1.0, 0, 1, false),
            ev(
                2.0,
                0,
                0,
                EventKind::Send {
                    dst: 1,
                    channel: 0,
                    seq: 1,
                    bytes: 0,
                },
            ),
            mk_instr(2.0, 0, 1, true),
            ev(
                3.0,
                1,
                0,
                EventKind::Recv {
                    src: 0,
                    channel: 0,
                    seq: 0,
                    bytes: 0,
                },
            ),
            ev(
                4.0,
                1,
                0,
                EventKind::Recv {
                    src: 0,
                    channel: 0,
                    seq: 1,
                    bytes: 0,
                },
            ),
        ];
        let t = Trace::from_buffers(ClockDomain::Wall, vec![events]);
        let s = t.summary();
        assert_eq!(s.per_connection.len(), 1);
        let c = &s.per_connection[0];
        assert_eq!((c.src, c.dst, c.channel), (0, 1, 0));
        assert_eq!(c.messages, 2);
        assert_eq!(c.peak_occupancy, 2);
    }
}
