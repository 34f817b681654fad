//! Channel assignment (§5.2).
//!
//! Communication edges are grouped into *chains*: maximal sets of edges
//! connected through fused instructions, which must share one channel. Each
//! chain takes its user-directed channel if one was given, otherwise the
//! lowest channel for which no connection conflict arises. A conflict
//! exists when an assignment would give one connection two sending or two
//! receiving thread blocks.

use std::collections::HashMap;

use crate::dag::InstrDag;
use crate::error::{Error, Result};
use crate::schedule::MAX_CHANNELS;

/// A thread block being formed during channel assignment: the unique
/// (send-peer, receive-peer, channel) home for instructions with
/// connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbDraft {
    /// Owning rank.
    pub rank: usize,
    /// Peer this thread block sends to, if any.
    pub send_peer: Option<usize>,
    /// Peer this thread block receives from, if any.
    pub recv_peer: Option<usize>,
    /// Channel of both connections.
    pub channel: usize,
}

/// The result of channel assignment.
#[derive(Debug, Clone)]
pub struct ChannelAssignment {
    /// Channel per communication edge (indexed like `dag.comm_edges`).
    pub edge_channel: Vec<usize>,
    /// Thread block drafts, globally numbered.
    pub tbs: Vec<TbDraft>,
    /// Draft index owning each node's connections (only nodes with peers).
    pub node_tb: HashMap<usize, usize>,
    /// Number of distinct channels used.
    pub num_channels: usize,
}

/// Registry of connection claims while channels are being chosen.
///
/// Drafts may merge: when a fused instruction needs both a send and a
/// receive connection whose claims live in two separate single-connection
/// drafts, those drafts unify into one thread block (provided their peer
/// slots are compatible). A union-find redirect table keeps earlier
/// placements valid across merges.
///
/// A chain's trial placement is journaled in `undo` and rolled back if any
/// member conflicts, so a trial costs its own members, not a copy of the
/// whole registry.
#[derive(Debug, Default)]
struct Registry {
    tbs: Vec<TbDraft>,
    /// Union-find parent for merged drafts.
    redirect: Vec<usize>,
    /// (rank, peer, channel) -> draft index for the sending side.
    send_claim: HashMap<(usize, usize, usize), usize>,
    /// (rank, peer, channel) -> draft index for the receiving side.
    recv_claim: HashMap<(usize, usize, usize), usize>,
    /// What the current trial changed, oldest first.
    undo: Vec<Undo>,
}

/// One journaled registry change, holding the value it overwrote.
#[derive(Debug)]
enum Undo {
    /// A draft was appended.
    NewTb,
    /// A draft's peers were changed.
    Peers(usize, Option<usize>, Option<usize>),
    /// A draft was merged into another.
    Redirect(usize, usize),
    /// A send claim was set.
    SendClaim((usize, usize, usize), Option<usize>),
    /// A receive claim was set.
    RecvClaim((usize, usize, usize), Option<usize>),
}

impl Registry {
    /// Keeps the current trial's changes.
    fn commit(&mut self) {
        self.undo.clear();
    }

    /// Reverts the current trial's changes, newest first.
    fn rollback(&mut self) {
        while let Some(change) = self.undo.pop() {
            match change {
                Undo::NewTb => {
                    self.tbs.pop();
                    self.redirect.pop();
                }
                Undo::Peers(tb, send, recv) => {
                    self.tbs[tb].send_peer = send;
                    self.tbs[tb].recv_peer = recv;
                }
                Undo::Redirect(tb, old) => self.redirect[tb] = old,
                Undo::SendClaim(key, old) => restore(&mut self.send_claim, key, old),
                Undo::RecvClaim(key, old) => restore(&mut self.recv_claim, key, old),
            }
        }
    }

    /// Journals `tb`'s peers before they change.
    fn save_peers(&mut self, tb: usize) {
        let t = &self.tbs[tb];
        self.undo.push(Undo::Peers(tb, t.send_peer, t.recv_peer));
    }

    /// Canonical draft index after merges.
    fn find(&self, mut x: usize) -> usize {
        while self.redirect[x] != x {
            x = self.redirect[x];
        }
        x
    }

    /// Tries to place a node requiring connections `(send_peer, recv_peer)`
    /// on `rank` at `channel`. Returns the draft index or `None` on
    /// conflict.
    fn place(
        &mut self,
        rank: usize,
        send_peer: Option<usize>,
        recv_peer: Option<usize>,
        channel: usize,
    ) -> Option<usize> {
        let t_send = send_peer
            .and_then(|p| self.send_claim.get(&(rank, p, channel)).copied())
            .map(|t| self.find(t));
        let t_recv = recv_peer
            .and_then(|p| self.recv_claim.get(&(rank, p, channel)).copied())
            .map(|t| self.find(t));
        let tb = match (send_peer, recv_peer) {
            (Some(_), Some(_)) => match (t_send, t_recv) {
                (Some(a), Some(b)) => {
                    if a != b {
                        // Merge the send-only and recv-only drafts if their
                        // peer slots are compatible.
                        let can_merge =
                            self.tbs[a].recv_peer.is_none() && self.tbs[b].send_peer.is_none();
                        if !can_merge {
                            return None;
                        }
                        self.save_peers(a);
                        self.tbs[a].recv_peer = self.tbs[b].recv_peer;
                        self.undo.push(Undo::Redirect(b, self.redirect[b]));
                        self.redirect[b] = a;
                        a
                    } else {
                        a
                    }
                }
                (Some(a), None) => {
                    if self.tbs[a].recv_peer.is_some_and(|p| Some(p) != recv_peer) {
                        return None;
                    }
                    a
                }
                (None, Some(b)) => {
                    if self.tbs[b].send_peer.is_some_and(|p| Some(p) != send_peer) {
                        return None;
                    }
                    b
                }
                (None, None) => self.new_tb(rank, channel),
            },
            (Some(_), None) => match t_send {
                Some(a) => a,
                None => self.new_tb(rank, channel),
            },
            (None, Some(_)) => match t_recv {
                Some(b) => b,
                None => self.new_tb(rank, channel),
            },
            (None, None) => unreachable!("placement requires at least one connection"),
        };
        self.save_peers(tb);
        if let Some(p) = send_peer {
            self.tbs[tb].send_peer = Some(p);
            let key = (rank, p, channel);
            let old = self.send_claim.insert(key, tb);
            self.undo.push(Undo::SendClaim(key, old));
        }
        if let Some(p) = recv_peer {
            self.tbs[tb].recv_peer = Some(p);
            let key = (rank, p, channel);
            let old = self.recv_claim.insert(key, tb);
            self.undo.push(Undo::RecvClaim(key, old));
        }
        Some(tb)
    }

    fn new_tb(&mut self, rank: usize, channel: usize) -> usize {
        self.tbs.push(TbDraft {
            rank,
            send_peer: None,
            recv_peer: None,
            channel,
        });
        self.redirect.push(self.tbs.len() - 1);
        self.undo.push(Undo::NewTb);
        self.tbs.len() - 1
    }
}

fn restore(
    claims: &mut HashMap<(usize, usize, usize), usize>,
    key: (usize, usize, usize),
    old: Option<usize>,
) {
    match old {
        Some(tb) => claims.insert(key, tb),
        None => claims.remove(&key),
    };
}

/// Assigns a channel to every communication edge and forms thread block
/// drafts (§5.2 "Channel Assignment").
///
/// # Errors
///
/// Returns [`Error::ChannelConflict`] when user directives force two
/// thread blocks onto one connection, and [`Error::TooManyChannels`] when
/// more than [`MAX_CHANNELS`] channels would be needed.
pub fn assign_channels(
    dag: &InstrDag,
    max_tbs_per_rank: Option<usize>,
) -> Result<ChannelAssignment> {
    let num_edges = dag.comm_edges.len();

    // Union-find uniting the comm edges that meet at fused instructions.
    let mut parent: Vec<usize> = (0..num_edges).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    let (node_out, node_in) = dag.comm_edge_index();
    for (&ein, &eout) in node_in.iter().zip(&node_out) {
        if let (Some(ein), Some(eout)) = (ein, eout) {
            let (a, b) = (find(&mut parent, ein), find(&mut parent, eout));
            if a != b {
                parent[a] = b;
            }
        }
    }

    // Group edges by chain root, ordered by their smallest edge id for
    // determinism: a chain is opened by its first (smallest) edge.
    let mut chain_of_root = vec![usize::MAX; num_edges];
    let mut chain_list: Vec<Vec<usize>> = Vec::new();
    for i in 0..num_edges {
        let r = find(&mut parent, i);
        if chain_of_root[r] == usize::MAX {
            chain_of_root[r] = chain_list.len();
            chain_list.push(Vec::new());
        }
        chain_list[chain_of_root[r]].push(i);
    }

    let mut registry = Registry::default();
    let mut edge_channel = vec![0usize; num_edges];
    let mut node_tb: HashMap<usize, usize> = HashMap::new();
    let mut num_channels = 0usize;

    for edges in &chain_list {
        // Collect the directive, if any; conflicting directives are a user
        // error.
        let mut directive: Option<usize> = None;
        for &e in edges {
            if let Some(c) = dag.comm_edges[e].channel {
                match directive {
                    None => directive = Some(c),
                    Some(d) if d != c => {
                        return Err(Error::ChannelConflict {
                            rank: dag.nodes[dag.comm_edges[e].send].rank,
                            channel: c,
                        })
                    }
                    _ => {}
                }
            }
        }

        // Distinct nodes participating in the chain, in id order.
        let mut members: Vec<usize> = edges
            .iter()
            .flat_map(|&e| [dag.comm_edges[e].send, dag.comm_edges[e].recv])
            .collect();
        members.sort_unstable();
        members.dedup();

        let candidates: Vec<usize> = match directive {
            Some(c) => vec![c],
            None => (0..MAX_CHANNELS).collect(),
        };
        let mut placed = false;
        let mut conflict_rank = dag.nodes[dag.comm_edges[edges[0]].send].rank;
        for &ch in &candidates {
            if ch >= MAX_CHANNELS {
                break;
            }
            let mut trial_tbs: Vec<(usize, usize)> = Vec::new();
            let ok = members.iter().all(|&n| {
                let node = &dag.nodes[n];
                // Only the peers whose edges belong to this chain matter,
                // and by construction a node's connections are entirely
                // within one chain.
                match registry.place(node.rank, node.send_peer, node.recv_peer, ch) {
                    Some(tb) => {
                        trial_tbs.push((n, tb));
                        true
                    }
                    None => {
                        conflict_rank = node.rank;
                        false
                    }
                }
            });
            if !ok {
                registry.rollback();
                continue;
            }
            registry.commit();
            for &e in edges {
                edge_channel[e] = ch;
            }
            for (n, tb) in trial_tbs {
                node_tb.insert(n, tb);
            }
            num_channels = num_channels.max(ch + 1);
            placed = true;
            break;
        }
        if !placed {
            return match directive {
                Some(c) => Err(Error::ChannelConflict {
                    rank: conflict_rank,
                    channel: c,
                }),
                None => Err(Error::TooManyChannels {
                    required: MAX_CHANNELS + 1,
                    limit: MAX_CHANNELS,
                }),
            };
        }
    }

    // Thread block pairing. A thread block hosting both a send and a
    // receive connection executes them sequentially, so pairing two busy
    // connections halves their throughput — it is only done under
    // SM-budget pressure, where the cooperative launch could not otherwise
    // fit (same-peer symmetric pairs first, then arbitrary pairs).
    if let Some(limit) = max_tbs_per_rank {
        let mut per_rank: HashMap<usize, usize> = HashMap::new();
        for i in 0..registry.tbs.len() {
            if registry.find(i) == i {
                *per_rank.entry(registry.tbs[i].rank).or_default() += 1;
            }
        }
        let mut send_only: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        let mut recv_only: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        for i in 0..registry.tbs.len() {
            if registry.find(i) != i {
                continue;
            }
            let tb = &registry.tbs[i];
            match (tb.send_peer, tb.recv_peer) {
                (Some(_), None) => send_only.entry((tb.rank, tb.channel)).or_default().push(i),
                (None, Some(_)) => recv_only.entry((tb.rank, tb.channel)).or_default().push(i),
                _ => {}
            }
        }
        let mut keys: Vec<(usize, usize)> = send_only.keys().copied().collect();
        keys.sort_unstable();
        // Pass 1: same-peer (symmetric exchange) pairs; pass 2: arbitrary.
        for same_peer_only in [true, false] {
            for &key in &keys {
                let rank = key.0;
                let Some(senders) = send_only.get_mut(&key) else {
                    continue;
                };
                let Some(receivers) = recv_only.get_mut(&key) else {
                    continue;
                };
                let mut si = 0;
                while si < senders.len() {
                    if per_rank.get(&rank).copied().unwrap_or(0) <= limit {
                        break;
                    }
                    let a = senders[si];
                    let peer = registry.tbs[a].send_peer.expect("send-only");
                    let pick = if same_peer_only {
                        receivers
                            .iter()
                            .position(|&b| registry.tbs[b].recv_peer == Some(peer))
                    } else {
                        (!receivers.is_empty()).then_some(0)
                    };
                    let Some(ri) = pick else {
                        si += 1;
                        continue;
                    };
                    let b = receivers.swap_remove(ri);
                    registry.tbs[a].recv_peer = registry.tbs[b].recv_peer;
                    registry.redirect[b] = a;
                    senders.swap_remove(si);
                    *per_rank.get_mut(&rank).expect("counted") -= 1;
                }
            }
        }
    }

    // Canonicalize draft ids through merges and drop dead drafts.
    let mut remap = vec![usize::MAX; registry.tbs.len()];
    let mut tbs: Vec<TbDraft> = Vec::new();
    for (i, slot) in remap.iter_mut().enumerate() {
        if registry.find(i) == i {
            *slot = tbs.len();
            tbs.push(registry.tbs[i].clone());
        }
    }
    for tb in node_tb.values_mut() {
        *tb = remap[registry.find(*tb)];
        debug_assert_ne!(*tb, usize::MAX);
    }

    Ok(ChannelAssignment {
        edge_channel,
        tbs,
        node_tb,
        num_channels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferKind;
    use crate::collective::Collective;
    use crate::dag::{ChunkDag, InstrDag};
    use crate::passes::fuse;
    use crate::program::Program;

    fn lower(p: &Program) -> InstrDag {
        let mut dag = InstrDag::build(&ChunkDag::build(p, 1).unwrap());
        fuse(&mut dag);
        dag
    }

    #[test]
    fn parallel_copies_get_distinct_channels() {
        // Two copies between the same pair of GPUs with explicit channels
        // execute in parallel (§5.1 example).
        let mut p = Program::new("t", Collective::all_gather(2, 2, false));
        let a = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let b = p.chunk(0, BufferKind::Input, 1, 1).unwrap();
        let _ = p.copy_on(&a, 1, BufferKind::Output, 0, 0).unwrap();
        let _ = p.copy_on(&b, 1, BufferKind::Output, 1, 1).unwrap();
        let dag = lower(&p);
        let ca = assign_channels(&dag, None).unwrap();
        assert_eq!(ca.edge_channel, vec![0, 1]);
        assert_eq!(ca.num_channels, 2);
        // Two sender-side drafts and two receiver-side drafts.
        assert_eq!(ca.tbs.len(), 4);
    }

    #[test]
    fn undirected_edges_share_lowest_channel_when_possible() {
        // Sends to two different peers can both use channel 0.
        let mut p = Program::new("t", Collective::all_gather(3, 1, false));
        let a = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let _ = p.copy(&a, 1, BufferKind::Output, 0).unwrap();
        let a = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let _ = p.copy(&a, 2, BufferKind::Output, 0).unwrap();
        let dag = lower(&p);
        let ca = assign_channels(&dag, None).unwrap();
        assert_eq!(ca.edge_channel, vec![0, 0]);
    }

    #[test]
    fn same_connection_twice_bumps_channel() {
        // Two independent unfused transfers over the same GPU pair: the
        // second must move to channel 1 (a connection has one sender TB).
        let mut p = Program::new("t", Collective::all_gather(2, 2, false));
        let a = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let b = p.chunk(0, BufferKind::Input, 1, 1).unwrap();
        let _ = p.copy(&a, 1, BufferKind::Output, 0).unwrap();
        let _ = p.copy(&b, 1, BufferKind::Output, 1).unwrap();
        let dag = lower(&p);
        let ca = assign_channels(&dag, None).unwrap();
        // Both sends CAN share one connection-TB pair: same (rank0 -> rank1)
        // direction joins the same draft. Channels stay 0.
        assert_eq!(ca.edge_channel, vec![0, 0]);
        let senders: Vec<_> = ca.tbs.iter().filter(|t| t.rank == 0).collect();
        assert_eq!(senders.len(), 1);
    }

    #[test]
    fn fused_chain_shares_channel() {
        let mut p = Program::new("t", Collective::all_gather(3, 1, false));
        let c = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let c = p.copy(&c, 1, BufferKind::Output, 0).unwrap();
        let _ = p.copy(&c, 2, BufferKind::Output, 0).unwrap();
        let dag = lower(&p);
        assert!(dag
            .nodes
            .iter()
            .any(|n| n.op == crate::ir::OpCode::RecvCopySend));
        let ca = assign_channels(&dag, None).unwrap();
        assert_eq!(ca.edge_channel[0], ca.edge_channel[1]);
        // The fused node's draft has both peers.
        let fused_tb = ca
            .tbs
            .iter()
            .find(|t| t.send_peer.is_some() && t.recv_peer.is_some())
            .unwrap();
        assert_eq!(fused_tb.rank, 1);
        assert_eq!(fused_tb.send_peer, Some(2));
        assert_eq!(fused_tb.recv_peer, Some(0));
    }

    #[test]
    fn conflicting_directives_in_one_chain_error() {
        // Force a fused chain across two different directed channels: the
        // fusion pass refuses to fuse them, so no conflict arises and both
        // directives are honored separately.
        let mut p = Program::new("t", Collective::all_gather(3, 1, false));
        let c = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let c = p.copy_on(&c, 1, BufferKind::Output, 0, 0).unwrap();
        let _ = p.copy_on(&c, 2, BufferKind::Output, 0, 1).unwrap();
        let dag = lower(&p);
        let ca = assign_channels(&dag, None).unwrap();
        assert_eq!(ca.edge_channel, vec![0, 1]);
    }

    #[test]
    fn directed_conflict_is_reported() {
        // Two receives from the same peer on the same directed channel,
        // where the receivers' TBs must differ: rank1 receives from rank0
        // twice on ch 0, but each recv also must send to different peers
        // after fusion — forcing two recv TBs on one connection.
        let mut p = Program::new("t", Collective::all_gather(4, 2, false));
        let a = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let a1 = p.copy_on(&a, 1, BufferKind::Output, 0, 0).unwrap();
        let _ = p.copy_on(&a1, 2, BufferKind::Output, 0, 0).unwrap();
        let b = p.chunk(0, BufferKind::Input, 1, 1).unwrap();
        let b1 = p.copy_on(&b, 1, BufferKind::Output, 1, 0).unwrap();
        let _ = p.copy_on(&b1, 3, BufferKind::Output, 1, 0).unwrap();
        let dag = lower(&p);
        // Both chains demand (rank1: recv from 0, ch0) with different send
        // peers (2 vs 3) -> conflict on the directive.
        let err = assign_channels(&dag, None).unwrap_err();
        assert!(matches!(
            err,
            Error::ChannelConflict {
                rank: 1,
                channel: 0
            }
        ));
    }

    #[test]
    fn undirected_version_of_conflict_auto_bumps() {
        let mut p = Program::new("t", Collective::all_gather(4, 2, false));
        let a = p.chunk(0, BufferKind::Input, 0, 1).unwrap();
        let a1 = p.copy(&a, 1, BufferKind::Output, 0).unwrap();
        let _ = p.copy(&a1, 2, BufferKind::Output, 0).unwrap();
        let b = p.chunk(0, BufferKind::Input, 1, 1).unwrap();
        let b1 = p.copy(&b, 1, BufferKind::Output, 1).unwrap();
        let _ = p.copy(&b1, 3, BufferKind::Output, 1).unwrap();
        let dag = lower(&p);
        let ca = assign_channels(&dag, None).unwrap();
        // The second chain lands on channel 1 automatically.
        assert_eq!(ca.num_channels, 2);
    }
}
