//! One lowering of MSCCL-IR: the numbering the verifier, [`crate::order`],
//! the runtime's plan and the simulator share. Blocks get flat ids in
//! rank-major order and steps in rank-major, then `(tb, step)` order, so a
//! block's steps and a rank's blocks are contiguous ranges. Connections
//! get dense ids in first-mention order: each block in flat order names
//! its send connection, then its receive connection. A dependency
//! resolves to its block and step in O(1).

use std::collections::HashMap;
use std::ops::Range;

use crate::error::{Error, Result};
use crate::ir::{IrDep, IrProgram, IrThreadBlock};

/// A program's blocks, steps and connections, densely numbered. See the
/// [module docs](self).
#[derive(Debug)]
pub struct Lowered<'ir> {
    ir: &'ir IrProgram,
    /// `rank_first[r]..rank_first[r + 1]` are rank `r`'s flat block ids.
    rank_first: Vec<usize>,
    blocks: Vec<Block<'ir>>,
    conns: Vec<(usize, usize, usize)>,
}

/// One thread block, at its flat id.
#[derive(Debug, Clone, Copy)]
pub struct Block<'ir> {
    /// The block as the IR holds it.
    pub tb: &'ir IrThreadBlock,
    /// Its rank.
    pub rank: usize,
    /// Flat id of its step 0.
    pub first_step: usize,
    /// Its send connection id.
    pub send: Option<usize>,
    /// Its receive connection id.
    pub recv: Option<usize>,
}

impl Block<'_> {
    /// The block's flat step ids, step 0 first.
    #[must_use]
    pub fn steps(&self) -> Range<usize> {
        self.first_step..self.first_step + self.tb.instructions.len()
    }
}

fn fail<T>(message: String) -> Result<T> {
    Err(Error::Verification { message })
}

impl<'ir> Lowered<'ir> {
    /// Numbers `ir`'s blocks, steps and connections; panics past
    /// `u32::MAX` steps, the limit of [`crate::order::Dag`] ids.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Verification`], with the message
    /// [`IrProgram::check_structure`] gives, for the first thing that
    /// cannot be indexed: a rank or block id that is not its position, a
    /// bad or doubly used peer, an instruction whose connection is
    /// missing, a dependency on a missing block or step, or a connection
    /// with only one end.
    pub fn new(ir: &'ir IrProgram) -> Result<Self> {
        let num_ranks = ir.gpus.len();
        let mut rank_first = Vec::with_capacity(num_ranks + 1);
        let mut blocks: Vec<Block<'ir>> = Vec::with_capacity(ir.num_threadblocks());
        let mut conn_of: HashMap<(usize, usize, usize), usize> = HashMap::new();
        let mut conns = Vec::new();
        // Per connection id: whether a block sends on it, whether one
        // receives on it.
        let mut ends: Vec<[bool; 2]> = Vec::new();
        let mut num_steps = 0;
        for (r, gpu) in ir.gpus.iter().enumerate() {
            if gpu.rank != r {
                return fail(format!("gpu at position {r} has rank {}", gpu.rank));
            }
            rank_first.push(blocks.len());
            for (t, tb) in gpu.threadblocks.iter().enumerate() {
                if tb.id != t {
                    let id = tb.id;
                    return fail(format!(
                        "rank {r}: thread block at position {t} has id {id}"
                    ));
                }
                // This block's end of the connection to `peer`: `0` sends,
                // `1` receives.
                let mut connect = |end: usize, peer: Option<usize>| {
                    let Some(p) = peer else { return Ok(None) };
                    let (what, verb, key) = match end {
                        0 => ("send", "send", (r, p, tb.channel)),
                        _ => ("recv", "receive", (p, r, tb.channel)),
                    };
                    if p >= num_ranks || p == r {
                        return fail(format!("rank {r} tb {t}: invalid {what} peer {p}"));
                    }
                    let c = *conn_of.entry(key).or_insert_with(|| {
                        conns.push(key);
                        ends.push([false; 2]);
                        conns.len() - 1
                    });
                    if std::mem::replace(&mut ends[c][end], true) {
                        let (a, b, ch) = key;
                        return fail(format!(
                            "two thread blocks {verb} on connection ({a} -> {b}, ch {ch})"
                        ));
                    }
                    Ok(Some(c))
                };
                let send = connect(0, tb.send_peer)?;
                let recv = connect(1, tb.recv_peer)?;
                for (s, instr) in tb.instructions.iter().enumerate() {
                    let at = |what: String| fail(format!("rank {r} tb {t} step {s}: {what}"));
                    if instr.op.has_send() && send.is_none() {
                        return at("send without a send connection".into());
                    }
                    if instr.op.has_recv() && recv.is_none() {
                        return at("recv without a receive connection".into());
                    }
                    for d in &instr.deps {
                        match gpu.threadblocks.get(d.tb) {
                            None => return at(format!("dependency on missing tb {}", d.tb)),
                            Some(dep) if d.step >= dep.instructions.len() => {
                                let (step, tb) = (d.step, d.tb);
                                return at(format!("dependency on missing step {step} of tb {tb}"));
                            }
                            Some(_) => {}
                        }
                    }
                }
                blocks.push(Block {
                    tb,
                    rank: r,
                    first_step: num_steps,
                    send,
                    recv,
                });
                num_steps += tb.instructions.len();
            }
        }
        rank_first.push(blocks.len());
        u32::try_from(num_steps).expect("flat step ids fit in u32");
        for (&(a, b, c), &[sent, received]) in conns.iter().zip(&ends) {
            if !(sent && received) {
                let (has, lacks) = if sent {
                    ("sender", "receiver")
                } else {
                    ("receiver", "sender")
                };
                return fail(format!(
                    "connection ({a} -> {b}, ch {c}) has a {has} but no {lacks}"
                ));
            }
        }
        Ok(Self {
            ir,
            rank_first,
            blocks,
            conns,
        })
    }

    /// The program this numbers.
    #[must_use]
    pub fn ir(&self) -> &'ir IrProgram {
        self.ir
    }

    /// Every block, indexed by flat id.
    #[must_use]
    pub fn blocks(&self) -> &[Block<'ir>] {
        &self.blocks
    }

    /// Rank `rank`'s flat block ids.
    #[must_use]
    pub fn rank_blocks(&self, rank: usize) -> Range<usize> {
        self.rank_first[rank]..self.rank_first[rank + 1]
    }

    /// Number of instructions: flat step ids are `0..num_steps()`.
    #[must_use]
    pub fn num_steps(&self) -> usize {
        self.blocks.last().map_or(0, |b| b.steps().end)
    }

    /// `(src rank, dst rank, channel)` per connection id.
    #[must_use]
    pub fn conns(&self) -> &[(usize, usize, usize)] {
        &self.conns
    }

    /// The flat block and flat step a dependency of an instruction on
    /// `rank` names.
    #[must_use]
    pub fn dep(&self, rank: usize, dep: &IrDep) -> (usize, usize) {
        let b = self.rank_first[rank] + dep.tb;
        (b, self.blocks[b].first_step + dep.step)
    }
}
