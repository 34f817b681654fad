//! The hazard table both DAG builders share.
//!
//! For every refined chunk location it keeps the last node that wrote the
//! location and the nodes that read it since; a new node's RAW, WAR and
//! WAW dependencies are read off it (§4.1–4.2). Locations are dense
//! indices: `rank`'s copy of a space is the block [`Space::slot`], laid out
//! like the verifier's buffers, and a chunk is its offset inside the
//! block.

use std::ops::Range;

use crate::buffer::Loc;
use crate::collective::{Collective, Space};

/// `last_writer` of a location no node has written.
const UNWRITTEN: usize = usize::MAX;

pub(crate) struct Hazards<'a> {
    collective: &'a Collective,
    /// Where each `(rank, space)` block starts: block `b` is
    /// `base[b]..base[b + 1]`.
    base: Vec<usize>,
    last_writer: Vec<usize>,
    /// The readers since the last write. A write clears the list in place,
    /// so its capacity is kept for the next readers.
    readers: Vec<Vec<usize>>,
}

impl<'a> Hazards<'a> {
    /// An empty table over `collective`'s fixed-size spaces and, on rank
    /// `r`, `scratch_chunks[r]` scratch chunks, all at the same (refined)
    /// granularity.
    pub(crate) fn new(collective: &'a Collective, scratch_chunks: &[usize]) -> Self {
        let fixed = |space| {
            collective
                .space_size(space)
                .expect("data and output are sized")
        };
        let (data, output) = (fixed(Space::Data), fixed(Space::Output));
        let mut base = Vec::with_capacity(scratch_chunks.len() * Space::ALL.len() + 1);
        let mut end = 0;
        base.push(end);
        for &scratch in scratch_chunks {
            for size in [data, output, scratch] {
                end += size;
                base.push(end);
            }
        }
        debug_assert_eq!(base.len(), collective.num_ranks() * Space::ALL.len() + 1);
        Self {
            collective,
            base,
            last_writer: vec![UNWRITTEN; end],
            readers: vec![Vec::new(); end],
        }
    }

    /// The locations of the `count` chunks from `loc`: one range, since
    /// `space_of` maps consecutive chunks of a buffer to consecutive
    /// offsets of one space.
    pub(crate) fn range(&self, loc: Loc, count: usize) -> Range<usize> {
        let (space, off) = self.collective.space_of(loc.rank, loc.buffer, loc.index);
        let block = space.slot(loc.rank);
        let start = self.base[block] + off;
        debug_assert!(
            start + count <= self.base[block + 1],
            "{count} chunks from {loc} run past its {space} space"
        );
        start..start + count
    }

    /// The node that last wrote location `at`, if any.
    pub(crate) fn last_writer(&self, at: usize) -> Option<usize> {
        Some(self.last_writer[at]).filter(|&w| w != UNWRITTEN)
    }

    /// The nodes that read location `at` since its last write.
    pub(crate) fn readers(&self, at: usize) -> &[usize] {
        &self.readers[at]
    }

    /// Records that `node` reads location `at`.
    pub(crate) fn read(&mut self, at: usize, node: usize) {
        self.readers[at].push(node);
    }

    /// Records that `node` writes location `at`.
    pub(crate) fn write(&mut self, at: usize, node: usize) {
        self.last_writer[at] = node;
        self.readers[at].clear();
    }
}
