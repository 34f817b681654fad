//! Per-rank buffer storage with in-place alias resolution.
//!
//! Every data operation is slice-based and in place: it moves data
//! directly between spaces, or between a space and a pooled tile, with no
//! intermediate allocation, and addresses memory by [`Loc`] — a chunk
//! position the execution plan resolved through the alias map once.
//!
//! **Lock order.** Operations touching two spaces of the same rank always
//! acquire the space locks in the fixed order `Data < Output < Scratch`
//! (declaration order of [`Space`]), regardless of which side is source
//! or destination — so concurrent two-space operations on one rank can
//! never deadlock.

use std::sync::{PoisonError, RwLock, RwLockWriteGuard};

use mscclang::{BufferKind, Collective, ReduceOp, Space};

use crate::kernels;

/// Position of a space in the fixed lock order.
fn lock_rank(space: Space) -> usize {
    match space {
        Space::Data => 0,
        Space::Output => 1,
        Space::Scratch => 2,
    }
}

/// A chunk position inside one of a rank's spaces: a buffer-relative IR
/// location already resolved through the collective's alias map. The map
/// is affine in the chunk index, so `count` consecutive IR chunks are the
/// `count` consecutive chunks starting at `chunk`. The execution plan
/// lowers every operand to one of these once; the `*_at` operations
/// below take them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Loc {
    pub(crate) space: Space,
    pub(crate) chunk: usize,
}

impl Loc {
    pub(crate) fn of(
        collective: &Collective,
        rank: usize,
        buffer: BufferKind,
        index: usize,
    ) -> Self {
        let (space, chunk) = collective.space_of(rank, buffer, index);
        Self { space, chunk }
    }

    /// The location `i` chunks further on.
    pub(crate) fn plus(self, i: usize) -> Self {
        Self {
            chunk: self.chunk + i,
            ..self
        }
    }
}

/// The three storage spaces of one rank, in elements.
///
/// Chunk indices from MSCCL-IR resolve through the collective's alias map
/// (in-place input/output share the `Data` space) into element ranges of
/// these vectors.
pub struct RankMemory {
    rank: usize,
    chunk_elems: usize,
    data: RwLock<Vec<f32>>,
    output: RwLock<Vec<f32>>,
    scratch: RwLock<Vec<f32>>,
}

/// The backing storage of one rank's three spaces, detached from the
/// lock wrappers so a caller (see `ExecArena` in the executor) can
/// recycle the allocations — and their already-faulted-in pages — across
/// runs instead of paying fresh page faults every execution.
#[derive(Default)]
pub struct SpaceBuffers {
    data: Vec<f32>,
    output: Vec<f32>,
    scratch: Vec<f32>,
}

impl SpaceBuffers {
    /// Whether all three buffers are unallocated — i.e. there is nothing
    /// to recycle and construction will take the fresh zeroed path.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty() && self.output.is_empty() && self.scratch.is_empty()
    }
}

impl RankMemory {
    /// Allocates the buffers for `rank` given the collective's layout and
    /// the rank's scratch size in chunks.
    #[must_use]
    pub fn new(
        collective: &Collective,
        rank: usize,
        scratch_chunks: usize,
        chunk_elems: usize,
    ) -> Self {
        Self::recycled(
            collective,
            rank,
            scratch_chunks,
            chunk_elems,
            SpaceBuffers::default(),
        )
    }

    /// Like [`new`](RankMemory::new) but reusing `spare`'s allocations.
    ///
    /// Chunk slots that are not the image of an input chunk are zeroed
    /// here; input-covered slots keep their stale contents. Observable
    /// state is therefore identical to a fresh construction *provided no
    /// input-covered slot is read before something writes it, unless the
    /// caller loaded it first*. The executor guarantees exactly that: it
    /// loads the input chunks the execution plan's happens-before sweep
    /// says are read from memory, and every other read of an input chunk
    /// either takes the caller's input in place or follows a write.
    #[must_use]
    pub fn recycled(
        collective: &Collective,
        rank: usize,
        scratch_chunks: usize,
        chunk_elems: usize,
        spare: SpaceBuffers,
    ) -> Self {
        Self::recycled_skipping(
            collective,
            rank,
            scratch_chunks,
            chunk_elems,
            spare,
            |_, _| false,
        )
    }

    /// Like [`recycled`](RankMemory::recycled), additionally skipping the
    /// re-zero of every chunk slot for which `overwritten(space, chunk)`
    /// holds. The caller vouches that the program fully overwrites such a
    /// chunk before ever reading it (see the execution plan's per-rank
    /// happens-before sweep), so its stale recycled contents are
    /// unobservable — the same argument that lets input-covered slots
    /// skip the zero.
    /// Only the recycled path consults the predicate; fresh allocations
    /// are zero by construction.
    #[must_use]
    pub fn recycled_skipping(
        collective: &Collective,
        rank: usize,
        scratch_chunks: usize,
        chunk_elems: usize,
        spare: SpaceBuffers,
        overwritten: impl Fn(Space, usize) -> bool,
    ) -> Self {
        let data_chunks = collective.space_size(Space::Data).unwrap_or(0);
        let output_chunks = collective.space_size(Space::Output).unwrap_or(0);
        // Input-covered chunk slots: the caller loads them or never reads
        // them before a write (see `recycled`), so they keep their bytes.
        let mut covered_data = vec![false; data_chunks];
        let mut covered_output = vec![false; output_chunks];
        for i in 0..collective.in_chunks() {
            let (space, off) = collective.space_of(rank, BufferKind::Input, i);
            match space {
                Space::Data => covered_data[off] = true,
                Space::Output => covered_output[off] = true,
                Space::Scratch => {}
            }
        }
        let prep = |mut buf: Vec<f32>, chunks: usize, covered: &[bool], space: Space| -> Vec<f32> {
            let elems = chunks * chunk_elems;
            if buf.is_empty() {
                // Fresh path: a zeroed allocation maps pages lazily.
                return vec![0.0; elems];
            }
            buf.resize(elems, 0.0);
            for c in 0..chunks {
                let cov = covered.get(c).copied().unwrap_or(false);
                if !cov && !overwritten(space, c) {
                    buf[c * chunk_elems..(c + 1) * chunk_elems].fill(0.0);
                }
            }
            buf
        };
        Self {
            rank,
            chunk_elems,
            data: RwLock::new(prep(spare.data, data_chunks, &covered_data, Space::Data)),
            output: RwLock::new(prep(
                spare.output,
                output_chunks,
                &covered_output,
                Space::Output,
            )),
            scratch: RwLock::new(prep(spare.scratch, scratch_chunks, &[], Space::Scratch)),
        }
    }

    /// Detaches the backing storage for recycling via
    /// [`recycled`](RankMemory::recycled).
    #[must_use]
    pub fn into_buffers(self) -> SpaceBuffers {
        let take = |l: RwLock<Vec<f32>>| l.into_inner().unwrap_or_else(PoisonError::into_inner);
        SpaceBuffers {
            data: take(self.data),
            output: take(self.output),
            scratch: take(self.scratch),
        }
    }

    /// The rank these buffers belong to.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Swaps the backing storage of `space` for `replacement`, returning
    /// the old buffer. The executor's output-extraction path uses this to
    /// *steal* a space whose chunks map identity-style onto the output
    /// buffer — the backing vector already is the result, so handing a
    /// recycled vector in (its length is irrelevant; the next
    /// [`recycled`](RankMemory::recycled) resizes and re-zeroes) replaces
    /// an `out_chunks × chunk_elems` copy with a pointer swap. Only valid
    /// once execution is over: the swapped-in buffer has arbitrary
    /// contents.
    #[must_use]
    pub fn swap_space_buffer(&self, space: Space, replacement: Vec<f32>) -> Vec<f32> {
        let mut guard = self
            .space(space)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *guard, replacement)
    }

    fn space(&self, space: Space) -> &RwLock<Vec<f32>> {
        match space {
            Space::Data => &self.data,
            Space::Output => &self.output,
            Space::Scratch => &self.scratch,
        }
    }

    /// Writes `values` at the element range starting at `elem_off` of the
    /// chunk at `loc`. Panics if the range is out of bounds, like every
    /// operation below.
    pub(crate) fn write_at(&self, loc: Loc, elem_off: usize, values: &[f32]) {
        let start = loc.chunk * self.chunk_elems + elem_off;
        let mut guard = self
            .space(loc.space)
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        guard[start..start + values.len()].copy_from_slice(values);
    }

    /// Copies the element range `[elem_off, elem_off + dst.len())` of the
    /// chunk at `loc` into `dst`.
    pub(crate) fn read_into_at(&self, loc: Loc, elem_off: usize, dst: &mut [f32]) {
        let start = loc.chunk * self.chunk_elems + elem_off;
        let guard = self
            .space(loc.space)
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        dst.copy_from_slice(&guard[start..start + dst.len()]);
    }

    /// A location's space and element start offset.
    fn resolve(&self, loc: Loc, elem_off: usize) -> (Space, usize) {
        (loc.space, loc.chunk * self.chunk_elems + elem_off)
    }

    /// Runs `f` over the source and destination ranges of a two-location
    /// operation, locking at most two space locks in the fixed
    /// `Data < Output < Scratch` order. Same-space overlapping ranges
    /// (legal only for copies, which use `copy_within` semantics) are
    /// handled by the `same_space` callback on one write guard.
    fn with_src_dst(
        &self,
        src: (Space, usize),
        dst: (Space, usize),
        len: usize,
        same_space: impl FnOnce(&mut [f32], usize, usize),
        two_spaces: impl FnOnce(&[f32], &mut [f32]),
    ) {
        let (s_space, s_start) = src;
        let (d_space, d_start) = dst;
        if s_space == d_space {
            let mut guard = self
                .space(d_space)
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            same_space(&mut guard, s_start, d_start);
            return;
        }
        // Two distinct spaces: acquire in lock order, then hand the
        // callback `(src read, dst write)` slices.
        let lock = |space: Space| self.space(space);
        let (first, second) = (lock(s_space), lock(d_space));
        let src_first = lock_rank(s_space) < lock_rank(d_space);
        let (sg, mut dg): (_, RwLockWriteGuard<'_, Vec<f32>>) = if src_first {
            let sg = first.read().unwrap_or_else(PoisonError::into_inner);
            let dg = second.write().unwrap_or_else(PoisonError::into_inner);
            (sg, dg)
        } else {
            // Destination ranks lower: take its write lock first.
            let dg = second.write().unwrap_or_else(PoisonError::into_inner);
            let sg = first.read().unwrap_or_else(PoisonError::into_inner);
            (sg, dg)
        };
        two_spaces(&sg[s_start..s_start + len], &mut dg[d_start..d_start + len]);
    }

    /// Copies `len` elements from one chunk location to another without
    /// materializing a temporary, locking both spaces in the fixed order.
    /// Same-space overlap behaves like `memmove`.
    pub(crate) fn copy_between_at(&self, src: Loc, dst: Loc, elem_off: usize, len: usize) {
        let s = self.resolve(src, elem_off);
        let d = self.resolve(dst, elem_off);
        self.with_src_dst(
            s,
            d,
            len,
            |buf, s_start, d_start| {
                if s_start != d_start {
                    buf.copy_within(s_start..s_start + len, d_start);
                }
            },
            |src, dst| dst.copy_from_slice(src),
        );
    }

    /// Reduces `len` elements of the source location into the destination
    /// location in place: `dst[i] = op(dst[i], src[i])`. Locks both
    /// spaces in the fixed order; same-space disjoint ranges split the
    /// buffer, and the (never compiler-emitted) overlapping case falls
    /// back to one temporary copy of the source.
    pub(crate) fn reduce_between_at(
        &self,
        src: Loc,
        dst: Loc,
        elem_off: usize,
        len: usize,
        op: ReduceOp,
    ) {
        let s = self.resolve(src, elem_off);
        let d = self.resolve(dst, elem_off);
        self.with_src_dst(
            s,
            d,
            len,
            |buf, s_start, d_start| {
                if d_start + len <= s_start || s_start + len <= d_start {
                    // Disjoint: split at the later range's start.
                    let (lo, hi, dst_is_hi) = if s_start < d_start {
                        (s_start, d_start, true)
                    } else {
                        (d_start, s_start, false)
                    };
                    let (head, tail) = buf.split_at_mut(hi);
                    if dst_is_hi {
                        kernels::reduce_into_slice(op, &mut tail[..len], &head[lo..lo + len]);
                    } else {
                        kernels::reduce_into_slice(op, &mut head[lo..lo + len], &tail[..len]);
                    }
                } else {
                    // Overlapping self-reduction: rare and never emitted by
                    // the compiler; correctness over speed.
                    let tmp = buf[s_start..s_start + len].to_vec();
                    kernels::reduce_into_slice(op, &mut buf[d_start..d_start + len], &tmp);
                }
            },
            |src, dst| kernels::reduce_into_slice(op, dst, src),
        );
    }

    /// Hands `f` the element range `[elem_off, elem_off + len)` of the
    /// chunk at `loc`, under the space's read lock.
    pub(crate) fn read_with_at(
        &self,
        loc: Loc,
        elem_off: usize,
        len: usize,
        f: impl FnOnce(&[f32]),
    ) {
        let (space, start) = self.resolve(loc, elem_off);
        let guard = self
            .space(space)
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        f(&guard[start..start + len]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The element range `[elem_off, elem_off + len)` of the chunk at
    /// `loc`, as a vector.
    fn read(mem: &RankMemory, loc: Loc, elem_off: usize, len: usize) -> Vec<f32> {
        let mut out = vec![0.0; len];
        mem.read_into_at(loc, elem_off, &mut out);
        out
    }

    #[test]
    fn read_write_round_trip() {
        let coll = Collective::all_gather(2, 2, false);
        let mem = RankMemory::new(&coll, 0, 3, 4);
        let at = Loc::of(&coll, 0, BufferKind::Scratch, 2);
        mem.write_at(at, 1, &[1.0, 2.0]);
        assert_eq!(read(&mem, at, 1, 2), vec![1.0, 2.0]);
        assert_eq!(read(&mem, at, 0, 1), vec![0.0]);
        assert_eq!(at.plus(1).chunk, at.chunk + 1);
    }

    #[test]
    fn inplace_aliasing_is_visible() {
        let coll = Collective::all_gather(2, 1, true);
        let mem = RankMemory::new(&coll, 1, 0, 2);
        // Rank 1's input chunk aliases output block 1.
        mem.write_at(Loc::of(&coll, 1, BufferKind::Input, 0), 0, &[7.0, 8.0]);
        let aliased = Loc::of(&coll, 1, BufferKind::Output, 1);
        assert_eq!(read(&mem, aliased, 0, 2), vec![7.0, 8.0]);
    }

    #[test]
    fn copy_between_spaces_moves_data() {
        let coll = Collective::all_gather(2, 1, false);
        let mem = RankMemory::new(&coll, 0, 2, 4);
        let input = Loc::of(&coll, 0, BufferKind::Input, 0);
        let scratch = Loc::of(&coll, 0, BufferKind::Scratch, 1);
        mem.write_at(input, 0, &[1.0, 2.0, 3.0, 4.0]);
        // Input lives in Data space for a non-inplace allgather; scratch
        // is its own space: a genuine two-lock copy.
        assert_ne!(input.space, scratch.space);
        mem.copy_between_at(input, scratch, 0, 4);
        assert_eq!(read(&mem, scratch, 0, 4), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn copy_between_same_space_handles_chunks() {
        let coll = Collective::all_gather(2, 1, false);
        let mem = RankMemory::new(&coll, 1, 0, 2);
        let out0 = Loc::of(&coll, 1, BufferKind::Output, 0);
        mem.write_at(out0, 0, &[5.0, 6.0]);
        mem.copy_between_at(out0, out0.plus(1), 0, 2);
        assert_eq!(read(&mem, out0.plus(1), 0, 2), vec![5.0, 6.0]);
        // Self-copy is a no-op, not a panic.
        mem.copy_between_at(out0, out0, 0, 2);
        assert_eq!(read(&mem, out0, 0, 2), vec![5.0, 6.0]);
    }

    #[test]
    fn reduce_between_matches_scalar_combine() {
        let coll = Collective::all_gather(2, 2, false);
        let mem = RankMemory::new(&coll, 0, 2, 2);
        let s0 = Loc::of(&coll, 0, BufferKind::Scratch, 0);
        let s1 = s0.plus(1);
        mem.write_at(s0, 0, &[1.0, 2.0]);
        mem.write_at(s1, 0, &[10.0, 20.0]);
        // Same space (scratch), disjoint chunks, both split directions.
        mem.reduce_between_at(s0, s1, 0, 2, ReduceOp::Sum);
        assert_eq!(read(&mem, s1, 0, 2), vec![11.0, 22.0]);
        mem.reduce_between_at(s1, s0, 0, 2, ReduceOp::Max);
        assert_eq!(read(&mem, s0, 0, 2), vec![11.0, 22.0]);
    }

    #[test]
    fn read_with_lends_the_range_without_copying_it_out() {
        let coll = Collective::all_reduce(2, 1, true);
        let mem = RankMemory::new(&coll, 0, 0, 4);
        let at = Loc::of(&coll, 0, BufferKind::Input, 0);
        mem.write_at(at, 0, &[1.0, 2.0, 3.0, 4.0]);
        let mut seen = Vec::new();
        mem.read_with_at(at, 1, 2, |s| seen.extend_from_slice(s));
        assert_eq!(seen, vec![2.0, 3.0]);
    }
}
