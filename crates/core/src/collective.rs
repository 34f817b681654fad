//! Collective definitions: preconditions and postconditions (§3.2).
//!
//! A collective defines the starting state of every rank's input buffer
//! (the *precondition*: unique input chunks) and the required final state
//! of every rank's output buffer (the *postcondition*: for each output
//! index, the input or reduction chunk that must end up there). Defining
//! the postcondition lets MSCCLang validate automatically that an algorithm
//! implements its collective.

use std::fmt;

use crate::buffer::BufferKind;
use crate::chunk::{ChunkValue, InputId, ReductionSet};

/// The physical storage space a buffer resolves to. In-place algorithms
/// alias the input and output buffers onto a single `Data` space (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Space {
    /// The (possibly shared) data space holding input and/or output chunks.
    Data,
    /// The output space of an out-of-place algorithm.
    Output,
    /// Temporary storage.
    Scratch,
}

impl Space {
    /// Every space, in [`Space::index`] order.
    pub const ALL: [Space; 3] = [Space::Data, Space::Output, Space::Scratch];

    /// The space's dense index, its position in [`Space::ALL`]: for
    /// per-space tables.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The dense index of `rank`'s copy of this space. Per-location tables
    /// (the verifier's buffers, the DAG builders' hazards) keep the blocks
    /// of every `(rank, space)` in this order.
    pub(crate) fn slot(self, rank: usize) -> usize {
        rank * Self::ALL.len() + self.index()
    }
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Space::Data => f.write_str("data"),
            Space::Output => f.write_str("output"),
            Space::Scratch => f.write_str("scratch"),
        }
    }
}

/// Well-known collective shapes; used for reporting and for in-place alias
/// layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CollectiveKind {
    /// Global reduction replicated everywhere.
    AllReduce,
    /// Concatenation of all inputs everywhere.
    AllGather,
    /// Global reduction scattered across ranks.
    ReduceScatter,
    /// Transpose of data between ranks.
    AllToAll,
    /// Rank `i` sends its buffer to rank `i + 1` (the paper's custom
    /// collective, §7.4).
    AllToNext,
    /// Root's input replicated everywhere.
    Broadcast,
    /// Global reduction at the root only.
    Reduce,
    /// Concatenation of all inputs at the root only.
    Gather,
    /// Root's input distributed across ranks.
    Scatter,
    /// A user-defined pre/postcondition pair.
    Custom,
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollectiveKind::AllReduce => "allreduce",
            CollectiveKind::AllGather => "allgather",
            CollectiveKind::ReduceScatter => "reduce_scatter",
            CollectiveKind::AllToAll => "alltoall",
            CollectiveKind::AllToNext => "alltonext",
            CollectiveKind::Broadcast => "broadcast",
            CollectiveKind::Reduce => "reduce",
            CollectiveKind::Gather => "gather",
            CollectiveKind::Scatter => "scatter",
            CollectiveKind::Custom => "custom",
        };
        f.write_str(s)
    }
}

/// A collective communication operation: rank count, chunk layout,
/// precondition and postcondition.
#[derive(Debug, Clone, PartialEq)]
pub struct Collective {
    kind: CollectiveKind,
    num_ranks: usize,
    in_chunks: usize,
    out_chunks: usize,
    inplace: bool,
    /// Root rank for rooted collectives (broadcast, reduce, gather,
    /// scatter); `None` otherwise.
    root: Option<usize>,
    /// `post[rank][out_index]`: expected value, or `None` if unconstrained.
    postcondition: Vec<Vec<Option<ChunkValue>>>,
}

impl Collective {
    /// AllReduce over `num_ranks` ranks with `chunk_factor` chunks per rank.
    ///
    /// # Panics
    ///
    /// Panics if `num_ranks` or `chunk_factor` is zero.
    #[must_use]
    pub fn all_reduce(num_ranks: usize, chunk_factor: usize, inplace: bool) -> Self {
        assert!(num_ranks > 0 && chunk_factor > 0);
        let post = (0..num_ranks)
            .map(|_| {
                (0..chunk_factor)
                    .map(|i| Some(ChunkValue::reduction_over(0..num_ranks, i)))
                    .collect()
            })
            .collect();
        Self {
            kind: CollectiveKind::AllReduce,
            num_ranks,
            in_chunks: chunk_factor,
            out_chunks: chunk_factor,
            inplace,
            root: None,
            postcondition: post,
        }
    }

    /// AllGather: every rank ends with the concatenation of all inputs.
    ///
    /// # Panics
    ///
    /// Panics if `num_ranks` or `chunk_factor` is zero.
    #[must_use]
    pub fn all_gather(num_ranks: usize, chunk_factor: usize, inplace: bool) -> Self {
        assert!(num_ranks > 0 && chunk_factor > 0);
        let per_rank: Vec<Option<ChunkValue>> = (0..num_ranks)
            .flat_map(|q| (0..chunk_factor).map(move |i| Some(ChunkValue::input(q, i))))
            .collect();
        Self {
            kind: CollectiveKind::AllGather,
            num_ranks,
            in_chunks: chunk_factor,
            out_chunks: num_ranks * chunk_factor,
            inplace,
            root: None,
            postcondition: vec![per_rank; num_ranks],
        }
    }

    /// ReduceScatter: rank `r` ends with the reduction of everyone's block
    /// `r`.
    ///
    /// # Panics
    ///
    /// Panics if `num_ranks` or `chunk_factor` is zero.
    #[must_use]
    pub fn reduce_scatter(num_ranks: usize, chunk_factor: usize, inplace: bool) -> Self {
        assert!(num_ranks > 0 && chunk_factor > 0);
        let post = (0..num_ranks)
            .map(|r| {
                (0..chunk_factor)
                    .map(|i| {
                        Some(ChunkValue::Reduction(ReductionSet::from_inputs(
                            (0..num_ranks).map(|q| InputId::new(q, r * chunk_factor + i)),
                        )))
                    })
                    .collect()
            })
            .collect();
        Self {
            kind: CollectiveKind::ReduceScatter,
            num_ranks,
            in_chunks: num_ranks * chunk_factor,
            out_chunks: chunk_factor,
            inplace,
            root: None,
            postcondition: post,
        }
    }

    /// AllToAll: output block `q` of rank `r` is input block `r` of rank
    /// `q`, each block being `chunk_factor` chunks.
    ///
    /// # Panics
    ///
    /// Panics if `num_ranks` or `chunk_factor` is zero.
    #[must_use]
    pub fn all_to_all(num_ranks: usize, chunk_factor: usize) -> Self {
        assert!(num_ranks > 0 && chunk_factor > 0);
        let post = (0..num_ranks)
            .map(|r| {
                (0..num_ranks)
                    .flat_map(|q| {
                        (0..chunk_factor)
                            .map(move |i| Some(ChunkValue::input(q, r * chunk_factor + i)))
                    })
                    .collect()
            })
            .collect();
        Self {
            kind: CollectiveKind::AllToAll,
            num_ranks,
            in_chunks: num_ranks * chunk_factor,
            out_chunks: num_ranks * chunk_factor,
            inplace: false,
            root: None,
            postcondition: post,
        }
    }

    /// AllToNext: rank `r` receives rank `r-1`'s buffer; rank 0's output is
    /// unconstrained and the last rank's data goes nowhere (§7.4).
    ///
    /// # Panics
    ///
    /// Panics if `num_ranks` or `chunk_factor` is zero.
    #[must_use]
    pub fn all_to_next(num_ranks: usize, chunk_factor: usize) -> Self {
        assert!(num_ranks > 0 && chunk_factor > 0);
        let post = (0..num_ranks)
            .map(|r| {
                (0..chunk_factor)
                    .map(|i| {
                        if r == 0 {
                            None
                        } else {
                            Some(ChunkValue::input(r - 1, i))
                        }
                    })
                    .collect()
            })
            .collect();
        Self {
            kind: CollectiveKind::AllToNext,
            num_ranks,
            in_chunks: chunk_factor,
            out_chunks: chunk_factor,
            inplace: false,
            root: None,
            postcondition: post,
        }
    }

    /// Broadcast from `root`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero or `root` is out of range.
    #[must_use]
    pub fn broadcast(num_ranks: usize, chunk_factor: usize, root: usize) -> Self {
        assert!(num_ranks > 0 && chunk_factor > 0 && root < num_ranks);
        let per_rank: Vec<Option<ChunkValue>> = (0..chunk_factor)
            .map(|i| Some(ChunkValue::input(root, i)))
            .collect();
        Self {
            kind: CollectiveKind::Broadcast,
            num_ranks,
            in_chunks: chunk_factor,
            out_chunks: chunk_factor,
            inplace: false,
            root: Some(root),
            postcondition: vec![per_rank; num_ranks],
        }
    }

    /// Reduce to `root`: only the root's output is constrained.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero or `root` is out of range.
    #[must_use]
    pub fn reduce(num_ranks: usize, chunk_factor: usize, root: usize) -> Self {
        assert!(num_ranks > 0 && chunk_factor > 0 && root < num_ranks);
        let post = (0..num_ranks)
            .map(|r| {
                (0..chunk_factor)
                    .map(|i| (r == root).then(|| ChunkValue::reduction_over(0..num_ranks, i)))
                    .collect()
            })
            .collect();
        Self {
            kind: CollectiveKind::Reduce,
            num_ranks,
            in_chunks: chunk_factor,
            out_chunks: chunk_factor,
            inplace: false,
            root: Some(root),
            postcondition: post,
        }
    }

    /// Gather to `root`: the root's output is the concatenation of all
    /// inputs.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero or `root` is out of range.
    #[must_use]
    pub fn gather(num_ranks: usize, chunk_factor: usize, root: usize) -> Self {
        assert!(num_ranks > 0 && chunk_factor > 0 && root < num_ranks);
        let post = (0..num_ranks)
            .map(|r| {
                (0..num_ranks * chunk_factor)
                    .map(|j| {
                        (r == root).then(|| ChunkValue::input(j / chunk_factor, j % chunk_factor))
                    })
                    .collect()
            })
            .collect();
        Self {
            kind: CollectiveKind::Gather,
            num_ranks,
            in_chunks: chunk_factor,
            out_chunks: num_ranks * chunk_factor,
            inplace: false,
            root: Some(root),
            postcondition: post,
        }
    }

    /// Scatter from `root`: rank `r` receives the root's block `r`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero or `root` is out of range.
    #[must_use]
    pub fn scatter(num_ranks: usize, chunk_factor: usize, root: usize) -> Self {
        assert!(num_ranks > 0 && chunk_factor > 0 && root < num_ranks);
        let post = (0..num_ranks)
            .map(|r| {
                (0..chunk_factor)
                    .map(|i| Some(ChunkValue::input(root, r * chunk_factor + i)))
                    .collect()
            })
            .collect();
        Self {
            kind: CollectiveKind::Scatter,
            num_ranks,
            in_chunks: num_ranks * chunk_factor,
            out_chunks: chunk_factor,
            inplace: false,
            root: Some(root),
            postcondition: post,
        }
    }

    /// A custom collective from an explicit postcondition.
    ///
    /// # Panics
    ///
    /// Panics if the postcondition does not have `num_ranks` rows of
    /// `out_chunks` entries, or any dimension is zero.
    #[must_use]
    pub fn custom(
        num_ranks: usize,
        in_chunks: usize,
        out_chunks: usize,
        postcondition: Vec<Vec<Option<ChunkValue>>>,
    ) -> Self {
        assert!(num_ranks > 0 && in_chunks > 0 && out_chunks > 0);
        assert_eq!(
            postcondition.len(),
            num_ranks,
            "postcondition must cover every rank"
        );
        for row in &postcondition {
            assert_eq!(
                row.len(),
                out_chunks,
                "postcondition row must cover every output chunk"
            );
        }
        Self {
            kind: CollectiveKind::Custom,
            num_ranks,
            in_chunks,
            out_chunks,
            inplace: false,
            root: None,
            postcondition,
        }
    }

    /// The collective's shape.
    #[must_use]
    pub fn kind(&self) -> CollectiveKind {
        self.kind
    }

    /// Number of participating ranks.
    #[must_use]
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// Chunks in each rank's input buffer.
    #[must_use]
    pub fn in_chunks(&self) -> usize {
        self.in_chunks
    }

    /// Chunks in each rank's output buffer.
    #[must_use]
    pub fn out_chunks(&self) -> usize {
        self.out_chunks
    }

    /// Whether input and output buffers alias (§3.1).
    #[must_use]
    pub fn inplace(&self) -> bool {
        self.inplace
    }

    /// Root rank for rooted collectives, `None` otherwise.
    #[must_use]
    pub fn root(&self) -> Option<usize> {
        self.root
    }

    /// Precondition: the value initially held at `index` of `rank`'s input
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `rank` or `index` is out of range.
    #[must_use]
    pub fn precondition(&self, rank: usize, index: usize) -> ChunkValue {
        assert!(rank < self.num_ranks && index < self.in_chunks);
        ChunkValue::input(rank, index)
    }

    /// Postcondition: the value required at `index` of `rank`'s output
    /// buffer, or `None` if unconstrained.
    ///
    /// # Panics
    ///
    /// Panics if `rank` or `index` is out of range.
    #[must_use]
    pub fn postcondition(&self, rank: usize, index: usize) -> Option<&ChunkValue> {
        assert!(rank < self.num_ranks && index < self.out_chunks);
        self.postcondition[rank][index].as_ref()
    }

    /// Resolves a `(rank, buffer, index)` triple to its storage space and
    /// offset, applying in-place aliasing.
    ///
    /// For in-place algorithms both input and output map onto the `Data`
    /// space of size `max(in_chunks, out_chunks)`: an in-place AllGather's
    /// input occupies block `rank` of the output, and an in-place
    /// ReduceScatter's output occupies block `rank` of the input.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[must_use]
    pub fn space_of(&self, rank: usize, buffer: BufferKind, index: usize) -> (Space, usize) {
        assert!(rank < self.num_ranks);
        match (buffer, self.inplace) {
            (BufferKind::Scratch, _) => (Space::Scratch, index),
            (BufferKind::Input, false) => (Space::Data, index),
            (BufferKind::Output, false) => (Space::Output, index),
            (BufferKind::Input, true) => {
                if self.out_chunks > self.in_chunks {
                    // e.g. in-place AllGather: input lives inside the output.
                    (Space::Data, rank * self.in_chunks + index)
                } else {
                    (Space::Data, index)
                }
            }
            (BufferKind::Output, true) => {
                if self.in_chunks > self.out_chunks {
                    // e.g. in-place ReduceScatter: output lives inside input.
                    (Space::Data, rank * self.out_chunks + index)
                } else {
                    (Space::Data, index)
                }
            }
        }
    }

    /// Size (in chunks) of a storage space on each rank; `None` for the
    /// dynamically-sized scratch space.
    #[must_use]
    pub fn space_size(&self, space: Space) -> Option<usize> {
        match space {
            Space::Data => {
                if self.inplace {
                    Some(self.in_chunks.max(self.out_chunks))
                } else {
                    Some(self.in_chunks)
                }
            }
            Space::Output => {
                if self.inplace {
                    Some(0)
                } else {
                    Some(self.out_chunks)
                }
            }
            Space::Scratch => None,
        }
    }

    /// Refines the collective by `factor`: every chunk splits into `factor`
    /// subchunks. Used by chunk parallelization (§5.1), which multiplies the
    /// number of chunks while each operation instance handles `1/factor` of
    /// the data.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    #[must_use]
    pub fn refine(&self, factor: usize) -> Self {
        assert!(factor > 0, "refinement factor must be positive");
        if factor == 1 {
            return self.clone();
        }
        let refine_value = |v: &ChunkValue, k: usize| -> ChunkValue {
            match v {
                ChunkValue::Uninit => ChunkValue::Uninit,
                ChunkValue::Input(id) => ChunkValue::input(id.rank, id.index * factor + k),
                ChunkValue::Reduction(set) => ChunkValue::Reduction(ReductionSet::from_inputs(
                    set.inputs()
                        .iter()
                        .map(|id| InputId::new(id.rank, id.index * factor + k)),
                )),
            }
        };
        let post = self
            .postcondition
            .iter()
            .map(|row| {
                row.iter()
                    .flat_map(|entry| {
                        (0..factor).map(move |k| entry.as_ref().map(|v| refine_value(v, k)))
                    })
                    .collect()
            })
            .collect();
        Self {
            kind: self.kind,
            num_ranks: self.num_ranks,
            in_chunks: self.in_chunks * factor,
            out_chunks: self.out_chunks * factor,
            inplace: self.inplace,
            root: self.root,
            postcondition: post,
        }
    }
}

impl fmt::Display for Collective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(ranks={}, in={}, out={}{})",
            self.kind,
            self.num_ranks,
            self.in_chunks,
            self.out_chunks,
            if self.inplace { ", inplace" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_postcondition_sums_all_ranks() {
        let c = Collective::all_reduce(3, 2, false);
        let v = c.postcondition(1, 0).unwrap();
        assert_eq!(*v, ChunkValue::reduction_over(0..3, 0));
        assert_eq!(
            c.postcondition(2, 1).unwrap(),
            &ChunkValue::reduction_over(0..3, 1)
        );
    }

    #[test]
    fn allgather_postcondition_concatenates() {
        let c = Collective::all_gather(2, 3, false);
        assert_eq!(c.out_chunks(), 6);
        assert_eq!(c.postcondition(0, 4).unwrap(), &ChunkValue::input(1, 1));
    }

    #[test]
    fn reduce_scatter_blocks() {
        let c = Collective::reduce_scatter(2, 2, false);
        assert_eq!(c.in_chunks(), 4);
        let v = c.postcondition(1, 0).unwrap();
        assert_eq!(
            *v,
            ChunkValue::Reduction(ReductionSet::from_inputs(
                (0..2).map(|q| InputId::new(q, 2))
            ))
        );
    }

    #[test]
    fn alltoall_transposes() {
        let c = Collective::all_to_all(3, 1);
        // output chunk q of rank r = input chunk r of rank q
        assert_eq!(c.postcondition(2, 0).unwrap(), &ChunkValue::input(0, 2));
        assert_eq!(c.postcondition(0, 2).unwrap(), &ChunkValue::input(2, 0));
    }

    #[test]
    fn alltonext_leaves_rank0_unconstrained() {
        let c = Collective::all_to_next(3, 2);
        assert!(c.postcondition(0, 0).is_none());
        assert_eq!(c.postcondition(1, 1).unwrap(), &ChunkValue::input(0, 1));
        assert_eq!(c.postcondition(2, 0).unwrap(), &ChunkValue::input(1, 0));
    }

    #[test]
    fn rooted_collectives_constrain_only_their_targets() {
        let red = Collective::reduce(4, 1, 2);
        assert!(red.postcondition(0, 0).is_none());
        assert!(red.postcondition(2, 0).is_some());

        let gat = Collective::gather(2, 2, 0);
        assert_eq!(gat.out_chunks(), 4);
        assert!(gat.postcondition(1, 0).is_none());
        assert_eq!(gat.postcondition(0, 3).unwrap(), &ChunkValue::input(1, 1));

        let sca = Collective::scatter(2, 2, 1);
        assert_eq!(sca.postcondition(0, 1).unwrap(), &ChunkValue::input(1, 1));
        assert_eq!(sca.postcondition(1, 0).unwrap(), &ChunkValue::input(1, 2));
    }

    #[test]
    fn inplace_allreduce_aliases_buffers() {
        let c = Collective::all_reduce(2, 4, true);
        assert_eq!(c.space_of(0, BufferKind::Input, 2), (Space::Data, 2));
        assert_eq!(c.space_of(0, BufferKind::Output, 2), (Space::Data, 2));
        assert_eq!(c.space_size(Space::Data), Some(4));
        assert_eq!(c.space_size(Space::Output), Some(0));
    }

    #[test]
    fn inplace_allgather_offsets_input() {
        let c = Collective::all_gather(4, 2, true);
        assert_eq!(c.space_of(3, BufferKind::Input, 1), (Space::Data, 7));
        assert_eq!(c.space_of(3, BufferKind::Output, 1), (Space::Data, 1));
        assert_eq!(c.space_size(Space::Data), Some(8));
    }

    #[test]
    fn inplace_reduce_scatter_offsets_output() {
        let c = Collective::reduce_scatter(4, 2, true);
        assert_eq!(c.space_of(3, BufferKind::Output, 1), (Space::Data, 7));
        assert_eq!(c.space_of(3, BufferKind::Input, 5), (Space::Data, 5));
    }

    #[test]
    fn out_of_place_spaces_are_disjoint() {
        let c = Collective::all_to_all(2, 1);
        assert_eq!(c.space_of(0, BufferKind::Input, 1), (Space::Data, 1));
        assert_eq!(c.space_of(0, BufferKind::Output, 1), (Space::Output, 1));
        assert_eq!(c.space_of(0, BufferKind::Scratch, 9), (Space::Scratch, 9));
        assert_eq!(c.space_size(Space::Scratch), None);
    }

    #[test]
    fn refine_scales_chunks_and_postcondition() {
        let c = Collective::all_gather(2, 1, false).refine(2);
        assert_eq!(c.in_chunks(), 2);
        assert_eq!(c.out_chunks(), 4);
        // old out[0][1] = Input(1,0) becomes out[0][2..4] = Input(1,0..2)
        assert_eq!(c.postcondition(0, 2).unwrap(), &ChunkValue::input(1, 0));
        assert_eq!(c.postcondition(0, 3).unwrap(), &ChunkValue::input(1, 1));
    }

    #[test]
    fn refine_rewrites_reductions() {
        let c = Collective::all_reduce(2, 1, false).refine(3);
        assert_eq!(
            c.postcondition(0, 2).unwrap(),
            &ChunkValue::reduction_over(0..2, 2)
        );
    }

    #[test]
    fn refine_by_one_is_identity() {
        let c = Collective::all_reduce(4, 2, true);
        assert_eq!(c.refine(1), c);
    }

    #[test]
    #[should_panic]
    fn custom_validates_shape() {
        let _ = Collective::custom(2, 1, 1, vec![vec![None]]);
    }
}
