//! Chunk values and the reduction algebra (§3.1–§3.2).
//!
//! A chunk takes one of three forms: an *input chunk* uniquely identified by
//! `(rank, index)`, a *reduction chunk* identified by the multiset of input
//! chunks combined into it, or an *uninitialized chunk*.

use std::fmt;

/// Identity of an input chunk: the pair `(rank, index)` into that rank's
/// input buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InputId {
    /// Rank whose input buffer holds the chunk at program start.
    pub rank: usize,
    /// Index within that rank's input buffer.
    pub index: usize,
}

impl InputId {
    /// Creates an input-chunk identity.
    #[must_use]
    pub fn new(rank: usize, index: usize) -> Self {
        Self { rank, index }
    }
}

impl fmt::Display for InputId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}_{}", self.rank, self.index)
    }
}

/// The symbolic value a buffer location holds during tracing/verification.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ChunkValue {
    /// No data written yet (output and scratch buffers start this way).
    Uninit,
    /// The unmodified input chunk `id`.
    Input(InputId),
    /// A pointwise reduction of two or more input chunks. The sorted
    /// multiset of inputs uniquely identifies the value; duplicates are kept
    /// because reducing a chunk into itself is *not* idempotent for sums.
    Reduction(ReductionSet),
}

impl ChunkValue {
    /// Convenience constructor for an input chunk value.
    #[must_use]
    pub fn input(rank: usize, index: usize) -> Self {
        ChunkValue::Input(InputId::new(rank, index))
    }

    /// The reduction of corresponding input chunks across `ranks` at
    /// `index` — the value an AllReduce postcondition expects.
    #[must_use]
    pub fn reduction_over<I: IntoIterator<Item = usize>>(ranks: I, index: usize) -> Self {
        let set = ReductionSet::from_inputs(ranks.into_iter().map(|r| InputId::new(r, index)));
        ChunkValue::Reduction(set)
    }

    /// Whether the value holds real data.
    #[must_use]
    pub fn is_initialized(&self) -> bool {
        !matches!(self, ChunkValue::Uninit)
    }

    /// Combines two chunk values by pointwise reduction.
    ///
    /// Returns `None` if either side is uninitialized (reducing garbage is a
    /// program error the caller reports).
    #[must_use]
    pub fn reduce(&self, other: &ChunkValue) -> Option<ChunkValue> {
        let (a, b) = (self.contributions()?, other.contributions()?);
        // Merge the two sorted multisets.
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if b[j] < a[i] {
                merged.push(b[j]);
                j += 1;
            } else {
                merged.push(a[i]);
                i += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        Some(ChunkValue::Reduction(ReductionSet(merged)))
    }

    /// The sorted input chunks combined into this value; `None` if
    /// uninitialized.
    fn contributions(&self) -> Option<&[InputId]> {
        match self {
            ChunkValue::Uninit => None,
            ChunkValue::Input(id) => Some(std::slice::from_ref(id)),
            ChunkValue::Reduction(set) => Some(&set.0),
        }
    }
}

impl fmt::Display for ChunkValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkValue::Uninit => f.write_str("⊥"),
            ChunkValue::Input(id) => id.fmt(f),
            ChunkValue::Reduction(set) => set.fmt(f),
        }
    }
}

/// A sorted multiset of input chunks forming a reduction chunk.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ReductionSet(Vec<InputId>);

impl ReductionSet {
    /// Builds a reduction set from input chunk ids.
    #[must_use]
    pub fn from_inputs<I: IntoIterator<Item = InputId>>(inputs: I) -> Self {
        let mut v: Vec<InputId> = inputs.into_iter().collect();
        v.sort_unstable();
        Self(v)
    }

    /// Number of input contributions (with multiplicity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the multiset is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The sorted contributions.
    #[must_use]
    pub fn inputs(&self) -> &[InputId] {
        &self.0
    }

    /// Whether any input chunk appears more than once — a sign the program
    /// double-counts data.
    #[must_use]
    pub fn has_duplicates(&self) -> bool {
        self.0.windows(2).any(|w| w[0] == w[1])
    }
}

impl fmt::Display for ReductionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Σ{")?;
        for (i, id) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str("+")?;
            }
            id.fmt(f)?;
        }
        f.write_str("}")
    }
}

/// The pointwise reduction operator applied by `reduce` operations.
///
/// The paper's examples use summation; the runtime supports the usual MPI
/// reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReduceOp {
    /// Pointwise addition.
    #[default]
    Sum,
    /// Pointwise maximum.
    Max,
    /// Pointwise minimum.
    Min,
    /// Pointwise product.
    Prod,
}

impl ReduceOp {
    /// Applies the operator to two `f32` operands.
    ///
    /// Max/min are IEEE `maxNum`/`minNum` with a pinned operand
    /// selection: a NaN in `a` yields `b` (and vice versa), and a ±0.0
    /// tie yields `a`. `f32::max` itself leaves the tie choice to
    /// codegen ("either may be returned"), which would let two
    /// inlinings of the same reduction disagree bitwise — every
    /// consumer (replay oracle, simulator, scalar and SIMD kernels)
    /// goes through this pinned definition instead.
    #[must_use]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => {
                if a.is_nan() {
                    b
                } else if b.is_nan() || a >= b {
                    a
                } else {
                    b
                }
            }
            ReduceOp::Min => {
                if a.is_nan() {
                    b
                } else if b.is_nan() || a <= b {
                    a
                } else {
                    b
                }
            }
            ReduceOp::Prod => a * b,
        }
    }

    /// Canonical lowercase name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Max => "max",
            ReduceOp::Min => "min",
            ReduceOp::Prod => "prod",
        }
    }
}

impl fmt::Display for ReduceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_two_inputs_forms_sorted_set() {
        let a = ChunkValue::input(2, 0);
        let b = ChunkValue::input(0, 0);
        let r = a.reduce(&b).unwrap();
        match &r {
            ChunkValue::Reduction(set) => {
                assert_eq!(set.inputs(), &[InputId::new(0, 0), InputId::new(2, 0)]);
            }
            other => panic!("expected reduction, got {other}"),
        }
    }

    #[test]
    fn reduction_is_commutative_and_associative() {
        let (a, b, c) = (
            ChunkValue::input(0, 1),
            ChunkValue::input(1, 1),
            ChunkValue::input(2, 1),
        );
        let left = a.reduce(&b).unwrap().reduce(&c).unwrap();
        let right = c.reduce(&b).unwrap().reduce(&a).unwrap();
        assert_eq!(left, right);
    }

    #[test]
    fn reduce_with_uninit_fails() {
        let a = ChunkValue::input(0, 0);
        assert!(a.reduce(&ChunkValue::Uninit).is_none());
        assert!(ChunkValue::Uninit.reduce(&a).is_none());
    }

    #[test]
    fn double_counting_is_visible() {
        let a = ChunkValue::input(0, 0);
        let twice = a.reduce(&a).unwrap();
        match twice {
            ChunkValue::Reduction(set) => assert!(set.has_duplicates()),
            other => panic!("expected reduction, got {other}"),
        }
        // And it differs from the single contribution.
        assert_ne!(
            a.reduce(&ChunkValue::input(1, 0)).unwrap(),
            a.reduce(&a).unwrap()
        );
    }

    #[test]
    fn reduction_over_matches_manual_construction() {
        let expected = ChunkValue::input(0, 3)
            .reduce(&ChunkValue::input(1, 3))
            .unwrap()
            .reduce(&ChunkValue::input(2, 3))
            .unwrap();
        assert_eq!(ChunkValue::reduction_over(0..3, 3), expected);
    }

    #[test]
    fn reduce_ops_apply() {
        assert_eq!(ReduceOp::Sum.apply(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(ReduceOp::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(ReduceOp::Prod.apply(2.0, 3.0), 6.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ChunkValue::input(1, 2).to_string(), "c1_2");
        assert_eq!(ChunkValue::Uninit.to_string(), "⊥");
        let r = ChunkValue::reduction_over(0..2, 0);
        assert_eq!(r.to_string(), "Σ{c0_0+c1_0}");
    }
}
