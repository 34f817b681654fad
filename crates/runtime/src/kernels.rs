//! Explicit SIMD element-wise kernels for every [`ReduceOp`], behind
//! runtime feature dispatch.
//!
//! The naive reduction loop calls `ReduceOp::apply` per element, which
//! re-dispatches on the operator inside the innermost loop. The first
//! generation of this module hoisted the dispatch and relied on LLVM's
//! auto-vectorizer; this one writes the vector bodies down explicitly —
//! AVX2 (8 lanes) and SSE2 (4 lanes) on `x86_64`, NEON (4 lanes) on
//! `aarch64` — so the hot loop's shape no longer depends on vectorizer
//! mood. The widest ISA the CPU actually has is picked **once** per
//! process ([`simd_level`], a cached `is_x86_feature_detected!`) and can
//! be pinned down with `MSCCL_SIMD=scalar|sse2|avx2|neon` for
//! differential testing. Everything funnels through the same two entry
//! points as before, so callers are oblivious.
//!
//! Bit-exactness is a hard contract, not an aspiration, and floats make
//! it subtle in two places:
//!
//! * **Operand order.** Every kernel computes `acc[i] = op(acc[i],
//!   src[i])` (or the mirrored `op(src[i], acc[i])` for the receive-side
//!   merge) in exactly the order the scalar runtime used — `f32::max` is
//!   not symmetric under NaN, and float add/mul are not associative.
//! * **max/min lowering.** `ReduceOp::apply` pins IEEE maxNum/minNum
//!   with an exact operand selection — ties (including `-0.0` vs
//!   `+0.0`) take the first operand, a NaN in the first takes the
//!   second — because `f32::max` leaves the tie choice to codegen and
//!   two inlinings of it can disagree bitwise. The `MAXPS`/`MINPS`
//!   instructions alone return the *second* operand on NaN or tie,
//!   which is not that function: the x86 kernels swap the operands and
//!   add an unordered-compare blend, and NEON's `FMAXNM`/`FMINNM` get
//!   tie and NaN-payload blends, so every vector body reproduces
//!   `apply` operand-for-operand.
//!
//! The per-element dispatch loop survives as
//! [`reduce_into_slice_scalar`], the oracle every SIMD path is tested
//! bitwise against (including single-NaN lanes and signed-zero ties).

use mscclang::ReduceOp;

/// Elements per unrolled chunk of the portable fallback. 8 `f32`s = one
/// AVX2 register; narrower ISAs just see a 2–4× unrolled loop, which
/// still auto-vectorizes.
const LANES: usize = 8;

/// The instruction set the reduce kernels dispatch to, picked once per
/// process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable chunked loop (auto-vectorized at best).
    Scalar,
    /// 128-bit SSE2 — the `x86_64` baseline, always available there.
    Sse2,
    /// 256-bit AVX2, when the CPU reports it.
    Avx2,
    /// 128-bit NEON — the `aarch64` baseline, always available there.
    Neon,
}

impl SimdLevel {
    /// Stable lowercase name (`scalar`/`sse2`/`avx2`/`neon`), matching
    /// what the `MSCCL_SIMD` override accepts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }
}

/// The widest level this CPU supports.
fn detected_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Sse2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        SimdLevel::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdLevel::Scalar
    }
}

/// Whether this build can execute `level` (never above what the CPU
/// reports).
fn supported(level: SimdLevel) -> bool {
    match level {
        SimdLevel::Scalar => true,
        SimdLevel::Sse2 => cfg!(target_arch = "x86_64"),
        SimdLevel::Avx2 => detected_level() == SimdLevel::Avx2,
        SimdLevel::Neon => cfg!(target_arch = "aarch64"),
    }
}

/// The level every reduce call dispatches to: the widest the CPU
/// supports, unless the `MSCCL_SIMD` environment variable pins a lower
/// one (unknown or unsupported values fall back to detection). Resolved
/// once and cached for the life of the process.
pub fn simd_level() -> SimdLevel {
    static LEVEL: std::sync::OnceLock<SimdLevel> = std::sync::OnceLock::new();
    *LEVEL.get_or_init(|| {
        let pinned =
            std::env::var("MSCCL_SIMD")
                .ok()
                .and_then(|v| match v.to_ascii_lowercase().as_str() {
                    "scalar" => Some(SimdLevel::Scalar),
                    "sse2" => Some(SimdLevel::Sse2),
                    "avx2" => Some(SimdLevel::Avx2),
                    "neon" => Some(SimdLevel::Neon),
                    _ => None,
                });
        match pinned {
            Some(l) if supported(l) => l,
            _ => detected_level(),
        }
    })
}

/// `acc[i] = op(acc[i], src[i])` over the common prefix of both slices.
#[inline]
pub fn reduce_into_slice(op: ReduceOp, acc: &mut [f32], src: &[f32]) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the level is at or below what the CPU reported.
        SimdLevel::Avx2 => unsafe { x86::avx2::reduce(op, acc, src, false) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is the x86_64 baseline.
        SimdLevel::Sse2 => unsafe { x86::sse2::reduce(op, acc, src, false) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is the aarch64 baseline.
        SimdLevel::Neon => unsafe { arm::reduce(op, acc, src, false) },
        _ => reduce_into_portable(op, acc, src),
    }
}

/// `acc[i] = op(src[i], acc[i])` — the receive-side merge order: the
/// runtime folds *local memory* (left operand) into a *received tile*
/// (right operand), and the operand order is part of the bit-exact
/// reproducibility contract (`ReduceOp::apply` max/min are not
/// symmetric under NaN).
#[inline]
pub fn reduce_from_slice(op: ReduceOp, acc: &mut [f32], src: &[f32]) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the level is at or below what the CPU reported.
        SimdLevel::Avx2 => unsafe { x86::avx2::reduce(op, acc, src, true) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is the x86_64 baseline.
        SimdLevel::Sse2 => unsafe { x86::sse2::reduce(op, acc, src, true) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is the aarch64 baseline.
        SimdLevel::Neon => unsafe { arm::reduce(op, acc, src, true) },
        _ => reduce_from_portable(op, acc, src),
    }
}

/// The per-element dispatch loop the SIMD kernels replace; kept as the
/// oracle for equivalence tests.
#[inline]
pub fn reduce_into_slice_scalar(op: ReduceOp, acc: &mut [f32], src: &[f32]) {
    for (a, &b) in acc.iter_mut().zip(src) {
        *a = op.apply(*a, b);
    }
}

#[inline(always)]
fn lanewise(acc: &mut [f32], src: &[f32], f: impl Fn(f32, f32) -> f32 + Copy) {
    let n = acc.len().min(src.len());
    let (acc, src) = (&mut acc[..n], &src[..n]);
    let mut a_chunks = acc.chunks_exact_mut(LANES);
    let mut s_chunks = src.chunks_exact(LANES);
    for (a, s) in a_chunks.by_ref().zip(s_chunks.by_ref()) {
        for i in 0..LANES {
            a[i] = f(a[i], s[i]);
        }
    }
    for (a, &s) in a_chunks
        .into_remainder()
        .iter_mut()
        .zip(s_chunks.remainder())
    {
        *a = f(*a, s);
    }
}

/// Portable `acc = op(acc, src)`, the non-SIMD-arch fallback.
fn reduce_into_portable(op: ReduceOp, acc: &mut [f32], src: &[f32]) {
    match op {
        ReduceOp::Sum => lanewise(acc, src, |a, b| a + b),
        ReduceOp::Max => lanewise(acc, src, |a, b| ReduceOp::Max.apply(a, b)),
        ReduceOp::Min => lanewise(acc, src, |a, b| ReduceOp::Min.apply(a, b)),
        ReduceOp::Prod => lanewise(acc, src, |a, b| a * b),
    }
}

/// Portable `acc = op(src, acc)`, the non-SIMD-arch fallback.
fn reduce_from_portable(op: ReduceOp, acc: &mut [f32], src: &[f32]) {
    match op {
        ReduceOp::Sum => lanewise(acc, src, |a, b| b + a),
        ReduceOp::Max => lanewise(acc, src, |a, b| ReduceOp::Max.apply(b, a)),
        ReduceOp::Min => lanewise(acc, src, |a, b| ReduceOp::Min.apply(b, a)),
        ReduceOp::Prod => lanewise(acc, src, |a, b| b * a),
    }
}

/// Stamps out one ISA's four kernels plus its dispatcher. Every vector
/// body lives syntactically inside a `#[target_feature]` function, so
/// the intrinsic calls inline (a closure without the attribute would
/// block inlining and turn each lane op into a function call).
///
/// Each kernel computes `acc[i] = op(x, y)` where `(x, y)` is
/// `(acc, src)` normally and `(src, acc)` when `from` is set — the two
/// public operand orders — with a scalar tail for the last `< W` lanes
/// using the exact scalar function, so tails and bodies agree bitwise.
#[cfg(target_arch = "x86_64")]
macro_rules! x86_isa {
    ($mod_name:ident, $feature:literal, $w:expr, $vec:ty,
     load: $load:ident, store: $store:ident,
     add: $add:ident, mul: $mul:ident,
     max: $max:ident, min: $min:ident, unord: $unord:path,
     blend: |$m:ident, $take_y:ident, $y:ident| $blend:expr) => {
        pub mod $mod_name {
            use std::arch::x86_64::*;

            use mscclang::ReduceOp;

            /// IEEE maxNum with `ReduceOp::apply`'s exact operand
            /// selection: a NaN in `x` yields `y`; ties (±0.0) yield `x`
            /// (`MAXPS(y, x)` returns its second operand on tie or NaN).
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn vmaxnum(x: $vec, y: $vec) -> $vec {
                let $m = $max(y, x);
                let $take_y = $unord(x, x);
                let $y = y;
                $blend
            }

            /// IEEE minNum, mirroring [`vmaxnum`].
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn vminnum(x: $vec, y: $vec) -> $vec {
                let $m = $min(y, x);
                let $take_y = $unord(x, x);
                let $y = y;
                $blend
            }

            macro_rules! kernel {
                ($name:ident, $vop:ident, $sop:expr) => {
                    #[target_feature(enable = $feature)]
                    unsafe fn $name(acc: &mut [f32], src: &[f32], from: bool) {
                        let n = acc.len().min(src.len());
                        let a_ptr = acc.as_mut_ptr();
                        let s_ptr = src.as_ptr();
                        let mut i = 0;
                        while i + $w <= n {
                            let a = $load(a_ptr.add(i));
                            let s = $load(s_ptr.add(i));
                            let r = if from { $vop(s, a) } else { $vop(a, s) };
                            $store(a_ptr.add(i), r);
                            i += $w;
                        }
                        let f: fn(f32, f32) -> f32 = $sop;
                        while i < n {
                            let a = *a_ptr.add(i);
                            let s = *s_ptr.add(i);
                            *a_ptr.add(i) = if from { f(s, a) } else { f(a, s) };
                            i += 1;
                        }
                    }
                };
            }

            kernel!(sum, $add, |a, b| a + b);
            kernel!(prod, $mul, |a, b| a * b);
            kernel!(max, vmaxnum, |a, b| ReduceOp::Max.apply(a, b));
            kernel!(min, vminnum, |a, b| ReduceOp::Min.apply(a, b));

            /// # Safety
            /// The caller must have verified the CPU supports this ISA.
            pub unsafe fn reduce(op: ReduceOp, acc: &mut [f32], src: &[f32], from: bool) {
                match op {
                    ReduceOp::Sum => sum(acc, src, from),
                    ReduceOp::Max => max(acc, src, from),
                    ReduceOp::Min => min(acc, src, from),
                    ReduceOp::Prod => prod(acc, src, from),
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    x86_isa!(avx2, "avx2", 8, __m256,
        load: _mm256_loadu_ps, store: _mm256_storeu_ps,
        add: _mm256_add_ps, mul: _mm256_mul_ps,
        max: _mm256_max_ps, min: _mm256_min_ps, unord: super::cmp_unord_avx,
        blend: |m, take_y, y| _mm256_blendv_ps(m, y, take_y));

    /// `_mm256_cmp_ps::<_CMP_UNORD_Q>` behind a two-argument name so the
    /// macro can treat every ISA's unordered compare uniformly.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cmp_unord_avx(
        x: std::arch::x86_64::__m256,
        y: std::arch::x86_64::__m256,
    ) -> std::arch::x86_64::__m256 {
        use std::arch::x86_64::{_mm256_cmp_ps, _CMP_UNORD_Q};
        _mm256_cmp_ps::<_CMP_UNORD_Q>(x, y)
    }

    x86_isa!(sse2, "sse2", 4, __m128,
        load: _mm_loadu_ps, store: _mm_storeu_ps,
        add: _mm_add_ps, mul: _mm_mul_ps,
        max: _mm_max_ps, min: _mm_min_ps, unord: _mm_cmpunord_ps,
        // SSE2 has no blendv; select via and/andnot/or.
        blend: |m, take_y, y| _mm_or_ps(_mm_and_ps(take_y, y), _mm_andnot_ps(take_y, m)));
}

#[cfg(target_arch = "aarch64")]
mod arm {
    use std::arch::aarch64::*;

    use mscclang::ReduceOp;

    macro_rules! kernel {
        ($name:ident, $vop:ident, $sop:expr) => {
            #[target_feature(enable = "neon")]
            unsafe fn $name(acc: &mut [f32], src: &[f32], from: bool) {
                let n = acc.len().min(src.len());
                let a_ptr = acc.as_mut_ptr();
                let s_ptr = src.as_ptr();
                let mut i = 0;
                while i + 4 <= n {
                    let a = vld1q_f32(a_ptr.add(i));
                    let s = vld1q_f32(s_ptr.add(i));
                    let r = if from { $vop(s, a) } else { $vop(a, s) };
                    vst1q_f32(a_ptr.add(i), r);
                    i += 4;
                }
                let f: fn(f32, f32) -> f32 = $sop;
                while i < n {
                    let a = *a_ptr.add(i);
                    let s = *s_ptr.add(i);
                    *a_ptr.add(i) = if from { f(s, a) } else { f(a, s) };
                    i += 1;
                }
            }
        };
    }

    kernel!(sum, vaddq_f32, |a, b| a + b);
    kernel!(prod, vmulq_f32, |a, b| a * b);

    /// `ReduceOp::Max.apply`'s pinned selection on NEON. FMAXNM is IEEE
    /// maxNum, which covers the NaN cases (a NaN in `x` yields `y` and
    /// vice versa) but resolves a ±0.0 tie to +0.0, where `apply` pins
    /// the *first* operand — so equal lanes (true only for ties; the
    /// compare is false for NaN) are blended back to `x`. Both-NaN
    /// lanes must carry the operand `apply` picks, not FMAXNM's default
    /// NaN, hence the blends on `y != y` (a NaN `y` yields `x`) and
    /// `x != x` (a NaN `x` yields `y`, applied last so both-NaN lanes
    /// carry `y`'s payload).
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn vmaxnum(x: float32x4_t, y: float32x4_t) -> float32x4_t {
        let m = vmaxnmq_f32(x, y);
        let m = vbslq_f32(vceqq_f32(x, y), x, m);
        let m = vbslq_f32(vceqq_f32(y, y), m, x);
        vbslq_f32(vceqq_f32(x, x), m, y)
    }

    /// IEEE minNum with `apply`'s pinned selection, mirroring
    /// [`vmaxnum`].
    #[inline]
    #[target_feature(enable = "neon")]
    unsafe fn vminnum(x: float32x4_t, y: float32x4_t) -> float32x4_t {
        let m = vminnmq_f32(x, y);
        let m = vbslq_f32(vceqq_f32(x, y), x, m);
        let m = vbslq_f32(vceqq_f32(y, y), m, x);
        vbslq_f32(vceqq_f32(x, x), m, y)
    }

    kernel!(max, vmaxnum, |a, b| ReduceOp::Max.apply(a, b));
    kernel!(min, vminnum, |a, b| ReduceOp::Min.apply(a, b));

    /// # Safety
    /// NEON is the aarch64 baseline, so this is always safe to call
    /// there; the signature stays `unsafe` for uniformity with the x86
    /// dispatchers.
    pub unsafe fn reduce(op: ReduceOp, acc: &mut [f32], src: &[f32], from: bool) {
        match op {
            ReduceOp::Sum => sum(acc, src, from),
            ReduceOp::Max => max(acc, src, from),
            ReduceOp::Min => min(acc, src, from),
            ReduceOp::Prod => prod(acc, src, from),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: [ReduceOp; 4] = [ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min, ReduceOp::Prod];
    const SIZES: [usize; 8] = [0, 1, 7, 8, 9, 64, 100, 1023];

    fn pseudo(seed: u32, n: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2_654_435_761).max(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                ((state % 2048) as f32 - 1024.0) / 8.0
            })
            .collect()
    }

    /// Adversarial lanes on top of `pseudo`: NaNs and signed-zero ties
    /// scattered so every vector lane position sees each at least once.
    fn spiked(seed: u32, n: usize) -> Vec<f32> {
        let mut v = pseudo(seed, n);
        for (i, x) in v.iter_mut().enumerate() {
            match i % 13 {
                3 => *x = f32::NAN,
                5 => *x = 0.0,
                7 => *x = -0.0,
                _ => {}
            }
        }
        v
    }

    fn assert_bits_eq(fast: &[f32], slow: &[f32], what: &str) {
        let fast: Vec<u32> = fast.iter().map(|v| v.to_bits()).collect();
        let slow: Vec<u32> = slow.iter().map(|v| v.to_bits()).collect();
        assert_eq!(fast, slow, "{what}");
    }

    /// A reduce entry point under test: `(op, acc, src, from)` where
    /// `from` selects the `reduce_from` direction.
    type Path = fn(ReduceOp, &mut [f32], &[f32], bool);

    /// Every kernel path this host can execute, by name: the dispatched
    /// entry points plus each ISA invoked directly, so a machine with
    /// AVX2 still covers its SSE2 kernels.
    fn paths() -> Vec<(&'static str, Path)> {
        fn dispatched(op: ReduceOp, acc: &mut [f32], src: &[f32], from: bool) {
            if from {
                reduce_from_slice(op, acc, src);
            } else {
                reduce_into_slice(op, acc, src);
            }
        }
        fn portable(op: ReduceOp, acc: &mut [f32], src: &[f32], from: bool) {
            if from {
                reduce_from_portable(op, acc, src);
            } else {
                reduce_into_portable(op, acc, src);
            }
        }
        let mut all: Vec<(&'static str, Path)> =
            vec![("dispatched", dispatched), ("portable", portable)];
        #[cfg(target_arch = "x86_64")]
        {
            fn sse2(op: ReduceOp, acc: &mut [f32], src: &[f32], from: bool) {
                // SAFETY: SSE2 is the x86_64 baseline.
                unsafe { x86::sse2::reduce(op, acc, src, from) }
            }
            all.push(("sse2", sse2));
            if std::arch::is_x86_feature_detected!("avx2") {
                fn avx2(op: ReduceOp, acc: &mut [f32], src: &[f32], from: bool) {
                    // SAFETY: gated on the feature check above.
                    unsafe { x86::avx2::reduce(op, acc, src, from) }
                }
                all.push(("avx2", avx2));
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            fn neon(op: ReduceOp, acc: &mut [f32], src: &[f32], from: bool) {
                // SAFETY: NEON is the aarch64 baseline.
                unsafe { arm::reduce(op, acc, src, from) }
            }
            all.push(("neon", neon));
        }
        all
    }

    /// Every executable SIMD path is bit-identical to the scalar
    /// dispatch loop for every operator and both operand orders, across
    /// lengths that exercise vector bodies and scalar tails, on inputs
    /// spiked with NaNs and signed-zero ties.
    #[test]
    fn matches_scalar_oracle_bitwise() {
        for (name, path) in paths() {
            for op in OPS {
                for n in SIZES {
                    for from in [false, true] {
                        let src = spiked(n as u32 + 1, n);
                        let mut fast = spiked(7, n);
                        let mut slow = fast.clone();
                        path(op, &mut fast, &src, from);
                        for (a, &b) in slow.iter_mut().zip(&src) {
                            *a = if from {
                                op.apply(b, *a)
                            } else {
                                op.apply(*a, b)
                            };
                        }
                        assert_bits_eq(&fast, &slow, &format!("{name} {op:?} n={n} from={from}"));
                    }
                }
            }
        }
    }

    /// Mismatched lengths reduce only the common prefix.
    #[test]
    fn common_prefix_only() {
        let mut acc = vec![1.0; 4];
        reduce_into_slice(ReduceOp::Sum, &mut acc, &[1.0, 1.0]);
        assert_eq!(acc, vec![2.0, 2.0, 1.0, 1.0]);
        let mut acc = vec![1.0; 2];
        reduce_into_slice(ReduceOp::Sum, &mut acc, &[1.0; 10]);
        assert_eq!(acc, vec![2.0, 2.0]);
    }

    /// NaN / max semantics follow `f32::max` exactly in both operand
    /// orders, at every lane position of every available path.
    #[test]
    fn nan_handling_matches_apply() {
        for (name, path) in paths() {
            for lane in 0..9 {
                let mut fast = pseudo(11, 9);
                fast[lane] = f32::NAN;
                let mut src = pseudo(12, 9);
                src[8 - lane] = f32::NAN;
                let mut slow = fast.clone();
                path(ReduceOp::Max, &mut fast, &src, false);
                reduce_into_slice_scalar(ReduceOp::Max, &mut slow, &src);
                assert_bits_eq(&fast, &slow, &format!("{name} lane={lane}"));
            }
        }
    }

    /// Signed-zero ties pick the same operand as the scalar lowering.
    #[test]
    fn signed_zero_ties_match_scalar() {
        for (name, path) in paths() {
            for op in [ReduceOp::Max, ReduceOp::Min] {
                for from in [false, true] {
                    let mut fast = vec![-0.0f32, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0];
                    let src = vec![0.0f32, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0, 0.0];
                    let mut slow = fast.clone();
                    path(op, &mut fast, &src, from);
                    for (a, &b) in slow.iter_mut().zip(&src) {
                        *a = if from {
                            op.apply(b, *a)
                        } else {
                            op.apply(*a, b)
                        };
                    }
                    assert_bits_eq(&fast, &slow, &format!("{name} {op:?} from={from}"));
                }
            }
        }
    }

    /// The dispatcher never picks a level the build can't execute, and
    /// the level is stable across calls.
    #[test]
    fn simd_level_is_supported_and_stable() {
        let l = simd_level();
        assert!(supported(l), "{l:?}");
        assert_eq!(l, simd_level());
        assert!(!l.name().is_empty());
    }
}
