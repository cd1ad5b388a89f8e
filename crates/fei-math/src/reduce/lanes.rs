//! Explicit SIMD lane layer: fixed-width accumulator blocks with a pinned
//! pairwise fold order.
//!
//! The striped reductions in [`reduce`](crate::reduce) all share one
//! numeric contract: element `i` of a full block feeds lane `i % LANES`,
//! and the lanes are folded in the fixed pairwise tree
//! `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`. This module makes that
//! contract a *type*: [`F64x4`] and [`F64x8`] are hand-unrolled lane
//! blocks (no `std::simd`, no `unsafe` — named `f64` fields that LLVM
//! keeps in vector registers) whose `fold_pairwise` methods are the only
//! way lanes recombine. Every kernel built on them — `dot`, `dot_rows`,
//! the packed matmul micro-kernel — therefore inherits the same
//! combination order, which is what keeps the fast path bit-identical
//! across serial/threaded engines and golden-numerics pins.
//!
//! Three codegen facts shape the API, all measured:
//!
//! * **Named fields, not arrays.** An indexed `[f64; 8]` accumulator
//!   round-trips through the stack; named locals stay in `ymm`
//!   registers (~1.7x on `dot`).
//! * **Reductions only.** For *element-wise* streams (AXPY-style
//!   updates) an explicit `load → op → store` over lane blocks defeats
//!   LLVM's store coalescing and runs ~3x *slower* than the plain
//!   iterator loop it auto-vectorizes. Element-wise kernels therefore
//!   route through the scalar lane op ([`axpy_shrink_step`]) applied in
//!   loop form; the lane *types* are reserved for accumulation, where
//!   they win. A GEMM accumulator block is accumulation too: it is
//!   loaded and stored once per block (`load`/`store`), not per element.
//! * **Fold out of line when several accumulators fold at once.** If
//!   `dot_rows` stores its five `fold_pairwise` results to adjacent
//!   outputs in the kernel body, LLVM's SLP vectorizer transposes the five
//!   accumulators to vectorize the folds (shuffles after the loop, stack
//!   spills inside it), and a 150-sample, 10-class, 784-dim forward pass
//!   takes 218–225 µs, against 262–283 µs for the two-row striped dots it
//!   replaced. With the fold in an `#[inline(never)]` helper, the inner
//!   loop is ten `vmulpd`/`vaddpd` pairs on `ymm` registers (checked with
//!   `objdump`), and the same pass takes 116–144 µs.

/// Four-lane `f64` accumulator block (one AVX2 register).
///
/// Fold order: `(l0 + l1) + (l2 + l3)` — fixed, public contract.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct F64x4 {
    pub l0: f64,
    pub l1: f64,
    pub l2: f64,
    pub l3: f64,
}

/// Eight-lane `f64` accumulator block (two AVX2 registers), the width of
/// [`LANES`](super::LANES) used by the striped reductions.
///
/// Fold order: `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` — i.e. the fold
/// of the low [`F64x4`] half plus the fold of the high half. Fixed,
/// public contract.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct F64x8 {
    pub lo: F64x4,
    pub hi: F64x4,
}

impl F64x4 {
    /// Lane-wise `self + a*b` over the first four elements of each slice
    /// (separate multiply and add — never contracted to FMA, so bits
    /// match the scalar arithmetic).
    ///
    /// # Panics
    ///
    /// Panics if either slice is shorter than four elements.
    #[inline(always)]
    pub(crate) fn add_prod(self, a: &[f64], b: &[f64]) -> Self {
        F64x4 {
            l0: self.l0 + a[0] * b[0],
            l1: self.l1 + a[1] * b[1],
            l2: self.l2 + a[2] * b[2],
            l3: self.l3 + a[3] * b[3],
        }
    }

    /// Lane-wise `self + a*b[i]` over the first four elements of `b`
    /// (separate multiply and add). Panics if `b` is shorter.
    #[inline(always)]
    pub(crate) fn add_scaled(self, a: f64, b: &[f64]) -> Self {
        F64x4 {
            l0: self.l0 + a * b[0],
            l1: self.l1 + a * b[1],
            l2: self.l2 + a * b[2],
            l3: self.l3 + a * b[3],
        }
    }

    /// The first four elements of `v`. Panics if `v` is shorter.
    #[inline(always)]
    pub(crate) fn load(v: &[f64]) -> Self {
        F64x4 {
            l0: v[0],
            l1: v[1],
            l2: v[2],
            l3: v[3],
        }
    }

    /// Writes the lanes to the first four elements of `v`. Panics if `v`
    /// is shorter.
    #[inline(always)]
    pub(crate) fn store(self, v: &mut [f64]) {
        v[0] = self.l0;
        v[1] = self.l1;
        v[2] = self.l2;
        v[3] = self.l3;
    }

    /// Folds the four lanes in the fixed pairwise tree
    /// `(l0 + l1) + (l2 + l3)`.
    #[inline(always)]
    pub(crate) fn fold_pairwise(self) -> f64 {
        (self.l0 + self.l1) + (self.l2 + self.l3)
    }
}

impl F64x8 {
    /// All-zero accumulator.
    #[inline(always)]
    pub(crate) fn zero() -> Self {
        Self::default()
    }

    /// Lane-wise `self + a*b` over the first eight elements of each
    /// slice. Lane `i` accumulates `a[i] * b[i]`; no cross-lane
    /// arithmetic happens until [`fold_pairwise`](Self::fold_pairwise).
    ///
    /// # Panics
    ///
    /// Panics if either slice is shorter than eight elements.
    #[inline(always)]
    pub(crate) fn add_prod(self, a: &[f64], b: &[f64]) -> Self {
        F64x8 {
            lo: self.lo.add_prod(&a[..4], &b[..4]),
            hi: self.hi.add_prod(&a[4..8], &b[4..8]),
        }
    }

    /// Lane-wise `self + a*b[i]` over the first eight elements of `b`:
    /// one row of a GEMM accumulator block. Panics if `b` is shorter.
    #[inline(always)]
    pub(crate) fn add_scaled(self, a: f64, b: &[f64]) -> Self {
        F64x8 {
            lo: self.lo.add_scaled(a, &b[..4]),
            hi: self.hi.add_scaled(a, &b[4..8]),
        }
    }

    /// The first eight elements of `v`. Panics if `v` is shorter.
    #[inline(always)]
    pub(crate) fn load(v: &[f64]) -> Self {
        F64x8 {
            lo: F64x4::load(&v[..4]),
            hi: F64x4::load(&v[4..8]),
        }
    }

    /// Writes the lanes to the first eight elements of `v`. Panics if
    /// `v` is shorter.
    #[inline(always)]
    pub(crate) fn store(self, v: &mut [f64]) {
        self.lo.store(&mut v[..4]);
        self.hi.store(&mut v[4..8]);
    }

    /// Folds the eight lanes in the fixed pairwise tree
    /// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` — exactly the historical
    /// `fold_lanes` order the golden numerics pin.
    #[inline(always)]
    pub(crate) fn fold_pairwise(self) -> f64 {
        self.lo.fold_pairwise() + self.hi.fold_pairwise()
    }
}

/// The scalar lane op behind [`fused_axpy_shrink`](super::fused_axpy_shrink):
/// `t = y + alpha*x; t - shrink*t`.
///
/// Element-wise kernels apply this in plain iterator loops rather than
/// through lane-block load/store (see the module docs for the measured
/// reason); keeping the arithmetic here makes the lane layer the single
/// owner of the update formula that the two-pass/fused bit-identity
/// tests pin.
#[inline(always)]
pub(crate) fn axpy_shrink_step(y: f64, x: f64, alpha: f64, shrink: f64) -> f64 {
    let t = y + alpha * x;
    t - shrink * t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_order_is_the_pinned_tree() {
        // Values chosen so every alternative association changes the bits.
        let v = [1e16, 1.0, -1e16, 3.0, 1e-8, 7e7, -3.25, 0.125];
        let acc = F64x8::zero().add_prod(&v, &[1.0; 8]);
        let manual = ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]));
        assert_eq!(acc.fold_pairwise().to_bits(), manual.to_bits());
    }

    #[test]
    fn f64x4_fold_is_low_half_of_f64x8() {
        let v = [0.1, 0.2, 0.4, 0.8];
        let four = F64x4::default().add_prod(&v, &v);
        let manual = (v[0] * v[0] + v[1] * v[1]) + (v[2] * v[2] + v[3] * v[3]);
        assert_eq!(four.fold_pairwise().to_bits(), manual.to_bits());
    }

    #[test]
    fn axpy_step_matches_two_pass_bitwise() {
        for &(y, x) in &[(1.0, 0.5), (-0.0, 0.0), (1e300, -1e300), (0.25, -1.5)] {
            let mut two = y;
            two += 0.01 * x;
            two -= 1e-4 * two;
            assert_eq!(axpy_shrink_step(y, x, 0.01, 1e-4).to_bits(), two.to_bits());
        }
    }
}
