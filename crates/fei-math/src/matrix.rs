//! A minimal dense row-major matrix.
//!
//! This is the parameter container for the logistic-regression model in
//! `fei-ml` and the design-matrix type for least-squares calibration in
//! `fei-core`. Access is bounds-checked, but the hot kernels — [`Matrix::
//! matmul`], [`Matrix::matmul_tn`], [`dot`] — run cache-blocked and striped
//! (see [`crate::reduce`]); the blocked schedules are constructed to be
//! bit-identical to the naive reference loops, which the equivalence tests
//! pin down.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::pack::{self, AOrder, MatScratch};

/// Dense row-major matrix of `f64`.
///
/// # Example
///
/// ```
/// use fei_math::matrix::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(1, 2)], 6.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows * cols"
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices. All rows must have equal length.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, any row is empty, or rows have unequal
    /// lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "rows must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix–matrix product `self * rhs` on the packed micro-kernel.
    ///
    /// Dispatches to the register-blocked packed kernel
    /// ([`crate::pack`]), which is bit-identical to the naive reference
    /// loop ([`Matrix::matmul_reference`]): packing reorders *where*
    /// operands live, never the ascending-`k` order in which each output
    /// element accumulates its contributions.
    ///
    /// Allocates a transient pack workspace; hot callers should hold a
    /// [`MatScratch`] and use [`Matrix::matmul_with`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.matmul_with(rhs, &mut MatScratch::new())
    }

    /// [`Matrix::matmul`] reusing a caller-held pack workspace: warm
    /// calls with same-or-smaller shapes allocate nothing beyond the
    /// output matrix.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_with(&self, rhs: &Matrix, scratch: &mut MatScratch) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimensions must agree: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        pack::packed_gemm(
            &self.data,
            AOrder::RowMajor,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
            scratch,
        );
        out
    }

    /// Naive triple-loop product: the pre-fast-path reference kernel, kept
    /// for equivalence tests and the perf-regression harness.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_reference(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimensions must agree: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                // fei-lint: allow(float-eq, reason = "exact-zero sparsity fast path; the packed kernel mirrors this skip per (i,k) to stay bit-identical, and a tolerance would silently drop small contributions")
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed-operand product `selfᵀ * rhs`, without materializing the
    /// transpose.
    ///
    /// `self` is `m × n`, `rhs` is `m × p`, the result is `n × p`. Runs
    /// on the same packed micro-kernel as [`Matrix::matmul`] with the
    /// A-panel packed straight from `self`'s columns (no transpose is
    /// materialized), and is bit-identical to
    /// `self.transpose().matmul(rhs)` — each output element accumulates
    /// its `k` contributions in the same ascending order.
    ///
    /// Allocates a transient pack workspace; hot callers should hold a
    /// [`MatScratch`] and use [`Matrix::matmul_tn_with`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        self.matmul_tn_with(rhs, &mut MatScratch::new())
    }

    /// [`Matrix::matmul_tn`] reusing a caller-held pack workspace: warm
    /// calls with same-or-smaller shapes allocate nothing beyond the
    /// output matrix.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn matmul_tn_with(&self, rhs: &Matrix, scratch: &mut MatScratch) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "transposed inner dimensions must agree: {}x{} (transposed) * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        pack::packed_gemm(
            &self.data,
            AOrder::Transposed,
            &rhs.data,
            &mut out.data,
            self.cols,
            self.rows,
            rhs.cols,
            scratch,
        );
        out
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub(crate) fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(
            v.len(),
            self.cols,
            "vector length must equal matrix columns"
        );
        (0..self.rows).map(|i| dot(self.row(i), v)).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4}", self[(i, j)])?;
                if j + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Dot product of two equal-length slices — the deterministic striped
/// reduction from [`crate::reduce::dot`], re-exported here as the
/// workspace's canonical dot product.
///
/// # Panics
///
/// Panics if lengths differ.
pub use crate::reduce::dot;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_requested_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.data.iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zeros_rejects_empty() {
        let _ = Matrix::zeros(0, 4);
    }

    #[test]
    fn from_vec_round_trips() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.data, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_bad_len() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matvec(&[5.0, 6.0]), vec![17.0, 39.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn dot_known_value() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = Matrix::zeros(2, 2);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m[(1, 0)], 7.0);
    }

    #[test]
    fn debug_is_nonempty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m:?}").is_empty());
    }

    /// Deterministic pseudo-random fill so bit-identity tests are repeatable.
    fn lcg_fill(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        let mut m = Matrix::zeros(rows, cols);
        for v in m.data.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Map the top bits to roughly [-1, 1].
            *v = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
        }
        m
    }

    #[test]
    fn tiled_matmul_bit_identical_to_reference_beyond_tile() {
        // 70 and 130 both straddle TILE = 64, exercising full and partial
        // tiles; the blocked kernel must reproduce the naive kernel exactly.
        for (m, k, n, seed) in [(70, 130, 67, 1u64), (1, 200, 3, 2), (130, 1, 70, 3)] {
            let a = lcg_fill(m, k, seed);
            let b = lcg_fill(k, n, seed ^ 0xFF);
            let fast = a.matmul(&b);
            let slow = a.matmul_reference(&b);
            assert_eq!(fast.data, slow.data, "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn tiled_matmul_preserves_zero_skip() {
        // Sparse lhs: exact zeros must short-circuit identically in both paths.
        let mut a = lcg_fill(80, 80, 9);
        for (i, v) in a.data.iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = 0.0;
            }
        }
        let b = lcg_fill(80, 80, 10);
        assert_eq!(a.matmul(&b).data, a.matmul_reference(&b).data);
    }

    #[test]
    fn packed_gemm_matches_reference_on_both_sides_of_the_pack_rule() {
        use crate::pack::{MR, PACK_MIN_PANELS};
        // Row counts that read B in place (the gradient's 10, one panel
        // short of the rule) and that pack it (at the rule, plus a row
        // tail); a B width with two full panels and a column tail; an
        // inner dimension that straddles a tile natively.
        let k = if cfg!(miri) { 9 } else { 70 };
        let rule = MR * PACK_MIN_PANELS;
        for m in [10, rule - MR, rule, rule + 3] {
            let mut a = lcg_fill(m, k, m as u64);
            // Exact zeros: every third entry and all of row 1.
            for (i, v) in a.data.iter_mut().enumerate() {
                if i % 3 == 0 || i / k == 1 {
                    *v = 0.0;
                }
            }
            let b = lcg_fill(k, 19, 77);
            assert_eq!(a.matmul(&b).data, a.matmul_reference(&b).data, "{m}x{k}x19");
            let at = a.transpose();
            let tn = at.matmul_tn(&b);
            assert_eq!(
                tn.data,
                a.matmul_reference(&b).data,
                "{m}x{k}x19, transposed"
            );
        }
    }

    #[test]
    fn matmul_with_reuses_scratch_without_steady_allocations() {
        let a = lcg_fill(70, 130, 31);
        let b = lcg_fill(130, 67, 32);
        let mut scratch = MatScratch::new();
        let cold = a.matmul_with(&b, &mut scratch);
        let _ = a.matmul_tn_with(&a, &mut scratch);
        let after_warmup = scratch.allocations();
        for _ in 0..3 {
            let warm = a.matmul_with(&b, &mut scratch);
            assert_eq!(warm.data, cold.data);
            let tn = a.matmul_tn_with(&a, &mut scratch);
            assert_eq!(tn.data, a.transpose().matmul_reference(&a).data);
        }
        assert_eq!(
            scratch.allocations(),
            after_warmup,
            "warm packed products must not grow the workspace"
        );
        assert_eq!(cold.data, a.matmul_reference(&b).data);
    }

    #[test]
    fn matmul_tn_bit_identical_to_transpose_then_matmul() {
        for (m, k, n, seed) in [(70, 5, 67, 4u64), (3, 100, 3, 5), (1, 7, 129, 6)] {
            let a = lcg_fill(m, k, seed);
            let b = lcg_fill(m, n, seed ^ 0xAB);
            let fused = a.matmul_tn(&b);
            let explicit = a.transpose().matmul_reference(&b);
            assert_eq!(fused.data, explicit.data, "shape {m}x{k}x{n}");
        }
    }

    #[test]
    #[should_panic(expected = "transposed inner dimensions")]
    fn matmul_tn_panics_on_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 3);
        let _ = a.matmul_tn(&b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Shapes that stress the tiling: degenerate 1×N / N×1, tile-aligned,
    /// and off-by-a-few-from-tile sizes. Under Miri the 128-sized shapes
    /// would take minutes per case in the interpreter, so the CI lane only
    /// exercises the small and tile-straddling shapes.
    #[cfg(not(miri))]
    fn dim() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(1usize),
            2usize..8,
            60usize..70,    // straddles TILE = 64
            Just(128usize)  // two full tiles
        ]
    }

    #[cfg(miri)]
    fn dim() -> impl Strategy<Value = usize> {
        prop_oneof![Just(1usize), 2usize..8]
    }

    proptest! {
        /// Tiled matmul is bit-identical to the naive reference on every
        /// shape (the blocked loop preserves per-element accumulation order).
        #[test]
        fn matmul_matches_reference_bitwise(
            m in dim(), k in dim(), n in dim(), seed in any::<u32>(),
        ) {
            let a = fill(m, k, u64::from(seed));
            let b = fill(k, n, u64::from(seed) ^ 0x5555);
            let fast = a.matmul(&b);
            let slow = a.matmul_reference(&b);
            prop_assert_eq!(fast.data, slow.data);
        }

        /// matmul_tn agrees with materialize-transpose-then-multiply within
        /// tolerance on every shape (and in fact bitwise, asserted too).
        #[test]
        fn matmul_tn_matches_explicit_transpose(
            m in dim(), k in dim(), n in dim(), seed in any::<u32>(),
        ) {
            let a = fill(m, k, u64::from(seed) | 1);
            let b = fill(m, n, u64::from(seed) ^ 0xAAAA);
            let fused = a.matmul_tn(&b);
            let explicit = a.transpose().matmul_reference(&b);
            prop_assert_eq!(fused.data, explicit.data);
        }
    }

    fn fill(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut m = Matrix::zeros(rows, cols);
        for v in m.data.iter_mut() {
            *v = next();
        }
        m
    }
}
