//! Linear solvers and least squares.
//!
//! `fei-core` calibrates the paper's energy coefficients (`c0`, `c1` from
//! Table I, and the convergence constants `A0`, `A1`, `A2` from loss traces)
//! with ordinary least squares via the normal equations; the systems involved
//! are tiny (2–3 unknowns), so partial-pivot Gaussian elimination is exact
//! enough and dependency-free.

use std::error::Error;
use std::fmt;

use crate::matrix::Matrix;

/// Errors produced by the linear-algebra solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The system matrix is singular (or numerically so) and cannot be solved.
    SingularMatrix,
    /// Input shapes are inconsistent with the requested operation.
    ShapeMismatch {
        /// Human-readable description of the violated expectation.
        expected: String,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::SingularMatrix => write!(f, "matrix is singular to working precision"),
            LinalgError::ShapeMismatch { expected } => {
                write!(f, "shape mismatch: expected {expected}")
            }
        }
    }
}

impl Error for LinalgError {}

/// Solves `a * x = b` for square `a` by Gaussian elimination with partial
/// pivoting.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] when `a` is not square or `b` has
/// the wrong length, and [`LinalgError::SingularMatrix`] when a pivot is
/// (numerically) zero.
///
/// # Example
///
/// ```
/// use fei_math::matrix::Matrix;
/// use fei_math::linalg::solve_linear_system;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let x = solve_linear_system(&a, &[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn solve_linear_system(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::ShapeMismatch {
            expected: format!("square matrix, got {}x{}", n, a.cols()),
        });
    }
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            expected: format!("rhs of length {n}, got {}", b.len()),
        });
    }

    // Augmented working copy.
    let mut m = a.clone();
    let mut rhs = b.to_vec();

    for col in 0..n {
        // Partial pivot: pick the row with the largest magnitude in this column.
        let pivot_row = (col..n)
            // `total_cmp` is total even on NaN input, so a poisoned matrix
            // degrades to NaN output instead of panicking mid-elimination.
            .max_by(|&i, &j| m[(i, col)].abs().total_cmp(&m[(j, col)].abs()))
            .expect("invariant: col < n makes the pivot range non-empty");
        let pivot = m[(pivot_row, col)];
        if pivot.abs() < 1e-12 {
            return Err(LinalgError::SingularMatrix);
        }
        if pivot_row != col {
            for j in 0..n {
                let tmp = m[(col, j)];
                m[(col, j)] = m[(pivot_row, j)];
                m[(pivot_row, j)] = tmp;
            }
            rhs.swap(col, pivot_row);
        }
        for row in (col + 1)..n {
            let factor = m[(row, col)] / m[(col, col)];
            // fei-lint: allow(float-eq, reason = "exact-zero fast path: skips rows that are already eliminated, any tolerance would skip real work")
            if factor == 0.0 {
                continue;
            }
            for j in col..n {
                let v = m[(col, j)];
                m[(row, j)] -= factor * v;
            }
            rhs[row] -= factor * rhs[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = rhs[row];
        for j in (row + 1)..n {
            acc -= m[(row, j)] * x[j];
        }
        x[row] = acc / m[(row, row)];
    }
    Ok(x)
}

/// Ordinary least squares: finds `beta` minimizing `||X beta - y||^2`.
///
/// Solved through the normal equations `XᵀX beta = Xᵀy`; appropriate for the
/// small, well-conditioned design matrices used in EE-FEI calibration.
///
/// # Example
///
/// ```
/// use fei_math::linalg::LeastSquares;
/// use fei_math::matrix::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Fit y = 2x + 1 exactly.
/// let x = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0]]);
/// let fit = LeastSquares::fit(&x, &[1.0, 3.0, 5.0])?;
/// assert!((fit.coefficients()[0] - 2.0).abs() < 1e-10);
/// assert!((fit.coefficients()[1] - 1.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LeastSquares {
    coefficients: Vec<f64>,
    residual_sum_sq: f64,
}

impl LeastSquares {
    /// Fits `beta` so that `design * beta ≈ targets`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `targets.len()` differs
    /// from the number of design rows or when there are fewer rows than
    /// unknowns, and [`LinalgError::SingularMatrix`] when the normal matrix is
    /// rank-deficient.
    pub fn fit(design: &Matrix, targets: &[f64]) -> Result<Self, LinalgError> {
        if targets.len() != design.rows() {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{} targets, got {}", design.rows(), targets.len()),
            });
        }
        if design.rows() < design.cols() {
            return Err(LinalgError::ShapeMismatch {
                expected: format!(
                    "at least {} rows for {} unknowns, got {}",
                    design.cols(),
                    design.cols(),
                    design.rows()
                ),
            });
        }
        // XᵀX via the transposed-operand kernel: no materialized transpose,
        // bit-identical to `design.transpose().matmul(design)`.
        let xtx = design.matmul_tn(design);
        let xty = design.transpose().matvec(targets);
        let coefficients = solve_linear_system(&xtx, &xty)?;

        let predictions = design.matvec(&coefficients);
        let residual_sum_sq = predictions
            .iter()
            .zip(targets)
            .map(|(p, t)| (p - t) * (p - t))
            .sum();
        Ok(Self {
            coefficients,
            residual_sum_sq,
        })
    }

    /// The fitted coefficient vector `beta`.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Root-mean-square error over the `n` fitted points.
    pub fn rmse(&self, n: usize) -> f64 {
        assert!(n > 0, "rmse needs at least one point");
        (self.residual_sum_sq / n as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let a = Matrix::identity(3);
        let x = solve_linear_system(&a, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_system_requiring_pivot() {
        // First pivot is zero; partial pivoting must swap rows.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve_linear_system(&a, &[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn detects_singular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(
            solve_linear_system(&a, &[1.0, 2.0]),
            Err(LinalgError::SingularMatrix)
        );
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            solve_linear_system(&a, &[0.0, 0.0]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_rhs_length() {
        let a = Matrix::identity(2);
        assert!(matches!(
            solve_linear_system(&a, &[0.0]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn least_squares_recovers_exact_line() {
        let x = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0], &[3.0, 1.0]]);
        let fit = LeastSquares::fit(&x, &[1.0, 3.0, 5.0, 7.0]).unwrap();
        assert!((fit.coefficients()[0] - 2.0).abs() < 1e-10);
        assert!((fit.coefficients()[1] - 1.0).abs() < 1e-10);
        assert!(fit.rmse(4) < 1e-9);
    }

    #[test]
    fn least_squares_on_noisy_data_minimizes_residual() {
        // y = 3x - 2 with symmetric perturbation: OLS must recover the line.
        let x = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0], &[3.0, 1.0]]);
        let y = [-2.1, 1.1, 3.9, 7.1];
        let fit = LeastSquares::fit(&x, &y).unwrap();
        let beta = fit.coefficients();
        assert!((beta[0] - 3.0).abs() < 0.1, "slope {}", beta[0]);
        assert!((beta[1] + 2.0).abs() < 0.2, "intercept {}", beta[1]);
        assert!(fit.rmse(4) < 0.2);
    }

    #[test]
    fn least_squares_rejects_underdetermined() {
        let x = Matrix::zeros(1, 2);
        assert!(matches!(
            LeastSquares::fit(&x, &[1.0]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn errors_display_nonempty() {
        assert!(!LinalgError::SingularMatrix.to_string().is_empty());
        let e = LinalgError::ShapeMismatch {
            expected: "x".into(),
        };
        assert!(e.to_string().contains('x'));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Solving `A x = b` then multiplying back must reproduce `b`
        /// for well-conditioned diagonally dominant systems.
        #[test]
        fn solve_then_multiply_round_trips(
            diag in proptest::collection::vec(1.0f64..10.0, 3),
            off in proptest::collection::vec(-0.3f64..0.3, 9),
            b in proptest::collection::vec(-100.0f64..100.0, 3),
        ) {
            let mut a = Matrix::zeros(3, 3);
            for i in 0..3 {
                for j in 0..3 {
                    a[(i, j)] = if i == j { diag[i] + 1.0 } else { off[i * 3 + j] };
                }
            }
            let x = solve_linear_system(&a, &b).unwrap();
            let back = a.matvec(&x);
            for (orig, recon) in b.iter().zip(&back) {
                prop_assert!((orig - recon).abs() < 1e-6, "{} vs {}", orig, recon);
            }
        }

        /// OLS must recover planted coefficients exactly on noise-free data.
        #[test]
        fn least_squares_recovers_planted_coefficients(
            slope in -5.0f64..5.0,
            intercept in -5.0f64..5.0,
        ) {
            let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
            let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x, 1.0]).collect();
            let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let design = Matrix::from_rows(&row_refs);
            let y: Vec<f64> = xs.iter().map(|&x| slope * x + intercept).collect();
            let fit = LeastSquares::fit(&design, &y).unwrap();
            prop_assert!((fit.coefficients()[0] - slope).abs() < 1e-8);
            prop_assert!((fit.coefficients()[1] - intercept).abs() < 1e-8);
        }
    }
}
