//! Discrete convexity probes.
//!
//! The paper proves (Lemmas 1–2, Theorem 1) that the energy objective
//! Eq. (12) is strictly biconvex in `(K, E)`. These helpers let the test
//! suite *check* that claim numerically on the implemented objective, and let
//! the ACS driver assert its per-coordinate slices really are convex before
//! trusting a closed-form stationary point.

/// Checks convexity of `f` on `[lo, hi]` by sampling `steps` interior points
/// and verifying every central second difference is at least `-tol`.
///
/// Points where the objective is non-finite (outside the feasible region of
/// the bound, for example) are skipped.
///
/// # Panics
///
/// Panics if `steps < 3` or `lo >= hi`.
///
/// # Example
///
/// ```
/// use fei_math::convex::is_convex_on_grid;
///
/// assert!(is_convex_on_grid(|x| x * x, -5.0, 5.0, 50, 1e-9));
/// assert!(!is_convex_on_grid(|x| -(x * x), -5.0, 5.0, 50, 1e-9));
/// ```
pub fn is_convex_on_grid<F: Fn(f64) -> f64>(
    f: F,
    lo: f64,
    hi: f64,
    steps: usize,
    tol: f64,
) -> bool {
    assert!(steps >= 3, "need at least 3 grid points");
    assert!(lo < hi, "need a non-degenerate interval");
    let h = (hi - lo) / (steps as f64 - 1.0);
    for i in 1..steps - 1 {
        let x = lo + h * i as f64;
        let (a, b, c) = (f(x - h), f(x), f(x + h));
        if !(a.is_finite() && b.is_finite() && c.is_finite()) {
            continue;
        }
        if a - 2.0 * b + c < -tol {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_convexity_of_exp() {
        assert!(is_convex_on_grid(f64::exp, -2.0, 2.0, 64, 1e-9));
    }

    #[test]
    fn rejects_concave_log() {
        assert!(!is_convex_on_grid(|x| x.ln(), 0.5, 10.0, 64, 1e-9));
    }

    #[test]
    fn linear_passes_with_tolerance() {
        assert!(is_convex_on_grid(|x| 3.0 * x, 0.0, 1.0, 16, 1e-9));
    }

    #[test]
    fn skips_infeasible_points() {
        // Convex where finite, NaN elsewhere — should still pass.
        let f = |x: f64| if x < 0.0 { f64::NAN } else { x * x };
        assert!(is_convex_on_grid(f, -1.0, 2.0, 32, 1e-9));
    }

    #[test]
    #[should_panic(expected = "grid points")]
    fn rejects_too_few_points() {
        let _ = is_convex_on_grid(|x| x, 0.0, 1.0, 2, 1e-9);
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn rejects_degenerate_interval() {
        let _ = is_convex_on_grid(|x| x, 1.0, 1.0, 8, 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// Any convex quadratic passes; any strictly concave quadratic fails.
        #[test]
        fn quadratic_classification(a in 0.01f64..5.0, b in -3.0f64..3.0, c in -3.0f64..3.0) {
            let convex = move |x: f64| a * x * x + b * x + c;
            let concave = move |x: f64| -a * x * x + b * x + c;
            prop_assert!(is_convex_on_grid(convex, -10.0, 10.0, 40, 1e-9));
            prop_assert!(!is_convex_on_grid(concave, -10.0, 10.0, 40, 1e-9));
        }
    }
}
