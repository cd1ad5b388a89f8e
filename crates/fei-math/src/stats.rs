//! Summary statistics and simple regression helpers.
//!
//! Used by the power-trace analyzer (`fei-power`) to extract per-step mean
//! powers from sampled traces (Fig. 3), and by the calibration code to report
//! fit quality for the Table I timing model.

/// Arithmetic mean.
///
/// NaN inputs propagate into the result; use [`try_mean`] when the data may
/// contain non-finite values.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of empty slice");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// NaN-guarded arithmetic mean: `None` when `xs` is empty or contains any
/// NaN, so callers never silently propagate poisoned values.
pub fn try_mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population variance (divides by `n`).
///
/// NaN inputs propagate into the result; use `try_variance` when the data
/// may contain non-finite values.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn variance(xs: &[f64]) -> f64 {
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// NaN-guarded population variance: `None` when `xs` is empty or contains
/// any NaN.
pub(crate) fn try_variance(xs: &[f64]) -> Option<f64> {
    let m = try_mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation.
///
/// NaN inputs propagate into the result; use [`try_std_dev`] when the data
/// may contain non-finite values.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// NaN-guarded population standard deviation: `None` when `xs` is empty or
/// contains any NaN.
pub fn try_std_dev(xs: &[f64]) -> Option<f64> {
    try_variance(xs).map(f64::sqrt)
}

/// Linear-interpolated percentile, `p` in `[0, 100]`.
///
/// # Panics
///
/// Panics if `xs` is empty, contains NaN, or `p` is outside `[0, 100]`.
/// [`try_percentile`] reports the same conditions as `None` instead.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    assert!(
        !xs.iter().any(|x| x.is_nan()),
        "percentile requires orderable values"
    );
    try_percentile(xs, p).expect("invariant: preconditions asserted above")
}

/// NaN-guarded linear-interpolated percentile: `None` when `xs` is empty,
/// contains any NaN, or `p` is outside `[0, 100]`.
pub fn try_percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=100.0).contains(&p) || xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() as f64 - 1.0);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    })
}

/// Root-mean-square error between predictions and targets.
///
/// # Panics
///
/// Panics if the slices are empty or of different lengths.
pub fn rmse(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(predicted.len(), actual.len(), "rmse requires equal lengths");
    assert!(!predicted.is_empty(), "rmse of empty slices");
    let sum: f64 = predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a) * (p - a))
        .sum();
    (sum / predicted.len() as f64).sqrt()
}

/// Coefficient of determination `R²` of predictions against targets.
///
/// Returns 1.0 when the targets are constant and perfectly predicted, and can
/// be negative when the fit is worse than predicting the mean.
///
/// # Panics
///
/// Panics if the slices are empty or of different lengths.
pub(crate) fn r_squared(predicted: &[f64], actual: &[f64]) -> f64 {
    assert_eq!(
        predicted.len(),
        actual.len(),
        "r_squared requires equal lengths"
    );
    assert!(!predicted.is_empty(), "r_squared of empty slices");
    let m = mean(actual);
    let ss_tot: f64 = actual.iter().map(|a| (a - m) * (a - m)).sum();
    let ss_res: f64 = predicted
        .iter()
        .zip(actual)
        .map(|(p, a)| (a - p) * (a - p))
        .sum();
    // fei-lint: allow(float-eq, reason = "R² degenerate-variance sentinel: exactly-constant actuals are the defined special case")
    if ss_tot == 0.0 {
        // fei-lint: allow(float-eq, reason = "a perfect fit of constant data is exactly zero residual by construction")
        if ss_res == 0.0 {
            1.0
        } else {
            f64::NEG_INFINITY
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Result of a simple 1-D linear fit `y ≈ slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination of the fit.
    pub r_squared: f64,
}

/// Ordinary least-squares fit of a straight line through `(x, y)` pairs.
///
/// # Panics
///
/// Panics if fewer than two points are given, lengths differ, or all `x` are
/// identical (vertical line).
///
/// # Example
///
/// ```
/// use fei_math::stats::linear_fit;
///
/// let fit = linear_fit(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0]);
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.intercept - 1.0).abs() < 1e-12);
/// ```
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> LinearFit {
    assert_eq!(xs.len(), ys.len(), "linear_fit requires equal lengths");
    assert!(xs.len() >= 2, "linear_fit needs at least two points");
    let mx = mean(xs);
    let my = mean(ys);
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    assert!(sxx > 0.0, "linear_fit needs at least two distinct x values");
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let predicted: Vec<f64> = xs.iter().map(|&x| slope * x + intercept).collect();
    LinearFit {
        slope,
        intercept,
        r_squared: r_squared(&predicted, ys),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_known_values() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(std_dev(&xs), 2.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[42.0], 73.0), 42.0);
    }

    #[test]
    fn try_variants_match_panicking_versions_on_clean_data() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(try_mean(&xs), Some(mean(&xs)));
        assert_eq!(try_variance(&xs), Some(variance(&xs)));
        assert_eq!(try_std_dev(&xs), Some(std_dev(&xs)));
        assert_eq!(try_percentile(&xs, 50.0), Some(percentile(&xs, 50.0)));
    }

    #[test]
    fn try_variants_reject_empty_and_nan() {
        assert_eq!(try_mean(&[]), None);
        assert_eq!(try_variance(&[]), None);
        assert_eq!(try_std_dev(&[]), None);
        assert_eq!(try_percentile(&[], 50.0), None);
        let poisoned = [1.0, f64::NAN, 3.0];
        assert_eq!(try_mean(&poisoned), None);
        assert_eq!(try_variance(&poisoned), None);
        assert_eq!(try_std_dev(&poisoned), None);
        assert_eq!(try_percentile(&poisoned, 50.0), None);
        // Infinities are orderable and keep their usual float semantics.
        assert_eq!(try_percentile(&[f64::INFINITY, 0.0], 0.0), Some(0.0));
    }

    #[test]
    fn try_percentile_rejects_out_of_range_p() {
        assert_eq!(try_percentile(&[1.0], 101.0), None);
        assert_eq!(try_percentile(&[1.0], -0.5), None);
    }

    #[test]
    #[should_panic(expected = "orderable")]
    fn percentile_rejects_nan() {
        let _ = percentile(&[1.0, f64::NAN], 50.0);
    }

    #[test]
    #[should_panic(expected = "[0, 100]")]
    fn percentile_rejects_out_of_range() {
        let _ = percentile(&[1.0], 101.0);
    }

    #[test]
    fn rmse_zero_for_perfect_prediction() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(rmse(&[0.0, 0.0], &[3.0, 4.0]), (12.5f64).sqrt());
    }

    #[test]
    fn r_squared_perfect_and_mean_prediction() {
        let actual = [1.0, 2.0, 3.0];
        assert_eq!(r_squared(&actual, &actual), 1.0);
        let mean_pred = [2.0, 2.0, 2.0];
        assert!(r_squared(&mean_pred, &actual).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_exact_line() {
        let fit = linear_fit(&[0.0, 1.0, 2.0, 3.0], &[-1.0, 1.0, 3.0, 5.0]);
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.intercept + 1.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "distinct x")]
    fn linear_fit_rejects_vertical() {
        let _ = linear_fit(&[1.0, 1.0], &[0.0, 1.0]);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        #[test]
        fn variance_is_nonnegative(xs in proptest::collection::vec(-1e3f64..1e3, 1..64)) {
            prop_assert!(variance(&xs) >= 0.0);
        }

        #[test]
        fn percentile_is_monotone(
            xs in proptest::collection::vec(-1e3f64..1e3, 2..64),
            p1 in 0.0f64..100.0,
            p2 in 0.0f64..100.0,
        ) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(percentile(&xs, lo) <= percentile(&xs, hi) + 1e-9);
        }

        #[test]
        fn linear_fit_recovers_planted_line(
            slope in -10.0f64..10.0,
            intercept in -10.0f64..10.0,
        ) {
            let xs: Vec<f64> = (0..12).map(f64::from).collect();
            let ys: Vec<f64> = xs.iter().map(|&x| slope * x + intercept).collect();
            let fit = linear_fit(&xs, &ys);
            prop_assert!((fit.slope - slope).abs() < 1e-8);
            prop_assert!((fit.intercept - intercept).abs() < 1e-7);
        }
    }
}
