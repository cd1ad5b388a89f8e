//! Scalar and vector activation functions.
//!
//! Numerically stable softmax / log-sum-exp are the core of the multinomial
//! logistic regression used throughout the paper's evaluation (Table II).

/// Numerically stable softmax computed in place over `logits`.
///
/// # Panics
///
/// Panics if `logits` is empty.
///
/// # Example
///
/// ```
/// use fei_math::func::softmax_in_place;
///
/// let mut v = [0.0, 0.0];
/// softmax_in_place(&mut v);
/// assert!((v[0] - 0.5).abs() < 1e-12);
/// ```
pub fn softmax_in_place(logits: &mut [f64]) {
    let (_, sum) = exp_shifted_in_place(logits);
    for l in logits.iter_mut() {
        *l /= sum;
    }
}

/// [`softmax_in_place`] that also returns [`log_sum_exp`] of the logits it
/// overwrote, from one `exp` per logit instead of two.
///
/// Bit-identical to calling [`log_sum_exp`] and then [`softmax_in_place`]:
/// both take the same max, the same exps, and sum them left to right in
/// index order from a zero (exps are never `-0.0`, so the zero's sign
/// cannot show).
///
/// # Panics
///
/// Panics if `logits` is empty.
pub fn softmax_log_sum_exp(logits: &mut [f64]) -> f64 {
    let (max, sum) = exp_shifted_in_place(logits);
    for l in logits.iter_mut() {
        *l /= sum;
    }
    if max == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    max + sum.ln()
}

/// Replaces each logit `l` by `exp(l − max)` and returns `(max, sum)`, the
/// sum taken left to right in index order.
fn exp_shifted_in_place(logits: &mut [f64]) -> (f64, f64) {
    assert!(!logits.is_empty(), "softmax needs at least one logit");
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for l in logits.iter_mut() {
        *l = (*l - max).exp();
        sum += *l;
    }
    (max, sum)
}

/// Numerically stable `log(sum_i exp(x_i))`.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "log_sum_exp needs at least one value");
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if max == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    max + xs.iter().map(|&x| (x - max).exp()).sum::<f64>().ln()
}

/// Index of the maximum element (first one on ties).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn argmax(xs: &[f64]) -> usize {
    assert!(!xs.is_empty(), "argmax needs at least one value");
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_uniform_on_equal_logits() {
        let mut v = [1.0; 4];
        softmax_in_place(&mut v);
        for x in v {
            assert!((x - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut v = [1.0, 3.0, 2.0];
        softmax_in_place(&mut v);
        let sum: f64 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(v[1] > v[2] && v[2] > v[0]);
    }

    #[test]
    fn softmax_survives_large_logits() {
        let mut v = [1000.0, 1001.0];
        softmax_in_place(&mut v);
        assert!(v.iter().all(|x| x.is_finite()));
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_matches_naive_for_small_values() {
        let xs = [0.1, 0.2, 0.3];
        let naive: f64 = xs.iter().map(|x: &f64| x.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_survives_large_values() {
        assert!((log_sum_exp(&[1000.0, 1000.0]) - (1000.0 + 2.0f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn log_sum_exp_all_neg_infinity() {
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }

    #[test]
    fn softmax_log_sum_exp_is_the_two_calls_bit_for_bit() {
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 60.0 - 30.0
        };
        let cases = if cfg!(miri) { 200 } else { 20_000 };
        for n in (2..=12).cycle().take(cases) {
            let logits: Vec<f64> = (0..n).map(|_| next()).collect();
            let mut fused = logits.clone();
            let lse = softmax_log_sum_exp(&mut fused);
            let mut probs = logits.clone();
            softmax_in_place(&mut probs);
            assert_eq!(lse.to_bits(), log_sum_exp(&logits).to_bits());
            for (f, p) in fused.iter().zip(&probs) {
                assert_eq!(f.to_bits(), p.to_bits());
            }
        }
        let mut all_neg_inf = [f64::NEG_INFINITY; 3];
        assert_eq!(softmax_log_sum_exp(&mut all_neg_inf), f64::NEG_INFINITY);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn softmax_is_distribution(v in proptest::collection::vec(-50.0f64..50.0, 1..16)) {
            let mut s = v.clone();
            softmax_in_place(&mut s);
            prop_assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(s.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }

        #[test]
        fn softmax_preserves_argmax(v in proptest::collection::vec(-50.0f64..50.0, 2..16)) {
            let mut s = v.clone();
            softmax_in_place(&mut s);
            prop_assert_eq!(argmax(&v), argmax(&s));
        }

        #[test]
        fn log_sum_exp_bounds(v in proptest::collection::vec(-100.0f64..100.0, 1..16)) {
            let lse = log_sum_exp(&v);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(lse >= max - 1e-9);
            prop_assert!(lse <= max + (v.len() as f64).ln() + 1e-9);
        }
    }
}
