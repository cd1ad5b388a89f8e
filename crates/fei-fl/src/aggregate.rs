//! Model aggregation (Eq. 2).

use std::fmt;

/// How uploaded local models are combined into the next global model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AggregationRule {
    /// Unweighted mean `ω ← (1/|𝒦_t|) Σ ω_k` — the paper's Eq. 2, exact for
    /// its uniform 3 000-samples-per-server split.
    #[default]
    Uniform,
    /// Sample-count-weighted mean — the general FedAvg rule, needed for
    /// non-IID/unequal splits.
    WeightedBySamples,
}

/// Why an update set could not be aggregated.
///
/// These are the malformed-input conditions [`aggregate`] used to `panic!`
/// on; [`try_aggregate`] and the robust rules report them as values so the
/// coordinator's round loop can waste the round instead of crashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateError {
    /// The update set is empty — there is nothing to combine.
    EmptyUpdateSet,
    /// An update's parameter vector does not match the expected dimension.
    DimensionMismatch {
        /// Dimension of the first (reference) update.
        expected: usize,
        /// Dimension of the offending update.
        got: usize,
        /// Index of the offending update within the set.
        index: usize,
    },
    /// Every sample count is zero under
    /// [`AggregationRule::WeightedBySamples`], leaving the weights
    /// undefined.
    ZeroTotalWeight,
}

impl fmt::Display for AggregateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyUpdateSet => write!(f, "cannot aggregate zero updates"),
            Self::DimensionMismatch {
                expected,
                got,
                index,
            } => write!(
                f,
                "update {index} has {got} parameters, expected {expected}: \
                 all updates must have equal parameter counts"
            ),
            Self::ZeroTotalWeight => {
                write!(f, "weighted aggregation needs at least one sample")
            }
        }
    }
}

impl std::error::Error for AggregateError {}

/// Checks that every update has `expected` parameters.
pub(crate) fn check_dims(
    updates: &[(Vec<f64>, usize)],
    expected: usize,
) -> Result<(), AggregateError> {
    for (index, (params, _)) in updates.iter().enumerate() {
        if params.len() != expected {
            return Err(AggregateError::DimensionMismatch {
                expected,
                got: params.len(),
                index,
            });
        }
    }
    Ok(())
}

/// Uniform mean of `updates`, accumulating in list order. Kept as the single
/// accumulation loop shared by plain aggregation and the robust rules'
/// zero-budget fallback so both paths are bit-identical.
pub(crate) fn uniform_mean(updates: &[(Vec<f64>, usize)], dim: usize) -> Vec<f64> {
    let mut out = vec![0.0; dim];
    let w = 1.0 / updates.len() as f64;
    for (params, _) in updates {
        for (o, &p) in out.iter_mut().zip(params) {
            *o += w * p;
        }
    }
    out
}

/// Aggregates flat parameter vectors under `rule`, reporting malformed
/// inputs as a typed [`AggregateError`] instead of panicking. Each update is
/// a `(parameters, sample_count)` pair.
///
/// # Errors
///
/// * [`AggregateError::EmptyUpdateSet`] — `updates` is empty;
/// * [`AggregateError::DimensionMismatch`] — unequal parameter counts;
/// * [`AggregateError::ZeroTotalWeight`] — all sample counts are zero under
///   [`AggregationRule::WeightedBySamples`].
pub fn try_aggregate(
    updates: &[(Vec<f64>, usize)],
    rule: AggregationRule,
) -> Result<Vec<f64>, AggregateError> {
    if updates.is_empty() {
        return Err(AggregateError::EmptyUpdateSet);
    }
    let dim = updates[0].0.len();
    check_dims(updates, dim)?;

    match rule {
        AggregationRule::Uniform => Ok(uniform_mean(updates, dim)),
        AggregationRule::WeightedBySamples => {
            let total: usize = updates.iter().map(|(_, n)| n).sum();
            if total == 0 {
                return Err(AggregateError::ZeroTotalWeight);
            }
            let mut out = vec![0.0; dim];
            for (params, n) in updates {
                let w = *n as f64 / total as f64;
                for (o, &p) in out.iter_mut().zip(params) {
                    *o += w * p;
                }
            }
            Ok(out)
        }
    }
}

/// Aggregates flat parameter vectors under `rule`. Each update is a
/// `(parameters, sample_count)` pair.
///
/// # Panics
///
/// Panics if `updates` is empty, the parameter vectors have unequal lengths,
/// or (for [`AggregationRule::WeightedBySamples`]) all sample counts are
/// zero. [`try_aggregate`] reports the same conditions as a typed error.
///
/// # Example
///
/// ```
/// use fei_fl::{aggregate, AggregationRule};
///
/// let a = (vec![1.0, 2.0], 10);
/// let b = (vec![3.0, 4.0], 30);
/// assert_eq!(aggregate(&[a.clone(), b.clone()], AggregationRule::Uniform), vec![2.0, 3.0]);
/// assert_eq!(
///     aggregate(&[a, b], AggregationRule::WeightedBySamples),
///     vec![2.5, 3.5]
/// );
/// ```
pub fn aggregate(updates: &[(Vec<f64>, usize)], rule: AggregationRule) -> Vec<f64> {
    match try_aggregate(updates, rule) {
        Ok(out) => out,
        // fei-lint: allow(no-panic, reason = "documented panicking wrapper kept for API compatibility; fallible callers use try_aggregate")
        Err(err) => panic!("{err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_update_is_identity() {
        let u = vec![(vec![1.0, -2.0, 3.0], 5)];
        assert_eq!(
            aggregate(&u, AggregationRule::Uniform),
            vec![1.0, -2.0, 3.0]
        );
        assert_eq!(
            aggregate(&u, AggregationRule::WeightedBySamples),
            vec![1.0, -2.0, 3.0]
        );
    }

    #[test]
    fn uniform_ignores_sample_counts() {
        let u = vec![(vec![0.0], 1), (vec![10.0], 1_000_000)];
        assert_eq!(aggregate(&u, AggregationRule::Uniform), vec![5.0]);
    }

    #[test]
    fn weighted_respects_sample_counts() {
        let u = vec![(vec![0.0], 1), (vec![10.0], 3)];
        assert_eq!(aggregate(&u, AggregationRule::WeightedBySamples), vec![7.5]);
    }

    #[test]
    fn rules_agree_on_equal_counts() {
        let u = vec![(vec![1.0, 4.0], 7), (vec![3.0, 8.0], 7)];
        assert_eq!(
            aggregate(&u, AggregationRule::Uniform),
            aggregate(&u, AggregationRule::WeightedBySamples)
        );
    }

    #[test]
    #[should_panic(expected = "zero updates")]
    fn rejects_empty() {
        let _ = aggregate(&[], AggregationRule::Uniform);
    }

    #[test]
    #[should_panic(expected = "equal parameter counts")]
    fn rejects_ragged() {
        let _ = aggregate(
            &[(vec![1.0], 1), (vec![1.0, 2.0], 1)],
            AggregationRule::Uniform,
        );
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn weighted_rejects_all_zero_counts() {
        let _ = aggregate(
            &[(vec![1.0], 0), (vec![2.0], 0)],
            AggregationRule::WeightedBySamples,
        );
    }

    #[test]
    fn try_aggregate_reports_typed_errors() {
        assert_eq!(
            try_aggregate(&[], AggregationRule::Uniform),
            Err(AggregateError::EmptyUpdateSet)
        );
        assert_eq!(
            try_aggregate(
                &[(vec![1.0], 1), (vec![1.0, 2.0], 1)],
                AggregationRule::Uniform
            ),
            Err(AggregateError::DimensionMismatch {
                expected: 1,
                got: 2,
                index: 1
            })
        );
        assert_eq!(
            try_aggregate(
                &[(vec![1.0], 0), (vec![2.0], 0)],
                AggregationRule::WeightedBySamples
            ),
            Err(AggregateError::ZeroTotalWeight)
        );
    }

    #[test]
    fn aggregate_error_display_names_the_condition() {
        assert!(AggregateError::EmptyUpdateSet
            .to_string()
            .contains("zero updates"));
        let mismatch = AggregateError::DimensionMismatch {
            expected: 3,
            got: 2,
            index: 1,
        };
        let msg = mismatch.to_string();
        assert!(msg.contains("update 1"), "{msg}");
        assert!(msg.contains("equal parameter counts"), "{msg}");
        assert!(AggregateError::ZeroTotalWeight
            .to_string()
            .contains("at least one sample"));
    }

    #[test]
    fn weighted_ignores_zero_sample_clients_in_nonzero_total_set() {
        // Zero-sample clients contribute weight 0 but must not poison the
        // result or the total; the survivors split the mass.
        let u = vec![
            (vec![100.0, -100.0], 0),
            (vec![0.0, 4.0], 1),
            (vec![10.0, 8.0], 3),
            (vec![-7.0, 2.0], 0),
        ];
        let merged = try_aggregate(&u, AggregationRule::WeightedBySamples).unwrap();
        assert_eq!(merged, vec![7.5, 7.0]);
        // And matches the same set with the zero-sample clients removed.
        let survivors = vec![(vec![0.0, 4.0], 1), (vec![10.0, 8.0], 3)];
        let reference = try_aggregate(&survivors, AggregationRule::WeightedBySamples).unwrap();
        for (a, b) in merged.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// The aggregate always lies inside the element-wise envelope of the
        /// updates (convex-combination property).
        #[test]
        fn aggregate_is_convex_combination(
            updates in proptest::collection::vec(
                (proptest::collection::vec(-100.0f64..100.0, 4), 1usize..100),
                1..10,
            ),
        ) {
            for rule in [AggregationRule::Uniform, AggregationRule::WeightedBySamples] {
                let agg = aggregate(&updates, rule);
                for j in 0..4 {
                    let lo = updates.iter().map(|(p, _)| p[j]).fold(f64::INFINITY, f64::min);
                    let hi = updates.iter().map(|(p, _)| p[j]).fold(f64::NEG_INFINITY, f64::max);
                    prop_assert!(agg[j] >= lo - 1e-9 && agg[j] <= hi + 1e-9);
                }
            }
        }

        /// Aggregation is permutation-invariant over the update list, for
        /// both rules (up to float-summation reordering error).
        #[test]
        fn aggregation_is_permutation_invariant(
            updates in proptest::collection::vec(
                (proptest::collection::vec(-10.0f64..10.0, 3), 0usize..10),
                2..8,
            ),
            seed in 0u64..1_000,
        ) {
            // Deterministic shuffle of the update list.
            let mut shuffled = updates.clone();
            fei_sim::DetRng::new(seed).shuffle(&mut shuffled);
            for rule in [AggregationRule::Uniform, AggregationRule::WeightedBySamples] {
                // Zero-sample-only sets are a typed error for the weighted
                // rule; everything else must be order-independent.
                let (a, b) = (try_aggregate(&updates, rule), try_aggregate(&shuffled, rule));
                match (a, b) {
                    (Ok(a), Ok(b)) => {
                        for (x, y) in a.iter().zip(&b) {
                            prop_assert!((x - y).abs() < 1e-9);
                        }
                    }
                    (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                    (a, b) => prop_assert!(false, "order changed outcome: {:?} vs {:?}", a, b),
                }
            }
        }
    }
}
