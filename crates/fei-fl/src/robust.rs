//! Byzantine-robust aggregation: update screening and robust combine rules.
//!
//! PR 1 taught the coordinator to survive *omission* faults — crashes,
//! stragglers, lost frames. This module handles *commission* faults: a
//! device that delivers a well-formed frame whose **contents** are hostile
//! (sign-flipped, boosted, noise-laden, or trained on flipped labels). The
//! defense has two stages, both deterministic functions of the update set:
//!
//! 1. [`UpdateScreen`] — a cheap per-update gate at the coordinator
//!    boundary. It rejects non-finite values and dimension mismatches
//!    outright, rejects norm outliers (median-ratio and optional z-score
//!    gates), and clips over-norm updates down to a configured ceiling
//!    (down-weighting rather than discarding).
//! 2. [`RobustRule`] — how the surviving updates are combined:
//!    coordinate-wise median, trimmed mean, or Krum/multi-Krum, each
//!    parameterized by an assumed Byzantine budget `f`.
//!
//! **Zero-budget fallback.** Every robust rule with budget `f = 0` is
//! *definitionally* the uniform mean — a trimmed mean that trims nothing, a
//! multi-Krum that selects everyone. All rules short-circuit through the
//! same accumulation loop as [`crate::aggregate()`]'s uniform path, so with no
//! assumed attackers the defended engines reproduce plain FedAvg
//! **bit-identically** (an invariant `tests/byzantine.rs` pins down).

use serde::{Deserialize, Serialize};

use crate::aggregate::{check_dims, try_aggregate, uniform_mean, AggregateError, AggregationRule};

/// How the post-screen update set is combined into the next global model.
///
/// Each rule carries an assumed Byzantine budget `f` — how many of the
/// arriving updates the coordinator is prepared to distrust. With `f = 0`
/// every rule reduces to the plain uniform mean, bit-identically (see the
/// module docs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RobustRule {
    /// Plain aggregation under an [`AggregationRule`] — no robustness, the
    /// undefended baseline.
    Mean(AggregationRule),
    /// Coordinate-wise median of the updates. Tolerates up to
    /// `⌈n/2⌉ - 1` arbitrary updates per coordinate; the budget documents
    /// the expectation but does not change the estimator (except `f = 0`,
    /// which falls back to the mean).
    CoordinateMedian {
        /// Assumed number of Byzantine updates in each round's arrival set.
        assumed_byzantine: usize,
    },
    /// Coordinate-wise trimmed mean: drop the `f` smallest and `f` largest
    /// values of every coordinate, average the rest.
    TrimmedMean {
        /// Values trimmed from *each* side of every coordinate.
        assumed_byzantine: usize,
    },
    /// Krum (Blanchard et al., NeurIPS 2017): score every update by the sum
    /// of squared distances to its `n - f - 2` nearest neighbors and keep
    /// the single best-scoring update.
    Krum {
        /// Assumed number of Byzantine updates in each round's arrival set.
        assumed_byzantine: usize,
    },
    /// Multi-Krum: Krum-score all updates, then average the `n - f` best.
    MultiKrum {
        /// Assumed number of Byzantine updates in each round's arrival set.
        assumed_byzantine: usize,
    },
}

impl RobustRule {
    /// The rule's assumed Byzantine budget (0 for the plain mean).
    pub(crate) fn assumed_byzantine(&self) -> usize {
        match *self {
            Self::Mean(_) => 0,
            Self::CoordinateMedian { assumed_byzantine }
            | Self::TrimmedMean { assumed_byzantine }
            | Self::Krum { assumed_byzantine }
            | Self::MultiKrum { assumed_byzantine } => assumed_byzantine,
        }
    }

    /// Short lowercase name for reports (`"mean"`, `"median"`, …).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Mean(_) => "mean",
            Self::CoordinateMedian { .. } => "median",
            Self::TrimmedMean { .. } => "trimmed-mean",
            Self::Krum { .. } => "krum",
            Self::MultiKrum { .. } => "multi-krum",
        }
    }
}

/// Why the screen rejected an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScreenReason {
    /// The update contains NaN or infinite parameters.
    NonFinite,
    /// The update's parameter count differs from the global model's.
    DimensionMismatch,
    /// The update's L2 norm is an outlier against the round's arrival set.
    NormOutlier,
}

/// Thresholds of the coordinator's update screen.
///
/// All gates are deterministic functions of the round's update set, so the
/// serial and threaded engines screen identically. The defaults reject only
/// what is certainly malformed (non-finite values, wrong dimensions) plus
/// gross norm outliers; they are loose enough that benign IID fleets pass
/// untouched (preserving the zero-budget bit-identity guarantee).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScreenPolicy {
    /// Reject an update whose L2 norm differs from the round's *median*
    /// norm by more than this factor in either direction. `None` disables
    /// the gate. Robust to a malicious minority by construction (the median
    /// moves only when more than half the arrivals are hostile).
    pub norm_ratio_limit: Option<f64>,
    /// Reject an update whose L2 norm sits more than this many population
    /// standard deviations from the round's mean norm. `None` disables the
    /// gate. Note the algebraic ceiling `(n-1)/√n` on z-scores of an
    /// `n`-point set: limits ≥ 3 can never fire for `n ≤ 10`.
    pub zscore_limit: Option<f64>,
    /// Scale any update whose L2 norm exceeds this ceiling down to it
    /// (norm clipping — the update is *down-weighted*, not discarded).
    /// `None` disables clipping.
    pub clip_norm: Option<f64>,
}

impl Default for ScreenPolicy {
    fn default() -> Self {
        Self {
            norm_ratio_limit: Some(4.0),
            zscore_limit: None,
            clip_norm: None,
        }
    }
}

impl ScreenPolicy {
    /// A policy that gates nothing beyond the always-on structural checks
    /// (non-finite values, dimension mismatches).
    pub fn structural_only() -> Self {
        Self {
            norm_ratio_limit: None,
            zscore_limit: None,
            clip_norm: None,
        }
    }

    /// Panics on nonsensical limits: a ratio at or below 1, a non-positive
    /// z-score, or a non-finite or non-positive clip norm.
    pub(crate) fn validate(&self) {
        if let Some(r) = self.norm_ratio_limit {
            assert!(r > 1.0, "norm_ratio_limit must exceed 1, got {r}");
        }
        if let Some(z) = self.zscore_limit {
            assert!(z > 0.0, "zscore_limit must be positive, got {z}");
        }
        if let Some(c) = self.clip_norm {
            assert!(
                c.is_finite() && c > 0.0,
                "clip_norm must be positive and finite, got {c}"
            );
        }
    }
}

/// What the screen did to one round's update set.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ScreenReport {
    /// `(index into the screened set, reason)` for every rejected update,
    /// ascending by index.
    pub rejected: Vec<(usize, ScreenReason)>,
    /// Updates whose norm was clipped down to the ceiling (down-weighted
    /// but kept).
    pub clipped: usize,
}

impl ScreenReport {
    /// Number of updates the screen rejected.
    pub fn rejected_count(&self) -> usize {
        self.rejected.len()
    }
}

/// The coordinator's screening boundary: every arriving update passes
/// through [`UpdateScreen::screen`] before aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpdateScreen {
    policy: ScreenPolicy,
}

impl UpdateScreen {
    /// Builds a screen from a validated policy.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive threshold or a ratio limit ≤ 1.
    pub fn new(policy: ScreenPolicy) -> Self {
        policy.validate();
        Self { policy }
    }

    /// Screens `updates` in place against `expected_dim`: malformed and
    /// outlying updates are removed, over-norm updates are clipped, and the
    /// report records what happened (indices refer to the *input* order).
    ///
    /// Deterministic: the outcome is a pure function of the update set and
    /// the policy, independent of engine or thread interleaving.
    pub fn screen(
        &self,
        updates: &mut Vec<(Vec<f64>, usize)>,
        expected_dim: usize,
    ) -> ScreenReport {
        let mut report = ScreenReport::default();

        // Stage 1: structural checks, always on.
        let mut keep: Vec<bool> = vec![true; updates.len()];
        for (i, (params, _)) in updates.iter().enumerate() {
            if params.len() != expected_dim {
                report.rejected.push((i, ScreenReason::DimensionMismatch));
                keep[i] = false;
            } else if params.iter().any(|p| !p.is_finite()) {
                report.rejected.push((i, ScreenReason::NonFinite));
                keep[i] = false;
            }
        }

        // Stage 2: norm gates over the structurally sound survivors.
        let norms: Vec<(usize, f64)> = keep
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k)
            .map(|(i, _)| (i, l2_norm(&updates[i].0)))
            .collect();
        let norm_values: Vec<f64> = norms.iter().map(|&(_, n)| n).collect();

        if let Some(ratio) = self.policy.norm_ratio_limit {
            if let Some(median) = fei_math::try_percentile(&norm_values, 50.0) {
                if median > 0.0 {
                    for &(i, norm) in &norms {
                        if norm > median * ratio || norm < median / ratio {
                            report.rejected.push((i, ScreenReason::NormOutlier));
                            keep[i] = false;
                        }
                    }
                }
            }
        }
        if let Some(limit) = self.policy.zscore_limit {
            // Re-collect: the ratio gate may have already removed some.
            let survivors: Vec<(usize, f64)> =
                norms.iter().copied().filter(|&(i, _)| keep[i]).collect();
            let values: Vec<f64> = survivors.iter().map(|&(_, n)| n).collect();
            if let (Some(mean), Some(std)) =
                (fei_math::try_mean(&values), fei_math::try_std_dev(&values))
            {
                if std > 0.0 {
                    for &(i, norm) in &survivors {
                        if ((norm - mean) / std).abs() > limit {
                            report.rejected.push((i, ScreenReason::NormOutlier));
                            keep[i] = false;
                        }
                    }
                }
            }
        }

        // Stage 3: clip survivors above the norm ceiling (down-weight).
        if let Some(ceiling) = self.policy.clip_norm {
            for (i, (params, _)) in updates.iter_mut().enumerate() {
                if !keep[i] {
                    continue;
                }
                let norm = l2_norm(params);
                if norm > ceiling {
                    let scale = ceiling / norm;
                    for p in params.iter_mut() {
                        *p *= scale;
                    }
                    report.clipped += 1;
                }
            }
        }

        report.rejected.sort_unstable_by_key(|&(i, _)| i);
        let mut it = keep.iter();
        updates.retain(|_| {
            *it.next()
                .expect("invariant: keep mask was built with one entry per update")
        });
        report
    }
}

fn l2_norm(xs: &[f64]) -> f64 {
    xs.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Coordinator-side defense configuration: the screen at the boundary plus
/// the robust combine rule behind it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DefenseConfig {
    /// Screening thresholds applied to every arriving update.
    pub screen: ScreenPolicy,
    /// How the surviving updates are combined.
    pub rule: RobustRule,
}

impl DefenseConfig {
    /// A defense built around `rule` with the default screen.
    pub fn with_rule(rule: RobustRule) -> Self {
        Self {
            screen: ScreenPolicy::default(),
            rule,
        }
    }
}

/// Combines `updates` under `rule`, reporting malformed input as a typed
/// error. The zero-budget fallback (see the module docs) makes every rule
/// with `assumed_byzantine == 0` bit-identical to the uniform mean.
///
/// # Errors
///
/// * [`AggregateError::EmptyUpdateSet`] — nothing survived to combine;
/// * [`AggregateError::DimensionMismatch`] — ragged parameter vectors;
/// * [`AggregateError::ZeroTotalWeight`] — all-zero sample counts under
///   [`RobustRule::Mean`] with [`AggregationRule::WeightedBySamples`].
pub fn robust_aggregate(
    updates: &[(Vec<f64>, usize)],
    rule: RobustRule,
) -> Result<Vec<f64>, AggregateError> {
    if updates.is_empty() {
        return Err(AggregateError::EmptyUpdateSet);
    }
    let dim = updates[0].0.len();
    check_dims(updates, dim)?;
    let n = updates.len();

    match rule {
        RobustRule::Mean(inner) => try_aggregate(updates, inner),
        _ if rule.assumed_byzantine() == 0 => Ok(uniform_mean(updates, dim)),
        RobustRule::CoordinateMedian { .. } => Ok(coordinate_trimmed(updates, dim, |sorted| {
            let mid = sorted.len() / 2;
            if sorted.len() % 2 == 1 {
                sorted[mid]
            } else {
                0.5 * (sorted[mid - 1] + sorted[mid])
            }
        })),
        RobustRule::TrimmedMean { assumed_byzantine } => {
            // Trim f from each side, but always keep at least one value.
            let trim = assumed_byzantine.min((n - 1) / 2);
            Ok(coordinate_trimmed(updates, dim, move |sorted| {
                let kept = &sorted[trim..sorted.len() - trim];
                kept.iter().sum::<f64>() / kept.len() as f64
            }))
        }
        RobustRule::Krum { assumed_byzantine } => {
            let best = krum_ranking(updates, n, assumed_byzantine)[0];
            Ok(updates[best].0.clone())
        }
        RobustRule::MultiKrum { assumed_byzantine } => {
            let select = n.saturating_sub(assumed_byzantine).max(1);
            let mut chosen = krum_ranking(updates, n, assumed_byzantine);
            chosen.truncate(select);
            // Average the selected updates in ascending index order so the
            // result is independent of score-ranking details.
            chosen.sort_unstable();
            let selected: Vec<(Vec<f64>, usize)> = chosen
                .iter()
                .map(|&i| (updates[i].0.clone(), updates[i].1))
                .collect();
            Ok(uniform_mean(&selected, dim))
        }
    }
}

/// Applies `combine` to each coordinate's sorted value list.
fn coordinate_trimmed(
    updates: &[(Vec<f64>, usize)],
    dim: usize,
    combine: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    let mut column = vec![0.0; updates.len()];
    let mut out = vec![0.0; dim];
    for (j, o) in out.iter_mut().enumerate() {
        for (row, (params, _)) in updates.iter().enumerate() {
            column[row] = params[j];
        }
        column.sort_by(f64::total_cmp);
        *o = combine(&column);
    }
    out
}

/// Krum scores: for each update, the sum of squared distances to its
/// `n - f - 2` nearest peers (clamped to at least 1 so tiny arrival sets
/// still rank). Returns update indices ordered best (lowest score) first,
/// ties broken by index — fully deterministic.
fn krum_ranking(updates: &[(Vec<f64>, usize)], n: usize, f: usize) -> Vec<usize> {
    let neighbors = n.saturating_sub(f + 2).max(1).min(n - 1);
    let mut scores: Vec<(f64, usize)> = Vec::with_capacity(n);
    let mut dists = vec![0.0; n];
    for i in 0..n {
        for (j, d) in dists.iter_mut().enumerate() {
            *d = if i == j {
                f64::INFINITY
            } else {
                sq_distance(&updates[i].0, &updates[j].0)
            };
        }
        dists.sort_by(f64::total_cmp);
        let score: f64 = dists[..neighbors].iter().sum();
        scores.push((score, i));
    }
    scores.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scores.into_iter().map(|(_, i)| i).collect()
}

fn sq_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(params: &[f64]) -> (Vec<f64>, usize) {
        (params.to_vec(), 10)
    }

    fn benign_set() -> Vec<(Vec<f64>, usize)> {
        vec![
            upd(&[1.0, 2.0, 3.0]),
            upd(&[1.1, 2.1, 2.9]),
            upd(&[0.9, 1.9, 3.1]),
            upd(&[1.05, 2.05, 3.05]),
            upd(&[0.95, 1.95, 2.95]),
        ]
    }

    #[test]
    fn zero_budget_rules_are_bit_identical_to_uniform_mean() {
        let updates = benign_set();
        let mean = try_aggregate(&updates, AggregationRule::Uniform).unwrap();
        for rule in [
            RobustRule::CoordinateMedian {
                assumed_byzantine: 0,
            },
            RobustRule::TrimmedMean {
                assumed_byzantine: 0,
            },
            RobustRule::Krum {
                assumed_byzantine: 0,
            },
            RobustRule::MultiKrum {
                assumed_byzantine: 0,
            },
        ] {
            let robust = robust_aggregate(&updates, rule).unwrap();
            assert_eq!(robust, mean, "{rule:?} must fall back to the mean");
        }
    }

    #[test]
    fn coordinate_median_resists_one_wild_update() {
        let mut updates = benign_set();
        updates.push(upd(&[1e9, -1e9, 1e9]));
        let merged = robust_aggregate(
            &updates,
            RobustRule::CoordinateMedian {
                assumed_byzantine: 1,
            },
        )
        .unwrap();
        for (m, center) in merged.iter().zip(&[1.0, 2.0, 3.0]) {
            assert!((m - center).abs() < 0.2, "median pulled to {m}");
        }
    }

    #[test]
    fn coordinate_median_odd_and_even_counts() {
        let odd = vec![upd(&[1.0]), upd(&[5.0]), upd(&[2.0])];
        assert_eq!(
            robust_aggregate(
                &odd,
                RobustRule::CoordinateMedian {
                    assumed_byzantine: 1
                }
            )
            .unwrap(),
            vec![2.0]
        );
        let even = vec![upd(&[1.0]), upd(&[5.0]), upd(&[2.0]), upd(&[4.0])];
        assert_eq!(
            robust_aggregate(
                &even,
                RobustRule::CoordinateMedian {
                    assumed_byzantine: 1
                }
            )
            .unwrap(),
            vec![3.0]
        );
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        let updates = vec![
            upd(&[0.0]),
            upd(&[1.0]),
            upd(&[2.0]),
            upd(&[3.0]),
            upd(&[1000.0]),
        ];
        let merged = robust_aggregate(
            &updates,
            RobustRule::TrimmedMean {
                assumed_byzantine: 1,
            },
        )
        .unwrap();
        assert_eq!(merged, vec![2.0]);
    }

    #[test]
    fn trimmed_mean_clamps_overlarge_budget() {
        // Budget 5 on 3 updates trims at most (3-1)/2 = 1 per side.
        let updates = vec![upd(&[0.0]), upd(&[2.0]), upd(&[100.0])];
        let merged = robust_aggregate(
            &updates,
            RobustRule::TrimmedMean {
                assumed_byzantine: 5,
            },
        )
        .unwrap();
        assert_eq!(merged, vec![2.0]);
    }

    #[test]
    fn krum_picks_a_clustered_update() {
        let mut updates = benign_set();
        updates.push(upd(&[50.0, -50.0, 50.0]));
        let merged = robust_aggregate(
            &updates,
            RobustRule::Krum {
                assumed_byzantine: 1,
            },
        )
        .unwrap();
        assert!(
            updates[..5].iter().any(|(p, _)| p == &merged),
            "Krum must return one of the benign updates, got {merged:?}"
        );
    }

    #[test]
    fn multi_krum_excludes_the_outlier() {
        let mut updates = benign_set();
        updates.push(upd(&[50.0, -50.0, 50.0]));
        let merged = robust_aggregate(
            &updates,
            RobustRule::MultiKrum {
                assumed_byzantine: 1,
            },
        )
        .unwrap();
        // Mean of the 5 benign updates only.
        let benign_mean = try_aggregate(&benign_set(), AggregationRule::Uniform).unwrap();
        for (a, b) in merged.iter().zip(&benign_mean) {
            assert!((a - b).abs() < 1e-12, "{merged:?} vs {benign_mean:?}");
        }
    }

    #[test]
    fn robust_rules_are_permutation_invariant() {
        let mut updates = benign_set();
        updates.push(upd(&[50.0, -50.0, 50.0]));
        let rules = [
            RobustRule::CoordinateMedian {
                assumed_byzantine: 1,
            },
            RobustRule::TrimmedMean {
                assumed_byzantine: 1,
            },
            RobustRule::Krum {
                assumed_byzantine: 1,
            },
            RobustRule::MultiKrum {
                assumed_byzantine: 1,
            },
        ];
        let mut reversed = updates.clone();
        reversed.reverse();
        for rule in rules {
            let a = robust_aggregate(&updates, rule).unwrap();
            let b = robust_aggregate(&reversed, rule).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-9, "{rule:?} is order-dependent");
            }
        }
    }

    #[test]
    fn robust_aggregate_propagates_typed_errors() {
        let rule = RobustRule::CoordinateMedian {
            assumed_byzantine: 1,
        };
        assert_eq!(
            robust_aggregate(&[], rule),
            Err(AggregateError::EmptyUpdateSet)
        );
        assert_eq!(
            robust_aggregate(&[upd(&[1.0]), upd(&[1.0, 2.0])], rule),
            Err(AggregateError::DimensionMismatch {
                expected: 1,
                got: 2,
                index: 1
            })
        );
    }

    #[test]
    fn screen_rejects_non_finite_and_ragged_updates() {
        let screen = UpdateScreen::new(ScreenPolicy::structural_only());
        let mut updates = vec![
            upd(&[1.0, 2.0, 3.0]),
            upd(&[1.0, f64::NAN, 3.0]),
            upd(&[1.0, 2.0]),
            upd(&[f64::INFINITY, 0.0, 0.0]),
            upd(&[0.9, 2.1, 3.0]),
        ];
        let report = screen.screen(&mut updates, 3);
        assert_eq!(updates.len(), 2);
        assert_eq!(
            report.rejected,
            vec![
                (1, ScreenReason::NonFinite),
                (2, ScreenReason::DimensionMismatch),
                (3, ScreenReason::NonFinite),
            ]
        );
        assert_eq!(report.clipped, 0);
    }

    #[test]
    fn screen_norm_ratio_gate_drops_boosted_update() {
        let screen = UpdateScreen::new(ScreenPolicy::default());
        let mut updates = benign_set();
        updates.push(upd(&[100.0, 200.0, 300.0])); // 100x the benign norm
        let report = screen.screen(&mut updates, 3);
        assert_eq!(report.rejected, vec![(5, ScreenReason::NormOutlier)]);
        assert_eq!(updates.len(), 5);
    }

    #[test]
    fn screen_zscore_gate_drops_far_outlier() {
        let screen = UpdateScreen::new(ScreenPolicy {
            norm_ratio_limit: None,
            zscore_limit: Some(2.0),
            clip_norm: None,
        });
        // 11 tight updates + 1 far outlier: z of the outlier ≈ 3.2.
        let mut updates: Vec<_> = (0..11)
            .map(|i| upd(&[1.0 + 0.001 * i as f64, 2.0, 3.0]))
            .collect();
        updates.push(upd(&[30.0, 2.0, 3.0]));
        let report = screen.screen(&mut updates, 3);
        assert_eq!(report.rejected, vec![(11, ScreenReason::NormOutlier)]);
    }

    #[test]
    fn screen_clips_over_norm_updates() {
        let screen = UpdateScreen::new(ScreenPolicy {
            norm_ratio_limit: None,
            zscore_limit: None,
            clip_norm: Some(5.0),
        });
        let mut updates = vec![upd(&[3.0, 4.0]), upd(&[6.0, 8.0])];
        let report = screen.screen(&mut updates, 2);
        assert_eq!(report.clipped, 1);
        assert!(report.rejected.is_empty());
        assert_eq!(updates[0].0, vec![3.0, 4.0]);
        let clipped_norm = (updates[1].0[0].powi(2) + updates[1].0[1].powi(2)).sqrt();
        assert!((clipped_norm - 5.0).abs() < 1e-12);
    }

    #[test]
    fn screen_is_deterministic_and_order_equivariant() {
        let screen = UpdateScreen::new(ScreenPolicy::default());
        let mut a = benign_set();
        a.push(upd(&[1000.0, 0.0, 0.0]));
        let mut b = a.clone();
        let ra = screen.screen(&mut a, 3);
        let rb = screen.screen(&mut b, 3);
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }

    #[test]
    fn screen_passes_benign_sets_untouched() {
        let screen = UpdateScreen::new(ScreenPolicy::default());
        let mut updates = benign_set();
        let before = updates.clone();
        let report = screen.screen(&mut updates, 3);
        assert_eq!(report, ScreenReport::default());
        assert_eq!(updates, before);
    }

    #[test]
    #[should_panic(expected = "norm_ratio_limit")]
    fn screen_rejects_degenerate_ratio() {
        let _ = UpdateScreen::new(ScreenPolicy {
            norm_ratio_limit: Some(1.0),
            ..Default::default()
        });
    }
}
