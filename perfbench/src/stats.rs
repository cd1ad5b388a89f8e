//! Order statistics for timing samples.

use std::time::Instant;

/// Runs `f` and returns its result with the wall milliseconds it took.
pub fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e3)
}

/// Nearest-rank percentile `p` (0–100) of `samples`; 0 for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median by the same nearest-rank rule.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The highest of the usual tail percentiles that still leaves at least ten
/// samples beyond it, or `None` below 40 samples (where only the median is
/// worth reporting). A percentile with fewer samples beyond it is set by a
/// handful of outliers and does not repeat from run to run.
pub fn highest_tail_percentile(count: usize) -> Option<f64> {
    // Per mille, so the rank arithmetic is exact.
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|pm| count - (count * pm).div_ceil(1000) >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// The tail of a set of round times for the report of an untraced run: the
/// 95th percentile, and the highest percentile the sample count supports
/// when that is another one. Reported, not bounded (see `metrics.rs`).
pub fn tail_note(round_ms: &[f64]) -> String {
    let mut note = format!("round_ms p95 {:.6} ms", percentile(round_ms, 95.0));
    match highest_tail_percentile(round_ms.len()) {
        Some(p) if p != 95.0 => {
            note += &format!(
                ", p{p} {:.6} ms (the highest with ten samples beyond)",
                percentile(round_ms, p)
            );
        }
        Some(_) => {}
        None => note += " (fewer than ten samples beyond any tail percentile)",
    }
    note
}

/// First and third quartile, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the paired-run procedure in the README uses. Needs two values.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |q: usize| {
        // Position q·(n+1)/4 in 1-based ranks, interpolated between the
        // neighbouring values (extrapolated when the rank is clamped).
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 100.0);
        assert_eq!(percentile(&xs, 95.0), 190.0);
        assert_eq!(percentile(&xs, 100.0), 200.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_tail_percentile(10), None);
        assert_eq!(highest_tail_percentile(40), Some(75.0));
        assert_eq!(highest_tail_percentile(100), Some(90.0));
        assert_eq!(highest_tail_percentile(199), Some(90.0));
        assert_eq!(highest_tail_percentile(200), Some(95.0));
        assert_eq!(highest_tail_percentile(1000), Some(99.0));
        assert_eq!(highest_tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates at the ends, and so does this.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
