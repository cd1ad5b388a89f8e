//! `--compare A B`: applies the bounds table to two sets of runs.
//!
//! Each file holds the lines `--out` appended, one per run. Every pairing
//! of end-to-end metric and workload gets its own verdict; nothing is
//! folded into a score.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats;

/// How set B reads against set A on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of B beats every run of A, or B's median is better by
    /// more than the distance between A's quartiles.
    Better,
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so the runs cannot
    /// tell "unchanged" from "regressed": more or steadier runs needed.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the quartiles as a share of the median; 0 when there
/// are too few runs to have quartiles.
fn spread(values: &[f64]) -> f64 {
    let median = stats::median(values);
    match stats::quartiles(values) {
        Some((q1, q3)) if median.abs() > 0.0 => (q3 - q1).abs() / median.abs(),
        _ => 0.0,
    }
}

/// The verdict for one metric, from the values of each side's runs.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    // Positive when B is worse, as a share of A's median.
    let worse_by = match def.better {
        Better::Lower => (median_b - median_a) / median_a.abs(),
        Better::Higher => (median_a - median_b) / median_a.abs(),
    };
    let beats = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    if b.iter().all(|&x| a.iter().all(|&y| beats(x, y))) {
        return Verdict::Better;
    }
    if spread(a).max(spread(b)) > bound {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < 0.0 && -worse_by > spread(a) {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// `workload → metric → values`, from the untraced lines of an `--out`
/// file.
pub type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Parses an `--out` file.
///
/// # Errors
///
/// The line number and problem of the first malformed line.
pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let fail = |what: &str| format!("line {}: {what}", number + 1);
        let doc = Json::parse(line).map_err(|e| fail(&e))?;
        if doc.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("no workload"))?;
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .ok_or_else(|| fail("no result.metrics"))?;
        let by_metric = runs.entry(workload.to_string()).or_default();
        for (name, metric) in metrics.members() {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| fail("metric without a value"))?;
            by_metric.entry(name.to_string()).or_default().push(value);
        }
    }
    Ok(runs)
}

/// One row of the comparison.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub median_a: f64,
    pub median_b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub verdict: Verdict,
}

/// Every `(workload, end-to-end metric)` both sides measured.
pub fn compare(a: &Runs, b: &Runs) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, metrics_a) in a {
        let Some(metrics_b) = b.get(workload) else {
            continue;
        };
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(def.name), metrics_b.get(def.name)) else {
                continue;
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                median_a: stats::median(va),
                median_b: stats::median(vb),
                spread_a: spread(va),
                spread_b: spread(vb),
                verdict: judge(def, va, vb),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a 10 % bound, whatever the table says today.
    fn metric(better: Better) -> MetricDef {
        MetricDef {
            name: "round_ms_p50",
            unit: "ms",
            better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let p50 = &metric(Better::Lower);
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(p50, &steady, &[100.2, 100.9, 99.4, 100.1, 99.9]),
            Verdict::Within
        );
        assert_eq!(
            judge(p50, &steady, &[104.0, 105.0, 103.0, 104.5, 100.4]),
            Verdict::Within
        );
        assert_eq!(
            judge(p50, &steady, &[120.0, 121.0, 119.0, 120.5, 110.0]),
            Verdict::Worse
        );
        assert_eq!(
            judge(p50, &steady, &[90.0, 91.0, 89.0, 90.5, 89.5]),
            Verdict::Better
        );
        // Better by the median and by more than A's quartile distance,
        // though the runs overlap.
        assert_eq!(
            judge(p50, &steady, &[97.0, 97.5, 96.5, 97.2, 99.2]),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let p50 = &metric(Better::Lower);
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(p50, &noisy, &[85.0, 100.0, 118.0, 95.0, 105.0]),
            Verdict::Unresolved
        );
        // Unless every run of B beats every run of A.
        assert_eq!(
            judge(p50, &noisy, &[60.0, 70.0, 75.0, 65.0, 79.0]),
            Verdict::Better
        );
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let rate = &metric(Better::Higher);
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(rate, &steady, &[80.0, 81.0, 79.0, 80.5, 82.0]),
            Verdict::Worse
        );
        assert_eq!(
            judge(rate, &steady, &[120.0, 121.0, 119.0, 120.5, 119.5]),
            Verdict::Better
        );
    }

    #[test]
    fn out_files_parse_into_runs_and_rows() {
        let line = |workload: &str, trace: bool, value: f64| {
            format!(
                "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": {trace}, \"result\": \
                 {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
                 {{\"round_ms_p50\": {{\"value\": {value}, \"unit\": \"ms\"}}}}}}}}\n"
            )
        };
        let a = line("w", false, 10.0) + &line("w", false, 10.2) + &line("w", true, 99.0);
        let b =
            line("w", false, 13.0) + "\n" + &line("w", false, 13.1) + &line("other", false, 1.0);
        let (a, b) = (parse_runs(&a).unwrap(), parse_runs(&b).unwrap());
        assert_eq!(a["w"]["round_ms_p50"], vec![10.0, 10.2]);
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].metric, rows[0].verdict),
            ("round_ms_p50", Verdict::Worse)
        );
        assert!(parse_runs("{\"trace\": false}").is_err());
        assert!(parse_runs("not json").is_err());
    }
}
