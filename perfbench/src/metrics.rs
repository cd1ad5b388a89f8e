//! The benchmark's vocabulary: workloads, metrics, units, directions and
//! bounds. `BENCHMARK.json` is this table printed (`--manifest`), and a unit
//! test holds the two together.

use std::collections::BTreeMap;

use crate::json::Json;
use Better::{Higher, Lower};

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`). Round
/// counts are sized from `--seconds` so a run at this value gives every
/// timing at least 200 samples (ten beyond the 95th percentile), except the
/// restarts of `tcp_recover`.
pub const RUN_SECONDS: u64 = 16;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen before the change is a regression;
/// per-layer metrics carry none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "headline_serial",
        "paper headline K=10 E=10 on the serial engine, eval every round: kernels and eval are the time, transport is not",
    ),
    (
        "fanout_threaded",
        "K=20 E=1 q8+delta on the threaded engine, eval off: per-job fixed cost, codec and hand-off dominate, kernels barely",
    ),
    (
        "tcp_control",
        "real fei_coordinatord over TCP with 64-byte payloads: poll cycles and fsyncs per round, bytes negligible",
    ),
    (
        "tcp_model",
        "same daemon with the 62807-byte model frame echoed back: framing, CRC, trace and journal appends, history growth",
    ),
    (
        "tcp_recover",
        "restart the daemon on a finished tcp_model history: the same journal and trace codec read back instead of appended",
    ),
];

/// What a user of the system sees, on every workload. One bound per metric
/// has to cover the noisiest workload it is measured on: `tcp_control`,
/// whose 2 ms round is sleeps and fsyncs and whose ten-run median moved by
/// 9 % between two sweeps of one commit half an hour apart (the in-process
/// workloads repeat within 2 %).
///
/// The tail of the round time (`round_ms_p95`) is not here: on a shared
/// host it follows the neighbours' load, not the program (see README.md),
/// so no bound of at most 25 % holds it. It is reported unbounded, in the
/// per-layer table and in every untraced report.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("rounds_per_s", "1/s", Higher, 0.20),
    e2e("round_ms_p50", "ms", Lower, 0.20),
    e2e("joules_per_round", "J", Lower, 0.08),
    e2e("bytes_per_round", "B", Lower, 0.08),
    e2e("cpu_s_per_round", "s", Lower, 0.15),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Single layers, from the traced run. A metric of a layer the workload
/// does not exercise reads 0 there. The first entry is the whole round's
/// tail, kept out of the bounded table above.
pub const PER_LAYER: [MetricDef; 51] = [
    layer("round_ms_p95", "ms", Lower),
    layer("data.generate_ms", "ms", Lower),
    layer("math.matmul_us", "us", Lower),
    layer("math.matmul_tn_us", "us", Lower),
    layer("math.dot_us", "us", Lower),
    layer("math.axpy_shrink_us", "us", Lower),
    layer("ml.grad_step_us", "us", Lower),
    layer("ml.job_fixed_us", "us", Lower),
    layer("ml.grad_steps_per_round", "count", Lower),
    layer("ml.train_ms_per_round", "ms", Lower),
    layer("ml.eval_ms_per_round", "ms", Lower),
    layer("ml.scratch_allocs_steady", "count", Lower),
    layer("net.encode_update_us", "us", Lower),
    layer("net.decode_update_us", "us", Lower),
    layer("net.codec_ms_per_round", "ms", Lower),
    layer("net.bytes_up_per_round", "B", Lower),
    layer("net.bytes_down_per_round", "B", Lower),
    layer("net.wire_allocs_steady", "count", Lower),
    layer("net.frame_rtt_us_64", "us", Lower),
    layer("net.frame_rtt_us_62807", "us", Lower),
    layer("fl.select_us", "us", Lower),
    layer("fl.aggregate_us", "us", Lower),
    layer("fl.engine_self_ms", "ms", Lower),
    layer("fl.serial_round_ms", "ms", Lower),
    layer("fl.threaded_round_ms", "ms", Lower),
    layer("fl.threaded_speedup", "ratio", Higher),
    layer("fl.rounds_to_target", "count", Lower),
    layer("fl.time_to_target_s", "s", Lower),
    layer("proto.cluster_round_us", "us", Lower),
    layer("proto.cycles_per_round", "count", Lower),
    layer("proto.select_to_submit_ms_p50", "ms", Lower),
    layer("proto.submit_to_commit_ms_p50", "ms", Lower),
    layer("proto.turnaround_ms_p50", "ms", Lower),
    layer("proto.fsync_us_p50", "us", Lower),
    layer("proto.trace_sync_us_p50", "us", Lower),
    layer("proto.frames_per_round", "count", Lower),
    layer("proto.rejected_frames", "count", Lower),
    layer("proto.retransmit_ratio", "ratio", Lower),
    layer("proto.journal_bytes_per_round", "B", Lower),
    layer("proto.trace_bytes_per_round", "B", Lower),
    layer("proto.rss_kb_per_round", "kB", Lower),
    layer("proto.round_ms_drift", "ratio", Lower),
    layer("proto.replay_events_per_s", "1/s", Higher),
    layer("proto.recover_ms_p50", "ms", Lower),
    layer("core.plan_us", "us", Lower),
    layer("core.acs_iterations", "count", Lower),
    layer("core.joules_useful_per_round", "J", Lower),
    layer("core.joules_control_per_round", "J", Lower),
    layer("core.joules_retransmit_per_round", "J", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// The metrics a run must report: end-to-end untraced, per-layer traced.
pub fn required(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: rounds (restarts for `tcp_recover`) plus
    /// correctness checks.
    pub attempted: u64,
    /// Rounds not committed, non-zero exits and failed checks among them.
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines for the report: sample counts, exact counts,
    /// which check failed.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(find(name).is_some(), "{name} is not in the metric tables");
        self.values.insert(name, value);
    }

    /// Records a correctness check: counted as attempted, and as failed
    /// (with a note) when `ok` is false.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {what}"));
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result object of the output contract: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the latter holding every
    /// required metric and nothing else.
    ///
    /// # Errors
    ///
    /// The name of a required metric the workload did not report, or of
    /// one that is not a finite number.
    pub fn to_json(&self, trace: bool) -> Result<Json, String> {
        let mut metrics = Vec::new();
        for def in required(trace) {
            let value = *self
                .values
                .get(def.name)
                .ok_or_else(|| format!("workload did not report {}", def.name))?;
            if !value.is_finite() {
                return Err(format!("{} is not finite", def.name));
            }
            metrics.push((
                def.name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(def.unit.to_string())),
                ]),
            ));
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ]))
    }
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Json {
    let metric = |def: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::Str(def.name.to_string())),
            ("unit", Json::Str(def.unit.to_string())),
            ("better", Json::Str(def.better.name().to_string())),
        ];
        if let Some(bound) = def.bound {
            pairs.push(("bound", Json::Num(bound)));
        }
        Json::obj(pairs)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::Str(s.to_string())).collect()),
        ),
        ("paths", Json::Arr(vec![Json::Str("perfbench".to_string())])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([
                            ("name", Json::Str(name.to_string())),
                            ("why", Json::Str(why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_this_table() {
        let committed = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(committed, manifest(), "regenerate with `--manifest`");
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.extend(WORKLOADS.iter().map(|(name, _)| *name));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(def.unit.len() <= 16, "{}", def.unit);
        }
        for def in &END_TO_END {
            assert!(def.bound.is_some_and(|b| b > 0.0 && b <= 0.25));
        }
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
    }

    #[test]
    fn result_holds_exactly_the_required_metrics() {
        let mut outcome = Outcome::default();
        for def in &END_TO_END {
            outcome.set(def.name, 1.5);
        }
        outcome.set("trace.coverage", 1.0);
        outcome.attempted = 10;
        outcome.check(true, "fine");
        let doc = outcome.to_json(false).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(11.0));
        assert_eq!(
            doc.get("metrics").unwrap().members().len(),
            END_TO_END.len()
        );
        assert!(
            outcome.to_json(true).is_err(),
            "per-layer metrics are missing"
        );

        outcome.check(false, "bits differ");
        let doc = outcome.to_json(false).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
    }
}
