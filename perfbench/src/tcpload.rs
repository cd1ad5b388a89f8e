//! The three TCP workloads, built from the campaigns and restarts of
//! [`crate::tcp`].
//!
//! A run is several short campaigns, each with a fresh daemon, not one long
//! one: the daemon's per-round cost and memory grow with its history, the
//! replay check grows faster still, and every campaign start is one more
//! sample of set-up time.

use std::path::Path;
use std::time::Instant;

use crate::api::{parse_stats, ControlFrame};
use crate::energy::{self, Bill, Traffic};
use crate::metrics::Outcome;
use crate::procfs;
use crate::span::{Recorder, Span};
use crate::stats;
use crate::tcp::{self, Artifacts, Campaign, CampaignSpec, Replayed, WorkDir, WATCHDOG};

/// A campaign workload: `rounds` per campaign, and as many campaigns as
/// fill `--seconds` at `campaign_seconds` each (from the sizing runs).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub global_bytes: usize,
    pub rounds: u64,
    pub campaign_seconds: f64,
}

/// Control path only: 64-byte payloads.
pub const TCP_CONTROL: Spec = Spec {
    global_bytes: 64,
    rounds: 1000,
    campaign_seconds: 2.7,
};

/// Byte path: the f64 wire frame of the 7 850-parameter model.
pub const TCP_MODEL: Spec = Spec {
    global_bytes: 62_807,
    rounds: 400,
    campaign_seconds: 3.2,
};

/// Rounds of `TCP_MODEL` history a `tcp_recover` restart replays, and the
/// seconds one such restart takes (from the sizing runs).
const RECOVER_HISTORY: u64 = 150;
const RESTART_SECONDS: f64 = 0.55;

/// Times the history is built; the median build is `tcp_recover`'s set-up.
const HISTORY_BUILDS: usize = 3;

/// Per-layer metrics only the in-process workloads can give; 0 here.
const FOREIGN: [&str; 11] = [
    "ml.grad_steps_per_round",
    "ml.train_ms_per_round",
    "ml.eval_ms_per_round",
    "ml.scratch_allocs_steady",
    "net.codec_ms_per_round",
    "net.wire_allocs_steady",
    "fl.select_us",
    "fl.aggregate_us",
    "fl.engine_self_ms",
    "fl.rounds_to_target",
    "fl.time_to_target_s",
];

impl Spec {
    fn campaign(&self) -> CampaignSpec {
        CampaignSpec {
            global_bytes: self.global_bytes,
            rounds: self.rounds,
        }
    }

    fn campaigns(&self, seconds: u64, traced: bool) -> usize {
        let full = (seconds as f64 / self.campaign_seconds).round() as usize;
        // The traced pass is shorter: it shares the run with the
        // microbenchmarks.
        (if traced { full / 3 } else { full }).max(1)
    }

    /// Bytes of a typical journal record of this workload: an accepted
    /// update, payload included.
    pub fn record_bytes(&self) -> usize {
        self.global_bytes + 64
    }
}

/// One finished campaign and what the replay oracle made of it.
struct Finished {
    campaign: Campaign,
    replayed: Option<Replayed>,
}

/// Runs a campaign in a fresh work directory and checks its artifacts
/// against the replay oracle before the directory goes.
fn campaign_checked(
    exe: &Path,
    spec: CampaignSpec,
    seed: u64,
    deadline: Instant,
    out: &mut Outcome,
) -> Result<(Finished, WorkDir), String> {
    let dir = WorkDir::create("campaign")?;
    let campaign = tcp::run_campaign(exe, dir.path(), spec, seed, deadline)?;
    let replayed = match tcp::verify_artifacts(&Artifacts::in_dir(dir.path()), spec) {
        Ok(replayed) => {
            out.check(true, "");
            Some(replayed)
        }
        Err(why) => {
            out.check(false, &why);
            None
        }
    };
    Ok((Finished { campaign, replayed }, dir))
}

/// Encoded length of the two model-carrying frames at this payload size.
fn model_frame_bytes(payload: usize) -> (u64, u64) {
    let select = ControlFrame::Select {
        round: 0,
        client: 0,
        epochs: 1,
        deadline_tick: 0,
        global: vec![0; payload],
    };
    let submit = ControlFrame::UpdateSubmit {
        round: 0,
        client: 0,
        samples: 1,
        update: vec![0; payload],
    };
    (select.encoded_len() as u64, submit.encoded_len() as u64)
}

/// Totals over campaigns, as the daemon and the fleet counted them.
#[derive(Debug, Default)]
struct Totals {
    rounds: u64,
    bytes_in: u64,
    bytes_out: u64,
    frames: u64,
    rejected: u64,
    submits: u64,
    retries: u64,
}

impl Totals {
    fn add(&mut self, campaign: &Campaign) {
        let stats = &campaign.stats;
        self.rounds += stats.committed_rounds;
        self.bytes_in += stats.bytes_in;
        self.bytes_out += stats.bytes_out;
        self.frames += stats.frames_in + stats.frames_out;
        self.rejected += stats.rejected;
        self.submits += campaign.probe.submits + campaign.peer.submits;
        self.retries += campaign.probe.retries + campaign.peer.retries;
    }

    /// Splits the measured bytes by use. Nobody trains on this rung (both
    /// participants echo the global), so all energy is radio energy.
    fn bill(&self, payload: usize) -> Bill {
        let (select, submit) = model_frame_bytes(payload);
        let uploads = Traffic {
            transfers: 2 * self.rounds,
            frame_bytes: submit,
        };
        let downloads = Traffic {
            transfers: 2 * self.rounds,
            frame_bytes: select,
        };
        let retransmits = Traffic {
            transfers: self.retries,
            frame_bytes: submit,
        };
        let bytes = |t: Traffic| t.transfers * t.frame_bytes;
        Bill {
            training: (0, 0, 0),
            uploads,
            downloads,
            retransmits,
            control_up_bytes: self
                .bytes_in
                .saturating_sub(bytes(uploads) + bytes(retransmits)),
            control_down_bytes: self.bytes_out.saturating_sub(bytes(downloads)),
        }
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// The end-to-end metrics that campaigns and restarts share.
fn set_accounting(out: &mut Outcome, totals: &Totals, payload: usize) {
    let rounds = totals.rounds as f64;
    let ledger = energy::price(&totals.bill(payload));
    out.set("joules_per_round", ledger.total_joules() / rounds);
    out.set(
        "bytes_per_round",
        (totals.bytes_in + totals.bytes_out) as f64 / rounds,
    );
}

/// `tcp_control` and `tcp_model`, untraced.
pub fn run(spec: &Spec, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let exe = tcp::daemon_exe()?;
    let deadline = Instant::now() + WATCHDOG;
    let mut totals = Totals::default();
    let (mut setups, mut round_ms) = (Vec::new(), Vec::new());
    let (mut wall_s, mut cpu_s, mut peak_kb) = (0.0, 0.0, 0);
    let campaigns = spec.campaigns(seconds, false);
    for _ in 0..campaigns {
        let (done, _dir) = campaign_checked(&exe, spec.campaign(), seed, deadline, &mut out)?;
        out.attempted += spec.rounds;
        let campaign = done.campaign;
        totals.add(&campaign);
        setups.push(campaign.setup_s);
        round_ms.extend(campaign.round_ms());
        wall_s += campaign.wall_s;
        cpu_s += campaign.daemon_cpu_s;
        peak_kb = peak_kb.max(campaign.peak_rss_kb());
    }
    let rounds = totals.rounds as f64;
    out.set("setup_s", stats::median(&setups));
    out.set("rounds_per_s", rounds / wall_s);
    out.set("round_ms_p50", stats::median(&round_ms));
    set_accounting(&mut out, &totals, spec.global_bytes);
    out.set("cpu_s_per_round", cpu_s / rounds);
    out.set("peak_rss_mb", peak_kb as f64 / 1024.0);
    out.note(format!(
        "{campaigns} campaigns of {} rounds, {} round samples, {}; work dir on {}",
        spec.rounds,
        round_ms.len(),
        stats::tail_note(&round_ms),
        procfs::fs_type(&exe),
    ));
    Ok(out)
}

/// The protocol-layer metrics of a set of campaigns, and their hop spans.
fn set_layers(out: &mut Outcome, finished: &[Finished], payload: usize, rec: &mut Recorder) {
    let mut totals = Totals::default();
    let (mut to_submit, mut to_commit, mut turnaround) = (Vec::new(), Vec::new(), Vec::new());
    let (mut slopes, mut drifts, mut all_round_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut journal, mut trace, mut ticks, mut events) = (0, 0, 0, 0);
    let (mut replay_s, mut covered_ms, mut period_ms) = (0.0, 0.0, 0.0);
    let mut round_id = 0;
    for done in finished {
        let campaign = &done.campaign;
        totals.add(campaign);
        journal += campaign.journal_bytes;
        trace += campaign.trace_bytes;
        if let Some(replayed) = &done.replayed {
            ticks += replayed.ticks;
            events += replayed.events;
            replay_s += replayed.replay_s;
        }
        let stamps = &campaign.stamps;
        for (i, s) in stamps.iter().enumerate() {
            round_id += 1;
            to_submit.push(ms(s.select, s.submit));
            to_commit.push(ms(s.submit, s.commit));
            rec.push_closed("proto.select_to_submit", round_id, s.select, s.submit);
            rec.push_closed("proto.submit_to_commit", round_id, s.submit, s.commit);
            if let Some(next) = stamps.get(i + 1) {
                turnaround.push(ms(s.commit, next.select));
                rec.push_closed("proto.turnaround", round_id, s.commit, next.select);
                covered_ms +=
                    ms(s.select, s.submit) + ms(s.submit, s.commit) + ms(s.commit, next.select);
            }
        }
        if let (Some(first), Some(last)) = (stamps.first(), stamps.last()) {
            period_ms += ms(first.select, last.select);
        }
        // Memory the daemon adds per round once warm: the slope of VmHWM
        // from the first sample past round 100 to the last.
        let warm: Vec<&(u64, u64)> = campaign.rss.iter().filter(|(r, _)| *r >= 100).collect();
        if let (Some((r0, kb0)), Some((r1, kb1))) = (warm.first(), warm.last()) {
            if r1 > r0 {
                slopes.push((*kb1 as f64 - *kb0 as f64) / (r1 - r0) as f64);
            }
        }
        // Latency late in the campaign against early in it.
        let round_ms = campaign.round_ms();
        let decile = round_ms.len() / 10;
        if decile >= 10 {
            drifts.push(
                stats::median(&round_ms[round_ms.len() - decile..])
                    / stats::median(&round_ms[..decile]),
            );
        }
        all_round_ms.extend(round_ms);
    }
    let rounds = totals.rounds as f64;
    let ledger = energy::price(&totals.bill(payload));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.set("round_ms_p95", stats::percentile(&all_round_ms, 95.0));
    out.set("proto.cycles_per_round", ticks as f64 / rounds);
    out.set("proto.select_to_submit_ms_p50", stats::median(&to_submit));
    out.set("proto.submit_to_commit_ms_p50", stats::median(&to_commit));
    out.set("proto.turnaround_ms_p50", stats::median(&turnaround));
    out.set("proto.frames_per_round", totals.frames as f64 / rounds);
    out.set("proto.rejected_frames", totals.rejected as f64);
    out.set(
        "proto.retransmit_ratio",
        ratio(totals.retries as f64, totals.submits as f64),
    );
    out.set("proto.journal_bytes_per_round", journal as f64 / rounds);
    out.set("proto.trace_bytes_per_round", trace as f64 / rounds);
    out.set("proto.rss_kb_per_round", stats::median(&slopes));
    out.set("proto.round_ms_drift", stats::median(&drifts));
    out.set("proto.replay_events_per_s", ratio(events as f64, replay_s));
    out.set("net.bytes_up_per_round", totals.bytes_in as f64 / rounds);
    out.set("net.bytes_down_per_round", totals.bytes_out as f64 / rounds);
    energy::set_split(out, &ledger, rounds);
    out.set("trace.coverage", ratio(covered_ms, period_ms));
    // The probe takes the same three stamps per round with tracing off, so
    // the traced pass adds nothing to a round.
    out.set("trace.overhead_pct", 0.0);
    for name in FOREIGN {
        out.set(name, 0.0);
    }
}

/// `tcp_control` and `tcp_model`, traced: the protocol-layer metrics of a
/// shorter set of campaigns. Returns the hop spans for the trace file.
pub fn run_traced(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    out: &mut Outcome,
) -> Result<Vec<Span>, String> {
    let exe = tcp::daemon_exe()?;
    let deadline = Instant::now() + WATCHDOG;
    let mut finished = Vec::new();
    for _ in 0..spec.campaigns(seconds, true) {
        let (done, _dir) = campaign_checked(&exe, spec.campaign(), seed, deadline, out)?;
        out.attempted += spec.rounds;
        finished.push(done);
    }
    let spans = finished.iter().map(|f| f.campaign.stamps.len() * 3).sum();
    let mut rec = Recorder::with_capacity(spans);
    set_layers(out, &finished, spec.global_bytes, &mut rec);
    out.set("proto.recover_ms_p50", 0.0);
    Ok(rec.into_spans())
}

/// The finished history a `tcp_recover` run restarts from.
struct History {
    spec: CampaignSpec,
    dir: WorkDir,
    finished: Finished,
    /// Seconds each build took, daemon spawn to daemon exit.
    build_s: Vec<f64>,
}

fn build_history(
    exe: &Path,
    seed: u64,
    deadline: Instant,
    out: &mut Outcome,
) -> Result<History, String> {
    let spec = CampaignSpec {
        global_bytes: TCP_MODEL.global_bytes,
        rounds: RECOVER_HISTORY,
    };
    let mut build_s = Vec::with_capacity(HISTORY_BUILDS);
    let mut last = None;
    for _ in 0..HISTORY_BUILDS {
        drop(last.take());
        let built = campaign_checked(exe, spec, seed, deadline, out)?;
        build_s.push(built.0.campaign.total_s);
        last = Some(built);
    }
    let (finished, dir) = last.expect("invariant: HISTORY_BUILDS is at least one");
    Ok(History {
        spec,
        dir,
        finished,
        build_s,
    })
}

/// What a series of timed restarts of one history measured.
struct Restarts {
    /// Daemon spawn → exit 0, milliseconds.
    wall_ms: Vec<f64>,
    cpu_s: f64,
    peak_kb: u64,
    /// The last restarted daemon's own accounting.
    stats_text: String,
}

fn restart_series(
    exe: &Path,
    history: &History,
    count: usize,
    deadline: Instant,
    out: &mut Outcome,
) -> Result<Restarts, String> {
    let pristine = Artifacts::in_dir(history.dir.path());
    let mut series = Restarts {
        wall_ms: Vec::with_capacity(count),
        cpu_s: 0.0,
        peak_kb: 0,
        stats_text: String::new(),
    };
    for i in 0..count {
        // Always from a pristine copy: every earlier restart in a trace
        // makes the next one slower.
        let dir = WorkDir::create("restart")?;
        let restart = tcp::time_restart(exe, &pristine, dir.path(), history.spec, deadline)?;
        out.attempted += 1;
        let committed = parse_stats(&restart.stats_text).committed_rounds;
        out.check(
            committed == history.spec.rounds,
            &format!(
                "restart {i} recovered {committed} of {} rounds",
                history.spec.rounds
            ),
        );
        if i + 1 == count {
            // The extended trace must still replay to the journal and the
            // stats on disk, one incarnation later.
            match tcp::verify_artifacts(&Artifacts::in_dir(dir.path()), history.spec) {
                Ok(replayed) => out.check(
                    replayed.recoveries == 1 && replayed.epoch >= 1,
                    &format!(
                        "restart left {} Recover events and epoch {}",
                        replayed.recoveries, replayed.epoch
                    ),
                ),
                Err(why) => out.check(false, &why),
            }
        }
        series.wall_ms.push(restart.wall_s * 1e3);
        series.cpu_s += restart.cpu_s;
        series.peak_kb = series.peak_kb.max(restart.peak_rss_kb);
        series.stats_text = restart.stats_text;
    }
    Ok(series)
}

fn restart_count(seconds: u64, traced: bool) -> usize {
    let full = (seconds as f64 / RESTART_SECONDS).round() as usize;
    (if traced { full / 3 } else { full }).max(3)
}

/// `tcp_recover`, untraced. One "round" here is one journaled round
/// recovered: a restart replays `RECOVER_HISTORY` of them.
pub fn run_recover(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let exe = tcp::daemon_exe()?;
    let deadline = Instant::now() + WATCHDOG;
    let history = build_history(&exe, seed, deadline, &mut out)?;
    let count = restart_count(seconds, false);
    let series = restart_series(&exe, &history, count, deadline, &mut out)?;

    let per_restart = history.spec.rounds as f64;
    let recovered = per_restart * count as f64;
    let round_ms: Vec<f64> = series.wall_ms.iter().map(|ms| ms / per_restart).collect();
    // Bytes and joules per round as the *recovered* daemon accounts them:
    // the history's traffic, folded across incarnations.
    let stats = parse_stats(&series.stats_text);
    let history_campaign = &history.finished.campaign;
    let totals = Totals {
        rounds: stats.committed_rounds,
        bytes_in: stats.bytes_in,
        bytes_out: stats.bytes_out,
        retries: history_campaign.probe.retries + history_campaign.peer.retries,
        ..Totals::default()
    };
    out.set("setup_s", stats::median(&history.build_s));
    out.set(
        "rounds_per_s",
        recovered / (series.wall_ms.iter().sum::<f64>() / 1e3),
    );
    out.set("round_ms_p50", stats::median(&round_ms));
    set_accounting(&mut out, &totals, history.spec.global_bytes);
    out.set("cpu_s_per_round", series.cpu_s / recovered);
    out.set("peak_rss_mb", series.peak_kb as f64 / 1024.0);
    out.note(format!(
        "{count} restarts of a {}-round history, restart p50 {:.1} ms, {}; work dir on {}",
        history.spec.rounds,
        stats::median(&series.wall_ms),
        stats::tail_note(&round_ms),
        procfs::fs_type(&exe),
    ));
    Ok(out)
}

/// `tcp_recover`, traced: restart time, replay rate, and the protocol
/// metrics of the history campaign the restarts read back.
pub fn run_recover_traced(seed: u64, seconds: u64, out: &mut Outcome) -> Result<Vec<Span>, String> {
    let exe = tcp::daemon_exe()?;
    let deadline = Instant::now() + WATCHDOG;
    let history = build_history(&exe, seed, deadline, out)?;
    let series = restart_series(&exe, &history, restart_count(seconds, true), deadline, out)?;
    let mut rec = Recorder::with_capacity(history.spec.rounds as usize * 3);
    set_layers(
        out,
        std::slice::from_ref(&history.finished),
        history.spec.global_bytes,
        &mut rec,
    );
    // A round here is a recovered round, as in the untraced run.
    let per_restart = history.spec.rounds as f64;
    out.set(
        "round_ms_p95",
        stats::percentile(&series.wall_ms, 95.0) / per_restart,
    );
    out.set("proto.recover_ms_p50", stats::median(&series.wall_ms));
    Ok(rec.into_spans())
}
