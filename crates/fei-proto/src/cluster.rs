//! Deterministic in-process protocol cluster.
//!
//! A [`Cluster`] runs the shipped node loops — one [`CoordinatorNode`] and
//! a fleet of [`ParticipantNode`]s, the same `cycle()` bodies
//! `fei_coordinatord` runs — over the simulated backend (`sim.rs`): an
//! in-memory wire whose two directions each cross a [`ChaosLink`], and an
//! in-memory disk that forgets unsynced bytes at a crash. One virtual tick
//! is one `cycle()` of every node, in lock-step. All traffic crosses the
//! links as encoded wire frames — the same bytes a real deployment would
//! ship — so chaos (drops, duplicates, reordering, corruption) hits the
//! protocol exactly where a lossy network would.
//!
//! The cluster drives nothing itself; what it adds is the audit from
//! outside:
//!
//! * **liveness** — the run either closes its target number of rounds
//!   (each committed or aborted) or reports itself `stuck`;
//! * **safety** — an independent shadow of every heartbeat actually
//!   delivered to the coordinator cross-checks each commit: an accepted
//!   client whose lease had lapsed is counted as a
//!   [`ClusterReport::safety_violations`];
//! * **crash-recovery** — scheduled [`CoordinatorCrash`] events kill the
//!   coordinator node (keeping only the synced bytes of its trace and
//!   journal files — the journal file's none, it is rebuilt from the
//!   trace) and restart it through the node's own start path; the
//!   audit then also checks that no update is ever aggregated twice across
//!   a restart ([`ClusterReport::double_aggregations`]) and that every
//!   round open at a crash commits or aborts within one recovery budget of
//!   the restart ([`ClusterReport::recovery_violations`]).

use std::collections::{BTreeMap, BTreeSet};

use crate::chaos::{ChaosConfig, ChaosLink, ChaosStats};
use crate::coordinator::{ControlStats, CoordinatorConfig, Effect, Phase};
use crate::frames::{AbortReason, ControlFrame};
use crate::node::{
    CoordinatorNode, CoordinatorNodeConfig, NodeError, NodeReport, ParticipantNode,
    ParticipantNodeConfig,
};
use crate::participant::{ParticipantConfig, ParticipantStats};
use crate::sim::{SimFile, SimNet, DOWN, UP};
use crate::store::DiskJournal;

/// One scheduled coordinator failure: the process dies at `at_tick`
/// (losing all volatile state; only the synced bytes of its journal and
/// trace survive) and restarts `down_ticks` later through the node's own
/// start path.
///
/// Crash ticks landing while the coordinator is already down are skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordinatorCrash {
    /// Tick the coordinator dies.
    pub at_tick: u64,
    /// Ticks of downtime before the restart (minimum 1).
    pub down_ticks: u64,
}

/// Full description of one cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Coordinator protocol parameters.
    pub coordinator: CoordinatorConfig,
    /// The participant fleet (client ids should be unique).
    pub participants: Vec<ParticipantConfig>,
    /// Chaos profile of the participant → coordinator direction.
    pub uplink: ChaosConfig,
    /// Chaos profile of the coordinator → participant direction.
    pub downlink: ChaosConfig,
    /// Rounds to close (committed or aborted) before the run ends.
    pub target_rounds: u64,
    /// Tick budget; hitting it before the target marks the run stuck.
    pub max_ticks: u64,
    /// Global-model payload shipped in selection notices.
    pub global_payload: Vec<u8>,
    /// Scheduled coordinator kill/restart events, in tick order.
    pub crashes: Vec<CoordinatorCrash>,
}

impl ClusterConfig {
    /// A quiet-network cluster of `n` well-behaved participants.
    pub fn quiet(coordinator: CoordinatorConfig, n: u64, target_rounds: u64) -> Self {
        Self {
            coordinator,
            participants: (0..n).map(|c| ParticipantConfig::new(c, 3)).collect(),
            uplink: ChaosConfig::quiet(1),
            downlink: ChaosConfig::quiet(2),
            target_rounds,
            max_ticks: 10_000,
            global_payload: vec![0xAB; 64],
            crashes: Vec::new(),
        }
    }
}

/// One closed round as the cluster observed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundVerdict {
    /// The round number.
    pub round: u64,
    /// Whether it committed (false = aborted).
    pub committed: bool,
    /// Accepted clients (empty on abort), ascending.
    pub accepted: Vec<u64>,
    /// Tick the verdict landed.
    pub closed_at: u64,
    /// Why it aborted (`None` on commit).
    pub reason: Option<AbortReason>,
}

impl RoundVerdict {
    /// The verdict `effect` announces, landing at `closed_at` — `None` for
    /// the effects that are not verdicts.
    pub(crate) fn of(effect: &Effect, closed_at: u64) -> Option<Self> {
        let (round, accepted, reason) = match effect {
            Effect::RoundCommitted { round, accepted } => (*round, accepted.clone(), None),
            Effect::RoundAborted { round, reason } => (*round, Vec::new(), Some(*reason)),
            Effect::Send { .. } => return None,
        };
        Some(Self {
            round,
            committed: reason.is_none(),
            accepted,
            closed_at,
            reason,
        })
    }
}

/// What one cluster run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterReport {
    /// Rounds that committed.
    pub committed: u64,
    /// Rounds that aborted.
    pub aborted: u64,
    /// Ticks consumed.
    pub ticks: u64,
    /// True when the tick budget ran out before the round target — a
    /// liveness failure.
    pub stuck: bool,
    /// Commits that accepted a client whose delivered-heartbeat shadow had
    /// lapsed — a safety failure. Must be zero.
    pub safety_violations: u64,
    /// Coordinator crashes actually executed (scheduled crashes landing
    /// during downtime are skipped).
    pub coordinator_crashes: u64,
    /// Rounds open at a crash that failed to commit or abort within one
    /// `round_deadline` of the restart — a recovery-liveness failure. Must
    /// be zero.
    pub recovery_violations: u64,
    /// `(round, client)` pairs aggregated more than once, or rounds
    /// committed twice, across restarts — a recovery-safety failure. Must
    /// be zero.
    pub double_aggregations: u64,
    /// Chronological verdict log.
    pub round_log: Vec<RoundVerdict>,
    /// Uplink misbehaviour counters.
    pub uplink: ChaosStats,
    /// Downlink misbehaviour counters.
    pub downlink: ChaosStats,
    /// Control bytes offered upstream (pre-chaos, sender-side).
    pub control_bytes_up: u64,
    /// Control bytes offered downstream (pre-chaos, sender-side).
    pub control_bytes_down: u64,
    /// Coordinator traffic counters.
    pub coordinator: ControlStats,
    /// Per-participant traffic counters, in fleet order.
    pub participants: Vec<ParticipantStats>,
}

impl ClusterReport {
    /// Whether every targeted round closed within the tick budget.
    pub fn liveness_ok(&self) -> bool {
        !self.stuck
    }

    /// Whether no expired client's update was ever aggregated.
    pub fn safety_ok(&self) -> bool {
        self.safety_violations == 0
    }

    /// Whether every crash recovered cleanly: no double aggregation, and
    /// every pre-crash round settled within the recovery budget.
    pub fn recovery_ok(&self) -> bool {
        self.recovery_violations == 0 && self.double_aggregations == 0
    }

    /// Total control-plane bytes offered to the wire, both directions.
    pub fn control_bytes(&self) -> u64 {
        self.control_bytes_up + self.control_bytes_down
    }
}

/// The in-process cluster: the node loops over the simulated backend, and
/// the audits that watch them.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    net: SimNet,
    journal: SimFile,
    trace: SimFile,
    /// Unsynced trace and journal-file bytes a crash leaves on the
    /// simulated disk (torn tails for the restart to cut); 0 = only synced
    /// bytes survive.
    torn_tail: usize,
    journal_tail: usize,
    /// The live coordinator node (`None` before the run and while crashed).
    coordinator: Option<CoordinatorNode<SimNet, SimFile>>,
    participants: Vec<ParticipantNode<SimNet>>,
    uplink: ChaosLink,
    downlink: ChaosLink,
    /// Independent record of the last tick each client's join/heartbeat was
    /// actually *delivered* to the coordinator — the safety cross-check.
    shadow_beat: BTreeMap<u64, u64>,
    /// `(round, client)` pairs already aggregated — the double-aggregation
    /// cross-check across restarts.
    aggregated: BTreeSet<(u64, u64)>,
    /// Round numbers already committed — no round may commit twice.
    committed_rounds: BTreeSet<u64>,
    /// `(round, settle_by)` recovery budget for the round that was open at
    /// the most recent crash; cleared when its verdict lands in time.
    recovery_watch: Option<(u64, u64)>,
    report: ClusterReport,
}

impl Cluster {
    /// Builds a cluster; nothing runs until [`Cluster::run`].
    pub fn new(config: ClusterConfig) -> Self {
        let net = SimNet::default();
        let participants = config
            .participants
            .iter()
            .map(|p| ParticipantNode::new(net.clone(), ParticipantNodeConfig::new(p.clone())))
            .collect();
        Self {
            uplink: ChaosLink::new(config.uplink),
            downlink: ChaosLink::new(config.downlink),
            config,
            net,
            journal: SimFile::default(),
            trace: SimFile::default(),
            torn_tail: 0,
            journal_tail: 0,
            coordinator: None,
            participants,
            shadow_beat: BTreeMap::new(),
            aggregated: BTreeSet::new(),
            committed_rounds: BTreeSet::new(),
            recovery_watch: None,
            report: ClusterReport::default(),
        }
    }

    /// Runs the cluster to its round target (or tick budget) and reports.
    pub fn run(self) -> ClusterReport {
        self.run_to_end().0
    }

    /// [`Cluster::run`], also handing back the coordinator node's own
    /// report (`None` when the run ended during an outage) for the
    /// trace-replay oracle.
    pub(crate) fn run_to_end(mut self) -> (ClusterReport, Option<NodeReport>) {
        self.start_coordinator(1);
        let mut crashes = self.config.crashes.clone();
        crashes.sort_by_key(|c| c.at_tick);
        let mut next_crash = 0usize;
        let mut outage: Option<Outage> = None;
        let mut tick = 0;
        while tick < self.config.max_ticks {
            // 0a. Restart a downed coordinator once its outage has elapsed,
            //     from whatever its files retained.
            if outage.as_ref().is_some_and(|o| tick >= o.restart) {
                let o = outage.take().expect("invariant: checked above");
                self.restart_coordinator(&o, tick);
            }
            // 0b. Kill the coordinator at its scheduled crash tick. Only
            //     synced file bytes survive, and every connection made to
            //     this incarnation is lost; crashes scheduled while it is
            //     already down are skipped.
            while next_crash < crashes.len() && crashes[next_crash].at_tick <= tick {
                let crash = crashes[next_crash];
                next_crash += 1;
                if crash.at_tick < tick {
                    continue;
                }
                let Some(node) = self.coordinator.take() else {
                    continue;
                };
                let coordinator = node.core().coordinator();
                let open_round = matches!(coordinator.phase(), Phase::Selected | Phase::Training)
                    .then(|| coordinator.round());
                // Should the run end during the outage, this is the last
                // the coordinator was heard of.
                self.report.coordinator = node.core().stats();
                drop(node);
                self.net.hang_up();
                self.journal.crash(self.journal_tail);
                self.trace.crash(self.torn_tail);
                outage = Some(Outage {
                    restart: tick + crash.down_ticks.max(1),
                    crash_tick: tick,
                    open_round,
                });
                self.report.coordinator_crashes += 1;
            }
            // 1. Every participant node takes its turn: dial when
            //    disconnected, read what was delivered, act, send.
            for participant in &mut self.participants {
                participant.cycle();
            }
            // 2. Carry upstream traffic across the uplink.
            self.carry(UP, tick);
            // 3. The coordinator node takes its turn on what arrived.
            if let Some(node) = self.coordinator.as_mut() {
                let effects = node.cycle().expect(
                    "invariant: the simulated disk is fault-free and the cycle budget unbounded",
                );
                self.absorb(effects, tick);
            }
            // 4. Carry downstream traffic across the downlink (frames
            //    already in flight keep arriving even while the
            //    coordinator is down).
            self.carry(DOWN, tick);
            self.report.ticks = tick + 1;
            if self.rounds_closed() >= self.config.target_rounds {
                break;
            }
            tick += 1;
        }
        self.report.stuck = self.rounds_closed() < self.config.target_rounds;
        // A pre-crash round that never settled within its budget is a
        // recovery-liveness failure (only judged once the budget elapsed).
        if let Some((_, settle_by)) = self.recovery_watch {
            if self.report.ticks > settle_by {
                self.report.recovery_violations += 1;
            }
        }
        self.report.uplink = self.uplink.stats();
        self.report.downlink = self.downlink.stats();
        self.report.participants = self.participants.iter().map(|p| p.report().stats).collect();
        let node_report = self.coordinator.take().map(|node| {
            node.finish()
                .expect("invariant: the simulated disk is fault-free")
        });
        if let Some(node_report) = &node_report {
            self.report.coordinator = node_report.audit.stats;
        }
        (self.report, node_report)
    }

    /// Boots a coordinator node over the simulated files — fresh when they
    /// are empty, otherwise through the node's recovery path, resuming its
    /// clock `restart_lag` ticks after the last tick its trace retained.
    fn start_coordinator(&mut self, restart_lag: u64) {
        let mut config = CoordinatorNodeConfig::new(self.config.coordinator.clone());
        config.global = self.config.global_payload.clone();
        config.target_rounds = self.config.target_rounds;
        config.max_cycles = u64::MAX;
        config.restart_lag = restart_lag;
        let store = DiskJournal::over(self.journal.clone(), true).map_err(NodeError::from);
        let node = store.and_then(|store| {
            let trace = Some(self.trace.clone());
            CoordinatorNode::boot(self.net.listen(), config, Some(store), trace)
        });
        self.coordinator =
            Some(node.expect("invariant: the simulated files hold only this run's own history"));
    }

    /// Restarts the coordinator after an outage and re-syncs the shadow
    /// audit with the recovered leases. (The recovery's own verdicts
    /// surface from the node's first cycle, later this same tick.)
    fn restart_coordinator(&mut self, outage: &Outage, tick: u64) {
        self.start_coordinator(tick - outage.crash_tick);
        // Recovery re-arms every surviving roster lease at the restart
        // tick; grant the shadow the same grace — but only to clients whose
        // shadow lease had not already lapsed when the crash hit.
        let timeout = self.config.coordinator.heartbeat_timeout;
        for last in self.shadow_beat.values_mut() {
            if outage.crash_tick.saturating_sub(*last) < timeout {
                *last = (*last).max(tick);
            }
        }
        // The round open at the crash must settle within one deadline
        // budget of the restart, whether it resumes or aborts.
        if let Some(round) = outage.open_round {
            self.recovery_watch = Some((round, tick + self.config.coordinator.round_deadline));
        }
    }

    fn rounds_closed(&self) -> u64 {
        self.report.committed + self.report.aborted
    }

    /// Carries every frame the nodes sent in direction `dir` across that
    /// direction's chaos link and delivers what survives. Bytes are charged
    /// at the sender (duplicates are the network's doing, not the radio's).
    fn carry(&mut self, dir: usize, tick: u64) {
        let (link, offered) = if dir == UP {
            (&mut self.uplink, &mut self.report.control_bytes_up)
        } else {
            (&mut self.downlink, &mut self.report.control_bytes_down)
        };
        let mut arriving = Vec::new();
        for envelope in self.net.take_sent(dir) {
            *offered += envelope.bytes.len() as u64;
            link.push(envelope, &mut arriving);
        }
        link.drain(&mut arriving);
        for envelope in arriving {
            // Shadow the liveness-bearing frames *as delivered* to a live
            // coordinator, independently of its own bookkeeping.
            let beat = match (dir == UP).then(|| ControlFrame::decode(&envelope.bytes)) {
                Some(Ok((ControlFrame::JoinRequest { client, .. }, _)))
                | Some(Ok((ControlFrame::Heartbeat { client, .. }, _))) => Some(client),
                _ => None,
            };
            if let (true, Some(client)) = (self.net.deliver(dir, envelope), beat) {
                let entry = self.shadow_beat.entry(client).or_insert(tick);
                *entry = (*entry).max(tick);
            }
        }
    }

    /// Folds what the coordinator node decided this cycle into the report
    /// and the audits.
    fn absorb(&mut self, effects: Vec<Effect>, tick: u64) {
        for effect in effects {
            let Some(verdict) = RoundVerdict::of(&effect, tick) else {
                continue;
            };
            if verdict.committed {
                self.audit_commit(&verdict.accepted, tick);
                self.audit_once(verdict.round, &verdict.accepted);
                self.report.committed += 1;
            } else {
                self.report.aborted += 1;
            }
            self.settle_recovery(verdict.round, tick);
            self.report.round_log.push(verdict);
        }
    }

    /// The independent safety audit: every accepted client must have had a
    /// join or heartbeat *delivered* within the lease window ending at the
    /// commit tick.
    fn audit_commit(&mut self, accepted: &[u64], tick: u64) {
        let timeout = self.config.coordinator.heartbeat_timeout;
        for client in accepted {
            let live = self
                .shadow_beat
                .get(client)
                .is_some_and(|&last| tick.saturating_sub(last) < timeout);
            if !live {
                self.report.safety_violations += 1;
            }
        }
    }

    /// The recovery-safety audit: no round commits twice, and no
    /// `(round, client)` update is aggregated twice — even across restarts.
    fn audit_once(&mut self, round: u64, accepted: &[u64]) {
        if !self.committed_rounds.insert(round) {
            self.report.double_aggregations += 1;
        }
        for &client in accepted {
            if !self.aggregated.insert((round, client)) {
                self.report.double_aggregations += 1;
            }
        }
    }

    /// The recovery-liveness audit: a round open at a crash must settle
    /// (commit or abort) within one `round_deadline` of the restart.
    fn settle_recovery(&mut self, round: u64, tick: u64) {
        if let Some((watched, settle_by)) = self.recovery_watch {
            if watched == round {
                if tick > settle_by {
                    self.report.recovery_violations += 1;
                }
                self.recovery_watch = None;
            }
        }
    }
}

/// Volatile bookkeeping for one coordinator outage: when the process
/// comes back, and what the audits need to remember about the crash.
#[derive(Debug)]
struct Outage {
    restart: u64,
    crash_tick: u64,
    open_round: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn coordinator_config() -> CoordinatorConfig {
        CoordinatorConfig {
            k: 2,
            over_select: 1,
            quorum: 2,
            epochs: 5,
            heartbeat_interval: 5,
            heartbeat_timeout: 20,
            round_deadline: 40,
        }
    }

    #[test]
    fn quiet_cluster_commits_every_round() {
        let report = Cluster::new(ClusterConfig::quiet(coordinator_config(), 4, 5)).run();
        assert!(report.liveness_ok(), "{report:?}");
        assert!(report.safety_ok(), "{report:?}");
        assert_eq!(report.committed, 5);
        assert_eq!(report.aborted, 0);
        for verdict in &report.round_log {
            assert_eq!(verdict.accepted.len(), 2, "K = 2 winners per round");
        }
        assert!(report.control_bytes() > 0);
    }

    #[test]
    fn quiet_cluster_is_deterministic() {
        let a = Cluster::new(ClusterConfig::quiet(coordinator_config(), 4, 5)).run();
        let b = Cluster::new(ClusterConfig::quiet(coordinator_config(), 4, 5)).run();
        assert_eq!(a, b);
    }

    #[test]
    fn chaotic_cluster_still_closes_every_round() {
        let chaos = ChaosConfig {
            drop_prob: 0.1,
            dup_prob: 0.1,
            reorder_prob: 0.1,
            corrupt_prob: 0.05,
            seed: 42,
        };
        let mut config = ClusterConfig::quiet(coordinator_config(), 5, 8);
        config.uplink = chaos;
        config.downlink = ChaosConfig { seed: 43, ..chaos };
        let report = Cluster::new(config).run();
        assert!(report.liveness_ok(), "{report:?}");
        assert!(report.safety_ok(), "{report:?}");
        assert_eq!(report.committed + report.aborted, 8);
    }

    #[test]
    fn muted_participants_are_never_aggregated_after_expiry() {
        // Three honest clients and two that never heartbeat: the mutes'
        // leases lapse 20 ticks after joining, while the round deadline is
        // 40 — any update of theirs buffered early must be voided.
        let mut config = ClusterConfig::quiet(coordinator_config(), 3, 6);
        for client in [3u64, 4] {
            config.participants.push(ParticipantConfig {
                mute_heartbeats: true,
                ..ParticipantConfig::new(client, 3)
            });
        }
        config.max_ticks = 5_000;
        let report = Cluster::new(config).run();
        assert!(report.safety_ok(), "{report:?}");
        assert!(report.liveness_ok(), "{report:?}");
        // After the mutes expire, later commits only ever accept 0..=2.
        let last = report.round_log.last().expect("rounds closed");
        assert!(last.accepted.iter().all(|&c| c < 3), "{report:?}");
    }

    /// A quiet fleet whose training times are staggered, so uploads
    /// straggle in over several ticks and every round stays open long
    /// enough for a crash to land mid-round with updates buffered.
    pub(super) fn staggered_config(target_rounds: u64) -> ClusterConfig {
        let mut config = ClusterConfig::quiet(coordinator_config(), 4, target_rounds);
        for (i, p) in config.participants.iter_mut().enumerate() {
            p.train_ticks = 2 + 4 * i as u64;
        }
        config
    }

    #[test]
    fn coordinator_crash_mid_round_recovers_live_and_safe() {
        let mut config = staggered_config(5);
        config.crashes = vec![CoordinatorCrash {
            at_tick: 5,
            down_ticks: 5,
        }];
        let report = Cluster::new(config).run();
        assert_eq!(report.coordinator_crashes, 1, "{report:?}");
        assert!(report.liveness_ok(), "{report:?}");
        assert!(report.safety_ok(), "{report:?}");
        assert!(report.recovery_ok(), "{report:?}");
        assert_eq!(report.committed + report.aborted, 5);
        // Recovery re-armed every lease, so the fleet rode the restart on
        // its heartbeats alone: nobody was bounced into a rejoin.
        assert!(
            report.participants.iter().all(|p| p.sessions_rejoined == 0),
            "{report:?}"
        );
    }

    #[test]
    fn crash_runs_replay_bit_identically() {
        let build = || {
            let mut config = ClusterConfig::quiet(coordinator_config(), 4, 5);
            config.crashes = vec![
                CoordinatorCrash {
                    at_tick: 12,
                    down_ticks: 4,
                },
                CoordinatorCrash {
                    at_tick: 33,
                    down_ticks: 7,
                },
            ];
            config
        };
        let a = Cluster::new(build()).run();
        let b = Cluster::new(build()).run();
        assert_eq!(a, b);
    }

    #[test]
    fn crash_scheduled_during_downtime_is_skipped() {
        let mut config = staggered_config(5);
        config.crashes = vec![
            CoordinatorCrash {
                at_tick: 4,
                down_ticks: 10,
            },
            CoordinatorCrash {
                at_tick: 8,
                down_ticks: 10,
            },
        ];
        let report = Cluster::new(config).run();
        assert_eq!(report.coordinator_crashes, 1, "{report:?}");
        assert!(report.liveness_ok() && report.safety_ok() && report.recovery_ok());
    }

    #[test]
    fn long_outage_aborts_the_open_round_within_the_recovery_budget() {
        // The outage outlives the round deadline: the pre-crash round can
        // never resume, so recovery must abort it — and the run still
        // closes every remaining round.
        let mut config = staggered_config(4);
        config.crashes = vec![CoordinatorCrash {
            at_tick: 5,
            down_ticks: 60,
        }];
        let report = Cluster::new(config).run();
        assert!(report.liveness_ok(), "{report:?}");
        assert!(report.recovery_ok(), "{report:?}");
        let crash_aborts: Vec<_> = report
            .round_log
            .iter()
            .filter(|v| v.reason == Some(AbortReason::CoordinatorCrash))
            .collect();
        assert_eq!(crash_aborts.len(), 1, "{report:?}");
        assert_eq!(report.coordinator.aborts.coordinator_crash, 1);
        // The abandoned round's buffered uploads are billed as waste.
        assert!(report.coordinator.wasted_update_bytes > 0, "{report:?}");
    }

    #[test]
    fn chaotic_cluster_survives_coordinator_crashes() {
        let chaos = ChaosConfig {
            drop_prob: 0.1,
            dup_prob: 0.1,
            reorder_prob: 0.1,
            corrupt_prob: 0.05,
            seed: 42,
        };
        let mut config = ClusterConfig::quiet(coordinator_config(), 5, 8);
        config.uplink = chaos;
        config.downlink = ChaosConfig { seed: 43, ..chaos };
        config.crashes = vec![
            CoordinatorCrash {
                at_tick: 18,
                down_ticks: 6,
            },
            CoordinatorCrash {
                at_tick: 90,
                down_ticks: 12,
            },
        ];
        let report = Cluster::new(config).run();
        assert!(report.liveness_ok(), "{report:?}");
        assert!(report.safety_ok(), "{report:?}");
        assert!(report.recovery_ok(), "{report:?}");
        assert_eq!(report.committed + report.aborted, 8);
    }

    #[test]
    fn a_fleet_smaller_than_k_commits_at_quorum() {
        // K = 3 but only 2 participants ever join: every round opens with
        // a shrunken fleet and commits on the quorum it has.
        let config = CoordinatorConfig {
            k: 3,
            over_select: 0,
            quorum: 2,
            epochs: 5,
            heartbeat_interval: 5,
            heartbeat_timeout: 20,
            round_deadline: 40,
        };
        let report = Cluster::new(ClusterConfig::quiet(config, 2, 3)).run();
        assert!(report.liveness_ok(), "{report:?}");
        assert_eq!(report.committed, 3, "{report:?}");
        assert!(report.round_log.iter().all(|v| v.accepted == [0, 1]));
    }
}

/// What only the shipped loops over the simulated backend can say: the
/// conformance oracle under chaos and crashes, torn tails through the node's
/// start path, and byte-level determinism.
#[cfg(test)]
mod oracle_tests {
    use super::tests::{coordinator_config, staggered_config};
    use super::*;
    use crate::journal::JournalRecord;
    use crate::node::replay_trace;
    use crate::record::scan;
    use crate::trace::TraceEvent;

    /// What one audited run left behind: its report, the simulated trace
    /// file's bytes, how many unsynced trace bytes its last crash lost, and
    /// the unsynced journal-file bytes it lost.
    struct Audited {
        report: ClusterReport,
        disk_trace: Vec<u8>,
        lost_tail: usize,
        lost_journal: Vec<u8>,
    }

    /// Runs `config` (crashes keeping `torn_tail` unsynced trace bytes and
    /// `journal_tail` unsynced journal-file bytes) and holds the run to the
    /// conformance oracle: the coordinator node's live audit equals the
    /// replay of its own trace, and its files on the simulated disk are
    /// exactly its journal and its trace.
    fn audited(config: ClusterConfig, torn_tail: usize, journal_tail: usize) -> Audited {
        let mut cluster = Cluster::new(config.clone());
        cluster.torn_tail = torn_tail;
        cluster.journal_tail = journal_tail;
        let (journal, trace) = (cluster.journal.clone(), cluster.trace.clone());
        let (report, node) = cluster.run_to_end();
        let node = node.expect("the run ended with the coordinator up");
        let (events, torn) = scan(&trace.bytes(), TraceEvent::decode).expect("own trace");
        assert_eq!(torn, 0, "a finished node leaves no torn trace tail");
        let replayed = replay_trace(&config.coordinator, &config.global_payload, &events);
        assert_eq!(
            replayed, node.audit,
            "live audit != replay of its own trace"
        );
        assert_eq!(journal.bytes(), node.audit.journal, "disk journal diverged");
        assert_eq!(report.round_log.len(), node.audit.round_log.len());
        Audited {
            report,
            disk_trace: trace.bytes(),
            lost_tail: trace.lost(),
            lost_journal: node.audit.journal[..journal.lost()].to_vec(),
        }
    }

    fn hostile(seed: u64) -> ChaosConfig {
        ChaosConfig {
            drop_prob: 0.12,
            dup_prob: 0.10,
            reorder_prob: 0.12,
            corrupt_prob: 0.06,
            seed,
        }
    }

    /// The `tests/protocol.rs` fleet: five honest devices and a muted probe.
    fn protocol_config(seed: u64) -> ClusterConfig {
        let mut config = ClusterConfig::quiet(
            CoordinatorConfig {
                k: 3,
                ..coordinator_config()
            },
            5,
            6,
        );
        config.participants.push(ParticipantConfig {
            mute_heartbeats: true,
            ..ParticipantConfig::new(5, 3)
        });
        config.uplink = hostile(seed * 2 + 1);
        config.downlink = hostile(seed * 2 + 2);
        config
    }

    fn crash(at_tick: u64, down_ticks: u64) -> CoordinatorCrash {
        CoordinatorCrash {
            at_tick,
            down_ticks,
        }
    }

    /// Every crash schedule the unit tests above run.
    fn crash_schedules() -> Vec<ClusterConfig> {
        let with = |mut config: ClusterConfig, crashes: Vec<CoordinatorCrash>| {
            config.crashes = crashes;
            config
        };
        let mut chaotic = ClusterConfig::quiet(coordinator_config(), 5, 8);
        chaotic.uplink = hostile(42);
        chaotic.downlink = hostile(43);
        vec![
            with(staggered_config(5), vec![crash(5, 5)]),
            with(
                ClusterConfig::quiet(coordinator_config(), 4, 5),
                vec![crash(12, 4), crash(33, 7)],
            ),
            with(staggered_config(5), vec![crash(4, 10), crash(8, 10)]),
            with(staggered_config(4), vec![crash(5, 60)]),
            with(chaotic, vec![crash(18, 6), crash(90, 12)]),
        ]
    }

    #[test]
    fn live_audit_equals_trace_replay_under_hostile_chaos() {
        for seed in [1u64, 3, 7, 23, 42, 99, 1234] {
            let run = audited(protocol_config(seed), 0, 0).report;
            assert!(run.liveness_ok() && run.safety_ok(), "seed {seed}: {run:?}");
        }
    }

    #[test]
    fn live_audit_equals_trace_replay_across_kill_and_restart() {
        for (i, config) in crash_schedules().into_iter().enumerate() {
            let run = audited(config, 0, 0).report;
            assert!(run.coordinator_crashes >= 1, "schedule {i}: {run:?}");
            assert!(
                run.liveness_ok() && run.safety_ok() && run.recovery_ok(),
                "schedule {i}: {run:?}"
            );
        }
    }

    #[test]
    fn every_torn_trace_tail_at_every_crash_tick_recovers_through_the_start_path() {
        let (mut tails, mut journal_cuts) = (0, 0);
        for at_tick in 0..=24 {
            let config = || {
                let mut config = staggered_config(5);
                config.crashes = vec![crash(at_tick, 3)];
                config
            };
            let recovers = |trace_keep: usize, journal_keep: usize| {
                // `audited` also holds the journal file to the final journal.
                let run = audited(config(), trace_keep, journal_keep).report;
                let at = format!("crash at {at_tick} keeping {trace_keep}/{journal_keep} bytes");
                assert_eq!(run.coordinator_crashes, 1, "{at}");
                assert!(run.liveness_ok(), "{at}: {run:?}");
                assert!(run.safety_ok() && run.recovery_ok(), "{at}: {run:?}");
                assert_eq!(run.committed + run.aborted, 5, "{at}");
            };
            // With nothing kept, the crash reports what was unsynced; then
            // keep every prefix of the trace's tail in turn.
            let bare = audited(config(), 0, 0);
            let unsynced = bare.lost_tail;
            for keep in 0..=unsynced {
                recovers(keep, 0);
            }
            tails += unsynced;
            // The journal file is never synced: it may keep any prefix of
            // what it was written, up to a record boundary or torn one byte
            // into a record — under the shortest and the longest trace tail.
            let (records, _) = scan(&bare.lost_journal, JournalRecord::decode).expect("own");
            let (mut keeps, mut at) = (vec![0], 0);
            for len in records.iter().map(JournalRecord::encoded_len) {
                keeps.extend([at + 1, at + len]);
                at += len;
            }
            for &keep in &keeps {
                recovers(0, keep);
                recovers(unsynced, keep);
            }
            journal_cuts += keeps.len();
        }
        assert!(tails > 500 && journal_cuts > 100, "{tails}/{journal_cuts}");
    }

    #[test]
    fn identical_campaigns_write_byte_identical_traces() {
        let mut configs = crash_schedules();
        configs.push(protocol_config(7));
        for (i, config) in configs.into_iter().enumerate() {
            let (a, b) = (audited(config.clone(), 0, 0), audited(config, 0, 0));
            assert!(!a.disk_trace.is_empty());
            assert_eq!(a.disk_trace, b.disk_trace, "campaign {i}: traces diverged");
            assert_eq!(a.report, b.report, "campaign {i}: reports diverged");
        }
    }
}
