//! The round decision core shared by every driver.
//!
//! One round of the protocol makes exactly four decisions: *can the round
//! open* (quorum over the live fleet), *how wide to select* (over-selection
//! as a dropout hedge), *which offers survive* (delivery and the round
//! deadline), and *which arrivals win* (first `K` by arrival time, ties by
//! device id). [`RoundMachine`] owns those decisions. The in-process
//! engines ([`fei_fl`-style] serial and threaded) and the frame-driven
//! [`crate::Coordinator`] all execute this same machine, which is what
//! keeps their committed sets bit-identical.
//!
//! [`fei_fl`-style]: crate::RoundMachine

use crate::error::ProtoError;

/// Coordinator-side tolerance policy for one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundPolicy {
    /// Updates aggregated per round (`K`).
    pub k: usize,
    /// Extra devices selected beyond `K` as a dropout hedge.
    pub over_select: usize,
    /// Minimum delivered updates for the round to commit.
    pub quorum: usize,
    /// Arrival-time deadline, virtual seconds; `None` waits forever.
    pub deadline_s: Option<f64>,
}

impl RoundPolicy {
    /// How many devices to select from a fleet of `n`: `K + m`, capped at
    /// the fleet size.
    pub(crate) fn selection_width(&self, n: usize) -> usize {
        (self.k + self.over_select).min(n)
    }
}

/// What happened to one selected device's offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceFate {
    /// The device was down; it never trained.
    Crashed,
    /// Training finished but every upload attempt failed.
    AbandonedUpload,
    /// The update was delivered after the round deadline.
    DeadlineMiss,
    /// The update arrived in time and entered the race for the first `K`.
    Arrived,
}

/// One selected device's reported round, as the driver observed it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceReport {
    /// Slowdown factor; `> 1` marks the device a straggler.
    pub straggle_factor: f64,
    /// Whether the upload ultimately succeeded.
    pub delivered: bool,
    /// Arrival time of the update, virtual seconds from round start.
    pub arrival_s: f64,
}

/// Per-round fault tally the machine accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTally {
    /// Selected devices that were down.
    pub crashed: usize,
    /// Devices that ran slower than nominal.
    pub stragglers: usize,
    /// Devices whose every upload attempt failed.
    pub abandoned_uploads: usize,
    /// Deliveries discarded for missing the deadline.
    pub deadline_misses: usize,
}

/// The machine's verdict when the round closes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedRound {
    /// The round that closed.
    pub round: u64,
    /// Devices whose updates won the race, ascending.
    pub accepted: Vec<usize>,
    /// Whether enough arrivals met the quorum to commit.
    pub quorum_met: bool,
    /// Fault tally accumulated over the offers.
    pub tally: RoundTally,
}

/// Event-driven decision machine for one round.
///
/// Lifecycle: [`RoundMachine::begin`] gates on quorum, each selected
/// device's outcome is fed through [`RoundMachine::offer`] (or
/// [`RoundMachine::offer_crashed`]), and [`RoundMachine::close`] ranks the
/// arrivals and returns the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundMachine {
    policy: RoundPolicy,
    round: u64,
    arrivals: Vec<(f64, usize)>,
    tally: RoundTally,
}

impl RoundMachine {
    /// Opens the round if `alive` devices satisfy the quorum.
    ///
    /// # Errors
    ///
    /// [`ProtoError::QuorumLost`] when fewer devices are up than the
    /// quorum requires — the round cannot possibly commit, so it must not
    /// open (the driver should re-plan or abort instead).
    pub fn begin(policy: RoundPolicy, round: u64, alive: usize) -> Result<Self, ProtoError> {
        if alive < policy.quorum {
            return Err(ProtoError::QuorumLost {
                round,
                alive,
                required: policy.quorum,
            });
        }
        Ok(Self {
            policy,
            round,
            arrivals: Vec::new(),
            tally: RoundTally::default(),
        })
    }

    /// How many devices the driver should select from a fleet of `n`.
    pub fn selection_width(&self, n: usize) -> usize {
        self.policy.selection_width(n)
    }

    /// Records a selected device that was down this round.
    pub fn offer_crashed(&mut self, _device: usize) -> DeviceFate {
        self.tally.crashed += 1;
        DeviceFate::Crashed
    }

    /// Feeds one live device's round outcome, deciding its fate: abandoned
    /// uploads and post-deadline deliveries are discarded, in-time arrivals
    /// enter the first-`K` race.
    pub fn offer(&mut self, device: usize, report: DeviceReport) -> DeviceFate {
        if report.straggle_factor > 1.0 {
            self.tally.stragglers += 1;
        }
        if !report.delivered {
            self.tally.abandoned_uploads += 1;
            return DeviceFate::AbandonedUpload;
        }
        if self
            .policy
            .deadline_s
            .is_some_and(|deadline| report.arrival_s > deadline)
        {
            self.tally.deadline_misses += 1;
            return DeviceFate::DeadlineMiss;
        }
        self.arrivals.push((report.arrival_s, device));
        DeviceFate::Arrived
    }

    /// Closes the round: the first `K` arrivals win, ties broken by device
    /// id, and the winners are reported in ascending id order.
    pub fn close(self) -> ClosedRound {
        let accepted = first_k_by_arrival(self.arrivals, self.policy.k);
        let quorum_met = accepted.len() >= self.policy.quorum;
        ClosedRound {
            round: self.round,
            accepted,
            quorum_met,
            tally: self.tally,
        }
    }
}

/// Ranks `(arrival, device)` pairs by arrival time (ties by device id),
/// keeps the first `k`, and returns the winners sorted ascending by id —
/// the canonical ordering every engine and the frame-driven coordinator
/// share.
pub(crate) fn first_k_by_arrival<T: Ord + Copy>(mut arrivals: Vec<(f64, T)>, k: usize) -> Vec<T> {
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut winners: Vec<T> = arrivals.iter().take(k).map(|&(_, device)| device).collect();
    winners.sort_unstable();
    winners
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(k: usize, quorum: usize, deadline_s: Option<f64>) -> RoundPolicy {
        RoundPolicy {
            k,
            over_select: 2,
            quorum,
            deadline_s,
        }
    }

    #[test]
    fn quorum_gates_the_open() {
        let err = RoundMachine::begin(policy(3, 4, None), 7, 3);
        assert_eq!(
            err,
            Err(ProtoError::QuorumLost {
                round: 7,
                alive: 3,
                required: 4
            })
        );
        assert!(RoundMachine::begin(policy(3, 4, None), 7, 4).is_ok());
    }

    #[test]
    fn selection_width_caps_at_fleet() {
        let p = policy(10, 1, None);
        assert_eq!(p.selection_width(20), 12);
        assert_eq!(p.selection_width(11), 11);
    }

    #[test]
    fn fates_are_classified_and_tallied() {
        let mut machine =
            RoundMachine::begin(policy(2, 1, Some(10.0)), 0, 5).expect("quorum satisfied");
        assert_eq!(machine.offer_crashed(0), DeviceFate::Crashed);
        assert_eq!(
            machine.offer(
                1,
                DeviceReport {
                    straggle_factor: 3.0,
                    delivered: true,
                    arrival_s: 30.0
                }
            ),
            DeviceFate::DeadlineMiss
        );
        assert_eq!(
            machine.offer(
                2,
                DeviceReport {
                    straggle_factor: 1.0,
                    delivered: false,
                    arrival_s: 5.0
                }
            ),
            DeviceFate::AbandonedUpload
        );
        assert_eq!(
            machine.offer(
                3,
                DeviceReport {
                    straggle_factor: 1.0,
                    delivered: true,
                    arrival_s: 5.0
                }
            ),
            DeviceFate::Arrived
        );
        let closed = machine.close();
        assert_eq!(
            closed.tally,
            RoundTally {
                crashed: 1,
                stragglers: 1,
                abandoned_uploads: 1,
                deadline_misses: 1,
            }
        );
        assert_eq!(closed.accepted, vec![3]);
        assert!(closed.quorum_met);
    }

    #[test]
    fn first_k_ranks_by_arrival_then_id_and_sorts_winners() {
        let arrivals = vec![(5.0, 9), (1.0, 4), (5.0, 2), (0.5, 7)];
        // Race order: 7 (0.5), 4 (1.0), 2 (5.0 ties → lower id), 9.
        assert_eq!(first_k_by_arrival(arrivals.clone(), 3), vec![2, 4, 7]);
        assert_eq!(first_k_by_arrival(arrivals, 10), vec![2, 4, 7, 9]);
    }

    #[test]
    fn arrival_exactly_at_deadline_is_admitted() {
        // The deadline is inclusive: `arrival > deadline` misses, equality
        // does not — mirroring the engines' admission test.
        let mut machine =
            RoundMachine::begin(policy(1, 1, Some(10.0)), 0, 2).expect("quorum satisfied");
        assert_eq!(
            machine.offer(
                0,
                DeviceReport {
                    straggle_factor: 1.0,
                    delivered: true,
                    arrival_s: 10.0
                }
            ),
            DeviceFate::Arrived
        );
    }

    #[test]
    fn quorum_miss_reports_uncommitted() {
        let machine = RoundMachine::begin(policy(3, 2, None), 1, 4).expect("quorum satisfied");
        let closed = machine.close();
        assert!(!closed.quorum_met);
        assert!(closed.accepted.is_empty());
    }
}
