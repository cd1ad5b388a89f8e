//! Deterministic fault injection for federated rounds.
//!
//! Edge deployments lose devices: batteries die, radios collide, slow nodes
//! miss deadlines. This module provides a seeded [`FaultInjector`] that
//! schedules crashes (with optional restart), stragglers, and dropped or
//! corrupted upload frames, plus the [`RetryPolicy`] (exponential backoff
//! with jitter) the coordinator uses to re-request lost uploads.
//!
//! Every decision is a **pure function of `(device, round)`** under the
//! injector's seed — there is no internal RNG state, so the in-process and
//! threaded engines observe the *same* fault schedule regardless of thread
//! interleaving or call order, and a campaign replays bit-identically from
//! its seed.

use fei_sim::DetRng;

/// Stream salts keeping the per-(device, round) draws decorrelated.
const SALT_CRASH: u64 = 0xC4A5;
const SALT_STRAGGLE: u64 = 0x57A6;
const SALT_UPLOAD: u64 = 0x0751;
const SALT_CORRUPT: u64 = 0xC0_44BF;
const SALT_JITTER: u64 = 0x71_77E4;

/// Probabilities and shape of the injected fault mix.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Per-(device, round) probability that the device crashes at the start
    /// of that round.
    pub crash_prob: f64,
    /// Rounds a crashed device stays down before restarting; `0` means the
    /// crash is permanent.
    pub restart_rounds: usize,
    /// Per-(device, round) probability of running slow this round.
    pub straggler_prob: f64,
    /// Wall-time multiplier (`>= 1`) applied to a straggling device's round.
    pub straggler_factor: f64,
    /// Per-attempt probability that an upload frame is dropped in flight.
    pub upload_loss_prob: f64,
    /// Per-attempt probability that a delivered upload frame arrives
    /// corrupted (fails the codec checksum) and must be retransmitted.
    pub corrupt_prob: f64,
    /// Seed of the fault schedule. Independent of the training seed.
    pub seed: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            crash_prob: 0.0,
            restart_rounds: 1,
            straggler_prob: 0.0,
            straggler_factor: 4.0,
            upload_loss_prob: 0.0,
            corrupt_prob: 0.0,
            seed: 0xFA17,
        }
    }
}

impl FaultSpec {
    /// Whether this spec injects nothing at all.
    pub(crate) fn is_noop(&self) -> bool {
        // fei-lint: allow(float-eq, reason = "configuration sentinel: only an exactly-zero probability disables injection")
        self.crash_prob == 0.0
            // fei-lint: allow(float-eq, reason = "configuration sentinel: only an exactly-zero probability disables injection")
            && self.straggler_prob == 0.0
            // fei-lint: allow(float-eq, reason = "configuration sentinel: only an exactly-zero probability disables injection")
            && self.upload_loss_prob == 0.0
            // fei-lint: allow(float-eq, reason = "configuration sentinel: only an exactly-zero probability disables injection")
            && self.corrupt_prob == 0.0
    }

    fn validate(&self) {
        for (name, p) in [
            ("crash_prob", self.crash_prob),
            ("straggler_prob", self.straggler_prob),
            ("upload_loss_prob", self.upload_loss_prob),
            ("corrupt_prob", self.corrupt_prob),
        ] {
            assert!((0.0..1.0).contains(&p), "{name} must be in [0, 1), got {p}");
        }
        assert!(
            self.straggler_factor >= 1.0,
            "straggler_factor must be >= 1, got {}",
            self.straggler_factor
        );
    }
}

/// Bounded retry with exponential backoff and deterministic jitter.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum upload attempts per round (first try included). Must be at
    /// least 1.
    pub max_attempts: usize,
    /// Backoff before the first retry, seconds.
    pub base_delay_s: f64,
    /// Backoff growth factor per retry.
    pub multiplier: f64,
    /// Backoff ceiling, seconds.
    pub max_delay_s: f64,
    /// Fractional jitter: each delay is scaled by a factor drawn uniformly
    /// from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_delay_s: 0.05,
            multiplier: 2.0,
            max_delay_s: 2.0,
            jitter: 0.1,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (1-based), without jitter.
    pub(crate) fn nominal_delay_s(&self, retry: usize) -> f64 {
        debug_assert!(retry >= 1);
        (self.base_delay_s * self.multiplier.powi(retry as i32 - 1)).min(self.max_delay_s)
    }

    /// Backoff before retry number `retry` with jitter drawn from `rng`.
    pub(crate) fn delay_s(&self, retry: usize, rng: &mut DetRng) -> f64 {
        let jitter = 1.0 + self.jitter * (2.0 * rng.next_f64() - 1.0);
        self.nominal_delay_s(retry) * jitter
    }

    fn validate(&self) {
        assert!(self.max_attempts >= 1, "max_attempts must be at least 1");
        assert!(
            self.base_delay_s >= 0.0,
            "base_delay_s must be non-negative"
        );
        assert!(self.multiplier >= 1.0, "multiplier must be >= 1");
        assert!(
            self.max_delay_s >= self.base_delay_s,
            "max_delay_s below base_delay_s"
        );
        assert!(
            (0.0..=1.0).contains(&self.jitter),
            "jitter must be in [0, 1]"
        );
    }
}

/// How one device's upload went this round, under the retry policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct UploadOutcome {
    /// Attempts made (1 = clean first try).
    pub attempts: usize,
    /// Whether an intact frame eventually got through.
    pub delivered: bool,
    /// Attempts that arrived but failed the checksum.
    pub corrupted: usize,
    /// Attempts lost in flight.
    pub lost: usize,
    /// Total backoff waited across retries, virtual seconds.
    pub backoff_s: f64,
}

/// Seeded, stateless fault oracle.
///
/// Construct once per campaign; query per `(device, round)`. Identical
/// seeds yield identical schedules on every engine and every run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    spec: FaultSpec,
}

impl FaultInjector {
    /// Builds an injector from a validated spec.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1)` or
    /// `straggler_factor < 1`.
    pub fn new(spec: FaultSpec) -> Self {
        spec.validate();
        Self { spec }
    }

    /// Whether the injector can ever perturb a round.
    pub(crate) fn is_enabled(&self) -> bool {
        !self.spec.is_noop()
    }

    /// A decorrelated RNG for one `(device, round, stream)` cell. Stateless:
    /// the same cell always yields the same stream.
    fn cell_rng(&self, device: usize, round: usize, salt: u64) -> DetRng {
        let mix = (device as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((round as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(salt.wrapping_mul(0x94D0_49BB_1331_11EB));
        DetRng::new(self.spec.seed ^ mix)
    }

    /// Whether `device` crashes at the start of `round` (the onset draw, not
    /// the down state — see [`FaultInjector::is_down`]).
    pub(crate) fn crashes_at(&self, device: usize, round: usize) -> bool {
        self.spec.crash_prob > 0.0
            && self.cell_rng(device, round, SALT_CRASH).next_f64() < self.spec.crash_prob
    }

    /// Whether `device` is down (crashed and not yet restarted) at `round`.
    pub(crate) fn is_down(&self, device: usize, round: usize) -> bool {
        // fei-lint: allow(float-eq, reason = "configuration sentinel: exactly-zero crash probability means no crash schedule exists")
        if self.spec.crash_prob == 0.0 {
            return false;
        }
        let horizon = if self.spec.restart_rounds == 0 {
            0 // permanent crashes: scan the whole past
        } else {
            round.saturating_sub(self.spec.restart_rounds - 1)
        };
        (horizon..=round).any(|r| self.crashes_at(device, r))
    }

    /// Devices of `0..n` that are up at `round`, ascending.
    pub(crate) fn live_fleet(&self, n: usize, round: usize) -> Vec<usize> {
        (0..n).filter(|&d| !self.is_down(d, round)).collect()
    }

    /// Wall-time multiplier for `device` at `round` (`1.0` = on time).
    pub(crate) fn straggle_factor(&self, device: usize, round: usize) -> f64 {
        if self.spec.straggler_prob > 0.0
            && self.cell_rng(device, round, SALT_STRAGGLE).next_f64() < self.spec.straggler_prob
        {
            self.spec.straggler_factor
        } else {
            1.0
        }
    }

    /// Plays out the upload of `device` at `round` under `retry`: each
    /// attempt is independently lost or corrupted per the spec, and failed
    /// attempts back off per the policy.
    ///
    /// # Panics
    ///
    /// Panics on an invalid retry policy.
    pub(crate) fn upload_outcome(
        &self,
        device: usize,
        round: usize,
        retry: &RetryPolicy,
    ) -> UploadOutcome {
        retry.validate();
        let mut loss_rng = self.cell_rng(device, round, SALT_UPLOAD);
        let mut corrupt_rng = self.cell_rng(device, round, SALT_CORRUPT);
        let mut jitter_rng = self.cell_rng(device, round, SALT_JITTER);
        let mut outcome = UploadOutcome {
            attempts: 0,
            delivered: false,
            corrupted: 0,
            lost: 0,
            backoff_s: 0.0,
        };
        while outcome.attempts < retry.max_attempts {
            outcome.attempts += 1;
            let lost = self.spec.upload_loss_prob > 0.0
                && loss_rng.next_f64() < self.spec.upload_loss_prob;
            let corrupted = !lost
                && self.spec.corrupt_prob > 0.0
                && corrupt_rng.next_f64() < self.spec.corrupt_prob;
            if lost {
                outcome.lost += 1;
            } else if corrupted {
                outcome.corrupted += 1;
            } else {
                outcome.delivered = true;
                return outcome;
            }
            if outcome.attempts < retry.max_attempts {
                outcome.backoff_s += retry.delay_s(outcome.attempts, &mut jitter_rng);
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(crash: f64, restart: usize) -> FaultSpec {
        FaultSpec {
            crash_prob: crash,
            restart_rounds: restart,
            ..Default::default()
        }
    }

    #[test]
    fn noop_spec_injects_nothing() {
        let inj = FaultInjector::new(FaultSpec::default());
        assert!(!inj.is_enabled());
        for d in 0..10 {
            for t in 0..10 {
                assert!(!inj.is_down(d, t));
                assert_eq!(inj.straggle_factor(d, t), 1.0);
                let up = inj.upload_outcome(d, t, &RetryPolicy::default());
                assert!(up.delivered);
                assert_eq!(up.attempts, 1);
                assert_eq!(up.backoff_s, 0.0);
            }
        }
        assert_eq!(inj.live_fleet(5, 3), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn decisions_are_pure_functions_of_device_and_round() {
        let mk = || {
            FaultInjector::new(FaultSpec {
                crash_prob: 0.2,
                straggler_prob: 0.3,
                upload_loss_prob: 0.25,
                corrupt_prob: 0.1,
                seed: 99,
                ..Default::default()
            })
        };
        let (a, b) = (mk(), mk());
        let retry = RetryPolicy::default();
        // Query b in a scrambled order: results must still match a's.
        for d in (0..8).rev() {
            for t in 0..8 {
                assert_eq!(a.is_down(d, t), b.is_down(d, t));
                assert_eq!(a.straggle_factor(d, t), b.straggle_factor(d, t));
                assert_eq!(
                    a.upload_outcome(d, t, &retry),
                    b.upload_outcome(d, t, &retry)
                );
            }
        }
    }

    #[test]
    fn crash_and_restart_window() {
        let inj = FaultInjector::new(spec(0.3, 2));
        let crash_round = (0..100)
            .find(|&t| inj.crashes_at(3, t))
            .expect("30% crash rate must fire within 100 rounds");
        assert!(inj.is_down(3, crash_round));
        assert!(
            inj.is_down(3, crash_round + 1),
            "down for restart_rounds = 2"
        );
        // After the window the device is back unless it crashed again.
        if !inj.crashes_at(3, crash_round + 1) && !inj.crashes_at(3, crash_round + 2) {
            assert!(!inj.is_down(3, crash_round + 2));
        }
    }

    #[test]
    fn permanent_crash_never_restarts() {
        let inj = FaultInjector::new(spec(0.5, 0));
        let crash_round = (0..100)
            .find(|&t| inj.crashes_at(5, t))
            .expect("must crash");
        for t in crash_round..crash_round + 50 {
            assert!(
                inj.is_down(5, t),
                "permanent crash must persist at round {t}"
            );
        }
    }

    #[test]
    fn live_fleet_shrinks_under_permanent_crashes() {
        let inj = FaultInjector::new(spec(0.2, 0));
        let early = inj.live_fleet(20, 0).len();
        let late = inj.live_fleet(20, 40).len();
        assert!(late < early, "fleet must decay: {early} -> {late}");
    }

    #[test]
    fn upload_retries_are_bounded_and_backoff_grows() {
        let inj = FaultInjector::new(FaultSpec {
            upload_loss_prob: 0.9,
            ..Default::default()
        });
        let retry = RetryPolicy {
            max_attempts: 4,
            jitter: 0.0,
            ..Default::default()
        };
        let mut abandoned = 0;
        for d in 0..50 {
            let up = inj.upload_outcome(d, 0, &retry);
            assert!(up.attempts <= 4);
            assert_eq!(
                up.lost + up.corrupted + usize::from(up.delivered),
                up.attempts
            );
            if !up.delivered {
                abandoned += 1;
                assert_eq!(up.attempts, 4);
                // Three retries at 0.05 * (1, 2, 4) with no jitter.
                assert!(
                    (up.backoff_s - 0.35).abs() < 1e-12,
                    "backoff {}",
                    up.backoff_s
                );
            }
        }
        assert!(
            abandoned > 0,
            "90% loss with 4 attempts must abandon someone"
        );
    }

    #[test]
    fn backoff_is_capped_and_jittered_deterministically() {
        let retry = RetryPolicy {
            base_delay_s: 1.0,
            multiplier: 10.0,
            max_delay_s: 3.0,
            jitter: 0.5,
            ..Default::default()
        };
        assert_eq!(retry.nominal_delay_s(1), 1.0);
        assert_eq!(retry.nominal_delay_s(2), 3.0, "capped");
        let mut r1 = DetRng::new(4);
        let mut r2 = DetRng::new(4);
        assert_eq!(retry.delay_s(2, &mut r1), retry.delay_s(2, &mut r2));
        let mut rng = DetRng::new(5);
        for retry_no in 1..=5 {
            let d = retry.delay_s(retry_no, &mut rng);
            let nominal = retry.nominal_delay_s(retry_no);
            assert!(d >= nominal * 0.5 && d <= nominal * 1.5);
        }
    }

    #[test]
    fn corrupt_frames_consume_attempts() {
        let inj = FaultInjector::new(FaultSpec {
            corrupt_prob: 0.99,
            ..Default::default()
        });
        let retry = RetryPolicy {
            max_attempts: 3,
            ..Default::default()
        };
        let up = inj.upload_outcome(1, 1, &retry);
        assert!(!up.delivered);
        assert_eq!(up.corrupted, 3);
        assert_eq!(up.lost, 0);
    }

    #[test]
    #[should_panic(expected = "crash_prob")]
    fn rejects_certain_crash() {
        let _ = FaultInjector::new(FaultSpec {
            crash_prob: 1.0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "straggler_factor")]
    fn rejects_speedup_factor() {
        let _ = FaultInjector::new(FaultSpec {
            straggler_factor: 0.5,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "max_attempts")]
    fn rejects_zero_attempt_retry() {
        let inj = FaultInjector::new(FaultSpec::default());
        let retry = RetryPolicy {
            max_attempts: 0,
            ..Default::default()
        };
        let _ = inj.upload_outcome(0, 0, &retry);
    }
}
