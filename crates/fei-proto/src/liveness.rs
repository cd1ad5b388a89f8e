//! Per-client heartbeat liveness tracking.
//!
//! The coordinator grants every joined client a heartbeat lease: the client
//! must beat at least every `timeout` ticks or it is expired and removed.
//! The boundary is pinned exactly: a client whose last beat was at tick `t`
//! is still live through tick `t + timeout - 1` and expired **at**
//! `t + timeout` — expiry lands on the deadline tick itself, not one past
//! it. Everything is integer arithmetic on the driver's virtual clock, so
//! expiry decisions are bit-replayable.

use std::collections::BTreeMap;

use crate::error::ProtoError;

/// Tracks the last heartbeat of every registered client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LivenessTracker {
    /// Client id → tick of its last heartbeat (or registration).
    last_beat: BTreeMap<u64, u64>,
    /// Ticks of silence at which a client expires.
    timeout: u64,
}

impl LivenessTracker {
    /// Creates a tracker expiring clients after `timeout` silent ticks.
    ///
    /// # Panics
    ///
    /// Panics on a zero timeout — every client would be dead on arrival.
    pub fn new(timeout: u64) -> Self {
        assert!(timeout > 0, "heartbeat timeout must be positive");
        Self {
            last_beat: BTreeMap::new(),
            timeout,
        }
    }

    /// Registers (or re-registers) a client; registration counts as a beat.
    pub fn register(&mut self, client: u64, now: u64) {
        self.last_beat.insert(client, now);
    }

    /// Whether the client is currently registered (live or not).
    pub fn contains(&self, client: u64) -> bool {
        self.last_beat.contains_key(&client)
    }

    /// Records a heartbeat.
    ///
    /// # Errors
    ///
    /// [`ProtoError::UnknownClient`] when the client never joined or was
    /// already expired and removed — the sender should rejoin.
    pub fn beat(&mut self, client: u64, now: u64) -> Result<(), ProtoError> {
        match self.last_beat.get_mut(&client) {
            Some(last) => {
                // A beat never rewinds the lease: late or reordered
                // heartbeats cannot extend silence backwards.
                *last = (*last).max(now);
                Ok(())
            }
            None => Err(ProtoError::UnknownClient { client }),
        }
    }

    /// Whether `client` is registered and inside its lease at `now`.
    pub fn is_live(&self, client: u64, now: u64) -> bool {
        self.last_beat
            .get(&client)
            .is_some_and(|&last| now.saturating_sub(last) < self.timeout)
    }

    /// Removes every client whose lease lapsed by `now`, returning them in
    /// ascending id order.
    pub fn expire(&mut self, now: u64) -> Vec<u64> {
        let expired: Vec<u64> = self
            .last_beat
            .iter()
            .filter(|&(_, &last)| now.saturating_sub(last) >= self.timeout)
            .map(|(&client, _)| client)
            .collect();
        for client in &expired {
            self.last_beat.remove(client);
        }
        expired
    }

    /// Registered clients inside their lease at `now`, ascending.
    pub(crate) fn live_clients(&self, now: u64) -> Vec<u64> {
        self.last_beat
            .iter()
            .filter(|&(_, &last)| now.saturating_sub(last) < self.timeout)
            .map(|(&client, _)| client)
            .collect()
    }

    /// Number of live clients at `now`.
    pub(crate) fn live_count(&self, now: u64) -> usize {
        self.last_beat
            .values()
            .filter(|&&last| now.saturating_sub(last) < self.timeout)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expiry_lands_exactly_on_the_deadline_tick() {
        let mut tracker = LivenessTracker::new(10);
        tracker.register(1, 100);
        // One tick before the deadline: still live.
        assert!(tracker.is_live(1, 109));
        assert_eq!(tracker.expire(109), Vec::<u64>::new());
        // Exactly at the deadline tick: expired.
        assert!(!tracker.is_live(1, 110));
        assert_eq!(tracker.expire(110), vec![1]);
        assert!(!tracker.contains(1));
    }

    #[test]
    fn beats_renew_the_lease() {
        let mut tracker = LivenessTracker::new(5);
        tracker.register(3, 0);
        assert!(tracker.beat(3, 4).is_ok());
        assert!(tracker.is_live(3, 8));
        assert!(!tracker.is_live(3, 9));
    }

    #[test]
    fn reordered_beats_never_rewind() {
        let mut tracker = LivenessTracker::new(5);
        tracker.register(3, 0);
        assert!(tracker.beat(3, 7).is_ok());
        // A delayed beat stamped tick 2 arrives after the tick-7 one.
        assert!(tracker.beat(3, 2).is_ok());
        assert!(tracker.is_live(3, 11));
    }

    #[test]
    fn unknown_clients_are_typed() {
        let mut tracker = LivenessTracker::new(5);
        assert_eq!(
            tracker.beat(9, 0),
            Err(ProtoError::UnknownClient { client: 9 })
        );
    }

    #[test]
    fn expire_returns_ascending_and_removes() {
        let mut tracker = LivenessTracker::new(3);
        for client in [5u64, 1, 9] {
            tracker.register(client, 0);
        }
        tracker.register(2, 10);
        assert_eq!(tracker.expire(10), vec![1, 5, 9]);
        assert_eq!(tracker.live_clients(10), vec![2]);
        assert_eq!(tracker.live_count(10), 1);
    }

    #[test]
    fn expired_client_can_rejoin() {
        let mut tracker = LivenessTracker::new(3);
        tracker.register(1, 0);
        tracker.expire(3);
        assert_eq!(
            tracker.beat(1, 4),
            Err(ProtoError::UnknownClient { client: 1 })
        );
        tracker.register(1, 4);
        assert!(tracker.is_live(1, 5));
    }

    #[test]
    #[should_panic(expected = "timeout must be positive")]
    fn zero_timeout_is_rejected() {
        let _ = LivenessTracker::new(0);
    }
}
