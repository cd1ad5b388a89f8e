//! Ground-truth power-state timelines.
//!
//! A timeline records which [`PowerState`] a device is in over contiguous
//! time segments. The testbed builds one timeline per device per experiment;
//! the meter samples it, and exact energy integrals come straight from the
//! segment durations (power × time per segment).

use fei_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::state::{PowerProfile, PowerState};

/// One contiguous segment of a timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Segment start time.
    pub start: SimTime,
    /// Segment length.
    pub duration: SimDuration,
    /// Device state throughout the segment.
    pub state: PowerState,
}

impl Segment {
    /// The instant just past the end of the segment.
    pub(crate) fn end(&self) -> SimTime {
        self.start + self.duration
    }
}

/// An append-only sequence of contiguous power-state segments.
///
/// # Example
///
/// ```
/// use fei_power::{PowerTimeline, PowerState, PowerProfile};
/// use fei_sim::SimDuration;
///
/// let mut tl = PowerTimeline::new();
/// tl.push(PowerState::Waiting, SimDuration::from_secs(1));
/// tl.push(PowerState::Training, SimDuration::from_secs(2));
/// let e = tl.energy_joules(&PowerProfile::raspberry_pi_4b());
/// assert!((e - (3.6 + 2.0 * 5.553)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PowerTimeline {
    segments: Vec<Segment>,
}

impl PowerTimeline {
    /// Creates an empty timeline starting at `t = 0`.
    pub fn new() -> Self {
        Self {
            segments: Vec::new(),
        }
    }

    /// Appends a segment of `state` lasting `duration`. Zero-length segments
    /// are dropped; consecutive segments in the same state are merged.
    pub fn push(&mut self, state: PowerState, duration: SimDuration) {
        if duration == SimDuration::ZERO {
            return;
        }
        if let Some(last) = self.segments.last_mut() {
            if last.state == state {
                last.duration += duration;
                return;
            }
        }
        let start = self.end();
        self.segments.push(Segment {
            start,
            duration,
            state,
        });
    }

    /// The segments, in order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// End time of the timeline (total span).
    pub(crate) fn end(&self) -> SimTime {
        self.segments.last().map_or(SimTime::ZERO, Segment::end)
    }

    /// Total duration covered.
    pub fn total_duration(&self) -> SimDuration {
        self.end().duration_since(SimTime::ZERO)
    }

    /// Device state at time `t`, or `None` past the end.
    ///
    /// Segment intervals are half-open `[start, end)`.
    pub(crate) fn state_at(&self, t: SimTime) -> Option<PowerState> {
        // Binary search over segment starts.
        let idx = self.segments.partition_point(|s| s.start <= t);
        if idx == 0 {
            return None;
        }
        let seg = &self.segments[idx - 1];
        (t < seg.end()).then_some(seg.state)
    }

    /// Exact energy integral over the whole timeline, in joules.
    pub fn energy_joules(&self, profile: &PowerProfile) -> f64 {
        self.segments
            .iter()
            .map(|s| profile.power(s.state) * s.duration.as_secs_f64())
            .sum()
    }

    /// Exact energy attributable to one state, in joules.
    pub fn energy_in_state_joules(&self, profile: &PowerProfile, state: PowerState) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.state == state)
            .map(|s| profile.power(s.state) * s.duration.as_secs_f64())
            .sum()
    }

    /// Appends all segments of `other`, preserving their durations (the
    /// other timeline is assumed to continue from this one's end).
    pub fn extend_with(&mut self, other: &PowerTimeline) {
        for seg in &other.segments {
            self.push(seg.state, seg.duration);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_timeline() -> PowerTimeline {
        let mut tl = PowerTimeline::new();
        tl.push(PowerState::Waiting, SimDuration::from_millis(500));
        tl.push(PowerState::Downloading, SimDuration::from_millis(100));
        tl.push(PowerState::Training, SimDuration::from_millis(1_200));
        tl.push(PowerState::Uploading, SimDuration::from_millis(200));
        tl
    }

    #[test]
    fn segments_are_contiguous() {
        let tl = round_timeline();
        assert_eq!(tl.segments().len(), 4);
        for pair in tl.segments().windows(2) {
            assert_eq!(pair[0].end(), pair[1].start);
        }
        assert_eq!(tl.total_duration(), SimDuration::from_millis(2_000));
    }

    #[test]
    fn state_lookup_half_open() {
        let tl = round_timeline();
        assert_eq!(tl.state_at(SimTime::ZERO), Some(PowerState::Waiting));
        assert_eq!(
            tl.state_at(SimTime::from_millis(499)),
            Some(PowerState::Waiting)
        );
        assert_eq!(
            tl.state_at(SimTime::from_millis(500)),
            Some(PowerState::Downloading)
        );
        assert_eq!(
            tl.state_at(SimTime::from_millis(1_999)),
            Some(PowerState::Uploading)
        );
        assert_eq!(tl.state_at(SimTime::from_millis(2_000)), None);
    }

    #[test]
    fn empty_timeline_queries() {
        let tl = PowerTimeline::new();
        assert_eq!(tl.state_at(SimTime::ZERO), None);
        assert_eq!(tl.total_duration(), SimDuration::ZERO);
        assert_eq!(tl.energy_joules(&PowerProfile::default()), 0.0);
    }

    #[test]
    fn energy_is_sum_of_power_times_time() {
        let tl = round_timeline();
        let p = PowerProfile::raspberry_pi_4b();
        let expected = 3.6 * 0.5 + 4.286 * 0.1 + 5.553 * 1.2 + 5.015 * 0.2;
        assert!((tl.energy_joules(&p) - expected).abs() < 1e-9);
    }

    #[test]
    fn per_state_energy_partitions_total() {
        let tl = round_timeline();
        let p = PowerProfile::raspberry_pi_4b();
        let parts: f64 = PowerState::ALL
            .iter()
            .map(|&s| tl.energy_in_state_joules(&p, s))
            .sum();
        assert!((parts - tl.energy_joules(&p)).abs() < 1e-9);
    }

    #[test]
    fn adjacent_same_state_segments_merge() {
        let mut tl = PowerTimeline::new();
        tl.push(PowerState::Waiting, SimDuration::from_secs(1));
        tl.push(PowerState::Waiting, SimDuration::from_secs(2));
        assert_eq!(tl.segments().len(), 1);
        assert_eq!(tl.total_duration(), SimDuration::from_secs(3));
    }

    #[test]
    fn zero_length_segments_dropped() {
        let mut tl = PowerTimeline::new();
        tl.push(PowerState::Training, SimDuration::ZERO);
        assert!(tl.segments().is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    fn arb_state() -> impl Strategy<Value = PowerState> {
        prop_oneof![
            Just(PowerState::Waiting),
            Just(PowerState::Downloading),
            Just(PowerState::Training),
            Just(PowerState::Uploading),
        ]
    }

    proptest! {
        /// Total energy always equals the sum of the per-state energies, and
        /// total duration the sum of per-state times.
        #[test]
        fn energy_and_time_partition(
            segs in proptest::collection::vec((arb_state(), 0u64..5_000), 0..32),
        ) {
            let mut tl = PowerTimeline::new();
            for (state, ms) in segs {
                tl.push(state, SimDuration::from_millis(ms));
            }
            let p = PowerProfile::raspberry_pi_4b();
            let split: f64 = PowerState::ALL
                .iter()
                .map(|&s| tl.energy_in_state_joules(&p, s))
                .sum();
            prop_assert!((split - tl.energy_joules(&p)).abs() < 1e-6);
        }

        /// `state_at` agrees with a linear scan.
        #[test]
        fn state_lookup_agrees_with_scan(
            segs in proptest::collection::vec((arb_state(), 1u64..100), 1..16),
            probe_ms in 0u64..2_000,
        ) {
            let mut tl = PowerTimeline::new();
            for (state, ms) in &segs {
                tl.push(*state, SimDuration::from_millis(*ms));
            }
            let probe = SimTime::from_millis(probe_ms);
            let scan = tl
                .segments()
                .iter()
                .find(|s| s.start <= probe && probe < s.end())
                .map(|s| s.state);
            prop_assert_eq!(tl.state_at(probe), scan);
        }
    }
}
