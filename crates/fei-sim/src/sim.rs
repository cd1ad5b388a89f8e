//! The simulation run loop.
//!
//! [`Simulation`] owns the clock and the event queue; callers pull events
//! one at a time with [`Simulation::step`] and schedule follow-ups on the
//! simulation itself.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A discrete-event simulation: a virtual clock plus a pending-event queue.
#[derive(Debug, Clone, Default)]
pub struct Simulation<Ev> {
    queue: EventQueue<Ev>,
    now: SimTime,
}

impl<Ev> Simulation<Ev> {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// Schedules `event` at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current simulated time.
    pub fn schedule_at(&mut self, at: SimTime, event: Ev) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {now})",
            now = self.now
        );
        self.queue.push(at, event);
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn schedule_after(&mut self, delay: SimDuration, event: Ev) {
        self.queue.push(self.now + delay, event);
    }

    /// Delivers the next event, advancing the clock to its timestamp.
    pub fn step(&mut self) -> Option<(SimTime, Ev)> {
        let (time, event) = self.queue.pop()?;
        self.now = time;
        Some((time, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_advances_clock() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_millis(3_000), "x");
        let (t, e) = sim.step().unwrap();
        assert_eq!(t, SimTime::from_millis(3_000));
        assert_eq!(e, "x");
        assert!(sim.step().is_none());
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_millis(5_000), ());
        let _ = sim.step();
        sim.schedule_at(SimTime::from_millis(1_000), ());
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_millis(2_000), "first");
        let _ = sim.step();
        sim.schedule_after(SimDuration::from_secs(3), "second");
        let (t, _) = sim.step().unwrap();
        assert_eq!(t, SimTime::from_millis(5_000));
    }
}
