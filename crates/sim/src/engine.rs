//! The simulation clock and scheduling API.

use crate::calendar::Calendar;

/// A discrete-event simulation engine: a clock plus a [`Calendar`].
///
/// The engine is payload-generic and imposes no dispatch style; the typical
/// owner runs its own loop:
///
/// ```
/// use terradir_sim::Engine;
/// #[derive(Debug, PartialEq)]
/// enum Ev { Ping, Pong }
///
/// let mut e = Engine::new();
/// e.schedule(0.0, Ev::Ping);
/// let mut log = Vec::new();
/// while let Some(ev) = e.pop_before(10.0) {
///     match ev {
///         Ev::Ping => { log.push(("ping", e.now())); e.schedule_in(1.5, Ev::Pong); }
///         Ev::Pong => { log.push(("pong", e.now())); }
///     }
/// }
/// assert_eq!(log, vec![("ping", 0.0), ("pong", 1.5)]);
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    calendar: Calendar<E>,
    now: f64,
}

impl<E> Engine<E> {
    /// A fresh engine with the clock at 0.
    pub fn new() -> Engine<E> {
        Engine {
            calendar: Calendar::new(),
            now: 0.0,
        }
    }

    /// Current simulation time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules an event at an absolute time.
    ///
    /// Panics if the time lies in the past — the DES contract forbids
    /// rewinding the clock.
    pub fn schedule(&mut self, at: f64, ev: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        self.calendar.push(at, ev);
    }

    /// Schedules an event `delay` seconds from now (delay ≥ 0).
    pub fn schedule_in(&mut self, delay: f64, ev: E) {
        assert!(delay >= 0.0, "negative delay {delay}");
        self.calendar.push(self.now + delay, ev);
    }

    /// Pops the next event, advancing the clock to its fire time.
    pub fn pop(&mut self) -> Option<E> {
        let (t, ev) = self.calendar.pop()?;
        self.now = t;
        Some(ev)
    }

    /// Pops the next event only if it fires strictly before `end`;
    /// otherwise leaves it pending and advances the clock to `end`.
    pub fn pop_before(&mut self, end: f64) -> Option<E> {
        match self.calendar.peek_time() {
            Some(t) if t < end => self.pop(),
            _ => {
                if self.now < end {
                    self.now = end;
                }
                None
            }
        }
    }

    /// Fire time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.calendar.peek_time()
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.calendar.len()
    }

    /// Number of events processed so far: the calendar's pop count, as
    /// only the engine pops its calendar.
    pub fn processed(&self) -> u64 {
        self.calendar.counters().1
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_pops() {
        let mut e = Engine::new();
        e.schedule(2.0, 2);
        e.schedule(1.0, 1);
        assert_eq!(e.now(), 0.0);
        assert_eq!(e.pop(), Some(1));
        assert_eq!(e.now(), 1.0);
        assert_eq!(e.pop(), Some(2));
        assert_eq!(e.now(), 2.0);
        assert_eq!(e.pop(), None);
        assert_eq!(e.processed(), 2);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut e = Engine::new();
        e.schedule(1.0, "first");
        e.pop();
        e.schedule_in(0.5, "second");
        assert_eq!(e.peek_time(), Some(1.5));
    }

    #[test]
    fn pop_before_respects_horizon() {
        let mut e = Engine::new();
        e.schedule(5.0, ());
        assert_eq!(e.pop_before(3.0), None);
        assert_eq!(e.now(), 3.0);
        assert_eq!(e.pending(), 1);
        assert_eq!(e.pop_before(6.0), Some(()));
        assert_eq!(e.now(), 5.0);
        // Horizon with empty calendar advances the clock.
        assert_eq!(e.pop_before(9.0), None);
        assert_eq!(e.now(), 9.0);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_past_schedule() {
        let mut e = Engine::new();
        e.schedule(5.0, ());
        e.pop();
        e.schedule(1.0, ());
    }

    #[test]
    #[should_panic(expected = "negative delay")]
    fn rejects_negative_delay() {
        let mut e: Engine<()> = Engine::new();
        e.schedule_in(-0.1, ());
    }
}
