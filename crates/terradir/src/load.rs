//! The server load metric.
//!
//! The paper requires a normalized, linearly comparable, locally defined
//! load metric in `[0, 1]` (§3.1) and evaluates with "a simple load
//! measure: fraction of server busy time over a window period W (e.g. half
//! a second)". [`LoadMeter`] implements exactly that, plus the *hysteresis
//! bias* of §3.3 step 4: after a replication session both parties adjust
//! their loads by half the difference to "reflect the ideal load
//! redistribution targeted" and prevent replica thrashing. The bias decays
//! exponentially so the measured signal takes back over within a few
//! windows.

use std::collections::VecDeque;

/// Windowed busy-fraction load metric with a decaying hysteresis bias.
#[derive(Debug, Clone)]
pub struct LoadMeter {
    window: f64,
    window_start: f64,
    busy_in_window: f64,
    /// Busy time already committed to future windows (a service interval
    /// can span a window boundary).
    spill: VecDeque<f64>,
    last_load: f64,
    prev_load: f64,
    bias: f64,
    bias_at: f64,
    bias_half_life: f64,
}

impl LoadMeter {
    /// A meter with window length `window` seconds; the hysteresis bias
    /// decays with the given half-life.
    pub fn new(window: f64, bias_half_life: f64) -> LoadMeter {
        assert!(window > 0.0 && window.is_finite());
        assert!(bias_half_life > 0.0 && bias_half_life.is_finite());
        LoadMeter {
            window,
            window_start: 0.0,
            busy_in_window: 0.0,
            spill: VecDeque::new(),
            last_load: 0.0,
            prev_load: 0.0,
            bias: 0.0,
            bias_at: 0.0,
            bias_half_life,
        }
    }

    fn close_window(&mut self) {
        self.prev_load = self.last_load;
        self.last_load = (self.busy_in_window / self.window).min(1.0);
        self.busy_in_window = self.spill.pop_front().unwrap_or(0.0);
        self.window_start += self.window;
    }

    /// Closes every window that ends at or before `now`.
    pub fn roll(&mut self, now: f64) {
        while now >= self.window_start + self.window {
            self.close_window();
        }
    }

    /// Records a busy interval `[start, start + duration)`.
    ///
    /// Call this when service *starts* (the duration is known up front in a
    /// DES); intervals spanning window boundaries spill into future windows.
    /// Starts are expected non-decreasing; a start that predates the current
    /// window (possible at boundary ties) is clamped.
    pub fn record_busy(&mut self, start: f64, duration: f64) {
        assert!(duration >= 0.0 && duration.is_finite());
        self.roll(start.max(self.window_start));
        let mut seg_start = start.max(self.window_start);
        let mut rem = (start + duration - seg_start).max(0.0);
        let mut idx = 0usize;
        while rem > 0.0 {
            let wend = self.window_start + (idx as f64 + 1.0) * self.window;
            let take = (wend - seg_start).min(rem);
            if idx == 0 {
                self.busy_in_window += take;
            } else {
                if self.spill.len() < idx {
                    self.spill.resize(idx, 0.0);
                }
                if let Some(slot) = self.spill.get_mut(idx - 1) {
                    *slot += take;
                }
            }
            seg_start += take;
            rem -= take;
            idx += 1;
        }
    }

    /// The measured load: busy fraction of the last completed window.
    #[inline]
    pub fn measured(&self) -> f64 {
        self.last_load
    }

    /// Adds a hysteresis bias delta (positive on the replica receiver,
    /// negative on the shedding server), decaying any existing bias first.
    pub fn add_bias(&mut self, now: f64, delta: f64) {
        self.bias = self.decayed_bias(now) + delta;
        self.bias_at = now;
    }

    fn decayed_bias(&self, now: f64) -> f64 {
        let dt = (now - self.bias_at).max(0.0);
        self.bias * 0.5f64.powf(dt / self.bias_half_life)
    }

    /// The effective load the replication protocol acts on: measured load
    /// plus the decayed hysteresis bias, clamped to `[0, 1]`.
    pub fn effective(&self, now: f64) -> f64 {
        (self.last_load + self.decayed_bias(now)).clamp(0.0, 1.0)
    }

    /// A noise-resistant overload signal for the replication trigger: the
    /// *smaller* of the last two completed windows, plus the bias. A single
    /// busy window at moderate utilization is common (busy-period
    /// fluctuation); two consecutive ones mean sustained overload.
    pub fn effective_sustained(&self, now: f64) -> f64 {
        (self.last_load.min(self.prev_load) + self.decayed_bias(now)).clamp(0.0, 1.0)
    }

    /// The window length in seconds.
    #[inline]
    pub fn window(&self) -> f64 {
        self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> LoadMeter {
        LoadMeter::new(0.5, 1.0)
    }

    #[test]
    fn idle_server_measures_zero() {
        let mut m = meter();
        m.roll(5.0);
        assert_eq!(m.measured(), 0.0);
        assert_eq!(m.effective(5.0), 0.0);
    }

    #[test]
    fn fully_busy_window_measures_one() {
        let mut m = meter();
        m.record_busy(0.0, 0.5);
        m.roll(0.5);
        assert!((m.measured() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn half_busy_window_measures_half() {
        let mut m = meter();
        m.record_busy(0.0, 0.1);
        m.record_busy(0.2, 0.15);
        m.roll(0.5);
        assert!((m.measured() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn interval_spanning_boundary_splits() {
        let mut m = meter();
        m.record_busy(0.4, 0.2); // 0.1 in window 0, 0.1 in window 1
        m.roll(0.5);
        assert!((m.measured() - 0.2).abs() < 1e-12);
        m.roll(1.0);
        assert!((m.measured() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn long_interval_spans_many_windows() {
        let mut m = meter();
        m.record_busy(0.0, 2.0); // 4 full windows
        for k in 1..=4 {
            m.roll(0.5 * k as f64);
            assert!((m.measured() - 1.0).abs() < 1e-12, "window {k}");
        }
        m.roll(2.5);
        assert_eq!(m.measured(), 0.0);
    }

    #[test]
    fn idle_gap_resets_load() {
        let mut m = meter();
        m.record_busy(0.0, 0.5);
        m.roll(3.0); // several empty windows after the busy one
        assert_eq!(m.measured(), 0.0);
    }

    #[test]
    fn bias_shifts_effective_and_decays() {
        let mut m = meter();
        m.record_busy(0.0, 0.25);
        m.roll(0.5);
        assert!((m.measured() - 0.5).abs() < 1e-12);
        m.add_bias(0.5, 0.4);
        assert!((m.effective(0.5) - 0.9).abs() < 1e-12);
        // One half-life later the bias has halved.
        assert!((m.effective(1.5) - 0.7).abs() < 1e-9);
        // Effective load is clamped.
        m.add_bias(1.5, 10.0);
        assert_eq!(m.effective(1.5), 1.0);
    }

    #[test]
    fn negative_bias_clamps_at_zero() {
        let mut m = meter();
        m.add_bias(0.0, -5.0);
        assert_eq!(m.effective(0.0), 0.0);
    }

    #[test]
    fn measured_never_exceeds_one() {
        let mut m = meter();
        // Overlapping busy claims (can't happen with a sequential server,
        // but the metric must stay normalized regardless).
        m.record_busy(0.0, 0.5);
        m.record_busy(0.0, 0.5);
        m.roll(0.5);
        assert_eq!(m.measured(), 1.0);
    }
}
