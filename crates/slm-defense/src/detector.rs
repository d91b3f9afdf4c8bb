//! Online anomaly detector for alternating-stimulus measurement
//! activity.
//!
//! The attack's capture loop is not electrically silent: to read a
//! voltage through benign logic it must *toggle* that logic, and the
//! paper's reset/measure stimulus pair alternates every fabric tick.
//! That puts a tone at the tick Nyquist frequency into the region's
//! supply current — a signature no constant-activity tenant produces
//! (benign datapaths like the fabric's AES core switch with period-3
//! structure whose alternating sum cancels over any window divisible
//! by 6).
//!
//! The detector therefore folds a defender TDC's per-tick thermometer
//! readouts with alternating signs over a fixed even-length window:
//!
//! ```text
//! score = | Σ_t (-1)^t · depth_t | / (N / 2)      (units: taps)
//! ```
//!
//! For i.i.d. sensor noise of σ taps the score's noise floor is
//! `σ·√(2/N)·√(π/2)` ≈ a few millitaps at N = 8192, while an attacker
//! alternating its stimulus current by a few milliamps shows up at tens
//! of millitaps — enough headroom for a threshold with hysteresis.

use serde::{Deserialize, Serialize};

/// Detector window geometry and alarm threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Window length in fabric ticks. Must be even (the alternating sum
    /// is only unbiased over sign-balanced windows); a multiple of 6
    /// additionally cancels period-3 benign activity exactly.
    pub window_ticks: u32,
    /// Score at or above which a window raises the alarm, taps.
    pub alarm_threshold: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            window_ticks: 8190, // even and divisible by 6
            alarm_threshold: 0.02,
        }
    }
}

/// Streaming alternating-sum detector over a defender sensor's readouts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlternationDetector {
    config: DetectorConfig,
    acc: f64,
    filled: u32,
    sign: f64,
    last_score: f64,
    max_score: f64,
    windows: u64,
    alarm_windows: u64,
    alarm_events: u64,
    alarmed: bool,
}

impl AlternationDetector {
    /// Creates the detector. Panics if the window length is zero or odd.
    pub fn new(config: DetectorConfig) -> Self {
        assert!(
            config.window_ticks > 0 && config.window_ticks % 2 == 0,
            "detector window must be a positive even tick count, got {}",
            config.window_ticks
        );
        AlternationDetector {
            config,
            acc: 0.0,
            filled: 0,
            sign: 1.0,
            last_score: 0.0,
            max_score: 0.0,
            windows: 0,
            alarm_windows: 0,
            alarm_events: 0,
            alarmed: false,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Feeds one per-tick sensor readout (thermometer depth in taps).
    /// Returns the window score when this readout completes a window.
    pub fn observe(&mut self, depth: u32) -> Option<f64> {
        self.acc += self.sign * f64::from(depth);
        self.sign = -self.sign;
        self.filled += 1;
        if self.filled < self.config.window_ticks {
            return None;
        }
        let score = self.acc.abs() / f64::from(self.config.window_ticks / 2);
        self.acc = 0.0;
        self.filled = 0;
        self.sign = 1.0;
        self.last_score = score;
        self.max_score = self.max_score.max(score);
        self.windows += 1;
        let alarm = score >= self.config.alarm_threshold;
        if alarm {
            self.alarm_windows += 1;
            if !self.alarmed {
                self.alarm_events += 1;
            }
        }
        self.alarmed = alarm;
        Some(score)
    }

    /// Readouts still needed to complete the current window (at least
    /// one).
    pub(crate) fn ticks_to_window_end(&self) -> u32 {
        self.config.window_ticks - self.filled
    }

    /// Score of the most recently completed window, taps.
    pub fn last_score(&self) -> f64 {
        self.last_score
    }

    /// Largest window score seen so far, taps.
    pub fn max_score(&self) -> f64 {
        self.max_score
    }

    /// Completed windows.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Windows that scored at or above the alarm threshold.
    pub fn alarm_windows(&self) -> u64 {
        self.alarm_windows
    }

    /// Rising edges of the alarm state (distinct detections).
    pub fn alarm_events(&self) -> u64 {
        self.alarm_events
    }

    /// Whether the most recent window raised the alarm.
    pub fn alarmed(&self) -> bool {
        self.alarmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(window: u32, threshold: f64) -> AlternationDetector {
        AlternationDetector::new(DetectorConfig {
            window_ticks: window,
            alarm_threshold: threshold,
        })
    }

    #[test]
    fn constant_input_scores_zero() {
        let mut d = detector(12, 0.5);
        let mut score = None;
        for _ in 0..12 {
            score = d.observe(31).or(score);
        }
        assert_eq!(score, Some(0.0));
        assert_eq!(d.windows(), 1);
        assert_eq!(d.alarm_windows(), 0);
    }

    #[test]
    fn period_three_activity_cancels() {
        // AES-like period-3 tick pattern: windows divisible by 6 see a
        // zero alternating sum regardless of the pattern's amplitude.
        let mut d = detector(18, 0.01);
        let pattern = [40u32, 12, 25];
        for t in 0..18 {
            d.observe(pattern[t % 3]);
        }
        assert_eq!(d.windows(), 1);
        assert!(d.last_score().abs() < 1e-12, "score = {}", d.last_score());
        assert!(!d.alarmed());
    }

    #[test]
    fn alternating_input_scores_full_swing() {
        // Depth toggling 30↔32 every tick is a 1-tap alternating
        // amplitude around the mean: |Σ ±(31±1)| / (N/2) = 2.
        let mut d = detector(10, 0.5);
        let mut score = None;
        for t in 0..10 {
            score = d.observe(if t % 2 == 0 { 32 } else { 30 }).or(score);
        }
        assert_eq!(score, Some(2.0));
        assert!(d.alarmed());
        assert_eq!(d.alarm_windows(), 1);
        assert_eq!(d.alarm_events(), 1);
    }

    #[test]
    fn alarm_events_count_rising_edges() {
        let mut d = detector(4, 0.5);
        let alternating = [32u32, 30, 32, 30];
        let quiet = [31u32; 4];
        for w in [alternating, quiet, alternating, alternating, quiet] {
            for x in w {
                d.observe(x);
            }
        }
        assert_eq!(d.windows(), 5);
        assert_eq!(d.alarm_windows(), 3);
        // Two distinct detections: windows 1 and 3–4.
        assert_eq!(d.alarm_events(), 2);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_window_rejected() {
        detector(7, 0.5);
    }

    #[test]
    fn partial_window_reports_nothing() {
        let mut d = detector(100, 0.5);
        for t in 0..99 {
            assert_eq!(d.observe(t % 7), None);
        }
        assert_eq!(d.windows(), 0);
        assert_eq!(d.last_score(), 0.0);
    }
}
