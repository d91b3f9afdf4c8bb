//! Ring-oscillator models: the RO array power virus, and (in the tests
//! only, since no experiment reads one) the classic RO-counter sensor.

use serde::{Deserialize, Serialize};

/// An array of enableable ring oscillators used as a controlled
/// current load — the paper's "8000 ROs" fluctuation generator.
///
/// Each enabled RO toggles continuously and draws a roughly constant
/// dynamic current. The experiments gate the array with a slow square
/// wave: gradually enabled, suddenly disabled (Section V-A), producing
/// the droop/overshoot pairs of Figs. 5, 6 and 14.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoArray {
    /// Total oscillators placed.
    pub count: usize,
    /// Dynamic current per enabled oscillator, amps.
    pub current_per_ro_a: f64,
    enabled: usize,
}

impl RoArray {
    /// The paper's array: 8000 ROs. Per-RO current is chosen so the full
    /// array droops the default PDN by ~60 mV — deep enough to sweep the
    /// TDC from its idle ~30 down toward the single digits and to sweep
    /// the capture point across a few tens of benign endpoints, the
    /// regime Figs. 5–8 show.
    pub fn paper_8000() -> Self {
        RoArray {
            count: 8000,
            current_per_ro_a: 0.3e-3,
            enabled: 0,
        }
    }

    /// Creates an array with all oscillators disabled.
    #[cfg(test)]
    fn new(count: usize, current_per_ro_a: f64) -> Self {
        RoArray {
            count,
            current_per_ro_a,
            enabled: 0,
        }
    }

    /// Enables exactly `n` oscillators (clamped to the array size).
    fn set_enabled(&mut self, n: usize) {
        self.enabled = n.min(self.count);
    }

    /// Enables a fraction of the array (0.0..=1.0).
    pub fn set_enabled_fraction(&mut self, frac: f64) {
        let n = (self.count as f64 * frac.clamp(0.0, 1.0)).round() as usize;
        self.set_enabled(n);
    }

    /// Number of currently enabled oscillators.
    pub fn enabled(&self) -> usize {
        self.enabled
    }

    /// Instantaneous current drawn by the array, amps.
    pub fn current_a(&self) -> f64 {
        self.enabled as f64 * self.current_per_ro_a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use slm_pdn::noise::Rng64;
    use slm_timing::VoltageDelayLaw;

    /// The classic RO-counter sensor (Fig. 1 left): count oscillations in a
    /// fixed window; the count tracks voltage because RO frequency falls
    /// with gate delay.
    ///
    /// Included for completeness of the sensor taxonomy; the paper uses ROs
    /// only as a load generator, and `slm-checker` flags this structure as
    /// malicious (it needs a combinational loop).
    #[derive(Debug, Clone)]
    struct RoSensor {
        /// Oscillation frequency at nominal voltage, Hz.
        f0_hz: f64,
        /// Voltage→delay law.
        law: VoltageDelayLaw,
        rng: Rng64,
        phase: f64,
    }

    impl RoSensor {
        /// Creates a sensor with the given nominal frequency.
        fn new(f0_hz: f64, law: VoltageDelayLaw, seed: u64) -> Self {
            RoSensor {
                f0_hz,
                law,
                rng: Rng64::new(seed),
                phase: 0.0,
            }
        }

        /// Counts oscillations over a window of `window_s` seconds at
        /// voltage `v`, carrying fractional phase across windows.
        fn count(&mut self, v: f64, window_s: f64) -> u32 {
            let f = self.f0_hz / self.law.scale(v);
            // ±0.2 % cycle-to-cycle jitter
            let jitter = 1.0 + self.rng.normal_scaled(0.002);
            self.phase += f * window_s * jitter;
            let whole = self.phase.floor();
            self.phase -= whole;
            whole as u32
        }
    }

    #[test]
    fn array_enable_clamps() {
        let mut a = RoArray::new(100, 1e-3);
        a.set_enabled(250);
        assert_eq!(a.enabled(), 100);
        assert!((a.current_a() - 0.1).abs() < 1e-12);
        a.set_enabled_fraction(0.5);
        assert_eq!(a.enabled(), 50);
        a.set_enabled_fraction(-1.0);
        assert_eq!(a.enabled(), 0);
    }

    #[test]
    fn paper_array_full_load() {
        let mut a = RoArray::paper_8000();
        a.set_enabled_fraction(1.0);
        assert!((a.current_a() - 2.4).abs() < 1e-9);
    }

    #[test]
    fn ro_sensor_counts_track_voltage() {
        let law = VoltageDelayLaw::default();
        let mut s_hi = RoSensor::new(300e6, law, 1);
        let mut s_lo = RoSensor::new(300e6, law, 1);
        let window = 1e-5;
        let hi = s_hi.count(1.0, window);
        let lo = s_lo.count(0.9, window);
        assert!(hi > lo, "count must fall under droop: {hi} vs {lo}");
        // nominal: ~3000 counts
        assert!((2800..3200).contains(&hi), "hi = {hi}");
    }

    #[test]
    fn phase_carries_between_windows() {
        let law = VoltageDelayLaw::default();
        let mut s = RoSensor::new(1e6, law, 2);
        // window of 0.6 cycles: first count 0, second count 1
        let c1 = s.count(1.0, 0.6e-6);
        let c2 = s.count(1.0, 0.6e-6);
        assert_eq!(c1 + c2, 1, "got {c1} then {c2}");
    }

    proptest! {
        /// RO array current is linear in the enabled count.
        #[test]
        fn ro_array_linear(count in 1usize..10_000, frac in 0.0f64..1.0) {
            let mut a = RoArray::new(count, 0.25e-3);
            a.set_enabled_fraction(frac);
            let expect = a.enabled() as f64 * 0.25e-3;
            prop_assert!((a.current_a() - expect).abs() < 1e-12);
            prop_assert!(a.enabled() <= count);
        }
    }
}
