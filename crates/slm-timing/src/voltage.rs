//! Supply-voltage dependence of gate delay.

use serde::{Deserialize, Serialize};

/// Alpha-power-law delay model: `d(V) = d0 · ((V0 − Vth)/(V − Vth))^α`.
///
/// This is the standard Sakurai–Newton short-channel approximation used
/// to relate propagation delay to supply voltage. A droop (V below the
/// nominal `v_nominal`) yields a scale factor above 1 (slower gates); an
/// overshoot yields a factor below 1 (faster gates) — exactly the
/// behaviour Fig. 6 of the paper shows on the TDC when the RO array
/// switches off.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VoltageDelayLaw {
    /// Nominal core voltage, volts (1.0 V for 7-series).
    pub v_nominal: f64,
    /// Effective threshold voltage, volts.
    pub v_threshold: f64,
    /// Velocity-saturation exponent (1 ≤ α ≤ 2; ~1.3 for 28 nm).
    pub alpha: f64,
}

impl Default for VoltageDelayLaw {
    fn default() -> Self {
        VoltageDelayLaw {
            v_nominal: 1.0,
            v_threshold: 0.4,
            alpha: 1.3,
        }
    }
}

impl VoltageDelayLaw {
    /// Delay scale factor at supply voltage `v` (1.0 at nominal).
    ///
    /// `v` is clamped just above threshold so the model stays finite even
    /// under unphysically deep simulated droops.
    pub fn scale(&self, v: f64) -> f64 {
        let floor = self.v_threshold + 0.05;
        let v = v.max(floor);
        ((self.v_nominal - self.v_threshold) / (v - self.v_threshold)).powf(self.alpha)
    }

    /// Inverse of [`VoltageDelayLaw::scale`]: the voltage that produces a
    /// given scale factor. Useful for calibrating experiments.
    pub fn voltage_for_scale(&self, scale: f64) -> f64 {
        self.v_threshold + (self.v_nominal - self.v_threshold) / scale.powf(1.0 / self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_is_unity() {
        let law = VoltageDelayLaw::default();
        assert!((law.scale(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn droop_slows_overshoot_speeds() {
        let law = VoltageDelayLaw::default();
        assert!(law.scale(0.9) > 1.0);
        assert!(law.scale(1.1) < 1.0);
        assert!(law.scale(0.8) > law.scale(0.9));
    }

    #[test]
    fn monotone_decreasing_in_voltage() {
        let law = VoltageDelayLaw::default();
        let mut prev = f64::INFINITY;
        let mut v = 0.5;
        while v < 1.3 {
            let s = law.scale(v);
            assert!(s < prev, "scale must decrease with voltage at v={v}");
            prev = s;
            v += 0.01;
        }
    }

    #[test]
    fn clamped_near_threshold() {
        let law = VoltageDelayLaw::default();
        let s = law.scale(0.0);
        assert!(s.is_finite());
        assert_eq!(s, law.scale(law.v_threshold + 0.05));
    }

    #[test]
    fn inverse_roundtrips() {
        let law = VoltageDelayLaw::default();
        for v in [0.85, 0.95, 1.0, 1.05] {
            let s = law.scale(v);
            assert!((law.voltage_for_scale(s) - v).abs() < 1e-9);
        }
    }
}
