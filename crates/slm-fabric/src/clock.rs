//! MMCM clock synthesis model: the paper's Section IV setup claim that
//! the board's 125 MHz reference yields every clock the experiments use.
//! No campaign synthesizes its clock, so the model is compiled for its
//! tests only.

use crate::error::FabricError;
use serde::{Deserialize, Serialize};

/// A synthesized clock: the requested and actually-achievable frequency
/// plus the divider settings that realize it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct ClockSpec {
    /// Requested frequency, MHz.
    pub requested_mhz: f64,
    /// Achieved frequency, MHz.
    pub actual_mhz: f64,
    /// Feedback multiplier `M`.
    pub mult: u32,
    /// Input divider `D`.
    pub div_in: u32,
    /// Output divider `O`.
    pub div_out: u32,
}

impl ClockSpec {
    /// Period of the achieved clock in femtoseconds.
    fn period_fs(&self) -> u64 {
        (1e9 / self.actual_mhz).round() as u64
    }
}

/// A Multi-Mode Clock Manager fed by the board reference clock.
///
/// The paper's Zynq XC7Z020 has a 125 MHz external reference and four
/// MMCMs. 7-series MMCMs synthesize `f_out = f_ref · M / (D · O)` with
/// the VCO (`f_ref · M / D`) constrained to 600–1200 MHz; this model
/// searches the integer divider space for the closest achievable
/// frequency. The attack depends only on the coarse fact that a tenant
/// can ask for any of these frequencies — including a 300 MHz clock for
/// logic synthesized at 50 MHz — without anything structural changing in
/// its netlist.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Mmcm {
    /// Reference input frequency, MHz.
    pub f_ref_mhz: f64,
    /// Minimum VCO frequency, MHz.
    pub vco_min_mhz: f64,
    /// Maximum VCO frequency, MHz.
    pub vco_max_mhz: f64,
}

impl Default for Mmcm {
    fn default() -> Self {
        Mmcm {
            f_ref_mhz: 125.0,
            vco_min_mhz: 600.0,
            vco_max_mhz: 1200.0,
        }
    }
}

impl Mmcm {
    /// Synthesizes the closest achievable clock to `freq_mhz`.
    ///
    /// # Errors
    ///
    /// [`FabricError::UnachievableClock`] when no divider combination
    /// lands within 0.5 % of the request.
    fn synthesize(&self, freq_mhz: f64) -> Result<ClockSpec, FabricError> {
        let mut best: Option<ClockSpec> = None;
        for d in 1..=8u32 {
            for m in 2..=64u32 {
                let vco = self.f_ref_mhz * f64::from(m) / f64::from(d);
                if vco < self.vco_min_mhz || vco > self.vco_max_mhz {
                    continue;
                }
                for o in 1..=128u32 {
                    let f = vco / f64::from(o);
                    let err = (f - freq_mhz).abs();
                    if best.is_none_or(|b| err < (b.actual_mhz - freq_mhz).abs()) {
                        best = Some(ClockSpec {
                            requested_mhz: freq_mhz,
                            actual_mhz: f,
                            mult: m,
                            div_in: d,
                            div_out: o,
                        });
                    }
                }
            }
        }
        match best {
            Some(spec) if (spec.actual_mhz - freq_mhz).abs() <= freq_mhz * 0.005 => Ok(spec),
            _ => Err(FabricError::UnachievableClock {
                requested_mhz: freq_mhz,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_frequencies_achievable() {
        let mmcm = Mmcm::default();
        for f in [50.0, 100.0, 150.0, 300.0] {
            let spec = mmcm.synthesize(f).unwrap();
            assert!(
                (spec.actual_mhz - f).abs() < 1e-6,
                "{f} MHz → {}",
                spec.actual_mhz
            );
            // VCO constraint holds
            let vco = 125.0 * f64::from(spec.mult) / f64::from(spec.div_in);
            assert!((600.0..=1200.0).contains(&vco));
        }
    }

    #[test]
    fn period_fs() {
        let spec = Mmcm::default().synthesize(300.0).unwrap();
        assert_eq!(spec.period_fs(), 3_333_333);
    }

    #[test]
    fn unreasonable_frequency_rejected() {
        let mmcm = Mmcm::default();
        assert!(mmcm.synthesize(2500.0).is_err());
        assert!(mmcm.synthesize(0.3).is_err());
    }

    #[test]
    fn odd_frequency_close_enough() {
        // 7-series can hit 33.333 MHz via 600/18.
        let spec = Mmcm::default().synthesize(33.333).unwrap();
        assert!((spec.actual_mhz - 33.333).abs() / 33.333 < 0.005);
    }
}
