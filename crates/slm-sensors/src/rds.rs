//! Routing-delay sensor (RDS) model.
//!
//! Spielmann, Glamočanin and Stojilović ("RDS: FPGA Routing Delay
//! Sensors for Effective Remote Power Analysis Attacks", TCHES 2023 —
//! reference \[15\] of the reproduced paper) build the sensing delay line
//! out of *FPGA interconnect* instead of logic primitives: the tapped
//! elements are routing segments threaded through switch boxes, so the
//! netlist contains no buffer chain at all — route-throughs are
//! configuration, not cells. Structural bitstream checking therefore
//! has even less to look at than for a TDC; only timing-aware checks
//! can see it.
//!
//! Electrically the RDS behaves like a fine-pitch TDC: routing-segment
//! delays are smaller and more uniform than LUT delays, giving better
//! voltage resolution per tap. This model reuses the thermometer
//! mathematics of [`crate::TdcSensor`] with routing-grade parameters,
//! and exists so the sensor taxonomy of the paper's related work is
//! complete and comparable within one framework.

use crate::tdc::{TdcConfig, TdcSensor};
use slm_timing::VoltageDelayLaw;

/// A routing-delay sensor: a TDC whose delay elements are interconnect
/// segments.
///
/// # Example
///
/// ```
/// use slm_sensors::{RdsSensor, TdcSensor};
/// let mut rds = TdcSensor::new(*RdsSensor::paper_150mhz(1).config());
/// let idle = rds.sample(1.0);
/// let droop = rds.sample(0.98);
/// assert!(droop < idle);
/// ```
#[derive(Debug, Clone)]
pub struct RdsSensor {
    inner: TdcSensor,
}

impl RdsSensor {
    /// Routing-grade configuration at the 150 MS/s sampling rate: finer
    /// tap pitch (single switch-box hops ≈ 12 ps) and lower per-tap
    /// jitter than the LUT-based TDC, calibrated to the same idle
    /// mid-scale.
    pub fn paper_150mhz(seed: u64) -> Self {
        let window_ps = 1e6 / 150.0;
        let tap_ps = 12.0;
        let idle_target = 31.0;
        RdsSensor {
            inner: TdcSensor::new(TdcConfig {
                stages: 64,
                tap_ps,
                coarse_ps: window_ps - idle_target * tap_ps,
                window_ps,
                jitter_ps: 1.8,
                law: VoltageDelayLaw::default(),
                seed,
            }),
        }
    }

    /// The underlying (TDC-equivalent) configuration.
    pub fn config(&self) -> &TdcConfig {
        self.inner.config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tdc::TdcConfig;

    #[test]
    fn rds_tracks_voltage() {
        let mut rds = RdsSensor::paper_150mhz(1);
        let idle = rds.inner.expected_depth(1.0);
        assert!((28.0..=34.0).contains(&idle), "idle depth = {idle}");
        assert!(rds.inner.sample(0.97) < rds.inner.sample(1.02));
    }

    #[test]
    fn rds_outresolves_the_lut_tdc() {
        // Finer taps → higher gain per volt than the TDC at the same
        // operating point.
        let rds = RdsSensor::paper_150mhz(2);
        let tdc = crate::TdcSensor::new(TdcConfig::paper_150mhz(2));
        // Voltage gain: taps of depth change per volt of droop around
        // the operating point.
        fn gain(depth: impl Fn(f64) -> f64) -> f64 {
            let (v, dv) = (0.995, 1e-4);
            (depth(v + dv) - depth(v - dv)).abs() / (2.0 * dv)
        }
        let g_rds = gain(|v| rds.inner.expected_depth(v));
        let g_tdc = gain(|v| tdc.expected_depth(v));
        assert!(
            g_rds > 1.5 * g_tdc,
            "RDS gain {g_rds:.0} vs TDC gain {g_tdc:.0} taps/V"
        );
    }

    #[test]
    fn rds_has_no_netlist_footprint() {
        // The structural point: an RDS is interconnect configuration.
        // There is nothing to hand to the checker — the closest netlist
        // materialization is an *empty* logic netlist, which is trivially
        // clean. (A TDC materializes as a tapped buffer chain and is
        // flagged; see slm-checker.)
        let empty = slm_netlist::NetlistBuilder::new("rds_logic_view")
            .finish()
            .unwrap();
        assert_eq!(empty.len(), 0, "route-throughs contribute no cells");
    }
}
