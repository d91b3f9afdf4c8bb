//! Timing analysis substrate: delay annotation, voltage→delay laws,
//! static timing analysis, and two-vector event simulation.
//!
//! The attack in the reproduced paper rests on one timing fact: when a
//! circuit synthesized for 50 MHz is clocked at 300 MHz, the value a
//! register captures from a combinational endpoint depends on whether the
//! endpoint's *arrival time* — which stretches and shrinks with the core
//! supply voltage — beats the capture edge. This crate provides:
//!
//! * [`DelayModel`] / [`AnnotatedDelays`] — per-gate and per-edge delays
//!   with deterministic process variation and FPGA-style routing spread,
//! * [`VoltageDelayLaw`] — the alpha-power-law scaling of delay with
//!   supply voltage,
//! * [`StaResult`] — static timing analysis, one full pass per
//!   [`AnnotatedDelays::sta`] call: latest arrival times, critical path,
//!   fmax, per-endpoint setup slack,
//! * [`simulate_transition`] — event-driven two-vector simulation that
//!   yields, for every net, the full transition [`Waveform`] under a
//!   reset→measure stimulus pair. Sampling those waveforms at the
//!   (voltage-scaled) capture time is how the benign-sensor model in
//!   `slm-sensors` works.
//!
//! # Example
//!
//! ```
//! use slm_netlist::generators::ripple_carry_adder;
//! use slm_timing::{DelayModel, VoltageDelayLaw};
//!
//! let nl = ripple_carry_adder(32).unwrap();
//! let delays = DelayModel::default().annotate(&nl);
//! let sta = delays.sta().unwrap();
//! // The carry chain dominates: fmax is far below a 300 MHz overclock.
//! assert!(sta.fmax_mhz() < 300.0);
//!
//! let law = VoltageDelayLaw::default();
//! // A 100 mV droop slows gates down.
//! assert!(law.scale(0.9) > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod error;
mod sta;
mod voltage;
mod waveform;

pub use delay::{AnnotatedDelays, DelayModel};
pub use error::TimingError;
pub use sta::{PathSegment, StaResult};
pub use voltage::VoltageDelayLaw;
pub use waveform::{simulate_transition, TransitionWaves, Waveform};

/// Femtoseconds per picosecond; event simulation uses integer
/// femtoseconds internally for exact, platform-independent ordering.
const FS_PER_PS: u64 = 1_000;

/// Converts picoseconds to the internal femtosecond tick count.
pub fn ps_to_fs(ps: f64) -> u64 {
    (ps * FS_PER_PS as f64).round().max(0.0) as u64
}
