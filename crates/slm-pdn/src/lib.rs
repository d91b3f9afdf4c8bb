//! Power-distribution-network (PDN) simulation substrate.
//!
//! Multi-tenant FPGA power analysis works because all tenants share one
//! PDN: current transients in the victim region produce supply-voltage
//! fluctuations visible in the attacker region. A real PDN is a complex
//! RLC mesh; its dominant behaviour at the frequencies that matter here
//! (die + package resonance, single-digit MHz) is a resistive IR drop
//! shaped by an underdamped second-order response — a droop when current
//! steps up, an overshoot when it steps off. That is exactly the waveform
//! the paper's Fig. 6 shows when 8000 ring oscillators switch on and off.
//!
//! This crate provides:
//!
//! * [`SecondOrderFilter`] — the discrete-time underdamped core,
//! * [`MultiRegionPdn`] — one to four per-region supplies (current in,
//!   voltage out, with wideband Gaussian supply noise) joined by a
//!   coupling matrix, for attacker/victim placement studies,
//! * [`noise`] — a small, fast, deterministic RNG (xoshiro256++) with
//!   Marsaglia's polar-method Gaussian, used by every stochastic
//!   component of the workspace so whole experiments are reproducible
//!   from one seed.
//!
//! # Example
//!
//! ```
//! use slm_pdn::{MultiRegionPdn, PdnConfig};
//!
//! // Attacker (region 0) and victim (region 1), half-coupled.
//! let mut pdn = MultiRegionPdn::uniform(PdnConfig::default(), 2, 0.5);
//! let dt = 3.33e-9; // one 300 MHz cycle
//! // The victim draws 2 A for a while: both rails droop below nominal,
//! // the victim's own the most.
//! let mut v = [0.0; 2];
//! for _ in 0..2000 {
//!     v.copy_from_slice(pdn.step(&[0.0, 2.0], dt));
//! }
//! assert!(v[1] < v[0] && v[0] < 0.995);
//! // Release the load: the underdamped PDN overshoots above nominal.
//! let mut vmax: f64 = 0.0;
//! for _ in 0..2000 {
//!     vmax = vmax.max(pdn.step(&[0.0, 0.0], dt)[0]);
//! }
//! assert!(vmax > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod filter;
pub mod noise;
mod pdn;

pub use filter::SecondOrderFilter;
pub use pdn::{MultiRegionPdn, PdnConfig, PdnTelemetry};
