//! Host-side side-channel analysis: the "python script on the
//! workstation" half of the paper's setup, in Rust.
//!
//! Pipeline, mirroring Section IV/V of the paper:
//!
//! 1. capture raw sensor samples per encryption ([`slm_sensors`] types),
//! 2. find the *bits of interest* — endpoints that toggle under voltage
//!    fluctuations — and rank them by variance ([`BitActivity`],
//!    Figs. 7, 8, 15, 16),
//! 3. post-process each capture into scalar trace points
//!    ([`PostProcessor`]: Hamming weight of selected bits, or a single
//!    endpoint),
//! 4. run correlation power analysis against the last-round single-bit
//!    hypothesis ([`CpaAttack`], Figs. 9–13, 17, 18) and measure the
//!    traces-to-disclosure ([`measurements_to_disclosure`]). Every
//!    trace point is a count (a TDC depth, an endpoint bit, a Hamming
//!    weight), and the attack accumulates exact integer sums.
//!
//! # Example: CPA on synthetic leakage
//!
//! ```
//! use slm_cpa::{CpaAttack, LastRoundModel};
//! use slm_aes::soft;
//! use slm_pdn::noise::Rng64;
//!
//! let key = [7u8; 16];
//! let k10 = soft::key_expansion(&key)[10];
//! let model = LastRoundModel { ct_byte: 3, bit: 0 };
//! let mut attack = CpaAttack::new(model, 1);
//! let mut rng = Rng64::new(1);
//! for _ in 0..2000 {
//!     let mut pt = [0u8; 16];
//!     rng.fill_bytes(&mut pt);
//!     let ct = soft::encrypt(&key, &pt);
//!     // leakage = hypothesis bit + noise, read as a sensor count
//!     let h = f64::from(u8::from(model.hypothesis(&ct, k10[3])));
//!     let count = (256.0 + 8.0 * (h + rng.normal_scaled(2.0))).round();
//!     attack.add_trace(&ct, &[count]);
//! }
//! let (best, _) = CpaAttack::best_of(&attack.peak_correlations());
//! assert_eq!(best, k10[3]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack;
mod bits;
pub mod dfa;
mod error;
mod mtd;
mod multibyte;
mod postprocess;
pub mod store;
mod tvla;

pub use attack::{leader_margin, CpaAttack, CpaCheckpoint, LastRoundModel, TraceBatch};
pub use bits::{common_mode_polarity, BitActivity, BitCensus};
pub use dfa::{DfaAttack, DfaModel, PairOutcome};
pub use error::CpaError;
pub use mtd::{measurements_to_disclosure, ProgressPoint};
pub use multibyte::MultiByteCpa;
pub use postprocess::PostProcessor;
pub use tvla::{WelchTTest, TVLA_THRESHOLD};
