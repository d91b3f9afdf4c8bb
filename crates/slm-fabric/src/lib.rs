//! Multi-tenant FPGA fabric simulation.
//!
//! This crate glues the substrates together into the paper's
//! experimental setup (Fig. 2):
//!
//! * [`Mmcm`] — clock generation from the board's 125 MHz reference,
//!   with 7-series-style VCO constraints (the 50/100/150/300 MHz domains
//!   the experiments use),
//! * [`BenignCircuit`] — the two victim-tenant circuits the paper
//!   misuses (the 192-bit ALU and two parallel C6288 multipliers), with
//!   their reset/measure stimulus pairs,
//! * [`MultiTenantFabric`] — the electrical co-simulation: AES victim,
//!   RO array, TDC and benign sensor all sharing one PDN, stepped on a
//!   300 MHz tick,
//! * [`BramCapture`] — on-chip trace buffering with bounded depth,
//! * [`UartLink`] — the framed workstation transport,
//! * [`RemoteSession`] — the complete workstation↔FPGA round trip
//!   (plaintext down, ciphertext + BRAM-staged trace back),
//! * [`floorplan`] — region-constrained placement and rendering
//!   (Figs. 3, 4).
//!
//! # Example
//!
//! ```
//! use slm_fabric::{FabricConfig, MultiTenantFabric, BenignCircuit};
//!
//! let config = FabricConfig {
//!     benign: BenignCircuit::Alu192,
//!     ..FabricConfig::default()
//! };
//! let mut fabric = MultiTenantFabric::new(&config).unwrap();
//! let record = fabric.encrypt_and_capture([0x42; 16]);
//! assert_eq!(record.ciphertext,
//!            slm_aes::soft::encrypt(&config.aes_key, &[0x42; 16]));
//! assert!(!record.benign.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggressor;
mod bram;
mod circuit;
mod clock;
mod error;
pub mod floorplan;
mod remote;
mod scenario;
mod uart;
mod wire_faults;

pub use aggressor::{AggressorSpec, FaultTelemetry, VictimCone};
pub use bram::BramCapture;
pub use circuit::{BenignCircuit, BuiltCircuit};
pub use clock::{ClockSpec, Mmcm};
pub use error::{FabricError, TransportError};
pub use remote::{CampaignDriver, CampaignStats, QuarantinedTrace, RemoteSession, RetryPolicy};
pub use scenario::{
    ActivityTrace, AesActivity, CaptureRecord, FabricConfig, FabricPrototype, FenceConfig,
    MultiTenantFabric, RoSchedule,
};
// `WireFault*` were historically named `Fault*`; they are the UART
// transport adversary. The unqualified fault-injection vocabulary
// (`AggressorSpec`, `FaultTelemetry`) now unambiguously means PDN
// timing faults.
pub use wire_faults::{WireFaultInjector, WireFaultPlan, WireFaultStats};
// Countermeasure vocabulary, re-exported so defended campaigns can be
// configured without depending on slm-defense directly.
pub use slm_defense::{
    AdaptivePolicy, AlternationDetector, ClockJitterConfig, DefenseConfig, DefenseRuntime,
    DefenseTelemetry, DetectorConfig, FenceMode, FenceSpec, LdoConfig,
};
pub use uart::{crc16, DecodeOutcome, LinkStats, UartFrame, UartLink};
