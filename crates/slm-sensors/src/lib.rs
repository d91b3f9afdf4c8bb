//! On-chip voltage sensors for multi-tenant FPGA power analysis.
//!
//! Three sensor families from the paper:
//!
//! * [`TdcSensor`] — the established delay-line Time-to-Digital
//!   Converter (Fig. 1 right): a calibrated coarse delay plus a tapped
//!   buffer line whose thermometer depth tracks supply voltage. The
//!   baseline the benign sensors are compared against.
//! * [`RdsSensor`] — the routing-delay sensor of the paper's related
//!   work \[15\]: interconnect-based, with no netlist footprint at all,
//! * [`RoArray`] — ring oscillators, used by the paper as an 8000-RO
//!   *controlled voltage-fluctuation generator* (a power virus); the
//!   classic RO-counter sensor of Fig. 1 (left) is modelled only in the
//!   module's tests.
//! * [`BenignSensor`] — the paper's contribution: any overclocked benign
//!   circuit, alternating a reset/measure stimulus pair; each primary
//!   output is a path endpoint whose captured value depends on whether
//!   its (voltage-scaled) arrival beats the capture edge.
//!
//! # Example: a benign ALU as a sensor
//!
//! ```
//! use slm_netlist::generators::ripple_carry_adder;
//! use slm_netlist::words;
//! use slm_timing::{simulate_transition, DelayModel};
//! use slm_sensors::{BenignSensor, BenignSensorConfig};
//!
//! let nl = ripple_carry_adder(64).unwrap();
//! let ann = DelayModel::default().annotate_for_period(&nl, 20.0, 0.9).unwrap();
//! // reset: 0+0, measure: (2^64-1)+1 — the paper's carry-chain stimulus
//! let mut reset = words::to_bits(0, 64); reset.extend(words::to_bits(0, 64));
//! let mut measure = words::to_bits(u64::MAX as u128, 64);
//! measure.extend(words::to_bits(1, 64));
//! let waves = simulate_transition(&ann, &reset, &measure).unwrap()
//!     .into_output_waves();
//! let mut sensor = BenignSensor::new(waves, BenignSensorConfig::overclocked_300mhz(7));
//! let idle = sensor.sample(1.00);
//! let droop = sensor.sample(0.93);
//! // A droop slows the carry chain, so fewer endpoints settle.
//! assert_ne!(idle.bits, droop.bits);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod benign;
mod rds;
mod ro;
mod tdc;

pub use benign::{BenignSensor, BenignSensorConfig, SensorSample};
pub use rds::RdsSensor;
pub use ro::RoArray;
pub use tdc::{TdcConfig, TdcSensor};
