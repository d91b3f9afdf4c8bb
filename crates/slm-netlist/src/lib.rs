//! Gate-level netlist intermediate representation for the stealthy-logic-misuse
//! reproduction.
//!
//! This crate provides the structural substrate every other crate builds on:
//!
//! * [`Netlist`] — a single-output-per-gate ("AIG-style") combinational gate
//!   graph with named primary inputs and outputs,
//! * [`NetlistBuilder`] — an ergonomic constructor API,
//! * [`mod@bench`] — an ISCAS-85 `.bench` format parser and writer,
//! * [`generators`] — programmatic generators for the circuits the paper
//!   misuses as sensors: ripple-carry adders, a 192-bit multi-function ALU,
//!   and the ISCAS-85 C6288 16×16 array multiplier, plus small classics
//!   (C17) used in tests,
//! * functional simulation, both single-pattern ([`Netlist::eval`]) and
//!   64-way bit-parallel ([`Netlist::eval_parallel`]).
//!
//! # Example
//!
//! ```
//! use slm_netlist::{NetlistBuilder, GateKind};
//!
//! let mut b = NetlistBuilder::new("half_adder");
//! let a = b.input("a");
//! let c = b.input("b");
//! let sum = b.gate(GateKind::Xor, &[a, c]);
//! let carry = b.gate(GateKind::And, &[a, c]);
//! b.output("sum", sum);
//! b.output("carry", carry);
//! let nl = b.finish().unwrap();
//!
//! let out = nl.eval(&[true, true]).unwrap();
//! assert_eq!(out, vec![false, true]); // 1 + 1 = 0b10
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
mod builder;
mod error;
mod gate;
pub mod generators;
pub mod graph;
mod hash;
mod layout;
mod netlist;
mod stats;
#[cfg(test)]
mod transform;
pub mod words;

pub use builder::NetlistBuilder;
pub use error::NetlistError;
pub use gate::{Gate, GateKind, NetId};
pub use netlist::{Netlist, TopoIter, TopoOrder};
pub use stats::{DepthProfile, NetlistStats};
