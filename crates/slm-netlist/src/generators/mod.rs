//! Programmatic circuit generators.
//!
//! These reproduce the benign circuits the paper misuses as voltage
//! sensors:
//!
//! * [`ripple_carry_adder`] — the n-bit carry chain at the heart of the
//!   paper's ALU example (Section III),
//! * [`alu`] / [`alu192`] — a multi-function ALU with a 192-bit adder,
//!   matching the experimental setup of Section IV,
//! * [`c6288`] / [`array_multiplier`] — the ISCAS-85 C6288 16×16 array
//!   multiplier used in Section V-D,
//! * small helpers ([`equality_comparator`], [`parity_tree`], [`c17`],
//!   [`ring_oscillator`], [`tdc_delay_line`]) used by tests and by the
//!   structural checker as positive/negative examples.

mod adder;
mod alu;
mod arch;
mod c6288;
mod misc;
mod obfuscated;

pub use adder::{ripple_carry_adder, ripple_carry_adder_with_cin};
pub use alu::{alu, alu192, AluOp};
pub use arch::{carry_lookahead_adder, carry_select_adder, kogge_stone_adder, wallace_multiplier};
pub use c6288::{array_multiplier, c6288};
pub use misc::{c17, equality_comparator, parity_tree, ring_oscillator, tdc_delay_line};
pub use obfuscated::{
    carry_sensor, clock_as_data, obfuscated_ring_oscillator, obfuscated_tdc_delay_line, ro_grid,
    tapped_carry_chain, zoo, ZooEntry,
};
