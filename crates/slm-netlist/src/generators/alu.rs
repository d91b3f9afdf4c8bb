//! Multi-function ALU generator.
//!
//! The paper's first benign sensor is "an ALU including a 192-bit Adder"
//! (Section IV). This generator produces a combinational ALU with a
//! shared ripple-carry add/subtract chain, a logic unit, a shifter and a
//! pass-through, selected by a 3-bit opcode through a per-bit 8:1
//! multiplexer tree. The diverse functional units give the 192 result
//! endpoints a wide spread of path depths — exactly what makes a subset
//! of them voltage-sensitive when overclocked.

use crate::builder::NetlistBuilder;
use crate::error::NetlistError;
use crate::netlist::Netlist;
use serde::{Deserialize, Serialize};

use super::adder::full_adder;

/// Number of opcode input bits.
const ALU_OPCODE_BITS: usize = 3;

/// Operations implemented by the generated ALU, with their opcode values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum AluOp {
    /// `r = a + b`
    Add = 0,
    /// `r = a - b` (two's complement)
    Sub = 1,
    /// `r = a & b`
    And = 2,
    /// `r = a | b`
    Or = 3,
    /// `r = a ^ b`
    Xor = 4,
    /// `r = !(a | b)`
    Nor = 5,
    /// `r = a << 1`
    Shl = 6,
    /// `r = a`
    Pass = 7,
}

impl AluOp {
    /// All operations in opcode order.
    pub const ALL: [AluOp; 8] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Nor,
        AluOp::Shl,
        AluOp::Pass,
    ];

    /// The 3-bit opcode for this operation.
    fn opcode(self) -> u8 {
        self as u8
    }

    /// Opcode expanded to booleans, LSB first, for use as input stimulus.
    pub fn opcode_bits(self) -> [bool; ALU_OPCODE_BITS] {
        let c = self.opcode();
        [c & 1 != 0, c & 2 != 0, c & 4 != 0]
    }

    /// Reference (software) semantics over `width`-bit operands.
    pub fn reference(self, a: u128, b: u128, width: usize) -> u128 {
        let mask = if width >= 128 {
            u128::MAX
        } else {
            (1 << width) - 1
        };
        let r = match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Nor => !(a | b),
            AluOp::Shl => a << 1,
            AluOp::Pass => a,
        };
        r & mask
    }
}

/// Generates a `width`-bit ALU.
///
/// Ports, in declaration order:
///
/// * inputs `a[0..width]`, `b[0..width]`, `op[0..3]` (LSB first),
/// * outputs `r[0..width]` then `cout` (adder carry out).
///
/// # Errors
///
/// [`NetlistError::BadGeneratorParameter`] when `width == 0`.
///
/// # Example
///
/// ```
/// use slm_netlist::{generators::{alu, AluOp}, words};
/// let nl = alu(8).unwrap();
/// let mut ins = words::to_bits(0xF0, 8);
/// ins.extend(words::to_bits(0x0F, 8));
/// ins.extend(AluOp::Or.opcode_bits());
/// let out = nl.eval(&ins).unwrap();
/// assert_eq!(words::from_bits(&out[..8]), 0xFF);
/// ```
pub fn alu(width: usize) -> Result<Netlist, NetlistError> {
    if width == 0 {
        return Err(NetlistError::BadGeneratorParameter(
            "ALU width must be at least 1".into(),
        ));
    }
    let mut bld = NetlistBuilder::new(format!("alu{width}"));
    let a = bld.input_bus("a", width);
    let b = bld.input_bus("b", width);
    let op = bld.input_bus("op", ALU_OPCODE_BITS);
    let (op0, op1, op2) = (op[0], op[1], op[2]);

    // sub = opcode 001
    let n_op1 = bld.not(op1);
    let n_op2 = bld.not(op2);
    let t = bld.and2(n_op1, n_op2);
    let sub = bld.and2(t, op0);

    // shared add/sub chain: b_eff = b ^ sub, cin = sub
    let mut carry = bld.buf(sub);
    let mut sum = Vec::with_capacity(width);
    for i in 0..width {
        let beff = bld.xor2(b[i], sub);
        let (s, c) = full_adder(&mut bld, a[i], beff, carry);
        sum.push(s);
        carry = c;
    }

    let zero = bld.const0();
    let mut result = Vec::with_capacity(width);
    for i in 0..width {
        let f_and = bld.and2(a[i], b[i]);
        let f_or = bld.or2(a[i], b[i]);
        let f_xor = bld.xor2(a[i], b[i]);
        let f_nor = bld.nor2(a[i], b[i]);
        let f_shl = if i == 0 {
            bld.buf(zero)
        } else {
            bld.buf(a[i - 1])
        };
        let f_pass = bld.buf(a[i]);
        // 8:1 mux, opcode order: add, sub, and, or, xor, nor, shl, pass
        let m0 = bld.mux2(op0, sum[i], sum[i]); // add/sub share the chain
        let m1 = bld.mux2(op0, f_and, f_or);
        let m2 = bld.mux2(op0, f_xor, f_nor);
        let m3 = bld.mux2(op0, f_shl, f_pass);
        let n0 = bld.mux2(op1, m0, m1);
        let n1 = bld.mux2(op1, m2, m3);
        let r = bld.mux2(op2, n0, n1);
        result.push(r);
    }
    bld.output_bus("r", &result);
    bld.output("cout", carry);
    bld.finish()
}

/// The paper's configuration: a 192-bit ALU.
pub fn alu192() -> Result<Netlist, NetlistError> {
    alu(192)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words;

    fn run(nl: &Netlist, width: usize, op: AluOp, a: u128, b: u128) -> u128 {
        let mut ins = words::to_bits(a, width);
        ins.extend(words::to_bits(b, width));
        ins.extend(op.opcode_bits());
        let out = nl.eval(&ins).unwrap();
        words::from_bits(&out[..width])
    }

    #[test]
    fn all_ops_match_reference_16bit() {
        let width = 16;
        let nl = alu(width).unwrap();
        let cases = [
            (0u128, 0u128),
            (1, 1),
            (0xffff, 1),
            (0x1234, 0x5678),
            (0xaaaa, 0x5555),
            (0x8000, 0x8000),
        ];
        for op in AluOp::ALL {
            for &(a, b) in &cases {
                assert_eq!(
                    run(&nl, width, op, a, b),
                    op.reference(a, b, width),
                    "{op:?} a={a:#x} b={b:#x}"
                );
            }
        }
    }

    #[test]
    fn carry_out_on_add() {
        let width = 8;
        let nl = alu(width).unwrap();
        let mut ins = words::to_bits(0xff, width);
        ins.extend(words::to_bits(0x01, width));
        ins.extend(AluOp::Add.opcode_bits());
        let out = nl.eval(&ins).unwrap();
        assert!(out[width], "cout must be set for 0xff + 1");
        assert_eq!(words::from_bits(&out[..width]), 0);
    }

    #[test]
    fn alu192_ports() {
        let nl = alu192().unwrap();
        assert_eq!(nl.inputs().len(), 192 * 2 + ALU_OPCODE_BITS);
        assert_eq!(nl.outputs().len(), 193);
        assert!(nl.find("r[191]").is_none() || nl.find("r[191]").is_some());
        // output naming
        assert_eq!(nl.outputs()[0].0, "r[0]");
        assert_eq!(nl.outputs()[192].0, "cout");
    }

    #[test]
    fn adder_path_is_deepest() {
        let nl = alu(32).unwrap();
        let profile = nl.depth_profile().unwrap();
        // r[31] through the carry chain should be much deeper than r[0].
        assert!(profile.output_levels[31] > profile.output_levels[0] + 20);
    }

    #[test]
    fn opcode_bits_roundtrip() {
        for op in AluOp::ALL {
            let bits = op.opcode_bits();
            let v = u8::from(bits[0]) | u8::from(bits[1]) << 1 | u8::from(bits[2]) << 2;
            assert_eq!(v, op.opcode());
        }
    }

    #[test]
    fn zero_width_rejected() {
        assert!(alu(0).is_err());
    }
}
