//! The benign tenant circuits and their sensor stimuli.

use crate::error::FabricError;
use serde::{Deserialize, Serialize};
use slm_netlist::generators::{alu192, c6288, AluOp};
use slm_netlist::{words, Netlist};

/// Which benign circuit the attacker misuses as a sensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BenignCircuit {
    /// The paper's ALU with a 192-bit ripple-carry adder. 193 observable
    /// endpoints (192 result bits + carry out).
    Alu192,
    /// Two parallel ISCAS-85 C6288 16×16 multipliers; 64 observable
    /// endpoints.
    DualC6288,
}

/// A built benign circuit: its netlist plus the reset/measure stimulus
/// pair that sensitizes its long paths.
#[derive(Debug, Clone)]
pub struct BuiltCircuit {
    /// The circuit under (mis)use.
    pub netlist: Netlist,
    /// The "reset" input vector (applied on odd cycles).
    pub reset: Vec<bool>,
    /// The "measure" input vector (applied on even cycles).
    pub measure: Vec<bool>,
}

impl BenignCircuit {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            BenignCircuit::Alu192 => "alu192",
            BenignCircuit::DualC6288 => "dual_c6288",
        }
    }

    /// Number of observable path endpoints.
    pub fn endpoints(self) -> usize {
        match self {
            BenignCircuit::Alu192 => 193,
            BenignCircuit::DualC6288 => 64,
        }
    }

    /// Builds the netlist and stimulus.
    ///
    /// * ALU: the Section III example — `op = ADD`, reset `A = B = 0`,
    ///   measure `A = 2^192 − 1, B = 1`, so the carry ripples through
    ///   every stage and each sum bit transiently rises before settling
    ///   to 0 as the carry arrives.
    /// * C6288: an ATPG-found operand pair (see the inline comment) that
    ///   maximizes the number of product endpoints with transitions
    ///   inside the 300 MHz capture window.
    ///
    /// # Errors
    ///
    /// Propagates generator failures (not expected for these fixed
    /// configurations).
    pub fn build(self) -> Result<BuiltCircuit, FabricError> {
        match self {
            BenignCircuit::Alu192 => {
                let nl = alu192()?;
                // op=ADD, A=2^192-1, B=1: a full carry ripple.
                let mut reset = words::limbs_to_bits(&[0, 0, 0], 192);
                reset.extend(words::limbs_to_bits(&[0, 0, 0], 192));
                reset.extend(AluOp::Add.opcode_bits());
                let mut measure = words::limbs_to_bits(&[u64::MAX, u64::MAX, u64::MAX], 192);
                measure.extend(words::limbs_to_bits(&[1, 0, 0], 192));
                measure.extend(AluOp::Add.opcode_bits());
                Ok(BuiltCircuit {
                    netlist: nl,
                    reset,
                    measure,
                })
            }
            BenignCircuit::DualC6288 => {
                let one = c6288()?;
                let nl = Netlist::disjoint_union("dual_c6288", &[&one, &one])?;
                // Stimulus found by the slm-atpg searcher (window
                // objective 2.7–4.1 ns at the 5.2 ns-calibrated delays):
                // 19 of 32 product endpoints transition inside the
                // 300 MHz capture window, median settle ≈ 3.2 ns.
                // Naive choices like a=b=0xFFFF settle in 2.5 ns — array
                // multipliers short-circuit on uniform operands — and
                // make the circuit useless as a sensor; this is the
                // paper's Section VI point that ATPG-style pattern
                // search is how an attacker sensitizes a real circuit.
                let mut inst_reset = words::to_bits(0x0a03, 16);
                inst_reset.extend(words::to_bits(0x0423, 16));
                let mut inst_measure = words::to_bits(0x9d77, 16);
                inst_measure.extend(words::to_bits(0xf7d6, 16));
                let mut reset = inst_reset.clone();
                reset.extend(&inst_reset);
                let mut measure = inst_measure.clone();
                measure.extend(&inst_measure);
                Ok(BuiltCircuit {
                    netlist: nl,
                    reset,
                    measure,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_build_shape_and_function() {
        let built = BenignCircuit::Alu192.build().unwrap();
        assert_eq!(built.netlist.outputs().len(), 193);
        assert_eq!(BenignCircuit::Alu192.endpoints(), 193);
        let out = built.netlist.eval(&built.measure).unwrap();
        // (2^192-1) + 1 = 2^192: all sum bits 0, carry out 1
        assert!(out[..192].iter().all(|&b| !b));
        assert!(out[192]);
        let out0 = built.netlist.eval(&built.reset).unwrap();
        assert!(out0.iter().all(|&b| !b));
    }

    #[test]
    fn c6288_build_shape_and_function() {
        let built = BenignCircuit::DualC6288.build().unwrap();
        assert_eq!(built.netlist.outputs().len(), 64);
        assert_eq!(BenignCircuit::DualC6288.endpoints(), 64);
        let out = built.netlist.eval(&built.measure).unwrap();
        // the ATPG-found measure operands still compute a correct product
        let p0 = words::from_bits(&out[..32]);
        let p1 = words::from_bits(&out[32..]);
        assert_eq!(p0, 0x9d77 * 0xf7d6);
        assert_eq!(p1, 0x9d77 * 0xf7d6);
        let out_r = built.netlist.eval(&built.reset).unwrap();
        assert_eq!(words::from_bits(&out_r[..32]), 0x0a03 * 0x0423);
    }

    #[test]
    fn names() {
        assert_eq!(BenignCircuit::Alu192.name(), "alu192");
        assert_eq!(BenignCircuit::DualC6288.name(), "dual_c6288");
    }
}
