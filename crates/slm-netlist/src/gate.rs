//! Gate primitives and net identifiers.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a net in a [`crate::Netlist`].
///
/// Every gate drives exactly one net, so a `NetId` doubles as a gate
/// identifier: `NetId(i)` names both gate `i` and the net it drives.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct NetId(pub u32);

impl NetId {
    /// Returns the underlying index, usable to address per-net side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The logic function computed by a gate.
///
/// The set mirrors the ISCAS-85 `.bench` primitive set plus explicit
/// constants. All multi-input kinds accept two or more fanins; `Not` and
/// `Buf` accept exactly one; `Input` and constants accept none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateKind {
    /// A primary input; has no fanin.
    Input,
    /// Logical AND of all fanins.
    And,
    /// Complement of the AND of all fanins.
    Nand,
    /// Logical OR of all fanins.
    Or,
    /// Complement of the OR of all fanins.
    Nor,
    /// Parity (XOR) of all fanins.
    Xor,
    /// Complement of the parity of all fanins.
    Xnor,
    /// Inverter; exactly one fanin.
    Not,
    /// Buffer; exactly one fanin.
    Buf,
    /// Constant logic 0; no fanin.
    Const0,
    /// Constant logic 1; no fanin.
    Const1,
}

impl GateKind {
    /// Evaluates the gate function over boolean fanin values.
    ///
    /// Constants and inputs ignore `fanin`; `Input` evaluates to `false`
    /// here because its value is supplied externally during simulation.
    pub fn eval(self, fanin: &[bool]) -> bool {
        match self {
            GateKind::Input => false,
            GateKind::And => fanin.iter().all(|&v| v),
            GateKind::Nand => !fanin.iter().all(|&v| v),
            GateKind::Or => fanin.iter().any(|&v| v),
            GateKind::Nor => !fanin.iter().any(|&v| v),
            GateKind::Xor => fanin.iter().fold(false, |acc, &v| acc ^ v),
            GateKind::Xnor => !fanin.iter().fold(false, |acc, &v| acc ^ v),
            GateKind::Not => !fanin[0],
            GateKind::Buf => fanin[0],
            GateKind::Const0 => false,
            GateKind::Const1 => true,
        }
    }

    /// Evaluates the gate function over 64 patterns at once, one per bit.
    pub fn eval_word(self, fanin: &[u64]) -> u64 {
        match self {
            GateKind::Input => 0,
            GateKind::And => fanin.iter().fold(u64::MAX, |acc, &v| acc & v),
            GateKind::Nand => !fanin.iter().fold(u64::MAX, |acc, &v| acc & v),
            GateKind::Or => fanin.iter().fold(0, |acc, &v| acc | v),
            GateKind::Nor => !fanin.iter().fold(0, |acc, &v| acc | v),
            GateKind::Xor => fanin.iter().fold(0, |acc, &v| acc ^ v),
            GateKind::Xnor => !fanin.iter().fold(0, |acc, &v| acc ^ v),
            GateKind::Not => !fanin[0],
            GateKind::Buf => fanin[0],
            GateKind::Const0 => 0,
            GateKind::Const1 => u64::MAX,
        }
    }

    /// Returns the valid fanin arity range `(min, max)` for this kind.
    pub fn arity(self) -> (usize, usize) {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => (0, 0),
            GateKind::Not | GateKind::Buf => (1, 1),
            _ => (2, usize::MAX),
        }
    }

    /// The `.bench` keyword for this kind, if it is expressible there.
    ///
    /// `Input` is written via an `INPUT(...)` declaration rather than a
    /// right-hand-side function and therefore returns `None`.
    pub fn bench_name(self) -> Option<&'static str> {
        match self {
            GateKind::Input => None,
            GateKind::And => Some("AND"),
            GateKind::Nand => Some("NAND"),
            GateKind::Or => Some("OR"),
            GateKind::Nor => Some("NOR"),
            GateKind::Xor => Some("XOR"),
            GateKind::Xnor => Some("XNOR"),
            GateKind::Not => Some("NOT"),
            GateKind::Buf => Some("BUFF"),
            GateKind::Const0 => Some("CONST0"),
            GateKind::Const1 => Some("CONST1"),
        }
    }

    /// Whether the gate output is inverting with respect to its "natural"
    /// non-inverting counterpart (NAND/NOR/XNOR/NOT).
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor | GateKind::Not
        )
    }

    /// All gate kinds, useful for exhaustive tests.
    pub const ALL: [GateKind; 11] = [
        GateKind::Input,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
        GateKind::Const0,
        GateKind::Const1,
    ];
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Input => "INPUT",
            other => other.bench_name().unwrap_or("?"),
        };
        f.write_str(s)
    }
}

/// One gate of a [`crate::Netlist`], viewed in place: the function it
/// computes and the nets it reads.
///
/// A netlist stores its gates in flat arrays, so this view is handed
/// out by value ([`crate::Netlist::gate`], [`crate::Netlist::gates`]);
/// `fanin` borrows the netlist's shared fanin array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate<'a> {
    /// The logic function of this gate.
    pub kind: GateKind,
    /// Driving nets, in positional order.
    pub fanin: &'a [NetId],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_two_input_truth_tables() {
        let cases: [(GateKind, [bool; 4]); 6] = [
            (GateKind::And, [false, false, false, true]),
            (GateKind::Nand, [true, true, true, false]),
            (GateKind::Or, [false, true, true, true]),
            (GateKind::Nor, [true, false, false, false]),
            (GateKind::Xor, [false, true, true, false]),
            (GateKind::Xnor, [true, false, false, true]),
        ];
        for (kind, expect) in cases {
            for (i, &e) in expect.iter().enumerate() {
                let a = i & 1 != 0;
                let b = i & 2 != 0;
                assert_eq!(kind.eval(&[a, b]), e, "{kind} on ({a},{b})");
            }
        }
    }

    #[test]
    fn eval_word_matches_scalar_eval() {
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for pat in 0u64..4 {
                let a = if pat & 1 != 0 { u64::MAX } else { 0 };
                let b = if pat & 2 != 0 { u64::MAX } else { 0 };
                let w = kind.eval_word(&[a, b]);
                let s = kind.eval(&[pat & 1 != 0, pat & 2 != 0]);
                assert_eq!(w == u64::MAX, s);
                assert!(w == 0 || w == u64::MAX);
            }
        }
    }

    #[test]
    fn multi_input_xor_is_parity() {
        assert!(GateKind::Xor.eval(&[true, true, true]));
        assert!(!GateKind::Xor.eval(&[true, true, true, true]));
        assert!(!GateKind::Xnor.eval(&[true, true, true]));
    }

    #[test]
    fn unary_and_constant_gates() {
        assert!(GateKind::Not.eval(&[false]));
        assert!(!GateKind::Not.eval(&[true]));
        assert!(GateKind::Buf.eval(&[true]));
        assert!(!GateKind::Const0.eval(&[]));
        assert!(GateKind::Const1.eval(&[]));
        assert_eq!(GateKind::Const1.eval_word(&[]), u64::MAX);
    }

    #[test]
    fn arity_bounds() {
        assert_eq!(GateKind::Input.arity(), (0, 0));
        assert_eq!(GateKind::Not.arity(), (1, 1));
        assert_eq!(GateKind::And.arity().0, 2);
    }

    #[test]
    fn display_and_bench_names() {
        assert_eq!(GateKind::Nand.to_string(), "NAND");
        assert_eq!(GateKind::Buf.bench_name(), Some("BUFF"));
        assert_eq!(GateKind::Input.bench_name(), None);
        assert_eq!(NetId(7).to_string(), "n7");
    }
}
