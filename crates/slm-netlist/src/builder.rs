//! Incremental netlist construction.

use crate::error::NetlistError;
use crate::gate::{GateKind, NetId};
use crate::layout::{Gates, Names};
use crate::netlist::Netlist;
use std::fmt::Write as _;

/// Builds a [`Netlist`] gate by gate.
///
/// Gates must reference already-created nets, so builder-produced netlists
/// are acyclic by construction. The builder writes the netlist's flat
/// gate and name arrays as it goes and hands them over on
/// [`NetlistBuilder::finish`].
///
/// # Example
///
/// ```
/// use slm_netlist::{NetlistBuilder, GateKind};
/// let mut b = NetlistBuilder::new("mux2");
/// let s = b.input("s");
/// let a = b.input("a");
/// let c = b.input("b");
/// let ns = b.not(s);
/// let t0 = b.and2(ns, a);
/// let t1 = b.and2(s, c);
/// let y = b.or2(t0, t1);
/// b.output("y", y);
/// let nl = b.finish().unwrap();
/// assert_eq!(nl.eval(&[false, true, false]).unwrap(), vec![true]);
/// assert_eq!(nl.eval(&[true, true, false]).unwrap(), vec![false]);
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    gates: Gates,
    inputs: Vec<NetId>,
    outputs: Vec<(String, NetId)>,
    names: Names,
    error: Option<NetlistError>,
}

impl NetlistBuilder {
    /// Creates an empty builder for a netlist called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            gates: Gates::with_capacity(0, 0),
            inputs: Vec::new(),
            outputs: Vec::new(),
            names: Names::default(),
            error: None,
        }
    }

    fn push(&mut self, kind: GateKind, fanin: &[NetId], name: Option<&str>) -> NetId {
        let (lo, hi) = kind.arity();
        if fanin.len() < lo || fanin.len() > hi {
            self.error.get_or_insert(NetlistError::BadArity {
                kind,
                got: fanin.len(),
            });
        }
        if let Some(&f) = fanin.iter().find(|f| f.index() >= self.gates.len()) {
            self.error.get_or_insert(NetlistError::UnknownNet(f));
        }
        let id = self.gates.push(kind, fanin.iter().copied());
        if let Some(n) = name {
            self.names.push(id, n);
        }
        id
    }

    /// Declares a named primary input and returns its net.
    pub fn input(&mut self, name: impl AsRef<str>) -> NetId {
        let id = self.push(GateKind::Input, &[], Some(name.as_ref()));
        self.inputs.push(id);
        id
    }

    /// Declares `width` primary inputs named `prefix[0]..prefix[width-1]`,
    /// least-significant first.
    pub fn input_bus(&mut self, prefix: &str, width: usize) -> Vec<NetId> {
        let mut name = String::new();
        (0..width)
            .map(|i| {
                name.clear();
                let _ = write!(name, "{prefix}[{i}]");
                self.input(&name)
            })
            .collect()
    }

    /// Adds an anonymous gate.
    pub fn gate(&mut self, kind: GateKind, fanin: &[NetId]) -> NetId {
        self.push(kind, fanin, None)
    }

    /// Adds a named gate.
    pub fn named_gate(&mut self, name: impl AsRef<str>, kind: GateKind, fanin: &[NetId]) -> NetId {
        self.push(kind, fanin, Some(name.as_ref()))
    }

    /// Two-input AND.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::And, &[a, b])
    }

    /// Two-input OR.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::Or, &[a, b])
    }

    /// Two-input XOR.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::Xor, &[a, b])
    }

    /// Two-input NOR.
    pub fn nor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(GateKind::Nor, &[a, b])
    }

    /// Inverter.
    pub fn not(&mut self, a: NetId) -> NetId {
        self.gate(GateKind::Not, &[a])
    }

    /// Buffer.
    pub fn buf(&mut self, a: NetId) -> NetId {
        self.gate(GateKind::Buf, &[a])
    }

    /// Constant 0.
    pub fn const0(&mut self) -> NetId {
        self.gate(GateKind::Const0, &[])
    }

    /// Constant 1.
    pub fn const1(&mut self) -> NetId {
        self.gate(GateKind::Const1, &[])
    }

    /// Two-to-one multiplexer: `if s { b } else { a }`.
    pub fn mux2(&mut self, s: NetId, a: NetId, b: NetId) -> NetId {
        let ns = self.not(s);
        let t0 = self.and2(ns, a);
        let t1 = self.and2(s, b);
        self.or2(t0, t1)
    }

    /// Declares a named primary output driven by `net`.
    pub fn output(&mut self, name: impl Into<String>, net: NetId) {
        let name = name.into();
        if net.index() >= self.gates.len() {
            self.error.get_or_insert(NetlistError::UnknownNet(net));
        }
        self.outputs.push((name, net));
    }

    /// Declares outputs `prefix[0]..` for each net in `nets`.
    pub fn output_bus(&mut self, prefix: &str, nets: &[NetId]) {
        for (i, &n) in nets.iter().enumerate() {
            self.output(format!("{prefix}[{i}]"), n);
        }
    }

    /// Number of gates created so far.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether no gates have been created yet.
    pub fn is_empty(&self) -> bool {
        self.gates.len() == 0
    }

    /// Finalizes the netlist.
    ///
    /// # Errors
    ///
    /// Returns the first bad arity or unknown net encountered, else the
    /// first name that repeats an earlier one.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Netlist::assemble(self.name, self.gates, self.inputs, self.outputs, self.names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_helpers() {
        let mut b = NetlistBuilder::new("bus");
        let xs = b.input_bus("x", 4);
        assert_eq!(xs.len(), 4);
        let inv: Vec<NetId> = xs.iter().map(|&x| b.not(x)).collect();
        b.output_bus("y", &inv);
        let nl = b.finish().unwrap();
        assert_eq!(nl.inputs().len(), 4);
        assert_eq!(nl.outputs().len(), 4);
        assert_eq!(nl.outputs()[2].0, "y[2]");
        assert_eq!(
            nl.eval(&[true, false, true, false]).unwrap(),
            vec![false, true, false, true]
        );
        assert!(nl.find("x[3]").is_some());
    }

    #[test]
    fn error_is_deferred_to_finish() {
        let mut b = NetlistBuilder::new("bad");
        let a = b.input("a");
        let _ = b.gate(GateKind::And, &[a]); // arity violation
        assert!(matches!(
            b.finish(),
            Err(NetlistError::BadArity {
                kind: GateKind::And,
                got: 1
            })
        ));
    }

    #[test]
    fn duplicate_input_name_rejected() {
        let mut b = NetlistBuilder::new("dup");
        b.input("a");
        b.input("a");
        assert!(matches!(b.finish(), Err(NetlistError::DuplicateName(_))));
    }

    #[test]
    fn mux_truth_table() {
        let mut b = NetlistBuilder::new("m");
        let s = b.input("s");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.mux2(s, a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        assert!(nl.eval(&[false, true, false]).unwrap()[0]);
        assert!(!nl.eval(&[true, true, false]).unwrap()[0]);
        assert!(nl.eval(&[true, false, true]).unwrap()[0]);
    }

    #[test]
    fn constants() {
        let mut b = NetlistBuilder::new("c");
        let z = b.const0();
        let o = b.const1();
        let y = b.or2(z, o);
        b.output("y", y);
        let nl = b.finish().unwrap();
        assert_eq!(nl.eval(&[]).unwrap(), vec![true]);
    }
}
