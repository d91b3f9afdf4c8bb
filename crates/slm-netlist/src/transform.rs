//! Netlist transformations and equivalence checking.
//!
//! A light optimization pipeline (constant propagation, dead-logic
//! removal) plus random-simulation equivalence checking. These serve
//! two purposes in the reproduction: they model what a synthesis flow
//! does to a tenant's netlist before the checker sees it, and the
//! equivalence checker validates that transformations — and hand edits
//! like sensor-stimulus rewiring — preserve function.

use crate::error::NetlistError;
use crate::gate::{GateKind, NetId};
use crate::layout::{Gates, Names};
use crate::netlist::Netlist;

/// Result of one optimization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStats {
    /// Gates before the pass.
    pub gates_before: usize,
    /// Gates after the pass.
    pub gates_after: usize,
}

/// Propagates constants: gates whose value is fixed by `Const0`/`Const1`
/// fanins (or by constant-forcing inputs, e.g. `AND(x, 0)`) are replaced
/// by constants, iterating to a fixed point; the result is then
/// dead-logic cleaned.
///
/// # Errors
///
/// Fails on cyclic netlists.
pub fn propagate_constants(nl: &Netlist) -> Result<(Netlist, PassStats), NetlistError> {
    let order = nl.topological_order()?.to_vec();
    // lattice: None = unknown, Some(v) = constant v
    let mut konst: Vec<Option<bool>> = vec![None; nl.len()];
    for &id in &order {
        let g = nl.gate(id);
        konst[id.index()] = match g.kind {
            GateKind::Const0 => Some(false),
            GateKind::Const1 => Some(true),
            GateKind::Input => None,
            kind => {
                let vals: Vec<Option<bool>> = g.fanin.iter().map(|f| konst[f.index()]).collect();
                match kind {
                    GateKind::And | GateKind::Nand => {
                        if vals.contains(&Some(false)) {
                            Some(kind == GateKind::Nand)
                        } else if vals.iter().all(|v| *v == Some(true)) {
                            Some(kind == GateKind::And)
                        } else {
                            None
                        }
                    }
                    GateKind::Or | GateKind::Nor => {
                        if vals.contains(&Some(true)) {
                            Some(kind == GateKind::Or)
                        } else if vals.iter().all(|v| *v == Some(false)) {
                            Some(kind == GateKind::Nor)
                        } else {
                            None
                        }
                    }
                    GateKind::Xor | GateKind::Xnor => {
                        if vals.iter().all(Option::is_some) {
                            let parity = vals.iter().fold(false, |acc, v| acc ^ v.unwrap_or(false));
                            Some(parity ^ (kind == GateKind::Xnor))
                        } else {
                            None
                        }
                    }
                    GateKind::Not => vals[0].map(|v| !v),
                    GateKind::Buf => vals[0],
                    _ => None,
                }
            }
        };
    }
    // Rebuild: constant gates become Const0/Const1 with no fanin.
    let mut gates = Gates::with_capacity(nl.len(), nl.edge_count());
    for (g, k) in nl.gates().zip(&konst) {
        match k {
            Some(false) if g.kind != GateKind::Input => gates.push(GateKind::Const0, []),
            Some(true) if g.kind != GateKind::Input => gates.push(GateKind::Const1, []),
            _ => gates.push(g.kind, g.fanin.iter().copied()),
        };
    }
    let rebuilt = Netlist::assemble(
        nl.name().to_string(),
        gates,
        nl.inputs().to_vec(),
        nl.outputs().to_vec(),
        nl.names().clone(),
    )?;
    let before = nl.len();
    let cleaned = sweep_dead_logic(&rebuilt)?;
    let after = cleaned.len();
    Ok((
        cleaned,
        PassStats {
            gates_before: before,
            gates_after: after,
        },
    ))
}

/// Removes gates that no primary output transitively depends on.
/// Primary inputs are kept even when dead, so port interfaces stay
/// stable.
///
/// # Errors
///
/// Fails on cyclic netlists.
fn sweep_dead_logic(nl: &Netlist) -> Result<Netlist, NetlistError> {
    nl.topological_order()?;
    let mut live = vec![false; nl.len()];
    let mut stack: Vec<NetId> = nl.outputs().iter().map(|&(_, o)| o).collect();
    while let Some(id) = stack.pop() {
        if live[id.index()] {
            continue;
        }
        live[id.index()] = true;
        stack.extend_from_slice(nl.gate(id).fanin);
    }
    for &pi in nl.inputs() {
        live[pi.index()] = true;
    }
    // compact ids
    let mut remap: Vec<Option<NetId>> = vec![None; nl.len()];
    let mut kept = 0;
    for i in (0..nl.len()).filter(|&i| live[i]) {
        remap[i] = Some(NetId(kept));
        kept += 1;
    }
    let remapped = |f: &NetId| remap[f.index()].expect("fanin of live gate is live");
    let mut gates = Gates::with_capacity(kept as usize, nl.edge_count());
    for (g, _) in nl.gates().zip(&live).filter(|(_, &l)| l) {
        gates.push(g.kind, g.fanin.iter().map(remapped));
    }
    let mut names = Names::default();
    for (id, n) in nl.named_nets() {
        if let Some(new) = remap[id.index()] {
            names.push(new, n);
        }
    }
    let inputs = nl
        .inputs()
        .iter()
        .map(|pi| remap[pi.index()].expect("inputs kept live"))
        .collect();
    let outputs = nl
        .outputs()
        .iter()
        .map(|(n, o)| (n.clone(), remap[o.index()].expect("outputs are live")))
        .collect();
    Netlist::assemble(nl.name().to_string(), gates, inputs, outputs, names)
}

/// Random-simulation equivalence check: compares the outputs of two
/// netlists with the same interface over `rounds × 64` random patterns.
///
/// A mismatch is definitive; agreement is probabilistic (like any
/// simulation-based miter) but with hundreds of random 64-bit-parallel
/// rounds the escape probability for ordinary logic is negligible.
///
/// # Errors
///
/// Fails on interface mismatch or cyclic netlists.
///
/// Returns `Ok(None)` when equivalent, `Ok(Some(pattern))` with a
/// counterexample input assignment otherwise.
#[cfg(test)]
fn check_equivalence(
    a: &Netlist,
    b: &Netlist,
    rounds: usize,
    seed: u64,
) -> Result<Option<Vec<bool>>, NetlistError> {
    if a.inputs().len() != b.inputs().len() || a.outputs().len() != b.outputs().len() {
        return Err(NetlistError::InputCountMismatch {
            expected: a.inputs().len(),
            got: b.inputs().len(),
        });
    }
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..rounds {
        let ins: Vec<u64> = (0..a.inputs().len()).map(|_| next()).collect();
        let oa = a.eval_parallel(&ins)?;
        let ob = b.eval_parallel(&ins)?;
        for (k, (&wa, wb)) in oa.iter().zip(&ob).enumerate() {
            let diff = wa ^ wb;
            if diff != 0 {
                let bit = diff.trailing_zeros();
                let pattern = ins.iter().map(|w| (w >> bit) & 1 == 1).collect();
                let _ = k;
                return Ok(Some(pattern));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::generators::{alu, ripple_carry_adder};

    #[test]
    fn constant_folding_collapses_gated_logic() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let zero = b.const0();
        let dead_and = b.and2(x, zero); // always 0
        let y = b.or2(dead_and, x); // == x
        b.output("y", y);
        let nl = b.finish().unwrap();
        let (opt, stats) = propagate_constants(&nl).unwrap();
        assert!(stats.gates_after < stats.gates_before, "{stats:?}");
        // still functionally x
        assert_eq!(opt.eval(&[true]).unwrap(), vec![true]);
        assert_eq!(opt.eval(&[false]).unwrap(), vec![false]);
        assert!(check_equivalence(&nl, &opt, 16, 1).unwrap().is_none());
    }

    #[test]
    fn xor_and_not_folding() {
        let mut b = NetlistBuilder::new("t");
        let one = b.const1();
        let zero = b.const0();
        let x = b.gate(GateKind::Xor, &[one, zero]);
        let y = b.not(x);
        b.output("y", y); // constant 0
        let nl = b.finish().unwrap();
        let (opt, _) = propagate_constants(&nl).unwrap();
        assert_eq!(opt.eval(&[]).unwrap(), vec![false]);
        assert!(opt.len() <= 2, "should fold to one constant + alias");
    }

    #[test]
    fn dead_sweep_keeps_interface() {
        let mut b = NetlistBuilder::new("t");
        let x = b.input("x");
        let unused = b.input("unused");
        let _dead = b.not(unused);
        let y = b.not(x);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let swept = sweep_dead_logic(&nl).unwrap();
        assert_eq!(swept.inputs().len(), 2, "ports must stay");
        assert_eq!(swept.len(), nl.len() - 1);
        assert_eq!(swept.eval(&[true, false]).unwrap(), vec![false]);
    }

    #[test]
    fn optimized_alu_stays_equivalent() {
        let nl = alu(16).unwrap();
        let (opt, stats) = propagate_constants(&nl).unwrap();
        // the shifter's const0 bit and mux feed constants through
        assert!(stats.gates_after <= stats.gates_before);
        assert!(check_equivalence(&nl, &opt, 64, 7).unwrap().is_none());
    }

    #[test]
    fn equivalence_finds_counterexample() {
        let a = ripple_carry_adder(8).unwrap();
        // b computes a+b+1 via the cin variant wired to const1
        let mut bld = NetlistBuilder::new("plus1");
        let xa = bld.input_bus("a", 8);
        let xb = bld.input_bus("b", 8);
        let mut carry = bld.const1();
        let mut sums = Vec::new();
        for i in 0..8 {
            let axb = bld.xor2(xa[i], xb[i]);
            let s = bld.xor2(axb, carry);
            let t0 = bld.and2(xa[i], xb[i]);
            let t1 = bld.and2(axb, carry);
            carry = bld.or2(t0, t1);
            sums.push(s);
        }
        bld.output_bus("sum", &sums);
        bld.output("cout", carry);
        let b = bld.finish().unwrap();
        let cex = check_equivalence(&a, &b, 64, 3).unwrap();
        let pattern = cex.expect("must find a counterexample");
        // verify the counterexample really differs
        assert_ne!(a.eval(&pattern).unwrap(), b.eval(&pattern).unwrap());
    }

    #[test]
    fn interface_mismatch_rejected() {
        let a = ripple_carry_adder(8).unwrap();
        let b = ripple_carry_adder(4).unwrap();
        assert!(check_equivalence(&a, &b, 4, 1).is_err());
    }
}
