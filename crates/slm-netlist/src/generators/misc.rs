//! Small generators used by tests and by the structural checker as
//! positive and negative examples.

use crate::builder::NetlistBuilder;
use crate::error::NetlistError;
use crate::gate::{GateKind, NetId};
use crate::netlist::Netlist;

/// The ISCAS-85 C17 benchmark (6 NAND gates), built programmatically.
pub fn c17() -> Netlist {
    let mut b = NetlistBuilder::new("c17");
    let i1 = b.input("1");
    let i2 = b.input("2");
    let i3 = b.input("3");
    let i6 = b.input("6");
    let i7 = b.input("7");
    let g10 = b.named_gate("10", GateKind::Nand, &[i1, i3]);
    let g11 = b.named_gate("11", GateKind::Nand, &[i3, i6]);
    let g16 = b.named_gate("16", GateKind::Nand, &[i2, g11]);
    let g19 = b.named_gate("19", GateKind::Nand, &[g11, i7]);
    let g22 = b.named_gate("22", GateKind::Nand, &[g10, g16]);
    let g23 = b.named_gate("23", GateKind::Nand, &[g16, g19]);
    b.output("22", g22);
    b.output("23", g23);
    b.finish().expect("c17 is well-formed")
}

/// `n`-bit equality comparator: output `eq` is 1 iff `a == b`.
pub fn equality_comparator(n: usize) -> Result<Netlist, NetlistError> {
    if n == 0 {
        return Err(NetlistError::BadGeneratorParameter(
            "comparator width must be at least 1".into(),
        ));
    }
    let mut b = NetlistBuilder::new(format!("eq{n}"));
    let a_bus = b.input_bus("a", n);
    let b_bus = b.input_bus("b", n);
    let mut eqs: Vec<NetId> = (0..n)
        .map(|i| {
            let x = b.xor2(a_bus[i], b_bus[i]);
            b.not(x)
        })
        .collect();
    // Balanced AND reduction tree.
    while eqs.len() > 1 {
        let mut next = Vec::with_capacity(eqs.len().div_ceil(2));
        for pair in eqs.chunks(2) {
            next.push(if pair.len() == 2 {
                b.and2(pair[0], pair[1])
            } else {
                pair[0]
            });
        }
        eqs = next;
    }
    b.output("eq", eqs[0]);
    b.finish()
}

/// `n`-input XOR parity tree; output `parity`.
pub fn parity_tree(n: usize) -> Result<Netlist, NetlistError> {
    if n == 0 {
        return Err(NetlistError::BadGeneratorParameter(
            "parity tree needs at least 1 input".into(),
        ));
    }
    let mut b = NetlistBuilder::new(format!("parity{n}"));
    let mut layer = b.input_bus("x", n);
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            next.push(if pair.len() == 2 {
                b.xor2(pair[0], pair[1])
            } else {
                pair[0]
            });
        }
        layer = next;
    }
    b.output("parity", layer[0]);
    b.finish()
}

/// A classic ring oscillator: an enable NAND followed by `stages`
/// inverters, with the last inverter feeding back into the NAND.
///
/// The result is **cyclic** — it cannot be simulated functionally and is
/// exactly the structure bitstream checkers reject. Used as a
/// known-malicious specimen by `slm-checker` tests.
///
/// `stages` must be even so the loop has odd total inversions (NAND
/// included) and actually oscillates.
pub fn ring_oscillator(stages: usize) -> Result<Netlist, NetlistError> {
    if stages == 0 || stages % 2 != 0 {
        return Err(NetlistError::BadGeneratorParameter(
            "ring oscillator needs an even, nonzero inverter count".into(),
        ));
    }
    // Nets: 0 = enable input, 1 = NAND, 2..2+stages = inverters.
    let mut gates = vec![(GateKind::Input, vec![])];
    let last_inv = NetId((1 + stages) as u32);
    gates.push((GateKind::Nand, vec![NetId(0), last_inv]));
    for i in 0..stages {
        gates.push((GateKind::Not, vec![NetId((1 + i) as u32)]));
    }
    let mut names = vec![Some("en".to_string()), Some("ro_nand".to_string())];
    for i in 0..stages {
        names.push(Some(format!("ro_inv{i}")));
    }
    Netlist::from_parts(
        format!("ro{stages}"),
        gates,
        vec![NetId(0)],
        vec![("osc".to_string(), last_inv)],
        names,
    )
}

/// A TDC-style observable delay line: `stages` buffers in series, with an
/// `OUTPUT` tap after every buffer.
///
/// This is the structure of the delay-line sensors of Fig. 1 (right);
/// it is acyclic and functionally trivial (every tap equals the input)
/// but its shape — a long buffer chain with per-stage observation points
/// — is what pattern-matching bitstream checkers flag.
pub fn tdc_delay_line(stages: usize) -> Result<Netlist, NetlistError> {
    if stages == 0 {
        return Err(NetlistError::BadGeneratorParameter(
            "delay line needs at least 1 stage".into(),
        ));
    }
    let mut b = NetlistBuilder::new(format!("tdc{stages}"));
    let mut n = b.input("d");
    let mut taps = Vec::with_capacity(stages);
    for i in 0..stages {
        n = b.named_gate(format!("dl{i}"), GateKind::Buf, &[n]);
        taps.push(n);
    }
    b.output_bus("tap", &taps);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c17_matches_bench_parse() {
        let nl = c17();
        assert_eq!(nl.len(), 11);
        assert!(nl.is_acyclic());
        // spot check one pattern: all ones → 22 = NAND(0, ...) = 1? compute
        let out = nl.eval(&[true; 5]).unwrap();
        // g10 = !(1&1)=0, g11 = 0, g16 = !(1&0)=1, g19 = !(0&1)=1
        // g22 = !(0&1)=1, g23 = !(1&1)=0
        assert_eq!(out, vec![true, false]);
    }

    #[test]
    fn comparator() {
        let nl = equality_comparator(5).unwrap();
        let mut ins = crate::words::to_bits(0b10110, 5);
        ins.extend(crate::words::to_bits(0b10110, 5));
        assert_eq!(nl.eval(&ins).unwrap(), vec![true]);
        let mut ins2 = crate::words::to_bits(0b10110, 5);
        ins2.extend(crate::words::to_bits(0b10111, 5));
        assert_eq!(nl.eval(&ins2).unwrap(), vec![false]);
    }

    #[test]
    fn parity() {
        let nl = parity_tree(7).unwrap();
        for v in [0u128, 1, 0b1010101, 0x7f] {
            let ins = crate::words::to_bits(v, 7);
            let expect = (v.count_ones() % 2) == 1;
            assert_eq!(nl.eval(&ins).unwrap(), vec![expect], "v={v:#b}");
        }
    }

    #[test]
    fn ring_oscillator_is_cyclic() {
        let ro = ring_oscillator(4).unwrap();
        assert!(!ro.is_acyclic());
        assert!(ro.eval(&[true]).is_err());
        assert!(ring_oscillator(3).is_err());
        assert!(ring_oscillator(0).is_err());
    }

    #[test]
    fn delay_line_taps_follow_input() {
        let nl = tdc_delay_line(16).unwrap();
        assert_eq!(nl.outputs().len(), 16);
        assert!(nl.eval(&[true]).unwrap().iter().all(|&t| t));
        assert!(nl.eval(&[false]).unwrap().iter().all(|&t| !t));
        // depth of tap i is i+1
        let prof = nl.depth_profile().unwrap();
        assert_eq!(prof.output_levels[0], 1);
        assert_eq!(prof.output_levels[15], 16);
    }
}
