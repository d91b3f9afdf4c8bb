//! Obfuscated malicious specimens and the generator zoo.
//!
//! The paper's structural-screening argument is only interesting if the
//! screen is not trivially evadable by the *known-bad* designs. These
//! generators build the evasive variants a tenant would actually
//! submit: the same RO / TDC / clock-misuse structures with interposed
//! buffers and non-buffer identity gates so that naive pattern matchers
//! (exact cell-kind chains, single topological-sort witnesses) miss
//! them. `slm-checker`'s SCC, signature and SCOAP passes are built to
//! catch exactly these; the [`zoo`] registry enumerates every specimen
//! together with the benign circuits for the detection-matrix
//! experiment.

use crate::builder::NetlistBuilder;
use crate::error::NetlistError;
use crate::gate::{GateKind, NetId};
use crate::netlist::Netlist;

/// A TDC-style observable delay line hidden from naive chain matchers.
///
/// Every stage is a 2-input identity gate (`AND(x, x)` / `OR(x, x)`
/// alternating) rather than a buffer, stages are separated by an
/// interposed `BUF`, and the per-stage observation taps go through one
/// more `BUF` so no chain net is itself a primary output. Functionally
/// every tap still equals the input; structurally the design is a
/// delay-line sensor, but the plain `DelayLineSensor` pass (which
/// follows `BUF`/`NOT` chains) does not fire on it.
pub fn obfuscated_tdc_delay_line(stages: usize) -> Result<Netlist, NetlistError> {
    if stages == 0 {
        return Err(NetlistError::BadGeneratorParameter(
            "obfuscated delay line needs at least 1 stage".into(),
        ));
    }
    let mut b = NetlistBuilder::new(format!("tdc_obf{stages}"));
    let mut n = b.input("d");
    let mut taps = Vec::with_capacity(stages);
    for i in 0..stages {
        let kind = if i % 2 == 0 {
            GateKind::And
        } else {
            GateKind::Or
        };
        let stage = b.named_gate(format!("st{i}"), kind, &[n, n]);
        let tap = b.buf(stage);
        taps.push(tap);
        n = b.buf(stage);
    }
    b.output_bus("tap", &taps);
    b.finish()
}

/// A ring oscillator with interposed buffers between its inverters.
///
/// Same oscillation loop as [`crate::generators::ring_oscillator`]
/// (enable NAND + `stages` inverters, odd total inversion), but each
/// inverter is followed by a `BUF`, so any matcher that looks for a
/// pure inverter ring misses it. `stages` must be even and nonzero.
pub fn obfuscated_ring_oscillator(stages: usize) -> Result<Netlist, NetlistError> {
    if stages == 0 || stages % 2 != 0 {
        return Err(NetlistError::BadGeneratorParameter(
            "obfuscated ring oscillator needs an even, nonzero inverter count".into(),
        ));
    }
    // Nets: 0 = enable, 1 = NAND, then per stage: NOT at 2+2i, BUF at
    // 3+2i. The final BUF feeds back into the NAND.
    let last_buf = NetId((1 + 2 * stages) as u32);
    let mut gates = vec![
        (GateKind::Input, vec![]),
        (GateKind::Nand, vec![NetId(0), last_buf]),
    ];
    let mut names = vec![Some("en".to_string()), Some("ro_nand".to_string())];
    for i in 0..stages {
        let prev = NetId((1 + 2 * i) as u32);
        gates.push((GateKind::Not, vec![prev]));
        gates.push((GateKind::Buf, vec![NetId((2 + 2 * i) as u32)]));
        names.push(Some(format!("ro_inv{i}")));
        names.push(Some(format!("ro_buf{i}")));
    }
    Netlist::from_parts(
        format!("ro_obf{stages}"),
        gates,
        vec![NetId(0)],
        vec![("osc".to_string(), last_buf)],
        names,
    )
}

/// An RO-grid power virus: `cells` independent three-gate ring
/// oscillators (enable NAND + two inverters each) sharing one enable.
///
/// This is the classic fluctuation-generator / power-virus structure
/// (Gnad et al.; screened for by FPGADefender): thousands of replicated
/// trivial cells, every one of them a combinational loop.
pub fn ro_grid(cells: usize) -> Result<Netlist, NetlistError> {
    if cells == 0 {
        return Err(NetlistError::BadGeneratorParameter(
            "RO grid needs at least 1 cell".into(),
        ));
    }
    let mut gates = vec![(GateKind::Input, vec![])];
    let mut names = vec![Some("en".to_string())];
    for c in 0..cells {
        let base = (1 + 3 * c) as u32;
        // NAND(en, inv2) -> inv1 -> inv2 -> back into the NAND.
        gates.push((GateKind::Nand, vec![NetId(0), NetId(base + 2)]));
        gates.push((GateKind::Not, vec![NetId(base)]));
        gates.push((GateKind::Not, vec![NetId(base + 1)]));
        names.push(Some(format!("cell{c}_nand")));
        names.push(Some(format!("cell{c}_inv1")));
        names.push(Some(format!("cell{c}_inv2")));
    }
    Netlist::from_parts(
        format!("ro_grid{cells}"),
        gates,
        vec![NetId(0)],
        vec![("osc".to_string(), NetId(3))],
        names,
    )
}

/// A clock-as-data specimen: the tenant's clock pin routed into
/// combinational logic.
///
/// The fourth structural check the paper names (besides loops, delay
/// lines and RO grids) is scanning for clock signals used as LUT data
/// inputs — the standard way to build a latch-based sensor or glitch
/// generator without a combinational loop. Here a `clk` input is XORed
/// into every data bit, which is exactly that misuse shape.
pub fn clock_as_data(width: usize) -> Result<Netlist, NetlistError> {
    if width == 0 {
        return Err(NetlistError::BadGeneratorParameter(
            "clock-as-data specimen needs at least 1 data bit".into(),
        ));
    }
    let mut b = NetlistBuilder::new(format!("clk_data{width}"));
    let clk = b.input("clk");
    let d = b.input_bus("d", width);
    let q: Vec<NetId> = d.iter().map(|&di| b.xor2(di, clk)).collect();
    b.output_bus("q", &q);
    b.finish()
}

/// A TDC built out of an adder: a ripple-carry chain with every carry
/// net observed at a primary output (through a buffer).
///
/// This is the paper's "benign logic as sensor" idea pushed one step
/// further into known-bad territory: the arithmetic is a real adder,
/// there is no buffer chain and no combinational loop, so neither the
/// delay-line pass nor the loop pass fires — only the subgraph
/// signature matcher (tapped delay-chain motif) catches it.
pub fn tapped_carry_chain(bits: usize) -> Result<Netlist, NetlistError> {
    if bits == 0 {
        return Err(NetlistError::BadGeneratorParameter(
            "tapped carry chain needs at least 1 bit".into(),
        ));
    }
    let mut b = NetlistBuilder::new(format!("carry_tdc{bits}"));
    let a = b.input_bus("a", bits);
    let y = b.input_bus("b", bits);
    let mut carry = b.const0();
    let mut sums = Vec::with_capacity(bits);
    let mut taps = Vec::with_capacity(bits);
    for i in 0..bits {
        let axb = b.xor2(a[i], y[i]);
        sums.push(b.xor2(axb, carry));
        let g0 = b.and2(a[i], y[i]);
        let g1 = b.and2(axb, carry);
        carry = b.or2(g0, g1);
        taps.push(b.buf(carry));
    }
    b.output_bus("s", &sums);
    b.output_bus("t", &taps);
    b.finish()
}

/// The paper's deployed sensor, submitted the way a stealthy tenant
/// would: a real ripple-carry adder whose carry-in is the fabric clock,
/// with the carry chain tapped only every `tap_every` bits.
///
/// Unlike [`tapped_carry_chain`] (taps every carry, which the signature
/// pass's tapped-chain motif catches) the sparse taps leave
/// `2 * tap_every` unobserved gates between observation points — past
/// the matcher's `max_unobserved_gap` — and the clock pin is named
/// `sense`, so the clock-as-data name screen never fires. Structurally
/// this is indistinguishable from a benign adder; it is the specimen
/// the *semantic* passes exist for. At admission time the provider
/// still knows `sense` is clock-fed, because the tenant has to request
/// clock routing from the shell — the zoo records that contract in
/// [`ZooEntry::declared_clocks`].
pub fn carry_sensor(bits: usize, tap_every: usize) -> Result<Netlist, NetlistError> {
    if bits == 0 || tap_every == 0 {
        return Err(NetlistError::BadGeneratorParameter(
            "carry sensor needs nonzero width and tap spacing".into(),
        ));
    }
    let mut b = NetlistBuilder::new(format!("carry_sensor{bits}"));
    let a = b.input_bus("a", bits);
    let y = b.input_bus("b", bits);
    let sense = b.input("sense");
    let mut carry = sense;
    let mut sums = Vec::with_capacity(bits);
    let mut taps = Vec::new();
    for i in 0..bits {
        let axb = b.xor2(a[i], y[i]);
        sums.push(b.xor2(axb, carry));
        let g0 = b.and2(a[i], y[i]);
        let g1 = b.and2(axb, carry);
        carry = b.or2(g0, g1);
        if (i + 1) % tap_every == 0 {
            taps.push(b.buf(carry));
        }
    }
    b.output_bus("s", &sums);
    b.output_bus("t", &taps);
    b.finish()
}

/// One design in the detection-matrix zoo.
#[derive(Debug, Clone)]
pub struct ZooEntry {
    /// Short stable identifier (used in reports and the CLI).
    pub name: &'static str,
    /// Whether the design is malicious by construction (must be flagged
    /// by at least one structural pass) or benign (must stay clean).
    pub malicious: bool,
    /// Input pins the tenant's interface contract declares as clock-fed.
    ///
    /// In the deployment model the provider's shell owns clock routing,
    /// so a tenant wanting the clock on a pin must say so regardless of
    /// what the pin is named — this is what seeds the semantic
    /// clock-taint pass when net names lie.
    pub declared_clocks: &'static [&'static str],
    /// The built netlist.
    pub netlist: Netlist,
}

/// The full generator zoo the detection-matrix experiment scans: every
/// malicious-by-construction specimen and every benign circuit family,
/// at the sizes the paper's evaluation uses.
///
/// # Panics
///
/// Never — all parameters are valid by construction.
pub fn zoo() -> Vec<ZooEntry> {
    use crate::generators::{
        alu, array_multiplier, c17, carry_lookahead_adder, equality_comparator, kogge_stone_adder,
        parity_tree, ring_oscillator, ripple_carry_adder, tdc_delay_line, wallace_multiplier,
    };
    let c6288 = array_multiplier(16).expect("c6288 generator");
    let dual = Netlist::disjoint_union("dual_c6288", &[&c6288, &c6288]).expect("disjoint union");
    let entry = |name, malicious, netlist| ZooEntry {
        name,
        malicious,
        declared_clocks: &[],
        netlist,
    };
    vec![
        // Malicious by construction.
        entry("ring_oscillator", true, ring_oscillator(8).unwrap()),
        entry(
            "ring_oscillator_obfuscated",
            true,
            obfuscated_ring_oscillator(8).unwrap(),
        ),
        entry("ro_grid", true, ro_grid(400).unwrap()),
        entry("tdc_delay_line", true, tdc_delay_line(64).unwrap()),
        entry(
            "tdc_obfuscated",
            true,
            obfuscated_tdc_delay_line(48).unwrap(),
        ),
        entry("clock_as_data", true, clock_as_data(16).unwrap()),
        entry("tapped_carry_chain", true, tapped_carry_chain(64).unwrap()),
        ZooEntry {
            name: "carry_sensor",
            malicious: true,
            declared_clocks: &["sense"],
            netlist: carry_sensor(64, 4).unwrap(),
        },
        // Benign — the paper's sensors and ordinary logic families.
        entry("alu192", false, alu(192).unwrap()),
        entry("dual_c6288", false, dual),
        entry("c17", false, c17()),
        entry("rca64", false, ripple_carry_adder(64).unwrap()),
        entry("cla32", false, carry_lookahead_adder(32).unwrap()),
        entry("kogge_stone32", false, kogge_stone_adder(32).unwrap()),
        entry("wallace12", false, wallace_multiplier(12).unwrap()),
        entry("parity64", false, parity_tree(64).unwrap()),
        entry("comparator32", false, equality_comparator(32).unwrap()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obfuscated_tdc_is_functionally_identity() {
        let nl = obfuscated_tdc_delay_line(16).unwrap();
        assert_eq!(nl.outputs().len(), 16);
        assert!(nl.eval(&[true]).unwrap().iter().all(|&t| t));
        assert!(nl.eval(&[false]).unwrap().iter().all(|&t| !t));
        assert!(obfuscated_tdc_delay_line(0).is_err());
    }

    #[test]
    fn obfuscated_tdc_has_no_buf_not_chain_taps() {
        // The obfuscation invariant: no chain net is itself an output,
        // and no stage gate is a BUF/NOT — the structure the naive
        // delay-line matcher keys on is absent.
        let nl = obfuscated_tdc_delay_line(24).unwrap();
        for &(_, o) in nl.outputs() {
            assert_eq!(nl.kind(o), GateKind::Buf);
            let driver = nl.gate(o).fanin[0];
            assert!(matches!(nl.kind(driver), GateKind::And | GateKind::Or));
        }
    }

    #[test]
    fn obfuscated_ro_is_cyclic_with_odd_inversion() {
        let ro = obfuscated_ring_oscillator(8).unwrap();
        assert!(!ro.is_acyclic());
        let loops = crate::graph::combinational_loops(&ro);
        assert_eq!(loops.len(), 1);
        let inverting = loops[0]
            .iter()
            .filter(|&&id| ro.kind(id).is_inverting())
            .count();
        assert_eq!(inverting % 2, 1, "loop must oscillate");
        assert!(obfuscated_ring_oscillator(3).is_err());
    }

    #[test]
    fn ro_grid_is_many_small_loops() {
        let grid = ro_grid(50).unwrap();
        assert_eq!(grid.len(), 1 + 150);
        let loops = crate::graph::combinational_loops(&grid);
        assert_eq!(loops.len(), 50);
        assert!(loops.iter().all(|l| l.len() == 3));
        assert!(ro_grid(0).is_err());
    }

    #[test]
    fn clock_as_data_uses_clk_combinationally() {
        let nl = clock_as_data(8).unwrap();
        let clk = nl.find("clk").unwrap();
        let idx = crate::graph::FanoutIndex::build(&nl);
        assert_eq!(idx.degree(clk), 8);
        // functional sanity: q = d ^ clk
        let mut ins = vec![true];
        ins.extend([false; 8]);
        assert!(nl.eval(&ins).unwrap().iter().all(|&q| q));
    }

    #[test]
    fn tapped_carry_chain_is_a_real_adder() {
        let nl = tapped_carry_chain(8).unwrap();
        // s = a + b (mod 256); taps mirror the carries.
        let mut ins = vec![false; 16];
        ins[0] = true; // a = 1
        ins[8] = true; // b = 1
        let out = nl.eval(&ins).unwrap();
        let sum: u32 = out[..8]
            .iter()
            .enumerate()
            .map(|(i, &v)| u32::from(v) << i)
            .sum();
        assert_eq!(sum, 2);
        assert!(tapped_carry_chain(0).is_err());
    }

    #[test]
    fn carry_sensor_is_a_real_adder_with_sparse_taps() {
        let nl = carry_sensor(16, 4).unwrap();
        // 16 sums + 4 sparse carry taps.
        assert_eq!(nl.outputs().len(), 20);
        // With sense (carry-in) low: s = a + b (mod 2^16).
        let mut ins = vec![false; 33];
        ins[0] = true; // a = 1
        ins[16] = true; // b = 1
        let out = nl.eval(&ins).unwrap();
        let sum: u32 = out[..16]
            .iter()
            .enumerate()
            .map(|(i, &v)| u32::from(v) << i)
            .sum();
        assert_eq!(sum, 2);
        // With sense high: carry-in adds one.
        ins[32] = true;
        let out = nl.eval(&ins).unwrap();
        let sum: u32 = out[..16]
            .iter()
            .enumerate()
            .map(|(i, &v)| u32::from(v) << i)
            .sum();
        assert_eq!(sum, 3);
        assert!(carry_sensor(0, 4).is_err());
        assert!(carry_sensor(16, 0).is_err());
    }

    #[test]
    fn zoo_is_complete_and_well_formed() {
        let zoo = zoo();
        assert_eq!(zoo.iter().filter(|e| e.malicious).count(), 8);
        assert!(zoo.iter().filter(|e| !e.malicious).count() >= 9);
        let mut names: Vec<&str> = zoo.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), zoo.len(), "zoo names must be unique");
    }
}
