//! ISCAS-85 `.bench` format reader and writer.
//!
//! The `.bench` dialect accepted here is the common one used by the
//! ISCAS-85/89 benchmark distributions:
//!
//! ```text
//! # comment
//! INPUT(G1)
//! OUTPUT(G3)
//! G3 = NAND(G1, G2)
//! ```
//!
//! Definitions may appear in any order (forward references are resolved);
//! `DFF` cells are not supported because the misuse model in this
//! reproduction treats registers as sampling boundaries outside the
//! combinational netlist.

use crate::error::NetlistError;
use crate::gate::{GateKind, NetId};
use crate::layout::{Gates, Names};
use crate::netlist::{check_parts, Netlist};
use std::fmt::Write as _;
use std::ops::Range;

/// Gate keywords, matched ignoring ASCII case.
const KEYWORDS: [(&str, GateKind); 12] = [
    ("AND", GateKind::And),
    ("NAND", GateKind::Nand),
    ("OR", GateKind::Or),
    ("NOR", GateKind::Nor),
    ("XOR", GateKind::Xor),
    ("XNOR", GateKind::Xnor),
    ("NOT", GateKind::Not),
    ("INV", GateKind::Not),
    ("BUFF", GateKind::Buf),
    ("BUF", GateKind::Buf),
    ("CONST0", GateKind::Const0),
    ("CONST1", GateKind::Const1),
];

fn kind_from_keyword(kw: &str) -> Option<GateKind> {
    KEYWORDS
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(kw))
        .map(|&(_, kind)| kind)
}

/// Parses `.bench` source text into a [`Netlist`].
///
/// # Errors
///
/// [`NetlistError::BenchSyntax`] for malformed lines,
/// [`NetlistError::UndrivenOutput`] / [`NetlistError::UnknownName`] for
/// dangling references, plus the usual construction errors.
///
/// # Example
///
/// ```
/// let src = "
/// INPUT(a)
/// INPUT(b)
/// OUTPUT(y)
/// y = NAND(a, b)
/// ";
/// let nl = slm_netlist::bench::parse(src, "nand2").unwrap();
/// assert_eq!(nl.eval(&[true, true]).unwrap(), vec![false]);
/// ```
pub fn parse(src: &str, name: &str) -> Result<Netlist, NetlistError> {
    /// A gate definition; its fanin names are `fanin_names[fanins]`.
    struct Def<'a> {
        lhs: &'a str,
        kind: GateKind,
        fanins: Range<usize>,
        line: usize,
    }
    let mut inputs: Vec<&str> = Vec::new();
    let mut outputs: Vec<&str> = Vec::new();
    let mut defs: Vec<Def> = Vec::new();
    let mut fanin_names: Vec<&str> = Vec::new();

    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let err = |message: String| NetlistError::BenchSyntax { line, message };
        let is_input = starts_with_ignore_case(text, "INPUT");
        if is_input || starts_with_ignore_case(text, "OUTPUT") {
            let open = text.find('(').ok_or_else(|| err("missing `(`".into()))?;
            let close = text.rfind(')').ok_or_else(|| err("missing `)`".into()))?;
            if close <= open {
                return Err(err("mismatched parentheses".into()));
            }
            let sig = text[open + 1..close].trim();
            if sig.is_empty() {
                return Err(err("empty signal name".into()));
            }
            if is_input {
                inputs.push(sig);
            } else {
                outputs.push(sig);
            }
            continue;
        }
        // name = KIND(a, b, ...)
        let eq = text
            .find('=')
            .ok_or_else(|| err("expected `=` definition".into()))?;
        let lhs = text[..eq].trim();
        let rhs = text[eq + 1..].trim();
        if lhs.is_empty() {
            return Err(err("empty left-hand side".into()));
        }
        let open = rhs.find('(').ok_or_else(|| err("missing `(`".into()))?;
        let close = rhs.rfind(')').ok_or_else(|| err("missing `)`".into()))?;
        if close <= open {
            return Err(err("mismatched parentheses".into()));
        }
        let kw = rhs[..open].trim();
        if kw.eq_ignore_ascii_case("DFF") {
            return Err(err("DFF cells are not supported".into()));
        }
        let kind = kind_from_keyword(kw).ok_or_else(|| err(format!("unknown gate `{kw}`")))?;
        let first = fanin_names.len();
        fanin_names.extend(
            rhs[open + 1..close]
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty()),
        );
        defs.push(Def {
            lhs,
            kind,
            fanins: first..fanin_names.len(),
            line,
        });
    }

    // Assign net ids: inputs first, then definitions in file order.
    let mut gates = Gates::with_capacity(inputs.len() + defs.len(), fanin_names.len());
    let mut names = Names::default();
    for sig in &inputs {
        let id = gates.push(GateKind::Input, []);
        names.push(id, sig);
    }
    for def in &defs {
        // Fanins are placeholders until every name is known.
        let id = gates.push(
            def.kind,
            fanin_names[def.fanins.clone()].iter().map(|_| NetId(0)),
        );
        names.push(id, def.lhs);
    }
    let index = names.seal(gates.len())?;
    // Resolve fanins now that every name is known.
    let base = inputs.len();
    for (i, def) in defs.iter().enumerate() {
        let fanin = gates.fanin_mut(base + i);
        for (slot, fname) in fanin.iter_mut().zip(&fanin_names[def.fanins.clone()]) {
            *slot = index.find(fname).ok_or_else(|| NetlistError::BenchSyntax {
                line: def.line,
                message: format!("undefined signal `{fname}`"),
            })?;
        }
    }
    let mut output_pairs = Vec::with_capacity(outputs.len());
    for sig in outputs {
        let id = index
            .find(sig)
            .ok_or_else(|| NetlistError::UndrivenOutput(sig.to_string()))?;
        output_pairs.push((sig.to_string(), id));
    }
    check_parts(&gates, &output_pairs)?;
    let input_ids = (0..inputs.len() as u32).map(NetId).collect();
    Ok(Netlist::from_sealed(
        name.to_string(),
        gates,
        input_ids,
        output_pairs,
        names,
    ))
}

/// Whether `text` starts with `prefix`, ignoring ASCII case.
fn starts_with_ignore_case(text: &str, prefix: &str) -> bool {
    text.get(..prefix.len())
        .is_some_and(|head| head.eq_ignore_ascii_case(prefix))
}

/// Serializes a netlist to `.bench` text.
///
/// Anonymous nets receive synthetic `n<i>` names. The output parses back
/// into a functionally identical netlist (see the round-trip tests).
pub fn write(nl: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", nl.name());
    let _ = writeln!(
        out,
        "# {} gates, {} inputs, {} outputs",
        nl.len(),
        nl.inputs().len(),
        nl.outputs().len()
    );
    let sig = |id: NetId| -> String {
        nl.net_name(id)
            .map(str::to_string)
            .unwrap_or_else(|| format!("n{}", id.0))
    };
    for &pi in nl.inputs() {
        let _ = writeln!(out, "INPUT({})", sig(pi));
    }
    for (name, _) in nl.outputs() {
        let _ = writeln!(out, "OUTPUT({name})");
    }
    // Output nets may carry output names distinct from their net names;
    // emit BUFF aliases where needed.
    let mut aliases = Vec::new();
    for (oname, onet) in nl.outputs() {
        if sig(*onet) != *oname {
            aliases.push((oname.clone(), *onet));
        }
    }
    for (i, g) in nl.gates().enumerate() {
        // Only primary inputs lack a keyword; the INPUT lines declare them.
        let Some(kw) = g.kind.bench_name() else {
            continue;
        };
        let args: Vec<String> = g.fanin.iter().map(|&f| sig(f)).collect();
        let _ = writeln!(
            out,
            "{} = {}({})",
            sig(NetId(i as u32)),
            kw,
            args.join(", ")
        );
    }
    for (oname, onet) in aliases {
        let _ = writeln!(out, "{oname} = BUFF({})", sig(onet));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    const C17: &str = "
# c17 — smallest ISCAS-85 benchmark
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

    #[test]
    fn parse_c17() {
        let nl = parse(C17, "c17").unwrap();
        assert_eq!(nl.inputs().len(), 5);
        assert_eq!(nl.outputs().len(), 2);
        assert_eq!(nl.len(), 5 + 6);
        // exhaustive check against reference equations
        for p in 0..32u32 {
            let bits: Vec<bool> = (0..5).map(|i| (p >> i) & 1 == 1).collect();
            let (i1, i2, i3, i6, i7) = (bits[0], bits[1], bits[2], bits[3], bits[4]);
            let g10 = !(i1 & i3);
            let g11 = !(i3 & i6);
            let g16 = !(i2 & g11);
            let g19 = !(g11 & i7);
            let g22 = !(g10 & g16);
            let g23 = !(g16 & g19);
            assert_eq!(nl.eval(&bits).unwrap(), vec![g22, g23], "pattern {p}");
        }
    }

    #[test]
    fn forward_references_resolve() {
        let src = "
INPUT(a)
OUTPUT(y)
y = NOT(t)
t = BUFF(a)
";
        let nl = parse(src, "fwd").unwrap();
        assert_eq!(nl.eval(&[true]).unwrap(), vec![false]);
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let src = "INPUT(a)\nz = FROB(a)\n";
        match parse(src, "bad") {
            Err(NetlistError::BenchSyntax { line: 2, message }) => {
                assert!(message.contains("FROB"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn undefined_fanin_rejected() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
        assert!(matches!(
            parse(src, "bad"),
            Err(NetlistError::BenchSyntax { line: 3, .. })
        ));
    }

    #[test]
    fn undriven_output_rejected() {
        let src = "INPUT(a)\nOUTPUT(y)\n";
        assert!(matches!(
            parse(src, "bad"),
            Err(NetlistError::UndrivenOutput(_))
        ));
    }

    #[test]
    fn dff_rejected() {
        let src = "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n";
        assert!(parse(src, "seq").is_err());
    }

    #[test]
    fn roundtrip_c17() {
        let nl = parse(C17, "c17").unwrap();
        let text = write(&nl);
        let nl2 = parse(&text, "c17rt").unwrap();
        assert_eq!(nl2.inputs().len(), nl.inputs().len());
        for p in 0..32u32 {
            let bits: Vec<bool> = (0..5).map(|i| (p >> i) & 1 == 1).collect();
            assert_eq!(nl.eval(&bits).unwrap(), nl2.eval(&bits).unwrap());
        }
    }

    #[test]
    fn roundtrip_generated_adder() {
        let nl = generators::ripple_carry_adder(8).unwrap();
        let nl2 = parse(&write(&nl), "rt").unwrap();
        for (a, b) in [(0u128, 0u128), (255, 1), (170, 85), (200, 100)] {
            let mut ins = crate::words::to_bits(a, 8);
            ins.extend(crate::words::to_bits(b, 8));
            assert_eq!(nl.eval(&ins).unwrap(), nl2.eval(&ins).unwrap());
        }
    }

    /// The writer finds each gate's keyword without a panic path: input
    /// gates are skipped wherever they sit in the gate list, every other
    /// kind (constants included) is written, and the text parses back.
    #[test]
    fn writer_skips_inputs_anywhere_in_the_gate_list() {
        let gates = vec![
            (GateKind::Input, vec![]),
            (GateKind::Not, vec![NetId(0)]),
            (GateKind::Input, vec![]),
            (GateKind::Xor, vec![NetId(1), NetId(2)]),
            (GateKind::Const1, vec![]),
            (GateKind::And, vec![NetId(3), NetId(4)]),
        ];
        let outputs = vec![("y".to_string(), NetId(5))];
        let nl =
            Netlist::from_parts("mixed", gates, vec![NetId(0), NetId(2)], outputs, vec![]).unwrap();
        let text = write(&nl);
        assert_eq!(text.matches("INPUT(").count(), 2);
        // NOT, XOR, CONST1, AND, and the `y` output alias.
        assert_eq!(text.lines().filter(|l| l.contains(" = ")).count(), 5);
        let nl2 = parse(&text, "mixed-rt").unwrap();
        for p in 0..4u32 {
            let bits = [p & 1 == 1, p & 2 == 2];
            assert_eq!(nl.eval(&bits).unwrap(), nl2.eval(&bits).unwrap());
        }
    }
}
