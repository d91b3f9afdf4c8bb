//! Property-based tests for the netlist substrate.

use proptest::prelude::*;
use slm_netlist::generators::{
    alu, array_multiplier, equality_comparator, parity_tree, ripple_carry_adder, AluOp,
};
use slm_netlist::graph::{collapsed_drivers, combinational_loops};
use slm_netlist::{bench, words, GateKind, NetId, Netlist, NetlistBuilder, NetlistError};

/// The loop finder as it stood before the acyclic shortcut: a full
/// iterative Tarjan pass, then a filter keeping components of two or
/// more nets and self-listing gates. Kept verbatim as the oracle for
/// [`combinational_loops`].
fn reference_loops(nl: &Netlist) -> Vec<Vec<NetId>> {
    let n = nl.len();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs: Vec<Vec<NetId>> = Vec::new();
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            if *pos == 0 {
                index[v as usize] = next_index;
                lowlink[v as usize] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v as usize] = true;
            }
            let fanin = &nl.gate(NetId(v)).fanin;
            if let Some(&w) = fanin.get(*pos) {
                *pos += 1;
                let w = w.0;
                if index[w as usize] == UNVISITED {
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack holds the component");
                        on_stack[w as usize] = false;
                        comp.push(NetId(w));
                        if w == v {
                            break;
                        }
                    }
                    comp.sort();
                    sccs.push(comp);
                }
            }
        }
    }
    let mut loops: Vec<Vec<NetId>> = sccs
        .into_iter()
        .filter(|comp| {
            comp.len() > 1 || {
                let id = comp[0];
                nl.gate(id).fanin.contains(&id)
            }
        })
        .collect();
    loops.sort_by_key(|comp| comp[0]);
    loops
}

/// The buffer-collapse map as it stood before the on-path mark, kept
/// verbatim as the oracle for [`collapsed_drivers`].
fn reference_collapse(nl: &Netlist) -> Vec<NetId> {
    let n = nl.len();
    let mut root: Vec<Option<NetId>> = vec![None; n];
    for start in 0..n {
        if root[start].is_some() {
            continue;
        }
        let mut path = Vec::new();
        let mut cur = NetId(start as u32);
        let resolved = loop {
            if let Some(r) = root[cur.index()] {
                break r;
            }
            let g = nl.gate(cur);
            if g.kind != GateKind::Buf {
                break cur;
            }
            if path.contains(&cur) {
                break cur;
            }
            path.push(cur);
            cur = g.fanin[0];
        };
        for p in path {
            root[p.index()] = Some(resolved);
        }
        root[start].get_or_insert(resolved);
    }
    root.into_iter()
        .map(|r| r.expect("every net resolved"))
        .collect()
}

/// A random gate graph in arbitrary gate order: `n` gates placed along
/// a random permutation, each reading earlier-placed nets except that
/// a fanin becomes a back edge (any net, itself included) with
/// probability `back_pct` percent. On top come `rings` pure-buffer
/// cycles and `self_loops` gates that list themselves as a fanin.
fn random_graph(seed: u64, n: usize, back_pct: u64, rings: usize, self_loops: usize) -> Netlist {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    const KINDS: [GateKind; 8] = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];
    let mut gates = vec![(GateKind::Input, vec![]); n];
    let mut inputs = Vec::new();
    for (p, &id) in perm.iter().enumerate() {
        if p < 2 {
            inputs.push(NetId(id as u32));
            continue;
        }
        let kind = KINDS[(next() % KINDS.len() as u64) as usize];
        let arity = if kind.arity().1 == 1 {
            1
        } else {
            2 + (next() % 2) as usize
        };
        let fanin = (0..arity)
            .map(|_| {
                let src = if next() % 100 < back_pct {
                    (next() % n as u64) as usize
                } else {
                    perm[(next() % p as u64) as usize]
                };
                NetId(src as u32)
            })
            .collect();
        gates[id] = (kind, fanin);
    }
    let gate_ids: Vec<usize> = perm[2.min(n)..].to_vec();
    if gate_ids.len() >= 2 {
        for _ in 0..rings {
            let len = 1 + (next() % 4) as usize;
            let members: Vec<usize> = (0..len)
                .map(|_| gate_ids[(next() % gate_ids.len() as u64) as usize])
                .collect();
            for (j, &m) in members.iter().enumerate() {
                let to = members[(j + 1) % len];
                gates[m] = (GateKind::Buf, vec![NetId(to as u32)]);
            }
        }
        for _ in 0..self_loops {
            let m = gate_ids[(next() % gate_ids.len() as u64) as usize];
            gates[m].1[0] = NetId(m as u32);
        }
    }
    let outputs = (0..n.min(3))
        .map(|k| (format!("y{k}"), NetId((next() % n as u64) as u32)))
        .collect();
    Netlist::from_parts("random", gates, inputs, outputs, vec![]).unwrap()
}

fn eval_int(nl: &Netlist, ins: &[bool]) -> u128 {
    words::from_bits(&nl.eval(ins).unwrap())
}

proptest! {
    #[test]
    fn adder_computes_sum(a in any::<u64>(), b in any::<u64>()) {
        let n = 64;
        let nl = ripple_carry_adder(n).unwrap();
        let mut ins = words::to_bits(a as u128, n);
        ins.extend(words::to_bits(b as u128, n));
        let out = nl.eval(&ins).unwrap();
        let sum = words::from_bits(&out[..n]);
        let cout = out[n];
        prop_assert_eq!(sum, (a as u128 + b as u128) & (u64::MAX as u128));
        prop_assert_eq!(cout, (a as u128 + b as u128) > u64::MAX as u128);
    }

    #[test]
    fn multiplier_computes_product(a in any::<u16>(), b in any::<u16>()) {
        let nl = array_multiplier(16).unwrap();
        let mut ins = words::to_bits(a as u128, 16);
        ins.extend(words::to_bits(b as u128, 16));
        prop_assert_eq!(eval_int(&nl, &ins), a as u128 * b as u128);
    }

    #[test]
    fn alu_matches_reference(a in any::<u32>(), b in any::<u32>(), op_idx in 0usize..8) {
        let width = 32;
        let op = AluOp::ALL[op_idx];
        let nl = alu(width).unwrap();
        let mut ins = words::to_bits(a as u128, width);
        ins.extend(words::to_bits(b as u128, width));
        ins.extend(op.opcode_bits());
        let out = nl.eval(&ins).unwrap();
        prop_assert_eq!(
            words::from_bits(&out[..width]),
            op.reference(a as u128, b as u128, width)
        );
    }

    #[test]
    fn comparator_equality(a in any::<u16>(), b in any::<u16>()) {
        let nl = equality_comparator(16).unwrap();
        let mut ins = words::to_bits(a as u128, 16);
        ins.extend(words::to_bits(b as u128, 16));
        prop_assert_eq!(nl.eval(&ins).unwrap()[0], a == b);
    }

    #[test]
    fn parity_counts_ones(v in any::<u32>(), n in 1usize..32) {
        let nl = parity_tree(n).unwrap();
        let ins = words::to_bits(v as u128, n);
        let expect = ins.iter().filter(|&&b| b).count() % 2 == 1;
        prop_assert_eq!(nl.eval(&ins).unwrap()[0], expect);
    }

    #[test]
    fn parallel_eval_agrees_with_scalar(a in any::<u16>(), b in any::<u16>()) {
        let nl = array_multiplier(8).unwrap();
        let (a, b) = (a as u128 & 0xff, b as u128 & 0xff);
        // put the pattern in bit 17 of each word, garbage elsewhere
        let mut ins = Vec::new();
        for bit in words::to_bits(a, 8).into_iter().chain(words::to_bits(b, 8)) {
            ins.push(if bit { 1u64 << 17 } else { 0 } | 0xdead_0000_0000_0000);
        }
        let par = nl.eval_parallel(&ins).unwrap();
        let mut sins = words::to_bits(a, 8);
        sins.extend(words::to_bits(b, 8));
        let scal = nl.eval(&sins).unwrap();
        for (w, s) in par.iter().zip(&scal) {
            prop_assert_eq!((w >> 17) & 1 == 1, *s);
        }
    }

    #[test]
    fn bench_roundtrip_preserves_function(a in any::<u8>(), b in any::<u8>()) {
        let nl = ripple_carry_adder(8).unwrap();
        let nl2 = bench::parse(&bench::write(&nl), "rt").unwrap();
        let mut ins = words::to_bits(a as u128, 8);
        ins.extend(words::to_bits(b as u128, 8));
        prop_assert_eq!(nl.eval(&ins).unwrap(), nl2.eval(&ins).unwrap());
    }

    #[test]
    fn topological_order_is_valid(seed in any::<u64>()) {
        // Build a random DAG via the builder (acyclic by construction) and
        // verify the computed order puts fanins first.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut bld = NetlistBuilder::new("rand");
        let mut nets = vec![bld.input("a"), bld.input("b"), bld.input("c")];
        for _ in 0..50 {
            let x = nets[(next() as usize) % nets.len()];
            let y = nets[(next() as usize) % nets.len()];
            let kind = [GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Nand][(next() as usize) % 4];
            nets.push(bld.gate(kind, &[x, y]));
        }
        let last = *nets.last().unwrap();
        bld.output("y", last);
        let nl = bld.finish().unwrap();
        let order = nl.topological_order().unwrap();
        let mut pos = vec![0usize; nl.len()];
        for (i, id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        for (gi, g) in nl.gates().enumerate() {
            for f in g.fanin {
                prop_assert!(pos[f.index()] < pos[gi]);
            }
        }
    }

    /// The .bench parser must reject garbage gracefully — errors, never
    /// panics — whatever bytes arrive.
    #[test]
    fn bench_parser_never_panics(src in ".{0,400}") {
        let _ = bench::parse(&src, "fuzz");
    }

    /// Structured-ish garbage: random keyword soup still never panics.
    #[test]
    fn bench_parser_survives_keyword_soup(parts in proptest::collection::vec(
        proptest::sample::select(vec![
            "INPUT(a)", "OUTPUT(y)", "y = AND(a, a)", "= NAND(", "x = ",
            "INPUT()", "OUTPUT", "y = FROB(a)", "a = NOT(a)", "(((", "# c",
        ]), 0..20))
    {
        let src = parts.join("\n");
        let _ = bench::parse(&src, "soup");
    }

    #[test]
    fn depth_bounded_by_gate_count(n in 2usize..10) {
        let nl = array_multiplier(n).unwrap();
        let stats = nl.stats().unwrap();
        prop_assert!(stats.depth < stats.gates);
        prop_assert!(stats.depth >= 2 * n - 2);
    }
}

/// Duplicate-name detection as it stood with a sorted name index: the
/// named nets sorted by name (ties by net), and the first repeat, in
/// net order, is the lowest later net of two adjacent equal names.
/// Kept as the oracle for the hash-indexed seal.
fn reference_seal(names: &[Option<String>]) -> Result<(), NetlistError> {
    let mut by_name: Vec<(&str, usize)> = names
        .iter()
        .enumerate()
        .filter_map(|(i, n)| Some((n.as_deref()?, i)))
        .collect();
    by_name.sort_unstable();
    match by_name
        .windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .map(|w| w[1].1)
        .min()
    {
        Some(i) => Err(NetlistError::DuplicateName(names[i].clone().unwrap())),
        None => Ok(()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The loop finder returns exactly what a full Tarjan pass plus the
    /// loop filter returns, on acyclic and cyclic graphs in any gate
    /// order: back edges, self-loops, pure-buffer rings and disjoint
    /// loops.
    #[test]
    fn loop_finder_matches_full_tarjan(
        seed in any::<u64>(),
        n in 1usize..120,
        back_pct in proptest::sample::select(vec![0u64, 0, 2, 5, 15, 40]),
        rings in 0usize..3,
        self_loops in 0usize..3,
    ) {
        let nl = random_graph(seed, n, back_pct, rings, self_loops);
        let loops = combinational_loops(&nl);
        prop_assert_eq!(loops.is_empty(), nl.is_acyclic());
        prop_assert_eq!(loops, reference_loops(&nl));
    }

    /// Buffer collapse resolves every net as the path-scanning walk
    /// did, pure-buffer cycles included.
    #[test]
    fn buffer_collapse_matches_path_scan(
        seed in any::<u64>(),
        n in 1usize..120,
        back_pct in proptest::sample::select(vec![0u64, 5, 40]),
        rings in 0usize..4,
    ) {
        let nl = random_graph(seed, n, back_pct, rings, 0);
        prop_assert_eq!(collapsed_drivers(&nl), reference_collapse(&nl));
    }

    /// Sealing a name store gives what the sorting reference gives: the
    /// same first duplicate, or else every named net found by its
    /// name. Names repeat, are empty, or share a long prefix.
    #[test]
    fn seal_matches_a_sorting_reference(
        picks in proptest::collection::vec(any::<u32>(), 0..64),
        spread in proptest::sample::select(vec![2u32, 16, 256, 1 << 20]),
    ) {
        const PREFIXES: [&str; 3] = ["", "u0_carry_chain_tap_", "u0_carry_chain_tap_x"];
        let names: Vec<Option<String>> = picks
            .iter()
            .map(|&p| match p % 64 {
                0..=7 => None,
                8 => Some(String::new()),
                _ => Some(format!("{}{}", PREFIXES[(p >> 6) as usize % 3], (p >> 8) % spread)),
            })
            .collect();
        let gates = vec![(GateKind::Const0, []); names.len()];
        let built = Netlist::from_parts("names", gates, vec![], vec![], names.clone());
        match reference_seal(&names) {
            Err(dup) => prop_assert_eq!(built.unwrap_err(), dup),
            Ok(()) => {
                let nl = built.unwrap();
                for (i, name) in names.iter().enumerate() {
                    let id = NetId(i as u32);
                    prop_assert_eq!(nl.net_name(id), name.as_deref());
                    if let Some(name) = name {
                        prop_assert_eq!(nl.find(name), Some(id));
                    }
                }
            }
        }
    }
}
