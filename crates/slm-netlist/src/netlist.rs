//! The [`Netlist`] container and functional simulation.

use crate::error::NetlistError;
use crate::gate::{Gate, GateKind, NetId};
use crate::graph::FanoutIndex;
use crate::hash::Xxh64;
use crate::layout::{Gates, Names};
use std::fmt::Write as _;
use std::ops::Range;

/// A combinational gate-level netlist.
///
/// Each gate drives exactly one net, identified by [`NetId`]. Primary
/// inputs are gates of kind [`GateKind::Input`]; primary outputs are a
/// named list of nets. Construct with [`crate::NetlistBuilder`], the
/// [`crate::bench`] parser, or one of the [`crate::generators`].
///
/// Gates live in flat arrays (one kind byte and one fanin offset per
/// net, one shared fanin array) and names only for named nets, so a
/// built netlist holds a fixed number of heap blocks plus one per
/// output name, not one per gate.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    gates: Gates,
    inputs: Vec<NetId>,
    outputs: Vec<(String, NetId)>,
    names: Names,
    /// Cached topological order, or the cycle that prevents one.
    topo: Topo,
}

/// A netlist's topological order, computed once at construction.
#[derive(Debug, Clone)]
enum Topo {
    /// Every fanin precedes its reader, so net order is topological
    /// and no order is stored.
    Forward,
    /// Kahn's level order of a netlist with forward references: every
    /// net, fanins before fanouts.
    Order(Vec<NetId>),
    /// The graph is cyclic; the net lies on or behind a cycle.
    Cycle(NetId),
}

/// A topological order of a netlist's nets: every net once, each after
/// all of its fanins. Returned by [`Netlist::topological_order`].
///
/// A netlist whose every fanin precedes its reader (each one the
/// builder and the generators make) is ordered by net index, which
/// costs nothing to store; one with forward references keeps Kahn's
/// level order. Consumers may rely only on the order being
/// topological, not on which one it is.
#[derive(Debug, Clone, Copy)]
pub struct TopoOrder<'a>(Order<'a>);

#[derive(Debug, Clone, Copy)]
enum Order<'a> {
    /// Nets `0..n` in index order.
    Forward(u32),
    Kahn(&'a [NetId]),
}

impl<'a> TopoOrder<'a> {
    /// The nets in order.
    pub fn iter(&self) -> TopoIter<'a> {
        TopoIter(match self.0 {
            Order::Forward(n) => Walk::Forward(0..n),
            Order::Kahn(order) => Walk::Kahn(order.iter()),
        })
    }
}

impl<'a> IntoIterator for TopoOrder<'a> {
    type Item = NetId;
    type IntoIter = TopoIter<'a>;

    fn into_iter(self) -> TopoIter<'a> {
        self.iter()
    }
}

/// The iterator of a [`TopoOrder`]; reversed, it lists every net
/// before its fanins.
#[derive(Debug, Clone)]
pub struct TopoIter<'a>(Walk<'a>);

#[derive(Debug, Clone)]
enum Walk<'a> {
    Forward(Range<u32>),
    Kahn(std::slice::Iter<'a, NetId>),
}

impl Iterator for TopoIter<'_> {
    type Item = NetId;

    #[inline]
    fn next(&mut self) -> Option<NetId> {
        match &mut self.0 {
            Walk::Forward(nets) => nets.next().map(NetId),
            Walk::Kahn(order) => order.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            Walk::Forward(nets) => nets.size_hint(),
            Walk::Kahn(order) => order.size_hint(),
        }
    }
}

impl DoubleEndedIterator for TopoIter<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<NetId> {
        match &mut self.0 {
            Walk::Forward(nets) => nets.next_back().map(NetId),
            Walk::Kahn(order) => order.next_back().copied(),
        }
    }
}

impl Netlist {
    /// Assembles a netlist from raw parts, computing the topological order.
    ///
    /// `gates` lists each gate's kind and fanins in net order; fanins
    /// may refer forward. `net_names` names nets by position and may be
    /// shorter than the gate list (the rest stay anonymous).
    ///
    /// Cyclic graphs are accepted (so structural checkers can inspect
    /// them), but simulation of a cyclic netlist returns
    /// [`NetlistError::CombinationalCycle`].
    ///
    /// # Errors
    ///
    /// [`NetlistError::BadArity`] or [`NetlistError::UnknownNet`] for
    /// the first bad gate, then [`NetlistError::UnknownNet`] for a bad
    /// output, then [`NetlistError::DuplicateName`].
    pub fn from_parts<F: AsRef<[NetId]>>(
        name: impl Into<String>,
        gates: impl IntoIterator<Item = (GateKind, F)>,
        inputs: Vec<NetId>,
        outputs: Vec<(String, NetId)>,
        net_names: Vec<Option<String>>,
    ) -> Result<Self, NetlistError> {
        let gates = gates.into_iter();
        let mut flat = Gates::with_capacity(gates.size_hint().0, 0);
        for (kind, fanin) in gates {
            flat.push(kind, fanin.as_ref().iter().copied());
        }
        let mut names = Names::default();
        for (i, nm) in net_names.iter().enumerate().take(flat.len()) {
            if let Some(nm) = nm {
                names.push(NetId(i as u32), nm);
            }
        }
        Netlist::assemble(name.into(), flat, inputs, outputs, names)
    }

    /// Checks the parts and takes them over as they are.
    pub(crate) fn assemble(
        name: String,
        gates: Gates,
        inputs: Vec<NetId>,
        outputs: Vec<(String, NetId)>,
        mut names: Names,
    ) -> Result<Self, NetlistError> {
        check_parts(&gates, &outputs)?;
        names.seal(gates.len())?;
        Ok(Netlist::from_sealed(name, gates, inputs, outputs, names))
    }

    /// Takes over parts that [`check_parts`] accepted, with names
    /// already sealed, and finds the topological order: net order when
    /// every fanin precedes its reader, else Kahn's.
    pub(crate) fn from_sealed(
        name: String,
        mut gates: Gates,
        inputs: Vec<NetId>,
        outputs: Vec<(String, NetId)>,
        names: Names,
    ) -> Self {
        gates.shrink_to_fit();
        let forward = gates
            .iter()
            .enumerate()
            .all(|(i, g)| g.fanin.iter().all(|f| f.index() < i));
        let topo = if forward {
            Topo::Forward
        } else {
            match compute_topological_order(&gates) {
                Ok(order) => Topo::Order(order),
                Err(witness) => Topo::Cycle(witness),
            }
        };
        Netlist {
            name,
            gates,
            inputs,
            outputs,
            names,
            topo,
        }
    }

    /// The netlist's name (for example `"c6288"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Views of all gates, in [`NetId::index`] order.
    pub fn gates(&self) -> impl ExactSizeIterator<Item = Gate<'_>> + '_ {
        self.gates.iter()
    }

    /// The gate driving `id`.
    #[inline]
    pub fn gate(&self, id: NetId) -> Gate<'_> {
        self.gates.get(id.index())
    }

    /// The kind of the gate driving `id`; cheaper than
    /// [`Netlist::gate`] when the fanins are not needed.
    #[inline]
    pub fn kind(&self, id: NetId) -> GateKind {
        self.gates.kind(id.index())
    }

    /// The positions of `id`'s fanin edges among all
    /// [`Netlist::edge_count`] edges: fanin `j` of `id` is edge
    /// `fanin_edges(id).start + j`. Per-edge side tables (delays,
    /// delayed values) index by these positions.
    #[inline]
    pub fn fanin_edges(&self, id: NetId) -> Range<usize> {
        self.gates.edges(id.index())
    }

    /// Number of fanin edges over all gates.
    pub fn edge_count(&self) -> usize {
        self.gates.edge_count()
    }

    /// Number of gates (equivalently, nets).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the netlist contains no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.len() == 0
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs as `(name, net)` pairs in declaration order.
    pub fn outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// The name attached to a net, if any.
    pub fn net_name(&self, id: NetId) -> Option<&str> {
        self.names.get(id)
    }

    /// Finds a net by name: a scan over every net, since a built
    /// netlist keeps no index by name.
    pub fn find(&self, name: &str) -> Option<NetId> {
        self.names.find(name)
    }

    /// Every named net with its name, in net order.
    pub(crate) fn named_nets(&self) -> impl Iterator<Item = (NetId, &str)> + '_ {
        self.names.iter()
    }

    /// The gate arrays, for analyses inside the crate.
    pub(crate) fn gate_arrays(&self) -> &Gates {
        &self.gates
    }

    /// Whether the gate graph is free of combinational cycles.
    pub fn is_acyclic(&self) -> bool {
        !matches!(self.topo, Topo::Cycle(_))
    }

    /// A topological order of all nets (fanins before fanouts); see
    /// [`TopoOrder`] for which one.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the graph is cyclic.
    pub fn topological_order(&self) -> Result<TopoOrder<'_>, NetlistError> {
        match self.topo {
            Topo::Forward => Ok(TopoOrder(Order::Forward(self.len() as u32))),
            Topo::Order(ref order) => Ok(TopoOrder(Order::Kahn(order))),
            Topo::Cycle(witness) => Err(NetlistError::CombinationalCycle { witness }),
        }
    }

    /// Evaluates all nets for one input pattern.
    ///
    /// `inputs` must match [`Netlist::inputs`] in length and order.
    ///
    /// # Errors
    ///
    /// [`NetlistError::InputCountMismatch`] or
    /// [`NetlistError::CombinationalCycle`].
    pub fn eval_all(&self, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
        if inputs.len() != self.inputs.len() {
            return Err(NetlistError::InputCountMismatch {
                expected: self.inputs.len(),
                got: inputs.len(),
            });
        }
        let order = self.topological_order()?;
        let mut values = vec![false; self.len()];
        for (&pi, &v) in self.inputs.iter().zip(inputs) {
            values[pi.index()] = v;
        }
        let mut fanin_buf: Vec<bool> = Vec::with_capacity(8);
        for id in order {
            let g = self.gate(id);
            if g.kind == GateKind::Input {
                continue;
            }
            fanin_buf.clear();
            fanin_buf.extend(g.fanin.iter().map(|f| values[f.index()]));
            values[id.index()] = g.kind.eval(&fanin_buf);
        }
        Ok(values)
    }

    /// Evaluates the primary outputs for one input pattern.
    pub fn eval(&self, inputs: &[bool]) -> Result<Vec<bool>, NetlistError> {
        let values = self.eval_all(inputs)?;
        Ok(self
            .outputs
            .iter()
            .map(|&(_, id)| values[id.index()])
            .collect())
    }

    /// Evaluates all nets for 64 patterns at once (bit `k` of each word is
    /// pattern `k`).
    fn eval_all_parallel(&self, inputs: &[u64]) -> Result<Vec<u64>, NetlistError> {
        if inputs.len() != self.inputs.len() {
            return Err(NetlistError::InputCountMismatch {
                expected: self.inputs.len(),
                got: inputs.len(),
            });
        }
        let order = self.topological_order()?;
        let mut values = vec![0u64; self.len()];
        for (&pi, &v) in self.inputs.iter().zip(inputs) {
            values[pi.index()] = v;
        }
        let mut fanin_buf: Vec<u64> = Vec::with_capacity(8);
        for id in order {
            let g = self.gate(id);
            if g.kind == GateKind::Input {
                continue;
            }
            fanin_buf.clear();
            fanin_buf.extend(g.fanin.iter().map(|f| values[f.index()]));
            values[id.index()] = g.kind.eval_word(&fanin_buf);
        }
        Ok(values)
    }

    /// Evaluates the primary outputs for 64 patterns at once.
    pub fn eval_parallel(&self, inputs: &[u64]) -> Result<Vec<u64>, NetlistError> {
        let values = self.eval_all_parallel(inputs)?;
        Ok(self
            .outputs
            .iter()
            .map(|&(_, id)| values[id.index()])
            .collect())
    }

    /// Places several netlists side by side in one netlist, with no
    /// shared nets: instance `i`'s signal `x` becomes `u{i}_x`, and its
    /// inputs/outputs are appended in instance order.
    ///
    /// This models independent circuit copies in one partial-bitstream
    /// region — e.g. the paper's "two parallel ISCAS-85 C6288 circuits".
    ///
    /// # Errors
    ///
    /// Propagates construction errors (none are expected for well-formed
    /// parts).
    pub fn disjoint_union(
        name: impl Into<String>,
        parts: &[&Netlist],
    ) -> Result<Netlist, NetlistError> {
        let nets = parts.iter().map(|p| p.len()).sum();
        let edges = parts.iter().map(|p| p.edge_count()).sum();
        let mut gates = Gates::with_capacity(nets, edges);
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        let mut names = Names::default();
        let mut prefixed = String::new();
        for (i, part) in parts.iter().enumerate() {
            let base = gates.len() as u32;
            for g in part.gates() {
                gates.push(g.kind, g.fanin.iter().map(|f| NetId(f.0 + base)));
            }
            for (id, n) in part.named_nets() {
                prefixed.clear();
                let _ = write!(prefixed, "u{i}_{n}");
                names.push(NetId(id.0 + base), &prefixed);
            }
            inputs.extend(part.inputs().iter().map(|&p| NetId(p.0 + base)));
            outputs.extend(
                part.outputs()
                    .iter()
                    .map(|(n, o)| (format!("u{i}_{n}"), NetId(o.0 + base))),
            );
        }
        Netlist::assemble(name.into(), gates, inputs, outputs, names)
    }

    /// A stable XXH64 fingerprint of the netlist's full content.
    ///
    /// Covers the name, every gate (kind and fanin list), the primary
    /// input/output declarations, and all net names — everything the
    /// checker passes can observe. Two netlists with equal hashes are
    /// treated as identical by the scan cache, so the hash must change
    /// whenever any analyzable detail changes.
    ///
    /// The hash is XXH64 (seed 0) over the flat arrays themselves, as
    /// length-prefixed sections in this order: the name, the kind
    /// bytes, the fanin offsets, the fanins, the inputs, the outputs (a
    /// count, then each name's length, net and text), the name text,
    /// the name ends and the per-net name slots. `u32` arrays are read
    /// a 32-byte stripe at a time, so hashing allocates nothing and
    /// runs at XXH64's own speed. It is a 64-bit unkeyed hash: it tells
    /// honest designs apart, but a tenant who controls two designs can
    /// search for a collision between them.
    pub fn content_hash(&self) -> u64 {
        let mut h = Xxh64::default();
        h.section(self.name.as_bytes());
        self.gates.hash(&mut h);
        h.section(&self.inputs);
        h.write(&[self.outputs.len() as u64]);
        for (name, net) in &self.outputs {
            h.write(&[name.len() as u64, u64::from(net.0)]);
            h.write(name.as_bytes());
        }
        h.pad();
        self.names.hash(&mut h);
        h.finish()
    }
}

/// Checks every gate's arity and fanins, then every output, against
/// a netlist of `gates.len()` nets.
///
/// # Errors
///
/// [`NetlistError::BadArity`] or [`NetlistError::UnknownNet`] for the
/// first bad gate, then [`NetlistError::UnknownNet`] for a bad output.
pub(crate) fn check_parts(gates: &Gates, outputs: &[(String, NetId)]) -> Result<(), NetlistError> {
    let n = gates.len();
    for g in gates.iter() {
        let (lo, hi) = g.kind.arity();
        if g.fanin.len() < lo || g.fanin.len() > hi {
            return Err(NetlistError::BadArity {
                kind: g.kind,
                got: g.fanin.len(),
            });
        }
        if let Some(&f) = g.fanin.iter().find(|f| f.index() >= n) {
            return Err(NetlistError::UnknownNet(f));
        }
    }
    if let Some(&(_, o)) = outputs.iter().find(|(_, o)| o.index() >= n) {
        return Err(NetlistError::UnknownNet(o));
    }
    Ok(())
}

/// Kahn's algorithm; on a cyclic graph, returns the lowest-indexed net
/// left with unresolved fanins, which lies on or behind a cycle.
fn compute_topological_order(gates: &Gates) -> Result<Vec<NetId>, NetId> {
    let n = gates.len();
    // Repeated fanins are counted repeatedly and decremented repeatedly
    // (the fanout index lists a reader once per fanin), which balances
    // out.
    let mut indegree: Vec<u32> = (0..n).map(|i| gates.edges(i).len() as u32).collect();
    let fanout = FanoutIndex::over(gates, |reader, _| reader);
    // The order doubles as the queue: nets are ordered as they leave it.
    let mut order: Vec<NetId> = Vec::with_capacity(n);
    order.extend(
        (0..n as u32)
            .map(NetId)
            .filter(|id| indegree[id.index()] == 0),
    );
    let mut head = 0;
    while let Some(&u) = order.get(head) {
        head += 1;
        for &v in fanout.fanouts(u) {
            indegree[v.index()] -= 1;
            if indegree[v.index()] == 0 {
                order.push(v);
            }
        }
    }
    // Every net left unordered still waits on a fanin.
    match indegree.iter().position(|&d| d > 0) {
        Some(i) => Err(NetId(i as u32)),
        None => Ok(order),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    fn xor_tree() -> Netlist {
        let mut b = NetlistBuilder::new("xt");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let x = b.gate(GateKind::Xor, &[a, c]);
        let y = b.gate(GateKind::Xor, &[x, d]);
        b.output("y", y);
        b.finish().unwrap()
    }

    #[test]
    fn eval_xor_tree() {
        let nl = xor_tree();
        for p in 0..8u32 {
            let ins = [(p & 1) != 0, (p & 2) != 0, (p & 4) != 0];
            let out = nl.eval(&ins).unwrap();
            assert_eq!(out[0], ins[0] ^ ins[1] ^ ins[2]);
        }
    }

    #[test]
    fn parallel_matches_scalar() {
        let nl = xor_tree();
        // Pack 8 exhaustive patterns into word bits 0..8.
        let mut ins = [0u64; 3];
        for p in 0..8u64 {
            for (i, w) in ins.iter_mut().enumerate() {
                if p & (1 << i) != 0 {
                    *w |= 1 << p;
                }
            }
        }
        let out = nl.eval_parallel(&ins).unwrap();
        for p in 0..8u64 {
            let scalar = nl
                .eval(&[(p & 1) != 0, (p & 2) != 0, (p & 4) != 0])
                .unwrap();
            assert_eq!((out[0] >> p) & 1 == 1, scalar[0], "pattern {p}");
        }
    }

    #[test]
    fn input_count_mismatch() {
        let nl = xor_tree();
        let err = nl.eval(&[true]).unwrap_err();
        assert!(matches!(
            err,
            NetlistError::InputCountMismatch {
                expected: 3,
                got: 1
            }
        ));
    }

    #[test]
    fn cyclic_netlist_detected() {
        // Build a 2-gate loop by hand: g0 = NAND(g1, g1); g1 = NAND(g0, g0)
        let gates = vec![
            (GateKind::Nand, vec![NetId(1), NetId(1)]),
            (GateKind::Nand, vec![NetId(0), NetId(0)]),
        ];
        let nl = Netlist::from_parts("loop", gates, vec![], vec![], vec![]).unwrap();
        assert!(!nl.is_acyclic());
        assert!(matches!(
            nl.topological_order().unwrap_err(),
            NetlistError::CombinationalCycle { .. }
        ));
        assert!(nl.eval(&[]).is_err());
    }

    /// A netlist whose fanins all come first is ordered by net index;
    /// one with a forward reference keeps Kahn's level order. Both
    /// iterate backwards too.
    #[test]
    fn forward_netlists_take_net_order_and_the_rest_kahns() {
        let nl = crate::generators::c17();
        let order: Vec<u32> = nl
            .topological_order()
            .unwrap()
            .iter()
            .map(|v| v.0)
            .collect();
        assert_eq!(order, (0..nl.len() as u32).collect::<Vec<_>>());
        let back: Vec<u32> = nl
            .topological_order()
            .unwrap()
            .iter()
            .rev()
            .map(|v| v.0)
            .collect();
        assert_eq!(back, (0..nl.len() as u32).rev().collect::<Vec<_>>());
        // n0 = NOT(n3), n1 = AND(n0, n2), n2 and n3 inputs: levels
        // {n2, n3}, {n0}, {n1}.
        let gates = vec![
            (GateKind::Not, vec![NetId(3)]),
            (GateKind::And, vec![NetId(0), NetId(2)]),
            (GateKind::Input, vec![]),
            (GateKind::Input, vec![]),
        ];
        let nl =
            Netlist::from_parts("fwd", gates, vec![NetId(2), NetId(3)], vec![], vec![]).unwrap();
        let order = nl.topological_order().unwrap();
        assert_eq!(order.iter().map(|v| v.0).collect::<Vec<_>>(), [2, 3, 0, 1]);
        assert_eq!(
            order.iter().rev().map(|v| v.0).collect::<Vec<_>>(),
            [1, 0, 3, 2]
        );
        assert_eq!(nl.eval(&[true, false]).unwrap(), Vec::<bool>::new());
        assert_eq!(
            nl.eval_all(&[true, false]).unwrap(),
            [true, true, true, false]
        );
    }

    /// The witness comes from the order computed at construction, so
    /// asking again neither recomputes nor panics, and a cloned netlist
    /// reports the same net.
    #[test]
    fn cycle_witness_is_kept_from_construction() {
        // a → g1 = AND(a, g2) → g2 = NOT(g1) → back into g1.
        let gates = vec![
            (GateKind::Input, vec![]),
            (GateKind::And, vec![NetId(0), NetId(2)]),
            (GateKind::Not, vec![NetId(1)]),
        ];
        let nl = Netlist::from_parts("loop", gates, vec![NetId(0)], vec![], vec![]).unwrap();
        let witness = |nl: &Netlist| match nl.topological_order() {
            Err(NetlistError::CombinationalCycle { witness }) => witness,
            other => panic!("expected a cycle, got {other:?}"),
        };
        assert_eq!(witness(&nl), NetId(1));
        assert_eq!(witness(&nl), witness(&nl.clone()));
        assert!(matches!(
            nl.eval(&[true]),
            Err(NetlistError::CombinationalCycle { witness }) if witness == NetId(1)
        ));
    }

    /// The witness is the lowest-indexed net still waiting on a fanin:
    /// nets feeding the cycle are ordered, and a net hanging off the
    /// cycle waits too but comes later.
    #[test]
    fn cycle_witness_is_the_first_unresolved_net() {
        let gates = vec![
            (GateKind::Input, vec![]),
            (GateKind::Not, vec![NetId(0)]),
            // Hangs off the cycle below, so it never resolves either.
            (GateKind::Buf, vec![NetId(4)]),
            (GateKind::Nand, vec![NetId(1), NetId(4)]),
            (GateKind::Nand, vec![NetId(3), NetId(1)]),
        ];
        let nl = Netlist::from_parts("tail", gates, vec![NetId(0)], vec![], vec![]).unwrap();
        assert!(!nl.is_acyclic());
        assert!(matches!(
            nl.topological_order(),
            Err(NetlistError::CombinationalCycle { witness }) if witness == NetId(2)
        ));
    }

    #[test]
    fn fanin_cone_and_fanouts() {
        let nl = xor_tree();
        let y = nl.outputs()[0].1;
        let readers_of = |net: NetId| -> Vec<usize> {
            (0..nl.len())
                .filter(|&i| nl.gate(NetId(i as u32)).fanin.contains(&net))
                .collect()
        };
        // Everything feeds y: in an acyclic netlist every net other than
        // the sole output has a reader, so its fanouts lead to y.
        for i in 0..nl.len() {
            let net = NetId(i as u32);
            assert_eq!(readers_of(net).is_empty(), net == y, "net {i}");
        }
        // Input `a` feeds only the first XOR.
        assert_eq!(readers_of(nl.inputs()[0]), [3]);
    }

    /// Fanin edges of consecutive gates tile one shared array: gate
    /// `i`'s edges start where gate `i - 1`'s end, one per fanin.
    #[test]
    fn fanin_edges_tile_the_edge_array() {
        let nl = crate::generators::c17();
        let mut next = 0;
        for (i, g) in nl.gates().enumerate() {
            let edges = nl.fanin_edges(NetId(i as u32));
            assert_eq!(edges.start, next);
            assert_eq!(edges.len(), g.fanin.len());
            next = edges.end;
        }
        assert_eq!(next, nl.edge_count());
        assert_eq!(nl.edge_count(), 12, "six 2-input NANDs");
    }

    #[test]
    fn disjoint_union_two_instances() {
        let a = crate::generators::ripple_carry_adder(4).unwrap();
        let both = Netlist::disjoint_union("dual", &[&a, &a]).unwrap();
        assert_eq!(both.inputs().len(), 16);
        assert_eq!(both.outputs().len(), 10);
        assert_eq!(both.len(), 2 * a.len());
        assert!(both.find("u0_a[0]").is_some());
        assert!(both.find("u1_a[0]").is_some());
        // instance 0 adds 3+2, instance 1 adds 7+8
        let mut ins = crate::words::to_bits(3, 4);
        ins.extend(crate::words::to_bits(2, 4));
        ins.extend(crate::words::to_bits(7, 4));
        ins.extend(crate::words::to_bits(8, 4));
        let out = both.eval(&ins).unwrap();
        assert_eq!(crate::words::from_bits(&out[..4]), 5);
        assert_eq!(crate::words::from_bits(&out[5..9]), 15);
    }

    #[test]
    fn duplicate_names_rejected() {
        let gates = vec![(GateKind::Input, vec![]), (GateKind::Input, vec![])];
        let err = Netlist::from_parts(
            "dup",
            gates,
            vec![NetId(0), NetId(1)],
            vec![],
            vec![Some("x".into()), Some("x".into())],
        )
        .unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateName(_)));
    }

    /// The parts of a small netlist for [`content_hash_tracks_observable_changes`]:
    /// inputs `a..d`, `x = AND(a, b, c)`, an anonymous `OR(d, x)`, and
    /// output `y` on the OR.
    struct Parts {
        name: &'static str,
        gates: Vec<(GateKind, Vec<NetId>)>,
        inputs: Vec<NetId>,
        outputs: Vec<(String, NetId)>,
        names: Vec<Option<String>>,
    }

    impl Parts {
        fn base() -> Self {
            let n = NetId;
            Parts {
                name: "p",
                gates: vec![
                    (GateKind::Input, vec![]),
                    (GateKind::Input, vec![]),
                    (GateKind::Input, vec![]),
                    (GateKind::Input, vec![]),
                    (GateKind::And, vec![n(0), n(1), n(2)]),
                    (GateKind::Or, vec![n(3), n(4)]),
                ],
                inputs: (0..4).map(n).collect(),
                outputs: vec![("y".into(), n(5))],
                names: ["a", "b", "c", "d", "x"]
                    .iter()
                    .map(|s| Some(s.to_string()))
                    .collect(),
            }
        }

        fn hash(self) -> u64 {
            Netlist::from_parts(self.name, self.gates, self.inputs, self.outputs, self.names)
                .unwrap()
                .content_hash()
        }
    }

    /// A named single edit of [`Parts::base`].
    type Edit = (&'static str, fn(&mut Parts));

    #[test]
    fn content_hash_tracks_observable_changes() {
        let base = Parts::base().hash();

        // Equal content, different construction paths.
        let mut b = NetlistBuilder::new("p");
        let ins: Vec<NetId> = ["a", "b", "c", "d"].iter().map(|n| b.input(n)).collect();
        let x = b.named_gate("x", GateKind::And, &ins[..3]);
        let y = b.gate(GateKind::Or, &[ins[3], x]);
        b.output("y", y);
        assert_eq!(b.finish().unwrap().content_hash(), base, "builder");
        assert_eq!(xor_tree().content_hash(), xor_tree().content_hash());
        let round_trip =
            |nl: &Netlist| crate::bench::parse(&crate::bench::write(nl), "rt").unwrap();
        for nl in [xor_tree(), crate::generators::c17()] {
            let once = round_trip(&nl);
            let twice = round_trip(&once);
            assert_eq!(once.content_hash(), twice.content_hash(), "{}", nl.name());
        }

        // Every single edit moves the hash.
        let edits: [Edit; 13] = [
            ("netlist name", |p| p.name = "q"),
            ("gate kind", |p| p.gates[4].0 = GateKind::Nand),
            ("one fanin", |p| p.gates[4].1[2] = NetId(3)),
            ("fanin across a gate boundary", |p| {
                // AND(a, b, c), OR(d, x) -> AND(a, b), OR(c, d, x): the
                // same fanin array under different offsets.
                p.gates[4].1.pop();
                p.gates[5].1.insert(0, NetId(2));
            }),
            ("input order", |p| p.inputs.swap(0, 1)),
            ("output name", |p| p.outputs[0].0 = "z".into()),
            ("output net", |p| p.outputs[0].1 = NetId(4)),
            ("naming a net", |p| p.names.push(Some("o".into()))),
            ("renaming a net", |p| p.names[4] = Some("w".into())),
            ("un-naming a net", |p| p.names[4] = None),
            ("moving a name to another net", |p| {
                p.names[4] = None;
                p.names.push(Some("x".into()));
            }),
            ("swapping two names", |p| p.names.swap(0, 1)),
            ("moving a letter between names", |p| {
                // Names "a", "b" -> "ab", "": the same name text under
                // different ends.
                p.names[0] = Some("ab".into());
                p.names[1] = Some(String::new());
            }),
        ];
        for (what, edit) in edits {
            let mut p = Parts::base();
            edit(&mut p);
            assert_ne!(p.hash(), base, "{what}");
        }
    }

    #[test]
    fn bad_fanin_reference_rejected() {
        let gates = vec![(GateKind::Not, vec![NetId(5)])];
        assert!(matches!(
            Netlist::from_parts("bad", gates, vec![], vec![], vec![]),
            Err(NetlistError::UnknownNet(NetId(5)))
        ));
    }
}
