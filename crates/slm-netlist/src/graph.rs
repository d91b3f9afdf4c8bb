//! Graph analyses over the gate network: a compact fanout index,
//! combinational loops (strongly connected components), and
//! buffer-collapse.
//!
//! These are the shared substrate of the `slm-checker` pass framework:
//! every structural pass walks the same graph, so the adjacency is
//! built once ([`FanoutIndex`]) instead of rescanning all gates per
//! query, SCCs give *complete* oscillation-loop membership (a
//! topological sort only yields one witness net), and
//! [`collapsed_drivers`] sees through interposed buffers — the cheap
//! obfuscation a tenant would use to break naive pattern matchers.

use crate::gate::{GateKind, NetId};
use crate::layout::Gates;
use crate::netlist::Netlist;

/// Fanout adjacency in compressed-sparse-row form.
///
/// Built in one O(gates + edges) sweep; `fanouts(id)` is then a slice
/// lookup. Replaces the per-query scans that made chain-following
/// passes quadratic on long delay lines.
///
/// Each entry stands for one fanin edge reading the net: by default the
/// reading gate ([`FanoutIndex::build`]), or any per-edge value
/// ([`FanoutIndex::build_with`]). A net's entries are in edge order, so
/// a gate that reads it on several fanins is listed once per fanin,
/// side by side.
#[derive(Debug, Clone)]
pub struct FanoutIndex<T = NetId> {
    start: Vec<u32>,
    entries: Vec<T>,
}

impl FanoutIndex {
    /// Builds the index for `nl`: the gates reading each net.
    pub fn build(nl: &Netlist) -> Self {
        Self::build_with(nl, |reader, _| reader)
    }
}

impl<T: Copy + Default> FanoutIndex<T> {
    /// Builds the index for `nl` with entry `entry(reader, edge)` for
    /// each fanin edge, where `edge` is the edge's position among all
    /// [`Netlist::edge_count`] edges (see [`Netlist::fanin_edges`]).
    pub fn build_with(nl: &Netlist, entry: impl Fn(NetId, usize) -> T) -> Self {
        Self::over(nl.gate_arrays(), entry)
    }

    /// Builds the index over a netlist's gate arrays: count each net's
    /// readers, prefix-sum the counts, then fill in edge order.
    pub(crate) fn over(gates: &Gates, entry: impl Fn(NetId, usize) -> T) -> Self {
        let n = gates.len();
        let mut start = vec![0u32; n + 1];
        for g in gates.iter() {
            for &f in g.fanin {
                start[f.index() + 1] += 1;
            }
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut entries = vec![T::default(); start[n] as usize];
        let mut cursor = start.clone();
        let mut edge = 0;
        for (gi, g) in gates.iter().enumerate() {
            for &f in g.fanin {
                entries[cursor[f.index()] as usize] = entry(NetId(gi as u32), edge);
                cursor[f.index()] += 1;
                edge += 1;
            }
        }
        FanoutIndex { start, entries }
    }

    /// The entries of the edges reading net `id`; by default the gates
    /// reading it (with multiplicity for repeated fanins).
    pub fn fanouts(&self, id: NetId) -> &[T] {
        let s = self.start[id.index()] as usize;
        let e = self.start[id.index() + 1] as usize;
        &self.entries[s..e]
    }

    /// Number of fanout edges of net `id`.
    pub fn degree(&self, id: NetId) -> usize {
        self.fanouts(id).len()
    }
}

/// The combinational feedback loops of `nl`: every strongly connected
/// component that can carry a signal back to itself — components of
/// two or more gates, plus single gates that list themselves as a
/// fanin.
///
/// Each returned component is sorted by net id; components are ordered
/// by their smallest member. An acyclic netlist returns an empty list
/// at once: its constructor already proved it acyclic
/// ([`Netlist::topological_order`]), so Tarjan's pass runs only on
/// cyclic netlists, and there it allocates only for real loops.
pub fn combinational_loops(nl: &Netlist) -> Vec<Vec<NetId>> {
    if nl.is_acyclic() {
        return Vec::new();
    }
    // Iterative Tarjan over the fanin orientation (SCC sets are
    // invariant under edge reversal). Recursion would overflow on the
    // 50k-stage chains the checker benches run.
    let n = nl.len();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut loops: Vec<Vec<NetId>> = Vec::new();
    // Explicit DFS frames: (node, next fanin position to explore).
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
                // v is fully explored.
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] != index[v as usize] {
                    continue;
                }
                // v roots a component: everything above it on the stack.
                let at = stack
                    .iter()
                    .rposition(|&w| w == v)
                    .expect("tarjan stack holds the component");
                let is_loop = at + 1 < stack.len() || nl.gate(NetId(v)).fanin.contains(&NetId(v));
                for &w in &stack[at..] {
                    on_stack[w as usize] = false;
                }
                if is_loop {
                    let mut comp: Vec<NetId> = stack[at..].iter().map(|&w| NetId(w)).collect();
                    comp.sort();
                    loops.push(comp);
                }
                stack.truncate(at);
            }
        }
    }
    loops.sort_by_key(|comp| comp[0]);
    loops
}

/// Maps every net to its nearest non-buffer driver.
///
/// Following a `Buf` gate's single fanin repeatedly, each net resolves
/// to the first driver that is *not* a buffer; non-buffer nets resolve
/// to themselves. A (degenerate) all-buffer cycle resolves to the
/// first net its walk re-visits. This is the canonical view the
/// signature matcher scans so interposed buffers cannot break a motif.
///
/// Linear in the net count whatever the gate order: a walk stops at
/// the first net an earlier walk resolved, so each net joins one
/// walk's path at most once.
pub fn collapsed_drivers(nl: &Netlist) -> Vec<NetId> {
    collapse(nl).0
}

/// [`collapsed_drivers`] plus the number of chain steps the walks took.
fn collapse(nl: &Netlist) -> (Vec<NetId>, usize) {
    let n = nl.len();
    let mut root: Vec<Option<NetId>> = vec![None; n];
    // Marks the nets of the walk in progress. A mark left behind by an
    // earlier walk is never read again: that walk resolved the net.
    let mut on_path = vec![false; n];
    let mut path = Vec::new();
    let mut steps = 0;
    for start in 0..n {
        if root[start].is_some() {
            continue;
        }
        // Walk the buffer chain, memoizing the whole path.
        let mut cur = NetId(start as u32);
        let resolved = loop {
            steps += 1;
            if let Some(r) = root[cur.index()] {
                break r;
            }
            let g = nl.gate(cur);
            if g.kind != GateKind::Buf {
                break cur;
            }
            if on_path[cur.index()] {
                // pure-buffer cycle: anchor it at the re-visited net
                break cur;
            }
            on_path[cur.index()] = true;
            path.push(cur);
            cur = g.fanin[0];
        };
        for p in path.drain(..) {
            root[p.index()] = Some(resolved);
        }
        root[start].get_or_insert(resolved);
    }
    let root = root
        .into_iter()
        .map(|r| r.expect("every net resolved"))
        .collect();
    (root, steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::generators::{ring_oscillator, ripple_carry_adder};

    /// Fanout lists for every net, one list per net: the reference the
    /// index is checked against.
    fn fanouts(nl: &Netlist) -> Vec<Vec<NetId>> {
        let mut out = vec![Vec::new(); nl.len()];
        for (gi, g) in nl.gates().enumerate() {
            for &f in g.fanin {
                out[f.index()].push(NetId(gi as u32));
            }
        }
        out
    }

    #[test]
    fn fanout_index_matches_fanouts() {
        let nl = ripple_carry_adder(8).unwrap();
        let idx = FanoutIndex::build(&nl);
        let slow = fanouts(&nl);
        for (i, expected) in slow.iter().enumerate() {
            let id = NetId(i as u32);
            let mut a: Vec<NetId> = idx.fanouts(id).to_vec();
            let mut b = expected.clone();
            a.sort();
            b.sort();
            assert_eq!(a, b, "net {id}");
            assert_eq!(idx.degree(id), b.len());
        }
    }

    #[test]
    fn acyclic_netlist_has_no_loops() {
        let nl = ripple_carry_adder(16).unwrap();
        assert!(combinational_loops(&nl).is_empty());
    }

    #[test]
    fn ring_oscillator_loop_membership_is_complete() {
        let ro = ring_oscillator(6).unwrap();
        let loops = combinational_loops(&ro);
        assert_eq!(loops.len(), 1);
        // The loop is the NAND plus all six inverters; the enable input
        // stays outside.
        assert_eq!(loops[0].len(), 7);
        assert!(
            !loops[0].contains(&NetId(0)),
            "enable input is not in the loop"
        );
    }

    #[test]
    fn two_independent_loops_are_separate_components() {
        let a = ring_oscillator(4).unwrap();
        let both = Netlist::disjoint_union("pair", &[&a, &a]).unwrap();
        let loops = combinational_loops(&both);
        assert_eq!(loops.len(), 2);
        assert_eq!(loops[0].len(), 5);
        assert_eq!(loops[1].len(), 5);
    }

    use crate::netlist::Netlist;

    #[test]
    fn self_loop_gate_is_a_loop() {
        let gates = vec![
            (GateKind::Input, vec![]),
            (GateKind::Nand, vec![NetId(0), NetId(1)]),
        ];
        let nl = Netlist::from_parts("latch", gates, vec![NetId(0)], vec![], vec![]).unwrap();
        let loops = combinational_loops(&nl);
        assert_eq!(loops, vec![vec![NetId(1)]]);
    }

    #[test]
    fn collapse_sees_through_buffer_runs() {
        let mut b = NetlistBuilder::new("bufs");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.and2(x, y);
        let mut t = g;
        for _ in 0..5 {
            t = b.buf(t);
        }
        let h = b.not(t);
        b.output("q", h);
        let nl = b.finish().unwrap();
        let roots = collapsed_drivers(&nl);
        assert_eq!(roots[t.index()], g, "buffer run resolves to the AND");
        assert_eq!(roots[g.index()], g);
        assert_eq!(roots[h.index()], h);
        // the NOT's effective fanin is the AND
        assert_eq!(roots[nl.gate(h).fanin[0].index()], g);
    }

    #[test]
    fn pure_buffer_cycle_terminates() {
        let gates = vec![
            (GateKind::Buf, vec![NetId(1)]),
            (GateKind::Buf, vec![NetId(0)]),
        ];
        let nl = Netlist::from_parts("bufloop", gates, vec![], vec![], vec![]).unwrap();
        let roots = collapsed_drivers(&nl);
        // Both nets resolve to a member of the cycle.
        assert!(roots.iter().all(|r| r.index() < 2));
        assert_eq!(combinational_loops(&nl).len(), 1);
        // 0 -> 1 -> 2 -> 1: the walk from net 0 re-visits net 1 first,
        // and the lasso's tail resolves to that anchor too.
        let gates = vec![
            (GateKind::Buf, vec![NetId(1)]),
            (GateKind::Buf, vec![NetId(2)]),
            (GateKind::Buf, vec![NetId(1)]),
        ];
        let nl = Netlist::from_parts("lasso", gates, vec![], vec![], vec![]).unwrap();
        assert_eq!(collapsed_drivers(&nl), vec![NetId(1); 3]);
        assert_eq!(combinational_loops(&nl), vec![vec![NetId(1), NetId(2)]]);
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        // 60k-stage buffer chain: the memoized collapse must handle it
        // without recursion.
        let mut b = NetlistBuilder::new("deep");
        let mut n = b.input("d");
        for _ in 0..60_000 {
            n = b.buf(n);
        }
        b.output("q", n);
        let nl = b.finish().unwrap();
        assert!(combinational_loops(&nl).is_empty());
        let roots = collapsed_drivers(&nl);
        assert_eq!(roots[n.index()], nl.inputs()[0]);
        // Closing the chain through an inverter makes one 60k-net loop,
        // which the iterative Tarjan must walk without recursion too.
        let closing = [n];
        let gates = nl.gates().enumerate().map(|(i, g)| match i {
            0 => (GateKind::Not, &closing[..]),
            _ => (g.kind, g.fanin),
        });
        let ring = Netlist::from_parts("deep-ring", gates, vec![], vec![], vec![]).unwrap();
        let loops = combinational_loops(&ring);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].len(), ring.len());
    }

    #[test]
    fn reverse_ordered_buffer_chain_collapses_in_linear_steps() {
        // A .bench file lists gates in file order, so a tenant can number
        // a buffer chain output-first: gate i buffers gate i + 1, and the
        // input comes last. The first walk then spans the whole chain.
        const STAGES: usize = 80_000;
        let mut gates: Vec<(GateKind, Vec<NetId>)> = (0..STAGES)
            .map(|i| (GateKind::Buf, vec![NetId(i as u32 + 1)]))
            .collect();
        gates.push((GateKind::Input, vec![]));
        let input = NetId(STAGES as u32);
        let nl = Netlist::from_parts("reversed", gates, vec![input], vec![], vec![]).unwrap();
        let (roots, steps) = collapse(&nl);
        assert!(roots.iter().all(|&r| r == input));
        assert!(
            steps <= 2 * nl.len(),
            "{steps} steps over {} nets",
            nl.len()
        );
    }
}
