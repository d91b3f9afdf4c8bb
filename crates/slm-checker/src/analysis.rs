//! Shared analysis context: everything more than one pass needs is
//! computed once per scan.

use crate::config::CheckerConfig;
use crate::semantic::{compute_taint, TaintFacts};
use slm_netlist::graph::{collapsed_drivers, combinational_loops, FanoutIndex};
use slm_netlist::{GateKind, NetId, Netlist};
use std::sync::OnceLock;

/// Precomputed per-netlist facts handed to every pass.
///
/// Building the context is O(nets + edges); passes then share the
/// fanout index (the fix for the old per-chain-step gate rescans), the
/// complete SCC loop list, and the buffer-collapsed driver map. Facts
/// only some pipelines need (logic depth, clock taint) are computed
/// lazily, at most once, behind a [`OnceLock`] — safe to race from a
/// parallel pass level.
pub struct Analysis<'a> {
    nl: &'a Netlist,
    fanout: FanoutIndex,
    is_output: Vec<bool>,
    collapsed: Vec<NetId>,
    loops: Vec<Vec<NetId>>,
    levels: OnceLock<Option<Vec<usize>>>,
    taint: OnceLock<TaintFacts>,
}

impl<'a> Analysis<'a> {
    /// Builds the context for `nl`.
    pub fn new(nl: &'a Netlist) -> Self {
        let mut is_output = vec![false; nl.len()];
        for &(_, o) in nl.outputs() {
            is_output[o.index()] = true;
        }
        Analysis {
            fanout: FanoutIndex::build(nl),
            is_output,
            collapsed: collapsed_drivers(nl),
            loops: combinational_loops(nl),
            levels: OnceLock::new(),
            taint: OnceLock::new(),
            nl,
        }
    }

    /// The netlist under analysis.
    pub fn netlist(&self) -> &'a Netlist {
        self.nl
    }

    /// The shared fanout adjacency index.
    pub fn fanout(&self) -> &FanoutIndex {
        &self.fanout
    }

    /// Whether `id` is a primary output.
    pub fn is_output(&self, id: NetId) -> bool {
        self.is_output[id.index()]
    }

    /// The nearest non-buffer driver of every net.
    pub fn collapsed(&self) -> &[NetId] {
        &self.collapsed
    }

    /// All combinational feedback loops (complete SCC membership),
    /// ordered by smallest member net.
    pub fn loops(&self) -> &[Vec<NetId>] {
        &self.loops
    }

    /// Logic depth per net (inputs/constants at 0, every gate one more
    /// than its deepest fanin), or `None` for a cyclic netlist.
    ///
    /// Computed at most once per scan; shared by the SCOAP and semantic
    /// passes.
    pub fn levels(&self) -> Option<&[usize]> {
        self.levels
            .get_or_init(|| {
                let order = self.nl.topological_order().ok()?;
                let mut level = vec![0usize; self.nl.len()];
                for &v in order {
                    let g = self.nl.gate(v);
                    if !matches!(
                        g.kind,
                        GateKind::Input | GateKind::Const0 | GateKind::Const1
                    ) {
                        level[v.index()] =
                            1 + g.fanin.iter().map(|f| level[f.index()]).max().unwrap_or(0);
                    }
                }
                Some(level)
            })
            .as_deref()
    }

    /// The clock-taint fixpoint ([`compute_taint`]) under `config`.
    ///
    /// Computed at most once per scan and shared by the three semantic
    /// passes. A scan runs every pass under one config, so the first
    /// caller's config fixes the facts: query a fresh context (or call
    /// [`compute_taint`] directly) to compare configs.
    pub fn taint(&self, config: &CheckerConfig) -> &TaintFacts {
        let facts = self.taint.get_or_init(|| compute_taint(self, config));
        debug_assert_eq!(
            facts.seeds,
            crate::semantic::clock_seeds(self, config),
            "Analysis::taint queried under a second config"
        );
        facts
    }
}
