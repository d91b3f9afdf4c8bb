//! Shared analysis context: everything more than one pass needs is
//! computed once per scan.

use crate::config::CheckerConfig;
use crate::semantic::{compute_taint, is_clock_named, TaintFacts};
use slm_netlist::graph::{collapsed_drivers, combinational_loops, FanoutIndex};
use slm_netlist::{NetId, Netlist};
use std::sync::OnceLock;

/// Precomputed per-netlist facts handed to every pass.
///
/// Building the context is O(nets + edges); passes then share the
/// fanout index (the fix for the old per-chain-step gate rescans), the
/// complete loop list (empty without a Tarjan pass when the netlist
/// is acyclic), and the buffer-collapsed driver map. Facts only some
/// passes need (logic depth, clock-named inputs, clock taint) are
/// computed lazily, at most once, behind a [`OnceLock`].
pub struct Analysis<'a> {
    nl: &'a Netlist,
    fanout: FanoutIndex,
    is_output: Vec<bool>,
    collapsed: Vec<NetId>,
    loops: Vec<Vec<NetId>>,
    levels: OnceLock<Option<Vec<usize>>>,
    clock_named: OnceLock<Vec<NetId>>,
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
            clock_named: OnceLock::new(),
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

    /// Logic depth per net ([`Netlist::depth_profile`]: inputs and
    /// constants at 0, every gate one more than its deepest fanin), or
    /// `None` for a cyclic netlist.
    ///
    /// Computed at most once per scan; shared by the SCOAP and semantic
    /// passes.
    pub fn levels(&self) -> Option<&[usize]> {
        self.levels
            .get_or_init(|| self.nl.depth_profile().ok().map(|p| p.level))
            .as_deref()
    }

    /// The primary inputs whose lowercased stem (bus index stripped)
    /// is one of [`ClockConfig::clock_names`](crate::ClockConfig::clock_names),
    /// in input order.
    ///
    /// Computed at most once per scan and shared by the clock-as-data
    /// pass and the clock-taint seeds; like [`Analysis::taint`], the
    /// first caller's config fixes the list.
    pub fn clock_named_inputs(&self, config: &CheckerConfig) -> &[NetId] {
        let names = &config.clock.clock_names;
        let named = |nl: &Netlist| -> Vec<NetId> {
            nl.inputs()
                .iter()
                .copied()
                .filter(|&i| nl.net_name(i).is_some_and(|n| is_clock_named(n, names)))
                .collect()
        };
        let list = self.clock_named.get_or_init(|| named(self.nl));
        debug_assert_eq!(
            *list,
            named(self.nl),
            "Analysis::clock_named_inputs queried under a second config"
        );
        list
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
