//! Structural statistics: gate census, logic depth, fanout profile.

use crate::gate::GateKind;
use crate::netlist::Netlist;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-netlist structural summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetlistStats {
    /// Total gate count, including `Input` pseudo-gates.
    pub gates: usize,
    /// Primary input count.
    pub inputs: usize,
    /// Primary output count.
    pub outputs: usize,
    /// Gate count per kind (kind displayed name → count).
    pub by_kind: BTreeMap<String, usize>,
    /// Maximum logic depth (levels from inputs, inputs at level 0).
    pub depth: usize,
    /// Maximum fanout of any net.
    pub max_fanout: usize,
}

/// Per-output logic level profile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepthProfile {
    /// Logic level of each net, indexed by [`crate::NetId::index`].
    pub level: Vec<usize>,
    /// Logic level of each primary output, in declaration order.
    pub output_levels: Vec<usize>,
}

impl Netlist {
    /// Computes logic levels for every net (unit delay per gate).
    ///
    /// # Errors
    ///
    /// Fails on cyclic netlists.
    pub fn depth_profile(&self) -> Result<DepthProfile, crate::NetlistError> {
        let order = self.topological_order()?;
        let mut level = vec![0usize; self.len()];
        for id in order {
            let g = self.gate(id);
            if matches!(
                g.kind,
                GateKind::Input | GateKind::Const0 | GateKind::Const1
            ) {
                continue;
            }
            level[id.index()] = 1 + g.fanin.iter().map(|f| level[f.index()]).max().unwrap_or(0);
        }
        let output_levels = self
            .outputs()
            .iter()
            .map(|&(_, o)| level[o.index()])
            .collect();
        Ok(DepthProfile {
            level,
            output_levels,
        })
    }

    /// Computes the structural summary.
    ///
    /// # Errors
    ///
    /// Fails on cyclic netlists (depth is undefined there).
    pub fn stats(&self) -> Result<NetlistStats, crate::NetlistError> {
        let profile = self.depth_profile()?;
        let mut by_kind: BTreeMap<String, usize> = BTreeMap::new();
        for g in self.gates() {
            *by_kind.entry(g.kind.to_string()).or_insert(0) += 1;
        }
        let mut fanout = vec![0usize; self.len()];
        for g in self.gates() {
            for &f in g.fanin {
                fanout[f.index()] += 1;
            }
        }
        Ok(NetlistStats {
            gates: self.len(),
            inputs: self.inputs().len(),
            outputs: self.outputs().len(),
            by_kind,
            depth: profile.level.iter().copied().max().unwrap_or(0),
            max_fanout: fanout.into_iter().max().unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::NetlistBuilder;
    use crate::gate::GateKind;

    #[test]
    fn depth_of_chain() {
        let mut b = NetlistBuilder::new("chain");
        let mut n = b.input("a");
        for _ in 0..10 {
            n = b.not(n);
        }
        b.output("y", n);
        let nl = b.finish().unwrap();
        let stats = nl.stats().unwrap();
        assert_eq!(stats.depth, 10);
        assert_eq!(stats.by_kind["NOT"], 10);
        assert_eq!(nl.depth_profile().unwrap().output_levels, vec![10]);
    }

    #[test]
    fn fanout_counted() {
        let mut b = NetlistBuilder::new("fan");
        let a = b.input("a");
        let x = b.not(a);
        for _ in 0..5 {
            let g = b.gate(GateKind::Buf, &[x]);
            b.output(format!("o{g}"), g);
        }
        let nl = b.finish().unwrap();
        assert_eq!(nl.stats().unwrap().max_fanout, 5);
    }
}
