//! Gate and interconnect delay annotation.

use crate::error::TimingError;
use crate::sta::StaResult;
use serde::{Deserialize, Serialize};
use slm_netlist::{GateKind, NetId, Netlist};

/// Parameters of the delay annotation: nominal per-kind gate delays plus
/// deterministic process variation and routing spread.
///
/// Values loosely follow a 28 nm FPGA fabric: a LUT/inverter in the tens
/// of picoseconds, with net (routing) delay of the same order or larger —
/// on real FPGAs routing dominates, which is what spreads endpoint
/// arrival times and gives a benign circuit many distinct sensitivity
/// thresholds.
///
/// All randomness is derived from `seed` with a splitmix64 hash of the
/// gate/edge index, so an annotation is a pure function of
/// `(netlist, model)` — re-annotating reproduces identical delays, the
/// simulation analogue of "the same bitstream always maps the same way".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayModel {
    /// Delay of inverters and buffers, ps.
    pub inv_ps: f64,
    /// Delay of AND/NAND/OR/NOR gates, ps.
    pub simple_ps: f64,
    /// Delay of XOR/XNOR gates, ps.
    pub xor_ps: f64,
    /// Extra delay per fanout on the driving gate, ps.
    pub per_fanout_ps: f64,
    /// ±fractional process variation applied per gate (0.1 = ±10 %).
    pub variation_frac: f64,
    /// Minimum routing delay per edge, ps.
    pub routing_min_ps: f64,
    /// Maximum routing delay per edge, ps.
    pub routing_max_ps: f64,
    /// Seed for the deterministic variation/routing draw.
    pub seed: u64,
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel {
            inv_ps: 40.0,
            simple_ps: 55.0,
            xor_ps: 70.0,
            per_fanout_ps: 4.0,
            variation_frac: 0.08,
            routing_min_ps: 30.0,
            routing_max_ps: 220.0,
            seed: 0x5eed_cafe,
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` from a hash of `(seed, tag)`.
fn unit(seed: u64, tag: u64) -> f64 {
    (splitmix64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 11) as f64 / (1u64 << 53) as f64
}

impl DelayModel {
    /// Base intrinsic delay for a gate kind, before variation and load.
    fn base_ps(&self, kind: GateKind) -> f64 {
        match kind {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => 0.0,
            GateKind::Not | GateKind::Buf => self.inv_ps,
            GateKind::Xor | GateKind::Xnor => self.xor_ps,
            _ => self.simple_ps,
        }
    }

    /// Annotates every gate and fanin edge of `nl` with a concrete delay.
    pub fn annotate(&self, nl: &Netlist) -> AnnotatedDelays {
        let mut fanout = vec![0usize; nl.len()];
        for g in nl.gates() {
            for f in g.fanin {
                fanout[f.index()] += 1;
            }
        }
        let mut gate_ps = Vec::with_capacity(nl.len());
        let mut edge_ps = Vec::with_capacity(nl.edge_count());
        let mut edge_tag = 0x1000_0000u64;
        for (gi, g) in nl.gates().enumerate() {
            let base = self.base_ps(g.kind);
            if base == 0.0 {
                // Inputs and constants are delay-free sources; they
                // have no fanin edges.
                gate_ps.push(0.0);
                continue;
            }
            let load = self.per_fanout_ps * fanout[gi] as f64;
            let var = 1.0 + self.variation_frac * (2.0 * unit(self.seed, gi as u64) - 1.0);
            gate_ps.push(((base + load) * var).max(0.0));
            for _ in g.fanin {
                edge_tag += 1;
                let r = self.routing_min_ps
                    + (self.routing_max_ps - self.routing_min_ps) * unit(self.seed, edge_tag);
                edge_ps.push(r);
            }
        }
        debug_assert_eq!(edge_ps.len(), nl.edge_count());
        AnnotatedDelays {
            netlist: nl.clone(),
            gate_ps,
            edge_ps,
        }
    }

    /// Annotates `nl`, then rescales all delays so the STA critical path
    /// equals `target_period_ns × utilization` — modelling a design
    /// "synthesized for" a given clock, as the paper's circuits were
    /// synthesized for 50 MHz.
    ///
    /// # Errors
    ///
    /// [`TimingError::CyclicNetlist`] if `nl` has a combinational cycle.
    pub fn annotate_for_period(
        &self,
        nl: &Netlist,
        target_period_ns: f64,
        utilization: f64,
    ) -> Result<AnnotatedDelays, TimingError> {
        let mut ann = self.annotate(nl);
        let crit_ps = ann.sta()?.critical_ps();
        if crit_ps > 0.0 {
            let scale = target_period_ns * 1000.0 * utilization / crit_ps;
            ann.scale(scale);
        }
        Ok(ann)
    }
}

/// Concrete per-gate and per-edge delays for one netlist.
#[derive(Debug, Clone)]
pub struct AnnotatedDelays {
    pub(crate) netlist: Netlist,
    pub(crate) gate_ps: Vec<f64>,
    /// One delay per fanin edge, at the edge's
    /// [`Netlist::fanin_edges`] position.
    pub(crate) edge_ps: Vec<f64>,
}

impl AnnotatedDelays {
    /// The annotated netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Intrinsic + load delay of gate `i`, ps.
    pub fn gate_ps(&self, i: usize) -> f64 {
        self.gate_ps[i]
    }

    /// Routing delay of each fanin edge of gate `i`, ps, in fanin order.
    #[inline]
    pub fn edge_ps(&self, i: usize) -> &[f64] {
        &self.edge_ps[self.netlist.fanin_edges(NetId(i as u32))]
    }

    /// Multiplies every delay by `scale`.
    pub fn scale(&mut self, scale: f64) {
        for d in &mut self.gate_ps {
            *d *= scale;
        }
        for d in &mut self.edge_ps {
            *d *= scale;
        }
    }

    /// Runs static timing analysis over this annotation: one full pass
    /// in topological order.
    ///
    /// # Errors
    ///
    /// [`TimingError::CyclicNetlist`] if the netlist has a combinational
    /// cycle.
    pub fn sta(&self) -> Result<StaResult, TimingError> {
        StaResult::compute(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slm_netlist::generators::ripple_carry_adder;
    use slm_netlist::NetlistBuilder;

    #[test]
    fn annotation_is_deterministic() {
        let nl = ripple_carry_adder(16).unwrap();
        let m = DelayModel::default();
        let a1 = m.annotate(&nl);
        let a2 = m.annotate(&nl);
        assert_eq!(a1.gate_ps, a2.gate_ps);
        assert_eq!(a1.edge_ps, a2.edge_ps);
    }

    #[test]
    fn different_seed_different_delays() {
        let nl = ripple_carry_adder(16).unwrap();
        let a1 = DelayModel::default().annotate(&nl);
        let a2 = DelayModel {
            seed: 42,
            ..DelayModel::default()
        }
        .annotate(&nl);
        assert_ne!(a1.gate_ps, a2.gate_ps);
    }

    #[test]
    fn inputs_have_zero_delay() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let ann = DelayModel::default().annotate(&nl);
        assert_eq!(ann.gate_ps(0), 0.0);
        assert!(ann.gate_ps(1) > 0.0);
    }

    #[test]
    fn variation_stays_in_band() {
        let nl = ripple_carry_adder(64).unwrap();
        let m = DelayModel::default();
        let ann = m.annotate(&nl);
        for (i, g) in nl.gates().enumerate() {
            let base = m.base_ps(g.kind);
            if base == 0.0 {
                continue;
            }
            let d = ann.gate_ps(i);
            // base + up to per_fanout load, ± variation
            assert!(d > base * (1.0 - m.variation_frac) * 0.99, "gate {i}");
            assert!(
                d < (base + 10.0 * m.per_fanout_ps) * (1.0 + m.variation_frac) * 1.01,
                "gate {i}: {d}"
            );
        }
    }

    #[test]
    fn routing_in_declared_range() {
        let nl = ripple_carry_adder(32).unwrap();
        let m = DelayModel::default();
        let ann = m.annotate(&nl);
        assert_eq!(ann.edge_ps.len(), nl.edge_count());
        for &e in &ann.edge_ps {
            assert!(e >= m.routing_min_ps && e <= m.routing_max_ps);
        }
    }

    #[test]
    fn calibration_hits_target_period() {
        let nl = ripple_carry_adder(64).unwrap();
        let ann = DelayModel::default()
            .annotate_for_period(&nl, 20.0, 0.9)
            .unwrap();
        let crit = ann.sta().unwrap().critical_ps();
        assert!((crit - 18_000.0).abs() < 1.0, "critical = {crit} ps");
    }

    #[test]
    fn scale_scales_everything() {
        let nl = ripple_carry_adder(8).unwrap();
        let mut ann = DelayModel::default().annotate(&nl);
        let before = ann.sta().unwrap().critical_ps();
        ann.scale(2.0);
        let after = ann.sta().unwrap().critical_ps();
        assert!((after / before - 2.0).abs() < 1e-9);
    }
}
