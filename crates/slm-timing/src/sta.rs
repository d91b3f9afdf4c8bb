//! Static timing analysis: arrival times, critical path, fmax, slack.

use crate::delay::AnnotatedDelays;
use crate::error::TimingError;
use serde::{Deserialize, Serialize};
use slm_netlist::NetId;

/// One hop of a reported timing path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathSegment {
    /// The net reached by this hop.
    pub net: NetId,
    /// Cumulative arrival at this net, ps.
    pub arrival_ps: f64,
}

/// Result of static timing analysis: latest arrival per net under the
/// single-corner delay annotation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaResult {
    arrival_ps: Vec<f64>,
    /// Fanin index realizing the max arrival, for path backtracking.
    critical_fanin: Vec<Option<u32>>,
    output_arrivals: Vec<f64>,
    critical_net: Option<NetId>,
}

impl StaResult {
    pub(crate) fn compute(ann: &AnnotatedDelays) -> Result<StaResult, TimingError> {
        let nl = ann.netlist();
        let order = nl
            .topological_order()
            .map_err(|_| TimingError::CyclicNetlist)?;
        let mut arrival = vec![0.0f64; nl.len()];
        let mut critical_fanin: Vec<Option<u32>> = vec![None; nl.len()];
        for id in order {
            let g = nl.gate(id);
            if g.fanin.is_empty() {
                // Inputs and constants launch at t = 0.
                continue;
            }
            let mut best = f64::NEG_INFINITY;
            let mut best_j = 0u32;
            for (j, (&f, &edge)) in g.fanin.iter().zip(ann.edge_ps(id.index())).enumerate() {
                let t = arrival[f.index()] + edge;
                if t > best {
                    best = t;
                    best_j = j as u32;
                }
            }
            arrival[id.index()] = best + ann.gate_ps(id.index());
            critical_fanin[id.index()] = Some(best_j);
        }
        let output_arrivals: Vec<f64> = nl
            .outputs()
            .iter()
            .map(|&(_, o)| arrival[o.index()])
            .collect();
        let critical_net = nl
            .outputs()
            .iter()
            .map(|&(_, o)| o)
            .max_by(|&a, &b| arrival[a.index()].total_cmp(&arrival[b.index()]));
        Ok(StaResult {
            arrival_ps: arrival,
            critical_fanin,
            output_arrivals,
            critical_net,
        })
    }

    /// Latest arrival time of net `id`, ps.
    pub fn arrival_ps(&self, id: NetId) -> f64 {
        self.arrival_ps[id.index()]
    }

    /// Latest arrival per primary output, in output declaration order.
    pub fn output_arrivals_ps(&self) -> &[f64] {
        &self.output_arrivals
    }

    /// Delay of the critical (longest) register-to-register path, ps.
    ///
    /// Measured to the primary outputs, which model register inputs in
    /// this combinational abstraction.
    pub fn critical_ps(&self) -> f64 {
        self.output_arrivals.iter().copied().fold(0.0, f64::max)
    }

    /// Maximum clock frequency implied by the critical path, MHz.
    ///
    /// Returns `f64::INFINITY` for an empty or zero-delay netlist.
    pub fn fmax_mhz(&self) -> f64 {
        let crit = self.critical_ps();
        if crit <= 0.0 {
            f64::INFINITY
        } else {
            1e6 / crit
        }
    }

    /// Whether the design meets timing at `freq_mhz`.
    pub fn meets_timing(&self, freq_mhz: f64) -> bool {
        self.fmax_mhz() >= freq_mhz
    }

    /// The critical path from a primary input to the latest output, as a
    /// sequence of nets with cumulative arrivals.
    ///
    /// Empty when the netlist has no outputs.
    pub fn critical_path(&self, nl: &slm_netlist::Netlist) -> Vec<PathSegment> {
        let Some(mut net) = self.critical_net else {
            return Vec::new();
        };
        let mut rev = Vec::new();
        loop {
            rev.push(PathSegment {
                net,
                arrival_ps: self.arrival_ps(net),
            });
            match self.critical_fanin[net.index()] {
                Some(j) => net = nl.gate(net).fanin[j as usize],
                None => break,
            }
        }
        rev.reverse();
        rev
    }
}

#[cfg(test)]
mod tests {
    use crate::delay::DelayModel;
    use slm_netlist::generators::{alu, c6288, ripple_carry_adder, tdc_delay_line};
    use slm_netlist::NetlistBuilder;

    #[test]
    fn arrival_accumulates_along_chain() {
        let nl = tdc_delay_line(10).unwrap();
        let ann = DelayModel {
            variation_frac: 0.0,
            routing_min_ps: 100.0,
            routing_max_ps: 100.0,
            per_fanout_ps: 0.0,
            inv_ps: 40.0,
            ..DelayModel::default()
        }
        .annotate(&nl);
        let sta = ann.sta().unwrap();
        let arr = sta.output_arrivals_ps();
        // each stage adds 100 (edge) + 40 (buf) = 140 ps
        for (i, &a) in arr.iter().enumerate() {
            assert!((a - 140.0 * (i as f64 + 1.0)).abs() < 1e-9, "tap {i}: {a}");
        }
    }

    #[test]
    fn nan_delays_do_not_panic_the_critical_net_selection() -> Result<(), Box<dyn std::error::Error>>
    {
        let mut ann = DelayModel::default().annotate(&ripple_carry_adder(4)?);
        ann.scale(f64::NAN);
        let sta = ann.sta()?;
        assert!(sta.output_arrivals_ps().iter().all(|a| a.is_nan()));
        Ok(())
    }

    #[test]
    fn critical_path_is_monotone_and_ends_at_max() {
        let nl = ripple_carry_adder(32).unwrap();
        let ann = DelayModel::default().annotate(&nl);
        let sta = ann.sta().unwrap();
        let path = sta.critical_path(&nl);
        assert!(path.len() > 32, "carry chain should be long");
        for w in path.windows(2) {
            assert!(w[0].arrival_ps <= w[1].arrival_ps);
        }
        assert!((path.last().unwrap().arrival_ps - sta.critical_ps()).abs() < 1e-9);
    }

    #[test]
    fn alu192_synthesizable_at_50mhz_violates_300mhz() {
        // The paper's operating points: synthesized for 50 MHz, overclocked
        // to 300 MHz.
        let nl = alu(192).unwrap();
        let ann = DelayModel::default()
            .annotate_for_period(&nl, 20.0, 0.9)
            .unwrap();
        let sta = ann.sta().unwrap();
        assert!(sta.meets_timing(50.0));
        assert!(!sta.meets_timing(300.0));
        // Slack of each output against the 300 MHz period, ns.
        let slacks: Vec<f64> = sta
            .output_arrivals_ps()
            .iter()
            .map(|a| 1000.0 / 300.0 - a / 1000.0)
            .collect();
        assert!(slacks.iter().any(|&s| s < 0.0), "must violate at 300 MHz");
        assert!(slacks.iter().any(|&s| s > 0.0), "short paths still pass");
    }

    #[test]
    fn c6288_fmax_in_plausible_band() {
        let nl = c6288().unwrap();
        let ann = DelayModel::default()
            .annotate_for_period(&nl, 20.0, 0.9)
            .unwrap();
        let f = ann.sta().unwrap().fmax_mhz();
        assert!(f > 50.0 && f < 60.0, "fmax = {f} MHz");
    }

    #[test]
    fn derated_sta_matches_scaled_annotation() {
        // The alpha-power law multiplies every gate and edge delay by
        // one factor, so every endpoint arrival scales linearly with it
        // and a derated setup check is `arrival × scale > period` on the
        // nominal result. `VictimCone` relies on this; pin it against
        // the honest path: fold the scale into the delays and re-run STA.
        let nl = ripple_carry_adder(32).unwrap();
        let ann = DelayModel::default()
            .annotate_for_period(&nl, 9.0, 1.0)
            .unwrap();
        let nominal = ann.sta().unwrap();
        let law = crate::VoltageDelayLaw::default();
        let period_ps = 10_000.0;
        let violations = |arrivals: &[f64], scale: f64| -> Vec<usize> {
            (0..arrivals.len())
                .filter(|&i| arrivals[i] * scale > period_ps)
                .collect()
        };
        for v in [1.0, 0.97, 0.95, 0.93, 0.90, 0.85] {
            let scale = law.scale(v);
            let mut derated = ann.clone();
            derated.scale(scale);
            assert_eq!(
                violations(nominal.output_arrivals_ps(), scale),
                violations(derated.sta().unwrap().output_arrivals_ps(), 1.0),
                "violation sets diverge at v = {v}"
            );
        }
        // Sanity of the physics: nominal voltage meets timing, deep
        // droop does not.
        assert!(violations(nominal.output_arrivals_ps(), law.scale(1.0)).is_empty());
        assert!(!violations(nominal.output_arrivals_ps(), law.scale(0.85)).is_empty());
    }

    #[test]
    fn zero_depth_netlist() {
        let mut b = NetlistBuilder::new("wire");
        let a = b.input("a");
        b.output("y", a);
        let nl = b.finish().unwrap();
        let sta = DelayModel::default().annotate(&nl).sta().unwrap();
        assert_eq!(sta.critical_ps(), 0.0);
        assert_eq!(sta.fmax_mhz(), f64::INFINITY);
    }

    #[test]
    fn cyclic_rejected() {
        let ro = slm_netlist::generators::ring_oscillator(4).unwrap();
        let ann = DelayModel::default().annotate(&ro);
        assert!(matches!(ann.sta(), Err(crate::TimingError::CyclicNetlist)));
    }
}
