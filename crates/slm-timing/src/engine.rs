//! A reusable static-timing engine with incremental launch-set
//! re-propagation.
//!
//! [`StaResult::compute`](crate::StaResult) walks the whole netlist on
//! every call: fine for one-shot analysis, wasteful when the same
//! annotated netlist is queried repeatedly with only a few inputs
//! changing between queries (the reset→measure stimulus pattern of the
//! benign-sensor capture loop, or an ATPG searcher sweeping stimulus
//! bits). [`StaEngine`] caches everything that does not change between
//! queries — the topological order, a CSR fanout index, and the full
//! per-net arrival state — and re-propagates arrivals only from inputs
//! whose launch state actually changed, via a worklist ordered by
//! topological position.
//!
//! # Launch-set semantics
//!
//! The engine generalizes classic STA to a *launch set*: each primary
//! input either launches a transition at `t = 0` or holds still. A held
//! input's arrival is `−∞`, so its paths drop out of every downstream
//! `max`; a net whose fanin cone contains no launching input reports
//! `−∞` ("this capture sees no transition from the stimulus change").
//! With every input launching the engine is exactly classic STA — the
//! construction pass reproduces `StaResult::compute` bit for bit, and
//! [`AnnotatedDelays::sta`] is implemented on top of it.
//!
//! # Dirty-propagation invariant
//!
//! After any sequence of [`StaEngine::set_launch`] calls, the stored
//! per-net state is **bitwise identical** to a full from-scratch
//! propagation under the current launch set. This holds because an
//! update never adjusts a value in place: a dirty gate's arrival is
//! recomputed from its fanins by the *same* fold, in the same fanin
//! order, as the full pass — so equal inputs give equal (bitwise)
//! outputs, and propagation stops exactly where values stop changing.
//! The property test `incremental_sta_matches_full_recompute` pins
//! this against the reference recompute on random netlists and random
//! launch-flip sequences.

use crate::delay::AnnotatedDelays;
use crate::error::TimingError;
use crate::sta::StaResult;
use slm_netlist::NetId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cached per-netlist timing state supporting incremental launch-set
/// updates. Each primary input either launches a transition at
/// `t = 0` or holds still (arrival `−∞`); after any sequence of
/// [`StaEngine::set_launch`] calls the stored per-net state is bitwise
/// identical to a full recompute under the current launch set.
#[derive(Debug, Clone)]
pub struct StaEngine<'a> {
    ann: &'a AnnotatedDelays,
    /// Cached topological order (borrowed from the netlist's own cache).
    order: &'a [NetId],
    /// Position of each net in `order` (worklist priority).
    topo_pos: Vec<u32>,
    /// CSR fanout index: consumers of net `i` are
    /// `fanout[fanout_start[i]..fanout_start[i + 1]]`.
    fanout_start: Vec<u32>,
    fanout: Vec<u32>,
    /// Primary-input position of net `i`, if net `i` is a primary input.
    input_pos: Vec<Option<u32>>,
    /// Current launch mask, one flag per primary input.
    launch: Vec<bool>,
    arrival: Vec<f64>,
    min_arrival: Vec<f64>,
    critical_fanin: Vec<Option<u32>>,
    /// Scratch: whether a net is already queued in the worklist.
    queued: Vec<bool>,
}

impl<'a> StaEngine<'a> {
    /// Builds the engine and runs the initial full propagation with
    /// every input launching (classic STA).
    ///
    /// # Errors
    ///
    /// [`TimingError::CyclicNetlist`] if the netlist has a combinational
    /// cycle.
    pub fn new(ann: &'a AnnotatedDelays) -> Result<Self, TimingError> {
        let nl = ann.netlist();
        let n = nl.len();
        let order = nl
            .topological_order()
            .map_err(|_| TimingError::CyclicNetlist)?;
        let mut topo_pos = vec![0u32; n];
        for (pos, &id) in order.iter().enumerate() {
            topo_pos[id.index()] = pos as u32;
        }
        // CSR fanout: count, prefix-sum, fill.
        let mut fanout_start = vec![0u32; n + 1];
        for g in nl.gates() {
            for f in &g.fanin {
                fanout_start[f.index() + 1] += 1;
            }
        }
        for i in 0..n {
            fanout_start[i + 1] += fanout_start[i];
        }
        let mut cursor = fanout_start.clone();
        let mut fanout = vec![0u32; fanout_start[n] as usize];
        for (gi, g) in nl.gates().iter().enumerate() {
            for f in &g.fanin {
                let slot = cursor[f.index()];
                fanout[slot as usize] = gi as u32;
                cursor[f.index()] += 1;
            }
        }
        let mut input_pos = vec![None; n];
        for (pos, &id) in nl.inputs().iter().enumerate() {
            input_pos[id.index()] = Some(pos as u32);
        }
        let mut engine = StaEngine {
            ann,
            order,
            topo_pos,
            fanout_start,
            fanout,
            input_pos,
            launch: vec![true; nl.inputs().len()],
            arrival: vec![0.0; n],
            min_arrival: vec![0.0; n],
            critical_fanin: vec![None; n],
            queued: vec![false; n],
        };
        // Initial full pass: identical traversal to StaResult::compute.
        for &id in engine.order {
            engine.relax(id.index());
        }
        Ok(engine)
    }

    /// The annotation the engine analyzes.
    pub fn annotation(&self) -> &AnnotatedDelays {
        self.ann
    }

    /// The current launch mask, one flag per primary input.
    pub fn launch(&self) -> &[bool] {
        &self.launch
    }

    /// Latest arrival of net `id` under the current launch set, ps
    /// (`−∞` when no launching input reaches it).
    pub fn arrival_ps(&self, id: NetId) -> f64 {
        self.arrival[id.index()]
    }

    /// Earliest arrival of net `id` under the current launch set, ps.
    pub fn min_arrival_ps(&self, id: NetId) -> f64 {
        self.min_arrival[id.index()]
    }

    /// Latest arrival per primary output under the current launch set,
    /// in declaration order.
    pub fn output_arrivals_ps(&self) -> Vec<f64> {
        self.ann
            .netlist()
            .outputs()
            .iter()
            .map(|&(_, o)| self.arrival[o.index()])
            .collect()
    }

    /// Primary-output indices (declaration order) whose voltage-derated
    /// arrival violates a clock period: `arrival × scale > period_ps`.
    ///
    /// The alpha-power-law derating of
    /// [`crate::VoltageDelayLaw::scale`] multiplies every gate and edge
    /// delay by one common factor, so endpoint arrivals scale linearly
    /// with it and the derated setup check reduces to this product —
    /// no re-timing needed. `derated_sta_matches_scaled_annotation`
    /// pins that equivalence against a full re-annotated STA pass.
    ///
    /// This is the fault-injection criterion: a PDN aggressor droops
    /// the victim rail, `scale` rises above `period / arrival`, and the
    /// endpoints returned here latch stale values at the clock edge.
    pub fn derated_violations(&self, scale: f64, period_ps: f64) -> Vec<usize> {
        self.ann
            .netlist()
            .outputs()
            .iter()
            .enumerate()
            .filter(|(_, &(_, o))| self.arrival[o.index()] * scale > period_ps)
            .map(|(i, _)| i)
            .collect()
    }

    /// Recomputes the arrival state of one gate from its fanins — the
    /// exact fold `StaResult::compute` performs, so a relax on unchanged
    /// fanin state is bitwise idempotent. Returns whether any
    /// propagating value changed.
    fn relax(&mut self, gi: usize) -> bool {
        let g = &self.ann.netlist().gates()[gi];
        let (arr, min_arr, crit) = if g.fanin.is_empty() {
            let launches = match self.input_pos[gi] {
                Some(pos) => self.launch[pos as usize],
                // Constants are delay-free sources pinned at t = 0, as
                // in the full pass.
                None => true,
            };
            if launches {
                (0.0, 0.0, None)
            } else {
                (f64::NEG_INFINITY, f64::NEG_INFINITY, None)
            }
        } else {
            let mut best = f64::NEG_INFINITY;
            let mut earliest = f64::INFINITY;
            let mut best_j = 0u32;
            for (j, &f) in g.fanin.iter().enumerate() {
                let t = self.arrival[f.index()] + self.ann.edge_ps(gi, j);
                if t > best {
                    best = t;
                    best_j = j as u32;
                }
                let e = self.min_arrival[f.index()] + self.ann.edge_ps(gi, j);
                if e < earliest {
                    earliest = e;
                }
            }
            (
                best + self.ann.gate_ps(gi),
                earliest + self.ann.gate_ps(gi),
                Some(best_j),
            )
        };
        // Bitwise change detection; arrivals are never NaN (delays are
        // finite and −∞ + finite = −∞).
        let changed = self.arrival[gi].to_bits() != arr.to_bits()
            || self.min_arrival[gi].to_bits() != min_arr.to_bits();
        self.arrival[gi] = arr;
        self.min_arrival[gi] = min_arr;
        self.critical_fanin[gi] = crit;
        changed
    }

    /// Switches the engine to a new launch set, re-propagating arrivals
    /// only from inputs whose launch state changed. Returns the number
    /// of nets whose arrival state was re-evaluated (an effort metric;
    /// `0` when the mask is unchanged).
    ///
    /// # Panics
    ///
    /// If `launch.len()` differs from the netlist's primary input count.
    pub fn set_launch(&mut self, launch: &[bool]) -> usize {
        assert_eq!(
            launch.len(),
            self.launch.len(),
            "launch mask must cover every primary input"
        );
        // Seed the worklist with the inputs that actually changed.
        let nl = self.ann.netlist();
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        for (pos, &new) in launch.iter().enumerate() {
            if self.launch[pos] != new {
                self.launch[pos] = new;
                let gi = nl.inputs()[pos].index();
                if !self.queued[gi] {
                    self.queued[gi] = true;
                    heap.push(Reverse((self.topo_pos[gi], gi as u32)));
                }
            }
        }
        let mut relaxed = 0usize;
        // Worklist in topological order: every dirty net is processed
        // after all of its dirty fanins, so one relax per net suffices.
        while let Some(Reverse((_, gi))) = heap.pop() {
            let gi = gi as usize;
            self.queued[gi] = false;
            relaxed += 1;
            if self.relax(gi) {
                let lo = self.fanout_start[gi] as usize;
                let hi = self.fanout_start[gi + 1] as usize;
                for k in lo..hi {
                    let consumer = self.fanout[k] as usize;
                    if !self.queued[consumer] {
                        self.queued[consumer] = true;
                        heap.push(Reverse((self.topo_pos[consumer], consumer as u32)));
                    }
                }
            }
        }
        relaxed
    }

    /// Reference implementation: a full from-scratch propagation under
    /// `launch`, with no incremental state. Used by the equivalence
    /// property tests; intentionally shares no mutable state with the
    /// incremental path (only the same per-gate fold).
    pub fn full_recompute(&self, launch: &[bool]) -> Vec<f64> {
        assert_eq!(launch.len(), self.launch.len());
        let nl = self.ann.netlist();
        let mut arrival = vec![0.0f64; nl.len()];
        for &id in self.order {
            let gi = id.index();
            let g = &nl.gates()[gi];
            if g.fanin.is_empty() {
                let launches = match self.input_pos[gi] {
                    Some(pos) => launch[pos as usize],
                    None => true,
                };
                arrival[gi] = if launches { 0.0 } else { f64::NEG_INFINITY };
                continue;
            }
            let mut best = f64::NEG_INFINITY;
            for (j, &f) in g.fanin.iter().enumerate() {
                let t = arrival[f.index()] + self.ann.edge_ps(gi, j);
                if t > best {
                    best = t;
                }
            }
            arrival[gi] = best + self.ann.gate_ps(gi);
        }
        arrival
    }

    /// All per-net latest arrivals under the current launch set, ps.
    pub fn arrivals_ps(&self) -> &[f64] {
        &self.arrival
    }

    /// Packages the current state as a [`StaResult`].
    ///
    /// With the all-launching mask (the state right after
    /// [`StaEngine::new`]) this is bit-identical to
    /// `AnnotatedDelays::sta`'s historical full recompute; under a
    /// partial launch set the result reports the launch-set arrivals
    /// (unreached nets at `−∞`).
    pub fn to_sta_result(&self) -> StaResult {
        let nl = self.ann.netlist();
        let output_arrivals: Vec<f64> = nl
            .outputs()
            .iter()
            .map(|&(_, o)| self.arrival[o.index()])
            .collect();
        let output_min_arrivals: Vec<f64> = nl
            .outputs()
            .iter()
            .map(|&(_, o)| self.min_arrival[o.index()])
            .collect();
        let critical_net = nl.outputs().iter().map(|&(_, o)| o).max_by(|&a, &b| {
            self.arrival[a.index()]
                .partial_cmp(&self.arrival[b.index()])
                .expect("arrival times are not NaN")
        });
        StaResult::from_parts(
            self.arrival.clone(),
            self.min_arrival.clone(),
            self.critical_fanin.clone(),
            output_arrivals,
            output_min_arrivals,
            critical_net,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayModel;
    use slm_netlist::generators::{ripple_carry_adder, tdc_delay_line};

    #[test]
    fn engine_full_launch_matches_compute_bitwise() {
        let nl = ripple_carry_adder(32).unwrap();
        let ann = DelayModel::default().annotate(&nl);
        let reference = StaResult::compute(&ann).unwrap();
        let engine = StaEngine::new(&ann).unwrap();
        let via_engine = engine.to_sta_result();
        assert_eq!(via_engine, reference);
        for id in (0..nl.len()).map(|i| NetId(i as u32)) {
            assert_eq!(
                engine.arrival_ps(id).to_bits(),
                reference.arrival_ps(id).to_bits()
            );
            assert_eq!(
                engine.min_arrival_ps(id).to_bits(),
                reference.min_arrival_ps(id).to_bits()
            );
        }
    }

    #[test]
    fn derated_sta_matches_scaled_annotation() {
        // `derated_violations` exploits linearity: uniformly derating
        // every delay by `scale` scales every endpoint arrival by
        // `scale`. Pin it against the honest path — re-annotate with
        // the scale folded into the delays and re-run full STA.
        let nl = ripple_carry_adder(32).unwrap();
        let model = DelayModel::default();
        let ann = model.annotate_for_period(&nl, 9.0, 1.0).unwrap();
        let engine = StaEngine::new(&ann).unwrap();
        let law = crate::VoltageDelayLaw::default();
        let period_ps = 10_000.0;
        for v in [1.0, 0.97, 0.95, 0.93, 0.90, 0.85] {
            let scale = law.scale(v);
            let fast = engine.derated_violations(scale, period_ps);
            let mut derated = ann.clone();
            derated.scale(scale);
            let slow_engine = StaEngine::new(&derated).unwrap();
            let slow: Vec<usize> = slow_engine
                .output_arrivals_ps()
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a > period_ps)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(fast, slow, "violation sets diverge at v = {v}");
        }
        // Sanity of the physics: nominal voltage meets timing, deep
        // droop does not.
        assert!(engine
            .derated_violations(law.scale(1.0), period_ps)
            .is_empty());
        assert!(!engine
            .derated_violations(law.scale(0.85), period_ps)
            .is_empty());
    }

    #[test]
    fn held_inputs_silence_their_cone() {
        let nl = tdc_delay_line(8).unwrap();
        let ann = DelayModel::default().annotate(&nl);
        let mut engine = StaEngine::new(&ann).unwrap();
        let inputs = nl.inputs().len();
        // Nothing launches: every output is unreached.
        engine.set_launch(&vec![false; inputs]);
        assert!(engine
            .output_arrivals_ps()
            .iter()
            .all(|&a| a == f64::NEG_INFINITY));
        // Back to all-launching: state must return to classic STA.
        engine.set_launch(&vec![true; inputs]);
        let reference = StaResult::compute(&ann).unwrap();
        assert_eq!(engine.to_sta_result(), reference);
    }

    #[test]
    fn unchanged_mask_relaxes_nothing() {
        let nl = ripple_carry_adder(8).unwrap();
        let ann = DelayModel::default().annotate(&nl);
        let mut engine = StaEngine::new(&ann).unwrap();
        let mask = vec![true; nl.inputs().len()];
        assert_eq!(engine.set_launch(&mask), 0);
    }

    #[test]
    fn partial_launch_matches_reference_recompute() {
        let nl = ripple_carry_adder(16).unwrap();
        let ann = DelayModel::default().annotate(&nl);
        let mut engine = StaEngine::new(&ann).unwrap();
        let inputs = nl.inputs().len();
        // Launch only operand A's low byte.
        let mut mask = vec![false; inputs];
        for m in mask.iter_mut().take(8) {
            *m = true;
        }
        engine.set_launch(&mask);
        let reference = engine.full_recompute(&mask);
        for (a, b) in engine.arrivals_ps().iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn incremental_touches_fewer_nets_than_full_pass() {
        let nl = ripple_carry_adder(64).unwrap();
        let ann = DelayModel::default().annotate(&nl);
        let mut engine = StaEngine::new(&ann).unwrap();
        let inputs = nl.inputs().len();
        // Flipping one high-order operand bit must not walk the whole
        // carry chain's fanin cone.
        let mut mask = vec![true; inputs];
        mask[62] = false;
        let relaxed = engine.set_launch(&mask);
        assert!(relaxed > 0);
        assert!(
            relaxed < nl.len() / 4,
            "flipping one input relaxed {relaxed} of {} nets",
            nl.len()
        );
    }

    #[test]
    fn cyclic_netlist_rejected() {
        let ro = slm_netlist::generators::ring_oscillator(4).unwrap();
        let ann = DelayModel::default().annotate(&ro);
        assert!(matches!(
            StaEngine::new(&ann),
            Err(TimingError::CyclicNetlist)
        ));
    }
}
