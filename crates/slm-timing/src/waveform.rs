//! Two-vector event-driven timing simulation.
//!
//! Given a stimulus pair (the sensor's "reset" vector, then its "measure"
//! vector), the simulator applies the measure vector at t = 0 to a
//! circuit settled in the reset state and records every transition each
//! net makes, with transport-delay semantics (hazard pulses propagate).
//! The per-endpoint [`Waveform`]s are the raw material of the benign
//! sensor: a capture register clocked `T` after the launch edge stores
//! `waveform.sampled_at(T / voltage_scale)`, so supply droop — which
//! stretches all delays — moves the capture point earlier in the nominal
//! waveform and flips near-critical endpoints.

use crate::delay::AnnotatedDelays;
use crate::error::TimingError;
use crate::ps_to_fs;
use serde::{Deserialize, Serialize};
use slm_netlist::graph::FanoutIndex;
use slm_netlist::{GateKind, NetId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The transition history of one net after the measure vector is applied.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Waveform {
    /// Value in the settled reset state (before t = 0).
    pub initial: bool,
    /// `(time_fs, new_value)` pairs, strictly increasing in time.
    pub transitions: Vec<(u64, bool)>,
}

impl Waveform {
    /// Value a register samples on a capture edge at `t_fs`: transitions
    /// landing exactly on the edge miss setup, so only strictly earlier
    /// transitions count.
    pub fn sampled_at(&self, t_fs: u64) -> bool {
        match self.transitions.partition_point(|&(t, _)| t < t_fs) {
            0 => self.initial,
            n => self.transitions[n - 1].1,
        }
    }

    /// Fully-settled final value.
    #[cfg(test)]
    fn final_value(&self) -> bool {
        self.transitions.last().map_or(self.initial, |&(_, v)| v)
    }

    /// Time of the last transition, fs (0 when the net never moves).
    pub fn settle_time_fs(&self) -> u64 {
        self.transitions.last().map_or(0, |&(t, _)| t)
    }

    /// Number of transitions (hazards included).
    fn transition_count(&self) -> usize {
        self.transitions.len()
    }
}

/// Result of a two-vector simulation: one waveform per net.
#[derive(Debug, Clone)]
pub struct TransitionWaves {
    waves: Vec<Waveform>,
    output_nets: Vec<u32>,
}

impl TransitionWaves {
    /// Waveforms of the primary outputs, in declaration order.
    pub fn output_waves(&self) -> Vec<&Waveform> {
        self.output_nets
            .iter()
            .map(|&o| &self.waves[o as usize])
            .collect()
    }

    /// Clones the primary-output waveforms into an owned vector (the form
    /// the sensor model consumes).
    pub fn into_output_waves(self) -> Vec<Waveform> {
        let TransitionWaves { waves, output_nets } = self;
        // Move out without cloning where possible: collect indices first.
        let mut taken: Vec<Option<Waveform>> = waves.into_iter().map(Some).collect();
        output_nets
            .iter()
            .map(|&o| {
                taken[o as usize].take().unwrap_or_else(|| Waveform {
                    // An output listed twice: clone-equivalent fallback.
                    initial: false,
                    transitions: Vec::new(),
                })
            })
            .collect()
    }

    /// Total transitions across all nets — a proxy for the dynamic power
    /// the circuit itself draws during the measure cycle.
    pub fn total_transitions(&self) -> usize {
        self.waves.iter().map(Waveform::transition_count).sum()
    }

    /// The latest settle time over the primary outputs, fs.
    pub fn settle_time_fs(&self) -> u64 {
        self.output_nets
            .iter()
            .map(|&o| self.waves[o as usize].settle_time_fs())
            .max()
            .unwrap_or(0)
    }
}

/// Simulates the reset→measure transition and records every net's
/// transition waveform.
///
/// # Errors
///
/// [`TimingError::StimulusMismatch`] when vector lengths do not match the
/// input count; [`TimingError::CyclicNetlist`] for cyclic netlists.
///
/// # Example
///
/// ```
/// use slm_netlist::generators::ripple_carry_adder;
/// use slm_netlist::words;
/// use slm_timing::{simulate_transition, DelayModel};
///
/// let nl = ripple_carry_adder(16).unwrap();
/// let ann = DelayModel::default().annotate(&nl);
/// // reset: 0 + 0; measure: 0xFFFF + 1 → carry ripples through all stages
/// let mut reset = words::to_bits(0, 16);
/// reset.extend(words::to_bits(0, 16));
/// let mut measure = words::to_bits(0xFFFF, 16);
/// measure.extend(words::to_bits(1, 16));
/// let waves = simulate_transition(&ann, &reset, &measure).unwrap();
/// let outs = waves.output_waves();
/// // sum[15] settles later than sum[0]: the carry chain in action
/// assert!(outs[15].settle_time_fs() > outs[0].settle_time_fs());
/// ```
pub fn simulate_transition(
    ann: &AnnotatedDelays,
    reset: &[bool],
    measure: &[bool],
) -> Result<TransitionWaves, TimingError> {
    let nl = ann.netlist();
    if reset.len() != nl.inputs().len() || measure.len() != nl.inputs().len() {
        return Err(TimingError::StimulusMismatch {
            expected: nl.inputs().len(),
            got: if reset.len() != nl.inputs().len() {
                reset.len()
            } else {
                measure.len()
            },
        });
    }
    let initial = nl.eval_all(reset).map_err(|_| TimingError::CyclicNetlist)?;
    let n = nl.len();
    // Each edge reading a net, as its reading gate and its position
    // among all fanin edges (`Netlist::fanin_edges`).
    let fanout = FanoutIndex::build_with(nl, |reader, edge| (reader.0, edge as u32));

    let mut values = initial.clone();
    let mut waves: Vec<Waveform> = initial
        .iter()
        .map(|&v| Waveform {
            initial: v,
            transitions: Vec::new(),
        })
        .collect();

    // Each fanin edge is a fixed-latency FIFO: the gate sees its fanin
    // value `edge_fs` later. Gates evaluate on edge arrivals against their
    // local (delayed) view and drive their net `gate_fs` later, with
    // INERTIAL delay semantics: at most one output event is in flight per
    // gate, and a re-evaluation that returns to the current output value
    // cancels the pending event — pulses shorter than the gate delay are
    // absorbed. Without this, reconvergent arrays (the C6288 multiplier)
    // amplify glitch trains combinatorially and simulation never ends;
    // with it, settled values still equal the functional evaluation
    // because the last evaluation always decides the final value.
    let gate_fs: Vec<u64> = (0..n).map(|i| ps_to_fs(ann.gate_ps(i))).collect();
    let edge_fs: Vec<u64> = (0..n)
        .flat_map(|i| ann.edge_ps(i).iter().map(|&d| ps_to_fs(d)))
        .collect();
    // Local (post-edge-delay) view of each fanin edge, settled at reset.
    let mut edge_values: Vec<bool> = nl
        .gates()
        .flat_map(|g| g.fanin.iter().map(|f| initial[f.index()]))
        .collect();
    // The single pending output event per gate: (version, value). An
    // event whose version no longer matches was cancelled.
    let mut pending: Vec<Option<(u64, bool)>> = vec![None; n];
    let mut next_version = 0u64;

    /// `Arrival`: a fanin change reaches gate `gate` on edge `edge` (a
    /// position among all fanin edges).
    /// `Output`: gate `gate` drives its net to `value` (if `version`
    /// still matches its pending slot).
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Arrival { gate: u32, edge: u32, value: bool },
        Output { gate: u32, version: u64 },
    }
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut payload: Vec<Ev> = Vec::new();
    let push =
        |heap: &mut BinaryHeap<Reverse<(u64, u64)>>, payload: &mut Vec<Ev>, t: u64, ev: Ev| {
            let seq = payload.len() as u64;
            payload.push(ev);
            heap.push(Reverse((t, seq)));
        };

    for (k, &pi) in nl.inputs().iter().enumerate() {
        if measure[k] != reset[k] {
            pending[pi.index()] = Some((next_version, measure[k]));
            push(
                &mut heap,
                &mut payload,
                0,
                Ev::Output {
                    gate: pi.0,
                    version: next_version,
                },
            );
            next_version += 1;
        }
    }
    while let Some(Reverse((t, seq))) = heap.pop() {
        match payload[seq as usize] {
            Ev::Output { gate, version } => {
                let ni = gate as usize;
                let Some((v, value)) = pending[ni] else {
                    continue; // cancelled
                };
                if v != version {
                    continue; // superseded
                }
                pending[ni] = None;
                if values[ni] == value {
                    continue;
                }
                values[ni] = value;
                match waves[ni].transitions.last_mut() {
                    Some(last) if last.0 == t => last.1 = value,
                    _ => waves[ni].transitions.push((t, value)),
                }
                for &(reader, edge) in fanout.fanouts(NetId(gate)) {
                    push(
                        &mut heap,
                        &mut payload,
                        t + edge_fs[edge as usize],
                        Ev::Arrival {
                            gate: reader,
                            edge,
                            value,
                        },
                    );
                }
            }
            Ev::Arrival { gate, edge, value } => {
                let gi = gate as usize;
                if edge_values[edge as usize] == value {
                    continue;
                }
                edge_values[edge as usize] = value;
                let kind = nl.gate(NetId(gate)).kind;
                debug_assert!(kind != GateKind::Input);
                let out = kind.eval(&edge_values[nl.fanin_edges(NetId(gate))]);
                match pending[gi] {
                    Some((_, pv)) if pv == out => {
                        // already heading to `out`; nothing new
                    }
                    Some(_) if out == values[gi] => {
                        // The in-flight pulse is narrower than the gate
                        // delay: inertial cancellation.
                        pending[gi] = None;
                    }
                    _ if out == values[gi] => {
                        // no pending event and no change
                    }
                    _ => {
                        pending[gi] = Some((next_version, out));
                        push(
                            &mut heap,
                            &mut payload,
                            t + gate_fs[gi],
                            Ev::Output {
                                gate,
                                version: next_version,
                            },
                        );
                        next_version += 1;
                    }
                }
            }
        }
    }
    // Drop no-op transition pairs introduced by same-time merging (a net
    // that returned to its previous value within one merged instant).
    for w in &mut waves {
        let mut prev = w.initial;
        w.transitions.retain(|&(_, v)| {
            let keep = v != prev;
            if keep {
                prev = v;
            }
            keep
        });
    }
    let output_nets = nl.outputs().iter().map(|&(_, o)| o.0).collect();
    Ok(TransitionWaves { waves, output_nets })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayModel;
    use slm_netlist::generators::{ripple_carry_adder, tdc_delay_line};
    use slm_netlist::{words, NetlistBuilder};

    fn flat_model() -> DelayModel {
        DelayModel {
            inv_ps: 40.0,
            simple_ps: 50.0,
            xor_ps: 60.0,
            per_fanout_ps: 0.0,
            variation_frac: 0.0,
            routing_min_ps: 100.0,
            routing_max_ps: 100.0,
            seed: 1,
        }
    }

    #[test]
    fn buffer_chain_propagates_step() {
        let nl = tdc_delay_line(5).unwrap();
        let ann = flat_model().annotate(&nl);
        let waves = simulate_transition(&ann, &[false], &[true]).unwrap();
        let outs = waves.output_waves();
        for (i, w) in outs.iter().enumerate() {
            assert_eq!(w.transition_count(), 1, "tap {i}");
            let t = w.transitions[0].0;
            assert_eq!(t, (i as u64 + 1) * 140_000, "tap {i}"); // (100+40) ps
            assert!(w.final_value());
        }
    }

    #[test]
    fn sampling_semantics() {
        let w = Waveform {
            initial: false,
            transitions: vec![(100, true), (200, false)],
        };
        assert!(!w.sampled_at(100)); // strict: setup missed
        assert!(w.sampled_at(150));
        assert!(!w.sampled_at(250));
        assert!(!w.final_value());
        assert_eq!(w.settle_time_fs(), 200);
    }

    #[test]
    fn carry_chain_settle_times_increase() {
        let n = 32;
        let nl = ripple_carry_adder(n).unwrap();
        let ann = flat_model().annotate(&nl);
        let mut reset = words::to_bits(0, n);
        reset.extend(words::to_bits(0, n));
        let mut measure = words::to_bits((1u128 << n) - 1, n);
        measure.extend(words::to_bits(1, n));
        let waves = simulate_transition(&ann, &reset, &measure).unwrap();
        let outs = waves.output_waves();
        // sum bits: transient 1 then settle to 0 when the carry arrives
        let mut prev = 0;
        for (i, w) in outs.iter().enumerate().take(n).skip(1) {
            let st = w.settle_time_fs();
            assert!(st >= prev, "bit {i} settles before bit {}", i - 1);
            assert!(!w.final_value(), "sum bit {i} must settle to 0");
            prev = st;
        }
        assert!(outs[n].final_value(), "carry out is 1");
        // the paper's hazard: mid bits briefly go high before the carry
        assert!(
            outs[10].transition_count() >= 2,
            "expected a hazard on sum[10], got {:?}",
            outs[10].transitions
        );
    }

    #[test]
    fn final_values_match_functional_eval() {
        let n = 16;
        let nl = ripple_carry_adder(n).unwrap();
        let ann = DelayModel::default().annotate(&nl);
        for (a, b) in [(0u128, 0u128), (123, 456), (0xffff, 1), (0x8421, 0x1248)] {
            let mut reset = words::to_bits(0, n);
            reset.extend(words::to_bits(0, n));
            let mut measure = words::to_bits(a, n);
            measure.extend(words::to_bits(b, n));
            let waves = simulate_transition(&ann, &reset, &measure).unwrap();
            let settled: Vec<bool> = waves
                .output_waves()
                .iter()
                .map(|w| w.final_value())
                .collect();
            assert_eq!(settled, nl.eval(&measure).unwrap(), "a={a} b={b}");
        }
    }

    #[test]
    fn no_stimulus_change_no_activity() {
        let nl = ripple_carry_adder(8).unwrap();
        let ann = DelayModel::default().annotate(&nl);
        let mut v = words::to_bits(77, 8);
        v.extend(words::to_bits(11, 8));
        let waves = simulate_transition(&ann, &v, &v).unwrap();
        assert_eq!(waves.total_transitions(), 0);
        assert_eq!(waves.settle_time_fs(), 0);
    }

    #[test]
    fn stimulus_mismatch_rejected() {
        let nl = ripple_carry_adder(8).unwrap();
        let ann = DelayModel::default().annotate(&nl);
        assert!(matches!(
            simulate_transition(&ann, &[true], &[true]),
            Err(TimingError::StimulusMismatch { .. })
        ));
    }

    #[test]
    fn glitch_on_reconvergent_xor() {
        // y = a XOR buf(a): settles to 0 but glitches when a flips because
        // one branch is slower.
        let mut b = NetlistBuilder::new("glitch");
        let a = b.input("a");
        let d = b.buf(a);
        let d2 = b.buf(d);
        let y = b.xor2(a, d2);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let ann = flat_model().annotate(&nl);
        let waves = simulate_transition(&ann, &[false], &[true]).unwrap();
        let w = &waves.output_waves()[0];
        assert!(!w.final_value());
        assert!(w.transition_count() >= 2, "expected glitch: {w:?}");
    }

    /// A gate that reads one net on two fanins sees the change on both
    /// edges: `AND(a, a)` rises once and settles high.
    #[test]
    fn repeated_fanin_sees_the_change_on_every_edge() {
        let mut b = NetlistBuilder::new("dup");
        let a = b.input("a");
        let y = b.gate(GateKind::And, &[a, a]);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let ann = flat_model().annotate(&nl);
        let waves = simulate_transition(&ann, &[false], &[true]).unwrap();
        let w = &waves.output_waves()[0];
        assert_eq!(w.transitions, [(150_000, true)], "{w:?}");
    }

    #[test]
    fn into_output_waves_matches_refs() {
        let nl = tdc_delay_line(3).unwrap();
        let ann = flat_model().annotate(&nl);
        let waves = simulate_transition(&ann, &[false], &[true]).unwrap();
        let borrowed: Vec<Waveform> = waves.output_waves().into_iter().cloned().collect();
        let owned = waves.into_output_waves();
        assert_eq!(borrowed, owned);
    }
}
