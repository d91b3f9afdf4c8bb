//! SCOAP-style controllability/observability scoring of endpoints.

use crate::analysis::Analysis;
use crate::config::{CheckerConfig, ScoapConfig};
use crate::diag::{span_of, CheckKind, Finding, Severity};
use crate::pass::{Pass, Prior};
use slm_netlist::{GateKind, NetId, Netlist, TopoOrder};

/// Saturation ceiling for SCOAP scores (uncontrollable / unobservable).
const INF: u64 = u64::MAX / 4;

fn sat(a: u64, b: u64) -> u64 {
    a.saturating_add(b).min(INF)
}

/// Combinational 0/1-controllability per net (Goldstein's SCOAP),
/// computed over a topological order.
fn controllability(nl: &Netlist, order: TopoOrder<'_>) -> (Vec<u64>, Vec<u64>) {
    let n = nl.len();
    let mut cc0 = vec![INF; n];
    let mut cc1 = vec![INF; n];
    for v in order {
        let g = nl.gate(v);
        let f = |id: NetId| (cc0[id.index()], cc1[id.index()]);
        let (c0, c1) = match g.kind {
            GateKind::Input => (1, 1),
            GateKind::Const0 => (1, INF),
            GateKind::Const1 => (INF, 1),
            GateKind::Buf => {
                let (a0, a1) = f(g.fanin[0]);
                (sat(a0, 1), sat(a1, 1))
            }
            GateKind::Not => {
                let (a0, a1) = f(g.fanin[0]);
                (sat(a1, 1), sat(a0, 1))
            }
            GateKind::And | GateKind::Nand => {
                let all_one = g.fanin.iter().fold(0, |acc, &i| sat(acc, f(i).1));
                let any_zero = g.fanin.iter().map(|&i| f(i).0).min().unwrap_or(INF);
                if g.kind == GateKind::And {
                    (sat(any_zero, 1), sat(all_one, 1))
                } else {
                    (sat(all_one, 1), sat(any_zero, 1))
                }
            }
            GateKind::Or | GateKind::Nor => {
                let all_zero = g.fanin.iter().fold(0, |acc, &i| sat(acc, f(i).0));
                let any_one = g.fanin.iter().map(|&i| f(i).1).min().unwrap_or(INF);
                if g.kind == GateKind::Or {
                    (sat(all_zero, 1), sat(any_one, 1))
                } else {
                    (sat(any_one, 1), sat(all_zero, 1))
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                // Fold the parity pairwise: cost of even / odd parity.
                let (mut e, mut o) = (0u64, INF);
                for &i in g.fanin {
                    let (a0, a1) = f(i);
                    let ne = sat(e, a0).min(sat(o, a1));
                    let no = sat(e, a1).min(sat(o, a0));
                    e = ne;
                    o = no;
                }
                if g.kind == GateKind::Xor {
                    (sat(e, 1), sat(o, 1))
                } else {
                    (sat(o, 1), sat(e, 1))
                }
            }
        };
        cc0[v.index()] = c0;
        cc1[v.index()] = c1;
    }
    (cc0, cc1)
}

/// Combinational observability per net: cost of propagating the net's
/// value to some primary output.
fn observability(cx: &Analysis<'_>, order: TopoOrder<'_>, cc0: &[u64], cc1: &[u64]) -> Vec<u64> {
    let nl = cx.netlist();
    let mut co = vec![INF; nl.len()];
    for &(_, o) in nl.outputs() {
        co[o.index()] = 0;
    }
    for v in order.iter().rev() {
        let g = nl.gate(v);
        let through = co[v.index()];
        if through >= INF {
            continue;
        }
        for (i, &fi) in g.fanin.iter().enumerate() {
            let side: u64 = g
                .fanin
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &fj)| match g.kind {
                    GateKind::And | GateKind::Nand => cc1[fj.index()],
                    GateKind::Or | GateKind::Nor => cc0[fj.index()],
                    _ => cc0[fj.index()].min(cc1[fj.index()]),
                })
                .fold(0, sat);
            let cost = sat(sat(through, side), 1);
            let slot = &mut co[fi.index()];
            *slot = (*slot).min(cost);
        }
    }
    co
}

/// Per-net input bitsets the lower-bound prune may allocate in one
/// scan, in `u64` words (8 MiB). Larger designs skip the prune and
/// rely on the early-exit walk alone. A constant rather than a config
/// field, so it never enters a scan key.
const PRUNE_BUDGET_WORDS: usize = 1 << 20;

/// The input-set width, in bits, beyond which the rule-out test of
/// [`walk_cones`] decides nothing new.
///
/// With `r` the `min_chain_ratio`, an endpoint of depth `d` whose cone
/// reaches at least `k` inputs is ruled out once `d / (d + k - 1) < r`,
/// that is once `k > d·(1/r - 1) + 1`. With `D` the deepest endpoint at
/// or above `min_depth`, a count that reaches `⌈D·(1/r - 1)⌉ + 2` rules
/// out any deep endpoint, so no count need go higher. Unbounded
/// (`usize::MAX`) unless `0 < r < 1`, which also excludes NaN.
fn rule_out_bits(nl: &Netlist, level: &[usize], config: &ScoapConfig) -> usize {
    let r = config.min_chain_ratio;
    if !(r > 0.0 && r < 1.0) {
        return usize::MAX;
    }
    let deepest = nl
        .outputs()
        .iter()
        .map(|&(_, o)| level[o.index()])
        .filter(|&depth| depth >= config.min_depth)
        .max()
        .unwrap_or(0);
    // A float-to-int `as` saturates, so a huge width stays unbounded.
    ((deepest as f64 * (1.0 / r - 1.0)).ceil() + 2.0) as usize
}

/// Lower bounds on the primary inputs in the fanin cone of every
/// output, in output order, and the `u64` words per net it took.
struct ConeInputs {
    per_output: Vec<u32>,
    words: usize,
}

/// Counts the primary inputs (gates of kind [`GateKind::Input`]) in
/// every output's fanin cone from one topological pass over per-net
/// bitsets of `B = min(inputs, bits)` bits, input `j` setting bit
/// `j mod B`. Inputs that share a bit count once, so the count never
/// exceeds the cone's distinct inputs and stays a lower bound; it is
/// exact when `B` is the input count. `None` when the bitsets would
/// exceed `budget_words`.
///
/// A net's set is still all zero when the pass reaches it, and its
/// fanins' sets are final, so each fanin's words are ORed straight into
/// it; a one-word set is gathered in a register.
fn inputs_in_cone(
    nl: &Netlist,
    order: TopoOrder<'_>,
    bits: usize,
    budget_words: usize,
) -> Option<ConeInputs> {
    let mut bit = vec![u32::MAX; nl.len()];
    let mut inputs = 0u32;
    for (i, g) in nl.gates().enumerate() {
        if g.kind == GateKind::Input {
            bit[i] = inputs;
            inputs += 1;
        }
    }
    let width = (inputs as usize).min(bits);
    let words = width.div_ceil(64);
    if words == 0 {
        return Some(ConeInputs {
            per_output: vec![0; nl.outputs().len()],
            words,
        });
    }
    if nl.len().checked_mul(words)? > budget_words {
        return None;
    }
    let mut sets = vec![0u64; nl.len() * words];
    for v in order {
        let vi = v.index();
        let b = bit[vi];
        if words == 1 {
            let mut set = if b != u32::MAX {
                1 << (b as usize % width)
            } else {
                0
            };
            for &f in nl.gate(v).fanin {
                set |= sets[f.index()];
            }
            sets[vi] = set;
            continue;
        }
        if b != u32::MAX {
            let b = b as usize % width;
            sets[vi * words + b / 64] |= 1 << (b % 64);
        }
        for &f in nl.gate(v).fanin {
            let fi = f.index();
            // An acyclic netlist's fanin is never the net itself.
            let (set, src) = if fi < vi {
                let (lo, hi) = sets.split_at_mut(vi * words);
                (&mut hi[..words], &lo[fi * words..][..words])
            } else {
                let (lo, hi) = sets.split_at_mut(fi * words);
                (&mut lo[vi * words..][..words], &hi[..words])
            };
            for (w, s) in set.iter_mut().zip(src) {
                *w |= s;
            }
        }
    }
    let per_output = nl
        .outputs()
        .iter()
        .map(|&(_, o)| {
            sets[o.index() * words..][..words]
                .iter()
                .map(|w| w.count_ones())
                .sum()
        })
        .collect();
    Some(ConeInputs { per_output, words })
}

/// The chain-shaped endpoints of a design and the work it took to find
/// them.
pub(crate) struct ChainScan {
    /// Endpoints with `depth / max(cone - 1, 1) >= min_chain_ratio`,
    /// in output order.
    pub(crate) endpoints: Vec<NetId>,
    /// Nets visited: one per net of the prune's topological pass plus
    /// one per net a cone walk popped. Read by the work-bound test.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) visits: usize,
    /// The prune's `u64` bitset words per net, 0 when it was not
    /// built. Read by the work-bound test.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) prune_words: usize,
}

/// Finds the chain-shaped endpoints at or above `min_depth` without
/// walking every deep cone in full; the prune may allocate up to
/// `prune_budget_words` words of bitsets.
///
/// A cone holds the `depth` gates of its longest path plus every
/// primary input it reaches (inputs sit at depth 0, so none is on the
/// path's gates), which bounds its size from below. An endpoint whose
/// bound already puts its ratio under `min_chain_ratio` is ruled out
/// without a walk. The remaining walks stop as soon as the ratio drops
/// under the threshold: the cone only grows, so the ratio only falls.
/// Both shortcuts decide exactly what a full walk would.
///
/// A walk so cut stops within `depth / min_chain_ratio + 2` nets, while
/// the prune costs one pass over every net. The prune is built only
/// when the walks' total bound exceeds that pass; otherwise the walks
/// alone are cheaper (Kogge-Stone adders, shallow designs). Its input
/// sets are only as wide as [`rule_out_bits`] asks.
pub(crate) fn chain_shaped(
    nl: &Netlist,
    order: TopoOrder<'_>,
    level: &[usize],
    config: &ScoapConfig,
    prune_budget_words: usize,
) -> ChainScan {
    let walk_bound: f64 = nl
        .outputs()
        .iter()
        .map(|&(_, o)| level[o.index()])
        .filter(|&depth| depth >= config.min_depth)
        .map(|depth| depth as f64 / config.min_chain_ratio + 2.0)
        .sum();
    // At a ratio of zero (or NaN) the rule-out test cannot fire, so a
    // prune would only cost its pass.
    let inputs = if config.min_chain_ratio > 0.0 && walk_bound > nl.len() as f64 {
        let bits = rule_out_bits(nl, level, config);
        inputs_in_cone(nl, order, bits, prune_budget_words)
    } else {
        None
    };
    walk_cones(nl, level, config, inputs.as_ref())
}

/// The early-exit cone walks of [`chain_shaped`], skipping endpoints
/// the per-output input counts `inputs` (when built) rule out.
fn walk_cones(
    nl: &Netlist,
    level: &[usize],
    config: &ScoapConfig,
    inputs: Option<&ConeInputs>,
) -> ChainScan {
    let ratio = |depth: usize, cone: usize| depth as f64 / (cone.saturating_sub(1).max(1)) as f64;
    let mut visits = if inputs.is_some() { nl.len() } else { 0 };
    let mut stamp = vec![0u32; nl.len()];
    let mut epoch = 0u32;
    let mut stack: Vec<NetId> = Vec::new();
    let mut endpoints = Vec::new();
    for (k, &(_, o)) in nl.outputs().iter().enumerate() {
        let depth = level[o.index()];
        if depth < config.min_depth {
            continue;
        }
        if let Some(inputs) = inputs {
            let bound = depth + inputs.per_output[k] as usize;
            if bound >= 2 && ratio(depth, bound) < config.min_chain_ratio {
                continue;
            }
        }
        epoch += 1;
        stack.clear();
        let mut cone = 0usize;
        let mut cut = false;
        stack.push(o);
        stamp[o.index()] = epoch;
        while let Some(v) = stack.pop() {
            cone += 1;
            visits += 1;
            if cone >= 2 && ratio(depth, cone) < config.min_chain_ratio {
                cut = true;
                break;
            }
            for &f in nl.gate(v).fanin {
                if stamp[f.index()] != epoch {
                    stamp[f.index()] = epoch;
                    stack.push(f);
                }
            }
        }
        if !cut && ratio(depth, cone) >= config.min_chain_ratio {
            endpoints.push(o);
        }
    }
    ChainScan {
        endpoints,
        visits,
        prune_words: inputs.map_or(0, |c| c.words),
    }
}

/// Scores how sensor-like the endpoint registers of a design are.
///
/// A TDC endpoint sits at the end of a deep logic cone that is barely
/// wider than it is deep (a chain), which in SCOAP terms means its
/// controllability grows linearly with depth while every chain net
/// stays cheaply observable. Ordinary arithmetic endpoints have wide
/// cones — depth is a small fraction of cone size — so the
/// depth-to-cone "chain ratio" cleanly separates the two. The pass
/// fires `Warn` when enough endpoints look sensor-like, `Info` when
/// only a sub-threshold group does.
pub struct ScoapSensorPass;

impl Pass for ScoapSensorPass {
    fn name(&self) -> &'static str {
        "scoap-sensor"
    }

    fn description(&self) -> &'static str {
        "SCOAP-style sensor-likeness of endpoint registers"
    }

    fn run(
        &self,
        cx: &Analysis<'_>,
        config: &CheckerConfig,
        _prior: &Prior<'_>,
        findings: &mut Vec<Finding>,
    ) {
        let nl = cx.netlist();
        let Ok(order) = nl.topological_order() else {
            return; // cyclic designs are rejected by the loop pass
        };
        if nl.outputs().is_empty() {
            return;
        }
        // Logic depth per net, shared with the semantic passes.
        let Some(level) = cx.levels() else {
            return;
        };
        let sensor_like =
            chain_shaped(nl, order, level, &config.scoap, PRUNE_BUDGET_WORDS).endpoints;
        // An empty group has no witness, even when `min_endpoints = 0`.
        let Some(witness) = sensor_like.iter().copied().max_by_key(|o| level[o.index()]) else {
            return;
        };
        if sensor_like.len() < config.scoap.min_endpoints {
            return;
        }
        let (cc0, cc1) = controllability(nl, order);
        let co = observability(cx, order, &cc0, &cc1);
        let depth_sum: usize = sensor_like.iter().map(|o| level[o.index()]).sum();
        let ctrl_sum = sensor_like
            .iter()
            .fold(0, |acc, o| sat(acc, cc0[o.index()].min(cc1[o.index()])));
        let total = nl.outputs().len();
        let fraction = sensor_like.len() as f64 / total as f64;
        let mean_depth = depth_sum as f64 / sensor_like.len() as f64;
        let mean_ctrl = ctrl_sum as f64 / sensor_like.len() as f64;
        let observable = co.iter().filter(|&&c| c < INF).count();
        let severity = if fraction >= config.scoap.min_endpoint_fraction {
            Severity::Warn
        } else {
            Severity::Info
        };
        findings.push(
            Finding::new(
                CheckKind::SensorLikeEndpoints,
                severity,
                self.name(),
                format!(
                    "{}/{total} endpoints are chain-shaped (mean depth {mean_depth:.0}, \
                     mean controllability {mean_ctrl:.0}, {observable}/{} nets observable)",
                    sensor_like.len(),
                    nl.len(),
                ),
            )
            .with_witness(witness)
            .with_span(span_of(nl, &sensor_like)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use slm_netlist::generators::{
        alu, array_multiplier, carry_lookahead_adder, carry_select_adder, carry_sensor,
        kogge_stone_adder, obfuscated_tdc_delay_line, ripple_carry_adder, tapped_carry_chain,
        tdc_delay_line, wallace_multiplier,
    };

    /// Nets a full walk of every deep endpoint's cone visits.
    fn full_walk_visits(nl: &Netlist, level: &[usize], min_depth: usize) -> usize {
        let mut total = 0;
        for &(_, o) in nl.outputs() {
            if level[o.index()] < min_depth {
                continue;
            }
            let mut seen = vec![false; nl.len()];
            let mut stack = vec![o];
            seen[o.index()] = true;
            while let Some(v) = stack.pop() {
                total += 1;
                for &f in nl.gate(v).fanin {
                    if !std::mem::replace(&mut seen[f.index()], true) {
                        stack.push(f);
                    }
                }
            }
        }
        total
    }

    /// The speed-up guard, in visited nets rather than wall time: on
    /// wide adders and carry chains the chain test stays within a few
    /// passes over the design, where a full walk per deep endpoint is
    /// quadratic.
    #[test]
    fn chain_test_does_near_linear_work_on_wide_adders() {
        let config = ScoapConfig::default();
        for nl in [
            kogge_stone_adder(640).unwrap(),
            ripple_carry_adder(640).unwrap(),
            tapped_carry_chain(640).unwrap(),
        ] {
            let cx = Analysis::new(&nl);
            let level = cx.levels().unwrap();
            let order = nl.topological_order().unwrap();
            let scan = chain_shaped(&nl, order, level, &config, PRUNE_BUDGET_WORDS);
            assert!(
                scan.visits <= 4 * nl.len(),
                "{}: {} visits over {} nets",
                nl.name(),
                scan.visits,
                nl.len()
            );
            assert!(
                full_walk_visits(&nl, level, config.min_depth) > 16 * nl.len(),
                "{}: the guard must have teeth",
                nl.name()
            );
        }
    }

    /// The narrowed prune's own work bound on the widest adders the
    /// corpus draws: `⌈B/64⌉` words per net, `B = min(inputs,
    /// ⌈D·(1/r − 1)⌉ + 2)` for the deepest deep endpoint `D`, instead
    /// of one bit per input, and at most four visits per net.
    #[test]
    fn narrowed_prune_work_is_bounded_on_wide_adders() {
        let config = ScoapConfig::default();
        for nl in [
            ripple_carry_adder(640).unwrap(),
            carry_select_adder(640).unwrap(),
        ] {
            let cx = Analysis::new(&nl);
            let level = cx.levels().unwrap();
            let order = nl.topological_order().unwrap();
            let inputs = nl.inputs().len();
            let deepest = nl
                .outputs()
                .iter()
                .map(|&(_, o)| level[o.index()])
                .filter(|&depth| depth >= config.min_depth)
                .max()
                .unwrap();
            let bits = (deepest as f64 * (1.0 / config.min_chain_ratio - 1.0)).ceil() as usize + 2;
            let words = bits.min(inputs).div_ceil(64);
            let scan = chain_shaped(&nl, order, level, &config, PRUNE_BUDGET_WORDS);
            assert!(
                (1..=words).contains(&scan.prune_words),
                "{}: {} words per net, bound {words}",
                nl.name(),
                scan.prune_words
            );
            assert!(
                words < inputs.div_ceil(64),
                "{}: the bound must be narrower than one bit per input",
                nl.name()
            );
            assert!(
                scan.visits <= 4 * nl.len(),
                "{}: {} visits over {} nets",
                nl.name(),
                scan.visits,
                nl.len()
            );
        }
    }

    /// Past the bitset budget the prune is skipped and the early-exit
    /// walks alone decide — the same endpoints either way, each walk
    /// stopping within `depth / min_chain_ratio + 2` nets.
    #[test]
    fn over_budget_designs_skip_the_prune_with_the_same_verdict() {
        let config = ScoapConfig {
            min_depth: 4,
            ..ScoapConfig::default()
        };
        for nl in [
            alu(32).unwrap(),
            ripple_carry_adder(64).unwrap(),
            carry_sensor(64, 4).unwrap(),
            tdc_delay_line(64).unwrap(),
            obfuscated_tdc_delay_line(48).unwrap(),
        ] {
            let cx = Analysis::new(&nl);
            let level = cx.levels().unwrap();
            let order = nl.topological_order().unwrap();
            let pruned = chain_shaped(&nl, order, level, &config, PRUNE_BUDGET_WORDS);
            let walked = chain_shaped(&nl, order, level, &config, 0);
            assert_eq!(pruned.endpoints, walked.endpoints, "{}", nl.name());
            let bound: f64 = nl
                .outputs()
                .iter()
                .map(|&(_, o)| level[o.index()])
                .filter(|&depth| depth >= config.min_depth)
                .map(|depth| depth as f64 / config.min_chain_ratio + 2.0)
                .sum();
            assert!(walked.visits as f64 <= bound, "{}", nl.name());
            assert!(
                inputs_in_cone(&nl, order, usize::MAX, 0).is_none(),
                "{}",
                nl.name()
            );
        }
    }

    /// At a chain ratio of `+0.0` no endpoint can be ruled out, so no
    /// prune is built: the scan matches the one at `-0.0`, whose
    /// infinite-negative walk bound never built one.
    #[test]
    fn zero_chain_ratio_builds_no_prune() {
        let nl = ripple_carry_adder(64).unwrap();
        let cx = Analysis::new(&nl);
        let level = cx.levels().unwrap();
        let order = nl.topological_order().unwrap();
        let [positive, negative] = [0.0, -0.0].map(|min_chain_ratio| {
            let config = ScoapConfig {
                min_chain_ratio,
                ..ScoapConfig::default()
            };
            chain_shaped(&nl, order, level, &config, PRUNE_BUDGET_WORDS)
        });
        assert_eq!(positive.endpoints.len(), 60);
        assert_eq!(positive.visits, 12_716);
        assert_eq!(positive.endpoints, negative.endpoints);
        assert_eq!((positive.prune_words, negative.prune_words), (0, 0));
        assert_eq!(positive.visits, negative.visits);
    }

    /// A design of a `scan-cold` generator family at `width` (clamped
    /// into the family's range).
    fn family_design(family: usize, width: usize, tap: usize) -> Netlist {
        match family {
            0 => ripple_carry_adder(width),
            1 => carry_lookahead_adder(width),
            2 => carry_select_adder(width),
            3 => kogge_stone_adder(width),
            4 => alu(width.min(256)),
            5 => array_multiplier(4 + width % 29),
            6 => wallace_multiplier(4 + width % 29),
            7 => tapped_carry_chain(width.max(16)),
            _ => carry_sensor(width, tap),
        }
        .unwrap()
    }

    /// A random DAG with deep, narrow stretches: each gate reads the
    /// previous gate with probability `chain_pct` percent, otherwise
    /// any earlier net.
    fn random_dag(seed: u64, inputs: usize, gates: usize, chain_pct: u64) -> Netlist {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut all: Vec<(GateKind, Vec<NetId>)> =
            (0..inputs).map(|_| (GateKind::Input, vec![])).collect();
        const KINDS: [GateKind; 5] = [
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Xor,
            GateKind::Or,
        ];
        for _ in 0..gates {
            let n = all.len();
            let kind = KINDS[(next() % KINDS.len() as u64) as usize];
            let mut pick = |prefer_last: bool| {
                if prefer_last && next() % 100 < chain_pct {
                    NetId(n as u32 - 1)
                } else {
                    NetId((next() % n as u64) as u32)
                }
            };
            let mut fanin = vec![pick(true)];
            if kind.arity().1 > 1 {
                fanin.push(pick(false));
            }
            all.push((kind, fanin));
        }
        let n = all.len();
        let outputs = (0..1 + (next() % 12) as usize)
            .map(|k| {
                let at = if k == 0 {
                    n - 1
                } else {
                    (next() % n as u64) as usize
                };
                (format!("y{k}"), NetId(at as u32))
            })
            .collect();
        let ins = (0..inputs as u32).map(NetId).collect();
        Netlist::from_parts("dag", all, ins, outputs, vec![]).unwrap()
    }

    /// `nl` with its net order reversed, so every fanin refers forward:
    /// the shape of a parsed design listed outputs first.
    fn mirrored(nl: &Netlist) -> Netlist {
        let n = nl.len();
        let flip = |f: NetId| NetId((n - 1 - f.index()) as u32);
        let gates: Vec<(GateKind, Vec<NetId>)> = (0..n)
            .rev()
            .map(|i| {
                let g = nl.gate(NetId(i as u32));
                (g.kind, g.fanin.iter().map(|&f| flip(f)).collect())
            })
            .collect();
        let names = (0..n)
            .rev()
            .map(|i| nl.net_name(NetId(i as u32)).map(str::to_string))
            .collect();
        let inputs = nl.inputs().iter().map(|&i| flip(i)).collect();
        let outputs = nl
            .outputs()
            .iter()
            .map(|(name, o)| (name.clone(), flip(*o)))
            .collect();
        Netlist::from_parts(nl.name(), gates, inputs, outputs, names).unwrap()
    }

    /// `inputs_in_cone` as first written: each net's set is gathered in
    /// a scratch accumulator, then copied into place. The reference the
    /// in-place sweep must match on every output's count.
    fn accumulated_cone_inputs(
        nl: &Netlist,
        order: TopoOrder<'_>,
        bits: usize,
        budget_words: usize,
    ) -> Option<Vec<u32>> {
        let mut bit = vec![u32::MAX; nl.len()];
        let mut inputs = 0u32;
        for (i, g) in nl.gates().enumerate() {
            if g.kind == GateKind::Input {
                bit[i] = inputs;
                inputs += 1;
            }
        }
        let width = (inputs as usize).min(bits);
        let words = width.div_ceil(64);
        if words == 0 {
            return Some(vec![0; nl.outputs().len()]);
        }
        if nl.len().checked_mul(words)? > budget_words {
            return None;
        }
        let mut sets = vec![0u64; nl.len() * words];
        let mut acc = vec![0u64; words];
        for v in order {
            acc.fill(0);
            let b = bit[v.index()];
            if b != u32::MAX {
                let b = b as usize % width;
                acc[b / 64] |= 1 << (b % 64);
            }
            for &f in nl.gate(v).fanin {
                let src = &sets[f.index() * words..][..words];
                for (a, s) in acc.iter_mut().zip(src) {
                    *a |= s;
                }
            }
            sets[v.index() * words..][..words].copy_from_slice(&acc);
        }
        Some(
            nl.outputs()
                .iter()
                .map(|&(_, o)| {
                    sets[o.index() * words..][..words]
                        .iter()
                        .map(|w| w.count_ones())
                        .sum()
                })
                .collect(),
        )
    }

    /// The cone-input counts equal the accumulator reference's at one,
    /// two and many words per net, at widths that fold inputs onto
    /// shared bits, in net order and mirrored, and the bitsets are
    /// refused exactly when they would pass the budget.
    #[test]
    fn cone_input_counts_match_the_accumulator_reference() {
        let mut refused = 0;
        for seed in 0..16u64 {
            for (inputs, gates) in [
                (3, 40),
                (64, 200),
                (65, 150),
                (128, 300),
                (129, 200),
                (700, 400),
            ] {
                let dag = random_dag(seed, inputs, gates, 50);
                for nl in [mirrored(&dag), dag] {
                    let order = nl.topological_order().unwrap();
                    for bits in [1, 63, 64, 65, 128, 200, usize::MAX] {
                        let cells = nl.len() * inputs.min(bits).div_ceil(64);
                        for budget in [usize::MAX, cells, cells - 1] {
                            let want = accumulated_cone_inputs(&nl, order, bits, budget);
                            let got =
                                inputs_in_cone(&nl, order, bits, budget).map(|c| c.per_output);
                            assert_eq!(got, want, "{seed} {inputs} {bits} {budget}");
                            refused += usize::from(want.is_none());
                        }
                    }
                }
            }
        }
        assert_eq!(
            refused,
            16 * 6 * 2 * 7,
            "every budget one word short is refused"
        );
    }

    /// The chain test four ways agree on the endpoints: as a scan runs
    /// it, with the prune forced (past any budget) at the width the
    /// threshold asks and at one bit per input, and by the early-exit
    /// walks alone. Gating never adds work, narrowing never widens the
    /// bitsets, one bit per input counts each output's cone inputs
    /// exactly, and a narrowed count never exceeds that.
    fn assert_scans_agree(nl: &Netlist, config: &ScoapConfig) {
        let cx = Analysis::new(nl);
        let level = cx.levels().unwrap();
        let order = nl.topological_order().unwrap();
        let bits = rule_out_bits(nl, level, config);
        let narrowed_inputs = inputs_in_cone(nl, order, bits, usize::MAX).unwrap();
        let exact_inputs = inputs_in_cone(nl, order, usize::MAX, usize::MAX).unwrap();
        let gated = chain_shaped(nl, order, level, config, PRUNE_BUDGET_WORDS);
        let narrowed = walk_cones(nl, level, config, Some(&narrowed_inputs));
        let exact = walk_cones(nl, level, config, Some(&exact_inputs));
        let walked = chain_shaped(nl, order, level, config, 0);
        assert_eq!(gated.endpoints, narrowed.endpoints, "{}", nl.name());
        assert_eq!(gated.endpoints, exact.endpoints, "{}", nl.name());
        assert_eq!(gated.endpoints, walked.endpoints, "{}", nl.name());
        assert!(
            gated.visits <= narrowed.visits,
            "{}: gated {} > forced {}",
            nl.name(),
            gated.visits,
            narrowed.visits
        );
        assert!(narrowed.prune_words <= exact.prune_words, "{}", nl.name());
        for (k, &(_, o)) in nl.outputs().iter().enumerate() {
            let mut seen = vec![false; nl.len()];
            let mut stack = vec![o];
            let mut inputs = 0;
            while let Some(v) = stack.pop() {
                if std::mem::replace(&mut seen[v.index()], true) {
                    continue;
                }
                inputs += u32::from(nl.gate(v).kind == GateKind::Input);
                stack.extend(nl.gate(v).fanin.iter().copied());
            }
            let output = format!("{} output {k}", nl.name());
            assert_eq!(exact_inputs.per_output[k], inputs, "{output}");
            assert!(narrowed_inputs.per_output[k] <= inputs, "{output}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prune_gate_keeps_endpoints_on_generator_families(
            family in 0usize..9,
            width in 8usize..=640,
            tap in proptest::sample::select(vec![2usize, 3, 4, 6, 8]),
        ) {
            assert_scans_agree(&family_design(family, width, tap), &ScoapConfig::default());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Wide DAGs have more than `64·B` inputs, `B` the narrowed
        /// width, so inputs share bits many times over.
        #[test]
        fn prune_gate_keeps_endpoints_on_random_dags(
            seed in any::<u64>(),
            inputs in 1usize..80,
            gates in 1usize..400,
            wide in proptest::sample::select(vec![false, true]),
            chain_pct in proptest::sample::select(vec![0u64, 50, 90, 100]),
            min_depth in 1usize..20,
            min_chain_ratio in proptest::sample::select(vec![0.0f64, 0.25, 0.8, 1.0, 4.0]),
        ) {
            let config = ScoapConfig {
                min_depth,
                min_chain_ratio,
                ..ScoapConfig::default()
            };
            let narrows = min_chain_ratio > 0.0 && min_chain_ratio < 1.0;
            let (inputs, gates) = match (wide, narrows) {
                (false, _) => (inputs, gates),
                // No endpoint is deeper than the gate count.
                (true, true) => {
                    let gates = 1 + gates % 60;
                    let bits = (gates as f64 * (1.0 / min_chain_ratio - 1.0)).ceil() as usize + 2;
                    (64 * bits + 1, gates)
                }
                (true, false) => (640 + inputs, 1 + gates % 60),
            };
            let nl = random_dag(seed, inputs, gates, chain_pct);
            if wide && narrows {
                let cx = Analysis::new(&nl);
                let bits = rule_out_bits(&nl, cx.levels().unwrap(), &config);
                prop_assert!(inputs > 64 * bits.min(inputs));
            }
            assert_scans_agree(&nl, &config);
        }
    }
}
