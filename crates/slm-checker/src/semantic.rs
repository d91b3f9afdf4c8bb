//! Shared semantic dataflow facts: clock-taint propagation and static
//! switching-activity estimation.
//!
//! The structural passes reason about *topology* (loops, chains,
//! arrays, signatures); a sensor built from genuinely benign logic — an
//! adder whose carry-in is the fabric clock — has none of the known-bad
//! topology and sails through all of them. The facts computed here
//! reason about *dataflow* instead: where clock-rate toggling can reach
//! (a fixpoint over a three-point taint lattice) and how much
//! switching it can cause there (transition densities in the style of
//! Najm's transition-density analysis, plus a worst-case glitch bound).
//! Three semantic passes consume them; the computations are pure
//! functions of the [`Analysis`] context and the checker config, so
//! results are deterministic regardless of pass scheduling.

use crate::analysis::Analysis;
use crate::config::CheckerConfig;
use slm_netlist::{GateKind, NetId, Netlist};

/// The taint lattice: `Untainted < DataRate < ClockRate`.
///
/// A net is `ClockRate` when clock-derived toggling can reach it —
/// seeded at clock-fed inputs and at combinational-loop members (a
/// self-oscillator is its own clock). `DataRate` marks reachability
/// from ordinary inputs only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Taint {
    /// Driven by constants only.
    Untainted,
    /// Reachable from data inputs, not from any clock seed.
    DataRate,
    /// Reachable from a clock seed or oscillating loop.
    ClockRate,
}

/// Depth value meaning "not reached from a clock seed".
pub const DEPTH_UNREACHED: u32 = u32::MAX;

/// Result of the clock-taint fixpoint.
#[derive(Debug, Clone)]
pub struct TaintFacts {
    /// Per-net taint level, indexed by [`NetId::index`].
    pub taint: Vec<Taint>,
    /// Per-net minimum count of non-buffer gates on any clock path
    /// ([`DEPTH_UNREACHED`] when the net is not clock-tainted). Depth 0
    /// means the clock is merely forwarded through buffers.
    pub depth: Vec<u32>,
    /// The seed nets: clock-fed inputs and loop members.
    pub seeds: Vec<NetId>,
}

/// Whether an input name is clock-named: its stem (the name with a
/// trailing `[index]` bus suffix stripped), lowercased, equals one of
/// `clock_names` exactly. Compares bytes in place rather than building
/// the lowercased stem.
pub(crate) fn is_clock_named(name: &str, clock_names: &[String]) -> bool {
    let stem = match name.find('[') {
        Some(i) if name.ends_with(']') => &name[..i],
        _ => name,
    };
    clock_names
        .iter()
        .any(|c| c.bytes().eq(stem.bytes().map(|b| b.to_ascii_lowercase())))
}

/// The clock seed nets: inputs whose base name matches
/// [`crate::ClockConfig::clock_names`], inputs the interface contract
/// declares clock-fed ([`crate::TaintConfig::declared_clocks`], exact
/// names), and every combinational-loop member.
pub fn clock_seeds(cx: &Analysis<'_>, config: &CheckerConfig) -> Vec<NetId> {
    let nl = cx.netlist();
    let mut seeds = cx.clock_named_inputs(config).to_vec();
    for &input in nl.inputs() {
        if nl
            .net_name(input)
            .is_some_and(|name| config.taint.declared_clocks.iter().any(|d| d == name))
        {
            seeds.push(input);
        }
    }
    for lp in cx.loops() {
        seeds.extend(lp.iter().copied());
    }
    seeds.sort_unstable();
    seeds.dedup();
    seeds
}

/// Runs the taint fixpoint.
///
/// Transfer function: a net's taint is the join (max) of its fanin
/// taints; clock depth is the minimum over clock-tainted fanins, plus
/// one for every non-buffer gate. On an acyclic netlist every fanin
/// settles before its gate, so one sweep in topological order reaches
/// the fixpoint. A cyclic netlist takes a worklist instead; both
/// components are monotone over finite chains, so it terminates.
pub fn compute_taint(cx: &Analysis<'_>, config: &CheckerConfig) -> TaintFacts {
    let nl = cx.netlist();
    let n = nl.len();
    let mut taint = vec![Taint::Untainted; n];
    let mut depth = vec![DEPTH_UNREACHED; n];
    let seeds = clock_seeds(cx, config);
    for &input in nl.inputs() {
        taint[input.index()] = Taint::DataRate;
    }
    for &s in &seeds {
        taint[s.index()] = Taint::ClockRate;
        depth[s.index()] = 0;
    }
    if let Ok(order) = nl.topological_order() {
        for v in order {
            relax(nl, v, &mut taint, &mut depth);
        }
    } else {
        let mut work: Vec<NetId> = (0..n as u32).map(NetId).collect();
        let mut queued = vec![true; n];
        let mut head = 0;
        while head < work.len() {
            let v = work[head];
            head += 1;
            queued[v.index()] = false;
            if relax(nl, v, &mut taint, &mut depth) {
                for &succ in cx.fanout().fanouts(v) {
                    if !queued[succ.index()] {
                        queued[succ.index()] = true;
                        work.push(succ);
                    }
                }
            }
        }
    }
    TaintFacts {
        taint,
        depth,
        seeds,
    }
}

/// Applies the transfer function to `v`, keeping the result only when
/// it raises `v`'s taint or, at equal taint, lowers its clock depth.
/// Returns whether `v` changed.
fn relax(nl: &Netlist, v: NetId, taint: &mut [Taint], depth: &mut [u32]) -> bool {
    let g = nl.gate(v);
    let is_seed = depth[v.index()] == 0 && taint[v.index()] == Taint::ClockRate;
    if g.kind == GateKind::Input || is_seed {
        return false; // seeds and inputs keep their seeded state
    }
    let mut t = Taint::Untainted;
    let mut d = DEPTH_UNREACHED;
    for &f in g.fanin {
        t = t.max(taint[f.index()]);
        if taint[f.index()] == Taint::ClockRate {
            d = d.min(depth[f.index()]);
        }
    }
    if t == Taint::ClockRate && d != DEPTH_UNREACHED && g.kind != GateKind::Buf {
        d = d.saturating_add(1);
    }
    if t > taint[v.index()] || (t == taint[v.index()] && d < depth[v.index()]) {
        taint[v.index()] = t;
        depth[v.index()] = d;
        return true;
    }
    false
}

/// Saturation ceiling for the worst-case glitch bound — an XOR tree of
/// depth *k* doubles the bound per level, so it must saturate.
pub const GLITCH_CAP: f64 = 1e12;

/// Result of the static switching-activity estimation.
#[derive(Debug, Clone)]
pub struct ActivityFacts {
    /// Per-net static signal probability under the input-independence
    /// assumption.
    pub prob: Vec<f64>,
    /// Per-net transition density, transitions/cycle (Najm's Boolean-
    /// difference propagation).
    pub density: Vec<f64>,
    /// Per-net worst-case glitch bound: transitions/cycle with no
    /// masking — every fanin transition may propagate. The ratio
    /// `glitch / density` is the glitch-amplification bound of the
    /// reconvergent logic below the net.
    pub glitch: Vec<f64>,
    /// Per-net clock-attributable share of the glitch bound: only
    /// clock seeds inject density, data inputs are held still. Nonzero
    /// exactly where clock toggling can cause switching.
    pub clock_glitch: Vec<f64>,
}

/// Propagates signal probabilities, transition densities and glitch
/// bounds over a topological order. Returns `None` for cyclic netlists
/// (the loop pass already rejects those).
///
/// Gates of one or two fanins, nearly every gate of a generated design,
/// are computed in place. They perform the very `f64` operations of
/// the wider gates' fold, in its order and from its `1.0` and `0.0`
/// starts, so every fact carries the same bits whichever path computed
/// it.
pub fn compute_activity(
    cx: &Analysis<'_>,
    config: &CheckerConfig,
    taint: &TaintFacts,
) -> Option<ActivityFacts> {
    let nl = cx.netlist();
    let order = nl.topological_order().ok()?;
    let n = nl.len();
    let mut prob = vec![0.0f64; n];
    let mut density = vec![0.0f64; n];
    let mut glitch = vec![0.0f64; n];
    let mut clock_glitch = vec![0.0f64; n];
    let is_clock_seed =
        |v: NetId| taint.taint[v.index()] == Taint::ClockRate && taint.depth[v.index()] == 0;
    // Fanin probabilities and sensitizations of the wider gates,
    // reused across gates.
    let mut ps: Vec<f64> = Vec::new();
    let mut sens: Vec<f64> = Vec::new();
    for v in order {
        let vi = v.index();
        let g = nl.gate(v);
        match (g.kind, g.fanin) {
            (GateKind::Input, _) => {
                prob[vi] = 0.5;
                if is_clock_seed(v) {
                    density[vi] = config.activity.clock_density;
                    clock_glitch[vi] = config.activity.clock_density;
                } else {
                    density[vi] = config.activity.input_density;
                }
                glitch[vi] = density[vi].max(config.activity.input_density);
            }
            (GateKind::Const0, _) => prob[vi] = 0.0,
            (GateKind::Const1, _) => prob[vi] = 1.0,
            // A buffer or an inverter, sensitized to its fanin always.
            (kind, &[a]) => {
                let a = a.index();
                prob[vi] = match kind {
                    GateKind::Not => 1.0 - prob[a],
                    _ => prob[a],
                };
                density[vi] = (0.0 + 1.0 * density[a]).min(GLITCH_CAP);
                glitch[vi] = (0.0 + glitch[a]).min(GLITCH_CAP);
                clock_glitch[vi] = (0.0 + clock_glitch[a]).min(GLITCH_CAP);
            }
            (kind, &[a, b]) => {
                let (a, b) = (a.index(), b.index());
                let (pa, pb) = (prob[a], prob[b]);
                // The probability and each fanin's sensitization.
                let (p, sa, sb) = match kind {
                    GateKind::And | GateKind::Nand => {
                        let all = 1.0 * pa * pb;
                        let p = if kind == GateKind::And {
                            all
                        } else {
                            1.0 - all
                        };
                        (p, 1.0 * pb, 1.0 * pa)
                    }
                    GateKind::Or | GateKind::Nor => {
                        let none = 1.0 * (1.0 - pa) * (1.0 - pb);
                        let p = if kind == GateKind::Or {
                            1.0 - none
                        } else {
                            none
                        };
                        (p, 1.0 * (1.0 - pb), 1.0 * (1.0 - pa))
                    }
                    _ => {
                        let odd = 0.0f64;
                        let odd = odd * (1.0 - pa) + (1.0 - odd) * pa;
                        let odd = odd * (1.0 - pb) + (1.0 - odd) * pb;
                        let p = if kind == GateKind::Xor {
                            odd
                        } else {
                            1.0 - odd
                        };
                        (p, 1.0, 1.0)
                    }
                };
                prob[vi] = p;
                density[vi] = (0.0 + sa * density[a] + sb * density[b]).min(GLITCH_CAP);
                glitch[vi] = (0.0 + glitch[a] + glitch[b]).min(GLITCH_CAP);
                clock_glitch[vi] = (0.0 + clock_glitch[a] + clock_glitch[b]).min(GLITCH_CAP);
            }
            (kind, fanin) => {
                ps.clear();
                ps.extend(fanin.iter().map(|f| prob[f.index()]));
                sens.clear();
                let p = match kind {
                    GateKind::And | GateKind::Nand => {
                        let all: f64 = ps.iter().product();
                        sens.extend((0..ps.len()).map(|i| {
                            ps.iter()
                                .enumerate()
                                .filter(|&(j, _)| j != i)
                                .map(|(_, &pj)| pj)
                                .product::<f64>()
                        }));
                        if kind == GateKind::And {
                            all
                        } else {
                            1.0 - all
                        }
                    }
                    GateKind::Or | GateKind::Nor => {
                        let none: f64 = ps.iter().map(|&p| 1.0 - p).product();
                        sens.extend((0..ps.len()).map(|i| {
                            ps.iter()
                                .enumerate()
                                .filter(|&(j, _)| j != i)
                                .map(|(_, &pj)| 1.0 - pj)
                                .product::<f64>()
                        }));
                        if kind == GateKind::Or {
                            1.0 - none
                        } else {
                            none
                        }
                    }
                    _ => {
                        // Parity is sensitized to every fanin always.
                        let odd = ps
                            .iter()
                            .fold(0.0f64, |acc, &p| acc * (1.0 - p) + (1.0 - acc) * p);
                        sens.resize(ps.len(), 1.0);
                        if kind == GateKind::Xor {
                            odd
                        } else {
                            1.0 - odd
                        }
                    }
                };
                prob[vi] = p;
                let mut d = 0.0;
                let mut gl = 0.0;
                let mut cg = 0.0;
                for (&s, &f) in sens.iter().zip(fanin) {
                    d += s * density[f.index()];
                    gl += glitch[f.index()];
                    cg += clock_glitch[f.index()];
                }
                density[vi] = d.min(GLITCH_CAP);
                glitch[vi] = gl.min(GLITCH_CAP);
                clock_glitch[vi] = cg.min(GLITCH_CAP);
            }
        }
    }
    Some(ActivityFacts {
        prob,
        density,
        glitch,
        clock_glitch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use slm_netlist::generators::{carry_sensor, clock_as_data, ring_oscillator, tdc_delay_line};
    use slm_netlist::NetlistBuilder;

    #[test]
    fn clock_naming_is_an_exact_match_of_the_lowercased_stem() {
        // The rule as first written: strip a trailing `[i]`, lowercase,
        // then look the result up among the names verbatim.
        fn lowercased_stem(name: &str) -> String {
            let stem = match name.find('[') {
                Some(i) if name.ends_with(']') => &name[..i],
                _ => name,
            };
            stem.to_ascii_lowercase()
        }
        let lists: [Vec<String>; 3] = [
            crate::ClockConfig::default().clock_names,
            vec!["CLK".into(), "Ck".into()],
            vec!["clk[0]".into(), "".into(), "\u{e9}clk".into()],
        ];
        let names = [
            "clk",
            "CLK",
            "Clk[3]",
            "clk[",
            "clk]",
            "clk[0][1]",
            "clock",
            "ck_in",
            "ck",
            "CK[x]",
            "[1]",
            "",
            "\u{c9}CLK",
            "\u{e9}clk",
            "clk[0]",
            "clkk",
        ];
        for list in &lists {
            for name in names {
                assert_eq!(
                    is_clock_named(name, list),
                    list.contains(&lowercased_stem(name)),
                    "{name:?} against {list:?}"
                );
            }
        }
    }

    fn with_declared(clocks: &[&str]) -> CheckerConfig {
        CheckerConfig {
            taint: crate::TaintConfig {
                declared_clocks: clocks.iter().map(|s| s.to_string()).collect(),
                ..crate::TaintConfig::default()
            },
            ..CheckerConfig::default()
        }
    }

    #[test]
    fn taint_seeds_from_names_declarations_and_loops() {
        let clk = clock_as_data(4).unwrap();
        let cx = Analysis::new(&clk);
        let facts = compute_taint(&cx, &CheckerConfig::default());
        let clk_net = clk.find("clk").unwrap();
        assert_eq!(facts.taint[clk_net.index()], Taint::ClockRate);
        // every XOR output is clock-rate at depth 1
        for &(_, o) in clk.outputs() {
            assert_eq!(facts.taint[o.index()], Taint::ClockRate);
            assert_eq!(facts.depth[o.index()], 1);
        }

        // A declared clock taints under a benign-looking name.
        let sensor = carry_sensor(8, 2).unwrap();
        let cx = Analysis::new(&sensor);
        let silent = compute_taint(&cx, &CheckerConfig::default());
        let sense = sensor.find("sense").unwrap();
        assert_eq!(silent.taint[sense.index()], Taint::DataRate);
        let declared = compute_taint(&cx, &with_declared(&["sense"]));
        assert_eq!(declared.taint[sense.index()], Taint::ClockRate);
        assert!(sensor
            .outputs()
            .iter()
            .all(|&(_, o)| declared.taint[o.index()] == Taint::ClockRate));

        // Loop members are their own clock; the fixpoint handles cycles.
        let ro = ring_oscillator(4).unwrap();
        let cx = Analysis::new(&ro);
        let facts = compute_taint(&cx, &CheckerConfig::default());
        let osc = ro.outputs()[0].1;
        assert_eq!(facts.taint[osc.index()], Taint::ClockRate);
    }

    #[test]
    fn plain_tdc_has_no_clock_taint() {
        let tdc = tdc_delay_line(32).unwrap();
        let cx = Analysis::new(&tdc);
        let facts = compute_taint(&cx, &CheckerConfig::default());
        assert!(facts.seeds.is_empty());
        assert!(facts.taint.iter().all(|&t| t != Taint::ClockRate));
    }

    #[test]
    fn activity_propagates_densities_and_glitch_bounds() {
        // y = XOR(a, b): density adds, p stays 0.5.
        let mut b = NetlistBuilder::new("x");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.xor2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let cx = Analysis::new(&nl);
        let config = CheckerConfig::default();
        let taint = compute_taint(&cx, &config);
        let facts = compute_activity(&cx, &config, &taint).unwrap();
        assert!((facts.prob[y.index()] - 0.5).abs() < 1e-12);
        assert!((facts.density[y.index()] - 1.0).abs() < 1e-12);
        assert!((facts.glitch[y.index()] - 1.0).abs() < 1e-12);
        assert_eq!(facts.clock_glitch[y.index()], 0.0);

        // AND masks density (sensitization 0.5 per side) but the glitch
        // bound still adds.
        let mut b = NetlistBuilder::new("a");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let cx = Analysis::new(&nl);
        let taint = compute_taint(&cx, &config);
        let facts = compute_activity(&cx, &config, &taint).unwrap();
        assert!((facts.density[y.index()] - 0.5).abs() < 1e-12);
        assert!((facts.glitch[y.index()] - 1.0).abs() < 1e-12);

        // Clock share flows only from the clock seed.
        let clk = clock_as_data(2).unwrap();
        let cx = Analysis::new(&clk);
        let taint = compute_taint(&cx, &config);
        let facts = compute_activity(&cx, &config, &taint).unwrap();
        for &(_, o) in clk.outputs() {
            assert!((facts.clock_glitch[o.index()] - config.activity.clock_density).abs() < 1e-12);
        }
    }

    /// The clock-taint fixpoint as a plain worklist seeded with every
    /// net in index order: the reference [`compute_taint`] must match
    /// on every netlist, cyclic or not.
    fn worklist_taint(cx: &Analysis<'_>, config: &CheckerConfig) -> TaintFacts {
        let nl = cx.netlist();
        let n = nl.len();
        let mut taint = vec![Taint::Untainted; n];
        let mut depth = vec![DEPTH_UNREACHED; n];
        let seeds = clock_seeds(cx, config);
        for &input in nl.inputs() {
            taint[input.index()] = Taint::DataRate;
        }
        for &s in &seeds {
            taint[s.index()] = Taint::ClockRate;
            depth[s.index()] = 0;
        }
        let mut work: Vec<NetId> = (0..n as u32).map(NetId).collect();
        let mut queued = vec![true; n];
        let mut head = 0;
        while head < work.len() {
            let v = work[head];
            head += 1;
            queued[v.index()] = false;
            let g = nl.gate(v);
            let is_seed = depth[v.index()] == 0 && taint[v.index()] == Taint::ClockRate;
            if g.kind == GateKind::Input || is_seed {
                continue; // seeds and inputs keep their seeded state
            }
            let mut t = Taint::Untainted;
            let mut d = DEPTH_UNREACHED;
            for &f in g.fanin {
                t = t.max(taint[f.index()]);
                if taint[f.index()] == Taint::ClockRate {
                    d = d.min(depth[f.index()]);
                }
            }
            if t == Taint::ClockRate && d != DEPTH_UNREACHED && g.kind != GateKind::Buf {
                d = d.saturating_add(1);
            }
            if t > taint[v.index()] || (t == taint[v.index()] && d < depth[v.index()]) {
                taint[v.index()] = t;
                depth[v.index()] = d;
                for &succ in cx.fanout().fanouts(v) {
                    if !queued[succ.index()] {
                        queued[succ.index()] = true;
                        work.push(succ);
                    }
                }
            }
        }
        TaintFacts {
            taint,
            depth,
            seeds,
        }
    }

    /// A random netlist of `nets` nets whose inputs are named `clk[i]`,
    /// `CK[i]`, `sense[i]` or `d[i]`: gates lean on the previous net,
    /// buffers forward clock depth unchanged, constants sit among them,
    /// and with `loops` some fanins point forward, which may close
    /// combinational loops.
    fn random_named_netlist(seed: u64, nets: usize, loops: bool) -> Netlist {
        let mut state = seed | 1;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        const KINDS: [GateKind; 9] = [
            GateKind::Buf,
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Const0,
            GateKind::Const1,
        ];
        const STEMS: [&str; 4] = ["clk", "CK", "sense", "d"];
        let lead = 1 + next(6);
        let mut gates: Vec<(GateKind, Vec<NetId>)> = Vec::with_capacity(nets);
        let mut inputs = Vec::new();
        let mut names = Vec::with_capacity(nets);
        for v in 0..nets {
            if v < lead || next(100) < 6 {
                names.push(Some(format!("{}[{v}]", STEMS[next(STEMS.len())])));
                inputs.push(NetId(v as u32));
                gates.push((GateKind::Input, vec![]));
                continue;
            }
            names.push(None);
            let kind = KINDS[next(KINDS.len())];
            let arity = match kind {
                GateKind::Const0 | GateKind::Const1 => 0,
                GateKind::Buf | GateKind::Not => 1,
                _ => 2 + next(2),
            };
            let fanin = (0..arity)
                .map(|k| {
                    if loops && next(100) < 2 {
                        NetId((v + next(nets - v)) as u32)
                    } else if k == 0 && next(3) > 0 {
                        NetId(v as u32 - 1)
                    } else {
                        NetId(next(v) as u32)
                    }
                })
                .collect();
            gates.push((kind, fanin));
        }
        let outputs = (0..1 + next(8))
            .map(|k| (format!("y{k}"), NetId(next(nets) as u32)))
            .collect();
        Netlist::from_parts("named", gates, inputs, outputs, names).unwrap()
    }

    /// Configs seeding clocks by name, by declaration only (every
    /// `sense[i]` input), and not at all (loops still seed).
    fn seed_configs(nl: &Netlist) -> [CheckerConfig; 3] {
        let unnamed = crate::ClockConfig {
            clock_names: Vec::new(),
        };
        let sense: Vec<String> = nl
            .inputs()
            .iter()
            .filter_map(|&i| nl.net_name(i))
            .filter(|name| name.starts_with("sense"))
            .map(str::to_string)
            .collect();
        let declared = with_declared(&sense.iter().map(String::as_str).collect::<Vec<_>>());
        [
            CheckerConfig::default(),
            CheckerConfig {
                clock: unnamed.clone(),
                ..declared
            },
            CheckerConfig {
                clock: unnamed,
                ..CheckerConfig::default()
            },
        ]
    }

    fn assert_taint_matches_worklist(nl: &Netlist) {
        for config in seed_configs(nl) {
            // A fresh context per config: the clock-named inputs are
            // cached under the first config that asks.
            let got = compute_taint(&Analysis::new(nl), &config);
            let want = worklist_taint(&Analysis::new(nl), &config);
            assert_eq!(got.seeds, want.seeds, "{}", nl.name());
            assert_eq!(got.taint, want.taint, "{}", nl.name());
            assert_eq!(got.depth, want.depth, "{}", nl.name());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On random acyclic netlists with named, declared and no clock
        /// seeds, and on random netlists with loops, the clock taint
        /// equals the worklist reference's: same seeds, same taint,
        /// same clock depth on every net.
        #[test]
        fn taint_matches_the_worklist_reference(
            seed in any::<u64>(),
            nets in 2usize..300,
            loops in proptest::sample::select(vec![false, true]),
        ) {
            let nl = random_named_netlist(seed, nets, loops);
            if !loops {
                prop_assert!(nl.topological_order().is_ok());
            }
            assert_taint_matches_worklist(&nl);
        }
    }

    #[test]
    fn ring_oscillator_taint_matches_the_worklist_reference() {
        for stages in [2, 4, 8, 16, 40] {
            let ro = ring_oscillator(stages).unwrap();
            assert!(ro.topological_order().is_err());
            assert_taint_matches_worklist(&ro);
        }
    }

    /// `compute_activity` as first written: every gate gathers its
    /// fanin probabilities and sensitizations into scratch vectors and
    /// folds them. The reference the sweep must match bit for bit.
    fn folded_activity(
        cx: &Analysis<'_>,
        config: &CheckerConfig,
        taint: &TaintFacts,
    ) -> Option<ActivityFacts> {
        let nl = cx.netlist();
        let order = nl.topological_order().ok()?;
        let n = nl.len();
        let mut prob = vec![0.0f64; n];
        let mut density = vec![0.0f64; n];
        let mut glitch = vec![0.0f64; n];
        let mut clock_glitch = vec![0.0f64; n];
        let is_clock_seed =
            |v: NetId| taint.taint[v.index()] == Taint::ClockRate && taint.depth[v.index()] == 0;
        let mut ps: Vec<f64> = Vec::new();
        let mut sens: Vec<f64> = Vec::new();
        for v in order {
            let g = nl.gate(v);
            ps.clear();
            ps.extend(g.fanin.iter().map(|f| prob[f.index()]));
            sens.clear();
            let p = match g.kind {
                GateKind::Input => {
                    prob[v.index()] = 0.5;
                    if is_clock_seed(v) {
                        density[v.index()] = config.activity.clock_density;
                        clock_glitch[v.index()] = config.activity.clock_density;
                    } else {
                        density[v.index()] = config.activity.input_density;
                    }
                    glitch[v.index()] = density[v.index()].max(config.activity.input_density);
                    continue;
                }
                GateKind::Const0 => {
                    prob[v.index()] = 0.0;
                    continue;
                }
                GateKind::Const1 => {
                    prob[v.index()] = 1.0;
                    continue;
                }
                GateKind::Buf => {
                    sens.push(1.0);
                    ps[0]
                }
                GateKind::Not => {
                    sens.push(1.0);
                    1.0 - ps[0]
                }
                GateKind::And | GateKind::Nand => {
                    let all: f64 = ps.iter().product();
                    sens.extend((0..ps.len()).map(|i| {
                        ps.iter()
                            .enumerate()
                            .filter(|&(j, _)| j != i)
                            .map(|(_, &pj)| pj)
                            .product::<f64>()
                    }));
                    if g.kind == GateKind::And {
                        all
                    } else {
                        1.0 - all
                    }
                }
                GateKind::Or | GateKind::Nor => {
                    let none: f64 = ps.iter().map(|&p| 1.0 - p).product();
                    sens.extend((0..ps.len()).map(|i| {
                        ps.iter()
                            .enumerate()
                            .filter(|&(j, _)| j != i)
                            .map(|(_, &pj)| 1.0 - pj)
                            .product::<f64>()
                    }));
                    if g.kind == GateKind::Or {
                        1.0 - none
                    } else {
                        none
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    let odd = ps
                        .iter()
                        .fold(0.0f64, |acc, &p| acc * (1.0 - p) + (1.0 - acc) * p);
                    sens.resize(ps.len(), 1.0);
                    if g.kind == GateKind::Xor {
                        odd
                    } else {
                        1.0 - odd
                    }
                }
            };
            prob[v.index()] = p;
            let mut d = 0.0;
            let mut gl = 0.0;
            let mut cg = 0.0;
            for (&s, &f) in sens.iter().zip(g.fanin) {
                d += s * density[f.index()];
                gl += glitch[f.index()];
                cg += clock_glitch[f.index()];
            }
            density[v.index()] = d.min(GLITCH_CAP);
            glitch[v.index()] = gl.min(GLITCH_CAP);
            clock_glitch[v.index()] = cg.min(GLITCH_CAP);
        }
        Some(ActivityFacts {
            prob,
            density,
            glitch,
            clock_glitch,
        })
    }

    /// A random DAG over every gate kind, binary kinds with 2–5 fanins,
    /// whose inputs are named `clk[i]` (clock seeds) or `d[i]`. Gates
    /// lean on the previous net, so XOR chains grow deep enough for the
    /// glitch bound to saturate. `mirrored` reverses the net order, so
    /// every fanin refers forward.
    fn random_kind_dag(seed: u64, nets: usize, mirrored: bool) -> Netlist {
        let mut state = seed | 1;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        const KINDS: [GateKind; 10] = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Buf,
            GateKind::Const0,
            GateKind::Const1,
        ];
        let lead = 1 + next(4);
        let mut gates: Vec<(GateKind, Vec<NetId>)> = Vec::with_capacity(nets);
        let mut names = Vec::with_capacity(nets);
        for v in 0..nets {
            if v < lead || next(100) < 5 {
                names.push(Some(format!("{}[{v}]", ["clk", "d"][next(2)])));
                gates.push((GateKind::Input, vec![]));
                continue;
            }
            names.push(None);
            let kind = KINDS[next(KINDS.len())];
            let (lo, hi) = kind.arity();
            let arity = lo + next(hi.min(5) - lo + 1);
            let fanin = (0..arity)
                .map(|k| match k == 0 && next(3) > 0 {
                    true => NetId(v as u32 - 1),
                    false => NetId(next(v) as u32),
                })
                .collect();
            gates.push((kind, fanin));
        }
        let mut outputs: Vec<(String, NetId)> = (0..1 + next(8))
            .map(|k| (format!("y{k}"), NetId(next(nets) as u32)))
            .collect();
        if mirrored {
            let flip = |f: &NetId| NetId((nets - 1 - f.index()) as u32);
            gates.reverse();
            names.reverse();
            for (_, fanin) in &mut gates {
                *fanin = fanin.iter().map(flip).collect();
            }
            for (_, o) in &mut outputs {
                *o = flip(o);
            }
        }
        let inputs = (0..nets as u32)
            .map(NetId)
            .filter(|v| gates[v.index()].0 == GateKind::Input)
            .collect();
        Netlist::from_parts("kinds", gates, inputs, outputs, names).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On random DAGs of every gate kind, in net order and mirrored,
        /// the activity sweep computes every fact of every net with the
        /// same bits as the scratch-vector fold.
        #[test]
        fn activity_matches_the_folded_reference(
            seed in any::<u64>(),
            nets in 2usize..400,
            mirrored in proptest::sample::select(vec![false, true]),
        ) {
            let nl = random_kind_dag(seed, nets, mirrored);
            let cx = Analysis::new(&nl);
            let config = CheckerConfig::default();
            let taint = compute_taint(&cx, &config);
            let got = compute_activity(&cx, &config, &taint).unwrap();
            let want = folded_activity(&cx, &config, &taint).unwrap();
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (what, got, want) in [
                ("prob", &got.prob, &want.prob),
                ("density", &got.density, &want.density),
                ("glitch", &got.glitch, &want.glitch),
                ("clock_glitch", &got.clock_glitch, &want.clock_glitch),
            ] {
                prop_assert_eq!(bits(got), bits(want), "{} of {} nets", what, nets);
            }
        }
    }

    #[test]
    fn cyclic_netlist_has_no_activity_estimate() {
        let ro = ring_oscillator(4).unwrap();
        let cx = Analysis::new(&ro);
        let config = CheckerConfig::default();
        let taint = compute_taint(&cx, &config);
        assert!(compute_activity(&cx, &config, &taint).is_none());
    }
}
