//! Property-based tests for the structural checker: no false positives
//! on generated benign logic, no false negatives on the known-malicious
//! families, across their whole parameter ranges.

use proptest::prelude::*;
use slm_checker::{
    check_structure, check_timing, passes, CheckKind, CheckerConfig, PassManager, ScanCache,
    ScoapConfig, Severity, Suppression, TaintConfig, MAX_SPAN_NETS,
};
use slm_netlist::generators::{
    alu, array_multiplier, carry_lookahead_adder, carry_select_adder, carry_sensor,
    equality_comparator, kogge_stone_adder, parity_tree, ring_oscillator, ripple_carry_adder,
    tdc_delay_line, wallace_multiplier, zoo,
};
use slm_netlist::{GateKind, NetId, Netlist};
use slm_obs::Obs;
use slm_timing::DelayModel;

/// The full-pipeline config a zoo entry is admitted under: defaults
/// plus the entry's contract-declared clock pins.
fn zoo_config(declared: &[&str]) -> CheckerConfig {
    CheckerConfig {
        taint: TaintConfig {
            declared_clocks: declared.iter().map(|s| s.to_string()).collect(),
            ..TaintConfig::default()
        },
        ..CheckerConfig::default()
    }
}

/// A strategy over arbitrary suppression rules, including maximally
/// greedy ones (all fields `None` matches every finding). The vendored
/// proptest shim has no combinators, so this composes three `select`
/// strategies by hand.
struct SuppressionStrategy {
    kinds: proptest::sample::Select<Option<CheckKind>>,
    passes: proptest::sample::Select<Option<String>>,
    nets: proptest::sample::Select<Option<String>>,
}

impl Strategy for SuppressionStrategy {
    type Value = Suppression;
    fn pick(&self, rng: &mut proptest::test_runner::TestRng) -> Suppression {
        Suppression {
            kind: self.kinds.pick(rng),
            pass: self.passes.pick(rng),
            net_name: self.nets.pick(rng),
            reason: "proptest rule".to_string(),
        }
    }
}

fn any_suppression() -> SuppressionStrategy {
    SuppressionStrategy {
        kinds: proptest::sample::select(vec![
            None,
            Some(CheckKind::CombinationalLoop),
            Some(CheckKind::DelayLineSensor),
            Some(CheckKind::ExcessiveFanoutArray),
            Some(CheckKind::ObservationDensity),
            Some(CheckKind::ClockAsData),
            Some(CheckKind::SensorLikeEndpoints),
            Some(CheckKind::KnownBadMotif),
        ]),
        passes: proptest::sample::select(vec![
            None,
            Some("comb-loop".to_string()),
            Some("delay-line".to_string()),
            Some("trivial-array".to_string()),
            Some("clock-as-data".to_string()),
            Some("scoap-sensor".to_string()),
            Some("signature".to_string()),
        ]),
        nets: proptest::sample::select(vec![
            None,
            Some("tdc_buf0".to_string()),
            Some("ro_nand".to_string()),
            Some("t[0]".to_string()),
        ]),
    }
}

/// SplitMix64: the random-DAG generator's own stream, seeded from one
/// proptest draw (the shim has no structural combinators).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random acyclic netlist of `wide + nets` nets: `wide` plus a few
/// primary inputs up front, inputs and constants scattered among the
/// gates, gates whose fanins repeat freely and lean on the previous net
/// (so long chains and chain-shaped endpoints occur), and many primary
/// outputs among the last `nets` nets, some naming the same net twice.
fn random_dag(seed: u64, wide: usize, nets: usize) -> Netlist {
    const KINDS: [GateKind; 8] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];
    let mut rng = SplitMix(seed);
    let mut gates = Vec::with_capacity(nets);
    let mut inputs = Vec::new();
    let lead = wide + 1 + rng.below(4);
    for v in 0..wide + nets {
        let roll = rng.below(100);
        let gate = if v < lead || roll < 4 {
            inputs.push(NetId(v as u32));
            (GateKind::Input, vec![])
        } else if roll < 7 {
            let kind = [GateKind::Const0, GateKind::Const1][rng.below(2)];
            (kind, vec![])
        } else {
            let kind = KINDS[rng.below(KINDS.len())];
            let arity = if matches!(kind, GateKind::Not | GateKind::Buf) {
                1
            } else {
                2 + rng.below(3)
            };
            let fanin = (0..arity)
                .map(|k| {
                    let back = if k == 0 && rng.below(3) > 0 {
                        1
                    } else {
                        // Mostly local fanin, sometimes far back.
                        let reach = 8 + rng.below(v);
                        1 + rng.below(v.min(reach))
                    };
                    NetId((v - back) as u32)
                })
                .collect();
            (kind, fanin)
        };
        gates.push(gate);
    }
    let outputs = (0..1 + rng.below(nets / 2 + 1))
        .map(|k| {
            let at = wide + if k == 0 { nets - 1 } else { rng.below(nets) };
            (format!("o{k}"), NetId(at as u32))
        })
        .collect();
    Netlist::from_parts("random_dag", gates, inputs, outputs, Vec::new()).expect("valid DAG")
}

/// Logic depth per net of a [`random_dag`], whose fanins always
/// precede their gate, so net order is topological.
fn levels(nl: &Netlist) -> Vec<usize> {
    let mut level = vec![0usize; nl.len()];
    for (v, g) in nl.gates().enumerate() {
        if !g.fanin.is_empty() {
            level[v] = 1 + g.fanin.iter().map(|f| level[f.index()]).max().unwrap_or(0);
        }
    }
    level
}

/// The SCOAP pass's endpoint test with no shortcuts: every deep
/// endpoint's whole fanin cone is walked. Returns the expected
/// `(severity, witness, span nets, detail prefix)`, or `None` when no
/// finding is due.
fn reference_scoap(
    nl: &Netlist,
    config: &ScoapConfig,
) -> Option<(Severity, NetId, Vec<NetId>, String)> {
    let level = levels(nl);
    let mut chain = Vec::new();
    for &(_, o) in nl.outputs() {
        let depth = level[o.index()];
        if depth < config.min_depth {
            continue;
        }
        let mut seen = vec![false; nl.len()];
        let mut stack = vec![o];
        seen[o.index()] = true;
        let mut cone = 0usize;
        while let Some(v) = stack.pop() {
            cone += 1;
            for &f in nl.gate(v).fanin {
                if !std::mem::replace(&mut seen[f.index()], true) {
                    stack.push(f);
                }
            }
        }
        if depth as f64 / (cone.saturating_sub(1).max(1)) as f64 >= config.min_chain_ratio {
            chain.push(o);
        }
    }
    if chain.is_empty() || chain.len() < config.min_endpoints {
        return None;
    }
    let total = nl.outputs().len();
    let severity = if chain.len() as f64 / total as f64 >= config.min_endpoint_fraction {
        Severity::Warn
    } else {
        Severity::Info
    };
    let mut witness = chain[0];
    for &o in &chain {
        if level[o.index()] >= level[witness.index()] {
            witness = o;
        }
    }
    let mean_depth =
        chain.iter().map(|o| level[o.index()]).sum::<usize>() as f64 / chain.len() as f64;
    let detail = format!(
        "{}/{total} endpoints are chain-shaped (mean depth {mean_depth:.0},",
        chain.len()
    );
    chain.truncate(MAX_SPAN_NETS);
    Some((severity, witness, chain, detail))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every benign generator output passes the structural checker at
    /// every size — the stealth property must not depend on a lucky
    /// width.
    #[test]
    fn benign_circuits_never_flagged(n in 1usize..48, m in 2usize..12) {
        for nl in [
            ripple_carry_adder(n).unwrap(),
            carry_lookahead_adder(n).unwrap(),
            carry_select_adder(n).unwrap(),
            kogge_stone_adder(n).unwrap(),
            alu(n).unwrap(),
            array_multiplier(m).unwrap(),
            wallace_multiplier(m).unwrap(),
            equality_comparator(n).unwrap(),
            parity_tree(n).unwrap(),
        ] {
            let r = check_structure(&nl);
            prop_assert!(r.is_clean(), "{} flagged: {:?}", nl.name(), r.findings);
        }
    }

    /// Ring oscillators are flagged at every stage count.
    #[test]
    fn ring_oscillators_always_flagged(stages in 1usize..40) {
        let stages = stages * 2; // must be even to oscillate
        let ro = ring_oscillator(stages).unwrap();
        prop_assert!(check_structure(&ro).flagged(CheckKind::CombinationalLoop));
    }

    /// TDC delay lines are flagged from the minimum sensor length up.
    #[test]
    fn tdc_lines_flagged_above_threshold(stages in 16usize..128) {
        let tdc = tdc_delay_line(stages).unwrap();
        prop_assert!(
            check_structure(&tdc).flagged(CheckKind::DelayLineSensor),
            "{stages}-stage line must be flagged"
        );
    }

    /// The strict timing check is exact: it fires iff the requested
    /// clock exceeds fmax.
    #[test]
    fn strict_timing_matches_sta(n in 4usize..64, req_pct in 10u32..400) {
        let nl = ripple_carry_adder(n).unwrap();
        let ann = DelayModel::default().annotate(&nl);
        let fmax = ann.sta().unwrap().fmax_mhz();
        let requested = fmax * f64::from(req_pct) / 100.0;
        let fired = check_timing(&ann, requested).flagged(CheckKind::TimingOverclock);
        prop_assert_eq!(fired, requested > fmax);
    }

    /// No set of suppression rules — however greedy — ever hides a
    /// `Reject` finding: every malicious zoo design stays flagged
    /// (under the full structural + semantic pipeline, with each
    /// entry's contract-declared clocks), and every `Reject` finding
    /// stays active in the report.
    #[test]
    fn suppression_never_hides_a_reject(
        rules in proptest::collection::vec(any_suppression(), 0..8)
    ) {
        let pm = PassManager::full();
        for entry in zoo().iter().filter(|e| e.malicious) {
            let config = CheckerConfig {
                suppressions: rules.clone(),
                ..zoo_config(entry.declared_clocks)
            };
            let report = pm.run(&entry.netlist, &config, &Obs::null());
            for f in &report.findings {
                if f.severity >= Severity::Reject {
                    prop_assert!(
                        f.suppressed.is_none(),
                        "{}: Reject finding suppressed: {:?}",
                        entry.name,
                        f
                    );
                }
            }
            prop_assert!(
                !report.is_clean(),
                "{}: suppressions laundered a malicious design",
                entry.name
            );
        }
    }

    /// Cached rescans are bit-identical to uncached scans for every
    /// design shape — a cold populate, a warm replay, and a cacheless
    /// run all serialize to the same report.
    #[test]
    fn cached_scans_are_bit_identical(n in 2usize..32, tap in 1usize..6) {
        let pm = PassManager::full();
        let designs: Vec<Netlist> = vec![
            ripple_carry_adder(n).unwrap(),
            carry_sensor(n.max(4), tap).unwrap(),
            tdc_delay_line(n + 16).unwrap(),
            ring_oscillator(2 * n).unwrap(),
        ];
        let config = zoo_config(&["sense"]);
        let cache = ScanCache::in_memory();
        for nl in &designs {
            let plain = pm.run(nl, &config, &Obs::null());
            let cold = pm.scan(nl, &config, Some(&cache), &Obs::null());
            let warm = pm.scan(nl, &config, Some(&cache), &Obs::null());
            prop_assert_eq!(plain.to_json(), cold.to_json(), "{}", nl.name());
            prop_assert_eq!(cold.to_json(), warm.to_json(), "{}", nl.name());
        }
        prop_assert!(cache.hits() >= (pm.pass_names().len() * designs.len()) as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The SCOAP pass's pruned, early-exit endpoint test decides
    /// exactly what a full cone walk decides, on arbitrary DAGs and
    /// thresholds, zero thresholds included. Wide DAGs lead with more
    /// than `64·B` inputs, where `B = ⌈depth·(1/r − 1)⌉ + 2` bits are
    /// what the prune's rule-out test can use at threshold `r ∈ (0, 1)`
    /// and the deepest endpoint's `depth`, so input sets far wider than
    /// that test needs are counted.
    #[test]
    fn scoap_findings_match_the_full_cone_reference(
        seed in any::<u64>(),
        nets in 2usize..400,
        wide in proptest::sample::select(vec![false, true]),
        min_chain_ratio in proptest::sample::select(vec![0.0, 0.25, 0.8, 1.0, 4.0]),
        min_depth in proptest::sample::select(vec![0usize, 1, 3, 12]),
        min_endpoints in proptest::sample::select(vec![0usize, 1, 2, 8]),
        min_endpoint_fraction in proptest::sample::select(vec![0.0, 0.5, 1.0]),
    ) {
        let narrows = min_chain_ratio > 0.0 && min_chain_ratio < 1.0;
        // No endpoint is deeper than the `nets` nets after the leading
        // inputs, which bounds `B` before the DAG is drawn.
        let bits = |depth: usize| (depth as f64 * (1.0 / min_chain_ratio - 1.0)).ceil() as usize + 2;
        let (wide, nets) = match (wide, narrows) {
            (false, _) => (0, nets),
            (true, true) => (64 * bits(63) + 1, 2 + nets % 62),
            (true, false) => (640, 2 + nets % 62),
        };
        let nl = random_dag(seed, wide, nets);
        if wide > 0 && narrows {
            let level = levels(&nl);
            let deepest = nl
                .outputs()
                .iter()
                .map(|&(_, o)| level[o.index()])
                .filter(|&depth| depth >= min_depth)
                .max()
                .unwrap_or(0);
            prop_assert!(nl.inputs().len() > 64 * bits(deepest), "seed {seed}");
        }
        let scoap = ScoapConfig {
            min_depth,
            min_chain_ratio,
            min_endpoints,
            min_endpoint_fraction,
        };
        let config = CheckerConfig {
            scoap: scoap.clone(),
            ..CheckerConfig::default()
        };
        let mut pm = PassManager::empty();
        pm.push(Box::new(passes::ScoapSensorPass));
        let report = pm.run(&nl, &config, &Obs::null());
        let got = report.findings.first().map(|f| {
            (
                f.severity,
                f.witness.expect("scoap findings name a witness"),
                f.span.iter().map(|s| s.net).collect::<Vec<_>>(),
                f.detail.clone(),
            )
        });
        match (got, reference_scoap(&nl, &scoap)) {
            (None, None) => {}
            (Some((sev, witness, span, detail)), Some((rsev, rwitness, rspan, prefix))) => {
                prop_assert_eq!(sev, rsev, "seed {seed}");
                prop_assert_eq!(witness, rwitness, "seed {seed}");
                prop_assert_eq!(span, rspan, "seed {seed}");
                prop_assert!(detail.starts_with(&prefix), "seed {seed}: {detail} vs {prefix}");
            }
            (got, want) => prop_assert!(false, "seed {seed}: got {got:?}, want {want:?}"),
        }
        prop_assert!(report.findings.len() <= 1);
    }
}
