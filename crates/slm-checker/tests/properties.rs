//! Property-based tests for the structural checker: no false positives
//! on generated benign logic, no false negatives on the known-malicious
//! families, across their whole parameter ranges.

use proptest::prelude::*;
use slm_checker::{
    check_structure, check_timing, CheckKind, CheckerConfig, PassManager, ScanCache, Severity,
    Suppression, TaintConfig,
};
use slm_netlist::generators::{
    alu, array_multiplier, carry_lookahead_adder, carry_select_adder, carry_sensor,
    equality_comparator, kogge_stone_adder, parity_tree, ring_oscillator, ripple_carry_adder,
    tdc_delay_line, wallace_multiplier, zoo,
};
use slm_netlist::Netlist;
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
            let report = pm.run(&entry.netlist, &config);
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
            let plain = pm.run(nl, &config);
            let cold = pm.scan(nl, &config, Some(&cache), 1, &Obs::null());
            let warm = pm.scan(nl, &config, Some(&cache), 1, &Obs::null());
            prop_assert_eq!(plain.to_json(), cold.to_json(), "{}", nl.name());
            prop_assert_eq!(cold.to_json(), warm.to_json(), "{}", nl.name());
        }
        prop_assert!(cache.hits() >= (pm.pass_names().len() * designs.len()) as u64);
    }

    /// Scan reports do not depend on the worker count: intra-scan
    /// level parallelism and batch parallelism both serialize
    /// identically to the serial pipeline.
    #[test]
    fn parallel_scans_are_bit_identical(n in 2usize..32, workers in 2usize..8) {
        let pm = PassManager::full();
        let config = zoo_config(&["sense"]);
        let designs: Vec<Netlist> = vec![
            carry_sensor(n.max(4), 4).unwrap(),
            alu(n).unwrap(),
            tdc_delay_line(n + 16).unwrap(),
        ];
        let refs: Vec<&Netlist> = designs.iter().collect();
        let serial: Vec<String> = refs.iter().map(|nl| pm.run(nl, &config).to_json()).collect();
        for (i, nl) in refs.iter().enumerate() {
            let par = pm.scan(nl, &config, None, workers, &Obs::null());
            prop_assert_eq!(&par.to_json(), &serial[i], "{}", nl.name());
        }
        let batch = pm.run_batch(&refs, &config, None, workers);
        for (i, report) in batch.iter().enumerate() {
            prop_assert_eq!(&report.to_json(), &serial[i], "{}", refs[i].name());
        }
    }
}
