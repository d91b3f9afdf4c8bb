//! Golden-file tests for the machine-readable diagnostic format.
//!
//! The JSON report is an interchange format — downstream tooling (CI
//! matrix jobs, the scheduled drift check) parses it, so its shape must
//! not move silently. Each golden file is the exact `to_json()` output
//! for a deterministic netlist; a deliberate format change means
//! regenerating the file, and the diff documents the change.

use slm_checker::{CheckKind, CheckReport, CheckerConfig, PassManager};
use slm_netlist::generators::{ring_oscillator, tdc_delay_line};
use slm_netlist::Netlist;
use slm_obs::Obs;

/// The structural pipeline at default thresholds.
fn structural(nl: &Netlist) -> CheckReport {
    PassManager::structural().run(nl, &CheckerConfig::default(), &Obs::null())
}

/// Compares a report against its golden file, with a diff-friendly
/// failure message.
fn assert_golden(actual: &str, golden: &str, name: &str) {
    if actual != golden {
        for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                a,
                g,
                "golden {name} diverges at line {} — if the format change is \
                 intentional, regenerate the golden file",
                i + 1
            );
        }
        panic!(
            "golden {name} length mismatch: {} vs {} lines",
            actual.lines().count(),
            golden.lines().count()
        );
    }
}

#[test]
fn ring_oscillator_report_matches_golden() {
    let nl = ring_oscillator(6).unwrap();
    let report = structural(&nl);
    assert_golden(
        &report.to_json(),
        include_str!("golden/ring_oscillator_6.json"),
        "ring_oscillator_6.json",
    );
}

#[test]
fn clean_report_matches_golden() {
    let nl = slm_netlist::generators::ripple_carry_adder(4).unwrap();
    let report = structural(&nl);
    assert_golden(
        &report.to_json(),
        include_str!("golden/ripple_carry_adder_4.json"),
        "ripple_carry_adder_4.json",
    );
}

#[test]
fn suppressed_finding_keeps_its_record_in_the_golden() {
    let nl = tdc_delay_line(16).unwrap();
    let mut config = CheckerConfig::default();
    config.suppressions.push(slm_checker::Suppression {
        kind: Some(CheckKind::SensorLikeEndpoints),
        pass: None,
        net_name: None,
        reason: "audited: measurement column for tenant A".to_string(),
    });
    let report = PassManager::structural().run(&nl, &config, &Obs::null());
    assert_golden(
        &report.to_json(),
        include_str!("golden/tdc_delay_line_16_suppressed.json"),
        "tdc_delay_line_16_suppressed.json",
    );
}
