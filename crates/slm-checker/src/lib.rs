//! Structural netlist analysis — the defensive screening that the
//! paper's stealthy sensor is designed to evade.
//!
//! Cloud FPGA operators have proposed scanning tenant bitstreams for the
//! circuit structures known to implement voltage sensors and power
//! viruses (Krautter et al., TRETS 2019; La et al., "FPGADefender",
//! TRETS 2020). This crate implements that style of checker over the
//! workspace netlist IR as a pass-manager-driven analysis framework:
//!
//! * a [`Pass`] trait and [`PassManager`] pipeline,
//! * per-pass [`CheckerConfig`] sections with tunable thresholds,
//! * tiered [`Severity`] (`Info`/`Warn`/`Reject`),
//! * structured diagnostics ([`Finding`]) carrying witness nets and
//!   machine-readable spans,
//! * suppression/allowlist rules that can silence heuristic findings
//!   but never a `Reject`,
//! * JSON report serialization ([`CheckReport::to_json`]) for CI
//!   consumption, emitted by the `slm-scan` binary.
//!
//! The structural pipeline ([`PassManager::structural`]) runs:
//!
//! * **comb-loop** — every combinational feedback loop with complete
//!   SCC membership (ring oscillators and latch hacks),
//! * **delay-line** — long, densely tapped buffer/inverter chains (the
//!   TDC structure), linear-time via a shared fanout index,
//! * **trivial-array** — huge arrays of replicated trivial cells
//!   (RO-grid power viruses),
//! * **clock-as-data** — clock inputs wired into combinational logic,
//! * **scoap-sensor** — SCOAP-style controllability/observability
//!   scoring of endpoint registers for "sensor-likeness",
//! * **signature** — known-bad subgraph motifs (RO cell, tapped delay
//!   chain) matched through interposed-buffer obfuscation,
//! * **observation-density** — the opt-in, deliberately over-aggressive
//!   output-density heuristic.
//!
//! On top of the structural pipeline sit three **semantic** passes
//! ([`PassManager::semantic`], combined in [`PassManager::full`]) that
//! reason about dataflow rather than topology:
//!
//! * **clock-taint** — a worklist fixpoint over an
//!   untainted/data-rate/clock-rate lattice, seeded from clock-named
//!   inputs, contract-declared clock pins and oscillating loops, that
//!   rejects clock-rate transitions converging on wide observation
//!   fan-in,
//! * **switching-activity** — static transition-density propagation
//!   with a worst-case glitch bound; rejects clock-driven switching
//!   observable at many outputs and upgrades SCOAP sensor-likeness
//!   from heuristic to reject with a witness path,
//! * **observation-bandwidth** — bounds the bits/cycle of clock-rate
//!   state readable at tenant outputs (the paper's TDC readout model).
//!
//! Passes declare dependencies ([`Pass::depends_on`]); the manager
//! schedules independent passes of a level in parallel and replays
//! per-pass results from a content-addressed [`ScanCache`]
//! ([`PassManager::scan`], [`PassManager::run_batch`]) keyed by FNV
//! hashes of the netlist and config — the admission-at-traffic fast
//! path.
//!
//! The headline result of the reproduction's stealth experiment
//! (`slm-core`'s detection matrix): every malicious-by-construction
//! generator is flagged by at least one structural pass, while the ALU
//! and C6288 sensors pass every structural check and are caught
//! **only** by the strict timing pass ([`check_timing`]) — and only if
//! the checker knows the tenant's requested clock. The semantic suite
//! moves that line: the `carry_sensor` specimen (the paper's deployed
//! benign-logic sensor with a contract-declared clock pin) passes every
//! structural check but falls to all three semantic passes, while the
//! benign families stay clean on both tiers.
//!
//! # Example
//!
//! ```
//! use slm_checker::{check_structure, CheckKind};
//! use slm_netlist::generators::{ring_oscillator, alu};
//!
//! let ro = ring_oscillator(8).unwrap();
//! let report = check_structure(&ro);
//! assert!(report.flagged(CheckKind::CombinationalLoop));
//!
//! let benign = alu(32).unwrap();
//! assert!(check_structure(&benign).is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod cache;
pub mod cli;
mod config;
mod diag;
mod pass;
pub mod passes;
pub mod semantic;
mod timing;

pub use analysis::Analysis;
pub use cache::ScanCache;
pub use config::{
    apply_suppressions, ActivityConfig, ArrayConfig, BandwidthConfig, CheckerConfig, ClockConfig,
    DelayLineConfig, LoopConfig, ObservationConfig, ScoapConfig, SignatureConfig, Suppression,
    TaintConfig,
};
pub use diag::{span_of, CheckKind, CheckReport, Finding, Severity, SpanNet, MAX_SPAN_NETS};
pub use pass::{Pass, PassManager, Prior};
pub use timing::check_timing;

use slm_netlist::Netlist;

/// Runs the full structural pipeline with default thresholds. For
/// explicit thresholds, call `PassManager::structural().run(nl, config)`.
pub fn check_structure(nl: &Netlist) -> CheckReport {
    PassManager::structural().run(nl, &CheckerConfig::default())
}

/// Runs the combined structural + semantic pipeline with default
/// thresholds. This is what `slm-scan` runs at admission. For explicit
/// thresholds, call `PassManager::full().run(nl, config)`.
pub fn check_full(nl: &Netlist) -> CheckReport {
    PassManager::full().run(nl, &CheckerConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use slm_netlist::generators::{
        alu, array_multiplier, c17, clock_as_data, obfuscated_ring_oscillator,
        obfuscated_tdc_delay_line, ring_oscillator, tapped_carry_chain, tdc_delay_line,
    };
    use slm_netlist::{Gate, GateKind, NetId, Netlist};
    use slm_obs::Obs;
    use slm_timing::DelayModel;

    #[test]
    fn ring_oscillator_flagged() {
        let ro = ring_oscillator(12).unwrap();
        let r = check_structure(&ro);
        assert!(r.flagged(CheckKind::CombinationalLoop));
        // the SCC pass reports the complete loop membership
        let f = r
            .findings
            .iter()
            .find(|f| f.kind == CheckKind::CombinationalLoop)
            .unwrap();
        assert_eq!(f.span.len(), 13, "NAND + 12 inverters");
        assert_eq!(f.severity, Severity::Reject);
        assert!(f.detail.contains("oscillates"));
    }

    #[test]
    fn tdc_delay_line_flagged() {
        let tdc = tdc_delay_line(64).unwrap();
        let r = check_structure(&tdc);
        assert!(r.flagged(CheckKind::DelayLineSensor), "{r:?}");
        assert!(r.flagged(CheckKind::SensorLikeEndpoints), "{r:?}");
    }

    /// The chain walk must handle long lines: the old per-step successor
    /// scan rescanned every gate, quadratic in the chain length, so a
    /// regression shows up as this test slowing from ~0.1 s to seconds.
    #[test]
    fn delay_line_pass_flags_a_50k_stage_line() {
        let tdc = tdc_delay_line(50_000).unwrap();
        let mut pm = PassManager::empty();
        pm.push(Box::new(passes::DelayLinePass));
        let r = pm.run(&tdc, &CheckerConfig::default());
        assert!(r.flagged(CheckKind::DelayLineSensor));
    }

    #[test]
    fn short_pipeline_buffers_not_flagged() {
        let tdc = tdc_delay_line(8).unwrap();
        assert!(check_structure(&tdc).is_clean());
    }

    #[test]
    fn untapped_long_chain_not_flagged() {
        // A long buffer chain with only the final output observed is
        // ordinary pipelining/fanout management, not a sensor.
        let mut b = slm_netlist::NetlistBuilder::new("pipe");
        let mut n = b.input("d");
        for _ in 0..64 {
            n = b.buf(n);
        }
        b.output("q", n);
        let nl = b.finish().unwrap();
        assert!(check_structure(&nl).is_clean());
    }

    #[test]
    fn ro_grid_power_virus_flagged() {
        // 1500 independent 2-NAND cells (the classic RO grid, modelled
        // acyclically so only the array pass fires).
        let mut gates = vec![Gate::new(GateKind::Input, vec![])];
        let mut names = vec![Some("en".to_string())];
        for i in 0..1500u32 {
            gates.push(Gate::new(GateKind::Nand, vec![NetId(0), NetId(0)]));
            names.push(Some(format!("cell{i}")));
        }
        let nl = Netlist::from_parts("grid", gates, vec![NetId(0)], vec![], names).unwrap();
        let r = check_structure(&nl);
        assert!(r.flagged(CheckKind::ExcessiveFanoutArray));
    }

    #[test]
    fn loop_reporting_is_capped_with_a_summary() {
        let grid = slm_netlist::generators::ro_grid(50).unwrap();
        let r = check_structure(&grid);
        let loops: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.kind == CheckKind::CombinationalLoop)
            .collect();
        let cap = CheckerConfig::default().loops.max_reported;
        assert_eq!(loops.len(), cap + 1, "cap + summary finding");
        assert!(loops.last().unwrap().detail.contains("further"));
    }

    #[test]
    fn obfuscated_specimens_are_caught_by_the_new_passes() {
        // Interposed buffers defeat neither the SCC pass nor the
        // signature matcher.
        let ro = obfuscated_ring_oscillator(8).unwrap();
        let r = check_structure(&ro);
        assert!(r.flagged(CheckKind::CombinationalLoop));
        assert!(r.flagged(CheckKind::KnownBadMotif), "{r:?}");

        // The identity-gate TDC evades the plain delay-line matcher but
        // not SCOAP or the tapped-chain signature.
        let tdc = obfuscated_tdc_delay_line(48).unwrap();
        let r = check_structure(&tdc);
        assert!(!r.flagged(CheckKind::DelayLineSensor));
        assert!(r.flagged(CheckKind::SensorLikeEndpoints), "{r:?}");
        assert!(r.flagged(CheckKind::KnownBadMotif), "{r:?}");

        // The carry-chain TDC is pure adder logic: only the signature
        // matcher sees the tapped chain.
        let carry = tapped_carry_chain(64).unwrap();
        let r = check_structure(&carry);
        assert!(r.flagged(CheckKind::KnownBadMotif), "{r:?}");

        // Clock-as-data is its own pass.
        let clk = clock_as_data(16).unwrap();
        let r = check_structure(&clk);
        assert!(r.flagged(CheckKind::ClockAsData), "{r:?}");
        assert_eq!(r.max_severity(), Some(Severity::Reject));
    }

    #[test]
    fn benign_circuits_pass_structural_checks() {
        for nl in [alu(192).unwrap(), array_multiplier(16).unwrap(), c17()] {
            let r = check_structure(&nl);
            assert!(r.is_clean(), "{} flagged: {:?}", nl.name(), r.findings);
        }
    }

    #[test]
    fn observation_heuristic_is_a_false_positive_trap() {
        // Opt-in heuristic: it catches a tapped carry chain (a TDC built
        // from an adder), but it also flags a perfectly ordinary
        // ripple-carry adder — the paper's argument for why structural
        // screening cannot be tightened into a defence.
        let config = CheckerConfig {
            observation: ObservationConfig {
                enable: true,
                ..ObservationConfig::default()
            },
            ..CheckerConfig::default()
        };
        let rca = slm_netlist::generators::ripple_carry_adder(64).unwrap();
        let r = PassManager::structural().run(&rca, &config);
        assert!(
            r.flagged(CheckKind::ObservationDensity),
            "the heuristic must (wrongly) flag the plain adder: {r:?}"
        );
        // while the big ALU, whose outputs are a tiny fraction of its
        // logic, passes even the aggressive heuristic
        let alu = alu(192).unwrap();
        assert!(PassManager::structural().run(&alu, &config).is_clean());
        // and it stays off by default
        assert!(check_structure(&rca).is_clean());
    }

    #[test]
    fn suppression_silences_warn_but_never_reject() {
        let rca = slm_netlist::generators::ripple_carry_adder(64).unwrap();
        let config = CheckerConfig {
            observation: ObservationConfig {
                enable: true,
                ..ObservationConfig::default()
            },
            suppressions: vec![Suppression {
                kind: Some(CheckKind::ObservationDensity),
                reason: "known-benign adder".into(),
                ..Suppression::default()
            }],
            ..CheckerConfig::default()
        };
        let r = PassManager::structural().run(&rca, &config);
        assert!(r.is_clean(), "suppressed Warn no longer dirties: {r:?}");
        assert!(
            r.findings.iter().any(|f| f.suppressed.is_some()),
            "the finding stays in the report for audit"
        );

        // A blanket suppression cannot hide a Reject.
        let ro = ring_oscillator(8).unwrap();
        let config = CheckerConfig {
            suppressions: vec![Suppression {
                reason: "attempted cover-up".into(),
                ..Suppression::default()
            }],
            ..CheckerConfig::default()
        };
        let r = PassManager::structural().run(&ro, &config);
        assert!(!r.is_clean());
        assert!(r.flagged(CheckKind::CombinationalLoop));
    }

    #[test]
    fn strict_timing_catches_the_overclock() {
        // The paper's discussion: only a strict timing check catches the
        // benign sensor — at 300 MHz, never at its synthesis clock.
        let nl = alu(192).unwrap();
        let ann = DelayModel::default()
            .annotate_for_period(&nl, 20.0, 0.9)
            .unwrap();
        assert!(check_timing(&ann, 50.0).is_clean());
        let r = check_timing(&ann, 300.0);
        assert!(r.flagged(CheckKind::TimingOverclock));
        assert!(r.findings[0].detail.contains("300.0 MHz"));
        assert!(
            !r.findings[0].span.is_empty(),
            "overclock reports the critical path"
        );
    }

    #[test]
    fn timing_check_on_cyclic_reports_loop() {
        let ro = ring_oscillator(4).unwrap();
        let ann = DelayModel::default().annotate(&ro);
        let r = check_timing(&ann, 100.0);
        assert!(r.flagged(CheckKind::CombinationalLoop));
        // routed through the SCC pass: witness net and loop size present
        let f = r
            .findings
            .iter()
            .find(|f| f.kind == CheckKind::CombinationalLoop)
            .unwrap();
        assert!(f.witness.is_some());
        assert_eq!(f.span.len(), 5, "NAND + 4 inverters");
        assert!(f.detail.contains("5 nets"));
    }

    #[test]
    fn pass_manager_is_composable() {
        let mut pm = PassManager::empty();
        pm.push(Box::new(passes::SccLoopPass));
        assert_eq!(pm.pass_names(), vec!["comb-loop"]);
        let tdc = tdc_delay_line(64).unwrap();
        // only the loop pass runs: the TDC sails through
        assert!(pm.run(&tdc, &CheckerConfig::default()).is_clean());
        let names = PassManager::structural().pass_names();
        assert_eq!(names.len(), 7);
        assert!(names.contains(&"scoap-sensor") && names.contains(&"signature"));
        let full = PassManager::full().pass_names();
        assert_eq!(full.len(), 10);
        assert!(full.contains(&"clock-taint") && full.contains(&"observation-bandwidth"));
    }

    #[test]
    fn dependency_schedule_orders_semantic_after_prerequisites() {
        let schedule = PassManager::full().schedule();
        let level_of = |pass: &str| {
            schedule
                .iter()
                .position(|lvl| lvl.contains(&pass))
                .unwrap_or_else(|| panic!("{pass} not scheduled"))
        };
        // dependents strictly after their declared dependencies
        assert!(level_of("switching-activity") > level_of("scoap-sensor"));
        assert!(level_of("observation-bandwidth") > level_of("clock-taint"));
        // all seven structural passes plus clock-taint are independent
        assert_eq!(schedule[0].len(), 8, "{schedule:?}");
    }

    #[test]
    fn semantic_suite_catches_the_declared_clock_sensor() {
        // The carry-chain sensor with a contract-declared clock pin is
        // the specimen structural screening cannot see.
        let nl = slm_netlist::generators::carry_sensor(64, 4).unwrap();
        assert!(
            check_structure(&nl).is_clean(),
            "structurally clean by design"
        );
        let config = CheckerConfig {
            taint: TaintConfig {
                declared_clocks: vec!["sense".into()],
                ..TaintConfig::default()
            },
            ..CheckerConfig::default()
        };
        let r = PassManager::full().run(&nl, &config);
        assert!(r.flagged(CheckKind::ClockTaint), "{r:?}");
        assert!(r.flagged(CheckKind::SwitchingActivity), "{r:?}");
        assert!(r.flagged(CheckKind::ObservationBandwidth), "{r:?}");
        assert_eq!(r.max_severity(), Some(Severity::Reject));
        // without the contract declaration the taint seed disappears
        let r = check_full(&nl);
        assert!(!r.flagged(CheckKind::ClockTaint), "{r:?}");
    }

    #[test]
    fn semantic_suite_stays_quiet_on_benign_designs() {
        for nl in [alu(192).unwrap(), array_multiplier(16).unwrap(), c17()] {
            let r = check_full(&nl);
            assert!(
                r.active().all(|f| f.severity == Severity::Info),
                "{} semantically flagged: {:?}",
                nl.name(),
                r.findings
            );
            assert!(r.is_clean(), "{}: {:?}", nl.name(), r.findings);
        }
    }

    #[test]
    fn cached_rescan_is_bit_identical() {
        let cache = ScanCache::in_memory();
        let pm = PassManager::full();
        let nl = tdc_delay_line(64).unwrap();
        let config = CheckerConfig::default();
        let cold = pm.scan(&nl, &config, Some(&cache), 1, &Obs::null());
        let warm = pm.scan(&nl, &config, Some(&cache), 1, &Obs::null());
        assert_eq!(cold.to_json(), warm.to_json());
        assert!(
            cache.hits() >= pm.pass_names().len() as u64,
            "warm scan replays"
        );
        // a config change invalidates the key
        let strict = CheckerConfig {
            bandwidth: BandwidthConfig {
                warn_bits_per_cycle: 1,
            },
            ..CheckerConfig::default()
        };
        let miss_before = cache.misses();
        let _ = pm.scan(&nl, &strict, Some(&cache), 1, &Obs::null());
        assert!(cache.misses() > miss_before);
    }

    #[test]
    fn parallel_full_scan_matches_serial() {
        let pm = PassManager::full();
        let config = CheckerConfig::default();
        for nl in [
            tdc_delay_line(64).unwrap(),
            ring_oscillator(8).unwrap(),
            slm_netlist::generators::carry_sensor(32, 4).unwrap(),
        ] {
            let serial = pm.run(&nl, &config);
            let par = pm.scan(&nl, &config, None, 4, &Obs::null());
            assert_eq!(serial.to_json(), par.to_json(), "{}", nl.name());
        }
    }

    /// Zero group thresholds let an empty group through; each pass
    /// must then report nothing for it rather than panic looking for a
    /// witness.
    #[test]
    fn zero_scoap_endpoint_threshold_reports_no_empty_group() {
        let config = CheckerConfig {
            scoap: ScoapConfig {
                min_endpoints: 0,
                ..ScoapConfig::default()
            },
            ..CheckerConfig::default()
        };
        let r = PassManager::full().run(&alu(32).unwrap(), &config);
        assert!(r.findings.iter().all(|f| f.pass != "scoap-sensor"), "{r:?}");
    }

    #[test]
    fn zero_activity_tap_threshold_reports_no_empty_group() {
        let config = CheckerConfig {
            activity: ActivityConfig {
                min_taps: 0,
                ..ActivityConfig::default()
            },
            ..CheckerConfig::default()
        };
        let r = PassManager::full().run(&alu(32).unwrap(), &config);
        // Only the reconvergence note remains.
        assert!(r.is_clean(), "{r:?}");
        assert!(r.active().all(|f| f.severity == Severity::Info), "{r:?}");
    }

    #[test]
    fn zero_taint_observation_threshold_reports_no_empty_group() {
        // The clock reaches the output through a buffer only: tainted,
        // but nothing converges through logic.
        let mut b = slm_netlist::NetlistBuilder::new("clk_feedthrough");
        let clk = b.input("clk");
        let q = b.buf(clk);
        b.output("q", q);
        let nl = b.finish().unwrap();
        let config = CheckerConfig {
            taint: TaintConfig {
                min_observed: 0,
                ..TaintConfig::default()
            },
            ..CheckerConfig::default()
        };
        let r = PassManager::full().run(&nl, &config);
        assert!(r.findings.iter().all(|f| f.pass != "clock-taint"), "{r:?}");
        // The same feed-through under the default threshold is a note.
        let r = check_full(&nl);
        assert!(r.findings.iter().any(|f| f.pass == "clock-taint"), "{r:?}");
    }
}
