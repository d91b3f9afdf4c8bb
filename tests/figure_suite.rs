//! The reproduction record: every figure, ablation and long-horizon
//! defense row EXPERIMENTS.md quotes is one test here, run with the
//! inputs EXPERIMENTS.md names and pinned to the values it reports.
//! Each pin's failure message shows the measured value next to the
//! pinned one; a model change that moves a pin updates EXPERIMENTS.md
//! with it.
//!
//! The benign-logic attacks (Figs. 10, 12, 13, 17, 18) and the
//! long-horizon defense table stream 10⁵–10⁶ traces, so they are
//! `#[ignore]`d in tier-1: `cargo test -p slm-core --test figure_suite
//! -- --ignored` runs them, `-- --include-ignored` the whole record.
//! The examples print the data series: `quickstart` the RO-burst
//! response (Figs. 5, 6, 14), `sensor_explorer` the endpoint census
//! and variance (Figs. 7, 8, 15, 16).

use slm_atpg::{Objective, StimulusSearch};
use slm_core::experiments::{
    activity_study, aes_pilot_activity, architecture_study, atpg_stimulus_study, floorplan_views,
    full_key_recovery, ro_response, run_cpa, run_streaming, stealth_audit, stealth_matrix,
    timing_audit, tvla_study, ActivityStudy, CpaExperiment, CpaResult, DefenseArm, EarlyStop,
    SensorSource, StreamingCpa,
};
use slm_cpa::BitActivity;
use slm_fabric::{
    AesActivity, BenignCircuit, DetectorConfig, FabricConfig, MultiTenantFabric, RoSchedule,
};
use slm_obs::Obs;
use slm_pdn::PdnConfig;
use slm_sensors::BenignSensorConfig;
use slm_timing::{simulate_transition, DelayModel};

/// Fig. 9's MTD: the TDC baseline every benign MTD is measured against.
/// It is the first checkpoint of its 20 000-trace / 20-checkpoint grid,
/// so every benign/TDC ratio below is a lower bound.
const FIG09_TDC_MTD: u64 = 1_000;

/// The paper's "TDC ≪ benign": the pinned runs give 30–210×.
const BENIGN_OVER_TDC: u64 = 30;

/// Runs one figure's campaign and checks it recovers the key byte.
fn attack(
    label: &str,
    circuit: BenignCircuit,
    source: SensorSource,
    traces: u64,
    checkpoints: usize,
    pilot_traces: usize,
    seed: u64,
) -> CpaResult {
    let exp = CpaExperiment {
        circuit,
        source,
        traces,
        checkpoints,
        pilot_traces,
        seed,
    };
    let r = run_cpa(&exp, |_| {}, &Obs::null()).expect("fabric builds");
    assert_eq!(
        r.recovered_key_byte,
        Some(r.correct_key_byte),
        "{label} must recover the key"
    );
    r
}

/// A benign-sensor campaign at the paper's scale (40 checkpoints, a
/// 500-trace pilot), pinned to its MTD and selected endpoint, and at
/// least [`BENIGN_OVER_TDC`] times the TDC's MTD.
fn benign_attack(
    label: &str,
    circuit: BenignCircuit,
    source: SensorSource,
    traces: u64,
    seed: u64,
    pinned: (u64, Option<usize>),
) {
    let r = attack(label, circuit, source, traces, 40, 500, seed);
    let mtd = r.mtd.expect("a recovered key has an MTD");
    assert_eq!(
        (mtd, r.selected_bit),
        pinned,
        "{label} (MTD, endpoint): measured vs pinned"
    );
    assert!(
        mtd >= BENIGN_OVER_TDC * FIG09_TDC_MTD,
        "{label}: benign MTD {mtd} < {BENIGN_OVER_TDC}x the TDC's {FIG09_TDC_MTD}"
    );
}

/// The census counts in table order: total, RO-sensitive, AES-affected,
/// AES ∩ RO, AES-only, unaffected.
fn census(study: &ActivityStudy) -> [usize; 6] {
    let c = &study.census;
    [
        c.total,
        c.ro_sensitive.len(),
        c.aes_sensitive.len(),
        c.intersection.len(),
        c.aes_only.len(),
        c.unaffected,
    ]
}

/// Fig. 7's ALU census (seed 3).
const ALU_CENSUS: [usize; 6] = [193, 28, 16, 16, 0, 165];

#[test]
fn fig05_fig06_alu_tracks_ro_bursts() {
    let r = ro_response(BenignCircuit::Alu192, 400, 21).unwrap();
    // quiet lead-in, then fluctuation (Fig. 5 shape)
    let quiet: u32 = r.toggle_counts[..35].iter().sum();
    let active: u32 = r.toggle_counts[45..].iter().sum();
    assert!(
        active > 3 * quiet.max(1),
        "active {active} vs quiet {quiet}"
    );
    // Fig. 6: HW of sensitive bits anti-tracks delay (tracks TDC): when
    // the TDC dips, the ALU HW must move too. Use droop vs quiet means.
    let tdc_min_at = (0..r.tdc.len()).min_by_key(|&i| r.tdc[i]).unwrap();
    let hw_quiet = f64::from(r.hw_sensitive[..30].iter().sum::<u32>()) / 30.0;
    let hw_droop = f64::from(r.hw_sensitive[tdc_min_at]);
    assert!(
        (hw_droop - hw_quiet).abs() >= 1.0,
        "ALU HW must move at the droop: quiet {hw_quiet}, droop {hw_droop}"
    );
}

#[test]
fn fig07_fig08_alu_census_bands() {
    // Paper: 79/192 RO-sensitive, 40 AES-affected (39 ⊂ RO), 112 idle.
    // Ours is smaller but keeps the subset property (AES-only = 0).
    let study = activity_study(BenignCircuit::Alu192, 3_000, 3).unwrap();
    assert_eq!(census(&study), ALU_CENSUS, "ALU census: measured vs pinned");
    assert_eq!(
        study.variance.best_aes_endpoint,
        Some(118),
        "Fig. 8 best endpoint"
    );
}

#[test]
fn fig14_fig15_fig16_c6288_census_bands() {
    // Paper: 49/64 RO-sensitive, 32 AES-affected, 15 idle.
    let study = activity_study(BenignCircuit::DualC6288, 3_000, 15).unwrap();
    let c = census(&study);
    assert_eq!(
        c,
        [64, 36, 35, 35, 0, 28],
        "C6288 census: measured vs pinned"
    );
    assert_eq!(
        study.variance.best_aes_endpoint,
        Some(17),
        "Fig. 16 best endpoint"
    );
    // The paper's "50% of endpoints usable vs ~20% for the ALU".
    assert!(
        c[1] * ALU_CENSUS[0] > ALU_CENSUS[1] * c[0],
        "C6288 RO-sensitive fraction {}/{} must beat the ALU's {}/{}",
        c[1],
        c[0],
        ALU_CENSUS[1],
        ALU_CENSUS[0]
    );
}

#[test]
fn fig09_fig11_tdc_attacks_fast() {
    for (label, source, seed, pinned) in [
        ("fig09", SensorSource::TdcAll, 9, (FIG09_TDC_MTD, None)),
        (
            "fig11",
            SensorSource::TdcSingleBit(None),
            11,
            (1_000, Some(19)),
        ),
    ] {
        let r = attack(label, BenignCircuit::Alu192, source, 20_000, 20, 100, seed);
        assert_eq!(
            (r.mtd.unwrap(), r.selected_bit),
            pinned,
            "{label} (MTD, tap): measured vs pinned"
        );
    }
}

#[test]
#[ignore = "slow (10^5-trace campaigns): CI runs it in its own step with --ignored"]
fn fig10_fig12_fig13_benign_alu_attacks() {
    use SensorSource::{BenignHammingWeight, BenignSingleBit};
    let alu = BenignCircuit::Alu192;
    benign_attack(
        "fig10",
        alu,
        BenignHammingWeight,
        400_000,
        10,
        (30_000, None),
    );
    benign_attack(
        "fig12",
        alu,
        BenignSingleBit(None),
        400_000,
        12,
        (80_000, Some(117)),
    );
    // The paper repeats Fig. 12 on an alternate endpoint; ours is the
    // pilot's second-ranked one.
    let pilot = aes_pilot_activity(alu, 3_000, 13).unwrap();
    let alt = pilot.by_variance()[1];
    assert_eq!(alt, 118, "fig13 alternate endpoint: measured vs pinned");
    benign_attack(
        "fig13",
        alu,
        BenignSingleBit(Some(alt)),
        400_000,
        13,
        (210_000, Some(alt)),
    );
}

#[test]
#[ignore = "slow (10^5-trace campaigns): CI runs it in its own step with --ignored"]
fn fig17_fig18_benign_c6288_attacks_succeed() {
    // Our C6288 sensor is weaker than the paper's (its endpoint
    // responses spread over several capture points — see
    // EXPERIMENTS.md), so these budgets are larger than the paper's
    // 200k/100k.
    let c6288 = BenignCircuit::DualC6288;
    let hw = SensorSource::BenignHammingWeight;
    benign_attack("fig17", c6288, hw, 800_000, 17, (180_000, None));
    let bit = SensorSource::BenignSingleBit(None);
    benign_attack("fig18", c6288, bit, 500_000, 18, (200_000, Some(24)));
}

#[test]
fn fig03_fig04_floorplans() {
    for circuit in [BenignCircuit::Alu192, BenignCircuit::DualC6288] {
        let v = floorplan_views(circuit, 49, 7).unwrap();
        let measured = (
            format!("{:.3}", v.benign_density),
            format!("{:.3}", v.tdc_density),
            v.sensitive_cells,
        );
        let pinned = ("0.285".to_string(), "0.800".to_string(), 49);
        assert_eq!(
            measured, pinned,
            "{} (benign, TDC density, sensitive)",
            v.name
        );
        assert!(v.ascii.contains('S') && v.ascii.contains('A') && v.ascii.contains('r'));
    }
}

#[test]
fn section6_stealth_and_timing() {
    let audit = stealth_audit().unwrap();
    assert!(audit.stealth_demonstrated());
    let findings: Vec<(&str, usize)> = audit
        .rows
        .iter()
        .map(|(name, report, _)| (name.as_str(), report.findings.len()))
        .collect();
    assert_eq!(
        findings,
        [
            ("ring_oscillator", 2),
            ("tdc_delay_line", 2),
            ("alu192", 0),
            ("dual_c6288", 0)
        ],
        "structural findings per design: measured vs pinned"
    );
    let t = timing_audit(5.2).unwrap();
    for r in &t.rows {
        assert!(r.meets_synth_clock && !r.meets_overclock && r.strict_check_fires);
        assert_eq!(
            format!("{:.1}", r.fmax_mhz),
            "192.3",
            "{} fmax (MHz)",
            r.name
        );
    }
}

/// The README's detection matrix, from its header line to the first
/// line that is not a table row, is the regenerated matrix byte for
/// byte; on drift the failure prints the table to paste in.
#[test]
fn section6_readme_detection_matrix_is_current() {
    let readme = include_str!("../README.md");
    let start = readme
        .find("| design | class |")
        .expect("README carries the detection matrix");
    let table: String = readme[start..]
        .lines()
        .take_while(|line| line.starts_with('|'))
        .map(|line| format!("{line}\n"))
        .collect();
    assert_eq!(table, stealth_matrix().unwrap().markdown_table());
}

#[test]
fn section6_atpg_extension() {
    let s = atpg_stimulus_study(16, 40, 3).unwrap();
    assert_eq!(
        (format!("{:.2}", s.ratio), s.found.evaluations),
        ("1.00".to_string(), 7_208),
        "ATPG (found/hand ratio, evaluations): measured vs pinned"
    );
}

/// Long-horizon defense MTDs: the defense matrix's TDC campaign (dual
/// C6288, seed 41) streamed to a 10⁶-trace budget with online-MTD early
/// stop. A defense is judged by how far it pushes the MTD.
#[test]
#[ignore = "slow (three arms stream 10^6 traces): CI runs it in its own step with --ignored"]
fn long_horizon_defense_mtds_are_pinned() {
    let base = CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::TdcAll,
        traces: 1_000_000,
        checkpoints: 4,
        pilot_traces: 100,
        seed: 41,
    };
    let detector = DetectorConfig {
        window_ticks: 4098,
        alarm_threshold: 0.05,
    };
    // (arm, MTD, traces run, early stop)
    let rows = [
        (DefenseArm::Undefended, 2_000, 8_000, true),
        (DefenseArm::PrngFence(1.5), 98_000, 522_000, true),
        (DefenseArm::AdaptiveFence(1.5), 98_000, 1_000_000, false),
        (DefenseArm::Ldo(0.25), 6_000, 32_000, true),
        (DefenseArm::ClockJitter(8), 606_000, 1_000_000, false),
    ];
    for (tag, (arm, mtd, traces, early_stop)) in rows.into_iter().enumerate() {
        let exp = StreamingCpa::new(base)
            .with_window(1_000)
            .with_commit_every(2)
            .with_config_tag(tag as u64 + 1)
            .with_early_stop(EarlyStop {
                min_traces: 5_000,
                stable_commits: 3,
                min_margin: 0.01,
            });
        let dir = std::env::temp_dir().join(format!("slm-horizon-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let deployment = arm.deployment(detector, 0xbe7);
        let r = run_streaming(
            &exp,
            &dir,
            |config| {
                if !matches!(arm, DefenseArm::Undefended) {
                    config.stimulus_alternation = 0.3;
                    config.defense = deployment;
                }
            },
            &Obs::null(),
        )
        .expect("fabric builds");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            (r.result.mtd, r.traces, r.early_stopped),
            (Some(mtd), traces, early_stop),
            "{} (MTD, traces run, early stop): measured vs pinned",
            arm.label()
        );
    }
}

/// Sensitive ALU endpoints under the paper's 4 MHz RO schedule, with
/// the benign sensor configured by `sensor`.
fn sensitive_endpoints(sensor: BenignSensorConfig) -> usize {
    let config = FabricConfig {
        benign: BenignCircuit::Alu192,
        sensor,
        ..FabricConfig::default()
    };
    let mut fabric = MultiTenantFabric::new(&config).unwrap();
    let trace = fabric.run_activity(Some(&RoSchedule::paper_4mhz()), AesActivity::Idle, 600);
    let mut act = BitActivity::new(fabric.endpoints());
    for s in &trace.benign {
        act.add(s);
    }
    act.sensitive_bits().len()
}

#[test]
fn ablation_sensor_jitter_widens_the_sensitive_band() {
    // Jitter dithers the discrete capture thresholds into an analog
    // response (DESIGN.md §5): more jitter, more sensitive endpoints.
    let counts: Vec<usize> = [0.0, 15.0, 30.0, 60.0, 120.0]
        .into_iter()
        .map(|jitter_sigma_ps| {
            sensitive_endpoints(BenignSensorConfig {
                jitter_sigma_ps,
                ..BenignSensorConfig::overclocked_300mhz(1)
            })
        })
        .collect();
    assert_eq!(
        counts,
        [16, 17, 22, 26, 39],
        "sensitive endpoints per jitter"
    );
}

#[test]
fn ablation_overclock_opens_the_sensitive_band() {
    // At the synthesis clock and 2x it every endpoint settles before
    // capture; past that a band of endpoints dithers, narrowing as the
    // capture edge moves further into the logic.
    let counts: Vec<usize> = [50.0, 100.0, 200.0, 250.0, 300.0, 350.0]
        .into_iter()
        .map(|clock_mhz| {
            sensitive_endpoints(BenignSensorConfig {
                clock_mhz,
                ..BenignSensorConfig::overclocked_300mhz(2)
            })
        })
        .collect();
    assert_eq!(
        counts,
        [0, 0, 35, 30, 26, 19],
        "sensitive endpoints per clock"
    );
}

#[test]
fn ablation_wideband_path_carries_part_of_the_aes_signature() {
    // Supply-voltage std under continuous AES as the wideband path's
    // resistance r_fast grows. Removing the path (r_fast = 0) only
    // lowers it from 1.28 to 0.82 mV: the package resonance still
    // passes most of the signature.
    let stds: Vec<String> = [0.0, 0.004, 0.012]
        .into_iter()
        .map(|r_fast| {
            let config = FabricConfig {
                benign: BenignCircuit::DualC6288,
                pdn: PdnConfig {
                    r_fast,
                    noise_sigma_v: 0.0,
                    ..PdnConfig::default()
                },
                ..FabricConfig::default()
            };
            let mut fabric = MultiTenantFabric::new(&config).unwrap();
            let v = fabric
                .run_activity(None, AesActivity::Continuous, 600)
                .voltage;
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
            format!("{:.6}", var.sqrt())
        })
        .collect();
    assert_eq!(
        stds,
        ["0.000816", "0.000888", "0.001279"],
        "voltage std (V) per r_fast"
    );
}

#[test]
fn ablation_routing_spread_shifts_settle_times() {
    // p10/p90 ALU endpoint settle times as the routing spread grows:
    // both move later, by under 10 %.
    let built = BenignCircuit::Alu192.build().unwrap();
    let settles: Vec<String> = [(0.0, 0.0), (30.0, 120.0), (30.0, 220.0)]
        .into_iter()
        .map(|(routing_min_ps, routing_max_ps)| {
            let model = DelayModel {
                routing_min_ps,
                routing_max_ps,
                ..DelayModel::default()
            };
            let ann = model.annotate_for_period(&built.netlist, 5.2, 1.0).unwrap();
            let waves = simulate_transition(&ann, &built.reset, &built.measure).unwrap();
            let mut fs: Vec<u64> = waves
                .output_waves()
                .iter()
                .map(|w| w.settle_time_fs())
                .collect();
            fs.sort_unstable();
            let ps = |i: usize| fs[i] as f64 / 1000.0;
            format!("{:.0}/{:.0}", ps(fs.len() / 10), ps(fs.len() * 9 / 10))
        })
        .collect();
    assert_eq!(
        settles,
        ["586/4526", "619/4602", "634/4618"],
        "settle p10/p90 (ps) per spread"
    );
}

#[test]
fn ablation_atpg_restarts_saturate() {
    // Near-critical C6288 endpoints the stimulus search activates, per
    // restart budget: three restarts reach what twelve do.
    let nl = slm_netlist::generators::c6288().unwrap();
    let ann = DelayModel::default()
        .annotate_for_period(&nl, 5.2, 1.0)
        .unwrap();
    let objective = Objective::MaxActiveEndpoints {
        window_lo_ps: 2700.0,
        window_hi_ps: 4100.0,
    };
    let scores: Vec<f64> = [1, 3, 6, 12]
        .into_iter()
        .map(|restarts| StimulusSearch::new(&ann, objective).run(restarts, 99).score)
        .collect();
    assert_eq!(
        scores,
        [16.0, 18.0, 18.0, 18.0],
        "active endpoints per restart budget"
    );
}

#[test]
fn extension_full_key_recovery_via_tdc() {
    let r = full_key_recovery(BenignCircuit::Alu192, SensorSource::TdcAll, 25_000, 60, 29).unwrap();
    assert!(r.correct_bytes >= 14, "{:?}", r.ranks);
    if r.correct_bytes == 16 {
        assert!(r.master_key_correct);
    }
}

#[test]
fn extension_tvla_flags_both_sensors() {
    let r = tvla_study(BenignCircuit::Alu192, 5_000, 60, 30).unwrap();
    assert!(r.tdc_leaks, "TDC |t| = {}", r.tdc_max_t);
    assert!(r.benign_max_t > 3.0, "benign |t| = {}", r.benign_max_t);
}

#[test]
fn extension_rds_outperforms_tdc() {
    // Swap the fabric's reference sensor for routing-delay-sensor
    // parameters (finer taps, lower jitter): the same attack needs fewer
    // traces — the related-work result the RDS model encodes.
    let base = CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::TdcAll,
        traces: 3_000,
        checkpoints: 10,
        pilot_traces: 60,
        seed: 33,
    };
    let tdc = run_cpa(&base, |_| {}, &Obs::null()).unwrap();
    let rds = run_cpa(
        &base,
        |config| config.tdc = *slm_sensors::RdsSensor::paper_150mhz(0x7d5).config(),
        &Obs::null(),
    )
    .unwrap();
    assert!(tdc.mtd.is_some() && rds.mtd.is_some());
    assert!(
        rds.mtd.unwrap() <= tdc.mtd.unwrap(),
        "RDS {:?} should beat TDC {:?}",
        rds.mtd,
        tdc.mtd
    );
}

#[test]
fn extension_architecture_study_shapes() {
    let s = architecture_study(32).unwrap();
    let row = |name| s.rows.iter().find(|r| r.name == name).unwrap();
    let (rca, csel) = (row("rca64"), row("csel64"));
    assert!(rca.usable_periods > csel.usable_periods);
    assert!(csel.best_count >= rca.best_count);
}
