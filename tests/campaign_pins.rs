//! Exact-value pins of every campaign engine.
//!
//! Each test runs a small fixed-seed campaign and pins the FNV-1a
//! digest of its result's `Debug` text. `f64`'s `Debug` output
//! round-trips exactly, so a digest matches only if every progress
//! point, peak correlation, MTD and recovered byte is bit-identical to
//! the pinned run. A refactor of the capture/absorb loops must leave
//! every digest here unchanged; the per-engine invariance tests only
//! compare an engine against itself.
//!
//! The capture layer is pinned the same way: serial campaigns under
//! each runtime defense, and raw fabric runs that interleave full,
//! windowed and free-running captures and digest the records together
//! with the PDN, defense and fault telemetry.

use slm_core::experiments::{
    run_cpa, run_cpa_parallel, run_fault_campaign, run_streaming, CpaExperiment, CpaResult,
    DefenseArm, FaultCampaign, ParallelCpa, SensorSource, StreamingCpa,
};
use slm_cpa::DfaModel;
use slm_fabric::{
    AesActivity, AggressorSpec, BenignCircuit, DetectorConfig, FabricConfig, FenceConfig,
    MultiTenantFabric, RoSchedule,
};
use slm_obs::Obs;
use std::fmt::Write;

/// FNV-1a over the `Debug` rendering of `value`.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{value:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn assert_pinned(what: &str, value: &impl std::fmt::Debug, pinned: u64) {
    let got = digest(value);
    assert_eq!(
        got, pinned,
        "{what}: digest {got:#018x} != pinned {pinned:#018x}"
    );
}

fn experiment(
    circuit: BenignCircuit,
    source: SensorSource,
    traces: u64,
    seed: u64,
) -> CpaExperiment {
    CpaExperiment {
        circuit,
        source,
        traces,
        checkpoints: 4,
        pilot_traces: 60,
        seed,
    }
}

fn serial(exp: &CpaExperiment) -> CpaResult {
    run_cpa(exp, |_| {}, &Obs::null()).expect("fabric builds")
}

fn parallel(base: CpaExperiment, workers: usize) -> CpaResult {
    let exp = ParallelCpa {
        base,
        shard_traces: 90,
        workers,
    };
    run_cpa_parallel(&exp, |_| {}, &Obs::null()).expect("fabric builds")
}

fn streaming(base: CpaExperiment, workers: usize) -> CpaResult {
    let dir = std::env::temp_dir().join(format!("slm-pins-{}-{workers}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let exp = StreamingCpa::new(base)
        .with_window(50)
        .with_commit_every(2)
        .with_workers(workers);
    let r = run_streaming(&exp, &dir, |_| {}, &Obs::null()).expect("fabric builds");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!((r.windows, r.traces), (6, 300));
    r.result
}

#[test]
fn serial_tdc_campaign_is_pinned() {
    let exp = experiment(BenignCircuit::DualC6288, SensorSource::TdcAll, 600, 101);
    assert_pinned("serial TdcAll", &serial(&exp), 0x788c_303e_f1bc_d8fc);
}

#[test]
fn serial_hamming_weight_campaign_is_pinned() {
    let exp = experiment(
        BenignCircuit::Alu192,
        SensorSource::BenignHammingWeight,
        400,
        102,
    );
    assert_pinned(
        "serial BenignHammingWeight",
        &serial(&exp),
        0x5e7a_e566_afe4_b344,
    );
}

#[test]
fn serial_multi_slot_single_bit_campaign_is_pinned() {
    let exp = experiment(
        BenignCircuit::DualC6288,
        SensorSource::BenignSingleBit(None),
        300,
        103,
    );
    let r = serial(&exp);
    assert!(r.bits_of_interest.len() > 1, "multi-slot: {r:?}");
    assert_pinned("serial BenignSingleBit(None)", &r, 0x1b9f_5365_638e_0347);
}

#[test]
fn parallel_campaigns_are_pinned_at_1_and_4_workers() {
    let tdc = experiment(BenignCircuit::DualC6288, SensorSource::TdcAll, 500, 104);
    let hw = experiment(
        BenignCircuit::Alu192,
        SensorSource::BenignHammingWeight,
        300,
        105,
    );
    for workers in [1, 4] {
        let tdc_run = parallel(tdc, workers);
        assert_pinned(
            &format!("parallel TdcAll x{workers}"),
            &tdc_run,
            0x66dd_1a29_e000_ea76,
        );
        let hw_run = parallel(hw, workers);
        assert_pinned(
            &format!("parallel HW x{workers}"),
            &hw_run,
            0x9b81_9cd9_063d_f881,
        );
    }
}

#[test]
fn streaming_campaign_is_pinned_at_1_and_4_workers() {
    let base = experiment(BenignCircuit::DualC6288, SensorSource::TdcAll, 300, 106);
    for workers in [1, 4] {
        assert_pinned(
            &format!("streaming x{workers}"),
            &streaming(base, workers),
            0xdf27_01c0_88a4_8ccb,
        );
    }
}

#[test]
fn aggressor_fault_campaign_is_pinned() {
    let exp = FaultCampaign {
        config: FabricConfig {
            benign: BenignCircuit::DualC6288,
            seed: 107,
            aggressor: Some(AggressorSpec::stealthy(3.0)),
            ..FabricConfig::default()
        },
        model: DfaModel::SingleByte { max_fault_bits: 2 },
        captures: 150,
        shard_captures: 50,
        workers: 2,
    };
    let out = run_fault_campaign(&exp, &Obs::null()).expect("fabric builds");
    assert!(out.faulted > 0, "the calibrated aggressor faults");
    assert_pinned("aggressor fault campaign", &out, 0xabde_857d_eca7_72f1);
}

/// The runtime defense arms the capture pins cover, each with the
/// detector it runs under. The second adaptive arm's 64-tick window at
/// a 0.5-tap trigger completes several windows per capture, so the
/// fence's arming state flips mid-capture.
fn defended_arms() -> [(DefenseArm, DetectorConfig); 5] {
    let standard = DetectorConfig {
        window_ticks: 4098,
        alarm_threshold: 0.05,
    };
    let fast = DetectorConfig {
        window_ticks: 64,
        alarm_threshold: 0.5,
    };
    [
        (DefenseArm::PrngFence(1.5), standard),
        (DefenseArm::AdaptiveFence(1.5), standard),
        (DefenseArm::AdaptiveFence(1.5), fast),
        (DefenseArm::ClockJitter(8), standard),
        (DefenseArm::Ldo(0.25), standard),
    ]
}

fn defend(config: &mut FabricConfig, arm: DefenseArm, detector: DetectorConfig) {
    config.stimulus_alternation = 0.3;
    config.defense = arm.deployment(detector, 0xbe7);
}

fn arm_label(arm: DefenseArm, detector: DetectorConfig) -> String {
    format!("{} window {}", arm.label(), detector.window_ticks)
}

#[test]
fn defended_serial_campaigns_are_pinned() {
    let exp = experiment(BenignCircuit::DualC6288, SensorSource::TdcAll, 300, 108);
    // The 4098-tick adaptive fence arms during the pilot and stays
    // armed, drawing the PRNG fence's stream at full peak, so its
    // TdcAll campaign (which ignores the pilot's captures) matches the
    // PRNG fence's digest.
    let pins = [
        0xb315_26c0_5b7b_1758,
        0xb315_26c0_5b7b_1758,
        0x78e3_43ec_d4a6_eae1,
        0x818a_bb44_3eb8_f555,
        0x0ab9_3c65_421c_bef0,
    ];
    for ((arm, detector), pinned) in defended_arms().into_iter().zip(pins) {
        let r = run_cpa(&exp, |c| defend(c, arm, detector), &Obs::null()).expect("fabric builds");
        assert_pinned(
            &format!("serial TdcAll under {}", arm_label(arm, detector)),
            &r,
            pinned,
        );
    }
}

/// Interleaves full, windowed and free-running captures on one fabric
/// and digests every record together with the fabric's PDN, victim-rail,
/// defense and fault telemetry after each one.
fn raw_capture_digest(fabric: &mut MultiTenantFabric) -> u64 {
    let window = fabric.last_round_window();
    let schedule = RoSchedule::paper_4mhz();
    let mut log = String::new();
    for i in 0..24 {
        let pt = fabric.random_plaintext();
        let record = match i % 3 {
            0 => format!("{:?}", fabric.encrypt_and_capture(pt)),
            1 => format!(
                "{:?}",
                fabric.encrypt_windowed(pt, window.clone(), &[3, 7, 28])
            ),
            _ => format!(
                "{:?}",
                fabric.run_activity(Some(&schedule), AesActivity::Continuous, 40)
            ),
        };
        writeln!(
            log,
            "{record} {:?} {:?} {:?} {:?}",
            fabric.pdn_telemetry(),
            fabric.victim_min_voltage(),
            fabric.defense_telemetry(),
            fabric.fault_telemetry()
        )
        .expect("writing to a String");
    }
    digest(&log)
}

fn raw_config() -> FabricConfig {
    FabricConfig {
        benign: BenignCircuit::DualC6288,
        seed: 109,
        ..FabricConfig::default()
    }
}

#[test]
fn raw_captures_are_pinned() {
    let aggressor = FabricConfig {
        aggressor: Some(AggressorSpec::stealthy(3.0)),
        ..raw_config()
    };
    let fenced = FabricConfig {
        fence: Some(FenceConfig::strong()),
        ..raw_config()
    };
    let undefended = [
        ("undefended", raw_config(), 0xed2c_3b21_153b_7add),
        ("aggressor", aggressor.clone(), 0xcf44_a458_18c3_827b),
        ("attacker-side fence", fenced, 0xfb97_85a0_bf2c_374d),
    ];
    for (what, config, pinned) in undefended {
        let mut fabric = MultiTenantFabric::new(&config).expect("fabric builds");
        let got = raw_capture_digest(&mut fabric);
        assert_eq!(got, pinned, "raw {what}: digest {got:#018x}");
    }
    let pins = [
        0xb538_3534_eb0f_a059,
        0x5943_75bb_4edb_9eb1,
        0x0695_d9d3_edc8_3957,
        0x91a9_38bf_de71_dea0,
        0x2e2c_6c30_2442_35de,
    ];
    for ((arm, detector), pinned) in defended_arms().into_iter().zip(pins) {
        let mut config = raw_config();
        defend(&mut config, arm, detector);
        let mut fabric = MultiTenantFabric::new(&config).expect("fabric builds");
        let got = raw_capture_digest(&mut fabric);
        assert_eq!(
            got,
            pinned,
            "raw {}: digest {got:#018x}",
            arm_label(arm, detector)
        );
    }
}

#[test]
fn fast_detector_flips_the_adaptive_fence_mid_capture() {
    // The pins above only guard the segment rule if arming actually
    // changes inside captures: a 64-tick window completes ~2 windows
    // per 135-tick capture, and the aggressor's bursts drive the
    // alternation score across the trigger and back.
    let (arm, detector) = defended_arms()[2];
    let mut config = FabricConfig {
        aggressor: Some(AggressorSpec::stealthy(3.0)),
        ..raw_config()
    };
    defend(&mut config, arm, detector);
    let mut fabric = MultiTenantFabric::new(&config).expect("fabric builds");
    let got = raw_capture_digest(&mut fabric);
    let t = fabric.defense_telemetry().expect("defense deployed");
    assert!(
        t.armed_ticks > 0 && t.armed_ticks < t.ticks,
        "arming never flipped: {t:?}"
    );
    assert!(t.alarm_events > 1, "one alarm edge only: {t:?}");
    assert_eq!(
        got,
        0xc4af_6f56_6efd_c62f,
        "raw aggressor under {}: digest {got:#018x}",
        arm_label(arm, detector)
    );
}
