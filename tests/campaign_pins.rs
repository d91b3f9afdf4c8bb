//! Exact-value pins of every campaign engine.
//!
//! Each test runs a small fixed-seed campaign and pins the FNV-1a
//! digest of its result's public fields (`tests/pin_digest.rs`), each
//! `f64` by its bits, so a digest matches only if every progress
//! point, peak correlation, MTD and recovered byte is bit-identical to
//! the pinned run. A private field never moves a pin. A refactor of the
//! capture/absorb loops must leave every digest here unchanged; the
//! per-engine invariance tests only compare an engine against itself.
//!
//! The capture layer is pinned too: serial campaigns under each runtime
//! defense, and raw fabric runs that interleave full, windowed and
//! free-running captures and digest the `Debug` text of the records
//! together with the PDN, defense and fault telemetry.
//!
//! A TDC-source campaign's pilot never samples the benign sensor, so
//! its result's `bits_of_interest` must be empty. Its pins were taken
//! with that field cleared and hold the attack itself: progress, peaks,
//! MTD and recovered byte.

use slm_core::experiments::{
    full_key_recovery, run_cpa, run_cpa_parallel, run_fault_campaign, run_streaming, tvla_study,
    CpaExperiment, CpaResult, DefenseArm, FaultCampaign, FaultCampaignOutcome, FullKeyResult,
    ParallelCpa, SensorSource, StreamingCpa, TvlaResult,
};
use slm_cpa::DfaModel;
use slm_fabric::{
    AesActivity, AggressorSpec, BenignCircuit, DetectorConfig, FabricConfig, MultiTenantFabric,
    RoSchedule,
};
use slm_obs::Obs;
use std::fmt::Write;

#[path = "pin_digest.rs"]
mod pin_digest;
use pin_digest::Fnv;

/// FNV-1a over the `Debug` rendering of `value`, for the raw capture
/// logs.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{value:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn assert_pinned(what: &str, got: u64, pinned: u64) {
    assert_eq!(
        got, pinned,
        "{what}: digest {got:#018x} != pinned {pinned:#018x}"
    );
}

fn cpa_digest(r: &CpaResult) -> u64 {
    let mut h = Fnv::new();
    h.cpa(r);
    h.0
}

fn fault_digest(out: &FaultCampaignOutcome) -> u64 {
    let mut h = Fnv::new();
    h.dfa(&out.dfa);
    [out.captures, out.faulted, out.fault_cycles]
        .into_iter()
        .for_each(|v| h.u64(v));
    h.f64(out.min_victim_v);
    h.u64(out.alarm_windows);
    h.0
}

/// Every field but the true round key, which the seed's key fixes.
fn full_key_digest(r: &FullKeyResult) -> u64 {
    let mut h = Fnv::new();
    h.key(&r.recovered_round_key);
    h.key(&r.recovered_master_key);
    h.u64(u64::from(r.master_key_correct));
    h.u64(r.correct_bytes as u64);
    h.u64(r.ranks.len() as u64);
    r.ranks.iter().for_each(|&k| h.u64(k as u64));
    h.u64(r.traces);
    h.0
}

/// Every field but the per-class trace count, which is the argument.
fn tvla_digest(r: &TvlaResult) -> u64 {
    let mut h = Fnv::new();
    h.f64(r.tdc_max_t);
    h.f64(r.benign_max_t);
    h.u64(u64::from(r.tdc_leaks));
    h.u64(u64::from(r.benign_leaks));
    h.0
}

/// A TDC-source result, checked to carry no benign-sensor metadata.
fn tdc_attack(r: CpaResult) -> CpaResult {
    assert!(r.bits_of_interest.is_empty(), "TDC bits of interest: {r:?}");
    r
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
    let r = tdc_attack(serial(&exp));
    assert_pinned("serial TdcAll", cpa_digest(&r), 0x1ede_f528_615b_17a6);
    // The median-depth tap comes from the pilot's TDC depths; the
    // forced tap takes nothing from the pilot.
    let taps = [
        (SensorSource::TdcSingleBit(None), 0x9d46_62d6_13cf_d1ea),
        (SensorSource::TdcSingleBit(Some(32)), 0x9bac_ca53_7f2c_c9ed),
    ];
    for (source, pinned) in taps {
        let exp = experiment(BenignCircuit::DualC6288, source, 400, 113);
        let r = tdc_attack(serial(&exp));
        assert_pinned(&format!("serial {source:?}"), cpa_digest(&r), pinned);
    }
}

#[test]
fn serial_hamming_weight_campaign_is_pinned() {
    let exp = experiment(
        BenignCircuit::Alu192,
        SensorSource::BenignHammingWeight,
        400,
        102,
    );
    let r = serial(&exp);
    assert_pinned(
        "serial BenignHammingWeight",
        cpa_digest(&r),
        0x0a4a_6771_a26a_9afe,
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
    assert_pinned(
        "serial BenignSingleBit(None)",
        cpa_digest(&r),
        0xfc36_cfe8_a687_10ae,
    );
}

#[test]
fn parallel_campaigns_are_pinned_at_1_and_4_workers() {
    let tdc = experiment(BenignCircuit::DualC6288, SensorSource::TdcAll, 500, 104);
    let tap = experiment(
        BenignCircuit::DualC6288,
        SensorSource::TdcSingleBit(None),
        300,
        114,
    );
    let hw = experiment(
        BenignCircuit::Alu192,
        SensorSource::BenignHammingWeight,
        300,
        105,
    );
    for workers in [1, 4] {
        let tdc_run = tdc_attack(parallel(tdc, workers));
        assert_pinned(
            &format!("parallel TdcAll x{workers}"),
            cpa_digest(&tdc_run),
            0x2ef1_ffe9_3f4c_c81c,
        );
        let tap_run = tdc_attack(parallel(tap, workers));
        assert_pinned(
            &format!("parallel TdcSingleBit(None) x{workers}"),
            cpa_digest(&tap_run),
            0x4e68_5118_ab5d_0382,
        );
        let hw_run = parallel(hw, workers);
        assert_pinned(
            &format!("parallel HW x{workers}"),
            cpa_digest(&hw_run),
            0xb003_0172_b076_311e,
        );
    }
}

#[test]
fn streaming_campaign_is_pinned_at_1_and_4_workers() {
    let base = experiment(BenignCircuit::DualC6288, SensorSource::TdcAll, 300, 106);
    for workers in [1, 4] {
        let r = tdc_attack(streaming(base, workers));
        assert_pinned(
            &format!("streaming x{workers}"),
            cpa_digest(&r),
            0xa19d_42e7_ba6f_3414,
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
    assert_pinned(
        "aggressor fault campaign",
        fault_digest(&out),
        0xaa7d_6ea1_d767_01f1,
    );
}

#[test]
fn full_key_recovery_is_pinned() {
    let tdc = full_key_recovery(BenignCircuit::Alu192, SensorSource::TdcAll, 400, 30, 110)
        .expect("fabric builds");
    assert_pinned(
        "full-key TdcAll",
        full_key_digest(&tdc),
        0x3ad0_d0d3_5f70_a564,
    );
    let hw = full_key_recovery(
        BenignCircuit::Alu192,
        SensorSource::BenignHammingWeight,
        400,
        30,
        111,
    )
    .expect("fabric builds");
    assert_pinned(
        "full-key BenignHammingWeight",
        full_key_digest(&hw),
        0xd7c5_746a_1521_17a6,
    );
}

#[test]
fn tvla_study_is_pinned() {
    let r = tvla_study(BenignCircuit::Alu192, 200, 30, 112).expect("fabric builds");
    assert_pinned("TVLA", tvla_digest(&r), 0x9ee0_7390_5d67_53fb);
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
        0x1e26_e583_1802_4b1e,
        0x1e26_e583_1802_4b1e,
        0x6e9f_c3a0_f55f_b75f,
        0x41d7_e509_45d5_b638,
        0x5056_5e38_46a0_b54f,
    ];
    for ((arm, detector), pinned) in defended_arms().into_iter().zip(pins) {
        let r = run_cpa(&exp, |c| defend(c, arm, detector), &Obs::null()).expect("fabric builds");
        assert_pinned(
            &format!("serial TdcAll under {}", arm_label(arm, detector)),
            cpa_digest(&tdc_attack(r)),
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
    let masked = FabricConfig {
        masked_aes: true,
        ..raw_config()
    };
    let undefended = [
        ("undefended", raw_config(), 0xed2c_3b21_153b_7add),
        ("aggressor", aggressor.clone(), 0xcf44_a458_18c3_827b),
        ("masked AES", masked, 0x298f_6bb9_7537_562c),
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
fn long_defended_activity_run_is_pinned() {
    // 8 200 measure edges are 16 400 ticks: four complete windows of the
    // defense matrix's 4 098-tick detector, so the free-running path
    // steps segments that span many detector windows, which the
    // 40-sample runs of the raw pins never reach.
    let (arm, detector) = defended_arms()[1];
    let mut config = FabricConfig {
        aggressor: Some(AggressorSpec::stealthy(3.0)),
        ..raw_config()
    };
    defend(&mut config, arm, detector);
    let mut fabric = MultiTenantFabric::new(&config).expect("fabric builds");
    let schedule = RoSchedule::paper_4mhz();
    let trace = fabric.run_activity(Some(&schedule), AesActivity::Continuous, 8200);
    let t = fabric.defense_telemetry().expect("defense deployed");
    assert!(
        t.windows == 4 && t.armed_ticks > 0 && t.armed_ticks < t.ticks,
        "the fence must arm part-way through the run: {t:?}"
    );
    let log = format!(
        "{trace:?} {:?} {:?} {:?} {:?}",
        fabric.pdn_telemetry(),
        fabric.victim_min_voltage(),
        fabric.defense_telemetry(),
        fabric.fault_telemetry()
    );
    assert_pinned(
        &format!(
            "8 200-sample activity run under {}",
            arm_label(arm, detector)
        ),
        digest(&log),
        0xa672_1f1d_8b1e_6013,
    );
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
