//! Exact-value pins of every campaign engine.
//!
//! Each test runs a small fixed-seed campaign and pins the FNV-1a
//! digest of its result's `Debug` text. `f64`'s `Debug` output
//! round-trips exactly, so a digest matches only if every progress
//! point, peak correlation, MTD and recovered byte is bit-identical to
//! the pinned run. A refactor of the capture/absorb loops must leave
//! every digest here unchanged; the per-engine invariance tests only
//! compare an engine against itself.

use slm_core::experiments::{
    run_cpa, run_cpa_parallel, run_fault_campaign, run_streaming, CpaExperiment, CpaResult,
    FaultCampaign, ParallelCpa, SensorSource, StreamingCpa,
};
use slm_cpa::DfaModel;
use slm_fabric::{AggressorSpec, BenignCircuit, FabricConfig};
use slm_obs::Obs;

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
