//! Reduced-scale versions of every figure experiment, asserting the
//! qualitative bands the paper reports. The full-scale runs live in
//! `slm-bench` and the examples; these keep the shapes under test.

use slm_core::experiments::{
    activity_study, architecture_study, atpg_stimulus_study, floorplan_views, full_key_recovery,
    ro_response, run_cpa, stealth_audit, timing_audit, tvla_study, CpaExperiment, SensorSource,
};
use slm_fabric::BenignCircuit;
use slm_obs::Obs;

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
    let study = activity_study(BenignCircuit::Alu192, 2_500, 22).unwrap();
    let c = &study.census;
    assert_eq!(c.total, 193);
    // Paper: 79/192 RO-sensitive, 40 AES-affected (39 ⊂ RO), 112 idle.
    // Bands, not point values (see EXPERIMENTS.md):
    assert!(
        c.ro_sensitive.len() >= 10 && c.ro_sensitive.len() <= 120,
        "RO-sensitive = {}",
        c.ro_sensitive.len()
    );
    assert!(!c.aes_sensitive.is_empty(), "AES must affect some bits");
    assert!(c.aes_sensitive.len() < c.ro_sensitive.len());
    // subset property: few AES-only bits
    assert!(c.aes_only.len() * 5 <= c.aes_sensitive.len().max(1) * 2);
    assert!(c.unaffected > c.total / 3);
    // Fig. 8: a best bit exists and its variance dominates
    assert!(study.variance.best_aes_endpoint.is_some());
}

#[test]
fn fig14_fig15_fig16_c6288_census_bands() {
    let study = activity_study(BenignCircuit::DualC6288, 2_500, 23).unwrap();
    let c = &study.census;
    assert_eq!(c.total, 64);
    // Paper: 49/64 RO-sensitive, 32 AES-affected, 15 idle. The C6288
    // must show a *larger sensitive fraction* than the ALU — the paper's
    // "50% of endpoints usable vs ~20% for the ALU".
    let alu = activity_study(BenignCircuit::Alu192, 2_500, 23).unwrap();
    let c6288_frac = c.ro_sensitive.len() as f64 / c.total as f64;
    let alu_frac = alu.census.ro_sensitive.len() as f64 / alu.census.total as f64;
    assert!(
        c6288_frac > alu_frac,
        "C6288 fraction {c6288_frac:.2} should beat ALU {alu_frac:.2}"
    );
    assert!(!c.aes_sensitive.is_empty());
}

#[test]
fn fig09_fig11_tdc_attacks_fast() {
    for (source, label) in [
        (SensorSource::TdcAll, "fig09"),
        (SensorSource::TdcSingleBit(None), "fig11"),
    ] {
        let r = run_cpa(
            &CpaExperiment {
                circuit: BenignCircuit::Alu192,
                source,
                traces: 6_000,
                checkpoints: 10,
                pilot_traces: 60,
                seed: 24,
            },
            |_| {},
            &Obs::null(),
        )
        .unwrap();
        assert_eq!(
            r.recovered_key_byte,
            Some(r.correct_key_byte),
            "{label} must recover the key"
        );
        assert!(r.mtd.unwrap() <= 6_000, "{label} mtd {:?}", r.mtd);
    }
}

#[test]
#[ignore = "slow (about 30 s for both in the test profile): CI runs them in their own step with --ignored"]
fn fig10_fig12_benign_alu_attacks_slow_but_succeed() {
    for source in [
        SensorSource::BenignHammingWeight,
        SensorSource::BenignSingleBit(None),
    ] {
        let r = run_cpa(
            &CpaExperiment {
                circuit: BenignCircuit::Alu192,
                source,
                traces: 300_000,
                checkpoints: 30,
                pilot_traces: 500,
                seed: 25,
            },
            |_| {},
            &Obs::null(),
        )
        .unwrap();
        assert_eq!(r.recovered_key_byte, Some(r.correct_key_byte));
        // orders of magnitude slower than the TDC
        assert!(r.mtd.unwrap() > 5_000);
    }
}

#[test]
#[ignore = "slow (about 30 s for both in the test profile): CI runs them in their own step with --ignored"]
fn fig17_fig18_benign_c6288_attacks_succeed() {
    // Our C6288 sensor is weaker than the paper's (its endpoint
    // responses spread over several capture points — see
    // EXPERIMENTS.md), so these budgets are larger than the paper's
    // 200k/100k; the attacks still succeed.
    for (source, traces) in [
        (SensorSource::BenignHammingWeight, 800_000),
        (SensorSource::BenignSingleBit(None), 500_000),
    ] {
        let r = run_cpa(
            &CpaExperiment {
                circuit: BenignCircuit::DualC6288,
                source,
                traces,
                checkpoints: 30,
                pilot_traces: 500,
                seed: 26,
            },
            |_| {},
            &Obs::null(),
        )
        .unwrap();
        assert_eq!(r.recovered_key_byte, Some(r.correct_key_byte));
    }
}

#[test]
fn fig03_fig04_floorplans() {
    for circuit in [BenignCircuit::Alu192, BenignCircuit::DualC6288] {
        let v = floorplan_views(circuit, 40, 27).unwrap();
        assert!(v.tdc_density > 2.0 * v.benign_density);
        assert!(v.ascii.contains('S') && v.ascii.contains('A') && v.ascii.contains('r'));
    }
}

#[test]
fn section6_stealth_and_timing() {
    assert!(stealth_audit().unwrap().stealth_demonstrated());
    let t = timing_audit(5.2).unwrap();
    assert!(t
        .rows
        .iter()
        .all(|r| r.meets_synth_clock && !r.meets_overclock && r.strict_check_fires));
}

#[test]
fn section6_atpg_extension() {
    let s = atpg_stimulus_study(12, 30, 28).unwrap();
    assert!(s.ratio >= 0.7, "ratio {}", s.ratio);
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
    let rca = s.row("rca64").unwrap();
    let csel = s.row("csel64").unwrap();
    assert!(rca.usable_periods > csel.usable_periods);
    assert!(csel.best_count >= rca.best_count);
}
