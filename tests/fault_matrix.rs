//! Fault-injection campaign and combined SCA/FI matrix integration
//! tests: worker-count invariance (property-tested), end-to-end DFA
//! key recovery on the undefended arm, LDO fault suppression, and the
//! detector's duty-cycle hit/miss profile — including the stealthy
//! duty cycle that *evades* it (a documented finding, not a bug: an
//! even-length burst in an odd period cancels in the alternating sum).

use proptest::prelude::*;
use slm_core::experiments::{
    fault_matrix, run_fault_campaign, DefenseArm, FaultCampaign, FaultCampaignOutcome,
    FaultMatrixExperiment,
};
use slm_cpa::DfaModel;
use slm_fabric::{AggressorSpec, BenignCircuit, FabricConfig};
use slm_obs::Obs;

fn campaign(seed: u64, captures: u64, shard_captures: u64, workers: usize) -> FaultCampaignOutcome {
    let exp = FaultCampaign {
        config: FabricConfig {
            benign: BenignCircuit::DualC6288,
            seed,
            aggressor: Some(AggressorSpec::stealthy(3.0)),
            ..FabricConfig::default()
        },
        model: DfaModel::SingleByte { max_fault_bits: 2 },
        captures,
        shard_captures,
        workers,
    };
    run_fault_campaign(&exp, &Obs::null()).expect("fabric builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The sharded aggressor campaign is bit-identical serial
    /// vs. parallel at any worker count: the shard layout depends only
    /// on the budget, the aggressor waveform is a pure function of the
    /// tick, and partials merge in shard order.
    #[test]
    fn fault_campaign_bit_identical_at_any_worker_count(
        seed in 0u64..1_000,
        captures in 150u64..300,
        shard_captures in 40u64..90,
        workers in 2usize..=8,
    ) {
        let serial = campaign(seed, captures, shard_captures, 1);
        let parallel = campaign(seed, captures, shard_captures, workers);
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(serial.captures, captures);
        // The calibrated stealthy aggressor actually faults at this
        // budget — the equivalence is not vacuous.
        prop_assert!(serial.faulted > 0);
    }
}

#[test]
fn matrix_is_bit_identical_at_1_2_4_8_workers() {
    let base = FaultMatrixExperiment {
        aggressors: vec![None, Some(AggressorSpec::stealthy(3.0))],
        arms: vec![DefenseArm::Undefended, DefenseArm::Ldo(0.25)],
        captures: 240,
        shard_captures: 60,
        detector_samples: 4200,
        ..FaultMatrixExperiment::standard(23)
    };
    let reference = fault_matrix(
        &FaultMatrixExperiment {
            workers: 1,
            ..base.clone()
        },
        &Obs::null(),
    )
    .unwrap();
    for workers in [2, 4, 8] {
        let m = fault_matrix(
            &FaultMatrixExperiment {
                workers,
                ..base.clone()
            },
            &Obs::null(),
        )
        .unwrap();
        assert_eq!(reference, m, "matrix diverged at {workers} workers");
    }
    assert_eq!(reference.cells.len(), 4);
}

#[test]
fn undefended_arm_yields_full_key_recovery_and_ldo_suppresses() {
    let exp = FaultMatrixExperiment {
        aggressors: vec![
            Some(AggressorSpec::stealthy(0.6)),
            Some(AggressorSpec::stealthy(3.0)),
        ],
        arms: vec![DefenseArm::Undefended, DefenseArm::Ldo(0.25)],
        captures: 2_000,
        shard_captures: 250,
        ..FaultMatrixExperiment::standard(11)
    };
    let matrix = fault_matrix(&exp, &Obs::null()).unwrap();
    let strong = Some(AggressorSpec::stealthy(3.0));
    let weak = Some(AggressorSpec::stealthy(0.6));

    // The calibrated aggressor on the undefended fabric: faults land,
    // the avalanche filter works, and DFA walks away with the key.
    let hot = matrix.cell(strong, &DefenseArm::Undefended).unwrap();
    assert!(hot.faults_per_1k > 100.0, "faults/1k {}", hot.faults_per_1k);
    assert!(hot.pairs_discarded > 0, "avalanche filter never fired");
    assert_eq!(hot.recovered_bytes, 16);
    assert_eq!(
        hot.recovered_key,
        Some(FabricConfig::default().aes_key),
        "DFA must recover the victim's master key"
    );

    // The LDO attenuates the coupled droop below the cone threshold:
    // no faults, no pairs, no key material — recovery suppressed.
    let cold = matrix.cell(strong, &DefenseArm::Ldo(0.25)).unwrap();
    assert_eq!(cold.faults_per_1k, 0.0, "LDO must suppress all faults");
    assert_eq!(cold.recovered_bytes, 0);
    assert_eq!(cold.recovered_key, None);
    assert!(cold.min_victim_v > hot.min_victim_v);

    // A weak aggressor never reaches the threshold even undefended.
    let faint = matrix.cell(weak, &DefenseArm::Undefended).unwrap();
    assert_eq!(faint.faults_per_1k, 0.0);
    assert_eq!(faint.recovered_key, None);
}

#[test]
fn detector_flags_blatant_duty_cycle_and_misses_stealthy_burst() {
    let exp = FaultMatrixExperiment {
        aggressors: vec![
            None,
            Some(AggressorSpec::tick_rate(3.0)),
            Some(AggressorSpec::stealthy(3.0)),
        ],
        arms: vec![DefenseArm::Undefended],
        captures: 300,
        shard_captures: 100,
        ..FaultMatrixExperiment::standard(11)
    };
    let matrix = fault_matrix(&exp, &Obs::null()).unwrap();

    // No aggressor: the monitoring plane stays quiet (no false alarms).
    let baseline = matrix.detector_for(None).unwrap();
    assert!(!baseline.detected(), "false alarm with no aggressor");

    // The blatant tick-rate duty cycle is exactly the alternation
    // signature the detector keys on: every window alarms, loudly.
    let blatant = matrix
        .detector_for(Some(AggressorSpec::tick_rate(3.0)))
        .unwrap();
    assert!(blatant.detected(), "tick-rate aggressor must alarm");
    assert!(
        blatant.reading.max_score > 10.0 * exp.detector.alarm_threshold,
        "blatant score {}",
        blatant.reading.max_score
    );

    // FINDING: the stealthy burst — same 3.0 A peak, even-length
    // on-phase in an odd period — evades the alternation detector
    // completely (its score does not even rise above the no-aggressor
    // baseline) while still faulting the victim hard enough for full
    // key recovery. Duty-cycle parity, not amplitude, is what the
    // detector sees.
    let stealthy = matrix
        .detector_for(Some(AggressorSpec::stealthy(3.0)))
        .unwrap();
    assert!(
        !stealthy.detected(),
        "stealthy burst unexpectedly detected (score {})",
        stealthy.reading.max_score
    );
    assert!(stealthy.reading.max_score < exp.detector.alarm_threshold);
    let cell = matrix
        .cell(Some(AggressorSpec::stealthy(3.0)), &DefenseArm::Undefended)
        .unwrap();
    assert!(
        cell.faults_per_1k > 0.0,
        "the evading aggressor must still fault"
    );
}

#[test]
fn aggressor_free_matrix_row_matches_disabled_aggressor_campaign() {
    // A zero-peak aggressor and no aggressor at all are the same
    // campaign, bit for bit — the disabled path adds exactly nothing.
    let mk = |aggressor| {
        let exp = FaultCampaign {
            config: FabricConfig {
                benign: BenignCircuit::DualC6288,
                seed: 5,
                aggressor,
                ..FabricConfig::default()
            },
            model: DfaModel::SingleByte { max_fault_bits: 2 },
            captures: 150,
            shard_captures: 50,
            workers: 2,
        };
        run_fault_campaign(&exp, &Obs::null()).expect("fabric builds")
    };
    let absent = mk(None);
    let zeroed = mk(Some(AggressorSpec::stealthy(0.0)));
    assert_eq!(absent.faulted, 0);
    assert_eq!(zeroed.faulted, 0);
    assert_eq!(absent.dfa, zeroed.dfa);
    assert_eq!(absent.captures, zeroed.captures);
}

#[test]
fn diagonal_round9_model_recovers_through_the_wider_candidate_set() {
    // The round-9 diagonal model admits every MixColumns image of a
    // low-weight pre-mix flip — a ~3x wider difference set per byte
    // than the single-byte model — yet at the standard capture budget
    // the undefended arm still converges to the full master key, and
    // the LDO suppresses it exactly as it does the narrow model.
    let exp = FaultMatrixExperiment {
        aggressors: vec![Some(AggressorSpec::stealthy(3.0))],
        arms: vec![DefenseArm::Undefended, DefenseArm::Ldo(0.25)],
        captures: 2_000,
        shard_captures: 250,
        model: DfaModel::DiagonalRound9 { max_fault_bits: 2 },
        ..FaultMatrixExperiment::standard(11)
    };
    let matrix = fault_matrix(&exp, &Obs::null()).unwrap();
    let strong = Some(AggressorSpec::stealthy(3.0));

    let hot = matrix.cell(strong, &DefenseArm::Undefended).unwrap();
    assert!(hot.faults_per_1k > 100.0, "faults/1k {}", hot.faults_per_1k);
    assert!(hot.pairs_discarded > 0, "avalanche filter never fired");
    assert_eq!(hot.recovered_bytes, 16);
    assert_eq!(
        hot.recovered_key,
        Some(FabricConfig::default().aes_key),
        "diagonal-model DFA must still recover the master key"
    );

    let cold = matrix.cell(strong, &DefenseArm::Ldo(0.25)).unwrap();
    assert_eq!(cold.faults_per_1k, 0.0, "LDO must suppress all faults");
    assert_eq!(cold.recovered_bytes, 0);
    assert_eq!(cold.recovered_key, None);
}
