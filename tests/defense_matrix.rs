//! Determinism properties of the defense subsystem.
//!
//! Two properties ride the same discipline the capture pool
//! established: (1) a defended fabric is a pure function of its
//! configuration — same seed, same traces, bit for bit, whatever mix of
//! countermeasures is deployed; (2) the attack-vs-defense matrix fans
//! its cells out over a worker pool and must come back bit-identical at
//! any worker count, metrics included.

use proptest::prelude::*;
use slm_core::experiments::{
    defense_matrix, run_cpa, CpaExperiment, DefenseArm, DefenseMatrix, DefenseMatrixExperiment,
    SensorSource,
};
use slm_fabric::{
    BenignCircuit, ClockJitterConfig, DefenseConfig, DetectorConfig, FabricConfig, FenceSpec,
    LdoConfig, MultiTenantFabric,
};
use slm_obs::{MetricsFrame, Obs};

#[path = "pin_digest.rs"]
mod pin_digest;
use pin_digest::Fnv;

fn defended_config(seed: u64, fence_peak: f64, jitter: u32, ldo: bool) -> FabricConfig {
    let mut defense = DefenseConfig {
        detector: DetectorConfig {
            window_ticks: 300,
            alarm_threshold: 0.05,
        },
        ..DefenseConfig::default()
    };
    defense.seed = seed ^ 0xd3f3;
    if fence_peak > 0.0 {
        defense.fence = Some(FenceSpec::prng(fence_peak));
    }
    if jitter > 0 {
        defense.clock_jitter = Some(ClockJitterConfig { max_cycles: jitter });
    }
    if ldo {
        defense.ldo = Some(LdoConfig { residual: 0.3 });
    }
    FabricConfig {
        benign: BenignCircuit::DualC6288,
        seed,
        stimulus_alternation: 0.25,
        defense: Some(defense),
        ..FabricConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn defended_captures_are_deterministic(
        seed in 0u64..10_000,
        fence_peak in 0.0f64..1.5,
        jitter in 0u32..6,
        ldo in any::<bool>(),
    ) {
        let config = defended_config(seed, fence_peak, jitter, ldo);
        let mut f1 = MultiTenantFabric::new(&config).expect("fabric builds");
        let mut f2 = MultiTenantFabric::new(&config).expect("fabric builds");
        for _ in 0..3 {
            let pt = f1.random_plaintext();
            prop_assert_eq!(pt, f2.random_plaintext());
            prop_assert_eq!(f1.encrypt_and_capture(pt), f2.encrypt_and_capture(pt));
        }
        prop_assert_eq!(f1.defense_telemetry(), f2.defense_telemetry());
        prop_assert!(f1.defense_telemetry().expect("defense deployed").ticks > 0);
    }
}

fn quick_experiment(seed: u64, workers: usize) -> DefenseMatrixExperiment {
    DefenseMatrixExperiment {
        base: CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcAll,
            traces: 150,
            checkpoints: 2,
            pilot_traces: 10,
            seed,
        },
        arms: vec![
            DefenseArm::Undefended,
            DefenseArm::ConstantFence(0.5),
            DefenseArm::PrngFence(0.3),
            DefenseArm::AdaptiveFence(0.8),
            DefenseArm::Ldo(0.4),
            DefenseArm::ClockJitter(4),
        ],
        stimulus_alternation: 0.3,
        detector: DetectorConfig {
            window_ticks: 1200,
            alarm_threshold: 0.05,
        },
        detector_samples: 1500,
        workers,
    }
}

fn quick_matrix(seed: u64, workers: usize) -> (DefenseMatrix, MetricsFrame) {
    let obs = Obs::memory();
    let matrix = defense_matrix(&quick_experiment(seed, workers), &obs).expect("fabric builds");
    (matrix, obs.snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn matrix_is_worker_count_invariant(seed in 0u64..1_000) {
        let (serial, serial_frame) = quick_matrix(seed, 1);
        let (wide, wide_frame) = quick_matrix(seed, 3);
        let (machine, machine_frame) = quick_matrix(seed, 0);
        // Every cell's CpaResult (each f64 of every progress curve),
        // the detector readings, and all deterministic metrics must be
        // bit-identical at any worker count.
        prop_assert_eq!(&serial, &wide);
        prop_assert_eq!(&serial, &machine);
        let serial_frame = serial_frame.deterministic();
        prop_assert_eq!(&serial_frame, &wide_frame.deterministic());
        prop_assert_eq!(&serial_frame, &machine_frame.deterministic());
        prop_assert_eq!(serial_frame.counter("defense.cells"), 6);
        prop_assert_eq!(serial_frame.spans["defense.cell"].count, 6);
    }
}

/// The seeded attack-vs-defense outcome the README's table reports:
/// every arm runs the same serial 4 000-trace TDC campaign under 0.3
/// stimulus alternation and one detector, and only the undefended
/// fabric and the constant fence disclose inside the budget.
#[test]
fn seeded_defense_arms_and_matrix_are_pinned() {
    let base = CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::TdcAll,
        traces: 4_000,
        checkpoints: 4,
        pilot_traces: 100,
        seed: 41,
    };
    let detector = DetectorConfig {
        window_ticks: 4098,
        alarm_threshold: 0.05,
    };
    let arms = [
        DefenseArm::Undefended,
        DefenseArm::ConstantFence(1.5),
        DefenseArm::PrngFence(1.5),
        DefenseArm::AdaptiveFence(1.5),
        DefenseArm::Ldo(0.25),
        DefenseArm::ClockJitter(8),
    ];
    let mtds: Vec<Option<u64>> = arms
        .iter()
        .map(|arm| {
            let deployment = arm.deployment(detector, 0xbe7);
            let tweak = |config: &mut FabricConfig| {
                config.stimulus_alternation = 0.3;
                config.defense = deployment;
            };
            run_cpa(&base, tweak, &Obs::null())
                .expect("fabric builds")
                .mtd
        })
        .collect();
    assert_eq!(
        mtds,
        [Some(2_000), Some(2_000), None, None, None, None],
        "per-arm MTD for {:?}",
        arms.map(|a| a.label())
    );

    // The 2-point matrix: the strong PRNG fence does not help the
    // attacker, and the detector flags the attacker in every window
    // without a false alarm on the benign tenant.
    let matrix = defense_matrix(
        &DefenseMatrixExperiment {
            base,
            arms: vec![DefenseArm::Undefended, DefenseArm::PrngFence(1.5)],
            stimulus_alternation: 0.3,
            detector,
            detector_samples: 8200,
            workers: 0,
        },
        &Obs::null(),
    )
    .expect("fabric builds");
    assert!(matrix.fence_mtd_monotonic());
    assert_eq!(matrix.detector.attacker.windows, 4);
    assert_eq!(matrix.detector.attacker.alarm_windows, 4);
    assert_eq!(matrix.detector.benign.windows, 4);
    assert_eq!(matrix.detector.benign.alarm_windows, 0);
    assert!(matrix.detector.discriminates());
}

fn matrix_digest(matrix: &DefenseMatrix) -> u64 {
    let mut h = Fnv::new();
    h.u64(matrix.cells.len() as u64);
    for cell in &matrix.cells {
        h.arm(&cell.arm);
        h.cpa(&cell.result);
        h.f64(cell.injected_mean_a);
        h.u64(cell.alarm_windows);
    }
    h.reading(&matrix.detector.attacker);
    h.reading(&matrix.detector.benign);
    h.0
}

/// Exact-value pin of the quick six-arm matrix: every public result
/// field (each cell's progress curve, peaks and defense telemetry, and
/// both detector readings) and the deterministic view of its metrics.
/// A null handle must return the same matrix.
#[test]
fn quick_defense_matrix_is_pinned() {
    let (matrix, frame) = quick_matrix(19, 2);
    let null = defense_matrix(&quick_experiment(19, 2), &Obs::null()).expect("fabric builds");
    assert_eq!(matrix, null, "a null handle changed the matrix");

    let result = matrix_digest(&matrix);
    let mut h = Fnv::new();
    h.frame(&frame);
    let metrics = h.0;
    assert_eq!(
        (result, metrics),
        (0xab57_04e7_e0ba_1f22, 0xad24_6657_b8fd_e06b),
        "result digest {result:#018x}, metrics digest {metrics:#018x}"
    );
}
