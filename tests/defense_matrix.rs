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
    defense_matrix, CpaExperiment, DefenseArm, DefenseMatrix, DefenseMatrixExperiment, SensorSource,
};
use slm_fabric::{
    BenignCircuit, ClockJitterConfig, DefenseConfig, DetectorConfig, FabricConfig, FenceSpec,
    LdoConfig, MultiTenantFabric,
};
use slm_obs::{MetricsFrame, Obs};

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

fn quick_matrix(seed: u64, workers: usize) -> (DefenseMatrix, MetricsFrame) {
    let exp = DefenseMatrixExperiment {
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
    };
    let obs = Obs::memory();
    let matrix = defense_matrix(&exp, &obs).expect("fabric builds");
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
