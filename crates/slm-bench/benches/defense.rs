//! Defense overhead: capture throughput of each countermeasure arm.
//!
//! Runs the same serial TDC campaign undefended and under each defense
//! arm, records traces/sec and the relative overhead to
//! `BENCH_defense.json` at the workspace root, and smoke-checks a
//! 2-point attack-vs-defense matrix (undefended baseline discloses, a
//! strong PRNG fence raises the bar, the detector separates the
//! attacker from a benign tenant).

use serde::Serialize;
use slm_bench::quick;
use slm_core::experiments::{
    defense_matrix, run_cpa, CpaExperiment, DefenseArm, DefenseMatrixExperiment, SensorSource,
};
use slm_fabric::{BenignCircuit, DetectorConfig};
use slm_obs::Obs;

#[derive(Debug, Serialize)]
struct DefenseRow {
    arm: String,
    seconds: f64,
    traces_per_sec: f64,
    /// Throughput relative to the undefended baseline (1.0 = free).
    relative_throughput: f64,
    disclosed: bool,
    mtd: Option<u64>,
}

#[derive(Debug, Serialize)]
struct DefenseBench {
    circuit: String,
    source: String,
    traces: u64,
    stimulus_alternation: f64,
    /// Detector hits vs false alarms in the matrix smoke run.
    detector_hits: u64,
    detector_false_alarms: u64,
    fence_mtd_monotonic: bool,
    rows: Vec<DefenseRow>,
}

fn base(traces: u64) -> CpaExperiment {
    CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::TdcAll,
        traces,
        checkpoints: 4,
        pilot_traces: if quick() { 30 } else { 100 },
        seed: 41,
    }
}

fn main() {
    // Even quick mode needs enough traces for the undefended
    // baseline to disclose (MTD for this circuit/seed sits well
    // under 3k; captures run at tens of thousands of traces/sec).
    let traces = if quick() { 3_000 } else { 4_000 };
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
    let mut rows = Vec::new();
    let mut baseline_tps = 0.0f64;
    for arm in arms {
        let exp = base(traces);
        let deployment = arm.deployment(detector, 0xbe7);
        let start = std::time::Instant::now();
        let r = run_cpa(
            &exp,
            |config| {
                config.stimulus_alternation = 0.3;
                config.defense = deployment;
            },
            &Obs::null(),
        )
        .expect("fabric builds");
        let seconds = start.elapsed().as_secs_f64();
        let traces_per_sec = traces as f64 / seconds;
        if matches!(arm, DefenseArm::Undefended) {
            baseline_tps = traces_per_sec;
        }
        println!(
            "[defense] arm={} elapsed={seconds:.2}s traces/sec={traces_per_sec:.0} \
             relative={:.2} mtd={:?}",
            arm.label(),
            traces_per_sec / baseline_tps,
            r.mtd,
        );
        rows.push(DefenseRow {
            arm: arm.label(),
            seconds,
            traces_per_sec,
            relative_throughput: traces_per_sec / baseline_tps,
            disclosed: r.mtd.is_some(),
            mtd: r.mtd,
        });
    }
    assert!(
        rows[0].disclosed,
        "undefended baseline must disclose the key"
    );

    // 2-point matrix smoke: baseline vs strong PRNG fence, plus the
    // detector evaluation.
    let matrix_exp = DefenseMatrixExperiment {
        base: base(traces),
        arms: vec![DefenseArm::Undefended, DefenseArm::PrngFence(1.5)],
        stimulus_alternation: 0.3,
        detector,
        detector_samples: if quick() { 4200 } else { 8200 },
        workers: 0,
    };
    let matrix = defense_matrix(&matrix_exp, &Obs::null()).expect("fabric builds");
    let monotonic = matrix.fence_mtd_monotonic();
    assert!(monotonic, "fence sweep must not improve the attack");
    assert!(
        matrix.detector.discriminates(),
        "detector must separate attacker ({} hits) from benign ({} false alarms)",
        matrix.detector.attacker.alarm_windows,
        matrix.detector.benign.alarm_windows,
    );
    println!(
        "[defense] matrix: baseline mtd={:?} fenced mtd={:?} detector hits={} false_alarms={}",
        matrix.cells[0].result.mtd,
        matrix.cells[1].result.mtd,
        matrix.detector.attacker.alarm_windows,
        matrix.detector.benign.alarm_windows,
    );

    slm_bench::write_record!(
        "defense",
        &DefenseBench {
            circuit: "DualC6288".to_string(),
            source: "TdcAll".to_string(),
            traces,
            stimulus_alternation: 0.3,
            detector_hits: matrix.detector.attacker.alarm_windows,
            detector_false_alarms: matrix.detector.benign.alarm_windows,
            fence_mtd_monotonic: monotonic,
            rows,
        }
    );
}
