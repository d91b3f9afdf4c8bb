//! Fault-injection throughput and the combined SCA/FI matrix.
//!
//! Runs the standard-shape aggressor-vs-defense fault matrix (weak and
//! calibrated stealthy bursts plus the blatant tick-rate duty cycle,
//! against no defense and the LDO), records faults-per-1k, DFA key
//! recovery and detector scores to `BENCH_fault.json` at the workspace
//! root, and smoke-checks the headline claims: the undefended
//! calibrated aggressor yields the full master key, the LDO suppresses
//! every fault, and the stealthy burst evades the alternation detector
//! that flags the blatant one.

use serde::Serialize;
use slm_bench::quick;
use slm_core::experiments::{fault_matrix, DefenseArm, FaultMatrixExperiment};
use slm_fabric::AggressorSpec;
use slm_obs::Obs;

fn aggressor_label(aggressor: &Option<AggressorSpec>) -> String {
    match aggressor {
        None => "none".into(),
        Some(a) => format!(
            "{:.1}A {}on/{}period",
            a.peak_current_a, a.on_ticks, a.period_ticks
        ),
    }
}

#[derive(Debug, Serialize)]
struct FaultCell {
    aggressor: String,
    arm: String,
    faults_per_1k: f64,
    pairs_accepted: u64,
    pairs_discarded: u64,
    recovered_bytes: usize,
    key_recovered: bool,
    min_victim_v: f64,
    alarm_windows: u64,
}

#[derive(Debug, Serialize)]
struct DetectorRow {
    aggressor: String,
    windows: u64,
    alarm_windows: u64,
    max_score: f64,
    detected: bool,
}

#[derive(Debug, Serialize)]
struct FaultBench {
    circuit: String,
    model: String,
    captures: u64,
    seconds: f64,
    captures_per_sec: f64,
    cells: Vec<FaultCell>,
    detector: Vec<DetectorRow>,
}

fn main() {
    // Key recovery needs the full capture budget even in quick
    // mode (2k captures run in well under a second); quick mode
    // trims the detector observation span instead.
    let exp = FaultMatrixExperiment {
        arms: vec![DefenseArm::Undefended, DefenseArm::Ldo(0.25)],
        detector_samples: if quick() { 4200 } else { 8200 },
        ..FaultMatrixExperiment::standard(11)
    };
    let start = std::time::Instant::now();
    let matrix = fault_matrix(&exp, &Obs::null()).expect("fabric builds");
    let seconds = start.elapsed().as_secs_f64();
    let total_captures = exp.captures * matrix.cells.len() as u64;

    let stealthy = Some(AggressorSpec::stealthy(3.0));
    let hot = matrix
        .cell(stealthy, &DefenseArm::Undefended)
        .expect("matrix has the undefended stealthy cell");
    assert!(
        hot.key_recovered(),
        "undefended calibrated aggressor must recover the key \
         ({} bytes)",
        hot.recovered_bytes
    );
    let cold = matrix
        .cell(stealthy, &DefenseArm::Ldo(0.25))
        .expect("matrix has the LDO stealthy cell");
    assert_eq!(cold.faults_per_1k, 0.0, "LDO must suppress all faults");
    let blatant = matrix
        .detector_for(Some(AggressorSpec::tick_rate(3.0)))
        .expect("matrix watched the tick-rate row");
    assert!(blatant.detected(), "tick-rate duty cycle must alarm");
    let evader = matrix
        .detector_for(stealthy)
        .expect("matrix watched the stealthy row");
    assert!(
        !evader.detected(),
        "stealthy burst must evade the alternation detector"
    );
    println!(
        "[faults] matrix {}x{} in {seconds:.2}s: hot faults/1k={:.0} \
         recovered={} ldo faults/1k={:.0} stealthy score={:.4} \
         blatant score={:.1}",
        exp.aggressors.len(),
        exp.arms.len(),
        hot.faults_per_1k,
        hot.recovered_bytes,
        cold.faults_per_1k,
        evader.reading.max_score,
        blatant.reading.max_score,
    );

    slm_bench::write_record!(
        "fault",
        &FaultBench {
            circuit: "DualC6288".to_string(),
            model: format!("{:?}", exp.model),
            captures: exp.captures,
            seconds,
            captures_per_sec: total_captures as f64 / seconds,
            cells: matrix
                .cells
                .iter()
                .map(|c| FaultCell {
                    aggressor: aggressor_label(&c.aggressor),
                    arm: c.arm.label(),
                    faults_per_1k: c.faults_per_1k,
                    pairs_accepted: c.pairs_accepted,
                    pairs_discarded: c.pairs_discarded,
                    recovered_bytes: c.recovered_bytes,
                    key_recovered: c.key_recovered(),
                    min_victim_v: c.min_victim_v,
                    alarm_windows: c.alarm_windows,
                })
                .collect(),
            detector: matrix
                .detector
                .iter()
                .map(|d| DetectorRow {
                    aggressor: aggressor_label(&d.aggressor),
                    windows: d.reading.windows,
                    alarm_windows: d.reading.alarm_windows,
                    max_score: d.reading.max_score,
                    detected: d.detected(),
                })
                .collect(),
        }
    );
}
