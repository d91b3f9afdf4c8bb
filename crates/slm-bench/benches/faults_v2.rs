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

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use slm_core::experiments::{
    fault_matrix, run_fault_campaign, DefenseArm, FaultCampaign, FaultMatrixExperiment,
};
use slm_cpa::DfaModel;
use slm_fabric::{AggressorSpec, BenignCircuit, FabricConfig};
use slm_obs::Obs;
use std::hint::black_box;
use std::sync::OnceLock;

fn quick() -> bool {
    std::env::var("SLM_BENCH_QUICK").is_ok()
}

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
    bench: String,
    quick: bool,
    circuit: String,
    model: String,
    captures: u64,
    seconds: f64,
    captures_per_sec: f64,
    cells: Vec<FaultCell>,
    detector: Vec<DetectorRow>,
}

fn fault_matrix_once(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        // Key recovery needs the full capture budget even in quick
        // mode (2k captures run in well under a second); quick mode
        // trims the detector observation span instead.
        let exp = FaultMatrixExperiment {
            arms: vec![DefenseArm::Undefended, DefenseArm::Ldo(0.25)],
            detector_samples: if quick() { 4200 } else { 8200 },
            ..FaultMatrixExperiment::standard(11)
        };
        let start = std::time::Instant::now();
        let matrix = fault_matrix(&exp).expect("fabric builds");
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

        let record = FaultBench {
            bench: "faults".to_string(),
            quick: quick(),
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
        };
        let json = serde_json::to_string_pretty(&record)
            .expect("bench record serialization is infallible");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fault.json");
        std::fs::write(path, json + "\n").expect("workspace root is writable");
        println!("[faults] wrote {path}");
    });

    // Timed kernel: one sharded fault campaign, ciphertext-only.
    c.bench_function("fault_campaign_400_captures", |b| {
        b.iter(|| {
            let exp = FaultCampaign {
                config: FabricConfig {
                    benign: BenignCircuit::DualC6288,
                    seed: 11,
                    aggressor: Some(AggressorSpec::stealthy(3.0)),
                    ..FabricConfig::default()
                },
                model: DfaModel::SingleByte { max_fault_bits: 2 },
                captures: 400,
                shard_captures: 100,
                workers: 1,
            };
            run_fault_campaign(black_box(&exp), &Obs::null()).unwrap()
        })
    });
}

criterion_group!(benches, fault_matrix_once);
criterion_main!(benches);
