//! Long-horizon defense MTD through the streaming campaign engine.
//!
//! The serial defense matrix only proves its fenced, LDO and jitter
//! arms "defeated at 4k traces". This study re-runs them at a
//! 10⁶-trace budget (2k in quick mode) through the streaming engine
//! with online-MTD early stop and prints each arm's true — or still
//! budget-censored — measurements-to-disclosure.
//!
//! Crash safety is covered by `tests/streaming_crash.rs`, and
//! streaming throughput by the `stream-defended` workload of the
//! layered benchmark in `bench/`.

use slm_bench::quick;
use slm_core::experiments::{
    run_streaming, CpaExperiment, DefenseArm, EarlyStop, SensorSource, StreamingCpa,
};
use slm_fabric::{BenignCircuit, DetectorConfig};
use slm_obs::Obs;
use std::path::PathBuf;

/// A fresh, empty per-process scratch directory for one arm's ledger.
/// The caller removes it when done.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slm-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() {
    let budget: u64 = if quick() { 2_000 } else { 1_000_000 };
    let window: u64 = if quick() { 250 } else { 1_000 };
    let base = CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::TdcAll,
        traces: budget,
        checkpoints: 4,
        pilot_traces: if quick() { 30 } else { 100 },
        seed: 41,
    };
    let detector = DetectorConfig {
        window_ticks: 4098,
        alarm_threshold: 0.05,
    };
    let arms = [
        DefenseArm::Undefended,
        DefenseArm::PrngFence(1.5),
        DefenseArm::AdaptiveFence(1.5),
        DefenseArm::Ldo(0.25),
        DefenseArm::ClockJitter(8),
    ];
    let mut disclosed = Vec::new();
    for (tag, arm) in arms.into_iter().enumerate() {
        let exp = StreamingCpa::new(base)
            .with_window(window)
            .with_commit_every(2)
            .with_config_tag(tag as u64 + 1)
            .with_early_stop(EarlyStop {
                // Fixed rather than a budget fraction, so raising the
                // budget does not delay the arms that disclose early.
                min_traces: if quick() { budget / 10 } else { 5_000 },
                stable_commits: 3,
                min_margin: 0.01,
            });
        let dir = scratch_dir(&format!("mtd-{tag}"));
        let deployment = arm.deployment(detector, 0xbe7);
        let r = run_streaming(
            &exp,
            &dir,
            |config| {
                if !matches!(arm, DefenseArm::Undefended) {
                    config.stimulus_alternation = 0.3;
                    config.defense = deployment;
                }
            },
            &Obs::null(),
        )
        .expect("fabric builds");
        let _ = std::fs::remove_dir_all(&dir);
        println!(
            "[streaming] arm={} traces={}/{budget} windows={} early_stop={} mtd={:?}",
            arm.label(),
            r.traces,
            r.windows,
            r.early_stopped,
            r.result.mtd,
        );
        disclosed.push(r.result.mtd.is_some());
    }
    assert!(
        disclosed[0],
        "undefended long-horizon baseline must disclose the key"
    );
}
