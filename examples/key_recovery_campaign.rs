//! The full benign-logic key-recovery campaign (paper Figs. 10, 12, 13,
//! 17, 18): attack the AES last-round key byte through the overclocked
//! ALU and C6288 sensors, with Hamming-weight and single-bit
//! post-processing, and compare trace budgets against the TDC baseline.
//!
//! Run with (several minutes at full scale):
//! ```sh
//! cargo run --release --example key_recovery_campaign
//! # reduced scale:
//! cargo run --release --example key_recovery_campaign -- --quick
//! # pin the capture pool (default: all cores; results are identical
//! # at any thread count):
//! cargo run --release --example key_recovery_campaign -- --threads 4
//! # write a metrics report of every campaign (counters, per-shard
//! # spans, PDN telemetry) to a JSON file:
//! cargo run --release --example key_recovery_campaign -- --quick --metrics metrics.json
//! # re-run every campaign under a countermeasure (prng-fence,
//! # constant-fence, adaptive-fence, ldo, or jitter):
//! cargo run --release --example key_recovery_campaign -- --quick --defense prng-fence
//! # run through the crash-safe streaming engine, journalling progress
//! # under ckpt/ (one subdirectory per campaign); an interrupted run
//! # continues from the last good checkpoint generation with --resume:
//! cargo run --release --example key_recovery_campaign -- --checkpoint-dir ckpt
//! cargo run --release --example key_recovery_campaign -- --checkpoint-dir ckpt --resume
//! ```

use slm_core::experiments::{
    run_cpa_parallel, run_streaming, CpaExperiment, DefenseArm, ParallelCpa, SensorSource,
    StreamingCpa,
};
use slm_core::report;
use slm_fabric::{BenignCircuit, DetectorConfig, FabricConfig};
use slm_obs::{MetricsReport, Obs};
use std::path::Path;

/// Parses `--threads N` (0 or absent = machine parallelism).
fn threads_flag() -> usize {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            let raw = args.next().expect("--threads needs a count");
            return raw.parse().expect("--threads: not a count");
        }
    }
    0
}

/// Parses `--metrics PATH`: `Some(path)` enables recording.
fn metrics_flag() -> Option<String> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--metrics" {
            return Some(args.next().expect("--metrics needs a file path"));
        }
    }
    None
}

/// Parses `--checkpoint-dir DIR`: `Some(dir)` routes every campaign
/// through the streaming engine, journalling progress under
/// `DIR/<campaign-slug>/`.
fn checkpoint_dir_flag() -> Option<String> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--checkpoint-dir" {
            return Some(args.next().expect("--checkpoint-dir needs a directory"));
        }
    }
    None
}

/// A filesystem-safe slug for a campaign's checkpoint subdirectory.
fn slug(label: &str) -> String {
    let mut s = String::new();
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            s.push(c.to_ascii_lowercase());
        } else if !s.ends_with('-') && !s.is_empty() {
            s.push('-');
        }
    }
    s.trim_end_matches('-').to_string()
}

/// Whether a ledger directory already holds checkpoint generations.
fn has_checkpoints(dir: &Path) -> bool {
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries
            .flatten()
            .any(|e| e.file_name().to_string_lossy().ends_with(".slmc"))
    })
}

/// Parses `--defense ARM`: the countermeasure every campaign runs
/// under (absent = undefended, the paper's setting). Returns the arm
/// and a stable tag for the streaming fingerprint, so checkpoints from
/// a differently-defended run are refused on resume.
fn defense_flag() -> Option<(u64, DefenseArm)> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--defense" {
            let raw = args.next().expect("--defense needs an arm name");
            let tag = raw.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
            return Some((
                tag,
                match raw.as_str() {
                    "none" => DefenseArm::Undefended,
                    "constant-fence" => DefenseArm::ConstantFence(1.5),
                    "prng-fence" => DefenseArm::PrngFence(1.5),
                    "adaptive-fence" => DefenseArm::AdaptiveFence(1.5),
                    "ldo" => DefenseArm::Ldo(0.25),
                    "jitter" => DefenseArm::ClockJitter(8),
                    other => panic!(
                        "--defense: unknown arm {other:?} (expected none, constant-fence, \
                     prng-fence, adaptive-fence, ldo, or jitter)"
                    ),
                },
            ));
        }
    }
    None
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let resume = std::env::args().any(|a| a == "--resume");
    let threads = threads_flag();
    let metrics_path = metrics_flag();
    let checkpoint_dir = checkpoint_dir_flag();
    let defense = defense_flag();
    if let Some((_, arm)) = &defense {
        println!("-- defense deployed: {} --", arm.label());
    }
    let obs = if metrics_path.is_some() {
        Obs::memory()
    } else {
        Obs::null()
    };
    let scale = if quick { 10 } else { 1 };

    let campaigns: Vec<(&str, BenignCircuit, SensorSource, u64)> = vec![
        (
            "Fig. 9  — TDC, all bits",
            BenignCircuit::Alu192,
            SensorSource::TdcAll,
            20_000 / scale,
        ),
        (
            "Fig. 11 — TDC, single tap",
            BenignCircuit::Alu192,
            SensorSource::TdcSingleBit(None),
            20_000 / scale,
        ),
        (
            "Fig. 10 — ALU, Hamming weight of bits of interest",
            BenignCircuit::Alu192,
            SensorSource::BenignHammingWeight,
            400_000 / scale,
        ),
        (
            "Fig. 12 — ALU, best single endpoint",
            BenignCircuit::Alu192,
            SensorSource::BenignSingleBit(None),
            400_000 / scale,
        ),
        (
            // our C6288 HW sensor needs more traces than the paper's
            // (see EXPERIMENTS.md deviations)
            "Fig. 17 — C6288, Hamming weight",
            BenignCircuit::DualC6288,
            SensorSource::BenignHammingWeight,
            800_000 / scale,
        ),
        (
            "Fig. 18 — C6288, best single endpoint",
            BenignCircuit::DualC6288,
            SensorSource::BenignSingleBit(None),
            500_000 / scale,
        ),
    ];

    let mut summary = Vec::new();
    for (label, circuit, source, traces) in campaigns {
        println!("== {label} ({traces} traces) ==");
        let exp = ParallelCpa::new(CpaExperiment {
            circuit,
            source,
            traces,
            checkpoints: 20,
            pilot_traces: 400,
            seed: 0xc0ffee,
        })
        .with_workers(threads);
        let tweak = |config: &mut FabricConfig| {
            if let Some((_, arm)) = &defense {
                // A defended run models the realistic attacker too:
                // its stimulus pair is slightly asymmetric, which is
                // what the defender's detector keys on.
                config.stimulus_alternation = 0.3;
                config.defense = arm.deployment(
                    DetectorConfig {
                        window_ticks: 4098,
                        alarm_threshold: 0.05,
                    },
                    0xd15c,
                );
            }
        };
        let start = std::time::Instant::now();
        let r = if let Some(base_dir) = &checkpoint_dir {
            let dir = Path::new(base_dir).join(slug(label));
            if has_checkpoints(&dir) && !resume {
                eprintln!(
                    "error: {} already holds checkpoint generations; pass --resume \
                     to continue the interrupted campaign, or clear the directory \
                     to start over",
                    dir.display()
                );
                std::process::exit(2);
            }
            let sexp = StreamingCpa::new(exp.base)
                .with_workers(threads)
                .with_config_tag(defense.as_ref().map_or(0, |(tag, _)| *tag));
            let sr = run_streaming(&sexp, &dir, tweak, &obs).unwrap_or_else(|e| {
                eprintln!("error: streaming campaign failed: {e}");
                std::process::exit(1);
            });
            if let Some(generation) = sr.resumed_generation {
                println!(
                    "  resumed from checkpoint generation {generation}, \
                     finished at {} windows / {} traces{}",
                    sr.windows,
                    sr.traces,
                    if sr.recovered_generations > 0 {
                        format!(
                            "; fell back past {} corrupt generation(s)",
                            sr.recovered_generations
                        )
                    } else {
                        String::new()
                    },
                );
            }
            sr.result
        } else {
            run_cpa_parallel(&exp, tweak, &obs).expect("fabric builds")
        };
        let ok = r.recovered_key_byte == Some(r.correct_key_byte);
        println!(
            "  recovered: {}  mtd: {:?}  bits of interest: {}  selected bit: {:?}  ({:.1?})",
            if ok { "YES" } else { "no " },
            r.mtd,
            r.bits_of_interest.len(),
            r.selected_bit,
            start.elapsed(),
        );
        if ok {
            print!(
                "{}",
                report::correlation_panel(&r.final_peaks, r.correct_key_byte)
            );
        }
        summary.push((label, ok, r.mtd, traces));
    }

    println!("\n== campaign summary ==");
    println!("{:<52} {:>9} {:>12}", "experiment", "recovered", "MTD");
    for (label, ok, mtd, _) in &summary {
        println!(
            "{label:<52} {:>9} {:>12}",
            if *ok { "yes" } else { "no" },
            mtd.map_or("—".to_string(), |m| m.to_string())
        );
    }

    if let Some(path) = metrics_path {
        let report = MetricsReport::new("key_recovery_campaign", obs.snapshot());
        print!("\n{}", report.to_table());
        std::fs::write(&path, report.to_json()).expect("metrics file is writable");
        println!("metrics written to {path}");
    }
}
