//! Shared helpers for the study benches.
//!
//! Every `[[bench]]` target in this crate is a plain `fn main()` that
//! runs one study once (`cargo bench -p slm-bench --bench <name>`):
//!
//! - `figures`, `ablations` and `streaming` print the figure, ablation
//!   and long-horizon MTD tables EXPERIMENTS.md cites as the
//!   reproduction record;
//! - `observability` asserts the `slm-obs` overhead budgets and writes
//!   `BENCH_obs.json` through [`write_record!`].
//!
//! Costs (end to end and per layer) are measured by the layered
//! benchmark in `bench/`, not here. `SLM_BENCH_QUICK` shrinks every
//! study's budget for a smoke run; [`quick`] is the only place it is
//! read.

use serde::json::Value;
use serde::Serialize;
use slm_core::experiments::{run_cpa, CpaExperiment, CpaResult};
use slm_obs::Obs;
use std::path::{Path, PathBuf};

/// Whether `SLM_BENCH_QUICK` asks for smoke-run budgets.
pub fn quick() -> bool {
    std::env::var_os("SLM_BENCH_QUICK").is_some()
}

/// Writes a study record as `BENCH_<bench>.json`:
/// `slm_bench::write_record!("obs", &record)`.
///
/// Full runs write the committed file at the workspace root; quick runs
/// write under `CARGO_TARGET_TMPDIR` so a smoke never overwrites the
/// committed record. It is a macro because Cargo sets that variable
/// only while compiling bench and test targets, so it must expand in
/// the calling bench.
#[macro_export]
macro_rules! write_record {
    ($bench:expr, $record:expr) => {
        $crate::write_record_to(env!("CARGO_TARGET_TMPDIR"), $bench, $record)
    };
}

/// The body of [`write_record!`]; `quick_dir` receives quick-mode
/// records. Returns the path written.
pub fn write_record_to(quick_dir: &str, bench: &str, record: &impl Serialize) -> PathBuf {
    let quick = quick();
    let dir = if quick {
        Path::new(quick_dir)
    } else {
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
    };
    std::fs::create_dir_all(dir).expect("record directory is creatable");
    let path = dir.join(format!("BENCH_{bench}.json"));
    let json = with_header(bench, quick, record).render_pretty();
    std::fs::write(&path, json + "\n").expect("record directory is writable");
    println!("[{bench}] wrote {}", path.display());
    path
}

/// Prepends the header every `BENCH_*.json` shares (`bench`, `quick`,
/// `available_workers`) to the record's own fields.
fn with_header(bench: &str, quick: bool, record: &impl Serialize) -> Value {
    let Value::Object(fields) = record.to_json_value() else {
        panic!("a bench record serializes to a JSON object");
    };
    let mut all = vec![
        ("bench".to_string(), Value::String(bench.to_string())),
        ("quick".to_string(), Value::Bool(quick)),
        (
            "available_workers".to_string(),
            Value::U64(slm_par::available_workers() as u64),
        ),
    ];
    all.extend(fields);
    Value::Object(all)
}

/// Runs a CPA experiment and prints the figure-style summary.
pub fn run_and_report(label: &str, exp: &CpaExperiment) -> CpaResult {
    let start = std::time::Instant::now();
    let r = run_cpa(exp, |_| {}, &Obs::null()).expect("fabric builds");
    let ok = r.recovered_key_byte == Some(r.correct_key_byte);
    println!(
        "[{label}] traces={} recovered={} mtd={:?} bits_of_interest={} selected_bit={:?} elapsed={:.1?}",
        r.traces,
        ok,
        r.mtd,
        r.bits_of_interest.len(),
        r.selected_bit,
        start.elapsed()
    );
    for p in &r.progress {
        println!(
            "[{label}] progress traces={} correct_peak={:+.4} best_wrong={:+.4}",
            p.traces,
            p.peak_corr[r.correct_key_byte as usize],
            p.peak_corr[r.correct_key_byte as usize] - p.margin(r.correct_key_byte),
        );
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use slm_core::experiments::SensorSource;
    use slm_fabric::BenignCircuit;

    #[test]
    fn report_helper_runs() {
        let r = run_and_report(
            "smoke",
            &CpaExperiment {
                circuit: BenignCircuit::DualC6288,
                source: SensorSource::TdcAll,
                traces: 300,
                checkpoints: 3,
                pilot_traces: 20,
                seed: 1,
            },
        );
        assert_eq!(r.traces, 300);
    }

    #[derive(Serialize)]
    struct Record {
        traces: u64,
        disclosed: bool,
    }

    #[test]
    fn header_precedes_record_fields() {
        let record = Record {
            traces: 7,
            disclosed: true,
        };
        assert_eq!(
            with_header("demo", true, &record).render_compact(),
            format!(
                r#"{{"bench":"demo","quick":true,"available_workers":{},"traces":7,"disclosed":true}}"#,
                slm_par::available_workers()
            )
        );
    }
}
