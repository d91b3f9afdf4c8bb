//! Quickstart: build the paper's setup, watch the benign ALU act as a
//! voltage sensor, and recover an AES key byte with the reference TDC.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! # pin the capture pool (default: all cores; results are identical
//! # at any thread count):
//! cargo run --release --example quickstart -- --threads 4
//! # write a metrics report of the CPA campaign to a JSON file:
//! cargo run --release --example quickstart -- --metrics metrics.json
//! ```

use slm_core::experiments::{
    ro_response, run_cpa_parallel, CpaExperiment, ParallelCpa, SensorSource,
};
use slm_core::report;
use slm_fabric::BenignCircuit;
use slm_obs::{MetricsReport, Obs};

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

fn main() {
    let threads = threads_flag();
    let metrics_path = metrics_flag();
    let obs = if metrics_path.is_some() {
        Obs::memory()
    } else {
        Obs::null()
    };
    // 1. The preliminary experiment (paper Fig. 5/6): pulse 8000 ring
    //    oscillators at 4 MHz and watch the overclocked benign circuit's
    //    endpoints fluctuate alongside the reference TDC.
    println!("== RO influence on the benign C6288 sensor (Figs. 5/6/14) ==");
    let resp = ro_response(BenignCircuit::DualC6288, 240, 1).expect("fabric builds");
    println!(
        "sensitive endpoints: {} of 64: {:?}",
        resp.sensitive_bits.len(),
        resp.sensitive_bits
    );
    let tdc: Vec<f64> = resp.tdc.iter().map(|&d| f64::from(d)).collect();
    let hw: Vec<f64> = resp.hw_sensitive.iter().map(|&h| f64::from(h)).collect();
    print!(
        "{}",
        report::series_table("TDC depth (red series)", "sample", "depth", &tdc[..60])
    );
    print!(
        "{}",
        report::series_table("benign HW (blue series)", "sample", "hw", &hw[..60])
    );

    // 2. A miniature CPA campaign through the TDC (paper Fig. 9),
    //    sharded across the capture pool. The result is bit-identical
    //    at any --threads value.
    println!("\n== CPA on AES via the TDC (Fig. 9, reduced scale) ==");
    let exp = ParallelCpa::new(CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::TdcAll,
        traces: 5_000,
        checkpoints: 10,
        pilot_traces: 100,
        seed: 2,
    })
    .with_workers(threads);
    let result = run_cpa_parallel(&exp, |_| {}, &obs).expect("fabric builds");
    println!(
        "correct key byte {:#04x}; recovered {:?}; traces to disclosure {:?}",
        result.correct_key_byte, result.recovered_key_byte, result.mtd
    );
    for p in &result.progress {
        println!(
            "  after {:>6} traces: margin of correct key = {:+.4}",
            p.traces,
            p.margin(result.correct_key_byte)
        );
    }
    assert_eq!(
        result.recovered_key_byte,
        Some(result.correct_key_byte),
        "the TDC attack should succeed at this scale"
    );
    if let Some(path) = metrics_path {
        let report = MetricsReport::new("quickstart", obs.snapshot());
        print!("\n{}", report.to_table());
        std::fs::write(&path, report.to_json()).expect("metrics file is writable");
        println!("metrics written to {path}");
    }
    println!("\nkey byte recovered — see examples/key_recovery_campaign.rs for the full benign-sensor attack");
}
