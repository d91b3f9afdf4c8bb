//! Admission-at-traffic scan scheduling: the content-hash scan cache.
//!
//! The preamble study feeds `BENCH_scan.json` at the workspace root:
//! a corpus of zoo and size-swept designs is batch-scanned cold (fresh
//! cache directory), then warm (a new `ScanCache` instance over the
//! same directory, so every hit replays through the disk tier). The
//! study asserts the admission-path contract: the warm batch is
//! **bit-identical** to the cold one and at least **5× faster** —
//! a full cache hit skips analysis construction and every pass.

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use slm_checker::{CheckerConfig, PassManager, ScanCache, TaintConfig};
use slm_netlist::generators::{
    alu, array_multiplier, carry_sensor, kogge_stone_adder, tdc_delay_line, wallace_multiplier, zoo,
};
use slm_netlist::Netlist;
use slm_obs::Obs;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::OnceLock;

fn quick() -> bool {
    std::env::var("SLM_BENCH_QUICK").is_ok()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slm-bench-scan-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[derive(Debug, Serialize)]
struct ScanBench {
    bench: String,
    quick: bool,
    designs: usize,
    total_nets: usize,
    passes: Vec<String>,
    cold_seconds: f64,
    warm_seconds: f64,
    speedup: f64,
    designs_per_sec_cold: f64,
    designs_per_sec_warm: f64,
    warm_cache_hits: u64,
    warm_cache_misses: u64,
    bit_identical: bool,
}

/// The admission corpus: every zoo design plus size-swept arithmetic
/// so the cold scan has real analysis work to amortize.
fn corpus() -> Vec<Netlist> {
    let mut designs: Vec<Netlist> = zoo().into_iter().map(|e| e.netlist).collect();
    let sweep: &[usize] = if quick() {
        &[32, 64]
    } else {
        &[32, 64, 128, 256]
    };
    for &n in sweep {
        designs.push(alu(n).unwrap());
        designs.push(kogge_stone_adder(n).unwrap());
        designs.push(tdc_delay_line(n).unwrap());
        designs.push(carry_sensor(n, 4).unwrap());
    }
    let mults: &[usize] = if quick() { &[12] } else { &[16, 24] };
    for &m in mults {
        designs.push(array_multiplier(m).unwrap());
        designs.push(wallace_multiplier(m).unwrap());
    }
    designs
}

fn scan_study() -> ScanBench {
    let pm = PassManager::full();
    // One admission config for the whole queue; the declared pin also
    // exercises the taint pass on the carry sensors.
    let config = CheckerConfig {
        taint: TaintConfig {
            declared_clocks: vec!["sense".to_string()],
            ..TaintConfig::default()
        },
        ..CheckerConfig::default()
    };
    let designs = corpus();
    let refs: Vec<&Netlist> = designs.iter().collect();
    let total_nets: usize = designs.iter().map(Netlist::len).sum();
    let dir = scratch_dir("cache");

    let cold_cache = ScanCache::with_dir(&dir).expect("scratch dir is writable");
    let t = std::time::Instant::now();
    let cold = pm.run_batch(&refs, &config, Some(&cold_cache), 1);
    let cold_seconds = t.elapsed().as_secs_f64();
    drop(cold_cache);

    // A fresh instance over the same directory: every warm hit goes
    // through the on-disk tier, as it would across slm-scan invocations.
    let warm_cache = ScanCache::with_dir(&dir).expect("scratch dir is writable");
    let t = std::time::Instant::now();
    let warm = pm.run_batch(&refs, &config, Some(&warm_cache), 1);
    let warm_seconds = t.elapsed().as_secs_f64();

    let cold_json: Vec<String> = cold.iter().map(|r| r.to_json()).collect();
    let warm_json: Vec<String> = warm.iter().map(|r| r.to_json()).collect();
    let bit_identical = cold_json == warm_json;
    assert!(bit_identical, "warm replay must be bit-identical");
    assert_eq!(
        warm_cache.misses(),
        0,
        "an unchanged corpus must replay entirely from cache"
    );
    let speedup = cold_seconds / warm_seconds.max(f64::EPSILON);
    assert!(
        speedup >= 5.0,
        "warm batch must be at least 5x cold, got {speedup:.1}x \
         (cold {cold_seconds:.4}s, warm {warm_seconds:.4}s)"
    );
    println!(
        "[scan] {} designs, {total_nets} nets: cold {cold_seconds:.3}s, \
         warm {warm_seconds:.4}s ({speedup:.1}x, {} hits)",
        designs.len(),
        warm_cache.hits(),
    );
    let _ = std::fs::remove_dir_all(&dir);
    ScanBench {
        bench: "scan".to_string(),
        quick: quick(),
        designs: designs.len(),
        total_nets,
        passes: pm.pass_names().iter().map(|s| s.to_string()).collect(),
        cold_seconds,
        warm_seconds,
        speedup,
        designs_per_sec_cold: designs.len() as f64 / cold_seconds,
        designs_per_sec_warm: designs.len() as f64 / warm_seconds,
        warm_cache_hits: warm_cache.hits(),
        warm_cache_misses: warm_cache.misses(),
        bit_identical,
    }
}

fn scan_scheduling(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let record = scan_study();
        let json = serde_json::to_string_pretty(&record)
            .expect("bench record serialization is infallible");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scan.json");
        std::fs::write(path, json + "\n").expect("workspace root is writable");
        println!("[scan] wrote {path}");
    });

    // Timed kernels: one cold full-pipeline scan vs the warm cached
    // admission path for a mid-size design.
    let nl = alu(96).unwrap();
    let pm = PassManager::full();
    let config = CheckerConfig::default();
    c.bench_function("scan_cold_alu96", |b| {
        b.iter(|| pm.run(black_box(&nl), &config))
    });
    let cache = ScanCache::in_memory();
    let _ = pm.scan(&nl, &config, Some(&cache), 1, &Obs::null());
    c.bench_function("scan_warm_alu96", |b| {
        b.iter(|| pm.scan(black_box(&nl), &config, Some(&cache), 1, &Obs::null()))
    });
}

criterion_group!(benches, scan_scheduling);
criterion_main!(benches);
