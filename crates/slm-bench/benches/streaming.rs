//! Streaming campaign engine: crash-safety smoke and long-horizon MTD.
//!
//! Two preamble studies feed `BENCH_streaming.json` at the workspace
//! root:
//!
//! 1. **Resume-after-kill smoke** — a campaign is killed mid-pipeline
//!    (after a fold, then again with a torn commit), resumed from its
//!    generation ledger, and asserted bit-identical to the
//!    uninterrupted run, with the raw-trace retention bound checked.
//! 2. **Long-horizon defense MTD** — the defense arms the matrix bench
//!    only proves "defeated at 3k traces" are re-run at a 50k-trace
//!    budget (2k in quick mode) through the streaming engine with
//!    online-MTD early stop, reporting each arm's true — or still
//!    budget-censored — measurements-to-disclosure.

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use slm_core::experiments::{
    run_streaming, run_streaming_crashing, CpaExperiment, CrashPlan, CrashSite, DefenseArm,
    EarlyStop, SensorSource, StreamOutcome, StreamingCpa,
};
use slm_fabric::{BenignCircuit, DetectorConfig};
use slm_obs::Obs;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::OnceLock;

fn quick() -> bool {
    std::env::var("SLM_BENCH_QUICK").is_ok()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slm-bench-stream-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[derive(Debug, Serialize)]
struct CrashSmoke {
    kills_injected: u64,
    torn_generations_recovered: u64,
    resume_bit_identical: bool,
    window_traces: u64,
    peak_raw_traces: u64,
}

#[derive(Debug, Serialize)]
struct MtdRow {
    arm: String,
    traces_budget: u64,
    traces_run: u64,
    windows: u64,
    early_stopped: bool,
    disclosed: bool,
    mtd: Option<u64>,
    seconds: f64,
    traces_per_sec: f64,
    commits: u64,
    bytes_journaled: u64,
}

#[derive(Debug, Serialize)]
struct StreamingBench {
    bench: String,
    quick: bool,
    circuit: String,
    source: String,
    crash_smoke: CrashSmoke,
    rows: Vec<MtdRow>,
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

/// Kill a campaign twice (after a fold, then with a torn commit),
/// resume it to completion, and compare against the clean run.
fn crash_smoke() -> CrashSmoke {
    let traces = if quick() { 600 } else { 2_000 };
    let window = traces / 10;
    let exp = StreamingCpa::new(base(traces))
        .with_window(window)
        .with_commit_every(1);
    let clean_dir = scratch_dir("smoke-clean");
    let clean = run_streaming(&exp, &clean_dir, |_| {}, &Obs::null()).expect("fabric builds");

    let dir = scratch_dir("smoke-killed");
    let mut plan = CrashPlan::none()
        .kill_at(2, CrashSite::AfterFold)
        .kill_at(5, CrashSite::TornCommit);
    let mut kills = 0u64;
    let resumed = loop {
        match run_streaming_crashing(&exp, &dir, |_| {}, &Obs::null(), &mut plan)
            .expect("streaming run")
        {
            StreamOutcome::Complete(r) => break r,
            StreamOutcome::Killed { .. } => kills += 1,
        }
    };
    assert_eq!(kills, 2, "both scheduled kills must fire");
    assert_eq!(
        resumed.result, clean.result,
        "killed+resumed campaign must be bit-identical to the clean run"
    );
    assert_eq!(
        resumed.recovered_generations, 1,
        "the torn generation must be recovered past"
    );
    assert!(
        resumed.peak_raw_traces <= window,
        "raw retention {} exceeds the window bound {window}",
        resumed.peak_raw_traces
    );
    println!(
        "[streaming] crash smoke: {kills} kills, {} torn generation(s) recovered, \
         resume bit-identical, peak raw {} <= window {window}",
        resumed.recovered_generations, resumed.peak_raw_traces
    );
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
    CrashSmoke {
        kills_injected: kills,
        torn_generations_recovered: resumed.recovered_generations,
        resume_bit_identical: true,
        window_traces: window,
        peak_raw_traces: resumed.peak_raw_traces,
    }
}

/// Re-run the "defeated at 3k" defense arms at a long-horizon budget.
fn mtd_study() -> Vec<MtdRow> {
    let budget: u64 = if quick() { 2_000 } else { 50_000 };
    let window: u64 = if quick() { 250 } else { 1_000 };
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
    let mut rows = Vec::new();
    for (tag, arm) in arms.into_iter().enumerate() {
        let exp = StreamingCpa::new(base(budget))
            .with_window(window)
            .with_commit_every(2)
            .with_config_tag(tag as u64 + 1)
            .with_early_stop(EarlyStop {
                min_traces: budget / 10,
                stable_commits: 3,
                min_margin: 0.01,
            });
        let dir = scratch_dir(&format!("mtd-{tag}"));
        let deployment = arm.deployment(detector, 0xbe7);
        let obs = Obs::memory();
        let start = std::time::Instant::now();
        let r = run_streaming(
            &exp,
            &dir,
            |config| {
                if !matches!(arm, DefenseArm::Undefended) {
                    config.stimulus_alternation = 0.3;
                    config.defense = deployment;
                }
            },
            &obs,
        )
        .expect("fabric builds");
        let seconds = start.elapsed().as_secs_f64();
        let frame = obs.snapshot();
        println!(
            "[streaming] arm={} traces={}/{budget} early_stop={} mtd={:?} \
             elapsed={seconds:.2}s traces/sec={:.0}",
            arm.label(),
            r.traces,
            r.early_stopped,
            r.result.mtd,
            r.traces as f64 / seconds,
        );
        rows.push(MtdRow {
            arm: arm.label(),
            traces_budget: budget,
            traces_run: r.traces,
            windows: r.windows,
            early_stopped: r.early_stopped,
            disclosed: r.result.mtd.is_some(),
            mtd: r.result.mtd,
            seconds,
            traces_per_sec: r.traces as f64 / seconds,
            commits: frame.counter("stream.commits"),
            bytes_journaled: frame.counter("stream.bytes_journaled"),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        rows[0].disclosed,
        "undefended long-horizon baseline must disclose the key"
    );
    rows
}

fn streaming_engine(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let smoke = crash_smoke();
        let rows = mtd_study();
        let record = StreamingBench {
            bench: "streaming".to_string(),
            quick: quick(),
            circuit: "DualC6288".to_string(),
            source: "TdcAll".to_string(),
            crash_smoke: smoke,
            rows,
        };
        let json = serde_json::to_string_pretty(&record)
            .expect("bench record serialization is infallible");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_streaming.json");
        std::fs::write(path, json + "\n").expect("workspace root is writable");
        println!("[streaming] wrote {path}");
    });

    // Timed kernel: a small streaming campaign end to end, including
    // its ledger commits.
    c.bench_function("streaming_campaign_300_traces", |b| {
        b.iter(|| {
            let dir = scratch_dir("kernel");
            let exp = StreamingCpa::new(base(300))
                .with_window(75)
                .with_commit_every(2);
            let r = run_streaming(black_box(&exp), &dir, |_| {}, &Obs::null()).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            r
        })
    });
}

criterion_group!(benches, streaming_engine);
criterion_main!(benches);
