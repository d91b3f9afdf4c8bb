//! Crash-safety properties of the streaming campaign engine.
//!
//! The contract under test: a streaming campaign killed at *arbitrary*
//! pipeline sites ([`CrashPlan`]) and resumed over the same ledger
//! directory produces a [`CpaResult`] bit-identical to the
//! uninterrupted run, at any worker count — and never retains more raw
//! traces than one absorb chunk of a window, regardless of the trace
//! budget.

use slm_core::experiments::{
    run_streaming, run_streaming_crashing, CpaExperiment, CpaResult, CrashPlan, CrashSite,
    SensorSource, StreamOutcome, StreamingCpa, StreamingError,
};
use slm_fabric::BenignCircuit;
use slm_obs::Obs;
use std::path::PathBuf;
use std::sync::OnceLock;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("slm-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The reference campaign: 240 traces in four 60-trace windows, one
/// commit per window — four commit groups to aim kills at.
fn campaign() -> StreamingCpa {
    StreamingCpa::new(CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::TdcAll,
        traces: 240,
        checkpoints: 4,
        pilot_traces: 20,
        seed: 41,
    })
    .with_window(60)
    .with_commit_every(1)
    .with_workers(1)
}

/// The uninterrupted reference result, computed once.
fn reference() -> &'static CpaResult {
    static REF: OnceLock<CpaResult> = OnceLock::new();
    REF.get_or_init(|| {
        let dir = scratch_dir("reference");
        let r = run_streaming(&campaign(), &dir, |_| {}, &Obs::null()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        r.result
    })
}

/// Drives a faulted run to completion: re-invokes the engine over the
/// same ledger until the crash plan is exhausted and the run completes,
/// exactly as an operator restarting a dead process would.
fn run_until_complete(
    exp: &StreamingCpa,
    dir: &PathBuf,
    plan: &mut CrashPlan,
) -> (CpaResult, u64, u64) {
    let mut kills = 0u64;
    loop {
        match run_streaming_crashing(exp, dir, |_| {}, &Obs::null(), plan).unwrap() {
            StreamOutcome::Complete(r) => return (r.result, kills, r.recovered_generations),
            StreamOutcome::Killed { .. } => kills += 1,
        }
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    const SITES: [CrashSite; 6] = [
        CrashSite::AfterCapture,
        CrashSite::AfterFold,
        CrashSite::TornLogAppend,
        CrashSite::AfterLogAppend,
        CrashSite::TornCommit,
        CrashSite::AfterCommit,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any single kill at any site of any commit group, resumed at
        /// 1, 2, 4 or 8 workers, reproduces the uninterrupted result bit
        /// for bit. (Torn first commits leave an all-corrupt ledger,
        /// which is an explicit error — covered separately below — so
        /// torn commits aim at groups ≥ 1 here.)
        #[test]
        fn kill_anywhere_resume_is_bit_identical(
            group in 0u64..4,
            site_idx in 0usize..6,
            workers_idx in 0usize..4,
        ) {
            let site = SITES[site_idx];
            let group = if site == CrashSite::TornCommit { group.max(1) } else { group };
            let workers = [1usize, 2, 4, 8][workers_idx];
            let dir = scratch_dir(&format!("prop-{group}-{site_idx}-{workers}"));
            let exp = campaign().with_workers(workers);
            let mut plan = CrashPlan::none().kill_at(group, site);
            let (result, kills, recovered) = run_until_complete(&exp, &dir, &mut plan);
            prop_assert_eq!(kills, 1);
            prop_assert_eq!(plan.fired(), 1);
            prop_assert_eq!(&result, reference());
            // Only a torn commit leaves a generation to recover past.
            prop_assert_eq!(recovered, u64::from(site == CrashSite::TornCommit));
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Two kills in one lifetime — die, resume, die again, resume —
        /// still land on the identical result.
        #[test]
        fn double_kill_chain_is_bit_identical(
            g1 in 0u64..2,
            g2 in 2u64..4,
            s1 in 0usize..4,
            s2 in 0usize..6,
        ) {
            let dir = scratch_dir(&format!("chain-{g1}-{g2}-{s1}-{s2}"));
            let exp = campaign();
            let mut plan = CrashPlan::none()
                .kill_at(g1, SITES[s1])
                .kill_at(g2, SITES[s2]);
            let (result, kills, _) = run_until_complete(&exp, &dir, &mut plan);
            prop_assert_eq!(kills, 2);
            prop_assert_eq!(&result, reference());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn bit_flip_in_newest_generation_falls_back_gracefully() {
    let dir = scratch_dir("bitflip");
    let exp = campaign();
    // Die right after the third commit, leaving generations 1..=3.
    let mut plan = CrashPlan::none().kill_at(2, CrashSite::AfterCommit);
    let killed = run_streaming_crashing(&exp, &dir, |_| {}, &Obs::null(), &mut plan).unwrap();
    assert!(matches!(killed, StreamOutcome::Killed { .. }));
    // Corrupt the newest generation on disk with a single bit flip.
    let mut gens: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "slmc"))
        .collect();
    gens.sort();
    let newest = gens.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(newest, &bytes).unwrap();
    // Resume: the flipped generation is skipped, generation 2 loads,
    // the recovery counter ticks, and the result is still identical.
    let obs = Obs::memory();
    let resumed = run_streaming(&exp, &dir, |_| {}, &obs).unwrap();
    assert_eq!(&resumed.result, reference());
    assert_eq!(resumed.recovered_generations, 1);
    assert_eq!(obs.snapshot().counter("stream.recovered_generations"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_first_commit_errors_instead_of_silently_restarting() {
    let dir = scratch_dir("torn-first");
    let exp = campaign();
    let mut plan = CrashPlan::none().kill_at(0, CrashSite::TornCommit);
    run_streaming_crashing(&exp, &dir, |_| {}, &Obs::null(), &mut plan).unwrap();
    // The only generation on disk is torn: every checkpoint is
    // unreadable, and restarting from zero must be an explicit
    // operator decision, not a silent default.
    match run_streaming(&exp, &dir, |_| {}, &Obs::null()).unwrap_err() {
        StreamingError::Io(e) => {
            let msg = e.to_string();
            assert!(msg.contains("no loadable checkpoint generation"), "{msg}");
        }
        other => panic!("expected Io error, got {other:?}"),
    }
    // The operator clears the ledger; the fresh run matches.
    std::fs::remove_dir_all(&dir).unwrap();
    let fresh = run_streaming(&exp, &dir, |_| {}, &Obs::null()).unwrap();
    assert_eq!(&fresh.result, reference());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn raw_trace_retention_is_bounded_by_window_not_budget() {
    let run = |traces: u64, tag: &str| {
        let dir = scratch_dir(tag);
        let exp = StreamingCpa::new(CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcAll,
            traces,
            checkpoints: 4,
            pilot_traces: 20,
            seed: 42,
        })
        .with_window(50)
        .with_commit_every(4)
        .with_workers(2);
        let obs = Obs::memory();
        let r = run_streaming(&exp, &dir, |_| {}, &obs).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (r, obs.snapshot())
    };
    let (small, _) = run(200, "mem-small");
    let (large, frame) = run(1_000, "mem-large");
    // 5× the budget, identical peak retention: one lane-kernel chunk,
    // min(window, 32 traces per absorb batch) = 32.
    assert_eq!(small.peak_raw_traces, 32);
    assert_eq!(large.peak_raw_traces, small.peak_raw_traces);
    assert_eq!(frame.gauges["stream.peak_raw_traces"].last, 32.0);
    assert_eq!(frame.counter("stream.windows_committed"), 20);
    assert_eq!(frame.counter("stream.commits"), 5);
    assert!(frame.counter("stream.bytes_journaled") > 0);
}

#[test]
fn multi_slot_single_bit_campaign_survives_kills() {
    // BenignSingleBit(None) runs up to eight accumulator slots in
    // parallel — the multi-slot stream-checkpoint path.
    let exp = StreamingCpa::new(CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::BenignSingleBit(None),
        traces: 180,
        checkpoints: 3,
        pilot_traces: 60,
        seed: 43,
    })
    .with_window(60)
    .with_commit_every(1)
    .with_workers(2);
    let clean_dir = scratch_dir("slots-clean");
    let clean = run_streaming(&exp, &clean_dir, |_| {}, &Obs::null()).unwrap();
    let dir = scratch_dir("slots-killed");
    let mut plan = CrashPlan::none()
        .kill_at(1, CrashSite::AfterCapture)
        .kill_at(2, CrashSite::TornCommit);
    let (result, kills, recovered) = run_until_complete(&exp, &dir, &mut plan);
    assert_eq!(kills, 2);
    assert_eq!(recovered, 1);
    assert_eq!(result, clean.result);
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streaming_final_state_matches_parallel_runner() {
    // The streaming engine re-uses the parallel runner's shard lanes:
    // with window == shard size, both fold the exact same capture
    // streams, so the final merged accumulator state — peaks and
    // recovered byte — must agree bit for bit.
    let base = CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::TdcAll,
        traces: 300,
        checkpoints: 3,
        pilot_traces: 20,
        seed: 44,
    };
    let dir = scratch_dir("vs-parallel");
    let streamed = run_streaming(
        &StreamingCpa::new(base).with_window(75).with_workers(2),
        &dir,
        |_| {},
        &Obs::null(),
    )
    .unwrap();
    let parallel = slm_core::experiments::run_cpa_parallel(
        &slm_core::experiments::ParallelCpa {
            base,
            shard_traces: 75,
            workers: 2,
        },
        |_| {},
        &Obs::null(),
    )
    .unwrap();
    assert_eq!(streamed.result.final_peaks, parallel.final_peaks);
    assert_eq!(
        streamed.result.recovered_key_byte,
        parallel.recovered_key_byte
    );
    assert_eq!(streamed.result.correct_key_byte, parallel.correct_key_byte);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `exp` to completion in a fresh ledger and returns the run with
/// its metrics frame.
fn run_recorded(
    exp: &StreamingCpa,
    tag: &str,
) -> (
    slm_core::experiments::StreamingResult,
    slm_obs::MetricsFrame,
) {
    let dir = scratch_dir(tag);
    let obs = Obs::memory();
    let r = run_streaming(exp, &dir, |_| {}, &obs).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (r, obs.snapshot())
}

#[test]
fn corrupt_progress_log_record_falls_back_or_errors() {
    let exp = campaign();
    let commit_two = |tag: &str| {
        let dir = scratch_dir(tag);
        let mut plan = CrashPlan::none().kill_at(1, CrashSite::AfterCommit);
        run_streaming_crashing(&exp, &dir, |_| {}, &Obs::null(), &mut plan).unwrap();
        dir
    };
    let log_path = |dir: &PathBuf| dir.join(slm_cpa::store::PROGRESS_LOG_FILE);

    // A flip in the second record, which only generation 2 commits:
    // generation 1 loads, and the resumed run is still identical.
    let dir = commit_two("log-flip-last");
    let mut bytes = std::fs::read(log_path(&dir)).unwrap();
    let last = bytes.len() - 20;
    bytes[last] ^= 0x04;
    std::fs::write(log_path(&dir), &bytes).unwrap();
    let resumed = run_streaming(&exp, &dir, |_| {}, &Obs::null()).unwrap();
    assert_eq!(resumed.resumed_generation, Some(1));
    assert_eq!(resumed.recovered_generations, 1);
    assert_eq!(&resumed.result, reference());
    let _ = std::fs::remove_dir_all(&dir);

    // A flip in the first record, which every generation commits: no
    // generation loads, and that is an explicit error.
    let dir = commit_two("log-flip-first");
    let mut bytes = std::fs::read(log_path(&dir)).unwrap();
    bytes[20] ^= 0x04;
    std::fs::write(log_path(&dir), &bytes).unwrap();
    match run_streaming(&exp, &dir, |_| {}, &Obs::null()).unwrap_err() {
        StreamingError::Io(e) => {
            let msg = e.to_string();
            assert!(msg.contains("no loadable checkpoint generation"), "{msg}");
            assert!(msg.contains("progress log"), "{msg}");
        }
        other => panic!("expected Io error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_one_ledger_is_refused_by_the_version_check() {
    let dir = scratch_dir("v1-ledger");
    let exp = campaign();
    let mut plan = CrashPlan::none().kill_at(0, CrashSite::AfterCommit);
    run_streaming_crashing(&exp, &dir, |_| {}, &Obs::null(), &mut plan).unwrap();
    // Stamp the generation as the older inline-progress layout.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "slmc") {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
        }
    }
    match run_streaming(&exp, &dir, |_| {}, &Obs::null()).unwrap_err() {
        StreamingError::Io(e) => {
            let msg = e.to_string();
            assert!(msg.contains("version 1 is not supported"), "{msg}");
        }
        other => panic!("expected Io error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bytes_journaled_grow_linearly_with_commits() {
    // Every commit journals one fixed-size log record and one
    // fixed-size generation, so twice the commits journal exactly twice
    // the bytes. (Rewriting the whole progress curve at every commit
    // would grow the total with the square of the commit count.)
    let (_, four) = run_recorded(&campaign(), "journal-4");
    let mut longer = campaign();
    longer.base.traces = 480;
    let (_, eight) = run_recorded(&longer, "journal-8");
    assert_eq!(four.counter("stream.commits"), 4);
    assert_eq!(eight.counter("stream.commits"), 8);
    assert!(four.counter("stream.bytes_journaled") > 0);
    assert_eq!(
        eight.counter("stream.bytes_journaled"),
        2 * four.counter("stream.bytes_journaled")
    );
}

/// A six-window campaign committing every two windows.
fn grouped_campaign() -> StreamingCpa {
    let mut exp = campaign().with_commit_every(2);
    exp.base.traces = 360;
    exp
}

#[test]
fn mid_run_capture_error_commits_the_same_windows_at_any_worker_count() {
    let (clean, _) = run_recorded(&grouped_campaign(), "fail-clean");
    for workers in [1usize, 2, 4, 8] {
        let dir = scratch_dir(&format!("fail-{workers}"));
        let exp = grouped_campaign().with_workers(workers);
        // Window 3 fails: group 0 (windows 0–1) is committed, window 2
        // is folded but its group never commits.
        let mut plan = CrashPlan::none().fail_window(3);
        match run_streaming_crashing(&exp, &dir, |_| {}, &Obs::null(), &mut plan) {
            Err(StreamingError::Fabric(e)) => assert!(e.retryable(), "{e}"),
            other => panic!("expected a fabric error at {workers} workers, got {other:?}"),
        }
        // Resuming captures exactly the four uncommitted windows.
        let obs = Obs::memory();
        let resumed = run_streaming(&exp, &dir, |_| {}, &obs).unwrap();
        assert_eq!(resumed.resumed_generation, Some(1), "{workers} workers");
        assert_eq!(obs.snapshot().counter("cpa.traces_absorbed"), 240);
        assert_eq!(resumed.result, clean.result, "{workers} workers");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn early_stop_is_worker_invariant_and_retention_stays_bounded() {
    let exp = |workers: usize| {
        StreamingCpa::new(CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcAll,
            traces: 4_000,
            checkpoints: 4,
            pilot_traces: 100,
            seed: 7,
        })
        .with_window(250)
        .with_commit_every(2)
        .with_workers(workers)
        .with_early_stop(slm_core::experiments::EarlyStop {
            min_traces: 1_000,
            stable_commits: 2,
            min_margin: 0.01,
        })
    };
    let (one, one_frame) = run_recorded(&exp(1), "early-1");
    assert!(one.early_stopped && one.traces < 4_000, "{one:?}");
    for workers in [2usize, 4, 8] {
        let (r, frame) = run_recorded(&exp(workers), &format!("early-{workers}"));
        // Same result, same committed windows, and the same metrics:
        // windows captured past the stop are never folded.
        assert_eq!(r, one, "{workers} workers");
        assert_eq!(frame.counters, one_frame.counters, "{workers} workers");
        assert!(r.peak_raw_traces <= 250);
    }
}
