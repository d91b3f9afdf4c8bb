//! Observability overhead: the cost of `slm-obs` on the campaign path.
//!
//! Two claims are asserted, not just reported:
//!
//! 1. **Disabled is free (< 1%).** The default `NullRecorder` handle
//!    turns every record call into one virtual dispatch on a no-op.
//!    A microbenchmark measures ns per null op and projects the worst
//!    case onto the measured per-trace simulation cost.
//! 2. **Enabled is cheap (< 3%).** The same sharded campaign runs
//!    null-handled and memory-recorded, interleaved, min-of-3; the
//!    enabled run may be at most 3% slower.
//!
//! Results (and the asserted bounds) land in `BENCH_obs.json` at the
//! workspace root.

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use slm_core::experiments::{run_cpa_parallel, CpaExperiment, ParallelCpa, SensorSource};
use slm_fabric::BenignCircuit;
use slm_obs::Obs;
use std::hint::black_box;
use std::sync::OnceLock;

fn quick() -> bool {
    std::env::var("SLM_BENCH_QUICK").is_ok()
}

/// Obs calls per captured trace on the CPA path: one capture counter,
/// one accumulator counter — generously doubled for checkpoint-heavy
/// configurations.
const OBS_OPS_PER_TRACE: f64 = 4.0;

const NULL_BUDGET: f64 = 0.01;
const ENABLED_BUDGET: f64 = 0.03;

#[derive(Debug, Serialize)]
struct ObsBench {
    bench: String,
    quick: bool,
    traces: u64,
    null_ns_per_op: f64,
    /// Projected fraction of per-trace time spent in null obs calls.
    null_projected_overhead: f64,
    null_budget: f64,
    t_null_s: f64,
    t_enabled_s: f64,
    enabled_overhead: f64,
    enabled_budget: f64,
    deterministic: bool,
}

fn experiment() -> ParallelCpa {
    let traces = if quick() { 400 } else { 2_000 };
    ParallelCpa {
        base: CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcAll,
            traces,
            checkpoints: 4,
            pilot_traces: if quick() { 30 } else { 100 },
            seed: 31,
        },
        shard_traces: (traces / 8).max(1),
        workers: 1,
    }
}

/// ns per obs call on a null handle: the price every instrumented hot
/// path pays when metrics are off.
fn null_ns_per_op() -> f64 {
    let obs = Obs::null();
    let iters = 2_000_000u64;
    let start = std::time::Instant::now();
    for _ in 0..iters {
        black_box(&obs).incr(black_box("bench.null_op"));
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn observability_overhead(c: &mut Criterion) {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let exp = experiment();

        // Warm-up run: page in code and the allocator before timing.
        run_cpa_parallel(&exp, |_| {}, &Obs::null()).expect("fabric builds");

        // Interleaved min-of-3: the minimum is the least-disturbed
        // observation of each configuration.
        let mut t_null = f64::INFINITY;
        let mut t_enabled = f64::INFINITY;
        let mut deterministic = true;
        for _ in 0..3 {
            let start = std::time::Instant::now();
            let plain = run_cpa_parallel(&exp, |_| {}, &Obs::null()).expect("fabric builds");
            t_null = t_null.min(start.elapsed().as_secs_f64());

            let obs = Obs::memory();
            let start = std::time::Instant::now();
            let recorded = run_cpa_parallel(&exp, |_| {}, &obs).expect("fabric builds");
            t_enabled = t_enabled.min(start.elapsed().as_secs_f64());

            deterministic &= plain == recorded;
            let frame = obs.snapshot();
            assert_eq!(
                frame.counter("cpa.traces_absorbed"),
                exp.base.traces,
                "instrumentation must see every trace"
            );
        }
        assert!(deterministic, "recording must never perturb the result");

        let enabled_overhead = t_enabled / t_null - 1.0;
        let ns_op = null_ns_per_op();
        let per_trace_ns = t_null * 1e9 / exp.base.traces as f64;
        let null_projected = OBS_OPS_PER_TRACE * ns_op / per_trace_ns;

        println!(
            "[obs] null: {ns_op:.2} ns/op, {null_projected:.5} of per-trace cost \
             (budget {NULL_BUDGET})"
        );
        println!(
            "[obs] enabled: {t_enabled:.3}s vs {t_null:.3}s null, overhead \
             {enabled_overhead:+.4} (budget {ENABLED_BUDGET})"
        );
        assert!(
            null_projected < NULL_BUDGET,
            "null-recorder cost {null_projected:.5} exceeds the {NULL_BUDGET} budget"
        );
        assert!(
            enabled_overhead < ENABLED_BUDGET,
            "enabled-metrics overhead {enabled_overhead:.4} exceeds the {ENABLED_BUDGET} budget"
        );

        let record = ObsBench {
            bench: "observability".to_string(),
            quick: quick(),
            traces: exp.base.traces,
            null_ns_per_op: ns_op,
            null_projected_overhead: null_projected,
            null_budget: NULL_BUDGET,
            t_null_s: t_null,
            t_enabled_s: t_enabled,
            enabled_overhead,
            enabled_budget: ENABLED_BUDGET,
            deterministic,
        };
        let json = serde_json::to_string_pretty(&record)
            .expect("bench record serialization is infallible");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
        std::fs::write(path, json + "\n").expect("workspace root is writable");
        println!("[obs] wrote {path}");
    });

    // Timed kernel: the memory recorder's fork/record/absorb cycle —
    // the per-shard bookkeeping a parallel campaign adds.
    c.bench_function("obs_fork_record_absorb", |b| {
        b.iter(|| {
            let obs = Obs::memory();
            let shard = obs.fork();
            for _ in 0..100 {
                shard.incr(black_box("cpa.traces_absorbed"));
            }
            obs.absorb(&shard.snapshot());
            black_box(obs.snapshot())
        })
    });
}

criterion_group!(benches, observability_overhead);
criterion_main!(benches);
