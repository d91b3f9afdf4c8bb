//! Sharded parallel CPA campaigns.
//!
//! The serial [`run_cpa`](super::cpa::run_cpa) captures every trace on
//! one fabric whose electrical state threads through the whole
//! campaign; that stream cannot be split without changing the traces.
//! The parallel runner instead splits the *budget* into deterministic
//! shards ([`ShardPlan`]): each shard runs the CPA lane kernel on its
//! own fabric, re-seeded per shard ([`FabricConfig::for_shard`]), so
//! shard `i` produces the same traces no matter which worker runs it
//! or how many workers exist. Shard partials are mergeable CPA
//! accumulators ([`slm_cpa::CpaAttack::merge`]); folding them in shard
//! order makes the whole campaign — progress curves, MTD, recovered
//! byte — bit-identical at any worker count. The serial reference for
//! a parallel campaign is therefore `workers = 1` over the same plan,
//! not the single-fabric [`run_cpa`](super::cpa::run_cpa) stream.
//!
//! Shards run on the experiments' one observed fan-out (`fan_out`):
//! each shard forks the recorder, runs inside one `cpa.shard` span on
//! its fork, its frame folds back in shard order, and the first
//! failing shard in shard order is the error.
//!
//! The pilot phase (bits of interest, endpoint selection) is not
//! sharded: it runs once on the base configuration, exactly as the
//! serial runner's pilot does, and every shard inherits its decisions.
//! A source that takes nothing from the pilot (`TdcAll`, a forced TDC
//! tap) runs none.

use super::cpa::{
    assemble_result, campaign_config, lane_setup, record_fabric_telemetry, run_lane, CampaignSetup,
    CheckpointGrid, CpaExperiment, CpaResult,
};
use super::fan_out::fan_out;
use serde::{Deserialize, Serialize};
use slm_cpa::{leader_margin, CpaAttack, ProgressPoint};
use slm_fabric::{FabricConfig, FabricError, MultiTenantFabric};
use slm_obs::Obs;
use slm_par::{ShardPlan, ShardSpec};

/// A sharded, multi-threaded CPA campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParallelCpa {
    /// The campaign parameters (budget, source, seed, checkpoints).
    pub base: CpaExperiment,
    /// Traces per shard. The shard layout depends only on this and the
    /// budget — never on `workers` — so changing the thread count can
    /// never change the result. Smaller shards balance better across
    /// workers; larger shards amortize fabric construction.
    pub shard_traces: u64,
    /// Worker threads capturing shards (0 = machine parallelism).
    pub workers: usize,
}

impl ParallelCpa {
    /// Wraps a campaign with a shard size of one sixteenth of the
    /// budget (at least 1) — enough shards to keep 8 workers busy with
    /// dynamic balancing — and machine parallelism. The size rounds
    /// *up* (`div_ceil`), so the plan never grows a seventeenth,
    /// degenerately small trailing shard the way floor division did for
    /// budgets that aren't multiples of 16.
    pub fn new(base: CpaExperiment) -> Self {
        ParallelCpa {
            base,
            shard_traces: base.traces.div_ceil(16).max(1),
            workers: 0,
        }
    }

    /// Sets the worker count (0 = machine parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The shard layout this campaign will execute.
    pub fn plan(&self) -> ShardPlan {
        ShardPlan::new(self.base.traces, self.shard_traces)
    }
}

/// Per-shard capture output: accumulators snapshotted at every global
/// checkpoint that falls inside the shard, plus the finished partials.
struct ShardPartial {
    snapshots: Vec<(u64, Vec<CpaAttack>)>,
    attacks: Vec<CpaAttack>,
}

/// Captures one shard: the lane kernel on the shard's own re-seeded
/// fabric over the shard's global trace range, snapshotting the
/// accumulators at every global checkpoint inside it. Records into the
/// shard's fork `obs`.
fn capture_shard(
    setup: &CampaignSetup,
    config: &FabricConfig,
    spec: &ShardSpec,
    grid: CheckpointGrid,
    obs: &Obs,
) -> Result<ShardPartial, FabricError> {
    let mut snapshots: Vec<(u64, Vec<CpaAttack>)> = Vec::new();
    let mut fabric = {
        let _build_span = obs.span("cpa.build");
        MultiTenantFabric::new(&config.for_shard(spec.index))?
    };
    // A progress checkpoint is a *global* trace count; the shard holding
    // it snapshots its local state there, and the caller's prefix-merge
    // completes it.
    let range = spec.start..spec.start + spec.traces;
    let attacks = run_lane(&mut fabric, setup, range, grid, obs, |t, attacks| {
        snapshots.push((t, attacks.to_vec()));
    });
    record_fabric_telemetry(&fabric, obs);
    Ok(ShardPartial { snapshots, attacks })
}

/// Runs a sharded CPA campaign on a worker pool.
///
/// `tweak` edits the base fabric configuration once, before the pilot
/// and before shard re-seeding (pass `|_| {}` for none). Each shard
/// runs under a `cpa.shard` span on its own fork of `obs`; the shard
/// frames fold back in shard index order, so the merged metrics — like
/// the campaign result itself — are bit-identical at any worker count.
///
/// # Errors
///
/// Propagates fabric construction failures.
pub fn run_cpa_parallel(
    exp: &ParallelCpa,
    tweak: impl FnOnce(&mut FabricConfig),
    obs: &Obs,
) -> Result<CpaResult, FabricError> {
    let base = &exp.base;
    let config = campaign_config(base, tweak);
    let grid = CheckpointGrid::of(base);
    let shards = exp.plan().shards();

    // The pilot is shared: one run on the base config decides endpoint
    // selection and post-processing for every shard.
    let setup = lane_setup(base, &config, obs, "cpa.pilot")?;
    let partials = fan_out(exp.workers, &shards, "cpa.shard", obs, |spec, shard_obs| {
        capture_shard(&setup, &config, spec, grid, shard_obs)
    })?;

    // Fold shards in index order. When shard i holds a checkpoint at
    // global trace T, the campaign state at T is (all shards < i,
    // fully absorbed) ⊕ (shard i's snapshot at T): a prefix-merge.
    // Both operands depend only on the plan, so the progress curve is
    // worker-count invariant.
    let mut merged = setup.fresh_attacks();
    let mut progress_per: Vec<Vec<ProgressPoint>> =
        vec![Vec::with_capacity(base.checkpoints); setup.single_bit_slots];
    for partial in partials {
        for (global, snapshot) in &partial.snapshots {
            let _eval_span = obs.span("cpa.eval");
            for (slot, snap) in snapshot.iter().enumerate() {
                let mut at_checkpoint = merged[slot].clone();
                at_checkpoint.merge(snap);
                let peaks = at_checkpoint.peak_correlations().to_vec();
                if slot == 0 {
                    obs.observe("cpa.checkpoint_margin", leader_margin(&peaks));
                }
                progress_per[slot].push(ProgressPoint {
                    traces: *global,
                    peak_corr: peaks,
                });
            }
        }
        for (acc, part) in merged.iter_mut().zip(&partial.attacks) {
            acc.merge(part);
            obs.incr("cpa.merge_events");
            obs.add("cpa.traces_merged", part.traces());
        }
    }

    Ok(assemble_result(&setup, &merged, progress_per, base.traces))
}

/// [`run_cpa_parallel`] without a configuration tweak, under the name
/// the `bench/` package calls.
#[doc(hidden)]
pub fn run_cpa_parallel_recorded(exp: &ParallelCpa, obs: &Obs) -> Result<CpaResult, FabricError> {
    run_cpa_parallel(exp, |_| {}, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SensorSource;
    use slm_fabric::BenignCircuit;

    #[test]
    fn parallel_campaign_is_worker_count_invariant() {
        // The whole CpaResult — progress curve, MTD, peaks — must be
        // bit-identical (PartialEq on every f64) at any worker count.
        let run = |workers: usize| {
            let exp = ParallelCpa {
                base: CpaExperiment {
                    circuit: BenignCircuit::DualC6288,
                    source: SensorSource::TdcAll,
                    traces: 600,
                    checkpoints: 3,
                    pilot_traces: 40,
                    seed: 77,
                },
                shard_traces: 175,
                workers,
            };
            run_cpa_parallel(&exp, |_| {}, &Obs::null()).unwrap()
        };
        let serial = run(1);
        let wide = run(3);
        assert_eq!(serial, wide);
        assert_eq!(serial.traces, 600);
        // 600/3 = 200-trace checkpoints plus the final partial shard
        // boundary at 600 (= a checkpoint) ⇒ 3 progress points.
        assert_eq!(serial.progress.len(), 3);
        assert_eq!(serial.progress.last().unwrap().traces, 600);
    }

    #[test]
    fn parallel_tdc_campaign_recovers_key() {
        // (seed, checkpoints, pilot traces, shard traces, MTD bound).
        // The second case is the benchmark's 40-trace-pilot shape; a
        // TdcAll campaign runs no pilot, so it must disclose on the
        // shards alone.
        for (seed, checkpoints, pilot_traces, shard_traces, mtd_bound) in
            [(7, 8, 100, 500, 4_000), (23, 4, 40, 250, 3_000)]
        {
            let exp = ParallelCpa {
                base: CpaExperiment {
                    circuit: BenignCircuit::DualC6288,
                    source: SensorSource::TdcAll,
                    traces: 4_000,
                    checkpoints,
                    pilot_traces,
                    seed,
                },
                shard_traces,
                workers: 0,
            };
            let r = run_cpa_parallel(&exp, |_| {}, &Obs::null()).unwrap();
            assert_eq!(
                r.recovered_key_byte,
                Some(r.correct_key_byte),
                "seed {seed}"
            );
            let mtd = r.mtd.expect("TDC should disclose the key");
            assert!(
                mtd <= mtd_bound,
                "seed {seed}: MTD {mtd} exceeds {mtd_bound}"
            );
            assert_eq!(r.final_peaks.len(), 256);
        }
    }

    #[test]
    fn recorded_parallel_metrics_are_worker_count_invariant() {
        let run = |workers: usize| {
            let exp = ParallelCpa {
                base: CpaExperiment {
                    circuit: BenignCircuit::DualC6288,
                    source: SensorSource::TdcAll,
                    traces: 300,
                    checkpoints: 3,
                    pilot_traces: 20,
                    seed: 13,
                },
                shard_traces: 75,
                workers,
            };
            let obs = Obs::memory();
            let result = run_cpa_parallel(&exp, |_| {}, &obs).unwrap();
            (result, obs.snapshot())
        };
        let (r1, f1) = run(1);
        let (r4, f4) = run(4);
        assert_eq!(r1, r4);
        // Wall-clock span durations differ; everything else — counters,
        // gauges, histograms, span counts — must be bit-identical.
        assert_eq!(f1.deterministic(), f4.deterministic());
        assert_eq!(f1.counter("cpa.traces_absorbed"), 300);
        assert_eq!(f1.spans["cpa.shard"].count, 4);
        // TdcAll takes nothing from a pilot, so none runs.
        assert!(f1.span("cpa.pilot").is_none());
        assert_eq!(f1.counter("cpa.merge_events"), 4);
        assert_eq!(f1.counter("cpa.traces_merged"), 300);
        assert_eq!(f1.histograms["cpa.checkpoint_margin"].count, 3);
    }

    #[test]
    fn default_shard_size_covers_budget() {
        let base = CpaExperiment {
            circuit: BenignCircuit::Alu192,
            source: SensorSource::TdcAll,
            traces: 1000,
            checkpoints: 4,
            pilot_traces: 10,
            seed: 1,
        };
        let exp = ParallelCpa::new(base).with_workers(2);
        // div_ceil: 1000 traces split 16 ways is 63-trace shards, not
        // the 62 floor division gave (which grew a degenerate 17th
        // shard of 8 traces).
        assert_eq!(exp.shard_traces, 63);
        let plan = exp.plan();
        assert_eq!(plan.total, 1000);
        let shards = plan.shards();
        assert_eq!(shards.len(), 16);
        assert_eq!(shards.iter().map(|s| s.traces).sum::<u64>(), 1000);
        assert!(shards.iter().all(|s| s.traces > 0), "no empty shards");
    }
}
