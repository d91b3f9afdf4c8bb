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
//! The pilot phase (bits of interest, endpoint selection) is not
//! sharded: it runs once on the base configuration, exactly as the
//! serial runner's pilot does, and every shard inherits its decisions.

use super::cpa::{
    assemble_result, campaign_config, geometry_setup, pilot_independent, pilot_setup,
    record_fabric_telemetry, run_lane, CampaignSetup, CheckpointGrid, CpaExperiment, CpaResult,
};
use serde::{Deserialize, Serialize};
use slm_cpa::{leader_margin, CpaAttack, ProgressPoint};
use slm_fabric::{FabricConfig, FabricError, MultiTenantFabric};
use slm_obs::{MetricsFrame, Obs};
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
/// checkpoint that falls inside the shard, plus the finished partials
/// and the shard's private metrics frame (folded in shard order, so
/// merged metrics are worker-count invariant too).
struct ShardPartial {
    snapshots: Vec<(u64, Vec<CpaAttack>)>,
    attacks: Vec<CpaAttack>,
    frame: MetricsFrame,
}

/// Captures one shard: the lane kernel on the shard's own re-seeded
/// fabric over the shard's global trace range, snapshotting the
/// accumulators at every global checkpoint inside it. Records into a
/// private fork of `obs`; the frame travels with the partial and is
/// folded in shard order by the caller.
fn capture_shard(
    setup: &CampaignSetup,
    config: &FabricConfig,
    spec: &ShardSpec,
    grid: CheckpointGrid,
    obs: &Obs,
) -> Result<ShardPartial, FabricError> {
    let shard_obs = obs.fork();
    let mut snapshots: Vec<(u64, Vec<CpaAttack>)> = Vec::new();
    let (fabric, attacks) = {
        let _span = shard_obs.span("cpa.shard");
        let mut fabric = {
            let _build_span = shard_obs.span("cpa.build");
            MultiTenantFabric::new(&config.for_shard(spec.index))?
        };
        // A progress checkpoint is a *global* trace count; the shard
        // holding it snapshots its local state there, and the caller's
        // prefix-merge completes it.
        let range = spec.start..spec.start + spec.traces;
        let attacks = run_lane(&mut fabric, setup, range, grid, &shard_obs, |t, attacks| {
            snapshots.push((t, attacks.to_vec()));
        });
        (fabric, attacks)
    };
    record_fabric_telemetry(&fabric, &shard_obs);
    Ok(ShardPartial {
        snapshots,
        attacks,
        frame: shard_obs.snapshot(),
    })
}

/// Runs a sharded CPA campaign on a worker pool.
///
/// `tweak` edits the base fabric configuration once, before the pilot
/// and before shard re-seeding (pass `|_| {}` for none). Each shard
/// records into a forked sibling of `obs`; the shard frames are folded
/// back in shard index order, so the merged metrics — like the
/// campaign result itself — are bit-identical at any worker count.
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
    // selection and post-processing for every shard. When the source
    // doesn't depend on pilot statistics, the shards start from the
    // config-derived geometry right away and the pilot runs
    // concurrently as one more task on the pool — it no longer
    // serializes in front of the shards. Both arms make identical
    // capture decisions, so the result is the same either way.
    let (setup, partials): (CampaignSetup, Vec<Result<ShardPartial, FabricError>>) =
        if pilot_independent(base.source) {
            enum Out {
                Pilot(Box<CampaignSetup>, MetricsFrame),
                Shard(ShardPartial),
            }
            let geometry = geometry_setup(base, &config)?;
            let tasks: Vec<Option<&ShardSpec>> = std::iter::once(None)
                .chain(shards.iter().map(Some))
                .collect();
            let outs: Vec<Result<Out, FabricError>> =
                slm_par::par_map(exp.workers, &tasks, |task| match task {
                    None => {
                        let pilot_obs = obs.fork();
                        let (_pilot_fabric, full) = {
                            let _pilot_span = pilot_obs.span("cpa.pilot");
                            pilot_setup(base, &config)?
                        };
                        Ok(Out::Pilot(Box::new(full), pilot_obs.snapshot()))
                    }
                    Some(spec) => {
                        capture_shard(&geometry, &config, spec, grid, obs).map(Out::Shard)
                    }
                });
            let mut outs = outs.into_iter();
            let (full_setup, pilot_frame) = match outs.next().expect("task 0 is the pilot")? {
                Out::Pilot(setup, frame) => (*setup, frame),
                Out::Shard(_) => unreachable!("task 0 is the pilot"),
            };
            // Pilot metrics fold before shard metrics, matching the
            // serial-pilot arm's recording order.
            obs.absorb(&pilot_frame);
            let partials = outs
                .map(|o| {
                    o.map(|o| match o {
                        Out::Shard(p) => p,
                        Out::Pilot(..) => unreachable!("only task 0 is the pilot"),
                    })
                })
                .collect();
            (full_setup, partials)
        } else {
            let (_pilot_fabric, setup) = {
                let _pilot_span = obs.span("cpa.pilot");
                pilot_setup(base, &config)?
            };
            let partials = slm_par::par_map(exp.workers, &shards, |spec| {
                capture_shard(&setup, &config, spec, grid, obs)
            });
            (setup, partials)
        };

    // Fold shards in index order. When shard i holds a checkpoint at
    // global trace T, the campaign state at T is (all shards < i,
    // fully absorbed) ⊕ (shard i's snapshot at T): a prefix-merge.
    // Both operands depend only on the plan, so the progress curve is
    // worker-count invariant.
    let mut merged = setup.fresh_attacks();
    let mut progress_per: Vec<Vec<ProgressPoint>> =
        vec![Vec::with_capacity(base.checkpoints); setup.single_bit_slots];
    for partial in partials {
        let partial = partial?;
        obs.absorb(&partial.frame);
        for (global, snapshot) in &partial.snapshots {
            let _eval_span = obs.span("cpa.eval");
            for (slot, snap) in snapshot.iter().enumerate() {
                let mut at_checkpoint = merged[slot].clone();
                at_checkpoint.merge(snap);
                let peaks = at_checkpoint.peak_correlations_par(exp.workers).to_vec();
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
            acc.merge_recorded(part, obs);
        }
    }

    Ok(assemble_result(
        &setup,
        &merged,
        progress_per,
        exp.workers,
        base.traces,
    ))
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
        let exp = ParallelCpa {
            base: CpaExperiment {
                circuit: BenignCircuit::DualC6288,
                source: SensorSource::TdcAll,
                traces: 4_000,
                checkpoints: 8,
                pilot_traces: 100,
                seed: 7,
            },
            shard_traces: 500,
            workers: 0,
        };
        let r = run_cpa_parallel(&exp, |_| {}, &Obs::null()).unwrap();
        assert_eq!(r.recovered_key_byte, Some(r.correct_key_byte));
        let mtd = r.mtd.expect("TDC should disclose the key");
        assert!(mtd <= 4_000, "MTD {mtd} should be within budget");
        assert_eq!(r.final_peaks.len(), 256);
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
        assert_eq!(f1.spans["cpa.pilot"].count, 1);
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
