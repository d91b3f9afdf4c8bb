//! The combined SCA/FI scenario matrix: every fault-injection
//! aggressor operating point re-run under every deployed
//! countermeasure, plus an evaluation of the defender's online
//! detector against each aggressor's duty-cycle signature.
//!
//! Where [`super::defense_matrix`] asks what the countermeasures buy
//! against the *passive* sensing attack, this matrix asks the active
//! question: can a malicious tenant's logic misuse push the shared PDN
//! hard enough to *fault* the victim — and does any deployed defense
//! stop the resulting DFA key recovery? Each cell runs a sharded fault
//! campaign ([`FaultCampaign`]) feeding correct/faulty ciphertext
//! pairs into [`DfaAttack`], and reports faults-per-1k-captures,
//! recovered key material, and the defender's alarm counts.
//!
//! Determinism discipline, same as every other campaign here: the
//! aggressor waveform is a pure function of the fabric tick (no RNG
//! lane to split), shards re-seed through [`FabricConfig::for_shard`],
//! and shard partials merge in shard order — the matrix is
//! bit-identical at any worker count.

use serde::{Deserialize, Serialize};
use slm_aes::soft;
use slm_cpa::{DfaAttack, DfaModel};
use slm_fabric::{
    AesActivity, AggressorSpec, BenignCircuit, DefenseConfig, DetectorConfig, FabricConfig,
    FabricError, MultiTenantFabric,
};
use slm_obs::{MetricsFrame, Obs};
use slm_par::ShardPlan;

use super::defense_matrix::{arm_tag, DefenseArm, DetectorReading};

/// One sharded fault-injection campaign: capture `captures`
/// encryptions on the configured fabric, pair each faulted ciphertext
/// with its software golden, and accumulate DFA votes.
/// (Not serializable: it embeds the full [`FabricConfig`].)
#[derive(Debug, Clone)]
pub struct FaultCampaign {
    /// The fabric under attack — aggressor and defenses included.
    pub config: FabricConfig,
    /// The DFA fault model analysing the pairs.
    pub model: DfaModel,
    /// Total encryptions to capture.
    pub captures: u64,
    /// Captures per shard; the layout depends only on this and the
    /// budget, never on `workers`.
    pub shard_captures: u64,
    /// Worker threads capturing shards (0 = machine parallelism).
    pub workers: usize,
}

impl FaultCampaign {
    /// The deterministic shard layout for this budget.
    pub fn plan(&self) -> ShardPlan {
        ShardPlan::new(self.captures, self.shard_captures.max(1))
    }
}

/// The merged outcome of a fault campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultCampaignOutcome {
    /// The merged DFA accumulator (votes, pair counts, candidates).
    pub dfa: DfaAttack,
    /// Encryptions captured.
    pub captures: u64,
    /// Encryptions whose ciphertext came back corrupted.
    pub faulted: u64,
    /// AES cycles that violated timing across the campaign.
    pub fault_cycles: u64,
    /// Deepest victim-rail voltage seen, volts.
    pub min_victim_v: f64,
    /// Defender detector windows that alarmed during the campaign
    /// (0 when no defense with a detector was deployed).
    pub alarm_windows: u64,
}

impl FaultCampaignOutcome {
    /// Faulted encryptions per thousand captures.
    pub fn faults_per_1k(&self) -> f64 {
        if self.captures == 0 {
            0.0
        } else {
            1e3 * self.faulted as f64 / self.captures as f64
        }
    }
}

/// One shard's partial: a DFA accumulator plus the telemetry slice it
/// observed. All fields merge associatively (sums, min).
struct ShardPartial {
    dfa: DfaAttack,
    captures: u64,
    faulted: u64,
    fault_cycles: u64,
    min_victim_v: f64,
    alarm_windows: u64,
    frame: MetricsFrame,
}

/// Runs a sharded fault campaign. Each shard records into a forked
/// frame (`fault.captures`, `fault.pairs_*` counters under a
/// `fault.shard` span) folded back into `obs` in shard order.
///
/// Each shard keeps its own capture loop rather than the CPA lane
/// kernel: it captures ciphertexts only (no sample window) and feeds
/// a DFA accumulator, not CPA slots.
///
/// # Errors
///
/// Propagates fabric construction failures from any shard.
pub fn run_fault_campaign(
    exp: &FaultCampaign,
    obs: &Obs,
) -> Result<FaultCampaignOutcome, FabricError> {
    let shards = exp.plan().shards();
    let partials = slm_par::par_map(exp.workers, &shards, |spec| -> Result<_, FabricError> {
        let shard_obs = obs.fork();
        let shard_config = exp.config.for_shard(spec.index);
        let mut dfa = DfaAttack::new(exp.model);
        let mut faulted = 0u64;
        let mut fabric = {
            let _span = shard_obs.span("fault.shard");
            MultiTenantFabric::new(&shard_config)?
        };
        for _ in 0..spec.traces {
            let pt = fabric.random_plaintext();
            // Ciphertext-only capture: the DFA path needs no samples,
            // so the window is empty and the BRAM stays idle.
            let rec = fabric.encrypt_windowed(pt, 0..0, &[]);
            let golden = soft::encrypt(&shard_config.aes_key, &pt);
            if rec.ciphertext != golden {
                faulted += 1;
            }
            dfa.add_pair(&golden, &rec.ciphertext);
        }
        shard_obs.add("fault.captures", spec.traces);
        let (accepted, _, discarded) = dfa.pair_counts();
        shard_obs.add("fault.pairs_accepted", accepted);
        shard_obs.add("fault.pairs_discarded", discarded);
        let (fault_cycles, min_v) = match fabric.fault_telemetry() {
            Some(t) => (t.fault_cycles, t.min_victim_v),
            None => (0, fabric.victim_min_voltage()),
        };
        let alarm_windows = fabric.defense_telemetry().map_or(0, |t| t.alarm_windows);
        Ok(ShardPartial {
            dfa,
            captures: spec.traces,
            faulted,
            fault_cycles,
            min_victim_v: min_v,
            alarm_windows,
            frame: shard_obs.snapshot(),
        })
    });

    let mut merged: Option<FaultCampaignOutcome> = None;
    for partial in partials {
        let p = partial?;
        obs.absorb(&p.frame);
        match &mut merged {
            None => {
                merged = Some(FaultCampaignOutcome {
                    dfa: p.dfa,
                    captures: p.captures,
                    faulted: p.faulted,
                    fault_cycles: p.fault_cycles,
                    min_victim_v: p.min_victim_v,
                    alarm_windows: p.alarm_windows,
                });
            }
            Some(out) => {
                out.dfa
                    .try_merge(&p.dfa)
                    .expect("shards share one fault model");
                out.captures += p.captures;
                out.faulted += p.faulted;
                out.fault_cycles += p.fault_cycles;
                out.min_victim_v = out.min_victim_v.min(p.min_victim_v);
                out.alarm_windows += p.alarm_windows;
            }
        }
    }
    Ok(merged.unwrap_or_else(|| FaultCampaignOutcome {
        dfa: DfaAttack::new(exp.model),
        captures: 0,
        faulted: 0,
        fault_cycles: 0,
        min_victim_v: exp.config.pdn.v_nominal,
        alarm_windows: 0,
    }))
}

/// Parameters of a full aggressor-vs-defense matrix run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultMatrixExperiment {
    /// The benign circuit sharing the fabric.
    pub circuit: BenignCircuit,
    /// Aggressor operating points, one matrix row each (`None` = no
    /// aggressor, the fault-free control row).
    pub aggressors: Vec<Option<AggressorSpec>>,
    /// Defense arms, one matrix column each.
    pub arms: Vec<DefenseArm>,
    /// The DFA fault model every cell analyses under.
    pub model: DfaModel,
    /// Captures per cell.
    pub captures: u64,
    /// Captures per shard within a cell.
    pub shard_captures: u64,
    /// Detector operating point for defended cells and the per-row
    /// detector evaluation.
    pub detector: DetectorConfig,
    /// Measure-edge samples per detector-evaluation run.
    pub detector_samples: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Worker threads for the cell fan-out (0 = machine parallelism).
    pub workers: usize,
}

impl FaultMatrixExperiment {
    /// The standard sweep: no aggressor, a weak stealthy burst (below
    /// the fault threshold), the calibrated stealthy burst, and the
    /// blatant tick-rate aggressor — against no defense, the LDO, the
    /// PRNG fence, the adaptive fence, and clock jitter.
    pub fn standard(seed: u64) -> Self {
        FaultMatrixExperiment {
            circuit: BenignCircuit::DualC6288,
            aggressors: vec![
                None,
                Some(AggressorSpec::stealthy(0.6)),
                Some(AggressorSpec::stealthy(3.0)),
                Some(AggressorSpec::tick_rate(3.0)),
            ],
            arms: vec![
                DefenseArm::Undefended,
                DefenseArm::Ldo(0.25),
                DefenseArm::PrngFence(1.5),
                DefenseArm::AdaptiveFence(1.5),
                DefenseArm::ClockJitter(8),
            ],
            model: DfaModel::SingleByte { max_fault_bits: 2 },
            captures: 2_000,
            shard_captures: 250,
            detector: DetectorConfig {
                window_ticks: 4098, // even and divisible by 6
                alarm_threshold: 0.05,
            },
            detector_samples: 8200,
            seed,
            workers: 0,
        }
    }
}

/// One cell of the matrix: the fault campaign's outcome under one
/// (aggressor, defense) pairing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultMatrixCell {
    /// The aggressor row.
    pub aggressor: Option<AggressorSpec>,
    /// The defense column.
    pub arm: DefenseArm,
    /// Faulted encryptions per thousand captures.
    pub faults_per_1k: f64,
    /// DFA pairs accepted / discarded by the avalanche filter.
    pub pairs_accepted: u64,
    /// Pairs rejected as avalanche contamination.
    pub pairs_discarded: u64,
    /// Last-round key bytes unambiguously recovered.
    pub recovered_bytes: usize,
    /// The recovered AES master key, when all 16 bytes resolved.
    pub recovered_key: Option<[u8; 16]>,
    /// Deepest victim-rail voltage seen, volts.
    pub min_victim_v: f64,
    /// Defender detector windows that alarmed during the campaign.
    pub alarm_windows: u64,
}

impl FaultMatrixCell {
    /// Whether the attack in this cell succeeded outright: the full
    /// master key fell out of the DFA.
    pub fn key_recovered(&self) -> bool {
        self.recovered_key.is_some()
    }
}

/// Detector behaviour against one aggressor operating point, measured
/// on a monitor-only fabric (no fence, no LDO — just the alarm plane).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AggressorDetectorReading {
    /// The aggressor row this reading watched.
    pub aggressor: Option<AggressorSpec>,
    /// Alarm counts over the observation span.
    pub reading: DetectorReading,
}

impl AggressorDetectorReading {
    /// Whether the monitoring plane flagged this operating point.
    pub fn detected(&self) -> bool {
        self.reading.alarm_windows > 0
    }
}

/// The full combined SCA/FI matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultMatrix {
    /// Cells in row-major order: for each aggressor, every arm.
    pub cells: Vec<FaultMatrixCell>,
    /// Detector reading per aggressor row, in row order.
    pub detector: Vec<AggressorDetectorReading>,
}

impl FaultMatrix {
    /// The cell for an (aggressor, arm) pairing, if it ran.
    pub fn cell(
        &self,
        aggressor: Option<AggressorSpec>,
        arm: &DefenseArm,
    ) -> Option<&FaultMatrixCell> {
        self.cells
            .iter()
            .find(|c| c.aggressor == aggressor && c.arm == *arm)
    }

    /// The detector reading for an aggressor row, if it ran.
    pub fn detector_for(
        &self,
        aggressor: Option<AggressorSpec>,
    ) -> Option<&AggressorDetectorReading> {
        self.detector.iter().find(|d| d.aggressor == aggressor)
    }
}

/// A stable per-row seed lane: 0 for the aggressor-free control row,
/// the content-derived spec tag otherwise.
fn aggressor_tag(aggressor: &Option<AggressorSpec>) -> u64 {
    aggressor.as_ref().map_or(0, AggressorSpec::tag)
}

/// Runs the aggressor-vs-defense fault matrix. Each cell runs under a
/// `fault.cell` span in a forked recorder, frames fold back in
/// row-major cell order, and the detector sweep records per-row alarm
/// counters — merged metrics are worker-count invariant. Pass
/// [`Obs::null`] to record nothing.
///
/// # Errors
///
/// Propagates fabric construction failures from any cell.
pub fn fault_matrix(exp: &FaultMatrixExperiment, obs: &Obs) -> Result<FaultMatrix, FabricError> {
    let tasks: Vec<(Option<AggressorSpec>, DefenseArm)> = exp
        .aggressors
        .iter()
        .flat_map(|agg| exp.arms.iter().map(move |arm| (*agg, *arm)))
        .collect();

    let cells: Vec<Result<(FaultMatrixCell, MetricsFrame), FabricError>> =
        slm_par::par_map(exp.workers, &tasks, |(aggressor, arm)| {
            let cell_obs = if obs.enabled() {
                obs.fork()
            } else {
                Obs::memory()
            };
            // Each cell gets its own seed lane so inserting a row or
            // column never re-seeds its neighbours.
            let lane = aggressor_tag(aggressor) ^ arm_tag(arm);
            let seed = slm_par::mix_seed(exp.seed, lane);
            let config = FabricConfig {
                benign: exp.circuit,
                seed,
                aggressor: *aggressor,
                defense: arm.deployment(exp.detector, slm_par::mix_seed(seed, 0xdef)),
                ..FabricConfig::default()
            };
            let campaign = FaultCampaign {
                config,
                model: exp.model,
                captures: exp.captures,
                shard_captures: exp.shard_captures,
                // Shards run serially inside the cell; the matrix
                // parallelism is the cell fan-out.
                workers: 1,
            };
            let outcome = {
                let _span = cell_obs.span("fault.cell");
                run_fault_campaign(&campaign, &cell_obs)?
            };
            cell_obs.incr("fault.cells");
            let (accepted, _, discarded) = outcome.dfa.pair_counts();
            let cell = FaultMatrixCell {
                aggressor: *aggressor,
                arm: *arm,
                faults_per_1k: outcome.faults_per_1k(),
                pairs_accepted: accepted,
                pairs_discarded: discarded,
                recovered_bytes: outcome.dfa.recovered_bytes(),
                recovered_key: outcome.dfa.recovered_master_key(),
                min_victim_v: outcome.min_victim_v,
                alarm_windows: outcome.alarm_windows,
            };
            Ok((cell, cell_obs.snapshot()))
        });

    let mut out = Vec::with_capacity(tasks.len());
    for cell in cells {
        let (cell, frame) = cell?;
        obs.absorb(&frame);
        out.push(cell);
    }

    let detector = {
        let _span = obs.span("fault.detector_eval");
        evaluate_detector(exp)?
    };
    if obs.enabled() {
        for row in &detector {
            if row.detected() {
                obs.incr("fault.detector_hits");
            }
        }
    }
    Ok(FaultMatrix {
        cells: out,
        detector,
    })
}

/// Runs the defender's detector against each aggressor row on a
/// monitor-only fabric: no fence, no LDO, balanced tenant stimulus —
/// the only anomalous signal is the aggressor's duty cycle reaching
/// the victim rail through the shared PDN.
fn evaluate_detector(
    exp: &FaultMatrixExperiment,
) -> Result<Vec<AggressorDetectorReading>, FabricError> {
    exp.aggressors
        .iter()
        .map(|aggressor| {
            let lane = 0xde7 ^ aggressor_tag(aggressor);
            let config = FabricConfig {
                benign: exp.circuit,
                seed: exp.seed,
                stimulus_alternation: 0.0,
                aggressor: *aggressor,
                defense: Some(DefenseConfig {
                    detector: exp.detector,
                    ..DefenseConfig::monitor_only(slm_par::mix_seed(exp.seed, lane))
                }),
                ..FabricConfig::default()
            };
            let mut fabric = MultiTenantFabric::new(&config)?;
            fabric.run_activity(None, AesActivity::Continuous, exp.detector_samples);
            let t = fabric.defense_telemetry().expect("defense deployed");
            Ok(AggressorDetectorReading {
                aggressor: *aggressor,
                reading: DetectorReading {
                    windows: t.windows,
                    alarm_windows: t.alarm_windows,
                    alarm_events: t.alarm_events,
                    max_score: t.max_score,
                },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_exp() -> FaultMatrixExperiment {
        FaultMatrixExperiment {
            captures: 300,
            shard_captures: 75,
            ..FaultMatrixExperiment::standard(11)
        }
    }

    #[test]
    fn campaign_counts_are_consistent() {
        let exp = quick_exp();
        let campaign = FaultCampaign {
            config: FabricConfig {
                benign: exp.circuit,
                seed: 3,
                aggressor: Some(AggressorSpec::stealthy(3.0)),
                ..FabricConfig::default()
            },
            model: exp.model,
            captures: 200,
            shard_captures: 50,
            workers: 1,
        };
        let out = run_fault_campaign(&campaign, &Obs::null()).unwrap();
        assert_eq!(out.captures, 200);
        let (accepted, unfaulted, discarded) = out.dfa.pair_counts();
        assert_eq!(accepted + unfaulted + discarded, 200);
        assert_eq!(out.faulted, accepted + discarded);
        assert!(out.faulted > 0, "calibrated aggressor must fault");
        assert!(out.min_victim_v < 0.953);
    }

    #[test]
    fn aggressor_free_campaign_never_faults() {
        let exp = quick_exp();
        let campaign = FaultCampaign {
            config: FabricConfig {
                benign: exp.circuit,
                seed: 3,
                ..FabricConfig::default()
            },
            model: exp.model,
            captures: 60,
            shard_captures: 20,
            workers: 1,
        };
        let out = run_fault_campaign(&campaign, &Obs::null()).unwrap();
        assert_eq!(out.faulted, 0);
        assert_eq!(out.fault_cycles, 0);
        assert_eq!(out.dfa.recovered_bytes(), 0);
    }

    #[test]
    fn matrix_geometry_and_control_rows() {
        let mut exp = quick_exp();
        exp.aggressors = vec![None, Some(AggressorSpec::stealthy(3.0))];
        exp.arms = vec![DefenseArm::Undefended, DefenseArm::Ldo(0.25)];
        exp.captures = 150;
        exp.shard_captures = 50;
        let matrix = fault_matrix(&exp, &Obs::null()).unwrap();
        assert_eq!(matrix.cells.len(), 4);
        assert_eq!(matrix.detector.len(), 2);
        // The aggressor-free row is fault-free everywhere.
        for arm in &exp.arms {
            let cell = matrix.cell(None, arm).unwrap();
            assert_eq!(cell.faults_per_1k, 0.0);
            assert_eq!(cell.recovered_bytes, 0);
        }
        // The undefended aggressor cell faults; the LDO cell does not.
        let hot = matrix
            .cell(exp.aggressors[1], &DefenseArm::Undefended)
            .unwrap();
        assert!(hot.faults_per_1k > 0.0);
        let cold = matrix
            .cell(exp.aggressors[1], &DefenseArm::Ldo(0.25))
            .unwrap();
        assert_eq!(cold.faults_per_1k, 0.0, "LDO must suppress faults");
    }
}
