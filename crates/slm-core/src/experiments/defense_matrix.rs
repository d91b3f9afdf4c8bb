//! The attack-vs-defense matrix: the same CPA campaign re-run under
//! every deployed countermeasure, plus an evaluation of the defender's
//! online detector against the attacker's stimulus signature.
//!
//! This is the defender's view of the paper: given that the stealthy
//! sensor passes every *structural* check, what do the *runtime*
//! countermeasures actually buy? Each matrix cell answers with the
//! attack's measurements-to-disclosure under one defense arm; the
//! detector evaluation answers whether the monitoring plane can tell an
//! attacking tenant from a benign one at all.
//!
//! Cells are independent serial campaigns fanned out over the
//! [`slm_par`] worker pool. Each cell's metrics record into a forked
//! recorder folded back in arm order, so the whole matrix — results
//! and telemetry — is bit-identical at any worker count.

use serde::{Deserialize, Serialize};
use slm_fabric::{
    AdaptivePolicy, AesActivity, DefenseConfig, DetectorConfig, FabricConfig, FabricError,
    FenceMode, FenceSpec, LdoConfig, MultiTenantFabric,
};
use slm_obs::{MetricsFrame, Obs};

use super::cpa::{run_cpa, CpaExperiment, CpaResult};

/// One countermeasure arm of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DefenseArm {
    /// No defense: the paper's baseline attack.
    Undefended,
    /// Constant-current fence at the given draw, amps (the control arm
    /// — correlation is offset-invariant, so this should buy ~nothing).
    ConstantFence(f64),
    /// PRNG-modulated fence with the given peak, amps.
    PrngFence(f64),
    /// SHIELD-style sensor-triggered fence with the given peak, amps.
    AdaptiveFence(f64),
    /// Supply regulation passing this fraction of cross-region
    /// coupling.
    Ldo(f64),
    /// Victim clock-phase randomization up to this many AES cycles.
    ClockJitter(u32),
}

impl DefenseArm {
    /// Short label for reports and logs.
    pub fn label(&self) -> String {
        match self {
            DefenseArm::Undefended => "undefended".into(),
            DefenseArm::ConstantFence(a) => format!("constant-fence({a}A)"),
            DefenseArm::PrngFence(a) => format!("prng-fence({a}A)"),
            DefenseArm::AdaptiveFence(a) => format!("adaptive-fence({a}A)"),
            DefenseArm::Ldo(r) => format!("ldo({r})"),
            DefenseArm::ClockJitter(c) => format!("clock-jitter({c})"),
        }
    }

    /// Builds the defense deployment for this arm, or `None` for the
    /// undefended baseline.
    pub fn deployment(&self, detector: DetectorConfig, seed: u64) -> Option<DefenseConfig> {
        let mut defense = DefenseConfig {
            detector,
            ..DefenseConfig::default()
        };
        defense.seed = seed;
        match *self {
            DefenseArm::Undefended => return None,
            DefenseArm::ConstantFence(a) => defense.fence = Some(FenceSpec::constant(a)),
            DefenseArm::PrngFence(a) => defense.fence = Some(FenceSpec::prng(a)),
            DefenseArm::AdaptiveFence(a) => {
                defense.fence = Some(FenceSpec {
                    mode: FenceMode::Adaptive(AdaptivePolicy {
                        trigger_score: detector.alarm_threshold,
                        release_score: detector.alarm_threshold * 0.5,
                        idle_fraction: 0.1,
                    }),
                    peak_current_a: a,
                });
            }
            DefenseArm::Ldo(r) => defense.ldo = Some(LdoConfig { residual: r }),
            DefenseArm::ClockJitter(c) => {
                defense.clock_jitter = Some(slm_fabric::ClockJitterConfig { max_cycles: c });
            }
        }
        Some(defense)
    }
}

/// Parameters of a full attack-vs-defense matrix run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenseMatrixExperiment {
    /// The attack campaign every cell re-runs.
    pub base: CpaExperiment,
    /// The defense arms, one matrix cell each. Keep
    /// [`DefenseArm::Undefended`] first and PRNG fences in ascending
    /// peak order for [`DefenseMatrix::fence_mtd_monotonic`].
    pub arms: Vec<DefenseArm>,
    /// Reset/measure current asymmetry of the attacker's stimulus pair
    /// (the detector's target signature).
    pub stimulus_alternation: f64,
    /// Detector window and alarm threshold used in every defended cell
    /// and in the detector evaluation.
    pub detector: DetectorConfig,
    /// Measure-edge samples per detector-evaluation run.
    pub detector_samples: usize,
    /// Worker threads for the cell fan-out (0 = machine parallelism).
    pub workers: usize,
}

impl DefenseMatrixExperiment {
    /// The default matrix over a base campaign: undefended baseline, a
    /// constant-fence control, a PRNG fence strength sweep, the
    /// adaptive fence, supply regulation, and clock jitter.
    #[cfg(test)]
    fn standard(base: CpaExperiment) -> Self {
        DefenseMatrixExperiment {
            base,
            arms: vec![
                DefenseArm::Undefended,
                DefenseArm::ConstantFence(1.5),
                DefenseArm::PrngFence(0.4),
                DefenseArm::PrngFence(1.5),
                DefenseArm::AdaptiveFence(1.5),
                DefenseArm::Ldo(0.25),
                DefenseArm::ClockJitter(8),
            ],
            stimulus_alternation: 0.3,
            detector: DetectorConfig {
                window_ticks: 4098, // even and divisible by 6
                alarm_threshold: 0.05,
            },
            detector_samples: 8200,
            workers: 0,
        }
    }
}

/// One cell of the matrix: the campaign outcome under one defense arm,
/// with the defense-side telemetry of that run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixCell {
    /// The arm this cell deployed.
    pub arm: DefenseArm,
    /// The attack outcome under it.
    pub result: CpaResult,
    /// Mean fence current over the campaign, amps (the defense's power
    /// overhead).
    pub injected_mean_a: f64,
    /// Detector windows that alarmed during the campaign.
    pub alarm_windows: u64,
}

impl MatrixCell {
    /// The cell's effective MTD for ordering: disclosed campaigns rank
    /// by trace count, undisclosed ones rank past every budget.
    fn effective_mtd(&self) -> u64 {
        self.result.mtd.unwrap_or(u64::MAX)
    }
}

/// Detector operating point measured against one tenant: alarm counts
/// over a fixed observation span.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorReading {
    /// Detector windows completed.
    pub windows: u64,
    /// Windows at or above the alarm threshold.
    pub alarm_windows: u64,
    /// Distinct alarm events.
    pub alarm_events: u64,
    /// Largest window score, taps.
    pub max_score: f64,
}

/// ROC-style evaluation of the anomaly detector: hits against the
/// alternating-stimulus attacker vs false alarms against a benign
/// constant-activity tenant, over the same observation span.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorEval {
    /// Reading with the attacker tenant active.
    pub attacker: DetectorReading,
    /// Reading with only benign activity (balanced stimulus).
    pub benign: DetectorReading,
}

impl DetectorEval {
    /// Whether the detector separates the two tenants at this operating
    /// point: at least one hit, zero false alarms.
    pub fn discriminates(&self) -> bool {
        self.attacker.alarm_windows > 0 && self.benign.alarm_windows == 0
    }
}

/// The full matrix: one cell per arm plus the detector evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenseMatrix {
    /// Cells in the experiment's arm order.
    pub cells: Vec<MatrixCell>,
    /// Detector hits/false alarms at the experiment's operating point.
    pub detector: DetectorEval,
}

impl DefenseMatrix {
    /// The cell for an arm, if it ran.
    pub fn cell(&self, arm: &DefenseArm) -> Option<&MatrixCell> {
        self.cells.iter().find(|c| c.arm == *arm)
    }

    /// Whether MTD degrades monotonically along the active-fence
    /// strength sweep: the undefended baseline (strength 0) and every
    /// [`DefenseArm::PrngFence`] cell, in ascending peak order, must
    /// have non-decreasing effective MTD.
    pub fn fence_mtd_monotonic(&self) -> bool {
        let mut sweep: Vec<(f64, u64)> = self
            .cells
            .iter()
            .filter_map(|c| match c.arm {
                DefenseArm::Undefended => Some((0.0, c.effective_mtd())),
                DefenseArm::PrngFence(a) => Some((a, c.effective_mtd())),
                _ => None,
            })
            .collect();
        sweep.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite fence strengths"));
        sweep.windows(2).all(|w| w[0].1 <= w[1].1)
    }
}

/// Runs the attack-vs-defense matrix. Each cell runs under a
/// `defense.cell` span in a forked recorder (emitting the campaign's
/// `cpa.*` stream plus `defense.*` injected-current gauges and detection
/// counters), and frames fold back in arm order so merged metrics are
/// worker-count invariant. Pass [`Obs::null`] to record nothing.
///
/// # Errors
///
/// Propagates fabric construction failures from any cell.
pub fn defense_matrix(
    exp: &DefenseMatrixExperiment,
    obs: &Obs,
) -> Result<DefenseMatrix, FabricError> {
    let cells: Vec<Result<(MatrixCell, MetricsFrame), FabricError>> =
        slm_par::par_map(exp.workers, &exp.arms, |arm| {
            // Cells always record into a live frame — the matrix report
            // needs the defense telemetry even when the caller passed a
            // null handle. With an enabled handle the cell records into
            // a forked sibling instead, folded back in arm order below.
            let cell_obs = if obs.enabled() {
                obs.fork()
            } else {
                Obs::memory()
            };
            let deployment =
                arm.deployment(exp.detector, slm_par::mix_seed(exp.base.seed, arm_tag(arm)));
            let result = {
                let _span = cell_obs.span("defense.cell");
                run_cpa(
                    &exp.base,
                    |config| {
                        config.stimulus_alternation = exp.stimulus_alternation;
                        config.defense = deployment;
                    },
                    &cell_obs,
                )?
            };
            cell_obs.incr("defense.cells");
            // The campaign loop already emitted the defense gauges; the
            // cell keeps the two headline numbers for the report.
            let frame = cell_obs.snapshot();
            let cell = MatrixCell {
                arm: *arm,
                result,
                injected_mean_a: frame
                    .gauges
                    .get("defense.injected_mean_a")
                    .map_or(0.0, |g| g.last),
                alarm_windows: frame.counter("defense.alarm_windows"),
            };
            Ok((cell, frame))
        });

    let mut out = Vec::with_capacity(exp.arms.len());
    for cell in cells {
        let (cell, frame) = cell?;
        obs.absorb(&frame);
        out.push(cell);
    }

    let detector = {
        let _span = obs.span("defense.detector_eval");
        evaluate_detector(exp)?
    };
    if obs.enabled() {
        obs.add("defense.detector_hits", detector.attacker.alarm_windows);
        obs.add(
            "defense.detector_false_alarms",
            detector.benign.alarm_windows,
        );
        obs.gauge(
            "defense.detector_attacker_score",
            detector.attacker.max_score,
        );
        obs.gauge("defense.detector_benign_score", detector.benign.max_score);
    }
    Ok(DefenseMatrix {
        cells: out,
        detector,
    })
}

/// A stable per-arm seed lane (content-derived, so inserting an arm
/// does not re-seed its neighbours). Shared with the fault matrix so
/// the same defense arm lands on the same lane in both sweeps.
pub(crate) fn arm_tag(arm: &DefenseArm) -> u64 {
    match *arm {
        DefenseArm::Undefended => 1,
        DefenseArm::ConstantFence(a) => 0x100 ^ a.to_bits(),
        DefenseArm::PrngFence(a) => 0x200 ^ a.to_bits(),
        DefenseArm::AdaptiveFence(a) => 0x300 ^ a.to_bits(),
        DefenseArm::Ldo(r) => 0x400 ^ r.to_bits(),
        DefenseArm::ClockJitter(c) => 0x500 ^ u64::from(c),
    }
}

/// Runs the detector against the attacker's alternating stimulus and
/// against a balanced benign tenant, on otherwise identical fabrics
/// with a monitor-only defense.
fn evaluate_detector(exp: &DefenseMatrixExperiment) -> Result<DetectorEval, FabricError> {
    let reading = |alternation: f64, seed_lane: u64| -> Result<DetectorReading, FabricError> {
        let config = FabricConfig {
            benign: exp.base.circuit,
            seed: exp.base.seed,
            stimulus_alternation: alternation,
            defense: Some(DefenseConfig {
                detector: exp.detector,
                ..DefenseConfig::monitor_only(slm_par::mix_seed(exp.base.seed, seed_lane))
            }),
            ..FabricConfig::default()
        };
        let mut fabric = MultiTenantFabric::new(&config)?;
        fabric.run_activity(None, AesActivity::Continuous, exp.detector_samples);
        let t = fabric.defense_telemetry().expect("defense deployed");
        Ok(DetectorReading {
            windows: t.windows,
            alarm_windows: t.alarm_windows,
            alarm_events: t.alarm_events,
            max_score: t.max_score,
        })
    };
    Ok(DetectorEval {
        attacker: reading(exp.stimulus_alternation, 0xa77)?,
        benign: reading(0.0, 0xb19)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SensorSource;
    use slm_fabric::BenignCircuit;

    fn quick_base() -> CpaExperiment {
        CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcAll,
            traces: 4_000,
            checkpoints: 8,
            pilot_traces: 50,
            seed: 7,
        }
    }

    #[test]
    fn matrix_shows_monotonic_fence_degradation() {
        let exp = DefenseMatrixExperiment::standard(quick_base());
        let matrix = defense_matrix(&exp, &Obs::null()).unwrap();
        assert_eq!(matrix.cells.len(), exp.arms.len());

        // The undefended attack must still succeed...
        let baseline = matrix.cell(&DefenseArm::Undefended).unwrap();
        assert!(
            baseline.result.mtd.is_some(),
            "undefended attack must disclose"
        );
        // ...MTD must not improve as fence strength rises...
        assert!(matrix.fence_mtd_monotonic(), "MTD sweep not monotonic");
        // ...and the strongest fence must push disclosure beyond the
        // trace budget.
        let strongest = matrix.cell(&DefenseArm::PrngFence(1.5)).unwrap();
        assert!(
            strongest.result.mtd.is_none(),
            "strong fence should defeat the budget: MTD {:?}",
            strongest.result.mtd
        );
        // The fence actually burned power doing it.
        assert!(strongest.injected_mean_a > 0.3);
    }

    #[test]
    fn detector_separates_attacker_from_benign_tenant() {
        let mut exp = DefenseMatrixExperiment::standard(quick_base());
        exp.arms = vec![DefenseArm::Undefended]; // detector eval only
        let matrix = defense_matrix(&exp, &Obs::null()).unwrap();
        let d = &matrix.detector;
        assert!(d.attacker.windows >= 2);
        assert!(
            d.attacker.alarm_windows > 0,
            "attacker stimulus must alarm (max score {})",
            d.attacker.max_score
        );
        assert_eq!(
            d.benign.alarm_windows, 0,
            "benign tenant false-alarmed (max score {})",
            d.benign.max_score
        );
        assert!(d.discriminates());
        assert!(d.attacker.max_score > d.benign.max_score);
    }

    #[test]
    fn constant_fence_is_ineffective_control() {
        // Pearson correlation is invariant to constant offsets: the
        // constant fence must leave the attack essentially intact.
        let mut exp = DefenseMatrixExperiment::standard(quick_base());
        exp.arms = vec![DefenseArm::Undefended, DefenseArm::ConstantFence(1.5)];
        let matrix = defense_matrix(&exp, &Obs::null()).unwrap();
        let constant = matrix.cell(&DefenseArm::ConstantFence(1.5)).unwrap();
        assert!(
            constant.result.mtd.is_some(),
            "a constant fence must not stop the attack"
        );
    }
}
