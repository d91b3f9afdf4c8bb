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
//! Cells are independent serial campaigns on the experiments' one
//! observed fan-out (`fan_out`): each cell forks the recorder, runs
//! inside one `defense.cell` span on its fork, its frame folds back in
//! arm order, and the first failing cell in arm order is the error. The
//! whole matrix — results and telemetry — is therefore bit-identical at
//! any worker count. The detector evaluation reads a monitor-only
//! fabric through [`monitor_reading`], the probe the fault matrix's
//! per-row evaluation shares.

use serde::{Deserialize, Serialize};
use slm_fabric::{
    AdaptivePolicy, AesActivity, AggressorSpec, BenignCircuit, DefenseConfig, DetectorConfig,
    FabricConfig, FabricError, FenceMode, FenceSpec, LdoConfig, MultiTenantFabric,
};
use slm_obs::Obs;

use super::cpa::{run_cpa, CpaExperiment, CpaResult};
use super::fan_out::fan_out;

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
        sweep.sort_by(|a, b| a.0.total_cmp(&b.0));
        sweep.windows(2).all(|w| w[0].1 <= w[1].1)
    }
}

/// Runs the attack-vs-defense matrix. Each cell runs under a
/// `defense.cell` span on its own fork of `obs` (emitting the campaign's
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
    let cells = fan_out(exp.workers, &exp.arms, "defense.cell", obs, |arm, fork| {
        // The cell reads its defense telemetry back from its own frame,
        // so it records even when the caller passed a null handle.
        let recorder = if fork.enabled() {
            fork.clone()
        } else {
            Obs::memory()
        };
        let defense_seed = slm_par::mix_seed(exp.base.seed, arm_tag(arm));
        let tweak = |config: &mut FabricConfig| {
            config.stimulus_alternation = exp.stimulus_alternation;
            config.defense = arm.deployment(exp.detector, defense_seed);
        };
        let result = run_cpa(&exp.base, tweak, &recorder)?;
        recorder.incr("defense.cells");
        // The campaign loop already emitted the defense gauges; the
        // cell keeps the two headline numbers for the report.
        let frame = recorder.snapshot();
        Ok(MatrixCell {
            arm: *arm,
            result,
            injected_mean_a: frame
                .gauge("defense.injected_mean_a")
                .map_or(0.0, |g| g.last),
            alarm_windows: frame.counter("defense.alarm_windows"),
        })
    })?;

    let detector = {
        let _span = obs.span("defense.detector_eval");
        let reading = |alternation, lane| {
            monitor_reading(
                exp.base.circuit,
                exp.base.seed,
                lane,
                alternation,
                None,
                exp.detector,
                exp.detector_samples,
            )
        };
        DetectorEval {
            attacker: reading(exp.stimulus_alternation, 0xa77)?,
            benign: reading(0.0, 0xb19)?,
        }
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
    Ok(DefenseMatrix { cells, detector })
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

/// Runs the defender's detector alone: a monitor-only defense (no
/// fence, no LDO, no jitter) seeded on `lane` of `seed` watches
/// `samples` measure edges of continuous AES beside the tenant's
/// stimulus at `alternation` and an optional aggressor. Both matrices'
/// detector evaluations read the monitoring plane through this probe.
pub(crate) fn monitor_reading(
    circuit: BenignCircuit,
    seed: u64,
    lane: u64,
    alternation: f64,
    aggressor: Option<AggressorSpec>,
    detector: DetectorConfig,
    samples: usize,
) -> Result<DetectorReading, FabricError> {
    let config = FabricConfig {
        benign: circuit,
        seed,
        stimulus_alternation: alternation,
        aggressor,
        defense: Some(DefenseConfig {
            detector,
            ..DefenseConfig::monitor_only(slm_par::mix_seed(seed, lane))
        }),
        ..FabricConfig::default()
    };
    let mut fabric = MultiTenantFabric::new(&config)?;
    fabric.run_activity(None, AesActivity::Continuous, samples);
    let t = fabric.defense_telemetry().expect("defense deployed");
    Ok(DetectorReading {
        windows: t.windows,
        alarm_windows: t.alarm_windows,
        alarm_events: t.alarm_events,
        max_score: t.max_score,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SensorSource;

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

    #[test]
    fn fence_sweep_with_a_nan_peak_orders_without_panicking() {
        let reading = DetectorReading {
            windows: 0,
            alarm_windows: 0,
            alarm_events: 0,
            max_score: 0.0,
        };
        let cell = |arm, mtd| MatrixCell {
            arm,
            result: CpaResult {
                correct_key_byte: 0,
                recovered_key_byte: None,
                mtd,
                progress: Vec::new(),
                final_peaks: Vec::new(),
                bits_of_interest: Vec::new(),
                selected_bit: None,
                traces: 0,
            },
            injected_mean_a: 0.0,
            alarm_windows: 0,
        };
        let matrix = |cells| DefenseMatrix {
            cells,
            detector: DetectorEval {
                attacker: reading,
                benign: reading,
            },
        };
        // A NaN peak sorts after every finite strength.
        let undefended = cell(DefenseArm::Undefended, Some(500));
        let nan = cell(DefenseArm::PrngFence(f64::NAN), None);
        let weak = cell(DefenseArm::PrngFence(0.4), Some(2_000));
        assert!(matrix(vec![undefended.clone(), nan.clone(), weak.clone()]).fence_mtd_monotonic());
        let early = cell(DefenseArm::PrngFence(0.4), Some(100));
        assert!(!matrix(vec![undefended, nan, early]).fence_mtd_monotonic());
    }
}
