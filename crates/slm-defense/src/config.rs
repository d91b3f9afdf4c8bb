//! Countermeasure configuration types.

use serde::{Deserialize, Serialize};
use slm_sensors::TdcConfig;

use crate::detector::DetectorConfig;

/// How an active fence modulates its injected current.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FenceMode {
    /// A constant current sink at the configured peak. Included as the
    /// control arm of the matrix: Pearson correlation is invariant to a
    /// constant offset, so this mode should buy essentially nothing —
    /// the result the countermeasure literature reports for naive
    /// "burn power" fences.
    Constant,
    /// A PRNG-modulated sink: a fresh uniform draw in
    /// `[0, peak_current_a)` every fabric tick. The injected waveform is
    /// wideband and uncorrelated with the victim, so it lands in the
    /// attacker's measurement as additive noise.
    Prng,
    /// SHIELD-style adaptive fence: idles at `idle_fraction` of peak
    /// until the defender's own sensor feedback loop scores the region
    /// as under measurement, then runs the PRNG sink at full peak until
    /// the score decays below the release point.
    Adaptive(AdaptivePolicy),
}

/// Hysteresis policy of the adaptive fence's feedback loop.
///
/// Scores come from the same [`AlternationDetector`] windows the alarm
/// path uses (units: taps of alternating amplitude seen by the defender
/// TDC). `trigger_score` should sit above the sensor noise floor and
/// `release_score` below `trigger_score` so the fence does not chatter.
///
/// [`AlternationDetector`]: crate::AlternationDetector
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptivePolicy {
    /// Window score at or above which the fence arms.
    pub trigger_score: f64,
    /// Window score at or below which an armed fence stands down.
    pub release_score: f64,
    /// Fraction of `peak_current_a` the fence draws while disarmed.
    pub idle_fraction: f64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            trigger_score: 0.02,
            release_score: 0.01,
            idle_fraction: 0.1,
        }
    }
}

/// An active-fence noise injector: a defender-owned current source in
/// the victim's PDN region.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FenceSpec {
    /// Modulation scheme.
    pub mode: FenceMode,
    /// Peak injected current, amperes.
    pub peak_current_a: f64,
}

impl FenceSpec {
    /// A PRNG fence at the given peak current.
    pub fn prng(peak_current_a: f64) -> Self {
        FenceSpec {
            mode: FenceMode::Prng,
            peak_current_a,
        }
    }

    /// A constant fence at the given current.
    pub fn constant(current_a: f64) -> Self {
        FenceSpec {
            mode: FenceMode::Constant,
            peak_current_a: current_a,
        }
    }

    /// An adaptive fence with the default hysteresis policy.
    pub fn adaptive(peak_current_a: f64) -> Self {
        FenceSpec {
            mode: FenceMode::Adaptive(AdaptivePolicy::default()),
            peak_current_a,
        }
    }
}

/// Supply-regulation (LDO) stage between regions.
///
/// A per-region regulator does not remove a tenant's own droop (the
/// regulator shares the same package inductance) but it does attenuate
/// how much of one region's current transient appears on a *neighbour's*
/// rail. Modeled as a multiplier on the off-diagonal entries of the PDN
/// coupling matrix: `residual = 1.0` is no regulation, `0.0` perfect
/// isolation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LdoConfig {
    /// Fraction of cross-region coupling that survives regulation,
    /// in `[0, 1]`.
    pub residual: f64,
}

impl Default for LdoConfig {
    fn default() -> Self {
        LdoConfig { residual: 0.25 }
    }
}

/// Randomization of the victim tenant's clock phase.
///
/// Each encryption starts after a uniformly random extra `0..=max_cycles`
/// idle AES cycles, so the leaky last round lands on a different capture
/// sample position from trace to trace and the attacker's fixed
/// last-round window integrates misaligned leakage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockJitterConfig {
    /// Maximum extra lead-in, AES cycles (inclusive).
    pub max_cycles: u32,
}

impl Default for ClockJitterConfig {
    fn default() -> Self {
        ClockJitterConfig { max_cycles: 8 }
    }
}

/// Full countermeasure deployment for one fabric.
///
/// Every field except the detector is optional; an all-`None` config is
/// electrically inert (the runtime still watches for attackers). All
/// randomness derives from `seed`, independently of the fabric's own
/// streams, so enabling a defense never perturbs the attacker/victim
/// noise sequences.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenseConfig {
    /// Active-fence injector in the victim's region, if deployed.
    pub fence: Option<FenceSpec>,
    /// Cross-region supply regulation, if deployed.
    pub ldo: Option<LdoConfig>,
    /// Victim clock-phase randomization, if deployed.
    pub clock_jitter: Option<ClockJitterConfig>,
    /// Online anomaly detector (always running — it is the feedback
    /// loop of the adaptive fence and the monitoring plane's alarm
    /// source).
    pub detector: DetectorConfig,
    /// Defender-owned TDC watching the victim region at the full fabric
    /// tick rate (twice the attacker's sample rate, so the attacker's
    /// tick-rate stimulus alternation is visible rather than aliased).
    pub sensor: TdcConfig,
    /// Master seed for the defender's private randomness (fence
    /// modulation, jitter draws, sensor noise).
    pub seed: u64,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        DefenseConfig {
            fence: None,
            ldo: None,
            clock_jitter: None,
            detector: DetectorConfig::default(),
            sensor: TdcConfig::paper_150mhz(0xdef),
            seed: 0x00de_fe5e,
        }
    }
}

impl DefenseConfig {
    /// Detector-only deployment: no electrical countermeasure, just the
    /// monitoring plane.
    pub fn monitor_only(seed: u64) -> Self {
        DefenseConfig {
            seed,
            ..DefenseConfig::default()
        }
    }
}
