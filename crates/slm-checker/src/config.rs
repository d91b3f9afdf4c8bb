//! Checker configuration: one section per pass, plus the suppression
//! (allowlist) rules.

use crate::diag::{CheckKind, Finding, Severity};
use serde::{Deserialize, Serialize};

/// Thresholds for the SCC oscillation pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopConfig {
    /// Maximum number of individual loop findings reported; a power
    /// virus with thousands of RO cells collapses into this many
    /// findings plus one summary line.
    pub max_reported: usize,
}

impl Default for LoopConfig {
    fn default() -> Self {
        LoopConfig { max_reported: 16 }
    }
}

/// Thresholds for the tapped delay-line pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayLineConfig {
    /// Minimum tapped buffer-chain length considered a delay-line sensor.
    pub min_stages: usize,
    /// Minimum fraction of chain stages that must be observed (tapped)
    /// for the chain to look like a sensor rather than pipelining.
    pub min_tap_fraction: f64,
}

impl Default for DelayLineConfig {
    fn default() -> Self {
        DelayLineConfig {
            min_stages: 16,
            min_tap_fraction: 0.5,
        }
    }
}

/// Thresholds for the trivial-array (power virus) pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayConfig {
    /// Minimum count of identical trivial cells considered a power-virus
    /// array.
    pub min_cells: usize,
    /// Minimum fraction of the logic that must be trivial replicated
    /// cells for the pass to fire.
    pub min_trivial_fraction: f64,
}

impl Default for ArrayConfig {
    fn default() -> Self {
        ArrayConfig {
            min_cells: 1000,
            min_trivial_fraction: 0.9,
        }
    }
}

/// Thresholds for the opt-in observation-density heuristic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObservationConfig {
    /// Enable the over-aggressive observation-density heuristic.
    pub enable: bool,
    /// Output-to-gate ratio above which the heuristic fires.
    pub density_threshold: f64,
    /// Minimum gate count before the heuristic applies.
    pub min_gates: usize,
}

impl Default for ObservationConfig {
    fn default() -> Self {
        ObservationConfig {
            enable: false,
            density_threshold: 0.12,
            min_gates: 64,
        }
    }
}

/// Configuration for the clock-as-data pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClockConfig {
    /// Input base names treated as clocks (matched case-insensitively,
    /// with any trailing `[i]` bus index stripped).
    pub clock_names: Vec<String>,
}

impl Default for ClockConfig {
    fn default() -> Self {
        ClockConfig {
            clock_names: vec!["clk".into(), "clock".into(), "ck".into()],
        }
    }
}

/// Thresholds for the SCOAP-style sensor-likeness pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoapConfig {
    /// Minimum logic depth of an endpoint before it can look sensor-like.
    pub min_depth: usize,
    /// Minimum depth-to-cone ratio: 1.0 is a pure chain, ordinary
    /// arithmetic sits far below.
    pub min_chain_ratio: f64,
    /// Minimum number of sensor-like endpoints before any finding is
    /// raised (protects single-output pipelines).
    pub min_endpoints: usize,
    /// Minimum fraction of all endpoints that must be sensor-like for
    /// the `Warn` finding (below it, an `Info` note is emitted).
    pub min_endpoint_fraction: f64,
}

impl Default for ScoapConfig {
    fn default() -> Self {
        ScoapConfig {
            min_depth: 12,
            min_chain_ratio: 0.8,
            min_endpoints: 8,
            min_endpoint_fraction: 0.5,
        }
    }
}

/// Thresholds for the subgraph-signature pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignatureConfig {
    /// Minimum number of non-buffer stages for a loop to match the
    /// ring-oscillator motif.
    pub min_ring_stages: usize,
    /// Minimum number of observed stages for the tapped delay-chain
    /// motif.
    pub min_chain_stages: usize,
    /// Maximum number of unobserved non-buffer gates between two
    /// consecutive observed stages of a tapped chain.
    pub max_unobserved_gap: usize,
    /// Maximum number of ring-motif findings reported individually.
    pub max_reported: usize,
}

impl Default for SignatureConfig {
    fn default() -> Self {
        SignatureConfig {
            min_ring_stages: 3,
            min_chain_stages: 16,
            max_unobserved_gap: 3,
            max_reported: 16,
        }
    }
}

/// Thresholds and seeds for the semantic clock-taint dataflow pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaintConfig {
    /// Input pins declared clock-fed by the tenant's interface contract
    /// (exact net names). In the admission deployment model the
    /// provider's shell owns clock routing, so these are known
    /// regardless of what the tenant names the pins — the seeds that
    /// make the pass immune to the rename trick that defeats the
    /// structural clock-as-data name screen. Clock-*named* inputs
    /// ([`ClockConfig::clock_names`]) are seeded too.
    pub declared_clocks: Vec<String>,
    /// Minimum number of clock-rate-tainted outputs (reached through
    /// real logic, see `min_logic_depth`) before the pass rejects —
    /// below it, wide observation fan-in is absent and only an `Info`
    /// note is recorded.
    pub min_observed: usize,
    /// Minimum non-buffer logic depth between a clock seed and a
    /// tainted output for the output to count as *converged through
    /// logic* (pure buffer forwarding of a clock is pin feed-through,
    /// not sensing).
    pub min_logic_depth: usize,
}

impl Default for TaintConfig {
    fn default() -> Self {
        TaintConfig {
            declared_clocks: Vec::new(),
            min_observed: 8,
            min_logic_depth: 1,
        }
    }
}

/// Parameters of the static switching-activity estimator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityConfig {
    /// Transition density assumed at data inputs, transitions/cycle.
    pub input_density: f64,
    /// Transition density assumed at clock-fed inputs (and
    /// self-oscillating loop nets), transitions/cycle; 2.0 = rise+fall.
    pub clock_density: f64,
    /// Per-output clock-attributable glitch bound at or above which the
    /// output counts as a clock-driven observation tap.
    pub tap_threshold: f64,
    /// Minimum number of clock-driven taps before the pass rejects.
    pub min_taps: usize,
    /// Summed worst-case glitch bound over a SCOAP sensor-like endpoint
    /// group at or above which the heuristic `Warn` is upgraded to a
    /// power-proxy `Reject`.
    pub scoap_upgrade_glitch: f64,
    /// Glitch amplification ratio (worst-case transitions / transition
    /// density) above which an informational reconvergence note is
    /// recorded.
    pub info_amplification: f64,
}

impl Default for ActivityConfig {
    fn default() -> Self {
        ActivityConfig {
            input_density: 0.5,
            clock_density: 2.0,
            tap_threshold: 1.0,
            min_taps: 8,
            scoap_upgrade_glitch: 8.0,
            info_amplification: 64.0,
        }
    }
}

/// Thresholds for the observation-bandwidth pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BandwidthConfig {
    /// Observable clock-rate bits/cycle at or above which the pass
    /// warns (the paper's TDC reads a thermometer code of this width
    /// every capture cycle).
    pub warn_bits_per_cycle: usize,
}

impl Default for BandwidthConfig {
    fn default() -> Self {
        BandwidthConfig {
            warn_bits_per_cycle: 8,
        }
    }
}

/// The strict timing check's input: the clock the tenant requests.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TimingConfig {
    /// Requested clock in MHz; `None` (a bare bitstream, no clock
    /// contract) leaves the timing pass silent.
    pub clock_mhz: Option<f64>,
}

/// One allowlist rule. Every populated field must match for the rule to
/// apply; `None` fields match anything.
///
/// Suppressions apply to `Info` and `Warn` findings only: a `Reject` is
/// definitive structural evidence and is never hidden (enforced by the
/// pass manager and covered by a property test).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Suppression {
    /// Restrict to one finding category.
    pub kind: Option<CheckKind>,
    /// Restrict to findings raised by one pass (exact name).
    pub pass: Option<String>,
    /// Restrict to findings whose span mentions a net with this source
    /// name.
    pub net_name: Option<String>,
    /// Why the finding is acceptable — recorded on the suppressed
    /// finding.
    pub reason: String,
}

impl Suppression {
    /// Whether the rule matches `finding`. Severity is not consulted
    /// here; the pass manager refuses to suppress `Reject` regardless.
    pub fn matches(&self, finding: &Finding) -> bool {
        if let Some(kind) = self.kind {
            if finding.kind != kind {
                return false;
            }
        }
        if let Some(pass) = &self.pass {
            if finding.pass != *pass {
                return false;
            }
        }
        if let Some(net) = &self.net_name {
            let in_span = finding
                .span
                .iter()
                .any(|s| s.name.as_deref() == Some(net.as_str()));
            if !in_span {
                return false;
            }
        }
        true
    }
}

/// Tunable thresholds for all passes, one section per pass.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CheckerConfig {
    /// SCC oscillation pass.
    pub loops: LoopConfig,
    /// Tapped delay-line pass.
    pub delay_line: DelayLineConfig,
    /// Trivial-array (power virus) pass.
    pub array: ArrayConfig,
    /// Opt-in observation-density heuristic.
    pub observation: ObservationConfig,
    /// Clock-as-data pass.
    pub clock: ClockConfig,
    /// SCOAP-style sensor-likeness pass.
    pub scoap: ScoapConfig,
    /// Subgraph-signature pass.
    pub signature: SignatureConfig,
    /// Semantic clock-taint dataflow pass.
    pub taint: TaintConfig,
    /// Static switching-activity estimator.
    pub activity: ActivityConfig,
    /// Observation-bandwidth pass.
    pub bandwidth: BandwidthConfig,
    /// Strict timing pass.
    pub timing: TimingConfig,
    /// Allowlist rules applied after all passes run.
    pub suppressions: Vec<Suppression>,
}

impl CheckerConfig {
    /// Whether `self` and `other` serialize alike: `==`, and every
    /// float bit for bit, since `==` takes `0.0` for `-0.0` although
    /// they render differently (and no pass is bound to treat them
    /// alike). `NaN` is never `==`, so a config holding one is only
    /// ever identical to nothing.
    pub(crate) fn identical(&self, other: &Self) -> bool {
        self == other && self.float_bits() == other.float_bits()
    }

    /// The bits of every float field. Destructured in full, so a field
    /// added to any section fails to compile here until it is weighed.
    fn float_bits(&self) -> [u64; 11] {
        let CheckerConfig {
            loops: LoopConfig { max_reported: _ },
            delay_line:
                DelayLineConfig {
                    min_stages: _,
                    min_tap_fraction,
                },
            array:
                ArrayConfig {
                    min_cells: _,
                    min_trivial_fraction,
                },
            observation:
                ObservationConfig {
                    enable: _,
                    density_threshold,
                    min_gates: _,
                },
            clock: ClockConfig { clock_names: _ },
            scoap:
                ScoapConfig {
                    min_depth: _,
                    min_chain_ratio,
                    min_endpoints: _,
                    min_endpoint_fraction,
                },
            signature:
                SignatureConfig {
                    min_ring_stages: _,
                    min_chain_stages: _,
                    max_unobserved_gap: _,
                    max_reported: _,
                },
            taint:
                TaintConfig {
                    declared_clocks: _,
                    min_observed: _,
                    min_logic_depth: _,
                },
            activity:
                ActivityConfig {
                    input_density,
                    clock_density,
                    tap_threshold,
                    min_taps: _,
                    scoap_upgrade_glitch,
                    info_amplification,
                },
            bandwidth: BandwidthConfig {
                warn_bits_per_cycle: _,
            },
            timing: TimingConfig { clock_mhz },
            suppressions: _,
        } = self;
        [
            min_tap_fraction.to_bits(),
            min_trivial_fraction.to_bits(),
            density_threshold.to_bits(),
            min_chain_ratio.to_bits(),
            min_endpoint_fraction.to_bits(),
            input_density.to_bits(),
            clock_density.to_bits(),
            tap_threshold.to_bits(),
            scoap_upgrade_glitch.to_bits(),
            info_amplification.to_bits(),
            clock_mhz.map_or(0, f64::to_bits),
        ]
    }
}

/// Applies the suppression rules to a finding list. `Reject` findings
/// are never suppressed.
pub fn apply_suppressions(config: &CheckerConfig, findings: &mut [Finding]) {
    for finding in findings {
        if finding.severity >= Severity::Reject {
            continue;
        }
        if let Some(rule) = config
            .suppressions
            .iter()
            .find(|rule| rule.matches(finding))
        {
            finding.suppressed = Some(rule.reason.clone());
        }
    }
}
