//! Structured diagnostics: finding kinds, severities, spans and the
//! per-netlist report.

use serde::{Deserialize, Serialize};
use slm_netlist::{NetId, Netlist};

/// Maximum number of nets a single diagnostic span carries.
///
/// Spans are machine-readable evidence, not a dump: a 50k-net loop is
/// reported with its size in the detail text and its first
/// `MAX_SPAN_NETS` members in the span.
pub const MAX_SPAN_NETS: usize = 64;

/// Categories of findings a checker can raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum CheckKind {
    /// A combinational feedback loop (self-oscillator).
    CombinationalLoop,
    /// A long buffer/inverter chain with dense observation taps.
    DelayLineSensor,
    /// A large array of near-identical trivial cells.
    ExcessiveFanoutArray,
    /// Requested clock exceeds the STA fmax (strict timing check).
    TimingOverclock,
    /// High observation density: an unusually large fraction of the
    /// logic is tapped to outputs (sensor-like). **Opt-in and
    /// deliberately over-aggressive** — it also flags ordinary adders,
    /// demonstrating the paper's point that tightening structural
    /// heuristics far enough to catch benign-logic sensors rejects
    /// legitimate designs.
    ObservationDensity,
    /// A clock input used as a data signal in combinational logic.
    ClockAsData,
    /// SCOAP-style sensor-likeness: many endpoint registers sit at the
    /// end of deep, narrow logic cones (chain-shaped controllability).
    SensorLikeEndpoints,
    /// A known-bad subgraph signature (ring-oscillator cell, tapped
    /// delay-chain) matched even through interposed buffers.
    KnownBadMotif,
    /// Clock-rate toggling propagates through combinational logic and
    /// converges on wide observation fan-in (semantic dataflow pass).
    ClockTaint,
    /// Estimated switching activity marks the design as a power sensor:
    /// clock-driven transition density observable at many outputs, or a
    /// glitch-amplification bound confirming SCOAP sensor-likeness.
    SwitchingActivity,
    /// Bits/cycle of clock-rate state observable at tenant outputs (the
    /// paper's TDC thermometer-readout model).
    ObservationBandwidth,
}

impl CheckKind {
    /// Short stable identifier used in reports and the CLI.
    pub fn as_str(self) -> &'static str {
        match self {
            CheckKind::CombinationalLoop => "combinational-loop",
            CheckKind::DelayLineSensor => "delay-line-sensor",
            CheckKind::ExcessiveFanoutArray => "excessive-fanout-array",
            CheckKind::TimingOverclock => "timing-overclock",
            CheckKind::ObservationDensity => "observation-density",
            CheckKind::ClockAsData => "clock-as-data",
            CheckKind::SensorLikeEndpoints => "sensor-like-endpoints",
            CheckKind::KnownBadMotif => "known-bad-motif",
            CheckKind::ClockTaint => "clock-taint",
            CheckKind::SwitchingActivity => "switching-activity",
            CheckKind::ObservationBandwidth => "observation-bandwidth",
        }
    }
}

/// How serious a finding is.
///
/// The ordering is total: `Info < Warn < Reject`. Suppressions apply to
/// `Info` and `Warn` only — a `Reject` can never be suppressed.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Severity {
    /// Informational: recorded in the report, never fails a scan.
    Info,
    /// Suspicious but heuristic: fails a scan unless suppressed.
    #[default]
    Warn,
    /// Definitive structural evidence of misuse: always fails a scan.
    Reject,
}

impl Severity {
    /// Lower-case label used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Reject => "reject",
        }
    }
}

/// One net referenced by a diagnostic span: the raw id plus its
/// source-level name when the netlist has one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanNet {
    /// Net id in the scanned netlist.
    pub net: NetId,
    /// Source name, if the net is named.
    pub name: Option<String>,
}

impl SpanNet {
    /// Builds the span entry for `id` in `nl`.
    fn of(nl: &Netlist, id: NetId) -> Self {
        SpanNet {
            net: id,
            name: nl.net_name(id).map(str::to_owned),
        }
    }
}

/// Builds a (capped) span from a net list.
pub fn span_of(nl: &Netlist, nets: &[NetId]) -> Vec<SpanNet> {
    nets.iter()
        .take(MAX_SPAN_NETS)
        .map(|&id| SpanNet::of(nl, id))
        .collect()
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Category.
    pub kind: CheckKind,
    /// Severity tier.
    pub severity: Severity,
    /// Name of the pass that raised the finding (empty for findings
    /// produced outside the pass manager, e.g. the timing check).
    pub pass: String,
    /// A net involved in the finding (loop witness, chain head, …).
    pub witness: Option<NetId>,
    /// Machine-readable evidence: the nets that constitute the matched
    /// structure (full loop membership, chain stages, …), capped at
    /// [`MAX_SPAN_NETS`].
    pub span: Vec<SpanNet>,
    /// Human-readable explanation.
    pub detail: String,
    /// Suppression reason when an allowlist rule matched. Suppressed
    /// findings stay in the report for auditability but no longer count
    /// against [`CheckReport::is_clean`].
    pub suppressed: Option<String>,
}

impl Finding {
    /// Creates an unsuppressed finding with an empty span.
    pub fn new(kind: CheckKind, severity: Severity, pass: &str, detail: String) -> Self {
        Finding {
            kind,
            severity,
            pass: pass.to_owned(),
            witness: None,
            span: Vec::new(),
            detail,
            suppressed: None,
        }
    }

    /// Sets the witness net.
    pub fn with_witness(mut self, id: NetId) -> Self {
        self.witness = Some(id);
        self
    }

    /// Sets the evidence span (already capped by the caller or via
    /// [`span_of`]).
    pub fn with_span(mut self, span: Vec<SpanNet>) -> Self {
        self.span = span;
        self
    }

    /// Whether the finding currently counts against the verdict.
    fn is_active(&self) -> bool {
        self.suppressed.is_none()
    }
}

/// The verdict over one tenant netlist.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CheckReport {
    /// Name of the scanned netlist.
    pub netlist: String,
    /// Total net count (gates + inputs) of the scanned netlist.
    pub nets: usize,
    /// All findings, in pass order.
    pub findings: Vec<Finding>,
}

impl CheckReport {
    /// An empty report for `nl`.
    pub fn for_netlist(nl: &Netlist) -> Self {
        CheckReport {
            netlist: nl.name().to_owned(),
            nets: nl.len(),
            findings: Vec::new(),
        }
    }

    /// The findings that count: not suppressed.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.is_active())
    }

    /// Whether no active finding is `Warn` or worse.
    ///
    /// `Info` findings and suppressed findings never dirty a report.
    pub fn is_clean(&self) -> bool {
        !self.active().any(|f| f.severity >= Severity::Warn)
    }

    /// Whether a specific category was raised (and not suppressed).
    pub fn flagged(&self, kind: CheckKind) -> bool {
        self.active().any(|f| f.kind == kind)
    }

    /// The worst active severity, or `None` for a finding-free report.
    pub fn max_severity(&self) -> Option<Severity> {
        self.active().map(|f| f.severity).max()
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }
}
