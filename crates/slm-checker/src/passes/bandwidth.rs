//! The observation-bandwidth pass.

use crate::analysis::Analysis;
use crate::config::CheckerConfig;
use crate::diag::{span_of, CheckKind, Finding, Severity};
use crate::pass::{Pass, Prior};
use crate::semantic::Taint;
use slm_netlist::NetId;

/// Bounds the bits/cycle of clock-rate state observable at the
/// tenant's outputs.
///
/// The paper's TDC reads a thermometer code — one bit per tap — every
/// capture cycle; sensing capability therefore scales with how many
/// output bits carry clock-rate toggling, *regardless of the logic
/// that produced them*. Every clock-tainted output (including pure
/// buffer feed-through, which a readout can still sample) counts one
/// bit toward the bound; clearing
/// [`crate::BandwidthConfig::warn_bits_per_cycle`] warns, anything
/// nonzero below it is recorded as an `Info` note.
pub struct ObservationBandwidthPass;

impl Pass for ObservationBandwidthPass {
    fn name(&self) -> &'static str {
        "observation-bandwidth"
    }

    fn description(&self) -> &'static str {
        "bits/cycle of clock-rate state observable at outputs (TDC readout bound)"
    }

    fn depends_on(&self) -> &'static [&'static str] {
        &["clock-taint"]
    }

    fn run(
        &self,
        cx: &Analysis<'_>,
        config: &CheckerConfig,
        prior: &Prior<'_>,
        findings: &mut Vec<Finding>,
    ) {
        let nl = cx.netlist();
        let facts = cx.taint(config);
        let tainted: Vec<NetId> = nl
            .outputs()
            .iter()
            .map(|&(_, o)| o)
            .filter(|o| facts.taint[o.index()] == Taint::ClockRate)
            .collect();
        let bits = tainted.len();
        if bits == 0 {
            return;
        }
        let corroborated = prior
            .findings_of("clock-taint")
            .iter()
            .any(|f| f.kind == CheckKind::ClockTaint && f.severity >= Severity::Reject);
        let severity = if bits >= config.bandwidth.warn_bits_per_cycle {
            Severity::Warn
        } else {
            Severity::Info
        };
        findings.push(
            Finding::new(
                CheckKind::ObservationBandwidth,
                severity,
                self.name(),
                format!(
                    "{bits} bit(s)/cycle of clock-rate state observable at {} outputs \
                     (TDC thermometer-readout bound){}",
                    nl.outputs().len(),
                    if corroborated {
                        " — corroborates the clock-taint convergence rejection"
                    } else {
                        ""
                    },
                ),
            )
            .with_witness(tainted[0])
            .with_span(span_of(nl, &tainted)),
        );
    }
}
