//! Clock-as-data detection.

use crate::analysis::Analysis;
use crate::config::CheckerConfig;
use crate::diag::{span_of, CheckKind, Finding, Severity};
use crate::pass::{Pass, Prior};

/// Flags clock inputs that drive combinational logic — the fourth
/// structural check the paper names.
///
/// Routing a clock into LUT data inputs is the standard way to build a
/// latch-based sensor or glitch generator without a combinational loop,
/// so any fanout at all from a clock-named input into the gate network
/// is rejected.
pub struct ClockAsDataPass;

impl Pass for ClockAsDataPass {
    fn name(&self) -> &'static str {
        "clock-as-data"
    }

    fn description(&self) -> &'static str {
        "clock inputs used as combinational data signals"
    }

    fn run(
        &self,
        cx: &Analysis<'_>,
        config: &CheckerConfig,
        _prior: &Prior<'_>,
        findings: &mut Vec<Finding>,
    ) {
        let nl = cx.netlist();
        for &input in cx.clock_named_inputs(config) {
            let Some(name) = nl.net_name(input) else {
                continue;
            };
            let drives = cx.fanout().degree(input);
            if drives == 0 {
                continue;
            }
            let driven: Vec<_> = cx.fanout().fanouts(input).to_vec();
            findings.push(
                Finding::new(
                    CheckKind::ClockAsData,
                    Severity::Reject,
                    self.name(),
                    format!("clock input '{name}' drives {drives} combinational gate inputs"),
                )
                .with_witness(input)
                .with_span(span_of(nl, &driven)),
            );
        }
    }
}
