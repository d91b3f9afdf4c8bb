//! SCC-based oscillation detection.

use crate::analysis::Analysis;
use crate::config::CheckerConfig;
use crate::diag::{span_of, CheckKind, Finding, Severity};
use crate::pass::{Pass, Prior};

/// Reports every combinational feedback loop with its complete
/// membership (Tarjan SCCs), not just one topological-sort witness.
///
/// A loop with an odd number of inverting members oscillates (the ring
/// oscillator structure); an even count is a latch — both are rejected,
/// since neither belongs in a tenant's combinational region.
pub struct SccLoopPass;

impl Pass for SccLoopPass {
    fn name(&self) -> &'static str {
        "comb-loop"
    }

    fn description(&self) -> &'static str {
        "combinational feedback loops via strongly connected components"
    }

    fn run(
        &self,
        cx: &Analysis<'_>,
        config: &CheckerConfig,
        _prior: &Prior<'_>,
        findings: &mut Vec<Finding>,
    ) {
        let nl = cx.netlist();
        let loops = cx.loops();
        for (i, comp) in loops.iter().enumerate() {
            if i == config.loops.max_reported {
                findings.push(
                    Finding::new(
                        CheckKind::CombinationalLoop,
                        Severity::Reject,
                        self.name(),
                        format!(
                            "{} further combinational loops beyond loops.max_reported ({})",
                            loops.len() - i,
                            config.loops.max_reported
                        ),
                    )
                    .with_witness(comp[0]),
                );
                break;
            }
            let inverting = comp
                .iter()
                .filter(|&&id| nl.kind(id).is_inverting())
                .count();
            let behaviour = if inverting % 2 == 1 {
                "odd inversion: oscillates"
            } else {
                "even inversion: latches"
            };
            findings.push(
                Finding::new(
                    CheckKind::CombinationalLoop,
                    Severity::Reject,
                    self.name(),
                    format!(
                        "combinational loop of {} nets, {} inverting ({})",
                        comp.len(),
                        inverting,
                        behaviour
                    ),
                )
                .with_witness(comp[0])
                .with_span(span_of(nl, comp)),
            );
        }
    }
}
