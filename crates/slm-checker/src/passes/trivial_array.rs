//! Replicated trivial-cell array (power virus) detection.

use crate::analysis::Analysis;
use crate::config::CheckerConfig;
use crate::diag::{CheckKind, Finding, Severity};
use crate::pass::{Pass, Prior};
use slm_netlist::GateKind;

/// Flags netlists that are overwhelmingly made of tiny replicated
/// cells — the RO-grid power-virus shape (thousands of NAND/NOT cells,
/// no real logic), independent of whether the loops themselves are
/// visible.
pub struct TrivialArrayPass;

impl Pass for TrivialArrayPass {
    fn name(&self) -> &'static str {
        "trivial-array"
    }

    fn description(&self) -> &'static str {
        "large arrays of replicated trivial cells (power viruses)"
    }

    fn run(
        &self,
        cx: &Analysis<'_>,
        config: &CheckerConfig,
        _prior: &Prior<'_>,
        findings: &mut Vec<Finding>,
    ) {
        let nl = cx.netlist();
        let trivial = nl
            .gates()
            .filter(|g| {
                matches!(g.kind, GateKind::Not | GateKind::Buf | GateKind::Nand)
                    && g.fanin.len() <= 2
            })
            .count();
        let total_logic = nl.gates().filter(|g| g.kind != GateKind::Input).count();
        if trivial >= config.array.min_cells
            && trivial as f64 >= total_logic as f64 * config.array.min_trivial_fraction
        {
            findings.push(Finding::new(
                CheckKind::ExcessiveFanoutArray,
                Severity::Reject,
                self.name(),
                format!("{trivial} of {total_logic} cells are trivial replicated gates"),
            ));
        }
    }
}
