//! The opt-in observation-density heuristic.

use crate::analysis::Analysis;
use crate::config::CheckerConfig;
use crate::diag::{CheckKind, Finding, Severity};
use crate::pass::{Pass, Prior};
use slm_netlist::GateKind;

/// Warns when an unusually large fraction of the logic is observed at
/// outputs.
///
/// **Deliberately over-aggressive and off by default**: it flags a
/// plain ripple-carry adder just as readily as a tapped carry-chain
/// TDC, which is the paper's argument for why structural screening
/// cannot be tightened into a defence. It is kept as `Warn` severity so
/// operators can allowlist the false positives it produces.
pub struct ObservationDensityPass;

impl Pass for ObservationDensityPass {
    fn name(&self) -> &'static str {
        "observation-density"
    }

    fn description(&self) -> &'static str {
        "opt-in heuristic: fraction of logic observed at outputs"
    }

    fn run(
        &self,
        cx: &Analysis<'_>,
        config: &CheckerConfig,
        _prior: &Prior<'_>,
        findings: &mut Vec<Finding>,
    ) {
        if !config.observation.enable {
            return;
        }
        let nl = cx.netlist();
        let gates = nl.gates().filter(|g| g.kind != GateKind::Input).count();
        if gates < config.observation.min_gates {
            return;
        }
        let density = nl.outputs().len() as f64 / gates as f64;
        if density > config.observation.density_threshold {
            findings.push(Finding::new(
                CheckKind::ObservationDensity,
                Severity::Warn,
                self.name(),
                format!(
                    "{} of {gates} logic cells observed at outputs (density {density:.2})",
                    nl.outputs().len()
                ),
            ));
        }
    }
}
