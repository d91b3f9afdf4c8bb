//! The strict timing check.

use crate::analysis::Analysis;
use crate::config::CheckerConfig;
use crate::diag::{span_of, CheckKind, CheckReport, Finding, Severity};
use crate::pass::{Pass, Prior};
use crate::passes::SccLoopPass;
use slm_netlist::{GateKind, NetId, Netlist};
use slm_timing::{AnnotatedDelays, DelayModel};

/// Maximum number of gate-kind hops spelled out in the critical-path
/// witness text (the full net list is in the span regardless).
const MAX_CHAIN_TEXT: usize = 12;

/// Renders the critical path as a gate-kind chain, e.g.
/// `INPUT→XOR→AND→OR→…→XOR`, so a timing rejection is debuggable
/// straight from the JSON report.
fn gate_chain(nl: &Netlist, nets: &[NetId]) -> String {
    let label = |id: NetId| match nl.kind(id) {
        GateKind::Input => "INPUT",
        GateKind::And => "AND",
        GateKind::Nand => "NAND",
        GateKind::Or => "OR",
        GateKind::Nor => "NOR",
        GateKind::Xor => "XOR",
        GateKind::Xnor => "XNOR",
        GateKind::Not => "NOT",
        GateKind::Buf => "BUF",
        GateKind::Const0 => "CONST0",
        GateKind::Const1 => "CONST1",
    };
    if nets.len() <= MAX_CHAIN_TEXT {
        nets.iter()
            .map(|&id| label(id))
            .collect::<Vec<_>>()
            .join("\u{2192}")
    } else {
        let head: Vec<&str> = nets[..MAX_CHAIN_TEXT - 2]
            .iter()
            .map(|&id| label(id))
            .collect();
        format!(
            "{}\u{2192}\u{2026}\u{2192}{}",
            head.join("\u{2192}"),
            label(*nets.last().expect("nonempty path")),
        )
    }
}

/// The strict timing pass: flags a design whose requested clock beats
/// its STA fmax. Needs the delay annotation and the tenant's clock
/// request — information a structural bitstream scan does not have,
/// which is exactly the gap the paper exploits.
///
/// An overclock rejection carries the critical path twice: as a
/// machine-readable span (like every structural pass) and as a
/// human-readable gate chain in the detail text.
///
/// On a cyclic netlist (where STA is undefined) the verdict is routed
/// through the SCC oscillation pass, so the report carries the loop
/// witness nets and sizes instead of a bare "timing undefined".
pub fn check_timing(ann: &AnnotatedDelays, requested_mhz: f64) -> CheckReport {
    let nl = ann.netlist();
    let mut report = CheckReport::for_netlist(nl);
    match ann.sta() {
        Ok(sta) => {
            if !sta.meets_timing(requested_mhz) {
                let path = sta.critical_path(nl);
                let nets: Vec<_> = path.iter().map(|seg| seg.net).collect();
                let mut finding = Finding::new(
                    CheckKind::TimingOverclock,
                    Severity::Reject,
                    "timing",
                    format!(
                        "requested {requested_mhz:.1} MHz exceeds fmax {:.1} MHz \
                         (critical path: {} nets, {:.0} ps, gate chain {})",
                        sta.fmax_mhz(),
                        nets.len(),
                        sta.critical_ps(),
                        gate_chain(nl, &nets),
                    ),
                )
                .with_span(span_of(nl, &nets));
                finding.witness = nets.last().copied();
                report.findings.push(finding);
            }
        }
        Err(_) => {
            let cx = Analysis::new(nl);
            SccLoopPass.run(
                &cx,
                &CheckerConfig::default(),
                &Prior::empty(),
                &mut report.findings,
            );
        }
    }
    report
}

/// [`check_timing`] as the last pass of the admission pipeline: with
/// [`TimingConfig::clock_mhz`](crate::TimingConfig::clock_mhz) set it
/// annotates the netlist with the default delay model and checks the
/// requested clock against STA fmax; with no clock it reports nothing.
/// Running inside the [`PassManager`](crate::PassManager) puts the
/// verdict under the same scan key and cache as every other pass.
///
/// A cyclic netlist has no STA, and its loops are the `comb-loop`
/// pass's verdict, so the pass reports nothing there and annotates no
/// delays: routing through [`check_timing`] would report every loop a
/// second time.
pub struct StrictTimingPass;

impl Pass for StrictTimingPass {
    fn name(&self) -> &'static str {
        "timing"
    }

    fn description(&self) -> &'static str {
        "strict timing: requested clock against STA fmax"
    }

    fn run(
        &self,
        cx: &Analysis<'_>,
        config: &CheckerConfig,
        _prior: &Prior<'_>,
        findings: &mut Vec<Finding>,
    ) {
        if !cx.loops().is_empty() {
            return;
        }
        if let Some(mhz) = config.timing.clock_mhz {
            let ann = DelayModel::default().annotate(cx.netlist());
            findings.extend(check_timing(&ann, mhz).findings);
        }
    }
}
