//! The clock-taint dataflow pass.

use crate::analysis::Analysis;
use crate::config::CheckerConfig;
use crate::diag::{span_of, CheckKind, Finding, Severity};
use crate::pass::{Pass, Prior};
use crate::semantic::{Taint, DEPTH_UNREACHED};
use slm_netlist::NetId;

/// Flags designs where clock-rate toggling propagates *through real
/// logic* and converges on wide observation fan-in at the tenant's
/// outputs — the dataflow shape of every power sensor in the paper,
/// independent of topology.
///
/// This is the semantic counterpart of the structural clock-as-data
/// name screen: that pass keys on what the clock pin is *called*, so
/// renaming `clk` to `sense` defeats it. Here the seeds come from the
/// interface contract ([`crate::TaintConfig::declared_clocks`] — the
/// shell owns clock routing, so the provider knows the pin roles at
/// admission time) as well as from names and from self-oscillating
/// loops, and a worklist fixpoint follows the toggling wherever the
/// dataflow carries it.
pub struct ClockTaintPass;

impl Pass for ClockTaintPass {
    fn name(&self) -> &'static str {
        "clock-taint"
    }

    fn description(&self) -> &'static str {
        "clock-rate toggling reaching outputs through logic (dataflow fixpoint)"
    }

    fn run(
        &self,
        cx: &Analysis<'_>,
        config: &CheckerConfig,
        _prior: &Prior<'_>,
        findings: &mut Vec<Finding>,
    ) {
        let nl = cx.netlist();
        let facts = cx.taint(config);
        if facts.seeds.is_empty() {
            return;
        }
        let tainted: Vec<NetId> = nl
            .outputs()
            .iter()
            .map(|&(_, o)| o)
            .filter(|o| facts.taint[o.index()] == Taint::ClockRate)
            .collect();
        if tainted.is_empty() {
            return;
        }
        // Only outputs reached through at least `min_logic_depth`
        // non-buffer gates count as *sensing*; pure buffer feed-through
        // of a clock is routing, not observation.
        let through_logic: Vec<NetId> = tainted
            .iter()
            .copied()
            .filter(|o| {
                let d = facts.depth[o.index()];
                d != DEPTH_UNREACHED && d as usize >= config.taint.min_logic_depth
            })
            .collect();
        if through_logic.len() >= config.taint.min_observed {
            // An empty group (`min_observed = 0`) has no witness and
            // nothing converging to report.
            let Some(deepest) = through_logic
                .iter()
                .copied()
                .max_by_key(|o| facts.depth[o.index()])
            else {
                return;
            };
            findings.push(
                Finding::new(
                    CheckKind::ClockTaint,
                    Severity::Reject,
                    self.name(),
                    format!(
                        "clock-rate transitions converge on {} of {} outputs through \
                         combinational logic (max depth {}, {} clock seeds)",
                        through_logic.len(),
                        nl.outputs().len(),
                        facts.depth[deepest.index()],
                        facts.seeds.len(),
                    ),
                )
                .with_witness(deepest)
                .with_span(span_of(nl, &through_logic)),
            );
        } else {
            findings.push(
                Finding::new(
                    CheckKind::ClockTaint,
                    Severity::Info,
                    self.name(),
                    format!(
                        "{} output(s) carry clock-rate taint ({} through logic) — \
                         below the {}-output convergence threshold",
                        tainted.len(),
                        through_logic.len(),
                        config.taint.min_observed,
                    ),
                )
                .with_witness(tainted[0])
                .with_span(span_of(nl, &tainted)),
            );
        }
    }
}
