//! Tapped delay-line (TDC) detection.

use crate::analysis::Analysis;
use crate::config::CheckerConfig;
use crate::diag::{span_of, CheckKind, Finding, Severity};
use crate::pass::{Pass, Prior};
use slm_netlist::{GateKind, NetId};

/// Walks maximal chains of single-fanin `BUF`/`NOT` cells and flags
/// chains that are long and densely observed — the TDC structure of
/// Krautter et al. / FPGADefender's delay-line rule.
///
/// Chain successors come from the shared [`Analysis`] fanout index, so
/// the walk is O(nets + edges) overall; the previous implementation
/// rescanned every gate per chain step, which was quadratic on long
/// lines (the `delay_line_pass_flags_a_50k_stage_line` test guards
/// the fix).
pub struct DelayLinePass;

impl Pass for DelayLinePass {
    fn name(&self) -> &'static str {
        "delay-line"
    }

    fn description(&self) -> &'static str {
        "long, densely tapped buffer/inverter chains (TDC sensors)"
    }

    fn run(
        &self,
        cx: &Analysis<'_>,
        config: &CheckerConfig,
        _prior: &Prior<'_>,
        findings: &mut Vec<Finding>,
    ) {
        let nl = cx.netlist();
        let is_chain_cell = |id: NetId| {
            matches!(nl.kind(id), GateKind::Buf | GateKind::Not) && nl.gate(id).fanin.len() == 1
        };
        let mut visited = vec![false; nl.len()];
        for start in 0..nl.len() {
            let sid = NetId(start as u32);
            if visited[start] || !is_chain_cell(sid) {
                continue;
            }
            // Only start from chain heads (predecessor is not a chain cell).
            if is_chain_cell(nl.gate(sid).fanin[0]) {
                continue;
            }
            // Follow the chain forward via the fanout index.
            let mut chain = vec![sid];
            visited[start] = true;
            let mut cur = sid;
            while let Some(&next) = cx
                .fanout()
                .fanouts(cur)
                .iter()
                .find(|&&g| is_chain_cell(g) && !visited[g.index()])
            {
                visited[next.index()] = true;
                chain.push(next);
                cur = next;
            }
            if chain.len() < config.delay_line.min_stages {
                continue;
            }
            let taps = chain.iter().filter(|&&id| cx.is_output(id)).count();
            let frac = taps as f64 / chain.len() as f64;
            if frac >= config.delay_line.min_tap_fraction {
                findings.push(
                    Finding::new(
                        CheckKind::DelayLineSensor,
                        Severity::Reject,
                        self.name(),
                        format!("tapped delay line of {} stages ({taps} taps)", chain.len()),
                    )
                    .with_witness(chain[0])
                    .with_span(span_of(nl, &chain)),
                );
            }
        }
    }
}
