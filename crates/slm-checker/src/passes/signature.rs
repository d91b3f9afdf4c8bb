//! Subgraph-signature matching for known-bad motifs.

use crate::analysis::Analysis;
use crate::config::CheckerConfig;
use crate::diag::{span_of, CheckKind, Finding, Severity};
use crate::pass::{Pass, Prior};
use slm_netlist::{GateKind, NetId};

/// Matches the two known-bad sensor motifs even when obfuscated with
/// interposed buffers:
///
/// * **Ring-oscillator cell** — a combinational loop in which every
///   member has exactly one in-loop fanin (a simple cycle) and the
///   total inversion is odd, regardless of how many buffers pad the
///   ring.
/// * **Tapped delay chain** — a long path of *observed* nets (each
///   driving a primary output, possibly through buffers) with at most a
///   small amount of unobserved logic between consecutive taps. This is
///   the shape of every TDC: the plain buffer line, the identity-gate
///   obfuscation, and the carry-chain-as-TDC all reduce to it on the
///   buffer-collapsed graph.
pub struct SignaturePass;

impl SignaturePass {
    fn match_rings(&self, cx: &Analysis<'_>, config: &CheckerConfig, findings: &mut Vec<Finding>) {
        let nl = cx.netlist();
        let mut in_comp = vec![false; nl.len()];
        let mut reported = 0usize;
        let mut skipped = 0usize;
        for comp in cx.loops() {
            for &id in comp {
                in_comp[id.index()] = true;
            }
            let simple_cycle = comp.iter().all(|&id| {
                let mut seen: Option<NetId> = None;
                let mut distinct = 0usize;
                for &f in nl.gate(id).fanin {
                    if in_comp[f.index()] && seen != Some(f) {
                        seen = Some(f);
                        distinct += 1;
                    }
                }
                distinct == 1
            });
            let stages = comp
                .iter()
                .filter(|&&id| nl.kind(id) != GateKind::Buf)
                .count();
            let inverting = comp
                .iter()
                .filter(|&&id| nl.kind(id).is_inverting())
                .count();
            for &id in comp {
                in_comp[id.index()] = false;
            }
            if !(simple_cycle && stages >= config.signature.min_ring_stages && inverting % 2 == 1) {
                continue;
            }
            if reported == config.signature.max_reported {
                skipped += 1;
                continue;
            }
            reported += 1;
            findings.push(
                Finding::new(
                    CheckKind::KnownBadMotif,
                    Severity::Reject,
                    self.name(),
                    format!(
                        "ring-oscillator motif: {stages} logic stages, {} interposed buffers, \
                         odd inversion",
                        comp.len() - stages
                    ),
                )
                .with_witness(comp[0])
                .with_span(span_of(nl, comp)),
            );
        }
        if skipped > 0 {
            findings.push(Finding::new(
                CheckKind::KnownBadMotif,
                Severity::Reject,
                self.name(),
                format!("{skipped} further ring-oscillator motifs beyond signature.max_reported"),
            ));
        }
    }

    fn match_tapped_chain(
        &self,
        cx: &Analysis<'_>,
        config: &CheckerConfig,
        findings: &mut Vec<Finding>,
    ) {
        let nl = cx.netlist();
        // Cyclic designs never reach a meaningful topological order; the
        // ring matcher and the loop pass own that territory.
        let Ok(order) = nl.topological_order() else {
            return;
        };
        let collapsed = cx.collapsed();
        let n = nl.len();
        // An "anchor" is a net that is observed at a primary output once
        // buffers are collapsed away — the tap points of a sensor.
        let mut anchor = vec![false; n];
        for &(_, o) in nl.outputs() {
            anchor[collapsed[o.index()].index()] = true;
        }
        let gap = config.signature.max_unobserved_gap as u32;
        const FAR: u32 = u32::MAX;
        // Marks "no anchor" in `last` and `parent`.
        const NONE: u32 = u32::MAX;
        // Longest anchor-chain ending at each net's most recent anchor,
        // with the count of unobserved non-buffer gates since it.
        let mut chain = vec![0u32; n];
        let mut hops = vec![FAR; n];
        let mut last = vec![NONE; n];
        let mut parent = vec![NONE; n];
        let mut best: Option<NetId> = None;
        for v in order {
            let g = nl.gate(v);
            let mut c_chain = 0u32;
            let mut c_hops = FAR;
            let mut c_last = NONE;
            for &f in g.fanin {
                let (fc, fh) = (chain[f.index()], hops[f.index()]);
                if fc > c_chain || (fc == c_chain && fh < c_hops) {
                    c_chain = fc;
                    c_hops = fh;
                    c_last = last[f.index()];
                }
            }
            let vi = v.index();
            if anchor[vi] {
                if c_chain >= 1 && c_hops <= gap {
                    chain[vi] = c_chain + 1;
                    parent[vi] = c_last;
                } else {
                    chain[vi] = 1;
                }
                hops[vi] = 0;
                last[vi] = v.0;
                if best.is_none_or(|b| chain[b.index()] < chain[vi]) {
                    best = Some(v);
                }
            } else if c_chain >= 1 {
                let grown = if g.kind == GateKind::Buf {
                    c_hops
                } else {
                    c_hops.saturating_add(1)
                };
                if grown <= gap {
                    chain[vi] = c_chain;
                    hops[vi] = grown;
                    last[vi] = c_last;
                }
            }
        }
        let Some(end) = best else { return };
        let length = chain[end.index()] as usize;
        if length < config.signature.min_chain_stages {
            return;
        }
        // Reconstruct the observed stages, oldest first.
        let mut stages = Vec::with_capacity(length);
        let mut cur = end.0;
        while cur != NONE {
            stages.push(NetId(cur));
            cur = parent[cur as usize];
        }
        stages.reverse();
        findings.push(
            Finding::new(
                CheckKind::KnownBadMotif,
                Severity::Reject,
                self.name(),
                format!(
                    "tapped delay-chain motif: {length} observed stages, \
                     at most {gap} unobserved gates between taps"
                ),
            )
            .with_witness(end)
            .with_span(span_of(nl, &stages)),
        );
    }
}

impl Pass for SignaturePass {
    fn name(&self) -> &'static str {
        "signature"
    }

    fn description(&self) -> &'static str {
        "known-bad subgraph motifs (RO cell, tapped delay chain) modulo buffers"
    }

    fn run(
        &self,
        cx: &Analysis<'_>,
        config: &CheckerConfig,
        _prior: &Prior<'_>,
        findings: &mut Vec<Finding>,
    ) {
        self.match_rings(cx, config, findings);
        self.match_tapped_chain(cx, config, findings);
    }
}
