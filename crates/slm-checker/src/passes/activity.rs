//! The static switching-activity estimator pass.

use crate::analysis::Analysis;
use crate::config::CheckerConfig;
use crate::diag::{span_of, CheckKind, Finding, Severity};
use crate::pass::{Pass, Prior};
use crate::semantic::compute_activity;
use slm_netlist::NetId;
use std::cmp::Ordering;

/// Estimates per-net transition densities and glitch bounds, then
/// raises power-proxy findings:
///
/// * **clock-driven taps** — outputs whose *clock-attributable* glitch
///   bound clears [`crate::ActivityConfig::tap_threshold`]; enough of
///   them is a rejection, because clock toggling observable at many
///   outputs every cycle is exactly the paper's sensing channel;
/// * **SCOAP upgrade** — the heuristic sensor-likeness `Warn` from the
///   `scoap-sensor` pass is upgraded to a `Reject` when the summed
///   worst-case glitch bound over the flagged endpoint group is high
///   enough to carry a usable power proxy, with the witness path of
///   the strongest endpoint attached;
/// * **reconvergence note** — an `Info` record of the worst glitch
///   amplification (XOR-heavy reconvergent fanout), the region a power
///   *emitter* would occupy.
pub struct SwitchingActivityPass;

/// Walks the highest-glitch fanin chain below `from`, producing a
/// witness path (output first).
fn glitch_path(cx: &Analysis<'_>, glitch: &[f64], from: NetId) -> Vec<NetId> {
    let nl = cx.netlist();
    let mut path = vec![from];
    let mut at = from;
    while path.len() < crate::diag::MAX_SPAN_NETS {
        let g = nl.gate(at);
        let Some(&next) = g
            .fanin
            .iter()
            .max_by(|a, b| glitch[a.index()].total_cmp(&glitch[b.index()]))
        else {
            break;
        };
        path.push(next);
        at = next;
    }
    path
}

impl Pass for SwitchingActivityPass {
    fn name(&self) -> &'static str {
        "switching-activity"
    }

    fn description(&self) -> &'static str {
        "transition-density / glitch power proxy (upgrades SCOAP sensor-likeness)"
    }

    fn depends_on(&self) -> &'static [&'static str] {
        &["scoap-sensor"]
    }

    fn run(
        &self,
        cx: &Analysis<'_>,
        config: &CheckerConfig,
        prior: &Prior<'_>,
        findings: &mut Vec<Finding>,
    ) {
        let nl = cx.netlist();
        let Some(facts) = compute_activity(cx, config, cx.taint(config)) else {
            return; // cyclic: the loop pass already rejects
        };
        // Clock-driven observation taps.
        let taps: Vec<NetId> = nl
            .outputs()
            .iter()
            .map(|&(_, o)| o)
            .filter(|o| facts.clock_glitch[o.index()] >= config.activity.tap_threshold)
            .collect();
        // An empty group has no witness, even when `min_taps = 0`.
        let strongest = taps
            .iter()
            .copied()
            .max_by(|a, b| facts.clock_glitch[a.index()].total_cmp(&facts.clock_glitch[b.index()]))
            .filter(|_| taps.len() >= config.activity.min_taps);
        if let Some(strongest) = strongest {
            findings.push(
                Finding::new(
                    CheckKind::SwitchingActivity,
                    Severity::Reject,
                    self.name(),
                    format!(
                        "clock-driven switching observable at {} of {} outputs \
                         (peak {:.1} transitions/cycle attributable to the clock)",
                        taps.len(),
                        nl.outputs().len(),
                        facts.clock_glitch[strongest.index()],
                    ),
                )
                .with_witness(strongest)
                .with_span(span_of(nl, &taps)),
            );
        }
        // SCOAP upgrade: heuristic Warn + high power proxy = Reject.
        for scoap in prior.findings_of("scoap-sensor") {
            if scoap.kind != CheckKind::SensorLikeEndpoints || scoap.severity != Severity::Warn {
                continue;
            }
            let endpoints: Vec<NetId> = scoap.span.iter().map(|s| s.net).collect();
            let total: f64 = endpoints
                .iter()
                .map(|o| facts.glitch[o.index()])
                .sum::<f64>()
                .min(crate::semantic::GLITCH_CAP);
            if total < config.activity.scoap_upgrade_glitch {
                continue;
            }
            let Some(strongest) = endpoints
                .iter()
                .copied()
                .max_by(|a, b| facts.glitch[a.index()].total_cmp(&facts.glitch[b.index()]))
            else {
                continue;
            };
            findings.push(
                Finding::new(
                    CheckKind::SwitchingActivity,
                    Severity::Reject,
                    self.name(),
                    format!(
                        "sensor-like endpoint group carries a {total:.1} transitions/cycle \
                         worst-case power proxy — upgrading SCOAP heuristic to reject \
                         (witness path from the strongest endpoint)",
                    ),
                )
                .with_witness(strongest)
                .with_span(span_of(nl, &glitch_path(cx, &facts.glitch, strongest))),
            );
        }
        // Reconvergence / glitch-amplification note.
        // The last net of the largest ratio, as `max_by` picks.
        let worst = (0..nl.len())
            .filter(|&i| facts.density[i] > 0.0)
            .map(|i| (i, facts.glitch[i] / facts.density[i]))
            .reduce(|best, next| match best.1.total_cmp(&next.1) {
                Ordering::Greater => best,
                _ => next,
            });
        if let Some((worst, amp)) = worst {
            if amp >= config.activity.info_amplification {
                findings.push(
                    Finding::new(
                        CheckKind::SwitchingActivity,
                        Severity::Info,
                        self.name(),
                        format!(
                            "glitch amplification bound {amp:.0}x at net {} — XOR-heavy \
                             reconvergent fanout (power-emitter shaped region)",
                            NetId(worst as u32),
                        ),
                    )
                    .with_witness(NetId(worst as u32)),
                );
            }
        }
    }
}
