//! Timing, floorplan and ATPG studies (paper Figs. 3/4 and the
//! Section VI discussion points).

use serde::{Deserialize, Serialize};
use slm_atpg::{FoundStimulus, Objective, StimulusSearch};
use slm_checker::{check_timing, CheckKind};
use slm_fabric::floorplan::{CellKind, Floorplan, Rect};
use slm_fabric::{BenignCircuit, FabricError};
use slm_netlist::generators::ripple_carry_adder;
use slm_netlist::words;
use slm_timing::{simulate_transition, DelayModel};

/// One circuit's timing-audit row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingVerdict {
    /// Circuit name.
    pub name: String,
    /// STA fmax, MHz.
    pub fmax_mhz: f64,
    /// Meets the 50 MHz synthesis clock.
    pub meets_synth_clock: bool,
    /// Meets the 300 MHz overclock.
    pub meets_overclock: bool,
    /// Whether a strict timing check at 300 MHz flags the design.
    pub strict_check_fires: bool,
}

/// The strict-timing study of Section VI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingAudit {
    /// Per-circuit verdicts.
    pub rows: Vec<TimingVerdict>,
}

/// Runs STA + strict timing checks on both benign circuits.
///
/// # Errors
///
/// Propagates circuit generation and timing failures.
pub fn timing_audit(achieved_critical_ns: f64) -> Result<TimingAudit, FabricError> {
    let mut rows = Vec::new();
    for circuit in [BenignCircuit::Alu192, BenignCircuit::DualC6288] {
        let built = circuit.build()?;
        let ann =
            DelayModel::default().annotate_for_period(&built.netlist, achieved_critical_ns, 1.0)?;
        let sta = ann.sta()?;
        rows.push(TimingVerdict {
            name: circuit.name().to_string(),
            fmax_mhz: sta.fmax_mhz(),
            meets_synth_clock: sta.meets_timing(50.0),
            meets_overclock: sta.meets_timing(300.0),
            strict_check_fires: check_timing(&ann, 300.0).flagged(CheckKind::TimingOverclock),
        });
    }
    Ok(TimingAudit { rows })
}

/// Rendered floorplan data (Figs. 3/4 content).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FloorplanView {
    /// Circuit name.
    pub name: String,
    /// ASCII rendering of the placed fabric.
    pub ascii: String,
    /// Packing density (cells per bounding-box area) of the benign logic.
    pub benign_density: f64,
    /// Packing density of the TDC cells.
    pub tdc_density: f64,
    /// Number of sensitive-endpoint cells marked.
    pub sensitive_cells: usize,
}

/// Places a benign circuit, a TDC, the AES victim and the RO array on
/// the CLB grid and renders the result.
///
/// `sensitive_endpoints` should come from a census run (Figs. 7/15);
/// that many benign cells are marked red.
///
/// # Errors
///
/// Propagates circuit generation failures.
pub fn floorplan_views(
    circuit: BenignCircuit,
    sensitive_endpoints: usize,
    seed: u64,
) -> Result<FloorplanView, FabricError> {
    let built = circuit.build()?;
    // ~8 gates per CLB, capped at a third of the tenant region so large
    // circuits still render as a scatter rather than a solid block.
    let gate_cells = (built.netlist.len() / 8).clamp(32, 22 * 46 / 3);
    let mut fp = Floorplan::zynq7020();
    // Tenant layout mirroring Fig. 3: attacker region holds the benign
    // circuit and the reference TDC; victim region holds AES; RO array
    // fills its own block.
    fp.column(
        Rect {
            x: 1,
            y: 2,
            w: 2,
            h: 40,
        },
        CellKind::Tdc,
        64,
    );
    fp.scatter(
        Rect {
            x: 6,
            y: 2,
            w: 22,
            h: 46,
        },
        CellKind::BenignLogic,
        gate_cells.min(22 * 46),
        seed,
    );
    fp.scatter(
        Rect {
            x: 30,
            y: 2,
            w: 9,
            h: 46,
        },
        CellKind::Aes,
        220,
        seed ^ 1,
    );
    fp.scatter(
        Rect {
            x: 41,
            y: 2,
            w: 8,
            h: 46,
        },
        CellKind::Ro,
        300,
        seed ^ 2,
    );
    let marked = fp.mark_sensitive(sensitive_endpoints, seed ^ 3);
    Ok(FloorplanView {
        name: circuit.name().to_string(),
        benign_density: fp.density(CellKind::BenignLogic),
        tdc_density: fp.density(CellKind::Tdc),
        sensitive_cells: marked,
        ascii: fp.render_ascii(),
    })
}

/// Results of the ATPG stimulus study (the Section VI extension).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AtpgStudy {
    /// Settle time at the target endpoint under the hand-crafted
    /// carry stimulus, ps.
    pub hand_settle_ps: f64,
    /// The stimulus found automatically.
    pub found: FoundStimulus,
    /// found.score / hand_settle_ps — ≥ 1 means the search matched or
    /// beat the human pattern.
    pub ratio: f64,
}

/// Compares the paper's hand-crafted adder stimulus against automatic
/// stimulus search on an `n`-bit ripple-carry adder.
///
/// # Errors
///
/// Propagates generation/timing failures.
pub fn atpg_stimulus_study(n: usize, restarts: usize, seed: u64) -> Result<AtpgStudy, FabricError> {
    let nl = ripple_carry_adder(n)?;
    let ann = DelayModel::default().annotate(&nl);
    let mut reset = words::to_bits(0, n);
    reset.extend(words::to_bits(0, n));
    let mut measure = words::to_bits((1u128 << n) - 1, n);
    measure.extend(words::to_bits(1, n));
    let hand = simulate_transition(&ann, &reset, &measure)?;
    let hand_settle_ps = hand.output_waves()[n - 1].settle_time_fs() as f64 / 1000.0;
    let search = StimulusSearch::new(&ann, Objective::MaxSettleTime { endpoint: n - 1 });
    let found = search.run(restarts, seed);
    let ratio = found.score / hand_settle_ps;
    Ok(AtpgStudy {
        hand_settle_ps,
        found,
        ratio,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_audit_shows_the_overclock_gap() {
        let audit = timing_audit(5.2).unwrap();
        for row in &audit.rows {
            assert!(row.meets_synth_clock, "{row:?}");
            assert!(!row.meets_overclock, "{row:?}");
            assert!(row.strict_check_fires, "{row:?}");
            assert!(row.fmax_mhz > 50.0 && row.fmax_mhz < 300.0);
        }
    }

    #[test]
    fn floorplan_view_scatters_benign_compacts_tdc() {
        let v = floorplan_views(BenignCircuit::DualC6288, 49, 11).unwrap();
        assert!(v.tdc_density > 2.0 * v.benign_density, "{v:?}");
        assert_eq!(v.sensitive_cells, 49);
        assert!(v.ascii.contains('S'));
        assert!(v.ascii.contains('T'));
        assert!(v.ascii.contains("legend"));
    }

    #[test]
    fn atpg_matches_hand_stimulus_on_small_adder() {
        let study = atpg_stimulus_study(10, 40, 5).unwrap();
        assert!(
            study.ratio >= 0.8,
            "search reached only {:.0}% of the hand pattern",
            study.ratio * 100.0
        );
    }
}
