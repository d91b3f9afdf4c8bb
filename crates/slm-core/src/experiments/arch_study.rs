//! Architecture study: which circuit structures make good stealthy
//! sensors?
//!
//! Section VI of the paper argues the attack generalizes to "any path
//! longer than those for control flow"; this extension quantifies that
//! over arithmetic architectures. Every circuit is mapped with the same
//! delay model (same "fabric") and scored across a *sweep* of capture
//! clocks. Two properties emerge:
//!
//! * flat architectures (lookahead/select adders, Wallace trees)
//!   compress endpoint arrivals into a narrow cluster — plenty of
//!   sensor bits, but only if the attacker's clock hits that cluster;
//! * deep serial structures (ripple carry, array multipliers) spread
//!   arrivals across a wide span, so *some* endpoints are usable at
//!   almost any overclock — the "plug and play" property that makes the
//!   paper's ALU the convenient choice.

use serde::{Deserialize, Serialize};
use slm_atpg::{Objective, StimulusSearch};
use slm_fabric::FabricError;
use slm_netlist::generators::{
    array_multiplier, carry_lookahead_adder, carry_select_adder, kogge_stone_adder,
    ripple_carry_adder, wallace_multiplier,
};
use slm_netlist::{words, Netlist};
use slm_timing::{simulate_transition, DelayModel};

/// Sensor-quality metrics for one architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchRow {
    /// Architecture name.
    pub name: String,
    /// Gate count.
    pub gates: usize,
    /// Logic depth (levels).
    pub depth: usize,
    /// STA fmax under the shared delay model, MHz.
    pub fmax_mhz: f64,
    /// Observable endpoints.
    pub endpoints: usize,
    /// Usable sensor bits per swept capture period (±10 % window),
    /// in sweep order.
    pub usable_per_period: Vec<usize>,
    /// Peak usable-bit count over the sweep.
    pub best_count: usize,
    /// Number of swept periods with at least 2 usable bits — the
    /// "tunability" of the circuit as a sensor.
    pub usable_periods: usize,
}

/// The full study result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchStudy {
    /// One row per architecture, in fixed order: rca, cla, csel, ks,
    /// array, wallace.
    pub rows: Vec<ArchRow>,
    /// Swept capture periods, ps.
    pub sweep_ps: Vec<f64>,
}

impl ArchStudy {
    /// Row lookup by name.
    #[cfg(test)]
    fn row(&self, name: &str) -> Option<&ArchRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

fn adder_stimulus(n: usize) -> (Vec<bool>, Vec<bool>) {
    let mut reset = words::to_bits(0, n);
    reset.extend(words::to_bits(0, n));
    let mut measure = vec![true; n];
    measure.extend(words::to_bits(1, n));
    (reset, measure)
}

fn score(
    nl: &Netlist,
    stimulus: Option<(Vec<bool>, Vec<bool>)>,
    model: &DelayModel,
    sweep_ps: &[f64],
    window_frac: f64,
    seed: u64,
) -> Result<ArchRow, FabricError> {
    let ann = model.annotate(nl);
    let sta = ann.sta()?;
    let (reset, measure) = match stimulus {
        Some(pair) => pair,
        None => {
            // multipliers: search a pair that maximizes activity across
            // the middle of the circuit's own delay range
            let crit = sta.critical_ps();
            let search = StimulusSearch::new(
                &ann,
                Objective::MaxActiveEndpoints {
                    window_lo_ps: 0.2 * crit,
                    window_hi_ps: 0.9 * crit,
                },
            );
            let found = search.run(3, seed);
            (found.reset, found.measure)
        }
    };
    let waves = simulate_transition(&ann, &reset, &measure)?;
    let outs = waves.output_waves();
    let usable_per_period: Vec<usize> = sweep_ps
        .iter()
        .map(|&capture_ps| {
            let lo = ((capture_ps * (1.0 - window_frac)) * 1000.0) as u64;
            let hi = ((capture_ps * (1.0 + window_frac)) * 1000.0) as u64;
            outs.iter()
                .filter(|w| w.transitions.iter().any(|&(t, _)| t >= lo && t <= hi))
                .count()
        })
        .collect();
    let stats = nl.stats()?;
    Ok(ArchRow {
        name: nl.name().to_string(),
        gates: stats.gates,
        depth: stats.depth,
        fmax_mhz: sta.fmax_mhz(),
        endpoints: nl.outputs().len(),
        best_count: usable_per_period.iter().copied().max().unwrap_or(0),
        usable_periods: usable_per_period.iter().filter(|&&c| c >= 2).count(),
        usable_per_period,
    })
}

/// Runs the architecture study at the paper's 300 MHz capture clock.
///
/// # Errors
///
/// Propagates generation and timing failures.
pub fn architecture_study(seed: u64) -> Result<ArchStudy, FabricError> {
    // sweep capture periods from 1 ns to 16 ns (1 GHz down to 62.5 MHz)
    let sweep_ps: Vec<f64> = (4..=64).map(|k| k as f64 * 250.0).collect();
    let window_frac = 0.10;
    let model = DelayModel::default();
    let n = 64; // common adder width; multipliers 16×16
    let rows = vec![
        score(
            &ripple_carry_adder(n)?,
            Some(adder_stimulus(n)),
            &model,
            &sweep_ps,
            window_frac,
            seed,
        )?,
        score(
            &carry_lookahead_adder(n)?,
            Some(adder_stimulus(n)),
            &model,
            &sweep_ps,
            window_frac,
            seed,
        )?,
        score(
            &carry_select_adder(n)?,
            Some(adder_stimulus(n)),
            &model,
            &sweep_ps,
            window_frac,
            seed,
        )?,
        score(
            &kogge_stone_adder(n)?,
            Some(adder_stimulus(n)),
            &model,
            &sweep_ps,
            window_frac,
            seed,
        )?,
        score(
            &array_multiplier(16)?,
            None,
            &model,
            &sweep_ps,
            window_frac,
            seed,
        )?,
        score(
            &wallace_multiplier(16)?,
            None,
            &model,
            &sweep_ps,
            window_frac,
            seed,
        )?,
    ];
    Ok(ArchStudy { rows, sweep_ps })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_structures_are_tunable_everywhere() {
        let study = architecture_study(3).unwrap();
        assert_eq!(study.rows.len(), 6);
        let ks = study.row("ks64").unwrap();
        let rca = study.row("rca64").unwrap();
        let cla = study.row("cla64").unwrap();
        let array = study.row("mul16x16").unwrap();
        let wallace = study.row("wallace16x16").unwrap();
        let csel = study.row("csel64").unwrap();
        // deep/serial structures are usable across most of the sweep;
        // truly flat ones (carry-select, Wallace) only in a narrow band
        assert!(
            rca.usable_periods > 2 * csel.usable_periods,
            "rca {} vs csel {}",
            rca.usable_periods,
            csel.usable_periods
        );
        assert!(
            array.usable_periods > 2 * wallace.usable_periods,
            "array {} vs wallace {}",
            array.usable_periods,
            wallace.usable_periods
        );
        // the flip side: flat architectures concentrate more usable bits
        // at their sweet spot
        assert!(csel.best_count > rca.best_count);
        // group-serial CLA behaves like the RCA (wide band)
        assert!(cla.usable_periods > 2 * csel.usable_periods);
        // the log-depth Kogge-Stone is the narrowest of the adders
        assert!(
            ks.usable_periods < rca.usable_periods,
            "ks {} vs rca {}",
            ks.usable_periods,
            rca.usable_periods
        );
        // fmax ordering is the inverse of depth
        assert!(cla.fmax_mhz > rca.fmax_mhz);
        assert!(wallace.fmax_mhz > array.fmax_mhz);
        for row in &study.rows {
            assert!(row.gates > 0 && row.depth > 0);
            assert!(row.best_count <= row.endpoints);
            assert_eq!(row.usable_per_period.len(), study.sweep_ps.len());
        }
    }
}
