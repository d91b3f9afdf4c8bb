//! The detection matrix: every structural and semantic pass against
//! every zoo design, plus the strict timing column for the paper's two
//! sensors.
//!
//! This is the reproduction's analogue of the paper's structural-check
//! evasion table, extended with the semantic tier. It asserts the
//! stealth claim end to end:
//!
//! * every malicious-by-construction specimen (ring oscillators, RO
//!   grids, plain/obfuscated TDCs, the carry-chain TDC, clock misuse)
//!   is caught by at least one structural pass,
//! * the declared-clock carry sensor evades *every* structural pass
//!   and is caught only by the semantic suite (clock-taint dataflow,
//!   switching activity, observation bandwidth),
//! * the ALU(192) and dual-C6288 sensors come through every structural
//!   **and** semantic pass clean and are flagged only by the strict
//!   timing check at the 300 MHz overclock.

use serde::{Deserialize, Serialize};
use slm_checker::{
    check_timing, CheckKind, CheckReport, CheckerConfig, PassManager, Severity, TaintConfig,
};
use slm_fabric::FabricError;
use slm_netlist::generators::zoo;
use slm_obs::Obs;
use slm_timing::DelayModel;

/// The two benign-logic sensor designs that carry the timing column.
const SENSOR_DESIGNS: [&str; 2] = ["alu192", "dual_c6288"];

/// The overclock frequency the strict check must catch, MHz.
const OVERCLOCK_MHZ: f64 = 300.0;

/// Critical-path target the sensors are "synthesized" at, ns (matches
/// the timing audit: ~192 MHz, comfortably meeting a 50 MHz clock).
const SYNTH_CRITICAL_NS: f64 = 5.2;

/// One zoo design's row in the matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixRow {
    /// Design name (zoo identifier).
    pub design: String,
    /// Malicious by construction?
    pub malicious: bool,
    /// Net count of the scanned netlist.
    pub nets: usize,
    /// Per-structural-pass verdict, aligned with
    /// [`StealthMatrix::structural_passes`]: `true` = that pass raised
    /// an active `Warn`-or-worse finding.
    pub flagged_by: Vec<bool>,
    /// Per-semantic-pass verdict, aligned with
    /// [`StealthMatrix::semantic_passes`].
    pub semantic_flagged_by: Vec<bool>,
    /// Strict-timing verdict at 300 MHz; only populated for
    /// the benign sensor designs.
    pub timing_flagged: Option<bool>,
    /// The full scan report (witnesses, spans, details).
    pub report: CheckReport,
}

#[cfg(test)]
impl MatrixRow {
    /// Whether any structural pass flagged the design.
    fn structurally_flagged(&self) -> bool {
        self.flagged_by.iter().any(|&f| f)
    }

    /// Whether any semantic pass flagged the design.
    fn semantically_flagged(&self) -> bool {
        self.semantic_flagged_by.iter().any(|&f| f)
    }
}

/// The full detection matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StealthMatrix {
    /// Structural pass names, in pipeline order (matrix columns).
    pub structural_passes: Vec<String>,
    /// Semantic pass names, in pipeline order (matrix columns).
    pub semantic_passes: Vec<String>,
    /// One row per zoo design.
    pub rows: Vec<MatrixRow>,
}

impl StealthMatrix {
    /// The paper's stealth claim over the whole zoo:
    ///
    /// * every malicious design is flagged by at least one structural
    ///   or semantic pass,
    /// * every benign design is clean on both tiers,
    /// * at least one malicious design evades the whole structural
    ///   tier and is caught only semantically,
    /// * both benign-logic sensors are caught by the strict timing
    ///   check at the overclock.
    #[cfg(test)]
    fn matrix_holds(&self) -> bool {
        let verdicts = self.rows.iter().all(|row| {
            let caught = row.structurally_flagged() || row.semantically_flagged();
            let timing_ok = row.timing_flagged.unwrap_or(true);
            caught == row.malicious && timing_ok
        });
        let semantic_gap = self
            .rows
            .iter()
            .any(|row| row.malicious && !row.structurally_flagged() && row.semantically_flagged());
        verdicts && semantic_gap
    }

    /// Renders the matrix as a Markdown table (the README artifact).
    pub fn markdown_table(&self) -> String {
        let mut out = String::from("| design | class |");
        for pass in self.structural_passes.iter().chain(&self.semantic_passes) {
            out.push_str(&format!(" {pass} |"));
        }
        out.push_str(" timing @300 MHz |\n|---|---|");
        out.push_str(&"---|".repeat(self.structural_passes.len() + self.semantic_passes.len() + 1));
        out.push('\n');
        for row in &self.rows {
            let class = if row.malicious { "malicious" } else { "benign" };
            out.push_str(&format!("| {} | {class} |", row.design));
            for &hit in row.flagged_by.iter().chain(&row.semantic_flagged_by) {
                out.push_str(if hit { " **flag** |" } else { " clean |" });
            }
            out.push_str(match row.timing_flagged {
                Some(true) => " **flag** |\n",
                Some(false) => " clean |\n",
                None => " — |\n",
            });
        }
        out
    }
}

/// Builds the detection matrix over the full generator zoo at default
/// checker thresholds, seeding each entry's taint config with its
/// contract-declared clock pins (the shell knows every tenant's pin
/// roles even when the pin names hide them).
///
/// # Errors
///
/// Propagates delay-annotation failures from the timing column.
pub fn stealth_matrix() -> Result<StealthMatrix, FabricError> {
    let pm = PassManager::full();
    let structural: Vec<String> = PassManager::structural()
        .pass_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let semantic: Vec<String> = PassManager::semantic()
        .pass_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for entry in zoo() {
        let config = CheckerConfig {
            taint: TaintConfig {
                declared_clocks: entry
                    .declared_clocks
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
                ..TaintConfig::default()
            },
            ..CheckerConfig::default()
        };
        let report = pm.run(&entry.netlist, &config, &Obs::null());
        let hit = |pass: &String| {
            report
                .active()
                .any(|f| f.pass == *pass && f.severity >= Severity::Warn)
        };
        let flagged_by: Vec<bool> = structural.iter().map(hit).collect();
        let semantic_flagged_by: Vec<bool> = semantic.iter().map(hit).collect();
        let timing_flagged = if SENSOR_DESIGNS.contains(&entry.name) {
            let ann = DelayModel::default().annotate_for_period(
                &entry.netlist,
                SYNTH_CRITICAL_NS,
                1.0,
            )?;
            Some(check_timing(&ann, OVERCLOCK_MHZ).flagged(CheckKind::TimingOverclock))
        } else {
            None
        };
        rows.push(MatrixRow {
            design: entry.name.to_string(),
            malicious: entry.malicious,
            nets: entry.netlist.len(),
            flagged_by,
            semantic_flagged_by,
            timing_flagged,
            report,
        });
    }
    Ok(StealthMatrix {
        structural_passes: structural,
        semantic_passes: semantic,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The specimen that separates the tiers: structurally clean,
    /// caught only semantically via its contract-declared clock pin.
    const SEMANTIC_ONLY_DESIGN: &str = "carry_sensor";

    #[test]
    fn detection_matrix_reproduces_the_stealth_claim() {
        let matrix = stealth_matrix().unwrap();
        assert!(
            matrix.matrix_holds(),
            "matrix drift:\n{}",
            matrix.markdown_table()
        );
        // The two sensors: clean under every structural AND semantic
        // pass, caught only by the timing column.
        for name in SENSOR_DESIGNS {
            let row = matrix.rows.iter().find(|r| r.design == name).unwrap();
            assert!(!row.structurally_flagged(), "{name} must evade structure");
            assert!(!row.semantically_flagged(), "{name} must evade semantics");
            assert!(row.report.is_clean());
            assert_eq!(row.timing_flagged, Some(true), "{name} caught by timing");
        }
        // Each malicious family is caught by the pass built for it.
        let hit = |design: &str, pass: &str| {
            let row = matrix.rows.iter().find(|r| r.design == design).unwrap();
            matrix
                .structural_passes
                .iter()
                .position(|p| p == pass)
                .map(|col| row.flagged_by[col])
                .or_else(|| {
                    matrix
                        .semantic_passes
                        .iter()
                        .position(|p| p == pass)
                        .map(|col| row.semantic_flagged_by[col])
                })
                .unwrap()
        };
        assert!(hit("ring_oscillator", "comb-loop"));
        assert!(hit("ring_oscillator_obfuscated", "signature"));
        assert!(hit("ro_grid", "trivial-array"));
        assert!(hit("tdc_delay_line", "delay-line"));
        assert!(hit("tdc_obfuscated", "scoap-sensor"));
        assert!(hit("tdc_obfuscated", "signature"));
        assert!(
            !hit("tdc_obfuscated", "delay-line"),
            "the obfuscation defeats the naive chain matcher — that is the point"
        );
        assert!(hit("tapped_carry_chain", "signature"));
        assert!(hit("clock_as_data", "clock-as-data"));
    }

    #[test]
    fn carry_sensor_is_caught_only_semantically() {
        // The tentpole row: real adder logic with a contract-declared
        // clock on the carry-in evades all seven structural passes and
        // falls to all three semantic ones.
        let matrix = stealth_matrix().unwrap();
        let row = matrix
            .rows
            .iter()
            .find(|r| r.design == SEMANTIC_ONLY_DESIGN)
            .unwrap();
        assert!(row.malicious);
        assert!(
            !row.structurally_flagged(),
            "structural tier must miss it: {:?}",
            row.flagged_by
        );
        assert!(
            row.semantic_flagged_by.iter().all(|&f| f),
            "every semantic pass must catch it: {:?}",
            row.semantic_flagged_by
        );
        assert_eq!(row.report.max_severity(), Some(Severity::Reject));
    }

    #[test]
    fn matrix_markdown_is_complete() {
        let matrix = stealth_matrix().unwrap();
        let md = matrix.markdown_table();
        for row in &matrix.rows {
            assert!(md.contains(&row.design));
        }
        assert_eq!(md.lines().count(), matrix.rows.len() + 2);
        // one column per structural + semantic pass, plus design,
        // class and timing
        let header_cols = md.lines().next().unwrap().matches('|').count() - 1;
        assert_eq!(
            header_cols,
            matrix.structural_passes.len() + matrix.semantic_passes.len() + 3
        );
    }
}
