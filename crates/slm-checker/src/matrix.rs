//! The zoo detection matrix: the paper's Section VI stealth claim as
//! the admission pipeline decides it.
//!
//! One scan per [`zoo`] entry under that entry's contract config (its
//! declared clocks) gives one column per structural and semantic pass;
//! admission's own `timing` pass ([`StrictTimingPass`]) at the 300 MHz
//! overclock gives the timing column for the two benign-logic sensors.
//! [`DetectionMatrix::violations`] is the one verdict: the README table,
//! `slm-scan --zoo --assert-matrix` and the figure suite all read it.

use crate::cache::ScanCache;
use crate::config::CheckerConfig;
use crate::diag::{CheckKind, CheckReport, Severity};
use crate::pass::PassManager;
use crate::timing::StrictTimingPass;
use slm_netlist::generators::{zoo, ZooEntry};
use slm_obs::Obs;

/// The benign-logic sensors (the paper's ALU and dual C6288) that carry
/// the timing column.
const TIMING_DESIGNS: [&str; 2] = ["alu192", "dual_c6288"];

/// The overclock the strict timing check must catch, MHz.
const OVERCLOCK_MHZ: f64 = 300.0;

/// One zoo design's row in the matrix.
#[derive(Debug)]
pub struct MatrixRow {
    /// Design name (zoo identifier).
    pub design: String,
    /// Malicious by construction?
    pub malicious: bool,
    /// Per-structural-pass verdict, aligned with
    /// [`DetectionMatrix::structural_passes`]: `true` = that pass
    /// raised an active `Warn`-or-worse finding.
    pub flagged_by: Vec<bool>,
    /// Per-semantic-pass verdict, aligned with
    /// [`DetectionMatrix::semantic_passes`].
    pub semantic_flagged_by: Vec<bool>,
    /// Strict-timing verdict at 300 MHz; only populated for the benign
    /// sensor designs.
    pub timing_flagged: Option<bool>,
    /// The scan report under the entry's contract config (no requested
    /// clock).
    pub report: CheckReport,
}

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

/// The detection matrix over the whole zoo.
#[derive(Debug)]
pub struct DetectionMatrix {
    /// Structural pass names, in pipeline order (matrix columns).
    pub structural_passes: Vec<String>,
    /// Semantic pass names, in pipeline order (matrix columns).
    pub semantic_passes: Vec<String>,
    /// One row per zoo design, in zoo order.
    pub rows: Vec<MatrixRow>,
}

/// Runs `scan` on every zoo entry over `jobs` workers (0 = all cores).
/// Each entry records into a fork of `obs`, folded back in zoo order,
/// so the results and the metrics are identical at any job count.
pub(crate) fn over_zoo<T: Send>(
    jobs: usize,
    obs: &Obs,
    scan: impl Fn(&ZooEntry, &Obs) -> T + Sync,
) -> Vec<T> {
    slm_par::par_map(jobs, &zoo(), |entry| {
        let fork = obs.fork();
        let out = scan(entry, &fork);
        (out, fork.snapshot())
    })
    .into_iter()
    .map(|(out, frame)| {
        obs.absorb(&frame);
        out
    })
    .collect()
}

impl DetectionMatrix {
    /// Scans every zoo entry with `pm` under its contract config
    /// (default thresholds plus the entry's declared clock pins: the
    /// shell knows every tenant's pin roles even when the pin names
    /// hide them), then times the two benign sensors with the admission
    /// `timing` pass at the 300 MHz overclock. The columns are the
    /// structural and semantic passes `pm` runs, so a structural-only
    /// manager yields a matrix with no semantic column.
    pub fn scan(pm: &PassManager, jobs: usize, cache: Option<&ScanCache>, obs: &Obs) -> Self {
        let names = pm.pass_names();
        let columns = |tier: PassManager| -> Vec<String> {
            let tier = tier.pass_names();
            tier.into_iter()
                .filter(|p| names.contains(p))
                .map(str::to_owned)
                .collect()
        };
        let structural_passes = columns(PassManager::structural());
        let semantic_passes = columns(PassManager::semantic());
        let mut timing = PassManager::empty();
        timing.push(Box::new(StrictTimingPass));
        let rows = over_zoo(jobs, obs, |entry, obs| {
            let mut config = CheckerConfig::default();
            config.taint.declared_clocks = entry
                .declared_clocks
                .iter()
                .map(|s| s.to_string())
                .collect();
            let report = pm.scan(&entry.netlist, &config, cache, obs);
            let hit = |pass: &String| {
                report
                    .active()
                    .any(|f| f.pass == *pass && f.severity >= Severity::Warn)
            };
            let flagged_by = structural_passes.iter().map(hit).collect();
            let semantic_flagged_by = semantic_passes.iter().map(hit).collect();
            let timing_flagged = TIMING_DESIGNS.contains(&entry.name).then(|| {
                config.timing.clock_mhz = Some(OVERCLOCK_MHZ);
                timing
                    .scan(&entry.netlist, &config, cache, obs)
                    .flagged(CheckKind::TimingOverclock)
            });
            MatrixRow {
                design: entry.name.to_string(),
                malicious: entry.malicious,
                flagged_by,
                semantic_flagged_by,
                timing_flagged,
                report,
            }
        });
        DetectionMatrix {
            structural_passes,
            semantic_passes,
            rows,
        }
    }

    /// Every way the matrix departs from the paper's stealth claim;
    /// empty when the claim holds:
    ///
    /// * every malicious design is flagged by at least one structural
    ///   or semantic pass,
    /// * every benign design is clean on both tiers,
    /// * at least one malicious design evades the whole structural
    ///   tier and is caught only semantically,
    /// * both benign-logic sensors are caught by the strict timing
    ///   check at the overclock.
    pub fn violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for row in &self.rows {
            let caught = row.structurally_flagged() || row.semantically_flagged();
            if row.malicious && !caught {
                violations.push(format!("{}: malicious but passed every pass", row.design));
            }
            if !row.malicious && caught {
                violations.push(format!("{}: benign but flagged", row.design));
            }
            if row.timing_flagged == Some(false) {
                violations.push(format!(
                    "{}: not caught by strict timing at {OVERCLOCK_MHZ} MHz",
                    row.design
                ));
            }
        }
        let semantic_gap = self
            .rows
            .iter()
            .any(|row| row.malicious && !row.structurally_flagged() && row.semantically_flagged());
        if !semantic_gap {
            violations.push("no malicious design is caught only semantically".to_string());
        }
        violations
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The specimen that separates the tiers: structurally clean,
    /// caught only semantically via its contract-declared clock pin.
    const SEMANTIC_ONLY_DESIGN: &str = "carry_sensor";

    fn full_matrix() -> DetectionMatrix {
        DetectionMatrix::scan(&PassManager::full(), 0, None, &Obs::null())
    }

    #[test]
    fn detection_matrix_reproduces_the_stealth_claim() {
        let matrix = full_matrix();
        assert_eq!(
            matrix.violations(),
            Vec::<String>::new(),
            "matrix drift:\n{}",
            matrix.markdown_table()
        );
        // The two sensors: clean under every structural AND semantic
        // pass, caught only by the timing column.
        for name in TIMING_DESIGNS {
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
        let matrix = full_matrix();
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
        // Without the semantic tier the rule fails on exactly this
        // design and on the missing semantic gap.
        let structural = DetectionMatrix::scan(&PassManager::structural(), 0, None, &Obs::null());
        assert!(structural.semantic_passes.is_empty());
        assert_eq!(
            structural.violations(),
            [
                "carry_sensor: malicious but passed every pass",
                "no malicious design is caught only semantically",
            ]
        );
    }

    #[test]
    fn matrix_markdown_is_complete() {
        let matrix = full_matrix();
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
