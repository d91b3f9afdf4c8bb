//! The defender's view: run the admission checker's detection matrix
//! across the design zoo and show that only a strict timing check —
//! impractical on real designs — catches the benign sensors (paper
//! Section VI).
//!
//! ```sh
//! cargo run --release --example stealth_audit
//! ```

use slm_checker::{DetectionMatrix, PassManager};
use slm_core::experiments::{floorplan_views, timing_audit};
use slm_fabric::BenignCircuit;
use slm_obs::Obs;

fn main() {
    println!("== detection matrix: structural, semantic and strict-timing checks ==");
    let matrix = DetectionMatrix::scan(&PassManager::full(), 0, None, &Obs::null());
    print!("{}", matrix.markdown_table());
    let violations = matrix.violations();
    println!("\nstealth demonstrated: {}", violations.is_empty());
    assert!(violations.is_empty(), "matrix drift: {violations:?}");

    println!("\n== strict timing check (the only working defence) ==");
    let timing = timing_audit(5.2).expect("circuits build");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>14}",
        "circuit", "fmax MHz", "ok@50MHz", "ok@300MHz", "strict check"
    );
    for row in &timing.rows {
        println!(
            "{:<12} {:>10.1} {:>10} {:>10} {:>14}",
            row.name,
            row.fmax_mhz,
            row.meets_synth_clock,
            row.meets_overclock,
            if row.strict_check_fires {
                "FIRES"
            } else {
                "silent"
            }
        );
    }

    println!("\n== floorplan views (Figs. 3/4) ==");
    for circuit in [BenignCircuit::Alu192, BenignCircuit::DualC6288] {
        let view = floorplan_views(circuit, 49, 7).expect("circuits build");
        println!(
            "\n{}: benign density {:.2}, TDC density {:.2} — the sensor hides in scattered logic",
            view.name, view.benign_density, view.tdc_density
        );
        println!("{}", view.ascii);
    }
}
