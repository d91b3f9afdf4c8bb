//! The active attack: a malicious tenant's aggressor logic pushes the
//! shared PDN hard enough to *fault* the victim's AES, and differential
//! fault analysis turns the faulty ciphertexts into the master key.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use slm_core::experiments::{
    fault_matrix, run_fault_campaign, FaultCampaign, FaultMatrixExperiment,
};
use slm_cpa::DfaModel;
use slm_fabric::{AggressorSpec, BenignCircuit, FabricConfig};
use slm_obs::Obs;

fn aggressor_name(aggressor: &Option<AggressorSpec>) -> String {
    match aggressor {
        None => "none".into(),
        Some(a) => format!(
            "{:.1} A, {}/{} ticks",
            a.peak_current_a, a.on_ticks, a.period_ticks
        ),
    }
}

fn main() {
    // 1. One undefended fault campaign, end to end: the calibrated
    //    stealthy burst droops the victim rail below the carry-cone
    //    threshold during round 9, late state bits flip, and the DFA
    //    accumulator votes its way to the last-round key.
    println!("== fault campaign: stealthy 3.0 A burst, undefended ==");
    let campaign = FaultCampaign {
        config: FabricConfig {
            benign: BenignCircuit::DualC6288,
            seed: 11,
            aggressor: Some(AggressorSpec::stealthy(3.0)),
            ..FabricConfig::default()
        },
        model: DfaModel::SingleByte { max_fault_bits: 2 },
        captures: 2_000,
        shard_captures: 250,
        workers: 0,
    };
    let out = run_fault_campaign(&campaign, &Obs::null()).expect("fabric builds");
    let (accepted, unfaulted, discarded) = out.dfa.pair_counts();
    println!(
        "captures: {}   faulted: {} ({:.0}/1k)   min victim rail: {:.4} V",
        out.captures,
        out.faulted,
        out.faults_per_1k(),
        out.min_victim_v
    );
    println!(
        "DFA pairs: {accepted} accepted, {discarded} avalanche-discarded, \
         {unfaulted} unfaulted"
    );
    println!(
        "recovered last-round key bytes: {}/16",
        out.dfa.recovered_bytes()
    );
    match out.dfa.recovered_master_key() {
        Some(key) => println!("MASTER KEY RECOVERED: {key:02x?}"),
        None => println!("partial recovery only — raise the capture budget"),
    }

    // 2. The combined SCA/FI matrix: every aggressor operating point
    //    against every deployed defense, plus the defender's online
    //    alternation detector watching each aggressor row.
    println!("\n== combined SCA/FI matrix (standard sweep) ==");
    let exp = FaultMatrixExperiment::standard(11);
    let matrix = fault_matrix(&exp, &Obs::null()).expect("fabric builds");
    println!(
        "{:<22} {:<14} {:>9} {:>9} {:>6} {:>9}",
        "aggressor", "defense", "flt/1k", "accepted", "key", "alarms"
    );
    for cell in &matrix.cells {
        println!(
            "{:<22} {:<14} {:>9.0} {:>9} {:>6} {:>9}",
            aggressor_name(&cell.aggressor),
            cell.arm.label(),
            cell.faults_per_1k,
            cell.pairs_accepted,
            if cell.key_recovered() { "16/16" } else { "no" },
            cell.alarm_windows
        );
    }

    println!("\n== detector vs aggressor duty cycles (monitor-only) ==");
    for row in &matrix.detector {
        println!(
            "{:<22} score {:>8.4}  {}",
            aggressor_name(&row.aggressor),
            row.reading.max_score,
            if row.detected() {
                "DETECTED"
            } else {
                "evades detection"
            }
        );
    }
    println!(
        "\nNote the stealthy burst: it faults the victim into full key \
         loss yet scores below the detector's no-aggressor baseline — \
         duty-cycle parity, not amplitude, is what the alternation \
         detector sees."
    );
}
