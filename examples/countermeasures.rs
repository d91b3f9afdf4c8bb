//! The defender's options beyond structural checking: TVLA-based
//! leakage audits, the defender's PRNG active fence, placement distance
//! and masking, evaluated against the benign-logic sensor.
//!
//! ```sh
//! cargo run --release --example countermeasures
//! ```

use slm_core::experiments::{
    full_key_recovery, run_cpa, tvla_study, CpaExperiment, DefenseArm, SensorSource,
};
use slm_fabric::{BenignCircuit, DetectorConfig};
use slm_obs::Obs;

fn main() {
    // 1. TVLA: is there *any* detectable leakage through each sensor?
    println!("== TVLA (fixed vs random, 6k traces per class) ==");
    for circuit in [BenignCircuit::Alu192, BenignCircuit::DualC6288] {
        let r = tvla_study(circuit, 6_000, 100, 1).expect("fabric builds");
        println!(
            "{:<12} TDC max|t| = {:>6.1} ({})   benign max|t| = {:>5.1} ({})",
            circuit.name(),
            r.tdc_max_t,
            if r.tdc_leaks { "LEAKS" } else { "clean" },
            r.benign_max_t,
            if r.benign_leaks { "LEAKS" } else { "clean" },
        );
    }

    // 2. Full key recovery through the TDC: the end-to-end attack the
    //    single-byte CPA implies.
    println!("\n== full 16-byte key recovery via TDC (30k traces) ==");
    let r = full_key_recovery(BenignCircuit::Alu192, SensorSource::TdcAll, 30_000, 100, 2)
        .expect("fabric builds");
    println!(
        "correct bytes: {}/16   ranks: {:?}",
        r.correct_bytes, r.ranks
    );
    if r.master_key_correct {
        println!("MASTER KEY RECOVERED: {:02x?}", r.recovered_master_key);
    } else {
        println!(
            "partial recovery; round key so far: {:02x?}",
            r.recovered_round_key
        );
    }

    // 3. Active fence: the Krautter-style noise generator as a defence,
    //    deployed by the defender as the defense matrix's PRNG arm.
    println!("\n== PRNG active fence (1.5 A) vs the TDC attack ==");
    let base = CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::TdcAll,
        traces: 8_000,
        checkpoints: 10,
        pilot_traces: 100,
        seed: 3,
    };
    let detector = DetectorConfig {
        window_ticks: 4098,
        alarm_threshold: 0.05,
    };
    for arm in [DefenseArm::Undefended, DefenseArm::PrngFence(1.5)] {
        let deployment = arm.deployment(detector, 0xfe9ce);
        let r = run_cpa(&base, |config| config.defense = deployment, &Obs::null())
            .expect("fabric builds");
        println!(
            "{:<16} mtd = {:?}   margin on correct key: {:+.4}",
            arm.label(),
            r.mtd,
            r.progress
                .last()
                .map(|p| p.margin(r.correct_key_byte))
                .unwrap_or(0.0)
        );
    }

    // 4. Placement distance: decouple the victim's PDN region.
    println!("\n== placement distance (victim↔attacker PDN coupling) ==");
    let base = CpaExperiment {
        traces: 6_000,
        checkpoints: 8,
        seed: 4,
        ..base
    };
    println!("{:>9} {:>10} {:>10}", "coupling", "MTD", "margin");
    for coupling in [1.0, 0.5, 0.25] {
        let r = run_cpa(
            &base,
            |config| config.victim_coupling = coupling,
            &Obs::null(),
        )
        .expect("fabric builds");
        println!(
            "{:>9.2} {:>10} {:>10.4}",
            coupling,
            r.mtd.map_or("—".to_string(), |m| m.to_string()),
            r.progress
                .last()
                .map(|p| p.margin(r.correct_key_byte))
                .unwrap_or(0.0)
        );
    }

    // 5. Boolean masking on the victim's datapath.
    println!("\n== AES masking (first-order) ==");
    let base = CpaExperiment { seed: 5, ..base };
    let unmasked = run_cpa(&base, |_| {}, &Obs::null()).expect("fabric builds");
    let masked =
        run_cpa(&base, |config| config.masked_aes = true, &Obs::null()).expect("fabric builds");
    println!(
        "unmasked: mtd = {:?}   masked: mtd = {:?}",
        unmasked.mtd, masked.mtd
    );
}
