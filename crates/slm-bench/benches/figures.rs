//! One study per paper figure. Each prints the figure's series/summary
//! once: the reproduction record.
//!
//! Scale note: the paper's campaigns run to 500 k traces on silicon; the
//! bench-scale runs here use smaller budgets whose *shape* (who wins, by
//! how much, MTD ordering) matches — see EXPERIMENTS.md for the mapping.

use slm_bench::{quick, run_and_report};
use slm_core::experiments::{
    activity_study, atpg_stimulus_study, floorplan_views, ro_response, stealth_audit, timing_audit,
    CpaExperiment, SensorSource,
};
use slm_core::report;
use slm_fabric::BenignCircuit;

/// Trace budget helper: full bench scale unless SLM_BENCH_QUICK is set.
fn budget(full: u64) -> u64 {
    if quick() {
        (full / 50).max(200)
    } else {
        full
    }
}

fn fig03_04_floorplans() {
    for circuit in [BenignCircuit::Alu192, BenignCircuit::DualC6288] {
        let v = floorplan_views(circuit, 49, 7).unwrap();
        println!(
            "[fig03/04] {} benign_density={:.3} tdc_density={:.3} sensitive={}",
            v.name, v.benign_density, v.tdc_density, v.sensitive_cells
        );
    }
}

fn fig05_alu_raw_ro() {
    let r = ro_response(BenignCircuit::Alu192, 240, 1).unwrap();
    let vals: Vec<f64> = r.raw_values.iter().map(|&v| (v & 0xffff) as f64).collect();
    print!(
        "{}",
        report::series_table(
            "fig05: raw ALU word (low bits) per sample",
            "sample",
            "raw",
            &vals
        )
    );
    println!("[fig05] sensitive_bits={}", r.sensitive_bits.len());
}

fn fig06_tdc_vs_alu() {
    let r = ro_response(BenignCircuit::Alu192, 240, 2).unwrap();
    println!("[fig06] sample tdc hw_alu ro_enabled");
    for i in 0..r.tdc.len() {
        println!(
            "[fig06] {} {} {} {}",
            i, r.tdc[i], r.hw_sensitive[i], r.ro_enabled[i]
        );
    }
}

fn fig07_08_alu_census() {
    let s = activity_study(BenignCircuit::Alu192, 3000, 3).unwrap();
    println!(
        "[fig07] alu total={} ro_sensitive={} aes={} intersection={} aes_only={} unaffected={}",
        s.census.total,
        s.census.ro_sensitive.len(),
        s.census.aes_sensitive.len(),
        s.census.intersection.len(),
        s.census.aes_only.len(),
        s.census.unaffected
    );
    println!("[fig08] endpoint var_ro var_aes");
    for (i, vro, vaes) in &s.variance.rows {
        println!("[fig08] {i} {vro:.5} {vaes:.5}");
    }
    println!(
        "[fig08] best_aes_endpoint={:?}",
        s.variance.best_aes_endpoint
    );
}

fn fig09_cpa_tdc() {
    run_and_report(
        "fig09",
        &CpaExperiment {
            circuit: BenignCircuit::Alu192,
            source: SensorSource::TdcAll,
            traces: budget(20_000),
            checkpoints: 20,
            pilot_traces: 100,
            seed: 9,
        },
    );
}

fn fig10_cpa_alu() {
    run_and_report(
        "fig10",
        &CpaExperiment {
            circuit: BenignCircuit::Alu192,
            source: SensorSource::BenignHammingWeight,
            traces: budget(400_000),
            checkpoints: 40,
            pilot_traces: 500,
            seed: 10,
        },
    );
}

fn fig11_cpa_tdc_bit32() {
    run_and_report(
        "fig11",
        &CpaExperiment {
            circuit: BenignCircuit::Alu192,
            source: SensorSource::TdcSingleBit(None),
            traces: budget(20_000),
            checkpoints: 20,
            pilot_traces: 100,
            seed: 11,
        },
    );
}

fn fig12_cpa_alu_bit_best() {
    run_and_report(
        "fig12",
        &CpaExperiment {
            circuit: BenignCircuit::Alu192,
            source: SensorSource::BenignSingleBit(None),
            traces: budget(400_000),
            checkpoints: 40,
            pilot_traces: 500,
            seed: 12,
        },
    );
}

fn fig13_cpa_alu_alt_bit() {
    // The paper repeats fig12 with an alternate endpoint (bit 6 of
    // its ALU). We take the second-best pilot endpoint.
    let pilot = slm_core::experiments::aes_pilot_activity(BenignCircuit::Alu192, 3000, 13)
        .expect("fabric builds");
    let ranked = pilot.by_variance();
    let alt = ranked.get(1).copied().unwrap_or(ranked[0]);
    println!("[fig13] alternate endpoint chosen: {alt}");
    run_and_report(
        "fig13",
        &CpaExperiment {
            circuit: BenignCircuit::Alu192,
            source: SensorSource::BenignSingleBit(Some(alt)),
            traces: budget(400_000),
            checkpoints: 40,
            pilot_traces: 500,
            seed: 13,
        },
    );
}

fn fig14_c6288_raw_ro() {
    let r = ro_response(BenignCircuit::DualC6288, 240, 14).unwrap();
    let vals: Vec<f64> = r.toggle_counts.iter().map(|&v| f64::from(v)).collect();
    print!(
        "{}",
        report::series_table(
            "fig14: toggling C6288 bits per sample",
            "sample",
            "toggles",
            &vals
        )
    );
    println!("[fig14] sensitive_bits={} of 64", r.sensitive_bits.len());
}

fn fig15_16_c6288_census() {
    let s = activity_study(BenignCircuit::DualC6288, 3000, 15).unwrap();
    println!(
        "[fig15] c6288 total={} ro_sensitive={} aes={} intersection={} aes_only={} unaffected={}",
        s.census.total,
        s.census.ro_sensitive.len(),
        s.census.aes_sensitive.len(),
        s.census.intersection.len(),
        s.census.aes_only.len(),
        s.census.unaffected
    );
    println!("[fig16] endpoint var_ro var_aes");
    for (i, vro, vaes) in &s.variance.rows {
        println!("[fig16] {i} {vro:.5} {vaes:.5}");
    }
    println!(
        "[fig16] best_aes_endpoint={:?}",
        s.variance.best_aes_endpoint
    );
}

fn fig17_cpa_c6288() {
    run_and_report(
        "fig17",
        &CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::BenignHammingWeight,
            traces: budget(800_000),
            checkpoints: 40,
            pilot_traces: 500,
            seed: 17,
        },
    );
}

fn fig18_cpa_c6288_bit_best() {
    run_and_report(
        "fig18",
        &CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::BenignSingleBit(None),
            traces: budget(500_000),
            checkpoints: 40,
            pilot_traces: 500,
            seed: 18,
        },
    );
}

fn stealth_and_timing() {
    let audit = stealth_audit().unwrap();
    for (name, report, is_attack) in &audit.rows {
        println!(
            "[stealth] {} attack={} clean={} findings={}",
            name,
            is_attack,
            report.is_clean(),
            report.findings.len()
        );
    }
    println!("[stealth] demonstrated={}", audit.stealth_demonstrated());
    let t = timing_audit(5.2).unwrap();
    for row in &t.rows {
        println!(
            "[timing] {} fmax={:.1}MHz ok@50={} ok@300={} strict_fires={}",
            row.name,
            row.fmax_mhz,
            row.meets_synth_clock,
            row.meets_overclock,
            row.strict_check_fires
        );
    }
}

fn atpg_stimuli() {
    let s = atpg_stimulus_study(16, 40, 3).unwrap();
    println!(
        "[atpg] hand={:.0}ps found={:.0}ps ratio={:.2} evals={}",
        s.hand_settle_ps, s.found.score, s.ratio, s.found.evaluations
    );
}

fn main() {
    fig03_04_floorplans();
    fig05_alu_raw_ro();
    fig06_tdc_vs_alu();
    fig07_08_alu_census();
    fig09_cpa_tdc();
    fig10_cpa_alu();
    fig11_cpa_tdc_bit32();
    fig12_cpa_alu_bit_best();
    fig13_cpa_alu_alt_bit();
    fig14_c6288_raw_ro();
    fig15_16_c6288_census();
    fig17_cpa_c6288();
    fig18_cpa_c6288_bit_best();
    stealth_and_timing();
    atpg_stimuli();
}
