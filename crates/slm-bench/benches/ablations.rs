//! Ablation studies for the design choices DESIGN.md calls out: which
//! physical ingredients the attack actually needs. Each ablation prints
//! a short table.

use slm_atpg::{Objective, StimulusSearch};
use slm_fabric::{BenignCircuit, FabricConfig, MultiTenantFabric};
use slm_pdn::PdnConfig;
use slm_sensors::BenignSensorConfig;
use slm_timing::{simulate_transition, DelayModel};

/// How many benign endpoints react to a fixed droop, as sensor jitter is
/// swept — the dither that turns discrete thresholds into an analog
/// response (DESIGN.md §5).
fn ablate_sensor_jitter() {
    println!("[ablate_jitter] jitter_ps sensitive_endpoints");
    for jitter in [0.0, 15.0, 30.0, 60.0, 120.0] {
        let config = FabricConfig {
            benign: BenignCircuit::Alu192,
            sensor: BenignSensorConfig {
                jitter_sigma_ps: jitter,
                ..BenignSensorConfig::overclocked_300mhz(1)
            },
            ..FabricConfig::default()
        };
        let mut fabric = MultiTenantFabric::new(&config).unwrap();
        let trace = fabric.run_activity(
            Some(&slm_fabric::RoSchedule::paper_4mhz()),
            slm_fabric::AesActivity::Idle,
            600,
        );
        let mut act = slm_cpa::BitActivity::new(fabric.endpoints());
        for s in &trace.benign {
            act.add(s);
        }
        println!("[ablate_jitter] {jitter} {}", act.sensitive_bits().len());
    }
}

/// The overclock is the attack's key knob: at the synthesis clock the
/// capture edge lands after every endpoint settles and nothing is
/// sensitive; past ~2× overclock a band of endpoints dithers.
fn ablate_overclock() {
    println!("[ablate_overclock] clock_mhz sensitive_endpoints");
    for clock in [50.0, 100.0, 200.0, 250.0, 300.0, 350.0] {
        let config = FabricConfig {
            benign: BenignCircuit::Alu192,
            sensor: BenignSensorConfig {
                clock_mhz: clock,
                ..BenignSensorConfig::overclocked_300mhz(2)
            },
            ..FabricConfig::default()
        };
        let mut fabric = MultiTenantFabric::new(&config).unwrap();
        let trace = fabric.run_activity(
            Some(&slm_fabric::RoSchedule::paper_4mhz()),
            slm_fabric::AesActivity::Idle,
            600,
        );
        let mut act = slm_cpa::BitActivity::new(fabric.endpoints());
        for s in &trace.benign {
            act.add(s);
        }
        println!("[ablate_overclock] {clock} {}", act.sensitive_bits().len());
    }
}

/// Kill the wideband supply path (r_fast = 0): the package resonance
/// low-passes the per-cycle AES signature away and the side channel
/// disappears, however good the sensor is.
fn ablate_wideband_path() {
    println!("[ablate_rfast] r_fast voltage_stddev_during_aes");
    for r_fast in [0.0, 0.004, 0.012] {
        let config = FabricConfig {
            benign: BenignCircuit::DualC6288,
            pdn: PdnConfig {
                r_fast,
                noise_sigma_v: 0.0,
                ..PdnConfig::default()
            },
            ..FabricConfig::default()
        };
        let mut fabric = MultiTenantFabric::new(&config).unwrap();
        let trace = fabric.run_activity(None, slm_fabric::AesActivity::Continuous, 600);
        let mean = trace.voltage.iter().sum::<f64>() / trace.voltage.len() as f64;
        let var = trace
            .voltage
            .iter()
            .map(|v| (v - mean).powi(2))
            .sum::<f64>()
            / trace.voltage.len() as f64;
        println!("[ablate_rfast] {r_fast} {:.6}", var.sqrt());
    }
}

/// Routing spread ablation: with zero routing randomness the adder's
/// endpoint thresholds collapse onto a regular grid; the spread is what
/// diversifies per-endpoint sensitivity.
fn ablate_routing_spread() {
    println!("[ablate_routing] spread_ps settle_p10_ps settle_p90_ps");
    for (lo, hi) in [(0.0, 0.0), (30.0, 120.0), (30.0, 220.0)] {
        let built = BenignCircuit::Alu192.build().unwrap();
        let model = DelayModel {
            routing_min_ps: lo,
            routing_max_ps: hi,
            ..DelayModel::default()
        };
        let ann = model.annotate_for_period(&built.netlist, 5.2, 1.0).unwrap();
        let waves = simulate_transition(&ann, &built.reset, &built.measure).unwrap();
        let mut settles: Vec<u64> = waves
            .output_waves()
            .iter()
            .map(|w| w.settle_time_fs())
            .collect();
        settles.sort_unstable();
        println!(
            "[ablate_routing] {lo}-{hi} {:.0} {:.0}",
            settles[settles.len() / 10] as f64 / 1000.0,
            settles[settles.len() * 9 / 10] as f64 / 1000.0
        );
    }
}

/// ATPG restart budget: solution quality vs search effort.
fn ablate_atpg_budget() {
    let nl = slm_netlist::generators::c6288().unwrap();
    let ann = DelayModel::default()
        .annotate_for_period(&nl, 5.2, 1.0)
        .unwrap();
    println!("[ablate_atpg] restarts active_endpoints evaluations");
    for restarts in [1usize, 3, 6, 12] {
        let search = StimulusSearch::new(
            &ann,
            Objective::MaxActiveEndpoints {
                window_lo_ps: 2700.0,
                window_hi_ps: 4100.0,
            },
        );
        let found = search.run(restarts, 99);
        println!(
            "[ablate_atpg] {restarts} {} {}",
            found.score, found.evaluations
        );
    }
}

fn main() {
    ablate_sensor_jitter();
    ablate_overclock();
    ablate_wideband_path();
    ablate_routing_spread();
    ablate_atpg_budget();
}
