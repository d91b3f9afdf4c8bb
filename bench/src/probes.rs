//! Probe calls into each module's public functions, on inputs drawn
//! from the workload: the seeded DualC6288 fabric, its captures, and
//! the designs the workload admits. Each probe reports the cost of one
//! call; the traced run multiplies them by deterministic counts.

use crate::layers::{span_s, Tracer, PER_LAYER};
use crate::stats::median;
use crate::workloads::{aggressor, defend, fabric_config, scratch_dir, Bench};
use slm_aes::Aes32Rtl;
use slm_checker::{check_timing, PassManager, ScanCache};
use slm_cloud::{AdmissionGate, CoResidencyPolicy, Occupant, RegionScheduler, ServiceConfig};
use slm_cpa::store::CheckpointLedger;
use slm_cpa::{CpaAttack, DfaAttack, DfaModel, LastRoundModel};
use slm_defense::DefenseRuntime;
use slm_fabric::floorplan::Floorplan;
use slm_fabric::{BenignCircuit, FabricConfig, FabricPrototype, MultiTenantFabric};
use slm_obs::Obs;
use slm_pdn::noise::Rng64;
use slm_pdn::MultiRegionPdn;
use slm_sensors::TdcSensor;
use slm_timing::{simulate_transition, DelayModel};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Designs the per-design probes sample at most, evenly spaced.
const DESIGN_SAMPLE: usize = 64;

/// Captures behind the CPA and DFA probes.
const CAPTURES: usize = 512;

/// Probe results keyed by per-layer metric name.
pub struct Probes {
    pub values: BTreeMap<&'static str, f64>,
    /// PDN steps one undefended capture takes.
    pub ticks_per_capture: f64,
}

/// Seconds per call of `f`: the median of three batches of `n` calls.
fn per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut batches = Vec::with_capacity(3);
    for _ in 0..3 {
        let t = Instant::now();
        for i in 0..n {
            f(i);
        }
        batches.push(t.elapsed().as_secs_f64() / n as f64);
    }
    median(&batches)
}

fn fabric(config: &FabricConfig) -> Result<MultiTenantFabric, String> {
    MultiTenantFabric::new(config).map_err(|e| e.to_string())
}

/// Runs every probe. `ledger_payload` is the workload's mean commit
/// size in bytes (0 when it commits nothing, which skips that probe).
///
/// # Errors
///
/// A fabric, timing or ledger call that fails.
pub fn measure(
    tracer: &mut Tracer,
    bench: &dyn Bench,
    seed: u64,
    ledger_payload: usize,
) -> Result<Probes, String> {
    let base = fabric_config(seed);
    let mut defended = base.clone();
    defend(&mut defended, seed);
    let faulting = FabricConfig {
        aggressor: Some(aggressor()),
        ..base.clone()
    };
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();

    // slm-fabric: one capture on each path, instantiation, cold build.
    let mut f = fabric(&base)?;
    let window = f.last_round_window();
    let steps = f.pdn_telemetry().steps;
    let pt = f.random_plaintext();
    f.encrypt_windowed(pt, window.clone(), &[]);
    let ticks_per_capture = (f.pdn_telemetry().steps - steps) as f64;
    let captures: Vec<_> = (0..CAPTURES)
        .map(|_| {
            let pt = f.random_plaintext();
            f.encrypt_windowed(pt, window.clone(), &[])
        })
        .collect();
    tracer.span("probe.fabric", |_| -> Result<(), String> {
        let capture_us = |config: &FabricConfig, n: usize, full: bool| {
            let mut f = fabric(config)?;
            let w = f.last_round_window();
            Ok::<f64, String>(
                1e6 * per_call(n, |_| {
                    let pt = f.random_plaintext();
                    if full {
                        black_box(f.encrypt_and_capture(pt));
                    } else {
                        black_box(f.encrypt_windowed(pt, w.clone(), &[]));
                    }
                }),
            )
        };
        v.insert(
            "fabric.windowed_capture_us",
            capture_us(&base, 1000, false)?,
        );
        v.insert(
            "fabric.defended_capture_us",
            capture_us(&defended, 1000, false)?,
        );
        v.insert("fabric.full_capture_us", capture_us(&base, 100, true)?);
        let mut f = fabric(&faulting)?;
        v.insert(
            "fabric.fault_capture_us",
            1e6 * per_call(1000, |_| {
                let pt = f.random_plaintext();
                black_box(f.encrypt_windowed(pt, 0..0, &[]));
            }),
        );
        v.insert(
            "fabric.new_us",
            1e6 * per_call(200, |i| {
                black_box(MultiTenantFabric::new(&base.for_shard(i)).expect("cached prototype"));
            }),
        );
        let mut failure = None;
        v.insert(
            "fabric.prototype_build_ms",
            1e3 * per_call(2, |_| {
                if let Err(e) = FabricPrototype::build(&base) {
                    failure = Some(e.to_string());
                }
            }),
        );
        failure.map_or(Ok(()), Err)
    })?;

    tracer.span("probe.substrates", |_| -> Result<(), String> {
        let k = base.victim_coupling;
        let mut pdn = MultiRegionPdn::new(base.pdn, 2, vec![vec![1.0, k], vec![k, 1.0]]);
        v.insert(
            "pdn.step_ns",
            1e9 * per_call(100_000, |i| {
                let currents = [0.4 + 0.01 * (i % 7) as f64, 0.3 + 0.02 * (i % 3) as f64];
                black_box(pdn.step(&currents, 1.0 / 300.0e6));
            }),
        );
        let v_at = |i: usize| base.pdn.v_nominal - 1e-3 * (i % 13) as f64;
        let mut tdc = TdcSensor::new(base.tdc);
        v.insert(
            "sensors.tdc_sample_ns",
            1e9 * per_call(100_000, |i| {
                black_box(tdc.sample(v_at(i)));
            }),
        );
        let mut sensor = f.sensor().clone();
        v.insert(
            "sensors.benign_sample_us",
            1e6 * per_call(5_000, |i| {
                black_box(sensor.sample(v_at(i)));
            }),
        );
        let aes = Aes32Rtl::new(base.aes_key);
        let mut rng = Rng64::new(seed);
        v.insert(
            "aes.encrypt_us",
            1e6 * per_call(5_000, |i| {
                let pt = [i as u8; 16];
                black_box(aes.encrypt_with_power(pt, &base.leakage, &mut rng));
            }),
        );
        let deployment = defended.defense.as_ref().ok_or("PRNG fence deploys")?;
        let mut runtime = DefenseRuntime::new(deployment);
        v.insert(
            "defense.tick_ns",
            1e9 * per_call(100_000, |i| {
                black_box(runtime.next_injection_a());
                runtime.observe_tick(v_at(i));
            }),
        );
        let built = BenignCircuit::DualC6288
            .build()
            .map_err(|e| e.to_string())?;
        let ann = base
            .delay_model
            .annotate_for_period(&built.netlist, base.achieved_critical_ns, 1.0)
            .map_err(|e| e.to_string())?;
        v.insert(
            "timing.event_sim_ms",
            1e3 * per_call(2, |_| {
                black_box(
                    simulate_transition(&ann, &built.reset, &built.measure)
                        .expect("set-up simulated this circuit"),
                );
            }),
        );
        Ok(())
    })?;

    tracer.span("probe.cpa", |_| -> Result<(), String> {
        let points = window.len();
        let samples: Vec<Vec<f64>> = captures
            .iter()
            .map(|r| r.tdc.iter().map(|&d| f64::from(d)).collect())
            .collect();
        let mut batch = slm_cpa::TraceBatch::with_capacity(points, CAPTURES);
        for (r, s) in captures.iter().zip(&samples) {
            batch.push(r.ciphertext, s);
        }
        let mut attack = CpaAttack::new(LastRoundModel::paper_target(), points);
        v.insert(
            "cpa.batch_absorb_ns",
            1e9 * per_call(4, |_| {
                attack.add_batch(&batch).expect("batch matches the attack");
            }) / CAPTURES as f64,
        );
        v.insert(
            "cpa.scalar_absorb_ns",
            1e9 * per_call(CAPTURES, |i| {
                attack.add_trace(&captures[i].ciphertext, &samples[i]);
            }),
        );
        v.insert(
            "cpa.eval_us",
            1e6 * per_call(10, |_| {
                black_box(attack.peak_correlations());
            }),
        );
        let mut f = fabric(&faulting)?;
        let pairs: Vec<([u8; 16], [u8; 16])> = (0..CAPTURES)
            .map(|_| {
                let pt = f.random_plaintext();
                let faulty = f.encrypt_windowed(pt, 0..0, &[]).ciphertext;
                (slm_aes::soft::encrypt(&faulting.aes_key, &pt), faulty)
            })
            .collect();
        let mut dfa = DfaAttack::new(DfaModel::SingleByte { max_fault_bits: 2 });
        v.insert(
            "cpa.dfa_pair_ns",
            1e9 * per_call(CAPTURES, |i| {
                black_box(dfa.add_pair(&pairs[i].0, &pairs[i].1));
            }),
        );
        if ledger_payload > 0 {
            let dir = scratch_dir("probe-ledger");
            let ledger = CheckpointLedger::open(&dir).map_err(|e| e.to_string())?;
            let payload = vec![0xa5u8; ledger_payload];
            let mut failure = None;
            let ms = 1e3
                * per_call(4, |_| {
                    if let Err(e) = ledger.commit(&payload) {
                        failure = Some(e.to_string());
                    }
                });
            let _ = std::fs::remove_dir_all(&dir);
            if let Some(e) = failure {
                return Err(e);
            }
            v.insert("cpa.ledger_commit_ms", ms);
        }
        Ok(())
    })?;

    tracer.span("probe.admission", |_| {
        let subs = bench.submissions();
        let step = subs.len().div_ceil(DESIGN_SAMPLE).max(1);
        let sample: Vec<_> = subs.iter().step_by(step).collect();
        let gate = AdmissionGate::new(ScanCache::in_memory());
        let configs: Vec<_> = sample.iter().map(|s| gate.config_for(s)).collect();
        v.insert(
            "timing.check_ms",
            1e3 * per_call(sample.len(), |i| {
                let ann = DelayModel::default().annotate(&sample[i].netlist);
                black_box(check_timing(&ann, 300.0));
            }),
        );
        let cache = ScanCache::in_memory();
        v.insert(
            "checker.scan_key_us",
            1e6 * per_call(sample.len(), |i| {
                black_box(cache.scan_key(&sample[i].netlist, &configs[i]));
            }),
        );
        for sub in &sample {
            gate.decide(sub);
        }
        v.insert(
            "cloud.decide_warm_us",
            1e6 * per_call(sample.len(), |i| {
                black_box(gate.decide(sample[i]));
            }),
        );
        let service = ServiceConfig::default();
        let mut scheduler = RegionScheduler::new(
            service.boards,
            &Floorplan::zynq7020(),
            service.region_rows,
            service.region_cols,
        );
        let policy = CoResidencyPolicy::open();
        let demand = sample
            .iter()
            .map(|s| s.demand_cells(service.nets_per_cell))
            .min()
            .unwrap_or(1);
        v.insert(
            "cloud.place_ns",
            1e9 * per_call(10_000, |i| {
                let occupant = Occupant {
                    tenant: sample[i % sample.len()].tenant.clone(),
                    flagged: false,
                };
                if let Some(p) = scheduler.place(occupant, demand, &policy) {
                    scheduler.release(p);
                }
            }),
        );

        // One recorded scan of every design, for the per-pass split.
        let obs = Obs::memory();
        let pm = PassManager::full();
        for sub in subs {
            pm.run_recorded(&sub.netlist, &gate.config_for(sub), &obs);
        }
        let frame = obs.snapshot();
        v.insert("checker.analysis_s", span_s(&frame, "checker.analysis"));
        for (metric, _) in PER_LAYER {
            if let Some(pass) = metric
                .strip_prefix("checker.pass.")
                .and_then(|m| m.strip_suffix("_s"))
            {
                v.insert(metric, span_s(&frame, pass));
            }
        }
    });

    Ok(Probes {
        values: v,
        ticks_per_capture,
    })
}
