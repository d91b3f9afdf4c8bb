//! Cross-crate integration tests: the complete attack chain from fabric
//! construction to key recovery, at reduced trace counts.

use slm_aes::soft;
use slm_checker::{DetectionMatrix, PassManager};
use slm_core::experiments::{
    activity_study, ro_response, run_cpa, timing_audit, CpaExperiment, SensorSource,
};
use slm_cpa::{BitActivity, CpaAttack, LastRoundModel, PostProcessor};
use slm_fabric::{
    AesActivity, BenignCircuit, FabricConfig, MultiTenantFabric, RemoteSession, RoSchedule,
};
use slm_obs::Obs;

#[test]
fn full_chain_tdc_key_recovery() {
    // fabric → captures → post-processing → CPA → correct key byte.
    let exp = CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::TdcAll,
        traces: 4_000,
        checkpoints: 8,
        pilot_traces: 100,
        seed: 31,
    };
    let r = run_cpa(&exp, |_| {}, &Obs::null()).unwrap();
    assert_eq!(r.recovered_key_byte, Some(r.correct_key_byte));
    assert!(r.mtd.unwrap() <= 4_000);
    // the reported key must equal the ground-truth schedule value
    let cfg = FabricConfig {
        benign: BenignCircuit::DualC6288,
        ..FabricConfig::default()
    };
    let k10 = soft::key_expansion(&cfg.aes_key)[10];
    assert_eq!(r.correct_key_byte, k10[3]);
}

#[test]
fn manual_pipeline_matches_experiment_runner() {
    // Drive the fabric by hand (as a user of the library would) and
    // check the pieces compose: pilot census, windowed capture,
    // Hamming-weight post-processing, streaming attack.
    let config = FabricConfig {
        benign: BenignCircuit::DualC6288,
        seed: 77,
        ..FabricConfig::default()
    };
    let mut fabric = MultiTenantFabric::new(&config).unwrap();
    let mut activity = BitActivity::new(fabric.endpoints());
    for _ in 0..60 {
        let pt = fabric.random_plaintext();
        let rec = fabric.encrypt_and_capture(pt);
        for s in &rec.benign {
            activity.add(s);
        }
    }
    let bits = activity.sensitive_bits();
    assert!(!bits.is_empty());

    let window = fabric.last_round_window();
    let model = LastRoundModel::paper_target();
    let mut attack = CpaAttack::new(model, window.len());
    let processor = PostProcessor::HammingWeightAll;
    for _ in 0..500 {
        let pt = fabric.random_plaintext();
        let rec = fabric.encrypt_windowed(pt, window.clone(), &bits);
        let points: Vec<f64> = rec.benign.iter().map(|s| processor.reduce(s)).collect();
        attack.add_trace(&rec.ciphertext, &points);
    }
    assert_eq!(attack.traces(), 500);
    // No recovery expectation at 500 traces — just structural sanity.
    assert_eq!(attack.peak_correlations().len(), 256);
}

#[test]
fn preliminary_and_stealth_experiments_compose() {
    let resp = ro_response(BenignCircuit::DualC6288, 200, 5).unwrap();
    assert!(!resp.sensitive_bits.is_empty());

    let study = activity_study(BenignCircuit::DualC6288, 800, 6).unwrap();
    assert!(study.census.ro_sensitive.len() >= study.census.intersection.len());

    let matrix = DetectionMatrix::scan(&PassManager::full(), 0, None, &Obs::null());
    assert_eq!(matrix.violations(), Vec::<String>::new());

    let timing = timing_audit(5.2).unwrap();
    assert!(timing.rows.iter().all(|r| r.strict_check_fires));
}

#[test]
fn ro_burst_reaches_both_sensors_in_same_run() {
    // One fabric, one schedule: both the TDC and the benign sensor must
    // register the same droop events (Fig. 6's premise).
    let config = FabricConfig {
        benign: BenignCircuit::Alu192,
        seed: 13,
        ..FabricConfig::default()
    };
    let mut fabric = MultiTenantFabric::new(&config).unwrap();
    let schedule = RoSchedule::paper_4mhz();
    let trace = fabric.run_activity(Some(&schedule), AesActivity::Idle, 300);
    let quiet_tdc: f64 = trace.tdc[..30].iter().map(|&d| f64::from(d)).sum::<f64>() / 30.0;
    let droop_sample = (0..trace.tdc.len()).min_by_key(|&i| trace.tdc[i]).unwrap();
    assert!(
        f64::from(trace.tdc[droop_sample]) < quiet_tdc - 5.0,
        "TDC must dip"
    );
    // the benign sensor's capture at the droop sample differs from quiet
    assert_ne!(
        trace.benign[droop_sample].bits, trace.benign[5].bits,
        "benign endpoints must react to the droop"
    );
    // RO ground truth confirms the droop coincides with enabled ROs
    assert!(trace.ro_enabled[droop_sample] > 0);
}

#[test]
fn key_recovery_through_the_uart_transport() {
    // The full Fig. 2 dataflow: plaintexts down the UART, ciphertext +
    // BRAM-staged trace back, CPA on the host side — TDC source.
    let config = FabricConfig {
        benign: BenignCircuit::DualC6288,
        seed: 99,
        ..FabricConfig::default()
    };
    let mut session = RemoteSession::new(&config, vec![]).unwrap();
    let k10 = soft::key_expansion(&config.aes_key)[10];
    let model = LastRoundModel::paper_target();
    let mut attack = None;
    let mut rng = slm_pdn::noise::Rng64::new(1);
    for _ in 0..3_000 {
        let mut pt = [0u8; 16];
        rng.fill_bytes(&mut pt);
        let rec = session.host_encrypt(pt).unwrap();
        let points: Vec<f64> = rec.tdc.iter().map(|&d| f64::from(d)).collect();
        let attack = attack.get_or_insert_with(|| CpaAttack::new(model, points.len()));
        attack.add_trace(&rec.ciphertext, &points);
    }
    let attack = attack.unwrap();
    let (best, _) = CpaAttack::best_of(&attack.peak_correlations());
    assert_eq!(best, k10[3], "key recovered over UART");
    // the campaign has a real wire-time cost
    assert!(
        session.wire_time_s() > 1.0,
        "wire time {}",
        session.wire_time_s()
    );
}

#[test]
fn different_seeds_different_campaign_noise_same_key() {
    let mk = |seed| CpaExperiment {
        circuit: BenignCircuit::DualC6288,
        source: SensorSource::TdcAll,
        traces: 1_500,
        checkpoints: 3,
        pilot_traces: 50,
        seed,
    };
    let a = run_cpa(&mk(1), |_| {}, &Obs::null()).unwrap();
    let b = run_cpa(&mk(2), |_| {}, &Obs::null()).unwrap();
    assert_eq!(a.correct_key_byte, b.correct_key_byte);
    assert_ne!(a.final_peaks, b.final_peaks, "noise must differ per seed");
}
