//! End-to-end resilience: the remote CPA campaign on a faulty wire.
//!
//! The acceptance bar for the fault-tolerant transport: at byte-fault
//! rates of 1e-4 and 1e-3 the full remote attack completes without a
//! panic, quarantines or retries every corrupted exchange, delivers at
//! least 90 % of its requests, pays for the retries in wire time,
//! recovers the correct key byte with at most 2× the fault-free trace
//! count, and a checkpoint/resume mid-campaign reproduces the
//! uninterrupted correlation ranking exactly.

use slm_aes::soft;
use slm_cpa::store::{read_checkpoint, write_checkpoint};
use slm_cpa::{CpaAttack, LastRoundModel};
use slm_fabric::{
    BenignCircuit, CampaignDriver, FabricConfig, FabricError, RemoteSession, TransportError,
    WireFaultPlan,
};
use slm_pdn::noise::Rng64;

const SEED: u64 = 2024;

fn fabric_config() -> FabricConfig {
    FabricConfig {
        benign: BenignCircuit::DualC6288,
        seed: SEED,
        ..FabricConfig::default()
    }
}

/// The rank of `key` (0 = leading) on the attack's peak correlations.
fn rank(attack: &CpaAttack, key: u8) -> usize {
    CpaAttack::rank_in(&attack.peak_correlations(), key)
}

/// Runs a TDC campaign over the given session, absorbing every
/// validated trace into a fresh CPA attack. Returns the attack, the
/// number of abandoned requests, and the driver for its stats.
fn run_campaign(session: RemoteSession, traces: u64) -> (CpaAttack, u64, CampaignDriver) {
    let model = LastRoundModel::paper_target();
    let points = session.fabric().last_round_window().len();
    let mut driver = CampaignDriver::new(session);
    let mut attack = CpaAttack::new(model, points);
    let mut rng = Rng64::new(SEED ^ 0xc0ffee);
    let mut abandoned = 0u64;
    let mut buf = vec![0.0f64; points];
    for _ in 0..traces {
        let mut pt = [0u8; 16];
        rng.fill_bytes(&mut pt);
        match driver.capture(pt) {
            Ok(rec) => {
                for (dst, &d) in buf.iter_mut().zip(&rec.tdc) {
                    *dst = f64::from(d);
                }
                // A validated frame always carries a full window; a
                // short one would be a framing bug, which `add_trace`
                // rejects with a panic.
                let samples = &buf[..rec.tdc.len().min(buf.len())];
                attack.add_trace(&rec.ciphertext, samples);
            }
            Err(FabricError::Transport(TransportError::RetriesExhausted { .. })) => {
                abandoned += 1;
            }
            Err(other) => panic!("campaign hit a non-retryable error: {other}"),
        }
    }
    (attack, abandoned, driver)
}

#[test]
fn faulty_campaign_recovers_key_within_2x_traces() {
    let cfg = fabric_config();
    let correct = soft::key_expansion(&cfg.aes_key)[10][3];

    // Fault-free baseline: how many traces until the key byte leads.
    let clean_session = RemoteSession::new(&cfg, vec![]).unwrap();
    let baseline_traces = 2_000u64;
    let (clean_attack, clean_abandoned, clean_driver) =
        run_campaign(clean_session, baseline_traces);
    assert_eq!(clean_abandoned, 0);
    assert_eq!(clean_driver.stats().delivered, baseline_traces);
    assert_eq!(clean_driver.stats().retries, 0);
    assert_eq!(clean_driver.stats().quarantined, 0);
    assert_eq!(rank(&clean_attack, correct), 0, "baseline must converge");

    let clean_wire_s_per_request =
        clean_driver.session().wire_time_s() / clean_driver.stats().requested as f64;

    // Same campaign on a noisy wire, budgeted at 2× the baseline: the
    // resilient driver must deliver a converged attack well inside that
    // budget. At 1e-4 faults per byte the retries are rare; at 1e-3
    // every ~10th exchange is hit, yet at least 90 % of the requests
    // still deliver.
    for rate in [1e-4, 1e-3] {
        let plan = WireFaultPlan::byte_noise(SEED, rate);
        let faulty_session = RemoteSession::with_fault_plan(&cfg, vec![], plan).unwrap();
        let (faulty_attack, abandoned, driver) = run_campaign(faulty_session, 2 * baseline_traces);
        assert_eq!(
            rank(&faulty_attack, correct),
            0,
            "faulty-wire attack at {rate}/byte must still converge within 2x traces"
        );
        let stats = driver.stats();
        assert!(
            stats.delivered + abandoned == 2 * baseline_traces,
            "every request must resolve to a validated trace or a typed error"
        );
        assert!(
            stats.delivered >= stats.requested * 9 / 10,
            "{rate}/byte delivered only {} of {}",
            stats.delivered,
            stats.requested
        );
        // At >= 1e-4/byte on ~100-byte exchanges faults are certain over
        // 4k traces; the driver must have actually exercised the retry
        // path.
        assert!(
            stats.retries > 0,
            "no retries at {rate}/byte is implausible"
        );
        assert!(
            driver.session().link_stats().resyncs > 0,
            "scanner never resynced at {rate}/byte"
        );
        // Quarantined records never reach the attack: delivered count is
        // exactly what the accumulator absorbed.
        assert_eq!(faulty_attack.traces(), stats.delivered);
        // Backoff was charged to the wire clock: the retry loop pays in
        // wire time per request, never in correctness.
        assert!(stats.backoff_s > 0.0);
        assert!(driver.session().wire_time_s() > stats.backoff_s);
        assert!(
            driver.session().wire_time_s() / stats.requested as f64 > clean_wire_s_per_request,
            "{rate}/byte must cost more wire time per request than the clean run"
        );
    }
}

#[test]
fn checkpoint_resume_reproduces_uninterrupted_ranking() {
    // Capture once (faulty wire), then analyze the same record stream
    // twice: straight through, and with a serialize/reload/resume cycle
    // halfway. The final correlation ranking must be identical.
    let cfg = fabric_config();
    let plan = WireFaultPlan::byte_noise(SEED ^ 1, 1e-4);
    let session = RemoteSession::with_fault_plan(&cfg, vec![], plan).unwrap();
    let model = LastRoundModel::paper_target();
    let points = session.fabric().last_round_window().len();
    let mut driver = CampaignDriver::new(session);
    let mut rng = Rng64::new(SEED ^ 2);
    let mut records = Vec::new();
    while records.len() < 1_000 {
        let mut pt = [0u8; 16];
        rng.fill_bytes(&mut pt);
        if let Ok(rec) = driver.capture(pt) {
            let pts: Vec<f64> = rec.tdc.iter().map(|&d| f64::from(d)).collect();
            records.push((rec.ciphertext, pts));
        }
    }

    let mut unbroken = CpaAttack::new(model, points);
    for (ct, pts) in &records {
        unbroken.add_trace(ct, pts);
    }

    let mut first = CpaAttack::new(model, points);
    for (ct, pts) in &records[..500] {
        first.add_trace(ct, pts);
    }
    let mut bytes = Vec::new();
    write_checkpoint(&mut bytes, &first.checkpoint()).unwrap();
    drop(first); // the crash
    let mut resumed = CpaAttack::resume(read_checkpoint(&bytes[..]).unwrap()).unwrap();
    for (ct, pts) in &records[500..] {
        resumed.add_trace(ct, pts);
    }

    assert_eq!(resumed.traces(), unbroken.traces());
    assert_eq!(resumed.correlations(), unbroken.correlations());
    let resumed_peaks = resumed.peak_correlations();
    let unbroken_peaks = unbroken.peak_correlations();
    assert_eq!(resumed_peaks, unbroken_peaks);
    assert_eq!(
        CpaAttack::best_of(&resumed_peaks),
        CpaAttack::best_of(&unbroken_peaks)
    );
    for k in 0..=255u8 {
        assert_eq!(
            CpaAttack::rank_in(&resumed_peaks, k),
            CpaAttack::rank_in(&unbroken_peaks, k)
        );
    }
}
