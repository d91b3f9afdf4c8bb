//! Extensions beyond the paper's evaluation: full 16-byte key recovery
//! and TVLA leakage assessment.

use serde::{Deserialize, Serialize};
use slm_aes::soft;
use slm_cpa::{
    common_mode_polarity, CpaAttack, MultiByteCpa, PostProcessor, TraceBatch, WelchTTest,
};
use slm_fabric::{BenignCircuit, FabricConfig, FabricError, MultiTenantFabric};

use super::cpa::{
    campaign_config, capture_pilot, fill_points, pilot_setup, CpaExperiment, SensorSource,
    ABSORB_BATCH,
};

/// Outcome of the full-key recovery extension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FullKeyResult {
    /// The recovered last round key (leading candidate per byte).
    pub recovered_round_key: [u8; 16],
    /// The master key recovered by inverting the key schedule.
    pub recovered_master_key: [u8; 16],
    /// Whether the master key is exactly right.
    pub master_key_correct: bool,
    /// How many round-key bytes lead.
    pub correct_bytes: usize,
    /// Rank of the true byte per position (0 = leading).
    pub ranks: Vec<usize>,
    /// Traces used.
    pub traces: u64,
}

/// Recovers all sixteen bytes of the last round key from one windowed
/// trace stream, then inverts the key schedule — the attack the paper's
/// single-byte demonstration implies.
///
/// The capture window spans the whole final round (all four datapath
/// columns), so every byte's leakage cycle is covered by the same
/// traces. The pilot phase and the trace points are the campaign
/// engines' own: a TDC source never samples the benign sensor, and
/// `TdcSingleBit` thresholds the depth at its tap. Only the first
/// attack slot is attacked, so `BenignSingleBit(None)` takes the first
/// of the engines' candidate endpoints, the pilot's most variable one.
///
/// # Errors
///
/// Propagates fabric construction failures.
pub fn full_key_recovery(
    circuit: BenignCircuit,
    source: SensorSource,
    traces: u64,
    pilot_traces: usize,
    seed: u64,
) -> Result<FullKeyResult, FabricError> {
    let exp = CpaExperiment {
        circuit,
        source,
        traces,
        checkpoints: 1,
        pilot_traces,
        seed,
    };
    let config = campaign_config(&exp, |_| {});
    let (mut fabric, setup) = pilot_setup(&exp, &config)?;
    let true_round_key = fabric.aes().round_keys()[10];
    let points = setup.points;

    let mut multi = MultiByteCpa::new(0, points);
    let mut batch = TraceBatch::with_capacity(points, ABSORB_BATCH as usize);
    let mut point_buf = vec![0.0f64; points];
    for t in 0..traces {
        let pt = fabric.random_plaintext();
        let rec = fabric.encrypt_windowed(pt, setup.window.clone(), &setup.endpoints);
        fill_points(&setup, &rec, 0, &mut point_buf);
        batch.push(rec.ciphertext, &point_buf);
        if batch.len() == ABSORB_BATCH as usize || t + 1 == traces {
            multi
                .add_batch(&batch)
                .expect("staging geometry matches the attack");
            batch.clear();
        }
    }

    // One 16 × 256-candidate evaluation, fanned out over the worker
    // pool and bit-identical at any worker count, gives the key, the
    // correct-byte count and the ranks.
    let peaks = multi.peak_correlations(0);
    let recovered_round_key = MultiByteCpa::round_key_of(&peaks);
    let recovered_master_key = soft::invert_key_schedule(&recovered_round_key);
    Ok(FullKeyResult {
        recovered_round_key,
        recovered_master_key,
        master_key_correct: recovered_master_key == config.aes_key,
        correct_bytes: recovered_round_key
            .iter()
            .zip(&true_round_key)
            .filter(|(a, b)| a == b)
            .count(),
        ranks: peaks
            .iter()
            .zip(&true_round_key)
            .map(|(peak, &k)| CpaAttack::rank_in(peak, k))
            .collect(),
        traces,
    })
}

/// TVLA verdict for one sensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TvlaResult {
    /// Max |t| over window points for the TDC.
    pub tdc_max_t: f64,
    /// Max |t| for the benign sensor (aligned Hamming weight).
    pub benign_max_t: f64,
    /// Whether each exceeds the 4.5 threshold.
    pub tdc_leaks: bool,
    /// Whether the benign sensor shows significant leakage.
    pub benign_leaks: bool,
}

/// Fixed-vs-random TVLA through both sensors simultaneously.
///
/// # Errors
///
/// Propagates fabric construction failures.
pub fn tvla_study(
    circuit: BenignCircuit,
    traces: u64,
    pilot_traces: usize,
    seed: u64,
) -> Result<TvlaResult, FabricError> {
    let config = FabricConfig {
        benign: circuit,
        seed,
        ..FabricConfig::default()
    };
    let mut fabric = MultiTenantFabric::new(&config)?;

    let benign = capture_pilot(&mut fabric, pilot_traces, true)
        .benign
        .expect("the pilot read the benign sensor");
    let bits = benign.bits_of_interest;
    let invert = common_mode_polarity(&benign.samples, &bits);
    let processor = PostProcessor::HammingWeightAligned(invert);

    let window = fabric.last_round_window();
    let points = window.len();
    let fixed_pt = [0x5a; 16];
    let mut tdc_test = WelchTTest::new(points);
    let mut benign_test = WelchTTest::new(points);
    let mut tdc_buf = vec![0.0f64; points];
    let mut benign_buf = vec![0.0f64; points];
    for i in 0..(2 * traces) {
        let fixed = i % 2 == 0;
        let pt = if fixed {
            fixed_pt
        } else {
            fabric.random_plaintext()
        };
        let rec = fabric.encrypt_windowed(pt, window.clone(), &bits);
        for (dst, &d) in tdc_buf.iter_mut().zip(&rec.tdc) {
            *dst = f64::from(d);
        }
        for (dst, s) in benign_buf.iter_mut().zip(&rec.benign) {
            *dst = processor.reduce(s);
        }
        tdc_test.add(fixed, &tdc_buf);
        benign_test.add(fixed, &benign_buf);
    }
    Ok(TvlaResult {
        tdc_max_t: tdc_test.max_abs_t(),
        benign_max_t: benign_test.max_abs_t(),
        tdc_leaks: tdc_test.leaks(),
        benign_leaks: benign_test.leaks(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{run_cpa, CpaExperiment};
    use slm_cpa::TVLA_THRESHOLD;
    use slm_obs::Obs;

    #[test]
    fn full_key_recovery_via_tdc() {
        let r = full_key_recovery(
            BenignCircuit::DualC6288,
            SensorSource::TdcAll,
            20_000,
            50,
            5,
        )
        .unwrap();
        assert!(
            r.correct_bytes >= 14,
            "TDC at 20k traces should recover nearly all bytes: {:?} (ranks {:?})",
            r.correct_bytes,
            r.ranks
        );
        if r.correct_bytes == 16 {
            assert!(r.master_key_correct);
            assert_eq!(r.recovered_master_key, FabricConfig::default().aes_key);
        }
    }

    /// A single-tap TDC source thresholds every depth at its tap, as
    /// the campaign engines do, so its attack sees other trace points
    /// than the raw depths of `TdcAll`.
    #[test]
    fn single_tap_full_key_recovery_thresholds_the_depth() {
        let run = |source| full_key_recovery(BenignCircuit::Alu192, source, 400, 30, 110).unwrap();
        let all = run(SensorSource::TdcAll);
        for tap in [Some(3), None] {
            assert_ne!(run(SensorSource::TdcSingleBit(tap)), all, "tap {tap:?}");
        }
    }

    #[test]
    fn tvla_detects_leakage_in_both_sensors() {
        let r = tvla_study(BenignCircuit::Alu192, 6_000, 50, 6).unwrap();
        assert!(r.tdc_leaks, "TDC t = {}", r.tdc_max_t);
        assert!(r.tdc_max_t > TVLA_THRESHOLD);
        // benign sensor: weaker but must still show leakage with margin
        assert!(r.benign_max_t > 3.0, "benign sensor t = {}", r.benign_max_t);
    }

    #[test]
    fn masking_defeats_first_order_cpa() {
        let base = CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcAll,
            traces: 5_000,
            checkpoints: 8,
            pilot_traces: 50,
            seed: 9,
        };
        let unmasked = run_cpa(&base, |_| {}, &Obs::null()).unwrap();
        let masked = run_cpa(&base, |config| config.masked_aes = true, &Obs::null()).unwrap();
        assert!(unmasked.mtd.is_some(), "unmasked baseline must disclose");
        assert!(
            masked.mtd.is_none(),
            "first-order CPA must fail against the masked datapath: {:?}",
            masked.mtd
        );
    }

    #[test]
    fn placement_distance_degrades_the_attack() {
        let base = CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcAll,
            traces: 3_000,
            checkpoints: 6,
            pilot_traces: 50,
            seed: 8,
        };
        let [near, far] = [1.0, 0.25]
            .map(|k| run_cpa(&base, |config| config.victim_coupling = k, &Obs::null()).unwrap());
        assert!(near.mtd.is_some(), "co-located attack must disclose");
        let near_margin = near
            .progress
            .last()
            .map(|p| p.margin(near.correct_key_byte))
            .unwrap_or(0.0);
        let far_margin = far
            .progress
            .last()
            .map(|p| p.margin(far.correct_key_byte))
            .unwrap_or(0.0);
        // quartering the coupling quarters the signal: either the far
        // attack fails outright or its margin collapses
        assert!(
            far.mtd.is_none() || far_margin < near_margin * 0.6,
            "near margin {near_margin}, far margin {far_margin}"
        );
    }
}
