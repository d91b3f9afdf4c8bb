//! Preliminary experiments: RO and AES influence on the benign sensors
//! (paper Section V-A and the matching C6288 experiments).

use serde::{Deserialize, Serialize};
use slm_cpa::{common_mode_polarity, BitActivity, BitCensus, PostProcessor};
use slm_fabric::{
    AesActivity, BenignCircuit, FabricConfig, FabricError, MultiTenantFabric, RoSchedule,
};

/// Output of the Fig. 5 / Fig. 6 / Fig. 14 experiment: the benign
/// circuit and the TDC observed while the RO array pulses at 4 MHz.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoResponse {
    /// Endpoints that changed at least once during the run ("sensitive"
    /// bits, the paper's *bits of interest*).
    pub sensitive_bits: Vec<usize>,
    /// Per sample: how many endpoints differ from the previous sample —
    /// the "toggling bits" view of Figs. 5/14.
    pub toggle_counts: Vec<u32>,
    /// Per sample: TDC thermometer depth (Fig. 6, red).
    pub tdc: Vec<u32>,
    /// Per sample: Hamming weight of the sensitive bits (Fig. 6, blue).
    pub hw_sensitive: Vec<u32>,
    /// Per sample: polarity-aligned Hamming weight of the sensitive
    /// bits — every endpoint counts a droop positively, so this series
    /// moves coherently opposite the TDC regardless of each endpoint's
    /// rise/fall direction.
    pub hw_aligned: Vec<f64>,
    /// Per sample: enabled RO count (ground truth of the stimulus).
    pub ro_enabled: Vec<usize>,
    /// Per sample: true supply voltage (simulation ground truth).
    pub voltage: Vec<f64>,
}

/// Runs the RO-influence experiment (Figs. 5, 6, 14).
///
/// # Errors
///
/// Propagates fabric construction failures.
pub fn ro_response(
    circuit: BenignCircuit,
    samples: usize,
    seed: u64,
) -> Result<RoResponse, FabricError> {
    let config = FabricConfig {
        benign: circuit,
        seed,
        ..FabricConfig::default()
    };
    let mut fabric = MultiTenantFabric::new(&config)?;
    let schedule = RoSchedule::paper_4mhz();
    let trace = fabric.run_activity(Some(&schedule), AesActivity::Idle, samples);

    let mut activity = BitActivity::new(fabric.endpoints());
    for s in &trace.benign {
        activity.add(s);
    }
    let sensitive_bits = activity.sensitive_bits();

    let invert = common_mode_polarity(&trace.benign, &sensitive_bits);
    let aligned = PostProcessor::HammingWeightAligned(invert);

    let mut toggle_counts = Vec::with_capacity(samples);
    let mut hw_sensitive = Vec::with_capacity(samples);
    let mut hw_aligned = Vec::with_capacity(samples);
    for (k, s) in trace.benign.iter().enumerate() {
        toggle_counts.push(if k == 0 {
            0
        } else {
            s.toggled_since(&trace.benign[k - 1])
        });
        hw_sensitive.push(s.hamming_weight_of(&sensitive_bits));
        // aligned HW over the sensitive subset
        let sub = {
            let mut bits = vec![0u64; sensitive_bits.len().div_ceil(64)];
            for (slot, &i) in sensitive_bits.iter().enumerate() {
                if s.bit(i) {
                    bits[slot / 64] |= 1 << (slot % 64);
                }
            }
            slm_sensors::SensorSample {
                bits,
                len: sensitive_bits.len(),
            }
        };
        hw_aligned.push(aligned.reduce(&sub));
    }
    Ok(RoResponse {
        sensitive_bits,
        toggle_counts,
        tdc: trace.tdc,
        hw_sensitive,
        hw_aligned,
        ro_enabled: trace.ro_enabled,
        voltage: trace.voltage,
    })
}

/// The sensitive-bit census of Figs. 7 and 15.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CensusResult {
    /// Total observable endpoints.
    pub total: usize,
    /// Endpoints sensitive to RO-array fluctuations.
    pub ro_sensitive: Vec<usize>,
    /// Endpoints toggling under AES activity.
    pub aes_sensitive: Vec<usize>,
    /// AES-affected endpoints that are also RO-sensitive (the paper:
    /// 39 of 40 for the ALU; all 32 for the C6288).
    pub intersection: Vec<usize>,
    /// AES-affected endpoints that the ROs do not affect.
    pub aes_only: Vec<usize>,
    /// Endpoints unaffected by either source.
    pub unaffected: usize,
}

/// Per-endpoint variance ranking of Figs. 8 and 16.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VarianceResult {
    /// `(endpoint, variance under ROs, variance under AES)` for every
    /// sensitive endpoint, in endpoint order.
    pub rows: Vec<(usize, f64, f64)>,
    /// The highest-variance endpoint under AES activity — the paper's
    /// single-bit sensor selection (bit 21 for its ALU, bit 28 for its
    /// C6288).
    pub best_aes_endpoint: Option<usize>,
}

/// Census + variance computed from one pair of activity runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityStudy {
    /// Figs. 7/15 content.
    pub census: CensusResult,
    /// Figs. 8/16 content.
    pub variance: VarianceResult,
}

/// Runs the RO-only and AES-only activity studies (Figs. 7, 8, 15, 16).
///
/// # Errors
///
/// Propagates fabric construction failures.
pub fn activity_study(
    circuit: BenignCircuit,
    samples: usize,
    seed: u64,
) -> Result<ActivityStudy, FabricError> {
    let config = FabricConfig {
        benign: circuit,
        seed,
        ..FabricConfig::default()
    };
    let mut fabric = MultiTenantFabric::new(&config)?;

    let schedule = RoSchedule::paper_4mhz();
    let ro_trace = fabric.run_activity(Some(&schedule), AesActivity::Idle, samples);
    let mut ro_act = BitActivity::new(fabric.endpoints());
    for s in &ro_trace.benign {
        ro_act.add(s);
    }

    // Fresh fabric for the AES-only run so RO-phase PDN state does not
    // leak into the census.
    let mut fabric = MultiTenantFabric::new(&config)?;
    let aes_trace = fabric.run_activity(None, AesActivity::Continuous, samples);
    let mut aes_act = BitActivity::new(fabric.endpoints());
    for s in &aes_trace.benign {
        aes_act.add(s);
    }

    let census_sets = BitCensus::compare(&ro_act, &aes_act);
    let census = CensusResult {
        total: census_sets.total,
        ro_sensitive: census_sets.source_a.clone(),
        aes_sensitive: census_sets.source_b.clone(),
        intersection: census_sets.intersection(),
        aes_only: census_sets.b_only(),
        unaffected: census_sets.unaffected(),
    };

    let mut rows = Vec::new();
    let mut union: Vec<usize> = census
        .ro_sensitive
        .iter()
        .chain(census.aes_sensitive.iter())
        .copied()
        .collect();
    union.sort_unstable();
    union.dedup();
    for &i in &union {
        rows.push((i, ro_act.variance(i), aes_act.variance(i)));
    }
    let variance = VarianceResult {
        rows,
        best_aes_endpoint: aes_act.best_endpoint(),
    };
    Ok(ActivityStudy { census, variance })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ro_response_shows_quiet_then_activity() {
        let r = ro_response(BenignCircuit::DualC6288, 400, 1).unwrap();
        assert_eq!(r.toggle_counts.len(), 400);
        assert!(
            !r.sensitive_bits.is_empty(),
            "RO burst must perturb some endpoints"
        );
        // Quiet lead-in (first ~40 samples, ROs off) vs active phase.
        let quiet: u32 = r.toggle_counts[..35].iter().sum();
        let active: u32 = r.toggle_counts[60..].iter().sum();
        assert!(
            active > quiet.max(1) * 3,
            "activity {active} should dwarf quiet {quiet}"
        );
        // TDC must dip under the droop.
        let tdc_quiet = r.tdc[..35].iter().copied().min().unwrap();
        let tdc_min = r.tdc.iter().copied().min().unwrap();
        assert!(
            tdc_min + 5 < tdc_quiet,
            "tdc {tdc_min} vs quiet {tdc_quiet}"
        );
    }

    #[test]
    fn hw_tracks_tdc_direction() {
        // Fig. 6 is an ALU figure: the post-processed ALU HW moves with
        // the TDC. (The C6288's hazard-rich endpoints fold at RO-scale
        // voltage swings — multiple transitions per endpoint — so its
        // large-signal HW is not monotone; Fig. 14 accordingly shows
        // only its raw toggling.)
        let r = ro_response(BenignCircuit::Alu192, 500, 2).unwrap();
        // correlation between tdc and hw_sensitive across samples
        let n = r.tdc.len() as f64;
        let mx = r.tdc.iter().map(|&x| x as f64).sum::<f64>() / n;
        let my = r.hw_aligned.iter().sum::<f64>() / n;
        let mut num = 0.0;
        let mut dx = 0.0;
        let mut dy = 0.0;
        for (&t, &h) in r.tdc.iter().zip(&r.hw_aligned) {
            num += (t as f64 - mx) * (h - my);
            dx += (t as f64 - mx).powi(2);
            dy += (h - my).powi(2);
        }
        let corr = num / (dx.sqrt() * dy.sqrt()).max(1e-12);
        // The aligned HW counts droops positively, so it must
        // anti-correlate with the TDC depth (which falls under droop).
        assert!(
            corr < -0.3,
            "aligned benign HW must anti-track the TDC, r = {corr}"
        );
    }

    #[test]
    fn census_subset_property() {
        let study = activity_study(BenignCircuit::DualC6288, 2_000, 3).unwrap();
        let c = &study.census;
        assert_eq!(c.total, 64);
        assert!(!c.ro_sensitive.is_empty());
        assert!(!c.aes_sensitive.is_empty());
        // The paper's key census observation: (almost) all AES-affected
        // bits are a subset of the RO-affected ones.
        assert!(
            c.aes_only.len() * 5 <= c.aes_sensitive.len().max(1),
            "AES-only bits {} of {}",
            c.aes_only.len(),
            c.aes_sensitive.len()
        );
        // ROs shake more bits than the (much weaker) AES activity.
        assert!(c.ro_sensitive.len() >= c.aes_sensitive.len());
        assert_eq!(
            c.unaffected,
            c.total - c.ro_sensitive.len() - c.aes_only.len()
        );
    }

    #[test]
    fn variance_ranks_a_best_bit() {
        let v = activity_study(BenignCircuit::DualC6288, 2_000, 4)
            .unwrap()
            .variance;
        assert!(!v.rows.is_empty());
        let best = v.best_aes_endpoint.expect("AES must perturb some bit");
        let best_var = v
            .rows
            .iter()
            .find(|&&(i, _, _)| i == best)
            .map(|&(_, _, va)| va)
            .unwrap();
        for &(_, _, va) in &v.rows {
            assert!(va <= best_var + 1e-12);
        }
    }
}
