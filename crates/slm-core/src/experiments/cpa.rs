//! The CPA key-recovery experiments (paper Figs. 9–13, 17, 18).

use serde::{Deserialize, Serialize};
use slm_cpa::{
    common_mode_polarity, leader_margin, measurements_to_disclosure, BitActivity, CpaAttack,
    LastRoundModel, PostProcessor, ProgressPoint, TraceBatch,
};
use slm_fabric::{
    AesActivity, BenignCircuit, CaptureRecord, FabricConfig, FabricError, MultiTenantFabric,
};
use slm_obs::Obs;
use slm_sensors::SensorSample;
use std::ops::Range;

/// Traces staged per accumulator flush in the lane kernel
/// ([`run_lane`]) — and so the most raw captures any lane holds at
/// once. Chunks never cross a checkpoint boundary, and batch
/// absorption is bit-identical to one-at-a-time absorption
/// ([`CpaAttack::add_batch`]), so the value only affects throughput
/// and memory.
pub(crate) const ABSORB_BATCH: u64 = 32;

/// Which sensor feeds the attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SensorSource {
    /// TDC thermometer depth (Fig. 9).
    TdcAll,
    /// One thermometer tap of the TDC (Fig. 11; the paper uses the
    /// highest-variance tap, bit 32, next to the idle level). `None`
    /// selects the tap at the pilot-phase median depth — the tap that
    /// dithers most at the operating point.
    TdcSingleBit(Option<usize>),
    /// Hamming weight of the benign circuit's *bits of interest*
    /// (Figs. 10, 17).
    BenignHammingWeight,
    /// One benign-circuit path endpoint (Figs. 12, 13, 18). `Some(i)`
    /// forces endpoint `i`; `None` records the top eight pilot-phase
    /// endpoints by variance, attacks each in parallel, and keeps the
    /// one whose leading candidate separates best — the offline
    /// selection the paper describes ("this particular bit … lead to a
    /// slightly better result").
    BenignSingleBit(Option<usize>),
}

/// Parameters of one CPA campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpaExperiment {
    /// The benign circuit sharing the fabric with the victim.
    pub circuit: BenignCircuit,
    /// Which sensor output the attacker records.
    pub source: SensorSource,
    /// Number of attack traces.
    pub traces: u64,
    /// Number of evenly spaced progress checkpoints.
    pub checkpoints: usize,
    /// Traces of the pilot phase that identifies the bits of interest.
    pub pilot_traces: usize,
    /// Experiment seed.
    pub seed: u64,
}

/// Outcome of one CPA campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpaResult {
    /// Ground-truth last-round key byte under attack.
    pub correct_key_byte: u8,
    /// The leading candidate at the end, if it strictly leads.
    pub recovered_key_byte: Option<u8>,
    /// Traces needed until the correct key led for good, if it did.
    pub mtd: Option<u64>,
    /// Correlation-progress checkpoints (the paper's "(b)" panels).
    pub progress: Vec<ProgressPoint>,
    /// Final peak |r| per candidate (the paper's "(a)" panels).
    pub final_peaks: Vec<f64>,
    /// Endpoints identified as fluctuating during the pilot phase.
    /// Empty for TDC sources, whose pilot never samples the benign
    /// sensor.
    pub bits_of_interest: Vec<usize>,
    /// The endpoint used for single-bit attacks.
    pub selected_bit: Option<usize>,
    /// Total traces processed.
    pub traces: u64,
}

/// Everything the pilot phase decides about a campaign: the hypothesis
/// model, the ground truth, the derived endpoint selections and the
/// trace post-processing. Shared by every campaign engine so all of
/// them make identical offline decisions.
#[derive(Debug, Clone)]
pub(crate) struct CampaignSetup {
    pub source: SensorSource,
    pub model: LastRoundModel,
    pub correct_key_byte: u8,
    pub bits_of_interest: Vec<usize>,
    pub candidate_bits: Vec<usize>,
    pub selected_bit: Option<usize>,
    pub window: Range<usize>,
    pub points: usize,
    pub endpoints: Vec<usize>,
    pub single_bit_slots: usize,
    pub processor: Option<PostProcessor>,
}

impl CampaignSetup {
    /// Empty accumulators, one per attack slot (one per single-bit
    /// candidate; slot 0 for the other sources).
    pub fn fresh_attacks(&self) -> Vec<CpaAttack> {
        (0..self.single_bit_slots)
            .map(|_| CpaAttack::new(self.model, self.points))
            .collect()
    }
}

/// The base fabric configuration of a campaign: the experiment's
/// circuit and seed, then the caller's `tweak`.
pub(crate) fn campaign_config(
    exp: &CpaExperiment,
    tweak: impl FnOnce(&mut FabricConfig),
) -> FabricConfig {
    let mut config = FabricConfig {
        benign: exp.circuit,
        seed: exp.seed,
        ..FabricConfig::default()
    };
    tweak(&mut config);
    config
}

/// Whether a campaign attacking through `source` reads the benign
/// sensor at all. TDC sources attack the reference sensor only.
pub(crate) fn reads_benign(source: SensorSource) -> bool {
    !matches!(source, SensorSource::TdcAll | SensorSource::TdcSingleBit(_))
}

/// The benign sensor's pilot recording.
pub(crate) struct BenignPilot {
    /// Per-endpoint toggle statistics over every pilot sample.
    pub activity: BitActivity,
    /// Every pilot sample, in capture order.
    pub samples: Vec<SensorSample>,
    /// The fluctuating endpoints; every endpoint when none toggled.
    pub bits_of_interest: Vec<usize>,
}

/// What a pilot phase recorded.
pub(crate) struct Pilot {
    /// TDC depth at every measure edge of every pilot capture.
    pub tdc_depths: Vec<u32>,
    /// The benign sensor's recording, when the pilot read it.
    pub benign: Option<BenignPilot>,
}

/// The pilot capture loop: captures `traces` random-plaintext
/// encryptions on `fabric`, reading the benign sensor only when
/// `benign` is set.
///
/// A TDC-only pilot capture is [`MultiTenantFabric::encrypt_windowed`]
/// over every measure edge with no benign endpoints. It leaves the
/// plaintext, AES, PDN, TDC, defense and fault streams exactly where a
/// full capture would — only the benign sensor's own noise stream
/// differs — so a campaign that never reads the benign sensor sees the
/// same traces after either pilot. The window is unbounded because a
/// clock-jittered capture has more edges than
/// [`MultiTenantFabric::samples_per_encryption`].
pub(crate) fn capture_pilot(fabric: &mut MultiTenantFabric, traces: usize, benign: bool) -> Pilot {
    let mut tdc_depths = Vec::new();
    let mut recording = benign.then(|| (BitActivity::new(fabric.endpoints()), Vec::new()));
    for _ in 0..traces {
        let pt = fabric.random_plaintext();
        let tdc = match &mut recording {
            Some((activity, samples)) => {
                let rec = fabric.encrypt_and_capture(pt);
                for s in &rec.benign {
                    activity.add(s);
                }
                samples.extend(rec.benign);
                rec.tdc
            }
            None => fabric.encrypt_windowed(pt, 0..usize::MAX, &[]).tdc,
        };
        tdc_depths.extend(tdc);
    }
    let benign = recording.map(|(activity, samples)| {
        let mut bits_of_interest = activity.sensitive_bits();
        if bits_of_interest.is_empty() {
            bits_of_interest = (0..fabric.endpoints()).collect();
        }
        BenignPilot {
            activity,
            samples,
            bits_of_interest,
        }
    });
    Pilot { tdc_depths, benign }
}

/// The pilot-free part of a campaign setup: model, ground truth and
/// capture window, plus a forced TDC tap. Every pilot-decided field is
/// empty.
fn base_setup(fabric: &MultiTenantFabric, source: SensorSource) -> CampaignSetup {
    let model = LastRoundModel::paper_target();
    let window = fabric.last_round_window();
    CampaignSetup {
        source,
        model,
        correct_key_byte: fabric.aes().round_keys()[10][model.ct_byte],
        bits_of_interest: Vec::new(),
        candidate_bits: Vec::new(),
        selected_bit: match source {
            SensorSource::TdcSingleBit(Some(b)) => Some(b),
            _ => None,
        },
        points: window.len(),
        window,
        endpoints: Vec::new(),
        single_bit_slots: 1,
        processor: None,
    }
}

/// Runs the pilot phase on a fresh fabric built from `config` and
/// derives the campaign setup. The fabric is returned with its noise
/// and plaintext streams advanced past the pilot, so the serial runner
/// can keep capturing on it as one electrical stream.
///
/// The pilot reads only the sensor the source attacks
/// ([`capture_pilot`]). A TDC source takes at most the median pilot
/// depth from it (`TdcSingleBit(None)`'s tap), so its result's
/// `bits_of_interest` is empty.
pub(crate) fn pilot_setup(
    exp: &CpaExperiment,
    config: &FabricConfig,
) -> Result<(MultiTenantFabric, CampaignSetup), FabricError> {
    let mut fabric = MultiTenantFabric::new(config)?;
    let mut pilot = capture_pilot(&mut fabric, exp.pilot_traces, reads_benign(exp.source));
    let mut setup = base_setup(&fabric, exp.source);
    match (exp.source, pilot.benign) {
        (SensorSource::TdcSingleBit(None), _) => {
            pilot.tdc_depths.sort_unstable();
            let median = pilot.tdc_depths.get(pilot.tdc_depths.len() / 2);
            setup.selected_bit = Some(median.map_or(31, |&d| d as usize));
        }
        (SensorSource::BenignHammingWeight, Some(b)) => {
            // Align each endpoint's droop polarity, estimated offline
            // from the pilot recording (covariance with the common
            // mode). For the ALU adder all sensitive endpoints share a
            // polarity, so this reduces to the paper's plain Hamming
            // weight; the C6288's mixed rise/fall endpoints would
            // otherwise cancel in the sum.
            let invert = common_mode_polarity(&b.samples, &b.bits_of_interest);
            setup.processor = Some(PostProcessor::HammingWeightAligned(invert));
            setup.endpoints = b.bits_of_interest.clone();
            setup.bits_of_interest = b.bits_of_interest;
        }
        (SensorSource::BenignSingleBit(forced), Some(b)) => {
            // Candidate endpoints: the top pilot endpoints by variance
            // (one forced endpoint counts as a single candidate).
            let candidate_bits: Vec<usize> = match forced {
                Some(i) => vec![i],
                None => {
                    let activity = &b.activity;
                    let picks: Vec<usize> = activity
                        .by_variance()
                        .into_iter()
                        .filter(|&i| activity.variance(i) > 0.0)
                        .take(8)
                        .collect();
                    if picks.is_empty() {
                        // nothing toggled in the pilot: fall back to the
                        // first bit of interest so the attack still runs
                        vec![b.bits_of_interest[0]]
                    } else {
                        picks
                    }
                }
            };
            setup.selected_bit = Some(candidate_bits[0]);
            setup.single_bit_slots = candidate_bits.len();
            setup.processor = Some(PostProcessor::SingleBit(0));
            setup.endpoints = candidate_bits.clone();
            setup.candidate_bits = candidate_bits;
            setup.bits_of_interest = b.bits_of_interest;
        }
        _ => {}
    }
    Ok((fabric, setup))
}

/// Whether every campaign decision for `source` is known without
/// running pilot captures: TDC sources with a fixed (or no) tap take
/// nothing from the pilot.
pub(crate) fn pilot_independent(source: SensorSource) -> bool {
    matches!(
        source,
        SensorSource::TdcAll | SensorSource::TdcSingleBit(Some(_))
    )
}

/// The setup of a campaign whose lanes each build their own fabric, so
/// no lane continues the pilot's electrical stream. A
/// [`pilot_independent`] source derives it from the configuration
/// alone and runs no pilot; any other source runs [`pilot_setup`]
/// under the span `pilot_span` and discards the pilot's fabric.
pub(crate) fn lane_setup(
    exp: &CpaExperiment,
    config: &FabricConfig,
    obs: &Obs,
    pilot_span: &'static str,
) -> Result<CampaignSetup, FabricError> {
    if pilot_independent(exp.source) {
        return Ok(base_setup(&MultiTenantFabric::new(config)?, exp.source));
    }
    let _pilot_span = obs.span(pilot_span);
    Ok(pilot_setup(exp, config)?.1)
}

/// Post-processes one capture into the trace points of attack slot
/// `slot` — the single shared definition of every sensor source's
/// trace-point function.
pub(crate) fn fill_points(
    setup: &CampaignSetup,
    rec: &CaptureRecord,
    slot: usize,
    point_buf: &mut [f64],
) {
    match setup.source {
        SensorSource::TdcAll => {
            for (dst, &d) in point_buf.iter_mut().zip(&rec.tdc) {
                *dst = f64::from(d);
            }
        }
        SensorSource::TdcSingleBit(_) => {
            let b = setup.selected_bit.expect("set by pilot");
            for (dst, &d) in point_buf.iter_mut().zip(&rec.tdc) {
                *dst = f64::from(u8::from(d as usize >= b));
            }
        }
        SensorSource::BenignSingleBit(_) => {
            for (dst, s) in point_buf.iter_mut().zip(&rec.benign) {
                *dst = f64::from(u8::from(s.bit(slot)));
            }
        }
        SensorSource::BenignHammingWeight => {
            let p = setup.processor.as_ref().expect("set by pilot");
            for (dst, s) in point_buf.iter_mut().zip(&rec.benign) {
                *dst = p.reduce(s);
            }
        }
    }
}

/// Where a campaign takes progress points: after every `every` traces
/// of the global trace stream, and after its last trace, `total`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CheckpointGrid {
    pub every: u64,
    pub total: u64,
}

impl CheckpointGrid {
    /// The experiment's `checkpoints` evenly spaced progress points.
    pub fn of(exp: &CpaExperiment) -> Self {
        CheckpointGrid {
            every: (exp.traces / exp.checkpoints.max(1) as u64).max(1),
            total: exp.traces,
        }
    }

    fn holds(&self, t: u64) -> bool {
        t % self.every == 0 || t == self.total
    }
}

/// The CPA lane kernel: the one capture→absorb loop behind every CPA
/// campaign engine.
///
/// Captures the global traces `range` on `fabric` in chunks of at most
/// [`ABSORB_BATCH`] traces that never cross a `grid` checkpoint,
/// post-processes each chunk into per-slot [`TraceBatch`]es, absorbs
/// them with [`CpaAttack::add_batch`], and hands the accumulators to
/// `on_checkpoint` at every grid point the range reaches. Returns the
/// accumulators. Plaintext generation stays interleaved with
/// encryption (both draw from the fabric's seed stream), and batch
/// absorption is bit-identical to absorbing the traces one at a time,
/// so neither the chunk size nor the grid changes the result; raw
/// captures live for one chunk only.
pub(crate) fn run_lane(
    fabric: &mut MultiTenantFabric,
    setup: &CampaignSetup,
    range: Range<u64>,
    grid: CheckpointGrid,
    obs: &Obs,
    mut on_checkpoint: impl FnMut(u64, &[CpaAttack]),
) -> Vec<CpaAttack> {
    let mut attacks = setup.fresh_attacks();
    let mut staging: Vec<TraceBatch> = (0..setup.single_bit_slots)
        .map(|_| TraceBatch::with_capacity(setup.points, ABSORB_BATCH as usize))
        .collect();
    let mut point_buf = vec![0.0f64; setup.points];
    let mut recs: Vec<CaptureRecord> = Vec::with_capacity(ABSORB_BATCH as usize);
    let mut t = range.start;
    while t < range.end {
        let boundary = (t / grid.every + 1) * grid.every;
        let stop = boundary.min(range.end).min(t + ABSORB_BATCH);
        recs.clear();
        {
            let _capture_span = obs.span("cpa.capture");
            for _ in t..stop {
                let pt = fabric.random_plaintext();
                recs.push(fabric.encrypt_windowed(pt, setup.window.clone(), &setup.endpoints));
            }
        }
        {
            let _absorb_span = obs.span("cpa.absorb");
            obs.add("cpa.traces_absorbed", recs.len() as u64);
            for rec in &recs {
                for (slot, batch) in staging.iter_mut().enumerate() {
                    fill_points(setup, rec, slot, &mut point_buf);
                    batch.push(rec.ciphertext, &point_buf);
                }
            }
            for (attack, batch) in attacks.iter_mut().zip(&mut staging) {
                attack
                    .add_batch(batch)
                    .expect("staging geometry matches the attack");
                obs.add("cpa.accumulator_traces", batch.len() as u64);
                batch.clear();
            }
        }
        t = stop;
        if grid.holds(t) {
            on_checkpoint(t, &attacks);
        }
    }
    attacks
}

/// Records a campaign fabric's PDN telemetry, and its defense telemetry
/// when a defense is deployed, as `pdn.*` / `defense.*` gauges and
/// counters — the one definition every campaign runner shares, so the
/// metric names and their order are the same on every path.
pub(crate) fn record_fabric_telemetry(fabric: &MultiTenantFabric, obs: &Obs) {
    if !obs.enabled() {
        return;
    }
    let t = fabric.pdn_telemetry();
    obs.gauge("pdn.v_min", t.v_min);
    obs.gauge("pdn.v_max", t.v_max);
    obs.gauge("pdn.settled_streak", t.settled_streak as f64);
    if let Some(d) = fabric.defense_telemetry() {
        obs.gauge("defense.injected_max_a", d.injected_max_a);
        obs.gauge("defense.injected_mean_a", d.injected_mean_a());
        obs.gauge("defense.detector_max_score", d.max_score);
        obs.add("defense.windows", d.windows);
        obs.add("defense.alarm_windows", d.alarm_windows);
        obs.add("defense.alarm_events", d.alarm_events);
        obs.add("defense.jitter_cycles", d.jitter_cycles);
    }
}

/// Turns finished accumulators and their progress curves into a
/// [`CpaResult`]: picks the best single-bit candidate slot, derives the
/// MTD and the recovered byte. Each slot's final peak-|r| surface is
/// its last progress point when that point is at `traces` — every
/// [`CheckpointGrid`] holds its total — and is evaluated only when it
/// is not; every decision below reads that one surface.
pub(crate) fn assemble_result(
    setup: &CampaignSetup,
    attacks: &[CpaAttack],
    mut progress_per: Vec<Vec<ProgressPoint>>,
    traces: u64,
) -> CpaResult {
    let mut final_per: Vec<Vec<f64>> = attacks
        .iter()
        .zip(&progress_per)
        .map(|(attack, progress)| match progress.last() {
            Some(p) if p.traces == traces => p.peak_corr.clone(),
            _ => attack.peak_correlations().to_vec(),
        })
        .collect();
    // For multi-candidate single-bit attacks, keep the candidate whose
    // leading key separates best from the runner-up — computable without
    // ground truth.
    let chosen_slot = if attacks.len() == 1 {
        0
    } else {
        let margins: Vec<f64> = final_per.iter().map(|p| leader_margin(p)).collect();
        (0..attacks.len())
            .max_by(|&a, &b| {
                margins[a]
                    .partial_cmp(&margins[b])
                    .expect("margins are finite")
            })
            .unwrap_or(0)
    };
    let final_peaks = final_per.swap_remove(chosen_slot);
    let progress = progress_per.swap_remove(chosen_slot);
    let selected_bit = match setup.source {
        SensorSource::BenignSingleBit(_) => setup.candidate_bits.get(chosen_slot).copied(),
        _ => setup.selected_bit,
    };
    let correct_key_byte = setup.correct_key_byte;
    let mtd = measurements_to_disclosure(&progress, correct_key_byte);
    let recovered_key_byte = progress
        .last()
        .filter(|p| p.key_leads(correct_key_byte))
        .map(|_| correct_key_byte)
        .or_else(|| {
            // report the actual leader when it is not the correct key
            let (best, _) = CpaAttack::best_of(&final_peaks);
            (CpaAttack::rank_in(&final_peaks, best) == 0 && best != correct_key_byte)
                .then_some(best)
        });
    CpaResult {
        correct_key_byte,
        recovered_key_byte,
        mtd,
        progress,
        final_peaks,
        bits_of_interest: setup.bits_of_interest.clone(),
        selected_bit,
        traces,
    }
}

/// Runs one CPA campaign on a single fabric.
///
/// Pipeline (matching the paper's workflow): a pilot phase captures full
/// endpoint vectors while the victim encrypts, from which the
/// fluctuating *bits of interest* and the highest-variance endpoint are
/// derived (a TDC source's pilot captures only TDC depths, which fix
/// `TdcSingleBit(None)`'s tap); the main phase then captures only the
/// final-round window (and only the needed endpoints), post-processes
/// each capture to scalar points, and feeds a streaming last-round CPA
/// — the lane kernel over the pilot's own fabric, so the whole
/// campaign is one electrical stream. `tweak` edits the fabric
/// configuration before the fabric is built (the hook the
/// countermeasure and placement studies use; pass `|_| {}` for none).
/// The campaign emits `cpa.*` counters, per-checkpoint leader margins
/// and PDN/defense telemetry into `obs`; with [`Obs::null`] it records
/// nothing.
///
/// # Errors
///
/// Propagates fabric construction failures.
pub fn run_cpa(
    exp: &CpaExperiment,
    tweak: impl FnOnce(&mut FabricConfig),
    obs: &Obs,
) -> Result<CpaResult, FabricError> {
    let config = campaign_config(exp, tweak);
    let (mut fabric, setup) = {
        let _pilot_span = obs.span("cpa.pilot");
        pilot_setup(exp, &config)?
    };
    let mut progress_per: Vec<Vec<ProgressPoint>> =
        vec![Vec::with_capacity(exp.checkpoints); setup.single_bit_slots];
    let grid = CheckpointGrid::of(exp);
    let attacks = run_lane(
        &mut fabric,
        &setup,
        0..exp.traces,
        grid,
        obs,
        |t, attacks| {
            let _eval_span = obs.span("cpa.eval");
            for (slot, attack) in attacks.iter().enumerate() {
                let peaks = attack.peak_correlations().to_vec();
                if slot == 0 {
                    obs.observe("cpa.checkpoint_margin", leader_margin(&peaks));
                }
                progress_per[slot].push(ProgressPoint {
                    traces: t,
                    peak_corr: peaks,
                });
            }
        },
    );
    record_fabric_telemetry(&fabric, obs);

    Ok(assemble_result(&setup, &attacks, progress_per, exp.traces))
}

/// Runs an AES-activity pilot only, returning the activity accumulator —
/// shared helper for studies that need endpoint statistics under real
/// victim traffic.
///
/// # Errors
///
/// Propagates fabric construction failures.
pub fn aes_pilot_activity(
    circuit: BenignCircuit,
    samples: usize,
    seed: u64,
) -> Result<BitActivity, FabricError> {
    let config = FabricConfig {
        benign: circuit,
        seed,
        ..FabricConfig::default()
    };
    let mut fabric = MultiTenantFabric::new(&config)?;
    let trace = fabric.run_activity(None, AesActivity::Continuous, samples);
    let mut activity = BitActivity::new(fabric.endpoints());
    for s in &trace.benign {
        activity.add(s);
    }
    Ok(activity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tdc_recovers_key_quickly() {
        let exp = CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcAll,
            traces: 4_000,
            checkpoints: 8,
            pilot_traces: 100,
            seed: 7,
        };
        let r = run_cpa(&exp, |_| {}, &Obs::null()).unwrap();
        assert_eq!(r.recovered_key_byte, Some(r.correct_key_byte));
        let mtd = r.mtd.expect("TDC should disclose the key");
        assert!(mtd <= 3_000, "TDC MTD {mtd} should be well under 3k traces");
        assert_eq!(r.progress.len(), 8);
        assert_eq!(r.final_peaks.len(), 256);
    }

    #[test]
    fn tdc_single_bit_recovers_key() {
        let exp = CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcSingleBit(None),
            traces: 8_000,
            checkpoints: 8,
            pilot_traces: 100,
            seed: 8,
        };
        let r = run_cpa(&exp, |_| {}, &Obs::null()).unwrap();
        assert_eq!(r.recovered_key_byte, Some(r.correct_key_byte));
    }

    #[test]
    fn recorded_campaign_emits_cpa_metrics() {
        let exp = CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::TdcAll,
            traces: 120,
            checkpoints: 3,
            pilot_traces: 20,
            seed: 5,
        };
        let obs = Obs::memory();
        let recorded = run_cpa(&exp, |_| {}, &obs).unwrap();
        let plain = run_cpa(&exp, |_| {}, &Obs::null()).unwrap();
        // Observability must never perturb the result.
        assert_eq!(recorded, plain);
        let frame = obs.snapshot();
        assert_eq!(frame.counter("cpa.traces_absorbed"), 120);
        assert_eq!(frame.counter("cpa.accumulator_traces"), 120);
        let margins = &frame.histograms["cpa.checkpoint_margin"];
        assert_eq!(margins.count, 3);
        assert_eq!(frame.spans["cpa.pilot"].count, 1);
        let v_min = frame.gauges["pdn.v_min"].last;
        let v_max = frame.gauges["pdn.v_max"].last;
        assert!(v_min < v_max, "droop telemetry: {v_min} .. {v_max}");
    }

    #[test]
    fn pilot_finds_bits_of_interest() {
        let exp = CpaExperiment {
            circuit: BenignCircuit::DualC6288,
            source: SensorSource::BenignSingleBit(None),
            traces: 200,
            checkpoints: 2,
            pilot_traces: 150,
            seed: 9,
        };
        let r = run_cpa(&exp, |_| {}, &Obs::null()).unwrap();
        assert!(!r.bits_of_interest.is_empty());
        let bit = r.selected_bit.unwrap();
        assert!(r.bits_of_interest.contains(&bit));
    }
}
