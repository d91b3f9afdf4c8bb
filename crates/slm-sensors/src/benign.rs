//! The benign-logic sensor: the paper's core contribution.

use serde::{Deserialize, Serialize};
use slm_pdn::noise::Rng64;
use slm_timing::{VoltageDelayLaw, Waveform};

/// Operating point of a misused benign circuit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenignSensorConfig {
    /// Overclocked frequency the circuit runs at, MHz (the paper uses
    /// 300 MHz for circuits synthesized at 50 MHz).
    pub clock_mhz: f64,
    /// Voltage→delay law of the fabric.
    pub law: VoltageDelayLaw,
    /// Static per-endpoint capture-time spread (clock skew plus
    /// endpoint-to-register routing), RMS ps.
    pub skew_sigma_ps: f64,
    /// Per-sample capture jitter, RMS ps.
    pub jitter_sigma_ps: f64,
    /// RMS amplitude of the slow common-mode capture-time drift
    /// (temperature and flicker noise wandering the operating point), ps.
    pub drift_sigma_ps: f64,
    /// Correlation time of the drift process, seconds.
    pub drift_tau_s: f64,
    /// Seconds between consecutive samples (for the drift update);
    /// the fabric samples every 2nd 300 MHz tick.
    pub sample_interval_s: f64,
    /// Seed for skew assignment and jitter.
    pub seed: u64,
}

impl BenignSensorConfig {
    /// The paper's operating point: 300 MHz capture clock.
    pub fn overclocked_300mhz(seed: u64) -> Self {
        BenignSensorConfig {
            clock_mhz: 300.0,
            law: VoltageDelayLaw::default(),
            skew_sigma_ps: 60.0,
            jitter_sigma_ps: 60.0,
            drift_sigma_ps: 35.0,
            drift_tau_s: 5e-6,
            sample_interval_s: 2.0 / 300.0e6,
            seed,
        }
    }
}

impl Default for BenignSensorConfig {
    fn default() -> Self {
        Self::overclocked_300mhz(0xbe9)
    }
}

/// One captured measure-cycle result: the values latched from every path
/// endpoint of the benign circuit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SensorSample {
    /// Captured endpoint bits, packed LSB-first into 64-bit words.
    pub bits: Vec<u64>,
    /// Number of valid endpoint bits.
    pub len: usize,
}

impl SensorSample {
    /// Value of endpoint `i`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len, "endpoint {i} out of range {}", self.len);
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Hamming weight over all endpoints.
    pub fn hamming_weight(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// Hamming weight over a subset of endpoints (the post-processing
    /// step that restricts to *bits of interest*).
    pub fn hamming_weight_of(&self, endpoints: &[usize]) -> u32 {
        endpoints.iter().map(|&i| u32::from(self.bit(i))).sum()
    }

    /// XOR distance to another sample (which endpoints toggled).
    pub fn toggled_since(&self, other: &SensorSample) -> u32 {
        self.bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }
}

/// A benign circuit misused as a voltage sensor.
///
/// Construction: run `slm_timing::simulate_transition` once with the
/// chosen reset/measure stimulus pair to obtain the endpoint
/// [`Waveform`]s, then sample per capture edge. At supply voltage `v`
/// all delays scale by `law.scale(v)`; equivalently the capture edge
/// moves to `T / scale(v)` on the nominal waveform, which is how
/// [`BenignSensor::sample`] evaluates each endpoint without
/// re-simulating the netlist: one search of its transitions, started
/// where the endpoint's previous capture fell.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct BenignSensor {
    waves: Vec<Waveform>,
    skew_fs: Vec<f64>,
    period_fs: f64,
    config: BenignSensorConfig,
    rng: Rng64,
    /// Ornstein–Uhlenbeck state of the common-mode drift, fs.
    drift_fs: f64,
    drift_rho: f64,
    /// Per endpoint, the transition index its last capture found.
    hints: Vec<usize>,
    /// Capture scratch: near-transition `(slot, endpoint, t_nominal)`s
    /// and their jitter draws.
    near: Vec<(usize, usize, f64)>,
    jitter: Vec<f64>,
}

/// `transitions.partition_point(|t| (t as f64) < t_fs)`, trying `hint`
/// first.
fn hinted_partition(transitions: &[(u64, bool)], hint: usize, t_fs: f64) -> usize {
    let before = |j: usize| (transitions[j].0 as f64) < t_fs;
    if (hint == 0 || before(hint - 1)) && (hint == transitions.len() || !before(hint)) {
        hint
    } else {
        transitions.partition_point(|&(t, _)| (t as f64) < t_fs)
    }
}

/// [`Waveform::sampled_at`]`(t_fs)` by walking from index `from`: the
/// transitions are sorted, so the walk stops where a search would.
fn sampled_from(w: &Waveform, from: usize, t_fs: u64) -> bool {
    let tr = &w.transitions;
    let mut m = from;
    while m > 0 && tr[m - 1].0 >= t_fs {
        m -= 1;
    }
    while m < tr.len() && tr[m].0 < t_fs {
        m += 1;
    }
    match m {
        0 => w.initial,
        m => tr[m - 1].1,
    }
}

impl BenignSensor {
    /// Creates a sensor from endpoint waveforms (one per observed path
    /// endpoint) and an operating point.
    pub fn new(waves: Vec<Waveform>, config: BenignSensorConfig) -> Self {
        let mut rng = Rng64::new(config.seed);
        let skew_fs = (0..waves.len())
            .map(|_| rng.normal_scaled(config.skew_sigma_ps * 1000.0))
            .collect();
        let period_fs = 1000.0 / config.clock_mhz * 1e6;
        let drift_rho = if config.drift_tau_s > 0.0 {
            (-config.sample_interval_s / config.drift_tau_s).exp()
        } else {
            0.0
        };
        BenignSensor {
            hints: vec![0; waves.len()],
            waves,
            skew_fs,
            period_fs,
            config,
            rng,
            drift_fs: 0.0,
            drift_rho,
            near: Vec::new(),
            jitter: Vec::new(),
        }
    }

    /// Advances the slow common-mode drift by one sample interval and
    /// returns its current value in femtoseconds.
    fn step_drift(&mut self) -> f64 {
        if self.config.drift_sigma_ps == 0.0 {
            return 0.0;
        }
        let sigma = self.config.drift_sigma_ps * 1000.0;
        let innov = sigma * (1.0 - self.drift_rho * self.drift_rho).sqrt();
        self.drift_fs = self.drift_rho * self.drift_fs + self.rng.normal_scaled(innov);
        self.drift_fs
    }

    /// Number of observed endpoints.
    pub fn len(&self) -> usize {
        self.waves.len()
    }

    /// Whether the sensor observes no endpoints.
    pub fn is_empty(&self) -> bool {
        self.waves.is_empty()
    }

    /// Captures all endpoints at the measure edge under supply voltage
    /// `v`.
    pub fn sample(&mut self, v: f64) -> SensorSample {
        self.capture(v, 0..self.waves.len())
    }

    /// Captures only the listed endpoints (in the given order) — the
    /// cheap path when the attacker has already reduced to *bits of
    /// interest* and does not need the full endpoint vector.
    pub fn sample_endpoints(&mut self, v: f64, endpoints: &[usize]) -> SensorSample {
        self.capture(v, endpoints.iter().copied())
    }

    /// The capture kernel: latches `endpoints`, in order, into
    /// consecutive slots. One hinted search per endpoint finds `k`, the
    /// transitions before the nominal capture time; the value at
    /// `t_int = ⌊t_nominal⌋` is a walk of at most one step back from
    /// it. Endpoints near a transition take jitter from one block of
    /// draws, in endpoint order — the stream one draw per endpoint
    /// would consume. A read of no endpoint only advances the drift,
    /// which keeps the sensor's stream where a full read leaves it,
    /// without evaluating the voltage law.
    fn capture(&mut self, v: f64, endpoints: impl ExactSizeIterator<Item = usize>) -> SensorSample {
        let len = endpoints.len();
        if len == 0 {
            self.step_drift();
            return SensorSample {
                bits: Vec::new(),
                len,
            };
        }
        let scale = self.config.law.scale(v);
        let t0 = self.period_fs / scale + self.step_drift();
        let sigma_fs = self.config.jitter_sigma_ps * 1000.0;
        let jitter_band_fs = 4.5 * sigma_fs;
        let mut bits = vec![0u64; len.div_ceil(64)];
        self.near.clear();
        for (slot, i) in endpoints.enumerate() {
            let w = &self.waves[i];
            let t_nominal = t0 + self.skew_fs[i] / scale;
            let value = if w.transitions.is_empty() {
                w.initial
            } else {
                let k = hinted_partition(&w.transitions, self.hints[i], t_nominal);
                self.hints[i] = k;
                let before = if k > 0 {
                    t_nominal - w.transitions[k - 1].0 as f64
                } else {
                    f64::INFINITY
                };
                let after = if k < w.transitions.len() {
                    w.transitions[k].0 as f64 - t_nominal
                } else {
                    f64::INFINITY
                };
                if before.min(after) <= jitter_band_fs && self.config.jitter_sigma_ps > 0.0 {
                    self.near.push((slot, i, t_nominal));
                    continue;
                }
                sampled_from(w, k, t_nominal.max(0.0) as u64)
            };
            if value {
                bits[slot / 64] |= 1 << (slot % 64);
            }
        }
        self.jitter.resize(self.near.len(), 0.0);
        self.rng.fill_normal_scaled(&mut self.jitter, sigma_fs);
        for (&(slot, i, t_nominal), &dt) in self.near.iter().zip(&self.jitter) {
            let t_jit = (t_nominal + dt).max(0.0) as u64;
            if sampled_from(&self.waves[i], self.hints[i], t_jit) {
                bits[slot / 64] |= 1 << (slot % 64);
            }
        }
        SensorSample { bits, len }
    }

    /// Noise-free captured value of a single endpoint at voltage `v`.
    #[cfg(test)]
    fn expected_bit(&self, endpoint: usize, v: f64) -> bool {
        let scale = self.config.law.scale(v);
        let t = (self.period_fs + self.skew_fs[endpoint]) / scale;
        self.waves[endpoint].sampled_at(t.max(0.0) as u64)
    }

    /// Endpoints whose captured value differs between two voltages —
    /// a cheap predictor of which bits a given droop makes sensitive.
    #[cfg(test)]
    fn endpoints_sensitive_between(&self, v_low: f64, v_high: f64) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.expected_bit(i, v_low) != self.expected_bit(i, v_high))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use slm_netlist::generators::ripple_carry_adder;
    use slm_netlist::words;
    use slm_timing::{simulate_transition, DelayModel};

    fn adder_waves(n: usize) -> Vec<Waveform> {
        let nl = ripple_carry_adder(n).unwrap();
        let ann = DelayModel::default()
            .annotate_for_period(&nl, 20.0, 0.9)
            .unwrap();
        let mut reset = words::to_bits(0, n);
        reset.extend(words::to_bits(0, n));
        let mut measure = words::to_bits((1u128 << n) - 1, n);
        measure.extend(words::to_bits(1, n));
        simulate_transition(&ann, &reset, &measure)
            .unwrap()
            .into_output_waves()
    }

    fn quiet_config() -> BenignSensorConfig {
        BenignSensorConfig {
            skew_sigma_ps: 0.0,
            jitter_sigma_ps: 0.0,
            ..BenignSensorConfig::overclocked_300mhz(1)
        }
    }

    #[test]
    fn droop_freezes_carry_propagation() {
        let mut s = BenignSensor::new(adder_waves(64), quiet_config());
        // At 300 MHz, only the first ~3.3 ns of the 18 ns carry chain
        // completes: low sum bits read 0 (carry arrived), high bits stay 1.
        let idle = s.sample(1.0);
        let hw_idle = idle.hamming_weight();
        let droop = s.sample(0.94);
        let hw_droop = droop.hamming_weight();
        // Slower gates → carry reaches fewer stages → more bits still 1.
        assert!(
            hw_droop > hw_idle,
            "droop HW {hw_droop} !> idle HW {hw_idle}"
        );
        let over = s.sample(1.05);
        assert!(over.hamming_weight() < hw_idle);
    }

    #[test]
    fn sensitive_endpoints_form_contiguous_band() {
        let s = BenignSensor::new(adder_waves(64), quiet_config());
        let sens = s.endpoints_sensitive_between(0.95, 1.02);
        assert!(!sens.is_empty(), "some endpoints must be sensitive");
        assert!(
            sens.len() < 40,
            "not every endpoint should be sensitive: {}",
            sens.len()
        );
        // Carry-chain arrivals are ordered, so the sensitive band is a
        // run of consecutive sum-bit indices.
        for w in sens.windows(2) {
            assert!(w[1] - w[0] <= 2, "band has a large gap: {sens:?}");
        }
    }

    #[test]
    fn jitter_only_near_threshold() {
        let mut cfg = quiet_config();
        cfg.jitter_sigma_ps = 8.0;
        let mut s = BenignSensor::new(adder_waves(64), cfg);
        // Sample many times at constant voltage: bits far from the
        // threshold must be rock-solid, some near-threshold bit may flip.
        let first = s.sample(1.0);
        let mut toggle_histogram = vec![0u32; first.len];
        for _ in 0..200 {
            let next = s.sample(1.0);
            for (i, count) in toggle_histogram.iter_mut().enumerate() {
                if next.bit(i) != first.bit(i) {
                    *count += 1;
                }
            }
        }
        let flipping: Vec<usize> = toggle_histogram
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| i)
            .collect();
        assert!(
            flipping.len() <= 6,
            "only near-threshold endpoints may dither: {flipping:?}"
        );
    }

    #[test]
    fn sample_len_and_packing() {
        let mut s = BenignSensor::new(adder_waves(64), quiet_config());
        let smp = s.sample(1.0);
        assert_eq!(smp.len, 65); // 64 sums + carry out
        assert_eq!(smp.bits.len(), 2);
        assert_eq!(
            (0..smp.len).filter(|&i| smp.bit(i)).count() as u32,
            smp.hamming_weight()
        );
    }

    #[test]
    fn sample_endpoints_matches_full_sample_when_quiet() {
        let mut s = BenignSensor::new(adder_waves(32), quiet_config());
        let full = s.sample(0.98);
        let subset: Vec<usize> = vec![0, 5, 17, 31, 32];
        let sub = s.sample_endpoints(0.98, &subset);
        for (slot, &i) in subset.iter().enumerate() {
            assert_eq!(sub.bit(slot), full.bit(i), "endpoint {i}");
        }
        assert_eq!(sub.len, subset.len());
    }

    #[test]
    fn hamming_weight_of_subset() {
        let mut s = BenignSensor::new(adder_waves(32), quiet_config());
        let smp = s.sample(1.0);
        let all: Vec<usize> = (0..smp.len).collect();
        assert_eq!(smp.hamming_weight_of(&all), smp.hamming_weight());
        assert_eq!(smp.hamming_weight_of(&[]), 0);
    }

    #[test]
    fn toggled_since_counts_xor() {
        let a = SensorSample {
            bits: vec![0b1010],
            len: 4,
        };
        let b = SensorSample {
            bits: vec![0b0110],
            len: 4,
        };
        assert_eq!(a.toggled_since(&b), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let a = SensorSample {
            bits: vec![0],
            len: 4,
        };
        let _ = a.bit(4);
    }

    /// The reference sampler: two binary searches and one
    /// `normal_scaled` draw per near endpoint, endpoint by endpoint.
    /// The capture kernel must reproduce it bit for bit, RNG included.
    fn reference_sample(s: &mut BenignSensor, v: f64, endpoints: &[usize]) -> SensorSample {
        let scale = s.config.law.scale(v);
        let t0 = s.period_fs / scale + s.step_drift();
        let jitter_band_fs = 4.5 * s.config.jitter_sigma_ps * 1000.0;
        let mut bits = vec![0u64; endpoints.len().div_ceil(64)];
        for (slot, &i) in endpoints.iter().enumerate() {
            let w = &s.waves[i];
            let t_nominal = t0 + s.skew_fs[i] / scale;
            let value = if w.transitions.is_empty() {
                w.initial
            } else {
                let k = w
                    .transitions
                    .partition_point(|&(t, _)| (t as f64) < t_nominal);
                let before = if k > 0 {
                    t_nominal - w.transitions[k - 1].0 as f64
                } else {
                    f64::INFINITY
                };
                let after = if k < w.transitions.len() {
                    w.transitions[k].0 as f64 - t_nominal
                } else {
                    f64::INFINITY
                };
                if before.min(after) <= jitter_band_fs && s.config.jitter_sigma_ps > 0.0 {
                    let t_jit = t_nominal + s.rng.normal_scaled(s.config.jitter_sigma_ps * 1000.0);
                    w.sampled_at(t_jit.max(0.0) as u64)
                } else {
                    w.sampled_at(t_nominal.max(0.0) as u64)
                }
            };
            if value {
                bits[slot / 64] |= 1 << (slot % 64);
            }
        }
        SensorSample {
            bits,
            len: endpoints.len(),
        }
    }

    /// Reads of no endpoint (a TDC capture's way of keeping the benign
    /// sensor's drift in step) interleaved with real reads leave the
    /// samples, the drift and the RNG exactly where the reference
    /// sampler leaves them, at any rail voltage.
    #[test]
    fn empty_reads_keep_the_drift_stream() {
        let config = BenignSensorConfig {
            jitter_sigma_ps: 60.0,
            ..BenignSensorConfig::overclocked_300mhz(7)
        };
        let mut kernel = BenignSensor::new(adder_waves(32), config);
        let mut reference = kernel.clone();
        let some: Vec<usize> = (0..32).step_by(3).collect();
        let volts = [1.0, 0.97, f64::NAN, 0.2, 1.04, -1.0, 0.95, f64::INFINITY];
        for (i, &v) in volts.iter().cycle().take(64).enumerate() {
            let list: &[usize] = if i % 3 == 2 { &some } else { &[] };
            let got = kernel.sample_endpoints(v, list);
            assert_eq!(got, reference_sample(&mut reference, v, list), "read {i}");
            assert_eq!(kernel.drift_fs.to_bits(), reference.drift_fs.to_bits());
        }
        assert_eq!(
            kernel.rng.normal().to_bits(),
            reference.rng.normal().to_bits()
        );
    }

    /// Endpoint waveforms with 0–60 transitions scattered around the
    /// capture edge, strictly increasing in time.
    fn random_waves(rng: &mut Rng64, endpoints: usize, period_fs: f64) -> Vec<Waveform> {
        let lo = (period_fs * 0.7) as u64;
        let span = (period_fs * 0.8) as u64;
        (0..endpoints)
            .map(|_| {
                let count = rng.below(61) as usize;
                let mut times: Vec<u64> = (0..count).map(|_| lo + rng.below(span)).collect();
                times.sort_unstable();
                times.dedup();
                waveform_from_times(rng.chance(0.5), times)
            })
            .collect()
    }

    fn waveform_from_times(initial: bool, times: Vec<u64>) -> Waveform {
        let mut value = initial;
        let transitions = times
            .into_iter()
            .map(|t| {
                value = !value;
                (t, value)
            })
            .collect();
        Waveform {
            initial,
            transitions,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `sample` and `sample_endpoints` reproduce the reference
        /// sampler bit for bit and leave the RNG at the same position,
        /// across hint hits (small voltage steps) and misses (jumps),
        /// jitter on and off, drift on and off, transitions placed on
        /// the integer femtosecond below a capture time, and endpoint
        /// lists in any order with repeats.
        #[test]
        fn capture_kernel_matches_reference_sampler(
            seed in any::<u64>(),
            jitter_on in any::<bool>(),
            drift_on in any::<bool>(),
        ) {
            let mut rng = Rng64::new(seed);
            let config = BenignSensorConfig {
                jitter_sigma_ps: if jitter_on { 60.0 } else { 0.0 },
                drift_sigma_ps: if drift_on { 35.0 } else { 0.0 },
                ..BenignSensorConfig::overclocked_300mhz(seed)
            };
            let endpoints = 1 + rng.below(40) as usize;
            let period_fs = 1000.0 / config.clock_mhz * 1e6;
            let voltages: Vec<f64> = {
                let mut v = 1.0;
                (0..40)
                    .map(|_| {
                        v = if rng.chance(0.15) {
                            rng.uniform_in(0.85, 1.1)
                        } else {
                            (v + rng.normal_scaled(2e-4)).clamp(0.85, 1.1)
                        };
                        v
                    })
                    .collect()
            };
            let mut kernel = BenignSensor::new(random_waves(&mut rng, endpoints, period_fs), config);
            // Put a transition on the integer femtosecond just below
            // some endpoints' drift-free capture time (and one exactly
            // on the next), where the two searches' predicates differ.
            for i in 0..endpoints {
                if !rng.chance(0.5) {
                    continue;
                }
                let v = voltages[rng.below(voltages.len() as u64) as usize];
                let scale = kernel.config.law.scale(v);
                let t_nominal = kernel.period_fs / scale + kernel.skew_fs[i] / scale;
                let w = &mut kernel.waves[i];
                let mut times: Vec<u64> = w.transitions.iter().map(|&(t, _)| t).collect();
                times.push(t_nominal as u64);
                if rng.chance(0.5) {
                    times.push(t_nominal as u64 + 1);
                }
                times.sort_unstable();
                times.dedup();
                *w = waveform_from_times(w.initial, times);
            }
            let mut reference = kernel.clone();
            let all: Vec<usize> = (0..endpoints).collect();
            for &v in &voltages {
                if rng.chance(0.5) {
                    prop_assert_eq!(kernel.sample(v), reference_sample(&mut reference, v, &all));
                } else {
                    let list: Vec<usize> = (0..rng.below(2 * endpoints as u64 + 1))
                        .map(|_| rng.below(endpoints as u64) as usize)
                        .collect();
                    prop_assert_eq!(
                        kernel.sample_endpoints(v, &list),
                        reference_sample(&mut reference, v, &list)
                    );
                }
            }
            prop_assert_eq!(kernel.drift_fs.to_bits(), reference.drift_fs.to_bits());
            prop_assert_eq!(kernel.rng.normal().to_bits(), reference.rng.normal().to_bits());
        }
    }
}
