//! Time-to-Digital Converter sensor model.

use serde::{Deserialize, Serialize};
use slm_pdn::noise::Rng64;
use slm_timing::VoltageDelayLaw;

/// Geometry and calibration of a TDC sensor.
///
/// A TDC launches the clock itself into a coarse delay (carry chains or
/// LUTs) followed by a tapped fine delay line; registers after each tap
/// capture how far the edge travelled within the sampling window. The
/// observable is a thermometer code whose depth rises when gates are
/// fast (high voltage) and falls when they are slow (droop) — the red
/// curve of the paper's Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TdcConfig {
    /// Number of observable taps (paper-style TDCs use 64).
    pub stages: usize,
    /// Fine tap pitch at nominal voltage, ps.
    pub tap_ps: f64,
    /// Calibrated coarse ("initial") delay at nominal voltage, ps.
    pub coarse_ps: f64,
    /// Sampling window, ps (one period of the sampling clock).
    pub window_ps: f64,
    /// RMS sampling jitter, ps.
    pub jitter_ps: f64,
    /// Voltage→delay law shared with the rest of the fabric.
    pub law: VoltageDelayLaw,
    /// Noise seed.
    pub seed: u64,
}

impl TdcConfig {
    /// The paper's configuration: 64 taps sampled at 150 MHz, calibrated
    /// so the idle output sits near tap 31 — matching Fig. 6, where the
    /// idle TDC reads ≈ 30 and "bit 32 \[is\] close to the idle value".
    pub fn paper_150mhz(seed: u64) -> Self {
        let window_ps = 1e6 / 150.0; // 6666.7 ps
        let tap_ps = 25.0;
        let idle_target = 31.0;
        TdcConfig {
            stages: 64,
            tap_ps,
            coarse_ps: window_ps - idle_target * tap_ps,
            window_ps,
            jitter_ps: 3.0,
            law: VoltageDelayLaw::default(),
            seed,
        }
    }
}

impl Default for TdcConfig {
    fn default() -> Self {
        Self::paper_150mhz(0x7dc)
    }
}

/// A TDC sensor instance with its private jitter stream.
#[derive(Debug, Clone)]
pub struct TdcSensor {
    config: TdcConfig,
    rng: Rng64,
    kernel: DepthKernel,
    /// Jitter scratch, reused across blocks.
    jitter: Vec<f64>,
    exact_samples: u64,
}

/// Degree of the Taylor polynomial of `(1+u)^α` on the fast path.
const DEGREE: usize = 12;
/// Largest `|u|` the fast path serves, `u = (v − v_nom)/(v_nom − v_th)`.
const U_MAX: f64 = 0.1;
/// How far from a tap boundary a fast-path depth must lie.
const MARGIN: f64 = 1e-6;
/// Required ratio of [`MARGIN`] to the worst-case fast/exact gap.
const MARGIN_FACTOR: f64 = 1e3;

/// The certified polynomial depth path of [`TdcSensor::sample_block`].
///
/// The exact depth is `⌊(window − coarse·s + n)/(tap·s)⌋` with
/// `s = ((v_nom − v_th)/(v − v_th))^α` (one `powf`, one division, one
/// `floor`). Since `1/s = (1+u)^α` with `u = (v − v_nom)/(v_nom − v_th)`,
/// the real depth before the floor is
///
/// ```text
/// r = (window + n)/tap · (1+u)^α − coarse/tap,
/// ```
///
/// and the fast path evaluates it with `(1+u)^α` replaced by its
/// Taylor polynomial `P(u) = Σₖ₌₀¹² C(α,k)·uᵏ` (Estrin's scheme), `1/tap` and
/// `1/(v_nom − v_th)` precomputed, and the floor taken by a truncating
/// cast. It serves a sample only where the result is certified:
/// `|u| < U_MAX`, and `r` in `[MARGIN, stages)` lying more than
/// `MARGIN` from every integer. Let `g` bound `|r_fast − r_exact|`, the
/// gap between the fast value and the exact formula's computed value.
/// When `g < MARGIN`, no integer lies between the two, so both floor to
/// the same tap in `[0, stages)` and neither clamps. Every other sample
/// runs the exact formula on the same jitter draw. That covers NaN or
/// ±∞ voltages, voltages near the law's clamp floor, and clamped depths.
///
/// [`DepthKernel::new`] bounds `g` from the config over the certified
/// domain, with ε = 2⁻⁵³ per rounding, `U = U_MAX·(1+8ε)`, and
/// `L = (1+u)^α ∈ [(1−U)^α, (1+U)^α]`. Let `C = |coarse|/tap`. Then
/// `|r| < stages + 1` gives `|(window+n)/tap·L| ≤ A = stages + 1 + C`:
///
/// - truncation: for `k > α` the term ratio `|α−k|/(k+1)·|u|` is below
///   `U`, so the tail is at most `|C(α,13)|·U¹³/(1−U)`;
/// - the polynomial: coefficient recurrences (3 roundings per degree)
///   and Estrin's scheme (at most 15 ≤ 2·12 per term) err by at most
///   `5·12·ε·Σ|cₖ|Uᵏ`. Rounding `u` (≤ 4ε relative) moves `L` by at
///   most `4εU·max|L′|`;
/// - the fast path's products and the final subtraction add
///   `ε·(4A + 2C + stages + 1)`. The polynomial errors are scaled by
///   `|(window+n)/tap| ≤ A/(1−U)^α`;
/// - the exact formula computes `s` to `(3α+4)ε` relative (three
///   roundings raised to `α`, plus at most two ulps of `powf`). Its
///   products, difference and quotient add
///   `C·((3α+4)ε + 3ε) + ε·|window|/tap·(1+U)^α + (stages+1)·((3α+4)ε + 3ε)`.
///
/// Twice the sum (covering second-order terms) is `g`. The fast path is
/// enabled only if `MARGIN_FACTOR·g ≤ MARGIN`, `0 ≤ α ≤ 12`, and the law's
/// clamp floor `v_th + 0.05` lies below the certified voltages with room
/// to spare: `v_nom − v_th` is finite and `(1 − 2·U_MAX)·(v_nom − v_th)
/// > 0.05`. Otherwise every sample takes the exact path. For the paper's
/// TDC, `g ≈ 7·10⁻¹²`.
#[derive(Debug, Clone, Copy)]
struct DepthKernel {
    v_nominal: f64,
    inv_span: f64,
    /// `U_MAX`, or 0 when the bound fails so that no sample certifies.
    u_limit: f64,
    /// Taylor coefficients of `(1+u)^α`, constant term first.
    coeffs: [f64; DEGREE + 1],
    window_ps: f64,
    inv_tap: f64,
    coarse_taps: f64,
    stages: f64,
}

impl DepthKernel {
    fn new(config: &TdcConfig) -> Self {
        let law = config.law;
        let alpha = law.alpha;
        let span = law.v_nominal - law.v_threshold;
        let mut coeffs = [0.0; DEGREE + 1];
        coeffs[0] = 1.0;
        for k in 1..=DEGREE {
            coeffs[k] = coeffs[k - 1] * (alpha - (k - 1) as f64) / k as f64;
        }
        let eps = f64::EPSILON / 2.0;
        let u = U_MAX * (1.0 + 8.0 * eps);
        let stages = config.stages as f64;
        let c = config.coarse_ps.abs() / config.tap_ps;
        let a = stages + 1.0 + c;
        let l_min = (1.0 - u).powf(alpha);
        let l_max = (1.0 + u).powf(alpha);
        let slope = alpha * (1.0 - u).powf(alpha - 1.0).max((1.0 + u).powf(alpha - 1.0));
        let next = coeffs[DEGREE] * (alpha - DEGREE as f64) / (DEGREE + 1) as f64;
        let tail = next.abs() * u.powi(DEGREE as i32 + 1) / (1.0 - u);
        let poly_sum: f64 = (0..=DEGREE)
            .map(|k| coeffs[k].abs() * u.powi(k as i32))
            .sum();
        let poly = tail + 5.0 * DEGREE as f64 * eps * poly_sum + 4.0 * eps * u * slope;
        let fast = a / l_min * poly + eps * (4.0 * a + 2.0 * c + stages + 1.0);
        let theta = (3.0 * alpha + 4.0) * eps;
        let exact = c * (theta + 3.0 * eps)
            + eps * config.window_ps.abs() / config.tap_ps * l_max
            + (stages + 1.0) * (theta + 3.0 * eps);
        let gap = 2.0 * (fast + exact);
        let certified = MARGIN_FACTOR * gap <= MARGIN
            && (0.0..=DEGREE as f64).contains(&alpha)
            && span.is_finite()
            && (1.0 - 2.0 * U_MAX) * span > 0.05
            && config.tap_ps > 0.0
            && config.window_ps.is_finite()
            && config.coarse_ps.is_finite();
        DepthKernel {
            v_nominal: law.v_nominal,
            inv_span: 1.0 / span,
            u_limit: if certified { U_MAX } else { 0.0 },
            coeffs,
            window_ps: config.window_ps,
            inv_tap: 1.0 / config.tap_ps,
            coarse_taps: config.coarse_ps / config.tap_ps,
            stages,
        }
    }

    /// The depth at voltage `v` with jitter draw `jitter_ps`, when the
    /// polynomial path certifies it.
    #[inline]
    fn certified_depth(&self, v: f64, jitter_ps: f64) -> Option<u32> {
        let u = (v - self.v_nominal) * self.inv_span;
        // Estrin's scheme: independent pairs, then powers u², u⁴, u⁸,
        // so the evaluation is a few multiply-adds deep, not twelve.
        let c = &self.coeffs;
        let u2 = u * u;
        let u4 = u2 * u2;
        let u8 = u4 * u4;
        let q0 = (c[0] + c[1] * u) + (c[2] + c[3] * u) * u2;
        let q1 = (c[4] + c[5] * u) + (c[6] + c[7] * u) * u2;
        let q2 = (c[8] + c[9] * u) + (c[10] + c[11] * u) * u2;
        let p = (q0 + q1 * u4) + (q2 + c[12] * u4) * u8;
        let r = (self.window_ps + jitter_ps) * self.inv_tap * p - self.coarse_taps;
        // Saturating cast: NaN and negative `r` give 0 and fail below.
        let depth = r as u32;
        let frac = r - f64::from(depth);
        let certified = u.abs() < self.u_limit
            && r >= MARGIN
            && r < self.stages
            && frac > MARGIN
            && frac < 1.0 - MARGIN;
        certified.then_some(depth)
    }
}

/// The exact depth formula: `s` from the voltage-delay law (which
/// clamps `v` above threshold), then floor and clamp to `0..=stages`.
fn exact_depth(config: &TdcConfig, v: f64, jitter_ps: f64) -> u32 {
    let s = config.law.scale(v);
    let remaining = config.window_ps - config.coarse_ps * s + jitter_ps;
    let depth = (remaining / (config.tap_ps * s)).floor();
    depth.clamp(0.0, config.stages as f64) as u32
}

impl TdcSensor {
    /// Creates the sensor.
    pub fn new(config: TdcConfig) -> Self {
        TdcSensor {
            rng: Rng64::new(config.seed),
            kernel: DepthKernel::new(&config),
            jitter: Vec::new(),
            exact_samples: 0,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TdcConfig {
        &self.config
    }

    /// Samples the thermometer depth (0..=stages) at supply voltage `v`:
    /// the one-sample case of [`TdcSensor::sample_block`].
    pub fn sample(&mut self, v: f64) -> u32 {
        let mut depth = [0];
        self.sample_block(&[v], &mut depth);
        depth[0]
    }

    /// Samples one thermometer depth per voltage of `volts` into `out`,
    /// in order.
    ///
    /// The block's jitter comes from one [`Rng64::fill_normal_scaled`],
    /// which consumes the stream exactly like one `normal_scaled` per
    /// sample. Each depth then comes from the certified polynomial path
    /// (see `DepthKernel`) where it applies and from the exact
    /// alpha-power-law formula otherwise, so every depth is bit-identical
    /// to the exact formula on the same jitter draw.
    ///
    /// # Panics
    ///
    /// If `volts` and `out` differ in length.
    pub fn sample_block(&mut self, volts: &[f64], out: &mut [u32]) {
        assert_eq!(volts.len(), out.len(), "one depth per voltage");
        if self.jitter.len() < volts.len() {
            self.jitter.resize(volts.len(), 0.0);
        }
        let jitter = &mut self.jitter[..volts.len()];
        self.rng.fill_normal_scaled(jitter, self.config.jitter_ps);
        for ((&v, &n), depth) in volts.iter().zip(jitter.iter()).zip(out) {
            *depth = match self.kernel.certified_depth(v, n) {
                Some(d) => d,
                None => {
                    self.exact_samples += 1;
                    exact_depth(&self.config, v, n)
                }
            };
        }
    }

    /// Samples so far that the certified polynomial path could not
    /// serve, so the exact formula computed them.
    pub fn exact_samples(&self) -> u64 {
        self.exact_samples
    }

    /// Expected (noise-free) depth at voltage `v`.
    pub fn expected_depth(&self, v: f64) -> f64 {
        let s = self.config.law.scale(v);
        ((self.config.window_ps - self.config.coarse_ps * s) / (self.config.tap_ps * s))
            .clamp(0.0, self.config.stages as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn quiet() -> TdcSensor {
        let mut c = TdcConfig::paper_150mhz(1);
        c.jitter_ps = 0.0;
        TdcSensor::new(c)
    }

    #[test]
    fn idle_depth_near_31() {
        let mut t = quiet();
        let d = t.sample(1.0);
        assert!((30..=32).contains(&d), "idle depth = {d}");
    }

    #[test]
    fn droop_lowers_depth_overshoot_raises() {
        let mut t = quiet();
        let idle = t.sample(1.0);
        let droop = t.sample(0.95);
        let over = t.sample(1.04);
        assert!(droop < idle, "droop {droop} !< idle {idle}");
        assert!(over > idle, "overshoot {over} !> idle {idle}");
    }

    #[test]
    fn paper_magnitude_deep_droop_reads_near_10() {
        // Fig. 6: the 8000-RO droop takes the TDC from ~30 to ~10. In the
        // calibrated model that corresponds to a droop of roughly 22 mV.
        let t = quiet();
        let d = t.expected_depth(0.975);
        assert!((8.0..=22.0).contains(&d), "deep-droop depth = {d}");
    }

    #[test]
    fn saturates_at_bounds() {
        let mut t = quiet();
        assert_eq!(t.sample(0.5), 0);
        assert_eq!(t.sample(1.6), 64);
    }

    #[test]
    fn jitter_varies_samples() {
        let mut t = TdcSensor::new(TdcConfig::paper_150mhz(4));
        let samples: Vec<u32> = (0..100).map(|_| t.sample(1.0)).collect();
        let min = samples.iter().min().unwrap();
        let max = samples.iter().max().unwrap();
        assert!(max > min, "jitter should dither the reading");
        assert!(max - min < 8, "jitter too violent: {min}..{max}");
    }

    #[test]
    fn in_range_voltages_take_the_polynomial_path() {
        let mut t = TdcSensor::new(TdcConfig::paper_150mhz(5));
        let volts: Vec<f64> = (0..1000).map(|i| 0.97 + 6e-5 * i as f64).collect();
        let mut depths = vec![0; volts.len()];
        t.sample_block(&volts, &mut depths);
        // Only depths within MARGIN of a tap boundary fall back.
        let fallbacks = t.exact_samples();
        assert!(fallbacks <= 1, "{fallbacks} exact");
        // Clamped and non-finite voltages always take the exact path.
        t.sample_block(&[0.3, f64::NAN, f64::INFINITY], &mut depths[..3]);
        assert_eq!(t.exact_samples(), fallbacks + 3);
        assert_eq!(&depths[..3], &[0, 0, 64]);
    }

    #[test]
    fn uncertifiable_config_takes_the_exact_path_everywhere() {
        // α beyond the polynomial's degree: the truncation bound fails.
        let mut c = TdcConfig::paper_150mhz(6);
        c.law.alpha = 13.5;
        let mut t = TdcSensor::new(c);
        let mut reference = t.clone();
        for i in 0..200 {
            let v = 0.99 + 1e-4 * f64::from(i);
            assert_eq!(t.sample(v), reference_sample(&mut reference, v));
        }
        assert_eq!(t.exact_samples(), 200);
    }

    /// The scalar sampler the block kernel must reproduce, verbatim:
    /// one `powf` law evaluation, one `normal_scaled` jitter draw, one
    /// division and one `floor` per sample.
    fn reference_sample(t: &mut TdcSensor, v: f64) -> u32 {
        let s = t.config.law.scale(v);
        let remaining =
            t.config.window_ps - t.config.coarse_ps * s + t.rng.normal_scaled(t.config.jitter_ps);
        let depth = (remaining / (t.config.tap_ps * s)).floor();
        depth.clamp(0.0, t.config.stages as f64) as u32
    }

    /// A test voltage for the next sample, whose jitter draw will be
    /// `n`: inside or at the edge of the polynomial's range
    /// (`|u| ≤ U_MAX`), below the law's clamp floor, non-finite, solved to
    /// put the depth within 1e-9 of a tap boundary, or anywhere in a
    /// wide band.
    fn test_voltage(rng: &mut Rng64, c: &TdcConfig, n: f64) -> f64 {
        let law = c.law;
        let span = law.v_nominal - law.v_threshold;
        match rng.below(6) {
            0 => law.v_nominal + rng.uniform_in(-U_MAX, U_MAX) * span,
            1 => {
                let edge = if rng.chance(0.5) { U_MAX } else { -U_MAX };
                law.v_nominal + edge * span * (1.0 + rng.uniform_in(-1e-12, 1e-12))
            }
            2 => rng.uniform_in(0.0, law.v_threshold + 0.05),
            3 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3) as usize],
            4 => {
                // depth = (window + n)/tap · (1+u)^α − coarse/tap.
                let r = rng.below(c.stages as u64 + 1) as f64 + rng.uniform_in(-1e-9, 1e-9);
                let lift = (r + c.coarse_ps / c.tap_ps) * c.tap_ps / (c.window_ps + n);
                let v = law.v_nominal + (lift.powf(1.0 / law.alpha) - 1.0) * span;
                if v.is_finite() {
                    v
                } else {
                    law.v_nominal
                }
            }
            _ => rng.uniform_in(0.3, 1.6),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `sample_block` reproduces the scalar reference sampler
        /// depth for depth and leaves the jitter stream at the same
        /// position, over blocks of 0–300 samples (odd lengths leave a
        /// spare normal cached for the next block), jitter on and off,
        /// random `alpha ∈ [1, 2]`, tap count and pitch, and voltages
        /// inside, at the edge of and outside the polynomial's range,
        /// non-finite, clamped, and a hair from a tap boundary.
        #[test]
        fn block_kernel_matches_reference_sampler(
            seed in any::<u64>(),
            jitter_on in any::<bool>(),
        ) {
            let mut rng = Rng64::new(seed);
            let stages = 8 + rng.below(121) as usize;
            let tap_ps = rng.uniform_in(5.0, 40.0);
            let window_ps = 1e6 / rng.uniform_in(100.0, 300.0);
            let idle = rng.uniform_in(0.2, 0.8) * stages as f64;
            let config = TdcConfig {
                stages,
                tap_ps,
                coarse_ps: window_ps - idle * tap_ps,
                window_ps,
                jitter_ps: if jitter_on { rng.uniform_in(0.5, 10.0) } else { 0.0 },
                law: VoltageDelayLaw {
                    alpha: rng.uniform_in(1.0, 2.0),
                    ..VoltageDelayLaw::default()
                },
                seed,
            };
            let mut kernel = TdcSensor::new(config);
            let mut reference = kernel.clone();
            let mut total = 0u64;
            for _ in 0..6 {
                let len = rng.below(301) as usize;
                // The jitter each slot will draw, read ahead on a copy
                // of the stream so boundary voltages can be solved for.
                let mut ahead = reference.rng.clone();
                let volts: Vec<f64> = (0..len)
                    .map(|_| test_voltage(&mut rng, &config, ahead.normal_scaled(config.jitter_ps)))
                    .collect();
                let mut depths = vec![u32::MAX; len];
                kernel.sample_block(&volts, &mut depths);
                let expected: Vec<u32> =
                    volts.iter().map(|&v| reference_sample(&mut reference, v)).collect();
                prop_assert_eq!(depths, expected);
                prop_assert_eq!(&kernel.rng, &reference.rng);
                total += len as u64;
            }
            // The polynomial path really served samples here.
            prop_assert!(total < 100 || kernel.exact_samples() < total);
            prop_assert_eq!(kernel.rng.normal().to_bits(), reference.rng.normal().to_bits());
        }
    }
}
