//! The coupled multi-region PDN model.

use crate::filter::SecondOrderFilter;
use crate::noise::{self, Rng64};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::OnceLock;

/// Electrical parameters of a PDN region.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PdnConfig {
    /// Nominal supply voltage, volts.
    pub v_nominal: f64,
    /// Bulk supply resistance, ohms: the slow (resonant) droop component
    /// settles to `r_eff · I`.
    pub r_eff: f64,
    /// Wideband (local) supply impedance, ohms: an instantaneous
    /// `r_fast · I` drop that passes cycle-rate current variation. This
    /// is the path through which the victim's per-cycle Hamming activity
    /// reaches on-die sensors; without it the package resonance would
    /// low-pass the side channel away.
    pub r_fast: f64,
    /// Natural frequency of the die/package resonance, Hz.
    pub f_natural_hz: f64,
    /// Damping ratio (< 1: underdamped, overshoots on load release).
    pub zeta: f64,
    /// Standard deviation of wideband supply noise, volts.
    pub noise_sigma_v: f64,
    /// Seed for the noise stream.
    pub seed: u64,
}

impl Default for PdnConfig {
    fn default() -> Self {
        PdnConfig {
            v_nominal: 1.0,
            r_eff: 0.008,
            r_fast: 0.012,
            f_natural_hz: 5.0e6,
            zeta: 0.3,
            noise_sigma_v: 0.4e-3,
            seed: 0x9d4_1234,
        }
    }
}

/// Always-on droop telemetry: voltage extrema and settling, tracked
/// per step at negligible cost (two compares and a branch against the
/// full filter/noise step).
///
/// "Settled" means the observed voltage is within a band of nominal
/// wide enough to swallow the supply noise (`max(4σ, 1 mV)`);
/// `settled_streak` counts the consecutive trailing settled steps, so
/// `settled_streak × dt` is the time the rail has currently been
/// quiet — the settle-time readout the observability layer exports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PdnTelemetry {
    /// Lowest voltage observed (deepest droop).
    pub v_min: f64,
    /// Highest voltage observed (worst overshoot).
    pub v_max: f64,
    /// Steps simulated.
    pub steps: u64,
    /// Consecutive trailing steps within the settle band of nominal.
    pub settled_streak: u64,
}

impl PdnTelemetry {
    fn new(v_nominal: f64) -> Self {
        PdnTelemetry {
            v_min: v_nominal,
            v_max: v_nominal,
            steps: 0,
            settled_streak: 0,
        }
    }

    /// The settle band for a config: wide enough that pure supply
    /// noise does not reset the streak.
    fn band(config: &PdnConfig) -> f64 {
        (4.0 * config.noise_sigma_v).max(1e-3)
    }

    #[inline]
    fn update(&mut self, v: f64, v_nominal: f64, band: f64) {
        self.widen(v);
        self.steps += 1;
        if Self::settled(v, v_nominal, band) {
            self.settled_streak += 1;
        } else {
            self.settled_streak = 0;
        }
    }

    /// Folds `v` into the extrema.
    #[inline]
    fn widen(&mut self, v: f64) {
        self.v_min = self.v_min.min(v);
        self.v_max = self.v_max.max(v);
    }

    #[inline]
    fn settled(v: f64, v_nominal: f64, band: f64) -> bool {
        (v - v_nominal).abs() <= band
    }
}

/// The tick loop's register-resident state (see
/// [`MultiRegionPdn::tick_state`]).
struct TickState<const R: usize> {
    v_nominal: f64,
    r_eff: f64,
    r_fast: f64,
    dt: f64,
    settle_band: f64,
    filters: [SecondOrderFilter; R],
    coupling: [[f64; R]; R],
    region_v_min: [f64; R],
    telemetry: PdnTelemetry,
}

impl<const R: usize> TickState<R> {
    /// Steps the filters by one tick of per-region currents `tick_i`
    /// and returns each region's noise-free voltage
    /// `v_nominal − Σ c·d`, summed in region order.
    #[inline(always)]
    fn quiet_voltages(&mut self, tick_i: &[f64]) -> [f64; R] {
        let mut droop = [0.0; R];
        for ((d, f), &i) in droop.iter_mut().zip(&mut self.filters).zip(tick_i) {
            *d = f.step(self.r_eff * i, self.dt) + self.r_fast * i;
        }
        std::array::from_fn(|r| {
            let mut total = 0.0;
            for (&c, &d) in self.coupling[r].iter().zip(&droop) {
                total += c * d;
            }
            self.v_nominal - total
        })
    }
}

/// `√(2(j+1)·ln 2)·(1 + 2⁻³⁰)` for `j` in `0..1022`: the bound on a
/// unit polar normal drawn from a pair with `s ∈ [2^−(j+1), 2^−j)`,
/// with margin for rounding (see `MultiRegionPdn::run_windowed_block`).
fn noise_bounds() -> &'static [f64; 1022] {
    static BOUNDS: OnceLock<[f64; 1022]> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        std::array::from_fn(|j| {
            (2.0 * (j + 1) as f64 * std::f64::consts::LN_2).sqrt()
                * (1.0 + 1.0 / (1u64 << 30) as f64)
        })
    })
}

/// Several PDN regions with cross-coupling.
///
/// Each region has its own second-order response to the current drawn
/// *in that region*; the voltage observed at region `r` superimposes
/// every region's droop weighted by `coupling[r][s]`. Diagonal entries
/// are 1; off-diagonal entries below 1 model electrical distance between
/// tenant placements (Glamočanin et al. observed exactly this
/// sensitivity-vs-distance effect on cloud FPGAs).
///
/// The network advances in blocks of ticks ([`MultiRegionPdn::step_block`]):
/// one call draws the whole block's supply noise, then runs the filter,
/// coupling and telemetry loop over it. [`MultiRegionPdn::step`] is the
/// one-tick block, so any split of a tick sequence into blocks yields
/// bit-identical voltages and telemetry.
#[derive(Debug, Clone)]
pub struct MultiRegionPdn {
    config: PdnConfig,
    filters: Vec<SecondOrderFilter>,
    /// Row-major `regions × regions` coupling matrix.
    coupling: Vec<f64>,
    rng: Rng64,
    /// The buffer [`MultiRegionPdn::step`] returns its voltages in.
    voltages: Vec<f64>,
    telemetry: PdnTelemetry,
    /// Deepest droop seen by each region — the fault-injection-relevant
    /// extremum (the victim rail's minimum decides whether derated
    /// arrival times violate the clock period). Tracked per step at the
    /// cost of one compare per region.
    region_v_min: Vec<f64>,
    settle_band: f64,
    /// Scratch of `run_windowed_block`: the ticks it must compute
    /// exactly, with their noise-free voltages.
    pending: Vec<(usize, [f64; 2])>,
    skipped_ticks: u64,
}

impl MultiRegionPdn {
    /// The most regions a network may have: the block kernel is
    /// compiled once per region count, so its state fits in registers.
    const MAX_REGIONS: usize = 4;

    /// Creates `regions` coupled regions with the given coupling matrix
    /// (`coupling[r][s]` = effect of region `s`'s droop on region `r`).
    ///
    /// # Panics
    ///
    /// Panics if `regions` is not in `1..=4` or the matrix is not
    /// `regions × regions`.
    pub fn new(config: PdnConfig, regions: usize, coupling: Vec<Vec<f64>>) -> Self {
        assert!(
            (1..=Self::MAX_REGIONS).contains(&regions),
            "region count {regions} outside 1..={}",
            Self::MAX_REGIONS
        );
        assert_eq!(coupling.len(), regions, "coupling rows");
        for row in &coupling {
            assert_eq!(row.len(), regions, "coupling columns");
        }
        MultiRegionPdn {
            filters: vec![SecondOrderFilter::new(config.f_natural_hz, config.zeta); regions],
            coupling: coupling.concat(),
            rng: Rng64::new(config.seed),
            voltages: vec![config.v_nominal; regions],
            telemetry: PdnTelemetry::new(config.v_nominal),
            region_v_min: vec![config.v_nominal; regions],
            settle_band: PdnTelemetry::band(&config),
            pending: Vec::new(),
            skipped_ticks: 0,
            config,
        }
    }

    /// Uniformly coupled regions (all off-diagonal entries `k`).
    ///
    /// # Panics
    ///
    /// Panics if `regions` is not in `1..=4`.
    pub fn uniform(config: PdnConfig, regions: usize, k: f64) -> Self {
        let coupling = (0..regions)
            .map(|r| (0..regions).map(|s| if r == s { 1.0 } else { k }).collect())
            .collect();
        Self::new(config, regions, coupling)
    }

    /// Number of regions.
    fn regions(&self) -> usize {
        self.filters.len()
    }

    /// Advances all regions by `dt` with per-region currents; returns
    /// the observed per-region voltages. The one-tick case of
    /// [`MultiRegionPdn::step_block`].
    ///
    /// # Panics
    ///
    /// Panics if `currents_a.len()` differs from the region count.
    pub fn step(&mut self, currents_a: &[f64], dt: f64) -> &[f64] {
        assert_eq!(currents_a.len(), self.filters.len());
        let mut voltages = std::mem::take(&mut self.voltages);
        self.run_block(currents_a, dt, &mut voltages);
        self.voltages = voltages;
        &self.voltages
    }

    /// Advances all regions by one `dt` tick per row of `currents_a`,
    /// writing each tick's per-region voltages to the same row of `out`.
    ///
    /// Both slices are tick-major (`[tick][region]`, flattened).
    /// `observed` is the range of ticks (block-relative) whose voltages
    /// the caller reads; the slots of `out` for ticks outside it, except
    /// the last tick, are left unspecified. Everything else is
    /// bit-identical to calling [`MultiRegionPdn::step`] once per tick:
    /// the observed voltages, the last tick's voltages, the telemetry,
    /// the per-region minima and the noise stream, so the next block is
    /// too. The block's noise is drawn up front in the same stream order
    /// ([`Rng64::fill_normal_scaled`]), and each voltage is
    /// `noise + (v_nominal − Σ c·d)`, the per-tick sum with its two terms
    /// commuted. A block whose unobserved ticks can be certified away
    /// skips their noise transform (see `run_windowed_block`); a caller
    /// that reads every tick passes `0..ticks`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or are not a whole number
    /// of ticks.
    pub fn step_block(
        &mut self,
        currents_a: &[f64],
        dt: f64,
        out: &mut [f64],
        observed: Range<usize>,
    ) {
        let regions = self.filters.len();
        assert_eq!(currents_a.len(), out.len(), "currents and voltages");
        assert_eq!(out.len() % regions, 0, "whole ticks");
        if out.is_empty() {
            return;
        }
        // The last tick is always computed.
        let last = out.len() / regions - 1;
        let reads_all = observed.start == 0 && observed.end >= last;
        if !reads_all
            && regions == 2
            && !self.rng.has_spare()
            && self.config.noise_sigma_v.is_normal()
        {
            self.run_windowed_block(currents_a, dt, out, observed);
        } else {
            self.run_block(currents_a, dt, out);
        }
    }

    /// Ticks whose noise transform a block with unobserved ticks has
    /// skipped since construction.
    pub fn skipped_ticks(&self) -> u64 {
        self.skipped_ticks
    }

    /// The kernel behind [`MultiRegionPdn::step`] and
    /// [`MultiRegionPdn::step_block`], compiled for the network's region
    /// count; leaves `self.voltages` alone.
    fn run_block(&mut self, currents_a: &[f64], dt: f64, out: &mut [f64]) {
        match self.regions() {
            1 => self.run_block_for::<1>(currents_a, dt, out),
            2 => self.run_block_for::<2>(currents_a, dt, out),
            3 => self.run_block_for::<3>(currents_a, dt, out),
            4 => self.run_block_for::<4>(currents_a, dt, out),
            n => unreachable!("new admits 1..={} regions, not {n}", Self::MAX_REGIONS),
        }
    }

    /// [`MultiRegionPdn::run_block`] for `R` regions: the block's noise,
    /// then one pass of the tick loop over it.
    fn run_block_for<const R: usize>(&mut self, currents_a: &[f64], dt: f64, out: &mut [f64]) {
        let mut state = self.tick_state::<R>(dt);
        self.rng.fill_normal_scaled(out, self.config.noise_sigma_v);
        for (tick_i, tick_v) in currents_a.chunks_exact(R).zip(out.chunks_exact_mut(R)) {
            let quiet = state.quiet_voltages(tick_i);
            for ((v, q), vmin) in tick_v.iter_mut().zip(quiet).zip(&mut state.region_v_min) {
                *v += q;
                *vmin = vmin.min(*v);
            }
            // Telemetry watches region 0 — the sensed (attacker-visible)
            // rail in the fabric's layout.
            state
                .telemetry
                .update(tick_v[0], state.v_nominal, state.settle_band);
        }
        self.store_tick_state(&state);
    }

    /// The tick loop's state for `R` regions, copied into locals once
    /// per block and written back once
    /// ([`MultiRegionPdn::store_tick_state`]), so the filters' serial
    /// dependency chain stays in registers instead of storing and
    /// reloading through `self` every tick.
    fn tick_state<const R: usize>(&self, dt: f64) -> TickState<R> {
        let PdnConfig {
            v_nominal,
            r_eff,
            r_fast,
            ..
        } = self.config;
        TickState {
            v_nominal,
            r_eff,
            r_fast,
            dt,
            settle_band: self.settle_band,
            filters: self.filters[..].try_into().expect("one filter per region"),
            coupling: std::array::from_fn(|r| std::array::from_fn(|s| self.coupling[r * R + s])),
            region_v_min: self.region_v_min[..]
                .try_into()
                .expect("one minimum per region"),
            telemetry: self.telemetry,
        }
    }

    fn store_tick_state<const R: usize>(&mut self, state: &TickState<R>) {
        self.filters.copy_from_slice(&state.filters);
        self.region_v_min.copy_from_slice(&state.region_v_min);
        self.telemetry = state.telemetry;
    }

    /// The kernel for a two-region block with unobserved ticks, no
    /// spare normal cached and a normal, nonzero `σ`: each tick owns
    /// exactly one polar pair, slots `(2t, 2t+1)`. It runs in three
    /// passes and skips the polar transform (`ln`, `sqrt`, a division)
    /// of every tick it can certify.
    ///
    /// 1. [`Rng64::pack_polar_pairs`] packs the accepted `(u, v)`
    ///    candidates exactly as [`Rng64::fill_normal_scaled`] does.
    /// 2. The tick loop runs the filters and computes each tick's
    ///    noise-free voltages `q_r = v_nominal − Σ c·d`, the same values
    ///    the one-pass kernel adds the noise to. For an unobserved tick
    ///    that is not the last, it bounds the noise from the binary
    ///    exponent of `s = u² + v²`: with `s ∈ [2^−(j+1), 2^−j)`,
    ///    `|u|, |v| ≤ √s` gives `|noise| ≤ σ·√(−2 ln s) ≤
    ///    σ·√(2(j+1)·ln 2) = B`, read from [`noise_bounds`] (`j` in
    ///    `0..1022`; a subnormal `s` gets no bound). Every voltage is
    ///    `v = fl(noise + q)`, and correctly rounded addition is
    ///    monotone, so `fl(q − B) ≤ v ≤ fl(q + B)`, and the settle test's
    ///    `fl(v − v_nominal)` is bracketed the same way. The tick is
    ///    skipped when these brackets prove that it moves neither
    ///    region's minimum nor the telemetry's `v_min` / `v_max` as they
    ///    stood before the block (strictly inside them: later ticks
    ///    only widen the extrema, so a skipped tick is never the
    ///    extremum), and that it decides the settle test one way.
    ///    Undecided ticks are queued with their `q`.
    /// 3. The queued ticks get the exact transform
    ///    ([`noise::polar_scaled`]) and `v = noise + q`, folded into the
    ///    minima and extrema in tick order. `settled_streak` restarts
    ///    after the last unsettled tick, skipped or exact.
    ///
    /// The bound covers the rounding of the computed transform: `ln`
    /// within two ulps, the division, the `sqrt`, the two products and
    /// the rounding of `s` itself (`|u| ≤ √s/(1−ε)`) add less than
    /// `8ε`, ε = 2⁻⁵³, and the table carries a `2⁻³⁰` relative margin
    /// that also absorbs its own rounding and the product with `|σ|`.
    /// The stream is consumed exactly as by the one-pass kernel, the
    /// last tick is always exact (it is `voltage()`), and the filter
    /// state never depends on the noise, so the next block is
    /// bit-identical too.
    fn run_windowed_block(
        &mut self,
        currents_a: &[f64],
        dt: f64,
        out: &mut [f64],
        observed: Range<usize>,
    ) {
        let sigma = self.config.noise_sigma_v;
        let ticks = out.len() / 2;
        self.rng.pack_polar_pairs(out);
        let bounds = noise_bounds();
        let sigma_abs = sigma.abs();
        let mut state = self.tick_state::<2>(dt);
        let TickState {
            v_nominal,
            settle_band,
            region_v_min: floor,
            telemetry: PdnTelemetry { v_min, v_max, .. },
            ..
        } = state;
        self.pending.resize(ticks, (0, [0.0; 2]));
        let mut queued = 0;
        // One past the last tick certified unsettled; 0 for none.
        let mut unsettled_end = 0;
        for (t, (tick_i, pair)) in currents_a
            .chunks_exact(2)
            .zip(out.chunks_exact(2))
            .enumerate()
        {
            let quiet = state.quiet_voltages(tick_i);
            let s = pair[0] * pair[0] + pair[1] * pair[1];
            // `s ∈ (0, 1)`: its biased exponent is at most 1022.
            let j = 1022usize.wrapping_sub((s.to_bits() >> 52) as usize);
            let bound = sigma_abs * bounds.get(j).copied().unwrap_or(f64::INFINITY);
            let lo = [quiet[0] - bound, quiet[1] - bound];
            let hi = quiet[0] + bound;
            let (dev_lo, dev_hi) = (lo[0] - v_nominal, hi - v_nominal);
            let settled = dev_lo >= -settle_band && dev_hi <= settle_band;
            let unsettled = dev_hi < -settle_band || dev_lo > settle_band;
            let skip = t + 1 < ticks
                && !observed.contains(&t)
                && lo[0] > v_min
                && lo[0] > floor[0]
                && lo[1] > floor[1]
                && hi < v_max
                && (settled || unsettled);
            self.pending[queued] = (t, quiet);
            queued += usize::from(!skip);
            if skip && unsettled {
                unsettled_end = t + 1;
            }
        }
        for &(t, quiet) in &self.pending[..queued] {
            let pair = &mut out[2 * t..2 * t + 2];
            let noise = noise::polar_scaled(pair[0], pair[1], sigma);
            for (((v, n), q), vmin) in pair
                .iter_mut()
                .zip(noise)
                .zip(quiet)
                .zip(&mut state.region_v_min)
            {
                *v = n + q;
                *vmin = vmin.min(*v);
            }
            state.telemetry.widen(pair[0]);
            if !PdnTelemetry::settled(pair[0], v_nominal, settle_band) {
                unsettled_end = unsettled_end.max(t + 1);
            }
        }
        let telemetry = &mut state.telemetry;
        telemetry.steps += ticks as u64;
        telemetry.settled_streak = match unsettled_end {
            0 => telemetry.settled_streak + ticks as u64,
            end => (ticks - end) as u64,
        };
        self.skipped_ticks += (ticks - queued) as u64;
        self.store_tick_state(&state);
    }

    /// The deepest droop observed at one region since construction.
    ///
    /// Region 0's value matches the [`MultiRegionPdn::telemetry`]
    /// extremum; the other regions give the victim-rail ground truth a
    /// fault-injection experiment needs (how far the aggressor actually
    /// pushed the rail the victim's logic runs from).
    pub fn min_voltage(&self, region: usize) -> f64 {
        self.region_v_min[region]
    }

    /// Droop extrema and settling accounting of region 0 since
    /// construction.
    pub fn telemetry(&self) -> PdnTelemetry {
        self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: f64 = 3.33e-9;

    fn quiet(mut c: PdnConfig) -> PdnConfig {
        c.noise_sigma_v = 0.0;
        c
    }

    /// One uncoupled region: the network the fabric runs.
    fn single(cfg: PdnConfig) -> MultiRegionPdn {
        MultiRegionPdn::uniform(cfg, 1, 0.0)
    }

    #[test]
    fn steady_state_ir_drop() {
        let cfg = quiet(PdnConfig::default());
        let mut pdn = single(cfg);
        let mut v = 0.0;
        for _ in 0..400_000 {
            v = pdn.step(&[3.0], DT)[0];
        }
        let expect = cfg.v_nominal - (cfg.r_eff + cfg.r_fast) * 3.0;
        assert!((v - expect).abs() < 1e-4, "v = {v}, expect {expect}");
    }

    #[test]
    fn droop_then_overshoot() {
        let mut pdn = single(quiet(PdnConfig::default()));
        let mut vmin: f64 = 2.0;
        for _ in 0..3_000 {
            vmin = vmin.min(pdn.step(&[4.0], DT)[0]);
        }
        assert!(vmin < 1.0 - 0.04, "droop too small: {vmin}");
        let mut vmax: f64 = 0.0;
        for _ in 0..3_000 {
            vmax = vmax.max(pdn.step(&[0.0], DT)[0]);
        }
        assert!(vmax > 1.0 + 0.01, "no overshoot: {vmax}");
    }

    #[test]
    fn noise_present_when_configured() {
        let mut pdn = single(PdnConfig {
            noise_sigma_v: 5e-3,
            ..PdnConfig::default()
        });
        let vs: Vec<f64> = (0..100).map(|_| pdn.step(&[0.0], DT)[0]).collect();
        let mean = vs.iter().sum::<f64>() / vs.len() as f64;
        let var = vs.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vs.len() as f64;
        assert!(var > 0.0);
        assert!(var.sqrt() < 20e-3);
    }

    #[test]
    fn coupled_region_sees_attenuated_droop() {
        let cfg = quiet(PdnConfig::default());
        let mut net = MultiRegionPdn::uniform(cfg, 2, 0.5);
        let mut v = [0.0, 0.0];
        for _ in 0..400_000 {
            let vs = net.step(&[4.0, 0.0], DT);
            v = [vs[0], vs[1]];
        }
        let droop0 = cfg.v_nominal - v[0];
        let droop1 = cfg.v_nominal - v[1];
        assert!(droop0 > 0.0);
        assert!(
            (droop1 / droop0 - 0.5).abs() < 0.02,
            "coupling ratio = {}",
            droop1 / droop0
        );
    }

    #[test]
    #[should_panic(expected = "coupling rows")]
    fn bad_coupling_shape_panics() {
        let _ = MultiRegionPdn::new(PdnConfig::default(), 2, vec![vec![1.0, 0.5]]);
    }

    #[test]
    #[should_panic(expected = "region count 5 outside 1..=4")]
    fn more_regions_than_the_kernel_covers_panics() {
        let _ = MultiRegionPdn::uniform(PdnConfig::default(), 5, 0.5);
    }

    #[test]
    fn telemetry_tracks_droop_and_settling() {
        let mut pdn = single(quiet(PdnConfig::default()));
        for _ in 0..3_000 {
            pdn.step(&[4.0], DT);
        }
        let loaded = pdn.telemetry();
        assert!(loaded.v_min < 1.0 - 0.04, "droop recorded: {loaded:?}");
        assert_eq!(loaded.steps, 3_000);
        assert_eq!(loaded.settled_streak, 0, "rail is loaded, not settled");
        // Release the load: the rail rings, then settles; the streak
        // counts only the quiet tail.
        for _ in 0..400_000 {
            pdn.step(&[0.0], DT);
        }
        let settled = pdn.telemetry();
        assert!(settled.v_max > 1.0 + 0.01, "overshoot recorded");
        assert!(settled.settled_streak > 0, "rail settles: {settled:?}");
        assert!(settled.settled_streak < settled.steps);
    }

    #[test]
    fn multi_region_telemetry_watches_region_zero() {
        let cfg = quiet(PdnConfig::default());
        let mut net = MultiRegionPdn::uniform(cfg, 2, 0.5);
        for _ in 0..3_000 {
            net.step(&[4.0, 0.0], DT);
        }
        let t = net.telemetry();
        assert_eq!(t.steps, 3_000);
        assert!(
            (cfg.v_nominal - t.v_min) > 0.04,
            "region-0 droop recorded: {t:?}"
        );
    }

    #[test]
    fn per_region_min_voltage_tracks_each_rail() {
        let cfg = quiet(PdnConfig::default());
        let mut net = MultiRegionPdn::uniform(cfg, 2, 0.25);
        assert_eq!(net.min_voltage(0), cfg.v_nominal);
        assert_eq!(net.min_voltage(1), cfg.v_nominal);
        for _ in 0..3_000 {
            net.step(&[4.0, 0.0], DT);
        }
        // Region 0 carries the load; region 1 sees it only through the
        // 0.25 coupling, so its extremum is much shallower.
        let droop0 = cfg.v_nominal - net.min_voltage(0);
        let droop1 = cfg.v_nominal - net.min_voltage(1);
        assert!(droop0 > 0.04, "loaded rail droop: {droop0}");
        assert!(droop1 < droop0 / 2.0, "coupled rail: {droop1} vs {droop0}");
        // Region 0's extremum agrees with the legacy telemetry.
        assert_eq!(net.min_voltage(0), net.telemetry().v_min);
    }

    /// A skipped tick certified unsettled restarts the settle streak.
    /// On a resistive rail (`r_eff = 0`, no ringing) a one-tick load
    /// spike inside the extrema an earlier block set is far outside the
    /// settle band, and the idle ticks around it settle.
    #[test]
    fn skipped_unsettled_ticks_restart_the_settle_streak() {
        let cfg = PdnConfig {
            r_eff: 0.0,
            ..PdnConfig::default()
        };
        let mut windowed = MultiRegionPdn::uniform(cfg, 2, 0.5);
        let mut full = windowed.clone();
        let mut currents = vec![0.0; 200];
        currents[..4].copy_from_slice(&[-0.5, -0.5, 3.0, 3.0]);
        let mut out = vec![0.0; 200];
        windowed.step_block(&currents, DT, &mut out, 0..100);
        full.step_block(&currents, DT, &mut out, 0..100);
        currents[..4].fill(0.0);
        currents[100..102].fill(1.0);
        for _ in 0..4 {
            windowed.step_block(&currents, DT, &mut out, 0..0);
            full.step_block(&currents, DT, &mut out, 0..100);
            assert_eq!(windowed.telemetry(), full.telemetry());
        }
        let streak = full.telemetry().settled_streak;
        assert!(streak > 0 && streak < 50, "streak {streak}");
        assert!(windowed.skipped_ticks() > 300);
    }

    #[test]
    fn determinism() {
        let cfg = PdnConfig::default();
        let mut a = single(cfg);
        let mut b = single(cfg);
        for i in 0..1000 {
            let cur = [(i % 7) as f64];
            assert_eq!(a.step(&cur, DT), b.step(&cur, DT));
        }
    }
}
