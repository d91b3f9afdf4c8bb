//! The coupled multi-region PDN model.

use crate::filter::SecondOrderFilter;
use crate::noise::Rng64;
use serde::{Deserialize, Serialize};

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
        self.v_min = self.v_min.min(v);
        self.v_max = self.v_max.max(v);
        self.steps += 1;
        if (v - v_nominal).abs() <= band {
            self.settled_streak += 1;
        } else {
            self.settled_streak = 0;
        }
    }
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
    voltages: Vec<f64>,
    telemetry: PdnTelemetry,
    /// Deepest droop seen by each region — the fault-injection-relevant
    /// extremum (the victim rail's minimum decides whether derated
    /// arrival times violate the clock period). Tracked per step at the
    /// cost of one compare per region.
    region_v_min: Vec<f64>,
    settle_band: f64,
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
    pub fn regions(&self) -> usize {
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
    /// Both slices are tick-major (`[tick][region]`, flattened). The
    /// result is bit-identical to calling [`MultiRegionPdn::step`] once
    /// per tick: the block's noise is drawn up front in the same stream
    /// order ([`Rng64::fill_normal_scaled`]), and each voltage is
    /// `noise + (v_nominal − Σ c·d)`, the per-tick sum with its two
    /// terms commuted.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or are not a whole number
    /// of ticks.
    pub fn step_block(&mut self, currents_a: &[f64], dt: f64, out: &mut [f64]) {
        let regions = self.filters.len();
        assert_eq!(currents_a.len(), out.len(), "currents and voltages");
        assert_eq!(out.len() % regions, 0, "whole ticks");
        if out.is_empty() {
            return;
        }
        self.run_block(currents_a, dt, out);
        self.voltages.copy_from_slice(&out[out.len() - regions..]);
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

    /// [`MultiRegionPdn::run_block`] for `R` regions. The filter states,
    /// coupling, per-region minima and telemetry are copied into locals
    /// once and written back once, so the filters' serial dependency
    /// chain stays in registers instead of storing and reloading
    /// through `self` every tick. The arithmetic per value and the
    /// summation order are those of a one-tick step.
    fn run_block_for<const R: usize>(&mut self, currents_a: &[f64], dt: f64, out: &mut [f64]) {
        let PdnConfig {
            v_nominal,
            r_eff,
            r_fast,
            noise_sigma_v,
            ..
        } = self.config;
        let settle_band = self.settle_band;
        let mut filters: [SecondOrderFilter; R] =
            self.filters[..].try_into().expect("one filter per region");
        let coupling: [[f64; R]; R] =
            std::array::from_fn(|r| std::array::from_fn(|s| self.coupling[r * R + s]));
        let mut region_v_min: [f64; R] = self.region_v_min[..]
            .try_into()
            .expect("one minimum per region");
        let mut telemetry = self.telemetry;
        self.rng.fill_normal_scaled(out, noise_sigma_v);
        for (tick_i, tick_v) in currents_a.chunks_exact(R).zip(out.chunks_exact_mut(R)) {
            let mut droop = [0.0; R];
            for ((d, f), &i) in droop.iter_mut().zip(&mut filters).zip(tick_i) {
                *d = f.step(r_eff * i, dt) + r_fast * i;
            }
            for ((v, row), vmin) in tick_v.iter_mut().zip(&coupling).zip(&mut region_v_min) {
                let mut total = 0.0;
                for (&c, &d) in row.iter().zip(&droop) {
                    total += c * d;
                }
                *v += v_nominal - total;
                *vmin = vmin.min(*v);
            }
            // Telemetry watches region 0 — the sensed (attacker-visible)
            // rail in the fabric's layout.
            telemetry.update(tick_v[0], v_nominal, settle_band);
        }
        self.filters.copy_from_slice(&filters);
        self.region_v_min.copy_from_slice(&region_v_min);
        self.telemetry = telemetry;
    }

    /// The most recent voltage of one region.
    pub fn voltage(&self, region: usize) -> f64 {
        self.voltages[region]
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
