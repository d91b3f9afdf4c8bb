//! Property-based tests for the PDN substrate.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use slm_pdn::noise::Rng64;
use slm_pdn::{MultiRegionPdn, PdnConfig, PdnTelemetry, SecondOrderFilter};

const DT: f64 = 3.33e-9;

fn quiet(seed: u64) -> PdnConfig {
    PdnConfig {
        noise_sigma_v: 0.0,
        seed,
        ..PdnConfig::default()
    }
}

proptest! {
    /// Bounded input ⇒ bounded output, for any underdamped-to-critically
    /// damped configuration (integration stability).
    #[test]
    fn filter_stability(zeta in 0.05f64..1.5, f_mhz in 0.5f64..20.0, seed in any::<u64>()) {
        let mut f = SecondOrderFilter::new(f_mhz * 1e6, zeta);
        let mut rng = Rng64::new(seed);
        let mut max_abs: f64 = 0.0;
        for _ in 0..50_000 {
            let u = rng.uniform_in(-1.0, 1.0);
            max_abs = max_abs.max(f.step(u, DT).abs());
        }
        prop_assert!(max_abs.is_finite());
        prop_assert!(max_abs < 50.0, "unstable: {max_abs}");
    }

    /// Steady-state voltage equals nominal minus total IR drop, for any
    /// constant load.
    #[test]
    fn steady_state_ir_drop(current in 0.0f64..8.0, seed in any::<u64>()) {
        let cfg = quiet(seed);
        let mut pdn = MultiRegionPdn::uniform(cfg, 1, 0.0);
        let mut v = 0.0;
        for _ in 0..400_000 {
            v = pdn.step(&[current], DT)[0];
        }
        let expect = cfg.v_nominal - (cfg.r_eff + cfg.r_fast) * current;
        prop_assert!((v - expect).abs() < 2e-4, "v = {v}, expect {expect}");
    }

    /// More load ⇒ lower settled voltage (monotonicity).
    #[test]
    fn monotone_in_load(i1 in 0.0f64..4.0, delta in 0.1f64..4.0) {
        let settle = |i: f64| {
            let mut pdn = MultiRegionPdn::uniform(quiet(1), 1, 0.0);
            let mut v = 0.0;
            for _ in 0..300_000 {
                v = pdn.step(&[i], DT)[0];
            }
            v
        };
        prop_assert!(settle(i1 + delta) < settle(i1));
    }

    /// Region symmetry: swapping the two regions' currents swaps their
    /// voltages (with symmetric coupling and no noise).
    #[test]
    fn multi_region_symmetry(ia in 0.0f64..3.0, ib in 0.0f64..3.0, k in 0.0f64..1.0) {
        let cfg = quiet(7);
        let mut p1 = MultiRegionPdn::uniform(cfg, 2, k);
        let mut p2 = MultiRegionPdn::uniform(cfg, 2, k);
        let (mut va, mut vb) = (0.0, 0.0);
        let (mut wa, mut wb) = (0.0, 0.0);
        for _ in 0..200_000 {
            let v = p1.step(&[ia, ib], DT);
            va = v[0];
            vb = v[1];
            let w = p2.step(&[ib, ia], DT);
            wa = w[0];
            wb = w[1];
        }
        prop_assert!((va - wb).abs() < 1e-9, "{va} vs {wb}");
        prop_assert!((vb - wa).abs() < 1e-9, "{vb} vs {wa}");
    }

    /// Coupling attenuates the neighbour's droop proportionally.
    #[test]
    fn coupling_scales_cross_droop(k in 0.1f64..0.9) {
        let cfg = quiet(3);
        let mut pdn = MultiRegionPdn::uniform(cfg, 2, k);
        let mut v = [0.0, 0.0];
        for _ in 0..400_000 {
            let out = pdn.step(&[2.0, 0.0], DT);
            v = [out[0], out[1]];
        }
        let own = cfg.v_nominal - v[0];
        let cross = cfg.v_nominal - v[1];
        prop_assert!((cross / own - k).abs() < 0.02, "ratio {}", cross / own);
    }
}

proptest! {
    /// `fill_normal_scaled` is bit-identical to one `normal_scaled` per
    /// slot, and leaves the generator in the same state — including a
    /// spare carried in (an odd `normal()` before the fill) and out (an
    /// odd fill length).
    #[test]
    fn fill_normal_matches_repeated_normal_scaled(
        seed in any::<u64>(),
        lens in vec(0usize..160, 1..6),
        sigma in select(vec![0.0, 4e-4, 1.0]),
        spares in any::<u64>(),
    ) {
        let mut block = Rng64::new(seed);
        let mut scalar = Rng64::new(seed);
        let mut buf = Vec::new();
        for (k, &len) in [0, 1, 2, 3].iter().chain(&lens).enumerate() {
            if spares >> (k % 64) & 1 == 1 {
                prop_assert_eq!(block.normal().to_bits(), scalar.normal().to_bits());
            }
            buf.clear();
            buf.resize(len, f64::NAN);
            block.fill_normal_scaled(&mut buf, sigma);
            for (slot, &z) in buf.iter().enumerate() {
                let want = scalar.normal_scaled(sigma);
                prop_assert_eq!(z.to_bits(), want.to_bits(), "len {} slot {}", len, slot);
            }
            prop_assert_eq!(&block, &scalar);
        }
    }

    /// Any split of a tick sequence into `step_block` calls reproduces
    /// tick-by-tick `step` bit for bit: voltages, telemetry and
    /// per-region extrema, for 1–4 regions with random coupling.
    #[test]
    fn step_block_matches_repeated_step(
        regions in 1usize..5,
        seed in any::<u64>(),
        sigma in select(vec![0.0, 4e-4, 5e-3]),
        splits in vec(0usize..40, 1..12),
    ) {
        let mut rng = Rng64::new(seed);
        let coupling: Vec<Vec<f64>> = (0..regions)
            .map(|r| (0..regions).map(|s| if r == s { 1.0 } else { rng.uniform() }).collect())
            .collect();
        let cfg = PdnConfig {
            noise_sigma_v: sigma,
            seed,
            ..PdnConfig::default()
        };
        let mut blocked = MultiRegionPdn::new(cfg, regions, coupling.clone());
        let mut stepped = MultiRegionPdn::new(cfg, regions, coupling);
        for ticks in splits {
            let currents: Vec<f64> = (0..ticks * regions).map(|_| rng.uniform_in(0.0, 5.0)).collect();
            let mut out = vec![f64::NAN; currents.len()];
            blocked.step_block(&currents, DT, &mut out, 0..ticks);
            for (tick_i, tick_v) in currents.chunks_exact(regions).zip(out.chunks_exact(regions)) {
                let want = stepped.step(tick_i, DT);
                for (got, want) in tick_v.iter().zip(want) {
                    prop_assert_eq!(got.to_bits(), want.to_bits());
                }
            }
            prop_assert_eq!(blocked.telemetry(), stepped.telemetry());
            for r in 0..regions {
                prop_assert_eq!(blocked.min_voltage(r).to_bits(), stepped.min_voltage(r).to_bits());
            }
        }
    }
}

/// A verbatim copy of the tick loop `MultiRegionPdn::step_block` ran
/// before the kernel kept its state in registers: `Vec`-held filters,
/// coupling, per-region minima and droop scratch, rebuilt here from
/// public types so a change to the kernel is compared against the old
/// arithmetic rather than against itself.
struct ReferencePdn {
    config: PdnConfig,
    filters: Vec<SecondOrderFilter>,
    coupling: Vec<f64>,
    rng: Rng64,
    droop_scratch: Vec<f64>,
    telemetry: PdnTelemetry,
    region_v_min: Vec<f64>,
    settle_band: f64,
}

impl ReferencePdn {
    fn new(config: PdnConfig, regions: usize, coupling: Vec<Vec<f64>>) -> Self {
        ReferencePdn {
            filters: vec![SecondOrderFilter::new(config.f_natural_hz, config.zeta); regions],
            coupling: coupling.concat(),
            rng: Rng64::new(config.seed),
            droop_scratch: vec![0.0; regions],
            telemetry: PdnTelemetry {
                v_min: config.v_nominal,
                v_max: config.v_nominal,
                steps: 0,
                settled_streak: 0,
            },
            region_v_min: vec![config.v_nominal; regions],
            settle_band: (4.0 * config.noise_sigma_v).max(1e-3),
            config,
        }
    }

    fn step_block(&mut self, currents_a: &[f64], dt: f64, out: &mut [f64]) {
        let regions = self.filters.len();
        if out.is_empty() {
            return;
        }
        let PdnConfig {
            v_nominal,
            r_eff,
            r_fast,
            noise_sigma_v,
            ..
        } = self.config;
        self.rng.fill_normal_scaled(out, noise_sigma_v);
        for (tick_i, tick_v) in currents_a
            .chunks_exact(regions)
            .zip(out.chunks_exact_mut(regions))
        {
            for ((d, f), &i) in self
                .droop_scratch
                .iter_mut()
                .zip(&mut self.filters)
                .zip(tick_i)
            {
                *d = f.step(r_eff * i, dt) + r_fast * i;
            }
            for ((v, row), vmin) in tick_v
                .iter_mut()
                .zip(self.coupling.chunks_exact(regions))
                .zip(&mut self.region_v_min)
            {
                let mut total = 0.0;
                for (&c, &d) in row.iter().zip(&self.droop_scratch) {
                    total += c * d;
                }
                *v += v_nominal - total;
                *vmin = vmin.min(*v);
            }
            let v = tick_v[0];
            let t = &mut self.telemetry;
            t.v_min = t.v_min.min(v);
            t.v_max = t.v_max.max(v);
            t.steps += 1;
            if (v - v_nominal).abs() <= self.settle_band {
                t.settled_streak += 1;
            } else {
                t.settled_streak = 0;
            }
        }
    }
}

proptest! {
    /// `step_block` reproduces the reference tick loop bit for bit:
    /// voltages, telemetry and per-region minima, for
    /// 1–4 regions, blocks of 0–300 ticks, and a spare normal carried
    /// into the next block whenever a block draws an odd count (a
    /// leading one-tick block guarantees one for odd region counts).
    #[test]
    fn step_block_matches_reference_tick_loop(
        regions in 1usize..5,
        seed in any::<u64>(),
        sigma in select(vec![0.0, 4e-4, 5e-3]),
        blocks in vec(0usize..301, 1..6),
    ) {
        let mut rng = Rng64::new(seed ^ 0x5eed);
        let coupling: Vec<Vec<f64>> = (0..regions)
            .map(|r| (0..regions).map(|s| if r == s { 1.0 } else { rng.uniform() }).collect())
            .collect();
        let cfg = PdnConfig {
            noise_sigma_v: sigma,
            seed,
            ..PdnConfig::default()
        };
        let mut pdn = MultiRegionPdn::new(cfg, regions, coupling.clone());
        let mut reference = ReferencePdn::new(cfg, regions, coupling);
        for ticks in std::iter::once(1).chain(blocks) {
            let currents: Vec<f64> = (0..ticks * regions).map(|_| rng.uniform_in(0.0, 5.0)).collect();
            let mut got = vec![f64::NAN; currents.len()];
            let mut want = vec![f64::NAN; currents.len()];
            pdn.step_block(&currents, DT, &mut got, 0..ticks);
            reference.step_block(&currents, DT, &mut want);
            for (slot, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "{} ticks, slot {}", ticks, slot);
            }
            prop_assert_eq!(pdn.telemetry(), reference.telemetry);
            for r in 0..regions {
                prop_assert_eq!(pdn.min_voltage(r).to_bits(), reference.region_v_min[r].to_bits());
            }
        }
    }
}

/// The ticks a property case reads from a block of `ticks`: none, one,
/// all, or a random sub-range, chosen by `pick`.
fn observed_range(ticks: usize, pick: u64) -> std::ops::Range<usize> {
    let at = |k: u64| (k % (ticks as u64 + 1)) as usize;
    match pick % 4 {
        1 if ticks > 0 => {
            let t = at(pick >> 2).min(ticks - 1);
            t..t + 1
        }
        0 | 1 => 0..0,
        2 => 0..ticks,
        _ => {
            let (a, b) = (at(pick >> 2), at(pick >> 32));
            a.min(b)..a.max(b)
        }
    }
}

proptest! {
    /// A block that reads only its `observed` ticks matches a fully
    /// observed block bit for bit: the observed voltages, the last
    /// tick's voltages, telemetry and per-region minima after each block, and a whole
    /// block after the last. Covers 1–4 regions, σ = 0, a spare normal
    /// carried in (the leading one-tick block caches one for odd region
    /// counts), random currents, a ramp from rest (every tick a new
    /// extremum, so nothing certifies) and one-tick load spikes on a
    /// resistive rail (a certified-unsettled tick between settled ones,
    /// which the settle streak must see), and observed ranges that are
    /// empty, one tick, the whole block or a random sub-range.
    #[test]
    fn observed_ticks_match_a_fully_observed_block(
        regions in 1usize..5,
        seed in any::<u64>(),
        sigma in select(vec![0.0, 4e-4, 5e-3]),
        profile in 0u8..3,
        lens in vec(0usize..200, 1..8),
        picks in vec(any::<u64>(), 8),
    ) {
        let mut rng = Rng64::new(seed ^ 0x0b5e);
        let coupling: Vec<Vec<f64>> = (0..regions)
            .map(|r| (0..regions).map(|s| if r == s { 1.0 } else { rng.uniform() }).collect())
            .collect();
        let cfg = PdnConfig {
            noise_sigma_v: sigma,
            seed,
            r_eff: if profile == 2 { 0.0 } else { PdnConfig::default().r_eff },
            ..PdnConfig::default()
        };
        let mut windowed = MultiRegionPdn::new(cfg, regions, coupling.clone());
        let mut full = MultiRegionPdn::new(cfg, regions, coupling);
        let mut elapsed = 0;
        let mut currents_for = |ticks: usize, rng: &mut Rng64| -> Vec<f64> {
            let currents = (0..ticks * regions)
                .map(|k| {
                    let tick = elapsed + k / regions;
                    match profile {
                        0 => rng.uniform_in(0.0, 5.0),
                        1 => 0.002 * tick as f64,
                        _ => match tick {
                            0 => -0.5,
                            1 => 3.0,
                            t if t % 50 == 0 => 1.0,
                            _ => 0.0,
                        },
                    }
                })
                .collect();
            elapsed += ticks;
            currents
        };
        let blocks = std::iter::once((1, 2)).chain(lens.into_iter().zip(picks));
        for (ticks, pick) in blocks {
            let currents = currents_for(ticks, &mut rng);
            let observed = observed_range(ticks, pick);
            let mut got = vec![f64::NAN; currents.len()];
            let mut want = vec![f64::NAN; currents.len()];
            windowed.step_block(&currents, DT, &mut got, observed.clone());
            full.step_block(&currents, DT, &mut want, 0..ticks);
            // The last tick is always computed, observed or not.
            for t in observed.chain(ticks.checked_sub(1)) {
                for r in 0..regions {
                    let slot = t * regions + r;
                    prop_assert_eq!(got[slot].to_bits(), want[slot].to_bits(), "{} ticks, slot {}", ticks, slot);
                }
            }
            prop_assert_eq!(windowed.telemetry(), full.telemetry());
            for r in 0..regions {
                prop_assert_eq!(windowed.min_voltage(r).to_bits(), full.min_voltage(r).to_bits());
            }
        }
        if regions != 2 || sigma == 0.0 {
            prop_assert_eq!(windowed.skipped_ticks(), 0, "only two noisy regions skip");
        }
        let currents = currents_for(50, &mut rng);
        let mut got = vec![f64::NAN; currents.len()];
        let mut want = vec![f64::NAN; currents.len()];
        windowed.step_block(&currents, DT, &mut got, 0..50);
        full.step_block(&currents, DT, &mut want, 0..50);
        for (slot, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(g.to_bits(), w.to_bits(), "next block, slot {}", slot);
        }
        prop_assert_eq!(windowed.telemetry(), full.telemetry());
    }
}
