//! Property-based tests for the PDN substrate.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use slm_pdn::noise::Rng64;
use slm_pdn::{MultiRegionPdn, Pdn, PdnConfig, SecondOrderFilter};

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
        let mut pdn = Pdn::new(cfg);
        let mut v = 0.0;
        for _ in 0..400_000 {
            v = pdn.step(current, DT);
        }
        let expect = cfg.v_nominal - (cfg.r_eff + cfg.r_fast) * current;
        prop_assert!((v - expect).abs() < 2e-4, "v = {v}, expect {expect}");
    }

    /// More load ⇒ lower settled voltage (monotonicity).
    #[test]
    fn monotone_in_load(i1 in 0.0f64..4.0, delta in 0.1f64..4.0) {
        let settle = |i: f64| {
            let mut pdn = Pdn::new(quiet(1));
            let mut v = 0.0;
            for _ in 0..300_000 {
                v = pdn.step(i, DT);
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
            blocked.step_block(&currents, DT, &mut out);
            for (tick_i, tick_v) in currents.chunks_exact(regions).zip(out.chunks_exact(regions)) {
                let want = stepped.step(tick_i, DT);
                for (got, want) in tick_v.iter().zip(want) {
                    prop_assert_eq!(got.to_bits(), want.to_bits());
                }
            }
            prop_assert_eq!(blocked.telemetry(), stepped.telemetry());
            for r in 0..regions {
                prop_assert_eq!(blocked.min_voltage(r).to_bits(), stepped.min_voltage(r).to_bits());
                prop_assert_eq!(blocked.voltage(r).to_bits(), stepped.voltage(r).to_bits());
            }
        }
    }
}
