//! Property-based tests for the sensor models.

use proptest::prelude::*;
use slm_netlist::generators::ripple_carry_adder;
use slm_netlist::words;
use slm_sensors::{BenignSensor, BenignSensorConfig, TdcConfig, TdcSensor};
use slm_timing::{simulate_transition, DelayModel};

fn adder_sensor(jitter_ps: f64, seed: u64) -> BenignSensor {
    let n = 32;
    let nl = ripple_carry_adder(n).unwrap();
    let ann = DelayModel::default()
        .annotate_for_period(&nl, 5.2, 1.0)
        .unwrap();
    let mut reset = words::to_bits(0, n);
    reset.extend(words::to_bits(0, n));
    let mut measure = vec![true; n];
    measure.extend(words::to_bits(1, n));
    let waves = simulate_transition(&ann, &reset, &measure)
        .unwrap()
        .into_output_waves();
    BenignSensor::new(
        waves,
        BenignSensorConfig {
            jitter_sigma_ps: jitter_ps,
            drift_sigma_ps: 0.0,
            skew_sigma_ps: 0.0,
            ..BenignSensorConfig::overclocked_300mhz(seed)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// TDC depth is monotone non-increasing as voltage falls.
    #[test]
    fn tdc_monotone_in_voltage(seed in any::<u64>()) {
        let mut cfg = TdcConfig::paper_150mhz(seed);
        cfg.jitter_ps = 0.0;
        let tdc = TdcSensor::new(cfg);
        let mut prev = u32::MAX;
        let mut v = 1.10;
        while v > 0.90 {
            let mut t = tdc.clone();
            let d = t.sample(v);
            prop_assert!(d <= prev, "depth rose as voltage fell at v={v}");
            prev = d;
            v -= 0.005;
        }
    }

    /// Noise-free benign captures are deterministic functions of voltage.
    #[test]
    fn benign_sensor_deterministic_without_noise(seed in any::<u64>(), dv in 0u32..60) {
        let v = 0.97 + f64::from(dv) * 0.001;
        let mut s1 = adder_sensor(0.0, seed);
        let mut s2 = adder_sensor(0.0, seed);
        prop_assert_eq!(s1.sample(v), s2.sample(v));
    }

    /// The aligned Hamming weight of the carry-chain sensor is monotone
    /// in voltage when noise-free: lower volts → fewer carries land →
    /// more residual 1s.
    #[test]
    fn benign_hw_monotone_without_noise(seed in any::<u64>()) {
        let mut sensor = adder_sensor(0.0, seed);
        let mut prev = 0;
        let mut v = 1.05;
        while v > 0.92 {
            let hw = sensor.sample(v).hamming_weight();
            prop_assert!(hw >= prev, "HW fell as voltage fell at v={v}");
            prev = hw;
            v -= 0.002;
        }
    }

    /// Subset sampling agrees with full sampling bit-for-bit when quiet.
    #[test]
    fn subset_sampling_consistent(seed in any::<u64>(), v_mils in 940u32..1050) {
        let v = f64::from(v_mils) / 1000.0;
        let mut s = adder_sensor(0.0, seed);
        let full = s.sample(v);
        let idx: Vec<usize> = (0..full.len).step_by(3).collect();
        let sub = s.sample_endpoints(v, &idx);
        for (slot, &i) in idx.iter().enumerate() {
            prop_assert_eq!(sub.bit(slot), full.bit(i));
        }
    }

    /// Sample packing: hamming_weight equals the popcount of the packed
    /// words for arbitrary endpoints.
    #[test]
    fn sample_packing_consistent(v_mils in 940u32..1050, seed in any::<u64>()) {
        let mut s = adder_sensor(20.0, seed);
        let smp = s.sample(f64::from(v_mils) / 1000.0);
        let popcount: u32 = smp.bits.iter().map(|w| w.count_ones()).sum();
        prop_assert_eq!(popcount, smp.hamming_weight());
        prop_assert_eq!(
            (0..smp.len).filter(|&i| smp.bit(i)).count() as u32,
            smp.hamming_weight()
        );
    }
}
