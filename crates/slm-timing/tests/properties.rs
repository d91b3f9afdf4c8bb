//! Property-based tests for the timing substrate.

use proptest::prelude::*;
use slm_netlist::generators::{alu, array_multiplier, ripple_carry_adder, AluOp};
use slm_netlist::words;
use slm_timing::{simulate_transition, DelayModel, VoltageDelayLaw};

proptest! {
    // Each case builds and annotates a multi-thousand-gate netlist; keep
    // the case count modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Event-driven settled values must agree with functional simulation,
    /// for arbitrary stimulus pairs: timing never changes logic at t → ∞.
    #[test]
    fn settled_values_match_functional(a in any::<u16>(), b in any::<u16>(),
                                       ra in any::<u16>(), rb in any::<u16>(),
                                       seed in any::<u64>()) {
        let nl = array_multiplier(16).unwrap();
        let ann = DelayModel { seed, ..DelayModel::default() }.annotate(&nl);
        let mut reset = words::to_bits(ra as u128, 16);
        reset.extend(words::to_bits(rb as u128, 16));
        let mut measure = words::to_bits(a as u128, 16);
        measure.extend(words::to_bits(b as u128, 16));
        let waves = simulate_transition(&ann, &reset, &measure).unwrap();
        let settled: Vec<bool> = waves
            .output_waves()
            .iter()
            .map(|w| w.sampled_at(w.settle_time_fs() + 1))
            .collect();
        prop_assert_eq!(settled, nl.eval(&measure).unwrap());
    }

    /// STA arrival is an upper bound on every event-sim transition time.
    #[test]
    fn sta_bounds_event_sim(a in any::<u32>(), b in any::<u32>(), op_idx in 0usize..8) {
        let nl = alu(32).unwrap();
        let ann = DelayModel::default().annotate(&nl);
        let sta = ann.sta().unwrap();
        let mut reset = vec![false; nl.inputs().len()];
        let op = AluOp::ALL[op_idx];
        reset[64] = op.opcode_bits()[0];
        reset[65] = op.opcode_bits()[1];
        reset[66] = op.opcode_bits()[2];
        let mut measure = words::to_bits(a as u128, 32);
        measure.extend(words::to_bits(b as u128, 32));
        measure.extend(op.opcode_bits());
        let waves = simulate_transition(&ann, &reset, &measure).unwrap();
        for (w, &arr) in waves.output_waves().iter().zip(sta.output_arrivals_ps()) {
            let settle_ps = w.settle_time_fs() as f64 / 1000.0;
            // allow sub-ps slack for per-hop femtosecond rounding
            prop_assert!(settle_ps <= arr + 0.05,
                "settle {settle_ps} ps exceeds STA arrival {arr} ps");
        }
    }

    /// Uniformly scaling all delays scales every transition time.
    #[test]
    fn delay_scaling_scales_waveforms(a in any::<u16>(), scale_pct in 110u32..300) {
        let n = 16;
        let nl = ripple_carry_adder(n).unwrap();
        let base = DelayModel::default().annotate(&nl);
        let mut scaled = base.clone();
        let k = scale_pct as f64 / 100.0;
        scaled.scale(k);
        let reset = vec![false; 2 * n];
        let mut measure = words::to_bits(a as u128, n);
        measure.extend(words::to_bits(1, n));
        let w1 = simulate_transition(&base, &reset, &measure).unwrap();
        let w2 = simulate_transition(&scaled, &reset, &measure).unwrap();
        for (u, v) in w1.output_waves().iter().zip(w2.output_waves()) {
            prop_assert_eq!(u.transitions.len(), v.transitions.len());
            for (&(t1, b1), &(t2, b2)) in u.transitions.iter().zip(&v.transitions) {
                prop_assert_eq!(b1, b2);
                let expect = (t1 as f64 * k).round();
                // per-event rounding: each hop rounds once, path length < 200
                prop_assert!((t2 as f64 - expect).abs() < 300.0 * 1000.0 * 0.002 + 200.0,
                    "t1={t1} t2={t2} k={k}");
            }
        }
    }

    /// The voltage law is consistent: scale(voltage_for_scale(s)) == s.
    #[test]
    fn voltage_law_inverse(s in 0.5f64..4.0) {
        let law = VoltageDelayLaw::default();
        prop_assert!((law.scale(law.voltage_for_scale(s)) - s).abs() < 1e-9);
    }

    /// Sampling earlier than every transition yields the initial value;
    /// sampling after the settle time yields the final value.
    #[test]
    fn sampling_extremes(a in any::<u16>(), b in any::<u16>()) {
        let nl = array_multiplier(8).unwrap();
        let ann = DelayModel::default().annotate(&nl);
        let reset = vec![false; 16];
        let mut measure = words::to_bits((a & 0xff) as u128, 8);
        measure.extend(words::to_bits((b & 0xff) as u128, 8));
        let waves = simulate_transition(&ann, &reset, &measure).unwrap();
        for w in waves.output_waves() {
            prop_assert_eq!(w.sampled_at(0), w.initial);
            let last = w.transitions.last().map_or(w.initial, |&(_, v)| v);
            prop_assert_eq!(w.sampled_at(w.settle_time_fs() + 1), last);
        }
    }
}
