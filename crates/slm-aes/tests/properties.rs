//! Property-based tests for the AES victim model.

use proptest::prelude::*;
use slm_aes::{soft, Aes32Rtl, LeakageModel};
use slm_pdn::noise::Rng64;

proptest! {
    #[test]
    fn encrypt_decrypt_roundtrip(key in any::<[u8; 16]>(), pt in any::<[u8; 16]>()) {
        let ct = soft::encrypt(&key, &pt);
        prop_assert_eq!(soft::decrypt(&key, &ct), pt);
    }

    #[test]
    fn round_states_end_in_ciphertext(key in any::<[u8; 16]>(), pt in any::<[u8; 16]>()) {
        let states = soft::encrypt_round_states(&key, &pt);
        prop_assert_eq!(states[soft::ROUNDS], soft::encrypt(&key, &pt));
    }

    /// The relation the last-round CPA hypothesis inverts:
    /// `state9[j] = INV_SBOX[ct[dest(j)] ^ k10[dest(j)]]`.
    #[test]
    fn last_round_hypothesis_relation(key in any::<[u8; 16]>(), pt in any::<[u8; 16]>()) {
        let states = soft::encrypt_round_states(&key, &pt);
        let k10 = soft::key_expansion(&key)[10];
        let ct = states[10];
        for (j, &pre) in states[9].iter().enumerate() {
            let jd = soft::shift_rows_dest(j);
            prop_assert_eq!(pre, soft::INV_SBOX[(ct[jd] ^ k10[jd]) as usize]);
        }
    }

    #[test]
    fn rtl_matches_soft(key in any::<[u8; 16]>(), pt in any::<[u8; 16]>(), seed in any::<u64>()) {
        let rtl = Aes32Rtl::new(key);
        let mut rng = Rng64::new(seed);
        let (ct, trace) = rtl.encrypt_with_power(pt, &LeakageModel::default(), &mut rng);
        prop_assert_eq!(ct, soft::encrypt(&key, &pt));
        prop_assert_eq!(trace.len(), Aes32Rtl::CYCLES_PER_BLOCK);
    }

    #[test]
    fn shift_rows_dest_is_permutation(_x in 0u8..1) {
        let mut seen = [false; 16];
        for j in 0..16 {
            let d = soft::shift_rows_dest(j);
            prop_assert!(!seen[d]);
            seen[d] = true;
        }
    }
}

/// A verbatim copy of the per-cycle loop `Aes32Rtl::encrypt_with_power`
/// ran before its noise was drawn as one block: one `normal_scaled`
/// per cycle, interleaved with the current model.
fn reference_encrypt_with_power(
    rtl: &Aes32Rtl,
    plaintext: [u8; 16],
    model: &LeakageModel,
    rng: &mut Rng64,
) -> ([u8; 16], Vec<f64>) {
    let states = soft::encrypt_round_states_with_schedule(rtl.round_keys(), &plaintext);
    let mut trace = Vec::with_capacity(Aes32Rtl::CYCLES_PER_BLOCK);
    let col = |s: &[u8; 16], c: usize| -> u32 {
        u32::from_le_bytes([s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]])
    };
    let pt_col = |c: usize| -> u32 {
        u32::from_le_bytes([
            plaintext[4 * c],
            plaintext[4 * c + 1],
            plaintext[4 * c + 2],
            plaintext[4 * c + 3],
        ])
    };
    let loaded = col(&states[0], 3);
    trace.push(model.cycle_current(0, loaded, pt_col(3), rng.normal_scaled(model.sigma_a)));
    for r in 1..=soft::ROUNDS {
        for c in 0..4 {
            let old = col(&states[r - 1], c);
            let new = col(&states[r], c);
            trace.push(model.cycle_current(old, new, old, rng.normal_scaled(model.sigma_a)));
        }
    }
    (states[soft::ROUNDS], trace)
}

proptest! {
    /// `encrypt_with_power` matches the reference per-cycle loop in
    /// ciphertext, every cycle's current bit for bit, and the generator
    /// state after — with and without a spare normal carried in, and
    /// with noise on and off.
    #[test]
    fn encrypt_with_power_matches_reference_loop(
        key in any::<[u8; 16]>(),
        pt in any::<[u8; 16]>(),
        seed in any::<u64>(),
        spare in any::<bool>(),
        noisy in any::<bool>(),
    ) {
        let rtl = Aes32Rtl::new(key);
        let model = if noisy { LeakageModel::default() } else { LeakageModel::noiseless() };
        let mut got_rng = Rng64::new(seed);
        let mut want_rng = Rng64::new(seed);
        if spare {
            prop_assert_eq!(got_rng.normal().to_bits(), want_rng.normal().to_bits());
        }
        for _ in 0..3 {
            let (ct, trace) = rtl.encrypt_with_power(pt, &model, &mut got_rng);
            let (want_ct, want) = reference_encrypt_with_power(&rtl, pt, &model, &mut want_rng);
            prop_assert_eq!(ct, want_ct);
            prop_assert_eq!(trace.len(), want.len());
            for (cycle, (g, w)) in trace.iter().zip(&want).enumerate() {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "cycle {}", cycle);
            }
            prop_assert_eq!(&got_rng, &want_rng);
        }
    }
}
