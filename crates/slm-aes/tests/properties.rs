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

/// A verbatim copy of the byte-wise forward round `soft` ran before its
/// rounds became T-table lookups on column words.
mod bytewise {
    use slm_aes::soft::{gf_mul as mul, key_expansion, ROUNDS, SBOX};

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for s in state.iter_mut() {
            *s = SBOX[*s as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        let old = *state;
        for c in 0..4 {
            for r in 0..4 {
                state[4 * c + r] = old[4 * ((c + r) % 4) + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = mul(col[0], 2) ^ mul(col[1], 3) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ mul(col[1], 2) ^ mul(col[2], 3) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ mul(col[2], 2) ^ mul(col[3], 3);
            state[4 * c + 3] = mul(col[0], 3) ^ col[1] ^ col[2] ^ mul(col[3], 2);
        }
    }

    /// The round states, with `faults` XORed in after each round's
    /// AddRoundKey and `premix` (round, byte, delta) XORed in before
    /// that round's MixColumns.
    pub fn round_states(
        key: &[u8; 16],
        plaintext: &[u8; 16],
        faults: &[(usize, [u8; 16])],
        premix: Option<(usize, usize, u8)>,
    ) -> [[u8; 16]; ROUNDS + 1] {
        fn apply(state: &mut [u8; 16], faults: &[(usize, [u8; 16])], round: usize) {
            for (r, mask) in faults {
                if *r == round {
                    for (s, m) in state.iter_mut().zip(mask) {
                        *s ^= m;
                    }
                }
            }
        }
        let rk = key_expansion(key);
        let mut out = [[0u8; 16]; ROUNDS + 1];
        let mut state = *plaintext;
        add_round_key(&mut state, &rk[0]);
        apply(&mut state, faults, 0);
        out[0] = state;
        for r in 1..ROUNDS {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            if let Some((round, byte, delta)) = premix {
                if r == round {
                    state[byte] ^= delta;
                }
            }
            mix_columns(&mut state);
            add_round_key(&mut state, &rk[r]);
            apply(&mut state, faults, r);
            out[r] = state;
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &rk[ROUNDS]);
        apply(&mut state, faults, ROUNDS);
        out[ROUNDS] = state;
        out
    }
}

proptest! {
    /// The T-table rounds match the byte-wise round: every round state,
    /// the ciphertext, state faults in up to three random rounds, and a
    /// single-byte fault before a random round's MixColumns.
    #[test]
    fn word_rounds_match_the_bytewise_round(
        key in any::<[u8; 16]>(),
        pt in any::<[u8; 16]>(),
        fault_rounds in proptest::collection::vec(0usize..=soft::ROUNDS, 0..4),
        masks in proptest::collection::vec(any::<[u8; 16]>(), 3),
        premix_round in 1usize..soft::ROUNDS,
        premix_byte in 0usize..16,
        delta in any::<u8>(),
    ) {
        let states = bytewise::round_states(&key, &pt, &[], None);
        prop_assert_eq!(soft::encrypt_round_states(&key, &pt), states);
        prop_assert_eq!(soft::encrypt(&key, &pt), states[soft::ROUNDS]);
        let rk = soft::key_expansion(&key);
        prop_assert_eq!(soft::encrypt_round_states_with_schedule(&rk, &pt), states);
        let faults: Vec<(usize, [u8; 16])> = fault_rounds.into_iter().zip(masks).collect();
        prop_assert_eq!(
            soft::encrypt_with_state_faults(&key, &pt, &faults),
            bytewise::round_states(&key, &pt, &faults, None)[soft::ROUNDS]
        );
        let premix = (premix_round, premix_byte, delta);
        prop_assert_eq!(
            soft::encrypt_with_premix_fault(&key, &pt, premix_round, premix_byte, delta),
            bytewise::round_states(&key, &pt, &[], Some(premix))[soft::ROUNDS]
        );
    }
}
