//! Cycle-accurate 32-bit-datapath AES-128 hardware model.

use crate::leakage::LeakageModel;
use crate::soft;
use slm_pdn::noise::Rng64;

/// The paper's AES victim: a 100 MHz AES-128 core with a 32-bit datapath
/// (four parallel S-boxes), so each round takes four cycles — one state
/// column per cycle — after a one-cycle initial-AddRoundKey load.
///
/// [`Aes32Rtl::encrypt_with_power`] returns the ciphertext together with
/// the per-cycle supply current of the block, which the fabric simulator
/// feeds into the shared PDN.
#[derive(Debug, Clone)]
pub struct Aes32Rtl {
    round_keys: [[u8; 16]; soft::ROUNDS + 1],
}

impl Aes32Rtl {
    /// Active cycles per encrypted block: 1 load + 10 rounds × 4 columns.
    pub const CYCLES_PER_BLOCK: usize = 1 + soft::ROUNDS * 4;

    /// Creates the core with a fixed secret key (set at configuration
    /// time, like a key loaded into the victim bitstream).
    pub fn new(key: [u8; 16]) -> Self {
        Aes32Rtl {
            round_keys: soft::key_expansion(&key),
        }
    }

    /// The expanded round keys.
    pub fn round_keys(&self) -> &[[u8; 16]; soft::ROUNDS + 1] {
        &self.round_keys
    }

    /// The cycle index (0-based within the block) at which the final
    /// round processes the column containing pre-SubBytes byte `j` —
    /// i.e. where the last-round leakage of `state9[j]` appears.
    pub fn last_round_cycle_for_byte(j: usize) -> usize {
        assert!(j < 16);
        1 + (soft::ROUNDS - 1) * 4 + j / 4
    }

    /// Encrypts one block on a *masked* datapath: every state column is
    /// XOR-blinded with a fresh random 32-bit mask each cycle before it
    /// touches the leaky register and operand paths, and unblinded
    /// downstream (the standard first-order Boolean-masking model, with
    /// per-cycle remasking so Hamming *distances* do not cancel the
    /// mask). The ciphertext is unchanged; the per-cycle current no
    /// longer depends on the real state at first order, which defeats
    /// the paper's CPA — the "masking" countermeasure its related work
    /// cites (Chari et al.; Krautter et al.).
    ///
    /// Each cycle draws its mask and then its noise from `rng`, so the
    /// draws stay interleaved.
    pub fn encrypt_with_power_masked(
        &self,
        plaintext: [u8; 16],
        model: &LeakageModel,
        rng: &mut Rng64,
    ) -> ([u8; 16], [f64; Self::CYCLES_PER_BLOCK]) {
        let states = soft::encrypt_round_states_with_schedule(&self.round_keys, &plaintext);
        let mut trace = [0.0; Self::CYCLES_PER_BLOCK];
        let mut mask = rng.next_u64() as u32;
        let loaded = column(&states[0], 3) ^ mask;
        trace[0] = model.cycle_current(0, loaded, loaded, rng.normal_scaled(model.sigma_a));
        for r in 1..=soft::ROUNDS {
            for c in 0..4 {
                let new_mask = rng.next_u64() as u32;
                let old = column(&states[r - 1], c) ^ mask;
                let new = column(&states[r], c) ^ new_mask;
                trace[1 + 4 * (r - 1) + c] =
                    model.cycle_current(old, new, old, rng.normal_scaled(model.sigma_a));
                mask = new_mask;
            }
        }
        (states[soft::ROUNDS], trace)
    }

    /// Encrypts one block, returning the ciphertext and the per-cycle
    /// supply current.
    ///
    /// The block's algorithmic noise is drawn up front with one
    /// [`Rng64::fill_normal_scaled`], bit-identical to one
    /// [`Rng64::normal_scaled`] per cycle.
    pub fn encrypt_with_power(
        &self,
        plaintext: [u8; 16],
        model: &LeakageModel,
        rng: &mut Rng64,
    ) -> ([u8; 16], [f64; Self::CYCLES_PER_BLOCK]) {
        let states = soft::encrypt_round_states_with_schedule(&self.round_keys, &plaintext);
        let mut trace = [0.0; Self::CYCLES_PER_BLOCK];
        rng.fill_normal_scaled(&mut trace, model.sigma_a);

        // Cycle 0: load plaintext ⊕ k0 into the state register. The
        // register previously held zeros (cleared between blocks, as the
        // BRAM-captured design does); the datapath operand is the raw
        // plaintext word stream (model: last column loaded).
        let loaded = column(&states[0], 3);
        trace[0] = model.cycle_current(0, loaded, column(&plaintext, 3), trace[0]);

        // Rounds 1..=10, one column per cycle. During round r, column c
        // of the state register transitions from states[r-1] to
        // states[r]; the combinational operand is the column of the
        // round input being transformed this cycle.
        for r in 1..=soft::ROUNDS {
            for c in 0..4 {
                let old = column(&states[r - 1], c);
                let new = column(&states[r], c);
                let i = 1 + 4 * (r - 1) + c;
                trace[i] = model.cycle_current(old, new, old, trace[i]);
            }
        }
        (states[soft::ROUNDS], trace)
    }
}

/// Column `c` of a column-major AES state, as a little-endian word.
fn column(s: &[u8; 16], c: usize) -> u32 {
    u32::from_le_bytes([s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]])
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    #[test]
    fn ciphertext_matches_reference() {
        let rtl = Aes32Rtl::new(KEY);
        let mut rng = Rng64::new(9);
        for i in 0..16u8 {
            let pt = [i; 16];
            let (ct, _) = rtl.encrypt_with_power(pt, &LeakageModel::default(), &mut rng);
            assert_eq!(ct, soft::encrypt(&KEY, &pt));
        }
    }

    #[test]
    fn trace_length_fixed() {
        let rtl = Aes32Rtl::new(KEY);
        let mut rng = Rng64::new(1);
        let (_, trace) = rtl.encrypt_with_power([7; 16], &LeakageModel::default(), &mut rng);
        assert_eq!(trace.len(), 41);
        assert_eq!(trace.len(), Aes32Rtl::CYCLES_PER_BLOCK);
    }

    #[test]
    fn currents_positive_and_data_dependent() {
        let rtl = Aes32Rtl::new(KEY);
        let mut rng = Rng64::new(1);
        let m = LeakageModel::noiseless();
        let (_, t1) = rtl.encrypt_with_power([0x00; 16], &m, &mut rng);
        let (_, t2) = rtl.encrypt_with_power([0xa5; 16], &m, &mut rng);
        assert!(t1.iter().all(|&i| i > 0.0));
        assert_ne!(t1, t2, "different plaintexts must draw different power");
    }

    #[test]
    fn last_round_cycle_mapping() {
        // byte 3 is in column 0 → first cycle of round 10 = 1 + 36 = 37
        assert_eq!(Aes32Rtl::last_round_cycle_for_byte(3), 37);
        assert_eq!(Aes32Rtl::last_round_cycle_for_byte(15), 40);
        assert_eq!(Aes32Rtl::last_round_cycle_for_byte(0), 37);
    }

    #[test]
    fn last_round_current_tracks_state9_weight() {
        // With only the HW term enabled, the cycle for byte j's column
        // must vary with HW(states[9] column) across plaintexts.
        let rtl = Aes32Rtl::new(KEY);
        let m = LeakageModel {
            idle_a: 0.0,
            k_hd_a: 0.0,
            k_hw_a: 1.0,
            sigma_a: 0.0,
        };
        let mut rng = Rng64::new(2);
        for i in 0..8u8 {
            let pt = [i.wrapping_mul(37); 16];
            let states = soft::encrypt_round_states(&KEY, &pt);
            let (_, trace) = rtl.encrypt_with_power(pt, &m, &mut rng);
            let cyc = Aes32Rtl::last_round_cycle_for_byte(3);
            let col0 = u32::from_le_bytes([states[9][0], states[9][1], states[9][2], states[9][3]]);
            assert!(
                (trace[cyc] - f64::from(col0.count_ones())).abs() < 1e-9,
                "cycle current must equal HW of state9 column 0"
            );
        }
    }

    #[test]
    fn masked_ciphertext_unchanged() {
        let rtl = Aes32Rtl::new(KEY);
        let mut rng = Rng64::new(4);
        for i in 0..8u8 {
            let pt = [i.wrapping_mul(11); 16];
            let (ct, trace) = rtl.encrypt_with_power_masked(pt, &LeakageModel::default(), &mut rng);
            assert_eq!(ct, soft::encrypt(&KEY, &pt));
            assert_eq!(trace.len(), Aes32Rtl::CYCLES_PER_BLOCK);
        }
    }

    #[test]
    fn masking_removes_first_order_state_dependence() {
        // With masking, the last-round cycle current must not correlate
        // with the real state's Hamming weight across plaintexts.
        let rtl = Aes32Rtl::new(KEY);
        let m = LeakageModel {
            idle_a: 0.0,
            k_hd_a: 0.0,
            k_hw_a: 1.0,
            sigma_a: 0.0,
        };
        let mut rng = Rng64::new(5);
        let cyc = Aes32Rtl::last_round_cycle_for_byte(3);
        let n = 4000;
        let (mut sx, mut sy, mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for _ in 0..n {
            let mut pt = [0u8; 16];
            rng.fill_bytes(&mut pt);
            let states = soft::encrypt_round_states(&KEY, &pt);
            let hw_true = f64::from(
                u32::from_le_bytes([states[9][0], states[9][1], states[9][2], states[9][3]])
                    .count_ones(),
            );
            let (_, trace) = rtl.encrypt_with_power_masked(pt, &m, &mut rng);
            let x = hw_true;
            let y = trace[cyc];
            sx += x;
            sy += y;
            sxy += x * y;
            sxx += x * x;
            syy += y * y;
        }
        let nf = n as f64;
        let r = (nf * sxy - sx * sy) / ((nf * sxx - sx * sx).sqrt() * (nf * syy - sy * sy).sqrt());
        assert!(
            r.abs() < 0.05,
            "masked current must not track the true state: r = {r}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let rtl = Aes32Rtl::new(KEY);
        let m = LeakageModel::default();
        let mut r1 = Rng64::new(5);
        let mut r2 = Rng64::new(5);
        let (c1, t1) = rtl.encrypt_with_power([9; 16], &m, &mut r1);
        let (c2, t2) = rtl.encrypt_with_power([9; 16], &m, &mut r2);
        assert_eq!(c1, c2);
        assert_eq!(t1, t2);
    }
}
