//! Full-key CPA: sixteen last-round attacks over one trace stream.
//!
//! The paper demonstrates recovery of one key byte; a real adversary
//! reuses the same captured traces to attack all sixteen bytes of the
//! last round key in parallel (each byte's hypothesis depends on a
//! different ciphertext byte) and then inverts the key schedule
//! (`slm_aes::soft::invert_key_schedule`) to obtain the master key.
//! This module recovers the round key.

use crate::attack::{CpaAttack, LastRoundModel};

/// Sixteen parallel last-round single-bit CPA attacks sharing one
/// trace stream.
#[derive(Debug)]
pub struct MultiByteCpa {
    attacks: Vec<CpaAttack>,
}

impl MultiByteCpa {
    /// Creates attacks on every key byte, predicting `bit` of the
    /// pre-SubBytes state, over `points` trace points.
    pub fn new(bit: u8, points: usize) -> Self {
        MultiByteCpa {
            attacks: (0..16)
                .map(|ct_byte| CpaAttack::new(LastRoundModel { ct_byte, bit }, points))
                .collect(),
        }
    }

    /// Absorbs one trace into all sixteen attacks.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len()` differs from the configured point
    /// count.
    pub fn add_trace(&mut self, ct: &[u8; 16], samples: &[f64]) {
        for attack in &mut self.attacks {
            attack.add_trace(ct, samples);
        }
    }

    /// The recovered last round key: each byte's leading candidate.
    /// The 16 × 256-candidate correlation evaluation is spread across
    /// `workers` threads (0 = machine parallelism); each byte is
    /// evaluated exactly as one thread would, so the key is
    /// bit-identical at any worker count.
    pub fn recovered_round_key(&self, workers: usize) -> [u8; 16] {
        let peaks = slm_par::par_map(workers, &self.attacks, CpaAttack::peak_correlations);
        let mut k10 = [0u8; 16];
        for (k, peak) in k10.iter_mut().zip(&peaks) {
            *k = CpaAttack::best_of(peak).0;
        }
        k10
    }

    /// How many bytes of the true last round key currently lead.
    pub fn correct_bytes(&self, true_k10: &[u8; 16]) -> usize {
        self.recovered_round_key(1)
            .iter()
            .zip(true_k10)
            .filter(|(a, b)| a == b)
            .count()
    }

    /// Per-byte rank of the true key byte (0 = leading).
    pub fn ranks(&self, true_k10: &[u8; 16]) -> [usize; 16] {
        let mut out = [0usize; 16];
        for (b, attack) in self.attacks.iter().enumerate() {
            out[b] = attack.rank_of(true_k10[b]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slm_aes::soft;
    use slm_pdn::noise::Rng64;

    #[test]
    fn recovers_all_bytes_from_synthetic_leakage() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let k10 = soft::key_expansion(&key)[10];
        let mut multi = MultiByteCpa::new(0, 1);
        let mut rng = Rng64::new(42);
        for _ in 0..6_000 {
            let mut pt = [0u8; 16];
            rng.fill_bytes(&mut pt);
            let ct = soft::encrypt(&key, &pt);
            // leakage: sum over all bytes of the pre-SubBytes bit + noise
            let mut leak = 0.0;
            for b in 0..16 {
                leak += f64::from(soft::INV_SBOX[(ct[b] ^ k10[b]) as usize] & 1);
            }
            multi.add_trace(&ct, &[leak + rng.normal_scaled(2.0)]);
        }
        assert_eq!(multi.recovered_round_key(1), k10);
        assert_eq!(soft::invert_key_schedule(&k10), key);
        assert_eq!(multi.correct_bytes(&k10), 16);
        assert_eq!(multi.ranks(&k10), [0; 16]);
    }

    #[test]
    fn partial_recovery_counts() {
        let k10 = [7u8; 16];
        let multi = MultiByteCpa::new(0, 1);
        // untrained attacks lead with candidate 0 everywhere
        let correct = multi.correct_bytes(&k10);
        assert_eq!(correct, 0);
        let all_zero = multi.correct_bytes(&[0u8; 16]);
        assert_eq!(all_zero, 16);
    }
}
