//! Full-key CPA: sixteen last-round attacks over one trace stream.
//!
//! The paper demonstrates recovery of one key byte; a real adversary
//! reuses the same captured traces to attack all sixteen bytes of the
//! last round key in parallel (each byte's hypothesis depends on a
//! different ciphertext byte) and then inverts the key schedule
//! (`slm_aes::soft::invert_key_schedule`) to obtain the master key.
//! This module recovers the round key.

use crate::attack::{CpaAttack, LastRoundModel, TraceBatch};
use crate::error::CpaError;

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

    /// Absorbs a staged batch into all sixteen attacks; each derives
    /// its own bins from the batch's ciphertexts.
    ///
    /// # Errors
    ///
    /// As [`CpaAttack::add_batch`]. The sixteen attacks share their
    /// point and trace counts, so either all of them absorb the batch
    /// or none does.
    pub fn add_batch(&mut self, batch: &TraceBatch) -> Result<(), CpaError> {
        self.attacks.iter_mut().try_for_each(|a| a.add_batch(batch))
    }

    /// Every byte's peak |r| over its 256 candidates, in byte order:
    /// the one evaluation of all sixteen attacks. The 16 × 256-candidate
    /// evaluation is spread across `workers` threads (0 = machine
    /// parallelism); each byte is evaluated exactly as one thread
    /// would, so the surfaces are bit-identical at any worker count.
    /// Derive the key with [`MultiByteCpa::round_key_of`] and a true
    /// byte's rank with [`CpaAttack::rank_in`].
    pub fn peak_correlations(&self, workers: usize) -> Vec<[f64; 256]> {
        slm_par::par_map(workers, &self.attacks, CpaAttack::peak_correlations)
    }

    /// The last round key an evaluation recovers: each byte's leading
    /// candidate ([`CpaAttack::best_of`]).
    pub fn round_key_of(peaks: &[[f64; 256]]) -> [u8; 16] {
        std::array::from_fn(|b| CpaAttack::best_of(&peaks[b]).0)
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
        let mut batch = TraceBatch::with_capacity(1, 6_000);
        let mut rng = Rng64::new(42);
        for _ in 0..6_000 {
            let mut pt = [0u8; 16];
            rng.fill_bytes(&mut pt);
            let ct = soft::encrypt(&key, &pt);
            // leakage: sum over all bytes of the pre-SubBytes bit + noise,
            // scaled, offset and rounded to a count
            let mut leak = 0.0;
            for b in 0..16 {
                leak += f64::from(soft::INV_SBOX[(ct[b] ^ k10[b]) as usize] & 1);
            }
            let count = (256.0 + 8.0 * (leak + rng.normal_scaled(2.0))).round();
            batch.push(ct, &[count]);
        }
        multi.add_batch(&batch).unwrap();
        let peaks = multi.peak_correlations(1);
        assert_eq!(MultiByteCpa::round_key_of(&peaks), k10);
        assert_eq!(soft::invert_key_schedule(&k10), key);
        for (peak, &k) in peaks.iter().zip(&k10) {
            assert_eq!(CpaAttack::rank_in(peak, k), 0);
        }
    }

    #[test]
    fn partial_recovery_counts() {
        let multi = MultiByteCpa::new(0, 1);
        // Untrained attacks tie every candidate, so each byte leads
        // with candidate 0 and every candidate ranks first.
        let peaks = multi.peak_correlations(1);
        assert_eq!(MultiByteCpa::round_key_of(&peaks), [0u8; 16]);
        assert!(peaks.iter().all(|p| CpaAttack::rank_in(p, 7) == 0));
    }
}
