//! Full-key CPA: sixteen last-round attacks over one trace stream.
//!
//! The paper demonstrates recovery of one key byte; a real adversary
//! reuses the same captured traces to attack all sixteen bytes of the
//! last round key in parallel (each byte's hypothesis depends on a
//! different ciphertext byte) and then inverts the key schedule to
//! obtain the master key. This module completes that chain.

use crate::attack::{CpaAttack, LastRoundModel, TraceBatch};
use crate::error::CpaError;
use serde::{Deserialize, Serialize};
use slm_aes::soft;

/// Sixteen parallel last-round single-bit CPA attacks sharing one
/// trace stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Traces absorbed so far.
    pub fn traces(&self) -> u64 {
        self.attacks[0].traces()
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

    /// Absorbs one trace into all sixteen attacks, rejecting a
    /// malformed one instead of panicking (see
    /// [`CpaAttack::try_add_trace`]).
    ///
    /// # Errors
    ///
    /// [`CpaError::PointCountMismatch`] when the sample count is
    /// wrong; no attack absorbs the trace.
    pub fn try_add_trace(&mut self, ct: &[u8; 16], samples: &[f64]) -> Result<(), CpaError> {
        if samples.len() != self.attacks[0].points() {
            return Err(CpaError::PointCountMismatch {
                expected: self.attacks[0].points(),
                got: samples.len(),
            });
        }
        self.add_trace(ct, samples);
        Ok(())
    }

    /// Absorbs a staged batch into all sixteen attacks, bit-identically
    /// to feeding the batch's traces one at a time in batch order (see
    /// [`CpaAttack::add_batch`] for the order-preservation argument).
    /// Each byte-attack derives its own bin grouping from the batch's
    /// stored ciphertexts.
    ///
    /// # Errors
    ///
    /// [`CpaError::PointCountMismatch`] when the batch's point count is
    /// wrong; no attack absorbs any trace.
    pub fn add_batch(&mut self, batch: &TraceBatch) -> Result<(), CpaError> {
        if batch.points() != self.attacks[0].points() {
            return Err(CpaError::PointCountMismatch {
                expected: self.attacks[0].points(),
                got: batch.points(),
            });
        }
        for attack in &mut self.attacks {
            attack.add_batch(batch)?;
        }
        Ok(())
    }

    /// Folds another sixteen-byte accumulator into this one, byte by
    /// byte (see [`CpaAttack::try_merge`] for the merge algebra and
    /// determinism contract).
    ///
    /// # Errors
    ///
    /// [`CpaError::IncompatibleMerge`] when any per-byte pair is
    /// incompatible; bytes already merged before the mismatch was
    /// detected are **not** rolled back, so treat an error as fatal
    /// for this accumulator.
    pub fn try_merge(&mut self, other: &MultiByteCpa) -> Result<(), CpaError> {
        if self.attacks[0].points() != other.attacks[0].points() {
            return Err(CpaError::IncompatibleMerge {
                detail: format!(
                    "{} points vs {} points",
                    self.attacks[0].points(),
                    other.attacks[0].points()
                ),
            });
        }
        for (a, b) in self.attacks.iter_mut().zip(&other.attacks) {
            a.try_merge(b)?;
        }
        Ok(())
    }

    /// [`MultiByteCpa::try_merge`] for accumulators known to be
    /// compatible.
    ///
    /// # Panics
    ///
    /// Panics if the point counts or per-byte models differ.
    pub fn merge(&mut self, other: &MultiByteCpa) {
        self.try_merge(other)
            .expect("merged accumulators must share geometry");
    }

    /// The leading candidate and its peak |r| for each key byte.
    pub fn best_candidates(&self) -> [(u8, f64); 16] {
        let mut out = [(0u8, 0.0f64); 16];
        for (b, attack) in self.attacks.iter().enumerate() {
            out[b] = attack.best_candidate();
        }
        out
    }

    /// [`MultiByteCpa::best_candidates`] with the 16 × 256-candidate
    /// correlation evaluation spread across `workers` threads (0 =
    /// machine parallelism). Each byte's evaluation is computed
    /// exactly as the serial path would, so the result is
    /// bit-identical at any worker count.
    pub fn best_candidates_par(&self, workers: usize) -> [(u8, f64); 16] {
        let peaks = slm_par::par_map(workers, &self.attacks, CpaAttack::peak_correlations);
        let mut out = [(0u8, 0.0f64); 16];
        for (b, peak) in peaks.iter().enumerate() {
            out[b] = CpaAttack::best_of(peak);
        }
        out
    }

    /// [`MultiByteCpa::recovered_round_key`] evaluated across
    /// `workers` threads.
    pub fn recovered_round_key_par(&self, workers: usize) -> [u8; 16] {
        let mut k10 = [0u8; 16];
        for (b, (k, _)) in self.best_candidates_par(workers).iter().enumerate() {
            k10[b] = *k;
        }
        k10
    }

    /// The recovered last round key (leading candidate per byte).
    pub fn recovered_round_key(&self) -> [u8; 16] {
        let mut k10 = [0u8; 16];
        for (b, (k, _)) in self.best_candidates().iter().enumerate() {
            k10[b] = *k;
        }
        k10
    }

    /// The recovered master key, from inverting the key schedule on the
    /// recovered round key.
    pub fn recovered_master_key(&self) -> [u8; 16] {
        soft::invert_key_schedule(&self.recovered_round_key())
    }

    /// How many bytes of the true last round key currently lead.
    pub fn correct_bytes(&self, true_k10: &[u8; 16]) -> usize {
        self.recovered_round_key()
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

    /// Access to the per-byte attacks.
    pub fn byte_attack(&self, ct_byte: usize) -> &CpaAttack {
        &self.attacks[ct_byte]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(multi.recovered_round_key(), k10);
        assert_eq!(multi.recovered_master_key(), key);
        assert_eq!(multi.correct_bytes(&k10), 16);
        assert_eq!(multi.ranks(&k10), [0; 16]);
        assert_eq!(multi.traces(), 6_000);
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
