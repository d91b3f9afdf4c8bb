//! Differential fault analysis (DFA) on the AES last-round key.
//!
//! The fault-injection path ends here: the aggressor's supply droop
//! makes the victim's round-9 register latch a corrupted state, the
//! fabric returns the faulty ciphertext, and this module turns
//! (correct, faulty) ciphertext pairs into last-round key bytes.
//!
//! For a fault that flips state-9 byte `j` by `δ9`, the ciphertext
//! differs only at `jd = shift_rows_dest(j)`:
//!
//! ```text
//! ct [jd] = SBOX[s9[j]]      ^ k10[jd]
//! ct'[jd] = SBOX[s9[j] ^ δ9] ^ k10[jd]
//! ```
//!
//! A candidate key byte `k` is *feasible* for the pair iff
//! `INV_SBOX[ct[jd]^k] ^ INV_SBOX[ct'[jd]^k]` lands in the fault
//! model's admissible difference set. The true key byte is feasible for
//! every genuinely round-9-faulted pair; a wrong key survives each pair
//! only with probability `|D|/255` (`D` = admissible set), so counting
//! feasibility *votes* and taking the per-byte argmax converges even
//! when some accepted pairs are avalanche contamination.
//!
//! Voting (rather than strict set intersection) is deliberate: the
//! fabric's aggressor occasionally trips an early round, and a single
//! such pair would knock the true key out of an intersection forever.
//! Pairs whose ciphertexts differ in more than 12 positions are
//! discarded outright — an early-round avalanche flips all 16 bytes
//! with probability ≈ (255/256)¹⁶ ≈ 0.94, while a round-9 fault
//! touches at most the 4–12 positions its violating cycles cover.
//!
//! All accumulator state is integer counts, so shard partials merge
//! associatively — the same contract the CPA accumulators honour.

use serde::{Deserialize, Serialize};
use slm_aes::soft;

use crate::error::CpaError;

/// Which state-9 differences a fault may have produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DfaModel {
    /// The fault hits the round-9 *register* directly (our
    /// voltage-derated capture cone): each faulted byte flips at most
    /// `max_fault_bits` of its bits, so `δ9` is any byte of Hamming
    /// weight 1..=`max_fault_bits`.
    SingleByte {
        /// Largest admissible Hamming weight of a per-byte difference.
        max_fault_bits: u8,
    },
    /// The fault hits a byte *before* round 9's MixColumns (the
    /// classic Piret–Quisquater diagonal model): a pre-mix flip `ε`
    /// reaches state 9 multiplied by a MixColumns coefficient, so
    /// `δ9 ∈ {1·ε, 2·ε, 3·ε}` over GF(2⁸) with HW(ε) ≤
    /// `max_fault_bits`. The admissible set is ~3× wider, so each
    /// pair narrows the candidate set less and recovery needs more
    /// pairs.
    DiagonalRound9 {
        /// Largest admissible Hamming weight of the pre-mix flip.
        max_fault_bits: u8,
    },
}

impl DfaModel {
    /// The admissible difference set as a 256-entry membership table
    /// (`δ = 0` is never admissible — that would be no fault at all).
    fn feasible_table(&self) -> Vec<bool> {
        let mut table = vec![false; 256];
        match *self {
            DfaModel::SingleByte { max_fault_bits } => {
                for (d, entry) in table.iter_mut().enumerate().skip(1) {
                    *entry = (d as u8).count_ones() <= u32::from(max_fault_bits);
                }
            }
            DfaModel::DiagonalRound9 { max_fault_bits } => {
                for eps in 1..=255u8 {
                    if eps.count_ones() > u32::from(max_fault_bits) {
                        continue;
                    }
                    for m in [1u8, 2, 3] {
                        table[soft::gf_mul(m, eps) as usize] = true;
                    }
                }
            }
        }
        table
    }
}

/// What [`DfaAttack::add_pair`] did with a ciphertext pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairOutcome {
    /// The ciphertexts were identical — no fault landed.
    Unfaulted,
    /// Too many differing bytes: almost certainly an early-round
    /// avalanche, rejected before it can pollute the votes.
    Discarded,
    /// Counted; carries the number of differing ciphertext bytes.
    Accepted(usize),
}

/// Streaming DFA key-recovery accumulator.
///
/// Feed it (correct, faulty) ciphertext pairs — typically the golden
/// software ciphertext next to the fabric's faulted output — and read
/// back per-byte candidate sets, the recovered last-round key, and the
/// inverted master key. Mergeable across campaign shards via
/// [`DfaAttack::try_merge`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DfaAttack {
    model: DfaModel,
    /// 256 entries; rebuilt from `model` on deserialize? No — carried,
    /// it is tiny and keeps the struct self-contained.
    feasible: Vec<bool>,
    /// `votes[jd * 256 + k]`: pairs for which key candidate `k` at
    /// ciphertext position `jd` produced an admissible difference.
    votes: Vec<u32>,
    pairs_accepted: u64,
    pairs_unfaulted: u64,
    pairs_discarded: u64,
}

/// Pairs whose ciphertexts differ in more bytes than this are discarded
/// as avalanches (a round-9-only fault covers at most 3 columns in
/// practice).
const MAX_DIFF_BYTES: usize = 12;

/// Minimum votes before a byte counts as recovered.
const MIN_VOTES: u32 = 4;
/// Required lead of the best candidate over the runner-up.
const MIN_MARGIN: u32 = 2;

impl DfaAttack {
    /// A fresh accumulator for `model`, discarding pairs that differ
    /// in more than 12 ciphertext bytes (an avalanche signature).
    pub fn new(model: DfaModel) -> Self {
        DfaAttack {
            model,
            feasible: model.feasible_table(),
            votes: vec![0; 16 * 256],
            pairs_accepted: 0,
            pairs_unfaulted: 0,
            pairs_discarded: 0,
        }
    }

    /// Absorbs one (correct, faulty) ciphertext pair.
    pub fn add_pair(&mut self, correct: &[u8; 16], faulty: &[u8; 16]) -> PairOutcome {
        let diffs: Vec<usize> = (0..16).filter(|&i| correct[i] != faulty[i]).collect();
        if diffs.is_empty() {
            self.pairs_unfaulted += 1;
            return PairOutcome::Unfaulted;
        }
        if diffs.len() > MAX_DIFF_BYTES {
            self.pairs_discarded += 1;
            return PairOutcome::Discarded;
        }
        for &jd in &diffs {
            for k in 0..256usize {
                let d9 = soft::INV_SBOX[(correct[jd] ^ k as u8) as usize]
                    ^ soft::INV_SBOX[(faulty[jd] ^ k as u8) as usize];
                if self.feasible[d9 as usize] {
                    self.votes[jd * 256 + k] += 1;
                }
            }
        }
        self.pairs_accepted += 1;
        PairOutcome::Accepted(diffs.len())
    }

    /// Accepted / unfaulted / discarded pair counts, in that order.
    pub fn pair_counts(&self) -> (u64, u64, u64) {
        (
            self.pairs_accepted,
            self.pairs_unfaulted,
            self.pairs_discarded,
        )
    }

    /// Vote counts of the best and runner-up candidates for byte `jd`.
    pub fn margin(&self, jd: usize) -> (u32, u32) {
        let lane = &self.votes[jd * 256..(jd + 1) * 256];
        let mut best = 0u32;
        let mut second = 0u32;
        for &v in lane {
            if v >= best {
                second = best;
                best = v;
            } else if v > second {
                second = v;
            }
        }
        (best, second)
    }

    /// All candidates for last-round key byte `jd` tied at the maximum
    /// vote count. Empty while no votes have been cast on that byte.
    ///
    /// # Panics
    ///
    /// Panics if `jd >= 16`.
    fn candidates(&self, jd: usize) -> Vec<u8> {
        assert!(jd < 16);
        let lane = &self.votes[jd * 256..(jd + 1) * 256];
        let best = lane.iter().copied().max().unwrap_or(0);
        if best == 0 {
            return Vec::new();
        }
        (0..256)
            .filter(|&k| lane[k] == best)
            .map(|k| k as u8)
            .collect()
    }

    /// Last-round key byte `jd` if it is unambiguous: a unique argmax
    /// with at least 4 votes and a lead of at least 2 over the
    /// runner-up. `None` otherwise.
    fn recovered_byte(&self, jd: usize) -> Option<u8> {
        let (best, second) = self.margin(jd);
        if best < MIN_VOTES || best < second + MIN_MARGIN {
            return None;
        }
        let cands = self.candidates(jd);
        match cands.as_slice() {
            [unique] => Some(*unique),
            _ => None,
        }
    }

    /// The full last-round key, if all 16 bytes are unambiguous.
    fn recovered_round_key(&self) -> Option<[u8; 16]> {
        let mut k10 = [0u8; 16];
        for (jd, slot) in k10.iter_mut().enumerate() {
            *slot = self.recovered_byte(jd)?;
        }
        Some(k10)
    }

    /// The AES-128 master key, by running the key schedule backwards
    /// from a fully recovered last-round key.
    pub fn recovered_master_key(&self) -> Option<[u8; 16]> {
        self.recovered_round_key()
            .map(|k10| soft::invert_key_schedule(&k10))
    }

    /// Number of last-round bytes currently unambiguous.
    pub fn recovered_bytes(&self) -> usize {
        (0..16)
            .filter(|&jd| self.recovered_byte(jd).is_some())
            .count()
    }

    /// Folds another accumulator into this one, as if its pairs had
    /// been absorbed here. Votes and pair counts are integer sums, so
    /// merging shard partials in shard order reproduces the serial run
    /// bit for bit — the same determinism contract as
    /// [`crate::CpaAttack::try_merge`].
    ///
    /// # Errors
    ///
    /// [`CpaError::IncompatibleMerge`] when the fault models differ;
    /// this accumulator is unchanged.
    pub fn try_merge(&mut self, other: &DfaAttack) -> Result<(), CpaError> {
        if self.model != other.model {
            return Err(CpaError::IncompatibleMerge {
                detail: format!("dfa {:?} vs {:?}", self.model, other.model),
            });
        }
        for (a, b) in self.votes.iter_mut().zip(&other.votes) {
            *a += b;
        }
        self.pairs_accepted += other.pairs_accepted;
        self.pairs_unfaulted += other.pairs_unfaulted;
        self.pairs_discarded += other.pairs_discarded;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slm_pdn::noise::Rng64;

    const KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    fn random_pt(rng: &mut Rng64) -> [u8; 16] {
        let mut pt = [0u8; 16];
        rng.fill_bytes(&mut pt);
        pt
    }

    /// A synthetic campaign injecting known single-byte state-9 faults.
    fn single_byte_pairs(rng: &mut Rng64, n: usize, max_bits: u32) -> Vec<([u8; 16], [u8; 16])> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let pt = random_pt(rng);
            let correct = soft::encrypt(&KEY, &pt);
            let j = (rng.next_u64() % 16) as usize;
            let mut delta = 0u8;
            while delta == 0 || u32::from(delta).count_ones() > max_bits {
                delta = (rng.next_u64() & 0xff) as u8;
            }
            let mut mask = [0u8; 16];
            mask[j] = delta;
            let faulty = soft::encrypt_with_state_faults(&KEY, &pt, &[(9, mask)]);
            out.push((correct, faulty));
        }
        out
    }

    #[test]
    fn single_byte_model_recovers_exact_round_key() {
        let mut rng = Rng64::new(0x0df4_0001);
        let mut dfa = DfaAttack::new(DfaModel::SingleByte { max_fault_bits: 2 });
        for (c, f) in single_byte_pairs(&mut rng, 400, 2) {
            let outcome = dfa.add_pair(&c, &f);
            assert!(matches!(outcome, PairOutcome::Accepted(1)));
        }
        let k10 = soft::key_expansion(&KEY)[soft::ROUNDS];
        assert_eq!(dfa.recovered_round_key(), Some(k10));
        assert_eq!(dfa.recovered_master_key(), Some(KEY));
        assert_eq!(dfa.recovered_bytes(), 16);
    }

    #[test]
    fn recovery_survives_avalanche_contamination() {
        // 1 in 4 pairs is an early-round avalanche. Most are discarded
        // by the diff-count filter; the few that slip through add only
        // uniform noise votes, and argmax still converges.
        let mut rng = Rng64::new(0x0df4_0002);
        let mut dfa = DfaAttack::new(DfaModel::SingleByte { max_fault_bits: 2 });
        for (i, (c, f)) in single_byte_pairs(&mut rng, 480, 2).into_iter().enumerate() {
            if i % 4 == 0 {
                let pt = random_pt(&mut rng);
                let correct = soft::encrypt(&KEY, &pt);
                let mut mask = [0u8; 16];
                mask[3] = 0x40;
                let faulty = soft::encrypt_with_state_faults(&KEY, &pt, &[(5, mask)]);
                dfa.add_pair(&correct, &faulty);
            } else {
                dfa.add_pair(&c, &f);
            }
        }
        let (_, _, discarded) = dfa.pair_counts();
        assert!(discarded > 80, "avalanche filter idle: {discarded}");
        let k10 = soft::key_expansion(&KEY)[soft::ROUNDS];
        assert_eq!(dfa.recovered_round_key(), Some(k10));
    }

    #[test]
    fn diagonal_model_narrows_candidates_as_pairs_arrive() {
        // Pre-mix faults: flip one bit before round 9's MixColumns and
        // analyse under the diagonal model. Each pair leaves the true
        // key among the candidates; ambiguity shrinks monotonically in
        // expectation and ends well below the 3·|ε| starting set.
        let mut rng = Rng64::new(0x0df4_0003);
        let model = DfaModel::DiagonalRound9 { max_fault_bits: 1 };
        let mut dfa = DfaAttack::new(model);
        let k10 = soft::key_expansion(&KEY)[soft::ROUNDS];
        let target_byte = 0usize; // pre-mix faults on byte 0 reach column 0
        let watch = soft::shift_rows_dest(target_byte);
        let mut sizes = Vec::new();
        for round_trip in 0..10 {
            let pt = random_pt(&mut rng);
            let correct = soft::encrypt(&KEY, &pt);
            let eps = 1u8 << (round_trip % 8);
            let faulty = soft::encrypt_with_premix_fault(&KEY, &pt, 9, target_byte, eps);
            let outcome = dfa.add_pair(&correct, &faulty);
            // One pre-mix fault spreads over the whole column: 4 bytes.
            assert!(matches!(outcome, PairOutcome::Accepted(4)));
            let cands = dfa.candidates(watch);
            assert!(
                cands.contains(&k10[watch]),
                "true key fell out of the candidate set"
            );
            sizes.push(cands.len());
        }
        // First pair: every key whose implied δ9 is in the admissible
        // set survives — a sizeable fraction of 256. Ten pairs later
        // the ambiguity is tiny.
        assert!(sizes[0] > 8, "first pair over-narrowed: {sizes:?}");
        assert!(
            *sizes.last().unwrap() <= 4,
            "diagonal model failed to narrow: {sizes:?}"
        );
        assert!(sizes.last().unwrap() <= &sizes[0]);
        // The single-byte model would mis-rank these column faults:
        // its admissible set is a strict subset, so votes are sparser.
        let set_size = |m: DfaModel| m.feasible_table().iter().filter(|&&f| f).count();
        assert!(set_size(model) > set_size(DfaModel::SingleByte { max_fault_bits: 1 }));
    }

    #[test]
    fn unfaulted_and_avalanche_pairs_are_filtered() {
        let mut dfa = DfaAttack::new(DfaModel::SingleByte { max_fault_bits: 2 });
        let ct = [0x5a; 16];
        assert_eq!(dfa.add_pair(&ct, &ct), PairOutcome::Unfaulted);
        let mut all_diff = ct;
        for b in &mut all_diff {
            *b ^= 0xff;
        }
        assert_eq!(dfa.add_pair(&ct, &all_diff), PairOutcome::Discarded);
        assert_eq!(dfa.pair_counts(), (0, 1, 1));
        assert_eq!(dfa.recovered_bytes(), 0);
        assert!(dfa.candidates(0).is_empty());
    }

    #[test]
    fn merge_requires_matching_model_and_filter() {
        let mut a = DfaAttack::new(DfaModel::SingleByte { max_fault_bits: 2 });
        let b = DfaAttack::new(DfaModel::SingleByte { max_fault_bits: 3 });
        let c = DfaAttack::new(DfaModel::DiagonalRound9 { max_fault_bits: 2 });
        assert!(a.try_merge(&b).is_err());
        assert!(a.try_merge(&c).is_err());
        let e = DfaAttack::new(DfaModel::SingleByte { max_fault_bits: 2 });
        assert!(a.try_merge(&e).is_ok());
    }

    #[test]
    fn merged_shards_equal_serial_run() {
        let mut rng = Rng64::new(0x0df4_0004);
        let pairs = single_byte_pairs(&mut rng, 120, 2);
        let model = DfaModel::SingleByte { max_fault_bits: 2 };
        let mut serial = DfaAttack::new(model);
        for (c, f) in &pairs {
            serial.add_pair(c, f);
        }
        let mut merged = DfaAttack::new(model);
        for chunk in pairs.chunks(37) {
            let mut shard = DfaAttack::new(model);
            for (c, f) in chunk {
                shard.add_pair(c, f);
            }
            merged.try_merge(&shard).unwrap();
        }
        assert_eq!(serial, merged);
    }
}
