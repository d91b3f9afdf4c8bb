//! Correlation power analysis against the AES last round.

use crate::error::CpaError;
use serde::{Deserialize, Serialize};
use slm_aes::soft::INV_SBOX;

/// The paper's hypothesis: "textbook CPA using a single bit mask model
/// before the final SBox computation".
///
/// For a key-byte candidate `k`, the predicted leakage of a trace with
/// ciphertext `ct` is bit `bit` of `INV_SBOX[ct[ct_byte] ^ k]` — one bit
/// of the state entering the final SubBytes. A correct candidate
/// partitions traces into two populations whose mean power differs;
/// wrong candidates shuffle the partition and decorrelate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LastRoundModel {
    /// Which ciphertext byte (and thus which last-round-key byte) is
    /// attacked. The paper attacks the 4th byte (index 3).
    pub ct_byte: usize,
    /// Which bit of the pre-SubBytes value is predicted (paper: bit 0).
    pub bit: u8,
}

impl LastRoundModel {
    /// The paper's target: 1st bit of the 4th byte of the last round key.
    pub fn paper_target() -> Self {
        LastRoundModel { ct_byte: 3, bit: 0 }
    }

    /// Predicted leakage bit for candidate `k` on ciphertext `ct`.
    #[inline]
    pub fn hypothesis(&self, ct: &[u8; 16], k: u8) -> bool {
        (INV_SBOX[(ct[self.ct_byte] ^ k) as usize] >> self.bit) & 1 == 1
    }

    /// The value→hypothesis lookup table: entry `v` is the predicted
    /// bit for a trace whose attacked ciphertext byte XOR candidate is
    /// `v`. Candidate `k` maps bin `c` to `table[c ^ k]`, so one table
    /// serves all 256 candidates of a correlation evaluation.
    fn hypothesis_table(&self) -> [bool; 256] {
        let mut table = [false; 256];
        for (v, slot) in table.iter_mut().enumerate() {
            *slot = (INV_SBOX[v] >> self.bit) & 1 == 1;
        }
        table
    }
}

/// Streaming binned CPA.
///
/// Traces are binned by the attacked ciphertext-byte value (256 bins),
/// which makes adding a trace O(points) and evaluating all 256
/// candidates O(256 · 8 · points) — independent of the trace count, so
/// correlation-progress curves over 500 k traces are cheap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpaAttack {
    model: LastRoundModel,
    points: usize,
    /// Per ct-byte-value trace count (256 entries).
    bin_count: Vec<u64>,
    /// Per ct-byte-value, per point: sum of trace values.
    bin_sum: Vec<f64>, // 256 × points
    /// Per point: sum of squares over all traces.
    sum_sq: Vec<f64>,
    traces: u64,
}

impl CpaAttack {
    /// Creates an attack on `points` trace points per encryption.
    pub fn new(model: LastRoundModel, points: usize) -> Self {
        CpaAttack {
            model,
            points,
            bin_count: vec![0; 256],
            bin_sum: vec![0.0; 256 * points],
            sum_sq: vec![0.0; points],
            traces: 0,
        }
    }

    /// Number of traces absorbed so far.
    pub fn traces(&self) -> u64 {
        self.traces
    }

    /// Absorbs one trace.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len()` differs from the configured point count.
    #[inline]
    pub fn add_trace(&mut self, ct: &[u8; 16], samples: &[f64]) {
        self.try_add_trace(ct, samples)
            .expect("trace point count mismatch");
    }

    /// Absorbs one trace, or rejects a malformed one.
    ///
    /// # Errors
    ///
    /// [`CpaError::PointCountMismatch`] when `samples.len()` differs
    /// from the configured point count; the accumulator is unchanged.
    #[inline]
    fn try_add_trace(&mut self, ct: &[u8; 16], samples: &[f64]) -> Result<(), CpaError> {
        if samples.len() != self.points {
            return Err(CpaError::PointCountMismatch {
                expected: self.points,
                got: samples.len(),
            });
        }
        self.add_trace_unchecked(ct, samples);
        Ok(())
    }

    #[inline]
    fn add_trace_unchecked(&mut self, ct: &[u8; 16], samples: &[f64]) {
        let c = ct[self.model.ct_byte] as usize;
        self.bin_count[c] += 1;
        let row = &mut self.bin_sum[c * self.points..(c + 1) * self.points];
        for ((r, q), &x) in row.iter_mut().zip(&mut self.sum_sq).zip(samples) {
            *r += x;
            *q += x * x;
        }
        self.traces += 1;
    }

    /// Absorbs a staged batch of traces, bit-identically to absorbing
    /// them one at a time in batch order.
    ///
    /// The batched layout turns the per-trace scattered update into two
    /// dense passes: one trace-major sweep for the sums of squares, and
    /// one bin-grouped sweep for the per-bin point sums (a counting
    /// sort keyed on the attacked ciphertext byte). Each accumulator
    /// cell is only ever touched by one group, and within a group the
    /// traces keep their batch order — so every cell sees the exact
    /// f64 addition sequence of the sequential path, and the result is
    /// bitwise equal (pinned by the `batch_add_matches_sequential`
    /// property test). The dense inner loops run over contiguous
    /// structure-of-arrays rows, which is what lets them autovectorize.
    ///
    /// # Errors
    ///
    /// [`CpaError::PointCountMismatch`] when the batch's point count
    /// differs from the attack's; the accumulator is unchanged.
    pub fn add_batch(&mut self, batch: &TraceBatch) -> Result<(), CpaError> {
        if batch.points != self.points {
            return Err(CpaError::PointCountMismatch {
                expected: self.points,
                got: batch.points,
            });
        }
        let k = batch.len();
        // Pass 1: sums of squares, trace-major. Per point-cell the
        // addition order is batch order — same as sequential.
        for t in 0..k {
            let row = batch.samples_of(t);
            for (q, &x) in self.sum_sq.iter_mut().zip(row) {
                *q += x * x;
            }
        }
        // Pass 2: counting-sort trace indices by bin (stable: batch
        // order within a bin), then accumulate each bin's row densely.
        let mut count = [0u32; 256];
        for ct in &batch.cts {
            count[ct[self.model.ct_byte] as usize] += 1;
        }
        let mut start = [0u32; 256];
        let mut acc = 0u32;
        for (s, &c) in start.iter_mut().zip(&count) {
            *s = acc;
            acc += c;
        }
        let mut order = vec![0u32; k];
        let mut cursor = start;
        for (t, ct) in batch.cts.iter().enumerate() {
            let c = ct[self.model.ct_byte] as usize;
            order[cursor[c] as usize] = t as u32;
            cursor[c] += 1;
        }
        for c in 0..256usize {
            if count[c] == 0 {
                continue;
            }
            self.bin_count[c] += u64::from(count[c]);
            let row = &mut self.bin_sum[c * self.points..(c + 1) * self.points];
            let lo = start[c] as usize;
            let hi = lo + count[c] as usize;
            for &t in &order[lo..hi] {
                for (r, &x) in row.iter_mut().zip(batch.samples_of(t as usize)) {
                    *r += x;
                }
            }
        }
        self.traces += k as u64;
        Ok(())
    }

    /// Folds another accumulator into this one, as if its traces had
    /// been absorbed here.
    ///
    /// Every field of the binned representation — bin counts, per-bin
    /// point sums, sums of squares, trace count — is additive, so a
    /// campaign can capture shards on independent workers and merge
    /// the partials afterwards. Merging shard partials *in shard
    /// order* reproduces the sequential shard-by-shard run bit for
    /// bit, which is the parallel campaign determinism contract.
    ///
    /// # Errors
    ///
    /// [`CpaError::IncompatibleMerge`] when the hypothesis models or
    /// point counts differ; this accumulator is unchanged.
    pub fn try_merge(&mut self, other: &CpaAttack) -> Result<(), CpaError> {
        if self.model != other.model || self.points != other.points {
            return Err(CpaError::IncompatibleMerge {
                detail: format!(
                    "model {:?}/{} points vs {:?}/{} points",
                    self.model, self.points, other.model, other.points
                ),
            });
        }
        for (a, b) in self.bin_count.iter_mut().zip(&other.bin_count) {
            *a += b;
        }
        for (a, b) in self.bin_sum.iter_mut().zip(&other.bin_sum) {
            *a += b;
        }
        for (a, b) in self.sum_sq.iter_mut().zip(&other.sum_sq) {
            *a += b;
        }
        self.traces += other.traces;
        Ok(())
    }

    /// [`CpaAttack::try_merge`] for accumulators known to be
    /// compatible.
    ///
    /// # Panics
    ///
    /// Panics if the hypothesis models or point counts differ.
    pub fn merge(&mut self, other: &CpaAttack) {
        self.try_merge(other)
            .expect("merged accumulators must share model and geometry");
    }

    /// Per-point sum of trace values over all bins.
    fn total_sum(&self) -> Vec<f64> {
        let mut total = vec![0.0; self.points];
        for c in 0..256 {
            let row = &self.bin_sum[c * self.points..(c + 1) * self.points];
            for (acc, &x) in total.iter_mut().zip(row) {
                *acc += x;
            }
        }
        total
    }

    /// Pearson correlation of every key candidate at every point:
    /// `result[k][p]`.
    pub fn correlations(&self) -> Vec<Vec<f64>> {
        let points = self.points;
        let r = self.correlation_matrix();
        (0..256)
            .map(|k| r[k * points..(k + 1) * points].to_vec())
            .collect()
    }

    /// Max |r| over points for every candidate.
    pub fn peak_correlations(&self) -> [f64; 256] {
        let points = self.points;
        let r = self.correlation_matrix();
        let mut out = [0.0f64; 256];
        for (k, peak) in out.iter_mut().enumerate() {
            *peak = r[k * points..(k + 1) * points]
                .iter()
                .fold(0.0f64, |m, r| m.max(r.abs()));
        }
        out
    }

    /// Every candidate's correlations, flat: `r[k · points + p]`.
    ///
    /// Candidate `k` sends bin `c` to hypothesis `hyp[c ^ k]`, so its
    /// "hypothesis 1" trace count `n1[k]` and point sums `s1[k][p]`
    /// sum every non-empty bin `c` with `hyp[c ^ k]` set — an XOR
    /// convolution of the bins with the hypothesis table, which
    /// [`CpaAttack::candidate_sums`] evaluates. The per-point
    /// trace-variance factor `√(n·Σx² − (Σx)²)` does not depend on the
    /// candidate and is computed once.
    fn correlation_matrix(&self) -> Vec<f64> {
        let points = self.points;
        let n = self.traces as f64;
        let total_sum = self.total_sum();
        let denom_x: Vec<f64> = (0..points)
            .map(|p| (n * self.sum_sq[p] - total_sum[p] * total_sum[p]).sqrt())
            .collect();
        let (n1, mut r) = self.candidate_sums();
        for (k, row) in r.chunks_mut(points.max(1)).enumerate() {
            let n1f = n1[k] as f64;
            let denom_h = (n1f * (n - n1f)).sqrt();
            for ((s1, &denom_x), &total) in row.iter_mut().zip(&denom_x).zip(&total_sum) {
                let denom = denom_h * denom_x;
                *s1 = if denom > 0.0 {
                    (n * *s1 - n1f * total) / denom
                } else {
                    0.0
                };
            }
        }
        r
    }

    /// Every candidate's hypothesis-1 trace count `n1[k]` and point
    /// sums `s1[k · points + p]`, each equal bit for bit to a walk over
    /// the non-empty bins in ascending order that adds the rows with
    /// `hyp[c ^ k]` set.
    ///
    /// Both are XOR convolutions, so two Walsh–Hadamard transforms
    /// evaluate them: `W(W(b) ⊙ W(hyp)) / 256` is the convolution of
    /// `b` with `hyp`, at O(256 · 8) work per column instead of the
    /// walk's O(256 · 128). The counts are integers, transformed in
    /// `i128` with no overflow. The sums take the transform only when
    /// every non-empty bin's sum is an integer and, for every point,
    /// `S_p = Σ_c |bin_sum[c][p]| ≤ 2^38` ([`EXACT_SUM_LIMIT`]): the
    /// forward pass is then bounded by `S_p`, the product by `128 · S_p`
    /// (`|W(hyp)| ≤ 128`, as the table holds 128 ones) and the inverse
    /// pass by `2^15 · S_p ≤ 2^53`, so every value is an exactly
    /// represented integer. So is every partial sum of the walk, which
    /// is therefore exact too. The walk's zeros are `+0.0`; adding
    /// `+0.0` keeps a `-0.0` product from ever reaching the result (for
    /// the eight single-bit tables none does, but the guard costs one
    /// addition). Any other accumulator takes the transposed walk of
    /// [`CpaAttack::fold_sums`].
    fn candidate_sums(&self) -> ([u64; 256], Vec<f64>) {
        let hyp = self.model.hypothesis_table();
        let mut spectrum = hyp.map(i128::from);
        walsh_hadamard(&mut spectrum, 1);
        let mut n1 = self
            .bin_count
            .iter()
            .map(|&c| i128::from(c))
            .collect::<Vec<_>>();
        walsh_hadamard(&mut n1, 1);
        for (x, &h) in n1.iter_mut().zip(&spectrum) {
            *x *= h;
        }
        walsh_hadamard(&mut n1, 1);
        let n1 = std::array::from_fn(|k| (n1[k] / 256) as u64);
        let s1 = match self.integer_bin_sums() {
            Some(mut b) => {
                let points = self.points;
                walsh_hadamard(&mut b, points);
                for (row, &h) in b.chunks_exact_mut(points).zip(&spectrum) {
                    let h = h as f64;
                    for x in row {
                        *x *= h;
                    }
                }
                walsh_hadamard(&mut b, points);
                for x in &mut b {
                    *x = *x / 256.0 + 0.0;
                }
                b
            }
            None => self.fold_sums(&hyp),
        };
        (n1, s1)
    }

    /// The bin sums with empty bins zeroed, when every non-empty bin's
    /// sum is an integer and every point's total of |bin sums| is at
    /// most [`EXACT_SUM_LIMIT`]; `None` otherwise (and for no points).
    fn integer_bin_sums(&self) -> Option<Vec<f64>> {
        let points = self.points;
        if points == 0 {
            return None;
        }
        let mut b = self.bin_sum.clone();
        let mut magnitude = vec![0.0f64; points];
        for (row, &count) in b.chunks_exact_mut(points).zip(&self.bin_count) {
            if count == 0 {
                row.fill(0.0);
                continue;
            }
            for (m, &x) in magnitude.iter_mut().zip(row.iter()) {
                if x.fract() != 0.0 {
                    return None;
                }
                *m += x.abs();
            }
        }
        magnitude.iter().all(|&m| m <= EXACT_SUM_LIMIT).then_some(b)
    }

    /// The transposed walk behind [`CpaAttack::candidate_sums`] for
    /// sums it cannot transform exactly: each non-empty bin, in
    /// ascending order, adds its row into the sums of the 128
    /// candidates `c ^ d` with `hyp[d]` set. Every candidate's sums
    /// thus see exactly the additions, in exactly the order, of a
    /// per-candidate walk over ascending bins.
    fn fold_sums(&self, hyp: &[bool; 256]) -> Vec<f64> {
        let points = self.points;
        let ones: Vec<usize> = (0..256).filter(|&d| hyp[d]).collect();
        let mut s1 = vec![0.0; 256 * points];
        for c in 0..256usize {
            if self.bin_count[c] == 0 {
                continue;
            }
            let row = &self.bin_sum[c * points..(c + 1) * points];
            for &d in &ones {
                let k = c ^ d;
                for (acc, &x) in s1[k * points..(k + 1) * points].iter_mut().zip(row) {
                    *acc += x;
                }
            }
        }
        s1
    }

    /// The candidate with the highest peak |r| on an evaluated peak-|r|
    /// surface ([`CpaAttack::peak_correlations`]), and that correlation:
    /// the first candidate holding the maximum.
    pub fn best_of(peaks: &[f64]) -> (u8, f64) {
        let mut best = 0usize;
        for k in 1..peaks.len() {
            if peaks[k] > peaks[best] {
                best = k;
            }
        }
        (best as u8, peaks[best])
    }

    /// Ranking position of `key` on an evaluated peak-|r| surface (0 =
    /// leading candidate): how many candidates lead `key` strictly.
    pub fn rank_in(peaks: &[f64], key: u8) -> usize {
        let target = peaks[key as usize];
        peaks.iter().filter(|&&p| p > target).count()
    }

    /// Snapshots the full accumulator state.
    ///
    /// The checkpoint is everything: resuming from it and absorbing the
    /// remaining traces yields bit-identical correlations to an
    /// uninterrupted run, which is what lets a multi-hour campaign
    /// survive a host crash. Serialize with
    /// [`crate::store::write_checkpoint`].
    pub fn checkpoint(&self) -> CpaCheckpoint {
        CpaCheckpoint {
            model: self.model,
            points: self.points,
            bin_count: self.bin_count.clone(),
            bin_sum: self.bin_sum.clone(),
            sum_sq: self.sum_sq.clone(),
            traces: self.traces,
        }
    }

    /// Rebuilds an attack from a checkpoint.
    ///
    /// # Errors
    ///
    /// `InvalidData` if the checkpoint's internal geometry is
    /// inconsistent (vector lengths must match `points`).
    pub fn resume(cp: CpaCheckpoint) -> std::io::Result<Self> {
        let bad = |detail: String| std::io::Error::new(std::io::ErrorKind::InvalidData, detail);
        if cp.model.ct_byte >= 16 || cp.model.bit >= 8 {
            return Err(bad(format!(
                "invalid model: ct_byte {} bit {}",
                cp.model.ct_byte, cp.model.bit
            )));
        }
        if cp.bin_count.len() != 256 {
            return Err(bad(format!("{} bins, expected 256", cp.bin_count.len())));
        }
        if cp.bin_sum.len() != 256 * cp.points || cp.sum_sq.len() != cp.points {
            return Err(bad(format!(
                "accumulator geometry {}/{} inconsistent with {} points",
                cp.bin_sum.len(),
                cp.sum_sq.len(),
                cp.points
            )));
        }
        if cp.bin_count.iter().sum::<u64>() != cp.traces {
            return Err(bad(format!(
                "bin counts sum to {}, trace count says {}",
                cp.bin_count.iter().sum::<u64>(),
                cp.traces
            )));
        }
        Ok(CpaAttack {
            model: cp.model,
            points: cp.points,
            bin_count: cp.bin_count,
            bin_sum: cp.bin_sum,
            sum_sq: cp.sum_sq,
            traces: cp.traces,
        })
    }
}

/// The largest per-point total of |bin sums| that
/// [`CpaAttack::candidate_sums`] transforms exactly: its inverse pass
/// then stays within `2^15 · 2^38 = 2^53`.
const EXACT_SUM_LIMIT: f64 = (1u64 << 38) as f64;

/// In-place unnormalised Walsh–Hadamard transform over the 256 rows
/// (`width` values each, row-major) of `data`: row `j` becomes
/// `Σ_i (−1)^popcount(i & j) · row i`. Applying it twice multiplies by
/// 256.
fn walsh_hadamard<T>(data: &mut [T], width: usize)
where
    T: Copy + std::ops::Add<Output = T> + std::ops::Sub<Output = T>,
{
    let mut half = width;
    while half < 256 * width {
        for block in data.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                let (x, y) = (*a, *b);
                *a = x + y;
                *b = x - y;
            }
        }
        half *= 2;
    }
}

/// A structure-of-arrays staging buffer of captured traces awaiting
/// batched absorption into one or more [`CpaAttack`] accumulators.
///
/// Sample values are stored flat (`len × points`, row-major), so a
/// batch absorb streams contiguous memory instead of chasing one
/// heap-allocated sample vector per trace. One staged batch can feed
/// all 16 byte-attacks of a `MultiByteCpa` — each derives its own bin
/// grouping from the stored ciphertexts.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBatch {
    points: usize,
    cts: Vec<[u8; 16]>,
    samples: Vec<f64>,
}

impl TraceBatch {
    /// An empty batch with room for `traces` traces.
    pub fn with_capacity(points: usize, traces: usize) -> Self {
        TraceBatch {
            points,
            cts: Vec::with_capacity(traces),
            samples: Vec::with_capacity(traces * points),
        }
    }

    /// Stages one trace.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len()` differs from the batch's point count.
    pub fn push(&mut self, ct: [u8; 16], samples: &[f64]) {
        assert_eq!(samples.len(), self.points, "trace point count mismatch");
        self.cts.push(ct);
        self.samples.extend_from_slice(samples);
    }

    /// Number of staged traces.
    pub fn len(&self) -> usize {
        self.cts.len()
    }

    /// Whether the batch holds no traces.
    pub fn is_empty(&self) -> bool {
        self.cts.is_empty()
    }

    /// Sample row of staged trace `t`.
    fn samples_of(&self, t: usize) -> &[f64] {
        &self.samples[t * self.points..(t + 1) * self.points]
    }

    /// Empties the batch, keeping its allocations for reuse.
    pub fn clear(&mut self) {
        self.cts.clear();
        self.samples.clear();
    }
}

/// A complete snapshot of a [`CpaAttack`] accumulator, detached from
/// the attack so it can cross a serialization boundary
/// ([`crate::store::write_checkpoint`] / [`crate::store::read_checkpoint`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpaCheckpoint {
    /// The hypothesis model under attack.
    pub model: LastRoundModel,
    /// Points per trace.
    pub points: usize,
    /// Per ct-byte-value trace count (256 entries).
    pub bin_count: Vec<u64>,
    /// Per ct-byte-value, per point: sum of trace values (256 × points).
    pub bin_sum: Vec<f64>,
    /// Per point: sum of squares over all traces.
    pub sum_sq: Vec<f64>,
    /// Traces absorbed.
    pub traces: u64,
}

/// Separation between the leading and runner-up values of a peak-|r|
/// surface — the attacker-visible measure of how decisively an attack
/// has converged (and the per-checkpoint margin the observability
/// layer tracks over a campaign).
pub fn leader_margin(peaks: &[f64]) -> f64 {
    let mut best = 0.0f64;
    let mut second = 0.0f64;
    for &p in peaks {
        if p > best {
            second = best;
            best = p;
        } else if p > second {
            second = p;
        }
    }
    best - second
}

#[cfg(test)]
mod tests {
    use super::*;
    use slm_aes::soft;
    use slm_pdn::noise::Rng64;

    fn run_attack(noise_sigma: f64, traces: usize, seed: u64) -> (CpaAttack, u8) {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let k10 = soft::key_expansion(&key)[10];
        let model = LastRoundModel::paper_target();
        let mut attack = CpaAttack::new(model, 2);
        let mut rng = Rng64::new(seed);
        for _ in 0..traces {
            let mut pt = [0u8; 16];
            rng.fill_bytes(&mut pt);
            let ct = soft::encrypt(&key, &pt);
            let h = f64::from(u8::from(model.hypothesis(&ct, k10[model.ct_byte])));
            // point 0: pure noise; point 1: leaky
            attack.add_trace(
                &ct,
                &[rng.normal_scaled(1.0), h + rng.normal_scaled(noise_sigma)],
            );
        }
        (attack, k10[3])
    }

    #[test]
    fn leader_margin_separates_best_from_runner_up() {
        assert_eq!(leader_margin(&[]), 0.0);
        assert_eq!(leader_margin(&[0.5]), 0.5);
        let margin = leader_margin(&[0.1, 0.8, 0.3, 0.6]);
        assert!((margin - 0.2).abs() < 1e-12);
    }

    #[test]
    fn recovers_key_with_moderate_noise() {
        let (attack, k) = run_attack(1.5, 3000, 11);
        let (best, peak) = CpaAttack::best_of(&attack.peak_correlations());
        assert_eq!(best, k);
        assert!(peak > 0.1, "peak = {peak}");
        assert_eq!(CpaAttack::rank_in(&attack.peak_correlations(), k), 0);
    }

    #[test]
    fn fails_with_too_few_traces_in_heavy_noise() {
        let (attack, k) = run_attack(60.0, 200, 12);
        // With SNR ~1/60 and 200 traces the correct key should not be
        // reliably distinguished.
        assert!(
            CpaAttack::rank_in(&attack.peak_correlations(), k) > 0,
            "attack should not have converged"
        );
    }

    #[test]
    fn correlation_lands_on_leaky_point() {
        let (attack, k) = run_attack(0.5, 5000, 13);
        let corr = &attack.correlations()[k as usize];
        assert!(
            corr[1].abs() > corr[0].abs() + 0.1,
            "point 1 carries the leak: {corr:?}"
        );
    }

    #[test]
    fn correlation_magnitude_matches_theory() {
        // leak = h + noise(σ): point-biserial r = 0.5/sqrt(0.25 + σ²)
        let sigma = 1.0f64;
        let (attack, k) = run_attack(sigma, 40_000, 14);
        let expect = 0.5 / (0.25 + sigma * sigma).sqrt();
        let got = attack.correlations()[k as usize][1];
        assert!(
            (got - expect).abs() < 0.03,
            "r = {got}, expected ≈ {expect}"
        );
    }

    #[test]
    fn empty_attack_is_neutral() {
        let attack = CpaAttack::new(LastRoundModel::paper_target(), 3);
        assert_eq!(attack.traces(), 0);
        let peaks = attack.peak_correlations();
        assert!(peaks.iter().all(|&p| p == 0.0));
    }

    #[test]
    #[should_panic(expected = "point count mismatch")]
    fn wrong_point_count_panics() {
        let mut attack = CpaAttack::new(LastRoundModel::paper_target(), 2);
        attack.add_trace(&[0; 16], &[1.0]);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        // Interrupting a campaign mid-stream and resuming from the
        // checkpoint must reproduce the uninterrupted accumulator
        // exactly — same correlations, same ranking, bit for bit.
        let key = [0x51u8; 16];
        let model = LastRoundModel::paper_target();
        let mut rng = Rng64::new(77);
        let records: Vec<([u8; 16], [f64; 2])> = (0..1200)
            .map(|_| {
                let mut pt = [0u8; 16];
                rng.fill_bytes(&mut pt);
                let ct = soft::encrypt(&key, &pt);
                let x = [rng.normal(), rng.normal()];
                (ct, x)
            })
            .collect();

        let mut unbroken = CpaAttack::new(model, 2);
        for (ct, x) in &records {
            unbroken.add_trace(ct, x);
        }

        let mut first_half = CpaAttack::new(model, 2);
        for (ct, x) in &records[..600] {
            first_half.add_trace(ct, x);
        }
        let cp = first_half.checkpoint();
        drop(first_half); // the "crash"
        let mut resumed = CpaAttack::resume(cp).unwrap();
        for (ct, x) in &records[600..] {
            resumed.add_trace(ct, x);
        }

        assert_eq!(resumed, unbroken);
        assert_eq!(resumed.correlations(), unbroken.correlations());
    }

    #[test]
    fn resume_rejects_inconsistent_checkpoints() {
        let attack = CpaAttack::new(LastRoundModel::paper_target(), 2);
        let good = attack.checkpoint();
        assert!(CpaAttack::resume(good.clone()).is_ok());

        let mut bad = good.clone();
        bad.bin_sum.pop();
        assert!(CpaAttack::resume(bad).is_err());

        let mut bad = good.clone();
        bad.traces = 5; // bins say 0
        assert!(CpaAttack::resume(bad).is_err());

        let mut bad = good.clone();
        bad.bin_count.truncate(8);
        assert!(CpaAttack::resume(bad).is_err());

        let mut bad = good;
        bad.model.ct_byte = 99;
        assert!(CpaAttack::resume(bad).is_err());
    }

    #[test]
    fn try_add_trace_rejects_and_leaves_state_untouched() {
        let mut attack = CpaAttack::new(LastRoundModel::paper_target(), 2);
        attack.add_trace(&[1; 16], &[0.5, 0.25]);
        let before = attack.clone();
        let err = attack.try_add_trace(&[1; 16], &[1.0]).unwrap_err();
        assert_eq!(
            err,
            crate::CpaError::PointCountMismatch {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(attack, before, "rejected trace must not perturb state");
        attack.try_add_trace(&[1; 16], &[0.5, 0.25]).unwrap();
        assert_eq!(attack.traces(), 2);
    }

    #[test]
    fn merge_equals_sequential_absorption() {
        // Dyadic sample values keep every f64 sum exact, so the merged
        // partials must equal the single-accumulator run bit for bit.
        let model = LastRoundModel::paper_target();
        let key = [0x3fu8; 16];
        let mut rng = Rng64::new(21);
        let records: Vec<([u8; 16], [f64; 2])> = (0..900)
            .map(|_| {
                let mut pt = [0u8; 16];
                rng.fill_bytes(&mut pt);
                let ct = soft::encrypt(&key, &pt);
                let x = [
                    (rng.next_u64() % 64) as f64 / 8.0,
                    (rng.next_u64() % 64) as f64 / 8.0,
                ];
                (ct, x)
            })
            .collect();
        let mut whole = CpaAttack::new(model, 2);
        for (ct, x) in &records {
            whole.add_trace(ct, x);
        }
        let mut merged = CpaAttack::new(model, 2);
        for chunk in records.chunks(250) {
            let mut part = CpaAttack::new(model, 2);
            for (ct, x) in chunk {
                part.add_trace(ct, x);
            }
            merged.merge(&part);
        }
        assert_eq!(merged, whole);
        assert_eq!(merged.correlations(), whole.correlations());
    }

    #[test]
    fn batch_add_matches_sequential_bitwise() {
        // Order preservation makes the batched path exact for ANY f64
        // samples, not just dyadic ones: use full-precision noise.
        let key = [0x5au8; 16];
        let model = LastRoundModel::paper_target();
        let mut rng = Rng64::new(31);
        let mut serial = CpaAttack::new(model, 3);
        let mut batched = CpaAttack::new(model, 3);
        let mut batch = TraceBatch::with_capacity(3, 64);
        for round in 0..5 {
            batch.clear();
            for _ in 0..(13 + round * 7) {
                let mut pt = [0u8; 16];
                rng.fill_bytes(&mut pt);
                let ct = soft::encrypt(&key, &pt);
                let x = [rng.normal(), rng.normal(), rng.normal()];
                serial.add_trace(&ct, &x);
                batch.push(ct, &x);
            }
            batched.add_batch(&batch).unwrap();
            assert_eq!(batched, serial, "diverged after round {round}");
        }
        assert_eq!(batched.correlations(), serial.correlations());
    }

    #[test]
    fn batch_rejects_wrong_point_count_and_empty_is_noop() {
        let mut attack = CpaAttack::new(LastRoundModel::paper_target(), 2);
        let bad = TraceBatch::with_capacity(3, 0);
        assert!(matches!(
            attack.add_batch(&bad),
            Err(crate::CpaError::PointCountMismatch {
                expected: 2,
                got: 3
            })
        ));
        let before = attack.clone();
        attack.add_batch(&TraceBatch::with_capacity(2, 0)).unwrap();
        assert_eq!(attack, before);
        let mut batch = TraceBatch::with_capacity(2, 0);
        batch.push([7; 16], &[1.0, 2.0]);
        attack.add_batch(&batch).unwrap();
        assert_eq!(attack.traces(), 1);
        assert_eq!(batch.samples_of(0), &[1.0, 2.0]);
        assert!(!batch.is_empty());
        batch.clear();
        assert!(batch.is_empty());
    }

    #[test]
    fn merge_rejects_incompatible_accumulators() {
        let mut a = CpaAttack::new(LastRoundModel::paper_target(), 2);
        let b = CpaAttack::new(LastRoundModel::paper_target(), 3);
        assert!(a.try_merge(&b).is_err());
        let c = CpaAttack::new(LastRoundModel { ct_byte: 5, bit: 1 }, 2);
        assert!(a.try_merge(&c).is_err());
        let d = CpaAttack::new(LastRoundModel::paper_target(), 2);
        assert!(a.try_merge(&d).is_ok());
    }

    /// An accumulator of `traces` random-ciphertext traces whose
    /// `points` samples are integers drawn by `sample(rng, point)`.
    fn integer_accumulator(
        seed: u64,
        traces: usize,
        points: usize,
        sample: impl Fn(&mut Rng64, usize) -> f64,
    ) -> CpaAttack {
        let model = LastRoundModel::paper_target();
        let mut attack = CpaAttack::new(model, points);
        let mut rng = Rng64::new(seed);
        let mut x = vec![0.0; points];
        for _ in 0..traces {
            let mut ct = [0u8; 16];
            rng.fill_bytes(&mut ct);
            let leak = f64::from(u8::from(model.hypothesis(&ct, 0x3c)));
            for (p, slot) in x.iter_mut().enumerate() {
                *slot = sample(&mut rng, p) + if p == 1 { leak } else { 0.0 };
            }
            attack.add_trace(&ct, &x);
        }
        attack
    }

    /// FNV-1a over the bits of every correlation, row by row.
    fn correlation_digest(attack: &CpaAttack) -> u64 {
        attack
            .correlations()
            .iter()
            .flatten()
            .fold(slm_par::codec::FNV_OFFSET, |h, r| {
                slm_par::codec::fnv1a(h, &r.to_bits().to_le_bytes())
            })
    }

    #[test]
    fn integer_correlation_bits_are_pinned() {
        // TDC-depth-like points (7 of them, as a windowed TDC trace
        // has), at a short campaign's and a long campaign's trace count.
        let depth = |rng: &mut Rng64, _: usize| rng.below(64) as f64;
        let short = integer_accumulator(41, 200, 7, depth);
        let long = integer_accumulator(42, 100_000, 7, depth);
        // Hamming weights of 32-bit words over 64 points.
        let weights = integer_accumulator(43, 3_000, 64, |rng, _| {
            f64::from((rng.next_u64() as u32).count_ones())
        });
        // Integers so large that a point's |bin sum| total passes 2^38.
        let huge = integer_accumulator(44, 200, 7, |rng, _| {
            (rng.below(1 << 20) as f64 - f64::from(1u32 << 19)) * f64::from(1u32 << 20)
        });
        let digests = [&short, &long, &weights, &huge].map(correlation_digest);
        assert_eq!(
            digests,
            [
                0x9491_fadc_42fb_1e42,
                0x70ed_2bab_0b15_2d4d,
                0x5ea4_c389_8409_7bb1,
                0xfafa_ed27_09b7_c8db
            ],
            "digests {:#018x?}",
            digests
        );
        assert_eq!(
            CpaAttack::rank_in(&long.peak_correlations(), 0x3c),
            0,
            "the leak is recoverable"
        );
        let huge_total = (0..256).map(|c| huge.bin_sum[c * 7].abs()).sum::<f64>();
        assert!(huge_total > 2f64.powi(38), "past the exact-transform limit");
    }

    /// An accumulator whose bin `c` holds the one-point sum `sum(c)`
    /// from a single trace (no trace for a zero sum).
    fn one_point_bins(sum: impl Fn(usize) -> f64) -> CpaAttack {
        let mut attack = CpaAttack::new(LastRoundModel::paper_target(), 1);
        for c in 0..256 {
            let x = sum(c);
            if x != 0.0 {
                let mut ct = [0u8; 16];
                ct[3] = c as u8;
                attack.add_trace(&ct, &[x]);
            }
        }
        attack
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn transform_is_exact_up_to_the_limit() {
        let limit = EXACT_SUM_LIMIT;
        let mut rng = Rng64::new(5);
        let mut magnitudes: Vec<f64> = (0..255).map(|_| rng.below(1 << 30) as f64).collect();
        magnitudes.push(limit - magnitudes.iter().sum::<f64>());
        let signs: Vec<f64> = (0..256)
            .map(|_| if rng.chance(0.5) { 1.0 } else { -1.0 })
            .collect();
        let at_limit = [
            // One bin holds the whole total.
            one_point_bins(|c| if c == 7 { limit } else { 0.0 }),
            // Equal bins: the forward transform's DC term reaches 2^38.
            one_point_bins(|_| limit / 256.0),
            // A Walsh pattern: some other coefficient reaches it.
            one_point_bins(|c| {
                limit / 256.0
                    * if (c & 0x5a).count_ones() % 2 == 0 {
                        1.0
                    } else {
                        -1.0
                    }
            }),
            one_point_bins(|c| signs[c] * magnitudes[c]),
        ];
        let hyp = LastRoundModel::paper_target().hypothesis_table();
        for (i, attack) in at_limit.iter().enumerate() {
            assert!(attack.integer_bin_sums().is_some(), "case {i} transforms");
            let (_, s1) = attack.candidate_sums();
            assert_eq!(bits(&s1), bits(&attack.fold_sums(&hyp)), "case {i}");
        }
        // Sums that cancel to zero in every bin: the walk's zeros are
        // `+0.0`, and so must the transform's be, down to the
        // correlations.
        let mut cancelling = CpaAttack::new(LastRoundModel::paper_target(), 1);
        for c in 0..=255u8 {
            let mut ct = [0u8; 16];
            ct[3] = c;
            cancelling.add_trace(&ct, &[3.0]);
            cancelling.add_trace(&ct, &[-3.0]);
        }
        let (_, s1) = cancelling.candidate_sums();
        assert_eq!(bits(&s1), bits(&cancelling.fold_sums(&hyp)));
        assert!(cancelling
            .correlations()
            .iter()
            .flatten()
            .all(|r| r.to_bits() == 0));
        // One past the limit, or one fraction, falls back to the walk.
        assert!(one_point_bins(|c| if c == 7 { limit + 1.0 } else { 0.0 })
            .integer_bin_sums()
            .is_none());
        assert!(one_point_bins(|c| if c == 9 { 0.5 } else { 1.0 })
            .integer_bin_sums()
            .is_none());
        // An empty bin's sum takes no part, as in the walk, even when a
        // checkpoint carries one.
        let mut cp = one_point_bins(|c| (c % 5) as f64 - 2.0).checkpoint();
        cp.bin_sum[2] = 3.0;
        let resumed = CpaAttack::resume(cp).unwrap();
        assert_eq!(resumed.bin_count[2], 0);
        let (_, s1) = resumed.candidate_sums();
        assert_eq!(bits(&s1), bits(&resumed.fold_sums(&hyp)));
    }

    #[test]
    fn hypothesis_table_matches_hypothesis() {
        let model = LastRoundModel { ct_byte: 2, bit: 5 };
        let table = model.hypothesis_table();
        for c in 0..=255u8 {
            for k in [0u8, 1, 77, 255] {
                let mut ct = [0u8; 16];
                ct[2] = c;
                assert_eq!(table[(c ^ k) as usize], model.hypothesis(&ct, k));
            }
        }
    }

    #[test]
    fn hypothesis_inverts_last_round() {
        // hypothesis(ct, k10[b]) equals the pre-SubBytes state bit.
        let key = [9u8; 16];
        let k10 = soft::key_expansion(&key)[10];
        let model = LastRoundModel { ct_byte: 5, bit: 2 };
        let mut rng = Rng64::new(3);
        for _ in 0..32 {
            let mut pt = [0u8; 16];
            rng.fill_bytes(&mut pt);
            let states = soft::encrypt_round_states(&key, &pt);
            let ct = states[10];
            // find the pre-SubBytes byte that lands at ct position 5
            let j = (0..16)
                .find(|&j| soft::shift_rows_dest(j) == model.ct_byte)
                .unwrap();
            let state_bit = (states[9][j] >> model.bit) & 1 == 1;
            assert_eq!(model.hypothesis(&ct, k10[model.ct_byte]), state_bit);
        }
    }
}
