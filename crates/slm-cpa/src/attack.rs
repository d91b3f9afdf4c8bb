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

/// The most traces one [`CpaAttack`] holds.
///
/// Every sample is a count below `2^16`, so under this cap no integer
/// the accumulator keeps or its evaluation computes can overflow:
///
/// - a point's sum of squares stays below `2^16 · 2^16 · 2^32 = 2^64`;
/// - a point's sum over all bins, `S_p`, stays below
///   `2^16 · 2^32 = 2^48`;
/// - the inverse Walsh–Hadamard pass of the evaluation stays below
///   `2^15 · S_p < 2^63` in `i64` ([`CpaAttack::candidate_sums`]).
const MAX_TRACES: u64 = u32::MAX as u64;

/// Panics unless every sample is a sensor count: a whole number in
/// `0..=u16::MAX`, which converts to an integer exactly.
fn assert_counts(samples: &[f64]) {
    for &x in samples {
        // The cast saturates and maps NaN to 0: only a count survives.
        assert!(
            f64::from(x as u16) == x,
            "trace sample {x} is not a count in 0..={}",
            u16::MAX
        );
    }
}

/// Streaming binned CPA on sensor counts.
///
/// Traces are binned by the attacked ciphertext-byte value (256 bins),
/// which makes adding a trace O(points) and evaluating all 256
/// candidates O(256 · 8 · points) — independent of the trace count, so
/// correlation-progress curves over 500 k traces are cheap. Every
/// sample is a count (a TDC depth, a tap or endpoint bit, a Hamming
/// weight), so every sum is an exact integer, whatever the order of
/// batches and merges, up to the cap of `u32::MAX` traces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpaAttack {
    model: LastRoundModel,
    points: usize,
    /// Per ct-byte-value trace count (256 entries).
    bin_count: Vec<u64>,
    /// Per ct-byte-value, per point: sum of trace counts.
    bin_sum: Vec<u64>, // 256 × points
    /// Per point: sum of squared counts over all traces.
    sum_sq: Vec<u64>,
    traces: u64,
}

impl CpaAttack {
    /// Creates an attack on `points` trace points per encryption.
    pub fn new(model: LastRoundModel, points: usize) -> Self {
        CpaAttack {
            model,
            points,
            bin_count: vec![0; 256],
            bin_sum: vec![0; 256 * points],
            sum_sq: vec![0; points],
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
    /// Panics if `samples.len()` differs from the configured point
    /// count, if a sample is not a count (a whole number in
    /// `0..=u16::MAX`), or if the attack already holds `u32::MAX`
    /// traces.
    #[inline]
    pub fn add_trace(&mut self, ct: &[u8; 16], samples: &[f64]) {
        if let Err(e) = self.try_add_trace(ct, samples) {
            panic!("{e}");
        }
    }

    /// Absorbs one trace, or rejects a malformed one.
    ///
    /// # Errors
    ///
    /// [`CpaError::PointCountMismatch`] when `samples.len()` differs
    /// from the configured point count, [`CpaError::TraceCapExceeded`]
    /// when the attack is full; the accumulator is unchanged (also when
    /// it panics on a sample that is not a count).
    #[inline]
    fn try_add_trace(&mut self, ct: &[u8; 16], samples: &[f64]) -> Result<(), CpaError> {
        self.check_fits(samples.len(), 1)?;
        assert_counts(samples);
        self.absorb(ct, samples.iter().map(|&x| u64::from(x as u16)));
        Ok(())
    }

    /// Adds one checked trace: its counts `row` to its bin's sums and
    /// to the sums of squares.
    fn absorb(&mut self, ct: &[u8; 16], row: impl Iterator<Item = u64>) {
        let c = ct[self.model.ct_byte] as usize;
        self.bin_count[c] += 1;
        let sums = &mut self.bin_sum[c * self.points..(c + 1) * self.points];
        for ((s, q), x) in sums.iter_mut().zip(&mut self.sum_sq).zip(row) {
            *s += x;
            *q += x * x;
        }
        self.traces += 1;
    }

    /// Refuses `adding` traces of `points` points unless they match the
    /// attack and fit under the trace cap.
    fn check_fits(&self, points: usize, adding: u64) -> Result<(), CpaError> {
        if points != self.points {
            return Err(CpaError::PointCountMismatch {
                expected: self.points,
                got: points,
            });
        }
        if self.traces.saturating_add(adding) > MAX_TRACES {
            return Err(CpaError::TraceCapExceeded {
                traces: self.traces,
                adding,
            });
        }
        Ok(())
    }

    /// Absorbs a staged batch of traces; the result equals absorbing
    /// them one at a time, since every sum is an exact integer.
    ///
    /// # Errors
    ///
    /// [`CpaError::PointCountMismatch`] when the batch's point count
    /// differs from the attack's, [`CpaError::TraceCapExceeded`] when
    /// the batch would take the attack past `u32::MAX` traces; the
    /// accumulator is unchanged.
    pub fn add_batch(&mut self, batch: &TraceBatch) -> Result<(), CpaError> {
        self.check_fits(batch.points, batch.len() as u64)?;
        for (t, ct) in batch.cts.iter().enumerate() {
            self.absorb(ct, batch.samples_of(t).iter().map(|&x| u64::from(x)));
        }
        Ok(())
    }

    /// Folds another accumulator into this one, as if its traces had
    /// been absorbed here.
    ///
    /// Every field of the binned representation — bin counts, per-bin
    /// point sums, sums of squares, trace count — is an additive
    /// integer, so a campaign can capture shards on independent workers
    /// and merge the partials in any order and grouping: the result is
    /// the sequential run's, bit for bit.
    ///
    /// # Errors
    ///
    /// [`CpaError::IncompatibleMerge`] when the hypothesis models or
    /// point counts differ, [`CpaError::TraceCapExceeded`] when the
    /// merged trace count would pass `u32::MAX`; this accumulator is
    /// unchanged.
    pub fn try_merge(&mut self, other: &CpaAttack) -> Result<(), CpaError> {
        if self.model != other.model || self.points != other.points {
            return Err(CpaError::IncompatibleMerge {
                detail: format!(
                    "model {:?}/{} points vs {:?}/{} points",
                    self.model, self.points, other.model, other.points
                ),
            });
        }
        self.check_fits(other.points, other.traces)?;
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
    /// Panics if the hypothesis models or point counts differ, or if
    /// the merged trace count would pass `u32::MAX`.
    pub fn merge(&mut self, other: &CpaAttack) {
        if let Err(e) = self.try_merge(other) {
            panic!("{e}");
        }
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
    /// The integer sums of [`CpaAttack::candidate_sums`] become `f64`
    /// here and nowhere earlier. The per-point trace-variance factor
    /// `√(n·Σx² − (Σx)²)` does not depend on the candidate and is
    /// computed once.
    fn correlation_matrix(&self) -> Vec<f64> {
        let n = self.traces as f64;
        let total_sum: Vec<f64> = (0..self.points)
            .map(|p| self.bin_sum[p..].iter().step_by(self.points).sum::<u64>() as f64)
            .collect();
        let denom_x: Vec<f64> = total_sum
            .iter()
            .zip(&self.sum_sq)
            .map(|(&total, &sq)| (n * sq as f64 - total * total).sqrt())
            .collect();
        let sums = self.candidate_sums();
        let mut r = Vec::with_capacity(256 * self.points);
        for row in sums.chunks_exact(self.points + 1) {
            let n1 = row[0] as f64;
            let denom_h = (n1 * (n - n1)).sqrt();
            for ((&s1, &denom_x), &total) in row[1..].iter().zip(&denom_x).zip(&total_sum) {
                let denom = denom_h * denom_x;
                r.push(if denom > 0.0 {
                    (n * s1 as f64 - n1 * total) / denom
                } else {
                    0.0
                });
            }
        }
        r
    }

    /// Every candidate's hypothesis-1 trace count and point sums, as
    /// 256 rows of `1 + points` integers: row `k` is `n1[k]`, then
    /// `s1[k][p]`, the sums over the bins `c` with `hyp[c ^ k]` set.
    ///
    /// Both are XOR convolutions of the bins with the hypothesis table,
    /// so two Walsh–Hadamard transforms of the `256 × (1 + points)`
    /// matrix of bin counts and sums evaluate them:
    /// `W(W(b) ⊙ W(hyp)) / 256` is the convolution of `b` with `hyp`,
    /// at O(256 · 8) work per column instead of a fold's O(256 · 128).
    /// No `i64` overflows under the trace cap: a forward value is a
    /// signed sum of bins, so at most the column's total `S_p < 2^48`;
    /// `|W(hyp)| ≤ 128`, as the table holds 128 ones; the inverse adds
    /// 256 products, so it stays below `2^15 · S_p < 2^63`, and it is
    /// exactly 256 times the convolution.
    fn candidate_sums(&self) -> Vec<i64> {
        let width = self.points + 1;
        let mut spectrum = self.model.hypothesis_table().map(i64::from);
        walsh_hadamard(&mut spectrum, 1);
        let mut b = Vec::with_capacity(256 * width);
        for (c, &count) in self.bin_count.iter().enumerate() {
            b.push(count as i64);
            b.extend(
                self.bin_sum[c * self.points..(c + 1) * self.points]
                    .iter()
                    .map(|&s| s as i64),
            );
        }
        walsh_hadamard(&mut b, width);
        for (row, &h) in b.chunks_exact_mut(width).zip(&spectrum) {
            for x in row {
                *x *= h;
            }
        }
        walsh_hadamard(&mut b, width);
        for x in &mut b {
            *x /= 256;
        }
        b
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
    /// `InvalidData` if the checkpoint does not describe an accumulator
    /// of counts: a bad model, geometry that disagrees with `points`,
    /// bin counts that do not sum to `traces`, more than `u32::MAX`
    /// traces, a bin sum above `u16::MAX` per trace of its bin (so a
    /// non-zero sum in an empty bin), or a sum of squares above
    /// `u16::MAX²` per trace.
    pub fn resume(cp: CpaCheckpoint) -> std::io::Result<Self> {
        cp.check()
            .map_err(|detail| std::io::Error::new(std::io::ErrorKind::InvalidData, detail))?;
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

/// In-place unnormalised Walsh–Hadamard transform over the 256 rows
/// (`width` values each, row-major) of `data`: row `j` becomes
/// `Σ_i (−1)^popcount(i & j) · row i`. Applying it twice multiplies by
/// 256.
fn walsh_hadamard(data: &mut [i64], width: usize) {
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
/// Sample counts are stored flat as `u16` (`len × points`, row-major),
/// so a batch absorb streams contiguous memory instead of chasing one
/// heap-allocated sample vector per trace. One staged batch can feed
/// all 16 byte-attacks of a `MultiByteCpa` — each derives its own bin
/// from the stored ciphertexts.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBatch {
    points: usize,
    cts: Vec<[u8; 16]>,
    samples: Vec<u16>,
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
    /// Panics if `samples.len()` differs from the batch's point count,
    /// or if a sample is not a count (a whole number in
    /// `0..=u16::MAX`); the batch is unchanged.
    pub fn push(&mut self, ct: [u8; 16], samples: &[f64]) {
        assert_eq!(samples.len(), self.points, "trace point count mismatch");
        assert_counts(samples);
        self.cts.push(ct);
        self.samples.extend(samples.iter().map(|&x| x as u16));
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
    fn samples_of(&self, t: usize) -> &[u16] {
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
    /// Per ct-byte-value, per point: sum of trace counts (256 × points).
    pub bin_sum: Vec<u64>,
    /// Per point: sum of squared counts over all traces.
    pub sum_sq: Vec<u64>,
    /// Traces absorbed.
    pub traces: u64,
}

impl CpaCheckpoint {
    /// Why this is not the state of an attack on counts, if it is not;
    /// [`CpaAttack::resume`] lists the checks. They keep a resumed
    /// attack within the overflow bounds of the trace cap.
    pub(crate) fn check(&self) -> Result<(), String> {
        let (points, traces, max) = (self.points, self.traces, u64::from(u16::MAX));
        if self.model.ct_byte >= 16 || self.model.bit >= 8 {
            return Err(format!("invalid model {:?}", self.model));
        }
        let lens = [self.bin_count.len(), self.bin_sum.len(), self.sum_sq.len()];
        if lens != [256, 256 * points, points] {
            return Err(format!(
                "{lens:?} bins, bin sums and sums of squares for {points} points"
            ));
        }
        let binned: u128 = self.bin_count.iter().map(|&c| u128::from(c)).sum();
        if binned != u128::from(traces) || traces > MAX_TRACES {
            return Err(format!(
                "bin counts sum to {binned}, trace count says {traces} (cap {MAX_TRACES})"
            ));
        }
        let rows = self.bin_sum.chunks(points.max(1));
        for (c, (&count, row)) in self.bin_count.iter().zip(rows).enumerate() {
            if let Some(p) = row.iter().position(|&s| s > max * count) {
                return Err(format!(
                    "bin {c} point {p} sums to {}, past {max} × its {count} traces",
                    row[p]
                ));
            }
        }
        if let Some(p) = self.sum_sq.iter().position(|&q| q > max * max * traces) {
            return Err(format!(
                "point {p} sum of squares {} exceeds {max}² × {traces} traces",
                self.sum_sq[p]
            ));
        }
        Ok(())
    }
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

    /// `x` scaled by 8 about the middle of the `u16` range and rounded:
    /// Gaussian leakage as a sensor count.
    fn count(x: f64) -> f64 {
        (32_768.0 + 8.0 * x).round()
    }

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
            let x = [rng.normal_scaled(1.0), h + rng.normal_scaled(noise_sigma)];
            attack.add_trace(&ct, &x.map(count));
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
                let x = [count(rng.normal()), rng.below(1 << 16) as f64];
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
        let mut one = CpaAttack::new(LastRoundModel::paper_target(), 2);
        one.add_trace(&[7; 16], &[65_535.0, 3.0]);
        assert_eq!(CpaAttack::resume(one.checkpoint()).unwrap(), one);
        // Bad geometry or model, and sums no counts could produce.
        type Edit = fn(&mut CpaCheckpoint);
        let edits: [(Edit, &str); 8] = [
            (|cp| cp.bin_sum.truncate(5), "[256, 5, 2] bins"),
            (|cp| cp.bin_count.truncate(8), "[8, 512, 2] bins"),
            (|cp| cp.traces = 5, "trace count says 5"),
            (|cp| cp.model.ct_byte = 99, "invalid model"),
            (|cp| cp.bin_sum[2 * 2] = 3, "bin 2 point 0"), // an empty bin
            (|cp| cp.bin_sum[7 * 2] += 1, "bin 7 point 0"), // > u16::MAX per trace
            (
                |cp| cp.sum_sq[1] = 65_535 * 65_535 + 1,
                "point 1 sum of squares",
            ),
            (
                |cp| (cp.bin_count[7], cp.traces) = (MAX_TRACES + 1, MAX_TRACES + 1),
                "cap",
            ),
        ];
        for (edit, want) in edits {
            let mut bad = one.checkpoint();
            edit(&mut bad);
            let err = CpaAttack::resume(bad).unwrap_err().to_string();
            assert!(err.contains(want), "{want}: {err}");
        }
    }

    #[test]
    fn try_add_trace_rejects_and_leaves_state_untouched() {
        let mut attack = CpaAttack::new(LastRoundModel::paper_target(), 2);
        attack.add_trace(&[1; 16], &[5.0, 2.0]);
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
        attack.try_add_trace(&[1; 16], &[5.0, 2.0]).unwrap();
        assert_eq!(attack.traces(), 2);
    }

    #[test]
    fn merge_equals_sequential_absorption() {
        // Integer sums are exact, so the merged partials must equal the
        // single-accumulator run bit for bit.
        let model = LastRoundModel::paper_target();
        let key = [0x3fu8; 16];
        let mut rng = Rng64::new(21);
        let records: Vec<([u8; 16], [f64; 2])> = (0..900)
            .map(|_| {
                let mut pt = [0u8; 16];
                rng.fill_bytes(&mut pt);
                let ct = soft::encrypt(&key, &pt);
                let x = [rng.below(64) as f64, rng.below(1 << 16) as f64];
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
                let x = [(); 3].map(|()| count(rng.normal()));
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
        assert_eq!(batch.samples_of(0), &[1, 2]);
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
        let digests = [&short, &long, &weights].map(correlation_digest);
        assert_eq!(
            digests,
            [
                0x9491_fadc_42fb_1e42,
                0x70ed_2bab_0b15_2d4d,
                0x5ea4_c389_8409_7bb1
            ],
            "digests {:#018x?}",
            digests
        );
        assert_eq!(
            CpaAttack::rank_in(&long.peak_correlations(), 0x3c),
            0,
            "the leak is recoverable"
        );
    }

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
        *payload.downcast::<String>().unwrap()
    }

    #[test]
    fn non_count_samples_panic_and_change_nothing() {
        let mut attack = CpaAttack::new(LastRoundModel::paper_target(), 2);
        attack.add_trace(&[1; 16], &[0.0, 65_535.0]);
        let mut batch = TraceBatch::with_capacity(2, 4);
        batch.push([1; 16], &[0.0, 65_535.0]);
        let (attack_before, batch_before) = (attack.clone(), batch.clone());
        for x in [0.5, -1.0, f64::NAN, 65_536.0] {
            let msg = panic_message(|| attack.add_trace(&[2; 16], &[3.0, x]));
            assert!(msg.contains("is not a count"), "add_trace({x}): {msg}");
            let msg = panic_message(|| batch.push([2; 16], &[3.0, x]));
            assert!(msg.contains("is not a count"), "push({x}): {msg}");
        }
        assert_eq!(attack, attack_before);
        assert_eq!(batch, batch_before);
    }

    /// A resumed accumulator at the trace cap, its traces spread over
    /// the first `bins` bins, with every sum at its largest: point 0
    /// reads `u16::MAX` in every trace, point 1 in every third bin.
    fn at_cap(bins: u64) -> CpaAttack {
        let mut cp = CpaAttack::new(LastRoundModel::paper_target(), 2).checkpoint();
        let max = u64::from(u16::MAX);
        for c in 0..bins {
            let count = MAX_TRACES / bins + u64::from(c < MAX_TRACES % bins);
            cp.bin_count[c as usize] = count;
            cp.bin_sum[2 * c as usize] = max * count;
            cp.bin_sum[2 * c as usize + 1] = if c % 3 == 0 { max * count } else { 0 };
        }
        cp.traces = MAX_TRACES;
        cp.sum_sq = vec![max * max * MAX_TRACES; 2];
        CpaAttack::resume(cp).unwrap()
    }

    #[test]
    fn trace_cap_refuses_absorbs_and_merges() {
        let mut full = at_cap(1);
        let before = full.clone();
        let mut batch = TraceBatch::with_capacity(2, 1);
        batch.push([0; 16], &[1.0, 1.0]);
        let mut one = CpaAttack::new(LastRoundModel::paper_target(), 2);
        one.add_batch(&batch).unwrap();
        let refused = Err(CpaError::TraceCapExceeded {
            traces: MAX_TRACES,
            adding: 1,
        });
        assert_eq!(full.add_batch(&batch), refused);
        assert_eq!(full.try_merge(&one), refused);
        assert_eq!(full.try_add_trace(&[0; 16], &[1.0, 1.0]), refused);
        let refused = CpaError::TraceCapExceeded {
            traces: 1,
            adding: MAX_TRACES,
        };
        assert_eq!(one.try_merge(&full), Err(refused));
        // An empty batch or accumulator still fits.
        full.add_batch(&TraceBatch::with_capacity(2, 0)).unwrap();
        full.merge(&CpaAttack::new(LastRoundModel::paper_target(), 2));
        assert_eq!(full, before);
    }

    #[test]
    fn evaluation_at_the_cap_does_not_overflow() {
        // The integer passes stay in range (tests build with overflow
        // checks), and a constant point correlates with nothing.
        for attack in [at_cap(1), at_cap(256)] {
            let r = attack.correlations();
            assert!(r.iter().all(|row| row[0] == 0.0), "point 0 is constant");
            assert!(r.iter().flatten().all(|r| r.abs() <= 1.0 + 1e-9));
        }
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
