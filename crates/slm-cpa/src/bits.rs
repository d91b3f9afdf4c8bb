//! Sensitive-bit discovery and ranking.

use serde::{Deserialize, Serialize};
use slm_sensors::SensorSample;

/// Streaming per-endpoint activity statistics over a run of sensor
/// samples: toggle counts, means and variances.
///
/// This is the paper's post-processing step that "select\[s\] all bits of
/// the ALU that fluctuate" (Fig. 7) and ranks them by variance (Fig. 8):
/// "Bits with a higher variance toggle more often and therefore carry
/// more information about the activity on the FPGA."
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BitActivity {
    len: usize,
    samples: u64,
    ones: Vec<u64>,
    toggles: Vec<u64>,
    last: Option<Vec<u64>>,
}

impl BitActivity {
    /// Creates an accumulator for sensors with `len` endpoints.
    pub fn new(len: usize) -> Self {
        BitActivity {
            len,
            samples: 0,
            ones: vec![0; len],
            toggles: vec![0; len],
            last: None,
        }
    }

    /// Number of endpoints tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether any endpoint is tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Absorbs one sensor sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample length differs from the accumulator's.
    pub fn add(&mut self, sample: &SensorSample) {
        assert_eq!(sample.len, self.len, "sample length mismatch");
        for i in 0..self.len {
            if sample.bit(i) {
                self.ones[i] += 1;
            }
        }
        if let Some(last) = &self.last {
            for (i, w) in sample.bits.iter().enumerate() {
                let mut diff = w ^ last[i];
                while diff != 0 {
                    let b = diff.trailing_zeros() as usize;
                    let idx = i * 64 + b;
                    if idx < self.len {
                        self.toggles[idx] += 1;
                    }
                    diff &= diff - 1;
                }
            }
        }
        self.last = Some(sample.bits.clone());
        self.samples += 1;
    }

    /// Fraction of samples where endpoint `i` read 1.
    fn mean(&self, i: usize) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.ones[i] as f64 / self.samples as f64
        }
    }

    /// Variance of the (Bernoulli) endpoint value: `p(1-p)`.
    pub fn variance(&self, i: usize) -> f64 {
        let p = self.mean(i);
        p * (1.0 - p)
    }

    /// Endpoints that toggled at least once — the *sensitive bits*.
    pub fn sensitive_bits(&self) -> Vec<usize> {
        (0..self.len).filter(|&i| self.toggles[i] > 0).collect()
    }

    /// Endpoints sorted by variance, highest first.
    pub fn by_variance(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.len).collect();
        idx.sort_by(|&a, &b| {
            self.variance(b)
                .partial_cmp(&self.variance(a))
                .expect("variances are finite")
                .then(a.cmp(&b))
        });
        idx
    }

    /// The single highest-variance endpoint (the paper's "bit 21" /
    /// "bit 28" selection rule), or `None` if nothing toggles.
    pub fn best_endpoint(&self) -> Option<usize> {
        let best = *self.by_variance().first()?;
        (self.variance(best) > 0.0).then_some(best)
    }
}

/// Estimates each endpoint's response polarity from recorded samples:
/// the sign of its covariance with the common-mode fluctuation (the
/// plain Hamming weight over `endpoints`). Endpoints that read 1 when
/// the supply droops correlate positively with whichever polarity group
/// dominates; returning `true` for the minority group lets a
/// [`crate::PostProcessor::HammingWeightAligned`] reduction sum all
/// endpoints coherently.
///
/// This is pure trace post-processing — exactly the kind of offline
/// analysis the paper's host scripts perform — and needs no knowledge
/// of the circuit's internals.
pub fn common_mode_polarity(samples: &[SensorSample], endpoints: &[usize]) -> Vec<bool> {
    let k = endpoints.len();
    if samples.is_empty() || k == 0 {
        return vec![false; k];
    }
    let n = samples.len() as f64;
    // means
    let mut mean = vec![0.0f64; k];
    let mut hmean = 0.0f64;
    for s in samples {
        for (slot, &e) in endpoints.iter().enumerate() {
            mean[slot] += f64::from(u8::from(s.bit(e)));
        }
        hmean += f64::from(s.hamming_weight_of(endpoints));
    }
    for m in &mut mean {
        *m /= n;
    }
    hmean /= n;
    // covariance of each bit with the common mode
    let mut cov = vec![0.0f64; k];
    for s in samples {
        let h = f64::from(s.hamming_weight_of(endpoints)) - hmean;
        for (slot, &e) in endpoints.iter().enumerate() {
            cov[slot] += (f64::from(u8::from(s.bit(e))) - mean[slot]) * h;
        }
    }
    cov.into_iter().map(|c| c < 0.0).collect()
}

/// Comparison of the bit sets affected by two different activity
/// sources — the content of the paper's Figs. 7 and 15 (RO-sensitive
/// vs AES-sensitive endpoint census).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitCensus {
    /// Endpoints sensitive to the first source (the RO array).
    pub source_a: Vec<usize>,
    /// Endpoints sensitive to the second source (the AES module).
    pub source_b: Vec<usize>,
    /// Total endpoint count.
    pub total: usize,
}

impl BitCensus {
    /// Builds the census from two activity accumulators over the same
    /// sensor.
    ///
    /// # Panics
    ///
    /// Panics if the accumulators track different endpoint counts.
    pub fn compare(a: &BitActivity, b: &BitActivity) -> Self {
        assert_eq!(a.len(), b.len());
        BitCensus {
            source_a: a.sensitive_bits(),
            source_b: b.sensitive_bits(),
            total: a.len(),
        }
    }

    /// Endpoints sensitive to both sources.
    pub fn intersection(&self) -> Vec<usize> {
        self.source_b
            .iter()
            .copied()
            .filter(|i| self.source_a.binary_search(i).is_ok())
            .collect()
    }

    /// Endpoints affected by source B that source A does not affect.
    pub fn b_only(&self) -> Vec<usize> {
        self.source_b
            .iter()
            .copied()
            .filter(|i| self.source_a.binary_search(i).is_err())
            .collect()
    }

    /// Endpoints unaffected by either source.
    pub fn unaffected(&self) -> usize {
        let union: std::collections::BTreeSet<usize> = self
            .source_a
            .iter()
            .chain(self.source_b.iter())
            .copied()
            .collect();
        self.total - union.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(bits: &[bool]) -> SensorSample {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        SensorSample {
            bits: words,
            len: bits.len(),
        }
    }

    #[test]
    fn toggles_and_variance() {
        let mut act = BitActivity::new(3);
        act.add(&sample(&[false, true, false]));
        act.add(&sample(&[false, false, false]));
        act.add(&sample(&[false, true, false]));
        act.add(&sample(&[false, false, true]));
        assert_eq!(act.samples, 4);
        assert_eq!(act.sensitive_bits(), vec![1, 2]);
        assert!((act.mean(1) - 0.5).abs() < 1e-12);
        assert!((act.variance(1) - 0.25).abs() < 1e-12);
        assert!(act.variance(1) > act.variance(2));
        assert_eq!(act.best_endpoint(), Some(1));
        assert_eq!(act.by_variance()[0], 1);
    }

    #[test]
    fn constant_bits_have_zero_variance() {
        let mut act = BitActivity::new(2);
        for _ in 0..10 {
            act.add(&sample(&[true, false]));
        }
        assert_eq!(act.variance(0), 0.0);
        assert_eq!(act.best_endpoint(), None);
        assert!(act.sensitive_bits().is_empty());
    }

    #[test]
    fn polarity_from_common_mode() {
        // Two groups driven by a hidden common mode: bits 0,1 follow it,
        // bit 2 opposes it, bit 3 is constant.
        let mut samples = Vec::new();
        for t in 0..200 {
            let cm = (t / 3) % 2 == 0;
            samples.push(sample(&[cm, cm, !cm, true]));
        }
        let pol = common_mode_polarity(&samples, &[0, 1, 2, 3]);
        assert_eq!(pol[0], pol[1], "aligned bits share polarity");
        assert_ne!(pol[0], pol[2], "opposed bit must be inverted");
        // majority group (0,1) should be the non-inverted one
        assert!(!pol[0]);
        assert!(pol[2]);
    }

    #[test]
    fn polarity_empty_inputs() {
        assert!(common_mode_polarity(&[], &[0, 1]).iter().all(|&b| !b));
        let s = vec![sample(&[true, false])];
        assert!(common_mode_polarity(&s, &[]).is_empty());
    }

    #[test]
    fn census_set_algebra() {
        let mut ro = BitActivity::new(6);
        let mut aes = BitActivity::new(6);
        // RO toggles bits 0,1,2,3; AES toggles bits 2,3,4.
        ro.add(&sample(&[false; 6]));
        ro.add(&sample(&[true, true, true, true, false, false]));
        aes.add(&sample(&[false; 6]));
        aes.add(&sample(&[false, false, true, true, true, false]));
        let census = BitCensus::compare(&ro, &aes);
        assert_eq!(census.source_a, vec![0, 1, 2, 3]);
        assert_eq!(census.source_b, vec![2, 3, 4]);
        assert_eq!(census.intersection(), vec![2, 3]);
        assert_eq!(census.b_only(), vec![4]);
        assert_eq!(census.unaffected(), 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        let mut act = BitActivity::new(4);
        act.add(&sample(&[true; 5]));
    }
}
