//! Raw-sample → scalar-trace post-processing.

use serde::{Deserialize, Serialize};
use slm_sensors::SensorSample;

/// How a raw multi-bit sensor capture is reduced to one trace point.
///
/// The paper evaluates three reductions: the Hamming weight of the
/// sensitive *bits of interest* (Figs. 6, 10, 17), a single selected
/// endpoint (Figs. 12, 13, 18), and — for the TDC — the thermometer
/// depth itself.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PostProcessor {
    /// Hamming weight over all endpoints.
    HammingWeightAll,
    /// Hamming weight over the listed endpoints only.
    HammingWeightOf(Vec<usize>),
    /// Polarity-aligned Hamming weight: slot `i` is inverted before
    /// summing when `invert[i]` is true. Used when a circuit's
    /// endpoints respond to a droop with mixed polarities (some read 1,
    /// some read 0): aligning each bit by its settled value makes every
    /// endpoint count a droop positively, so the sum stays coherent.
    /// `invert.len()` must equal the sample length.
    HammingWeightAligned(Vec<bool>),
    /// The value of one endpoint (0.0 or 1.0).
    SingleBit(usize),
}

impl PostProcessor {
    /// Reduces one capture to a scalar.
    pub fn reduce(&self, sample: &SensorSample) -> f64 {
        match self {
            PostProcessor::HammingWeightAll => f64::from(sample.hamming_weight()),
            PostProcessor::HammingWeightOf(bits) => f64::from(sample.hamming_weight_of(bits)),
            PostProcessor::HammingWeightAligned(invert) => {
                assert_eq!(invert.len(), sample.len, "invert mask length");
                (0..sample.len)
                    .map(|i| f64::from(u8::from(sample.bit(i) ^ invert[i])))
                    .sum()
            }
            PostProcessor::SingleBit(i) => f64::from(u8::from(sample.bit(*i))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(words: Vec<u64>, len: usize) -> SensorSample {
        SensorSample { bits: words, len }
    }

    #[test]
    fn reductions() {
        let s = sample(vec![0b1011], 4);
        assert_eq!(PostProcessor::HammingWeightAll.reduce(&s), 3.0);
        assert_eq!(PostProcessor::HammingWeightOf(vec![0, 2]).reduce(&s), 1.0);
        assert_eq!(PostProcessor::SingleBit(1).reduce(&s), 1.0);
        assert_eq!(PostProcessor::SingleBit(2).reduce(&s), 0.0);
    }

    #[test]
    fn aligned_hw() {
        let s = sample(vec![0b1011], 4);
        // bits LSB-first are 1,1,0,1; inverting slots 0 and 3 gives
        // 0,1,0,0 → weight 1
        let p = PostProcessor::HammingWeightAligned(vec![true, false, false, true]);
        assert_eq!(p.reduce(&s), 1.0);
        // all-false mask equals plain HW
        let p0 = PostProcessor::HammingWeightAligned(vec![false; 4]);
        assert_eq!(p0.reduce(&s), 3.0);
    }

    #[test]
    #[should_panic(expected = "invert mask length")]
    fn aligned_hw_mask_length_checked() {
        let s = sample(vec![0b1011], 4);
        let p = PostProcessor::HammingWeightAligned(vec![false; 3]);
        let _ = p.reduce(&s);
    }
}
