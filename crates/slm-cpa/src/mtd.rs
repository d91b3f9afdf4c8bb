//! Measurements-to-disclosure: how many traces until the correct key
//! leads and keeps leading.

use serde::{Deserialize, Serialize};

/// One checkpoint of an attack's progress: the peak |r| of every
/// candidate after `traces` traces. This is one x-position of the
/// paper's "correlation progress over 500k traces" plots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgressPoint {
    /// Traces absorbed at this checkpoint.
    pub traces: u64,
    /// Peak |r| per key candidate.
    pub peak_corr: Vec<f64>,
}

impl ProgressPoint {
    /// Whether `key` strictly leads every other candidate.
    ///
    /// A checkpoint with no candidates (empty `peak_corr`, e.g. a
    /// deserialized partial) or one too short to contain `key` never
    /// reports a lead — the attack cannot have disclosed a candidate it
    /// never scored.
    pub fn key_leads(&self, key: u8) -> bool {
        let Some(&target) = self.peak_corr.get(key as usize) else {
            return false;
        };
        self.peak_corr
            .iter()
            .enumerate()
            .all(|(k, &p)| k == key as usize || p < target)
    }

    /// Margin between the correct key's correlation and the best wrong
    /// candidate (negative when the key does not lead).
    ///
    /// Returns [`f64::NEG_INFINITY`] when `peak_corr` does not contain
    /// `key` — an unscored candidate trails every scored one.
    pub fn margin(&self, key: u8) -> f64 {
        let Some(&target) = self.peak_corr.get(key as usize) else {
            return f64::NEG_INFINITY;
        };
        let best_other = self
            .peak_corr
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != key as usize)
            .map(|(_, &p)| p)
            .fold(f64::NEG_INFINITY, f64::max);
        target - best_other
    }
}

/// The first checkpoint from which the correct key leads at every later
/// checkpoint — the number the paper reports as "revealed after about
/// N traces". `None` if the key never stabilizes in the lead.
pub fn measurements_to_disclosure(progress: &[ProgressPoint], key: u8) -> Option<u64> {
    let first_stable = progress
        .iter()
        .rposition(|p| !p.key_leads(key))
        .map_or(0, |i| i + 1);
    progress.get(first_stable).map(|p| p.traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CpaAttack;

    fn point(traces: u64, correct: f64, other: f64) -> ProgressPoint {
        let mut peak_corr = vec![other; 256];
        peak_corr[42] = correct;
        ProgressPoint { traces, peak_corr }
    }

    #[test]
    fn disclosure_after_stabilization() {
        let progress = vec![
            point(100, 0.1, 0.2), // not leading
            point(200, 0.3, 0.2), // leads
            point(300, 0.1, 0.2), // lost the lead again
            point(400, 0.4, 0.2), // leads for good
            point(500, 0.5, 0.2),
        ];
        assert_eq!(measurements_to_disclosure(&progress, 42), Some(400));
    }

    #[test]
    fn immediate_disclosure() {
        let progress = vec![point(100, 0.9, 0.1), point(200, 0.9, 0.1)];
        assert_eq!(measurements_to_disclosure(&progress, 42), Some(100));
    }

    #[test]
    fn never_disclosed() {
        let progress = vec![point(100, 0.1, 0.2), point(200, 0.1, 0.3)];
        assert_eq!(measurements_to_disclosure(&progress, 42), None);
    }

    #[test]
    fn margin_signs() {
        assert!(point(1, 0.5, 0.2).margin(42) > 0.0);
        assert!(point(1, 0.1, 0.2).margin(42) < 0.0);
        assert!(point(1, 0.5, 0.2).key_leads(42));
        assert!(!point(1, 0.1, 0.2).key_leads(42));
    }

    #[test]
    fn rank_trajectory() {
        let progress = [
            point(100, 0.1, 0.2), // everyone else higher → rank 255
            point(200, 0.3, 0.2), // leads → rank 0
        ];
        let ranks: Vec<usize> = progress
            .iter()
            .map(|p| CpaAttack::rank_in(&p.peak_corr, 42))
            .collect();
        assert_eq!(ranks, [255, 0]);
    }

    #[test]
    fn tie_does_not_count_as_leading() {
        let p = point(1, 0.2, 0.2);
        assert!(!p.key_leads(42));
    }

    #[test]
    fn empty_checkpoint_never_leads() {
        let p = ProgressPoint {
            traces: 10,
            peak_corr: Vec::new(),
        };
        assert!(!p.key_leads(0));
        assert!(!p.key_leads(255));
        assert_eq!(p.margin(0), f64::NEG_INFINITY);
        // An all-empty progress curve never discloses.
        assert_eq!(measurements_to_disclosure(&[p], 42), None);
    }

    #[test]
    fn out_of_range_key_index_is_guarded() {
        // A truncated candidate list (e.g. a partial store restore)
        // must not panic when asked about a candidate it never scored.
        let p = ProgressPoint {
            traces: 5,
            peak_corr: vec![0.4, 0.2, 0.1],
        };
        assert!(!p.key_leads(200));
        assert_eq!(p.margin(200), f64::NEG_INFINITY);
        // In-range indices still behave normally on the short vector.
        assert!(p.key_leads(0));
        assert!(p.margin(0) > 0.0);
    }
}
