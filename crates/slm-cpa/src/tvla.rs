//! Test-vector leakage assessment (TVLA): Welch's t-test between a
//! fixed-plaintext and a random-plaintext trace population.
//!
//! CPA (the paper's evaluation) answers "can this sensor recover the
//! key"; TVLA answers the weaker but assumption-free question "does the
//! sensor see *any* data-dependent leakage". It is the standard first
//! screen in side-channel evaluations and a natural extension of the
//! paper's methodology: if the benign sensor passes |t| > 4.5, the
//! channel exists regardless of the attack model.

use serde::{Deserialize, Serialize};

/// The conventional TVLA significance threshold.
pub const TVLA_THRESHOLD: f64 = 4.5;

/// Streaming Welch's t-test over two trace classes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WelchTTest {
    points: usize,
    n: [u64; 2],
    mean: Vec<f64>, // 2 × points
    m2: Vec<f64>,   // 2 × points
}

impl WelchTTest {
    /// Creates a t-test over `points` trace points.
    pub fn new(points: usize) -> Self {
        WelchTTest {
            points,
            n: [0, 0],
            mean: vec![0.0; 2 * points],
            m2: vec![0.0; 2 * points],
        }
    }

    /// Absorbs one trace into a class (Welford update).
    ///
    /// # Panics
    ///
    /// Panics if `trace.len()` differs from the configured point count.
    pub fn add(&mut self, fixed: bool, trace: &[f64]) {
        assert_eq!(trace.len(), self.points, "trace point count mismatch");
        let c = usize::from(fixed);
        self.n[c] += 1;
        let n = self.n[c] as f64;
        let base = c * self.points;
        for (p, &x) in trace.iter().enumerate() {
            let delta = x - self.mean[base + p];
            self.mean[base + p] += delta / n;
            self.m2[base + p] += delta * (x - self.mean[base + p]);
        }
    }

    /// Welch's t statistic per point (0.0 where undefined).
    fn t_values(&self) -> Vec<f64> {
        let (n0, n1) = (self.n[0] as f64, self.n[1] as f64);
        if self.n[0] < 2 || self.n[1] < 2 {
            return vec![0.0; self.points];
        }
        (0..self.points)
            .map(|p| {
                let var0 = self.m2[p] / (n0 - 1.0);
                let var1 = self.m2[self.points + p] / (n1 - 1.0);
                let denom = (var0 / n0 + var1 / n1).sqrt();
                if denom > 0.0 {
                    (self.mean[self.points + p] - self.mean[p]) / denom
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// The largest |t| over all points.
    pub fn max_abs_t(&self) -> f64 {
        self.t_values().iter().fold(0.0, |m, t| m.max(t.abs()))
    }

    /// Whether any point exceeds the TVLA threshold.
    pub fn leaks(&self) -> bool {
        self.max_abs_t() > TVLA_THRESHOLD
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slm_pdn::noise::Rng64;

    #[test]
    fn distinguishes_shifted_means() {
        let mut t = WelchTTest::new(2);
        let mut rng = Rng64::new(1);
        for _ in 0..2000 {
            // point 0 identical, point 1 shifted by 0.5σ in the fixed class
            t.add(false, &[rng.normal(), rng.normal()]);
            t.add(true, &[rng.normal(), rng.normal() + 0.5]);
        }
        let tv = t.t_values();
        assert!(tv[0].abs() < 4.0, "null point t = {}", tv[0]);
        assert!(tv[1] > TVLA_THRESHOLD, "leaky point t = {}", tv[1]);
        assert!(t.leaks());
    }

    #[test]
    fn null_distribution_stays_below_threshold() {
        let mut t = WelchTTest::new(4);
        let mut rng = Rng64::new(2);
        for _ in 0..5000 {
            let x: Vec<f64> = (0..4).map(|_| rng.normal()).collect();
            t.add(rng.chance(0.5), &x);
        }
        assert!(!t.leaks(), "max |t| = {}", t.max_abs_t());
    }

    #[test]
    fn undefined_with_tiny_classes() {
        let mut t = WelchTTest::new(1);
        t.add(true, &[1.0]);
        assert_eq!(t.t_values(), vec![0.0]);
        assert_eq!(t.n, [0, 1], "[random, fixed] class counts");
    }

    #[test]
    fn t_scales_with_sample_count() {
        let gen = |n: usize| {
            let mut t = WelchTTest::new(1);
            let mut rng = Rng64::new(3);
            for _ in 0..n {
                t.add(false, &[rng.normal()]);
                t.add(true, &[rng.normal() + 0.2]);
            }
            t.max_abs_t()
        };
        let t_small = gen(500);
        let t_big = gen(8000);
        assert!(
            t_big > 2.0 * t_small,
            "t must grow ~√n: {t_small} vs {t_big}"
        );
    }

    #[test]
    #[should_panic(expected = "point count mismatch")]
    fn wrong_width_panics() {
        let mut t = WelchTTest::new(2);
        t.add(true, &[1.0]);
    }
}
