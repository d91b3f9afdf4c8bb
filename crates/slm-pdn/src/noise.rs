//! Deterministic pseudo-randomness for the whole simulation stack.
//!
//! Every stochastic element of the reproduction — supply noise, register
//! jitter, leakage noise, plaintext generation — draws from this module
//! so that a single seed reproduces an entire experiment bit-for-bit.
//! The generator is xoshiro256++ (Blackman & Vigna), small and fast
//! enough for the hot sampling loops (hundreds of millions of draws per
//! figure).

use serde::{Deserialize, Serialize};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256++ pseudo-random generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rng64 {
    s: [u64; 4],
    /// Cached second output of the last Box–Muller pair.
    spare_normal: Option<f64>,
}

impl Rng64 {
    /// Creates a generator from a seed (expanded via splitmix64, per the
    /// xoshiro authors' recommendation).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 {
            s,
            spare_normal: None,
        }
    }

    /// Derives an independent stream for a named subcomponent.
    ///
    /// Used to hand each sensor/noise source its own generator so the
    /// order in which components are stepped cannot perturb results.
    pub fn fork(&self, tag: u64) -> Rng64 {
        let mut sm = self.s[0] ^ self.s[2] ^ tag.wrapping_mul(0xa076_1d64_78bd_642f);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 {
            s,
            spare_normal: None,
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        // Lemire-style rejection-free approximation is fine here; modulo
        // bias is negligible for the small n this simulator uses.
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal draw (Box–Muller with cached spare).
    #[inline]
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let k = (-2.0 * s.ln() / s).sqrt();
                self.spare_normal = Some(v * k);
                return u * k;
            }
        }
    }

    /// Normal draw with the given standard deviation.
    #[inline]
    pub fn normal_scaled(&mut self, sigma: f64) -> f64 {
        if sigma == 0.0 {
            0.0
        } else {
            self.normal() * sigma
        }
    }

    /// Fills `out` with normal draws of standard deviation `sigma`,
    /// bit-identical to calling [`Rng64::normal_scaled`] once per slot:
    /// the same stream consumption, a cached spare used on entry, and
    /// one spare left cached when an odd number of slots remains.
    ///
    /// The polar method runs in two phases in place: first the accepted
    /// `(u, v)` candidates are packed into slot pairs with a branch-free
    /// cursor (a rejected candidate is simply overwritten), then the
    /// transform runs over every pair, recomputing `s = u² + v²`. The
    /// hot loop of the block-stepped PDN thereby avoids a hard-to-
    /// predict rejection branch per pair.
    pub fn fill_normal_scaled(&mut self, out: &mut [f64], sigma: f64) {
        if sigma == 0.0 {
            out.fill(0.0);
            return;
        }
        let out = match (self.spare_normal.take(), out) {
            (Some(z), [first, rest @ ..]) => {
                *first = z * sigma;
                rest
            }
            (spare, out) => {
                self.spare_normal = spare;
                out
            }
        };
        let pairs = out.len() / 2;
        let mut j = 0;
        while j < pairs {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            out[2 * j] = u;
            out[2 * j + 1] = v;
            j += (s > 0.0 && s < 1.0) as usize;
        }
        for pair in out.chunks_exact_mut(2) {
            let (u, v) = (pair[0], pair[1]);
            let s = u * u + v * v;
            let k = (-2.0 * s.ln() / s).sqrt();
            pair[0] = u * k * sigma;
            pair[1] = v * k * sigma;
        }
        if out.len() % 2 == 1 {
            out[2 * pairs] = self.normal() * sigma;
        }
    }

    /// Fills `buf` with random bytes (for plaintext generation).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let w = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng64::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn forks_are_independent_streams() {
        let root = Rng64::new(1);
        let mut f1 = root.fork(1);
        let mut f2 = root.fork(2);
        let xs: Vec<u64> = (0..8).map(|_| f1.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| f2.next_u64()).collect();
        assert_ne!(xs, ys);
        // Same tag reproduces the same stream.
        let mut f1b = root.fork(1);
        assert_eq!(xs[0], f1b.next_u64());
    }

    #[test]
    fn uniform_range_and_mean() {
        let mut r = Rng64::new(3);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng64::new(4);
        let n = 200_000;
        let (mut s1, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let z = r.normal();
            s1 += z;
            s2 += z * z;
        }
        let mean = s1 / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.03, "var = {var}");
    }

    #[test]
    fn below_bounds() {
        let mut r = Rng64::new(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let k = r.below(10);
            assert!(k < 10);
            seen[k as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets reachable");
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng64::new(6);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn zero_sigma_normal_is_zero() {
        let mut r = Rng64::new(7);
        assert_eq!(r.normal_scaled(0.0), 0.0);
    }

    #[test]
    fn fill_bytes_varies() {
        let mut r = Rng64::new(8);
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        r.fill_bytes(&mut a);
        r.fill_bytes(&mut b);
        assert_ne!(a, b);
        assert_ne!(a, [0u8; 16]);
    }
}
