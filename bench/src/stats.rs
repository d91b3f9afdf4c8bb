//! Order statistics over measured samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The nearest-rank `p` percentile (`p` in `0.5..=1`) of a non-empty
/// sample, taken only as far into the tail as leaves ten samples
/// beyond it: the true percentile on a large sample, the median on one
/// of 20 or fewer.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let v = sorted(values);
    let n = v.len();
    let rank = ((p * n as f64).ceil() as usize)
        .min(n.saturating_sub(10))
        .max(n.div_ceil(2));
    v[rank - 1]
}

/// The median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method),
/// so spreads read the same here and in any script that checks them.
/// A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(median(&ten), 5.5);
        assert_eq!(percentile(&ten, 0.5), 5.0);
        // Ten samples leave no tail: the median rank.
        assert_eq!(percentile(&ten, 0.99), 5.0);
        let few: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(percentile(&few, 0.99), 20.0);
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), 1980.0);
    }
}
