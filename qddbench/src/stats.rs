//! Order statistics, following Python's `statistics` module so figures can
//! be recomputed from the printed samples.

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    let k = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize - 1;
    v[k.min(v.len() - 1)]
}

/// The highest whole percentile that leaves at least ten of `n` samples
/// above it.
pub fn tail_percentile(n: usize) -> f64 {
    assert!(n >= 40, "a tail needs at least 40 samples, got {n}");
    (100.0 * (n - 10) as f64 / n as f64).floor()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(150), 93.0);
        assert_eq!(tail_percentile(1000), 99.0);
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&xs, 75.0), 30.0);
        assert_eq!(median(&xs), 20.5);
    }
}
