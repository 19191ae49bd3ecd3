//! Estimators. Host-time metrics are built from per-op minima over passes
//! (see README "Protocol"); raw all-sample figures are reported beside
//! them so a slowdown the minimum hides is still visible.

/// Nearest-rank percentile of `values` (`q` in 0..=1). Panics on empty input.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `t_i = min over passes` for every op; `passes[p][i]` is op `i` in pass `p`.
pub fn per_op_min(passes: &[Vec<f64>]) -> Vec<f64> {
    let mut best = passes[0].clone();
    for pass in &passes[1..] {
        for (b, &t) in best.iter_mut().zip(pass) {
            *b = b.min(t);
        }
    }
    best
}

/// Per-op median over passes, for ops whose latency is set by a timer
/// phase: there the minimum measures luck, and sinks as passes are added.
pub fn per_op_median(passes: &[Vec<f64>]) -> Vec<f64> {
    (0..passes[0].len())
        .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the driver's spread rule uses that function). Needs two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    (q3 - q1) / med
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert_eq!(percentile(&[2.0, 1.0], 0.0), 1.0);
    }

    #[test]
    fn per_op_minimum_hides_a_slow_pass_but_raw_does_not() {
        let passes = vec![
            vec![1.0, 5.0, 3.0],
            vec![9.0, 2.0, 3.5],
            vec![1.5, 2.5, 2.0],
        ];
        assert_eq!(per_op_min(&passes), vec![1.0, 2.0, 2.0]);
        let raw: Vec<f64> = passes.concat();
        assert_eq!(percentile(&raw, 1.0), 9.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            [15.0, 40.0, 120.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
