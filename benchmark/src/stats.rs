//! Order statistics and means. Every latency is reduced per (engine, op
//! class) cell first and only then combined, by geometric mean: a pooled
//! percentile over a read/write mix sits between two modes and means nothing.

/// Sorts a sample in place (latencies are finite by construction).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Nearest-rank percentile of a *sorted* sample; NaN for an empty one, so
/// that a cell nothing was filed in cannot pass for a measured 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    percentile(&v, 0.5)
}

/// Geometric mean; NaN for an empty sample or one holding a value that is
/// not positive.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Contiguous blocks a cell's samples are cut into for [`block_p95`].
pub const P95_BLOCKS: usize = 16;

/// The p95 of a cell, taken as the median over [`P95_BLOCKS`] contiguous
/// (time-ordered) blocks of each block's p95. A single host stall lands in
/// one block and moves one of sixteen values, not the result.
pub fn block_p95(in_time_order: &[f64]) -> f64 {
    let blocks = P95_BLOCKS.min(in_time_order.len().max(1));
    let per = in_time_order.len().div_ceil(blocks).max(1);
    let p95s: Vec<f64> = in_time_order
        .chunks(per)
        .map(|c| {
            let mut v = c.to_vec();
            sort(&mut v);
            percentile(&v, 0.95)
        })
        .collect();
    median(&p95s)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method), so
/// the noise study measures spread the way the benchmark driver does.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    sort(&mut v);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance over the median: the driver's spread.
pub fn iqr_spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

/// Largest minus smallest value over the median: the issue's spread.
pub fn range_spread(xs: &[f64]) -> f64 {
    let (lo, hi) = xs
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
    (hi - lo) / median(xs).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn geomean_and_percentile() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan() && geomean(&[1.0, 0.0]) == 0.0 && geomean(&[-1.0]).is_nan());
        assert!(median(&[]).is_nan());
        assert!((range_spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn block_p95_ignores_one_stall() {
        let mut xs = vec![1.0; 320];
        xs[7] = 1000.0;
        assert_eq!(block_p95(&xs), 1.0);
    }
}
