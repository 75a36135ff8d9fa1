//! Exact sorted-sample statistics: no histogram buckets anywhere.

/// Samples that must lie beyond a percentile for it to be reported as a
/// tail (choosing-metrics §1).
pub const TAIL_MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// Sorts a sample in place (latencies are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
}

/// Nearest-rank percentile of a sorted, non-empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of an unsorted sample (0 for an empty one, so an op kind a
/// workload never issues reads as zero in the per-layer table).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 0.5)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Percentile `p` as a tail: refused unless at least
/// [`TAIL_MIN_BEYOND`] samples lie beyond it.
pub fn tail(sorted: &[f64], p: f64) -> Result<f64, String> {
    let n = sorted.len();
    let beyond = n.saturating_sub(if n == 0 { 0 } else { rank(n, p) });
    if beyond < TAIL_MIN_BEYOND {
        return Err(format!(
            "p{:.0} of {n} samples has {beyond} beyond it, need {TAIL_MIN_BEYOND}",
            p * 100.0
        ));
    }
    Ok(percentile(sorted, p))
}

/// The tail at `wanted`, or at the next lower rung of [`TAIL_LADDER`]
/// the sample supports. Returns the percentile used with the value.
pub fn tail_at_most(sorted: &[f64], wanted: f64) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .filter(|p| **p <= wanted)
        .find_map(|p| tail(sorted, *p).ok().map(|v| (*p, v)))
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method): the
/// three quartile cut points of an unsorted sample of at least two.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    sort(&mut v);
    let len = v.len();
    assert!(len >= 2, "quartiles need two samples");
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance rule compares against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn tail_refuses_fewer_than_ten_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        // p99 of 999 samples leaves 9 beyond it.
        assert!(tail(&v, 0.99).is_err());
        assert_eq!(tail(&v, 0.95).unwrap(), 950.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99).unwrap(), 990.0);
        assert!(tail(&[], 0.5).is_err());
    }

    #[test]
    fn tail_falls_down_the_ladder() {
        let v: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(tail_at_most(&v, 0.99), Some((0.90, 108.0)));
        assert_eq!(tail_at_most(&v, 0.75), Some((0.75, 90.0)));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_at_most(&v, 0.99), None);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
