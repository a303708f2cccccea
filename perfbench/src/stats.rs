//! Order statistics used by every workload and by the steadiness tool.

/// Tail percentiles considered by [`highest_tail`], highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of percentile `p` in a sorted sample of
/// `n` values: the smallest rank `r` with `r >= p/100 * n`.
fn rank(n: usize, p: f64) -> usize {
    debug_assert!(n > 0 && p > 0.0 && p <= 100.0);
    // The epsilon keeps exact products such as 0.9 * 100 from rounding
    // up to the next rank.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

/// How many samples of an `n`-sample set lie beyond percentile `p`.
fn beyond(n: usize, p: f64) -> usize {
    n - 1 - rank(n, p)
}

/// The highest of [`TAIL_CANDIDATES`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it, or `None` for fewer than 11 samples.
pub fn highest_tail(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Percentile `p` of `sorted`, or an error when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (the tail would be a handful of
/// outliers, not a percentile).
pub fn tail(sorted: &[f64], p: f64, what: &str) -> Result<f64, String> {
    if sorted.is_empty() || beyond(sorted.len(), p) < MIN_BEYOND {
        return Err(format!(
            "{what}: {} samples are too few for p{p} (need {} beyond it)",
            sorted.len(),
            MIN_BEYOND
        ));
    }
    Ok(percentile(sorted, p))
}

/// One line describing a sorted sample of timings: its size, median and
/// highest tail percentile with at least [`MIN_BEYOND`] samples beyond.
pub fn describe(what: &str, sorted_ms: &[f64]) -> String {
    if sorted_ms.is_empty() {
        return format!("{what}: no samples");
    }
    let mut line = format!(
        "{what}: n={} p50={:.6} ms",
        sorted_ms.len(),
        percentile(sorted_ms, 50.0)
    );
    if let Some(p) = highest_tail(sorted_ms.len()).filter(|&p| p > 50.0) {
        line += &format!(" p{p}={:.6} ms", percentile(sorted_ms, p));
    }
    line
}

/// Sorts a sample in place (NaN-free input) and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median of an unsorted sample (mean of the middle pair for even
/// sizes, as Python's `statistics.median`).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), which is how a benchmark's spread is judged.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v.to_vec());
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let med = median(v);
    if med == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        let w = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&sorted(w.to_vec()), 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // 11 values: p50 is the 6th (ceil 5.5).
        let x: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&x, 50.0), 6.0);
    }

    #[test]
    fn highest_tail_keeps_ten_samples_beyond() {
        assert_eq!(highest_tail(0), None);
        assert_eq!(highest_tail(10), None);
        // 20 samples: p50 is rank 10, leaving 10 beyond; p90 leaves 2.
        assert_eq!(highest_tail(20), Some(50.0));
        assert_eq!(highest_tail(99), Some(50.0));
        // 100 samples: p90 leaves exactly 10 beyond.
        assert_eq!(highest_tail(100), Some(90.0));
        assert_eq!(highest_tail(999), Some(90.0));
        assert_eq!(highest_tail(1000), Some(99.0));
        assert_eq!(highest_tail(10_000), Some(99.9));
        for n in 1..3000 {
            if let Some(p) = highest_tail(n) {
                assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn describe_states_count_median_and_highest_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            describe("op", &v),
            "op: n=100 p50=50.000000 ms p90=90.000000 ms"
        );
        assert_eq!(describe("op", &v[..15]), "op: n=15 p50=8.000000 ms");
        assert_eq!(describe("op", &[]), "op: no samples");
    }

    #[test]
    fn tail_refuses_thin_tails() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v, 90.0, "x"), Ok(90.0));
        assert!(tail(&v, 99.0, "x").is_err());
        assert!(tail(&[], 50.0, "x").is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
