//! Order statistics and the fidelity error the benchmark reports.

/// Sorted copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    assert!(ld >= 2, "quartiles need two values");
    let (n, m) = (4, ld + 1);
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        // Negative when the clamp raised j: Python extrapolates too.
        let delta = (i * m) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    };
    (q(1), q(3))
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile that leaves at least [`TAIL_BEYOND`] samples,
/// and at least 5% of them, beyond it, with the percentile it sits at;
/// `None` with too few samples. The 5% floor (p95 from 200 samples on)
/// keeps a sub-second stall of the machine, which can cover a dozen
/// short passes, from setting the tail of a long run by itself.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    let beyond = TAIL_BEYOND.max(n.div_ceil(20));
    (n > beyond).then(|| {
        let pct = 100.0 * (n - beyond) as f64 / n as f64;
        (s[n - beyond - 1], pct)
    })
}

/// Mean of |ln(measured / reference)| over pairs: 0 when every
/// measurement matches, ln 2 when each is off by 2× either way.
pub fn mean_log_error(pairs: &[(f64, f64)]) -> f64 {
    let sum: f64 = pairs.iter().map(|(m, r)| (m / r).ln().abs()).sum();
    sum / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), (2.0, 8.0));
    }

    #[test]
    fn tail_leaves_ten_samples_and_five_percent_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (v, pct) = tail(&xs).expect("40 samples");
        assert_eq!(v, 30.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
        assert_eq!(pct, 75.0);
        let (v, pct) = tail(&(0..11).rev().map(f64::from).collect::<Vec<_>>()).expect("11");
        assert_eq!((v, pct), (0.0, 100.0 / 11.0));
        // From 200 samples on, 5% of them lie beyond: p95.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((950.0, 95.0)));
        let xs: Vec<f64> = (1..=210).map(f64::from).collect();
        let (v, pct) = tail(&xs).expect("210 samples");
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 11);
        assert!((pct - 100.0 * 199.0 / 210.0).abs() < 1e-9);
    }

    #[test]
    fn log_error_is_symmetric_and_zero_on_match() {
        assert_eq!(mean_log_error(&[(30.0, 30.0), (84.0, 84.0)]), 0.0);
        let e = mean_log_error(&[(60.0, 30.0), (42.0, 84.0)]);
        assert!((e - 2f64.ln()).abs() < 1e-12);
        // 78.4/30, 83.5/84, 161.8/120, 8.8/8.6, 9.5/16 -> 0.36
        let e = mean_log_error(&[
            (78.4, 30.0),
            (83.5, 84.0),
            (161.8, 120.0),
            (8.8, 8.6),
            (9.5, 16.0),
        ]);
        assert!((e - 0.3613).abs() < 1e-3, "{e}");
    }
}
