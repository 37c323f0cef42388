//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so spreads printed here match the ones
//! recomputed in Python from the result lines.

/// Median of `samples` (mean of the two middle values for even counts).
/// `NaN` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// `(q1, median, q3)` by the exclusive method. One sample yields itself
/// three times; an empty slice yields `NaN`s.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        _ => {
            // Python's arithmetic verbatim, including its extrapolation
            // past the extreme samples for very small `n`.
            let m = (n + 1) as i64;
            let cut = |i: i64| {
                let j = (i * m / 4).clamp(1, n as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            let mid = if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            };
            (cut(1), mid, cut(3))
        }
    }
}

/// Interquartile range as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(samples);
    (q3 - q1) / med
}

/// Geometric mean of positive samples; `NaN` when empty or when any
/// sample is not positive.
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() || samples.iter().any(|&x| x <= 0.0 || x.is_nan()) {
        return f64::NAN;
    }
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// The highest percentile on the ladder 50, 90, 99, 99.9, 99.99 that still
/// has at least ten samples beyond it, with its nearest-rank value:
/// `(percentile, value)`. Fewer than twenty samples report the median.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut best = (50.0, median(samples));
    for p in [90.0, 99.0, 99.9, 99.99] {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank == 0 || n - rank < 10 {
            break;
        }
        best = (p, v[rank - 1]);
    }
    best
}

/// Nearest-rank percentile (`p` in 0..=100); `NaN` when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
        assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
        assert!(close(median(&[7.0]), 7.0));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, m, q3) = quartiles(&ten);
        assert!(close(q1, 2.75) && close(m, 5.5) && close(q3, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, m, q3) = quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert!(close(q1, 1.5) && close(m, 3.0) && close(q3, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, _, q3) = quartiles(&[1.0, 2.0]);
        assert!(close(q1, 0.75) && close(q3, 2.25));
        assert!(close(spread(&ten), (8.25 - 2.75) / 5.5));
    }

    #[test]
    fn geomean_of_powers() {
        assert!(close(geomean(&[1.0, 100.0]), 10.0));
        assert!(close(geomean(&[2.0, 2.0, 2.0]), 2.0));
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), (90.0, 90.0));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), (99.0, 990.0));
        let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&fifty), (50.0, 25.5), "p90 would leave only 5 beyond");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 50.0), 5.0);
        assert_eq!(percentile(&ten, 90.0), 9.0);
        assert_eq!(percentile(&ten, 100.0), 10.0);
        assert_eq!(percentile(&ten, 0.0), 1.0);
    }
}
