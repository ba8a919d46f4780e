//! Slice arithmetic: nearest-rank quantiles, the "ten samples beyond" tail
//! rule, and the best-slice summary every gated host-time metric uses.

/// Sorts a copy of `values` ascending. Timings are never NaN.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q)]
}

fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "quantile of no samples");
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The tail quantile a slice can support: percentile `q`, lowered until at
/// least `beyond` samples lie strictly beyond it. Returns the value and the
/// percentile actually used; with `beyond` or fewer samples the slice has
/// no tail to speak of and the result is its maximum at percentile 1.0.
pub fn tail_quantile(sorted: &[f64], q: f64, beyond: usize) -> (f64, f64) {
    let n = sorted.len();
    if n <= beyond {
        return (sorted[n - 1], 1.0);
    }
    let idx = rank(n, q).min(n - 1 - beyond);
    (sorted[idx], (idx + 1) as f64 / n as f64)
}

/// Which end of the slices is the good one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Times and latencies.
    Lower,
    /// Rates.
    Higher,
}

/// The best slice: minimum time, maximum rate. Sizing runs on the shared
/// 2-core host showed the minimum of 14 half-second slices repeating to 3 %
/// run to run while their median moved 13 %, so the minimum is what is
/// gated and the rest is reported beside it.
pub fn best(values: &[f64], better: Better) -> f64 {
    let it = values.iter().copied();
    match better {
        Better::Lower => it.fold(f64::INFINITY, f64::min),
        Better::Higher => it.fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Distance between the first and third quartile as a percentage of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (exclusive method). Fewer than two values have no spread.
pub fn spread_pct(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    let median = at(2);
    if median == 0.0 {
        return 0.0;
    }
    100.0 * (at(3) - at(1)) / median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 5.0);
        assert_eq!(quantile(&s, 0.9), 9.0);
        assert_eq!(quantile(&s, 1.0), 10.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 800 samples: p90 is rank 720, 80 beyond — used as asked.
        let s: Vec<f64> = (1..=800).map(f64::from).collect();
        assert_eq!(tail_quantile(&s, 0.9, 10), (720.0, 0.9));
        // 94 samples: p90 would leave 9 beyond, so it drops to rank 84.
        let s: Vec<f64> = (1..=94).map(f64::from).collect();
        let (v, q) = tail_quantile(&s, 0.9, 10);
        assert_eq!(v, 84.0);
        assert!((q - 84.0 / 94.0).abs() < 1e-12);
        // 39 samples: rank 29.
        let s: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail_quantile(&s, 0.9, 10).0, 29.0);
        // One sample: no tail, the maximum.
        assert_eq!(tail_quantile(&[3.0], 0.9, 10), (3.0, 1.0));
    }

    #[test]
    fn best_slice_picks_the_good_end() {
        let v = [0.52, 0.50, 0.71, 0.51];
        assert_eq!(best(&v, Better::Lower), 0.50);
        assert_eq!(best(&v, Better::Higher), 0.71);
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_pct(&v) - 100.0).abs() < 1e-9);
        // statistics.quantiles([2, 4, 4, 5], n=4) == [2.5, 4.0, 4.75]
        assert!((spread_pct(&[4.0, 2.0, 5.0, 4.0]) - 56.25).abs() < 1e-9);
        assert_eq!(spread_pct(&[1.0]), 0.0);
    }
}
