//! Order statistics and interval arithmetic shared by the measured run,
//! the traced run and `compare`.

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `p` in (0, 100]; an empty slice gives 0.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median as Python's `statistics.median` gives it (mean of the two
/// middle samples for an even count), so `compare` agrees with the driver.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median — the spread the driver
/// holds every end-to-end metric to.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Mean of the most favourable fifth of the windows (rounded up): the
/// highest values when `higher_is_better`, the lowest otherwise.
///
/// On a shared host interference only ever slows a window down, and it
/// comes in spells of seconds to minutes (the same build and seed has
/// given `bulk_ship` window medians of 35 ms and of 52 ms within one
/// run). The best fifth of the windows is the closest view of the
/// program's own speed a run offers: in the ten-seed studies behind
/// `AA.md` it repeated within 3–19 % where the median window repeated
/// within 3–38 %.
pub fn best_fifth(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = sorted(values);
    if higher_is_better {
        v.reverse();
    }
    let k = v.len().div_ceil(5);
    if k == 0 {
        return 0.0;
    }
    v[..k].iter().sum::<f64>() / k as f64
}

/// Total length covered by the union of `[start, end)` intervals.
pub fn interval_union(intervals: &[(f64, f64)]) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for (s, e) in v {
        open = match open {
            Some((os, oe)) if s <= oe => Some((os, oe.max(e))),
            Some((os, oe)) => {
                covered += oe - os;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    covered + open.map_or(0.0, |(s, e)| e - s)
}

/// Splits `(completed_at, value)` samples into `windows` consecutive
/// windows of `window_len` seconds starting at 0; samples past the last
/// window are dropped.
pub fn windows(samples: &[(f64, f64)], window_len: f64, windows: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); windows];
    for &(at, value) in samples {
        let w = (at / window_len) as usize;
        if at >= 0.0 && w < windows {
            out[w].push(value);
        }
    }
    out
}

/// Queries completed per window, counting a query that straddles a window
/// boundary by the share of its `[sent, done)` interval inside each
/// window. Unlike a whole-number count this moves smoothly with latency,
/// which matters when a window holds only a few dozen queries.
pub fn fractional_counts(intervals: &[(f64, f64)], window_len: f64, windows: usize) -> Vec<f64> {
    let mut out = vec![0.0; windows];
    for &(sent, done) in intervals {
        if done <= sent {
            continue;
        }
        for (w, count) in out.iter_mut().enumerate() {
            let (open, close) = (w as f64 * window_len, (w + 1) as f64 * window_len);
            let inside = done.min(close) - sent.max(open);
            if inside > 0.0 {
                *count += inside / (done - sent);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 91.0), 10.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        assert_eq!(nearest_rank(&v, 1.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 90.0), 7.0);
        assert_eq!(nearest_rank(&[], 50.0), 0.0);
    }

    #[test]
    fn median_and_quartiles_agree_with_python_statistics() {
        // statistics.median / statistics.quantiles(v, n=4) on the same data
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn window_medians_ignore_samples_outside_the_windows() {
        let samples = [
            (0.1, 1.0),
            (0.9, 3.0),
            (1.0, 10.0),
            (1.5, 20.0),
            (1.9, 30.0),
            (2.0, 99.0),
            (-0.1, 99.0),
        ];
        let w = windows(&samples, 1.0, 2);
        assert_eq!(w, vec![vec![1.0, 3.0], vec![10.0, 20.0, 30.0]]);
        let medians: Vec<f64> = w.iter().map(|x| median(x)).collect();
        assert_eq!(medians, vec![2.0, 20.0]);
        assert_eq!(median(&medians), 11.0);
    }

    #[test]
    fn best_fifth_averages_the_favourable_end() {
        let v = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0];
        // ten windows: the best two
        assert_eq!(best_fifth(&v, true), (10.0 + 9.0) / 2.0);
        assert_eq!(best_fifth(&v, false), (1.0 + 2.0) / 2.0);
        // eleven windows round up to three, two windows to one
        assert_eq!(best_fifth(&[1.0; 11], true), 1.0);
        assert_eq!(best_fifth(&[4.0, 2.0], false), 2.0);
        assert_eq!(best_fifth(&[], true), 0.0);
    }

    #[test]
    fn fractional_counts_split_straddling_queries_and_sum_to_the_total() {
        // four back-to-back queries of 0.75 s over two 1 s windows, the
        // first starting in warm-up (before 0) and the last ending late
        let q = [(-0.25, 0.5), (0.5, 1.25), (1.25, 2.0), (2.0, 2.75)];
        let c = fractional_counts(&q, 1.0, 2);
        assert!((c[0] - (0.5 / 0.75 + 0.5 / 0.75)).abs() < 1e-12, "{c:?}");
        assert!((c[1] - (0.25 / 0.75 + 1.0)).abs() < 1e-12, "{c:?}");
        // a closed loop that is always busy completes window/latency queries
        assert!((c[0] - 1.0 / 0.75).abs() < 1e-12);
    }

    #[test]
    fn interval_union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(interval_union(&[]), 0.0);
        assert_eq!(interval_union(&[(0.0, 1.0), (1.0, 2.0)]), 2.0);
        assert_eq!(interval_union(&[(0.0, 2.0), (1.0, 3.0)]), 3.0);
        assert_eq!(interval_union(&[(5.0, 6.0), (0.0, 1.0)]), 2.0);
        assert_eq!(interval_union(&[(0.0, 10.0), (2.0, 3.0), (4.0, 5.0)]), 10.0);
        // sequential exchanges: sum == union, ratio 1; fully parallel: ratio 2
        let seq = [(0.0, 1.0), (1.5, 2.5)];
        let par = [(0.0, 1.0), (0.0, 1.0)];
        assert_eq!(
            seq.iter().map(|(s, e)| e - s).sum::<f64>() / interval_union(&seq),
            1.0
        );
        assert_eq!(
            par.iter().map(|(s, e)| e - s).sum::<f64>() / interval_union(&par),
            2.0
        );
    }
}
