//! Order statistics used by every workload and by compare mode.

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Nearest rank of percentile `p` (in tenths of a percent, exactly)
/// among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000)
}

/// The highest ladder percentile that leaves at least ten samples
/// beyond it, as `(percentile, value)`. A sample too small for any
/// ladder rung reports its maximum as percentile 100.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    assert!(!sorted.is_empty(), "tail of an empty sample");
    let n = sorted.len();
    for p in TAIL_LADDER {
        let r = rank(p, n);
        if r >= 1 && n - r >= 10 {
            return (p, sorted[r - 1]);
        }
    }
    (100.0, sorted[n - 1])
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile with the same
/// interpolation as Python's `statistics.quantiles(data, n=4)` (the
/// default "exclusive" method). One value gives itself three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    assert!(ld > 0, "quartiles of an empty sample");
    if ld == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}
