//! The percentile rules: a timing's tail is the highest percentile
//! with at least ten samples beyond it, and quartiles match Python's
//! `statistics.quantiles(values, n=4)`.

use e2ebench::stats::{median, quartiles, tail};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_needs_ten_samples_beyond() {
    // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
    assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
    // 999 samples: p99 would leave 9, so p90 (rank 900) is reported.
    assert_eq!(tail(&ramp(999)), (90.0, 900.0));
    // 20 samples: only the median leaves 10 beyond.
    assert_eq!(tail(&ramp(20)), (50.0, 10.0));
    // Too few for any rung: the maximum, labelled 100.
    assert_eq!(tail(&ramp(6)), (100.0, 6.0));
}

#[test]
fn tail_prefers_the_highest_qualifying_rung() {
    // 10_000 samples support p99.9 (rank 9990, 10 beyond).
    assert_eq!(tail(&ramp(10_000)).0, 99.9);
    // 2000 samples: p99.9 leaves 2, p99 (rank 1980) leaves 20.
    assert_eq!(tail(&ramp(2000)).0, 99.0);
}

#[test]
fn quartiles_match_python_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&ramp(10)), (2.75, 5.5, 8.25));
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&ramp(5)), (1.5, 3.0, 4.5));
    // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
    assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
}

#[test]
fn median_of_even_and_odd_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}
