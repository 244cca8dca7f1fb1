//! The percentile rule: nearest rank, and the reported tail is the
//! highest percentile with at least ten samples beyond it.

use smo_e2e::stats::{median, percentile, tail};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn percentiles_use_the_nearest_rank() {
    let v = ramp(10);
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&v, 10.0), Some(1.0));
    assert_eq!(percentile(&v, 11.0), Some(2.0));
    assert_eq!(percentile(&v, 50.0), Some(5.0));
    assert_eq!(percentile(&v, 90.0), Some(9.0));
    assert_eq!(percentile(&v, 90.1), Some(10.0));
    assert_eq!(percentile(&v, 100.0), Some(10.0));
    assert_eq!(median(&ramp(7)), Some(4.0));
    assert_eq!(median(&ramp(8)), Some(4.0), "lower middle for even n");
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn no_tail_below_eleven_samples() {
    for n in 0..=10 {
        assert_eq!(tail(&ramp(n)), None, "n = {n}");
    }
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // The lowest candidate, p75, first has ten samples beyond it at n = 40.
    assert_eq!(tail(&ramp(39)), None);
    for (n, expected) in [
        (40, (75.0, 30.0)),
        (99, (75.0, 75.0)),
        (100, (90.0, 90.0)),
        (200, (95.0, 190.0)),
        (999, (95.0, 950.0)),
        (1000, (99.0, 990.0)),
        (10_000, (99.9, 9990.0)),
    ] {
        let v = ramp(n);
        let (p, value) = tail(&v).unwrap_or((f64::NAN, f64::NAN));
        assert_eq!((p, value), expected, "n = {n}");
        // At least ten samples lie above the reported value.
        let beyond = v.iter().filter(|&&x| x > value).count();
        assert!(beyond >= 10, "n = {n}: {beyond} beyond");
    }
}
