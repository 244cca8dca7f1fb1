//! Order statistics for latency samples.

/// Tail percentiles considered for reporting, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// A reported tail needs at least this many samples ranked above it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p·n/100)`, clamped to `1..=n`. (`p·n` first keeps the product
/// exact for the percentiles above.)
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// Median by the nearest-rank rule (the lower middle value for even `n`).
pub fn median(sorted: &[f64]) -> Option<f64> {
    percentile(sorted, 50.0)
}

/// The highest tail percentile with at least [`TAIL_MIN_BEYOND`] samples
/// ranked above it, as `(percentile, value)`. No percentile qualifies
/// below 11 samples (the lowest candidate, p75, needs 40).
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let r = rank(p, n);
        (n >= 1 && n - r >= TAIL_MIN_BEYOND).then(|| (p, sorted[r - 1]))
    })
}

/// Sorts a sample vector ascending (total order; NaNs last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}
