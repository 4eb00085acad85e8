//! Order statistics shared by the metrics and the steadiness report.

/// Sorted copy of `v` (NaNs are not expected; they sort last).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    s
}

/// Median; NaN for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it, with that
/// percentile; with fewer than forty samples the maximum stands in.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    if s.is_empty() {
        return (f64::NAN, 100.0);
    }
    if s.len() < 40 {
        return (*s.last().unwrap_or(&f64::NAN), 100.0);
    }
    let idx = s.len() - 11;
    (s[idx], 100.0 * (idx + 1) as f64 / s.len() as f64)
}
