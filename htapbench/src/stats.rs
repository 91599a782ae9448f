//! Sample statistics with explicit sample-count rules.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it; below that, one outlier decides the figure and it is noise.

/// Fewest samples that must lie strictly above a percentile's rank.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0..=100). `None` unless at least
/// [`MIN_BEYOND`] samples rank above it: p99 needs 1,000 samples.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// The highest whole percentile at or below `p` (and at least the
/// median) that the sample count supports, with its value.
pub fn supported_tail(xs: &[f64], p: f64) -> Option<(f64, f64)> {
    let mut q = p.floor();
    while q >= 50.0 {
        if let Some(v) = percentile(xs, q) {
            return Some((q, v));
        }
        q -= 1.0;
    }
    None
}

/// Arithmetic mean; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Geometric mean of strictly positive samples; `None` when empty or
/// when any sample is not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}
