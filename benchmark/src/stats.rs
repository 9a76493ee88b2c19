//! Order statistics over timing samples: the median and the tail rule.

/// The tail of a sample set: the highest percentile, up to a cap, that still
/// has at least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The tail value (a sample, not an interpolation).
    pub value: f64,
    /// Its percentile rank: the share of samples at or below it, in percent.
    pub percentile: f64,
    /// Samples strictly beyond it in sorted order.
    pub beyond: usize,
}

/// Samples a tail percentile must leave beyond itself.
pub const TAIL_BEYOND: usize = 10;

/// The cap on the reported tail percentile. Above about p95, round-trip
/// times on a shared host are set by rare stalls of the host, and ten runs
/// of `serve-mixed` spread by 18% (p99) to 34% (11th-largest sample), more
/// than the benchmark's bound. At p95 they spread by about 6%.
pub const TAIL_CAP_PERCENTILE: f64 = 95.0;

/// Sorted copy of `xs` (ascending, NaN-free input assumed).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the two middle samples for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Arithmetic mean of `xs`; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The highest percentile of rank at most `cap` with at least ten samples
/// beyond it. With `N` samples sorted ascending, the sample at index `i`
/// has rank `100·(i + 1)/N`. Ten samples beyond means `i ≤ N − 11`, and
/// the cap means `i ≤ ⌊cap·N/100⌋ − 1`. With `cap = 100` this is the 11th
/// largest sample. With fewer than eleven samples no percentile qualifies:
/// the maximum is returned with the count actually beyond it (zero), so the
/// report can say so.
pub fn tail(xs: &[f64], cap: f64) -> Tail {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return Tail { value: 0.0, percentile: 0.0, beyond: 0 };
    }
    if n <= TAIL_BEYOND {
        return Tail { value: v[n - 1], percentile: 100.0, beyond: 0 };
    }
    let capped = ((cap / 100.0 * n as f64).floor() as usize).max(1) - 1;
    let idx = (n - TAIL_BEYOND - 1).min(capped);
    Tail { value: v[idx], percentile: 100.0 * (idx + 1) as f64 / n as f64, beyond: n - idx - 1 }
}
