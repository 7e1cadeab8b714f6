//! Exact order statistics over per-job timestamps.
//!
//! The telemetry plane's log2 histograms resolve a quantile to a power of
//! two; the benchmark keeps every job's timestamps and reads quantiles as
//! exact order statistics instead.

/// Nearest-rank quantile of an ascending sample: the smallest element with
/// at least `q` of the sample at or below it.  `None` on an empty sample.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Due→held latencies in nanoseconds, ascending.  A job not held by
/// `horizon` enters the sample *at the horizon*: an undelivered job misses
/// every latency limit, so it must pull the tail up instead of vanishing
/// from the sample.
pub fn latency_sample(jobs: &[(u64, Option<u64>)], horizon: u64) -> Vec<u64> {
    let mut out: Vec<u64> = jobs
        .iter()
        .map(|&(due, held)| held.unwrap_or(horizon).min(horizon).saturating_sub(due))
        .collect();
    out.sort_unstable();
    out
}

/// Mean of the `k` longest intervals inside `[from, to]` with no instant of
/// `sorted` in them (the window's edges count as interval ends): time
/// without service.  The single longest interval is quantised by the beat
/// period that ends it; averaging the few longest keeps the outages in view
/// and the quantisation out.
pub fn longest_gaps_mean(sorted: &[u64], from: u64, to: u64, k: usize) -> f64 {
    let mut last = from;
    let mut gaps = Vec::with_capacity(sorted.len() + 1);
    for &t in sorted.iter().filter(|&&t| t >= from && t <= to) {
        gaps.push(t - last);
        last = t;
    }
    gaps.push(to.saturating_sub(last));
    gaps.sort_unstable_by(|a, b| b.cmp(a));
    gaps.truncate(k.max(1));
    gaps.iter().sum::<u64>() as f64 / gaps.len() as f64
}

/// Median of a host-clock sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest value of a host-clock sample.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}
