//! Small numeric helpers: order statistics, span aggregates, and the
//! JSON number formatting of the result line.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 1]`);
/// 0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, q)
}

pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// An in-memory span aggregate for one harness → layer boundary:
/// every call is counted and summed, and every `sample_every`-th
/// duration is kept for percentiles. Written out when the run ends.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub calls: u64,
    /// Items (requests) covered by all calls.
    pub items: u64,
    pub total_ns: f64,
    pub samples: Vec<f64>,
    sample_every: u64,
}

impl Span {
    pub fn new(name: &'static str, sample_every: u64) -> Self {
        Self { name, calls: 0, items: 0, total_ns: 0.0, samples: Vec::new(), sample_every }
    }

    pub fn record(&mut self, start: Instant, end: Instant, items: u64) {
        let d = ns(end.duration_since(start));
        if self.calls.is_multiple_of(self.sample_every) {
            self.samples.push(d);
        }
        self.calls += 1;
        self.items += items;
        self.total_ns += d;
    }

    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            return 0.0;
        }
        self.total_ns / self.items as f64
    }

    pub fn summary(&self) -> String {
        format!(
            "span {:<22} calls={:<9} items={:<10} total_ms={:<10.3} ns/item={:<9.1} p50_ns={:.0} p99_ns={:.0}",
            self.name,
            self.calls,
            self.items,
            self.total_ns / 1e6,
            self.ns_per_item(),
            percentile(&self.samples, 0.5),
            percentile(&self.samples, 0.99),
        )
    }
}

/// Formats a finite metric value for the JSON result line with all its
/// digits (Rust's shortest round-trip form).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
