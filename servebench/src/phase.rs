//! What one measured phase reports, independent of the serving tier.

use std::time::Duration;

use crate::host;
use crate::stats::{self, Span};

/// Length of one saturation repeat.
pub const REPEAT: Duration = Duration::from_millis(250);
/// Length of one paced-phase window.
pub const PACED_WINDOW: Duration = Duration::from_millis(500);

/// How many slices of length `slice` fit in `d` (at least one).
pub fn slices(d: Duration, slice: Duration) -> usize {
    let n = (d.as_secs_f64() / slice.as_secs_f64()).round() as usize;
    n.max(1)
}
use crate::workload::{Tiers, NODES};

/// One node's request ledger over one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeLedger {
    /// Requests the generator offered.
    pub offered: u64,
    /// Requests the system completed (observed from outside).
    pub completed: u64,
    /// Requests refused at admission.
    pub shed: u64,
    /// Completions by tier, as the system reported them.
    pub tiers: Tiers,
    /// Completions by tier, as the harness's oracle predicts them for
    /// the admitted requests (provisioned workloads only).
    pub predicted: Tiers,
}

/// One timed repeat of the closed-loop saturation phase.
#[derive(Debug, Clone, Copy)]
pub struct Repeat {
    pub ops: u64,
    /// First submit to last observed completion.
    pub wall_ns: f64,
    /// Host steal ticks during the repeat.
    pub steal: u64,
}

impl Repeat {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.wall_ns / 1e9)
    }
}

/// Closed-loop saturation phase: credit-bounded, so nothing is shed.
#[derive(Debug, Clone, Default)]
pub struct Saturation {
    pub repeats: Vec<Repeat>,
    pub nodes: Vec<NodeLedger>,
    /// Generator time spent with no credit left (all runs in flight).
    pub credit_wait_ns: f64,
    /// Generator time over all repeats.
    pub generator_ns: f64,
    /// Process CPU time over the phase, nanoseconds.
    pub cpu_ns: f64,
    /// CPU time of the generator threads over the phase, ns.
    pub generator_cpu_ns: f64,
    /// Harness spans around the calls into the serving layers
    /// (traced runs only).
    pub spans: Vec<Span>,
}

impl Saturation {
    pub fn new() -> Self {
        Self { nodes: vec![NodeLedger::default(); NODES], ..Self::default() }
    }

    pub fn ops(&self) -> u64 {
        self.repeats.iter().map(|r| r.ops).sum()
    }

    pub fn wall_ns(&self) -> f64 {
        self.repeats.iter().map(|r| r.wall_ns).sum()
    }

    /// Median throughput over the host-quiet half of the repeats. The
    /// median, not the pooled rate: a minority of repeats can land in
    /// a much faster thread placement and would pull a mean along.
    pub fn throughput(&self) -> f64 {
        let steal: Vec<u64> = self.repeats.iter().map(|r| r.steal).collect();
        let v: Vec<f64> =
            host::quiet(&steal).into_iter().map(|i| self.repeats[i].ops_per_s()).collect();
        stats::median(&v)
    }

    /// CPU ns per completed request spent by the serving system: the
    /// process's CPU time less the generator threads'.
    pub fn system_cpu_ns_per_op(&self) -> f64 {
        (self.cpu_ns - self.generator_cpu_ns) / self.ops() as f64
    }

    pub fn credit_wait_frac(&self) -> f64 {
        if self.generator_ns <= 0.0 {
            return 0.0;
        }
        self.credit_wait_ns / self.generator_ns
    }

    pub fn span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }
}

/// One paced-phase latency observation: a run (in-process) or frame
/// (wire) issued for `due_ns` after the phase start, covering `n`
/// requests that completed `latency_ns` after they were due. Shed
/// requests are booked with an infinite latency: they miss every
/// limit.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due_ns: f64,
    pub latency_ns: f64,
    pub n: u64,
}

/// Open-loop paced phase: fixed absolute rate, latency timed from each
/// run's due time to its observed completion.
#[derive(Debug, Clone, Default)]
pub struct Paced {
    pub samples: Vec<Sample>,
    /// How late the generator issued each run, ns.
    pub lateness_ns: Vec<f64>,
    /// Mean gap between the generator's completion polls, ns.
    pub poll_gap_ns: f64,
    pub nodes: Vec<NodeLedger>,
    /// Scheduled duration of the phase, ns.
    pub planned_ns: f64,
    /// Wall duration of the phase including the final drain, ns.
    pub wall_ns: f64,
    /// Host steal ticks per window.
    pub window_steal: Vec<u64>,
}

/// Request-weighted percentile of `samples`, µs (infinite when it
/// lands among shed requests; 0 for no samples).
fn weighted_us(samples: &mut [Sample], q: f64) -> f64 {
    samples.sort_by(|a, b| a.latency_ns.total_cmp(&b.latency_ns));
    let total: u64 = samples.iter().map(|s| s.n).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for s in samples.iter() {
        seen += s.n;
        if seen >= rank {
            return s.latency_ns / 1e3;
        }
    }
    f64::INFINITY
}

impl Paced {
    pub fn new() -> Self {
        Self { nodes: vec![NodeLedger::default(); NODES], ..Self::default() }
    }

    pub fn shed(&self) -> u64 {
        self.nodes.iter().map(|n| n.shed).sum()
    }

    /// Requests that completed (have a finite latency).
    pub fn served(&self) -> u64 {
        self.samples.iter().filter(|s| s.latency_ns.is_finite()).map(|s| s.n).sum()
    }

    /// Per-window request-weighted percentile `q`, µs, for `windows`
    /// equal slices of the schedule. A window whose percentile lands
    /// among shed requests reads as the window's length: those
    /// requests were not served within it.
    pub fn window_us(&self, q: f64) -> Vec<f64> {
        let width = self.planned_ns / self.window_steal.len() as f64;
        let mut buckets = self.windows();
        buckets
            .iter_mut()
            .map(|b| {
                let v = weighted_us(b, q);
                if v.is_finite() {
                    v
                } else {
                    width / 1e3
                }
            })
            .collect()
    }

    /// Samples split by due time into the phase's windows (one per
    /// [`PACED_WINDOW`] of the schedule).
    pub fn windows(&self) -> Vec<Vec<Sample>> {
        let count = self.window_steal.len();
        let width = self.planned_ns / count as f64;
        let mut buckets: Vec<Vec<Sample>> = vec![Vec::new(); count];
        for s in &self.samples {
            let i = ((s.due_ns / width) as usize).min(count - 1);
            buckets[i].push(*s);
        }
        buckets
    }

    /// Median of the per-window percentile over the host-quiet half
    /// of the windows, µs.
    pub fn latency_us(&self, q: f64) -> f64 {
        let per_window = self.window_us(q);
        let v: Vec<f64> =
            host::quiet(&self.window_steal).into_iter().map(|i| per_window[i]).collect();
        stats::median(&v)
    }

    /// Whole-phase request-weighted percentile, µs.
    pub fn overall_us(&self, q: f64) -> f64 {
        weighted_us(&mut self.samples.clone(), q)
    }

    pub fn late_p99_us(&self) -> f64 {
        stats::percentile(&self.lateness_ns, 0.99) / 1e3
    }
}

/// Degradation counters a tier reports for a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Degradation {
    pub max_queue_depth: u64,
    pub degraded_to_origin: u64,
    pub retried: u64,
    pub failed_over: u64,
    pub deadline_expired: u64,
    pub health_marked_down: u64,
}

impl Degradation {
    pub fn add(&mut self, other: &Degradation) {
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.degraded_to_origin += other.degraded_to_origin;
        self.retried += other.retried;
        self.failed_over += other.failed_over;
        self.deadline_expired += other.deadline_expired;
        self.health_marked_down += other.health_marked_down;
    }

    /// Whether any request left its fault-free tier.
    pub fn any(&self) -> bool {
        self.degraded_to_origin + self.failed_over + self.deadline_expired + self.health_marked_down
            > 0
    }
}
