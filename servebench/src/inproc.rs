//! The in-process tier: `ccn_engine::Cluster`, driven through its public
//! API by one generator thread. `Cluster` has no completion callback,
//! so completion is observed from outside by polling each client
//! node's `tier_totals()`; a run counts as complete once its node's
//! completion count covers it (in-order completion).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use ccn_engine::{Cluster, ClusterConfig, EngineError, EngineMetrics};
use ccn_sim::ContentId;

use crate::host;
use crate::phase::{slices, Degradation, Paced, Repeat, Sample, Saturation, PACED_WINDOW};
use crate::stats::{ns, Span};
use crate::workload::{
    Layout, RunOracle, Streams, Workload, CAPACITY, CATALOGUE, NODES, QUEUE_CAPACITY, RUN,
};

/// Requests a node's clients may have in flight in the saturation
/// phase: the whole cluster's credit equals one ring's capacity, so no
/// ring — fed by its own clients and by peer forwards — can fill, and
/// nothing can be shed.
pub const CREDIT: u64 = (QUEUE_CAPACITY / NODES) as u64;

/// Requested gap between completion polls in the paced phase. The
/// generator sleeps between polls (a generator that spins instead takes
/// a core from the shard workers on a 2-core host and moves their
/// tails); timer slack makes the real gap longer, and the measured gap
/// is reported.
pub const POLL: Duration = Duration::from_micros(20);

pub fn config(w: &Workload) -> ClusterConfig {
    ClusterConfig {
        nodes: NODES,
        shards_per_node: 1,
        queue_capacity: QUEUE_CAPACITY,
        catalogue: CATALOGUE,
        capacity: CAPACITY,
        ell: w.ell,
        policy: w.policy,
        ..ClusterConfig::default()
    }
}

/// Brings up a serving cluster; returns it with its set-up time.
pub fn bring_up(w: &Workload) -> Result<(Cluster, Duration), EngineError> {
    let cfg = config(w);
    let t = Instant::now();
    let cluster = Cluster::new(cfg)?;
    Ok((cluster, t.elapsed()))
}

pub fn degradation(m: &EngineMetrics) -> Degradation {
    Degradation {
        max_queue_depth: m.max_queue_depth as u64,
        degraded_to_origin: m.degraded_to_origin,
        retried: m.retried,
        failed_over: m.failed_over,
        deadline_expired: m.deadline_expired,
        health_marked_down: m.health_marked_down,
    }
}

fn completed(cluster: &Cluster) -> [u64; NODES] {
    let totals = cluster.tier_totals();
    std::array::from_fn(|n| totals[n].total())
}

fn tiers(cluster: &Cluster) -> [[u64; 3]; NODES] {
    let totals = cluster.tier_totals();
    std::array::from_fn(|n| [totals[n].local, totals[n].peer, totals[n].origin])
}

/// Per-node generator state.
struct Lane {
    next_run: u64,
    /// Requests admitted so far (cumulative, this phase).
    admitted: u64,
    /// Completion count at phase start.
    base: u64,
    /// `(cumulative admitted target, due time, admitted)` per run
    /// awaiting completion (paced phase).
    pending: VecDeque<(u64, Instant, u64)>,
}

struct Generator<'a> {
    streams: &'a Streams,
    layout: Layout,
    oracle: Option<&'a RunOracle>,
    lanes: Vec<Lane>,
    buf: Vec<ContentId>,
}

impl<'a> Generator<'a> {
    fn new(
        cluster: &'a Cluster,
        streams: &'a Streams,
        w: &Workload,
        oracle: Option<&'a RunOracle>,
        first_run: u64,
    ) -> Self {
        let base = completed(cluster);
        let lanes = (0..NODES)
            .map(|n| Lane {
                next_run: first_run,
                admitted: 0,
                base: base[n],
                pending: VecDeque::new(),
            })
            .collect();
        Self { streams, layout: w.layout(), oracle, lanes, buf: Vec::with_capacity(RUN) }
    }

    /// Offers node `n`'s next run; returns how many requests were
    /// admitted and books the phase ledger.
    fn submit(
        &mut self,
        sub: &mut ccn_engine::BatchSubmitter<'_>,
        n: usize,
        ledger: &mut crate::phase::NodeLedger,
    ) -> u64 {
        let k = self.lanes[n].next_run;
        self.lanes[n].next_run += 1;
        self.buf.clear();
        self.buf.extend(self.streams.run(n, k).iter().map(|&c| ContentId(c)));
        let accepted = sub.submit_run(n, 0, &mut self.buf) as u64;
        self.lanes[n].admitted += accepted;
        ledger.offered += RUN as u64;
        ledger.shed += RUN as u64 - accepted;
        if let Some(oracle) = self.oracle {
            let p = oracle.predict(&self.layout, self.streams, n, k, accepted as usize);
            crate::workload::add(&mut ledger.predicted, &p);
        }
        accepted
    }
}

/// Closed-loop saturation: `repeats` back-to-back timed repeats of
/// `each` seconds, each drained before the next. With `traced`, spans
/// are kept around `submit_run` and the completion poll.
pub fn saturate(
    cluster: &Cluster,
    w: &Workload,
    streams: &Streams,
    oracle: Option<&RunOracle>,
    each: Duration,
    repeats: usize,
    traced: bool,
) -> Saturation {
    let mut out = Saturation::new();
    let mut submit_span = Span::new("cluster.submit", 16);
    let mut poll_span = Span::new("load.poll", 64);
    let before = tiers(cluster);
    let cpu0 = host::process_cpu_ns();
    let gen0 = host::thread_cpu_ns();
    let mut g = Generator::new(cluster, streams, w, oracle, 0);
    let mut sub = cluster.batch_submitter();
    for _ in 0..repeats {
        let steal0 = host::steal_ticks();
        let start = Instant::now();
        let deadline = start + each;
        let mut ops = 0u64;
        let last_done = loop {
            let t0 = if traced { Some(Instant::now()) } else { None };
            let done = completed(cluster);
            if let Some(t0) = t0 {
                poll_span.record(t0, Instant::now(), 0);
            }
            let now = Instant::now();
            let inflight =
                |g: &Generator<'_>, n: usize| g.lanes[n].admitted - (done[n] - g.lanes[n].base);
            let mut progressed = false;
            if now < deadline {
                for n in 0..NODES {
                    // At most one credit's worth of runs per poll, so a
                    // shedding ring (admitted stays put) cannot spin here.
                    for _ in 0..CREDIT / RUN as u64 {
                        if inflight(&g, n) + RUN as u64 > CREDIT {
                            break;
                        }
                        let a = if traced {
                            let t0 = Instant::now();
                            let a = g.submit(&mut sub, n, &mut out.nodes[n]);
                            submit_span.record(t0, Instant::now(), a);
                            a
                        } else {
                            g.submit(&mut sub, n, &mut out.nodes[n])
                        };
                        progressed = true;
                        ops += a;
                    }
                }
            } else if (0..NODES).all(|n| inflight(&g, n) == 0) {
                break now;
            }
            if !progressed {
                let w0 = Instant::now();
                std::thread::yield_now();
                out.credit_wait_ns += ns(w0.elapsed());
            }
        };
        let wall = last_done.duration_since(start);
        out.generator_ns += ns(wall);
        out.repeats.push(Repeat { ops, wall_ns: ns(wall), steal: host::steal_ticks() - steal0 });
    }
    out.cpu_ns = host::process_cpu_ns() - cpu0;
    out.generator_cpu_ns = host::thread_cpu_ns() - gen0;
    let after = tiers(cluster);
    for n in 0..NODES {
        let ledger = &mut out.nodes[n];
        ledger.tiers = std::array::from_fn(|t| after[n][t] - before[n][t]);
        ledger.completed = ledger.tiers.iter().sum();
    }
    if traced {
        out.spans = vec![submit_span, poll_span];
    }
    out
}

/// Open-loop paced phase at `w.paced_ops_s` for `dur`.
pub fn paced(
    cluster: &Cluster,
    w: &Workload,
    streams: &Streams,
    oracle: Option<&RunOracle>,
    dur: Duration,
) -> Paced {
    let mut out = Paced::new();
    let before = tiers(cluster);
    // Start the schedule mid-stream so the paced runs are not the
    // warm-up's runs.
    let mut g = Generator::new(cluster, streams, w, oracle, streams.runs() as u64 / 2);
    let mut sub = cluster.batch_submitter();
    let interval_ns = RUN as f64 * NODES as f64 / w.paced_ops_s * 1e9;
    let start = Instant::now() + Duration::from_millis(1);
    let end = start + dur;
    let due = |n: usize, k: u64| {
        let off = ((k as f64 + n as f64 / NODES as f64) * interval_ns) as u64;
        start + Duration::from_nanos(off)
    };
    let first = g.lanes[0].next_run;
    let mut polls = 0u64;
    let hard_stop = end + Duration::from_secs(10);
    let mut steal = host::WindowSteal::new(
        start,
        dur / slices(dur, PACED_WINDOW) as u32,
        slices(dur, PACED_WINDOW),
    );
    loop {
        let now = Instant::now();
        polls += 1;
        steal.tick(now);
        let done = completed(cluster);
        for (n, lane) in g.lanes.iter_mut().enumerate() {
            while let Some(&(target, due_at, admitted)) = lane.pending.front() {
                if done[n] - lane.base < target {
                    break;
                }
                lane.pending.pop_front();
                out.samples.push(Sample {
                    due_ns: ns(due_at.duration_since(start)),
                    latency_ns: ns(now.saturating_duration_since(due_at)),
                    n: admitted,
                });
            }
        }
        for n in 0..NODES {
            loop {
                let k = g.lanes[n].next_run;
                let due_at = due(n, k - first);
                if due_at > now || due_at >= end {
                    break;
                }
                out.lateness_ns.push(ns(now.duration_since(due_at)));
                let admitted = g.submit(&mut sub, n, &mut out.nodes[n]);
                if admitted < RUN as u64 {
                    let due_ns = ns(due_at.duration_since(start));
                    out.samples.push(Sample {
                        due_ns,
                        latency_ns: f64::INFINITY,
                        n: RUN as u64 - admitted,
                    });
                }
                if admitted > 0 {
                    let lane = &mut g.lanes[n];
                    lane.pending.push_back((lane.admitted, due_at, admitted));
                }
            }
        }
        let idle = g.lanes.iter().all(|l| l.pending.is_empty());
        if (now >= end && idle) || now >= hard_stop {
            break;
        }
        let next_due =
            (0..NODES).map(|n| due(n, g.lanes[n].next_run - first)).min().expect("nodes >= 1");
        let mut wake = now + POLL;
        if next_due < end && next_due < wake {
            wake = next_due;
        }
        if let Some(d) = wake.checked_duration_since(Instant::now()) {
            std::thread::sleep(d);
        }
    }
    out.wall_ns = ns(start.elapsed());
    out.planned_ns = ns(dur);
    steal.finish();
    out.window_steal = steal.ticks;
    out.poll_gap_ns = out.wall_ns / polls.max(1) as f64;
    let after = tiers(cluster);
    for n in 0..NODES {
        let ledger = &mut out.nodes[n];
        ledger.tiers = std::array::from_fn(|t| after[n][t] - before[n][t]);
        ledger.completed = ledger.tiers.iter().sum();
    }
    out
}
