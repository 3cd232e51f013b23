//! `servebench` — one serving benchmark for both `ccn-engine` tiers.
//!
//! ```text
//! servebench --workload <inproc-static|inproc-lru|wire-coord|all> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run brings the serving system up several times (`setup_s` is
//! the median), then measures a closed-loop saturation phase whose
//! credit never exceeds ring capacity (`throughput_ops_s`, zero shed by
//! construction) and an open-loop paced phase at a fixed absolute rate
//! timed from each request's due time (`p50_us`, `p90_us`). Outputs are
//! checked against the harness's own oracle; a failed check or an
//! invalid run exits non-zero without printing metrics. The last line
//! of standard output is the JSON result; `--trace 1` reports the
//! per-layer metrics and the layer ledger instead of the end-to-end
//! ones. See README.md.

mod guard;
mod host;
mod inproc;
mod phase;
mod probes;
mod stats;
mod wire;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use ccn_engine::StorePolicy;

use crate::phase::{slices, Degradation, NodeLedger, Paced, Saturation};
use crate::probes::Probes;
use crate::workload::{
    fractions, RunOracle, Streams, Tier, Tiers, Workload, LOCAL, NODES, ORIGIN, PEER, RUN,
};

/// Bring-ups per run; `setup_s` is their median.
const SETUP_REPS_INPROC: usize = 25;
const SETUP_REPS_WIRE: usize = 9;
/// Untimed closed-loop warm-up before the timed phases, so LRU stores
/// are full and peer links are open.
const WARM_UP: Duration = Duration::from_millis(300);
/// Rounds the sequential LRU replay runs before it starts counting.
const LRU_WARM_ROUNDS: u64 = 1_024;
/// Largest gap allowed between the LRU cluster's tier fractions and
/// the sequential `LruStore` replay.
const LRU_TOLERANCE: f64 = 0.02;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Why a run produced no metrics.
enum Failure {
    Incorrect(Vec<String>),
    Invalid(Vec<String>),
    Error(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Error(e)
    }
}

/// One named metric value.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_owned(), value, unit }
}

struct Output {
    metrics: Vec<Metric>,
    attempted: u64,
}

/// Everything one workload run measured.
struct Measured {
    setup_s: Vec<f64>,
    sat: Saturation,
    sat_deg: Degradation,
    traced: Option<Saturation>,
    paced: Paced,
    paced_deg: Degradation,
    /// Wire only: client frames and bytes (both directions) over the
    /// untraced saturation phase, and the node-side forward counters.
    wire_frames: u64,
    wire_bytes: u64,
    coalesce_factor: f64,
    forward_rtt_mean_us: f64,
    socket_rtt_us: f64,
    socket_cpu_ns: f64,
    forward_batch_rtt_us: f64,
    errors: Vec<String>,
}

/// Half of the run saturates, in [`phase::REPEAT`]-long repeats.
fn saturation_plan(seconds: f64) -> (Duration, usize) {
    let half = Duration::from_secs_f64(seconds / 2.0);
    let repeats = slices(half, phase::REPEAT);
    (half / repeats as u32, repeats)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn measure_inproc(
    w: &Workload,
    streams: &Streams,
    oracle: Option<&RunOracle>,
    seconds: f64,
    trace: bool,
) -> Result<Measured, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS_INPROC);
    let mut cluster = None;
    for _ in 0..SETUP_REPS_INPROC {
        let (c, d) = inproc::bring_up(w).map_err(|e| format!("cluster bring-up: {e}"))?;
        setup_s.push(secs(d));
        if let Some(old) = cluster.replace(c) {
            let _ = old.finish();
        }
    }
    let cluster = cluster.expect("at least one bring-up");
    let (each, repeats) = saturation_plan(seconds);
    inproc::saturate(&cluster, w, streams, None, WARM_UP, 1, false);
    let sat = inproc::saturate(&cluster, w, streams, oracle, each, repeats, false);
    let traced = trace.then(|| inproc::saturate(&cluster, w, streams, oracle, each, repeats, true));
    let sat_deg = inproc::degradation(&cluster.finish());
    // The paced phase gets a fresh cluster, so its degradation counters
    // are its own.
    let (cluster, _) = inproc::bring_up(w).map_err(|e| format!("cluster bring-up: {e}"))?;
    inproc::saturate(&cluster, w, streams, None, WARM_UP, 1, false);
    let paced = inproc::paced(&cluster, w, streams, oracle, Duration::from_secs_f64(seconds / 2.0));
    let paced_deg = inproc::degradation(&cluster.finish());
    let (mut socket_rtt_us, mut socket_cpu_ns, mut forward_batch_rtt_us) = (0.0, 0.0, 0.0);
    if trace {
        // The socket probes need a running wire pair; the in-process
        // tier never crosses it, so these predict nothing here.
        let (mut wc, _) = wire::bring_up(w)?;
        (socket_rtt_us, socket_cpu_ns) = probes::socket_rtt(&mut wc.clients[0])?;
        forward_batch_rtt_us = probes::forward_rtt(&mut wc.clients[0], streams)?;
        wc.teardown()?;
    }
    Ok(Measured {
        setup_s,
        sat,
        sat_deg,
        traced,
        paced,
        paced_deg,
        wire_frames: 0,
        wire_bytes: 0,
        coalesce_factor: 0.0,
        forward_rtt_mean_us: 0.0,
        socket_rtt_us,
        socket_cpu_ns,
        forward_batch_rtt_us,
        errors: Vec::new(),
    })
}

/// Node `Stats` deltas must agree with what the client saw.
fn check_node_stats(
    phase: &str,
    before: &[ccn_engine::net::NodeStatsSnapshot],
    after: &[ccn_engine::net::NodeStatsSnapshot],
    nodes: &[NodeLedger],
    errors: &mut Vec<String>,
) {
    for (n, ((b, a), l)) in before.iter().zip(after).zip(nodes).enumerate() {
        let got = [
            a.lookups - b.lookups,
            a.local - b.local,
            a.peer - b.peer,
            a.origin - b.origin,
            a.shed - b.shed,
        ];
        let want = [l.offered, l.tiers[LOCAL], l.tiers[PEER], l.tiers[ORIGIN], l.shed];
        if got != want {
            errors.push(format!(
                "{phase}: node {n} Stats deltas [lookups, local, peer, origin, shed] = {got:?}, client replies say {want:?}"
            ));
        }
    }
}

fn measure_wire(
    w: &Workload,
    streams: &Streams,
    oracle: Option<&RunOracle>,
    seconds: f64,
    trace: bool,
) -> Result<Measured, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS_WIRE);
    let mut cluster = None;
    for _ in 0..SETUP_REPS_WIRE {
        let (c, d) = wire::bring_up(w)?;
        setup_s.push(secs(d));
        if let Some(old) = cluster.replace(c) {
            old.teardown()?;
        }
    }
    let mut wc = cluster.expect("at least one bring-up");
    let (each, repeats) = saturation_plan(seconds);
    let mut errors = Vec::new();
    wire::saturate(&mut wc, w, streams, None, WARM_UP, 1, false)?;
    let s0 = wc.stats()?;
    let (frames0, bytes0) = wc.traffic();
    let sat = wire::saturate(&mut wc, w, streams, oracle, each, repeats, false)?;
    let (frames1, bytes1) = wc.traffic();
    let (wire_frames, wire_bytes) = (frames1 - frames0, bytes1 - bytes0);
    let s1 = wc.stats()?;
    check_node_stats("saturation", &s0, &s1, &sat.nodes, &mut errors);
    let mut sat_deg = wire::degradation(&s0, &s1);
    let d = |f: fn(&ccn_engine::net::NodeStatsSnapshot) -> u64| -> f64 {
        s0.iter().zip(&s1).map(|(b, a)| f(a) - f(b)).sum::<u64>() as f64
    };
    let coalesce_factor = d(|s| s.forwards_out) / d(|s| s.forward_batches).max(1.0);
    let forward_rtt_mean_us = d(|s| s.rtt_sum_us) / d(|s| s.rtt_count).max(1.0);
    let (traced, s1) = if trace {
        let traced = wire::saturate(&mut wc, w, streams, oracle, each, repeats, true)?;
        let s1t = wc.stats()?;
        check_node_stats("traced saturation", &s1, &s1t, &traced.nodes, &mut errors);
        sat_deg.add(&wire::degradation(&s1, &s1t));
        (Some(traced), s1t)
    } else {
        (None, s1)
    };
    let paced = wire::paced(&mut wc, w, streams, oracle, Duration::from_secs_f64(seconds / 2.0))?;
    let s2 = wc.stats()?;
    check_node_stats("paced", &s1, &s2, &paced.nodes, &mut errors);
    let paced_deg = wire::degradation(&s1, &s2);
    let (mut socket_rtt_us, mut socket_cpu_ns, mut forward_batch_rtt_us) = (0.0, 0.0, 0.0);
    if trace {
        (socket_rtt_us, socket_cpu_ns) = probes::socket_rtt(&mut wc.clients[0])?;
        forward_batch_rtt_us = probes::forward_rtt(&mut wc.clients[0], streams)?;
    }
    wc.teardown()?;
    Ok(Measured {
        setup_s,
        sat,
        sat_deg,
        traced,
        paced,
        paced_deg,
        wire_frames,
        wire_bytes,
        coalesce_factor,
        forward_rtt_mean_us,
        socket_rtt_us,
        socket_cpu_ns,
        forward_batch_rtt_us,
        errors,
    })
}

fn sum_tiers(nodes: &[NodeLedger]) -> Tiers {
    let mut t = [0; 3];
    for n in nodes {
        workload::add(&mut t, &n.tiers);
    }
    t
}

/// The correctness gate: conservation per node and phase, the tier
/// oracle, and (collected while measuring) the wire reply checks.
fn correctness(w: &Workload, ms: &Measured, lru_ref: Option<[f64; 3]>) -> Vec<String> {
    let mut errors = ms.errors.clone();
    let mut phases =
        vec![("saturation", &ms.sat.nodes, ms.sat_deg), ("paced", &ms.paced.nodes, ms.paced_deg)];
    if let Some(traced) = &ms.traced {
        phases.push(("traced saturation", &traced.nodes, ms.sat_deg));
    }
    for (phase, nodes, deg) in phases {
        for (n, l) in nodes.iter().enumerate() {
            if l.offered != l.completed + l.shed {
                errors.push(format!(
                    "{phase}: node {n} offered {} != completed {} + shed {}",
                    l.offered, l.completed, l.shed
                ));
            }
            if l.tiers.iter().sum::<u64>() != l.completed {
                errors.push(format!(
                    "{phase}: node {n} tiers {:?} do not sum to completed {}",
                    l.tiers, l.completed
                ));
            }
            if w.policy == StorePolicy::Provisioned {
                // Exact unless the phase degraded forwards; degraded
                // forwards may only move peer to origin.
                let exact = l.tiers == l.predicted;
                let shifted =
                    l.tiers[LOCAL] == l.predicted[LOCAL] && l.tiers[PEER] <= l.predicted[PEER];
                if !(exact || (deg.any() && shifted)) {
                    errors.push(format!(
                        "{phase}: node {n} tiers {:?} != oracle {:?} (degradation {deg:?})",
                        l.tiers, l.predicted
                    ));
                }
            }
        }
        if let Some(reference) = lru_ref {
            if !deg.any() {
                let got = fractions(&sum_tiers(nodes));
                if got.iter().zip(&reference).any(|(a, b)| (a - b).abs() > LRU_TOLERANCE) {
                    errors.push(format!(
                        "{phase}: LRU tier fractions {got:.4?} differ from the sequential replay {reference:.4?} by more than {LRU_TOLERANCE}"
                    ));
                }
            }
        }
    }
    errors
}

fn tier_threads(w: &Workload) -> (usize, usize) {
    match w.tier {
        Tier::InProcess => (1, 0),
        Tier::Wire => (NODES, NODES),
    }
}

#[allow(clippy::too_many_lines)]
fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Output, Failure> {
    let load_start = host::loadavg_1m();
    let steal0 = host::steal_ticks();
    let streams = Streams::generate(w, seed);
    let layout = w.layout();
    let oracle = (w.policy == StorePolicy::Provisioned).then(|| RunOracle::new(&layout, &streams));
    let lru_ref = (w.policy == StorePolicy::Lru)
        .then(|| workload::lru_replay(&layout, &streams, LRU_WARM_ROUNDS, streams.runs() as u64));
    let ms = match w.tier {
        Tier::InProcess => measure_inproc(w, &streams, oracle.as_ref(), seconds, trace)?,
        Tier::Wire => measure_wire(w, &streams, oracle.as_ref(), seconds, trace)?,
    };
    let probes = if trace { Some(probes::run(w, &streams, seed)?) } else { None };
    let (over_p50, over_p99, over_max) = host::sleep_overshoot_us(200);
    let (generator_threads, connections) = tier_threads(w);
    let facts = host::HostFacts {
        visible_cores: ccn_engine::available_cores(),
        generator_threads,
        connections,
        shard_workers: NODES,
        loadavg_start: load_start,
        loadavg_end: host::loadavg_1m(),
        steal_ticks: host::steal_ticks() - steal0,
        sleep_overshoot_p50_us: over_p50,
        sleep_overshoot_p99_us: over_p99,
        sleep_overshoot_max_us: over_max,
        git: host::git_describe(),
        profile: host::profile(),
    };
    println!("{}", facts.json());

    let errors = correctness(w, &ms, lru_ref);
    if !errors.is_empty() {
        return Err(Failure::Incorrect(errors));
    }
    let windows = ms.paced.window_us(0.99);
    let per_window_samples: Vec<u64> = ms.paced.windows().iter().map(|w| w.len() as u64).collect();
    let refusals = guard::refusals(&guard::RunFacts {
        visible_cores: facts.visible_cores,
        generator_threads,
        connections,
        saturation_s: ms.sat.wall_ns() / 1e9,
        saturation_ops: ms.sat.ops(),
        saturation_shed: ms.sat.nodes.iter().map(|n| n.shed).sum(),
        saturation_degraded: ms.sat_deg.any(),
        paced_s: ms.paced.planned_ns / 1e9,
        min_window_samples: per_window_samples.iter().copied().min().unwrap_or(0),
        late_p99_us: ms.paced.late_p99_us(),
    });
    if !refusals.is_empty() {
        return Err(Failure::Invalid(refusals));
    }

    let offered: u64 = ms.sat.nodes.iter().chain(&ms.paced.nodes).map(|n| n.offered).sum();
    let shed: u64 = ms.sat.nodes.iter().chain(&ms.paced.nodes).map(|n| n.shed).sum();
    let paced_offered: u64 = ms.paced.nodes.iter().map(|n| n.offered).sum();
    let shed_frac = shed as f64 / offered as f64;
    let paced_shed_frac = ms.paced.shed() as f64 / paced_offered.max(1) as f64;
    let throughput = ms.sat.throughput();
    let p50 = ms.paced.latency_us(0.5);
    let p90 = ms.paced.latency_us(0.9);
    let p99 = ms.paced.latency_us(0.99);
    let setup = stats::median(&ms.setup_s);
    let tier_frac = fractions(&sum_tiers(&ms.sat.nodes));
    let cpu_ns_per_op = ms.sat.cpu_ns / ms.sat.ops() as f64;

    let tput: Vec<f64> = ms.sat.repeats.iter().map(phase::Repeat::ops_per_s).collect();
    let repeat_steal: Vec<u64> = ms.sat.repeats.iter().map(|r| r.steal).collect();
    println!(
        "saturation: {} repeats of {:.3} s, throughput median {:.0} ops/s over the host-quiet repeats {:?} (repeats {:.0?}; repeat steal ticks {:?}), {} requests, shed {}, credit_wait_frac {:.3}, cpu {:.1} ns/op, tiers local/peer/origin {:.4}/{:.4}/{:.4}, degradation {:?}",
        ms.sat.repeats.len(),
        ms.sat.wall_ns() / 1e9 / ms.sat.repeats.len() as f64,
        throughput,
        host::quiet(&repeat_steal),
        tput,
        repeat_steal,
        ms.sat.ops(),
        ms.sat.nodes.iter().map(|n| n.shed).sum::<u64>(),
        ms.sat.credit_wait_frac(),
        cpu_ns_per_op,
        tier_frac[LOCAL],
        tier_frac[PEER],
        tier_frac[ORIGIN],
        ms.sat_deg,
    );
    println!(
        "paced: {:.0} ops/s for {:.1} s, p50 {:.1} us, p99 {:.1} us (median over the host-quiet windows {:?} of {}; window p99s {:.1?}; window steal ticks {:?}; samples per window {:?}, {} requests served), whole-phase p99 {:.1} us, shed {} ({:.5}), generator late p99 {:.1} us, poll interval {:.1} us, degradation {:?}",
        w.paced_ops_s,
        ms.paced.planned_ns / 1e9,
        p50,
        p99,
        host::quiet(&ms.paced.window_steal),
        ms.paced.window_steal.len(),
        windows,
        ms.paced.window_steal,
        per_window_samples,
        ms.paced.served(),
        ms.paced.overall_us(0.99),
        ms.paced.shed(),
        paced_shed_frac,
        ms.paced.late_p99_us(),
        ms.paced.poll_gap_ns / 1e3,
        ms.paced_deg,
    );
    println!(
        "paced percentiles (host-quiet window medians): p50 {p50:.1} us, p90 {p90:.1} us, p95 {:.1} us, p99 {p99:.1} us; whole phase: p50 {:.1} p90 {:.1} p95 {:.1} p99 {:.1} us over {} requests",
        ms.paced.latency_us(0.95),
        ms.paced.overall_us(0.5),
        ms.paced.overall_us(0.9),
        ms.paced.overall_us(0.95),
        ms.paced.overall_us(0.99),
        ms.paced.served() + ms.paced.shed(),
    );
    if let Some(reference) = lru_ref {
        println!(
            "lru oracle: sequential LruStore replay gives local/peer/origin {:.4}/{:.4}/{:.4}",
            reference[LOCAL], reference[PEER], reference[ORIGIN]
        );
    }
    println!("setup: median {setup:.6} s over {} bring-ups {:.6?}", ms.setup_s.len(), ms.setup_s);
    println!(
        "report {}.shed_frac = {shed_frac} ratio ({shed} of {offered} offered over both phases)",
        w.name
    );
    println!(
        "report {}.p99_us = {p99} us (median over the host-quiet windows; {} paced requests)",
        w.name,
        ms.paced.served() + ms.paced.shed()
    );
    println!("correctness: ok (conservation per node and phase, tier oracle, wire reply tags and tallies)");

    let mut metrics = vec![
        m("throughput_ops_s", throughput, "ops/s"),
        m("p50_us", p50, "us"),
        m("p90_us", p90, "us"),
        m("setup_s", setup, "s"),
    ];
    if let (Some(traced), Some(p)) = (&ms.traced, &probes) {
        metrics = layer_metrics(
            w,
            &ms,
            traced,
            p,
            &facts,
            shed_frac,
            paced_shed_frac,
            tier_frac,
            cpu_ns_per_op,
        );
    }
    Ok(Output { metrics, attempted: offered })
}

/// The per-layer metrics of a traced run, and the printed layer
/// ledger: stage costs per request that should sum to the end-to-end
/// CPU cost per request, the unexplained residual, and the tracing
/// overhead.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn layer_metrics(
    w: &Workload,
    ms: &Measured,
    traced: &Saturation,
    p: &Probes,
    facts: &host::HostFacts,
    shed_frac: f64,
    paced_shed_frac: f64,
    tier_frac: [f64; 3],
    cpu_ns_per_op: f64,
) -> Vec<Metric> {
    let ops = ms.sat.ops() as f64;
    let traced_ops = traced.ops() as f64;
    let peer = tier_frac[PEER];
    let store_ns = match w.policy {
        StorePolicy::Provisioned => p.store_static_ns,
        StorePolicy::Lru => p.store_lru_ns,
    };
    let submit_ns = traced.span("cluster.submit").map_or(0.0, stats::Span::ns_per_item);
    let poll_ns = traced.span("load.poll").map_or(0.0, |s| s.total_ns / traced_ops);
    println!("load {}: completion poll {poll_ns:.1} ns/op on the generator thread", w.name);
    let frame = traced.span("wire.frame");
    let frame_p50 = frame.map_or(0.0, |s| stats::percentile(&s.samples, 0.5) / 1e3);
    let frame_p99 = frame.map_or(0.0, |s| stats::percentile(&s.samples, 0.99) / 1e3);
    let frames_per_op = ms.wire_frames as f64 / ops;
    let bytes_per_op = ms.wire_bytes as f64 / ops;
    let stages: Vec<(&str, f64)> = match w.tier {
        Tier::InProcess => vec![
            ("cluster.submit (job build + ring claim/publish)", submit_ns),
            ("routing.route", p.route_ns),
            ("ring hop (worker drain + peer re-enqueue)", p.ring_mpsc_ns * (1.0 + peer)),
            ("store op (edge + holder)", store_ns * (1.0 + peer)),
        ],
        Tier::Wire => {
            let rtt_frames = 1.0 / RUN as f64 + peer / ms.coalesce_factor.max(1.0);
            vec![
                (
                    "codec (lookup + served + forward frame)",
                    (p.encode64_ns + p.decode64_ns) / RUN as f64,
                ),
                ("socket round trips (client + peer frames)", ms.socket_cpu_ns * rtt_frames),
                ("shard.probe_batch (edge + holder)", p.shard_probe_batch_ns * (1.0 + peer)),
                ("routing.route", p.route_ns),
            ]
        }
    };
    // The serving system's CPU per request: everything but the
    // generator threads, plus the engine code the in-process generator
    // runs inside `submit_run`.
    let system_ns = ms.sat.system_cpu_ns_per_op() + submit_ns;
    let staged: f64 = stages.iter().map(|s| s.1).sum();
    let residual = (system_ns - staged) / system_ns;
    let overhead = (ms.sat.throughput() - traced.throughput()) / ms.sat.throughput();
    println!(
        "ledger {}: serving system {:.1} CPU ns/op (process {:.1}, generator {:.1}; {:.1} wall ns/op on {} cores)",
        w.name,
        system_ns,
        cpu_ns_per_op,
        ms.sat.generator_cpu_ns / ops,
        1e9 / ms.sat.throughput(),
        facts.visible_cores
    );
    for (name, v) in &stages {
        println!(
            "ledger {}:   {:<46} {:>9.1} ns/op  {:>6.1}%",
            w.name,
            name,
            v,
            v / system_ns * 100.0
        );
    }
    println!(
        "ledger {}:   {:<46} {:>9.1} ns/op  {:>6.1}%",
        w.name,
        "residual (unexplained)",
        system_ns - staged,
        residual * 100.0
    );
    println!(
        "ledger {}: tracing overhead {:.4} (untraced {:.0} vs traced {:.0} ops/s)",
        w.name,
        overhead,
        ms.sat.throughput(),
        traced.throughput()
    );
    for s in &traced.spans {
        println!("{}", s.summary());
    }
    let c = |v: u64| v as f64;
    vec![
        m("routing.route_ns", p.route_ns, "ns"),
        m("ring.mpsc_ns_per_item", p.ring_mpsc_ns, "ns"),
        m("ring.spsc_ns_per_item", p.ring_spsc_ns, "ns"),
        m("cluster.submit_ns_per_op", submit_ns, "ns"),
        m("store.static_ns", p.store_static_ns, "ns"),
        m("store.lru_ns", p.store_lru_ns, "ns"),
        m("store.random_ns", p.store_random_ns, "ns"),
        m("store.lru_hit_frac", p.lru_hit_frac, "ratio"),
        m("store.random_hit_frac", p.random_hit_frac, "ratio"),
        m("shard.probe_batch_ns_per_item", p.shard_probe_batch_ns, "ns"),
        m("shard.apply_ns", p.shard_apply_ns, "ns"),
        m("codec.encode64_ns", p.encode64_ns, "ns"),
        m("codec.decode64_ns", p.decode64_ns, "ns"),
        m("codec.encode256_ns", p.encode256_ns, "ns"),
        m("codec.decode256_ns", p.decode256_ns, "ns"),
        m("socket.rtt_us", ms.socket_rtt_us, "us"),
        m("socket.cpu_ns_per_rtt", ms.socket_cpu_ns, "ns"),
        m("peer.forward_batch_rtt_us", ms.forward_batch_rtt_us, "us"),
        m("peer.coalesce_factor", ms.coalesce_factor, "ratio"),
        m("node.forward_rtt_mean_us", ms.forward_rtt_mean_us, "us"),
        m("wire.frame_rtt_p50_us", frame_p50, "us"),
        m("wire.frame_rtt_p99_us", frame_p99, "us"),
        m("wire.frames_per_op", frames_per_op, "count"),
        m("wire.bytes_per_op", bytes_per_op, "bytes"),
        m("tier.local_frac", tier_frac[LOCAL], "ratio"),
        m("tier.peer_frac", tier_frac[PEER], "ratio"),
        m("tier.origin_frac", tier_frac[ORIGIN], "ratio"),
        m("cluster.max_queue_depth", c(ms.paced_deg.max_queue_depth), "count"),
        m("cluster.degraded_to_origin", c(ms.paced_deg.degraded_to_origin), "count"),
        m("cluster.retried", c(ms.paced_deg.retried), "count"),
        m("cluster.failed_over", c(ms.paced_deg.failed_over), "count"),
        m("fault.health_marked_down", c(ms.paced_deg.health_marked_down), "count"),
        m("load.credit_wait_frac", ms.sat.credit_wait_frac(), "ratio"),
        m("load.late_p99_us", ms.paced.late_p99_us(), "us"),
        m("latency.p99_us", ms.paced.latency_us(0.99), "us"),
        m("latency.whole_phase_p99_us", ms.paced.overall_us(0.99), "us"),
        m("load.poll_interval_us", ms.paced.poll_gap_ns / 1e3, "us"),
        m("load.shed_frac", shed_frac, "ratio"),
        m("load.paced_shed_frac", paced_shed_frac, "ratio"),
        m("ledger.system_cpu_ns_per_op", system_ns, "ns"),
        m("load.generator_cpu_ns_per_op", ms.sat.generator_cpu_ns / ops, "ns"),
        m("ledger.residual_frac", residual, "ratio"),
        m("trace.overhead_frac", overhead, "ratio"),
        m("host.sleep_overshoot_p99_us", facts.sleep_overshoot_p99_us, "us"),
        m("host.visible_cores", c(facts.visible_cores as u64), "count"),
        m("host.steal_ticks", c(facts.steal_ticks), "count"),
    ]
}

fn result_line(correct: bool, attempted: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                stats::json_num(x.value),
                x.unit
            )
        })
        .collect();
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!("usage: servebench --workload <inproc-static|inproc-lru|wire-coord|all> --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let chosen: Vec<Workload> = if args.workload == "all" {
        workload::WORKLOADS.to_vec()
    } else if let Some(w) = workload::find(&args.workload) {
        vec![w]
    } else {
        eprintln!("servebench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let seconds = args.seconds as f64;
    let mut all = Vec::new();
    let mut attempted = 0;
    for w in &chosen {
        println!(
            "servebench workload={} seed={} seconds={} trace={}",
            w.name,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        match run(w, args.seed, seconds, args.trace) {
            Ok(out) => {
                for x in &out.metrics {
                    println!(
                        "metric {}.{} = {} {}",
                        w.name,
                        x.name,
                        stats::json_num(x.value),
                        x.unit
                    );
                }
                attempted += out.attempted;
                if chosen.len() == 1 {
                    all = out.metrics;
                } else {
                    all.extend(
                        out.metrics
                            .into_iter()
                            .map(|x| Metric { name: format!("{}.{}", w.name, x.name), ..x }),
                    );
                }
            }
            Err(Failure::Incorrect(errors)) => {
                for e in errors {
                    eprintln!("servebench: {}: correctness check failed: {e}", w.name);
                }
                return ExitCode::from(1);
            }
            Err(Failure::Invalid(reasons)) => {
                for r in reasons {
                    eprintln!("servebench: {}: run refused: {r}", w.name);
                }
                return ExitCode::from(3);
            }
            Err(Failure::Error(e)) => {
                eprintln!("servebench: {}: {e}", w.name);
                return ExitCode::from(4);
            }
        }
    }
    println!("{}", result_line(true, attempted, &all));
    ExitCode::SUCCESS
}
