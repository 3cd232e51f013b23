//! The wire tier: two `ccn_engine::NodeServer`s on loopback threads
//! inside the harness, driven by the harness's own client over one
//! connection per node with tagged `BatchLookup` frames — a thread per
//! connection and a credit window of [`WINDOW`] when saturating, one
//! sleeping thread for both when paced. Completion is the tagged
//! `BatchServed` reply.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ccn_engine::net::{NodeConfig, NodeStatsSnapshot, Request, Response, PROTOCOL_VERSION};
use ccn_engine::{EngineError, NodeServer, WireSpec};

use crate::phase::{
    slices, Degradation, NodeLedger, Paced, Repeat, Sample, Saturation, PACED_WINDOW,
};
use crate::stats::{ns, Span};
use crate::workload::{
    self, RunOracle, Streams, Workload, CAPACITY, CATALOGUE, NODES, QUEUE_CAPACITY, RUN, WINDOW,
};

/// Hello id the harness's client announces (not a node id).
const CLIENT_ID: u32 = u32::MAX - 1;
/// Blocking-read limit: a reply slower than this is a failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Requested gap between reply polls in the paced phase; the measured
/// gap is reported. Coarser than the in-process tier's: polling a
/// wire frame every 20 µs made the p90 follow host noise, three times
/// its spread at 50 µs over ten seeds.
pub const POLL: Duration = Duration::from_micros(50);

pub fn fail(what: &str, detail: impl std::fmt::Display) -> String {
    format!("wire {what}: {detail}")
}

/// A framed client connection: 4-byte little-endian length prefix,
/// then the body encoded by the engine's public `Request` codec.
pub struct Client {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rstart: usize,
    rend: usize,
    wbuf: Vec<u8>,
    lookup: Request,
    pub frames_out: u64,
    pub bytes_out: u64,
    pub frames_in: u64,
    pub bytes_in: u64,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| fail("connect", e))?;
        stream.set_nodelay(true).map_err(|e| fail("nodelay", e))?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| fail("timeout", e))?;
        Ok(Self {
            stream,
            rbuf: vec![0; 1 << 16],
            rstart: 0,
            rend: 0,
            wbuf: Vec::with_capacity(1 << 12),
            lookup: Request::BatchLookup { tag: 0, contents: Vec::with_capacity(RUN) },
            frames_out: 0,
            bytes_out: 0,
            frames_in: 0,
            bytes_in: 0,
        })
    }

    fn write_frame(&mut self) -> Result<(), String> {
        let len = u32::try_from(self.wbuf.len() - 4).map_err(|e| fail("frame", e))?;
        self.wbuf[..4].copy_from_slice(&len.to_le_bytes());
        self.stream.write_all(&self.wbuf).map_err(|e| fail("write", e))?;
        self.frames_out += 1;
        self.bytes_out += self.wbuf.len() as u64;
        Ok(())
    }

    pub fn send(&mut self, req: &Request) -> Result<(), String> {
        self.wbuf.clear();
        self.wbuf.extend_from_slice(&[0; 4]);
        req.encode_into(&mut self.wbuf).map_err(|e| fail("encode", e))?;
        self.write_frame()
    }

    /// Sends one tagged `BatchLookup` for `run` without allocating.
    pub fn send_lookup(&mut self, tag: u32, run: &[u64]) -> Result<(), String> {
        if let Request::BatchLookup { tag: t, contents } = &mut self.lookup {
            *t = tag;
            contents.clear();
            contents.extend_from_slice(run);
        }
        self.wbuf.clear();
        self.wbuf.extend_from_slice(&[0; 4]);
        self.lookup.encode_into(&mut self.wbuf).map_err(|e| fail("encode", e))?;
        self.write_frame()
    }

    /// Decodes the next buffered frame, if a whole one is buffered.
    fn take_frame(&mut self) -> Result<Option<Response>, String> {
        let have = self.rend - self.rstart;
        if have < 4 {
            return Ok(None);
        }
        let h = self.rstart;
        let len = u32::from_le_bytes([
            self.rbuf[h],
            self.rbuf[h + 1],
            self.rbuf[h + 2],
            self.rbuf[h + 3],
        ]) as usize;
        if have < 4 + len {
            return Ok(None);
        }
        let resp =
            Response::decode(&self.rbuf[h + 4..h + 4 + len]).map_err(|e| fail("decode", e))?;
        self.rstart += 4 + len;
        self.frames_in += 1;
        self.bytes_in += 4 + len as u64;
        Ok(Some(resp))
    }

    /// Receives one response: blocking up to [`REPLY_TIMEOUT`], or, on
    /// a non-blocking connection, only what has already arrived
    /// (`Ok(None)` when no whole frame has).
    pub fn recv_ready(&mut self) -> Result<Option<Response>, String> {
        if let Some(r) = self.take_frame()? {
            return Ok(Some(r));
        }
        loop {
            if self.rstart == self.rend {
                self.rstart = 0;
                self.rend = 0;
            } else if self.rend == self.rbuf.len() {
                self.rbuf.copy_within(self.rstart..self.rend, 0);
                self.rend -= self.rstart;
                self.rstart = 0;
            }
            match self.stream.read(&mut self.rbuf[self.rend..]) {
                Ok(0) => return Err(fail("read", "connection closed")),
                Ok(n) => {
                    self.rend += n;
                    if let Some(r) = self.take_frame()? {
                        return Ok(Some(r));
                    }
                }
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(fail("read", e)),
            }
        }
    }

    /// Switches between blocking reads (closed loop) and polled,
    /// non-blocking reads (paced phase: socket read timeouts round up
    /// to a scheduler tick, far coarser than the pacing interval).
    pub fn set_nonblocking(&mut self, on: bool) -> Result<(), String> {
        self.stream.set_nonblocking(on).map_err(|e| fail("nonblocking", e))
    }

    pub fn recv(&mut self) -> Result<Response, String> {
        self.recv_ready()?.ok_or_else(|| fail("read", "reply timed out"))
    }

    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.send(req)?;
        self.recv()
    }

    pub fn stats(&mut self) -> Result<NodeStatsSnapshot, String> {
        match self.call(&Request::Stats)? {
            Response::StatsReply(s) => Ok(s),
            other => Err(fail("stats", format!("unexpected reply {other:?}"))),
        }
    }
}

struct Node {
    server: Arc<NodeServer>,
    join: JoinHandle<Result<NodeStatsSnapshot, EngineError>>,
}

/// Two serving nodes plus one harness connection to each.
pub struct WireCluster {
    nodes: Vec<Node>,
    pub clients: Vec<Client>,
    pub addrs: Vec<String>,
}

pub fn spec(w: &Workload) -> WireSpec {
    let mut spec = WireSpec::new(NODES);
    spec.catalogue = CATALOGUE;
    spec.capacity = CAPACITY;
    spec.ell = w.ell;
    spec.policy = w.policy;
    spec
}

/// Brings up a serving wire cluster: bind + spawn every node, then the
/// Hello and ConfigEpoch acknowledgements on each client connection.
pub fn bring_up(w: &Workload) -> Result<(WireCluster, Duration), String> {
    let t = Instant::now();
    let mut nodes = Vec::with_capacity(NODES);
    for id in 0..NODES {
        let mut cfg = NodeConfig::new(id);
        cfg.queue_capacity = QUEUE_CAPACITY;
        cfg.window = WINDOW;
        cfg.wire_batch = RUN;
        let server = Arc::new(NodeServer::bind(cfg).map_err(|e| fail("bind", e))?);
        let runner = Arc::clone(&server);
        let join = std::thread::Builder::new()
            .name(format!("bench-node-{id}"))
            .spawn(move || runner.run())
            .map_err(|e| fail("spawn", e))?;
        nodes.push(Node { server, join });
    }
    let addrs: Vec<String> = nodes.iter().map(|n| n.server.local_addr().to_string()).collect();
    let mut cluster = WireCluster { nodes, clients: Vec::new(), addrs };
    let provision = spec(w).provision(1, cluster.addrs.clone());
    for id in 0..NODES {
        let mut c = Client::connect(&cluster.addrs[id])?;
        match c.call(&Request::Hello { node: CLIENT_ID, version: PROTOCOL_VERSION })? {
            Response::HelloAck { version } if version == PROTOCOL_VERSION => {}
            other => return Err(fail("hello", format!("unexpected reply {other:?}"))),
        }
        match c.call(&Request::ConfigEpoch(provision.clone()))? {
            Response::EpochAck { epoch } if epoch >= 1 => {}
            other => return Err(fail("config epoch", format!("unexpected reply {other:?}"))),
        }
        cluster.clients.push(c);
    }
    Ok((cluster, t.elapsed()))
}

impl WireCluster {
    /// Frames and bytes the harness's clients have sent and received.
    pub fn traffic(&self) -> (u64, u64) {
        let frames = self.clients.iter().map(|c| c.frames_out + c.frames_in).sum();
        let bytes = self.clients.iter().map(|c| c.bytes_out + c.bytes_in).sum();
        (frames, bytes)
    }

    pub fn stats(&mut self) -> Result<Vec<NodeStatsSnapshot>, String> {
        self.clients.iter_mut().map(Client::stats).collect()
    }

    /// Orderly shutdown: a `Shutdown` frame per node, then joins every
    /// node thread.
    pub fn teardown(mut self) -> Result<(), String> {
        for c in &mut self.clients {
            match c.call(&Request::Shutdown) {
                Ok(Response::Bye) => {}
                Ok(other) => return Err(fail("shutdown", format!("unexpected reply {other:?}"))),
                Err(e) => return Err(e),
            }
        }
        self.clients.clear();
        for node in self.nodes {
            node.server.request_shutdown();
            match node.join.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => return Err(fail("node exit", e)),
                Err(_) => return Err(fail("node exit", "node thread panicked")),
            }
        }
        Ok(())
    }
}

/// Per-phase degradation from two rounds of node `Stats`.
pub fn degradation(before: &[NodeStatsSnapshot], after: &[NodeStatsSnapshot]) -> Degradation {
    let d = |f: fn(&NodeStatsSnapshot) -> u64| -> u64 {
        before.iter().zip(after).map(|(b, a)| f(a) - f(b)).sum()
    };
    Degradation {
        max_queue_depth: 0,
        degraded_to_origin: d(|s| s.degraded),
        retried: d(|s| s.retried),
        failed_over: d(|s| s.failed_over),
        deadline_expired: d(|s| s.deadline_expired),
        health_marked_down: d(|s| s.marked_down),
    }
}

/// Checks one `BatchServed` reply against the frame it answers and
/// books it; returns the served count.
fn book(resp: &Response, want_tag: u32, ledger: &mut NodeLedger) -> Result<u64, String> {
    let Response::BatchServed { tag, local, peer, origin, shed } = *resp else {
        return Err(fail("reply", format!("expected BatchServed, got {resp:?}")));
    };
    if tag != want_tag {
        return Err(fail("reply", format!("tag {tag} answers frame {want_tag}")));
    }
    if local + peer + origin + shed != RUN as u64 {
        return Err(fail(
            "reply",
            format!("tally {local}+{peer}+{origin}+{shed} != frame of {RUN}"),
        ));
    }
    ledger.offered += RUN as u64;
    ledger.shed += shed;
    ledger.completed += local + peer + origin;
    workload::add(&mut ledger.tiers, &[local, peer, origin]);
    Ok(local + peer + origin)
}

/// One connection's share of a saturation repeat.
struct LaneOut {
    ledger: NodeLedger,
    cpu_ns: f64,
    ops: u64,
    first: Instant,
    last: Instant,
    busy_ns: f64,
    wait_ns: f64,
    frame_span: Span,
}

#[allow(clippy::too_many_arguments)]
fn saturate_lane(
    c: &mut Client,
    n: usize,
    streams: &Streams,
    oracle: Option<&RunOracle>,
    w: &Workload,
    first_run: u64,
    each: Duration,
    traced: bool,
    barrier: &Barrier,
) -> Result<LaneOut, String> {
    let layout = w.layout();
    let mut ledger = NodeLedger::default();
    let mut frame_span = Span::new("wire.frame", 1);
    let mut inflight: VecDeque<(u32, u64, Instant)> = VecDeque::with_capacity(WINDOW);
    let mut k = first_run;
    let mut ops = 0;
    let mut wait_ns = 0.0;
    barrier.wait();
    let cpu0 = crate::host::thread_cpu_ns();
    let first = Instant::now();
    let deadline = first + each;
    let mut last = first;
    loop {
        let now = Instant::now();
        while inflight.len() < WINDOW && now < deadline {
            let tag = k as u32;
            c.send_lookup(tag, streams.run(n, k))?;
            inflight.push_back((tag, k, Instant::now()));
            k += 1;
        }
        let Some(&(tag, run, sent)) = inflight.front() else {
            break;
        };
        let w0 = Instant::now();
        let resp = c.recv()?;
        last = Instant::now();
        if inflight.len() == WINDOW {
            wait_ns += ns(last.duration_since(w0));
        }
        inflight.pop_front();
        ops += book(&resp, tag, &mut ledger)?;
        if let Some(oracle) = oracle {
            workload::add(&mut ledger.predicted, &oracle.predict(&layout, streams, n, run, RUN));
        }
        if traced {
            frame_span.record(sent, last, RUN as u64);
        }
    }
    let cpu_ns = crate::host::thread_cpu_ns() - cpu0;
    Ok(LaneOut {
        ledger,
        cpu_ns,
        ops,
        first,
        last,
        busy_ns: ns(last.duration_since(first)),
        wait_ns,
        frame_span,
    })
}

/// Closed-loop saturation over both connections: `repeats` timed
/// repeats of `each`, each fully drained.
pub fn saturate(
    cluster: &mut WireCluster,
    w: &Workload,
    streams: &Streams,
    oracle: Option<&RunOracle>,
    each: Duration,
    repeats: usize,
    traced: bool,
) -> Result<Saturation, String> {
    let mut out = Saturation::new();
    let mut frame_span = Span::new("wire.frame", 1);
    let cpu0 = crate::host::process_cpu_ns();
    let mut first_run = 0u64;
    for _ in 0..repeats {
        let steal0 = crate::host::steal_ticks();
        let barrier = Barrier::new(NODES);
        let lanes: Vec<Result<LaneOut, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = cluster
                .clients
                .iter_mut()
                .enumerate()
                .map(|(n, c)| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        saturate_lane(c, n, streams, oracle, w, first_run, each, traced, barrier)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err(fail("lane", "panicked"))))
                .collect()
        });
        let lanes: Vec<LaneOut> = lanes.into_iter().collect::<Result<_, _>>()?;
        let first = lanes.iter().map(|l| l.first).min().expect("nodes >= 1");
        let last = lanes.iter().map(|l| l.last).max().expect("nodes >= 1");
        let ops: u64 = lanes.iter().map(|l| l.ops).sum();
        let steal = crate::host::steal_ticks() - steal0;
        out.repeats.push(Repeat { ops, wall_ns: ns(last.duration_since(first)), steal });
        for (n, lane) in lanes.into_iter().enumerate() {
            let l = &mut out.nodes[n];
            l.offered += lane.ledger.offered;
            l.shed += lane.ledger.shed;
            l.completed += lane.ledger.completed;
            workload::add(&mut l.tiers, &lane.ledger.tiers);
            workload::add(&mut l.predicted, &lane.ledger.predicted);
            out.generator_ns += lane.busy_ns;
            out.generator_cpu_ns += lane.cpu_ns;
            out.credit_wait_ns += lane.wait_ns;
            frame_span.calls += lane.frame_span.calls;
            frame_span.items += lane.frame_span.items;
            frame_span.total_ns += lane.frame_span.total_ns;
            frame_span.samples.extend(lane.frame_span.samples);
        }
        first_run += streams.runs() as u64 / 4;
    }
    out.cpu_ns = crate::host::process_cpu_ns() - cpu0;
    if traced {
        out.spans = vec![frame_span];
    }
    Ok(out)
}

/// Open-loop paced phase at `w.paced_ops_s` over both connections,
/// from one generator thread: it polls each connection's replies
/// without blocking and sleeps between polls, like the in-process
/// generator.
pub fn paced(
    cluster: &mut WireCluster,
    w: &Workload,
    streams: &Streams,
    oracle: Option<&RunOracle>,
    dur: Duration,
) -> Result<Paced, String> {
    let layout = w.layout();
    let mut out = Paced::new();
    for c in &mut cluster.clients {
        c.set_nonblocking(true)?;
    }
    let interval_ns = RUN as f64 * NODES as f64 / w.paced_ops_s * 1e9;
    let start = Instant::now() + Duration::from_millis(1);
    let end = start + dur;
    let first = streams.runs() as u64 / 2;
    let due = |n: usize, k: u64| {
        let off = (((k - first) as f64 + n as f64 / NODES as f64) * interval_ns) as u64;
        start + Duration::from_nanos(off)
    };
    let mut pending: Vec<VecDeque<(u32, u64, Instant)>> = vec![VecDeque::new(); NODES];
    let mut next = [first; NODES];
    let hard_stop = end + REPLY_TIMEOUT;
    let mut wakes = 0u64;
    let mut steal = crate::host::WindowSteal::new(
        start,
        dur / slices(dur, PACED_WINDOW) as u32,
        slices(dur, PACED_WINDOW),
    );
    loop {
        let now = Instant::now();
        wakes += 1;
        steal.tick(now);
        for (n, c) in cluster.clients.iter_mut().enumerate() {
            while let Some(resp) = c.recv_ready()? {
                let (tag, run, due_at) =
                    pending[n].pop_front().ok_or_else(|| fail("reply", "no frame pending"))?;
                let served = book(&resp, tag, &mut out.nodes[n])?;
                if let Some(oracle) = oracle {
                    workload::add(
                        &mut out.nodes[n].predicted,
                        &oracle.predict(&layout, streams, n, run, RUN),
                    );
                }
                let due_ns = ns(due_at.duration_since(start));
                out.samples.push(Sample {
                    due_ns,
                    latency_ns: ns(now.saturating_duration_since(due_at)),
                    n: served,
                });
                if served < RUN as u64 {
                    out.samples.push(Sample {
                        due_ns,
                        latency_ns: f64::INFINITY,
                        n: RUN as u64 - served,
                    });
                }
            }
        }
        for (n, c) in cluster.clients.iter_mut().enumerate() {
            while due(n, next[n]) <= now && due(n, next[n]) < end {
                let k = next[n];
                let tag = k as u32;
                out.lateness_ns.push(ns(now.duration_since(due(n, k))));
                c.send_lookup(tag, streams.run(n, k))?;
                pending[n].push_back((tag, k, due(n, k)));
                next[n] += 1;
            }
        }
        let idle = pending.iter().all(VecDeque::is_empty);
        if now >= end && idle {
            break;
        }
        if now >= hard_stop {
            return Err(fail("reply", "paced phase replies timed out"));
        }
        let next_due = (0..NODES).map(|n| due(n, next[n])).min().expect("nodes >= 1");
        let mut wake = if idle { next_due } else { now + POLL };
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
    for c in &mut cluster.clients {
        c.set_nonblocking(false)?;
    }
    out.poll_gap_ns = out.wall_ns / wakes.max(1) as f64;
    Ok(out)
}
