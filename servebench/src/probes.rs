//! Isolated layer probes for the traced run: each times one layer of
//! `ccn-engine` (plus `ccn_sim::store`) through its public API, on the
//! workload's own request stream, so every per-layer number can be set
//! against the end-to-end metric it should move.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ccn_coord::contiguous_slices;
use ccn_engine::net::Request;
use ccn_engine::net::Response;
use ccn_engine::ring::{ring_with, Mode};
use ccn_engine::{shard_of, IdleStrategy, RoutingTable, ShardedStore, StorePolicy};
use ccn_sim::store::{ContentStore, LruStore, RandomStore, StaticStore};
use ccn_sim::ContentId;

use crate::stats::{self, ns};
use crate::wire::{fail, Client};
use crate::workload::{Layout, Streams, Workload, CAPACITY, NODES, QUEUE_CAPACITY, RUN};

/// Items moved through the ring in each mode.
const RING_ITEMS: u64 = 1 << 22;
/// Round trips of the peer-forward probe.
const ROUND_TRIPS: usize = 400;
/// Round trips of the socket probe: enough for its CPU time to span
/// tens of scheduler ticks.
const SOCKET_ROUND_TRIPS: usize = 40_000;
/// Encode/decode repetitions per codec probe.
const CODEC_REPS: usize = 20_000;

/// The in-memory probes' results (the socket probes ride on a running
/// wire cluster and are taken with the measurement).
#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub route_ns: f64,
    pub ring_mpsc_ns: f64,
    pub ring_spsc_ns: f64,
    pub store_static_ns: f64,
    pub store_lru_ns: f64,
    pub store_random_ns: f64,
    pub lru_hit_frac: f64,
    pub random_hit_frac: f64,
    pub shard_probe_batch_ns: f64,
    pub shard_apply_ns: f64,
    pub encode64_ns: f64,
    pub decode64_ns: f64,
    pub encode256_ns: f64,
    pub decode256_ns: f64,
}

fn ops(streams: &Streams) -> u64 {
    streams.per_node.iter().map(|s| s.len() as u64).sum()
}

/// `shard_of` + `RoutingTable::holder` per request.
pub fn routing(layout: &Layout, streams: &Streams) -> f64 {
    let table = RoutingTable::from_assignments(
        &contiguous_slices(layout.prefix, layout.prefix + 1, layout.x, NODES),
        NODES,
    )
    .expect("the workload layout is a valid routing table");
    let t = Instant::now();
    for s in &streams.per_node {
        for &c in s {
            let id = ContentId(c);
            black_box(shard_of(black_box(id), 1));
            black_box(table.holder(black_box(id)));
        }
    }
    ns(t.elapsed()) / ops(streams) as f64
}

/// Cross-thread ring throughput in `mode`: one producer pushing
/// 64-item batches, one consumer draining 64 at a time; ns per item.
pub fn ring(mode: Mode) -> f64 {
    let (tx, mut rx) = ring_with::<u64>(QUEUE_CAPACITY, mode);
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut batch = Vec::with_capacity(RUN);
            let mut next = 0u64;
            while next < RING_ITEMS {
                if batch.is_empty() {
                    batch.extend(next..(next + RUN as u64).min(RING_ITEMS));
                }
                let pushed = tx.try_push_batch(&mut batch);
                next += pushed as u64;
                if pushed == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let mut out = Vec::with_capacity(RUN);
        let mut got = 0u64;
        let mut sum = 0u64;
        while got < RING_ITEMS {
            out.clear();
            let n = rx.pop_batch(&mut out, RUN);
            if n == 0 {
                std::thread::yield_now();
                continue;
            }
            got += n as u64;
            sum = sum.wrapping_add(out.iter().sum::<u64>());
        }
        black_box(sum);
    });
    ns(t.elapsed()) / RING_ITEMS as f64
}

fn pinned(layout: &Layout, node: usize) -> StaticStore {
    let start = layout.prefix + 1 + node as u64 * layout.x;
    StaticStore::new((1..=layout.prefix).chain(start..start + layout.x).map(ContentId))
}

/// Replays each node's stream through a store (hit → touch, miss →
/// admit); returns (ns per op, hit fraction).
fn replay(streams: &Streams, mut make: impl FnMut(usize) -> Box<dyn ContentStore>) -> (f64, f64) {
    let mut hits = 0u64;
    let t = Instant::now();
    for (node, s) in streams.per_node.iter().enumerate() {
        let mut store = make(node);
        for &c in s {
            let id = ContentId(c);
            if store.contains(id) {
                store.on_hit(id);
                hits += 1;
            } else {
                store.on_data(id);
            }
        }
        black_box(store.len());
    }
    let n = ops(streams);
    (ns(t.elapsed()) / n as f64, hits as f64 / n as f64)
}

const CAP: usize = CAPACITY as usize;

/// A `ShardedStore` with the workload's store, driven synchronously by
/// `probe_batch` (64-item runs) and by per-op `apply`.
pub fn shard(w: &Workload, streams: &Streams) -> Result<(f64, f64), String> {
    let layout = w.layout();
    let policy = w.policy;
    let mut store = ShardedStore::<u64>::try_spawn(
        1,
        QUEUE_CAPACITY,
        IdleStrategy::default(),
        |_| -> Box<dyn ContentStore> {
            match policy {
                StorePolicy::Provisioned => Box::new(pinned(&layout, 0)),
                StorePolicy::Lru => Box::new(LruStore::new(CAP)),
            }
        },
        Arc::new(|_: &mut dyn ContentStore, _: u64| {}),
    )
    .map_err(|e| format!("shard probe: {e}"))?;
    let handle = store.handle();
    let s = &streams.per_node[0];
    let mut ids = Vec::with_capacity(RUN);
    let mut hits = Vec::with_capacity(RUN);
    let t = Instant::now();
    for run in s.chunks_exact(RUN) {
        ids.clear();
        ids.extend(run.iter().map(|&c| ContentId(c)));
        handle.probe_batch(&ids, &mut hits);
        black_box(&hits);
    }
    let probe_ns = ns(t.elapsed()) / s.len() as f64;
    let per_op = s.len().min(1 << 15);
    let t = Instant::now();
    for &c in &s[..per_op] {
        black_box(handle.apply(ContentId(c)));
    }
    let apply_ns = ns(t.elapsed()) / per_op as f64;
    store.shutdown();
    Ok((probe_ns, apply_ns))
}

/// ns to encode, and to decode, one `BatchLookup`, one `BatchServed`
/// and one `PeerForwardBatch` of `items` items through the public
/// codec.
pub fn codec(streams: &Streams, items: usize) -> Result<(f64, f64), String> {
    let run: Vec<u64> = streams.per_node[0][..items].to_vec();
    let frames = [
        Request::BatchLookup { tag: 7, contents: run.clone() },
        Request::PeerForwardBatch { tag: 7, items: run.iter().map(|&c| (c, 1_000_000)).collect() },
    ];
    let reply = Response::BatchServed { tag: 7, local: 20, peer: 4, origin: 40, shed: 0 };
    let mut buf = Vec::with_capacity(16 * items + 64);
    let t = Instant::now();
    for _ in 0..CODEC_REPS {
        for f in &frames {
            buf.clear();
            f.encode_into(&mut buf).map_err(|e| format!("codec: {e}"))?;
            black_box(&buf);
        }
        buf.clear();
        reply.encode_into(&mut buf).map_err(|e| format!("codec: {e}"))?;
        black_box(&buf);
    }
    let encode = ns(t.elapsed()) / CODEC_REPS as f64;
    let bodies: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| f.encode())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("codec: {e}"))?;
    let reply_body = reply.encode().map_err(|e| format!("codec: {e}"))?;
    let t = Instant::now();
    for _ in 0..CODEC_REPS {
        for b in &bodies {
            black_box(Request::decode(black_box(b)).map_err(|e| format!("codec: {e}"))?);
        }
        black_box(Response::decode(black_box(&reply_body)).map_err(|e| format!("codec: {e}"))?);
    }
    let decode = ns(t.elapsed()) / CODEC_REPS as f64;
    Ok((encode, decode))
}

/// `HealthProbe` → `HealthAck` round trips on a warm connection: the
/// median round trip, µs, and the CPU time of one round trip, ns. The
/// probing thread's own CPU time covers one end (a write, a blocking
/// read and its wake-up); the node's end does the same work, so the
/// round trip costs twice that. Process CPU time would also count the
/// engine threads' idle spinning.
pub fn socket_rtt(c: &mut Client) -> Result<(f64, f64), String> {
    let mut rtt = Vec::with_capacity(SOCKET_ROUND_TRIPS);
    let cpu0 = crate::host::thread_cpu_ns();
    for _ in 0..SOCKET_ROUND_TRIPS {
        let t = Instant::now();
        match c.call(&Request::HealthProbe)? {
            Response::HealthAck { .. } => rtt.push(ns(t.elapsed()) / 1e3),
            other => return Err(fail("health probe", format!("unexpected reply {other:?}"))),
        }
    }
    let cpu_ns = 2.0 * (crate::host::thread_cpu_ns() - cpu0) / SOCKET_ROUND_TRIPS as f64;
    Ok((stats::median(&rtt), cpu_ns))
}

/// Median round trip of a direct 64-item `PeerForwardBatch` to node
/// 0, items taken from node 1's stream (the misses node 1 would
/// forward), µs.
pub fn forward_rtt(c: &mut Client, streams: &Streams) -> Result<f64, String> {
    let mut rtt = Vec::with_capacity(ROUND_TRIPS);
    for k in 0..ROUND_TRIPS as u64 {
        let tag = k as u32;
        let items = streams.run(1, k).iter().map(|&c| (c, 1_000_000)).collect();
        let t = Instant::now();
        match c.call(&Request::PeerForwardBatch { tag, items })? {
            Response::ForwardBatchReply { tag: got, outcomes }
                if got == tag && outcomes.len() == RUN =>
            {
                rtt.push(ns(t.elapsed()) / 1e3);
            }
            other => return Err(fail("forward probe", format!("unexpected reply {other:?}"))),
        }
    }
    Ok(stats::median(&rtt))
}

/// Every store, ring, shard, routing and codec probe.
pub fn run(w: &Workload, streams: &Streams, seed: u64) -> Result<Probes, String> {
    let layout = w.layout();
    let (store_static_ns, _) = replay(streams, |n| Box::new(pinned(&layout, n)));
    let (store_lru_ns, lru_hit_frac) = replay(streams, |_| Box::new(LruStore::new(CAP)));
    let (store_random_ns, random_hit_frac) =
        replay(streams, |n| Box::new(RandomStore::new(CAP, seed ^ n as u64)));
    let (shard_probe_batch_ns, shard_apply_ns) = shard(w, streams)?;
    let (encode64_ns, decode64_ns) = codec(streams, 64)?;
    let (encode256_ns, decode256_ns) = codec(streams, 256)?;
    Ok(Probes {
        route_ns: routing(&layout, streams),
        ring_mpsc_ns: ring(Mode::Mpsc),
        ring_spsc_ns: ring(Mode::Spsc),
        store_static_ns,
        store_lru_ns,
        store_random_ns,
        lru_hit_frac,
        random_hit_frac,
        shard_probe_batch_ns,
        shard_apply_ns,
        encode64_ns,
        decode64_ns,
        encode256_ns,
        decode256_ns,
    })
}
