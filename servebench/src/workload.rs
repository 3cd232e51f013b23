//! Workload definitions, seeded request streams, and the harness's own
//! pure-function tier oracle (exact for provisioned stores, a
//! sequential LRU replay for dynamic ones).

use ccn_engine::StorePolicy;
use ccn_sim::store::{ContentStore, LruStore};
use ccn_sim::ContentId;
use ccn_zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Cache nodes in every workload.
pub const NODES: usize = 2;
/// Catalogue size `c_total`.
pub const CATALOGUE: u64 = 10_000;
/// Per-node store capacity `c`.
pub const CAPACITY: u64 = 100;
/// Requests per in-process run and per wire frame.
pub const RUN: usize = 64;
/// Per-shard ring capacity: the engine default, deliberately not
/// deepened.
pub const QUEUE_CAPACITY: usize = 1024;
/// Frames in flight per wire connection.
pub const WINDOW: usize = 8;
/// Requests per node stream; the generators cycle through it.
pub const STREAM_LEN: usize = 1 << 18;

/// Which serving tier a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// `ccn_engine::Cluster`, in this process.
    InProcess,
    /// Two `ccn_engine::NodeServer`s on loopback threads.
    Wire,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub tier: Tier,
    pub policy: StorePolicy,
    pub ell: f64,
    pub zipf_s: f64,
    /// Paced-phase offered rate, requests per second over the whole
    /// cluster: fixed once at about a tenth of the saturation median
    /// measured on the engine this benchmark was introduced against.
    pub paced_ops_s: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "inproc-static",
        tier: Tier::InProcess,
        policy: StorePolicy::Provisioned,
        ell: 1.0,
        zipf_s: 0.8,
        paced_ops_s: 350_000.0,
    },
    Workload {
        name: "inproc-lru",
        tier: Tier::InProcess,
        policy: StorePolicy::Lru,
        ell: 0.5,
        zipf_s: 0.6,
        paced_ops_s: 300_000.0,
    },
    Workload {
        name: "wire-coord",
        tier: Tier::Wire,
        policy: StorePolicy::Provisioned,
        ell: 1.0,
        zipf_s: 0.8,
        paced_ops_s: 180_000.0,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    pub fn layout(&self) -> Layout {
        Layout::new(self.ell)
    }
}

/// The coordinated layout every workload provisions: popularity prefix
/// `1..=c−x` everywhere, node `i` holding slice
/// `[c−x+1+i·x, c−x+1+(i+1)·x)` — the same `contiguous_slices` plan
/// the engine builds, restated here so the oracle does not reuse the
/// code it checks.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    pub prefix: u64,
    pub x: u64,
}

/// Serving tier index: local, peer, origin.
pub const LOCAL: usize = 0;
pub const PEER: usize = 1;
pub const ORIGIN: usize = 2;

impl Layout {
    pub fn new(ell: f64) -> Self {
        let x = (ell * CAPACITY as f64).round() as u64;
        Self { prefix: CAPACITY - x, x }
    }

    /// The node holding coordinated rank `c`, if `c` is coordinated.
    pub fn holder(&self, c: u64) -> Option<usize> {
        let start = self.prefix + 1;
        if self.x == 0 || c < start || c >= start + self.x * NODES as u64 {
            return None;
        }
        Some(((c - start) / self.x) as usize)
    }

    /// The tier a fault-free provisioned cluster serves a request from
    /// `node` for rank `c` at.
    pub fn provisioned_tier(&self, node: usize, c: u64) -> usize {
        if c <= self.prefix {
            return LOCAL;
        }
        match self.holder(c) {
            Some(h) if h == node => LOCAL,
            Some(_) => PEER,
            None => ORIGIN,
        }
    }
}

/// Tier counts `[local, peer, origin]`.
pub type Tiers = [u64; 3];

pub fn add(a: &mut Tiers, b: &Tiers) {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// Per-node request streams drawn from the workload's Zipf law.
pub struct Streams {
    pub per_node: Vec<Vec<u64>>,
}

impl Streams {
    pub fn generate(w: &Workload, seed: u64) -> Self {
        let sampler = ZipfSampler::new(w.zipf_s, CATALOGUE).expect("workload Zipf law is valid");
        let per_node = (0..NODES)
            .map(|node| {
                let mut rng = StdRng::seed_from_u64(seed ^ (0x5eed_0000 + node as u64));
                let mut out = vec![0u64; STREAM_LEN];
                sampler.sample_fill(&mut rng, &mut out);
                out
            })
            .collect();
        Self { per_node }
    }

    /// Runs per node stream.
    pub fn runs(&self) -> usize {
        STREAM_LEN / RUN
    }

    /// Run `k` (cycled) of `node`'s stream.
    pub fn run(&self, node: usize, k: u64) -> &[u64] {
        let i = (k % self.runs() as u64) as usize * RUN;
        &self.per_node[node][i..i + RUN]
    }
}

/// Exact provisioned-tier oracle per run: `table[node][k]` is run
/// `k`'s `[local, peer, origin]` count.
pub struct RunOracle {
    table: Vec<Vec<[u32; 3]>>,
}

impl RunOracle {
    pub fn new(layout: &Layout, streams: &Streams) -> Self {
        let table = (0..NODES)
            .map(|node| {
                (0..streams.runs() as u64)
                    .map(|k| {
                        let mut t = [0u32; 3];
                        for &c in streams.run(node, k) {
                            t[layout.provisioned_tier(node, c)] += 1;
                        }
                        t
                    })
                    .collect()
            })
            .collect();
        Self { table }
    }

    /// Predicted tiers of the first `admitted` requests of run `k`.
    pub fn predict(
        &self,
        layout: &Layout,
        streams: &Streams,
        node: usize,
        k: u64,
        admitted: usize,
    ) -> Tiers {
        if admitted == RUN {
            let t = self.table[node][(k % streams.runs() as u64) as usize];
            return [u64::from(t[0]), u64::from(t[1]), u64::from(t[2])];
        }
        let mut t = [0u64; 3];
        for &c in &streams.run(node, k)[..admitted] {
            t[layout.provisioned_tier(node, c)] += 1;
        }
        t
    }
}

/// Sequential replay of the LRU cluster's admission rules through
/// `ccn_sim::store::LruStore`: an edge hit is local; a coordinated miss
/// goes to its holder (hit = peer; miss = origin, and the holder
/// admits it); anything else is origin and the edge admits it. Nodes
/// interleave run by run. Returns the tier fractions over all
/// `rounds × NODES` runs after `warm_rounds` untallied rounds.
pub fn lru_replay(layout: &Layout, streams: &Streams, warm_rounds: u64, rounds: u64) -> [f64; 3] {
    let mut stores: Vec<LruStore> = (0..NODES).map(|_| LruStore::new(CAPACITY as usize)).collect();
    let mut tiers = [0u64; 3];
    for k in 0..warm_rounds + rounds {
        for node in 0..NODES {
            for &c in streams.run(node, k) {
                let id = ContentId(c);
                let tier = if stores[node].contains(id) {
                    stores[node].on_hit(id);
                    LOCAL
                } else {
                    match layout.holder(c) {
                        Some(h) if h != node => {
                            if stores[h].contains(id) {
                                stores[h].on_hit(id);
                                PEER
                            } else {
                                stores[h].on_data(id);
                                ORIGIN
                            }
                        }
                        _ => {
                            stores[node].on_data(id);
                            ORIGIN
                        }
                    }
                };
                if k >= warm_rounds {
                    tiers[tier] += 1;
                }
            }
        }
    }
    fractions(&tiers)
}

pub fn fractions(t: &Tiers) -> [f64; 3] {
    let total: u64 = t.iter().sum();
    if total == 0 {
        return [0.0; 3];
    }
    t.map(|v| v as f64 / total as f64)
}
