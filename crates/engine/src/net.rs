//! Wire tier: the serving engine on real sockets.
//!
//! Everything before this module runs the paper's cooperating routers
//! inside one process — peer forwards are function calls, so the
//! d0/d1/d2 cost hierarchy the engine validates against the DES has
//! never crossed an actual link. This module splits the cluster into
//! real OS processes connected by TCP on a compact length-prefixed
//! binary protocol, in the same vendored, dependency-free style as
//! [`crate::ring`]: `std::net` only, no async runtime, no
//! serialization framework.
//!
//! # Frame layout
//!
//! Every message is one frame:
//!
//! ```text
//! +----------------+---------+--------------------------+
//! | len: u32 LE    | kind: u8| payload (len - 1 bytes)  |
//! +----------------+---------+--------------------------+
//! ```
//!
//! `len` counts the kind byte plus the payload and is capped at
//! [`MAX_FRAME`]; integers are little-endian, strings are `u16`
//! length-prefixed UTF-8. Requests are [`Request`], responses
//! [`Response`]; kinds with the high bit set are responses.
//!
//! # Roles
//!
//! - **Node** ([`NodeServer`], the `ccn node` subcommand): one router
//!   as a standalone process. It binds, prints its address, and waits
//!   for a **config epoch** — the coordinator's versioned provisioning
//!   push carrying the `ccn_coord` slice assignments, store layout,
//!   and the peer address list. Only then does it build its sharded
//!   store (served through the existing MPSC rings — see
//!   *Ring discipline* below) and start serving lookups. Peer misses
//!   are forwarded over per-peer TCP connections with the
//!   local → peer → retry → origin → shed degradation ladder intact.
//! - **Coordinator / driver** ([`wire_bench`]): provisions every node
//!   (epoch 1), drives per-node Zipf request streams over the same
//!   protocol, replays a kill/revive schedule by SIGKILLing node
//!   *processes* and re-provisioning the survivors plus the respawned
//!   node under a bumped epoch, and folds per-node ledgers into a
//!   [`WireOutcome`] whose accounting (`offered == completed + shed`)
//!   is enforced exactly, per node and in total.
//!
//! # Epoch semantics
//!
//! A config epoch is accepted iff it is strictly newer than the
//! node's current epoch; replays and reordered pushes are answered
//! with the current epoch and ignored. An epoch whose store layout
//! (catalogue, capacity, prefix, slices, policy) matches the current
//! provisioning swaps routing and peer links but **keeps the store**,
//! so re-provisioning live survivors after a revival does not discard
//! their cache warmth; a layout change rebuilds the store from
//! scratch.
//!
//! # Failure ladder over sockets
//!
//! The in-process ladder survives the move onto the wire with the
//! same rungs, re-expressed in socket vocabulary:
//!
//! - **peer**: one forward frame on the holder's connection, read
//!   back under the forward deadline (socket read timeout).
//! - **retry**: a holder that answers *refused* (admission
//!   backpressure, not yet provisioned) is retried up to the
//!   configured budget with linear backoff.
//! - **origin**: a deadline expiry or socket failure (connection
//!   refused, reset, torn down mid-conversation) degrades the request
//!   to origin at the client node. A timed-out connection is dropped,
//!   not reused — a late reply on a reused stream would desynchronize
//!   the framing.
//! - **health**: consecutive socket failures against one holder mark
//!   it down in the node's [`LiveRouting`] view (epoch bump, HRW
//!   failover moves exactly that node's share); a background probe
//!   thread pings down peers and restores them when they answer
//!   again. This replaces the in-process op-count probation with
//!   wall-clock probing — the only rung whose clock changes.
//! - **shed**: a killed node's clients shed at the driver edge: a
//!   request offered to a dead process is counted shed, never lost,
//!   so SIGKILL preserves `offered == completed + shed` bit-exactly.

use std::collections::VecDeque;
use std::io::{self, BufRead as _, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs as _};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use ccn_coord::{contiguous_slices, RouterAssignment};
use ccn_sim::store::{ContentStore, LruStore, StaticStore};
use ccn_sim::{workload, ContentId};

use crate::affinity::ShardPlacement;
use crate::cluster::StorePolicy;
use crate::control::{Controller, ControllerConfig, ControllerReport, LayoutStep, RankTap};
use crate::error::EngineError;
use crate::fault::DegradeConfig;
use crate::routing::{LiveRouting, RoutingTable};
use crate::shard::{lock_recover, shard_of, IdleStrategy, ShardSpec, ShardedStore};

/// Hard cap on one frame (length prefix included payload): 1 MiB.
/// Large enough for a 64k-request batch lookup, small enough that a
/// corrupt length prefix cannot balloon an allocation.
pub const MAX_FRAME: u32 = 1 << 20;

/// Smallest read-buffer growth step while a frame body arrives.
const READ_CHUNK: usize = 4 << 10;

/// Wire protocol version, carried in `Hello` and answered in
/// `HelloAck`. Version 2 (this revision) tags `BatchLookup` /
/// `BatchServed` for pipelining, adds the batched peer-forward frames,
/// and answers `Hello` — a v1 node neither tags nor replies to the
/// preamble, so mixed-version clusters are rejected at the handshake
/// instead of desynchronizing mid-stream.
pub const PROTOCOL_VERSION: u8 = 2;

mod kind {
    pub const HELLO: u8 = 0x01;
    pub const CONFIG_EPOCH: u8 = 0x02;
    pub const LOOKUP: u8 = 0x03;
    pub const BATCH_LOOKUP: u8 = 0x04;
    pub const PEER_FORWARD: u8 = 0x05;
    pub const HEALTH_PROBE: u8 = 0x06;
    pub const STATS: u8 = 0x07;
    pub const SHUTDOWN: u8 = 0x08;
    pub const PEER_FORWARD_BATCH: u8 = 0x09;

    pub const EPOCH_ACK: u8 = 0x81;
    pub const SERVED: u8 = 0x82;
    pub const BATCH_SERVED: u8 = 0x83;
    pub const FORWARD_REPLY: u8 = 0x84;
    pub const HEALTH_ACK: u8 = 0x85;
    pub const STATS_REPLY: u8 = 0x86;
    pub const BYE: u8 = 0x87;
    pub const REFUSED: u8 = 0x88;
    pub const FORWARD_BATCH_REPLY: u8 = 0x89;
    pub const HELLO_ACK: u8 = 0x8A;
}

/// Tier codes used in `Served` replies.
pub const TIER_LOCAL: u8 = 0;
/// See [`TIER_LOCAL`].
pub const TIER_PEER: u8 = 1;
/// See [`TIER_LOCAL`].
pub const TIER_ORIGIN: u8 = 2;

/// `ForwardReply` outcome codes.
pub const FWD_HIT: u8 = 0;
/// Holder probed its slice and missed; origin serves.
pub const FWD_MISS: u8 = 1;
/// Holder refused the forward (backpressure / not provisioned).
pub const FWD_REFUSED: u8 = 2;

fn net_err(op: &str, detail: impl std::fmt::Display) -> EngineError {
    EngineError::Net { op: op.to_owned(), detail: detail.to_string(), timeout: false }
}

fn proto_err(reason: impl Into<String>) -> EngineError {
    EngineError::Protocol { reason: reason.into() }
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) -> Result<(), EngineError> {
    let len = u16::try_from(s.len()).map_err(|_| {
        proto_err(format!("string of {} bytes exceeds the u16 frame field", s.len()))
    })?;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Cursor over a received payload; every read is bounds-checked so a
/// truncated frame surfaces as a typed protocol error, never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], EngineError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| proto_err("frame payload truncated"))?;
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, EngineError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, EngineError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, EngineError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, EngineError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn str(&mut self) -> Result<String, EngineError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| proto_err("string field is not UTF-8"))
    }

    fn done(&self) -> Result<(), EngineError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(proto_err(format!("{} trailing bytes after payload", self.buf.len() - self.at)))
        }
    }
}

/// Shared per-role wire counters: one meter covers every metered
/// connection of one role (a node's links, or one driver stream). All
/// relaxed — these feed throughput accounting, not synchronization.
#[derive(Debug, Default)]
pub(crate) struct WireMeter {
    frames_out: AtomicU64,
    frames_in: AtomicU64,
    bytes_out: AtomicU64,
    bytes_in: AtomicU64,
    /// High-water mark of frames in flight on any metered connection.
    max_window: AtomicU64,
}

impl WireMeter {
    fn sent(&self, bytes: usize) {
        self.frames_out.fetch_add(1, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn received(&self, bytes: usize) {
        self.frames_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn window(&self, depth: usize) {
        self.max_window.fetch_max(depth as u64, Ordering::Relaxed);
    }
}

///// One framed connection with owned codec scratch: a read buffer
/// replacing the header/body `read_exact` syscall pairs with buffered
/// bulk reads (one `read` often delivers several pipelined frames),
/// and a write buffer encoded in place — 4-byte length hole, body,
/// length patched — flushed with a single `write_all`. A warm
/// connection sends and receives frames without allocating.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Read scratch; `rbuf[rstart..rend]` is valid unconsumed input.
    rbuf: Vec<u8>,
    rstart: usize,
    rend: usize,
    /// Write scratch, reused across frames.
    wbuf: Vec<u8>,
    /// `(offset, len)` of the last received frame body in `rbuf`;
    /// valid until the next `recv_len` call.
    last: (usize, usize),
    meter: Option<Arc<WireMeter>>,
}

impl Conn {
    fn new(stream: TcpStream, meter: Option<Arc<WireMeter>>) -> Self {
        Self { stream, rbuf: Vec::new(), rstart: 0, rend: 0, wbuf: Vec::new(), last: (0, 0), meter }
    }

    fn buffered(&self) -> usize {
        self.rend - self.rstart
    }

    /// Ensures `rbuf` can hold `need` bytes starting at `rstart`,
    /// compacting the unconsumed tail to the front before growing.
    fn make_room(&mut self, need: usize) {
        if self.rstart + need <= self.rbuf.len() {
            return;
        }
        self.rbuf.copy_within(self.rstart..self.rend, 0);
        self.rend -= self.rstart;
        self.rstart = 0;
        if self.rbuf.len() < need {
            self.rbuf.resize(need, 0);
        }
    }

    /// Receives one frame, honouring the stream's read timeout; the
    /// body (kind byte + payload) is readable via [`Conn::last_frame`]
    /// until the next receive. `Ok(None)` is a clean EOF on a frame
    /// boundary.
    ///
    /// Only a timeout with *no* partial frame buffered — a frame
    /// boundary — is classified as a timeout ([`is_timeout`]): it is
    /// safe to retry (idle) or re-route (deadline). Once any frame
    /// byte has arrived, a stall leaves the stream desynchronized, so
    /// mid-frame errors are deliberately wrapped via [`net_err`]
    /// (never a timeout) and the caller drops the connection.
    fn recv_len(&mut self) -> Result<Option<usize>, EngineError> {
        if self.buffered() == 0 {
            self.rstart = 0;
            self.rend = 0;
        }
        while self.buffered() < 4 {
            let at_boundary = self.buffered() == 0;
            self.make_room(4);
            match self.stream.read(&mut self.rbuf[self.rend..]) {
                Ok(0) if at_boundary => return Ok(None),
                Ok(0) => return Err(net_err("read-frame", "connection closed mid-frame")),
                Ok(n) => self.rend += n,
                Err(e) if at_boundary => return Err(net_io_err("read-frame", &e)),
                Err(e) => return Err(net_err("read-frame", e)),
            }
        }
        let h = self.rstart;
        let len = u32::from_le_bytes([
            self.rbuf[h],
            self.rbuf[h + 1],
            self.rbuf[h + 2],
            self.rbuf[h + 3],
        ]);
        if len == 0 || len > MAX_FRAME {
            return Err(proto_err(format!("frame length {len} outside 1..={MAX_FRAME}")));
        }
        let total = 4 + len as usize;
        while self.buffered() < total {
            // Room for the whole frame only if the buffer already has
            // it; otherwise grow geometrically with the bytes that
            // actually arrived, so a header alone pins no more than
            // `READ_CHUNK` however large a body it declares.
            let want = self.rbuf.len().max(2 * self.buffered()).max(READ_CHUNK);
            self.make_room(want.min(total));
            match self.stream.read(&mut self.rbuf[self.rend..]) {
                Ok(0) => return Err(net_err("read-frame", "connection closed mid-frame")),
                Ok(n) => self.rend += n,
                Err(e) => return Err(net_err("read-frame", e)),
            }
        }
        self.last = (self.rstart + 4, len as usize);
        self.rstart += total;
        if let Some(m) = &self.meter {
            m.received(total);
        }
        Ok(Some(len as usize))
    }

    /// The body of the last frame received by [`Conn::recv_len`].
    fn last_frame(&self) -> &[u8] {
        &self.rbuf[self.last.0..self.last.0 + self.last.1]
    }

    /// Encodes one frame in the write scratch — length hole, body via
    /// `enc`, length patched — and sends it with one `write_all`.
    fn send(
        &mut self,
        enc: impl FnOnce(&mut Vec<u8>) -> Result<(), EngineError>,
    ) -> Result<(), EngineError> {
        self.wbuf.clear();
        self.wbuf.extend_from_slice(&[0u8; 4]);
        enc(&mut self.wbuf)?;
        let len = u32::try_from(self.wbuf.len() - 4)
            .ok()
            .filter(|&len| len > 0 && len <= MAX_FRAME)
            .ok_or_else(|| {
                proto_err(format!(
                    "frame of {} bytes outside 1..={MAX_FRAME}",
                    self.wbuf.len().saturating_sub(4)
                ))
            })?;
        self.wbuf[..4].copy_from_slice(&len.to_le_bytes());
        self.stream.write_all(&self.wbuf).map_err(|e| net_io_err("write-frame", &e))?;
        if let Some(m) = &self.meter {
            m.sent(self.wbuf.len());
        }
        Ok(())
    }

    fn send_request(&mut self, req: &Request) -> Result<(), EngineError> {
        self.send(|buf| req.encode_into(buf))
    }

    fn send_response(&mut self, resp: &Response) -> Result<(), EngineError> {
        self.send(|buf| resp.encode_into(buf))
    }

    fn recv_response(&mut self) -> Result<Response, EngineError> {
        match self.recv_len()? {
            Some(_) => Response::decode(self.last_frame()),
            None => Err(net_err("read-frame", "connection closed mid-conversation")),
        }
    }

    fn set_read_timeout(&self, t: Duration) -> Result<(), EngineError> {
        self.stream
            .set_read_timeout(Some(t.max(MIN_SOCKET_TIMEOUT)))
            .map_err(|e| net_err("set-timeout", e))
    }
}

fn is_timeout(e: &EngineError) -> bool {
    matches!(e, EngineError::Net { timeout: true, .. })
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// One contiguous coordinated slice `[start, end)` assigned to `node`,
/// as produced by `ccn_coord::contiguous_slices`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceAssignment {
    /// Owning router.
    pub node: u32,
    /// First coordinated rank of the slice (inclusive).
    pub start: u64,
    /// One past the last rank (exclusive).
    pub end: u64,
}

/// A versioned provisioning push: everything a node process needs to
/// build its store, its routing view, and its peer links.
#[derive(Debug, Clone, PartialEq)]
pub struct Provision {
    /// Monotone config version; a node accepts only strictly newer
    /// epochs.
    pub epoch: u64,
    /// Cluster size (routers).
    pub nodes: u32,
    /// Catalogue size `c_total`.
    pub catalogue: u64,
    /// Per-node store capacity `c`.
    pub capacity: u64,
    /// Local popularity prefix `c − x`.
    pub prefix: u64,
    /// Coordinated slots per node `x` (for a mid-chain incremental
    /// layout with uneven slices: the widest slice).
    pub x: u64,
    /// The coordinator's fitted Zipf exponent at push time, `0.0` when
    /// none (static provisioning, or no fit yet). Metadata only — it
    /// is excluded from [`Provision::same_layout`] so a fit-only
    /// change never discards cache warmth — carried so each node's
    /// stats snapshot reports what the controller believed.
    pub fitted_s: f64,
    /// Store population policy.
    pub policy: StorePolicy,
    /// Coordinated slice assignments (the `ccn_coord` plan).
    pub slices: Vec<SliceAssignment>,
    /// Listen address of every node, indexed by node id; a node
    /// ignores its own entry.
    pub peers: Vec<String>,
}

impl Provision {
    /// `true` when `other` provisions the identical store layout, so a
    /// node can keep its (possibly warm) store across the epoch swap.
    #[must_use]
    pub fn same_layout(&self, other: &Provision) -> bool {
        self.nodes == other.nodes
            && self.catalogue == other.catalogue
            && self.capacity == other.capacity
            && self.prefix == other.prefix
            && self.x == other.x
            && self.policy == other.policy
            && self.slices == other.slices
    }
}

/// Client-to-node and node-to-node request frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Connection preamble from a peer node (`node` = sender id).
    /// Registers the connection as a producer lane on the receiver's
    /// shard rings.
    Hello {
        /// Sender's node id.
        node: u32,
        /// Sender's protocol version.
        version: u8,
    },
    /// Coordinator provisioning push (see [`Provision`]).
    ConfigEpoch(Provision),
    /// One client request for `content`.
    Lookup {
        /// Requested rank.
        content: u64,
    },
    /// A batch of client requests, answered with one tier tally. The
    /// tag correlates the `BatchServed` reply when several batches are
    /// pipelined on one connection; replies come back in send order.
    BatchLookup {
        /// Sender-chosen correlation tag, echoed by the reply.
        tag: u32,
        /// Requested ranks.
        contents: Vec<u64>,
    },
    /// Peer forward: the sender's client missed locally and routing
    /// named the receiver holder of `content`.
    PeerForward {
        /// Requested rank.
        content: u64,
        /// Remaining forward-deadline budget, microseconds.
        budget_us: u32,
    },
    /// A burst of same-destination peer forwards coalesced into one
    /// frame: one syscall round-trip instead of one per miss. Each
    /// item carries its own remaining deadline budget; the holder
    /// answers every item in order (partial serves are per-item
    /// verdicts, never a truncated reply).
    PeerForwardBatch {
        /// Sender-chosen correlation tag, echoed by the reply.
        tag: u32,
        /// `(content, budget_us)` per forwarded miss.
        items: Vec<(u64, u32)>,
    },
    /// Liveness probe (works before provisioning).
    HealthProbe,
    /// Snapshot request for the node's counters.
    Stats,
    /// Orderly shutdown; answered with `Bye`.
    Shutdown,
}

impl Request {
    /// Serializes into a frame body (kind byte + payload).
    ///
    /// # Errors
    ///
    /// [`EngineError::Protocol`] if a field exceeds its wire width.
    pub fn encode(&self) -> Result<Vec<u8>, EngineError> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Serializes the frame body into caller scratch (appended), so a
    /// warm connection encodes without allocating.
    ///
    /// # Errors
    ///
    /// [`EngineError::Protocol`] if a field exceeds its wire width.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), EngineError> {
        match self {
            Request::Hello { node, version } => {
                buf.push(kind::HELLO);
                put_u32(buf, *node);
                buf.push(*version);
            }
            Request::ConfigEpoch(p) => {
                buf.push(kind::CONFIG_EPOCH);
                put_u64(buf, p.epoch);
                put_u32(buf, p.nodes);
                put_u64(buf, p.catalogue);
                put_u64(buf, p.capacity);
                put_u64(buf, p.prefix);
                put_u64(buf, p.x);
                put_u64(buf, p.fitted_s.to_bits());
                buf.push(match p.policy {
                    StorePolicy::Provisioned => 0,
                    StorePolicy::Lru => 1,
                });
                let slices = u32::try_from(p.slices.len())
                    .map_err(|_| proto_err("too many slices for one frame"))?;
                put_u32(buf, slices);
                for s in &p.slices {
                    put_u32(buf, s.node);
                    put_u64(buf, s.start);
                    put_u64(buf, s.end);
                }
                let peers = u32::try_from(p.peers.len())
                    .map_err(|_| proto_err("too many peers for one frame"))?;
                put_u32(buf, peers);
                for addr in &p.peers {
                    put_str(buf, addr)?;
                }
            }
            Request::Lookup { content } => {
                buf.push(kind::LOOKUP);
                put_u64(buf, *content);
            }
            Request::BatchLookup { tag, contents } => {
                encode_batch_lookup_from(buf, *tag, contents)?;
            }
            Request::PeerForward { content, budget_us } => {
                buf.push(kind::PEER_FORWARD);
                put_u64(buf, *content);
                put_u32(buf, *budget_us);
            }
            Request::PeerForwardBatch { tag, items } => {
                encode_forward_batch_from(buf, *tag, items)?;
            }
            Request::HealthProbe => buf.push(kind::HEALTH_PROBE),
            Request::Stats => buf.push(kind::STATS),
            Request::Shutdown => buf.push(kind::SHUTDOWN),
        }
        Ok(())
    }

    /// Parses a frame body as a request.
    ///
    /// # Errors
    ///
    /// [`EngineError::Protocol`] for unknown kinds, truncated or
    /// oversized payloads.
    pub fn decode(body: &[u8]) -> Result<Self, EngineError> {
        let mut c = Cursor::new(body);
        let k = c.u8()?;
        let req = match k {
            kind::HELLO => Request::Hello { node: c.u32()?, version: c.u8()? },
            kind::CONFIG_EPOCH => {
                let epoch = c.u64()?;
                let nodes = c.u32()?;
                let catalogue = c.u64()?;
                let capacity = c.u64()?;
                let prefix = c.u64()?;
                let x = c.u64()?;
                let fitted_s = f64::from_bits(c.u64()?);
                let policy = match c.u8()? {
                    0 => StorePolicy::Provisioned,
                    1 => StorePolicy::Lru,
                    other => return Err(proto_err(format!("unknown store policy code {other}"))),
                };
                let n_slices = c.u32()? as usize;
                if n_slices > MAX_FRAME as usize / 20 {
                    return Err(proto_err("slice count exceeds frame capacity"));
                }
                let mut slices = Vec::with_capacity(n_slices);
                for _ in 0..n_slices {
                    slices.push(SliceAssignment { node: c.u32()?, start: c.u64()?, end: c.u64()? });
                }
                let n_peers = c.u32()? as usize;
                if n_peers > u16::MAX as usize {
                    return Err(proto_err("peer count exceeds frame capacity"));
                }
                let mut peers = Vec::with_capacity(n_peers);
                for _ in 0..n_peers {
                    peers.push(c.str()?);
                }
                Request::ConfigEpoch(Provision {
                    epoch,
                    nodes,
                    catalogue,
                    capacity,
                    prefix,
                    x,
                    fitted_s,
                    policy,
                    slices,
                    peers,
                })
            }
            kind::LOOKUP => Request::Lookup { content: c.u64()? },
            kind::BATCH_LOOKUP => {
                let tag = c.u32()?;
                let count = c.u32()? as usize;
                if count > MAX_FRAME as usize / 8 {
                    return Err(proto_err("batch count exceeds frame capacity"));
                }
                let mut contents = Vec::with_capacity(count);
                for _ in 0..count {
                    contents.push(c.u64()?);
                }
                Request::BatchLookup { tag, contents }
            }
            kind::PEER_FORWARD => Request::PeerForward { content: c.u64()?, budget_us: c.u32()? },
            kind::PEER_FORWARD_BATCH => {
                let tag = c.u32()?;
                let count = c.u32()? as usize;
                if count > MAX_FRAME as usize / 12 {
                    return Err(proto_err("forward batch count exceeds frame capacity"));
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push((c.u64()?, c.u32()?));
                }
                Request::PeerForwardBatch { tag, items }
            }
            kind::HEALTH_PROBE => Request::HealthProbe,
            kind::STATS => Request::Stats,
            kind::SHUTDOWN => Request::Shutdown,
            other => return Err(proto_err(format!("unknown request kind {other:#04x}"))),
        };
        c.done()?;
        Ok(req)
    }
}

/// Node-to-client and node-to-node response frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Config push acknowledged; carries the node's (possibly
    /// unchanged) current epoch.
    EpochAck {
        /// The node's config epoch after processing the push.
        epoch: u64,
    },
    /// One lookup served by `tier` ([`TIER_LOCAL`] / [`TIER_PEER`] /
    /// [`TIER_ORIGIN`]).
    Served {
        /// Serving tier code.
        tier: u8,
    },
    /// Tier tally for one batch lookup; the four counts sum to the
    /// batch size.
    BatchServed {
        /// The tag of the `BatchLookup` this reply answers.
        tag: u32,
        /// Served from the node's own store.
        local: u64,
        /// Served by a peer's coordinated slice.
        peer: u64,
        /// Fell through to origin.
        origin: u64,
        /// Refused (only before provisioning).
        shed: u64,
    },
    /// Forward verdict ([`FWD_HIT`] / [`FWD_MISS`] / [`FWD_REFUSED`]).
    ForwardReply {
        /// Outcome code.
        outcome: u8,
    },
    /// Per-item verdicts for one `PeerForwardBatch`, in item order;
    /// `outcomes.len()` always equals the batch's item count.
    ForwardBatchReply {
        /// The tag of the batch this reply answers.
        tag: u32,
        /// One [`FWD_HIT`] / [`FWD_MISS`] / [`FWD_REFUSED`] per item.
        outcomes: Vec<u8>,
    },
    /// Handshake answer to `Hello`, carrying the node's protocol
    /// version; a version-mismatched `Hello` is answered `Refused`
    /// and the connection closed, so mixed-version clusters fail at
    /// connect time.
    HelloAck {
        /// The node's protocol version.
        version: u8,
    },
    /// Health probe answer.
    HealthAck {
        /// The node's config epoch (0 = not yet provisioned).
        epoch: u64,
    },
    /// Counter snapshot.
    StatsReply(NodeStatsSnapshot),
    /// Shutdown acknowledged.
    Bye,
    /// The node cannot serve the request (e.g. not yet provisioned).
    Refused {
        /// Human-readable reason.
        reason: String,
    },
}

impl Response {
    /// Serializes into a frame body (kind byte + payload).
    ///
    /// # Errors
    ///
    /// [`EngineError::Protocol`] if a field exceeds its wire width.
    pub fn encode(&self) -> Result<Vec<u8>, EngineError> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Serializes the frame body into caller scratch (appended).
    ///
    /// # Errors
    ///
    /// [`EngineError::Protocol`] if a field exceeds its wire width.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), EngineError> {
        match self {
            Response::EpochAck { epoch } => {
                buf.push(kind::EPOCH_ACK);
                put_u64(buf, *epoch);
            }
            Response::Served { tier } => {
                buf.push(kind::SERVED);
                buf.push(*tier);
            }
            Response::BatchServed { tag, local, peer, origin, shed } => {
                buf.push(kind::BATCH_SERVED);
                put_u32(buf, *tag);
                put_u64(buf, *local);
                put_u64(buf, *peer);
                put_u64(buf, *origin);
                put_u64(buf, *shed);
            }
            Response::ForwardReply { outcome } => {
                buf.push(kind::FORWARD_REPLY);
                buf.push(*outcome);
            }
            Response::ForwardBatchReply { tag, outcomes } => {
                encode_forward_batch_reply_from(buf, *tag, outcomes)?;
            }
            Response::HelloAck { version } => {
                buf.push(kind::HELLO_ACK);
                buf.push(*version);
            }
            Response::HealthAck { epoch } => {
                buf.push(kind::HEALTH_ACK);
                put_u64(buf, *epoch);
            }
            Response::StatsReply(stats) => {
                buf.push(kind::STATS_REPLY);
                let fields = stats.fields();
                put_u32(buf, fields.len() as u32);
                for v in fields {
                    put_u64(buf, v);
                }
            }
            Response::Bye => buf.push(kind::BYE),
            Response::Refused { reason } => {
                buf.push(kind::REFUSED);
                put_str(buf, reason)?;
            }
        }
        Ok(())
    }

    /// Parses a frame body as a response.
    ///
    /// # Errors
    ///
    /// [`EngineError::Protocol`] for unknown kinds or truncated
    /// payloads.
    pub fn decode(body: &[u8]) -> Result<Self, EngineError> {
        let mut c = Cursor::new(body);
        let k = c.u8()?;
        let resp = match k {
            kind::EPOCH_ACK => Response::EpochAck { epoch: c.u64()? },
            kind::SERVED => Response::Served { tier: c.u8()? },
            kind::BATCH_SERVED => Response::BatchServed {
                tag: c.u32()?,
                local: c.u64()?,
                peer: c.u64()?,
                origin: c.u64()?,
                shed: c.u64()?,
            },
            kind::FORWARD_REPLY => Response::ForwardReply { outcome: c.u8()? },
            kind::FORWARD_BATCH_REPLY => {
                let tag = c.u32()?;
                let count = c.u32()? as usize;
                if count > MAX_FRAME as usize {
                    return Err(proto_err("outcome count exceeds frame capacity"));
                }
                Response::ForwardBatchReply { tag, outcomes: c.take(count)?.to_vec() }
            }
            kind::HELLO_ACK => Response::HelloAck { version: c.u8()? },
            kind::HEALTH_ACK => Response::HealthAck { epoch: c.u64()? },
            kind::STATS_REPLY => {
                let count = c.u32()? as usize;
                if count > 1024 {
                    return Err(proto_err("stats field count exceeds frame capacity"));
                }
                let mut fields = Vec::with_capacity(count);
                for _ in 0..count {
                    fields.push(c.u64()?);
                }
                Response::StatsReply(NodeStatsSnapshot::from_fields(&fields))
            }
            kind::BYE => Response::Bye,
            kind::REFUSED => Response::Refused { reason: c.str()? },
            other => return Err(proto_err(format!("unknown response kind {other:#04x}"))),
        };
        c.done()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Hot-path codec (allocation-free)
// ---------------------------------------------------------------------------
//
// The enum codecs above stay the canonical, proptested definition of
// the wire format. The hot path — pipelined batch lookups and batched
// peer forwards — encodes from and decodes into caller-owned scratch
// with these helpers, which write/read byte-identical frames (proven
// by `fast_path_codecs_match_enum_codecs`).

fn encode_batch_lookup_from(
    buf: &mut Vec<u8>,
    tag: u32,
    contents: &[u64],
) -> Result<(), EngineError> {
    buf.push(kind::BATCH_LOOKUP);
    put_u32(buf, tag);
    let count = u32::try_from(contents.len()).map_err(|_| proto_err("batch exceeds u32 count"))?;
    put_u32(buf, count);
    for &c in contents {
        put_u64(buf, c);
    }
    Ok(())
}

fn decode_batch_lookup_into(body: &[u8], contents: &mut Vec<u64>) -> Result<u32, EngineError> {
    let mut c = Cursor::new(body);
    let k = c.u8()?;
    if k != kind::BATCH_LOOKUP {
        return Err(proto_err(format!("expected BatchLookup, got kind {k:#04x}")));
    }
    let tag = c.u32()?;
    let count = c.u32()? as usize;
    if count > MAX_FRAME as usize / 8 {
        return Err(proto_err("batch count exceeds frame capacity"));
    }
    contents.clear();
    contents.reserve(count);
    for _ in 0..count {
        contents.push(c.u64()?);
    }
    c.done()?;
    Ok(tag)
}

/// Decodes a `BatchServed` body as `(tag, local, peer, origin, shed)`.
fn decode_batch_served(body: &[u8]) -> Result<(u32, u64, u64, u64, u64), EngineError> {
    let mut c = Cursor::new(body);
    let k = c.u8()?;
    if k != kind::BATCH_SERVED {
        return Err(proto_err(format!("expected BatchServed, got kind {k:#04x}")));
    }
    let out = (c.u32()?, c.u64()?, c.u64()?, c.u64()?, c.u64()?);
    c.done()?;
    Ok(out)
}

fn encode_forward_batch_from(
    buf: &mut Vec<u8>,
    tag: u32,
    items: &[(u64, u32)],
) -> Result<(), EngineError> {
    buf.push(kind::PEER_FORWARD_BATCH);
    put_u32(buf, tag);
    let count =
        u32::try_from(items.len()).map_err(|_| proto_err("forward batch exceeds u32 count"))?;
    put_u32(buf, count);
    for &(content, budget_us) in items {
        put_u64(buf, content);
        put_u32(buf, budget_us);
    }
    Ok(())
}

fn decode_forward_batch_into(body: &[u8], items: &mut Vec<(u64, u32)>) -> Result<u32, EngineError> {
    let mut c = Cursor::new(body);
    let k = c.u8()?;
    if k != kind::PEER_FORWARD_BATCH {
        return Err(proto_err(format!("expected PeerForwardBatch, got kind {k:#04x}")));
    }
    let tag = c.u32()?;
    let count = c.u32()? as usize;
    if count > MAX_FRAME as usize / 12 {
        return Err(proto_err("forward batch count exceeds frame capacity"));
    }
    items.clear();
    items.reserve(count);
    for _ in 0..count {
        items.push((c.u64()?, c.u32()?));
    }
    c.done()?;
    Ok(tag)
}

fn encode_forward_batch_reply_from(
    buf: &mut Vec<u8>,
    tag: u32,
    outcomes: &[u8],
) -> Result<(), EngineError> {
    buf.push(kind::FORWARD_BATCH_REPLY);
    put_u32(buf, tag);
    let count = u32::try_from(outcomes.len()).map_err(|_| proto_err("reply exceeds u32 count"))?;
    put_u32(buf, count);
    buf.extend_from_slice(outcomes);
    Ok(())
}

/// Parses a `ForwardBatchReply` body as `(tag, outcomes)` without
/// copying the outcome bytes out of the receive buffer.
fn parse_forward_batch_reply(body: &[u8]) -> Result<(u32, &[u8]), EngineError> {
    let mut c = Cursor::new(body);
    let k = c.u8()?;
    if k != kind::FORWARD_BATCH_REPLY {
        return Err(proto_err(format!("expected ForwardBatchReply, got kind {k:#04x}")));
    }
    let tag = c.u32()?;
    let count = c.u32()? as usize;
    let outcomes = c.take(count)?;
    c.done()?;
    Ok((tag, outcomes))
}

// ---------------------------------------------------------------------------
// Node-side counters
// ---------------------------------------------------------------------------

macro_rules! node_stats {
    ($($(#[$doc:meta])* $field:ident),+ $(,)?) => {
        #[derive(Default)]
        struct NodeStats {
            $($field: AtomicU64,)+
        }

        /// Plain snapshot of a node's counters, carried in
        /// `StatsReply` frames. Field order is the wire order; a
        /// shorter reply decodes with the missing tail fields zero, so
        /// the snapshot can grow without breaking older peers.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub struct NodeStatsSnapshot {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl NodeStats {
            fn snapshot(&self) -> NodeStatsSnapshot {
                NodeStatsSnapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)+
                }
            }
        }

        impl NodeStatsSnapshot {
            fn fields(&self) -> Vec<u64> {
                vec![$(self.$field,)+]
            }

            fn from_fields(fields: &[u64]) -> Self {
                let mut it = fields.iter().copied();
                Self {
                    $($field: it.next().unwrap_or(0),)+
                }
            }
        }
    };
}

node_stats! {
    /// Client lookups offered to this node (single + batched).
    lookups,
    /// Lookups served from this node's own store.
    local,
    /// Lookups served by a peer's coordinated slice over the wire.
    peer,
    /// Lookups that fell through to origin.
    origin,
    /// Lookups refused because the node was not yet provisioned.
    shed,
    /// Peer-forward frames this node answered as holder.
    forwards_in,
    /// Forwards answered as holder hits.
    forward_hits,
    /// Forwards answered as holder misses.
    forward_misses,
    /// Peer-forward frames this node sent as client edge.
    forwards_out,
    /// Forward retries after a holder refused (backpressure).
    retried,
    /// Lookups routed to a rendezvous survivor instead of the primary.
    failed_over,
    /// Forwards abandoned because the deadline expired on the socket.
    deadline_expired,
    /// Forwards degraded to origin by socket failure or retry
    /// exhaustion.
    degraded,
    /// Peers this node marked down after consecutive socket failures.
    marked_down,
    /// Down peers restored by the background health prober.
    revived,
    /// Config epochs accepted (strictly newer than the current one).
    epochs_accepted,
    /// Connections accepted by the listener.
    connections,
    /// Completed forward round-trips with a measured RTT.
    rtt_count,
    /// Sum of measured forward RTTs, microseconds.
    rtt_sum_us,
    /// Minimum measured forward RTT, microseconds (0 if none).
    rtt_min_us,
    /// Maximum measured forward RTT, microseconds.
    rtt_max_us,
    /// The node's config epoch at snapshot time.
    epoch,
    /// `f64::to_bits` of the fitted Zipf exponent carried by the last
    /// accepted provisioning push (0 = static provisioning / no fit).
    /// Sits after `epoch` so an older peer's shorter reply still
    /// decodes with this tail field zero.
    fitted_s_bits,
    /// Frames received on the node's peer links (tail fields: absent
    /// in pre-pipelining replies, decode as zero).
    frames_in,
    /// Frames sent on the node's peer links.
    frames_out,
    /// Bytes received on the node's peer links.
    bytes_in,
    /// Bytes sent on the node's peer links.
    bytes_out,
    /// Coalesced `PeerForwardBatch` frames sent (each covers ≥ 1
    /// forwarded miss; `forwards_out / forward_batches` is the
    /// realized coalescing factor).
    forward_batches,
    /// Connections refused by the accept-loop cap.
    rejected_conns,
}

impl NodeStats {
    fn add(&self, field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    fn record_rtt(&self, rtt: Duration) {
        let us = u64::try_from(rtt.as_micros()).unwrap_or(u64::MAX);
        self.rtt_count.fetch_add(1, Ordering::Relaxed);
        self.rtt_sum_us.fetch_add(us, Ordering::Relaxed);
        self.rtt_min_us
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(if cur == 0 { us } else { cur.min(us) })
            })
            .ok();
        self.rtt_max_us.fetch_max(us, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Peer links (client side of the forward path)
// ---------------------------------------------------------------------------

/// Driver-local outcome codes for forwarded items whose round-trip
/// never completed. Never sent on the wire — the wire verdict space
/// is [`FWD_HIT`] / [`FWD_MISS`] / [`FWD_REFUSED`] — so they sit at
/// the top of the byte range.
const OUT_TIMEOUT: u8 = 0xFE;
/// See [`OUT_TIMEOUT`]: socket failure (refused, reset, desync).
const OUT_BROKEN: u8 = 0xFF;

fn resolve(addr: &str) -> Result<SocketAddr, EngineError> {
    addr.to_socket_addrs()
        .map_err(|e| net_err("resolve", format!("{addr}: {e}")))?
        .next()
        .ok_or_else(|| net_err("resolve", format!("{addr}: no addresses")))
}

/// Floor for connect/read timeouts so a zero remaining budget still
/// maps to a valid socket timeout (`set_read_timeout` rejects zero).
const MIN_SOCKET_TIMEOUT: Duration = Duration::from_micros(50);

/// Dials `addr` and completes the version handshake: `Hello` out,
/// `HelloAck` back. A mismatched or refused handshake is a hard error
/// — mixed-version clusters fail at connect time, not mid-stream.
fn connect_hello(
    addr: &str,
    my_id: u32,
    timeout: Duration,
    meter: Option<Arc<WireMeter>>,
) -> Result<Conn, EngineError> {
    let sockaddr = resolve(addr)?;
    let timeout = timeout.max(MIN_SOCKET_TIMEOUT);
    let stream =
        TcpStream::connect_timeout(&sockaddr, timeout).map_err(|e| net_io_err("connect", &e))?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(timeout)).map_err(|e| net_io_err("connect", &e))?;
    let mut conn = Conn::new(stream, meter);
    conn.send_request(&Request::Hello { node: my_id, version: PROTOCOL_VERSION })?;
    match conn.recv_response()? {
        Response::HelloAck { version: PROTOCOL_VERSION } => Ok(conn),
        Response::HelloAck { version } => Err(proto_err(format!(
            "protocol version mismatch: peer speaks v{version}, we speak v{PROTOCOL_VERSION}"
        ))),
        Response::Refused { reason } => Err(proto_err(format!("peer refused hello: {reason}"))),
        other => Err(proto_err(format!("unexpected hello answer {other:?}"))),
    }
}

/// Wraps an `io::Error`, classifying timeouts from its *kind*: Linux
/// reports a socket read timeout as `WouldBlock` ("Resource
/// temporarily unavailable"), other platforms as `TimedOut` — the
/// display string is not portable, the kind is.
fn net_io_err(op: &str, e: &io::Error) -> EngineError {
    let timeout = matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut);
    EngineError::Net { op: op.to_owned(), detail: e.to_string(), timeout }
}

/// Fails every not-yet-drained outcome slot from `from` on.
fn mark_from(outcomes: &mut [u8], from: usize, code: u8) {
    let from = from.min(outcomes.len());
    for o in &mut outcomes[from..] {
        *o = code;
    }
}

/// One outbound connection to a peer node, lazily established and
/// dropped on any failure (a timed-out stream may deliver a late
/// reply, which would desynchronize the framing — never reuse it).
/// The health prober uses its own persistent connection so probes
/// never interleave with forward framing.
struct PeerLink {
    node: usize,
    addr: String,
    conn: Mutex<Option<Conn>>,
    probe: Mutex<Option<Conn>>,
    failures: AtomicU32,
    next_tag: AtomicU32,
    meter: Arc<WireMeter>,
}

impl PeerLink {
    fn new(node: usize, addr: String, meter: Arc<WireMeter>) -> Self {
        Self {
            node,
            addr,
            conn: Mutex::new(None),
            probe: Mutex::new(None),
            failures: AtomicU32::new(0),
            next_tag: AtomicU32::new(0),
            meter,
        }
    }

    /// Forwards a burst of same-holder misses: `items` chunked into
    /// `PeerForwardBatch` frames of at most `max_per_frame` items,
    /// up to `window` tagged frames in flight, replies drained FIFO
    /// under the remaining `budget`. Fills one verdict per item into
    /// `outcomes` ([`FWD_HIT`] / [`FWD_MISS`] / [`FWD_REFUSED`] /
    /// [`OUT_TIMEOUT`] / [`OUT_BROKEN`]) and returns the number of
    /// frames sent. Any transport failure or tag desync fails the
    /// un-drained tail and drops the connection.
    fn forward_batch(
        &self,
        my_id: u32,
        items: &[(u64, u32)],
        budget: Duration,
        window: usize,
        max_per_frame: usize,
        outcomes: &mut Vec<u8>,
    ) -> u64 {
        outcomes.clear();
        outcomes.resize(items.len(), OUT_BROKEN);
        if items.is_empty() {
            return 0;
        }
        let budget = budget.max(MIN_SOCKET_TIMEOUT);
        let issued = Instant::now();
        let mut guard = lock_recover(&self.conn);
        if guard.is_none() {
            match connect_hello(&self.addr, my_id, budget, Some(self.meter.clone())) {
                Ok(c) => *guard = Some(c),
                Err(e) => {
                    let code = if is_timeout(&e) { OUT_TIMEOUT } else { OUT_BROKEN };
                    mark_from(outcomes, 0, code);
                    return 0;
                }
            }
        }
        let max_per_frame = max_per_frame.max(1);
        let chunks = items.len().div_ceil(max_per_frame);
        let base_tag =
            self.next_tag.fetch_add(u32::try_from(chunks).unwrap_or(u32::MAX), Ordering::Relaxed);
        let mut frames_sent = 0u64;
        let conn = guard.as_mut().expect("connection just established");
        let keep = pump_forward_batch(
            conn,
            base_tag,
            items,
            budget,
            issued,
            window.max(1),
            max_per_frame,
            outcomes,
            &mut frames_sent,
        );
        if !keep {
            *guard = None;
        }
        frames_sent
    }

    /// Health probe on a persistent dedicated connection (never the
    /// forward stream, whose framing a probe could interleave with),
    /// lazily redialled after any failure — a healthy peer costs one
    /// dial total instead of one per probe.
    fn probe_health(&self, my_id: u32) -> Option<u64> {
        let mut guard = lock_recover(&self.probe);
        if guard.is_none() {
            *guard = connect_hello(&self.addr, my_id, Duration::from_millis(100), None).ok();
        }
        let conn = guard.as_mut()?;
        let result = conn.send_request(&Request::HealthProbe).and_then(|()| conn.recv_response());
        match result {
            Ok(Response::HealthAck { epoch }) => Some(epoch),
            _ => {
                *guard = None;
                None
            }
        }
    }
}

/// The send/drain pump of [`PeerLink::forward_batch`], split out so
/// the caller can drop the connection when it returns `false`.
#[allow(clippy::too_many_arguments)]
fn pump_forward_batch(
    conn: &mut Conn,
    base_tag: u32,
    items: &[(u64, u32)],
    budget: Duration,
    issued: Instant,
    window: usize,
    max_per_frame: usize,
    outcomes: &mut [u8],
    frames_sent: &mut u64,
) -> bool {
    let chunks = items.len().div_ceil(max_per_frame);
    let mut sent = 0usize;
    let mut drained = 0usize;
    while drained < chunks {
        // Top up the credit window.
        while sent < chunks && sent - drained < window {
            let start = sent * max_per_frame;
            let end = (start + max_per_frame).min(items.len());
            let tag = base_tag.wrapping_add(sent as u32);
            if conn.send(|buf| encode_forward_batch_from(buf, tag, &items[start..end])).is_err() {
                mark_from(outcomes, drained * max_per_frame, OUT_BROKEN);
                return false;
            }
            *frames_sent += 1;
            sent += 1;
        }
        if let Some(m) = &conn.meter {
            m.window(sent - drained);
        }
        // Drain the oldest outstanding frame under what's left of the
        // budget.
        let remaining = budget.saturating_sub(issued.elapsed());
        if remaining.is_zero() {
            mark_from(outcomes, drained * max_per_frame, OUT_TIMEOUT);
            return false;
        }
        if conn.set_read_timeout(remaining).is_err() {
            mark_from(outcomes, drained * max_per_frame, OUT_BROKEN);
            return false;
        }
        let code = match conn.recv_len() {
            Ok(Some(_)) => None,
            Ok(None) => Some(OUT_BROKEN),
            Err(e) if is_timeout(&e) => Some(OUT_TIMEOUT),
            Err(_) => Some(OUT_BROKEN),
        };
        if let Some(code) = code {
            mark_from(outcomes, drained * max_per_frame, code);
            return false;
        }
        let start = drained * max_per_frame;
        let end = (start + max_per_frame).min(items.len());
        let want = base_tag.wrapping_add(drained as u32);
        match parse_forward_batch_reply(conn.last_frame()) {
            Ok((tag, verdicts)) if tag == want && verdicts.len() == end - start => {
                outcomes[start..end].copy_from_slice(verdicts);
                drained += 1;
            }
            // A stale tag, short reply, or any other frame means the
            // stream is desynchronized: fail the tail, drop the
            // connection.
            _ => {
                mark_from(outcomes, start, OUT_BROKEN);
                return false;
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Node server
// ---------------------------------------------------------------------------

/// Static configuration of one wire node process.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's id within the cluster (validated against the
    /// provisioned `nodes` at config-epoch time).
    pub id: usize,
    /// Listen address; `127.0.0.1:0` picks an ephemeral port, the
    /// bound address is reported by [`NodeServer::local_addr`].
    pub listen: String,
    /// Store shards (one pinned single-writer worker each).
    pub shards: usize,
    /// Per-shard ring capacity.
    pub queue_capacity: usize,
    /// Worker idle strategy.
    pub idle: IdleStrategy,
    /// Core placement for shard workers.
    pub placement: ShardPlacement,
    /// Degradation-ladder knobs for the forward path.
    pub degrade: DegradeConfig,
    /// Credit window: tagged frames in flight per node→peer forward
    /// connection (1 = stop-and-wait).
    pub window: usize,
    /// Maximum items coalesced into one `PeerForwardBatch` frame.
    pub wire_batch: usize,
    /// Accept-loop connection cap: excess accepts are answered with a
    /// typed `Refused` frame and dropped instead of spawning a serve
    /// thread.
    pub max_connections: usize,
}

impl NodeConfig {
    /// Defaults for node `id`: one shard, 1024-slot rings, ephemeral
    /// loopback listener, default degradation ladder, no pinning,
    /// window 8 × 64-item forward batches, 1024-connection cap.
    #[must_use]
    pub fn new(id: usize) -> Self {
        Self {
            id,
            listen: "127.0.0.1:0".to_owned(),
            shards: 1,
            queue_capacity: 1024,
            idle: IdleStrategy::spin_then_park(),
            placement: ShardPlacement::disabled(),
            degrade: DegradeConfig::default(),
            window: 8,
            wire_batch: 64,
            max_connections: 1024,
        }
    }
}

/// A provisioned node's runtime: store, routing view, and peer links,
/// swapped atomically as one unit at each accepted config epoch.
struct NodeEngine {
    provision: Provision,
    store: Arc<ShardedStore<()>>,
    handle: crate::shard::ShardHandle<()>,
    routing: LiveRouting,
    peers: Vec<Option<PeerLink>>,
}

struct NodeShared {
    config: NodeConfig,
    engine: RwLock<Option<Arc<NodeEngine>>>,
    epoch: AtomicU64,
    stats: NodeStats,
    shutdown: AtomicBool,
    /// Frame/byte meter shared by every accepted connection and peer
    /// link; folded into `stats` by [`sync_wire_stats`].
    meter: Arc<WireMeter>,
    /// Live (not yet closed) accepted connections, gating the accept
    /// loop's connection cap. Distinct from `stats.connections`, which
    /// counts every accepted connection.
    active_conns: AtomicUsize,
}

impl NodeShared {
    fn current_engine(&self) -> Option<Arc<NodeEngine>> {
        self.engine.read().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }
}

fn make_node_store(
    p: &Provision,
    my_slice: Option<&SliceAssignment>,
    shards: usize,
    shard: usize,
) -> Box<dyn ContentStore> {
    match p.policy {
        StorePolicy::Provisioned => {
            let (start, end) = my_slice.map_or((0, 0), |s| (s.start, s.end));
            let pinned = (1..=p.prefix)
                .chain(start..end)
                .map(ContentId)
                .filter(|&c| shard_of(c, shards) == shard);
            Box::new(StaticStore::new(pinned))
        }
        StorePolicy::Lru => {
            let base = p.capacity / shards as u64;
            let extra = u64::from((shard as u64) < p.capacity % shards as u64);
            #[allow(clippy::cast_possible_truncation)]
            let capacity = ((base + extra).max(1)) as usize;
            Box::new(LruStore::new(capacity))
        }
    }
}

fn build_store(
    config: &NodeConfig,
    p: &Provision,
) -> Result<(Arc<ShardedStore<()>>, crate::shard::ShardHandle<()>), EngineError> {
    let shards = config.shards;
    let mut spec = ShardSpec::new(shards, config.queue_capacity).idle(config.idle);
    if config.placement.pin() {
        spec = spec.pin_cores(
            (0..shards).map(|s| Some(config.placement.worker_core(config.id, shards, s))).collect(),
        );
    }
    let my_slice = p.slices.iter().find(|s| s.node as usize == config.id);
    let store = ShardedStore::try_spawn_with(
        spec,
        |shard| make_node_store(p, my_slice, shards, shard),
        Arc::new(|_store: &mut dyn ContentStore, _job: ()| {}),
    )?;
    let handle = store.handle();
    Ok((Arc::new(store), handle))
}

fn provision_node(shared: &NodeShared, p: Provision) -> Result<u64, EngineError> {
    let mut guard = shared.engine.write().unwrap_or_else(std::sync::PoisonError::into_inner);
    let current = shared.epoch.load(Ordering::Acquire);
    if p.epoch <= current {
        return Ok(current);
    }
    if shared.config.id >= p.nodes as usize {
        return Err(EngineError::InvalidConfig {
            reason: format!(
                "node id {} outside provisioned cluster of {} nodes",
                shared.config.id, p.nodes
            ),
        });
    }
    let assignments: Vec<ccn_coord::RouterAssignment> = p
        .slices
        .iter()
        .map(|s| ccn_coord::RouterAssignment {
            router: s.node as usize,
            local_prefix: p.prefix,
            slice: s.start..s.end,
        })
        .collect();
    let table = RoutingTable::from_assignments(&assignments, p.nodes as usize)?;
    // An epoch with an identical store layout (the common case:
    // re-provisioning survivors after a revival changed only peer
    // addresses) keeps the store, preserving cache warmth; a layout
    // change rebuilds it.
    let (store, handle) = match guard.as_ref() {
        Some(old) if old.provision.same_layout(&p) => (old.store.clone(), old.handle.clone()),
        _ => build_store(&shared.config, &p)?,
    };
    let peers = (0..p.nodes as usize)
        .map(|n| {
            if n == shared.config.id {
                None
            } else {
                p.peers.get(n).map(|addr| PeerLink::new(n, addr.clone(), shared.meter.clone()))
            }
        })
        .collect();
    let engine = Arc::new(NodeEngine {
        routing: LiveRouting::new(table),
        provision: p.clone(),
        store,
        handle,
        peers,
    });
    *guard = Some(engine);
    shared.epoch.store(p.epoch, Ordering::Release);
    shared.stats.add(&shared.stats.epochs_accepted);
    shared.stats.epoch.store(p.epoch, Ordering::Relaxed);
    shared.stats.fitted_s_bits.store(p.fitted_s.to_bits(), Ordering::Relaxed);
    Ok(p.epoch)
}

/// Marks `holder` down once the consecutive-failure streak crosses
/// the configured threshold, bumping the routing epoch so HRW
/// failover moves exactly that node's share. `failed_items` counts
/// items (not frames), matching the pre-batching per-forward streak
/// dynamics.
fn note_forward_failure(
    shared: &NodeShared,
    engine: &NodeEngine,
    holder: usize,
    failed_items: u64,
) {
    if shared.config.degrade.timeout_threshold == 0 || failed_items == 0 {
        return;
    }
    let Some(link) = engine.peers.get(holder).and_then(Option::as_ref) else {
        return;
    };
    let items = u32::try_from(failed_items).unwrap_or(u32::MAX);
    let streak = link.failures.fetch_add(items, Ordering::Relaxed).saturating_add(items);
    if streak >= shared.config.degrade.timeout_threshold
        && engine.routing.set_live(holder, false).is_some()
    {
        shared.stats.add(&shared.stats.marked_down);
    }
}

/// Per-connection reusable decode/serve scratch: a warm connection
/// serves batches end to end without allocating. `groups` is the
/// miss-coalescing hand-off shared with the in-process cluster.
#[derive(Default)]
struct ServeScratch {
    /// Decoded `BatchLookup` ranks.
    contents: Vec<u64>,
    /// Decoded `PeerForwardBatch` items.
    items: Vec<(u64, u32)>,
    /// Probe ids for `probe_batch`.
    ids: Vec<ContentId>,
    /// Probe verdicts.
    hits: Vec<bool>,
    /// Misses grouped by destination holder.
    groups: crate::cluster::HolderGroups,
    /// Item indices awaiting a verdict in the current retry round.
    pending: Vec<usize>,
    /// Item indices refused this round, retried next round.
    retry: Vec<usize>,
    /// `(content, budget_us)` items for the in-flight forward frames.
    fwd_items: Vec<(u64, u32)>,
    /// Per-item verdict bytes (forward replies in, serve replies out).
    outcomes: Vec<u8>,
}

/// Serves one batch of client lookups, returning `(local, peer,
/// origin)` tier counts (their sum is the batch size). Probes the
/// whole batch through the shard pipeline first, then coalesces the
/// misses by destination holder so a burst of misses to one peer
/// costs one pipelined frame conversation instead of one round-trip
/// per miss.
fn serve_batch(
    shared: &NodeShared,
    engine: &NodeEngine,
    scratch: &mut ServeScratch,
) -> (u64, u64, u64) {
    let ServeScratch { contents, ids, hits, groups, pending, retry, fwd_items, outcomes, .. } =
        scratch;
    let stats = &shared.stats;
    stats.lookups.fetch_add(contents.len() as u64, Ordering::Relaxed);
    ids.clear();
    ids.extend(contents.iter().map(|&c| ContentId(c)));
    engine.handle.probe_batch(ids, hits);
    let me = shared.config.id;
    let (mut local, mut peer, mut origin) = (0u64, 0u64, 0u64);
    groups.reset(engine.peers.len());
    for (i, &content) in contents.iter().enumerate() {
        let id = ContentId(content);
        if hits.get(i).copied().unwrap_or(false) {
            stats.add(&stats.local);
            local += 1;
            continue;
        }
        match engine.routing.holder(id) {
            Some(holder) if holder != me => {
                if engine.routing.primary(id) != Some(holder) {
                    stats.add(&stats.failed_over);
                }
                groups.push(holder, i);
            }
            _ => {
                // Uncoordinated content (or this node is the holder
                // and missed): origin serves; under LRU the edge
                // admits it, mirroring the in-process cluster.
                if engine.provision.policy == StorePolicy::Lru {
                    engine.handle.apply(id);
                }
                stats.add(&stats.origin);
                origin += 1;
            }
        }
    }
    for gi in 0..groups.occupied().len() {
        let holder = groups.occupied()[gi];
        let (p, o) = forward_group(
            shared,
            engine,
            holder,
            contents,
            groups.items(holder),
            pending,
            retry,
            fwd_items,
            outcomes,
        );
        peer += p;
        origin += o;
    }
    (local, peer, origin)
}

/// Runs the degradation ladder for one holder's coalesced miss group:
/// forward the whole group in pipelined batch frames, retry refused
/// items under backoff, degrade transport failures to origin, honour
/// the shared deadline. Returns `(peer, origin)` counts; every index
/// in `idxs` resolves to exactly one of the two.
#[allow(clippy::too_many_arguments)]
fn forward_group(
    shared: &NodeShared,
    engine: &NodeEngine,
    holder: usize,
    contents: &[u64],
    idxs: &[usize],
    pending: &mut Vec<usize>,
    retry: &mut Vec<usize>,
    fwd_items: &mut Vec<(u64, u32)>,
    outcomes: &mut Vec<u8>,
) -> (u64, u64) {
    let stats = &shared.stats;
    let Some(link) = engine.peers.get(holder).and_then(Option::as_ref) else {
        stats.degraded.fetch_add(idxs.len() as u64, Ordering::Relaxed);
        stats.origin.fetch_add(idxs.len() as u64, Ordering::Relaxed);
        return (0, idxs.len() as u64);
    };
    let me = shared.config.id as u32;
    let deadline = shared.config.degrade.forward_deadline;
    let issued = Instant::now();
    pending.clear();
    pending.extend_from_slice(idxs);
    let (mut peer, mut origin) = (0u64, 0u64);
    let mut attempt = 0u32;
    loop {
        let remaining = deadline.saturating_sub(issued.elapsed());
        if remaining.is_zero() {
            stats.deadline_expired.fetch_add(pending.len() as u64, Ordering::Relaxed);
            stats.origin.fetch_add(pending.len() as u64, Ordering::Relaxed);
            origin += pending.len() as u64;
            break;
        }
        stats.forwards_out.fetch_add(pending.len() as u64, Ordering::Relaxed);
        let budget_us = u32::try_from(remaining.as_micros()).unwrap_or(u32::MAX);
        fwd_items.clear();
        fwd_items.extend(pending.iter().map(|&i| (contents[i], budget_us)));
        let sent = Instant::now();
        let frames = link.forward_batch(
            me,
            fwd_items,
            remaining,
            shared.config.window,
            shared.config.wire_batch,
            outcomes,
        );
        stats.forward_batches.fetch_add(frames, Ordering::Relaxed);
        retry.clear();
        let mut answered = false;
        let mut failed_items = 0u64;
        for (k, &i) in pending.iter().enumerate() {
            match outcomes.get(k).copied().unwrap_or(OUT_BROKEN) {
                FWD_HIT => {
                    answered = true;
                    stats.add(&stats.peer);
                    peer += 1;
                }
                FWD_MISS => {
                    answered = true;
                    stats.add(&stats.origin);
                    origin += 1;
                }
                FWD_REFUSED => retry.push(i),
                OUT_TIMEOUT => {
                    failed_items += 1;
                    stats.add(&stats.deadline_expired);
                    stats.add(&stats.origin);
                    origin += 1;
                }
                _ => {
                    failed_items += 1;
                    stats.add(&stats.degraded);
                    stats.add(&stats.origin);
                    origin += 1;
                }
            }
        }
        if answered {
            link.failures.store(0, Ordering::Relaxed);
            stats.record_rtt(sent.elapsed());
        }
        note_forward_failure(shared, engine, holder, failed_items);
        if retry.is_empty() {
            break;
        }
        if attempt >= shared.config.degrade.forward_retries {
            stats.degraded.fetch_add(retry.len() as u64, Ordering::Relaxed);
            stats.origin.fetch_add(retry.len() as u64, Ordering::Relaxed);
            origin += retry.len() as u64;
            break;
        }
        attempt += 1;
        stats.retried.fetch_add(retry.len() as u64, Ordering::Relaxed);
        std::thread::sleep(shared.config.degrade.retry_backoff * attempt);
        std::mem::swap(pending, retry);
    }
    (peer, origin)
}

/// Serves one coalesced `PeerForwardBatch` as holder, filling one
/// verdict per item into `scratch.outcomes` — always the full item
/// count, so a partial serve is per-item verdicts, never a truncated
/// reply.
fn serve_forward_batch(shared: &NodeShared, engine: &NodeEngine, scratch: &mut ServeScratch) {
    let ServeScratch { items, ids, hits, outcomes, .. } = scratch;
    let stats = &shared.stats;
    stats.forwards_in.fetch_add(items.len() as u64, Ordering::Relaxed);
    ids.clear();
    ids.extend(items.iter().map(|&(c, _)| ContentId(c)));
    engine.handle.probe_batch(ids, hits);
    outcomes.clear();
    let (mut hit_n, mut miss_n) = (0u64, 0u64);
    for (i, &(content, _budget_us)) in items.iter().enumerate() {
        if hits.get(i).copied().unwrap_or(false) {
            hit_n += 1;
            outcomes.push(FWD_HIT);
        } else {
            // Holder miss: origin serves at the requesting edge;
            // under LRU the holder admits its coordinated content so
            // traffic attracts the slice into place.
            let id = ContentId(content);
            if engine.provision.policy == StorePolicy::Lru
                && engine.routing.holder(id) == Some(shared.config.id)
            {
                engine.handle.apply(id);
            }
            miss_n += 1;
            outcomes.push(FWD_MISS);
        }
    }
    stats.forward_hits.fetch_add(hit_n, Ordering::Relaxed);
    stats.forward_misses.fetch_add(miss_n, Ordering::Relaxed);
}

/// Copies the shared wire meter into the stats counters so a
/// `StatsReply` (and the final run snapshot) carries frame/byte
/// totals.
fn sync_wire_stats(shared: &NodeShared) {
    let m = &shared.meter;
    shared.stats.frames_in.store(m.frames_in.load(Ordering::Relaxed), Ordering::Relaxed);
    shared.stats.frames_out.store(m.frames_out.load(Ordering::Relaxed), Ordering::Relaxed);
    shared.stats.bytes_in.store(m.bytes_in.load(Ordering::Relaxed), Ordering::Relaxed);
    shared.stats.bytes_out.store(m.bytes_out.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// One router as a standalone wire-serving process (or thread, for
/// in-process tests): binds, then [`NodeServer::run`] serves until a
/// `Shutdown` frame arrives.
pub struct NodeServer {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<NodeShared>,
}

impl NodeServer {
    /// Binds the listener without serving yet.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] for zero shards or queue
    /// capacity, [`EngineError::Net`] if the bind fails.
    pub fn bind(config: NodeConfig) -> Result<Self, EngineError> {
        if config.shards == 0 || config.queue_capacity == 0 {
            return Err(EngineError::InvalidConfig {
                reason: "node needs at least one shard and a non-empty queue".into(),
            });
        }
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| net_err("bind", format!("{}: {e}", config.listen)))?;
        let local_addr = listener.local_addr().map_err(|e| net_io_err("bind", &e))?;
        listener.set_nonblocking(true).map_err(|e| net_io_err("bind", &e))?;
        let shared = Arc::new(NodeShared {
            config,
            engine: RwLock::new(None),
            epoch: AtomicU64::new(0),
            stats: NodeStats::default(),
            shutdown: AtomicBool::new(false),
            meter: Arc::new(WireMeter::default()),
            active_conns: AtomicUsize::new(0),
        });
        Ok(Self { listener, local_addr, shared })
    }

    /// The bound listen address (resolves `:0` to the actual port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests shutdown from another thread (tests); the serve loop
    /// notices within one accept-poll interval.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// Serves until a `Shutdown` frame (or [`Self::request_shutdown`])
    /// stops the loop, then returns the final counter snapshot.
    ///
    /// # Errors
    ///
    /// [`EngineError::Net`] if the listener itself fails; per-
    /// connection failures only drop that connection.
    pub fn run(&self) -> Result<NodeStatsSnapshot, EngineError> {
        let shared = &self.shared;
        std::thread::scope(|scope| {
            scope.spawn(|| health_prober(shared));
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        // Connection cap first, before this connection
                        // touches the stats census: a refused
                        // connection must not count.
                        if shared.active_conns.load(Ordering::Relaxed)
                            >= shared.config.max_connections
                        {
                            shared.stats.add(&shared.stats.rejected_conns);
                            let mut conn = Conn::new(stream, None);
                            let _ = conn.send_response(&Response::Refused {
                                reason: format!(
                                    "connection cap {} reached",
                                    shared.config.max_connections
                                ),
                            });
                            continue;
                        }
                        shared.stats.add(&shared.stats.connections);
                        shared.active_conns.fetch_add(1, Ordering::Relaxed);
                        scope.spawn(move || {
                            serve_conn(shared, stream);
                            shared.active_conns.fetch_sub(1, Ordering::Relaxed);
                        });
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::Interrupted =>
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => {
                        shared.shutdown.store(true, Ordering::Release);
                        return Err(net_io_err("accept", &e));
                    }
                }
            }
            Ok(())
        })?;
        shared.stats.epoch.store(shared.epoch.load(Ordering::Acquire), Ordering::Relaxed);
        sync_wire_stats(shared);
        Ok(shared.stats.snapshot())
    }
}

/// Background prober: pings peers this node has marked down and
/// restores them in the routing view when they answer again. This is
/// the wire tier's analogue of the in-process op-count probation —
/// wall-clock because a dead *process* produces no ops to count.
fn health_prober(shared: &NodeShared) {
    let my_id = shared.config.id as u32;
    while !shared.shutdown.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(25));
        let Some(engine) = shared.current_engine() else {
            continue;
        };
        for link in engine.peers.iter().flatten() {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            if engine.routing.is_live(link.node) {
                continue;
            }
            if link.probe_health(my_id).is_some() {
                link.failures.store(0, Ordering::Relaxed);
                if engine.routing.set_live(link.node, true).is_some() {
                    shared.stats.add(&shared.stats.revived);
                }
            }
        }
    }
}

/// Receives the next frame on `conn`, retrying idle timeouts until
/// shutdown; `Ok(true)` means a frame is ready in `conn.last_frame()`.
/// A timeout can only be treated as idle on a frame boundary; frames
/// are small enough (≤ [`MAX_FRAME`]) that a mid-frame stall means
/// the peer is gone and the connection is dropped by the caller.
fn recv_idle(conn: &mut Conn, shutdown: &AtomicBool) -> Result<bool, EngineError> {
    loop {
        match conn.recv_len() {
            Ok(Some(_)) => return Ok(true),
            Ok(None) => return Ok(false),
            Err(e) if is_timeout(&e) => {
                if shutdown.load(Ordering::Acquire) {
                    return Ok(false);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// A malformed frame poisons the framing: answer `Refused` once, then
/// the caller drops the connection.
fn refuse_malformed(conn: &mut Conn, e: &EngineError) {
    let _ = conn.send_response(&Response::Refused { reason: e.to_string() });
}

fn serve_conn(shared: &NodeShared, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut conn = Conn::new(stream, Some(shared.meter.clone()));
    let mut scratch = ServeScratch::default();
    loop {
        match recv_idle(&mut conn, &shared.shutdown) {
            Ok(true) => {}
            Ok(false) | Err(_) => return,
        }
        // The two hot frame kinds dispatch on the kind byte and decode
        // into connection scratch; everything else takes the enum
        // path.
        match conn.last_frame().first().copied() {
            Some(kind::BATCH_LOOKUP) => {
                let tag = match decode_batch_lookup_into(conn.last_frame(), &mut scratch.contents) {
                    Ok(tag) => tag,
                    Err(e) => return refuse_malformed(&mut conn, &e),
                };
                let (local, peer, origin, shed) = match shared.current_engine() {
                    Some(engine) => {
                        let (l, p, o) = serve_batch(shared, &engine, &mut scratch);
                        (l, p, o, 0)
                    }
                    None => {
                        let n = scratch.contents.len() as u64;
                        shared.stats.lookups.fetch_add(n, Ordering::Relaxed);
                        shared.stats.shed.fetch_add(n, Ordering::Relaxed);
                        (0, 0, 0, n)
                    }
                };
                let reply = Response::BatchServed { tag, local, peer, origin, shed };
                if conn.send_response(&reply).is_err() {
                    return;
                }
            }
            Some(kind::PEER_FORWARD_BATCH) => {
                let tag = match decode_forward_batch_into(conn.last_frame(), &mut scratch.items) {
                    Ok(tag) => tag,
                    Err(e) => return refuse_malformed(&mut conn, &e),
                };
                match shared.current_engine() {
                    Some(engine) => serve_forward_batch(shared, &engine, &mut scratch),
                    None => {
                        scratch.outcomes.clear();
                        scratch.outcomes.resize(scratch.items.len(), FWD_REFUSED);
                    }
                }
                let sent =
                    conn.send(|buf| encode_forward_batch_reply_from(buf, tag, &scratch.outcomes));
                if sent.is_err() {
                    return;
                }
            }
            _ => {
                let request = match Request::decode(conn.last_frame()) {
                    Ok(r) => r,
                    Err(e) => return refuse_malformed(&mut conn, &e),
                };
                let (response, close) = match handle_control(shared, request, &mut scratch) {
                    Ok((resp, close)) => (resp, close),
                    Err(e) => (Response::Refused { reason: e.to_string() }, false),
                };
                if conn.send_response(&response).is_err() || close {
                    return;
                }
            }
        }
    }
}

/// Handles the control-plane (non-hot-path) requests; returns the
/// reply and whether the connection must close afterwards.
fn handle_control(
    shared: &NodeShared,
    request: Request,
    scratch: &mut ServeScratch,
) -> Result<(Response, bool), EngineError> {
    let stats = &shared.stats;
    Ok(match request {
        Request::Hello { version, .. } => {
            // The producer lane was pre-registered at accept; the
            // preamble identifies the peer and gates the protocol
            // version — a mismatch closes the connection so mixed
            // clusters fail at the handshake.
            if version == PROTOCOL_VERSION {
                (Response::HelloAck { version: PROTOCOL_VERSION }, false)
            } else {
                (
                    Response::Refused {
                        reason: format!(
                            "protocol version mismatch: client speaks v{version}, \
                             node speaks v{PROTOCOL_VERSION}"
                        ),
                    },
                    true,
                )
            }
        }
        Request::ConfigEpoch(p) => {
            let epoch = provision_node(shared, p)?;
            (Response::EpochAck { epoch }, false)
        }
        Request::Lookup { content } => match shared.current_engine() {
            Some(engine) => {
                scratch.contents.clear();
                scratch.contents.push(content);
                let (local, peer, _) = serve_batch(shared, &engine, scratch);
                let tier = if local > 0 {
                    TIER_LOCAL
                } else if peer > 0 {
                    TIER_PEER
                } else {
                    TIER_ORIGIN
                };
                (Response::Served { tier }, false)
            }
            None => {
                stats.add(&stats.lookups);
                stats.add(&stats.shed);
                (Response::Refused { reason: "node not provisioned".into() }, false)
            }
        },
        // The batch kinds normally dispatch on the kind byte in
        // `serve_conn`; these arms keep the enum path equivalent.
        Request::BatchLookup { tag, contents } => {
            scratch.contents.clear();
            scratch.contents.extend_from_slice(&contents);
            match shared.current_engine() {
                Some(engine) => {
                    let (local, peer, origin) = serve_batch(shared, &engine, scratch);
                    (Response::BatchServed { tag, local, peer, origin, shed: 0 }, false)
                }
                None => {
                    let n = contents.len() as u64;
                    stats.lookups.fetch_add(n, Ordering::Relaxed);
                    stats.shed.fetch_add(n, Ordering::Relaxed);
                    (Response::BatchServed { tag, local: 0, peer: 0, origin: 0, shed: n }, false)
                }
            }
        }
        Request::PeerForward { content, .. } => {
            let Some(engine) = shared.current_engine() else {
                return Ok((Response::ForwardReply { outcome: FWD_REFUSED }, false));
            };
            stats.add(&stats.forwards_in);
            let id = ContentId(content);
            if engine.handle.probe(id) {
                stats.add(&stats.forward_hits);
                (Response::ForwardReply { outcome: FWD_HIT }, false)
            } else {
                // Holder miss: origin serves at the requesting edge;
                // under LRU the holder admits its coordinated content
                // so traffic attracts the slice into place.
                if engine.provision.policy == StorePolicy::Lru
                    && engine.routing.holder(id) == Some(shared.config.id)
                {
                    engine.handle.apply(id);
                }
                stats.add(&stats.forward_misses);
                (Response::ForwardReply { outcome: FWD_MISS }, false)
            }
        }
        Request::PeerForwardBatch { tag, items } => {
            scratch.items.clear();
            scratch.items.extend_from_slice(&items);
            match shared.current_engine() {
                Some(engine) => serve_forward_batch(shared, &engine, scratch),
                None => {
                    scratch.outcomes.clear();
                    scratch.outcomes.resize(scratch.items.len(), FWD_REFUSED);
                }
            }
            (Response::ForwardBatchReply { tag, outcomes: scratch.outcomes.clone() }, false)
        }
        Request::HealthProbe => {
            (Response::HealthAck { epoch: shared.epoch.load(Ordering::Acquire) }, false)
        }
        Request::Stats => {
            shared.stats.epoch.store(shared.epoch.load(Ordering::Acquire), Ordering::Relaxed);
            sync_wire_stats(shared);
            (Response::StatsReply(shared.stats.snapshot()), false)
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::Release);
            (Response::Bye, true)
        }
    })
}

// ---------------------------------------------------------------------------
// Coordinator / driver
// ---------------------------------------------------------------------------

/// How the driver brings up node serving loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeLaunch {
    /// Node servers run as threads inside the driver process —
    /// exercises the full wire path over loopback without child
    /// processes. Kill/revive faults are not available (a thread
    /// cannot be SIGKILLed).
    InProcess,
    /// Node servers run as `ccn node` child processes spawned from
    /// this executable path; kill faults SIGKILL the process.
    Exe(PathBuf),
}

/// One scheduled process-level fault, triggered when the cluster-wide
/// offered-request count crosses `at_op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireFault {
    /// Offered-op threshold that triggers the fault.
    pub at_op: u64,
    /// What happens.
    pub kind: WireFaultKind,
}

/// Process-level fault kinds for the wire driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFaultKind {
    /// SIGKILL node `n`'s process (no warning, no drain).
    Kill(usize),
    /// Respawn node `n` and re-provision the cluster under a bumped
    /// config epoch.
    Revive(usize),
}

impl std::fmt::Display for WireFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireFaultKind::Kill(n) => write!(f, "kill:{n}"),
            WireFaultKind::Revive(n) => write!(f, "revive:{n}"),
        }
    }
}

/// Full specification of a wire-mode serving benchmark.
#[derive(Debug, Clone)]
pub struct WireSpec {
    /// Cluster size.
    pub nodes: usize,
    /// Store shards per node.
    pub shards_per_node: usize,
    /// Per-shard ring capacity.
    pub queue_capacity: usize,
    /// Catalogue size.
    pub catalogue: u64,
    /// Per-node store capacity `c`.
    pub capacity: u64,
    /// Coordinated fraction `ℓ = x/c`.
    pub ell: f64,
    /// Store population policy.
    pub policy: StorePolicy,
    /// Zipf exponent of the request stream.
    pub zipf_s: f64,
    /// Per-node client request rate, requests per millisecond.
    pub rate_per_node_per_ms: f64,
    /// Workload horizon, milliseconds.
    pub horizon_ms: f64,
    /// Pace requests to their Poisson arrival times (false = drive
    /// as fast as the wire allows).
    pub paced: bool,
    /// Workload seed — the driver draws the identical
    /// `zipf_irm(&[0..nodes], …)` stream as the in-process
    /// [`crate::load::OpenLoopConfig`] with one generator, so wire
    /// and in-process runs are comparable request-for-request.
    pub seed: u64,
    /// Requests per `BatchLookup` frame.
    pub batch: usize,
    /// Credit window: frames in flight per driver→node (and, via the
    /// node config, node→peer) connection. 1 = PR 8 stop-and-wait.
    pub window: usize,
    /// Max misses coalesced into one `PeerForwardBatch` frame on the
    /// node side.
    pub wire_batch: usize,
    /// Per-node accepted-connection cap (excess accepts are refused
    /// with a typed frame).
    pub max_conns: usize,
    /// Node worker idle strategy.
    pub idle: IdleStrategy,
    /// Core placement passed through to node processes.
    pub placement: ShardPlacement,
    /// Degradation-ladder knobs passed through to node processes.
    pub degrade: DegradeConfig,
    /// Scheduled kill/revive faults (requires [`NodeLaunch::Exe`]).
    pub faults: Vec<WireFault>,
    /// How node serving loops are brought up.
    pub launch: NodeLaunch,
    /// Run the adaptive-provisioning controller on the driver: sample
    /// offered ranks, re-fit the exponent, and stage budgeted config
    /// epochs to every live node ([`crate::control`]).
    pub adapt: Option<ControllerConfig>,
}

impl WireSpec {
    /// Defaults mirroring the in-process serve-bench smoke settings.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes,
            shards_per_node: 1,
            queue_capacity: 1024,
            catalogue: 10_000,
            capacity: 100,
            ell: 0.5,
            policy: StorePolicy::Provisioned,
            zipf_s: 0.8,
            rate_per_node_per_ms: 0.5,
            horizon_ms: 1_000.0,
            paced: false,
            seed: 42,
            batch: 64,
            window: 8,
            wire_batch: 64,
            max_conns: 1024,
            idle: IdleStrategy::spin_then_park(),
            placement: ShardPlacement::disabled(),
            degrade: DegradeConfig::default(),
            faults: Vec::new(),
            launch: NodeLaunch::InProcess,
            adapt: None,
        }
    }

    /// Coordinated slots per node, `x = round(ℓ·c)` — the identical
    /// rounding as [`crate::ClusterConfig::x`].
    #[must_use]
    pub fn x(&self) -> u64 {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            (self.ell * self.capacity as f64).round() as u64
        }
    }

    /// Local popularity prefix `c − x`.
    #[must_use]
    pub fn local_prefix(&self) -> u64 {
        self.capacity - self.x()
    }

    /// Builds the provisioning push for `epoch` with the given peer
    /// address list (one entry per node, indexed by id).
    #[must_use]
    pub fn provision(&self, epoch: u64, peers: Vec<String>) -> Provision {
        let x = self.x();
        let prefix = self.local_prefix();
        let slices = contiguous_slices(prefix, prefix + 1, x, self.nodes)
            .into_iter()
            .map(|a| SliceAssignment {
                node: a.router as u32,
                start: a.slice.start,
                end: a.slice.end,
            })
            .collect();
        Provision {
            epoch,
            nodes: self.nodes as u32,
            catalogue: self.catalogue,
            capacity: self.capacity,
            prefix,
            x,
            fitted_s: 0.0,
            policy: self.policy,
            slices,
            peers,
        }
    }

    fn validate(&self) -> Result<(), EngineError> {
        let invalid = |reason: String| Err(EngineError::InvalidConfig { reason });
        if self.nodes == 0 {
            return invalid("need at least one node".into());
        }
        if self.capacity == 0 {
            return invalid("need a non-zero store capacity".into());
        }
        if !(0.0..=1.0).contains(&self.ell) || self.ell.is_nan() {
            return invalid(format!("ell {} outside [0, 1]", self.ell));
        }
        if self.batch == 0 {
            return invalid("batch must be >= 1".into());
        }
        if self.window == 0 {
            return invalid("window must be >= 1 (1 = stop-and-wait)".into());
        }
        if self.wire_batch == 0 {
            return invalid("wire-batch must be >= 1".into());
        }
        if self.max_conns == 0 {
            return invalid("max-conns must be >= 1".into());
        }
        let coordinated_end = self.local_prefix() + self.nodes as u64 * self.x();
        if coordinated_end > self.catalogue {
            return invalid(format!(
                "catalogue {} too small for prefix + {} slices of x = {}",
                self.catalogue,
                self.nodes,
                self.x()
            ));
        }
        if let Some(adapt) = &self.adapt {
            adapt.validate(self.nodes)?;
        }
        let mut dead = vec![false; self.nodes];
        let mut last_op = 0u64;
        for fault in &self.faults {
            if fault.at_op < last_op {
                return Err(EngineError::FaultSpec {
                    reason: "wire faults must be sorted by at_op".into(),
                });
            }
            last_op = fault.at_op;
            match fault.kind {
                WireFaultKind::Kill(n) => {
                    if n >= self.nodes {
                        return Err(EngineError::FaultSpec {
                            reason: format!("kill references node {n} of {}", self.nodes),
                        });
                    }
                    if dead[n] {
                        return Err(EngineError::FaultSpec {
                            reason: format!("node {n} killed twice without a revive"),
                        });
                    }
                    dead[n] = true;
                }
                WireFaultKind::Revive(n) => {
                    if n >= self.nodes {
                        return Err(EngineError::FaultSpec {
                            reason: format!("revive references node {n} of {}", self.nodes),
                        });
                    }
                    if !dead[n] {
                        return Err(EngineError::FaultSpec {
                            reason: format!("revive of node {n} without a prior kill"),
                        });
                    }
                    dead[n] = false;
                }
            }
        }
        if !self.faults.is_empty() && self.launch == NodeLaunch::InProcess {
            return Err(EngineError::FaultSpec {
                reason: "kill/revive faults need child processes (NodeLaunch::Exe); \
                         an in-process node thread cannot be SIGKILLed"
                    .into(),
            });
        }
        Ok(())
    }
}

/// Per-node driver-side tier ledger. `offered` counts every request
/// the driver issued for this node's clients; each lands in exactly
/// one of the other buckets, so `offered == completed() + shed`
/// bit-exactly by construction — including requests offered to a
/// SIGKILLed node, which are shed at the driver edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireLedger {
    /// Requests issued by this node's clients.
    pub offered: u64,
    /// Served from the node's own store.
    pub local: u64,
    /// Served by a peer's coordinated slice.
    pub peer: u64,
    /// Fell through to origin.
    pub origin: u64,
    /// Shed: offered to a dead or unreachable node.
    pub shed: u64,
}

impl WireLedger {
    /// Requests completed by some tier.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.local + self.peer + self.origin
    }

    /// Per-field difference `self − earlier` (saturating), for
    /// post-revival tail windows.
    #[must_use]
    pub fn since(&self, earlier: &WireLedger) -> WireLedger {
        WireLedger {
            offered: self.offered.saturating_sub(earlier.offered),
            local: self.local.saturating_sub(earlier.local),
            peer: self.peer.saturating_sub(earlier.peer),
            origin: self.origin.saturating_sub(earlier.origin),
            shed: self.shed.saturating_sub(earlier.shed),
        }
    }
}

#[derive(Default)]
struct LedgerCells {
    offered: AtomicU64,
    local: AtomicU64,
    peer: AtomicU64,
    origin: AtomicU64,
    shed: AtomicU64,
}

impl LedgerCells {
    fn snapshot(&self) -> WireLedger {
        WireLedger {
            offered: self.offered.load(Ordering::Relaxed),
            local: self.local.load(Ordering::Relaxed),
            peer: self.peer.load(Ordering::Relaxed),
            origin: self.origin.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

/// Driver-side wire-efficiency counters for one bench run, folded
/// from the drive-path connection meters. Epoch pushes and stats
/// collection use unmetered connections, so frames/op and bytes/op
/// measure the hot path alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePipelineStats {
    /// Configured credit window (frames in flight per connection).
    pub window: u64,
    /// Configured peer-forward coalescing cap.
    pub wire_batch: u64,
    /// High-water mark of frames actually in flight on any
    /// driver→node connection — ≤ `window`, and 1 when stop-and-wait.
    pub max_in_flight: u64,
    /// Frames the driver sent on the drive path.
    pub frames_out: u64,
    /// Frames the driver received on the drive path.
    pub frames_in: u64,
    /// Bytes the driver sent on the drive path.
    pub bytes_out: u64,
    /// Bytes the driver received on the drive path.
    pub bytes_in: u64,
}

impl WirePipelineStats {
    /// Wire frames (both directions) per offered request.
    #[must_use]
    pub fn frames_per_op(&self, offered: u64) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if offered == 0 {
            0.0
        } else {
            (self.frames_out + self.frames_in) as f64 / offered as f64
        }
    }

    /// Wire bytes (both directions) per offered request.
    #[must_use]
    pub fn bytes_per_op(&self, offered: u64) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        if offered == 0 {
            0.0
        } else {
            (self.bytes_out + self.bytes_in) as f64 / offered as f64
        }
    }
}

/// Results of one wire-mode benchmark run.
#[derive(Debug, Clone)]
pub struct WireOutcome {
    /// Cluster size.
    pub nodes: usize,
    /// Final config epoch (1 + one bump per revival).
    pub epoch: u64,
    /// Final listen address of every node.
    pub listen_addrs: Vec<String>,
    /// Per-node driver ledgers for the whole run.
    pub per_node: Vec<WireLedger>,
    /// Per-node ledgers counting only traffic after the last revival
    /// re-provision (present iff a revival happened) — the window the
    /// re-convergence acceptance check evaluates.
    pub tail_per_node: Option<Vec<WireLedger>>,
    /// Final node-side counter snapshots (None for a node that was
    /// dead at collection time).
    pub node_stats: Vec<Option<NodeStatsSnapshot>>,
    /// Applied faults, `"kill:1@2000"` style.
    pub fault_log: Vec<String>,
    /// Wall-clock duration of the driven phase, milliseconds.
    pub wall_ms: f64,
    /// Decision log and counters of the driver-side adaptive
    /// controller (present iff [`WireSpec::adapt`] was set).
    pub controller: Option<ControllerReport>,
    /// Driver-side wire-efficiency counters for the drive path.
    pub pipeline: WirePipelineStats,
}

impl WireOutcome {
    /// Total requests offered across all nodes.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.per_node.iter().map(|l| l.offered).sum()
    }

    /// Total requests completed by some tier.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.per_node.iter().map(WireLedger::completed).sum()
    }

    /// Total requests shed at the driver edge.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.per_node.iter().map(|l| l.shed).sum()
    }

    /// Verifies `offered == completed + shed`, per node and in total.
    ///
    /// # Errors
    ///
    /// [`EngineError::Accounting`] with the offending totals.
    pub fn check_conservation(&self) -> Result<(), EngineError> {
        for ledger in &self.per_node {
            if ledger.offered != ledger.completed() + ledger.shed {
                return Err(EngineError::Accounting {
                    offered: ledger.offered,
                    completed: ledger.completed(),
                    shed: ledger.shed,
                });
            }
        }
        Ok(())
    }

    /// `(local, peer, origin)` fractions of completed requests over
    /// the given ledgers (the whole run, or a tail window).
    #[must_use]
    pub fn tier_fractions(ledgers: &[WireLedger]) -> (f64, f64, f64) {
        let completed: u64 = ledgers.iter().map(WireLedger::completed).sum();
        if completed == 0 {
            return (0.0, 0.0, 0.0);
        }
        #[allow(clippy::cast_precision_loss)]
        let frac = |v: u64| v as f64 / completed as f64;
        (
            frac(ledgers.iter().map(|l| l.local).sum()),
            frac(ledgers.iter().map(|l| l.peer).sum()),
            frac(ledgers.iter().map(|l| l.origin).sum()),
        )
    }
}

enum RunningNode {
    Proc {
        child: Child,
        // Keeps the stdout pipe open so the child's final summary
        // print cannot fail with a broken pipe.
        _stdout: Option<io::BufReader<std::process::ChildStdout>>,
    },
    Thread {
        server: Arc<NodeServer>,
        join: std::thread::JoinHandle<Result<NodeStatsSnapshot, EngineError>>,
    },
}

struct NodeSlot {
    addr: String,
    generation: u64,
    alive: bool,
}

/// The coordinator's single epoch authority, shared between the
/// adaptive controller and the fault supervisor. Both issue config
/// epochs; every bump-and-push happens under this lock, so epoch
/// order equals layout order and a node applying the highest epoch it
/// saw holds the newest layout.
struct WireCtl {
    epoch: u64,
    /// The cumulative layout as of `epoch` — for an in-flight
    /// incremental chain, the sum of every step issued so far.
    assignments: Vec<RouterAssignment>,
    fitted_s: f64,
}

impl WireCtl {
    /// Builds the provisioning push for the current cumulative layout.
    /// This is also the revival path: a node that was SIGKILLed
    /// mid-chain and missed epochs receives the chain's *current*
    /// state under the newest epoch — the partial chain re-pushed as
    /// one frame.
    fn provision(&self, spec: &WireSpec, peers: Vec<String>) -> Provision {
        let prefix = self.assignments.first().map_or(0, |a| a.local_prefix);
        let x = self.assignments.iter().map(|a| a.slice.end - a.slice.start).max().unwrap_or(0);
        Provision {
            epoch: self.epoch,
            nodes: spec.nodes as u32,
            catalogue: spec.catalogue,
            capacity: spec.capacity,
            prefix,
            x,
            fitted_s: self.fitted_s,
            policy: spec.policy,
            slices: self
                .assignments
                .iter()
                .map(|a| SliceAssignment {
                    node: a.router as u32,
                    start: a.slice.start,
                    end: a.slice.end,
                })
                .collect(),
            peers,
        }
    }
}

/// Installs one controller chain step cluster-wide: bumps the epoch,
/// records the new cumulative layout, and pushes it to every node
/// whose slot is alive. A push to a node that died under the
/// supervisor's feet simply fails — the revival path re-pushes the
/// then-current layout. The [`WireCtl`] lock is held across the
/// pushes to serialize with revival provisioning.
fn push_wire_step(
    spec: &WireSpec,
    ctl: &Mutex<WireCtl>,
    slots: &[Mutex<NodeSlot>],
    step: &LayoutStep,
    fitted_s: Option<f64>,
) {
    let mut ctl = lock_recover(ctl);
    ctl.epoch += 1;
    ctl.assignments = step.assignments.clone();
    if let Some(s) = fitted_s {
        ctl.fitted_s = s;
    }
    let snapshot: Vec<(String, bool)> = slots
        .iter()
        .map(|slot| {
            let slot = lock_recover(slot);
            (slot.addr.clone(), slot.alive)
        })
        .collect();
    let push = ctl.provision(spec, snapshot.iter().map(|(addr, _)| addr.clone()).collect());
    for (addr, alive) in &snapshot {
        if *alive {
            let _ = push_epoch_to(addr, &push);
        }
    }
}

/// Driver-side node id carried in the `Hello` handshake — nodes key
/// peer links by id, so the driver uses a sentinel outside any
/// cluster's id range.
const DRIVER_ID: u32 = u32::MAX;

/// Dials a node as the driver: version handshake included, so a
/// mixed-version cluster is rejected at connect time on every
/// driver-side path (epoch pushes, the drive hot path, stats
/// collection), not just on peer links.
fn connect_driver(addr: &str, timeout: Duration) -> Result<Conn, EngineError> {
    connect_driver_metered(addr, timeout, None)
}

fn connect_driver_metered(
    addr: &str,
    timeout: Duration,
    meter: Option<Arc<WireMeter>>,
) -> Result<Conn, EngineError> {
    connect_hello(addr, DRIVER_ID, timeout, meter)
}

fn push_epoch_to(addr: &str, provision: &Provision) -> Result<(), EngineError> {
    let mut conn = connect_driver(addr, Duration::from_secs(5))?;
    conn.send_request(&Request::ConfigEpoch(provision.clone()))?;
    match conn.recv_response()? {
        Response::EpochAck { epoch } if epoch >= provision.epoch => Ok(()),
        Response::EpochAck { epoch } => Err(proto_err(format!(
            "node at {addr} acked epoch {epoch} after a push of {}",
            provision.epoch
        ))),
        Response::Refused { reason } => Err(proto_err(format!("epoch push refused: {reason}"))),
        other => Err(proto_err(format!("unexpected reply to epoch push: {other:?}"))),
    }
}

fn spawn_thread_node(spec: &WireSpec, id: usize) -> Result<(RunningNode, String), EngineError> {
    let mut config = NodeConfig::new(id);
    config.shards = spec.shards_per_node;
    config.queue_capacity = spec.queue_capacity;
    config.idle = spec.idle;
    config.placement = spec.placement;
    config.degrade = spec.degrade;
    config.window = spec.window;
    config.wire_batch = spec.wire_batch;
    config.max_connections = spec.max_conns;
    let server = Arc::new(NodeServer::bind(config)?);
    let addr = server.local_addr().to_string();
    let runner = Arc::clone(&server);
    let join = std::thread::Builder::new()
        .name(format!("wire-node-{id}"))
        .spawn(move || runner.run())
        .map_err(|e| EngineError::Spawn { reason: e.to_string() })?;
    Ok((RunningNode::Thread { server, join }, addr))
}

/// How long the driver waits for a spawned node process to print its
/// `READY <addr>` line before giving up and killing it.
const READY_TIMEOUT: Duration = Duration::from_secs(15);

fn spawn_proc_node(
    exe: &PathBuf,
    spec: &WireSpec,
    id: usize,
) -> Result<(RunningNode, String), EngineError> {
    let mut cmd = Command::new(exe);
    cmd.arg("node")
        .args(["--id", &id.to_string()])
        .args(["--listen", "127.0.0.1:0"])
        .args(["--shards", &spec.shards_per_node.to_string()])
        .args(["--queue", &spec.queue_capacity.to_string()])
        .args(["--idle", &spec.idle.name()])
        .args(["--deadline-us", &spec.degrade.forward_deadline.as_micros().to_string()])
        .args(["--retries", &spec.degrade.forward_retries.to_string()])
        .args(["--backoff-us", &spec.degrade.retry_backoff.as_micros().to_string()])
        .args(["--timeout-threshold", &spec.degrade.timeout_threshold.to_string()])
        .args(["--window", &spec.window.to_string()])
        .args(["--wire-batch", &spec.wire_batch.to_string()])
        .args(["--max-conns", &spec.max_conns.to_string()]);
    if spec.placement.pin() {
        cmd.args(["--cores", &spec.placement.cores().to_string()]).args(["--pin", "true"]);
    }
    cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
    let mut child = cmd.spawn().map_err(|e| net_err("spawn-node", e))?;
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(net_err("spawn-node", "child stdout was not piped"));
    };
    // Read the READY line on a helper thread so a child that starts
    // but never reports cannot hang the whole bench.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut reader = io::BufReader::new(stdout);
        let mut line = String::new();
        let result = reader.read_line(&mut line);
        let _ = tx.send((result.map(|_| line), reader));
    });
    match rx.recv_timeout(READY_TIMEOUT) {
        Ok((Ok(line), reader)) => {
            let addr = line.trim().strip_prefix("READY ").map(str::to_owned).ok_or_else(|| {
                let _ = child.kill();
                let _ = child.wait();
                net_err(
                    "spawn-node",
                    format!("node {id} reported {:?}, expected READY", line.trim()),
                )
            })?;
            Ok((RunningNode::Proc { child, _stdout: Some(reader) }, addr))
        }
        Ok((Err(e), _)) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(net_err("spawn-node", format!("node {id} stdout failed: {e}")))
        }
        Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(net_err(
                "spawn-node",
                format!("node {id} did not report READY within {READY_TIMEOUT:?}"),
            ))
        }
    }
}

fn spawn_node(spec: &WireSpec, id: usize) -> Result<(RunningNode, String), EngineError> {
    match &spec.launch {
        NodeLaunch::InProcess => spawn_thread_node(spec, id),
        NodeLaunch::Exe(exe) => spawn_proc_node(exe, spec, id),
    }
}

/// Hard bring-up abort: kills child processes (dropping a `Child`
/// does *not* kill it — skipping this would orphan `ccn node`
/// processes that serve forever) and joins thread nodes.
fn teardown_nodes(running: Vec<Option<RunningNode>>) {
    for node in running.into_iter().flatten() {
        match node {
            RunningNode::Proc { mut child, .. } => {
                let _ = child.kill();
                let _ = child.wait();
            }
            RunningNode::Thread { server, join } => {
                server.request_shutdown();
                let _ = join.join();
            }
        }
    }
}

fn stop_node(running: RunningNode) -> Option<NodeStatsSnapshot> {
    match running {
        RunningNode::Proc { mut child, _stdout } => {
            let deadline = Instant::now() + Duration::from_secs(3);
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => return None,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return None;
                    }
                }
            }
        }
        RunningNode::Thread { server, join } => {
            server.request_shutdown();
            join.join().ok().and_then(Result::ok)
        }
    }
}

fn pace(start: Instant, at_ms: f64) {
    let target = start + Duration::from_secs_f64(at_ms.max(0.0) / 1000.0);
    let now = Instant::now();
    if target > now {
        std::thread::sleep(target - now);
    }
}

/// Sheds every in-flight frame and drops the connection — the only
/// way the pipelined driver abandons a conversation. Each pending
/// frame's requests were already counted offered, and a connection we
/// no longer trust to be in sync will never answer them, so the whole
/// tail lands in `shed` — conservation stays exact by construction.
fn shed_conn(
    conn: &mut Option<(Conn, u64)>,
    pending: &mut VecDeque<(u32, u64)>,
    cells: &LedgerCells,
) {
    let lost: u64 = pending.iter().map(|&(_, n)| n).sum();
    if lost > 0 {
        cells.shed.fetch_add(lost, Ordering::Relaxed);
    }
    pending.clear();
    *conn = None;
}

/// Receives and tallies the oldest in-flight reply. The node answers
/// frames strictly in receipt order, so the front of `pending` names
/// the only acceptable tag; a different tag, a tally that does not
/// cover the frame, or any socket error is a desync — the caller
/// sheds the tail and drops the connection. Returns false on desync.
fn drain_one(conn: &mut Conn, pending: &mut VecDeque<(u32, u64)>, cells: &LedgerCells) -> bool {
    let Some(&(want, expected)) = pending.front() else { return true };
    if !matches!(conn.recv_len(), Ok(Some(_))) {
        return false;
    }
    let Ok((tag, local, peer, origin, shed)) = decode_batch_served(conn.last_frame()) else {
        return false;
    };
    if tag != want || local + peer + origin + shed != expected {
        return false;
    }
    cells.local.fetch_add(local, Ordering::Relaxed);
    cells.peer.fetch_add(peer, Ordering::Relaxed);
    cells.origin.fetch_add(origin, Ordering::Relaxed);
    cells.shed.fetch_add(shed, Ordering::Relaxed);
    pending.pop_front();
    true
}

#[allow(clippy::too_many_arguments)]
fn drive_node(
    spec: &WireSpec,
    id: usize,
    requests: &[(f64, u64)],
    slot: &Mutex<NodeSlot>,
    cells: &LedgerCells,
    total_offered: &AtomicU64,
    tap: Option<&RankTap>,
    meter: &Arc<WireMeter>,
    start: Instant,
) {
    // Generous driver-side read timeout: a batch is served
    // sequentially, so a slow-but-alive node may walk the whole retry
    // ladder for *every* request in the batch before its one reply —
    // the timeout must cover the worst-case batch, or legitimately
    // served batches get misaccounted as shed at the driver edge.
    let ladder = spec.degrade.forward_deadline * (spec.degrade.forward_retries + 1);
    let worst_batch = ladder
        .checked_mul(u32::try_from(spec.batch.max(1)).unwrap_or(u32::MAX))
        .unwrap_or(Duration::MAX);
    let timeout = worst_batch.saturating_add(Duration::from_secs(1)).max(Duration::from_secs(2));
    // Invariant: `pending` non-empty ⇒ `conn` is Some — shed_conn is
    // the only path that drops the connection and it clears the queue.
    let mut conn: Option<(Conn, u64)> = None;
    let mut pending: VecDeque<(u32, u64)> = VecDeque::with_capacity(spec.window);
    let mut contents: Vec<u64> = Vec::with_capacity(spec.batch);
    let mut next_tag: u32 = 0;
    let mut i = 0usize;
    while i < requests.len() {
        let end = (i + spec.batch).min(requests.len());
        let batch = &requests[i..end];
        i = end;
        if spec.paced {
            pace(start, batch[0].0);
        }
        let n = batch.len() as u64;
        cells.offered.fetch_add(n, Ordering::Relaxed);
        total_offered.fetch_add(n, Ordering::Relaxed);
        // Each node's driver thread is the single writer of its tap
        // lane, so the lock-free sampling contract holds on the wire
        // exactly as in-process. Ranks are recorded at offer time —
        // the controller observes demand, served or shed.
        if let Some(tap) = tap {
            for &(_, content) in batch {
                tap.record(id, ContentId(content));
            }
        }
        // Window full: drain the oldest reply before sending another
        // frame. In-order draining keeps the ledger identical to
        // stop-and-wait — every frame's tally lands exactly once, in
        // send order.
        while pending.len() >= spec.window {
            let Some((c, _)) = conn.as_mut() else { break };
            if !drain_one(c, &mut pending, cells) {
                shed_conn(&mut conn, &mut pending, cells);
            }
        }
        let (addr, generation, alive) = {
            let s = lock_recover(slot);
            (s.addr.clone(), s.generation, s.alive)
        };
        if !alive {
            shed_conn(&mut conn, &mut pending, cells);
            cells.shed.fetch_add(n, Ordering::Relaxed);
            continue;
        }
        if let Some((_, gen)) = &conn {
            if *gen != generation {
                // The node was replaced under us: frames in flight
                // belonged to the previous incarnation and will never
                // be answered.
                shed_conn(&mut conn, &mut pending, cells);
            }
        }
        if conn.is_none() {
            match connect_driver_metered(&addr, timeout, Some(Arc::clone(meter))) {
                Ok(c) => conn = Some((c, generation)),
                Err(_) => {
                    cells.shed.fetch_add(n, Ordering::Relaxed);
                    continue;
                }
            }
        }
        contents.clear();
        contents.extend(batch.iter().map(|&(_, c)| c));
        let tag = next_tag;
        next_tag = next_tag.wrapping_add(1);
        let (c, _) = conn.as_mut().expect("connected above");
        if c.send(|buf| encode_batch_lookup_from(buf, tag, &contents)).is_err() {
            shed_conn(&mut conn, &mut pending, cells);
            cells.shed.fetch_add(n, Ordering::Relaxed);
            continue;
        }
        pending.push_back((tag, n));
        meter.window(pending.len());
    }
    // Tail drain: every frame still in flight resolves to completed
    // (its reply arrives) or shed (the connection desyncs) — never
    // lost.
    while !pending.is_empty() {
        let Some((c, _)) = conn.as_mut() else { break };
        if !drain_one(c, &mut pending, cells) {
            shed_conn(&mut conn, &mut pending, cells);
        }
    }
    if let Some((conn, _)) = conn.take() {
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Runs a multi-process (or in-process multi-thread) wire-mode
/// serving benchmark: spawns the nodes, provisions them at epoch 1,
/// drives the per-node Zipf streams over TCP, applies the kill/revive
/// schedule, and folds the driver ledgers into a [`WireOutcome`]
/// whose conservation invariant has already been verified.
///
/// # Errors
///
/// [`EngineError::InvalidConfig`] / [`EngineError::FaultSpec`] for a
/// bad spec, [`EngineError::Workload`] for a bad stream,
/// [`EngineError::Net`] if bring-up fails, and
/// [`EngineError::Accounting`] if the conservation invariant breaks.
pub fn wire_bench(spec: &WireSpec) -> Result<WireOutcome, EngineError> {
    spec.validate()?;
    let tap = match &spec.adapt {
        Some(cfg) => Some(RankTap::new(spec.nodes, cfg.tap_capacity, cfg.sample_every)?),
        None => None,
    };
    let mut planner = match spec.adapt {
        Some(cfg) => {
            Some(Controller::new(spec.nodes, spec.catalogue, spec.capacity, spec.ell, cfg)?)
        }
        None => None,
    };
    let controller_report: Mutex<Option<ControllerReport>> = Mutex::new(None);
    let all: Vec<usize> = (0..spec.nodes).collect();
    let stream = workload::zipf_irm(
        &all,
        spec.zipf_s,
        spec.catalogue,
        spec.rate_per_node_per_ms,
        spec.horizon_ms,
        spec.seed,
    )?;
    let mut per_node_requests: Vec<Vec<(f64, u64)>> = vec![Vec::new(); spec.nodes];
    for request in stream {
        per_node_requests[request.router].push((request.time, request.content.0));
    }

    // Bring-up: spawn every node, tearing down the ones already up if
    // any spawn fails.
    let mut running: Vec<Option<RunningNode>> = Vec::with_capacity(spec.nodes);
    let mut addrs: Vec<String> = Vec::with_capacity(spec.nodes);
    for id in 0..spec.nodes {
        match spawn_node(spec, id) {
            Ok((node, addr)) => {
                running.push(Some(node));
                addrs.push(addr);
            }
            Err(e) => {
                teardown_nodes(running);
                return Err(e);
            }
        }
    }

    let initial = spec.provision(1, addrs.clone());
    for addr in &addrs {
        // A provisioning failure must tear down exactly like a spawn
        // failure, or already-spawned node processes are orphaned.
        if let Err(e) = push_epoch_to(addr, &initial) {
            teardown_nodes(running);
            return Err(e);
        }
    }
    // The epoch authority starts at the layout just provisioned —
    // identical to the controller's baseline (both derive the epoch-1
    // layout from `spec.ell` with the same rounding), so the first
    // chain step moves exactly what the planner computed.
    let ctl = Mutex::new(WireCtl {
        epoch: 1,
        assignments: initial
            .slices
            .iter()
            .map(|s| RouterAssignment {
                router: s.node as usize,
                local_prefix: initial.prefix,
                slice: s.start..s.end,
            })
            .collect(),
        fitted_s: 0.0,
    });

    let slots: Vec<Mutex<NodeSlot>> = addrs
        .iter()
        .map(|addr| Mutex::new(NodeSlot { addr: addr.clone(), generation: 0, alive: true }))
        .collect();
    let cells: Vec<LedgerCells> = (0..spec.nodes).map(|_| LedgerCells::default()).collect();
    let drive_meter = Arc::new(WireMeter::default());
    let total_offered = AtomicU64::new(0);
    let drivers_done = AtomicUsize::new(0);
    let mut fault_log: Vec<String> = Vec::new();
    let mut tail_base: Option<Vec<WireLedger>> = None;
    let start = Instant::now();

    std::thread::scope(|scope| {
        for (id, requests) in per_node_requests.iter().enumerate() {
            let slot = &slots[id];
            let node_cells = &cells[id];
            let total = &total_offered;
            let done = &drivers_done;
            let node_tap = tap.as_ref();
            let meter = &drive_meter;
            scope.spawn(move || {
                drive_node(spec, id, requests, slot, node_cells, total, node_tap, meter, start);
                done.fetch_add(1, Ordering::Release);
            });
        }

        // Adaptive controller: drain the tap, re-fit, and stage
        // budgeted epochs while the drivers run; once they finish,
        // drain any pending chain so the cluster lands on the final
        // layout before stats collection.
        if let Some(cfg) = spec.adapt {
            let mut planner = planner.take().expect("planner built for adaptive spec");
            let tap = tap.as_ref().expect("tap built for adaptive spec");
            let ctl = &ctl;
            let slots = &slots[..];
            let done_count = &drivers_done;
            let report_slot = &controller_report;
            scope.spawn(move || {
                let mut cursor = tap.cursor();
                let mut scratch: Vec<u64> = Vec::new();
                loop {
                    let done = done_count.load(Ordering::Acquire) == spec.nodes;
                    scratch.clear();
                    tap.drain(&mut cursor, &mut scratch);
                    planner.observe(&scratch);
                    match planner.plan() {
                        Ok(Some(step)) => {
                            push_wire_step(spec, ctl, slots, &step, planner.fitted());
                        }
                        Ok(None) => {}
                        Err(_) => break,
                    }
                    if done {
                        while planner.pending_steps() > 0 {
                            match planner.plan() {
                                Ok(Some(step)) => {
                                    push_wire_step(spec, ctl, slots, &step, planner.fitted());
                                }
                                _ => break,
                            }
                        }
                        break;
                    }
                    std::thread::sleep(cfg.tick_interval);
                }
                *lock_recover(report_slot) = Some(planner.report());
            });
        }

        // Supervisor (inline): replay the fault schedule against the
        // cluster-wide offered count.
        for fault in &spec.faults {
            while total_offered.load(Ordering::Relaxed) < fault.at_op {
                if drivers_done.load(Ordering::Acquire) == spec.nodes {
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            if drivers_done.load(Ordering::Acquire) == spec.nodes
                && total_offered.load(Ordering::Relaxed) < fault.at_op
            {
                fault_log.push(format!("{}@unreached", fault.kind));
                continue;
            }
            let fired_at = total_offered.load(Ordering::Relaxed);
            match fault.kind {
                WireFaultKind::Kill(n) => {
                    {
                        let mut slot = lock_recover(&slots[n]);
                        slot.alive = false;
                    }
                    if let Some(RunningNode::Proc { mut child, .. }) = running[n].take() {
                        // SIGKILL: no drain, no goodbye.
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                    fault_log.push(format!("kill:{n}@{fired_at}"));
                }
                WireFaultKind::Revive(n) => match spawn_node(spec, n) {
                    Ok((node, addr)) => {
                        running[n] = Some(node);
                        addrs[n] = addr;
                        // Re-provision everyone under the coordinator's
                        // *current* cumulative layout — the controller
                        // may have issued chain epochs since the kill,
                        // and the revived node must not be resurrected
                        // onto a stale slice plan. The ctl lock is held
                        // across the pushes to serialize with
                        // concurrent controller epochs.
                        {
                            let mut ctl_guard = lock_recover(&ctl);
                            ctl_guard.epoch += 1;
                            let push = ctl_guard.provision(spec, addrs.clone());
                            for (m, addr) in addrs.iter().enumerate() {
                                let reachable = m == n || lock_recover(&slots[m]).alive;
                                if reachable {
                                    if let Err(e) = push_epoch_to(addr, &push) {
                                        fault_log
                                            .push(format!("epoch-push-failed:{m}@{fired_at}: {e}"));
                                    }
                                }
                            }
                        }
                        // The re-convergence window starts once the
                        // revived node is provisioned and addressable.
                        tail_base = Some(cells.iter().map(LedgerCells::snapshot).collect());
                        {
                            let mut slot = lock_recover(&slots[n]);
                            slot.addr = addrs[n].clone();
                            slot.generation += 1;
                            slot.alive = true;
                        }
                        fault_log.push(format!("revive:{n}@{fired_at}"));
                    }
                    Err(e) => {
                        fault_log.push(format!("revive-failed:{n}@{fired_at}: {e}"));
                    }
                },
            }
        }
    });
    #[allow(clippy::cast_precision_loss)]
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    // Staged-rollout convergence: re-push the final cumulative layout
    // to every live node, so one that missed an epoch (a push racing
    // its kill window, a transient socket failure) catches up before
    // stats collection. Nodes already current just ack their epoch.
    let controller = if spec.adapt.is_some() {
        let push = lock_recover(&ctl).provision(spec, addrs.clone());
        for (id, addr) in addrs.iter().enumerate() {
            if lock_recover(&slots[id]).alive {
                let _ = push_epoch_to(addr, &push);
            }
        }
        lock_recover(&controller_report).take()
    } else {
        None
    };

    // Collect final node-side stats from survivors, then shut every
    // node down in an orderly way.
    let mut node_stats: Vec<Option<NodeStatsSnapshot>> = vec![None; spec.nodes];
    let mut alive_epochs: Vec<(usize, u64)> = Vec::new();
    for (id, addr) in addrs.iter().enumerate() {
        if !lock_recover(&slots[id]).alive {
            continue;
        }
        if let Ok(mut conn) = connect_driver(addr, Duration::from_secs(2)) {
            if conn.send_request(&Request::Stats).is_ok() {
                if let Ok(Response::StatsReply(snapshot)) = conn.recv_response() {
                    alive_epochs.push((id, snapshot.epoch));
                    node_stats[id] = Some(snapshot);
                }
            }
            let _ = conn.send_request(&Request::Shutdown);
            let _ = conn.recv_response();
        }
    }
    for (id, node) in running.into_iter().enumerate() {
        if let Some(node) = node {
            if let Some(snapshot) = stop_node(node) {
                node_stats[id].get_or_insert(snapshot);
            }
        }
    }

    let epoch = lock_recover(&ctl).epoch;
    if controller.is_some() {
        if let Some(&(id, got)) = alive_epochs.iter().find(|&&(_, e)| e != epoch) {
            return Err(proto_err(format!(
                "staged rollout did not converge: node {id} reports epoch {got}, \
                 coordinator finished at {epoch}"
            )));
        }
    }

    let per_node: Vec<WireLedger> = cells.iter().map(LedgerCells::snapshot).collect();
    let tail_per_node = tail_base
        .map(|base| per_node.iter().zip(&base).map(|(now, then)| now.since(then)).collect());
    let outcome = WireOutcome {
        nodes: spec.nodes,
        epoch,
        listen_addrs: addrs,
        per_node,
        tail_per_node,
        node_stats,
        fault_log,
        wall_ms,
        controller,
        pipeline: WirePipelineStats {
            window: spec.window as u64,
            wire_batch: spec.wire_batch as u64,
            max_in_flight: drive_meter.max_window.load(Ordering::Relaxed),
            frames_out: drive_meter.frames_out.load(Ordering::Relaxed),
            frames_in: drive_meter.frames_in.load(Ordering::Relaxed),
            bytes_out: drive_meter.bytes_out.load(Ordering::Relaxed),
            bytes_in: drive_meter.bytes_in.load(Ordering::Relaxed),
        },
    };
    outcome.check_conservation()?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_request(req: &Request) {
        let body = req.encode().expect("encode");
        let back = Request::decode(&body).expect("decode");
        assert_eq!(*req, back);
    }

    fn roundtrip_response(resp: &Response) {
        let body = resp.encode().expect("encode");
        let back = Response::decode(&body).expect("decode");
        assert_eq!(*resp, back);
    }

    fn sample_provision(epoch: u64, peers: Vec<String>) -> Provision {
        WireSpec::new(peers.len().max(1)).provision(epoch, peers)
    }

    #[test]
    fn every_request_kind_roundtrips() {
        roundtrip_request(&Request::Hello { node: 7, version: PROTOCOL_VERSION });
        roundtrip_request(&Request::ConfigEpoch(sample_provision(
            3,
            vec!["127.0.0.1:4000".into(), "127.0.0.1:4001".into()],
        )));
        roundtrip_request(&Request::Lookup { content: 99 });
        roundtrip_request(&Request::BatchLookup { tag: 41, contents: vec![1, 2, 3, u64::MAX] });
        roundtrip_request(&Request::PeerForward { content: 5, budget_us: 250_000 });
        roundtrip_request(&Request::PeerForwardBatch {
            tag: u32::MAX,
            items: vec![(9, 100), (u64::MAX, u32::MAX)],
        });
        roundtrip_request(&Request::HealthProbe);
        roundtrip_request(&Request::Stats);
        roundtrip_request(&Request::Shutdown);
    }

    #[test]
    fn every_response_kind_roundtrips() {
        roundtrip_response(&Response::EpochAck { epoch: 12 });
        roundtrip_response(&Response::Served { tier: TIER_PEER });
        roundtrip_response(&Response::BatchServed {
            tag: 17,
            local: 1,
            peer: 2,
            origin: 3,
            shed: 4,
        });
        roundtrip_response(&Response::ForwardReply { outcome: FWD_MISS });
        roundtrip_response(&Response::ForwardBatchReply {
            tag: 23,
            outcomes: vec![FWD_HIT, FWD_MISS, FWD_REFUSED],
        });
        roundtrip_response(&Response::HelloAck { version: PROTOCOL_VERSION });
        roundtrip_response(&Response::HealthAck { epoch: 0 });
        let snapshot = NodeStatsSnapshot { lookups: 10, local: 6, origin: 4, ..Default::default() };
        roundtrip_response(&Response::StatsReply(snapshot));
        roundtrip_response(&Response::Bye);
        roundtrip_response(&Response::Refused { reason: "not provisioned".into() });
    }

    #[test]
    fn truncated_and_unknown_frames_are_typed_errors() {
        let body = Request::Lookup { content: 1 }.encode().expect("encode");
        let err = Request::decode(&body[..body.len() - 1]).expect_err("truncated");
        assert!(matches!(err, EngineError::Protocol { .. }));
        let err = Request::decode(&[0x7f]).expect_err("unknown kind");
        assert!(matches!(err, EngineError::Protocol { .. }));
        // Trailing garbage after a well-formed payload is rejected too.
        let mut long = body;
        long.push(0);
        let err = Request::decode(&long).expect_err("trailing bytes");
        assert!(matches!(err, EngineError::Protocol { .. }));
    }

    #[test]
    fn stats_snapshot_tolerates_shorter_field_lists() {
        let full = NodeStatsSnapshot { lookups: 5, local: 3, ..Default::default() };
        let mut fields = full.fields();
        fields.truncate(2);
        let partial = NodeStatsSnapshot::from_fields(&fields);
        assert_eq!(partial.lookups, 5);
        assert_eq!(partial.local, 3);
        assert_eq!(partial.origin, 0);
    }

    fn bind_node(id: usize) -> (Arc<NodeServer>, String) {
        let server = Arc::new(NodeServer::bind(NodeConfig::new(id)).expect("bind"));
        let addr = server.local_addr().to_string();
        (server, addr)
    }

    /// Regression: a peer that declares a `MAX_FRAME` body and then
    /// sends nothing must not make the node allocate the declared
    /// length. The read buffer grows only as body bytes arrive, so
    /// idle hostile connections cannot each pin a frame-sized buffer.
    #[test]
    fn header_without_body_keeps_the_read_buffer_small() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        accepted.set_read_timeout(Some(Duration::from_millis(25))).expect("set timeout");
        let mut conn = Conn::new(accepted, None);
        peer.write_all(&MAX_FRAME.to_le_bytes()).expect("header");
        let err = conn.recv_len().expect_err("a header with no body must fail mid-frame");
        assert!(!is_timeout(&err), "a mid-frame stall is not a boundary timeout: {err}");
        assert!(
            conn.rbuf.capacity() <= 64 * 1024,
            "read buffer grew to {} bytes for a body that never arrived",
            conn.rbuf.capacity()
        );
    }

    /// Regression: a socket read timeout must classify as a timeout
    /// from its `io::ErrorKind`. On Linux it surfaces as `WouldBlock`
    /// and displays as "Resource temporarily unavailable (os error
    /// 11)" — the old string-match on "timed out" never saw it.
    #[test]
    fn frame_read_timeout_is_classified_by_kind() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let _server = listener.accept().expect("accept");
        client.set_read_timeout(Some(Duration::from_millis(25))).expect("set timeout");
        let mut conn = Conn::new(client, None);
        let err = conn.recv_len().expect_err("idle read must time out");
        assert!(is_timeout(&err), "boundary read timeout must classify as timeout, got: {err}");
    }

    /// Regression: an idle connection must survive past the server's
    /// 200ms per-connection read timeout — misclassifying that
    /// timeout tore down every idle peer link and paced driver
    /// connection, forcing spurious reconnects and degradation.
    #[test]
    fn idle_connection_survives_past_server_read_timeout() {
        let (server, addr) = bind_node(0);
        let runner = Arc::clone(&server);
        let join = std::thread::spawn(move || runner.run());
        let mut conn = connect_driver(&addr, Duration::from_secs(2)).expect("connect");
        conn.send_request(&Request::HealthProbe).expect("probe");
        assert_eq!(conn.recv_response().expect("ack"), Response::HealthAck { epoch: 0 });
        // Idle well past the server's read timeout, then ask again on
        // the *same* connection.
        std::thread::sleep(Duration::from_millis(450));
        conn.send_request(&Request::HealthProbe).expect("probe after idle");
        assert_eq!(
            conn.recv_response().expect("idle connection must still be served"),
            Response::HealthAck { epoch: 0 }
        );
        conn.send_request(&Request::Shutdown).expect("shutdown");
        let _ = conn.recv_response();
        join.join().expect("join").expect("run");
    }

    #[test]
    fn unprovisioned_node_refuses_lookups_but_answers_health() {
        let (server, addr) = bind_node(0);
        let runner = Arc::clone(&server);
        let join = std::thread::spawn(move || runner.run());
        let mut conn = connect_driver(&addr, Duration::from_secs(2)).expect("connect");
        conn.send_request(&Request::HealthProbe).expect("probe");
        assert_eq!(conn.recv_response().expect("ack"), Response::HealthAck { epoch: 0 });
        conn.send_request(&Request::Lookup { content: 1 }).expect("lookup");
        assert!(matches!(conn.recv_response().expect("refused"), Response::Refused { .. }));
        conn.send_request(&Request::Shutdown).expect("shutdown");
        assert_eq!(conn.recv_response().expect("bye"), Response::Bye);
        let stats = join.join().expect("join").expect("run");
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.lookups, 1);
    }

    #[test]
    fn stale_epoch_is_acked_with_current_and_ignored() {
        let (server, addr) = bind_node(0);
        let runner = Arc::clone(&server);
        let join = std::thread::spawn(move || runner.run());
        let mut conn = connect_driver(&addr, Duration::from_secs(2)).expect("connect");
        let p5 = sample_provision(5, vec![addr.clone()]);
        conn.send_request(&Request::ConfigEpoch(p5)).expect("push 5");
        assert_eq!(conn.recv_response().expect("ack"), Response::EpochAck { epoch: 5 });
        let p3 = sample_provision(3, vec![addr.clone()]);
        conn.send_request(&Request::ConfigEpoch(p3)).expect("push 3");
        assert_eq!(
            conn.recv_response().expect("ack"),
            Response::EpochAck { epoch: 5 },
            "a stale push is acked with the current epoch, not applied"
        );
        conn.send_request(&Request::Shutdown).expect("shutdown");
        let _ = conn.recv_response();
        let stats = join.join().expect("join").expect("run");
        assert_eq!(stats.epochs_accepted, 1);
        assert_eq!(stats.epoch, 5);
    }

    #[test]
    fn same_layout_epoch_swap_keeps_lru_warmth() {
        let (server, addr) = bind_node(0);
        let runner = Arc::clone(&server);
        let join = std::thread::spawn(move || runner.run());
        let mut spec = WireSpec::new(1);
        spec.policy = StorePolicy::Lru;
        let mut conn = connect_driver(&addr, Duration::from_secs(2)).expect("connect");
        conn.send_request(&Request::ConfigEpoch(spec.provision(1, vec![addr.clone()])))
            .expect("push");
        assert_eq!(conn.recv_response().expect("ack"), Response::EpochAck { epoch: 1 });
        // Rank 9999 is uncoordinated: the first lookup misses and the
        // LRU edge admits it, the second hits locally.
        for (expected, label) in [(TIER_ORIGIN, "miss + admit"), (TIER_LOCAL, "warm hit")] {
            conn.send_request(&Request::Lookup { content: 9_999 }).expect("lookup");
            assert_eq!(
                conn.recv_response().expect("served"),
                Response::Served { tier: expected },
                "{label}"
            );
        }
        // A same-layout epoch bump (what survivors see after a
        // revival) must keep the warm store.
        conn.send_request(&Request::ConfigEpoch(spec.provision(2, vec![addr.clone()])))
            .expect("push 2");
        assert_eq!(conn.recv_response().expect("ack"), Response::EpochAck { epoch: 2 });
        conn.send_request(&Request::Lookup { content: 9_999 }).expect("lookup");
        assert_eq!(
            conn.recv_response().expect("served"),
            Response::Served { tier: TIER_LOCAL },
            "cache warmth survives a same-layout epoch swap"
        );
        conn.send_request(&Request::Shutdown).expect("shutdown");
        let _ = conn.recv_response();
        join.join().expect("join").expect("run");
    }

    #[test]
    fn in_process_loopback_cluster_serves_all_tiers_conservatively() {
        let mut spec = WireSpec::new(3);
        spec.horizon_ms = 400.0;
        spec.rate_per_node_per_ms = 2.0;
        spec.seed = 7;
        let outcome = wire_bench(&spec).expect("wire bench");
        outcome.check_conservation().expect("conservation");
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.per_node.len(), 3);
        let offered = outcome.offered();
        assert!(offered > 0, "workload must offer requests");
        assert_eq!(outcome.shed(), 0, "no faults: nothing sheds");
        let (local, peer, origin) = WireOutcome::tier_fractions(&outcome.per_node);
        assert!(local > 0.0, "popularity prefix must serve locally");
        assert!(peer > 0.0, "coordinated slices must serve over the wire");
        assert!(origin > 0.0, "catalogue tail must fall through to origin");
        assert!((local + peer + origin - 1.0).abs() < 1e-9);
        for stats in outcome.node_stats.iter().flatten() {
            assert_eq!(stats.epoch, 1);
        }
        let forwards: u64 = outcome.node_stats.iter().flatten().map(|s| s.forwards_in).sum();
        assert!(forwards > 0, "peer serving implies forward frames were exchanged");
    }

    #[test]
    fn provision_fitted_exponent_roundtrips_and_is_layout_neutral() {
        let mut p = sample_provision(4, vec!["127.0.0.1:4000".into()]);
        p.fitted_s = 1.0625;
        roundtrip_request(&Request::ConfigEpoch(p.clone()));
        // A fit-only change must not read as a layout change, or every
        // re-fit would cold-start every store in the cluster.
        let mut q = p.clone();
        q.epoch = 9;
        q.fitted_s = 0.9;
        assert!(p.same_layout(&q));
    }

    /// The wire tier's staged rollout: a deliberately mis-provisioned
    /// cluster (ℓ far below the optimum for the true exponent) is
    /// walked to the re-solved layout by the driver-side controller
    /// through multiple budgeted epochs, and every node converges to
    /// the same final epoch carrying the fitted-exponent snapshot.
    #[test]
    fn adaptive_wire_bench_stages_epochs_and_converges_every_node() {
        let mut spec = WireSpec::new(3);
        spec.ell = 0.2;
        spec.zipf_s = 1.1;
        spec.rate_per_node_per_ms = 4.0;
        spec.horizon_ms = 600.0;
        spec.paced = true;
        spec.batch = 16;
        spec.seed = 11;
        spec.adapt = Some(ControllerConfig {
            decay: 0.9,
            min_window: 300.0,
            movement_budget: 64,
            sample_every: 1,
            tick_interval: Duration::from_millis(5),
            ..ControllerConfig::default()
        });
        let outcome = wire_bench(&spec).expect("adaptive wire bench");
        outcome.check_conservation().expect("conservation");
        let report = outcome.controller.as_ref().expect("controller report present");
        assert!(report.retargets >= 1, "a mis-provisioned ell must retarget");
        assert!(
            report.epochs_issued >= 2,
            "the retarget must be staged incrementally, got {} epochs",
            report.epochs_issued
        );
        assert!(report.slices_moved > 0);
        assert_eq!(
            outcome.epoch,
            1 + report.epochs_issued,
            "every issued epoch must have landed cluster-wide"
        );
        let fitted = report.fitted_s.expect("a fit happened");
        assert!((fitted - spec.zipf_s).abs() < 0.2, "fit {fitted} missed s={}", spec.zipf_s);
        for stats in outcome.node_stats.iter().flatten() {
            assert_eq!(stats.epoch, outcome.epoch, "all nodes converge to the same epoch");
            let node_view = f64::from_bits(stats.fitted_s_bits);
            assert!(
                (node_view - fitted).abs() < 0.2,
                "node stats carry the fitted snapshot, got {node_view}"
            );
        }
    }

    #[test]
    fn wire_spec_rejects_malformed_fault_schedules() {
        let mut spec = WireSpec::new(2);
        spec.faults = vec![WireFault { at_op: 10, kind: WireFaultKind::Kill(5) }];
        assert!(matches!(wire_bench(&spec), Err(EngineError::FaultSpec { .. })));
        spec.faults = vec![WireFault { at_op: 10, kind: WireFaultKind::Revive(0) }];
        assert!(matches!(wire_bench(&spec), Err(EngineError::FaultSpec { .. })));
        // Kill/revive requires real child processes.
        spec.faults = vec![
            WireFault { at_op: 10, kind: WireFaultKind::Kill(0) },
            WireFault { at_op: 20, kind: WireFaultKind::Revive(0) },
        ];
        assert!(matches!(wire_bench(&spec), Err(EngineError::FaultSpec { .. })));
    }

    /// The enum codecs stay the canonical wire format; the hot-path
    /// helpers must emit and accept byte-identical frames, or the two
    /// halves of the cluster silently disagree.
    #[test]
    fn fast_path_codecs_match_enum_codecs() {
        let contents = vec![1u64, 99, u64::MAX, 0];
        let enum_body =
            Request::BatchLookup { tag: 7, contents: contents.clone() }.encode().expect("encode");
        let mut fast_body = Vec::new();
        encode_batch_lookup_from(&mut fast_body, 7, &contents).expect("fast encode");
        assert_eq!(enum_body, fast_body, "BatchLookup bytes diverge");
        let mut decoded = Vec::new();
        assert_eq!(decode_batch_lookup_into(&enum_body, &mut decoded).expect("fast decode"), 7);
        assert_eq!(decoded, contents);

        let items = vec![(5u64, 250u32), (u64::MAX, u32::MAX)];
        let enum_body =
            Request::PeerForwardBatch { tag: 31, items: items.clone() }.encode().expect("encode");
        let mut fast_body = Vec::new();
        encode_forward_batch_from(&mut fast_body, 31, &items).expect("fast encode");
        assert_eq!(enum_body, fast_body, "PeerForwardBatch bytes diverge");
        let mut decoded = Vec::new();
        assert_eq!(decode_forward_batch_into(&enum_body, &mut decoded).expect("decode"), 31);
        assert_eq!(decoded, items);

        let served = Response::BatchServed { tag: 9, local: 1, peer: 2, origin: 3, shed: 4 }
            .encode()
            .expect("encode");
        assert_eq!(decode_batch_served(&served).expect("decode"), (9, 1, 2, 3, 4));

        let outcomes = vec![FWD_HIT, FWD_MISS, FWD_REFUSED];
        let enum_body = Response::ForwardBatchReply { tag: 13, outcomes: outcomes.clone() }
            .encode()
            .expect("encode");
        let mut fast_body = Vec::new();
        encode_forward_batch_reply_from(&mut fast_body, 13, &outcomes).expect("fast encode");
        assert_eq!(enum_body, fast_body, "ForwardBatchReply bytes diverge");
        let (tag, parsed) = parse_forward_batch_reply(&enum_body).expect("parse");
        assert_eq!((tag, parsed), (13, outcomes.as_slice()));
    }

    /// Oversized count fields are rejected before any allocation is
    /// attempted — a hostile frame cannot make the decoder reserve
    /// gigabytes off a 4-byte claim.
    #[test]
    fn oversized_batch_counts_are_rejected() {
        let mut body = vec![kind::BATCH_LOOKUP];
        put_u32(&mut body, 1);
        put_u32(&mut body, u32::MAX);
        let mut scratch = Vec::new();
        let err = decode_batch_lookup_into(&body, &mut scratch).expect_err("oversized");
        assert!(matches!(err, EngineError::Protocol { .. }));
        let mut body = vec![kind::PEER_FORWARD_BATCH];
        put_u32(&mut body, 1);
        put_u32(&mut body, u32::MAX);
        let mut scratch = Vec::new();
        let err = decode_forward_batch_into(&body, &mut scratch).expect_err("oversized");
        assert!(matches!(err, EngineError::Protocol { .. }));
    }

    /// A v1 peer (or any version-mismatched dialer) is refused at the
    /// handshake, so mixed-version clusters fail at connect time.
    #[test]
    fn version_mismatched_hello_is_refused() {
        let (server, addr) = bind_node(0);
        let runner = Arc::clone(&server);
        let join = std::thread::spawn(move || runner.run());
        let stream = TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
        let mut conn = Conn::new(stream, None);
        conn.send_request(&Request::Hello { node: 1, version: PROTOCOL_VERSION - 1 })
            .expect("send stale hello");
        assert!(
            matches!(conn.recv_response().expect("reply"), Response::Refused { .. }),
            "a version-mismatched hello must be refused"
        );
        // The node hangs up after refusing a mismatched version; a
        // fresh current-version dial still completes.
        let mut conn = connect_driver(&addr, Duration::from_secs(2)).expect("v2 connect");
        conn.send_request(&Request::Shutdown).expect("shutdown");
        let _ = conn.recv_response();
        join.join().expect("join").expect("run");
    }

    /// Pipelining contract on the node side: frames are answered
    /// strictly in receipt order, each reply carrying its frame's tag
    /// and a tally covering exactly that frame's requests.
    #[test]
    fn pipelined_frames_are_answered_in_order_with_matching_tags() {
        let (server, addr) = bind_node(0);
        let runner = Arc::clone(&server);
        let join = std::thread::spawn(move || runner.run());
        let mut conn = connect_driver(&addr, Duration::from_secs(2)).expect("connect");
        conn.send_request(&Request::ConfigEpoch(sample_provision(1, vec![addr.clone()])))
            .expect("push");
        assert_eq!(conn.recv_response().expect("ack"), Response::EpochAck { epoch: 1 });
        // Three frames in flight before the first reply is read.
        let batches: [&[u64]; 3] = [&[1, 2, 3], &[4], &[5, 6]];
        for (tag, contents) in batches.iter().enumerate() {
            conn.send(|buf| encode_batch_lookup_from(buf, tag as u32 + 10, contents))
                .expect("send");
        }
        for (tag, contents) in batches.iter().enumerate() {
            assert!(matches!(conn.recv_len(), Ok(Some(_))), "reply {tag} must arrive");
            let (got, local, peer, origin, shed) =
                decode_batch_served(conn.last_frame()).expect("decode");
            assert_eq!(got, tag as u32 + 10, "replies must drain in send order");
            assert_eq!(
                local + peer + origin + shed,
                contents.len() as u64,
                "each tally covers exactly its frame"
            );
        }
        conn.send_request(&Request::Shutdown).expect("shutdown");
        let _ = conn.recv_response();
        join.join().expect("join").expect("run");
    }

    /// Driver-side desync handling: a reply carrying a stale tag (or
    /// a tally that does not cover its frame) makes `drain_one` report
    /// desync, and `shed_conn` sheds the whole in-flight tail.
    #[test]
    fn stale_tag_reply_sheds_the_in_flight_tail() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        client.set_read_timeout(Some(Duration::from_secs(2))).expect("timeout");
        let (server, _) = listener.accept().expect("accept");
        let mut server_conn = Conn::new(server, None);
        // The server answers the front frame (tag 1) with tag 99.
        server_conn
            .send(|buf| {
                Response::BatchServed { tag: 99, local: 4, peer: 0, origin: 0, shed: 0 }
                    .encode_into(buf)
            })
            .expect("mis-tagged reply");
        let cells = LedgerCells::default();
        let mut pending: VecDeque<(u32, u64)> = VecDeque::from([(1, 4), (2, 7)]);
        let mut conn = Some((Conn::new(client, None), 0u64));
        let (c, _) = conn.as_mut().expect("conn");
        assert!(!drain_one(c, &mut pending, &cells), "stale tag must read as desync");
        shed_conn(&mut conn, &mut pending, &cells);
        assert!(conn.is_none() && pending.is_empty());
        let ledger = cells.snapshot();
        assert_eq!(ledger.completed(), 0, "a mis-tagged tally must not land");
        assert_eq!(ledger.shed, 11, "both in-flight frames shed, 4 + 7 requests");
    }

    /// The accept loop sheds connections over the configured cap with
    /// a typed `Refused` frame instead of spawning unboundedly.
    #[test]
    fn connection_cap_refuses_excess_accepts() {
        let mut config = NodeConfig::new(0);
        config.max_connections = 1;
        let server = Arc::new(NodeServer::bind(config).expect("bind"));
        let addr = server.local_addr().to_string();
        let runner = Arc::clone(&server);
        let join = std::thread::spawn(move || runner.run());
        let mut first = connect_driver(&addr, Duration::from_secs(2)).expect("first connection");
        let err = connect_driver(&addr, Duration::from_secs(2))
            .expect_err("second connection must be refused at the cap");
        assert!(
            err.to_string().contains("connection cap"),
            "refusal must name the cap, got: {err}"
        );
        first.send_request(&Request::Shutdown).expect("shutdown");
        let _ = first.recv_response();
        let stats = join.join().expect("join").expect("run");
        assert_eq!(stats.rejected_conns, 1);
        assert_eq!(stats.connections, 1, "a refused accept must not enter the census");
    }

    /// The allocation-free codec, proven: once the connection's
    /// scratch buffers are warm, a driver thread pushes pipelined
    /// frames and drains tallies without a single heap allocation.
    /// The counter is thread-local, so the node's own threads cannot
    /// pollute the measurement.
    #[test]
    fn warm_connection_serves_frames_without_allocating() {
        let (server, addr) = bind_node(0);
        let runner = Arc::clone(&server);
        let join = std::thread::spawn(move || runner.run());
        let mut conn = connect_driver(&addr, Duration::from_secs(2)).expect("connect");
        conn.send_request(&Request::ConfigEpoch(sample_provision(1, vec![addr.clone()])))
            .expect("push");
        assert_eq!(conn.recv_response().expect("ack"), Response::EpochAck { epoch: 1 });
        let contents: Vec<u64> = (0..64).collect();
        let mut exchange = |tags: std::ops::Range<u32>| {
            for tag in tags.clone() {
                conn.send(|buf| encode_batch_lookup_from(buf, tag, &contents)).expect("send");
            }
            for tag in tags {
                assert!(matches!(conn.recv_len(), Ok(Some(_))));
                let (got, ..) = decode_batch_served(conn.last_frame()).expect("decode");
                assert_eq!(got, tag);
            }
        };
        // Warm-up: grows the encode/decode scratch to steady state.
        exchange(0..4);
        let before = crate::alloc_count::allocations();
        exchange(4..36);
        let after = crate::alloc_count::allocations();
        assert_eq!(
            after - before,
            0,
            "warm frame I/O must not allocate, saw {} allocations over 32 round trips",
            after - before
        );
        conn.send_request(&Request::Shutdown).expect("shutdown");
        let _ = conn.recv_response();
        join.join().expect("join").expect("run");
    }

    proptest! {
        /// Canonical-codec agreement and truncation rejection across
        /// random tagged frames: the fast path decodes exactly what
        /// the enum codec encodes, every strict prefix is a typed
        /// protocol error, and trailing garbage is rejected.
        #[test]
        fn tagged_frames_roundtrip_and_reject_truncation(
            tag in 0u32..u32::MAX,
            n in 0usize..33,
            seed in 0u64..500,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng as _, SeedableRng as _};
            let mut rng = StdRng::seed_from_u64(seed);
            let contents: Vec<u64> = (0..n).map(|_| rng.gen_range(0..u64::MAX)).collect();
            let body = Request::BatchLookup { tag, contents: contents.clone() }
                .encode()
                .expect("encode");
            let mut decoded = Vec::new();
            prop_assert_eq!(decode_batch_lookup_into(&body, &mut decoded).expect("decode"), tag);
            prop_assert_eq!(&decoded, &contents);
            for cut in 1..body.len() {
                prop_assert!(
                    matches!(
                        decode_batch_lookup_into(&body[..cut], &mut decoded),
                        Err(EngineError::Protocol { .. })
                    ),
                    "prefix of {cut} bytes must be rejected"
                );
            }
            let items: Vec<(u64, u32)> =
                contents.iter().map(|&c| (c, rng.gen_range(0..u32::MAX))).collect();
            let body = Request::PeerForwardBatch { tag, items: items.clone() }
                .encode()
                .expect("encode");
            let mut decoded = Vec::new();
            prop_assert_eq!(decode_forward_batch_into(&body, &mut decoded).expect("decode"), tag);
            prop_assert_eq!(&decoded, &items);
            let mut long = body;
            long.push(0);
            prop_assert!(matches!(
                decode_forward_batch_into(&long, &mut decoded),
                Err(EngineError::Protocol { .. })
            ));
        }
    }
}
