//! The sharded concurrent serving tier: N service shards behind one
//! deterministic request router.
//!
//! One [`crate::service::YieldService`] answers one caller at a time. A
//! production front end needs to sustain thousands of concurrent clients,
//! which is exactly what this module adds — without touching a byte of
//! the wire contract:
//!
//! ```text
//!                    ┌────────────────────────────────────────────┐
//!                    │                ShardRouter                 │
//!  client lines ────▶│ shard_for(id) ──┬─▶ [queue₀] ─▶ shard 0    │
//!  (JSON requests)   │  (hash of id)   ├─▶ [queue₁] ─▶ shard 1    │──▶ per-client
//!                    │                 ├─▶ [queue₂] ─▶ shard 2    │    responses
//!                    │                 └─▶ [queue₃] ─▶ shard 3    │
//!                    │        shared warm tier (hot results)      │
//!                    └────────────────────────────────────────────┘
//! ```
//!
//! * **Deterministic shard assignment** — [`shard_for`] hashes the
//!   request id with the workspace's deterministic
//!   [`cnt_stats::fasthash::FastHasher`]; the same id always lands on the
//!   same shard (so per-id request order is preserved), and because every
//!   response is a pure function of its request, the *bytes* of a
//!   transcript are identical for any shard count — only interleaving
//!   across ids changes. Sorting a transcript by response line makes it
//!   byte-comparable across `--shards` values, which CI pins.
//! * **Per-shard bounded caches** — each shard owns its own service (its
//!   own bounded LRU curve/design caches), so shards never contend on a
//!   pipeline mutex.
//! * **Shared warm tier** — a bounded LRU of finished response *bodies*
//!   for single-artifact requests (`evaluate`, `wafer`, `describe`),
//!   keyed by the canonical request body (id stripped, `workers`
//!   normalized away — neither changes bytes). A hot curve answered on
//!   shard 2 warms every shard. Purity makes this invisible: a warm hit
//!   re-wraps the cached bodies under the caller's id, byte-identical to
//!   a cold evaluation.
//! * **Admission control** — every shard queue is bounded.
//!   [`ShardRouter::submit`] blocks (backpressure for trusted loops like
//!   a stdin daemon); [`ShardRouter::try_submit`] sheds instead,
//!   answering with a machine-readable
//!   [`crate::envelope::ErrorCode::Overloaded`] rather than buffering
//!   without bound.
//! * **Cancellation** — a [`Client`] that disconnects mid-sweep makes the
//!   shard's `emit` return `false`; the service cancels the in-flight
//!   [`crate::service::SweepHandle`] and the queue slot frees
//!   immediately.
//!
//! ## Determinism, executed
//!
//! The same session through 1 shard and 3 shards: sorted transcripts are
//! byte-identical (the acceptance contract of `repro serve --shards`):
//!
//! ```
//! use cnfet_pipeline::{Client, RouterConfig, ShardRouter, YieldService};
//!
//! let session = [
//!     r#"{"schema":1,"id":"a","body":{"evaluate":{"spec":
//!         {"fast_design":true,"backend":"gaussian-sum","rho":"paper"},"seed":7}}}"#,
//!     r#"{"schema":1,"id":"b","body":"describe"}"#,
//!     r#"{"schema":1,"id":"c","body":{"evaluate":{"spec":
//!         {"fast_design":true,"backend":"gaussian-sum","rho":"paper",
//!          "correlation":"growth"},"seed":7}}}"#,
//!     r#"{"schema":1,"id":"d","body":{"evaluate":{"spec":{"yeild_target":0.9}}}}"#,
//! ];
//! let transcript = |shards: usize| {
//!     let config = RouterConfig { shards, ..RouterConfig::default() };
//!     let router = ShardRouter::new(config, |_| YieldService::new());
//!     let (client, responses) = Client::channel();
//!     for line in session {
//!         router.submit(line, &client);
//!     }
//!     router.shutdown();
//!     drop(client);
//!     let mut lines: Vec<String> = responses
//!         .iter()
//!         .map(|r| r.to_json().to_string_compact())
//!         .collect();
//!     lines.sort();
//!     lines
//! };
//! assert_eq!(transcript(1), transcript(3));
//! ```
//!
//! ## Overload, executed
//!
//! A full queue sheds with a structured `overloaded` error instead of
//! buffering without bound — the client can branch on the code and retry:
//!
//! ```
//! use cnfet_pipeline::{Client, ErrorCode, ResponseBody, RouterConfig, ShardRouter};
//! use cnfet_pipeline::{YieldResponse, YieldService};
//!
//! let config = RouterConfig { shards: 1, queue_depth: 1, ..RouterConfig::default() };
//! let router = ShardRouter::new(config, |_| YieldService::new());
//! let (client, responses) = Client::channel();
//! // Flood far past the queue bound without draining: at least one
//! // request must be shed (the worker can only be mid-way through one).
//! for i in 0..64 {
//!     let line = format!(r#"{{"schema":1,"id":"r{i}","body":"describe"}}"#);
//!     router.try_submit(&line, &client);
//! }
//! let stats = router.shutdown();
//! drop(client);
//! let shed: Vec<YieldResponse> = responses.iter().filter(|r| r.is_error()).collect();
//! assert!(stats.shards[0].shed >= 1);
//! assert_eq!(shed.len() as u64, stats.shards[0].shed);
//! assert!(shed.iter().all(|r| matches!(&r.body,
//!     ResponseBody::Error(e) if e.code == ErrorCode::Overloaded { shard: 0 })));
//! ```

use crate::cache::BoundedCache;
use crate::envelope::{
    recover_id, ErrorCode, RequestBody, ServiceError, YieldRequest, YieldResponse, SCHEMA_VERSION,
};
use crate::json::Json;
use cnt_stats::fasthash::FastHasher;
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Anything that can answer one JSON-lines request with zero or more
/// responses — the pluggable per-shard back end of [`ShardRouter`].
///
/// `emit` returns `false` once the client is gone; implementations must
/// stop streaming (and cancel in-flight work) and return `false` in that
/// case, `true` when every response was delivered. Both
/// [`crate::service::YieldService`] and the richer `cnfet-opt`
/// `OptService` implement this.
pub trait LineServer: Send + 'static {
    /// Parse and answer one request line (never fails — malformed input
    /// becomes a structured error response).
    fn serve_line(&self, line: &str, emit: &mut dyn FnMut(YieldResponse) -> bool) -> bool;
}

/// The shard a request id routes to: a pure, deterministic function of
/// the id bytes and the shard count, stable across runs and platforms.
/// Requests sharing an id therefore share a shard — per-id FIFO order is
/// preserved — and replaying a session at a different shard count changes
/// only the interleaving across ids, never a response byte.
pub fn shard_for(id: &str, shards: usize) -> usize {
    let mut hasher = FastHasher::default();
    hasher.write(id.as_bytes());
    (hasher.finish() % shards.max(1) as u64) as usize
}

/// Configuration of a [`ShardRouter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Number of service shards (≥ 1; clamped). Each shard is one worker
    /// thread over its own service with its own bounded caches.
    pub shards: usize,
    /// Bound of each shard's admission queue (≥ 1; clamped). A full
    /// queue blocks [`ShardRouter::submit`] and sheds
    /// [`ShardRouter::try_submit`] with [`ErrorCode::Overloaded`].
    pub queue_depth: usize,
    /// Entries in the shared warm tier of finished single-artifact
    /// results (LRU-bounded; ≥ 1, clamped).
    pub warm_capacity: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            queue_depth: 1024,
            warm_capacity: 128,
        }
    }
}

/// The response side of one (possibly logical) client connection.
///
/// Cloning shares the connection. Responses travel over an unbounded
/// channel — bounding lives on the *request* side (the shard queues),
/// where it exerts backpressure on producers instead of deadlocking
/// shard workers against slow consumers. Dropping the receiver, or
/// calling [`Client::disconnect`], marks the client gone: every
/// subsequent emit returns `false`, which cancels in-flight sweeps and
/// makes queued requests for this client complete instantly.
#[derive(Debug, Clone)]
pub struct Client {
    alive: Arc<AtomicBool>,
    tx: ResponseTx,
}

/// The sending half of a client's response stream.
#[derive(Debug, Clone)]
enum ResponseTx {
    Unbounded(mpsc::Sender<YieldResponse>),
    Rendezvous(mpsc::SyncSender<YieldResponse>),
}

impl ResponseTx {
    fn send(&self, response: YieldResponse) -> Result<(), ()> {
        match self {
            Self::Unbounded(tx) => tx.send(response).map_err(drop),
            Self::Rendezvous(tx) => tx.send(response).map_err(drop),
        }
    }
}

impl Client {
    /// A fresh client and the receiving end of its response stream.
    pub fn channel() -> (Self, mpsc::Receiver<YieldResponse>) {
        let (tx, rx) = mpsc::channel();
        (
            Self {
                alive: Arc::new(AtomicBool::new(true)),
                tx: ResponseTx::Unbounded(tx),
            },
            rx,
        )
    }

    /// A client whose response stream is a rendezvous channel: every
    /// emit blocks until the consumer receives it, so a streamed sweep
    /// can never run ahead of its reader. Dropping the receiver
    /// unblocks the in-flight emit with a failure, which makes
    /// mid-stream disconnection *deterministic* — the property the
    /// cancellation tests pin. Production consumers should prefer
    /// [`Client::channel`], which never stalls a shard worker on a
    /// slow reader.
    pub fn rendezvous() -> (Self, mpsc::Receiver<YieldResponse>) {
        let (tx, rx) = mpsc::sync_channel(0);
        (
            Self {
                alive: Arc::new(AtomicBool::new(true)),
                tx: ResponseTx::Rendezvous(tx),
            },
            rx,
        )
    }

    /// Mark the client gone (idempotent). In-flight sweeps for it cancel
    /// at their next emit.
    pub fn disconnect(&self) {
        self.alive.store(false, Ordering::Release);
    }

    /// True until [`Client::disconnect`] is called or a send observes the
    /// dropped receiver.
    pub fn is_connected(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Deliver one response. Returns `false` (and latches disconnection)
    /// once the client is gone.
    pub fn emit(&self, response: YieldResponse) -> bool {
        if !self.is_connected() {
            return false;
        }
        if self.tx.send(response).is_err() {
            // Receiver dropped: latch the disconnect so queued work for
            // this client is skipped without another send attempt.
            self.disconnect();
            return false;
        }
        true
    }
}

/// One request travelling through a shard queue.
struct Job {
    /// The request line, or the answer to a line the caller would not
    /// read in whole ([`ShardRouter::reject`]).
    line: Result<String, ServiceError>,
    /// The router's parse of `line` (`None` when it is not JSON), reused
    /// for the warm-tier key.
    doc: Option<Json>,
    id: String,
    client: Client,
}

/// Per-shard counters (monotone; read via [`ShardRouter::stats`]).
#[derive(Debug, Default)]
struct ShardCounters {
    served: AtomicU64,
    shed: AtomicU64,
    cancelled: AtomicU64,
    high_water: AtomicUsize,
}

/// A point-in-time snapshot of one shard's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests fully answered (including warm-tier hits).
    pub served: u64,
    /// Requests shed at admission with [`ErrorCode::Overloaded`].
    pub shed: u64,
    /// Requests dropped or aborted because their client disconnected.
    pub cancelled: u64,
    /// High-water mark of the shard's queue depth (including a submitter
    /// blocked in backpressure).
    pub queue_high_water: usize,
}

/// A point-in-time snapshot of a router's counters — the machine-readable
/// load provenance `repro serve` prints at shutdown and `loadgen` folds
/// into its report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterStats {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
    /// Single-artifact requests answered from the shared warm tier.
    pub warm_hits: u64,
    /// Warm-eligible requests that had to be computed.
    pub warm_misses: u64,
}

impl RouterStats {
    /// Requests fully answered across all shards.
    pub fn served(&self) -> u64 {
        self.shards.iter().map(|s| s.served).sum()
    }

    /// Requests shed at admission across all shards.
    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed).sum()
    }

    /// Requests dropped/aborted for disconnected clients, all shards.
    pub fn cancelled(&self) -> u64 {
        self.shards.iter().map(|s| s.cancelled).sum()
    }

    /// The deepest any shard queue ever got.
    pub fn queue_high_water(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.queue_high_water)
            .max()
            .unwrap_or(0)
    }

    /// Serialize to the wire object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "shards".into(),
                Json::Arr(
                    self.shards
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("served".into(), Json::from_u64(s.served)),
                                ("shed".into(), Json::from_u64(s.shed)),
                                ("cancelled".into(), Json::from_u64(s.cancelled)),
                                (
                                    "queue_high_water".into(),
                                    Json::from_u64(s.queue_high_water as u64),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("warm_hits".into(), Json::from_u64(self.warm_hits)),
            ("warm_misses".into(), Json::from_u64(self.warm_misses)),
        ])
    }

    /// Parse the wire object (the `loadgen` half of the contract).
    ///
    /// # Errors
    ///
    /// [`crate::PipelineError::InvalidSpec`] on malformed documents.
    pub fn from_json(v: &Json) -> crate::Result<Self> {
        let bad = |msg: &str| crate::PipelineError::InvalidSpec {
            field: "router_stats",
            msg: msg.into(),
        };
        let num = |obj: &Json, key: &str| -> crate::Result<u64> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(&format!("needs a u64 `{key}`")))
        };
        Ok(Self {
            shards: v
                .get("shards")
                .and_then(Json::as_array)
                .ok_or_else(|| bad("needs a `shards` array"))?
                .iter()
                .map(|s| {
                    Ok(ShardStats {
                        served: num(s, "served")?,
                        shed: num(s, "shed")?,
                        cancelled: num(s, "cancelled")?,
                        queue_high_water: num(s, "queue_high_water")? as usize,
                    })
                })
                .collect::<crate::Result<_>>()?,
            warm_hits: num(v, "warm_hits")?,
            warm_misses: num(v, "warm_misses")?,
        })
    }
}

/// The warm tier caches finished response *bodies*; the id is re-applied
/// per caller so two clients asking the same question share one entry.
type WarmTier = Mutex<BoundedCache<String, Arc<Vec<crate::envelope::ResponseBody>>>>;

struct ShardHandle {
    tx: Option<mpsc::SyncSender<Job>>,
    depth: Arc<AtomicUsize>,
    counters: Arc<ShardCounters>,
    worker: Option<JoinHandle<()>>,
}

/// N service shards behind a deterministic request router (module docs
/// have the architecture and the executable contracts).
pub struct ShardRouter {
    shards: Vec<ShardHandle>,
    warm_hits: Arc<AtomicU64>,
    warm_misses: Arc<AtomicU64>,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// The canonical warm-tier key of a parsed request line, when the
/// request is warm-eligible: a single-artifact body (`evaluate`, `wafer`,
/// `describe`) on the supported schema. The id is stripped (responses are
/// re-addressed per caller) and `workers` is normalized away (the
/// determinism contract: workers never change bytes).
fn warm_key(doc: &Json) -> Option<String> {
    let request = YieldRequest::from_json(doc).ok()?;
    if request.schema != SCHEMA_VERSION {
        return None;
    }
    let mut canonical = YieldRequest {
        schema: request.schema,
        id: String::new(),
        body: request.body,
    };
    match &mut canonical.body {
        RequestBody::Evaluate { .. } | RequestBody::Describe => {}
        RequestBody::Wafer { workers, .. } => *workers = None,
        // Streaming sweeps and co-opt studies stay uncached: their
        // artifacts can be arbitrarily large, and their hot path is the
        // per-shard curve cache underneath anyway.
        _ => return None,
    }
    Some(canonical.to_json().to_string_compact())
}

impl ShardRouter {
    /// Spawn `config.shards` worker threads, each owning the service that
    /// `factory(shard_index)` builds (its own bounded caches), all
    /// sharing one warm tier.
    pub fn new<S: LineServer>(config: RouterConfig, mut factory: impl FnMut(usize) -> S) -> Self {
        let warm: Arc<WarmTier> =
            Arc::new(Mutex::new(BoundedCache::new(config.warm_capacity.max(1))));
        let warm_hits = Arc::new(AtomicU64::new(0));
        let warm_misses = Arc::new(AtomicU64::new(0));
        let shards = (0..config.shards.max(1))
            .map(|index| {
                let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth.max(1));
                let depth = Arc::new(AtomicUsize::new(0));
                let counters = Arc::new(ShardCounters::default());
                let server = factory(index);
                let worker = {
                    let depth = Arc::clone(&depth);
                    let counters = Arc::clone(&counters);
                    let warm = Arc::clone(&warm);
                    let warm_hits = Arc::clone(&warm_hits);
                    let warm_misses = Arc::clone(&warm_misses);
                    std::thread::spawn(move || {
                        shard_loop(
                            &server,
                            &rx,
                            &depth,
                            &counters,
                            &warm,
                            &warm_hits,
                            &warm_misses,
                        )
                    })
                };
                ShardHandle {
                    tx: Some(tx),
                    depth,
                    counters,
                    worker: Some(worker),
                }
            })
            .collect();
        Self {
            shards,
            warm_hits,
            warm_misses,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Route one request line to its shard, **blocking** while the
    /// shard's queue is full — backpressure for a trusted single
    /// producer (the stdin daemon loop), where slowing the producer is
    /// better than shedding its requests.
    pub fn submit(&self, line: impl Into<String>, client: &Client) {
        self.enqueue(Ok(line.into()), client, true);
    }

    /// Route one request line to its shard, **shedding** when the
    /// shard's queue is full: the client receives a machine-readable
    /// [`ErrorCode::Overloaded`] response instead of the router buffering
    /// without bound. Returns `true` when the request was admitted.
    pub fn try_submit(&self, line: impl Into<String>, client: &Client) -> bool {
        self.enqueue(Ok(line.into()), client, false)
    }

    /// Answer `error` under the empty id in its turn: it is queued on that
    /// id's shard like an unparseable line, so it arrives after the
    /// answers to the lines routed there before it. For a line the caller
    /// would not read in whole (the `repro serve` line-byte limit).
    /// `block` picks [`ShardRouter::submit`]'s admission or
    /// [`ShardRouter::try_submit`]'s; returns `true` when it was admitted.
    pub fn reject(&self, error: ServiceError, client: &Client, block: bool) -> bool {
        self.enqueue(Err(error), client, block)
    }

    fn enqueue(&self, line: Result<String, ServiceError>, client: &Client, block: bool) -> bool {
        // Parse once here: the id picks the shard and addresses a
        // potential shed response, and the shard keys the warm tier on the
        // same tree. Unparseable lines route to the empty id's shard,
        // which answers them with the structured parse error.
        let doc = line.as_deref().ok().and_then(|line| Json::parse(line).ok());
        let id = doc.as_ref().map(recover_id).unwrap_or_default();
        let index = shard_for(&id, self.shards.len());
        let shard = &self.shards[index];
        // Count the job (including one blocked in admission) before the
        // send so the high-water mark can never under-report; the worker
        // decrements as it dequeues.
        let depth = shard.depth.fetch_add(1, Ordering::AcqRel) + 1;
        shard.counters.high_water.fetch_max(depth, Ordering::AcqRel);
        let job = Job {
            line,
            doc,
            id: id.clone(),
            client: client.clone(),
        };
        let tx = shard.tx.as_ref().expect("router accepts until shutdown");
        let admitted = if block {
            tx.send(job).is_ok()
        } else {
            tx.try_send(job).is_ok()
        };
        if !admitted {
            shard.depth.fetch_sub(1, Ordering::AcqRel);
            shard.counters.shed.fetch_add(1, Ordering::Relaxed);
            client.emit(YieldResponse::error(
                id,
                ServiceError {
                    code: ErrorCode::Overloaded {
                        shard: index as u64,
                    },
                    message: format!(
                        "shard {index} admission queue is full; the request was not \
                         executed — retry after a backoff"
                    ),
                },
            ));
        }
        admitted
    }

    /// A point-in-time snapshot of the router counters.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            shards: self
                .shards
                .iter()
                .map(|s| ShardStats {
                    served: s.counters.served.load(Ordering::Acquire),
                    shed: s.counters.shed.load(Ordering::Acquire),
                    cancelled: s.counters.cancelled.load(Ordering::Acquire),
                    queue_high_water: s.counters.high_water.load(Ordering::Acquire),
                })
                .collect(),
            warm_hits: self.warm_hits.load(Ordering::Acquire),
            warm_misses: self.warm_misses.load(Ordering::Acquire),
        }
    }

    /// Stop accepting requests, drain every queue (in-flight and queued
    /// requests finish; their responses are delivered), join the workers
    /// and return the final counters.
    pub fn shutdown(mut self) -> RouterStats {
        self.drain();
        self.stats()
    }

    fn drain(&mut self) {
        for shard in &mut self.shards {
            shard.tx = None; // close the queue: workers exit after draining
        }
        for shard in &mut self.shards {
            if let Some(worker) = shard.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

impl Drop for ShardRouter {
    fn drop(&mut self) {
        self.drain();
    }
}

/// One shard's worker loop: drain the queue until the router closes it.
fn shard_loop<S: LineServer>(
    server: &S,
    rx: &mpsc::Receiver<Job>,
    depth: &AtomicUsize,
    counters: &ShardCounters,
    warm: &WarmTier,
    warm_hits: &AtomicU64,
    warm_misses: &AtomicU64,
) {
    while let Ok(job) = rx.recv() {
        depth.fetch_sub(1, Ordering::AcqRel);
        if !job.client.is_connected() {
            // The client hung up while the job sat in the queue: free the
            // slot without burning engine time.
            counters.cancelled.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let line = match job.line {
            Ok(line) => line,
            Err(error) => {
                let counter = if job.client.emit(YieldResponse::error(&job.id, error)) {
                    &counters.served
                } else {
                    &counters.cancelled
                };
                counter.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        let key = job.doc.as_ref().and_then(warm_key);
        if let Some(key) = &key {
            let hit = warm.lock().expect("warm tier lock").get(key).cloned();
            if let Some(bodies) = hit {
                warm_hits.fetch_add(1, Ordering::Relaxed);
                let delivered = bodies
                    .iter()
                    .all(|body| job.client.emit(YieldResponse::new(&job.id, body.clone())));
                let counter = if delivered {
                    &counters.served
                } else {
                    &counters.cancelled
                };
                counter.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            warm_misses.fetch_add(1, Ordering::Relaxed);
        }
        let mut bodies = key.as_ref().map(|_| Vec::new());
        let completed = server.serve_line(&line, &mut |response| {
            if let Some(bodies) = bodies.as_mut() {
                bodies.push(response.body.clone());
            }
            job.client.emit(response)
        });
        if completed {
            counters.served.fetch_add(1, Ordering::Relaxed);
            if let (Some(key), Some(bodies)) = (key, bodies) {
                warm.lock()
                    .expect("warm tier lock")
                    .insert(key, Arc::new(bodies));
            }
        } else {
            // Aborted mid-stream (client vanished): a truncated response
            // list must never warm the tier.
            counters.cancelled.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_for_is_stable_and_spreads() {
        for id in ["", "a", "c17-r3", "swp"] {
            assert_eq!(shard_for(id, 4), shard_for(id, 4));
        }
        let mut seen = [false; 4];
        for i in 0..256 {
            seen[shard_for(&format!("client-{i}"), 4)] = true;
        }
        assert!(seen.iter().all(|s| *s), "4 shards must all receive load");
        assert_eq!(shard_for("anything", 1), 0);
    }

    /// The warm key of a raw line, parsed as the router parses it.
    fn line_key(line: &str) -> Option<String> {
        warm_key(&Json::parse(line).ok()?)
    }

    #[test]
    fn warm_key_strips_id_and_workers_but_keeps_seed() {
        let a = line_key(r#"{"schema":1,"id":"x","body":{"evaluate":{"spec":{},"seed":7}}}"#);
        let b = line_key(r#"{"schema":1,"id":"y","body":{"evaluate":{"spec":{},"seed":7}}}"#);
        assert_eq!(a, b, "ids must share one warm entry");
        assert!(a.is_some());
        let c = line_key(r#"{"schema":1,"id":"x","body":{"evaluate":{"spec":{},"seed":8}}}"#);
        assert_ne!(a, c, "seeds are part of the answer");
        let w1 = line_key(
            r#"{"schema":1,"id":"x","body":{"wafer":{"spec":{"diameter_dies":8,"base":{}},"workers":1}}}"#,
        );
        let w8 = line_key(
            r#"{"schema":1,"id":"y","body":{"wafer":{"spec":{"diameter_dies":8,"base":{}},"workers":8}}}"#,
        );
        assert_eq!(w1, w8, "workers never change bytes");
        assert!(
            line_key(r#"{"schema":1,"id":"x","body":{"sweep":{"grid":{"scenarios":[{}]}}}}"#)
                .is_none(),
            "sweeps stream, they are not warm-cached"
        );
        assert!(line_key("not json").is_none());
        assert!(
            line_key(r#"{"schema":2,"id":"x","body":"describe"}"#).is_none(),
            "foreign schemas answer with errors, not cacheable artifacts"
        );
    }

    #[test]
    fn client_latches_disconnection() {
        let (client, rx) = Client::channel();
        assert!(client.is_connected());
        drop(rx);
        // The flag only latches at the next emit.
        assert!(!client.emit(YieldResponse::error(
            "x",
            ServiceError {
                code: ErrorCode::Internal,
                message: String::new(),
            },
        )));
        assert!(!client.is_connected());
    }
}
