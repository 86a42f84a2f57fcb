//! The router: the front process of a sharded serve topology.
//!
//! One `linguist router` stands in front of N `linguist serve` shards
//! and speaks the same newline-delimited JSON protocol on both sides,
//! so every existing client works unchanged. Requests are routed by
//! **consistent hashing on the grammar content-hash**: the 16-hex
//! grammar handle *is* [`grammar_key`](crate::store::grammar_key) of
//! the source text, so a by-handle request and a by-source request for
//! the same grammar land on the same shard, and each shard's session
//! cache stays hot for its slice of the key space.
//!
//! Failure handling is the point:
//!
//! * **Active health checks** — a background thread pings every shard
//!   each `health_interval`; a failed probe *ejects* the shard from
//!   routing, a succeeding probe on an ejected shard *re-admits* it —
//!   but only after **warm-up replication**: every cached grammar
//!   source whose ring owner is the recovering shard is re-loaded into
//!   it first, so the shard comes back warm, not cold.
//! * **Passive failure detection** — a per-shard circuit breaker
//!   (closed → open → half-open) trips after `breaker_threshold`
//!   consecutive transport failures, so a freshly dead shard stops
//!   receiving traffic *between* health ticks; after
//!   `breaker_cooldown` one half-open probe request is let through.
//! * **Retry with failover** — `translate`, `translate_batch`, `check`
//!   and `load_grammar` are idempotent (evaluation is pure, loading is
//!   content-addressed), so a transport failure or a transient typed
//!   error ([`retryable_kind`]) moves the request to the next shard on
//!   the ring with capped exponential backoff, up to `max_attempts`.
//!   Deterministic failures (`parse`, `panicked`, `deadline`, …) are
//!   returned as-is — they would fail identically anywhere.
//! * **Handle rehydration** — the router remembers the source text of
//!   every grammar loaded through it (a bounded LRU). When failover
//!   sends a by-handle request to a shard that never compiled that
//!   grammar, the shard's `grammar_not_found` is repaired in place:
//!   the router rewrites the request with the cached source (same
//!   content hash ⇒ same handle) and retries, so clients never see a
//!   routing-induced miss.
//! * **Typed degradation** — when every candidate shard is ejected or
//!   breaker-open the client gets a typed `shard_unavailable` reply,
//!   never a hung connection.
//!
//! A `shutdown` request (or SIGTERM via
//! [`RouterState::begin_drain`]) drains the router exactly like the
//! single daemon: stop accepting, answer in-flight requests, exit.
//! Shards are deliberately left running — they may serve other
//! routers.

use linguist_support::json::Json;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::hist::LatencyHistogram;
use crate::net::{session, write_frame, Endpoints, Listeners, ShardAddr, Stream};
use crate::proto::{
    error_reply, kind, ok_reply, retryable_kind, FrameError, FrameReader, GrammarRef, Request,
};
use crate::store::{fnv1a, grammar_key};

/// Virtual nodes per shard on the hash ring: enough to keep the key
/// space within a few percent of even for small shard counts.
const VNODES: usize = 40;

/// How to run the router.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind a Unix-domain socket here for clients.
    pub unix_path: Option<PathBuf>,
    /// Bind a TCP listener here for clients (keep it loopback).
    pub tcp_addr: Option<String>,
    /// The backend shards, in ring order.
    pub shards: Vec<ShardAddr>,
    /// Active health-check period. Ejection latency is bounded by one
    /// interval plus the probe timeout.
    pub health_interval: Duration,
    /// Deadline for one health probe (connect + ping + reply).
    pub probe_timeout: Duration,
    /// Deadline for one forwarded attempt (connect + request + reply).
    pub attempt_timeout: Duration,
    /// Total attempts per request (first try + retries).
    pub max_attempts: usize,
    /// First retry backoff; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Consecutive transport failures that open a shard's breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker blocks traffic before one half-open
    /// probe is allowed through.
    pub breaker_cooldown: Duration,
    /// Bounded count of grammar sources remembered for rehydration and
    /// warm-up replication.
    pub source_cache: usize,
    /// Frame bound for client connections (same meaning as the
    /// server's).
    pub max_frame_len: usize,
    /// Idle read deadline for client connections.
    pub idle_timeout: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            unix_path: None,
            tcp_addr: None,
            shards: Vec::new(),
            health_interval: Duration::from_millis(200),
            probe_timeout: Duration::from_millis(500),
            attempt_timeout: Duration::from_secs(5),
            max_attempts: 4,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(100),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
            source_cache: 64,
            max_frame_len: crate::proto::DEFAULT_MAX_FRAME_LEN,
            idle_timeout: Some(Duration::from_secs(60)),
        }
    }
}

/// The circuit-breaker state machine. Transitions happen on the
/// request path (passive detection); the health checker resets it on
/// re-admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Breaker {
    /// Traffic flows; `fails` consecutive transport failures so far.
    Closed { fails: u32 },
    /// No traffic until `until`.
    Open { until: Instant },
    /// One probe request is in flight; its outcome decides.
    HalfOpen,
}

/// Per-shard live state and lifetime counters.
pub struct ShardState {
    addr: ShardAddr,
    /// Verdict of the *active* health checker.
    healthy: AtomicBool,
    /// Verdict of *passive* failure detection.
    breaker: Mutex<Breaker>,
    requests: AtomicU64,
    failures: AtomicU64,
    ejections: AtomicU64,
    readmissions: AtomicU64,
    replicated: AtomicU64,
}

impl ShardState {
    fn new(addr: ShardAddr) -> ShardState {
        ShardState {
            addr,
            // Optimistic start: the first health tick corrects this.
            healthy: AtomicBool::new(true),
            breaker: Mutex::new(Breaker::Closed { fails: 0 }),
            requests: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            ejections: AtomicU64::new(0),
            readmissions: AtomicU64::new(0),
            replicated: AtomicU64::new(0),
        }
    }

    /// May a request be sent right now? Open → HalfOpen transition
    /// happens here, so call this only when about to actually use the
    /// shard.
    fn try_admit(&self) -> bool {
        if !self.healthy.load(Ordering::SeqCst) {
            return false;
        }
        let mut b = self.breaker.lock().expect("breaker poisoned");
        match *b {
            Breaker::Closed { .. } => true,
            Breaker::Open { until } => {
                if Instant::now() >= until {
                    *b = Breaker::HalfOpen;
                    true // this caller is the half-open probe
                } else {
                    false
                }
            }
            Breaker::HalfOpen => false, // probe already in flight
        }
    }

    /// The shard answered (even with a typed error): it is alive.
    fn note_success(&self) {
        *self.breaker.lock().expect("breaker poisoned") = Breaker::Closed { fails: 0 };
    }

    /// Transport-level failure (connect refused, timeout, garbage).
    fn note_failure(&self, threshold: u32, cooldown: Duration) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        let mut b = self.breaker.lock().expect("breaker poisoned");
        *b = match *b {
            Breaker::Closed { fails } if fails + 1 >= threshold => Breaker::Open {
                until: Instant::now() + cooldown,
            },
            Breaker::Closed { fails } => Breaker::Closed { fails: fails + 1 },
            Breaker::HalfOpen | Breaker::Open { .. } => Breaker::Open {
                until: Instant::now() + cooldown,
            },
        };
    }

    fn breaker_name(&self) -> &'static str {
        match *self.breaker.lock().expect("breaker poisoned") {
            Breaker::Closed { .. } => "closed",
            Breaker::Open { .. } => "open",
            Breaker::HalfOpen => "half_open",
        }
    }

    /// The shard's address, for logs and stats.
    pub fn addr_string(&self) -> String {
        self.addr.to_string()
    }

    /// Is the shard currently routable by the active health checker?
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::SeqCst)
    }

    /// Requests forwarded to this shard (attempts, not successes).
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Transport-level failures observed against this shard.
    pub fn failure_count(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Times the health checker ejected this shard.
    pub fn ejection_count(&self) -> u64 {
        self.ejections.load(Ordering::Relaxed)
    }

    /// Times an ejected shard was re-admitted after a passing probe.
    pub fn readmission_count(&self) -> u64 {
        self.readmissions.load(Ordering::Relaxed)
    }

    /// Grammars replicated into this shard on re-admission.
    pub fn replicated_count(&self) -> u64 {
        self.replicated.load(Ordering::Relaxed)
    }
}

/// One remembered grammar source, for rehydration and replication.
#[derive(Clone, Debug)]
struct CachedSource {
    key: String,
    source: String,
    scanner: Option<String>,
    name: Option<String>,
}

/// A bounded LRU of grammar sources keyed by content hash.
struct SourceCache {
    entries: Vec<CachedSource>,
    capacity: usize,
}

impl SourceCache {
    fn new(capacity: usize) -> SourceCache {
        SourceCache {
            entries: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    fn remember(&mut self, cs: CachedSource) {
        if let Some(pos) = self.entries.iter().position(|e| e.key == cs.key) {
            let mut e = self.entries.remove(pos);
            // A later load may attach a display name the first lacked.
            if e.name.is_none() {
                e.name = cs.name;
            }
            self.entries.push(e);
        } else {
            self.entries.push(cs);
            if self.entries.len() > self.capacity {
                self.entries.remove(0);
            }
        }
    }

    fn get(&mut self, key: &str) -> Option<CachedSource> {
        let pos = self.entries.iter().position(|e| e.key == key)?;
        let e = self.entries.remove(pos);
        self.entries.push(e.clone());
        Some(e)
    }

    fn snapshot(&self) -> Vec<CachedSource> {
        self.entries.clone()
    }
}

/// Router-level request counters.
struct RouterMetrics {
    started: Instant,
    requests: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
    rehydrations: AtomicU64,
    errors: AtomicU64,
    latency: LatencyHistogram,
}

/// Everything the router's connection threads share.
pub struct RouterState {
    cfg: RouterConfig,
    shards: Vec<Arc<ShardState>>,
    /// Sorted (ring point → shard index).
    ring: Vec<(u64, usize)>,
    sources: Mutex<SourceCache>,
    metrics: RouterMetrics,
    net: Arc<Endpoints>,
}

impl RouterState {
    /// Has a drain been requested?
    pub fn is_shutting_down(&self) -> bool {
        self.net.is_stopping()
    }

    /// Begin a graceful drain from outside the protocol (SIGTERM).
    pub fn begin_drain(&self) {
        self.net.stop();
    }

    /// Per-shard state snapshots, ring order.
    pub fn shards(&self) -> &[Arc<ShardState>] {
        &self.shards
    }

    /// Grammar sources currently remembered for rehydration.
    pub fn cached_sources(&self) -> usize {
        self.sources.lock().expect("sources poisoned").entries.len()
    }

    /// Ring lookup: candidate shard indexes for `key`, preference
    /// order, each shard once.
    fn candidates(&self, key: &str) -> Vec<usize> {
        let h = fnv1a(&[key.as_bytes()]);
        let start = self.ring.partition_point(|&(p, _)| p < h);
        let mut out = Vec::with_capacity(self.shards.len());
        for i in 0..self.ring.len() {
            let (_, shard) = self.ring[(start + i) % self.ring.len()];
            if !out.contains(&shard) {
                out.push(shard);
                if out.len() == self.shards.len() {
                    break;
                }
            }
        }
        out
    }
}

/// The router daemon entry point.
pub enum Router {}

impl Router {
    /// Bind the client listeners, start the health checker, and serve.
    ///
    /// # Errors
    ///
    /// Bind failures; `InvalidInput` when no listener or no shard is
    /// configured.
    pub fn start(cfg: RouterConfig) -> std::io::Result<RouterHandle> {
        if cfg.shards.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router config names no shards",
            ));
        }
        let listeners =
            Listeners::bind("router", cfg.unix_path.as_deref(), cfg.tcp_addr.as_deref())?;
        let shards: Vec<Arc<ShardState>> = cfg
            .shards
            .iter()
            .cloned()
            .map(|a| Arc::new(ShardState::new(a)))
            .collect();
        let mut ring: Vec<(u64, usize)> = Vec::with_capacity(shards.len() * VNODES);
        for (i, shard) in shards.iter().enumerate() {
            let addr = shard.addr.to_string();
            for v in 0..VNODES {
                let point = fnv1a(&[addr.as_bytes(), b"#", format!("{}", v).as_bytes()]);
                ring.push((point, i));
            }
        }
        ring.sort_unstable();
        let state = Arc::new(RouterState {
            sources: Mutex::new(SourceCache::new(cfg.source_cache)),
            metrics: RouterMetrics {
                started: Instant::now(),
                requests: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                failovers: AtomicU64::new(0),
                rehydrations: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                latency: LatencyHistogram::new(),
            },
            net: listeners.endpoints(),
            shards,
            ring,
            cfg,
        });
        let conn_state = Arc::clone(&state);
        let mut threads = listeners.spawn(state.cfg.idle_timeout, move |stream| {
            let state = &conn_state;
            session(
                stream,
                state.cfg.max_frame_len,
                |line| route_line(line, state),
                |_| {
                    state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                },
                || state.begin_drain(),
            );
        })?;
        {
            let state = Arc::clone(&state);
            threads.push(
                std::thread::Builder::new()
                    .name("router-health".to_string())
                    .spawn(move || health_loop(&state))?,
            );
        }
        Ok(RouterHandle { state, threads })
    }
}

/// A running router. Dropping it stops the service.
pub struct RouterHandle {
    state: Arc<RouterState>,
    threads: Vec<JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound Unix socket path, if configured.
    pub fn unix_path(&self) -> Option<&Path> {
        self.state.net.unix_path.as_deref()
    }

    /// The bound TCP address, if configured.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.state.net.tcp_addr
    }

    /// The shared state (counters and shard views, for tests).
    pub fn state(&self) -> &Arc<RouterState> {
        &self.state
    }

    /// Block until a `shutdown` request (or `begin_drain`) stops the
    /// router.
    pub fn wait(mut self) {
        self.join();
    }

    /// Stop the router from outside.
    pub fn shutdown(mut self) {
        self.state.begin_drain();
        self.join();
    }

    fn join(&mut self) {
        for h in self.threads.drain(..) {
            let _unused = h.join();
        }
        if let Some(path) = &self.state.net.unix_path {
            let _unused = std::fs::remove_file(path);
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.state.begin_drain();
            self.join();
        }
    }
}

/// Answer one request line: locally (`ping`/`stats`/`shutdown`) or by
/// forwarding to a shard with retry/failover. The bool says "drain
/// after replying".
fn route_line(line: &str, state: &Arc<RouterState>) -> (Json, bool) {
    let parsed = match Json::parse(line) {
        Ok(j) => j,
        Err(e) => {
            state.metrics.errors.fetch_add(1, Ordering::Relaxed);
            return (
                error_reply(kind::BAD_REQUEST, &format!("request is not JSON: {}", e)),
                false,
            );
        }
    };
    let request = match Request::parse(&parsed) {
        Ok(r) => r,
        Err(msg) => {
            state.metrics.errors.fetch_add(1, Ordering::Relaxed);
            return (error_reply(kind::BAD_REQUEST, &msg), false);
        }
    };
    if state.is_shutting_down() {
        return (
            error_reply(
                kind::SHUTTING_DOWN,
                "the router is draining and accepts no new work",
            ),
            false,
        );
    }
    match &request {
        Request::Ping => return (ok_reply(vec![]), false),
        Request::Stats => return (router_stats(state), false),
        Request::Shutdown => return (ok_reply(vec![]), true),
        _ => {}
    }
    // Everything else routes by grammar key. Remember inline sources
    // as we see them — they are the replication/rehydration corpus.
    let key = match routing_key(&request, state) {
        Some(k) => k,
        None => {
            state.metrics.errors.fetch_add(1, Ordering::Relaxed);
            return (
                error_reply(kind::BAD_REQUEST, "request names no grammar to route by"),
                false,
            );
        }
    };
    let started = Instant::now();
    state.metrics.requests.fetch_add(1, Ordering::Relaxed);
    let reply = forward_with_failover(state, line, &parsed, &key);
    state.metrics.latency.record(started.elapsed());
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        state.metrics.errors.fetch_add(1, Ordering::Relaxed);
    }
    (reply, false)
}

/// The grammar content-hash a request routes by, caching inline
/// sources along the way.
fn routing_key(request: &Request, state: &Arc<RouterState>) -> Option<String> {
    let remember = |key: &str, source: &str, scanner: &Option<String>, name: Option<&str>| {
        state
            .sources
            .lock()
            .expect("sources poisoned")
            .remember(CachedSource {
                key: key.to_string(),
                source: source.to_string(),
                scanner: scanner.clone(),
                name: name.map(str::to_string),
            });
    };
    let of_ref = |gref: &GrammarRef| match gref {
        GrammarRef::Handle(h) => h.clone(),
        GrammarRef::Source { source, scanner } => {
            let key = grammar_key(source, scanner.as_deref());
            remember(&key, source, scanner, None);
            key
        }
    };
    match request {
        Request::LoadGrammar {
            source,
            scanner,
            name,
        } => {
            let key = grammar_key(source, scanner.as_deref());
            remember(&key, source, scanner, name.as_deref());
            Some(key)
        }
        Request::Translate { grammar, .. }
        | Request::TranslateBatch { grammar, .. }
        | Request::Check { grammar } => Some(of_ref(grammar)),
        Request::Ping | Request::Stats | Request::Shutdown => None,
    }
}

/// Exponential backoff for retry `n` (1-based), capped.
fn backoff(cfg: &RouterConfig, n: u32) -> Duration {
    let mult = 1u32 << n.min(10).saturating_sub(1);
    cfg.backoff_base.saturating_mul(mult).min(cfg.backoff_cap)
}

/// Forward one request line with retry, failover, and rehydration.
fn forward_with_failover(state: &Arc<RouterState>, line: &str, parsed: &Json, key: &str) -> Json {
    let cfg = &state.cfg;
    let candidates = state.candidates(key);
    let n = candidates.len();
    let mut scan = 0usize; // rotates through candidates across attempts
    let mut last_reply: Option<Json> = None;
    let mut last_transport: Option<String> = None;
    for attempt in 0..cfg.max_attempts {
        // Next routable candidate, one full cycle at most.
        let mut chosen = None;
        for k in 0..n {
            let idx = candidates[(scan + k) % n];
            if state.shards[idx].try_admit() {
                chosen = Some((idx, (scan + k) % n));
                break;
            }
        }
        let Some((idx, pos)) = chosen else { break };
        scan = pos + 1;
        if idx != candidates[0] {
            state.metrics.failovers.fetch_add(1, Ordering::Relaxed);
        }
        if attempt > 0 {
            state.metrics.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(backoff(cfg, attempt as u32));
        }
        let shard = &state.shards[idx];
        shard.requests.fetch_add(1, Ordering::Relaxed);
        match forward_once(&shard.addr, line, cfg.attempt_timeout, cfg.max_frame_len) {
            Ok(reply) => {
                shard.note_success();
                let err_kind = reply
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str)
                    .map(str::to_string);
                match err_kind.as_deref() {
                    None => return reply, // ok:true
                    Some(k) if k == kind::GRAMMAR_NOT_FOUND => {
                        // Failover sent a handle to a shard that never
                        // compiled it: rehydrate from the source cache
                        // and retry this same shard, which warms it.
                        let cached = state.sources.lock().expect("sources poisoned").get(key);
                        if let Some(cs) = cached {
                            if let Some(rewritten) = rehydrate(parsed, &cs) {
                                state.metrics.rehydrations.fetch_add(1, Ordering::Relaxed);
                                match forward_once(
                                    &shard.addr,
                                    &rewritten,
                                    cfg.attempt_timeout,
                                    cfg.max_frame_len,
                                ) {
                                    Ok(r2) => return r2,
                                    Err(e) => {
                                        shard.note_failure(
                                            cfg.breaker_threshold,
                                            cfg.breaker_cooldown,
                                        );
                                        last_transport = Some(e.to_string());
                                        continue;
                                    }
                                }
                            }
                        }
                        return reply; // nothing cached: the miss is real
                    }
                    Some(k) if retryable_kind(k) => {
                        // Typed pushback (overloaded / draining): try
                        // the next replica.
                        last_reply = Some(reply);
                        continue;
                    }
                    Some(_) => return reply, // deterministic failure
                }
            }
            Err(e) => {
                shard.note_failure(cfg.breaker_threshold, cfg.breaker_cooldown);
                last_transport = Some(format!("{}: {}", shard.addr, e));
                continue;
            }
        }
    }
    if let Some(reply) = last_reply {
        return reply;
    }
    error_reply(
        kind::SHARD_UNAVAILABLE,
        &last_transport.map_or_else(
            || "every candidate shard is ejected or breaker-open".to_string(),
            |t| format!("no shard could serve the request (last failure: {})", t),
        ),
    )
}

/// One attempt: fresh connection, one request line out, one reply line
/// in, parsed. Any transport trouble (refused, timeout, truncated or
/// garbled reply) is an `Err`.
fn forward_once(
    addr: &ShardAddr,
    line: &str,
    timeout: Duration,
    max_frame_len: usize,
) -> std::io::Result<Json> {
    let mut conn = Stream::connect(addr, Some(timeout))?;
    write_frame(&mut conn, line.trim_end())?;
    let mut frames = FrameReader::new(conn, max_frame_len);
    let reply = match frames.read_frame() {
        Ok(l) => l,
        Err(FrameError::Io(e)) => return Err(e),
        Err(e) => {
            return Err(std::io::Error::other(format!(
                "shard reply did not arrive cleanly: {:?}",
                e
            )))
        }
    };
    Json::parse(&reply)
        .map_err(|e| std::io::Error::other(format!("shard reply is not JSON: {}", e)))
}

/// Rewrite a by-handle request into a by-source one from the cache.
/// Same content hash ⇒ same handle on the shard.
fn rehydrate(parsed: &Json, cs: &CachedSource) -> Option<String> {
    let Json::Obj(fields) = parsed else {
        return None;
    };
    let mut out: Vec<(String, Json)> = fields
        .iter()
        .filter(|(k, _)| k != "grammar" && k != "source" && k != "scanner")
        .cloned()
        .collect();
    out.push(("source".to_string(), Json::str(&cs.source)));
    if let Some(sc) = &cs.scanner {
        out.push(("scanner".to_string(), Json::str(sc)));
    }
    Some(Json::Obj(out).to_string())
}

/// The router's own `stats` reply: routing counters plus a per-shard
/// table (clients wanting a *shard's* stats ask it directly).
fn router_stats(state: &Arc<RouterState>) -> Json {
    let m = &state.metrics;
    let quantile = |q: f64| match m.latency.quantile(q) {
        Some(d) => Json::Num(d.as_secs_f64() * 1e3),
        None => Json::Null,
    };
    let shards: Vec<Json> = state
        .shards
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("addr".to_string(), Json::str(&s.addr.to_string())),
                ("healthy".to_string(), Json::Bool(s.is_healthy())),
                ("breaker".to_string(), Json::str(s.breaker_name())),
                (
                    "requests".to_string(),
                    Json::int(s.requests.load(Ordering::Relaxed) as i64),
                ),
                (
                    "failures".to_string(),
                    Json::int(s.failures.load(Ordering::Relaxed) as i64),
                ),
                (
                    "ejections".to_string(),
                    Json::int(s.ejection_count() as i64),
                ),
                (
                    "readmissions".to_string(),
                    Json::int(s.readmission_count() as i64),
                ),
                (
                    "replicated".to_string(),
                    Json::int(s.replicated_count() as i64),
                ),
            ])
        })
        .collect();
    ok_reply(vec![
        ("role".to_string(), Json::str("router")),
        (
            "uptime_ms".to_string(),
            Json::Num(m.started.elapsed().as_secs_f64() * 1e3),
        ),
        (
            "requests".to_string(),
            Json::Obj(vec![
                (
                    "routed".to_string(),
                    Json::int(m.requests.load(Ordering::Relaxed) as i64),
                ),
                (
                    "retries".to_string(),
                    Json::int(m.retries.load(Ordering::Relaxed) as i64),
                ),
                (
                    "failovers".to_string(),
                    Json::int(m.failovers.load(Ordering::Relaxed) as i64),
                ),
                (
                    "rehydrations".to_string(),
                    Json::int(m.rehydrations.load(Ordering::Relaxed) as i64),
                ),
                (
                    "errors".to_string(),
                    Json::int(m.errors.load(Ordering::Relaxed) as i64),
                ),
                ("latency_p50_ms".to_string(), quantile(0.50)),
                ("latency_p99_ms".to_string(), quantile(0.99)),
                ("latency_p999_ms".to_string(), quantile(0.999)),
            ]),
        ),
        ("shards".to_string(), Json::Arr(shards)),
        (
            "cached_sources".to_string(),
            Json::int(state.cached_sources() as i64),
        ),
    ])
}

/// The active health checker: ping every shard each interval; eject on
/// failure, replicate-then-readmit on recovery.
fn health_loop(state: &Arc<RouterState>) {
    let cfg = &state.cfg;
    while !state.is_shutting_down() {
        for shard in &state.shards {
            if state.is_shutting_down() {
                return;
            }
            let alive = probe(&shard.addr, cfg.probe_timeout, cfg.max_frame_len);
            let was_healthy = shard.healthy.load(Ordering::SeqCst);
            match (was_healthy, alive) {
                (true, true) | (false, false) => {}
                (true, false) => {
                    shard.healthy.store(false, Ordering::SeqCst);
                    shard.ejections.fetch_add(1, Ordering::Relaxed);
                }
                (false, true) => {
                    // Warm the shard up BEFORE re-admitting it, so the
                    // first routed request after recovery hits a warm
                    // cache. Only the grammars this shard owns (or
                    // backs up) matter, but replicating the whole
                    // bounded cache is cheap and covers failover.
                    let corpus = state.sources.lock().expect("sources poisoned").snapshot();
                    let mut loaded = 0u64;
                    for cs in &corpus {
                        if replicate(&shard.addr, cs, cfg.attempt_timeout, cfg.max_frame_len) {
                            loaded += 1;
                        }
                    }
                    shard.replicated.fetch_add(loaded, Ordering::Relaxed);
                    *shard.breaker.lock().expect("breaker poisoned") = Breaker::Closed { fails: 0 };
                    shard.healthy.store(true, Ordering::SeqCst);
                    shard.readmissions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Sleep in short slices so a drain is honored promptly.
        let mut slept = Duration::ZERO;
        while slept < cfg.health_interval && !state.is_shutting_down() {
            let slice = Duration::from_millis(25).min(cfg.health_interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// One liveness probe: `{"op":"ping"}` answered `ok:true` within the
/// timeout.
fn probe(addr: &ShardAddr, timeout: Duration, max_frame_len: usize) -> bool {
    forward_ok(addr, r#"{"op":"ping"}"#, timeout, max_frame_len)
}

/// Push one cached grammar into a recovering shard.
fn replicate(addr: &ShardAddr, cs: &CachedSource, timeout: Duration, max_frame_len: usize) -> bool {
    let mut obj = vec![
        ("op".to_string(), Json::str("load_grammar")),
        ("source".to_string(), Json::str(&cs.source)),
    ];
    if let Some(sc) = &cs.scanner {
        obj.push(("scanner".to_string(), Json::str(sc)));
    }
    if let Some(n) = &cs.name {
        obj.push(("name".to_string(), Json::str(n)));
    }
    forward_ok(addr, &Json::Obj(obj).to_string(), timeout, max_frame_len)
}

/// Did one attempt get an `ok:true` reply?
fn forward_ok(addr: &ShardAddr, line: &str, timeout: Duration, max_frame_len: usize) -> bool {
    matches!(
        forward_once(addr, line, timeout, max_frame_len),
        Ok(reply) if reply.get("ok").and_then(Json::as_bool) == Some(true)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_after_threshold_and_half_opens_after_cooldown() {
        let s = ShardState::new(ShardAddr::Tcp("127.0.0.1:1".to_string()));
        let cooldown = Duration::from_millis(30);
        assert!(s.try_admit());
        s.note_failure(3, cooldown);
        s.note_failure(3, cooldown);
        assert!(s.try_admit(), "breaker tripped before the threshold");
        s.note_failure(3, cooldown);
        assert!(!s.try_admit(), "breaker stayed closed at the threshold");
        assert_eq!(s.breaker_name(), "open");
        std::thread::sleep(cooldown + Duration::from_millis(5));
        // Cooldown elapsed: exactly one half-open probe gets through.
        assert!(s.try_admit());
        assert_eq!(s.breaker_name(), "half_open");
        assert!(!s.try_admit(), "second probe admitted while half-open");
        // Probe failure slams it shut again; success closes it.
        s.note_failure(3, cooldown);
        assert_eq!(s.breaker_name(), "open");
        std::thread::sleep(cooldown + Duration::from_millis(5));
        assert!(s.try_admit());
        s.note_success();
        assert_eq!(s.breaker_name(), "closed");
        assert!(s.try_admit());
    }

    fn ring_state(shards: Vec<ShardAddr>) -> RouterState {
        let shard_states: Vec<Arc<ShardState>> = shards
            .iter()
            .cloned()
            .map(|a| Arc::new(ShardState::new(a)))
            .collect();
        let mut ring = Vec::new();
        for (i, s) in shard_states.iter().enumerate() {
            let addr = s.addr.to_string();
            for v in 0..VNODES {
                ring.push((
                    fnv1a(&[addr.as_bytes(), b"#", format!("{}", v).as_bytes()]),
                    i,
                ));
            }
        }
        ring.sort_unstable();
        RouterState {
            cfg: RouterConfig::default(),
            shards: shard_states,
            ring,
            sources: Mutex::new(SourceCache::new(8)),
            metrics: RouterMetrics {
                started: Instant::now(),
                requests: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                failovers: AtomicU64::new(0),
                rehydrations: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                latency: LatencyHistogram::new(),
            },
            net: Arc::default(),
        }
    }

    #[test]
    fn ring_routing_is_deterministic_and_covers_every_shard() {
        let state = ring_state(vec![
            ShardAddr::Tcp("127.0.0.1:7001".to_string()),
            ShardAddr::Tcp("127.0.0.1:7002".to_string()),
            ShardAddr::Tcp("127.0.0.1:7003".to_string()),
        ]);
        let c1 = state.candidates("00ff00ff00ff00ff");
        let c2 = state.candidates("00ff00ff00ff00ff");
        assert_eq!(c1, c2, "routing must be deterministic");
        assert_eq!(c1.len(), 3, "failover order must cover every shard");
        let mut sorted = c1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        // Different keys spread across owners.
        let owners: std::collections::HashSet<usize> = (0..64u64)
            .map(|i| state.candidates(&format!("{:016x}", i * 0x9e37_79b9))[0])
            .collect();
        assert!(
            owners.len() >= 2,
            "64 keys all routed to one shard: {:?}",
            owners
        );
    }

    #[test]
    fn ring_is_mostly_stable_when_a_shard_joins() {
        let two = ring_state(vec![
            ShardAddr::Tcp("127.0.0.1:7001".to_string()),
            ShardAddr::Tcp("127.0.0.1:7002".to_string()),
        ]);
        let three = ring_state(vec![
            ShardAddr::Tcp("127.0.0.1:7001".to_string()),
            ShardAddr::Tcp("127.0.0.1:7002".to_string()),
            ShardAddr::Tcp("127.0.0.1:7003".to_string()),
        ]);
        let keys: Vec<String> = (0..256)
            .map(|i| format!("{:016x}", i * 0x9e37_79b9_u64))
            .collect();
        let moved = keys
            .iter()
            .filter(|k| {
                let a = two.candidates(k)[0];
                let b = three.candidates(k)[0];
                b != 2 && a != b // moved between the two surviving shards
            })
            .count();
        // Consistent hashing: keys either stay put or move to the NEW
        // shard; almost none shuffle between the old ones.
        assert!(
            moved <= keys.len() / 10,
            "{} of {} keys shuffled between surviving shards",
            moved,
            keys.len()
        );
    }

    #[test]
    fn source_cache_is_lru_bounded_and_updates_names() {
        let mut c = SourceCache::new(2);
        let cs = |k: &str| CachedSource {
            key: k.to_string(),
            source: format!("grammar {}", k),
            scanner: None,
            name: None,
        };
        c.remember(cs("a"));
        c.remember(cs("b"));
        assert!(c.get("a").is_some()); // refreshes a
        c.remember(cs("c")); // evicts b
        assert!(c.get("b").is_none());
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        let mut named = cs("a");
        named.name = Some("calc".to_string());
        c.remember(named);
        assert_eq!(c.get("a").unwrap().name.as_deref(), Some("calc"));
    }

    #[test]
    fn rehydration_rewrites_handle_to_cached_source() {
        let parsed =
            Json::parse(r#"{"op":"translate","grammar":"00ff","budget":32,"deadline_ms":100}"#)
                .unwrap();
        let cs = CachedSource {
            key: "00ff".to_string(),
            source: "grammar G ;".to_string(),
            scanner: Some("calc".to_string()),
            name: None,
        };
        let line = rehydrate(&parsed, &cs).unwrap();
        let re = Json::parse(&line).unwrap();
        assert!(re.get("grammar").is_none());
        assert_eq!(re.get("source").and_then(Json::as_str), Some("grammar G ;"));
        assert_eq!(re.get("scanner").and_then(Json::as_str), Some("calc"));
        assert_eq!(re.get("budget").and_then(Json::as_u64), Some(32));
        assert_eq!(re.get("op").and_then(Json::as_str), Some("translate"));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = RouterConfig {
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(40),
            ..RouterConfig::default()
        };
        assert_eq!(backoff(&cfg, 1), Duration::from_millis(5));
        assert_eq!(backoff(&cfg, 2), Duration::from_millis(10));
        assert_eq!(backoff(&cfg, 3), Duration::from_millis(20));
        assert_eq!(backoff(&cfg, 4), Duration::from_millis(40));
        assert_eq!(backoff(&cfg, 9), Duration::from_millis(40), "cap ignored");
    }
}
