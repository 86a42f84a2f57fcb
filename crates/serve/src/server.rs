//! The daemon: request dispatch over the shared connection layer.
//!
//! [`Server::start`] binds a Unix-domain socket and/or a localhost TCP
//! listener and returns a [`ServerHandle`]; the daemon then runs until
//! a `shutdown` request (or [`ServerHandle::shutdown`]) stops it.
//!
//! The threading model keeps the slow and the fast paths apart:
//!
//! * one **acceptor** thread per listener, blocked in `accept`
//!   (`net::Listeners::spawn`);
//! * one **connection** thread per client, in `net::session`, which
//!   parses request lines and answers `load_grammar` / `stats` /
//!   `shutdown` inline —
//!   grammar compilation runs here, on the loading client's time,
//!   single-flighted by the [`GrammarStore`];
//! * the fixed **worker pool**, which runs every `translate` /
//!   `translate_batch` job. Admission control happens at submit time:
//!   a full queue is a typed `overloaded` reply, never a blocked
//!   connection.
//!
//! Per-request deadlines are budgeted end to end: the job's closure is
//! told how long it waited in the queue, and a job that is already
//! past its deadline when a worker picks it up replies `deadline`
//! without evaluating. The remaining budget is handed to the
//! evaluator's own cooperative [`EvalOptions::deadline`] check.

use linguist_ag::analysis::Config;
use linguist_ag::lint::{run_lints, Finding, LintConfig};
use linguist_ag::passes::Direction;
use linguist_engine::{Engine as ExecEngine, EngineConfig, EngineKind};
use linguist_eval::funcs::Funcs;
use linguist_eval::machine::{evaluate, Backing, EvalOptions, Evaluation, Strategy};
use linguist_eval::tree::PTree;
use linguist_frontend::check::{check_source, CheckReport};
use linguist_frontend::report::synthesize_tree;
use linguist_frontend::translate::standard_intrinsics;
use linguist_support::intern::NameTable;
use linguist_support::json::Json;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::net::{session, Endpoints, Listeners};
use crate::pool::{PoolStats, SubmitError, WorkerPool};
use crate::proto::{
    error_reply, error_reply_with, eval_error_kind, kind, load_error_detail, load_error_kind,
    ok_reply, translate_error_kind, GrammarRef, Request, Work, DEFAULT_MAX_FRAME_LEN,
};
use crate::stats::ServiceMetrics;
use crate::store::{CompiledGrammar, GrammarStore, StoreStats};

/// How to run the daemon.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind a Unix-domain socket here (a stale socket file is removed).
    pub unix_path: Option<PathBuf>,
    /// Bind a TCP listener here (e.g. `127.0.0.1:0` for an ephemeral
    /// port; keep it loopback — the protocol has no authentication).
    pub tcp_addr: Option<String>,
    /// Worker threads for translation jobs.
    pub workers: usize,
    /// Bounded job-queue capacity (the admission-control knob).
    pub queue_capacity: usize,
    /// Session-cache capacity, in compiled grammars.
    pub cache_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Longest accepted request line; longer ones get a typed
    /// `frame_too_large` reply and the connection is closed.
    pub max_frame_len: usize,
    /// Idle read deadline per connection: a client that stalls
    /// mid-request for this long gets a typed `idle_timeout` reply and
    /// its connection closed (a quietly idle connection is closed
    /// silently), so a slow-loris cannot pin connection threads
    /// forever. `None` disables the deadline.
    pub idle_timeout: Option<Duration>,
    /// Frontend analysis configuration used for every compile.
    pub config: Config,
    /// Execution-engine selection: interpreted (the default) or AOT. The
    /// AOT engine resolves its route at load time and caches it with the
    /// grammar; a grammar with no compiled evaluator degrades each job to
    /// the interpreter with a typed reason.
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            unix_path: None,
            tcp_addr: None,
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 16,
            default_deadline: None,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            idle_timeout: Some(Duration::from_secs(60)),
            config: Config::default(),
            engine: EngineConfig::default(),
        }
    }
}

/// Everything the connection threads and workers share.
pub struct ServiceState {
    store: GrammarStore,
    pool: WorkerPool,
    metrics: ServiceMetrics,
    funcs: Funcs,
    config: Config,
    engine: ExecEngine,
    default_deadline: Option<Duration>,
    max_frame_len: usize,
    net: Arc<Endpoints>,
}

impl ServiceState {
    /// Session-cache counters (the concurrency tests pin `analyses`
    /// against these).
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Has a shutdown been requested?
    pub fn is_shutting_down(&self) -> bool {
        self.net.is_stopping()
    }

    /// Begin a graceful drain from outside the protocol — the SIGTERM
    /// path. Stops the acceptors exactly like a `shutdown` request;
    /// in-flight jobs still finish and `ServerHandle::wait` returns.
    pub fn begin_drain(&self) {
        self.net.stop();
    }

    /// The execution engine (run counters for tests and stats).
    pub fn engine(&self) -> &ExecEngine {
        &self.engine
    }

    /// The engine to resolve loads against, when one is configured
    /// (interpreted services skip preparation entirely).
    fn exec(&self) -> Option<&ExecEngine> {
        (self.engine.config().kind != EngineKind::Interpreted).then_some(&self.engine)
    }
}

/// The daemon entry point; see the module docs.
pub enum Server {}

impl Server {
    /// Bind the configured listeners and start serving.
    ///
    /// # Errors
    ///
    /// Propagates bind failures; fails with `InvalidInput` when the
    /// configuration names no listener at all.
    pub fn start(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        let listeners =
            Listeners::bind("server", cfg.unix_path.as_deref(), cfg.tcp_addr.as_deref())?;
        let state = Arc::new(ServiceState {
            store: GrammarStore::new(cfg.cache_capacity),
            pool: WorkerPool::new(cfg.workers, cfg.queue_capacity),
            metrics: ServiceMetrics::new(),
            funcs: Funcs::standard(),
            config: cfg.config,
            engine: ExecEngine::new(cfg.engine),
            default_deadline: cfg.default_deadline,
            max_frame_len: cfg.max_frame_len,
            net: listeners.endpoints(),
        });
        let conn_state = Arc::clone(&state);
        let acceptors = listeners.spawn(cfg.idle_timeout, move |stream| {
            let state = &conn_state;
            session(
                stream,
                state.max_frame_len,
                |line| dispatch_line(line, state),
                |k| state.metrics.record_error(k),
                || state.begin_drain(),
            );
        })?;
        Ok(ServerHandle { state, acceptors })
    }
}

/// A running daemon. Dropping the handle without calling
/// [`wait`](ServerHandle::wait) or [`shutdown`](ServerHandle::shutdown)
/// stops the service.
pub struct ServerHandle {
    state: Arc<ServiceState>,
    acceptors: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound Unix socket path, if one was configured.
    pub fn unix_path(&self) -> Option<&Path> {
        self.state.net.unix_path.as_deref()
    }

    /// The bound TCP address, if one was configured (with the real
    /// port, even when the config asked for `:0`).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.state.net.tcp_addr
    }

    /// The shared service state (counters for tests and embedding).
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Block until the daemon stops (a `shutdown` request arrives),
    /// then drain the pool and clean up the socket file. Returns the
    /// pool's final counters, so a drain can be reported.
    pub fn wait(mut self) -> PoolStats {
        self.join_and_drain()
    }

    /// Stop the daemon from outside: unblock the acceptors, drain, and
    /// clean up.
    pub fn shutdown(mut self) -> PoolStats {
        self.state.begin_drain();
        self.join_and_drain()
    }

    fn join_and_drain(&mut self) -> PoolStats {
        for h in self.acceptors.drain(..) {
            let _unused = h.join();
        }
        self.state.pool.shutdown();
        let stats = self.state.pool.stats();
        if let Some(path) = &self.state.net.unix_path {
            let _unused = std::fs::remove_file(path);
        }
        stats
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.acceptors.is_empty() {
            self.state.begin_drain();
            let _stats = self.join_and_drain();
        }
    }
}

/// Parse and answer one request line. The bool says "shut down after
/// replying".
fn dispatch_line(line: &str, state: &Arc<ServiceState>) -> (Json, bool) {
    let parsed = match Json::parse(line) {
        Ok(j) => j,
        Err(e) => {
            state.metrics.record_error(kind::BAD_REQUEST);
            return (
                error_reply(kind::BAD_REQUEST, &format!("request is not JSON: {}", e)),
                false,
            );
        }
    };
    let request = match Request::parse(&parsed) {
        Ok(r) => r,
        Err(msg) => {
            state.metrics.record_error(kind::BAD_REQUEST);
            return (error_reply(kind::BAD_REQUEST, &msg), false);
        }
    };
    match request {
        Request::LoadGrammar {
            source,
            scanner,
            name,
        } => (
            handle_load(state, &source, scanner.as_deref(), name.as_deref()),
            false,
        ),
        Request::Translate {
            grammar,
            work,
            deadline_ms,
            fault,
        } => (
            handle_translate(state, &grammar, work, deadline_ms, fault),
            false,
        ),
        Request::TranslateBatch {
            grammar,
            jobs,
            deadline_ms,
        } => (handle_batch(state, &grammar, jobs, deadline_ms), false),
        Request::Check { grammar } => (handle_check(state, &grammar), false),
        Request::Ping => (ok_reply(vec![]), false),
        Request::Stats => {
            let mut fields = state.metrics.render(&state.store, &state.pool);
            let c = state.engine.counters();
            fields.push((
                "engine".to_string(),
                Json::Obj(vec![
                    (
                        "kind".to_string(),
                        Json::str(state.engine.config().kind.as_str()),
                    ),
                    ("aot_runs".to_string(), Json::int(c.aot_runs as i64)),
                    (
                        "interpreted_runs".to_string(),
                        Json::int(c.interpreted_runs as i64),
                    ),
                    ("fallbacks".to_string(), Json::int(c.fallbacks as i64)),
                ]),
            ));
            (ok_reply(fields), false)
        }
        Request::Shutdown => (ok_reply(vec![]), true),
    }
}

fn handle_load(
    state: &Arc<ServiceState>,
    source: &str,
    scanner: Option<&str>,
    name: Option<&str>,
) -> Json {
    state.metrics.loads.fetch_add(1, Ordering::Relaxed);
    match state
        .store
        .load_with_engine(source, scanner, name, &state.config, state.exec())
    {
        Ok((g, cached)) => ok_reply(vec![
            ("grammar".to_string(), Json::str(&g.key)),
            ("name".to_string(), Json::str(&g.name)),
            ("cached".to_string(), Json::Bool(cached)),
            ("passes".to_string(), Json::int(g.passes() as i64)),
            (
                "compile_ms".to_string(),
                Json::Num(g.compile_time.as_secs_f64() * 1e3),
            ),
            ("scanner".to_string(), Json::Bool(g.translator().is_some())),
        ]),
        Err(e) => {
            let k = load_error_kind(&e);
            state.metrics.record_error(k);
            error_reply_with(k, &e.to_string(), load_error_detail(&e))
        }
    }
}

/// Answer a `check` request: run the `AG0xx` lints and reply with
/// coded diagnostics.
///
/// A handle reuses the session cache outright — the compiled analysis
/// and its span tables were captured at load time, so no frontend
/// overlay runs again. Inline source goes through the cache the same
/// way (warm source is also free); only a source the frontend rejects
/// falls back to the degraded check driver, so the client still gets
/// located AG006/AG007/AG011/AG012 findings out of a broken grammar
/// instead of one opaque `compile` error.
fn handle_check(state: &Arc<ServiceState>, gref: &GrammarRef) -> Json {
    let lint_cfg = LintConfig {
        explain_residual_copies: !state.config.disable_subsumption,
        ..LintConfig::default()
    };
    let (handle, report) = match resolve(state, gref) {
        Ok(g) => {
            let report = CheckReport {
                findings: run_lints(g.analysis(), g.spans(), &lint_cfg),
                passes: Some(g.passes()),
            };
            (Some(g.key.clone()), report)
        }
        Err((k, reply)) => match gref {
            GrammarRef::Source { source, .. } if k == kind::COMPILE => {
                (None, check_source(source, &state.config, &lint_cfg))
            }
            _ => {
                state.metrics.record_error(k);
                return reply;
            }
        },
    };
    ok_reply(vec![
        (
            "grammar".to_string(),
            handle.map_or(Json::Null, |h| Json::str(&h)),
        ),
        ("errors".to_string(), Json::int(report.errors() as i64)),
        ("warnings".to_string(), Json::int(report.warnings() as i64)),
        ("notes".to_string(), Json::int(report.notes() as i64)),
        (
            "passes".to_string(),
            report.passes.map_or(Json::Null, |p| Json::int(p as i64)),
        ),
        (
            "diagnostics".to_string(),
            Json::Arr(report.findings.iter().map(Finding::to_json).collect()),
        ),
    ])
}

/// Resolve a request's grammar reference against the session cache.
/// The error is the finished reply (kind recorded by the caller via
/// the tuple's first field).
fn resolve(
    state: &Arc<ServiceState>,
    gref: &GrammarRef,
) -> Result<Arc<CompiledGrammar>, (&'static str, Json)> {
    match gref {
        GrammarRef::Handle(h) => state.store.get(h).ok_or_else(|| {
            (
                kind::GRAMMAR_NOT_FOUND,
                error_reply(
                    kind::GRAMMAR_NOT_FOUND,
                    &format!(
                        "no resident grammar has handle `{}` (evicted or never loaded)",
                        h
                    ),
                ),
            )
        }),
        GrammarRef::Source { source, scanner } => state
            .store
            .load_with_engine(
                source,
                scanner.as_deref(),
                None,
                &state.config,
                state.exec(),
            )
            .map(|(g, _cached)| g)
            .map_err(|e| {
                let k = load_error_kind(&e);
                (
                    k,
                    error_reply_with(k, &e.to_string(), load_error_detail(&e)),
                )
            }),
    }
}

/// Submit one translate job; on admission failure produce the typed
/// rejection immediately.
fn submit_job(
    state: &Arc<ServiceState>,
    grammar: Arc<CompiledGrammar>,
    work: Work,
    deadline: Option<Duration>,
    fault: Option<String>,
) -> Result<Receiver<Json>, Json> {
    let job_state = Arc::clone(state);
    match state.pool.submit(Box::new(move |waited| {
        run_job(
            &job_state,
            &grammar,
            &work,
            deadline,
            fault.as_deref(),
            waited,
        )
    })) {
        Ok(rx) => Ok(rx),
        Err(SubmitError::Overloaded) => {
            state.metrics.record_error(kind::OVERLOADED);
            Err(error_reply(
                kind::OVERLOADED,
                "job queue is full; retry after in-flight work drains",
            ))
        }
        Err(SubmitError::ShuttingDown) => Err(error_reply(
            kind::SHUTTING_DOWN,
            "the service is draining and accepts no new work",
        )),
    }
}

fn await_reply(rx: Receiver<Json>) -> Json {
    rx.recv().unwrap_or_else(|_| {
        error_reply(
            kind::SHUTTING_DOWN,
            "the service stopped before the job produced a reply",
        )
    })
}

fn handle_translate(
    state: &Arc<ServiceState>,
    gref: &GrammarRef,
    work: Work,
    deadline_ms: Option<u64>,
    fault: Option<String>,
) -> Json {
    let grammar = match resolve(state, gref) {
        Ok(g) => g,
        Err((k, reply)) => {
            state.metrics.record_error(k);
            return reply;
        }
    };
    let deadline = deadline_ms
        .map(Duration::from_millis)
        .or(state.default_deadline);
    match submit_job(state, grammar, work, deadline, fault) {
        Ok(rx) => await_reply(rx),
        Err(rejection) => rejection,
    }
}

/// Fan a batch out through the pool (each job is admitted separately,
/// so one oversized batch cannot starve other clients' admissions
/// beyond the shared queue bound), then collect replies in job order.
fn handle_batch(
    state: &Arc<ServiceState>,
    gref: &GrammarRef,
    jobs: Vec<Work>,
    deadline_ms: Option<u64>,
) -> Json {
    let grammar = match resolve(state, gref) {
        Ok(g) => g,
        Err((k, reply)) => {
            state.metrics.record_error(k);
            return reply;
        }
    };
    let deadline = deadline_ms
        .map(Duration::from_millis)
        .or(state.default_deadline);
    let pending: Vec<Result<Receiver<Json>, Json>> = jobs
        .into_iter()
        .map(|work| submit_job(state, Arc::clone(&grammar), work, deadline, None))
        .collect();
    let results: Vec<Json> = pending
        .into_iter()
        .map(|p| match p {
            Ok(rx) => await_reply(rx),
            Err(rejection) => rejection,
        })
        .collect();
    let failed = results
        .iter()
        .filter(|r| r.get("ok").and_then(Json::as_bool) != Some(true))
        .count();
    ok_reply(vec![
        ("jobs".to_string(), Json::int(results.len() as i64)),
        ("failed".to_string(), Json::int(failed as i64)),
        ("results".to_string(), Json::Arr(results)),
    ])
}

/// The worker-side body of one translate job.
fn run_job(
    state: &Arc<ServiceState>,
    grammar: &CompiledGrammar,
    work: &Work,
    deadline: Option<Duration>,
    fault: Option<&str>,
    waited: Duration,
) -> Json {
    // Deadlines include queue time: a job that waited its budget out
    // fails fast without touching the evaluator.
    let remaining = match deadline {
        Some(d) => match d.checked_sub(waited) {
            Some(r) if r > Duration::ZERO => Some(r),
            _ => {
                state.metrics.record_error("deadline");
                return error_reply(
                    "deadline",
                    &format!(
                        "job waited {:?} in the queue, past its {:?} deadline",
                        waited, d
                    ),
                );
            }
        },
        None => None,
    };
    if fault == Some("panic") {
        // Test support: exercises the pool's panic supervisor and the
        // typed `panicked` reply path end to end.
        panic!("injected fault: panic");
    }
    if fault == Some("stall") {
        // Test support: a deterministically slow job, for exercising
        // admission control and queue-wait deadline accounting.
        std::thread::sleep(Duration::from_millis(250));
    }
    let started = Instant::now();
    // The initial-file strategy must match the plan's first direction
    // (same rule as the profiler).
    let strategy = match grammar.analysis().passes.direction(1) {
        Direction::RightToLeft => Strategy::BottomUp,
        Direction::LeftToRight => Strategy::Prefix,
    };
    let opts = EvalOptions {
        strategy,
        deadline: remaining,
        // Daemon jobs are transient and run concurrently on the pool:
        // use the shared-nothing owned RAM store, not temp files.
        backing: Backing::Memory,
        ..EvalOptions::default()
    };
    // Obtain the parse tree: scan + parse for `input` work, synthesize
    // from the grammar for `budget` work. Splitting the tree from the
    // evaluation lets one code path below choose the engine.
    let tree: Result<PTree, (&'static str, String)> = match work {
        Work::Input(text) => match grammar.translator() {
            Some(t) => {
                let mut names = NameTable::new();
                t.parse_input(text, &standard_intrinsics, &mut names)
                    .map_err(|e| (translate_error_kind(&e), e.to_string()))
            }
            None => Err((
                kind::BAD_REQUEST,
                "grammar was loaded without a scanner; send `budget` instead of `input`"
                    .to_string(),
            )),
        },
        Work::Budget(n) => synthesize_tree(&grammar.analysis().grammar, (*n).max(1)).ok_or((
            kind::BAD_REQUEST,
            "no finite derivation exists for the start symbol".to_string(),
        )),
    };
    let mut engine_used = EngineKind::Interpreted;
    let mut engine_fallback = None;
    let result: Result<Evaluation, (&'static str, String)> = tree.and_then(|tree| {
        match grammar.prepared() {
            // The compiled route resolved at load time: run it, with
            // per-job degradation to the interpreter on any compiled-side
            // failure (the typed reason rides along in the reply).
            Some(p) => {
                let outcome =
                    state
                        .engine
                        .evaluate(p, grammar.analysis(), &state.funcs, &tree, &opts);
                engine_used = outcome.engine_used;
                engine_fallback = outcome.fallback;
                outcome
                    .result
                    .map_err(|e| (eval_error_kind(&e), e.to_string()))
            }
            None => evaluate(grammar.analysis(), &state.funcs, &tree, &opts)
                .map_err(|e| (eval_error_kind(&e), e.to_string())),
        }
    });
    let fallback_json = |r: &linguist_engine::FallbackReason| {
        Json::Obj(vec![
            ("kind".to_string(), Json::str(r.code())),
            ("detail".to_string(), Json::str(&r.detail())),
        ])
    };
    match result {
        Ok(eval) => {
            let wall = waited + started.elapsed();
            // Generated code does not count, so only interpreted runs
            // add to the daemon's record.
            let counted = engine_used == EngineKind::Interpreted;
            state
                .metrics
                .record_translate(wall, counted.then_some(&eval.stats));
            let outputs: Vec<(String, Json)> = eval
                .outputs
                .iter()
                .map(|(a, v)| {
                    (
                        grammar.analysis().grammar.attr_name(*a).to_string(),
                        Json::str(&v.to_string()),
                    )
                })
                .collect();
            let mut fields = vec![
                ("grammar".to_string(), Json::str(&grammar.key)),
                ("outputs".to_string(), Json::Obj(outputs)),
                (
                    "passes".to_string(),
                    Json::int(eval.stats.passes.len() as i64),
                ),
                ("engine".to_string(), Json::str(engine_used.as_str())),
                ("wall_ms".to_string(), Json::Num(wall.as_secs_f64() * 1e3)),
                (
                    "queue_ms".to_string(),
                    Json::Num(waited.as_secs_f64() * 1e3),
                ),
            ];
            // A degraded job still succeeds (the interpreter answered);
            // the typed reason is reported, and the engine's own
            // fallback counter tracks the rate for `stats`.
            if let Some(r) = &engine_fallback {
                fields.push(("engine_fallback".to_string(), fallback_json(r)));
            }
            ok_reply(fields)
        }
        Err((k, msg)) => {
            state.metrics.record_error(k);
            match &engine_fallback {
                // The job degraded to the interpreter *and* the
                // interpreter itself failed: the typed degradation
                // reason rides in the error detail.
                Some(r) => error_reply_with(
                    k,
                    &msg,
                    vec![("engine_fallback".to_string(), fallback_json(r))],
                ),
                None => error_reply(k, &msg),
            }
        }
    }
}
