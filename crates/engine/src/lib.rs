//! The compiled-evaluator execution engine.
//!
//! The paper's central claim is that LINGUIST *generates* an evaluator:
//! the production procedures in its code-size tables are compiled code.
//! This crate makes that true for the reproduction. Where `linguist-eval`
//! interprets per-pass plans at runtime, the engine runs the real Rust
//! evaluators emitted by `linguist_codegen::rustgen` through a two-rung
//! build ladder:
//!
//! * **AOT** — the five bundled grammars' generated evaluators, from
//!   the default (optimized) analysis, are checked in under
//!   `generated/` and built as ordinary workspace members. At runtime
//!   a grammar is matched to its AOT entry by the FNV-1a content hash
//!   of its *current* generated source (plus a full string compare), so
//!   any drift between the analysis and the checked-in artifact falls
//!   back instead of running stale code. AOT evaluation is an
//!   in-process function call.
//! * **JIT** — novel grammars are compiled on demand with a bare `rustc`
//!   subprocess into a cache directory keyed by the same content hash
//!   ([`jit::JitCache`]), then executed as a subprocess speaking the APT
//!   protocol (boundary-0 file on stdin, encoded outputs on stdout).
//!
//! Every rung degrades to the interpreter with a typed
//! [`FallbackReason`] — `rustc` missing, compilation failure, registry
//! miss, or a runtime error in compiled code — never a panic, and never
//! a silently different answer: on *any* compiled-side error the engine
//! re-runs the interpreter so callers observe exactly the interpreter's
//! result or error.
//!
//! The ABI between host and compiled code is the existing APT framing:
//! the host serializes the parse tree's boundary-0 file exactly as the
//! interpreter would read it, and receives the root's synthesized
//! attributes as `[attr u32 LE][value bytes]…` — byte-identical to
//! `differential::encoded_outputs` on the interpreter's result. That is
//! what lets the differential oracle police the engine.

pub mod jit;

use linguist_ag::analysis::Analysis;
use linguist_ag::ids::AttrId;
use linguist_ag::passes::Direction;
use linguist_codegen::rustgen;
use linguist_eval::funcs::Funcs;
use linguist_eval::machine::{evaluate, EvalError, EvalOptions, EvalStats, Evaluation, Strategy};
use linguist_eval::tree::PTree;
use linguist_eval::value::Value;
use linguist_eval::AptWriter;
use linguist_support::intern::Name;
use linguist_support::list::List;
use linguist_support::pfunc::PartialFn;
use linguist_support::set::LSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Which execution engine evaluates a grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The plan interpreter in `linguist-eval` (the default).
    #[default]
    Interpreted,
    /// Checked-in generated evaluator, linked into this process.
    CompiledAot,
    /// Generated evaluator compiled on demand by `rustc` and run as a
    /// subprocess.
    CompiledJit,
}

impl EngineKind {
    /// Stable lowercase token (CLI flag values, serve stats).
    pub fn as_str(&self) -> &'static str {
        match self {
            EngineKind::Interpreted => "interpreted",
            EngineKind::CompiledAot => "aot",
            EngineKind::CompiledJit => "jit",
        }
    }

    /// Parse a CLI/config token. Accepts the `as_str` forms plus a few
    /// obvious synonyms.
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s.to_ascii_lowercase().as_str() {
            "interpreted" | "interp" | "interpreter" => Some(EngineKind::Interpreted),
            "aot" | "compiled-aot" | "compiled" => Some(EngineKind::CompiledAot),
            "jit" | "compiled-jit" => Some(EngineKind::CompiledJit),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a compiled engine degraded to the interpreter.
///
/// Every fallback is typed so the serve tier can report
/// `engine_fallback` with a machine-readable code, and tests can assert
/// on the precise degradation path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// `rustc` is not on `PATH` (or failed the version probe).
    RustcUnavailable,
    /// `rustc` rejected the generated source; payload is (truncated)
    /// compiler stderr.
    CompileFailed(String),
    /// The grammar's generated source matches no checked-in AOT entry;
    /// payload is its content hash.
    AotMiss(String),
    /// Compiled code was built and invoked but errored (or panicked) at
    /// run time; the interpreter's answer is authoritative.
    RunFailed(String),
}

impl FallbackReason {
    /// Stable machine-readable code for serve error details.
    pub fn code(&self) -> &'static str {
        match self {
            FallbackReason::RustcUnavailable => "rustc_unavailable",
            FallbackReason::CompileFailed(_) => "compile_failed",
            FallbackReason::AotMiss(_) => "aot_miss",
            FallbackReason::RunFailed(_) => "run_failed",
        }
    }

    /// Human-readable detail.
    pub fn detail(&self) -> String {
        match self {
            FallbackReason::RustcUnavailable => "rustc not found on PATH".to_string(),
            FallbackReason::CompileFailed(e) => {
                format!("generated evaluator failed to compile: {}", e)
            }
            FallbackReason::AotMiss(h) => format!("no AOT evaluator for content hash {}", h),
            FallbackReason::RunFailed(e) => format!("compiled evaluator failed at run time: {}", e),
        }
    }
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code(), self.detail())
    }
}

/// Engine selection and build knobs.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Which engine to run.
    pub kind: EngineKind,
    /// Pass `-O` to on-demand `rustc` builds (slower compile, faster
    /// evaluator). Defaults to `false`: for typical grammars the
    /// evaluator is I/O-shaped enough that `-O` rarely pays back its
    /// compile time on first use.
    pub optimize: bool,
    /// On-demand build cache directory. Defaults to
    /// `$LINGUIST_JIT_CACHE` or `<temp>/linguist86-jit`.
    pub cache_dir: Option<PathBuf>,
}

/// Counter snapshot for stats reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Evaluations served by an in-process AOT evaluator.
    pub aot_runs: u64,
    /// Evaluations served by a JIT-compiled subprocess.
    pub jit_runs: u64,
    /// Evaluations served by the interpreter (selected or degraded).
    pub interpreted_runs: u64,
    /// Evaluations that degraded to the interpreter after a compiled
    /// engine was requested.
    pub fallbacks: u64,
    /// `rustc` invocations the JIT cache actually performed (cache hits
    /// don't count).
    pub jit_compiles: u64,
}

#[derive(Default)]
struct Counters {
    aot_runs: AtomicU64,
    jit_runs: AtomicU64,
    interpreted_runs: AtomicU64,
    fallbacks: AtomicU64,
}

/// A grammar resolved against the engine: where its evaluations will
/// actually run. Cache one per grammar (the serve tier keeps it
/// alongside the analysis) — preparing is where JIT compilation happens.
#[derive(Debug)]
pub struct PreparedEngine {
    requested: EngineKind,
    hash: String,
    route: Route,
}

#[derive(Debug)]
enum Route {
    Interpret,
    Aot(fn(&[u8]) -> Result<Vec<u8>, String>),
    Jit(PathBuf),
    Degraded(FallbackReason),
}

impl PreparedEngine {
    /// The engine the caller asked for.
    pub fn requested(&self) -> EngineKind {
        self.requested
    }

    /// The engine evaluations will actually use.
    pub fn effective(&self) -> EngineKind {
        match self.route {
            Route::Interpret | Route::Degraded(_) => EngineKind::Interpreted,
            Route::Aot(_) => EngineKind::CompiledAot,
            Route::Jit(_) => EngineKind::CompiledJit,
        }
    }

    /// Content hash of the grammar's generated source (empty for the
    /// interpreted route, which never generates).
    pub fn content_hash(&self) -> &str {
        &self.hash
    }

    /// The degradation recorded at prepare time, if any.
    pub fn fallback(&self) -> Option<&FallbackReason> {
        match &self.route {
            Route::Degraded(r) => Some(r),
            _ => None,
        }
    }
}

/// One evaluation's result plus which engine produced it.
#[derive(Debug)]
pub struct EngineOutcome {
    /// The evaluation result — identical to what the interpreter would
    /// return (on any compiled-side failure the interpreter *is* re-run
    /// and its result returned verbatim).
    pub result: Result<Evaluation, EvalError>,
    /// The engine that produced `result`.
    pub engine_used: EngineKind,
    /// Present when a compiled engine was requested but this evaluation
    /// came from the interpreter.
    pub fallback: Option<FallbackReason>,
}

/// The execution engine. Cheap to construct; holds the JIT build cache
/// and run counters. Share one per process (the serve tier keeps it in
/// the store).
pub struct Engine {
    config: EngineConfig,
    jit: jit::JitCache,
    counters: Counters,
}

impl Engine {
    /// Build an engine from `config`.
    pub fn new(config: EngineConfig) -> Engine {
        let dir = config
            .cache_dir
            .clone()
            .unwrap_or_else(jit::default_cache_dir);
        Engine {
            jit: jit::JitCache::new(dir, config.optimize),
            config,
            counters: Counters::default(),
        }
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The on-demand build cache (tests exercise it directly).
    pub fn jit_cache(&self) -> &jit::JitCache {
        &self.jit
    }

    /// Snapshot the run counters.
    pub fn counters(&self) -> EngineCounters {
        EngineCounters {
            aot_runs: self.counters.aot_runs.load(Ordering::Relaxed),
            jit_runs: self.counters.jit_runs.load(Ordering::Relaxed),
            interpreted_runs: self.counters.interpreted_runs.load(Ordering::Relaxed),
            fallbacks: self.counters.fallbacks.load(Ordering::Relaxed),
            jit_compiles: self.jit.compiles(),
        }
    }

    /// Resolve a grammar against the configured engine. For
    /// [`EngineKind::CompiledJit`] this is where compilation happens
    /// (content-hash cache hit ⇒ zero `rustc` invocations).
    pub fn prepare(&self, analysis: &Analysis) -> PreparedEngine {
        match self.config.kind {
            EngineKind::Interpreted => PreparedEngine {
                requested: EngineKind::Interpreted,
                hash: String::new(),
                route: Route::Interpret,
            },
            EngineKind::CompiledAot => {
                let source = rustgen::rust_source(analysis);
                let hash = rustgen::content_hash(source.as_bytes());
                let route = match aot_lookup(&hash, &source) {
                    Some(f) => Route::Aot(f),
                    None => Route::Degraded(FallbackReason::AotMiss(hash.clone())),
                };
                PreparedEngine {
                    requested: EngineKind::CompiledAot,
                    hash,
                    route,
                }
            }
            EngineKind::CompiledJit => {
                let source = rustgen::rust_source(analysis);
                self.prepare_jit_source(&source)
            }
        }
    }

    /// Prepare the JIT route from explicit generated source. Used by
    /// [`Engine::prepare`] and directly by tests that need to inject a
    /// deliberately broken source.
    pub fn prepare_jit_source(&self, source: &str) -> PreparedEngine {
        let hash = rustgen::content_hash(source.as_bytes());
        let route = match self.jit.ensure_built(&hash, source) {
            Ok(bin) => Route::Jit(bin),
            Err(reason) => Route::Degraded(reason),
        };
        PreparedEngine {
            requested: EngineKind::CompiledJit,
            hash,
            route,
        }
    }

    /// Evaluate `tree` through `prepared`.
    ///
    /// Compiled routes replicate the interpreter's pre-checks (tree
    /// validation, strategy compatibility) so front-door errors are
    /// *identical* `EvalError`s; any error beyond that point — compile
    /// artifacts misbehaving, subprocess death, a panic inside AOT code —
    /// degrades to a fresh interpreter run whose result is returned
    /// verbatim with [`EngineOutcome::fallback`] set.
    ///
    /// Compiled evaluations ignore interpreter-only instrumentation in
    /// `opts` (budget metering, fault injection, profiling); outputs are
    /// unaffected.
    pub fn evaluate(
        &self,
        prepared: &PreparedEngine,
        analysis: &Analysis,
        funcs: &Funcs,
        tree: &PTree,
        opts: &EvalOptions,
    ) -> EngineOutcome {
        match &prepared.route {
            Route::Interpret => self.interpret(analysis, funcs, tree, opts, None),
            Route::Degraded(reason) => {
                self.interpret(analysis, funcs, tree, opts, Some(reason.clone()))
            }
            Route::Aot(f) => {
                let input = match compiled_input(analysis, tree, opts) {
                    Ok(b) => b,
                    Err(e) => {
                        return EngineOutcome {
                            result: Err(e),
                            engine_used: EngineKind::CompiledAot,
                            fallback: None,
                        }
                    }
                };
                let f = *f;
                let run = catch_unwind(AssertUnwindSafe(|| f(&input)));
                match flatten_run(run) {
                    Ok(bytes) => self.compiled_success(
                        analysis,
                        funcs,
                        tree,
                        opts,
                        bytes,
                        EngineKind::CompiledAot,
                    ),
                    Err(msg) => self.interpret(
                        analysis,
                        funcs,
                        tree,
                        opts,
                        Some(FallbackReason::RunFailed(msg)),
                    ),
                }
            }
            Route::Jit(bin) => {
                let input = match compiled_input(analysis, tree, opts) {
                    Ok(b) => b,
                    Err(e) => {
                        return EngineOutcome {
                            result: Err(e),
                            engine_used: EngineKind::CompiledJit,
                            fallback: None,
                        }
                    }
                };
                match jit::run(bin, &input) {
                    Ok(bytes) => self.compiled_success(
                        analysis,
                        funcs,
                        tree,
                        opts,
                        bytes,
                        EngineKind::CompiledJit,
                    ),
                    Err(msg) => self.interpret(
                        analysis,
                        funcs,
                        tree,
                        opts,
                        Some(FallbackReason::RunFailed(msg)),
                    ),
                }
            }
        }
    }

    /// Raw compiled output bytes for a tree — the engine side of the
    /// differential oracle's fifth leg, byte-comparable against
    /// `encoded_outputs` of the interpreter's evaluation. Unlike
    /// [`Engine::evaluate`] this does *not* degrade: compiled-side
    /// errors surface as `Err` so divergence is visible.
    pub fn compiled_output_bytes(
        &self,
        prepared: &PreparedEngine,
        analysis: &Analysis,
        tree: &PTree,
        opts: &EvalOptions,
    ) -> Result<Vec<u8>, String> {
        let input = compiled_input(analysis, tree, opts).map_err(|e| e.to_string())?;
        match &prepared.route {
            Route::Interpret => Err("interpreted route has no compiled output".to_string()),
            Route::Degraded(reason) => Err(reason.to_string()),
            Route::Aot(f) => {
                let f = *f;
                flatten_run(catch_unwind(AssertUnwindSafe(|| f(&input))))
            }
            Route::Jit(bin) => jit::run(bin, &input),
        }
    }

    fn interpret(
        &self,
        analysis: &Analysis,
        funcs: &Funcs,
        tree: &PTree,
        opts: &EvalOptions,
        fallback: Option<FallbackReason>,
    ) -> EngineOutcome {
        self.counters
            .interpreted_runs
            .fetch_add(1, Ordering::Relaxed);
        if fallback.is_some() {
            self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        EngineOutcome {
            result: evaluate(analysis, funcs, tree, opts),
            engine_used: EngineKind::Interpreted,
            fallback,
        }
    }

    fn compiled_success(
        &self,
        analysis: &Analysis,
        funcs: &Funcs,
        tree: &PTree,
        opts: &EvalOptions,
        bytes: Vec<u8>,
        kind: EngineKind,
    ) -> EngineOutcome {
        match decode_outputs(&bytes) {
            Ok(outputs) => {
                match kind {
                    EngineKind::CompiledAot => {
                        self.counters.aot_runs.fetch_add(1, Ordering::Relaxed)
                    }
                    _ => self.counters.jit_runs.fetch_add(1, Ordering::Relaxed),
                };
                EngineOutcome {
                    result: Ok(Evaluation {
                        outputs,
                        stats: EvalStats::default(),
                        metrics: None,
                    }),
                    engine_used: kind,
                    fallback: None,
                }
            }
            Err(msg) => self.interpret(
                analysis,
                funcs,
                tree,
                opts,
                Some(FallbackReason::RunFailed(format!(
                    "output decode failed: {}",
                    msg
                ))),
            ),
        }
    }

    /// Adapt this engine into a [`BatchEvaluator`] backend: every batch
    /// job evaluates `prepared` through the usual degradation ladder, so
    /// a whole batch runs compiled with per-job interpreter fallback.
    /// The closure owns `Arc`s of the engine and the prepared route
    /// (batch workers outlive the submitting stack frame).
    ///
    /// [`BatchEvaluator`]: linguist_eval::batch::BatchEvaluator
    pub fn backend(
        self: &Arc<Engine>,
        prepared: Arc<PreparedEngine>,
    ) -> linguist_eval::EvalBackend {
        let engine = Arc::clone(self);
        Arc::new(move |analysis, funcs, tree, opts| {
            engine
                .evaluate(&prepared, analysis, funcs, tree, opts)
                .result
        })
    }
}

fn flatten_run(
    run: Result<Result<Vec<u8>, String>, Box<dyn std::any::Any + Send>>,
) -> Result<Vec<u8>, String> {
    match run {
        Ok(r) => r,
        Err(p) => {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Err(format!("compiled evaluator panicked: {}", msg))
        }
    }
}

/// The interpreter's front door, replicated: validate the tree, check
/// strategy/first-pass compatibility, then serialize boundary 0 exactly
/// as `PTree::write_postfix`/`write_prefix` would for the interpreter.
fn compiled_input(
    analysis: &Analysis,
    tree: &PTree,
    opts: &EvalOptions,
) -> Result<Vec<u8>, EvalError> {
    tree.validate(&analysis.grammar)?;
    if analysis.passes.num_passes() > 0 {
        let first = analysis.passes.direction(1);
        let ok = matches!(
            (opts.strategy, first),
            (Strategy::BottomUp, Direction::RightToLeft)
                | (Strategy::Prefix, Direction::LeftToRight)
        );
        if !ok {
            return Err(EvalError::StrategyMismatch {
                strategy: opts.strategy,
                first_direction: first,
            });
        }
    }
    let mut w = AptWriter::create_owned();
    match opts.strategy {
        Strategy::BottomUp => tree.write_postfix(&analysis.grammar, &analysis.lifetimes, &mut w)?,
        Strategy::Prefix => tree.write_prefix(&analysis.grammar, &analysis.lifetimes, &mut w)?,
    }
    let (_summary, bytes) = w.finish_owned()?;
    Ok(bytes)
}

/// Decode `[attr u32 LE][value]…` into interpreter-shaped outputs.
///
/// Mirrors `Value::decode` except for sets: the wire order is the
/// compiled evaluator's in-memory (newest-first) order, so membership is
/// rebuilt by folding `with` over the items *reversed* — the resulting
/// in-memory order matches the interpreter's, and re-encoding reproduces
/// the wire bytes exactly.
fn decode_outputs(bytes: &[u8]) -> Result<Vec<(AttrId, Value)>, String> {
    let mut pos = 0usize;
    let mut out = Vec::new();
    while pos < bytes.len() {
        if pos + 4 > bytes.len() {
            return Err(format!("truncated attribute id at byte {}", pos));
        }
        let attr = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("sized"));
        pos += 4;
        let v = decode_value(bytes, &mut pos)?;
        out.push((AttrId(attr), v));
    }
    Ok(out)
}

fn decode_value(buf: &[u8], pos: &mut usize) -> Result<Value, String> {
    let err = |at: usize| format!("malformed value at byte {}", at);
    let tag = *buf.get(*pos).ok_or_else(|| err(*pos))?;
    *pos += 1;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], String> {
        let s = buf.get(*pos..*pos + n).ok_or_else(|| err(*pos))?;
        *pos += n;
        Ok(s)
    };
    match tag {
        0 => {
            let b: [u8; 8] = take(pos, 8)?.try_into().expect("sized");
            Ok(Value::Int(i64::from_le_bytes(b)))
        }
        1 => Ok(Value::Bool(take(pos, 1)?[0] != 0)),
        2 => {
            let b: [u8; 4] = take(pos, 4)?.try_into().expect("sized");
            Ok(Value::Sym(Name::from_index(u32::from_le_bytes(b) as usize)))
        }
        3 => {
            let b: [u8; 4] = take(pos, 4)?.try_into().expect("sized");
            let n = u32::from_le_bytes(b) as usize;
            let bytes = take(pos, n)?;
            let s = std::str::from_utf8(bytes).map_err(|_| err(*pos))?;
            Ok(Value::str(s))
        }
        4 => {
            let b: [u8; 4] = take(pos, 4)?.try_into().expect("sized");
            let n = u32::from_le_bytes(b) as usize;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                items.push(decode_value(buf, pos)?);
            }
            Ok(Value::List(items.into_iter().collect::<List<Value>>()))
        }
        5 => {
            let b: [u8; 4] = take(pos, 4)?.try_into().expect("sized");
            let n = u32::from_le_bytes(b) as usize;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                items.push(decode_value(buf, pos)?);
            }
            let mut s = LSet::empty();
            for v in items.into_iter().rev() {
                s = s.with(v);
            }
            Ok(Value::Set(s))
        }
        6 => {
            let b: [u8; 4] = take(pos, 4)?.try_into().expect("sized");
            let n = u32::from_le_bytes(b) as usize;
            let mut pairs = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let k = decode_value(buf, pos)?;
                let v = decode_value(buf, pos)?;
                pairs.push((k, v));
            }
            let mut m = PartialFn::empty();
            for (k, v) in pairs.into_iter().rev() {
                m = m.bind(k, v);
            }
            Ok(Value::Map(m))
        }
        _ => Err(err(*pos - 1)),
    }
}

/// The compiled evaluator entry point: APT frame in, output frame out.
type AotFn = fn(&[u8]) -> Result<Vec<u8>, String>;

/// One checked-in ahead-of-time evaluator.
struct AotEntry {
    name: &'static str,
    source: &'static str,
    func: AotFn,
}

static AOT_ENTRIES: &[AotEntry] = &[
    // The five bundled grammars through the default (optimized)
    // analysis. A faithful `--opt=off` analysis generates different
    // source, finds no entry, and falls back to the interpreter with a
    // typed `aot_miss`.
    AotEntry {
        name: "calc_opt",
        source: include_str!("../generated/calc_opt/src/lib.rs"),
        func: linguist_aot_calc_opt::evaluate_apt,
    },
    AotEntry {
        name: "knuth_opt",
        source: include_str!("../generated/knuth_opt/src/lib.rs"),
        func: linguist_aot_knuth_opt::evaluate_apt,
    },
    AotEntry {
        name: "block_opt",
        source: include_str!("../generated/block_opt/src/lib.rs"),
        func: linguist_aot_block_opt::evaluate_apt,
    },
    AotEntry {
        name: "meta_opt",
        source: include_str!("../generated/meta_opt/src/lib.rs"),
        func: linguist_aot_meta_opt::evaluate_apt,
    },
    AotEntry {
        name: "pascal_opt",
        source: include_str!("../generated/pascal_opt/src/lib.rs"),
        func: linguist_aot_pascal_opt::evaluate_apt,
    },
];

fn aot_hashes() -> &'static Vec<String> {
    static HASHES: OnceLock<Vec<String>> = OnceLock::new();
    HASHES.get_or_init(|| {
        AOT_ENTRIES
            .iter()
            .map(|e| rustgen::content_hash(e.source.as_bytes()))
            .collect()
    })
}

fn aot_lookup(hash: &str, source: &str) -> Option<AotFn> {
    let hashes = aot_hashes();
    AOT_ENTRIES
        .iter()
        .zip(hashes.iter())
        // Hash match is the index; the full string compare guards
        // against collisions and half-regenerated trees.
        .find(|(e, h)| h.as_str() == hash && e.source == source)
        .map(|(e, _)| e.func)
}

/// The bundled AOT registry: `(grammar name, content hash)` per entry.
pub fn aot_registry() -> Vec<(&'static str, String)> {
    AOT_ENTRIES
        .iter()
        .zip(aot_hashes().iter())
        .map(|(e, h)| (e.name, h.clone()))
        .collect()
}
