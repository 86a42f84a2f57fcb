//! The compiled-evaluator execution engine.
//!
//! The paper's central claim is that LINGUIST *generates* an evaluator:
//! the production procedures in its code-size tables are compiled code.
//! This crate makes that true for the reproduction. Where `linguist-eval`
//! interprets per-pass plans at runtime, the engine runs the real Rust
//! evaluators emitted by `linguist_codegen::rustgen`, and those link
//! `linguist-eval` itself for values, APT framing and the standard
//! functions — one runtime, two ways to drive it:
//!
//! * **AOT** — the five bundled grammars' generated evaluators, from
//!   the default (optimized) analysis, are checked in under
//!   `generated/` and built as ordinary workspace members. At runtime
//!   a grammar is matched to its AOT entry by the FNV-1a content hash
//!   of its *current* generated source (plus a full string compare), so
//!   any drift between the analysis and the checked-in artifact falls
//!   back instead of running stale code. AOT evaluation is an
//!   in-process function call.
//! * **The interpreter** — everything else: the default engine, and the
//!   route every AOT miss or compiled-side failure degrades to.
//!
//! Every degradation carries a typed [`FallbackReason`] — registry miss
//! or a runtime error in compiled code — never a panic, and never a
//! silently different answer: on *any* compiled-side error the engine
//! re-runs the interpreter so callers observe exactly the interpreter's
//! result or error.
//!
//! The ABI between host and compiled code is the existing APT framing:
//! the host serializes the parse tree's boundary-0 file exactly as the
//! interpreter would read it, and receives the root's synthesized
//! attributes as the interpreter's own `(AttrId, Value)` pairs.

use linguist_ag::analysis::Analysis;
use linguist_ag::ids::AttrId;
use linguist_ag::passes::Direction;
use linguist_codegen::rustgen;
use linguist_eval::compiled::encode_outputs;
use linguist_eval::funcs::Funcs;
use linguist_eval::machine::{
    evaluate, EvalError, EvalOptions, EvalStats, Evaluation, PassStats, Strategy,
};
use linguist_eval::tree::PTree;
use linguist_eval::value::Value;
use linguist_eval::AptWriter;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
}

impl EngineKind {
    /// Stable lowercase token (CLI flag values, serve stats).
    pub fn as_str(&self) -> &'static str {
        match self {
            EngineKind::Interpreted => "interpreted",
            EngineKind::CompiledAot => "aot",
        }
    }

    /// Parse a CLI/config token. Accepts the `as_str` forms plus a few
    /// obvious synonyms.
    pub fn parse(s: &str) -> Option<EngineKind> {
        match s.to_ascii_lowercase().as_str() {
            "interpreted" | "interp" | "interpreter" => Some(EngineKind::Interpreted),
            "aot" | "compiled-aot" | "compiled" => Some(EngineKind::CompiledAot),
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
            FallbackReason::AotMiss(_) => "aot_miss",
            FallbackReason::RunFailed(_) => "run_failed",
        }
    }

    /// Human-readable detail.
    pub fn detail(&self) -> String {
        match self {
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

/// Engine selection.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Which engine to run.
    pub kind: EngineKind,
}

/// Counter snapshot for stats reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Evaluations served by an in-process AOT evaluator.
    pub aot_runs: u64,
    /// Evaluations served by the interpreter (selected or degraded).
    pub interpreted_runs: u64,
    /// Evaluations that degraded to the interpreter after a compiled
    /// engine was requested.
    pub fallbacks: u64,
}

#[derive(Default)]
struct Counters {
    aot_runs: AtomicU64,
    interpreted_runs: AtomicU64,
    fallbacks: AtomicU64,
}

/// A grammar resolved against the engine: where its evaluations will
/// actually run. Cache one per grammar (the serve tier keeps it
/// alongside the analysis) — preparing generates the grammar's source
/// and looks it up in the AOT registry.
#[derive(Debug)]
pub struct PreparedEngine {
    requested: EngineKind,
    hash: String,
    route: Route,
}

#[derive(Debug)]
enum Route {
    Interpret,
    Aot(AotFn),
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

/// The execution engine. Cheap to construct; holds the run counters.
/// Share one per process (the serve tier keeps it in the store).
pub struct Engine {
    config: EngineConfig,
    counters: Counters,
}

impl Engine {
    /// Build an engine from `config`.
    pub fn new(config: EngineConfig) -> Engine {
        Engine {
            config,
            counters: Counters::default(),
        }
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Snapshot the run counters.
    pub fn counters(&self) -> EngineCounters {
        EngineCounters {
            aot_runs: self.counters.aot_runs.load(Ordering::Relaxed),
            interpreted_runs: self.counters.interpreted_runs.load(Ordering::Relaxed),
            fallbacks: self.counters.fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Resolve a grammar against the configured engine: for
    /// [`EngineKind::CompiledAot`], generate its source and look the
    /// content hash up in the AOT registry.
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
        }
    }

    /// Evaluate `tree` through `prepared`.
    ///
    /// Compiled routes replicate the interpreter's pre-checks (tree
    /// validation, strategy compatibility) so front-door errors are
    /// *identical* `EvalError`s; any error beyond that point — including
    /// a panic inside AOT code — degrades to a fresh interpreter run
    /// whose result is returned verbatim with [`EngineOutcome::fallback`]
    /// set.
    ///
    /// A compiled evaluation's [`EvalStats`] holds the boundary-0 totals
    /// and one row per pass, numbered and with its read direction, whose
    /// counts are zero: generated code does not count. It ignores the
    /// interpreter-only options in `opts` (budget metering, fault
    /// injection); outputs are unaffected.
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
                let (input, stats) = match compiled_input(analysis, tree, opts) {
                    Ok(i) => i,
                    Err(e) => {
                        return EngineOutcome {
                            result: Err(e),
                            engine_used: EngineKind::CompiledAot,
                            fallback: None,
                        }
                    }
                };
                match run_aot(*f, &input) {
                    Ok(outputs) => {
                        self.counters.aot_runs.fetch_add(1, Ordering::Relaxed);
                        EngineOutcome {
                            result: Ok(Evaluation { outputs, stats }),
                            engine_used: EngineKind::CompiledAot,
                            fallback: None,
                        }
                    }
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

    /// Compiled output bytes for a tree, encoded as
    /// [`encode_outputs`] — byte-comparable against `encoded_outputs` of
    /// the interpreter's evaluation. Unlike
    /// [`Engine::evaluate`] this does *not* degrade: compiled-side
    /// errors surface as `Err` so divergence is visible.
    pub fn compiled_output_bytes(
        &self,
        prepared: &PreparedEngine,
        analysis: &Analysis,
        tree: &PTree,
        opts: &EvalOptions,
    ) -> Result<Vec<u8>, String> {
        let (input, _) = compiled_input(analysis, tree, opts).map_err(|e| e.to_string())?;
        match &prepared.route {
            Route::Interpret => Err("interpreted route has no compiled output".to_string()),
            Route::Degraded(reason) => Err(reason.to_string()),
            Route::Aot(f) => run_aot(*f, &input).map(|outputs| encode_outputs(&outputs)),
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

/// Call a compiled evaluator, turning its error or panic into a message.
fn run_aot(f: AotFn, input: &[u8]) -> Result<Vec<(AttrId, Value)>, String> {
    match catch_unwind(AssertUnwindSafe(|| f(input))) {
        Ok(r) => r.map_err(|e| e.to_string()),
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
/// Returns the file with the compiled run's record: boundary 0's totals
/// and a zero-count row per pass.
fn compiled_input(
    analysis: &Analysis,
    tree: &PTree,
    opts: &EvalOptions,
) -> Result<(Vec<u8>, EvalStats), EvalError> {
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
    let (summary, bytes) = w.finish_owned()?;
    let stats = EvalStats {
        initial_records: summary.records,
        initial_bytes: summary.bytes,
        passes: (1..=analysis.passes.num_passes() as u16)
            .map(|k| PassStats::new(k, opts.strategy.read_dir(k)))
            .collect(),
        ..EvalStats::default()
    };
    Ok((bytes, stats))
}

/// The compiled evaluator entry point: boundary-0 APT file in, root
/// outputs out.
type AotFn = fn(&[u8]) -> Result<Vec<(AttrId, Value)>, EvalError>;

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
