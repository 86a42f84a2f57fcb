//! The overlay driver (§V).
//!
//! "LINGUIST-86 is an overlayed, pass-structured program consisting of
//! seven overlays and six passes":
//!
//! 1. scan and parse the input (build the name table, emit the
//!    right-parse, collect syntactic errors);
//! 2. (and 3.) semantic analysis: build the dictionary of symbols,
//!    attributes and semantic functions; insert implicit copy-rules;
//!    check completeness;
//! 4. analyze attribute dependencies for alternating-pass evaluability
//!    (plus non-circularity, lifetimes, and static subsumption);
//! 5. collect the sequence of semantic messages;
//! 6. create the listing file;
//! 7. generate one pass of the output evaluator — "rerun once for each
//!    pass of the output evaluator".
//!
//! Each overlay is timed individually so the §V timing table (E10) can be
//! regenerated.

use crate::lang::{parse, SyntaxError};
use crate::listing::render_listing;
use crate::lower::{lower_with_spans, LowerError};
use linguist_ag::analysis::{Analysis, AnalysisError, Config};
use linguist_ag::check::check_completeness;
use linguist_ag::circularity::check_noncircular;
use linguist_ag::implicit::insert_implicit_copies;
use linguist_ag::lifetime::Lifetimes;
use linguist_ag::lint::{run_lints, LintConfig, SpanMap};
use linguist_ag::passes::assign_passes;
use linguist_ag::plan::build_plans;
use linguist_ag::stats::GrammarStats;
use linguist_ag::subsumption::Subsumption;
use linguist_codegen::{GeneratedEvaluator, GeneratedPass, Target};
pub use linguist_engine::EngineKind;
use linguist_support::diag::Diagnostics;
use linguist_support::pos::Span;
use std::fmt;
use std::time::{Duration, Instant};

/// Per-overlay wall-clock times, matching the §V table rows.
#[derive(Clone, Debug, Default)]
pub struct OverlayTimings {
    /// Overlay 1: scanner + parser.
    pub parser: Duration,
    /// Overlay 2: first semantic-analysis pass (dictionary building).
    pub semantic1: Duration,
    /// Overlay 3: second semantic-analysis pass (implicit copies,
    /// completeness).
    pub semantic2: Duration,
    /// Overlay 4: evaluability test (circularity, passes, lifetimes,
    /// subsumption).
    pub evaluability: Duration,
    /// The part of `evaluability` spent in the non-circularity test (both
    /// runs, before and after the optimizer); not counted again in
    /// [`OverlayTimings::total`].
    pub circularity: Duration,
    /// Overlay 5: semantic-message collection.
    pub messages: Duration,
    /// Overlay 6: listing generation.
    pub listing: Duration,
    /// Overlay 7, run once per output pass: evaluator generation.
    pub generation: Vec<Duration>,
}

impl OverlayTimings {
    /// Total time, the paper's TOTAL row.
    pub fn total(&self) -> Duration {
        self.parser
            + self.semantic1
            + self.semantic2
            + self.evaluability
            + self.messages
            + self.listing
            + self.generation.iter().sum::<Duration>()
    }

    /// Total excluding generation — the paper excludes the
    /// production-procedure generation time from its lines-per-minute
    /// figure "because it will depend directly on the number of passes".
    pub fn total_excluding_generation(&self) -> Duration {
        self.parser
            + self.semantic1
            + self.semantic2
            + self.evaluability
            + self.messages
            + self.listing
    }
}

impl fmt::Display for OverlayTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "          parser overlay - {:?}", self.parser)?;
        writeln!(f, " first attrib eval overlay - {:?}", self.semantic1)?;
        writeln!(f, "second attrib eval overlay - {:?}", self.semantic2)?;
        writeln!(f, " evaluability test overlay - {:?}", self.evaluability)?;
        writeln!(f, "      of which circularity - {:?}", self.circularity)?;
        writeln!(f, "  message collection overlay - {:?}", self.messages)?;
        writeln!(f, "listing generation overlay - {:?}", self.listing)?;
        for (i, g) in self.generation.iter().enumerate() {
            writeln!(f, "  evaluator gen (pass {}) - {:?}", i + 1, g)?;
        }
        write!(f, "                     TOTAL - {:?}", self.total())
    }
}

/// Options for a driver run.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriverOptions {
    /// Analysis configuration (first direction, subsumption settings…).
    pub config: Config,
    /// Code-generation target.
    pub target: Option<TargetOpt>,
    /// Which execution engine downstream evaluation should use. The
    /// overlays themselves never evaluate, so this field only selects
    /// behavior for the layers that do: the `--profile` report and the
    /// serve tier read it off the options the CLI threaded through.
    pub engine: EngineKind,
}

/// Wrapper so [`DriverOptions`] can derive `Default` (Pascal by default).
#[derive(Clone, Copy, Debug)]
pub enum TargetOpt {
    /// Pascal-like output.
    Pascal,
    /// Rust-like output.
    Rust,
}

/// Everything a successful run produces.
#[derive(Debug)]
pub struct DriverOutput {
    /// The analyzed grammar.
    pub analysis: Analysis,
    /// The overlay-6 listing file.
    pub listing: String,
    /// The overlay-7 generated evaluator.
    pub generated: GeneratedEvaluator,
    /// Per-overlay times.
    pub timings: OverlayTimings,
    /// The §IV statistics row.
    pub stats: GrammarStats,
    /// Source lines processed (for lines-per-minute).
    pub source_lines: usize,
}

impl DriverOutput {
    /// Lines per minute excluding generation time, the paper's throughput
    /// metric.
    pub fn lines_per_minute(&self) -> f64 {
        let secs = self.timings.total_excluding_generation().as_secs_f64();
        if secs == 0.0 {
            f64::INFINITY
        } else {
            self.source_lines as f64 * 60.0 / secs
        }
    }
}

/// A driver failure, tagged with the overlay that detected it.
#[derive(Debug)]
pub enum DriverError {
    /// Overlay 1 rejected the input.
    Syntax(SyntaxError),
    /// Overlays 2–3 rejected the input.
    Lower(Vec<LowerError>),
    /// Overlays 3–4 rejected the grammar.
    Analysis(AnalysisError),
    /// The pipeline panicked mid-overlay; caught by the batch
    /// supervisor so one poisoned source cannot kill its siblings.
    Panicked(String),
}

impl DriverError {
    /// Stable machine-readable name for the failing stage. Service
    /// layers attach this to typed error replies so clients can tell a
    /// grammar they must fix (`syntax`/`lower`/`analysis`) from a
    /// toolchain defect (`panicked`) without parsing prose.
    pub fn kind(&self) -> &'static str {
        match self {
            DriverError::Syntax(_) => "syntax",
            DriverError::Lower(_) => "lower",
            DriverError::Analysis(_) => "analysis",
            DriverError::Panicked(_) => "panicked",
        }
    }
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Syntax(e) => write!(f, "{}", e),
            DriverError::Lower(errs) => {
                writeln!(f, "{} semantic error(s):", errs.len())?;
                for e in errs {
                    writeln!(f, "  {}", e)?;
                }
                Ok(())
            }
            DriverError::Analysis(e) => write!(f, "{}", e),
            DriverError::Panicked(msg) => write!(f, "pipeline panicked: {}", msg),
        }
    }
}

impl std::error::Error for DriverError {}

/// Run overlays 1–4 only: scan/parse, lower, implicit copies +
/// completeness, evaluability. This is the *analysis* half of [`run`] —
/// everything needed to evaluate APTs against the grammar, with none of
/// the listing/codegen products. `linguist-serve` compiles grammars
/// through this entry point once per session-cache miss; anything else
/// that already holds source text in memory can call it without paying
/// for overlays 5–7.
///
/// # Errors
///
/// See [`DriverError`]; the failing overlay aborts the run.
pub fn analyze(source: &str, config: &Config) -> Result<Analysis, DriverError> {
    analyze_timed(source, config).map(|(analysis, _, _)| analysis)
}

/// [`analyze`] plus the source-span tables the lint layer needs to turn
/// dense ids back into source positions. `linguist-serve` compiles
/// through this entry point so a cached grammar can answer `check`
/// requests without re-running any overlay.
///
/// # Errors
///
/// See [`DriverError`].
pub fn analyze_with_spans(
    source: &str,
    config: &Config,
) -> Result<(Analysis, SpanMap), DriverError> {
    analyze_timed(source, config).map(|(analysis, spans, _)| (analysis, spans))
}

/// [`analyze`] plus spans plus per-overlay wall-clock times (overlay 5–7
/// fields are left zeroed for [`run`] to fill).
fn analyze_timed(
    source: &str,
    config: &Config,
) -> Result<(Analysis, SpanMap, OverlayTimings), DriverError> {
    let mut timings = OverlayTimings::default();

    // Overlay 1: scan + parse.
    let t = Instant::now();
    let file = match parse(source) {
        Ok(f) => f,
        Err(e) => {
            return Err(DriverError::Syntax(e));
        }
    };
    timings.parser = t.elapsed();

    // Overlay 2: dictionary building (lowering).
    let t = Instant::now();
    let (mut grammar, mut spans) = lower_with_spans(&file).map_err(DriverError::Lower)?;
    timings.semantic1 = t.elapsed();

    // Overlay 3: implicit copy-rules + completeness.
    let t = Instant::now();
    let implicit = if config.skip_implicit {
        linguist_ag::implicit::ImplicitStats::default()
    } else {
        insert_implicit_copies(&mut grammar)
    };
    check_completeness(&grammar).map_err(|e| DriverError::Analysis(AnalysisError::Check(e)))?;
    timings.semantic2 = t.elapsed();

    // Overlay 4: evaluability.
    let t = Instant::now();
    let circular = |g: &linguist_ag::Grammar, spent: &mut Duration| {
        let t = Instant::now();
        let io = check_noncircular(g);
        *spent += t.elapsed();
        io.map_err(|e| DriverError::Analysis(AnalysisError::Circular(e)))
    };
    let mut io = circular(&grammar, &mut timings.circularity)?;
    // Grammar optimizer: rewrite before any scheduling so pass
    // assignment, lifetimes, and subsumption all see the smaller rule
    // set. Runs only on grammars that already passed completeness and
    // circularity; its transforms only remove dependency edges.
    let opt = if config.optimize {
        let report = linguist_ag::dataflow::optimize(&mut grammar);
        spans.remap_rules(&report.rule_remap);
        io = circular(&grammar, &mut timings.circularity)?;
        Some(report)
    } else {
        None
    };
    let passes = assign_passes(&grammar, &config.pass)
        .map_err(|e| DriverError::Analysis(AnalysisError::Pass(e)))?;
    let mut lifetimes = Lifetimes::compute(&grammar, &passes);
    if config.optimize {
        lifetimes.enable_record_elision();
    }
    let subsumption = if config.disable_subsumption {
        Subsumption::disabled(&grammar)
    } else {
        Subsumption::compute(&grammar, config.group_mode, config.costs, Some(&passes))
    };
    let plans = build_plans(&grammar, &passes)
        .map_err(|e| DriverError::Analysis(AnalysisError::Plan(e)))?;
    let analysis = Analysis {
        grammar,
        implicit,
        io,
        passes,
        lifetimes,
        subsumption,
        plans,
        opt,
    };
    timings.evaluability = t.elapsed();
    Ok((analysis, spans, timings))
}

/// Run the full seven-overlay pipeline on LINGUIST source text.
///
/// # Errors
///
/// See [`DriverError`]; the failing overlay aborts the run, as in the
/// original (a grammar with syntax errors never reaches evaluator
/// generation).
pub fn run(source: &str, opts: &DriverOptions) -> Result<DriverOutput, DriverError> {
    let (analysis, spans, mut timings) = analyze_timed(source, &opts.config)?;
    let mut diags = Diagnostics::new();

    // Overlay 5: message collection — the coded lint findings plus the
    // classic summary notes, interleaved with source lines by overlay 6.
    let t = Instant::now();
    let lint_cfg = LintConfig {
        explain_residual_copies: !opts.config.disable_subsumption,
        ..LintConfig::default()
    };
    for finding in run_lints(&analysis, &spans, &lint_cfg) {
        diags.push(finding.to_diagnostic());
    }
    if analysis.implicit.total() > 0 {
        diags.note(
            Span::default(),
            5,
            format!("{} implicit copy-rules inserted", analysis.implicit.total()),
        );
    }
    let sub_stats = analysis.subsumption.stats(&analysis.grammar);
    if sub_stats.subsumed_rules > 0 {
        diags.note(
            Span::default(),
            5,
            format!(
                "static subsumption eliminated {} of {} copy-rules",
                sub_stats.subsumed_rules, sub_stats.copy_rules
            ),
        );
    }
    timings.messages = t.elapsed();

    // Overlay 6: listing generation.
    let t = Instant::now();
    let listing = render_listing(source, &analysis, &diags);
    timings.listing = t.elapsed();

    // Overlay 7: evaluator generation, rerun once per pass.
    let target = match opts.target {
        Some(TargetOpt::Rust) => Target::Rust,
        _ => Target::Pascal,
    };
    let mut passes_src: Vec<GeneratedPass> = Vec::new();
    for k in 1..=analysis.passes.num_passes() as u16 {
        let t = Instant::now();
        passes_src.push(linguist_codegen::generate_pass(&analysis, k, target));
        timings.generation.push(t.elapsed());
    }
    let generated = GeneratedEvaluator {
        passes: passes_src,
        globals_decl: linguist_codegen::generate_globals(&analysis, target),
        target,
    };

    let stats = analysis.stats();
    Ok(DriverOutput {
        analysis,
        listing,
        generated,
        timings,
        stats,
        source_lines: source.lines().count(),
    })
}

/// Aggregate measurements of a [`run_batch`] call.
#[derive(Clone, Debug, Default)]
pub struct BatchRunStats {
    /// Grammars submitted.
    pub jobs: usize,
    /// Grammars rejected by some overlay.
    pub failed: usize,
    /// Of the failures, how many were caught panics rather than typed
    /// overlay diagnostics.
    pub panicked: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Total source lines across successful runs.
    pub source_lines: usize,
}

impl BatchRunStats {
    /// Grammars processed per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.jobs as f64 / self.wall.as_secs_f64()
    }
}

/// Run the seven-overlay pipeline over many independent grammar sources
/// in parallel on `workers` threads (clamped to at least 1).
///
/// Each source gets the full [`run`] treatment with its own overlay
/// timings; results come back in input order. A source that fails keeps
/// its [`DriverError`] in its slot without disturbing the others — batch
/// compilation of a broken file set still reports every diagnostic.
pub fn run_batch(
    sources: &[&str],
    opts: &DriverOptions,
    workers: usize,
) -> (Vec<Result<DriverOutput, DriverError>>, BatchRunStats) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    let started = Instant::now();
    let n = sources.len();
    let pool = workers.max(1).min(n.max(1));
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<DriverOutput, DriverError>)>();

    let results = std::thread::scope(|scope| {
        for _ in 0..pool {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // Panic isolation: a source that crashes an overlay
                // reports a typed `Panicked` error instead of unwinding
                // the worker and starving every slot it would have fed.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run(sources[i], opts)
                }))
                .unwrap_or_else(|payload| {
                    Err(DriverError::Panicked(linguist_eval::batch::panic_message(
                        payload,
                    )))
                });
                if tx.send((i, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        let mut slots: Vec<Option<Result<DriverOutput, DriverError>>> =
            (0..n).map(|_| None).collect();
        for (i, result) in rx {
            slots[i] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    Err(DriverError::Panicked(
                        "worker died without reporting a result".to_owned(),
                    ))
                })
            })
            .collect::<Vec<_>>()
    });

    let mut stats = BatchRunStats {
        jobs: n,
        workers: pool,
        wall: started.elapsed(),
        ..BatchRunStats::default()
    };
    for r in &results {
        match r {
            Ok(out) => stats.source_lines += out.source_lines,
            Err(e) => {
                stats.failed += 1;
                if matches!(e, DriverError::Panicked(_)) {
                    stats.panicked += 1;
                }
            }
        }
    }
    (results, stats)
}
