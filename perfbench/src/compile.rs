//! `compile`: the translator-writing system itself. One unit compiles
//! one grammar source the way the CLI does by default (all seven
//! overlays with the optimizer and subsumption on), builds its LALR
//! tables and generates its Rust evaluator.
//!
//! The compile set is the five bundled grammars plus seeded list
//! grammars from `synth::generate` whose sizes span about 100 to 900
//! source lines. A bundled grammar must hash to its checked-in `*_opt`
//! evaluator; a synthetic grammar must hash the same as when set-up
//! compiled it.

use crate::harness::{self, Outcome, RunCfg, Unit};
use crate::inputs::{self, Rng};
use crate::trace::{Tracer, UNIT};
use linguist_ag::analysis::Analysis;
use linguist_ag::check::check_completeness;
use linguist_ag::circularity::check_noncircular;
use linguist_ag::implicit::insert_implicit_copies;
use linguist_ag::lifetime::Lifetimes;
use linguist_ag::lint::{run_lints, LintConfig};
use linguist_ag::passes::assign_passes;
use linguist_ag::plan::build_plans;
use linguist_ag::subsumption::Subsumption;
use linguist_codegen::rustgen;
use linguist_codegen::Target;
use linguist_frontend::driver::run;
use linguist_frontend::listing::render_listing;
use linguist_frontend::{lower_with_spans, parse, UserParser};
use linguist_support::diag::Diagnostics;
use linguist_support::json::Json;
use linguist_support::pos::Span;
use std::time::{Duration, Instant};

/// Synthetic grammars per compile set, and their size range in
/// inherited context attributes (each has about twice as many
/// productions).
const SYNTHETIC: usize = 20;
const INHERITED: (usize, usize) = (6, 26);

struct Source {
    name: String,
    text: String,
    /// Content hash of the generated Rust evaluator.
    reference: String,
}

/// One untraced unit: the generated Rust evaluator's source.
fn compile(source: &str) -> Result<String, String> {
    let out = run(source, &harness::cli_options()).map_err(|e| e.to_string())?;
    UserParser::build(&out.analysis.grammar).map_err(|e| e.to_string())?;
    Ok(rustgen::rust_source(&out.analysis))
}

fn setup(seed: u64) -> Result<Vec<Source>, String> {
    let registry = linguist_engine::aot_registry();
    let mut set = Vec::new();
    for name in inputs::BUNDLED {
        let (text, _) = inputs::bundled(name);
        let key = format!("{}_opt", name);
        let reference = registry
            .iter()
            .find(|(n, _)| *n == key)
            .map(|(_, h)| h.clone())
            .ok_or_else(|| format!("no checked-in evaluator named {}", key))?;
        set.push(Source {
            name: name.to_string(),
            text: text.to_string(),
            reference,
        });
    }
    let mut rng = Rng::new(seed, "compile");
    for i in 0..SYNTHETIC {
        let inherited = inputs::ladder(i, SYNTHETIC, INHERITED.0, INHERITED.1);
        let productions = 2 * inherited;
        let text = inputs::synth_source(&mut rng, inherited, productions);
        let first = compile(&text).map_err(|e| format!("synthetic grammar {}: {}", i, e))?;
        set.push(Source {
            name: format!("synth{}x{}", inherited, productions),
            text,
            reference: rustgen::content_hash(first.as_bytes()),
        });
    }
    Ok(set)
}

fn unit(src: &Source, reference: &str) -> Unit {
    let t = Instant::now();
    let result = compile(&src.text);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let ok = match result {
        Ok(rust) => rustgen::content_hash(rust.as_bytes()) == reference,
        Err(e) => {
            eprintln!("compile {}: {}", src.name, e);
            false
        }
    };
    Unit {
        ms,
        bytes: src.text.len(),
        ok,
    }
}

pub fn run_workload(cfg: &RunCfg) -> Result<Outcome, String> {
    let (set, mut setup_times) = harness::timed_setup(|| setup(cfg.seed))?;
    let mut out = Outcome::default();
    let bad = String::from_utf8_lossy(&harness::corrupt(set[0].reference.as_bytes())).into_owned();
    harness::gate_self_test("compile", unit(&set[0], &bad))?;

    if !cfg.trace {
        let budget = Duration::from_secs_f64(cfg.seconds);
        let mut l = harness::cycles(
            set.len(),
            budget,
            &mut setup_times,
            || setup(cfg.seed),
            |i| unit(&set[i], &set[i].reference),
        )?;
        harness::end_to_end(&mut out, &mut setup_times, &mut l)?;
        let lines: usize = set.iter().map(|s| s.text.lines().count()).sum();
        let lines_per_s = lines as f64 / (l.best_ms().sum() / 1e3);
        out.extra("lines_per_s", Json::Num(lines_per_s));
        out.extra("grammars", Json::int(set.len() as i64));
        return Ok(out);
    }

    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut next_unit = 0u64;
    let (baseline, traced) = harness::alternating(
        set.len(),
        Duration::from_secs_f64(cfg.seconds),
        |i| unit(&set[i], &set[i].reference),
        |i| {
            next_unit += 1;
            traced_unit(&set[i], &mut tracer, next_unit, &mut counts)
        },
    );
    out.count(&baseline);
    out.count(&traced);
    let summary = tracer.summary();
    for layer in [
        "frontend.lang",
        "frontend.lower",
        "frontend.listing",
        "ag.implicit",
        "ag.circularity",
        "ag.dataflow",
        "ag.passes",
        "ag.lifetime",
        "ag.subsumption",
        "ag.plan",
        "ag.lint",
        "codegen.generate",
        "codegen.rustgen",
        "lalr.table",
    ] {
        out.metric(format!("{}_ms", layer), summary.ms_per_unit(layer));
    }
    let units = traced.attempted.max(1) as f64;
    for (name, total) in [
        ("frontend.lang.lines", counts.lines),
        ("ag.implicit.rules", counts.implicit_rules),
        ("ag.dataflow.rewrites", counts.rewrites),
        ("ag.passes.count", counts.passes),
        ("ag.subsumption.subsumed", counts.subsumed),
        ("ag.lint.findings", counts.findings),
        ("codegen.rustgen.bytes", counts.rust_bytes),
        ("lalr.table.states", counts.states),
    ] {
        out.metric(name, total as f64 / units);
    }
    harness::trace_metrics(
        &mut out,
        &summary,
        baseline.ms_per_unit(),
        traced.ms_per_unit(),
    )?;
    out.tracer = Some(tracer);
    Ok(out)
}

/// Work counts summed over the traced units.
#[derive(Default)]
struct Counts {
    lines: u64,
    implicit_rules: u64,
    rewrites: u64,
    passes: u64,
    subsumed: u64,
    findings: u64,
    rust_bytes: u64,
    states: u64,
}

/// One compile unit, split into the calls `driver::run` makes, with a
/// span around each layer call.
fn traced_unit(src: &Source, t: &mut Tracer, u: u64, counts: &mut Counts) -> Unit {
    let started = Instant::now();
    let root = t.begin(UNIT, None, u);
    let result = traced_compile(&src.text, t, root, u, counts);
    t.end(root);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let ok = match result {
        Ok(rust) => rustgen::content_hash(rust.as_bytes()) == src.reference,
        Err(e) => {
            eprintln!("traced compile {}: {}", src.name, e);
            false
        }
    };
    Unit {
        ms,
        bytes: src.text.len(),
        ok,
    }
}

fn traced_compile(
    source: &str,
    t: &mut Tracer,
    root: crate::trace::SpanId,
    u: u64,
    counts: &mut Counts,
) -> Result<String, String> {
    let config = harness::cli_options().config;
    let p = Some(root);

    let s = t.begin("frontend.lang", p, u);
    let file = parse(source).map_err(|e| e.to_string())?;
    t.end(s);
    counts.lines += source.lines().count() as u64;

    let s = t.begin("frontend.lower", p, u);
    let (mut grammar, mut spans) = lower_with_spans(&file).map_err(|e| format!("{:?}", e))?;
    t.end(s);

    let s = t.begin("ag.implicit", p, u);
    let implicit = insert_implicit_copies(&mut grammar);
    check_completeness(&grammar).map_err(|e| format!("{:?}", e))?;
    t.end(s);
    counts.implicit_rules += implicit.total() as u64;

    let s = t.begin("ag.circularity", p, u);
    check_noncircular(&grammar).map_err(|e| format!("{:?}", e))?;
    t.end(s);

    let s = t.begin("ag.dataflow", p, u);
    let report = linguist_ag::dataflow::optimize(&mut grammar);
    spans.remap_rules(&report.rule_remap);
    t.end(s);
    counts.rewrites += (report.folded_uses
        + report.collapsed_copies
        + report.eliminated_rules
        + report.eliminated_attrs) as u64;

    let s = t.begin("ag.circularity", p, u);
    let io = check_noncircular(&grammar).map_err(|e| format!("{:?}", e))?;
    t.end(s);

    let s = t.begin("ag.passes", p, u);
    let passes = assign_passes(&grammar, &config.pass).map_err(|e| format!("{:?}", e))?;
    t.end(s);
    counts.passes += passes.num_passes() as u64;

    let s = t.begin("ag.lifetime", p, u);
    let mut lifetimes = Lifetimes::compute(&grammar, &passes);
    lifetimes.enable_record_elision();
    t.end(s);

    let s = t.begin("ag.subsumption", p, u);
    let subsumption =
        Subsumption::compute(&grammar, config.group_mode, config.costs, Some(&passes));
    t.end(s);

    let s = t.begin("ag.plan", p, u);
    let plans = build_plans(&grammar, &passes).map_err(|e| format!("{:?}", e))?;
    t.end(s);

    let analysis = Analysis {
        grammar,
        implicit,
        io,
        passes,
        lifetimes,
        subsumption,
        plans,
        opt: Some(report),
    };

    let s = t.begin("ag.lint", p, u);
    let mut diags = Diagnostics::new();
    let findings = run_lints(&analysis, &spans, &LintConfig::default());
    counts.findings += findings.len() as u64;
    for finding in findings {
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
    t.end(s);
    counts.subsumed += sub_stats.subsumed_rules as u64;

    let s = t.begin("frontend.listing", p, u);
    let listing = render_listing(source, &analysis, &diags);
    t.end(s);
    std::hint::black_box(listing);

    let s = t.begin("codegen.generate", p, u);
    for k in 1..=analysis.passes.num_passes() as u16 {
        std::hint::black_box(linguist_codegen::generate_pass(
            &analysis,
            k,
            Target::Pascal,
        ));
    }
    std::hint::black_box(linguist_codegen::generate_globals(
        &analysis,
        Target::Pascal,
    ));
    t.end(s);
    std::hint::black_box(analysis.stats());

    let s = t.begin("lalr.table", p, u);
    let parser = UserParser::build(&analysis.grammar).map_err(|e| e.to_string())?;
    t.end(s);
    counts.states += parser.num_states() as u64;

    let s = t.begin("codegen.rustgen", p, u);
    let rust = rustgen::rust_source(&analysis);
    t.end(s);
    counts.rust_bytes += rust.len() as u64;
    Ok(rust)
}
