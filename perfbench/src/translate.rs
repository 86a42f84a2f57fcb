//! `translate_disk` and `translate_wide`: generated translators run on
//! concrete input through `Translator::translate`.
//!
//! * `translate_disk` is the paper's configuration: default
//!   `EvalOptions`, so the APT lives in temporary files between passes
//!   and the subsumption globals check is on. Inputs are narrow: calc
//!   expressions, small-scope block programs, Pascal programs with at
//!   most 16 variables, and the meta translator run over the bundled and
//!   synthetic grammar sources (the paper's self-processing).
//! * `translate_wide` uses the options a serve job uses (APT in memory)
//!   on Pascal and block programs whose scopes hold 48 to 128
//!   declarations, so per-node work grows with the inherited
//!   environment.
//!
//! Every output must equal the output of the checked-in AOT evaluator
//! (`Engine::evaluate`), computed during set-up.

use crate::harness::{self, Outcome, RunCfg, Unit};
use crate::inputs::{self, Rng};
use crate::trace::{SpanId, Tracer, UNIT};
use linguist_ag::grammar::SymbolKind;
use linguist_ag::ids::SymbolId;
use linguist_ag::passes::Direction;
use linguist_engine::{Engine, EngineConfig, EngineKind, PreparedEngine};
use linguist_eval::funcs::Funcs;
use linguist_eval::machine::{evaluate, Backing, EvalOptions, Strategy};
use linguist_frontend::differential::encoded_outputs;
use linguist_frontend::driver::run;
use linguist_frontend::translate::LeafCtx;
use linguist_frontend::{standard_intrinsics, Translator, UserParser};
use linguist_lexgen::Scanner;
use linguist_support::intern::NameTable;
use linguist_support::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every builtin of `Funcs::standard()`, wrapped one by one in the
/// traced run to time `eval.funcs` per builtin.
pub const BUILTINS: [&str; 31] = [
    "Append",
    "Cons",
    "Cons2",
    "Cons3",
    "ConsMsg",
    "ConsPF",
    "Difference",
    "Div",
    "EmptyPF",
    "EmptySet",
    "EvalPF",
    "Head",
    "IncrIfTrue",
    "IncrIfZero",
    "Intersect",
    "IsBottom",
    "IsIn",
    "Length",
    "Max",
    "MergeMsgs",
    "Min",
    "Mul",
    "Not",
    "NullList",
    "NullMsgList",
    "Pow2",
    "SetSize",
    "StripDigits",
    "Tail",
    "Union",
    "UnionSetof",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    Disk,
    Wide,
}

/// One bundled grammar compiled into a translator.
struct Lang {
    name: &'static str,
    translator: Translator,
    prepared: PreparedEngine,
    opts: EvalOptions,
}

struct Input {
    lang: usize,
    text: String,
    /// Encoded root outputs from the AOT evaluator.
    reference: Vec<u8>,
}

struct Setup {
    langs: Vec<Lang>,
    inputs: Vec<Input>,
    engine: Engine,
}

/// Evaluation options of a variant, with the initial-file strategy the
/// grammar's first pass direction needs.
pub fn options(variant: Variant, first: Direction) -> EvalOptions {
    let strategy = match first {
        Direction::RightToLeft => Strategy::BottomUp,
        Direction::LeftToRight => Strategy::Prefix,
    };
    match variant {
        Variant::Disk => EvalOptions {
            strategy,
            ..EvalOptions::default()
        },
        // The options `run_job` in the serve tier uses.
        Variant::Wide => EvalOptions {
            strategy,
            profile: true,
            backing: Backing::Memory,
            ..EvalOptions::default()
        },
    }
}

/// A bundled grammar compiled with the CLI's defaults into a translator.
pub fn translator(name: &str) -> Result<Translator, String> {
    let (source, scanner) = inputs::bundled(name);
    let out = run(source, &harness::cli_options()).map_err(|e| format!("{}: {}", name, e))?;
    Translator::new(out.analysis, scanner).map_err(|e| format!("{}: {}", name, e))
}

fn setup(variant: Variant, seed: u64, funcs: &Funcs) -> Result<Setup, String> {
    let engine = Engine::new(EngineConfig {
        kind: EngineKind::CompiledAot,
        ..EngineConfig::default()
    });
    let names: &[&'static str] = match variant {
        Variant::Disk => &["calc", "block", "pascal", "meta"],
        Variant::Wide => &["pascal", "block"],
    };
    let mut langs = Vec::new();
    for &name in names {
        let translator = translator(name)?;
        let prepared = engine.prepare(&translator.analysis);
        if prepared.effective() != EngineKind::CompiledAot {
            return Err(format!(
                "{}: no checked-in AOT evaluator ({:?})",
                name,
                prepared.fallback()
            ));
        }
        let opts = options(variant, translator.analysis.passes.direction(1));
        langs.push(Lang {
            name,
            translator,
            prepared,
            opts,
        });
    }
    let mut inputs = Vec::new();
    for (lang, text) in generate(variant, seed) {
        let l = &langs[lang];
        let mut names = NameTable::new();
        let tree = l
            .translator
            .parse_input(&text, &standard_intrinsics, &mut names)
            .map_err(|e| format!("generated input does not parse: {}", e))?;
        let outcome = engine.evaluate(&l.prepared, &l.translator.analysis, funcs, &tree, &l.opts);
        if outcome.engine_used != EngineKind::CompiledAot || outcome.fallback.is_some() {
            return Err(format!("AOT reference fell back: {:?}", outcome.fallback));
        }
        let eval = outcome
            .result
            .map_err(|e| format!("AOT reference failed: {}", e))?;
        inputs.push(Input {
            lang,
            text,
            reference: encoded_outputs(&eval),
        });
    }
    Ok(Setup {
        langs,
        inputs,
        engine,
    })
}

/// The seeded input pool: `(language index, text)` pairs. Group sizes
/// put the pool's p50 and p90 inside a group of similar inputs, not on
/// the cost gap between two groups, where a small shift would flip the
/// percentile from one group to the other.
fn generate(variant: Variant, seed: u64) -> Vec<(usize, String)> {
    use linguist_grammars as lg;
    let mut rng = Rng::new(seed, "translate");
    let mut pool = Vec::new();
    match variant {
        Variant::Disk => {
            for i in 0..8 {
                let terms = inputs::ladder(i, 8, 20, 80);
                pool.push((0, inputs::calc_expr(&mut rng, terms)));
            }
            for i in 0..8 {
                let decls = inputs::ladder(i, 8, 2, 8);
                pool.push((1, lg::block_program(decls, 2 + i % 4)));
            }
            for i in 0..12 {
                let vars = inputs::ladder(i, 12, 4, 16);
                pool.push((2, inputs::pascal_program(&mut rng, vars, 35)));
            }
            // Five long programs of nearly equal cost: with the two
            // largest meta inputs above them and every other input well
            // below, p90 falls in the middle of these.
            for stmts in [156, 158, 160, 162, 164] {
                pool.push((2, inputs::pascal_program(&mut rng, 16, stmts)));
            }
            for name in inputs::BUNDLED {
                pool.push((3, inputs::bundled(name).0.to_string()));
            }
            for i in 0..5 {
                let inherited = inputs::ladder(i, 5, 3, 7);
                pool.push((3, inputs::synth_source(&mut rng, inherited, inherited + 2)));
            }
        }
        Variant::Wide => {
            for i in 0..16 {
                let vars = inputs::ladder(i, 16, 48, 128);
                pool.push((0, inputs::pascal_program(&mut rng, vars, 40)));
            }
            for i in 0..8 {
                let decls = inputs::ladder(i, 8, 48, 128);
                pool.push((1, lg::block_program(decls, 2 + i % 2)));
            }
        }
    }
    pool
}

fn unit(s: &Setup, funcs: &Funcs, i: usize, reference: &[u8]) -> Unit {
    let input = &s.inputs[i];
    let lang = &s.langs[input.lang];
    let t = Instant::now();
    let result = lang.translator.translate(&input.text, funcs, &lang.opts);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let ok = match result {
        Ok(eval) => encoded_outputs(&eval) == reference,
        Err(e) => {
            eprintln!("translate input {}: {}", i, e);
            false
        }
    };
    Unit {
        ms,
        bytes: input.text.len(),
        ok,
    }
}

pub fn run_workload(variant: Variant, cfg: &RunCfg) -> Result<Outcome, String> {
    let funcs = Funcs::standard();
    let (s, mut setup_times) = harness::timed_setup(|| setup(variant, cfg.seed, &funcs))?;
    let mut out = Outcome::default();
    let name = match variant {
        Variant::Disk => "translate_disk",
        Variant::Wide => "translate_wide",
    };
    harness::gate_self_test(
        name,
        unit(&s, &funcs, 0, &harness::corrupt(&s.inputs[0].reference)),
    )?;
    let pool = s.inputs.len();

    if !cfg.trace {
        let budget = Duration::from_secs_f64(cfg.seconds);
        let mut l = harness::cycles(
            pool,
            budget,
            &mut setup_times,
            || setup(variant, cfg.seed, &funcs),
            |i| unit(&s, &funcs, i, &s.inputs[i].reference),
        )?;
        let best: Vec<Json> = l.per_input_best_ms().into_iter().map(Json::Num).collect();
        harness::end_to_end(&mut out, &mut setup_times, &mut l)?;
        out.extra("inputs", Json::int(pool as i64));
        out.extra("best_ms_per_input", Json::Arr(best));
        return Ok(out);
    }

    let traced_parts: Vec<TracedLang> = s
        .langs
        .iter()
        .map(TracedLang::new)
        .collect::<Result<_, _>>()?;
    let times = Arc::new(FuncTimes::default());
    let tfuncs = timed_funcs(&times)?;
    let mut tracer = Tracer::new();
    let mut acc = Acc::default();
    let mut next_unit = 0u64;
    let (baseline, traced) = harness::alternating(
        pool,
        Duration::from_secs_f64(cfg.seconds),
        |i| unit(&s, &funcs, i, &s.inputs[i].reference),
        |i| {
            next_unit += 1;
            let input = &s.inputs[i];
            let ctx = Ctx {
                lang: &s.langs[input.lang],
                parts: &traced_parts[input.lang],
                funcs: &tfuncs,
                times: &times,
                engine: &s.engine,
            };
            traced_unit(variant, &ctx, input, &mut tracer, next_unit, &mut acc)
        },
    );
    out.count(&baseline);
    out.count(&traced);

    let mut summary = tracer.summary();
    summary.reattribute("eval.machine", "eval.aptfile", acc.aptfile_ns);
    summary.reattribute("eval.machine", "eval.globals", acc.globals_ns);
    let units = traced.attempted.max(1) as f64;
    for layer in [
        "lexgen.scan",
        "lalr.parse",
        "eval.machine",
        "eval.aptfile",
        "eval.globals",
        "eval.funcs",
    ] {
        out.metric(format!("{}_ms", layer), summary.ms_per_unit(layer));
    }
    let per_unit = |n: u64| n as f64 / units;
    out.metric("lexgen.tokens", per_unit(acc.tokens));
    out.metric("eval.tree.nodes", per_unit(acc.nodes));
    out.metric("eval.rules", per_unit(acc.rules));
    out.metric("eval.passes", per_unit(acc.passes));
    out.metric("eval.pass_ms", acc.pass_ns / 1e6 / acc.passes.max(1) as f64);
    out.metric("eval.peak_stack_bytes", acc.peak_stack as f64);
    out.metric(
        "eval.aptfile.records_written",
        per_unit(acc.records_written),
    );
    out.metric("eval.aptfile.bytes_written", per_unit(acc.bytes_written));
    out.metric("eval.globals.checked", per_unit(acc.globals_checked));
    out.metric("eval.globals.repaired", per_unit(acc.globals_repaired));
    out.metric("eval.funcs.calls", per_unit(acc.func_calls.iter().sum()));
    for (b, ns) in BUILTINS.iter().zip(&acc.func_ns) {
        out.metric(format!("eval.funcs.{}_ms", b), ns / 1e6 / units);
    }
    out.metric("engine.aot_ms", acc.aot_ns / 1e6 / units);
    out.metric("engine.fallbacks", s.engine.counters().fallbacks as f64);
    harness::trace_metrics(
        &mut out,
        &summary,
        baseline.ms_per_unit(),
        traced.ms_per_unit(),
    )?;
    out.tracer = Some(tracer);
    Ok(out)
}

/// The scanner and parser of one language, held separately so the
/// traced run can time scanning and parsing apart. `Translator` keeps
/// its own copies private.
struct TracedLang {
    scanner: Scanner,
    parser: UserParser,
    kind_to_sym: Vec<Option<SymbolId>>,
}

impl TracedLang {
    fn new(lang: &Lang) -> Result<TracedLang, String> {
        let g = &lang.translator.analysis.grammar;
        let (_, scanner) = inputs::bundled(lang.name);
        let parser = UserParser::build(g).map_err(|e| e.to_string())?;
        let kind_to_sym = (0..scanner.num_kinds() as u32)
            .map(|k| {
                g.symbol_by_name(scanner.kind_name(k))
                    .filter(|&s| g.symbol(s).kind == SymbolKind::Terminal)
            })
            .collect();
        Ok(TracedLang {
            scanner,
            parser,
            kind_to_sym,
        })
    }
}

/// Per-builtin call time and count, summed by the wrappers.
#[derive(Default)]
struct FuncTimes {
    ns: [AtomicU64; BUILTINS.len()],
    calls: [AtomicU64; BUILTINS.len()],
}

impl FuncTimes {
    fn snapshot(&self) -> ([u64; BUILTINS.len()], [u64; BUILTINS.len()]) {
        let ns = std::array::from_fn(|i| self.ns[i].load(Ordering::Relaxed));
        let calls = std::array::from_fn(|i| self.calls[i].load(Ordering::Relaxed));
        (ns, calls)
    }
}

/// `Funcs::standard()` with every builtin re-registered behind a timer.
fn timed_funcs(times: &Arc<FuncTimes>) -> Result<Funcs, String> {
    let standard = Funcs::standard();
    if standard.len() != BUILTINS.len() {
        return Err(format!(
            "Funcs::standard() has {} builtins, the benchmark wraps {}",
            standard.len(),
            BUILTINS.len()
        ));
    }
    let mut timed = Funcs::new();
    for (i, name) in BUILTINS.iter().enumerate() {
        let inner = standard
            .get(name)
            .ok_or_else(|| format!("no builtin named {}", name))?
            .clone();
        let times = Arc::clone(times);
        timed.register(name, move |args| {
            let t = Instant::now();
            let r = inner(args);
            times.ns[i].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            times.calls[i].fetch_add(1, Ordering::Relaxed);
            r
        });
    }
    Ok(timed)
}

/// Everything a traced unit reads.
struct Ctx<'a> {
    lang: &'a Lang,
    parts: &'a TracedLang,
    funcs: &'a Funcs,
    times: &'a FuncTimes,
    engine: &'a Engine,
}

/// Sums over the traced units.
#[derive(Default)]
struct Acc {
    tokens: u64,
    nodes: u64,
    rules: u64,
    passes: u64,
    pass_ns: f64,
    peak_stack: usize,
    records_written: u64,
    bytes_written: u64,
    globals_checked: u64,
    globals_repaired: u64,
    func_ns: [f64; BUILTINS.len()],
    func_calls: [u64; BUILTINS.len()],
    /// Same tree on `Disk` minus on `Memory`.
    aptfile_ns: f64,
    /// Same tree with `check_globals` on minus off.
    globals_ns: f64,
    aot_ns: f64,
}

fn traced_unit(
    variant: Variant,
    c: &Ctx<'_>,
    input: &Input,
    t: &mut Tracer,
    u: u64,
    acc: &mut Acc,
) -> Unit {
    let started = Instant::now();
    let root = t.begin(UNIT, None, u);
    let result = traced_translate(c, &input.text, t, root, u, acc);
    t.end(root);
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let ok = match result {
        Ok((tree, eval_ns, output)) => {
            probe(variant, c, &tree, eval_ns, acc);
            output == input.reference
        }
        Err(e) => {
            eprintln!("traced translate: {}", e);
            false
        }
    };
    Unit {
        ms,
        bytes: input.text.len(),
        ok,
    }
}

/// Scan, parse and evaluate as `Translator::translate` does, with a span
/// around each layer call. Returns the tree, the evaluation time and the
/// encoded outputs.
fn traced_translate(
    c: &Ctx<'_>,
    text: &str,
    t: &mut Tracer,
    root: SpanId,
    u: u64,
    acc: &mut Acc,
) -> Result<(linguist_eval::tree::PTree, f64, Vec<u8>), String> {
    let g = &c.lang.translator.analysis.grammar;
    let s = t.begin("lexgen.scan", Some(root), u);
    let tokens = c.parts.scanner.scan(text).map_err(|e| e.to_string())?;
    t.end(s);
    acc.tokens += tokens.len() as u64;

    let s = t.begin("lalr.parse", Some(root), u);
    let mut names = NameTable::new();
    let mut stream = Vec::with_capacity(tokens.len());
    for tok in &tokens {
        let sym = c.parts.kind_to_sym[tok.kind as usize].ok_or("unbound token kind")?;
        let mut ctx = LeafCtx {
            sym,
            text: tok.text(text),
            span: tok.span,
            names: &mut names,
        };
        stream.push((sym, standard_intrinsics(g, &mut ctx)));
    }
    let tree = c
        .parts
        .parser
        .parse_tree(stream)
        .map_err(|e| e.to_string())?;
    t.end(s);
    acc.nodes += tree.size() as u64;

    let (ns0, calls0) = c.times.snapshot();
    let s = t.begin("eval.machine", Some(root), u);
    let start = Instant::now();
    let eval = evaluate(&c.lang.translator.analysis, c.funcs, &tree, &c.lang.opts)
        .map_err(|e| e.to_string())?;
    let eval_ns = start.elapsed().as_nanos() as f64;
    t.end(s);
    let (ns1, calls1) = c.times.snapshot();
    let mut funcs_ns = 0;
    let mut funcs_calls = 0;
    for i in 0..BUILTINS.len() {
        acc.func_ns[i] += (ns1[i] - ns0[i]) as f64;
        acc.func_calls[i] += calls1[i] - calls0[i];
        funcs_ns += ns1[i] - ns0[i];
        funcs_calls += calls1[i] - calls0[i];
    }
    t.record(
        "eval.funcs",
        Some(s),
        u,
        start,
        Duration::from_nanos(funcs_ns),
        funcs_calls,
    );

    let st = &eval.stats;
    acc.rules += st.total_rules();
    acc.passes += st.passes.len() as u64;
    acc.pass_ns += st
        .passes
        .iter()
        .map(|p| p.duration.as_nanos() as f64)
        .sum::<f64>();
    acc.peak_stack = acc.peak_stack.max(st.meter.peak());
    acc.records_written += st.passes.iter().map(|p| p.records_written).sum::<u64>();
    acc.bytes_written += st.passes.iter().map(|p| p.bytes_written).sum::<u64>();
    acc.globals_checked += st.globals_checked;
    acc.globals_repaired += st.globals_repaired;
    Ok((tree, eval_ns, encoded_outputs(&eval)))
}

/// Outside the unit's span: re-evaluate the same tree with one feature
/// switched off to measure the layers that have no call of their own,
/// and run the AOT evaluator on it for `engine.aot_ms`.
fn probe(
    variant: Variant,
    c: &Ctx<'_>,
    tree: &linguist_eval::tree::PTree,
    eval_ns: f64,
    acc: &mut Acc,
) {
    let analysis = &c.lang.translator.analysis;
    let time = |opts: &EvalOptions| {
        let t = Instant::now();
        let r = evaluate(analysis, c.funcs, tree, opts);
        std::hint::black_box(r.is_ok());
        t.elapsed().as_nanos() as f64
    };
    let memory = EvalOptions {
        backing: Backing::Memory,
        ..c.lang.opts.clone()
    };
    let memory_ns = match variant {
        Variant::Disk => time(&memory),
        Variant::Wide => eval_ns,
    };
    let unchecked_ns = time(&EvalOptions {
        check_globals: false,
        ..memory
    });
    acc.aptfile_ns += eval_ns - memory_ns;
    acc.globals_ns += memory_ns - unchecked_ns;

    let t = Instant::now();
    let outcome = c
        .engine
        .evaluate(&c.lang.prepared, analysis, c.funcs, tree, &c.lang.opts);
    acc.aot_ns += t.elapsed().as_nanos() as f64;
    std::hint::black_box(outcome.result.is_ok());
}
