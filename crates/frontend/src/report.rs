//! The `--profile` report: the paper's measurement tables, live.
//!
//! §IV and §V of the paper characterize a translator writing system by
//! numbers: the grammar-statistics row ("159 symbols, 318 attributes,
//! …"), the copy-rule fraction and how much of it static subsumption
//! eliminates, the alternating-pass schedule, and the per-pass traffic
//! through the two intermediate APT files. [`ProfileReport`] regenerates
//! all of that for any compiled grammar:
//!
//! * the static half comes from [`GrammarProfile`] (overlay-4 products);
//! * the dynamic half comes from actually *running* the generated
//!   evaluator over a synthetic parse tree grown from the grammar itself
//!   ([`synthesize_tree`]) — no input program is needed — and reading
//!   the evaluation's [`EvalStats`] record.
//!
//! Rendered either as aligned text tables or as JSON (assembled with
//! the shared [`linguist_support::json`] module; the toolchain has no
//! serialization dependency).

use linguist_ag::analysis::Analysis;
use linguist_ag::grammar::{AttrClass, Grammar, SymbolKind};
use linguist_ag::ids::{ProdId, SymbolId};
use linguist_ag::passes::Direction;
use linguist_ag::stats::GrammarProfile;
use linguist_engine::{Engine, EngineConfig, EngineKind};
use linguist_eval::aptfile::ReadDir;
use linguist_eval::funcs::Funcs;
use linguist_eval::machine::{
    evaluate, evaluate_resumable, Backing, EvalError, EvalOptions, EvalStats, Evaluation,
    RetryPolicy, Strategy,
};
use linguist_eval::manifest::Manifest;
use linguist_eval::tree::PTree;
use linguist_eval::value::Value;
use linguist_support::json::{escape as json_str, number as json_f64};
use std::fmt::Write as _;

/// Node budget for the synthetic exercise tree when the caller does not
/// choose one: large enough that every pass moves real file traffic,
/// small enough to stay far under the 48 KB dynamic-memory budget.
pub const DEFAULT_TREE_BUDGET: usize = 200;

/// Recovery knobs for the dynamic half of the report — what the CLI's
/// `--retries`, `--checkpoint-dir` and `--resume` flags map to.
#[derive(Clone, Debug, Default)]
pub struct RecoveryOpts {
    /// Transient-failure policy for the profiled evaluation.
    pub retry: RetryPolicy,
    /// Checkpoint every pass boundary into this directory.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Resume from the checkpoint directory's manifest instead of
    /// starting fresh (falls back to a fresh checkpointed run when
    /// nothing resumable is found).
    pub resume: bool,
    /// Where the profiled evaluation keeps its intermediate APT. The
    /// default is [`Backing::Disk`] — the paper's configuration, so a
    /// single-grammar profile's I/O columns reflect real file traffic.
    /// The CLI's `--batch` mode overrides this to the shared-nothing
    /// [`Backing::Memory`] so concurrent jobs never contend on the
    /// filesystem. Ignored when a checkpoint directory is set (a
    /// checkpoint is durable by definition).
    pub backing: Backing,
    /// Which execution engine runs the profiled evaluation (the CLI's
    /// `--engine` flag). A compiled engine produces the same outputs,
    /// but its evaluation record has no counts (generated code does not
    /// count), and it ignores retry/checkpoint/resume — so a compiled
    /// profile reports outputs, engine, and any degradation, and the
    /// per-pass table comes from interpreted runs only.
    pub engine: EngineKind,
}

/// The complete `--profile` report for one grammar.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Grammar name (from the source's `grammar … ;` header or the file).
    pub name: String,
    /// The static half: statistics, subsumption, pass schedule.
    pub grammar: GrammarProfile,
    /// Nodes in the synthetic tree the dynamic half evaluated (0 when no
    /// tree could be synthesized).
    pub tree_nodes: usize,
    /// The dynamic half: the evaluation record, when the interpreter
    /// ran the evaluation to completion.
    pub eval: Option<EvalStats>,
    /// Why the dynamic half is missing, when it is (a semantic function
    /// rejecting the synthetic attribute values, say). The static half
    /// is still valid.
    pub eval_error: Option<String>,
    /// Pass retries the evaluation consumed recovering from transient
    /// failures (0 without a retry policy).
    pub retries: u64,
    /// The checkpoint boundary the evaluation restarted after, when it
    /// was resumed rather than run from scratch.
    pub resumed_from: Option<u16>,
    /// The engine that produced the dynamic half (`"interpreted"`,
    /// `"aot"`); `None` when no evaluation was attempted.
    pub engine_used: Option<String>,
    /// Typed degradation reason when a compiled engine was requested but
    /// the interpreter answered (`code: detail`).
    pub engine_fallback: Option<String>,
    /// What the grammar optimizer did, when it ran (`--opt=on`):
    /// `None` means the analysis was unoptimized.
    pub optimizer: Option<OptimizerSummary>,
}

/// The optimizer's headline counters, mirrored into the JSON report and
/// the serve tier's `Stats` reply under the same three keys.
#[derive(Clone, Copy, Debug)]
pub struct OptimizerSummary {
    /// Constant occurrences folded into literals.
    pub folded: usize,
    /// Dead rules plus dead attributes eliminated.
    pub eliminated: usize,
    /// Copy-chain hops collapsed to their source.
    pub collapsed: usize,
}

impl ProfileReport {
    /// The static half only: no evaluation is attempted.
    pub fn without_eval(name: &str, analysis: &Analysis) -> ProfileReport {
        ProfileReport {
            name: name.to_string(),
            grammar: analysis.profile(),
            tree_nodes: 0,
            eval: None,
            eval_error: None,
            retries: 0,
            resumed_from: None,
            engine_used: None,
            engine_fallback: None,
            optimizer: analysis.opt.as_ref().map(|r| OptimizerSummary {
                folded: r.folded_uses,
                eliminated: r.eliminated_rules + r.eliminated_attrs,
                collapsed: r.collapsed_copies,
            }),
        }
    }

    /// Collect the full report: profile the grammar statically, then
    /// synthesize a parse tree of roughly `budget` nodes and run the
    /// evaluator over it (disk-backed, as in the paper, so the I/O
    /// columns reflect real file traffic).
    ///
    /// A grammar whose semantic functions reject the synthetic intrinsic
    /// values still yields a report — the failure is recorded in
    /// [`eval_error`](ProfileReport::eval_error) instead of aborting.
    pub fn collect(name: &str, analysis: &Analysis, funcs: &Funcs, budget: usize) -> ProfileReport {
        ProfileReport::collect_with(name, analysis, funcs, budget, &RecoveryOpts::default())
    }

    /// [`collect`](ProfileReport::collect) with recovery options: a retry
    /// policy for transient failures, optional pass-boundary
    /// checkpointing, and resuming from an earlier checkpoint directory.
    ///
    /// A synthetic tree can carry values a semantic function rejects (a
    /// long binary numeral overflows `Pow2`, say). While evaluation fails
    /// with such an error, the tree budget is halved and the evaluation
    /// rerun, down to the cheapest derivation;
    /// [`tree_nodes`](ProfileReport::tree_nodes) is the size of the tree
    /// the reported evaluation ran on.
    pub fn collect_with(
        name: &str,
        analysis: &Analysis,
        funcs: &Funcs,
        budget: usize,
        recovery: &RecoveryOpts,
    ) -> ProfileReport {
        let mut report = ProfileReport::without_eval(name, analysis);
        let mut budget = budget;
        let (engine_used, result) = loop {
            let tree = match synthesize_tree(&analysis.grammar, budget) {
                Some(t) => t,
                None => {
                    report.eval_error =
                        Some("no finite derivation exists for the start symbol".to_string());
                    return report;
                }
            };
            report.tree_nodes = tree.size();
            let (engine_used, result) = report.run(analysis, funcs, &tree, recovery);
            match result {
                Err(EvalError::Func(_)) if budget > 1 => {
                    budget /= 2;
                    // The abandoned tree's checkpoint must not seed the
                    // smaller tree's run.
                    if let Some(dir) = &recovery.checkpoint_dir {
                        let _ = std::fs::remove_file(Manifest::path_in(dir));
                    }
                }
                result => break (engine_used, result),
            }
        };
        report.engine_used = Some(engine_used.as_str().to_string());
        match result {
            Ok(eval) => {
                report.retries = eval.stats.retries;
                report.resumed_from = eval.stats.resumed_from;
                // Generated code does not count: only an interpreted
                // run's record has a pass table to report.
                if engine_used == EngineKind::Interpreted {
                    report.eval = Some(eval.stats);
                }
            }
            Err(e) => report.eval_error = Some(e.to_string()),
        }
        report
    }

    /// Evaluate `tree` once under `recovery`'s engine and options,
    /// recording any engine fallback.
    fn run(
        &mut self,
        analysis: &Analysis,
        funcs: &Funcs,
        tree: &PTree,
        recovery: &RecoveryOpts,
    ) -> (EngineKind, Result<Evaluation, EvalError>) {
        // The initial-file strategy must match the planned first
        // direction: a right-to-left first pass reads the bottom-up
        // (shift-reduce order) file backwards; a left-to-right first
        // pass reads the prefix-order file forwards.
        let strategy = match analysis.passes.direction(1) {
            Direction::RightToLeft => Strategy::BottomUp,
            Direction::LeftToRight => Strategy::Prefix,
        };
        let opts = EvalOptions {
            strategy,
            backing: recovery.backing,
            retry: recovery.retry,
            ..EvalOptions::default()
        };
        if recovery.engine != EngineKind::Interpreted {
            // The compiled engine: prepare (AOT lookup) and run through
            // the degradation ladder. Checkpoint/resume are
            // interpreter-only.
            let engine = aot_engine();
            let prepared = engine.prepare(analysis);
            let outcome = engine.evaluate(&prepared, analysis, funcs, tree, &opts);
            self.engine_fallback = outcome.fallback.map(|r| r.to_string());
            return (outcome.engine_used, outcome.result);
        }
        let result = match (&recovery.checkpoint_dir, recovery.resume) {
            (Some(dir), true) => Evaluation::resume(analysis, funcs, &opts, dir)
                .or_else(|_| evaluate_resumable(analysis, funcs, tree, &opts, dir)),
            (Some(dir), false) => evaluate_resumable(analysis, funcs, tree, &opts, dir),
            (None, _) => evaluate(analysis, funcs, tree, &opts),
        };
        (EngineKind::Interpreted, result)
    }

    /// The aligned-text rendering: the §IV statistics block followed by
    /// the per-pass traffic table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== profile: {} ===", self.name);
        let _ = writeln!(out, "{}", self.grammar);
        if let Some(o) = &self.optimizer {
            let _ = writeln!(
                out,
                "optimizer: {} constant use(s) folded, {} dead rule(s)/attr(s) \
                 eliminated, {} copy hop(s) collapsed",
                o.folded, o.eliminated, o.collapsed
            );
        }
        match (&self.eval, &self.eval_error) {
            (Some(m), _) => {
                let _ = writeln!(out);
                let _ = writeln!(
                    out,
                    "evaluation over a synthetic {}-node tree:",
                    self.tree_nodes
                );
                let _ = writeln!(
                    out,
                    "initial file (boundary 0): {} records, {} bytes",
                    m.initial_records, m.initial_bytes
                );
                let _ = writeln!(
                    out,
                    "{:<5} {:<9} {:>6} {:>10} {:>6} {:>10} {:>7} {:>7} {:>7}",
                    "pass",
                    "reads",
                    "rec-in",
                    "bytes-in",
                    "rec-out",
                    "bytes-out",
                    "attrs",
                    "funcs",
                    "rules"
                );
                for p in &m.passes {
                    let dir = match p.direction {
                        ReadDir::Forward => "forward",
                        ReadDir::Backward => "backward",
                    };
                    let _ = writeln!(
                        out,
                        "{:<5} {:<9} {:>6} {:>10} {:>6} {:>10} {:>7} {:>7} {:>7}",
                        p.pass,
                        dir,
                        p.records_read,
                        p.bytes_read,
                        p.records_written,
                        p.bytes_written,
                        p.attrs_evaluated,
                        p.funcs_invoked,
                        p.rules_evaluated
                    );
                }
                let _ = writeln!(
                    out,
                    "total: {} file bytes, {} attribute instances, {} function calls",
                    m.total_io_bytes(),
                    m.total_attrs_evaluated(),
                    m.total_funcs_invoked()
                );
                if self.retries > 0 {
                    let _ = writeln!(out, "recovery: {} pass retr(ies)", self.retries);
                }
                if let Some(b) = self.resumed_from {
                    let _ = writeln!(out, "recovery: resumed from checkpoint boundary {}", b);
                }
            }
            (None, Some(e)) => {
                let _ = writeln!(out);
                let _ = writeln!(out, "evaluation profile unavailable: {}", e);
            }
            (None, None) => {
                if let Some(engine) = &self.engine_used {
                    if engine != "interpreted" {
                        let _ = writeln!(out);
                        let _ = writeln!(
                            out,
                            "evaluation ran on the {} engine over a synthetic {}-node tree \
                             (pass-level I/O profile is interpreter-only)",
                            engine, self.tree_nodes
                        );
                    }
                }
            }
        }
        if let Some(engine) = &self.engine_used {
            let _ = writeln!(out, "engine: {}", engine);
        }
        if let Some(reason) = &self.engine_fallback {
            let _ = writeln!(out, "engine fallback: {}", reason);
        }
        out
    }

    /// The JSON rendering (a single object; stable key order).
    pub fn render_json(&self) -> String {
        let g = &self.grammar;
        let s = &g.stats;
        let mut out = String::new();
        out.push('{');
        let _ = write!(out, "\"name\":{}", json_str(&self.name));
        out.push_str(",\"grammar\":{");
        let _ = write!(
            out,
            "\"symbols\":{},\"terminals\":{},\"nonterminals\":{},\"limbs\":{}",
            s.symbols, s.terminals, s.nonterminals, s.limbs
        );
        let _ = write!(
            out,
            ",\"attributes\":{},\"synthesized\":{},\"inherited\":{},\"intrinsic\":{},\"limb_attrs\":{}",
            s.attributes, s.synthesized, s.inherited, s.intrinsic, s.limb_attrs
        );
        let _ = write!(
            out,
            ",\"productions\":{},\"occurrences\":{},\"semantic_functions\":{}",
            s.productions, s.occurrences, s.semantic_functions
        );
        let _ = write!(
            out,
            ",\"copy_rules\":{},\"implicit_copy_rules\":{},\"copy_fraction\":{}",
            s.copy_rules,
            s.implicit_copy_rules,
            json_f64(s.copy_fraction())
        );
        let _ = write!(out, ",\"passes\":{},\"directions\":[", s.passes);
        for (i, d) in g.directions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(match d {
                Direction::LeftToRight => "\"left-to-right\"",
                Direction::RightToLeft => "\"right-to-left\"",
            });
        }
        out.push(']');
        let _ = write!(
            out,
            ",\"static_attrs\":{},\"eligible_attrs\":{},\"copy_rules_subsumed\":{},\"copy_rules_remaining\":{},\"save_restore_sites\":{},\"elimination_fraction\":{}",
            g.subsumption.static_attrs,
            g.subsumption.eligible_attrs,
            g.subsumption.subsumed_rules,
            g.copy_rules_after(),
            g.subsumption.save_restore_sites,
            json_f64(g.elimination_fraction())
        );
        out.push('}');
        let _ = write!(out, ",\"tree_nodes\":{}", self.tree_nodes);
        match &self.optimizer {
            Some(o) => {
                let _ = write!(
                    out,
                    ",\"optimizer\":{{\"folded\":{},\"eliminated\":{},\"collapsed\":{}}}",
                    o.folded, o.eliminated, o.collapsed
                );
            }
            None => out.push_str(",\"optimizer\":null"),
        }
        let _ = write!(out, ",\"recovery\":{{\"retries\":{}", self.retries);
        match self.resumed_from {
            Some(b) => {
                let _ = write!(out, ",\"resumed_from\":{}}}", b);
            }
            None => out.push_str(",\"resumed_from\":null}"),
        }
        match &self.eval {
            Some(m) => {
                let _ = write!(out, ",\"eval\":{}", metrics_json(m));
            }
            None => out.push_str(",\"eval\":null"),
        }
        match &self.eval_error {
            Some(e) => {
                let _ = write!(out, ",\"eval_error\":{}", json_str(e));
            }
            None => out.push_str(",\"eval_error\":null"),
        }
        match &self.engine_used {
            Some(e) => {
                let _ = write!(out, ",\"engine\":{}", json_str(e));
            }
            None => out.push_str(",\"engine\":null"),
        }
        match &self.engine_fallback {
            Some(r) => {
                let _ = write!(out, ",\"engine_fallback\":{}", json_str(r));
            }
            None => out.push_str(",\"engine_fallback\":null"),
        }
        out.push('}');
        out
    }
}

/// One process-wide AOT engine, so repeated profile runs (and `--batch`
/// jobs) share its run counters.
fn aot_engine() -> &'static Engine {
    static AOT: std::sync::OnceLock<Engine> = std::sync::OnceLock::new();
    AOT.get_or_init(|| {
        Engine::new(EngineConfig {
            kind: EngineKind::CompiledAot,
        })
    })
}

/// Render an [`EvalStats`] record as a JSON object — shared between
/// the `--profile=json` report and the benchmark snapshot writer, so
/// `BENCH_*.json` files carry the same per-pass I/O shape.
pub fn metrics_json(m: &EvalStats) -> String {
    let mut out = String::new();
    out.push('{');
    let _ = write!(
        out,
        "\"initial_records\":{},\"initial_bytes\":{}",
        m.initial_records, m.initial_bytes
    );
    let _ = write!(
        out,
        ",\"total_io_bytes\":{},\"total_attrs_evaluated\":{},\"total_funcs_invoked\":{}",
        m.total_io_bytes(),
        m.total_attrs_evaluated(),
        m.total_funcs_invoked()
    );
    out.push_str(",\"passes\":[");
    for (i, p) in m.passes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"pass\":{},\"direction\":\"{}\",\"input_boundary\":{},\"output_boundary\":{},\"records_read\":{},\"bytes_read\":{},\"records_written\":{},\"bytes_written\":{},\"attrs_evaluated\":{},\"funcs_invoked\":{},\"rules_evaluated\":{}}}",
            p.pass,
            match p.direction {
                ReadDir::Forward => "forward",
                ReadDir::Backward => "backward",
            },
            p.pass - 1,
            p.pass,
            p.records_read,
            p.bytes_read,
            p.records_written,
            p.bytes_written,
            p.attrs_evaluated,
            p.funcs_invoked,
            p.rules_evaluated
        );
    }
    out.push_str("]}");
    out
}

/// A synthetic intrinsic value of the declared (uninterpreted) type.
/// Arithmetic-looking types get small integers so `+`/`*` rules work;
/// everything else falls back to a value its name suggests.
fn default_value(type_name: &str) -> Value {
    match type_name {
        "bool" | "boolean" => Value::Bool(false),
        "string" | "str" => Value::str("v"),
        "set" | "setof" => Value::empty_set(),
        "list" => Value::nil(),
        "map" | "pf" => Value::empty_map(),
        _ => Value::Int(1),
    }
}

/// Grow a parse tree of roughly `budget` nodes from the grammar alone.
///
/// A fixpoint over productions finds the cheapest finite derivation of
/// every nonterminal (`None` if the start symbol has no finite
/// derivation — the report then skips the dynamic half). Expansion
/// prefers the *most expensive* viable production while the node budget
/// lasts, so recursive grammars yield deep trees with real inter-pass
/// traffic instead of the one-production minimum; once the budget runs
/// out every choice falls back to the cheapest production. Terminal
/// leaves carry default intrinsic values chosen by declared type.
pub fn synthesize_tree(g: &Grammar, budget: usize) -> Option<PTree> {
    let nsym = g.symbols().len();
    // min_cost[s] = nodes in the cheapest subtree rooted at s.
    let mut min_cost: Vec<Option<usize>> = (0..nsym)
        .map(|i| match g.symbols()[i].kind {
            SymbolKind::Terminal => Some(1),
            _ => None,
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (pi, p) in g.productions().iter().enumerate() {
            let _ = pi;
            let cost = p
                .rhs
                .iter()
                .try_fold(1usize, |acc, s| min_cost[s.0 as usize].map(|c| acc + c));
            if let Some(c) = cost {
                let slot = &mut min_cost[p.lhs.0 as usize];
                if slot.map(|old| c < old).unwrap_or(true) {
                    *slot = Some(c);
                    changed = true;
                }
            }
        }
    }
    min_cost[g.start().0 as usize]?;

    let mut remaining = budget.max(min_cost[g.start().0 as usize].unwrap());
    Some(build(g, g.start(), &min_cost, &mut remaining))
}

/// Expand `sym`, spending from `remaining`.
fn build(g: &Grammar, sym: SymbolId, min_cost: &[Option<usize>], remaining: &mut usize) -> PTree {
    if g.symbol(sym).kind == SymbolKind::Terminal {
        *remaining = remaining.saturating_sub(1);
        let intrinsics = g
            .symbol(sym)
            .attrs
            .iter()
            .filter(|&&a| g.attr(a).class == AttrClass::Intrinsic)
            .map(|&a| (a, default_value(g.resolve(g.attr(a).type_name))))
            .collect();
        return PTree::leaf(sym, intrinsics);
    }

    // Viable productions for this nonterminal, with their minimum cost.
    let mut viable: Vec<(ProdId, usize)> = g
        .productions()
        .iter()
        .enumerate()
        .filter(|(_, p)| p.lhs == sym)
        .filter_map(|(i, p)| {
            p.rhs
                .iter()
                .try_fold(1usize, |acc, s| min_cost[s.0 as usize].map(|c| acc + c))
                .map(|c| (ProdId(i as u32), c))
        })
        .collect();
    viable.sort_by_key(|&(_, c)| c);
    let cheapest = viable[0];
    // Prefer the most expensive production the budget still covers:
    // that is what makes recursive grammars recurse.
    let (prod, _) = viable
        .iter()
        .rev()
        .find(|&&(_, c)| c <= *remaining)
        .copied()
        .unwrap_or(cheapest);

    *remaining = remaining.saturating_sub(1);
    let rhs = g.production(prod).rhs.clone();
    // Reserve the minimum for the siblings to the right so an early
    // child cannot starve them below their cheapest derivation.
    let mut children = Vec::with_capacity(rhs.len());
    for (i, &child) in rhs.iter().enumerate() {
        let reserve: usize = rhs[i + 1..]
            .iter()
            .map(|s| min_cost[s.0 as usize].unwrap_or(0))
            .sum();
        let mut child_budget = remaining.saturating_sub(reserve);
        let before = child_budget;
        let t = build(g, child, min_cost, &mut child_budget);
        *remaining = remaining.saturating_sub(before - child_budget);
        children.push(t);
    }
    PTree::node(prod, children)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run, DriverOptions};

    const TINY: &str = r#"
grammar Tiny ;
terminals  x : intrinsic OBJ int ;
nonterminals  s : syn V int ;
start s ;
productions
prod s0 = s1 x :
  s0.V = s1.V + x.OBJ ;
end
prod s0 = x :
  s0.V = x.OBJ ;
end
end
"#;

    #[test]
    fn synthesized_tree_respects_budget_and_grows() {
        let out = run(TINY, &DriverOptions::default()).unwrap();
        let g = &out.analysis.grammar;
        let small = synthesize_tree(g, 1).unwrap();
        // Minimum derivation: s -> x, two nodes.
        assert_eq!(small.size(), 2);
        let big = synthesize_tree(g, 40).unwrap();
        assert!(big.size() > 20, "budget 40 gave {} nodes", big.size());
        assert!(big.size() <= 41);
    }

    #[test]
    fn collect_produces_metrics_for_a_working_grammar() {
        let out = run(TINY, &DriverOptions::default()).unwrap();
        let r = ProfileReport::collect("tiny", &out.analysis, &Funcs::standard(), 30);
        assert!(r.eval_error.is_none(), "eval failed: {:?}", r.eval_error);
        let m = r.eval.as_ref().unwrap();
        assert_eq!(m.passes.len(), out.analysis.passes.num_passes());
        assert!(m.initial_records > 0);
        assert!(m.passes[0].records_read > 0);
        assert_eq!(m.passes[0].records_read, m.initial_records);
        let text = r.render_text();
        assert!(text.contains("pass"), "{}", text);
        assert!(text.contains("copy-rules subsumed"), "{}", text);
    }

    #[test]
    fn json_rendering_is_balanced_and_escaped() {
        let out = run(TINY, &DriverOptions::default()).unwrap();
        let mut r = ProfileReport::collect("ti\"ny\n", &out.analysis, &Funcs::standard(), 30);
        let json = r.render_json();
        assert!(json.contains("\"ti\\\"ny\\n\""), "{}", json);
        assert_balanced(&json);
        // And the no-eval shape.
        r.eval = None;
        r.eval_error = Some("boom".to_string());
        let json = r.render_json();
        assert!(json.contains("\"eval\":null"), "{}", json);
        assert!(json.contains("\"eval_error\":\"boom\""), "{}", json);
        assert_balanced(&json);
    }

    /// Cheap structural check: braces/brackets balance outside strings.
    fn assert_balanced(json: &str) {
        let mut depth = 0i32;
        let mut in_str = false;
        let mut esc = false;
        for c in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced: {}", json);
        }
        assert_eq!(depth, 0, "unbalanced: {}", json);
        assert!(!in_str, "unterminated string: {}", json);
    }
}
