//! Differential-execution oracle over one grammar + synthesized tree.
//!
//! One fuzz case is a pretty-printed `.lg` source plus a node budget.
//! The source is the *canonical artifact*: every execution mode starts
//! by re-deriving the analysis from the same text through the full
//! frontend (scanner, LALR parser, `lower_with_spans`, implicit copies,
//! pass analysis), and the input tree is re-synthesized deterministically
//! from the analysis by [`synthesize_tree`] — which is also exactly what
//! the `serve` daemon does for a `Budget` work item, so a fourth,
//! out-of-process mode can join the comparison from nothing but the same
//! source string.
//!
//! [`run_case`] runs the three in-process modes —
//!
//! 1. plain sequential [`evaluate`],
//! 2. the parallel [`BatchEvaluator`] (8 workers, 8 copies of the tree),
//! 3. [`evaluate_resumable`] once, then crash-resume at *every* pass
//!    boundary: the manifest is truncated back to each boundary in turn
//!    and [`Evaluation::resume`] must rebuild the identical result,
//!
//! — plus, default-on (`LINGUIST_DIFF_OPT=0` disables,
//! [`CaseOptions::optimized`]), a sixth mode: the same source
//! re-analyzed with the grammar optimizer on and evaluated over the
//! baseline's tree, required to be byte-identical *and* to never
//! increase the pass count or records written —
//! and reports any disagreement as a [`Divergence`] naming the mode,
//! the first offending attribute, and the pass that computes it. It also
//! checks the conservation laws of the [`EvalStats`] record (pass N+1
//! reads exactly what pass N wrote) and the subsumption-transparency
//! invariant (`globals_repaired == 0`) on the sequential baseline.
//!
//! Failing cases can be shrunk with [`minimize`] (budget halving, then
//! whole-production removal at the source level) under a [`reproduces`]
//! predicate and persisted as
//! replayable corpus fixtures with [`persist_fixture`] /
//! [`load_fixture`].
//!
//! Modes 4 and 5 live in the root `differential` test: the `serve`
//! daemon, and the compiled engine, which needs a cargo build per grammar
//! — each grammar's generated crate must write exactly the baseline's
//! [`encoded_outputs`].

use crate::driver::analyze;
use crate::report::synthesize_tree;
use linguist_ag::analysis::{Analysis, Config};
use linguist_ag::passes::Direction;
use linguist_eval::batch::BatchEvaluator;
use linguist_eval::compiled::encode_outputs;
use linguist_eval::funcs::Funcs;
use linguist_eval::machine::{
    evaluate, evaluate_resumable, Backing, EvalOptions, EvalStats, Evaluation, Strategy,
};
use linguist_eval::manifest::Manifest;
use linguist_eval::tree::PTree;
use std::path::Path;

/// One disagreement between execution modes (or one violated invariant).
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Which mode disagreed with the sequential baseline.
    pub mode: String,
    /// The first output attribute whose value differs, if attributable.
    pub attr: Option<String>,
    /// The pass that computes that attribute.
    pub pass: Option<u16>,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}]", self.mode)?;
        if let Some(a) = &self.attr {
            write!(f, " attr {}", a)?;
        }
        if let Some(p) = self.pass {
            write!(f, " (pass {})", p)?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The outcome of running one case through the in-process modes.
#[derive(Debug)]
pub struct CaseResult {
    /// The shared analysis (all modes re-derive exactly this from source).
    pub analysis: Analysis,
    /// The deterministically synthesized input tree.
    pub tree: PTree,
    /// The sequential baseline evaluation.
    pub baseline: Evaluation,
    /// Everything that disagreed; empty means the oracle is satisfied.
    pub divergences: Vec<Divergence>,
}

/// Canonical byte encoding of an evaluation's outputs — the
/// "byte-identical APT output" acceptance criterion compares these. A
/// standalone generated evaluator writes the same encoding.
pub fn encoded_outputs(eval: &Evaluation) -> Vec<u8> {
    encode_outputs(&eval.outputs)
}

/// The configuration the baseline and modes 2–5 analyze under: the
/// paper-faithful pipeline, optimizer off. Mode 6 re-analyzes with the
/// optimizer on and must reproduce this baseline.
pub fn faithful() -> Config {
    Config {
        optimize: false,
        ..Config::default()
    }
}

/// The initial-file strategy the pass analysis demands — the same choice
/// `serve` makes for its jobs, so all four modes agree on it.
pub fn strategy_for(analysis: &Analysis) -> Strategy {
    match analysis.passes.direction(1) {
        Direction::RightToLeft => Strategy::BottomUp,
        Direction::LeftToRight => Strategy::Prefix,
    }
}

/// Evaluation options every mode runs under: the matching strategy.
pub fn eval_opts(analysis: &Analysis) -> EvalOptions {
    EvalOptions {
        strategy: strategy_for(analysis),
        ..EvalOptions::default()
    }
}

/// Compare `candidate` against `baseline`; on mismatch produce a
/// [`Divergence`] naming the first differing attribute and its pass.
fn compare(
    analysis: &Analysis,
    mode: &str,
    baseline: &Evaluation,
    candidate: &Evaluation,
) -> Option<Divergence> {
    if encoded_outputs(baseline) == encoded_outputs(candidate) {
        return None;
    }
    let g = &analysis.grammar;
    for (i, (a, v)) in baseline.outputs.iter().enumerate() {
        match candidate.outputs.get(i) {
            Some((ca, cv)) if ca == a && cv == v => continue,
            Some((ca, cv)) => {
                return Some(Divergence {
                    mode: mode.to_owned(),
                    attr: Some(g.attr_name(*a).to_owned()),
                    pass: Some(analysis.passes.pass_of(*a)),
                    detail: format!(
                        "output {} expected {}.{} = {}, got {}.{} = {}",
                        i,
                        g.symbol_name(g.attr(*a).symbol),
                        g.attr_name(*a),
                        v,
                        g.symbol_name(g.attr(*ca).symbol),
                        g.attr_name(*ca),
                        cv
                    ),
                });
            }
            None => {
                return Some(Divergence {
                    mode: mode.to_owned(),
                    attr: Some(g.attr_name(*a).to_owned()),
                    pass: Some(analysis.passes.pass_of(*a)),
                    detail: format!("candidate has only {} outputs", candidate.outputs.len()),
                });
            }
        }
    }
    Some(Divergence {
        mode: mode.to_owned(),
        attr: None,
        pass: None,
        detail: format!(
            "byte encodings differ but outputs agree prefix-wise \
             (baseline {} outputs, candidate {})",
            baseline.outputs.len(),
            candidate.outputs.len()
        ),
    })
}

fn failure(mode: &str, detail: String) -> Divergence {
    Divergence {
        mode: mode.to_owned(),
        attr: None,
        pass: None,
        detail,
    }
}

/// Optional oracle legs for [`run_case_with`].
#[derive(Clone, Debug)]
pub struct CaseOptions {
    /// Run the optimized-grammar leg: re-analyze the same source with
    /// the grammar optimizer on, evaluate over the *baseline's* tree,
    /// and require byte-identical `encoded_outputs` plus the work
    /// conservation law (the optimizer must never increase the pass
    /// count or the records written). On by default.
    pub optimized: bool,
}

impl Default for CaseOptions {
    fn default() -> CaseOptions {
        CaseOptions { optimized: true }
    }
}

impl CaseOptions {
    /// Environment-driven default: `LINGUIST_DIFF_OPT=0` turns the
    /// (default-on) optimized leg off for callers going through
    /// [`run_case`].
    pub fn from_env() -> CaseOptions {
        let optimized = std::env::var("LINGUIST_DIFF_OPT")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(true);
        CaseOptions { optimized }
    }
}

/// Run one case through sequential, parallel-batch, and
/// crash-resume-at-every-boundary modes — plus the optimized-grammar leg
/// unless `LINGUIST_DIFF_OPT=0` (see [`CaseOptions`]).
///
/// # Errors
///
/// `Err` means no baseline could be established (the source failed to
/// analyze, tree synthesis came up empty, or the sequential evaluation
/// itself failed) — for generated grammars those are themselves
/// findings, reported with mode `"baseline"`.
pub fn run_case(source: &str, budget: usize, scratch: &Path) -> Result<CaseResult, Divergence> {
    run_case_with(source, budget, scratch, &CaseOptions::from_env())
}

/// [`run_case`] with explicit [`CaseOptions`].
///
/// # Errors
///
/// Same as [`run_case`].
pub fn run_case_with(
    source: &str,
    budget: usize,
    scratch: &Path,
    case_opts: &CaseOptions,
) -> Result<CaseResult, Divergence> {
    let analysis = analyze(source, &faithful())
        .map_err(|e| failure("baseline", format!("analyze failed: {}", e)))?;
    let tree = synthesize_tree(&analysis.grammar, budget.max(1))
        .ok_or_else(|| failure("baseline", "synthesize_tree returned no tree".into()))?;
    let funcs = Funcs::standard();
    let opts = eval_opts(&analysis);

    let baseline = evaluate(&analysis, &funcs, &tree, &opts)
        .map_err(|e| failure("baseline", format!("sequential evaluation failed: {}", e)))?;
    let mut divergences = Vec::new();

    // Subsumption must be output-transparent: a repaired global means the
    // protocol caught itself producing a wrong value.
    if baseline.stats.globals_repaired != 0 {
        divergences.push(failure(
            "sequential",
            format!(
                "globals_repaired = {} (subsumption protocol not transparent)",
                baseline.stats.globals_repaired
            ),
        ));
    }
    divergences.extend(metrics_violations(&baseline.stats));

    // Mode 2: parallel batch, 8 workers × 8 copies of the same tree, on
    // the shared-nothing owned-store path the production batch uses —
    // the oracle's byte-identity check is what proves that path safe.
    let batch_opts = EvalOptions {
        backing: Backing::Memory,
        ..opts.clone()
    };
    let batch = BatchEvaluator::with_options(8, batch_opts);
    let trees: Vec<PTree> = (0..8).map(|_| tree.clone()).collect();
    let outcome = batch.run(&analysis, &funcs, &trees);
    for (j, result) in outcome.results.iter().enumerate() {
        match result {
            Ok(eval) => {
                if let Some(d) = compare(&analysis, &format!("parallel[{}]", j), &baseline, eval) {
                    divergences.push(d);
                }
            }
            Err(e) => divergences.push(failure(
                &format!("parallel[{}]", j),
                format!("job failed: {}", e),
            )),
        }
    }

    // Mode 3: checkpointed run, then resume from every boundary.
    divergences.extend(resume_at_every_boundary(
        &analysis, &funcs, &tree, &opts, &baseline, scratch,
    ));

    // Mode 6 (default-on): the optimized grammar. Constant folding,
    // copy-chain collapsing, dead-attribute elimination and record
    // elision together must be semantics-preserving: same source, same
    // tree, byte-identical outputs, never more work.
    if case_opts.optimized {
        divergences.extend(optimized_divergences(source, &tree, &funcs, &baseline));
    }

    Ok(CaseResult {
        analysis,
        tree,
        baseline,
        divergences,
    })
}

/// Mode 6: re-derive the analysis with the grammar optimizer on and
/// evaluate over the baseline's tree (the optimizer never renumbers
/// symbols, productions, or attributes, so the tree is valid under both
/// analyses). The optimized run must reproduce the baseline's
/// `encoded_outputs` byte for byte, satisfy the same metrics
/// conservation laws, and obey the work-conservation law: neither the
/// pass count nor the total records written may increase.
fn optimized_divergences(
    source: &str,
    tree: &PTree,
    funcs: &Funcs,
    baseline: &Evaluation,
) -> Vec<Divergence> {
    let cfg = Config {
        optimize: true,
        ..Config::default()
    };
    let analysis = match analyze(source, &cfg) {
        Ok(a) => a,
        Err(e) => {
            return vec![failure(
                "optimized",
                format!("optimized analyze failed where baseline analyzed: {}", e),
            )]
        }
    };
    let opts = eval_opts(&analysis);
    let eval = match evaluate(&analysis, funcs, tree, &opts) {
        Ok(e) => e,
        Err(e) => {
            return vec![failure(
                "optimized",
                format!("optimized evaluation failed: {}", e),
            )]
        }
    };
    let mut out = Vec::new();
    if let Some(d) = compare(&analysis, "optimized", baseline, &eval) {
        out.push(d);
    }
    out.extend(metrics_violations(&eval.stats).into_iter().map(|mut d| {
        d.mode = "optimized-metrics".into();
        d
    }));
    let (bm, om) = (&baseline.stats, &eval.stats);
    let base_written: u64 = bm.passes.iter().map(|p| p.records_written).sum();
    let opt_written: u64 = om.passes.iter().map(|p| p.records_written).sum();
    if om.passes.len() > bm.passes.len() || opt_written > base_written {
        out.push(failure(
            "optimized",
            format!(
                "optimizer increased work: {} -> {} passes, {} -> {} records written",
                bm.passes.len(),
                om.passes.len(),
                base_written,
                opt_written
            ),
        ));
    }
    out
}

/// The conservation laws on an evaluation record: pass 1 reads the
/// initial file exactly; every later pass reads exactly what its
/// predecessor wrote.
fn metrics_violations(m: &EvalStats) -> Vec<Divergence> {
    let mut out = Vec::new();
    if let Some(first) = m.passes.first() {
        if first.records_read != m.initial_records || first.bytes_read != m.initial_bytes {
            out.push(Divergence {
                mode: "metrics".into(),
                attr: None,
                pass: Some(first.pass),
                detail: format!(
                    "pass 1 read {} records / {} bytes, initial file has {} / {}",
                    first.records_read, first.bytes_read, m.initial_records, m.initial_bytes
                ),
            });
        }
    }
    for w in m.passes.windows(2) {
        if w[1].records_read != w[0].records_written || w[1].bytes_read != w[0].bytes_written {
            out.push(Divergence {
                mode: "metrics".into(),
                attr: None,
                pass: Some(w[1].pass),
                detail: format!(
                    "pass {} read {} records / {} bytes but pass {} wrote {} / {}",
                    w[1].pass,
                    w[1].records_read,
                    w[1].bytes_read,
                    w[0].pass,
                    w[0].records_written,
                    w[0].bytes_written
                ),
            });
        }
    }
    out
}

/// Checkpoint once, then for each boundary `b` (newest first) truncate
/// the manifest back to `b`, delete every later boundary file, and
/// resume. Each resume must restart exactly at `b` and reproduce the
/// baseline bytes.
fn resume_at_every_boundary(
    analysis: &Analysis,
    funcs: &Funcs,
    tree: &PTree,
    opts: &EvalOptions,
    baseline: &Evaluation,
    scratch: &Path,
) -> Vec<Divergence> {
    use linguist_eval::aptfile::boundary_path;
    let mut out = Vec::new();
    let dir = scratch.join("ckpt");
    let _ = std::fs::remove_dir_all(&dir);

    let full = match evaluate_resumable(analysis, funcs, tree, opts, &dir) {
        Ok(e) => e,
        Err(e) => {
            out.push(failure(
                "resume",
                format!("checkpointed evaluation failed: {}", e),
            ));
            return out;
        }
    };
    if let Some(d) = compare(analysis, "resume[full]", baseline, &full) {
        out.push(d);
    }

    let num_passes = analysis.passes.num_passes() as u16;
    for b in (0..num_passes).rev() {
        // Simulate a crash that lost everything after boundary b. (Each
        // resume re-records later boundaries, so truncate fresh per b.)
        let mode = format!("resume[{}]", b);
        let manifest = match Manifest::load(&dir) {
            Ok(m) => m,
            Err(e) => {
                out.push(failure(&mode, format!("manifest reload failed: {}", e)));
                return out;
            }
        };
        let mut truncated = Manifest::new(&manifest.strategy, manifest.num_passes);
        for e in manifest.entries.iter().filter(|e| e.pass <= b) {
            truncated.record(*e);
        }
        if let Err(e) = truncated.save(&dir) {
            out.push(failure(&mode, format!("manifest truncation failed: {}", e)));
            return out;
        }
        for later in (b + 1)..num_passes {
            let _ = std::fs::remove_file(boundary_path(&dir, later));
        }
        match Evaluation::resume(analysis, funcs, opts, &dir) {
            Ok(resumed) => {
                if resumed.stats.resumed_from != Some(b) {
                    out.push(failure(
                        &mode,
                        format!(
                            "expected resume from boundary {}, resumed from {:?}",
                            b, resumed.stats.resumed_from
                        ),
                    ));
                }
                if let Some(d) = compare(analysis, &mode, baseline, &resumed) {
                    out.push(d);
                }
            }
            Err(e) => out.push(failure(&mode, format!("resume failed: {}", e))),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

// ---------------------------------------------------------------------------
// Corpus fixtures: persistable, replayable failing (or pinned) cases.
// ---------------------------------------------------------------------------

/// Write `source` + `budget` (+ the divergence that motivated it) as a
/// replayable `.lg` fixture. Returns the path written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn persist_fixture(
    dir: &Path,
    name: &str,
    source: &str,
    budget: usize,
    why: &str,
) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.lg", name));
    let mut text = String::new();
    text.push_str(&format!("# budget: {}\n", budget));
    for line in why.lines() {
        text.push_str(&format!("# why: {}\n", line));
    }
    text.push_str(source);
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Read a fixture back: `(source, budget)`. The `# budget:` header is
/// part of the fixture contract; a missing one defaults to 16.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn load_fixture(path: &Path) -> std::io::Result<(String, usize)> {
    let text = std::fs::read_to_string(path)?;
    let budget = text
        .lines()
        .find_map(|l| l.strip_prefix("# budget:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(16);
    Ok((text, budget))
}

/// Greedy shrink of a failing case: halve the tree budget while the
/// failure persists, then drop whole productions from the source (text
/// level — the printer emits one `prod … end` block per production)
/// while the result still analyzes *and* still fails.
pub fn minimize(
    source: &str,
    budget: usize,
    still_fails: &dyn Fn(&str, usize) -> bool,
) -> (String, usize) {
    let mut src = source.to_owned();
    let mut budget = budget;
    while budget > 2 && still_fails(&src, budget / 2) {
        budget /= 2;
    }
    loop {
        let mut shrunk = false;
        let blocks = prod_blocks(&src);
        for (start, end) in blocks {
            let mut lines: Vec<&str> = src.lines().collect();
            lines.drain(start..=end);
            let candidate = lines.join("\n");
            if analyze(&candidate, &faithful()).is_ok() && still_fails(&candidate, budget) {
                src = candidate;
                shrunk = true;
                break; // line indices shifted; recompute blocks
            }
        }
        if !shrunk {
            return (src, budget);
        }
    }
}

/// Whether a shrink candidate still shows the failure being minimized,
/// for use in a [`minimize`] predicate. `probe` is the candidate's
/// [`run_case`] result and `mode` the mode of the original's first
/// divergence. Leg 1, the sequential baseline, must still run: a
/// candidate that breaks it (it no longer analyzes into a tree that
/// evaluates) fails in a different, usually trivial, way. And a
/// divergence in the same mode must recur, instance indices aside
/// (`resume[2]` matches `resume[1]`). A failure of leg 1 itself therefore
/// never shrinks.
pub fn reproduces(probe: Result<&CaseResult, &Divergence>, mode: &str) -> bool {
    let family = |m: &str| m.split('[').next().unwrap_or_default().to_owned();
    probe.is_ok_and(|r| {
        r.divergences
            .iter()
            .any(|d| family(&d.mode) == family(mode))
    })
}

/// Line ranges (inclusive) of each `prod … end` block in printed source.
fn prod_blocks(source: &str) -> Vec<(usize, usize)> {
    let lines: Vec<&str> = source.lines().collect();
    let mut blocks = Vec::new();
    let mut start = None;
    for (i, l) in lines.iter().enumerate() {
        if l.trim_start().starts_with("prod ") && start.is_none() {
            start = Some(i);
        } else if *l == "end" {
            if let Some(s) = start.take() {
                blocks.push((s, i));
            }
        }
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    // Two passes in *either* first direction: a.I needs bq.V (a
    // right-to-left edge) while bq.I needs a.V (a left-to-right edge),
    // so whichever direction pass 1 runs, one of the W attributes lands
    // in pass 2.
    const TWO_PASS: &str = r#"
grammar TwoPass ;
terminals x : intrinsic OBJ int ;
nonterminals
  s : syn V int ;
  a : syn V int, inh I int, syn W int ;
  bq : syn V int, inh I int, syn W int ;
start s ;
productions
prod s = a bq :
  a.I = bq.V ;
  bq.I = a.V ;
  s.V = a.W + bq.W ;
end
prod a = x :
  a.V = x.OBJ + 100 ;
  a.W = a.I + 1 ;
end
prod bq = x :
  bq.V = x.OBJ ;
  bq.W = bq.I + 3 ;
end
end
"#;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "linguist86-differential-{}-{}",
            std::process::id(),
            tag
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn two_pass_case_agrees_across_modes() {
        let dir = scratch("twopass");
        let r = run_case(TWO_PASS, 16, &dir).unwrap();
        assert_eq!(
            r.divergences
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>(),
            Vec::<String>::new()
        );
        assert!(r.analysis.passes.num_passes() >= 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fixtures_roundtrip_through_disk() {
        let dir = scratch("fixture");
        let p = persist_fixture(&dir, "case", TWO_PASS, 12, "pinned\nexample").unwrap();
        let (text, budget) = load_fixture(&p).unwrap();
        assert_eq!(budget, 12);
        assert!(text.contains("# why: pinned"));
        assert!(text.contains("grammar TwoPass ;"));
        // The fixture (comments included) is itself runnable source.
        let r = run_case(&text, budget, &dir).unwrap();
        assert!(r.divergences.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn minimize_shrinks_budget_and_keeps_failure() {
        // A synthetic "failure": cases with budget >= 4 and source still
        // containing the `a = x` production "fail".
        let fails = |src: &str, budget: usize| budget >= 4 && src.contains("prod a = x");
        let (src, budget) = minimize(TWO_PASS, 32, &fails);
        assert_eq!(budget, 4);
        assert!(src.contains("prod a = x"));
        // The unused leaf production for `bq` can never be dropped while
        // the grammar must keep analyzing (bq would lose its only
        // derivation), so the minimizer must keep the source analyzable.
        assert!(analyze(&src, &faithful()).is_ok());
    }

    #[test]
    fn minimize_keeps_the_baseline_green_and_the_mode() {
        let dir = scratch("reproduces");
        let mut r = run_case(TWO_PASS, 16, &dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let broken = failure("baseline", "synthesize_tree returned no tree".into());
        assert!(!reproduces(Ok(&r), "resume[1]"), "no divergence recurs");
        r.divergences
            .push(failure("resume[2]", "outputs differ".into()));
        assert!(reproduces(Ok(&r), "resume[1]"));
        assert!(!reproduces(Ok(&r), "parallel[0]"), "another mode");
        assert!(!reproduces(Err(&broken), "resume[1]"), "leg 1 broke");
        // Below budget 8 the candidate's baseline breaks. Counting that
        // as still failing would shrink the budget to 2.
        let fails = |_: &str, budget: usize| {
            let probe = if budget < 8 { Err(&broken) } else { Ok(&r) };
            reproduces(probe, "resume[1]")
        };
        let (_, budget) = minimize(TWO_PASS, 32, &fails);
        assert_eq!(budget, 8);
    }

    #[test]
    fn prod_blocks_sees_every_production() {
        assert_eq!(prod_blocks(TWO_PASS).len(), 3);
    }
}
