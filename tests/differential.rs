//! Differential fuzzing of the full pipeline: every generated grammar is
//! pretty-printed to `.lg` text, re-compiled through the real frontend,
//! and executed four ways —
//!
//! 1. sequential [`evaluate`](linguist_eval::machine::evaluate),
//! 2. the parallel `BatchEvaluator` (8 workers, 8 tree copies),
//! 3. crash-resume at *every* checkpoint boundary,
//! 4. the warm `serve` daemon (in-process, over a Unix socket),
//!
//! — and all four must produce byte-identical APT output. On top of the
//! output oracle, the `linguist check` report must agree between the
//! local lint driver and the daemon's `check` reply, and the sequential
//! baseline must satisfy the `EvalStats` conservation laws (checked
//! inside [`run_case`]).
//!
//! Any divergence is minimized (budget halving + whole-production
//! removal, while the sequential baseline stays green and the first
//! divergence's mode recurs) and persisted as a replayable fixture under
//! `tests/corpus/`;
//! the companion test replays every fixture in that directory so a bug,
//! once caught, stays caught.
//!
//! A fifth mode, the compiled engine, builds each grammar's generated
//! evaluator crate with cargo: tier-1 runs it over every corpus fixture,
//! and `scripts/verify.sh` runs the `#[ignore]`d sweep over 64 generated
//! grammars.
//!
//! Case count: 64 generated grammars by default (`PROPTEST_CASES`
//! overrides — `scripts/verify.sh` runs a bounded smoke).

use linguist_ag::analysis::Config;
use linguist_ag::lint::LintConfig;
use linguist_codegen::rustgen;
use linguist_eval::aptfile::AptWriter;
use linguist_eval::machine::Strategy;
use linguist_frontend::check_source;
use linguist_frontend::differential::{
    encoded_outputs, faithful, load_fixture, minimize, persist_fixture, reproduces, run_case,
    strategy_for, CaseResult,
};
use linguist_grammars::synth::{realize, shape_strategy, ShapedGrammar};
use linguist_serve::client::Client;
use linguist_serve::server::{Server, ServerConfig, ServerHandle};
use linguist_support::json::Json;
use proptest::prelude::*;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// Where divergent cases are persisted and pinned fixtures replay from.
const CORPUS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");

// ---------------------------------------------------------------------------
// The shared daemon: one in-process server for the whole test binary.
// ---------------------------------------------------------------------------

fn daemon() -> &'static ServerHandle {
    static HANDLE: OnceLock<ServerHandle> = OnceLock::new();
    HANDLE.get_or_init(|| {
        let sock = std::env::temp_dir().join(format!(
            "linguist86-differential-{}.sock",
            std::process::id()
        ));
        Server::start(ServerConfig {
            unix_path: Some(sock),
            tcp_addr: None,
            workers: 4,
            queue_capacity: 64,
            // Every fuzz case is a distinct grammar; keep them all resident
            // so a case's `translate` never races another thread's `load`
            // for a cache slot.
            cache_capacity: 256,
            default_deadline: None,
            // The local baseline's configuration, so pass counts and
            // lint counts compare like for like.
            config: faithful(),
            ..ServerConfig::default()
        })
        .expect("start in-process serve daemon")
    })
}

fn connect() -> Client {
    Client::connect_unix(daemon().unix_path().expect("daemon has a unix socket"))
        .expect("connect to in-process daemon")
}

fn is_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

// ---------------------------------------------------------------------------
// Per-case scratch space.
// ---------------------------------------------------------------------------

fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "linguist86-fuzz-{}-{}-{}",
        std::process::id(),
        tag,
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

// ---------------------------------------------------------------------------
// Mode 4: the serve daemon, compared against the sequential baseline.
// ---------------------------------------------------------------------------

/// Load `source` into the daemon, translate the same deterministic
/// budget-synthesized tree, and compare the ordered `(attribute, value)`
/// output pairs and the pass count against the local baseline.
fn serve_divergences(source: &str, name: &str, budget: usize, r: &CaseResult) -> Vec<String> {
    let mut out = Vec::new();
    let mut client = connect();

    let loaded = match client.load_grammar(source, None, Some(name)) {
        Ok(reply) => reply,
        Err(e) => return vec![format!("[serve] load_grammar transport failed: {}", e)],
    };
    if !is_ok(&loaded) {
        return vec![format!(
            "[serve] daemon rejected a grammar the local frontend accepted: {}",
            loaded
        )];
    }
    let handle = loaded
        .get("grammar")
        .and_then(Json::as_str)
        .expect("ok load reply carries a grammar handle")
        .to_owned();

    let reply = match client.translate_budget(&handle, budget, Some(120_000)) {
        Ok(reply) => reply,
        Err(e) => return vec![format!("[serve] translate transport failed: {}", e)],
    };
    if !is_ok(&reply) {
        return vec![format!(
            "[serve] translate failed where the local evaluator succeeded: {}",
            reply
        )];
    }

    // The daemon renders outputs as ordered (attr name, value string)
    // pairs; render the local baseline identically and require equality.
    let got: Vec<(String, String)> = match reply.get("outputs") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().unwrap_or("<non-string>").to_owned()))
            .collect(),
        other => {
            return vec![format!(
                "[serve] translate reply has no outputs object: {:?}",
                other
            )]
        }
    };
    let g = &r.analysis.grammar;
    let want: Vec<(String, String)> = r
        .baseline
        .outputs
        .iter()
        .map(|(a, v)| (g.attr_name(*a).to_owned(), v.to_string()))
        .collect();
    if got != want {
        let i = want
            .iter()
            .zip(got.iter())
            .position(|(w, s)| w != s)
            .unwrap_or_else(|| want.len().min(got.len()));
        out.push(format!(
            "[serve] outputs diverge from sequential baseline at index {}: \
             local {:?}, serve {:?} ({} vs {} outputs)",
            i,
            want.get(i),
            got.get(i),
            want.len(),
            got.len()
        ));
    }

    let local_passes = r.baseline.stats.passes.len() as i64;
    let serve_passes = reply.get("passes").and_then(Json::as_i64);
    if serve_passes != Some(local_passes) {
        out.push(format!(
            "[serve] pass count diverges: local ran {} passes, serve reports {:?}",
            local_passes, serve_passes
        ));
    }
    out
}

/// `linguist check` consistency: the local lint driver and the daemon's
/// `check` reply must agree on error/warning/note counts and the pass
/// count for the same source.
fn check_divergences(source: &str) -> Vec<String> {
    let local = check_source(source, &faithful(), &LintConfig::default());
    let mut client = connect();
    let reply = match client.check_source(source, None) {
        Ok(reply) => reply,
        Err(e) => return vec![format!("[check] transport failed: {}", e)],
    };
    if !is_ok(&reply) {
        return vec![format!("[check] daemon check failed: {}", reply)];
    }
    let mut out = Vec::new();
    let fields: [(&str, i64); 3] = [
        ("errors", local.errors() as i64),
        ("warnings", local.warnings() as i64),
        ("notes", local.notes() as i64),
    ];
    for (key, want) in fields {
        let got = reply.get(key).and_then(Json::as_i64);
        if got != Some(want) {
            out.push(format!(
                "[check] {} count diverges: local {}, serve {:?}",
                key, want, got
            ));
        }
    }
    let want_passes = local.passes.map(|p| p as i64);
    let got_passes = reply.get("passes").and_then(Json::as_i64);
    if got_passes != want_passes {
        out.push(format!(
            "[check] pass count diverges: local {:?}, serve {:?}",
            want_passes, got_passes
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// One case through all four modes + the check oracle.
// ---------------------------------------------------------------------------

/// The divergence messages, and the mode of the first: a local mode,
/// else `serve` (which covers the check oracle too).
fn oracle(source: &str, name: &str, budget: usize, scratch: &Path) -> (String, Vec<String>) {
    match run_case(source, budget, scratch) {
        Err(d) => (d.mode.clone(), vec![d.to_string()]),
        Ok(r) => {
            let mode = r
                .divergences
                .first()
                .map_or("serve", |d| &d.mode)
                .to_owned();
            let mut msgs: Vec<String> = r.divergences.iter().map(|d| d.to_string()).collect();
            msgs.extend(serve_divergences(source, name, budget, &r));
            msgs.extend(check_divergences(source));
            (mode, msgs)
        }
    }
}

/// Shrink a divergent case and pin it into the corpus. A candidate
/// counts as still failing only while leg 1 stays green and a divergence
/// in `mode`, the original's first, recurs (`reproduces`); a
/// compiled-leg failure probes with the compiled leg. Serve and check
/// divergences persist unshrunk: the local probe never reproduces them.
fn fail_case(sg: &ShapedGrammar, mode: &str, msgs: &[String]) -> ! {
    let probe_root = scratch_dir("minimize");
    let still_fails = |src: &str, budget: usize| -> bool {
        let dir = probe_root.join("probe");
        let _ = std::fs::remove_dir_all(&dir);
        let probe = run_case(src, budget, &dir);
        match (&probe, mode) {
            (Ok(r), "compiled") => !compiled_divergences(&sg.name, r).is_empty(),
            _ => reproduces(probe.as_ref(), mode),
        }
    };
    let (min_src, min_budget) = minimize(&sg.source, sg.params.budget, &still_fails);
    let _ = std::fs::remove_dir_all(&probe_root);
    let why = msgs.join("\n");
    let path = persist_fixture(Path::new(CORPUS_DIR), &sg.name, &min_src, min_budget, &why)
        .expect("persist divergent fixture");
    panic!(
        "differential divergence in {} (minimized fixture persisted to {}):\n{}",
        sg.name,
        path.display(),
        why
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole property: 64 randomized grammar shapes, each realized
    /// into analyzable `.lg` source, each executed through all four modes
    /// with byte-identical output required.
    #[test]
    fn generated_grammars_agree_across_all_four_modes(params in shape_strategy()) {
        let sg = realize(&params);
        let scratch = scratch_dir("case");
        let (mode, msgs) = oracle(&sg.source, &sg.name, sg.params.budget, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        if !msgs.is_empty() {
            fail_case(&sg, &mode, &msgs);
        }
    }
}

/// Satellite of the four-way oracle, aimed squarely at the
/// shared-nothing store: for every pinned fixture, an 8-worker batch on
/// the owned in-memory store must produce `encoded_outputs`
/// byte-identical to the sequential baseline.
#[test]
fn corpus_fixtures_batch_byte_identical_to_sequential() {
    use linguist_eval::batch::BatchEvaluator;
    use linguist_eval::machine::{evaluate, Backing, EvalOptions};
    use linguist_frontend::differential::eval_opts;
    use linguist_frontend::{analyze, synthesize_tree};

    let dir = Path::new(CORPUS_DIR);
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "lg"))
        .collect();
    fixtures.sort();
    let funcs = linguist_eval::Funcs::standard();
    for path in fixtures {
        let (source, budget) = load_fixture(&path).expect("read fixture");
        let analysis = analyze(&source, &faithful()).expect("fixture analyzes");
        let tree =
            synthesize_tree(&analysis.grammar, budget.max(1)).expect("fixture synthesizes a tree");
        let opts = eval_opts(&analysis);
        let baseline =
            evaluate(&analysis, &funcs, &tree, &opts).expect("sequential baseline succeeds");
        let want = encoded_outputs(&baseline);

        let batch_opts = EvalOptions {
            backing: Backing::Memory,
            ..opts
        };
        let trees: Vec<_> = (0..8).map(|_| tree.clone()).collect();
        let outcome = BatchEvaluator::with_options(8, batch_opts).run(&analysis, &funcs, &trees);
        assert_eq!(outcome.stats.failed, 0, "{}", path.display());
        for (j, result) in outcome.results.iter().enumerate() {
            let eval = result.as_ref().expect("batch job succeeds");
            assert_eq!(
                encoded_outputs(eval),
                want,
                "{} job {}: batch output diverges from the sequential baseline",
                path.display(),
                j
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The optimizer oracle, isolated: for each generated shape, the
    /// grammar-optimizer analysis must reproduce the unoptimized
    /// sequential baseline's `encoded_outputs` byte for byte over the
    /// same tree, and must never increase the pass count or the total
    /// records written (record elision only ever *removes* traffic).
    #[test]
    fn optimizer_is_byte_identical_and_never_adds_work(params in shape_strategy()) {
        use linguist_eval::machine::evaluate;
        use linguist_frontend::differential::eval_opts;
        use linguist_frontend::{analyze, synthesize_tree};

        let sg = realize(&params);
        let funcs = linguist_eval::Funcs::standard();
        let base = match analyze(&sg.source, &faithful()) {
            Ok(a) => a,
            Err(_) => return, // not analyzable: nothing to compare
        };
        let Some(tree) = synthesize_tree(&base.grammar, sg.params.budget.max(1)) else {
            return;
        };
        let base_opts = eval_opts(&base);
        let Ok(baseline) = evaluate(&base, &funcs, &tree, &base_opts) else {
            return; // runtime failures belong to the four-way oracle
        };

        let opt_cfg = Config { optimize: true, ..Config::default() };
        let opt = analyze(&sg.source, &opt_cfg)
            .unwrap_or_else(|e| panic!("{}: optimized analyze failed: {}", sg.name, e));
        let opt_opts = eval_opts(&opt);
        let opted = evaluate(&opt, &funcs, &tree, &opt_opts)
            .unwrap_or_else(|e| panic!("{}: optimized evaluation failed: {}", sg.name, e));

        prop_assert_eq!(
            encoded_outputs(&opted),
            encoded_outputs(&baseline),
            "{}: optimized outputs not byte-identical", sg.name
        );
        let (bm, om) = (&baseline.stats, &opted.stats);
        prop_assert!(
            om.passes.len() <= bm.passes.len(),
            "{}: optimizer raised pass count {} -> {}",
            sg.name, bm.passes.len(), om.passes.len()
        );
        let base_written: u64 = bm.passes.iter().map(|p| p.records_written).sum();
        let opt_written: u64 = om.passes.iter().map(|p| p.records_written).sum();
        prop_assert!(
            opt_written <= base_written,
            "{}: optimizer raised records written {} -> {}",
            sg.name, base_written, opt_written
        );
    }
}

/// Every fixture under `tests/corpus/` — seed regressions plus anything
/// the fuzzer ever persisted — replays through the full four-way oracle.
#[test]
fn corpus_fixtures_replay_clean() {
    let dir = Path::new(CORPUS_DIR);
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "lg"))
        .collect();
    fixtures.sort();
    assert!(
        !fixtures.is_empty(),
        "tests/corpus should hold at least the seed fixtures"
    );
    for path in fixtures {
        let (source, budget) = load_fixture(&path).expect("read fixture");
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("fixture has a utf-8 stem")
            .to_owned();
        let scratch = scratch_dir("corpus");
        let (_, msgs) = oracle(&source, &name, budget, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        assert!(
            msgs.is_empty(),
            "{} diverged on replay:\n{}",
            path.display(),
            msgs.join("\n")
        );
    }
}

// ---------------------------------------------------------------------------
// Mode 5: the compiled engine, as `linguist codegen` ships it.
// ---------------------------------------------------------------------------

/// Write the case's generated evaluator crate exactly as `linguist
/// codegen` writes it, build it with the cargo running this test (one
/// shared target directory, so `linguist-eval` compiles once), pipe the
/// boundary-0 file through the binary, and require the sequential
/// baseline's `encoded_outputs` on stdout.
fn compiled_divergences(name: &str, r: &CaseResult) -> Vec<String> {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("compiled-differential");
    let crate_name: String = format!("leg5_{}", name)
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    let dir = root.join("crates").join(&crate_name);
    for (rel, contents) in rustgen::crate_files(&r.analysis, &crate_name, true) {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().expect("crate file has a parent"))
            .expect("create crate dir");
        std::fs::write(&path, contents).expect("write crate file");
    }
    let target = root.join("target");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let build = Command::new(cargo)
        .args(["build", "--offline", "-q", "--manifest-path"])
        .arg(dir.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .output()
        .expect("run cargo build");
    if !build.status.success() {
        return vec![format!(
            "[compiled] generated crate did not build:\n{}",
            String::from_utf8_lossy(&build.stderr)
        )];
    }

    let mut w = AptWriter::create_owned();
    let written = match strategy_for(&r.analysis) {
        Strategy::BottomUp => {
            r.tree
                .write_postfix(&r.analysis.grammar, &r.analysis.lifetimes, &mut w)
        }
        Strategy::Prefix => r
            .tree
            .write_prefix(&r.analysis.grammar, &r.analysis.lifetimes, &mut w),
    };
    written.expect("owned writer accepts the baseline tree");
    let input = w.finish_owned().expect("owned writer seals").1;
    let mut child = Command::new(target.join("debug").join(&crate_name))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn generated evaluator");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(&input)
        .expect("feed boundary-0 file");
    let run = child
        .wait_with_output()
        .expect("wait for generated evaluator");
    if !run.status.success() {
        return vec![format!(
            "[compiled] generated evaluator failed ({}): {}",
            run.status,
            String::from_utf8_lossy(&run.stderr)
        )];
    }
    let want = encoded_outputs(&r.baseline);
    if run.stdout == want {
        return Vec::new();
    }
    let at = run
        .stdout
        .iter()
        .zip(want.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| run.stdout.len().min(want.len()));
    vec![format!(
        "[compiled] output bytes diverge at offset {} (compiled {} bytes, interpreter {} bytes)",
        at,
        run.stdout.len(),
        want.len()
    )]
}

/// The fifth (compiled-engine) leg over every pinned fixture: each
/// fixture's generated evaluator crate is built and must emit
/// `encoded_outputs` byte-identical to the sequential interpreter.
#[test]
fn corpus_fixtures_compiled_byte_identical() {
    let dir = Path::new(CORPUS_DIR);
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "lg"))
        .collect();
    fixtures.sort();
    assert!(!fixtures.is_empty());
    for path in fixtures {
        let (source, budget) = load_fixture(&path).expect("read fixture");
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("fixture has a utf-8 stem")
            .to_owned();
        let scratch = scratch_dir("corpus-compiled");
        let result = run_case(&source, budget, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        let r = result.unwrap_or_else(|d| panic!("{}: no baseline: {}", path.display(), d));
        let msgs = compiled_divergences(&name, &r);
        assert!(
            msgs.is_empty(),
            "{}: compiled engine diverged:\n{}",
            path.display(),
            msgs.join("\n")
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compiled-engine fuzz sweep: randomized grammars through the local
    /// oracle *plus* the fifth leg. `#[ignore]`d in the default suite —
    /// each grammar costs one cargo build — and run explicitly by
    /// `scripts/verify.sh` over 64 cases.
    #[test]
    #[ignore = "compiled differential sweep; run explicitly (scripts/verify.sh)"]
    fn generated_grammars_agree_with_compiled_engine(params in shape_strategy()) {
        let sg = realize(&params);
        let scratch = scratch_dir("compiled-case");
        let result = run_case(&sg.source, sg.params.budget, &scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        let (mode, msgs) = match result {
            Err(d) => (d.mode.clone(), vec![d.to_string()]),
            Ok(r) => {
                let mode = r.divergences.first().map_or("compiled", |d| &d.mode).to_owned();
                let mut msgs: Vec<String> = r.divergences.iter().map(|d| d.to_string()).collect();
                msgs.extend(compiled_divergences(&sg.name, &r));
                (mode, msgs)
            }
        };
        if !msgs.is_empty() {
            fail_case(&sg, &mode, &msgs);
        }
    }
}
