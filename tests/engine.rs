//! Compiled-engine integration tests.
//!
//! The engine's contract is *byte-identity with the interpreter*: a
//! compiled evaluator (AOT or JIT) must produce exactly the bytes the
//! interpreter's encoded outputs produce, on every bundled grammar, and
//! every failure along the build ladder must degrade to the interpreter
//! with a typed [`FallbackReason`] — never a panic, never a silently
//! different answer.
//!
//! Also here: the AOT freshness pin (the checked-in generated sources
//! under `crates/engine/generated/` must equal what `rustgen` emits
//! today from the default analysis — this is the golden test for the
//! `meta` grammar and its four siblings) and the on-demand build-cache
//! properties (content-hash reuse, concurrent single-flight,
//! stale-artifact sweeping).

use linguist86::ag::ids::AttrId;
use linguist86::engine::jit::{rustc_available, JitCache};
use linguist86::engine::{Engine, EngineConfig, EngineKind, FallbackReason};
use linguist86::eval::machine::EvalOptions;
use linguist86::eval::tree::PTree;
use linguist86::eval::value::Value;
use linguist86::eval::Funcs;
use linguist86::frontend::differential::strategy_for;
use linguist86::frontend::synthesize_tree;
use linguist86::frontend::translate::standard_intrinsics;
use linguist86::frontend::Translator;
use linguist86::grammars::{
    analyze, block_scanner, block_source, calc_scanner, calc_source, knuth_source, meta_source,
    pascal_source,
};
use linguist_ag::analysis::{Analysis, Config};
use linguist_codegen::rustgen;
use linguist_support::intern::NameTable;
use std::path::PathBuf;
use std::time::Duration;

fn encoded_outputs(outputs: &[(AttrId, Value)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (a, v) in outputs {
        bytes.extend_from_slice(&a.0.to_le_bytes());
        v.encode(&mut bytes);
    }
    bytes
}

fn opts_for(analysis: &Analysis) -> EvalOptions {
    EvalOptions {
        strategy: strategy_for(analysis),
        ..EvalOptions::default()
    }
}

/// The paper-faithful analysis: the grammar optimizer off.
fn faithful(source: &str) -> Analysis {
    linguist86::frontend::driver::analyze(
        source,
        &Config {
            optimize: false,
            ..Config::default()
        },
    )
    .expect("bundled grammar analyzes")
}

fn bundled() -> Vec<(&'static str, &'static str)> {
    vec![
        ("calc", calc_source()),
        ("knuth", knuth_source()),
        ("block", block_source()),
        ("meta", meta_source()),
        ("pascal", pascal_source()),
    ]
}

/// Deterministic trees for any bundled grammar: budget-grown synthesis
/// (the same helper serve uses), several sizes per grammar.
fn trees_for(name: &str, analysis: &Analysis) -> Vec<PTree> {
    // Knuth budgets stay small: each extra bit raises the SCALE
    // exponent and `Pow2` rejects exponents past 62.
    let budgets: Vec<usize> = if name == "knuth" {
        vec![8, 16, 24, 40]
    } else {
        vec![16, 40, 90, 140]
    };
    budgets
        .into_iter()
        .filter_map(|b| synthesize_tree(&analysis.grammar, b))
        .collect()
}

fn fresh_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "linguist-engine-test-{}-{}",
        std::process::id(),
        tag
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The checked-in AOT sources must equal what `rustgen` emits today
/// from the default analysis. This is the golden pin for the `meta`
/// grammar's generated evaluator (and the other four): any codegen
/// change must regenerate them via `cargo run --example gen_aot`.
#[test]
fn aot_sources_are_fresh() {
    for (name, src) in bundled() {
        let analysis = analyze(src).expect("bundled grammar analyzes").analysis;
        let want = rustgen::rust_source(&analysis);
        let dir_name = format!("{}_opt", name);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("crates/engine/generated")
            .join(&dir_name)
            .join("src/lib.rs");
        let got = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: read {}: {}", dir_name, path.display(), e));
        assert_eq!(
            got, want,
            "{}: checked-in AOT source is stale; rerun `cargo run --example gen_aot`",
            dir_name
        );
    }
}

/// AOT route resolves for all five bundled grammars and produces
/// byte-identical outputs to the interpreter on synthesized trees.
#[test]
fn aot_byte_identity_all_bundled_grammars() {
    let engine = Engine::new(EngineConfig {
        kind: EngineKind::CompiledAot,
        ..EngineConfig::default()
    });
    let funcs = Funcs::standard();
    for (name, src) in bundled() {
        let analysis = analyze(src).expect("analyzes").analysis;
        let prepared = engine.prepare(&analysis);
        assert_eq!(
            prepared.effective(),
            EngineKind::CompiledAot,
            "{}: expected AOT route, got fallback {:?}",
            name,
            prepared.fallback()
        );
        let opts = opts_for(&analysis);
        let trees = trees_for(name, &analysis);
        assert!(!trees.is_empty(), "{}: no synthesized trees", name);
        for (i, tree) in trees.iter().enumerate() {
            let interp = linguist86::eval::machine::evaluate(&analysis, &funcs, tree, &opts)
                .unwrap_or_else(|e| panic!("{}: interpreter failed on tree {}: {:?}", name, i, e));
            let raw = engine
                .compiled_output_bytes(&prepared, &analysis, tree, &opts)
                .unwrap_or_else(|e| panic!("{}: compiled run failed on tree {}: {}", name, i, e));
            assert_eq!(
                raw,
                encoded_outputs(&interp.outputs),
                "{}: compiled output bytes diverge on tree {}",
                name,
                i
            );
            // The full evaluate() path must decode to outputs that
            // re-encode to the same bytes (set/map order restored).
            let outcome = engine.evaluate(&prepared, &analysis, &funcs, tree, &opts);
            assert_eq!(outcome.engine_used, EngineKind::CompiledAot);
            assert!(outcome.fallback.is_none());
            let eval = outcome.result.expect("compiled evaluation succeeds");
            assert_eq!(
                encoded_outputs(&eval.outputs),
                encoded_outputs(&interp.outputs),
                "{}: decoded outputs re-encode differently on tree {}",
                name,
                i
            );
            assert_eq!(eval.outputs, interp.outputs, "{}: value inequality", name);
        }
    }
    assert!(engine.counters().aot_runs > 0);
    assert_eq!(engine.counters().fallbacks, 0);
}

/// The `*_opt` AOT evaluators' output bytes must equal the
/// **unoptimized** interpreter's — the optimizer is semantics-preserving
/// all the way through codegen.
#[test]
fn aot_byte_identity_optimized_variants() {
    let engine = Engine::new(EngineConfig {
        kind: EngineKind::CompiledAot,
        ..EngineConfig::default()
    });
    let funcs = Funcs::standard();
    for (name, src) in bundled() {
        let base = faithful(src);
        let opt = analyze(src).expect("analyzes").analysis;
        let prepared = engine.prepare(&opt);
        assert_eq!(
            prepared.effective(),
            EngineKind::CompiledAot,
            "{}_opt: expected AOT route, got fallback {:?}",
            name,
            prepared.fallback()
        );
        let trees = trees_for(name, &base);
        assert!(!trees.is_empty(), "{}: no synthesized trees", name);
        for (i, tree) in trees.iter().enumerate() {
            let interp = linguist86::eval::machine::evaluate(&base, &funcs, tree, &opts_for(&base))
                .unwrap_or_else(|e| panic!("{}: interpreter failed on tree {}: {:?}", name, i, e));
            let raw = engine
                .compiled_output_bytes(&prepared, &opt, tree, &opts_for(&opt))
                .unwrap_or_else(|e| {
                    panic!("{}_opt: compiled run failed on tree {}: {}", name, i, e)
                });
            assert_eq!(
                raw,
                encoded_outputs(&interp.outputs),
                "{}_opt: optimized compiled output diverges from the \
                 unoptimized interpreter on tree {}",
                name,
                i
            );
        }
    }
    assert_eq!(engine.counters().fallbacks, 0);
}

/// Same identity check through real parsed inputs (scanner front end)
/// rather than synthesized trees.
#[test]
fn aot_byte_identity_parsed_inputs() {
    let engine = Engine::new(EngineConfig {
        kind: EngineKind::CompiledAot,
        ..EngineConfig::default()
    });
    let funcs = Funcs::standard();
    let cases: Vec<(&str, &str, linguist86::lexgen::Scanner, Vec<String>)> = vec![
        (
            "calc",
            calc_source(),
            calc_scanner(),
            (0..6)
                .map(|i| format!("{} + {} * ({} + 2) - {}", i, i % 7 + 1, i % 11 + 2, i % 13))
                .collect(),
        ),
        (
            "block",
            block_source(),
            block_scanner(),
            vec![linguist86::grammars::block_program(4, 3)],
        ),
    ];
    for (name, src, scanner, inputs) in cases {
        let analysis = analyze(src).expect("analyzes").analysis;
        let tr = Translator::new(analysis, scanner).expect("translator builds");
        let prepared = engine.prepare(&tr.analysis);
        assert_eq!(prepared.effective(), EngineKind::CompiledAot, "{}", name);
        let opts = opts_for(&tr.analysis);
        for input in &inputs {
            let mut names = NameTable::new();
            let tree = tr
                .parse_input(input, &standard_intrinsics, &mut names)
                .expect("parses");
            let interp =
                linguist86::eval::machine::evaluate(&tr.analysis, &funcs, &tree, &opts).unwrap();
            let raw = engine
                .compiled_output_bytes(&prepared, &tr.analysis, &tree, &opts)
                .unwrap();
            assert_eq!(raw, encoded_outputs(&interp.outputs), "{}: {}", name, input);
        }
    }
}

/// A grammar outside the bundled five misses the AOT registry and
/// degrades to the interpreter with a typed reason — the evaluation
/// still succeeds.
#[test]
fn aot_miss_degrades_to_interpreter() {
    let source = "\
grammar Tiny ;

terminals
  X : intrinsic OBJ int ;
nonterminals
  s : syn V int ;

start s ;

productions
prod s = X :
  s.V = X.OBJ + 1 ;
end
end
";
    let out = analyze(source).expect("tiny grammar analyzes");
    let engine = Engine::new(EngineConfig {
        kind: EngineKind::CompiledAot,
        ..EngineConfig::default()
    });
    let prepared = engine.prepare(&out.analysis);
    assert_eq!(prepared.effective(), EngineKind::Interpreted);
    match prepared.fallback() {
        Some(FallbackReason::AotMiss(h)) => assert_eq!(h.len(), 16),
        other => panic!("expected AotMiss, got {:?}", other),
    }
    let funcs = Funcs::standard();
    let tree = synthesize_tree(&out.analysis.grammar, 8).expect("tree");
    let opts = opts_for(&out.analysis);
    let outcome = engine.evaluate(&prepared, &out.analysis, &funcs, &tree, &opts);
    assert_eq!(outcome.engine_used, EngineKind::Interpreted);
    assert!(matches!(outcome.fallback, Some(FallbackReason::AotMiss(_))));
    outcome.result.expect("interpreter still evaluates");

    // The paper-faithful analyses of the bundled grammars have no
    // checked-in evaluator either: `--opt=off --engine aot` runs on the
    // interpreter.
    for (name, src) in bundled() {
        let prepared = engine.prepare(&faithful(src));
        assert!(
            matches!(prepared.fallback(), Some(FallbackReason::AotMiss(_))),
            "{}: faithful analysis should miss the AOT registry, got {:?}",
            name,
            prepared.fallback()
        );
    }
}

/// JIT: first prepare compiles once, second prepare (same grammar, same
/// engine) compiles zero times, and outputs are byte-identical to the
/// interpreter.
#[test]
fn jit_byte_identity_and_hash_reuse() {
    if !rustc_available() {
        eprintln!("SKIP: rustc not available; JIT path untestable here");
        return;
    }
    let cache = fresh_cache("reuse");
    let engine = Engine::new(EngineConfig {
        kind: EngineKind::CompiledJit,
        optimize: false,
        cache_dir: Some(cache.clone()),
    });
    let analysis = analyze(calc_source()).unwrap().analysis;
    let funcs = Funcs::standard();
    let opts = opts_for(&analysis);

    let prepared = engine.prepare(&analysis);
    assert_eq!(
        prepared.effective(),
        EngineKind::CompiledJit,
        "fallback: {:?}",
        prepared.fallback()
    );
    assert_eq!(engine.jit_cache().compiles(), 1);

    // Second load: content-hash hit, zero compiles.
    let prepared2 = engine.prepare(&analysis);
    assert_eq!(prepared2.effective(), EngineKind::CompiledJit);
    assert_eq!(
        engine.jit_cache().compiles(),
        1,
        "second load must not recompile"
    );

    for tree in trees_for("calc", &analysis) {
        let interp = linguist86::eval::machine::evaluate(&analysis, &funcs, &tree, &opts).unwrap();
        let raw = engine
            .compiled_output_bytes(&prepared, &analysis, &tree, &opts)
            .expect("jit run succeeds");
        assert_eq!(raw, encoded_outputs(&interp.outputs));
        let outcome = engine.evaluate(&prepared, &analysis, &funcs, &tree, &opts);
        assert_eq!(outcome.engine_used, EngineKind::CompiledJit);
        assert_eq!(
            encoded_outputs(&outcome.result.expect("ok").outputs),
            encoded_outputs(&interp.outputs)
        );
    }
    let _ = std::fs::remove_dir_all(&cache);
}

/// Concurrent builds of the same grammar single-flight down to one
/// `rustc` invocation.
#[test]
fn jit_concurrent_single_flight() {
    if !rustc_available() {
        eprintln!("SKIP: rustc not available; JIT path untestable here");
        return;
    }
    let cache = fresh_cache("singleflight");
    let analysis = analyze(calc_source()).unwrap().analysis;
    let source = rustgen::rust_source(&analysis);
    let hash = rustgen::content_hash(source.as_bytes());
    let jit = JitCache::new(cache.clone(), false);
    std::thread::scope(|scope| {
        for _ in 0..6 {
            scope.spawn(|| {
                let bin = jit.ensure_built(&hash, &source).expect("build succeeds");
                assert!(bin.is_file());
            });
        }
    });
    assert_eq!(jit.compiles(), 1, "exactly one rustc invocation");
    let _ = std::fs::remove_dir_all(&cache);
}

/// `sweep_stale` removes orphaned `.tmp-` build directories and leaves
/// installed artifacts alone.
#[test]
fn jit_sweep_stale_removes_orphans() {
    let cache = fresh_cache("sweep");
    let jit = JitCache::new(cache.clone(), false);
    // Fake an installed artifact and two crashed builds.
    let installed = cache.join("deadbeefdeadbeef");
    std::fs::create_dir_all(&installed).unwrap();
    std::fs::write(installed.join("evaluator"), b"bin").unwrap();
    for orphan in ["0123456789abcdef.tmp-99999", "feedfacefeedface.tmp-1"] {
        let d = cache.join(orphan);
        std::fs::create_dir_all(&d).unwrap();
        std::fs::write(d.join("evaluator.rs"), b"fn main() {}").unwrap();
    }
    let removed = jit.sweep_stale(Duration::ZERO);
    assert_eq!(removed, 2);
    assert!(installed.join("evaluator").is_file(), "artifact survives");
    assert!(!cache.join("0123456789abcdef.tmp-99999").exists());
    let _ = std::fs::remove_dir_all(&cache);
}

/// Regression (satellite): a generated source that fails to compile
/// degrades to the interpreter with a typed `CompileFailed` — no panic,
/// and the evaluation still returns the interpreter's answer.
#[test]
fn broken_generated_source_degrades_typed() {
    if !rustc_available() {
        eprintln!("SKIP: rustc not available; compile-failure path untestable here");
        return;
    }
    let cache = fresh_cache("broken");
    let engine = Engine::new(EngineConfig {
        kind: EngineKind::CompiledJit,
        optimize: false,
        cache_dir: Some(cache.clone()),
    });
    // A deliberately broken "generated" evaluator.
    let prepared = engine.prepare_jit_source("fn main( { this is not rust");
    assert_eq!(prepared.effective(), EngineKind::Interpreted);
    match prepared.fallback() {
        Some(FallbackReason::CompileFailed(stderr)) => {
            assert!(!stderr.is_empty(), "compiler stderr captured");
        }
        other => panic!("expected CompileFailed, got {:?}", other),
    }
    // Evaluation still succeeds via the interpreter, reason attached.
    let analysis = analyze(calc_source()).unwrap().analysis;
    let funcs = Funcs::standard();
    let opts = opts_for(&analysis);
    let tree = synthesize_tree(&analysis.grammar, 16).expect("tree");
    let outcome = engine.evaluate(&prepared, &analysis, &funcs, &tree, &opts);
    assert_eq!(outcome.engine_used, EngineKind::Interpreted);
    assert!(matches!(
        outcome.fallback,
        Some(FallbackReason::CompileFailed(_))
    ));
    outcome.result.expect("interpreter result");
    assert_eq!(engine.counters().fallbacks, 1);
    assert_eq!(
        engine.jit_cache().compiles(),
        0,
        "failed builds don't count"
    );
    let _ = std::fs::remove_dir_all(&cache);
}

/// The AOT registry exposes all five bundled grammars' optimized
/// evaluators under distinct hashes.
#[test]
fn aot_registry_lists_bundled() {
    let reg = linguist86::engine::aot_registry();
    let names: Vec<&str> = reg.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        vec![
            "calc_opt",
            "knuth_opt",
            "block_opt",
            "meta_opt",
            "pascal_opt",
        ]
    );
    for (_, hash) in &reg {
        assert_eq!(hash.len(), 16);
    }
    let mut hashes: Vec<&String> = reg.iter().map(|(_, h)| h).collect();
    hashes.sort();
    hashes.dedup();
    assert_eq!(
        hashes.len(),
        reg.len(),
        "bundled grammars must content-address apart"
    );
}
