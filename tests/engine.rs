//! Compiled-engine integration tests.
//!
//! The engine's contract is *byte-identity with the interpreter*: a
//! compiled evaluator must produce exactly the bytes the interpreter's
//! encoded outputs produce, on every bundled grammar, and every miss or
//! compiled-side failure must degrade to the interpreter with a typed
//! [`FallbackReason`] — never a panic, never a silently different answer.
//!
//! Also here: the AOT freshness pin (the checked-in generated sources
//! under `crates/engine/generated/` must equal what `rustgen` emits
//! today from the default analysis — this is the golden test for the
//! `meta` grammar and its four siblings).

use linguist86::engine::{Engine, EngineConfig, EngineKind, FallbackReason};
use linguist86::eval::compiled::encode_outputs as encoded_outputs;
use linguist86::eval::machine::EvalOptions;
use linguist86::eval::tree::PTree;
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
            // The full evaluate() path returns the same outputs.
            let outcome = engine.evaluate(&prepared, &analysis, &funcs, tree, &opts);
            assert_eq!(outcome.engine_used, EngineKind::CompiledAot);
            assert!(outcome.fallback.is_none());
            let eval = outcome.result.expect("compiled evaluation succeeds");
            assert_eq!(
                encoded_outputs(&eval.outputs),
                encoded_outputs(&interp.outputs),
                "{}: evaluate() outputs encode differently on tree {}",
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
