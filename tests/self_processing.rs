//! Self-processing: the LINGUIST meta attribute grammar, run as a
//! generated translator, processes LINGUIST source files — including its
//! own 700-line definition. This is the reproduction of the paper's
//! headline property ("LINGUIST-86 is itself written as an 1800-line
//! attribute grammar and is self-generating") at the level our substrate
//! supports: the system builds a translator from the meta grammar, and
//! that translator's outputs agree with the system's own analysis of the
//! same file.

use linguist86::ag::analysis::Config;
use linguist86::eval::funcs::Funcs;
use linguist86::eval::machine::EvalOptions;
use linguist86::eval::value::Value;
use linguist86::frontend::driver::{run, DriverOptions};
use linguist86::frontend::Translator;
use linguist86::grammars::{block_source, calc_source, meta_scanner, meta_source, pascal_source};

fn meta_translator() -> Translator {
    let out = run(meta_source(), &DriverOptions::default()).expect("meta grammar analyzes");
    Translator::new(out.analysis, meta_scanner()).expect("meta CFG is LALR(1)")
}

fn int_output(v: Option<&Value>) -> i64 {
    match v {
        Some(Value::Int(i)) => *i,
        other => panic!("expected int output, got {:?}", other),
    }
}

#[test]
fn meta_translator_processes_its_own_source() {
    let t = meta_translator();
    let result = t
        .translate(meta_source(), &Funcs::standard(), &EvalOptions::default())
        .expect("meta grammar lints itself");

    // Cross-validation: the meta evaluator's counts must agree with the
    // front end's own analysis of the same file.
    let own = run(meta_source(), &DriverOptions::default()).unwrap();
    assert_eq!(
        int_output(result.output(&t.analysis, "NPRODS")),
        own.stats.productions as i64,
        "the meta evaluator counts the same productions the front end parses"
    );
    assert_eq!(
        int_output(result.output(&t.analysis, "NSYMS")),
        own.stats.symbols as i64,
        "…and the same symbol declarations"
    );
    // The meta grammar is clean: no duplicate, undeclared, or unused
    // symbols in its own source.
    assert_eq!(int_output(result.output(&t.analysis, "NMSGS")), 0);
    assert_eq!(int_output(result.output(&t.analysis, "NUNUSED")), 0);
    // Four alternating passes were executed over the file-resident APT.
    assert_eq!(result.stats.passes.len(), 4);
    assert!(result.stats.passes.iter().all(|p| p.bytes_read > 0));
}

#[test]
fn meta_translator_processes_the_other_bundled_grammars() {
    let t = meta_translator();
    let funcs = Funcs::standard();
    let opts = EvalOptions::default();
    for (name, src) in [
        ("calc", calc_source()),
        ("pascal", pascal_source()),
        ("block", block_source()),
    ] {
        let result = t.translate(src, &funcs, &opts).expect(name);
        let own = run(src, &DriverOptions::default()).unwrap();
        assert_eq!(
            int_output(result.output(&t.analysis, "NPRODS")),
            own.stats.productions as i64,
            "{}",
            name
        );
        assert_eq!(
            int_output(result.output(&t.analysis, "NMSGS")),
            0,
            "{} is lint-clean",
            name
        );
    }
}

#[test]
fn meta_translator_reports_duplicate_symbols() {
    let t = meta_translator();
    let src = r#"
grammar Dup ;
nonterminals
  s : syn V int ;
  s : syn W int ;
start s ;
productions
prod s = :
  s.V = 1 ;
end
end
"#;
    let r = t
        .translate(src, &Funcs::standard(), &EvalOptions::default())
        .unwrap();
    assert!(int_output(r.output(&t.analysis, "NMSGS")) >= 1);
}

#[test]
fn meta_translator_reports_undeclared_symbols() {
    let t = meta_translator();
    let src = r#"
grammar Undecl ;
nonterminals
  s : syn V int ;
start s ;
productions
prod s = mystery :
  s.V = 1 ;
end
end
"#;
    let r = t
        .translate(src, &Funcs::standard(), &EvalOptions::default())
        .unwrap();
    assert!(int_output(r.output(&t.analysis, "NMSGS")) >= 1);
}

#[test]
fn meta_translator_reports_unused_symbols() {
    let t = meta_translator();
    let src = r#"
grammar Unused ;
terminals
  ghost ;
nonterminals
  s : syn V int ;
start s ;
productions
prod s = :
  s.V = 1 ;
end
end
"#;
    let r = t
        .translate(src, &Funcs::standard(), &EvalOptions::default())
        .unwrap();
    assert_eq!(int_output(r.output(&t.analysis, "NUNUSED")), 1);
    assert!(int_output(r.output(&t.analysis, "NMSGS")) >= 1);
}

#[test]
fn meta_grammar_exercises_static_subsumption_heavily() {
    // The meta grammar is copy-chain heavy (like the original): static
    // subsumption must find a substantial number of subsumable copies
    // in the paper-faithful grammar, before the optimizer collapses any.
    let faithful = DriverOptions {
        config: Config {
            optimize: false,
            ..Config::default()
        },
        ..DriverOptions::default()
    };
    let out = run(meta_source(), &faithful).unwrap();
    let stats = out.analysis.subsumption.stats(&out.analysis.grammar);
    assert!(
        stats.subsumed_rules > 20,
        "subsumed {} of {} copy rules",
        stats.subsumed_rules,
        stats.copy_rules
    );
}

#[test]
fn subsumption_protocol_clean_on_self_processing() {
    // While the meta translator processes its own source, every subsumed
    // copy's global-variable shortcut is verified against the reference
    // value; none may need repair on this workload.
    let t = meta_translator();
    let r = t
        .translate(calc_source(), &Funcs::standard(), &EvalOptions::default())
        .unwrap();
    assert!(r.stats.globals_checked > 0);
    assert_eq!(
        r.stats.globals_repaired, 0,
        "no clobbered globals while linting calc.lg"
    );
}
