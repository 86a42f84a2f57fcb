//! End-to-end translator tests: LINGUIST source in, working translator
//! out, concrete input evaluated through the file-resident APT.

use linguist_eval::funcs::Funcs;
use linguist_eval::machine::{EvalOptions, Strategy};
use linguist_eval::value::Value;
use linguist_frontend::driver::{run, DriverOptions};
use linguist_frontend::Translator;
use linguist_lexgen::ScannerDef;
use std::time::Duration;

/// A desk calculator: sums and differences over integers, with a running
/// position attribute flowing down (to exercise inherited flow).
const CALC: &str = r#"
# A desk calculator in the LINGUIST input language.
grammar Calc ;

terminals
  NUMBER : intrinsic VAL int ;
  PLUS ;
  MINUS ;
nonterminals
  expr : syn V int ;
  term : syn V int ;

start expr ;

productions
prod expr0 = expr1 PLUS term :
  expr0.V = expr1.V + term.V ;
end
prod expr0 = expr1 MINUS term :
  expr0.V = expr1.V - term.V ;
end
prod expr0 = term :
  expr0.V = term.V ;
end
prod term = NUMBER :
  term.V = NUMBER.VAL ;
end
end
"#;

fn calc_translator() -> Translator {
    let out = run(CALC, &DriverOptions::default()).expect("calc grammar analyzes");
    let scanner = ScannerDef::new()
        .skip(r"[ \t\n]+")
        .token("NUMBER", "[0-9]+")
        .token("PLUS", r"\+")
        .token("MINUS", "-")
        .build()
        .expect("calc scanner");
    Translator::new(out.analysis, scanner).expect("calc CFG is LALR(1)")
}

#[test]
fn calculator_translates_arithmetic() {
    let t = calc_translator();
    let funcs = Funcs::standard();
    let opts = EvalOptions::default();
    for (input, expect) in [("1+2", 3i64), ("10-3-4", 3), ("7", 7), ("1+2+3+4+5-6", 9)] {
        let result = t.translate(input, &funcs, &opts).expect(input);
        assert_eq!(
            result.output(&t.analysis, "V"),
            Some(&Value::Int(expect)),
            "{}",
            input
        );
    }
}

#[test]
fn calculator_rejects_bad_input() {
    let t = calc_translator();
    let funcs = Funcs::standard();
    let opts = EvalOptions::default();
    let err = t.translate("1++2", &funcs, &opts).unwrap_err();
    assert!(err.to_string().contains("syntax error"));
    let err = t.translate("1 + $", &funcs, &opts).unwrap_err();
    assert!(err.to_string().contains("no token rule"));
}

#[test]
fn driver_reports_overlays_and_listing() {
    let out = run(CALC, &DriverOptions::default()).unwrap();
    assert_eq!(out.stats.productions, 4);
    assert_eq!(out.stats.passes, 1);
    assert!(out.listing.contains("PRODUCTIONS"));
    assert!(out.listing.contains("# pass 1"));
    assert!(out.listing.contains("STATISTICS"));
    assert_eq!(out.timings.generation.len(), 1);
    // The circularity test is timed as a part of overlay 4.
    let t = &out.timings;
    assert!(t.circularity > Duration::ZERO && t.circularity <= t.evaluability);
    assert!(t.to_string().contains("of which circularity"));
    assert!(out.lines_per_minute() > 0.0);
    assert_eq!(out.generated.passes.len(), 1);
    assert!(out.generated.passes[0].source.contains("procedure"));
}

#[test]
fn inherited_flow_through_translator() {
    // A language where each leaf's value is scaled by a depth attribute
    // inherited from above: exercises inherited rules through parsing.
    let src = r#"
grammar Depth ;
terminals
  x : intrinsic OBJ int ;
  L ;
  R ;
nonterminals
  tree : syn SUM int ;
  wrapped : syn SUM int, inh D int ;

start tree ;

productions
prod tree = wrapped :
  wrapped.D = 1 ;
  tree.SUM = wrapped.SUM ;
end
prod wrapped0 = L wrapped1 R :
  wrapped1.D = wrapped0.D + 1 ;
  wrapped0.SUM = wrapped1.SUM ;
end
prod wrapped = x :
  wrapped.SUM = wrapped.D ;
end
end
"#;
    let out = run(src, &DriverOptions::default()).unwrap();
    let scanner = ScannerDef::new()
        .skip(r"[ \t\n]+")
        .token("x", "x")
        .token("L", r"\(")
        .token("R", r"\)")
        .build()
        .unwrap();
    let t = Translator::new(out.analysis, scanner).unwrap();
    let funcs = Funcs::standard();
    let opts = EvalOptions::default();
    // ((x)) : depth = 3.
    let r = t.translate("((x))", &funcs, &opts).unwrap();
    assert_eq!(r.output(&t.analysis, "SUM"), Some(&Value::Int(3)));
    let r = t.translate("x", &funcs, &opts).unwrap();
    assert_eq!(r.output(&t.analysis, "SUM"), Some(&Value::Int(1)));
}

#[test]
fn multi_pass_language_translates() {
    // Right-to-left flow: every leaf's displayed value is the value of
    // the *rightmost* leaf (needs information to travel right-to-left,
    // then the result synthesized in a later pass).
    let src = r#"
grammar Rightmost ;
terminals
  n : intrinsic VAL int ;
nonterminals
  list : syn LAST int, syn OUT int ;
  item : syn V int ;

start list ;

productions
prod list0 = list1 item :
  list0.LAST = item.V ;
  list0.OUT = list0.LAST ;
end
prod list0 = item :
  list0.LAST = item.V ;
  list0.OUT = list0.LAST ;
end
prod item = n :
  item.V = n.VAL ;
end
end
"#;
    let out = run(src, &DriverOptions::default()).unwrap();
    let scanner = ScannerDef::new()
        .skip(r"[ \t\n]+")
        .token("n", "[0-9]+")
        .build()
        .unwrap();
    let t = Translator::new(out.analysis, scanner).unwrap();
    let r = t
        .translate("1 2 3 9", &Funcs::standard(), &EvalOptions::default())
        .unwrap();
    assert_eq!(r.output(&t.analysis, "OUT"), Some(&Value::Int(9)));
}

#[test]
fn default_strategy_is_bottom_up_first_pass_right_to_left() {
    // The driver's default configuration matches the paper: "LINGUIST-86
    // itself uses the first method" (bottom-up emission, first pass R-L).
    let out = run(CALC, &DriverOptions::default()).unwrap();
    assert_eq!(
        out.analysis.passes.direction(1),
        linguist_ag::passes::Direction::RightToLeft
    );
    let opts = EvalOptions {
        strategy: Strategy::BottomUp,
        ..EvalOptions::default()
    };
    let scanner = ScannerDef::new()
        .skip(r"[ \t\n]+")
        .token("NUMBER", "[0-9]+")
        .token("PLUS", r"\+")
        .token("MINUS", "-")
        .build()
        .unwrap();
    let t = Translator::new(out.analysis, scanner).unwrap();
    let r = t.translate("2+2", &Funcs::standard(), &opts).unwrap();
    assert_eq!(r.output(&t.analysis, "V"), Some(&Value::Int(4)));
}

#[test]
fn unbound_scanner_token_is_rejected() {
    let out = run(CALC, &DriverOptions::default()).unwrap();
    let scanner = ScannerDef::new()
        .token("NUMBER", "[0-9]+")
        .token("STRANGE", "@")
        .build()
        .unwrap();
    let err = Translator::new(out.analysis, scanner).unwrap_err();
    assert!(err.to_string().contains("STRANGE"));
}

#[test]
fn batch_isolates_failures_and_reports_them_typed() {
    use linguist_frontend::driver::{run_batch, DriverError};

    // Two good grammars around one that every overlay rejects: the batch
    // must finish with the failure typed in its own slot, the siblings
    // untouched, and no panic-classified failures.
    let broken = "grammar Broken ; this is not linguist source";
    let sources = [CALC, broken, CALC];
    let (results, stats) = run_batch(&sources, &DriverOptions::default(), 3);

    assert_eq!(stats.jobs, 3);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.panicked, 0, "a syntax error is not a panic");
    assert!(results[0].is_ok());
    assert!(results[2].is_ok());
    match &results[1] {
        Err(DriverError::Syntax(_)) => {}
        other => panic!("expected a typed syntax error, got {:?}", other.is_ok()),
    }
}
