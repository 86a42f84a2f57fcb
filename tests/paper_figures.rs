//! Reproductions of the paper's worked figures (experiments E1–E6).

use linguist86::ag::analysis::Config;
use linguist86::ag::passes::{Direction, PassConfig};
use linguist86::codegen::{emit_procedure, Target};
use linguist86::eval::funcs::Funcs;
use linguist86::eval::machine::{EvalOptions, Strategy};
use linguist86::eval::value::Value;
use linguist86::frontend::driver::{run, DriverOptions};
use linguist86::frontend::Translator;
use linguist86::lexgen::ScannerDef;

/// The paper-faithful configuration: the grammar optimizer off, so the
/// figures are reproduced on the grammar as the paper analyzed it.
fn options(first: Direction) -> DriverOptions {
    DriverOptions {
        config: Config {
            pass: PassConfig {
                first_direction: first,
                max_passes: 8,
            },
            optimize: false,
            ..Config::default()
        },
        target: None,
        ..DriverOptions::default()
    }
}

/// E1 — Figure 1's notation: `S0 ::= V S1` with
/// `S1.A = IncrIfZero(T.B, S0.A)` and `S0.C = S1.C`, `S ::= T` with
/// `S.C = IncrIfZero(T.B, S.A)`. We complete it into a runnable grammar
/// (the figure's fragment leaves A's seed and T's B to context).
#[test]
fn fig1_grammar_parses_and_evaluates() {
    let src = r#"
grammar Fig1 ;
terminals
  V ;
  T : intrinsic B int ;
nonterminals
  root : syn OUT int ;
  s : inh A int, syn C int ;
start root ;
productions
prod root = s :
  s.A = 0 ;
  root.OUT = s.C ;
end
# S0 ::= V S1   with  S1.A = IncrIfZero(T.B, S0.A)-style flow (the
# figure's T.B argument lives in the sibling production; here the V
# leaf has no attributes so we seed from S0.A).
prod s0 = V s1 :
  s1.A = IncrIfZero(0, s0.A) ;
  s0.C = s1.C ;
end
# S ::= T   with  S.C = IncrIfZero(T.B, S.A)
prod s = T :
  s.C = IncrIfZero(T.B, s.A) ;
end
end
"#;
    let out = run(src, &options(Direction::RightToLeft)).unwrap();
    // S.A is inherited, S.C synthesized (checked by the analysis having
    // accepted the grammar), evaluable in one pass here.
    assert_eq!(out.stats.passes, 1);

    let scanner = ScannerDef::new()
        .skip(r"[ \t\n]+")
        .token("V", "v")
        .token("T", "[0-9]+")
        .build()
        .unwrap();
    let t = Translator::new(out.analysis, scanner).unwrap();
    // "v v 0": two IncrIfZero(0, ·) increments down, then the leaf:
    // A at leaf = 2, T.B = 0 so C = A + 1 = 3.
    let r = t
        .translate("v v 0", &Funcs::standard(), &EvalOptions::default())
        .unwrap();
    assert_eq!(r.output(&t.analysis, "OUT"), Some(&Value::Int(3)));
    // T.B = 5 (non-zero): C = A = 2.
    let r = t
        .translate("v v 5", &Funcs::standard(), &EvalOptions::default())
        .unwrap();
    assert_eq!(r.output(&t.analysis, "OUT"), Some(&Value::Int(2)));
}

/// E3 — the §II linearization diagram: the output file of a
/// left-to-right pass, read backwards, is the input file of a
/// right-to-left pass. We check the equivalent observable: evaluation
/// through the alternating file-resident passes gives the same result as
/// the direction-flipped configuration, for a tree whose shape matches
/// the paper's diagram (a root with several multi-child subtrees).
#[test]
fn fig3_alternating_files_agree_across_strategies() {
    let src = r#"
grammar Diagram ;
terminals
  leaf : intrinsic OBJ int ;
  LP ;
  RP ;
nonterminals
  node : syn SUM int ;
  pair : syn SUM int ;
start node ;
productions
prod node = pair0 pair1 :
  node.SUM = pair0.SUM + pair1.SUM ;
end
prod pair0 = LP leaf0 pair1 leaf1 RP :
  pair0.SUM = leaf0.OBJ + pair1.SUM + leaf1.OBJ ;
end
prod pair = leaf :
  pair.SUM = leaf.OBJ ;
end
end
"#;
    let scanner = || {
        ScannerDef::new()
            .skip(r"[ \t\n]+")
            .token("leaf", "[0-9]+")
            .token("LP", r"\(")
            .token("RP", r"\)")
            .build()
            .unwrap()
    };
    let rl = run(src, &options(Direction::RightToLeft)).unwrap();
    let lr = run(src, &options(Direction::LeftToRight)).unwrap();
    let t_rl = Translator::new(rl.analysis, scanner()).unwrap();
    let t_lr = Translator::new(lr.analysis, scanner()).unwrap();
    let input = "( 1 ( 2 3 4 ) 5 ) 6";
    let r1 = t_rl
        .translate(
            input,
            &Funcs::standard(),
            &EvalOptions {
                strategy: Strategy::BottomUp,
                ..EvalOptions::default()
            },
        )
        .unwrap();
    let r2 = t_lr
        .translate(
            input,
            &Funcs::standard(),
            &EvalOptions {
                strategy: Strategy::Prefix,
                ..EvalOptions::default()
            },
        )
        .unwrap();
    assert_eq!(
        r1.output(&t_rl.analysis, "SUM"),
        r2.output(&t_lr.analysis, "SUM")
    );
    assert_eq!(r1.output(&t_rl.analysis, "SUM"), Some(&Value::Int(21)));
}

/// E4 — the p.165 figure: the production-procedure generated for one pass
/// of a `function_list` production, with the limb read first and written
/// last, children processed in order, inherited assignments before the
/// recursive call and synthesized ones after.
#[test]
fn p165_production_procedure_shape() {
    let src = r#"
grammar P165 ;
terminals
  function : intrinsic OBJ string ;
  COMMA : intrinsic LINE int ;
nonterminals
  function$list : inh LHSID string, inh AOS set, syn FUNCTS set, syn CYCLIC set ;
  root : syn OUT int ;
start root ;
productions
prod root = function$list :
  function$list.LHSID = 'top' ;
  function$list.AOS = EmptySet() ;
  root.OUT = SetSize(function$list.FUNCTS) ;
end
prod function$list0 = function COMMA function$list1 -> FunctionListLimb :
  ERR = IsIn(function.OBJ, function$list1.CYCLIC) ;
  function$list1.FUNCTS = UnionSetof(function.OBJ, EmptySet()) ;
  function$list0.FUNCTS = UnionSetof(function.OBJ, function$list1.FUNCTS) ;
  function$list0.CYCLIC = function$list1.CYCLIC ;
end
prod function$list = function :
  function$list.FUNCTS = UnionSetof(function.OBJ, EmptySet()) ;
  function$list.CYCLIC = EmptySet() ;
end
limbs
  FunctionListLimb : local ERR bool ;
end
"#;
    // The limbs section must precede `start` in our syntax; patch order.
    let src = src.replace(
        "start root ;",
        "limbs\n  FunctionListLimb2 : local UNUSED2 bool ;\nstart root ;",
    );
    let _ = src;
    // Use a directly-ordered version instead:
    let src = r#"
grammar P165 ;
terminals
  function : intrinsic OBJ string ;
  COMMA : intrinsic LINE int ;
nonterminals
  function$list : inh LHSID string, syn FUNCTS set, syn CYCLIC set ;
  root : syn OUT int ;
limbs
  FunctionListLimb : local ERR bool ;
start root ;
productions
prod root = function$list :
  function$list.LHSID = 'top' ;
  root.OUT = SetSize(function$list.FUNCTS) ;
end
prod function$list0 = function COMMA function$list1 -> FunctionListLimb :
  ERR = IsIn(function.OBJ, function$list1.CYCLIC) ;
  function$list0.FUNCTS = UnionSetof(function.OBJ, function$list1.FUNCTS) ;
  function$list0.CYCLIC = function$list1.CYCLIC ;
end
prod function$list = function :
  function$list.FUNCTS = UnionSetof(function.OBJ, EmptySet()) ;
  function$list.CYCLIC = EmptySet() ;
end
end
"#;
    let out = run(src, &options(Direction::LeftToRight)).unwrap();
    let analysis = &out.analysis;
    // Production 1 is the FUNCTIONLISTLIMB production; the figure shows a
    // left-to-right pass, which is pass 1 under the prefix strategy.
    let proc1 = emit_procedure(analysis, linguist86::ag::ids::ProdId(1), 1, Target::Pascal);
    let src_text = &proc1.source;
    assert!(
        proc1.name.starts_with("FUNCTIONLISTLIMBPP"),
        "procedure named after the limb: {}",
        proc1.name
    );
    let get_limb = src_text
        .find("GetNodeFUNCTIONLISTLIMB")
        .expect("limb read first");
    let put_limb = src_text
        .find("PutNodeFUNCTIONLISTLIMB")
        .expect("limb written last");
    let get_fn = src_text.find("GetNodeFUNCTION(").expect("child read");
    let visit = src_text.find("FUNCTION_LISTPP").expect("recursive call");
    assert!(
        get_limb < get_fn && get_fn < visit && visit < put_limb,
        "{}",
        src_text
    );
    // LHS occurrence naming per the figure: FUNCTION_LIST0 / FUNCTION_LIST1.
    assert!(src_text.contains("FUNCTION_LIST0"), "{}", src_text);
    assert!(src_text.contains("FUNCTION_LIST1"), "{}", src_text);
}

/// E5 — the §III ListProd example: with static allocation, subsumed
/// copy-rules appear as comments and non-subsumed definitions of static
/// attributes generate the `_QZP` / `_ZQP` save/new temporaries around
/// the child visit, exactly as in the paper's modified
/// production-procedure.
#[test]
fn subsumption_listprod_save_restore_pattern() {
    // ENV plays the paper's PRE role: it accumulates at X-levels
    // (non-copy definitions, which pay save/restore once static) and
    // copies through Y-levels (subsumable copies, which earn the static
    // allocation). POST plays its upward counterpart.
    let src = r#"
grammar ListProd ;
terminals
  X : intrinsic OBJ int ;
  Y ;
nonterminals
  root : syn OUT int ;
  s : inh ENV set, syn POST int ;
start root ;
productions
prod root = s :
  s.ENV = EmptySet() ;
  root.OUT = s.POST ;
end
prod s0 = X s1 :
  s1.ENV = UnionSetof(X.OBJ, s0.ENV) ;
  s0.POST = IncrIfTrue(IsIn(X.OBJ, s1.ENV), s1.POST) ;
end
prod s0 = Y s1 :
end
prod s = X :
  s.POST = 0 ;
end
end
"#;
    let opts = DriverOptions {
        config: Config {
            pass: PassConfig {
                first_direction: Direction::LeftToRight,
                max_passes: 8,
            },
            costs: linguist86::ag::subsumption::SubsumptionCosts {
                copy: 50,
                save_restore: 10,
            },
            optimize: false,
            ..Config::default()
        },
        target: None,
        ..DriverOptions::default()
    };
    let out = run(src, &opts).unwrap();
    let g = &out.analysis.grammar;
    let s_sym = g.symbol_by_name("s").unwrap();
    let env = g.attr_by_name(s_sym, "ENV").unwrap();
    let post = g.attr_by_name(s_sym, "POST").unwrap();
    assert!(out.analysis.subsumption.is_static(env), "ENV is static");
    assert!(out.analysis.subsumption.is_static(post), "POST is static");

    let full = out.generated.full_source();
    // Global declarations and the save/new temporaries of the paper's
    // modified example.
    assert!(full.contains("G_ENV"), "{}", full);
    assert!(full.contains("_QZP"), "save temporaries rendered: {}", full);
    assert!(
        full.contains("_ZQP"),
        "new-value temporaries rendered: {}",
        full
    );
    // The Y production's copies are commented out (subsumed).
    assert!(out.generated.subsumed_rules() >= 2, "both Y copies subsume");
    assert!(out
        .generated
        .passes
        .iter()
        .any(|p| p.save_restore_bytes > 0));

    // The evaluator still computes the right answers, with the globals
    // protocol verifying every subsumed copy.
    let scanner = ScannerDef::new()
        .skip(r"[ \t\n]+")
        .token("X", "[0-9]+")
        .token("Y", "y")
        .build()
        .unwrap();
    let t = Translator::new(out.analysis, scanner).unwrap();
    let eval_opts = EvalOptions {
        strategy: Strategy::Prefix,
        ..EvalOptions::default()
    };
    // "1 y 3": the Y level pushes nothing, the X level sees itself in
    // ENV after extension: one increment.
    let r = t
        .translate("1 y 3", &Funcs::standard(), &eval_opts)
        .unwrap();
    assert_eq!(r.output(&t.analysis, "OUT"), Some(&Value::Int(1)));
    assert!(r.stats.globals_checked > 0);
    assert_eq!(r.stats.globals_repaired, 0);
    // "1 2 3": two X levels above the leaf, each sees itself: two.
    let r = t
        .translate("1 2 3", &Funcs::standard(), &eval_opts)
        .unwrap();
    assert_eq!(r.output(&t.analysis, "OUT"), Some(&Value::Int(2)));
}

/// E6 — Figure 5: one semantic function defining several attribute
/// occurrences, with if-expression arms carrying expression lists
/// assigned pairwise — through the concrete syntax.
#[test]
fn fig5_multi_target_semantic_functions() {
    let src = r#"
grammar Fig5 ;
terminals
  item : intrinsic KIND int ;
nonterminals
  root : syn PUBLICS int, syn PRIVATE int ;
  list : syn PUBLICS int, syn PRIVATE int ;
start root ;
productions
prod root = list :
  root.PUBLICS & root.PRIVATE = if list.PUBLICS > list.PRIVATE
                                then list.PUBLICS, list.PRIVATE
                                else list.PRIVATE, list.PUBLICS
                                endif ;
end
prod list0 = list1 item :
  list0.PUBLICS & list0.PRIVATE = if item.KIND = 0
                                  then list1.PUBLICS + 1, list1.PRIVATE
                                  else list1.PUBLICS, list1.PRIVATE + 1
                                  endif ;
end
prod list = item :
  # Common value for both targets (the figure's first example).
  list.PUBLICS & list.PRIVATE = 0 ;
end
end
"#;
    let out = run(src, &options(Direction::RightToLeft)).unwrap();
    let scanner = ScannerDef::new()
        .skip(r"[ \t\n]+")
        .token("item", "[0-9]+")
        .build()
        .unwrap();
    let t = Translator::new(out.analysis, scanner).unwrap();
    // Kinds: 9 0 0 0 5 → first leaf ignored (base case), then three 0s
    // (publics) and one non-zero (private): PUBLICS=3, PRIVATE=1; the
    // root swaps so PUBLICS gets the max.
    let r = t
        .translate("9 0 0 0 5", &Funcs::standard(), &EvalOptions::default())
        .unwrap();
    assert_eq!(r.output(&t.analysis, "PUBLICS"), Some(&Value::Int(3)));
    assert_eq!(r.output(&t.analysis, "PRIVATE"), Some(&Value::Int(1)));
}

/// E11 — the measurement tables, live. The paper's numbers are
/// reproduced from the *running* system, not hard-coded into the
/// pipeline: the pass-schedule column of §III for every bundled
/// grammar, and §IV's copy-rule observations ("between 40 and 60
/// percent of the semantic functions in a typical grammar are
/// copy-rules") with the static-subsumption elimination counts.
#[test]
fn table_pass_counts_match_paper() {
    use linguist86::grammars as lg;
    // (source, name, alternating passes under the paper's
    // right-to-left-first bootstrap)
    let rows: &[(&str, &str, usize)] = &[
        (lg::calc_source(), "calc", 1),
        (lg::knuth_source(), "knuth", 1),
        (lg::block_source(), "block", 2),
        (lg::pascal_source(), "pascal", 2),
        (lg::meta_source(), "meta", 4),
    ];
    for &(src, name, want) in rows {
        let out = run(src, &options(Direction::RightToLeft)).unwrap();
        let profile = out.analysis.profile();
        assert_eq!(profile.stats.passes, want, "{} pass count", name);
        assert_eq!(profile.directions.len(), want, "{} schedule length", name);
        // The driver's statistics row and the live profile agree.
        assert_eq!(profile.stats, out.stats, "{} stats row", name);
    }
    // The paper's own grammar ("LINGUIST-86 is described in its own
    // language") is the meta grammar: 4 passes, like the original.
}

#[test]
fn table_copy_rule_elimination_matches_paper() {
    use linguist86::grammars as lg;
    // The §IV observation: copy-rules are 40–60% of semantic functions
    // in attribute-heavy grammars.
    for (src, name) in [
        (lg::calc_source(), "calc"),
        (lg::block_source(), "block"),
        (lg::pascal_source(), "pascal"),
        (lg::meta_source(), "meta"),
    ] {
        let out = run(src, &options(Direction::RightToLeft)).unwrap();
        let f = out.analysis.profile().stats.copy_fraction();
        assert!(
            (0.40..=0.60).contains(&f),
            "{} copy fraction {:.3} outside the paper's band",
            name,
            f
        );
    }

    // Static subsumption on the meta grammar: 75 of its 154 copy-rules
    // need not be performed at all — a 27.9% reduction in semantic
    // functions executed.
    let out = run(lg::meta_source(), &options(Direction::RightToLeft)).unwrap();
    let p = out.analysis.profile();
    assert_eq!(p.stats.semantic_functions, 269);
    assert_eq!(p.subsumption.copy_rules, 154);
    assert_eq!(p.subsumption.subsumed_rules, 75);
    assert_eq!(p.copy_rules_after(), 79);
    assert!((p.elimination_fraction() - 75.0 / 269.0).abs() < 1e-9);

    // Pascal's declarations grammar: 24 of 45 copy-rules eliminated.
    let out = run(lg::pascal_source(), &options(Direction::RightToLeft)).unwrap();
    let p = out.analysis.profile();
    assert_eq!(p.subsumption.copy_rules, 45);
    assert_eq!(p.subsumption.subsumed_rules, 24);
}

#[test]
fn table_meta_grammar_profiles_end_to_end() {
    use linguist86::frontend::report::ProfileReport;
    use linguist86::grammars as lg;

    let out = run(lg::meta_source(), &options(Direction::RightToLeft)).unwrap();
    let r = ProfileReport::collect("meta", &out.analysis, &Funcs::standard(), 200);
    assert!(
        r.eval_error.is_none(),
        "meta eval failed: {:?}",
        r.eval_error
    );
    let m = r.eval.as_ref().unwrap();

    // Four alternating passes of real file traffic, conserved across
    // every boundary.
    assert_eq!(m.passes.len(), 4);
    assert!(m.initial_records > 0 && m.initial_bytes > 0);
    assert_eq!(m.passes[0].records_read, m.initial_records);
    for w in m.passes.windows(2) {
        assert_eq!(w[1].records_read, w[0].records_written);
        assert_eq!(w[1].bytes_read, w[0].bytes_written);
    }
    // Every pass reads and rewrites the whole APT — the alternating
    // paradigm never skips records.
    for p in &m.passes {
        assert_eq!(p.records_read, m.initial_records, "pass {}", p.pass);
        assert_eq!(p.records_written, m.initial_records, "pass {}", p.pass);
    }
    // Subsumption shows up dynamically too: fewer semantic functions
    // ran than the grammar declares rules for the tree (copy-rules
    // subsumed into globals are skipped); but every pass did real work.
    for p in &m.passes {
        assert!(p.attrs_evaluated > 0, "pass {} evaluated nothing", p.pass);
    }
    // And the text rendering carries the table.
    let text = r.render_text();
    assert!(text.contains("alternating passes:   4"), "{}", text);
    assert!(text.contains("copy-rules subsumed:  75 of 154"), "{}", text);
}
