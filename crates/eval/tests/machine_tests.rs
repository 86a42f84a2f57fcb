//! Integration tests for the alternating-pass machine: multi-pass
//! evaluation, both §II bootstrap strategies, the static-subsumption
//! global protocol, and the memory-residency story.

use linguist_ag::analysis::{Analysis, Config};
use linguist_ag::expr::{BinOp, Expr};
use linguist_ag::grammar::{AgBuilder, Grammar};
use linguist_ag::ids::{AttrOcc, ProdId};
use linguist_ag::passes::{Direction, PassConfig};
use linguist_eval::funcs::{FuncError, Funcs};
use linguist_eval::machine::{evaluate, EvalError, EvalOptions, Strategy};
use linguist_eval::tree::PTree;
use linguist_eval::value::Value;

/// The paper-faithful configuration (optimizer off): these tests pin the
/// evaluator's own pass, record and subsumption mechanics.
fn config(first: Direction) -> Config {
    Config {
        pass: PassConfig {
            first_direction: first,
            max_passes: 8,
        },
        optimize: false,
        ..Config::default()
    }
}

fn options(strategy: Strategy) -> EvalOptions {
    EvalOptions {
        strategy,
        ..EvalOptions::default()
    }
}

/// S -> S x | x with S.V summing leaf OBJ values (single pass).
fn sum_grammar() -> Grammar {
    let mut b = AgBuilder::new();
    let s = b.nonterminal("S");
    let v = b.synthesized(s, "V", "int");
    let x = b.terminal("x");
    let obj = b.intrinsic(x, "OBJ", "int");
    let p0 = b.production(s, vec![s, x], None);
    b.rule(
        p0,
        vec![AttrOcc::lhs(v)],
        Expr::binop(
            BinOp::Add,
            Expr::Occ(AttrOcc::rhs(0, v)),
            Expr::Occ(AttrOcc::rhs(1, obj)),
        ),
    );
    let p1 = b.production(s, vec![x], None);
    b.rule(p1, vec![AttrOcc::lhs(v)], Expr::Occ(AttrOcc::rhs(0, obj)));
    b.start(s);
    b.build().unwrap()
}

fn chain_tree(g: &Grammar, values: &[i64]) -> PTree {
    let x = g.symbol_by_name("x").unwrap();
    let obj = g.attr_by_name(x, "OBJ").unwrap();
    let leaf = |n: i64| PTree::leaf(x, vec![(obj, Value::Int(n))]);
    let mut t = PTree::node(ProdId(1), vec![leaf(values[0])]);
    for &v in &values[1..] {
        t = PTree::node(ProdId(0), vec![t, leaf(v)]);
    }
    t
}

#[test]
fn sums_leaves_bottom_up() {
    let analysis = Analysis::run(sum_grammar(), &config(Direction::RightToLeft)).unwrap();
    let tree = chain_tree(&analysis.grammar, &[1, 2, 3, 4, 5]);
    let result = evaluate(
        &analysis,
        &Funcs::standard(),
        &tree,
        &options(Strategy::BottomUp),
    )
    .unwrap();
    assert_eq!(result.output(&analysis, "V"), Some(&Value::Int(15)));
    assert_eq!(result.stats.passes.len(), 1);
}

#[test]
fn both_strategies_agree() {
    // E14: strategy 1 (bottom-up, first pass R-L) and strategy 2 (prefix,
    // first pass L-R) produce identical results.
    let g1 = sum_grammar();
    let g2 = sum_grammar();
    let a_rl = Analysis::run(g1, &config(Direction::RightToLeft)).unwrap();
    let a_lr = Analysis::run(g2, &config(Direction::LeftToRight)).unwrap();
    let values = [3, 1, 4, 1, 5, 9, 2, 6];
    let t1 = chain_tree(&a_rl.grammar, &values);
    let t2 = chain_tree(&a_lr.grammar, &values);
    let r1 = evaluate(&a_rl, &Funcs::standard(), &t1, &options(Strategy::BottomUp)).unwrap();
    let r2 = evaluate(&a_lr, &Funcs::standard(), &t2, &options(Strategy::Prefix)).unwrap();
    assert_eq!(
        r1.output(&a_rl, "V"),
        r2.output(&a_lr, "V"),
        "the two §II bootstrap strategies must agree"
    );
}

#[test]
fn strategy_mismatch_is_rejected() {
    // Regression guard: every incompatible (strategy, first-direction)
    // pairing must come back as a descriptive StrategyMismatch error —
    // never a panic, and never a silent wrong-direction evaluation.
    use linguist_eval::machine::EvalError;
    for (first, strategy) in [
        (Direction::RightToLeft, Strategy::Prefix),
        (Direction::LeftToRight, Strategy::BottomUp),
    ] {
        let analysis = Analysis::run(sum_grammar(), &config(first)).unwrap();
        let tree = chain_tree(&analysis.grammar, &[1]);
        let err = evaluate(&analysis, &Funcs::standard(), &tree, &options(strategy)).unwrap_err();
        match &err {
            EvalError::StrategyMismatch {
                strategy: s,
                first_direction,
            } => {
                assert_eq!(*s, strategy);
                assert_eq!(*first_direction, first);
            }
            other => panic!("expected StrategyMismatch, got {:?}", other),
        }
        let msg = err.to_string();
        assert!(
            msg.contains("incompatible") && msg.contains(&format!("{:?}", strategy)),
            "message should name the offending strategy: {}",
            msg
        );
    }
}

/// Two-pass grammar: left sibling's inherited comes from the right
/// sibling's synthesized value.
fn two_pass_grammar() -> Grammar {
    let mut b = AgBuilder::new();
    let s = b.nonterminal("S");
    let sv = b.synthesized(s, "V", "int");
    let a = b.nonterminal("A");
    let ai = b.inherited(a, "I", "int");
    let av = b.synthesized(a, "V", "int");
    let bb = b.nonterminal("B");
    let bv = b.synthesized(bb, "V", "int");
    let x = b.terminal("x");
    let obj = b.intrinsic(x, "OBJ", "int");
    let p0 = b.production(s, vec![a, bb], None);
    b.rule(
        p0,
        vec![AttrOcc::rhs(0, ai)],
        Expr::Occ(AttrOcc::rhs(1, bv)),
    );
    b.rule(p0, vec![AttrOcc::lhs(sv)], Expr::Occ(AttrOcc::rhs(0, av)));
    let p1 = b.production(a, vec![x], None);
    b.rule(
        p1,
        vec![AttrOcc::lhs(av)],
        Expr::binop(BinOp::Add, Expr::Occ(AttrOcc::lhs(ai)), Expr::Int(100)),
    );
    let p2 = b.production(bb, vec![x], None);
    b.rule(p2, vec![AttrOcc::lhs(bv)], Expr::Occ(AttrOcc::rhs(0, obj)));
    b.start(s);
    b.build().unwrap()
}

#[test]
fn right_to_left_information_crosses_passes() {
    let analysis = Analysis::run(two_pass_grammar(), &config(Direction::LeftToRight)).unwrap();
    assert_eq!(analysis.passes.num_passes(), 2);
    let g = &analysis.grammar;
    let x = g.symbol_by_name("x").unwrap();
    let obj = g.attr_by_name(x, "OBJ").unwrap();
    let tree = PTree::node(
        ProdId(0),
        vec![
            PTree::node(ProdId(1), vec![PTree::leaf(x, vec![(obj, Value::Int(0))])]),
            PTree::node(ProdId(2), vec![PTree::leaf(x, vec![(obj, Value::Int(7))])]),
        ],
    );
    let result = evaluate(
        &analysis,
        &Funcs::standard(),
        &tree,
        &options(Strategy::Prefix),
    )
    .unwrap();
    // B.V = 7 (pass 1); A.I = 7, A.V = 107 (pass 2); S.V = 107.
    assert_eq!(result.output(&analysis, "V"), Some(&Value::Int(107)));
    assert_eq!(result.stats.passes.len(), 2);
    // Pass 2 must re-read what pass 1 wrote.
    assert!(result.stats.passes[1].bytes_read > 0);
}

/// Copy-chain grammar exercising static subsumption: ENV propagates down
/// through copies only.
fn env_grammar() -> Grammar {
    let mut b = AgBuilder::new();
    let root = b.nonterminal("root");
    let rv = b.synthesized(root, "OUT", "int");
    let s = b.nonterminal("S");
    let sv = b.synthesized(s, "OUT", "int");
    let se = b.inherited(s, "ENV", "int");
    let x = b.terminal("x");
    let obj = b.intrinsic(x, "OBJ", "int");
    let p0 = b.production(root, vec![s], None);
    b.rule(p0, vec![AttrOcc::rhs(0, se)], Expr::Int(1000));
    b.rule(p0, vec![AttrOcc::lhs(rv)], Expr::Occ(AttrOcc::rhs(0, sv)));
    // S -> S x : ENV copied down (implicitly), OUT copied up (implicitly).
    let _p1 = b.production(s, vec![s, x], None);
    // S -> x : OUT = ENV + OBJ.
    let p2 = b.production(s, vec![x], None);
    b.rule(
        p2,
        vec![AttrOcc::lhs(sv)],
        Expr::binop(
            BinOp::Add,
            Expr::Occ(AttrOcc::lhs(se)),
            Expr::Occ(AttrOcc::rhs(0, obj)),
        ),
    );
    b.start(root);
    b.build().unwrap()
}

fn env_tree(g: &Grammar, depth: usize) -> PTree {
    let x = g.symbol_by_name("x").unwrap();
    let obj = g.attr_by_name(x, "OBJ").unwrap();
    let leaf = |n: i64| PTree::leaf(x, vec![(obj, Value::Int(n))]);
    let mut t = PTree::node(ProdId(2), vec![leaf(5)]);
    for _ in 0..depth {
        t = PTree::node(ProdId(1), vec![t, leaf(0)]);
    }
    PTree::node(ProdId(0), vec![t])
}

#[test]
fn subsumption_protocol_verifies_cleanly() {
    // Generous costs so the implicit copy chain goes static.
    let cfg = Config {
        costs: linguist_ag::subsumption::SubsumptionCosts {
            copy: 50,
            save_restore: 10,
        },
        ..config(Direction::RightToLeft)
    };
    let analysis = Analysis::run(env_grammar(), &cfg).unwrap();
    let g = &analysis.grammar;
    let s = g.symbol_by_name("S").unwrap();
    let se = g.attr_by_name(s, "ENV").unwrap();
    assert!(
        analysis.subsumption.is_static(se),
        "ENV chain should be statically allocated"
    );
    let sub_stats = analysis.subsumption.stats(g);
    assert!(sub_stats.subsumed_rules > 0);

    let tree = env_tree(g, 10);
    let result = evaluate(
        &analysis,
        &Funcs::standard(),
        &tree,
        &options(Strategy::BottomUp),
    )
    .unwrap();
    assert_eq!(result.output(&analysis, "OUT"), Some(&Value::Int(1005)));
    assert!(
        result.stats.globals_checked > 0,
        "subsumed copies were verified against the globals"
    );
    assert_eq!(
        result.stats.globals_repaired, 0,
        "no clobbered globals in a pure downward chain"
    );
}

#[test]
fn subsumption_on_and_off_agree() {
    // The optimization must be semantics-preserving; the paper timed both
    // configurations and only code size differed.
    let base = config(Direction::RightToLeft);
    let with = Analysis::run(env_grammar(), &base).unwrap();
    let without = Analysis::run(
        env_grammar(),
        &Config {
            disable_subsumption: true,
            ..base
        },
    )
    .unwrap();
    let t1 = env_tree(&with.grammar, 6);
    let t2 = env_tree(&without.grammar, 6);
    let r1 = evaluate(&with, &Funcs::standard(), &t1, &options(Strategy::BottomUp)).unwrap();
    let r2 = evaluate(
        &without,
        &Funcs::standard(),
        &t2,
        &options(Strategy::BottomUp),
    )
    .unwrap();
    assert_eq!(r1.output(&with, "OUT"), r2.output(&without, "OUT"));
}

#[test]
fn peak_memory_tracks_depth_not_size() {
    // E12: the file-resident APT means a WIDE tree of many nodes needs no
    // more stack than its depth dictates.
    let analysis = Analysis::run(sum_grammar(), &config(Direction::RightToLeft)).unwrap();
    let small = chain_tree(&analysis.grammar, &[1; 4]);
    let deep = chain_tree(&analysis.grammar, &[1; 150]);
    let r_small = evaluate(
        &analysis,
        &Funcs::standard(),
        &small,
        &options(Strategy::BottomUp),
    )
    .unwrap();
    let r_deep = evaluate(
        &analysis,
        &Funcs::standard(),
        &deep,
        &options(Strategy::BottomUp),
    )
    .unwrap();
    // This chain grammar is pathological (depth = size), so peak grows…
    assert!(r_deep.stats.meter.peak() > r_small.stats.meter.peak());
    // …but the total APT moved through the files is far larger than the
    // peak residency would suggest on its own.
    assert!(r_deep.stats.total_io_bytes() > r_deep.stats.meter.peak() as u64);
    assert_eq!(r_deep.stats.max_depth, 150);
}

#[test]
fn budget_exceeded_is_recorded_not_fatal() {
    let analysis = Analysis::run(sum_grammar(), &config(Direction::RightToLeft)).unwrap();
    let tree = chain_tree(&analysis.grammar, &[1; 120]);
    let result = evaluate(
        &analysis,
        &Funcs::standard(),
        &tree,
        &EvalOptions {
            strategy: Strategy::BottomUp,
            check_globals: false,
            budget: Some(64), // absurdly small
            ..EvalOptions::default()
        },
    )
    .unwrap();
    assert!(result.stats.meter.exceeded());
    assert_eq!(result.output(&analysis, "V"), Some(&Value::Int(120)));
}

#[test]
fn conditionals_and_constants_evaluate() {
    // S -> x with V = if OBJ > 0 then OBJ else 0 endif and a symbolic TAG.
    let mut b = AgBuilder::new();
    let s = b.nonterminal("S");
    let v = b.synthesized(s, "V", "int");
    let tag = b.synthesized(s, "TAG", "name");
    let x = b.terminal("x");
    let obj = b.intrinsic(x, "OBJ", "int");
    let no_msg = b.name("no$msg");
    let p = b.production(s, vec![x], None);
    b.rule(
        p,
        vec![AttrOcc::lhs(v)],
        Expr::ite(
            Expr::binop(BinOp::Gt, Expr::Occ(AttrOcc::rhs(0, obj)), Expr::Int(0)),
            Expr::Occ(AttrOcc::rhs(0, obj)),
            Expr::Int(0),
        ),
    );
    b.rule(p, vec![AttrOcc::lhs(tag)], Expr::Const(no_msg));
    b.start(s);
    let analysis = Analysis::run(b.build().unwrap(), &config(Direction::RightToLeft)).unwrap();
    let g = &analysis.grammar;
    let x = g.symbol_by_name("x").unwrap();
    let obj = g.attr_by_name(x, "OBJ").unwrap();

    for (input, expect) in [(-5, 0i64), (9, 9)] {
        let tree = PTree::node(
            ProdId(0),
            vec![PTree::leaf(x, vec![(obj, Value::Int(input))])],
        );
        let r = evaluate(
            &analysis,
            &Funcs::standard(),
            &tree,
            &options(Strategy::BottomUp),
        )
        .unwrap();
        assert_eq!(r.output(&analysis, "V"), Some(&Value::Int(expect)));
        assert!(matches!(r.output(&analysis, "TAG"), Some(Value::Sym(_))));
    }
}

#[test]
fn multi_target_if_assigns_pairwise() {
    // Figure 5: one semantic function defining two occurrences with
    // per-branch expression lists.
    let mut b = AgBuilder::new();
    let s = b.nonterminal("S");
    let a = b.synthesized(s, "A", "int");
    let c = b.synthesized(s, "B", "int");
    let x = b.terminal("x");
    let obj = b.intrinsic(x, "OBJ", "int");
    let p = b.production(s, vec![x], None);
    b.rule(
        p,
        vec![AttrOcc::lhs(a), AttrOcc::lhs(c)],
        Expr::If {
            branches: vec![(
                Expr::binop(BinOp::Eq, Expr::Occ(AttrOcc::rhs(0, obj)), Expr::Int(0)),
                vec![Expr::Int(10), Expr::Int(20)],
            )],
            otherwise: vec![Expr::Int(30), Expr::Int(40)],
        },
    );
    b.start(s);
    let analysis = Analysis::run(b.build().unwrap(), &config(Direction::RightToLeft)).unwrap();
    let g = &analysis.grammar;
    let x = g.symbol_by_name("x").unwrap();
    let obj = g.attr_by_name(x, "OBJ").unwrap();

    let run = |input: i64| {
        let tree = PTree::node(
            ProdId(0),
            vec![PTree::leaf(x, vec![(obj, Value::Int(input))])],
        );
        evaluate(
            &analysis,
            &Funcs::standard(),
            &tree,
            &options(Strategy::BottomUp),
        )
        .unwrap()
    };
    let r0 = run(0);
    assert_eq!(r0.output(&analysis, "A"), Some(&Value::Int(10)));
    assert_eq!(r0.output(&analysis, "B"), Some(&Value::Int(20)));
    let r1 = run(5);
    assert_eq!(r1.output(&analysis, "A"), Some(&Value::Int(30)));
    assert_eq!(r1.output(&analysis, "B"), Some(&Value::Int(40)));
}

#[test]
fn limb_attributes_name_common_subexpressions() {
    // One limb TMP consumed by two synthesized attributes.
    let mut b = AgBuilder::new();
    let s = b.nonterminal("S");
    let v = b.synthesized(s, "V", "int");
    let w = b.synthesized(s, "W", "int");
    let x = b.terminal("x");
    let obj = b.intrinsic(x, "OBJ", "int");
    let l = b.limb("Leaf");
    let tmp = b.limb_attr(l, "TMP", "int");
    let p = b.production(s, vec![x], Some(l));
    b.rule(
        p,
        vec![AttrOcc::limb(tmp)],
        Expr::binop(BinOp::Add, Expr::Occ(AttrOcc::rhs(0, obj)), Expr::Int(1)),
    );
    b.rule(p, vec![AttrOcc::lhs(v)], Expr::Occ(AttrOcc::limb(tmp)));
    b.rule(
        p,
        vec![AttrOcc::lhs(w)],
        Expr::binop(
            BinOp::Add,
            Expr::Occ(AttrOcc::limb(tmp)),
            Expr::Occ(AttrOcc::limb(tmp)),
        ),
    );
    b.start(s);
    let analysis = Analysis::run(b.build().unwrap(), &config(Direction::RightToLeft)).unwrap();
    let g = &analysis.grammar;
    let x = g.symbol_by_name("x").unwrap();
    let obj = g.attr_by_name(x, "OBJ").unwrap();
    let tree = PTree::node(ProdId(0), vec![PTree::leaf(x, vec![(obj, Value::Int(4))])]);
    let r = evaluate(
        &analysis,
        &Funcs::standard(),
        &tree,
        &options(Strategy::BottomUp),
    )
    .unwrap();
    assert_eq!(r.output(&analysis, "V"), Some(&Value::Int(5)));
    assert_eq!(r.output(&analysis, "W"), Some(&Value::Int(10)));
}

#[test]
fn external_functions_flow_through_sets() {
    // S collects leaf OBJ values in a set and reports its size.
    let mut b = AgBuilder::new();
    let root = b.nonterminal("root");
    let rn = b.synthesized(root, "N", "int");
    let s = b.nonterminal("S");
    let sset = b.synthesized(s, "SET", "set");
    let x = b.terminal("x");
    let obj = b.intrinsic(x, "OBJ", "int");
    let setsize = b.name("SetSize");
    let unionsetof = b.name("UnionSetof");
    let emptyset = b.name("EmptySet");
    let p0 = b.production(root, vec![s], None);
    b.rule(
        p0,
        vec![AttrOcc::lhs(rn)],
        Expr::Call {
            func: setsize,
            args: vec![Expr::Occ(AttrOcc::rhs(0, sset))],
        },
    );
    let p1 = b.production(s, vec![s, x], None);
    b.rule(
        p1,
        vec![AttrOcc::lhs(sset)],
        Expr::Call {
            func: unionsetof,
            args: vec![
                Expr::Occ(AttrOcc::rhs(1, obj)),
                Expr::Occ(AttrOcc::rhs(0, sset)),
            ],
        },
    );
    let p2 = b.production(s, vec![x], None);
    b.rule(
        p2,
        vec![AttrOcc::lhs(sset)],
        Expr::Call {
            func: unionsetof,
            args: vec![
                Expr::Occ(AttrOcc::rhs(0, obj)),
                Expr::Call {
                    func: emptyset,
                    args: vec![],
                },
            ],
        },
    );
    b.start(root);
    let analysis = Analysis::run(b.build().unwrap(), &config(Direction::RightToLeft)).unwrap();
    let g = &analysis.grammar;
    let x = g.symbol_by_name("x").unwrap();
    let obj = g.attr_by_name(x, "OBJ").unwrap();
    let leaf = |n: i64| PTree::leaf(x, vec![(obj, Value::Int(n))]);
    // Values 1, 2, 2, 3 → set of size 3.
    let mut t = PTree::node(ProdId(2), vec![leaf(1)]);
    for v in [2, 2, 3] {
        t = PTree::node(ProdId(1), vec![t, leaf(v)]);
    }
    let tree = PTree::node(ProdId(0), vec![t]);
    let r = evaluate(
        &analysis,
        &Funcs::standard(),
        &tree,
        &options(Strategy::BottomUp),
    )
    .unwrap();
    assert_eq!(r.output(&analysis, "N"), Some(&Value::Int(3)));

    // Calls bind through the registry passed in, not the builtin table:
    // a re-registered function is the one that runs, and a missing one
    // fails with the grammar's spelling of its name.
    let mut funcs = Funcs::standard();
    funcs.register("setsize", |_| Ok(Value::Int(-1)));
    let r = evaluate(&analysis, &funcs, &tree, &options(Strategy::BottomUp)).unwrap();
    assert_eq!(r.output(&analysis, "N"), Some(&Value::Int(-1)));
    let mut funcs = Funcs::new();
    funcs.register("UnionSetof", |a| Funcs::standard().call("UnionSetof", a));
    funcs.register("EmptySet", |a| Funcs::standard().call("EmptySet", a));
    match evaluate(&analysis, &funcs, &tree, &options(Strategy::BottomUp)) {
        Err(EvalError::Func(FuncError::Unknown { name })) => assert_eq!(name, "SetSize"),
        other => panic!(
            "expected an unknown-function error, got {:?}",
            other.map(|_| ())
        ),
    }
}

#[test]
fn wrong_tree_is_rejected_before_evaluation() {
    let analysis = Analysis::run(sum_grammar(), &config(Direction::RightToLeft)).unwrap();
    let g = &analysis.grammar;
    let x = g.symbol_by_name("x").unwrap();
    // Production 0 wants (S, x); give it (x, x).
    let bad = PTree::node(
        ProdId(0),
        vec![PTree::leaf(x, vec![]), PTree::leaf(x, vec![])],
    );
    let err = evaluate(
        &analysis,
        &Funcs::standard(),
        &bad,
        &options(Strategy::BottomUp),
    )
    .unwrap_err();
    assert!(err.to_string().contains("malformed parse tree"));
}

#[test]
fn io_volume_scales_with_tree_size_and_passes() {
    let analysis = Analysis::run(two_pass_grammar(), &config(Direction::LeftToRight)).unwrap();
    let g = &analysis.grammar;
    let x = g.symbol_by_name("x").unwrap();
    let obj = g.attr_by_name(x, "OBJ").unwrap();
    let tree = PTree::node(
        ProdId(0),
        vec![
            PTree::node(ProdId(1), vec![PTree::leaf(x, vec![(obj, Value::Int(0))])]),
            PTree::node(ProdId(2), vec![PTree::leaf(x, vec![(obj, Value::Int(7))])]),
        ],
    );
    let r = evaluate(
        &analysis,
        &Funcs::standard(),
        &tree,
        &options(Strategy::Prefix),
    )
    .unwrap();
    // Every record visits both files in both passes.
    let p1 = &r.stats.passes[0];
    let p2 = &r.stats.passes[1];
    assert_eq!(p1.records_read, p2.records_read);
    assert_eq!(p1.records_read, p1.records_written);
    assert!(r.stats.total_io_bytes() > 0);
}

#[test]
fn memory_backing_agrees_with_disk() {
    // The "virtual memory" ablation: identical record format, RAM-backed.
    use linguist_eval::machine::Backing;
    let analysis = Analysis::run(sum_grammar(), &config(Direction::RightToLeft)).unwrap();
    let tree = chain_tree(&analysis.grammar, &[4, 8, 15, 16, 23, 42]);
    let funcs = Funcs::standard();
    let disk = evaluate(&analysis, &funcs, &tree, &options(Strategy::BottomUp)).unwrap();
    let mem = evaluate(
        &analysis,
        &funcs,
        &tree,
        &EvalOptions {
            backing: Backing::Memory,
            ..options(Strategy::BottomUp)
        },
    )
    .unwrap();
    assert_eq!(disk.output(&analysis, "V"), mem.output(&analysis, "V"));
    assert_eq!(
        disk.stats.total_io_bytes(),
        mem.stats.total_io_bytes(),
        "identical record traffic either way"
    );
}
