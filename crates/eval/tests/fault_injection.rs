//! Fault injection: a mid-pass intermediate-file I/O failure must
//! surface as a typed per-job error — never a panic — and must not
//! poison sibling jobs sharing the batch worker pool.

use linguist_ag::analysis::{Analysis, Config};
use linguist_ag::expr::{BinOp, Expr};
use linguist_ag::grammar::AgBuilder;
use linguist_ag::ids::{AttrId, AttrOcc, ProdId, SymbolId};
use linguist_eval::aptfile::{AptError, FaultSpec, FaultTarget};
use linguist_eval::batch::{BatchEvaluator, FailureKind};
use linguist_eval::funcs::Funcs;
use linguist_eval::machine::{evaluate, EvalError, EvalOptions};
use linguist_eval::tree::PTree;
use linguist_eval::value::Value;

/// S -> S x | x, S.V = sum of the leaves' OBJ values.
fn leaf_sum_analysis() -> (Analysis, SymbolId, AttrId) {
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
    let analysis = Analysis::run(b.build().unwrap(), &Config::default()).unwrap();
    (analysis, x, obj)
}

fn chain_tree(x: SymbolId, obj: AttrId, leaves: i64) -> PTree {
    let leaf = |n| PTree::leaf(x, vec![(obj, Value::Int(n))]);
    let mut t = PTree::node(ProdId(1), vec![leaf(1)]);
    for n in 2..=leaves {
        t = PTree::node(ProdId(0), vec![t, leaf(n)]);
    }
    t
}

#[test]
fn single_eval_write_fault_is_a_typed_io_error() {
    let (analysis, x, obj) = leaf_sum_analysis();
    let tree = chain_tree(x, obj, 20);
    let opts = EvalOptions {
        fault: Some(FaultSpec::new(1, FaultTarget::Write, 5)),
        ..EvalOptions::default()
    };
    match evaluate(&analysis, &Funcs::standard(), &tree, &opts) {
        // The error carries the boundary-file path and pass as context;
        // the root cause stays a typed I/O error.
        Err(EvalError::Apt(a)) if matches!(a.root(), AptError::Io(_)) => {
            let msg = a.to_string();
            assert!(
                msg.contains("pass 1") && msg.contains("boundary_1.apt"),
                "error should name the pass and boundary file: {}",
                msg
            );
        }
        other => panic!("expected a typed I/O error, got {:?}", other),
    }
}

#[test]
fn single_eval_read_fault_is_a_typed_io_error() {
    let (analysis, x, obj) = leaf_sum_analysis();
    let tree = chain_tree(x, obj, 20);
    let opts = EvalOptions {
        fault: Some(FaultSpec::new(1, FaultTarget::Read, 5)),
        ..EvalOptions::default()
    };
    match evaluate(&analysis, &Funcs::standard(), &tree, &opts) {
        Err(EvalError::Apt(a)) if matches!(a.root(), AptError::Io(_)) => {
            let msg = a.to_string();
            assert!(
                msg.contains("pass 1") && msg.contains("boundary_0.apt"),
                "error should name the pass and the faulted input file: {}",
                msg
            );
        }
        other => panic!("expected a typed I/O error, got {:?}", other),
    }
}

#[test]
fn one_faulted_job_does_not_poison_an_eight_worker_batch() {
    let (analysis, x, obj) = leaf_sum_analysis();
    const JOBS: i64 = 24;
    let trees: Vec<PTree> = (1..=JOBS).map(|n| chain_tree(x, obj, 10 + n)).collect();

    // The fault spec is cloned into every worker, but the shared arming
    // flag fires it exactly once — so exactly one job of the batch dies
    // mid-pass, and which one is a scheduling accident.
    let fault = FaultSpec::new(1, FaultTarget::Write, 3);
    let opts = EvalOptions {
        fault: Some(fault.clone()),
        ..EvalOptions::default()
    };
    let batch = BatchEvaluator::with_options(8, opts);
    let outcome = batch.run(&analysis, &Funcs::standard(), &trees);

    assert!(!fault.is_armed(), "the injected fault never fired");
    assert_eq!(outcome.stats.jobs, JOBS as usize);
    assert_eq!(outcome.stats.failed, 1, "exactly one job must fail");
    assert_eq!(outcome.stats.failures.len(), 1);
    let failure = &outcome.stats.failures[0];
    assert_eq!(failure.kind, FailureKind::Io);
    assert!(
        failure.message.contains("injected"),
        "message should identify the injected fault: {}",
        failure.message
    );

    // Every sibling completed with the right answer.
    let mut ok = 0;
    for (i, result) in outcome.results.iter().enumerate() {
        let leaves = 10 + (i as i64) + 1;
        match result {
            Ok(eval) => {
                let expect = leaves * (leaves + 1) / 2;
                assert_eq!(
                    eval.output(&analysis, "V"),
                    Some(&Value::Int(expect)),
                    "job {} answer",
                    i
                );
                ok += 1;
            }
            Err(e) => assert_eq!(i, failure.job, "unexpected failure in job {}: {}", i, e),
        }
    }
    assert_eq!(ok, JOBS as usize - 1);

    // The summed record covers only the survivors: every pass-1 row
    // read exactly what the survivors' initial files held.
    let metrics = &outcome.stats.eval;
    assert_eq!(metrics.passes.len(), 1);
    assert_eq!(metrics.passes[0].records_read, metrics.initial_records);
}
