//! The recovery runtime end to end: retry-with-backoff over transient
//! faults, pass-boundary checkpointing with resume, walk-back past
//! corrupted checkpoints, cooperative deadlines, and panic-isolated
//! batch supervision.

use linguist_ag::analysis::{Analysis, Config};
use linguist_ag::expr::{BinOp, Expr};
use linguist_ag::grammar::AgBuilder;
use linguist_ag::ids::{AttrId, AttrOcc, ProdId, SymbolId};
use linguist_ag::passes::{Direction, PassConfig};
use linguist_eval::aptfile::{boundary_path, AptError, FaultSpec, FaultTarget};
use linguist_eval::batch::{BatchEvaluator, FailureKind};
use linguist_eval::funcs::{FuncError, Funcs};
use linguist_eval::machine::{
    evaluate, evaluate_resumable, EvalError, EvalOptions, Evaluation, RetryPolicy, Strategy,
};
use linguist_eval::tree::PTree;
use linguist_eval::value::Value;
use std::time::Duration;

/// S -> S x | x, S.V = sum of the leaves' OBJ values; the base leaf goes
/// through the external `Checked` function (a panic trigger in the batch
/// tests, the identity everywhere else). One pass.
fn leaf_sum_analysis() -> (Analysis, SymbolId, AttrId) {
    let mut b = AgBuilder::new();
    let s = b.nonterminal("S");
    let v = b.synthesized(s, "V", "int");
    let x = b.terminal("x");
    let obj = b.intrinsic(x, "OBJ", "int");
    let checked = b.name("Checked");
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
    b.rule(
        p1,
        vec![AttrOcc::lhs(v)],
        Expr::Call {
            func: checked,
            args: vec![Expr::Occ(AttrOcc::rhs(0, obj))],
        },
    );
    b.start(s);
    let analysis = Analysis::run(b.build().unwrap(), &Config::default()).unwrap();
    (analysis, x, obj)
}

/// Standard functions plus `Checked`: the identity on ints, except that
/// the poison value 13 panics — a deterministic stand-in for a buggy
/// user-registered semantic function.
fn funcs_with_checked() -> Funcs {
    let mut f = Funcs::standard();
    f.register("Checked", |args: &[Value]| match args {
        [Value::Int(13)] => panic!("boom: semantic function rejected 13"),
        [v] => Ok(v.clone()),
        _ => Err(FuncError::Arity {
            name: "Checked".to_owned(),
            expected: 1,
            got: args.len(),
        }),
    });
    f
}

fn chain_tree(x: SymbolId, obj: AttrId, base: i64, extra: i64) -> PTree {
    let leaf = |n| PTree::leaf(x, vec![(obj, Value::Int(n))]);
    let mut t = PTree::node(ProdId(1), vec![leaf(base)]);
    for n in 2..=extra {
        t = PTree::node(ProdId(0), vec![t, leaf(n)]);
    }
    t
}

/// S -> A B with A.I = B.V and A.V = A.I + 100: a genuinely two-pass
/// grammar (B.V flows right-to-left in pass 2 of a left-to-right-first
/// analysis), so checkpoints at boundary 1 carry real cross-pass state.
fn two_pass_setup() -> (Analysis, PTree) {
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
    let analysis = Analysis::run(
        b.build().unwrap(),
        &Config {
            pass: PassConfig {
                first_direction: Direction::LeftToRight,
                max_passes: 8,
            },
            ..Config::default()
        },
    )
    .unwrap();
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
    (analysis, tree)
}

fn prefix_opts() -> EvalOptions {
    EvalOptions {
        strategy: Strategy::Prefix,
        ..EvalOptions::default()
    }
}

/// Canonical byte encoding of an evaluation's outputs, for the
/// byte-identical acceptance criterion.
fn encoded_outputs(eval: &Evaluation) -> Vec<u8> {
    let mut buf = Vec::new();
    for (a, v) in &eval.outputs {
        buf.extend_from_slice(&a.0.to_le_bytes());
        v.encode(&mut buf);
    }
    buf
}

/// A unique checkpoint directory under the target dir (persistent across
/// the simulated crash *within* the test, removed at the end).
struct Ckpt(std::path::PathBuf);
impl Ckpt {
    fn new(name: &str) -> Ckpt {
        let dir = std::env::temp_dir().join(format!(
            "linguist86-recovery-{}-{}",
            std::process::id(),
            name
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Ckpt(dir)
    }
    fn path(&self) -> &std::path::Path {
        &self.0
    }
}
impl Drop for Ckpt {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn transient_fault_recovers_under_retry_policy() {
    let (analysis, x, obj) = leaf_sum_analysis();
    let tree = chain_tree(x, obj, 1, 20);
    let opts = EvalOptions {
        fault: Some(FaultSpec::transient(1, FaultTarget::Write, 3, 2)),
        retry: RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
        },
        ..EvalOptions::default()
    };
    let eval = evaluate(&analysis, &funcs_with_checked(), &tree, &opts)
        .expect("two transient faults within three attempts must recover");
    assert_eq!(eval.output(&analysis, "V"), Some(&Value::Int(210)));
    assert_eq!(eval.stats.retries, 2, "both shots should cost one retry");
}

#[test]
fn retry_exhaustion_surfaces_the_root_io_error_with_context() {
    let (analysis, x, obj) = leaf_sum_analysis();
    let tree = chain_tree(x, obj, 1, 20);
    let opts = EvalOptions {
        fault: Some(FaultSpec::transient(1, FaultTarget::Write, 3, 5)),
        retry: RetryPolicy {
            max_attempts: 2,
            backoff: Duration::ZERO,
        },
        ..EvalOptions::default()
    };
    match evaluate(&analysis, &funcs_with_checked(), &tree, &opts) {
        Err(EvalError::Apt(a)) => {
            assert!(matches!(a.root(), AptError::Io(_)));
            let msg = a.to_string();
            assert!(msg.contains("pass 1"), "pass context missing: {}", msg);
        }
        other => panic!("five shots must exhaust two attempts: {:?}", other),
    }
}

#[test]
fn corrupt_streams_are_not_retried() {
    // Retrying a deterministic failure would just burn the budget: a
    // poisoned tree fails on attempt one even with retries configured.
    let (analysis, x, obj) = leaf_sum_analysis();
    let tree = chain_tree(x, obj, 13, 5);
    let opts = EvalOptions {
        retry: RetryPolicy {
            max_attempts: 5,
            backoff: Duration::ZERO,
        },
        ..EvalOptions::default()
    };
    // The panic from Checked(13) unwinds out of `evaluate` (supervision
    // lives in the batch layer); catch it here to inspect retry state.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        evaluate(&analysis, &funcs_with_checked(), &tree, &opts)
    }));
    assert!(result.is_err(), "Checked(13) must panic");
}

#[test]
fn fault_at_every_pass_boundary_resumes_byte_identical() {
    let (analysis, tree) = two_pass_setup();
    let funcs = Funcs::standard();

    // Uninterrupted references, on both backings, must agree bytewise.
    let reference = evaluate(&analysis, &funcs, &tree, &prefix_opts()).unwrap();
    let mem = evaluate(
        &analysis,
        &funcs,
        &tree,
        &EvalOptions {
            backing: linguist_eval::machine::Backing::Memory,
            ..prefix_opts()
        },
    )
    .unwrap();
    assert_eq!(reference.output(&analysis, "V"), Some(&Value::Int(107)));
    assert_eq!(encoded_outputs(&reference), encoded_outputs(&mem));

    for fault_pass in 0u16..=2 {
        let ckpt = Ckpt::new(&format!("faultpass{}", fault_pass));
        let opts = EvalOptions {
            fault: Some(FaultSpec::new(fault_pass, FaultTarget::Write, 1)),
            ..prefix_opts()
        };
        // The "crash": a one-shot fault with no retry budget kills the
        // checkpointed run at pass `fault_pass`.
        let crash = evaluate_resumable(&analysis, &funcs, &tree, &opts, ckpt.path());
        assert!(crash.is_err(), "fault at pass {} must fire", fault_pass);

        let resumed = match Evaluation::resume(&analysis, &funcs, &prefix_opts(), ckpt.path()) {
            Ok(eval) => {
                // A fault at pass k leaves boundary k-1 as the newest
                // valid checkpoint.
                assert_eq!(
                    eval.stats.resumed_from,
                    Some(fault_pass - 1),
                    "resume point after fault at pass {}",
                    fault_pass
                );
                eval
            }
            Err(_) if fault_pass == 0 => {
                // Nothing was checkpointed before the crash; the caller
                // falls back to a fresh checkpointed run with the tree.
                evaluate_resumable(&analysis, &funcs, &tree, &prefix_opts(), ckpt.path()).unwrap()
            }
            Err(e) => panic!("resume after fault at pass {} failed: {}", fault_pass, e),
        };
        assert_eq!(
            encoded_outputs(&resumed),
            encoded_outputs(&reference),
            "resumed output after a pass-{} crash must be byte-identical",
            fault_pass
        );
    }
}

#[test]
fn completed_checkpoint_resumes_by_rerunning_only_the_final_pass() {
    let (analysis, tree) = two_pass_setup();
    let funcs = Funcs::standard();
    let ckpt = Ckpt::new("complete");
    let full = evaluate_resumable(&analysis, &funcs, &tree, &prefix_opts(), ckpt.path()).unwrap();
    assert_eq!(full.stats.passes.len(), 2);

    let again = Evaluation::resume(&analysis, &funcs, &prefix_opts(), ckpt.path()).unwrap();
    assert_eq!(encoded_outputs(&again), encoded_outputs(&full));
    // Root outputs live only in the machine, so the final pass re-runs
    // from boundary 1; passes 1..=1 are not repeated.
    assert_eq!(again.stats.resumed_from, Some(1));
    assert_eq!(again.stats.passes.len(), 1);
}

#[test]
fn corrupted_newest_checkpoint_walks_back_to_an_earlier_one() {
    let (analysis, tree) = two_pass_setup();
    let funcs = Funcs::standard();
    let ckpt = Ckpt::new("walkback");
    let full = evaluate_resumable(&analysis, &funcs, &tree, &prefix_opts(), ckpt.path()).unwrap();

    // Flip one byte in the newest resumable boundary (1): its manifest
    // entry no longer matches, so resume must fall back to boundary 0
    // and re-run both passes — same bytes out.
    let b1 = boundary_path(ckpt.path(), 1);
    let mut data = std::fs::read(&b1).unwrap();
    let mid = data.len() / 2;
    data[mid] ^= 0xFF;
    std::fs::write(&b1, &data).unwrap();

    let resumed = Evaluation::resume(&analysis, &funcs, &prefix_opts(), ckpt.path()).unwrap();
    assert_eq!(resumed.stats.resumed_from, Some(0));
    assert_eq!(resumed.stats.passes.len(), 2);
    assert_eq!(encoded_outputs(&resumed), encoded_outputs(&full));
}

#[test]
fn deleted_checkpoint_files_walk_back_one_at_a_time() {
    // The walk-back must survive *missing* boundary files, not only
    // corrupted ones: deleting boundary k makes its manifest entry
    // unverifiable (`file_summary` errors instead of mismatching), and
    // resume must fall back to the newest surviving boundary with
    // byte-identical output.
    let (analysis, tree) = two_pass_setup();
    let funcs = Funcs::standard();

    for deleted in 0u16..=1 {
        let ckpt = Ckpt::new(&format!("delete{}", deleted));
        let full =
            evaluate_resumable(&analysis, &funcs, &tree, &prefix_opts(), ckpt.path()).unwrap();
        std::fs::remove_file(boundary_path(ckpt.path(), deleted)).unwrap();

        let resumed = Evaluation::resume(&analysis, &funcs, &prefix_opts(), ckpt.path()).unwrap();
        // Deleting 1 forces the walk back to 0; deleting 0 leaves the
        // newer boundary 1 as the (still valid) resume point.
        let expect_from = if deleted == 1 { 0 } else { 1 };
        assert_eq!(
            resumed.stats.resumed_from,
            Some(expect_from),
            "resume point after deleting boundary {}",
            deleted
        );
        assert_eq!(
            resumed.stats.passes.len(),
            (2 - expect_from) as usize,
            "only the passes after boundary {} re-run",
            expect_from
        );
        assert_eq!(
            encoded_outputs(&resumed),
            encoded_outputs(&full),
            "byte-identical output after deleting boundary {}",
            deleted
        );
    }
}

#[test]
fn deleting_every_checkpoint_file_fails_typed_then_fresh_run_recovers() {
    let (analysis, tree) = two_pass_setup();
    let funcs = Funcs::standard();
    let ckpt = Ckpt::new("deleteall");
    let full = evaluate_resumable(&analysis, &funcs, &tree, &prefix_opts(), ckpt.path()).unwrap();

    for k in 0u16..=1 {
        std::fs::remove_file(boundary_path(ckpt.path(), k)).unwrap();
    }
    // The manifest survives but no boundary it records exists: resume
    // (tree-free, so nothing to restart from) must fail typed rather
    // than fabricate output.
    let err = Evaluation::resume(&analysis, &funcs, &prefix_opts(), ckpt.path())
        .expect_err("no boundary file can validate");
    assert!(
        matches!(err, EvalError::Corrupt(_)),
        "expected a corrupt-checkpoint error, got {:?}",
        err
    );
    // A caller holding the tree falls back to a fresh checkpointed run
    // in the same directory — same bytes out, checkpoints rebuilt.
    let fresh = evaluate_resumable(&analysis, &funcs, &tree, &prefix_opts(), ckpt.path()).unwrap();
    assert_eq!(encoded_outputs(&fresh), encoded_outputs(&full));
    let again = Evaluation::resume(&analysis, &funcs, &prefix_opts(), ckpt.path()).unwrap();
    assert_eq!(encoded_outputs(&again), encoded_outputs(&full));
}

#[test]
fn resume_without_any_checkpoint_is_a_typed_error() {
    let (analysis, _) = two_pass_setup();
    let ckpt = Ckpt::new("empty");
    std::fs::create_dir_all(ckpt.path()).unwrap();
    match Evaluation::resume(&analysis, &Funcs::standard(), &prefix_opts(), ckpt.path()) {
        Err(EvalError::Manifest(e)) => assert!(e.is_missing()),
        other => panic!("expected a missing-manifest error, got {:?}", other),
    }
}

#[test]
fn zero_deadline_fails_with_a_typed_deadline_error() {
    let (analysis, x, obj) = leaf_sum_analysis();
    let tree = chain_tree(x, obj, 1, 5);
    let opts = EvalOptions {
        deadline: Some(Duration::ZERO),
        ..EvalOptions::default()
    };
    match evaluate(&analysis, &funcs_with_checked(), &tree, &opts) {
        Err(EvalError::Deadline { limit }) => assert_eq!(limit, Duration::ZERO),
        other => panic!("expected a deadline error, got {:?}", other),
    }
}

#[test]
fn eight_job_batch_survives_one_panicking_job() {
    // The focused slot.expect regression: before supervision, the panic
    // below unwound through a worker thread and the coordinator died on
    // its empty result slot, killing all eight jobs.
    let (analysis, x, obj) = leaf_sum_analysis();
    let funcs = funcs_with_checked();
    let trees: Vec<PTree> = (1..=8)
        .map(|i| chain_tree(x, obj, if i == 3 { 13 } else { i }, 10))
        .collect();
    let outcome = BatchEvaluator::new(8).run(&analysis, &funcs, &trees);

    assert_eq!(outcome.stats.jobs, 8);
    assert_eq!(outcome.stats.failed, 1, "only the poisoned job fails");
    assert_eq!(outcome.stats.panicked, 1);
    let failure = &outcome.stats.failures[0];
    assert_eq!(failure.job, 2, "job index of the poisoned tree");
    assert_eq!(failure.kind, FailureKind::Panicked);
    assert!(
        failure.message.contains("boom"),
        "panic message should survive: {}",
        failure.message
    );
    for (i, result) in outcome.results.iter().enumerate() {
        let base = (i as i64) + 1;
        if base == 3 {
            assert!(matches!(result, Err(EvalError::Panicked(_))));
        } else {
            let expect = base + (2..=10).sum::<i64>();
            assert_eq!(
                result.as_ref().unwrap().output(&analysis, "V"),
                Some(&Value::Int(expect)),
                "sibling job {} must be unaffected",
                i
            );
        }
    }
}

#[test]
fn acceptance_batch_with_panic_and_transient_fault() {
    // The ISSUE acceptance scenario: an 8-job batch where one job
    // panics and one draws a transient one-shot I/O fault. With a
    // 2-attempt retry policy the faulted job recovers; the panicking job
    // fails typed; the other counters stay exact.
    let (analysis, x, obj) = leaf_sum_analysis();
    let funcs = funcs_with_checked();
    let trees: Vec<PTree> = (1..=8)
        .map(|i| chain_tree(x, obj, if i == 5 { 13 } else { i }, 12))
        .collect();
    // The panicking job dies at its first semantic function, before it
    // writes a single pass-1 record — so the fault's one shot is always
    // consumed (and recovered) by a healthy job.
    let fault = FaultSpec::transient(1, FaultTarget::Write, 2, 1);
    let opts = EvalOptions {
        fault: Some(fault.clone()),
        retry: RetryPolicy {
            max_attempts: 2,
            backoff: Duration::from_millis(1),
        },
        ..EvalOptions::default()
    };
    let outcome = BatchEvaluator::with_options(8, opts).run(&analysis, &funcs, &trees);

    assert!(!fault.is_armed(), "the transient fault never fired");
    assert_eq!(outcome.stats.jobs, 8);
    assert_eq!(outcome.stats.failed, 1, "only the panicking job may fail");
    assert_eq!(outcome.stats.panicked, 1);
    assert_eq!(
        outcome.stats.eval.retries, 1,
        "one pass retry across the batch"
    );
    assert_eq!(outcome.stats.recovered, 1, "one job recovered via retry");
    assert_eq!(outcome.stats.failures[0].kind, FailureKind::Panicked);
    let ok = outcome.results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(ok, 7, "7+ successes with no coordinator panic");
}
