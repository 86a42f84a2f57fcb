//! Hostile bytes into the generated runtime.
//!
//! The checked-in AOT evaluators parse the same checksummed APT framing
//! as the interpreter, through their own copy of the reader
//! (`codegen/src/rt.rs`). For each of the five, one valid boundary-0
//! input is built exactly as the engine builds it, then every byte is
//! XOR-flipped and, separately, the input is truncated at every offset.
//! Each call must return `Err` or the unmodified input's exact output —
//! never panic.

use linguist86::eval::aptfile::AptWriter;
use linguist86::eval::machine::Strategy;
use linguist86::frontend::differential::strategy_for;
use linguist86::frontend::synthesize_tree;
use linguist86::grammars::{
    analyze, block_source, calc_source, knuth_source, meta_source, pascal_source,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

type EvaluateApt = fn(&[u8]) -> Result<Vec<u8>, String>;

/// `(name, source, synthesis budget, the crate's entry point)`. Budgets
/// stay small: every mutation re-runs the whole evaluator.
fn evaluators() -> [(&'static str, &'static str, usize, EvaluateApt); 5] {
    [
        (
            "calc",
            calc_source(),
            40,
            linguist_aot_calc_opt::evaluate_apt,
        ),
        (
            "knuth",
            knuth_source(),
            24,
            linguist_aot_knuth_opt::evaluate_apt,
        ),
        (
            "block",
            block_source(),
            40,
            linguist_aot_block_opt::evaluate_apt,
        ),
        (
            "meta",
            meta_source(),
            60,
            linguist_aot_meta_opt::evaluate_apt,
        ),
        (
            "pascal",
            pascal_source(),
            40,
            linguist_aot_pascal_opt::evaluate_apt,
        ),
    ]
}

/// One valid boundary-0 file for `source`, written the way the engine
/// writes it for the compiled evaluator.
fn valid_input(source: &str, budget: usize) -> Vec<u8> {
    let analysis = analyze(source).expect("bundled grammar analyzes").analysis;
    let tree = synthesize_tree(&analysis.grammar, budget).expect("finite derivation");
    let mut w = AptWriter::create_owned();
    match strategy_for(&analysis) {
        Strategy::BottomUp => tree.write_postfix(&analysis.grammar, &analysis.lifetimes, &mut w),
        Strategy::Prefix => tree.write_prefix(&analysis.grammar, &analysis.lifetimes, &mut w),
    }
    .expect("owned writer accepts the tree");
    w.finish_owned().expect("owned writer seals").1
}

/// Run `eval` on `input`; `None` if it panicked, else whether the result
/// is acceptable (an error, or exactly `want`).
fn acceptable(eval: EvaluateApt, input: &[u8], want: &[u8]) -> Option<bool> {
    match catch_unwind(AssertUnwindSafe(|| eval(input))) {
        Err(_) => None,
        Ok(Err(_)) => Some(true),
        Ok(Ok(out)) => Some(out == want),
    }
}

#[test]
fn generated_evaluators_reject_flipped_and_truncated_inputs() {
    for (name, source, budget, eval) in evaluators() {
        let valid = valid_input(source, budget);
        let want = eval(&valid).unwrap_or_else(|e| panic!("{}: valid input fails: {}", name, e));
        for at in 0..valid.len() {
            let mut flipped = valid.clone();
            flipped[at] ^= 0xff;
            match acceptable(eval, &flipped, &want) {
                None => panic!("{}: panicked on byte {} flipped", name, at),
                Some(ok) => assert!(ok, "{}: wrong output with byte {} flipped", name, at),
            }
        }
        for len in 0..valid.len() {
            match acceptable(eval, &valid[..len], &want) {
                None => panic!("{}: panicked on input truncated to {} bytes", name, len),
                Some(ok) => assert!(ok, "{}: wrong output truncated to {} bytes", name, len),
            }
        }
    }
}
