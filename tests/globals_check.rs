//! The subsumption globals check does all of its work.
//!
//! With static subsumption on, the machine verifies every subsumed copy
//! against its reference value. Value equality tries shared structure
//! first, so most of those checks finish in O(1); this test pins how
//! *many* checks run, not just that none repairs a global, so a shortcut
//! that skipped a check would change a count and fail here.
//!
//! The inputs are the wide-scope shapes where the check matters: a
//! 128-variable Pascal program and a block program with 128 declarations
//! per scope, evaluated with the options a serve job uses (APT in
//! memory). The same counts must come out of the disk-backed store,
//! whose values are decoded from the APT file and share no structure, so
//! every comparison there takes the structural path.

use linguist86::eval::funcs::Funcs;
use linguist86::eval::machine::{Backing, EvalOptions};
use linguist86::frontend::differential::strategy_for;
use linguist86::frontend::Translator;
use linguist86::grammars::{
    analyze, block_program, block_scanner, block_source, pascal_program, pascal_scanner,
    pascal_source,
};
use linguist86::lexgen::Scanner;

/// Checks the library-default analysis makes on each input, as measured
/// before equality gained its sharing-first path. The block grammar
/// subsumes no copy-rule into a global, so its program checks nothing;
/// the pin keeps it that way.
const PASCAL_128_CHECKED: u64 = 399;
const BLOCK_128_CHECKED: u64 = 0;

/// `(globals_checked, globals_repaired)` of one evaluation.
fn globals_counts(source: &str, scanner: Scanner, input: &str, backing: Backing) -> (u64, u64) {
    let analysis = analyze(source).expect("bundled grammar analyzes").analysis;
    let translator = Translator::new(analysis, scanner).expect("translator builds");
    // The options `run_job` in the serve tier uses, apart from the store.
    let opts = EvalOptions {
        strategy: strategy_for(&translator.analysis),
        backing,
        ..EvalOptions::default()
    };
    assert!(opts.check_globals, "the globals check is on by default");
    let eval = translator
        .translate(input, &Funcs::standard(), &opts)
        .expect("input translates");
    (eval.stats.globals_checked, eval.stats.globals_repaired)
}

#[test]
fn pascal_128_variables_checks_every_subsumed_copy() {
    let input = pascal_program(128, 40);
    for backing in [Backing::Memory, Backing::Disk] {
        let counts = globals_counts(pascal_source(), pascal_scanner(), &input, backing);
        assert_eq!(counts, (PASCAL_128_CHECKED, 0), "{:?}", backing);
    }
}

#[test]
fn block_128_declarations_checks_every_subsumed_copy() {
    let input = block_program(128, 2);
    for backing in [Backing::Memory, Backing::Disk] {
        let counts = globals_counts(block_source(), block_scanner(), &input, backing);
        assert_eq!(counts, (BLOCK_128_CHECKED, 0), "{:?}", backing);
    }
}
