//! E12 — the memory-residency claim.
//!
//! Paper (abstract + §I): "About 48K bytes of memory are available …
//! Even though the APT for the LINGUIST-86 attribute grammar is more than
//! 42K bytes long, everything fits because at any one time most of the
//! APT is stored in temporary disk files."
//!
//! Shape claims:
//!  1. peak in-memory residency tracks the tree's *spine* (depth), not
//!     its size: a balanced tree 64× bigger needs only ~log more memory;
//!  2. realistic workloads whose APT files exceed the 48 KB window still
//!     evaluate comfortably inside it.

use linguist_bench::{analyze, faithful, rule};
use linguist_eval::funcs::Funcs;
use linguist_eval::machine::EvalOptions;
use linguist_frontend::Translator;
use linguist_grammars::{pascal_program, pascal_scanner, pascal_source};
use linguist_lexgen::ScannerDef;

/// A balanced binary tree language: pair = ( pair pair ) | leaf.
const BALANCED: &str = r#"
grammar Balanced ;
terminals
  leaf : intrinsic OBJ int ;
  LP ;
  RP ;
nonterminals
  pair : syn SUM int ;
start pair ;
productions
prod pair0 = LP pair1 pair2 RP :
  pair0.SUM = pair1.SUM + pair2.SUM ;
end
prod pair = leaf :
  pair.SUM = leaf.OBJ ;
end
end
"#;

fn balanced_input(depth: usize) -> String {
    if depth == 0 {
        "1".to_owned()
    } else {
        let sub = balanced_input(depth - 1);
        format!("({} {})", sub, sub)
    }
}

fn chain_input(leaves: usize) -> String {
    // Left-leaning chain with the same grammar: ((((1 1) 1) 1) ... 1).
    let mut s = "1".to_owned();
    for _ in 0..leaves {
        s = format!("({} 1)", s);
    }
    s
}

fn main() {
    rule("E12a: peak residency tracks depth, not size (balanced vs chain)");
    let out = analyze(BALANCED, &faithful());
    let scanner = ScannerDef::new()
        .skip(r"[ \t\n]+")
        .token("leaf", "[0-9]+")
        .token("LP", r"\(")
        .token("RP", r"\)")
        .build()
        .unwrap();
    let t = Translator::new(out.analysis, scanner).unwrap();
    let funcs = Funcs::standard();
    let opts = EvalOptions::default();

    println!(
        "{:<10} {:>8} {:>8} {:>14} {:>10}",
        "shape", "leaves", "depth", "APT traffic B", "peak B"
    );
    let mut balanced_rows = Vec::new();
    for depth in [4usize, 6, 8, 10] {
        let input = balanced_input(depth);
        let r = t.translate(&input, &funcs, &opts).expect("balanced input");
        println!(
            "{:<10} {:>8} {:>8} {:>14} {:>10}",
            "balanced",
            1usize << depth,
            r.stats.max_depth,
            r.stats.total_io_bytes(),
            r.stats.meter.peak()
        );
        balanced_rows.push((
            1usize << depth,
            r.stats.total_io_bytes(),
            r.stats.meter.peak(),
        ));
    }
    for leaves in [16usize, 64] {
        let input = chain_input(leaves);
        let r = t.translate(&input, &funcs, &opts).expect("chain input");
        println!(
            "{:<10} {:>8} {:>8} {:>14} {:>10}",
            "chain",
            leaves + 1,
            r.stats.max_depth,
            r.stats.total_io_bytes(),
            r.stats.meter.peak()
        );
    }
    let (n0, io0, p0) = balanced_rows[0];
    let (n3, io3, p3) = balanced_rows[balanced_rows.len() - 1];
    println!(
        "\nbalanced tree x{}: APT traffic x{:.1} but peak residency only x{:.1} — the files absorb the size",
        n3 / n0,
        io3 as f64 / io0 as f64,
        p3 as f64 / p0 as f64
    );
    assert!((io3 as f64 / io0 as f64) > 8.0 * (p3 as f64 / p0 as f64));

    rule("E12b: a realistic workload beyond the 48 KB window (paper: >42K APT in 48K)");
    let out = analyze(pascal_source(), &faithful());
    let translator = Translator::new(out.analysis, pascal_scanner()).expect("translator");
    println!(
        "{:>8} {:>12} {:>12} {:>10} {:>8}",
        "stmts", "src bytes", "APT file B", "peak B", "fits?"
    );
    for stmts in [40usize, 160, 640] {
        let program = pascal_program(8, stmts);
        let r = translator
            .translate(&program, &funcs, &opts)
            .expect("program evaluates");
        let apt_file = r.stats.passes[0].bytes_written;
        println!(
            "{:>8} {:>12} {:>12} {:>10} {:>8}",
            stmts,
            program.len(),
            apt_file,
            r.stats.meter.peak(),
            if r.stats.meter.exceeded() {
                "NO"
            } else {
                "yes"
            }
        );
        if apt_file as usize > 42 * 1024 {
            assert!(
                !r.stats.meter.exceeded(),
                "an APT bigger than the paper's 42K still fits the 48K window"
            );
        }
    }
}
