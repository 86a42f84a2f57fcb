//! E11 — the §V throughput comparison.
//!
//! Paper: LINGUIST-86 processes attribute grammars at 350–500 lines per
//! minute (its own grammar) and "a little more than 400" (the Pascal
//! grammar), against host compilers at 400–900 lines/min — i.e. the two
//! grammars process at comparable rates and the TWS is competitive in
//! magnitude with ordinary translators. We reproduce the *ratio* between
//! the two grammar workloads and report absolute lines/min for the
//! record.

use linguist_bench::{analyze, faithful, rule};
use linguist_grammars::{block_source, calc_source, meta_source, pascal_source};

fn lines_per_minute(src: &str, runs: usize) -> f64 {
    // Best-of-n to squeeze out noise; the metric excludes generation time
    // exactly as the paper does.
    (0..runs)
        .map(|_| analyze(src, &faithful()).lines_per_minute())
        .fold(f64::MIN, f64::max)
}

fn main() {
    rule("E11: processing throughput (paper §V)");
    println!("paper: LINGUIST grammar 350-500 lines/min; Pascal grammar ~400+ lines/min; host compilers 400-900\n");

    let meta = lines_per_minute(meta_source(), 5);
    let pascal = lines_per_minute(pascal_source(), 5);
    let block = lines_per_minute(block_source(), 5);
    let calc = lines_per_minute(calc_source(), 5);

    println!("{:<10} {:>16} ", "grammar", "lines/min");
    for (name, v) in [
        ("meta", meta),
        ("pascal", pascal),
        ("block", block),
        ("calc", calc),
    ] {
        println!("{:<10} {:>16.0}", name, v);
    }
    let ratio = pascal / meta;
    println!(
        "\npascal/meta throughput ratio: {:.2} (paper: ~400/425 = 0.94; same order, \"reasonably competitive\")",
        ratio
    );
    assert!(
        ratio > 0.2 && ratio < 5.0,
        "the two grammar workloads process at comparable rates"
    );
}
