//! E7 — the §IV statistics table.
//!
//! Paper (for LINGUIST-86's own 1800-line grammar): 159 symbols, 318
//! attributes, 72 productions, 1202 attribute-occurrences, 584 semantic
//! functions, 302 copy-rules (a little more than 50%), 276 implicit,
//! evaluable in 4 alternating passes.

use linguist_bench::{analyze, faithful, rule};
use linguist_grammars::{block_source, calc_source, meta_source, pascal_source};

fn main() {
    rule("E7: grammar statistics (paper §IV)");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>6}",
        "grammar", "symbols", "attrs", "prods", "occs", "semfns", "copies", "implicit", "passes"
    );
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>6}   <- the paper's LINGUIST-86 row",
        "paper", 159, 318, 72, 1202, 584, 302, 276, 4
    );
    for (name, src) in [
        ("meta", meta_source()),
        ("pascal", pascal_source()),
        ("block", block_source()),
        ("calc", calc_source()),
    ] {
        let out = analyze(src, &faithful());
        let s = out.stats;
        println!(
            "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>6}",
            name,
            s.symbols,
            s.attributes,
            s.productions,
            s.occurrences,
            s.semantic_functions,
            s.copy_rules,
            s.implicit_copy_rules,
            s.passes
        );
    }
    let meta = analyze(meta_source(), &faithful());
    println!(
        "\nmeta copy fraction: {:.0}% (paper: 'a little more than 50%'); implicit share of copies: {:.0}% (paper: 276/302 = 91%)",
        100.0 * meta.stats.copy_fraction(),
        100.0 * meta.stats.implicit_copy_rules as f64 / meta.stats.copy_rules.max(1) as f64,
    );
    assert_eq!(
        meta.stats.passes, 4,
        "the meta grammar needs 4 passes, like the paper's"
    );
}
