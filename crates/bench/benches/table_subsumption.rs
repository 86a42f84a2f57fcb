//! E8 — the §III static-subsumption measurements.
//!
//! Paper: "Static subsumption eliminated nearly 20% of the semantic
//! function evaluation code in LINGUIST-86. It eliminated about 13% of
//! the code that evaluates semantic functions in the Pascal attribute
//! evaluator. … We also timed versions of LINGUIST-86 that were generated
//! with and without having static subsumption applied. Because the
//! evaluators are I/O bound there was no noticeable difference."
//!
//! Shape claims: a double-digit percentage of semantic code vanishes on
//! the copy-chain-heavy meta grammar; a smaller share on the
//! computation-heavy Pascal grammar; and run time is essentially
//! unchanged.

use linguist_ag::analysis::Config;
use linguist_bench::{analyze, faithful, median_time, rule, us};
use linguist_codegen::{generate, Target};
use linguist_eval::funcs::Funcs;
use linguist_eval::machine::EvalOptions;
use linguist_frontend::driver::DriverOptions;
use linguist_frontend::Translator;
use linguist_grammars::{meta_scanner, meta_source, pascal_source};

fn code_sizes(src: &str) -> (usize, usize, usize) {
    let with = analyze(src, &faithful());
    let without = analyze(
        src,
        &DriverOptions {
            config: Config {
                disable_subsumption: true,
                ..faithful().config
            },
            ..DriverOptions::default()
        },
    );
    let with_gen = generate(&with.analysis, Target::Pascal);
    let without_gen = generate(&without.analysis, Target::Pascal);
    (
        with_gen.semantic_bytes(),
        without_gen.semantic_bytes(),
        with_gen.subsumed_rules(),
    )
}

fn main() {
    rule("E8: static subsumption code elimination (paper §III)");
    println!("paper: ~20% of semantic-function code eliminated on the LINGUIST grammar, ~13% on Pascal\n");
    println!(
        "{:<10} {:>12} {:>14} {:>12} {:>10}",
        "grammar", "with (B)", "without (B)", "eliminated", "subsumed"
    );
    let mut fractions = Vec::new();
    for (name, src) in [("meta", meta_source()), ("pascal", pascal_source())] {
        let (with, without, subsumed) = code_sizes(src);
        let frac = (without.saturating_sub(with)) as f64 / without as f64;
        fractions.push((name, frac));
        println!(
            "{:<10} {:>12} {:>14} {:>11.1}% {:>10}",
            name,
            with,
            without,
            100.0 * frac,
            subsumed
        );
    }
    // Direction: the copy-chain-heavy grammar benefits more.
    let meta_frac = fractions[0].1;
    let pascal_frac = fractions[1].1;
    println!(
        "\nmeta eliminates a larger share than pascal: {:.1}% vs {:.1}% (paper: 20% vs 13%)",
        100.0 * meta_frac,
        100.0 * pascal_frac
    );
    assert!(meta_frac > pascal_frac, "direction matches the paper");
    assert!(meta_frac > 0.05, "double-digit-ish elimination on meta");

    // Run-time comparison: evaluation is I/O bound, so subsumption on/off
    // should not move the needle.
    rule("run time with vs without subsumption (paper: no noticeable difference)");
    let with = analyze(meta_source(), &faithful());
    let without = analyze(
        meta_source(),
        &DriverOptions {
            config: Config {
                disable_subsumption: true,
                ..faithful().config
            },
            ..DriverOptions::default()
        },
    );
    let t_with = Translator::new(with.analysis, meta_scanner()).expect("translator");
    let t_without = Translator::new(without.analysis, meta_scanner()).expect("translator");
    let funcs = Funcs::standard();
    let opts = EvalOptions {
        check_globals: false,
        ..EvalOptions::default()
    };
    let d_with = median_time(7, || {
        let _ = t_with.translate(pascal_source(), &funcs, &opts);
    });
    let d_without = median_time(7, || {
        let _ = t_without.translate(pascal_source(), &funcs, &opts);
    });
    println!("with subsumption:    {}", us(d_with));
    println!("without subsumption: {}", us(d_without));
    let ratio = d_with.as_secs_f64() / d_without.as_secs_f64();
    println!(
        "ratio: {:.2} (paper: ~1.0 — evaluators are I/O bound)",
        ratio
    );
}
