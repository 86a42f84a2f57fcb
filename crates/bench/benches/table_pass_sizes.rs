//! E9 — the §V per-pass evaluator sizes.
//!
//! Paper:  pass 1 - 4292 bytes, pass 2 - 6538, pass 3 - 5414,
//!         pass 4 - 7215, husk - 4065.
//! Claims to reproduce in shape: the husk ("overhead") is a significant
//! share of each module and identical across passes; different passes
//! carry visibly different semantic loads.

use linguist_bench::{analyze, faithful, rule};
use linguist_codegen::{generate, Target};
use linguist_grammars::meta_source;

fn main() {
    rule("E9: per-pass evaluator module sizes (paper §V)");
    let out = analyze(meta_source(), &faithful());
    let evaluator = generate(&out.analysis, Target::Pascal);

    println!("paper:    pass 1 - 4292 B   pass 2 - 6538 B   pass 3 - 5414 B   pass 4 - 7215 B   husk - 4065 B\n");
    print!("measured:");
    for p in &evaluator.passes {
        print!("  pass {} - {} B", p.pass, p.total_bytes());
    }
    println!("   husk - {} B", evaluator.husk_bytes());

    println!(
        "\n{:<8} {:>10} {:>10} {:>12} {:>10}",
        "pass", "total B", "husk B", "semantic B", "husk %"
    );
    for p in &evaluator.passes {
        println!(
            "{:<8} {:>10} {:>10} {:>12} {:>9.0}%",
            p.pass,
            p.total_bytes(),
            p.husk_bytes,
            p.semantic_bytes,
            100.0 * p.husk_bytes as f64 / p.total_bytes() as f64
        );
    }

    // Shape checks.
    let husks: Vec<usize> = evaluator.passes.iter().map(|p| p.husk_bytes).collect();
    assert!(
        husks.windows(2).all(|w| w[0] == w[1]),
        "the husk is the same for every pass (§V)"
    );
    let sem: Vec<usize> = evaluator.passes.iter().map(|p| p.semantic_bytes).collect();
    let min = sem.iter().min().unwrap();
    let max = sem.iter().max().unwrap();
    assert!(max > min, "passes carry different semantic loads");
    let husk_share = evaluator.husk_bytes() as f64
        / evaluator
            .passes
            .iter()
            .map(|p| p.total_bytes())
            .max()
            .unwrap() as f64;
    println!(
        "\nhusk share of the largest pass: {:.0}% — \"the 'overhead' in the attribute evaluators is significant\"",
        100.0 * husk_share
    );
    assert!(husk_share > 0.25);
}
