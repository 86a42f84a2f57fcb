//! E10 — the §V overlay timing table.
//!
//! Paper (processing LINGUIST-86's own grammar on the 8086):
//!   parser 80 s, eval-1 25 s, eval-2 42 s, evaluability 9 s,
//!   eval-3 24 s, listing 63 s, TOTAL 243 s.
//! Shape claims: the pipeline is I/O-and-text-bound — the parser and the
//! listing generator are the heavy overlays; the evaluability test is a
//! minor cost. We also evaluate a workload through the generated
//! translator and show the per-pass byte traffic that makes the
//! evaluation passes I/O-bound.

use linguist_bench::{analyze, faithful, median_time, rule, us};
use linguist_eval::funcs::Funcs;
use linguist_eval::machine::EvalOptions;
use linguist_frontend::driver::OverlayTimings;
use linguist_frontend::Translator;
use linguist_grammars::{meta_scanner, meta_source, pascal_source};
use std::time::Duration;

fn main() {
    rule("E10: overlay timings (paper §V)");
    println!("paper (8086, seconds): parser 80 | sem-1 25 | sem-2 42 | evaluability 9 | listing 63 | TOTAL 243\n");

    // Median-of-5 overlay timings for the meta grammar.
    let mut best: Option<OverlayTimings> = None;
    let mut total = Duration::MAX;
    for _ in 0..5 {
        let out = analyze(meta_source(), &faithful());
        if out.timings.total() < total {
            total = out.timings.total();
            best = Some(out.timings);
        }
    }
    let t = best.expect("ran");
    println!("measured (meta grammar, this machine):");
    println!("             parser overlay - {:>10}", us(t.parser));
    println!("   semantic analysis 1 (O2) - {:>10}", us(t.semantic1));
    println!("   semantic analysis 2 (O3) - {:>10}", us(t.semantic2));
    println!("  evaluability test    (O4) - {:>10}", us(t.evaluability));
    println!("    of which circularity    - {:>10}", us(t.circularity));
    println!("  message collection   (O5) - {:>10}", us(t.messages));
    println!("  listing generation   (O6) - {:>10}", us(t.listing));
    for (i, g) in t.generation.iter().enumerate() {
        println!("  evaluator gen pass {} (O7) - {:>10}", i + 1, us(*g));
    }
    println!("                      TOTAL - {:>10}", us(t.total()));

    let front_heavy = t.parser + t.listing;
    let analysis_cost = t.evaluability;
    println!(
        "\nparser+listing share: {:.0}% of non-generation time (paper: (80+63)/243 = 59%)",
        100.0 * front_heavy.as_secs_f64() / t.total_excluding_generation().as_secs_f64()
    );
    println!(
        "evaluability share:   {:.0}% (paper: 9/243 = 4%)",
        100.0 * analysis_cost.as_secs_f64() / t.total_excluding_generation().as_secs_f64()
    );
    println!(
        "circularity share:    {:.0}% of the evaluability overlay",
        100.0 * t.circularity.as_secs_f64() / analysis_cost.as_secs_f64()
    );

    // Evaluation passes are I/O bound: every pass moves the whole APT
    // through the intermediate files.
    rule("evaluation-pass byte traffic (the I/O-bound claim)");
    let out = analyze(meta_source(), &faithful());
    let translator = Translator::new(out.analysis, meta_scanner()).expect("meta translator");
    let funcs = Funcs::standard();
    let r = translator
        .translate(pascal_source(), &funcs, &EvalOptions::default())
        .expect("lint pascal.lg");
    println!(
        "{:<6} {:>12} {:>12} {:>10} {:>10}",
        "pass", "read B", "written B", "records", "time"
    );
    for (i, p) in r.stats.passes.iter().enumerate() {
        println!(
            "{:<6} {:>12} {:>12} {:>10} {:>10}",
            i + 1,
            p.bytes_read,
            p.bytes_written,
            p.records_read,
            us(p.duration)
        );
    }
    println!(
        "\ntotal APT traffic: {} bytes over {} passes; peak stack residency only {} bytes",
        r.stats.total_io_bytes(),
        r.stats.passes.len(),
        r.stats.meter.peak()
    );

    // Rough sanity timing for repeat runs.
    let median = median_time(5, || {
        let _ = translator.translate(pascal_source(), &funcs, &EvalOptions::default());
    });
    println!("median evaluation time: {}", us(median));
}
