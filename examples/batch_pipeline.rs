//! Batch pipeline: many independent inputs through one translator, in
//! parallel.
//!
//! ```sh
//! cargo run --example batch_pipeline
//! ```
//!
//! The paper's evaluator handles one APT at a time; a production
//! translator faces a directory of source files. This example builds the
//! bundled calculator translator once, then pushes a batch of generated
//! expressions through [`Translator::translate_batch`], which parses
//! sequentially and evaluates on a pool of worker threads — each job
//! with its own isolated intermediate files. The same batch runs on 1
//! worker and on all available cores, so the aggregate `BatchStats`
//! (per-pass I/O, rules fired, jobs/sec) can be compared directly.

use linguist86::eval::funcs::Funcs;
use linguist86::eval::machine::{Backing, EvalOptions};
use linguist86::frontend::driver::{run, DriverOptions};
use linguist86::frontend::Translator;
use linguist86::grammars::{calc_scanner, calc_source};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out = run(calc_source(), &DriverOptions::default())?;
    let translator = Translator::new(out.analysis, calc_scanner())?;
    let funcs = Funcs::standard();
    // Memory backing: all intermediate-file traffic stays in RAM.
    let opts = EvalOptions {
        backing: Backing::Memory,
        ..EvalOptions::default()
    };

    // A compilation unit per "file": generated expressions of growing size.
    let inputs: Vec<String> = (0..120)
        .map(|i| {
            let mut src = format!("{}", i % 10);
            for k in 0..40 {
                src = format!("({} + {} * {})", src, (i + k) % 9 + 1, k % 7 + 1);
            }
            src
        })
        .collect();
    let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for workers in [1, cores] {
        let (results, stats) = translator.translate_batch(&refs, &funcs, &opts, workers);
        let failures = results.iter().filter(|r| r.is_err()).count();
        println!("== {} worker(s) ==", stats.workers);
        println!("jobs:        {} ({} failed)", stats.jobs, failures);
        println!("wall:        {:?}", stats.wall);
        println!("jobs/sec:    {:.1}", stats.jobs_per_sec());
        println!(
            "rules fired: {} across {} pass(es)",
            stats.eval.total_rules(),
            stats.eval.passes.len()
        );
        println!(
            "APT traffic: {} bytes ({} per job on average)\n",
            stats.eval.total_io_bytes(),
            stats.eval.total_io_bytes() / stats.jobs as u64
        );
    }

    // Spot-check one answer against the sequential evaluator.
    let sequential = translator.translate(&inputs[7], &funcs, &opts)?;
    let (batch_results, _) = translator.translate_batch(&refs[7..8], &funcs, &opts, 2);
    let batch = batch_results[0].as_ref().expect("job succeeds");
    assert_eq!(
        batch.output(&translator.analysis, "V"),
        sequential.output(&translator.analysis, "V"),
        "parallel and sequential evaluation agree"
    );
    println!(
        "input #7 evaluates to {} under both drivers",
        sequential
            .output(&translator.analysis, "V")
            .expect("calculator output")
    );
    Ok(())
}
