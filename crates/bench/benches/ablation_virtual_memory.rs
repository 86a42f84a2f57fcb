//! E15 — the paper's closing question, answered.
//!
//! "Since attribute evaluation is I/O bound, can the evaluation paradigm
//! and its implementation be modified or streamlined to be faster?
//! Especially, would some form of virtual memory system significantly
//! speed up the evaluators?" (§Conclusions)
//!
//! We back the *identical* record format and pass structure with RAM
//! buffers instead of temporary files and measure the speedup across
//! workload sizes — the virtual-memory hypothetical with everything else
//! held fixed.

use linguist_bench::{analyze, faithful, median_time, rule, us};
use linguist_eval::funcs::Funcs;
use linguist_eval::machine::{Backing, EvalOptions};
use linguist_frontend::Translator;
use linguist_grammars::{pascal_program, pascal_scanner, pascal_source};

fn main() {
    rule("E15: disk files vs memory backing (the paper's virtual-memory question)");
    let out = analyze(pascal_source(), &faithful());
    let translator = Translator::new(out.analysis, pascal_scanner()).expect("translator");
    let funcs = Funcs::standard();
    let disk = EvalOptions {
        check_globals: false,
        ..EvalOptions::default()
    };
    let memory = EvalOptions {
        backing: Backing::Memory,
        ..disk.clone()
    };

    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>10}",
        "stmts", "APT traffic B", "disk", "memory", "speedup"
    );
    for stmts in [20usize, 80, 320] {
        let program = pascal_program(8, stmts);
        // Results must agree between backings.
        let r_disk = translator
            .translate(&program, &funcs, &disk)
            .expect("disk run");
        let r_mem = translator
            .translate(&program, &funcs, &memory)
            .expect("memory run");
        assert!(
            r_disk
                .outputs
                .iter()
                .map(|(_, v)| v)
                .eq(r_mem.outputs.iter().map(|(_, v)| v)),
            "backings agree"
        );

        let d_disk = median_time(7, || {
            let _ = translator.translate(&program, &funcs, &disk);
        });
        let d_mem = median_time(7, || {
            let _ = translator.translate(&program, &funcs, &memory);
        });
        println!(
            "{:>8} {:>14} {:>14} {:>14} {:>9.2}x",
            stmts,
            r_disk.stats.total_io_bytes(),
            us(d_disk),
            us(d_mem),
            d_disk.as_secs_f64() / d_mem.as_secs_f64()
        );
    }
    println!(
        "\n(1982's answer would have been dramatic — floppy seeks vs RAM; on a modern OS the \
         page cache already absorbs the file traffic and the reader fetches it a 64 KiB window \
         at a time, so the residual speedup is the per-evaluation cost of the temp directory \
         and its files)"
    );
}
