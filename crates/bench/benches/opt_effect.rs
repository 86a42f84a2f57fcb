//! Grammar-optimizer effect (EXPERIMENTS E22).
//!
//! For each bundled grammar, run the same serve-shaped evaluation twice
//! — once on the paper-faithful analysis (`--opt=off`) and once through
//! the grammar optimizer (`--opt=on`, the default) — and record
//! what the optimizer actually buys:
//!
//! * pass count (must never increase; the transforms only remove
//!   dependency edges),
//! * total records written across all boundaries (terminal-record
//!   elision removes attribute-free framing records),
//! * total bytes written (dead-attribute elimination and copy-chain
//!   collapsing shrink the records that remain),
//! * warm wall time per evaluation,
//! * the generated AOT evaluator's source size (what `rustc` has to
//!   chew through on the compiled path).
//!
//! Both runs are checked byte-identical on their outputs before any
//! timing, so the snapshot cannot report savings for an optimizer that
//! changed the translation. The snapshot lands in
//! `target/BENCH_opt_effect.json`; the repo root carries a committed
//! copy with the measured numbers, gated by `scripts/verify.sh`.

use linguist_ag::analysis::Config;
use linguist_ag::passes::Direction;
use linguist_bench::{rule, write_snapshot};
use linguist_codegen::rustgen;
use linguist_eval::funcs::Funcs;
use linguist_eval::machine::{evaluate, Backing, EvalOptions, Strategy};
use linguist_frontend::driver::{run, DriverOptions};
use linguist_frontend::report::synthesize_tree;
use std::fmt::Write as _;
use std::time::Instant;

const BUDGET: usize = 256;
const ITERS: u32 = 30;
const BATCHES: u32 = 5;

/// Best-of-`BATCHES` mean microseconds per call, `ITERS` calls per
/// batch. The minimum batch is the least scheduler-disturbed estimate —
/// the per-evaluation work here is small enough (tens of µs) that a
/// single preemption inside one batch would otherwise dominate the
/// comparison between the two modes.
fn time_us(mut f: impl FnMut()) -> f64 {
    f(); // warm
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..ITERS {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e6 / ITERS as f64);
    }
    best
}

struct ModeRow {
    passes: usize,
    records_written: u64,
    bytes_written: u64,
    wall_us: f64,
    aot_source_bytes: usize,
}

fn measure(source: &str, optimize: bool, budget: usize, funcs: &Funcs) -> (Vec<u8>, ModeRow) {
    let opts = DriverOptions {
        config: Config {
            optimize,
            ..Config::default()
        },
        ..DriverOptions::default()
    };
    let analysis = run(source, &opts)
        .expect("bundled grammar analyzes")
        .analysis;
    let tree = synthesize_tree(&analysis.grammar, budget).expect("finite derivation");
    let strategy = match analysis.passes.direction(1) {
        Direction::RightToLeft => Strategy::BottomUp,
        Direction::LeftToRight => Strategy::Prefix,
    };
    let eval_opts = EvalOptions {
        strategy,
        backing: Backing::Memory,
        ..EvalOptions::default()
    };
    let eval = evaluate(&analysis, funcs, &tree, &eval_opts).expect("evaluates");
    let metrics = &eval.stats;
    let records_written: u64 = metrics.initial_records
        + metrics
            .passes
            .iter()
            .map(|p| p.records_written)
            .sum::<u64>();
    let bytes_written: u64 =
        metrics.initial_bytes + metrics.passes.iter().map(|p| p.bytes_written).sum::<u64>();
    let wall_us = time_us(|| {
        evaluate(&analysis, funcs, &tree, &eval_opts).expect("evaluates");
    });
    let mut outputs = Vec::new();
    for (a, v) in &eval.outputs {
        outputs.extend_from_slice(&a.0.to_le_bytes());
        v.encode(&mut outputs);
    }
    let row = ModeRow {
        passes: metrics.passes.len(),
        records_written,
        bytes_written,
        wall_us,
        aot_source_bytes: rustgen::rust_source(&analysis).len(),
    };
    (outputs, row)
}

fn main() {
    rule("grammar-optimizer effect: --opt=off vs --opt=on");
    let grammars = [
        ("calc", linguist_grammars::calc_source(), BUDGET),
        ("knuth", linguist_grammars::knuth_source(), 48),
        ("block", linguist_grammars::block_source(), BUDGET),
        ("meta", linguist_grammars::meta_source(), BUDGET),
        ("pascal", linguist_grammars::pascal_source(), BUDGET),
    ];
    let funcs = Funcs::standard();
    println!(
        "{:<8} {:>6} {:>10} {:>10} {:>10} {:>12}  mode",
        "grammar", "passes", "rec-out", "bytes-out", "wall-us", "aot-src-B"
    );
    let mut json = String::from("{\"budget\":");
    let _ = write!(json, "{},\"iters\":{},\"grammars\":{{", BUDGET, ITERS);
    for (i, (name, source, budget)) in grammars.iter().enumerate() {
        let (base_out, base) = measure(source, false, *budget, &funcs);
        let (opt_out, opt) = measure(source, true, *budget, &funcs);
        assert_eq!(
            base_out, opt_out,
            "{}: optimized outputs are not byte-identical",
            name
        );
        assert!(
            opt.passes <= base.passes && opt.records_written <= base.records_written,
            "{}: optimizer increased work",
            name
        );
        for (mode, r) in [("off", &base), ("on", &opt)] {
            println!(
                "{:<8} {:>6} {:>10} {:>10} {:>10.0} {:>12}  opt={}",
                name,
                r.passes,
                r.records_written,
                r.bytes_written,
                r.wall_us,
                r.aot_source_bytes,
                mode
            );
        }
        if i > 0 {
            json.push(',');
        }
        let _ = write!(json, "{:?}:{{", name);
        for (j, (mode, r)) in [("off", &base), ("on", &opt)].iter().enumerate() {
            if j > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "{:?}:{{\"passes\":{},\"records_written\":{},\"bytes_written\":{},\"wall_us\":{:.1},\"aot_source_bytes\":{}}}",
                mode, r.passes, r.records_written, r.bytes_written, r.wall_us, r.aot_source_bytes
            );
        }
        json.push('}');
    }
    json.push_str("}}");
    write_snapshot("opt_effect", &json);
}
