//! Compiled vs interpreted evaluator throughput (EXPERIMENTS E21).
//!
//! The question the engine subsystem has to answer: once a grammar is
//! warm in the serve tier, what does running its *generated Rust
//! evaluator* buy over the multi-pass interpreter? For each bundled
//! grammar, synthesize one serve-shaped derivation and time three warm
//! paths over the same tree with the same serve-job options:
//!
//! * `interpreted` — the in-process multi-pass interpreter exactly as
//!   a warm daemon job runs it (memory backing);
//! * `file_interpreted` — the same interpreter with pass files on disk,
//!   the paper-faithful default;
//! * `aot` — the checked-in generated evaluator, resolved by content
//!   hash and called in-process through the engine.
//!
//! (An on-demand `rustc` tier once had a column here; it ran at
//! 0.03–0.50× the interpreter because every run spawned a process, and
//! it was deleted.)
//!
//! Every compiled run is checked against the interpreter's outputs
//! before timing starts, so the snapshot can't report speedups for an
//! engine that disagrees. The snapshot lands in
//! `target/BENCH_compiled_vs_interpreted.json`; the repo root carries a
//! committed copy, whose note names the measuring host's core count.

use linguist_ag::passes::Direction;
use linguist_bench::{rule, write_snapshot};
use linguist_engine::{Engine, EngineConfig, EngineKind};
use linguist_eval::funcs::Funcs;
use linguist_eval::machine::{evaluate, Backing, EvalOptions, Strategy};
use linguist_frontend::report::synthesize_tree;
use std::fmt::Write as _;
use std::time::Instant;

const BUDGET: usize = 256;
const ITERS: u32 = 40;

/// Mean microseconds per call over `ITERS` warm runs of `f`.
fn time_us(mut f: impl FnMut()) -> f64 {
    f(); // warm: page in code, fault in buffers
    let start = Instant::now();
    for _ in 0..ITERS {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / ITERS as f64
}

fn main() {
    rule("compiled vs interpreted evaluator, warm serve-shaped jobs");
    // knuth's synthetic derivations grow `Pow2` exponents with leaf
    // count, so its budget stays below the intrinsic's 2^62 ceiling.
    let grammars = [
        ("calc", linguist_grammars::calc_source(), BUDGET),
        ("knuth", linguist_grammars::knuth_source(), 48),
        ("block", linguist_grammars::block_source(), BUDGET),
        ("meta", linguist_grammars::meta_source(), BUDGET),
        ("pascal", linguist_grammars::pascal_source(), BUDGET),
    ];
    let funcs = Funcs::standard();
    let aot = Engine::new(EngineConfig {
        kind: EngineKind::CompiledAot,
    });
    let mut rows = Vec::new();
    for (name, source, budget) in grammars {
        let out = linguist_grammars::analyze(source)
            .unwrap_or_else(|e| panic!("{} failed to analyze: {:?}", name, e));
        let analysis = &out.analysis;
        let tree = synthesize_tree(&analysis.grammar, budget).expect("finite derivation");
        let strategy = match analysis.passes.direction(1) {
            Direction::RightToLeft => Strategy::BottomUp,
            Direction::LeftToRight => Strategy::Prefix,
        };
        // The exact options a warm daemon job uses.
        let opts = EvalOptions {
            strategy,
            backing: Backing::Memory,
            ..EvalOptions::default()
        };

        let reference = evaluate(analysis, &funcs, &tree, &opts).expect("interpreter evaluates");
        let prepared_aot = aot.prepare(analysis);
        assert_eq!(
            prepared_aot.effective(),
            EngineKind::CompiledAot,
            "{}: AOT registry miss ({:?}) — rerun `cargo run --example gen_aot`",
            name,
            prepared_aot.fallback(),
        );
        let check = aot.evaluate(&prepared_aot, analysis, &funcs, &tree, &opts);
        assert!(check.fallback.is_none(), "{}: {:?}", name, check.fallback);
        assert_eq!(
            check.result.expect("aot evaluates").outputs,
            reference.outputs,
            "{}: compiled outputs diverge from the interpreter",
            name
        );

        let interpreted_us = time_us(|| {
            evaluate(analysis, &funcs, &tree, &opts).expect("interpreter evaluates");
        });
        // The paper-faithful configuration: pass files on disk, as the
        // CLI and batch paths run by default.
        let file_opts = EvalOptions {
            strategy,
            backing: Backing::Disk,
            ..EvalOptions::default()
        };
        let file_us = time_us(|| {
            evaluate(analysis, &funcs, &tree, &file_opts).expect("interpreter evaluates");
        });
        let aot_us = time_us(|| {
            let o = aot.evaluate(&prepared_aot, analysis, &funcs, &tree, &opts);
            assert!(o.fallback.is_none() && o.result.is_ok());
        });

        let speedup = interpreted_us / aot_us;
        println!(
            "  {:<7} {:>4} nodes  mem-interp {:>8.1}µs  file-interp {:>9.1}µs  aot {:>7.1}µs ({:>4.1}× mem, {:>5.1}× file)",
            name,
            tree.size(),
            interpreted_us,
            file_us,
            aot_us,
            speedup,
            file_us / aot_us,
        );
        let mut row = String::new();
        let _ = write!(
            row,
            "{{\"grammar\":\"{}\",\"nodes\":{},\"interpreted_us\":{:.2},\"file_interpreted_us\":{:.2},\"aot_us\":{:.2},\"aot_speedup\":{:.2},\"aot_speedup_vs_files\":{:.2}}}",
            name,
            tree.size(),
            interpreted_us,
            file_us,
            aot_us,
            speedup,
            file_us / aot_us
        );
        rows.push((row, speedup, file_us / aot_us));
    }
    let geomean = (rows.iter().map(|(_, s, _)| s.ln()).sum::<f64>() / rows.len() as f64).exp();
    let geomean_files =
        (rows.iter().map(|(_, _, s)| s.ln()).sum::<f64>() / rows.len() as f64).exp();
    println!(
        "  geomean aot speedup: {:.1}× vs memory-backed, {:.1}× vs file-backed",
        geomean, geomean_files
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\"budget\":{},\"iters\":{},\"aot_speedup_geomean\":{:.2},\
         \"aot_speedup_vs_files_geomean\":{:.2},\
         \"note\":\"{}-core host; serve-shaped warm jobs (the interpreter always counts its passes); interpreted_us is \
         the serve tier's memory-backed fast path, file_interpreted_us the paper-faithful \
         disk-backed default; aot_us includes per-job APT framing at the ABI boundary\",\"rows\":[{}]}}",
        BUDGET,
        ITERS,
        geomean,
        geomean_files,
        cores,
        rows.iter()
            .map(|(r, _, _)| r.as_str())
            .collect::<Vec<_>>()
            .join(",")
    );
    write_snapshot("compiled_vs_interpreted", &json);
}
