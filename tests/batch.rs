//! Concurrency stress tests for the parallel batch evaluator.
//!
//! Runs the bundled calculator and block-language translators over
//! dozens of inputs on a many-thread pool and checks the two batch
//! invariants the subsystem promises:
//!
//! 1. **Determinism** — every job's outputs are byte-identical to the
//!    same tree evaluated sequentially (same values, same encoding).
//! 2. **Accounting** — the aggregated [`BatchStats`] equal the sum of
//!    the per-job [`EvalStats`] that produced them.
//!
//! On top of that sits the shared-nothing tier: a 1/2/4/8-worker sweep
//! over *every* bundled grammar on the owned in-memory store,
//! crash-resume runs interleaved
//! with an owned-store batch, and two `#[ignore]`d scaling gates that
//! `scripts/verify.sh` runs explicitly.

use linguist86::ag::analysis::Analysis;
use linguist86::eval::aptfile::{FaultSpec, FaultTarget};
use linguist86::eval::batch::BatchEvaluator;
use linguist86::eval::machine::{evaluate, evaluate_resumable, Backing, EvalOptions, Evaluation};
use linguist86::eval::tree::PTree;
use linguist86::eval::value::Value;
use linguist86::frontend::differential::strategy_for;
use linguist86::frontend::synthesize_tree;
use linguist86::frontend::translate::standard_intrinsics;
use linguist86::frontend::Translator;
use linguist86::grammars::{
    analyze, block_program, block_scanner, block_source, calc_scanner, calc_source, knuth_source,
    meta_source, pascal_source,
};
use linguist_support::intern::NameTable;

const WORKERS: usize = 8;
const JOBS: usize = 50;

fn calc_translator() -> Translator {
    let analysis = analyze(calc_source()).unwrap().analysis;
    Translator::new(analysis, calc_scanner()).unwrap()
}

fn block_translator() -> Translator {
    let analysis = analyze(block_source()).unwrap().analysis;
    Translator::new(analysis, block_scanner()).unwrap()
}

/// A distinct calculator expression per job index.
fn calc_input(i: usize) -> String {
    format!(
        "{} + {} * ({} + {}) - {}",
        i,
        (i % 7) + 1,
        (i % 11) + 2,
        (i % 5) + 3,
        i % 13
    )
}

/// Stable byte encoding of an evaluation's root outputs.
fn encoded_outputs(outputs: &[(linguist_ag::ids::AttrId, Value)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (a, v) in outputs {
        bytes.extend_from_slice(&a.0.to_le_bytes());
        v.encode(&mut bytes);
    }
    bytes
}

fn parse_all(tr: &Translator, inputs: &[String]) -> Vec<PTree> {
    inputs
        .iter()
        .map(|src| {
            let mut names = NameTable::new();
            tr.parse_input(src, &standard_intrinsics, &mut names)
                .expect("bundled grammar parses its own inputs")
        })
        .collect()
}

fn stress(tr: &Translator, trees: &[PTree], opts: &EvalOptions) {
    let funcs = linguist86::eval::Funcs::standard();
    let outcome =
        BatchEvaluator::with_options(WORKERS, opts.clone()).run(&tr.analysis, &funcs, trees);

    assert_eq!(outcome.stats.jobs, trees.len());
    assert_eq!(outcome.stats.failed, 0, "no job may fail");
    assert_eq!(outcome.stats.workers, WORKERS.min(trees.len()));

    // Determinism: byte-identical to sequential evaluation, per job.
    let (mut io_sum, mut rules_sum) = (0u64, 0u64);
    let mut pass_rules: Vec<u64> = Vec::new();
    for (tree, result) in trees.iter().zip(&outcome.results) {
        let batch_eval = result.as_ref().expect("job succeeded");
        let seq_eval = evaluate(&tr.analysis, &funcs, tree, opts).unwrap();
        assert_eq!(
            encoded_outputs(&batch_eval.outputs),
            encoded_outputs(&seq_eval.outputs),
            "parallel evaluation diverged from sequential"
        );
        io_sum += batch_eval.stats.total_io_bytes();
        rules_sum += batch_eval.stats.total_rules();
        for (k, p) in batch_eval.stats.passes.iter().enumerate() {
            if pass_rules.len() <= k {
                pass_rules.push(0);
            }
            pass_rules[k] += p.rules_evaluated;
        }
    }

    // Accounting: batch totals are exactly the per-job sums.
    assert_eq!(outcome.stats.eval.total_io_bytes(), io_sum);
    assert_eq!(outcome.stats.eval.total_rules(), rules_sum);
    assert_eq!(outcome.stats.eval.passes.len(), pass_rules.len());
    for (slot, expected) in outcome.stats.eval.passes.iter().zip(&pass_rules) {
        assert_eq!(slot.rules_evaluated, *expected);
    }
    assert!(outcome.stats.wall.as_nanos() > 0);
}

#[test]
fn calc_batch_matches_sequential_on_disk() {
    let tr = calc_translator();
    let inputs: Vec<String> = (0..JOBS).map(calc_input).collect();
    let trees = parse_all(&tr, &inputs);
    stress(&tr, &trees, &EvalOptions::default());
}

#[test]
fn calc_batch_matches_sequential_in_memory() {
    let tr = calc_translator();
    let inputs: Vec<String> = (0..JOBS).map(calc_input).collect();
    let trees = parse_all(&tr, &inputs);
    stress(
        &tr,
        &trees,
        &EvalOptions {
            backing: Backing::Memory,
            ..EvalOptions::default()
        },
    );
}

#[test]
fn block_batch_matches_sequential() {
    let tr = block_translator();
    let inputs: Vec<String> = (0..JOBS)
        .map(|i| block_program((i % 4) + 1, (i % 3) + 1))
        .collect();
    let trees = parse_all(&tr, &inputs);
    stress(&tr, &trees, &EvalOptions::default());
}

#[test]
fn translate_batch_end_to_end() {
    // The frontend wrapper: raw source strings in, ordered results out.
    let tr = calc_translator();
    let inputs: Vec<String> = (0..20).map(calc_input).collect();
    let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    let funcs = linguist86::eval::Funcs::standard();
    let opts = EvalOptions::default();

    let (results, stats) = tr.translate_batch(&refs, &funcs, &opts, 4);
    assert_eq!(results.len(), inputs.len());
    assert_eq!(stats.jobs, inputs.len());
    assert_eq!(stats.failed, 0);
    for (src, result) in inputs.iter().zip(&results) {
        let batch_eval = result.as_ref().expect("calc input translates");
        let seq_eval = tr.translate(src, &funcs, &opts).unwrap();
        assert_eq!(
            encoded_outputs(&batch_eval.outputs),
            encoded_outputs(&seq_eval.outputs)
        );
    }
}

#[test]
fn translate_batch_isolates_bad_inputs() {
    let tr = calc_translator();
    let funcs = linguist86::eval::Funcs::standard();
    let opts = EvalOptions::default();
    let inputs = ["1 + 2", "3 + + )", "4 * 5"];
    let (results, stats) = tr.translate_batch(&inputs, &funcs, &opts, 2);
    assert!(results[0].is_ok());
    assert!(results[1].is_err(), "the broken input fails alone");
    assert!(results[2].is_ok());
    // Only the parses that survived were submitted as evaluation jobs.
    assert_eq!(stats.jobs, 2);
    assert_eq!(stats.failed, 0);
}

// ---------------------------------------------------------------------------
// Shared-nothing tier: worker sweeps over every bundled grammar.
// ---------------------------------------------------------------------------

/// Run `trees` through the owned-store batch at 1/2/4/8 workers and
/// require every job byte-identical to its sequential baseline.
fn sweep_workers(name: &str, analysis: &Analysis, trees: &[PTree]) {
    let funcs = linguist86::eval::Funcs::standard();
    let opts = EvalOptions {
        strategy: strategy_for(analysis),
        backing: Backing::Memory,
        ..EvalOptions::default()
    };
    let baselines: Vec<Vec<u8>> = trees
        .iter()
        .map(|t| {
            let eval = evaluate(analysis, &funcs, t, &opts).expect("sequential baseline succeeds");
            encoded_outputs(&eval.outputs)
        })
        .collect();
    for workers in [1usize, 2, 4, 8] {
        let outcome =
            BatchEvaluator::with_options(workers, opts.clone()).run(analysis, &funcs, trees);
        assert_eq!(outcome.stats.failed, 0, "{} @ {} workers", name, workers);
        for (j, (result, want)) in outcome.results.iter().zip(&baselines).enumerate() {
            let eval = result.as_ref().expect("batch job succeeds");
            assert_eq!(
                &encoded_outputs(&eval.outputs),
                want,
                "{} job {} @ {} workers diverged from sequential",
                name,
                j,
                workers
            );
        }
    }
}

#[test]
fn worker_sweep_parsed_grammars_byte_identical() {
    // The two grammars with bundled scanners: real source through the
    // full parse pipeline, a distinct input per job.
    let tr = calc_translator();
    let inputs: Vec<String> = (0..16).map(calc_input).collect();
    let trees = parse_all(&tr, &inputs);
    sweep_workers("calc", &tr.analysis, &trees);

    let tr = block_translator();
    let inputs: Vec<String> = (0..16)
        .map(|i| block_program((i % 4) + 1, (i % 3) + 1))
        .collect();
    let trees = parse_all(&tr, &inputs);
    sweep_workers("block", &tr.analysis, &trees);
}

#[test]
fn worker_sweep_synthesized_grammars_byte_identical() {
    // The scanner-less bundled grammars get deterministic budget-grown
    // trees (the same synthesis `serve` uses); a distinct budget per
    // job keeps the jobs from being clones of each other. Knuth's
    // budgets stay small: every extra bit raises the SCALE exponent,
    // and `Pow2` rejects exponents past 62.
    for (name, src, base, step) in [
        ("knuth", knuth_source(), 16usize, 8usize),
        ("meta", meta_source(), 40, 25),
        ("pascal", pascal_source(), 40, 25),
    ] {
        let analysis = analyze(src).expect("bundled grammar analyzes").analysis;
        let trees: Vec<PTree> = (0..12)
            .map(|i| {
                synthesize_tree(&analysis.grammar, base + step * i)
                    .expect("bundled grammar has a finite derivation")
            })
            .collect();
        sweep_workers(name, &analysis, &trees);
    }
}

/// Crash-resume runs interleave with the owned-store batch: every job
/// is first crashed mid-run against a disk checkpoint (a different
/// pass each time), the same trees are then batch-evaluated on the
/// shared-nothing store, and finally each crashed job resumes from its
/// surviving checkpoint — both paths must agree byte-for-byte.
#[test]
fn crash_resume_interleaves_with_owned_store_batch() {
    let tr = block_translator();
    let funcs = linguist86::eval::Funcs::standard();
    let num_passes = tr.analysis.passes.num_passes() as u16;
    let inputs: Vec<String> = (0..6)
        .map(|i| block_program((i % 4) + 1, (i % 3) + 1))
        .collect();
    let trees = parse_all(&tr, &inputs);
    let opts = EvalOptions::default();

    let root = std::env::temp_dir().join(format!("linguist86-batch-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Crash each checkpointed job at a rotating pass boundary.
    let mut dirs = Vec::new();
    for (i, tree) in trees.iter().enumerate() {
        let ckpt = root.join(format!("job{}", i));
        let fault_pass = (i as u16 % num_passes) + 1;
        let crashing = EvalOptions {
            fault: Some(FaultSpec::new(fault_pass, FaultTarget::Write, 0)),
            ..opts.clone()
        };
        evaluate_resumable(&tr.analysis, &funcs, tree, &crashing, &ckpt)
            .expect_err("the injected fault crashes the checkpointed run");
        dirs.push(ckpt);
    }

    // Batch-evaluate the same trees on the owned in-memory store.
    let batch_opts = EvalOptions {
        backing: Backing::Memory,
        ..opts.clone()
    };
    let outcome =
        BatchEvaluator::with_options(WORKERS, batch_opts).run(&tr.analysis, &funcs, &trees);
    assert_eq!(outcome.stats.failed, 0);

    // Resume every crashed job and compare against its batch twin.
    for (i, (ckpt, result)) in dirs.iter().zip(&outcome.results).enumerate() {
        let resumed = Evaluation::resume(&tr.analysis, &funcs, &opts, ckpt)
            .expect("a crashed job resumes from its checkpoint");
        assert!(
            resumed.stats.resumed_from.is_some(),
            "job {} re-ran from scratch instead of resuming",
            i
        );
        let batch_eval = result.as_ref().expect("batch job succeeds");
        assert_eq!(
            encoded_outputs(&resumed.outputs),
            encoded_outputs(&batch_eval.outputs),
            "job {}: resumed outputs diverge from the owned-store batch",
            i
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// Scaling gates (ignored by default; scripts/verify.sh runs them with
// --test-threads=1 — two concurrent throughput measurements on one
// machine would skew each other).
// ---------------------------------------------------------------------------

/// Deep calculator expressions — the `table_batch_throughput` workload.
fn deep_calc_inputs(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let mut src = format!("{}", i % 10);
            for k in 0..60 {
                src = format!("({} + {} * {})", src, (i + k) % 9 + 1, k % 7 + 1);
            }
            src
        })
        .collect()
}

/// Best-of-3 jobs/sec at a worker count.
fn best_jobs_per_sec(tr: &Translator, trees: &[PTree], workers: usize) -> f64 {
    let funcs = linguist86::eval::Funcs::standard();
    let opts = EvalOptions {
        backing: Backing::Memory,
        ..EvalOptions::default()
    };
    (0..3)
        .map(|_| {
            let outcome = BatchEvaluator::with_options(workers, opts.clone()).run(
                &tr.analysis,
                &funcs,
                trees,
            );
            assert_eq!(outcome.stats.failed, 0);
            outcome.stats.jobs_per_sec()
        })
        .fold(0.0f64, f64::max)
}

/// The scaling regression gate: a 200-job sweep must reach >=2.5x
/// jobs/sec at 4 workers on a machine with at least 4 cores, and >=1.4x
/// on 2 or 3 cores, where the core count rather than the store caps the
/// speedup. A single core has no floor to check: the wall-clock half
/// then skips loudly, while the zero-lock invariant is still enforced on
/// every run.
#[test]
#[ignore = "scaling gate; run explicitly (scripts/verify.sh does)"]
fn scaling_regression() {
    let tr = calc_translator();
    let inputs = deep_calc_inputs(200);
    let trees = parse_all(&tr, &inputs);
    let jps1 = best_jobs_per_sec(&tr, &trees, 1);
    let jps4 = best_jobs_per_sec(&tr, &trees, 4);
    let speedup = jps4 / jps1;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let floor = match cores {
        1 => {
            eprintln!(
                "scaling_regression: 1 core available; measured {:.2}x at 4 workers — \
                 no speedup floor applies and the wall-clock assertion was SKIPPED (the \
                 zero-lock invariant was still enforced on all runs)",
                speedup
            );
            return;
        }
        2 | 3 => 1.4,
        _ => 2.5,
    };
    assert!(
        speedup >= floor,
        "expected >={}x jobs/sec at 4 workers on the shared-nothing store with {} cores, \
         measured {:.2}x",
        floor,
        cores,
        speedup
    );
    eprintln!(
        "scaling_regression: CHECKED {:.2}x at 4 workers against the >={}x floor for {} cores",
        speedup, floor, cores
    );
}

/// Bounded smoke: dispatching to 2 workers must cost no more than
/// scheduler noise over the sequential run, even on one core. A
/// reintroduced store lock on the hot path (thousands of acquisitions
/// per job) fails this long before it fails the 4-worker gate.
#[test]
#[ignore = "scaling smoke; run explicitly (scripts/verify.sh does)"]
fn scaling_smoke_2_workers() {
    let tr = calc_translator();
    let inputs = deep_calc_inputs(100);
    let trees = parse_all(&tr, &inputs);
    let jps1 = best_jobs_per_sec(&tr, &trees, 1);
    let jps2 = best_jobs_per_sec(&tr, &trees, 2);
    assert!(
        jps2 >= 0.9 * jps1,
        "2-worker batch slower than sequential: {:.1} vs {:.1} jobs/sec — \
         a serializing regression on the batch hot path",
        jps2,
        jps1
    );
}
