//! Parallel batch evaluation over a fixed worker pool.
//!
//! The paper's evaluator is strictly sequential — one APT streamed
//! through two intermediate files. A production translator, however,
//! faces *many* independent inputs (a compilation unit per source file),
//! and nothing in the paradigm couples two evaluations: each builds its
//! own initial file, alternates over its own pair of intermediates, and
//! never touches shared mutable state. [`BatchEvaluator`] exploits that
//! independence, fanning N parse trees out over a fixed pool of
//! `std::thread` workers.
//!
//! Per-job isolation is structural, not locked-in: every call to
//! [`evaluate`] constructs its own intermediate store (a fresh
//! [`TempAptDir`](crate::aptfile::TempAptDir) on disk, or a private set
//! of owned buffers in RAM), so two jobs
//! can never observe each other's boundary files. The shared inputs —
//! the [`Analysis`] and the [`Funcs`] registry — are read-only and
//! `Sync`, crossed by reference via `std::thread::scope`.
//!
//! Results come back in input order together with a [`BatchStats`]
//! aggregate: the jobs' evaluation records summed into one
//! ([`EvalStats::merge`]: pass *k* of every job adds into row *k*), plus
//! wall time and jobs/sec for throughput experiments.

use crate::aptfile::AptError;
use crate::funcs::Funcs;
use crate::machine::{evaluate, EvalError, EvalOptions, EvalStats, Evaluation};
use crate::tree::PTree;
use linguist_ag::analysis::Analysis;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The category of a failed batch job — a typed projection of
/// [`EvalError`] that survives aggregation into [`BatchStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// Intermediate-file I/O failure (including injected faults).
    Io,
    /// Malformed record payload.
    Decode,
    /// Corrupt record framing.
    Frame,
    /// A record failed its CRC-32 — bytes flipped after the writer
    /// framed them.
    Checksum,
    /// Rejected APT file header.
    Header,
    /// Semantic-function failure.
    Func,
    /// Tree/grammar mismatch.
    Tree,
    /// Strategy/first-direction mismatch.
    Strategy,
    /// Corrupt APT stream.
    Corrupt,
    /// Missing attribute instance.
    Missing,
    /// The job's code panicked; the supervisor caught the unwind.
    Panicked,
    /// The job exceeded its wall-clock deadline.
    Deadline,
    /// Checkpoint-manifest failure.
    Manifest,
}

impl FailureKind {
    /// Classify an evaluation error. APT errors are classified by their
    /// *root* cause, so file/pass context wrapping never hides the kind.
    pub fn of(e: &EvalError) -> FailureKind {
        match e {
            EvalError::Apt(a) => match a.root() {
                AptError::Io(_) => FailureKind::Io,
                AptError::Decode(_) => FailureKind::Decode,
                AptError::Frame { .. } => FailureKind::Frame,
                AptError::Checksum { .. } => FailureKind::Checksum,
                AptError::Header(_) => FailureKind::Header,
                AptError::File { .. } => unreachable!("root() strips File context"),
            },
            EvalError::Func(_) => FailureKind::Func,
            EvalError::Tree(_) => FailureKind::Tree,
            EvalError::StrategyMismatch { .. } => FailureKind::Strategy,
            EvalError::Corrupt(_) => FailureKind::Corrupt,
            EvalError::Missing(_) => FailureKind::Missing,
            EvalError::Panicked(_) => FailureKind::Panicked,
            EvalError::Deadline { .. } => FailureKind::Deadline,
            EvalError::Manifest(_) => FailureKind::Manifest,
        }
    }

    /// Stable lower-case name, used in `--profile` JSON output and as
    /// the `error.kind` field of `linguist-serve` wire replies.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureKind::Io => "io",
            FailureKind::Decode => "decode",
            FailureKind::Frame => "frame",
            FailureKind::Checksum => "checksum",
            FailureKind::Header => "header",
            FailureKind::Func => "func",
            FailureKind::Tree => "tree",
            FailureKind::Strategy => "strategy",
            FailureKind::Corrupt => "corrupt",
            FailureKind::Missing => "missing",
            FailureKind::Panicked => "panicked",
            FailureKind::Deadline => "deadline",
            FailureKind::Manifest => "manifest",
        }
    }

    /// Inverse of [`as_str`](FailureKind::as_str): service clients
    /// reconstruct the typed kind from a wire reply.
    pub fn parse(name: &str) -> Option<FailureKind> {
        const ALL: &[FailureKind] = &[
            FailureKind::Io,
            FailureKind::Decode,
            FailureKind::Frame,
            FailureKind::Checksum,
            FailureKind::Header,
            FailureKind::Func,
            FailureKind::Tree,
            FailureKind::Strategy,
            FailureKind::Corrupt,
            FailureKind::Missing,
            FailureKind::Panicked,
            FailureKind::Deadline,
            FailureKind::Manifest,
        ];
        ALL.iter().copied().find(|k| k.as_str() == name)
    }
}

/// One failed job, recorded in [`BatchStats::failures`].
#[derive(Clone, Debug)]
pub struct JobFailure {
    /// Input-order index of the failed job.
    pub job: usize,
    /// Typed failure category.
    pub kind: FailureKind,
    /// Rendered error message.
    pub message: String,
}

/// Aggregated measurements over one batch run.
#[derive(Clone, Debug, Default)]
pub struct BatchStats {
    /// Number of trees submitted.
    pub jobs: usize,
    /// Number of jobs that returned an error.
    pub failed: usize,
    /// Worker threads used.
    pub workers: usize,
    /// The successful jobs' evaluation records summed with
    /// [`EvalStats::merge`]: row *k* sums pass *k* of every job
    /// (durations sum CPU-side pass time across workers, so they can
    /// exceed wall time), and `retries` counts the pass attempts re-run
    /// under the jobs' [`RetryPolicy`](crate::machine::RetryPolicy).
    /// Jobs run by compiled code add their boundary-0 totals and
    /// zero-count rows.
    pub eval: EvalStats,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Jobs that succeeded only after at least one retried pass — the
    /// runs a non-recovering batch would have failed.
    pub recovered: usize,
    /// Jobs whose code panicked; the supervisor caught the unwind and
    /// recorded a [`FailureKind::Panicked`] failure instead of letting
    /// the panic poison the coordinator.
    pub panicked: usize,
    /// One typed entry per failed job, in input order.
    pub failures: Vec<JobFailure>,
}

impl BatchStats {
    /// Completed jobs (successful or not) per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.jobs as f64 / self.wall.as_secs_f64()
    }
}

/// The result of [`BatchEvaluator::run`].
#[derive(Debug)]
pub struct BatchOutcome {
    /// One result per input tree, in input order.
    pub results: Vec<Result<Evaluation, EvalError>>,
    /// Aggregate measurements.
    pub stats: BatchStats,
}

impl BatchOutcome {
    /// Iterate over the successful evaluations, in input order.
    pub fn successes(&self) -> impl Iterator<Item = &Evaluation> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }
}

/// Evaluates batches of parse trees concurrently on a fixed thread pool.
///
/// # Example
///
/// ```no_run
/// use linguist_eval::batch::BatchEvaluator;
/// # fn demo(analysis: &linguist_ag::analysis::Analysis,
/// #         funcs: &linguist_eval::funcs::Funcs,
/// #         trees: Vec<linguist_eval::tree::PTree>) {
/// let batch = BatchEvaluator::new(4);
/// let outcome = batch.run(analysis, funcs, &trees);
/// println!("{:.1} jobs/sec", outcome.stats.jobs_per_sec());
/// # }
/// ```
/// A pluggable evaluation backend for batch jobs.
///
/// The compiled-evaluator engine (`linguist-engine`) supplies one to
/// route jobs through compiled code instead of the interpreter; the
/// indirection keeps `linguist-eval` free of a dependency on the engine
/// while letting `BatchEvaluator` stay the single batch front door. The
/// hook runs under the same panic fence as the interpreter, so a
/// misbehaving backend becomes a per-job [`FailureKind::Panicked`], not
/// a dead worker.
pub type EvalBackend = std::sync::Arc<
    dyn Fn(&Analysis, &Funcs, &PTree, &EvalOptions) -> Result<Evaluation, EvalError> + Send + Sync,
>;

#[derive(Clone)]
pub struct BatchEvaluator {
    workers: usize,
    opts: EvalOptions,
    backend: Option<EvalBackend>,
}

impl std::fmt::Debug for BatchEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchEvaluator")
            .field("workers", &self.workers)
            .field("opts", &self.opts)
            .field("backend", &self.backend.as_ref().map(|_| "custom"))
            .finish()
    }
}

impl BatchEvaluator {
    /// A pool of `workers` threads with default [`EvalOptions`].
    /// `workers` is clamped to at least 1.
    pub fn new(workers: usize) -> BatchEvaluator {
        BatchEvaluator::with_options(workers, EvalOptions::default())
    }

    /// A pool of `workers` threads evaluating with `opts`.
    pub fn with_options(workers: usize, opts: EvalOptions) -> BatchEvaluator {
        BatchEvaluator {
            workers: workers.max(1),
            opts,
            backend: None,
        }
    }

    /// Route every job through `backend` instead of the interpreter
    /// (e.g. the compiled-evaluator engine). The backend is expected to
    /// be result-identical to [`evaluate`]; it still runs under the
    /// per-job panic fence.
    pub fn with_backend(mut self, backend: EvalBackend) -> BatchEvaluator {
        self.backend = Some(backend);
        self
    }

    /// Configured pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The options each job evaluates with.
    pub fn options(&self) -> &EvalOptions {
        &self.opts
    }

    /// Evaluate every tree in `trees` against the same analysis and
    /// function registry, in parallel, returning per-job results in
    /// input order plus aggregate [`BatchStats`].
    ///
    /// A job that fails records its [`EvalError`] in its result slot and
    /// in `stats.failed`; it never aborts the rest of the batch. That
    /// holds even for *panics*: every job runs under `catch_unwind`, so a
    /// panicking semantic function becomes a [`FailureKind::Panicked`]
    /// failure for that one job while its worker thread carries on with
    /// the next — the coordinator never sees a missing result slot.
    pub fn run(&self, analysis: &Analysis, funcs: &Funcs, trees: &[PTree]) -> BatchOutcome {
        let started = Instant::now();
        let n = trees.len();
        let pool = self.workers.min(n.max(1));
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<Evaluation, EvalError>)>();

        std::thread::scope(|scope| {
            for _ in 0..pool {
                let tx = tx.clone();
                let next = &next;
                let opts = self.opts.clone();
                let backend = self.backend.clone();
                scope.spawn(move || {
                    // Workers claim the next unstarted tree until the
                    // batch is drained — natural load balancing when
                    // tree sizes vary.
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let result = match &backend {
                            Some(b) => supervised(|| b(analysis, funcs, &trees[i], &opts)),
                            None => supervised_evaluate(analysis, funcs, &trees[i], &opts),
                        };
                        if tx.send((i, result)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);

            let mut slots: Vec<Option<Result<Evaluation, EvalError>>> =
                (0..n).map(|_| None).collect();
            for (i, result) in rx {
                slots[i] = Some(result);
            }

            let mut stats = BatchStats {
                jobs: n,
                workers: pool,
                ..BatchStats::default()
            };
            // Defense in depth: `supervised_evaluate` already converts
            // panics into results, but if a worker nevertheless died
            // without reporting, record a typed failure for its job
            // instead of panicking the coordinator too.
            let results: Vec<Result<Evaluation, EvalError>> = slots
                .into_iter()
                .map(|slot| {
                    slot.unwrap_or_else(|| {
                        Err(EvalError::Panicked(
                            "worker died without reporting a result".to_owned(),
                        ))
                    })
                })
                .collect();
            for (i, r) in results.iter().enumerate() {
                match r {
                    Ok(eval) => {
                        stats.eval.merge(&eval.stats);
                        if eval.stats.retries > 0 {
                            stats.recovered += 1;
                        }
                    }
                    Err(e) => {
                        let kind = FailureKind::of(e);
                        if kind == FailureKind::Panicked {
                            stats.panicked += 1;
                        }
                        stats.failed += 1;
                        stats.failures.push(JobFailure {
                            job: i,
                            kind,
                            message: e.to_string(),
                        });
                    }
                }
            }
            stats.wall = started.elapsed();
            BatchOutcome { results, stats }
        })
    }
}

/// Run one evaluation with panic isolation: an unwind out of `evaluate`
/// (a buggy user-registered semantic function, say) is caught and
/// converted into [`EvalError::Panicked`] carrying the panic message.
///
/// `AssertUnwindSafe` is sound here because the job's entire mutable
/// state (its store, machine, meter) is constructed inside `evaluate`
/// and dropped with the unwind — nothing observable survives in a
/// broken state. The shared `analysis`/`funcs` are only read.
pub fn supervised_evaluate(
    analysis: &Analysis,
    funcs: &Funcs,
    tree: &PTree,
    opts: &EvalOptions,
) -> Result<Evaluation, EvalError> {
    supervised(|| evaluate(analysis, funcs, tree, opts))
}

/// The batch workers' panic fence, as a standalone building block: run
/// `job`, converting an unwind into [`EvalError::Panicked`] with the
/// panic message. `linguist-serve`'s resident worker pool wraps every
/// request in this, so one panicking semantic function answers *its own*
/// client with a typed failure instead of killing a pool thread.
///
/// The same `AssertUnwindSafe` argument as [`supervised_evaluate`]
/// applies: callers must pass jobs whose mutable state dies with the
/// unwind.
pub fn supervised<T>(job: impl FnOnce() -> Result<T, EvalError>) -> Result<T, EvalError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)) {
        Ok(result) => result,
        Err(payload) => Err(EvalError::Panicked(panic_message(payload))),
    }
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    // The tentpole invariant, enforced at compile time: everything a
    // worker thread touches must cross the scope boundary.
    #[test]
    fn shared_evaluation_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Analysis>();
        assert_send_sync::<Funcs>();
        assert_send_sync::<PTree>();
        assert_send_sync::<Value>();
        assert_send_sync::<Evaluation>();
        assert_send_sync::<EvalError>();
        assert_send_sync::<BatchStats>();
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(BatchEvaluator::new(0).workers(), 1);
        assert_eq!(BatchEvaluator::new(8).workers(), 8);
    }

    fn leaf_sum_analysis() -> (
        Analysis,
        linguist_ag::ids::SymbolId,
        linguist_ag::ids::AttrId,
    ) {
        use linguist_ag::analysis::Config;
        use linguist_ag::expr::{BinOp, Expr};
        use linguist_ag::grammar::AgBuilder;
        use linguist_ag::ids::AttrOcc;

        // S -> S x | x, S.V = sum of the leaves' OBJ values.
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let v = b.synthesized(s, "V", "int");
        let x = b.terminal("x");
        let obj = b.intrinsic(x, "OBJ", "int");
        let p0 = b.production(s, vec![s, x], None);
        b.rule(
            p0,
            vec![AttrOcc::lhs(v)],
            Expr::binop(
                BinOp::Add,
                Expr::Occ(AttrOcc::rhs(0, v)),
                Expr::Occ(AttrOcc::rhs(1, obj)),
            ),
        );
        let p1 = b.production(s, vec![x], None);
        b.rule(p1, vec![AttrOcc::lhs(v)], Expr::Occ(AttrOcc::rhs(0, obj)));
        b.start(s);
        let analysis = Analysis::run(b.build().unwrap(), &Config::default()).unwrap();
        (analysis, x, obj)
    }

    fn chain_tree(
        x: linguist_ag::ids::SymbolId,
        obj: linguist_ag::ids::AttrId,
        leaves: i64,
    ) -> PTree {
        use linguist_ag::ids::ProdId;
        let leaf = |n| PTree::leaf(x, vec![(obj, Value::Int(n))]);
        let mut t = PTree::node(ProdId(1), vec![leaf(1)]);
        for n in 2..=leaves {
            t = PTree::node(ProdId(0), vec![t, leaf(n)]);
        }
        t
    }

    #[test]
    fn empty_batch_returns_empty_outcome() {
        let (analysis, _, _) = leaf_sum_analysis();
        let batch = BatchEvaluator::new(4);
        let outcome = batch.run(&analysis, &Funcs::standard(), &[]);
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.stats.jobs, 0);
        assert_eq!(outcome.stats.failed, 0);
        assert_eq!(outcome.stats.jobs_per_sec(), 0.0);
    }

    #[test]
    fn batch_matches_sequential_on_leaf_sums() {
        let (analysis, x, obj) = leaf_sum_analysis();
        let funcs = Funcs::standard();
        let trees: Vec<PTree> = (1..=12).map(|n| chain_tree(x, obj, n)).collect();

        let outcome = BatchEvaluator::new(4).run(&analysis, &funcs, &trees);
        assert_eq!(outcome.stats.jobs, 12);
        assert_eq!(outcome.stats.failed, 0);
        for (n, result) in (1i64..=12).zip(&outcome.results) {
            let eval = result.as_ref().expect("job succeeds");
            let seq = evaluate(
                &analysis,
                &funcs,
                &chain_tree(x, obj, n),
                &EvalOptions::default(),
            )
            .expect("sequential succeeds");
            assert_eq!(eval.outputs, seq.outputs, "job for {n} leaves diverged");
            assert_eq!(
                eval.output(&analysis, "V"),
                Some(&Value::Int(n * (n + 1) / 2))
            );
        }
    }

    #[test]
    fn stats_sum_per_job_stats() {
        let (analysis, x, obj) = leaf_sum_analysis();
        let funcs = Funcs::standard();
        let trees: Vec<PTree> = (1..=8).map(|n| chain_tree(x, obj, n)).collect();

        let outcome = BatchEvaluator::new(3).run(&analysis, &funcs, &trees);
        let (mut io, mut rules) = (0u64, 0u64);
        for eval in outcome.successes() {
            io += eval.stats.total_io_bytes();
            rules += eval.stats.total_rules();
        }
        assert_eq!(outcome.stats.eval.total_io_bytes(), io);
        assert_eq!(outcome.stats.eval.total_rules(), rules);
    }
}
