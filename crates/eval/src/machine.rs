//! The alternating-pass evaluation machine.
//!
//! This is the Figure-3 paradigm as an interpreter of the analysis plans:
//! each pass streams the APT from one intermediate file to another,
//! keeping only the current spine of the tree on the stack. "When an APT
//! node, N, is encountered … it is read from the intermediate file onto a
//! stack in memory. N is kept on the stack while the sub-tree descended
//! from N is visited … When the evaluation pass over N's subtree is
//! finished node N is written to the intermediate file."
//!
//! A stacked node is a frame, one slot per attribute of its symbol: the
//! frame model of [`crate::compiled`], which generated evaluators share.
//! Records load into frames through `fill_slots` and leave them in their
//! boundary's layout through [`AptWriter::write_slots`], which encodes
//! straight from the frame; the meter is charged each record's framed
//! size as the reader found it. A rule's result goes straight into its
//! target's slot; each callee is looked up in the [`Funcs`] once per
//! evaluation, not once per call.
//!
//! The machine also *executes the static-subsumption protocol* alongside
//! reference evaluation: it maintains the global variables, performs the
//! save/set/restore dance around child visits for non-subsumed definitions
//! of static attributes, and — for every subsumed copy-rule — **checks**
//! that the value already sitting in the global equals the reference
//! value. [`EvalStats::globals_checked`] counts those verifications;
//! [`EvalStats::globals_repaired`] counts the places where a clobbered
//! global had to be re-captured (the paper's `POST2_ZQP`-style temporaries
//! pay for exactly these sites in generated code).
//!
//! Every evaluation returns one [`EvalStats`] record: the boundary-0
//! totals and one [`PassStats`] row per pass, with the file traffic, the
//! rules, attribute instances and function calls of that pass. The
//! machine counts with plain integer adds; there is no separate
//! profiling mode.

use crate::aptfile::{
    boundary_path, file_summary, AptError, AptReader, AptWriter, FaultSpec, FaultTarget,
    FileSummary, ReadDir, Record, RecordBody, TempAptDir,
};
use crate::compiled::fill_slots;
use crate::funcs::{ExternalFn, FuncError, Funcs};
use crate::manifest::{Manifest, ManifestError, PassEntry};
use crate::tree::{PTree, TreeError};
use crate::value::Value;
use linguist_ag::analysis::Analysis;
use linguist_ag::expr::{BinOp, Expr};
use linguist_ag::grammar::{AttrClass, Grammar};
use linguist_ag::ids::{AttrId, AttrOcc, OccPos, ProdId, RuleId, SymbolId};
use linguist_ag::passes::Direction;
use linguist_ag::plan::Step;
use linguist_ag::subsumption::GroupId;
use linguist_support::size::Meter;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the initial linearized APT file is produced (§II).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Bottom-up (shift/reduce) emission; first pass is right-to-left.
    /// "LINGUIST-86 itself uses the first method."
    BottomUp,
    /// Prefix (recursive-descent) emission; first pass is left-to-right.
    Prefix,
}

/// Where the intermediate APT lives.
///
/// [`Backing::Disk`] is the paper's configuration (real temporary files);
/// [`Backing::Memory`] answers its closing question — "would some form of
/// virtual memory system significantly speed up the evaluators?" — by
/// backing the identical record format with RAM.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backing {
    /// Temporary files on disk (the paper's paradigm).
    #[default]
    Disk,
    /// RAM-resident buffers with the same record format, owned by the
    /// evaluation: writes append to a plain `Vec<u8>`, completed
    /// boundaries are sealed into immutable `Arc<Vec<u8>>`s, and no
    /// mutex is taken anywhere on the read/write path. This is the
    /// shared-nothing batch hot path.
    Memory,
}

/// Evaluation options.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Initial-file strategy; must match the pass analysis's first
    /// direction.
    pub strategy: Strategy,
    /// Run the static-subsumption global-variable protocol and verify it
    /// against reference values.
    pub check_globals: bool,
    /// Dynamic-memory budget in bytes (the paper's machine allows 48 KB);
    /// exceeding it is recorded, not fatal.
    pub budget: Option<usize>,
    /// Disk files (default, as in the paper) or RAM buffers.
    pub backing: Backing,
    /// Unused. Every evaluation fills its [`EvalStats`] record, so there
    /// is nothing to switch on; the field remains only so that callers
    /// which still set it keep compiling.
    pub profile: bool,
    /// Inject an I/O failure (test support); see [`FaultSpec`].
    pub fault: Option<FaultSpec>,
    /// Transient-failure policy: how many times a failed *pass* is re-run
    /// from its preceding boundary file, and with what backoff. The
    /// default makes a single attempt (no retries).
    pub retry: RetryPolicy,
    /// Optional wall-clock ceiling for the whole evaluation, checked
    /// cooperatively at every pass boundary (and before each retry):
    /// exceeding it fails the run with [`EvalError::Deadline`] instead of
    /// letting one pathological job hold a batch worker forever.
    pub deadline: Option<Duration>,
}

impl Strategy {
    /// The direction pass `pass` reads its input file in: pass 1 reads
    /// a prefix-order file forwards; every other file is read backwards.
    pub fn read_dir(self, pass: u16) -> ReadDir {
        match (pass, self) {
            (1, Strategy::Prefix) => ReadDir::Forward,
            _ => ReadDir::Backward,
        }
    }
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions {
            strategy: Strategy::BottomUp,
            check_globals: true,
            budget: Some(48 * 1024),
            backing: Backing::Disk,
            profile: false,
            fault: None,
            retry: RetryPolicy::default(),
            deadline: None,
        }
    }
}

/// How failed passes are retried.
///
/// A pass that fails with a *transient* error (an I/O-rooted
/// [`AptError`]) is re-run from its preceding boundary file — the APT on
/// secondary storage makes the pass a natural retry unit, since its
/// input file is immutable while it runs. Backoff is deterministic
/// exponential: after the `n`-th failed attempt the machine sleeps
/// `backoff × 2ⁿ⁻¹`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per pass (1 = no retries).
    pub max_attempts: u32,
    /// Sleep after the first failed attempt; doubles each further attempt.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `n` retries (so `n + 1` attempts) with a small
    /// default backoff — what the CLI's `--retries N` maps to.
    pub fn retries(n: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: n.saturating_add(1),
            backoff: Duration::from_millis(10),
        }
    }

    /// Deterministic exponential delay after failed attempt `attempt`
    /// (1-based): `backoff × 2^(attempt-1)`, saturating.
    pub fn delay(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        self.backoff.saturating_mul(1u32 << shift)
    }
}

/// One pass's row of the evaluation record: what pass `pass` did to the
/// two intermediate files (boundary `pass - 1` in, boundary `pass` out)
/// and the semantic work it performed. Byte counts are framed record
/// bytes, without the file header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassStats {
    /// Pass number (1-based, as in the paper).
    pub pass: u16,
    /// Direction the input file was read in.
    pub direction: ReadDir,
    /// Wall-clock time of the pass.
    pub duration: Duration,
    /// Bytes read from the input intermediate file.
    pub bytes_read: u64,
    /// Bytes written to the output intermediate file.
    pub bytes_written: u64,
    /// Records read.
    pub records_read: u64,
    /// Records written.
    pub records_written: u64,
    /// Semantic functions (rules) evaluated.
    pub rules_evaluated: u64,
    /// Attribute instances defined (rule targets assigned).
    pub attrs_evaluated: u64,
    /// External semantic-function calls.
    pub funcs_invoked: u64,
}

impl PassStats {
    /// The row of pass `pass`, reading in `direction`, with every count
    /// zero.
    pub fn new(pass: u16, direction: ReadDir) -> PassStats {
        PassStats {
            pass,
            direction,
            duration: Duration::ZERO,
            bytes_read: 0,
            bytes_written: 0,
            records_read: 0,
            records_written: 0,
            rules_evaluated: 0,
            attrs_evaluated: 0,
            funcs_invoked: 0,
        }
    }

    fn add(&mut self, other: &PassStats) {
        self.duration += other.duration;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.records_read += other.records_read;
        self.records_written += other.records_written;
        self.rules_evaluated += other.rules_evaluated;
        self.attrs_evaluated += other.attrs_evaluated;
        self.funcs_invoked += other.funcs_invoked;
    }
}

/// The evaluation record: the one account of an evaluation, which the
/// `--profile` report, batch aggregation and the daemon's `stats` all
/// read.
///
/// The interpreter fills every field. A compiled evaluator fills the
/// boundary-0 totals and one row per pass whose counts are zero, since
/// generated code does not count.
#[derive(Clone, Debug, Default)]
pub struct EvalStats {
    /// Records written to the parser-built boundary-0 file (0 when the
    /// evaluation resumed from a checkpoint and did not rebuild it).
    pub initial_records: u64,
    /// Framed bytes written to the boundary-0 file.
    pub initial_bytes: u64,
    /// One row per pass that ran, in pass order.
    pub passes: Vec<PassStats>,
    /// Stack-residency meter (peak is what must fit in the 48 KB window).
    pub meter: Meter,
    /// Deepest production-procedure recursion reached.
    pub max_depth: usize,
    /// Subsumption verifications performed.
    pub globals_checked: u64,
    /// Subsumption verifications that found a clobbered global and
    /// repaired it (capture sites).
    pub globals_repaired: u64,
    /// Pass attempts that failed transiently and were re-run under the
    /// [`RetryPolicy`].
    pub retries: u64,
    /// When the evaluation resumed from a checkpoint, the boundary it
    /// restarted after (passes `1..=resumed_from` were *not* re-run).
    pub resumed_from: Option<u16>,
}

impl EvalStats {
    /// Total framed bytes moved through the intermediate files: the
    /// boundary-0 file's bytes as the parser wrote them, plus every
    /// pass's bytes read and bytes written.
    pub fn total_io_bytes(&self) -> u64 {
        self.initial_bytes
            + self
                .passes
                .iter()
                .map(|p| p.bytes_read + p.bytes_written)
                .sum::<u64>()
    }

    /// Total semantic functions evaluated.
    pub fn total_rules(&self) -> u64 {
        self.passes.iter().map(|p| p.rules_evaluated).sum()
    }

    /// Total attribute instances defined.
    pub fn total_attrs_evaluated(&self) -> u64 {
        self.passes.iter().map(|p| p.attrs_evaluated).sum()
    }

    /// Total external semantic-function calls.
    pub fn total_funcs_invoked(&self) -> u64 {
        self.passes.iter().map(|p| p.funcs_invoked).sum()
    }

    /// Add `other`'s counts into this record, as a batch or a daemon
    /// sums many evaluations: the boundary-0 totals, each pass's row
    /// into the row with the same pass number, the globals counts and
    /// the retries. The meter, the depth and the resume point describe
    /// a single run and are left as they are.
    pub fn merge(&mut self, other: &EvalStats) {
        self.initial_records += other.initial_records;
        self.initial_bytes += other.initial_bytes;
        for row in &other.passes {
            match self.passes.iter_mut().find(|r| r.pass == row.pass) {
                Some(mine) => mine.add(row),
                None => self.passes.push(*row),
            }
        }
        self.passes.sort_by_key(|r| r.pass);
        self.globals_checked += other.globals_checked;
        self.globals_repaired += other.globals_repaired;
        self.retries += other.retries;
    }
}

/// The result of an evaluation.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Values of the root's synthesized attributes — "the result of the
    /// translation" (§I).
    pub outputs: Vec<(AttrId, Value)>,
    /// Measurements.
    pub stats: EvalStats,
}

impl Evaluation {
    /// Output value by attribute name.
    pub fn output(&self, analysis: &Analysis, name: &str) -> Option<&Value> {
        self.outputs
            .iter()
            .find(|(a, _)| analysis.grammar.attr_name(*a) == name)
            .map(|(_, v)| v)
    }

    /// Resume a checkpointed evaluation from `checkpoint_dir` alone — no
    /// parse tree needed, because boundary 0 (the parser's output) is
    /// itself a checkpoint. Restarts after the newest boundary whose
    /// file validates against the manifest and finishes the remaining
    /// passes.
    ///
    /// # Errors
    ///
    /// Fails with [`EvalError::Manifest`] when the directory holds no
    /// readable manifest, and [`EvalError::Corrupt`] when the manifest
    /// belongs to a different strategy/pass configuration or no boundary
    /// file validates (callers with the tree at hand should fall back to
    /// [`evaluate_resumable`], which restarts from scratch instead).
    pub fn resume(
        analysis: &Analysis,
        funcs: &Funcs,
        opts: &EvalOptions,
        checkpoint_dir: &Path,
    ) -> Result<Evaluation, EvalError> {
        evaluate_inner(analysis, funcs, None, opts, Some(checkpoint_dir), true)
    }
}

/// An evaluation failure.
#[derive(Debug)]
pub enum EvalError {
    /// Intermediate-file failure.
    Apt(AptError),
    /// Semantic-function failure.
    Func(FuncError),
    /// The input tree does not fit the grammar.
    Tree(TreeError),
    /// The strategy's first direction disagrees with the pass analysis.
    StrategyMismatch {
        /// The strategy requested.
        strategy: Strategy,
        /// The analysis's first direction.
        first_direction: Direction,
    },
    /// The file stream disagrees with the grammar (wrong record kind or
    /// symbol).
    Corrupt(String),
    /// A needed attribute instance was absent (indicates an analysis or
    /// interpreter bug).
    Missing(String),
    /// The job's code panicked; the batch supervisor caught the unwind
    /// and converted it into this typed failure so one bad semantic
    /// function cannot take down the coordinator.
    Panicked(String),
    /// The evaluation exceeded its [`EvalOptions::deadline`].
    Deadline {
        /// The configured wall-clock ceiling.
        limit: Duration,
    },
    /// The checkpoint manifest could not be read or written.
    Manifest(ManifestError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Apt(e) => write!(f, "{}", e),
            EvalError::Func(e) => write!(f, "{}", e),
            EvalError::Tree(e) => write!(f, "{}", e),
            EvalError::StrategyMismatch {
                strategy,
                first_direction,
            } => write!(
                f,
                "strategy {:?} incompatible with first pass direction {}",
                strategy, first_direction
            ),
            EvalError::Corrupt(m) => write!(f, "APT stream corrupt: {}", m),
            EvalError::Missing(m) => write!(f, "missing attribute instance: {}", m),
            EvalError::Panicked(m) => write!(f, "evaluation panicked: {}", m),
            EvalError::Deadline { limit } => {
                write!(f, "evaluation exceeded its {:?} deadline", limit)
            }
            EvalError::Manifest(e) => write!(f, "{}", e),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<AptError> for EvalError {
    fn from(e: AptError) -> EvalError {
        EvalError::Apt(e)
    }
}
impl From<ManifestError> for EvalError {
    fn from(e: ManifestError) -> EvalError {
        EvalError::Manifest(e)
    }
}
impl From<FuncError> for EvalError {
    fn from(e: FuncError) -> EvalError {
        EvalError::Func(e)
    }
}
impl From<TreeError> for EvalError {
    fn from(e: TreeError) -> EvalError {
        EvalError::Tree(e)
    }
}

/// Evaluate `tree` under `analysis` with the external functions in
/// `funcs`.
///
/// # Errors
///
/// See [`EvalError`].
///
/// # Example
///
/// See the crate-level documentation for a complete walk-through.
pub fn evaluate(
    analysis: &Analysis,
    funcs: &Funcs,
    tree: &PTree,
    opts: &EvalOptions,
) -> Result<Evaluation, EvalError> {
    evaluate_inner(analysis, funcs, Some(tree), opts, None, false)
}

/// Evaluate `tree` with pass-boundary checkpointing into `checkpoint_dir`.
///
/// Each boundary file is fsynced and recorded (totals + CRC) in an
/// atomically rewritten [`Manifest`] before the next pass starts. If the
/// directory already holds a valid manifest for the same strategy and
/// pass count — this evaluation was started before and died — the run
/// *resumes* after the newest boundary whose file still matches its
/// manifest entry, instead of starting from pass 0. A checkpoint whose
/// file fails validation silently degrades to the previous one.
///
/// The caller owns `checkpoint_dir`: it is created if absent and left in
/// place on success (so the outputs can be audited), never deleted.
///
/// # Errors
///
/// See [`EvalError`]. Manifest I/O failures surface as
/// [`EvalError::Manifest`].
pub fn evaluate_resumable(
    analysis: &Analysis,
    funcs: &Funcs,
    tree: &PTree,
    opts: &EvalOptions,
    checkpoint_dir: &Path,
) -> Result<Evaluation, EvalError> {
    evaluate_inner(
        analysis,
        funcs,
        Some(tree),
        opts,
        Some(checkpoint_dir),
        false,
    )
}

/// The manifest's claim for boundary `pass`, from a durable writer's
/// summary.
fn manifest_entry(pass: u16, s: &FileSummary) -> Result<PassEntry, EvalError> {
    let crc = s.crc.ok_or_else(|| {
        EvalError::Corrupt(format!(
            "boundary {} was written without its body checksum",
            pass
        ))
    })?;
    Ok(PassEntry {
        pass,
        records: s.records,
        bytes: s.bytes,
        crc,
    })
}

fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::BottomUp => "BottomUp",
        Strategy::Prefix => "Prefix",
    }
}

fn tag_pass(e: EvalError, k: u16) -> EvalError {
    match e {
        EvalError::Apt(a) => EvalError::Apt(a.at_pass(k)),
        other => other,
    }
}

/// Only I/O-rooted failures are transient; corrupt streams, semantic
/// errors, and deadline overruns would fail identically on every retry.
fn is_retryable(e: &EvalError) -> bool {
    matches!(e, EvalError::Apt(a) if matches!(a.root(), AptError::Io(_)))
}

fn evaluate_inner(
    analysis: &Analysis,
    funcs: &Funcs,
    tree: Option<&PTree>,
    opts: &EvalOptions,
    checkpoint: Option<&Path>,
    require_manifest: bool,
) -> Result<Evaluation, EvalError> {
    if let Some(t) = tree {
        t.validate(&analysis.grammar)?;
    }
    let first = analysis.passes.direction(1);
    let compatible = matches!(
        (opts.strategy, first),
        (Strategy::BottomUp, Direction::RightToLeft) | (Strategy::Prefix, Direction::LeftToRight)
    );
    if !compatible {
        return Err(EvalError::StrategyMismatch {
            strategy: opts.strategy,
            first_direction: first,
        });
    }

    let started = Instant::now();
    let num_passes = analysis.passes.num_passes() as u16;
    let store = match checkpoint {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| EvalError::Apt(AptError::Io(e).in_file(dir)))?;
            Store::Dir(dir.to_path_buf())
        }
        None => Store::new(opts.backing)?,
    };

    // Resume detection: trust the newest manifest boundary (below the
    // final pass, whose root outputs are not on disk) whose file still
    // matches its recorded summary; walk back past corrupted ones.
    let mut manifest: Option<Manifest> = None;
    let mut resume_boundary: Option<u16> = None;
    if let Some(dir) = checkpoint {
        match Manifest::load(dir) {
            Ok(m) if m.strategy == strategy_name(opts.strategy) && m.num_passes == num_passes => {
                for e in m.entries.iter().rev() {
                    if e.pass >= num_passes {
                        continue;
                    }
                    let recorded = FileSummary {
                        records: e.records,
                        bytes: e.bytes,
                        crc: Some(e.crc),
                    };
                    if file_summary(&boundary_path(dir, e.pass)).is_ok_and(|s| s == recorded) {
                        resume_boundary = Some(e.pass);
                        break;
                    }
                }
                let mut m = m;
                match resume_boundary {
                    // Later boundaries are now unproven; they will be
                    // re-recorded as their passes re-run.
                    Some(b) => m.entries.retain(|e| e.pass <= b),
                    None => m.entries.clear(),
                }
                manifest = Some(m);
            }
            Ok(m) if require_manifest => {
                return Err(EvalError::Corrupt(format!(
                    "checkpoint in {} is for a different configuration \
                     ({} × {} passes; this run needs {} × {})",
                    dir.display(),
                    m.strategy,
                    m.num_passes,
                    strategy_name(opts.strategy),
                    num_passes
                )));
            }
            Ok(_) => {}
            Err(e) if require_manifest => return Err(EvalError::Manifest(e)),
            Err(_) => {}
        }
        if require_manifest && resume_boundary.is_none() {
            return Err(EvalError::Corrupt(format!(
                "no valid checkpoint boundary to resume from in {}",
                dir.display()
            )));
        }
        if manifest.is_none() {
            manifest = Some(Manifest::new(strategy_name(opts.strategy), num_passes));
        }
    }
    let start_pass = resume_boundary.map_or(1, |b| b + 1);

    let mut machine = Machine {
        analysis,
        funcs,
        callees: Vec::new(),
        globals: HashMap::new(),
        stats: EvalStats {
            meter: Meter::with_budget(opts.budget),
            resumed_from: resume_boundary,
            ..EvalStats::default()
        },
        check_globals: opts.check_globals,
        pass: 0,
        depth: 0,
        row: PassStats::new(0, ReadDir::Backward),
    };
    let check_deadline = || -> Result<(), EvalError> {
        match opts.deadline {
            Some(limit) if started.elapsed() >= limit => Err(EvalError::Deadline { limit }),
            _ => Ok(()),
        }
    };

    // Boundary 0: the parser-built file (skipped entirely on resume —
    // the checkpointed copy *is* the parser's output).
    if resume_boundary.is_none() {
        let tree = tree.ok_or_else(|| {
            EvalError::Corrupt(
                "nothing to resume and no parse tree supplied to rebuild boundary 0".to_owned(),
            )
        })?;
        let mut attempt = 1u32;
        let summary = loop {
            check_deadline()?;
            let result = (|| -> Result<FileSummary, EvalError> {
                let mut w = store.writer(0)?;
                if checkpoint.is_some() {
                    w.set_sync(true);
                }
                if let Some(f) = &opts.fault {
                    if f.pass == 0 && f.target == FaultTarget::Write {
                        w.set_fault(f.clone());
                    }
                }
                match opts.strategy {
                    Strategy::BottomUp => {
                        tree.write_postfix(&analysis.grammar, &analysis.lifetimes, &mut w)?
                    }
                    Strategy::Prefix => {
                        tree.write_prefix(&analysis.grammar, &analysis.lifetimes, &mut w)?
                    }
                }
                Ok(store.finish(0, w)?)
            })();
            match result {
                Ok(s) => break s,
                Err(e) => {
                    let e = tag_pass(e, 0);
                    if attempt >= opts.retry.max_attempts || !is_retryable(&e) {
                        return Err(e);
                    }
                    machine.stats.retries += 1;
                    std::thread::sleep(opts.retry.delay(attempt));
                    attempt += 1;
                }
            }
        };
        machine.stats.initial_records = summary.records;
        machine.stats.initial_bytes = summary.bytes;
        if let (Some(m), Some(dir)) = (&mut manifest, checkpoint) {
            m.record(manifest_entry(0, &summary)?);
            m.save(dir)?;
        }
    }

    let mut root_state: Option<NodeState> = None;
    for k in start_pass..=num_passes {
        let read_dir = opts.strategy.read_dir(k);
        let mut attempt = 1u32;
        // Each attempt re-runs the whole pass from the (immutable)
        // boundary k-1 file; a clean attempt breaks with the pass result.
        let (root, summary) = loop {
            check_deadline()?;
            let pass_started = Instant::now();
            machine.pass = k;
            machine.depth = 0;
            machine.globals.clear();
            machine.row = PassStats::new(k, read_dir);
            let mem_before = machine.stats.meter.current();
            let result = (|| -> Result<(NodeState, FileSummary), EvalError> {
                let mut reader = store.reader(k - 1, read_dir)?;
                let mut writer = store.writer(k)?;
                if checkpoint.is_some() {
                    writer.set_sync(true);
                }
                if let Some(f) = &opts.fault {
                    if f.pass == k {
                        match f.target {
                            FaultTarget::Read => reader.set_fault(f.clone()),
                            FaultTarget::Write => writer.set_fault(f.clone()),
                        }
                    }
                }
                let root = machine.run_pass(&mut reader, &mut writer)?;
                machine.row.records_read = reader.records_read();
                machine.row.bytes_read = reader.bytes_read();
                Ok((root, store.finish(k, writer)?))
            })();
            match result {
                Ok((root, summary)) => {
                    machine.row.duration = pass_started.elapsed();
                    machine.row.records_written = summary.records;
                    machine.row.bytes_written = summary.bytes;
                    break (root, summary);
                }
                Err(e) => {
                    let e = tag_pass(e, k);
                    if attempt >= opts.retry.max_attempts || !is_retryable(&e) {
                        return Err(e);
                    }
                    machine.stats.retries += 1;
                    // The aborted attempt left its spine charges on the
                    // meter; release them so retries don't compound
                    // (peak stays — that memory really was used).
                    let leaked = machine.stats.meter.current().saturating_sub(mem_before);
                    machine.stats.meter.release(leaked);
                    std::thread::sleep(opts.retry.delay(attempt));
                    attempt += 1;
                }
            }
        };
        machine.stats.passes.push(machine.row);
        // Pass-boundary heartbeat: keep the scratch dir's lock fresh so
        // a sweeping daemon in another process never reaps a long
        // evaluation's intermediates mid-run.
        if let Store::Disk(dir) = &store {
            dir.refresh_lock();
        }
        if let (Some(m), Some(dir)) = (&mut manifest, checkpoint) {
            m.record(manifest_entry(k, &summary)?);
            m.save(dir)?;
        }
        root_state = Some(root);
    }

    let root = root_state.ok_or_else(|| {
        EvalError::Corrupt("grammar evaluates in zero passes; nothing to do".to_owned())
    })?;
    let g = &analysis.grammar;
    let mut outputs = Vec::new();
    for &a in &g.symbol(g.start()).attrs {
        if g.attr(a).class == AttrClass::Synthesized {
            let v = root.values[g.slot(a)]
                .as_ref()
                .ok_or_else(|| EvalError::Missing(format!("root output {}", g.attr_name(a))))?;
            outputs.push((a, v.clone()));
        }
    }
    Ok(Evaluation {
        outputs,
        stats: machine.stats,
    })
}

/// Apply an infix operator, as the interpreter and generated evaluators
/// both do. `AND`/`OR` receive both operands already evaluated, but skip
/// the second operand's type check when the first decides the result.
///
/// # Errors
///
/// [`FuncError::Type`] when an operand has the wrong type.
pub fn apply_binop(op: BinOp, a: Value, b: Value) -> Result<Value, FuncError> {
    let int = |v: &Value| -> Result<i64, FuncError> {
        match v {
            Value::Int(i) => Ok(*i),
            other => Err(FuncError::Type {
                name: op.to_string(),
                expected: "int",
                got: other.type_name(),
            }),
        }
    };
    let boolean = |v: &Value| -> Result<bool, FuncError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(FuncError::Type {
                name: op.to_string(),
                expected: "bool",
                got: other.type_name(),
            }),
        }
    };
    Ok(match op {
        BinOp::Add => Value::Int(int(&a)?.wrapping_add(int(&b)?)),
        BinOp::Sub => Value::Int(int(&a)?.wrapping_sub(int(&b)?)),
        BinOp::And => Value::Bool(boolean(&a)? && boolean(&b)?),
        BinOp::Or => Value::Bool(boolean(&a)? || boolean(&b)?),
        BinOp::Eq => Value::Bool(a == b),
        BinOp::Ne => Value::Bool(a != b),
        BinOp::Gt => Value::Bool(int(&a)? > int(&b)?),
        BinOp::Lt => Value::Bool(int(&a)? < int(&b)?),
    })
}

/// An APT node held on the stack: its symbol and its frame, one slot per
/// attribute of the symbol ([`Grammar::attr_slots`]).
#[derive(Clone, Debug)]
struct NodeState {
    sym: SymbolId,
    values: Vec<Option<Value>>,
    charged: usize,
}

impl NodeState {
    fn empty(g: &Grammar, sym: SymbolId) -> NodeState {
        NodeState {
            sym,
            values: vec![None; g.symbol(sym).attrs.len()],
            charged: 0,
        }
    }

    /// Load a symbol record into a fresh frame, as generated code does.
    /// `charged` is the record's framed size in the file.
    fn from_record(g: &Grammar, rec: Record, charged: u64) -> Result<NodeState, EvalError> {
        let charged = charged as usize;
        match rec.body {
            RecordBody::Sym(sym) if (sym.0 as usize) < g.symbols().len() => {
                let mut state = NodeState::empty(g, sym);
                fill_slots(&mut state.values, sym.0, rec.values, g.attr_slots());
                state.charged = charged;
                Ok(state)
            }
            RecordBody::Sym(sym) => Err(EvalError::Corrupt(format!(
                "record for unknown symbol {}",
                sym.0
            ))),
            RecordBody::Prod(p) => Err(EvalError::Corrupt(format!(
                "expected a symbol record, found production {}",
                p.0
            ))),
        }
    }
}

/// Put a rule's result `v` into the slot of its target `t`, creating the
/// child's frame when the rule defines an inherited attribute of a child
/// whose record is not read yet.
fn store(g: &Grammar, t: AttrOcc, v: Value, state: &mut NodeState, frame: &mut Frame) {
    let slots = match t.pos {
        OccPos::Lhs => &mut state.values,
        OccPos::Rhs(i) => {
            &mut frame.children[i as usize]
                .get_or_insert_with(|| NodeState::empty(g, g.attr(t.attr).symbol))
                .values
        }
        OccPos::Limb => &mut frame.limb,
    };
    slots[g.slot(t.attr)] = Some(v);
}

/// What one production-procedure activation holds besides its own node:
/// the children's frames and the limb's. A rule writes its result
/// straight into its target's slot, so these frames are also the visit's
/// locals: a child's frame is created early when a rule defines one of
/// its inherited attributes before its record is read.
struct Frame {
    children: Vec<Option<NodeState>>,
    limb: Vec<Option<Value>>,
}

struct Machine<'a> {
    analysis: &'a Analysis,
    funcs: &'a Funcs,
    /// `funcs` entries by function-name index, each looked up on its
    /// first call of the evaluation (`None` until then).
    callees: Vec<Option<Option<&'a ExternalFn>>>,
    globals: HashMap<GroupId, Value>,
    stats: EvalStats,
    check_globals: bool,
    pass: u16,
    depth: usize,
    /// The running pass's row of the record.
    row: PassStats,
}

impl<'a> Machine<'a> {
    fn run_pass(
        &mut self,
        reader: &mut AptReader,
        writer: &mut AptWriter,
    ) -> Result<NodeState, EvalError> {
        let g = &self.analysis.grammar;
        let rec = reader
            .next()?
            .ok_or_else(|| EvalError::Corrupt("empty APT file".to_owned()))?;
        let mut root = NodeState::from_record(g, rec, reader.last_frame_bytes())?;
        if root.sym != g.start() {
            return Err(EvalError::Corrupt(format!(
                "root record is {}, expected start symbol {}",
                g.symbol_name(root.sym),
                g.symbol_name(g.start())
            )));
        }
        self.stats.meter.charge(root.charged);
        self.visit(&mut root, reader, writer)?;
        self.write_node(&root, writer)?;
        self.stats.meter.release(root.charged);
        Ok(root)
    }

    /// Write `state`'s record at the end of this pass: its layout at
    /// boundary `pass`.
    fn write_node(&self, state: &NodeState, writer: &mut AptWriter) -> Result<(), AptError> {
        let layout = self.analysis.lifetimes.layout(state.sym, self.pass);
        writer.write_slots(RecordBody::Sym(state.sym), &state.values, layout)
    }

    fn visit(
        &mut self,
        state: &mut NodeState,
        reader: &mut AptReader,
        writer: &mut AptWriter,
    ) -> Result<(), EvalError> {
        self.depth += 1;
        if self.depth > self.stats.max_depth {
            self.stats.max_depth = self.depth;
        }
        let g = &self.analysis.grammar;
        let lt = &self.analysis.lifetimes;

        // The production record drives dispatch (the limb's role of
        // "synchronizing the identification of productions").
        let prod_rec = reader
            .next()?
            .ok_or_else(|| EvalError::Corrupt("APT file ended inside a visit".to_owned()))?;
        let prod_charged = reader.last_frame_bytes() as usize;
        let prod = match prod_rec.body {
            RecordBody::Prod(p) => p,
            RecordBody::Sym(s) => {
                return Err(EvalError::Corrupt(format!(
                    "expected a production record, found symbol {}",
                    s.0
                )))
            }
        };
        let p = match g.productions().get(prod.0 as usize) {
            Some(p) if p.lhs == state.sym => p,
            _ => {
                return Err(EvalError::Corrupt(format!(
                    "production {} does not derive {}",
                    prod.0,
                    g.symbol_name(state.sym)
                )))
            }
        };
        let mut frame = Frame {
            children: vec![None; p.rhs.len()],
            limb: Vec::new(),
        };
        if let Some(l) = p.limb {
            frame.limb = vec![None; g.symbol(l).attrs.len()];
            fill_slots(&mut frame.limb, l.0, prod_rec.values, g.attr_slots());
        }
        self.stats.meter.charge(prod_charged);
        let mut charged_children = 0usize;

        for step in &self.analysis.plans.plan(self.pass, prod).steps {
            match *step {
                Step::Get(i) => {
                    let want = p.rhs[i as usize];
                    // An elided terminal has no record in the input
                    // file: its frame starts empty.
                    let mut child = if lt.elides(g, want, self.pass - 1) {
                        NodeState::empty(g, want)
                    } else {
                        let rec = reader.next()?.ok_or_else(|| {
                            EvalError::Corrupt("APT file ended before child record".to_owned())
                        })?;
                        let child = NodeState::from_record(g, rec, reader.last_frame_bytes())?;
                        if child.sym != want {
                            return Err(EvalError::Corrupt(format!(
                                "child {} of production {}: expected {}, found {}",
                                i,
                                prod.0,
                                g.symbol_name(want),
                                g.symbol_name(child.sym)
                            )));
                        }
                        self.stats.meter.charge(child.charged);
                        charged_children += child.charged;
                        child
                    };
                    // Values this visit already defined for the child win
                    // over the record's, as generated code's locals do.
                    if let Some(early) = frame.children[i as usize].take() {
                        for (slot, v) in child.values.iter_mut().zip(early.values) {
                            if v.is_some() {
                                *slot = v;
                            }
                        }
                    }
                    frame.children[i as usize] = Some(child);
                }
                Step::Eval(r) => self.eval_rule(r, state, &mut frame)?,
                Step::Visit(i) => {
                    let saves = if self.check_globals {
                        self.pre_visit_globals(prod, i, state, &frame)?
                    } else {
                        Vec::new()
                    };
                    let mut child = frame.children[i as usize]
                        .take()
                        .ok_or_else(|| EvalError::Missing(format!("child {} state", i)))?;
                    self.visit(&mut child, reader, writer)?;
                    if self.check_globals {
                        self.post_visit_globals(&child, saves);
                    }
                    frame.children[i as usize] = Some(child);
                }
                Step::Put(i) => {
                    let child = frame.children[i as usize]
                        .as_ref()
                        .ok_or_else(|| EvalError::Missing(format!("child {} state", i)))?;
                    // Symmetric with Get: the next pass will not look
                    // for this record, so don't write it.
                    if !lt.elides(g, child.sym, self.pass) {
                        self.write_node(child, writer)?;
                    }
                }
            }
        }

        // End zone: run the synthesized global protocol, write the
        // production record with the limb values alive across the
        // boundary.
        if self.check_globals {
            self.end_globals(prod, state);
        }
        let layout = match p.limb {
            Some(l) => lt.layout(l, self.pass),
            None => &[],
        };
        writer.write_slots(RecordBody::Prod(prod), &frame.limb, layout)?;

        self.stats.meter.release(charged_children + prod_charged);
        self.depth -= 1;
        Ok(())
    }

    fn resolve(&self, occ: AttrOcc, state: &NodeState, frame: &Frame) -> Result<Value, EvalError> {
        let g = &self.analysis.grammar;
        let slots = match occ.pos {
            OccPos::Lhs => Some(&state.values),
            OccPos::Rhs(i) => frame
                .children
                .get(i as usize)
                .and_then(Option::as_ref)
                .map(|c| &c.values),
            OccPos::Limb => Some(&frame.limb),
        };
        slots
            .and_then(|s| s.get(g.slot(occ.attr)))
            .and_then(Option::as_ref)
            .cloned()
            .ok_or_else(|| {
                EvalError::Missing(format!(
                    "{} at {} (pass {})",
                    g.attr_name(occ.attr),
                    occ.pos,
                    self.pass
                ))
            })
    }

    fn eval_rule(
        &mut self,
        rule: RuleId,
        state: &mut NodeState,
        frame: &mut Frame,
    ) -> Result<(), EvalError> {
        let g = &self.analysis.grammar;
        let r = g.rule(rule);
        let width = r.targets.len();
        match (&r.expr, r.targets.as_slice()) {
            (expr, &[t]) => {
                let v = self.eval_expr(expr, state, frame)?;
                store(g, t, v, state, frame);
            }
            (
                Expr::If {
                    branches,
                    otherwise,
                },
                targets,
            ) if width > 1 => {
                // Every arm expression reads the frame as it was before
                // the rule, so all are evaluated before any is stored.
                let arm = self.select_arm(branches, otherwise, state, frame)?;
                let mut vals = Vec::with_capacity(width);
                for e in arm {
                    vals.push(self.eval_expr(e, state, frame)?);
                }
                for (&t, v) in targets.iter().zip(vals) {
                    store(g, t, v, state, frame);
                }
            }
            (expr, targets) => {
                let v = self.eval_expr(expr, state, frame)?;
                for &t in targets {
                    store(g, t, v.clone(), state, frame);
                }
            }
        }
        self.row.rules_evaluated += 1;
        self.row.attrs_evaluated += width as u64;
        Ok(())
    }

    fn select_arm<'e>(
        &mut self,
        branches: &'e [(Expr, Vec<Expr>)],
        otherwise: &'e [Expr],
        state: &NodeState,
        frame: &Frame,
    ) -> Result<&'e [Expr], EvalError> {
        for (cond, arm) in branches {
            let c = self.eval_expr(cond, state, frame)?;
            match c {
                Value::Bool(true) => return Ok(arm),
                Value::Bool(false) => continue,
                other => {
                    return Err(EvalError::Func(FuncError::Type {
                        name: "if".to_owned(),
                        expected: "bool",
                        got: other.type_name(),
                    }))
                }
            }
        }
        Ok(otherwise)
    }

    fn eval_expr(
        &mut self,
        expr: &Expr,
        state: &NodeState,
        frame: &Frame,
    ) -> Result<Value, EvalError> {
        match expr {
            Expr::Occ(o) => self.resolve(*o, state, frame),
            Expr::Int(i) => Ok(Value::Int(*i)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Str(s) => Ok(Value::str(s)),
            Expr::Const(n) => Ok(Value::Sym(*n)),
            Expr::Call { func, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval_expr(a, state, frame)?);
                }
                self.row.funcs_invoked += 1;
                let (g, funcs) = (&self.analysis.grammar, self.funcs);
                let ix = func.index();
                if ix >= self.callees.len() {
                    self.callees.resize(ix + 1, None);
                }
                match *self.callees[ix].get_or_insert_with(|| funcs.get(g.resolve(*func))) {
                    Some(f) => Ok(f(&vals)?),
                    None => Err(EvalError::Func(FuncError::Unknown {
                        name: g.resolve(*func).to_owned(),
                    })),
                }
            }
            Expr::Binop { op, lhs, rhs } => {
                let a = self.eval_expr(lhs, state, frame)?;
                let b = self.eval_expr(rhs, state, frame)?;
                Ok(apply_binop(*op, a, b)?)
            }
            Expr::If {
                branches,
                otherwise,
            } => {
                let arm = self.select_arm(branches, otherwise, state, frame)?;
                match arm {
                    [single] => self.eval_expr(single, state, frame),
                    _ => Err(EvalError::Corrupt(
                        "multi-expression arm outside a multi-target rule".to_owned(),
                    )),
                }
            }
        }
    }

    // ---- static-subsumption global protocol ---------------------------

    /// Whether `a` is a static attribute of class `class` computed in this
    /// pass: the ones the protocol passes through the globals.
    fn global_this_pass(&self, a: AttrId, class: AttrClass) -> bool {
        self.analysis.grammar.attr(a).class == class
            && self.analysis.passes.pass_of(a) == self.pass
            && self.analysis.subsumption.is_static(a)
    }

    /// Whether the rule of `prod` defining `occ` was subsumed.
    fn subsumed_def(&self, prod: ProdId, occ: AttrOcc) -> bool {
        let g = &self.analysis.grammar;
        g.production(prod)
            .rules
            .iter()
            .find(|&&r| g.rule(r).targets.contains(&occ))
            .is_some_and(|&r| self.analysis.subsumption.is_subsumed(r))
    }

    /// Verify that `group`'s global already holds `val`, re-capturing it
    /// when it was clobbered.
    fn check_global(&mut self, group: GroupId, val: &Value) {
        self.stats.globals_checked += 1;
        if self.globals.get(&group) != Some(val) {
            self.stats.globals_repaired += 1;
            self.globals.insert(group, val.clone());
        }
    }

    /// Before visiting child `i`: install this-pass inherited static
    /// values in the globals. Subsumed copies must already be there
    /// (verified); other definitions save the old value and set the new
    /// one.
    fn pre_visit_globals(
        &mut self,
        prod: ProdId,
        i: u16,
        state: &NodeState,
        frame: &Frame,
    ) -> Result<Vec<(GroupId, Option<Value>)>, EvalError> {
        let g = &self.analysis.grammar;
        let child_sym = g.production(prod).rhs[i as usize];
        let mut saves = Vec::new();
        for &a in &g.symbol(child_sym).attrs {
            if !self.global_this_pass(a, AttrClass::Inherited) {
                continue;
            }
            let occ = AttrOcc::rhs(i, a);
            let val = self.resolve(occ, state, frame)?;
            let group = self.analysis.subsumption.group_of(a);
            if self.subsumed_def(prod, occ) {
                self.check_global(group, &val);
            } else {
                saves.push((group, self.globals.insert(group, val)));
            }
        }
        Ok(saves)
    }

    /// After visiting a child: verify its this-pass synthesized static
    /// values arrived in the globals, then restore what we saved.
    fn post_visit_globals(&mut self, child: &NodeState, saves: Vec<(GroupId, Option<Value>)>) {
        let g = &self.analysis.grammar;
        for &a in &g.symbol(child.sym).attrs {
            if self.global_this_pass(a, AttrClass::Synthesized) {
                if let Some(val) = &child.values[g.slot(a)] {
                    self.check_global(self.analysis.subsumption.group_of(a), val);
                }
            }
        }
        for (group, old) in saves.into_iter().rev() {
            match old {
                Some(v) => self.globals.insert(group, v),
                None => self.globals.remove(&group),
            };
        }
    }

    /// Procedure end: leave this node's this-pass synthesized static
    /// values in the globals for the parent. A subsumed upward copy means
    /// the value should already be there (verified).
    fn end_globals(&mut self, prod: ProdId, state: &NodeState) {
        let g = &self.analysis.grammar;
        for &a in &g.symbol(state.sym).attrs {
            if !self.global_this_pass(a, AttrClass::Synthesized) {
                continue;
            }
            let Some(val) = &state.values[g.slot(a)] else {
                continue;
            };
            let group = self.analysis.subsumption.group_of(a);
            if self.subsumed_def(prod, AttrOcc::lhs(a)) {
                self.check_global(group, val);
            } else {
                self.globals.insert(group, val.clone());
            }
        }
    }
}

/// Per-evaluation intermediate storage: a temp directory of real files
/// (the paper) or a job-owned set of RAM buffers (the shared-nothing
/// batch hot path). No variant holds a `Mutex`, so the store is
/// lock-free by construction. Each evaluation builds its own `Store`, so
/// jobs running on different batch-evaluator threads never share
/// intermediate state.
enum Store {
    Disk(TempAptDir),
    /// A caller-owned persistent checkpoint directory: same file layout
    /// as [`Store::Disk`], but it survives the evaluation (and the
    /// process) so a resumed run can pick its boundary files back up.
    Dir(PathBuf),
    /// Shared-nothing RAM store. Writers append to a plain owned
    /// `Vec<u8>` ([`AptWriter::create_owned`]); [`Store::finish`] seals
    /// the completed boundary into an immutable `Arc<Vec<u8>>` that
    /// readers share lock-free ([`AptReader::open_shared`]). The map is
    /// only touched at pass boundaries (one `RefCell` borrow per
    /// open/seal), never per record — and only updated on a *successful*
    /// finish, so a failed pass attempt simply drops its half-written
    /// buffer while boundary `k-1` stays intact for the retry. `RefCell`
    /// (not `Mutex`) is sound because a `Store` never leaves the
    /// evaluation's thread.
    Memory(RefCell<HashMap<u16, Arc<Vec<u8>>>>),
}

impl Store {
    fn new(backing: Backing) -> Result<Store, AptError> {
        Ok(match backing {
            Backing::Disk => Store::Disk(TempAptDir::new()?),
            Backing::Memory => Store::Memory(RefCell::new(HashMap::new())),
        })
    }

    /// The sealed boundary-`k` buffer (empty if the boundary was never
    /// finished — the reader then rejects it as truncated, exactly like a
    /// missing file).
    fn sealed(&self, k: u16) -> Arc<Vec<u8>> {
        match self {
            Store::Memory(files) => files.borrow().get(&k).cloned().unwrap_or_default(),
            _ => unreachable!("sealed() is owned-memory-only"),
        }
    }

    fn writer(&self, k: u16) -> Result<AptWriter, AptError> {
        match self {
            Store::Disk(dir) => AptWriter::create(&dir.boundary(k)),
            Store::Dir(dir) => AptWriter::create(&boundary_path(dir, k)),
            Store::Memory(_) => Ok(AptWriter::create_owned()),
        }
    }

    fn reader(&self, k: u16, dir_: ReadDir) -> Result<AptReader, AptError> {
        match self {
            Store::Disk(dir) => AptReader::open(&dir.boundary(k), dir_),
            Store::Dir(dir) => AptReader::open(&boundary_path(dir, k), dir_),
            Store::Memory(_) => AptReader::open_shared(self.sealed(k), dir_),
        }
    }

    /// Complete boundary `k`: patch the header and, on the owned-memory
    /// path, seal the buffer into the store so the next pass can read it
    /// lock-free. The map is untouched on failure, keeping retries safe.
    fn finish(&self, k: u16, w: AptWriter) -> Result<FileSummary, AptError> {
        match self {
            Store::Memory(files) => {
                let (summary, buf) = w.finish_owned()?;
                files.borrow_mut().insert(k, Arc::new(buf));
                Ok(summary)
            }
            Store::Disk(_) | Store::Dir(_) => w.finish_summary(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(pass: u16, n: u64) -> PassStats {
        PassStats {
            records_read: n,
            bytes_read: 10 * n,
            records_written: n,
            bytes_written: 10 * n,
            attrs_evaluated: 2 * n,
            funcs_invoked: n / 2,
            rules_evaluated: n,
            ..PassStats::new(pass, ReadDir::Backward)
        }
    }

    #[test]
    fn merge_sums_matching_passes_and_keeps_extras() {
        let mut a = EvalStats {
            initial_records: 5,
            initial_bytes: 50,
            passes: vec![row(1, 10)],
            ..EvalStats::default()
        };
        let b = EvalStats {
            initial_records: 3,
            initial_bytes: 30,
            passes: vec![row(1, 4), row(2, 7)],
            retries: 1,
            ..EvalStats::default()
        };
        a.merge(&b);
        assert_eq!(a.initial_records, 8);
        assert_eq!(a.passes.len(), 2);
        assert_eq!(a.passes[0].records_read, 14);
        assert_eq!(a.passes[1].records_read, 7);
        assert_eq!(a.retries, 1);
        // Boundary 0 plus every pass's reads and writes.
        assert_eq!(a.total_io_bytes(), 80 + 2 * 140 + 2 * 70);
        assert_eq!(a.total_attrs_evaluated(), 2 * 21);
    }
}
