//! The `linguist` command: the translator-writing system as a CLI.
//!
//! ```text
//! linguist GRAMMAR.lg [GRAMMAR2.lg ...] [options]
//!
//!   --listing            print the overlay-6 listing file
//!   --stats              print the §IV statistics block (default)
//!   --timings            print the per-overlay timing table
//!   --profile[=FMT]      compile, then run the generated evaluator over
//!                        a synthetic tree with the pass-level profiler
//!                        on; FMT is text (default) or json
//!   --emit pascal|rust   print the generated evaluator source
//!   --first-pass rl|lr   bootstrap strategy (default rl, like the paper)
//!   --opt[=on|off]       run the grammar optimizer (constant folding,
//!                        copy-chain collapsing, dead-attribute
//!                        elimination) before scheduling; default on,
//!                        as in the library; `--opt=off` is the
//!                        paper-faithful configuration
//!   --no-subsumption     disable static subsumption
//!   --coalesce           use the cross-name coalescing extension
//!   --batch              process the grammars as a parallel batch
//!   --jobs N             worker threads for --batch (default: all cores)
//!   --retries N          re-run a failed evaluator pass up to N times
//!                        (exponential backoff, from the last boundary)
//!   --checkpoint-dir DIR checkpoint the profiled evaluation at every
//!                        pass boundary into DIR (durable manifest)
//!   --resume             resume the profiled evaluation from DIR's
//!                        manifest (requires --checkpoint-dir)
//!   --engine KIND        which execution engine runs the profiled
//!                        evaluation: interpreted (default) or aot
//!                        (checked-in compiled evaluator). A grammar
//!                        with no compiled evaluator degrades to the
//!                        interpreter with a typed reason.
//!
//! linguist codegen GRAMMAR.lg [--out DIR] [--first-pass rl|lr]
//!                  [--opt[=on|off]] [--no-subsumption] [--coalesce]
//!
//!   Write the grammar's generated evaluator to DIR (default
//!   `<stem>-evaluator/`) as a standalone Rust binary crate:
//!   boundary-0 APT on stdin, encoded root outputs on stdout. The same
//!   source the compiled engine builds; it depends on `linguist-eval`,
//!   named by the path of the source tree this binary was built from.
//!
//! linguist check GRAMMAR.lg [--format text|json] [--deny-warnings]
//!                [--first-pass rl|lr] [--opt[=on|off]]
//!                [--no-subsumption] [--coalesce]
//!
//!   Run the static-analysis lints and print every coded `AG0xx`
//!   finding with its source position. `--format json` prints one
//!   deterministic JSON object on stdout. Exit status 0 when the
//!   grammar is clean (notes never fail a check), 1 on any error —
//!   or, under `--deny-warnings`, on any warning — and 2 on usage
//!   errors.
//!
//! linguist serve [--socket PATH] [--tcp ADDR] [--workers N] [--queue N]
//!                [--cache N] [--deadline-ms N] [--max-frame-bytes N]
//!                [--idle-timeout-ms N] [--engine interpreted|aot]
//!                [--opt[=on|off]]
//!
//!   Run the resident translation service. At least one of --socket
//!   (Unix-domain) and --tcp (loopback, e.g. 127.0.0.1:0) is required;
//!   the daemon prints one "listening ..." line per bound endpoint on
//!   stderr and runs until a shutdown request or SIGTERM/SIGINT
//!   (either way it drains: stops accepting, finishes in-flight work,
//!   exits 0). --idle-timeout-ms 0 disables the stalled-connection
//!   deadline.
//!
//! linguist router (--socket PATH | --tcp ADDR) --shard SPEC [--shard ...]
//!                 [--health-interval-ms N] [--probe-timeout-ms N]
//!                 [--attempt-timeout-ms N] [--max-attempts N]
//!                 [--breaker-threshold N] [--breaker-cooldown-ms N]
//!
//!   Front a fleet of `linguist serve` shards: requests route by
//!   grammar content hash on a consistent-hash ring, shards are
//!   health-checked and ejected/re-admitted (with hot grammars
//!   replicated back in), and transient failures retry on the next
//!   replica with capped exponential backoff. SPEC is `unix:PATH` or
//!   `tcp:HOST:PORT` (bare paths/addresses also accepted). Speaks the
//!   same wire protocol as `serve`, so `client` and `load` point at
//!   either. Drains on SIGTERM/shutdown like `serve`.
//!
//! linguist load (--socket PATH | --tcp ADDR) [--rate R] [--duration-ms N]
//!               [--grammars N] [--budget N] [--senders N]
//!               [--deadline-ms N] [--retries N] [--json]
//!
//!   Open-loop load generator: offers `rate` translate requests per
//!   second for the duration, spread over `--grammars` distinct
//!   grammar variants, and reports latency measured from each
//!   request's *scheduled* arrival (immune to coordinated omission).
//!   Exit status 0 when every request succeeded, 1 otherwise.
//!
//! linguist client (--socket PATH | --tcp ADDR) [--timeout-ms N]
//!                 [--retries N] COMMAND
//!
//!   load FILE [--scanner NAME] [--name NAME]
//!   translate GRAMMAR (--input TEXT | --input-file FILE | --budget N)
//!             [--deadline-ms N]
//!   check GRAMMAR
//!   ping
//!   stats
//!   shutdown
//!   raw JSON
//!
//!   One request against a running daemon (or router); the JSON reply
//!   is printed on stdout. `--retries N` resends through a fresh
//!   connection, with backoff, when the transport fails or the reply
//!   is a transient typed error (`overloaded`/`shutting_down`/
//!   `shard_unavailable`). Exit status: 0 ok reply, 1 typed server
//!   error, 2 usage, 3 connection refused/failed, 4 timed out —
//!   each with a one-line diagnosis on stderr.
//! ```
//!
//! With one grammar and no `--batch`, runs the classic single-grammar
//! pipeline. With `--batch` (or several grammars), every grammar goes
//! through the seven-overlay pipeline on a worker pool and a summary
//! throughput line is printed after the per-grammar reports.
//!
//! `--profile=json` prints exactly one JSON value on stdout (an object
//! for a single grammar, an array under `--batch`); all human-oriented
//! output moves to stderr so the result can be piped to a JSON consumer.
//!
//! Exit status: 0 on success, 1 on any syntax/semantic/analysis error
//! (reported the way the failing overlay saw it). A `--profile=json`
//! batch where *every* grammar fails — in the driver or in its profiled
//! evaluation — also exits 1, so pipelines cannot mistake a fully
//! failed sweep for a quiet success.

use linguist_ag::analysis::Config;
use linguist_ag::lint::LintConfig;
use linguist_ag::passes::Direction;
use linguist_ag::subsumption::GroupMode;
use linguist_codegen::rustgen;
use linguist_engine::EngineKind;
use linguist_eval::aptfile::TempAptDir;
use linguist_eval::funcs::Funcs;
use linguist_eval::machine::{Backing, RetryPolicy};
use linguist_frontend::check::check_source;
use linguist_frontend::driver::{run, run_batch, DriverOptions, DriverOutput, TargetOpt};
use linguist_frontend::report::{ProfileReport, RecoveryOpts, DEFAULT_TREE_BUDGET};
use linguist_serve::client::Client;
use linguist_serve::load::{run_load, LoadConfig};
use linguist_serve::net::ShardAddr;
use linguist_serve::router::{Router, RouterConfig};
use linguist_serve::server::{Server, ServerConfig};
use linguist_support::json::Json;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

#[derive(Clone, Copy, PartialEq, Eq)]
enum ProfileFmt {
    Text,
    Json,
}

struct Cli {
    paths: Vec<String>,
    listing: bool,
    stats: bool,
    timings: bool,
    profile: Option<ProfileFmt>,
    emit: Option<TargetOpt>,
    config: Config,
    batch: bool,
    jobs: Option<usize>,
    retries: u32,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
    engine: EngineKind,
}

impl Cli {
    /// Recovery options for the `index`-th grammar: under `--batch` each
    /// job checkpoints into its own subdirectory so manifests never
    /// collide.
    fn recovery(&self, index: usize) -> RecoveryOpts {
        let checkpoint_dir = self.checkpoint_dir.as_ref().map(|base| {
            if self.batch {
                base.join(format!("job{}", index))
            } else {
                base.clone()
            }
        });
        RecoveryOpts {
            retry: if self.retries > 0 {
                RetryPolicy::retries(self.retries)
            } else {
                RetryPolicy::default()
            },
            checkpoint_dir,
            resume: self.resume,
            // Batch jobs run concurrently: keep each job's intermediate
            // APT in its own owned RAM store (shared-nothing) instead of
            // contending on temp files. A single grammar keeps the
            // paper-faithful disk profile.
            backing: if self.batch {
                Backing::Memory
            } else {
                Backing::Disk
            },
            engine: self.engine,
        }
    }
}

/// The value of an option that names a path or address (not a flag).
fn operand(value: Option<String>) -> String {
    match value {
        Some(v) if !v.starts_with('-') => v,
        _ => usage(),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: linguist GRAMMAR.lg [GRAMMAR2.lg ...] [--listing] [--stats] [--timings] \
         [--profile[=text|json]] [--emit pascal|rust] [--first-pass rl|lr] \
         [--opt[=on|off]] [--no-subsumption] [--coalesce] [--batch] [--jobs N] [--retries N] \
         [--checkpoint-dir DIR] [--resume] [--engine interpreted|aot]\n\
         \x20      linguist check GRAMMAR.lg [--format text|json] [--deny-warnings] \
         [--first-pass rl|lr] [--opt[=on|off]] [--no-subsumption] [--coalesce]\n\
         \x20      linguist codegen GRAMMAR.lg [--out DIR] [--first-pass rl|lr] \
         [--opt[=on|off]] [--no-subsumption] [--coalesce]\n\
         \x20      linguist serve [--socket PATH] [--tcp ADDR] [--workers N] [--queue N] \
         [--cache N] [--deadline-ms N] [--max-frame-bytes N] [--idle-timeout-ms N] \
         [--engine interpreted|aot] [--opt[=on|off]]\n\
         \x20      linguist router (--socket PATH | --tcp ADDR) --shard SPEC [--shard ...] \
         [--health-interval-ms N] [--probe-timeout-ms N] [--attempt-timeout-ms N] \
         [--max-attempts N] [--breaker-threshold N] [--breaker-cooldown-ms N]\n\
         \x20      linguist load (--socket PATH | --tcp ADDR) [--rate R] [--duration-ms N] \
         [--grammars N] [--budget N] [--senders N] [--deadline-ms N] [--retries N] [--json]\n\
         \x20      linguist client (--socket PATH | --tcp ADDR) [--timeout-ms N] [--retries N] \
         (load FILE [--scanner S] [--name N] | translate GRAMMAR \
         (--input TEXT | --input-file FILE | --budget N) [--deadline-ms N] | \
         check GRAMMAR | ping | stats | shutdown | raw JSON)"
    );
    std::process::exit(2);
}

/// The optimizer setting `--opt`, `--opt=on` or `--opt=off` names, or
/// `None` for any other argument.
fn opt_flag(a: &str) -> Option<bool> {
    match a {
        "--opt" | "--opt=on" => Some(true),
        "--opt=off" => Some(false),
        _ => None,
    }
}

/// Apply one analysis flag — `--first-pass rl|lr`, `--opt[=on|off]`,
/// `--no-subsumption` or `--coalesce` — to `config`, taking the flag's
/// value from `args`. The grammar, `check` and `codegen` commands parse
/// these here, starting from the library's [`Config::default`], so the
/// CLI has no defaults of its own. Returns `false` when `a` is not an
/// analysis flag.
fn analysis_flag(a: &str, args: &mut impl Iterator<Item = String>, config: &mut Config) -> bool {
    match a {
        "--first-pass" => match args.next().as_deref() {
            Some("rl") => config.pass.first_direction = Direction::RightToLeft,
            Some("lr") => config.pass.first_direction = Direction::LeftToRight,
            _ => usage(),
        },
        "--no-subsumption" => config.disable_subsumption = true,
        "--coalesce" => config.group_mode = GroupMode::CoalesceCopies,
        _ => match opt_flag(a) {
            Some(on) => config.optimize = on,
            None => return false,
        },
    }
    true
}

fn parse_args(args: Vec<String>) -> Cli {
    let mut cli = Cli {
        paths: Vec::new(),
        listing: false,
        stats: false,
        timings: false,
        profile: None,
        emit: None,
        config: Config::default(),
        batch: false,
        jobs: None,
        retries: 0,
        checkpoint_dir: None,
        resume: false,
        engine: EngineKind::Interpreted,
    };
    let mut args = args.into_iter().peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--listing" => cli.listing = true,
            "--stats" => cli.stats = true,
            "--timings" => cli.timings = true,
            // Accept both `--profile=json` and `--profile json`.
            "--profile" | "--profile=text" => {
                cli.profile = Some(ProfileFmt::Text);
                if a == "--profile" {
                    match args.peek().map(String::as_str) {
                        Some("json") => {
                            cli.profile = Some(ProfileFmt::Json);
                            args.next();
                        }
                        Some("text") => {
                            args.next();
                        }
                        _ => {}
                    }
                }
            }
            "--profile=json" => cli.profile = Some(ProfileFmt::Json),
            "--batch" => cli.batch = true,
            "--jobs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cli.jobs = Some(n),
                _ => usage(),
            },
            "--retries" => match args.next().and_then(|n| n.parse::<u32>().ok()) {
                Some(n) => cli.retries = n,
                None => usage(),
            },
            "--checkpoint-dir" => cli.checkpoint_dir = Some(operand(args.next()).into()),
            "--resume" => cli.resume = true,
            "--emit" => match args.next().as_deref() {
                Some("pascal") => cli.emit = Some(TargetOpt::Pascal),
                Some("rust") => cli.emit = Some(TargetOpt::Rust),
                _ => usage(),
            },
            "--engine" => match args.next().as_deref().and_then(EngineKind::parse) {
                Some(kind) => cli.engine = kind,
                None => usage(),
            },
            "--help" | "-h" => usage(),
            _ if analysis_flag(&a, &mut args, &mut cli.config) => {}
            _ if !a.starts_with('-') => cli.paths.push(a),
            _ => usage(),
        }
    }
    if cli.paths.is_empty() {
        usage();
    }
    if cli.paths.len() > 1 {
        cli.batch = true;
    }
    if cli.resume && cli.checkpoint_dir.is_none() {
        eprintln!("linguist: --resume requires --checkpoint-dir");
        usage();
    }
    if !cli.listing && !cli.timings && cli.emit.is_none() && cli.profile.is_none() {
        cli.stats = true;
    }
    cli
}

fn report(cli: &Cli, path: &str, index: usize, out: &DriverOutput, heading: bool) {
    if heading {
        println!("== {} ==", path);
    }
    if cli.stats {
        println!("{}", out.stats);
        let sub = out.analysis.subsumption.stats(&out.analysis.grammar);
        println!(
            "static subsumption:   {} attrs static, {}/{} copy-rules subsumed",
            sub.static_attrs, sub.subsumed_rules, sub.copy_rules
        );
    }
    if cli.timings {
        println!("{}", out.timings);
    }
    if cli.listing {
        println!("{}", out.listing);
    }
    if cli.emit.is_some() {
        print!("{}", out.generated.full_source());
    }
    if cli.profile == Some(ProfileFmt::Text) {
        let r = ProfileReport::collect_with(
            path,
            &out.analysis,
            &Funcs::standard(),
            DEFAULT_TREE_BUDGET,
            &cli.recovery(index),
        );
        print!("{}", r.render_text());
    }
}

/// `linguist check ...`: run the static-analysis lints over one grammar.
fn check_main(args: Vec<String>) -> ExitCode {
    let mut path = None;
    let mut json = false;
    let mut deny_warnings = false;
    let mut config = Config::default();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--format" => match args.next().as_deref() {
                Some("text") => json = false,
                Some("json") => json = true,
                _ => usage(),
            },
            "--format=text" => json = false,
            "--format=json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--help" | "-h" => usage(),
            _ if analysis_flag(&a, &mut args, &mut config) => {}
            _ if !a.starts_with('-') && path.is_none() => path = Some(a),
            _ => usage(),
        }
    }
    let path = path.unwrap_or_else(|| usage());
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("linguist check: cannot read {}: {}", path, e);
            return ExitCode::FAILURE;
        }
    };
    let report = check_source(&source, &config, &LintConfig::default());
    if json {
        println!("{}", report.to_json(&path));
    } else {
        print!("{}", report.render_text(&path));
    }
    let pass = if deny_warnings {
        report.clean_denying_warnings()
    } else {
        report.clean()
    };
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `linguist codegen ...`: write a grammar's generated evaluator crate
/// to disk — a standalone Rust binary crate, linking `linguist-eval`,
/// that reads a boundary-0 APT file on stdin and writes the root's
/// synthesized attributes on stdout. This is exactly the source the
/// compiled engine links for the bundled grammars.
fn codegen_main(args: Vec<String>) -> ExitCode {
    let mut path = None;
    let mut out: Option<PathBuf> = None;
    let mut config = Config::default();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out = Some(operand(args.next()).into()),
            "--help" | "-h" => usage(),
            _ if analysis_flag(&a, &mut args, &mut config) => {}
            _ if !a.starts_with('-') && path.is_none() => path = Some(a),
            _ => usage(),
        }
    }
    let path = path.unwrap_or_else(|| usage());
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("linguist codegen: cannot read {}: {}", path, e);
            return ExitCode::FAILURE;
        }
    };
    let analysis = match linguist_frontend::driver::analyze(&source, &config) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("linguist codegen: {}: {}", path, e);
            return ExitCode::FAILURE;
        }
    };
    // Crate name and default output directory from the grammar file stem
    // (sanitized to a valid package name).
    let stem = Path::new(&path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("grammar")
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect::<String>();
    let crate_name = format!("{}-evaluator", stem.trim_matches('-'));
    let out_dir = out.unwrap_or_else(|| PathBuf::from(&crate_name));
    let files = rustgen::crate_files(&analysis, &crate_name, true);
    for (rel, content) in &files {
        let target = out_dir.join(rel);
        if let Some(parent) = target.parent() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!(
                    "linguist codegen: cannot create {}: {}",
                    parent.display(),
                    e
                );
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = std::fs::write(&target, content) {
            eprintln!("linguist codegen: cannot write {}: {}", target.display(), e);
            return ExitCode::FAILURE;
        }
    }
    let evaluator = rustgen::rust_source(&analysis);
    println!(
        "wrote {} file(s) to {} ({} evaluator lines, content hash {})",
        files.len(),
        out_dir.display(),
        evaluator.lines().count(),
        rustgen::content_hash(evaluator.as_bytes()),
    );
    for (rel, _content) in &files {
        println!("  {}", out_dir.join(rel).display());
    }
    ExitCode::SUCCESS
}

/// `linguist serve ...`: run the resident translation service.
fn serve_main(args: Vec<String>) -> ExitCode {
    let mut cfg = ServerConfig::default();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--socket" => cfg.unix_path = Some(operand(args.next()).into()),
            "--tcp" => cfg.tcp_addr = Some(operand(args.next())),
            "--workers" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.workers = n,
                _ => usage(),
            },
            "--queue" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.queue_capacity = n,
                _ => usage(),
            },
            "--cache" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.cache_capacity = n,
                _ => usage(),
            },
            "--deadline-ms" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => cfg.default_deadline = Some(Duration::from_millis(n)),
                _ => usage(),
            },
            "--max-frame-bytes" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.max_frame_len = n,
                _ => usage(),
            },
            "--idle-timeout-ms" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(0) => cfg.idle_timeout = None,
                Some(n) => cfg.idle_timeout = Some(Duration::from_millis(n)),
                _ => usage(),
            },
            "--engine" => match args.next().as_deref().and_then(EngineKind::parse) {
                Some(kind) => cfg.engine.kind = kind,
                None => usage(),
            },
            _ => match opt_flag(&a) {
                Some(on) => cfg.config.optimize = on,
                None => usage(),
            },
        }
    }
    if cfg.unix_path.is_none() && cfg.tcp_addr.is_none() {
        eprintln!("linguist serve: give --socket PATH and/or --tcp ADDR");
        return ExitCode::from(2);
    }
    let handle = match Server::start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("linguist serve: {}", e);
            return ExitCode::FAILURE;
        }
    };
    if let Some(p) = handle.unix_path() {
        eprintln!("linguist serve: listening on unix {}", p.display());
    }
    if let Some(a) = handle.tcp_addr() {
        eprintln!("linguist serve: listening on tcp {}", a);
    }
    watch_for_termination("linguist serve", {
        let state = Arc::clone(handle.state());
        move || state.begin_drain()
    });
    handle.wait();
    let _unused = writeln!(std::io::stderr(), "linguist serve: shut down");
    ExitCode::SUCCESS
}

/// Spawn the SIGTERM/SIGINT watcher: when a termination signal lands,
/// log once and start draining (stop accepting, finish in-flight work).
/// The main thread is parked in `wait()` and unblocks when the drain
/// completes, so the process still exits 0.
fn watch_for_termination(who: &'static str, drain: impl FnOnce() + Send + 'static) {
    linguist_serve::signal::install_termination_handler();
    std::thread::Builder::new()
        .name("signal-watch".to_string())
        .spawn(move || {
            while !linguist_serve::signal::termination_requested() {
                std::thread::sleep(Duration::from_millis(50));
            }
            // `eprintln!` panics when stderr is closed, which would kill
            // this thread before the drain starts; a lost log line is not.
            let _unused = writeln!(std::io::stderr(), "{}: termination signal, draining", who);
            drain();
        })
        .expect("spawn signal watcher");
}

/// `linguist router ...`: front a fleet of shards.
fn router_main(args: Vec<String>) -> ExitCode {
    let mut cfg = RouterConfig::default();
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--socket" => cfg.unix_path = Some(operand(args.next()).into()),
            "--tcp" => cfg.tcp_addr = Some(operand(args.next())),
            "--shard" => match args.next().as_deref().map(ShardAddr::parse) {
                Some(Ok(spec)) => cfg.shards.push(spec),
                Some(Err(e)) => {
                    eprintln!("linguist router: bad --shard: {}", e);
                    return ExitCode::from(2);
                }
                None => usage(),
            },
            "--health-interval-ms" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => cfg.health_interval = Duration::from_millis(n),
                _ => usage(),
            },
            "--probe-timeout-ms" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => cfg.probe_timeout = Duration::from_millis(n),
                _ => usage(),
            },
            "--attempt-timeout-ms" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => cfg.attempt_timeout = Duration::from_millis(n),
                _ => usage(),
            },
            "--max-attempts" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.max_attempts = n,
                _ => usage(),
            },
            "--breaker-threshold" => match args.next().and_then(|n| n.parse::<u32>().ok()) {
                Some(n) if n >= 1 => cfg.breaker_threshold = n,
                _ => usage(),
            },
            "--breaker-cooldown-ms" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => cfg.breaker_cooldown = Duration::from_millis(n),
                _ => usage(),
            },
            _ => usage(),
        }
    }
    if cfg.unix_path.is_none() && cfg.tcp_addr.is_none() {
        eprintln!("linguist router: give --socket PATH and/or --tcp ADDR");
        return ExitCode::from(2);
    }
    if cfg.shards.is_empty() {
        eprintln!("linguist router: give at least one --shard SPEC");
        return ExitCode::from(2);
    }
    let handle = match Router::start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("linguist router: {}", e);
            return ExitCode::FAILURE;
        }
    };
    if let Some(p) = handle.unix_path() {
        eprintln!("linguist router: listening on unix {}", p.display());
    }
    if let Some(a) = handle.tcp_addr() {
        eprintln!("linguist router: listening on tcp {}", a);
    }
    for shard in handle.state().shards() {
        eprintln!("linguist router: shard {}", shard.addr_string());
    }
    watch_for_termination("linguist router", {
        let state = Arc::clone(handle.state());
        move || state.begin_drain()
    });
    handle.wait();
    let _unused = writeln!(std::io::stderr(), "linguist router: shut down");
    ExitCode::SUCCESS
}

/// `linguist load ...`: one open-loop load run.
fn load_main(args: Vec<String>) -> ExitCode {
    let mut cfg = LoadConfig::default();
    let mut target = None;
    let mut json = false;
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--socket" => target = Some(ShardAddr::Unix(operand(args.next()).into())),
            "--tcp" => target = Some(ShardAddr::Tcp(operand(args.next()))),
            "--rate" => match args.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(r) if r > 0.0 => cfg.rate = r,
                _ => usage(),
            },
            "--duration-ms" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => cfg.duration = Duration::from_millis(n),
                _ => usage(),
            },
            "--grammars" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.grammars = n,
                _ => usage(),
            },
            "--budget" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.budget = n,
                _ => usage(),
            },
            "--senders" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cfg.senders = n,
                _ => usage(),
            },
            "--deadline-ms" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => cfg.deadline_ms = Some(n),
                _ => usage(),
            },
            "--retries" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) => cfg.retries = n,
                _ => usage(),
            },
            "--json" => json = true,
            _ => usage(),
        }
    }
    cfg.target = target.unwrap_or_else(|| {
        eprintln!("linguist load: give --socket PATH or --tcp ADDR");
        std::process::exit(2);
    });
    let report = match run_load(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("linguist load: {}", e);
            return ExitCode::FAILURE;
        }
    };
    if json {
        println!("{}", report.to_json());
    } else {
        let ms = |q: Option<Duration>| {
            q.map_or("-".to_string(), |d| format!("{:.2}", d.as_secs_f64() * 1e3))
        };
        println!(
            "offered {:.0} rps for {:?}: {}/{} ok ({:.2}% success), \
             p50 {} ms, p99 {} ms, p999 {} ms, achieved {:.0} rps",
            report.offered_rps,
            cfg.duration,
            report.ok,
            report.sent,
            report.success_rate() * 100.0,
            ms(report.p50),
            ms(report.p99),
            ms(report.p999),
            report.achieved_rps(),
        );
        for (kind, n) in &report.failures_by_kind {
            println!("  failures[{}] = {}", kind, n);
        }
    }
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Exit codes for `linguist client`, so scripts can tell failure modes
/// apart without parsing stderr.
mod client_exit {
    /// The reply was `ok:false` (a typed server error).
    pub const SERVER_ERROR: u8 = 1;
    /// Could not connect, or the connection failed mid-request.
    pub const CONNECT: u8 = 3;
    /// The daemon accepted the request but no reply arrived in time.
    pub const TIMEOUT: u8 = 4;
}

/// `linguist client ...`: one request against a running daemon.
fn client_main(args: Vec<String>) -> ExitCode {
    let mut target: Option<ShardAddr> = None;
    let mut timeout: Option<Duration> = None;
    let mut retries = 0usize;
    let mut args = args.into_iter().peekable();
    // Options first, then the command word and its own arguments.
    while let Some(a) = args.peek().map(String::as_str) {
        match a {
            "--socket" => {
                args.next();
                target = Some(ShardAddr::Unix(operand(args.next()).into()));
            }
            "--tcp" => {
                args.next();
                target = Some(ShardAddr::Tcp(operand(args.next())));
            }
            "--timeout-ms" => {
                args.next();
                match args.next().and_then(|n| n.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => timeout = Some(Duration::from_millis(n)),
                    _ => usage(),
                }
            }
            "--retries" => {
                args.next();
                match args.next().and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) => retries = n,
                    None => usage(),
                }
            }
            _ => break,
        }
    }
    let target = target.unwrap_or_else(|| usage());
    let rest: Vec<String> = args.collect();
    // Build the request up front so every retry resends the same JSON.
    let request = match rest.first().map(String::as_str) {
        Some("load") => {
            let mut file = None;
            let mut scanner = None;
            let mut name = None;
            let mut it = rest[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--scanner" => scanner = it.next().cloned(),
                    "--name" => name = it.next().cloned(),
                    _ if !a.starts_with('-') && file.is_none() => file = Some(a.clone()),
                    _ => usage(),
                }
            }
            let file = file.unwrap_or_else(|| usage());
            let source = match std::fs::read_to_string(&file) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("linguist client: cannot read {}: {}", file, e);
                    return ExitCode::FAILURE;
                }
            };
            let mut obj = vec![
                ("op".to_string(), Json::str("load_grammar")),
                ("source".to_string(), Json::str(&source)),
            ];
            if let Some(s) = scanner {
                obj.push(("scanner".to_string(), Json::str(&s)));
            }
            if let Some(n) = name {
                obj.push(("name".to_string(), Json::str(&n)));
            }
            Json::Obj(obj)
        }
        Some("translate") => {
            let grammar = match rest.get(1) {
                Some(g) if !g.starts_with('-') => g.clone(),
                _ => usage(),
            };
            let mut input = None;
            let mut budget = None;
            let mut deadline = None;
            let mut it = rest[2..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--input" => input = it.next().cloned(),
                    "--input-file" => match it.next().map(std::fs::read_to_string) {
                        Some(Ok(text)) => input = Some(text),
                        _ => usage(),
                    },
                    "--budget" => budget = it.next().and_then(|n| n.parse::<usize>().ok()),
                    "--deadline-ms" => deadline = it.next().and_then(|n| n.parse::<u64>().ok()),
                    _ => usage(),
                }
            }
            let mut obj = vec![
                ("op".to_string(), Json::str("translate")),
                ("grammar".to_string(), Json::str(&grammar)),
            ];
            match (input, budget) {
                (Some(text), None) => obj.push(("input".to_string(), Json::str(&text))),
                (None, Some(n)) => obj.push(("budget".to_string(), Json::int(n as i64))),
                _ => usage(),
            }
            if let Some(d) = deadline {
                obj.push(("deadline_ms".to_string(), Json::int(d as i64)));
            }
            Json::Obj(obj)
        }
        Some("check") => {
            let grammar = match rest.get(1) {
                Some(g) if !g.starts_with('-') => g.clone(),
                _ => usage(),
            };
            Json::Obj(vec![
                ("op".to_string(), Json::str("check")),
                ("grammar".to_string(), Json::str(&grammar)),
            ])
        }
        Some("ping") => Json::Obj(vec![("op".to_string(), Json::str("ping"))]),
        Some("stats") => Json::Obj(vec![("op".to_string(), Json::str("stats"))]),
        Some("shutdown") => Json::Obj(vec![("op".to_string(), Json::str("shutdown"))]),
        Some("raw") => match rest.get(1) {
            Some(line) => match Json::parse(line) {
                Ok(req) => req,
                Err(e) => {
                    eprintln!("linguist client: request is not JSON: {}", e);
                    return ExitCode::FAILURE;
                }
            },
            None => usage(),
        },
        _ => usage(),
    };
    // Each attempt gets a fresh connection: after a transport failure
    // the old socket is unusable, and after a transient typed error a
    // reconnect lets a router re-route around the refusing shard.
    let mut last: (u8, String) = (client_exit::CONNECT, "no attempt made".to_string());
    for attempt in 0..=retries {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(10 << (attempt - 1).min(5)));
            eprintln!(
                "linguist client: retrying ({}/{}) after: {}",
                attempt, retries, last.1
            );
        }
        let mut client = match Client::connect(&target) {
            Ok(c) => c,
            Err(e) => {
                let diag = if e.kind() == std::io::ErrorKind::ConnectionRefused {
                    format!(
                        "connection refused at {} (daemon not running?): {}",
                        target, e
                    )
                } else {
                    format!("cannot connect to {}: {}", target, e)
                };
                last = (client_exit::CONNECT, diag);
                continue;
            }
        };
        if let Some(t) = timeout {
            if let Err(e) = client.set_timeouts(Some(t)) {
                eprintln!("linguist client: cannot arm timeout: {}", e);
                return ExitCode::FAILURE;
            }
        }
        match client.roundtrip(&request) {
            Ok(reply) => {
                let kind = reply
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str)
                    .unwrap_or("");
                if reply.get("ok").and_then(Json::as_bool) == Some(true) {
                    println!("{}", reply);
                    return ExitCode::SUCCESS;
                }
                if attempt < retries && linguist_serve::proto::retryable_kind(kind) {
                    last = (
                        client_exit::SERVER_ERROR,
                        format!("transient server error `{}`", kind),
                    );
                    continue;
                }
                println!("{}", reply);
                eprintln!("linguist client: server error `{}`", kind);
                return ExitCode::from(client_exit::SERVER_ERROR);
            }
            Err(e) => {
                let timed_out = matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                );
                last = if timed_out {
                    (
                        client_exit::TIMEOUT,
                        format!(
                            "no reply within {:?} from {}: {}",
                            timeout.unwrap_or_default(),
                            target,
                            e
                        ),
                    )
                } else {
                    (
                        client_exit::CONNECT,
                        format!("connection to {} failed mid-request: {}", target, e),
                    )
                };
            }
        }
    }
    eprintln!("linguist client: {}", last.1);
    ExitCode::from(last.0)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("check") => return check_main(argv.split_off(1)),
        Some("codegen") => return codegen_main(argv.split_off(1)),
        Some("serve") => return serve_main(argv.split_off(1)),
        Some("router") => return router_main(argv.split_off(1)),
        Some("load") => return load_main(argv.split_off(1)),
        Some("client") => return client_main(argv.split_off(1)),
        _ => {}
    }
    let cli = parse_args(argv);
    // Housekeeping: remove intermediate-APT scratch directories orphaned
    // by crashed runs (dead owning process, or older than a day).
    if let Ok(swept) = TempAptDir::sweep_stale(Duration::from_secs(24 * 60 * 60)) {
        if swept > 0 {
            eprintln!("linguist: swept {} stale APT scratch dir(s)", swept);
        }
    }
    let mut sources = Vec::with_capacity(cli.paths.len());
    for path in &cli.paths {
        match std::fs::read_to_string(path) {
            Ok(s) => sources.push(s),
            Err(e) => {
                eprintln!("linguist: cannot read {}: {}", path, e);
                return ExitCode::FAILURE;
            }
        }
    }
    let opts = DriverOptions {
        config: cli.config,
        target: cli.emit,
        engine: cli.engine,
    };

    if !cli.batch {
        let out = match run(&sources[0], &opts) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("linguist: {}: {}", cli.paths[0], e);
                return ExitCode::FAILURE;
            }
        };
        report(&cli, &cli.paths[0], 0, &out, false);
        if cli.profile == Some(ProfileFmt::Json) {
            let r = ProfileReport::collect_with(
                &cli.paths[0],
                &out.analysis,
                &Funcs::standard(),
                DEFAULT_TREE_BUDGET,
                &cli.recovery(0),
            );
            println!("{}", r.render_json());
        }
        return ExitCode::SUCCESS;
    }

    let workers = cli
        .jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let (results, stats) = run_batch(&refs, &opts, workers);
    let mut ok = true;
    // Jobs that produced no usable result: driver failures and — under
    // --profile=json, where the profile IS the product — profiled
    // evaluations that errored. A batch where every job lands here must
    // not exit 0.
    let mut failed_jobs = 0usize;
    let mut json_reports = Vec::new();
    // Anything report() would print belongs to the human; in JSON mode
    // only the JSON value may reach stdout.
    let human = cli.stats
        || cli.timings
        || cli.listing
        || cli.emit.is_some()
        || cli.profile == Some(ProfileFmt::Text);
    for (i, (path, result)) in cli.paths.iter().zip(&results).enumerate() {
        match result {
            Ok(out) => {
                if human {
                    report(&cli, path, i, out, true);
                }
                if cli.profile == Some(ProfileFmt::Json) {
                    let r = ProfileReport::collect_with(
                        path,
                        &out.analysis,
                        &Funcs::standard(),
                        DEFAULT_TREE_BUDGET,
                        &cli.recovery(i),
                    );
                    if r.eval_error.is_some() {
                        failed_jobs += 1;
                    }
                    json_reports.push(r.render_json());
                }
            }
            Err(e) => {
                ok = false;
                failed_jobs += 1;
                eprintln!("linguist: {}: {}", path, e);
            }
        }
    }
    // In JSON mode the batch summary is human-oriented: keep stdout
    // machine-clean by sending it to stderr.
    let summary = format!(
        "batch: {} grammar(s), {} failed ({} panicked), {} worker(s), {:?} wall, {:.1} grammars/sec",
        stats.jobs,
        stats.failed,
        stats.panicked,
        stats.workers,
        stats.wall,
        stats.jobs_per_sec()
    );
    if cli.profile == Some(ProfileFmt::Json) {
        println!("[{}]", json_reports.join(","));
        eprintln!("{}", summary);
    } else {
        println!("{}", summary);
    }
    if failed_jobs == cli.paths.len() {
        // Every job failed: never a success, whatever mode printed it.
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
