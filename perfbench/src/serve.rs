//! `serve_tcp`: the release `linguist serve` daemon over loopback TCP,
//! with the AOT engine and two workers, driven open-loop.
//!
//! Set-up spawns the daemon, loads the five bundled grammars with their
//! scanners, and computes each request's reference output with the
//! in-process interpreter under the options a daemon job uses. The run
//! then offers `translate` requests with inline inputs of at most 2 KB
//! from two sender threads over two persistent connections:
//!
//! 1. a fixed rate ([`FIXED_RPS`]) for the latency samples, then
//! 2. a rate ladder for `max_rps_at_slo`: the highest offered rate whose
//!    p90 latency stays under [`SLO_P90_MS`] with no wrong or failed
//!    reply and no growing backlog. Rungs double from [`LADDER_START`]
//!    up to the first rung that misses the limit, then bisect until the
//!    answer resolves finer than a tenth.
//!
//! Every latency is timed from the request's scheduled send time, so a
//! stalled connection also charges the requests queued behind it; how
//! late the generator itself sent is reported as `load.lateness`.

use crate::harness::{self, Outcome, RunCfg, SETUP_REPS};
use crate::inputs::{self, Rng};
use crate::stats::Samples;
use crate::trace::{Tracer, UNIT};
use crate::translate::{self, Variant};
use linguist_engine::{Engine, EngineConfig, EngineKind};
use linguist_eval::funcs::Funcs;
use linguist_eval::machine::{evaluate, EvalOptions};
use linguist_frontend::{standard_intrinsics, Translator};
use linguist_serve::client::Client;
use linguist_support::intern::NameTable;
use linguist_support::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Sender threads, one persistent connection each.
const SENDERS: usize = 2;
/// The frozen latency limit for `max_rps_at_slo`, on p90.
pub const SLO_P90_MS: f64 = 150.0;
/// Offered rate of the latency phase.
const FIXED_RPS: f64 = 16.0;
/// Share of the run spent on the latency phase.
const FIXED_SHARE: f64 = 0.4;
/// First rung of the rate ladder, and the most rungs a run measures.
const LADDER_START: f64 = 2.0;
const MAX_RUNGS: usize = 14;
/// Requests per grammar in the pool, and the inline input size cap.
const PER_GRAMMAR: usize = 8;
const MAX_INPUT_BYTES: usize = 2048;
/// How long a connection may wait for one reply; with the early stop on
/// a failed reply, a hung daemon cannot hold the run past its deadline.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// The child daemon. Dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    addr: String,
    log: PathBuf,
}

impl Daemon {
    fn spawn(exe: &Path) -> Result<Daemon, String> {
        static SPAWNED: AtomicUsize = AtomicUsize::new(0);
        let log = std::env::temp_dir().join(format!(
            "perfbench-daemon-{}-{}.log",
            std::process::id(),
            SPAWNED.fetch_add(1, Ordering::Relaxed)
        ));
        let stderr =
            std::fs::File::create(&log).map_err(|e| format!("{}: {}", log.display(), e))?;
        let child = Command::new(exe)
            .args([
                "serve",
                "--tcp",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--engine",
                "aot",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {}", exe.display(), e))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            log,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let text = std::fs::read_to_string(&daemon.log).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.split("listening on tcp ").nth(1))
            {
                daemon.addr = addr.trim().to_string();
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!(
                    "daemon exited during start-up ({}): {}",
                    status, text
                ));
            }
            if Instant::now() > deadline {
                return Err("daemon did not report its TCP address".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn connect(&self) -> Result<Client, String> {
        let mut c = Client::connect_tcp(self.addr.as_str()).map_err(|e| e.to_string())?;
        c.set_timeouts(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(c)
    }

    /// Ask the daemon to shut down and wait for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let mut c = self.connect()?;
        c.shutdown().map_err(|e| e.to_string())?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not exit after shutdown".to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.log);
    }
}

/// One request of the pool.
struct Request {
    grammar: usize,
    text: String,
    /// Root outputs `(attribute, value)` from the in-process interpreter.
    reference: Vec<(String, String)>,
}

struct Setup {
    daemon: Daemon,
    clients: Vec<Client>,
    handles: Vec<String>,
    requests: Vec<Request>,
    compile_ms: f64,
    /// In-process translators, for the traced run's AOT probe.
    langs: Vec<(Translator, EvalOptions)>,
}

/// The seeded request pool: `(grammar index, input text)`.
fn generate(seed: u64) -> Vec<(usize, String)> {
    use linguist_grammars as lg;
    let mut rng = Rng::new(seed, "serve");
    let mut pool = Vec::new();
    for i in 0..PER_GRAMMAR {
        let n = PER_GRAMMAR;
        pool.push((0, inputs::calc_expr(&mut rng, inputs::ladder(i, n, 5, 40))));
        let bits = inputs::ladder(i, n, 4, 30);
        let frac = rng.range(0, 8);
        pool.push((1, inputs::knuth_numeral(&mut rng, bits, frac)));
        pool.push((
            2,
            lg::block_program(inputs::ladder(i, n, 2, 6), rng.range(2, 3)),
        ));
        let vars = inputs::ladder(i, n, 2, 8);
        pool.push((3, lg::pascal_program(vars, rng.range(5, 20))));
        let meta = match i {
            0 => lg::calc_source().to_string(),
            1 => lg::knuth_source().to_string(),
            _ => {
                let inherited = inputs::ladder(i - 2, n - 2, 1, 3);
                inputs::synth_source(&mut rng, inherited, inherited + 1)
            }
        };
        pool.push((4, meta));
    }
    pool
}

fn linguist_exe() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let cli = exe
        .parent()
        .map(|d| d.join("linguist"))
        .ok_or("benchmark executable has no directory")?;
    if !cli.exists() {
        return Err(format!(
            "{} not found: build it with `cargo build --release -p linguist-serve --bin linguist`",
            cli.display()
        ));
    }
    Ok(cli)
}

fn setup(seed: u64, funcs: &Funcs) -> Result<Setup, String> {
    let daemon = Daemon::spawn(&linguist_exe()?)?;
    let mut clients = (0..SENDERS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let mut handles = Vec::new();
    let mut compile_ms = 0.0;
    let mut langs = Vec::new();
    for name in inputs::BUNDLED {
        let (source, _) = inputs::bundled(name);
        let reply = clients[0]
            .load_grammar(source, Some(name), Some(name))
            .map_err(|e| e.to_string())?;
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("load_grammar {}: {}", name, reply));
        }
        handles.push(
            reply
                .get("grammar")
                .and_then(Json::as_str)
                .ok_or("load reply without a handle")?
                .to_string(),
        );
        compile_ms += reply
            .get("compile_ms")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let translator = translate::translator(name)?;
        let opts = translate::options(Variant::Wide, translator.analysis.passes.direction(1));
        langs.push((translator, opts));
    }
    let mut requests = Vec::new();
    for (grammar, text) in generate(seed) {
        if text.len() > MAX_INPUT_BYTES {
            return Err(format!("generated input of {} bytes", text.len()));
        }
        let (translator, opts) = &langs[grammar];
        let mut names = NameTable::new();
        let tree = translator
            .parse_input(&text, &standard_intrinsics, &mut names)
            .map_err(|e| format!("generated input does not parse: {}", e))?;
        let eval = evaluate(&translator.analysis, funcs, &tree, opts)
            .map_err(|e| format!("reference evaluation failed: {}", e))?;
        let g = &translator.analysis.grammar;
        let reference = eval
            .outputs
            .iter()
            .map(|(a, v)| (g.attr_name(*a).to_string(), v.to_string()))
            .collect();
        requests.push(Request {
            grammar,
            text,
            reference,
        });
    }
    Ok(Setup {
        daemon,
        clients,
        handles,
        requests,
        compile_ms,
        langs,
    })
}

/// One request as the generator saw it. Times are milliseconds from the
/// phase start.
#[derive(Clone, Debug)]
struct Sent {
    due: f64,
    sent: f64,
    done: f64,
    ok: bool,
    wall_ms: f64,
    queue_ms: f64,
}

impl Sent {
    fn latency(&self) -> f64 {
        self.done - self.due
    }
}

/// Whether a reply carries exactly the reference outputs.
fn reply_matches(reply: &Json, reference: &[(String, String)]) -> bool {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return false;
    }
    let Some(Json::Obj(outputs)) = reply.get("outputs") else {
        return false;
    };
    outputs.len() == reference.len()
        && outputs
            .iter()
            .zip(reference)
            .all(|((k, v), (rk, rv))| k == rk && v.as_str() == Some(rv.as_str()))
}

/// Send one request and time it from `due`.
fn send(
    client: &mut Client,
    s: &SetupView<'_>,
    r: &Request,
    reference: &[(String, String)],
    origin: Instant,
    due: f64,
) -> Sent {
    let sent = origin.elapsed().as_secs_f64() * 1e3;
    let reply = client.translate_input(&s.handles[r.grammar], &r.text, None);
    let done = origin.elapsed().as_secs_f64() * 1e3;
    let (ok, wall_ms, queue_ms) = match reply {
        Ok(j) => (
            reply_matches(&j, reference),
            j.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0),
            j.get("queue_ms").and_then(Json::as_f64).unwrap_or(0.0),
        ),
        Err(e) => {
            eprintln!("serve request: {}", e);
            (false, 0.0, 0.0)
        }
    };
    Sent {
        due,
        sent,
        done,
        ok,
        wall_ms,
        queue_ms,
    }
}

/// The parts of [`Setup`] sender threads share.
struct SetupView<'a> {
    handles: &'a [String],
    requests: &'a [Request],
}

/// Offer `rate` requests per second for `duration`, open loop: request
/// `j` is due at `j / rate` and goes out on connection `j % SENDERS` as
/// soon as that connection is free. A failed or wrong reply stops the
/// phase early, and so, with `abort_after_ms`, does a request whose
/// latency passes that limit (the rung has already failed).
fn phase(
    clients: &mut [Client],
    s: &SetupView<'_>,
    rate: f64,
    duration: Duration,
    first: usize,
    abort_after_ms: Option<f64>,
) -> Vec<Sent> {
    let n = ((rate * duration.as_secs_f64()).round() as usize).max(1);
    let origin = Instant::now();
    let abort = AtomicBool::new(false);
    let mut all = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                let abort = &abort;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for j in (k..n).step_by(SENDERS) {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let due = j as f64 * 1e3 / rate;
                        let wait = due - origin.elapsed().as_secs_f64() * 1e3;
                        if wait > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(wait / 1e3));
                        }
                        let r = &s.requests[(first + j) % s.requests.len()];
                        let sent = send(client, s, r, &r.reference, origin, due);
                        if !sent.ok || abort_after_ms.is_some_and(|limit| sent.latency() > limit) {
                            abort.store(true, Ordering::Relaxed);
                        }
                        mine.push(sent);
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("sender thread panicked"));
        }
    });
    all.sort_by(|a, b| a.due.total_cmp(&b.due));
    all
}

/// Whether a ladder rung met the limit: every reply correct, p90 under
/// the limit, and no growing backlog (the last quarter's p90 also under
/// it). An aborted rung sent fewer requests than scheduled and fails.
fn rung_passes(sents: &[Sent], scheduled: usize) -> bool {
    if sents.len() < scheduled || sents.iter().any(|s| !s.ok) {
        return false;
    }
    let mut all: Samples = sents.iter().map(Sent::latency).collect();
    let mut tail: Samples = sents[sents.len() * 3 / 4..]
        .iter()
        .map(Sent::latency)
        .collect();
    all.percentile(90.0) <= SLO_P90_MS && tail.percentile(90.0) <= SLO_P90_MS
}

/// The rate search. Returns the highest passing rate and every request
/// sent.
fn ladder(clients: &mut [Client], s: &SetupView<'_>, budget: Duration) -> (f64, Vec<Sent>) {
    let start = Instant::now();
    let rung = budget / MAX_RUNGS as u32;
    let mut sent = Vec::new();
    let mut lo = 0.0;
    let mut hi = None;
    let mut rate = LADDER_START;
    let mut rungs = 0;
    while rungs < MAX_RUNGS && start.elapsed() < budget {
        rungs += 1;
        let scheduled = ((rate * rung.as_secs_f64()).round() as usize).max(1);
        let r = phase(clients, s, rate, rung, sent.len(), Some(4.0 * SLO_P90_MS));
        let pass = rung_passes(&r, scheduled);
        let mut latency: Samples = r.iter().map(Sent::latency).collect();
        eprintln!(
            "  rung {:>8.2} rps: {} ({} requests, p50 {:.2} ms, p90 {:.2} ms)",
            rate,
            if pass {
                "meets the limit"
            } else {
                "misses the limit"
            },
            r.len(),
            latency.percentile(50.0),
            latency.percentile(90.0)
        );
        sent.extend(r);
        if pass {
            lo = rate;
        } else {
            hi = Some(rate);
        }
        match hi {
            None => rate *= 2.0,
            Some(h) if h - lo > lo / 10.0 => rate = (lo + h) / 2.0,
            Some(_) => break,
        }
    }
    (lo, sent)
}

/// Counters from the daemon's `stats` reply.
#[derive(Default)]
struct Counters {
    hits: f64,
    misses: f64,
    translates: f64,
    aot_runs: f64,
    fallbacks: f64,
}

fn counters(client: &mut Client) -> Result<Counters, String> {
    let j = client.stats().map_err(|e| e.to_string())?;
    let num = |section: &str, key: &str| {
        j.get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("stats reply has no {}.{}", section, key))
    };
    Ok(Counters {
        hits: num("cache", "hits")?,
        misses: num("cache", "misses")?,
        translates: num("requests", "translates")?,
        aot_runs: num("engine", "aot_runs")?,
        fallbacks: num("engine", "fallbacks")?,
    })
}

pub fn run_workload(cfg: &RunCfg) -> Result<Outcome, String> {
    let funcs = Funcs::standard();
    let (mut s, mut setup_times) = harness::timed_setup(|| setup(cfg.seed, &funcs))?;
    let mut out = Outcome::default();
    let before = counters(&mut s.clients[0])?;
    let view = SetupView {
        handles: &s.handles,
        requests: &s.requests,
    };

    // Self-test of the correctness gate: a corrupted reference must
    // count as a failure.
    let r0 = &s.requests[0];
    let mut bad = r0.reference.clone();
    if let Some((_, v)) = bad.first_mut() {
        v.push('~');
    }
    let probe = send(&mut s.clients[0], &view, r0, &bad, Instant::now(), 0.0);
    harness::gate_self_test(
        "serve_tcp",
        harness::Unit {
            ms: probe.latency(),
            bytes: r0.text.len(),
            ok: probe.ok,
        },
    )?;

    let fixed = Duration::from_secs_f64(cfg.seconds * FIXED_SHARE);
    let mut all_sent: Vec<Sent>;
    if !cfg.trace {
        let latency_phase = phase(&mut s.clients, &view, FIXED_RPS, fixed, 0, None);
        let budget = Duration::from_secs_f64(cfg.seconds * (1.0 - FIXED_SHARE));
        let (max_rps, rungs) = ladder(&mut s.clients, &view, budget);
        let mut latency: Samples = latency_phase.iter().map(Sent::latency).collect();
        let mean_kb = s.requests.iter().map(|r| r.text.len()).sum::<usize>() as f64
            / s.requests.len() as f64
            / 1e3;
        out.metric("setup_s", setup_times.percentile(50.0));
        out.metric("latency_p50_ms", latency.percentile(50.0));
        out.metric("latency_p90_ms", latency.percentile(90.0));
        out.metric("input_kb_per_s", max_rps * mean_kb);
        out.metric(
            "peak_rss_mb",
            harness::peak_rss_mb(&s.daemon.child.id().to_string())?,
        );
        out.extra("max_rps_at_slo", Json::Num(max_rps));
        out.extra("slo_p90_ms", Json::Num(SLO_P90_MS));
        out.extra("fixed_rps", Json::Num(FIXED_RPS));
        out.extra("mean_request_kb", Json::Num(mean_kb));
        let mut lateness: Samples = latency_phase.iter().map(|x| x.sent - x.due).collect();
        out.extra("load.lateness_p90_ms", Json::Num(lateness.percentile(90.0)));
        out.samples += latency.len();
        all_sent = latency_phase;
        all_sent.extend(rungs);
    } else {
        let baseline = phase(&mut s.clients, &view, FIXED_RPS, fixed, 0, None);
        let traced_len = Duration::from_secs_f64(cfg.seconds * (1.0 - FIXED_SHARE));
        let traced = phase(
            &mut s.clients,
            &view,
            FIXED_RPS,
            traced_len,
            baseline.len(),
            None,
        );
        let tracer = trace_requests(&traced);
        let summary = tracer.summary();
        let mean = |v: &[Sent]| v.iter().map(Sent::latency).sum::<f64>() / v.len().max(1) as f64;
        let col = |f: fn(&Sent) -> f64| -> Samples { traced.iter().map(f).collect() };
        let mut rtt = col(|x| x.done - x.sent);
        let mut transport = col(|x| x.done - x.sent - x.wall_ms);
        let mut queue = col(|x| x.queue_ms);
        let mut job = col(|x| x.wall_ms - x.queue_ms);
        let mut lateness = col(|x| x.sent - x.due);
        for (name, samples) in [
            ("serve.rtt", &mut rtt),
            ("serve.transport", &mut transport),
            ("serve.pool.queue", &mut queue),
            ("serve.job", &mut job),
        ] {
            out.metric(format!("{}_p50_ms", name), samples.percentile(50.0));
            out.metric(format!("{}_p90_ms", name), samples.percentile(90.0));
        }
        out.metric("load.lateness_p90_ms", lateness.percentile(90.0));
        out.metric(
            "serve.store.compile_ms",
            s.compile_ms / inputs::BUNDLED.len() as f64,
        );
        let after = counters(&mut s.clients[0])?;
        let lookups = (after.hits - before.hits) + (after.misses - before.misses);
        out.metric(
            "serve.store.hit_ratio",
            (after.hits - before.hits) / lookups.max(1.0),
        );
        out.metric(
            "engine.aot_share",
            (after.aot_runs - before.aot_runs) / (after.translates - before.translates).max(1.0),
        );
        out.metric("engine.fallbacks", after.fallbacks - before.fallbacks);
        out.metric("engine.aot_ms", aot_probe(&s, &funcs)?);
        harness::trace_metrics(&mut out, &summary, mean(&baseline), mean(&traced))?;
        out.tracer = Some(tracer);
        out.samples += traced.len() + baseline.len();
        all_sent = baseline;
        all_sent.extend(traced);
    }
    out.attempted += all_sent.len() as u64;
    out.failed += all_sent.iter().filter(|x| !x.ok).count() as u64;
    s.daemon.stop()?;
    Ok(out)
}

/// Spans of the traced phase, built from each request's timestamps and
/// the reply's own `wall_ms`/`queue_ms`: the request's unit span holds
/// the generator's lateness and the round trip; inside the round trip,
/// the daemon's queue wait and job time, so the round trip's self time
/// is the transport.
fn trace_requests(sents: &[Sent]) -> Tracer {
    let mut t = Tracer::new();
    let origin = Instant::now();
    let at = |ms: f64| origin + Duration::from_secs_f64(ms.max(0.0) / 1e3);
    let span = |ms: f64| Duration::from_secs_f64(ms.max(0.0) / 1e3);
    for (u, x) in sents.iter().enumerate() {
        let u = u as u64;
        let root = t.record(UNIT, None, u, at(x.due), span(x.done - x.due), 1);
        t.record(
            "load.lateness",
            Some(root),
            u,
            at(x.due),
            span(x.sent - x.due),
            1,
        );
        let rtt = t.record(
            "serve.transport",
            Some(root),
            u,
            at(x.sent),
            span(x.done - x.sent),
            1,
        );
        t.record(
            "serve.pool.queue",
            Some(rtt),
            u,
            at(x.sent),
            span(x.queue_ms),
            1,
        );
        t.record(
            "serve.job",
            Some(rtt),
            u,
            at(x.sent + x.queue_ms),
            span(x.wall_ms - x.queue_ms),
            1,
        );
    }
    t
}

/// Mean time of the in-process AOT evaluator on the pool's trees.
fn aot_probe(s: &Setup, funcs: &Funcs) -> Result<f64, String> {
    let engine = Engine::new(EngineConfig {
        kind: EngineKind::CompiledAot,
        ..EngineConfig::default()
    });
    let prepared: Vec<_> = s
        .langs
        .iter()
        .map(|(t, _)| engine.prepare(&t.analysis))
        .collect();
    let mut total = 0.0;
    for _ in 0..SETUP_REPS {
        for r in &s.requests {
            let (translator, opts) = &s.langs[r.grammar];
            let mut names = NameTable::new();
            let tree = translator
                .parse_input(&r.text, &standard_intrinsics, &mut names)
                .map_err(|e| e.to_string())?;
            let t = Instant::now();
            let o = engine.evaluate(
                &prepared[r.grammar],
                &translator.analysis,
                funcs,
                &tree,
                opts,
            );
            total += t.elapsed().as_secs_f64() * 1e3;
            if o.fallback.is_some() {
                return Err(format!("AOT probe fell back: {:?}", o.fallback));
            }
        }
    }
    Ok(total / (SETUP_REPS * s.requests.len()) as f64)
}
