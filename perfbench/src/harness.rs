//! What every workload shares: the closed unit loop, repeated set-up,
//! memory readings and the result record.

use crate::stats::Samples;
use crate::trace::{Summary, Tracer};
use linguist_ag::analysis::Config;
use linguist_frontend::driver::DriverOptions;
use linguist_support::json::Json;
use std::time::{Duration, Instant};

/// Set-up runs `SETUP_REPS` times before measuring; `setup_s` is the
/// median of all set-up times.
pub const SETUP_REPS: usize = 5;

/// Share of a closed-loop run spent repeating set-up between cycles. The
/// host's speed shifts every few seconds, so set-ups spread over the
/// whole run give a steadier median than a burst at its start.
const SETUP_SHARE: f64 = 0.1;

/// The share of the untraced unit time the named layers must cover.
pub const MIN_COVERAGE: f64 = 0.9;

/// The CLI's defaults, which every workload compiles with: optimizer
/// and static subsumption on.
pub fn cli_options() -> DriverOptions {
    DriverOptions {
        config: Config {
            optimize: true,
            ..Config::default()
        },
        ..DriverOptions::default()
    }
}

/// Command-line settings of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub samples: usize,
    pub metrics: Vec<(String, f64)>,
    /// Context printed on stderr and written to the results file.
    pub extras: Vec<(String, Json)>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    pub fn extra(&mut self, name: &str, value: Json) {
        self.extras.push((name.to_string(), value));
    }

    /// Fold a loop's attempt counts into the run's.
    pub fn count(&mut self, l: &Loop) {
        self.attempted += l.attempted;
        self.failed += l.failed;
        self.samples += l.samples();
    }
}

/// One timed unit: its duration, the input bytes it consumed, and
/// whether its output matched the reference.
pub struct Unit {
    pub ms: f64,
    pub bytes: usize,
    pub ok: bool,
}

/// The result of running a pool of units in whole cycles: every unit
/// time, kept per pool input.
#[derive(Debug)]
pub struct Loop {
    per_input: Vec<Samples>,
    input_bytes: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    cycles: u64,
}

impl Loop {
    fn new(pool: usize) -> Loop {
        Loop {
            per_input: vec![Samples::default(); pool],
            input_bytes: vec![0; pool],
            attempted: 0,
            failed: 0,
            cycles: 0,
        }
    }

    fn add(&mut self, i: usize, u: Unit) {
        self.per_input[i].push(u.ms);
        self.input_bytes[i] = u.bytes;
        self.attempted += 1;
        if !u.ok {
            self.failed += 1;
        }
    }

    /// Unit times measured.
    pub fn samples(&self) -> usize {
        self.per_input.iter().map(Samples::len).sum()
    }

    /// Each input's best time of the run (ms). The host's speed shifts
    /// by up to half every few seconds and contention only ever adds
    /// time, so an input's fastest repetition is the steady estimate of
    /// the program's own cost; latency percentiles are taken over these.
    pub fn best_ms(&mut self) -> Samples {
        self.per_input_best_ms().into_iter().collect()
    }

    /// Each input's best time of the run (ms), in pool order.
    pub fn per_input_best_ms(&mut self) -> Vec<f64> {
        self.per_input
            .iter_mut()
            .map(|s| s.percentile(0.0))
            .collect()
    }

    /// Input kilobytes (1000 bytes) per second, each input at its best
    /// time.
    pub fn kb_per_s(&mut self) -> f64 {
        let bytes: usize = self.input_bytes.iter().sum();
        bytes as f64 / 1e3 / (self.best_ms().sum() / 1e3)
    }

    /// Mean unit time in milliseconds, over every unit.
    pub fn ms_per_unit(&self) -> f64 {
        let total: f64 = self.per_input.iter().map(Samples::sum).sum();
        total / self.samples().max(1) as f64
    }
}

/// Run `unit(i)` over a pool of `pool` units, in whole cycles, until
/// `budget` has passed. Each unit times its own call into the program
/// and checks its own output. Between cycles, about [`SETUP_SHARE`] of
/// the run goes to repeating `setup`, timed into `setup_times` and
/// dropped.
pub fn cycles<T>(
    pool: usize,
    budget: Duration,
    setup_times: &mut Samples,
    mut setup: impl FnMut() -> Result<T, String>,
    mut unit: impl FnMut(usize) -> Unit,
) -> Result<Loop, String> {
    let start = Instant::now();
    let mut l = Loop::new(pool);
    let mut spent = 0.0;
    while l.cycles == 0 || start.elapsed() < budget {
        if spent < SETUP_SHARE * start.elapsed().as_secs_f64() {
            let t = Instant::now();
            drop(setup()?);
            let s = t.elapsed().as_secs_f64();
            setup_times.push(s);
            spent += s;
        }
        for i in 0..pool {
            l.add(i, unit(i));
        }
        l.cycles += 1;
    }
    Ok(l)
}

/// A traced run's two loops over the same pool: an untraced cycle, then
/// a traced one, and so on until `budget` has passed. Alternating makes
/// host contention hit the baseline and the traced cycles alike.
pub fn alternating(
    pool: usize,
    budget: Duration,
    mut untraced: impl FnMut(usize) -> Unit,
    mut traced: impl FnMut(usize) -> Unit,
) -> (Loop, Loop) {
    let start = Instant::now();
    let (mut base, mut tr) = (Loop::new(pool), Loop::new(pool));
    while base.cycles == 0 || start.elapsed() < budget {
        for i in 0..pool {
            base.add(i, untraced(i));
        }
        base.cycles += 1;
        for i in 0..pool {
            tr.add(i, traced(i));
        }
        tr.cycles += 1;
    }
    (base, tr)
}

/// Run `setup` [`SETUP_REPS`] times; keep the last result and return it
/// with every set-up time in seconds. Earlier results are dropped before
/// the next repetition starts.
pub fn timed_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Samples), String> {
    let mut times = Samples::default();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("SETUP_REPS > 0"), times))
}

/// `VmHWM` (peak resident set) of a process, in MB (10^6 bytes).
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{}/status", pid);
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{}: {}", path, e))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| format!("{}: no VmHWM line", path))
}

/// The end-to-end metrics every closed-loop workload reports.
pub fn end_to_end(
    out: &mut Outcome,
    setup_times: &mut Samples,
    l: &mut Loop,
) -> Result<(), String> {
    out.metric("setup_s", setup_times.percentile(50.0));
    out.extra(
        "setup_s_p0_p25_p50_p75_p100",
        Json::Arr(
            [0.0, 25.0, 50.0, 75.0, 100.0]
                .iter()
                .map(|&p| Json::Num(setup_times.percentile(p)))
                .collect(),
        ),
    );
    out.extra("setup_reps", Json::int(setup_times.len() as i64));
    let mut best = l.best_ms();
    out.metric("latency_p50_ms", best.percentile(50.0));
    out.metric("latency_p90_ms", best.percentile(90.0));
    out.metric("input_kb_per_s", l.kb_per_s());
    out.metric("peak_rss_mb", peak_rss_mb("self")?);
    out.count(l);
    Ok(())
}

/// The tracing summary metrics of a traced run: the untraced baseline
/// `baseline_ms` and the traced `traced_ms` are mean unit times over the
/// same pool. Fails, naming the gap, when the named layers cover less
/// than [`MIN_COVERAGE`] of the untraced unit time.
pub fn trace_metrics(
    out: &mut Outcome,
    summary: &Summary,
    baseline_ms: f64,
    traced_ms: f64,
) -> Result<(), String> {
    let attributed = summary.attributed_ms_per_unit();
    let coverage = attributed / baseline_ms;
    out.metric("trace.coverage", coverage);
    out.metric(
        "trace.unattributed_ms",
        summary.ms_per_unit(crate::trace::UNIT),
    );
    out.metric("trace.overhead_ms", traced_ms - baseline_ms);
    out.extra("dominant_layer", Json::str(summary.dominant_layer()));
    out.extra("dominant_module", Json::str(&summary.dominant_module()));
    out.extra("untraced_ms_per_unit", Json::Num(baseline_ms));
    out.extra("traced_ms_per_unit", Json::Num(traced_ms));
    eprintln!("per-layer self time (traced run):\n{}", summary.table());
    if coverage < MIN_COVERAGE {
        return Err(format!(
            "coverage check failed: named layers cover {:.1}% of the untraced unit time \
             ({:.4} of {:.4} ms/unit); the gap is {:.4} ms/unit of unattributed self time \
             plus {:.4} ms/unit of tracing overhead",
            100.0 * coverage,
            attributed,
            baseline_ms,
            summary.ms_per_unit(crate::trace::UNIT),
            traced_ms - baseline_ms
        ));
    }
    Ok(())
}

/// Self-test of a workload's correctness gate: one real unit run
/// against a deliberately corrupted reference must count as failed.
pub fn gate_self_test(workload: &str, unit: Unit) -> Result<(), String> {
    if unit.ok {
        return Err(format!(
            "{}: a unit checked against a corrupted reference was not counted as failed",
            workload
        ));
    }
    Ok(())
}

/// A copy of `reference` with its first byte flipped.
pub fn corrupt(reference: &[u8]) -> Vec<u8> {
    let mut bad = reference.to_vec();
    match bad.first_mut() {
        Some(b) => *b ^= 0x01,
        None => bad.push(0),
    }
    bad
}
