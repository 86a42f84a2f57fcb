//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `compile`, `translate_disk`, `translate_wide`, `serve_tcp`.
//! With `--trace 0` the last stdout line is one JSON object carrying
//! every end-to-end metric; with `--trace 1` it carries every per-layer
//! metric of a separate traced run. Human-readable context (host stamp,
//! sample counts, the per-layer table) goes to stderr, and the full
//! record plus the traced run's spans are written under the build
//! directory. Run through `perfbench/run.sh`, which builds the program
//! first.

mod compile;
mod harness;
mod inputs;
mod serve;
mod stats;
mod trace;
mod translate;

use harness::{Outcome, RunCfg};
use linguist_support::json::Json;
use std::path::PathBuf;
use translate::{Variant, BUILTINS};

/// The end-to-end metrics, as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("input_kb_per_s", "kB/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, as listed in `BENCHMARK.json` (the per-builtin
/// `eval.funcs.<name>_ms` rows are added from [`BUILTINS`]). A layer a
/// workload does not run reports 0.
const PER_LAYER: [(&str, &str); 58] = [
    ("frontend.lang_ms", "ms"),
    ("frontend.lower_ms", "ms"),
    ("frontend.listing_ms", "ms"),
    ("frontend.lang.lines", "count"),
    ("ag.implicit_ms", "ms"),
    ("ag.circularity_ms", "ms"),
    ("ag.dataflow_ms", "ms"),
    ("ag.passes_ms", "ms"),
    ("ag.lifetime_ms", "ms"),
    ("ag.subsumption_ms", "ms"),
    ("ag.plan_ms", "ms"),
    ("ag.lint_ms", "ms"),
    ("ag.implicit.rules", "count"),
    ("ag.dataflow.rewrites", "count"),
    ("ag.passes.count", "count"),
    ("ag.subsumption.subsumed", "count"),
    ("ag.lint.findings", "count"),
    ("codegen.generate_ms", "ms"),
    ("codegen.rustgen_ms", "ms"),
    ("codegen.rustgen.bytes", "bytes"),
    ("lalr.table_ms", "ms"),
    ("lalr.table.states", "count"),
    ("lalr.parse_ms", "ms"),
    ("eval.tree.nodes", "count"),
    ("lexgen.scan_ms", "ms"),
    ("lexgen.tokens", "count"),
    ("eval.machine_ms", "ms"),
    ("eval.pass_ms", "ms"),
    ("eval.rules", "count"),
    ("eval.passes", "count"),
    ("eval.peak_stack_bytes", "bytes"),
    ("eval.aptfile_ms", "ms"),
    ("eval.aptfile.records_written", "count"),
    ("eval.aptfile.bytes_written", "bytes"),
    ("eval.globals_ms", "ms"),
    ("eval.globals.checked", "count"),
    ("eval.globals.repaired", "count"),
    ("eval.funcs_ms", "ms"),
    ("eval.funcs.calls", "count"),
    ("engine.aot_ms", "ms"),
    ("engine.aot_share", "ratio"),
    ("engine.fallbacks", "count"),
    ("serve.rtt_p50_ms", "ms"),
    ("serve.rtt_p90_ms", "ms"),
    ("serve.transport_p50_ms", "ms"),
    ("serve.transport_p90_ms", "ms"),
    ("serve.pool.queue_p50_ms", "ms"),
    ("serve.pool.queue_p90_ms", "ms"),
    ("serve.job_p50_ms", "ms"),
    ("serve.job_p90_ms", "ms"),
    ("serve.store.compile_ms", "ms"),
    ("serve.store.hit_ratio", "ratio"),
    ("load.lateness_p90_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("host.nproc", "count"),
    ("run.samples", "count"),
];

fn usage() -> String {
    "usage: perfbench --workload compile|translate_disk|translate_wide|serve_tcp \
     --seed N --seconds S --trace 0|1"
        .to_string()
}

fn parse_args() -> Result<(String, RunCfg), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{} needs a value\n{}", flag, usage()))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage()),
                })
            }
            _ => return Err(format!("unknown flag {}\n{}", flag, usage())),
        }
    }
    let cfg = RunCfg {
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
    };
    Ok((workload.ok_or_else(usage)?, cfg))
}

/// Where results and spans are written: beside the build products.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.parent()
                .and_then(|d| d.parent())
                .map(|d| d.to_path_buf())
        })
        .unwrap_or_else(|| PathBuf::from("."))
        .join("perfbench-results")
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host and run stamp carried by every result.
fn stamp(workload: &str, cfg: &RunCfg, samples: usize) -> Json {
    Json::Obj(vec![
        ("workload".to_string(), Json::str(workload)),
        ("seed".to_string(), Json::Num(cfg.seed as f64)),
        ("seconds".to_string(), Json::Num(cfg.seconds)),
        ("trace".to_string(), Json::Bool(cfg.trace)),
        ("samples".to_string(), Json::int(samples as i64)),
        ("nproc".to_string(), Json::int(nproc() as i64)),
        (
            "rustc".to_string(),
            Json::str(&command_output("rustc", &["--version"])),
        ),
        (
            "git_rev".to_string(),
            Json::str(&command_output("git", &["rev-parse", "--short=12", "HEAD"])),
        ),
    ])
}

/// Check the workload's metrics against the declared lists and fill in
/// the per-layer rows the workload does not run.
fn metrics_json(out: &Outcome, trace: bool) -> Result<Json, String> {
    let mut declared: Vec<(String, &str)> = if trace {
        PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(
                BUILTINS
                    .iter()
                    .map(|b| (format!("eval.funcs.{}_ms", b), "ms")),
            )
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    for (name, _) in &out.metrics {
        if !declared.iter().any(|(d, _)| d == name) {
            return Err(format!("metric {} is not declared", name));
        }
    }
    let mut fields = Vec::new();
    for (name, unit) in declared.drain(..) {
        let value = out
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v);
        let value = match (value, trace) {
            (Some(v), _) if v.is_finite() => v,
            (Some(v), _) => return Err(format!("metric {} is not finite: {}", name, v)),
            (None, true) => 0.0,
            (None, false) => return Err(format!("end-to-end metric {} missing", name)),
        };
        fields.push((
            name,
            Json::Obj(vec![
                ("value".to_string(), Json::Num(value)),
                ("unit".to_string(), Json::str(unit)),
            ]),
        ));
    }
    Ok(Json::Obj(fields))
}

fn run() -> Result<(), String> {
    let (workload, cfg) = parse_args()?;
    stats::self_test()?;
    let mut out = match workload.as_str() {
        "compile" => compile::run_workload(&cfg)?,
        "translate_disk" => translate::run_workload(Variant::Disk, &cfg)?,
        "translate_wide" => translate::run_workload(Variant::Wide, &cfg)?,
        "serve_tcp" => serve::run_workload(&cfg)?,
        other => return Err(format!("unknown workload {}\n{}", other, usage())),
    };
    if out.attempted == 0 {
        return Err("no unit was attempted".to_string());
    }
    if cfg.trace {
        out.metric("host.nproc", nproc() as f64);
        out.metric("run.samples", out.samples as f64);
    }
    let stamp = stamp(&workload, &cfg, out.samples);
    let metrics = metrics_json(&out, cfg.trace)?;
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(out.failed == 0)),
        ("attempted".to_string(), Json::int(out.attempted as i64)),
        ("failed".to_string(), Json::int(out.failed as i64)),
        ("metrics".to_string(), metrics),
    ]);

    eprintln!("stamp: {}", stamp);
    eprintln!(
        "failed_frac: {} ({} of {} units)",
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    );
    for (k, v) in &out.extras {
        eprintln!("{}: {}", k, v);
    }
    let dir = out_dir();
    let tag = format!("{}-seed{}-trace{}", workload, cfg.seed, u8::from(cfg.trace));
    let mut record = vec![
        ("stamp".to_string(), stamp.clone()),
        ("result".to_string(), result.clone()),
    ];
    record.append(&mut out.extras);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {}", dir.display(), e))?;
    let path = dir.join(format!("{}.json", tag));
    std::fs::write(&path, format!("{}\n", Json::Obj(record)))
        .map_err(|e| format!("{}: {}", path.display(), e))?;
    if let Some(tracer) = &out.tracer {
        let path = dir.join(format!("{}-spans.json", tag));
        tracer
            .write(&path, &stamp.to_string())
            .map_err(|e| format!("{}: {}", path.display(), e))?;
        eprintln!("spans: {}", path.display());
    }
    println!("{}", result);
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {}", e);
        std::process::exit(1);
    }
}
