//! Shared helpers for the benchmark harness.
//!
//! Each bench target regenerates one table or figure of the paper's
//! evaluation (see DESIGN.md's experiment index E3–E14) and prints it in
//! the paper's format next to the original numbers, so EXPERIMENTS.md can
//! record paper-vs-measured side by side.

use linguist_frontend::driver::{run, DriverOptions, DriverOutput};
use linguist_support::json::Json;
use std::time::{Duration, Instant};

/// Run the driver, panicking with the error text on failure (bench
/// workloads are known-good).
pub fn analyze(source: &str, opts: &DriverOptions) -> DriverOutput {
    run(source, opts).unwrap_or_else(|e| panic!("bench grammar failed: {}", e))
}

/// The paper-faithful driver options: the grammar optimizer off, so the
/// paper's tables are regenerated on the grammar as the paper analyzed
/// it.
pub fn faithful() -> DriverOptions {
    let mut opts = DriverOptions::default();
    opts.config.optimize = false;
    opts
}

/// Median wall-clock duration of `f` over `n` runs.
pub fn median_time(n: usize, mut f: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Format a duration in microseconds with thousands separators.
pub fn us(d: Duration) -> String {
    let micros = d.as_micros();
    format!("{} us", micros)
}

/// Print a rule line.
pub fn rule(title: &str) {
    println!(
        "\n==== {} {}",
        title,
        "=".repeat(60usize.saturating_sub(title.len()))
    );
}

/// Write a machine-readable snapshot of a bench run to
/// `target/BENCH_<name>.json`, next to the cargo artifacts, and return
/// the path. `json` must already be a rendered JSON value — it is
/// checked against the shared [`linguist_support::json`] parser first,
/// so a malformed snapshot fails loudly in the bench instead of
/// silently poisoning downstream consumers. I/O failures are reported
/// but non-fatal: a read-only checkout still runs the bench.
pub fn write_snapshot(name: &str, json: &str) -> Option<std::path::PathBuf> {
    if let Err(e) = Json::parse(json) {
        panic!("snapshot {} is not valid JSON: {}", name, e);
    }
    // Benches run with the package directory as cwd; find the build's
    // real target dir by walking up from the running executable.
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .or_else(|| {
            let exe = std::env::current_exe().ok()?;
            exe.ancestors()
                .find(|p| p.file_name().is_some_and(|n| n == "target"))
                .map(std::path::Path::to_path_buf)
        })
        .unwrap_or_else(|| std::path::PathBuf::from("target"));
    let path = dir.join(format!("BENCH_{}.json", name));
    match std::fs::write(&path, json) {
        Ok(()) => {
            println!("snapshot: {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("snapshot {} not written: {}", path.display(), e);
            None
        }
    }
}
