//! Resilience of the sharded serve tier under open-loop load.
//!
//! Not a paper table — the original system is batch — but the
//! measurement that justifies the router: what does a shard failure
//! cost the *client*? For 1, 2, and 4 shards behind one router, offer
//! a fixed open-loop request rate twice — once steady, once with a
//! shard SIGKILL-equivalent (hard stop) partway through the run and a
//! restart before it ends — and record success rate and latency
//! measured from each request's scheduled arrival (coordinated-
//! omission-free, so time spent failing over *counts*).
//!
//! The expected shape, pinned by `BENCH_serve_resilience.json`:
//!
//! * steady runs succeed 100% at every shard count;
//! * with 2+ shards, the kill run *also* succeeds 100% — failover
//!   and retry absorb the failure, paying only tail latency;
//! * with 1 shard, the kill run shows a real outage window (typed
//!   `shard_unavailable` failures) until the shard returns and is
//!   re-admitted — the degradation ladder's floor.

use linguist_bench::{rule, write_snapshot};
use linguist_serve::load::{run_load, LoadConfig};
use linguist_serve::net::ShardAddr;
use linguist_serve::router::{Router, RouterConfig, RouterHandle};
use linguist_serve::server::{Server, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

const RATE: f64 = 150.0;
const DURATION: Duration = Duration::from_millis(1200);
const GRAMMARS: usize = 6;
const BUDGET: usize = 32;

fn sock_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "linguist-bench-resilience-{}-{}-{}.sock",
        tag,
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn start_shard(path: &Path) -> ServerHandle {
    Server::start(ServerConfig {
        unix_path: Some(path.to_path_buf()),
        workers: 2,
        queue_capacity: 64,
        ..ServerConfig::default()
    })
    .expect("shard starts")
}

fn start_router(shard_paths: &[PathBuf]) -> RouterHandle {
    Router::start(RouterConfig {
        unix_path: Some(sock_path("front")),
        shards: shard_paths
            .iter()
            .map(|p| ShardAddr::Unix(p.clone()))
            .collect(),
        health_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(250),
        attempt_timeout: Duration::from_millis(500),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
        breaker_cooldown: Duration::from_millis(100),
        ..RouterConfig::default()
    })
    .expect("router starts")
}

/// One load leg against a fresh topology. With `kill_one`, shard 0 is
/// hard-stopped at ~1/3 of the run and restarted at ~2/3.
fn leg(shards: usize, kill_one: bool) -> String {
    let paths: Vec<PathBuf> = (0..shards).map(|i| sock_path(&format!("s{}", i))).collect();
    let mut handles: Vec<ServerHandle> = paths.iter().map(|p| start_shard(p)).collect();
    let router = start_router(&paths);
    let target = ShardAddr::Unix(router.unix_path().expect("unix bound").to_path_buf());
    let chaos = kill_one.then(|| {
        let victim = handles.remove(0);
        let victim_path = paths[0].clone();
        std::thread::spawn(move || {
            std::thread::sleep(DURATION / 3);
            victim.shutdown();
            std::thread::sleep(DURATION / 3);
            start_shard(&victim_path)
        })
    });
    let report = run_load(&LoadConfig {
        target,
        rate: RATE,
        duration: DURATION,
        grammars: GRAMMARS,
        budget: BUDGET,
        senders: 4,
        ..LoadConfig::default()
    })
    .expect("load runs");
    if let Some(t) = chaos {
        handles.push(t.join().expect("chaos thread"));
    }
    println!(
        "  {} shard(s){}: {}/{} ok ({:.1}% success), p99 {:?}, p999 {:?}",
        shards,
        if kill_one { " +kill" } else { "" },
        report.ok,
        report.sent,
        report.success_rate() * 100.0,
        report.p99.unwrap_or_default(),
        report.p999.unwrap_or_default(),
    );
    router.shutdown();
    for h in handles {
        h.shutdown();
    }
    let body = report.to_json().to_string();
    // Splice the leg's identity into the report's own row shape.
    format!(
        "{{\"shards\":{},\"chaos\":{},{}",
        shards,
        if kill_one {
            "\"kill_one\""
        } else {
            "\"steady\""
        },
        body.strip_prefix('{').expect("object"),
    )
}

fn main() {
    rule("sharded serve tier: success rate and tail latency under faults");
    let mut rows = Vec::new();
    for shards in [1usize, 2, 4] {
        for kill_one in [false, true] {
            rows.push(leg(shards, kill_one));
        }
    }
    let json = format!("{{\"rows\":[{}]}}", rows.join(","));
    write_snapshot("serve_resilience", &json);
}
