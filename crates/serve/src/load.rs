//! An open-loop load generator for the serve topology.
//!
//! Closed-loop load tests (send, wait, send) lie about tail latency:
//! when the service slows down, the generator slows down with it, and
//! the backlog a real user population would have piled up never
//! happens ("coordinated omission"). This generator is **open-loop**:
//! request `i` of a `rate`-per-second run has a *scheduled* arrival
//! time `start + i/rate` that does not care how the service is doing,
//! and its recorded latency runs from that scheduled arrival to the
//! reply — so time spent waiting behind a backlog counts, exactly as a
//! user would experience it.
//!
//! The generator preloads a configurable number of distinct grammar
//! variants (spreading keys across the ring when pointed at a router)
//! and then drives `translate` requests with synthetic-tree budgets
//! over persistent connections, reconnecting on transport failure.

use linguist_support::json::Json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::client::Client;
use crate::hist::LatencyHistogram;
use crate::net::ShardAddr;
use crate::proto::retryable_kind;

/// The grammar the generator drives: scanner-free (requests use
/// `budget`, so any topology can run it) and cheap enough to evaluate
/// thousands of times per second.
const LOAD_GRAMMAR: &str = r#"
grammar Load ;
terminals  x : intrinsic OBJ int ;
nonterminals  s : syn V int ;
start s ;
productions
prod s0 = s1 x :
  s0.V = s1.V + x.OBJ ;
end
prod s0 = x :
  s0.V = x.OBJ ;
end
end
"#;

/// A distinct-by-content-hash variant of the load grammar. Variant 0
/// is the base text.
pub fn grammar_variant(i: usize) -> String {
    format!("{}{}", LOAD_GRAMMAR, "\n".repeat(i))
}

/// One load run's shape.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Where to send traffic (a router or a bare shard).
    pub target: ShardAddr,
    /// Offered load, requests per second.
    pub rate: f64,
    /// How long to offer it.
    pub duration: Duration,
    /// Distinct grammar variants to preload and cycle through.
    pub grammars: usize,
    /// Synthetic-tree budget per translate.
    pub budget: usize,
    /// Sender threads (each holds one persistent connection).
    pub senders: usize,
    /// Optional per-request deadline forwarded to the service.
    pub deadline_ms: Option<u64>,
    /// Client-side resends per request on transport failure or a
    /// transient typed error. 0 = measure the topology's own retries.
    pub retries: usize,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            target: ShardAddr::Tcp("127.0.0.1:0".to_string()),
            rate: 50.0,
            duration: Duration::from_secs(1),
            grammars: 4,
            budget: 48,
            senders: 4,
            deadline_ms: None,
            retries: 0,
        }
    }
}

/// What one run measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// The configured offered load.
    pub offered_rps: f64,
    /// Requests actually sent.
    pub sent: u64,
    /// `ok:true` replies.
    pub ok: u64,
    /// Everything else (typed errors and transport failures).
    pub failed: u64,
    /// Failure counts by `error.kind` (transport failures count under
    /// `"transport"`).
    pub failures_by_kind: Vec<(String, u64)>,
    /// Latency from *scheduled* arrival, conservative upper bounds.
    pub p50: Option<Duration>,
    /// 99th percentile.
    pub p99: Option<Duration>,
    /// 99.9th percentile.
    pub p999: Option<Duration>,
    /// Wall clock of the whole run.
    pub wall: Duration,
    /// Client-side resends performed (0 unless `retries > 0`).
    pub resends: u64,
}

impl LoadReport {
    /// Fraction of sent requests that got `ok:true`.
    pub fn success_rate(&self) -> f64 {
        if self.sent == 0 {
            return 1.0;
        }
        self.ok as f64 / self.sent as f64
    }

    /// Requests completed per wall-clock second.
    pub fn achieved_rps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.sent as f64 / secs
    }

    /// The report as one JSON object (the bench snapshot's row shape).
    pub fn to_json(&self) -> Json {
        let ms = |q: Option<Duration>| match q {
            Some(d) => Json::Num(d.as_secs_f64() * 1e3),
            None => Json::Null,
        };
        let kinds: Vec<Json> = self
            .failures_by_kind
            .iter()
            .map(|(k, n)| {
                Json::Obj(vec![
                    ("kind".to_string(), Json::str(k)),
                    ("count".to_string(), Json::int(*n as i64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("offered_rps".to_string(), Json::Num(self.offered_rps)),
            ("sent".to_string(), Json::int(self.sent as i64)),
            ("ok".to_string(), Json::int(self.ok as i64)),
            ("failed".to_string(), Json::int(self.failed as i64)),
            ("success_rate".to_string(), Json::Num(self.success_rate())),
            ("p50_ms".to_string(), ms(self.p50)),
            ("p99_ms".to_string(), ms(self.p99)),
            ("p999_ms".to_string(), ms(self.p999)),
            ("achieved_rps".to_string(), Json::Num(self.achieved_rps())),
            (
                "wall_ms".to_string(),
                Json::Num(self.wall.as_secs_f64() * 1e3),
            ),
            ("resends".to_string(), Json::int(self.resends as i64)),
            ("failures_by_kind".to_string(), Json::Arr(kinds)),
        ])
    }
}

/// Preload the grammar variants, with bounded patience (the topology
/// may still be coming up). Returns the handles, variant order.
///
/// # Errors
///
/// When a variant cannot be loaded within the retry budget.
pub fn preload(target: &ShardAddr, grammars: usize) -> std::io::Result<Vec<String>> {
    let mut handles = Vec::with_capacity(grammars.max(1));
    for i in 0..grammars.max(1) {
        let source = grammar_variant(i);
        let mut last: Option<std::io::Error> = None;
        let mut handle = None;
        for _attempt in 0..20 {
            let result = Client::connect(target)
                .and_then(|mut c| c.load_grammar(&source, None, Some(&format!("load-{}", i))));
            match result {
                Ok(reply) if reply.get("ok").and_then(Json::as_bool) == Some(true) => {
                    handle = reply
                        .get("grammar")
                        .and_then(Json::as_str)
                        .map(str::to_string);
                    break;
                }
                Ok(reply) => {
                    last = Some(std::io::Error::other(format!("load refused: {}", reply)));
                }
                Err(e) => last = Some(e),
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        match handle {
            Some(h) => handles.push(h),
            None => {
                return Err(last.unwrap_or_else(|| {
                    std::io::Error::other("preload failed with no error recorded")
                }))
            }
        }
    }
    Ok(handles)
}

struct Outcome {
    ok: bool,
    kind: Option<String>,
    resends: u64,
}

/// One request with the client-side retry budget: reconnects on
/// transport failure, resends on transport failure or a transient
/// typed error.
fn send_one(
    client: &mut Option<Client>,
    target: &ShardAddr,
    handle: &str,
    budget: usize,
    deadline_ms: Option<u64>,
    retries: usize,
) -> Outcome {
    let mut resends = 0u64;
    for attempt in 0..=retries {
        if client.is_none() {
            match Client::connect(target) {
                Ok(c) => *client = Some(c),
                Err(_) => {
                    if attempt < retries {
                        resends += 1;
                        std::thread::sleep(Duration::from_millis(5 << attempt.min(4)));
                        continue;
                    }
                    return Outcome {
                        ok: false,
                        kind: Some("transport".to_string()),
                        resends,
                    };
                }
            }
        }
        let c = client.as_mut().expect("client just ensured");
        match c.translate_budget(handle, budget, deadline_ms) {
            Ok(reply) => {
                if reply.get("ok").and_then(Json::as_bool) == Some(true) {
                    return Outcome {
                        ok: true,
                        kind: None,
                        resends,
                    };
                }
                let k = reply
                    .get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string();
                if attempt < retries && retryable_kind(&k) {
                    resends += 1;
                    std::thread::sleep(Duration::from_millis(5 << attempt.min(4)));
                    continue;
                }
                return Outcome {
                    ok: false,
                    kind: Some(k),
                    resends,
                };
            }
            Err(_) => {
                // The connection is poisoned; drop it and maybe retry.
                *client = None;
                if attempt < retries {
                    resends += 1;
                    std::thread::sleep(Duration::from_millis(5 << attempt.min(4)));
                    continue;
                }
                return Outcome {
                    ok: false,
                    kind: Some("transport".to_string()),
                    resends,
                };
            }
        }
    }
    unreachable!("retry loop always returns");
}

/// Run one open-loop load test. Preloads, then offers
/// `rate × duration` requests on schedule.
///
/// # Errors
///
/// Preload failure (the run itself always produces a report — failures
/// are data, not errors).
pub fn run_load(cfg: &LoadConfig) -> std::io::Result<LoadReport> {
    let handles = preload(&cfg.target, cfg.grammars)?;
    let total = (cfg.rate * cfg.duration.as_secs_f64()).round().max(1.0) as u64;
    let interval = Duration::from_secs_f64(1.0 / cfg.rate.max(0.001));
    let hist = LatencyHistogram::new();
    let next = AtomicU64::new(0);
    let ok = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let resends = AtomicU64::new(0);
    let kinds: Mutex<HashMap<String, u64>> = Mutex::new(HashMap::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..cfg.senders.max(1) {
            s.spawn(|| {
                let mut client: Option<Client> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        return;
                    }
                    // Open loop: wait for the scheduled arrival, then
                    // measure from it, backlog included.
                    let scheduled = interval.mul_f64(i as f64);
                    loop {
                        let now = start.elapsed();
                        if now >= scheduled {
                            break;
                        }
                        std::thread::sleep((scheduled - now).min(Duration::from_millis(5)));
                    }
                    let handle = &handles[(i as usize) % handles.len()];
                    let outcome = send_one(
                        &mut client,
                        &cfg.target,
                        handle,
                        cfg.budget,
                        cfg.deadline_ms,
                        cfg.retries,
                    );
                    hist.record(start.elapsed().saturating_sub(scheduled));
                    resends.fetch_add(outcome.resends, Ordering::Relaxed);
                    if outcome.ok {
                        ok.fetch_add(1, Ordering::Relaxed);
                    } else {
                        failed.fetch_add(1, Ordering::Relaxed);
                        let k = outcome.kind.unwrap_or_else(|| "unknown".to_string());
                        *kinds.lock().expect("kinds poisoned").entry(k).or_insert(0) += 1;
                    }
                }
            });
        }
    });
    let wall = start.elapsed();
    let mut failures_by_kind: Vec<(String, u64)> = kinds
        .into_inner()
        .expect("kinds poisoned")
        .into_iter()
        .collect();
    failures_by_kind.sort();
    Ok(LoadReport {
        offered_rps: cfg.rate,
        sent: total,
        ok: ok.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        failures_by_kind,
        p50: hist.quantile(0.50),
        p99: hist.quantile(0.99),
        p999: hist.quantile(0.999),
        wall,
        resends: resends.load(Ordering::Relaxed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_have_distinct_content_hashes() {
        use crate::store::grammar_key;
        let keys: std::collections::HashSet<String> = (0..8)
            .map(|i| grammar_key(&grammar_variant(i), None))
            .collect();
        assert_eq!(keys.len(), 8);
    }

    #[test]
    fn report_json_has_the_snapshot_row_shape() {
        let report = LoadReport {
            offered_rps: 100.0,
            sent: 100,
            ok: 99,
            failed: 1,
            failures_by_kind: vec![("overloaded".to_string(), 1)],
            p50: Some(Duration::from_millis(2)),
            p99: Some(Duration::from_millis(8)),
            p999: Some(Duration::from_millis(16)),
            wall: Duration::from_secs(1),
            resends: 0,
        };
        let j = report.to_json();
        let parsed = Json::parse(&j.to_string()).expect("report renders valid JSON");
        assert_eq!(parsed.get("sent").and_then(Json::as_i64), Some(100));
        assert_eq!(
            parsed.get("success_rate").and_then(Json::as_f64),
            Some(0.99)
        );
        assert!(parsed.get("p999_ms").and_then(Json::as_f64).is_some());
        assert_eq!(
            parsed
                .get("failures_by_kind")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn success_rate_is_total_when_nothing_was_sent() {
        let report = LoadReport {
            offered_rps: 0.0,
            sent: 0,
            ok: 0,
            failed: 0,
            failures_by_kind: vec![],
            p50: None,
            p99: None,
            p999: None,
            wall: Duration::ZERO,
            resends: 0,
        };
        assert!((report.success_rate() - 1.0).abs() < f64::EPSILON);
    }
}
