//! Service-level metrics: what the `Stats` endpoint reports.
//!
//! Three layers are folded into one JSON document:
//!
//! * **request counters** — loads, translates, error replies, plus a
//!   [`LatencyHistogram`](crate::hist::LatencyHistogram) of translate
//!   wall time (p50/p99 as conservative upper bounds);
//! * **evaluation record** — every interpreted evaluation's
//!   [`EvalStats`] is [`merge`](EvalStats::merge)d into one aggregate,
//!   so the daemon exposes the same pass-level traffic table the
//!   `--profile` report prints, accumulated across all requests since
//!   start;
//! * **cache and queue** — the session cache's hit/miss/eviction
//!   counters with a per-grammar table, and the pool's live queue
//!   depth and admission-control counters.

use linguist_eval::machine::EvalStats;
use linguist_support::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::hist::LatencyHistogram;
use crate::pool::WorkerPool;
use crate::store::GrammarStore;

/// Lifetime request counters plus the latency histogram and the merged
/// evaluation record.
#[derive(Debug)]
pub struct ServiceMetrics {
    started: Instant,
    /// `load_grammar` requests served (ok or not).
    pub loads: AtomicU64,
    /// Translate jobs finished (batch jobs count individually).
    pub translates: AtomicU64,
    /// Error replies sent, of any kind.
    pub errors: AtomicU64,
    /// Jobs that hit their deadline (subset of `errors`).
    pub deadline_misses: AtomicU64,
    latency: LatencyHistogram,
    eval: Mutex<EvalStats>,
}

impl ServiceMetrics {
    /// Fresh counters; the uptime clock starts now.
    pub fn new() -> ServiceMetrics {
        ServiceMetrics {
            started: Instant::now(),
            loads: AtomicU64::new(0),
            translates: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            eval: Mutex::new(EvalStats::default()),
        }
    }

    /// Record one finished translate job: its wall time and, when the
    /// interpreter ran it, its evaluation record.
    pub fn record_translate(&self, wall: Duration, stats: Option<&EvalStats>) {
        self.translates.fetch_add(1, Ordering::Relaxed);
        self.latency.record(wall);
        if let Some(s) = stats {
            self.eval.lock().expect("metrics poisoned").merge(s);
        }
    }

    /// Count one error reply of the given kind.
    pub fn record_error(&self, kind: &str) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        if kind == "deadline" {
            self.deadline_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The merged evaluation record so far.
    pub fn eval_stats(&self) -> EvalStats {
        self.eval.lock().expect("metrics poisoned").clone()
    }

    /// Render the full `Stats` reply body (everything except `"ok"`).
    pub fn render(&self, store: &GrammarStore, pool: &WorkerPool) -> Vec<(String, Json)> {
        let (p50, p99) = self.latency.p50_p99();
        let p999 = self.latency.quantile(0.999);
        let quantile = |q: Option<Duration>| match q {
            Some(d) => Json::Num(d.as_secs_f64() * 1e3),
            None => Json::Null,
        };
        let s = store.stats();
        let p = pool.stats();
        let eval = self.eval_stats();
        let grammars: Vec<Json> = store
            .entries()
            .iter()
            .map(|g| {
                Json::Obj(vec![
                    ("grammar".to_string(), Json::str(&g.key)),
                    ("name".to_string(), Json::str(&g.name)),
                    ("passes".to_string(), Json::int(g.passes() as i64)),
                    ("hits".to_string(), Json::int(g.hit_count() as i64)),
                    (
                        "compile_ms".to_string(),
                        Json::Num(g.compile_time.as_secs_f64() * 1e3),
                    ),
                    ("source_lines".to_string(), Json::int(g.source_lines as i64)),
                ])
            })
            .collect();
        vec![
            (
                "uptime_ms".to_string(),
                Json::Num(self.started.elapsed().as_secs_f64() * 1e3),
            ),
            (
                "requests".to_string(),
                Json::Obj(vec![
                    (
                        "loads".to_string(),
                        Json::int(self.loads.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "translates".to_string(),
                        Json::int(self.translates.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "errors".to_string(),
                        Json::int(self.errors.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "deadline_misses".to_string(),
                        Json::int(self.deadline_misses.load(Ordering::Relaxed) as i64),
                    ),
                    ("latency_p50_ms".to_string(), quantile(p50)),
                    ("latency_p99_ms".to_string(), quantile(p99)),
                    ("latency_p999_ms".to_string(), quantile(p999)),
                ]),
            ),
            (
                "cache".to_string(),
                Json::Obj(vec![
                    ("hits".to_string(), Json::int(s.hits as i64)),
                    ("misses".to_string(), Json::int(s.misses as i64)),
                    ("evictions".to_string(), Json::int(s.evictions as i64)),
                    ("analyses".to_string(), Json::int(s.analyses as i64)),
                    ("entries".to_string(), Json::int(s.entries as i64)),
                    ("capacity".to_string(), Json::int(s.capacity as i64)),
                ]),
            ),
            (
                "optimizer".to_string(),
                Json::Obj(vec![
                    ("folded".to_string(), Json::int(s.opt_folded as i64)),
                    ("eliminated".to_string(), Json::int(s.opt_eliminated as i64)),
                    ("collapsed".to_string(), Json::int(s.opt_collapsed as i64)),
                ]),
            ),
            ("grammars".to_string(), Json::Arr(grammars)),
            (
                "queue".to_string(),
                Json::Obj(vec![
                    ("depth".to_string(), Json::int(p.queued as i64)),
                    ("running".to_string(), Json::int(p.running as i64)),
                    ("capacity".to_string(), Json::int(p.queue_capacity as i64)),
                    ("workers".to_string(), Json::int(p.workers as i64)),
                    ("submitted".to_string(), Json::int(p.submitted as i64)),
                    ("rejected".to_string(), Json::int(p.rejected as i64)),
                    ("panicked".to_string(), Json::int(p.panicked as i64)),
                    ("completed".to_string(), Json::int(p.completed as i64)),
                ]),
            ),
            (
                "eval".to_string(),
                Json::Obj(vec![
                    (
                        "initial_records".to_string(),
                        Json::int(eval.initial_records as i64),
                    ),
                    (
                        "initial_bytes".to_string(),
                        Json::int(eval.initial_bytes as i64),
                    ),
                    (
                        "total_io_bytes".to_string(),
                        Json::int(eval.total_io_bytes() as i64),
                    ),
                    (
                        "total_attrs".to_string(),
                        Json::int(eval.total_attrs_evaluated() as i64),
                    ),
                    (
                        "total_funcs".to_string(),
                        Json::int(eval.total_funcs_invoked() as i64),
                    ),
                    (
                        "passes".to_string(),
                        Json::Arr(
                            eval.passes
                                .iter()
                                .map(|row| {
                                    Json::Obj(vec![
                                        ("pass".to_string(), Json::int(row.pass as i64)),
                                        (
                                            "records_read".to_string(),
                                            Json::int(row.records_read as i64),
                                        ),
                                        (
                                            "bytes_read".to_string(),
                                            Json::int(row.bytes_read as i64),
                                        ),
                                        (
                                            "records_written".to_string(),
                                            Json::int(row.records_written as i64),
                                        ),
                                        (
                                            "bytes_written".to_string(),
                                            Json::int(row.bytes_written as i64),
                                        ),
                                        (
                                            "attrs".to_string(),
                                            Json::int(row.attrs_evaluated as i64),
                                        ),
                                        ("funcs".to_string(), Json::int(row.funcs_invoked as i64)),
                                        (
                                            "rules".to_string(),
                                            Json::int(row.rules_evaluated as i64),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ]
    }
}

impl Default for ServiceMetrics {
    fn default() -> ServiceMetrics {
        ServiceMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linguist_eval::aptfile::ReadDir;
    use linguist_eval::machine::PassStats;

    fn one_pass_metrics(n: u64) -> EvalStats {
        EvalStats {
            initial_records: n,
            initial_bytes: 10 * n,
            passes: vec![PassStats {
                records_read: n,
                bytes_read: 10 * n,
                records_written: n,
                bytes_written: 10 * n,
                attrs_evaluated: 2 * n,
                funcs_invoked: n,
                rules_evaluated: n,
                ..PassStats::new(1, ReadDir::Backward)
            }],
            ..EvalStats::default()
        }
    }

    #[test]
    fn profiles_merge_across_requests() {
        let m = ServiceMetrics::new();
        m.record_translate(Duration::from_millis(2), Some(&one_pass_metrics(5)));
        m.record_translate(Duration::from_millis(4), Some(&one_pass_metrics(3)));
        m.record_translate(Duration::from_millis(1), None);
        let agg = m.eval_stats();
        assert_eq!(agg.initial_records, 8);
        assert_eq!(agg.passes.len(), 1);
        assert_eq!(agg.passes[0].records_read, 8);
        assert_eq!(m.translates.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn render_produces_valid_json_with_all_sections() {
        let m = ServiceMetrics::new();
        m.record_translate(Duration::from_millis(2), Some(&one_pass_metrics(5)));
        m.record_error("deadline");
        m.record_error("overloaded");
        let store = GrammarStore::new(4);
        let pool = WorkerPool::new(1, 2);
        let body = Json::Obj(m.render(&store, &pool)).to_string();
        let parsed = Json::parse(&body).expect("stats body is valid JSON");
        let requests = parsed.get("requests").expect("requests section");
        assert_eq!(requests.get("errors").and_then(Json::as_i64), Some(2));
        assert_eq!(
            requests.get("deadline_misses").and_then(Json::as_i64),
            Some(1)
        );
        assert!(requests
            .get("latency_p50_ms")
            .and_then(Json::as_f64)
            .is_some());
        assert!(requests
            .get("latency_p999_ms")
            .and_then(Json::as_f64)
            .is_some());
        assert_eq!(
            parsed
                .get("queue")
                .and_then(|q| q.get("capacity"))
                .and_then(Json::as_i64),
            Some(2)
        );
        assert_eq!(
            parsed
                .get("eval")
                .and_then(|e| e.get("total_attrs"))
                .and_then(Json::as_i64),
            Some(10)
        );
        pool.shutdown();
    }
}
