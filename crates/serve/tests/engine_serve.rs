//! The compiled-evaluator engine seen through the serve protocol.
//!
//! Pinned here:
//!
//! * a daemon configured for the AOT engine answers `translate` with
//!   the same outputs as the interpreter, reports `"engine": "aot"`
//!   in the reply, and counts the run in the stats `engine` block;
//! * a grammar outside the AOT registry degrades to the interpreter
//!   *per job*, succeeding with a typed `engine_fallback` reason
//!   (`aot_miss`) rather than an error;
//! * the default (interpreted) daemon reports `"engine":
//!   "interpreted"` and carries no fallback field.

use linguist_engine::{EngineConfig, EngineKind};
use linguist_serve::client::Client;
use linguist_serve::server::{Server, ServerConfig, ServerHandle};
use linguist_support::json::Json;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

fn sock_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "linguist-engine-serve-{}-{}-{}.sock",
        tag,
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn start(tag: &str, kind: EngineKind) -> ServerHandle {
    Server::start(ServerConfig {
        unix_path: Some(sock_path(tag)),
        workers: 2,
        queue_capacity: 16,
        engine: EngineConfig { kind },
        ..ServerConfig::default()
    })
    .expect("daemon starts")
}

fn client(handle: &ServerHandle) -> Client {
    Client::connect_unix(handle.unix_path().expect("unix socket bound")).expect("connect")
}

fn ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

fn engine_of(reply: &Json) -> Option<&str> {
    reply.get("engine").and_then(Json::as_str)
}

fn fallback_kind(reply: &Json) -> Option<&str> {
    reply
        .get("engine_fallback")
        .and_then(|f| f.get("kind"))
        .and_then(Json::as_str)
}

fn stats_engine(stats: &Json) -> &Json {
    stats.get("engine").expect("stats carry an engine block")
}

fn counter(stats: &Json, key: &str) -> i64 {
    stats_engine(stats)
        .get(key)
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("engine block missing {}: {}", key, stats))
}

/// A tiny grammar deliberately absent from the AOT registry.
const UNBUNDLED: &str = "\
grammar Tiny ;
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
";

#[test]
fn aot_daemon_serves_compiled_translations_and_counts_them() {
    let handle = start("aot", EngineKind::CompiledAot);
    let mut c = client(&handle);
    let loaded = c
        .load_grammar(linguist_grammars::calc_source(), Some("calc"), Some("calc"))
        .expect("load round-trips");
    assert!(ok(&loaded), "load failed: {}", loaded);
    let key = loaded.get("grammar").and_then(Json::as_str).unwrap();
    let reply = c
        .translate_input(key, "6 * 7", None)
        .expect("translate round-trips");
    assert!(ok(&reply), "translate failed: {}", reply);
    // Same answer as the interpreter, tagged with the engine that ran.
    assert_eq!(
        reply
            .get("outputs")
            .and_then(|o| o.get("V"))
            .and_then(Json::as_str),
        Some("42")
    );
    assert_eq!(engine_of(&reply), Some("aot"), "{}", reply);
    assert_eq!(fallback_kind(&reply), None, "{}", reply);
    let stats = c.stats().expect("stats round-trip");
    assert_eq!(
        stats_engine(&stats).get("kind").and_then(Json::as_str),
        Some("aot")
    );
    assert!(counter(&stats, "aot_runs") >= 1, "{}", stats);
    assert_eq!(counter(&stats, "fallbacks"), 0, "{}", stats);
    handle.shutdown();
}

#[test]
fn aot_miss_degrades_to_interpreter_with_typed_reason() {
    let handle = start("aot-miss", EngineKind::CompiledAot);
    let mut c = client(&handle);
    let loaded = c
        .load_grammar(UNBUNDLED, None, Some("tiny"))
        .expect("load round-trips");
    assert!(ok(&loaded), "load failed: {}", loaded);
    let key = loaded.get("grammar").and_then(Json::as_str).unwrap();
    let reply = c
        .translate_budget(key, 64, None)
        .expect("translate round-trips");
    // Degraded, not dead: the job still succeeds on the interpreter
    // and says why the compiled path was unavailable.
    assert!(ok(&reply), "fallback translate failed: {}", reply);
    assert_eq!(engine_of(&reply), Some("interpreted"), "{}", reply);
    assert_eq!(fallback_kind(&reply), Some("aot_miss"), "{}", reply);
    let stats = c.stats().expect("stats round-trip");
    assert!(counter(&stats, "fallbacks") >= 1, "{}", stats);
    assert!(counter(&stats, "interpreted_runs") >= 1, "{}", stats);
    handle.shutdown();
}

#[test]
fn interpreted_daemon_reports_its_engine_without_fallback_noise() {
    let handle = start("interp", EngineKind::Interpreted);
    let mut c = client(&handle);
    let loaded = c
        .load_grammar(linguist_grammars::calc_source(), Some("calc"), Some("calc"))
        .expect("load round-trips");
    assert!(ok(&loaded), "load failed: {}", loaded);
    let key = loaded.get("grammar").and_then(Json::as_str).unwrap();
    let reply = c
        .translate_input(key, "2 + 3", None)
        .expect("translate round-trips");
    assert!(ok(&reply), "translate failed: {}", reply);
    assert_eq!(engine_of(&reply), Some("interpreted"), "{}", reply);
    assert!(
        reply.get("engine_fallback").is_none(),
        "interpreted runs are not fallbacks: {}",
        reply
    );
    let stats = c.stats().expect("stats round-trip");
    assert_eq!(
        stats_engine(&stats).get("kind").and_then(Json::as_str),
        Some("interpreted")
    );
    handle.shutdown();
}
