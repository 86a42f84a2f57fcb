//! Tier-1 guard on the serve AOT path: an in-process daemon configured
//! for the compiled engine answers a calc translation from its AOT
//! evaluator, tags the reply, and counts the run in its stats. The
//! fuller serve engine suite lives in `crates/serve/tests/engine_serve.rs`.

use linguist86::engine::{EngineConfig, EngineKind};
use linguist_serve::client::Client;
use linguist_serve::server::{Server, ServerConfig};
use linguist_support::json::Json;

#[test]
fn aot_daemon_translates_calc_and_counts_the_run() {
    let sock =
        std::env::temp_dir().join(format!("linguist86-serve-aot-{}.sock", std::process::id()));
    let handle = Server::start(ServerConfig {
        unix_path: Some(sock),
        workers: 1,
        queue_capacity: 4,
        engine: EngineConfig {
            kind: EngineKind::CompiledAot,
        },
        ..ServerConfig::default()
    })
    .expect("daemon starts");
    let mut c =
        Client::connect_unix(handle.unix_path().expect("unix socket bound")).expect("connect");
    let loaded = c
        .load_grammar(
            linguist86::grammars::calc_source(),
            Some("calc"),
            Some("calc"),
        )
        .expect("load round-trips");
    let key = loaded
        .get("grammar")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("load failed: {}", loaded));
    let reply = c
        .translate_input(key, "6 * 7", None)
        .expect("translate round-trips");
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        reply
    );
    assert_eq!(
        reply
            .get("outputs")
            .and_then(|o| o.get("V"))
            .and_then(Json::as_str),
        Some("42"),
        "{}",
        reply
    );
    assert_eq!(
        reply.get("engine").and_then(Json::as_str),
        Some("aot"),
        "{}",
        reply
    );
    let stats = c.stats().expect("stats round-trip");
    let engine = stats.get("engine").expect("stats carry an engine block");
    let count = |key: &str| engine.get(key).and_then(Json::as_i64);
    assert!(count("aot_runs").is_some_and(|n| n >= 1), "{}", stats);
    assert_eq!(count("fallbacks"), Some(0), "{}", stats);
    handle.shutdown();
}
