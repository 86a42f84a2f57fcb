//! Tier-1 guard on the serve AOT path: an in-process daemon configured
//! for the compiled engine answers a calc translation from its AOT
//! evaluator, tags the reply, and counts the run in its stats; its
//! replies report the interpreter's pass count on every bundled grammar;
//! and the `stats` reply's `eval` record keeps its shape. The fuller
//! serve engine suite lives in `crates/serve/tests/engine_serve.rs`.

use linguist86::engine::{EngineConfig, EngineKind};
use linguist86::eval::funcs::Funcs;
use linguist86::eval::machine::{evaluate, EvalOptions};
use linguist86::frontend::differential::strategy_for;
use linguist86::frontend::report::synthesize_tree;
use linguist86::grammars;
use linguist_serve::client::Client;
use linguist_serve::server::{Server, ServerConfig, ServerHandle};
use linguist_support::json::Json;

/// An in-process daemon on a fresh Unix socket, running `kind`.
fn daemon(tag: &str, kind: EngineKind) -> ServerHandle {
    let sock = std::env::temp_dir().join(format!(
        "linguist86-serve-aot-{}-{}.sock",
        tag,
        std::process::id()
    ));
    Server::start(ServerConfig {
        unix_path: Some(sock),
        workers: 1,
        queue_capacity: 4,
        engine: EngineConfig { kind },
        ..ServerConfig::default()
    })
    .expect("daemon starts")
}

/// Load `source` and return its handle.
fn load(c: &mut Client, source: &str) -> String {
    let loaded = c
        .load_grammar(source, None, None)
        .expect("load round-trips");
    loaded
        .get("grammar")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("load failed: {}", loaded))
        .to_string()
}

fn keys(obj: &Json) -> Vec<&str> {
    match obj {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {}", other),
    }
}

/// The five bundled grammars' sources, by name, with a synthetic-tree
/// size each evaluates at (`knuth`'s numerals overflow `Pow2` beyond
/// about 40 nodes).
fn bundled() -> [(&'static str, &'static str, usize); 5] {
    [
        ("calc", grammars::calc_source(), 200),
        ("knuth", grammars::knuth_source(), 40),
        ("block", grammars::block_source(), 200),
        ("meta", grammars::meta_source(), 200),
        ("pascal", grammars::pascal_source(), 200),
    ]
}

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

#[test]
fn aot_replies_report_the_interpreters_pass_count() {
    let handle = daemon("passes", EngineKind::CompiledAot);
    let mut c =
        Client::connect_unix(handle.unix_path().expect("unix socket bound")).expect("connect");
    for (name, source, budget) in bundled() {
        let analysis = grammars::analyze(source)
            .expect("bundled grammar analyzes")
            .analysis;
        let tree = synthesize_tree(&analysis.grammar, budget).expect("finite derivation");
        let opts = EvalOptions {
            strategy: strategy_for(&analysis),
            ..EvalOptions::default()
        };
        let interpreted = evaluate(&analysis, &Funcs::standard(), &tree, &opts)
            .unwrap_or_else(|e| panic!("{}: interpreter failed: {}", name, e));
        let key = load(&mut c, source);
        let reply = c
            .translate_budget(&key, budget, None)
            .expect("translate round-trips");
        assert_eq!(
            reply.get("engine").and_then(Json::as_str),
            Some("aot"),
            "{}: {}",
            name,
            reply
        );
        assert!(
            reply.get("engine_fallback").is_none(),
            "{}: {}",
            name,
            reply
        );
        assert_eq!(
            reply.get("passes").and_then(Json::as_u64),
            Some(interpreted.stats.passes.len() as u64),
            "{}: {}",
            name,
            reply
        );
    }
    handle.shutdown();
}

#[test]
fn stats_eval_record_keeps_its_shape_and_counts_interpreted_runs_only() {
    const EVAL_KEYS: [&str; 6] = [
        "initial_records",
        "initial_bytes",
        "total_io_bytes",
        "total_attrs",
        "total_funcs",
        "passes",
    ];
    const PASS_KEYS: [&str; 8] = [
        "pass",
        "records_read",
        "bytes_read",
        "records_written",
        "bytes_written",
        "attrs",
        "funcs",
        "rules",
    ];
    for kind in [EngineKind::Interpreted, EngineKind::CompiledAot] {
        let handle = daemon(kind.as_str(), kind);
        let mut c =
            Client::connect_unix(handle.unix_path().expect("unix socket bound")).expect("connect");
        let key = load(&mut c, grammars::block_source());
        let reply = c
            .translate_budget(&key, 200, None)
            .expect("translate round-trips");
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{}",
            reply
        );
        let stats = c.stats().expect("stats round-trip");
        let eval = stats.get("eval").expect("stats carry an eval record");
        assert_eq!(keys(eval), EVAL_KEYS, "{}", stats);
        let rows = eval
            .get("passes")
            .and_then(Json::as_arr)
            .expect("pass rows");
        let initial = eval.get("initial_records").and_then(Json::as_u64);
        match kind {
            EngineKind::Interpreted => {
                assert!(!rows.is_empty(), "{}", stats);
                for row in rows {
                    assert_eq!(keys(row), PASS_KEYS, "{}", stats);
                }
                assert!(initial.is_some_and(|n| n > 0), "{}", stats);
            }
            // Generated code does not count, so an AOT run adds nothing.
            EngineKind::CompiledAot => {
                assert!(rows.is_empty(), "{}", stats);
                assert_eq!(initial, Some(0), "{}", stats);
            }
        }
        handle.shutdown();
    }
}
