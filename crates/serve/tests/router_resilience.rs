//! The sharded tier's acceptance tests: a router in front of real
//! in-process shards, under open-loop load, with shards dying and
//! recovering mid-run.
//!
//! Pinned properties:
//!
//! * requests route by grammar content hash and spread across shards;
//! * killing a shard mid-run loses **zero** client requests — the
//!   router fails over, and the dead shard is ejected within a health
//!   interval;
//! * a restarted shard is re-admitted with the hot grammars replicated
//!   back in *before* it takes traffic, so by-handle requests do not
//!   miss;
//! * with every shard down, clients get a typed `shard_unavailable`
//!   error (not a hang, not a transport error), and service resumes
//!   when a shard returns;
//! * a draining router refuses new work with `shutting_down`;
//! * chaos-proxy faults (freeze, garbled replies) trip failover
//!   instead of corrupting results.

use linguist_serve::chaos::{ChaosProxy, Fault};
use linguist_serve::client::Client;
use linguist_serve::load::{grammar_variant, run_load, LoadConfig};
use linguist_serve::net::ShardAddr;
use linguist_serve::router::{Router, RouterConfig, RouterHandle};
use linguist_serve::server::{Server, ServerConfig, ServerHandle};
use linguist_support::json::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

fn sock_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "linguist-router-{}-{}-{}.sock",
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

/// A router over the given shard sockets, tuned for test speed: fast
/// health checks, short attempt timeouts, quick breaker cooldown.
fn start_router(shards: Vec<ShardAddr>) -> RouterHandle {
    Router::start(RouterConfig {
        unix_path: Some(sock_path("front")),
        shards,
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

fn router_client(router: &RouterHandle) -> Client {
    Client::connect_unix(router.unix_path().expect("unix bound")).expect("connect")
}

fn ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

fn error_kind(reply: &Json) -> Option<&str> {
    reply
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
}

/// Wait (bounded) for the router's health checker to agree with
/// `want_healthy` about the shard at `index`.
fn await_health(router: &RouterHandle, index: usize, want_healthy: bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if router.state().shards()[index].is_healthy() == want_healthy {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!(
        "shard {} never became healthy={} (stats: healthy={})",
        index,
        want_healthy,
        router.state().shards()[index].is_healthy()
    );
}

#[test]
fn requests_spread_across_shards_and_route_deterministically() {
    let (p1, p2) = (sock_path("spread1"), sock_path("spread2"));
    let (s1, s2) = (start_shard(&p1), start_shard(&p2));
    let router = start_router(vec![ShardAddr::Unix(p1), ShardAddr::Unix(p2)]);
    let mut client = router_client(&router);
    // Enough distinct grammars that both shards own some keys with
    // overwhelming probability (p ≈ 2^-19 that 20 keys miss a shard
    // whose ring share is near half).
    let mut handles = Vec::new();
    for i in 0..20 {
        let reply = client
            .load_grammar(&grammar_variant(i), None, None)
            .expect("load");
        assert!(ok(&reply), "load {} refused: {}", i, reply);
        handles.push(
            reply
                .get("grammar")
                .and_then(Json::as_str)
                .expect("handle")
                .to_string(),
        );
    }
    for h in &handles {
        let reply = client.translate_budget(h, 32, None).expect("translate");
        assert!(ok(&reply), "translate via router failed: {}", reply);
    }
    let counts: Vec<u64> = router
        .state()
        .shards()
        .iter()
        .map(|s| s.request_count())
        .collect();
    assert!(
        counts.iter().all(|&c| c > 0),
        "one shard took no traffic at all: {:?}",
        counts
    );
    drop(client);
    router.shutdown();
    s1.shutdown();
    s2.shutdown();
}

#[test]
fn killing_a_shard_mid_run_loses_no_requests_and_recovery_replicates() {
    let (p1, p2) = (sock_path("kill1"), sock_path("kill2"));
    let s1 = start_shard(&p1);
    let s2 = start_shard(&p2);
    let router = start_router(vec![ShardAddr::Unix(p1.clone()), ShardAddr::Unix(p2)]);
    let target = ShardAddr::Unix(router.unix_path().expect("unix bound").to_path_buf());

    // Kill shard 1 ~300 ms into a ~1.2 s run; restart it at ~700 ms.
    let chaos = std::thread::spawn({
        let p1 = p1.clone();
        move || {
            std::thread::sleep(Duration::from_millis(300));
            s1.shutdown();
            std::thread::sleep(Duration::from_millis(400));
            start_shard(&p1)
        }
    });
    let report = run_load(&LoadConfig {
        target,
        rate: 120.0,
        duration: Duration::from_millis(1200),
        grammars: 6,
        budget: 32,
        senders: 4,
        ..LoadConfig::default()
    })
    .expect("load runs");
    let s1b = chaos.join().expect("chaos thread");

    assert_eq!(
        report.failed, 0,
        "client-visible failures despite failover: {:?}",
        report.failures_by_kind
    );
    assert!(report.sent >= 100, "load undershot: {} sent", report.sent);

    let dead = &router.state().shards()[0];
    assert!(dead.ejection_count() >= 1, "killed shard was never ejected");
    // Re-admission happens on the health loop; give it a moment.
    await_health(&router, 0, true);
    assert!(
        dead.readmission_count() >= 1,
        "restarted shard was never re-admitted"
    );
    assert!(
        dead.replicated_count() >= 1,
        "no hot grammars were replicated into the recovered shard"
    );

    // The recovered shard answers by-handle requests for grammars it
    // never saw loaded (replication put them there; rehydration would
    // also cover a miss).
    let mut direct =
        Client::connect_unix(s1b.unix_path().expect("unix bound")).expect("connect recovered");
    let handle_reply = direct
        .load_grammar(&grammar_variant(0), None, None)
        .expect("load");
    assert!(ok(&handle_reply));
    assert_eq!(
        handle_reply.get("cached").and_then(Json::as_bool),
        Some(true),
        "replication should have warmed variant 0 into the recovered shard"
    );
    drop(direct);
    router.shutdown();
    s1b.shutdown();
    s2.shutdown();
}

#[test]
fn all_shards_down_is_a_typed_error_and_service_resumes() {
    let p1 = sock_path("alldown");
    let s1 = start_shard(&p1);
    let router = start_router(vec![ShardAddr::Unix(p1.clone())]);
    let mut client = router_client(&router);
    let reply = client
        .load_grammar(&grammar_variant(0), None, None)
        .expect("load");
    assert!(ok(&reply));
    let handle = reply
        .get("grammar")
        .and_then(Json::as_str)
        .expect("handle")
        .to_string();

    s1.shutdown();
    await_health(&router, 0, false);
    let reply = client
        .translate_budget(&handle, 16, None)
        .expect("roundtrip still works");
    assert_eq!(
        error_kind(&reply),
        Some("shard_unavailable"),
        "expected typed unavailability, got: {}",
        reply
    );

    // Shard returns; the router re-admits it (replicating the cached
    // grammar) and traffic flows again.
    let s1b = start_shard(&p1);
    await_health(&router, 0, true);
    let reply = client
        .translate_budget(&handle, 16, None)
        .expect("roundtrip");
    assert!(ok(&reply), "service did not resume: {}", reply);
    drop(client);
    router.shutdown();
    s1b.shutdown();
}

#[test]
fn draining_router_refuses_new_work_with_shutting_down() {
    let p1 = sock_path("drain");
    let s1 = start_shard(&p1);
    let router = start_router(vec![ShardAddr::Unix(p1)]);
    let mut client = router_client(&router);
    // Establish the session (a connection still in the accept backlog
    // when the drain starts is refused, which is also correct).
    assert!(ok(&client.ping().expect("roundtrip")));
    router.state().begin_drain();
    let reply = client.ping().expect("roundtrip");
    assert_eq!(error_kind(&reply), Some("shutting_down"), "got: {}", reply);
    drop(client);
    router.shutdown();
    s1.shutdown();
}

#[test]
fn frozen_and_garbled_shards_fail_over_without_corrupting_replies() {
    // Shard 1 sits behind a chaos proxy; shard 2 is direct. All keys
    // have both as candidates, so any fault on the proxy must surface
    // as failover, never as a corrupt or failed client reply.
    let (p1, p2) = (sock_path("chaos1"), sock_path("chaos2"));
    let s1 = start_shard(&p1);
    let s2 = start_shard(&p2);
    let proxy = ChaosProxy::start(ShardAddr::Unix(p1)).expect("proxy starts");
    let router = start_router(vec![proxy.shard_addr(), ShardAddr::Unix(p2)]);
    let mut client = router_client(&router);

    let mut handles = Vec::new();
    for i in 0..4 {
        let reply = client
            .load_grammar(&grammar_variant(i), None, None)
            .expect("load");
        assert!(ok(&reply), "load refused: {}", reply);
        handles.push(
            reply
                .get("grammar")
                .and_then(Json::as_str)
                .expect("handle")
                .to_string(),
        );
    }

    for fault in [Fault::Garble, Fault::Freeze] {
        proxy.set_fault(fault);
        for h in &handles {
            let reply = client.translate_budget(h, 16, None).expect("roundtrip");
            assert!(
                ok(&reply),
                "fault {:?} leaked to the client: {}",
                proxy.fault(),
                reply
            );
        }
        proxy.set_fault(Fault::None);
        await_health(&router, 0, true);
    }
    drop(client);
    router.shutdown();
    s1.shutdown();
    s2.shutdown();
}
