//! Loopback TCP round trips must cost transport time, not timer time.
//!
//! A frame that leaves in several small writes on a socket without
//! `TCP_NODELAY` waits on Nagle's algorithm for the peer's delayed ACK:
//! about 40 ms per round trip on loopback. These tests time 20 round
//! trips to a daemon, and through a router to TCP shards, and hold the
//! median under 5 ms.

use linguist_serve::client::Client;
use linguist_serve::load::grammar_variant;
use linguist_serve::net::ShardAddr;
use linguist_serve::router::{Router, RouterConfig};
use linguist_serve::server::{Server, ServerConfig, ServerHandle};
use linguist_support::json::Json;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const TRIES: usize = 20;
const P50_LIMIT_MS: f64 = 5.0;

fn tcp_daemon() -> ServerHandle {
    Server::start(ServerConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("daemon starts")
}

fn client(addr: SocketAddr) -> Client {
    let mut c = Client::connect_tcp(addr).expect("connect");
    c.set_timeouts(Some(Duration::from_secs(5)))
        .expect("timeouts");
    c
}

/// The median of `TRIES` timed round trips, after one untimed warm-up.
fn p50_ms(mut roundtrip: impl FnMut() -> Json) -> f64 {
    let ok = |r: &Json| r.get("ok").and_then(Json::as_bool) == Some(true);
    let warm = roundtrip();
    assert!(ok(&warm), "warm-up failed: {}", warm);
    let mut ms: Vec<f64> = (0..TRIES)
        .map(|_| {
            let started = Instant::now();
            let reply = roundtrip();
            assert!(ok(&reply), "round trip failed: {}", reply);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[TRIES / 2]
}

#[test]
fn tcp_ping_to_a_daemon_has_a_p50_under_5ms() {
    let daemon = tcp_daemon();
    let mut c = client(daemon.tcp_addr().expect("tcp bound"));
    let p50 = p50_ms(|| c.ping().expect("ping"));
    assert!(p50 < P50_LIMIT_MS, "daemon ping p50 {:.2} ms over TCP", p50);
    daemon.shutdown();
}

#[test]
fn tcp_ping_and_translate_through_a_router_to_tcp_shards_have_a_p50_under_5ms() {
    let shards = [tcp_daemon(), tcp_daemon()];
    let router = Router::start(RouterConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        shards: shards
            .iter()
            .map(|s| ShardAddr::Tcp(s.tcp_addr().expect("tcp bound").to_string()))
            .collect(),
        ..RouterConfig::default()
    })
    .expect("router starts");
    let mut c = client(router.tcp_addr().expect("tcp bound"));
    let ping = p50_ms(|| c.ping().expect("ping"));
    assert!(
        ping < P50_LIMIT_MS,
        "router ping p50 {:.2} ms over TCP",
        ping
    );
    // A translate crosses the router's hop to a TCP shard and back.
    let loaded = c
        .load_grammar(&grammar_variant(0), None, Some("latency"))
        .expect("load");
    let handle = loaded
        .get("grammar")
        .and_then(Json::as_str)
        .expect("handle")
        .to_string();
    let translate = p50_ms(|| c.translate_budget(&handle, 4, None).expect("translate"));
    assert!(
        translate < P50_LIMIT_MS,
        "routed translate p50 {:.2} ms over TCP",
        translate
    );
    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}
